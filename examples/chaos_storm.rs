//! Chaos storms: composed fault schedules, drawn from a seed, shrunk to a
//! minimal reproducer, and survived by a self-healing service.
//!
//! Every earlier example injects one fault axis at a time. This one drives
//! the chaos layer (`at_most_once::sim::chaos`), where a single seeded
//! [`ChaosPlan`] composes crashes, a storage blackout and an adversarial
//! scheduler into one run. The tour:
//!
//!   1. the quiet-plan identity — a fault-free plan is observationally
//!      free (bit-identical report to the plain spec);
//!   2. seeded storms per intensity tier, lowered onto KKβ: at-most-once
//!      and the Theorem 4.4 effectiveness bound hold in every one;
//!   3. the failing-schedule shrinker: a storm that breaks a canary
//!      invariant ("no job is ever lost") is delta-debugged to a minimal
//!      reproducer, deterministically, and emitted as a replay snippet
//!      that round-trips to the identical failure;
//!   4. the same philosophy live: the claim service under worker-kill
//!      chaos and client deadline pressure, degrading gracefully.
//!
//! Run with: `cargo run --release --example chaos_storm`

use std::time::Duration;

use at_most_once::core::{run_scenario_simulated, KkConfig};
use at_most_once::serve::{run_soak, KkBlueprint, RetryPolicy, ServiceChaos, SoakConfig};
use at_most_once::sim::chaos::KNOWN_ADVERSARIES;
use at_most_once::sim::{shrink_plan, ChaosPlan, ChaosSpace, Intensity, ScenarioSpec};

fn main() {
    let (n, m) = (400usize, 4usize);
    let config = KkConfig::new(n, m).expect("valid config");
    let base = ScenarioSpec::random(0x5708).with_quantum(16);

    // ── 1. The quiet-plan identity ──────────────────────────────────────
    // A plan with no events lowers to a spec that drives a bit-identical
    // execution: the chaos dimension is free until a fault is scheduled.
    let quiet = ScenarioSpec::random(0xC0FFEE).with_quantum(16);
    let plain = run_scenario_simulated(&config, &quiet);
    let lowered = run_scenario_simulated(&config, &quiet.with_chaos(&ChaosPlan::quiet()));
    assert_eq!(plain, lowered, "quiet chaos must be observationally free");
    println!("quiet plan: bit-identical report — chaos is free until scheduled\n");

    // ── 2. Seeded storms per intensity tier ─────────────────────────────
    // KKβ's space: no restarts (no on_restart), but every adversary the
    // registry knows plus the storage axis.
    let space = ChaosSpace::new(m, n as u64)
        .with_storage()
        .with_adversaries(KNOWN_ADVERSARIES);
    let bound = config.effectiveness_bound();
    println!("KKβ n={n} m={m}: Theorem 4.4 floor n − (β + m − 2) = {bound}");
    for tier in Intensity::ALL {
        let plan = ChaosPlan::draw(0xE12, tier, &space);
        let r = run_scenario_simulated(&config, &base.with_chaos(&plan));
        assert!(r.violations.is_empty(), "at-most-once broke under chaos");
        assert!(r.effectiveness >= bound, "the composed storm dipped below");
        println!(
            "  {:<6} [{}]: effectiveness {} ≥ {bound}, violations 0",
            tier.label(),
            plan.summary(),
            r.effectiveness,
        );
    }

    // ── 3. Shrinking a failing storm ────────────────────────────────────
    // Canary invariant: "chaos never costs a single job" — effectiveness
    // must match the fault-free run of the same spec. Deliberately too
    // strong: a crash that takes an announced-but-unperformed job down
    // with it loses that job forever, because at-most-once forbids anyone
    // else from re-performing it. Draw storms until one trips the canary...
    let healthy = run_scenario_simulated(&config, &base).effectiveness;
    let fails = |plan: &ChaosPlan| {
        let r = run_scenario_simulated(&config, &base.with_chaos(plan));
        r.effectiveness < healthy
    };
    let storm = (0..64u64)
        .map(|seed| ChaosPlan::draw(seed, Intensity::Heavy, &space))
        .find(fails)
        .expect("some heavy storm loses a job");
    println!("\ncanary 'no job lost' tripped by: [{}]", storm.summary());

    // ...then delta-debug it to the minimal schedule that still fails.
    // The shrinker is deterministic: same plan + same predicate ⇒ same
    // minimal reproducer, every time.
    let min = shrink_plan(&storm, fails);
    assert_eq!(
        min,
        shrink_plan(&storm, fails),
        "shrinking is deterministic"
    );
    assert_eq!(
        min,
        shrink_plan(&min, fails),
        "the minimum is a fixed point"
    );
    println!("shrunk to minimal reproducer:     [{}]", min.summary());

    // The reproducer travels as a replay snippet — parse it back and the
    // identical failure reproduces.
    let snippet = min.to_replay();
    let replayed = ChaosPlan::parse_replay(&snippet).expect("round trip");
    assert_eq!(replayed, min);
    assert!(fails(&replayed), "the replayed plan fails identically");
    println!("replay snippet (commit this next to the regression test):");
    for line in snippet.lines() {
        println!("  | {line}");
    }

    // ── 4. The self-healing claim service ───────────────────────────────
    // The serve-side of the same philosophy: chaos kills workers mid-run
    // (supervision restarts them, re-serving the requests they held) while
    // every client runs a bounded-retry deadline. Accepted ⇒ granted, the
    // audit stays clean, and the degradation is reported — not hidden.
    // The kills are *real* panics caught by supervision; keep the default
    // hook from spraying their backtraces over the summary, but let any
    // unexpected panic still report.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|msg| msg.contains("chaos: injected worker kill"));
        if !expected {
            default_hook(info);
        }
    }));
    let soak = SoakConfig {
        clients: 4,
        claims_per_client: 150,
        deserters: 1,
        requests_per_deserter: 2,
        join_stagger: Duration::from_micros(200),
        queue_capacity: 8,
        chaos: Some(ServiceChaos::every(25, 3)),
        deadline: Some(RetryPolicy::new(Duration::from_millis(2), 8)),
    };
    println!("\nchaotic soak: worker kill every 25 grants, 2 ms deadline clients");
    let outcome = run_soak(KkBlueprint::new(256, 4).expect("valid config"), &soak);
    println!("  {}", outcome.summary());
    assert_eq!(outcome.service.violations, 0, "the audit never fires");
    assert_eq!(
        outcome.service.granted, outcome.service.queue.accepted,
        "accepted ⇒ granted, even under kills"
    );
    assert!(
        outcome.service.worker_restarts > 0,
        "chaos kills must actually fire"
    );

    println!("\nevery storm survived: at-most-once is not negotiable.");
}
