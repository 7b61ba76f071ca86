//! Cross-crate property tests through the umbrella API: arbitrary
//! instances, schedules, crash plans — at-most-once, bounds, Write-All
//! completeness, simulator/thread consistency — plus the golden reference
//! pinning the scenario runner to a hand-built engine pipeline.

use at_most_once::baselines::{run_baseline_scenario, AmoBaselineKind};
use at_most_once::core::{run_scenario_simulated, KkConfig};
use at_most_once::iterative::{run_iterative_scenario, IterConfig};
use at_most_once::sim::{CrashPlan, ScenarioSpec};
use at_most_once::write_all::{run_wa_scenario, WaConfig};
use proptest::prelude::*;

fn crash_plan(m: usize, seed: u64) -> CrashPlan {
    let f = (seed as usize) % m;
    CrashPlan::at_steps((1..=f).map(|p| (p, seed % 313 * p as u64)))
}

/// Independent golden reference: this test reconstructs the runner
/// pipeline directly on the engine — hand-built fleet, hand-wired epoch
/// cache and tracking, hand-composed scheduler + [`WithCrashes`] — and
/// requires `run_scenario_simulated` to reproduce it
/// observable-for-observable (`local_work` included), so a bug in the
/// scenario driver cannot hide behind a runner that shares it.
#[test]
fn scenario_shims_match_a_hand_built_engine_reference() {
    use at_most_once::core::{kk_fleet_with, KkProcess};
    use at_most_once::sim::{
        BlockScheduler, Engine, RandomScheduler, RoundRobin, Scheduler, VecRegisters, WithCrashes,
    };

    let config = KkConfig::new(150, 4).unwrap();
    let plan = CrashPlan::at_steps([(1usize, 31u64)]);

    // The runner pipeline, by hand: build the fleet, opt into the cache iff
    // the scheduler grants quanta, switch register epoch tracking
    // accordingly, wrap with crashes, run.
    fn reference<S: Scheduler<KkProcess>>(
        config: &KkConfig,
        interleaved: bool,
        cache: bool,
        sched: S,
        plan: &CrashPlan,
    ) -> (u64, u64, u64, u64, Vec<usize>) {
        let (layout, mut fleet) = kk_fleet_with(config, false, interleaved);
        if cache {
            for p in &mut fleet {
                p.set_epoch_cache(true);
            }
        }
        let mem = VecRegisters::new(layout.cells());
        mem.set_epoch_tracking(cache);
        let sched = WithCrashes::new(sched, plan.clone());
        let exec = Engine::new(mem, fleet, sched).run(Default::default());
        let (effectiveness, violations) = exec.summary();
        assert!(violations.is_empty());
        (
            effectiveness,
            exec.total_steps,
            exec.mem_work.total(),
            exec.local_work,
            exec.crashed,
        )
    }

    // Batched round-robin (the fast path) with a crash plan.
    let golden = reference(&config, true, true, RoundRobin::batched(), &plan);
    let report = run_scenario_simulated(
        &config,
        &ScenarioSpec::round_robin_batched().with_crash_plan(plan.clone()),
    );
    assert_eq!(
        golden,
        (
            report.effectiveness,
            report.total_steps,
            report.mem_work.total(),
            report.local_work,
            report.crashed.clone(),
        ),
        "rr-batched run diverged from the hand-built engine reference"
    );

    // Single-step random with a crash plan (no cache, no quanta).
    let golden = reference(&config, false, false, RandomScheduler::new(9), &plan);
    let report = run_scenario_simulated(
        &config,
        &ScenarioSpec::random(9).with_crash_plan(plan.clone()),
    );
    assert_eq!(
        golden,
        (
            report.effectiveness,
            report.total_steps,
            report.mem_work.total(),
            report.local_work,
            report.crashed.clone(),
        ),
        "random run diverged from the hand-built engine reference"
    );

    // Bursty blocks grant quanta, so the runner picks the interleaved
    // `done` layout with the cache and epoch tracking on.
    let golden = reference(&config, true, true, BlockScheduler::new(7, 23), &plan);
    let report = run_scenario_simulated(
        &config,
        &ScenarioSpec::block(7, 23).with_crash_plan(plan.clone()),
    );
    assert_eq!(
        golden,
        (
            report.effectiveness,
            report.total_steps,
            report.mem_work.total(),
            report.local_work,
            report.crashed.clone(),
        ),
        "block run diverged from the hand-built engine reference"
    );

    // The stuck-announcement adversary, built concretely.
    let golden = reference(
        &config,
        false,
        false,
        at_most_once::core::StuckAnnouncementAdversary::new(),
        &CrashPlan::none(),
    );
    let report = run_scenario_simulated(&config, &ScenarioSpec::adversary("stuck-announcement"));
    assert_eq!(golden.0, report.effectiveness);
    assert_eq!(golden.0, config.effectiveness_bound(), "Theorem 4.4 exact");
    assert_eq!(
        (golden.1, golden.2, golden.3, golden.4),
        (
            report.total_steps,
            report.mem_work.total(),
            report.local_work,
            report.crashed.clone(),
        ),
        "adversary run diverged from the hand-built engine reference"
    );
}

/// Quantized random schedules and the comparators under bursty blocks and
/// lockstep satisfy the engine's batching contract: fast path == forced
/// single-step reference.
#[test]
fn new_scenario_cells_match_their_references() {
    let spec = ScenarioSpec::random(5)
        .with_quantum(96)
        .with_crash_plan(CrashPlan::at_steps([(2usize, 40u64)]));
    let refr = spec.clone().single_step();

    let kk = KkConfig::new(300, 4).unwrap();
    assert_eq!(
        run_scenario_simulated(&kk, &spec),
        run_scenario_simulated(&kk, &refr)
    );
    let iter = IterConfig::new(300, 4, 1).unwrap();
    assert_eq!(
        run_iterative_scenario(&iter, &spec),
        run_iterative_scenario(&iter, &refr)
    );
    let wa = WaConfig::new(300, 4, 1).unwrap();
    assert_eq!(run_wa_scenario(&wa, &spec), run_wa_scenario(&wa, &refr));
    // Comparator cells under bursty blocks and lockstep.
    for kind in [AmoBaselineKind::TrivialSplit, AmoBaselineKind::TasAmo] {
        let block = run_baseline_scenario(kind, 80, 4, &ScenarioSpec::block(3, 16));
        assert!(block.violations.is_empty());
        let lockstep = run_baseline_scenario(kind, 80, 4, &ScenarioSpec::adversary("lockstep"));
        assert!(lockstep.violations.is_empty());
        assert!(lockstep.completed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline invariant, across the whole stack.
    #[test]
    fn kk_at_most_once_everywhere(
        m in 1usize..=6,
        n_mult in 2usize..=20,
        seed in any::<u64>(),
    ) {
        let n = n_mult * m + (seed % 7) as usize;
        let config = KkConfig::new(n, m).unwrap();
        let r = run_scenario_simulated(
            &config,
            &ScenarioSpec::random(seed).with_crash_plan(crash_plan(m, seed)),
        );
        prop_assert!(r.violations.is_empty());
        prop_assert!(r.completed);
        prop_assert!(r.effectiveness >= config.effectiveness_bound());
    }

    /// Write-All completes for arbitrary instances and crash plans.
    #[test]
    fn write_all_completes(
        m in 1usize..=4,
        n_mult in 3usize..=40,
        seed in any::<u64>(),
    ) {
        let n = n_mult * m;
        let config = WaConfig::new(n, m, 1).unwrap();
        let r = run_wa_scenario(
            &config,
            &ScenarioSpec::random(seed).with_crash_plan(crash_plan(m, seed)),
        );
        prop_assert!(r.complete, "missing {}", r.certified.missing.len());
    }

    /// Baseline safety under the same generator.
    #[test]
    fn baselines_at_most_once(
        m in 2usize..=5,
        n_mult in 2usize..=20,
        seed in any::<u64>(),
    ) {
        let n = n_mult * m;
        for kind in [
            AmoBaselineKind::TrivialSplit,
            AmoBaselineKind::PairsHybrid,
            AmoBaselineKind::TasAmo,
        ] {
            let r = run_baseline_scenario(
                kind,
                n,
                m,
                &ScenarioSpec::random(seed).with_crash_plan(crash_plan(m, seed)),
            );
            prop_assert!(r.violations.is_empty(), "{}", kind.label());
        }
    }

    /// Work accounting is internally consistent: total = shared + local,
    /// and shared traffic matches step structure (each step ≤ 1 access).
    #[test]
    fn work_accounting_consistent(m in 1usize..=5, n_mult in 2usize..=15, seed in any::<u64>()) {
        let n = n_mult * m;
        let config = KkConfig::new(n, m).unwrap();
        let r = run_scenario_simulated(&config, &ScenarioSpec::random(seed));
        prop_assert_eq!(r.work(), r.mem_work.total() + r.local_work);
        prop_assert!(r.mem_work.total() <= r.total_steps, "≤ one shared access per action");
        prop_assert_eq!(r.mem_work.rmws, 0, "KKβ never uses RMW");
    }
}
