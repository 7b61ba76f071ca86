//! Cross-axis property tests for the chaos surface: crash–**restart**
//! plans composed with the **quorum** message-passing backend (no test
//! covered that pairing before), plus drawn-plan invariants. The pinned
//! contracts: a restarted pid over a lossy network produces an execution
//! bit-identical to its `VecRegisters` twin (PR 7's unconditional
//! equivalence extends across the restart lifecycle), the built-in
//! linearizability oracle stays clean in every cell, and Write-All still
//! re-certifies completeness after its workers restart mid-protocol.

use at_most_once::sim::testing::WriterProcess;
use at_most_once::sim::{
    chaos::KNOWN_ADVERSARIES, last_net_stats, run_scenario, ChaosPlan, ChaosSpace, CrashPlan,
    Intensity, LatencyDist, NetworkSpec, ScenarioSpec, VecRegisters,
};
use at_most_once::write_all::{run_wa_scenario, WaConfig};
use proptest::prelude::*;

/// A crash plan in which every victim also restarts — the cross-axis
/// subject under test.
fn restart_plan(m: usize, crashes: usize, seed: u64) -> CrashPlan {
    let mut plan = CrashPlan::random(m, crashes, 40, seed);
    let victims: Vec<usize> = plan.iter().map(|(pid, _)| pid).collect();
    for (i, pid) in victims.into_iter().enumerate() {
        plan.restart_after(pid, (seed >> (i % 16)) % 60);
    }
    plan
}

fn lossy_net(seed: u64, drop: u16, reorder: u16, latency_hi: u64) -> NetworkSpec {
    let mut net = NetworkSpec::lossless(3)
        .with_seed(seed)
        .with_drop(drop.min(300))
        .with_reorder(reorder.min(300));
    if latency_hi > 0 {
        net = net.with_latency(LatencyDist::Uniform {
            lo: 0,
            hi: latency_hi.min(4),
        });
    }
    net
}

fn writer_fleet(m: usize, k: u64) -> (VecRegisters, Vec<WriterProcess>) {
    (
        VecRegisters::new(m),
        (1..=m).map(|p| WriterProcess::new(p, p - 1, k)).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Restarted pids over a lossy network: the quorum execution is
    /// bit-identical to its `Vec` twin and the linearizability oracle is
    /// clean — the restart lifecycle does not weaken the unconditional
    /// network equivalence.
    #[test]
    fn restarted_writers_over_lossy_quorum_match_vec_twin(
        m in 2usize..=5,
        k in 5u64..=30,
        seed in any::<u64>(),
        drop in 0u16..=300,
        reorder in 0u16..=300,
        latency_hi in 0u64..=4,
    ) {
        let plan = restart_plan(m, m - 1, seed);
        let base = ScenarioSpec::random(seed ^ 0xA5A5).with_crash_plan(plan.clone());
        let (mem, fleet) = writer_fleet(m, k);
        let (vec_exec, _, vec_mem) = run_scenario(mem, fleet, &base);
        prop_assert!(last_net_stats().is_none());

        let net = lossy_net(seed, drop, reorder, latency_hi);
        let (mem, fleet) = writer_fleet(m, k);
        let (net_exec, _, net_mem) = run_scenario(mem, fleet, &base.clone().quorum(net));
        prop_assert_eq!(&vec_exec, &net_exec, "quorum diverged from Vec under restarts");
        prop_assert_eq!(vec_mem.snapshot(), net_mem.snapshot());
        let stats = last_net_stats().expect("quorum run publishes stats");
        prop_assert_eq!(stats.atomicity_violations, 0, "linearizability oracle tripped");
        // Every planned restart of an actually-crashed pid happened.
        for pid in &net_exec.crashed {
            if plan.restart_delay(*pid).is_some() {
                prop_assert!(
                    net_exec.restarted.contains(pid),
                    "pid {} crashed with a restart entry but never restarted", pid
                );
            }
        }
    }

    /// Write-All re-certifies completeness when its workers crash and
    /// restart over a lossy network, bit-identically to the `Vec` twin.
    #[test]
    fn restarted_write_all_over_lossy_quorum_recertifies(
        m in 2usize..=4,
        n_mult in 8usize..=32,
        seed in any::<u64>(),
        drop in 0u16..=250,
        reorder in 0u16..=250,
    ) {
        let n = n_mult * m;
        let config = WaConfig::new(n, m, 1).unwrap();
        let plan = restart_plan(m, m - 1, seed);
        let base = ScenarioSpec::random(seed).with_crash_plan(plan);
        let vec_report = run_wa_scenario(&config, &base);
        let chaos = ChaosPlan::quiet().network(lossy_net(seed, drop, reorder, 2));
        let net_report = run_wa_scenario(&config, &base.with_chaos(&chaos));
        prop_assert_eq!(&vec_report, &net_report, "write-all diverged under the chaos net");
        prop_assert!(net_report.complete, "restarted workers must re-certify");
        let stats = last_net_stats().expect("quorum run publishes stats");
        prop_assert_eq!(stats.atomicity_violations, 0);
    }

    /// Every drawn plan lowers cleanly onto a base spec and
    /// round-trips its replay snippet exactly — across the whole
    /// `(seed, intensity)` plane of a fully-enabled space.
    #[test]
    fn drawn_plans_lower_and_round_trip(
        seed in any::<u64>(),
        tier_ix in 0usize..=2,
    ) {
        let space = ChaosSpace::new(4, 100)
            .with_restarts()
            .with_storage()
            .with_network()
            .with_adversaries(KNOWN_ADVERSARIES);
        let plan = ChaosPlan::draw(seed, Intensity::ALL[tier_ix], &space);
        let _ = plan.lower_onto(&ScenarioSpec::round_robin());
        let back = ChaosPlan::parse_replay(&plan.to_replay()).unwrap();
        prop_assert_eq!(plan, back);
    }
}
