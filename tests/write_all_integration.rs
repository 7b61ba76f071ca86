//! Write-All end-to-end (Theorem 7.1): completion under crashes, on both
//! runtimes, against every baseline.

use at_most_once::sim::thread::ThreadSpec;
use at_most_once::sim::{CrashPlan, ScenarioSpec};
use at_most_once::write_all::{
    run_baseline_scenario, run_baseline_threads, run_wa_scenario, run_wa_threads, WaBaselineKind,
    WaConfig,
};

#[test]
fn wa_completes_on_both_runtimes() {
    let config = WaConfig::new(2_000, 4, 1).unwrap();
    let sim = run_wa_scenario(&config, &ScenarioSpec::random(2));
    assert!(sim.complete);
    let thr = run_wa_threads(&config, &ThreadSpec::new());
    assert!(thr.complete);
}

#[test]
fn wa_survives_maximal_crashes() {
    for seed in 0..6u64 {
        let m = 4;
        let config = WaConfig::new(1_000, m, 1).unwrap();
        let plan = CrashPlan::at_steps((1..m).map(|p| (p, seed * 97 + 30 * p as u64)));
        let r = run_wa_scenario(&config, &ScenarioSpec::random(seed).with_crash_plan(plan));
        assert!(
            r.complete,
            "seed {seed}: missing {:?}",
            r.certified.missing.len()
        );
        assert_eq!(r.crashed.len(), m - 1);
    }
}

#[test]
fn crash_tolerant_baselines_complete_fault_intolerant_fail() {
    let n = 500;
    let m = 4;
    let plan = CrashPlan::at_steps([(1usize, 7u64), (2, 19), (3, 31)]);
    let opts = |p: &CrashPlan| ScenarioSpec::random(1).with_crash_plan(p.clone());

    let perm = run_baseline_scenario(WaBaselineKind::PermutationScan(3), n, m, &opts(&plan));
    assert!(perm.complete, "perm-scan tolerates f = m − 1");

    let stat = run_baseline_scenario(WaBaselineKind::StaticPartition, n, m, &opts(&plan));
    assert!(!stat.complete, "static split must fail");

    let seq = run_baseline_scenario(WaBaselineKind::Sequential, n, m, &opts(&CrashPlan::none()));
    assert!(seq.complete);
    assert_eq!(seq.mem_work.writes, n as u64);
}

#[test]
fn thread_baselines_complete_crash_free() {
    for kind in [
        WaBaselineKind::Sequential,
        WaBaselineKind::StaticPartition,
        WaBaselineKind::Tas,
        WaBaselineKind::PermutationScan(11),
    ] {
        let r = run_baseline_threads(kind, 600, 3, &ThreadSpec::new());
        assert!(r.complete, "{}", kind.label());
    }
}

#[test]
fn redundancy_is_bounded_by_m() {
    // Every process writes each cell at most once in WA_IterativeKK's
    // terminal loop, and stage writes are disjoint per certification, so
    // redundancy can never exceed m (plus the one-shot stage writes).
    let m = 3;
    let config = WaConfig::new(800, m, 1).unwrap();
    let r = run_wa_scenario(&config, &ScenarioSpec::random(4));
    assert!(r.complete);
    assert!(
        r.redundancy() <= (m + 1) as f64,
        "redundancy {}",
        r.redundancy()
    );
}
