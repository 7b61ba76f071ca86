//! Bounded exhaustive checks for the Write-All stack on tiny instances:
//! every schedule (and crash pattern) must end with a complete array for
//! the crash-tolerant algorithms.

use amo_sim::{explore, CrashPlan, ExploreConfig, MemoMode, ScenarioSpec, VecRegisters};
use amo_write_all::{run_wa_scenario, PermutationScanWa, WaConfig};

#[test]
fn wa_iterative_tiny_instance_dense_schedule_sweep() {
    // Write-All *permits* duplicate performs (the terminal loop), so the
    // at-most-once explorer does not apply to WA_IterativeKK; instead we
    // sweep a dense grid of seeds and crash plans on a tiny instance and
    // require certified completion every single time.
    let config = WaConfig::new(6, 2, 1).unwrap();
    for seed in 0..300u64 {
        let plan = CrashPlan::random(2, 1, 40, seed);
        let r = run_wa_scenario(&config, &ScenarioSpec::random(seed).with_crash_plan(plan));
        assert!(r.complete, "seed {seed}: missing {:?}", r.certified.missing);
        assert!(r.completed, "seed {seed}");
    }
}

#[test]
fn perm_scan_tiny_instance_all_schedules_and_crashes() {
    let n = 4u64;
    let fleet: Vec<PermutationScanWa> = (1..=2).map(|p| PermutationScanWa::new(p, n, 9)).collect();
    let out = explore(
        VecRegisters::new(n as usize),
        fleet,
        ExploreConfig {
            max_crashes: 1,
            memo: MemoMode::StateAndHistory,
            max_states: 2_000_000,
            ..ExploreConfig::default()
        },
    );
    // perm-scan re-writes cells another process already wrote (that is its
    // design), so duplicate *performs* don't exist — it emits Writes, not
    // Performs — and the ledger stays clean.
    assert!(out.violation.is_none());
    if out.complete {
        assert!(out.terminal_states > 0);
    }
}
