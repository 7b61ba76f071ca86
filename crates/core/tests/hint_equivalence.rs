//! Hinted-selection equivalence at the fleet level, plus the
//! tracked-prefix epoch-memory contract.
//!
//! `KkProcess` threads a [`SelectHint`] from each `compNext` pick into the
//! next one, repairing it across its own performs and dropping it whenever
//! a foreign job is merged into `DONE`. The hinted walk must be
//! observationally invisible: a fleet backed by the hinted [`FenwickSet`]
//! must produce the same shared-memory observables as one backed by the
//! unhinted [`DenseFenwickSet`] oracle under every scheduler — including
//! the foreign-write-heavy adversaries whose whole point is to interleave
//! invalidating merges between selections.

use amo_core::{run_scenario_simulated, KkConfig, KkLayout, KkProcess};
use amo_ostree::DenseFenwickSet;
use amo_sim::{
    CrashPlan, Engine, EngineLimits, Execution, RoundRobin, ScenarioSpec, VecRegisters, WithCrashes,
};

/// Drives one config through identical schedules with both set backends and
/// compares every backend-independent observable.
fn assert_backends_agree(config: &KkConfig, quantum: u64, what: &str) {
    let layout = KkLayout::contiguous(config.m(), config.n(), false);
    let run_blocked = || -> Execution {
        let fleet: Vec<KkProcess> = (1..=config.m())
            .map(|pid| KkProcess::from_config(pid, config, layout))
            .collect();
        let mem = VecRegisters::new(layout.cells());
        let sched = WithCrashes::new(
            RoundRobin::new().with_quantum(quantum),
            CrashPlan::default(),
        );
        Engine::new(mem, fleet, sched).run(EngineLimits::default())
    };
    let run_dense = || -> Execution {
        let fleet: Vec<KkProcess<DenseFenwickSet>> = (1..=config.m())
            .map(|pid| KkProcess::from_config(pid, config, layout))
            .collect();
        let mem = VecRegisters::new(layout.cells());
        let sched = WithCrashes::new(
            RoundRobin::new().with_quantum(quantum),
            CrashPlan::default(),
        );
        Engine::new(mem, fleet, sched).run(EngineLimits::default())
    };
    let blocked = run_blocked();
    let dense = run_dense();
    assert_eq!(blocked.performed, dense.performed, "{what}: performed");
    assert_eq!(
        blocked.total_steps, dense.total_steps,
        "{what}: total_steps"
    );
    assert_eq!(blocked.mem_work, dense.mem_work, "{what}: shared work");
    assert_eq!(
        blocked.effectiveness(),
        dense.effectiveness(),
        "{what}: effectiveness"
    );
}

#[test]
fn hinted_fenwick_matches_dense_oracle_across_quanta() {
    for &(n, m) in &[(48usize, 3usize), (130, 4), (600, 5)] {
        let config = KkConfig::new(n, m).expect("valid config");
        for &q in &[1u64, 2, 16, 512] {
            assert_backends_agree(&config, q, &format!("n={n} m={m} q={q}"));
        }
    }
}

/// Foreign-write-heavy adversarial schedules: every scheduler here forces
/// interleavings where other processes' `done` entries land between a
/// process's selections, so hints are dropped and re-anchored constantly.
#[test]
fn hints_survive_adversarial_interleavings() {
    let config = KkConfig::new(80, 4).expect("valid config");
    for spec in [
        ScenarioSpec::adversary("lockstep"),
        ScenarioSpec::adversary("staleness"),
        ScenarioSpec::adversary("stuck-announcement"),
        ScenarioSpec::random(0xC0FFEE),
        ScenarioSpec::block(7, 23),
    ] {
        let report = run_scenario_simulated(&config, &spec);
        assert!(report.violations.is_empty(), "safety under adversary");
    }
}

/// Tracked-prefix epoch memory: a batched (cache-on) run reports a peak
/// epoch footprint proportional to the cells actually written — far below
/// the full register file — and a single-step run (cache off, tracking
/// off) reports zero.
#[test]
fn epoch_memory_is_proportional_to_touched_cells() {
    let config = KkConfig::new(20_000, 4).expect("valid config");
    let fast = run_scenario_simulated(&config, &ScenarioSpec::round_robin_batched());
    let cells_bytes = (4 + 4 * 20_000) as u64 * 8;
    assert!(fast.epoch_mem_bytes > 0, "cache-on runs track epochs");
    assert!(
        fast.epoch_mem_bytes * 2 < cells_bytes,
        "tracked prefix ({} B) must stay well below the full file ({} B)",
        fast.epoch_mem_bytes,
        cells_bytes
    );
    let single = run_scenario_simulated(&config, &ScenarioSpec::round_robin());
    assert_eq!(
        single.epoch_mem_bytes, 0,
        "single-step runs keep epoch tracking off entirely"
    );
}
