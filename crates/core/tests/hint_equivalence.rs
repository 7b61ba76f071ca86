//! Hinted-selection equivalence at the fleet level.
//!
//! `KkProcess` threads a [`SelectHint`] from each `compNext` pick into the
//! next one. Every `FREE` removal, an own perform or a foreign job merged
//! into `DONE`, names the removed element, so the process repairs the
//! hint's rank in place and never drops it; only the next pick re-anchors
//! it. The hinted walk must be observationally invisible: a fleet backed by
//! the hinted [`FenwickSet`] must produce the same shared-memory
//! observables as one backed by the unhinted [`DenseFenwickSet`] oracle
//! under every scheduler — including the foreign-write-heavy adversaries
//! whose whole point is to interleave merges between selections.

use amo_core::{run_scenario_simulated, KkConfig, KkLayout, KkProcess};
use amo_ostree::DenseFenwickSet;
use amo_sim::{
    run_scenario, CrashPlan, Engine, EngineLimits, Execution, RoundRobin, ScenarioSpec,
    VecRegisters, WithCrashes,
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
/// process's selections, so hints are repaired after foreign merges and
/// re-anchored constantly. Each run of the hinted fleet must match the
/// unhinted dense oracle's run of the same spec.
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
        let what = spec.label();
        let report = run_scenario_simulated(&config, &spec);
        assert!(
            report.violations.is_empty(),
            "{what}: safety under adversary"
        );

        // The dense oracle over the layout the runner picks for this spec.
        let mut layout = KkLayout::contiguous(config.m(), config.n(), false);
        if spec.grants_quanta() {
            layout = layout.with_interleaved_done();
        }
        let fleet: Vec<KkProcess<DenseFenwickSet>> = (1..=config.m())
            .map(|pid| KkProcess::from_config(pid, &config, layout))
            .collect();
        let (dense, _, _) = run_scenario(VecRegisters::new(layout.cells()), fleet, &spec);
        let dense_performed: Vec<_> = dense.performed.iter().map(|r| (r.pid, r.span)).collect();
        assert_eq!(report.performed, dense_performed, "{what}: performed");
        assert_eq!(report.total_steps, dense.total_steps, "{what}: total_steps");
        assert_eq!(report.mem_work, dense.mem_work, "{what}: shared work");
    }
}
