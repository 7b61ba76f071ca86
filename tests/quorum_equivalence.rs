//! The lossless network-equivalence suite: `BackendSpec::Quorum` over a
//! zero-latency lossless network must be **bit-identical** to the plain
//! `BackendSpec::Vec` backend — same performs at the same steps, same
//! effectiveness, same shared-memory traffic, same `local_work`, same
//! per-process step counts — for every algorithm stack and scheduler kind.
//!
//! The quorum protocol runs alongside the authoritative register file and
//! cross-checks every result (`NetStats::atomicity_violations`, pinned at
//! zero here and in every lossy cell), so these tests pin both halves of
//! the contract: the degenerate network changes nothing, and the protocol
//! never disagrees with the oracle.
//!
//! The suite also demonstrates the backend-polymorphism seam: a *fourth*
//! register-file implementation defined right here in the test — never seen
//! by any algorithm crate — drives an unmodified KKβ fleet through
//! `run_scenario_on`.

use std::cell::Cell;

use at_most_once::baselines::{run_baseline_scenario, AmoBaselineKind};
use at_most_once::core::{kk_fleet, run_scenario_simulated, KkConfig};
use at_most_once::iterative::{run_iterative_scenario, IterConfig};
use at_most_once::sim::{
    last_net_stats, run_scenario, run_scenario_on, BackendSpec, CrashPlan, LatencyDist, MemWork,
    NetworkSpec, Registers, ScenarioSpec, VecRegisters,
};
use at_most_once::write_all::{
    run_baseline_scenario as run_wa_baseline_scenario, run_wa_scenario, WaBaselineKind, WaConfig,
};

/// The scheduler × crash-plan grid every stack is pinned over (mirrors the
/// durable equivalence suite).
fn spec_grid() -> Vec<ScenarioSpec> {
    let plans = [
        CrashPlan::none(),
        CrashPlan::at_steps([(1usize, 7u64)]),
        CrashPlan::at_steps([(2usize, 0u64), (3, 41)]),
    ];
    let mut out = Vec::new();
    for plan in plans {
        for spec in [
            ScenarioSpec::round_robin(),
            ScenarioSpec::round_robin_batched(),
            ScenarioSpec::random(11).with_quantum(9),
            ScenarioSpec::block(5, 6),
            ScenarioSpec::round_robin().single_step(),
        ] {
            out.push(spec.with_crash_plan(plan.clone()));
        }
    }
    out
}

fn quorum_twin(spec: &ScenarioSpec, replicas: u8) -> ScenarioSpec {
    spec.clone().with_backend(BackendSpec::quorum(replicas))
}

/// After every quorum run: the protocol agreed with the oracle everywhere.
fn assert_clean_protocol(context: &str) {
    let stats = last_net_stats().expect("quorum runs publish net stats");
    assert_eq!(
        stats.atomicity_violations, 0,
        "protocol diverged from the register oracle under {context}"
    );
}

#[test]
fn kk_runs_are_bit_identical_lossless() {
    let config = KkConfig::new(160, 4).unwrap();
    for (i, spec) in spec_grid().into_iter().enumerate() {
        let vec_report = run_scenario_simulated(&config, &spec);
        let q_report = run_scenario_simulated(&config, &quorum_twin(&spec, 3 + (i % 3) as u8));
        assert_eq!(vec_report, q_report, "kk diverged under {}", spec.label());
        assert!(vec_report.violations.is_empty());
        assert_clean_protocol(spec.label());
    }
}

#[test]
fn kk_adversaries_are_bit_identical_lossless() {
    let config = KkConfig::new(60, 3).unwrap();
    for name in ["lockstep", "stuck-announcement", "staleness"] {
        let spec = ScenarioSpec::adversary(name);
        let vec_report = run_scenario_simulated(&config, &spec);
        let q_report = run_scenario_simulated(&config, &quorum_twin(&spec, 5));
        assert_eq!(vec_report, q_report, "kk diverged under {name}");
        assert_clean_protocol(name);
    }
}

#[test]
fn iterative_runs_are_bit_identical_lossless() {
    let config = IterConfig::new(200, 4, 2).unwrap();
    for spec in spec_grid() {
        let vec_report = run_iterative_scenario(&config, &spec);
        let q_report = run_iterative_scenario(&config, &quorum_twin(&spec, 3));
        assert_eq!(
            vec_report,
            q_report,
            "iterative diverged under {}",
            spec.label()
        );
    }
}

#[test]
fn write_all_runs_are_bit_identical_lossless() {
    let config = WaConfig::new(180, 3, 1).unwrap();
    for spec in spec_grid() {
        let vec_report = run_wa_scenario(&config, &spec);
        let q_report = run_wa_scenario(&config, &quorum_twin(&spec, 3));
        assert_eq!(vec_report, q_report, "wa diverged under {}", spec.label());
    }
}

#[test]
fn wa_baselines_are_bit_identical_lossless() {
    for kind in [
        WaBaselineKind::Sequential,
        WaBaselineKind::StaticPartition,
        WaBaselineKind::Tas,
        WaBaselineKind::PermutationScan(13),
    ] {
        let spec = ScenarioSpec::block(9, 5).with_crash_plan(CrashPlan::at_steps([(1usize, 4u64)]));
        let m = 3;
        let vec_report = run_wa_baseline_scenario(kind, 96, m, &spec);
        let q_report = run_wa_baseline_scenario(kind, 96, m, &quorum_twin(&spec, 3));
        assert_eq!(vec_report, q_report, "{kind:?} diverged");
    }
}

#[test]
fn amo_baselines_are_bit_identical_lossless() {
    for kind in [AmoBaselineKind::TrivialSplit, AmoBaselineKind::TasAmo] {
        let spec = ScenarioSpec::random(4).with_quantum(6);
        let vec_report = run_baseline_scenario(kind, 90, 3, &spec);
        let q_report = run_baseline_scenario(kind, 90, 3, &quorum_twin(&spec, 5));
        assert_eq!(vec_report, q_report, "{kind:?} diverged");
        assert_clean_protocol(&format!("{kind:?}"));
    }
}

#[test]
fn lossy_networks_change_traffic_never_results() {
    // Drops, reordering, latency and replica crashes: the execution stays
    // bit-identical to Vec (the register file is authoritative) and the
    // protocol still never disagrees with the oracle.
    let config = KkConfig::new(120, 3).unwrap();
    let net = NetworkSpec::lossless(5)
        .with_seed(41)
        .with_latency(LatencyDist::Uniform { lo: 1, hi: 4 })
        .with_drop(180)
        .with_reorder(250)
        .with_replica_crashes(2);
    let spec = ScenarioSpec::random(9).with_quantum(5);
    let vec_report = run_scenario_simulated(&config, &spec);
    let q_report = run_scenario_simulated(&config, &spec.clone().quorum(net));
    assert_eq!(vec_report, q_report, "lossy quorum diverged");
    let stats = last_net_stats().expect("quorum runs publish net stats");
    assert_eq!(stats.atomicity_violations, 0);
    assert!(stats.messages_dropped > 0, "lossy cell must drop traffic");
    assert!(
        stats.retransmissions > 0,
        "drops must force retransmissions"
    );
}

// ---------------------------------------------------------------------------
// The fourth backend: defined here, unknown to every algorithm crate.
// ---------------------------------------------------------------------------

/// A register file no algorithm crate has ever heard of: delegates to
/// [`VecRegisters`] and counts mutations. Driving an unmodified KKβ fleet
/// over it through [`run_scenario_on`] is the API-seam acceptance test —
/// backends plug in without a single algorithm-crate edit.
struct CountingRegisters {
    inner: VecRegisters,
    mutations: Cell<u64>,
}

impl CountingRegisters {
    fn new(cells: usize) -> Self {
        Self {
            inner: VecRegisters::new(cells),
            mutations: Cell::new(0),
        }
    }
}

impl Registers for CountingRegisters {
    fn read(&self, cell: usize) -> u64 {
        self.inner.read(cell)
    }
    fn peek(&self, cell: usize) -> u64 {
        self.inner.peek(cell)
    }
    fn note_reads(&self, reads: u64) {
        self.inner.note_reads(reads);
    }
    fn epochs_enabled(&self) -> bool {
        self.inner.epochs_enabled()
    }
    fn global_epoch(&self) -> u64 {
        self.inner.global_epoch()
    }
    fn write(&self, cell: usize, value: u64) {
        self.mutations.set(self.mutations.get() + 1);
        self.inner.write(cell, value);
    }
    fn swap(&self, cell: usize, value: u64) -> u64 {
        self.mutations.set(self.mutations.get() + 1);
        self.inner.swap(cell, value)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn work(&self) -> MemWork {
        self.inner.work()
    }
}

#[test]
fn a_fourth_backend_needs_no_algorithm_crate_edits() {
    let config = KkConfig::new(96, 3).unwrap();
    let spec = ScenarioSpec::round_robin();

    let (layout, fleet) = kk_fleet(&config, false);
    let mem = VecRegisters::new(layout.cells());
    let (vec_exec, _, _) = run_scenario(mem, fleet, &spec);

    // Same fleet type, brand-new backend, generic driver — no adapter, no
    // trait impls beyond `Registers` itself.
    let (layout, fleet) = kk_fleet(&config, false);
    let mem = CountingRegisters::new(layout.cells());
    let (count_exec, _, mem) = run_scenario_on(mem, fleet, &spec);

    assert_eq!(vec_exec, count_exec, "delegating backend diverged");
    assert!(mem.mutations.get() > 0, "the fleet wrote through the seam");
    assert!(count_exec.violations().is_empty());
}
