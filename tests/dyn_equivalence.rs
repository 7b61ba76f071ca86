//! The dyn-process equivalence suite: erasing a fleet behind
//! [`BoxProcess`] must not change what it computes.
//!
//! Two claims are pinned here, cross-crate:
//!
//! 1. **Erasure is free.** A homogeneous fleet run erased, as a
//!    `Vec<BoxProcess>`, is *bit-identical* (full [`Execution`] equality)
//!    to the same fleet run statically — across schedulers, batching,
//!    crashes, and register backends, including hardware
//!    [`AtomicRegisters`] and the real-thread runtime.
//! 2. **Mixing is projection.** In a mixed KKβ + Write-All fleet over one
//!    register file (disjoint cell regions, no reads across families),
//!    each family behaves exactly as in its homogeneous twin where the
//!    other family's pids crash before their first step: under strict
//!    round-robin the other family only occupies schedule slots, so the
//!    per-pid projections must agree record for record.
//!
//! The suite also pins the backend seam: a *fourth* register-file
//! implementation defined right here in the test — never seen by any
//! algorithm crate — drives an unmodified KKβ fleet through
//! `run_scenario_on`.

use std::cell::Cell;

use at_most_once::core::{kk_fleet, KkConfig, KkLayout, KkProcess};
use at_most_once::iterative::IterConfig;
use at_most_once::ostree::FenwickSet;
use at_most_once::sim::{
    boxed, run_scenario, run_scenario_on, AtomicRegisters, BoxProcess, CrashPlan, Execution,
    JobSpan, MemWork, Registers, ScenarioSpec, ThreadSpec, VecRegisters,
};
use at_most_once::write_all::{WaIterativeProcess, WaLayout};

fn kk_static_fleet(config: &KkConfig, layout: KkLayout) -> Vec<KkProcess> {
    (1..=config.m())
        .map(|pid| KkProcess::from_config(pid, config, layout))
        .collect()
}

fn kk_boxed_fleet(config: &KkConfig, layout: KkLayout) -> Vec<BoxProcess> {
    (1..=config.m())
        .map(|pid| boxed(KkProcess::<FenwickSet>::from_config(pid, config, layout)))
        .collect()
}

/// The per-pid projection of an execution: `pid`'s performed spans in
/// program order, plus its action count. The *global* step index is
/// projected out — it numbers schedule slots across the whole fleet, so
/// it legitimately shifts when other pids occupy slots.
fn project(exec: &Execution, pid: usize) -> (Vec<JobSpan>, u64) {
    (
        exec.performed
            .iter()
            .filter(|r| r.pid == pid)
            .map(|r| r.span)
            .collect(),
        exec.per_proc_steps[pid - 1],
    )
}

#[test]
fn boxed_homogeneous_fleet_is_bit_identical_across_schedulers() {
    let config = KkConfig::new(48, 4).unwrap();
    let layout = KkLayout::contiguous(config.m(), config.n(), false);
    let specs = [
        ScenarioSpec::round_robin(),
        ScenarioSpec::round_robin_batched(),
        ScenarioSpec::random(11),
        ScenarioSpec::random(7).with_crash_plan(CrashPlan::at_steps([(2usize, 30u64)])),
    ];
    for spec in &specs {
        let (want, _, _) = run_scenario(
            VecRegisters::new(layout.cells()),
            kk_static_fleet(&config, layout),
            spec,
        );
        let (got, _, _) = run_scenario(
            VecRegisters::new(layout.cells()),
            kk_boxed_fleet(&config, layout),
            spec,
        );
        assert_eq!(got, want, "erased fleet diverged under {:?}", spec.label());
        assert!(want.violations().is_empty());
    }
}

#[test]
fn boxed_fleet_is_bit_identical_on_hardware_atomics() {
    // The backend amo-serve runs on: the simulator engine serializes
    // steps, so AtomicRegisters is deterministic here and the static,
    // erased, and Vec-backend executions must all coincide.
    let config = KkConfig::new(40, 3).unwrap();
    let layout = KkLayout::contiguous(config.m(), config.n(), false);
    let spec = ScenarioSpec::round_robin();
    let (vec_exec, _, _) = run_scenario(
        VecRegisters::new(layout.cells()),
        kk_static_fleet(&config, layout),
        &spec,
    );
    let (static_exec, _, _) = run_scenario_on(
        AtomicRegisters::new(layout.cells()),
        kk_static_fleet(&config, layout),
        &spec,
    );
    let (dyn_exec, _, _) = run_scenario_on(
        AtomicRegisters::new(layout.cells()),
        kk_boxed_fleet(&config, layout),
        &spec,
    );
    assert_eq!(dyn_exec, static_exec, "erasure changed the atomic run");
    assert_eq!(dyn_exec, vec_exec, "backend changed the serialized run");
}

#[test]
fn boxed_fleet_runs_on_real_threads() {
    // BoxProcess includes Process<AtomicRegisters> + Send, so the same
    // erased fleet the simulator checked drives the OS-thread runtime —
    // the seam the claim service is built on.
    let config = KkConfig::new(128, 4).unwrap();
    let layout = KkLayout::contiguous(config.m(), config.n(), false);
    let mem = AtomicRegisters::new(layout.cells());
    let exec = ThreadSpec::new().run(&mem, kk_boxed_fleet(&config, layout));
    assert!(exec.violations().is_empty());
    assert!(exec.effectiveness() >= config.effectiveness_bound());
}

#[test]
fn mixed_kk_wa_fleet_matches_homogeneous_twins() {
    // One register file: WA's stage+array cells at the bottom, KK's
    // announcement+claim cells stacked above (disjoint by construction).
    let iter = IterConfig::new(16, 4, 2).unwrap();
    let wa_layout = WaLayout::new(&iter);
    let kk = KkConfig::new(24, 4).unwrap();
    let kk_layout = KkLayout::at_base(kk.m(), kk.n(), wa_layout.cells(), false);
    let cells = kk_layout.end();
    let spec = ScenarioSpec::round_robin();

    // Mixed fleet: pids 1–2 run KKβ, pids 3–4 run WA_IterativeKK(ε) —
    // only expressible through the erased interface.
    let mixed: Vec<BoxProcess> = vec![
        boxed(KkProcess::<FenwickSet>::from_config(1, &kk, kk_layout)),
        boxed(KkProcess::<FenwickSet>::from_config(2, &kk, kk_layout)),
        boxed(WaIterativeProcess::new(3, &iter, wa_layout.clone())),
        boxed(WaIterativeProcess::new(4, &iter, wa_layout.clone())),
    ];
    let (mixed_exec, _, _) = run_scenario(VecRegisters::new(cells), mixed, &spec);
    assert!(mixed_exec.completed, "mixed fleet must terminate");

    // Homogeneous twins: the same family over the same cells, with the
    // *other* family's pids crashed before their first step. A crashed
    // pid never writes, and round-robin keeps the survivors' relative
    // order, so each family cannot distinguish the twin from the mix.
    let kk_twin_fleet: Vec<KkProcess> = (1..=4)
        .map(|pid| KkProcess::from_config(pid, &kk, kk_layout))
        .collect();
    let (kk_twin, _, _) = run_scenario_on(
        VecRegisters::new(cells),
        kk_twin_fleet,
        &spec
            .clone()
            .with_crash_plan(CrashPlan::at_steps([(3usize, 0u64), (4, 0)])),
    );
    let wa_twin_fleet: Vec<WaIterativeProcess> = (1..=4)
        .map(|pid| WaIterativeProcess::new(pid, &iter, wa_layout.clone()))
        .collect();
    let (wa_twin, _, _) = run_scenario_on(
        VecRegisters::new(cells),
        wa_twin_fleet,
        &spec
            .clone()
            .with_crash_plan(CrashPlan::at_steps([(1usize, 0u64), (2, 0)])),
    );

    for pid in [1, 2] {
        assert_eq!(
            project(&mixed_exec, pid),
            project(&kk_twin, pid),
            "KK pid {pid} diverged from its homogeneous twin"
        );
    }
    for pid in [3, 4] {
        assert_eq!(
            project(&mixed_exec, pid),
            project(&wa_twin, pid),
            "WA pid {pid} diverged from its homogeneous twin"
        );
    }

    // Each family keeps its own contract on its own job space (the mixed
    // execution reuses ids 1..=n in both families, so only the per-family
    // projections — i.e. the twins — are meaningful to audit): KKβ is
    // at-most-once; Write-All trades that away for completeness, so its
    // twin is checked for covering all n jobs instead.
    assert!(kk_twin.violations().is_empty());
    assert_eq!(
        wa_twin.effectiveness(),
        iter.n() as u64,
        "write-all must cover every job"
    );

    // And the mix is genuinely heterogeneous: both families performed.
    for pid in 1..=4 {
        assert!(
            !project(&mixed_exec, pid).0.is_empty(),
            "pid {pid} performed nothing in the mixed fleet"
        );
    }
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
