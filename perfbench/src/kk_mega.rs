//! `kk_mega_rr`: KKβ at paper scale under quantized round-robin.
//!
//! The automaton's phases, the `amo_ostree` sets and kernels and the
//! register file do almost all the work; the epoch cache is on and the
//! scheduler is consulted once per quantum. The instance has no seed
//! dependence.

use std::time::Instant;

use amo_core::{kk_fleet_with, KkConfig, KkLayout, KkProcess};
use amo_ostree::FenwickSet;
use amo_sim::{
    run_scenario, Engine, Execution, RoundRobin, ScenarioHooks, ScenarioSpec, VecRegisters,
    WithCrashes,
};

use crate::report::Outcome;
use crate::sim::{Simulation, TracedRun};
use crate::trace::{self, TracedProc, TracedRegs, TracedSched, TracedSet};

/// Instance size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct KkMega {
    /// Jobs `n`.
    pub n: usize,
    /// Processes `m` (`β = 3m²`).
    pub m: usize,
    /// Actions per round-robin turn.
    pub quantum: u64,
}

impl KkMega {
    /// The benchmark's instance: `n = 10⁶`, `m = 64`, quantum 4096.
    pub const FULL: KkMega = KkMega {
        n: 1_000_000,
        m: 64,
        quantum: RoundRobin::BATCH_QUANTUM,
    };

    /// A toy instance for tests.
    pub const TOY: KkMega = KkMega {
        n: 3_000,
        m: 8,
        quantum: 64,
    };

    fn config(&self) -> KkConfig {
        KkConfig::with_beta(self.n, self.m, KkConfig::work_optimal_beta(self.m))
            .expect("n ≥ m and β = 3m² ≥ m")
    }

    /// The generated scenario: quantized round-robin with the epoch cache,
    /// no crashes.
    pub fn spec(&self) -> ScenarioSpec {
        ScenarioSpec::round_robin()
            .with_quantum(self.quantum)
            .with_max_steps(4_000_000_000)
    }
}

impl Simulation for KkMega {
    type Input = (Vec<KkProcess>, VecRegisters, ScenarioSpec);

    fn jobs(&self) -> u64 {
        self.n as u64
    }

    fn setup(&self) -> Self::Input {
        let spec = self.spec();
        let (layout, fleet) = kk_fleet_with(&self.config(), false, spec.grants_quanta());
        (fleet, VecRegisters::new(layout.cells()), spec)
    }

    fn run(&self, _scenario: usize, (fleet, mem, spec): Self::Input) -> (Execution, VecRegisters) {
        let (exec, _slots, mem) = run_scenario(mem, fleet, &spec);
        (exec, mem)
    }

    fn run_traced(&self, _scenario: usize) -> TracedRun {
        let config = self.config();
        let spec = self.spec();
        // The fleet `kk_fleet_with` builds, over traced sets; the file and
        // scheduler `run_scenario` builds for this spec, wrapped.
        let mut layout = KkLayout::contiguous(config.m(), config.n(), false);
        if spec.grants_quanta() {
            layout = layout.with_interleaved_done();
        }
        let cache = spec.epoch_cache && spec.grants_quanta();
        let mut fleet: Vec<_> = (1..=config.m())
            .map(|pid| {
                TracedProc(KkProcess::<TracedSet<FenwickSet>>::from_config(
                    pid, &config, layout,
                ))
            })
            .collect();
        if cache {
            for p in &mut fleet {
                p.set_epoch_cache(true);
            }
        }
        let mem = VecRegisters::new(layout.cells());
        mem.set_epoch_tracking(cache);
        let sched = WithCrashes::new(
            RoundRobin::new().with_quantum(spec.quantum),
            spec.crash_plan.clone(),
        );
        let engine = Engine::new(TracedRegs(mem), fleet, TracedSched(sched));
        trace::reset();
        let t = Instant::now();
        let (exec, _slots, mem) = engine.run_full(spec.limits);
        let wall = t.elapsed();
        TracedRun {
            exec,
            mem: mem.0,
            wall,
            trace: trace::take(),
            durable: None,
        }
    }

    fn check(&self, exec: &Execution, _mem: &VecRegisters, out: &mut Outcome) -> f64 {
        let (effectiveness, violations) = exec.summary();
        let bound = self.config().effectiveness_bound();
        out.check(exec.completed, "kk_mega_rr: a process did not terminate");
        out.check(
            violations.is_empty(),
            &format!("kk_mega_rr: {} at-most-once violations", violations.len()),
        );
        out.check(
            effectiveness >= bound,
            &format!("kk_mega_rr: effectiveness {effectiveness} below the bound {bound}"),
        );
        effectiveness as f64 / self.n as f64
    }

    fn describe(&self) -> String {
        let c = self.config();
        format!(
            "KKβ n={} m={} β={} quantum={} (round-robin, epoch cache on, Vec registers)",
            c.n(),
            c.m(),
            c.beta(),
            self.quantum
        )
    }
}
