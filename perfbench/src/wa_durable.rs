//! `wa_random_durable`: `WA_IterativeKK(ε = 1)` on the journaled backend
//! under a seeded random scheduler at quantum 1, with a quarter of the
//! fleet crashing on a seeded plan and every crashed process restarting.
//!
//! This is the per-action adversarial path of the safety experiments:
//! scheduler and engine dispatch dominate, the epoch cache is off, and
//! writes are journaled and replayed on recovery. Because every crashed
//! process restarts, Write-All completeness can be asserted.

use std::time::Instant;

use amo_sim::scenario::{BackendSpec, SchedulerSpec};
use amo_sim::{
    run_scenario, CrashPlan, DurableRegisters, Engine, Execution, RandomScheduler, ScenarioHooks,
    ScenarioSpec, StorageFault, VecRegisters, WithCrashes,
};
use amo_write_all::{certify, WaConfig, WaIterativeProcess};

use crate::report::Outcome;
use crate::sim::{Simulation, TracedRun};
use crate::trace::{self, TracedProc, TracedRegs, TracedSched};

/// Instance size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct WaDurable {
    /// Array cells (jobs) `n`.
    pub n: usize,
    /// Processes `m`; `m / 4` of them crash and restart.
    pub m: usize,
    /// Crashes fire within each victim's first `crash_horizon` actions.
    pub crash_horizon: u64,
    /// Restarts follow their crash within this many global actions.
    pub restart_horizon: u64,
}

impl WaDurable {
    /// The benchmark's instance: `n = 10⁴`, `m = 16`.
    pub const FULL: WaDurable = WaDurable {
        n: 10_000,
        m: 16,
        crash_horizon: 4_000,
        restart_horizon: 2_000,
    };

    /// A toy instance for tests.
    pub const TOY: WaDurable = WaDurable {
        n: 2_000,
        m: 8,
        crash_horizon: 5_000,
        restart_horizon: 2_000,
    };

    fn config(&self) -> WaConfig {
        WaConfig::new(self.n, self.m, 1).expect("n ≥ m ≥ 1")
    }

    /// Expands `seed` into the [`SCENARIOS`] scenarios the program
    /// receives, each with its own scheduler seed, crash/restart plan and
    /// storage-fault seed.
    pub fn specs(&self, seed: u64) -> Vec<ScenarioSpec> {
        let mut state = seed;
        (0..SCENARIOS)
            .map(|_| self.spec(splitmix64(&mut state)))
            .collect()
    }

    /// One scenario: the scheduler seed, the crash/restart plan and the
    /// storage-fault seed, all drawn from `seed`.
    fn spec(&self, seed: u64) -> ScenarioSpec {
        let mut state = seed;
        let mut next = move || splitmix64(&mut state);
        let scheduler_seed = next();
        let fault_seed = next();
        let mut victims: Vec<usize> = (1..=self.m).collect();
        let mut plan = CrashPlan::none();
        for _ in 0..self.m / 4 {
            let pid = victims.swap_remove((next() % victims.len() as u64) as usize);
            plan.crash(pid, next() % self.crash_horizon);
            plan.restart_after(pid, 1 + next() % self.restart_horizon);
        }
        ScenarioSpec::random(scheduler_seed)
            .durable(StorageFault::TruncatedLog, fault_seed)
            .with_crash_plan(plan)
            .with_max_steps(2_000_000_000)
    }
}

/// Scenarios per seed. A scenario's cost depends on its scheduler seed and
/// crash plan, so that one seed's figure rests on several scenarios, which
/// [`crate::sim::measure`] weighs equally.
pub const SCENARIOS: usize = 4;

/// One step of the splitmix64 generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`WaDurable`] instance with the scenarios generated from its seed.
#[derive(Debug, Clone)]
pub struct WaRun {
    /// The instance.
    pub shape: WaDurable,
    /// The scenarios generated from the seed.
    pub specs: Vec<ScenarioSpec>,
}

impl WaRun {
    /// The instance `shape` under the scenarios generated from `seed`.
    pub fn new(shape: WaDurable, seed: u64) -> Self {
        Self {
            specs: shape.specs(seed),
            shape,
        }
    }
}

impl Simulation for WaRun {
    type Input = (Vec<WaIterativeProcess>, VecRegisters);

    fn jobs(&self) -> u64 {
        self.shape.n as u64
    }

    fn scenarios(&self) -> usize {
        self.specs.len()
    }

    fn setup(&self) -> Self::Input {
        let config = self.shape.config();
        let layout = config.layout();
        let fleet = (1..=config.m())
            .map(|pid| WaIterativeProcess::new(pid, config.iter(), layout.clone()))
            .collect();
        (fleet, VecRegisters::new(layout.cells()))
    }

    fn run(&self, scenario: usize, (fleet, mem): Self::Input) -> (Execution, VecRegisters) {
        let (exec, _slots, mem) = run_scenario(mem, fleet, &self.specs[scenario]);
        (exec, mem)
    }

    fn run_traced(&self, scenario: usize) -> TracedRun {
        let spec = &self.specs[scenario];
        let (SchedulerSpec::Random(sched_seed), BackendSpec::Durable { fault, seed, .. }) =
            (spec.scheduler, spec.backend)
        else {
            unreachable!("WaDurable::spec builds a random, durable scenario")
        };
        // The file, fleet and scheduler `run_scenario` builds for this
        // spec, each wrapped.
        let cache = spec.epoch_cache && spec.grants_quanta();
        let (fleet, mem) = self.setup();
        let mut fleet: Vec<_> = fleet.into_iter().map(TracedProc).collect();
        if cache {
            for p in &mut fleet {
                p.set_epoch_cache(true);
            }
        }
        mem.set_epoch_tracking(cache);
        let mem = TracedRegs(DurableRegisters::new(mem, fault, seed));
        let sched = WithCrashes::new(
            RandomScheduler::new(sched_seed).with_quantum(spec.quantum),
            spec.crash_plan.clone(),
        );
        let engine = Engine::new(mem, fleet, TracedSched(sched));
        trace::reset();
        let t = Instant::now();
        let (exec, _slots, mem) = engine.run_full(spec.limits);
        let wall = t.elapsed();
        let trace = trace::take();
        let durable = mem.0.stats();
        TracedRun {
            exec,
            mem: mem.0.into_inner(),
            wall,
            trace,
            durable: Some(durable),
        }
    }

    fn check(&self, exec: &Execution, mem: &VecRegisters, out: &mut Outcome) -> f64 {
        let certified = certify(mem, &self.shape.config().layout());
        let mut crashed = exec.crashed.clone();
        let mut restarted = exec.restarted.clone();
        crashed.sort_unstable();
        restarted.sort_unstable();
        out.check(
            exec.completed,
            "wa_random_durable: a process did not terminate",
        );
        out.check(
            !crashed.is_empty() && crashed == restarted,
            &format!("wa_random_durable: crashed {crashed:?} but restarted {restarted:?}"),
        );
        out.check(
            certified.complete,
            &format!(
                "wa_random_durable: {} of {} cells unwritten",
                certified.missing.len(),
                certified.n
            ),
        );
        certified.coverage()
    }

    fn describe(&self) -> String {
        let plans: Vec<Vec<_>> = self
            .specs
            .iter()
            .map(|s| s.crash_plan.iter().collect())
            .collect();
        format!(
            "WA_IterativeKK(eps=1) n={} m={} random scheduler quantum 1, durable truncated-log, \
             crash plans (pid, step) {plans:?}",
            self.shape.n, self.shape.m,
        )
    }
}
