//! Convenience runners: build a KKβ fleet, execute it (simulated or on
//! threads), and summarise the outcome as an [`AmoReport`].
//!
//! A simulated run is configured by one [`ScenarioSpec`] and routed through
//! the shared scenario driver ([`amo_sim::run_scenario`]); a threaded run is
//! configured by one [`ThreadSpec`]. [`AmoReport::from_execution`] and
//! [`AmoReport::from_threads`] are the single place a report is built from
//! either kind of run, for this crate and for the iterated and baseline
//! runners alike.

use amo_sim::thread::{ThreadExecution, ThreadSpec};
use amo_sim::{run_scenario, Execution, JobSpan, MemWork, ScenarioSpec, VecRegisters, Violation};

use crate::config::KkConfig;
use crate::kk::KkProcess;
use crate::layout::KkLayout;
use crate::stats::CollisionMatrix;

/// Summary of one at-most-once execution, simulated or threaded.
///
/// Equality is field-for-field (deterministic counters, `local_work` and
/// the collision matrix included) — what the equivalence suites assert
/// between two runs that must be identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmoReport {
    /// `Do(α)`: distinct jobs performed (Definition 2.1).
    pub effectiveness: u64,
    /// At-most-once violations (empty iff Definition 2.2 holds).
    pub violations: Vec<Violation>,
    /// Every `do` as `(pid, span)`.
    pub performed: Vec<(usize, JobSpan)>,
    /// Crashed pids.
    pub crashed: Vec<usize>,
    /// Pids restarted after a crash (empty without a restart plan; always
    /// empty for threaded runs).
    pub restarted: Vec<usize>,
    /// `true` when every surviving process terminated within limits
    /// (wait-freedom observed).
    pub completed: bool,
    /// Shared-memory traffic.
    pub mem_work: MemWork,
    /// Local basic operations (set-structure iterations etc.).
    pub local_work: u64,
    /// Total actions (simulated runs) or summed per-thread actions.
    pub total_steps: u64,
    /// Pairwise collision counts, when tracking was enabled.
    pub collisions: Option<CollisionMatrix>,
    /// Which scheduler produced this run (for table labelling).
    pub scheduler_label: &'static str,
}

impl AmoReport {
    /// The report of a simulated run, labelled `label`, with no collision
    /// matrix.
    pub fn from_execution(exec: Execution, label: &'static str) -> Self {
        let (effectiveness, violations) = exec.summary();
        AmoReport {
            effectiveness,
            violations,
            performed: exec.performed.iter().map(|r| (r.pid, r.span)).collect(),
            crashed: exec.crashed,
            restarted: exec.restarted,
            completed: exec.completed,
            mem_work: exec.mem_work,
            local_work: exec.local_work,
            total_steps: exec.total_steps,
            collisions: None,
            scheduler_label: label,
        }
    }

    /// The report of a threaded run, labelled `label`: steps are summed
    /// over the threads, and restarts are always empty.
    pub fn from_threads(exec: ThreadExecution, label: &'static str) -> Self {
        let (effectiveness, violations) =
            amo_sim::perform_summary(exec.performed.iter().map(|r| r.span));
        AmoReport {
            effectiveness,
            violations,
            performed: exec.performed.iter().map(|r| (r.pid, r.span)).collect(),
            crashed: exec.crashed,
            restarted: Vec::new(),
            completed: exec.completed,
            mem_work: exec.mem_work,
            local_work: exec.local_work,
            total_steps: exec.per_proc_steps.iter().sum(),
            collisions: None,
            scheduler_label: label,
        }
    }

    /// Total work: shared traffic plus local basic operations
    /// (Definition 2.5).
    pub fn work(&self) -> u64 {
        self.mem_work.total() + self.local_work
    }
}

impl std::fmt::Display for AmoReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "at-most-once report ({} schedule)", self.scheduler_label)?;
        writeln!(f, "  effectiveness : {} distinct jobs", self.effectiveness)?;
        writeln!(
            f,
            "  safety        : {} violation(s)",
            self.violations.len()
        )?;
        writeln!(
            f,
            "  crashes       : {:?} ({} of the fleet)",
            self.crashed,
            self.crashed.len()
        )?;
        writeln!(
            f,
            "  work          : {} shared + {} local = {}",
            self.mem_work.total(),
            self.local_work,
            self.work()
        )?;
        write!(
            f,
            "  termination   : {}",
            if self.completed {
                "all survivors terminated"
            } else {
                "step cap hit"
            }
        )
    }
}

/// Builds the layout and the `m` KKβ automatons for a config.
pub fn kk_fleet(config: &KkConfig, track_collisions: bool) -> (KkLayout, Vec<KkProcess>) {
    kk_fleet_with(config, track_collisions, false)
}

/// [`kk_fleet`] with the `done`-layout choice exposed: `interleaved_done`
/// selects the position-major (struct-of-arrays) log order of
/// [`KkLayout::with_interleaved_done`].
pub fn kk_fleet_with(
    config: &KkConfig,
    track_collisions: bool,
    interleaved_done: bool,
) -> (KkLayout, Vec<KkProcess>) {
    let mut layout = KkLayout::contiguous(config.m(), config.n(), false);
    if interleaved_done {
        layout = layout.with_interleaved_done();
    }
    let fleet = (1..=config.m())
        .map(|pid| {
            let p = KkProcess::from_config(pid, config, layout);
            if track_collisions {
                p.with_collision_tracking()
            } else {
                p
            }
        })
        .collect();
    (layout, fleet)
}

/// Runs KKβ under `spec` in the deterministic simulator.
///
/// The fleet uses the interleaved (struct-of-arrays) `done` layout exactly
/// when the spec grants quanta (see [`ScenarioSpec::grants_quanta`]): the
/// macro-stepping fast path reads adjacent cells in its `gatherDone`
/// sweeps, while single-action schedules keep the row-major layout. The
/// layout changes no execution, only its speed.
///
/// # Examples
///
/// ```
/// use amo_core::{run_scenario_simulated, KkConfig};
/// use amo_sim::ScenarioSpec;
///
/// let config = KkConfig::new(64, 4)?;
/// // A quantized random schedule.
/// let report = run_scenario_simulated(&config, &ScenarioSpec::random(7).with_quantum(64));
/// assert!(report.violations.is_empty());
/// assert!(report.effectiveness >= config.effectiveness_bound());
/// # Ok::<(), amo_core::ConfigError>(())
/// ```
pub fn run_scenario_simulated(config: &KkConfig, spec: &ScenarioSpec) -> AmoReport {
    let (layout, fleet) = kk_fleet_with(config, spec.collisions, spec.grants_quanta());
    run_fleet_simulated(VecRegisters::new(layout.cells()), fleet, config.n(), spec)
}

/// Runs an arbitrary pre-built KKβ fleet of an `n`-job instance under
/// `spec` (used by the ablations, which build fleets the config alone
/// cannot describe). The collision matrix is harvested from the terminal
/// slots when the spec tracked it.
///
/// # Examples
///
/// ```
/// use amo_core::{kk_fleet, run_fleet_simulated, KkConfig};
/// use amo_sim::{ScenarioSpec, VecRegisters};
///
/// let config = KkConfig::new(64, 4)?;
/// let (layout, fleet) = kk_fleet(&config, false);
/// let mem = VecRegisters::new(layout.cells());
/// let report = run_fleet_simulated(mem, fleet, config.n(), &ScenarioSpec::round_robin());
/// assert!(report.violations.is_empty());
/// assert!(report.effectiveness >= config.effectiveness_bound());
/// # Ok::<(), amo_core::ConfigError>(())
/// ```
pub fn run_fleet_simulated(
    mem: VecRegisters,
    fleet: Vec<KkProcess>,
    n: usize,
    spec: &ScenarioSpec,
) -> AmoReport {
    let (exec, slots, _) = run_scenario(mem, fleet, spec);
    let collisions = spec.collisions.then(|| {
        let rows = slots
            .iter()
            .map(|s| s.process.collisions_with().to_vec())
            .collect();
        CollisionMatrix::new(rows, n)
    });
    AmoReport {
        collisions,
        ..AmoReport::from_execution(exec, spec.label())
    }
}

/// Runs KKβ on OS threads over hardware atomics, configured by `spec`.
///
/// # Examples
///
/// ```
/// use amo_core::{run_threads, KkConfig};
/// use amo_sim::thread::ThreadSpec;
///
/// let config = KkConfig::new(128, 4)?;
/// let report = run_threads(&config, &ThreadSpec::new());
/// assert!(report.violations.is_empty());
/// assert!(report.effectiveness >= config.effectiveness_bound());
/// # Ok::<(), amo_core::ConfigError>(())
/// ```
///
/// # Panics
///
/// Panics if the crash plan schedules restarts — real threads are
/// crash-stop only (see [`amo_sim::thread`]).
pub fn run_threads(config: &KkConfig, spec: &ThreadSpec) -> AmoReport {
    let (layout, fleet) = kk_fleet(config, false);
    let mem = spec.alloc(layout.cells());
    AmoReport::from_threads(spec.run(&mem, fleet), "threads")
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_sim::CrashPlan;

    #[test]
    fn round_robin_no_crash_performs_nearly_everything() {
        let config = KkConfig::new(60, 3).unwrap();
        let report = run_scenario_simulated(&config, &ScenarioSpec::round_robin());
        assert!(report.violations.is_empty());
        assert!(report.completed);
        assert!(report.effectiveness >= config.effectiveness_bound());
        assert!(report.effectiveness <= 60);
    }

    #[test]
    fn crash_plan_is_respected() {
        let config = KkConfig::new(40, 4).unwrap();
        let spec = ScenarioSpec::round_robin()
            .with_crash_plan(CrashPlan::at_steps([(1usize, 5u64), (2, 9)]));
        let report = run_scenario_simulated(&config, &spec);
        assert_eq!(report.crashed, vec![1, 2]);
        assert!(report.violations.is_empty());
        assert!(report.effectiveness >= config.effectiveness_bound());
    }

    #[test]
    fn collision_tracking_produces_matrix() {
        let config = KkConfig::new(50, 4).unwrap();
        let spec = ScenarioSpec::adversary("lockstep").with_collision_tracking();
        let report = run_scenario_simulated(&config, &spec);
        let m = report.collisions.expect("matrix present");
        assert_eq!(m.m(), 4);
    }

    #[test]
    fn threads_respect_effectiveness_bound() {
        let config = KkConfig::new(120, 4).unwrap();
        let report = run_threads(&config, &ThreadSpec::new());
        assert!(report.violations.is_empty());
        assert!(report.completed);
        assert!(report.effectiveness >= config.effectiveness_bound());
    }

    #[test]
    fn threads_with_crashes_stay_safe() {
        let config = KkConfig::new(80, 4).unwrap();
        let spec =
            ThreadSpec::new().with_crash_plan(CrashPlan::at_steps([(1usize, 30u64), (2, 60)]));
        let report = run_threads(&config, &spec);
        assert!(report.violations.is_empty());
        assert_eq!(report.crashed, vec![1, 2]);
    }

    #[test]
    fn report_display_is_informative() {
        let config = KkConfig::new(20, 2).unwrap();
        let report = run_scenario_simulated(&config, &ScenarioSpec::round_robin());
        let text = report.to_string();
        assert!(text.contains("effectiveness"));
        assert!(text.contains("0 violation(s)"));
        assert!(text.contains("round-robin"));
        assert!(text.contains("all survivors terminated"));
    }

    #[test]
    fn work_is_mem_plus_local() {
        let config = KkConfig::new(30, 2).unwrap();
        let report = run_scenario_simulated(&config, &ScenarioSpec::round_robin());
        assert_eq!(report.work(), report.mem_work.total() + report.local_work);
        assert!(report.local_work > 0, "set structures counted");
    }
}
