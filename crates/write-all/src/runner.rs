//! Configuration, runners and reports for the Write-All algorithms.
//!
//! A simulated run takes a [`ScenarioSpec`] and goes through the shared
//! scenario driver ([`amo_sim::run_scenario`]), so Write-All fleets and
//! their baselines run under every scenario cell (quantized random
//! schedules, bursty blocks, the lockstep adversary with crash plans, …).
//! A threaded run takes a [`ThreadSpec`].

use amo_core::ConfigError;
use amo_iterative::IterConfig;
use amo_sim::thread::{ThreadExecution, ThreadSpec};
use amo_sim::{
    Execution, MemWork, ScenarioHooks, ScenarioProcess, ScenarioSpec, Scheduler, VecRegisters,
};

use crate::baselines::{baseline_cells, PermutationScanWa, SequentialWa, StaticPartitionWa, TasWa};
use crate::certify::{certify_snapshot, CertifyOutcome};
use crate::wa::{WaIterativeProcess, WaLayout};

/// Problem-instance parameters for `WA_IterativeKK(ε)` — the same shape as
/// [`IterConfig`] (`β = 3m²`, `1/ε` a positive integer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaConfig {
    iter: IterConfig,
}

impl WaConfig {
    /// Validates and builds a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if `m == 0` or `n < m`.
    pub fn new(n: usize, m: usize, inv_eps: u32) -> Result<Self, ConfigError> {
        Ok(Self {
            iter: IterConfig::new(n, m, inv_eps)?,
        })
    }

    /// Number of array cells (jobs) `n`.
    pub fn n(&self) -> usize {
        self.iter.n()
    }

    /// Number of processes `m`.
    pub fn m(&self) -> usize {
        self.iter.m()
    }

    /// The underlying iterated configuration.
    pub fn iter(&self) -> &IterConfig {
        &self.iter
    }

    /// Builds the register layout (stages + `wa` array).
    pub fn layout(&self) -> WaLayout {
        WaLayout::new(&self.iter)
    }

    /// Theorem 7.1 work envelope `n + m^{3+ε}·log₂ n` (unit constant).
    pub fn work_envelope(&self) -> f64 {
        self.iter.work_envelope()
    }
}

/// The Write-All comparators of experiment E5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaBaselineKind {
    /// One process writes everything (`m` is ignored).
    Sequential,
    /// Fault-intolerant `n/m` split.
    StaticPartition,
    /// Test-and-set claiming (RMW; Malewicz stand-in).
    Tas,
    /// Anderson–Woll-flavoured permutation scan with the given seed.
    PermutationScan(
        /// Permutation seed.
        u64,
    ),
}

impl WaBaselineKind {
    /// Human-readable label for table rows.
    pub fn label(&self) -> &'static str {
        match self {
            WaBaselineKind::Sequential => "sequential",
            WaBaselineKind::StaticPartition => "static-partition",
            WaBaselineKind::Tas => "tas-claim",
            WaBaselineKind::PermutationScan(_) => "perm-scan",
        }
    }

    /// Whether this baseline needs read-modify-write registers.
    pub fn uses_rmw(&self) -> bool {
        matches!(self, WaBaselineKind::Tas)
    }
}

/// Summary of one Write-All execution.
///
/// Equality is field-for-field — what the equivalence suites assert
/// between two runs that must be identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaReport {
    /// The certification outcome (all cells written?).
    pub certified: CertifyOutcome,
    /// `true` iff certification succeeded.
    pub complete: bool,
    /// Shared-memory traffic.
    pub mem_work: MemWork,
    /// Local basic operations.
    pub local_work: u64,
    /// Total actions executed.
    pub total_steps: u64,
    /// Pids crashed by injection.
    pub crashed: Vec<usize>,
    /// Pids restarted after a crash (empty without a restart plan; always
    /// empty for threaded runs).
    pub restarted: Vec<usize>,
    /// `true` when all surviving processes terminated within limits.
    pub completed: bool,
    /// Algorithm label for table rows.
    pub label: &'static str,
}

impl WaReport {
    /// Total work (Definition 2.5).
    pub fn work(&self) -> u64 {
        self.mem_work.total() + self.local_work
    }

    /// Writes issued per array cell (`≥ 1.0` when complete; the redundancy
    /// of the algorithm).
    pub fn redundancy(&self) -> f64 {
        if self.certified.n == 0 {
            return 0.0;
        }
        self.mem_work.writes as f64 / self.certified.n as f64
    }
}

/// Runs `WA_IterativeKK(ε)` under `spec` in the deterministic simulator.
/// The epoch-cache opt-in is handled by the generic driver.
///
/// # Examples
///
/// ```
/// use amo_sim::ScenarioSpec;
/// use amo_write_all::{run_wa_scenario, WaConfig};
///
/// let config = WaConfig::new(500, 2, 1)?;
/// let report = run_wa_scenario(&config, &ScenarioSpec::round_robin());
/// assert!(report.complete);
/// # Ok::<(), amo_core::ConfigError>(())
/// ```
pub fn run_wa_scenario(config: &WaConfig, spec: &ScenarioSpec) -> WaReport {
    let layout = config.layout();
    let mem = VecRegisters::new(layout.cells());
    let (exec, _slots, mem) = amo_sim::run_scenario(mem, wa_fleet(config, &layout), spec);
    let certified = certify_snapshot(&mem.snapshot(), layout.wa_base(), config.n());
    wa_report(exec, certified, "wa-iterative-kk")
}

/// The `m` `WA_IterativeKK(ε)` automatons over `layout`.
fn wa_fleet(config: &WaConfig, layout: &WaLayout) -> Vec<WaIterativeProcess> {
    (1..=config.m())
        .map(|pid| WaIterativeProcess::new(pid, config.iter(), layout.clone()))
        .collect()
}

/// Assembles a [`WaReport`] from a simulated execution and its
/// certification.
fn wa_report(exec: Execution, certified: CertifyOutcome, label: &'static str) -> WaReport {
    WaReport {
        complete: certified.complete,
        certified,
        mem_work: exec.mem_work,
        local_work: exec.local_work,
        total_steps: exec.total_steps,
        crashed: exec.crashed,
        restarted: exec.restarted,
        completed: exec.completed,
        label,
    }
}

/// The scenario-registry entries of the Write-All process family: the
/// process-agnostic lockstep adversary applies to every kind (historically
/// inexpressible for the scan baselines), and `WA_IterativeKK`
/// additionally wires its announcement-epoch cache into the driver hook.
impl ScenarioHooks for WaIterativeProcess {
    fn adversary(name: &str) -> Option<Box<dyn Scheduler<Self>>> {
        amo_core::generic_adversary(name)
    }

    fn set_epoch_cache(&mut self, enabled: bool) {
        WaIterativeProcess::set_epoch_cache(self, enabled);
    }
}

/// Registers the process-agnostic adversaries (via
/// [`amo_core::generic_adversary`]) for a plain (cache-free) Write-All
/// baseline process type.
macro_rules! generic_adversaries_scenario {
    ($($ty:ty),+ $(,)?) => {$(
        impl ScenarioHooks for $ty {
            fn adversary(name: &str) -> Option<Box<dyn Scheduler<Self>>> {
                amo_core::generic_adversary(name)
            }
        }
    )+};
}

generic_adversaries_scenario!(SequentialWa, StaticPartitionWa, TasWa, PermutationScanWa);

/// Runs `WA_IterativeKK(ε)` on OS threads, configured by `spec`.
pub fn run_wa_threads(config: &WaConfig, spec: &ThreadSpec) -> WaReport {
    let layout = config.layout();
    let mem = spec.alloc(layout.cells());
    let exec = spec.run(&mem, wa_fleet(config, &layout));
    let certified = certify_snapshot(&mem.snapshot(), layout.wa_base(), config.n());
    wa_thread_report(exec, certified, "wa-iterative-kk")
}

/// Assembles a [`WaReport`] from a threaded execution and its
/// certification.
fn wa_thread_report(
    exec: ThreadExecution,
    certified: CertifyOutcome,
    label: &'static str,
) -> WaReport {
    WaReport {
        complete: certified.complete,
        certified,
        mem_work: exec.mem_work,
        local_work: exec.local_work,
        total_steps: exec.per_proc_steps.iter().sum(),
        crashed: exec.crashed,
        restarted: Vec::new(),
        completed: exec.completed,
        label,
    }
}

/// Runs a Write-All baseline under `spec` in the simulator; the scenario
/// matrix drives cells like lockstep or bursty blocks over the scan
/// baselines through it.
///
/// For [`WaBaselineKind::Sequential`] the fleet is a single process
/// regardless of `m`.
pub fn run_baseline_scenario(
    kind: WaBaselineKind,
    n: usize,
    m: usize,
    spec: &ScenarioSpec,
) -> WaReport {
    assert!(n > 0 && m > 0, "need jobs and processes");
    let cells = baseline_cells(kind.uses_rmw(), n);
    let mem = VecRegisters::new(cells);
    fn go<P: ScenarioProcess>(
        mem: VecRegisters,
        fleet: Vec<P>,
        spec: &ScenarioSpec,
    ) -> (Execution, VecRegisters) {
        let (exec, _slots, mem) = amo_sim::run_scenario(mem, fleet, spec);
        (exec, mem)
    }
    let (exec, mem) = match kind {
        WaBaselineKind::Sequential => go(mem, vec![SequentialWa::new(1, n as u64)], spec),
        WaBaselineKind::StaticPartition => {
            let fleet: Vec<_> = (1..=m)
                .map(|p| StaticPartitionWa::new(p, m, n as u64))
                .collect();
            go(mem, fleet, spec)
        }
        WaBaselineKind::Tas => {
            let fleet: Vec<_> = (1..=m).map(|p| TasWa::new(p, m, n as u64)).collect();
            go(mem, fleet, spec)
        }
        WaBaselineKind::PermutationScan(seed) => {
            let fleet: Vec<_> = (1..=m)
                .map(|p| PermutationScanWa::new(p, n as u64, seed))
                .collect();
            go(mem, fleet, spec)
        }
    };
    let certified = certify_snapshot(&mem.snapshot(), 0, n);
    wa_report(exec, certified, kind.label())
}

/// Runs a Write-All baseline on OS threads, configured by `spec`.
pub fn run_baseline_threads(
    kind: WaBaselineKind,
    n: usize,
    m: usize,
    spec: &ThreadSpec,
) -> WaReport {
    assert!(n > 0 && m > 0, "need jobs and processes");
    let mem = spec.alloc(baseline_cells(kind.uses_rmw(), n));
    let exec = match kind {
        WaBaselineKind::Sequential => spec.run(&mem, vec![SequentialWa::new(1, n as u64)]),
        WaBaselineKind::StaticPartition => {
            let fleet: Vec<_> = (1..=m)
                .map(|p| StaticPartitionWa::new(p, m, n as u64))
                .collect();
            spec.run(&mem, fleet)
        }
        WaBaselineKind::Tas => {
            let fleet: Vec<_> = (1..=m).map(|p| TasWa::new(p, m, n as u64)).collect();
            spec.run(&mem, fleet)
        }
        WaBaselineKind::PermutationScan(seed) => {
            let fleet: Vec<_> = (1..=m)
                .map(|p| PermutationScanWa::new(p, n as u64, seed))
                .collect();
            spec.run(&mem, fleet)
        }
    };
    let certified = certify_snapshot(&mem.snapshot(), 0, n);
    wa_thread_report(exec, certified, kind.label())
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_sim::CrashPlan;

    #[test]
    fn wa_iterative_completes_no_crashes() {
        let config = WaConfig::new(300, 3, 1).unwrap();
        let report = run_wa_scenario(&config, &ScenarioSpec::round_robin());
        assert!(report.complete, "missing {:?}", report.certified.missing);
        assert!(report.completed);
        assert!(report.crashed.is_empty());
        assert!(report.redundancy() >= 1.0);
    }

    #[test]
    fn wa_iterative_completes_under_crashes() {
        let config = WaConfig::new(300, 4, 1).unwrap();
        let spec = ScenarioSpec::random(11).with_crash_plan(CrashPlan::at_steps([
            (1usize, 50u64),
            (2, 200),
            (3, 700),
        ]));
        let report = run_wa_scenario(&config, &spec);
        assert_eq!(report.crashed, vec![1, 2, 3]);
        assert!(report.complete, "survivor finishes everything");
    }

    #[test]
    fn static_partition_fails_under_crash() {
        let report = run_baseline_scenario(
            WaBaselineKind::StaticPartition,
            100,
            4,
            &ScenarioSpec::round_robin().with_crash_plan(CrashPlan::at_steps([(2usize, 3u64)])),
        );
        assert!(!report.complete, "fault-intolerant baseline must fail");
        assert!(!report.certified.missing.is_empty());
    }

    #[test]
    fn tas_baseline_completes_under_crash_of_non_survivors() {
        let report = run_baseline_scenario(
            WaBaselineKind::Tas,
            64,
            3,
            &ScenarioSpec::random(3).with_crash_plan(CrashPlan::at_steps([(1usize, 10u64)])),
        );
        // TAS claims are lost with the crashed claimer: cells claimed but
        // not written stay 0 — the known weakness of naive TAS claiming
        // (Malewicz's real algorithm recovers them; our stand-in documents
        // the gap). Without crashes it always completes:
        let clean = run_baseline_scenario(WaBaselineKind::Tas, 64, 3, &ScenarioSpec::random(3));
        assert!(clean.complete);
        // Under a crash, completion depends on timing; both outcomes are
        // legal for the stand-in, but the report must be internally
        // consistent.
        assert_eq!(report.complete, report.certified.missing.is_empty());
    }

    #[test]
    fn permutation_scan_completes_under_crashes() {
        let report = run_baseline_scenario(
            WaBaselineKind::PermutationScan(5),
            80,
            4,
            &ScenarioSpec::random(9).with_crash_plan(CrashPlan::at_steps([
                (1usize, 5u64),
                (2, 11),
                (3, 17),
            ])),
        );
        assert!(report.complete, "any survivor covers all cells");
    }

    #[test]
    fn sequential_baseline_work_is_n_writes() {
        let report = run_baseline_scenario(
            WaBaselineKind::Sequential,
            128,
            1,
            &ScenarioSpec::round_robin(),
        );
        assert!(report.complete);
        assert_eq!(report.mem_work.writes, 128);
        assert!((report.redundancy() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn wa_threads_complete() {
        let config = WaConfig::new(400, 4, 1).unwrap();
        let report = run_wa_threads(&config, &ThreadSpec::new());
        assert!(report.complete);
    }

    #[test]
    fn baseline_threads_complete() {
        for kind in [
            WaBaselineKind::Sequential,
            WaBaselineKind::StaticPartition,
            WaBaselineKind::Tas,
            WaBaselineKind::PermutationScan(1),
        ] {
            let report = run_baseline_threads(kind, 100, 3, &ThreadSpec::new());
            assert!(report.complete, "{} must complete crash-free", kind.label());
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> = [
            WaBaselineKind::Sequential,
            WaBaselineKind::StaticPartition,
            WaBaselineKind::Tas,
            WaBaselineKind::PermutationScan(0),
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        assert_eq!(labels.len(), 4);
    }
}
