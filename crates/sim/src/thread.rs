//! Real-thread runtime: the same automatons on OS threads over hardware
//! atomics.
//!
//! The simulator explores *which* interleavings are possible; this runtime
//! demonstrates the algorithms on an actual multiprocessor, where the
//! interleaving is chosen by the machine. Each process runs on its own
//! thread, stepping its automaton to completion; crash-stop failures are
//! injected as per-thread step budgets from a [`CrashPlan`].
//!
//! Runs are described by the builder-style [`ThreadSpec`] (mirroring the
//! [`BackendSpec`](crate::BackendSpec) builder constructors) and driven by
//! [`ThreadSpec::run`]; a simulated [`ScenarioSpec`](crate::ScenarioSpec)
//! lowers into one via
//! [`ScenarioSpec::threaded`](crate::ScenarioSpec::threaded). Every
//! threaded runner in the workspace takes a `&ThreadSpec`.
//!
//! # Crash semantics: stop, never restart
//!
//! Threaded crashes are **crash-stop only**. The simulator's
//! crash–restart lifecycle ([`CrashPlan::restart_after`] +
//! [`Process::on_restart`]) depends on the engine replaying a recovery
//! protocol at a deterministic global step — a notion that does not exist
//! across free-running OS threads, and a crashed thread's automaton state
//! is gone with the thread. A [`CrashPlan`] carrying restart entries is
//! therefore **rejected loudly** by [`ThreadSpec::run`] (it used to be
//! silently ignored): run restart scenarios on the simulated backends
//! (e.g. [`BackendSpec::durable`](crate::BackendSpec::durable)) instead.
//!
//! # Examples
//!
//! ```
//! use amo_sim::testing::PerformOnceProcess;
//! use amo_sim::thread::ThreadSpec;
//! use amo_sim::{AtomicRegisters, MemOrder};
//!
//! let mem = AtomicRegisters::new(0, MemOrder::SeqCst);
//! let procs = vec![PerformOnceProcess::new(1, 1), PerformOnceProcess::new(2, 2)];
//! let exec = ThreadSpec::new().run(&mem, procs);
//! assert!(exec.completed);
//! assert_eq!(exec.effectiveness(), 2);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use crate::crash::CrashPlan;
use crate::process::{JobSpan, Process, StepEvent};
use crate::registers::{AtomicRegisters, MemOrder, MemWork, Registers};
use crate::verify::{at_most_once_violations, distinct_jobs, Violation};

/// A declarative description of one real-thread execution, built with the
/// same builder idiom as [`BackendSpec`](crate::BackendSpec) /
/// [`ScenarioSpec`](crate::ScenarioSpec).
///
/// The spec owns everything a threaded run can be configured with: the
/// crash plan (crash-**stop** budgets only — see the module docs for why
/// restarts are rejected), the wait-freedom watchdog, and the
/// memory-ordering regime used when the spec allocates the register file
/// itself ([`alloc`](Self::alloc)).
///
/// # Examples
///
/// ```
/// use amo_sim::testing::WriterProcess;
/// use amo_sim::thread::ThreadSpec;
/// use amo_sim::CrashPlan;
///
/// let spec = ThreadSpec::new()
///     .with_crash_plan(CrashPlan::at_steps([(2usize, 5u64)]))
///     .with_watchdog(10_000);
/// let mem = spec.alloc(2);
/// let procs = vec![WriterProcess::new(1, 0, 40), WriterProcess::new(2, 1, 40)];
/// let exec = spec.run(&mem, procs);
/// assert_eq!(exec.crashed, vec![2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThreadSpec {
    crash_plan: CrashPlan,
    watchdog: Option<u64>,
    order: MemOrder,
}

impl ThreadSpec {
    /// A spec with no crashes, no watchdog and the verified
    /// [`MemOrder::SeqCst`] regime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds crash-stop injection (per-thread step budgets).
    ///
    /// Restart entries ([`CrashPlan::restart_after`]) are rejected by
    /// [`run`](Self::run) — see the module docs.
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = plan;
        self
    }

    /// Caps every process at `steps` actions as a wait-freedom watchdog;
    /// a process exceeding it is reported via
    /// [`ThreadExecution::completed`] `== false`.
    pub fn with_watchdog(mut self, steps: u64) -> Self {
        self.watchdog = Some(steps);
        self
    }

    /// Selects the memory-ordering regime [`alloc`](Self::alloc) uses
    /// (default: the verified [`MemOrder::SeqCst`]).
    pub fn with_order(mut self, order: MemOrder) -> Self {
        self.order = order;
        self
    }

    /// The configured crash plan.
    pub fn crash_plan(&self) -> &CrashPlan {
        &self.crash_plan
    }

    /// The configured watchdog, if any.
    pub fn watchdog(&self) -> Option<u64> {
        self.watchdog
    }

    /// The configured memory-ordering regime.
    pub fn order(&self) -> MemOrder {
        self.order
    }

    /// Allocates a zeroed register file of `cells` hardware atomics under
    /// this spec's ordering regime.
    pub fn alloc(&self, cells: usize) -> AtomicRegisters {
        AtomicRegisters::new(cells, self.order)
    }

    /// Runs the fleet on OS threads over `mem`, one thread per process.
    ///
    /// All threads start behind a barrier so the contention window opens
    /// simultaneously. Returns once every thread has terminated, crashed
    /// (per plan) or exhausted the watchdog.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is empty or pids are not `1..=m` in order, if the
    /// crash plan carries restart entries (real threads are crash-stop
    /// only — see the module docs), or if a worker thread panics.
    pub fn run<P>(&self, mem: &AtomicRegisters, procs: Vec<P>) -> ThreadExecution
    where
        P: Process<AtomicRegisters> + Send,
    {
        assert!(
            !self.crash_plan.has_restarts(),
            "crash plan schedules restarts for pids {:?}, but the thread runtime is \
             crash-stop only: a crashed OS thread cannot re-enter the fleet, and restart \
             semantics (CrashPlan::restart_after + Process::on_restart) exist only in the \
             simulator — run restart scenarios there (e.g. BackendSpec::durable)",
            self.crash_plan
                .restarts()
                .map(|(p, _)| p)
                .collect::<Vec<_>>()
        );
        assert!(!procs.is_empty(), "need at least one process");
        for (i, p) in procs.iter().enumerate() {
            assert_eq!(p.pid(), i + 1, "processes must be ordered by pid 1..=m");
        }
        let m = procs.len();
        let barrier = Barrier::new(m);
        let incomplete = AtomicU64::new(0);

        struct WorkerResult {
            pid: usize,
            performed: Vec<ThreadPerform>,
            steps: u64,
            crashed: bool,
            local_work: u64,
        }

        let start = std::time::Instant::now();
        let results: Vec<WorkerResult> = std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(m);
            for mut p in procs {
                let barrier = &barrier;
                let incomplete = &incomplete;
                let spec = &self;
                handles.push(s.spawn(move || {
                    let pid = p.pid();
                    let budget = spec.crash_plan.budget(pid);
                    let mut performed = Vec::new();
                    let mut steps: u64 = 0;
                    let mut crashed = false;
                    barrier.wait();
                    loop {
                        if budget.is_some_and(|b| steps >= b) {
                            crashed = true;
                            break;
                        }
                        if spec.watchdog.is_some_and(|w| steps >= w) {
                            incomplete.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        match p.step(mem) {
                            StepEvent::Perform { span } => {
                                steps += 1;
                                performed.push(ThreadPerform { pid, span });
                            }
                            StepEvent::Terminated => {
                                steps += 1;
                                break;
                            }
                            _ => steps += 1,
                        }
                    }
                    WorkerResult {
                        pid,
                        performed,
                        steps,
                        crashed,
                        local_work: p.local_work(),
                    }
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed();

        let mut performed = Vec::new();
        let mut crashed = Vec::new();
        let mut per_proc_steps = vec![0u64; m];
        let mut local_work = 0u64;
        for r in results {
            per_proc_steps[r.pid - 1] = r.steps;
            if r.crashed {
                crashed.push(r.pid);
            }
            local_work += r.local_work;
            performed.extend(r.performed);
        }

        ThreadExecution {
            performed,
            crashed,
            per_proc_steps,
            completed: incomplete.load(Ordering::Relaxed) == 0,
            mem_work: mem.work(),
            local_work,
            elapsed,
        }
    }
}

/// One `do` action observed on a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPerform {
    /// Performing process.
    pub pid: usize,
    /// Jobs performed.
    pub span: JobSpan,
}

/// Outcome of a threaded execution.
#[derive(Debug, Clone)]
pub struct ThreadExecution {
    /// Every `do` action (ordered by pid, then program order within a pid;
    /// there is no meaningful global order across threads).
    pub performed: Vec<ThreadPerform>,
    /// Pids that were crash-injected.
    pub crashed: Vec<usize>,
    /// Actions executed per process (index `i` holds pid `i + 1`).
    pub per_proc_steps: Vec<u64>,
    /// `true` when every non-crashed process terminated within the watchdog.
    pub completed: bool,
    /// Shared-memory traffic.
    pub mem_work: MemWork,
    /// Local basic operations summed over all processes.
    pub local_work: u64,
    /// Wall-clock duration of the parallel phase.
    pub elapsed: std::time::Duration,
}

impl ThreadExecution {
    /// `Do(α)`: distinct jobs performed.
    pub fn effectiveness(&self) -> u64 {
        distinct_jobs(self.performed.iter().map(|r| r.span))
    }

    /// At-most-once violations (must be empty for a correct algorithm).
    pub fn violations(&self) -> Vec<Violation> {
        at_most_once_violations(self.performed.iter().map(|r| r.span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registers::MemOrder;
    use crate::testing::{PerformOnceProcess, WriterProcess};

    #[test]
    fn threads_complete() {
        let mem = AtomicRegisters::new(4, MemOrder::SeqCst);
        let procs: Vec<WriterProcess> = (1..=4).map(|p| WriterProcess::new(p, p - 1, 50)).collect();
        let exec = ThreadSpec::new().run(&mem, procs);
        assert!(exec.completed);
        assert!(exec.crashed.is_empty());
        assert_eq!(exec.per_proc_steps, vec![51; 4]);
        assert_eq!(exec.mem_work.writes, 200);
    }

    #[test]
    fn crash_plan_limits_steps() {
        let mem = AtomicRegisters::new(2, MemOrder::SeqCst);
        let procs = vec![WriterProcess::new(1, 0, 1_000), WriterProcess::new(2, 1, 5)];
        let spec = ThreadSpec::new().with_crash_plan(CrashPlan::at_steps([(1usize, 7u64)]));
        let exec = spec.run(&mem, procs);
        assert_eq!(exec.crashed, vec![1]);
        assert_eq!(exec.per_proc_steps[0], 7);
        assert!(exec.completed, "pid 2 still terminated normally");
    }

    #[test]
    fn watchdog_reports_incomplete() {
        let mem = AtomicRegisters::new(1, MemOrder::SeqCst);
        let procs = vec![WriterProcess::new(1, 0, 1_000)];
        let exec = ThreadSpec::new().with_watchdog(10).run(&mem, procs);
        assert!(!exec.completed);
    }

    #[test]
    fn performs_are_collected_across_threads() {
        let mem = AtomicRegisters::new(0, MemOrder::SeqCst);
        let procs: Vec<PerformOnceProcess> = (1..=8)
            .map(|p| PerformOnceProcess::new(p, p as u64))
            .collect();
        let exec = ThreadSpec::new().run(&mem, procs);
        assert_eq!(exec.effectiveness(), 8);
        assert!(exec.violations().is_empty());
    }

    #[test]
    #[should_panic(expected = "ordered by pid")]
    fn pid_order_enforced() {
        let mem = AtomicRegisters::new(0, MemOrder::SeqCst);
        let _ = ThreadSpec::new().run(&mem, vec![PerformOnceProcess::new(2, 1)]);
    }

    #[test]
    #[should_panic(expected = "crash-stop only")]
    fn restart_plans_are_rejected_loudly() {
        // Silently ignoring restart entries used to make a threaded run
        // with a durable-style plan report misleading results; now the
        // combination is a loud harness error.
        let mem = AtomicRegisters::new(0, MemOrder::SeqCst);
        let mut plan = CrashPlan::at_steps([(1usize, 3u64)]);
        plan.restart_after(1, 5);
        let _ = ThreadSpec::new()
            .with_crash_plan(plan)
            .run(&mem, vec![PerformOnceProcess::new(1, 1)]);
    }

    #[test]
    fn spec_builders_and_accessors() {
        let spec = ThreadSpec::new()
            .with_crash_plan(CrashPlan::at_steps([(3usize, 9u64)]))
            .with_watchdog(77)
            .with_order(MemOrder::AcqRel);
        assert_eq!(spec.crash_plan().budget(3), Some(9));
        assert_eq!(spec.watchdog(), Some(77));
        assert_eq!(spec.order(), MemOrder::AcqRel);
        let mem = spec.alloc(3);
        assert_eq!(mem.len(), 3);
    }
}
