//! Real-thread runtime: the same automatons on OS threads over hardware
//! atomics.
//!
//! The simulator explores *which* interleavings are possible; this runtime
//! demonstrates the algorithms on an actual multiprocessor, where the
//! interleaving is chosen by the machine. Each process runs on its own
//! thread, stepping its automaton to completion; crash-stop failures are
//! injected as per-thread step budgets from a [`CrashPlan`].
//!
//! A run is configured by one [`ThreadSpec`] and driven by
//! [`ThreadSpec::run`] over an [`AtomicRegisters`] file, whose cells are
//! `SeqCst` atomics (its docs give the reason). Every threaded runner in
//! the workspace takes a `&ThreadSpec`. A run returns the simulator's
//! [`Execution`] and is read the same way as a simulated one;
//! [`ThreadSpec::run`] lists what its fields mean without a global step
//! order.
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
//! use amo_sim::AtomicRegisters;
//!
//! let mem = AtomicRegisters::new(0);
//! let procs = vec![PerformOnceProcess::new(1, 1), PerformOnceProcess::new(2, 2)];
//! let exec = ThreadSpec::new().run(&mem, procs);
//! assert!(exec.completed);
//! assert_eq!(exec.effectiveness(), 2);
//! ```

use std::sync::Barrier;

use crate::crash::CrashPlan;
use crate::engine::{Execution, PerformRecord};
use crate::process::{Process, StepEvent};
use crate::registers::{AtomicRegisters, Registers};

/// A declarative description of one real-thread execution, built with the
/// same builder idiom as [`BackendSpec`](crate::BackendSpec) /
/// [`ScenarioSpec`](crate::ScenarioSpec).
///
/// The spec owns everything a threaded run can be configured with: the
/// crash plan (crash-**stop** budgets only — see the module docs for why
/// restarts are rejected) and the wait-freedom watchdog.
///
/// # Examples
///
/// ```
/// use amo_sim::testing::WriterProcess;
/// use amo_sim::thread::ThreadSpec;
/// use amo_sim::{AtomicRegisters, CrashPlan};
///
/// let spec = ThreadSpec::new()
///     .with_crash_plan(CrashPlan::at_steps([(2usize, 5u64)]))
///     .with_watchdog(10_000);
/// let mem = AtomicRegisters::new(2);
/// let procs = vec![WriterProcess::new(1, 0, 40), WriterProcess::new(2, 1, 40)];
/// let exec = spec.run(&mem, procs);
/// assert_eq!(exec.crashed, vec![2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThreadSpec {
    crash_plan: CrashPlan,
    watchdog: Option<u64>,
}

impl ThreadSpec {
    /// A spec with no crashes and no watchdog.
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
    /// [`Execution::completed`] `== false`.
    pub fn with_watchdog(mut self, steps: u64) -> Self {
        self.watchdog = Some(steps);
        self
    }

    /// Runs the fleet on OS threads over `mem`, one thread per process.
    ///
    /// All threads start behind a barrier so the contention window opens
    /// simultaneously. Returns once every thread has terminated, crashed
    /// (per plan) or exhausted the watchdog.
    ///
    /// The result is the simulator's [`Execution`]. Threads share no
    /// global step order, so some of its fields read differently from a
    /// simulated run:
    ///
    /// * `performed` is grouped by ascending pid, each pid's records in
    ///   program order;
    /// * a record's `step` is the performing thread's own 1-based action
    ///   index;
    /// * `crashed` lists the crash-injected pids in ascending order;
    /// * `total_steps` is the sum of `per_proc_steps`;
    /// * `restarted` and `trace` are empty.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is empty or pids are not `1..=m` in order, if the
    /// crash plan carries restart entries (real threads are crash-stop
    /// only — see the module docs), or if a worker thread panics.
    pub fn run<P>(&self, mem: &AtomicRegisters, procs: Vec<P>) -> Execution
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

        struct WorkerResult {
            performed: Vec<PerformRecord>,
            steps: u64,
            crashed: bool,
            timed_out: bool,
            local_work: u64,
        }

        let results: Vec<WorkerResult> = std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(m);
            for mut p in procs {
                let barrier = &barrier;
                handles.push(s.spawn(move || {
                    let pid = p.pid();
                    let budget = self.crash_plan.budget(pid);
                    let mut performed = Vec::new();
                    let mut steps: u64 = 0;
                    let mut crashed = false;
                    let mut timed_out = false;
                    barrier.wait();
                    loop {
                        if budget.is_some_and(|b| steps >= b) {
                            crashed = true;
                            break;
                        }
                        if self.watchdog.is_some_and(|w| steps >= w) {
                            timed_out = true;
                            break;
                        }
                        let event = p.step(mem);
                        steps += 1;
                        match event {
                            StepEvent::Perform { span } => performed.push(PerformRecord {
                                pid,
                                span,
                                step: steps,
                            }),
                            StepEvent::Terminated => break,
                            _ => {}
                        }
                    }
                    WorkerResult {
                        performed,
                        steps,
                        crashed,
                        timed_out,
                        local_work: p.local_work(),
                    }
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });

        // `results` is in pid order, so `performed` and `crashed` come out
        // grouped and sorted by pid.
        let mut exec = Execution {
            performed: Vec::new(),
            total_steps: 0,
            crashed: Vec::new(),
            restarted: Vec::new(),
            completed: true,
            mem_work: mem.work(),
            local_work: 0,
            per_proc_steps: Vec::with_capacity(m),
            trace: Vec::new(),
        };
        for (pid, r) in (1..).zip(results) {
            exec.performed.extend(r.performed);
            exec.total_steps += r.steps;
            if r.crashed {
                exec.crashed.push(pid);
            }
            exec.completed &= !r.timed_out;
            exec.local_work += r.local_work;
            exec.per_proc_steps.push(r.steps);
        }
        exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{PerformOnceProcess, WriterProcess};

    #[test]
    fn threads_complete() {
        let mem = AtomicRegisters::new(4);
        let procs: Vec<WriterProcess> = (1..=4).map(|p| WriterProcess::new(p, p - 1, 50)).collect();
        let exec = ThreadSpec::new().run(&mem, procs);
        assert!(exec.completed);
        assert!(exec.crashed.is_empty());
        assert_eq!(exec.per_proc_steps, vec![51; 4]);
        assert_eq!(exec.mem_work.writes, 200);
    }

    #[test]
    fn crash_plan_limits_steps() {
        let mem = AtomicRegisters::new(2);
        let procs = vec![WriterProcess::new(1, 0, 1_000), WriterProcess::new(2, 1, 5)];
        let spec = ThreadSpec::new().with_crash_plan(CrashPlan::at_steps([(1usize, 7u64)]));
        let exec = spec.run(&mem, procs);
        assert_eq!(exec.crashed, vec![1]);
        assert_eq!(exec.per_proc_steps[0], 7);
        assert!(exec.completed, "pid 2 still terminated normally");
    }

    #[test]
    fn watchdog_reports_incomplete() {
        let mem = AtomicRegisters::new(1);
        let procs = vec![WriterProcess::new(1, 0, 1_000)];
        let exec = ThreadSpec::new().with_watchdog(10).run(&mem, procs);
        assert!(!exec.completed);
    }

    #[test]
    fn performs_are_collected_across_threads() {
        let mem = AtomicRegisters::new(0);
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
        let mem = AtomicRegisters::new(0);
        let _ = ThreadSpec::new().run(&mem, vec![PerformOnceProcess::new(2, 1)]);
    }

    #[test]
    #[should_panic(expected = "crash-stop only")]
    fn restart_plans_are_rejected_loudly() {
        // Silently ignoring restart entries used to make a threaded run
        // with a durable-style plan report misleading results; now the
        // combination is a loud harness error.
        let mem = AtomicRegisters::new(0);
        let mut plan = CrashPlan::at_steps([(1usize, 3u64)]);
        plan.restart_after(1, 5);
        let _ = ThreadSpec::new()
            .with_crash_plan(plan)
            .run(&mem, vec![PerformOnceProcess::new(1, 1)]);
    }

    /// Performs jobs `1000·pid + 1 ..= 1000·pid + k`, one per action, then
    /// terminates.
    struct Performer {
        pid: usize,
        k: u64,
        done: u64,
        terminated: bool,
    }

    impl<R: Registers + ?Sized> Process<R> for Performer {
        fn step(&mut self, _mem: &R) -> StepEvent {
            if self.done == self.k {
                self.terminated = true;
                return StepEvent::Terminated;
            }
            self.done += 1;
            StepEvent::Perform {
                span: crate::JobSpan::single(1000 * self.pid as u64 + self.done),
            }
        }

        fn pid(&self) -> usize {
            self.pid
        }

        fn is_terminated(&self) -> bool {
            self.terminated
        }
    }

    #[test]
    fn execution_follows_the_threaded_contract() {
        let k = 6;
        let procs: Vec<Performer> = (1..=4)
            .map(|pid| Performer {
                pid,
                k,
                done: 0,
                terminated: false,
            })
            .collect();
        let plan = CrashPlan::at_steps([(3usize, 2u64), (1, 4)]);
        let exec = ThreadSpec::new()
            .with_crash_plan(plan)
            .run(&AtomicRegisters::new(0), procs);
        assert_eq!(exec.total_steps, exec.per_proc_steps.iter().sum::<u64>());
        assert!(exec.restarted.is_empty());
        assert!(exec.trace.is_empty());
        assert_eq!(exec.crashed, vec![1, 3], "the planned pids, ascending");
        assert_eq!(exec.per_proc_steps, vec![4, k + 1, 2, k + 1]);
        assert!(exec.completed);
        let pids: Vec<usize> = exec.performed.iter().map(|r| r.pid).collect();
        assert!(pids.windows(2).all(|w| w[0] <= w[1]), "grouped by pid");
        for r in &exec.performed {
            assert!(
                (1..=exec.per_proc_steps[r.pid - 1]).contains(&r.step),
                "{r:?} outside its thread's actions"
            );
            // Program order: a performer's i-th action performs its i-th job.
            assert_eq!(r.span, crate::JobSpan::single(1000 * r.pid as u64 + r.step));
        }
        assert_eq!(exec.performed.len(), 4 + 6 + 2 + 6);
    }
}
