use crate::process::{JobSpan, Process, StepEvent};
use crate::registers::{MemWork, Registers};
use crate::sched::{Decision, SchedView, Scheduler};
use crate::verify::{at_most_once_violations, distinct_jobs, Violation};

/// Lifecycle of a process inside an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifeState {
    /// Still taking steps.
    Running,
    /// Reached its final state (`STATUS = end`).
    Terminated,
    /// Stopped by the adversary (`stop_p`).
    Crashed,
}

/// A process plus its lifecycle bookkeeping, visible to schedulers.
#[derive(Debug, Clone)]
pub struct Slot<P> {
    /// The automaton itself (schedulers are omniscient and may inspect it).
    pub process: P,
    /// Current lifecycle state.
    pub state: LifeState,
    /// Actions executed by this process so far.
    pub steps: u64,
}

/// One `do` action: which process performed which jobs at which step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerformRecord {
    /// Performing process (1-based pid).
    pub pid: usize,
    /// Jobs performed by the action.
    pub span: JobSpan,
    /// Global step index at which the action executed.
    pub step: u64,
}

/// One recorded action of a traced execution (see
/// [`Engine::with_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Global step index (1-based, matching [`PerformRecord::step`]).
    pub step: u64,
    /// Acting process (1-based pid), or `None` for a crash decision.
    pub pid: Option<usize>,
    /// What happened: `Some(event)` for a step, `None` for a crash.
    pub event: Option<StepEvent>,
}

/// Caps on an execution, to keep harnesses bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineLimits {
    /// Maximum total actions before the engine gives up.
    ///
    /// KKβ is wait-free (Lemma 4.3), so hitting this limit with a fair
    /// scheduler indicates a bug; the execution is returned with
    /// `completed == false` so tests can assert on it.
    pub max_steps: u64,
}

impl Default for EngineLimits {
    fn default() -> Self {
        Self {
            max_steps: 200_000_000,
        }
    }
}

impl EngineLimits {
    /// Limits with the given maximum step count.
    pub fn with_max_steps(max_steps: u64) -> Self {
        Self { max_steps }
    }
}

/// The record of one complete execution `α`.
///
/// Equality is field-for-field over every recorded observable (perform
/// records with their step indices, work accounting, per-process step
/// counts, trace) — what the equivalence suites assert between a
/// [`ScenarioSpec`](crate::ScenarioSpec) run and a hand-built engine
/// reference, between backends, and between the fast path and its
/// single-step reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution {
    /// Every `do` action, in execution order.
    pub performed: Vec<PerformRecord>,
    /// Total actions executed.
    pub total_steps: u64,
    /// Pids crashed by the adversary, in crash order.
    pub crashed: Vec<usize>,
    /// Pids restarted after a crash, in restart order (the crash–restart
    /// lifecycle of the durable-storage model; empty without restarts).
    pub restarted: Vec<usize>,
    /// `true` when every non-crashed process terminated within the limits.
    pub completed: bool,
    /// Shared-memory traffic of the whole execution.
    pub mem_work: MemWork,
    /// Local basic operations summed over all processes.
    pub local_work: u64,
    /// Actions executed per process (index `i` holds pid `i + 1`).
    pub per_proc_steps: Vec<u64>,
    /// Recorded actions, when tracing was enabled (capped; empty otherwise).
    pub trace: Vec<TraceEntry>,
}

impl Execution {
    /// `Do(α)`: the number of *distinct* jobs performed (Definition 2.1).
    pub fn effectiveness(&self) -> u64 {
        distinct_jobs(self.performed.iter().map(|r| r.span))
    }

    /// At-most-once violations: jobs performed more than once
    /// (empty iff the execution satisfies Definition 2.2).
    pub fn violations(&self) -> Vec<Violation> {
        at_most_once_violations(self.performed.iter().map(|r| r.span))
    }

    /// `(effectiveness, violations)` in one dense pass — what report
    /// builders should call instead of [`effectiveness`](Self::effectiveness)
    /// plus [`violations`](Self::violations), which each rebuild a hash
    /// ledger over the full perform history (see
    /// [`perform_summary`](crate::perform_summary)).
    pub fn summary(&self) -> (u64, Vec<Violation>) {
        crate::verify::perform_summary(self.performed.iter().map(|r| r.span))
    }

    /// Total work: shared accesses plus local basic operations
    /// (Definition 2.5).
    pub fn work(&self) -> u64 {
        self.mem_work.total() + self.local_work
    }

    /// Number of crashes.
    pub fn crash_count(&self) -> usize {
        self.crashed.len()
    }
}

/// Runs a fleet of automatons over a register file under a scheduler.
///
/// The engine is the executable form of the model of §2.1: an execution is
/// an alternating sequence of states and actions, where each action is taken
/// by the process the adversary picks.
///
/// # Examples
///
/// ```
/// use amo_sim::{Engine, EngineLimits, RoundRobin, VecRegisters};
/// use amo_sim::testing::PerformOnceProcess;
///
/// let mem = VecRegisters::new(0);
/// let procs = vec![PerformOnceProcess::new(1, 42)];
/// let exec = Engine::new(mem, procs, RoundRobin::new()).run(EngineLimits::default());
/// assert_eq!(exec.effectiveness(), 1);
/// assert!(exec.violations().is_empty());
/// ```
#[derive(Debug)]
pub struct Engine<R, P, S> {
    mem: R,
    slots: Vec<Slot<P>>,
    /// Indices of the [`Running`](LifeState::Running) slots, ascending —
    /// handed to schedulers as [`SchedView::live`].
    live: Vec<usize>,
    scheduler: S,
    max_crashes: usize,
    trace_cap: usize,
    force_single_step: bool,
}

impl<R, P, S> Engine<R, P, S>
where
    R: Registers,
    P: Process<R>,
    S: Scheduler<P>,
{
    /// Creates an engine over `mem` for the given processes and scheduler.
    ///
    /// The default crash budget is `m − 1` (the model's `f < m`).
    ///
    /// # Panics
    ///
    /// Panics if `processes` is empty or pids are not exactly `1..=m` in
    /// order.
    pub fn new(mem: R, processes: Vec<P>, scheduler: S) -> Self {
        assert!(!processes.is_empty(), "need at least one process");
        for (i, p) in processes.iter().enumerate() {
            assert_eq!(p.pid(), i + 1, "processes must be ordered by pid 1..=m");
        }
        let max_crashes = processes.len() - 1;
        let live = (0..processes.len()).collect();
        let slots = processes
            .into_iter()
            .map(|p| Slot {
                process: p,
                state: LifeState::Running,
                steps: 0,
            })
            .collect();
        Self {
            mem,
            slots,
            live,
            scheduler,
            max_crashes,
            trace_cap: 0,
            force_single_step: false,
        }
    }

    /// Disables the macro-stepping fast path: scheduler quanta are still
    /// granted, but executed through individual [`Process::step`] calls with
    /// full per-action bookkeeping.
    ///
    /// This is the *reference* semantics the fast path must reproduce — the
    /// equivalence property tests run every workload through both modes and
    /// require identical [`Execution`]s. It is also occasionally useful for
    /// debugging a batched run.
    pub fn single_step(mut self) -> Self {
        self.force_single_step = true;
        self
    }

    /// Enables action tracing, recording up to `cap` entries (the first
    /// `cap` actions of the execution).
    pub fn with_trace(mut self, cap: usize) -> Self {
        self.trace_cap = cap;
        self
    }

    /// Sets the crash budget `f` (clamped to `m − 1`).
    pub fn with_max_crashes(mut self, f: usize) -> Self {
        self.max_crashes = f.min(self.slots.len() - 1);
        self
    }

    /// Read access to the register file (e.g. to inspect final memory).
    pub fn mem(&self) -> &R {
        &self.mem
    }

    /// Runs to quiescence (every process terminated or crashed) or until the
    /// step limit, returning the recorded [`Execution`].
    ///
    /// # Panics
    ///
    /// Panics if the scheduler returns an invalid decision (stepping a
    /// non-running slot, crashing beyond the budget) — that is a harness
    /// bug, not an algorithm failure.
    pub fn run(self, limits: EngineLimits) -> Execution {
        self.run_into(limits).0
    }

    /// Like [`run`](Self::run), but also returns the final process slots so
    /// callers can inspect terminal automaton state (IterStep outputs,
    /// collision instrumentation, …).
    pub fn run_into(self, limits: EngineLimits) -> (Execution, Vec<Slot<P>>) {
        let (exec, slots, _mem) = self.run_full(limits);
        (exec, slots)
    }

    /// Like [`run_into`](Self::run_into), but additionally hands back the
    /// register file, so callers can certify final memory contents (e.g.
    /// the Write-All array).
    pub fn run_full(mut self, limits: EngineLimits) -> (Execution, Vec<Slot<P>>, R) {
        let mut performed = Vec::new();
        let mut crashed = Vec::new();
        let mut restarted = Vec::new();
        let mut total_steps: u64 = 0;
        let mut completed = true;
        let mut trace: Vec<TraceEntry> = Vec::new();
        // Tracing needs one entry per action, so it forces single-step
        // granularity; the hot (trace-disabled) path skips trace bookkeeping
        // entirely.
        let tracing = self.trace_cap > 0;

        loop {
            let view = SchedView {
                slots: &self.slots,
                live: &self.live,
                total_steps,
                crashes: crashed.len(),
                max_crashes: self.max_crashes,
            };
            // The run stays alive with zero running processes only while the
            // scheduler still intends to restart a crashed one.
            if self.live.is_empty() && !self.scheduler.pending_restart(&view) {
                break;
            }
            if total_steps >= limits.max_steps {
                completed = false;
                break;
            }
            let decision = self.scheduler.decide(&view);
            match decision {
                Decision::Step(i) => {
                    // The quantum the scheduler grants this decision,
                    // clamped so the step cap cannot be overshot.
                    let budget = if tracing {
                        1
                    } else {
                        self.scheduler
                            .quantum(&view, i)
                            .max(1)
                            .min(limits.max_steps - total_steps)
                    };
                    let slot = &mut self.slots[i];
                    assert_eq!(
                        slot.state,
                        LifeState::Running,
                        "scheduler stepped non-running pid {}",
                        i + 1
                    );
                    // Durable backends attribute the journal records of the
                    // coming actions to this process's write-behind buffer.
                    self.mem.note_actor(i + 1);
                    if budget == 1 || self.force_single_step {
                        // Reference path: per-action dispatch. Also used by
                        // every scheduler that keeps the default quantum of
                        // 1 (all adversarial schedulers), and when tracing.
                        let mut consumed = 0;
                        let mut terminated = false;
                        while consumed < budget && !terminated {
                            let event = slot.process.step(&self.mem);
                            consumed += 1;
                            if tracing && trace.len() < self.trace_cap {
                                trace.push(TraceEntry {
                                    step: total_steps + consumed,
                                    pid: Some(i + 1),
                                    event: Some(event),
                                });
                            }
                            match event {
                                StepEvent::Perform { span } => {
                                    performed.push(PerformRecord {
                                        pid: i + 1,
                                        span,
                                        step: total_steps + consumed,
                                    });
                                    // A `do` is the commit point: everything
                                    // this process wrote before performing
                                    // must be on stable storage.
                                    self.mem.perform_barrier();
                                }
                                StepEvent::Terminated => terminated = true,
                                StepEvent::Local
                                | StepEvent::Read { .. }
                                | StepEvent::CachedRead { .. }
                                | StepEvent::Write { .. }
                                | StepEvent::Rmw { .. } => {}
                            }
                        }
                        slot.steps += consumed;
                        total_steps += consumed;
                        if terminated {
                            slot.state = LifeState::Terminated;
                            leave(&mut self.live, i);
                            // Clean shutdown flushes the write-behind buffer.
                            self.mem.perform_barrier();
                        }
                        self.scheduler.note_consumed(i, consumed);
                    } else {
                        // Macro-stepping fast path: hand the whole quantum
                        // to the process as batched calls.
                        let mut consumed = 0;
                        let mut terminated = false;
                        while consumed < budget && !terminated {
                            let out = slot.process.step_many(&self.mem, budget - consumed);
                            debug_assert!(
                                out.steps >= 1 && consumed + out.steps <= budget,
                                "step_many overran its budget"
                            );
                            for &(offset, span) in &out.performed {
                                performed.push(PerformRecord {
                                    pid: i + 1,
                                    span,
                                    step: total_steps + consumed + offset + 1,
                                });
                            }
                            if !out.performed.is_empty() {
                                // Batched flush granularity: one barrier per
                                // perform-carrying batch. Fault-free this is
                                // indistinguishable from the per-perform
                                // barrier of the single-step path.
                                self.mem.perform_barrier();
                            }
                            consumed += out.steps;
                            terminated = out.terminated;
                        }
                        slot.steps += consumed;
                        total_steps += consumed;
                        if terminated {
                            slot.state = LifeState::Terminated;
                            leave(&mut self.live, i);
                            // Clean shutdown flushes the write-behind buffer.
                            self.mem.perform_barrier();
                        }
                        self.scheduler.note_consumed(i, consumed);
                    }
                }
                Decision::Crash(i) => {
                    assert!(
                        crashed.len() < self.max_crashes,
                        "scheduler exceeded crash budget f = {}",
                        self.max_crashes
                    );
                    let slot = &mut self.slots[i];
                    assert_eq!(
                        slot.state,
                        LifeState::Running,
                        "scheduler crashed non-running pid {}",
                        i + 1
                    );
                    slot.state = LifeState::Crashed;
                    leave(&mut self.live, i);
                    crashed.push(i + 1);
                    // Durable backends lose (part of) the crasher's
                    // unflushed write-behind suffix and recover the file
                    // from the journal; volatile backends ignore this.
                    self.mem.crash_blackout(i + 1);
                    if tracing && trace.len() < self.trace_cap {
                        trace.push(TraceEntry {
                            step: total_steps,
                            pid: Some(i + 1),
                            event: None,
                        });
                    }
                }
                Decision::Restart(i) => {
                    let slot = &mut self.slots[i];
                    assert_eq!(
                        slot.state,
                        LifeState::Crashed,
                        "scheduler restarted non-crashed pid {}",
                        i + 1
                    );
                    // A restart is not an action: no step counters advance
                    // and no trace entry is recorded. The process rebuilds
                    // its volatile state from shared memory.
                    slot.process.on_restart(&self.mem);
                    slot.state = LifeState::Running;
                    let at = self.live.partition_point(|&j| j < i);
                    self.live.insert(at, i);
                    restarted.push(i + 1);
                }
            }
        }

        let execution = Execution {
            performed,
            total_steps,
            crashed,
            restarted,
            completed,
            mem_work: self.mem.work(),
            local_work: self.slots.iter().map(|s| s.process.local_work()).sum(),
            per_proc_steps: self.slots.iter().map(|s| s.steps).collect(),
            trace,
        };
        (execution, self.slots, self.mem)
    }
}

/// Removes slot `i` from the ascending live list (it terminated or crashed).
fn leave(live: &mut Vec<usize>, i: usize) {
    let at = live.binary_search(&i).expect("a running slot is live");
    live.remove(at);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registers::VecRegisters;
    use crate::sched::RoundRobin;
    use crate::testing::{PerformOnceProcess, WriterProcess};

    #[test]
    fn writers_complete_and_account_steps() {
        let mem = VecRegisters::new(2);
        let procs = vec![WriterProcess::new(1, 0, 4), WriterProcess::new(2, 1, 2)];
        let exec = Engine::new(mem, procs, RoundRobin::new()).run(EngineLimits::default());
        assert!(exec.completed);
        assert_eq!(
            exec.per_proc_steps,
            vec![5, 3],
            "k writes + 1 terminating step"
        );
        assert_eq!(exec.total_steps, 8);
        assert_eq!(exec.mem_work.writes, 6);
        assert_eq!(exec.crash_count(), 0);
    }

    #[test]
    fn perform_records_carry_pid_and_step() {
        let mem = VecRegisters::new(0);
        let procs = vec![
            PerformOnceProcess::new(1, 9),
            PerformOnceProcess::new(2, 10),
        ];
        let exec = Engine::new(mem, procs, RoundRobin::new()).run(EngineLimits::default());
        assert_eq!(exec.performed.len(), 2);
        assert_eq!(exec.performed[0].pid, 1);
        assert_eq!(exec.performed[0].span, JobSpan::single(9));
        assert_eq!(exec.performed[1].pid, 2);
        assert_eq!(exec.effectiveness(), 2);
        assert!(exec.violations().is_empty());
    }

    #[test]
    fn duplicate_performs_are_flagged() {
        let mem = VecRegisters::new(0);
        let procs = vec![PerformOnceProcess::new(1, 5), PerformOnceProcess::new(2, 5)];
        let exec = Engine::new(mem, procs, RoundRobin::new()).run(EngineLimits::default());
        let v = exec.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].job, 5);
        assert_eq!(v[0].count, 2);
        assert_eq!(exec.effectiveness(), 1, "distinct jobs only");
    }

    #[test]
    fn step_limit_reports_incomplete() {
        let mem = VecRegisters::new(1);
        let procs = vec![WriterProcess::new(1, 0, 1_000)];
        let exec = Engine::new(mem, procs, RoundRobin::new()).run(EngineLimits::with_max_steps(10));
        assert!(!exec.completed);
        assert_eq!(exec.total_steps, 10);
    }

    #[test]
    #[should_panic(expected = "ordered by pid")]
    fn misordered_pids_rejected() {
        let mem = VecRegisters::new(1);
        let procs = vec![WriterProcess::new(2, 0, 1)];
        let _ = Engine::new(mem, procs, RoundRobin::new());
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_fleet_rejected() {
        let mem = VecRegisters::new(0);
        let _ = Engine::new(mem, Vec::<WriterProcess>::new(), RoundRobin::new());
    }

    #[test]
    #[should_panic(expected = "crash budget")]
    fn crash_budget_enforced() {
        let mem = VecRegisters::new(2);
        let procs = vec![WriterProcess::new(1, 0, 1), WriterProcess::new(2, 1, 1)];
        // f defaults to m - 1 = 1; crashing both must panic.
        let mut toggle = 0usize;
        let sched = move |_: &SchedView<'_, WriterProcess>| {
            let d = Decision::Crash(toggle);
            toggle += 1;
            d
        };
        let _ = Engine::new(mem, procs, sched).run(EngineLimits::default());
    }

    #[test]
    fn crashed_process_stops_stepping() {
        let mem = VecRegisters::new(2);
        let procs = vec![WriterProcess::new(1, 0, 100), WriterProcess::new(2, 1, 1)];
        let mut first = true;
        let sched = move |view: &SchedView<'_, WriterProcess>| {
            if first {
                first = false;
                Decision::Crash(0)
            } else {
                Decision::Step(view.running().next().expect("pid 2 still runs"))
            }
        };
        let exec = Engine::new(mem, procs, sched).run(EngineLimits::default());
        assert_eq!(exec.crashed, vec![1]);
        assert_eq!(exec.per_proc_steps[0], 0);
        assert!(exec.completed, "surviving process terminates");
    }

    #[test]
    fn trace_disabled_by_default() {
        let mem = VecRegisters::new(1);
        let exec = Engine::new(mem, vec![WriterProcess::new(1, 0, 3)], RoundRobin::new())
            .run(EngineLimits::default());
        assert!(exec.trace.is_empty());
    }

    #[test]
    fn trace_records_steps_in_order() {
        let mem = VecRegisters::new(1);
        let exec = Engine::new(mem, vec![WriterProcess::new(1, 0, 2)], RoundRobin::new())
            .with_trace(100)
            .run(EngineLimits::default());
        assert_eq!(exec.trace.len(), 3, "2 writes + 1 terminate");
        assert_eq!(exec.trace[0].step, 1);
        assert_eq!(exec.trace[0].pid, Some(1));
        assert!(matches!(
            exec.trace[0].event,
            Some(StepEvent::Write { cell: 0 })
        ));
        assert!(matches!(exec.trace[2].event, Some(StepEvent::Terminated)));
    }

    #[test]
    fn trace_is_capped() {
        let mem = VecRegisters::new(1);
        let exec = Engine::new(mem, vec![WriterProcess::new(1, 0, 50)], RoundRobin::new())
            .with_trace(5)
            .run(EngineLimits::default());
        assert_eq!(exec.trace.len(), 5);
        assert_eq!(exec.total_steps, 51, "execution continues past the cap");
    }

    #[test]
    fn trace_marks_crashes() {
        let mem = VecRegisters::new(2);
        let procs = vec![WriterProcess::new(1, 0, 5), WriterProcess::new(2, 1, 1)];
        let mut first = true;
        let sched = move |view: &SchedView<'_, WriterProcess>| {
            if first {
                first = false;
                Decision::Crash(0)
            } else {
                Decision::Step(view.running().next().expect("pid 2 runs"))
            }
        };
        let exec = Engine::new(mem, procs, sched)
            .with_trace(100)
            .run(EngineLimits::default());
        let crash_entry = exec
            .trace
            .iter()
            .find(|e| e.event.is_none())
            .expect("crash traced");
        assert_eq!(crash_entry.pid, Some(1));
    }

    #[test]
    fn work_combines_mem_and_local() {
        let mem = VecRegisters::new(1);
        let procs = vec![WriterProcess::new(1, 0, 3)];
        let exec = Engine::new(mem, procs, RoundRobin::new()).run(EngineLimits::default());
        assert_eq!(exec.mem_work.writes, 3);
        assert_eq!(exec.work(), exec.mem_work.total() + exec.local_work);
    }
}
