use crate::registers::Registers;

/// An inclusive, non-empty range of job identifiers `lo..=hi`.
///
/// Plain jobs are spans with `lo == hi`; the iterated algorithms perform
/// *super-jobs* — groups of consecutive jobs — in one `do` action, reported
/// as a wider span.
///
/// # Examples
///
/// ```
/// use amo_sim::JobSpan;
///
/// let single = JobSpan::single(7);
/// assert_eq!(single.count(), 1);
/// let block = JobSpan::new(9, 16);
/// assert_eq!(block.count(), 8);
/// assert!(block.contains(12));
/// assert_eq!(block.jobs().collect::<Vec<_>>(), (9..=16).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobSpan {
    /// First job of the span (1-based job identifier).
    pub lo: u64,
    /// Last job of the span, inclusive.
    pub hi: u64,
}

impl JobSpan {
    /// Creates the span `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo == 0` or `lo > hi` (job identifiers are 1-based and
    /// spans are non-empty).
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo >= 1 && lo <= hi, "invalid job span {lo}..={hi}");
        Self { lo, hi }
    }

    /// The single-job span `job..=job`.
    pub fn single(job: u64) -> Self {
        Self::new(job, job)
    }

    /// Number of jobs in the span.
    pub fn count(&self) -> u64 {
        self.hi - self.lo + 1
    }

    /// Returns `true` if `job` lies within the span.
    pub fn contains(&self, job: u64) -> bool {
        (self.lo..=self.hi).contains(&job)
    }

    /// Iterates over the individual jobs of the span.
    pub fn jobs(&self) -> impl Iterator<Item = u64> {
        self.lo..=self.hi
    }
}

impl From<u64> for JobSpan {
    fn from(job: u64) -> Self {
        JobSpan::single(job)
    }
}

impl std::fmt::Display for JobSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.lo == self.hi {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "{}..={}", self.lo, self.hi)
        }
    }
}

/// What a single automaton action did.
///
/// Every [`Process::step`] call executes exactly one action of the automaton
/// and reports it through this event, which the engine uses for tracing,
/// work accounting and the `do` ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// A purely local action (no shared access).
    Local,
    /// The action read one shared cell.
    Read {
        /// Index of the cell read.
        cell: usize,
    },
    /// The action read one shared cell whose value was provably unchanged:
    /// no other process has written anything since the epoch-caching
    /// process's last clean sweep over these cells (the register file's
    /// [`global_epoch`], less the process's own writes, did not move). It
    /// is a read the batched fast path skips.
    ///
    /// The access is still a *model* read: it is counted in [`MemWork`]
    /// exactly like [`StepEvent::Read`], and the cell index attributes it in
    /// traces. On the engine's single-step (and therefore tracing) path the
    /// process performs the read anyway — the variant only marks the access
    /// as cache-satisfiable; the batched fast path is where the load is
    /// actually skipped.
    ///
    /// [`global_epoch`]: crate::Registers::global_epoch
    /// [`MemWork`]: crate::MemWork
    CachedRead {
        /// Index of the cell read (from cache).
        cell: usize,
    },
    /// The action wrote one shared cell.
    Write {
        /// Index of the cell written.
        cell: usize,
    },
    /// The action performed one read-modify-write on a shared cell
    /// (baselines only; the paper's algorithms never emit this).
    Rmw {
        /// Index of the cell.
        cell: usize,
    },
    /// The action was a `do`: the process performed these jobs.
    ///
    /// For the at-most-once algorithms a correct execution never performs
    /// any job in two `Perform` events (Definition 2.2).
    Perform {
        /// The jobs performed by this action.
        span: JobSpan,
    },
    /// The process reached its final state; it must not be stepped again.
    Terminated,
}

/// Result of a batched [`Process::step_many`] call.
///
/// The engine's macro-stepping fast path grants a process a contiguous
/// quantum of actions; this records what the batch did in exactly the terms
/// the engine would have observed had it single-stepped: how many actions
/// ran, which `do` actions happened at which offsets, and whether the last
/// action terminated the process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Actions executed by the batch (`1..=budget`).
    pub steps: u64,
    /// Each `do` action of the batch as `(offset, span)`, where `offset` is
    /// the 0-based position of the action within this batch.
    pub performed: Vec<(u64, JobSpan)>,
    /// `true` when the final action of the batch was
    /// [`StepEvent::Terminated`].
    pub terminated: bool,
}

/// A crash-stop I/O automaton executed one action per [`step`](Self::step).
///
/// Contract:
///
/// * each `step` performs **at most one** shared-memory access on `mem`
///   (the model's atomicity granularity, DESIGN.md D1);
/// * after returning [`StepEvent::Terminated`] the process must not be
///   stepped again (the engine guarantees it will not be);
/// * `step` must never block: wait-freedom means every action is enabled in
///   bounded local computation regardless of other processes.
///
/// The type parameter `R` is the register-file flavour; algorithm automatons
/// are written once and instantiated for both [`VecRegisters`] (simulation)
/// and [`AtomicRegisters`] (threads).
///
/// [`VecRegisters`]: crate::VecRegisters
/// [`AtomicRegisters`]: crate::AtomicRegisters
pub trait Process<R: Registers + ?Sized> {
    /// Executes one action of the automaton.
    fn step(&mut self, mem: &R) -> StepEvent;

    /// The process identifier, `1..=m` (the paper's `p ∈ P`).
    fn pid(&self) -> usize;

    /// Returns `true` once the process has terminated.
    fn is_terminated(&self) -> bool;

    /// Local basic operations (comparisons, set-structure iterations, …)
    /// executed so far — the non-shared-memory part of Definition 2.5.
    fn local_work(&self) -> u64 {
        0
    }

    /// Executes up to `budget` consecutive actions as one batched call (the
    /// macro-stepping fast path).
    ///
    /// Contract — batching must be **observationally invisible**:
    ///
    /// * the batch must behave exactly like `out.steps` successive
    ///   [`step`](Self::step) calls — same shared-memory accesses in the
    ///   same order, same `do` actions, same final state;
    /// * `1 ≤ out.steps ≤ budget`; a batch may stop early (the engine
    ///   re-invokes until the quantum is exhausted), and must stop
    ///   immediately after a [`StepEvent::Terminated`] action;
    /// * implementations may assume no other process acts during the batch
    ///   (the engine guarantees it).
    ///
    /// The default implementation executes a single `step`, which trivially
    /// satisfies the contract; override it (as `KkProcess` does) to run hot
    /// loops — e.g. `gatherTry`/`gatherDone` read sweeps — without
    /// per-action engine dispatch.
    ///
    /// # Panics
    ///
    /// May panic (like `step`) if invoked after termination or with a zero
    /// budget.
    fn step_many(&mut self, mem: &R, budget: u64) -> BatchOutcome {
        debug_assert!(budget >= 1, "step_many needs a positive budget");
        let mut out = BatchOutcome {
            steps: 1,
            performed: Vec::new(),
            terminated: false,
        };
        match self.step(mem) {
            StepEvent::Perform { span } => out.performed.push((0, span)),
            StepEvent::Terminated => out.terminated = true,
            _ => {}
        }
        out
    }

    /// Executes up to `budget` consecutive actions as one turn. No driver
    /// calls it: the default runs a single [`step`](Self::step) and no
    /// process in the workspace overrides it. It stays in the trait only
    /// because the `perfbench/` benchmark's traced process wrapper
    /// overrides it; removing it is left to a benchmark change.
    ///
    /// # Panics
    ///
    /// May panic (like `step`) if invoked after termination or with a zero
    /// budget.
    fn step_turn(&mut self, mem: &R, budget: u64) -> BatchOutcome {
        debug_assert!(budget >= 1, "step_turn needs a positive budget");
        let mut out = BatchOutcome {
            steps: 1,
            performed: Vec::new(),
            terminated: false,
        };
        match self.step(mem) {
            StepEvent::Perform { span } => out.performed.push((0, span)),
            StepEvent::Terminated => out.terminated = true,
            _ => {}
        }
        out
    }

    /// `true` at a point where [`step_turn`](Self::step_turn) ends a turn.
    /// No driver calls it, and the default answers `true` for every
    /// action; it stays in the trait for the same reason as `step_turn`.
    fn at_comm_boundary(&self) -> bool {
        true
    }

    /// `true` if this process supports the crash–restart lifecycle
    /// ([`on_restart`](Self::on_restart)). Default: `false` — a restart
    /// entry in a [`CrashPlan`](crate::CrashPlan) for a process that does
    /// not opt in is a harness bug.
    fn supports_restart(&self) -> bool {
        false
    }

    /// Re-enters a crashed process: rebuild volatile (local) state from
    /// scratch, recovering anything needed from shared memory `mem`, and
    /// become runnable again.
    ///
    /// Contract: the restart itself is **not** an action — it must perform
    /// no shared-memory accesses counted as model work (reads issued here
    /// are recovery-protocol reads outside the step ledger) and must leave
    /// the process ready for its next [`step`](Self::step). Cumulative
    /// counters (`local_work`, writes performed in the previous life)
    /// persist across the restart: the process is the same automaton
    /// resuming after a crash, not a new one.
    ///
    /// Default: panics — override together with
    /// [`supports_restart`](Self::supports_restart).
    fn on_restart(&mut self, mem: &R) {
        let _ = mem;
        panic!(
            "process {} does not support restart (override on_restart/supports_restart)",
            self.pid()
        );
    }
}

/// A boxed process is a process: every method a driver calls forwards to
/// the boxee.
///
/// This is the trait-object seam of the dyn-friendly process API.
/// [`Process`] is object-safe (no generic methods, no `Self: Sized`
/// bounds), so `Box<dyn Process<R>>` is a valid type — and with this impl
/// it *itself* satisfies `Process<R>`, which means every generic driver
/// (the [`Engine`], [`run_scenario_on`], the thread runtime) accepts
/// heterogeneous boxed fleets unchanged. Forwarding covers the provided
/// methods too: a boxed `KkProcess` keeps its batched
/// [`step_many`](Process::step_many) fast path and its restart support
/// rather than falling back to the defaults, which is what lets the
/// equivalence suites pin boxed runs bit-identical to unboxed ones.
///
/// [`Engine`]: crate::Engine
/// [`run_scenario_on`]: crate::run_scenario_on
impl<R: Registers + ?Sized, P: Process<R> + ?Sized> Process<R> for Box<P> {
    fn step(&mut self, mem: &R) -> StepEvent {
        (**self).step(mem)
    }

    fn pid(&self) -> usize {
        (**self).pid()
    }

    fn is_terminated(&self) -> bool {
        (**self).is_terminated()
    }

    fn local_work(&self) -> u64 {
        (**self).local_work()
    }

    fn step_many(&mut self, mem: &R, budget: u64) -> BatchOutcome {
        (**self).step_many(mem, budget)
    }

    fn supports_restart(&self) -> bool {
        (**self).supports_restart()
    }

    fn on_restart(&mut self, mem: &R) {
        (**self).on_restart(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_single() {
        let s = JobSpan::single(5);
        assert_eq!(s, JobSpan::new(5, 5));
        assert_eq!(s.count(), 1);
        assert!(s.contains(5));
        assert!(!s.contains(4));
        assert_eq!(s.to_string(), "5");
    }

    #[test]
    fn span_range() {
        let s = JobSpan::new(3, 10);
        assert_eq!(s.count(), 8);
        assert_eq!(s.jobs().count(), 8);
        assert_eq!(s.to_string(), "3..=10");
        assert_eq!(JobSpan::from(9u64), JobSpan::single(9));
    }

    #[test]
    #[should_panic(expected = "invalid job span")]
    fn zero_lo_panics() {
        JobSpan::new(0, 3);
    }

    #[test]
    #[should_panic(expected = "invalid job span")]
    fn inverted_span_panics() {
        JobSpan::new(5, 4);
    }

    #[test]
    fn span_ordering_is_by_lo_then_hi() {
        let mut spans = vec![JobSpan::new(5, 9), JobSpan::new(1, 2), JobSpan::new(5, 6)];
        spans.sort();
        assert_eq!(
            spans,
            vec![JobSpan::new(1, 2), JobSpan::new(5, 6), JobSpan::new(5, 9)]
        );
    }
}
