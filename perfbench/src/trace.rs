//! The traced run's wrappers: one per layer boundary, each forwarding
//! every call to the wrapped layer unchanged while counting it and timing
//! a sample of its calls.
//!
//! * [`TracedSched`] wraps a [`Scheduler`] (the `amo_sim::sched` layer,
//!   crash injection included);
//! * [`TracedProc`] wraps a [`Process`] and its [`ScenarioHooks`] (the
//!   automaton layer: `amo_core::kk`, `amo_iterative`, `amo_write_all`);
//! * [`TracedSet`] wraps an [`OrderedJobSet`]/[`RankedSet`] (the
//!   `amo_ostree` sets and kernels);
//! * [`TracedRegs`] wraps a [`Registers`] file (`amo_sim::registers`, and
//!   `amo_sim::durable` when the file is journaled);
//! * [`TracedBlueprint`] wraps a service [`FleetBlueprint`] and the
//!   automatons it builds (`amo_serve::service` workers).
//!
//! # Spans and self time
//!
//! Simulations are single-threaded, so their wrappers record into one
//! thread-local accumulator per layer: a call count, and the durations of
//! a random sample of calls (about one in [`PERIOD_OUTER`] scheduler and
//! automaton calls, one in [`PERIOD_INNER`] set and register calls, which
//! run into the hundreds of millions). Half the sampled calls are timed;
//! for the other half an empty pair of clock reads is timed next to the
//! call, which measures the clock's own cost in the same place. A layer's
//! time is (mean timed − mean empty) × calls. Register calls made inside
//! an automaton call are children of that call; those the engine makes
//! itself (flush barriers, blackouts, actor notes) are children of the
//! engine. Self time is a layer's time minus its children's time and
//! minus what instrumenting the children cost it ([`calibrate`]); the
//! engine's self time is what remains of the run's wall time. The
//! accumulators stay in memory and are read once, when the run ends.
//!
//! Wrappers never change what the wrapped layer does: the traced run's
//! [`Execution`](amo_sim::Execution) is checked `==` to the untraced one.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use amo_core::{KkPhase, KkProcess};
use amo_ostree::{OrderedJobSet, RankedSet, SelectHint};
use amo_serve::FleetBlueprint;
use amo_sim::scenario::{boxed, BoxProcess};
use amo_sim::{
    BatchOutcome, Decision, MemWork, Process, Registers, ScenarioHooks, SchedView, Scheduler,
    StepEvent,
};
use amo_write_all::WaIterativeProcess;

/// Mean sampling period of scheduler and automaton calls.
pub const PERIOD_OUTER: u32 = 8;
/// Mean sampling period of set and register calls.
pub const PERIOD_INNER: u32 = 64;

/// One layer's accumulator.
struct Acc {
    calls: Cell<u64>,
    /// Sampled calls whose duration was measured.
    timed: Cell<u64>,
    timed_ns: Cell<f64>,
    /// Sampled calls for which an empty clock-read pair was measured
    /// instead: the control that calibrates the clock's cost in place.
    nulls: Cell<u64>,
    null_ns: Cell<f64>,
    /// Calls left until the next sampled one.
    countdown: Cell<u32>,
}

impl Acc {
    const fn new() -> Self {
        Self {
            calls: Cell::new(0),
            timed: Cell::new(0),
            timed_ns: Cell::new(0.0),
            nulls: Cell::new(0),
            null_ns: Cell::new(0.0),
            countdown: Cell::new(1),
        }
    }

    fn reset(&self) {
        for c in [&self.calls, &self.timed, &self.nulls] {
            c.set(0);
        }
        self.timed_ns.set(0.0);
        self.null_ns.set(0.0);
    }

    fn snapshot(&self) -> LayerTime {
        LayerTime {
            calls: self.calls.get(),
            timed: self.timed.get(),
            timed_ns: self.timed_ns.get(),
            nulls: self.nulls.get(),
            null_ns: self.null_ns.get(),
        }
    }
}

/// The thread-local trace of a simulation.
struct Tracer {
    sched: Acc,
    proc: Acc,
    set: Acc,
    reg_in_proc: Acc,
    reg_in_engine: Acc,
    /// Used only by [`calibrate`].
    calib: Acc,
    in_proc: Cell<bool>,
    rng: Cell<u64>,
    decisions: Cell<u64>,
    actions: Cell<u64>,
    kk_calls: [Cell<u64>; 5],
    set_calls: [Cell<u64>; 14],
    set_ops: Cell<u64>,
    reads: Cell<u64>,
    peeks: Cell<u64>,
    writes: Cell<u64>,
}

thread_local! {
    static TRACER: Tracer = const {
        Tracer {
            sched: Acc::new(),
            proc: Acc::new(),
            set: Acc::new(),
            reg_in_proc: Acc::new(),
            reg_in_engine: Acc::new(),
            calib: Acc::new(),
            in_proc: Cell::new(false),
            rng: Cell::new(0x9E37_79B9_7F4A_7C15),
            decisions: Cell::new(0),
            actions: Cell::new(0),
            kk_calls: [Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0)],
            set_calls: [Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0)],
            set_ops: Cell::new(0),
            reads: Cell::new(0),
            peeks: Cell::new(0),
            writes: Cell::new(0),
        }
    };
}

/// Draws from the tracer's xorshift generator.
fn next_random(rng: &Cell<u64>) -> u64 {
    let mut x = rng.get();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rng.set(x);
    x
}

/// A random sampling gap with mean `period` (uniform on `1..2·period`),
/// so the sample cannot lock onto a periodic call pattern such as one
/// gather sweep.
fn next_gap(x: u64, period: u32) -> u32 {
    1 + (x % (2 * u64::from(period) - 1)) as u32
}

/// How a call is instrumented.
enum Sample {
    /// Counted only.
    No,
    /// Counted and timed.
    Timed(Instant),
    /// Counted; an empty clock-read pair is timed next to it.
    Null,
}

/// Counts one call on the accumulator `pick` selects, and on sampled
/// calls times either the call or, half the time, an empty pair of clock
/// reads next to it.
#[inline]
fn span<T>(pick: impl Fn(&Tracer) -> &Acc, period: u32, f: impl FnOnce() -> T) -> T {
    let sample = TRACER.with(|t| {
        let acc = pick(t);
        acc.calls.set(acc.calls.get() + 1);
        let left = acc.countdown.get();
        if left > 1 {
            acc.countdown.set(left - 1);
            return Sample::No;
        }
        let x = next_random(&t.rng);
        acc.countdown.set(next_gap(x >> 1, period));
        if x & 1 == 0 {
            Sample::Timed(Instant::now())
        } else {
            Sample::Null
        }
    });
    match sample {
        Sample::No => f(),
        Sample::Timed(start) => {
            let out = f();
            let ns = start.elapsed().as_nanos() as f64;
            TRACER.with(|t| {
                let acc = pick(t);
                bump(&acc.timed, 1);
                acc.timed_ns.set(acc.timed_ns.get() + ns);
            });
            out
        }
        Sample::Null => {
            let ns = Instant::now().elapsed().as_nanos() as f64;
            TRACER.with(|t| {
                let acc = pick(t);
                bump(&acc.nulls, 1);
                acc.null_ns.set(acc.null_ns.get() + ns);
            });
            f()
        }
    }
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

/// Clears the thread-local trace; call right before the traced engine run.
pub fn reset() {
    TRACER.with(|t| {
        for acc in [&t.sched, &t.proc, &t.set, &t.reg_in_proc, &t.reg_in_engine] {
            acc.reset();
        }
        t.in_proc.set(false);
        for c in t.kk_calls.iter().chain(&t.set_calls).chain([
            &t.decisions,
            &t.actions,
            &t.set_ops,
            &t.reads,
            &t.peeks,
            &t.writes,
        ]) {
            c.set(0);
        }
    });
}

/// Calls and sampled time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Calls into the layer.
    pub calls: u64,
    /// Sampled calls that were timed.
    pub timed: u64,
    /// Summed duration of the timed calls, in ns.
    pub timed_ns: f64,
    /// Sampled calls next to which an empty clock-read pair was timed.
    pub nulls: u64,
    /// Summed duration of those empty pairs, in ns.
    pub null_ns: f64,
}

impl LayerTime {
    /// Estimated time of every call, in ns: the mean timed duration less
    /// the mean empty one (the clock's own cost, measured in place), times
    /// the calls.
    pub fn estimate_ns(&self) -> f64 {
        if self.timed == 0 || self.nulls == 0 {
            return 0.0;
        }
        let per_call = self.timed_ns / self.timed as f64 - self.null_ns / self.nulls as f64;
        per_call.max(0.0) * self.calls as f64
    }

    /// What the instrumentation of these calls cost their caller, in ns.
    pub fn cost_ns(&self, cal: &Calibration) -> f64 {
        let sampled = self.timed + self.nulls;
        (self.calls - sampled) as f64 * cal.counted_ns + sampled as f64 * cal.sampled_ns
    }
}

/// The instrumentation's own cost per call, as the caller sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// A call that is only counted.
    pub counted_ns: f64,
    /// A sampled call (timed, or with an empty pair timed next to it).
    pub sampled_ns: f64,
}

/// Measures [`Calibration`] on empty calls: the median over rounds of the
/// per-call cost of a loop of counted calls and of a loop of sampled ones.
pub fn calibrate() -> Calibration {
    const CALLS: u32 = 20_000;
    let round = |period: u32| {
        TRACER.with(|t| t.calib.countdown.set(1));
        let t = Instant::now();
        for i in 0..CALLS {
            span(|t| &t.calib, period, || std::hint::black_box(i));
        }
        t.elapsed().as_nanos() as f64 / f64::from(CALLS)
    };
    let mut counted: Vec<f64> = (0..15).map(|_| round(u32::MAX / 4)).collect();
    let mut sampled: Vec<f64> = (0..15).map(|_| round(1)).collect();
    Calibration {
        counted_ns: crate::stats::median(&mut counted),
        sampled_ns: crate::stats::median(&mut sampled),
    }
}

/// Everything one traced simulation recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Scheduler calls (decide, quantum, feedback, restart probes).
    pub sched: LayerTime,
    /// Automaton calls (step, step_many, step_turn, on_restart).
    pub proc: LayerTime,
    /// Set calls, all of which happen inside automaton calls.
    pub set: LayerTime,
    /// Register calls made inside automaton calls.
    pub reg_in_proc: LayerTime,
    /// Register calls the engine makes itself.
    pub reg_in_engine: LayerTime,
    /// Scheduler decisions.
    pub decisions: u64,
    /// Actions executed by the automatons.
    pub actions: u64,
    /// Automaton calls by KKβ phase at call entry: announce, gatherTry,
    /// gatherDone, compNext, do (check and performance).
    pub kk_calls: [u64; 5],
    /// Set calls per method, in [`crate::report::SET_OPS`] order.
    pub set_calls: [u64; 14],
    /// Set work (`OrderedJobSet::ops`) charged during the run.
    pub set_ops: u64,
    /// Register `read` calls.
    pub reads: u64,
    /// Register `peek` calls.
    pub peeks: u64,
    /// Register `write` and `swap` calls.
    pub writes: u64,
}

/// Reads the thread-local trace; call right after the traced engine run.
pub fn take() -> Trace {
    TRACER.with(|t| {
        let mut kk_calls = [0; 5];
        for (v, c) in kk_calls.iter_mut().zip(&t.kk_calls) {
            *v = c.get();
        }
        let mut set_calls = [0; 14];
        for (v, c) in set_calls.iter_mut().zip(&t.set_calls) {
            *v = c.get();
        }
        Trace {
            sched: t.sched.snapshot(),
            proc: t.proc.snapshot(),
            set: t.set.snapshot(),
            reg_in_proc: t.reg_in_proc.snapshot(),
            reg_in_engine: t.reg_in_engine.snapshot(),
            decisions: t.decisions.get(),
            actions: t.actions.get(),
            kk_calls,
            set_calls,
            set_ops: t.set_ops.get(),
            reads: t.reads.get(),
            peeks: t.peeks.get(),
            writes: t.writes.get(),
        }
    })
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

/// A [`Scheduler`] that counts and samples every call into `S`.
#[derive(Debug, Clone)]
pub struct TracedSched<S>(pub S);

impl<P, S: Scheduler<P>> Scheduler<P> for TracedSched<S> {
    fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
        TRACER.with(|t| bump(&t.decisions, 1));
        span(|t| &t.sched, PERIOD_OUTER, || self.0.decide(view))
    }

    fn quantum(&self, view: &SchedView<'_, P>, chosen: usize) -> u64 {
        span(|t| &t.sched, PERIOD_OUTER, || self.0.quantum(view, chosen))
    }

    fn note_consumed(&mut self, chosen: usize, steps: u64) {
        span(
            |t| &t.sched,
            PERIOD_OUTER,
            || self.0.note_consumed(chosen, steps),
        )
    }

    fn pending_restart(&self, view: &SchedView<'_, P>) -> bool {
        span(|t| &t.sched, PERIOD_OUTER, || self.0.pending_restart(view))
    }
}

// ---------------------------------------------------------------------
// Automaton
// ---------------------------------------------------------------------

/// The KKβ phase an automaton stands in, where it has one.
pub trait PhaseProbe {
    /// The phase of the KKβ instance the automaton is currently running.
    fn kk_phase(&self) -> Option<KkPhase>;
}

impl<S: OrderedJobSet> PhaseProbe for KkProcess<S> {
    fn kk_phase(&self) -> Option<KkPhase> {
        Some(self.phase())
    }
}

impl PhaseProbe for WaIterativeProcess {
    fn kk_phase(&self) -> Option<KkPhase> {
        Some(self.inner().inner().phase())
    }
}

/// Index into [`Trace::kk_calls`] for a phase: the paper's announce,
/// gatherTry, gatherDone and compNext, with check, flag and do together.
fn phase_slot(phase: KkPhase) -> usize {
    match phase {
        KkPhase::SetNext => 0,
        KkPhase::GatherTry | KkPhase::FinalGatherTry => 1,
        KkPhase::GatherDone | KkPhase::FinalGatherDone => 2,
        KkPhase::CompNext | KkPhase::Output => 3,
        _ => 4,
    }
}

/// A [`Process`] that counts, phase-tags and samples every call into `P`.
#[derive(Debug, Clone)]
pub struct TracedProc<P>(pub P);

impl<P: PhaseProbe> TracedProc<P> {
    fn call<T>(&mut self, f: impl FnOnce(&mut P) -> T, actions: impl Fn(&T) -> u64) -> T {
        let phase = self.0.kk_phase();
        let inner = &mut self.0;
        let out = span(
            |t| &t.proc,
            PERIOD_OUTER,
            || {
                let outer = TRACER.with(|t| t.in_proc.replace(true));
                let out = f(inner);
                TRACER.with(|t| t.in_proc.set(outer));
                out
            },
        );
        let n = actions(&out);
        TRACER.with(|t| {
            bump(&t.actions, n);
            if let Some(phase) = phase {
                bump(&t.kk_calls[phase_slot(phase)], 1);
            }
        });
        out
    }
}

impl<R, P> Process<R> for TracedProc<P>
where
    R: Registers + ?Sized,
    P: Process<R> + PhaseProbe,
{
    fn step(&mut self, mem: &R) -> StepEvent {
        self.call(|p| p.step(mem), |_| 1)
    }

    fn pid(&self) -> usize {
        self.0.pid()
    }

    fn is_terminated(&self) -> bool {
        self.0.is_terminated()
    }

    fn local_work(&self) -> u64 {
        self.0.local_work()
    }

    fn step_many(&mut self, mem: &R, budget: u64) -> BatchOutcome {
        self.call(|p| p.step_many(mem, budget), |o| o.steps)
    }

    fn step_turn(&mut self, mem: &R, budget: u64) -> BatchOutcome {
        self.call(|p| p.step_turn(mem, budget), |o| o.steps)
    }

    fn at_comm_boundary(&self) -> bool {
        self.0.at_comm_boundary()
    }

    fn supports_restart(&self) -> bool {
        self.0.supports_restart()
    }

    fn on_restart(&mut self, mem: &R) {
        self.call(|p| p.on_restart(mem), |_| 0)
    }
}

impl<P: ScenarioHooks> ScenarioHooks for TracedProc<P> {
    fn set_epoch_cache(&mut self, enabled: bool) {
        self.0.set_epoch_cache(enabled)
    }

    fn set_collision_tracking(&mut self, enabled: bool) {
        self.0.set_collision_tracking(enabled)
    }
}

// ---------------------------------------------------------------------
// Sets
// ---------------------------------------------------------------------

/// An [`OrderedJobSet`] that counts every method call by name, samples
/// their time and tallies the work (`ops`) they charge.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TracedSet<S>(S);

impl<S: OrderedJobSet> TracedSet<S> {
    fn call<T>(&self, op: usize, f: impl FnOnce(&S) -> T) -> T {
        let before = self.0.ops();
        let out = span(|t| &t.set, PERIOD_INNER, || f(&self.0));
        let charged = self.0.ops() - before;
        TRACER.with(|t| {
            bump(&t.set_calls[op], 1);
            bump(&t.set_ops, charged);
        });
        out
    }

    fn call_mut<T>(&mut self, op: usize, f: impl FnOnce(&mut S) -> T) -> T {
        let before = self.0.ops();
        let inner = &mut self.0;
        let out = span(|t| &t.set, PERIOD_INNER, || f(inner));
        let charged = self.0.ops() - before;
        TRACER.with(|t| {
            bump(&t.set_calls[op], 1);
            bump(&t.set_ops, charged);
        });
        out
    }

    fn construct(op: usize, f: impl FnOnce() -> S) -> Self {
        let set = span(|t| &t.set, PERIOD_INNER, f);
        TRACER.with(|t| {
            bump(&t.set_calls[op], 1);
            bump(&t.set_ops, set.ops());
        });
        TracedSet(set)
    }
}

// Method indices, in `report::SET_OPS` order.
const LEN: usize = 0;
const IS_EMPTY: usize = 1;
const CONTAINS: usize = 2;
const SELECT: usize = 3;
const COUNT_LE: usize = 4;
const SELECT_EXCLUDING: usize = 5;
const SELECT_EXCLUDING_HINTED: usize = 6;
const EMPTY: usize = 7;
const FULL: usize = 8;
const UNIVERSE: usize = 9;
const INSERT: usize = 10;
const REMOVE: usize = 11;
const INSERT_PAIRED_REMOVE: usize = 12;
const OPS: usize = 13;

impl<S: OrderedJobSet> RankedSet for TracedSet<S> {
    fn len(&self) -> usize {
        self.call(LEN, |s| s.len())
    }

    fn is_empty(&self) -> bool {
        self.call(IS_EMPTY, |s| s.is_empty())
    }

    fn contains(&self, id: u64) -> bool {
        self.call(CONTAINS, |s| s.contains(id))
    }

    fn select(&self, rank: usize) -> Option<u64> {
        self.call(SELECT, |s| s.select(rank))
    }

    fn count_le(&self, id: u64) -> usize {
        self.call(COUNT_LE, |s| s.count_le(id))
    }

    fn select_excluding(&self, excl: &[u64], i: usize) -> Option<u64> {
        self.call(SELECT_EXCLUDING, |s| s.select_excluding(excl, i))
    }

    fn select_excluding_hinted(
        &self,
        excl: &[u64],
        i: usize,
        hint: Option<SelectHint>,
    ) -> Option<u64> {
        self.call(SELECT_EXCLUDING_HINTED, |s| {
            s.select_excluding_hinted(excl, i, hint)
        })
    }
}

impl<S: OrderedJobSet> OrderedJobSet for TracedSet<S> {
    fn empty(universe: usize) -> Self {
        Self::construct(EMPTY, || S::empty(universe))
    }

    fn full(universe: usize) -> Self {
        Self::construct(FULL, || S::full(universe))
    }

    fn universe(&self) -> usize {
        self.call(UNIVERSE, |s| s.universe())
    }

    fn insert(&mut self, id: u64) -> bool {
        self.call_mut(INSERT, |s| s.insert(id))
    }

    fn remove(&mut self, id: u64) -> bool {
        self.call_mut(REMOVE, |s| s.remove(id))
    }

    fn insert_paired_remove(&mut self, free: &mut Self, id: u64) -> (bool, bool) {
        let free_before = free.0.ops();
        let out = self.call_mut(INSERT_PAIRED_REMOVE, |s| {
            s.insert_paired_remove(&mut free.0, id)
        });
        TRACER.with(|t| bump(&t.set_ops, free.0.ops() - free_before));
        out
    }

    fn ops(&self) -> u64 {
        self.call(OPS, |s| s.ops())
    }
}

// ---------------------------------------------------------------------
// Registers
// ---------------------------------------------------------------------

/// A [`Registers`] file that counts reads, peeks and writes and samples
/// the time of every call into `R`.
#[derive(Debug)]
pub struct TracedRegs<R>(pub R);

/// Which register counter a call bumps.
#[derive(Clone, Copy)]
enum Access {
    Read,
    Peek,
    Write,
    Other,
}

impl<R: Registers> TracedRegs<R> {
    #[inline]
    fn call<T>(&self, access: Access, f: impl FnOnce(&R) -> T) -> T {
        TRACER.with(|t| match access {
            Access::Read => bump(&t.reads, 1),
            Access::Peek => bump(&t.peeks, 1),
            Access::Write => bump(&t.writes, 1),
            Access::Other => {}
        });
        span(
            |t| {
                if t.in_proc.get() {
                    &t.reg_in_proc
                } else {
                    &t.reg_in_engine
                }
            },
            PERIOD_INNER,
            || f(&self.0),
        )
    }
}

impl<R: Registers> Registers for TracedRegs<R> {
    fn read(&self, cell: usize) -> u64 {
        self.call(Access::Read, |r| r.read(cell))
    }

    fn peek(&self, cell: usize) -> u64 {
        self.call(Access::Peek, |r| r.peek(cell))
    }

    fn note_reads(&self, reads: u64) {
        self.call(Access::Other, |r| r.note_reads(reads))
    }

    fn epochs_enabled(&self) -> bool {
        self.call(Access::Other, |r| r.epochs_enabled())
    }

    fn epoch(&self, cell: usize) -> u64 {
        self.call(Access::Other, |r| r.epoch(cell))
    }

    fn global_epoch(&self) -> u64 {
        self.call(Access::Other, |r| r.global_epoch())
    }

    fn write(&self, cell: usize, value: u64) {
        self.call(Access::Write, |r| r.write(cell, value))
    }

    fn swap(&self, cell: usize, value: u64) -> u64 {
        self.call(Access::Write, |r| r.swap(cell, value))
    }

    fn len(&self) -> usize {
        self.call(Access::Other, |r| r.len())
    }

    fn is_empty(&self) -> bool {
        self.call(Access::Other, |r| r.is_empty())
    }

    fn work(&self) -> MemWork {
        self.call(Access::Other, |r| r.work())
    }

    fn note_actor(&self, pid: usize) {
        self.call(Access::Other, |r| r.note_actor(pid))
    }

    fn perform_barrier(&self) {
        self.call(Access::Other, |r| r.perform_barrier())
    }

    fn crash_blackout(&self, pid: usize) {
        self.call(Access::Other, |r| r.crash_blackout(pid))
    }
}

// ---------------------------------------------------------------------
// Service fleets
// ---------------------------------------------------------------------

/// Counters shared by a service's traced workers (relaxed atomics: pure
/// statistics, read after the workers flushed them).
#[derive(Debug, Default)]
pub struct WorkerTotals {
    /// Automatons built (one per worker per generation entered).
    pub builds: AtomicU64,
    /// Time spent in the wrapped blueprint's `build`, in ns.
    pub build_ns: AtomicU64,
    /// Automaton steps.
    pub steps: AtomicU64,
    /// Steps that were timed.
    pub timed: AtomicU64,
    /// Summed duration of the timed steps, in ns.
    pub timed_ns: AtomicU64,
    /// Steps that accessed shared memory.
    pub shared: AtomicU64,
    /// Local work of automatons already retired.
    pub local_work: AtomicU64,
}

/// Steps a worker batches locally before publishing its counts.
const FLUSH_EVERY: u64 = 256;

/// A [`FleetBlueprint`] whose automatons count and sample their steps.
pub struct TracedBlueprint<B> {
    inner: B,
    totals: Arc<WorkerTotals>,
}

impl<B: FleetBlueprint> TracedBlueprint<B> {
    /// Wraps `inner`; the counters accumulate into `totals`.
    pub fn new(inner: B, totals: Arc<WorkerTotals>) -> Self {
        Self { inner, totals }
    }
}

impl<B: FleetBlueprint> FleetBlueprint for TracedBlueprint<B> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn jobs_per_generation(&self) -> u64 {
        self.inner.jobs_per_generation()
    }

    fn cells(&self) -> usize {
        self.inner.cells()
    }

    fn build(&self, pid: usize) -> BoxProcess {
        let start = Instant::now();
        let inner = self.inner.build(pid);
        let ns = start.elapsed().as_nanos() as u64;
        self.totals.builds.fetch_add(1, Ordering::Relaxed);
        self.totals.build_ns.fetch_add(ns, Ordering::Relaxed);
        boxed(TracedWorker {
            inner,
            totals: Arc::clone(&self.totals),
            rng: 0x2545_F491_4F6C_DD1D ^ pid as u64,
            countdown: 1,
            pending: [0; 4],
        })
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// One worker's automaton inside a traced service: counts locally and
/// publishes every [`FLUSH_EVERY`] steps and when dropped (at generation
/// rotation and shutdown).
struct TracedWorker {
    inner: BoxProcess,
    totals: Arc<WorkerTotals>,
    rng: u64,
    countdown: u32,
    /// Unpublished steps, timed steps, timed ns and shared accesses.
    pending: [u64; 4],
}

impl TracedWorker {
    fn flush(&mut self) {
        let [steps, timed, timed_ns, shared] = std::mem::take(&mut self.pending);
        let t = &self.totals;
        t.steps.fetch_add(steps, Ordering::Relaxed);
        t.timed.fetch_add(timed, Ordering::Relaxed);
        t.timed_ns.fetch_add(timed_ns, Ordering::Relaxed);
        t.shared.fetch_add(shared, Ordering::Relaxed);
    }
}

impl Drop for TracedWorker {
    fn drop(&mut self) {
        self.flush();
        let local = Process::<amo_sim::AtomicRegisters>::local_work(&self.inner);
        self.totals.local_work.fetch_add(local, Ordering::Relaxed);
    }
}

impl<R> Process<R> for TracedWorker
where
    R: Registers + ?Sized,
    BoxProcess: Process<R>,
{
    fn step(&mut self, mem: &R) -> StepEvent {
        self.countdown -= 1;
        let event = if self.countdown == 0 {
            let rng = Cell::new(self.rng);
            self.countdown = next_gap(next_random(&rng), PERIOD_OUTER);
            self.rng = rng.get();
            let start = Instant::now();
            let event = self.inner.step(mem);
            self.pending[2] += start.elapsed().as_nanos() as u64;
            self.pending[1] += 1;
            event
        } else {
            self.inner.step(mem)
        };
        self.pending[0] += 1;
        if matches!(
            event,
            StepEvent::Read { .. }
                | StepEvent::CachedRead { .. }
                | StepEvent::Write { .. }
                | StepEvent::Rmw { .. }
        ) {
            self.pending[3] += 1;
        }
        if self.pending[0] >= FLUSH_EVERY {
            self.flush();
        }
        event
    }

    fn pid(&self) -> usize {
        self.inner.pid()
    }

    fn is_terminated(&self) -> bool {
        self.inner.is_terminated()
    }

    fn local_work(&self) -> u64 {
        self.inner.local_work()
    }
}

impl ScenarioHooks for TracedWorker {
    fn set_epoch_cache(&mut self, enabled: bool) {
        self.inner.set_epoch_cache(enabled)
    }

    fn set_collision_tracking(&mut self, enabled: bool) {
        self.inner.set_collision_tracking(enabled)
    }
}
