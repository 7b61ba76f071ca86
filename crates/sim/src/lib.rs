//! Asynchronous shared-memory substrate for the at-most-once algorithms.
//!
//! The paper (§2.1) models a multiprocessor as `m` asynchronous, crash-prone
//! processes — I/O automata — communicating through atomic read/write
//! registers, driven by an *omniscient on-line adversary* that controls both
//! the interleaving and up to `f < m` crashes. This crate is a from-scratch
//! implementation of that model, plus a real-thread runtime so the same
//! automatons can execute on actual hardware atomics:
//!
//! * [`Registers`] — the shared-memory abstraction: a flat file of `u64`
//!   cells with `read`/`write` (and `swap` for RMW-based baselines).
//!   Implementations: [`VecRegisters`] (deterministic simulation) and
//!   [`AtomicRegisters`] (real `SeqCst` `AtomicU64`s).
//! * [`Process`] — an automaton executed one *action* at a time; each action
//!   performs **at most one shared-memory access**, which is exactly the
//!   atomicity granularity of the paper's model.
//! * [`Scheduler`] — the adversary: decides at every step which process acts
//!   or crashes. Ships with round-robin, seeded-random, bursty and scripted
//!   strategies; paper-specific adversaries live in `amo-core`.
//! * [`Engine`] — runs a fleet of processes under a scheduler and records an
//!   [`Execution`]: who performed which jobs, at which step, with full work
//!   accounting (Definition 2.5).
//! * [`explore`] — a bounded exhaustive explorer (a small model checker)
//!   that enumerates *every* schedule and crash pattern of small instances
//!   and machine-checks the at-most-once property along all of them.
//! * [`scenario`] — the unified scenario layer: one declarative
//!   [`ScenarioSpec`] (scheduler, crash plan, limits, quantum, epoch-cache
//!   policy, backend, instrumentation) plus the generic [`run_scenario`]
//!   driver every algorithm crate's simulated runner routes through, with
//!   an open adversary registry ([`ScenarioHooks`]). Backends plug in
//!   without touching algorithm crates: processes are written once against
//!   `R:`[`Registers`], and [`run_scenario_on`] drives any fleet over any
//!   register file.
//! * [`net`] — simulated message passing: [`QuorumRegisters`] implements
//!   [`Registers`] over a majority-quorum replica set with one-and-a-half
//!   round reads, driven by a deterministic seeded [`NetworkModel`] and a
//!   packet-budgeted Omega-style failure detector.
//! * [`thread`] — the same fleet on OS threads over [`AtomicRegisters`],
//!   configured by one [`ThreadSpec`] and returning the same [`Execution`].
//!
//! # The quantum / `step_many` contract
//!
//! Schedulers grant each decision a *quantum* ([`Scheduler::quantum`],
//! default `1`): how many consecutive actions the chosen process may
//! execute before the adversary is consulted again. A quantum `> 1` opts
//! into the engine's macro-stepping fast path, which hands the whole
//! quantum to the process as batched [`Process::step_many`] calls. Batching
//! is **observationally invisible** by contract: a batch must behave
//! exactly like the same number of single [`Process::step`]s — the same
//! shared accesses in the same order and with the same counts, the same
//! `do` actions at the same global step indices, the same local-work
//! accounting, the same final state. The `batch_equivalence` suites (in
//! this crate, `amo-core`, `amo-iterative` and `amo-write-all`) enforce the
//! contract by running every workload through both [`Engine::single_step`]
//! (the per-action reference) and the fast path and requiring identical
//! [`Execution`]s. Adversarial schedulers keep quantum `1` and are
//! bit-for-bit unaffected; tracing ([`Engine::with_trace`]) forces
//! single-step granularity so every action is attributed.
//!
//! # What a scheduler decision costs
//!
//! At quantum `1` the engine consults the scheduler before every action,
//! so a decision must not scan the fleet. The engine keeps the running
//! slots as an ascending list, [`SchedView::live`], updated when a process
//! terminates, crashes or restarts; [`SchedView::running`] and
//! [`SchedView::running_count`] read it. Per decision:
//!
//! * [`RandomScheduler`] and [`BlockScheduler`]: O(1), one RNG draw that
//!   indexes `live` (or, inside a burst, no draw at all);
//! * [`RoundRobin`]: O(1) while the process at its cursor runs, otherwise
//!   a scan on to the next running slot;
//! * [`ScriptedScheduler`]: O(1) while the script lasts, then round-robin;
//! * [`WithCrashes`]: O(pending events) on top of its inner scheduler —
//!   the planned crashes still armed and the restarts waiting on an
//!   observed crash — and O(1) once every planned crash and restart has
//!   happened.
//!
//! # Register epochs (the announcement-cache invariant)
//!
//! A [`Registers`] file may keep a global mutation stamp
//! ([`Registers::global_epoch`], announced by
//! [`Registers::epochs_enabled`]) that increases on every mutation of any
//! cell: writes, swaps and snapshot restores. An unchanged stamp certifies
//! that *nothing* changed. The KKβ announcement cache stamps each
//! `gatherTry` and `gatherDone` sweep that saw no foreign write, and while
//! the stamp (less the process's own writes) still matches, the batched
//! path collapses whole sweeps, and whole cycles, into their accounting.
//! Model-level observables are untouched: a skipped read is still counted
//! as one shared read, and on the single-step (traced) path the same read
//! surfaces as [`StepEvent::CachedRead`]. Only the deterministic
//! [`VecRegisters`] enables epochs; [`AtomicRegisters`] keeps them disabled
//! because a stamp probe and a value load are not atomic together under
//! real concurrency.
//!
//! # Durability invariants (the `Durable` backend)
//!
//! [`BackendSpec::Durable`] wraps the
//! volatile [`VecRegisters`] in [`DurableRegisters`]: every mutation is
//! journaled into a write-ahead log over a base snapshot, each process
//! writing through its own *write-behind buffer*. What survives a crash:
//!
//! * **Flushed records are durable forever.** The engine raises a flush
//!   barrier ([`Registers::perform_barrier`]) for the acting process at
//!   every recorded `do` action and at termination, so every write a
//!   process issued *before* performing a job is on stable storage by the
//!   time the perform is recorded.
//! * **Only the crasher's soft suffix is at risk.** A crash triggers a
//!   blackout ([`Registers::crash_blackout`]): the configured
//!   [`StorageFault`] decides how much of the crashed process's
//!   journaled-but-unflushed suffix survives (all of it, a seeded prefix,
//!   or none), and recovery replays the surviving log over the snapshot
//!   back into the register file. Survivors' buffers are untouched.
//! * **A torn write can expose no corrupt value.** Torn (partially
//!   persisted) records fail their checksum on recovery and are truncated
//!   away with everything after them — the fault surface is always a
//!   *rollback to a write-order prefix*, never garbage.
//!
//! Why at-most-once still holds in every fault cell: a performed job's
//! protecting writes (its announcement/claim) precede the perform, hence
//! are durable and never regress; a blackout therefore reverts a crashed
//! process exactly to its shared state at its last perform — a state
//! reachable in a legal crash-stop execution — and stale values other
//! processes may have read from the lost suffix only ever *exclude* jobs
//! (announcements of processes that died before performing), costing
//! effectiveness, never safety. The fault-free `Durable` backend is
//! bit-identical to [`VecRegisters`] (journaling is a pure side effect),
//! which the equivalence suites pin counter-for-counter.
//!
//! # Network-model invariants (the `Quorum` backend)
//!
//! [`BackendSpec::Quorum`] implements the
//! registers by message passing: `k` replica servers each hold a
//! `(tag, value)` pair per cell, and every register operation runs a quorum
//! protocol over a seeded [`NetworkModel`] (latency distributions, drops,
//! reordering, replica crashes). The invariants the suites pin:
//!
//! * **Quorum intersection.** Every phase waits for `⌈(k+1)/2⌉` distinct
//!   replica replies, and any two majorities intersect in at least one
//!   replica. A completed write leaves its tag at a majority, so every
//!   later read's query majority contains at least one replica holding a
//!   tag `≥` it — a newer value can never become invisible, and monotone
//!   tag application at replicas (`Put` applies only if its tag is larger)
//!   makes duplicated or reordered retransmissions harmless.
//! * **Why one-and-a-half-round reads preserve atomicity.** A reader
//!   returns the maximum `(tag, value)` of its query majority. If *every*
//!   reply already carried that tag, the value is provably durable at a
//!   majority and the read completes in one round. Otherwise the reader
//!   spends the extra half round propagating `(tag, value)` to a majority
//!   before returning — so a returned value is *always* quorum-durable,
//!   and no subsequent read can return an older one (the à-la-*Oh-RAM!*
//!   construction).
//! * **Failure-detector budget semantics.** Explicit liveness probes go
//!   only to the current leader (lowest unsuspected replica) and stop
//!   forever once [`NetworkSpec::fd_packet_budget`] packets were spent;
//!   liveness otherwise piggybacks on protocol replies, and suspicion is
//!   raised only after repeated unanswered retransmissions past the
//!   suspicion horizon. Suspicion is an optimisation, never a safety input:
//!   quorum thresholds always count over all `k` replicas, suspected
//!   replicas are merely skipped when broadcasting (with a fall-back to
//!   everyone when too few unsuspected remain), and replica crashes are
//!   clamped to a minority so every operation terminates.
//!
//! The degenerate network (zero latency, no loss, no crashes) is
//! bit-identical to [`VecRegisters`] — pinned counter-for-counter by the
//! `quorum_equivalence` suite — and in *every* regime the protocol result
//! is cross-checked against the authoritative register file
//! ([`NetStats::atomicity_violations`], pinned at zero).
//!
//! # Chaos invariants (the [`chaos`] module)
//!
//! A [`ChaosPlan`] composes every fault axis above into one seeded
//! schedule — crashes/restarts, a storage blackout regime, a network
//! environment, a named adversary — and [`ChaosPlan::lower_onto`] folds
//! it onto any base [`ScenarioSpec`], so every existing driver accepts
//! the chaos dimension with zero algorithm-crate edits. The contracts the
//! suites pin:
//!
//! * **Quiet-plan identity.** A plan with no events lowers to a spec that
//!   produces a bit-identical [`Execution`] — the chaos dimension is
//!   observationally free until a fault is actually scheduled (pinned for
//!   all four algorithm stacks by the workspace `chaos_equivalence`
//!   suite).
//! * **One backend axis per run.** A plan scheduling both a storage and a
//!   network event panics at lowering: one run has one register file.
//! * **Seeded drawing is a pure function.** [`ChaosPlan::draw`] maps
//!   `(seed, intensity, space)` to a plan deterministically, gated by a
//!   [`ChaosSpace`] so a drawn plan is always executable by the stack it
//!   is drawn for (restarts only where `on_restart` exists, adversaries
//!   only where a registry resolves them); crash counts respect `f < m`.
//! * **Shrinker determinism.** [`shrink_plan`] delta-debugs a failing
//!   plan — greedy event removal, then per-field halving, to a fixed
//!   point, in one documented candidate order — so a deterministic
//!   failure predicate yields the *same* minimal reproducer on every run.
//! * **Replay exactness.** [`ChaosPlan::to_replay`] emits a hand-rolled
//!   line-based snippet (`chaos-plan v1`) and
//!   [`ChaosPlan::parse_replay`] inverts it exactly; adversary names
//!   resolve against the static [`chaos::KNOWN_ADVERSARIES`] dictionary,
//!   so parsed plans still carry `&'static str` registry names.
//!
//! # Examples
//!
//! ```
//! use amo_sim::{Engine, EngineLimits, RoundRobin, VecRegisters};
//! use amo_sim::testing::WriterProcess;
//!
//! // Two trivial automatons each write their pid into their own cell.
//! let mem = VecRegisters::new(2);
//! let procs = vec![WriterProcess::new(1, 0, 3), WriterProcess::new(2, 1, 3)];
//! let exec = Engine::new(mem, procs, RoundRobin::new()).run(EngineLimits::default());
//! assert!(exec.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod crash;
mod durable;
mod engine;
mod explore;
pub mod net;
mod process;
mod registers;
pub mod scenario;
mod sched;
pub mod testing;
pub mod thread;
mod timeline;
mod verify;

pub use chaos::{shrink_plan, ChaosEvent, ChaosPlan, ChaosSpace, Intensity};
pub use crash::CrashPlan;
pub use durable::{DurableRegisters, DurableStats, StorageFault};
pub use engine::{Engine, EngineLimits, Execution, LifeState, PerformRecord, Slot, TraceEntry};
pub use explore::{explore, ExploreConfig, ExploreOutcome, MemoMode};
pub use net::{Delivery, LatencyDist, NetStats, NetworkModel, NetworkSpec, QuorumRegisters};
pub use process::{BatchOutcome, JobSpan, Process, StepEvent};
pub use registers::{AtomicRegisters, MemWork, Registers, VecRegisters};
pub use scenario::{
    boxed, last_net_stats, run_scenario, run_scenario_on, BackendSpec, BoxProcess, DynProcess,
    ScenarioHooks, ScenarioProcess, ScenarioSpec, SchedulerSpec,
};
pub use sched::{
    BlockScheduler, Decision, RandomScheduler, RoundRobin, SchedView, Scheduler, ScriptedScheduler,
    WithCrashes,
};
pub use thread::ThreadSpec;
pub use timeline::render_timeline;
pub use verify::{at_most_once_violations, distinct_jobs, perform_summary, JobCounts, Violation};
