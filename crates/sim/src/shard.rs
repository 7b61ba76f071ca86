//! Deterministic sharded parallel execution between communication epochs.
//!
//! The [`Engine`](crate::Engine) is single-threaded by design: one global
//! action order, one register file, every counter exactly reproducible.
//! This module breaks the single-run wall while keeping exact
//! reproducibility, by trading the engine's *interleaved* schedule for a
//! **phased (bulk-synchronous) schedule** that is deterministic *by
//! construction* — independent of how many shards execute it and of how
//! many OS threads carry the shards.
//!
//! # The phased schedule
//!
//! Execution proceeds in **communication epochs**. In every epoch each
//! running process takes one *turn* of up to `quantum` actions
//! ([`Process::step_turn`]), with two rules that make the epoch's turns
//! order-independent:
//!
//! * **frozen reads** — every shared read of the epoch is served from a
//!   snapshot of the register file taken at the previous epoch barrier;
//!   same-epoch writes (even of a same-shard neighbour) are invisible until
//!   the next barrier, with one exception: a process always observes its
//!   *own* writes of the current turn (read-your-writes);
//! * **buffered writes** — writes are appended to the shard's publication
//!   buffer in program order and applied to the authoritative file only at
//!   the barrier.
//!
//! At the barrier the coordinator **merges** the publication buffers into
//! the backing [`VecRegisters`] in *merge-key order* `(epoch, pid,
//! local_seq)` — epoch-major, then pid-major (shards own contiguous pid
//! blocks, so concatenating shard buffers in shard order *is* pid order),
//! then program order within the turn. Every write replays through
//! [`Registers::write`], so the global mutation stamp of the tracked-prefix
//! epoch machinery advances along one canonical sequence: per-cell epochs,
//! announcement-cache behaviour, `epoch_mem_bytes`, and every work counter
//! come out bit-identical whether the epoch ran on one shard or eight, on
//! one thread or sixteen. That invariance is the module's pinned contract
//! (`shard_equivalence`, `prop_shard`).
//!
//! # Sequential consistency
//!
//! A phased execution is not one of the engine's interleavings, but it *is*
//! sequentially consistent provided every turn keeps its foreign reads
//! before its writes (the [`Process::step_turn`] contract): a witness
//! schedule orders each epoch as "all turn read-segments in pid order, then
//! all write-segments in pid order". The at-most-once algorithms are safe
//! under *every* sequentially consistent schedule (the paper's adversary is
//! schedule-universal), so safety carries over — the equivalence suites
//! additionally assert zero violations in every sharded cell. KKβ's cycle
//! structure makes the natural turn exactly one `gatherTry → … → setNext`
//! cycle: announcements publish at the barrier *before* any rival gathers,
//! which is Dekker-style announce-then-gather run at epoch granularity.
//!
//! # What cannot shard
//!
//! * **Read-modify-write** ([`Registers::swap`]) cannot be served from a
//!   frozen snapshot — two same-epoch swaps on one cell would both see the
//!   pre-epoch value and the lost update would not be sequentially
//!   consistent. The swap-based baselines run unsharded; a sharded `swap`
//!   panics.
//! * **`AtomicRegisters` stays excluded**: under real concurrency there is
//!   no barrier at which a deterministic merge order could be imposed — the
//!   hardware interleaving *is* the schedule. Sharding is a property of the
//!   deterministic simulator (`BackendSpec::Vec` only; the durable and
//!   quorum wrappers journal per-actor state that is meaningless under
//!   phased merge).
//! * **Restarts, block schedules and named adversaries** are rejected:
//!   restart delays and burst/adversary decisions are defined in terms of
//!   the engine's global action order, which a phased run does not have.
//! * The engine's step cap is enforced at epoch granularity (a run may
//!   finish the epoch in flight before reporting `completed == false`).

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use crate::crash::CrashPlan;
use crate::engine::{Execution, LifeState, PerformRecord, Slot};
use crate::pool;
use crate::process::{BatchOutcome, Process, StepEvent};
use crate::registers::{MemWork, Registers, VecRegisters};
use crate::scenario::{BackendSpec, ScenarioHooks, ScenarioSpec, SchedulerSpec};

/// Shard-parallelism configuration of a [`ScenarioSpec`].
///
/// `shards` is the number of fleet partitions executing turns between
/// epoch barriers; `threads` is the number of OS worker threads carrying
/// them (clamped to `shards`; `1` runs every shard inline on the caller —
/// the sequential reference the threaded path must reproduce exactly).
/// **Every deterministic observable is independent of both numbers**; they
/// trade wall-clock only.
///
/// The default is [`disabled`](Self::disabled) (`shards == 0`): the
/// scenario runs on the classic interleaving engine. Note that `shards: 1`
/// is *not* the same thing — one shard still runs the phased schedule
/// (frozen epoch reads, barrier-merged writes), which interleaves
/// differently from the engine; it is the canonical reference that
/// higher shard counts are pinned against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of fleet partitions (0 = sharding disabled).
    pub shards: usize,
    /// Worker threads carrying the shards (0 = disabled; 1 = sequential).
    pub threads: usize,
}

impl ShardSpec {
    /// Sharding off: the scenario runs on the interleaving engine.
    pub fn disabled() -> Self {
        Self {
            shards: 0,
            threads: 0,
        }
    }

    /// `shards` partitions on `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if either is zero (use [`disabled`](Self::disabled)).
    pub fn new(shards: usize, threads: usize) -> Self {
        assert!(shards >= 1, "a sharded run needs at least one shard");
        assert!(threads >= 1, "a sharded run needs at least one thread");
        Self { shards, threads }
    }

    /// `shards` partitions, every shard executed inline on the calling
    /// thread — the sequential reference schedule.
    pub fn sequential(shards: usize) -> Self {
        Self::new(shards, 1)
    }

    /// `shards` partitions on as many workers as the machine (and the
    /// nesting level — see [`pool::effective_parallelism`]) affords.
    pub fn auto(shards: usize) -> Self {
        Self::new(shards, pool::effective_parallelism().min(shards).max(1))
    }

    /// `true` when this spec requests the sharded driver.
    pub fn enabled(&self) -> bool {
        self.shards >= 1
    }
}

impl Default for ShardSpec {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The epoch-frozen image of the register file shared read-only with every
/// shard during an epoch, plus the canonical stamp/epoch mirror the merge
/// maintains write-by-write.
#[derive(Debug)]
struct Snapshot {
    vals: Vec<u64>,
    /// Dense tracked-prefix epochs (mirrors [`VecRegisters`]'s
    /// representation); cells beyond the prefix report `epoch_base`.
    epochs: Vec<u64>,
    epoch_base: u64,
    /// Global mutation stamp as of the last barrier.
    stamp: u64,
    tracking: bool,
}

impl Snapshot {
    fn of(base: &VecRegisters) -> Self {
        Self {
            vals: base.snapshot(),
            epochs: Vec::new(),
            epoch_base: base.global_epoch(),
            stamp: base.global_epoch(),
            tracking: base.epochs_enabled(),
        }
    }

    #[inline]
    fn epoch(&self, cell: usize) -> u64 {
        self.epochs.get(cell).copied().unwrap_or(self.epoch_base)
    }

    /// Applies one merged write, advancing the stamp exactly like the
    /// backing file does.
    #[inline]
    fn apply(&mut self, cell: usize, value: u64) {
        self.vals[cell] = value;
        self.stamp += 1;
        if self.tracking {
            if cell >= self.epochs.len() {
                let base = self.epoch_base;
                self.epochs.resize(cell + 1, base);
            }
            self.epochs[cell] = self.stamp;
        }
    }
}

/// The per-shard register-file view of one communication epoch: reads are
/// served from the frozen `Snapshot` (with read-your-writes over the
/// current turn's buffer), writes are buffered for the barrier merge.
///
/// This is a full [`Registers`] implementation, so unmodified algorithm
/// processes (written generically over `R: Registers`) execute on it —
/// sharding needs zero algorithm-crate edits beyond the
/// [`Process::step_turn`] boundary override.
///
/// Epoch queries satisfy the cache contract *within the phased semantics*:
/// per-cell epochs and the global epoch are frozen for the epoch, own
/// buffered writes advance both optimistically (as if merged first), and
/// the barrier merge replays every write in canonical order so the next
/// epoch's snapshot continues the same monotone stamp sequence.
#[derive(Debug)]
pub struct ShardRegisters {
    snap: Arc<Snapshot>,
    /// Writes of the current turn, in program order.
    turn_writes: RefCell<Vec<(usize, u64)>>,
    reads: Cell<u64>,
    writes: Cell<u64>,
}

impl ShardRegisters {
    fn new(snap: Arc<Snapshot>) -> Self {
        Self {
            snap,
            turn_writes: RefCell::new(Vec::new()),
            reads: Cell::new(0),
            writes: Cell::new(0),
        }
    }

    /// Takes the turn's publication buffer, leaving the view ready for the
    /// next turn.
    fn take_turn_writes(&self) -> Vec<(usize, u64)> {
        std::mem::take(&mut self.turn_writes.borrow_mut())
    }

    /// Takes the turn's read count.
    fn take_reads(&self) -> u64 {
        self.reads.replace(0)
    }

    #[inline]
    fn lookup(&self, cell: usize) -> u64 {
        // Read-your-writes: the last buffered write of this turn wins; a
        // cell untouched this turn reads the frozen snapshot.
        let buf = self.turn_writes.borrow();
        buf.iter()
            .rev()
            .find(|&&(c, _)| c == cell)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| self.snap.vals[cell])
    }
}

impl Registers for ShardRegisters {
    fn read(&self, cell: usize) -> u64 {
        self.reads.set(self.reads.get() + 1);
        self.lookup(cell)
    }

    fn peek(&self, cell: usize) -> u64 {
        self.lookup(cell)
    }

    fn note_reads(&self, reads: u64) {
        self.reads.set(self.reads.get() + reads);
    }

    fn epochs_enabled(&self) -> bool {
        self.snap.tracking
    }

    fn epoch(&self, cell: usize) -> u64 {
        // A cell written this turn reports the stamp its write would get if
        // this turn merged first: later real epochs are ≥ that, so a
        // recorded value can never falsely validate (monotone contract).
        let buf = self.turn_writes.borrow();
        if let Some(i) = buf.iter().rposition(|&(c, _)| c == cell) {
            return self.snap.stamp + i as u64 + 1;
        }
        self.snap.epoch(cell)
    }

    fn global_epoch(&self) -> u64 {
        // Own buffered writes advance the global stamp immediately, so a
        // process's "writes by others" arithmetic stays frozen mid-turn.
        self.snap.stamp + self.turn_writes.borrow().len() as u64
    }

    fn write(&self, cell: usize, value: u64) {
        assert!(cell < self.snap.vals.len(), "write out of range");
        self.writes.set(self.writes.get() + 1);
        self.turn_writes.borrow_mut().push((cell, value));
    }

    fn swap(&self, cell: usize, _value: u64) -> u64 {
        panic!(
            "cell {cell}: swap cannot run sharded: a read-modify-write is not servable \
             from an epoch-frozen snapshot (two same-epoch swaps would both observe the \
             pre-barrier value) — run swap-based baselines unsharded"
        );
    }

    fn len(&self) -> usize {
        self.snap.vals.len()
    }

    fn work(&self) -> MemWork {
        // Per-view accounting only; the authoritative counters accumulate on
        // the backing file as the merge replays the buffers.
        MemWork {
            reads: self.reads.get(),
            writes: self.writes.get(),
            rmws: 0,
        }
    }
}

/// One process's turn as recorded by its shard, ready for the barrier
/// merge.
#[derive(Debug)]
struct TurnRecord {
    pid: usize,
    out: BatchOutcome,
    writes: Vec<(usize, u64)>,
    reads: u64,
}

/// One pid's contribution to an epoch, in local pid order.
#[derive(Debug)]
enum EpochAction {
    Turn(TurnRecord),
    Crash(usize),
}

struct ProcSlot<P> {
    pid: usize,
    process: P,
    steps: u64,
    state: LifeState,
}

/// A shard: its contiguous block of processes plus this epoch's
/// publication log.
struct ShardLane<P> {
    procs: Vec<ProcSlot<P>>,
    log: Vec<EpochAction>,
}

/// Scheduler semantics lowered to phased turn budgets.
#[derive(Debug, Clone)]
struct TurnParams {
    quantum: u64,
    random_seed: Option<u64>,
    single_step: bool,
    plan: CrashPlan,
}

impl TurnParams {
    /// The turn budget of `pid` in `epoch` — deterministic, shard- and
    /// thread-independent. Round-robin grants the full quantum; the random
    /// scheduler draws a per-(epoch, pid) budget in `1..=quantum` from its
    /// seed (the phased analogue of its interleaved turn lengths).
    fn budget(&self, epoch: u64, pid: usize) -> u64 {
        match self.random_seed {
            None => self.quantum,
            Some(seed) => {
                let mix = splitmix64(
                    seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (pid as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
                );
                1 + mix % self.quantum
            }
        }
    }
}

fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one turn through per-action dispatch — the reference path
/// [`Process::step_turn`] implementations must reproduce action for
/// action, stopping at the same communication boundaries
/// ([`Process::at_comm_boundary`]).
fn reference_turn<P: Process<ShardRegisters>>(
    p: &mut P,
    view: &ShardRegisters,
    budget: u64,
) -> BatchOutcome {
    let mut out = BatchOutcome::default();
    while out.steps < budget && !out.terminated {
        if out.steps > 0 && p.at_comm_boundary() {
            break;
        }
        let event = p.step(view);
        match event {
            StepEvent::Perform { span } => out.performed.push((out.steps, span)),
            StepEvent::Terminated => out.terminated = true,
            _ => {}
        }
        out.steps += 1;
    }
    out
}

/// Executes one epoch of `lane`'s processes against the frozen snapshot,
/// appending this epoch's actions (turns and crash decisions) to the
/// lane's log in local pid order.
fn run_shard_epoch<P: Process<ShardRegisters>>(
    lane: &mut ShardLane<P>,
    snap: Arc<Snapshot>,
    epoch: u64,
    params: &TurnParams,
) {
    let view = ShardRegisters::new(snap);
    for slot in &mut lane.procs {
        if slot.state != LifeState::Running {
            continue;
        }
        if params.plan.should_crash(slot.pid, slot.steps) {
            slot.state = LifeState::Crashed;
            lane.log.push(EpochAction::Crash(slot.pid));
            continue;
        }
        let mut budget = params.budget(epoch, slot.pid);
        if let Some(b) = params.plan.budget(slot.pid) {
            // Same clamp as the interleaved WithCrashes wrapper: never hand
            // out actions past the crash threshold, but always at least one.
            budget = budget.min(b.saturating_sub(slot.steps).max(1));
        }
        let out = if params.single_step {
            reference_turn(&mut slot.process, &view, budget)
        } else {
            // Drive the turn as a loop of step_turn calls, exactly like the
            // engine loops step_many over a quantum: a process that stops
            // early without standing at a communication boundary (e.g. the
            // single-action default) is granted the rest of its budget.
            let mut acc = BatchOutcome::default();
            loop {
                let sub = slot.process.step_turn(&view, budget - acc.steps);
                for (offset, span) in sub.performed {
                    acc.performed.push((acc.steps + offset, span));
                }
                acc.steps += sub.steps;
                acc.terminated = sub.terminated;
                if acc.terminated || acc.steps >= budget || slot.process.at_comm_boundary() {
                    break;
                }
            }
            acc
        };
        debug_assert!(
            out.steps >= 1 && out.steps <= budget,
            "step_turn overran its budget"
        );
        slot.steps += out.steps;
        if out.terminated {
            slot.state = LifeState::Terminated;
        }
        lane.log.push(EpochAction::Turn(TurnRecord {
            pid: slot.pid,
            out,
            writes: view.take_turn_writes(),
            reads: view.take_reads(),
        }));
    }
}

/// Coordinator-side execution record being accumulated across barriers.
struct MergeState {
    performed: Vec<PerformRecord>,
    crashed: Vec<usize>,
    total_steps: u64,
    per_proc_steps: Vec<u64>,
    running: usize,
    completed: bool,
    max_crashes: usize,
}

impl MergeState {
    /// Replays one epoch's actions (already concatenated in pid order) into
    /// the backing file and the snapshot — the deterministic merge. Every
    /// write goes through [`Registers::write`] so stamps, tracked-prefix
    /// epochs and work counters evolve along the one canonical sequence.
    fn merge(
        &mut self,
        base: &VecRegisters,
        snap: &mut Snapshot,
        actions: impl Iterator<Item = EpochAction>,
    ) {
        for action in actions {
            match action {
                EpochAction::Crash(pid) => {
                    assert!(
                        self.crashed.len() < self.max_crashes,
                        "crash plan exceeded crash budget f = {}",
                        self.max_crashes
                    );
                    self.crashed.push(pid);
                    self.running -= 1;
                    base.crash_blackout(pid);
                }
                EpochAction::Turn(t) => {
                    base.note_actor(t.pid);
                    for (cell, value) in t.writes {
                        base.write(cell, value);
                        snap.apply(cell, value);
                    }
                    base.note_reads(t.reads);
                    for &(offset, span) in &t.out.performed {
                        self.performed.push(PerformRecord {
                            pid: t.pid,
                            span,
                            step: self.total_steps + offset + 1,
                        });
                    }
                    if !t.out.performed.is_empty() {
                        base.perform_barrier();
                    }
                    self.total_steps += t.out.steps;
                    self.per_proc_steps[t.pid - 1] += t.out.steps;
                    if t.out.terminated {
                        self.running -= 1;
                        base.perform_barrier();
                    }
                }
            }
        }
    }
}

/// Runs `fleet` over `mem` under `spec`'s phased sharded schedule —
/// [`run_scenario`](crate::run_scenario) routes here whenever
/// [`ScenarioSpec::shard`] is enabled.
///
/// Shards own contiguous pid blocks; each epoch every running process takes
/// one [`Process::step_turn`] against the frozen snapshot, and the barrier
/// merges publication buffers in `(epoch, pid, local_seq)` order (see the
/// module docs). The returned [`Execution`] is bit-identical for every
/// `(shards, threads)` combination.
///
/// # Panics
///
/// Panics on the configurations the phased schedule cannot express: a
/// non-`Vec` backend, block or adversary schedulers, restart plans, an
/// empty or pid-misordered fleet — and at the first sharded `swap`
/// (read-modify-write baselines must run unsharded).
pub fn run_scenario_sharded<P>(
    mem: VecRegisters,
    mut fleet: Vec<P>,
    spec: &ScenarioSpec,
) -> (Execution, Vec<Slot<P>>, VecRegisters)
where
    P: ScenarioHooks + Process<ShardRegisters> + Send,
{
    assert!(spec.shard.enabled(), "ShardSpec is disabled");
    assert!(
        matches!(spec.backend, BackendSpec::Vec),
        "backend {:?} cannot run sharded: the durable and quorum wrappers journal \
         per-actor state in the engine's global action order, which a phased run \
         does not have — shard over the volatile Vec backend",
        spec.backend.label()
    );
    let random_seed = match spec.scheduler {
        SchedulerSpec::RoundRobin => None,
        SchedulerSpec::Random(seed) => Some(seed),
        SchedulerSpec::Block(..) => panic!(
            "block schedules cannot run sharded: bursts are defined over the engine's \
             global action order — use round-robin or random turn budgets"
        ),
        SchedulerSpec::Adversary(name) => panic!(
            "adversary {name:?} cannot run sharded: adversarial schedules pick single \
             actions against global state, which a phased run does not expose — run \
             adversary cells on the interleaving engine"
        ),
    };
    assert!(
        !spec.crash_plan.has_restarts(),
        "sharded execution is crash-stop only: restart delays are defined in global \
         steps, which a phased run does not have"
    );
    assert!(!fleet.is_empty(), "need at least one process");
    for (i, p) in fleet.iter().enumerate() {
        assert_eq!(p.pid(), i + 1, "processes must be ordered by pid 1..=m");
    }
    spec.crash_plan.assert_fits(fleet.len());

    // Hook wiring — exactly the run_scenario_on rules.
    if spec.epoch_cache && spec.grants_quanta() {
        for p in &mut fleet {
            p.set_epoch_cache(true);
        }
    }
    if spec.collisions {
        for p in &mut fleet {
            p.set_collision_tracking(true);
        }
    }

    let m = fleet.len();
    let shards = spec.shard.shards.min(m);
    // Nested sharding (inside a par_map grid cell) degrades to the
    // sequential reference instead of oversubscribing the outer fan-out.
    let threads = if pool::in_worker() {
        1
    } else {
        spec.shard.threads.max(1).min(shards)
    };
    let params = TurnParams {
        quantum: spec.quantum.max(1),
        random_seed,
        single_step: spec.reference_single_step,
        plan: spec.crash_plan.clone(),
    };
    // Chaos worker-panic points armed on this thread (if any): a point
    // (worker, epoch) panics the worker indexed `worker % threads` at the
    // start of `epoch`, so an armed plan surfaces under every thread count
    // — including the sequential reference, where everything is worker 0.
    let chaos_points = pool::take_chaos_panics();

    // Contiguous pid blocks: concatenating shard logs in shard order is pid
    // order, which is what makes the merge key (epoch, pid, local_seq).
    let mut lanes: Vec<ShardLane<P>> = Vec::with_capacity(shards);
    {
        let mut fleet = fleet.into_iter();
        for s in 0..shards {
            let lo = s * m / shards;
            let hi = (s + 1) * m / shards;
            lanes.push(ShardLane {
                procs: fleet
                    .by_ref()
                    .take(hi - lo)
                    .enumerate()
                    .map(|(i, process)| ProcSlot {
                        pid: lo + i + 1,
                        process,
                        steps: 0,
                        state: LifeState::Running,
                    })
                    .collect(),
                log: Vec::new(),
            });
        }
    }

    let mut ms = MergeState {
        performed: Vec::new(),
        crashed: Vec::new(),
        total_steps: 0,
        per_proc_steps: vec![0; m],
        running: m,
        completed: true,
        max_crashes: m - 1,
    };
    let mut snap_arc = Arc::new(Snapshot::of(&mem));

    if threads <= 1 {
        // Sequential reference: every shard inline, no synchronisation.
        let mut epoch = 0u64;
        loop {
            if ms.running == 0 {
                break;
            }
            if ms.total_steps >= spec.limits.max_steps {
                ms.completed = false;
                break;
            }
            if chaos_points.iter().any(|&(_, pe)| pe == epoch) {
                panic!("chaos: injected worker panic (worker 0, epoch {epoch})");
            }
            for lane in &mut lanes {
                run_shard_epoch(lane, Arc::clone(&snap_arc), epoch, &params);
            }
            let snap = Arc::get_mut(&mut snap_arc).expect("epoch views dropped");
            for lane in &mut lanes {
                ms.merge(&mem, snap, lane.log.drain(..));
            }
            epoch += 1;
        }
    } else {
        run_epochs_threaded(
            &mem,
            &mut lanes,
            &mut snap_arc,
            &mut ms,
            &params,
            spec,
            threads,
            &chaos_points,
        );
    }

    let execution = Execution {
        performed: ms.performed,
        total_steps: ms.total_steps,
        crashed: ms.crashed,
        restarted: Vec::new(),
        completed: ms.completed,
        mem_work: mem.work(),
        local_work: lanes
            .iter()
            .flat_map(|l| l.procs.iter())
            .map(|s| s.process.local_work())
            .sum(),
        per_proc_steps: ms.per_proc_steps,
        trace: Vec::new(),
    };
    let slots = lanes
        .into_iter()
        .flat_map(|l| l.procs)
        .map(|s| Slot {
            process: s.process,
            state: s.state,
            steps: s.steps,
        })
        .collect();
    (execution, slots, mem)
}

/// The threaded epoch loop: long-lived workers (strided shard assignment)
/// synchronised with the coordinator through two barriers per epoch.
/// Workers run turns against the shared snapshot `Arc`; between barriers
/// the coordinator holds the only reference and merges in place
/// (`Arc::get_mut` — no copy, no locks on the read path).
#[allow(clippy::too_many_arguments)]
fn run_epochs_threaded<P>(
    base: &VecRegisters,
    lanes: &mut [ShardLane<P>],
    snap_arc: &mut Arc<Snapshot>,
    ms: &mut MergeState,
    params: &TurnParams,
    spec: &ScenarioSpec,
    threads: usize,
    chaos_points: &[(usize, u64)],
) where
    P: Process<ShardRegisters> + Send,
{
    let lane_cells: Vec<Mutex<&mut ShardLane<P>>> = lanes.iter_mut().map(Mutex::new).collect();
    let stop = AtomicBool::new(false);
    let failed = AtomicBool::new(false);
    let start = Barrier::new(threads + 1);
    let done = Barrier::new(threads + 1);
    // The coordinator publishes the snapshot here before each epoch and
    // reclaims it after, so `Arc::get_mut` sees a unique reference at merge
    // time.
    let published: Mutex<Option<Arc<Snapshot>>> = Mutex::new(None);

    let lane_cells = &lane_cells;
    let (stop, failed, start, done, published) = (&stop, &failed, &start, &done, &published);
    pool::scope_workers(
        threads,
        |w| {
            let mut epoch = 0u64;
            let mut my_panic = None;
            loop {
                start.wait();
                if stop.load(Ordering::Acquire) {
                    break;
                }
                if my_panic.is_none() {
                    let snap = published
                        .lock()
                        .unwrap()
                        .clone()
                        .expect("coordinator published the epoch snapshot");
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        if chaos_points
                            .iter()
                            .any(|&(pw, pe)| pe == epoch && pw % threads == w)
                        {
                            panic!("chaos: injected worker panic (worker {w}, epoch {epoch})");
                        }
                        for cell in lane_cells.iter().skip(w).step_by(threads) {
                            let mut lane = cell.lock().unwrap();
                            run_shard_epoch(&mut lane, Arc::clone(&snap), epoch, params);
                        }
                    }));
                    drop(snap);
                    if let Err(p) = r {
                        // Keep the barrier protocol alive so nobody
                        // deadlocks; the payload is re-raised after
                        // shutdown and propagates through the scope join.
                        failed.store(true, Ordering::Release);
                        my_panic = Some(p);
                    }
                }
                epoch += 1;
                done.wait();
            }
            if let Some(p) = my_panic {
                resume_unwind(p);
            }
        },
        || {
            loop {
                if ms.running == 0 {
                    break;
                }
                if ms.total_steps >= spec.limits.max_steps {
                    ms.completed = false;
                    break;
                }
                *published.lock().unwrap() = Some(Arc::clone(snap_arc));
                start.wait();
                // Workers execute the epoch here.
                done.wait();
                *published.lock().unwrap() = None;
                if failed.load(Ordering::Acquire) {
                    break;
                }
                let snap = Arc::get_mut(snap_arc).expect("workers dropped their snapshots");
                for cell in lane_cells {
                    let mut lane = cell.lock().unwrap();
                    ms.merge(base, snap, lane.log.drain(..));
                }
            }
            stop.store(true, Ordering::Release);
            start.wait();
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_scenario;
    use crate::testing::{PerformOnceProcess, WriterProcess};

    fn writer_fleet(m: usize, k: u64) -> (VecRegisters, Vec<WriterProcess>) {
        (
            VecRegisters::new(m),
            (1..=m).map(|p| WriterProcess::new(p, p - 1, k)).collect(),
        )
    }

    fn run_sharded(m: usize, k: u64, spec: &ScenarioSpec) -> (Execution, Vec<u64>) {
        let (mem, fleet) = writer_fleet(m, k);
        let (exec, _, mem) = run_scenario(mem, fleet, spec);
        (exec, mem.snapshot())
    }

    #[test]
    fn shard_count_and_threads_are_invisible() {
        let base = ScenarioSpec::round_robin_batched().with_quantum(3);
        let reference = run_sharded(
            8,
            17,
            &base.clone().with_shard_spec(ShardSpec::sequential(1)),
        );
        for shards in [2usize, 4, 8] {
            for threads in [1usize, 2, 4] {
                let spec = base
                    .clone()
                    .with_shard_spec(ShardSpec::new(shards, threads));
                let got = run_sharded(8, 17, &spec);
                assert_eq!(got, reference, "S={shards} T={threads} diverged");
            }
        }
    }

    #[test]
    fn writers_have_no_communication_so_phased_equals_interleaved() {
        // Write-only fleets never read, so the frozen snapshot changes
        // nothing: the phased run must be bit-identical to the engine.
        let spec = ScenarioSpec::round_robin_batched().with_quantum(4);
        let unsharded = run_sharded(6, 9, &spec);
        let sharded = run_sharded(
            6,
            9,
            &spec.clone().with_shard_spec(ShardSpec::sequential(3)),
        );
        assert_eq!(sharded, unsharded);
    }

    #[test]
    fn crash_plans_apply_in_pid_order() {
        let spec = ScenarioSpec::round_robin_batched()
            .with_quantum(2)
            .with_crash_plan(CrashPlan::at_steps([(2usize, 3u64), (5, 0)]));
        let reference = run_sharded(
            6,
            10,
            &spec.clone().with_shard_spec(ShardSpec::sequential(1)),
        );
        assert_eq!(reference.0.crashed, vec![5, 2], "immediate crash first");
        for shards in [2usize, 3, 6] {
            let got = run_sharded(
                6,
                10,
                &spec.clone().with_shard_spec(ShardSpec::new(shards, 2)),
            );
            assert_eq!(got, reference, "S={shards} diverged under crashes");
        }
    }

    #[test]
    fn random_budgets_are_shard_invariant() {
        let spec = ScenarioSpec::random(42).with_quantum(5);
        let reference = run_sharded(
            5,
            13,
            &spec.clone().with_shard_spec(ShardSpec::sequential(1)),
        );
        for shards in [2usize, 5] {
            let got = run_sharded(
                5,
                13,
                &spec.clone().with_shard_spec(ShardSpec::new(shards, 3)),
            );
            assert_eq!(got, reference);
        }
    }

    #[test]
    fn single_step_reference_matches_batched_turns() {
        let spec = ScenarioSpec::round_robin_batched()
            .with_quantum(4)
            .with_shard_spec(ShardSpec::sequential(2));
        let fast = run_sharded(4, 11, &spec);
        let refr = run_sharded(4, 11, &spec.clone().single_step());
        assert_eq!(fast, refr);
    }

    #[test]
    fn performs_record_epoch_major_steps() {
        let mem = VecRegisters::new(0);
        let fleet = vec![PerformOnceProcess::new(1, 7), PerformOnceProcess::new(2, 9)];
        let spec = ScenarioSpec::round_robin_batched()
            .with_quantum(4)
            .with_shard_spec(ShardSpec::sequential(2));
        let (exec, _, _) = run_scenario(mem, fleet, &spec);
        assert_eq!(exec.performed.len(), 2);
        assert_eq!(exec.performed[0].pid, 1);
        assert_eq!(exec.performed[1].pid, 2);
        assert!(exec.performed[0].step < exec.performed[1].step);
        assert_eq!(exec.effectiveness(), 2);
        assert!(exec.violations().is_empty());
    }

    #[test]
    fn step_cap_reports_incomplete() {
        let spec = ScenarioSpec::round_robin_batched()
            .with_quantum(2)
            .with_max_steps(4)
            .with_shard_spec(ShardSpec::sequential(2));
        let (exec, _) = run_sharded(2, 100, &spec);
        assert!(!exec.completed);
        // The cap is epoch-granular: the epoch in flight finishes.
        assert!(exec.total_steps >= 4);
    }

    #[test]
    #[should_panic(expected = "cannot run sharded")]
    fn block_scheduler_rejected() {
        let spec = ScenarioSpec::block(1, 4).with_shard_spec(ShardSpec::sequential(2));
        let (mem, fleet) = writer_fleet(4, 3);
        let _ = run_scenario(mem, fleet, &spec);
    }

    #[test]
    #[should_panic(expected = "crash-stop only")]
    fn restart_plans_rejected() {
        let mut plan = CrashPlan::at_steps([(1usize, 2u64)]);
        plan.restart_after(1, 5);
        let spec = ScenarioSpec::round_robin_batched()
            .with_crash_plan(plan)
            .with_shard_spec(ShardSpec::sequential(2));
        let (mem, fleet) = writer_fleet(4, 3);
        let _ = run_scenario(mem, fleet, &spec);
    }

    #[test]
    #[should_panic(expected = "crash plan names pid 5, but the fleet has pids 1..=4")]
    fn plans_naming_a_missing_pid_rejected() {
        let spec = ScenarioSpec::round_robin_batched()
            .with_crash_plan(CrashPlan::at_steps([(5usize, 2u64)]))
            .with_shard_spec(ShardSpec::sequential(2));
        let (mem, fleet) = writer_fleet(4, 3);
        let _ = run_scenario(mem, fleet, &spec);
    }

    #[test]
    #[should_panic(expected = "swap cannot run sharded")]
    fn swap_rejected() {
        #[derive(Debug)]
        struct Swapper {
            pid: usize,
            terminated: bool,
        }
        impl<R: Registers + ?Sized> Process<R> for Swapper {
            fn step(&mut self, mem: &R) -> StepEvent {
                let _ = mem.swap(0, self.pid as u64);
                self.terminated = true;
                StepEvent::Rmw { cell: 0 }
            }
            fn pid(&self) -> usize {
                self.pid
            }
            fn is_terminated(&self) -> bool {
                self.terminated
            }
        }
        impl ScenarioHooks for Swapper {}
        let spec = ScenarioSpec::round_robin_batched().with_shard_spec(ShardSpec::sequential(2));
        let mem = VecRegisters::new(2);
        let fleet = vec![
            Swapper {
                pid: 1,
                terminated: false,
            },
            Swapper {
                pid: 2,
                terminated: false,
            },
        ];
        let (_, _, _) = run_scenario_sharded(mem, fleet, &spec);
    }

    #[test]
    fn shards_cap_at_fleet_size() {
        let spec = ScenarioSpec::round_robin_batched().with_shard_spec(ShardSpec::new(16, 4));
        let reference =
            ScenarioSpec::round_robin_batched().with_shard_spec(ShardSpec::sequential(1));
        assert_eq!(run_sharded(3, 5, &spec), run_sharded(3, 5, &reference));
    }

    /// A writer that panics mid-epoch once it has taken `fuse` actions —
    /// the stand-in for a buggy process automaton inside a shard turn.
    #[derive(Debug)]
    struct FusedWriter {
        inner: WriterProcess,
        fuse: u64,
        taken: u64,
    }
    impl<R: Registers + ?Sized> Process<R> for FusedWriter {
        fn step(&mut self, mem: &R) -> StepEvent {
            assert!(self.taken < self.fuse, "process bug: fuse blown mid-epoch");
            self.taken += 1;
            self.inner.step(mem)
        }
        fn pid(&self) -> usize {
            <WriterProcess as Process<R>>::pid(&self.inner)
        }
        fn is_terminated(&self) -> bool {
            <WriterProcess as Process<R>>::is_terminated(&self.inner)
        }
    }
    impl ScenarioHooks for FusedWriter {}

    /// A full sharded run must *surface* a process panic inside a shard
    /// epoch — propagated through the panic-safe barrier protocol with its
    /// original payload — not hang the coordinator, for both the
    /// sequential reference and the threaded pool.
    #[test]
    fn sharded_run_surfaces_process_panic() {
        for threads in [1usize, 4] {
            let fleet: Vec<FusedWriter> = (1..=4)
                .map(|p| FusedWriter {
                    inner: WriterProcess::new(p, p - 1, 50),
                    fuse: if p == 3 { 7 } else { u64::MAX },
                    taken: 0,
                })
                .collect();
            let spec = ScenarioSpec::round_robin().with_shard_spec(ShardSpec::new(4, threads));
            let r = catch_unwind(AssertUnwindSafe(|| {
                run_scenario_sharded(VecRegisters::new(4), fleet, &spec)
            }));
            let payload = r.expect_err("the process panic must surface to the caller");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("fuse blown mid-epoch"),
                "threads={threads}: original payload must survive, got {msg:?}"
            );
        }
    }

    /// An armed chaos worker-panic point fires at the epoch boundary and
    /// surfaces identically — and arming is consumed by the run, so a
    /// follow-up run on the same thread is clean.
    #[test]
    fn sharded_run_surfaces_chaos_worker_panic() {
        use crate::chaos::ChaosPlan;
        let plan = ChaosPlan::quiet().worker_panic(1, 2);
        for threads in [1usize, 4] {
            let _guard = plan.arm();
            let (mem, fleet) = writer_fleet(4, 50);
            let spec = ScenarioSpec::round_robin().with_shard_spec(ShardSpec::new(4, threads));
            let r = catch_unwind(AssertUnwindSafe(|| run_scenario_sharded(mem, fleet, &spec)));
            let payload = r.expect_err("the injected panic must surface to the caller");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("chaos: injected worker panic"),
                "threads={threads}: got {msg:?}"
            );
            // The run drained the armed points: the same spec now passes.
            let (mem, fleet) = writer_fleet(4, 50);
            let (exec, _, _) = run_scenario_sharded(mem, fleet, &spec);
            assert!(exec.completed, "threads={threads}: arming must not leak");
        }
    }
}
