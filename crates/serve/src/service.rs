//! The claim service: worker threads driving erased at-most-once fleets
//! over generations of [`AtomicRegisters`].
//!
//! # Generations
//!
//! One KKβ (or any at-most-once) instance solves a *finite* problem: `m`
//! processes, `n` jobs, one register file. A long-running service rolls
//! the fleet forward in **generations**: generation `g` is a fresh
//! register file plus one automaton per worker, claiming from the global
//! job-id block `g·n + 1 ..= (g+1)·n`. Within a generation the algorithm
//! guarantees at-most-once; across generations the id blocks are disjoint
//! by construction — so no job id can ever be performed twice, which the
//! service additionally *audits* at runtime rather than trusts
//! ([`ServiceReport::violations`], pinned at zero by the soak suites).
//!
//! The audit is a bitmap per generation: `n` bits, set with `fetch_or`
//! as local jobs are performed. A performed local job `j` is a violation
//! when `j ∉ 1..=n` or when its bit was already set. No service-wide
//! check is needed: the global id `g·n + j` is injective over `g` and
//! `j ∈ 1..=n`, so two performs of one global id are two performs of one
//! bit of one generation, and a `j` outside the range — whose global id
//! would alias another generation's block — is flagged outright. The
//! bitmap takes no lock, and it lives only as long as its generation. Its
//! popcount, taken by the last worker to retire, is the generation's count
//! of distinct jobs performed.
//!
//! Workers rotate independently: when a worker's automaton terminates its
//! generation (everything claimable is claimed), it retires from that
//! generation and joins the next, building a fresh automaton from the
//! [`FleetBlueprint`]. Workers in different generations never share
//! registers; a generation's accounting completes when every worker has
//! retired from it. A worker that dies for good (see below) retires from
//! its generation and, in advance, from every later one, so the
//! generations the surviving workers pass through keep completing.
//!
//! # Liveness
//!
//! Automatons are wait-free and a solo worker always claims jobs in a
//! fresh generation, so a worker holding a request either finds a job in
//! its stash, claims one by stepping, or terminates a picked-over
//! generation in bounded steps and rotates into a fresher one — every
//! accepted request is eventually granted (the drain guarantee), provided
//! clients keep their total demand finite (they do: quotas).
//!
//! # Shares
//!
//! A worker pops a **share** of the queue per lock acquisition: the
//! oldest `⌈depth / m⌉` queued requests ([`IngestQueue::pop`]). A closed
//! loop finds one request and pops one; a backlog is split about evenly
//! among the `m` workers instead of being handed over one request per
//! lock acquisition. The worker answers its share oldest first, one job
//! each, and pops again only once every request in it is answered.
//!
//! # Supervision and degraded mode
//!
//! A worker thread no longer dies with its first panic. Each worker runs a
//! supervision loop: the drive loop executes under `catch_unwind` while
//! the worker's whole state — automaton, stash, the share it holds, the
//! delivered-wait histogram — lives *outside* it, and a request leaves the
//! share only as its grant is sent, so a recovered panic loses nothing.
//! Two recovery paths:
//!
//! * **Chaos kills** ([`ServiceChaos`]) fire at a clean point (after a
//!   grant is delivered, before the next request is served, no lock
//!   held), so the supervisor resumes the *same* automaton, with the rest
//!   of its share, into the current generation.
//! * **Unrecognised panics** may have died mid-`step`, leaving the
//!   automaton's local state out of sync with the registers; re-stepping
//!   it could double-perform. The supervisor retires from the generation,
//!   rebuilds a fresh automaton in the next one, and re-serves the held
//!   share — accepted ⇒ granted survives the death. A bounded dirty
//!   budget re-raises a worker that keeps dying on its own, but first puts
//!   its share back at the front of the queue for the other workers,
//!   counts its stash as stranded, and retires from its generation and
//!   every later one.
//!
//! A service whose workers have all died is out of scope: nobody is left
//! to serve the queue. So is a share put back during shutdown after every
//! other worker has already drained the closed queue and left.
//!
//! At the client edge, [`ClaimClient::claim_with_deadline`] bounds each
//! wait by a [`RetryPolicy`] (exponential backoff), turning a slow grant
//! into an *explicit* [`ClientError::DeadlineExceeded`] instead of an
//! indefinite block — the request stays outstanding, and the late grant
//! remains collectable. All of it is accounted in the report:
//! [`ServiceReport::worker_restarts`],
//! [`deadline_misses`](ServiceReport::deadline_misses),
//! [`late_recovered`](ServiceReport::late_recovered), and the
//! delivered-only [`grant_waits`](ServiceReport::grant_waits) histogram.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use amo_core::{KkConfig, KkLayout, KkProcess};
use amo_ostree::FenwickSet;
use amo_sim::scenario::{boxed, BoxProcess};
use amo_sim::{AtomicRegisters, StepEvent};

use crate::latency::LatencyHistogram;
use crate::queue::{IngestQueue, QueueStats, Rejected, SubmitError};

/// Panic message used by [`ServiceChaos`] worker kills; the supervisor
/// recognises it as a clean-point kill (no lock held, no request being
/// served) and resumes the same automaton into the current generation.
const CHAOS_KILL_MSG: &str = "chaos: injected worker kill";

/// Restart budget for panics the supervisor does *not* recognise as
/// clean-point chaos kills. Exhausting it hands the worker's share back to
/// the queue and re-raises the panic: a worker that keeps dying on its own
/// is a bug, not churn.
const MAX_DIRTY_RESTARTS: u32 = 64;

/// Live fault injection for the claim service: kill a worker's drive loop
/// (by panicking its thread) after every
/// [`kill_every_grants`](Self::kill_every_grants) grants it delivers, up
/// to [`max_kills_per_worker`](Self::max_kills_per_worker) times.
///
/// Kills fire at a clean point — the grant just delivered, the next
/// request of the worker's share not yet served, no lock held — so the
/// supervisor resumes the same automaton, with the rest of its share,
/// mid-generation without replaying any claim. Every kill is counted in
/// [`ServiceReport::worker_restarts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceChaos {
    /// Deliveries between injected kills (`0` disables injection).
    pub kill_every_grants: u64,
    /// Cap on kills per worker, so a chaotic run still terminates.
    pub max_kills_per_worker: u32,
}

impl ServiceChaos {
    /// Kill after every `every` grants, at most `cap` times per worker.
    pub fn every(every: u64, cap: u32) -> Self {
        Self {
            kill_every_grants: every,
            max_kills_per_worker: cap,
        }
    }
}

/// Client-edge deadline policy for
/// [`ClaimClient::claim_with_deadline`]: the first wait is bounded by
/// [`deadline`](Self::deadline), then up to [`retries`](Self::retries)
/// further waits each **double** the previous bound (exponential
/// backoff). Every expired wait counts a deadline miss; a grant arriving
/// on a later wait counts as late-recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First-attempt grant deadline.
    pub deadline: Duration,
    /// Additional (backed-off) waits after the first miss.
    pub retries: u32,
}

impl RetryPolicy {
    /// Wait `deadline` once, then up to `retries` doubling waits.
    pub fn new(deadline: Duration, retries: u32) -> Self {
        Self { deadline, retries }
    }
}

/// How a service builds the per-generation fleet: `m` erased automatons
/// over a register file of [`cells`](Self::cells) cells, claiming
/// [`jobs_per_generation`](Self::jobs_per_generation) jobs.
///
/// The `BoxProcess` return type is the point of the dyn-friendly process
/// API: a blueprint may hand back *different* concrete automaton types per
/// worker (a mixed population), as long as they run the same protocol over
/// the same layout.
pub trait FleetBlueprint: Send + Sync {
    /// Workers per generation (the algorithm's `m`).
    fn workers(&self) -> usize;

    /// Jobs per generation (the algorithm's `n`).
    fn jobs_per_generation(&self) -> u64;

    /// Register cells each generation allocates.
    fn cells(&self) -> usize;

    /// Builds worker `pid`'s automaton (`1..=m`) for a fresh generation.
    fn build(&self, pid: usize) -> BoxProcess;

    /// Label for reports.
    fn label(&self) -> &'static str {
        "custom"
    }
}

/// The KKβ blueprint: every generation is one `KkConfig` instance, and
/// every worker runs `KkProcess<FenwickSet>`.
#[derive(Debug, Clone)]
pub struct KkBlueprint {
    config: KkConfig,
    layout: KkLayout,
}

impl KkBlueprint {
    /// The KKβ blueprint for `jobs`-job generations served by `workers`
    /// workers.
    pub fn new(jobs: u64, workers: usize) -> Result<Self, amo_core::ConfigError> {
        let config = KkConfig::new(
            usize::try_from(jobs).expect("job count fits usize"),
            workers,
        )?;
        let layout = KkLayout::contiguous(config.m(), config.n(), false);
        Ok(Self { config, layout })
    }

    /// The per-generation effectiveness floor, `n − (β + m − 2)`.
    pub fn effectiveness_bound(&self) -> u64 {
        self.config.effectiveness_bound()
    }
}

impl FleetBlueprint for KkBlueprint {
    fn workers(&self) -> usize {
        self.config.m()
    }

    fn jobs_per_generation(&self) -> u64 {
        self.config.n() as u64
    }

    fn cells(&self) -> usize {
        self.layout.cells()
    }

    fn build(&self, pid: usize) -> BoxProcess {
        boxed(KkProcess::<FenwickSet>::from_config(
            pid,
            &self.config,
            self.layout,
        ))
    }

    fn label(&self) -> &'static str {
        "kk"
    }
}

/// One granted claim, sent back on the client's reply channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The global job id (unique across the service's lifetime).
    pub job: u64,
    /// The worker that performed it.
    pub worker: usize,
    /// The generation it came from.
    pub generation: u64,
    /// Submit-to-grant wait.
    pub wait: Duration,
}

/// One claim request in flight: who to answer, and when it was submitted.
#[derive(Debug)]
pub struct ClaimRequest {
    submitted: Instant,
    reply: mpsc::Sender<Grant>,
}

struct Generation {
    index: u64,
    /// Global-id offset: local job `j` (1-based) is global `base + j`.
    base: u64,
    mem: AtomicRegisters,
    /// The at-most-once audit: bit `j − 1` is set once local job `j` is
    /// performed (see the module docs).
    audit: Box<[AtomicU64]>,
}

/// The generations not yet completed, each with the retirements it has
/// seen, and the workers that died for good.
#[derive(Default)]
struct GenerationTable {
    live: HashMap<u64, (Arc<Generation>, u64)>,
    dead: u64,
}

struct Shared {
    queue: IngestQueue<ClaimRequest>,
    blueprint: Box<dyn FleetBlueprint>,
    generations: Mutex<GenerationTable>,
    violations: AtomicU64,
    granted: AtomicU64,
    /// Grants whose client had already left (reply channel dropped).
    abandoned: AtomicU64,
    /// Jobs performed but never granted (left in worker stashes at close,
    /// or by a worker that died for good).
    stranded: AtomicU64,
    completed_generations: AtomicU64,
    performed_in_completed: AtomicU64,
    /// Optional live fault injection (worker kills).
    chaos: Option<ServiceChaos>,
    /// Worker panics recovered by supervision (chaos kills + dirty).
    worker_restarts: AtomicU64,
    /// Expired `claim_with_deadline` waits across all clients.
    deadline_misses: AtomicU64,
    /// Grants that arrived after at least one missed deadline.
    late_recovered: AtomicU64,
    /// Submit-to-grant waits of **delivered** grants only; abandoned
    /// (deserted-client) grants are excluded so churn cannot skew tails.
    grant_waits: Mutex<LatencyHistogram>,
}

impl Shared {
    fn enter_generation(&self, index: u64) -> Arc<Generation> {
        let mut table = self.generations.lock().expect("generation table poisoned");
        // A generation created now lies past every generation a worker has
        // died in, so each dead worker counts as retired from it from the
        // start.
        let dead = table.dead;
        let (gen, _) = table.live.entry(index).or_insert_with(|| {
            let n = self.blueprint.jobs_per_generation();
            let words = usize::try_from(n.div_ceil(64)).expect("audit bitmap fits in memory");
            let gen = Arc::new(Generation {
                index,
                base: index * n,
                mem: AtomicRegisters::new(self.blueprint.cells()),
                audit: (0..words).map(|_| AtomicU64::new(0)).collect(),
            });
            (gen, dead)
        });
        Arc::clone(gen)
    }

    /// Retires a worker from `gen`.
    fn retire(&self, gen: &Generation) {
        let completed = {
            let mut table = self.generations.lock().expect("generation table poisoned");
            self.retire_locked(&mut table, gen.index)
        };
        if let Some(gen) = completed {
            self.complete(&gen);
        }
    }

    /// Retires a worker that dies for good from `gen` and, in advance,
    /// from every later generation: those already in the table are
    /// credited now, and one created later starts with the credit (see
    /// [`enter_generation`](Self::enter_generation)).
    fn die(&self, gen: &Generation) {
        let completed: Vec<_> = {
            let mut table = self.generations.lock().expect("generation table poisoned");
            table.dead += 1;
            let reached: Vec<u64> = table
                .live
                .keys()
                .copied()
                .filter(|&index| index >= gen.index)
                .collect();
            reached
                .into_iter()
                .filter_map(|index| self.retire_locked(&mut table, index))
                .collect()
        };
        for gen in &completed {
            self.complete(gen);
        }
    }

    /// Counts one retirement from generation `index`, and takes the
    /// generation out of the table once every worker has retired from it.
    /// Completion is decided under the table lock, and only the caller
    /// that removes the entry completes it, so it happens exactly once.
    fn retire_locked(&self, table: &mut GenerationTable, index: u64) -> Option<Arc<Generation>> {
        let (_, retired) = table.live.get_mut(&index)?;
        *retired += 1;
        if *retired < self.blueprint.workers() as u64 {
            return None;
        }
        table.live.remove(&index).map(|(gen, _)| gen)
    }

    /// Accounts a generation every worker has retired from. Each worker
    /// sets its audit bits before it takes the table lock to retire, and
    /// the caller took that lock after every one of them, so the popcount
    /// sees every bit the generation's workers set.
    fn complete(&self, gen: &Generation) {
        self.completed_generations.fetch_add(1, Ordering::Relaxed);
        let performed: u64 = gen
            .audit
            .iter()
            .map(|word| u64::from(word.load(Ordering::Relaxed).count_ones()))
            .sum();
        self.performed_in_completed
            .fetch_add(performed, Ordering::Relaxed);
    }

    fn audit_perform(&self, gen: &Generation, lo: u64, hi: u64) {
        let n = self.blueprint.jobs_per_generation();
        let violations = (lo..=hi)
            .filter(|&j| {
                if j == 0 || j > n {
                    return true;
                }
                let (word, bit) = ((j - 1) / 64, 1 << ((j - 1) % 64));
                gen.audit[word as usize].fetch_or(bit, Ordering::Relaxed) & bit != 0
            })
            .count();
        if violations > 0 {
            self.violations
                .fetch_add(violations as u64, Ordering::Relaxed);
        }
    }
}

/// Everything a worker must not lose when its drive loop panics: the
/// automaton, its undelivered stash, the share it holds and the
/// delivered-wait histogram. Held *outside* `catch_unwind` so the
/// supervisor resumes mid-generation with nothing replayed or dropped.
struct WorkerState {
    gen_index: u64,
    gen: Arc<Generation>,
    automaton: BoxProcess,
    stash: VecDeque<u64>,
    /// The worker's share: popped requests not yet answered, oldest first.
    /// A request leaves only as its grant is sent, so a recovered panic
    /// re-serves it and a worker that dies for good hands it back to the
    /// queue (accepted ⇒ granted survives the death).
    held: VecDeque<ClaimRequest>,
    delivered: u64,
    kills: u32,
    waits: LatencyHistogram,
}

impl WorkerState {
    /// Accounts what a stopping worker leaves: its delivered waits, and
    /// its stash — jobs performed but never matched to a request.
    fn settle(&self, shared: &Shared) {
        shared
            .grant_waits
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(&self.waits);
        shared
            .stranded
            .fetch_add(self.stash.len() as u64, Ordering::Relaxed);
    }
}

/// One supervised stint of a worker: runs until the queue is closed and
/// drained, or until a panic (a real bug or an injected chaos kill)
/// unwinds back to the supervisor in [`worker_loop`].
fn worker_drive(shared: &Shared, pid: usize, state: &mut WorkerState) {
    let m = shared.blueprint.workers();
    loop {
        if state.held.is_empty() && !shared.queue.pop(m, &mut state.held) {
            return;
        }
        let job = loop {
            if let Some(job) = state.stash.pop_front() {
                break job;
            }
            match state.automaton.step(&state.gen.mem) {
                StepEvent::Perform { span } => {
                    shared.audit_perform(&state.gen, span.lo, span.hi);
                    for j in span.jobs() {
                        state.stash.push_back(state.gen.base + j);
                    }
                }
                StepEvent::Terminated => {
                    shared.retire(&state.gen);
                    state.gen_index += 1;
                    state.gen = shared.enter_generation(state.gen_index);
                    state.automaton = shared.blueprint.build(pid);
                }
                _ => {}
            }
        };
        let req = state.held.pop_front().expect("a share is held");
        let wait = req.submitted.elapsed();
        let grant = Grant {
            job,
            worker: pid,
            generation: state.gen.index,
            wait,
        };
        shared.granted.fetch_add(1, Ordering::Relaxed);
        state.delivered += 1;
        if req.reply.send(grant).is_err() {
            // Client churn: the requester left before its grant arrived.
            // The job is performed either way; account it as abandoned —
            // and keep it out of the wait histogram, since a deserted
            // grant's "wait" measures the deserter, not the service.
            shared.abandoned.fetch_add(1, Ordering::Relaxed);
        } else {
            state.waits.record(wait);
        }
        if let Some(chaos) = shared.chaos {
            if chaos.kill_every_grants > 0
                && state.delivered % chaos.kill_every_grants == 0
                && state.kills < chaos.max_kills_per_worker
            {
                state.kills += 1;
                panic!(
                    "{CHAOS_KILL_MSG} (worker {pid}, delivery {})",
                    state.delivered
                );
            }
        }
    }
}

/// Whether a caught panic payload is a [`ServiceChaos`] kill.
fn is_chaos_kill(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<String>()
        .map(|s| s.contains(CHAOS_KILL_MSG))
        .or_else(|| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.contains(CHAOS_KILL_MSG))
        })
        .unwrap_or(false)
}

fn worker_loop(shared: &Shared, pid: usize) {
    let mut state = WorkerState {
        gen_index: 0,
        gen: shared.enter_generation(0),
        automaton: shared.blueprint.build(pid),
        stash: VecDeque::new(),
        held: VecDeque::new(),
        delivered: 0,
        kills: 0,
        waits: LatencyHistogram::new(),
    };
    let mut dirty_restarts = 0u32;
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_drive(shared, pid, &mut state))) {
            // Queue closed and drained: the worker retires cleanly.
            Ok(()) => break,
            Err(payload) => {
                shared.worker_restarts.fetch_add(1, Ordering::Relaxed);
                if is_chaos_kill(payload.as_ref()) {
                    // Clean-point kill: automaton, stash and share are all
                    // intact — resume into the current generation.
                    continue;
                }
                dirty_restarts += 1;
                if dirty_restarts > MAX_DIRTY_RESTARTS {
                    // The share goes back to the other workers, and the
                    // generations this one will never reach are released;
                    // only then may it die.
                    shared.queue.readmit(&mut state.held);
                    state.settle(shared);
                    shared.die(&state.gen);
                    resume_unwind(payload);
                }
                // An unrecognised panic may have died mid-`step`, leaving
                // the automaton's local state inconsistent with the
                // registers; re-stepping it (or a same-pid twin) could
                // double-perform. Retire from this generation and rebuild
                // in the next — the stash and the held share are still
                // sound and carry over.
                shared.retire(&state.gen);
                state.gen_index += 1;
                state.gen = shared.enter_generation(state.gen_index);
                state.automaton = shared.blueprint.build(pid);
            }
        }
    }
    state.settle(shared);
}

/// A handle for submitting claim requests and receiving [`Grant`]s.
///
/// Each client owns a private reply channel. A [`Grant`] carries no request
/// identity, and with `m ≥ 2` workers the grants for a client's
/// outstanding requests can come back in any order: the requests may sit
/// in different workers' shares, each served oldest first. Clones of the
/// underlying service handle are cheap — spawn one client per requester
/// thread via [`ClaimService::client`].
pub struct ClaimClient {
    shared: Arc<Shared>,
    reply_tx: mpsc::Sender<Grant>,
    reply_rx: mpsc::Receiver<Grant>,
    /// Accepted-but-unreceived requests; [`recv`](Self::recv) consults
    /// this so it only ever blocks when a grant is genuinely due.
    outstanding: std::cell::Cell<u64>,
}

/// Why a client operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientError {
    /// Submission rejected by admission control ([`SubmitError::Full`])
    /// or because the service is shutting down
    /// ([`SubmitError::Closed`]).
    Rejected(SubmitError),
    /// [`ClaimClient::recv`] was called with no accepted request
    /// outstanding — there is no grant to wait for, and blocking would
    /// hang forever.
    NothingOutstanding,
    /// [`ClaimClient::claim_with_deadline`] exhausted its deadline and
    /// every backed-off retry without the grant arriving. The request is
    /// still outstanding — accepted ⇒ granted holds, so the late grant
    /// remains owed and a later [`recv`](ClaimClient::recv) collects it.
    DeadlineExceeded,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Rejected(e) => write!(f, "request rejected: {e}"),
            ClientError::NothingOutstanding => write!(f, "no outstanding request to receive for"),
            ClientError::DeadlineExceeded => {
                write!(f, "grant deadline exceeded after bounded retries")
            }
        }
    }
}

impl ClaimClient {
    fn request(&self) -> ClaimRequest {
        ClaimRequest {
            submitted: Instant::now(),
            reply: self.reply_tx.clone(),
        }
    }

    /// Non-blocking submit: queues one claim request, or reports
    /// backpressure/closure immediately.
    pub fn try_submit(&self) -> Result<(), ClientError> {
        self.shared
            .queue
            .try_push(self.request())
            .map_err(|Rejected { reason, .. }| ClientError::Rejected(reason))?;
        self.outstanding.set(self.outstanding.get() + 1);
        Ok(())
    }

    /// Blocking submit: waits out backpressure; fails only on shutdown.
    pub fn submit(&self) -> Result<(), ClientError> {
        self.shared
            .queue
            .push(self.request())
            .map_err(|Rejected { reason, .. }| ClientError::Rejected(reason))?;
        self.outstanding.set(self.outstanding.get() + 1);
        Ok(())
    }

    /// Requests accepted on this client's behalf and not yet received.
    pub fn outstanding(&self) -> u64 {
        self.outstanding.get()
    }

    /// Receives the next grant for this client's outstanding requests.
    ///
    /// Blocks only while a grant is genuinely due (an accepted request is
    /// outstanding — the service contract then guarantees delivery, even
    /// through shutdown); with nothing outstanding it returns
    /// [`ClientError::NothingOutstanding`] immediately instead of hanging.
    pub fn recv(&self) -> Result<Grant, ClientError> {
        if self.outstanding.get() == 0 {
            return Err(ClientError::NothingOutstanding);
        }
        let grant = self
            .reply_rx
            .recv()
            .expect("accepted requests are always granted (drain guarantee)");
        self.outstanding.set(self.outstanding.get() - 1);
        Ok(grant)
    }

    /// Submit-and-wait: one closed-loop claim. On backpressure
    /// ([`SubmitError::Full`] from the fast path) it falls back to the
    /// blocking submit, so the caller observes backpressure as latency —
    /// the intended degradation mode — rather than as an error.
    pub fn claim(&self) -> Result<Grant, ClientError> {
        match self.try_submit() {
            Ok(()) => {}
            Err(ClientError::Rejected(SubmitError::Full)) => self.submit()?,
            Err(e) => return Err(e),
        }
        self.recv()
    }

    /// Submit-and-wait with bounded waits: like [`claim`](Self::claim),
    /// but each wait for the grant is bounded by the [`RetryPolicy`] —
    /// the first for `policy.deadline`, each of the `policy.retries`
    /// further waits doubling the previous bound (exponential backoff).
    ///
    /// Every expired wait is counted as a deadline miss
    /// ([`ServiceReport::deadline_misses`]); a grant arriving on a later
    /// wait is counted late-recovered
    /// ([`ServiceReport::late_recovered`]). When every wait expires this
    /// returns [`ClientError::DeadlineExceeded`] — an *explicit* failure
    /// in place of an indefinite block. The request stays outstanding
    /// (the grant is still owed by the drain guarantee), so a later
    /// [`recv`](Self::recv) collects it.
    pub fn claim_with_deadline(&self, policy: RetryPolicy) -> Result<Grant, ClientError> {
        match self.try_submit() {
            Ok(()) => {}
            Err(ClientError::Rejected(SubmitError::Full)) => self.submit()?,
            Err(e) => return Err(e),
        }
        let mut bound = policy.deadline;
        for attempt in 0..=policy.retries {
            match self.reply_rx.recv_timeout(bound) {
                Ok(grant) => {
                    self.outstanding.set(self.outstanding.get() - 1);
                    if attempt > 0 {
                        self.shared.late_recovered.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(grant);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.shared.deadline_misses.fetch_add(1, Ordering::Relaxed);
                    bound = bound.saturating_mul(2);
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("client holds its own reply sender; channel cannot disconnect")
                }
            }
        }
        Err(ClientError::DeadlineExceeded)
    }

    /// Turns this client into a deserter: the receiving half is dropped
    /// *now*, so every grant for its outstanding and future requests is
    /// delivered-to-nobody and counted abandoned — deterministically,
    /// rather than racing the worker's delivery against the client's
    /// departure. The churn suites pin their abandoned counts with this.
    pub fn desert(self) -> DesertedClient {
        let ClaimClient {
            shared, reply_tx, ..
        } = self;
        DesertedClient { shared, reply_tx }
    }
}

/// A claim client that has walked away from its grants (see
/// [`ClaimClient::desert`]): it can still submit, but nothing it is owed
/// can ever be delivered — the at-most-once service performs the job and
/// accounts the grant as abandoned.
pub struct DesertedClient {
    shared: Arc<Shared>,
    reply_tx: mpsc::Sender<Grant>,
}

impl DesertedClient {
    /// Blocking submit, as [`ClaimClient::submit`]; the resulting grant
    /// is performed and then abandoned.
    pub fn submit(&self) -> Result<(), ClientError> {
        self.shared
            .queue
            .push(ClaimRequest {
                submitted: Instant::now(),
                reply: self.reply_tx.clone(),
            })
            .map_err(|Rejected { reason, .. }| ClientError::Rejected(reason))
    }
}

/// Final accounting of a service run (returned by
/// [`ClaimService::shutdown`]).
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Blueprint label.
    pub fleet: &'static str,
    /// Workers in each generation's fleet.
    pub workers: usize,
    /// Jobs per generation.
    pub jobs_per_generation: u64,
    /// Grants delivered (including abandoned ones).
    pub granted: u64,
    /// Grants whose client had left (reply channel dropped) — churn.
    pub abandoned: u64,
    /// Jobs performed but never granted (stash remainders at close, or of
    /// a worker that died for good).
    pub stranded: u64,
    /// **The at-most-once audit**: global job ids performed more than
    /// once, plus performed ids outside their generation's block (a
    /// local job `j ∉ 1..=n`). Zero for a correct fleet, asserted by the
    /// soak suites.
    pub violations: u64,
    /// Worker panics recovered by supervision — injected chaos kills
    /// resumed in place, plus unrecognised panics restarted into the next
    /// generation.
    pub worker_restarts: u64,
    /// Expired [`claim_with_deadline`](ClaimClient::claim_with_deadline)
    /// waits across all clients.
    pub deadline_misses: u64,
    /// Grants that arrived after at least one missed deadline (the
    /// abandoned-then-recovered path).
    pub late_recovered: u64,
    /// Submit-to-grant waits of **delivered** grants only. Abandoned
    /// (deserted-client) grants are excluded, so churn cannot skew the
    /// latency tails.
    pub grant_waits: LatencyHistogram,
    /// Generations every worker retired from. A worker that died for good
    /// counts as retired from every generation after the one it died in.
    pub completed_generations: u64,
    /// Distinct jobs performed within those completed generations, as
    /// the paper's effectiveness counts them: a job performed twice counts
    /// once, and an id outside its generation's block not at all.
    pub performed_in_completed: u64,
    /// Ingest-queue counters (admission control evidence:
    /// `peak_depth ≤ capacity` unless a dead worker's share went back into
    /// a full queue).
    pub queue: QueueStats,
    /// Queue capacity the service ran with.
    pub queue_capacity: usize,
    /// Service lifetime, start to drained shutdown.
    pub elapsed: Duration,
}

impl ServiceReport {
    /// Sustained grant throughput over the service lifetime.
    pub fn claims_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.granted as f64 / secs
        }
    }

    /// Effectiveness over completed generations: jobs performed vs. jobs
    /// offered (`completed_generations · n`), as a fraction in `0..=1`.
    /// `None` until a generation completes.
    pub fn effectiveness(&self) -> Option<f64> {
        let offered = self.completed_generations * self.jobs_per_generation;
        (offered > 0).then(|| self.performed_in_completed as f64 / offered as f64)
    }
}

/// The running service: `m` worker threads over generational
/// [`AtomicRegisters`], fed by the bounded ingest queue.
///
/// See the crate docs for the service contract. Construct with
/// [`start`](Self::start), submit through [`client`](Self::client)
/// handles, finish with [`shutdown`](Self::shutdown).
pub struct ClaimService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    started: Instant,
}

impl ClaimService {
    /// Starts the service: spawns one OS worker thread per blueprint
    /// worker, all initially parked on the empty ingest queue.
    pub fn start(blueprint: impl FleetBlueprint + 'static, queue_capacity: usize) -> Self {
        Self::start_boxed(Box::new(blueprint), queue_capacity)
    }

    /// [`start`](Self::start) with live fault injection: worker threads
    /// are killed per `chaos` and supervised back to life mid-generation
    /// (see the module docs on supervision).
    pub fn start_chaotic(
        blueprint: impl FleetBlueprint + 'static,
        queue_capacity: usize,
        chaos: ServiceChaos,
    ) -> Self {
        Self::start_with(Box::new(blueprint), queue_capacity, Some(chaos))
    }

    /// [`start`](Self::start) for an already-erased blueprint.
    pub fn start_boxed(blueprint: Box<dyn FleetBlueprint>, queue_capacity: usize) -> Self {
        Self::start_with(blueprint, queue_capacity, None)
    }

    fn start_with(
        blueprint: Box<dyn FleetBlueprint>,
        queue_capacity: usize,
        chaos: Option<ServiceChaos>,
    ) -> Self {
        let m = blueprint.workers();
        assert!(m > 0, "blueprint must have at least one worker");
        let shared = Arc::new(Shared {
            queue: IngestQueue::new(queue_capacity),
            blueprint,
            generations: Mutex::default(),
            violations: AtomicU64::new(0),
            granted: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            stranded: AtomicU64::new(0),
            completed_generations: AtomicU64::new(0),
            performed_in_completed: AtomicU64::new(0),
            chaos,
            worker_restarts: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            late_recovered: AtomicU64::new(0),
            grant_waits: Mutex::new(LatencyHistogram::new()),
        });
        let workers = (1..=m)
            .map(|pid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("amo-serve-worker-{pid}"))
                    .spawn(move || worker_loop(&shared, pid))
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            shared,
            workers,
            started: Instant::now(),
        }
    }

    /// A new client handle with its own private reply channel.
    pub fn client(&self) -> ClaimClient {
        let (reply_tx, reply_rx) = mpsc::channel();
        ClaimClient {
            shared: Arc::clone(&self.shared),
            reply_tx,
            reply_rx,
            outstanding: std::cell::Cell::new(0),
        }
    }

    /// Grants delivered so far (live counter).
    pub fn granted(&self) -> u64 {
        self.shared.granted.load(Ordering::Relaxed)
    }

    /// Audit violations so far (live counter; must stay zero).
    pub fn violations(&self) -> u64 {
        self.shared.violations.load(Ordering::Relaxed)
    }

    /// Closes the ingest queue, waits for the workers to drain every
    /// accepted request, and returns the final accounting.
    pub fn shutdown(self) -> ServiceReport {
        self.shared.queue.close();
        for handle in self.workers {
            // A worker that exhausted its dirty-restart budget re-raised
            // its final panic; the restarts are already counted, so the
            // accounting finishes with what the surviving workers
            // delivered instead of tearing down the report.
            let _ = handle.join();
        }
        let elapsed = self.started.elapsed();
        let shared = &self.shared;
        ServiceReport {
            fleet: shared.blueprint.label(),
            workers: shared.blueprint.workers(),
            jobs_per_generation: shared.blueprint.jobs_per_generation(),
            granted: shared.granted.load(Ordering::Relaxed),
            abandoned: shared.abandoned.load(Ordering::Relaxed),
            stranded: shared.stranded.load(Ordering::Relaxed),
            violations: shared.violations.load(Ordering::Relaxed),
            worker_restarts: shared.worker_restarts.load(Ordering::Relaxed),
            deadline_misses: shared.deadline_misses.load(Ordering::Relaxed),
            late_recovered: shared.late_recovered.load(Ordering::Relaxed),
            grant_waits: shared
                .grant_waits
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            completed_generations: shared.completed_generations.load(Ordering::Relaxed),
            performed_in_completed: shared.performed_in_completed.load(Ordering::Relaxed),
            queue: shared.queue.stats(),
            queue_capacity: shared.queue.capacity(),
            elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::within_watchdog;
    use std::collections::HashSet;
    use std::sync::Condvar;

    #[test]
    fn grants_are_unique_and_complete() {
        let svc = ClaimService::start(KkBlueprint::new(64, 3).unwrap(), 8);
        let client = svc.client();
        let mut jobs = HashSet::new();
        for _ in 0..200 {
            let grant = client.claim().expect("live service grants");
            assert!(jobs.insert(grant.job), "job {} granted twice", grant.job);
        }
        let report = svc.shutdown();
        assert_eq!(report.granted, 200);
        assert_eq!(report.violations, 0);
        assert_eq!(report.abandoned, 0);
        assert!(report.queue.peak_depth <= 8);
        assert_eq!(report.queue.accepted, 200);
    }

    #[test]
    fn generations_roll_over() {
        // 200 claims over 64-job generations forces at least 3 generations
        // (and with one worker, completes each before moving on).
        let svc = ClaimService::start(KkBlueprint::new(64, 1).unwrap(), 4);
        let client = svc.client();
        let mut max_gen = 0;
        for _ in 0..200 {
            max_gen = max_gen.max(client.claim().unwrap().generation);
        }
        assert!(max_gen >= 3, "64-job generations must roll (saw {max_gen})");
        let report = svc.shutdown();
        assert!(report.completed_generations >= 3);
        let eff = report.effectiveness().expect("completed generations");
        // Solo KKβ (m = 1, β = 1): bound is n − (β + m − 2) = n, and a
        // completed generation was fully drained by the single worker.
        assert!(eff > 0.9, "effectiveness {eff} too low");
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let svc = ClaimService::start(KkBlueprint::new(64, 2).unwrap(), 32);
        let client = svc.client();
        for _ in 0..10 {
            client.submit().expect("accepted");
        }
        // Shut down with requests still in flight: all 10 must be granted.
        let report = svc.shutdown();
        assert_eq!(report.granted, 10);
        let mut got = 0;
        while client.recv().is_ok() {
            got += 1;
        }
        assert_eq!(got, 10, "every accepted request answered");
        assert_eq!(
            client.try_submit().unwrap_err(),
            ClientError::Rejected(SubmitError::Closed)
        );
    }

    /// A worker automaton that sleeps before every perform — a
    /// deterministic way to force client-edge deadline misses.
    #[derive(Debug)]
    struct StallProcess {
        pid: usize,
        next: u64,
        jobs: u64,
        stall: Duration,
    }

    impl<R: amo_sim::Registers + ?Sized> amo_sim::Process<R> for StallProcess {
        fn step(&mut self, _mem: &R) -> StepEvent {
            if self.next > self.jobs {
                return StepEvent::Terminated;
            }
            std::thread::sleep(self.stall);
            let j = self.next;
            self.next += 1;
            StepEvent::Perform { span: j.into() }
        }

        fn pid(&self) -> usize {
            self.pid
        }

        fn is_terminated(&self) -> bool {
            self.next > self.jobs
        }
    }

    impl amo_sim::scenario::ScenarioHooks for StallProcess {}

    #[derive(Debug, Clone)]
    struct StallBlueprint {
        jobs: u64,
        stall: Duration,
    }

    impl FleetBlueprint for StallBlueprint {
        fn workers(&self) -> usize {
            1
        }

        fn jobs_per_generation(&self) -> u64 {
            self.jobs
        }

        fn cells(&self) -> usize {
            1
        }

        fn build(&self, pid: usize) -> BoxProcess {
            boxed(StallProcess {
                pid,
                next: 1,
                jobs: self.jobs,
                stall: self.stall,
            })
        }

        fn label(&self) -> &'static str {
            "stall"
        }
    }

    /// A solo automaton whose first step dies with an unrecognised panic
    /// (a "real bug", not a chaos kill). Rebuilt twins claim normally.
    #[derive(Debug)]
    struct FaultyOnceProcess {
        pid: usize,
        next: u64,
        jobs: u64,
        armed: Arc<std::sync::atomic::AtomicBool>,
    }

    impl<R: amo_sim::Registers + ?Sized> amo_sim::Process<R> for FaultyOnceProcess {
        fn step(&mut self, _mem: &R) -> StepEvent {
            if self.armed.swap(false, Ordering::Relaxed) {
                panic!("process bug: dirty mid-step death");
            }
            if self.next > self.jobs {
                return StepEvent::Terminated;
            }
            let j = self.next;
            self.next += 1;
            StepEvent::Perform { span: j.into() }
        }

        fn pid(&self) -> usize {
            self.pid
        }

        fn is_terminated(&self) -> bool {
            self.next > self.jobs
        }
    }

    impl amo_sim::scenario::ScenarioHooks for FaultyOnceProcess {}

    #[derive(Debug, Clone)]
    struct FaultyOnceBlueprint {
        jobs: u64,
        armed: Arc<std::sync::atomic::AtomicBool>,
    }

    impl FleetBlueprint for FaultyOnceBlueprint {
        fn workers(&self) -> usize {
            1
        }

        fn jobs_per_generation(&self) -> u64 {
            self.jobs
        }

        fn cells(&self) -> usize {
            1
        }

        fn build(&self, pid: usize) -> BoxProcess {
            boxed(FaultyOnceProcess {
                pid,
                next: 1,
                jobs: self.jobs,
                armed: Arc::clone(&self.armed),
            })
        }

        fn label(&self) -> &'static str {
            "faulty-once"
        }
    }

    /// A solo automaton that performs a fixed script of local jobs, one
    /// per step, then terminates — a way to make the audit fire.
    #[derive(Debug)]
    struct ScriptedProcess {
        pid: usize,
        script: &'static [u64],
        next: usize,
    }

    impl<R: amo_sim::Registers + ?Sized> amo_sim::Process<R> for ScriptedProcess {
        fn step(&mut self, _mem: &R) -> StepEvent {
            let Some(&j) = self.script.get(self.next) else {
                return StepEvent::Terminated;
            };
            self.next += 1;
            StepEvent::Perform { span: j.into() }
        }

        fn pid(&self) -> usize {
            self.pid
        }

        fn is_terminated(&self) -> bool {
            self.next >= self.script.len()
        }
    }

    impl amo_sim::scenario::ScenarioHooks for ScriptedProcess {}

    #[derive(Debug, Clone)]
    struct ScriptedBlueprint {
        jobs: u64,
        script: &'static [u64],
    }

    impl FleetBlueprint for ScriptedBlueprint {
        fn workers(&self) -> usize {
            1
        }

        fn jobs_per_generation(&self) -> u64 {
            self.jobs
        }

        fn cells(&self) -> usize {
            1
        }

        fn build(&self, pid: usize) -> BoxProcess {
            boxed(ScriptedProcess {
                pid,
                script: self.script,
                next: 0,
            })
        }

        fn label(&self) -> &'static str {
            "scripted"
        }
    }

    /// Claims `claims` grants from a solo service; the worker steps only
    /// on demand, so the claim count fixes exactly which steps run.
    fn claim_scripted(
        jobs: u64,
        script: &'static [u64],
        claims: usize,
    ) -> (Vec<Grant>, ServiceReport) {
        let svc = ClaimService::start(ScriptedBlueprint { jobs, script }, 4);
        let client = svc.client();
        let grants = (0..claims).map(|_| client.claim().unwrap()).collect();
        (grants, svc.shutdown())
    }

    #[test]
    fn audit_counts_a_job_performed_twice() {
        // Generation 0 performs 1, 1, 2, 3, 4; the sixth claim terminates
        // it and takes job 1 of generation 1.
        let (grants, report) = claim_scripted(4, &[1, 1, 2, 3, 4], 6);
        let jobs: Vec<u64> = grants.iter().map(|g| g.job).collect();
        assert_eq!(jobs, [1, 1, 2, 3, 4, 5], "the duplicate reached a client");
        assert_eq!(report.violations, 1);
        assert_eq!(report.completed_generations, 1);
        assert_eq!(report.performed_in_completed, 4, "job 1 counts once");
    }

    #[test]
    fn audit_flags_a_job_outside_its_generation() {
        // An off-by-one automaton performs 2..=n + 1: generation g's local
        // job 5 is global id 4g + 5, job 1 of generation g + 1's block. No
        // global id repeats (generation g + 1 never performs its own job
        // 1), so only the per-generation range check can see it.
        let (grants, report) = claim_scripted(4, &[2, 3, 4, 5], 5);
        let jobs: Vec<u64> = grants.iter().map(|g| g.job).collect();
        assert_eq!(jobs, [2, 3, 4, 5, 6]);
        assert_eq!(report.violations, 1, "job 5 lies outside 1..=4");
        assert_eq!(report.completed_generations, 1);
        assert_eq!(
            report.performed_in_completed, 3,
            "an id outside the block is not a job of this generation"
        );
    }

    #[test]
    fn chaos_killed_workers_recover_mid_generation() {
        let chaos = ServiceChaos::every(7, 3);
        let svc = ClaimService::start_chaotic(KkBlueprint::new(64, 3).unwrap(), 8, chaos);
        let client = svc.client();
        let mut jobs = HashSet::new();
        for _ in 0..200 {
            let grant = client.claim().expect("supervised service keeps granting");
            assert!(jobs.insert(grant.job), "job {} granted twice", grant.job);
        }
        let report = svc.shutdown();
        assert_eq!(report.granted, 200);
        assert_eq!(report.violations, 0);
        assert!(report.worker_restarts > 0, "injected kills must have fired");
        assert_eq!(report.grant_waits.count(), 200, "delivered grants recorded");
        assert!(report.queue.peak_depth <= 8);
    }

    /// Pipelined claims, so the workers hold shares larger than one, while
    /// chaos kills land between the grants of a share: every request is
    /// answered exactly once, none twice.
    #[test]
    fn pipelined_shares_survive_chaos_kills() {
        within_watchdog(|| {
            let chaos = ServiceChaos::every(7, 3);
            let svc = ClaimService::start_chaotic(KkBlueprint::new(64, 2).unwrap(), 32, chaos);
            let client = svc.client();
            let mut jobs = HashSet::new();
            for _ in 0..8 {
                for _ in 0..32 {
                    client.submit().expect("live service accepts");
                }
                for _ in 0..32 {
                    let grant = client.recv().expect("supervised service keeps granting");
                    assert!(jobs.insert(grant.job), "job {} granted twice", grant.job);
                }
            }
            let report = svc.shutdown();
            assert_eq!(report.granted, 256);
            assert_eq!(report.granted, report.queue.accepted);
            assert_eq!(report.violations, 0);
            assert!(report.worker_restarts > 0, "injected kills must have fired");
            assert_eq!(report.grant_waits.count(), 256, "delivered grants recorded");
            assert!(report.queue.peak_depth <= 32);
        });
    }

    /// Pid 1 dies on every step. Pid 2 counts through `1..=jobs`, but
    /// takes its first step only once pid 1 has died holding requests
    /// (`died`), so pid 1 is sure to hold a share when it dies.
    #[derive(Debug)]
    struct DyingPeerProcess {
        pid: usize,
        next: u64,
        jobs: u64,
        died: Arc<(Mutex<bool>, Condvar)>,
    }

    impl<R: amo_sim::Registers + ?Sized> amo_sim::Process<R> for DyingPeerProcess {
        fn step(&mut self, _mem: &R) -> StepEvent {
            let (died, cvar) = &*self.died;
            if self.pid == 1 {
                *died.lock().unwrap() = true;
                cvar.notify_all();
                panic!("process bug: pid 1 dies on every step");
            }
            drop(
                cvar.wait_while(died.lock().unwrap(), |died| !*died)
                    .unwrap(),
            );
            if self.next > self.jobs {
                return StepEvent::Terminated;
            }
            let j = self.next;
            self.next += 1;
            StepEvent::Perform { span: j.into() }
        }

        fn pid(&self) -> usize {
            self.pid
        }

        fn is_terminated(&self) -> bool {
            self.next > self.jobs
        }
    }

    impl amo_sim::scenario::ScenarioHooks for DyingPeerProcess {}

    #[derive(Debug, Clone)]
    struct DyingPeerBlueprint {
        jobs: u64,
        died: Arc<(Mutex<bool>, Condvar)>,
    }

    impl FleetBlueprint for DyingPeerBlueprint {
        fn workers(&self) -> usize {
            2
        }

        fn jobs_per_generation(&self) -> u64 {
            self.jobs
        }

        fn cells(&self) -> usize {
            1
        }

        fn build(&self, pid: usize) -> BoxProcess {
            boxed(DyingPeerProcess {
                pid,
                next: 1,
                jobs: self.jobs,
                died: Arc::clone(&self.died),
            })
        }

        fn label(&self) -> &'static str {
            "dying-peer"
        }
    }

    /// A worker that exhausts its dirty-restart budget puts its share back
    /// at the front of the queue, and the surviving worker grants it.
    #[test]
    fn a_dead_workers_share_is_granted_by_the_others() {
        within_watchdog(|| {
            let bp = DyingPeerBlueprint {
                jobs: 64,
                died: Arc::default(),
            };
            let svc = ClaimService::start(bp, 32);
            let client = svc.client();
            for _ in 0..32 {
                client.submit().expect("accepted");
            }
            let mut jobs = HashSet::new();
            for _ in 0..32 {
                let grant = client.recv().expect("every accepted claim is granted");
                assert_eq!(grant.worker, 2, "pid 1 never performs");
                assert!(jobs.insert(grant.job), "job {} granted twice", grant.job);
            }
            let report = svc.shutdown();
            assert_eq!(report.granted, 32);
            assert_eq!(
                report.queue.accepted, 32,
                "a share put back is no new admission"
            );
            assert_eq!(report.worker_restarts, u64::from(MAX_DIRTY_RESTARTS) + 1);
            assert_eq!(report.violations, 0);
            assert_eq!(report.stranded, 0);
        });
    }

    /// Once pid 1 dies for good, pid 2 runs alone through generations pid
    /// 1 will never enter, and each must still complete: a lost completion
    /// would stall `completed_generations` at the generation pid 1 died in
    /// and keep every later generation's registers and audit alive.
    #[test]
    fn a_dead_worker_leaves_later_generations_completing() {
        within_watchdog(|| {
            let bp = DyingPeerBlueprint {
                jobs: 4,
                died: Arc::default(),
            };
            let svc = ClaimService::start(bp, 32);
            let client = svc.client();
            for _ in 0..32 {
                client.submit().expect("accepted");
            }
            let mut highest = 0;
            for _ in 0..32 {
                let grant = client.recv().expect("every accepted claim is granted");
                highest = highest.max(grant.generation);
            }
            for _ in 0..400 {
                let grant = client.claim().expect("the survivor keeps granting");
                highest = highest.max(grant.generation);
            }
            let report = svc.shutdown();
            assert_eq!(report.worker_restarts, u64::from(MAX_DIRTY_RESTARTS) + 1);
            assert!(
                highest > u64::from(MAX_DIRTY_RESTARTS),
                "pid 2 must pass the generation pid 1 died in (reached {highest})"
            );
            assert!(
                report.completed_generations >= highest,
                "{} generations completed, grants reached generation {highest}",
                report.completed_generations
            );
            assert_eq!(report.violations, 0);
        });
    }

    #[test]
    fn dirty_panic_reserves_the_inflight_request() {
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let bp = FaultyOnceBlueprint {
            jobs: 8,
            armed: Arc::clone(&armed),
        };
        let svc = ClaimService::start(bp, 4);
        let client = svc.client();
        // The first step dies mid-claim; the supervisor must rebuild into
        // the next generation and re-serve the held request.
        let grant = client.claim().expect("request survives the worker bug");
        assert_eq!(grant.generation, 1, "rebuilt into the next generation");
        let report = svc.shutdown();
        assert_eq!(report.granted, 1);
        assert_eq!(report.worker_restarts, 1);
        assert_eq!(report.violations, 0);
        assert!(!armed.load(Ordering::Relaxed), "the bug actually fired");
    }

    #[test]
    fn deadlines_miss_explicitly_then_late_grants_recover() {
        let svc = ClaimService::start(
            StallBlueprint {
                jobs: 4,
                stall: Duration::from_millis(30),
            },
            4,
        );
        let client = svc.client();
        // Total budget 1 ms + 2 ms ≪ the 30 ms stall: every wait expires,
        // and the failure is explicit instead of an indefinite block.
        let tight = RetryPolicy::new(Duration::from_millis(1), 1);
        assert_eq!(
            client.claim_with_deadline(tight).unwrap_err(),
            ClientError::DeadlineExceeded
        );
        assert_eq!(client.outstanding(), 1, "the grant is still owed");
        let late = client.recv().expect("late grant still delivered");
        assert!(late.job >= 1);
        // A policy with enough backoff misses early waits but recovers.
        let patient = RetryPolicy::new(Duration::from_millis(1), 12);
        let grant = client
            .claim_with_deadline(patient)
            .expect("recovers within the backed-off waits");
        assert_ne!(grant.job, late.job);
        let report = svc.shutdown();
        assert!(report.deadline_misses >= 3, "both claims missed deadlines");
        assert_eq!(report.late_recovered, 1);
        assert_eq!(report.granted, 2);
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn churned_clients_are_abandoned_not_fatal() {
        let svc = ClaimService::start(KkBlueprint::new(64, 2).unwrap(), 8);
        {
            // Deserts first (receiver gone), then submits: the grant is
            // deterministically undeliverable.
            let leaver = svc.client().desert();
            leaver.submit().expect("accepted");
        }
        let stayer = svc.client();
        let grant = stayer.claim().expect("service still live");
        assert!(grant.job >= 1);
        let report = svc.shutdown();
        assert_eq!(report.granted, 2);
        assert_eq!(report.abandoned, 1);
        assert_eq!(report.violations, 0);
        assert_eq!(
            report.grant_waits.count(),
            1,
            "the abandoned grant stays out of the wait histogram"
        );
    }
}
