//! Simulated message-passing registers: a majority-quorum replicated
//! implementation of the [`Registers`] trait over a deterministic network
//! model — the [`BackendSpec::Quorum`](crate::BackendSpec::Quorum) backend.
//!
//! # Why a network backend
//!
//! The paper assumes atomic read/write registers; real deployments build
//! them from message passing. [`QuorumRegisters`] is that construction: a
//! set of `k` replica servers each holding a `(tag, value)` pair per cell,
//! a client port that executes every register operation as a quorum
//! protocol over a seeded [`NetworkModel`] (configurable latency
//! distributions, message drop, reordering, replica-server crashes), and an
//! Omega-style failure detector with an explicit packet budget driving
//! replica crash suspicion.
//!
//! # The protocol
//!
//! Tags are `(seq << 8) | writer_pid` so ties are impossible; replicas
//! apply a `Put` only when its tag exceeds the stored one, which makes
//! every replica-side update idempotent under duplication and stale under
//! reordering — late retransmissions can never roll a cell back.
//!
//! * **Write** (two rounds): query a majority for the cell's highest tag,
//!   mint the successor tag, propagate `(tag, value)` until a majority
//!   acks. A later reader's query majority intersects the propagation
//!   majority, so the new tag is visible to every subsequent operation.
//! * **Read** (one and a half rounds, à la *Oh-RAM!*): query a majority for
//!   `(tag, value)`; if every reply already carries the maximum tag, the
//!   value is confirmed at a majority and the read completes in **one**
//!   round. Only when the maximum tag is *unconfirmed* (some replica
//!   answered with a smaller tag, so a concurrent or failed write may not
//!   have reached a majority) does the reader spend the extra half round
//!   writing `(tag, value)` back to a majority before returning — which is
//!   what makes the read atomic: a returned value is always durable at a
//!   quorum, so no later read can observe an older one.
//!
//! # Failure detection under a packet budget
//!
//! The client suspects replicas Omega-style, but explicit probe traffic is
//! capped by [`NetworkSpec::fd_packet_budget`]: periodic `Probe` packets go
//! only to the current *leader* (the lowest-indexed unsuspected replica)
//! and stop once the budget is spent. Everything else is piggybacked —
//! every protocol reply refreshes the sender's liveness for free, and
//! suspicion is raised only after repeated retransmissions to a replica
//! that has stayed silent past the suspicion horizon. Hearing from a
//! suspected replica reinstates it (eventual accuracy). Suspicion is a pure
//! optimisation: suspected replicas are skipped when broadcasting, but the
//! quorum threshold always counts over all `k` replicas, and when too few
//! unsuspected replicas remain the client falls back to broadcasting at
//! every silent replica — so false suspicion costs messages, never safety.
//!
//! Replica crashes are capped at a minority (`(k-1)/2`), so a responsive
//! majority always exists and every operation terminates.
//!
//! # Determinism and the equivalence obligation
//!
//! All randomness (latency samples, drop and reorder rolls, crash times)
//! flows from one splitmix64 stream seeded by [`NetworkSpec::seed`];
//! message delivery is ordered by a virtual-time heap. Identical specs
//! replay identical executions, so the message counters join the
//! deterministic counter set the perf gate pins exactly. The wrapped
//! [`VecRegisters`] remains the authoritative shared memory for values and
//! work accounting — the protocol runs alongside it and its result is
//! checked against the wrapped file on every operation
//! ([`NetStats::atomicity_violations`] counts disagreements, pinned at zero
//! by the test suites) — so a `Quorum` run is bit-identical to a `Vec` run
//! in every network regime, and a lossless zero-latency network is the
//! degenerate case the equivalence suites pin counter-for-counter.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::registers::{MemWork, Registers, VecRegisters};

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-message latency distribution of a [`NetworkModel`] (virtual-time
/// units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LatencyDist {
    /// Every message is delivered at its send time (the degenerate case
    /// that must be bit-identical to shared memory).
    #[default]
    Zero,
    /// Every message takes exactly this many time units.
    Fixed(
        /// Delay per message.
        u64,
    ),
    /// Per-message seeded-uniform delay in `lo..=hi`.
    Uniform {
        /// Minimum delay.
        lo: u64,
        /// Maximum delay (inclusive); must be `>= lo`.
        hi: u64,
    },
}

impl LatencyDist {
    /// The largest base delay this distribution can produce.
    pub fn max_delay(&self) -> u64 {
        match self {
            LatencyDist::Zero => 0,
            LatencyDist::Fixed(d) => *d,
            LatencyDist::Uniform { hi, .. } => *hi,
        }
    }

    /// Stable label for report rows.
    pub fn label(&self) -> &'static str {
        match self {
            LatencyDist::Zero => "zero",
            LatencyDist::Fixed(_) => "fixed",
            LatencyDist::Uniform { .. } => "uniform",
        }
    }

    #[inline]
    fn sample(&self, rng: &mut u64) -> u64 {
        match self {
            LatencyDist::Zero => 0,
            LatencyDist::Fixed(d) => *d,
            LatencyDist::Uniform { lo, hi } => {
                debug_assert!(lo <= hi, "uniform latency needs lo <= hi");
                lo + splitmix64(rng) % (hi - lo + 1)
            }
        }
    }
}

/// Declarative description of one simulated network environment — the
/// payload of [`BackendSpec::Quorum`](crate::BackendSpec::Quorum).
///
/// The default is a 3-replica, zero-latency, lossless, crash-free network,
/// which is bit-identical to the `Vec` backend by the equivalence
/// obligation. All randomness derives from [`seed`](Self::seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetworkSpec {
    /// Replica-server count `k`; the quorum threshold is `k/2 + 1`.
    /// Clamped to at least 1.
    pub replicas: u8,
    /// Seed of the splitmix64 stream behind every latency sample, drop and
    /// reorder roll, and crash time.
    pub seed: u64,
    /// Per-message base latency distribution.
    pub latency: LatencyDist,
    /// Per-message drop probability in per-mille (‰). The quorum client
    /// clamps this to 900‰ so retransmission always terminates.
    pub drop_per_mille: u16,
    /// Per-message probability (‰) of taking a reordering detour: a
    /// reordered message gets extra seeded delay and a randomized delivery
    /// rank, so it can overtake or be overtaken by its neighbours.
    pub reorder_per_mille: u16,
    /// Replica servers that crash at seeded virtual times. Clamped to a
    /// minority (`(k-1)/2`) so a responsive majority always exists.
    pub replica_crashes: u8,
    /// Failure-detector packet budget: explicit leader `Probe` packets stop
    /// once this many were sent; liveness information then flows only by
    /// piggybacking on protocol replies.
    pub fd_packet_budget: u32,
}

impl Default for NetworkSpec {
    fn default() -> Self {
        Self {
            replicas: 3,
            seed: 0,
            latency: LatencyDist::Zero,
            drop_per_mille: 0,
            reorder_per_mille: 0,
            replica_crashes: 0,
            fd_packet_budget: 256,
        }
    }
}

impl NetworkSpec {
    /// A lossless zero-latency spec over `replicas` servers.
    pub fn lossless(replicas: u8) -> Self {
        Self {
            replicas,
            ..Self::default()
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the latency distribution.
    pub fn with_latency(mut self, latency: LatencyDist) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the drop rate (‰).
    pub fn with_drop(mut self, per_mille: u16) -> Self {
        self.drop_per_mille = per_mille;
        self
    }

    /// Sets the reorder rate (‰).
    pub fn with_reorder(mut self, per_mille: u16) -> Self {
        self.reorder_per_mille = per_mille;
        self
    }

    /// Sets how many replica servers crash.
    pub fn with_replica_crashes(mut self, crashes: u8) -> Self {
        self.replica_crashes = crashes;
        self
    }

    /// Sets the failure-detector packet budget.
    pub fn with_fd_budget(mut self, budget: u32) -> Self {
        self.fd_packet_budget = budget;
        self
    }

    /// `true` when this network can disturb message delivery (anything
    /// beyond the lossless zero-latency degenerate case).
    pub fn is_lossy(&self) -> bool {
        self.latency != LatencyDist::Zero
            || self.drop_per_mille > 0
            || self.reorder_per_mille > 0
            || self.replica_crashes > 0
    }
}

/// One delivered message, as returned by [`NetworkModel::deliver_next`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery<T> {
    /// Virtual delivery time.
    pub at: u64,
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
    /// The payload.
    pub msg: T,
}

#[derive(Debug)]
struct Flight<T> {
    at: u64,
    /// Delivery rank among messages with equal `at`: the send sequence
    /// number normally (FIFO), a seeded random value for reordered
    /// messages.
    prio: u64,
    seq: u64,
    from: usize,
    to: usize,
    msg: T,
}

impl<T> Flight<T> {
    #[inline]
    fn key(&self) -> (u64, u64, u64) {
        (self.at, self.prio, self.seq)
    }
}

impl<T> PartialEq for Flight<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Flight<T> {}
impl<T> PartialOrd for Flight<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Flight<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other.key().cmp(&self.key())
    }
}

/// A deterministic seeded virtual-time network: messages are sent between
/// integer-identified nodes and delivered in `(time, rank)` order, with
/// per-message latency sampling, seeded drops, and seeded reordering
/// detours.
///
/// The model is generic over the payload so the determinism property suite
/// can drive it directly; [`QuorumRegisters`] instantiates it with the
/// quorum protocol's message type. Identical constructions fed identical
/// call sequences replay identical delivery orders — the invariant the
/// `prop_net` suite pins.
#[derive(Debug)]
pub struct NetworkModel<T> {
    heap: BinaryHeap<Flight<T>>,
    now: u64,
    seq: u64,
    rng: u64,
    latency: LatencyDist,
    drop_per_mille: u16,
    reorder_per_mille: u16,
    sent: u64,
    delivered: u64,
    dropped: u64,
}

impl<T> NetworkModel<T> {
    /// Builds the model from a spec's link parameters (replica counts and
    /// failure-detector fields are the quorum client's concern, not the
    /// link's).
    pub fn new(spec: NetworkSpec) -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
            rng: spec.seed,
            latency: spec.latency,
            drop_per_mille: spec.drop_per_mille,
            reorder_per_mille: spec.reorder_per_mille,
            sent: 0,
            delivered: 0,
            dropped: 0,
        }
    }

    /// Sends `msg` from `from` to `to`; returns `false` when the message
    /// was dropped by the link.
    pub fn send(&mut self, from: usize, to: usize, msg: T) -> bool {
        self.sent += 1;
        if self.drop_per_mille > 0 && splitmix64(&mut self.rng) % 1000 < self.drop_per_mille as u64
        {
            self.dropped += 1;
            return false;
        }
        let mut delay = self.latency.sample(&mut self.rng);
        let mut prio = self.seq;
        if self.reorder_per_mille > 0
            && splitmix64(&mut self.rng) % 1000 < self.reorder_per_mille as u64
        {
            // A reordering detour: extra delay plus a randomized delivery
            // rank, so the message genuinely overtakes or falls behind its
            // send-order neighbours.
            delay += 1 + splitmix64(&mut self.rng) % (2 * self.latency.max_delay() + 8);
            prio = splitmix64(&mut self.rng);
        }
        self.heap.push(Flight {
            at: self.now + delay,
            prio,
            seq: self.seq,
            from,
            to,
            msg,
        });
        self.seq += 1;
        true
    }

    /// Delivery time of the next in-flight message, if any.
    pub fn peek_next_at(&self) -> Option<u64> {
        self.heap.peek().map(|f| f.at)
    }

    /// Delivers the next message, advancing virtual time to its delivery
    /// time.
    pub fn deliver_next(&mut self) -> Option<Delivery<T>> {
        let f = self.heap.pop()?;
        self.now = self.now.max(f.at);
        self.delivered += 1;
        Some(Delivery {
            at: f.at,
            from: f.from,
            to: f.to,
            msg: f.msg,
        })
    }

    /// Advances virtual time to `t` (never backwards).
    pub fn advance_to(&mut self, t: u64) {
        self.now = self.now.max(t);
    }

    /// Advances virtual time by one unit (a local computation step).
    pub fn tick(&mut self) {
        self.now += 1;
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.heap.len()
    }

    /// Messages handed to [`send`](Self::send).
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Messages delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages dropped by the link.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Deterministic counters of the quorum protocol and its network (pure
/// observability — never part of the model's work measure).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the link (including dropped ones).
    pub messages_sent: u64,
    /// Messages delivered.
    pub messages_delivered: u64,
    /// Messages dropped by the link.
    pub messages_dropped: u64,
    /// Protocol reads that completed in one round (max tag confirmed at a
    /// majority).
    pub reads_one_round: u64,
    /// Protocol reads that spent the extra half round writing the value
    /// back.
    pub read_writebacks: u64,
    /// Protocol writes (each is two rounds: tag query + propagation).
    pub writes: u64,
    /// Request retransmissions after an RTO expiry.
    pub retransmissions: u64,
    /// Explicit failure-detector `Probe` packets sent (bounded by
    /// [`NetworkSpec::fd_packet_budget`]).
    pub fd_packets: u64,
    /// Replica suspicions raised.
    pub suspicions: u64,
    /// Disagreements between the protocol's result and the authoritative
    /// shared memory. **Any nonzero value is a protocol bug**; the test
    /// suites pin this at zero in every network regime.
    pub atomicity_violations: u64,
}

/// Quorum protocol message.
#[derive(Debug, Clone, Copy)]
enum Payload {
    /// Client → replica: report your `(tag, value)` for `cell`.
    Get { op: u64, cell: usize },
    /// Replica → client: the requested `(tag, value)`.
    GetReply { op: u64, tag: u64, value: u64 },
    /// Client → replica: store `(tag, value)` for `cell` if `tag` is newer.
    Put {
        op: u64,
        cell: usize,
        tag: u64,
        value: u64,
    },
    /// Replica → client: the `Put` was applied (or superseded — both ack).
    PutAck { op: u64 },
    /// Client → leader: failure-detector liveness probe.
    Probe,
    /// Leader → client: probe answer.
    ProbeAck,
}

#[derive(Debug)]
struct Replica {
    /// Seeded crash time; the replica ignores every message delivered at or
    /// after it.
    crash_at: Option<u64>,
    tags: Vec<u64>,
    vals: Vec<u64>,
}

/// Consecutive unanswered retransmissions to a replica before silence past
/// the suspicion horizon raises a suspicion.
const RETX_SUSPECT: u32 = 3;

/// Hard cap on RTO rounds within one quorum phase; exceeding it means the
/// configuration starved the quorum (a harness bug, since replica crashes
/// are clamped to a minority and drops to 900‰).
const SPIN_CAP: u32 = 100_000;

/// Client-side state of the quorum protocol: the replicas, the link, and
/// the failure detector.
#[derive(Debug)]
struct QuorumCore {
    net: NetworkModel<Payload>,
    replicas: Vec<Replica>,
    majority: usize,
    op_seq: u64,
    stats: NetStats,
    /// Per-replica (1-based, slot 0 unused) virtual time of the last
    /// message heard from it.
    last_heard: Vec<u64>,
    suspected: Vec<bool>,
    /// Per-replica count of sends without an answer since last heard.
    retx: Vec<u32>,
    fd_budget_left: u32,
    next_probe_at: u64,
    rto: u64,
    probe_interval: u64,
    suspect_after: u64,
}

impl QuorumCore {
    fn new(spec: NetworkSpec, initial: &[u64]) -> Self {
        let k = (spec.replicas.max(1)) as usize;
        // Liveness clamps: a drop rate of 1000‰ would starve every quorum,
        // and a crashed majority would starve them legitimately — both are
        // configuration errors this backend refuses to model.
        let link = NetworkSpec {
            drop_per_mille: spec.drop_per_mille.min(900),
            ..spec
        };
        let mut rng = spec.seed ^ 0xA02F_7C65_9D16_3D4B;
        let crashes = (spec.replica_crashes as usize).min(k.saturating_sub(1) / 2);
        let mut crash_at = vec![None; k];
        let mut placed = 0usize;
        while placed < crashes {
            let r = (splitmix64(&mut rng) as usize) % k;
            if crash_at[r].is_none() {
                crash_at[r] = Some(64 + splitmix64(&mut rng) % 1024);
                placed += 1;
            }
        }
        let replicas = crash_at
            .into_iter()
            .map(|c| Replica {
                crash_at: c,
                tags: vec![0; initial.len()],
                vals: initial.to_vec(),
            })
            .collect();
        let rto = 4 * spec.latency.max_delay() + 16;
        Self {
            net: NetworkModel::new(link),
            replicas,
            majority: k / 2 + 1,
            op_seq: 0,
            stats: NetStats::default(),
            last_heard: vec![0; k + 1],
            suspected: vec![false; k + 1],
            retx: vec![0; k + 1],
            fd_budget_left: spec.fd_packet_budget,
            next_probe_at: 2 * rto,
            rto,
            probe_interval: 2 * rto,
            suspect_after: 8 * rto,
        }
    }

    fn k(&self) -> usize {
        self.replicas.len()
    }

    /// Every register operation starts here: virtual time advances by one
    /// local step (so zero-latency runs still have a clock) and the failure
    /// detector gets its turn.
    fn begin_op(&mut self) {
        self.net.tick();
        self.update_suspicions();
        self.maybe_probe();
    }

    /// The suspicion sweep: a replica with [`RETX_SUSPECT`] unanswered sends
    /// *and* silence past the suspicion horizon becomes suspected. Run at
    /// every operation start and at every RTO expiry, so crashed replicas
    /// are detected even when quorums keep completing without them.
    fn update_suspicions(&mut self) {
        let now = self.net.now();
        for r in 1..=self.k() {
            if !self.suspected[r]
                && self.retx[r] >= RETX_SUSPECT
                && now.saturating_sub(self.last_heard[r]) > self.suspect_after
            {
                self.suspected[r] = true;
                self.stats.suspicions += 1;
            }
        }
    }

    /// Budgeted leader probing: at most one `Probe` per interval, to the
    /// lowest-indexed unsuspected replica, until the budget is spent.
    fn maybe_probe(&mut self) {
        if self.fd_budget_left == 0 || self.net.now() < self.next_probe_at {
            return;
        }
        self.next_probe_at = self.net.now() + self.probe_interval;
        if let Some(leader) = self.leader() {
            self.net.send(0, leader, Payload::Probe);
            self.retx[leader] += 1;
            self.fd_budget_left -= 1;
            self.stats.fd_packets += 1;
        }
    }

    /// The current Omega output: the lowest-indexed unsuspected replica
    /// (1-based).
    fn leader(&self) -> Option<usize> {
        (1..=self.k()).find(|&r| !self.suspected[r])
    }

    /// Runs one quorum phase: broadcast `msg`, collect `need` matching
    /// replies (from distinct replicas), retransmitting on RTO expiry and
    /// updating suspicion along the way. Returns the reply payloads.
    fn run_phase(&mut self, msg: Payload, need: usize) -> Vec<Payload> {
        let op = match msg {
            Payload::Get { op, .. } | Payload::Put { op, .. } => op,
            _ => unreachable!("phases are Get or Put broadcasts"),
        };
        let k = self.k();
        let mut replied = vec![false; k + 1];
        let mut replies = Vec::with_capacity(need);
        let unsuspected: Vec<usize> = (1..=k).filter(|&r| !self.suspected[r]).collect();
        let targets = if unsuspected.len() >= need {
            unsuspected
        } else {
            (1..=k).collect()
        };
        for &r in &targets {
            self.net.send(0, r, msg);
            self.retx[r] += 1;
        }
        let mut rounds = 0u32;
        loop {
            let deadline = self.net.now() + self.rto;
            while self.net.peek_next_at().is_some_and(|at| at <= deadline) {
                let d = self.net.deliver_next().expect("peeked");
                self.on_delivery(d, op, &mut replied, &mut replies);
                if replies.len() >= need {
                    return replies;
                }
            }
            // RTO expiry: advance the clock, update suspicion, retransmit.
            self.net.advance_to(deadline);
            rounds += 1;
            assert!(
                rounds <= SPIN_CAP,
                "quorum starved after {SPIN_CAP} RTO rounds — network spec \
                 violates the liveness clamps"
            );
            self.update_suspicions();
            let mut retry: Vec<usize> = (1..=k)
                .filter(|&r| !replied[r] && !self.suspected[r])
                .collect();
            if replies.len() + retry.len() < need {
                // Too few unsuspected replicas left for a quorum: fall back
                // to every silent replica. False suspicion costs messages,
                // never liveness.
                retry = (1..=k).filter(|&r| !replied[r]).collect();
            }
            for &r in &retry {
                self.net.send(0, r, msg);
                self.retx[r] += 1;
                self.stats.retransmissions += 1;
            }
        }
    }

    /// Handles one delivered message: replies land at the client (node 0),
    /// requests at a replica.
    fn on_delivery(
        &mut self,
        d: Delivery<Payload>,
        op: u64,
        replied: &mut [bool],
        replies: &mut Vec<Payload>,
    ) {
        if d.to == 0 {
            // Client side: every reply — current, stale, or probe —
            // piggybacks liveness for its sender.
            self.last_heard[d.from] = d.at;
            self.retx[d.from] = 0;
            self.suspected[d.from] = false;
            let reply_op = match d.msg {
                Payload::GetReply { op, .. } | Payload::PutAck { op } => Some(op),
                _ => None,
            };
            if reply_op == Some(op) && !replied[d.from] {
                replied[d.from] = true;
                replies.push(d.msg);
            }
            return;
        }
        // Replica side. A crashed replica is silent forever.
        let r = d.to;
        let rep = &mut self.replicas[r - 1];
        if rep.crash_at.is_some_and(|t| d.at >= t) {
            return;
        }
        match d.msg {
            Payload::Get { op, cell } => {
                let reply = Payload::GetReply {
                    op,
                    tag: rep.tags[cell],
                    value: rep.vals[cell],
                };
                self.net.send(r, 0, reply);
            }
            Payload::Put {
                op,
                cell,
                tag,
                value,
            } => {
                // Idempotent, monotone apply: duplicates and stale
                // retransmissions can never roll a cell back.
                if tag > rep.tags[cell] {
                    rep.tags[cell] = tag;
                    rep.vals[cell] = value;
                }
                self.net.send(r, 0, Payload::PutAck { op });
            }
            Payload::Probe => {
                self.net.send(r, 0, Payload::ProbeAck);
            }
            Payload::GetReply { .. } | Payload::PutAck { .. } | Payload::ProbeAck => {
                unreachable!("replies are addressed to the client")
            }
        }
    }

    /// Highest `(tag, value)` among a phase's `GetReply`s, plus how many
    /// replies carried that tag.
    fn max_tag(replies: &[Payload]) -> (u64, u64, usize) {
        let (mut t, mut v) = (0u64, 0u64);
        for p in replies {
            if let Payload::GetReply { tag, value, .. } = p {
                // `>=` so tag 0 (the replicated initial snapshot, on which
                // all replicas agree) still surfaces its value.
                if *tag >= t {
                    t = *tag;
                    v = *value;
                }
            }
        }
        let confirmed = replies
            .iter()
            .filter(|p| matches!(p, Payload::GetReply { tag, .. } if *tag == t))
            .count();
        (t, v, confirmed)
    }

    /// One-and-a-half-round atomic read of `cell`.
    fn protocol_read(&mut self, cell: usize) -> u64 {
        self.begin_op();
        self.op_seq += 1;
        let replies = self.run_phase(
            Payload::Get {
                op: self.op_seq,
                cell,
            },
            self.majority,
        );
        let (tag, value, confirmed) = Self::max_tag(&replies);
        if confirmed >= self.majority {
            // Every reply already carries the maximum tag: the value is
            // durable at a quorum, no write-back needed.
            self.stats.reads_one_round += 1;
        } else {
            // Unconfirmed maximum: spend the half round making the value
            // durable at a majority before returning it.
            self.stats.read_writebacks += 1;
            self.op_seq += 1;
            self.run_phase(
                Payload::Put {
                    op: self.op_seq,
                    cell,
                    tag,
                    value,
                },
                self.majority,
            );
        }
        value
    }

    /// Two-round write of `value` into `cell` on behalf of `pid`.
    fn protocol_write(&mut self, cell: usize, value: u64, pid: usize) {
        self.begin_op();
        self.op_seq += 1;
        let replies = self.run_phase(
            Payload::Get {
                op: self.op_seq,
                cell,
            },
            self.majority,
        );
        let (max_tag, _, _) = Self::max_tag(&replies);
        let tag = (((max_tag >> 8) + 1) << 8) | (pid as u64 & 0xFF);
        self.op_seq += 1;
        self.run_phase(
            Payload::Put {
                op: self.op_seq,
                cell,
                tag,
                value,
            },
            self.majority,
        );
        self.stats.writes += 1;
    }

    /// Protocol counters merged with the link counters.
    fn stats(&self) -> NetStats {
        NetStats {
            messages_sent: self.net.sent(),
            messages_delivered: self.net.delivered(),
            messages_dropped: self.net.dropped(),
            ..self.stats
        }
    }
}

/// Majority-quorum replicated registers over a simulated network — the
/// [`BackendSpec::Quorum`](crate::BackendSpec::Quorum) register backend.
///
/// Every register operation executes the quorum protocol (see the module
/// docs) over `k` replica servers through a seeded [`NetworkModel`]. The
/// wrapped [`VecRegisters`] remains the authoritative shared memory —
/// values, work counters and epochs delegate to it verbatim, so a `Quorum`
/// run is bit-identical to a `Vec` run — while the protocol result is
/// cross-checked against it on every operation
/// ([`NetStats::atomicity_violations`]).
///
/// The port is single-client by construction: the simulation engine
/// serializes all shared accesses, so operations run one at a time on
/// behalf of the acting process (announced via [`Registers::note_actor`],
/// which stamps the writer's pid into the protocol tags). Process crashes
/// lose nothing — state lives on the replicas — so
/// [`Registers::crash_blackout`] is a no-op.
///
/// # Examples
///
/// ```
/// use amo_sim::{NetworkSpec, QuorumRegisters, Registers, VecRegisters};
///
/// let spec = NetworkSpec::lossless(3).with_drop(200).with_reorder(100);
/// let mem = QuorumRegisters::new(VecRegisters::new(2), spec);
/// mem.note_actor(1);
/// mem.write(0, 7);
/// assert_eq!(mem.read(0), 7);
/// let stats = mem.net_stats();
/// assert_eq!(stats.atomicity_violations, 0);
/// assert!(stats.messages_sent > 0);
/// ```
#[derive(Debug)]
pub struct QuorumRegisters {
    inner: VecRegisters,
    core: RefCell<QuorumCore>,
    spec: NetworkSpec,
    actor: Cell<usize>,
}

impl QuorumRegisters {
    /// Wraps `inner`, replicating its current contents onto `spec.replicas`
    /// fresh replica servers.
    pub fn new(inner: VecRegisters, spec: NetworkSpec) -> Self {
        let core = QuorumCore::new(spec, &inner.snapshot());
        Self {
            inner,
            core: RefCell::new(core),
            spec,
            actor: Cell::new(0),
        }
    }

    /// Unwraps the authoritative register file.
    pub fn into_inner(self) -> VecRegisters {
        self.inner
    }

    /// The network spec this backend was built with.
    pub fn spec(&self) -> NetworkSpec {
        self.spec
    }

    /// Protocol and link counters accumulated so far.
    pub fn net_stats(&self) -> NetStats {
        self.core.borrow().stats()
    }

    /// Replica-server count `k`.
    pub fn replica_count(&self) -> usize {
        self.core.borrow().k()
    }

    /// Replicas currently suspected by the failure detector (1-based ids).
    pub fn suspected(&self) -> Vec<usize> {
        let core = self.core.borrow();
        (1..=core.k()).filter(|&r| core.suspected[r]).collect()
    }

    /// The failure detector's current leader (lowest unsuspected replica),
    /// if any.
    pub fn leader(&self) -> Option<usize> {
        self.core.borrow().leader()
    }

    /// Unspent failure-detector packet budget.
    pub fn fd_budget_left(&self) -> u32 {
        self.core.borrow().fd_budget_left
    }

    /// Current virtual time of the network.
    pub fn virtual_time(&self) -> u64 {
        self.core.borrow().net.now()
    }

    /// Cross-checks a protocol result against the authoritative value.
    #[inline]
    fn check(&self, protocol: u64, oracle: u64) -> u64 {
        if protocol != oracle {
            self.core.borrow_mut().stats.atomicity_violations += 1;
        }
        oracle
    }
}

impl Registers for QuorumRegisters {
    #[inline]
    fn read(&self, cell: usize) -> u64 {
        let oracle = self.inner.read(cell);
        let protocol = self.core.borrow_mut().protocol_read(cell);
        self.check(protocol, oracle)
    }

    #[inline]
    fn peek(&self, cell: usize) -> u64 {
        let oracle = self.inner.peek(cell);
        let protocol = self.core.borrow_mut().protocol_read(cell);
        self.check(protocol, oracle)
    }

    #[inline]
    fn note_reads(&self, reads: u64) {
        self.inner.note_reads(reads);
    }

    fn epochs_enabled(&self) -> bool {
        self.inner.epochs_enabled()
    }

    #[inline]
    fn global_epoch(&self) -> u64 {
        self.inner.global_epoch()
    }

    #[inline]
    fn write(&self, cell: usize, value: u64) {
        self.inner.write(cell, value);
        self.core
            .borrow_mut()
            .protocol_write(cell, value, self.actor.get());
    }

    #[inline]
    fn swap(&self, cell: usize, value: u64) -> u64 {
        let oracle = self.inner.swap(cell, value);
        let prev = {
            let mut core = self.core.borrow_mut();
            let prev = core.protocol_read(cell);
            core.protocol_write(cell, value, self.actor.get());
            prev
        };
        self.check(prev, oracle)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn work(&self) -> MemWork {
        self.inner.work()
    }

    #[inline]
    fn note_actor(&self, pid: usize) {
        self.actor.set(pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quorum(cells: usize, spec: NetworkSpec) -> QuorumRegisters {
        QuorumRegisters::new(VecRegisters::new(cells), spec)
    }

    #[test]
    fn lossless_delegation_is_verbatim() {
        let plain = VecRegisters::new(4);
        let wrapped = quorum(4, NetworkSpec::default());
        for mem in [&plain as &dyn Registers, &wrapped as &dyn Registers] {
            mem.note_actor(1);
            mem.write(0, 7);
            mem.read(0);
            mem.swap(1, 9);
            mem.note_reads(3);
            mem.perform_barrier();
            mem.crash_blackout(1);
        }
        assert_eq!(plain.work(), wrapped.work());
        assert_eq!(plain.global_epoch(), wrapped.global_epoch());
        assert_eq!(wrapped.net_stats().atomicity_violations, 0);
    }

    #[test]
    fn lossless_reads_are_all_one_round() {
        let mem = quorum(2, NetworkSpec::default());
        mem.note_actor(1);
        for i in 0..10 {
            mem.write(0, i);
            assert_eq!(mem.read(0), i);
        }
        let s = mem.net_stats();
        assert_eq!(s.reads_one_round, 10, "lossless: every read one round");
        assert_eq!(s.read_writebacks, 0);
        assert_eq!(s.writes, 10);
        assert_eq!(s.retransmissions, 0, "no RTO ever expires");
        assert_eq!(s.suspicions, 0);
        assert_eq!(s.atomicity_violations, 0);
        assert_eq!(s.messages_dropped, 0);
    }

    #[test]
    fn lossy_reordering_network_preserves_values() {
        let spec = NetworkSpec::lossless(5)
            .with_seed(11)
            .with_latency(LatencyDist::Uniform { lo: 1, hi: 12 })
            .with_drop(250)
            .with_reorder(200);
        let mem = quorum(3, spec);
        mem.note_actor(2);
        for i in 1..=40u64 {
            let cell = (i % 3) as usize;
            mem.write(cell, i);
            assert_eq!(mem.read(cell), i, "op {i}");
        }
        let s = mem.net_stats();
        assert_eq!(s.atomicity_violations, 0);
        assert!(s.messages_dropped > 0, "drops actually happened");
        assert!(s.retransmissions > 0, "drops forced retransmissions");
        assert_eq!(s.reads_one_round + s.read_writebacks, 40);
    }

    #[test]
    fn swap_returns_previous_value_under_loss() {
        let spec = NetworkSpec::lossless(3).with_seed(5).with_drop(300);
        let mem = quorum(1, spec);
        mem.note_actor(1);
        mem.write(0, 10);
        assert_eq!(mem.swap(0, 20), 10);
        assert_eq!(mem.swap(0, 30), 20);
        assert_eq!(mem.read(0), 30);
        assert_eq!(mem.net_stats().atomicity_violations, 0);
    }

    #[test]
    fn replica_crashes_are_suspected_and_survived() {
        let spec = NetworkSpec::lossless(5)
            .with_seed(3)
            .with_replica_crashes(2)
            .with_latency(LatencyDist::Fixed(2));
        let mem = quorum(2, spec);
        mem.note_actor(1);
        for i in 0..220u64 {
            mem.write((i % 2) as usize, i);
            assert_eq!(mem.read((i % 2) as usize), i);
        }
        let s = mem.net_stats();
        assert_eq!(s.atomicity_violations, 0);
        assert!(
            mem.suspected().len() <= 2,
            "at most the crashed minority stays suspected"
        );
        assert!(s.suspicions >= 1, "silent crashed replicas get suspected");
        assert!(mem.leader().is_some(), "a live leader always exists");
    }

    #[test]
    fn crash_clamp_keeps_a_majority_alive() {
        // Asking for more crashes than a minority is clamped.
        let spec = NetworkSpec::lossless(3)
            .with_replica_crashes(3)
            .with_seed(9);
        let mem = quorum(1, spec);
        mem.note_actor(1);
        for i in 0..300u64 {
            mem.write(0, i);
        }
        assert_eq!(mem.read(0), 299);
        assert_eq!(mem.net_stats().atomicity_violations, 0);
    }

    #[test]
    fn fd_budget_bounds_probe_traffic() {
        let spec = NetworkSpec::lossless(3).with_fd_budget(4);
        let mem = quorum(1, spec);
        mem.note_actor(1);
        for i in 0..4000u64 {
            mem.write(0, i);
        }
        let s = mem.net_stats();
        assert_eq!(s.fd_packets, 4, "probe traffic stops at the budget");
        assert_eq!(mem.fd_budget_left(), 0);
        assert_eq!(s.atomicity_violations, 0);
    }

    #[test]
    fn network_model_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let spec = NetworkSpec::lossless(3)
                .with_seed(seed)
                .with_latency(LatencyDist::Uniform { lo: 0, hi: 9 })
                .with_drop(200)
                .with_reorder(300);
            let mut net = NetworkModel::new(spec);
            for i in 0..200u64 {
                net.send(0, (i % 4) as usize, i);
            }
            let mut order = Vec::new();
            while let Some(d) = net.deliver_next() {
                order.push((d.at, d.to, d.msg));
            }
            (order, net.sent(), net.dropped())
        };
        assert_eq!(run(42), run(42), "identical seeds replay identically");
        assert_ne!(run(42).0, run(43).0, "different seeds diverge");
    }

    #[test]
    fn network_model_delivers_in_time_order() {
        let spec = NetworkSpec::lossless(2)
            .with_seed(7)
            .with_latency(LatencyDist::Uniform { lo: 0, hi: 30 });
        let mut net = NetworkModel::new(spec);
        for i in 0..100u64 {
            net.send(0, 1, i);
        }
        let mut last = 0;
        while let Some(d) = net.deliver_next() {
            assert!(d.at >= last, "virtual time never runs backwards");
            last = d.at;
            assert_eq!(net.now(), last);
        }
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn reordering_actually_reorders() {
        let spec = NetworkSpec::lossless(2)
            .with_seed(1)
            .with_reorder(500)
            .with_latency(LatencyDist::Fixed(3));
        let mut net = NetworkModel::new(spec);
        for i in 0..100u64 {
            net.send(0, 1, i);
        }
        let mut msgs = Vec::new();
        while let Some(d) = net.deliver_next() {
            msgs.push(d.msg);
        }
        let mut sorted = msgs.clone();
        sorted.sort_unstable();
        assert_ne!(msgs, sorted, "some messages overtook their neighbours");
    }

    #[test]
    fn spec_labels_and_probes() {
        assert_eq!(LatencyDist::Zero.label(), "zero");
        assert_eq!(LatencyDist::Fixed(3).label(), "fixed");
        assert_eq!(LatencyDist::Uniform { lo: 1, hi: 2 }.label(), "uniform");
        assert_eq!(LatencyDist::Uniform { lo: 1, hi: 9 }.max_delay(), 9);
        assert!(!NetworkSpec::default().is_lossy());
        assert!(NetworkSpec::default().with_drop(1).is_lossy());
        assert!(NetworkSpec::default()
            .with_latency(LatencyDist::Fixed(1))
            .is_lossy());
    }

    #[test]
    fn initial_contents_are_replicated() {
        let inner = VecRegisters::new(2);
        inner.write(1, 42);
        let mem = QuorumRegisters::new(inner, NetworkSpec::default());
        mem.note_actor(1);
        assert_eq!(mem.read(1), 42, "pre-seeded state visible through quorum");
        assert_eq!(mem.net_stats().atomicity_violations, 0);
    }
}
