//! Durable registers: a WAL + snapshot journaling layer over the
//! deterministic in-memory register file, with seeded storage-fault
//! injection and crash-time recovery.
//!
//! # The storage model
//!
//! [`DurableRegisters`] wraps a [`VecRegisters`] (the *volatile* view every
//! process reads and writes, bit-identical to running without the wrapper)
//! and journals every mutation into an in-memory [`StorageModel`]: a base
//! snapshot plus a write-ahead log of `(actor, cell, value, checksum)`
//! records. Each process is modelled as writing through its own
//! *write-behind buffer*: a record starts out **soft** (journaled but not
//! yet on stable storage) and is promoted to **durable** by a flush
//! barrier. The engine raises a barrier for a process at every recorded
//! `do` action — the `do` is the commit point — and at termination (a
//! clean shutdown flushes).
//!
//! # Faults and the soft-suffix envelope
//!
//! When a process crashes, the engine triggers a *blackout*
//! ([`Registers::crash_blackout`]): the crashed process's write-behind
//! buffer is lost, and the configured [`StorageFault`] decides how much of
//! its **soft suffix** (its journaled-but-unflushed records, in write
//! order) survives to stable storage:
//!
//! * [`StorageFault::DroppedFlush`] — the whole buffer is lost;
//! * [`StorageFault::TruncatedLog`] — a seeded-uniform prefix survives;
//! * [`StorageFault::TornWrite`] — records survive up to a seeded cut
//!   whose record is *partially* persisted: its payload is bit-corrupted,
//!   recovery detects the checksum mismatch and truncates the log there;
//! * [`StorageFault::StaleRead`] — each record survives a seeded coin
//!   flip, and recovery keeps the longest consistent prefix before the
//!   first loss (later reads then return the stale pre-crash values).
//!
//! Recovery then rebuilds the register file by replaying the surviving log
//! over the base snapshot and writing the result back through
//! [`VecRegisters::restore`], which moves the global epoch, so announcement
//! caches can never validate values from before the blackout. Every fault
//! is thereby *structurally* confined to the crashed process's soft
//! suffix: a write that precedes any of its performs is durable and can
//! never regress, which is what keeps at-most-once safe in every fault
//! cell (see the crate docs' durability-invariants section).
//!
//! With [`StorageFault::None`] the blackout is a no-op and the wrapper is
//! observationally identical to the bare [`VecRegisters`] — the
//! equivalence suites pin this bit-for-bit, deterministic counters
//! included.
//!
//! One modelling consequence worth knowing: **every** mutation journals
//! its resulting value, including a [`Registers::swap`] that did not
//! change the cell. A survivor's losing test-and-set therefore re-asserts
//! the observed value under its *own* pid, and that record survives the
//! original writer's blackout — recovered state can keep a crasher's
//! claim alive while the data write guarded by it rolls back. This is the
//! write-through-journal semantics of real RMW hardware, it is
//! *conservative* for at-most-once (survivors can only re-assert more
//! "done" state, never less), and it is exactly the recovery gap the E10
//! matrix measures for claim-bit algorithms.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use crate::registers::{MemWork, Registers, VecRegisters};

/// Storage-fault regime of a [`DurableRegisters`] blackout (what happens
/// to a crashed process's unflushed journal records).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StorageFault {
    /// Perfect storage: every journaled record survives a crash.
    #[default]
    None,
    /// The record at a seeded cut is partially persisted; recovery detects
    /// the checksum mismatch and truncates the suffix from there.
    TornWrite,
    /// The crashed process's entire write-behind buffer is lost.
    DroppedFlush,
    /// Per-record seeded survival; recovery keeps the longest consistent
    /// prefix, so post-recovery reads of the affected cells return stale
    /// pre-crash values.
    StaleRead,
    /// A seeded-uniform prefix of the soft suffix survives.
    TruncatedLog,
}

impl StorageFault {
    /// Every fault kind, in a fixed sweep order (the E10 matrix axis).
    pub const ALL: [StorageFault; 5] = [
        StorageFault::None,
        StorageFault::TornWrite,
        StorageFault::DroppedFlush,
        StorageFault::StaleRead,
        StorageFault::TruncatedLog,
    ];

    /// Stable label for report rows and bench headers.
    pub fn label(&self) -> &'static str {
        match self {
            StorageFault::None => "none",
            StorageFault::TornWrite => "torn-write",
            StorageFault::DroppedFlush => "dropped-flush",
            StorageFault::StaleRead => "stale-read",
            StorageFault::TruncatedLog => "truncated-log",
        }
    }

    /// `true` when a blackout under this regime can lose records.
    pub fn injects(&self) -> bool {
        !matches!(self, StorageFault::None)
    }
}

/// Deterministic counters of the journaling layer (not part of the model's
/// work measure — pure storage-side observability).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// WAL records appended (every `write`/`swap`).
    pub journaled: u64,
    /// Records promoted durable by flush barriers.
    pub flushed: u64,
    /// Flush barriers raised (one per recorded `do` batch / termination).
    pub barriers: u64,
    /// Crash blackouts that ran fault injection.
    pub blackouts: u64,
    /// Soft records lost to blackouts.
    pub dropped_records: u64,
    /// Torn records detected (and discarded) by checksum validation.
    pub torn_detected: u64,
    /// Durable-prefix checkpoints folded into the base snapshot.
    pub checkpoints: u64,
}

/// One journaled mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WalRecord {
    /// Writing process (1-based pid; 0 before any actor was announced).
    actor: usize,
    cell: usize,
    value: u64,
    /// Payload checksum stamped at append time; recovery revalidates it.
    checksum: u64,
    /// `true` once flushed to stable storage.
    durable: bool,
}

#[inline]
fn record_checksum(actor: usize, cell: usize, value: u64) -> u64 {
    let mut x = (actor as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((cell as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        ^ value;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic in-memory stable-storage model: base snapshot, WAL,
/// and per-actor soft-record index.
#[derive(Debug, Default)]
struct StorageModel {
    /// Cell values with every checkpointed (all-durable) WAL prefix folded
    /// in.
    base: Vec<u64>,
    wal: Vec<WalRecord>,
    /// Indices into `wal` of each actor's soft records, in write order.
    soft: BTreeMap<usize, Vec<usize>>,
    stats: DurableStats,
}

/// Fold the longest all-durable WAL prefix into the base snapshot once the
/// log grows past this length (keeps blackout replays bounded).
const CHECKPOINT_WAL_LEN: usize = 4096;

impl StorageModel {
    fn new(base: Vec<u64>) -> Self {
        Self {
            base,
            ..Self::default()
        }
    }

    fn journal(&mut self, actor: usize, cell: usize, value: u64) {
        let idx = self.wal.len();
        self.wal.push(WalRecord {
            actor,
            cell,
            value,
            checksum: record_checksum(actor, cell, value),
            durable: false,
        });
        self.soft.entry(actor).or_default().push(idx);
        self.stats.journaled += 1;
    }

    /// Flushes `actor`'s write-behind buffer: all its soft records become
    /// durable.
    fn barrier(&mut self, actor: usize) {
        self.stats.barriers += 1;
        if let Some(idxs) = self.soft.remove(&actor) {
            self.stats.flushed += idxs.len() as u64;
            for i in idxs {
                self.wal[i].durable = true;
            }
        }
        if self.wal.len() >= CHECKPOINT_WAL_LEN {
            self.checkpoint();
        }
    }

    /// Folds the longest all-durable WAL prefix into `base`. Soft records
    /// block the fold (they may still be lost), so only the indices in the
    /// kept suffix need rebasing.
    fn checkpoint(&mut self) {
        let cut = self
            .wal
            .iter()
            .position(|r| !r.durable)
            .unwrap_or(self.wal.len());
        if cut == 0 {
            return;
        }
        for rec in self.wal.drain(..cut) {
            self.base[rec.cell] = rec.value;
        }
        for idxs in self.soft.values_mut() {
            for i in idxs {
                *i -= cut;
            }
        }
        self.stats.checkpoints += 1;
    }

    /// Applies `fault` to the crashed `actor`'s soft suffix, returning the
    /// recovered cell image to write back into the volatile file (`None`
    /// when nothing was lost, so no restore is needed).
    fn blackout(&mut self, actor: usize, fault: StorageFault, rng: &mut u64) -> Option<Vec<u64>> {
        if !fault.injects() {
            return None;
        }
        self.stats.blackouts += 1;
        let soft = self.soft.remove(&actor).unwrap_or_default();
        let keep = match fault {
            StorageFault::None => unreachable!("handled above"),
            StorageFault::DroppedFlush => 0,
            StorageFault::TruncatedLog => {
                if soft.is_empty() {
                    0
                } else {
                    (splitmix64(rng) as usize) % (soft.len() + 1)
                }
            }
            StorageFault::TornWrite => {
                if soft.is_empty() {
                    0
                } else {
                    // The record at the cut is partially persisted: corrupt
                    // its payload, then let checksum validation — the real
                    // recovery-time check — discard it and everything after.
                    let k = (splitmix64(rng) as usize) % soft.len();
                    let mut mask = splitmix64(rng);
                    if mask == 0 {
                        mask = 1;
                    }
                    let rec = &mut self.wal[soft[k]];
                    rec.value ^= mask;
                    if record_checksum(rec.actor, rec.cell, rec.value) == rec.checksum {
                        k + 1
                    } else {
                        self.stats.torn_detected += 1;
                        k
                    }
                }
            }
            StorageFault::StaleRead => {
                let mut k = 0;
                while k < soft.len() && splitmix64(rng) & 1 == 1 {
                    k += 1;
                }
                k
            }
        };
        // Surviving records were written back consistently by recovery:
        // they are the new durable baseline for this (dead or restarting)
        // process.
        for &i in &soft[..keep] {
            self.wal[i].durable = true;
        }
        let lost: Vec<usize> = soft[keep..].to_vec();
        self.stats.dropped_records += lost.len() as u64;
        if lost.is_empty() {
            return None;
        }
        // Drop the lost records and rebuild the soft index (indices shift).
        let mut lost_iter = lost.iter().peekable();
        let mut kept = Vec::with_capacity(self.wal.len() - lost.len());
        for (i, rec) in self.wal.drain(..).enumerate() {
            if lost_iter.peek() == Some(&&i) {
                lost_iter.next();
            } else {
                kept.push(rec);
            }
        }
        self.wal = kept;
        self.soft.clear();
        for (i, rec) in self.wal.iter().enumerate() {
            if !rec.durable {
                self.soft.entry(rec.actor).or_default().push(i);
            }
        }
        Some(self.replay_prefix(self.wal.len()))
    }

    /// Replays the first `k` WAL records over the base snapshot.
    fn replay_prefix(&self, k: usize) -> Vec<u64> {
        let mut image = self.base.clone();
        for rec in &self.wal[..k] {
            image[rec.cell] = rec.value;
        }
        image
    }
}

/// WAL-backed persistence layer over [`VecRegisters`]: the
/// [`BackendSpec::Durable`](crate::BackendSpec::Durable) register backend.
///
/// Reads, writes and all deterministic counters delegate verbatim to the
/// wrapped volatile file — journaling is a pure side effect — so a
/// fault-free durable run is bit-identical to a plain [`VecRegisters`]
/// run. See the module docs for the storage model and fault semantics.
///
/// # Examples
///
/// ```
/// use amo_sim::{DurableRegisters, Registers, StorageFault, VecRegisters};
///
/// let mem = DurableRegisters::new(VecRegisters::new(2), StorageFault::DroppedFlush, 7);
/// mem.note_actor(1);
/// mem.write(0, 5); // journaled, soft
/// mem.perform_barrier(); // pid 1's buffer flushed: durable
/// mem.write(1, 9); // soft again
/// mem.crash_blackout(1); // pid 1 crashes; its soft suffix is lost
/// assert_eq!(mem.read(0), 5, "flushed write survives");
/// assert_eq!(mem.read(1), 0, "unflushed write rolled back");
/// ```
#[derive(Debug)]
pub struct DurableRegisters {
    inner: VecRegisters,
    store: RefCell<StorageModel>,
    fault: StorageFault,
    rng: Cell<u64>,
    /// The acting process for attribution of journal records (set by the
    /// engine through [`Registers::note_actor`]).
    actor: Cell<usize>,
}

impl DurableRegisters {
    /// Wraps `inner`, journaling through a fresh `StorageModel` whose
    /// base snapshot is `inner`'s current contents, under the given fault
    /// regime and fault seed.
    pub fn new(inner: VecRegisters, fault: StorageFault, seed: u64) -> Self {
        let base = inner.snapshot();
        Self {
            inner,
            store: RefCell::new(StorageModel::new(base)),
            fault,
            rng: Cell::new(seed),
            actor: Cell::new(0),
        }
    }

    /// Unwraps the volatile register file.
    pub fn into_inner(self) -> VecRegisters {
        self.inner
    }

    /// The configured fault regime.
    pub fn fault(&self) -> StorageFault {
        self.fault
    }

    /// Journaling-layer counters.
    pub fn stats(&self) -> DurableStats {
        self.store.borrow().stats
    }

    /// Records currently in the WAL (checkpointed prefixes excluded).
    pub fn wal_len(&self) -> usize {
        self.store.borrow().wal.len()
    }

    /// Journaled records not yet flushed to stable storage.
    pub fn soft_len(&self) -> usize {
        self.store.borrow().soft.values().map(Vec::len).sum()
    }

    /// Snapshot of the volatile cell values.
    pub fn snapshot(&self) -> Vec<u64> {
        self.inner.snapshot()
    }

    /// The state stable storage would recover to right now: the base
    /// snapshot plus a full WAL replay. Replay is pure — calling this twice
    /// (recovery idempotence) yields the same image, and with every record
    /// flushed it equals the volatile [`snapshot`](Self::snapshot).
    pub fn recover_image(&self) -> Vec<u64> {
        let store = self.store.borrow();
        store.replay_prefix(store.wal.len())
    }

    /// Recovery from a *prefix* of the WAL: the base snapshot plus the
    /// first `k` records. `k = wal_len()` is
    /// [`recover_image`](Self::recover_image).
    ///
    /// # Panics
    ///
    /// Panics if `k > wal_len()`.
    pub fn replay_prefix(&self, k: usize) -> Vec<u64> {
        self.store.borrow().replay_prefix(k)
    }
}

impl Registers for DurableRegisters {
    #[inline]
    fn read(&self, cell: usize) -> u64 {
        self.inner.read(cell)
    }

    #[inline]
    fn peek(&self, cell: usize) -> u64 {
        self.inner.peek(cell)
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
        self.store
            .borrow_mut()
            .journal(self.actor.get(), cell, value);
    }

    #[inline]
    fn swap(&self, cell: usize, value: u64) -> u64 {
        let prev = self.inner.swap(cell, value);
        self.store
            .borrow_mut()
            .journal(self.actor.get(), cell, value);
        prev
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

    fn perform_barrier(&self) {
        self.store.borrow_mut().barrier(self.actor.get());
    }

    fn crash_blackout(&self, pid: usize) {
        let mut rng = self.rng.get();
        let image = self.store.borrow_mut().blackout(pid, self.fault, &mut rng);
        self.rng.set(rng);
        if let Some(image) = image {
            // The restore moves the global epoch past every sweep stamp, so
            // no announcement cache can validate a pre-blackout value.
            self.inner.restore(&image);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn durable(cells: usize, fault: StorageFault, seed: u64) -> DurableRegisters {
        DurableRegisters::new(VecRegisters::new(cells), fault, seed)
    }

    #[test]
    fn fault_free_delegation_is_verbatim() {
        let plain = VecRegisters::new(4);
        let wrapped = durable(4, StorageFault::None, 0);
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
        assert_eq!(plain.snapshot(), wrapped.snapshot());
        assert_eq!(plain.global_epoch(), wrapped.global_epoch());
    }

    #[test]
    fn journal_and_barrier_accounting() {
        let mem = durable(3, StorageFault::DroppedFlush, 1);
        mem.note_actor(1);
        mem.write(0, 1);
        mem.write(1, 2);
        mem.note_actor(2);
        mem.swap(2, 3);
        assert_eq!(mem.wal_len(), 3);
        assert_eq!(mem.soft_len(), 3);
        mem.note_actor(1);
        mem.perform_barrier();
        let s = mem.stats();
        assert_eq!(s.journaled, 3);
        assert_eq!(s.flushed, 2, "only pid 1's buffer flushed");
        assert_eq!(s.barriers, 1);
        assert_eq!(mem.soft_len(), 1, "pid 2's record stays soft");
    }

    #[test]
    fn dropped_flush_loses_only_the_crashers_soft_suffix() {
        let mem = durable(4, StorageFault::DroppedFlush, 42);
        mem.note_actor(1);
        mem.write(0, 11); // flushed below
        mem.perform_barrier();
        mem.write(1, 12); // soft, pid 1
        mem.note_actor(2);
        mem.write(2, 21); // soft, pid 2 — must survive pid 1's crash
        mem.note_actor(1);
        mem.crash_blackout(1);
        assert_eq!(mem.snapshot(), vec![11, 0, 21, 0]);
        assert_eq!(mem.stats().dropped_records, 1);
        assert_eq!(mem.stats().blackouts, 1);
    }

    #[test]
    fn later_writes_by_others_mask_the_lost_record() {
        // pid 1 writes cell 0 (soft), pid 2 overwrites it (soft). pid 1's
        // crash loses its record, but replay keeps pid 2's later value.
        let mem = durable(1, StorageFault::DroppedFlush, 5);
        mem.note_actor(1);
        mem.write(0, 10);
        mem.note_actor(2);
        mem.write(0, 20);
        mem.crash_blackout(1);
        assert_eq!(mem.read(0), 20, "pid 2's write is the live one");
    }

    #[test]
    fn truncated_log_keeps_a_seeded_prefix() {
        for seed in 0..32u64 {
            let mem = durable(8, StorageFault::TruncatedLog, seed);
            mem.note_actor(1);
            for c in 0..8 {
                mem.write(c, c as u64 + 1);
            }
            mem.crash_blackout(1);
            let snap = mem.snapshot();
            // The surviving records are a prefix of the write order: once a
            // cell is zero, all later-written cells are zero too.
            let cut = snap.iter().position(|&v| v == 0).unwrap_or(8);
            for (c, &v) in snap.iter().enumerate() {
                if c < cut {
                    assert_eq!(v, c as u64 + 1);
                } else {
                    assert_eq!(v, 0, "seed {seed}: suffix after the cut is lost");
                }
            }
            // Determinism: the same seed reproduces the same cut.
            let mem2 = durable(8, StorageFault::TruncatedLog, seed);
            mem2.note_actor(1);
            for c in 0..8 {
                mem2.write(c, c as u64 + 1);
            }
            mem2.crash_blackout(1);
            assert_eq!(snap, mem2.snapshot());
        }
    }

    #[test]
    fn torn_write_is_detected_by_checksum_and_discarded() {
        let mut torn_seen = false;
        for seed in 0..16u64 {
            let mem = durable(4, StorageFault::TornWrite, seed);
            mem.note_actor(1);
            for c in 0..4 {
                mem.write(c, 7);
            }
            mem.crash_blackout(1);
            let s = mem.stats();
            assert_eq!(s.torn_detected, 1, "one record torn per blackout");
            assert!(s.dropped_records >= 1, "the torn record itself is lost");
            torn_seen = true;
            // Surviving values are an untouched prefix: never a corrupted
            // payload (checksum validation discarded the torn record).
            for &v in &mem.snapshot() {
                assert!(v == 7 || v == 0, "no torn value leaks: got {v}");
            }
        }
        assert!(torn_seen);
    }

    #[test]
    fn stale_read_keeps_longest_consistent_prefix() {
        let mem = durable(6, StorageFault::StaleRead, 3);
        mem.note_actor(1);
        for c in 0..6 {
            mem.write(c, 1);
        }
        mem.crash_blackout(1);
        let snap = mem.snapshot();
        let cut = snap.iter().position(|&v| v == 0).unwrap_or(6);
        assert!(snap[..cut].iter().all(|&v| v == 1));
        assert!(snap[cut..].iter().all(|&v| v == 0));
    }

    #[test]
    fn blackout_with_everything_flushed_changes_nothing() {
        let mem = durable(2, StorageFault::DroppedFlush, 9);
        mem.note_actor(1);
        mem.write(0, 5);
        mem.write(1, 6);
        mem.perform_barrier();
        let before = mem.snapshot();
        mem.crash_blackout(1);
        assert_eq!(mem.snapshot(), before);
        assert_eq!(mem.stats().dropped_records, 0);
    }

    #[test]
    fn recover_image_is_idempotent_and_tracks_volatile_state() {
        let mem = durable(3, StorageFault::None, 0);
        mem.note_actor(1);
        mem.write(0, 1);
        mem.write(2, 3);
        assert_eq!(mem.recover_image(), mem.recover_image());
        assert_eq!(mem.recover_image(), mem.snapshot());
        assert_eq!(mem.replay_prefix(1), vec![1, 0, 0]);
        assert_eq!(mem.replay_prefix(0), vec![0, 0, 0]);
    }

    #[test]
    fn checkpoint_folds_durable_prefix_and_preserves_replay() {
        let mem = durable(4, StorageFault::DroppedFlush, 1);
        mem.note_actor(1);
        for i in 0..(CHECKPOINT_WAL_LEN as u64 + 10) {
            mem.write((i % 4) as usize, i);
        }
        mem.perform_barrier();
        let s = mem.stats();
        assert!(s.checkpoints >= 1, "long durable log folds into the base");
        assert!(mem.wal_len() < CHECKPOINT_WAL_LEN);
        assert_eq!(mem.recover_image(), mem.snapshot());
        // A soft record written by another actor blocks folding past it,
        // but replay stays exact.
        mem.note_actor(2);
        mem.write(0, 999);
        assert_eq!(mem.recover_image(), mem.snapshot());
        mem.crash_blackout(2);
        assert_ne!(mem.read(0), 999, "pid 2's soft record rolled back");
        assert_eq!(mem.recover_image(), mem.snapshot());
    }

    #[test]
    fn blackout_restore_is_a_whole_file_epoch_event() {
        let mem = durable(2, StorageFault::DroppedFlush, 8);
        mem.note_actor(1);
        mem.write(0, 1);
        let g = mem.global_epoch();
        mem.crash_blackout(1);
        assert!(
            mem.global_epoch() > g,
            "a lost cell cannot revalidate a cache"
        );
    }

    #[test]
    fn swap_records_journal_the_resulting_value() {
        let mem = durable(1, StorageFault::None, 0);
        mem.note_actor(1);
        mem.write(0, 3);
        assert_eq!(mem.swap(0, 8), 3);
        assert_eq!(mem.recover_image(), vec![8]);
    }

    #[test]
    fn fault_labels_are_stable() {
        let labels: Vec<&str> = StorageFault::ALL.iter().map(|f| f.label()).collect();
        assert_eq!(
            labels,
            vec![
                "none",
                "torn-write",
                "dropped-flush",
                "stale-read",
                "truncated-log"
            ]
        );
        assert!(!StorageFault::None.injects());
        assert!(StorageFault::TornWrite.injects());
    }
}
