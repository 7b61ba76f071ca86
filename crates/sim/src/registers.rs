use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use amo_ostree::kernels;

/// Counters of shared-memory traffic (part of the paper's work measure).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemWork {
    /// Number of shared reads performed.
    pub reads: u64,
    /// Number of shared writes performed.
    pub writes: u64,
    /// Number of read-modify-write operations (used only by RMW baselines;
    /// always zero for the paper's read/write algorithms).
    pub rmws: u64,
}

impl MemWork {
    /// Total shared-memory operations.
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.rmws
    }
}

impl std::ops::Add for MemWork {
    type Output = MemWork;

    fn add(self, rhs: MemWork) -> MemWork {
        MemWork {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
            rmws: self.rmws + rhs.rmws,
        }
    }
}

/// A flat file of atomic `u64` registers — the shared memory of the model.
///
/// Algorithms address cells by index; layout structs (e.g. `KkLayout` in
/// `amo-core`) map the paper's named arrays (`next`, `done[·][·]`, …) onto
/// this flat space. The `swap` operation exists solely for the test-and-set
/// *baselines*; the paper's algorithms never invoke it, which is asserted in
/// their tests.
pub trait Registers {
    /// Atomically reads cell `cell`.
    fn read(&self, cell: usize) -> u64;

    /// Reads cell `cell` like [`read`](Self::read) but defers the traffic
    /// accounting to the caller: batched hot loops
    /// ([`Process::step_many`](crate::Process::step_many) implementations)
    /// issue many `peek`s and report them in one
    /// [`note_reads`](Self::note_reads) call, replacing a per-access counter
    /// update with one addition per batch.
    ///
    /// The default implementation simply counts through `read` (and the
    /// default `note_reads` is then a no-op), so accounting stays exact for
    /// implementations that don't opt in. Implementations must override
    /// both methods together or neither.
    fn peek(&self, cell: usize) -> u64 {
        self.read(cell)
    }

    /// Accounts `reads` shared reads issued via [`peek`](Self::peek).
    fn note_reads(&self, reads: u64) {
        let _ = reads;
    }

    /// `true` when this register file keeps a [`global_epoch`] that
    /// announcement-caching processes may rely on.
    ///
    /// Epoch contract (the invariant the caches build on): the global epoch
    /// increases on every mutation of **any** cell (`write`, `swap`, a
    /// snapshot `restore`) and never otherwise. So an unchanged global
    /// epoch certifies that *no* cell changed, and a process may skip
    /// re-reading values it read since then. That is all the KKβ caches
    /// use: a whole `gatherTry` or `gatherDone` sweep is skipped while the
    /// epoch (less the process's own writes) still equals the one stamped
    /// at the end of its last clean sweep.
    ///
    /// The default is `false`, and a cache must then never skip a read.
    /// Only the deterministic simulator's [`VecRegisters`] enables it:
    /// under real concurrency the epoch probe and the value read are two
    /// separate loads, so the pair is not atomic and the invariant would be
    /// unsound ([`AtomicRegisters`] keeps it disabled by design).
    ///
    /// [`global_epoch`]: Self::global_epoch
    fn epochs_enabled(&self) -> bool {
        false
    }

    /// A version of `cell` that is unchanged while the cell is. The default
    /// is the [`global_epoch`](Self::global_epoch), which moves on every
    /// mutation of any cell and so also on every mutation of this one. No
    /// cache reads it; it stays while the benchmark's traced register
    /// wrapper (`perfbench/`) forwards it.
    fn epoch(&self, cell: usize) -> u64 {
        let _ = cell;
        self.global_epoch()
    }

    /// Monotone counter of mutations across the whole file; see
    /// [`epochs_enabled`](Self::epochs_enabled) for the contract. `0` for
    /// files without epochs.
    fn global_epoch(&self) -> u64 {
        0
    }

    /// Atomically writes `value` into cell `cell`.
    fn write(&self, cell: usize, value: u64);

    /// Atomically swaps `value` into `cell`, returning the previous value.
    fn swap(&self, cell: usize, value: u64) -> u64;

    /// Number of cells in the register file.
    fn len(&self) -> usize;

    /// Returns `true` if the register file has no cells.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shared-memory traffic counters accumulated so far.
    fn work(&self) -> MemWork;

    /// Announces `pid` as the acting process for subsequent accesses.
    ///
    /// The engine calls this before handing a decision's actions to a
    /// process; journaling backends
    /// ([`DurableRegisters`](crate::DurableRegisters)) use it to attribute
    /// write-ahead-log records to their writer. Purely volatile files
    /// ignore it — the default is a no-op, and the hook must not change
    /// any model-level observable (values, counters, epochs).
    #[inline]
    fn note_actor(&self, pid: usize) {
        let _ = pid;
    }

    /// Durability flush barrier at a commit point.
    ///
    /// The engine raises this for the acting process after every recorded
    /// `do` action and at termination; journaling backends promote the
    /// actor's write-behind buffer to stable storage (every write
    /// *preceding a perform* is thereby durable — the invariant at-most-once
    /// safety under storage faults rests on). No-op by default, and never
    /// observable at the model level.
    #[inline]
    fn perform_barrier(&self) {}

    /// Storage blackout at the crash of `pid`.
    ///
    /// The engine calls this when the adversary crashes a process;
    /// journaling backends lose the crashed process's unflushed records
    /// according to their fault regime and write the recovered image back
    /// into the volatile cells (see
    /// [`DurableRegisters`](crate::DurableRegisters)). No-op by default.
    #[inline]
    fn crash_blackout(&self, pid: usize) {
        let _ = pid;
    }
}

/// Deterministic, single-threaded register file for the simulator.
///
/// Cells are `Cell<u64>` so that reads can be accounted through a shared
/// reference; the whole structure is cheap to snapshot, which the exhaustive
/// explorer uses to enumerate states.
///
/// # Written high-water mark
///
/// A run writes few of the cells its file holds: KKβ's file is `m` `next`
/// registers plus an `m × n` `done` matrix (512 MB of values at
/// `n = 10⁶`, `m = 64`), of which a run writes at most `m + n`, since each
/// performed job is logged once. So the file costs only the cells a run
/// writes:
///
/// * [`new`](VecRegisters::new) takes its cells from a zeroed allocation
///   ([`kernels::zeroed_cells`]); pages no run writes stay the kernel's
///   shared zero page and never become resident;
/// * the file keeps a *written high-water mark*: one past the highest cell
///   written since creation. Every cell at or above it is zero. `write`
///   and `swap` raise it, and [`restore`](VecRegisters::restore) sets it
///   to the file length;
/// * [`snapshot`](VecRegisters::snapshot) copies only the cells below the
///   mark into a zeroed vector.
///
/// With the interleaved (position-major) `done` layout the written cells
/// cluster at the low indices, so the mark stays close to the number of
/// cells written.
///
/// # Global epoch
///
/// The file counts every mutation in one stamp, its
/// [`global_epoch`](Registers::global_epoch), which is what the
/// announcement-epoch caches of the KKβ processes key on (see
/// [`Registers::epochs_enabled`]). A [`restore`](VecRegisters::restore)
/// counts as a mutation too, so a cache primed against an earlier state of
/// the file (an explorer rewind) never validates. Runs whose processes
/// never consult the stamp (single-action granularity, where a cache can
/// skip nothing) switch it off for the caches with
/// [`set_epoch_tracking`](VecRegisters::set_epoch_tracking).
#[derive(Debug, Clone, Default)]
pub struct VecRegisters {
    cells: Vec<Cell<u64>>,
    /// Written high-water mark: every cell at or above it is zero.
    written: Cell<usize>,
    /// `true` when the caches may not rely on the stamp (field is the
    /// negated form so `Default` keeps tracking on).
    epochs_off: Cell<bool>,
    /// Mutations across all cells (monotone; never reset).
    stamp: Cell<u64>,
    reads: Cell<u64>,
    writes: Cell<u64>,
    rmws: Cell<u64>,
}

impl VecRegisters {
    /// Creates `cells` zero-initialised registers (the model's `init` value)
    /// from a zeroed allocation: no cell is stored to, so the file takes
    /// resident memory only as its cells are written.
    pub fn new(cells: usize) -> Self {
        Self {
            cells: kernels::zeroed_cells(cells),
            ..Self::default()
        }
    }

    /// Raises the written high-water mark past `cell`.
    #[inline]
    fn note_written(&self, cell: usize) {
        if cell >= self.written.get() {
            self.written.set(cell + 1);
        }
    }

    /// Sets what [`Registers::epochs_enabled`] reports.
    ///
    /// Runs that never consult epochs (no quanta granted, so no
    /// announcement cache can skip a read) switch it off, and no process
    /// then publishes a sweep stamp. The stamp itself counts every mutation
    /// either way, so a stamp published before a switch is still sound
    /// after it.
    pub fn set_epoch_tracking(&self, enabled: bool) {
        self.epochs_off.set(!enabled);
    }

    /// Bytes of per-cell epoch storage: always `0`, since the file keeps
    /// only its global stamp. It stays while the benchmark (`perfbench/`)
    /// reports it as `reg.epoch_mem_mb`.
    pub fn epoch_mem_bytes(&self) -> u64 {
        0
    }

    /// Snapshot of all cell values (used by the explorer and for
    /// debugging).
    ///
    /// The vector comes from a zeroed allocation and only the cells below
    /// the written high-water mark are copied into it, so a snapshot, like
    /// the file, costs resident memory only for what was written.
    pub fn snapshot(&self) -> Vec<u64> {
        let written = self.written.get();
        let mut values = vec![0; self.cells.len()];
        for (value, cell) in values[..written].iter_mut().zip(&self.cells) {
            *value = cell.get();
        }
        values
    }

    /// Restores a snapshot previously taken with
    /// [`snapshot`](VecRegisters::snapshot).
    ///
    /// Counts as one mutation of the global epoch (a restore may change any
    /// value, and the explorer rewinds memory behind the processes' backs),
    /// so epoch caches never serve values from a different branch of an
    /// exploration.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length differs from the register count.
    pub fn restore(&self, snapshot: &[u64]) {
        assert_eq!(snapshot.len(), self.cells.len(), "snapshot size mismatch");
        self.stamp.set(self.stamp.get() + 1);
        // Bulk value restore (the explorer rewinds whole register files per
        // branch).
        kernels::copy_into_cells(&self.cells, snapshot);
        self.written.set(self.cells.len());
    }

    /// Resets the traffic counters.
    pub fn reset_work(&self) {
        self.reads.set(0);
        self.writes.set(0);
        self.rmws.set(0);
    }
}

impl Registers for VecRegisters {
    #[inline]
    fn read(&self, cell: usize) -> u64 {
        self.reads.set(self.reads.get() + 1);
        self.cells[cell].get()
    }

    #[inline]
    fn peek(&self, cell: usize) -> u64 {
        self.cells[cell].get()
    }

    #[inline]
    fn note_reads(&self, reads: u64) {
        self.reads.set(self.reads.get() + reads);
    }

    #[inline]
    fn write(&self, cell: usize, value: u64) {
        self.writes.set(self.writes.get() + 1);
        self.stamp.set(self.stamp.get() + 1);
        self.cells[cell].set(value);
        self.note_written(cell);
    }

    #[inline]
    fn swap(&self, cell: usize, value: u64) -> u64 {
        self.rmws.set(self.rmws.get() + 1);
        self.stamp.set(self.stamp.get() + 1);
        let old = self.cells[cell].replace(value);
        self.note_written(cell);
        old
    }

    fn len(&self) -> usize {
        self.cells.len()
    }

    fn epochs_enabled(&self) -> bool {
        !self.epochs_off.get()
    }

    #[inline]
    fn global_epoch(&self) -> u64 {
        self.stamp.get()
    }

    fn work(&self) -> MemWork {
        MemWork {
            reads: self.reads.get(),
            writes: self.writes.get(),
            rmws: self.rmws.get(),
        }
    }
}

/// Real hardware-atomic register file for the thread runtime.
///
/// Every load, store and swap of a cell is `SeqCst`, and threaded runs
/// have no other regime. The paper proves KKβ safe over atomic registers,
/// and that proof rests on the announce handshake: process `p` writes
/// `next_p` (`setNext`) and then reads every `next_q` (`gatherTry`), while
/// `q` does the same with the roles swapped. That is the store-buffering
/// (SB) litmus shape. If both reads could miss both writes, `p` and `q`
/// could each admit a job the other had announced, and both perform it.
/// `Release` stores with `Acquire` loads allow exactly that outcome under
/// Rust's (C++20) memory model, and x86-TSO's store buffers produce it in
/// hardware (Sewell et al., "x86-TSO", CACM 2010). `SeqCst` forbids it:
/// when every access to the cells is `SeqCst`, all of them fall into one
/// total order that respects each thread's program order and in which a
/// load returns the latest store before it, so the cells are the atomic
/// registers the proof assumes. In the SB shape, whichever of the two
/// writes comes first in that order also precedes the other process's
/// read, which therefore cannot return the cell's older value. The
/// release/acquire regime this file once offered had no such argument and
/// is deleted (DESIGN.md, deviation D5).
///
/// Traffic counters use relaxed atomics: they are tallies and publish no
/// other data.
///
/// Epochs stay **disabled** here ([`Registers::epochs_enabled`] returns
/// `false`): under real concurrency an epoch probe and the value read are
/// two separate loads, so a cache could pair a stale value with a fresh
/// epoch. The announcement-epoch caches are a simulator-only optimisation.
#[derive(Debug, Default)]
pub struct AtomicRegisters {
    cells: Vec<AtomicU64>,
    reads: AtomicU64,
    writes: AtomicU64,
    rmws: AtomicU64,
}

impl AtomicRegisters {
    /// Creates `cells` zero-initialised registers.
    pub fn new(cells: usize) -> Self {
        let mut v = Vec::with_capacity(cells);
        v.resize_with(cells, || AtomicU64::new(0));
        Self {
            cells: v,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            rmws: AtomicU64::new(0),
        }
    }

    /// Snapshot of all cell values (quiescent use only).
    pub fn snapshot(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .collect()
    }
}

impl Registers for AtomicRegisters {
    #[inline]
    fn read(&self, cell: usize) -> u64 {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.cells[cell].load(Ordering::SeqCst)
    }

    #[inline]
    fn peek(&self, cell: usize) -> u64 {
        self.cells[cell].load(Ordering::SeqCst)
    }

    #[inline]
    fn note_reads(&self, reads: u64) {
        self.reads.fetch_add(reads, Ordering::Relaxed);
    }

    #[inline]
    fn write(&self, cell: usize, value: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.cells[cell].store(value, Ordering::SeqCst);
    }

    #[inline]
    fn swap(&self, cell: usize, value: u64) -> u64 {
        self.rmws.fetch_add(1, Ordering::Relaxed);
        self.cells[cell].swap(value, Ordering::SeqCst)
    }

    fn len(&self) -> usize {
        self.cells.len()
    }

    fn work(&self) -> MemWork {
        MemWork {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            rmws: self.rmws.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn vec_registers_read_write() {
        let m = VecRegisters::new(4);
        assert_eq!(m.len(), 4);
        assert_eq!(m.read(0), 0, "cells start zeroed");
        m.write(2, 77);
        assert_eq!(m.read(2), 77);
        assert_eq!(m.swap(2, 5), 77);
        assert_eq!(m.read(2), 5);
    }

    #[test]
    fn vec_registers_work_accounting() {
        let m = VecRegisters::new(2);
        m.read(0);
        m.read(1);
        m.write(0, 1);
        m.swap(1, 2);
        let w = m.work();
        assert_eq!(
            w,
            MemWork {
                reads: 2,
                writes: 1,
                rmws: 1
            }
        );
        assert_eq!(w.total(), 4);
        m.reset_work();
        assert_eq!(m.work().total(), 0);
    }

    #[test]
    fn vec_registers_snapshot_restore() {
        let m = VecRegisters::new(3);
        m.write(0, 10);
        m.write(1, 20);
        let snap = m.snapshot();
        m.write(0, 99);
        m.write(2, 99);
        m.restore(&snap);
        assert_eq!(m.snapshot(), vec![10, 20, 0]);
    }

    #[test]
    #[should_panic(expected = "snapshot size mismatch")]
    fn restore_size_mismatch_panics() {
        VecRegisters::new(2).restore(&[1]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        VecRegisters::new(1).read(1);
    }

    #[test]
    fn atomic_registers_basic() {
        let m = AtomicRegisters::new(3);
        m.write(1, 42);
        assert_eq!(m.read(1), 42);
        assert_eq!(m.swap(1, 7), 42);
        assert_eq!(m.snapshot(), vec![0, 7, 0]);
        assert_eq!(
            m.work(),
            MemWork {
                reads: 1,
                writes: 1,
                rmws: 1
            }
        );
    }

    #[test]
    fn atomic_registers_cross_thread() {
        let m = AtomicRegisters::new(1);
        std::thread::scope(|s| {
            s.spawn(|| m.write(0, 123));
        });
        assert_eq!(m.read(0), 123);
    }

    #[test]
    fn memwork_addition() {
        let a = MemWork {
            reads: 1,
            writes: 2,
            rmws: 3,
        };
        let b = MemWork {
            reads: 10,
            writes: 20,
            rmws: 30,
        };
        assert_eq!(
            a + b,
            MemWork {
                reads: 11,
                writes: 22,
                rmws: 33
            }
        );
    }

    #[test]
    fn empty_register_file() {
        let m = VecRegisters::new(0);
        assert!(m.is_empty());
        assert_eq!(m.snapshot(), Vec::<u64>::new());
    }

    #[test]
    fn epochs_move_only_on_mutation() {
        let m = VecRegisters::new(3);
        assert!(m.epochs_enabled());
        let g0 = m.global_epoch();
        m.read(1);
        m.peek(1);
        assert_eq!(m.global_epoch(), g0, "reads leave the epoch untouched");
        m.write(1, 7);
        assert_eq!(m.global_epoch(), g0 + 1);
        m.swap(2, 9);
        assert_eq!(m.global_epoch(), g0 + 2);
        assert_eq!(m.epoch(0), m.global_epoch(), "a cell's epoch is the file's");
    }

    #[test]
    fn restore_invalidates_epochs() {
        let m = VecRegisters::new(2);
        let snap = m.snapshot();
        m.write(0, 5);
        let g = m.global_epoch();
        m.restore(&snap);
        assert!(m.global_epoch() > g, "a restore is a mutation");
        assert_eq!(m.snapshot(), snap);
    }

    #[test]
    fn epoch_tracking_can_be_disabled() {
        let m = VecRegisters::new(16);
        m.set_epoch_tracking(false);
        assert!(!m.epochs_enabled());
        let g = m.global_epoch();
        m.write(3, 5);
        assert_eq!(m.read(3), 5, "values are unaffected");
        assert!(
            m.global_epoch() > g,
            "the stamp still counts, so a stamp published before the switch stays sound"
        );
        m.set_epoch_tracking(true);
        assert!(m.epochs_enabled());
        assert_eq!(m.epoch_mem_bytes(), 0, "no per-cell epoch storage");
    }

    #[test]
    fn written_mark_follows_writes_swaps_and_restores() {
        let m = VecRegisters::new(16);
        assert_eq!(m.written.get(), 0);
        m.write(2, 5);
        assert_eq!(m.written.get(), 3);
        m.swap(6, 1);
        assert_eq!(m.written.get(), 7);
        m.write(1, 9);
        assert_eq!(m.written.get(), 7, "a lower write keeps the mark");
        m.restore(&[0; 16]);
        assert_eq!(m.written.get(), 16, "a restore may write any cell");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random `write`/`swap`/`restore` sequences against a plain `Vec`
        /// model: after every operation the snapshot equals the model and
        /// every cell at or above the written high-water mark is zero.
        #[test]
        fn written_mark_bounds_every_nonzero_cell(
            len in 1usize..12,
            ops in proptest::collection::vec((0u8..3, 0usize..16, 0u64..4), 1..40),
        ) {
            let mem = VecRegisters::new(len);
            let mut model = vec![0u64; len];
            for (kind, cell, value) in ops {
                match kind {
                    0 => {
                        mem.write(cell % len, value);
                        model[cell % len] = value;
                    }
                    1 => {
                        let old = mem.swap(cell % len, value);
                        prop_assert_eq!(old, model[cell % len]);
                        model[cell % len] = value;
                    }
                    _ => {
                        let image: Vec<u64> =
                            (0..len as u64).map(|i| (i + value) % 3).collect();
                        mem.restore(&image);
                        model = image;
                    }
                }
                prop_assert_eq!(mem.snapshot(), model.clone());
                let mark = mem.written.get();
                prop_assert!(mark <= mem.len(), "mark {} past the file", mark);
                prop_assert!(
                    (mark..mem.len()).all(|c| mem.peek(c) == 0),
                    "nonzero cell at or above the mark"
                );
            }
        }
    }

    #[test]
    fn atomic_registers_report_epochs_disabled() {
        let m = AtomicRegisters::new(2);
        assert!(!m.epochs_enabled());
        m.write(0, 1);
        assert_eq!(m.epoch(0), 0);
        assert_eq!(m.global_epoch(), 0);
    }
}
