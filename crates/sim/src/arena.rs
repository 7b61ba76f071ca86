//! Reusable simulation arenas for multi-fleet workloads.
//!
//! The experiment grids run thousands of independent simulations back to
//! back (and, on multi-core machines, several per worker thread). A fresh
//! register file is cheap to create: [`VecRegisters::new`] takes a zeroed
//! allocation, and above glibc's mmap threshold (128 KiB at start; it
//! rises, up to 32 MiB, as mapped blocks are freed) that is a fresh
//! mapping whose pages stay the kernel's shared zero page until written.
//! Below the threshold, `calloc` zeroes a recycled heap chunk instead.
//! What a fresh file still costs is one first-touch page fault per page a
//! run writes, a mapping and an unmapping per simulation, and cold cache
//! lines. A [`FleetArena`] keeps the buffers of finished simulations and
//! re-issues them zeroed, and [`VecRegisters::reset`] re-zeroes only the
//! cells below the previous run's written high-water mark. Consecutive
//! fleets then run over the *same* resident, warm lines without those
//! faults, which is where struct-of-arrays layouts (e.g. the interleaved
//! `done` order of `amo-core`'s `KkLayout`) pay off across a whole grid,
//! not just inside one run.
//!
//! Epoch safety: [`VecRegisters::reset`] bumps every surviving cell's epoch
//! and preserves the monotone global stamp, so a process's announcement
//! cache can never validate against values from a previous tenant of the
//! buffer (see the [`Registers::epochs_enabled`] contract).
//!
//! [`Registers::epochs_enabled`]: crate::Registers::epochs_enabled
//!
//! # Examples
//!
//! ```
//! use amo_sim::{FleetArena, Registers};
//!
//! let mut arena = FleetArena::new();
//! let mem = arena.lease(8);
//! mem.write(3, 7);
//! arena.reclaim(mem);
//! let mem = arena.lease(4);
//! assert_eq!(mem.snapshot(), vec![0; 4], "recycled buffers come back zeroed");
//! assert_eq!(arena.reuses(), 1);
//! ```

use crate::registers::VecRegisters;

/// A pool of reusable [`VecRegisters`] buffers for running many simulations.
///
/// [`lease`](FleetArena::lease) hands out a zeroed register file — recycling
/// the largest pooled buffer when one exists — and
/// [`reclaim`](FleetArena::reclaim) returns it after the run. The pool is
/// deliberately tiny (simulations on one worker are sequential), so the
/// arena is effectively "the one warm buffer this thread keeps reusing".
#[derive(Debug, Default)]
pub struct FleetArena {
    pool: Vec<VecRegisters>,
    leases: u64,
    reuses: u64,
}

/// Buffers kept in the pool; more would only hold dead memory, since a
/// worker runs one simulation at a time.
const POOL_CAP: usize = 2;

impl FleetArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed register file with `cells` cells, reusing a pooled
    /// allocation when available.
    pub fn lease(&mut self, cells: usize) -> VecRegisters {
        self.leases += 1;
        match self.pool.pop() {
            Some(mut mem) => {
                self.reuses += 1;
                mem.reset(cells);
                mem
            }
            None => VecRegisters::new(cells),
        }
    }

    /// Returns a register file to the pool for the next
    /// [`lease`](FleetArena::lease).
    pub fn reclaim(&mut self, mem: VecRegisters) {
        if self.pool.len() < POOL_CAP {
            self.pool.push(mem);
        }
    }

    /// Total leases served.
    pub fn leases(&self) -> u64 {
        self.leases
    }

    /// Leases served by recycling a pooled buffer instead of allocating.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registers::Registers;

    #[test]
    fn lease_allocates_then_recycles() {
        let mut arena = FleetArena::new();
        let a = arena.lease(8);
        assert_eq!(a.len(), 8);
        arena.reclaim(a);
        let b = arena.lease(4);
        assert_eq!(b.len(), 4);
        assert_eq!(b.snapshot(), vec![0; 4], "recycled buffer is zeroed");
        assert_eq!(arena.leases(), 2);
        assert_eq!(arena.reuses(), 1);
    }

    #[test]
    fn recycled_buffers_keep_epochs_monotone() {
        let mut arena = FleetArena::new();
        let a = arena.lease(2);
        a.write(0, 7);
        let e = a.epoch(0);
        arena.reclaim(a);
        let b = arena.lease(2);
        assert_eq!(b.snapshot(), vec![0, 0]);
        assert!(
            b.epoch(0) > e,
            "stale (value, epoch) pairs cannot revalidate"
        );
    }

    #[test]
    fn pool_is_bounded() {
        let mut arena = FleetArena::new();
        for _ in 0..5 {
            let m = VecRegisters::new(1);
            arena.reclaim(m);
        }
        assert!(arena.pool.len() <= POOL_CAP);
    }
}
