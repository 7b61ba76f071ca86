//! Property tests for the durable-register recovery layer: recovery is
//! idempotent, blackouts under every fault regime reduce to a prefix cut
//! of the crasher's soft suffix (flushed work is never un-performed), and
//! the fault-free wrapper is observationally identical to the bare
//! volatile file under arbitrary operation sequences.

use amo_sim::{DurableRegisters, Registers, StorageFault, VecRegisters};
use proptest::prelude::*;

const CELLS: usize = 8;

/// Decoded journal-driving operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Actor(usize),
    Write(usize, u64),
    Swap(usize, u64),
    Barrier,
    Blackout(usize),
}

/// Decodes a raw `(kind, pid, cell, value)` tuple into an [`Op`]. Values
/// are kept nonzero so a rolled-back cell (0) is distinguishable.
fn decode(raw: (u8, u8, u8, u64)) -> Op {
    let (kind, pid, cell, value) = raw;
    let pid = 1 + (pid as usize % 3);
    let cell = cell as usize % CELLS;
    let value = value | 1;
    match kind % 8 {
        0 | 1 => Op::Actor(pid),
        2..=4 => Op::Write(cell, value),
        5 => Op::Swap(cell, value),
        6 => Op::Barrier,
        _ => Op::Blackout(pid),
    }
}

fn apply(mem: &dyn Registers, op: Op) {
    match op {
        Op::Actor(pid) => mem.note_actor(pid),
        Op::Write(cell, value) => mem.write(cell, value),
        Op::Swap(cell, value) => {
            mem.swap(cell, value);
        }
        Op::Barrier => mem.perform_barrier(),
        Op::Blackout(pid) => mem.crash_blackout(pid),
    }
}

fn fault_from(pick: u8) -> StorageFault {
    // Only the injecting regimes: index 0 of ALL is `None`.
    StorageFault::ALL[1 + pick as usize % (StorageFault::ALL.len() - 1)]
}

fn raw_ops() -> impl Strategy<Value = Vec<(u8, u8, u8, u64)>> {
    proptest::collection::vec((0u8..8, 0u8..3, 0u8..CELLS as u8, any::<u64>()), 0..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Recovery is a pure replay: computing the recovered image twice
    /// yields the same state, the full-prefix replay *is* the recovered
    /// image, and once every buffer is flushed the recovered image equals
    /// the volatile snapshot exactly.
    #[test]
    fn recovery_is_idempotent(raw in raw_ops(), fault_pick in 0u8..4, seed in any::<u64>()) {
        let mem = DurableRegisters::new(VecRegisters::new(CELLS), fault_from(fault_pick), seed);
        for &r in &raw {
            apply(&mem, decode(r));
        }
        prop_assert_eq!(mem.recover_image(), mem.recover_image());
        prop_assert_eq!(mem.replay_prefix(mem.wal_len()), mem.recover_image());
        // Flush every buffer (actor 0 holds any records journaled before
        // the first actor announcement): recovery now loses nothing.
        for pid in 0..=3 {
            mem.note_actor(pid);
            mem.perform_barrier();
        }
        prop_assert_eq!(mem.soft_len(), 0);
        prop_assert_eq!(mem.recover_image(), mem.snapshot());
        // ... and a blackout of any pid changes nothing (second recovery
        // over an already-recovered log is the identity).
        let before = mem.snapshot();
        for pid in 1..=3 {
            mem.crash_blackout(pid);
        }
        prop_assert_eq!(mem.snapshot(), before);
    }

    /// Replay along the WAL prefix order is monotone: each extra record
    /// changes at most one cell, never invents a value that was not
    /// journaled, and replaying any prefix twice is deterministic.
    #[test]
    fn wal_prefix_replay_is_monotone(raw in raw_ops(), seed in any::<u64>()) {
        let mem = DurableRegisters::new(VecRegisters::new(CELLS), StorageFault::TruncatedLog, seed);
        let mut journaled = vec![0u64];
        for &r in &raw {
            let op = decode(r);
            if let Op::Write(_, v) | Op::Swap(_, v) = op {
                journaled.push(v);
            }
            apply(&mem, op);
        }
        let mut prev = mem.replay_prefix(0);
        for k in 0..=mem.wal_len() {
            let image = mem.replay_prefix(k);
            prop_assert_eq!(&image, &mem.replay_prefix(k), "replay is deterministic at {}", k);
            let diff = image.iter().zip(&prev).filter(|(a, b)| a != b).count();
            prop_assert!(diff <= 1, "record {} changed {} cells", k, diff);
            for v in &image {
                prop_assert!(journaled.contains(v), "invented value {}", v);
            }
            prev = image;
        }
    }

    /// Every fault regime is a prefix cut of the crasher's soft suffix:
    /// writes flushed before the blackout survive verbatim, and the
    /// unflushed writes roll back from some point in write order — a
    /// blackout can never un-perform flushed (committed) work, and never
    /// exposes a value that was not written.
    #[test]
    fn blackout_is_a_prefix_cut_of_the_soft_suffix(
        durable_vals in proptest::collection::vec(any::<u64>(), 0..CELLS),
        soft_vals in proptest::collection::vec(any::<u64>(), 1..CELLS + 1),
        fault_pick in 0u8..4,
        seed in any::<u64>(),
    ) {
        let fault = fault_from(fault_pick);
        let mem = DurableRegisters::new(VecRegisters::new(CELLS), fault, seed);
        mem.note_actor(1);
        // Phase 1: flushed writes — the durable floor.
        for (c, v) in durable_vals.iter().enumerate() {
            mem.write(c, v | 1);
        }
        mem.perform_barrier();
        let floor = mem.snapshot();
        // Phase 2: soft writes to distinct cells with distinct values.
        let soft: Vec<(usize, u64)> = soft_vals
            .iter()
            .enumerate()
            .map(|(i, v)| (i, (v << 4) | 2))
            .collect();
        for &(c, v) in &soft {
            mem.write(c, v);
        }
        mem.crash_blackout(1);
        let after = mem.snapshot();
        // The survivors must be exactly writes[..cut] for some cut.
        let cut = soft
            .iter()
            .position(|&(c, v)| after[c] != v)
            .unwrap_or(soft.len());
        for (i, &(c, v)) in soft.iter().enumerate() {
            if i < cut {
                prop_assert_eq!(after[c], v, "{}: surviving prefix intact", fault.label());
            } else {
                prop_assert_eq!(
                    after[c], floor[c],
                    "{}: rolled-back cell {} returns to the durable floor",
                    fault.label(), c
                );
            }
        }
        for c in soft.len()..CELLS {
            prop_assert_eq!(after[c], floor[c], "untouched cell {} unchanged", c);
        }
        prop_assert_eq!(mem.recover_image(), after);
        // Idempotence: a second blackout of the same pid is a no-op (the
        // surviving records became the new durable baseline).
        mem.crash_blackout(1);
        prop_assert_eq!(mem.snapshot(), after);
    }

    /// A blackout only touches the crasher's buffer: another process's
    /// soft records survive every fault regime untouched.
    #[test]
    fn blackout_spares_other_actors_buffers(
        survivor_vals in proptest::collection::vec(any::<u64>(), 1..CELLS / 2 + 1),
        crasher_vals in proptest::collection::vec(any::<u64>(), 0..CELLS / 2),
        fault_pick in 0u8..4,
        seed in any::<u64>(),
    ) {
        let mem = DurableRegisters::new(VecRegisters::new(CELLS), fault_from(fault_pick), seed);
        // pid 2 (the survivor) writes the low cells, pid 1 the high cells:
        // disjoint, so replay cannot mask either's records.
        mem.note_actor(2);
        for (c, v) in survivor_vals.iter().enumerate() {
            mem.write(c, v | 1);
        }
        mem.note_actor(1);
        for (c, v) in crasher_vals.iter().enumerate() {
            mem.write(CELLS / 2 + c, v | 1);
        }
        mem.crash_blackout(1);
        let after = mem.snapshot();
        for (c, v) in survivor_vals.iter().enumerate() {
            prop_assert_eq!(after[c], v | 1, "survivor's soft write {} lost", c);
        }
        prop_assert_eq!(mem.recover_image(), after);
    }

    /// Fault-free differential: the durable wrapper is observationally
    /// identical to a bare [`VecRegisters`] — same reads, same swap
    /// returns, same counters, same epochs — under arbitrary operation
    /// sequences including barriers and blackouts.
    #[test]
    fn fault_free_wrapper_is_observationally_identical(raw in raw_ops()) {
        let plain = VecRegisters::new(CELLS);
        let wrapped = DurableRegisters::new(VecRegisters::new(CELLS), StorageFault::None, 99);
        for &r in &raw {
            let op = decode(r);
            apply(&plain, op);
            apply(&wrapped, op);
            if let Op::Write(cell, _) | Op::Swap(cell, _) = op {
                prop_assert_eq!(plain.read(cell), wrapped.read(cell));
                prop_assert_eq!(plain.global_epoch(), wrapped.global_epoch());
            }
        }
        prop_assert_eq!(plain.snapshot(), wrapped.snapshot());
        prop_assert_eq!(plain.work(), wrapped.work());
        prop_assert_eq!(plain.global_epoch(), wrapped.global_epoch());
        prop_assert_eq!(wrapped.recover_image(), wrapped.snapshot());
    }
}
