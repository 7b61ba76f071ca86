//! Fine-grained transition tests for the KKβ automaton — each asserts one
//! behaviour of Fig. 2 that the coarser integration tests could mask.

use amo_core::{KkConfig, KkLayout, KkMode, KkPhase, KkProcess, SpanMap};
use amo_ostree::{DenseFenwickSet, FenwickSet, OrderedJobSet};
use amo_sim::{Process, Registers, StepEvent, VecRegisters};

fn step(p: &mut KkProcess, mem: &VecRegisters) -> StepEvent {
    Process::<VecRegisters>::step(p, mem)
}

/// Drives `p` until it reaches `phase` (or panics after a step budget).
fn drive_to(p: &mut KkProcess, mem: &VecRegisters, phase: KkPhase) {
    let mut guard = 0;
    while p.phase() != phase {
        step(p, mem);
        guard += 1;
        assert!(guard < 100_000, "never reached {phase:?}");
    }
}

#[test]
fn gather_try_skips_self_without_reading() {
    let m = 3;
    let config = KkConfig::new(9, m).unwrap();
    let layout = KkLayout::contiguous(m, 9, false);
    let mem = VecRegisters::new(layout.cells());
    let mut p = KkProcess::from_config(2, &config, layout);
    drive_to(&mut p, &mem, KkPhase::GatherTry);
    mem.reset_work();
    // Three gatherTry iterations: q = 1 (read), q = 2 (self, local), q = 3 (read).
    let e1 = step(&mut p, &mem);
    let e2 = step(&mut p, &mem);
    let e3 = step(&mut p, &mem);
    assert!(matches!(e1, StepEvent::Read { .. }));
    assert_eq!(e2, StepEvent::Local, "own register is skipped");
    assert!(matches!(e3, StepEvent::Read { .. }));
    assert_eq!(mem.work().reads, 2);
    assert_eq!(p.phase(), KkPhase::GatherDone);
}

#[test]
fn gather_done_consumes_a_full_row_without_advancing_q() {
    let m = 2;
    let n = 8;
    let config = KkConfig::new(n, m).unwrap();
    let layout = KkLayout::contiguous(m, n, false);
    let mem = VecRegisters::new(layout.cells());
    // Pre-log three completed jobs for process 2.
    for (pos, job) in [(1u64, 5u64), (2, 6), (3, 7)] {
        mem.write(layout.done_cell(2, pos), job);
    }
    let mut p = KkProcess::from_config(1, &config, layout);
    drive_to(&mut p, &mem, KkPhase::GatherDone);
    // Row walk: q=1 self-skip, then reads 5, 6, 7, then the 0 terminator.
    step(&mut p, &mem); // self
    for _ in 0..3 {
        assert!(matches!(step(&mut p, &mem), StepEvent::Read { .. }));
        assert_eq!(p.phase(), KkPhase::GatherDone, "stays on the row");
    }
    step(&mut p, &mem); // reads 0 → advances past q = 2
    assert_eq!(p.phase(), KkPhase::Check);
    assert_eq!(p.done_len(), 3);
    assert_eq!(p.free_len(), n - 3);
}

#[test]
fn gather_done_resumes_row_position_across_cycles() {
    // POS(q) persists: a second gather must not re-read old entries.
    let m = 2;
    let n = 10;
    let config = KkConfig::new(n, m).unwrap();
    let layout = KkLayout::contiguous(m, n, false);
    let mem = VecRegisters::new(layout.cells());
    mem.write(layout.done_cell(2, 1), 9);
    let mut p = KkProcess::from_config(1, &config, layout);
    // First full cycle (job 1 gets performed).
    let mut guard = 0;
    while p.performs() == 0 {
        step(&mut p, &mem);
        guard += 1;
        assert!(guard < 10_000);
    }
    assert_eq!(p.done_len(), 1, "learned job 9 from row 2");
    // Process 2 logs one more; p's next gather starts at POS(2) = 2.
    mem.write(layout.done_cell(2, 2), 8);
    mem.reset_work();
    drive_to(&mut p, &mem, KkPhase::Check);
    assert_eq!(p.done_len(), 3, "job 1 (own) + 9 + 8");
    // Reads: gatherTry (1: q=2) + gatherDone on row 2 (8 then 0) = 3 total.
    assert_eq!(mem.work().reads, 3, "old entries are not re-read");
}

#[test]
fn try_set_deduplicates_repeated_announcements() {
    let m = 4;
    let n = 16;
    let config = KkConfig::new(n, m).unwrap();
    let layout = KkLayout::contiguous(m, n, false);
    let mem = VecRegisters::new(layout.cells());
    // Everyone else announces the same job.
    for q in 2..=4 {
        mem.write(layout.next_cell(q), 7);
    }
    let mut p = KkProcess::from_config(1, &config, layout);
    drive_to(&mut p, &mem, KkPhase::GatherDone);
    // TRY = {7}: the dedup keeps |TRY| ≤ m − 1 tight.
    drive_to(&mut p, &mem, KkPhase::Check);
    p.check_invariants().expect("TRY invariants");
}

#[test]
fn zero_announcements_are_ignored() {
    let m = 2;
    let config = KkConfig::new(8, m).unwrap();
    let layout = KkLayout::contiguous(m, 8, false);
    let mem = VecRegisters::new(layout.cells());
    let mut p = KkProcess::from_config(1, &config, layout);
    drive_to(&mut p, &mem, KkPhase::Check);
    // next_2 is 0 (init): TRY must remain empty, check must pass.
    step(&mut p, &mem);
    assert_eq!(
        p.phase(),
        KkPhase::Do,
        "no phantom collision from init values"
    );
}

#[test]
fn done_write_appends_at_increasing_positions() {
    let n = 6;
    let config = KkConfig::new(n, 1).unwrap();
    let layout = KkLayout::contiguous(1, n, false);
    let mem = VecRegisters::new(layout.cells());
    let mut p = KkProcess::from_config(1, &config, layout);
    let mut guard = 0;
    while !p.is_terminated() {
        step(&mut p, &mem);
        guard += 1;
        assert!(guard < 100_000);
    }
    let snap = mem.snapshot();
    let row: Vec<u64> = (1..=n as u64)
        .map(|pos| snap[layout.done_cell(1, pos)])
        .collect();
    let mut sorted = row.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (1..=n as u64).collect::<Vec<_>>(),
        "all jobs logged once"
    );
    assert!(row.iter().all(|&v| v != 0), "log is dense");
}

#[test]
fn iter_mode_flag_checked_between_check_and_do() {
    // The flag read happens after check succeeds and before do — a flag
    // raised in that window must abort the do (Lemma 6.2's interleaving).
    let n = 8;
    let layout = KkLayout::contiguous(1, n, true);
    let mem = VecRegisters::new(layout.cells());
    let mut p = KkProcess::new(
        1,
        1,
        2,
        layout,
        FenwickSet::with_all(n),
        KkMode::IterStep { output_free: false },
        SpanMap::Identity,
    );
    drive_to(&mut p, &mem, KkPhase::FlagRead);
    // Raise the flag exactly in the window.
    mem.write(layout.flag_cell().unwrap(), 1);
    step(&mut p, &mem); // flag read
    assert_eq!(p.phase(), KkPhase::FinalGatherTry, "do aborted");
    assert_eq!(p.performs(), 0);
}

#[test]
fn stepping_is_deterministic() {
    let config = KkConfig::new(20, 2).unwrap();
    let layout = KkLayout::contiguous(2, 20, false);
    let run = || {
        let mem = VecRegisters::new(layout.cells());
        let mut a = KkProcess::from_config(1, &config, layout);
        let mut b = KkProcess::from_config(2, &config, layout);
        let mut events = Vec::new();
        for i in 0..500 {
            let p = if i % 2 == 0 { &mut a } else { &mut b };
            if !p.is_terminated() {
                events.push(step(p, &mem));
            }
        }
        events
    };
    assert_eq!(run(), run());
}

#[test]
fn blocks_span_map_partial_tail_in_do() {
    // A super-job do at the tail must clip at n (SpanMap::Blocks).
    let blocks = 3usize; // universe of 3 super-jobs over 10 jobs, size 4
    let layout = KkLayout::contiguous(1, blocks, true);
    let mem = VecRegisters::new(layout.cells());
    let mut p = KkProcess::new(
        1,
        1,
        1,
        layout,
        FenwickSet::with_all(blocks),
        KkMode::IterStep { output_free: false },
        SpanMap::Blocks {
            size: 4,
            total_jobs: 10,
        },
    );
    let mut spans = Vec::new();
    while !p.is_terminated() {
        if let StepEvent::Perform { span } = step(&mut p, &mem) {
            spans.push(span);
        }
    }
    assert!(
        spans.iter().any(|s| s.lo == 9 && s.hi == 10),
        "tail block clipped: {spans:?}"
    );
}

/// Writes `n + 1` into process 2's log row and lets process 1 gather it,
/// through `step` or the batched `step_many`. A corrupted log entry must
/// panic, never be merged or silently dropped.
fn gather_corrupted_log<S: OrderedJobSet>(batched: bool) {
    let n = 8;
    let config = KkConfig::new(n, 2).unwrap();
    let layout = KkLayout::contiguous(2, n, false);
    let mem = VecRegisters::new(layout.cells());
    mem.write(layout.done_cell(2, 1), n as u64 + 1);
    let mut p: KkProcess<S> = KkProcess::from_config(1, &config, layout);
    for _ in 0..100 {
        if batched {
            Process::<VecRegisters>::step_many(&mut p, &mem, 100);
        } else {
            Process::<VecRegisters>::step(&mut p, &mem);
        }
    }
    unreachable!("the corrupted entry was never merged");
}

#[test]
#[should_panic(expected = "outside universe")]
fn corrupted_log_panics_in_step_on_fenwick() {
    gather_corrupted_log::<FenwickSet>(false);
}

#[test]
#[should_panic(expected = "outside universe")]
fn corrupted_log_panics_in_step_many_on_fenwick() {
    gather_corrupted_log::<FenwickSet>(true);
}

#[test]
#[should_panic(expected = "outside universe")]
fn corrupted_log_panics_in_step_on_dense() {
    gather_corrupted_log::<DenseFenwickSet>(false);
}

#[test]
#[should_panic(expected = "outside universe")]
fn corrupted_log_panics_in_step_many_on_dense() {
    gather_corrupted_log::<DenseFenwickSet>(true);
}
