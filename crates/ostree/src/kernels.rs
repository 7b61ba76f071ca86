//! Word-granular bitmap kernels for the set structures and the register
//! file.
//!
//! The simulation's fast path spends much of its wall-clock in short bitmap
//! scans: [`FenwickSet`](crate::FenwickSet)'s `count_le` prefix counts, the
//! n-th-set-bit probes that finish its (hinted) `select_excluding` walks,
//! and the register file's restores. This module holds
//! those scans as small bulk primitives in portable Rust, one body each.
//!
//! Their callers hand them short slices: `count_le` and the hinted walk
//! pass at most seven whole words plus a masked tail, and a block probe
//! covers at most eight words. Wider SIMD bodies for these primitives (an
//! AVX2 tier and an AVX-512 `vpopcntq` tier behind a runtime dispatcher)
//! were built, measured end to end and deleted; the numbers are in the
//! keep-or-cut ledger of `DESIGN.md`.
//!
//! # Counter-neutrality invariant
//!
//! The deterministic `ops` charges of the set structures are pinned by the
//! work pins (`tests/work_pins.rs`) and the equivalence suites, so no
//! primitive here charges anything. Each is a pure function of its inputs,
//! and its callers derive the charge of the logical walk (words probed,
//! entries summed) from slice lengths and returned positions. The
//! `kernel_equivalence` suite pins every primitive to a naive bit-loop
//! reference over word, block and superblock boundaries, ragged tails and
//! empty or full words.

use std::cell::Cell;

/// Total set bits across `words`.
pub fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// [`popcount`] with the **last** word masked by `tail_mask` before
/// counting (an empty slice counts 0) — the shape of every ragged-tail
/// bitmap scan (`count_le` partial words, the hinted walk's in-block rank).
pub fn popcount_masked_tail(words: &[u64], tail_mask: u64) -> u64 {
    match words.split_last() {
        None => 0,
        Some((last, head)) => popcount(head) + u64::from((last & tail_mask).count_ones()),
    }
}

/// Set bits among the first `end_bit` bits of `bits` (bit `k` of word
/// `k / 64`): the bulk half of a `count_le` probe, full words plus a masked
/// tail.
///
/// # Panics
///
/// Panics if `end_bit` reaches past the slice.
pub fn count_le_range(bits: &[u64], end_bit: usize) -> u64 {
    let full = end_bit / 64;
    let rem = end_bit % 64;
    if rem == 0 {
        popcount(&bits[..full])
    } else {
        popcount_masked_tail(&bits[..=full], (1u64 << rem) - 1)
    }
}

/// 0-based bit position (within the slice) of the `n`-th set bit
/// (1-based), or `None` when fewer than `n` bits are set.
///
/// # Panics
///
/// Debug-asserts `n ≥ 1`.
pub fn find_nth_set_in(words: &[u64], n: u32) -> Option<usize> {
    debug_assert!(n >= 1, "rank targets are 1-based");
    let mut remaining = n;
    for (i, &w) in words.iter().enumerate() {
        let pc = w.count_ones();
        if pc >= remaining {
            return Some(i * 64 + select_in_word(w, remaining));
        }
        remaining -= pc;
    }
    None
}

/// 0-based bit position (within the slice) of the `n`-th set bit counted
/// **from the right** (1-based; `n == 1` is the highest set bit), or `None`
/// when fewer than `n` bits are set — the mirror used by the
/// right-entering exclusion walks.
///
/// # Panics
///
/// Debug-asserts `n ≥ 1`.
pub fn find_nth_set_from_right(words: &[u64], n: u32) -> Option<usize> {
    debug_assert!(n >= 1, "rank targets are 1-based");
    let mut remaining = n;
    for (i, &w) in words.iter().enumerate().rev() {
        let pc = w.count_ones();
        if pc >= remaining {
            return Some(i * 64 + select_in_word(w, pc - remaining + 1));
        }
        remaining -= pc;
    }
    None
}

/// First index `≥ start` whose count exceeds `threshold`, or `None` — the
/// violation scan of the dense `Execution::summary` ledger.
pub fn find_gt(counts: &[u32], threshold: u32, start: usize) -> Option<usize> {
    if start >= counts.len() {
        return None;
    }
    counts[start..]
        .iter()
        .position(|&c| c > threshold)
        .map(|p| start + p)
}

/// `len` zeroed cells from a zeroed allocation — the storage of a fresh
/// `VecRegisters`.
///
/// `vec![0u64; len]` asks the allocator for zeroed memory instead of
/// storing `len` zeros, and a large zeroed allocation is a fresh mapping
/// whose untouched pages stay the kernel's shared zero page: a file costs
/// resident memory only for the pages a run writes. `vec![Cell::new(0);
/// len]` would clone the zero into every cell and touch every page.
pub fn zeroed_cells(len: usize) -> Vec<Cell<u64>> {
    let mut words = std::mem::ManuallyDrop::new(vec![0u64; len]);
    let (ptr, len, cap) = (words.as_mut_ptr(), words.len(), words.capacity());
    // SAFETY: `Cell<u64>` is `repr(transparent)` over `u64`, so it has the
    // same size and alignment, and every initialised `u64` (here: zero) is
    // a valid `Cell<u64>`. The allocation therefore satisfies
    // `Vec<Cell<u64>>::from_raw_parts` with the same pointer, length and
    // capacity, and it is freed with the layout it was allocated with.
    // `ManuallyDrop` keeps the original `Vec` from freeing it as well.
    #[allow(unsafe_code)]
    unsafe {
        Vec::from_raw_parts(ptr.cast::<Cell<u64>>(), len, cap)
    }
}

/// Copies `src` into a register file's `Cell` storage (the bulk body of
/// `VecRegisters::restore`).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn copy_into_cells(cells: &[Cell<u64>], src: &[u64]) {
    assert_eq!(cells.len(), src.len(), "copy_into_cells length mismatch");
    for (c, &v) in cells.iter().zip(src) {
        c.set(v);
    }
}

/// Position (0-based bit index) of the `n`-th set bit of `word`
/// (`1 ≤ n ≤ popcount(word)`).
///
/// SWAR byte-prefix select: byte-granular popcounts are computed in
/// parallel and turned into inclusive prefix sums with one multiply, so
/// locating the target byte needs no data-dependent probing; the final
/// in-byte step clears lower bits with `w & (w − 1)` and finishes on
/// `trailing_zeros`. The n-th-set-bit probes above finish in it, and
/// [`FenwickSet`](crate::FenwickSet)'s word-at-a-time exclusion walks call
/// it directly on a word with its exclusions masked out.
#[inline]
pub fn select_in_word(word: u64, n: u32) -> usize {
    debug_assert!(n >= 1 && n <= word.count_ones());
    // Parallel byte popcounts (the classic SWAR reduction)…
    let pair = word - ((word >> 1) & 0x5555_5555_5555_5555);
    let quad = (pair & 0x3333_3333_3333_3333) + ((pair >> 2) & 0x3333_3333_3333_3333);
    let bytes = (quad + (quad >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // …then inclusive byte prefix sums via multiply: byte `k` of `prefix`
    // holds popcount(bits 0..8(k+1)).
    let prefix = bytes.wrapping_mul(0x0101_0101_0101_0101);
    let mut base = 0usize;
    let mut before = 0u32;
    for b in 0..8 {
        let p = (prefix >> (b * 8)) as u32 & 0xFF;
        if p >= n {
            base = b * 8;
            break;
        }
        before = p;
    }
    let mut r = n - before;
    let mut byte = (word >> base) & 0xFF;
    loop {
        if r == 1 {
            return base + byte.trailing_zeros() as usize;
        }
        byte &= byte - 1;
        r -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic splitmix64 word stream.
    fn words(seed: u64, len: usize) -> Vec<u64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    fn naive_nth(words: &[u64], n: u32) -> Option<usize> {
        let mut seen = 0u32;
        for (i, &w) in words.iter().enumerate() {
            for b in 0..64 {
                if w >> b & 1 == 1 {
                    seen += 1;
                    if seen == n {
                        return Some(i * 64 + b);
                    }
                }
            }
        }
        None
    }

    #[test]
    fn select_in_word_matches_naive() {
        for &w in &[1u64, 0x8000_0000_0000_0000, u64::MAX, 0xDEAD_BEEF_F00D_1234] {
            for n in 1..=w.count_ones() {
                assert_eq!(Some(select_in_word(w, n)), naive_nth(&[w], n), "w={w:#x}");
            }
        }
    }

    #[test]
    fn zeroed_cells_are_zero_and_writable() {
        assert!(zeroed_cells(0).is_empty());
        let mut cells = zeroed_cells(1000);
        assert_eq!(cells.len(), 1000);
        assert!(cells.iter().all(|c| c.get() == 0));
        cells[999].set(7);
        for c in &cells[..10] {
            c.set(3);
        }
        cells.push(Cell::new(9));
        let values: Vec<u64> = cells.iter().map(Cell::get).collect();
        assert_eq!(&values[..10], &[3; 10]);
        assert_eq!(&values[10..999], &[0; 989][..]);
        assert_eq!(&values[999..], &[7, 9]);
    }

    #[test]
    fn scalar_primitives_match_naive() {
        for len in [0usize, 1, 3, 4, 5, 8, 11, 16, 33] {
            let ws = words(len as u64 + 7, len);
            let total: u64 = ws.iter().map(|w| u64::from(w.count_ones())).sum();
            assert_eq!(popcount(&ws), total, "len={len}");
            for n in [1u32, 2, 17, total as u32, total as u32 + 1] {
                if n == 0 {
                    continue;
                }
                assert_eq!(
                    find_nth_set_in(&ws, n),
                    naive_nth(&ws, n),
                    "len={len} n={n}"
                );
                // n-th from the right = (total − n + 1)-th from the left.
                let want = if u64::from(n) <= total {
                    naive_nth(&ws, total as u32 - n + 1)
                } else {
                    None
                };
                assert_eq!(
                    find_nth_set_from_right(&ws, n),
                    want,
                    "len={len} n={n} (right)"
                );
            }
        }
    }

    #[test]
    fn count_le_range_counts_prefixes() {
        let ws = words(42, 6);
        let mut seen = 0u64;
        for bit in 0..ws.len() * 64 {
            assert_eq!(count_le_range(&ws, bit), seen, "prefix {bit}");
            if ws[bit / 64] >> (bit % 64) & 1 == 1 {
                seen += 1;
            }
        }
        assert_eq!(count_le_range(&ws, ws.len() * 64), seen);
        assert_eq!(count_le_range(&[], 0), 0);
    }

    #[test]
    fn find_gt_scans_from_start() {
        let counts = [0u32, 1, 2, 0, 5, 1, 1, 1, 1, 3];
        assert_eq!(find_gt(&counts, 1, 0), Some(2));
        assert_eq!(find_gt(&counts, 1, 3), Some(4));
        assert_eq!(find_gt(&counts, 1, 5), Some(9));
        assert_eq!(find_gt(&counts, 1, 10), None);
        assert_eq!(find_gt(&counts, 4, 0), Some(4));
        assert_eq!(find_gt(&counts, 5, 0), None);
    }

    #[test]
    fn copy_into_cells_overwrites_every_cell() {
        let cells: Vec<Cell<u64>> = (0..13).map(Cell::new).collect();
        let src: Vec<u64> = (100..113).collect();
        copy_into_cells(&cells, &src);
        assert_eq!(cells.iter().map(Cell::get).collect::<Vec<_>>(), src);
    }
}
