//! Runtime-dispatched wide-lane kernels for the bitmap hot paths.
//!
//! The simulation's fast path spends most of its wall-clock in word-granular
//! bitmap scans: [`FenwickSet`](crate::FenwickSet)'s `count_le` bulk sums,
//! the (hinted) `select_excluding` walks, the register-file prefix clears and
//! the dense `Execution::summary` pass. This module factors those physical
//! scans into a small set of bulk primitives with **three** implementations:
//!
//! * a **scalar** tier — the portable SWAR code every path historically ran,
//!   kept as the universal oracle and fallback;
//! * an **AVX2** tier (`core::arch::x86_64`; requires AVX2 + POPCNT) —
//!   256-bit unaligned loads, `vpshufb` nibble-table popcounts reduced with
//!   `vpsadbw`, and a byte-prefix select inside the hit lane;
//! * an **AVX-512** tier (requires AVX-512F + AVX-512VPOPCNTDQ) — native
//!   per-lane `vpopcntq` over 512-bit groups for the popcount family
//!   ([`popcount`], [`popcount_masked_tail`], and [`count_le_range`] built
//!   on them); every other primitive falls back to the AVX2 bodies, which
//!   [`avx512_available`] guarantees are runnable.
//!
//! `std::simd` stays out of reach under the workspace's MSRV 1.75 pin, so
//! the AVX2 tier is written against the stable `core::arch` intrinsics —
//! and because the AVX-512 intrinsics (and `#[target_feature(enable =
//! "avx512f")]`) are themselves unstable under that pin, the AVX-512
//! popcount kernel is spelled as stable inline `asm!` over `zmm`
//! registers. A tier is selected **once** per process by [`tier`] via
//! `is_x86_feature_detected!`, cached in an atomic. The
//! `AMO_KERNEL=scalar|avx2|avx512` environment variable forces a tier (CI
//! runs the scalar leg on every PR; differential tests flip tiers
//! in-process through [`set_tier`]).
//!
//! # Counter-neutrality invariant
//!
//! The deterministic `ops`/`iters` charges of the set structures are pinned
//! by the perf gate and the equivalence suites, so kernel selection must
//! never change any counter. The contract: **kernels accelerate the
//! physical scan only; all work accounting stays at the logical-walk
//! layer**. Every primitive here is a pure function of its inputs — callers
//! derive the historical charge (words probed, entries summed) from slice
//! lengths and returned positions, never from which tier executed. The
//! `kernel_equivalence` property suite pins the AVX2 tier to the scalar
//! oracle value-for-value, and the cross-tier fleet test pins whole-run
//! reports (including `local_work`) bit-for-bit across `AMO_KERNEL` tiers.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// A kernel implementation tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Portable SWAR scalar code (the universal fallback and oracle).
    Scalar,
    /// 256-bit `core::arch::x86_64` kernels (requires AVX2 + POPCNT).
    Avx2,
    /// 512-bit `vpopcntq` inline-asm kernels for the popcount family
    /// (requires AVX-512F + AVX-512VPOPCNTDQ); other primitives run the
    /// AVX2 bodies.
    Avx512,
}

impl KernelTier {
    /// Stable lowercase name (`"scalar"` / `"avx2"` / `"avx512"`) — the
    /// spelling used by the `AMO_KERNEL` override and recorded in bench
    /// output.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
        }
    }
}

impl fmt::Display for KernelTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

const TIER_UNRESOLVED: u8 = 0;
const TIER_SCALAR: u8 = 1;
const TIER_AVX2: u8 = 2;
const TIER_AVX512: u8 = 3;

/// Resolved tier, cached after the first [`tier`] call (0 = unresolved).
static TIER: AtomicU8 = AtomicU8::new(TIER_UNRESOLVED);

fn encode(t: KernelTier) -> u8 {
    match t {
        KernelTier::Scalar => TIER_SCALAR,
        KernelTier::Avx2 => TIER_AVX2,
        KernelTier::Avx512 => TIER_AVX512,
    }
}

/// `true` when this process can run the AVX2 tier (x86-64 with AVX2 and
/// POPCNT reported by the CPU at runtime).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` when this process can run the AVX-512 tier: x86-64 with AVX-512F
/// and AVX-512VPOPCNTDQ reported at runtime, **plus** the AVX2 baseline —
/// the AVX-512 tier dispatches every non-popcount primitive to the AVX2
/// bodies, so those must be runnable too.
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_available()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One-time tier resolution: the `AMO_KERNEL` override wins, otherwise the
/// best tier the CPU supports.
fn detect() -> KernelTier {
    match std::env::var("AMO_KERNEL") {
        Ok(v) if v == "scalar" => KernelTier::Scalar,
        Ok(v) if v == "avx2" => {
            // A forced tier the hardware cannot run must fail loudly: the
            // override exists for differential testing, where a silent
            // scalar fallback would fake a passing AVX2 leg.
            assert!(
                avx2_available(),
                "AMO_KERNEL=avx2 forced but this CPU/arch has no AVX2+POPCNT"
            );
            KernelTier::Avx2
        }
        Ok(v) if v == "avx512" => {
            assert!(
                avx512_available(),
                "AMO_KERNEL=avx512 forced but this CPU/arch has no \
                 AVX-512F+AVX-512VPOPCNTDQ (with AVX2 baseline)"
            );
            KernelTier::Avx512
        }
        Ok(v) if v.is_empty() => auto_tier(),
        Ok(v) => {
            panic!("unknown AMO_KERNEL tier {v:?} (expected \"scalar\", \"avx2\" or \"avx512\")")
        }
        Err(_) => auto_tier(),
    }
}

fn auto_tier() -> KernelTier {
    if avx512_available() {
        KernelTier::Avx512
    } else if avx2_available() {
        KernelTier::Avx2
    } else {
        KernelTier::Scalar
    }
}

/// The kernel tier this process dispatches to.
///
/// Detection (CPU features + the `AMO_KERNEL` override) runs once; every
/// later call is a relaxed atomic load. Since both tiers are
/// value-equivalent and counter-neutral, a concurrent first call racing the
/// cache store is benign — both sides resolve to the same tier.
pub fn tier() -> KernelTier {
    match TIER.load(Ordering::Relaxed) {
        TIER_SCALAR => KernelTier::Scalar,
        TIER_AVX2 => KernelTier::Avx2,
        TIER_AVX512 => KernelTier::Avx512,
        _ => {
            let t = detect();
            TIER.store(encode(t), Ordering::Relaxed);
            t
        }
    }
}

/// Overrides the dispatched tier for the rest of the process (or until the
/// next override), returning the previously resolved tier.
///
/// This is the in-process form of the `AMO_KERNEL` override, for
/// differential tests and the `bench_kernels` microbenchmarks that compare
/// tiers inside one run. Because kernels are counter-neutral and
/// value-equivalent, switching tiers mid-process is observationally
/// invisible to the algorithms.
///
/// # Panics
///
/// Panics if [`KernelTier::Avx2`] or [`KernelTier::Avx512`] is requested
/// on hardware without it.
pub fn set_tier(t: KernelTier) -> KernelTier {
    match t {
        KernelTier::Scalar => {}
        KernelTier::Avx2 => assert!(
            avx2_available(),
            "KernelTier::Avx2 forced but this CPU/arch has no AVX2+POPCNT"
        ),
        KernelTier::Avx512 => assert!(
            avx512_available(),
            "KernelTier::Avx512 forced but this CPU/arch has no \
             AVX-512F+AVX-512VPOPCNTDQ (with AVX2 baseline)"
        ),
    }
    let prev = tier();
    TIER.store(encode(t), Ordering::Relaxed);
    prev
}

/// Dispatches on the resolved tier (x86-64 only; other arches always run
/// the scalar body). The two-arm form reuses the AVX2 body for the AVX-512
/// tier — [`avx512_available`] includes the AVX2 probe precisely so that
/// fallback is always runnable.
macro_rules! dispatch {
    ($scalar:expr, $avx2:expr) => {
        dispatch!($scalar, $avx2, $avx2)
    };
    ($scalar:expr, $avx2:expr, $avx512:expr) => {{
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: a wide tier is only ever selected (detect / set_tier)
            // after its `*_available()` probe confirmed the features on
            // this CPU at runtime; `avx512_available()` implies
            // `avx2_available()`, so an Avx512 dispatch may land on an
            // AVX2 body.
            match tier() {
                KernelTier::Avx2 => {
                    #[allow(unsafe_code)]
                    return unsafe { $avx2 };
                }
                KernelTier::Avx512 => {
                    #[allow(unsafe_code)]
                    return unsafe { $avx512 };
                }
                KernelTier::Scalar => {}
            }
        }
        $scalar
    }};
}

/// Total set bits across `words`.
pub fn popcount(words: &[u64]) -> u64 {
    dispatch!(
        scalar::popcount(words),
        avx2::popcount(words),
        avx512::popcount(words)
    )
}

/// [`popcount`] with the **last** word masked by `tail_mask` before
/// counting (an empty slice counts 0) — the shape of every ragged-tail
/// bitmap scan (`count_le` partial words, the hinted walk's in-block rank).
pub fn popcount_masked_tail(words: &[u64], tail_mask: u64) -> u64 {
    dispatch!(
        scalar::popcount_masked_tail(words, tail_mask),
        avx2::popcount_masked_tail(words, tail_mask),
        avx512::popcount_masked_tail(words, tail_mask)
    )
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
    dispatch!(
        scalar::find_nth_set_in(words, n),
        avx2::find_nth_set_in(words, n)
    )
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
    dispatch!(
        scalar::find_nth_set_from_right(words, n),
        avx2::find_nth_set_from_right(words, n)
    )
}

/// Sum of a `u32` count slice (the per-block / per-superblock bulk sums of
/// `count_le`). The sum must fit a `u32` — set-structure counts are bounded
/// by the universe, which the callers keep below `u32::MAX`.
pub fn sum_u32(counts: &[u32]) -> u32 {
    dispatch!(scalar::sum_u32(counts), avx2::sum_u32(counts))
}

/// First index `≥ start` whose count exceeds `threshold`, or `None` — the
/// violation scan of the dense `Execution::summary` ledger (almost every
/// lane is `≤ 1`, so the wide tier skips eight counts per compare).
pub fn find_gt(counts: &[u32], threshold: u32, start: usize) -> Option<usize> {
    if start >= counts.len() {
        return None;
    }
    dispatch!(
        scalar::find_gt(counts, threshold, start),
        avx2::find_gt(counts, threshold, start)
    )
}

/// Fills `dst` with `value` (the full-word body of `with_all` bitmap
/// builds).
pub fn fill_u64(dst: &mut [u64], value: u64) {
    dispatch!(scalar::fill_u64(dst, value), avx2::fill_u64(dst, value))
}

/// Fills a register-file prefix (`Cell` storage) with `value` — the
/// whole-file prefix clear of `VecRegisters::reset`.
///
/// `Cell<u64>` is `repr(transparent)` over `u64` and `!Sync`, so the wide
/// tier may store straight through the cells' storage: the `&[Cell<u64>]`
/// proves the calling thread owns every cell for the duration of the call.
pub fn fill_cells(cells: &[Cell<u64>], value: u64) {
    dispatch!(
        scalar::fill_cells(cells, value),
        avx2::fill_cells(cells, value)
    )
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
/// `VecRegisters::restore`); see [`fill_cells`] for why the wide tier may
/// write through the cells.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn copy_into_cells(cells: &[Cell<u64>], src: &[u64]) {
    assert_eq!(cells.len(), src.len(), "copy_into_cells length mismatch");
    dispatch!(
        scalar::copy_into_cells(cells, src),
        avx2::copy_into_cells(cells, src)
    )
}

/// Position (0-based bit index) of the `n`-th set bit of `word`
/// (`1 ≤ n ≤ popcount(word)`).
///
/// SWAR byte-prefix select: byte-granular popcounts are computed in
/// parallel and turned into inclusive prefix sums with one multiply, so
/// locating the target byte needs no data-dependent probing; the final
/// in-byte step clears lower bits with `w & (w − 1)` and finishes on
/// `trailing_zeros`. One machine word is a single lane on every tier, so
/// this routine is shared rather than dispatched — it is also the in-lane
/// select the AVX2 kernels finish with.
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

/// Deterministic splitmix64 word stream — shared support for the kernel
/// unit tests and the `bench_kernels` microbenchmarks (not part of the
/// kernel API proper, hence hidden).
#[doc(hidden)]
pub fn splitmix_words(seed: u64, len: usize) -> Vec<u64> {
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

/// The portable SWAR tier — also the oracle the AVX2 tier is pinned to.
mod scalar {
    use std::cell::Cell;

    pub fn popcount(words: &[u64]) -> u64 {
        words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    pub fn popcount_masked_tail(words: &[u64], tail_mask: u64) -> u64 {
        match words.split_last() {
            None => 0,
            Some((last, head)) => popcount(head) + u64::from((last & tail_mask).count_ones()),
        }
    }

    pub fn find_nth_set_in(words: &[u64], n: u32) -> Option<usize> {
        let mut remaining = n;
        for (i, &w) in words.iter().enumerate() {
            let pc = w.count_ones();
            if pc >= remaining {
                return Some(i * 64 + super::select_in_word(w, remaining));
            }
            remaining -= pc;
        }
        None
    }

    pub fn find_nth_set_from_right(words: &[u64], n: u32) -> Option<usize> {
        let mut remaining = n;
        for (i, &w) in words.iter().enumerate().rev() {
            let pc = w.count_ones();
            if pc >= remaining {
                return Some(i * 64 + super::select_in_word(w, pc - remaining + 1));
            }
            remaining -= pc;
        }
        None
    }

    pub fn sum_u32(counts: &[u32]) -> u32 {
        counts.iter().fold(0u32, |a, &c| a.wrapping_add(c))
    }

    pub fn find_gt(counts: &[u32], threshold: u32, start: usize) -> Option<usize> {
        counts[start..]
            .iter()
            .position(|&c| c > threshold)
            .map(|p| start + p)
    }

    pub fn fill_u64(dst: &mut [u64], value: u64) {
        for w in dst {
            *w = value;
        }
    }

    pub fn fill_cells(cells: &[Cell<u64>], value: u64) {
        for c in cells {
            c.set(value);
        }
    }

    pub fn copy_into_cells(cells: &[Cell<u64>], src: &[u64]) {
        for (c, &v) in cells.iter().zip(src) {
            c.set(v);
        }
    }
}

/// The 256-bit lane tier. Every function requires AVX2 (+POPCNT for the
/// word tails) — callers dispatch here only after runtime detection.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::*;
    use std::cell::Cell;

    /// Words per 256-bit lane group.
    const LANES: usize = 4;

    /// Per-byte popcounts of `v` via the nibble lookup table (`vpshufb`),
    /// reduced to per-64-bit-lane sums with `vpsadbw`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lane_popcounts(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        // Shifting whole 64-bit lanes right by 4 crosses byte boundaries,
        // but the stray bits land above the low nibble and the mask drops
        // them — the standard nibble-popcount idiom.
        let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(v), low);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// The four 64-bit lanes of `v` as an array.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn to_lanes(v: __m256i) -> [u64; 4] {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        lanes
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub unsafe fn popcount(words: &[u64]) -> u64 {
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + LANES <= words.len() {
            let v = _mm256_loadu_si256(words.as_ptr().add(i).cast());
            acc = _mm256_add_epi64(acc, lane_popcounts(v));
            i += LANES;
        }
        let mut total: u64 = to_lanes(acc).iter().sum();
        while i < words.len() {
            total += u64::from(words[i].count_ones());
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub unsafe fn popcount_masked_tail(words: &[u64], tail_mask: u64) -> u64 {
        match words.split_last() {
            None => 0,
            Some((last, head)) => popcount(head) + u64::from((last & tail_mask).count_ones()),
        }
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub unsafe fn find_nth_set_in(words: &[u64], n: u32) -> Option<usize> {
        let mut remaining = n;
        let mut i = 0;
        while i + LANES <= words.len() {
            let v = _mm256_loadu_si256(words.as_ptr().add(i).cast());
            let lanes = to_lanes(lane_popcounts(v));
            let chunk: u64 = lanes.iter().sum();
            if (chunk as u32) < remaining {
                remaining -= chunk as u32;
                i += LANES;
                continue;
            }
            // The hit lies in this lane group: byte-prefix over the four
            // lane counts, then the shared in-lane select.
            for (k, &c) in lanes.iter().enumerate() {
                if c as u32 >= remaining {
                    return Some((i + k) * 64 + super::select_in_word(words[i + k], remaining));
                }
                remaining -= c as u32;
            }
            unreachable!("lane counts sum to the chunk count");
        }
        while i < words.len() {
            let pc = words[i].count_ones();
            if pc >= remaining {
                return Some(i * 64 + super::select_in_word(words[i], remaining));
            }
            remaining -= pc;
            i += 1;
        }
        None
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub unsafe fn find_nth_set_from_right(words: &[u64], n: u32) -> Option<usize> {
        let mut remaining = n;
        // Ragged head first (from the top), then whole lane groups down.
        let mut i = words.len();
        while i % LANES != 0 {
            i -= 1;
            let pc = words[i].count_ones();
            if pc >= remaining {
                return Some(i * 64 + super::select_in_word(words[i], pc - remaining + 1));
            }
            remaining -= pc;
        }
        while i >= LANES {
            i -= LANES;
            let v = _mm256_loadu_si256(words.as_ptr().add(i).cast());
            let lanes = to_lanes(lane_popcounts(v));
            let chunk: u64 = lanes.iter().sum();
            if (chunk as u32) < remaining {
                remaining -= chunk as u32;
                continue;
            }
            for (k, &c) in lanes.iter().enumerate().rev() {
                if c as u32 >= remaining {
                    return Some(
                        (i + k) * 64
                            + super::select_in_word(words[i + k], c as u32 - remaining + 1),
                    );
                }
                remaining -= c as u32;
            }
            unreachable!("lane counts sum to the chunk count");
        }
        None
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_u32(counts: &[u32]) -> u32 {
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 8 <= counts.len() {
            let v = _mm256_loadu_si256(counts.as_ptr().add(i).cast());
            acc = _mm256_add_epi32(acc, v);
            i += 8;
        }
        let mut lanes = [0u32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        let mut total = lanes.iter().fold(0u32, |a, &c| a.wrapping_add(c));
        while i < counts.len() {
            total = total.wrapping_add(counts[i]);
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn find_gt(counts: &[u32], threshold: u32, start: usize) -> Option<usize> {
        // Unsigned compare via sign-bias: cmpgt_epi32 is signed.
        let bias = _mm256_set1_epi32(i32::MIN);
        let thr = _mm256_xor_si256(_mm256_set1_epi32(threshold as i32), bias);
        let mut i = start;
        while i + 8 <= counts.len() {
            let v = _mm256_loadu_si256(counts.as_ptr().add(i).cast());
            let gt = _mm256_cmpgt_epi32(_mm256_xor_si256(v, bias), thr);
            let mask = _mm256_movemask_epi8(gt);
            if mask != 0 {
                return Some(i + mask.trailing_zeros() as usize / 4);
            }
            i += 8;
        }
        while i < counts.len() {
            if counts[i] > threshold {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn fill_u64(dst: &mut [u64], value: u64) {
        let v = _mm256_set1_epi64x(value as i64);
        let len = dst.len();
        let p = dst.as_mut_ptr();
        let mut i = 0;
        while i + LANES <= len {
            _mm256_storeu_si256(p.add(i).cast(), v);
            i += LANES;
        }
        while i < len {
            *p.add(i) = value;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn fill_cells(cells: &[Cell<u64>], value: u64) {
        // SAFETY (shared with `copy_into_cells`): `Cell<u64>` is
        // `repr(transparent)` over `u64`, so the cells' storage is a
        // contiguous run of `u64`s starting at `as_ptr()`; `Cell` is
        // `!Sync`, so holding `&[Cell<u64>]` proves no other thread can
        // touch the storage, and this function creates no other references
        // into it — exactly the aliasing regime of `Cell::set` via
        // `Cell::as_ptr`.
        let v = _mm256_set1_epi64x(value as i64);
        let len = cells.len();
        let p = cells.as_ptr() as *mut u64;
        let mut i = 0;
        while i + LANES <= len {
            _mm256_storeu_si256(p.add(i).cast(), v);
            i += LANES;
        }
        while i < len {
            cells[i].set(value);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn copy_into_cells(cells: &[Cell<u64>], src: &[u64]) {
        // SAFETY: see `fill_cells`.
        let len = cells.len();
        let p = cells.as_ptr() as *mut u64;
        let mut i = 0;
        while i + LANES <= len {
            let v = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            _mm256_storeu_si256(p.add(i).cast(), v);
            i += LANES;
        }
        while i < len {
            cells[i].set(src[i]);
            i += 1;
        }
    }
}

/// The 512-bit popcount tier: native per-lane `vpopcntq` over 64-byte
/// groups. Requires AVX-512F + AVX-512VPOPCNTDQ — callers dispatch here
/// only after runtime detection.
///
/// Under the workspace's MSRV 1.75 pin both the `_mm512_*` intrinsics and
/// `#[target_feature(enable = "avx512f")]` are unstable, so this tier is
/// spelled as stable inline `asm!` over `zmm` registers: the instructions
/// an `asm!` block emits need no compile-time feature enablement, and
/// correctness rests on the same runtime probe that gates every wide tier.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use std::arch::asm;

    /// Words per 512-bit lane group.
    const LANES: usize = 8;

    /// Per-lane `vpopcntq` sums over `groups` 512-bit groups at `ptr`,
    /// reduced to one total.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F + AVX-512VPOPCNTDQ and `groups ≥ 1` readable
    /// groups (of eight `u64`s each) starting at `ptr`.
    unsafe fn popcount_groups(mut ptr: *const u64, mut groups: usize) -> u64 {
        debug_assert!(groups >= 1);
        let mut lanes = [0u64; LANES];
        // Label "2" avoids the GNU-as 0/1 binary-suffix ambiguity.
        asm!(
            "vpxorq zmm0, zmm0, zmm0",
            "2:",
            "vmovdqu64 zmm1, zmmword ptr [{ptr}]",
            "vpopcntq zmm1, zmm1",
            "vpaddq zmm0, zmm0, zmm1",
            "add {ptr}, 64",
            "dec {groups}",
            "jnz 2b",
            "vmovdqu64 zmmword ptr [{lanes}], zmm0",
            ptr = inout(reg) ptr,
            groups = inout(reg) groups,
            lanes = in(reg) lanes.as_mut_ptr(),
            out("zmm0") _,
            out("zmm1") _,
            options(nostack),
        );
        let _ = (ptr, groups);
        lanes.iter().sum()
    }

    /// # Safety
    ///
    /// Requires AVX-512F + AVX-512VPOPCNTDQ (runtime-detected by the
    /// dispatcher).
    pub unsafe fn popcount(words: &[u64]) -> u64 {
        let groups = words.len() / LANES;
        let mut total = if groups > 0 {
            popcount_groups(words.as_ptr(), groups)
        } else {
            0
        };
        for &w in &words[groups * LANES..] {
            total += u64::from(w.count_ones());
        }
        total
    }

    /// # Safety
    ///
    /// Requires AVX-512F + AVX-512VPOPCNTDQ (runtime-detected by the
    /// dispatcher).
    pub unsafe fn popcount_masked_tail(words: &[u64], tail_mask: u64) -> u64 {
        match words.split_last() {
            None => 0,
            Some((last, head)) => popcount(head) + u64::from((last & tail_mask).count_ones()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::splitmix_words as words;

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
    fn tier_name_roundtrip() {
        assert_eq!(KernelTier::Scalar.name(), "scalar");
        assert_eq!(KernelTier::Avx2.name(), "avx2");
        assert_eq!(KernelTier::Avx2.to_string(), "avx2");
        assert_eq!(KernelTier::Avx512.name(), "avx512");
        assert_eq!(KernelTier::Avx512.to_string(), "avx512");
    }

    #[test]
    fn zeroed_cells_are_zero_and_writable() {
        assert!(zeroed_cells(0).is_empty());
        let mut cells = zeroed_cells(1000);
        assert_eq!(cells.len(), 1000);
        assert!(cells.iter().all(|c| c.get() == 0));
        cells[999].set(7);
        fill_cells(&cells[..10], 3);
        cells.push(Cell::new(9));
        let values: Vec<u64> = cells.iter().map(Cell::get).collect();
        assert_eq!(&values[..10], &[3; 10]);
        assert_eq!(&values[10..999], &[0; 989][..]);
        assert_eq!(&values[999..], &[7, 9]);
    }

    #[test]
    fn avx512_popcounts_match_scalar_oracle() {
        // Direct module-level differential (no tier flip needed); the
        // dispatched differential lives in forced_tiers_agree below and in
        // the kernel_equivalence suite.
        if !avx512_available() {
            eprintln!(
                "avx512_popcounts_match_scalar_oracle: no AVX-512VPOPCNTDQ — informational skip"
            );
            return;
        }
        #[cfg(target_arch = "x86_64")]
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 64, 129] {
            let ws = words(len as u64 + 3, len);
            #[allow(unsafe_code)]
            // SAFETY: guarded by avx512_available() above.
            let (pc, pm) = unsafe {
                (
                    super::avx512::popcount(&ws),
                    super::avx512::popcount_masked_tail(&ws, 0x00FF_00FF_00FF_00FF),
                )
            };
            assert_eq!(pc, super::scalar::popcount(&ws), "len={len}");
            assert_eq!(
                pm,
                super::scalar::popcount_masked_tail(&ws, 0x00FF_00FF_00FF_00FF),
                "len={len} (masked tail)"
            );
        }
    }

    #[test]
    fn scalar_primitives_match_naive() {
        // Pure scalar-module checks (tier-independent of the global cache).
        for len in [0usize, 1, 3, 4, 5, 8, 11, 16, 33] {
            let ws = words(len as u64 + 7, len);
            let total: u64 = ws.iter().map(|w| u64::from(w.count_ones())).sum();
            assert_eq!(super::scalar::popcount(&ws), total, "len={len}");
            for n in [1u32, 2, 17, total as u32, total as u32 + 1] {
                if n == 0 {
                    continue;
                }
                assert_eq!(
                    super::scalar::find_nth_set_in(&ws, n),
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
                    super::scalar::find_nth_set_from_right(&ws, n),
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
    fn fill_and_copy_cells() {
        use std::cell::Cell;
        let cells: Vec<Cell<u64>> = (0..13).map(Cell::new).collect();
        fill_cells(&cells, 7);
        assert!(cells.iter().all(|c| c.get() == 7));
        let src: Vec<u64> = (100..113).collect();
        copy_into_cells(&cells, &src);
        assert_eq!(cells.iter().map(Cell::get).collect::<Vec<_>>(), src);
        let mut buf = vec![0u64; 9];
        fill_u64(&mut buf, u64::MAX);
        assert!(buf.iter().all(|&w| w == u64::MAX));
    }

    #[test]
    fn forced_tiers_agree_on_every_primitive() {
        // In-process differential check; the heavier boundary-shape sweep
        // lives in the `kernel_equivalence` suite.
        if !avx2_available() {
            return;
        }
        let ws = words(99, 37);
        let counts: Vec<u32> = ws.iter().map(|&w| (w % 7) as u32).collect();
        let probe = || {
            (
                popcount(&ws),
                popcount_masked_tail(&ws, 0x0F0F),
                count_le_range(&ws, 1234),
                find_nth_set_in(&ws, 555),
                find_nth_set_from_right(&ws, 555),
                sum_u32(&counts),
                find_gt(&counts, 3, 1),
            )
        };
        let prev = set_tier(KernelTier::Scalar);
        let s = probe();
        set_tier(KernelTier::Avx2);
        assert_eq!(s, probe());
        if avx512_available() {
            set_tier(KernelTier::Avx512);
            assert_eq!(s, probe());
        } else {
            eprintln!(
                "forced_tiers_agree: no AVX-512VPOPCNTDQ — avx512 leg skipped (informational)"
            );
        }
        set_tier(prev);
    }
}
