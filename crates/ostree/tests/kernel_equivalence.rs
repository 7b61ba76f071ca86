//! Kernel reference suite: every `amo_ostree::kernels` bulk primitive must
//! agree **value-for-value** with a naive bit-loop reference on every
//! bitmap shape the hot paths can present — word/block/superblock
//! boundaries, ragged tails, empty and full words, sparse and alternating
//! fills.
//!
//! The set structures built on the kernels are pinned elsewhere:
//! `backend_equivalence.rs` drives `FenwickSet` and `DenseFenwickSet`
//! through the same operations and compares results and `ops` charges, and
//! `hint_invalidation.rs` pins hinted walks, superblock far jumps included,
//! to unhinted ones.

use amo_ostree::kernels;
use proptest::prelude::*;

// ---------- naive references ----------

fn naive_popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

fn naive_bit(words: &[u64], bit: usize) -> u64 {
    words[bit / 64] >> (bit % 64) & 1
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

/// Bitmap shapes that exercise word boundaries: a base random fill plus a
/// masking pattern (empty words, full words, sparse, dense, single-bit).
fn shaped_words(universe_words: usize) -> impl Strategy<Value = Vec<u64>> {
    (
        prop::collection::vec(any::<u64>(), universe_words..universe_words + 1),
        0u8..6,
    )
        .prop_map(|(mut ws, shape)| {
            match shape {
                // Raw random.
                0 => {}
                // Every word of the first half zeroed (empty words).
                1 => {
                    let half = ws.len() / 2;
                    for w in &mut ws[..half] {
                        *w = 0;
                    }
                }
                // Full words (the `with_all` shape).
                2 => ws.fill(u64::MAX),
                // Sparse: one bit per word.
                3 => {
                    for (i, w) in ws.iter_mut().enumerate() {
                        *w = 1u64 << (i % 64);
                    }
                }
                // Alternating empty / full words.
                4 => {
                    for (i, w) in ws.iter_mut().enumerate() {
                        *w = if i % 2 == 0 { 0 } else { u64::MAX };
                    }
                }
                // All-zero except the last word (ragged-tail-only hits).
                _ => {
                    let last = ws.len().saturating_sub(1);
                    for w in &mut ws[..last] {
                        *w = 0;
                    }
                }
            }
            ws
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every primitive against its naive reference, over lengths that cover
    /// sub-block tails (1–7 words), exact blocks (8 words) and straddlers
    /// (9–13 words, multi-block and superblock-sized slabs).
    #[test]
    fn primitives_match_naive_references(
        len in 0usize..70,
        ws in shaped_words(70),
        tail_mask in any::<u64>(),
        end_frac in 0u32..=64,
        n_probe in 1u32..4000,
    ) {
        let ws = &ws[..len];
        let total = naive_popcount(ws);
        let end_bit = (len * 64) * end_frac as usize / 64;
        let counts: Vec<u32> = ws.iter().map(|&w| (w % 5) as u32).collect();

        prop_assert_eq!(kernels::popcount(ws), total);
        let masked = match ws.split_last() {
            None => 0,
            Some((last, head)) => naive_popcount(head) + u64::from((last & tail_mask).count_ones()),
        };
        prop_assert_eq!(kernels::popcount_masked_tail(ws, tail_mask), masked);
        prop_assert_eq!(
            kernels::count_le_range(ws, end_bit),
            (0..end_bit).map(|bit| naive_bit(ws, bit)).sum::<u64>()
        );
        prop_assert_eq!(kernels::find_nth_set_in(ws, n_probe), naive_nth(ws, n_probe));
        let want_r = if u64::from(n_probe) <= total {
            naive_nth(ws, total as u32 - n_probe + 1)
        } else {
            None
        };
        prop_assert_eq!(kernels::find_nth_set_from_right(ws, n_probe), want_r);
        prop_assert_eq!(
            kernels::find_gt(&counts, 2, len / 3),
            counts
                .iter()
                .enumerate()
                .skip(len / 3)
                .find(|&(_, &c)| c > 2)
                .map(|(i, _)| i)
        );
        for &w in ws.iter().filter(|&&w| w != 0) {
            let n = 1 + n_probe % w.count_ones();
            prop_assert_eq!(Some(kernels::select_in_word(w, n)), naive_nth(&[w], n));
        }
    }
}
