//! Order-statistics set structures for the at-most-once algorithms.
//!
//! The KKβ algorithm of Kentros & Kiayias manipulates three sets of job
//! identifiers — `FREE`, `DONE` and `TRY` — and repeatedly needs the
//! *rank-`i` element of `FREE \ TRY`* (the paper's `rank(SET1, SET2, i)`
//! helper, §3). The paper prescribes "some tree structure like red-black tree
//! or some variant of B-tree" so that insertion, deletion and rank queries
//! cost `O(log n)` and `rank(SET1, SET2, i)` costs `O(|SET2| · log n)`.
//!
//! This crate provides one fast path and one exact reference:
//!
//! * [`FenwickSet`] — the production backend: a bitmap with eagerly
//!   maintained per-block and per-superblock population counts over the
//!   dense job universe `1..=n`. Insert/remove (the simulation's hottest
//!   operations) are `O(1)`; rank queries are short word-at-a-time popcount
//!   scans of the count hierarchy. The structure counts the *exact* number
//!   of elementary loop iterations it performs, which the benchmark harness
//!   uses as the paper's "basic operations" (Definition 2.5) when measuring
//!   work complexity.
//! * [`DenseFenwickSet`] — the per-element Fenwick (binary indexed) tree
//!   with `O(log n)` everything: the paper-faithful reference and one side
//!   of the structure ablation A2 (`amo-bench`'s `exp_set_ablation`),
//!   which runs it and [`FenwickSet`] under the same single-step schedule.
//!
//! Both implement [`RankedSet`] and [`OrderedJobSet`] (the mutable
//! interface the KKβ automaton is generic over), and [`rank_excluding`] /
//! [`rank_excluding_members`] implement the paper's `rank(SET1, SET2, i)`
//! on top of any [`RankedSet`].
//!
//! # Position-hinted selection and the hint-anchor invariant
//!
//! The automaton's `compNext` calls `rank(FREE, TRY, i)` once per cycle
//! with targets that drift slowly (rank-splitting sends each process to a
//! fixed fraction of `FREE`), so consecutive walks land near each other.
//! [`RankedSet::select_excluding_hinted`] exploits this: the caller passes
//! a [`SelectHint`] — the previous pick plus its exact rank in the full set
//! — and a positional backend anchors the new walk there instead of
//! scanning from an end ([`FenwickSet`] resolves a near-anchor target in a
//! handful of word scans regardless of `n`, taking chunked superblock
//! skips when the target turns out to be far).
//!
//! The contract is the **hint-anchor invariant** (see [`SelectHint`]): the
//! hint's `rank` must equal `count_le(anchor)` of the set *at call time*.
//! The anchor is a prefix anchor — it need not be a member — so callers
//! repair the rank in `O(1)` across every mutation whose element they can
//! identify (the KKβ process repairs through own performs *and* foreign
//! `DONE` merges alike, since the merged job is in hand either way) and
//! must drop the hint only for truly unattributable changes. Hinted and
//! unhinted walks return identical elements — debug builds assert the
//! invariant, and the `hint_invalidation` property suite drives both
//! backends through interleaved foreign writes, drops and rebuilds.
//!
//! # Bitmap kernels and counter-neutrality
//!
//! The physical bitmap scans underneath the structures — bulk popcounts,
//! `count_le` prefix counts, n-th-set-bit probes, register restores —
//! are factored into the [`kernels`] module as portable Rust, one body per
//! primitive.
//!
//! The binding invariant is **counter-neutrality**: the deterministic
//! `ops` charges of the set structures are part of the observable the
//! equivalence suites and the work pins hold, so kernels only do the
//! physical scan — all work accounting stays at the logical-walk layer,
//! derived from slice lengths and returned positions. The
//! `kernel_equivalence` suite pins each primitive to a naive bit-loop
//! reference over word/block/superblock boundaries, ragged tails and
//! empty/full words.
//!
//! # Examples
//!
//! ```
//! use amo_ostree::{FenwickSet, RankedSet, rank_excluding};
//!
//! let mut free = FenwickSet::with_all(10); // {1, 2, ..., 10}
//! free.remove(3);
//! assert_eq!(free.select(3), Some(4)); // 3rd smallest of {1,2,4,...,10}
//!
//! // rank(FREE, TRY, 2) with TRY = {2, 4}: 2nd smallest of FREE \ TRY.
//! let try_set = [2, 4];
//! assert_eq!(rank_excluding(&free, &try_set, 2), Some(5));
//! ```

// `deny`, not `forbid`: `kernels::zeroed_cells` opts into `unsafe` locally
// to hand out a zeroed allocation as `Cell` storage (its SAFETY comment
// gives the argument); every other item stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod dense;
mod fenwick;
pub mod kernels;
mod rank;

pub use counter::OpCounter;
pub use dense::DenseFenwickSet;
pub use fenwick::FenwickSet;
pub use rank::{
    rank_excluding, rank_excluding_members, rank_excluding_members_hinted, OrderedJobSet,
    RankedSet, Removed, SelectHint,
};
