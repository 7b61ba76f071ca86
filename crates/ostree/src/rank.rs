/// A position hint for [`RankedSet::select_excluding_hinted`]: an *anchor*
/// element (typically the previous selection's result) paired with its
/// exact rank in the **full** set.
///
/// # The hint-anchor invariant
///
/// A hint is *valid* for a set `S` iff `rank == |{x ∈ S : x ≤ anchor}|`
/// (i.e. `rank == S.count_le(anchor)`). The anchor itself need **not** be a
/// member — it is a prefix anchor, so the caller can keep a hint alive
/// across the removal of the anchored element itself.
///
/// Callers maintain validity incrementally: removing a member `v ≤ anchor`
/// decrements `rank`, inserting one increments it, and mutations above the
/// anchor leave the hint untouched. When the caller cannot attribute a
/// mutation (e.g. a bulk merge triggered by another process's writes), it
/// must drop the hint — a hinted implementation is free to trust the
/// invariant unconditionally (debug builds assert it), so passing a stale
/// hint is a contract violation, not a slow path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SelectHint {
    /// Anchor element (1-based id; need not currently be a member).
    pub anchor: u64,
    /// `count_le(anchor)` of the set the hint is presented to.
    pub rank: usize,
}

/// `count_le(id)` computed straight off a membership bitmap (bit `i-1` set
/// iff element `i` present), bypassing count hierarchies and op counters —
/// the quiet oracle both bitmap backends debug-assert the [`SelectHint`]
/// invariant against.
#[cfg(debug_assertions)]
pub(crate) fn bitmap_count_le(bits: &[u64], universe: usize, id: u64) -> usize {
    let i = (id as usize).min(universe);
    crate::kernels::count_le_range(bits, i) as usize
}

/// Membership of `id` straight off a bitmap laid out as for
/// [`bitmap_count_le`], uncharged: the bitmap backends' `contains` charges
/// one op around it, and their debug assertions call it bare so that a
/// debug build charges exactly the `local_work` of a release build.
#[inline]
pub(crate) fn bitmap_contains(bits: &[u64], universe: usize, id: u64) -> bool {
    if id == 0 || id as usize > universe {
        return false;
    }
    let i = id as usize - 1;
    bits[i / 64] >> (i % 64) & 1 == 1
}

/// Common interface of order-statistics sets.
///
/// Both [`FenwickSet`](crate::FenwickSet) and
/// [`DenseFenwickSet`](crate::DenseFenwickSet) implement this trait, so the
/// KKβ automaton (and the data-structure ablation) can be generic over the
/// backing structure.
pub trait RankedSet {
    /// Number of elements in the set.
    fn len(&self) -> usize;

    /// Returns `true` if the set has no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `id` is a member.
    fn contains(&self, id: u64) -> bool;

    /// The `rank`-th smallest member (1-based), or `None` when out of range.
    fn select(&self, rank: usize) -> Option<u64>;

    /// Number of members `≤ id`.
    fn count_le(&self, id: u64) -> usize;

    /// The `i`-th smallest member (1-based) of `self \ excl`, where every
    /// element of `excl` is a member of `self` and `excl` is sorted and
    /// duplicate-free — the hot core of the paper's `rank(SET1, SET2, i)`.
    ///
    /// [`DenseFenwickSet`](crate::DenseFenwickSet) runs the classical
    /// monotone fixpoint iteration (`O(|excl|)`
    /// [`select`](RankedSet::select) probes);
    /// [`FenwickSet`](crate::FenwickSet) runs a single
    /// exclusion-aware walk. An implementation checks the membership
    /// precondition without charging its operation counter, so that a
    /// debug build charges exactly the work of a release build.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `excl` is not sorted/deduped or contains
    /// a non-member.
    fn select_excluding(&self, excl: &[u64], i: usize) -> Option<u64>;

    /// [`select_excluding`](RankedSet::select_excluding) with an optional
    /// position hint (see [`SelectHint`] for the validity invariant the
    /// caller must maintain).
    ///
    /// The result is **identical** to the unhinted call — the hint only
    /// anchors where the internal walk starts, so implementations with
    /// positional scans ([`FenwickSet`](crate::FenwickSet)) resolve a
    /// near-anchor rank in `O(distance)` instead of a scan from the nearer
    /// end. The default implementation ignores the hint entirely, which is
    /// always correct.
    fn select_excluding_hinted(
        &self,
        excl: &[u64],
        i: usize,
        hint: Option<SelectHint>,
    ) -> Option<u64> {
        let _ = hint;
        self.select_excluding(excl, i)
    }
}

/// A [`RankedSet`] over the dense universe `1..=universe` that supports
/// mutation and work accounting — the full interface the KKβ automaton
/// needs for its `FREE` and `DONE` sets.
///
/// Implemented by both [`FenwickSet`](crate::FenwickSet) (blocked counts,
/// O(1) updates — the production backend) and
/// [`DenseFenwickSet`](crate::DenseFenwickSet) (per-element Fenwick tree,
/// `O(log n)` updates — the paper-faithful baseline), so the automaton and
/// the benchmarks can swap backends.
///
/// **Charge symmetry.** For an in-universe `id`, inserting it when absent
/// must charge the same [`ops`](Self::ops) as removing it when present, and
/// inserting it when present the same as removing it when absent. A KKβ
/// process whose `DONE` is the complement of its `FREE` keeps `FREE` alone
/// and charges each merge's `DONE` insert as the matching `FREE` removal,
/// which is exact only under this symmetry (the `backend_equivalence`
/// suite pins it on both bitmap backends).
pub trait OrderedJobSet:
    RankedSet + Clone + PartialEq + Eq + std::hash::Hash + std::fmt::Debug
{
    /// The empty set over `1..=universe`.
    fn empty(universe: usize) -> Self;

    /// The full set `{1, ..., universe}`.
    fn full(universe: usize) -> Self;

    /// The universe bound this set ranges over.
    fn universe(&self) -> usize;

    /// Inserts `id`, returning `true` if newly added.
    fn insert(&mut self, id: u64) -> bool;

    /// Removes `id`, returning `true` if it was present.
    fn remove(&mut self, id: u64) -> bool;

    /// The paired foreign-merge operation: inserts `id` into `self` (the
    /// `DONE` role) and, exactly when it was newly inserted, removes it
    /// from `free` — the `done.insert` + `free.remove` pair of the KKβ
    /// `gatherDone` merge, once per observed log entry.
    ///
    /// Only processes that keep `DONE` as a physical set call it: iterated
    /// stages whose initial `FREE` is a proper subset of the universe. A
    /// process whose `FREE` starts full derives `DONE` from `FREE` and
    /// merges with [`remove`](Self::remove) alone (plain KKβ, and so every
    /// paper-scale run).
    ///
    /// Returns `(inserted, removed)`: `inserted` is what `self.insert(id)`
    /// returned, `removed` what the conditional `free.remove(id)` returned
    /// (always `false` when `inserted` is `false` — the removal is not
    /// attempted then).
    ///
    /// The body is exactly `let i = self.insert(id); let r = i &&
    /// free.remove(id); (i, r)`, with each set's [`ops`](Self::ops) charges,
    /// and no backend overrides it. It stays a trait method because the
    /// benchmark's traced set wrapper (`perfbench/`) counts it as its own
    /// call.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`insert`](Self::insert)
    /// (`id` of `0` or beyond `self`'s universe).
    fn insert_paired_remove(&mut self, free: &mut Self, id: u64) -> (bool, bool) {
        let inserted = self.insert(id);
        let removed = inserted && free.remove(id);
        (inserted, removed)
    }

    /// Removes every id of `ids` in order, exactly as the sequence of
    /// [`remove`](Self::remove) calls would — same final set, same
    /// [`ops`](Self::ops) charges — and reports what it removed against
    /// `anchor` (see [`Removed`]).
    ///
    /// This is how a KKβ process with a derived `DONE` merges one
    /// `gatherDone` log row's backlog into `FREE`: the backlog is a run of
    /// near-adjacent jobs, and the selection hint anchored at `anchor` is
    /// repaired by the returned count. The default body is the per-id
    /// sequence itself, the exact reference that
    /// [`DenseFenwickSet`](crate::DenseFenwickSet) runs;
    /// [`FenwickSet`](crate::FenwickSet) overrides it with one bitmap and
    /// count update per word of consecutive ids.
    fn remove_many(&mut self, ids: &[u64], anchor: u64) -> Removed {
        let mut out = Removed::default();
        for &id in ids {
            let before = self.ops();
            if self.remove(id) {
                out.present += 1;
                out.at_or_below_anchor += usize::from(id <= anchor);
                out.ops += self.ops() - before;
            }
        }
        out
    }

    /// Elementary operations executed so far (the paper's work measure).
    fn ops(&self) -> u64;
}

/// What one [`OrderedJobSet::remove_many`] call removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Removed {
    /// Ids that were members when their turn came (an id repeated in the
    /// batch is present only the first time).
    pub present: usize,
    /// How many of the present ids are `≤ anchor`: the prefix-rank repair
    /// a [`SelectHint`] anchored there needs.
    pub at_or_below_anchor: usize,
    /// The [`ops`](OrderedJobSet::ops) the present ids' removals charged
    /// (the absent ids' probes not included) — what a derived `DONE`
    /// charges once more for its own inserts.
    pub ops: u64,
}

/// The paper's `rank(SET1, SET2, i)`: the `i`-th smallest element (1-based)
/// of `free \ excl`, or `None` if `free \ excl` has fewer than `i` elements.
///
/// `excl` must be sorted in increasing order (the KKβ automaton maintains its
/// `TRY` set as a sorted vector of fewer than `m` entries). Elements of
/// `excl` that are not members of `free` are ignored, exactly as in the
/// paper where `rank` is defined on `SET1 \ SET2`.
///
/// Runs in `O(|excl| · log n)`: at most `|excl| + 1` [`select`] probes, as the
/// probe index is monotone and strictly increases with the count of excluded
/// elements below the probe (this is the cost the paper quotes in §3).
///
/// [`select`]: RankedSet::select
///
/// # Panics
///
/// Panics (debug assertion) if `excl` is not sorted.
///
/// # Examples
///
/// ```
/// use amo_ostree::{FenwickSet, rank_excluding};
///
/// let free = FenwickSet::with_all(10);
/// assert_eq!(rank_excluding(&free, &[1, 2, 3], 1), Some(4));
/// assert_eq!(rank_excluding(&free, &[], 7), Some(7));
/// assert_eq!(rank_excluding(&free, &[10], 10), None); // only 9 remain
/// ```
pub fn rank_excluding<S: RankedSet + ?Sized>(free: &S, excl: &[u64], i: usize) -> Option<u64> {
    debug_assert!(excl.windows(2).all(|w| w[0] <= w[1]), "excl must be sorted");
    // Only exclusions that are members of `free` affect ranks (and the
    // sorted-but-possibly-duplicated input contract of this wrapper is
    // tightened to the deduped one of the fast path).
    let mut t: Vec<u64> = excl.iter().copied().filter(|&e| free.contains(e)).collect();
    t.dedup();
    rank_excluding_members(free, &t, i)
}

/// The classical monotone fixpoint iteration over `select` probes behind
/// [`DenseFenwickSet`](crate::DenseFenwickSet)'s
/// [`RankedSet::select_excluding`], minus its (uncharged) membership check.
pub(crate) fn select_fixpoint<S: RankedSet + ?Sized>(
    set: &S,
    excl: &[u64],
    i: usize,
) -> Option<u64> {
    debug_assert!(
        excl.windows(2).all(|w| w[0] < w[1]),
        "excl must be sorted and deduped"
    );
    if i == 0 {
        return None;
    }
    if set.len() < i + excl.len() {
        return None;
    }
    let mut idx = i;
    loop {
        let x = set.select(idx)?;
        // Number of excluded members ≤ x.
        let k = excl.partition_point(|&e| e <= x);
        let target = i + k;
        if target == idx {
            // Fixpoint; `x` cannot itself be excluded (see
            // `rank_excluding_members`).
            debug_assert!(excl.binary_search(&x).is_err());
            return Some(x);
        }
        idx = target;
    }
}

/// [`rank_excluding`] for a pre-filtered exclusion list: every element of
/// `excl` must be a member of `free` (and `excl` sorted, duplicate-free).
///
/// This is the allocation-free hot path: the KKβ automaton's `compNext`
/// already intersects `TRY` with `FREE` to compute the available count, so
/// it passes the intersection here instead of having it recomputed.
///
/// # Panics
///
/// Panics (debug assertion) if `excl` is not sorted or contains a
/// non-member of `free`.
pub fn rank_excluding_members<S: RankedSet + ?Sized>(
    free: &S,
    excl: &[u64],
    i: usize,
) -> Option<u64> {
    // The classical fixpoint argument for why the fixpoint iteration
    // (`select_fixpoint`) terminates at the right element: the probe
    // index is monotone and strictly increases with the count of excluded
    // elements below it, and at the fixpoint `x` cannot itself be excluded —
    // if it were, the i-th element of free \ excl would be < x,
    // contradicting monotonicity from below (see module tests).
    free.select_excluding(excl, i)
}

/// [`rank_excluding_members`] with a position hint: the allocation-free hot
/// path of `compNext`, anchored at the caller's previous pick. `hint` must
/// satisfy the [`SelectHint`] invariant for `free`; results are identical
/// to the unhinted call.
pub fn rank_excluding_members_hinted<S: RankedSet + ?Sized>(
    free: &S,
    excl: &[u64],
    i: usize,
    hint: Option<SelectHint>,
) -> Option<u64> {
    free.select_excluding_hinted(excl, i, hint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FenwickSet;

    fn naive(free: &FenwickSet, excl: &[u64], i: usize) -> Option<u64> {
        free.iter()
            .filter(|x| !excl.contains(x))
            .nth(i.wrapping_sub(1))
    }

    #[test]
    fn empty_exclusions() {
        let free = FenwickSet::with_all(5);
        for i in 1..=5 {
            assert_eq!(rank_excluding(&free, &[], i), Some(i as u64));
        }
        assert_eq!(rank_excluding(&free, &[], 6), None);
        assert_eq!(rank_excluding(&free, &[], 0), None);
    }

    #[test]
    fn exclusions_shift_ranks() {
        let free = FenwickSet::with_all(10);
        // FREE \ {2, 4} = {1, 3, 5, 6, 7, 8, 9, 10}
        let excl = [2u64, 4];
        let expect = [1u64, 3, 5, 6, 7, 8, 9, 10];
        for (i, &want) in expect.iter().enumerate() {
            assert_eq!(rank_excluding(&free, &excl, i + 1), Some(want));
        }
        assert_eq!(rank_excluding(&free, &excl, 9), None);
    }

    #[test]
    fn exclusions_not_in_free_are_ignored() {
        let free = FenwickSet::with_members(10, [2u64, 4, 6, 8]);
        // 3, 5, 100 are not members; only 4 matters.
        let excl = [3u64, 4, 5, 100];
        assert_eq!(rank_excluding(&free, &excl, 1), Some(2));
        assert_eq!(rank_excluding(&free, &excl, 2), Some(6));
        assert_eq!(rank_excluding(&free, &excl, 3), Some(8));
        assert_eq!(rank_excluding(&free, &excl, 4), None);
    }

    #[test]
    fn prefix_of_exclusions() {
        let free = FenwickSet::with_all(100);
        let excl: Vec<u64> = (1..=50).collect();
        assert_eq!(rank_excluding(&free, &excl, 1), Some(51));
        assert_eq!(rank_excluding(&free, &excl, 50), Some(100));
        assert_eq!(rank_excluding(&free, &excl, 51), None);
    }

    #[test]
    fn interleaved_exclusions_match_naive() {
        let free = FenwickSet::with_members(64, (1..=64).filter(|x| x % 3 != 0).map(|x| x as u64));
        let excl: Vec<u64> = (1..=64).filter(|x| x % 5 == 0).collect();
        for i in 0..=free.len() + 1 {
            assert_eq!(
                rank_excluding(&free, &excl, i),
                naive(&free, &excl, i),
                "rank {i}"
            );
        }
    }

    #[test]
    fn everything_excluded() {
        let free = FenwickSet::with_all(4);
        let excl = [1u64, 2, 3, 4];
        assert_eq!(rank_excluding(&free, &excl, 1), None);
    }

    #[test]
    fn probe_count_is_bounded() {
        // The iteration makes at most |excl ∩ free| + 1 select probes; each
        // probe costs O(log n) Fenwick iterations. With |excl| = 3 on a
        // universe of 1024 the op count must stay well under a full scan.
        let free = FenwickSet::with_all(1024);
        free.reset_ops();
        let excl = [1u64, 2, 3];
        assert_eq!(rank_excluding(&free, &excl, 1), Some(4));
        // 4 probes * ceil(log2(1024))+1 iterations, plus 3 contains checks.
        assert!(free.ops() < 64, "ops = {}", free.ops());
    }
}
