use std::fmt;
use std::hash::{Hash, Hasher};

use crate::counter::OpCounter;
use crate::rank::RankedSet;

/// The *per-element* Fenwick order-statistics set — the paper-faithful
/// `O(log n)`-per-operation reference implementation.
///
/// Membership is stored in a bitmap; prefix counts are maintained in a
/// Fenwick (binary indexed) tree over individual elements, giving
/// `O(log n)` [`insert`], [`remove`], [`count_le`] and [`select`] and
/// `O(1)` [`contains`] and [`len`] — exactly the cost profile the paper
/// prescribes in §3 ("some tree structure like red-black tree").
///
/// The production KKβ automaton uses the blocked
/// [`FenwickSet`](crate::FenwickSet) instead (O(1) updates, linear-scan
/// rank over per-block counts), which is markedly faster at simulation
/// scale because the hot operations are insert/remove. This structure is
/// the exact reference next to it: one side of the structure ablation A2
/// (`amo-bench`'s `exp_set_ablation`, which runs both structures under the
/// same single-step schedule and reports each one's local work and time),
/// and the oracle of the `FenwickSet` equivalence suites.
///
/// [`insert`]: DenseFenwickSet::insert
/// [`remove`]: DenseFenwickSet::remove
/// [`count_le`]: DenseFenwickSet::count_le
/// [`select`]: DenseFenwickSet::select
/// [`contains`]: DenseFenwickSet::contains
/// [`len`]: DenseFenwickSet::len
/// [`ops`]: DenseFenwickSet::ops
///
/// # Examples
///
/// ```
/// use amo_ostree::DenseFenwickSet;
///
/// let mut s = DenseFenwickSet::new(8);
/// s.insert(5);
/// s.insert(2);
/// s.insert(7);
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.select(2), Some(5));
/// assert_eq!(s.count_le(6), 2);
/// assert!(s.remove(5));
/// assert!(!s.contains(5));
/// ```
#[derive(Clone)]
pub struct DenseFenwickSet {
    universe: usize,
    /// 1-based Fenwick array over element counts (0 or 1 per position).
    fen: Vec<u32>,
    /// Membership bitmap, bit `i-1` set iff element `i` is present.
    bits: Vec<u64>,
    len: usize,
    ops: OpCounter,
}

impl DenseFenwickSet {
    /// Creates an empty set over the universe `1..=universe`.
    ///
    /// A `universe` of `0` yields a permanently empty set.
    pub fn new(universe: usize) -> Self {
        Self {
            universe,
            fen: vec![0; universe + 1],
            bits: vec![0; universe.div_ceil(64)],
            len: 0,
            ops: OpCounter::new(),
        }
    }

    /// Creates the full set `{1, 2, ..., universe}`.
    ///
    /// This is how the `FREE` set of every process is initialised (`FREEp = J`).
    pub fn with_all(universe: usize) -> Self {
        let mut s = Self::new(universe);
        // Build the Fenwick array in O(n) instead of n inserts.
        for i in 1..=universe {
            s.fen[i] += 1;
            let parent = i + (i & i.wrapping_neg());
            if parent <= universe {
                let add = s.fen[i];
                s.fen[parent] += add;
            }
        }
        // Full words in one fill, then the ragged tail word.
        let full_words = universe / 64;
        s.bits[..full_words].fill(u64::MAX);
        if universe % 64 != 0 {
            s.bits[full_words] = (1u64 << (universe % 64)) - 1;
        }
        s.len = universe;
        s
    }

    /// Creates a set over `1..=universe` containing the given members.
    ///
    /// # Panics
    ///
    /// Panics if any member is `0` or exceeds `universe`.
    pub fn with_members<I: IntoIterator<Item = u64>>(universe: usize, members: I) -> Self {
        let mut s = Self::new(universe);
        for m in members {
            assert!(
                m >= 1 && m as usize <= universe,
                "member {m} outside universe 1..={universe}"
            );
            s.insert(m);
        }
        s
    }

    /// The size of the universe this set ranges over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of elements currently in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `id` is in the set.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        self.ops.bump();
        crate::rank::bitmap_contains(&self.bits, self.universe, id)
    }

    /// Inserts `id`, returning `true` if it was not already present.
    ///
    /// Elements outside `1..=universe` are rejected with a panic: the
    /// algorithms only ever insert values read back out of the shared job
    /// arrays, so an out-of-range insert indicates memory corruption.
    ///
    /// # Panics
    ///
    /// Panics if `id` is `0` or exceeds the universe.
    pub fn insert(&mut self, id: u64) -> bool {
        assert!(
            id >= 1 && id as usize <= self.universe,
            "insert of {id} outside universe 1..={}",
            self.universe
        );
        if self.contains(id) {
            return false;
        }
        let i = id as usize - 1;
        self.bits[i / 64] |= 1 << (i % 64);
        self.update(id as usize, 1);
        self.len += 1;
        true
    }

    /// Removes `id`, returning `true` if it was present.
    pub fn remove(&mut self, id: u64) -> bool {
        if !self.contains(id) {
            return false;
        }
        let i = id as usize - 1;
        self.bits[i / 64] &= !(1 << (i % 64));
        self.update(id as usize, -1);
        self.len -= 1;
        true
    }

    /// Number of elements `≤ id`.
    pub fn count_le(&self, id: u64) -> usize {
        let mut i = (id as usize).min(self.universe);
        let mut acc = 0u32;
        while i > 0 {
            self.ops.bump();
            acc += self.fen[i];
            i &= i - 1;
        }
        acc as usize
    }

    /// The `rank`-th smallest element (1-based), or `None` if `rank` is `0`
    /// or exceeds [`len`](DenseFenwickSet::len).
    pub fn select(&self, rank: usize) -> Option<u64> {
        if rank == 0 || rank > self.len {
            return None;
        }
        let mut remaining = rank as u32;
        let mut pos = 0usize;
        let mut step = self.universe.next_power_of_two();
        // For universe == 0 we returned above (len == 0).
        while step > 0 {
            self.ops.bump();
            let next = pos + step;
            if next <= self.universe && self.fen[next] < remaining {
                remaining -= self.fen[next];
                pos = next;
            }
            step >>= 1;
        }
        Some(pos as u64 + 1)
    }

    /// 1-based rank of `id` if present.
    pub fn rank_of(&self, id: u64) -> Option<usize> {
        if self.contains(id) {
            Some(self.count_le(id))
        } else {
            None
        }
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<u64> {
        self.select(1)
    }

    /// The largest element, if any.
    pub fn last(&self) -> Option<u64> {
        self.select(self.len)
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            mask: self.bits.first().copied().unwrap_or(0),
        }
    }

    /// Total elementary operations performed so far (see [`OpCounter`]).
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// Resets the operation counter.
    pub fn reset_ops(&self) {
        self.ops.reset()
    }

    fn update(&mut self, mut i: usize, delta: i32) {
        while i <= self.universe {
            self.ops.bump();
            self.fen[i] = (self.fen[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }
}

/// Iterator over a [`DenseFenwickSet`] in increasing element order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a DenseFenwickSet,
    word: usize,
    mask: u64,
}

impl Iterator for Iter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if self.mask != 0 {
                let bit = self.mask.trailing_zeros() as usize;
                self.mask &= self.mask - 1;
                return Some((self.word * 64 + bit) as u64 + 1);
            }
            self.word += 1;
            if self.word >= self.set.bits.len() {
                return None;
            }
            self.mask = self.set.bits[self.word];
        }
    }
}

impl<'a> IntoIterator for &'a DenseFenwickSet {
    type Item = u64;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for DenseFenwickSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DenseFenwickSet")
            .field("universe", &self.universe)
            .field("len", &self.len)
            .field("elements", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

impl PartialEq for DenseFenwickSet {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe && self.len == other.len && self.bits == other.bits
    }
}

impl Eq for DenseFenwickSet {}

impl Hash for DenseFenwickSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.universe.hash(state);
        self.bits.hash(state);
    }
}

impl RankedSet for DenseFenwickSet {
    fn len(&self) -> usize {
        self.len
    }

    fn contains(&self, id: u64) -> bool {
        DenseFenwickSet::contains(self, id)
    }

    fn select(&self, rank: usize) -> Option<u64> {
        DenseFenwickSet::select(self, rank)
    }

    fn count_le(&self, id: u64) -> usize {
        DenseFenwickSet::count_le(self, id)
    }

    /// The fixpoint walk, with the membership precondition checked off the
    /// bitmap so that debug builds charge no extra `local_work`.
    fn select_excluding(&self, excl: &[u64], i: usize) -> Option<u64> {
        debug_assert!(
            excl.iter()
                .all(|&e| crate::rank::bitmap_contains(&self.bits, self.universe, e)),
            "excl must be members"
        );
        crate::rank::select_fixpoint(self, excl, i)
    }

    /// The per-element Fenwick tree has no positional scan for a hint to
    /// anchor, so the hint only gets *validated* (debug builds assert the
    /// [`SelectHint`](crate::SelectHint) invariant) before delegating to the
    /// unhinted walk — which is exactly what makes this backend the oracle
    /// the hinted [`FenwickSet`](crate::FenwickSet) path is property-tested
    /// against.
    fn select_excluding_hinted(
        &self,
        excl: &[u64],
        i: usize,
        hint: Option<crate::rank::SelectHint>,
    ) -> Option<u64> {
        #[cfg(debug_assertions)]
        if let Some(h) = hint {
            if h.anchor >= 1 && h.anchor as usize <= self.universe {
                assert_eq!(
                    h.rank,
                    crate::rank::bitmap_count_le(&self.bits, self.universe, h.anchor),
                    "stale SelectHint: rank does not match count_le(anchor)"
                );
            }
        }
        let _ = hint;
        self.select_excluding(excl, i)
    }
}

impl crate::rank::OrderedJobSet for DenseFenwickSet {
    fn empty(universe: usize) -> Self {
        DenseFenwickSet::new(universe)
    }

    fn full(universe: usize) -> Self {
        DenseFenwickSet::with_all(universe)
    }

    fn universe(&self) -> usize {
        DenseFenwickSet::universe(self)
    }

    fn insert(&mut self, id: u64) -> bool {
        DenseFenwickSet::insert(self, id)
    }

    fn remove(&mut self, id: u64) -> bool {
        DenseFenwickSet::remove(self, id)
    }

    fn ops(&self) -> u64 {
        DenseFenwickSet::ops(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_behaviour() {
        let s = DenseFenwickSet::new(10);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.select(1), None);
        assert_eq!(s.first(), None);
        assert_eq!(s.last(), None);
        assert_eq!(s.count_le(10), 0);
        assert!(!s.contains(5));
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn zero_universe() {
        let s = DenseFenwickSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.select(1), None);
        assert!(!s.contains(1));
        let f = DenseFenwickSet::with_all(0);
        assert!(f.is_empty());
    }

    #[test]
    fn with_all_contains_everything() {
        for n in [1usize, 2, 63, 64, 65, 100, 128, 1000] {
            let s = DenseFenwickSet::with_all(n);
            assert_eq!(s.len(), n);
            assert!(s.contains(1));
            assert!(s.contains(n as u64));
            assert!(!s.contains(n as u64 + 1));
            assert_eq!(s.select(1), Some(1));
            assert_eq!(s.select(n), Some(n as u64));
            assert_eq!(s.count_le(n as u64), n);
            assert_eq!(s.iter().count(), n);
        }
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = DenseFenwickSet::new(100);
        assert!(s.insert(42));
        assert!(!s.insert(42), "double insert reports false");
        assert!(s.contains(42));
        assert_eq!(s.len(), 1);
        assert!(s.remove(42));
        assert!(!s.remove(42), "double remove reports false");
        assert!(!s.contains(42));
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_zero_panics() {
        DenseFenwickSet::new(5).insert(0);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_beyond_universe_panics() {
        DenseFenwickSet::new(5).insert(6);
    }

    #[test]
    fn remove_out_of_range_is_noop() {
        let mut s = DenseFenwickSet::with_all(5);
        assert!(!s.remove(0));
        assert!(!s.remove(6));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn select_matches_sorted_order() {
        let mut s = DenseFenwickSet::new(64);
        for id in [9u64, 3, 64, 17, 1, 33] {
            s.insert(id);
        }
        let sorted = [1u64, 3, 9, 17, 33, 64];
        for (i, &id) in sorted.iter().enumerate() {
            assert_eq!(s.select(i + 1), Some(id));
            assert_eq!(s.rank_of(id), Some(i + 1));
        }
        assert_eq!(s.select(0), None);
        assert_eq!(s.select(7), None);
        assert_eq!(s.rank_of(2), None);
    }

    #[test]
    fn count_le_is_prefix_count() {
        let s = DenseFenwickSet::with_members(20, [2u64, 4, 8, 16]);
        assert_eq!(s.count_le(0), 0);
        assert_eq!(s.count_le(1), 0);
        assert_eq!(s.count_le(2), 1);
        assert_eq!(s.count_le(7), 2);
        assert_eq!(s.count_le(8), 3);
        assert_eq!(s.count_le(100), 4, "saturates at the universe");
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let members = [5u64, 70, 64, 65, 63, 128, 1];
        let s = DenseFenwickSet::with_members(128, members);
        let got: Vec<u64> = s.iter().collect();
        let mut want = members.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn ops_counter_moves() {
        let mut s = DenseFenwickSet::new(1024);
        s.reset_ops();
        s.insert(512);
        let after_insert = s.ops();
        assert!(after_insert > 0, "insert must count work");
        s.select(1);
        assert!(s.ops() > after_insert, "select must count work");
    }

    #[test]
    fn equality_ignores_counters() {
        let mut a = DenseFenwickSet::new(10);
        let mut b = DenseFenwickSet::new(10);
        a.insert(3);
        b.insert(3);
        b.select(1); // spend some ops on b only
        assert_eq!(a, b);
        b.insert(4);
        assert_ne!(a, b);
    }

    #[test]
    fn word_boundary_elements() {
        let mut s = DenseFenwickSet::new(130);
        for id in [63u64, 64, 65, 127, 128, 129] {
            assert!(s.insert(id));
        }
        for id in [63u64, 64, 65, 127, 128, 129] {
            assert!(s.contains(id), "missing {id}");
        }
        assert_eq!(s.len(), 6);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![63, 64, 65, 127, 128, 129]
        );
    }
}
