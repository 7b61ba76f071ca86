use std::fmt;
use std::hash::{Hash, Hasher};

use crate::counter::OpCounter;
use crate::kernels;
use crate::rank::RankedSet;

/// Words per count block: each block covers `8 × 64 = 512` elements.
///
/// Membership lives in the bitmap; per-block population counts are kept in
/// a flat array ~500× smaller than a per-element tree (a few hundred bytes
/// even for a 100k-job universe), so updates are O(1) and rank scans stay
/// in L1 cache, while popcounts cover the inside of a block in at most
/// [`BLOCK_WORDS`] word scans.
const BLOCK_WORDS: usize = 8;

/// Elements covered by one count block.
const BLOCK_BITS: usize = BLOCK_WORDS * 64;

/// Bounds for the per-instance superblock width (in blocks, as a power of
/// two): the `select`/`count_le` scans cost `O(sup.len + 2^shift)`, so the
/// width is chosen near `√blocks` at construction to balance the two scans.
const MIN_SUP_SHIFT: u32 = 2;
/// See [`MIN_SUP_SHIFT`].
const MAX_SUP_SHIFT: u32 = 7;

/// An order-statistics set over the dense universe `1..=universe`.
///
/// Membership is stored in a bitmap; population counts are maintained
/// eagerly at two granularities — per *block* (512 elements) and per
/// *superblock* (64 blocks = 32768 elements). This gives `O(1)`
/// [`contains`], [`insert`] and [`remove`] (a bit flip plus two count
/// adjustments — the simulation's hottest operations, executed once per
/// observed `done` entry), and `O(n/32768 + 64 + 8)` [`count_le`] and
/// [`select`] via short linear scans of the superblock and block arrays —
/// a few dozen sequential, cache-resident iterations even for million-job
/// universes, with **no rebuild after mutations**: the historical lazily
/// rebuilt prefix array cost `O(n/512)` on the first rank probe of every
/// `compNext`, which dominated simulated wall-clock once the gather loops
/// were batched. (The per-element Fenwick layout survives as
/// [`DenseFenwickSet`](crate::DenseFenwickSet), the structure ablation and
/// perf baseline.)
///
/// This is the structure backing the `FREE` and `DONE` sets of the KKβ
/// automaton. The job universe of the paper is `J = [1..n]`, so a dense
/// bitmap is the natural representation; the instrumented [`ops`] counter
/// reports the exact number of elementary iterations executed, which the
/// work-complexity experiments (Theorem 5.6) use as measured "basic
/// operations".
///
/// [`insert`]: FenwickSet::insert
/// [`remove`]: FenwickSet::remove
/// [`count_le`]: FenwickSet::count_le
/// [`select`]: FenwickSet::select
/// [`contains`]: FenwickSet::contains
/// [`len`]: FenwickSet::len
/// [`ops`]: FenwickSet::ops
///
/// # Examples
///
/// ```
/// use amo_ostree::FenwickSet;
///
/// let mut s = FenwickSet::new(8);
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
pub struct FenwickSet {
    universe: usize,
    /// Per-block element counts (block `b` covers elements
    /// `b·512 + 1 ..= (b+1)·512`).
    blk: Vec<u32>,
    /// Per-superblock element counts (superblock `s` covers the
    /// `2^sup_shift` blocks `s·2^shift .. (s+1)·2^shift`), maintained
    /// eagerly alongside `blk`.
    sup: Vec<u32>,
    /// `log₂` of the blocks-per-superblock width (chosen near `√blocks`).
    sup_shift: u32,
    /// Membership bitmap, bit `i-1` set iff element `i` is present.
    bits: Vec<u64>,
    len: usize,
    ops: OpCounter,
}

impl FenwickSet {
    /// Creates an empty set over the universe `1..=universe`.
    ///
    /// A `universe` of `0` yields a permanently empty set.
    pub fn new(universe: usize) -> Self {
        let blocks = universe.div_ceil(BLOCK_BITS);
        // Width ≈ √blocks balances the superblock scan against the
        // in-superblock block scan.
        let sup_shift =
            ((usize::BITS - blocks.leading_zeros()) / 2).clamp(MIN_SUP_SHIFT, MAX_SUP_SHIFT);
        let sup_blocks = blocks.div_ceil(1 << sup_shift);
        Self {
            universe,
            blk: vec![0; blocks],
            sup: vec![0; sup_blocks],
            sup_shift,
            bits: vec![0; universe.div_ceil(64)],
            len: 0,
            ops: OpCounter::new(),
        }
    }

    /// Elements covered by one superblock.
    #[inline]
    fn super_bits(&self) -> usize {
        BLOCK_BITS << self.sup_shift
    }

    /// Creates the full set `{1, 2, ..., universe}`.
    ///
    /// This is how the `FREE` set of every process is initialised (`FREEp = J`).
    pub fn with_all(universe: usize) -> Self {
        let mut s = Self::new(universe);
        // Full words in one fill, then the ragged tail word.
        let full_words = universe / 64;
        s.bits[..full_words].fill(u64::MAX);
        if universe % 64 != 0 {
            s.bits[full_words] = (1u64 << (universe % 64)) - 1;
        }
        // Fill the count hierarchy in O(blocks) instead of n inserts.
        for (b, cnt) in s.blk.iter_mut().enumerate() {
            let lo = b * BLOCK_BITS;
            *cnt = (universe - lo).min(BLOCK_BITS) as u32;
        }
        let super_bits = s.super_bits();
        for (sb, cnt) in s.sup.iter_mut().enumerate() {
            let lo = sb * super_bits;
            *cnt = (universe - lo).min(super_bits) as u32;
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
        // One fused word access for the membership test and the flip (the
        // charge stays the historical test-op + mutate-op pair).
        let i = id as usize - 1;
        let word = &mut self.bits[i / 64];
        let mask = 1u64 << (i % 64);
        if *word & mask != 0 {
            self.ops.bump();
            return false;
        }
        self.ops.add(2);
        *word |= mask;
        let b = i / BLOCK_BITS;
        self.blk[b] += 1;
        self.sup[b >> self.sup_shift] += 1;
        self.len += 1;
        true
    }

    /// Removes `id`, returning `true` if it was present.
    pub fn remove(&mut self, id: u64) -> bool {
        if id == 0 || id as usize > self.universe {
            self.ops.bump();
            return false;
        }
        let i = id as usize - 1;
        let word = &mut self.bits[i / 64];
        let mask = 1u64 << (i % 64);
        if *word & mask == 0 {
            self.ops.bump();
            return false;
        }
        self.ops.add(2);
        *word &= !mask;
        let b = i / BLOCK_BITS;
        self.blk[b] -= 1;
        self.sup[b >> self.sup_shift] -= 1;
        self.len -= 1;
        true
    }

    /// Number of elements `≤ id`.
    pub fn count_le(&self, id: u64) -> usize {
        let i = (id as usize).min(self.universe);
        let block = i / BLOCK_BITS;
        let sup_block = block >> self.sup_shift;
        let block_word = block * BLOCK_WORDS;
        // Bulk scans: whole superblocks below the target's, whole blocks
        // of the partial superblock, then the bit prefix of the partial
        // block (full words + masked tail in one `count_le_range`). The
        // charge is one elementary operation per entry exactly like the
        // historical per-entry loops — derived from the slice lengths,
        // never from the scan (counter-neutrality; see `crate::kernels`).
        let mut iters =
            (sup_block + (block - (sup_block << self.sup_shift)) + (i / 64 - block_word)) as u64;
        let mut acc: u32 = self.sup[..sup_block].iter().sum::<u32>()
            + self.blk[sup_block << self.sup_shift..block]
                .iter()
                .sum::<u32>();
        acc += kernels::count_le_range(&self.bits[block_word..], i - block_word * 64) as u32;
        // The partial word's charge (the kernel already counted its bits).
        if i % 64 > 0 {
            iters += 1;
        }
        self.ops.add(iters);
        acc as usize
    }

    /// The `rank`-th smallest element (1-based), or `None` if `rank` is `0`
    /// or exceeds [`len`](FenwickSet::len).
    pub fn select(&self, rank: usize) -> Option<u64> {
        if rank == 0 || rank > self.len {
            return None;
        }
        let mut iters = 0u64;
        let mut remaining = rank as u32;
        // Scan superblocks, then the blocks of the target superblock.
        let mut sb = 0usize;
        loop {
            iters += 1;
            let c = self.sup[sb];
            if c >= remaining {
                break;
            }
            remaining -= c;
            sb += 1;
        }
        let mut block = sb << self.sup_shift;
        loop {
            iters += 1;
            let c = self.blk[block];
            if c >= remaining {
                break;
            }
            remaining -= c;
            block += 1;
        }
        // `block` now holds the answer; its at most BLOCK_WORDS words are a
        // pure n-th-set-bit probe, one kernel call. The charge mirrors the
        // historical loop: one op per word up to and including the hit,
        // plus the in-word select's single op.
        let w0 = block * BLOCK_WORDS;
        let ws = &self.bits[w0..self.bits.len().min(w0 + BLOCK_WORDS)];
        let pos = kernels::find_nth_set_in(ws, remaining)
            .expect("count hierarchy places the rank inside this block");
        iters += (pos / 64 + 1) as u64 + 1;
        self.ops.add(iters);
        Some((w0 * 64 + pos) as u64 + 1)
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

    /// The `remaining`-th member of `self \ excl` counted **from the right**
    /// (`remaining ≥ 1`), entering the count hierarchy at its upper end —
    /// the mirror image of the left walk in
    /// [`select_excluding`](RankedSet::select_excluding).
    fn select_excluding_from_right(&self, excl: &[u64], mut remaining: u32) -> Option<u64> {
        let mut iters = 0u64;
        // Merge pointer from the right: exclusions strictly above the range
        // under consideration have already been discounted.
        let mut jr = excl.len();
        let super_bits = self.super_bits() as u64;
        let mut sb = self.sup.len() - 1;
        loop {
            iters += 1;
            let lo = sb as u64 * super_bits;
            let mut jj = jr;
            while jj > 0 && excl[jj - 1] > lo {
                jj -= 1;
            }
            iters += (jr - jj) as u64;
            let eff = self.sup[sb] - (jr - jj) as u32;
            if eff >= remaining {
                break;
            }
            remaining -= eff;
            jr = jj;
            sb -= 1;
        }
        let mut block = (((sb + 1) << self.sup_shift) - 1).min(self.blk.len() - 1);
        loop {
            iters += 1;
            let lo = block as u64 * BLOCK_BITS as u64;
            let mut jj = jr;
            while jj > 0 && excl[jj - 1] > lo {
                jj -= 1;
            }
            iters += (jr - jj) as u64;
            let eff = self.blk[block] - (jr - jj) as u32;
            if eff >= remaining {
                break;
            }
            remaining -= eff;
            jr = jj;
            block -= 1;
        }
        let w_lo = block * BLOCK_WORDS;
        let block_lo_bit = (block * BLOCK_BITS) as u64;
        let mut w = ((block + 1) * BLOCK_WORDS - 1).min(self.bits.len() - 1);
        loop {
            // Bulk fast path: every remaining exclusion lies below this
            // block, so the rest of the descent is a pure
            // n-th-set-bit-from-the-right probe — one kernel call, charged
            // one op per word down to and including the hit plus the
            // in-word select's op, exactly like the loop it replaces.
            if jr == 0 || excl[jr - 1] <= block_lo_bit {
                let ws = &self.bits[w_lo..=w];
                let pos = kernels::find_nth_set_from_right(ws, remaining)
                    .expect("count hierarchy places the rank inside this block");
                iters += (ws.len() - pos / 64) as u64 + 1;
                self.ops.add(iters);
                return Some((w_lo * 64 + pos) as u64 + 1);
            }
            iters += 1;
            let lo = w as u64 * 64;
            let mut jj = jr;
            let mut word = self.bits[w];
            while jj > 0 && excl[jj - 1] > lo {
                jj -= 1;
                word &= !(1u64 << ((excl[jj] - 1) % 64));
                iters += 1;
            }
            let pc = word.count_ones();
            if pc >= remaining {
                // `remaining`-th from the right = `(pc − remaining + 1)`-th
                // from the left within this word.
                let bit = select_in_word(word, pc - remaining + 1, &mut iters);
                self.ops.add(iters);
                return Some((w * 64 + bit) as u64 + 1);
            }
            remaining -= pc;
            jr = jj;
            w -= 1;
        }
    }

    /// Left-to-right word descent inside `block`, which is known to contain
    /// the `remaining`-th effective element; `excl[..j]` lie at or below the
    /// block's first bit. Returns the element and flushes `iters`.
    fn descend_block_left(
        &self,
        block: usize,
        excl: &[u64],
        mut j: usize,
        mut remaining: u32,
        mut iters: u64,
    ) -> u64 {
        let block_end_bit = ((block + 1) * BLOCK_BITS) as u64;
        let mut w = block * BLOCK_WORDS;
        loop {
            // Bulk fast path: no exclusion left at or below the block's
            // end, so the rest of the descent is a pure n-th-set-bit probe
            // (charges mirror the loop: one op per word up to and including
            // the hit, plus the in-word select's op).
            if j == excl.len() || excl[j] > block_end_bit {
                let hi_w = self.bits.len().min((block + 1) * BLOCK_WORDS);
                let pos = kernels::find_nth_set_in(&self.bits[w..hi_w], remaining)
                    .expect("count hierarchy places the rank inside this block");
                iters += (pos / 64 + 1) as u64 + 1;
                self.ops.add(iters);
                return (w * 64 + pos) as u64 + 1;
            }
            iters += 1;
            let hi = (w as u64 + 1) * 64;
            let mut word = self.bits[w];
            while j < excl.len() && excl[j] <= hi {
                word &= !(1u64 << ((excl[j] - 1) % 64));
                iters += 1;
                j += 1;
            }
            let pc = word.count_ones();
            if pc >= remaining {
                let bit = select_in_word(word, remaining, &mut iters);
                self.ops.add(iters);
                return (w * 64 + bit) as u64 + 1;
            }
            remaining -= pc;
            w += 1;
        }
    }

    /// Right-to-left word descent inside `block`, which is known to contain
    /// the `remaining`-th-from-the-right effective element; `excl[jr..]` lie
    /// above the block's last bit. Returns the element and flushes `iters`.
    fn descend_block_right(
        &self,
        block: usize,
        excl: &[u64],
        mut jr: usize,
        mut remaining: u32,
        mut iters: u64,
    ) -> u64 {
        let w_lo = block * BLOCK_WORDS;
        let block_lo_bit = (block * BLOCK_BITS) as u64;
        let mut w = ((block + 1) * BLOCK_WORDS - 1).min(self.bits.len() - 1);
        loop {
            // Bulk fast path, mirrored (see `descend_block_left`).
            if jr == 0 || excl[jr - 1] <= block_lo_bit {
                let ws = &self.bits[w_lo..=w];
                let pos = kernels::find_nth_set_from_right(ws, remaining)
                    .expect("count hierarchy places the rank inside this block");
                iters += (ws.len() - pos / 64) as u64 + 1;
                self.ops.add(iters);
                return (w_lo * 64 + pos) as u64 + 1;
            }
            iters += 1;
            let lo = w as u64 * 64;
            let mut word = self.bits[w];
            while jr > 0 && excl[jr - 1] > lo {
                jr -= 1;
                word &= !(1u64 << ((excl[jr] - 1) % 64));
                iters += 1;
            }
            let pc = word.count_ones();
            if pc >= remaining {
                let bit = select_in_word(word, pc - remaining + 1, &mut iters);
                self.ops.add(iters);
                return (w * 64 + bit) as u64 + 1;
            }
            remaining -= pc;
            w -= 1;
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
}

/// Position (0-based bit index) of the `remaining`-th set bit of `word`
/// (`1 ≤ remaining ≤ popcount(word)`): the charged wrapper around the
/// shared SWAR byte-prefix select
/// ([`kernels::select_in_word`]). One machine word is a single
/// machine-level unit of rank work, so the charge is one elementary
/// operation.
#[inline]
fn select_in_word(word: u64, remaining: u32, iters: &mut u64) -> usize {
    *iters += 1;
    kernels::select_in_word(word, remaining)
}

/// Iterator over a [`FenwickSet`] in increasing element order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a FenwickSet,
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

impl<'a> IntoIterator for &'a FenwickSet {
    type Item = u64;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for FenwickSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FenwickSet")
            .field("universe", &self.universe)
            .field("len", &self.len)
            .field("elements", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

impl PartialEq for FenwickSet {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe && self.len == other.len && self.bits == other.bits
    }
}

impl Eq for FenwickSet {}

impl Hash for FenwickSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.universe.hash(state);
        self.bits.hash(state);
    }
}

impl RankedSet for FenwickSet {
    fn len(&self) -> usize {
        self.len
    }

    fn contains(&self, id: u64) -> bool {
        FenwickSet::contains(self, id)
    }

    fn select(&self, rank: usize) -> Option<u64> {
        FenwickSet::select(self, rank)
    }

    fn count_le(&self, id: u64) -> usize {
        FenwickSet::count_le(self, id)
    }

    /// Single exclusion-aware walk instead of the default's repeated
    /// [`select`](RankedSet::select) fixpoint: one pass down the
    /// superblock/block/word hierarchy with a merge pointer over the sorted
    /// exclusions, discounting excluded members per range and masking them
    /// out of the final word. Costs one `select` scan plus `O(|excl|)`
    /// pointer advances — `compNext` calls this once per cycle, where the
    /// default costs up to `|excl| + 1` full scans.
    fn select_excluding(&self, excl: &[u64], i: usize) -> Option<u64> {
        debug_assert!(
            excl.windows(2).all(|w| w[0] < w[1]),
            "excl must be sorted and deduped"
        );
        debug_assert!(
            excl.iter()
                .all(|&e| crate::rank::bitmap_contains(&self.bits, self.universe, e)),
            "excl must be members"
        );
        if i == 0 || self.len < i + excl.len() {
            return None;
        }
        // Enter the hierarchy from whichever end is closer to the target
        // rank: KKβ's rank-splitting sends process `p` to the `(p−1)/m`
        // fraction of `FREE`, so left-only scans would cost high pids a
        // walk across the whole structure every cycle.
        let total = self.len - excl.len();
        if 2 * i > total {
            return self.select_excluding_from_right(excl, (total - i + 1) as u32);
        }
        let mut iters = 0u64;
        let mut remaining = i as u32;
        // Merge pointer: exclusions strictly before the range under
        // consideration have already been discounted.
        let mut j = 0usize;
        let super_bits = self.super_bits() as u64;
        let mut sb = 0usize;
        loop {
            iters += 1;
            let hi = (sb as u64 + 1) * super_bits;
            let mut jj = j;
            while jj < excl.len() && excl[jj] <= hi {
                jj += 1;
            }
            iters += (jj - j) as u64;
            let eff = self.sup[sb] - (jj - j) as u32;
            if eff >= remaining {
                break;
            }
            remaining -= eff;
            j = jj;
            sb += 1;
        }
        let mut block = sb << self.sup_shift;
        loop {
            iters += 1;
            let hi = (block as u64 + 1) * BLOCK_BITS as u64;
            let mut jj = j;
            while jj < excl.len() && excl[jj] <= hi {
                jj += 1;
            }
            iters += (jj - j) as u64;
            let eff = self.blk[block] - (jj - j) as u32;
            if eff >= remaining {
                break;
            }
            remaining -= eff;
            j = jj;
            block += 1;
        }
        let block_end_bit = ((block + 1) * BLOCK_BITS) as u64;
        let mut w = block * BLOCK_WORDS;
        loop {
            // Bulk fast path: no exclusion left at or below the block's
            // end, so the rest of the descent is a pure n-th-set-bit probe,
            // one kernel call (charges identical to the loop).
            if j == excl.len() || excl[j] > block_end_bit {
                let hi_w = self.bits.len().min((block + 1) * BLOCK_WORDS);
                let pos = kernels::find_nth_set_in(&self.bits[w..hi_w], remaining)
                    .expect("count hierarchy places the rank inside this block");
                iters += (pos / 64 + 1) as u64 + 1;
                self.ops.add(iters);
                return Some((w * 64 + pos) as u64 + 1);
            }
            iters += 1;
            let hi = (w as u64 + 1) * 64;
            let mut jj = j;
            let mut word = self.bits[w];
            while jj < excl.len() && excl[jj] <= hi {
                word &= !(1u64 << ((excl[jj] - 1) % 64));
                iters += 1;
                jj += 1;
            }
            let pc = word.count_ones();
            if pc >= remaining {
                let bit = select_in_word(word, remaining, &mut iters);
                self.ops.add(iters);
                return Some((w * 64 + bit) as u64 + 1);
            }
            remaining -= pc;
            j = jj;
            w += 1;
        }
    }

    /// Anchored walk: instead of entering the count hierarchy from an end,
    /// the walk starts at the block containing `hint.anchor`, whose
    /// effective prefix rank is recovered in `O(1)` block scans from the
    /// hint's full-set rank (see [`SelectHint`](crate::SelectHint) for the
    /// invariant — debug builds assert it). The walk then moves
    /// block-at-a-time toward the target, discounting exclusions with a
    /// merge pointer, and takes **chunked superblock skips** whenever it
    /// crosses a whole superblock — so a far-off target degrades to the
    /// unhinted cost, while the common `compNext` case (the next pick lands
    /// within a block or two of the previous one) resolves in a handful of
    /// word scans regardless of `n`.
    fn select_excluding_hinted(
        &self,
        excl: &[u64],
        i: usize,
        hint: Option<crate::rank::SelectHint>,
    ) -> Option<u64> {
        let Some(h) = hint else {
            return self.select_excluding(excl, i);
        };
        if h.anchor == 0 || h.anchor as usize > self.universe || self.sup.is_empty() {
            return self.select_excluding(excl, i);
        }
        debug_assert!(
            excl.windows(2).all(|w| w[0] < w[1]),
            "excl must be sorted and deduped"
        );
        debug_assert!(
            excl.iter()
                .all(|&e| crate::rank::bitmap_contains(&self.bits, self.universe, e)),
            "excl must be members"
        );
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                h.rank,
                crate::rank::bitmap_count_le(&self.bits, self.universe, h.anchor),
                "stale SelectHint: rank does not match count_le(anchor)"
            );
        }
        if i == 0 || self.len < i + excl.len() {
            return None;
        }
        let mut iters = 0u64;
        // Effective (exclusion-discounted) rank of the anchor block's first
        // bit, recovered from the hint: members before the block are the
        // hint's rank minus the members ≤ anchor inside the block.
        let a = h.anchor as usize - 1;
        let b0 = a / BLOCK_BITS;
        let w_last = a / 64;
        let low_bits = a % 64 + 1;
        let partial_mask = if low_bits == 64 {
            u64::MAX
        } else {
            (1u64 << low_bits) - 1
        };
        // In-block members ≤ anchor: full words plus the masked anchor word
        // in one kernel call (charge: one op per word scanned, as before).
        let in_block =
            kernels::popcount_masked_tail(&self.bits[b0 * BLOCK_WORDS..=w_last], partial_mask)
                as u32;
        iters += (w_last - b0 * BLOCK_WORDS) as u64 + 1;
        let block_lo = (b0 * BLOCK_BITS) as u64;
        let jb = excl.partition_point(|&e| e <= block_lo);
        iters += 1;
        let eff_before = h.rank as u32 - in_block - jb as u32;
        let target = i as u32;
        let sup_mask = (1usize << self.sup_shift) - 1;
        if target > eff_before {
            // Forward walk from the anchor block.
            let mut remaining = target - eff_before;
            let mut j = jb;
            let mut block = b0;
            loop {
                if block & sup_mask == 0 {
                    // Chunked skip: a whole superblock that provably does
                    // not contain the target is crossed in one step.
                    let sb = block >> self.sup_shift;
                    if sb < self.sup.len() {
                        let hi = (sb as u64 + 1) * self.super_bits() as u64;
                        let jj = j + excl[j..].partition_point(|&e| e <= hi);
                        let eff = self.sup[sb] - (jj - j) as u32;
                        if eff < remaining {
                            iters += 1 + (jj - j) as u64;
                            remaining -= eff;
                            j = jj;
                            block += 1 << self.sup_shift;
                            continue;
                        }
                    }
                }
                iters += 1;
                let hi = (block as u64 + 1) * BLOCK_BITS as u64;
                let mut jj = j;
                while jj < excl.len() && excl[jj] <= hi {
                    jj += 1;
                }
                iters += (jj - j) as u64;
                let eff = self.blk[block] - (jj - j) as u32;
                if eff >= remaining {
                    return Some(self.descend_block_left(block, excl, j, remaining, iters));
                }
                remaining -= eff;
                j = jj;
                block += 1;
            }
        } else {
            // Backward walk: the target lies before the anchor block,
            // `eff_before − target + 1` effective elements from its start
            // counted rightward.
            debug_assert!(b0 > 0, "eff_before ≥ 1 implies members before the block");
            let mut remaining = eff_before - target + 1;
            let mut jr = jb;
            let mut block = b0 - 1;
            loop {
                if block & sup_mask == sup_mask {
                    // Chunked skip over a whole superblock, mirrored.
                    let sb = block >> self.sup_shift;
                    let lo = sb as u64 * self.super_bits() as u64;
                    let jj = excl[..jr].partition_point(|&e| e <= lo);
                    let eff = self.sup[sb] - (jr - jj) as u32;
                    if eff < remaining {
                        iters += 1 + (jr - jj) as u64;
                        remaining -= eff;
                        jr = jj;
                        block -= 1 << self.sup_shift;
                        continue;
                    }
                }
                iters += 1;
                let lo = block as u64 * BLOCK_BITS as u64;
                let jj = excl[..jr].partition_point(|&e| e <= lo);
                iters += (jr - jj) as u64;
                let eff = self.blk[block] - (jr - jj) as u32;
                if eff >= remaining {
                    return Some(self.descend_block_right(block, excl, jr, remaining, iters));
                }
                remaining -= eff;
                jr = jj;
                block -= 1;
            }
        }
    }
}

impl crate::rank::OrderedJobSet for FenwickSet {
    fn empty(universe: usize) -> Self {
        FenwickSet::new(universe)
    }

    fn full(universe: usize) -> Self {
        FenwickSet::with_all(universe)
    }

    fn universe(&self) -> usize {
        FenwickSet::universe(self)
    }

    fn insert(&mut self, id: u64) -> bool {
        FenwickSet::insert(self, id)
    }

    fn remove(&mut self, id: u64) -> bool {
        FenwickSet::remove(self, id)
    }

    fn ops(&self) -> u64 {
        FenwickSet::ops(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_behaviour() {
        let s = FenwickSet::new(10);
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
        let s = FenwickSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.select(1), None);
        assert!(!s.contains(1));
        let f = FenwickSet::with_all(0);
        assert!(f.is_empty());
    }

    #[test]
    fn with_all_contains_everything() {
        for n in [1usize, 2, 63, 64, 65, 100, 128, 511, 512, 513, 1000, 5000] {
            let s = FenwickSet::with_all(n);
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
        let mut s = FenwickSet::new(100);
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
        FenwickSet::new(5).insert(0);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_beyond_universe_panics() {
        FenwickSet::new(5).insert(6);
    }

    #[test]
    fn remove_out_of_range_is_noop() {
        let mut s = FenwickSet::with_all(5);
        assert!(!s.remove(0));
        assert!(!s.remove(6));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn select_matches_sorted_order() {
        let mut s = FenwickSet::new(64);
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
        let s = FenwickSet::with_members(20, [2u64, 4, 8, 16]);
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
        let s = FenwickSet::with_members(128, members);
        let got: Vec<u64> = s.iter().collect();
        let mut want = members.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn ops_counter_moves() {
        let mut s = FenwickSet::new(1024);
        s.reset_ops();
        s.insert(512);
        let after_insert = s.ops();
        assert!(after_insert > 0, "insert must count work");
        s.select(1);
        assert!(s.ops() > after_insert, "select must count work");
    }

    #[test]
    fn equality_ignores_counters() {
        let mut a = FenwickSet::new(10);
        let mut b = FenwickSet::new(10);
        a.insert(3);
        b.insert(3);
        b.select(1); // spend some ops on b only
        assert_eq!(a, b);
        b.insert(4);
        assert_ne!(a, b);
    }

    #[test]
    fn word_boundary_elements() {
        let mut s = FenwickSet::new(130);
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

    #[test]
    fn block_boundary_elements() {
        // Elements straddling the 512-element Fenwick blocks.
        let ids = [511u64, 512, 513, 1023, 1024, 1025, 1536, 2048];
        let mut s = FenwickSet::new(2048);
        for &id in &ids {
            assert!(s.insert(id));
        }
        for (i, &id) in ids.iter().enumerate() {
            assert!(s.contains(id), "missing {id}");
            assert_eq!(s.select(i + 1), Some(id));
            assert_eq!(s.rank_of(id), Some(i + 1));
        }
        assert_eq!(s.count_le(512), 2);
        assert_eq!(s.count_le(1024), 5);
        assert!(s.remove(1024));
        assert_eq!(s.count_le(2048), 7);
        assert_eq!(s.select(5), Some(1025));
    }

    #[test]
    fn dense_random_against_naive_model() {
        // Deterministic pseudo-random insert/remove stream checked against a
        // sorted-vec model, across block and word boundaries.
        let universe = 1500usize;
        let mut s = FenwickSet::new(universe);
        let mut model: Vec<u64> = Vec::new();
        let mut state = 0x9E37_79B9u64;
        for step in 0..4000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = (state >> 33) % universe as u64 + 1;
            if step % 3 == 2 {
                let was = s.remove(id);
                let pos = model.binary_search(&id);
                assert_eq!(was, pos.is_ok(), "remove({id})");
                if let Ok(p) = pos {
                    model.remove(p);
                }
            } else {
                let new = s.insert(id);
                let pos = model.binary_search(&id);
                assert_eq!(new, pos.is_err(), "insert({id})");
                if let Err(p) = pos {
                    model.insert(p, id);
                }
            }
        }
        assert_eq!(s.len(), model.len());
        for (i, &id) in model.iter().enumerate() {
            assert_eq!(s.select(i + 1), Some(id), "select({})", i + 1);
            assert_eq!(s.count_le(id), i + 1, "count_le({id})");
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), model);
    }
}
