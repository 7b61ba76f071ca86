use std::fmt;
use std::hash::{Hash, Hasher};

use crate::counter::OpCounter;
use crate::rank::RankedSet;

/// Splitmix64 finaliser — turns a key into a pseudo-random treap priority.
///
/// Deterministic so that executions (and therefore simulated schedules and
/// work counts) are perfectly reproducible.
fn priority(key: u64, seed: u64) -> u64 {
    let mut z = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Node {
    key: u64,
    prio: u64,
    left: u32,
    right: u32,
    size: u32,
}

/// A size-augmented randomized binary search tree (treap) over `u64` keys.
///
/// The paper calls for "some tree structure like red-black tree or some
/// variant of B-tree" to hold the `FREE`/`DONE`/`TRY` sets with `O(log n)`
/// insert, delete and rank queries. This treap with deterministic,
/// key-derived priorities provides exactly that, over an *arbitrary* (sparse)
/// key space — unlike [`FenwickSet`](crate::FenwickSet), which needs a dense
/// universe. It backs the data-structure ablation (DESIGN.md A2).
///
/// All expected costs are `O(log n)`; like the Fenwick structure it counts
/// its elementary iterations in an [`OpCounter`].
///
/// # Examples
///
/// ```
/// use amo_ostree::{OrderStatTree, RankedSet};
///
/// let mut t = OrderStatTree::new();
/// t.insert(100);
/// t.insert(7);
/// t.insert(3_000_000_000);
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.select(2), Some(100));
/// assert_eq!(t.count_le(100), 2);
/// assert!(t.remove(100));
/// assert_eq!(t.select(2), Some(3_000_000_000));
/// ```
#[derive(Clone)]
pub struct OrderStatTree {
    nodes: Vec<Node>,
    root: u32,
    free_list: Vec<u32>,
    seed: u64,
    ops: OpCounter,
}

impl Default for OrderStatTree {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderStatTree {
    /// Creates an empty tree with the default priority seed.
    pub fn new() -> Self {
        Self::with_seed(0x005E_ED0F_ABED_CAFE)
    }

    /// Creates an empty tree whose priorities are derived from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            nodes: Vec::new(),
            root: NIL,
            free_list: Vec::new(),
            seed,
            ops: OpCounter::new(),
        }
    }

    /// Builds a tree containing every key produced by the iterator.
    pub fn from_keys<I: IntoIterator<Item = u64>>(keys: I) -> Self {
        let mut t = Self::new();
        for k in keys {
            t.insert(k);
        }
        t
    }

    /// Number of keys in the tree.
    pub fn len(&self) -> usize {
        self.size(self.root) as usize
    }

    /// Returns `true` if the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        let (found, visited) = self.lookup(key);
        self.ops.add(visited);
        found
    }

    /// Whether `key` is present, and how many nodes the search visited,
    /// uncharged: [`contains`](Self::contains) charges one op per visited
    /// node around it, and debug assertions call it bare so that a debug
    /// build charges exactly the work of a release build.
    fn lookup(&self, key: u64) -> (bool, u64) {
        let mut cur = self.root;
        let mut visited = 0;
        while cur != NIL {
            visited += 1;
            let n = &self.nodes[cur as usize];
            match key.cmp(&n.key) {
                std::cmp::Ordering::Less => cur = n.left,
                std::cmp::Ordering::Greater => cur = n.right,
                std::cmp::Ordering::Equal => return (true, visited),
            }
        }
        (false, visited)
    }

    /// Inserts `key`, returning `true` if it was not already present.
    pub fn insert(&mut self, key: u64) -> bool {
        if self.contains(key) {
            return false;
        }
        let (l, r) = self.split(self.root, key);
        let node = self.alloc(key);
        let lr = self.merge(l, node);
        self.root = self.merge(lr, r);
        true
    }

    /// Removes `key`, returning `true` if it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        if !self.contains(key) {
            return false;
        }
        let (l, mid_r) = self.split(self.root, key);
        // mid_r holds keys ≥ key; split off the single node equal to key.
        let (mid, r) = self.split_after_first(mid_r);
        debug_assert_eq!(self.nodes[mid as usize].key, key);
        self.free_list.push(mid);
        self.root = self.merge(l, r);
        true
    }

    /// The `rank`-th smallest key (1-based).
    pub fn select(&self, rank: usize) -> Option<u64> {
        if rank == 0 || rank > self.len() {
            return None;
        }
        let mut cur = self.root;
        let mut remaining = rank as u32;
        loop {
            self.ops.bump();
            let n = &self.nodes[cur as usize];
            let left = self.size(n.left);
            if remaining <= left {
                cur = n.left;
            } else if remaining == left + 1 {
                return Some(n.key);
            } else {
                remaining -= left + 1;
                cur = n.right;
            }
        }
    }

    /// Number of keys `≤ key`.
    pub fn count_le(&self, key: u64) -> usize {
        let mut cur = self.root;
        let mut acc = 0u32;
        while cur != NIL {
            self.ops.bump();
            let n = &self.nodes[cur as usize];
            if n.key <= key {
                acc += self.size(n.left) + 1;
                cur = n.right;
            } else {
                cur = n.left;
            }
        }
        acc as usize
    }

    /// Iterates over the keys in increasing order.
    pub fn iter(&self) -> IntoKeys {
        let mut out = Vec::with_capacity(self.len());
        self.collect_in_order(self.root, &mut out);
        IntoKeys {
            keys: out.into_iter(),
        }
    }

    /// Total elementary operations performed so far.
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// Resets the operation counter.
    pub fn reset_ops(&self) {
        self.ops.reset()
    }

    fn collect_in_order(&self, cur: u32, out: &mut Vec<u64>) {
        if cur == NIL {
            return;
        }
        let n = &self.nodes[cur as usize];
        self.collect_in_order(n.left, out);
        out.push(n.key);
        self.collect_in_order(n.right, out);
    }

    #[inline]
    fn size(&self, idx: u32) -> u32 {
        if idx == NIL {
            0
        } else {
            self.nodes[idx as usize].size
        }
    }

    fn alloc(&mut self, key: u64) -> u32 {
        let prio = priority(key, self.seed);
        let node = Node {
            key,
            prio,
            left: NIL,
            right: NIL,
            size: 1,
        };
        if let Some(idx) = self.free_list.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn fix(&mut self, idx: u32) {
        let (l, r) = {
            let n = &self.nodes[idx as usize];
            (n.left, n.right)
        };
        self.nodes[idx as usize].size = 1 + self.size(l) + self.size(r);
    }

    /// Splits into (keys < key, keys ≥ key).
    fn split(&mut self, cur: u32, key: u64) -> (u32, u32) {
        if cur == NIL {
            return (NIL, NIL);
        }
        self.ops.bump();
        if self.nodes[cur as usize].key < key {
            let right = self.nodes[cur as usize].right;
            let (l, r) = self.split(right, key);
            self.nodes[cur as usize].right = l;
            self.fix(cur);
            (cur, r)
        } else {
            let left = self.nodes[cur as usize].left;
            let (l, r) = self.split(left, key);
            self.nodes[cur as usize].left = r;
            self.fix(cur);
            (l, cur)
        }
    }

    /// Splits off the leftmost node of `cur`: returns (leftmost, rest).
    fn split_after_first(&mut self, cur: u32) -> (u32, u32) {
        debug_assert_ne!(cur, NIL);
        self.ops.bump();
        let left = self.nodes[cur as usize].left;
        if left == NIL {
            let rest = self.nodes[cur as usize].right;
            self.nodes[cur as usize].right = NIL;
            self.fix(cur);
            (cur, rest)
        } else {
            let (first, rest_left) = self.split_after_first(left);
            self.nodes[cur as usize].left = rest_left;
            self.fix(cur);
            (first, cur)
        }
    }

    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        self.ops.bump();
        if self.nodes[a as usize].prio >= self.nodes[b as usize].prio {
            let ar = self.nodes[a as usize].right;
            let merged = self.merge(ar, b);
            self.nodes[a as usize].right = merged;
            self.fix(a);
            a
        } else {
            let bl = self.nodes[b as usize].left;
            let merged = self.merge(a, bl);
            self.nodes[b as usize].left = merged;
            self.fix(b);
            b
        }
    }
}

/// Iterator over the keys of an [`OrderStatTree`] in increasing order.
#[derive(Debug, Clone)]
pub struct IntoKeys {
    keys: std::vec::IntoIter<u64>,
}

impl Iterator for IntoKeys {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        self.keys.next()
    }
}

impl fmt::Debug for OrderStatTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderStatTree")
            .field("len", &self.len())
            .field("keys", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

impl PartialEq for OrderStatTree {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for OrderStatTree {}

impl Hash for OrderStatTree {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len().hash(state);
        for k in self.iter() {
            k.hash(state);
        }
    }
}

impl RankedSet for OrderStatTree {
    fn len(&self) -> usize {
        OrderStatTree::len(self)
    }

    fn contains(&self, id: u64) -> bool {
        OrderStatTree::contains(self, id)
    }

    fn select(&self, rank: usize) -> Option<u64> {
        OrderStatTree::select(self, rank)
    }

    fn count_le(&self, id: u64) -> usize {
        OrderStatTree::count_le(self, id)
    }

    /// The fixpoint walk, with the membership precondition checked by the
    /// uncharged lookup so that debug builds charge no extra work.
    fn select_excluding(&self, excl: &[u64], i: usize) -> Option<u64> {
        debug_assert!(
            excl.iter().all(|&e| self.lookup(e).0),
            "excl must be members"
        );
        crate::rank::select_fixpoint(self, excl, i)
    }
}

impl FromIterator<u64> for OrderStatTree {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Self::from_keys(iter)
    }
}

impl Extend<u64> for OrderStatTree {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for k in iter {
            self.insert(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t = OrderStatTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.select(1), None);
        assert!(!t.contains(1));
        assert_eq!(t.count_le(u64::MAX), 0);
    }

    #[test]
    fn insert_contains_remove() {
        let mut t = OrderStatTree::new();
        assert!(t.insert(10));
        assert!(!t.insert(10));
        assert!(t.contains(10));
        assert!(t.remove(10));
        assert!(!t.remove(10));
        assert!(t.is_empty());
    }

    #[test]
    fn select_and_count_match_sorted() {
        let keys = [90u64, 5, 32, 1, 7, 64, 2, 1024, 999_999_999_999];
        let t = OrderStatTree::from_keys(keys.iter().copied());
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        for (i, &k) in sorted.iter().enumerate() {
            assert_eq!(t.select(i + 1), Some(k));
            assert_eq!(t.count_le(k), i + 1);
        }
        assert_eq!(t.select(keys.len() + 1), None);
    }

    #[test]
    fn removal_keeps_order_statistics() {
        let mut t = OrderStatTree::from_keys(1..=100);
        for k in (2..=100).step_by(2) {
            assert!(t.remove(k));
        }
        assert_eq!(t.len(), 50);
        for i in 1..=50usize {
            assert_eq!(t.select(i), Some((2 * i - 1) as u64), "rank {i}");
        }
    }

    #[test]
    fn iter_sorted() {
        let t = OrderStatTree::from_keys([5u64, 3, 9, 1].iter().copied());
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![1, 3, 5, 9]);
    }

    #[test]
    fn node_reuse_after_remove() {
        let mut t = OrderStatTree::new();
        for k in 1..=64u64 {
            t.insert(k);
        }
        for k in 1..=64u64 {
            t.remove(k);
        }
        let nodes_before = t.nodes.len();
        for k in 100..=163u64 {
            t.insert(k);
        }
        assert_eq!(t.nodes.len(), nodes_before, "freed slots are reused");
        assert_eq!(t.len(), 64);
    }

    #[test]
    fn equality_is_structural_on_keys() {
        let a = OrderStatTree::from_keys([1u64, 2, 3].iter().copied());
        let mut b = OrderStatTree::with_seed(42);
        b.extend([3u64, 1, 2]);
        assert_eq!(a, b, "same key set, different shapes/seeds");
    }

    #[test]
    fn ops_are_logarithmic_ish() {
        let t = OrderStatTree::from_keys(1..=4096);
        t.reset_ops();
        t.contains(2048);
        // A balanced-ish treap over 4096 keys should be ~12-40 deep, never 4096.
        assert!(t.ops() < 200, "ops = {}", t.ops());
    }

    /// `select_excluding` charges its fixpoint walk and nothing more: its
    /// membership check is uncharged, so debug and release builds agree.
    #[test]
    fn select_excluding_charges_only_its_fixpoint_walk() {
        let t = OrderStatTree::from_keys(1..=1000);
        let twin = t.clone();
        t.reset_ops();
        twin.reset_ops();
        let excl = [3, 70, 500, 501, 900];
        assert_eq!(
            RankedSet::select_excluding(&t, &excl, 400),
            crate::rank::select_fixpoint(&twin, &excl, 400)
        );
        assert!(t.ops() > 0, "the walk is charged");
        assert_eq!(t.ops(), twin.ops());
    }

    #[test]
    fn duplicate_heavy_workload() {
        let mut t = OrderStatTree::new();
        for _ in 0..3 {
            for k in [7u64, 7, 8, 8, 9] {
                t.insert(k);
            }
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![7, 8, 9]);
    }
}
