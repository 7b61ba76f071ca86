//! Backend-equivalence property tests: [`FenwickSet`] (blocked bitmap with
//! eager superblock counts) and [`DenseFenwickSet`] (per-element Fenwick
//! tree) must be **observationally identical** through every interface the
//! KKβ automaton is generic over.
//!
//! Both backends are driven through the same randomized insert / remove /
//! rank sequence and every observation — membership, length, `select`,
//! `count_le`, `select_excluding` — is compared pairwise *and* against a
//! `BTreeSet` model. Rank queries are issued immediately after mutation
//! bursts on purpose: the blocked backend historically rebuilt its rank
//! prefix lazily on the first query after a mutation, and this interleaving
//! is exactly the class of schedule that exercised those rebuild edge cases
//! (today the count hierarchy is maintained eagerly, and these tests pin
//! down that the replacement is observation-for-observation faithful).

use amo_ostree::{rank_excluding, DenseFenwickSet, FenwickSet, OrderedJobSet, RankedSet};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
    /// Mutation burst then immediate rank probes (the lazy-rank edge case:
    /// first query after a mutation).
    BurstThenRank(Vec<u64>),
    Select(usize),
    CountLe(u64),
    RankExcluding(Vec<u64>, usize),
}

fn op_strategy(universe: u64) -> impl Strategy<Value = Op> {
    let u = universe;
    prop_oneof![
        (1..=u).prop_map(Op::Insert),
        (1..=u).prop_map(Op::Remove),
        prop::collection::vec(1..=u, 1..8).prop_map(Op::BurstThenRank),
        (0..(u as usize + 2)).prop_map(Op::Select),
        (0..=u + 1).prop_map(Op::CountLe),
        (prop::collection::vec(1..=u, 0..6), 0..(u as usize + 2))
            .prop_map(|(e, i)| Op::RankExcluding(e, i)),
    ]
}

struct Triple {
    blocked: FenwickSet,
    dense: DenseFenwickSet,
    model: BTreeSet<u64>,
}

impl Triple {
    fn new(universe: usize, full: bool) -> Self {
        if full {
            Self {
                blocked: FenwickSet::with_all(universe),
                dense: DenseFenwickSet::full(universe),
                model: (1..=universe as u64).collect(),
            }
        } else {
            Self {
                blocked: FenwickSet::new(universe),
                dense: DenseFenwickSet::empty(universe),
                model: BTreeSet::new(),
            }
        }
    }

    fn insert(&mut self, x: u64) {
        let want = self.model.insert(x);
        assert_eq!(self.blocked.insert(x), want, "blocked insert {x}");
        assert_eq!(
            OrderedJobSet::insert(&mut self.dense, x),
            want,
            "dense insert {x}"
        );
    }

    fn remove(&mut self, x: u64) {
        let want = self.model.remove(&x);
        assert_eq!(self.blocked.remove(x), want, "blocked remove {x}");
        assert_eq!(
            OrderedJobSet::remove(&mut self.dense, x),
            want,
            "dense remove {x}"
        );
    }

    /// Every observation both backends expose, compared pairwise and
    /// against the model.
    fn observe(&self) {
        assert_eq!(self.blocked.len(), self.model.len(), "blocked len");
        assert_eq!(RankedSet::len(&self.dense), self.model.len(), "dense len");
        assert_eq!(self.blocked.is_empty(), self.model.is_empty());
    }

    fn select(&self, r: usize) {
        let want = if r == 0 {
            None
        } else {
            self.model.iter().nth(r.wrapping_sub(1)).copied()
        };
        assert_eq!(self.blocked.select(r), want, "blocked select {r}");
        assert_eq!(RankedSet::select(&self.dense, r), want, "dense select {r}");
    }

    fn count_le(&self, x: u64) {
        let want = self.model.range(..=x).count();
        assert_eq!(self.blocked.count_le(x), want, "blocked count_le {x}");
        assert_eq!(
            RankedSet::count_le(&self.dense, x),
            want,
            "dense count_le {x}"
        );
    }

    fn rank_excluding(&self, excl: &[u64], i: usize) {
        let mut e: Vec<u64> = excl.to_vec();
        e.sort_unstable();
        e.dedup();
        let want = self
            .model
            .iter()
            .filter(|x| e.binary_search(x).is_err())
            .nth(i.wrapping_sub(1))
            .copied();
        let want = if i == 0 { None } else { want };
        assert_eq!(
            rank_excluding(&self.blocked, &e, i),
            want,
            "blocked rank_excluding"
        );
        assert_eq!(
            rank_excluding(&self.dense, &e, i),
            want,
            "dense rank_excluding"
        );
    }
}

fn drive(universe: usize, full: bool, ops: &[Op]) {
    let mut t = Triple::new(universe, full);
    for op in ops {
        match op {
            Op::Insert(x) => t.insert(*x),
            Op::Remove(x) => t.remove(*x),
            Op::BurstThenRank(xs) => {
                for (i, &x) in xs.iter().enumerate() {
                    if i % 2 == 0 {
                        t.insert(x);
                    } else {
                        t.remove(x);
                    }
                }
                // First rank probes right after the burst — the historical
                // lazy-prefix rebuild point.
                let len = t.model.len();
                t.select(1);
                t.select(len);
                t.select(len / 2 + 1);
                t.count_le(*xs.last().expect("burst non-empty"));
            }
            Op::Select(r) => t.select(*r),
            Op::CountLe(x) => t.count_le(*x),
            Op::RankExcluding(e, i) => {
                // `rank_excluding` pre-filters to members, so raw ids are
                // fine here; the member-only fast path is exercised below.
                t.rank_excluding(e, *i);
            }
        }
        t.observe();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random op sequences over universes spanning word (64), block (512)
    /// and superblock (≥4096) boundaries, from the empty set.
    #[test]
    fn backends_agree_from_empty(
        universe in prop_oneof![1usize..80, 450usize..600, 4000usize..4300],
        ops in prop::collection::vec(op_strategy(64), 1..60),
    ) {
        // Clamp op ids into the universe.
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|op| clamp_op(op, universe as u64))
            .collect();
        drive(universe, false, &ops);
    }

    /// The same, from the full set `FREE = J` (the automaton's starting
    /// state, where removals dominate — the simulation's hot pattern).
    #[test]
    fn backends_agree_from_full(
        universe in prop_oneof![1usize..80, 450usize..600, 4000usize..4300],
        ops in prop::collection::vec(op_strategy(64), 1..60),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|op| clamp_op(op, universe as u64))
            .collect();
        drive(universe, true, &ops);
    }

    /// Member-only exclusion lists through the `select_excluding` fast path:
    /// `FenwickSet` answers with a single merged walk, `DenseFenwickSet`
    /// with the fixpoint walk — they must agree everywhere, including ranks
    /// beyond `|free \ excl|`.
    #[test]
    fn select_excluding_override_matches_default(
        universe in 16usize..700,
        seed in any::<u64>(),
        removals in 0usize..200,
        excl_picks in prop::collection::vec(any::<u64>(), 0..6),
        i in 0usize..700,
    ) {
        let mut blocked = FenwickSet::with_all(universe);
        let mut dense = DenseFenwickSet::full(universe);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..removals {
            let x = next() % universe as u64 + 1;
            blocked.remove(x);
            OrderedJobSet::remove(&mut dense, x);
        }
        // Pick exclusions among current members only.
        let mut excl: Vec<u64> = excl_picks
            .iter()
            .filter_map(|&p| {
                let len = blocked.len();
                if len == 0 {
                    None
                } else {
                    blocked.select(p as usize % len + 1)
                }
            })
            .collect();
        excl.sort_unstable();
        excl.dedup();
        let a = blocked.select_excluding(&excl, i);
        let b = dense.select_excluding(&excl, i);
        prop_assert_eq!(a, b, "universe={} excl={:?} i={}", universe, &excl, i);
    }

    /// Insert/remove charge symmetry on both bitmap backends, over random
    /// universes (across word and block boundaries), members and ids.
    #[test]
    fn insert_and_remove_charge_symmetrically(
        universe in 1usize..1100,
        picks in prop::collection::vec(any::<u64>(), 0..40),
        id_pick in any::<u64>(),
    ) {
        let u = universe as u64;
        let members: Vec<u64> = picks.iter().map(|&p| p % u + 1).collect();
        let id = id_pick % u + 1;
        check_charge_symmetry::<FenwickSet>(universe, &members, id)?;
        check_charge_symmetry::<DenseFenwickSet>(universe, &members, id)?;
    }
}

/// `FenwickSet` with every method forwarded except
/// [`OrderedJobSet::remove_many`], which keeps the trait's default: the
/// per-id `remove` sequence the override must reproduce.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PerId(FenwickSet);

impl RankedSet for PerId {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn contains(&self, id: u64) -> bool {
        self.0.contains(id)
    }

    fn select(&self, rank: usize) -> Option<u64> {
        self.0.select(rank)
    }

    fn count_le(&self, id: u64) -> usize {
        self.0.count_le(id)
    }

    fn select_excluding(&self, excl: &[u64], i: usize) -> Option<u64> {
        self.0.select_excluding(excl, i)
    }
}

impl OrderedJobSet for PerId {
    fn empty(universe: usize) -> Self {
        PerId(FenwickSet::new(universe))
    }

    fn full(universe: usize) -> Self {
        PerId(FenwickSet::with_all(universe))
    }

    fn universe(&self) -> usize {
        self.0.universe()
    }

    fn insert(&mut self, id: u64) -> bool {
        self.0.insert(id)
    }

    fn remove(&mut self, id: u64) -> bool {
        self.0.remove(id)
    }

    fn ops(&self) -> u64 {
        self.0.ops()
    }
}

/// One run of a `remove_many` batch: ids from `start` on, each `step`
/// (0 to 3) past the previous, so a run repeats ids (`step` 0) and mostly
/// stays inside one or two words, like a `gatherDone` backlog.
#[derive(Debug, Clone)]
struct Run {
    start: Start,
    steps: Vec<u64>,
}

/// Where a [`Run`] starts.
#[derive(Debug, Clone)]
enum Start {
    /// Out of the universe: `0`.
    Zero,
    /// Out of the universe: `n + 1`.
    PastEnd,
    /// `k·width + offset − 2` for a word (64), block (512) or superblock
    /// (2048 at the 4000–4300 universes) width, so the run crosses an edge.
    Edge { width: u64, k: u64, offset: u64 },
    /// Anywhere in `1..=n`.
    Any(u64),
}

/// Where the anchor sits against the word of a chosen batch id.
#[derive(Debug, Clone)]
enum Anchor {
    /// Below the word's first id.
    Below,
    /// At one of the word's 64 ids.
    Inside(u64),
    /// Past the word's last id.
    Above(u64),
}

fn run_strategy() -> impl Strategy<Value = Run> {
    let start = prop_oneof![
        Just(Start::Zero),
        Just(Start::PastEnd),
        (
            prop_oneof![Just(64u64), Just(512), Just(2048)],
            any::<u64>(),
            0u64..5
        )
            .prop_map(|(width, k, offset)| Start::Edge { width, k, offset }),
        any::<u64>().prop_map(Start::Any),
    ];
    (start, prop::collection::vec(0u64..4, 0..24)).prop_map(|(start, steps)| Run { start, steps })
}

fn anchor_strategy() -> impl Strategy<Value = Anchor> {
    prop_oneof![
        Just(Anchor::Below),
        (0u64..64).prop_map(Anchor::Inside),
        (0u64..200).prop_map(Anchor::Above),
    ]
}

/// The batch's ids: every run's ids in order, capped at `n + 1`.
fn batch_ids(universe: u64, runs: &[Run]) -> Vec<u64> {
    let mut ids = Vec::new();
    for run in runs {
        let mut id = match run.start {
            Start::Zero => 0,
            Start::PastEnd => universe + 1,
            Start::Edge { width, k, offset } => {
                ((k % (universe / width + 1)) * width + offset).clamp(2, universe + 2) - 2
            }
            Start::Any(x) => x % universe + 1,
        };
        ids.push(id);
        for &step in &run.steps {
            id = (id + step).min(universe + 1);
            ids.push(id);
        }
    }
    ids
}

/// The anchor for a batch: placed against the word of `ids[pick]`.
fn anchor_for(ids: &[u64], pick: usize, anchor: &Anchor) -> u64 {
    let word_lo = ids
        .get(pick % ids.len().max(1))
        .map_or(0, |&id| id.saturating_sub(1) / 64 * 64);
    match *anchor {
        Anchor::Below => word_lo.saturating_sub(1),
        Anchor::Inside(d) => word_lo + d + 1,
        Anchor::Above(d) => word_lo + 64 + d,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `FenwickSet::remove_many` (word-grouped) against the trait's default
    /// per-id sequence on a clone of the same set, and against
    /// `DenseFenwickSet`, which runs the default: after every batch all
    /// three hold the same members and return the same counts, and the two
    /// `FenwickSet`s have charged the same `ops` and report the same
    /// removal charge. The batches repeat ids within a word, start on
    /// word, block and superblock edges, include the out-of-universe ids 0
    /// and n + 1, and anchor below, inside and above a batch id's word.
    #[test]
    fn remove_many_matches_the_per_id_sequence(
        universe in prop_oneof![1usize..80, 450usize..600, 4000usize..4300],
        holes in prop::collection::vec(any::<u64>(), 0..120),
        batches in prop::collection::vec(
            (prop::collection::vec(run_strategy(), 1..6), any::<usize>(), anchor_strategy()),
            1..6,
        ),
    ) {
        let u = universe as u64;
        let mut grouped = FenwickSet::with_all(universe);
        let mut dense = DenseFenwickSet::full(universe);
        for &h in &holes {
            grouped.remove(h % u + 1);
            OrderedJobSet::remove(&mut dense, h % u + 1);
        }
        let mut model: BTreeSet<u64> = grouped.iter().collect();
        for (runs, pick, anchor) in &batches {
            let ids = batch_ids(u, runs);
            let anchor = anchor_for(&ids, *pick, anchor);
            let mut per_id = PerId(grouped.clone());
            let want_present: BTreeSet<u64> =
                ids.iter().copied().filter(|id| model.contains(id)).collect();
            let want = (
                want_present.len(),
                want_present.iter().filter(|&&id| id <= anchor).count(),
            );
            for id in &want_present {
                model.remove(id);
            }

            let before = grouped.ops();
            let got = grouped.remove_many(&ids, anchor);
            let reference = per_id.remove_many(&ids, anchor);
            let from_dense = dense.remove_many(&ids, anchor);

            prop_assert_eq!(got, reference, "ids {:?} anchor {}", &ids, anchor);
            prop_assert_eq!(grouped.ops(), per_id.ops(), "ops, ids {:?}", &ids);
            prop_assert_eq!(&grouped, &per_id.0);
            prop_assert_eq!((got.present, got.at_or_below_anchor), want);
            prop_assert_eq!(
                (from_dense.present, from_dense.at_or_below_anchor),
                want
            );
            prop_assert_eq!(grouped.len(), model.len());
            prop_assert_eq!(RankedSet::len(&dense), model.len());
            prop_assert!(grouped.iter().eq(model.iter().copied()));
            prop_assert!((1..=u).all(|x| RankedSet::contains(&dense, x) == model.contains(&x)));
            // Each present id charged 2 and each absent one 1.
            prop_assert_eq!(got.ops, 2 * got.present as u64);
            prop_assert_eq!(grouped.ops() - before, (ids.len() + got.present) as u64);
            // The count hierarchy: rank probes read the block and
            // superblock counts the batch decremented.
            for &id in &ids {
                prop_assert_eq!(grouped.count_le(id), model.range(..=id).count());
            }
            let len = model.len();
            for r in [1, len / 2 + 1, len] {
                prop_assert_eq!(grouped.select(r), model.iter().nth(r.wrapping_sub(1)).copied());
            }
        }
    }
}

/// The charge symmetry a derived `DONE` set relies on: a KKβ process whose
/// `FREE` starts full keeps `DONE = J \ FREE` implicit and charges each
/// merge's `DONE` insert as its `FREE` removal's own charge. So, with the
/// two sets complementary, `DONE.insert(id)` must charge exactly what
/// `FREE.remove(id)` does: an absent id's insert as a present id's removal,
/// and a present id's insert as an absent in-universe id's removal.
fn check_charge_symmetry<S: OrderedJobSet>(
    universe: usize,
    members: &[u64],
    id: u64,
) -> Result<(), TestCaseError> {
    fn charge<S: OrderedJobSet>(set: &S, op: impl FnOnce(&mut S) -> bool) -> (bool, u64) {
        let mut set = set.clone();
        let before = set.ops();
        let hit = op(&mut set);
        (hit, set.ops() - before)
    }
    for id_in_free in [true, false] {
        let mut free = S::empty(universe);
        for &x in members {
            free.insert(x);
        }
        if id_in_free {
            free.insert(id);
        } else {
            free.remove(id);
        }
        let mut done = S::full(universe);
        for x in 1..=universe as u64 {
            if free.contains(x) {
                done.remove(x);
            }
        }
        let (inserted, insert_cost) = charge(&done, |d| d.insert(id));
        let (removed, remove_cost) = charge(&free, |f| f.remove(id));
        prop_assert_eq!(inserted, id_in_free, "DONE = J \\ FREE");
        prop_assert_eq!(removed, id_in_free);
        prop_assert_eq!(
            insert_cost,
            remove_cost,
            "universe {} id {} in FREE: {}",
            universe,
            id,
            id_in_free
        );
    }
    Ok(())
}

fn clamp_op(op: Op, universe: u64) -> Op {
    let c = |x: u64| if x == 0 { 0 } else { (x - 1) % universe + 1 };
    match op {
        Op::Insert(x) => Op::Insert(c(x)),
        Op::Remove(x) => Op::Remove(c(x)),
        Op::BurstThenRank(xs) => Op::BurstThenRank(xs.into_iter().map(c).collect()),
        Op::Select(r) => Op::Select(r),
        Op::CountLe(x) => Op::CountLe(c(x)),
        Op::RankExcluding(e, i) => Op::RankExcluding(e.into_iter().map(c).collect(), i),
    }
}

/// Deterministic regression net around block and superblock boundaries:
/// every boundary element inserted/removed with immediate rank probes.
#[test]
fn boundary_elements_agree_exhaustively() {
    let universe = 5000; // spans several 512-blocks and a superblock edge
    let mut t = Triple::new(universe, false);
    let boundaries: Vec<u64> = [
        1u64, 63, 64, 65, 511, 512, 513, 1023, 1024, 1025, 4095, 4096, 4097, 4999, 5000,
    ]
    .into_iter()
    .collect();
    for &b in &boundaries {
        t.insert(b);
        t.select(1);
        t.select(t.model.len());
        t.count_le(b);
        t.observe();
    }
    for &b in &boundaries {
        t.remove(b);
        let len = t.model.len();
        t.select(len);
        t.select(len + 1);
        t.count_le(b);
        t.observe();
    }
}
