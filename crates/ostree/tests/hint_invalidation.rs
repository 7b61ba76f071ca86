//! Hint-invalidation property suite: `select_excluding_hinted` must return
//! exactly what the unhinted walk returns, under every event that can
//! happen to a hint between two selections.
//!
//! The driver maintains a hint the way `KkProcess` does between `compNext`
//! cycles:
//!
//! * a hinted selection **re-anchors** the hint on its result (rank in the
//!   full set = rank in `set \ excl` plus the exclusions below the result);
//! * *every* removal repairs the rank — own performs and foreign `DONE`
//!   merges alike identify the removed element, and the anchor is a prefix
//!   anchor, so the hint even survives the removal of the anchored element
//!   itself;
//! * an insertion repairs the rank (not a `KkProcess` event — `FREE` only
//!   shrinks — but the invariant is structural, so it is pinned here too);
//! * a *drop* (a caller that cannot attribute a mutation must discard the
//!   hint) forces the next selection back through the unhinted walk;
//! * a *rebuild* (fresh allocation with identical contents — the
//!   snapshot-restore analogue) keeps the hint: validity
//!   depends only on the set's contents, not the allocation's identity.
//!
//! Every hinted result is compared against the blocked backend's unhinted
//! walk, the per-element [`DenseFenwickSet`] oracle, and a naive scan of a
//! `BTreeSet` model. Debug builds additionally assert the hint-anchor
//! invariant inside both backends on every hinted call.

use amo_ostree::{DenseFenwickSet, FenwickSet, RankedSet, SelectHint};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum Ev {
    /// Removal attributed to the hint's owner: hint kept, rank repaired.
    OwnRemove(u64),
    /// Removal attributed to another process (a foreign `DONE` merge):
    /// identical repair — the element is in hand either way.
    ForeignRemove(u64),
    /// Insertion: hint kept, rank repaired.
    Insert(u64),
    /// Hinted selection probing rank `i` with an exclusion sample.
    Hinted(Vec<u64>, usize),
    /// Unattributable mutation: the caller must discard the hint.
    DropHint,
    /// Fresh structure with identical contents (a restore).
    Rebuild,
}

fn ev_strategy(universe: u64) -> impl Strategy<Value = Ev> {
    prop_oneof![
        (1..=universe).prop_map(Ev::OwnRemove),
        (1..=universe).prop_map(Ev::ForeignRemove),
        (1..=universe).prop_map(Ev::Insert),
        (
            prop::collection::vec(1..=universe, 0..6),
            0..(universe as usize + 2)
        )
            .prop_map(|(e, i)| Ev::Hinted(e, i)),
        Just(Ev::DropHint),
        Just(Ev::Rebuild),
    ]
}

struct Driver {
    universe: usize,
    blocked: FenwickSet,
    dense: DenseFenwickSet,
    model: BTreeSet<u64>,
    hint: Option<SelectHint>,
}

impl Driver {
    fn new(universe: usize) -> Self {
        Self {
            universe,
            blocked: FenwickSet::with_all(universe),
            dense: DenseFenwickSet::with_all(universe),
            model: (1..=universe as u64).collect(),
            hint: None,
        }
    }

    fn remove(&mut self, v: u64, _own: bool) {
        let was = self.model.remove(&v);
        assert_eq!(self.blocked.remove(v), was);
        assert_eq!(self.dense.remove(v), was);
        if !was {
            return;
        }
        // Own and foreign removals repair identically: validity needs the
        // removed element, not its attribution.
        if let Some(h) = &mut self.hint {
            if v <= h.anchor {
                h.rank -= 1;
            }
        }
    }

    fn insert(&mut self, v: u64) {
        let new = self.model.insert(v);
        assert_eq!(self.blocked.insert(v), new);
        assert_eq!(self.dense.insert(v), new);
        if new {
            if let Some(h) = &mut self.hint {
                if v <= h.anchor {
                    h.rank += 1;
                }
            }
        }
    }

    fn hinted_select(&mut self, raw_excl: &[u64], i: usize) {
        // Member-only, sorted, deduped — the compNext contract.
        let mut excl: Vec<u64> = raw_excl
            .iter()
            .copied()
            .filter(|v| self.model.contains(v))
            .collect();
        excl.sort_unstable();
        excl.dedup();
        let hinted = self.blocked.select_excluding_hinted(&excl, i, self.hint);
        let unhinted = self.blocked.select_excluding(&excl, i);
        let oracle = self.dense.select_excluding_hinted(&excl, i, self.hint);
        let naive = self
            .model
            .iter()
            .copied()
            .filter(|v| !excl.contains(v))
            .nth(i.wrapping_sub(1));
        assert_eq!(
            hinted, unhinted,
            "hinted != unhinted (i={i}, hint={:?})",
            self.hint
        );
        assert_eq!(hinted, oracle, "blocked != dense oracle (i={i})");
        assert_eq!(hinted, naive, "backends != naive model (i={i})");
        if let Some(picked) = hinted {
            let below = excl.partition_point(|&e| e <= picked);
            self.hint = Some(SelectHint {
                anchor: picked,
                rank: i + below,
            });
        }
    }

    fn rebuild(&mut self) {
        // Fresh allocations with identical contents: the hint stays valid —
        // its invariant is about contents, not allocation identity.
        self.blocked = FenwickSet::with_members(self.universe, self.model.iter().copied());
        self.dense = DenseFenwickSet::with_members(self.universe, self.model.iter().copied());
    }

    fn apply(&mut self, ev: &Ev) {
        match ev {
            Ev::OwnRemove(v) => self.remove(*v, true),
            Ev::ForeignRemove(v) => self.remove(*v, false),
            Ev::Insert(v) => self.insert(*v),
            Ev::Hinted(excl, i) => self.hinted_select(excl, *i),
            Ev::DropHint => self.hint = None,
            Ev::Rebuild => self.rebuild(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Small universes: word and block boundaries, dense exclusion overlap.
    #[test]
    fn hinted_equals_unhinted_small(
        universe in 1usize..130,
        evs in prop::collection::vec(ev_strategy(128), 1..80),
    ) {
        let mut d = Driver::new(universe);
        for ev in &evs {
            let ev = clamp(ev, universe as u64);
            d.apply(&ev);
        }
    }

    /// Universes crossing the 512-element block boundary, with interleaved
    /// foreign invalidations and rebuilds.
    #[test]
    fn hinted_equals_unhinted_across_blocks(
        evs in prop::collection::vec(ev_strategy(1500), 1..60),
    ) {
        let mut d = Driver::new(1500);
        for ev in &evs {
            d.apply(ev);
        }
    }
}

fn clamp(ev: &Ev, universe: u64) -> Ev {
    let c = |v: u64| (v - 1) % universe + 1;
    match ev {
        Ev::OwnRemove(v) => Ev::OwnRemove(c(*v)),
        Ev::ForeignRemove(v) => Ev::ForeignRemove(c(*v)),
        Ev::Insert(v) => Ev::Insert(c(*v)),
        Ev::Hinted(e, i) => Ev::Hinted(
            e.iter().map(|&v| c(v)).collect(),
            *i % (universe as usize + 2),
        ),
        Ev::DropHint => Ev::DropHint,
        Ev::Rebuild => Ev::Rebuild,
    }
}

/// Deterministic stress at superblock scale: the walk must take chunked
/// superblock skips (universe 100k → 196 blocks, superblock width 16
/// blocks) and still agree with the oracle when successive targets jump
/// across the whole structure — the uniform-pick-rule regime — while own
/// and foreign removals interleave.
#[test]
fn far_jumps_take_superblock_skips_and_agree() {
    let universe = 100_000usize;
    let mut d = Driver::new(universe);
    let mut state = 0xDEAD_BEEFu64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..4000 {
        let r = rng();
        match r % 10 {
            0..=3 => {
                let live = d.model.len();
                if live > 1 {
                    let i = (rng() as usize % live) + 1;
                    let excl: Vec<u64> = (0..(rng() % 4))
                        .map(|_| rng() % universe as u64 + 1)
                        .collect();
                    let i = i.min(live.saturating_sub(excl.len()));
                    if i >= 1 {
                        d.hinted_select(&excl, i);
                    }
                }
            }
            4..=6 => d.remove(rng() % universe as u64 + 1, true),
            7..=8 => d.remove(rng() % universe as u64 + 1, false),
            _ => {
                if round % 97 == 0 {
                    d.rebuild();
                } else {
                    d.insert(rng() % universe as u64 + 1);
                }
            }
        }
    }
}

/// The hint survives the removal of its own anchor (prefix-anchor
/// semantics): repairing the rank and re-probing must still agree.
#[test]
fn anchor_removal_keeps_a_repairable_hint() {
    let mut d = Driver::new(2048);
    d.hinted_select(&[], 1000); // anchors on element 1000
    let anchor = d.hint.expect("hint set").anchor;
    d.remove(anchor, true); // own perform removes the anchor itself
    assert!(d.hint.is_some(), "own removal keeps the hint");
    for i in [1usize, 500, 999, 1500, 2047] {
        d.hinted_select(&[], i);
    }
}

/// Foreign removals repair the hint just like own ones — the hinted
/// selection after a burst of foreign merges below, above and at the
/// anchor still agrees with every oracle.
#[test]
fn foreign_removals_keep_a_repairable_hint() {
    let mut d = Driver::new(1024);
    d.hinted_select(&[], 512);
    let anchor = d.hint.expect("hint set").anchor;
    d.remove(17, false); // below the anchor
    d.remove(900, false); // above the anchor
    d.remove(anchor, false); // the anchor itself
    assert!(d.hint.is_some(), "foreign merges repair, not drop");
    d.hinted_select(&[3, 700], 400);
    assert!(d.hint.is_some(), "selection re-anchors");
}
