//! Property tests: the production order-statistics structure against a
//! naive model. (`DenseFenwickSet` is driven against the same kind of model,
//! and against `FenwickSet`, by `backend_equivalence.rs`.)

use amo_ostree::{rank_excluding, FenwickSet};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
    Contains(u64),
    Select(usize),
    CountLe(u64),
}

fn op_strategy(universe: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (1..=universe).prop_map(Op::Insert),
        (1..=universe).prop_map(Op::Remove),
        (1..=universe).prop_map(Op::Contains),
        (0..(universe as usize + 2)).prop_map(Op::Select),
        (0..=universe + 1).prop_map(Op::CountLe),
    ]
}

/// Applies `ops` to a set and a `BTreeSet` model, checking agreement.
fn check_against_model(ops: &[Op], s: &mut FenwickSet) {
    let mut model = BTreeSet::new();
    for op in ops {
        match *op {
            Op::Insert(x) => {
                assert_eq!(s.insert(x), model.insert(x), "insert {x}");
            }
            Op::Remove(x) => {
                assert_eq!(s.remove(x), model.remove(&x), "remove {x}");
            }
            Op::Contains(x) => {
                assert_eq!(s.contains(x), model.contains(&x), "contains {x}");
            }
            Op::Select(r) => {
                let want = model.iter().nth(r.wrapping_sub(1)).copied();
                let want = if r == 0 { None } else { want };
                assert_eq!(s.select(r), want, "select {r}");
            }
            Op::CountLe(x) => {
                let want = model.range(..=x).count();
                assert_eq!(s.count_le(x), want, "count_le {x}");
            }
        }
        assert_eq!(s.len(), model.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fenwick_matches_model(ops in prop::collection::vec(op_strategy(200), 0..300)) {
        check_against_model(&ops, &mut FenwickSet::new(200));
    }

    #[test]
    fn rank_excluding_matches_naive(
        members in prop::collection::btree_set(1u64..=96, 0..96),
        excl in prop::collection::btree_set(1u64..=96, 0..12),
        i in 0usize..100,
    ) {
        let f = FenwickSet::with_members(96, members.iter().copied());
        let excl: Vec<u64> = excl.into_iter().collect();
        let naive = members.iter().copied()
            .filter(|x| !excl.contains(x))
            .nth(i.wrapping_sub(1));
        let naive = if i == 0 { None } else { naive };
        prop_assert_eq!(rank_excluding(&f, &excl, i), naive);
    }

    #[test]
    fn with_all_equals_inserting_everything(n in 0usize..150) {
        let a = FenwickSet::with_all(n);
        let b = FenwickSet::with_members(n, 1..=n as u64);
        prop_assert_eq!(a, b);
    }
}
