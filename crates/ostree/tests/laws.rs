//! Algebraic laws of the order-statistics structures: select/count_le
//! duality, iterator order and extremes.

use amo_ostree::{DenseFenwickSet, FenwickSet, RankedSet};

#[test]
fn select_count_le_duality_fenwick() {
    let s = FenwickSet::with_members(64, (1u64..=64).filter(|x| x % 3 == 1));
    for rank in 1..=s.len() {
        let x = s.select(rank).unwrap();
        assert_eq!(s.count_le(x), rank, "count_le(select(r)) == r");
        assert_eq!(s.rank_of(x), Some(rank));
    }
    for x in 1..=64u64 {
        let c = s.count_le(x);
        if s.contains(x) {
            assert_eq!(s.select(c), Some(x), "select(count_le(x)) == x for members");
        }
    }
}

#[test]
fn iterator_respects_rank_order() {
    let s = FenwickSet::with_members(128, [64u64, 1, 127, 65, 2]);
    let by_iter: Vec<u64> = s.iter().collect();
    let by_select: Vec<u64> = (1..=s.len()).map(|r| s.select(r).unwrap()).collect();
    assert_eq!(by_iter, by_select);
}

#[test]
fn first_last_match_extremes() {
    let mut s = FenwickSet::new(100);
    assert_eq!(s.first(), None);
    for x in [50u64, 10, 90] {
        s.insert(x);
    }
    assert_eq!(s.first(), Some(10));
    assert_eq!(s.last(), Some(90));
    s.remove(10);
    assert_eq!(s.first(), Some(50));
    s.remove(90);
    assert_eq!(s.last(), Some(50));
}

#[test]
fn interleaved_insert_remove_preserves_duality() {
    let mut s = FenwickSet::new(256);
    let mut x = 1u64;
    for round in 0..500u64 {
        x = (x.wrapping_mul(167) + round) % 256 + 1;
        if round % 3 == 0 {
            s.remove(x);
        } else {
            s.insert(x);
        }
        if round % 17 == 0 {
            for rank in [1, s.len() / 2, s.len()] {
                if rank >= 1 && rank <= s.len() {
                    let v = s.select(rank).unwrap();
                    assert_eq!(s.count_le(v), rank);
                }
            }
        }
    }
}

#[test]
fn ranked_set_trait_objects_work() {
    // The trait is object-safe; the KK automaton could hold `dyn RankedSet`.
    let f = FenwickSet::with_all(10);
    let d = DenseFenwickSet::with_all(10);
    let sets: Vec<&dyn RankedSet> = vec![&f, &d];
    for s in sets {
        assert_eq!(s.len(), 10);
        assert_eq!(s.select(5), Some(5));
        assert_eq!(s.count_le(7), 7);
        assert!(!s.is_empty());
    }
}
