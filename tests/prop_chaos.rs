//! Drawn-plan property tests for the chaos surface: every plan drawn from
//! a fully enabled `ChaosSpace` lowers cleanly onto a base spec and
//! round-trips its replay snippet exactly.

use at_most_once::sim::{chaos::KNOWN_ADVERSARIES, ChaosPlan, ChaosSpace, Intensity, ScenarioSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every drawn plan lowers cleanly onto a base spec and
    /// round-trips its replay snippet exactly — across the whole
    /// `(seed, intensity)` plane of a fully-enabled space.
    #[test]
    fn drawn_plans_lower_and_round_trip(
        seed in any::<u64>(),
        tier_ix in 0usize..=2,
    ) {
        let space = ChaosSpace::new(4, 100)
            .with_restarts()
            .with_storage()
            .with_adversaries(KNOWN_ADVERSARIES);
        let plan = ChaosPlan::draw(seed, Intensity::ALL[tier_ix], &space);
        let _ = plan.lower_onto(&ScenarioSpec::round_robin());
        let back = ChaosPlan::parse_replay(&plan.to_replay()).unwrap();
        prop_assert_eq!(plan, back);
    }
}
