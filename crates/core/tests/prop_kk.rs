//! Property tests for KKβ over random instances, schedules and crash plans.

use amo_core::{run_scenario_simulated, KkConfig};
use amo_sim::{CrashPlan, ScenarioSpec};
use proptest::prelude::*;

/// Strategy: a valid (n, m, beta) triple.
fn instance() -> impl Strategy<Value = (usize, usize, u64)> {
    (1usize..=6).prop_flat_map(|m| {
        let lo = (2 * m).max(m + 1);
        (lo..=60usize, Just(m))
            .prop_flat_map(move |(n, m)| (Just(n), Just(m), m as u64..=(3 * m * m) as u64))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lemma 4.1 + Theorem 4.4 under random schedules and crashes.
    #[test]
    fn random_schedules_safe_and_effective(
        (n, m, beta) in instance(),
        seed in any::<u64>(),
        plan_seed in 0usize..8,
    ) {
        let config = KkConfig::with_beta(n, m, beta).unwrap();
        // Derive a crash plan deterministically from plan_seed.
        let f = plan_seed % m;
        let plan = CrashPlan::at_steps((1..=f).map(|p| (p, (plan_seed * 37 + p * 11) as u64)));
        let report = run_scenario_simulated(
            &config,
            &ScenarioSpec::random(seed).with_crash_plan(plan),
        );
        prop_assert!(report.violations.is_empty(), "at-most-once violated: {:?}", report.violations);
        prop_assert!(report.completed, "wait-freedom violated (step cap hit)");
        prop_assert!(
            report.effectiveness >= config.effectiveness_bound(),
            "effectiveness {} < bound {}",
            report.effectiveness,
            config.effectiveness_bound()
        );
        prop_assert!(report.effectiveness <= n as u64);
    }

    /// The same instance is deterministic under the same seed.
    #[test]
    fn simulation_is_reproducible((n, m, beta) in instance(), seed in any::<u64>()) {
        let config = KkConfig::with_beta(n, m, beta).unwrap();
        let a = run_scenario_simulated(&config, &ScenarioSpec::random(seed));
        let b = run_scenario_simulated(&config, &ScenarioSpec::random(seed));
        prop_assert_eq!(&a.performed, &b.performed);
        prop_assert_eq!(a.total_steps, b.total_steps);
        prop_assert_eq!(a.work(), b.work());
    }

    /// Bursty adversarial schedules stay safe.
    #[test]
    fn block_schedules_safe(
        (n, m, beta) in instance(),
        seed in any::<u64>(),
        burst in 1u64..64,
    ) {
        let config = KkConfig::with_beta(n, m, beta).unwrap();
        let report = run_scenario_simulated(&config, &ScenarioSpec::block(seed, burst));
        prop_assert!(report.violations.is_empty());
        prop_assert!(report.effectiveness >= config.effectiveness_bound());
    }

    /// The Theorem 4.4 adversary achieves the bound exactly whenever its
    /// preconditions hold: n ≥ 2m − 1 (distinct first picks) and
    /// n ≥ β + m − 1 (the bound does not saturate; the survivor's first
    /// cycle, which runs with an empty TRY set, already lies past the
    /// stopping window otherwise).
    #[test]
    fn stuck_adversary_exact((n, m, beta) in instance()) {
        prop_assume!(n >= 2 * m - 1);
        prop_assume!(n as u64 >= beta + m as u64 - 1);
        let config = KkConfig::with_beta(n, m, beta).unwrap();
        let report = run_scenario_simulated(&config, &ScenarioSpec::adversary("stuck-announcement"));
        prop_assert!(report.violations.is_empty());
        prop_assert_eq!(report.effectiveness, config.effectiveness_bound());
    }

    /// Crashing f processes can never push effectiveness above n − 0 nor
    /// below the Theorem 4.4 bound; with zero crashes and a fair schedule,
    /// everything but the final β + m − 2 window is performed.
    #[test]
    fn no_crash_round_robin_effectiveness((n, m, beta) in instance()) {
        let config = KkConfig::with_beta(n, m, beta).unwrap();
        let report = run_scenario_simulated(&config, &ScenarioSpec::round_robin());
        prop_assert!(report.crashed.is_empty());
        prop_assert!(report.effectiveness >= config.effectiveness_bound());
    }
}

mod crash_plan_props {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary crash plans (f ≤ m − 1) preserve safety and the bound.
        #[test]
        fn arbitrary_crash_plans_safe(
            m in 2usize..=5,
            seed in any::<u64>(),
            budgets in prop::collection::vec(0u64..300, 1..5),
        ) {
            let n = 12 * m;
            let config = KkConfig::new(n, m).unwrap();
            let plan = crash_plan_from(m, &budgets);
            let report = run_scenario_simulated(
                &config,
                &ScenarioSpec::random(seed).with_crash_plan(plan),
            );
            prop_assert!(report.violations.is_empty());
            prop_assert!(report.effectiveness >= config.effectiveness_bound());
        }
    }

    fn crash_plan_from(m: usize, budgets: &[u64]) -> CrashPlan {
        CrashPlan::at_steps(
            budgets
                .iter()
                .take(m - 1)
                .enumerate()
                .map(|(i, &b)| (i + 1, b)),
        )
    }

    #[test]
    fn helper_caps_crashes() {
        let plan = crash_plan_from(3, &[1, 2, 3, 4]);
        assert_eq!(plan.crash_count(), 2);
    }
}
