//! Property tests for the comparators: safety under arbitrary schedules and
//! crash plans, plus the closed-form effectiveness predictions.

use amo_baselines::{run_baseline_scenario, AmoBaselineKind, TwoProcess};
use amo_sim::{
    CrashPlan, Engine, EngineLimits, RandomScheduler, ScenarioSpec, VecRegisters, WithCrashes,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The two-process algorithm: at-most-once and effectiveness ≥ n − 1
    /// under any random schedule, crash-free.
    #[test]
    fn two_process_any_schedule(n in 1u64..200, seed in any::<u64>()) {
        let (l, r) = TwoProcess::pair(n);
        let exec = Engine::new(VecRegisters::new(2), vec![l, r], RandomScheduler::new(seed))
            .run(EngineLimits::default());
        prop_assert!(exec.violations().is_empty());
        prop_assert!(exec.effectiveness() >= n - 1, "got {}", exec.effectiveness());
        prop_assert!(exec.completed);
    }

    /// With one crash at an arbitrary point, effectiveness ≥ n − 1 still
    /// (n − f with f = 1).
    #[test]
    fn two_process_one_crash(n in 2u64..150, seed in any::<u64>(), budget in 0u64..400) {
        let victim = 1 + (seed as usize % 2);
        let (l, r) = TwoProcess::pair(n);
        let sched = WithCrashes::new(
            RandomScheduler::new(seed),
            CrashPlan::at_steps([(victim, budget)]),
        );
        let exec = Engine::new(VecRegisters::new(2), vec![l, r], sched)
            .run(EngineLimits::default());
        prop_assert!(exec.violations().is_empty());
        prop_assert!(exec.effectiveness() >= n - 1, "got {}", exec.effectiveness());
    }

    /// TAS at-most-once: effectiveness exactly within [n − f, n] for any
    /// crash placement.
    #[test]
    fn tas_amo_tracks_n_minus_f(
        m in 2usize..=5,
        n_mult in 3usize..=20,
        seed in any::<u64>(),
    ) {
        let n = n_mult * m;
        let plan = CrashPlan::random(m, m - 1, 60, seed);
        let f = plan.crash_count() as u64;
        let r = run_baseline_scenario(
            AmoBaselineKind::TasAmo,
            n,
            m,
            &ScenarioSpec::random(seed).with_crash_plan(plan),
        );
        prop_assert!(r.violations.is_empty());
        prop_assert!(r.effectiveness >= n as u64 - f, "f={f} got {}", r.effectiveness);
        prop_assert!(r.effectiveness <= n as u64);
    }

    /// Trivial split: chunks are disjoint under any schedule, and immediate
    /// crashes cost exactly their chunks.
    #[test]
    fn trivial_split_immediate_crashes(
        m in 1usize..=6,
        n_mult in 1usize..=25,
        f_pick in 0usize..6,
    ) {
        let n = n_mult * m; // divisible: chunks are exactly n/m
        let f = f_pick % m;
        let r = run_baseline_scenario(
            AmoBaselineKind::TrivialSplit,
            n,
            m,
            &ScenarioSpec::round_robin().with_crash_plan(CrashPlan::first_f_immediately(f)),
        );
        prop_assert!(r.violations.is_empty());
        prop_assert_eq!(r.effectiveness, ((m - f) * (n / m)) as u64);
    }

    /// Pairs hybrid stays safe for any m, schedule and crash plan.
    #[test]
    fn pairs_hybrid_safe(
        m in 2usize..=7,
        n_mult in 2usize..=15,
        seed in any::<u64>(),
    ) {
        let n = n_mult * m;
        let plan = CrashPlan::random(m, m - 1, 80, seed);
        let r = run_baseline_scenario(
            AmoBaselineKind::PairsHybrid,
            n,
            m,
            &ScenarioSpec::random(seed).with_crash_plan(plan),
        );
        prop_assert!(r.violations.is_empty());
        prop_assert!(r.completed);
    }
}
