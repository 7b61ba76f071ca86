//! The §1 effectiveness ordering, as an acceptance test (experiment E6's
//! claim, independent of the harness).

use at_most_once::baselines::{run_baseline_scenario, AmoBaselineKind};
use at_most_once::core::{run_scenario_simulated, KkConfig};
use at_most_once::sim::{CrashPlan, ScenarioSpec};

/// Worst-case KKβ beats worst-case trivial split and pairs hybrid for every
/// m > 2 tested, and sits within additive m of the TAS ceiling.
#[test]
fn effectiveness_ordering_holds() {
    let n = 1200;
    for m in [4usize, 6, 8, 12] {
        let f = m - 1;
        let config = KkConfig::new(n, m).unwrap();
        let kk = run_scenario_simulated(&config, &ScenarioSpec::adversary("stuck-announcement"))
            .effectiveness;

        let trivial = run_baseline_scenario(
            AmoBaselineKind::TrivialSplit,
            n,
            m,
            &ScenarioSpec::round_robin().with_crash_plan(CrashPlan::first_f_immediately(f)),
        )
        .effectiveness;

        let pairs = run_baseline_scenario(
            AmoBaselineKind::PairsHybrid,
            n,
            m,
            &ScenarioSpec::round_robin().with_crash_plan(CrashPlan::first_f_immediately(f)),
        )
        .effectiveness;

        let tas = run_baseline_scenario(
            AmoBaselineKind::TasAmo,
            n,
            m,
            &ScenarioSpec::round_robin()
                .with_crash_plan(CrashPlan::at_steps((1..=f).map(|p| (p, 1u64)))),
        )
        .effectiveness;

        assert!(kk > trivial, "m={m}: kk {kk} vs trivial {trivial}");
        assert!(kk > pairs, "m={m}: kk {kk} vs pairs {pairs}");
        assert!(tas >= kk, "m={m}: RMW ceiling");
        assert!(tas - kk <= m as u64, "m={m}: nearly-optimal gap");
    }
}

/// All comparators maintain at-most-once under a shared random stress.
#[test]
fn comparators_are_all_safe() {
    for seed in 0..5u64 {
        for kind in [
            AmoBaselineKind::TrivialSplit,
            AmoBaselineKind::PairsHybrid,
            AmoBaselineKind::TasAmo,
            AmoBaselineKind::RandomizedKk(seed),
        ] {
            let plan = CrashPlan::at_steps([(1usize, seed * 11), (2, seed * 23 + 5)]);
            let r = run_baseline_scenario(
                kind,
                240,
                4,
                &ScenarioSpec::random(seed).with_crash_plan(plan),
            );
            assert!(r.violations.is_empty(), "{} seed {seed}", kind.label());
        }
    }
}

/// The two-process building block is optimal at m = 2 and KKβ matches its
/// class: both lose O(1) jobs crash-free.
#[test]
fn two_process_vs_kk_at_m2() {
    let n = 400;
    let two = run_baseline_scenario(
        AmoBaselineKind::TwoProcess,
        n,
        2,
        &ScenarioSpec::round_robin(),
    );
    assert!(two.effectiveness >= n as u64 - 1);

    let config = KkConfig::new(n, 2).unwrap();
    let kk = run_scenario_simulated(&config, &ScenarioSpec::round_robin());
    assert!(kk.effectiveness >= config.effectiveness_bound()); // n − 2
}
