//! Fast-path equivalence for `IterativeKK(ε)`: the driver forwards batches
//! to the current stage's `KkProcess`, and stage hand-over happens on the
//! same action as under single-stepping — so batched and reference runs
//! must agree report-for-report.

use amo_iterative::{run_iterative_scenario, IterConfig};
use amo_sim::{CrashPlan, ScenarioSpec};
use proptest::prelude::*;

fn assert_reports_eq(config: &IterConfig, base: ScenarioSpec, what: &str) {
    let fast = run_iterative_scenario(config, &base);
    let reference = run_iterative_scenario(config, &base.single_step());
    assert_eq!(
        fast.performed, reference.performed,
        "{what}: performed differ"
    );
    assert_eq!(
        fast.total_steps, reference.total_steps,
        "{what}: total_steps differ"
    );
    assert_eq!(fast.crashed, reference.crashed, "{what}: crashes differ");
    assert_eq!(
        fast.completed, reference.completed,
        "{what}: completion differs"
    );
    assert_eq!(
        fast.mem_work, reference.mem_work,
        "{what}: shared work differs"
    );
    assert_eq!(
        fast.local_work, reference.local_work,
        "{what}: local work differs"
    );
    assert_eq!(
        fast.effectiveness, reference.effectiveness,
        "{what}: effectiveness differs"
    );
}

#[test]
fn batched_round_robin_matches_reference_across_stages() {
    for &(n, m, inv_eps) in &[(60usize, 3usize, 1u32), (100, 4, 2), (150, 5, 1)] {
        let config = IterConfig::new(n, m, inv_eps).expect("valid config");
        assert_reports_eq(
            &config,
            ScenarioSpec::round_robin_batched(),
            &format!("iter n={n} m={m} 1/eps={inv_eps}"),
        );
        for &q in &[2u64, 9, 100] {
            assert_reports_eq(
                &config,
                ScenarioSpec::round_robin().with_quantum(q),
                &format!("iter n={n} m={m} 1/eps={inv_eps} q={q}"),
            );
        }
    }
}

#[test]
fn batched_runs_with_crashes_match_reference() {
    let config = IterConfig::new(80, 4, 1).expect("valid config");
    let plan = CrashPlan::at_steps([(1usize, 30u64), (3, 77)]);
    assert_reports_eq(
        &config,
        ScenarioSpec::round_robin_batched().with_crash_plan(plan.clone()),
        "iter crashes under batched rr",
    );
    assert_reports_eq(
        &config,
        ScenarioSpec::block(5, 17).with_crash_plan(plan),
        "iter crashes under block(5,17)",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random iterated configs and block schedules stay batch-invariant.
    #[test]
    fn random_iter_configs_are_batch_invariant(
        n in 6usize..120,
        m in 2usize..5,
        inv_eps in 1u32..3,
        seed in any::<u64>(),
        burst in 1u64..40,
    ) {
        prop_assume!(n >= m);
        let config = IterConfig::new(n, m, inv_eps).expect("valid");
        let base = ScenarioSpec::block(seed, burst);
        let fast = run_iterative_scenario(&config, &base);
        let reference = run_iterative_scenario(&config, &base.single_step());
        prop_assert_eq!(fast.performed, reference.performed);
        prop_assert_eq!(fast.total_steps, reference.total_steps);
        prop_assert_eq!(fast.mem_work, reference.mem_work);
        prop_assert_eq!(fast.local_work, reference.local_work);
        prop_assert_eq!(fast.effectiveness, reference.effectiveness);
    }
}
