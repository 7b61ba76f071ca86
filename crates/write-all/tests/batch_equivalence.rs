//! Fast-path equivalence for `WA_IterativeKK(ε)`: the batched write loops
//! (`WritingSpan`, `FinalLoop`) must be indistinguishable from
//! single-stepping — same writes, same performs, same certification.

use amo_sim::{CrashPlan, ScenarioSpec};
use amo_write_all::{run_wa_scenario, WaConfig};
use proptest::prelude::*;

fn assert_wa_eq(config: &WaConfig, base: ScenarioSpec, what: &str) {
    let fast = run_wa_scenario(config, &base);
    let reference = run_wa_scenario(config, &base.single_step());
    assert_eq!(
        fast.complete, reference.complete,
        "{what}: completion differs"
    );
    assert_eq!(
        fast.total_steps, reference.total_steps,
        "{what}: total_steps differ"
    );
    assert_eq!(
        fast.mem_work, reference.mem_work,
        "{what}: shared work differs"
    );
    assert_eq!(
        fast.local_work, reference.local_work,
        "{what}: local work differs"
    );
    assert_eq!(fast.crashed, reference.crashed, "{what}: crashes differ");
    assert_eq!(
        fast.certified.missing, reference.certified.missing,
        "{what}: certification"
    );
}

#[test]
fn batched_write_all_matches_reference() {
    for &(n, m) in &[(64usize, 2usize), (200, 4), (333, 3)] {
        let config = WaConfig::new(n, m, 1).expect("valid config");
        assert_wa_eq(
            &config,
            ScenarioSpec::round_robin_batched(),
            &format!("wa n={n} m={m} batched rr"),
        );
        assert_wa_eq(
            &config,
            ScenarioSpec::block(7, 19),
            &format!("wa n={n} m={m} block"),
        );
    }
}

#[test]
fn batched_write_all_with_crashes_matches_reference() {
    let config = WaConfig::new(150, 4, 1).expect("valid config");
    let plan = CrashPlan::at_steps([(2usize, 25u64), (4, 90)]);
    assert_wa_eq(
        &config,
        ScenarioSpec::round_robin_batched().with_crash_plan(plan),
        "wa crashes under batched rr",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random Write-All configs under random quanta stay batch-invariant.
    #[test]
    fn random_wa_configs_are_batch_invariant(
        n in 4usize..250,
        m in 2usize..5,
        quantum in 2u64..200,
    ) {
        prop_assume!(n >= m);
        let config = WaConfig::new(n, m, 1).expect("valid");
        let base = ScenarioSpec::round_robin().with_quantum(quantum);
        let fast = run_wa_scenario(&config, &base);
        let reference = run_wa_scenario(&config, &base.single_step());
        prop_assert_eq!(fast.complete, reference.complete);
        prop_assert_eq!(fast.total_steps, reference.total_steps);
        prop_assert_eq!(fast.mem_work, reference.mem_work);
        prop_assert_eq!(fast.local_work, reference.local_work);
    }
}
