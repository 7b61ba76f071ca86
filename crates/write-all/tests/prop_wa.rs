//! Property tests: WA_IterativeKK completes the Write-All array under every
//! tested schedule and crash pattern (Theorem 7.1's correctness half), and
//! the crash-tolerant baselines do too.

use amo_sim::{CrashPlan, ScenarioSpec};
use amo_write_all::{run_baseline_scenario, run_wa_scenario, WaBaselineKind, WaConfig};
use proptest::prelude::*;

fn instance() -> impl Strategy<Value = (usize, usize, u32)> {
    (1usize..=4).prop_flat_map(|m| ((8 * m)..=400usize, Just(m), 1u32..=2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Theorem 7.1: WA_IterativeKK solves Write-All under crashes.
    #[test]
    fn wa_completes_under_crashes(
        (n, m, inv_eps) in instance(),
        seed in any::<u64>(),
        f_pick in 0usize..4,
    ) {
        let config = WaConfig::new(n, m, inv_eps).unwrap();
        let f = f_pick % m;
        let plan = CrashPlan::at_steps((1..=f).map(|p| (p, (seed % 499) * p as u64)));
        let report = run_wa_scenario(
            &config,
            &ScenarioSpec::random(seed).with_crash_plan(plan),
        );
        prop_assert!(report.completed, "survivors must terminate");
        prop_assert!(
            report.complete,
            "incomplete: missing {:?} (n={n} m={m})",
            report.certified.missing
        );
        prop_assert!(report.redundancy() >= 1.0);
    }

    /// The permutation-scan baseline is also crash-tolerant.
    #[test]
    fn perm_scan_completes_under_crashes(
        n in 4usize..200,
        m in 2usize..=4,
        seed in any::<u64>(),
    ) {
        let plan = CrashPlan::at_steps((1..m).map(|p| (p, seed % 97 * p as u64)));
        let report = run_baseline_scenario(
            WaBaselineKind::PermutationScan(seed),
            n,
            m,
            &ScenarioSpec::random(seed).with_crash_plan(plan),
        );
        prop_assert!(report.complete);
    }

    /// Static partition completes iff nobody crashes before finishing.
    #[test]
    fn static_partition_no_crash_completes(n in 4usize..200, m in 1usize..=4) {
        let report = run_baseline_scenario(
            WaBaselineKind::StaticPartition,
            n,
            m,
            &ScenarioSpec::round_robin(),
        );
        prop_assert!(report.complete);
        prop_assert_eq!(report.mem_work.writes, n as u64);
    }

    /// An immediate crash of a partition owner always breaks it (for m ≥ 2
    /// and chunks that are non-empty).
    #[test]
    fn static_partition_crash_breaks(n in 8usize..200, m in 2usize..=4) {
        prop_assume!(n >= m); // every chunk non-empty
        let report = run_baseline_scenario(
            WaBaselineKind::StaticPartition,
            n,
            m,
            &ScenarioSpec::round_robin().with_crash_plan(CrashPlan::at_steps([(1usize, 0u64)])),
        );
        prop_assert!(!report.complete);
    }

    /// WA runs are reproducible.
    #[test]
    fn wa_reproducible((n, m, inv_eps) in instance(), seed in any::<u64>()) {
        let config = WaConfig::new(n, m, inv_eps).unwrap();
        let a = run_wa_scenario(&config, &ScenarioSpec::random(seed));
        let b = run_wa_scenario(&config, &ScenarioSpec::random(seed));
        prop_assert_eq!(a.total_steps, b.total_steps);
        prop_assert_eq!(a.mem_work, b.mem_work);
    }
}
