//! Property tests for IterativeKK(ε): at-most-once at *job* granularity,
//! effectiveness floor, wait-freedom, reproducibility.

use amo_iterative::{
    block_count, block_span, map_blocks, run_iterative_scenario, stage_sizes, IterConfig,
};
use amo_ostree::FenwickSet;
use amo_sim::{CrashPlan, ScenarioSpec};
use proptest::prelude::*;

fn instance() -> impl Strategy<Value = (usize, usize, u32)> {
    (1usize..=4).prop_flat_map(|m| ((8 * m)..=600usize, Just(m), 1u32..=3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 6.3: IterativeKK solves the at-most-once problem, under
    /// random schedules and crash plans.
    #[test]
    fn iterative_safe_and_effective(
        (n, m, inv_eps) in instance(),
        seed in any::<u64>(),
        f_pick in 0usize..4,
    ) {
        let config = IterConfig::new(n, m, inv_eps).unwrap();
        let f = f_pick % m;
        let plan = CrashPlan::at_steps((1..=f).map(|p| (p, (seed % 977) * p as u64)));
        let report = run_iterative_scenario(
            &config,
            &ScenarioSpec::random(seed).with_crash_plan(plan),
        );
        prop_assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
        prop_assert!(report.completed, "wait-freedom violated");
        prop_assert!(
            report.effectiveness >= config.effectiveness_floor(),
            "effectiveness {} < floor {} (n={n} m={m} 1/eps={inv_eps})",
            report.effectiveness,
            config.effectiveness_floor()
        );
        prop_assert!(report.effectiveness <= n as u64);
    }

    /// Runs are reproducible for a fixed seed.
    #[test]
    fn iterative_reproducible((n, m, inv_eps) in instance(), seed in any::<u64>()) {
        let config = IterConfig::new(n, m, inv_eps).unwrap();
        let a = run_iterative_scenario(&config, &ScenarioSpec::random(seed));
        let b = run_iterative_scenario(&config, &ScenarioSpec::random(seed));
        prop_assert_eq!(&a.performed, &b.performed);
        prop_assert_eq!(a.work(), b.work());
    }

    /// map() preserves the covered job set exactly, for arbitrary nesting
    /// sizes and arbitrary subsets.
    #[test]
    fn map_preserves_jobs(
        n in 1u64..5_000,
        size1_exp in 0u32..10,
        size2_exp in 0u32..10,
        seed in any::<u64>(),
    ) {
        let (hi, lo) = if size1_exp >= size2_exp { (size1_exp, size2_exp) } else { (size2_exp, size1_exp) };
        let size1 = 1u64 << hi;
        let size2 = 1u64 << lo;
        let count1 = block_count(n, size1) as usize;
        prop_assume!(count1 >= 1);
        // Pseudorandom subset of blocks.
        let members: Vec<u64> = (1..=count1 as u64)
            .filter(|k| (k.wrapping_mul(0x9E3779B97F4A7C15) ^ seed).count_ones() % 3 == 0)
            .collect();
        let set = FenwickSet::with_members(count1, members);
        let out = map_blocks(&set, size1, size2, n);
        let jobs = |s: &FenwickSet, size: u64| -> Vec<u64> {
            s.iter().flat_map(|k| block_span(k, size, n).jobs()).collect()
        };
        prop_assert_eq!(jobs(&set, size1), jobs(&out, size2));
    }

    /// Stage schedules are valid for any instance shape.
    #[test]
    fn schedule_always_valid(n in 1usize..1_000_000, m in 1usize..=128, e in 1u32..=5) {
        let s = stage_sizes(n, m, e);
        prop_assert_eq!(*s.last().unwrap(), 1);
        prop_assert!(s.iter().all(|x| x.is_power_of_two()));
        prop_assert!(s.windows(2).all(|w| w[0] > w[1] && w[0] % w[1] == 0));
    }

    /// Bursty schedules preserve safety.
    #[test]
    fn iterative_block_schedule_safe(
        (n, m, inv_eps) in instance(),
        seed in any::<u64>(),
        burst in 1u64..128,
    ) {
        let config = IterConfig::new(n, m, inv_eps).unwrap();
        let report = run_iterative_scenario(&config, &ScenarioSpec::block(seed, burst));
        prop_assert!(report.violations.is_empty());
        prop_assert!(report.effectiveness >= config.effectiveness_floor());
    }
}
