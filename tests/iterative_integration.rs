//! IterativeKK(ε) end-to-end through the umbrella crate: Theorem 6.3
//! (safety) and the Theorem 6.4 shapes (loss and work).

use at_most_once::iterative::{
    run_iterative_scenario, run_iterative_threads, stage_sizes, IterConfig,
};
use at_most_once::sim::thread::ThreadSpec;
use at_most_once::sim::{CrashPlan, ScenarioSpec};

#[test]
fn iterative_safe_on_threads_and_simulator() {
    let config = IterConfig::new(2_000, 4, 1).unwrap();
    let sim = run_iterative_scenario(&config, &ScenarioSpec::random(5));
    let thr = run_iterative_threads(&config, &ThreadSpec::new());
    for r in [&sim, &thr] {
        assert!(r.violations.is_empty());
        assert!(r.completed);
        assert!(r.effectiveness >= config.effectiveness_floor());
    }
}

#[test]
fn loss_shrinks_relative_to_n() {
    // Theorem 6.4's effectiveness: loss is O(m² log n log m), so the
    // *fraction* lost must fall as n grows at fixed m.
    let small = IterConfig::new(1 << 11, 4, 1).unwrap();
    let large = IterConfig::new(1 << 15, 4, 1).unwrap();
    let frac = |config: &IterConfig| {
        let r = run_iterative_scenario(config, &ScenarioSpec::random(9));
        assert!(r.violations.is_empty());
        (config.n() as u64 - r.effectiveness) as f64 / config.n() as f64
    };
    let fs = frac(&small);
    let fl = frac(&large);
    assert!(fl <= fs, "loss fraction must not grow with n: {fs} -> {fl}");
}

#[test]
fn work_per_job_flattens() {
    // Theorem 6.4's work optimality at fixed small m: work/n decreasing.
    let m = 2;
    let work_per_job = |n: usize| {
        let config = IterConfig::new(n, m, 1).unwrap();
        let r = run_iterative_scenario(&config, &ScenarioSpec::round_robin());
        r.work() as f64 / n as f64
    };
    let w_small = work_per_job(1 << 11);
    let w_large = work_per_job(1 << 15);
    assert!(
        w_large <= w_small,
        "work per job must flatten: {w_small} -> {w_large}"
    );
}

#[test]
fn stage_schedule_matches_figure_3_shape() {
    // 3 + 1/ε granularities in the paper; after power-of-two rounding and
    // dedup we must still see: coarse first, strictly finer after, ending
    // at single jobs.
    let sizes = stage_sizes(1 << 16, 8, 2);
    assert!(sizes.len() >= 2);
    assert_eq!(*sizes.last().unwrap(), 1);
    assert!(sizes.windows(2).all(|w| w[0] > w[1]));
}

#[test]
fn iterative_with_maximal_crashes() {
    let config = IterConfig::new(1_500, 3, 2).unwrap();
    let plan = CrashPlan::at_steps([(1usize, 200u64), (2, 900)]);
    let r = run_iterative_scenario(&config, &ScenarioSpec::random(13).with_crash_plan(plan));
    assert!(r.violations.is_empty());
    assert_eq!(r.crashed, vec![1, 2]);
    assert!(r.effectiveness >= config.effectiveness_floor());
}
