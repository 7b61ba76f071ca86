//! Heavier real-thread stress: many repetitions, larger fleets, crash
//! injection — the "multi-core abstraction" motivation of §1 exercised on
//! actual hardware atomics.

use at_most_once::core::{run_threads, KkConfig};
use at_most_once::iterative::IterConfig;
use at_most_once::sim::thread::ThreadSpec;
use at_most_once::sim::CrashPlan;

#[test]
fn repeated_contended_runs_stay_safe() {
    // Small n with large m maximises contention (everyone fights over the
    // same few jobs).
    for round in 0..15u64 {
        let config = KkConfig::new(32, 8).unwrap();
        let r = run_threads(&config, &ThreadSpec::new());
        assert!(r.violations.is_empty(), "round {round}");
        assert!(
            r.effectiveness >= config.effectiveness_bound(),
            "round {round}"
        );
    }
}

#[test]
fn staggered_crashes_under_contention() {
    for round in 0..10u64 {
        let m = 6;
        let config = KkConfig::new(60, m).unwrap();
        let plan = CrashPlan::at_steps((1..m).map(|p| (p, round * 13 + 7 * p as u64)));
        let r = run_threads(&config, &ThreadSpec::new().with_crash_plan(plan));
        assert!(r.violations.is_empty(), "round {round}");
    }
}

#[test]
fn wide_fleet_run() {
    let m = 16;
    let config = KkConfig::new(64 * m, m).unwrap();
    let r = run_threads(&config, &ThreadSpec::new());
    assert!(r.violations.is_empty());
    assert!(r.completed);
    assert!(r.effectiveness >= config.effectiveness_bound());
}

#[test]
fn iterative_threads_under_contention() {
    use at_most_once::iterative::run_iterative_threads;
    for round in 0..5u64 {
        let config = IterConfig::new(512, 4, 1).unwrap();
        let plan = CrashPlan::at_steps([(1usize, round * 50 + 20)]);
        let r = run_iterative_threads(&config, &ThreadSpec::new().with_crash_plan(plan));
        assert!(r.violations.is_empty(), "round {round}");
        assert!(
            r.effectiveness >= config.effectiveness_floor(),
            "round {round}"
        );
    }
}

#[test]
fn work_optimal_beta_on_threads() {
    let m = 4;
    let config = KkConfig::with_beta(2048, m, KkConfig::work_optimal_beta(m)).unwrap();
    let r = run_threads(&config, &ThreadSpec::new());
    assert!(r.violations.is_empty());
    assert!(r.effectiveness >= config.effectiveness_bound());
}
