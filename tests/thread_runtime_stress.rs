//! Heavier real-thread stress: many repetitions, larger fleets, crash
//! injection — the "multi-core abstraction" motivation of §1 exercised on
//! actual hardware atomics.
//!
//! The sizes make the fleets contend: the large instances keep their
//! threads busy long enough after the start barrier that they overlap, and
//! the small, high-contention instances are repeated hundreds of times. A
//! release build spends about a second in this file on a 2-core host (CI's
//! `fault-matrix` job runs it that way), a debug build under four. No test
//! starts more than its own fleet of `m ≤ 16` threads at once.

use at_most_once::core::{run_threads, KkConfig};
use at_most_once::iterative::IterConfig;
use at_most_once::sim::thread::ThreadSpec;
use at_most_once::sim::CrashPlan;

#[test]
fn repeated_contended_runs_stay_safe() {
    // Small n with large m maximises contention (everyone fights over the
    // same few jobs).
    for round in 0..1500u64 {
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
    for round in 0..400u64 {
        let m = 6;
        let config = KkConfig::new(600, m).unwrap();
        let plan = CrashPlan::at_steps((1..m).map(|p| (p, round * 13 % 1300 + 7 * p as u64)));
        let r = run_threads(&config, &ThreadSpec::new().with_crash_plan(plan));
        assert!(r.violations.is_empty(), "round {round}");
    }
}

#[test]
fn wide_fleet_run() {
    let m = 16;
    let config = KkConfig::new(4096 * m, m).unwrap();
    let r = run_threads(&config, &ThreadSpec::new());
    assert!(r.violations.is_empty());
    assert!(r.completed);
    assert!(r.effectiveness >= config.effectiveness_bound());
}

#[test]
fn iterative_threads_under_contention() {
    use at_most_once::iterative::run_iterative_threads;
    for round in 0..80u64 {
        let config = IterConfig::new(4096, 4, 1).unwrap();
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
    let config = KkConfig::with_beta(1 << 17, m, KkConfig::work_optimal_beta(m)).unwrap();
    let r = run_threads(&config, &ThreadSpec::new());
    assert!(r.violations.is_empty());
    assert!(r.effectiveness >= config.effectiveness_bound());
}
