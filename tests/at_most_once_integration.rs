//! Cross-crate integration: the full public API surface, end to end.
//!
//! The two real-thread tests are sized to contend, like
//! `thread_runtime_stress.rs`: their fleets run for milliseconds after the
//! start barrier, so the threads overlap, and each repeats for several
//! rounds. A release build spends about 0.3 s in this file on a 2-core
//! host, a debug build about 2 s. No test starts more than its own fleet
//! of `m ≤ 7` threads at once.

use at_most_once::core::{run_scenario_simulated, run_threads, KkConfig};
use at_most_once::sim::thread::ThreadSpec;
use at_most_once::sim::{CrashPlan, ScenarioSpec};

#[test]
fn simulated_and_threaded_agree_on_guarantees() {
    let n = 20_000;
    let config = KkConfig::new(n, 5).unwrap();
    let sim = run_scenario_simulated(&config, &ScenarioSpec::random(1));
    for round in 0..10 {
        let thr = run_threads(&config, &ThreadSpec::new());
        for r in [&sim, &thr] {
            assert!(r.violations.is_empty(), "round {round}");
            assert!(r.completed, "round {round}");
            assert!(
                r.effectiveness >= config.effectiveness_bound(),
                "round {round}"
            );
            assert!(r.effectiveness <= n as u64, "round {round}");
        }
    }
}

#[test]
fn every_scheduler_kind_is_safe() {
    let config = KkConfig::new(90, 3).unwrap();
    for spec in [
        ScenarioSpec::round_robin(),
        ScenarioSpec::random(7),
        ScenarioSpec::block(7, 16),
        ScenarioSpec::adversary("lockstep"),
        ScenarioSpec::adversary("stuck-announcement"),
    ] {
        let r = run_scenario_simulated(&config, &spec);
        assert!(r.violations.is_empty(), "{}", r.scheduler_label);
        assert!(
            r.effectiveness >= config.effectiveness_bound(),
            "{}",
            r.scheduler_label
        );
    }
}

#[test]
fn crash_heavy_thread_runs_stay_safe() {
    for seed in 0..40u64 {
        let m = 2 + (seed as usize % 6);
        let config = KkConfig::new(2_000 * m, m).unwrap();
        // A process of this fleet takes about 6000·m + 8000 actions, so
        // budgets below 6000·m crash it early, mid-run or near its end.
        let horizon = 6_000 * m as u64;
        let plan =
            CrashPlan::at_steps((1..m).map(|p| (p, (seed * 7_919 + 3_571 * p as u64) % horizon)));
        let r = run_threads(&config, &ThreadSpec::new().with_crash_plan(plan));
        assert!(r.violations.is_empty(), "seed {seed}");
        assert!(
            r.effectiveness >= config.effectiveness_bound(),
            "seed {seed}"
        );
    }
}

#[test]
fn collision_matrix_respects_lemma_5_5_through_public_api() {
    let m = 4;
    let beta = KkConfig::work_optimal_beta(m);
    let config = KkConfig::with_beta(1024, m, beta).unwrap();
    let r = run_scenario_simulated(
        &config,
        &ScenarioSpec::adversary("lockstep").with_collision_tracking(),
    );
    let matrix = r.collisions.expect("tracking enabled");
    assert!(matrix.exceeding_lemma_bound().is_empty());
}

#[test]
fn effectiveness_never_exceeds_theorem_2_1_upper_bound() {
    for f in 0..4usize {
        let config = KkConfig::new(64, 4).unwrap();
        let plan = CrashPlan::at_steps((1..=f).map(|p| (p, 5 * p as u64)));
        let r = run_scenario_simulated(&config, &ScenarioSpec::random(3).with_crash_plan(plan));
        assert!(r.effectiveness <= config.effectiveness_upper_bound(0));
    }
}
