//! Cross-crate integration: the full public API surface, end to end.

use at_most_once::core::{run_scenario_simulated, run_threads, KkConfig};
use at_most_once::sim::thread::ThreadSpec;
use at_most_once::sim::{CrashPlan, ScenarioSpec};

#[test]
fn simulated_and_threaded_agree_on_guarantees() {
    let config = KkConfig::new(200, 5).unwrap();
    let sim = run_scenario_simulated(&config, &ScenarioSpec::random(1));
    let thr = run_threads(&config, &ThreadSpec::new());
    for r in [&sim, &thr] {
        assert!(r.violations.is_empty());
        assert!(r.completed);
        assert!(r.effectiveness >= config.effectiveness_bound());
        assert!(r.effectiveness <= 200);
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
    for seed in 0..10u64 {
        let m = 2 + (seed as usize % 6);
        let config = KkConfig::new(40 * m, m).unwrap();
        let plan = CrashPlan::at_steps((1..m).map(|p| (p, seed * 31 + 10 * p as u64)));
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
