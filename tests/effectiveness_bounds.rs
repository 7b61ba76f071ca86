//! Theorem-level acceptance tests: the quantitative claims of §4, checked
//! through the umbrella crate exactly as a downstream user would.

use at_most_once::core::{run_scenario_simulated, KkConfig};
use at_most_once::sim::ScenarioSpec;

/// Theorem 4.4, tightness: the adversary achieves `n − (β + m − 2)` exactly
/// across a grid of instances.
#[test]
fn theorem_4_4_is_tight_across_grid() {
    for n in [64usize, 256, 777, 2048] {
        for m in [2usize, 3, 5, 8, 16] {
            if n < 2 * m - 1 {
                continue;
            }
            for beta in [m as u64, (2 * m) as u64, KkConfig::work_optimal_beta(m)] {
                if beta + m as u64 - 1 > n as u64 {
                    continue;
                }
                let config = KkConfig::with_beta(n, m, beta).unwrap();
                let r =
                    run_scenario_simulated(&config, &ScenarioSpec::adversary("stuck-announcement"));
                assert_eq!(
                    r.effectiveness,
                    config.effectiveness_bound(),
                    "n={n} m={m} beta={beta}"
                );
            }
        }
    }
}

/// Theorem 4.4, lower-bound direction: *no* tested execution dips below the
/// bound, across schedules and seeds.
#[test]
fn no_execution_found_below_the_bound() {
    for seed in 0..20u64 {
        let config = KkConfig::new(128, 4).unwrap();
        let r = run_scenario_simulated(&config, &ScenarioSpec::random(seed));
        assert!(
            r.effectiveness >= config.effectiveness_bound(),
            "seed {seed}"
        );
    }
}

/// Corollary of Theorem 4.4 with β = m: effectiveness n − 2m + 2, within an
/// additive m of the n − m + 1 ceiling (the title's "nearly optimal").
#[test]
fn nearly_optimal_gap_is_additive_m() {
    for m in [2usize, 4, 8, 16] {
        let n = 100 * m;
        let config = KkConfig::new(n, m).unwrap();
        let kk_worst = config.effectiveness_bound(); // n − 2m + 2
        let ceiling = config.effectiveness_upper_bound(m - 1); // n − (m − 1)
        assert_eq!(ceiling - kk_worst, m as u64 - 1, "gap is m − 1 < m");
    }
}

/// Lemma 4.3 (wait-freedom): executions terminate within a generous step
/// budget under every scheduler family.
#[test]
fn wait_freedom_observed() {
    let config = KkConfig::new(256, 8).unwrap();
    for spec in [
        ScenarioSpec::round_robin(),
        ScenarioSpec::random(1),
        ScenarioSpec::block(1, 64),
        ScenarioSpec::adversary("lockstep"),
    ] {
        // A full cycle is O(m) actions; n jobs with collision slack fits
        // comfortably in 50 n m actions.
        let spec = spec.with_max_steps(50 * 256 * 8);
        let r = run_scenario_simulated(&config, &spec);
        assert!(r.completed, "hit the step cap: not wait-free?");
    }
}
