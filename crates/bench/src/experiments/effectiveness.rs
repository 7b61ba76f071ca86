//! E1 — Theorem 4.4: `E_KKβ(n, m, f) = n − (β + m − 2)`, tight.
//!
//! For every `(n, m, β)` the harness runs three schedules:
//!
//! * the Theorem 4.4 lower-bound adversary (`StuckAnnouncementAdversary`) —
//!   measured effectiveness must equal the formula **exactly**;
//! * a fair round-robin and a seeded random schedule with no crashes —
//!   measured effectiveness must sit between the bound and `n`.

use amo_core::{run_scenario_simulated, KkConfig};
use amo_sim::ScenarioSpec;

use crate::{par_map, Scale, Table};

/// Runs E1 and returns Table E1.
pub fn exp_effectiveness(scale: Scale) -> Table {
    let (ns, ms): (Vec<usize>, Vec<usize>) = match scale {
        Scale::Quick => (vec![256, 1024], vec![2, 4, 8]),
        Scale::Full => (vec![256, 1024, 4096, 16384], vec![2, 4, 8, 16, 32]),
    };
    let mut t = Table::new(
        "Table E1 (Thm 4.4): worst-case effectiveness of KKβ — measured vs n−(β+m−2)",
        &[
            "n",
            "m",
            "beta",
            "bound",
            "adversary",
            "exact?",
            "round-robin",
            "random",
            "upper(n)",
        ],
    );
    let mut cells = Vec::new();
    for &n in &ns {
        for &m in &ms {
            if n < 2 * m - 1 {
                continue;
            }
            for beta in [m as u64, KkConfig::work_optimal_beta(m)] {
                if (beta + m as u64 - 1) > n as u64 {
                    continue; // bound saturates; adversary not exact (see tests)
                }
                cells.push((n, m, beta));
            }
        }
    }
    // Each cell runs three independent simulations; fan the grid out.
    for row in par_map(cells, |(n, m, beta)| {
        let config = KkConfig::with_beta(n, m, beta).expect("valid");
        let bound = config.effectiveness_bound();
        let adv = run_scenario_simulated(&config, &ScenarioSpec::adversary("stuck-announcement"));
        assert!(adv.violations.is_empty(), "E1 safety");
        let rr = run_scenario_simulated(&config, &ScenarioSpec::round_robin());
        let rnd = run_scenario_simulated(&config, &ScenarioSpec::random(0xE1));
        [
            n.to_string(),
            m.to_string(),
            beta.to_string(),
            bound.to_string(),
            adv.effectiveness.to_string(),
            (adv.effectiveness == bound).to_string(),
            rr.effectiveness.to_string(),
            rnd.effectiveness.to_string(),
            n.to_string(),
        ]
    }) {
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_rows_are_exact() {
        let t = exp_effectiveness(Scale::Quick);
        assert!(!t.is_empty());
        for cell in t.column("exact?") {
            assert_eq!(cell, "true", "adversary must achieve the bound exactly");
        }
    }

    #[test]
    fn benign_schedules_dominate_the_bound() {
        let t = exp_effectiveness(Scale::Quick);
        let bounds: Vec<u64> = t
            .column("bound")
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let rr: Vec<u64> = t
            .column("round-robin")
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let rnd: Vec<u64> = t
            .column("random")
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        for i in 0..bounds.len() {
            assert!(rr[i] >= bounds[i]);
            assert!(rnd[i] >= bounds[i]);
        }
    }
}
