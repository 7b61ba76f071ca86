//! A1/A4 — design-choice ablations (DESIGN.md §4).
//!
//! * **A1 (β sweep)** — the paper's central trade-off: raising `β` costs
//!   effectiveness linearly (Theorem 4.4) but collapses collisions and work
//!   once `β ≥ 3m²` (Theorem 5.6). The table sweeps
//!   `β ∈ {m, 2m, m², 3m²}` and reports both sides.
//! * **A4 (pick rule)** — deterministic rank-splitting vs uniform random
//!   candidate picks: same safety, different collision behaviour.

use amo_baselines::randomized_kk_fleet;
use amo_core::{run_fleet_simulated, run_scenario_simulated, KkConfig};

use amo_sim::{ScenarioSpec, VecRegisters};

use crate::{fmt_f64, par_map, Scale, Table};

/// Runs A1 and returns Table 8.
pub fn exp_beta_ablation(scale: Scale) -> Table {
    let (n, m): (usize, usize) = match scale {
        Scale::Quick => (1 << 11, 4),
        Scale::Full => (1 << 13, 8),
    };
    let mut t = Table::new(
        "Table 8 (A1): the β trade-off — effectiveness bound vs collisions and work",
        &[
            "n",
            "m",
            "beta",
            "eff bound n−(β+m−2)",
            "eff (adversary)",
            "collisions (staleness)",
            "work (staleness)",
            "work/n",
        ],
    );
    let m64 = m as u64;
    let betas = vec![m64, 2 * m64, m64 * m64, 3 * m64 * m64];
    for row in par_map(betas, |beta| {
        let config = KkConfig::with_beta(n, m, beta).expect("valid");
        let adv = run_scenario_simulated(&config, &ScenarioSpec::adversary("stuck-announcement"));
        let lock = run_scenario_simulated(
            &config,
            &ScenarioSpec::adversary("staleness").with_collision_tracking(),
        );
        assert!(adv.violations.is_empty() && lock.violations.is_empty());
        let collisions = lock.collisions.as_ref().map(|c| c.total()).unwrap_or(0);
        [
            n.to_string(),
            m.to_string(),
            beta.to_string(),
            config.effectiveness_bound().to_string(),
            adv.effectiveness.to_string(),
            collisions.to_string(),
            lock.work().to_string(),
            fmt_f64(lock.work() as f64 / n as f64),
        ]
    }) {
        t.row(row);
    }
    t
}

/// Runs A4 and returns Table 9.
pub fn exp_pick_ablation(scale: Scale) -> Table {
    let (n, ms): (usize, Vec<usize>) = match scale {
        Scale::Quick => (1 << 11, vec![4]),
        Scale::Full => (1 << 12, vec![4, 8]),
    };
    let mut t = Table::new(
        "Table 9 (A4): rank-splitting vs uniform-random candidate picks (lockstep schedule)",
        &[
            "n",
            "m",
            "pick rule",
            "collisions",
            "work",
            "effectiveness",
            "violations",
        ],
    );
    let mut cells = Vec::new();
    for &m in &ms {
        cells.push((m, "rank-split"));
        cells.push((m, "uniform-random"));
    }
    for row in par_map(cells, |(m, rule)| {
        let beta = KkConfig::work_optimal_beta(m);
        let config = KkConfig::with_beta(n, m, beta).expect("valid");
        let r = if rule == "rank-split" {
            run_scenario_simulated(
                &config,
                &ScenarioSpec::adversary("lockstep").with_collision_tracking(),
            )
        } else {
            let (layout, fleet) = randomized_kk_fleet(&config, 0xA4, true);
            run_fleet_simulated(
                VecRegisters::new(layout.cells()),
                fleet,
                config.n(),
                &ScenarioSpec::adversary("lockstep").with_collision_tracking(),
            )
        };
        [
            n.to_string(),
            m.to_string(),
            rule.to_owned(),
            r.collisions
                .as_ref()
                .map(|c| c.total())
                .unwrap_or(0)
                .to_string(),
            r.work().to_string(),
            r.effectiveness.to_string(),
            r.violations.len().to_string(),
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
    fn beta_sweep_effectiveness_decreases() {
        let t = exp_beta_ablation(Scale::Quick);
        let eff: Vec<u64> = t
            .column("eff (adversary)")
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        for w in eff.windows(2) {
            assert!(
                w[1] <= w[0],
                "larger β must not increase worst-case effectiveness"
            );
        }
    }

    #[test]
    fn both_pick_rules_are_safe() {
        let t = exp_pick_ablation(Scale::Quick);
        for v in t.column("violations") {
            assert_eq!(v, "0");
        }
    }
}
