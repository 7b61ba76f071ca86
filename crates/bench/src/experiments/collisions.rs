//! E7 — Lemma 5.5: with `β ≥ 3m²`, process `p` collides with process `q`
//! fewer than `2·⌈n / (m·|q−p|)⌉` times.
//!
//! Collision tracking attributes every failed `check` to the process whose
//! announcement or log entry caused it (Definition 5.2). Three
//! configurations are measured:
//!
//! * rank-split picks under the **staleness adversary** (the §5 proof's
//!   scenario: freeze a process between choosing and announcing, let the
//!   others perform its candidate, wake it into a collision);
//! * rank-split picks under lockstep (benign — shows the handshake
//!   preventing collisions outright);
//! * uniform-random picks (ablation A4) under the staleness adversary —
//!   collisions without the rank-splitting protection.
//!
//! The reproduced shape: **measured ≪ bound** everywhere — Lemma 5.5 holds
//! with an enormous margin, because rank-splitting keeps candidate
//! intervals disjoint unless views diverge by `Θ(m·d)` completed jobs
//! (Lemma 5.1).

use amo_baselines::randomized_kk_fleet;
use amo_core::{run_fleet_simulated, run_scenario_simulated, AmoReport, KkConfig};

use amo_sim::{ScenarioSpec, VecRegisters};

use crate::{fmt_ratio, par_map, Scale, Table};

/// Runs E7 and returns Table E7.
pub fn exp_collisions(scale: Scale) -> Table {
    let (n, ms): (usize, Vec<usize>) = match scale {
        Scale::Quick => (1 << 11, vec![4]),
        Scale::Full => (1 << 13, vec![4, 8]),
    };
    let mut t = Table::new(
        "Table E7 (Lemma 5.5): pairwise collisions at β = 3m² vs 2·⌈n/(m·d)⌉",
        &[
            "n",
            "m",
            "picks",
            "sched",
            "max pair collisions",
            "bound (d=1)",
            "measured/bound",
            "total",
            "4(n+1)·log2(m)",
        ],
    );
    let mut cells: Vec<(usize, &str, &str)> = Vec::new();
    for &m in &ms {
        cells.push((m, "rank-split", "staleness"));
        cells.push((m, "rank-split", "lockstep"));
        cells.push((m, "uniform-random", "staleness"));
    }
    let cases: Vec<(usize, &str, &str, AmoReport)> = par_map(cells, |(m, picks, sched)| {
        let beta = KkConfig::work_optimal_beta(m);
        let config = KkConfig::with_beta(n, m, beta).expect("valid");
        let r = match (picks, sched) {
            ("rank-split", "staleness") => run_scenario_simulated(
                &config,
                &ScenarioSpec::adversary("staleness").with_collision_tracking(),
            ),
            ("rank-split", "lockstep") => run_scenario_simulated(
                &config,
                &ScenarioSpec::adversary("lockstep").with_collision_tracking(),
            ),
            _ => {
                let (layout, fleet) = randomized_kk_fleet(&config, 0xE7, true);
                run_fleet_simulated(
                    VecRegisters::new(layout.cells()),
                    fleet,
                    config.n(),
                    &ScenarioSpec::adversary("staleness").with_collision_tracking(),
                )
            }
        };
        (m, picks, sched, r)
    });

    for (m, picks, sched, r) in cases {
        assert!(r.violations.is_empty(), "E7 safety ({picks}/{sched})");
        let matrix = r.collisions.expect("tracking enabled");
        assert!(
            matrix.exceeding_lemma_bound().is_empty(),
            "Lemma 5.5 violated: {:?}",
            matrix.exceeding_lemma_bound()
        );
        let mut max_measured = 0u64;
        for p in 1..=m {
            for q in 1..=m {
                if p != q {
                    max_measured = max_measured.max(matrix.between(p, q));
                }
            }
        }
        let bound_d1 = matrix.lemma_bound(1, 2).expect("m ≥ 2");
        let aggregate = 4.0 * (n as f64 + 1.0) * (m as f64).log2().max(1.0);
        t.row([
            n.to_string(),
            m.to_string(),
            picks.to_owned(),
            sched.to_owned(),
            max_measured.to_string(),
            bound_d1.to_string(),
            fmt_ratio(max_measured as f64, bound_d1 as f64),
            matrix.total().to_string(),
            format!("{aggregate:.0}"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_pair_exceeds_the_lemma_bound() {
        let t = exp_collisions(Scale::Quick);
        assert!(!t.is_empty());
        for cell in t.column("measured/bound") {
            if cell == "-" {
                continue;
            }
            let v: f64 = cell.parse().unwrap();
            assert!(v <= 1.0, "Lemma 5.5: ratio {v} > 1");
        }
    }

    #[test]
    fn staleness_adversary_produces_collisions() {
        let t = exp_collisions(Scale::Quick);
        let picks = t.column("picks");
        let sched = t.column("sched");
        let totals: Vec<u64> = t
            .column("total")
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let mut saw = false;
        for i in 0..picks.len() {
            if sched[i] == "staleness" && totals[i] > 0 {
                saw = true;
            }
            let _ = picks;
        }
        assert!(
            saw,
            "the staleness adversary must force at least one collision"
        );
    }

    #[test]
    fn totals_respect_the_aggregate_bound() {
        let t = exp_collisions(Scale::Quick);
        let totals: Vec<f64> = t
            .column("total")
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let aggs: Vec<f64> = t
            .column("4(n+1)·log2(m)")
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        for (tot, agg) in totals.iter().zip(&aggs) {
            assert!(tot <= agg);
        }
    }
}
