//! A1/A2/A4 — design-choice ablations (DESIGN.md, "Ablations").
//!
//! * **A1 (β sweep)** — the paper's central trade-off: raising `β` costs
//!   effectiveness linearly (Theorem 4.4) but collapses collisions and work
//!   once `β ≥ 3m²` (Theorem 5.6). The table sweeps
//!   `β ∈ {m, 2m, m², 3m²}` and reports both sides.
//! * **A2 (ordered-set structure)** — the per-element Fenwick tree
//!   `DenseFenwickSet` vs the blocked bitmap `FenwickSet` under one
//!   schedule: identical executions, different local work and time.
//! * **A4 (pick rule)** — deterministic rank-splitting vs uniform random
//!   candidate picks: same safety, different collision behaviour.

use std::time::Instant;

use amo_baselines::randomized_kk_fleet;
use amo_core::{
    run_fleet_simulated, run_scenario_simulated, AmoReport, KkConfig, KkLayout, KkProcess,
};
use amo_ostree::{DenseFenwickSet, FenwickSet, OrderedJobSet};
use amo_sim::{run_scenario, ScenarioSpec, VecRegisters};

use crate::{fmt_f64, par_map, Scale, Table};

/// Runs A1 and returns Table A1.
pub fn exp_beta_ablation(scale: Scale) -> Table {
    let (n, m): (usize, usize) = match scale {
        Scale::Quick => (1 << 11, 4),
        Scale::Full => (1 << 13, 8),
    };
    let mut t = Table::new(
        "Table A1: the β trade-off — effectiveness bound vs collisions and work",
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

/// Runs KKβ with every process keeping its sets in `S`, under strict
/// round-robin through the engine's single-step path, and returns the
/// report with the run's wall-clock milliseconds.
fn run_with_set<S: OrderedJobSet + Send>(config: &KkConfig) -> (AmoReport, f64) {
    let layout = KkLayout::contiguous(config.m(), config.n(), false);
    let fleet: Vec<KkProcess<S>> = (1..=config.m())
        .map(|pid| KkProcess::from_config(pid, config, layout))
        .collect();
    let spec = ScenarioSpec::round_robin();
    let started = Instant::now();
    let (exec, _, _) = run_scenario(VecRegisters::new(layout.cells()), fleet, &spec);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    (AmoReport::from_execution(exec, spec.label()), ms)
}

/// Runs A2 and returns Table A2.
///
/// Both runs take the same schedule, so the structure swap must leave the
/// execution unchanged: the steps, the shared operations and the
/// effectiveness are asserted equal, and only `local_work` (the set
/// layer's charges) may differ. The two runs are timed one after the
/// other, not fanned out with [`crate::par_map`], and the milliseconds
/// are reported, never asserted.
pub fn exp_set_ablation(scale: Scale) -> Table {
    let (n, m): (usize, usize) = match scale {
        Scale::Quick => (20_000, 8),
        Scale::Full => (100_000, 16),
    };
    let beta = KkConfig::work_optimal_beta(m);
    let config = KkConfig::with_beta(n, m, beta).expect("valid");
    let runs = [
        ("DenseFenwickSet", run_with_set::<DenseFenwickSet>(&config)),
        ("FenwickSet", run_with_set::<FenwickSet>(&config)),
    ];
    let mut t = Table::new(
        "Table A2: per-element Fenwick tree vs blocked bitmap sets (strict round-robin)",
        &[
            "n",
            "m",
            "beta",
            "set",
            "steps",
            "shared ops",
            "effectiveness",
            "local work",
            "ms",
        ],
    );
    let (_, (reference, _)) = &runs[0];
    for (set, (r, ms)) in &runs {
        assert!(r.violations.is_empty(), "{set}: at-most-once violated");
        assert!(r.completed, "{set}: run hit its step cap");
        assert_eq!(r.total_steps, reference.total_steps, "{set}: steps");
        assert_eq!(r.mem_work, reference.mem_work, "{set}: shared ops");
        assert_eq!(
            r.effectiveness, reference.effectiveness,
            "{set}: effectiveness"
        );
        t.row([
            n.to_string(),
            m.to_string(),
            beta.to_string(),
            (*set).to_owned(),
            r.total_steps.to_string(),
            r.mem_work.total().to_string(),
            r.effectiveness.to_string(),
            r.local_work.to_string(),
            fmt_f64(*ms),
        ]);
    }
    t
}

/// Runs A4 and returns Table A4.
pub fn exp_pick_ablation(scale: Scale) -> Table {
    let (n, ms): (usize, Vec<usize>) = match scale {
        Scale::Quick => (1 << 11, vec![4]),
        Scale::Full => (1 << 12, vec![4, 8]),
    };
    let mut t = Table::new(
        "Table A4: rank-splitting vs uniform-random candidate picks (lockstep schedule)",
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
    fn set_swap_changes_only_local_work() {
        let t = exp_set_ablation(Scale::Quick);
        assert_eq!(t.column("set"), vec!["DenseFenwickSet", "FenwickSet"]);
        let local: Vec<u64> = t
            .column("local work")
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        assert!(
            local[1] < local[0],
            "the blocked bitmap charges less local work"
        );
    }

    #[test]
    fn both_pick_rules_are_safe() {
        let t = exp_pick_ablation(Scale::Quick);
        for v in t.column("violations") {
            assert_eq!(v, "0");
        }
    }
}
