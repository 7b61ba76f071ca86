//! E12 — the seeded chaos sweep: every algorithm stack under drawn
//! [`ChaosPlan`]s across all three intensity tiers, through the one
//! scenario driver.
//!
//! Where E9 and E10 sweep one fault axis at a time (schedulers, storage
//! faults), each E12 cell is a *composed* adversarial run: a
//! [`ChaosPlan`] drawn deterministically from `(seed, intensity, space)`
//! may schedule crashes, restarts, a storage blackout and an adversarial
//! scheduler — all in the same execution, lowered onto a base
//! [`ScenarioSpec`] by
//! [`ScenarioSpec::with_chaos`]. The sweep pins the chaos layer's two
//! obligations numerically:
//!
//! * **safety is absolute** — the at-most-once stacks assert zero
//!   violations in *every* drawn cell, whatever the event mix;
//! * **Theorem 4.4 survives composition** — every KKβ cell additionally
//!   asserts `effectiveness ≥ n − (β + m − 2)`. The theorem's adversary
//!   already owns the schedule, and a crash-stop is indistinguishable
//!   from a never-again-scheduled process in the asynchronous model, so
//!   no composed fault schedule may dip below the bound;
//! * **completeness needs a repair path** — Write-All cells assert
//!   certified completeness except where a storage blackout combines
//!   with a never-restarted crash: a late crasher's unflushed suffix
//!   rolls back after the survivors certified off its visible writes and
//!   terminated, and only a restart re-drives the loss (the sweep
//!   rediscovered E10's recovery precondition the hard way — its fixed
//!   early-crash cells never exposed it). Those cells record the loss as
//!   data, exactly like E10's claim-bit TAS gap.
//!
//! Each algorithm draws from the [`ChaosSpace`] it can actually execute
//! (the gate the chaos module documents): restarts only on the Write-All
//! stacks (the AMO automatons crash permanently), the full adversary
//! registry only on KKβ (the generic stacks resolve `lockstep` alone),
//! and the storage axis only on the stacks E10 runs on the durable
//! backend (KKβ, iterated KK, Write-All and the claim-bit TAS baseline).
//! The AMO comparator baselines run crash + lockstep chaos on the
//! volatile backend.
//!
//! The sweep is seed-deterministic end to end: the same `(seed, tier)`
//! grid always draws the same plans and produces the same table, which
//! is what makes a red cell replayable — feed the printed seed back to
//! [`ChaosPlan::draw`] (or its [`to_replay`](ChaosPlan::to_replay)
//! snippet to the shrinker) and the failure reproduces exactly.

use amo_baselines::{run_baseline_scenario, AmoBaselineKind};
use amo_core::{run_scenario_simulated, KkConfig};
use amo_iterative::{run_iterative_scenario, IterConfig};
use amo_sim::chaos::KNOWN_ADVERSARIES;
use amo_sim::{ChaosEvent, ChaosPlan, ChaosSpace, Intensity, ScenarioSpec};
use amo_write_all::{
    run_baseline_scenario as run_wa_baseline_scenario, run_wa_scenario, WaBaselineKind, WaConfig,
};

use crate::{par_map, Scale, Table};

/// The algorithm axis of the sweep.
const ALGOS: [&str; 6] = [
    "kk",
    "iterative",
    "write-all",
    "wa-tas",
    "tas-amo",
    "trivial-split",
];

/// The chaos space each stack can execute, gated per the module docs.
fn space_for(algo: &str, m: usize, horizon: u64) -> ChaosSpace {
    let base = ChaosSpace::new(m, horizon);
    match algo {
        // KKβ: no restart protocol, but every other axis — including the
        // full adversary registry and the storage axis.
        "kk" => base.with_storage().with_adversaries(KNOWN_ADVERSARIES),
        // Iterated KK: storage, generic lockstep only.
        "iterative" => base.with_storage().with_adversaries(&["lockstep"]),
        // Write-All: restarts, storage and lockstep.
        "write-all" => base
            .with_restarts()
            .with_storage()
            .with_adversaries(&["lockstep"]),
        // Claim-bit TAS Write-All: restarts + storage (its E10 axes).
        "wa-tas" => base
            .with_restarts()
            .with_storage()
            .with_adversaries(&["lockstep"]),
        // AMO comparators: crash + lockstep chaos on the volatile backend.
        _ => base.with_adversaries(&["lockstep"]),
    }
}

/// Deterministic cell seed: the grid position *is* the seed, so the same
/// `(algo, tier, draw)` triple reproduces the same plan forever.
fn cell_seed(algo_ix: usize, tier: Intensity, draw: usize) -> u64 {
    0xE12_0000 + (algo_ix as u64) * 0x1000 + (tier.index() as u64) * 0x100 + draw as u64
}

/// `true` if the plan schedules an injecting storage fault.
fn storage_chaos(plan: &ChaosPlan) -> bool {
    plan.events()
        .iter()
        .any(|e| matches!(e, ChaosEvent::Storage { .. }))
}

/// `true` if every crashed pid is also scheduled to restart — the
/// precondition for Write-All's blackout repair path (see the write-all
/// arm of [`run_cell`]).
fn all_crashes_restart(plan: &ChaosPlan) -> bool {
    plan.events().iter().all(|e| match e {
        ChaosEvent::Crash { pid, .. } => plan
            .events()
            .iter()
            .any(|r| matches!(r, ChaosEvent::Restart { pid: rp, .. } if rp == pid)),
        _ => true,
    })
}

/// One measured cell of the sweep.
struct Cell {
    algo: &'static str,
    tier: Intensity,
    seed: u64,
    chaos: String,
    effectiveness: u64,
    bound: String,
    complete: bool,
    violations: usize,
}

/// Runs E12 and returns Table E12.
pub fn exp_chaos_matrix(scale: Scale) -> Table {
    let (n, m, draws) = match scale {
        Scale::Quick => (400usize, 4usize, 3usize),
        Scale::Full => (4_000, 6, 8),
    };
    let horizon = n as u64;
    let mut t = Table::new(
        "Table E12: seeded chaos sweep — composed fault schedules × every algorithm",
        &[
            "algorithm",
            "tier",
            "seed",
            "chaos",
            "effectiveness",
            "bound",
            "complete",
            "violations",
        ],
    );

    let mut cells: Vec<(usize, &'static str, Intensity, usize)> = Vec::new();
    for (algo_ix, algo) in ALGOS.iter().enumerate() {
        for tier in Intensity::ALL {
            for draw in 0..draws {
                cells.push((algo_ix, algo, tier, draw));
            }
        }
    }

    let rows = par_map(cells, |(algo_ix, algo, tier, draw)| {
        let seed = cell_seed(algo_ix, tier, draw);
        let plan = ChaosPlan::draw(seed, tier, &space_for(algo, m, horizon));
        let spec = ScenarioSpec::random(seed)
            .with_quantum(16)
            .with_chaos(&plan);
        run_cell(algo, tier, seed, &plan, &spec, n, m)
    });

    for c in &rows {
        t.row([
            c.algo.to_owned(),
            c.tier.label().to_owned(),
            format!("{:#x}", c.seed),
            c.chaos.clone(),
            c.effectiveness.to_string(),
            c.bound.clone(),
            c.complete.to_string(),
            c.violations.to_string(),
        ]);
    }
    t
}

/// Runs one algorithm stack under one lowered chaos cell, asserting the
/// cell's safety obligations in place.
fn run_cell(
    algo: &'static str,
    tier: Intensity,
    seed: u64,
    plan: &ChaosPlan,
    spec: &ScenarioSpec,
    n: usize,
    m: usize,
) -> Cell {
    let chaos = plan.summary();
    let cell = |effectiveness, bound, complete, violations| Cell {
        algo,
        tier,
        seed,
        chaos: chaos.clone(),
        effectiveness,
        bound,
        complete,
        violations,
    };
    match algo {
        "kk" => {
            let config = KkConfig::new(n, m).expect("valid");
            let r = run_scenario_simulated(&config, spec);
            assert!(
                r.violations.is_empty(),
                "kk broke at-most-once under seed {seed:#x} [{chaos}]: {:?}",
                r.violations
            );
            // Theorem 4.4 under composition: the bound's adversary already
            // subsumes every drawn schedule.
            let bound = config.effectiveness_bound();
            assert!(
                r.effectiveness >= bound,
                "kk effectiveness {} < Theorem 4.4 bound {bound} under seed {seed:#x} [{chaos}]",
                r.effectiveness
            );
            assert!(r.completed, "kk hit the step cap under seed {seed:#x}");
            cell(r.effectiveness, bound.to_string(), r.completed, 0)
        }
        "iterative" => {
            let config = IterConfig::new(n, m, 1).expect("valid");
            let r = run_iterative_scenario(&config, spec);
            assert!(
                r.violations.is_empty(),
                "iterative broke at-most-once under seed {seed:#x} [{chaos}]"
            );
            assert!(
                r.completed,
                "iterative hit the step cap under seed {seed:#x}"
            );
            cell(r.effectiveness, "-".to_owned(), r.completed, 0)
        }
        "write-all" => {
            let config = WaConfig::new(n, m, 1).expect("valid");
            let r = run_wa_scenario(&config, spec);
            // Completeness needs a repair path: a storage blackout rolls
            // back a crasher's unflushed suffix, and if that crash fires
            // *after* the survivors certified off the (visible but
            // unflushed) writes and terminated, no one is left to re-drive
            // the lost cells — unless the crasher restarts (the E10
            // recovery story). So the guarantee is asserted except for
            // storage chaos combined with a never-restarted crash; those
            // cells record the loss as data, exactly like E10's wa-tas gap.
            if !storage_chaos(plan) || all_crashes_restart(plan) {
                assert!(
                    r.complete,
                    "write-all left cells unwritten under seed {seed:#x} [{chaos}]"
                );
            }
            let written = (r.certified.n - r.certified.missing.len()) as u64;
            cell(written, "-".to_owned(), r.complete, 0)
        }
        "wa-tas" => {
            let r = run_wa_baseline_scenario(WaBaselineKind::Tas, n, m, spec);
            // The claim-bit TAS baseline's fundamental hazard, which the
            // drawn crash budgets expose even on the volatile backend: a
            // crash landing between a claim test-and-set and its data
            // write strands the cell claimed-but-unwritten forever, and
            // every re-scan skips it (E10's fixed crash points never hit
            // that window). Only a restarted crasher repairs its own
            // claim, and a storage blackout re-opens the gap even then
            // (E10's recorded recovery gap) — so completeness is asserted
            // only when every crash restarts and no storage fault fired.
            if !storage_chaos(plan) && all_crashes_restart(plan) {
                assert!(
                    r.complete,
                    "wa-tas must certify complete with every crash restarted \
                     and no storage chaos (seed {seed:#x} [{chaos}])"
                );
            }
            let written = (r.certified.n - r.certified.missing.len()) as u64;
            cell(written, "-".to_owned(), r.complete, 0)
        }
        "tas-amo" => {
            let r = run_baseline_scenario(AmoBaselineKind::TasAmo, n, m, spec);
            assert!(
                r.violations.is_empty(),
                "tas-amo broke at-most-once under seed {seed:#x} [{chaos}]"
            );
            cell(r.effectiveness, "-".to_owned(), r.completed, 0)
        }
        _ => {
            let r = run_baseline_scenario(AmoBaselineKind::TrivialSplit, n, m, spec);
            assert!(
                r.violations.is_empty(),
                "trivial-split broke at-most-once under seed {seed:#x} [{chaos}]"
            );
            cell(r.effectiveness, "-".to_owned(), r.completed, 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_is_safe_across_all_tiers_and_algorithms() {
        let t = exp_chaos_matrix(Scale::Quick);
        for v in t.column("violations") {
            assert_eq!(v, "0", "a chaos cell broke at-most-once");
        }
        let algos = t.column("algorithm");
        let tiers = t.column("tier");
        for algo in ALGOS {
            for tier in Intensity::ALL {
                assert!(
                    algos
                        .iter()
                        .zip(&tiers)
                        .any(|(&a, &t)| a == algo && t == tier.label()),
                    "missing cell {algo} × {}",
                    tier.label()
                );
            }
        }
        assert_eq!(algos.len(), ALGOS.len() * Intensity::ALL.len() * 3);
    }

    #[test]
    fn sweep_is_seed_deterministic() {
        // Same grid ⇒ same drawn plans ⇒ same counters, bit for bit. This
        // is the property that makes a red cell replayable from its
        // printed seed alone.
        let a = exp_chaos_matrix(Scale::Quick);
        let b = exp_chaos_matrix(Scale::Quick);
        for col in [
            "algorithm",
            "tier",
            "seed",
            "chaos",
            "effectiveness",
            "bound",
            "complete",
            "violations",
        ] {
            assert_eq!(a.column(col), b.column(col), "column {col} drifted");
        }
    }

    #[test]
    fn kk_cells_carry_the_theorem_bound_and_meet_it() {
        let t = exp_chaos_matrix(Scale::Quick);
        let algos = t.column("algorithm");
        let effs = t.column("effectiveness");
        let bounds = t.column("bound");
        let mut kk_cells = 0;
        for i in 0..algos.len() {
            if algos[i] == "kk" {
                kk_cells += 1;
                let eff: u64 = effs[i].parse().unwrap();
                let bound: u64 = bounds[i].parse().unwrap();
                assert!(eff >= bound, "row {i}: {eff} < {bound}");
            } else {
                assert_eq!(bounds[i], "-");
            }
        }
        assert_eq!(kk_cells, Intensity::ALL.len() * 3);
    }

    #[test]
    fn the_sweep_actually_composes_faults() {
        // At least one drawn cell must mix two axes in one run (crash +
        // storage, crash + adversary, …) — otherwise the sweep degenerates
        // to the single-axis matrices E9 and E10 already pin.
        let t = exp_chaos_matrix(Scale::Quick);
        let composed = t
            .column("chaos")
            .iter()
            .any(|summary| summary.contains(" + "));
        assert!(composed, "no drawn plan composed two fault axes");
        // And the quiet plan must be drawable too: it is the seeded
        // fault-free baseline cell of the sweep.
        let has_quiet = t.column("chaos").contains(&"quiet");
        assert!(has_quiet, "no tier drew the quiet plan");
    }
}
