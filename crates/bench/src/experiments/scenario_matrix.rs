//! E9 — the cross-algorithm adversary matrix: every algorithm stack under
//! the *same* scenario cells, through the one generic scenario driver.
//!
//! Every cell is a single [`ScenarioSpec`] handed to the shared
//! [`amo_sim::run_scenario`] driver, so "random(seed) with crashes" means
//! the same environment on every stack. The sweep covers one algorithm ×
//! scheduler × crash-plan grid. The cells marked `new` are the ones the
//! per-crate option structs that predate the scenario layer could not
//! express:
//!
//! * `rand-q64` (a quantum-granting random schedule) on *every* stack —
//!   those structs granted quanta only under round-robin;
//! * `block` and `lockstep` on the at-most-once comparators, whose options
//!   knew only round-robin and seeded-random.
//!
//! Safety assertions run in every cell (at-most-once for the AMO
//! algorithms, certified completeness for fault-tolerant Write-All), so
//! the matrix doubles as a cross-product regression net for the scenario
//! layer itself.

use amo_baselines::{run_baseline_scenario, AmoBaselineKind};
use amo_core::{run_scenario_simulated, KkConfig};
use amo_iterative::{run_iterative_scenario, IterConfig};
use amo_sim::{CrashPlan, ScenarioSpec};
use amo_write_all::{run_wa_scenario, WaConfig};

use crate::{par_map, Scale, Table};

/// One scheduler cell of the sweep: a label, whether the cell was
/// expressible before the scenario layer, and the spec builder (crash plans
/// are layered on separately).
type SchedCell = (&'static str, bool, fn() -> ScenarioSpec);

fn schedulers() -> Vec<SchedCell> {
    vec![
        ("rr", false, ScenarioSpec::round_robin),
        ("rr-batched", false, ScenarioSpec::round_robin_batched),
        ("random", false, || ScenarioSpec::random(0xE9)),
        // Quantum-granting random: new for every stack.
        ("rand-q64", true, || {
            ScenarioSpec::random(0xE9).with_quantum(64)
        }),
        ("block", false, || ScenarioSpec::block(0xE9, 48)),
        ("lockstep", false, || ScenarioSpec::adversary("lockstep")),
    ]
}

/// A deterministic crash plan killing `f` of `m` processes at staggered
/// step counts (`None` ⇒ crash-free cell).
fn crash_cell(m: usize, f: usize) -> CrashPlan {
    CrashPlan::at_steps((1..=f.min(m.saturating_sub(1))).map(|p| (p, 37 * p as u64)))
}

/// Runs E9 and returns Table E9.
pub fn exp_scenario_matrix(scale: Scale) -> Table {
    let (n, m) = match scale {
        Scale::Quick => (600usize, 4usize),
        Scale::Full => (20_000, 8),
    };
    let mut t = Table::new(
        "Table E9: algorithm × scheduler × crash cells through the one scenario driver",
        &[
            "algorithm",
            "sched",
            "new cell",
            "crashes",
            "effectiveness",
            "complete",
            "total steps",
            "violations",
        ],
    );

    type MatrixCell = (
        &'static str,
        &'static str,
        fn() -> ScenarioSpec,
        bool,
        usize,
    );
    let mut cells: Vec<MatrixCell> = Vec::new();
    for (sched, newly, build) in schedulers() {
        for algo in ["kk", "iterative", "write-all", "tas-amo", "trivial-split"] {
            // The comparators historically had round-robin and random only:
            // bursty blocks, quanta and lockstep are all new there.
            let newly = newly
                || (matches!(algo, "tas-amo" | "trivial-split")
                    && !matches!(sched, "rr" | "random"));
            for f in [0usize, 2] {
                cells.push((algo, sched, build, newly, f));
            }
        }
    }
    // KKβ-only adversaries: the stuck-announcement lower bound (which
    // crashes processes itself) and the staleness collision forcer.
    cells.push((
        "kk",
        "stuck-announcement",
        || ScenarioSpec::adversary("stuck-announcement"),
        false,
        0,
    ));
    cells.push((
        "kk",
        "staleness",
        || ScenarioSpec::adversary("staleness"),
        false,
        0,
    ));

    let rows = par_map(cells, |(algo, sched, build, newly, f)| {
        let spec = build().with_crash_plan(if f == 0 {
            CrashPlan::none()
        } else {
            crash_cell(m, f)
        });
        let (effectiveness, complete, steps, violations) = match algo {
            "kk" => {
                let config = KkConfig::new(n, m).expect("valid");
                let r = run_scenario_simulated(&config, &spec);
                assert!(r.violations.is_empty(), "kk {sched} f={f}");
                if f == 0 && !spec.scheduler.is_adversary() {
                    assert!(
                        r.effectiveness >= config.effectiveness_bound(),
                        "kk {sched}: {} < bound",
                        r.effectiveness
                    );
                }
                (
                    r.effectiveness,
                    r.completed,
                    r.total_steps,
                    r.violations.len(),
                )
            }
            "iterative" => {
                let config = IterConfig::new(n, m, 1).expect("valid");
                let r = run_iterative_scenario(&config, &spec);
                assert!(r.violations.is_empty(), "iterative {sched} f={f}");
                (
                    r.effectiveness,
                    r.completed,
                    r.total_steps,
                    r.violations.len(),
                )
            }
            "write-all" => {
                let config = WaConfig::new(n, m, 1).expect("valid");
                let r = run_wa_scenario(&config, &spec);
                // Fault-tolerant Write-All must certify complete in every
                // cell (crashes stay under m).
                assert!(r.complete, "write-all {sched} f={f} left cells unwritten");
                let written = (r.certified.n - r.certified.missing.len()) as u64;
                (written, r.completed, r.total_steps, 0)
            }
            "tas-amo" => {
                let r = run_baseline_scenario(AmoBaselineKind::TasAmo, n, m, &spec);
                assert!(r.violations.is_empty(), "tas-amo {sched} f={f}");
                (
                    r.effectiveness,
                    r.completed,
                    r.total_steps,
                    r.violations.len(),
                )
            }
            _ => {
                let r = run_baseline_scenario(AmoBaselineKind::TrivialSplit, n, m, &spec);
                assert!(r.violations.is_empty(), "trivial-split {sched} f={f}");
                (
                    r.effectiveness,
                    r.completed,
                    r.total_steps,
                    r.violations.len(),
                )
            }
        };
        (
            algo,
            sched,
            newly,
            f,
            effectiveness,
            complete,
            steps,
            violations,
        )
    });

    for (algo, sched, newly, f, eff, complete, steps, violations) in rows {
        t.row([
            algo.to_owned(),
            sched.to_owned(),
            if newly {
                "new".to_owned()
            } else {
                "-".to_owned()
            },
            f.to_string(),
            eff.to_string(),
            complete.to_string(),
            steps.to_string(),
            violations.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_algorithm_and_has_new_cells_for_each() {
        let t = exp_scenario_matrix(Scale::Quick);
        let algos = t.column("algorithm");
        let news = t.column("new cell");
        for algo in ["kk", "iterative", "write-all", "tas-amo", "trivial-split"] {
            assert!(algos.contains(&algo), "missing {algo}");
            let has_new = algos
                .iter()
                .zip(&news)
                .any(|(&a, &n)| a == algo && n == "new");
            assert!(has_new, "{algo} has no previously-impossible cell");
        }
    }

    #[test]
    fn every_cell_is_violation_free_and_terminates() {
        let t = exp_scenario_matrix(Scale::Quick);
        for v in t.column("violations") {
            assert_eq!(v, "0");
        }
        for c in t.column("complete") {
            assert_eq!(c, "true", "a cell hit the step cap");
        }
    }

    #[test]
    fn new_random_quantum_cell_matches_its_single_step_reference() {
        // The flagship previously-impossible cell must obey the engine's
        // batching contract on every stack: identical reports against the
        // forced per-action reference path.
        let spec = ScenarioSpec::random(11).with_quantum(64);
        let refr = spec.clone().single_step();
        let kk = KkConfig::new(400, 4).unwrap();
        assert_eq!(
            run_scenario_simulated(&kk, &spec),
            run_scenario_simulated(&kk, &refr)
        );
        let iter = IterConfig::new(400, 4, 1).unwrap();
        assert_eq!(
            run_iterative_scenario(&iter, &spec),
            run_iterative_scenario(&iter, &refr)
        );
        let wa = WaConfig::new(400, 4, 1).unwrap();
        assert_eq!(run_wa_scenario(&wa, &spec), run_wa_scenario(&wa, &refr));
    }
}
