//! E10 — the crash–restart recovery matrix: every algorithm stack under
//! every storage-fault regime of the durable register backend, with the
//! Write-All stack additionally swept across restart delays.
//!
//! Each cell is one [`ScenarioSpec`] with a [`BackendSpec::Durable`]
//! backend handed to the shared scenario driver: the same schedule and
//! crash plan, varying only the [`StorageFault`] a blackout applies to the
//! crasher's unflushed journal suffix. The matrix pins the PR's two
//! obligations numerically:
//!
//! * **safety is absolute** — the at-most-once stacks (KKβ, iterated KK)
//!   assert zero violations in *every* fault cell, because a blackout can
//!   only roll back writes that were never flushed by a `do` barrier;
//! * **effectiveness degrades gracefully** — losing a crasher's unflushed
//!   announcements costs at most a few jobs (recorded as `Δ vs none`),
//!   and restarted Write-All workers re-drive the lost suffix back to a
//!   certified-complete bitmap under every fault regime.
//!
//! The restart axis only applies to the Write-All stack (and its TAS
//! baseline): those processes implement the restart protocol
//! ([`Process::on_restart`](amo_sim::Process::on_restart)); the AMO rows
//! crash permanently.
//!
//! [`BackendSpec::Durable`]: amo_sim::BackendSpec::Durable

use amo_core::{run_scenario_simulated, KkConfig};
use amo_iterative::{run_iterative_scenario, IterConfig};
use amo_sim::{CrashPlan, ScenarioSpec, StorageFault};
use amo_write_all::{
    run_baseline_scenario as run_wa_baseline_scenario, run_wa_scenario, WaBaselineKind, WaConfig,
};

use crate::{par_map, Scale, Table};

/// Restart axis of a cell: `None` ⇒ the crashed pids stay down.
type RestartDelay = Option<u64>;

fn restart_label(delay: RestartDelay) -> String {
    match delay {
        None => "none".to_owned(),
        Some(d) => format!("d={d}"),
    }
}

/// Two staggered crashes, optionally both restarting after `delay` global
/// steps.
fn crash_plan(delay: RestartDelay) -> CrashPlan {
    let mut plan = CrashPlan::at_steps([(1usize, 150u64), (2, 350)]);
    if let Some(d) = delay {
        plan.restart_after(1, d).restart_after(2, d);
    }
    plan
}

fn cell_spec(fault: StorageFault, delay: RestartDelay) -> ScenarioSpec {
    ScenarioSpec::random(0xE10)
        .with_quantum(16)
        .with_crash_plan(crash_plan(delay))
        .durable(fault, 0xE10_0000 + fault.label().len() as u64)
}

/// One measured cell of the matrix.
struct Cell {
    algo: &'static str,
    fault: StorageFault,
    delay: RestartDelay,
    /// Distinct jobs performed (AMO rows) or cells certified written (WA
    /// rows).
    effectiveness: u64,
    complete: bool,
    work: u64,
    violations: usize,
    restarted: usize,
}

/// Runs E10 and returns Table E10.
pub fn exp_recovery_matrix(scale: Scale) -> Table {
    let (n, m) = match scale {
        Scale::Quick => (400usize, 4usize),
        Scale::Full => (10_000, 6),
    };
    let mut t = Table::new(
        "Table E10: storage-fault × restart recovery matrix on the durable backend",
        &[
            "algorithm",
            "fault",
            "restart",
            "effectiveness",
            "Δ vs none",
            "complete",
            "work",
            "restarted",
            "violations",
        ],
    );

    let mut cells: Vec<(&'static str, StorageFault, RestartDelay)> = Vec::new();
    for fault in StorageFault::ALL {
        // AMO stacks: permanent crashes (no restart protocol), safety
        // asserted in every fault regime.
        cells.push(("kk", fault, None));
        cells.push(("iterative", fault, None));
        // Write-All stacks: the restart axis.
        for delay in [None, Some(300), Some(3_000)] {
            cells.push(("write-all", fault, delay));
            cells.push(("wa-tas", fault, delay));
        }
    }

    let rows = par_map(cells, |(algo, fault, delay)| {
        let spec = cell_spec(fault, delay);
        match algo {
            "kk" => {
                let config = KkConfig::new(n, m).expect("valid");
                let r = run_scenario_simulated(&config, &spec);
                assert!(
                    r.violations.is_empty(),
                    "kk must stay at-most-once under {} (got {:?})",
                    fault.label(),
                    r.violations
                );
                Cell {
                    algo,
                    fault,
                    delay,
                    effectiveness: r.effectiveness,
                    complete: r.completed,
                    work: r.work(),
                    violations: r.violations.len(),
                    restarted: r.restarted.len(),
                }
            }
            "iterative" => {
                let config = IterConfig::new(n, m, 1).expect("valid");
                let r = run_iterative_scenario(&config, &spec);
                assert!(
                    r.violations.is_empty(),
                    "iterative must stay at-most-once under {}",
                    fault.label()
                );
                Cell {
                    algo,
                    fault,
                    delay,
                    effectiveness: r.effectiveness,
                    complete: r.completed,
                    work: r.work(),
                    violations: r.violations.len(),
                    restarted: r.restarted.len(),
                }
            }
            "write-all" => {
                let config = WaConfig::new(n, m, 1).expect("valid");
                let r = run_wa_scenario(&config, &spec);
                assert!(
                    r.complete,
                    "write-all must certify complete under {} restart {}",
                    fault.label(),
                    restart_label(delay)
                );
                let written = (r.certified.n - r.certified.missing.len()) as u64;
                Cell {
                    algo,
                    fault,
                    delay,
                    effectiveness: written,
                    complete: r.complete,
                    work: r.work(),
                    violations: 0,
                    restarted: r.restarted.len(),
                }
            }
            _ => {
                let r = run_wa_baseline_scenario(WaBaselineKind::Tas, n, m, &spec);
                // The claim-bit TAS baseline cannot always recover, even
                // with a restart. Two hazards: a prefix cut can land
                // between a claim and its data write; and — more subtly —
                // a survivor's *losing* test-and-set journals the claim
                // value under its own pid, so when the crasher's blackout
                // rolls back its claim+write pair the replay re-asserts
                // the claim from the survivor's record while the data
                // write stays lost. Either way the cell ends claimed but
                // unwritten, and every re-scan skips it. WA-iterative is
                // immune: its certification loop re-reads the data cells
                // themselves. Completeness is therefore asserted
                // fault-free only; the fault cells record the baseline's
                // recovery gap as data.
                if !fault.injects() {
                    assert!(
                        r.complete,
                        "wa-tas must certify complete under {} restart {}",
                        fault.label(),
                        restart_label(delay)
                    );
                }
                let written = (r.certified.n - r.certified.missing.len()) as u64;
                Cell {
                    algo,
                    fault,
                    delay,
                    effectiveness: written,
                    complete: r.complete,
                    work: r.work(),
                    violations: 0,
                    restarted: r.restarted.len(),
                }
            }
        }
    });

    // Effectiveness degradation: each cell vs the fault-free cell of the
    // same (algorithm, restart) pair.
    let baseline = |algo: &str, delay: RestartDelay| {
        rows.iter()
            .find(|c| c.algo == algo && c.delay == delay && c.fault == StorageFault::None)
            .map(|c| c.effectiveness)
            .expect("every (algo, restart) pair has a fault-free cell")
    };
    for c in &rows {
        let base = baseline(c.algo, c.delay);
        let delta = base as i64 - c.effectiveness as i64;
        t.row([
            c.algo.to_owned(),
            c.fault.label().to_owned(),
            if c.algo == "kk" || c.algo == "iterative" {
                "-".to_owned()
            } else {
                restart_label(c.delay)
            },
            c.effectiveness.to_string(),
            delta.to_string(),
            c.complete.to_string(),
            c.work.to_string(),
            c.restarted.to_string(),
            c.violations.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_is_safe_and_terminates() {
        let t = exp_recovery_matrix(Scale::Quick);
        for v in t.column("violations") {
            assert_eq!(v, "0", "a fault cell broke at-most-once");
        }
        let algos = t.column("algorithm");
        let faults = t.column("fault");
        let restarts = t.column("restart");
        let completes = t.column("complete");
        for i in 0..algos.len() {
            // The only cells allowed to come up short: the claim-bit TAS
            // baseline losing cells to a blackout (see the wa-tas arm).
            let excused = algos[i] == "wa-tas" && faults[i] != "none";
            if !excused {
                assert_eq!(
                    completes[i], "true",
                    "{} {} {} failed to terminate or certify",
                    algos[i], faults[i], restarts[i]
                );
            }
        }
    }

    #[test]
    fn wa_iterative_recovers_where_the_tas_baseline_cannot() {
        // The headline of the matrix: WA-iterative certifies complete in
        // *every* fault × restart cell (its certification loop re-reads
        // the data cells), while the claim-bit TAS baseline loses at least
        // one cell to a blackout somewhere in the grid.
        let t = exp_recovery_matrix(Scale::Quick);
        let algos = t.column("algorithm");
        let faults = t.column("fault");
        let completes = t.column("complete");
        let mut tas_gap = false;
        for i in 0..algos.len() {
            if algos[i] == "write-all" {
                assert_eq!(completes[i], "true", "write-all {} incomplete", faults[i]);
            } else if algos[i] == "wa-tas" && completes[i] == "false" {
                tas_gap = true;
            }
        }
        assert!(tas_gap, "no fault cell exposed the TAS baseline's gap");
    }

    #[test]
    fn matrix_covers_every_fault_and_restart_cell() {
        let t = exp_recovery_matrix(Scale::Quick);
        let faults = t.column("fault");
        for f in StorageFault::ALL {
            assert!(faults.contains(&f.label()), "missing fault {}", f.label());
        }
        let restarts = t.column("restart");
        for r in ["-", "none", "d=300", "d=3000"] {
            assert!(restarts.contains(&r), "missing restart cell {r}");
        }
        // 5 faults × (2 AMO + 2 WA × 3 restarts) cells.
        assert_eq!(t.column("algorithm").len(), 5 * (2 + 2 * 3));
    }

    #[test]
    fn restarted_workers_show_up_in_restart_cells() {
        let t = exp_recovery_matrix(Scale::Quick);
        let algos = t.column("algorithm");
        let restarts = t.column("restart");
        let counts = t.column("restarted");
        for ((&algo, &restart), &count) in algos.iter().zip(&restarts).zip(&counts) {
            if algo == "kk" || algo == "iterative" || restart == "none" {
                assert_eq!(count, "0", "{algo} {restart}: unexpected restart");
            } else {
                assert_eq!(count, "2", "{algo} {restart}: both pids must re-enter");
            }
        }
    }

    #[test]
    fn degradation_is_zero_in_fault_free_cells() {
        let t = exp_recovery_matrix(Scale::Quick);
        let faults = t.column("fault");
        let deltas = t.column("Δ vs none");
        for (&fault, &delta) in faults.iter().zip(&deltas) {
            if fault == "none" {
                assert_eq!(delta, "0");
            }
        }
    }
}
