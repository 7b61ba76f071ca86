//! E5 — Theorem 7.1: WA_IterativeKK(ε) solves Write-All with work
//! `O(n + m^{3+ε}·log n)`; §7's comparison against the baselines.
//!
//! Table E5a sweeps `n` and `m` with and without crashes: WA_IterativeKK
//! must always certify complete, with work/n flattening in `n`. Table E5b
//! pits it against the baselines: who completes under crashes, at what
//! work and redundancy — the shape to reproduce is that static partition
//! *fails* under crashes, TAS needs RMW, the permutation scan pays `Θ(nm)`
//! reads, and WA_IterativeKK completes with near-`n` work for small `m`.

use amo_sim::{CrashPlan, ScenarioSpec};
use amo_write_all::{run_baseline_scenario, run_wa_scenario, WaBaselineKind, WaConfig};

use crate::{fmt_f64, fmt_ratio, par_map, Scale, Table};

/// Runs E5 and returns Tables E5a and E5b.
pub fn exp_write_all(scale: Scale) -> Vec<Table> {
    let (ns, ms): (Vec<usize>, Vec<usize>) = match scale {
        Scale::Quick => (vec![1 << 10, 1 << 12], vec![2, 4]),
        Scale::Full => (vec![1 << 12, 1 << 14, 1 << 16], vec![2, 4, 8]),
    };

    let mut scaling = Table::new(
        "Table E5a (Thm 7.1): WA_IterativeKK(ε=1) completes; work/n flattens in n",
        &[
            "n",
            "m",
            "f",
            "complete",
            "work",
            "work/n",
            "work/envelope",
            "redundancy",
        ],
    );
    let mut cells = Vec::new();
    for &n in &ns {
        for &m in &ms {
            let mut fs = vec![0usize, m / 2, m - 1];
            fs.dedup();
            for f in fs {
                cells.push((n, m, f));
            }
        }
    }
    for row in par_map(cells, |(n, m, f)| {
        let config = WaConfig::new(n, m, 1).expect("valid");
        let plan = CrashPlan::at_steps((1..=f).map(|p| (p, 40 * p as u64 + n as u64 / 8)));
        let r = run_wa_scenario(&config, &ScenarioSpec::random(0xE5).with_crash_plan(plan));
        assert!(r.complete, "Thm 7.1: must complete (n={n} m={m} f={f})");
        [
            n.to_string(),
            m.to_string(),
            f.to_string(),
            r.complete.to_string(),
            r.work().to_string(),
            fmt_f64(r.work() as f64 / n as f64),
            fmt_ratio(r.work() as f64, config.work_envelope()),
            fmt_f64(r.redundancy()),
        ]
    }) {
        scaling.row(row);
    }

    let mut cmp = Table::new(
        "Table E5b (§7): Write-All algorithms, each fleet crashing all but one process (n fixed; f = crashes taken)",
        &[
            "algorithm",
            "n",
            "m",
            "f",
            "complete",
            "rmw?",
            "reads",
            "writes",
            "work",
            "redundancy",
        ],
    );
    let n = match scale {
        Scale::Quick => 1 << 10,
        Scale::Full => 1 << 14,
    };
    let mut cmp_cells: Vec<(usize, Option<WaBaselineKind>)> = Vec::new();
    for &m in &ms {
        cmp_cells.push((m, None)); // WA_IterativeKK itself
        for kind in [
            WaBaselineKind::Sequential,
            WaBaselineKind::StaticPartition,
            WaBaselineKind::Tas,
            WaBaselineKind::PermutationScan(7),
        ] {
            cmp_cells.push((m, Some(kind)));
        }
    }
    for row in par_map(cmp_cells, |(m, kind)| {
        // Every fleet but the one-process sequential baseline has m
        // processes; each gets a plan crashing all but one of its own.
        let fleet = if kind == Some(WaBaselineKind::Sequential) {
            1
        } else {
            m
        };
        let plan = CrashPlan::at_steps((1..fleet).map(|p| (p, 25 * p as u64 + 11)));
        let spec = ScenarioSpec::random(5).with_crash_plan(plan);
        let (label, r) = match kind {
            None => {
                let config = WaConfig::new(n, m, 1).expect("valid");
                (
                    "wa-iterative-kk".to_owned(),
                    run_wa_scenario(&config, &spec),
                )
            }
            Some(kind) => (
                kind.label().to_owned(),
                run_baseline_scenario(kind, n, m, &spec),
            ),
        };
        [
            label,
            n.to_string(),
            m.to_string(),
            r.crashed.len().to_string(),
            r.complete.to_string(),
            (r.mem_work.rmws > 0).to_string(),
            r.mem_work.reads.to_string(),
            r.mem_work.writes.to_string(),
            r.work().to_string(),
            fmt_f64(r.redundancy()),
        ]
    }) {
        cmp.row(row);
    }
    vec![scaling, cmp]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wa_iterative_always_completes() {
        let tables = exp_write_all(Scale::Quick);
        for c in tables[0].column("complete") {
            assert_eq!(c, "true");
        }
    }

    #[test]
    fn static_partition_fails_with_crashes_in_comparison() {
        let tables = exp_write_all(Scale::Quick);
        let cmp = &tables[1];
        let algos = cmp.column("algorithm");
        let complete = cmp.column("complete");
        let mut saw_static_fail = false;
        for i in 0..algos.len() {
            if algos[i] == "static-partition" && complete[i] == "false" {
                saw_static_fail = true;
            }
            if algos[i] == "wa-iterative-kk" {
                assert_eq!(complete[i], "true");
            }
        }
        assert!(
            saw_static_fail,
            "the fault-intolerant baseline must fail somewhere"
        );
    }
}
