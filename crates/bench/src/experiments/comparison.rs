//! E6 — the §1 claimed ordering of at-most-once algorithms by worst-case
//! effectiveness.
//!
//! Each algorithm runs under the harshest adversary this repository has for
//! it (worst-case crash placement), with `f = m − 1`:
//!
//! * KKβ (β = m): the Theorem 4.4 stuck-announcement adversary — exactly
//!   `n − 2m + 2`;
//! * trivial split: crash `f` owners at time zero — `(m−f)·n/m`;
//! * pairs hybrid: crash whole pairs first — loses whole chunks;
//! * TAS: crash right after a claim — `n − f` (the Theorem 2.1 ceiling,
//!   bought with RMW);
//! * randomized-pick KKβ (ablation): same crash plan as trivial.
//!
//! The shape to reproduce: KKβ beats every read/write comparator for
//! `m > 2` and sits within an additive `m` of the TAS/RMW ceiling.

use amo_baselines::{run_baseline_scenario, AmoBaselineKind};
use amo_core::{run_scenario_simulated, KkConfig};

use amo_sim::{CrashPlan, ScenarioSpec};

use crate::{par_map, Scale, Table};

/// Runs E6 and returns Table E6.
pub fn exp_comparison(scale: Scale) -> Table {
    let (n, ms): (usize, Vec<usize>) = match scale {
        Scale::Quick => (1024, vec![2, 4, 8]),
        Scale::Full => (4096, vec![2, 4, 8, 16, 32]),
    };
    let mut t = Table::new(
        "Table E6 (§1): worst-case effectiveness under f = m−1 crashes",
        &[
            "m",
            "f",
            "algorithm",
            "registers",
            "predicted",
            "measured",
            "n",
        ],
    );
    // One parallel task per m; each emits its rows as a group, in order.
    for rows in par_map(ms, |m| {
        let mut group: Vec<[String; 7]> = Vec::new();
        let f = m - 1;

        // KKβ with β = m under its tight adversary.
        let config = KkConfig::new(n, m).expect("valid");
        let kk = run_scenario_simulated(&config, &ScenarioSpec::adversary("stuck-announcement"));
        assert!(kk.violations.is_empty());
        group.push([
            m.to_string(),
            f.to_string(),
            "kk-beta (β=m)".to_owned(),
            "R/W".to_owned(),
            config.effectiveness_bound().to_string(),
            kk.effectiveness.to_string(),
            n.to_string(),
        ]);

        // Comparators under their own worst crash placements.
        let cases: Vec<(AmoBaselineKind, CrashPlan, &str)> = vec![
            (
                AmoBaselineKind::TrivialSplit,
                CrashPlan::first_f_immediately(f),
                "R/W",
            ),
            (
                AmoBaselineKind::PairsHybrid,
                // Kill complete pairs first: pids 1,2,3,... are pair-major.
                CrashPlan::first_f_immediately(f),
                "R/W",
            ),
            (
                AmoBaselineKind::TasAmo,
                // Crash just after the first claim (step budget 1).
                CrashPlan::at_steps((1..=f).map(|p| (p, 1u64))),
                "RMW",
            ),
            (
                AmoBaselineKind::RandomizedKk(0xA4),
                CrashPlan::at_steps((1..=f).map(|p| (p, 3u64))),
                "R/W",
            ),
        ];
        for (kind, plan, regs) in cases {
            let r = run_baseline_scenario(
                kind,
                n,
                m,
                &ScenarioSpec::round_robin().with_crash_plan(plan),
            );
            assert!(r.violations.is_empty(), "{} must stay safe", kind.label());
            let predicted = kind
                .predicted_effectiveness(n as u64, m, f)
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".to_owned());
            group.push([
                m.to_string(),
                f.to_string(),
                kind.label().to_owned(),
                regs.to_owned(),
                predicted,
                r.effectiveness.to_string(),
                n.to_string(),
            ]);
        }

        // The optimal two-process building block, where applicable.
        if m == 2 {
            let r = run_baseline_scenario(
                AmoBaselineKind::TwoProcess,
                n,
                2,
                &ScenarioSpec::round_robin().with_crash_plan(CrashPlan::at_steps([(2usize, 1u64)])),
            );
            group.push([
                "2".to_owned(),
                "1".to_owned(),
                "two-process".to_owned(),
                "R/W".to_owned(),
                (n as u64 - 1).to_string(),
                r.effectiveness.to_string(),
                n.to_string(),
            ]);
        }
        group
    }) {
        for row in rows {
            t.row(row);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_for(t: &Table, m: &str) -> Vec<(String, u64)> {
        let ms = t.column("m");
        let algo = t.column("algorithm");
        let eff = t.column("measured");
        (0..ms.len())
            .filter(|&i| ms[i] == m)
            .map(|i| (algo[i].to_owned(), eff[i].parse().unwrap()))
            .collect()
    }

    #[test]
    fn kk_dominates_rw_comparators_for_m_gt_2() {
        let t = exp_comparison(Scale::Quick);
        for m in ["4", "8"] {
            let rows = rows_for(&t, m);
            let kk = rows
                .iter()
                .find(|(a, _)| a.starts_with("kk-beta"))
                .unwrap()
                .1;
            let trivial = rows.iter().find(|(a, _)| a == "trivial-split").unwrap().1;
            let pairs = rows.iter().find(|(a, _)| a == "pairs-hybrid").unwrap().1;
            assert!(kk > trivial, "m={m}: KK {kk} ≤ trivial {trivial}");
            assert!(kk > pairs, "m={m}: KK {kk} ≤ pairs {pairs}");
        }
    }

    #[test]
    fn tas_is_within_m_of_kk() {
        // KKβ's bound n − 2m + 2 is within an additive m of TAS's n − f =
        // n − m + 1 (the paper's "nearly optimal" claim).
        let t = exp_comparison(Scale::Quick);
        for m in ["4", "8"] {
            let rows = rows_for(&t, m);
            let kk = rows
                .iter()
                .find(|(a, _)| a.starts_with("kk-beta"))
                .unwrap()
                .1;
            let tas = rows.iter().find(|(a, _)| a == "tas-amo").unwrap().1;
            let m_val: u64 = m.parse().unwrap();
            assert!(tas >= kk, "RMW ceiling dominates");
            assert!(tas - kk <= m_val, "gap must be ≤ m (got {})", tas - kk);
        }
    }
}
