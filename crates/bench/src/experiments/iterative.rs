//! E4 — Theorem 6.4: IterativeKK(ε) has effectiveness
//! `n − O(m²·log n·log m)` and work `O(n + m^{3+ε}·log n)`.
//!
//! Two tables: (4a) measured job **loss** `n − Do(α)` against the
//! `m²·log n·log m` envelope, and (4b) measured **work per job**, which must
//! flatten to a constant as `n` grows at fixed `m` — the work-optimality
//! claim for `m = O((n / log n)^{1/(3+ε)})`.

use amo_iterative::{run_iterative_scenario, IterConfig};
use amo_sim::{CrashPlan, ScenarioSpec};

use crate::{fmt_f64, fmt_ratio, par_map, Scale, Table};

/// Runs E4 and returns Tables 4a and 4b.
pub fn exp_iterative(scale: Scale) -> Vec<Table> {
    let (ns, ms, inv_epss): (Vec<usize>, Vec<usize>, Vec<u32>) = match scale {
        Scale::Quick => (vec![1 << 11, 1 << 13], vec![2, 4], vec![1]),
        Scale::Full => (vec![1 << 12, 1 << 14, 1 << 16], vec![2, 4, 8], vec![1, 2]),
    };

    let mut loss = Table::new(
        "Table 4a (E4, Thm 6.4): IterativeKK(ε) job loss vs the m²·log n·log m envelope",
        &[
            "n",
            "m",
            "1/eps",
            "f",
            "effectiveness",
            "loss",
            "m^2·logn·logm",
            "loss/envelope",
        ],
    );
    let mut work = Table::new(
        "Table 4b (E4, Thm 6.4): IterativeKK(ε) work — work/n must flatten as n grows",
        &[
            "n",
            "m",
            "1/eps",
            "work",
            "work/n",
            "work/(n+m^(3+eps)·logn)",
        ],
    );

    let mut cells = Vec::new();
    for &inv_eps in &inv_epss {
        for &m in &ms {
            for &n in &ns {
                for f in [0usize, m - 1] {
                    cells.push((n, m, inv_eps, f));
                }
            }
        }
    }
    // Each cell is one independent simulation; fan the grid out and emit
    // rows in deterministic grid order.
    for (loss_row, work_row) in par_map(cells, |(n, m, inv_eps, f)| {
        let config = IterConfig::new(n, m, inv_eps).expect("valid");
        let envelope = (m * m) as f64 * (n as f64).log2().max(1.0) * (m as f64).log2().max(1.0);
        let plan = CrashPlan::at_steps((1..=f).map(|p| (p, 50 * p as u64 + n as u64 / 10)));
        let r = run_iterative_scenario(
            &config,
            &ScenarioSpec::random(0xE4 + f as u64).with_crash_plan(plan),
        );
        assert!(r.violations.is_empty(), "E4 safety");
        let lost = n as u64 - r.effectiveness;
        let loss_row = [
            n.to_string(),
            m.to_string(),
            inv_eps.to_string(),
            f.to_string(),
            r.effectiveness.to_string(),
            lost.to_string(),
            fmt_f64(envelope),
            fmt_ratio(lost as f64, envelope),
        ];
        let work_row = (f == 0).then(|| {
            [
                n.to_string(),
                m.to_string(),
                inv_eps.to_string(),
                r.work().to_string(),
                fmt_f64(r.work() as f64 / n as f64),
                fmt_ratio(r.work() as f64, config.work_envelope()),
            ]
        });
        (loss_row, work_row)
    }) {
        loss.row(loss_row);
        if let Some(row) = work_row {
            work.row(row);
        }
    }
    vec![loss, work]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_stays_within_envelope_scale() {
        let tables = exp_iterative(Scale::Quick);
        let loss = &tables[0];
        for cell in loss.column("loss/envelope") {
            if cell == "-" {
                continue;
            }
            let v: f64 = cell.parse().unwrap();
            assert!(v < 16.0, "loss/envelope {v} far beyond the Thm 6.4 shape");
        }
    }

    #[test]
    fn work_per_job_decreases_with_n() {
        let tables = exp_iterative(Scale::Quick);
        let work = &tables[1];
        // For each (m, 1/eps) group the work/n at the largest n must not
        // exceed that at the smallest n by more than 50% (it should flatten
        // or fall).
        let ns: Vec<u64> = work
            .column("n")
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let ms: Vec<u64> = work
            .column("m")
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let wn: Vec<f64> = work
            .column("work/n")
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        for i in 0..ns.len() {
            for j in 0..ns.len() {
                if ms[i] == ms[j] && ns[j] > ns[i] {
                    assert!(
                        wn[j] <= wn[i] * 1.5,
                        "work/n grew from {} (n={}) to {} (n={})",
                        wn[i],
                        ns[i],
                        wn[j],
                        ns[j]
                    );
                }
            }
        }
    }
}
