//! E3 — Theorem 5.6: for `β = 3m²`, work is `O(n·m·log n·log m)`.
//!
//! Work is *measured*, not estimated: shared reads/writes from the register
//! file plus the exact elementary iterations of the Fenwick set structures
//! (Definition 2.5). The table reports the normalised ratio
//! `work / (n·m·log₂n·log₂m)`; the theorem predicts it stays bounded by a
//! constant as `n` and `m` grow (the column must not trend upward).

use amo_core::KkConfig;
use amo_sim::{ScenarioSpec, SchedulerSpec};

use crate::run_simulated_pooled;

use crate::{fmt_f64, fmt_ratio, par_map, Scale, Table};

/// Runs E3 and returns Table 3.
pub fn exp_work_kk(scale: Scale) -> Table {
    let (ns, ms): (Vec<usize>, Vec<usize>) = match scale {
        Scale::Quick => (vec![1 << 10, 1 << 12], vec![2, 4]),
        Scale::Full => (vec![1 << 10, 1 << 12, 1 << 14, 1 << 16], vec![2, 4, 8]),
    };
    let mut t = Table::new(
        "Table 3 (E3, Thm 5.6): measured work of KK(3m²) vs the n·m·log n·log m envelope",
        &[
            "n",
            "m",
            "beta=3m^2",
            "sched",
            "shared ops",
            "local ops",
            "work",
            "work/envelope",
            "work/n",
        ],
    );
    let mut cells = Vec::new();
    for &n in &ns {
        for &m in &ms {
            let beta = KkConfig::work_optimal_beta(m);
            if beta + m as u64 >= n as u64 {
                continue;
            }
            for spec in [ScenarioSpec::round_robin(), ScenarioSpec::block(0xE3, 32)] {
                cells.push((n, m, beta, spec));
            }
        }
    }
    for row in par_map(cells, |(n, m, beta, spec)| {
        let config = KkConfig::with_beta(n, m, beta).expect("valid");
        let label = match spec.scheduler {
            SchedulerSpec::RoundRobin => "round-robin",
            _ => "block(32)",
        };
        let r = run_simulated_pooled(&config, &spec);
        assert!(r.violations.is_empty(), "E3 safety");
        let work = r.work();
        [
            n.to_string(),
            m.to_string(),
            beta.to_string(),
            label.to_owned(),
            r.mem_work.total().to_string(),
            r.local_work.to_string(),
            work.to_string(),
            fmt_ratio(work as f64, config.work_envelope()),
            fmt_f64(work as f64 / n as f64),
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
    fn normalised_work_stays_bounded() {
        let t = exp_work_kk(Scale::Quick);
        assert!(!t.is_empty());
        for cell in t.column("work/envelope") {
            let v: f64 = cell.parse().unwrap();
            // The theorem allows any constant; 64 is far above what the
            // implementation actually produces (≈ 1–3) and guards against
            // asymptotic regressions.
            assert!(v < 64.0, "normalised work {v} suspiciously high");
            assert!(v > 0.0);
        }
    }
}
