//! E8 — real-thread throughput and ordering ablation as a table (the
//! criterion benches measure latency distributions; this table records the
//! safety outcome and aggregate throughput across repetitions).

use std::time::Instant;

use amo_core::{run_threads, KkConfig};
use amo_sim::thread::ThreadSpec;
use amo_sim::MemOrder;

use crate::{fmt_f64, Scale, Table};

/// Runs E8 and returns Table 10.
///
/// Unlike the simulator grids, this experiment is intentionally *not*
/// fanned out with [`crate::par_map`]: every cell spawns a real OS-thread
/// fleet whose interleavings (and throughput numbers) are the measurement,
/// so concurrent cells would both oversubscribe the cores and distort the
/// schedules under test.
pub fn exp_threads(scale: Scale) -> Table {
    let (n, ms, reps): (usize, Vec<usize>, u32) = match scale {
        Scale::Quick => (2048, vec![1, 2, 4], 3),
        Scale::Full => (8192, vec![1, 2, 4, 8, 16], 10),
    };
    let mut t = Table::new(
        "Table 10 (E8): KKβ on real threads — safety and throughput vs m, SeqCst vs AcqRel",
        &[
            "n",
            "m",
            "ordering",
            "runs",
            "violations",
            "min effectiveness",
            "bound",
            "jobs/ms (mean)",
        ],
    );
    for &m in &ms {
        let config = KkConfig::new(n, m).expect("valid");
        for (label, order) in [("seqcst", MemOrder::SeqCst), ("acqrel", MemOrder::AcqRel)] {
            let mut violations = 0usize;
            let mut min_eff = u64::MAX;
            let mut total_jobs = 0u64;
            let started = Instant::now();
            for _ in 0..reps {
                let r = run_threads(&config, &ThreadSpec::new().with_order(order));
                violations += r.violations.len();
                min_eff = min_eff.min(r.effectiveness);
                total_jobs += r.effectiveness;
            }
            let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
            t.row([
                n.to_string(),
                m.to_string(),
                label.to_owned(),
                reps.to_string(),
                violations.to_string(),
                min_eff.to_string(),
                config.effectiveness_bound().to_string(),
                fmt_f64(total_jobs as f64 / elapsed_ms),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqcst_rows_are_safe_and_above_bound() {
        let t = exp_threads(Scale::Quick);
        let orderings = t.column("ordering");
        let violations = t.column("violations");
        let min_eff: Vec<u64> = t
            .column("min effectiveness")
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let bounds: Vec<u64> = t
            .column("bound")
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        for i in 0..orderings.len() {
            if orderings[i] == "seqcst" {
                assert_eq!(violations[i], "0", "SeqCst is the verified configuration");
                assert!(min_eff[i] >= bounds[i]);
            }
        }
    }
}
