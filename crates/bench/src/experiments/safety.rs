//! E2 — Lemma 4.1: at-most-once across execution classes.
//!
//! Four classes of executions are swept, and the table reports the number
//! of executions and the total violations found (which must be zero):
//!
//! 1. seeded random schedules × random crash plans (simulator);
//! 2. adversarial bursty schedules;
//! 3. real-thread executions (SeqCst) with crash injection;
//! 4. exhaustive exploration of small instances (every schedule and crash
//!    pattern — the machine-checked version of the lemma).

use amo_core::{kk_fleet, run_threads, KkConfig};

use crate::run_simulated_pooled;
use amo_sim::thread::ThreadSpec;
use amo_sim::{explore, CrashPlan, ExploreConfig, ScenarioSpec, VecRegisters};

use crate::{par_map, Scale, Table};

/// Runs E2 and returns Table 2.
pub fn exp_safety(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 2 (E2, Lemma 4.1): at-most-once violations by execution class (must all be 0)",
        &[
            "class",
            "instances",
            "executions",
            "jobs performed",
            "violations",
        ],
    );
    let (rand_runs, thread_runs) = match scale {
        Scale::Quick => (60, 8),
        Scale::Full => (600, 64),
    };

    // Class 1: random schedules × crash plans (independent sims — fan out).
    {
        let instances = [(64usize, 2usize), (96, 3), (128, 4), (192, 8)];
        let mut cells = Vec::new();
        for &(n, m) in &instances {
            for seed in 0..rand_runs {
                cells.push((n, m, seed));
            }
        }
        let results = par_map(cells, |(n, m, seed)| {
            let config = KkConfig::new(n, m).unwrap();
            let f = (seed as usize) % m;
            let plan = CrashPlan::at_steps((1..=f).map(|p| (p, seed * 13 + p as u64 * 7)));
            let r =
                run_simulated_pooled(&config, &ScenarioSpec::random(seed).with_crash_plan(plan));
            (r.effectiveness, r.violations.len() as u64)
        });
        let execs = results.len() as u64;
        let jobs: u64 = results.iter().map(|&(j, _)| j).sum();
        let violations: u64 = results.iter().map(|&(_, v)| v).sum();
        t.row([
            "random × crashes".to_owned(),
            instances.len().to_string(),
            execs.to_string(),
            jobs.to_string(),
            violations.to_string(),
        ]);
    }

    // Class 2: bursty adversarial schedules (independent sims — fan out).
    {
        let results = par_map((0..rand_runs / 2).collect(), |seed| {
            let config = KkConfig::new(128, 4).unwrap();
            let r = run_simulated_pooled(&config, &ScenarioSpec::block(seed, 1 + seed % 64));
            (r.effectiveness, r.violations.len() as u64)
        });
        let execs = results.len() as u64;
        let jobs: u64 = results.iter().map(|&(j, _)| j).sum();
        let violations: u64 = results.iter().map(|&(_, v)| v).sum();
        t.row([
            "bursty blocks".to_owned(),
            "1".to_owned(),
            execs.to_string(),
            jobs.to_string(),
            violations.to_string(),
        ]);
    }

    // Class 3: real threads (SeqCst) with crash injection. Deliberately
    // sequential: each run already saturates the cores with its own fleet,
    // and overlapping fleets would distort the interleavings under test.
    {
        let mut execs = 0u64;
        let mut jobs = 0u64;
        let mut violations = 0u64;
        for run in 0..thread_runs {
            let m = 2 + (run as usize % 7);
            let config = KkConfig::new(64 * m, m).unwrap();
            let f = run as usize % m;
            let plan = CrashPlan::at_steps((1..=f).map(|p| (p, run * 29 + p as u64 * 17)));
            let r = run_threads(&config, &ThreadSpec::new().with_crash_plan(plan));
            execs += 1;
            jobs += r.effectiveness;
            violations += r.violations.len() as u64;
        }
        t.row([
            "threads (SeqCst)".to_owned(),
            thread_runs.to_string(),
            execs.to_string(),
            jobs.to_string(),
            violations.to_string(),
        ]);
    }

    // Class 4: exhaustive exploration of small instances.
    {
        let small: &[(usize, usize, usize)] = match scale {
            Scale::Quick => &[(3, 2, 1)],
            Scale::Full => &[(3, 2, 1), (4, 2, 1), (3, 3, 2)],
        };
        let results = par_map(small.to_vec(), |(n, m, f)| {
            let config = KkConfig::new(n, m).unwrap();
            let (layout, fleet) = kk_fleet(&config, false);
            let out = explore(
                VecRegisters::new(layout.cells()),
                fleet,
                ExploreConfig {
                    max_crashes: f,
                    max_states: 6_000_000,
                    ..Default::default()
                },
            );
            (
                out.states_visited as u64,
                u64::from(out.violation.is_some()),
            )
        });
        let instances = results.len() as u64;
        let states: u64 = results.iter().map(|&(s, _)| s).sum();
        let violations: u64 = results.iter().map(|&(_, v)| v).sum();
        t.row([
            "exhaustive (all schedules)".to_owned(),
            instances.to_string(),
            format!("{states} states"),
            "-".to_owned(),
            violations.to_string(),
        ]);
    }

    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_reports_zero_violations() {
        let t = exp_safety(Scale::Quick);
        assert_eq!(t.len(), 4, "four execution classes");
        for v in t.column("violations") {
            assert_eq!(v, "0");
        }
    }
}
