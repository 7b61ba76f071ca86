//! Absolute work pins: `(total_steps, reads, writes, local_work,
//! effectiveness)` of small fixed instances, asserted against constants.
//!
//! Every equivalence suite compares two runs of the same build, so a
//! change that drops or doubles a charge in both runs alike passes them
//! all. These constants catch it: the set layer's `ops` charges feed
//! `local_work`, the work measure of Definition 2.5. The instances cover
//! both ways a KKβ process keeps `DONE`:
//!
//! * derived from `FREE` (the initial `FREE` is the whole universe): plain
//!   KKβ on both bitmap backends, the single-step and the batched
//!   epoch-cached engine paths, the `staleness` adversary (which probes
//!   `has_done` to decide when to release its victim) with collision
//!   tracking, and Write-All
//!   on the journaled backend with crash/restart (restarted processes
//!   re-log jobs: this run merges 129 already-merged jobs);
//! * physical (the initial `FREE` is a proper subset): `IterativeKK`, whose
//!   first stage does real work, so later stages start from its output.
//!
//! Debug and release builds pin the same figures: the set layer's debug
//! assertions probe membership off the bitmap, uncharged.
//!
//! A constant moves only with a deliberate change to the algorithm or its
//! accounting, which must update it in the same commit.

use at_most_once::core::{run_scenario_simulated, AmoReport, KkConfig, KkLayout, KkProcess};
use at_most_once::iterative::{run_iterative_scenario, IterConfig};
use at_most_once::ostree::DenseFenwickSet;
use at_most_once::sim::{
    CrashPlan, Engine, EngineLimits, RoundRobin, ScenarioSpec, StorageFault, VecRegisters,
    WithCrashes,
};
use at_most_once::write_all::{run_wa_scenario, WaConfig, WaReport};

#[derive(Debug, PartialEq, Eq)]
struct Work {
    total_steps: u64,
    reads: u64,
    writes: u64,
    local_work: u64,
    effectiveness: u64,
}

fn amo_work(r: &AmoReport) -> Work {
    assert!(r.violations.is_empty(), "at-most-once violated");
    assert!(r.completed, "run hit its step cap");
    Work {
        total_steps: r.total_steps,
        reads: r.mem_work.reads,
        writes: r.mem_work.writes,
        local_work: r.local_work,
        effectiveness: r.effectiveness,
    }
}

/// Write-All's effectiveness is the number of certified array cells.
fn wa_work(r: &WaReport) -> Work {
    assert!(r.completed, "run hit its step cap");
    Work {
        total_steps: r.total_steps,
        reads: r.mem_work.reads,
        writes: r.mem_work.writes,
        local_work: r.local_work,
        effectiveness: (r.certified.n - r.certified.missing.len()) as u64,
    }
}

#[test]
fn plain_kk_dense_single_step() {
    let config = KkConfig::new(600, 4).unwrap();
    let layout = KkLayout::contiguous(4, 600, false);
    let fleet: Vec<KkProcess<DenseFenwickSet>> = (1..=4)
        .map(|pid| KkProcess::from_config(pid, &config, layout))
        .collect();
    let sched = WithCrashes::new(RoundRobin::new(), CrashPlan::none());
    let exec = Engine::new(VecRegisters::new(layout.cells()), fleet, sched)
        .single_step()
        .run(EngineLimits::default());
    assert!(exec.violations().is_empty() && exec.completed);
    let got = Work {
        total_steps: exec.total_steps,
        reads: exec.mem_work.reads,
        writes: exec.mem_work.writes,
        local_work: exec.local_work,
        effectiveness: exec.effectiveness(),
    };
    assert_eq!(
        got,
        Work {
            total_steps: 9592,
            reads: 5388,
            writes: 1200,
            local_work: 46714,
            effectiveness: 600,
        }
    );
}

#[test]
fn plain_kk_fenwick_batched_epoch_cache() {
    let config = KkConfig::new(2_000, 8).unwrap();
    let report = run_scenario_simulated(&config, &ScenarioSpec::round_robin_batched());
    assert_eq!(
        amo_work(&report),
        Work {
            total_steps: 56006,
            reads: 41990,
            writes: 3998,
            local_work: 113737,
            effectiveness: 1994,
        }
    );
}

#[test]
fn staleness_adversary_with_collision_tracking() {
    let config = KkConfig::new(300, 4).unwrap();
    let spec = ScenarioSpec::adversary("staleness").with_collision_tracking();
    let report = run_scenario_simulated(&config, &spec);
    let collisions = report.collisions.as_ref().expect("tracking on");
    assert_eq!(collisions.total(), 4);
    assert_eq!(
        amo_work(&report),
        Work {
            total_steps: 4793,
            reads: 2690,
            writes: 598,
            local_work: 23809,
            effectiveness: 297,
        }
    );
}

#[test]
fn write_all_durable_with_crash_restart() {
    let config = WaConfig::new(2_000, 8, 1).unwrap();
    let mut plan = CrashPlan::none();
    plan.crash(2, 900).restart_after(2, 300);
    plan.crash(5, 2_500).restart_after(5, 700);
    let spec = ScenarioSpec::random(7)
        .durable(StorageFault::TruncatedLog, 3)
        .with_crash_plan(plan);
    let report = run_wa_scenario(&config, &spec);
    assert!(report.complete, "Write-All incomplete");
    assert_eq!(report.restarted.len(), 2);
    assert_eq!(
        wa_work(&report),
        Work {
            total_steps: 60211,
            reads: 43030,
            writes: 7369,
            local_work: 178956,
            effectiveness: 2000,
        }
    );
}

#[test]
fn iterative_kk_with_a_working_first_stage() {
    // Stage sizes 64, 32, 1 over 2,000 jobs: the first stage's 32 blocks
    // exceed β = 27, so it performs and later stages start from its
    // output. Under this schedule later stages also merge 128 foreign jobs
    // outside their initial FREE.
    let config = IterConfig::new(2_000, 3, 1).unwrap();
    let spec = ScenarioSpec::random(5).with_quantum(64);
    let report = run_iterative_scenario(&config, &spec);
    assert_eq!(
        amo_work(&report),
        Work {
            total_steps: 12031,
            reads: 6015,
            writes: 1709,
            local_work: 33886,
            effectiveness: 1909,
        }
    );
}
