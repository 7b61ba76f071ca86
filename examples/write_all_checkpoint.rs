//! Write-All in anger: initialising a checkpoint bitmap with crash-prone
//! workers (§7 / Theorem 7.1), certified, and compared against a
//! test-and-set baseline.
//!
//! A recovery manager must mark every one of `n` checkpoint slots before
//! the system can restart. Workers crash; the bitmap must still end up
//! complete, and we want to know the total work bill.
//!
//! ```bash
//! cargo run --release --example write_all_checkpoint
//! ```

use at_most_once::sim::{CrashPlan, ScenarioSpec};
use at_most_once::write_all::{run_baseline_scenario, run_wa_scenario, WaBaselineKind, WaConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let slots = 4096;
    let workers = 4;
    let crash_plan = CrashPlan::at_steps([(1usize, 100u64), (2, 2_000), (3, 9_000)]);

    let config = WaConfig::new(slots, workers, 1)?;
    let wa = run_wa_scenario(
        &config,
        &ScenarioSpec::random(7).with_crash_plan(crash_plan.clone()),
    );

    let tas = run_baseline_scenario(
        WaBaselineKind::Tas,
        slots,
        workers,
        &ScenarioSpec::random(7).with_crash_plan(crash_plan.clone()),
    );
    let static_split = run_baseline_scenario(
        WaBaselineKind::StaticPartition,
        slots,
        workers,
        &ScenarioSpec::random(7).with_crash_plan(crash_plan),
    );

    println!("checkpoint bitmap: {slots} slots, {workers} workers, 3 crashes\n");
    println!("algorithm          complete  work      redundancy  primitive");
    for r in [&wa, &tas, &static_split] {
        println!(
            "{:<18} {:<9} {:<9} {:<11.2} {}",
            r.label,
            r.complete,
            r.work(),
            r.redundancy(),
            if r.mem_work.rmws > 0 {
                "test-and-set"
            } else {
                "read/write"
            },
        );
    }

    assert!(
        wa.complete,
        "Theorem 7.1: WA_IterativeKK must certify complete"
    );
    assert!(
        !static_split.complete,
        "the fault-intolerant split must fail here"
    );
    println!(
        "\nWA_IterativeKK certified all {slots} slots using plain reads/writes — \
         no test-and-set hardware required."
    );
    Ok(())
}
