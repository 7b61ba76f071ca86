//! Robotic assembly line under an adversarial scheduler: compares KKβ with
//! the trivial static split when robots crash (§1's production-line story).
//!
//! Each of the `n` jobs is one weld that must not be repeated (a second
//! weld ruins the part). With a static assignment, a crashed robot's whole
//! queue is lost; KKβ redistributes on the fly — at the cost of a bounded
//! `β + m − 2` window of unwelded parts.
//!
//! ```bash
//! cargo run --release --example assembly_line
//! ```

use at_most_once::baselines::{run_baseline_scenario, AmoBaselineKind};
use at_most_once::core::{run_scenario_simulated, KkConfig};
use at_most_once::sim::{CrashPlan, ScenarioSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let welds = 600;
    let robots = 6;
    let failures = 3; // three robots will crash mid-shift

    let crash_plan = CrashPlan::at_steps([(1usize, 80u64), (3, 500), (4, 1200)]);

    // KKβ with β = m.
    let config = KkConfig::new(welds, robots)?;
    let kk = run_scenario_simulated(
        &config,
        &ScenarioSpec::random(2024).with_crash_plan(crash_plan.clone()),
    );

    // The same shift with a static job split.
    let trivial = run_baseline_scenario(
        AmoBaselineKind::TrivialSplit,
        welds,
        robots,
        &ScenarioSpec::random(2024).with_crash_plan(crash_plan),
    );

    println!("shift: {welds} welds, {robots} robots, {failures} crashes\n");
    println!("                     KKβ      static-split");
    println!(
        "welds completed     {:>5}      {:>5}",
        kk.effectiveness, trivial.effectiveness
    );
    println!(
        "double welds        {:>5}      {:>5}",
        kk.violations.len(),
        trivial.violations.len()
    );
    println!(
        "worst-case floor    {:>5}      {:>5}",
        config.effectiveness_bound(),
        config.trivial_split_effectiveness(failures)
    );

    assert!(kk.violations.is_empty() && trivial.violations.is_empty());
    assert!(
        kk.effectiveness >= trivial.effectiveness,
        "dynamic reassignment must not lose to a static split under crashes"
    );
    println!("\nKKβ recovered the crashed robots' queues; the static split could not.");
    Ok(())
}
