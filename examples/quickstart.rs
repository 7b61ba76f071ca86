//! Quickstart: run the KKβ at-most-once algorithm — deterministically
//! under a declarative [`ScenarioSpec`], then on real threads.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use at_most_once::core::{run_scenario_simulated, run_threads, KkConfig};
use at_most_once::sim::thread::ThreadSpec;
use at_most_once::sim::ScenarioSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 256 jobs, 8 processes, β = m (the effectiveness-optimal setting).
    let config = KkConfig::new(256, 8)?;

    // One ScenarioSpec describes the whole simulated environment —
    // scheduler, quantum, crash plan, caches — and the same spec shape
    // drives every algorithm in this workspace, not just KKβ.
    let spec = ScenarioSpec::random(2024).with_quantum(64);
    let sim = run_scenario_simulated(&config, &spec);
    println!("deterministic simulation ({} schedule):", spec.label());
    println!("  jobs performed : {} / {}", sim.effectiveness, config.n());
    println!("  violations     : {} (must be 0)", sim.violations.len());
    assert!(sim.violations.is_empty(), "at-most-once must hold");
    assert!(sim.effectiveness >= config.effectiveness_bound());

    // The same fleet on OS threads over hardware atomics.
    let report = run_threads(&config, &ThreadSpec::new());
    println!("\nreal threads:");
    println!(
        "  jobs performed : {} / {}",
        report.effectiveness,
        config.n()
    );
    println!("  violations     : {} (must be 0)", report.violations.len());
    println!(
        "  guarantee      : ≥ {} in the worst case (Theorem 4.4: n − (β + m − 2))",
        config.effectiveness_bound()
    );
    println!(
        "  work           : {} shared ops + {} local basic ops",
        report.mem_work.total(),
        report.local_work
    );

    assert!(report.violations.is_empty(), "at-most-once must hold");
    assert!(report.effectiveness >= config.effectiveness_bound());
    Ok(())
}
