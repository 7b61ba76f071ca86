//! The paper's §1 motivation, executably: jobs whose duplication is a
//! *safety hazard* — firing an X-ray gun, administering a dose.
//!
//! A clinic has `n` scheduled exposures; `m` redundant controller processes
//! cooperate so that a crashed controller never blocks the schedule, while
//! the at-most-once guarantee ensures **no patient is ever exposed twice**,
//! no matter how the controllers interleave or fail.
//!
//! The `do` action here triggers a (simulated) exposure through the perform
//! ledger; two controllers are crash-injected mid-session.
//!
//! ```bash
//! cargo run --release --example xray_clinic
//! ```

use std::collections::HashMap;

use at_most_once::core::{run_threads, KkConfig};
use at_most_once::sim::thread::ThreadSpec;
use at_most_once::sim::CrashPlan;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exposures = 120; // scheduled doses
    let controllers = 6;
    let config = KkConfig::new(exposures, controllers)?;

    // Two controllers fail mid-session (crash-stop, like a watchdog reset).
    // Budgets are in *actions*; one job cycle is ≈ 2m + 5 actions, so these
    // land a few exposures into the session.
    let spec = ThreadSpec::new().with_crash_plan(CrashPlan::at_steps([(2usize, 40u64), (5, 90)]));
    let report = run_threads(&config, &spec);

    // Replay the perform ledger as the exposure log.
    let mut fired: HashMap<u64, u32> = HashMap::new();
    for (controller, span) in &report.performed {
        for dose in span.jobs() {
            *fired.entry(dose).or_insert(0) += 1;
            let _ = controller; // a real system would log who fired
        }
    }

    let double_exposures = fired.values().filter(|&&c| c > 1).count();
    let missed = exposures as u64 - report.effectiveness;

    println!(
        "controllers          : {controllers} (crashed: {:?})",
        report.crashed
    );
    println!(
        "exposures delivered  : {} / {exposures}",
        report.effectiveness
    );
    println!("double exposures     : {double_exposures} (MUST be 0)");
    println!(
        "missed (rescheduled) : {missed} — bounded by β + m − 2 + crashes = {}",
        config.n() as u64 - config.effectiveness_bound()
    );

    // Safety first: a duplicate exposure is the catastrophic outcome the
    // at-most-once semantic exists to prevent.
    assert_eq!(double_exposures, 0);
    assert!(report.violations.is_empty());
    // Liveness: surviving controllers delivered nearly everything.
    assert!(report.effectiveness >= config.effectiveness_bound());
    println!("session certified: no duplicates, schedule nearly complete");
    Ok(())
}
