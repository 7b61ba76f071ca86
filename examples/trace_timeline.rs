//! Records an execution trace of KKβ and renders it as per-process ASCII
//! lanes — the debugging view of the model's interleavings.
//!
//! Legend: `.` local, `r` read, `c` a read the batched path skips, `W`
//! write, `!` perform (`do`), `#` done, `✗` crash.
//!
//! ```bash
//! cargo run --release --example trace_timeline
//! ```

use at_most_once::core::{kk_fleet, KkConfig};
use at_most_once::sim::{
    render_timeline, CrashPlan, Engine, EngineLimits, RoundRobin, VecRegisters, WithCrashes,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = KkConfig::new(8, 3)?;
    let (layout, fleet) = kk_fleet(&config, false);
    let mem = VecRegisters::new(layout.cells());

    // Crash process 2 a dozen actions in, and trace everything.
    let sched = WithCrashes::new(RoundRobin::new(), CrashPlan::at_steps([(2usize, 12u64)]));
    let exec = Engine::new(mem, fleet, sched)
        .with_trace(400)
        .run(EngineLimits::default());

    println!(
        "n = {}, m = {}, crash plan: p2 after 12 actions\n",
        config.n(),
        config.m()
    );
    println!("{}", render_timeline(&exec.trace, config.m(), 100));
    println!("effectiveness : {} / {}", exec.effectiveness(), config.n());
    println!("violations    : {}", exec.violations().len());
    println!("crashed       : {:?}", exec.crashed);

    assert!(exec.violations().is_empty());
    Ok(())
}
