//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints human-readable detail followed, as the
//! last line, by one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Exits 1 when a correctness check failed and 2 on bad arguments. A flag
//! given twice takes its last value.

use std::process::ExitCode;

use amo_perfbench::report::{END_TO_END, PER_LAYER};
use amo_perfbench::{run, Scale, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let Some(mut outcome) = run(
        &args.workload,
        args.seed,
        args.seconds,
        args.traced,
        Scale::Full,
    ) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let catalogue = if args.traced { PER_LAYER } else { END_TO_END };
    let line = outcome.render(catalogue, !args.traced);
    println!(
        "operations attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{line}");
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
