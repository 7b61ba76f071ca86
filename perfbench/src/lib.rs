//! End-to-end and per-layer benchmark of the at-most-once workspace.
//!
//! One command runs one named workload from a seed, checks that its
//! outputs are correct and prints its metrics; see `README.md` for the
//! workloads, the metrics and which layer each per-layer metric should
//! move. The benchmark calls only public APIs of the workspace crates.

pub mod kk_mega;
pub mod report;
pub mod serve_claims;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod wa_durable;
pub mod yardstick;

use kk_mega::KkMega;
use report::Outcome;
use serve_claims::ServeClaims;
use wa_durable::{WaDurable, WaRun};

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["kk_mega_rr", "wa_random_durable", "serve_claims"];

/// Instance sizes: the benchmark's own, or toy ones for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// Small sizes for the benchmark's own tests.
    Toy,
}

/// Runs `workload` from `seed` for about `seconds`, traced or not.
///
/// Returns `None` for an unknown workload name.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool, scale: Scale) -> Option<Outcome> {
    let full = scale == Scale::Full;
    let mut out = Outcome::new();
    match workload {
        "kk_mega_rr" => {
            let sim = if full { KkMega::FULL } else { KkMega::TOY };
            if traced {
                sim::measure_traced(&sim, seconds, &mut out);
            } else {
                sim::measure(&sim, seconds, &mut out);
            }
        }
        "wa_random_durable" => {
            let sim = WaRun::new(
                if full {
                    WaDurable::FULL
                } else {
                    WaDurable::TOY
                },
                seed,
            );
            if traced {
                sim::measure_traced(&sim, seconds, &mut out);
            } else {
                sim::measure(&sim, seconds, &mut out);
            }
        }
        "serve_claims" => {
            let shape = if full {
                ServeClaims::FULL
            } else {
                ServeClaims::TOY
            };
            if traced {
                serve_claims::measure_traced(&shape, seconds, &mut out);
            } else {
                serve_claims::measure(&shape, seconds, &mut out);
            }
        }
        _ => return None,
    }
    Some(out)
}
