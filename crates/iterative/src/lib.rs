//! **IterativeKK(ε)** — the iterated, work-optimal at-most-once algorithm
//! (paper §6, Fig. 3).
//!
//! Plain KKβ with `β = 3m²` has work `O(n·m·log n·log m)` (Theorem 5.6) —
//! a factor `m·log n·log m` away from optimal. IterativeKK removes it by
//! running KKβ over **super-jobs**: blocks of consecutive jobs performed as
//! a unit. Early stages use large blocks (so the per-block overhead is paid
//! `n / size` times instead of `n` times); each stage hands the blocks it
//! could not certify to a finer-grained stage, and the final stage runs on
//! single jobs.
//!
//! Stage `k` runs `IterStepKK`: KKβ plus a shared *termination flag* — the
//! first process that runs out of candidates raises it, every process
//! re-reads it before each `do`, and a terminating process performs a final
//! gather and outputs `FREE \ TRY` as its input for the next stage.
//!
//! With the paper's stage schedule (`m·log n·log m`, then
//! `m^{1−iε}·log n·log^{1+i} m` for `i = 1..1/ε`, then `1`), the algorithm
//! has effectiveness `n − O(m²·log n·log m)` and work
//! `O(n + m^{3+ε}·log n)` (Theorem 6.4) — both optimal for
//! `m = O((n / log n)^{1/(3+ε)})`.
//!
//! Implementation deviation D3 (DESIGN.md): stage sizes are rounded to
//! powers of two so blocks of successive stages nest exactly; this changes
//! each size by < 2× and preserves the asymptotics, while guaranteeing that
//! re-blocking can never split a half-performed block.
//!
//! # Examples
//!
//! ```
//! use amo_iterative::{run_iterative_scenario, IterConfig};
//! use amo_sim::ScenarioSpec;
//!
//! let config = IterConfig::new(2_000, 3, 1)?; // n, m, 1/ε
//! let report = run_iterative_scenario(&config, &ScenarioSpec::random(7));
//! assert!(report.violations.is_empty());
//! assert!(report.effectiveness >= config.effectiveness_floor());
//! # Ok::<(), amo_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod layout;
mod process;
mod runner;
mod schedule;
mod superjob;

pub use layout::{IterLayout, StageInfo};
pub use process::IterativeProcess;
pub use runner::{iter_fleet, run_iterative_scenario, run_iterative_threads, IterConfig};
pub use schedule::stage_sizes;
pub use superjob::{block_count, block_span, map_blocks};
