//! # at-most-once
//!
//! A production-quality Rust implementation of
//! *"Solving the At-Most-Once Problem with Nearly Optimal Effectiveness"*
//! (Sotirios Kentros, Aggelos Kiayias).
//!
//! The **at-most-once problem**: `m` asynchronous, crash-prone processes
//! must cooperatively perform `n` jobs, communicating only through atomic
//! read/write shared memory, such that **no job is ever performed twice** —
//! while performing as many jobs as possible (*effectiveness*).
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`ostree`] — order-statistics sets (`rank`/`select`), the paper's
//!   tree-structure substrate.
//! * [`sim`] — the asynchronous shared-memory substrate: registers,
//!   automatons, adversarial schedulers, crash injection, verification, an
//!   exhaustive explorer, and a real-thread runtime.
//! * [`core`] — the paper's primary contribution: the wait-free
//!   deterministic **KKβ** algorithm (effectiveness `n − (β + m − 2)`).
//! * [`iterative`] — **IterativeKK(ε)**: the iterated, work-optimal version.
//! * [`write_all`] — **WA_IterativeKK(ε)** for the Write-All problem, plus
//!   baselines.
//! * [`baselines`] — at-most-once comparators (trivial split, two-process
//!   optimal, test-and-set, ...).
//! * [`serve`] — the job-claim **service façade**: a long-running server
//!   answering streams of claim requests from an erased, possibly
//!   heterogeneous fleet over real atomics, with bounded admission and a
//!   runtime at-most-once audit.
//!
//! # Quick start
//!
//! Run the KKβ algorithm on real threads:
//!
//! ```
//! use at_most_once::core::{KkConfig, run_threads};
//! use at_most_once::sim::thread::ThreadSpec;
//!
//! let config = KkConfig::new(256, 4).expect("valid config");
//! let report = run_threads(&config, &ThreadSpec::new());
//! assert!(report.violations.is_empty());
//! // Effectiveness is at least n - (beta + m - 2) = 256 - (4 + 4 - 2).
//! assert!(report.effectiveness >= config.effectiveness_bound());
//! ```
//!
//! Or deterministically in the simulator, under an adversarial scheduler:
//!
//! ```
//! use at_most_once::core::{KkConfig, run_scenario_simulated};
//! use at_most_once::sim::ScenarioSpec;
//!
//! let config = KkConfig::new(64, 3).expect("valid config");
//! let report = run_scenario_simulated(&config, &ScenarioSpec::random(7));
//! assert!(report.violations.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use amo_baselines as baselines;
pub use amo_core as core;
pub use amo_iterative as iterative;
pub use amo_ostree as ostree;
pub use amo_serve as serve;
pub use amo_sim as sim;
pub use amo_write_all as write_all;
