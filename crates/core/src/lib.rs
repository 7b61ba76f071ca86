//! The **KKβ** algorithm — the primary contribution of
//! *"Solving the At-Most-Once Problem with Nearly Optimal Effectiveness"*
//! (Kentros & Kiayias).
//!
//! # The problem
//!
//! `m` asynchronous, crash-prone processes must perform `n ≥ m` jobs,
//! communicating only through atomic read/write registers, such that **no
//! job is ever performed twice** (Definition 2.2). *Effectiveness* counts
//! the jobs performed in the worst case (Definition 2.4); no algorithm can
//! exceed `n − f` where `f` is the number of crashes (Theorem 2.1).
//!
//! # The algorithm
//!
//! KKβ (paper Fig. 1–2) is wait-free and deterministic. Each process
//!
//! 1. picks a candidate job by *rank-splitting* the currently free jobs into
//!    `m` intervals and taking the first job of its own interval
//!    (`compNext`),
//! 2. announces it in its single-writer `next` register (`setNext`),
//! 3. collects every other process's announcement (`gatherTry`) and
//!    completed-job log (`gatherDone`),
//! 4. performs the job only if nobody else announced or completed it
//!    (`check` → `do`), then logs it (`done`) and repeats.
//!
//! A process terminates when fewer than `β` candidate jobs remain. The
//! results reproduced by this crate's test-and-bench suite:
//!
//! * **Safety** (Lemma 4.1): at-most-once in every execution.
//! * **Effectiveness** (Theorem 4.4): exactly `n − (β + m − 2)` in the worst
//!   case, for any `β ≥ m` — optimal up to an additive `m` for `β = m`.
//! * **Work** (Theorem 5.6): `O(n·m·log n·log m)` for `β ≥ 3m²`.
//!
//! # Examples
//!
//! ```
//! use amo_core::{run_scenario_simulated, KkConfig};
//! use amo_sim::ScenarioSpec;
//!
//! let config = KkConfig::new(100, 4)?; // n = 100 jobs, m = 4 processes, β = m
//! let report = run_scenario_simulated(&config, &ScenarioSpec::random(42));
//! assert!(report.violations.is_empty());
//! assert!(report.effectiveness >= config.effectiveness_bound());
//! # Ok::<(), amo_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod config;
mod kk;
mod layout;
mod runner;
mod stats;

pub use adversary::{
    generic_adversary, LockstepScheduler, StalenessAdversary, StuckAnnouncementAdversary,
};
pub use config::{ConfigError, KkConfig};
pub use kk::{KkMode, KkPhase, KkProcess, PickRule, SpanMap};
pub use layout::KkLayout;
pub use runner::{
    kk_fleet, kk_fleet_with, run_fleet_simulated, run_scenario_simulated, run_threads, AmoReport,
};
pub use stats::CollisionMatrix;
