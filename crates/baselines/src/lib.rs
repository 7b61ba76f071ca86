//! At-most-once comparators for the KKβ evaluation (experiment E6).
//!
//! Every algorithm here solves (or approximates a solution to) the
//! at-most-once problem of §2.2, with a different position in the
//! effectiveness/primitive trade-off space:
//!
//! | algorithm | registers | worst-case effectiveness |
//! |---|---|---|
//! | [`TrivialSplit`] | R/W | `(m − f) · ⌊n / m⌋` (§2.2) |
//! | [`TwoProcess`] (`m = 2`) | R/W | `n − 1` — optimal (\[26\]'s building block) |
//! | [`PairsHybrid`] | R/W | loses whole chunks when a pair crashes |
//! | [`TasAmo`] | RMW (test-and-set) | `n − f` — the Theorem 2.1 optimum, but needs stronger primitives (§1's remark) |
//! | `RandomizedKk` (ablation) | R/W | as KKβ; random candidate picks ([`amo_core::PickRule`]) |
//!
//! KKβ dominates every read/write comparator here in worst-case
//! effectiveness for `m > 2`; `TasAmo` shows what the stronger primitive
//! buys. `PairsHybrid` composes the optimal two-process algorithm the way
//! the prior deterministic work \[26\] composes its building blocks — a
//! faithful-in-spirit stand-in, since \[26\]'s full construction is not in
//! the provided text (see DESIGN.md substitutions).
//!
//! # Examples
//!
//! ```
//! use amo_baselines::{run_baseline_scenario, AmoBaselineKind};
//! use amo_sim::ScenarioSpec;
//!
//! let spec = ScenarioSpec::round_robin();
//! let report = run_baseline_scenario(AmoBaselineKind::TrivialSplit, 100, 4, &spec);
//! assert!(report.violations.is_empty());
//! assert_eq!(report.effectiveness, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pairs;
mod randomized;
mod runner;
mod tas;
mod trivial;
mod two_process;

pub use pairs::PairsHybrid;
pub use randomized::randomized_kk_fleet;
pub use runner::{run_baseline_scenario, run_baseline_threads, AmoBaselineKind};
pub use tas::TasAmo;
pub use trivial::TrivialSplit;
pub use two_process::{TwoProcess, TwoProcessRole};
