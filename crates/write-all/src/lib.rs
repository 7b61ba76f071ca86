//! **WA_IterativeKK(ε)** — the Write-All algorithm of paper §7 (Fig. 4) —
//! plus read/write and test-and-set baselines and a completeness certifier.
//!
//! The Write-All problem (Kanellakis & Shvartsman): *"using m processors,
//! write 1's to all locations of an array of size n"*, despite up to
//! `m − 1` crash-stop failures. Unlike at-most-once, duplicated writes are
//! allowed — the challenge is completing all of them with low total work.
//!
//! `WA_IterativeKK(ε)` is `IterativeKK(ε)` with two changes (§7):
//!
//! 1. every stage outputs `FREE` instead of `FREE \ TRY` (nothing may be
//!    dropped just because somebody announced it), and
//! 2. after the last stage, each process simply performs every job left in
//!    its final output set (Fig. 4 lines 14–16) — possibly redundantly.
//!
//! Work is `O(n + m^{3+ε}·log n)` (Theorem 7.1): work-optimal for
//! `m = O((n / log n)^{1/(3+ε)})`, improving the range of Malewicz's
//! algorithm and — unlike it — using no test-and-set.
//!
//! # Baselines
//!
//! * [`SequentialWa`] — one process, `n` writes (the absolute floor).
//! * [`StaticPartitionWa`] — split `n/m`, no fault tolerance: *fails* to
//!   complete under crashes (shown in experiment E5).
//! * [`TasWa`] — test-and-set claiming, standing in for Malewicz's
//!   TAS-based algorithm (DESIGN.md substitution table).
//! * [`PermutationScanWa`] — Anderson–Woll-flavoured: every process covers
//!   all of `1..=n` in its own seeded random permutation, checking before
//!   writing. Random permutations substitute for the contention-optimal
//!   deterministic ones, which are not constructible in polynomial time
//!   (paper §1).
//!
//! # Examples
//!
//! ```
//! use amo_sim::ScenarioSpec;
//! use amo_write_all::{run_wa_scenario, WaConfig};
//!
//! let config = WaConfig::new(1_000, 3, 1)?;
//! let report = run_wa_scenario(&config, &ScenarioSpec::random(3));
//! assert!(report.complete, "all n cells written");
//! # Ok::<(), amo_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
mod certify;
mod runner;
mod wa;

pub use baselines::{PermutationScanWa, SequentialWa, StaticPartitionWa, TasWa};
pub use certify::{certify, CertifyOutcome};
pub use runner::{
    run_baseline_scenario, run_baseline_threads, run_wa_scenario, run_wa_threads, WaBaselineKind,
    WaConfig, WaReport,
};
pub use wa::{WaIterativeProcess, WaLayout};
