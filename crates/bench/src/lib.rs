//! Experiment harness: regenerates every quantitative claim of the paper as
//! a measured table (see DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results).
//!
//! Each `exp_*` function returns [`Table`]s; the binaries under `src/bin/`
//! print them (`cargo run --release -p amo-bench --bin exp_all`), and the
//! criterion benches under `benches/` measure wall-clock on real threads.
//!
//! Every experiment takes a [`Scale`]: [`Scale::Quick`] keeps the harness
//! runnable in CI and in `#[test]`s; [`Scale::Full`] is the configuration
//! whose output is recorded in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod table;

pub mod experiments;
pub mod gate;
pub mod mem;

pub use table::{fmt_f64, fmt_ratio, Table};

/// Runs a simulated KKβ instance through this worker thread's
/// [`FleetArena`](amo_core::FleetArena): consecutive grid cells on one
/// worker reuse the same warm register buffer instead of mapping a fresh
/// `m + m·n`-cell file per simulation and faulting in every page it
/// writes — the struct-of-arrays arena locality the experiment grids run
/// on.
pub fn run_simulated_pooled(
    config: &amo_core::KkConfig,
    spec: &amo_sim::ScenarioSpec,
) -> amo_core::AmoReport {
    use std::cell::RefCell;
    thread_local! {
        static ARENA: RefCell<amo_core::FleetArena> =
            RefCell::new(amo_core::FleetArena::new());
    }
    ARENA.with(|a| amo_core::run_scenario_simulated_in(&mut a.borrow_mut(), config, spec))
}

/// Maps `f` over `items` on scoped OS threads, preserving input order.
///
/// Every grid cell of an experiment is an independent deterministic
/// simulation, so the experiment harnesses fan their grids out across the
/// machine's cores and emit rows in the original, deterministic order.
/// Falls back to a plain sequential map when the machine reports a single
/// core or the input is trivial.
///
/// Grid parallelism and shard parallelism share one thread abstraction —
/// [`amo_sim::pool`] — so nested use (a sharded simulation inside a grid
/// cell, or a grid fanned out from a shard worker) runs inline instead of
/// oversubscribing cores.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    amo_sim::pool::par_map(amo_sim::pool::effective_parallelism(), items, f)
}

/// Experiment scale: parameter grids for CI vs the recorded runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small grids (seconds): used by tests and smoke runs.
    Quick,
    /// The full grids recorded in EXPERIMENTS.md (minutes).
    Full,
}

impl Scale {
    /// Parses `--quick`/`--full` style argv; defaults to `Full`.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        for a in args {
            if a == "--quick" || a == "-q" {
                return Scale::Quick;
            }
        }
        Scale::Full
    }

    /// `true` for [`Scale::Quick`].
    pub fn is_quick(self) -> bool {
        self == Scale::Quick
    }
}

/// The [`Scale`] parsed from this process's argv — the shared
/// `--quick`/`-q` prologue of every experiment and bench binary.
pub fn cli_scale() -> Scale {
    Scale::from_args(std::env::args().skip(1))
}

/// Shared entry point of the `exp_*` binaries: parses the scale from argv
/// ([`cli_scale`]), runs the experiment, prints every table it returns, and
/// logs the elapsed wall-clock to stderr.
///
/// # Examples
///
/// ```no_run
/// amo_bench::experiment_main("exp_safety", |s| [amo_bench::experiments::exp_safety(s)]);
/// ```
pub fn experiment_main<I>(name: &str, run: impl FnOnce(Scale) -> I)
where
    I: IntoIterator,
    I::Item: std::fmt::Display,
{
    let scale = cli_scale();
    let started = std::time::Instant::now();
    for table in run(scale) {
        println!("{table}");
    }
    eprintln!(
        "[{name}] completed in {:.1?} ({scale:?})",
        started.elapsed()
    );
}
