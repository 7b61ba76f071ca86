//! Experiment harness: regenerates every quantitative claim of the paper as
//! a measured table. The table in [`experiments`] indexes the experiments
//! by the paper artefact each one reproduces.
//!
//! Each `exp_*` function returns [`Table`]s; the binaries under `src/bin/`
//! print them (`cargo run --release -p amo-bench --bin exp_all`).
//! Whole-system wall-clock is measured by the repository benchmark
//! (`perfbench/`); inside this crate only E8 (real threads against `m`) and
//! A2 (the two ordered-set structures) report it, and neither asserts it.
//!
//! Every experiment takes a [`Scale`]: [`Scale::Quick`] keeps the harness
//! runnable in CI and in `#[test]`s; [`Scale::Full`] runs the full
//! parameter grids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod table;

pub mod experiments;

pub use table::{fmt_f64, fmt_ratio, Table};

/// Maps `f` over `items` on scoped OS threads, preserving input order.
///
/// Every grid cell of an experiment is an independent deterministic
/// simulation, so the experiment harnesses fan their grids out across the
/// machine's cores and emit rows in the original, deterministic order.
/// Falls back to a plain sequential map when the machine reports a single
/// core or the input is trivial.
///
/// The assignment is *strided* (items dealt round-robin): inputs ordered by
/// growing instance size would otherwise pile every heavy cell onto the
/// last worker. A worker panic is re-raised on the caller with its original
/// payload (e.g. a safety assertion naming the failing grid cell), not a
/// generic join error.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let mut buckets: Vec<Vec<(usize, T)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % threads].push((i, item));
    }
    let f = &f;
    let mut indexed: Vec<(usize, U)> = std::thread::scope(|s| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                s.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(i, x)| (i, f(x)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(results) => results,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, u)| u).collect()
}

/// Experiment scale: parameter grids for CI vs the full runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small grids (seconds): used by tests and smoke runs.
    Quick,
    /// The full parameter grids (minutes).
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
}

/// The [`Scale`] parsed from this process's argv — the shared
/// `--quick`/`-q` prologue of every experiment binary.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_sequential_when_single_item() {
        assert_eq!(par_map(vec![1], |x: i32| x + 1), vec![2]);
        assert!(par_map(Vec::new(), |x: i32| x).is_empty());
    }

    #[test]
    fn par_map_propagates_panics() {
        let r = std::panic::catch_unwind(|| {
            par_map(vec![1, 2, 3, 4], |x: i32| {
                assert!(x != 3, "cell {x} failed");
                x
            })
        });
        assert!(r.is_err());
    }
}
