//! Machine-checking Lemma 4.1 (at-most-once) by exhaustive exploration.
//!
//! For small instances, the explorer enumerates *every* schedule — and every
//! crash pattern up to `f` — and checks that no job is ever performed twice
//! on any path. This covers classes of interleavings that randomized testing
//! cannot certify, including the crash-between-`do`-and-`done` window the
//! Lemma 4.1 proof reasons about explicitly.

use amo_core::{kk_fleet, KkConfig};
use amo_sim::{explore, ExploreConfig, MemoMode, VecRegisters};

fn check(n: usize, m: usize, beta: u64, max_crashes: usize, max_states: usize) {
    let config = KkConfig::with_beta(n, m, beta).unwrap();
    let (layout, fleet) = kk_fleet(&config, false);
    let mem = VecRegisters::new(layout.cells());
    let cfg = ExploreConfig {
        max_crashes,
        max_states,
        ..ExploreConfig::default()
    };
    let out = explore(mem, fleet, cfg);
    assert!(
        out.violation.is_none(),
        "n={n} m={m} beta={beta} f={max_crashes}: violation {:?} via {:?}",
        out.violation,
        out.violation_trace
    );
    assert!(
        out.complete,
        "n={n} m={m} beta={beta} f={max_crashes}: search incomplete under its {max_states}-state cap"
    );
    // Wait-freedom (Lemma 4.3): every complete path terminates, so the
    // search reaches terminal states; and the worst path respects the
    // Theorem 4.4 effectiveness bound.
    assert!(out.terminal_states > 0);
    let bound = config.effectiveness_bound();
    assert!(
        out.min_effectiveness.unwrap() >= bound,
        "min effectiveness {} below bound {bound}",
        out.min_effectiveness.unwrap()
    );
}

#[test]
fn two_procs_three_jobs_no_crashes_complete() {
    check(3, 2, 2, 0, 5_000_000);
}

#[test]
fn two_procs_four_jobs_no_crashes_complete() {
    check(4, 2, 2, 0, 5_000_000);
}

#[test]
fn two_procs_three_jobs_one_crash_complete() {
    check(3, 2, 2, 1, 8_000_000);
}

#[test]
fn two_procs_four_jobs_one_crash() {
    check(4, 2, 2, 1, 8_000_000);
}

#[test]
fn two_procs_beta_three() {
    check(4, 2, 3, 1, 8_000_000);
}

#[test]
fn three_procs_three_jobs_no_crashes() {
    check(3, 3, 3, 0, 8_000_000);
}

#[test]
fn three_procs_four_jobs() {
    check(4, 3, 3, 0, 2_000_000);
}

#[test]
fn three_procs_with_crashes() {
    check(3, 3, 3, 2, 2_000_000);
}

/// The default `MemoMode::StateOnly` key leaves out the performed jobs,
/// which is sound for KKβ only because they are a function of the global
/// state. If they are, adding them to the key (`StateAndHistory`) splits
/// no state: both searches visit the same states and reach the same
/// terminal states and effectiveness range.
#[test]
fn history_memo_mode_agrees() {
    let config = KkConfig::new(3, 2).unwrap();
    let search = |memo| {
        let (layout, fleet) = kk_fleet(&config, false);
        let cfg = ExploreConfig {
            max_crashes: 1,
            memo,
            max_states: 8_000_000,
            ..ExploreConfig::default()
        };
        explore(VecRegisters::new(layout.cells()), fleet, cfg)
    };
    let state = search(MemoMode::StateOnly);
    let history = search(MemoMode::StateAndHistory);
    for (mode, out) in [("state", &state), ("history", &history)] {
        assert!(
            out.verified(),
            "{mode}: complete {}, violation {:?}",
            out.complete,
            out.violation
        );
    }
    let summary = |out: &amo_sim::ExploreOutcome| {
        (
            out.states_visited,
            out.terminal_states,
            out.min_effectiveness,
            out.max_effectiveness,
        )
    };
    assert_eq!(summary(&state), summary(&history));
}

#[test]
fn min_effectiveness_is_exactly_the_bound_for_tiny_instance() {
    // n=4, m=2, β=2: bound = 4 − (2 + 2 − 2) = 2. The explorer must find an
    // execution achieving the bound (crash one process holding a job) and
    // nothing below it.
    let config = KkConfig::new(4, 2).unwrap();
    let (layout, fleet) = kk_fleet(&config, false);
    let mem = VecRegisters::new(layout.cells());
    let cfg = ExploreConfig {
        max_crashes: 1,
        max_states: 8_000_000,
        ..ExploreConfig::default()
    };
    let out = explore(mem, fleet, cfg);
    assert!(out.verified(), "search must complete");
    assert_eq!(out.min_effectiveness, Some(config.effectiveness_bound()));
    assert_eq!(
        out.max_effectiveness,
        Some(4),
        "some path performs everything"
    );
}
