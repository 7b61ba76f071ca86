//! Cross-shard-count equivalence: the phased sharded driver produces
//! **bit-identical** [`AmoReport`]s for every shard count S ∈ {1, 2, 4, 8}
//! and every worker-thread count — across schedulers × crash plans ×
//! epoch-cache on/off — and the batched phased path is pinned against its
//! per-action single-step reference.
//!
//! The S=1, threads=1 phased run is the canonical reference the others are
//! compared against. It is deliberately *not* the interleaving engine:
//! a phased schedule serves every epoch's reads from the previous barrier
//! snapshot, which is a different (still sequentially consistent) schedule
//! than the engine's interleavings — KKβ announce-then-gather cycles make
//! literal bit-equality to the unsharded engine impossible for any
//! communicating fleet (the `amo_sim::shard` docs spell out the witness
//! argument; read-free fleets *are* pinned exactly against the engine in
//! `amo_sim`'s own shard tests). What this suite pins instead: shard- and
//! thread-count invariance of every deterministic observable, zero
//! at-most-once violations in every phased cell, and the Theorem 4.4
//! effectiveness bound holding under the phased schedule too.
//!
//! CI runs this suite under forced `AMO_SHARDS=1` and `AMO_SHARDS=4` legs:
//! when the variable is set, its value is prepended to every cell's shard
//! grid so the forced count is exercised in combination with every cell.

use amo_core::{kk_fleet_with, run_scenario_simulated, AmoReport, KkConfig};
use amo_sim::{run_scenario, CrashPlan, Registers, ScenarioSpec, ShardSpec, VecRegisters};

/// Shard counts exercised per cell; `AMO_SHARDS` (the CI matrix lever)
/// prepends a forced count.
fn shard_grid() -> Vec<usize> {
    let mut grid = vec![2, 4, 8];
    if let Ok(forced) = std::env::var("AMO_SHARDS") {
        let forced: usize = forced
            .parse()
            .unwrap_or_else(|_| panic!("AMO_SHARDS must be a shard count, got {forced:?}"));
        grid.insert(0, forced.max(1));
    }
    grid
}

fn config() -> KkConfig {
    KkConfig::new(48, 8).expect("valid config")
}

/// Runs one phased cell at the given shard/thread counts.
fn phased(spec: &ScenarioSpec, shards: usize, threads: usize) -> AmoReport {
    run_scenario_simulated(
        &config(),
        &spec
            .clone()
            .with_shard_spec(ShardSpec::new(shards, threads)),
    )
}

/// Asserts every (S, threads) combination reproduces the S=1/T=1 phased
/// reference bit-for-bit, that the cell is safe, and that it meets the
/// Theorem 4.4 bound.
fn assert_cell(label: &str, spec: &ScenarioSpec) {
    let reference = phased(spec, 1, 1);
    assert!(
        reference.violations.is_empty(),
        "{label}: at-most-once violated in phased reference"
    );
    assert!(
        reference.completed,
        "{label}: phased reference hit step cap"
    );
    assert!(
        reference.effectiveness >= config().effectiveness_bound(),
        "{label}: effectiveness {} below Theorem 4.4 bound {}",
        reference.effectiveness,
        config().effectiveness_bound()
    );
    for shards in shard_grid() {
        for threads in [1usize, 2, 4] {
            let got = phased(spec, shards, threads);
            assert_eq!(
                got, reference,
                "{label}: S={shards} T={threads} diverged from phased reference"
            );
        }
    }
}

#[test]
fn round_robin_batched_cached() {
    assert_cell("rr-batched cache-on", &ScenarioSpec::round_robin_batched());
}

#[test]
fn round_robin_batched_uncached() {
    assert_cell(
        "rr-batched cache-off",
        &ScenarioSpec::round_robin_batched().with_epoch_cache(false),
    );
}

#[test]
fn round_robin_awkward_quantum() {
    // A quantum that cuts gather sweeps mid-flight: turns end on budget
    // exhaustion inside sweeps, and resumed sweeps read a *newer* snapshot
    // — the merge key must still make every shard count agree.
    assert_cell("rr quantum-7", &ScenarioSpec::round_robin().with_quantum(7));
}

#[test]
fn random_quantized() {
    assert_cell(
        "random quantum-16",
        &ScenarioSpec::random(0x5EED).with_quantum(16),
    );
}

#[test]
fn round_robin_with_crashes() {
    assert_cell(
        "rr-batched crash-plan",
        &ScenarioSpec::round_robin_batched().with_crash_plan(CrashPlan::at_steps([
            (2usize, 40u64),
            (5, 0),
            (7, 613),
        ])),
    );
}

#[test]
fn random_with_random_crashes() {
    assert_cell(
        "random random-crashes",
        &ScenarioSpec::random(0xACE)
            .with_quantum(32)
            .with_crash_plan(CrashPlan::random(8, 5, 4_000, 0xC0FFEE)),
    );
}

#[test]
fn crashes_with_cache_off() {
    assert_cell(
        "rr-batched crash-plan cache-off",
        &ScenarioSpec::round_robin_batched()
            .with_epoch_cache(false)
            .with_crash_plan(CrashPlan::at_steps([(1usize, 100u64), (8, 250)])),
    );
}

#[test]
fn batched_turns_match_single_step_reference() {
    // The phased fast path (KkProcess::step_turn's batched sweeps and
    // cache collapses) against the per-action reference driver, which
    // replays each turn action-by-action and stops at the same
    // communication boundaries (Process::at_comm_boundary).
    for (label, spec) in [
        ("rr-batched", ScenarioSpec::round_robin_batched()),
        ("rr quantum-7", ScenarioSpec::round_robin().with_quantum(7)),
        ("random", ScenarioSpec::random(0xBEE).with_quantum(16)),
        (
            "rr crashes",
            ScenarioSpec::round_robin_batched()
                .with_crash_plan(CrashPlan::at_steps([(3usize, 77u64)])),
        ),
    ] {
        for shards in [1usize, 4] {
            let fast = phased(&spec, shards, 1);
            let reference = run_scenario_simulated(
                &config(),
                &spec
                    .clone()
                    .single_step()
                    .with_shard_spec(ShardSpec::sequential(shards)),
            );
            assert_eq!(
                fast, reference,
                "{label}: S={shards} batched turns diverged from single-step reference"
            );
        }
    }
}

#[test]
fn collision_tracking_is_shard_invariant() {
    assert_cell(
        "rr-batched collisions",
        &ScenarioSpec::round_robin_batched().with_collision_tracking(),
    );
}

#[test]
fn epoch_mem_bytes_is_shard_invariant() {
    // The tracked-prefix epoch footprint is a property of the one backing
    // register file the merge replays into, so it must not vary with S.
    let spec = ScenarioSpec::round_robin_batched();
    let reference = phased(&spec, 1, 1);
    assert!(
        reference.epoch_mem_bytes > 0,
        "cache cells should track epochs"
    );
    for shards in [2usize, 8] {
        assert_eq!(
            phased(&spec, shards, 2).epoch_mem_bytes,
            reference.epoch_mem_bytes
        );
    }
}

/// A `done` entry logged before the run reaches the first epoch image. Pid
/// 2 crashes before its first action, so pid 1 runs alone against a file
/// in which pid 2 has already logged job 5. With no live peer to
/// interleave with, the phased run must equal the engine's at every shard
/// count, and job 5 is never performed.
#[test]
fn a_done_entry_logged_before_the_run_is_seen_at_every_shard_count() {
    let config = KkConfig::new(16, 2).expect("valid config");
    let spec = ScenarioSpec::round_robin_batched().with_crash_plan(CrashPlan::at_steps([(2, 0)]));
    let run = |spec: &ScenarioSpec| {
        let (layout, fleet) = kk_fleet_with(&config, false, spec.grants_quanta());
        let mem = VecRegisters::new(layout.cells());
        mem.write(layout.done_cell(2, 1), 5);
        run_scenario(mem, fleet, spec).0
    };
    let unsharded = run(&spec);
    assert_eq!(unsharded.crashed, [2]);
    assert!(
        unsharded.performed.iter().all(|r| !r.span.contains(5)),
        "job 5 was logged before the run"
    );
    for shards in [1usize, 2] {
        let sharded = run(&spec.clone().with_shard_spec(ShardSpec::sequential(shards)));
        assert_eq!(sharded, unsharded, "S={shards}");
    }
}
