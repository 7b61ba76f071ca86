//! Macro-stepping fast-path equivalence: batching must be observationally
//! invisible.
//!
//! For every config and every scheduler that grants quanta (quantized
//! round-robin, block bursts, either wrapped in crash injection), the
//! engine's batched path and its per-action reference path
//! ([`Engine::single_step`]) must produce **identical** [`Execution`]s:
//! same perform records (pid, span, global step index), same shared and
//! local work, same per-process step counts, same crashes, same
//! effectiveness. Adversarial schedulers (`lockstep`, `stuck-announcement`,
//! `staleness`) keep the default quantum of 1, so for them forcing
//! single-step must be a no-op.

use amo_core::{
    kk_fleet, kk_fleet_with, run_fleet_simulated, run_scenario_simulated, AmoReport, KkConfig,
};
use amo_sim::{
    BlockScheduler, CrashPlan, Engine, EngineLimits, Execution, RoundRobin, ScenarioSpec,
    Scheduler, VecRegisters, WithCrashes,
};
use proptest::prelude::*;

/// Field-by-field execution equality with a readable failure message.
fn assert_exec_eq(fast: &Execution, reference: &Execution, what: &str) {
    assert_eq!(
        fast.performed, reference.performed,
        "{what}: performed records differ"
    );
    assert_eq!(
        fast.total_steps, reference.total_steps,
        "{what}: total_steps differ"
    );
    assert_eq!(fast.crashed, reference.crashed, "{what}: crashes differ");
    assert_eq!(
        fast.completed, reference.completed,
        "{what}: completion differs"
    );
    assert_eq!(
        fast.mem_work, reference.mem_work,
        "{what}: shared work differs"
    );
    assert_eq!(
        fast.local_work, reference.local_work,
        "{what}: local work differs"
    );
    assert_eq!(
        fast.per_proc_steps, reference.per_proc_steps,
        "{what}: per-proc steps differ"
    );
    assert_eq!(
        fast.effectiveness(),
        reference.effectiveness(),
        "{what}: effectiveness differs"
    );
}

/// Runs one KKβ fleet twice under the same scheduler — batched and forced
/// single-step — and requires identical executions.
fn check_fleet<S: Scheduler<amo_core::KkProcess> + Clone>(config: &KkConfig, sched: S, what: &str) {
    let run = |single: bool| {
        let (layout, fleet) = kk_fleet(config, false);
        let mem = VecRegisters::new(layout.cells());
        let mut engine = Engine::new(mem, fleet, sched.clone());
        if single {
            engine = engine.single_step();
        }
        engine.run(EngineLimits::default())
    };
    let fast = run(false);
    let reference = run(true);
    assert_exec_eq(&fast, &reference, what);
}

#[test]
fn exhaustive_small_grid_round_robin_quanta() {
    for &n in &[8usize, 20, 33, 64] {
        for &m in &[2usize, 3, 5] {
            if n < m {
                continue;
            }
            for &beta in &[m as u64, KkConfig::work_optimal_beta(m)] {
                let config = KkConfig::with_beta(n, m, beta).expect("valid config");
                for &q in &[2u64, 3, 7, 64, RoundRobin::BATCH_QUANTUM] {
                    check_fleet(
                        &config,
                        RoundRobin::new().with_quantum(q),
                        &format!("n={n} m={m} beta={beta} rr-quantum={q}"),
                    );
                }
            }
        }
    }
}

#[test]
fn exhaustive_small_grid_block_bursts() {
    for &n in &[16usize, 40] {
        for &m in &[2usize, 4] {
            let config = KkConfig::new(n, m).expect("valid config");
            for &(seed, burst) in &[(1u64, 2u64), (7, 5), (13, 33)] {
                check_fleet(
                    &config,
                    BlockScheduler::new(seed, burst),
                    &format!("n={n} m={m} block({seed},{burst})"),
                );
            }
        }
    }
}

#[test]
fn crash_injection_fires_at_the_same_action_under_batching() {
    let config = KkConfig::new(48, 4).expect("valid config");
    for &(p1, s1, p2, s2) in &[(1usize, 5u64, 2usize, 9u64), (3, 1, 4, 40), (1, 0, 2, 17)] {
        let plan = CrashPlan::at_steps([(p1, s1), (p2, s2)]);
        check_fleet(
            &config,
            WithCrashes::new(RoundRobin::new().with_quantum(16), plan.clone()),
            &format!("crashes ({p1}@{s1}, {p2}@{s2}) under rr-quantum=16"),
        );
        check_fleet(
            &config,
            WithCrashes::new(BlockScheduler::new(3, 11), plan),
            &format!("crashes ({p1}@{s1}, {p2}@{s2}) under block(3,11)"),
        );
    }
}

#[test]
fn adversarial_schedulers_are_untouched_by_the_fast_path() {
    // The adversaries keep the default quantum of 1, so the fast path never
    // engages: forcing the reference path must change nothing.
    let config = KkConfig::new(40, 4).expect("valid config");
    for name in ["lockstep", "stuck-announcement", "staleness"] {
        let spec = ScenarioSpec::adversary(name);
        let fast = run_scenario_simulated(&config, &spec);
        let reference = run_scenario_simulated(&config, &spec.clone().single_step());
        assert_eq!(fast.performed, reference.performed, "{name}");
        assert_eq!(fast.total_steps, reference.total_steps, "{name}");
        assert_eq!(fast.mem_work, reference.mem_work, "{name}");
        assert_eq!(fast.effectiveness, reference.effectiveness, "{name}");
    }
}

/// Runs a KKβ fleet laid out row-major (`interleaved == false`) or
/// position-major under `spec`.
fn run_with_layout(config: &KkConfig, spec: &ScenarioSpec, interleaved: bool) -> AmoReport {
    let (layout, fleet) = kk_fleet_with(config, spec.collisions, interleaved);
    run_fleet_simulated(VecRegisters::new(layout.cells()), fleet, config.n(), spec)
}

/// Report-level equality across *every* fast-path ingredient: the batched
/// run with the announcement-epoch cache (and either `done` layout) must
/// match the cache-free, row-major, forced-single-step reference — the
/// strongest form of the observational-invisibility contract, covering
/// `local_work` exactly (the cache compensates every skipped probe's
/// accounting).
fn assert_cache_equivalent(config: &KkConfig, base: ScenarioSpec, what: &str) {
    let reference = run_with_layout(
        config,
        &base.clone().with_epoch_cache(false).single_step(),
        false,
    );
    for interleaved in [false, true] {
        let fast = run_with_layout(config, &base, interleaved);
        assert_eq!(
            fast.performed, reference.performed,
            "{what} soa={interleaved}: performed differ"
        );
        assert_eq!(
            fast.total_steps, reference.total_steps,
            "{what} soa={interleaved}: total_steps differ"
        );
        assert_eq!(
            fast.mem_work, reference.mem_work,
            "{what} soa={interleaved}: shared work differs"
        );
        assert_eq!(
            fast.local_work, reference.local_work,
            "{what} soa={interleaved}: local work differs"
        );
        assert_eq!(
            fast.crashed, reference.crashed,
            "{what} soa={interleaved}: crashes differ"
        );
        assert_eq!(
            fast.effectiveness, reference.effectiveness,
            "{what} soa={interleaved}: effectiveness differs"
        );
    }
}

#[test]
fn epoch_cache_and_layout_are_observationally_invisible() {
    for &(n, m) in &[(8usize, 2usize), (40, 4), (77, 3), (150, 6)] {
        for &beta in &[m as u64, KkConfig::work_optimal_beta(m)] {
            if beta >= n as u64 {
                continue;
            }
            let config = KkConfig::with_beta(n, m, beta).expect("valid config");
            for &q in &[2u64, 16, RoundRobin::BATCH_QUANTUM] {
                assert_cache_equivalent(
                    &config,
                    ScenarioSpec::round_robin().with_quantum(q),
                    &format!("n={n} m={m} beta={beta} q={q}"),
                );
            }
        }
    }
}

#[test]
fn epoch_cache_is_invisible_under_crashes() {
    let config = KkConfig::new(64, 4).expect("valid config");
    for &(p1, s1, p2, s2) in &[(1usize, 5u64, 2usize, 9u64), (3, 1, 4, 40), (1, 31, 2, 7)] {
        let plan = CrashPlan::at_steps([(p1, s1), (p2, s2)]);
        for &q in &[3u64, 16, 1024] {
            assert_cache_equivalent(
                &config,
                ScenarioSpec::round_robin()
                    .with_quantum(q)
                    .with_crash_plan(plan.clone()),
                &format!("crashes ({p1}@{s1}, {p2}@{s2}) q={q}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random `(n, m, β, quantum, crash seed)`: the runner-level batched
    /// round-robin equals its single-step reference report-for-report.
    #[test]
    fn random_configs_batched_equals_single_step(
        n in 4usize..120,
        m in 2usize..7,
        beta_extra in 0u64..40,
        quantum in 2u64..300,
        crash_seed in any::<u64>(),
        f in 0usize..3,
    ) {
        prop_assume!(n >= m);
        let config = KkConfig::with_beta(n, m, m as u64 + beta_extra).expect("valid");
        let f = f.min(m - 1);
        let plan = CrashPlan::random(m, f, (n as u64) * 2, crash_seed);
        let base = ScenarioSpec::round_robin()
            .with_quantum(quantum)
            .with_crash_plan(plan);
        let fast = run_scenario_simulated(&config, &base);
        let reference = run_scenario_simulated(&config, &base.single_step());
        prop_assert_eq!(fast.performed, reference.performed);
        prop_assert_eq!(fast.total_steps, reference.total_steps);
        prop_assert_eq!(fast.crashed, reference.crashed);
        prop_assert_eq!(fast.completed, reference.completed);
        prop_assert_eq!(fast.mem_work, reference.mem_work);
        prop_assert_eq!(fast.local_work, reference.local_work);
        prop_assert_eq!(fast.effectiveness, reference.effectiveness);
    }

    /// Random block schedules: bursts are contiguous quanta, so the fast
    /// path must replay the identical execution.
    #[test]
    fn random_block_schedules_are_batch_invariant(
        n in 4usize..100,
        m in 2usize..6,
        seed in any::<u64>(),
        burst in 1u64..50,
    ) {
        prop_assume!(n >= m);
        let config = KkConfig::new(n, m).expect("valid");
        let base = ScenarioSpec::block(seed, burst);
        let fast = run_scenario_simulated(&config, &base);
        let reference = run_scenario_simulated(&config, &base.single_step());
        prop_assert_eq!(fast.performed, reference.performed);
        prop_assert_eq!(fast.total_steps, reference.total_steps);
        prop_assert_eq!(fast.mem_work, reference.mem_work);
        prop_assert_eq!(fast.local_work, reference.local_work);
        prop_assert_eq!(fast.effectiveness, reference.effectiveness);
    }
}
