//! The chaos-lowering equivalence suite: a **quiet** `ChaosPlan` (no
//! events) lowered onto any base `ScenarioSpec` must produce a
//! bit-identical `AmoReport` for every algorithm stack and every runner —
//! the interleaving engine over static and type-erased fleets — and a
//! non-quiet plan must lower to *exactly* the spec a careful human would
//! have built by hand. Together the two pins make the chaos dimension
//! observationally free until a fault is actually scheduled, and fully
//! explainable when one is.

use at_most_once::baselines::{run_baseline_scenario, AmoBaselineKind};
use at_most_once::core::{run_scenario_simulated, KkConfig, KkLayout, KkProcess};
use at_most_once::iterative::{run_iterative_scenario, IterConfig};
use at_most_once::ostree::FenwickSet;
use at_most_once::sim::{
    boxed, run_scenario, BackendSpec, BoxProcess, ChaosPlan, CrashPlan, NetworkSpec, ScenarioSpec,
    StorageFault, VecRegisters,
};
use at_most_once::write_all::{
    run_baseline_scenario as run_wa_baseline_scenario, run_wa_scenario, WaBaselineKind, WaConfig,
};

/// Base specs covering every scheduler kind plus quantum/crash variety.
fn base_grid() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::round_robin(),
        ScenarioSpec::round_robin_batched(),
        ScenarioSpec::random(11).with_quantum(9),
        ScenarioSpec::block(5, 6),
        ScenarioSpec::round_robin().with_crash_plan(CrashPlan::at_steps([(2usize, 17u64)])),
    ]
}

#[test]
fn quiet_plan_is_bit_identical_for_kk() {
    let config = KkConfig::new(160, 4).unwrap();
    let quiet = ChaosPlan::quiet();
    for spec in base_grid() {
        let base = run_scenario_simulated(&config, &spec);
        let chaotic = run_scenario_simulated(&config, &spec.with_chaos(&quiet));
        assert_eq!(base, chaotic, "kk diverged under {}", spec.label());
        assert!(base.violations.is_empty());
    }
}

#[test]
fn quiet_plan_is_bit_identical_for_iterative() {
    let config = IterConfig::new(200, 4, 2).unwrap();
    let quiet = ChaosPlan::quiet();
    for spec in base_grid() {
        let base = run_iterative_scenario(&config, &spec);
        let chaotic = run_iterative_scenario(&config, &spec.with_chaos(&quiet));
        assert_eq!(base, chaotic, "iterative diverged under {}", spec.label());
    }
}

#[test]
fn quiet_plan_is_bit_identical_for_write_all() {
    let config = WaConfig::new(256, 4, 1).unwrap();
    let quiet = ChaosPlan::quiet();
    for spec in base_grid() {
        let base = run_wa_scenario(&config, &spec);
        let chaotic = run_wa_scenario(&config, &spec.with_chaos(&quiet));
        assert_eq!(base, chaotic, "write-all diverged under {}", spec.label());
    }
}

#[test]
fn quiet_plan_is_bit_identical_for_baselines() {
    let quiet = ChaosPlan::quiet();
    for spec in base_grid() {
        let base = run_baseline_scenario(AmoBaselineKind::TrivialSplit, 120, 4, &spec);
        let chaotic = run_baseline_scenario(
            AmoBaselineKind::TrivialSplit,
            120,
            4,
            &spec.with_chaos(&quiet),
        );
        assert_eq!(base, chaotic, "baseline diverged under {}", spec.label());
        let base = run_wa_baseline_scenario(WaBaselineKind::Tas, 120, 4, &spec);
        let chaotic =
            run_wa_baseline_scenario(WaBaselineKind::Tas, 120, 4, &spec.with_chaos(&quiet));
        assert_eq!(base, chaotic, "wa-tas diverged under {}", spec.label());
    }
}

fn kk_boxed_fleet(config: &KkConfig, layout: KkLayout) -> Vec<BoxProcess> {
    (1..=config.m())
        .map(|pid| boxed(KkProcess::<FenwickSet>::from_config(pid, config, layout)))
        .collect()
}

#[test]
fn quiet_plan_is_bit_identical_on_the_dyn_driver() {
    let config = KkConfig::new(48, 4).unwrap();
    let layout = KkLayout::contiguous(config.m(), config.n(), false);
    let quiet = ChaosPlan::quiet();
    let spec = ScenarioSpec::random(7).with_crash_plan(CrashPlan::at_steps([(2usize, 30u64)]));
    let (want, _, _) = run_scenario(
        VecRegisters::new(layout.cells()),
        kk_boxed_fleet(&config, layout),
        &spec,
    );
    let (got, _, _) = run_scenario(
        VecRegisters::new(layout.cells()),
        kk_boxed_fleet(&config, layout),
        &spec.with_chaos(&quiet),
    );
    assert_eq!(got, want, "erased fleet diverged under a quiet plan");
}

/// A non-quiet plan lowers to exactly the hand-built spec: the chaotic run
/// is bit-identical to the run a careful human would have configured with
/// the existing builders.
#[test]
fn lowered_faults_match_hand_built_specs() {
    let config = KkConfig::new(160, 4).unwrap();

    // Crash axis.
    let plan = ChaosPlan::quiet().crash(2, 9).crash(4, 33);
    let mut hand_plan = CrashPlan::none();
    hand_plan.crash(2, 9).crash(4, 33);
    let hand = ScenarioSpec::round_robin_batched().with_crash_plan(hand_plan);
    let base = ScenarioSpec::round_robin_batched();
    assert_eq!(
        run_scenario_simulated(&config, &base.with_chaos(&plan)),
        run_scenario_simulated(&config, &hand),
        "crash lowering diverged from the hand-built spec"
    );

    // Storage axis.
    let plan = ChaosPlan::quiet()
        .crash(1, 25)
        .storage(StorageFault::TornWrite, 7);
    let mut hand_plan = CrashPlan::none();
    hand_plan.crash(1, 25);
    let hand = ScenarioSpec::round_robin_batched()
        .with_crash_plan(hand_plan)
        .with_backend(BackendSpec::durable(StorageFault::TornWrite, 7));
    assert_eq!(
        run_scenario_simulated(&config, &base.with_chaos(&plan)),
        run_scenario_simulated(&config, &hand),
        "storage lowering diverged from the hand-built spec"
    );

    // Network axis.
    let net = NetworkSpec::lossless(3).with_seed(5).with_drop(120);
    let plan = ChaosPlan::quiet().network(net);
    let hand = ScenarioSpec::round_robin_batched().quorum(net);
    assert_eq!(
        run_scenario_simulated(&config, &base.with_chaos(&plan)),
        run_scenario_simulated(&config, &hand),
        "network lowering diverged from the hand-built spec"
    );

    // Adversary axis.
    let small = KkConfig::new(60, 3).unwrap();
    let plan = ChaosPlan::quiet().adversary("stuck-announcement");
    assert_eq!(
        run_scenario_simulated(&small, &ScenarioSpec::round_robin().with_chaos(&plan)),
        run_scenario_simulated(&small, &ScenarioSpec::adversary("stuck-announcement")),
        "adversary lowering diverged from the hand-built spec"
    );
}
