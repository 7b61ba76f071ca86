//! Every workload at toy scale on a second seed, untraced and traced, plus
//! the pins between the program, its traced twin and `BENCHMARK.json`.

use amo_perfbench::kk_mega::KkMega;
use amo_perfbench::report::{END_TO_END, PER_LAYER};
use amo_perfbench::sim::Simulation;
use amo_perfbench::wa_durable::{WaDurable, WaRun, SCENARIOS};
use amo_perfbench::{run, Scale, WORKLOADS};

const SEED: u64 = 2;

#[test]
fn every_workload_runs_correctly_at_toy_scale() {
    for workload in WORKLOADS {
        let mut out = run(workload, SEED, 0.2, false, Scale::Toy).expect("known workload");
        let line = out.render(END_TO_END, true);
        assert_eq!(out.failed, 0, "{workload}: {line}");
        assert!(out.attempted > 0, "{workload}");
        for m in END_TO_END {
            let v = out.get(m.name).unwrap_or(0.0);
            assert!(v > 0.0 && v.is_finite(), "{workload}: {} = {v}", m.name);
        }
    }
}

#[test]
fn every_workload_traces_correctly_at_toy_scale() {
    for workload in WORKLOADS {
        let mut out = run(workload, SEED, 0.2, true, Scale::Toy).expect("known workload");
        let line = out.render(PER_LAYER, false);
        assert_eq!(out.failed, 0, "{workload}: {line}");
        let ratio = out.get("trace.overhead_ratio").unwrap_or(0.0);
        assert!(ratio > 0.0, "{workload}: overhead ratio {ratio}");
        assert!(out.get("work_per_job").unwrap_or(0.0) > 0.0, "{workload}");
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run("no_such_workload", SEED, 0.1, false, Scale::Toy).is_none());
}

/// The traced run drives the engine itself through its own wrappers; it
/// must reproduce `run_scenario`'s execution exactly.
fn traced_matches_untraced<S: Simulation>(sim: &S) {
    for scenario in 0..sim.scenarios() {
        let (exec, _mem) = sim.run(scenario, sim.setup());
        let traced = sim.run_traced(scenario);
        assert_eq!(traced.exec, exec, "scenario {scenario}");
        let t = &traced.trace;
        assert_eq!(
            t.actions, exec.total_steps,
            "every action passes the wrapper"
        );
        assert!(t.decisions > 0 && t.proc.calls > 0);
        assert!(t.reads + t.peeks > 0 && t.writes > 0);
    }
}

#[test]
fn traced_kk_execution_equals_untraced() {
    traced_matches_untraced(&KkMega::TOY);
    let traced = KkMega::TOY.run_traced(0);
    assert!(traced.trace.set.calls > 0, "KKβ sets are wrapped");
    assert!(traced.trace.kk_calls.iter().all(|&c| c > 0));
}

#[test]
fn traced_write_all_execution_equals_untraced() {
    let sim = WaRun::new(WaDurable::TOY, SEED);
    traced_matches_untraced(&sim);
    let traced = sim.run_traced(0);
    let durable = traced.durable.expect("journaled backend");
    assert!(durable.journaled > 0 && durable.blackouts > 0);
    assert!(!traced.exec.crashed.is_empty());
}

#[test]
fn the_seed_alone_fixes_the_write_all_scenarios() {
    let specs = |seed| format!("{:?}", WaDurable::FULL.specs(seed));
    assert_eq!(specs(1), specs(1));
    assert_ne!(specs(1), specs(2));
    let specs = WaDurable::FULL.specs(1);
    assert_eq!(specs.len(), SCENARIOS);
    for spec in &specs {
        assert_eq!(spec.crash_plan.crash_count(), WaDurable::FULL.m / 4);
        assert_eq!(spec.crash_plan.restart_count(), WaDurable::FULL.m / 4);
    }
    assert_ne!(format!("{:?}", specs[0]), format!("{:?}", specs[1]));
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w}"
        );
    }
    let names = json.matches("\"name\": ").count();
    assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
}
