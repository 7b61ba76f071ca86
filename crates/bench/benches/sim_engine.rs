//! Substrate throughput: simulated actions per second for a full KKβ run
//! under the three scheduler families.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use amo_core::{run_scenario_simulated, KkConfig};
use amo_sim::ScenarioSpec;

fn bench_schedulers(c: &mut Criterion) {
    let n = 2048;
    let m = 4;
    let config = KkConfig::new(n, m).expect("valid");
    let mut group = c.benchmark_group("sim_engine/scheduler");
    group.sample_size(20);
    // Calibrate throughput with a probe run's step count.
    let steps = run_scenario_simulated(&config, &ScenarioSpec::round_robin()).total_steps;
    group.throughput(Throughput::Elements(steps));
    for (label, spec) in [
        ("round-robin", ScenarioSpec::round_robin()),
        ("random", ScenarioSpec::random(42)),
        ("lockstep", ScenarioSpec::adversary("lockstep")),
        ("block", ScenarioSpec::block(42, 32)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &spec, |b, spec| {
            b.iter(|| {
                let r = run_scenario_simulated(&config, spec);
                assert!(r.violations.is_empty());
                r.total_steps
            });
        });
    }
    group.finish();
}

fn bench_instance_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine/n_scaling");
    group.sample_size(10);
    for n in [512usize, 2048, 8192] {
        let config = KkConfig::new(n, 4).expect("valid");
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &config, |b, config| {
            b.iter(|| run_scenario_simulated(config, &ScenarioSpec::round_robin()).effectiveness);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedulers, bench_instance_scaling);
criterion_main!(benches);
