//! E4 — IterativeKK(ε) vs plain KK(3m²): the iterated construction should
//! win on wall clock and measured work once `n ≫ m³ log n` (the regime
//! Theorem 6.4 targets).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use amo_core::{run_scenario_simulated, KkConfig};
use amo_iterative::{run_iterative_scenario, IterConfig};
use amo_sim::ScenarioSpec;

fn bench_iterative_vs_plain(c: &mut Criterion) {
    let mut group = c.benchmark_group("iterative/vs_plain");
    group.sample_size(10);
    for n in [1 << 12, 1 << 14] {
        let m = 4;
        group.throughput(Throughput::Elements(n as u64));
        let iter_config = IterConfig::new(n, m, 1).expect("valid");
        group.bench_with_input(
            BenchmarkId::new("iterative-kk", n),
            &iter_config,
            |b, config| {
                b.iter(|| {
                    let r = run_iterative_scenario(config, &ScenarioSpec::round_robin());
                    assert!(r.violations.is_empty());
                    r.work()
                });
            },
        );
        let plain = KkConfig::with_beta(n, m, KkConfig::work_optimal_beta(m)).expect("valid");
        group.bench_with_input(BenchmarkId::new("plain-kk-3m2", n), &plain, |b, config| {
            b.iter(|| {
                let r = run_scenario_simulated(config, &ScenarioSpec::round_robin());
                assert!(r.violations.is_empty());
                r.work()
            });
        });
    }
    group.finish();
}

fn bench_eps_sweep(c: &mut Criterion) {
    let n = 1 << 13;
    let m = 4;
    let mut group = c.benchmark_group("iterative/inv_eps");
    group.sample_size(10);
    for inv_eps in [1u32, 2, 3] {
        let config = IterConfig::new(n, m, inv_eps).expect("valid");
        group.bench_with_input(
            BenchmarkId::from_parameter(inv_eps),
            &config,
            |b, config| {
                b.iter(|| run_iterative_scenario(config, &ScenarioSpec::round_robin()).work());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_iterative_vs_plain, bench_eps_sweep);
criterion_main!(benches);
