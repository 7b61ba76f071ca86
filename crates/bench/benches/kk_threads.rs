//! E8 — wall-clock throughput of KKβ on real threads: jobs/second vs `m`,
//! and the SeqCst vs Acquire/Release ordering ablation (D5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use amo_core::{run_threads, KkConfig};
use amo_sim::thread::ThreadSpec;
use amo_sim::MemOrder;

fn bench_m_sweep(c: &mut Criterion) {
    let n = 4096;
    let mut group = c.benchmark_group("kk_threads/m_sweep");
    group.sample_size(10);
    for m in [1usize, 2, 4, 8] {
        let config = KkConfig::new(n, m).expect("valid");
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(m), &config, |b, config| {
            b.iter(|| {
                let report = run_threads(config, &ThreadSpec::new());
                assert!(report.violations.is_empty());
                report.effectiveness
            });
        });
    }
    group.finish();
}

fn bench_ordering(c: &mut Criterion) {
    let n = 4096;
    let m = 4;
    let mut group = c.benchmark_group("kk_threads/ordering");
    group.sample_size(10);
    for (label, order) in [("seqcst", MemOrder::SeqCst), ("acqrel", MemOrder::AcqRel)] {
        let config = KkConfig::new(n, m).expect("valid");
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, config| {
            b.iter(|| {
                let report = run_threads(config, &ThreadSpec::new().with_order(order));
                // The AcqRel run is an ablation measurement, not a verified
                // configuration; violations are counted, not asserted.
                (report.effectiveness, report.violations.len())
            });
        });
    }
    group.finish();
}

fn bench_beta(c: &mut Criterion) {
    let n = 4096;
    let m = 4;
    let mut group = c.benchmark_group("kk_threads/beta");
    group.sample_size(10);
    for beta in [m as u64, KkConfig::work_optimal_beta(m)] {
        let config = KkConfig::with_beta(n, m, beta).expect("valid");
        group.bench_with_input(BenchmarkId::from_parameter(beta), &config, |b, config| {
            b.iter(|| run_threads(config, &ThreadSpec::new()).effectiveness);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_m_sweep, bench_ordering, bench_beta);
criterion_main!(benches);
