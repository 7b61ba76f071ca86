//! E5/E8 — Write-All wall-clock on real threads: WA_IterativeKK vs the
//! baselines, crash-free (the crash comparisons live in `exp_write_all`,
//! where completion rather than latency is the point).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use amo_sim::thread::ThreadSpec;
use amo_write_all::{run_baseline_threads, run_wa_threads, WaBaselineKind, WaConfig};

fn bench_algorithms(c: &mut Criterion) {
    let n = 1 << 14;
    let m = 4;
    let mut group = c.benchmark_group("write_all/algorithms");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));

    let config = WaConfig::new(n, m, 1).expect("valid");
    group.bench_function("wa-iterative-kk", |b| {
        b.iter(|| {
            let r = run_wa_threads(&config, &ThreadSpec::new());
            assert!(r.complete);
            r.total_steps
        });
    });
    for kind in [
        WaBaselineKind::Sequential,
        WaBaselineKind::StaticPartition,
        WaBaselineKind::Tas,
        WaBaselineKind::PermutationScan(7),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let r = run_baseline_threads(kind, n, m, &ThreadSpec::new());
                    assert!(r.complete);
                    r.total_steps
                });
            },
        );
    }
    group.finish();
}

fn bench_wa_m_sweep(c: &mut Criterion) {
    let n = 1 << 13;
    let mut group = c.benchmark_group("write_all/m_sweep");
    group.sample_size(10);
    for m in [1usize, 2, 4, 8] {
        let config = WaConfig::new(n, m, 1).expect("valid");
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(m), &config, |b, config| {
            b.iter(|| {
                let r = run_wa_threads(config, &ThreadSpec::new());
                assert!(r.complete);
                r.total_steps
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms, bench_wa_m_sweep);
criterion_main!(benches);
