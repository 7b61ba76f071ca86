//! A2 — data-structure ablation: the blocked `FenwickSet` vs the
//! per-element `DenseFenwickSet` on the operation mix KKβ actually issues
//! (insert/remove/select/`rank_excluding`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use amo_ostree::{rank_excluding, DenseFenwickSet, FenwickSet, OrderedJobSet};

const UNIVERSE: usize = 1 << 16;

fn mixed_ops<S: OrderedJobSet>(s: &mut S) -> u64 {
    let mut acc = 0u64;
    let mut x = 0x2545F491_4F6CDD1Du64;
    for _ in 0..10_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let id = x % UNIVERSE as u64 + 1;
        if x & 1 == 0 {
            s.insert(id);
        } else {
            s.remove(id);
        }
        if let Some(v) = s.select((x >> 32) as usize % (s.len() + 1)) {
            acc = acc.wrapping_add(v);
        }
    }
    acc
}

fn bench_mixed(c: &mut Criterion) {
    let mut group = c.benchmark_group("ostree/mixed");
    group.sample_size(20);
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("fenwick", |b| {
        b.iter(|| mixed_ops(&mut FenwickSet::full(UNIVERSE)));
    });
    group.bench_function("dense", |b| {
        b.iter(|| mixed_ops(&mut DenseFenwickSet::full(UNIVERSE)));
    });
    group.finish();
}

fn bench_rank_excluding(c: &mut Criterion) {
    let mut group = c.benchmark_group("ostree/rank_excluding");
    group.sample_size(20);
    let fen = FenwickSet::full(UNIVERSE);
    let dense = DenseFenwickSet::full(UNIVERSE);
    for excl_len in [0usize, 4, 16, 64] {
        let excl: Vec<u64> = (1..=excl_len as u64).map(|i| i * 37).collect();
        group.bench_with_input(BenchmarkId::new("fenwick", excl_len), &excl, |b, excl| {
            b.iter(|| rank_excluding(&fen, excl, UNIVERSE / 2))
        });
        group.bench_with_input(BenchmarkId::new("dense", excl_len), &excl, |b, excl| {
            b.iter(|| rank_excluding(&dense, excl, UNIVERSE / 2))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mixed, bench_rank_excluding);
criterion_main!(benches);
