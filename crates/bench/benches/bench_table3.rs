//! Table 3 benchmark: 1DOSP planner runtimes on the paper's benchmark
//! families (the CPU(s) column). Uses 1D-1 and the MCC case 1M-1; the
//! full-size 1M-5..8 runs live in `eblow-eval` (they are too slow to
//! sample repeatedly under criterion).

use criterion::{criterion_group, criterion_main, Criterion};
use eblow_core::baselines::{greedy_1d, heuristic_1d, row_heuristic_1d};
use eblow_core::oned::Eblow1d;
use eblow_gen::{benchmark, Family};
use std::hint::black_box;

fn bench_table3(c: &mut Criterion) {
    let d1 = benchmark(Family::D1(1));
    let m1 = benchmark(Family::M1(1));

    let mut group = c.benchmark_group("table3");
    group.sample_size(10);

    group.bench_function("1D-1/greedy24", |b| {
        b.iter(|| greedy_1d(black_box(&d1)).unwrap().total_time)
    });
    group.bench_function("1D-1/heur24", |b| {
        b.iter(|| heuristic_1d(black_box(&d1)).unwrap().total_time)
    });
    group.bench_function("1D-1/row25", |b| {
        b.iter(|| row_heuristic_1d(black_box(&d1)).unwrap().total_time)
    });
    group.bench_function("1D-1/eblow", |b| {
        b.iter(|| Eblow1d::default().plan(black_box(&d1)).unwrap().total_time)
    });

    group.bench_function("1M-1/greedy24", |b| {
        b.iter(|| greedy_1d(black_box(&m1)).unwrap().total_time)
    });
    group.bench_function("1M-1/eblow", |b| {
        b.iter(|| Eblow1d::default().plan(black_box(&m1)).unwrap().total_time)
    });
    group.finish();
}

criterion_group!(benches, bench_table3);
criterion_main!(benches);
