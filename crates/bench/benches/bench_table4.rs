//! Table 4 benchmark: 2DOSP planner runtimes (the CPU(s) column), plus the
//! clustering-ablation runtime comparison. The paper attributes a ~28×
//! SA\[24\]/E-BLOW gap to clustering; `eblow-eval table4` measures about
//! 0.8× (0.76–0.81 over three runs on a 2-core VM), because above 400
//! nodes both planners anneal on the shelf engine and neither pays
//! \[24\]'s `O(n²)` sequence-pair evaluation per move.
//! Uses a reduced-size 2D workload so criterion can sample.

use criterion::{criterion_group, criterion_main, Criterion};
use eblow_core::baselines::greedy_2d;
use eblow_core::twod::{cluster, prefilter, Eblow2d, Eblow2dConfig};
use eblow_gen::{generate, GenConfig};
use std::hint::black_box;

fn small_2d() -> eblow_model::Instance {
    generate(&GenConfig {
        n_chars: 250,
        n_regions: 10,
        stencil_w: 500,
        stencil_h: 500,
        row_height: None,
        width: (24, 48),
        height: (25, 55),
        blank: (2, 10),
        symmetric_blanks: false,
        shots: (2, 60),
        repeats: (0, 50),
        seed: 0xBE4C,
    })
}

fn bench_table4(c: &mut Criterion) {
    let inst = small_2d();
    let mut group = c.benchmark_group("table4");
    group.sample_size(10);

    group.bench_function("2D-small/greedy24", |b| {
        b.iter(|| greedy_2d(black_box(&inst)).unwrap().total_time)
    });
    group.bench_function("2D-small/eblow-clustered", |b| {
        b.iter(|| {
            Eblow2d::default()
                .plan(black_box(&inst))
                .unwrap()
                .total_time
        })
    });
    group.bench_function("2D-small/eblow-unclustered", |b| {
        let cfg = Eblow2dConfig {
            clustering: false,
            ..Default::default()
        };
        b.iter(|| {
            Eblow2d::new(cfg.clone())
                .plan(black_box(&inst))
                .unwrap()
                .total_time
        })
    });

    // The clustering stage in isolation (Algorithm 4).
    let rt = eblow_core::profit::RegionTimes::new(&inst);
    let profits = rt.profits(&inst);
    let kept = prefilter(&inst, &profits, 1.3);
    group.bench_function("cluster/kdtree-alg4", |b| {
        b.iter(|| cluster(black_box(&inst), black_box(&kept), black_box(&profits), 0.2).len())
    });
    group.finish();
}

criterion_group!(benches, bench_table4);
criterion_main!(benches);
