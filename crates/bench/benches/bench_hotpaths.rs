//! Hot-path microbenchmarks for the columnar instance core and the
//! incremental planning loops: `RegionTimes` select/profit sweeps, the
//! staged `RowState::admits` check, refusal-heavy `ProbedRow` probes, the
//! first probe of each candidate class after every insert, every class
//! probed against full rows between commits, and a shrinking
//! sequence of LP oracle solves — all on a 1H-sized MCC workload
//! (12 000 candidates, 10 CPs), the scale where these paths dominate every
//! registry strategy. Three more 1H kernels measure what the 1D race pays
//! besides E-BLOW's rounding: the \[25\] row heuristic, whose leftovers
//! probe their best-ranked rows with the width DP, refinement of E-BLOW's
//! rounding rows, and post-swap on the refined rows. Two 2D kernels on
//! 2M-4, the two members the 2D race runs, measure the shelf engine's SA
//! move (`OrderState`, `ShelfCursor`): the \[24\] baseline under the sum
//! objective, and E-BLOW under the max. A third runs the \[24\] baseline
//! on 2T-4, whose 12 candidates anneal on the sequence-pair engine
//! (`SeqPairState`, `SequencePair::pack_into`).

use criterion::{criterion_group, criterion_main, Criterion};
use eblow_core::baselines::{row_heuristic_1d, sa_2d};
use eblow_core::oned::{
    post_swap, refine_row, successive_rounding, CombinatorialOracle, LpOracle, MkpItem, PostConfig,
    ProbedRow, RoundingConfig, RowBase, WidthScratch,
};
use eblow_core::profit::RegionTimes;
use eblow_core::twod::Eblow2d;
use eblow_core::StopFlag;
use eblow_gen::{benchmark, Family};
use eblow_model::{CharId, Placement1d, Row};
use std::hint::black_box;

fn bench_hotpaths(c: &mut Criterion) {
    let inst = benchmark(Family::H1(1));
    let n = inst.num_chars();
    let mut group = c.benchmark_group("hotpaths_1h");
    group.sample_size(3);

    // Select/deselect churn: every 3rd candidate on, then off again —
    // 8 000 sparse updates of the incrementally-tracked max.
    group.bench_function("region_times_select_deselect_sweep", |b| {
        b.iter(|| {
            let mut rt = RegionTimes::new(&inst);
            for i in (0..n).step_by(3) {
                rt.select(&inst, i);
            }
            for i in (0..n).step_by(3) {
                rt.deselect(&inst, i);
            }
            black_box(rt.total())
        })
    });

    // Full dynamic-profit sweep (Eqn. 6) under a partial selection, via
    // the all-candidate entry point (the 2D pipeline's pricing pass; the 1D
    // rounding loop prices its shrinking unsolved set per item instead).
    group.bench_function("region_times_profits_sweep", |b| {
        let mut rt = RegionTimes::new(&inst);
        for i in (0..n).step_by(5) {
            rt.select(&inst, i);
        }
        b.iter(|| black_box(rt.profits(&inst).len()))
    });

    // Admission probing: fill one row with a greedy stream of candidates,
    // probing admits for each — the pattern of the rounding commit loop.
    group.bench_function("row_state_admits_stream", |b| {
        let w = inst.stencil().width();
        b.iter(|| {
            let mut row = eblow_core::oned::RowState::default();
            let mut admitted = 0usize;
            for i in 0..2_000.min(n) {
                let id = CharId::from(i);
                if row.admits(&inst, id, w) {
                    row.commit(&inst, id);
                    admitted += 1;
                }
            }
            black_box(admitted)
        })
    });

    // All 50 rows filled first-fit from the first half of the 1H stream,
    // each row's members kept in insertion order: the rows of the next two
    // kernels.
    let w = inst.stencil().width();
    let mut scratch = WidthScratch::default();
    let mut rows = vec![ProbedRow::default(); inst.num_rows().expect("1H is 1D")];
    let mut fill: Vec<Vec<CharId>> = vec![Vec::new(); rows.len()];
    for id in (0..n / 2).map(CharId::from) {
        let fits = rows
            .iter_mut()
            .position(|row| row.admits(&inst, id, 8, w, &mut scratch).fits());
        if let Some(r) = fits {
            rows[r].insert(&inst, id);
            fill[r].push(id);
        }
    }

    // Refusal-heavy admission: 2 000 further candidates probed against
    // every filled row at beam 8 — rounding's first-fit fallback, where
    // nearly every probe is refused. The rows never change, so from each
    // row's first refusal on its floor refuses most probes in O(1), and
    // the DP refuses the rest at or just past the resume checkpoint.
    group.bench_function("probed_row_reject_stream", |b| {
        let mut rows = rows.clone();
        b.iter(|| {
            let mut admitted = 0usize;
            for id in (n / 2..(n / 2 + 2_000).min(n)).map(CharId::from) {
                for row in rows.iter_mut() {
                    admitted += row.admits(&inst, id, 8, w, &mut scratch).fits() as usize;
                }
            }
            black_box(admitted)
        })
    });

    // One candidate per shape (left and right blank) among the next 2 000
    // candidates: the probes of the next two kernels.
    let mut shapes: Vec<CharId> = Vec::new();
    for id in (n / 2..(n / 2 + 2_000).min(n)).map(CharId::from) {
        let blanks = |id: CharId| inst.char(id.index()).blanks();
        let (l, r) = (blanks(id).left, blanks(id).right);
        if !shapes
            .iter()
            .any(|&s| (blanks(s).left, blanks(s).right) == (l, r))
        {
            shapes.push(id);
        }
    }

    // The admission kernel itself: each filled row rebuilt insert by
    // insert, and after every insert one probe at beam 8 per candidate
    // shape. The probes walk the chain and the DP from each candidate's
    // checkpoint, extending the row's completion table past the insert,
    // and the first refusal computes the row's floor — the path of
    // rounding's first probes after each commit.
    group.bench_function("probed_row_first_probes", |b| {
        b.iter(|| {
            let mut admitted = 0usize;
            for members in &fill {
                let mut row = ProbedRow::default();
                for &member in members {
                    row.insert(&inst, member);
                    for &id in &shapes {
                        admitted += row.admits(&inst, id, 8, w, &mut scratch).fits() as usize;
                    }
                }
            }
            black_box(admitted)
        })
    });

    // Full rows between commits: the next 2 000 candidates go first-fit
    // into copies of the 50 filled rows at beam 8, and after each commit
    // every shape probes every row — rounding's fallback over rows that
    // are nearly all full, where a row refuses in O(1) by its floor from
    // its second refusal after a commit on.
    group.bench_function("probed_row_full_rows", |b| {
        b.iter(|| {
            let mut rows = rows.clone();
            let mut admitted = 0usize;
            for id in (n / 2..(n / 2 + 2_000).min(n)).map(CharId::from) {
                let Some(r) = rows
                    .iter_mut()
                    .position(|row| row.admits(&inst, id, 8, w, &mut scratch).fits())
                else {
                    continue;
                };
                rows[r].insert(&inst, id);
                for &shape in &shapes {
                    for row in rows.iter_mut() {
                        admitted += row.admits(&inst, shape, 8, w, &mut scratch).fits() as usize;
                    }
                }
            }
            black_box(admitted)
        })
    });

    // The LP oracle over a shrinking item sequence: six solves, each on 90 %
    // of the previous items, as successive rounding solves one per
    // iteration.
    let items_full = MkpItem::initial_set(&inst);
    let bases = vec![RowBase::default(); inst.num_rows().expect("1H is 1D")];
    group.bench_function("oracle_solve_lp", |b| {
        b.iter(|| {
            let mut items = items_full.clone();
            for _ in 0..6 {
                let sol = CombinatorialOracle.solve_lp(&items, &bases, w).unwrap();
                black_box(sol.objective);
                let keep = items.len() * 9 / 10;
                items.truncate(keep);
            }
        })
    });

    // End to end: one full successive-rounding run (Algorithm 1) over the
    // eligible set — the composite consumer of all three paths above.
    group.bench_function("successive_rounding_full", |b| {
        let eligible: Vec<usize> = (0..n).collect();
        let rows = inst.num_rows().expect("1H is 1D");
        b.iter(|| {
            let out = successive_rounding(
                &inst,
                &eligible,
                rows,
                &RoundingConfig::default(),
                &CombinatorialOracle,
                StopFlag::NEVER,
            );
            black_box(out.unsolved.len())
        })
    });

    // The [25] baseline end to end: nearly all of its wall is the fill's
    // admission probes, most of them by candidates that end as leftovers
    // after probing every ranked row.
    group.bench_function("row_heuristic_1h1", |b| {
        b.iter(|| black_box(row_heuristic_1d(&inst).unwrap().total_time))
    });

    // E-BLOW's rounding of 1H-1, the rows the next two kernels start from.
    let rounded = successive_rounding(
        &inst,
        &(0..n).collect::<Vec<usize>>(),
        inst.num_rows().expect("1H is 1D"),
        &RoundingConfig::default(),
        &CombinatorialOracle,
        StopFlag::NEVER,
    );

    // Refinement (Algorithm 3) at beam 20 on every rounding row: the
    // end-insertion width DP over each row, then the walk back through its
    // frontiers for the order.
    group.bench_function("refine_rows_1h1", |b| {
        b.iter(|| {
            for rs in &rounded.rows {
                black_box(refine_row(&inst, &rs.members, 20));
            }
        })
    });

    // Post-swap on E-BLOW's rows: the rounding's rows ordered by
    // refinement at beam 20 (members dropped until a row fits, which the
    // rounding's exact admission makes rare), each iteration swapping into
    // a fresh copy.
    group.bench_function("post_swap_1h1", |b| {
        let w = inst.stencil().width();
        let refined = rounded.rows.iter().map(|rs| {
            let (mut order, mut width) = refine_row(&inst, &rs.members, 20);
            while width > w {
                order.pop();
                (order, width) = refine_row(&inst, &order, 20);
            }
            Row::from_order(order)
        });
        let placement = Placement1d::from_rows(refined.collect());
        let selection = placement.selection(n);
        let region_times = RegionTimes::from_selection(&inst, &selection);
        b.iter(|| {
            let (mut placement, mut selection) = (placement.clone(), selection.clone());
            let mut region_times = region_times.clone();
            black_box(post_swap(
                &inst,
                &mut placement,
                &mut selection,
                &mut region_times,
                &PostConfig::default(),
                StopFlag::NEVER,
            ))
        })
    });

    group.finish();

    // The shelf engine end to end: `sa2d` packs all 1 000 candidates of
    // 2M-4 unclustered, so nearly all of its wall is `OrderState` moves
    // (a swap, a re-pack from the touched shelf until it realigns with the
    // old packing, and an undo when rejected).
    let inst = benchmark(Family::M2(4));
    let mut group = c.benchmark_group("hotpaths_2m");
    group.sample_size(3);
    group.bench_function("sa_2d_anneal_2m4", |b| {
        b.iter(|| black_box(sa_2d(&inst).unwrap().total_time))
    });
    // The sequence-pair engine end to end: `sa2d` anneals all 12
    // candidates of 2T-4 unclustered, about 2 500 moves of one
    // longest-path pass each.
    let tiny = benchmark(Family::T2(4));
    group.bench_function("sa_2d_anneal_2t4", |b| {
        b.iter(|| black_box(sa_2d(&tiny).unwrap().total_time))
    });
    // E-BLOW end to end: the pre-filter and clustering, then about 600
    // clustered nodes on the shelf engine under the max objective, which
    // keeps a running sum per region (10 on 2M-4).
    group.bench_function("eblow_2d_plan_2m4", |b| {
        b.iter(|| black_box(Eblow2d::default().plan(&inst).unwrap().total_time))
    });
    group.finish();
}

criterion_group!(benches, bench_hotpaths);
criterion_main!(benches);
