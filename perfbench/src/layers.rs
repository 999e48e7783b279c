//! The traced run: every layer timed from outside, through its public
//! functions, with the benchmark's own spans.
//!
//! Sections, in order:
//! 1. **portfolio** — the `Planner::plan` loop with tracing `Off` over the
//!    batch, with per-race reports: who won, who finished last, who the
//!    deadline cut; then again with `Counters` over its first instances
//!    (`trace.overhead`, pool counters).
//! 2. **solo** — every supporting strategy alone under the same deadline
//!    (`strategy_by_name(..).plan`), plus the model's validation check.
//! 3. **oned** (`mcc1d`, `huge1d`) — the E-BLOW 1D pipeline composed
//!    stage by stage from its public functions with no deadline; the
//!    composed `T` must equal `Eblow1d::plan`'s bit for bit.
//! 4. **twod** (`mcc2d`) — pre-filter and clustering alone; annealing is
//!    the solo `eblow2d` wall minus both (by subtraction).
//! 5. **ilp** (`tiny-exact`) — the exact ILPs at the workload deadline,
//!    and the brute-force certificate on single-row instances.
//!
//! The `Counters` loop, the solo section and the 1D stage section stop
//! taking new instances once their share of `--seconds` (`*_SHARE`) is
//! spent (always at least one instance), so a traced run lasts about as
//! long as an untraced one.

use crate::spans::Spans;
use crate::workload::Workload;
use crate::{check_plan, mean, median, Metric, Prepared, Tally};
use eblow_core::oned::{
    fast_ilp_convergence, post_insert, post_swap, refine_row_with_stop, solve_mkp_lp,
    successive_rounding, ConvergenceStats, Eblow1d, Eblow1dConfig, MkpItem, RowState,
};
use eblow_core::profit::RegionTimes;
use eblow_core::twod::{cluster_with_stop, prefilter, Eblow2dConfig};
use eblow_core::{Plan1d, StopFlag};
use eblow_engine::{strategy_by_name, Budget, EngineError, PlanOutcome, Planner, PortfolioConfig};
use eblow_lp::MilpStatus;
use eblow_model::{Instance, Placement1d, Row};
use eblow_trace::{self as trace, Level};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Shares of `--seconds` for the budgeted sections.
const COUNTERS_SHARE: f64 = 0.1;
const SOLO_SHARE: f64 = 0.15;
const ONED_SHARE: f64 = 0.15;

/// Strategies measured alone: registry name and metric name.
const STRATEGIES: [(&str, &str); 12] = [
    ("eblow1d@combinatorial", "eblow1d"),
    ("eblow1d@simplex", "eblow1d-simplex"),
    ("eblow1d-0", "eblow1d-0"),
    ("heuristic1d", "heuristic1d"),
    ("rowheur1d", "rowheur1d"),
    ("greedy1d", "greedy1d"),
    ("ilp1d", "ilp1d"),
    ("shard1d", "shard1d"),
    ("eblow2d", "eblow2d"),
    ("sa2d", "sa2d"),
    ("greedy2d", "greedy2d"),
    ("ilp2d", "ilp2d"),
];

/// Every per-layer metric: name, unit, and which direction is better.
pub fn catalogue() -> Vec<(String, &'static str, &'static str)> {
    let mut c: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| c.push((name.to_string(), unit, better));
    add("portfolio.tax", "ratio", "lower");
    add("portfolio.cut_frac", "ratio", "lower");
    add("portfolio.overrun_ms_max", "ms", "lower");
    for (_, s) in STRATEGIES {
        add(&format!("portfolio.last.{s}"), "count", "lower");
        add(&format!("portfolio.cut_by.{s}"), "count", "lower");
        add(&format!("portfolio.win.{s}"), "count", "higher");
    }
    for (_, s) in STRATEGIES {
        add(&format!("solo.{s}.s"), "s", "lower");
        add(&format!("solo.{s}.t_norm"), "ratio", "lower");
    }
    for (name, unit, better) in [
        ("oned.lp_cold_s", "s", "lower"),
        ("oned.rounding_s", "s", "lower"),
        ("oned.rounding.iters", "count", "lower"),
        ("oned.rounding.committed", "count", "higher"),
        ("oned.admits.probes", "count", "lower"),
        ("oned.admits.dp_share", "ratio", "lower"),
        ("oned.convergence_s", "s", "lower"),
        ("oned.convergence.ilp_vars", "count", "lower"),
        ("oned.convergence.committed", "count", "higher"),
        ("oned.convergence.commit_ratio", "ratio", "higher"),
        ("oned.refine_s", "s", "lower"),
        ("oned.refine.evicted", "count", "lower"),
        ("oned.post_swap_s", "s", "lower"),
        ("oned.post_swap.dt", "ratio", "higher"),
        ("oned.post_insert_s", "s", "lower"),
        ("oned.post_insert.dt", "ratio", "higher"),
        ("oned.pool.par_share", "ratio", "higher"),
        ("twod.prefilter_s", "s", "lower"),
        ("twod.prefilter.kept", "count", "lower"),
        ("twod.cluster_s", "s", "lower"),
        ("twod.cluster.nodes", "ratio", "lower"),
        ("twod.anneal_s", "s", "lower"),
        ("ilp.solve_s", "s", "lower"),
        ("ilp.proven_frac", "ratio", "higher"),
        ("ilp.nodes", "count", "lower"),
        ("ilp.binaries", "count", "lower"),
        ("ref.brute_force_s", "s", "lower"),
        ("shard.vs_mono", "ratio", "lower"),
        ("model.validate_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ] {
        add(name, unit, better);
    }
    c
}

/// The metric name of a race report, `None` for strategies outside the
/// measured set.
fn metric_name(report_name: &str) -> Option<&'static str> {
    STRATEGIES
        .iter()
        .find(|(registry, _)| *registry == report_name)
        .map(|(_, metric)| *metric)
}

/// Per-layer values; names outside the catalogue are a programming error.
struct Values(BTreeMap<String, f64>);

impl Values {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(self.0.contains_key(&name), "{name} is not in the catalogue");
        self.0.insert(name, value);
    }

    fn add(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let slot = self
            .0
            .get_mut(&name)
            .unwrap_or_else(|| panic!("{name} is not in the catalogue"));
        *slot += value;
    }
}

fn counter(name: &str) -> f64 {
    trace::counter_values()
        .iter()
        .find(|c| c.name == name)
        .map_or(0.0, |c| c.value as f64)
}

/// What one race did, read from its `PortfolioOutcome`.
struct Race {
    wall: f64,
    winner: Option<&'static str>,
    cut: bool,
}

/// Runs the `Planner::plan` loop at trace `level` over the instances, or
/// over as many as fit in `budget` seconds. With `report`, prints one line
/// per race and counts who won, finished last and was cut.
fn race_loop(
    workload: &Workload,
    prepared: &[Prepared],
    level: Level,
    budget: Option<f64>,
    spans: &mut Spans,
    tally: &mut Tally,
    mut report: Option<&mut Values>,
) -> (Vec<Race>, f64) {
    trace::set_level(level);
    let planner = Planner::portfolio().with_config(PortfolioConfig {
        deadline: Some(workload.deadline),
        ..PortfolioConfig::default()
    });
    let root = spans.open(format!("portfolio.{level:?}"), None, None);
    let mut races = Vec::with_capacity(prepared.len());
    let started = Instant::now();
    for (k, p) in prepared.iter().enumerate() {
        if budget.is_some_and(|b| !within_budget(k, started, b)) {
            break;
        }
        let (outcome, wall) = spans.time("race", Some(root), Some(k), || planner.plan(&p.instance));
        let what = format!("{} race ({level:?})", p.label);
        tally.record(&what, check_plan(p, outcome.best.as_ref()));
        let cut = !outcome.complete();
        let last = outcome
            .reports
            .iter()
            .filter(|r| r.elapsed > Duration::ZERO)
            .max_by_key(|r| r.elapsed)
            .map(|r| r.name);
        if let Some(values) = report.as_deref_mut() {
            let cut_by: Vec<&str> = outcome
                .reports
                .iter()
                .filter(|r| r.cancelled && !outcome.early_exit)
                .map(|r| r.name)
                .collect();
            println!(
                "race {:<10} wall {wall:.3}s  winner {:<22} last {:<22} cut_by [{}]",
                p.label,
                outcome.winner().unwrap_or("-"),
                last.unwrap_or("-"),
                cut_by.join(", ")
            );
            for name in cut_by.iter().filter_map(|n| metric_name(n)) {
                values.add(format!("portfolio.cut_by.{name}"), 1.0);
            }
            if let Some(name) = last.and_then(metric_name) {
                values.add(format!("portfolio.last.{name}"), 1.0);
            }
            if let Some(name) = outcome.winner().and_then(metric_name) {
                values.add(format!("portfolio.win.{name}"), 1.0);
            }
        }
        races.push(Race {
            wall,
            winner: outcome.winner(),
            cut,
        });
    }
    let total = spans.close(root);
    trace::set_level(Level::Off);
    (races, total)
}

/// Plans `instance` with one strategy alone, cancelling its budget at the
/// deadline the way the portfolio executor does.
fn plan_solo(
    strategy: &dyn eblow_engine::Strategy,
    instance: &Instance,
    deadline: Duration,
) -> Result<PlanOutcome, EngineError> {
    let budget = Budget::with_deadline(deadline)
        .with_ilp_time_limit(PortfolioConfig::default().ilp_time_limit);
    let (done, wait) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let watchdog = budget.clone();
        scope.spawn(move || {
            if matches!(wait.recv_timeout(deadline), Err(RecvTimeoutError::Timeout)) {
                watchdog.cancel();
            }
        });
        let result = strategy.plan(instance, &budget);
        drop(done);
        result
    })
}

/// One instance planned by the composed 1D pipeline.
struct Composed {
    lp_cold_s: f64,
    rounding_s: f64,
    iters: usize,
    committed: usize,
    convergence_s: f64,
    stats: ConvergenceStats,
    refine_s: f64,
    evicted: usize,
    post_swap_s: f64,
    post_swap_dt: f64,
    post_insert_s: f64,
    post_insert_dt: f64,
    probes: f64,
    dp: f64,
    plan: PlanOutcome,
}

/// The E-BLOW 1D pipeline (`Eblow1d::plan` with the default
/// configuration) composed from its public stage functions, each stage in
/// its own span.
fn compose_1d(
    p: &Prepared,
    spans: &mut Spans,
    parent: usize,
    k: usize,
) -> Result<Composed, String> {
    let inst = &p.instance;
    let config = Eblow1dConfig::default();
    let num_rows = inst.num_rows().map_err(|e| e.to_string())?;
    let row_height = inst.stencil().row_height().ok_or("not row-structured")?;
    let w = inst.stencil().width();
    let never = StopFlag::NEVER;
    let oracle = config.oracle.as_ref();
    let (parent, plan) = (Some(parent), Some(k));

    // A cold LP over the initial item set, repeated for a stable median.
    let items = MkpItem::initial_set(inst);
    let bases = vec![RowState::default().base(); num_rows];
    let mut lp_times: Vec<f64> = (0..5)
        .map(|_| {
            spans
                .time("oned.lp_cold", parent, plan, || {
                    solve_mkp_lp(&items, &bases, w)
                })
                .1
        })
        .collect();
    let lp_cold_s = median(&mut lp_times);

    let eligible: Vec<usize> = (0..inst.num_chars())
        .filter(|&i| {
            let c = inst.char(i);
            c.height() <= row_height && c.width() <= w
        })
        .collect();
    let (probes0, dp0) = (admits_probes(), counter("admits.dp"));
    let (mut outcome, rounding_s) = spans.time("oned.rounding", parent, plan, || {
        successive_rounding(inst, &eligible, num_rows, &config.rounding, oracle, never)
    });
    let iters = outcome.trace.unsolved_per_iter.len();
    let committed = outcome.trace.committed_per_iter.iter().sum();

    let (mut convergence_s, mut stats) = (0.0, ConvergenceStats::default());
    if config.fast_ilp {
        let lp = outcome.last_lp.take();
        let items: Vec<MkpItem> = if lp.is_some() {
            std::mem::take(&mut outcome.last_items)
        } else {
            outcome
                .unsolved
                .iter()
                .map(|&i| MkpItem::of_char(inst, &outcome.region_times, i))
                .collect()
        };
        if !items.is_empty() {
            let ((_, s), secs) = spans.time("oned.convergence", parent, plan, || {
                fast_ilp_convergence(
                    inst,
                    &mut outcome.rows,
                    &mut outcome.region_times,
                    &items,
                    lp.as_ref(),
                    &config.convergence,
                    oracle,
                    never,
                )
            });
            (convergence_s, stats) = (secs, s);
        }
    }
    let (probes, dp) = (admits_probes() - probes0, counter("admits.dp") - dp0);

    let mut region_times: RegionTimes = outcome.region_times;
    let refine = spans.open("oned.refine", parent, plan);
    let mut evicted = 0;
    let mut rows = Vec::with_capacity(num_rows);
    for rs in &outcome.rows {
        let (mut order, mut width) =
            refine_row_with_stop(inst, &rs.members, config.refine_threshold, never);
        while width > w && !order.is_empty() {
            // Width repair: evict the member with the lowest dynamic profit.
            let (drop_pos, _) = order
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    region_times
                        .profit(inst, a.index())
                        .total_cmp(&region_times.profit(inst, b.index()))
                })
                .expect("non-empty order");
            let dropped = order.remove(drop_pos);
            region_times.deselect(inst, dropped.index());
            evicted += 1;
            (order, width) = refine_row_with_stop(inst, &order, config.refine_threshold, never);
        }
        rows.push(Row::from_order(order));
    }
    let mut placement = Placement1d::from_rows(rows);
    let mut selection = placement.selection(inst.num_chars());
    let refine_s = spans.close(refine);

    let vsb = p.vsb as f64;
    let before_swap = region_times.total();
    let (_, post_swap_s) = spans.time("oned.post_swap", parent, plan, || {
        post_swap(
            inst,
            &mut placement,
            &mut selection,
            &mut region_times,
            &config.post,
            never,
        )
    });
    let before_insert = region_times.total();
    let (_, post_insert_s) = spans.time("oned.post_insert", parent, plan, || {
        post_insert(
            inst,
            &mut placement,
            &mut selection,
            &mut region_times,
            &config.post,
            never,
        )
    });
    let after = region_times.total();

    let plan = PlanOutcome::from_1d(
        "composed-eblow1d",
        Plan1d {
            placement,
            selection,
            region_times: region_times.times().to_vec(),
            total_time: after,
            elapsed: Duration::ZERO,
            trace: None,
        },
    );
    Ok(Composed {
        lp_cold_s,
        rounding_s,
        iters,
        committed,
        convergence_s,
        stats,
        refine_s,
        evicted,
        post_swap_s,
        post_swap_dt: (before_swap as f64 - before_insert as f64) / vsb,
        post_insert_s,
        post_insert_dt: (before_insert as f64 - after as f64) / vsb,
        probes,
        dp,
        plan,
    })
}

/// Admission probes decided at any stage (`admits.*` counters).
fn admits_probes() -> f64 {
    [
        "admits.estimate_reject",
        "admits.estimate_exact",
        "admits.beam",
        "admits.dp",
    ]
    .iter()
    .map(|n| counter(n))
    .sum()
}

/// Whether a section that began at `started` may take instance `k`: the
/// first always, later ones while the section has used under `budget` s.
fn within_budget(k: usize, started: Instant, budget: f64) -> bool {
    k == 0 || started.elapsed().as_secs_f64() < budget
}

/// Runs the traced sections and returns every per-layer metric (zero
/// where a layer is not exercised by the workload).
pub fn run(
    workload: &Workload,
    prepared: &[Prepared],
    seconds: f64,
    tally: &mut Tally,
    spans_path: &Path,
) -> Vec<Metric> {
    let catalogue = catalogue();
    let mut values = Values(catalogue.iter().map(|(n, _, _)| (n.clone(), 0.0)).collect());
    let mut spans = Spans::new();
    let deadline = workload.deadline;
    let deadline_s = deadline.as_secs_f64();
    let n = prepared.len().max(1) as f64;

    // 1. Portfolio, untraced and then with counters on the first instances.
    let (races, _) = race_loop(
        workload,
        prepared,
        Level::Off,
        None,
        &mut spans,
        tally,
        Some(&mut values),
    );
    let (par0, seq0) = (counter("pool.par_regions"), counter("pool.seq_regions"));
    let (counted, counters_total) = race_loop(
        workload,
        prepared,
        Level::Counters,
        Some(seconds * COUNTERS_SHARE),
        &mut spans,
        tally,
        None,
    );
    let (par, seq) = (
        counter("pool.par_regions") - par0,
        counter("pool.seq_regions") - seq0,
    );
    let off_total: f64 = races[..counted.len()].iter().map(|r| r.wall).sum();
    values.set(
        "trace.overhead",
        counters_total / off_total.max(f64::MIN_POSITIVE),
    );
    if par + seq > 0.0 {
        values.set("oned.pool.par_share", par / (par + seq));
    }
    values.set(
        "portfolio.cut_frac",
        races.iter().filter(|r| r.cut).count() as f64 / n,
    );
    let overrun = races
        .iter()
        .filter(|r| r.cut)
        .map(|r| (r.wall - deadline_s) * 1e3)
        .fold(0.0, f64::max);
    values.set("portfolio.overrun_ms_max", overrun);

    // 2. Every supporting strategy alone, under the same deadline.
    let solo_root = spans.open("solo", None, None);
    let started = Instant::now();
    // solo[(metric name, instance)] = (wall, T)
    let mut solo: BTreeMap<(&str, usize), (f64, u64)> = BTreeMap::new();
    let mut validate_times = Vec::new();
    for (k, p) in prepared.iter().enumerate() {
        if !within_budget(k, started, seconds * SOLO_SHARE) {
            break;
        }
        for (registry, name) in STRATEGIES {
            let strategy = strategy_by_name(registry).expect("registered strategy");
            if !strategy.supports(&p.instance) {
                continue;
            }
            let (result, wall) =
                spans.time(format!("solo.{name}"), Some(solo_root), Some(k), || {
                    plan_solo(strategy.as_ref(), &p.instance, deadline)
                });
            let what = format!("{} solo {name}", p.label);
            let checked = result.map_err(|e| e.to_string()).and_then(|plan| {
                // The check the portfolio pays per strategy plan.
                let (valid, secs) = spans.time("model.validate", Some(solo_root), Some(k), || {
                    plan.validate(&p.instance)
                        .map(|()| p.instance.total_writing_time(&plan.selection))
                });
                validate_times.push(secs);
                valid.map_err(|e| e.to_string())?;
                check_plan(p, Some(&plan)).map(|_| plan.total_time)
            });
            if let Some(t) = tally.record(&what, checked) {
                solo.insert((name, k), (wall, t));
            }
        }
    }
    spans.close(solo_root);
    for (_, name) in STRATEGIES {
        let runs: Vec<(usize, f64, u64)> = solo
            .iter()
            .filter(|((s, _), _)| *s == name)
            .map(|(&(_, k), &(wall, t))| (k, wall, t))
            .collect();
        if runs.is_empty() {
            continue;
        }
        let mut walls: Vec<f64> = runs.iter().map(|r| r.1).collect();
        values.set(format!("solo.{name}.s"), median(&mut walls));
        let norms: Vec<f64> = runs
            .iter()
            .map(|&(k, _, t)| t as f64 / prepared[k].vsb as f64)
            .collect();
        values.set(format!("solo.{name}.t_norm"), mean(&norms));
    }
    values.set("model.validate_s", median(&mut validate_times));
    let mut taxes: Vec<f64> = races
        .iter()
        .enumerate()
        .filter_map(|(k, r)| {
            let winner = metric_name(r.winner?)?;
            let &(solo_wall, _) = solo.get(&(winner, k))?;
            Some(r.wall / solo_wall.max(1e-9))
        })
        .collect();
    values.set("portfolio.tax", median(&mut taxes));
    let shard_ratios: Vec<f64> = (0..prepared.len())
        .filter_map(|k| {
            let (_, shard) = solo.get(&("shard1d", k))?;
            let (_, mono) = solo.get(&("eblow1d", k))?;
            Some(*shard as f64 / (*mono).max(1) as f64)
        })
        .collect();
    if !shard_ratios.is_empty() {
        values.set("shard.vs_mono", mean(&shard_ratios));
    }

    // 3. The 1D pipeline stage by stage, with counters on for `admits.*`.
    if matches!(workload.name, "mcc1d" | "huge1d") {
        trace::set_level(Level::Counters);
        let root = spans.open("oned", None, None);
        let started = Instant::now();
        let mut done: Vec<(usize, Composed)> = Vec::new();
        for (k, p) in prepared.iter().enumerate() {
            if !within_budget(k, started, seconds * ONED_SHARE) {
                break;
            }
            let what = format!("{} composed eblow1d", p.label);
            let checked = compose_1d(p, &mut spans, root, k).and_then(|composed| {
                check_plan(p, Some(&composed.plan))?;
                // The breakdown must measure the same program: the composed
                // stages reproduce `Eblow1d::plan` bit for bit.
                let (reference, _) = spans.time("oned.reference", Some(root), Some(k), || {
                    Eblow1d::default().plan(&p.instance)
                });
                let reference = reference.map_err(|e| e.to_string())?;
                if reference.total_time != composed.plan.total_time
                    || reference.selection != composed.plan.selection
                {
                    return Err(format!(
                        "composed T {} != Eblow1d::plan T {}",
                        composed.plan.total_time, reference.total_time
                    ));
                }
                Ok(composed)
            });
            if let Some(composed) = tally.record(&what, checked) {
                done.push((k, composed));
            }
        }
        spans.close(root);
        trace::set_level(Level::Off);
        let avg = |f: &dyn Fn(&Composed) -> f64| {
            mean(&done.iter().map(|(_, c)| f(c)).collect::<Vec<_>>())
        };
        values.set("oned.lp_cold_s", avg(&|c| c.lp_cold_s));
        values.set("oned.rounding_s", avg(&|c| c.rounding_s));
        values.set("oned.rounding.iters", avg(&|c| c.iters as f64));
        values.set("oned.rounding.committed", avg(&|c| c.committed as f64));
        values.set("oned.convergence_s", avg(&|c| c.convergence_s));
        values.set(
            "oned.convergence.ilp_vars",
            avg(&|c| c.stats.ilp_vars as f64),
        );
        values.set(
            "oned.convergence.committed",
            avg(&|c| (c.stats.committed_by_threshold + c.stats.committed_by_ilp) as f64),
        );
        let ilp_vars: usize = done.iter().map(|(_, c)| c.stats.ilp_vars).sum();
        let by_ilp: usize = done.iter().map(|(_, c)| c.stats.committed_by_ilp).sum();
        if ilp_vars > 0 {
            values.set(
                "oned.convergence.commit_ratio",
                by_ilp as f64 / ilp_vars as f64,
            );
        }
        values.set("oned.refine_s", avg(&|c| c.refine_s));
        values.set("oned.refine.evicted", avg(&|c| c.evicted as f64));
        values.set("oned.post_swap_s", avg(&|c| c.post_swap_s));
        values.set("oned.post_swap.dt", avg(&|c| c.post_swap_dt));
        values.set("oned.post_insert_s", avg(&|c| c.post_insert_s));
        values.set("oned.post_insert.dt", avg(&|c| c.post_insert_dt));
        values.set("oned.admits.probes", avg(&|c| c.probes));
        let (probes, dp) = done
            .iter()
            .fold((0.0, 0.0), |(a, b), (_, c)| (a + c.probes, b + c.dp));
        if probes > 0.0 {
            values.set("oned.admits.dp_share", dp / probes);
        }
        for (k, c) in &done {
            println!(
                "oned {:<10} rounding {:.3}s ({} iters, {} committed)  convergence {:.3}s ({} vars, {}+{} committed)  refine {:.3}s  post {:.3}s+{:.3}s",
                prepared[*k].label,
                c.rounding_s,
                c.iters,
                c.committed,
                c.convergence_s,
                c.stats.ilp_vars,
                c.stats.committed_by_threshold,
                c.stats.committed_by_ilp,
                c.refine_s,
                c.post_swap_s,
                c.post_insert_s
            );
        }
    }

    // 4. 2D pre-filter and clustering alone; annealing by subtraction.
    if workload.name == "mcc2d" {
        let config = Eblow2dConfig::default();
        let root = spans.open("twod", None, None);
        let (mut pre, mut clu, mut kept, mut nodes, mut anneal) =
            (vec![], vec![], vec![], vec![], vec![]);
        for (k, p) in prepared.iter().enumerate() {
            let inst = &p.instance;
            let profits = RegionTimes::new(inst).profits(inst);
            let (kept_set, pre_s) = spans.time("twod.prefilter", Some(root), Some(k), || {
                prefilter(inst, &profits, config.prefilter_factor)
            });
            let (packed, clu_s) = spans.time("twod.cluster", Some(root), Some(k), || {
                cluster_with_stop(
                    inst,
                    &kept_set,
                    &profits,
                    config.cluster_bound,
                    StopFlag::NEVER,
                )
            });
            if let Some(&(solo_wall, _)) = solo.get(&("eblow2d", k)) {
                anneal.push(solo_wall - pre_s - clu_s);
            }
            pre.push(pre_s);
            clu.push(clu_s);
            kept.push(kept_set.len() as f64);
            nodes.push(packed.len() as f64 / kept_set.len().max(1) as f64);
        }
        spans.close(root);
        values.set("twod.prefilter_s", mean(&pre));
        values.set("twod.prefilter.kept", mean(&kept));
        values.set("twod.cluster_s", mean(&clu));
        values.set("twod.cluster.nodes", mean(&nodes));
        values.set("twod.anneal_s", mean(&anneal));
    }

    // 5. Exact ILPs at the workload deadline, and the brute-force certificate.
    if workload.name == "tiny-exact" {
        let root = spans.open("ilp", None, None);
        let (mut solve, mut proven, mut nodes, mut binaries, mut brute) =
            (vec![], vec![], vec![], vec![], vec![]);
        for (k, p) in prepared.iter().enumerate() {
            let inst = &p.instance;
            let one_d = inst.stencil().row_height().is_some();
            let (out, secs) = spans.time("ilp.solve", Some(root), Some(k), || {
                if one_d {
                    eblow_core::ilp::solve_ilp_1d(inst, deadline).map_err(|e| e.to_string())
                } else {
                    Ok(eblow_core::ilp::solve_ilp_2d(inst, deadline))
                }
            });
            let what = format!("{} exact ilp", p.label);
            let checked = out.and_then(|out| match (p.row_optimum, out.total_time) {
                (Some(opt), Some(t)) if t < opt => {
                    Err(format!("ILP T {t} < brute-force optimum {opt}"))
                }
                (Some(opt), Some(t)) if out.status == MilpStatus::Optimal && t != opt => {
                    Err(format!("proven ILP T {t} != brute-force optimum {opt}"))
                }
                _ => Ok(out),
            });
            let Some(out) = tally.record(&what, checked) else {
                continue;
            };
            solve.push(secs);
            proven.push(f64::from(u8::from(out.status == MilpStatus::Optimal)));
            nodes.push(out.nodes as f64);
            binaries.push(out.binary_vars as f64);
            if p.row_optimum.is_some() {
                let mut reps: Vec<f64> = (0..3)
                    .map(|_| {
                        spans
                            .time("ref.brute_force", Some(root), Some(k), || {
                                eblow_hardness::brute_force_min_row(inst)
                            })
                            .1
                    })
                    .collect();
                brute.push(median(&mut reps));
            }
        }
        spans.close(root);
        values.set("ilp.solve_s", mean(&solve));
        values.set("ilp.proven_frac", mean(&proven));
        values.set("ilp.nodes", mean(&nodes));
        values.set("ilp.binaries", mean(&binaries));
        values.set("ref.brute_force_s", mean(&brute));
    }

    if let Err(e) = spans.write(spans_path) {
        eprintln!("could not write spans to {}: {e}", spans_path.display());
    } else {
        println!("spans written to {}", spans_path.display());
    }
    catalogue
        .into_iter()
        .map(|(name, unit, _)| {
            let value = values.0[&name];
            Metric::new(name, value, unit)
        })
        .collect()
}
