//! Sharded planning: the composite `shard1d` strategy.
//!
//! E-BLOW's MCC formulation decomposes naturally — each CP region carries
//! its own repeat column and candidate affinity, and the stencil splits
//! into disjoint row bands. `shard1d` exploits this: a huge row-structured
//! instance (tens of thousands of candidates) is split into per-region /
//! per-row-band [`SubInstance`]s, each shard races a fixed inner trio
//! (`eblow1d@combinatorial`, `rowheur1d`, `greedy1d`) in parallel under
//! the full remaining deadline window, and the sub-plans stitch back into
//! one placement on the original instance (`eblow_model::shard`), followed
//! by a reconciliation pass:
//!
//! 1. characters selected by more than one shard keep a single stencil
//!    slot (one slot serves every region), and
//! 2. the freed row space is refilled greedily with the most profitable
//!    unplaced candidates.
//!
//! `shard1d` is not in the default race: there it never changed a plan.
//! [`strategy_by_name`](crate::strategy_by_name) still builds it by name.

use crate::budget::Budget;
use crate::outcome::{EngineError, PlanDetail, PlanOutcome};
use crate::portfolio::Portfolio;
use crate::strategy::Strategy;
use eblow_core::Plan1d;
use eblow_model::shard::{stitch_1d, SubInstance};
use eblow_model::{CharId, Instance, Placement1d, Selection};
use eblow_trace as trace;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Characters recovered by the post-stitch top-up (counter
/// `shard.top_up_added`).
static TOPUP_ADDED: trace::Counter = trace::Counter::new("shard.top_up_added");
/// Duplicate placements reconciled away during stitching (counter
/// `shard.duplicates_dropped`).
static DUPLICATES_DROPPED: trace::Counter = trace::Counter::new("shard.duplicates_dropped");
/// Monolithic refinement passes that beat the stitched plan (counter
/// `shard.mono_refine_won`).
static MONO_REFINE_WON: trace::Counter = trace::Counter::new("shard.mono_refine_won");

/// Minimum leftover deadline window worth spending on the monolithic
/// refinement lane; below this the quality member cannot do better than
/// its cheapest valid completion and the stitched plan stands as-is.
const MONO_REFINE_MIN_WINDOW: Duration = Duration::from_millis(100);

/// Thresholds of the shard split. Only tests change them.
///
/// Under an unlimited budget the split is a deterministic function of the
/// instance and this configuration. Deadline runs also fold in the
/// remaining window (the shard count tracks how much the inner trio can
/// plan within it); such races are only cached when they complete
/// undegraded, like any other deadline race.
#[derive(Debug, Clone)]
struct ShardConfig {
    /// `supports()` gate: instances with fewer candidates are left to the
    /// monolithic strategies (sharding overhead dominates below this).
    min_chars: usize,
    /// Preferred candidate count per shard for deadline-free runs; the
    /// shard count is `ceil(n / target)` clamped to `2..=max_shards` (and
    /// to the available rows / region count). Deadline runs derive the
    /// target from the window instead ([`adaptive_target_chars`]).
    target_shard_chars: usize,
    /// Hard cap on the number of shards (each shard races the inner
    /// portfolio on its own OS threads).
    max_shards: usize,
    /// A candidate becomes a shard's candidate whenever that shard's region
    /// group holds at least this fraction of the candidate's total
    /// writing-time reduction (its best group always qualifies). Values
    /// below 1.0 duplicate border candidates into several shards; the
    /// stitch reconciliation keeps one slot per character.
    duplicate_share: f64,
    /// Wall-clock reserved out of the budget for stitching + reconciliation
    /// (the shard races see the deadline minus this reserve).
    stitch_reserve: Duration,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            min_chars: 5000,
            target_shard_chars: 2000,
            max_shards: 8,
            duplicate_share: 0.25,
            stitch_reserve: Duration::from_millis(150),
        }
    }
}

/// Sorts candidate indices by descending profit density
/// (`total_reduction / width`), index-ascending on ties. The one density
/// definition the split and the stitch top-up share.
fn sort_by_density_desc(order: &mut [usize], instance: &Instance) {
    let density =
        |i: usize| instance.total_reduction(i) as f64 / instance.char(i).width().max(1) as f64;
    order.sort_by(|&a, &b| density(b).total_cmp(&density(a)).then(a.cmp(&b)));
}

/// One shard of a 1D split: a candidate subset and a stencil row band.
#[derive(Debug, Clone)]
struct ShardSpec1d {
    chars: Vec<usize>,
    start_row: usize,
    rows: usize,
}

/// The cheap `supports()` gate for 1D sharding. Whenever this holds,
/// [`split_1d`] is guaranteed to produce a split, so the expensive split
/// computation runs once, inside `plan()`, not on every registry filter.
fn gates_1d(instance: &Instance, config: &ShardConfig) -> bool {
    instance.num_chars() >= config.min_chars.max(2) && instance.num_rows().is_ok_and(|r| r >= 2)
}

/// Splits a 1D instance into balanced shards.
///
/// Multi-region instances group regions by workload (LPT over `T_VSB_c`)
/// and assign every candidate to each group holding a meaningful share of
/// its total reduction (its best group always, plus any group above
/// `duplicate_share`). Single-region instances deal candidates round-robin
/// in profit-density order. Stencil rows are then allocated to shards in
/// proportion to their summed candidate width (d'Hondt largest-quotient,
/// ≥ 1 row each).
// audit:allow(stop-flag-reachability): one pass over candidates and rows, runs once at plan start before the planning loops
fn split_1d(
    instance: &Instance,
    config: &ShardConfig,
    target_chars: usize,
) -> Option<Vec<ShardSpec1d>> {
    if !gates_1d(instance, config) {
        return None;
    }
    let total_rows = instance.num_rows().ok()?;
    let n = instance.num_chars();
    let k = n
        .div_ceil(target_chars.max(1))
        .clamp(2, config.max_shards.min(total_rows));
    let regions = instance.num_regions();

    let mut shard_chars: Vec<Vec<usize>> = if regions >= 2 {
        let k = k.min(regions);
        // Group regions by workload: longest-processing-time over T_VSB_c.
        let mut order: Vec<usize> = (0..regions).collect();
        order.sort_by_key(|&c| std::cmp::Reverse((instance.vsb_time(c), c)));
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut load = vec![0u64; k];
        for c in order {
            let g = (0..k).min_by_key(|&g| (load[g], g)).expect("k >= 2");
            groups[g].push(c);
            load[g] += instance.vsb_time(c);
        }
        let mut shard_chars: Vec<Vec<usize>> = vec![Vec::new(); k];
        // Region → group map once, then one pass over each candidate's
        // sparse row: the per-candidate group sums cost O(nnz_i) instead of
        // a dense O(P) multiply sweep per group.
        let mut group_of = vec![0usize; regions];
        for (g, grp) in groups.iter().enumerate() {
            for &c in grp {
                group_of[c] = g;
            }
        }
        let mut by_group = vec![0u64; k];
        for i in 0..n {
            by_group.iter_mut().for_each(|v| *v = 0);
            for e in instance.sparse_row(i) {
                by_group[group_of[e.region as usize]] += e.reduction;
            }
            let total: u64 = by_group.iter().sum();
            if total == 0 {
                shard_chars[i % k].push(i);
                continue;
            }
            let primary = (0..k)
                .max_by_key(|&g| (by_group[g], std::cmp::Reverse(g)))
                .expect("k >= 2");
            for (g, &red) in by_group.iter().enumerate() {
                if g == primary || red as f64 >= config.duplicate_share * total as f64 {
                    shard_chars[g].push(i);
                }
            }
        }
        shard_chars
    } else {
        // Single region: deal candidates round-robin in density order so
        // every shard gets a similar profit mix.
        let mut order: Vec<usize> = (0..n).collect();
        sort_by_density_desc(&mut order, instance);
        let mut shard_chars: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (pos, i) in order.into_iter().enumerate() {
            shard_chars[pos % k].push(i);
        }
        shard_chars
    };
    shard_chars.retain(|cs| !cs.is_empty());
    let k = shard_chars.len();
    if k == 0 || total_rows < k {
        return None;
    }

    // Row bands proportional to each shard's width demand, ≥ 1 row each
    // (d'Hondt: repeatedly grant a row to the shard with the largest
    // demand-per-row quotient).
    let demand: Vec<u64> = shard_chars
        .iter()
        .map(|cs| {
            cs.iter()
                .map(|&i| instance.char(i).width())
                .sum::<u64>()
                .max(1)
        })
        .collect();
    let mut rows = vec![1usize; k];
    for _ in 0..total_rows - k {
        let g = (0..k)
            .max_by(|&a, &b| {
                let qa = demand[a] as f64 / rows[a] as f64;
                let qb = demand[b] as f64 / rows[b] as f64;
                qa.total_cmp(&qb).then(b.cmp(&a))
            })
            .expect("k >= 1");
        rows[g] += 1;
    }
    let mut specs = Vec::with_capacity(k);
    let mut start_row = 0usize;
    for (chars, band) in shard_chars.into_iter().zip(rows) {
        specs.push(ShardSpec1d {
            chars,
            start_row,
            rows: band,
        });
        start_row += band;
    }
    Some(specs)
}

/// Bounds on the adaptive per-shard candidate target: below the floor the
/// stitch/fan-out overhead dominates any shard; the ceiling only guards
/// against a pathological window.
const ADAPTIVE_TARGET_FLOOR: usize = 256;
const ADAPTIVE_TARGET_CEIL: usize = 1 << 20;

/// Candidates per second the slowest inner member, `eblow1d@combinatorial`,
/// plans. It is also the quality member whose finish decides a shard's
/// plan, so it alone sizes the shards.
const INNER_CHARS_PER_SEC: f64 = 800.0;

/// The per-shard candidate target of a deadline run: the number of
/// candidates the quality member plans within `window`. Shards race in
/// parallel, so each shard sees the full window.
fn adaptive_target_chars(window: Duration) -> usize {
    let secs = window.as_secs_f64().max(0.05);
    ((INNER_CHARS_PER_SEC * secs) as usize).clamp(ADAPTIVE_TARGET_FLOOR, ADAPTIVE_TARGET_CEIL)
}

/// Resolves the per-shard candidate target for one `plan()` call: the
/// window-derived value under a deadline, the fixed configuration value
/// otherwise (keeping deadline-free runs exactly reproducible).
fn resolve_target_chars(config: &ShardConfig, budget: &Budget) -> usize {
    match budget.remaining() {
        Some(remaining) => adaptive_target_chars(remaining.saturating_sub(config.stitch_reserve)),
        None => config.target_shard_chars,
    }
}

/// Whether a `plan()` call that has already stitched should spend the
/// rest of its deadline window on a monolithic pass over the full
/// instance. Unlimited budgets say no — the lane would double the work
/// and change the deterministic deadline-free shard plans for nothing —
/// as do windows too short for the quality member to improve anything.
fn mono_refine_window_open(budget: &Budget) -> bool {
    budget
        .remaining()
        .is_some_and(|r| r > MONO_REFINE_MIN_WINDOW)
        && !budget.is_cancelled()
}

/// Races the inner portfolio on every shard in parallel.
///
/// Each shard gets its own [`Budget`] over the *full* remaining window
/// minus the stitch reserve: shards race concurrently from t = 0, so
/// slicing the window per shard would cancel small shards early while
/// cores sit idle — and since a fired shard deadline marks the stitched
/// plan degraded (uncacheable), every shard deserves the whole window and
/// degradation only means a shard genuinely ran out of time. The outer
/// budget's stop flag is propagated to every shard budget by a 10 ms
/// watchdog, so an engine-level cancellation tears the whole fan-out down
/// cooperatively. Returns each shard's best outcome plus whether *any*
/// shard budget was cancelled (its deadline fired or the outer stop
/// propagated) — the composite's plan is then possibly degraded even when
/// the caller's own budget never fired, and the caller must say so.
fn race_shards(
    inner: &Portfolio,
    subs: &[SubInstance],
    budget: &Budget,
    reserve: Duration,
) -> (Vec<Option<PlanOutcome>>, bool) {
    let window = budget.remaining().map(|r| r.saturating_sub(reserve));
    let budgets: Vec<Budget> = subs
        .iter()
        .map(|_| match window {
            Some(w) => Budget::with_deadline(w),
            None => Budget::unlimited(),
        })
        .collect();
    let (tx, rx) = mpsc::channel::<(usize, Option<PlanOutcome>)>();
    std::thread::scope(|scope| {
        for (idx, (sub, shard_budget)) in subs.iter().zip(&budgets).enumerate() {
            let tx = tx.clone();
            scope.spawn(move || {
                // One swim-lane per shard; the inner race's own spans nest
                // under this one.
                trace::set_thread_label("shard");
                let _span = trace::span_with("shard.race", || {
                    format!("shard={idx} chars={}", sub.instance().num_chars())
                });
                let outcome = inner.run_with_budget(sub.instance(), shard_budget);
                // A closed channel means the collector gave up; nothing
                // useful to do from a shard thread.
                let _ = tx.send((idx, outcome.best));
            });
        }
        drop(tx);
        let mut outs: Vec<Option<PlanOutcome>> = (0..subs.len()).map(|_| None).collect();
        let mut pending = subs.len();
        while pending > 0 {
            match rx.recv_timeout(Duration::from_millis(10)) {
                Ok((i, best)) => {
                    outs[i] = best;
                    pending -= 1;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if budget.is_cancelled() {
                        for b in &budgets {
                            b.cancel();
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        let any_cancelled = budgets.iter().any(Budget::is_cancelled);
        (outs, any_cancelled)
    })
}

/// Greedy refill of row space freed by duplicate reconciliation: unplaced
/// candidates, most profitable per micrometer first, go into the first row
/// with enough spare width. Returns the number of characters added.
fn top_up_1d(
    instance: &Instance,
    placement: &mut Placement1d,
    selection: &mut Selection,
    budget: &Budget,
) -> usize {
    let stencil_w = instance.stencil().width();
    let Some(row_height) = instance.stencil().row_height() else {
        return 0;
    };
    let mut spare: Vec<u64> = placement
        .rows()
        .iter()
        .map(|r| stencil_w.saturating_sub(r.min_width(instance)))
        .collect();
    let mut order: Vec<usize> = selection
        .iter_unselected()
        .filter(|&i| instance.total_reduction(i) > 0 && instance.char(i).height() <= row_height)
        .collect();
    sort_by_density_desc(&mut order, instance);
    let mut added = 0usize;
    for i in order {
        if budget.is_cancelled() {
            break;
        }
        for r in 0..placement.num_rows() {
            let row = &placement.rows()[r];
            let delta = row.insertion_delta(instance, row.len(), CharId::from(i));
            if delta <= spare[r] {
                placement.row_mut(r).push_right(CharId::from(i));
                spare[r] -= delta;
                selection.insert(i);
                added += 1;
                break;
            }
        }
    }
    added
}

/// The sharded 1D composite strategy.
///
/// Splits a huge row-structured instance into per-region / per-row-band
/// shards, races the inner trio on each shard in parallel, and stitches
/// the sub-plans into one validated [`Plan1d`] with duplicate
/// reconciliation and a greedy top-up of freed space.
pub struct Shard1dStrategy {
    inner: Portfolio,
    config: ShardConfig,
}

impl Default for Shard1dStrategy {
    fn default() -> Self {
        Shard1dStrategy::new()
    }
}

impl Shard1dStrategy {
    /// The composite: each shard races the fast 1D trio
    /// (`eblow1d@combinatorial`, `rowheur1d`, `greedy1d`).
    pub fn new() -> Self {
        Shard1dStrategy {
            inner: Portfolio::new(vec![
                Arc::new(crate::strategy::Eblow1dStrategy::default()),
                Arc::new(crate::strategy::RowHeuristic1dStrategy),
                Arc::new(crate::strategy::Greedy1dStrategy),
            ]),
            config: ShardConfig::default(),
        }
    }
}

impl Strategy for Shard1dStrategy {
    fn name(&self) -> &'static str {
        "shard1d"
    }

    fn supports(&self, instance: &Instance) -> bool {
        gates_1d(instance, &self.config)
    }

    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let started = Instant::now();
        let target = resolve_target_chars(&self.config, budget);
        let specs = split_1d(instance, &self.config, target).ok_or_else(|| EngineError::Unsupported {
            strategy: self.name(),
            reason: format!(
                "instance not shardable (needs a row-structured stencil with ≥ 2 rows and ≥ {} candidates)",
                self.config.min_chars
            ),
        })?;
        let subs: Vec<SubInstance> = specs
            .iter()
            .map(|s| SubInstance::extract_rows(instance, &s.chars, s.start_row, s.rows))
            .collect::<Result<_, _>>()?;
        let _span = trace::span(self.name());
        trace::instant_with("shard.split", subs.len() as i64, target as i64, || {
            let sizes: Vec<String> = subs
                .iter()
                .map(|s| s.instance().num_chars().to_string())
                .collect();
            format!("sizes=[{}]", sizes.join(","))
        });
        let (results, degraded) =
            race_shards(&self.inner, &subs, budget, self.config.stitch_reserve);
        let parts: Vec<(&SubInstance, &Placement1d)> = subs
            .iter()
            .zip(&results)
            .filter_map(|(sub, outcome)| match outcome {
                Some(PlanOutcome {
                    detail: PlanDetail::OneD(plan),
                    ..
                }) => Some((sub, &plan.placement)),
                _ => None,
            })
            .collect();
        // No shard produced anything (every inner race unsupported or
        // torn down before finishing): report failure instead of passing
        // off an empty stitch (or a pure top-up fill) as a sharded plan —
        // a do-nothing "success" would poison the digest-keyed plan cache.
        if parts.is_empty() {
            return Err(EngineError::NoPlan {
                strategy: self.name(),
                reason: format!("no shard produced a plan ({} shards raced)", subs.len()),
            });
        }
        let stitched = stitch_1d(instance, &parts).map_err(|e| EngineError::NoPlan {
            strategy: self.name(),
            reason: format!("stitching failed: {e}"),
        })?;
        DUPLICATES_DROPPED.add(stitched.duplicates_dropped as u64);
        trace::instant(
            "shard.stitch",
            parts.len() as i64,
            stitched.duplicates_dropped as i64,
        );
        let mut placement = stitched.placement;
        let mut selection = stitched.selection;
        let added = top_up_1d(instance, &mut placement, &mut selection, budget);
        TOPUP_ADDED.add(added as u64);
        trace::instant("shard.top_up", added as i64, 0);
        let region_times = instance.writing_times(&selection);
        let total_time = region_times.iter().copied().max().unwrap_or(0);
        let mut plan = Plan1d {
            placement,
            selection,
            region_times,
            total_time,
            elapsed: started.elapsed(),
            trace: None,
        };
        // The core has grown fast enough that an instance past the shard
        // gate can still converge monolithically inside a deadline window
        // the fan-out no longer needs. Spend whatever is left of the
        // budget on the quality member (the first inner member that takes
        // the unsharded instance) and keep the better plan: the composite
        // is then no worse than its own inner on any deadline, instead of
        // paying the stitch quality loss exactly when sharding stopped
        // being necessary.
        if mono_refine_window_open(budget) {
            if let Some(member) = self
                .inner
                .strategies()
                .iter()
                .find(|s| s.supports(instance))
            {
                if let Ok(PlanOutcome {
                    detail: PlanDetail::OneD(mono),
                    ..
                }) = member.plan(instance, budget)
                {
                    trace::instant(
                        "shard.mono_refine",
                        mono.total_time as i64,
                        plan.total_time as i64,
                    );
                    if mono.total_time < plan.total_time {
                        MONO_REFINE_WON.add(1);
                        plan = Plan1d {
                            elapsed: started.elapsed(),
                            ..mono
                        };
                    }
                }
            }
        }
        Ok(PlanOutcome::from_1d(self.name(), plan).with_degraded(degraded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{Eblow1dStrategy, Greedy1dStrategy};
    use crate::PortfolioConfig;
    use eblow_gen::GenConfig;

    fn test_config() -> ShardConfig {
        ShardConfig {
            min_chars: 32,
            target_shard_chars: 24,
            max_shards: 4,
            ..ShardConfig::default()
        }
    }

    /// The composite with the unit-test thresholds.
    fn test_composite() -> Shard1dStrategy {
        Shard1dStrategy {
            config: test_config(),
            ..Shard1dStrategy::new()
        }
    }

    fn small_1d() -> Instance {
        eblow_gen::generate(&GenConfig {
            n_chars: 96,
            n_regions: 4,
            stencil_w: 300,
            stencil_h: 200,
            row_height: Some(40),
            ..GenConfig::tiny_1d(5)
        })
    }

    fn mid_1d(seed: u64) -> Instance {
        eblow_gen::generate(&GenConfig {
            n_chars: 120,
            n_regions: 4,
            stencil_w: 400,
            stencil_h: 240,
            row_height: Some(40),
            ..GenConfig::tiny_1d(seed)
        })
    }

    fn mid_config() -> ShardConfig {
        ShardConfig {
            min_chars: 64,
            target_shard_chars: 32,
            max_shards: 4,
            ..ShardConfig::default()
        }
    }

    #[test]
    fn split_1d_partitions_rows_and_covers_primaries() {
        let inst = small_1d();
        let config = test_config();
        let specs = split_1d(&inst, &config, config.target_shard_chars).expect("shardable");
        assert!(specs.len() >= 2);
        let total_rows: usize = specs.iter().map(|s| s.rows).sum();
        assert_eq!(total_rows, inst.num_rows().unwrap());
        let mut next = 0usize;
        for s in &specs {
            assert_eq!(s.start_row, next, "bands must be contiguous");
            assert!(s.rows >= 1);
            next += s.rows;
        }
        // Every candidate appears in at least one shard.
        let mut covered = vec![false; inst.num_chars()];
        for s in &specs {
            for &i in &s.chars {
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&b| b), "no candidate may be lost");
    }

    #[test]
    fn split_is_deterministic() {
        let inst = small_1d();
        let config = test_config();
        let a = split_1d(&inst, &config, config.target_shard_chars).unwrap();
        let b = split_1d(&inst, &config, config.target_shard_chars).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.chars, y.chars);
            assert_eq!((x.start_row, x.rows), (y.start_row, y.rows));
        }
    }

    #[test]
    fn shard1d_plans_validate_and_beat_the_empty_plan() {
        let inst = small_1d();
        let strategy = test_composite();
        assert!(strategy.supports(&inst));
        let outcome = strategy.plan(&inst, &Budget::unlimited()).unwrap();
        outcome.validate(&inst).unwrap();
        let empty = inst.total_writing_time(&Selection::none(inst.num_chars()));
        assert!(
            outcome.total_time < empty,
            "sharded plan must improve on the empty stencil"
        );
        assert!(outcome.selection.count() > 0);
    }

    /// Regression for the monolithic refinement lane: under a deadline
    /// with a leftover window, the composite must end up no worse than
    /// its quality member run monolithically — the lane races that
    /// member on the unsharded instance and keeps the better plan. (The
    /// window here is generous enough that the member converges, so the
    /// comparison against its unlimited-budget plan is deterministic.)
    #[test]
    fn leftover_deadline_window_refines_monolithically() {
        let inst = small_1d();
        let sharded = test_composite()
            .plan(&inst, &Budget::with_deadline(Duration::from_secs(30)))
            .expect("sharded plan");
        sharded.validate(&inst).expect("valid refined plan");
        let solo = Eblow1dStrategy::default()
            .plan(&inst, &Budget::unlimited())
            .expect("monolithic plan");
        assert!(
            sharded.total_time <= solo.total_time,
            "stitched+refined T {} worse than the quality member's monolithic T {}",
            sharded.total_time,
            solo.total_time
        );
    }

    #[test]
    fn shard1d_respects_the_supports_gate() {
        let tiny = eblow_gen::generate(&GenConfig::tiny_1d(1));
        assert!(!Shard1dStrategy::new().supports(&tiny), "60 chars < gate");
        let twod = eblow_gen::generate(&GenConfig::tiny_2d(1));
        assert!(!Shard1dStrategy::new().supports(&twod));
    }

    /// Regression: when every shard race comes back empty (here: the
    /// simplex inner backend refuses every shard via its cell cutoff),
    /// the composite must fail loudly instead of returning an empty
    /// "plan" that would poison the digest-keyed plan cache.
    #[test]
    fn all_empty_shards_are_an_error_not_an_empty_plan() {
        // 600 chars over 26 rows: each of the 2 shards holds ~300 chars
        // on ~13 rows ≈ 3900 cells, over the simplex 2500-cell cutoff.
        let inst = eblow_gen::generate(&GenConfig {
            n_chars: 600,
            n_regions: 4,
            stencil_w: 400,
            stencil_h: 1040,
            row_height: Some(40),
            ..GenConfig::tiny_1d(8)
        });
        let strategy = Shard1dStrategy {
            inner: Portfolio::new(vec![Arc::new(Eblow1dStrategy::simplex())]),
            config: ShardConfig {
                min_chars: 64,
                target_shard_chars: 300,
                max_shards: 2,
                ..ShardConfig::default()
            },
        };
        assert!(strategy.supports(&inst));
        let err = strategy.plan(&inst, &Budget::unlimited()).unwrap_err();
        assert!(
            matches!(err, EngineError::NoPlan { .. }),
            "expected NoPlan, got {err}"
        );
    }

    /// Adaptive shard targets track the window: a shard holds as many
    /// candidates as the quality member plans within it.
    #[test]
    fn adaptive_target_tracks_the_window() {
        let window = Duration::from_secs(3);
        // eblow1d@combinatorial: 800 chars/s × 3 s.
        assert_eq!(adaptive_target_chars(window), 2400);
        // A longer window allows bigger shards.
        assert!(adaptive_target_chars(window * 4) > 2400);
        // Unlimited budgets keep the fixed target (reproducible splits).
        let config = ShardConfig::default();
        assert_eq!(
            resolve_target_chars(&config, &Budget::unlimited()),
            config.target_shard_chars
        );
    }

    /// Stable fingerprint of a 1D plan: row orders, region times, total
    /// time (the scheme of `tests/golden_stability.rs`).
    fn plan_fingerprint(plan: &Plan1d) -> u64 {
        let mut h = eblow_model::Fnv64::new();
        for row in plan.placement.rows() {
            h.write((row.order().len() as u64).to_le_bytes());
            for id in row.order() {
                h.write((id.index() as u64).to_le_bytes());
            }
        }
        for &t in &plan.region_times {
            h.write(t.to_le_bytes());
        }
        h.write(plan.total_time.to_le_bytes());
        h.finish()
    }

    /// The deadline-free `shard1d` plan is pinned: split, per-shard races,
    /// stitch and top-up must keep producing this exact placement.
    #[test]
    fn deadline_free_shard1d_plan_is_pinned() {
        let inst = small_1d();
        let outcome = test_composite().plan(&inst, &Budget::unlimited()).unwrap();
        let PlanDetail::OneD(plan) = &outcome.detail else {
            panic!("shard1d returns a 1D plan");
        };
        assert_eq!(plan.total_time, 537);
        assert_eq!(plan_fingerprint(plan), 0x8a49_5821_19e0_6e18);
    }

    #[test]
    fn cancelled_budget_still_returns_a_valid_plan() {
        let inst = small_1d();
        let budget = Budget::with_deadline(Duration::from_millis(40));
        let outcome = test_composite().plan(&inst, &budget).unwrap();
        outcome.validate(&inst).unwrap();
    }

    /// The composite end to end under an outer portfolio deadline: the
    /// stitched plan must validate and arrive within the deadline margin.
    #[test]
    fn shard1d_races_under_a_deadline_and_validates() {
        let inst = mid_1d(7);
        let shard = Shard1dStrategy {
            config: mid_config(),
            ..Shard1dStrategy::new()
        };
        let portfolio = Portfolio::new(vec![Arc::new(shard)]);
        let deadline = Duration::from_millis(1500);
        let outcome = portfolio.run(
            &inst,
            &PortfolioConfig {
                deadline: Some(deadline),
                ..Default::default()
            },
        );
        assert_eq!(outcome.supported, 1);
        let best = outcome.best.as_ref().expect("a stitched plan");
        best.validate(&inst).unwrap();
        assert!(
            outcome.elapsed <= deadline + Duration::from_millis(750),
            "sharded race took {:?} against {:?}",
            outcome.elapsed,
            deadline
        );
    }

    /// Sharding with a greedy-only inner must beat (or match) greedy run
    /// monolithically, within a few percent — the split + per-shard race +
    /// top-up may not destroy quality relative to a single greedy pass.
    #[test]
    fn shard1d_matches_or_beats_monolithic_greedy() {
        let strategy = Shard1dStrategy {
            inner: Portfolio::new(vec![Arc::new(Greedy1dStrategy)]),
            config: mid_config(),
        };
        for seed in [11u64, 12, 13] {
            let inst = mid_1d(seed);
            let sharded = strategy.plan(&inst, &Budget::unlimited()).unwrap();
            sharded.validate(&inst).unwrap();
            let mono = eblow_core::baselines::greedy_1d(&inst).unwrap();
            // Not a strict dominance theorem — but on these balanced
            // instances the shard split plus top-up reconciliation should
            // never lose more than a few percent to the monolithic greedy.
            assert!(
                (sharded.total_time as f64) <= mono.total_time as f64 * 1.05,
                "seed {seed}: sharded {} ≫ monolithic {}",
                sharded.total_time,
                mono.total_time
            );
        }
    }
}
