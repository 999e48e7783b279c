//! The [`Strategy`] trait and the registry of built-in strategies.
//!
//! Every planner in the workspace — the E-BLOW 1D/2D flows, the exact
//! 1D enumeration, the exact branch-and-bound ILPs, and the
//! greedy/heuristic baselines of the paper's Tables 3–5 — is wrapped
//! behind one object-safe interface so the
//! portfolio executor, the planner, and the eval harness can treat them
//! interchangeably.

use crate::budget::Budget;
use crate::outcome::{EngineError, PlanOutcome};
use eblow_core::baselines::{
    greedy_1d_with_stop, greedy_2d_with_stop, heuristic_1d_with_stop, row_heuristic_1d_with_stop,
    sa_2d_with_stop,
};
use eblow_core::ilp::{solve_ilp_1d, solve_ilp_2d};
use eblow_core::oned::{solve_exact_1d, Eblow1d, Eblow1dConfig, SimplexOracle, EXACT_1D_MAX_CHARS};
use eblow_core::twod::Eblow2d;
use eblow_core::{Plan1d, StopFlag};
use eblow_lp::MilpStatus;
use eblow_model::{Instance, ModelError};
use std::sync::Arc;

/// An object-safe planning strategy.
///
/// Implementations must be `Send + Sync`: the portfolio executor calls
/// [`Strategy::plan`] from worker threads, sharing one `Arc<dyn Strategy>`
/// per strategy across runs.
pub trait Strategy: Send + Sync {
    /// Stable identifier (registry key, report label, cache-key component).
    fn name(&self) -> &'static str;

    /// Whether this strategy can plan `instance` at all (e.g. 1D pipelines
    /// need a row-structured stencil; the exact ILPs cap the candidate
    /// count they will attempt).
    fn supports(&self, instance: &Instance) -> bool;

    /// Whether a race leaves this strategy out on `instance` although it
    /// [`supports`](Strategy::supports) it. The portfolio then spawns no
    /// worker for it and reports it
    /// [`SatOut`](crate::StrategyStatus::SatOut). `false` unless
    /// overridden: only the three 1D baselines of
    /// [`builtin_strategies`] sit out, at [`BASELINE_RACE_GATE`]
    /// candidates or more, and a strategy resolved by name races wherever
    /// it is supported.
    fn sits_out(&self, _instance: &Instance) -> bool {
        false
    }

    /// Plans the stencil under `budget`. Implementations poll the budget's
    /// stop flag so a portfolio deadline turns into a fast, *valid* early
    /// return rather than an abort.
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError>;
}

fn is_row_structured(instance: &Instance) -> bool {
    instance.stencil().row_height().is_some()
}

/// Plans of the combinatorial E-BLOW member whose E-BLOW-0 finish beat
/// the E-BLOW-1 finish of the same rounding (counter
/// `eblow1d.eblow0_finish_won`): in a race, the wins `eblow1d-0` would
/// have had alone.
static EBLOW0_FINISH_WON: eblow_trace::Counter =
    eblow_trace::Counter::new("eblow1d.eblow0_finish_won");

/// Plans of the combinatorial E-BLOW member where Algorithm 2 committed
/// nothing, so its E-BLOW-1 finish served both variants (counter
/// `eblow1d.finish_shared`).
static FINISH_SHARED: eblow_trace::Counter = eblow_trace::Counter::new("eblow1d.finish_shared");

/// The E-BLOW 1DOSP pipeline (successive rounding + fast ILP convergence +
/// refinement + post stages), parameterized by its LP relaxation backend.
///
/// Each backend registers as a distinct strategy (`eblow1d@combinatorial`,
/// `eblow1d@simplex`, …) so the portfolio races them and the plan cache
/// fingerprints them separately. `supports` consults the backend's
/// [`LpOracle::max_cells`](eblow_core::oned::LpOracle::max_cells), so a
/// size-limited backend never enters a race it would have to refuse.
///
/// `Default` is the raced combinatorial member: it runs successive
/// rounding once and finishes it both as the paper's E-BLOW-0 (refine,
/// post-swap) and as E-BLOW-1 (Algorithm 2, refine, post-swap,
/// post-insertion), keeping the lower `T`; a tie goes to E-BLOW-1. Both
/// variants spend nearly all their time in the rounding they share, so
/// the pair costs about one E-BLOW-1 run instead of two pipelines.
///
/// Algorithm 2 runs first, and the E-BLOW-0 finish only when it committed
/// a character. Otherwise both finishes would refine the same rows and
/// post-swap the same placement, E-BLOW-1 would then only post-insert,
/// which never raises `T`, and a tie goes to E-BLOW-1: its finish alone
/// is the pair's plan.
#[derive(Debug, Clone)]
pub struct Eblow1dStrategy {
    config: Eblow1dConfig,
    name: Option<&'static str>,
    /// Also finish the rounding as E-BLOW-0 and keep the better plan.
    eblow0_finish: bool,
}

impl Default for Eblow1dStrategy {
    fn default() -> Self {
        Eblow1dStrategy {
            config: Eblow1dConfig::eblow1(),
            name: None,
            eblow0_finish: true,
        }
    }
}

impl Eblow1dStrategy {
    /// The E-BLOW-0 ablation alone (no fast ILP convergence, no
    /// post-insertion), resolvable by name as `eblow1d-0`. The race gets
    /// its plans from the combinatorial member's E-BLOW-0 finish.
    pub fn eblow0() -> Self {
        Eblow1dStrategy {
            config: Eblow1dConfig::eblow0(),
            name: Some("eblow1d-0"),
            eblow0_finish: false,
        }
    }

    /// The pipeline on the exact dense-simplex LP backend. Refuses (via
    /// `supports`) instances beyond the simplex size cutoff.
    pub fn simplex() -> Self {
        Eblow1dStrategy {
            config: Eblow1dConfig::default().with_oracle(Arc::new(SimplexOracle)),
            name: Some("eblow1d@simplex"),
            eblow0_finish: false,
        }
    }
}

impl Strategy for Eblow1dStrategy {
    fn name(&self) -> &'static str {
        self.name.unwrap_or("eblow1d@combinatorial")
    }
    fn supports(&self, instance: &Instance) -> bool {
        if !is_row_structured(instance) {
            return false;
        }
        match self.config.oracle.max_cells() {
            Some(limit) => {
                let rows = instance.num_rows().unwrap_or(0);
                instance.num_chars().saturating_mul(rows) <= limit
            }
            None => true,
        }
    }
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let stop = budget.stop_flag();
        let plan = if self.eblow0_finish {
            self.plan_both(instance, stop)?.0
        } else {
            Eblow1d::new(self.config.clone()).plan_with_stop(instance, stop)?
        };
        Ok(PlanOutcome::from_1d(self.name(), plan))
    }
}

impl Eblow1dStrategy {
    /// The combinatorial member's plan: the better of the E-BLOW-0 and
    /// E-BLOW-1 finishes of one rounding, E-BLOW-1's on a tie, with
    /// whether the E-BLOW-0 finish ran.
    fn plan_both(
        &self,
        instance: &Instance,
        stop: StopFlag<'_>,
    ) -> Result<(Plan1d, bool), ModelError> {
        let planner = Eblow1d::new(self.config.clone());
        let mut rounded = planner.round(instance, stop)?;
        // Under a raised flag both finishes skip Algorithm 2 and the post
        // stages and refine alike, so the E-BLOW-0 copy would only tie.
        let before = (!stop.is_set()).then(|| rounded.clone());
        let committed = planner.converge(instance, &mut rounded, stop);
        if before.is_some() && committed == 0 {
            FINISH_SHARED.incr();
        }
        let eblow0 = before
            .filter(|_| committed > 0 && !stop.is_set())
            .map(|before| Eblow1d::new(Eblow1dConfig::eblow0()).finish(instance, before, stop));
        let ran_both = eblow0.is_some();
        let mut plan = planner.finish(instance, rounded, stop);
        if let Some(eblow0) = eblow0.filter(|p| p.total_time < plan.total_time) {
            EBLOW0_FINISH_WON.incr();
            plan = Plan1d {
                elapsed: plan.elapsed,
                ..eblow0
            };
        }
        Ok((plan, ran_both))
    }
}

/// "Greedy in \[24\]": profit-sorted first-fit, the fastest 1D baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy1dStrategy;

impl Strategy for Greedy1dStrategy {
    fn name(&self) -> &'static str {
        "greedy1d"
    }
    fn supports(&self, instance: &Instance) -> bool {
        is_row_structured(instance)
    }
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let plan = greedy_1d_with_stop(instance, budget.stop_flag())?;
        Ok(PlanOutcome::from_1d(self.name(), plan))
    }
}

/// The two-step heuristic framework of \[24\] (selection + TSP-style row
/// ordering with 2-opt improvement).
#[derive(Debug, Clone, Copy, Default)]
pub struct Heuristic1dStrategy;

impl Strategy for Heuristic1dStrategy {
    fn name(&self) -> &'static str {
        "heuristic1d"
    }
    fn supports(&self, instance: &Instance) -> bool {
        is_row_structured(instance)
    }
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let plan = heuristic_1d_with_stop(instance, budget.stop_flag())?;
        Ok(PlanOutcome::from_1d(self.name(), plan))
    }
}

/// The row-structure heuristic in the spirit of \[25\] (density-sorted fill
/// under the Lemma 1 capacity).
#[derive(Debug, Clone, Copy, Default)]
pub struct RowHeuristic1dStrategy;

impl Strategy for RowHeuristic1dStrategy {
    fn name(&self) -> &'static str {
        "rowheur1d"
    }
    fn supports(&self, instance: &Instance) -> bool {
        is_row_structured(instance)
    }
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let plan = row_heuristic_1d_with_stop(instance, budget.stop_flag())?;
        Ok(PlanOutcome::from_1d(self.name(), plan))
    }
}

/// The exact combinatorial 1D solver ([`solve_exact_1d`]): it enumerates
/// every selection of up to [`EXACT_1D_MAX_CHARS`] candidates and marks its
/// plan proven optimal when the enumeration finishes, which ends the race
/// early. This is the race's exact 1D member.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exact1dStrategy;

impl Strategy for Exact1dStrategy {
    fn name(&self) -> &'static str {
        "exact1d"
    }
    fn supports(&self, instance: &Instance) -> bool {
        is_row_structured(instance) && instance.num_chars() <= EXACT_1D_MAX_CHARS
    }
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let exact = solve_exact_1d(instance, budget.stop_flag())?;
        Ok(PlanOutcome::from_1d(self.name(), exact.plan).with_proven_optimal(exact.proven_optimal))
    }
}

/// The exact 1D ILP (formulation (3)) via branch-and-bound. Only supports
/// small instances (Table 5 scale) — the binary count grows quadratically.
/// Not in the default race ([`Exact1dStrategy`] certifies the same
/// instances in milliseconds); resolvable by name as `ilp1d`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactIlp1dStrategy;

/// `ilp1d` refuses instances with more candidates than this (paper: GUROBI
/// already needs 1510 s at 12 characters).
const ILP_1D_MAX_CHARS: usize = 14;

impl Strategy for ExactIlp1dStrategy {
    fn name(&self) -> &'static str {
        "ilp1d"
    }
    fn supports(&self, instance: &Instance) -> bool {
        is_row_structured(instance) && instance.num_chars() <= ILP_1D_MAX_CHARS
    }
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let out = solve_ilp_1d(instance, budget.ilp_time_limit())?;
        let Some(placement) = out.placement_1d else {
            return Err(EngineError::NoPlan {
                strategy: self.name(),
                reason: format!(
                    "branch-and-bound returned {:?} with no incumbent",
                    out.status
                ),
            });
        };
        let selection = placement.selection(instance.num_chars());
        let region_times = instance.writing_times(&selection);
        let total_time = region_times.iter().copied().max().unwrap_or(0);
        Ok(PlanOutcome::from_1d(
            self.name(),
            Plan1d {
                placement,
                selection,
                region_times,
                total_time,
                elapsed: out.elapsed,
                trace: None,
            },
        )
        // `Optimal` means branch-and-bound ran to exhaustion, not to its
        // time limit: the incumbent is a certificate, and the race can
        // stop as soon as it validates (optimality-aware early exit).
        .with_proven_optimal(out.status == MilpStatus::Optimal))
    }
}

/// The E-BLOW 2DOSP pipeline (pre-filter + clustering + SA packing).
#[derive(Debug, Clone, Copy, Default)]
pub struct Eblow2dStrategy;

impl Strategy for Eblow2dStrategy {
    fn name(&self) -> &'static str {
        "eblow2d"
    }
    fn supports(&self, instance: &Instance) -> bool {
        !is_row_structured(instance)
    }
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let plan = Eblow2d::default().plan_with_stop(instance, budget.stop_flag())?;
        Ok(PlanOutcome::from_2d(self.name(), plan))
    }
}

/// "Greedy in \[24\]" for 2DOSP: density-sorted shelf packing without blank
/// sharing. Not in the default race (it never beats `eblow2d` or `sa2d`);
/// resolvable by name as `greedy2d` for Table 4.
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy2dStrategy;

impl Strategy for Greedy2dStrategy {
    fn name(&self) -> &'static str {
        "greedy2d"
    }
    fn supports(&self, instance: &Instance) -> bool {
        !is_row_structured(instance)
    }
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let plan = greedy_2d_with_stop(instance, budget.stop_flag())?;
        Ok(PlanOutcome::from_2d(self.name(), plan))
    }
}

/// The \[24\]-style SA floorplanner (no pre-filter, no clustering).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sa2dStrategy;

impl Strategy for Sa2dStrategy {
    fn name(&self) -> &'static str {
        "sa2d"
    }
    fn supports(&self, instance: &Instance) -> bool {
        !is_row_structured(instance)
    }
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let plan = sa_2d_with_stop(instance, budget.stop_flag())?;
        Ok(PlanOutcome::from_2d(self.name(), plan))
    }
}

/// The exact 2D ILP (formulation (7)) via branch-and-bound, Table 5 scale
/// only. Not in the default race: it never beats `eblow2d` or `sa2d`, and
/// it held every tiny 2D race it could not prove open until the deadline.
/// Resolvable by name as `ilp2d` for Table 5.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactIlp2dStrategy;

/// `ilp2d` refuses instances with more candidates than this.
const ILP_2D_MAX_CHARS: usize = 10;

impl Strategy for ExactIlp2dStrategy {
    fn name(&self) -> &'static str {
        "ilp2d"
    }
    fn supports(&self, instance: &Instance) -> bool {
        !is_row_structured(instance) && instance.num_chars() <= ILP_2D_MAX_CHARS
    }
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let out = solve_ilp_2d(instance, budget.ilp_time_limit());
        let Some(placement) = out.placement_2d else {
            return Err(EngineError::NoPlan {
                strategy: self.name(),
                reason: format!(
                    "branch-and-bound returned {:?} with no incumbent",
                    out.status
                ),
            });
        };
        let selection = placement.selection(instance.num_chars());
        let region_times = instance.writing_times(&selection);
        let total_time = region_times.iter().copied().max().unwrap_or(0);
        Ok(PlanOutcome::from_2d(
            self.name(),
            eblow_core::Plan2d {
                placement,
                selection,
                region_times,
                total_time,
                elapsed: out.elapsed,
            },
        )
        .with_proven_optimal(out.status == MilpStatus::Optimal))
    }
}

/// Candidate count at and above which the default race leaves out the 1D
/// baselines `heuristic1d`, `rowheur1d` and `greedy1d`
/// ([`Strategy::sits_out`]), so such a race is E-BLOW alone.
///
/// Set by a no-deadline census of every 1D member alone on 300 seeds per
/// size: a baseline gave the best plan on some seeds at 250, 1 000 and
/// 4 000 candidates, and on none at 6 000, 8 000, 10 000 or 12 000, so the
/// gate is the smallest tested size above the last baseline win.
pub const BASELINE_RACE_GATE: usize = 6_000;

/// A 1D baseline of the default race: the strategy itself, sitting out
/// races of [`BASELINE_RACE_GATE`] candidates or more.
struct BelowBaselineGate<S>(S);

impl<S: Strategy> Strategy for BelowBaselineGate<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn supports(&self, instance: &Instance) -> bool {
        self.0.supports(instance)
    }
    fn sits_out(&self, instance: &Instance) -> bool {
        instance.num_chars() >= BASELINE_RACE_GATE
    }
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        self.0.plan(instance, budget)
    }
}

/// The default race, 1D then 2D, strongest first within each group.
///
/// A member races only where it can win: each of the six 1D members
/// produces the best plan alone on some instance or deadline, or certifies
/// one (`exact1d`), and in 2D only `eblow2d` and `sa2d` ever do. The race is
/// `eblow1d@combinatorial` (which also finishes its rounding as E-BLOW-0,
/// see [`Eblow1dStrategy`]), `eblow1d@simplex`, `heuristic1d`, `rowheur1d`,
/// `greedy1d`, `exact1d`, `eblow2d`, `sa2d`.
///
/// The three 1D baselines race only below [`BASELINE_RACE_GATE`]
/// candidates, where a census found their last no-deadline wins and where
/// they still win tight deadlines; at or above it they sit out
/// ([`Strategy::sits_out`]) and the race is `eblow1d@combinatorial` alone
/// on one thread, whose cut runs fill their stencil first-fit
/// (`eblow_core::oned::successive_rounding`).
///
/// [`strategy_by_name`] builds every member without the gate, so a
/// portfolio of names (Table 3, `eblow-eval shard`'s monolithic side)
/// races the baselines at every size, and it also builds strategies
/// outside the race.
pub fn builtin_strategies() -> Vec<Arc<dyn Strategy>> {
    vec![
        Arc::new(Eblow1dStrategy::default()),
        Arc::new(Eblow1dStrategy::simplex()),
        Arc::new(BelowBaselineGate(Heuristic1dStrategy)),
        Arc::new(BelowBaselineGate(RowHeuristic1dStrategy)),
        Arc::new(BelowBaselineGate(Greedy1dStrategy)),
        Arc::new(Exact1dStrategy),
        Arc::new(Eblow2dStrategy),
        Arc::new(Sa2dStrategy),
    ]
}

/// Looks up a strategy by registry name.
///
/// The eight raced names build their strategies without the default
/// race's gate (see [`builtin_strategies`]). Six more names build
/// strategies outside the race: `eblow1d-0` (the E-BLOW-0 ablation alone,
/// for Figs. 11/12 and solo measurements), `ilp1d` and `ilp2d`
/// (formulations (3) and (7), kept for the paper's Table 5), `greedy2d`
/// (Table 4's greedy baseline), `shard1d` (the sharded composite, see
/// [`Shard1dStrategy`]) and `eblow1d` (the historical alias for
/// `eblow1d@combinatorial`). Every other name resolves to `None`.
///
/// [`Shard1dStrategy`]: crate::Shard1dStrategy
pub fn strategy_by_name(name: &str) -> Option<Arc<dyn Strategy>> {
    let strategy: Arc<dyn Strategy> = match name {
        "eblow1d@combinatorial" | "eblow1d" => Arc::new(Eblow1dStrategy::default()),
        "eblow1d@simplex" => Arc::new(Eblow1dStrategy::simplex()),
        "heuristic1d" => Arc::new(Heuristic1dStrategy),
        "rowheur1d" => Arc::new(RowHeuristic1dStrategy),
        "greedy1d" => Arc::new(Greedy1dStrategy),
        "exact1d" => Arc::new(Exact1dStrategy),
        "eblow2d" => Arc::new(Eblow2dStrategy),
        "sa2d" => Arc::new(Sa2dStrategy),
        "eblow1d-0" => Arc::new(Eblow1dStrategy::eblow0()),
        "ilp1d" => Arc::new(ExactIlp1dStrategy),
        "ilp2d" => Arc::new(ExactIlp2dStrategy),
        "greedy2d" => Arc::new(Greedy2dStrategy),
        "shard1d" => Arc::new(crate::shard::Shard1dStrategy::new()),
        _ => return None,
    };
    Some(strategy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_gen::GenConfig;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let all = builtin_strategies();
        let mut names: Vec<&str> = all.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate strategy names");
        for name in names {
            assert!(strategy_by_name(name).is_some(), "{name} not resolvable");
        }
        assert!(strategy_by_name("nonsense").is_none());
    }

    /// Names of the raced strategies that support `instance`.
    fn raced_on(instance: &Instance) -> Vec<&'static str> {
        builtin_strategies()
            .iter()
            .filter(|s| s.supports(instance))
            .map(|s| s.name())
            .collect()
    }

    #[test]
    fn support_splits_by_dimension() {
        let d1 = eblow_gen::generate(&GenConfig::tiny_1d(1));
        let d2 = eblow_gen::generate(&GenConfig::tiny_2d(1));
        let s1 = raced_on(&d1);
        let s2 = raced_on(&d2);
        assert!(s1.contains(&"eblow1d@combinatorial") && !s1.contains(&"eblow2d"));
        assert_eq!(s2, ["eblow2d", "sa2d"]);
        // Both LP backends fit the tiny instance (60 × 3 cells).
        assert!(s1.contains(&"eblow1d@simplex"));
        // The exact solvers refuse 60-candidate instances.
        assert!(!s1.contains(&"exact1d"));
        assert!(!strategy_by_name("ilp2d").unwrap().supports(&d2));
        let t1 = eblow_gen::benchmark(eblow_gen::Family::T1(5));
        assert!(raced_on(&t1).contains(&"exact1d"));
    }

    /// The default race's three 1D baselines sit out from
    /// `BASELINE_RACE_GATE` candidates on; the same names resolved one by
    /// one race at every size, and no member's `supports()` moves.
    #[test]
    fn baselines_sit_out_of_the_default_race_from_the_gate() {
        let sized = |n_chars| {
            eblow_gen::generate(&GenConfig {
                n_chars,
                ..GenConfig::tiny_1d(1)
            })
        };
        let (below, at) = (sized(BASELINE_RACE_GATE - 1), sized(BASELINE_RACE_GATE));
        let sitting_out = |instance: &Instance| -> Vec<&'static str> {
            builtin_strategies()
                .iter()
                .filter(|s| s.supports(instance) && s.sits_out(instance))
                .map(|s| s.name())
                .collect()
        };
        assert!(sitting_out(&below).is_empty());
        assert_eq!(sitting_out(&at), ["heuristic1d", "rowheur1d", "greedy1d"]);
        for raced in builtin_strategies() {
            let by_name = strategy_by_name(raced.name()).unwrap();
            for instance in [&below, &at] {
                assert!(!by_name.sits_out(instance), "{}", raced.name());
                assert_eq!(by_name.supports(instance), raced.supports(instance));
            }
        }
    }

    #[test]
    fn simplex_backend_refuses_oversized_instances_via_supports() {
        // 1M-1: 1000 candidates × 25 rows = 25 000 cells ≫ the simplex
        // cutoff; the backend must bow out *before* the race.
        let big = eblow_gen::benchmark(eblow_gen::Family::M1(1));
        assert!(strategy_by_name("eblow1d@combinatorial")
            .unwrap()
            .supports(&big));
        assert!(!strategy_by_name("eblow1d@simplex").unwrap().supports(&big));
    }

    /// One table of names: the eight raced strategies; `eblow1d-0`,
    /// `ilp1d`, `ilp2d`, `greedy2d` and `shard1d` outside the race
    /// (Figs. 11/12, Tables 4 and 5, perfbench's solo section and
    /// `eblow-eval shard`); and the `eblow1d` alias. Nothing parses names,
    /// so every other spelling resolves to `None`.
    #[test]
    fn registry_resolves_names_from_one_table() {
        let raced: Vec<&str> = builtin_strategies().iter().map(|s| s.name()).collect();
        assert_eq!(
            raced,
            [
                "eblow1d@combinatorial",
                "eblow1d@simplex",
                "heuristic1d",
                "rowheur1d",
                "greedy1d",
                "exact1d",
                "eblow2d",
                "sa2d",
            ]
        );
        for (name, resolves_to, races) in [
            ("eblow1d@combinatorial", Some("eblow1d@combinatorial"), true),
            ("eblow1d@simplex", Some("eblow1d@simplex"), true),
            ("eblow1d", Some("eblow1d@combinatorial"), false),
            ("eblow1d-0", Some("eblow1d-0"), false),
            ("ilp1d", Some("ilp1d"), false),
            ("ilp2d", Some("ilp2d"), false),
            ("greedy2d", Some("greedy2d"), false),
            ("shard1d", Some("shard1d"), false),
            ("shard2d", None, false),
            ("shard1d@greedy1d", None, false),
            ("shard1d@eblow1d@simplex", None, false),
            ("eblow1d@", None, false),
            ("eblow1d@bogus", None, false),
        ] {
            assert_eq!(
                strategy_by_name(name).map(|s| s.name()),
                resolves_to,
                "{name}"
            );
            assert_eq!(raced.contains(&name), races, "{name}");
        }
        let t1 = eblow_gen::benchmark(eblow_gen::Family::T1(1));
        assert!(strategy_by_name("ilp1d").unwrap().supports(&t1));
        let t2 = eblow_gen::benchmark(eblow_gen::Family::T2(1));
        assert!(strategy_by_name("ilp2d").unwrap().supports(&t2));
    }

    /// The raced combinatorial member is the better of E-BLOW-1 and
    /// E-BLOW-0 on one shared rounding, E-BLOW-1's plan on a tie, whether
    /// one finish served both (Algorithm 2 committed nothing) or both ran.
    #[test]
    fn combinatorial_member_keeps_the_better_finish() {
        use eblow_gen::Family;
        let eblow0 = Eblow1d::new(Eblow1dConfig::eblow0());
        let eblow1 = Eblow1d::new(Eblow1dConfig::eblow1());
        let member = Eblow1dStrategy::default();
        let tiny = (0..100).map(|seed| {
            let inst = eblow_gen::generate(&GenConfig::tiny_1d(seed));
            (format!("tiny_1d({seed})"), inst)
        });
        let paper = (1..=8)
            .map(Family::M1)
            .chain((1..=4).map(Family::D1))
            .map(|family| (family.name(), eblow_gen::benchmark(family)));
        // Seeds where E-BLOW-0 wins outright, and ties with different plans.
        let (mut eblow0_wins, mut ties) = (0, 0);
        let mut ran_both = Vec::new();
        for (name, inst) in tiny.chain(paper) {
            let (plan, both) = member.plan_both(&inst, StopFlag::NEVER).unwrap();
            plan.placement.validate(&inst).unwrap();
            let (p0, p1) = (eblow0.plan(&inst).unwrap(), eblow1.plan(&inst).unwrap());
            let expected = if p0.total_time < p1.total_time {
                eblow0_wins += 1;
                &p0
            } else {
                ties += usize::from(p0.total_time == p1.total_time && p0.placement != p1.placement);
                &p1
            };
            assert_eq!(plan.total_time, expected.total_time, "{name}");
            assert_eq!(plan.placement, expected.placement, "{name}");
            assert_eq!(plan.region_times, expected.region_times, "{name}");
            ran_both.push((name, both));
        }
        // Both branches are exercised: E-BLOW-0 wins outright on some seeds
        // (tiny_1d(7) among them), and on others the two tie with
        // different placements, where the pair must return E-BLOW-1's.
        assert!(
            eblow0_wins >= 1 && ties >= 1,
            "{eblow0_wins} wins, {ties} ties"
        );
        // Algorithm 2 commits on 1M-4 and 1D-3, so both finishes run
        // there; on 1M-5..8 it commits nothing and one finish serves both.
        let both = |name: &str| ran_both.iter().find(|(n, _)| n == name).unwrap().1;
        for name in ["1M-4", "1D-3"] {
            assert!(both(name), "{name} took the shared branch");
        }
        for name in ["1M-5", "1M-6", "1M-7", "1M-8"] {
            assert!(!both(name), "{name} ran both finishes");
        }
    }

    #[test]
    fn combinatorial_member_plans_validly_when_pre_cancelled() {
        for seed in [5, 7] {
            let inst = eblow_gen::generate(&GenConfig::tiny_1d(seed));
            let budget = Budget::unlimited();
            budget.cancel();
            let plan = Eblow1dStrategy::default().plan(&inst, &budget).unwrap();
            plan.validate(&inst).unwrap();
            assert_eq!(plan.total_time, inst.total_writing_time(&plan.selection));
            let full = Eblow1dStrategy::default()
                .plan(&inst, &Budget::unlimited())
                .unwrap();
            assert!(plan.total_time >= full.total_time, "seed {seed}");
        }
    }

    #[test]
    fn wrapped_strategy_matches_direct_planner_call() {
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(9));
        let direct = Eblow1d::default().plan(&inst).unwrap();
        let via = Eblow1dStrategy::default()
            .plan(&inst, &Budget::unlimited())
            .unwrap();
        assert_eq!(via.total_time, direct.total_time);
        assert_eq!(via.selection, direct.selection);
        via.validate(&inst).unwrap();
    }
}
