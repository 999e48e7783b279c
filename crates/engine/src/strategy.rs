//! The [`Strategy`] trait and the registry of built-in strategies.
//!
//! Every planner in the workspace — the E-BLOW 1D/2D flows, the exact
//! 1D enumeration, the exact branch-and-bound ILPs, and the
//! greedy/heuristic baselines of the paper's Tables 3–5 — is wrapped
//! behind one object-safe interface so the
//! portfolio executor, the batch planner, and the eval harness can treat
//! them interchangeably.

use crate::budget::Budget;
use crate::outcome::{EngineError, PlanOutcome};
use eblow_core::baselines::{
    greedy_1d_with_stop, greedy_2d_with_stop, heuristic_1d_with_stop, row_heuristic_1d_with_stop,
    sa_2d_with_stop, Heuristic1dConfig, Sa2dConfig,
};
use eblow_core::ilp::{solve_ilp_1d, solve_ilp_2d};
use eblow_core::oned::{solve_exact_1d, Eblow1d, Eblow1dConfig, SimplexOracle, EXACT_1D_MAX_CHARS};
use eblow_core::twod::{Eblow2d, Eblow2dConfig};
use eblow_core::Plan1d;
use eblow_lp::MilpStatus;
use eblow_model::Instance;
use std::fmt;
use std::sync::Arc;

/// A parsed strategy identifier: a registry base name plus an optional
/// `@backend` parameter (e.g. `eblow1d@simplex`).
///
/// Registry names, report labels, and plan-cache portfolio fingerprints all
/// use the *full* form, so two backends of the same pipeline are distinct
/// strategies end to end; `StrategyId` gives callers the structured view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrategyId<'a> {
    base: &'a str,
    backend: Option<&'a str>,
}

impl<'a> StrategyId<'a> {
    /// Splits `name` at the first `@` into base and backend.
    ///
    /// An empty backend (`"eblow1d@"`) is treated as no backend at all:
    /// `Some("")` would silently create a registry name and plan-cache
    /// fingerprint distinct from the bare base, so a trailing `@`
    /// normalizes to `backend: None` here (and is rejected outright by
    /// [`strategy_by_name`] and `Portfolio::of_names`).
    pub fn parse(name: &'a str) -> Self {
        match name.split_once('@') {
            Some((base, backend)) if !backend.is_empty() => StrategyId {
                base,
                backend: Some(backend),
            },
            Some((base, _)) => StrategyId {
                base,
                backend: None,
            },
            None => StrategyId {
                base: name,
                backend: None,
            },
        }
    }

    /// The pipeline part of the identifier (`eblow1d` in `eblow1d@simplex`).
    pub fn base(&self) -> &'a str {
        self.base
    }

    /// The backend parameter, when one is present.
    pub fn backend(&self) -> Option<&'a str> {
        self.backend
    }
}

impl fmt::Display for StrategyId<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.backend {
            Some(backend) => write!(f, "{}@{}", self.base, backend),
            None => f.write_str(self.base),
        }
    }
}

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

    /// Plans the stencil under `budget`. Implementations poll the budget's
    /// stop flag so a portfolio deadline turns into a fast, *valid* early
    /// return rather than an abort.
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError>;
}

fn is_row_structured(instance: &Instance) -> bool {
    instance.stencil().row_height().is_some()
}

/// The E-BLOW 1DOSP pipeline (successive rounding + fast ILP convergence +
/// refinement + post stages), parameterized by its LP relaxation backend.
///
/// Each backend registers as a distinct strategy (`eblow1d@combinatorial`,
/// `eblow1d@simplex`, …) so the portfolio races them and the plan cache
/// fingerprints them separately. `supports` consults the backend's
/// [`LpOracle::max_cells`](eblow_core::oned::LpOracle::max_cells), so a
/// size-limited backend never enters a race it would have to refuse.
#[derive(Debug, Clone, Default)]
pub struct Eblow1dStrategy {
    config: Eblow1dConfig,
    name: Option<&'static str>,
}

impl Eblow1dStrategy {
    /// Wraps the full pipeline (the paper's E-BLOW-1) with the default
    /// combinatorial LP backend.
    pub fn new(config: Eblow1dConfig) -> Self {
        Eblow1dStrategy { config, name: None }
    }

    /// The E-BLOW-0 ablation (no fast ILP convergence, no post-insertion) —
    /// a cheaper, weaker portfolio member.
    pub fn eblow0() -> Self {
        Eblow1dStrategy {
            config: Eblow1dConfig::eblow0(),
            name: Some("eblow1d-0"),
        }
    }

    /// The pipeline on the exact dense-simplex LP backend. Refuses (via
    /// `supports`) instances beyond the simplex size cutoff.
    pub fn simplex() -> Self {
        Eblow1dStrategy {
            config: Eblow1dConfig::default().with_oracle(Arc::new(SimplexOracle::default())),
            name: Some("eblow1d@simplex"),
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
        let plan =
            Eblow1d::new(self.config.clone()).plan_with_stop(instance, budget.stop_flag())?;
        Ok(PlanOutcome::from_1d(self.name(), plan))
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
pub struct Heuristic1dStrategy {
    config: Heuristic1dConfig,
}

impl Strategy for Heuristic1dStrategy {
    fn name(&self) -> &'static str {
        "heuristic1d"
    }
    fn supports(&self, instance: &Instance) -> bool {
        is_row_structured(instance)
    }
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let plan = heuristic_1d_with_stop(instance, &self.config, budget.stop_flag())?;
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
#[derive(Debug, Clone, Copy)]
pub struct ExactIlp1dStrategy {
    /// Refuse instances with more candidates than this (paper: GUROBI
    /// already needs 1510 s at 12 characters).
    pub max_chars: usize,
}

impl Default for ExactIlp1dStrategy {
    fn default() -> Self {
        ExactIlp1dStrategy { max_chars: 14 }
    }
}

impl Strategy for ExactIlp1dStrategy {
    fn name(&self) -> &'static str {
        "ilp1d"
    }
    fn supports(&self, instance: &Instance) -> bool {
        is_row_structured(instance) && instance.num_chars() <= self.max_chars
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
#[derive(Debug, Clone, Default)]
pub struct Eblow2dStrategy {
    config: Eblow2dConfig,
}

impl Eblow2dStrategy {
    /// Wraps the 2D pipeline with a custom configuration.
    pub fn new(config: Eblow2dConfig) -> Self {
        Eblow2dStrategy { config }
    }
}

impl Strategy for Eblow2dStrategy {
    fn name(&self) -> &'static str {
        "eblow2d"
    }
    fn supports(&self, instance: &Instance) -> bool {
        !is_row_structured(instance)
    }
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let plan =
            Eblow2d::new(self.config.clone()).plan_with_stop(instance, budget.stop_flag())?;
        Ok(PlanOutcome::from_2d(self.name(), plan))
    }
}

/// "Greedy in \[24\]" for 2DOSP: density-sorted shelf packing without blank
/// sharing.
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
pub struct Sa2dStrategy {
    config: Sa2dConfig,
}

impl Strategy for Sa2dStrategy {
    fn name(&self) -> &'static str {
        "sa2d"
    }
    fn supports(&self, instance: &Instance) -> bool {
        !is_row_structured(instance)
    }
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let plan = sa_2d_with_stop(instance, &self.config, budget.stop_flag())?;
        Ok(PlanOutcome::from_2d(self.name(), plan))
    }
}

/// The exact 2D ILP (formulation (7)) via branch-and-bound, Table 5 scale
/// only.
#[derive(Debug, Clone, Copy)]
pub struct ExactIlp2dStrategy {
    /// Refuse instances with more candidates than this.
    pub max_chars: usize,
}

impl Default for ExactIlp2dStrategy {
    fn default() -> Self {
        ExactIlp2dStrategy { max_chars: 10 }
    }
}

impl Strategy for ExactIlp2dStrategy {
    fn name(&self) -> &'static str {
        "ilp2d"
    }
    fn supports(&self, instance: &Instance) -> bool {
        !is_row_structured(instance) && instance.num_chars() <= self.max_chars
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

/// Every built-in strategy, 1D then 2D, strongest first within each group.
///
/// The set covers the planner zoo of the paper's evaluation plus the
/// LP-backend variants, the exact combinatorial 1D solver and the sharded
/// composites: `eblow1d@combinatorial`, `eblow1d@simplex`, `eblow1d-0`,
/// `heuristic1d`, `rowheur1d`, `greedy1d`, `exact1d`, `shard1d`, `eblow2d`,
/// `sa2d`, `greedy2d`, `ilp2d`, `shard2d`. (The shard composites only enter
/// races on huge instances via their `supports()` candidate-count gate.)
/// The 1D ILP `ilp1d` is not raced; [`strategy_by_name`] still builds it.
pub fn builtin_strategies() -> Vec<Arc<dyn Strategy>> {
    vec![
        Arc::new(Eblow1dStrategy::default()),
        Arc::new(Eblow1dStrategy::simplex()),
        Arc::new(Eblow1dStrategy::eblow0()),
        Arc::new(Heuristic1dStrategy::default()),
        Arc::new(RowHeuristic1dStrategy),
        Arc::new(Greedy1dStrategy),
        Arc::new(Exact1dStrategy),
        Arc::new(crate::shard::Shard1dStrategy::new()),
        Arc::new(Eblow2dStrategy::default()),
        Arc::new(Sa2dStrategy::default()),
        Arc::new(Greedy2dStrategy),
        Arc::new(ExactIlp2dStrategy::default()),
        Arc::new(crate::shard::Shard2dStrategy::new()),
    ]
}

/// Looks up a strategy by registry name.
///
/// Exact built-in names resolve first. Beyond those, strategies outside
/// the race are constructed on demand: `ilp1d` (formulation (3), kept for
/// the paper's Table 5), `eblow1d` (the historical alias for
/// `eblow1d@combinatorial`), and the sharded composites `shard1d@<inner>` /
/// `shard2d@<inner>` (where `<inner>` is itself a registry name, e.g.
/// `shard1d@eblow1d@simplex`). Names with a trailing `@` (an empty
/// backend) are rejected rather than silently aliased.
pub fn strategy_by_name(name: &str) -> Option<Arc<dyn Strategy>> {
    if name.ends_with('@') {
        return None;
    }
    if let Some(s) = builtin_strategies().into_iter().find(|s| s.name() == name) {
        return Some(s);
    }
    let id = StrategyId::parse(name);
    match (id.base(), id.backend()) {
        ("ilp1d", None) => Some(Arc::new(ExactIlp1dStrategy::default())),
        ("eblow1d", None) => Some(Arc::new(Eblow1dStrategy::default())),
        ("shard1d", Some(inner)) => crate::shard::Shard1dStrategy::with_inner(inner)
            .map(|s| Arc::new(s) as Arc<dyn Strategy>),
        ("shard2d", Some(inner)) => crate::shard::Shard2dStrategy::with_inner(inner)
            .map(|s| Arc::new(s) as Arc<dyn Strategy>),
        _ => None,
    }
}

/// The built-in strategies that support `instance`, in registry order.
pub fn strategies_for(instance: &Instance) -> Vec<Arc<dyn Strategy>> {
    builtin_strategies()
        .into_iter()
        .filter(|s| s.supports(instance))
        .collect()
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

    #[test]
    fn support_splits_by_dimension() {
        let d1 = eblow_gen::generate(&GenConfig::tiny_1d(1));
        let d2 = eblow_gen::generate(&GenConfig::tiny_2d(1));
        let s1: Vec<&str> = strategies_for(&d1).iter().map(|s| s.name()).collect();
        let s2: Vec<&str> = strategies_for(&d2).iter().map(|s| s.name()).collect();
        assert!(s1.contains(&"eblow1d@combinatorial") && !s1.contains(&"eblow2d"));
        assert!(s2.contains(&"eblow2d") && !s2.contains(&"eblow1d@combinatorial"));
        // Both LP backends fit the tiny instance (60 × 3 cells).
        assert!(s1.contains(&"eblow1d@simplex"));
        // The exact solvers refuse 60-candidate instances.
        assert!(!s1.contains(&"exact1d"));
        assert!(!s2.contains(&"ilp2d"));
        let t1 = eblow_gen::benchmark(eblow_gen::Family::T1(5));
        let exact: Vec<&str> = strategies_for(&t1).iter().map(|s| s.name()).collect();
        assert!(exact.contains(&"exact1d"));
    }

    /// `ilp1d` left the race but still resolves, for Table 5 and for
    /// callers that name it.
    #[test]
    fn ilp1d_resolves_by_name_outside_the_race() {
        assert!(builtin_strategies().iter().all(|s| s.name() != "ilp1d"));
        let ilp = strategy_by_name("ilp1d").expect("ilp1d resolves");
        assert_eq!(ilp.name(), "ilp1d");
        assert!(ilp.supports(&eblow_gen::benchmark(eblow_gen::Family::T1(1))));
    }

    #[test]
    fn simplex_backend_refuses_oversized_instances_via_supports() {
        // 1M-1: 1000 candidates × 25 rows = 25 000 cells ≫ the simplex
        // cutoff; the backend must bow out *before* the race.
        let big = eblow_gen::benchmark(eblow_gen::Family::M1(1));
        let names: Vec<&str> = strategies_for(&big).iter().map(|s| s.name()).collect();
        assert!(names.contains(&"eblow1d@combinatorial"));
        assert!(!names.contains(&"eblow1d@simplex"));
    }

    #[test]
    fn strategy_id_parses_backend_parameters() {
        let id = StrategyId::parse("eblow1d@simplex");
        assert_eq!(id.base(), "eblow1d");
        assert_eq!(id.backend(), Some("simplex"));
        assert_eq!(id.to_string(), "eblow1d@simplex");
        let bare = StrategyId::parse("greedy1d");
        assert_eq!(bare.base(), "greedy1d");
        assert_eq!(bare.backend(), None);
        assert_eq!(bare.to_string(), "greedy1d");
    }

    /// Regression: `parse("eblow1d@")` used to yield `backend: Some("")`,
    /// which silently created a registry name and cache fingerprint
    /// distinct from the bare `eblow1d`.
    #[test]
    fn empty_backend_normalizes_to_none_and_is_rejected_by_lookup() {
        let id = StrategyId::parse("eblow1d@");
        assert_eq!(id.base(), "eblow1d");
        assert_eq!(id.backend(), None);
        assert_eq!(id.to_string(), "eblow1d");
        // The registry refuses the malformed spelling outright.
        assert!(strategy_by_name("eblow1d@").is_none());
        assert!(strategy_by_name("shard1d@").is_none());
    }

    #[test]
    fn shard_composites_resolve_from_the_registry() {
        for name in [
            "shard1d",
            "shard1d@greedy1d",
            "shard1d@eblow1d@simplex",
            "shard2d",
            "shard2d@greedy2d",
        ] {
            let s = strategy_by_name(name).unwrap_or_else(|| panic!("{name} not resolvable"));
            assert_eq!(s.name(), name);
        }
        // Both spellings of the default LP backend canonicalize to one
        // composite name (mirroring the bare `eblow1d` alias).
        assert_eq!(
            strategy_by_name("shard1d@eblow1d").unwrap().name(),
            "shard1d@eblow1d@combinatorial"
        );
        assert!(strategy_by_name("shard1d@bogus").is_none());
        assert!(strategy_by_name("shard1d@shard1d").is_none(), "no nesting");
        assert!(strategy_by_name("shard2d@eblow1d").is_none(), "wrong dim");
    }

    #[test]
    fn backend_variants_resolve_from_the_registry() {
        for name in ["eblow1d@combinatorial", "eblow1d@simplex"] {
            let s = strategy_by_name(name).unwrap_or_else(|| panic!("{name} not resolvable"));
            assert_eq!(s.name(), name);
        }
        // Historical alias.
        assert_eq!(
            strategy_by_name("eblow1d").unwrap().name(),
            "eblow1d@combinatorial"
        );
        assert!(strategy_by_name("eblow1d@bogus").is_none());
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
