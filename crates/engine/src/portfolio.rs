//! The portfolio executor: race strategies across OS threads under a
//! wall-clock deadline.

use crate::budget::Budget;
use crate::outcome::{EngineError, PlanOutcome};
use crate::strategy::Strategy;
use eblow_model::Instance;
use eblow_trace as trace;
use std::fmt;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Races started (counter `race.runs`).
static RACES: trace::Counter = trace::Counter::new("race.runs");
/// Races ended by a proven-optimal plan (counter `race.early_exit`).
static EARLY_EXITS: trace::Counter = trace::Counter::new("race.early_exit");
/// Per-strategy wall-clock per race, in ms (histogram `race.strategy_ms`).
static STRATEGY_MS: trace::Histogram = trace::Histogram::new("race.strategy_ms");

/// Tunables of one portfolio race.
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// Wall-clock deadline for the whole race. When it passes, the shared
    /// stop flag is raised and every strategy finishes its best valid plan
    /// so far. `None` lets all strategies run to completion.
    pub deadline: Option<Duration>,
    /// Time cap for the exact-ILP strategies' branch-and-bound (further
    /// clamped to the remaining deadline).
    pub ilp_time_limit: Duration,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            deadline: None,
            ilp_time_limit: Duration::from_secs(10),
        }
    }
}

/// How one strategy's run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyStatus {
    /// Produced the minimum-writing-time valid plan of the race.
    Won,
    /// Produced a valid plan, but not the best one.
    Completed,
    /// The deadline fired while this strategy was running. Its plan is
    /// valid, but may be weaker than an uninterrupted run would produce —
    /// and a strategy without poll points may in fact have completed
    /// normally despite the label. Treat `Cancelled` as "result possibly
    /// degraded by the deadline", not "partial work".
    Cancelled,
    /// Not raced: its [`Strategy::supports`] refused the instance, so no
    /// worker was spawned. A member that supports the instance but sat
    /// out reports [`StrategyStatus::SatOut`] instead.
    Unsupported,
    /// Not raced although it supports the instance: the line-up leaves it
    /// out at this size ([`Strategy::sits_out`]; in the default race, the
    /// 1D baselines at [`BASELINE_RACE_GATE`](crate::BASELINE_RACE_GATE)
    /// candidates or more). No worker was spawned.
    SatOut,
    /// Returned an error or an invalid plan.
    Failed(String),
}

impl StrategyStatus {
    /// Whether the strategy raced (a worker ran it), whatever the result.
    pub fn raced(&self) -> bool {
        !matches!(self, StrategyStatus::Unsupported | StrategyStatus::SatOut)
    }

    /// Whether this run contributed a valid plan.
    pub fn has_plan(&self) -> bool {
        matches!(
            self,
            StrategyStatus::Won | StrategyStatus::Completed | StrategyStatus::Cancelled
        )
    }
}

/// Per-strategy record of a portfolio race.
#[derive(Debug, Clone)]
pub struct StrategyReport {
    /// Strategy registry name.
    pub name: &'static str,
    /// How the run ended.
    pub status: StrategyStatus,
    /// Whether the deadline fired while this strategy was running — set
    /// independently of `status`, because a cancelled strategy can still
    /// *win* the race (status `Won`) with its possibly-degraded plan.
    pub cancelled: bool,
    /// The plan's system writing time, when one was produced.
    pub total_time: Option<u64>,
    /// Wall-clock time the strategy ran for.
    pub elapsed: Duration,
}

impl fmt::Display for StrategyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let time = match self.total_time {
            Some(t) => t.to_string(),
            None => "-".to_string(),
        };
        let status = match &self.status {
            StrategyStatus::Won if self.cancelled => "won*".to_string(),
            StrategyStatus::Won => "won".to_string(),
            StrategyStatus::Completed => "completed".to_string(),
            StrategyStatus::Cancelled => "cancelled".to_string(),
            StrategyStatus::Unsupported => "unsupported".to_string(),
            StrategyStatus::SatOut => "sat out".to_string(),
            StrategyStatus::Failed(e) => format!("failed: {e}"),
        };
        write!(
            f,
            "{:<22} {:<10} T_total={:>8}  {:.3}s",
            self.name,
            status,
            time,
            self.elapsed.as_secs_f64()
        )
    }
}

/// What a portfolio race produced.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The minimum-writing-time valid plan, if any strategy produced one.
    pub best: Option<PlanOutcome>,
    /// One report per selected strategy, in selection order.
    pub reports: Vec<StrategyReport>,
    /// Wall-clock time of the whole race.
    pub elapsed: Duration,
    /// Number of strategies that raced: their `supports()` accepted the
    /// instance and they did not sit out ([`StrategyStatus::SatOut`]), so
    /// a supporting member is not always a raced one. `0` is the distinct
    /// "nothing raced" outcome — nothing ran, so `best: None` means
    /// *unplannable with this portfolio*, not *planned and failed*.
    pub supported: usize,
    /// Whether the race ended early because a strategy delivered a
    /// *proven-optimal* plan ([`PlanOutcome::proven_optimal`]). Sibling
    /// strategies were cancelled, but nothing of value was lost — no plan
    /// can beat a certificate — so an early-exited race still counts as
    /// [`complete`](PortfolioOutcome::complete).
    pub early_exit: bool,
}

impl PortfolioOutcome {
    /// Name of the winning strategy, if any.
    pub fn winner(&self) -> Option<&'static str> {
        self.best.as_ref().map(|b| b.strategy)
    }

    /// Whether the race ran to completion: no strategy was (possibly)
    /// degraded by the deadline, *or* the race early-exited on a
    /// proven-optimal plan (which no surviving strategy could have
    /// beaten). Only complete races represent the portfolio's
    /// full-quality answer for an instance — the plan cache refuses to
    /// store anything else.
    pub fn complete(&self) -> bool {
        self.early_exit || self.reports.iter().all(|r| !r.cancelled)
    }
}

/// A set of strategies raced against each other per instance.
pub struct Portfolio {
    strategies: Vec<Arc<dyn Strategy>>,
}

impl Portfolio {
    /// A portfolio over an explicit strategy set.
    pub fn new(strategies: Vec<Arc<dyn Strategy>>) -> Self {
        Portfolio { strategies }
    }

    /// A portfolio over every built-in strategy; per instance, only the
    /// supporting members that do not sit out race (see
    /// [`builtin_strategies`](crate::builtin_strategies)).
    pub fn all_builtin() -> Self {
        Portfolio::new(crate::strategy::builtin_strategies())
    }

    /// A portfolio over registered strategies selected by name (see
    /// [`strategy_by_name`](crate::strategy_by_name)).
    ///
    /// # Errors
    ///
    /// Returns the first unknown name.
    pub fn of_names<'n>(names: impl IntoIterator<Item = &'n str>) -> Result<Self, String> {
        names
            .into_iter()
            .map(|name| crate::strategy::strategy_by_name(name).ok_or_else(|| name.to_string()))
            .collect::<Result<_, _>>()
            .map(Portfolio::new)
    }

    /// The strategies in this portfolio.
    pub fn strategies(&self) -> &[Arc<dyn Strategy>] {
        &self.strategies
    }

    /// Registry names of the portfolio's strategies, in portfolio order
    /// (the order that breaks race ties, fingerprints the plan cache, and
    /// labels reports).
    pub fn names(&self) -> Vec<&'static str> {
        self.strategies.iter().map(|s| s.name()).collect()
    }

    /// Races the supporting strategies on `instance` under `config`, less
    /// those that sit out ([`Strategy::sits_out`]).
    ///
    /// One OS thread per raced strategy; when the deadline passes, the shared
    /// stop flag is raised and every planner returns its best valid plan so
    /// far (cooperative cancellation — see `eblow_core::cancel`). Every
    /// returned plan is re-validated against the model before it may win;
    /// the best plan is the valid one with minimum system writing time,
    /// ties broken by portfolio order, so the result is deterministic for a
    /// deterministic strategy set whenever no deadline fires.
    pub fn run(&self, instance: &Instance, config: &PortfolioConfig) -> PortfolioOutcome {
        let budget = match config.deadline {
            Some(d) => Budget::with_deadline(d),
            None => Budget::unlimited(),
        }
        .with_ilp_time_limit(config.ilp_time_limit);
        self.run_with_budget(instance, &budget)
    }

    /// Races the supporting strategies under an externally owned [`Budget`].
    ///
    /// Same semantics as [`Portfolio::run`], but deadline *and* stop flag
    /// come from the caller: the race honours `budget.remaining()` exactly
    /// like a config deadline, and an external `budget.cancel()` (e.g.
    /// `shard1d` tearing down its shard races) stops the race early.
    /// `shard1d` races its inner trio on every shard through this call.
    pub fn run_with_budget(&self, instance: &Instance, budget: &Budget) -> PortfolioOutcome {
        let race_start = Instant::now();
        RACES.incr();
        let _race_span = trace::span_with("race", || {
            format!(
                "chars={} strategies={}",
                instance.num_chars(),
                self.strategies.len()
            )
        });

        // Reports start out Unsupported placeholders; members that sit out
        // are marked so below, and raced ones are overwritten as results
        // arrive.
        let mut reports: Vec<StrategyReport> = self
            .strategies
            .iter()
            .map(|s| StrategyReport {
                name: s.name(),
                status: StrategyStatus::Unsupported,
                cancelled: false,
                total_time: None,
                elapsed: Duration::ZERO,
            })
            .collect();

        let mut runnable: Vec<usize> = Vec::with_capacity(self.strategies.len());
        for (i, strategy) in self.strategies.iter().enumerate() {
            if !strategy.supports(instance) {
                continue;
            }
            if strategy.sits_out(instance) {
                reports[i].status = StrategyStatus::SatOut;
            } else {
                runnable.push(i);
            }
        }

        type WorkerMsg = (usize, Result<PlanOutcome, EngineError>, bool, Duration);
        let (tx, rx) = mpsc::channel::<WorkerMsg>();

        std::thread::scope(|scope| {
            for &i in &runnable {
                let strategy = Arc::clone(&self.strategies[i]);
                let budget = budget.clone();
                let tx = tx.clone();
                scope.spawn(move || {
                    // Label this worker's swim-lane with the strategy it
                    // runs; the span covers plan + re-validation.
                    trace::set_thread_label(strategy.name());
                    let _span = trace::span(strategy.name());
                    let started = Instant::now();
                    let result = strategy
                        .plan(instance, &budget)
                        .and_then(|outcome| outcome.validate(instance).map(|()| outcome));
                    // A composite strategy can be degraded by its *own*
                    // internal sub-deadlines without this race's budget
                    // ever firing; treat that exactly like a cancellation
                    // so `complete()` (and therefore the plan cache's
                    // never-cache-degraded rule) sees through it.
                    let cancelled = budget.is_cancelled()
                        || result.as_ref().is_ok_and(|outcome| outcome.degraded);
                    // A closed channel means the receiver gave up; nothing
                    // useful to do from a worker thread.
                    let _ = tx.send((i, result, cancelled, started.elapsed()));
                });
            }
            drop(tx);

            let mut pending = runnable.len();
            let mut results: Vec<(usize, Result<PlanOutcome, EngineError>, bool)> = Vec::new();
            let mut early_exit = false;
            let mut best_t_so_far: Option<u64> = None;
            while pending > 0 {
                let msg = match budget.remaining() {
                    Some(rem) if !budget.is_cancelled() => {
                        match rx.recv_timeout(rem.max(Duration::from_millis(1))) {
                            Ok(msg) => Some(msg),
                            Err(mpsc::RecvTimeoutError::Timeout) => {
                                // Deadline: raise the stop flag, then keep
                                // draining — workers exit cooperatively.
                                trace::instant("race.deadline_cancel", pending as i64, 0);
                                budget.cancel();
                                None
                            }
                            Err(mpsc::RecvTimeoutError::Disconnected) => break,
                        }
                    }
                    _ => match rx.recv() {
                        Ok(msg) => Some(msg),
                        Err(_) => break,
                    },
                };
                if let Some((i, result, cancelled, elapsed)) = msg {
                    reports[i].elapsed = elapsed;
                    if let Ok(outcome) = &result {
                        STRATEGY_MS.record(elapsed.as_millis() as u64);
                        trace::instant_with(
                            "race.result",
                            outcome.total_time as i64,
                            i as i64,
                            || reports[i].name.to_string(),
                        );
                        // The per-strategy T trajectory: the best valid T
                        // seen so far, sampled each time a plan arrives.
                        if best_t_so_far.is_none_or(|t| outcome.total_time < t) {
                            best_t_so_far = Some(outcome.total_time);
                            trace::value("race.best_t", outcome.total_time as i64);
                        }
                        // Optimality-aware early exit: a proven-optimal,
                        // undegraded plan that arrived before any
                        // cancellation is a certificate — no sibling can
                        // beat it, so stop burning the rest of the
                        // deadline. The drained siblings report as
                        // Cancelled, but `complete()` stays true.
                        if outcome.proven_optimal && !cancelled && !outcome.degraded && !early_exit
                        {
                            early_exit = true;
                            EARLY_EXITS.incr();
                            trace::instant_with(
                                "race.early_exit",
                                outcome.total_time as i64,
                                pending as i64 - 1,
                                || reports[i].name.to_string(),
                            );
                            budget.cancel();
                        }
                    }
                    results.push((i, result, cancelled));
                    pending -= 1;
                }
            }
            // Fold results into reports and pick the best valid plan.
            let mut best: Option<(u64, usize, PlanOutcome)> = None;
            for (i, result, cancelled) in results {
                reports[i].cancelled = cancelled;
                match result {
                    Ok(outcome) => {
                        reports[i].total_time = Some(outcome.total_time);
                        reports[i].status = if cancelled {
                            StrategyStatus::Cancelled
                        } else {
                            StrategyStatus::Completed
                        };
                        let better = match &best {
                            Some((t, ord, _)) => (outcome.total_time, i) < (*t, *ord),
                            None => true,
                        };
                        if better {
                            best = Some((outcome.total_time, i, outcome));
                        }
                    }
                    Err(e) => {
                        reports[i].status = StrategyStatus::Failed(e.to_string());
                    }
                }
            }
            if let Some((t, i, _)) = &best {
                reports[*i].status = StrategyStatus::Won;
                trace::instant_with("race.winner", *t as i64, *i as i64, || {
                    reports[*i].name.to_string()
                });
            }
            PortfolioOutcome {
                best: best.map(|(_, _, outcome)| outcome),
                reports,
                elapsed: race_start.elapsed(),
                supported: runnable.len(),
                early_exit,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_gen::GenConfig;

    #[test]
    fn portfolio_beats_or_matches_every_member() {
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(21));
        let portfolio = Portfolio::all_builtin();
        let outcome = portfolio.run(&inst, &PortfolioConfig::default());
        let best = outcome.best.as_ref().expect("valid plan");
        for report in &outcome.reports {
            if let Some(t) = report.total_time {
                assert!(best.total_time <= t, "{} beat the portfolio", report.name);
            }
        }
        assert_eq!(outcome.winner().unwrap(), best.strategy);
    }

    /// On a 2D instance the six 1D members are reported unsupported and
    /// only `eblow2d` and `sa2d` race.
    #[test]
    fn unsupported_strategies_are_reported_not_run() {
        let inst = eblow_gen::generate(&GenConfig::tiny_2d(22));
        let outcome = Portfolio::all_builtin().run(&inst, &PortfolioConfig::default());
        let (unsupported, raced): (Vec<&StrategyReport>, Vec<&StrategyReport>) = outcome
            .reports
            .iter()
            .partition(|r| r.status == StrategyStatus::Unsupported);
        let names = |rs: &[&StrategyReport]| rs.iter().map(|r| r.name).collect::<Vec<_>>();
        assert_eq!(
            names(&unsupported),
            [
                "eblow1d@combinatorial",
                "eblow1d@simplex",
                "heuristic1d",
                "rowheur1d",
                "greedy1d",
                "exact1d",
            ]
        );
        assert_eq!(names(&raced), ["eblow2d", "sa2d"]);
        assert_eq!(outcome.supported, 2);
    }

    /// Names are exact-match registry keys: an unknown name, a trailing
    /// `@` included, comes back as the error.
    #[test]
    fn of_names_rejects_unknown() {
        assert!(Portfolio::of_names(["eblow1d", "greedy1d"]).is_ok());
        for bad in ["bogus", "eblow1d@"] {
            assert_eq!(Portfolio::of_names(["eblow1d", bad]).err().unwrap(), bad);
        }
    }

    /// When `supports()` filters out every strategy, the outcome must be
    /// distinguishable from a race that ran and found nothing.
    #[test]
    fn unsupported_everywhere_is_a_distinct_outcome() {
        // 1M-1 has 1000 × 25 = 25 000 cells, over the simplex cutoff, so a
        // simplex-only portfolio has nothing to run.
        let big = eblow_gen::benchmark(eblow_gen::Family::M1(1));
        let portfolio = Portfolio::of_names(["eblow1d@simplex"]).unwrap();
        let outcome = portfolio.run(&big, &PortfolioConfig::default());
        assert_eq!(outcome.supported, 0);
        assert!(outcome.best.is_none());
        assert_eq!(outcome.reports.len(), 1);
        assert_eq!(outcome.reports[0].status, StrategyStatus::Unsupported);
        // A race that actually runs is not confusable with it.
        let tiny = eblow_gen::generate(&GenConfig::tiny_1d(24));
        let ran = Portfolio::of_names(["greedy1d"])
            .unwrap()
            .run(&tiny, &PortfolioConfig::default());
        assert_eq!(ran.supported, 1);
    }

    /// A strategy that returns a valid plan but flags it as internally
    /// degraded (`shard1d` does this when a shard's deadline fires
    /// without the outer budget ever noticing).
    struct InternallyDegraded;

    impl crate::Strategy for InternallyDegraded {
        fn name(&self) -> &'static str {
            "degraded"
        }
        fn supports(&self, _instance: &Instance) -> bool {
            true
        }
        fn plan(&self, instance: &Instance, _budget: &Budget) -> Result<PlanOutcome, EngineError> {
            let plan = eblow_core::baselines::greedy_1d(instance)?;
            Ok(PlanOutcome::from_1d(self.name(), plan).with_degraded(true))
        }
    }

    /// Regression: a composite's internal sub-deadline degradation must
    /// surface as a cancelled report even when this race's own budget
    /// never fired — otherwise `complete()` holds and the plan cache pins
    /// the degraded plan forever.
    #[test]
    fn internally_degraded_plans_mark_the_race_incomplete() {
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(25));
        let portfolio = Portfolio::new(vec![Arc::new(InternallyDegraded)]);
        let outcome = portfolio.run(&inst, &PortfolioConfig::default());
        assert!(outcome.best.is_some(), "the degraded plan still serves");
        assert!(outcome.reports[0].cancelled);
        assert!(!outcome.complete(), "degraded ⇒ not cacheable");
    }

    #[test]
    fn tight_deadline_still_returns_valid_plans() {
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(23));
        let config = PortfolioConfig {
            deadline: Some(Duration::from_millis(1)),
            ..Default::default()
        };
        let outcome = Portfolio::all_builtin().run(&inst, &config);
        // Even with an immediate deadline every 1D member must hand back a
        // *valid* (possibly empty) plan — never an illegal placement, an
        // error, or nothing at all.
        let best = outcome.best.as_ref().expect("a 1 ms race still plans");
        best.validate(&inst).unwrap();
        let raced: Vec<&StrategyReport> = outcome
            .reports
            .iter()
            .filter(|r| r.status != StrategyStatus::Unsupported)
            .collect();
        // 60 candidates: every 1D member but exact1d races.
        assert_eq!(raced.len(), 5);
        for report in raced {
            assert!(
                report.status.has_plan(),
                "{} returned no valid plan: {report}",
                report.name
            );
        }
    }

    /// At 1H scale (12 000 candidates) the default race is E-BLOW alone: a
    /// 1 ms deadline cuts it, its anytime fill still returns a valid,
    /// non-empty plan, and the three 1D baselines sit out.
    #[test]
    fn tight_deadline_at_1h_scale_races_eblow_alone() {
        let inst = eblow_gen::benchmark(eblow_gen::Family::H1(1));
        let config = PortfolioConfig {
            deadline: Some(Duration::from_millis(1)),
            ..Default::default()
        };
        let outcome = Portfolio::all_builtin().run(&inst, &config);
        let best = outcome.best.as_ref().expect("a 1 ms race still plans");
        best.validate(&inst).unwrap();
        assert!(best.selection.count() > 0, "the cut run filled nothing");
        let report = |name: &str| outcome.reports.iter().find(|r| r.name == name).unwrap();
        let eblow = report("eblow1d@combinatorial");
        assert_eq!(eblow.status, StrategyStatus::Won);
        assert!(eblow.cancelled, "the deadline did not cut E-BLOW: {eblow}");
        for name in ["heuristic1d", "rowheur1d", "greedy1d"] {
            assert_eq!(report(name).status, StrategyStatus::SatOut, "{name}");
            assert!(!report(name).status.raced());
        }
        assert_eq!(outcome.supported, 1);
        assert!(!outcome.complete());
    }
}
