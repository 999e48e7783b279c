//! The E-BLOW 1DOSP pipeline (paper §3, Fig. 4).
//!
//! ```text
//! characters ──► simplified LP (4) ──► successive rounding ──► fast ILP
//!     info          (mkp_lp)             (rounding)            convergence
//!                                                                  │
//! 1D stencil ◄── post-insertion ◄── post-swap ◄── refinement ◄─────┘
//! ```
//!
//! Use [`Eblow1d`] with an [`Eblow1dConfig`]; the ablation switches
//! (`fast_ilp`, `post_insertion`) reproduce the paper's E-BLOW-0 vs
//! E-BLOW-1 comparison (Figs. 11/12). Both variants run the same
//! successive rounding, so the pipeline is two stages, [`Eblow1d::round`]
//! and [`Eblow1d::finish`]: a clone of one rounding can be finished both
//! ways. [`Eblow1d::converge`] runs the finish's first stage, Algorithm 2,
//! on its own, so a caller learns whether it committed anything before it
//! pays for a second finish. [`solve_exact_1d`] certifies the optimum of
//! instances with up to [`EXACT_1D_MAX_CHARS`] candidates.

mod convergence;
mod exact;
mod mkp_lp;
mod oracle;
mod post;
mod refine;
mod rounding;

pub use convergence::{fast_ilp_convergence, ConvergenceConfig, ConvergenceStats};
pub use exact::{solve_exact_1d, Exact1dOutcome, EXACT_1D_MAX_CHARS};
pub use mkp_lp::{solve_mkp_lp, MkpItem, MkpLpSolution, RowBase};
pub use oracle::{CombinatorialOracle, LpOracle, OracleError, SimplexOracle};
pub use post::{post_insert, post_swap, PostConfig};
pub use refine::{
    brute_force_min_width, refine_row, refine_row_with_stop, Admission, ProbedRow, WidthScratch,
};
pub use rounding::{successive_rounding, RoundingConfig, RoundingOutcome, RoundingTrace, RowState};

use crate::cancel::StopFlag;
use crate::Plan1d;
use eblow_model::{Instance, ModelError, Placement1d, Row, Selection};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the full 1D pipeline.
///
/// Defaults follow the paper where it states values (`thinv = 0.9`,
/// `Lth = 0.1`, `Uth = 0.9`, refinement threshold 20).
#[derive(Debug, Clone)]
pub struct Eblow1dConfig {
    /// Successive-rounding tunables.
    pub rounding: RoundingConfig,
    /// Fast-ILP-convergence tunables.
    pub convergence: ConvergenceConfig,
    /// Post-stage tunables.
    pub post: PostConfig,
    /// Refinement DP beam width (paper: 20).
    pub refine_threshold: usize,
    /// Enable Algorithm 2 (disabled in the E-BLOW-0 ablation).
    pub fast_ilp: bool,
    /// Enable the post-insertion stage (disabled in E-BLOW-0). Post-swap
    /// always runs.
    pub post_insertion: bool,
    /// The LP relaxation backend used by Algorithms 1 and 2 (shared across
    /// racing planner threads; default: [`CombinatorialOracle`]).
    pub oracle: Arc<dyn LpOracle>,
}

impl Default for Eblow1dConfig {
    fn default() -> Self {
        Eblow1dConfig {
            rounding: RoundingConfig::default(),
            convergence: ConvergenceConfig::default(),
            post: PostConfig::default(),
            refine_threshold: 20,
            fast_ilp: true,
            post_insertion: true,
            oracle: Arc::new(CombinatorialOracle),
        }
    }
}

impl Eblow1dConfig {
    /// The paper's E-BLOW-0 ablation: no fast ILP convergence and no
    /// post-insertion. Successive rounding stops at the same stall point as
    /// the full pipeline, but the unsolved tail is never rescued — which is
    /// exactly the writing time the two ablated techniques buy back
    /// (Fig. 11). Note on Fig. 12: in the paper E-BLOW-1 is *faster*
    /// because Algorithm 2 replaces many expensive GUROBI LP rounds. Here
    /// both variants run the same rounding rounds (the LP oracle is a
    /// microsecond-scale combinatorial solve), so E-BLOW-1 costs E-BLOW-0's
    /// time plus its two extra stages, Algorithm 2 (about a millisecond)
    /// and post-insertion: 1.1–1.2× on average over the Table 3 cases
    /// (`eblow-eval fig12`; README, *Performance*).
    pub fn eblow0() -> Self {
        Eblow1dConfig {
            fast_ilp: false,
            post_insertion: false,
            ..Default::default()
        }
    }

    /// The full pipeline (alias of `default`), the paper's E-BLOW-1.
    pub fn eblow1() -> Self {
        Eblow1dConfig::default()
    }

    /// Replaces the LP relaxation backend (builder style).
    pub fn with_oracle(mut self, oracle: Arc<dyn LpOracle>) -> Self {
        self.oracle = oracle;
        self
    }
}

/// The E-BLOW 1DOSP planner.
#[derive(Debug, Clone, Default)]
pub struct Eblow1d {
    config: Eblow1dConfig,
}

impl Eblow1d {
    /// Creates a planner with the given configuration.
    pub fn new(config: Eblow1dConfig) -> Self {
        Eblow1d { config }
    }

    /// Plans the stencil for a row-structured instance.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotRowStructured`] for 2D instances. The
    /// returned placement always validates against the instance.
    pub fn plan(&self, instance: &Instance) -> Result<Plan1d, ModelError> {
        self.plan_with_stop(instance, StopFlag::NEVER)
    }

    /// Like [`Eblow1d::plan`], but polls `stop` at stage and iteration
    /// boundaries. A cancelled run skips remaining optimization (later LP
    /// rounds, Algorithm 2's residual, the post stages) and finishes the
    /// plan from whatever was committed — the result still validates.
    ///
    /// This is [`Eblow1d::round`] followed by [`Eblow1d::finish`].
    pub fn plan_with_stop(
        &self,
        instance: &Instance,
        stop: StopFlag<'_>,
    ) -> Result<Plan1d, ModelError> {
        let num_rows = instance.num_rows()?;
        let _pipeline_span = eblow_trace::span_with("eblow1d.plan", || {
            format!("chars={} rows={num_rows}", instance.num_chars())
        });
        let rounded = self.round(instance, stop)?;
        Ok(self.finish(instance, rounded, stop))
    }

    /// Stages 1–2: the simplified LP and successive rounding (Algorithm 1)
    /// on the configured LP backend, polling `stop` before every LP
    /// iteration.
    ///
    /// E-BLOW-0 and E-BLOW-1 share this stage (their configurations differ
    /// only in the finish), so one rounding can be cloned and finished
    /// both ways.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotRowStructured`] for 2D instances.
    pub fn round(&self, instance: &Instance, stop: StopFlag<'_>) -> Result<Rounded, ModelError> {
        let started = Instant::now();
        let num_rows = instance.num_rows()?;
        let row_height = instance
            .stencil()
            .row_height()
            .ok_or(ModelError::NotRowStructured)?;
        let w = instance.stencil().width();

        // Characters that can physically sit on a row.
        let eligible: Vec<usize> = (0..instance.num_chars())
            .filter(|&i| {
                let c = instance.char(i);
                c.height() <= row_height && c.width() <= w
            })
            .collect();

        let _span = eblow_trace::span("eblow1d.rounding");
        let outcome = successive_rounding(
            instance,
            &eligible,
            num_rows,
            &self.config.rounding,
            self.config.oracle.as_ref(),
            stop,
        );
        Ok(Rounded {
            outcome,
            started,
            converged: false,
        })
    }

    /// Stage 3 on a rounding from [`Eblow1d::round`]: fast ILP convergence
    /// (Algorithm 2) when `fast_ilp` is on and `stop` is not raised.
    /// Returns the characters it committed. It runs once per rounding:
    /// [`Eblow1d::finish`] skips it for a rounding already converged here,
    /// and a second call commits nothing. A rounding Algorithm 2 committed
    /// nothing to is unchanged in everything the later stages read.
    pub fn converge(
        &self,
        instance: &Instance,
        rounded: &mut Rounded,
        stop: StopFlag<'_>,
    ) -> usize {
        if !self.config.fast_ilp || rounded.converged || stop.is_set() {
            return 0;
        }
        rounded.converged = true;
        let outcome = &mut rounded.outcome;
        let _span = eblow_trace::span("eblow1d.convergence");
        let lp = outcome.last_lp.take();
        let items = if lp.is_some() {
            std::mem::take(&mut outcome.last_items)
        } else {
            // Rounding ended without an LP (its backend refused or failed
            // on the very first iteration): price the unsolved set fresh
            // and let Algorithm 2 ask the oracle itself — a backend that
            // fails transiently still gets one more shot, and a
            // deterministic failure degrades gracefully inside
            // `fast_ilp_convergence`.
            outcome
                .unsolved
                .iter()
                .map(|&i| MkpItem::of_char(instance, &outcome.region_times, i))
                .collect()
        };
        if items.is_empty() {
            return 0;
        }
        let (_leftover, stats) = fast_ilp_convergence(
            instance,
            &mut outcome.rows,
            &mut outcome.region_times,
            &items,
            lp.as_ref(),
            &self.config.convergence,
            self.config.oracle.as_ref(),
            stop,
        );
        stats.committed_by_threshold + stats.committed_by_ilp
    }

    /// Stages 3–6 on a rounding of `instance` from [`Eblow1d::round`]:
    /// fast ILP convergence (Algorithm 2, [`Eblow1d::converge`]) when
    /// `fast_ilp` is on, refinement (Algorithm 3), post-swap, then
    /// post-insertion when configured. Polls `stop` like
    /// [`Eblow1d::plan_with_stop`]; the returned placement always
    /// validates, and its `elapsed` counts from the start of the rounding.
    pub fn finish(&self, instance: &Instance, mut rounded: Rounded, stop: StopFlag<'_>) -> Plan1d {
        self.converge(instance, &mut rounded, stop);
        let Rounded {
            outcome, started, ..
        } = rounded;
        let w = instance.stencil().width();

        let mut region_times = outcome.region_times;

        // Stage 4: refinement (Algorithm 3) — order each row, then repair
        // any row whose true (asymmetric) width exceeds the stencil.
        let _refine_span = eblow_trace::span("eblow1d.refine");
        let mut rows: Vec<Row> = Vec::with_capacity(outcome.rows.len());
        for rs in &outcome.rows {
            // Refinement cannot be skipped (only ordered rows of verified
            // width validate), but under a raised stop flag it runs with a
            // minimal DP beam: same feasibility guarantee — the width is
            // checked and repaired below either way — at a fraction of the
            // cost, so a deadline doesn't stall on full rows. The flag is
            // threaded *into* the DP, which polls per insertion and runs
            // beam 1 from there on: a flag raised before the row runs all
            // of it at beam 1, and a cancellation arriving mid-row
            // collapses the beam right there instead of waiting for the
            // next row boundary.
            let beam = self.config.refine_threshold;
            let (mut order, mut width) = refine_row_with_stop(instance, &rs.members, beam, stop);
            while width > w && !order.is_empty() {
                // Drop the member with the lowest dynamic profit.
                let (drop_pos, _) = order
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        region_times
                            .profit(instance, a.index())
                            .total_cmp(&region_times.profit(instance, b.index()))
                    })
                    .expect("non-empty order");
                let dropped = order.remove(drop_pos);
                region_times.deselect(instance, dropped.index());
                let (new_order, new_width) = refine_row_with_stop(instance, &order, beam, stop);
                order = new_order;
                width = new_width;
            }
            rows.push(Row::from_order(order));
        }
        let mut placement = Placement1d::from_rows(rows);
        let mut selection = placement.selection(instance.num_chars());
        drop(_refine_span);

        // Stage 5: post-swap (skipped when cancelled — the plan is already
        // valid at this point, the post stages only improve it; mid-stage
        // cancellation is handled inside via per-candidate polls).
        if !stop.is_set() {
            let _span = eblow_trace::span("eblow1d.post_swap");
            post_swap(
                instance,
                &mut placement,
                &mut selection,
                &mut region_times,
                &self.config.post,
                stop,
            );
        }

        // Stage 6: post-insertion.
        if self.config.post_insertion && !stop.is_set() {
            let _span = eblow_trace::span("eblow1d.post_insert");
            post_insert(
                instance,
                &mut placement,
                &mut selection,
                &mut region_times,
                &self.config.post,
                stop,
            );
        }

        debug_assert!(placement.validate(instance).is_ok());
        debug_assert_eq!(
            region_times.times(),
            &instance.writing_times(&selection)[..]
        );
        let total_time = region_times.total();
        Plan1d {
            placement,
            selection,
            region_times: region_times.times().to_vec(),
            total_time,
            elapsed: started.elapsed(),
            trace: Some(outcome.trace),
        }
    }
}

/// A finished successive rounding ([`Eblow1d::round`]) waiting for its
/// finish ([`Eblow1d::finish`]). Cloning it lets one rounding be finished
/// by more than one configuration.
#[derive(Debug, Clone)]
pub struct Rounded {
    outcome: RoundingOutcome,
    started: Instant,
    /// Whether [`Eblow1d::converge`] has run Algorithm 2 on it.
    converged: bool,
}

/// Builds a [`Plan1d`] from a finished placement (shared by baselines).
pub(crate) fn finish_plan(
    instance: &Instance,
    placement: Placement1d,
    started: Instant,
    trace: Option<RoundingTrace>,
) -> Plan1d {
    let selection = placement.selection(instance.num_chars());
    let region_times = instance.writing_times(&selection);
    let total_time = region_times.iter().copied().max().unwrap_or(0);
    Plan1d {
        placement,
        selection: Selection::from_mask(selection.as_mask().to_vec()),
        region_times,
        total_time,
        elapsed: started.elapsed(),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_gen::GenConfig;

    #[test]
    fn plan_is_valid_and_reduces_writing_time() {
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(1));
        let plan = Eblow1d::default().plan(&inst).unwrap();
        plan.placement.validate(&inst).unwrap();
        let vsb = inst.total_writing_time(&Selection::none(inst.num_chars()));
        assert!(plan.total_time < vsb, "{} !< {vsb}", plan.total_time);
        assert_eq!(plan.selection.count(), plan.placement.num_placed());
        assert_eq!(plan.total_time, inst.total_writing_time(&plan.selection));
    }

    #[test]
    fn eblow1_at_least_as_good_as_eblow0_on_average() {
        // Fig. 11's claim, checked on a few small seeds (allowing noise on
        // any single one).
        let mut wins = 0i32;
        for seed in 0..5 {
            let inst = eblow_gen::generate(&GenConfig::tiny_1d(seed));
            let p0 = Eblow1d::new(Eblow1dConfig::eblow0()).plan(&inst).unwrap();
            let p1 = Eblow1d::new(Eblow1dConfig::eblow1()).plan(&inst).unwrap();
            if p1.total_time <= p0.total_time {
                wins += 1;
            }
        }
        assert!(wins >= 3, "E-BLOW-1 should usually match or beat E-BLOW-0");
    }

    /// E-BLOW-0 and E-BLOW-1 round alike, so each variant's finish of one
    /// shared rounding is that variant's own plan, bit for bit.
    #[test]
    fn one_rounding_finishes_as_either_variant() {
        let eblow0 = Eblow1d::new(Eblow1dConfig::eblow0());
        let eblow1 = Eblow1d::new(Eblow1dConfig::eblow1());
        let same = |a: &Plan1d, b: &Plan1d| {
            a.placement == b.placement
                && a.selection == b.selection
                && a.region_times == b.region_times
                && a.total_time == b.total_time
        };
        let mut differ = 0;
        for seed in 0..100 {
            let inst = eblow_gen::generate(&GenConfig::tiny_1d(seed));
            let rounded = eblow1.round(&inst, StopFlag::NEVER).unwrap();
            let finished0 = eblow0.finish(&inst, rounded.clone(), StopFlag::NEVER);
            let finished1 = eblow1.finish(&inst, rounded, StopFlag::NEVER);
            let plan0 = eblow0.plan(&inst).unwrap();
            let plan1 = eblow1.plan(&inst).unwrap();
            assert!(same(&finished0, &plan0), "seed {seed}: E-BLOW-0 finish");
            assert!(same(&finished1, &plan1), "seed {seed}: E-BLOW-1 finish");
            differ += usize::from(!same(&plan0, &plan1));
        }
        // The two finishes really do differ on most seeds.
        assert!(differ >= 50, "only {differ} seeds tell the variants apart");
    }

    /// Running Algorithm 2 through `converge` first finishes to the same
    /// plan, Algorithm 2 runs once per rounding, and a rounding it
    /// committed nothing to still finishes as E-BLOW-0's own plan.
    #[test]
    fn converging_first_changes_no_finish() {
        let eblow0 = Eblow1d::new(Eblow1dConfig::eblow0());
        let eblow1 = Eblow1d::new(Eblow1dConfig::eblow1());
        let (mut committed_some, mut committed_none) = (0, 0);
        for seed in 0..60 {
            let inst = eblow_gen::generate(&GenConfig::tiny_1d(seed));
            let mut rounded = eblow1.round(&inst, StopFlag::NEVER).unwrap();
            assert_eq!(eblow0.converge(&inst, &mut rounded, StopFlag::NEVER), 0);
            let committed = eblow1.converge(&inst, &mut rounded, StopFlag::NEVER);
            assert_eq!(eblow1.converge(&inst, &mut rounded, StopFlag::NEVER), 0);
            if committed == 0 {
                committed_none += 1;
                let plan0 = eblow0.finish(&inst, rounded.clone(), StopFlag::NEVER);
                assert_eq!(plan0.placement, eblow0.plan(&inst).unwrap().placement);
            } else {
                committed_some += 1;
            }
            let plan1 = eblow1.plan(&inst).unwrap();
            let finished = eblow1.finish(&inst, rounded, StopFlag::NEVER);
            assert_eq!(finished.placement, plan1.placement, "seed {seed}");
            assert_eq!(finished.region_times, plan1.region_times, "seed {seed}");
        }
        assert!(
            committed_some >= 1 && committed_none >= 1,
            "{committed_some} seeds with commits, {committed_none} without"
        );
    }

    #[test]
    fn simplex_backend_plans_validly() {
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(2));
        let cfg = Eblow1dConfig::default().with_oracle(Arc::new(SimplexOracle));
        let plan = Eblow1d::new(cfg).plan(&inst).unwrap();
        plan.placement.validate(&inst).unwrap();
        assert_eq!(plan.total_time, inst.total_writing_time(&plan.selection));
        // Same seed through the default backend: both must be real plans,
        // in the same quality neighbourhood (the relaxations differ only in
        // the B_j slack, and rounding re-verifies every commit).
        let combinatorial = Eblow1d::default().plan(&inst).unwrap();
        assert!(plan.selection.count() > 0);
        assert!(
            (plan.total_time as f64) <= combinatorial.total_time as f64 * 1.5,
            "simplex-backed plan {} far off combinatorial {}",
            plan.total_time,
            combinatorial.total_time
        );
    }

    #[test]
    fn rejects_2d_instances() {
        let inst = eblow_gen::generate(&GenConfig::tiny_2d(1));
        assert!(matches!(
            Eblow1d::default().plan(&inst),
            Err(ModelError::NotRowStructured)
        ));
    }

    #[test]
    fn trace_present_and_consistent() {
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(3));
        let plan = Eblow1d::default().plan(&inst).unwrap();
        let trace = plan.trace.expect("E-BLOW produces a trace");
        assert!(!trace.unsolved_per_iter.is_empty());
        assert!(trace.unsolved_per_iter.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn pre_cancelled_plan_is_still_valid() {
        use std::sync::atomic::AtomicBool;
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(5));
        let stop = AtomicBool::new(true);
        let plan = Eblow1d::default()
            .plan_with_stop(&inst, StopFlag::new(&stop))
            .unwrap();
        plan.placement.validate(&inst).unwrap();
        assert_eq!(plan.total_time, inst.total_writing_time(&plan.selection));
        // A cancelled run can never beat the uncancelled one.
        let full = Eblow1d::default().plan(&inst).unwrap();
        assert!(plan.total_time >= full.total_time);
    }

    #[test]
    fn oversized_characters_are_never_placed() {
        use eblow_model::{Character, Stencil};
        let chars = vec![
            Character::new(40, 40, [5, 5, 0, 0], 10).unwrap(),
            Character::new(40, 60, [5, 5, 0, 0], 50).unwrap(), // too tall
            Character::new(200, 40, [5, 5, 0, 0], 50).unwrap(), // too wide
        ];
        let inst = Instance::new(
            Stencil::with_rows(100, 40, 40).unwrap(),
            chars,
            vec![vec![5]; 3],
        )
        .unwrap();
        let plan = Eblow1d::default().plan(&inst).unwrap();
        assert!(!plan.selection.contains(1));
        assert!(!plan.selection.contains(2));
        assert!(plan.selection.contains(0));
    }
}
