//! The E-BLOW 2DOSP pipeline (paper §4, Fig. 9).
//!
//! ```text
//! characters ──► pre-filter ──► KD-tree clustering ──► SA packing ──► 2D stencil
//! ```
//!
//! The SA stage runs on one of two engines: the faithful sequence-pair
//! floorplanner (`O(n²)` per move, as in \[24\]/Parquet) for moderate node
//! counts, or the scalable overlap-aware shelf engine for the large MCC
//! cases. [`PackEngine::Auto`] picks by node count.

mod cluster;
mod sa;
mod skyline;

pub use cluster::{cluster, cluster_with_stop, prefilter, PackNode};
pub use sa::{NodeGeometry, OrderState, SeqPairState, SpMove};
pub use skyline::{shelf_pack, ShelfPacking};

use crate::cancel::StopFlag;
use crate::profit::RegionTimes;
use crate::Plan2d;
use eblow_anneal::{Annealer, Schedule};
use eblow_model::{Instance, ModelError, PlacedChar, Placement2d};
use eblow_seqpair::SequencePair;
use sa::Objective;
use std::time::Instant;

/// Which packing engine the SA stage uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackEngine {
    /// Sequence pair below [`Eblow2dConfig::seqpair_threshold`] nodes,
    /// shelf engine above.
    Auto,
    /// Always the sequence-pair engine.
    SeqPair,
    /// Always the shelf engine.
    Skyline,
}

/// Configuration of the 2D pipeline.
#[derive(Debug, Clone)]
pub struct Eblow2dConfig {
    /// Pre-filter capacity factor (candidates kept ≈ factor × capacity).
    pub prefilter_factor: f64,
    /// Enable Algorithm 4 clustering.
    pub clustering: bool,
    /// Similarity tolerance of rule (8) (paper: 0.2).
    pub cluster_bound: f64,
    /// Engine selection policy.
    pub engine: PackEngine,
    /// Auto-engine cutover point (node count).
    pub seqpair_threshold: usize,
    /// SA proposals per temperature = `moves_factor × nodes`.
    pub moves_factor: usize,
    /// SA cooling factor per plateau.
    pub alpha: f64,
    /// RNG seed for the annealer.
    pub seed: u64,
    /// Optimize the sum of region times instead of the maximum (the \[24\]
    /// baseline's objective; E-BLOW uses the MCC max).
    pub sum_objective: bool,
}

impl Default for Eblow2dConfig {
    fn default() -> Self {
        Eblow2dConfig {
            prefilter_factor: 1.3,
            clustering: true,
            cluster_bound: 0.2,
            engine: PackEngine::Auto,
            seqpair_threshold: 400,
            moves_factor: 2,
            alpha: 0.8,
            seed: 0xEB10,
            sum_objective: false,
        }
    }
}

/// The E-BLOW 2DOSP planner.
#[derive(Debug, Clone, Default)]
pub struct Eblow2d {
    config: Eblow2dConfig,
}

impl Eblow2d {
    /// Creates a planner with the given configuration.
    pub fn new(config: Eblow2dConfig) -> Self {
        Eblow2d { config }
    }

    /// Plans the stencil for a 2D instance.
    ///
    /// # Errors
    ///
    /// Currently infallible for any well-formed instance (row-structured
    /// instances are planned as free-form 2D); the `Result` mirrors the 1D
    /// API.
    pub fn plan(&self, instance: &Instance) -> Result<Plan2d, ModelError> {
        self.plan_with_stop(instance, StopFlag::NEVER)
    }

    /// Like [`Eblow2d::plan`], but polls `stop` inside the SA packing loop.
    /// A cancelled run returns the best packing found so far (the SA engine
    /// restores its incumbent best on exit), which still validates.
    pub fn plan_with_stop(
        &self,
        instance: &Instance,
        stop: StopFlag<'_>,
    ) -> Result<Plan2d, ModelError> {
        let started = Instant::now();

        // Initial dynamic profits at the all-VSB point (Eqn. 6).
        let rt = RegionTimes::new(instance);
        let profits = rt.profits(instance);

        // Stage 1: pre-filter.
        let kept = prefilter(instance, &profits, self.config.prefilter_factor);

        // Stage 2: clustering (polls `stop` between merge rounds, so a
        // deadline raised during clustering of a huge instance is honored
        // before SA ever starts).
        let nodes: Vec<PackNode> = if self.config.clustering {
            cluster_with_stop(instance, &kept, &profits, self.config.cluster_bound, stop)
        } else {
            kept.iter()
                .map(|&i| PackNode::single(instance, eblow_model::CharId::from(i), profits[i]))
                .collect()
        };

        // Stage 3: SA packing.
        let positions = self.anneal(instance, &nodes, stop);

        // Extract in-outline nodes into a character-level placement.
        let w = instance.stencil().width() as i64;
        let h = instance.stencil().height() as i64;
        let mut placement = Placement2d::new();
        for (k, pos) in positions.iter().enumerate() {
            let Some((x, y)) = *pos else { continue };
            let node = &nodes[k];
            if x < 0 || y < 0 || x + (node.width as i64) > w || y + (node.height as i64) > h {
                continue;
            }
            for &(id, dx, dy) in &node.members {
                placement.push(PlacedChar {
                    id,
                    x: x + dx,
                    y: y + dy,
                });
            }
        }
        debug_assert!(placement.validate(instance).is_ok());
        Ok(finish_plan_2d(instance, placement, started))
    }

    fn anneal(
        &self,
        instance: &Instance,
        nodes: &[PackNode],
        stop: StopFlag<'_>,
    ) -> Vec<Option<(i64, i64)>> {
        if nodes.is_empty() {
            return Vec::new();
        }
        let mut objective = Objective::new(instance, nodes);
        objective.sum_objective = self.config.sum_objective;

        // Initial order: profit density, the same greedy the baselines use.
        // `total_cmp` (not `partial_cmp().unwrap()`): a degenerate node —
        // NaN profit, or zero area making the density 0/0 — must sort to
        // the back deterministically instead of panicking the SA seed.
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by(|&a, &b| {
            let da = nodes[a].profit / (nodes[a].width * nodes[a].height) as f64;
            let db = nodes[b].profit / (nodes[b].width * nodes[b].height) as f64;
            db.total_cmp(&da).then(a.cmp(&b))
        });

        let use_seqpair = match self.config.engine {
            PackEngine::SeqPair => true,
            PackEngine::Skyline => false,
            PackEngine::Auto => nodes.len() <= self.config.seqpair_threshold,
        };

        let scale = *instance.vsb_times().iter().max().unwrap_or(&1) as f64 * 0.05;
        // Cap the per-plateau budget so the largest MCC cases stay within
        // interactive runtimes (the shelf engine's O(n) evaluation already
        // bounds per-move cost; this bounds move count). A plateau makes at
        // least one move, and a huge `moves_factor` saturates into the cap.
        let per_temp = self
            .config
            .moves_factor
            .max(1)
            .saturating_mul(nodes.len().max(1))
            .min(2000);
        let schedule = Schedule::geometric(
            scale.max(1.0),
            self.config.alpha,
            (scale * 1e-5).max(1e-6),
            per_temp,
        );
        let annealer = Annealer::new(schedule, self.config.seed);

        if use_seqpair {
            // Seed the sequence pair from the shelf packing of the greedy
            // order: Γ⁺ = shelves top-to-bottom, Γ⁻ = bottom-to-top.
            let pack = shelf_pack(
                nodes,
                &order,
                instance.stencil().width(),
                instance.stencil().height(),
            );
            let mut pos_seq: Vec<usize> = Vec::with_capacity(nodes.len());
            let mut neg_seq: Vec<usize> = Vec::with_capacity(nodes.len());
            for (members, _) in pack.shelves.iter().rev() {
                pos_seq.extend(members.iter().copied());
            }
            for (members, _) in pack.shelves.iter() {
                neg_seq.extend(members.iter().copied());
            }
            // Unplaced nodes go to the end of both sequences.
            for k in 0..nodes.len() {
                if pack.positions[k].is_none() {
                    pos_seq.push(k);
                    neg_seq.push(k);
                }
            }
            let sp = SequencePair::new(pos_seq, neg_seq);
            let geometry = NodeGeometry::new(nodes);
            let mut state = SeqPairState::new(&objective, &geometry, sp);
            annealer.run_with_stop(&mut state, stop.as_atomic());
            state.positions()
        } else {
            let mut state = OrderState::new(&objective, order);
            annealer.run_with_stop(&mut state, stop.as_atomic());
            state.positions()
        }
    }
}

/// Builds a [`Plan2d`] from a finished placement (shared with baselines).
pub(crate) fn finish_plan_2d(
    instance: &Instance,
    placement: Placement2d,
    started: Instant,
) -> Plan2d {
    let selection = placement.selection(instance.num_chars());
    let region_times = instance.writing_times(&selection);
    let total_time = region_times.iter().copied().max().unwrap_or(0);
    Plan2d {
        placement,
        selection,
        region_times,
        total_time,
        elapsed: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_gen::GenConfig;
    use eblow_model::Selection;

    #[test]
    fn plan_is_valid_and_reduces_writing_time() {
        let inst = eblow_gen::generate(&GenConfig::tiny_2d(11));
        let plan = Eblow2d::default().plan(&inst).unwrap();
        plan.placement.validate(&inst).unwrap();
        let vsb = inst.total_writing_time(&Selection::none(inst.num_chars()));
        assert!(plan.total_time < vsb);
        assert_eq!(plan.total_time, inst.total_writing_time(&plan.selection));
    }

    #[test]
    fn both_engines_produce_valid_plans() {
        let inst = eblow_gen::generate(&GenConfig::tiny_2d(12));
        for engine in [PackEngine::SeqPair, PackEngine::Skyline] {
            let cfg = Eblow2dConfig {
                engine,
                ..Default::default()
            };
            let plan = Eblow2d::new(cfg).plan(&inst).unwrap();
            plan.placement.validate(&inst).unwrap();
            assert!(plan.selection.count() > 0, "{engine:?} placed nothing");
        }
    }

    #[test]
    fn clustering_off_still_works() {
        let inst = eblow_gen::generate(&GenConfig::tiny_2d(13));
        let cfg = Eblow2dConfig {
            clustering: false,
            ..Default::default()
        };
        let plan = Eblow2d::new(cfg).plan(&inst).unwrap();
        plan.placement.validate(&inst).unwrap();
    }

    #[test]
    fn pre_cancelled_plan_is_still_valid() {
        use std::sync::atomic::AtomicBool;
        let inst = eblow_gen::generate(&GenConfig::tiny_2d(15));
        let stop = AtomicBool::new(true);
        let plan = Eblow2d::default()
            .plan_with_stop(&inst, StopFlag::new(&stop))
            .unwrap();
        plan.placement.validate(&inst).unwrap();
        assert_eq!(plan.total_time, inst.total_writing_time(&plan.selection));
    }

    #[test]
    fn anneal_survives_nan_profit_node() {
        // Regression for the NaN-unsafe `partial_cmp().unwrap()` in the
        // SA seed's density sort: a NaN-profit node (e.g. from a
        // degenerate dynamic-profit update) must not panic the pipeline.
        let inst = eblow_gen::generate(&GenConfig::tiny_2d(16));
        let profits = vec![f64::NAN; inst.num_chars()];
        let nodes: Vec<PackNode> = (0..inst.num_chars())
            .map(|i| PackNode::single(&inst, eblow_model::CharId::from(i), profits[i]))
            .collect();
        let positions = Eblow2d::default().anneal(&inst, &nodes, StopFlag::NEVER);
        assert_eq!(positions.len(), nodes.len());
    }

    /// `moves_factor: 0` used to panic in `Schedule::geometric` (no move
    /// per plateau), and `usize::MAX` overflowed `moves_factor × nodes`
    /// (a panic in debug builds, a silent wrap in release builds).
    #[test]
    fn extreme_moves_factors_still_plan_validly() {
        let inst = eblow_gen::generate(&GenConfig::tiny_2d(17));
        for moves_factor in [0, usize::MAX] {
            let plan = Eblow2d::new(Eblow2dConfig {
                moves_factor,
                ..Default::default()
            })
            .plan(&inst)
            .unwrap();
            plan.placement.validate(&inst).unwrap();
            assert_eq!(plan.total_time, inst.total_writing_time(&plan.selection));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let inst = eblow_gen::generate(&GenConfig::tiny_2d(14));
        let a = Eblow2d::default().plan(&inst).unwrap();
        let b = Eblow2d::default().plan(&inst).unwrap();
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.selection, b.selection);
    }
}
