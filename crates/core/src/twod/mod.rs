//! The E-BLOW 2DOSP pipeline (paper §4, Fig. 9).
//!
//! ```text
//! characters ──► pre-filter ──► KD-tree clustering ──► SA packing ──► 2D stencil
//! ```
//!
//! The SA stage runs on one of two engines, picked by node count: the
//! faithful sequence-pair floorplanner (`O(n²)` per move, as in
//! \[24\]/Parquet) up to 400 nodes, and the scalable overlap-aware shelf
//! engine for the larger MCC cases. A shelf-engine move
//! costs what the swap can change: it re-packs from the shelf holding the
//! earlier swapped position until its shelves realign with the packing
//! before the move or the stencil is full, and a rejected move is undone
//! without packing at all.

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
use eblow_trace as trace;
use sa::Objective;
use std::time::Instant;

/// SA proposals of every 2D anneal (counter `anneal.moves`).
static ANNEAL_MOVES: trace::Counter = trace::Counter::new("anneal.moves");
/// Nodes the shelf engine's re-packs stepped (counter `anneal.shelf_steps`);
/// `anneal.shelf_steps ÷ anneal.moves` is the mean re-pack length.
static ANNEAL_SHELF_STEPS: trace::Counter = trace::Counter::new("anneal.shelf_steps");

/// The largest node count annealed on the sequence-pair engine; larger
/// node sets anneal on the shelf engine.
const SEQPAIR_MAX_NODES: usize = 400;

/// SA cooling factor per plateau.
const COOLING: f64 = 0.8;

/// Configuration of the 2D pipeline.
#[derive(Debug, Clone)]
pub struct Eblow2dConfig {
    /// Pre-filter capacity factor (candidates kept ≈ factor × capacity).
    pub prefilter_factor: f64,
    /// Enable Algorithm 4 clustering.
    pub clustering: bool,
    /// Similarity tolerance of rule (8) (paper: 0.2).
    pub cluster_bound: f64,
    /// SA proposals per temperature = `moves_factor × nodes`.
    pub moves_factor: usize,
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
            moves_factor: 2,
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
    /// Returns [`ModelError::StencilTooLarge`] for a row-structured
    /// instance with a stencil side above
    /// [`Stencil::MAX_2D_SIDE`](eblow_model::Stencil::MAX_2D_SIDE); no
    /// free-form stencil has one. Smaller row-structured instances are
    /// planned as free-form 2D.
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
        instance.stencil().check_2d()?;
        let nodes = self.pack_nodes(instance, stop);
        let positions = self.anneal(instance, &nodes, stop);
        let placement = place(instance, &nodes, &positions);
        debug_assert!(placement.validate(instance).is_ok());
        Ok(finish_plan_2d(instance, placement, started))
    }

    /// Stages 1–2: the pre-filter on the initial dynamic profits at the
    /// all-VSB point (Eqn. 6), then clustering when enabled. Clustering
    /// polls `stop` between merge rounds, so a deadline raised during
    /// clustering of a huge instance is honored before SA ever starts.
    fn pack_nodes(&self, instance: &Instance, stop: StopFlag<'_>) -> Vec<PackNode> {
        let profits = RegionTimes::new(instance).profits(instance);
        let kept = prefilter(instance, &profits, self.config.prefilter_factor);
        if self.config.clustering {
            cluster_with_stop(instance, &kept, &profits, self.config.cluster_bound, stop)
        } else {
            kept.iter()
                .map(|&i| PackNode::single(instance, eblow_model::CharId::from(i), profits[i]))
                .collect()
        }
    }

    /// Stage 3 on the engine the node count picks: the sequence pair up to
    /// [`SEQPAIR_MAX_NODES`] nodes, the shelf engine above.
    fn anneal(
        &self,
        instance: &Instance,
        nodes: &[PackNode],
        stop: StopFlag<'_>,
    ) -> Vec<Option<(i64, i64)>> {
        self.anneal_on(instance, nodes, nodes.len() <= SEQPAIR_MAX_NODES, stop)
    }

    /// Anneals `nodes` on the sequence-pair engine (`seqpair`) or the shelf
    /// engine, returning each node's final position (`None`: unplaced).
    fn anneal_on(
        &self,
        instance: &Instance,
        nodes: &[PackNode],
        seqpair: bool,
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
        let schedule =
            Schedule::geometric(scale.max(1.0), COOLING, (scale * 1e-5).max(1e-6), per_temp);
        let annealer = Annealer::new(schedule, self.config.seed);

        let (positions, stats) = if seqpair {
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
            let stats = annealer.run_with_stop(&mut state, stop.as_atomic());
            (state.positions(), stats)
        } else {
            let mut state = OrderState::new(&objective, order);
            let stats = annealer.run_with_stop(&mut state, stop.as_atomic());
            (state.positions(), stats)
        };
        ANNEAL_MOVES.add(stats.proposed as u64);
        ANNEAL_SHELF_STEPS.add(objective.shelf_steps.get());
        positions
    }
}

/// The character-level placement of the annealed nodes that lie inside
/// the outline.
fn place(instance: &Instance, nodes: &[PackNode], positions: &[Option<(i64, i64)>]) -> Placement2d {
    let w = instance.stencil().width() as i64;
    let h = instance.stencil().height() as i64;
    let mut placement = Placement2d::new();
    for (node, pos) in nodes.iter().zip(positions) {
        let Some((x, y)) = *pos else { continue };
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
    placement
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

    /// Both engines anneal the same nodes into valid placements, in the
    /// same ballpark of writing time (they are different heuristics).
    #[test]
    fn engines_agree_on_validity_and_rough_quality() {
        let inst = eblow_gen::generate(&GenConfig::tiny_2d(9));
        let planner = Eblow2d::default();
        let nodes = planner.pack_nodes(&inst, StopFlag::NEVER);
        let [sp, shelf] = [true, false].map(|seqpair| {
            let positions = planner.anneal_on(&inst, &nodes, seqpair, StopFlag::NEVER);
            let placement = place(&inst, &nodes, &positions);
            placement.validate(&inst).unwrap();
            assert!(!placement.is_empty(), "seqpair={seqpair} placed nothing");
            placement.total_writing_time(&inst).max(1) as f64
        });
        assert!(
            sp / shelf < 1.6 && shelf / sp < 1.6,
            "engines diverge: {sp} vs {shelf}"
        );
    }

    /// The node count picks the engine: the sequence pair gives every node
    /// a position, while the shelf rule leaves what does not fit unplaced.
    /// 100 nodes of 10 × 10 fill the 100 × 100 stencil, so the shelf
    /// engine leaves some of 401 unplaced.
    #[test]
    fn sequence_pair_anneals_up_to_400_nodes() {
        use eblow_model::{Character, Stencil};
        use std::sync::atomic::AtomicBool;
        let n = SEQPAIR_MAX_NODES + 1;
        let chars = vec![Character::new(10, 10, [0; 4], 2).unwrap(); n];
        let inst = Instance::new(Stencil::new(100, 100).unwrap(), chars, vec![vec![1]; n]).unwrap();
        let nodes: Vec<PackNode> = (0..n)
            .map(|i| PackNode::single(&inst, eblow_model::CharId::from(i), 1.0))
            .collect();
        let stop = AtomicBool::new(true);
        let planner = Eblow2d::default();
        let seqpair = planner.anneal(&inst, &nodes[..n - 1], StopFlag::new(&stop));
        assert!(seqpair.iter().all(Option::is_some));
        let shelf = planner.anneal(&inst, &nodes, StopFlag::new(&stop));
        assert!(shelf.iter().any(Option::is_none));
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
