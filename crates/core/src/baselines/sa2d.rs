//! The floorplanning framework of \[24\] for 2DOSP: simulated-annealing
//! packing of **every** candidate, with no pre-filter and no clustering.

use crate::cancel::StopFlag;
use crate::twod::{Eblow2d, Eblow2dConfig};
use crate::Plan2d;
use eblow_model::{Instance, ModelError};

/// Plans a 2D stencil with the \[24\]-style SA floorplanner.
///
/// Implementation note: this deliberately reuses E-BLOW's SA machinery with
/// the pre-filter and clustering *disabled* (`prefilter_factor` set high
/// enough to keep every candidate), so the runtime gap against
/// [`crate::twod::Eblow2d`] isolates those two techniques. The paper
/// reports a ~28× gap in Table 4; `eblow-eval table4` measures about 0.8×
/// (average CPU 0.06–0.08 s vs 0.08–0.11 s over three runs on a 2-core
/// VM), and on 2M-5..8 this baseline is the faster of the two. Above 400
/// nodes, which covers every Table 4 case, this baseline anneals on the
/// shelf engine just as E-BLOW does, so it never pays \[24\]'s `O(n²)`
/// sequence-pair evaluation per move, where the paper's gap comes from;
/// and a shelf-engine move re-packs only until it realigns with the old
/// packing, which cuts the longer re-packs of this unclustered anneal
/// most.
///
/// # Errors
///
/// As [`Eblow2d::plan`].
pub fn sa_2d(instance: &Instance) -> Result<Plan2d, ModelError> {
    sa_2d_with_stop(instance, StopFlag::NEVER)
}

/// Like [`sa_2d`], but polls `stop` inside the SA loop (the dominant cost
/// of this baseline) and returns the best incumbent packing on cancellation.
pub fn sa_2d_with_stop(instance: &Instance, stop: StopFlag<'_>) -> Result<Plan2d, ModelError> {
    let planner = Eblow2d::new(Eblow2dConfig {
        prefilter_factor: f64::MAX, // keep everything
        clustering: false,
        // [24] needs a larger budget than E-BLOW because its node count is
        // the full candidate set.
        moves_factor: 4,
        seed: 0x24,
        sum_objective: true, // [24] optimizes total, not maximal, time
        ..Default::default()
    });
    planner.plan_with_stop(instance, stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_gen::GenConfig;

    #[test]
    fn sa_2d_is_valid() {
        let inst = eblow_gen::generate(&GenConfig::tiny_2d(81));
        let plan = sa_2d(&inst).unwrap();
        plan.placement.validate(&inst).unwrap();
        assert!(plan.selection.count() > 0);
    }

    #[test]
    fn clustering_makes_eblow_no_slower_to_worse() {
        // E-BLOW (clustered) should produce comparable-or-better writing
        // time; runtime comparison is exercised in the benches.
        let inst = eblow_gen::generate(&GenConfig::tiny_2d(82));
        let base = sa_2d(&inst).unwrap();
        let eblow = crate::twod::Eblow2d::default().plan(&inst).unwrap();
        assert!(
            (eblow.total_time as f64) <= base.total_time as f64 * 1.3 + 10.0,
            "eblow {} vs sa24 {}",
            eblow.total_time,
            base.total_time
        );
    }
}
