//! Golden plan-stability gates for the columnar instance layout, the
//! warm-started rounding loop, and the single-threaded planners.
//!
//! The 1T constants below were captured before the slab+CSR layout swap
//! and the hot-path rewrite; the 1M-1 constants before the intra-strategy
//! thread pool was removed. They pin two guarantees that production
//! callers rely on:
//!
//! * **Digests** — `InstanceDigest` keys plan caches and persisted
//!   artifacts; a layout change must not move a single bit.
//! * **Planner outputs** — the full `Eblow1d` pipeline (rounding, fast ILP
//!   convergence, refinement, post stages) and the row heuristic must
//!   produce byte-identical placements, so the Tables 3/4 reproduction
//!   and cached plans are unaffected.

use eblow::gen::Family;
use eblow::model::Fnv64;
use eblow::planner::oned::Eblow1d;

/// `(digest hex, total writing time, chars on stencil, plan fingerprint)`
/// captured pre-refactor for 1T-1..5.
const GOLDEN_1T: [(&str, u64, usize, u64); 5] = [
    (
        "6169796e6d1cf2c25bd7a63352dc34a2",
        18,
        6,
        0x588fd9adf47457a2,
    ),
    (
        "47f1c9337b4976c26644dbb0fb1bfb3d",
        31,
        6,
        0x49757879a7b8dbc8,
    ),
    (
        "b20d520eff53b8c246ed3876af950a5a",
        38,
        6,
        0x00ba38744378d88b,
    ),
    (
        "9628cb04aa15fac27eee1e755c696932",
        42,
        6,
        0xb02d20f162aeae68,
    ),
    (
        "6ac0a6d214367ec21b4bed33ed66e48f",
        60,
        6,
        0x80821ae837397568,
    ),
];

/// Stable fingerprint of a 1D plan: row orders, region times, total time.
fn plan_fingerprint(plan: &eblow::planner::Plan1d) -> u64 {
    let mut h = Fnv64::new();
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

#[test]
fn reference_digests_and_planner_outputs_are_byte_stable() {
    let tiny = eblow::gen::generate(&eblow::gen::GenConfig::tiny_1d(1));
    assert_eq!(tiny.digest().to_hex(), "09fab18e37dc38c28fd4082a14d3a1fe");
    for (k, &(digest, total, chars, fp)) in GOLDEN_1T.iter().enumerate() {
        let inst = eblow::gen::benchmark(Family::T1(k as u8 + 1));
        assert_eq!(
            inst.digest().to_hex(),
            digest,
            "1T-{} digest moved — cache keys are broken",
            k + 1
        );
        let plan = Eblow1d::default().plan(&inst).unwrap();
        assert_eq!(plan.total_time, total, "1T-{} writing time moved", k + 1);
        assert_eq!(
            plan.selection.count(),
            chars,
            "1T-{} char count moved",
            k + 1
        );
        assert_eq!(
            plan_fingerprint(&plan),
            fp,
            "1T-{} placement changed byte-for-byte",
            k + 1
        );
    }
}

/// `(total writing time, plan fingerprint)` of the full E-BLOW pipeline and
/// of the row heuristic on 1M-1 (1000 candidates), the MCC scale at which
/// per-candidate scoring and row-fill probes do real work.
const GOLDEN_1M1_EBLOW: (u64, u64) = (2819, 0x189b4a4ffa40366b);
const GOLDEN_1M1_ROWHEUR: (u64, u64) = (3976, 0x0ec78de8f5c2f02c);

#[test]
fn mcc_scale_plans_are_byte_stable() {
    let inst = eblow::gen::benchmark(Family::M1(1));
    let eblow = Eblow1d::default().plan(&inst).unwrap();
    let rowheur = eblow::planner::baselines::row_heuristic_1d(&inst).unwrap();
    assert_eq!(
        (eblow.total_time, plan_fingerprint(&eblow)),
        GOLDEN_1M1_EBLOW,
        "1M-1 E-BLOW plan changed byte-for-byte"
    );
    assert_eq!(
        (rowheur.total_time, plan_fingerprint(&rowheur)),
        GOLDEN_1M1_ROWHEUR,
        "1M-1 row-heuristic plan changed byte-for-byte"
    );
}
