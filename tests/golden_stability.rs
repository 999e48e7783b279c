//! Golden plan-stability gates for the columnar instance layout, the
//! successive-rounding loop, and the single-threaded planners.
//!
//! The 1T constants below were captured before the slab+CSR layout swap
//! and the hot-path rewrite; the 1M-1 constants before the intra-strategy
//! thread pool was removed; the 2D constants before the shelf engine's
//! incremental evaluation; the \[24\] heuristic, E-BLOW-0, 1M-5 and race
//! constants before the race shared one rounding between E-BLOW-1 and
//! E-BLOW-0; the 1M-5 E-BLOW constant before row admission refused by a
//! sorted-blank bound; the 1H-1 row and \[24\] heuristic constants before
//! row admission remembered its refusals by shape. They pin two guarantees
//! that production callers rely on:
//!
//! * **Digests** — `InstanceDigest` keys plan caches and persisted
//!   artifacts; a layout change must not move a single bit.
//! * **Planner outputs** — the full `Eblow1d` pipeline (rounding, fast ILP
//!   convergence, refinement, post stages), its E-BLOW-0 ablation, the
//!   \[24\] and row heuristics, and the default race must produce
//!   byte-identical placements, and so must the annealed 2D planners
//!   (`eblow2d`, `sa2d`), so the Tables 3/4 reproduction and cached plans
//!   are unaffected.

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
/// The full E-BLOW pipeline on 1M-5 (4000 candidates), captured before row
/// admission refused by a sorted-blank bound and resumed its width DP from
/// checkpointed frontiers.
const GOLDEN_1M5_EBLOW: (u64, u64) = (11610, 0x854fa95ddf699090);

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
    let inst = eblow::gen::benchmark(Family::M1(5));
    let eblow = Eblow1d::default().plan(&inst).unwrap();
    assert_eq!(
        (eblow.total_time, plan_fingerprint(&eblow)),
        GOLDEN_1M5_EBLOW,
        "1M-5 E-BLOW plan changed byte-for-byte"
    );
}

/// Stable fingerprint of a 2D plan: placed ids and coordinates in
/// placement order, then the region times and the total time.
fn plan_fingerprint_2d(plan: &eblow::planner::Plan2d) -> u64 {
    let mut h = Fnv64::new();
    h.write((plan.placement.len() as u64).to_le_bytes());
    for pc in plan.placement.placed() {
        h.write((pc.id.index() as u64).to_le_bytes());
        h.write(pc.x.to_le_bytes());
        h.write(pc.y.to_le_bytes());
    }
    for &t in &plan.region_times {
        h.write(t.to_le_bytes());
    }
    h.write(plan.total_time.to_le_bytes());
    h.finish()
}

/// `(total writing time, plan fingerprint)` of `eblow2d` and of the \[24\]
/// baseline `sa2d` at unlimited budget. 2M-4 anneals on the shelf engine
/// (`eblow2d` with the max objective, `sa2d` with the sum objective);
/// `tiny_2d(1)` anneals on the sequence-pair engine. Both planners are
/// deterministic under their seeds, so any change to packing, energy or
/// the move/undo protocol that alters an SA decision moves these.
const GOLDEN_2M4_EBLOW: (u64, u64) = (3632, 0xe8f23983abfe46a3);
const GOLDEN_2M4_SA: (u64, u64) = (4923, 0x59a4c94a5df07145);
const GOLDEN_TINY2D_EBLOW: (u64, u64) = (323, 0x41691aa953bd159b);
const GOLDEN_TINY2D_SA: (u64, u64) = (323, 0xcf5642d15d0cf998);

#[test]
fn annealed_2d_plans_are_byte_stable() {
    use eblow::planner::baselines::sa_2d;
    use eblow::planner::twod::Eblow2d;
    let cases = [
        (
            "2M-4",
            eblow::gen::benchmark(Family::M2(4)),
            GOLDEN_2M4_EBLOW,
            GOLDEN_2M4_SA,
        ),
        (
            "tiny_2d(1)",
            eblow::gen::generate(&eblow::gen::GenConfig::tiny_2d(1)),
            GOLDEN_TINY2D_EBLOW,
            GOLDEN_TINY2D_SA,
        ),
    ];
    for (name, inst, eblow_pin, sa_pin) in cases {
        let eblow = Eblow2d::default().plan(&inst).unwrap();
        let sa = sa_2d(&inst).unwrap();
        assert_eq!(
            (eblow.total_time, plan_fingerprint_2d(&eblow)),
            eblow_pin,
            "{name} eblow2d plan changed byte-for-byte"
        );
        assert_eq!(
            (sa.total_time, plan_fingerprint_2d(&sa)),
            sa_pin,
            "{name} sa2d plan changed byte-for-byte"
        );
    }
}

/// `(total writing time, plan fingerprint)` at unlimited budget of the
/// \[24\] heuristic on 1M-1 and 1M-5, of the E-BLOW-0 pipeline on the same
/// two cases, and of the row heuristic on 1M-5. Captured before the 2-opt
/// reversal was priced incrementally, the row heuristic's top-up stopped
/// re-measuring rows, and the race's E-BLOW member started finishing one
/// rounding both ways.
const GOLDEN_1M1_HEURISTIC: (u64, u64) = (3534, 0x1957d47d15770c0b);
const GOLDEN_1M5_HEURISTIC: (u64, u64) = (13020, 0x698f2d30d0b555d6);
const GOLDEN_1M1_EBLOW0: (u64, u64) = (2819, 0x189b4a4ffa40366b);
const GOLDEN_1M5_EBLOW0: (u64, u64) = (11610, 0x9394d9151ef321b9);
const GOLDEN_1M5_ROWHEUR: (u64, u64) = (12000, 0xe72c5a0104e3699b);

#[test]
fn baseline_and_ablation_plans_are_byte_stable() {
    use eblow::planner::baselines::{heuristic_1d, row_heuristic_1d};
    use eblow::planner::oned::Eblow1dConfig;
    let eblow0 = Eblow1d::new(Eblow1dConfig::eblow0());
    for (k, heuristic_pin, eblow0_pin) in [
        (1, GOLDEN_1M1_HEURISTIC, GOLDEN_1M1_EBLOW0),
        (5, GOLDEN_1M5_HEURISTIC, GOLDEN_1M5_EBLOW0),
    ] {
        let inst = eblow::gen::benchmark(Family::M1(k));
        let heuristic = heuristic_1d(&inst).unwrap();
        assert_eq!(
            (heuristic.total_time, plan_fingerprint(&heuristic)),
            heuristic_pin,
            "1M-{k} heuristic1d plan changed byte-for-byte"
        );
        let ablation = eblow0.plan(&inst).unwrap();
        assert_eq!(
            (ablation.total_time, plan_fingerprint(&ablation)),
            eblow0_pin,
            "1M-{k} E-BLOW-0 plan changed byte-for-byte"
        );
    }
    let inst = eblow::gen::benchmark(Family::M1(5));
    let rowheur = row_heuristic_1d(&inst).unwrap();
    assert_eq!(
        (rowheur.total_time, plan_fingerprint(&rowheur)),
        GOLDEN_1M5_ROWHEUR,
        "1M-5 row-heuristic plan changed byte-for-byte"
    );
}

/// `(total writing time, plan fingerprint)` at unlimited budget of the row
/// heuristic and the \[24\] heuristic on 1H-1 (12 000 candidates), where
/// nearly every row-admission probe refuses. Captured before row admission
/// remembered its refusals by shape and before `heuristic1d`'s top-up kept
/// each row's width.
const GOLDEN_1H1_ROWHEUR: (u64, u64) = (52174, 0x1ad0e7c1008d162b);
const GOLDEN_1H1_HEURISTIC: (u64, u64) = (54287, 0x75f78b95cc718a33);

#[test]
fn huge_scale_baseline_plans_are_byte_stable() {
    use eblow::planner::baselines::{heuristic_1d, row_heuristic_1d};
    let inst = eblow::gen::benchmark(Family::H1(1));
    let rowheur = row_heuristic_1d(&inst).unwrap();
    assert_eq!(
        (rowheur.total_time, plan_fingerprint(&rowheur)),
        GOLDEN_1H1_ROWHEUR,
        "1H-1 row-heuristic plan changed byte-for-byte"
    );
    let heuristic = heuristic_1d(&inst).unwrap();
    assert_eq!(
        (heuristic.total_time, plan_fingerprint(&heuristic)),
        GOLDEN_1H1_HEURISTIC,
        "1H-1 heuristic1d plan changed byte-for-byte"
    );
}

/// `(total writing time, plan fingerprint)` at unlimited budget of the full
/// E-BLOW pipeline on 1H-1, where row admission decides the most probes
/// per plan. The E-BLOW-0 pipeline places the same plan there. Captured
/// before row admission refused on the exact end-insertion completion.
const GOLDEN_1H1_EBLOW: (u64, u64) = (45144, 0x59834fd80d743b16);

#[test]
fn huge_scale_eblow_plan_is_byte_stable() {
    let inst = eblow::gen::benchmark(Family::H1(1));
    let eblow = Eblow1d::default().plan(&inst).unwrap();
    assert_eq!(
        (eblow.total_time, plan_fingerprint(&eblow)),
        GOLDEN_1H1_EBLOW,
        "1H-1 E-BLOW plan changed byte-for-byte"
    );
}

/// `(seed, total writing time, plan fingerprint)` of the default race's
/// best plan on the `tiny_1d` seeds where one member produced the best
/// plan alone when they were captured. No deadline, so ties break by
/// portfolio order and the race is deterministic.
const GOLDEN_TINY1D_RACE: [(u64, u64, u64); 5] = [
    (1, 372, 0xc540efaad58ac8e6),
    (2, 482, 0x76eedf178a942088),
    (7, 296, 0x91a1a4a175e4c02b),
    (70, 585, 0xd1480e0deb2ffdca),
    (89, 578, 0xfe9772d55c2f9c7a),
];

#[test]
fn default_race_plans_are_byte_stable() {
    use eblow::engine::{PlanDetail, Portfolio, PortfolioConfig};
    let portfolio = Portfolio::all_builtin();
    for (seed, total, fp) in GOLDEN_TINY1D_RACE {
        let inst = eblow::gen::generate(&eblow::gen::GenConfig::tiny_1d(seed));
        let outcome = portfolio.run(&inst, &PortfolioConfig::default());
        let best = outcome.best.expect("the race plans");
        let PlanDetail::OneD(plan) = &best.detail else {
            panic!("tiny_1d({seed}) raced to a 2D plan");
        };
        assert_eq!(
            (plan.total_time, plan_fingerprint(plan)),
            (total, fp),
            "tiny_1d({seed}) race plan changed byte-for-byte"
        );
    }
}
