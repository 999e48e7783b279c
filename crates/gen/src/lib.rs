//! Synthetic benchmark generation for the E-BLOW evaluation.
//!
//! The benchmark suite of the paper (from \[24\]) is not publicly available,
//! so this crate regenerates instances from the parameters the paper states
//! (§5): candidate counts 1000/4000, 10 CPs for the MCC cases, stencils of
//! 1000×1000 µm and 2000×2000 µm, "size and blank width similar to \[24\]",
//! and for Table 5 tiny instances with 40×40 µm characters on a single row
//! of length 200. Everything is produced from fixed seeds, so tables
//! regenerate identically run over run.
//!
//! Families (mirroring the paper's names):
//!
//! * `1D-1..4` — 1DOSP, 1000 candidates, 1 CP ([`Family::D1`])
//! * `1M-1..8` — 1DOSP for MCC, 10 CPs, 1000/4000 candidates ([`Family::M1`])
//! * `2D-1..4` — 2DOSP, 1000 candidates, 1 CP ([`Family::D2`])
//! * `2M-1..8` — 2DOSP for MCC, 10 CPs, 1000/4000 candidates ([`Family::M2`])
//! * `1T-1..5`, `2T-1..4` — tiny exact-ILP instances of Table 5
//!   ([`Family::T1`], [`Family::T2`])
//!
//! Note: Table 4 of the paper lists "CP# = 1" for 2M-1..4 while §5's text
//! says "character projection (CP) number are all set to 10" for every
//! 1M/2M benchmark; we follow the text (the table column appears to be a
//! typo) and give all `2M` cases 10 regions.
//!
//! # Example
//!
//! ```
//! use eblow_gen::{Family, benchmark};
//!
//! let inst = benchmark(Family::D1(1));
//! assert_eq!(inst.num_chars(), 1000);
//! assert_eq!(inst.num_regions(), 1);
//! assert_eq!(inst.num_rows().unwrap(), 25);
//! // Deterministic: same family, same instance.
//! assert_eq!(inst, benchmark(Family::D1(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eblow_model::{Character, Instance, Stencil};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Inclusive integer range helper.
fn uniform(rng: &mut StdRng, lo: u64, hi: u64) -> u64 {
    rng.random_range(lo..=hi)
}

/// Heavy-tailed popularity draw (bounded Pareto-like): most characters
/// repeat a handful of times, a few repeat very often — the cell-usage
/// skew that makes stencil selection matter (without it every planner
/// performs alike and the paper's 25-40% gaps cannot appear).
fn popularity(rng: &mut StdRng, max: u64) -> u64 {
    let u: f64 = rng.random();
    let raw = (1.0 - u).powf(-0.85); // Pareto tail, alpha ≈ 1.18
    ((raw - 1.0) * 4.0 + 1.0).min(max as f64).round() as u64
}

/// Parameters for custom instance generation.
///
/// The named [`Family`] presets are built on top of this; library users can
/// generate their own workloads by filling the fields directly.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of character candidates.
    pub n_chars: usize,
    /// Number of wafer regions (CPs).
    pub n_regions: usize,
    /// Stencil width in µm.
    pub stencil_w: u64,
    /// Stencil height in µm.
    pub stencil_h: u64,
    /// `Some(height)` for row-structured (1D) stencils.
    pub row_height: Option<u64>,
    /// Character width range (inclusive).
    pub width: (u64, u64),
    /// Character height range (ignored for 1D: height = row height).
    pub height: (u64, u64),
    /// Per-side blank range (inclusive).
    pub blank: (u64, u64),
    /// If true, left = right and bottom = top blanks (S-Blank instances).
    pub symmetric_blanks: bool,
    /// VSB shot count range `n_i` (inclusive, ≥ 1).
    pub shots: (u64, u64),
    /// Repeat count range `t_ic` (inclusive; 0 allowed for sparse regions).
    pub repeats: (u64, u64),
    /// RNG seed.
    pub seed: u64,
}

impl GenConfig {
    /// A small 1D smoke-test configuration (fast to solve in unit tests).
    pub fn tiny_1d(seed: u64) -> Self {
        GenConfig {
            n_chars: 60,
            n_regions: 3,
            stencil_w: 300,
            stencil_h: 120,
            row_height: Some(40),
            width: (20, 45),
            height: (40, 40),
            blank: (2, 10),
            symmetric_blanks: false,
            shots: (2, 60),
            repeats: (0, 10),
            seed,
        }
    }

    /// A huge multi-region 1D workload (12 000 candidates, 10 CPs) — the
    /// scale the sharded `shard1d` composite was built for. Far beyond the
    /// paper's benchmark suite, but the same character statistics.
    pub fn huge_1d(seed: u64) -> Self {
        GenConfig {
            n_chars: 12_000,
            n_regions: 10,
            stencil_w: 2500,
            stencil_h: 2000,
            row_height: Some(40),
            width: (24, 48),
            height: (40, 40),
            blank: (2, 10),
            symmetric_blanks: false,
            shots: (2, 60),
            repeats: (0, 50),
            seed,
        }
    }

    /// A huge multi-region 2D workload (10 000 candidates, 10 CPs): the
    /// largest free-form race of the bench trajectory.
    pub fn huge_2d(seed: u64) -> Self {
        GenConfig {
            n_chars: 10_000,
            n_regions: 10,
            stencil_w: 2500,
            stencil_h: 2500,
            row_height: None,
            width: (24, 48),
            height: (25, 55),
            blank: (2, 10),
            symmetric_blanks: false,
            shots: (2, 60),
            repeats: (0, 50),
            seed,
        }
    }

    /// A small 2D smoke-test configuration.
    pub fn tiny_2d(seed: u64) -> Self {
        GenConfig {
            n_chars: 60,
            n_regions: 3,
            stencil_w: 250,
            stencil_h: 250,
            row_height: None,
            width: (20, 45),
            height: (20, 45),
            blank: (2, 10),
            symmetric_blanks: false,
            shots: (2, 60),
            repeats: (0, 10),
            seed,
        }
    }
}

/// Generates an instance from a configuration.
///
/// # Panics
///
/// Panics if the configuration ranges are inverted or produce invalid
/// characters (blanks exceeding the size), which indicates a configuration
/// bug rather than a runtime condition.
pub fn generate(cfg: &GenConfig) -> Instance {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Wafer regions hold different layout areas: some regions carry far
    // more pattern than others. This heterogeneity is what makes the MCC
    // objective (min-max over regions) genuinely different from the
    // single-CP objective (min total) — without it every balanced and
    // unbalanced planner would coincide.
    let region_scale: Vec<f64> = (0..cfg.n_regions)
        .map(|_| {
            let u: f64 = rng.random();
            0.4 + 1.8 * u * u
        })
        .collect();
    let stencil = match cfg.row_height {
        Some(rh) => Stencil::with_rows(cfg.stencil_w, cfg.stencil_h, rh)
            .expect("invalid stencil configuration"),
        None => Stencil::new(cfg.stencil_w, cfg.stencil_h).expect("invalid stencil configuration"),
    };
    let mut chars = Vec::with_capacity(cfg.n_chars);
    let mut repeats = Vec::with_capacity(cfg.n_chars * cfg.n_regions.max(1));
    for _ in 0..cfg.n_chars {
        let width = uniform(&mut rng, cfg.width.0, cfg.width.1);
        let height = match cfg.row_height {
            Some(rh) => rh,
            None => uniform(&mut rng, cfg.height.0, cfg.height.1),
        };
        // Blanks must leave a positive pattern body.
        let max_h_blank = (width / 2).saturating_sub(1).max(1).min(cfg.blank.1);
        let max_v_blank = (height / 2).saturating_sub(1).max(1).min(cfg.blank.1);
        let lo_h = cfg.blank.0.min(max_h_blank);
        let lo_v = cfg.blank.0.min(max_v_blank);
        let (bl, br) = if cfg.symmetric_blanks {
            let b = uniform(&mut rng, lo_h, max_h_blank);
            (b, b)
        } else {
            (
                uniform(&mut rng, lo_h, max_h_blank),
                uniform(&mut rng, lo_h, max_h_blank),
            )
        };
        let (bb, bt) = if cfg.symmetric_blanks {
            let b = uniform(&mut rng, lo_v, max_v_blank);
            (b, b)
        } else {
            (
                uniform(&mut rng, lo_v, max_v_blank),
                uniform(&mut rng, lo_v, max_v_blank),
            )
        };
        // VSB shot count: proportional to the pattern body area times a
        // heavy-tailed complexity factor, clamped to the configured range.
        // Complex characters are the wide ones — exactly the characters a
        // weak packer fails to fit, which is what separates the planners.
        let pattern_area = (width - bl - br).max(1) * (height - bb - bt).max(1);
        let u: f64 = rng.random();
        let complexity = 0.25 + 4.0 * u.powi(4);
        let span = (cfg.shots.1.max(1) - cfg.shots.0.max(1)) as f64;
        let area_scale =
            (pattern_area as f64 / ((cfg.width.1 * cfg.height.1.max(40)) as f64).max(1.0)).min(1.0);
        let shots = (cfg.shots.0.max(1) as f64 + span * area_scale * complexity)
            .round()
            .clamp(1.0, 4.0 * cfg.shots.1.max(1) as f64) as u64;
        chars.push(
            Character::new(width, height, [bl, br, bb, bt], shots)
                .expect("generator produced an invalid character"),
        );
        // Repeats: a heavy-tailed popularity concentrated on a "home"
        // region with spill-over to a couple of neighbours (MCC regions
        // hold different layout areas), or spread uniformly for P = 1.
        let pop = popularity(&mut rng, cfg.repeats.1.max(1)).max(cfg.repeats.0.max(1));
        if cfg.n_regions == 1 {
            repeats.push(pop);
        } else {
            let home = rng.random_range(0..cfg.n_regions);
            let spread = 1 + rng.random_range(0..2usize);
            repeats.extend((0..cfg.n_regions).map(|c| {
                let d = (c + cfg.n_regions - home) % cfg.n_regions;
                let base = if d == 0 {
                    pop
                } else if d <= spread {
                    pop / (2 * d as u64 + 1)
                } else {
                    0
                };
                (base as f64 * region_scale[c]).round() as u64
            }));
        }
    }
    Instance::from_flat(stencil, chars, repeats, cfg.n_regions.max(1))
        .expect("generator produced an invalid instance")
}

/// The named benchmark families of the paper's evaluation (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// `1D-k`, k ∈ 1..=4 — 1DOSP, 1000 candidates, single CP.
    D1(u8),
    /// `1M-k`, k ∈ 1..=8 — 1DOSP MCC: k ≤ 4 → 1000 candidates on a
    /// 1000×1000 stencil; k ≥ 5 → 4000 candidates on 2000×2000. 10 CPs.
    M1(u8),
    /// `2D-k`, k ∈ 1..=4 — 2DOSP, 1000 candidates, single CP.
    D2(u8),
    /// `2M-k`, k ∈ 1..=8 — 2DOSP MCC (10 CPs; see crate docs on the paper's
    /// CP column).
    M2(u8),
    /// `1T-k`, k ∈ 1..=5 — tiny 1DOSP exact-ILP cases (8..14 candidates,
    /// one row of length 200, 40×40 characters, symmetric blanks).
    T1(u8),
    /// `2T-k`, k ∈ 1..=4 — tiny 2DOSP exact-ILP cases (6..12 candidates).
    T2(u8),
    /// `1H-k`, k ∈ 1..=2 — huge 1DOSP MCC cases (12 000 candidates,
    /// 10 CPs); not part of the paper's suite.
    H1(u8),
    /// `2H-k`, k ∈ 1..=2 — huge 2DOSP MCC cases (10 000 candidates,
    /// 10 CPs); not part of the paper's suite.
    H2(u8),
}

impl Family {
    /// The paper's name for this benchmark, e.g. `"1M-3"`.
    pub fn name(&self) -> String {
        match self {
            Family::D1(k) => format!("1D-{k}"),
            Family::M1(k) => format!("1M-{k}"),
            Family::D2(k) => format!("2D-{k}"),
            Family::M2(k) => format!("2M-{k}"),
            Family::T1(k) => format!("1T-{k}"),
            Family::T2(k) => format!("2T-{k}"),
            Family::H1(k) => format!("1H-{k}"),
            Family::H2(k) => format!("2H-{k}"),
        }
    }
}

/// Width range for difficulty tier `k ∈ 1..=4`: wider characters pack fewer
/// per row, pushing writing time up — matching the monotone difficulty of
/// the paper's 1D-1..4 / 2D-1..4 columns.
fn width_tier(k: u8) -> (u64, u64) {
    match k {
        1 => (24, 48),
        2 => (27, 54),
        3 => (30, 60),
        _ => (34, 68),
    }
}

/// Generates a named benchmark instance. Deterministic per family.
///
/// # Panics
///
/// Panics if the family index is out of the documented range.
pub fn benchmark(family: Family) -> Instance {
    let cfg = match family {
        Family::D1(k) => {
            assert!((1..=4).contains(&k), "1D-k has k in 1..=4");
            GenConfig {
                n_chars: 1000,
                n_regions: 1,
                stencil_w: 1000,
                stencil_h: 1000,
                row_height: Some(40),
                width: width_tier(k),
                height: (40, 40),
                blank: (2, 10),
                symmetric_blanks: false,
                shots: (2, 60),
                repeats: (1, 50),
                seed: 0x1D00 + k as u64,
            }
        }
        Family::M1(k) => {
            assert!((1..=8).contains(&k), "1M-k has k in 1..=8");
            let large = k >= 5;
            let tier = if large { k - 4 } else { k };
            GenConfig {
                n_chars: if large { 4000 } else { 1000 },
                n_regions: 10,
                stencil_w: if large { 2000 } else { 1000 },
                stencil_h: if large { 2000 } else { 1000 },
                row_height: Some(40),
                width: width_tier(tier),
                height: (40, 40),
                blank: (2, 10),
                symmetric_blanks: false,
                shots: (2, 60),
                repeats: (0, 50),
                seed: 0x1A00 + k as u64,
            }
        }
        Family::D2(k) => {
            assert!((1..=4).contains(&k), "2D-k has k in 1..=4");
            GenConfig {
                n_chars: 1000,
                n_regions: 1,
                stencil_w: 1000,
                stencil_h: 1000,
                row_height: None,
                width: width_tier(k),
                height: (25, 55),
                blank: (2, 10),
                symmetric_blanks: false,
                shots: (2, 60),
                repeats: (1, 50),
                seed: 0x2D00 + k as u64,
            }
        }
        Family::M2(k) => {
            assert!((1..=8).contains(&k), "2M-k has k in 1..=8");
            let large = k >= 5;
            let tier = if large { k - 4 } else { k };
            GenConfig {
                n_chars: if large { 4000 } else { 1000 },
                n_regions: 10,
                stencil_w: if large { 2000 } else { 1000 },
                stencil_h: if large { 2000 } else { 1000 },
                row_height: None,
                width: width_tier(tier),
                height: (25, 55),
                blank: (2, 10),
                symmetric_blanks: false,
                shots: (2, 60),
                repeats: (0, 50),
                seed: 0x2A00 + k as u64,
            }
        }
        Family::T1(k) => {
            assert!((1..=5).contains(&k), "1T-k has k in 1..=5");
            let n = [8usize, 10, 11, 12, 14][(k - 1) as usize];
            GenConfig {
                n_chars: n,
                n_regions: 1,
                stencil_w: 200,
                stencil_h: 40,
                row_height: Some(40),
                width: (40, 40),
                height: (40, 40),
                blank: (8, 14),
                symmetric_blanks: true,
                shots: (5, 30),
                repeats: (1, 1),
                seed: 0x1700 + k as u64,
            }
        }
        Family::T2(k) => {
            assert!((1..=4).contains(&k), "2T-k has k in 1..=4");
            let n = [6usize, 8, 10, 12][(k - 1) as usize];
            GenConfig {
                n_chars: n,
                n_regions: 1,
                stencil_w: 100,
                stencil_h: 100,
                row_height: None,
                width: (40, 40),
                height: (40, 40),
                blank: (8, 14),
                symmetric_blanks: true,
                shots: (5, 30),
                repeats: (1, 1),
                seed: 0x2700 + k as u64,
            }
        }
        Family::H1(k) => {
            assert!((1..=2).contains(&k), "1H-k has k in 1..=2");
            GenConfig::huge_1d(0x1800 + k as u64)
        }
        Family::H2(k) => {
            assert!((1..=2).contains(&k), "2H-k has k in 1..=2");
            GenConfig::huge_2d(0x2800 + k as u64)
        }
    };
    generate(&cfg)
}

/// All Table 3 benchmarks in paper order: 1D-1..4 then 1M-1..8.
pub fn table3_suite() -> Vec<(String, Instance)> {
    let mut v = Vec::new();
    for k in 1..=4 {
        v.push((Family::D1(k).name(), benchmark(Family::D1(k))));
    }
    for k in 1..=8 {
        v.push((Family::M1(k).name(), benchmark(Family::M1(k))));
    }
    v
}

/// All Table 4 benchmarks in paper order: 2D-1..4 then 2M-1..8.
pub fn table4_suite() -> Vec<(String, Instance)> {
    let mut v = Vec::new();
    for k in 1..=4 {
        v.push((Family::D2(k).name(), benchmark(Family::D2(k))));
    }
    for k in 1..=8 {
        v.push((Family::M2(k).name(), benchmark(Family::M2(k))));
    }
    v
}

/// All Table 5 benchmarks in paper order: 1T-1..5 then 2T-1..4.
pub fn table5_suite() -> Vec<(String, Instance)> {
    let mut v = Vec::new();
    for k in 1..=5 {
        v.push((Family::T1(k).name(), benchmark(Family::T1(k))));
    }
    for k in 1..=4 {
        v.push((Family::T2(k).name(), benchmark(Family::T2(k))));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_deterministic() {
        assert_eq!(benchmark(Family::M1(3)), benchmark(Family::M1(3)));
        assert_ne!(benchmark(Family::M1(3)), benchmark(Family::M1(4)));
    }

    #[test]
    fn d1_shape_matches_paper() {
        let inst = benchmark(Family::D1(2));
        assert_eq!(inst.num_chars(), 1000);
        assert_eq!(inst.num_regions(), 1);
        assert_eq!(inst.stencil().width(), 1000);
        assert_eq!(inst.num_rows().unwrap(), 25);
        for c in inst.chars() {
            assert_eq!(c.height(), 40);
            assert!(c.vsb_shots() >= 2);
        }
    }

    #[test]
    fn m1_large_shape() {
        let inst = benchmark(Family::M1(7));
        assert_eq!(inst.num_chars(), 4000);
        assert_eq!(inst.num_regions(), 10);
        assert_eq!(inst.stencil().width(), 2000);
        assert_eq!(inst.num_rows().unwrap(), 50);
    }

    #[test]
    fn t1_is_single_row_symmetric() {
        let inst = benchmark(Family::T1(5));
        assert_eq!(inst.num_chars(), 14);
        assert_eq!(inst.num_rows().unwrap(), 1);
        for c in inst.chars() {
            assert_eq!(c.width(), 40);
            assert_eq!(c.blanks().left, c.blanks().right);
        }
    }

    #[test]
    fn t2_is_2d() {
        let inst = benchmark(Family::T2(4));
        assert_eq!(inst.num_chars(), 12);
        assert!(inst.num_rows().is_err());
        assert_eq!(inst.stencil().width(), 100);
    }

    #[test]
    fn huge_families_are_mcc_scale() {
        let h1 = benchmark(Family::H1(1));
        assert!(h1.num_chars() >= 10_000);
        assert_eq!(h1.num_regions(), 10);
        assert_eq!(h1.num_rows().unwrap(), 50);
        assert_eq!(h1, benchmark(Family::H1(1)), "deterministic");
        let h2 = benchmark(Family::H2(1));
        assert!(h2.num_chars() >= 10_000);
        assert!(h2.num_rows().is_err(), "2H is free-form");
        assert_eq!(Family::H1(2).name(), "1H-2");
        assert_eq!(Family::H2(1).name(), "2H-1");
    }

    #[test]
    fn suites_have_paper_order() {
        let t3 = table3_suite();
        assert_eq!(t3.len(), 12);
        assert_eq!(t3[0].0, "1D-1");
        assert_eq!(t3[11].0, "1M-8");
        let t4 = table4_suite();
        assert_eq!(t4.len(), 12);
        assert_eq!(t4[0].0, "2D-1");
        let t5 = table5_suite();
        assert_eq!(t5.len(), 9);
        assert_eq!(t5[8].0, "2T-4");
    }

    #[test]
    fn generated_characters_are_valid() {
        // Character::new validates; also check blanks fit pattern bodies.
        for fam in [Family::D1(1), Family::D2(3), Family::M1(6), Family::T2(2)] {
            let inst = benchmark(fam);
            for c in inst.chars() {
                assert!(c.pattern_width() > 0);
                assert!(c.pattern_height() > 0);
            }
        }
    }

    #[test]
    fn custom_config_roundtrip_through_io() {
        let inst = generate(&GenConfig::tiny_1d(9));
        let text = eblow_model::io::to_string(&inst);
        assert_eq!(eblow_model::io::from_str(&text).unwrap(), inst);
    }

    #[test]
    fn family_names() {
        assert_eq!(Family::D1(1).name(), "1D-1");
        assert_eq!(Family::M2(8).name(), "2M-8");
        assert_eq!(Family::T1(5).name(), "1T-5");
    }
}
