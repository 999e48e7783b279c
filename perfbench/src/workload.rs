//! The four workloads and their seeded instance batches.
//!
//! Instances use the generator parameters of the named `eblow_gen`
//! benchmark families, with per-instance seeds derived from the workload
//! seed, so every instance of a run is distinct and the same seed always
//! gives the same inputs.

use eblow_gen::GenConfig;
use std::time::Duration;

/// Workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 4] = ["mcc1d", "mcc2d", "tiny-exact", "huge1d"];

/// One instance to generate.
pub struct Case {
    /// Shape and position, e.g. `1M-6/0.1` (shape, pass, index).
    pub label: String,
    pub config: GenConfig,
    /// A single-row 1D instance small enough for the brute-force optimum.
    pub exact_row: bool,
}

pub struct Workload {
    pub name: &'static str,
    /// The per-plan deadline of the portfolio race.
    pub deadline: Duration,
    /// Instances in one batch (one pass): `plan_total_s` is the makespan
    /// of a batch of this size.
    pub batch_len: usize,
    /// Instances in one balanced group: the width tiers cycle with this
    /// period, so a run of whole cycles plans every tier equally often.
    cycle: usize,
    /// Seconds of `--seconds` given to one cycle. It fixes how many
    /// instances a run plans, so the count depends only on the command
    /// line, never on measured times.
    cycle_s: f64,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let (deadline_s, batch_len, cycle, cycle_s) = match name {
            "mcc1d" => (3, 8, 4, 8.0),
            "mcc2d" => (3, 8, 4, 12.0),
            "tiny-exact" => (1, 8, 8, 8.0),
            "huge1d" => (3, 2, 2, 7.5),
            _ => return None,
        };
        let name = NAMES.iter().copied().find(|n| *n == name)?;
        Some(Workload {
            name,
            deadline: Duration::from_secs(deadline_s),
            batch_len,
            cycle,
            cycle_s,
        })
    }

    /// Instances a run of `seconds` plans: whole cycles, at least one.
    pub fn instances(&self, seconds: f64) -> usize {
        ((seconds / self.cycle_s).floor() as usize).max(1) * self.cycle
    }

    /// The first `count` instances under workload seed `seed`, batch after
    /// batch (the last batch may be partial).
    pub fn cases(&self, seed: u64, count: usize) -> Vec<Case> {
        (0..count.div_ceil(self.batch_len))
            .flat_map(|pass| self.batch(seed, pass))
            .take(count)
            .collect()
    }

    /// The batch of pass `pass` under workload seed `seed`.
    fn batch(&self, seed: u64, pass: usize) -> Vec<Case> {
        let case = |i: usize, shape: String, config: fn(u64) -> GenConfig, exact_row: bool| Case {
            label: format!("{shape}/{pass}.{i}"),
            config: config(instance_seed(self.name, seed, pass, i)),
            exact_row,
        };
        match self.name {
            "mcc1d" => (0..8)
                .map(|i| {
                    let tier = i % 4 + 1;
                    let mut c = case(i, format!("1M-{}", tier + 4), mcc_1d, false);
                    c.config.width = width_tier(tier);
                    c
                })
                .collect(),
            "mcc2d" => (0..8)
                .map(|i| {
                    let tier = i % 4 + 1;
                    let mut c = case(i, format!("2M-{tier}"), mcc_2d, false);
                    c.config.width = width_tier(tier);
                    c
                })
                .collect(),
            "tiny-exact" => {
                let rows = [8, 10, 11, 12, 14].into_iter().enumerate().map(|(k, n)| {
                    let mut c = case(k, format!("1T-{}", k + 1), tiny_1d_row, true);
                    c.config.n_chars = n;
                    c
                });
                let free = [6, 8, 10].into_iter().enumerate().map(|(k, n)| {
                    let mut c = case(5 + k, format!("2T-{}", k + 1), tiny_2d, false);
                    c.config.n_chars = n;
                    c
                });
                rows.chain(free).collect()
            }
            "huge1d" => (0..2)
                .map(|i| case(i, "1H".to_string(), GenConfig::huge_1d, false))
                .collect(),
            _ => unreachable!("workload names are checked in by_name"),
        }
    }
}

/// Character width range of difficulty tier `k` (the generator's
/// `1M-1..4` / `1M-5..8` tiers).
fn width_tier(k: usize) -> (u64, u64) {
    match k {
        1 => (24, 48),
        2 => (27, 54),
        3 => (30, 60),
        _ => (34, 68),
    }
}

/// The `1M-5..8` shape: 4 000 candidates, 10 CPs, a 2000² stencil.
fn mcc_1d(seed: u64) -> GenConfig {
    GenConfig {
        n_chars: 4000,
        n_regions: 10,
        stencil_w: 2000,
        stencil_h: 2000,
        row_height: Some(40),
        width: width_tier(1),
        height: (40, 40),
        blank: (2, 10),
        symmetric_blanks: false,
        shots: (2, 60),
        repeats: (0, 50),
        seed,
    }
}

/// The `2M-1..4` shape: 1 000 candidates, 10 CPs, a free-form 1000² stencil.
fn mcc_2d(seed: u64) -> GenConfig {
    GenConfig {
        n_chars: 1000,
        n_regions: 10,
        stencil_w: 1000,
        stencil_h: 1000,
        row_height: None,
        width: width_tier(1),
        height: (25, 55),
        blank: (2, 10),
        symmetric_blanks: false,
        shots: (2, 60),
        repeats: (0, 50),
        seed,
    }
}

/// The `1T` shape: 40×40 characters with symmetric blanks on one row of
/// length 200.
fn tiny_1d_row(seed: u64) -> GenConfig {
    GenConfig {
        n_chars: 8,
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
        seed,
    }
}

/// The `2T` shape: 40×40 characters on a free-form 100² stencil.
fn tiny_2d(seed: u64) -> GenConfig {
    GenConfig {
        stencil_w: 100,
        stencil_h: 100,
        row_height: None,
        n_chars: 6,
        ..tiny_1d_row(seed)
    }
}

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator seed of instance `i` of pass `pass`.
fn instance_seed(workload: &str, seed: u64, pass: usize, i: usize) -> u64 {
    let salt = workload.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
    });
    mix(mix(mix(salt ^ seed) ^ pass as u64) ^ i as u64)
}
