//! Dynamic profits (paper Eqn. (6)) and incremental writing-time tracking.
//!
//! All planners share one accounting structure, [`RegionTimes`]: the current
//! per-region writing times `t_c` under a partial selection. The dynamic
//! profit of a candidate is
//!
//! ```text
//! profit_i = Σ_c (t_c / t_max) · (n_i − 1) · t_ic          (Eqn. 6)
//! ```
//!
//! which weights each region by how close it is to being the bottleneck —
//! the mechanism by which E-BLOW balances MCC regions.
//!
//! The tracker is *sparse and incremental*: select/deselect touch only the
//! regions where the candidate's `t_ic > 0` (via the instance's CSR view,
//! [`Instance::sparse_row`]), and the running maximum `t_max` is maintained
//! alongside (value + count of regions attaining it) instead of re-scanned,
//! so [`RegionTimes::total`] is O(1) and [`RegionTimes::profit`] is
//! O(nnz_i). A full O(P) re-scan only happens when a select drains the last
//! region at the maximum. [`RegionTimes::removed_total`] and
//! [`RegionTimes::inserted_total`] answer what one removal or one insertion
//! would make the system time without changing the tracker, in O(nnz) unless
//! an insertion lowers every bottleneck region. The O(P) scans are plain
//! `max`/`count` loops: P ≤ 10 on every benchmark family.

use eblow_model::Instance;

/// Full O(P) bottleneck re-scans forced by a select draining the last
/// at-max region (counter `region.rescan`). The rescan-to-select ratio is
/// the health metric of the incremental-max design.
static RESCANS: eblow_trace::Counter = eblow_trace::Counter::new("region.rescan");

/// Incrementally tracked per-region writing times for a partial selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionTimes {
    times: Vec<u64>,
    /// Current `max_c t_c`.
    max: u64,
    /// Number of regions with `t_c == max` (invariant: ≥ 1 for non-empty
    /// `times`; both fields are derived from `times`, so derived equality
    /// stays consistent).
    at_max: usize,
}

/// `(max, #regions at max)` of a dense time slice — the bottleneck re-scan.
fn max_and_count(times: &[u64]) -> (u64, usize) {
    let max = times.iter().copied().max().unwrap_or(0);
    (max, times.iter().filter(|&&t| t == max).count())
}

impl RegionTimes {
    fn from_times(times: Vec<u64>) -> Self {
        let (max, at_max) = max_and_count(&times);
        RegionTimes { times, max, at_max }
    }

    /// Starts from the empty selection (pure-VSB times).
    pub fn new(instance: &Instance) -> Self {
        RegionTimes::from_times(instance.vsb_times().to_vec())
    }

    /// Starts from an existing selection.
    pub fn from_selection(instance: &Instance, selection: &eblow_model::Selection) -> Self {
        RegionTimes::from_times(instance.writing_times(selection))
    }

    /// Accounts for character `i` being put on the stencil. Touches only
    /// the regions with `t_ic > 0`.
    pub fn select(&mut self, instance: &Instance, i: usize) {
        for e in instance.sparse_row(i) {
            if e.reduction == 0 {
                continue;
            }
            let c = e.region as usize;
            let old = self.times[c];
            self.times[c] = old - e.reduction;
            if old == self.max {
                self.at_max -= 1;
            }
        }
        if self.at_max == 0 {
            // The last bottleneck region just dropped: one O(P) re-scan.
            RESCANS.incr();
            (self.max, self.at_max) = max_and_count(&self.times);
        }
    }

    /// Accounts for character `i` being removed from the stencil. Touches
    /// only the regions with `t_ic > 0`; the maximum can only grow, so no
    /// re-scan is ever needed.
    // audit:allow(stop-flag-reachability): O(nnz) sparse-row update — this IS the hot path; a poll here would cost more than it saves
    pub fn deselect(&mut self, instance: &Instance, i: usize) {
        for e in instance.sparse_row(i) {
            if e.reduction == 0 {
                continue;
            }
            let c = e.region as usize;
            let old = self.times[c];
            let new = old + e.reduction;
            self.times[c] = new;
            if old == self.max {
                self.at_max -= 1;
            }
            if new > self.max {
                self.max = new;
                self.at_max = 1;
            } else if new == self.max {
                self.at_max += 1;
            }
        }
    }

    /// Current per-region times `t_c`.
    pub fn times(&self) -> &[u64] {
        &self.times
    }

    /// Current system writing time `max_c t_c` — O(1), maintained
    /// incrementally by select/deselect.
    #[inline]
    pub fn total(&self) -> u64 {
        self.max
    }

    /// The system writing time if selected character `v` were removed —
    /// O(nnz_v) and always exact: a removal only *raises* region times, so
    /// the new maximum is `max(current max, raised entries)` with no dense
    /// scan. The swap pass leans on this: inserting the candidate once
    /// into a scratch tracker turns every swap probe into one call here.
    pub fn removed_total(&self, instance: &Instance, v: usize) -> u64 {
        let mut m = self.max;
        for e in instance.sparse_row(v) {
            m = m.max(self.times[e.region as usize] + e.reduction);
        }
        m
    }

    /// The system writing time if unselected character `u` were put on the
    /// stencil — the mirror of [`RegionTimes::removed_total`]. An insertion
    /// only *lowers* region times, so while some region at the maximum is
    /// not among those `u` lowers, the maximum stands and the answer is
    /// O(nnz_u). Only when `u` lowers every bottleneck region does the new
    /// maximum take one O(P) scan, with `u`'s lowered entries merged in.
    pub fn inserted_total(&self, instance: &Instance, u: usize) -> u64 {
        let row = instance.sparse_row(u);
        let lowered = row
            .iter()
            .filter(|e| e.reduction > 0 && self.times[e.region as usize] == self.max)
            .count();
        if lowered < self.at_max {
            return self.max;
        }
        // The row lists its regions in increasing order.
        let mut entries = row.iter().peekable();
        let mut m = 0;
        for (c, &t) in self.times.iter().enumerate() {
            let t = match entries.next_if(|e| e.region as usize == c) {
                Some(e) => t - e.reduction,
                None => t,
            };
            m = m.max(t);
        }
        m
    }

    /// Dynamic profit of candidate `i` per Eqn. (6).
    ///
    /// Returns 0 when every region is already at writing time 0. Iterates
    /// only the candidate's nonzero regions; the per-term arithmetic is the
    /// dense formula's exactly (`(t_c/t_max) · (n_i − 1) · t_ic`, in that
    /// association), so values are bit-identical to a dense recompute.
    pub fn profit(&self, instance: &Instance, i: usize) -> f64 {
        let t_max = self.max;
        if t_max == 0 {
            return 0.0;
        }
        let saving = instance.char(i).shot_saving() as f64;
        let mut p = 0.0;
        for e in instance.sparse_row(i) {
            p += (self.times[e.region as usize] as f64 / t_max as f64) * saving * e.repeats as f64;
        }
        p
    }

    /// Dynamic profits for every candidate (Eqn. (6)), one
    /// [`RegionTimes::profit`] each: the all-candidate sweep of the 2D
    /// pipeline's pricing pass. The 1D rounding loop prices only its
    /// shrinking unsolved set, per item.
    pub fn profits(&self, instance: &Instance) -> Vec<f64> {
        (0..instance.num_chars())
            .map(|i| self.profit(instance, i))
            .collect()
    }
}

/// Static profit: total writing-time reduction `Σ_c R_ic`, the
/// region-agnostic profit used by the single-CP baselines.
pub fn static_profit(instance: &Instance, i: usize) -> f64 {
    instance.total_reduction(i) as f64
}

/// Static profits for all candidates.
pub fn static_profits(instance: &Instance) -> Vec<f64> {
    (0..instance.num_chars())
        .map(|i| static_profit(instance, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_model::{Character, Selection, Stencil};

    fn inst() -> Instance {
        let chars = vec![
            Character::new(40, 40, [5, 5, 5, 5], 11).unwrap(), // saving 10
            Character::new(40, 40, [5, 5, 5, 5], 3).unwrap(),  // saving 2
        ];
        // region 0: t = [4, 1]; region 1: t = [0, 8]
        let repeats = vec![vec![4, 0], vec![1, 8]];
        Instance::new(Stencil::with_rows(100, 40, 40).unwrap(), chars, repeats).unwrap()
    }

    #[test]
    fn select_deselect_roundtrip() {
        let inst = inst();
        let mut rt = RegionTimes::new(&inst);
        let t0 = rt.times().to_vec();
        rt.select(&inst, 0);
        assert_ne!(rt.times(), &t0[..]);
        rt.deselect(&inst, 0);
        assert_eq!(rt.times(), &t0[..]);
        assert_eq!(rt, RegionTimes::new(&inst), "max tracking restored too");
    }

    #[test]
    fn matches_instance_accounting() {
        let inst = inst();
        let mut rt = RegionTimes::new(&inst);
        rt.select(&inst, 1);
        let sel = Selection::from_indices(2, [1]);
        assert_eq!(rt.times(), &inst.writing_times(&sel)[..]);
        assert_eq!(rt.total(), inst.total_writing_time(&sel));
    }

    #[test]
    fn incremental_max_matches_rescan_under_churn() {
        // Deterministic churn over a wider instance: after every operation
        // the tracked max (and the whole struct) must equal a fresh
        // recompute from the selection.
        let chars: Vec<Character> = (0..12)
            .map(|i| Character::new(30, 40, [3, 3, 0, 0], 2 + (i % 7) as u64).unwrap())
            .collect();
        let repeats: Vec<Vec<u64>> = (0..12)
            .map(|i| {
                (0..5)
                    .map(|c| {
                        if (i + c) % 3 == 0 {
                            (i * c % 9) as u64
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        let inst = Instance::new(Stencil::with_rows(500, 40, 40).unwrap(), chars, repeats).unwrap();
        let mut rt = RegionTimes::new(&inst);
        let mut sel = Selection::none(12);
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..400 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let i = (state % 12) as usize;
            if sel.contains(i) {
                sel.remove(i);
                rt.deselect(&inst, i);
            } else {
                sel.insert(i);
                rt.select(&inst, i);
            }
            assert_eq!(rt, RegionTimes::from_selection(&inst, &sel));
            assert_eq!(rt.total(), inst.total_writing_time(&sel));
        }
    }

    #[test]
    fn profit_weights_bottleneck_region() {
        let inst = inst();
        let rt = RegionTimes::new(&inst);
        // T_vsb: region0 = 4*11 + 1*3 = 47; region1 = 0 + 8*3 = 24.
        assert_eq!(rt.times(), &[47, 24]);
        // char 0 only appears in region 0 (the bottleneck): full weight.
        let p0 = rt.profit(&inst, 0);
        assert!((p0 - (47.0 / 47.0) * 10.0 * 4.0).abs() < 1e-12);
        // char 1: weighted mix of both regions.
        let p1 = rt.profit(&inst, 1);
        let expect = (47.0 / 47.0) * 2.0 * 1.0 + (24.0 / 47.0) * 2.0 * 8.0;
        assert!((p1 - expect).abs() < 1e-12);
    }

    #[test]
    fn profits_match_per_candidate_profit_bitwise() {
        let inst = inst();
        let mut rt = RegionTimes::new(&inst);
        rt.select(&inst, 0);
        let profits = rt.profits(&inst);
        assert_eq!(profits.len(), 2);
        for i in 0..2 {
            assert_eq!(profits[i].to_bits(), rt.profit(&inst, i).to_bits());
        }
    }

    /// Walks a select/deselect trajectory of `steps` toggles among the
    /// first 100 characters of `inst` and, before each toggle, checks
    /// `inserted_total(i)` for every unselected `i` against the maximum of
    /// `Instance::writing_times` with `i` added. Returns how many checks
    /// left a bottleneck region untouched and how many lowered every one —
    /// the two branches of `inserted_total`.
    fn check_inserted_totals(inst: &Instance, seed: u64, steps: usize) -> (usize, usize) {
        let n = inst.num_chars();
        let mut rt = RegionTimes::new(inst);
        let mut sel = Selection::none(n);
        let mut state = seed | 1;
        let (mut untouched, mut lowered) = (0, 0);
        for step in 0..steps {
            let bottleneck: Vec<usize> = (0..inst.num_regions())
                .filter(|&c| rt.times()[c] == rt.total())
                .collect();
            for i in 0..n {
                if sel.contains(i) {
                    continue;
                }
                sel.insert(i);
                let expect = inst.writing_times(&sel).into_iter().max().unwrap_or(0);
                sel.remove(i);
                assert_eq!(
                    rt.inserted_total(inst, i),
                    expect,
                    "seed {seed}, step {step}, candidate {i}"
                );
                if bottleneck.iter().all(|&c| inst.reduction(i, c) > 0) {
                    lowered += 1;
                } else {
                    untouched += 1;
                }
            }
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let i = (state % n.min(100) as u64) as usize;
            if sel.contains(i) {
                sel.remove(i);
                rt.deselect(inst, i);
            } else {
                sel.insert(i);
                rt.select(inst, i);
            }
        }
        (untouched, lowered)
    }

    #[test]
    fn inserted_total_matches_writing_times_on_mcc_instances() {
        // 1M-1..4: 1 000 candidates over P = 10 regions.
        let (mut untouched, mut lowered) = (0, 0);
        for k in 1..=4 {
            let inst = eblow_gen::benchmark(eblow_gen::Family::M1(k));
            let (u, l) = check_inserted_totals(&inst, u64::from(k), 40);
            untouched += u;
            lowered += l;
        }
        assert!(untouched > 0, "no check left a bottleneck region untouched");
        assert!(lowered > 0, "no check lowered every bottleneck region");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The same check on `tiny_1d` instances (60 candidates over three
        /// regions), where ties at the maximum are common; both branches
        /// must answer along every trajectory.
        #[test]
        fn inserted_total_matches_writing_times_on_tiny_instances(seed in 1u64..2000) {
            let inst = eblow_gen::generate(&eblow_gen::GenConfig::tiny_1d(seed));
            let (untouched, lowered) = check_inserted_totals(&inst, seed, 60);
            proptest::prop_assert!(untouched > 0 && lowered > 0, "untouched {untouched}, lowered {lowered}");
        }
    }

    #[test]
    fn static_profit_sums_regions() {
        let inst = inst();
        assert_eq!(static_profit(&inst, 0), 40.0); // 10*(4+0)
        assert_eq!(static_profit(&inst, 1), 18.0); // 2*(1+8)
        assert_eq!(static_profits(&inst), vec![40.0, 18.0]);
    }

    #[test]
    fn zero_time_instance_has_zero_profits() {
        let chars = vec![Character::new(10, 10, [1, 1, 1, 1], 5).unwrap()];
        let inst = Instance::new(Stencil::new(100, 100).unwrap(), chars, vec![vec![0]]).unwrap();
        let rt = RegionTimes::new(&inst);
        assert_eq!(rt.total(), 0);
        assert_eq!(rt.profit(&inst, 0), 0.0);
        assert_eq!(rt.profits(&inst), vec![0.0]);
    }
}
