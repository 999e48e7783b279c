//! Successive rounding (paper §3.2, Algorithm 1).
//!
//! Repeatedly: recompute dynamic profits (Eqn. (6)) from the current
//! partial selection, solve the LP relaxation of formulation (4), then
//! commit the characters whose `a_ij` is within `thinv` of the maximum to
//! their rows (capacity permitting). Committed characters leave the LP, so
//! the model shrinks every iteration — the behaviour Fig. 5 plots.
//!
//! One reproduction note: our LP oracle returns true
//! *vertices*, which are almost fully integral, so a naïve rounding would
//! commit nearly everything in the first iteration and skip the
//! region-rebalancing that makes E-BLOW win on MCC. We therefore cap the
//! number of commitments per iteration (`batch_fraction`), which restores
//! the paper's gradual schedule: profits are re-derived from the updated
//! region times between batches, exactly as intended by Algorithm 1.
//!
//! The loop is engineered as a zero-rebuild hot path: the item, row-base,
//! candidate, and commit-mask buffers are allocated once and reused across
//! iterations, and the surviving LP columns are filtered *in place*
//! instead of cloned. Each iteration's LP is one cold
//! [`LpOracle::solve_lp`] call: the relaxation is solved from the
//! iteration's items and row bases alone.

use super::mkp_lp::{MkpItem, MkpLpSolution, RowBase};
use super::oracle::LpOracle;
use super::refine::{Admission, ProbedRow, WidthScratch};
use crate::cancel::StopFlag;
use crate::profit::RegionTimes;
use eblow_model::{CharId, Instance};
use eblow_trace as trace;

/// LP iterations run across all rounding calls (counter `round.iters`).
static ROUND_ITERS: trace::Counter = trace::Counter::new("round.iters");
/// Characters committed by rounding (counter `round.committed`).
static ROUND_COMMITTED: trace::Counter = trace::Counter::new("round.committed");
/// LP iterations per rounding call (histogram `round.iters_per_call`).
static ITERS_PER_CALL: trace::Histogram = trace::Histogram::new("round.iters_per_call");
/// `RowState::admits` stage tallies — how often each stage of the staged
/// admission test decided (counters `admits.*`). Stage order: clearly
/// overfull estimate → refusal memo → beam-1 upper bound → exact width DP.
/// `admits.dp_keys` adds the keys each exact-DP probe walked, and
/// `admits.table_steps` the suffix lengths the rows' completion tables
/// computed for the probes.
static ADMITS_ESTIMATE_REJECT: trace::Counter = trace::Counter::new("admits.estimate_reject");
static ADMITS_MEMO_REJECT: trace::Counter = trace::Counter::new("admits.memo_reject");
static ADMITS_BEAM: trace::Counter = trace::Counter::new("admits.beam");
static ADMITS_DP: trace::Counter = trace::Counter::new("admits.dp");
static ADMITS_DP_KEYS: trace::Counter = trace::Counter::new("admits.dp_keys");
static ADMITS_TABLE_STEPS: trace::Counter = trace::Counter::new("admits.table_steps");

/// Observable trace of the rounding loop, powering Figs. 5 and 6.
#[derive(Debug, Clone, Default)]
pub struct RoundingTrace {
    /// Unsolved character count at the *start* of each LP iteration (Fig. 5).
    pub unsolved_per_iter: Vec<usize>,
    /// Characters committed by each iteration.
    pub committed_per_iter: Vec<usize>,
    /// Histogram of the last LP's per-item `max_j a_ij` values in ten
    /// buckets `[0.0,0.1) … [0.9,1.0]` (Fig. 6).
    pub last_lp_histogram: [usize; 10],
    /// LP oracle refusals/failures that ended the loop early (0 for the
    /// default combinatorial backend, which never fails).
    pub oracle_errors: usize,
}

/// Mutable state of one stencil row during planning.
#[derive(Debug, Clone, Default)]
pub struct RowState {
    /// Committed characters (unordered; refinement orders them later).
    pub members: Vec<CharId>,
    /// `Σ (w_i − s_i)` over members.
    pub eff_used: u64,
    /// `max s_i` over members.
    pub max_blank: u64,
    /// Members as a probe-ready row (sorted keys, maintained by
    /// [`RowState::commit`], plus the refusal memo, the checkpointed DP
    /// frontiers and the completion table its probes extend) so most
    /// admission probes refuse from the memo and the rest resume the DP
    /// walk near the candidate and stop once no completion fits.
    probed: ProbedRow,
    /// Reusable width-DP buffers for [`RowState::admits`].
    scratch: WidthScratch,
}

impl RowState {
    /// S-Blank width estimate of this row (Lemma 1).
    pub fn width_estimate(&self) -> u64 {
        if self.members.is_empty() {
            0
        } else {
            self.eff_used.saturating_add(self.max_blank)
        }
    }

    /// The S-Blank estimate with one more character, exact past `u64`.
    fn estimate_with(&self, eff: u64, blank: u64) -> u128 {
        u128::from(self.eff_used) + u128::from(eff) + u128::from(self.max_blank.max(blank))
    }

    /// Commits character `id` of `instance`.
    pub fn commit(&mut self, instance: &Instance, id: CharId) {
        let c = instance.char(id.index());
        self.members.push(id);
        self.probed.insert(instance, id);
        self.eff_used += c.effective_width();
        self.max_blank = self.max_blank.max(c.symmetric_blank());
    }

    /// As [`RowBase`] for the LP oracle.
    pub fn base(&self) -> RowBase {
        RowBase {
            eff_used: self.eff_used,
            max_blank: self.max_blank,
        }
    }

    /// Exact admission test: the S-Blank estimate (Lemma 1) is *optimistic*
    /// for asymmetric blanks, so near capacity we verify with the real
    /// refinement DP before committing — otherwise the later refinement
    /// stage would have to evict members, leaking value.
    ///
    /// Decision-identical to running the full DP on a cloned member list,
    /// but staged so the DP almost never runs:
    ///
    /// 1. clearly-overfull estimates are rejected outright (same quick
    ///    reject as before);
    /// 2. a candidate whose class (left blank, right blank, sorted
    ///    position) the row refused at most as wide since the last commit
    ///    is refused from the memo: within a class the decision is monotone
    ///    in width (see [`ProbedRow`]), and every rounding iteration and
    ///    Algorithm 2's threshold pass re-probe the candidates that did not
    ///    fit;
    /// 3. otherwise a beam-1 greedy insertion chain gives a cheap upper
    ///    bound on the DP width: if one concrete order fits, the DP fits;
    /// 4. only in the remaining near-capacity band does the exact
    ///    (width-only, allocation-free) DP run, resumed from the frontier
    ///    checkpoint nearest the candidate.
    ///
    /// In stages 3–4 both walks refuse once no frontier state has an
    /// end-insertion completion that fits, read off the row's completion
    /// table: at the resume checkpoint, with the candidate still to come
    /// charged `w − l − r`, and after every insertion from the candidate
    /// on. On an all-symmetric row plus a symmetric candidate every
    /// end-insertion order packs to exactly `Σ(w−s) + max s` (Lemma 1), so
    /// the chain admits exactly when the estimate fits, and otherwise the
    /// row refuses.
    ///
    /// Widths past `u64::MAX` read as "does not fit" at every stage.
    pub fn admits(&mut self, instance: &Instance, id: CharId, stencil_w: u64) -> bool {
        let c = instance.char(id.index());
        // Quick reject: the estimate rarely *over*states the DP width by
        // much, so a clearly overfull estimate is a safe early out.
        let estimate = self.estimate_with(c.effective_width(), c.symmetric_blank());
        if estimate > u128::from(stencil_w) + 8 {
            ADMITS_ESTIMATE_REJECT.incr();
            return false;
        }
        let admission = self
            .probed
            .admits(instance, id, 8, stencil_w, &mut self.scratch);
        ADMITS_TABLE_STEPS.add(self.scratch.table_steps() as u64);
        match admission {
            Admission::MemoReject => {
                ADMITS_MEMO_REJECT.incr();
                false
            }
            Admission::ChainFits => {
                ADMITS_BEAM.incr();
                true
            }
            Admission::Dp(fits) => {
                ADMITS_DP.incr();
                ADMITS_DP_KEYS.add(self.scratch.keys_walked() as u64);
                fits
            }
        }
    }
}

/// Commits `id` to row `lp_row` if that row admits it, else to the first
/// other row that does, and returns whether it committed. The fallback
/// skips `lp_row`: admission is a pure function of the row state, so a
/// second probe there would refuse again.
pub(super) fn commit_lp_row_first(
    rows: &mut [RowState],
    instance: &Instance,
    id: CharId,
    lp_row: usize,
    stencil_w: u64,
) -> bool {
    let target = if rows[lp_row].admits(instance, id, stencil_w) {
        Some(lp_row)
    } else {
        (0..rows.len()).find(|&r| r != lp_row && rows[r].admits(instance, id, stencil_w))
    };
    if let Some(r) = target {
        rows[r].commit(instance, id);
    }
    target.is_some()
}

/// Tunables of the rounding loop (defaults follow the paper where stated).
#[derive(Debug, Clone, Copy)]
pub struct RoundingConfig {
    /// Commit threshold relative to the iteration's max `a_ij` (paper: 0.9).
    pub thinv: f64,
    /// Hard LP iteration cap.
    pub max_iters: usize,
    /// Per-iteration commit cap as a fraction of the unsolved set
    /// (reproduction choice, see module docs).
    pub batch_fraction: f64,
    /// Stop and hand over to fast ILP convergence when an iteration commits
    /// fewer than `stall_fraction · unsolved` characters. Set to 0.0 to run
    /// rounding to exhaustion (the E-BLOW-0 ablation).
    pub stall_fraction: f64,
}

impl Default for RoundingConfig {
    fn default() -> Self {
        RoundingConfig {
            thinv: 0.9,
            max_iters: 64,
            batch_fraction: 0.1,
            stall_fraction: 0.02,
        }
    }
}

/// Result of the rounding loop.
#[derive(Debug, Clone)]
pub struct RoundingOutcome {
    /// Row states with committed characters.
    pub rows: Vec<RowState>,
    /// Still-unsolved character indices.
    pub unsolved: Vec<usize>,
    /// The final LP solution over `unsolved` (input to Algorithm 2).
    pub last_lp: Option<MkpLpSolution>,
    /// Items of the final LP, aligned with `last_lp` indices.
    pub last_items: Vec<MkpItem>,
    /// Writing-time tracker including all commitments.
    pub region_times: RegionTimes,
    /// Trace for Figs. 5/6.
    pub trace: RoundingTrace,
}

/// Runs Algorithm 1 over the eligible characters, using `oracle` as the
/// backend for every LP relaxation solve (see [`LpOracle`]).
///
/// `eligible` are candidate indices that physically fit a row (callers
/// exclude too-tall/too-wide characters up front).
///
/// The loop polls `stop` before every LP iteration; on cancellation it
/// returns the commitments made so far (still a consistent
/// [`RoundingOutcome`], just with a larger unsolved set). An oracle
/// refusal/failure ends the loop the same graceful way, recorded in
/// [`RoundingTrace::oracle_errors`].
pub fn successive_rounding<O: LpOracle + ?Sized>(
    instance: &Instance,
    eligible: &[usize],
    num_rows: usize,
    config: &RoundingConfig,
    oracle: &O,
    stop: StopFlag<'_>,
) -> RoundingOutcome {
    let w = instance.stencil().width();
    let mut rows = vec![RowState::default(); num_rows];
    let mut region_times = RegionTimes::new(instance);
    let mut unsolved: Vec<usize> = eligible.to_vec();
    let mut trace = RoundingTrace::default();
    let mut last_lp: Option<MkpLpSolution> = None;
    let mut last_items: Vec<MkpItem> = Vec::new();

    // Iteration-reused buffers: no per-iteration rebuilds on the hot path.
    let mut items: Vec<MkpItem> = Vec::with_capacity(unsolved.len());
    let mut bases: Vec<RowBase> = Vec::with_capacity(num_rows);
    let mut candidates: Vec<usize> = Vec::new();
    let mut committed: Vec<bool> = Vec::new();

    for _iter in 0..config.max_iters {
        if unsolved.is_empty() || stop.is_set() {
            break;
        }
        trace.unsolved_per_iter.push(unsolved.len());

        // Dynamic profits from the current partial selection (Eqn. 6).
        items.clear();
        {
            let _scatter = trace::span("round.scatter");
            items.extend(
                unsolved
                    .iter()
                    .map(|&i| MkpItem::of_char(instance, &region_times, i)),
            );
        }
        ROUND_ITERS.incr();
        bases.clear();
        bases.extend(rows.iter().map(RowState::base));
        let lp = match oracle.solve_lp(&items, &bases, w) {
            Ok(lp) => lp,
            Err(_) => {
                // The previous iteration's `last_lp`/`last_items` stay
                // aligned with `unsolved`; stopping here is the cheapest
                // valid completion.
                trace.oracle_errors += 1;
                break;
            }
        };

        // Candidates: a_kj ≥ thinv · apq, highest first.
        let apq = lp.max_frac.iter().copied().fold(0.0f64, f64::max);
        if apq <= 1e-9 {
            last_items.clone_from(&items);
            last_lp = Some(lp);
            trace.committed_per_iter.push(0);
            break;
        }
        let threshold = apq * config.thinv;
        candidates.clear();
        candidates.extend((0..items.len()).filter(|&k| lp.max_frac[k] >= threshold));
        candidates.sort_by(|&a, &b| {
            lp.max_frac[b].total_cmp(&lp.max_frac[a]).then_with(|| {
                items[b]
                    .profit
                    .total_cmp(&items[a].profit)
                    .then(items[a].char_index.cmp(&items[b].char_index))
            })
        });
        // Batch cap restoring the paper's gradual schedule.
        let cap = ((unsolved.len() as f64 * config.batch_fraction).ceil() as usize).max(16);
        candidates.truncate(cap);

        committed.clear();
        committed.resize(items.len(), false);
        let mut committed_count = 0usize;
        for &k in &candidates {
            // The exact admission test can fall back to the ordering DP, so
            // a large candidate batch is the longest stretch between
            // iteration-boundary polls — poll per commit too.
            if stop.is_set() {
                break;
            }
            let item = items[k];
            let id = CharId::from(item.char_index);
            if commit_lp_row_first(&mut rows, instance, id, lp.argmax_row[k], w) {
                region_times.select(instance, item.char_index);
                committed[k] = true;
                committed_count += 1;
            }
        }
        trace.committed_per_iter.push(committed_count);
        ROUND_COMMITTED.add(committed_count as u64);
        // The LP objective trajectory: one point per rounding iteration.
        trace::instant_with(
            "round.iter",
            unsolved.len() as i64,
            committed_count as i64,
            // audit:allow(hot-loop-allocation): lazy trace detail — the closure runs only when a trace session is active
            || format!("objective={:.3}", lp.objective),
        );

        let before = unsolved.len();
        // `unsolved` and `items` are index-aligned; drop committed entries
        // from both (and from the LP columns) in place.
        let mut k = 0;
        unsolved.retain(|_| {
            let keep = !committed[k];
            k += 1;
            keep
        });
        last_items.clear();
        last_items.extend(
            items
                .iter()
                .zip(&committed)
                .filter(|(_, &c)| !c)
                .map(|(it, _)| *it),
        );
        // Keep the LP values of the *uncommitted* items for Algorithm 2.
        let mut lp = lp;
        filter_lp_in_place(&mut lp, &committed);
        last_lp = Some(lp);

        if committed_count == 0 {
            break;
        }
        if config.stall_fraction > 0.0
            && (committed_count as f64) < config.stall_fraction * before as f64
        {
            break;
        }
    }

    if let Some(lp) = &last_lp {
        for &f in &lp.max_frac {
            let bucket = ((f * 10.0).floor() as usize).min(9);
            trace.last_lp_histogram[bucket] += 1;
        }
    }
    ITERS_PER_CALL.record(trace.unsolved_per_iter.len() as u64);

    RoundingOutcome {
        rows,
        unsolved,
        last_lp,
        last_items,
        region_times,
        trace,
    }
}

/// Drops the LP columns of committed items in place — no clone of the
/// fraction lists and, crucially, none of the per-iteration `blanks` clone
/// the out-of-place filter used to pay.
fn filter_lp_in_place(lp: &mut MkpLpSolution, committed: &[bool]) {
    let mut k = 0;
    lp.fracs.retain_mut(|_| {
        let keep = !committed[k];
        k += 1;
        keep
    });
    let mut k = 0;
    lp.max_frac.retain(|_| {
        let keep = !committed[k];
        k += 1;
        keep
    });
    let mut k = 0;
    lp.argmax_row.retain(|_| {
        let keep = !committed[k];
        k += 1;
        keep
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oned::oracle::{CombinatorialOracle, OracleError};
    use eblow_model::{Character, Stencil};

    fn small_instance() -> Instance {
        // 8 identical-height chars, 2 rows of width 100.
        let chars: Vec<Character> = (0..8)
            .map(|i| {
                Character::new(30 + (i % 3) as u64 * 5, 40, [4, 4, 0, 0], 10 + i as u64).unwrap()
            })
            .collect();
        let repeats = (0..8).map(|i| vec![1 + i as u64 % 4, 2]).collect();
        Instance::new(Stencil::with_rows(100, 80, 40).unwrap(), chars, repeats).unwrap()
    }

    #[test]
    fn commits_until_capacity() {
        let inst = small_instance();
        let eligible: Vec<usize> = (0..8).collect();
        let out = successive_rounding(
            &inst,
            &eligible,
            2,
            &RoundingConfig::default(),
            &CombinatorialOracle,
            StopFlag::NEVER,
        );
        let placed: usize = out.rows.iter().map(|r| r.members.len()).sum();
        assert!(placed >= 4, "should fill most of 2×100 with ~30-wide chars");
        // Every row respects the S-Blank capacity estimate.
        for r in &out.rows {
            assert!(r.width_estimate() <= 100);
        }
        // Bookkeeping: placed + unsolved = eligible.
        assert_eq!(placed + out.unsolved.len(), 8);
    }

    #[test]
    fn region_times_match_commitments() {
        let inst = small_instance();
        let eligible: Vec<usize> = (0..8).collect();
        let out = successive_rounding(
            &inst,
            &eligible,
            2,
            &RoundingConfig::default(),
            &CombinatorialOracle,
            StopFlag::NEVER,
        );
        let sel = eblow_model::Selection::from_indices(
            8,
            out.rows
                .iter()
                .flat_map(|r| r.members.iter().map(|c| c.index())),
        );
        assert_eq!(out.region_times.times(), &inst.writing_times(&sel)[..]);
    }

    #[test]
    fn trace_unsolved_is_decreasing() {
        let inst = small_instance();
        let eligible: Vec<usize> = (0..8).collect();
        let cfg = RoundingConfig {
            batch_fraction: 0.3,
            ..Default::default()
        };
        let out = successive_rounding(
            &inst,
            &eligible,
            2,
            &cfg,
            &CombinatorialOracle,
            StopFlag::NEVER,
        );
        let u = &out.trace.unsolved_per_iter;
        assert!(!u.is_empty());
        assert!(u.windows(2).all(|w| w[1] <= w[0]), "{u:?} not decreasing");
    }

    #[test]
    fn zero_stall_fraction_runs_to_exhaustion() {
        let inst = small_instance();
        let eligible: Vec<usize> = (0..8).collect();
        let cfg = RoundingConfig {
            stall_fraction: 0.0,
            ..Default::default()
        };
        let out = successive_rounding(
            &inst,
            &eligible,
            2,
            &cfg,
            &CombinatorialOracle,
            StopFlag::NEVER,
        );
        // With no stall break the loop only stops when an iteration commits
        // nothing (or everything is solved).
        if !out.unsolved.is_empty() {
            assert_eq!(*out.trace.committed_per_iter.last().unwrap(), 0);
        }
    }

    #[test]
    fn oracle_failure_ends_loop_consistently() {
        #[derive(Debug)]
        struct Refusing;
        impl crate::oned::oracle::LpOracle for Refusing {
            fn name(&self) -> &'static str {
                "refusing"
            }
            fn solve_lp(
                &self,
                _items: &[MkpItem],
                _base: &[RowBase],
                _stencil_w: u64,
            ) -> Result<MkpLpSolution, OracleError> {
                Err(OracleError::Failed("test".into()))
            }
        }
        let inst = small_instance();
        let eligible: Vec<usize> = (0..8).collect();
        let out = successive_rounding(
            &inst,
            &eligible,
            2,
            &RoundingConfig::default(),
            &Refusing,
            StopFlag::NEVER,
        );
        assert_eq!(out.trace.oracle_errors, 1);
        assert_eq!(out.unsolved, eligible, "nothing committed, nothing lost");
        assert!(out.last_lp.is_none());
        assert_eq!(out.rows.iter().map(|r| r.members.len()).sum::<usize>(), 0);
    }

    #[test]
    fn nan_lp_values_do_not_panic_the_candidate_sort() {
        // Regression (same bug class as the twod/cluster.rs fix): a backend
        // returning NaN `max_frac` values used to panic the candidate sort
        // via `partial_cmp().unwrap()`. The loop must survive and simply
        // not commit the NaN-valued items meaningfully.
        #[derive(Debug)]
        struct NanOracle;
        impl crate::oned::oracle::LpOracle for NanOracle {
            fn name(&self) -> &'static str {
                "nan"
            }
            fn solve_lp(
                &self,
                items: &[MkpItem],
                base: &[RowBase],
                _stencil_w: u64,
            ) -> Result<MkpLpSolution, OracleError> {
                // Every item "assigned" to row 0 with a_i = 1, but half the
                // items get NaN values and NaN profits — a hostile but
                // type-correct solution shape.
                Ok(MkpLpSolution {
                    fracs: items.iter().map(|_| vec![(0usize, 1.0f64)]).collect(),
                    max_frac: items
                        .iter()
                        .enumerate()
                        .map(|(k, _)| if k % 2 == 0 { f64::NAN } else { 1.0 })
                        .collect(),
                    argmax_row: vec![0; items.len()],
                    objective: f64::NAN,
                    blanks: base.iter().map(|b| b.max_blank).collect(),
                })
            }
        }
        let inst = small_instance();
        let eligible: Vec<usize> = (0..8).collect();
        let out = successive_rounding(
            &inst,
            &eligible,
            2,
            &RoundingConfig::default(),
            &NanOracle,
            StopFlag::NEVER,
        );
        // No panic, and the outcome stays consistent.
        let placed: usize = out.rows.iter().map(|r| r.members.len()).sum();
        assert_eq!(placed + out.unsolved.len(), 8);
    }

    #[test]
    fn empty_eligible_set() {
        let inst = small_instance();
        let out = successive_rounding(
            &inst,
            &[],
            2,
            &RoundingConfig::default(),
            &CombinatorialOracle,
            StopFlag::NEVER,
        );
        assert!(out.unsolved.is_empty());
        assert_eq!(out.rows.iter().map(|r| r.members.len()).sum::<usize>(), 0);
    }

    #[test]
    fn histogram_covers_unsolved_items() {
        let inst = small_instance();
        let eligible: Vec<usize> = (0..8).collect();
        let out = successive_rounding(
            &inst,
            &eligible,
            1,
            &RoundingConfig::default(),
            &CombinatorialOracle,
            StopFlag::NEVER,
        );
        let total: usize = out.trace.last_lp_histogram.iter().sum();
        assert_eq!(total, out.unsolved.len());
    }

    #[test]
    fn admits_is_decision_identical_to_the_cloning_dp() {
        // The staged admission test (estimate quick reject, refusal memo,
        // beam-1 chain bound, exact-DP band) must decide exactly like the
        // original clone-members-and-run-refine_row implementation, on a
        // mix of symmetric and asymmetric characters near capacity.
        let mut chars = Vec::new();
        for i in 0..14u64 {
            let (l, r) = if i % 3 == 0 {
                (3 + i % 5, 3 + i % 5) // symmetric
            } else {
                (2 + i % 7, 1 + (i * 3) % 9) // asymmetric
            };
            let w = 24 + (i * 5) % 22;
            chars.push(Character::new(w.max(l + r + 1), 40, [l, r, 0, 0], 5).unwrap());
        }
        let n = chars.len();
        let inst = Instance::new(
            Stencil::with_rows(120, 40, 40).unwrap(),
            chars,
            vec![vec![1]; n],
        )
        .unwrap();
        let w = inst.stencil().width();

        // Reference: the pre-refactor implementation, verbatim.
        let reference = |row: &RowState, id: CharId| -> bool {
            let c = inst.char(id.index());
            let (eff, blank) = (c.effective_width(), c.symmetric_blank());
            if row.eff_used + eff + row.max_blank.max(blank) > w + 8 {
                return false;
            }
            let mut members = row.members.clone();
            members.push(id);
            let (_, width) = crate::oned::refine_row(&inst, &members, 8);
            width <= w
        };

        // Grow rows greedily in several interleavings; probe every
        // candidate against every intermediate row state. A refused probe
        // leaves the row unchanged, so the next step re-probes it, and
        // every candidate of its shape at least as wide, from the kernel's
        // refusal memo.
        let mut memo_hits = 0;
        for stride in 1..=3usize {
            let mut row = RowState::default();
            for step in 0..n {
                let probe = CharId::from((step * stride) % n);
                for cand in 0..n {
                    let id = CharId::from(cand);
                    if row.members.contains(&id) {
                        continue;
                    }
                    memo_hits += row.probed.memo_refuses(&inst, id, 8, w) as usize;
                    assert_eq!(
                        row.admits(&inst, id, w),
                        reference(&row, id),
                        "stride {stride}, step {step}, candidate {cand}, members {:?}",
                        row.members
                    );
                }
                if !row.members.contains(&probe) && row.admits(&inst, probe, w) {
                    row.commit(&inst, probe);
                    let memo = |c: usize| row.probed.memo_refuses(&inst, CharId::from(c), 8, w);
                    assert!(!(0..n).any(memo), "a commit drops the memo");
                }
            }
        }
        assert!(memo_hits > 0, "the refusal memo was never exercised");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Lemma 1 through the kernel: on an all-symmetric row every
        /// end-insertion order packs to exactly `Σ(w−s) + max s`, so a
        /// symmetric candidate fits exactly when that estimate does. Rows
        /// grow member by member in a shuffled order; before each commit
        /// every candidate is probed at stencil widths of its estimate − 1,
        /// the estimate and the estimate + 1 (clamped to `u64::MAX`), so
        /// the refusal memo sees the cap change between probes. Members and
        /// candidates interleave by id and share blanks, so candidates sort
        /// among members of equal blank, before and past the checkpoints.
        /// With `high` set every candidate is raised by one base, chosen so
        /// that the first candidate's estimate over the full row is
        /// `u64::MAX + 1 + slack`, inside the quick reject's 8 µm margin:
        /// every stencil width probed is then within 2¹⁰ of `u64::MAX`, the
        /// kernel sees rows that overflow `u64`, and the full row overflows
        /// with some candidates and not with others.
        #[test]
        fn all_symmetric_rows_admit_exactly_by_the_estimate(
            shapes in proptest::collection::vec((1u64..32, 0u64..16, 0u32..2), 8..40),
            order in proptest::collection::vec(0u64..1000, 40..41),
            high in 0u32..2,
            slack in 0u64..8,
        ) {
            let (mut members, candidates): (Vec<usize>, Vec<usize>) =
                (0..shapes.len()).partition(|&i| shapes[i].2 == 0);
            members.sort_by_key(|&i| (order[i], i));
            // Character `i` as `(width, blank)`, a candidate `base` wider.
            let shape = |i: usize, base: u64| {
                let (w, s, candidate) = shapes[i];
                let raise = if candidate == 1 { base } else { 0 };
                (raise + w, s.min(w / 2))
            };
            // Estimates in `u128`: `Σ(w−s)` over the set, plus its largest
            // blank.
            let estimate_of = |set: &[usize], base: u64| -> u128 {
                let eff: u128 = set
                    .iter()
                    .map(|&i| {
                        let (w, s) = shape(i, base);
                        u128::from(w - s)
                    })
                    .sum();
                eff + u128::from(set.iter().map(|&i| shape(i, base).1).max().unwrap_or(0))
            };
            let base = match candidates.first() {
                Some(&first) if high == 1 => {
                    let full = estimate_of(&[&members[..], &[first]].concat(), 0);
                    // Candidates are at most 31 wide: keep their widths in
                    // `u64` when the full row is narrower than the slack.
                    let base = (u128::from(u64::MAX) + 1 + u128::from(slack)).saturating_sub(full);
                    u64::try_from(base.min(u128::from(u64::MAX - 31))).unwrap()
                }
                _ => 0,
            };
            let chars: Vec<Character> = (0..shapes.len())
                .map(|i| {
                    let (w, s) = shape(i, base);
                    Character::new(w, 40, [s, s, 0, 0], 5).unwrap()
                })
                .collect();
            let n = chars.len();
            let inst = Instance::new(
                Stencil::with_rows(u64::MAX, 40, 40).unwrap(),
                chars,
                vec![vec![1]; n],
            )
            .unwrap();
            let mut row = RowState::default();
            let mut admitted = 0usize;
            for step in 0..=members.len() {
                let committed = &members[..step];
                for &c in &candidates {
                    let estimate = estimate_of(&[committed, &[c]].concat(), base);
                    for stencil in [estimate - 1, estimate, estimate + 1] {
                        let stencil = u64::try_from(stencil).unwrap_or(u64::MAX);
                        let fits = row.admits(&inst, CharId::from(c), stencil);
                        admitted += usize::from(fits);
                        proptest::prop_assert_eq!(
                            fits,
                            estimate <= u128::from(stencil),
                            "members {:?}, candidate {}, W {}, estimate {}", committed, c, stencil, estimate
                        );
                    }
                }
                if let Some(&m) = members.get(step) {
                    row.commit(&inst, CharId::from(m));
                }
            }
            proptest::prop_assert!(candidates.is_empty() || admitted > 0, "no probe fitted");
        }
    }
}
