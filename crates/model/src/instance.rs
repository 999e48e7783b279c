use crate::{Character, ModelError, Selection};

/// The stencil outline and optional row structure.
///
/// A 1DOSP instance has `row_height` set: the stencil is partitioned into
/// `floor(height / row_height)` standard-cell rows. A 2DOSP instance leaves
/// `row_height` unset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stencil {
    width: u64,
    height: u64,
    row_height: Option<u64>,
}

impl Stencil {
    /// The largest side of a stencil planned in 2D, 2³¹ µm (the largest
    /// generated 2D stencil is 2 500 µm). Every 2D product the planners
    /// form, at most `2·W·H`, then fits `u64`, and every coordinate sum
    /// fits `i64`.
    pub const MAX_2D_SIDE: u64 = 1 << 31;

    /// Creates a free-form (2D) stencil of `width × height` micrometers.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyStencil`] if either dimension is zero and
    /// [`ModelError::StencilTooLarge`] if either exceeds
    /// [`Stencil::MAX_2D_SIDE`].
    pub fn new(width: u64, height: u64) -> Result<Self, ModelError> {
        if width == 0 || height == 0 {
            return Err(ModelError::EmptyStencil);
        }
        let stencil = Stencil {
            width,
            height,
            row_height: None,
        };
        stencil.check_2d()?;
        Ok(stencil)
    }

    /// Creates a row-structured (1D) stencil.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyStencil`] for zero dimensions and
    /// [`ModelError::BadRowHeight`] if `row_height` is zero or exceeds the
    /// stencil height. Both dimensions may take the full `u64` range.
    pub fn with_rows(width: u64, height: u64, row_height: u64) -> Result<Self, ModelError> {
        if width == 0 || height == 0 {
            return Err(ModelError::EmptyStencil);
        }
        if row_height == 0 || row_height > height {
            return Err(ModelError::BadRowHeight {
                row_height,
                stencil_height: height,
            });
        }
        Ok(Stencil {
            width,
            height,
            row_height: Some(row_height),
        })
    }

    /// Checks that the stencil can be planned in 2D: no side above
    /// [`Stencil::MAX_2D_SIDE`]. Free-form stencils always pass;
    /// row-structured ones may be wider or taller.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::StencilTooLarge`] otherwise.
    pub fn check_2d(&self) -> Result<(), ModelError> {
        if self.width.max(self.height) > Self::MAX_2D_SIDE {
            return Err(ModelError::StencilTooLarge {
                width: self.width,
                height: self.height,
            });
        }
        Ok(())
    }

    /// Stencil width `W` in micrometers.
    #[inline]
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Stencil height `H` in micrometers.
    #[inline]
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Row height for 1D instances, if the stencil is row-structured.
    #[inline]
    pub fn row_height(&self) -> Option<u64> {
        self.row_height
    }

    /// Number of rows (`m` in the paper) for a row-structured stencil,
    /// `None` otherwise.
    #[inline]
    pub fn num_rows(&self) -> Option<usize> {
        self.row_height.map(|rh| (self.height / rh) as usize)
    }
}

/// One nonzero column of a candidate's repeat row, in the CSR sparse view
/// (see [`Instance::sparse_row`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseRepeat {
    /// Region index `c` with `t_ic > 0`.
    pub region: u32,
    /// Repeat count `t_ic`.
    pub repeats: u64,
    /// Precomputed reduction `R_ic = t_ic · (n_i − 1)`.
    pub reduction: u64,
}

/// A complete OSP instance for an MCC system (paper Problem 1).
///
/// The wafer is divided into `P` regions, each written by one CP; all CPs
/// share this stencil. `repeats(i, c)` is `t_ic`, the number of times
/// character candidate `i` appears in region `c`.
///
/// Writing-time accounting (Eqn. (1)):
///
/// ```text
/// T_c      = T_VSB_c − Σ_i R_ic·a_i
/// T_VSB_c  = Σ_i t_ic·n_i
/// R_ic     = t_ic·(n_i − 1)
/// T_total  = max_c T_c
/// ```
///
/// # Storage layout
///
/// The CSR rows are the matrix; dense views are derived. Per candidate, the
/// row holds only the regions with `t_ic > 0`, as [`SparseRepeat`] entries
/// carrying the *precomputed* reduction `R_ic = t_ic·(n_i − 1)`. MCC repeat
/// matrices are sparse (most candidates live in a few "home" regions), so
/// the inner loops of profit/writing-time accounting iterate only the
/// nonzero columns and never multiply. The dense views
/// ([`repeats`](Instance::repeats), [`reduction`](Instance::reduction),
/// [`repeat_row`](Instance::repeat_row)) read the same rows and return 0
/// for the columns they leave out.
///
/// Derived sums: `T_VSB_c` per region and `Σ_c R_ic` per candidate.
///
/// Invariants (established by the constructors, relied on by
/// `eblow-core`'s accounting):
///
/// * `sparse` entries of a row are in strictly increasing region order and
///   contain exactly the columns with `t_ic > 0`;
/// * `entry.reduction == entry.repeats · (n_i − 1)` exactly (u64);
/// * `total_reduction(i) == Σ` of the row's `reduction` entries;
/// * `vsb_time(c) == Σ_i t_ic · n_i`.
///
/// [`InstanceDigest`](crate::InstanceDigest) hashes the dense matrix, so
/// it does not depend on the layout.
///
/// Every `T_VSB_c` and every `Σ_c R_ic` fits in a `u64` (construction
/// fails with [`ModelError::Overflow`] otherwise), and `R_ic ≤ t_ic·n_i`,
/// so per-region accounting (`T_c = T_VSB_c − Σ_i R_ic`) never overflows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    stencil: Stencil,
    chars: Vec<Character>,
    num_regions: usize,
    /// Cached `T_VSB_c` per region.
    vsb_times: Vec<u64>,
    /// CSR offsets into `sparse`: row `i` is `sparse[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
    /// Nonzero repeat columns with precomputed reductions, row-major.
    sparse: Vec<SparseRepeat>,
    /// Cached `Σ_c R_ic` per candidate.
    total_reductions: Vec<u64>,
}

impl Instance {
    /// The most regions an instance may have, 2¹⁶: far above the CP counts
    /// of MCC systems (the paper's instances have 10). It keeps region
    /// indices within the CSR rows' `u32`, and the per-region sums a parsed
    /// header asks for small enough to allocate before any row is read.
    pub const MAX_REGIONS: usize = 1 << 16;

    /// Creates an instance from a stencil, candidates, and the repeat matrix.
    ///
    /// `repeats` must have one row per character, each of the same length
    /// `P ≥ 1` (number of regions).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoRegions`], [`ModelError::TooManyRegions`] or
    /// [`ModelError::RaggedRepeats`] on malformed repeat matrices, and
    /// [`ModelError::Overflow`] when a writing time or a candidate's total
    /// reduction exceeds `u64`.
    pub fn new(
        stencil: Stencil,
        chars: Vec<Character>,
        repeats: Vec<Vec<u64>>,
    ) -> Result<Self, ModelError> {
        if repeats.len() != chars.len() {
            return Err(ModelError::RaggedRepeats {
                char_index: repeats.len().min(chars.len()),
                got: repeats.len(),
                expected: chars.len(),
            });
        }
        let num_regions = repeats.first().map(|r| r.len()).unwrap_or(1);
        let mut instance = Instance::empty(stencil, num_regions, chars.len())?;
        for (i, (ch, row)) in chars.into_iter().zip(&repeats).enumerate() {
            if row.len() != num_regions {
                return Err(ModelError::RaggedRepeats {
                    char_index: i,
                    got: row.len(),
                    expected: num_regions,
                });
            }
            instance.push(ch, row.iter().copied().enumerate())?;
        }
        Ok(instance)
    }

    /// Creates an instance from a flat row-major repeat matrix
    /// (`flat[i·num_regions + c] = t_ic`), for generators that would
    /// otherwise build a nested `Vec<Vec<u64>>` only for
    /// [`Instance::new`]. The instance keeps the CSR rows and drops `flat`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoRegions`] when `num_regions == 0`,
    /// [`ModelError::TooManyRegions`] above [`Instance::MAX_REGIONS`],
    /// [`ModelError::RaggedRepeats`] when `flat.len()` is not exactly
    /// `chars.len() · num_regions`, and [`ModelError::Overflow`] when a
    /// writing time or a candidate's total reduction exceeds `u64`.
    pub fn from_flat(
        stencil: Stencil,
        chars: Vec<Character>,
        flat: Vec<u64>,
        num_regions: usize,
    ) -> Result<Self, ModelError> {
        let mut instance = Instance::empty(stencil, num_regions, chars.len())?;
        if chars.len().checked_mul(num_regions) != Some(flat.len()) {
            let rows = flat.len() / num_regions;
            let remainder = flat.len() % num_regions;
            return Err(if remainder != 0 {
                // A trailing partial row: report its actual arity.
                ModelError::RaggedRepeats {
                    char_index: rows,
                    got: remainder,
                    expected: num_regions,
                }
            } else {
                // Whole rows, wrong count — mirror `Instance::new`'s
                // row-count mismatch reporting.
                ModelError::RaggedRepeats {
                    char_index: rows.min(chars.len()),
                    got: rows,
                    expected: chars.len(),
                }
            });
        }
        for (ch, row) in chars.into_iter().zip(flat.chunks_exact(num_regions)) {
            instance.push(ch, row.iter().copied().enumerate())?;
        }
        Ok(instance)
    }

    /// An instance of `num_regions` regions with no candidates yet and
    /// room for `capacity`, which [`Instance::push`] appends. Fails with
    /// [`ModelError::NoRegions`] or [`ModelError::TooManyRegions`].
    pub(crate) fn empty(
        stencil: Stencil,
        num_regions: usize,
        capacity: usize,
    ) -> Result<Self, ModelError> {
        if num_regions == 0 {
            return Err(ModelError::NoRegions);
        }
        if num_regions > Instance::MAX_REGIONS {
            return Err(ModelError::TooManyRegions {
                regions: num_regions,
            });
        }
        let mut offsets = Vec::with_capacity(capacity + 1);
        offsets.push(0);
        Ok(Instance {
            stencil,
            chars: Vec::with_capacity(capacity),
            num_regions,
            vsb_times: vec![0; num_regions],
            offsets,
            sparse: Vec::new(),
            total_reductions: Vec::with_capacity(capacity),
        })
    }

    /// Appends candidate `ch` with its repeats as `(c, t_ic)` in increasing
    /// region order; zero counts may be left out or included. Fails with
    /// [`ModelError::Overflow`] when `T_VSB_c` or `Σ_c R_ic` passes `u64`,
    /// leaving the instance part-built for the caller to drop.
    pub(crate) fn push(
        &mut self,
        ch: Character,
        repeats: impl IntoIterator<Item = (usize, u64)>,
    ) -> Result<(), ModelError> {
        let i = self.chars.len();
        let saving = ch.shot_saving();
        let mut total = 0u64;
        for (c, t) in repeats.into_iter().filter(|&(_, t)| t > 0) {
            let overflow = || ModelError::Overflow {
                char_index: i,
                region: c,
            };
            self.vsb_times[c] = t
                .checked_mul(ch.vsb_shots())
                .and_then(|vsb| self.vsb_times[c].checked_add(vsb))
                .ok_or_else(overflow)?;
            // `saving < vsb_shots`, so this product cannot overflow once
            // the one above did not.
            let reduction = t * saving;
            total = total.checked_add(reduction).ok_or_else(overflow)?;
            self.sparse.push(SparseRepeat {
                region: c as u32,
                repeats: t,
                reduction,
            });
        }
        self.chars.push(ch);
        self.total_reductions.push(total);
        self.offsets.push(self.sparse.len() as u32);
        Ok(())
    }

    /// The stencil of this instance.
    #[inline]
    pub fn stencil(&self) -> Stencil {
        self.stencil
    }

    /// A stable 128-bit content fingerprint of this instance (see
    /// [`crate::InstanceDigest`]). Equal digests imply planning-equivalent
    /// instances, so the digest can key plan caches.
    pub fn digest(&self) -> crate::InstanceDigest {
        crate::InstanceDigest::of(self)
    }

    /// The character candidates.
    #[inline]
    pub fn chars(&self) -> &[Character] {
        &self.chars
    }

    /// Character candidate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn char(&self, i: usize) -> &Character {
        &self.chars[i]
    }

    /// Number of character candidates `n`.
    #[inline]
    pub fn num_chars(&self) -> usize {
        self.chars.len()
    }

    /// Number of wafer regions `P` (one per CP).
    #[inline]
    pub fn num_regions(&self) -> usize {
        self.num_regions
    }

    /// Repeat count `t_ic` of character `i` in region `c`, 0 where the CSR
    /// row leaves the region out.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `c` is out of range.
    pub fn repeats(&self, i: usize, c: usize) -> u64 {
        self.repeat_row(i).nth(c).expect("region out of range")
    }

    /// The full repeat row of character `i` across all `P` regions, zeros
    /// filled in between the CSR row's entries.
    pub fn repeat_row(&self, i: usize) -> impl ExactSizeIterator<Item = u64> + '_ {
        let mut nonzero = self.sparse_row(i).iter().peekable();
        (0..self.num_regions).map(move |c| {
            nonzero
                .next_if(|e| e.region as usize == c)
                .map_or(0, |e| e.repeats)
        })
    }

    /// The nonzero repeat columns of character `i` with precomputed
    /// reductions, in increasing region order — the CSR view the hot
    /// accounting loops iterate instead of scanning all `P` columns.
    #[inline]
    pub fn sparse_row(&self, i: usize) -> &[SparseRepeat] {
        &self.sparse[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Pure-VSB writing time `T_VSB_c` of region `c`.
    #[inline]
    pub fn vsb_time(&self, c: usize) -> u64 {
        self.vsb_times[c]
    }

    /// Pure-VSB writing times for all regions.
    #[inline]
    pub fn vsb_times(&self) -> &[u64] {
        &self.vsb_times
    }

    /// Writing-time reduction `R_ic = t_ic·(n_i − 1)` contributed by putting
    /// character `i` on the stencil, for region `c`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `c` is out of range.
    pub fn reduction(&self, i: usize, c: usize) -> u64 {
        self.repeats(i, c) * self.chars[i].shot_saving()
    }

    /// Per-region writing times `T_c` for a given selection.
    ///
    /// # Panics
    ///
    /// Panics if the selection length differs from [`num_chars`].
    ///
    /// [`num_chars`]: Instance::num_chars
    pub fn writing_times(&self, selection: &Selection) -> Vec<u64> {
        assert_eq!(
            selection.len(),
            self.num_chars(),
            "selection length must equal the number of characters"
        );
        let mut times = self.vsb_times.clone();
        for i in selection.iter_selected() {
            for e in self.sparse_row(i) {
                times[e.region as usize] -= e.reduction;
            }
        }
        times
    }

    /// System writing time `T_total = max_c T_c` for a selection (Eqn. (1)).
    pub fn total_writing_time(&self, selection: &Selection) -> u64 {
        self.writing_times(selection).into_iter().max().unwrap_or(0)
    }

    /// Number of stencil rows for a 1D instance.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotRowStructured`] for 2D instances.
    pub fn num_rows(&self) -> Result<usize, ModelError> {
        self.stencil.num_rows().ok_or(ModelError::NotRowStructured)
    }

    /// Writing-time reduction summed over all regions (unweighted profit),
    /// `Σ_c R_ic`. Cached at construction — O(1).
    #[inline]
    pub fn total_reduction(&self, i: usize) -> u64 {
        self.total_reductions[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> Instance {
        let chars = vec![
            Character::new(40, 40, [5, 5, 5, 5], 10).unwrap(),
            Character::new(30, 40, [4, 6, 5, 5], 4).unwrap(),
            Character::new(50, 40, [2, 2, 5, 5], 7).unwrap(),
        ];
        let repeats = vec![vec![3, 0], vec![1, 5], vec![2, 2]];
        Instance::new(Stencil::with_rows(200, 80, 40).unwrap(), chars, repeats).unwrap()
    }

    #[test]
    fn vsb_times_cached() {
        let inst = inst();
        // region 0: 3*10 + 1*4 + 2*7 = 48 ; region 1: 0 + 5*4 + 2*7 = 34
        assert_eq!(inst.vsb_times(), &[48, 34]);
    }

    #[test]
    fn writing_time_matches_formula() {
        let inst = inst();
        let sel = Selection::from_indices(3, [0, 2]);
        // region 0: 48 - 3*9 - 2*6 = 9 ; region 1: 34 - 0 - 2*6 = 22
        assert_eq!(inst.writing_times(&sel), vec![9, 22]);
        assert_eq!(inst.total_writing_time(&sel), 22);
    }

    #[test]
    fn empty_selection_gives_vsb_time() {
        let inst = inst();
        let sel = Selection::none(3);
        assert_eq!(inst.total_writing_time(&sel), 48);
    }

    #[test]
    fn full_selection_gives_cp_only_time() {
        let inst = inst();
        let sel = Selection::all(3);
        // region 0: 3+1+2 = 6 ; region 1: 0+5+2 = 7 (each use = 1 shot)
        assert_eq!(inst.writing_times(&sel), vec![6, 7]);
    }

    #[test]
    fn ragged_repeats_rejected() {
        let chars = vec![Character::new(40, 40, [5, 5, 5, 5], 10).unwrap()];
        let err = Instance::new(
            Stencil::new(100, 100).unwrap(),
            chars,
            vec![vec![1], vec![2]],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::RaggedRepeats { .. }));
    }

    #[test]
    fn stencil_rows() {
        let s = Stencil::with_rows(1000, 1000, 40).unwrap();
        assert_eq!(s.num_rows(), Some(25));
        assert!(Stencil::with_rows(10, 10, 0).is_err());
        assert!(Stencil::with_rows(10, 10, 11).is_err());
        assert!(Stencil::new(0, 5).is_err());
    }

    #[test]
    fn sparse_view_matches_dense_rows() {
        let inst = inst();
        for (i, row) in [[3, 0], [1, 5], [2, 2]].iter().enumerate() {
            let saving = inst.char(i).shot_saving();
            assert_eq!(inst.repeat_row(i).collect::<Vec<_>>(), row);
            let nonzeros: Vec<SparseRepeat> = (0..2)
                .filter(|&c| row[c] > 0)
                .map(|c| SparseRepeat {
                    region: c as u32,
                    repeats: row[c],
                    reduction: row[c] * saving,
                })
                .collect();
            assert_eq!(inst.sparse_row(i), &nonzeros[..]);
            for (c, &t) in row.iter().enumerate() {
                assert_eq!(inst.repeats(i, c), t);
                assert_eq!(inst.reduction(i, c), t * saving);
            }
            assert_eq!(inst.total_reduction(i), row.iter().sum::<u64>() * saving);
        }
    }

    #[test]
    fn from_flat_equals_nested_constructor() {
        let chars = vec![
            Character::new(40, 40, [5, 5, 5, 5], 10).unwrap(),
            Character::new(30, 40, [4, 6, 5, 5], 4).unwrap(),
        ];
        let nested = Instance::new(
            Stencil::with_rows(200, 80, 40).unwrap(),
            chars.clone(),
            vec![vec![3, 0], vec![1, 5]],
        )
        .unwrap();
        let flat = Instance::from_flat(
            Stencil::with_rows(200, 80, 40).unwrap(),
            chars,
            vec![3, 0, 1, 5],
            2,
        )
        .unwrap();
        assert_eq!(nested, flat);
        assert_eq!(nested.digest(), flat.digest());
    }

    #[test]
    fn from_flat_rejects_bad_shapes() {
        let chars = vec![Character::new(40, 40, [5, 5, 5, 5], 10).unwrap()];
        assert!(matches!(
            Instance::from_flat(Stencil::new(100, 100).unwrap(), chars.clone(), vec![1], 0),
            Err(ModelError::NoRegions)
        ));
        assert!(matches!(
            Instance::from_flat(
                Stencil::new(100, 100).unwrap(),
                chars.clone(),
                vec![1, 2, 3],
                2
            ),
            Err(ModelError::RaggedRepeats { .. })
        ));
    }

    /// Regression: `chars.len() · num_regions` overflowed (a panic in
    /// debug builds) before the region count was checked.
    #[test]
    fn region_counts_past_the_limit_are_an_error() {
        let stencil = Stencil::new(100, 100).unwrap();
        let chars = vec![Character::new(40, 40, [5, 5, 5, 5], 10).unwrap(); 2];
        for regions in [Instance::MAX_REGIONS + 1, usize::MAX] {
            assert_eq!(
                Instance::from_flat(stencil, chars.clone(), vec![], regions),
                Err(ModelError::TooManyRegions { regions })
            );
        }
        let widest = Instance::from_flat(stencil, vec![], vec![], Instance::MAX_REGIONS).unwrap();
        assert_eq!(widest.num_regions(), Instance::MAX_REGIONS);
    }
}
