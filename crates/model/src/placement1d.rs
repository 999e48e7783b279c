use crate::{overlap, CharId, Instance, ModelError, Selection};

/// One stencil row of a 1D placement: characters in left-to-right order.
///
/// Positions are implicit: characters pack left with maximal blank sharing,
/// so the row's minimum width is `Σ w_i − Σ min(sr_i, sl_{i+1})`
/// (see [`overlap::row_width_ordered`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Row {
    order: Vec<CharId>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// A row with the given left-to-right order.
    pub fn from_order(order: Vec<CharId>) -> Self {
        Row { order }
    }

    /// Characters in left-to-right order.
    #[inline]
    pub fn order(&self) -> &[CharId] {
        &self.order
    }

    /// Number of characters on the row.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when the row holds no characters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Appends a character at the right end.
    pub fn push_right(&mut self, id: CharId) {
        self.order.push(id);
    }

    /// Inserts a character at position `pos` (0 = leftmost).
    ///
    /// # Panics
    ///
    /// Panics if `pos > len()`.
    pub fn insert(&mut self, pos: usize, id: CharId) {
        self.order.insert(pos, id);
    }

    /// Removes and returns the character at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn remove(&mut self, pos: usize) -> CharId {
        self.order.remove(pos)
    }

    /// Replaces the character at `pos`, returning the old occupant.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn replace(&mut self, pos: usize, id: CharId) -> CharId {
        std::mem::replace(&mut self.order[pos], id)
    }

    /// Minimum width of this row under maximal blank sharing: the fold of
    /// [`overlap::row_width_ordered`] over the order, with the same
    /// saturating arithmetic, and no allocation.
    pub fn min_width(&self, instance: &Instance) -> u64 {
        self.checked_width(instance).unwrap_or(u64::MAX)
    }

    /// [`Row::min_width`] without saturation: `None` when the width does
    /// not fit a `u64`, so such a row fits no stencil.
    pub fn checked_width(&self, instance: &Instance) -> Option<u64> {
        let Some(last) = self.order.last() else {
            return Some(0);
        };
        let char_of = |id: &CharId| instance.char(id.index());
        self.order
            .windows(2)
            .try_fold(char_of(last).width(), |width, pair| {
                width.checked_add(overlap::paired_width(char_of(&pair[0]), char_of(&pair[1])))
            })
    }

    /// Whether this row with `id` inserted at position `pos` fits `width`;
    /// a row width past `u64::MAX` never does.
    pub fn fits_with(&self, instance: &Instance, pos: usize, id: CharId, width: u64) -> bool {
        let delta = self.insertion_delta(instance, pos, id);
        self.checked_width(instance)
            .and_then(|w| w.checked_add(delta))
            .is_some_and(|w| w <= width)
    }

    /// Width change if `id` were inserted at position `pos`, given maximal
    /// sharing with the new neighbours. Negative deltas are impossible.
    pub fn insertion_delta(&self, instance: &Instance, pos: usize, id: CharId) -> u64 {
        let u = instance.char(id.index());
        let left = pos
            .checked_sub(1)
            .map(|p| instance.char(self.order[p].index()));
        let right = self.order.get(pos).map(|r| instance.char(r.index()));
        let gain_left = left.map_or(0, |l| overlap::h_overlap(l, u));
        let gain_right = right.map_or(0, |r| overlap::h_overlap(u, r));
        let lost = match (left, right) {
            (Some(l), Some(r)) => overlap::h_overlap(l, r),
            _ => 0,
        };
        // Both gains come out of `u`'s own blanks, so the difference
        // cannot underflow; only adding `lost` can pass `u64::MAX`.
        (u.width() - gain_left - gain_right).saturating_add(lost)
    }

    /// The insertion of `id` that grows this row the least while keeping
    /// it within `cap`, as `(position, width delta)`, the lowest position
    /// on ties; `None` when no position fits. `width` is the row's current
    /// width ([`Row::min_width`]), which callers keep up to date; a sum
    /// `width + delta` past `u64::MAX` never fits.
    pub fn best_insertion(
        &self,
        instance: &Instance,
        id: CharId,
        width: u64,
        cap: u64,
    ) -> Option<(usize, u64)> {
        // An insertion shares at most both of the character's blanks, so
        // no position grows the row by less than its pattern width: a row
        // without room for that is refused unprobed.
        let floor = instance.char(id.index()).pattern_width();
        if width.checked_add(floor).is_none_or(|x| x > cap) {
            return None;
        }
        let mut best: Option<(usize, u64)> = None;
        for pos in 0..=self.len() {
            let delta = self.insertion_delta(instance, pos, id);
            let fits = width.checked_add(delta).is_some_and(|x| x <= cap);
            if fits && best.is_none_or(|(_, bd)| delta < bd) {
                best = Some((pos, delta));
            }
        }
        best
    }

    /// X positions of every character when the row is packed flush-left with
    /// maximal sharing. Returned in row order.
    pub fn packed_positions(&self, instance: &Instance) -> Vec<u64> {
        let mut xs = Vec::with_capacity(self.order.len());
        let mut x = 0u64;
        for (k, id) in self.order.iter().enumerate() {
            if k > 0 {
                let prev = instance.char(self.order[k - 1].index());
                let cur = instance.char(id.index());
                x += prev.width() - overlap::h_overlap(prev, cur);
            }
            xs.push(x);
            let _ = instance.char(id.index());
        }
        xs
    }
}

impl FromIterator<CharId> for Row {
    fn from_iter<T: IntoIterator<Item = CharId>>(iter: T) -> Self {
        Row::from_order(iter.into_iter().collect())
    }
}

/// A full 1D stencil placement: one [`Row`] per stencil row.
///
/// Produced by the 1D planners in `eblow-core`. A placement determines the
/// [`Selection`] (every character on some row is on the stencil) and can be
/// validated against the instance with [`Placement1d::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement1d {
    rows: Vec<Row>,
}

impl Placement1d {
    /// An empty placement with `num_rows` rows.
    pub fn empty(num_rows: usize) -> Self {
        Placement1d {
            rows: vec![Row::new(); num_rows],
        }
    }

    /// Builds a placement from explicit rows.
    pub fn from_rows(rows: Vec<Row>) -> Self {
        Placement1d { rows }
    }

    /// The rows of the placement.
    #[inline]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Mutable access to row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut Row {
        &mut self.rows[r]
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Total number of placed characters.
    pub fn num_placed(&self) -> usize {
        self.rows.iter().map(Row::len).sum()
    }

    /// The selection induced by this placement.
    pub fn selection(&self, num_chars: usize) -> Selection {
        Selection::from_indices(
            num_chars,
            self.rows
                .iter()
                .flat_map(|r| r.order().iter().map(|c| c.index())),
        )
    }

    /// Validates the placement against an instance:
    ///
    /// * the instance is row-structured and has at least `rows.len()` rows;
    /// * every id is in range and appears at most once;
    /// * every character fits the row height;
    /// * every row's minimum width fits the stencil width (a width past
    ///   `u64::MAX` never does).
    ///
    /// # Errors
    ///
    /// The first violation found is reported as a [`ModelError`].
    pub fn validate(&self, instance: &Instance) -> Result<(), ModelError> {
        let num_rows = instance.num_rows()?;
        if self.rows.len() > num_rows {
            return Err(ModelError::TooManyRows {
                got: self.rows.len(),
                available: num_rows,
            });
        }
        let row_height = instance
            .stencil()
            .row_height()
            .ok_or(ModelError::NotRowStructured)?;
        let mut seen = vec![false; instance.num_chars()];
        for (r, row) in self.rows.iter().enumerate() {
            for id in row.order() {
                let i = id.index();
                if i >= instance.num_chars() {
                    return Err(ModelError::UnknownChar {
                        id: i,
                        num_chars: instance.num_chars(),
                    });
                }
                if seen[i] {
                    return Err(ModelError::DuplicateChar { id: i });
                }
                seen[i] = true;
                let h = instance.char(i).height();
                if h > row_height {
                    return Err(ModelError::CharTallerThanRow {
                        id: i,
                        height: h,
                        row_height,
                    });
                }
            }
            let width = row.checked_width(instance);
            if width.is_none_or(|w| w > instance.stencil().width()) {
                return Err(ModelError::RowOverflow {
                    row: r,
                    width: width.unwrap_or(u64::MAX),
                    stencil_width: instance.stencil().width(),
                });
            }
        }
        Ok(())
    }

    /// System writing time of the placement's induced selection.
    pub fn total_writing_time(&self, instance: &Instance) -> u64 {
        instance.total_writing_time(&self.selection(instance.num_chars()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Character, Stencil};

    fn inst() -> Instance {
        let chars = vec![
            Character::new(40, 40, [5, 5, 0, 0], 10).unwrap(),
            Character::new(40, 40, [3, 8, 0, 0], 10).unwrap(),
            Character::new(40, 40, [6, 2, 0, 0], 10).unwrap(),
            Character::new(40, 50, [1, 1, 0, 0], 10).unwrap(), // too tall for a row
        ];
        let repeats = vec![vec![1]; 4];
        Instance::new(Stencil::with_rows(100, 80, 40).unwrap(), chars, repeats).unwrap()
    }

    #[test]
    fn row_width_and_positions() {
        let inst = inst();
        let row = Row::from_order(vec![CharId(0), CharId(1), CharId(2)]);
        // overlaps: min(5,3)=3 between 0-1, min(8,6)=6 between 1-2
        assert_eq!(row.min_width(&inst), 120 - 3 - 6);
        assert_eq!(row.packed_positions(&inst), vec![0, 37, 71]);
    }

    #[test]
    fn min_width_equals_the_ordered_row_width() {
        let width_of = |inst: &Instance, order: &[CharId]| {
            let chars: Vec<_> = order.iter().map(|id| inst.char(id.index())).collect();
            overlap::row_width_ordered(&chars)
        };
        let inst = inst();
        for order in [
            vec![],
            vec![CharId(1)],
            vec![CharId(2), CharId(0)],
            vec![CharId(0), CharId(1), CharId(2)],
            vec![CharId(2), CharId(1), CharId(0), CharId(3)],
        ] {
            let row = Row::from_order(order.clone());
            assert_eq!(row.min_width(&inst), width_of(&inst, &order), "{order:?}");
        }
        // Three characters past u64::MAX / 3 saturate the row width.
        let big = u64::MAX / 3 + 10;
        let chars = vec![
            Character::new(big, 40, [0, 4, 0, 0], 10).unwrap(),
            Character::new(big, 40, [3, 1, 0, 0], 10).unwrap(),
            Character::new(big, 40, [2, 0, 0, 0], 10).unwrap(),
        ];
        let huge = Instance::new(
            Stencil::with_rows(100, 40, 40).unwrap(),
            chars,
            vec![vec![1]; 3],
        )
        .unwrap();
        let pair = [CharId(0), CharId(1)];
        assert_eq!(Row::from_order(pair.to_vec()).min_width(&huge), 2 * big - 3);
        let all = [CharId(0), CharId(1), CharId(2)];
        assert_eq!(Row::from_order(all.to_vec()).min_width(&huge), u64::MAX);
        assert_eq!(width_of(&huge, &all), u64::MAX);
        // The checked width tells an overflow from a width of u64::MAX.
        let pair_row = Row::from_order(pair.to_vec());
        assert_eq!(pair_row.checked_width(&huge), Some(2 * big - 3));
        assert_eq!(Row::from_order(all.to_vec()).checked_width(&huge), None);
        assert_eq!(Row::new().checked_width(&huge), Some(0));
    }

    #[test]
    fn insertion_delta_accounts_for_lost_overlap() {
        let inst = inst();
        let row = Row::from_order(vec![CharId(0), CharId(2)]);
        // current adjacent overlap 0-2: min(5,6)=5
        // inserting 1 between: gains min(5,3)=3 and min(8,6)=6, loses 5
        assert_eq!(row.insertion_delta(&inst, 1, CharId(1)), 40 + 5 - 3 - 6);
        // inserting 1 at right end: gains min(2,3)=2
        assert_eq!(row.insertion_delta(&inst, 2, CharId(1)), 40 - 2);
        // inserting 1 at left end: gains min(8,5)=5
        assert_eq!(row.insertion_delta(&inst, 0, CharId(1)), 40 - 5);
    }

    #[test]
    fn best_insertion_takes_the_lowest_narrowest_fit() {
        let chars = vec![
            Character::new(40, 40, [5, 5, 0, 0], 10).unwrap(),
            Character::new(40, 40, [2, 2, 0, 0], 10).unwrap(),
            Character::new(40, 40, [5, 5, 0, 0], 10).unwrap(),
            Character::new(u64::MAX - 35, 40, [0, 5, 0, 0], 10).unwrap(),
            Character::new(u64::MAX - 34, 40, [0, 5, 0, 0], 10).unwrap(),
        ];
        let inst = Instance::new(
            Stencil::with_rows(200, 40, 40).unwrap(),
            chars,
            vec![vec![1]; 5],
        )
        .unwrap();
        let best = |order: Vec<CharId>, cap: u64| {
            let row = Row::from_order(order);
            let width = row.checked_width(&inst).unwrap();
            row.best_insertion(&inst, CharId(2), width, cap)
        };
        // [5|5][2|2] (width 78): positions 0 and 1 both add 35, position
        // 2 adds 38; the lower of the tied positions wins.
        assert_eq!(best(vec![CharId(0), CharId(1)], 200), Some((0, 35)));
        // Mirrored, positions 1 and 2 tie.
        assert_eq!(best(vec![CharId(1), CharId(0)], 200), Some((1, 35)));
        // 78 + 35 = 113 is the narrowest fit: a cap one below refuses,
        // although the pattern-width floor (78 + 30) still passes.
        assert_eq!(best(vec![CharId(0), CharId(1)], 113), Some((0, 35)));
        assert_eq!(best(vec![CharId(0), CharId(1)], 112), None);
        // A row of width u64::MAX - 35 takes the 35 exactly; one unit
        // wider, the floor still passes but width + delta passes u64::MAX
        // at every position, and the row refuses instead of wrapping.
        assert_eq!(best(vec![CharId(3)], u64::MAX), Some((1, 35)));
        assert_eq!(best(vec![CharId(4)], u64::MAX), None);
    }

    #[test]
    fn validate_accepts_legal_placement() {
        let inst = inst();
        let p = Placement1d::from_rows(vec![
            Row::from_order(vec![CharId(0), CharId(1)]),
            Row::from_order(vec![CharId(2)]),
        ]);
        assert!(p.validate(&inst).is_ok());
        assert_eq!(p.num_placed(), 3);
        assert_eq!(p.selection(4).count(), 3);
    }

    #[test]
    fn validate_rejects_overflow_duplicate_tall() {
        let inst = inst();
        let wide =
            Placement1d::from_rows(vec![Row::from_order(vec![CharId(0), CharId(1), CharId(2)])]);
        assert!(matches!(
            wide.validate(&inst),
            Err(ModelError::RowOverflow { .. })
        ));

        let dup = Placement1d::from_rows(vec![
            Row::from_order(vec![CharId(0)]),
            Row::from_order(vec![CharId(0)]),
        ]);
        assert!(matches!(
            dup.validate(&inst),
            Err(ModelError::DuplicateChar { id: 0 })
        ));

        let tall = Placement1d::from_rows(vec![Row::from_order(vec![CharId(3)])]);
        assert!(matches!(
            tall.validate(&inst),
            Err(ModelError::CharTallerThanRow { id: 3, .. })
        ));

        let many = Placement1d::empty(3);
        assert!(matches!(
            many.validate(&inst),
            Err(ModelError::TooManyRows {
                got: 3,
                available: 2
            })
        ));
    }
}
