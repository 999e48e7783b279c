use crate::{overlap, CharId, Instance, ModelError, Selection};

/// A character placed at an absolute stencil position.
///
/// `(x, y)` is the lower-left corner of the character *outline* (blanks
/// included). Coordinates are signed so that planners may hold intermediate
/// out-of-outline states; a valid placement has all coordinates inside
/// `[0, W] × [0, H]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlacedChar {
    /// Which candidate is placed.
    pub id: CharId,
    /// Lower-left x of the outline, µm.
    pub x: i64,
    /// Lower-left y of the outline, µm.
    pub y: i64,
}

/// A 2D stencil placement (2DOSP solution).
///
/// Overlap legality follows the disjunctive constraints (7b)–(7e) of the
/// paper: two placed characters `i`, `j` are compatible iff at least one of
///
/// ```text
/// x_i + w_i − o^h_ij ≤ x_j      (i fully left of j, shared blank allowed)
/// x_j + w_j − o^h_ji ≤ x_i      (j fully left of i)
/// y_i + h_i − o^v_ij ≤ y_j      (i fully below j)
/// y_j + h_j − o^v_ji ≤ y_i      (j fully below i)
/// ```
///
/// holds, where `o^h_ij = min(right_blank_i, left_blank_j)` and
/// `o^v_ij = min(top_blank_i, bottom_blank_j)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Placement2d {
    placed: Vec<PlacedChar>,
}

impl Placement2d {
    /// An empty placement.
    pub fn new() -> Self {
        Placement2d::default()
    }

    /// Builds a placement from placed characters.
    pub fn from_placed(placed: Vec<PlacedChar>) -> Self {
        Placement2d { placed }
    }

    /// The placed characters, in insertion order.
    #[inline]
    pub fn placed(&self) -> &[PlacedChar] {
        &self.placed
    }

    /// Number of placed characters.
    #[inline]
    pub fn len(&self) -> usize {
        self.placed.len()
    }

    /// `true` if nothing is placed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.placed.is_empty()
    }

    /// Adds a placed character.
    pub fn push(&mut self, pc: PlacedChar) {
        self.placed.push(pc);
    }

    /// The selection induced by this placement.
    pub fn selection(&self, num_chars: usize) -> Selection {
        Selection::from_indices(num_chars, self.placed.iter().map(|p| p.id.index()))
    }

    /// Whether the pair `(a, b)` satisfies the disjunctive separation
    /// constraints with blank sharing. Computed in `i128`, where no
    /// coordinate plus size can wrap.
    pub fn pair_compatible(instance: &Instance, a: &PlacedChar, b: &PlacedChar) -> bool {
        let ca = instance.char(a.id.index());
        let cb = instance.char(b.id.index());
        let (ax, ay, bx, by) = (a.x.into(), a.y.into(), b.x.into(), b.y.into());
        let ends_before = |start: i128, size: u64, overlap: u64, other: i128| {
            start + i128::from(size) - i128::from(overlap) <= other
        };
        ends_before(ax, ca.width(), overlap::h_overlap(ca, cb), bx)
            || ends_before(bx, cb.width(), overlap::h_overlap(cb, ca), ax)
            || ends_before(ay, ca.height(), overlap::v_overlap(ca, cb), by)
            || ends_before(by, cb.height(), overlap::v_overlap(cb, ca), ay)
    }

    /// Validates the placement against the instance:
    ///
    /// * ids in range, no duplicates;
    /// * every outline inside `[0, W] × [0, H]` (constraint (7f));
    /// * every pair satisfies the disjunctive separation constraints.
    ///
    /// # Errors
    ///
    /// The first violation found is reported as a [`ModelError`]. The
    /// pairwise check is `O(k²)` over placed characters. Coordinate sums
    /// are computed in `i128`, so no placement wraps into the outline.
    pub fn validate(&self, instance: &Instance) -> Result<(), ModelError> {
        let w = i128::from(instance.stencil().width());
        let h = i128::from(instance.stencil().height());
        let mut seen = vec![false; instance.num_chars()];
        for p in &self.placed {
            let i = p.id.index();
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
            let c = instance.char(i);
            if p.x < 0
                || p.y < 0
                || i128::from(p.x) + i128::from(c.width()) > w
                || i128::from(p.y) + i128::from(c.height()) > h
            {
                return Err(ModelError::OutsideOutline { id: i });
            }
        }
        for (k, a) in self.placed.iter().enumerate() {
            for b in &self.placed[k + 1..] {
                if !Self::pair_compatible(instance, a, b) {
                    return Err(ModelError::IllegalOverlap {
                        a: a.id.index(),
                        b: b.id.index(),
                    });
                }
            }
        }
        Ok(())
    }

    /// System writing time of the placement's induced selection.
    pub fn total_writing_time(&self, instance: &Instance) -> u64 {
        instance.total_writing_time(&self.selection(instance.num_chars()))
    }

    /// Bounding-box area actually used by the placement, µm², saturated
    /// at `u64::MAX`.
    pub fn used_bbox(&self, instance: &Instance) -> (u64, u64) {
        let mut max_x = 0i128;
        let mut max_y = 0i128;
        for p in &self.placed {
            let c = instance.char(p.id.index());
            max_x = max_x.max(i128::from(p.x) + i128::from(c.width()));
            max_y = max_y.max(i128::from(p.y) + i128::from(c.height()));
        }
        let saturate = |v: i128| u64::try_from(v).unwrap_or(u64::MAX);
        (saturate(max_x), saturate(max_y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Character, Stencil};

    fn inst() -> Instance {
        let chars = vec![
            Character::new(40, 40, [5, 5, 5, 5], 10).unwrap(),
            Character::new(40, 40, [5, 5, 5, 5], 10).unwrap(),
            Character::new(30, 20, [2, 2, 2, 2], 10).unwrap(),
        ];
        let repeats = vec![vec![1]; 3];
        Instance::new(Stencil::new(100, 100).unwrap(), chars, repeats).unwrap()
    }

    fn pc(id: usize, x: i64, y: i64) -> PlacedChar {
        PlacedChar {
            id: CharId(id as u32),
            x,
            y,
        }
    }

    #[test]
    fn adjacent_with_shared_blank_is_legal() {
        let inst = inst();
        // chars 0,1 both have blanks 5 → may overlap outlines by 5.
        let p = Placement2d::from_placed(vec![pc(0, 0, 0), pc(1, 35, 0)]);
        assert!(p.validate(&inst).is_ok());
    }

    #[test]
    fn overlapping_past_shared_blank_is_illegal() {
        let inst = inst();
        let p = Placement2d::from_placed(vec![pc(0, 0, 0), pc(1, 34, 0)]);
        assert!(matches!(
            p.validate(&inst),
            Err(ModelError::IllegalOverlap { a: 0, b: 1 })
        ));
    }

    #[test]
    fn vertical_sharing_is_legal() {
        let inst = inst();
        let p = Placement2d::from_placed(vec![pc(0, 0, 0), pc(1, 0, 35)]);
        assert!(p.validate(&inst).is_ok());
    }

    #[test]
    fn outline_enforced() {
        let inst = inst();
        let p = Placement2d::from_placed(vec![pc(0, 61, 0)]);
        assert!(matches!(
            p.validate(&inst),
            Err(ModelError::OutsideOutline { id: 0 })
        ));
        let q = Placement2d::from_placed(vec![pc(0, -1, 0)]);
        assert!(matches!(
            q.validate(&inst),
            Err(ModelError::OutsideOutline { id: 0 })
        ));
    }

    #[test]
    fn duplicate_rejected_and_bbox_computed() {
        let inst = inst();
        let p = Placement2d::from_placed(vec![pc(0, 0, 0), pc(0, 50, 50)]);
        assert!(matches!(
            p.validate(&inst),
            Err(ModelError::DuplicateChar { id: 0 })
        ));
        let q = Placement2d::from_placed(vec![pc(0, 0, 0), pc(2, 60, 60)]);
        assert_eq!(q.used_bbox(&inst), (90, 80));
        assert_eq!(q.selection(3).count(), 2);
    }

    /// A placement far outside the outline used to wrap `x + w` past
    /// `i64::MAX` into the outline in release builds (and panic in debug).
    #[test]
    fn far_outside_placement_is_outside_the_outline() {
        let chars = vec![Character::new(10, 10, [0; 4], 2).unwrap(); 2];
        let inst = Instance::new(Stencil::new(100, 100).unwrap(), chars, vec![vec![1]; 2]).unwrap();
        for (x, y) in [(i64::MAX - 5, 0), (0, i64::MAX - 5), (i64::MAX, i64::MAX)] {
            let p = Placement2d::from_placed(vec![pc(0, x, y)]);
            assert_eq!(p.validate(&inst), Err(ModelError::OutsideOutline { id: 0 }));
        }
        // Pairs far apart compare without wrapping too.
        let far = [pc(0, i64::MAX - 5, 0), pc(1, 0, 0)];
        assert!(Placement2d::pair_compatible(&inst, &far[0], &far[1]));
        assert!(Placement2d::pair_compatible(&inst, &far[1], &far[0]));
        assert_eq!(
            Placement2d::from_placed(far.to_vec()).used_bbox(&inst),
            (i64::MAX as u64 + 5, 10)
        );
    }

    #[test]
    fn diagonal_placement_is_legal() {
        let inst = inst();
        let p = Placement2d::from_placed(vec![pc(0, 0, 0), pc(1, 36, 36)]);
        assert!(p.validate(&inst).is_ok());
    }
}
