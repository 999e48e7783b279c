use crate::ModelError;
use std::fmt;

/// Identifier of a character candidate inside an [`Instance`].
///
/// The id is the index of the candidate in [`Instance::chars`]; it is a plain
/// newtype so that indices into different collections cannot be confused.
///
/// [`Instance`]: crate::Instance
/// [`Instance::chars`]: crate::Instance::chars
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CharId(pub u32);

impl CharId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for CharId {
    fn from(i: usize) -> Self {
        CharId(i as u32)
    }
}

impl fmt::Display for CharId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Blank margins reserved around a character's pattern body, in micrometers.
///
/// The blank space is reserved clearance between the pattern and the
/// character boundary. Adjacent characters on a stencil may *share* blanks:
/// two horizontally adjacent characters `a` (left) and `b` (right) may be
/// pushed together by [`overlap::h_overlap`]`(a, b) = min(a.right, b.left)`.
///
/// [`overlap::h_overlap`]: crate::overlap::h_overlap
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Blanks {
    /// Blank on the left edge.
    pub left: u64,
    /// Blank on the right edge.
    pub right: u64,
    /// Blank on the bottom edge.
    pub bottom: u64,
    /// Blank on the top edge.
    pub top: u64,
}

impl Blanks {
    /// Creates blanks from `[left, right, bottom, top]`.
    pub fn new(left: u64, right: u64, bottom: u64, top: u64) -> Self {
        Blanks {
            left,
            right,
            bottom,
            top,
        }
    }
}

/// A character candidate: the unit that may be placed on a CP stencil.
///
/// A character occupies `width × height` micrometers on the stencil,
/// including its blank margins. Printing it through the character projection
/// costs **1 shot**; printing the same pattern through VSB costs
/// [`vsb_shots`](Character::vsb_shots) shots (`n_i` in the paper, `n_i ≥ 1`).
///
/// Invariants enforced by [`Character::new`]:
/// * `width > 0`, `height > 0`, `vsb_shots ≥ 1`;
/// * `left + right ≤ width` and `bottom + top ≤ height` (the pattern body is
///   non-negative in both axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Character {
    width: u64,
    height: u64,
    blanks: Blanks,
    vsb_shots: u64,
}

impl Character {
    /// Creates a character.
    ///
    /// `blanks` is `[left, right, bottom, top]` in micrometers.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ZeroDimension`], [`ModelError::ZeroShots`] or
    /// [`ModelError::BlanksExceedSize`] when the invariants documented on
    /// [`Character`] are violated.
    ///
    /// # Example
    ///
    /// ```
    /// use eblow_model::Character;
    /// # fn main() -> Result<(), eblow_model::ModelError> {
    /// let c = Character::new(40, 40, [5, 7, 4, 4], 25)?;
    /// assert_eq!(c.pattern_width(), 40 - 5 - 7);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(
        width: u64,
        height: u64,
        blanks: [u64; 4],
        vsb_shots: u64,
    ) -> Result<Self, ModelError> {
        let blanks = Blanks::new(blanks[0], blanks[1], blanks[2], blanks[3]);
        if width == 0 || height == 0 {
            return Err(ModelError::ZeroDimension);
        }
        if vsb_shots == 0 {
            return Err(ModelError::ZeroShots);
        }
        // A sum past `u64::MAX` exceeds any extent; it is reported
        // saturated instead of wrapping around to a small value.
        for (axis, a, b, size) in [
            ("horizontal", blanks.left, blanks.right, width),
            ("vertical", blanks.bottom, blanks.top, height),
        ] {
            match a.checked_add(b) {
                Some(sum) if sum <= size => {}
                sum => {
                    return Err(ModelError::BlanksExceedSize {
                        axis,
                        blanks: sum.unwrap_or(u64::MAX),
                        size,
                    })
                }
            }
        }
        Ok(Character {
            width,
            height,
            blanks,
            vsb_shots,
        })
    }

    /// Total width including blanks, in micrometers.
    #[inline]
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Total height including blanks, in micrometers.
    #[inline]
    pub fn height(&self) -> u64 {
        self.height
    }

    /// The blank margins.
    #[inline]
    pub fn blanks(&self) -> Blanks {
        self.blanks
    }

    /// Number of VSB shots needed to write this pattern without the stencil
    /// (`n_i` in the paper).
    #[inline]
    pub fn vsb_shots(&self) -> u64 {
        self.vsb_shots
    }

    /// Width of the pattern body (width minus horizontal blanks).
    #[inline]
    pub fn pattern_width(&self) -> u64 {
        self.width - self.blanks.left - self.blanks.right
    }

    /// Height of the pattern body (height minus vertical blanks).
    #[inline]
    pub fn pattern_height(&self) -> u64 {
        self.height - self.blanks.bottom - self.blanks.top
    }

    /// Area of the character outline in µm².
    #[inline]
    pub fn area(&self) -> u64 {
        self.width * self.height
    }

    /// Symmetric horizontal blank `s_i = ceil((sl_i + sr_i)/2)` used by the
    /// simplified 1D formulation (paper §3.1).
    #[inline]
    pub fn symmetric_blank(&self) -> u64 {
        (self.blanks.left + self.blanks.right).div_ceil(2)
    }

    /// Effective width under the S-Blank assumption: `w_i − s_i`.
    ///
    /// Lemma 1 shows a full row of S-Blank characters packs into
    /// `Σ (w_i − s_i) + max_i s_i`, so `w_i − s_i` acts as the per-character
    /// capacity consumption.
    #[inline]
    pub fn effective_width(&self) -> u64 {
        self.width - self.symmetric_blank().min(self.width)
    }

    /// Per-use shot saving when this character is on the stencil:
    /// `n_i − 1` shots per repetition.
    #[inline]
    pub fn shot_saving(&self) -> u64 {
        self.vsb_shots - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_blanks() {
        assert!(Character::new(10, 10, [6, 5, 0, 0], 1).is_err());
        assert!(Character::new(10, 10, [0, 0, 6, 5], 1).is_err());
        assert!(Character::new(10, 10, [5, 5, 5, 5], 1).is_ok());
    }

    /// Blank sums past `u64::MAX` used to wrap in release builds (2^63 +
    /// 2^63 = 0 ≤ 10) and panic in debug builds; both axes now refuse
    /// them, reporting the sum saturated.
    #[test]
    fn new_refuses_blank_sums_that_overflow() {
        let half = 1u64 << 63;
        for (blanks, axis) in [
            ([half, half, 0, 0], "horizontal"),
            ([0, 0, half, half], "vertical"),
            ([u64::MAX, 1, 0, 0], "horizontal"),
        ] {
            assert_eq!(
                Character::new(10, 10, blanks, 1),
                Err(ModelError::BlanksExceedSize {
                    axis,
                    blanks: u64::MAX,
                    size: 10,
                })
            );
        }
        assert_eq!(
            Character::new(10, 10, [6, 5, 0, 0], 1),
            Err(ModelError::BlanksExceedSize {
                axis: "horizontal",
                blanks: 11,
                size: 10,
            })
        );
    }

    #[test]
    fn new_rejects_zero() {
        assert_eq!(
            Character::new(0, 10, [0, 0, 0, 0], 1),
            Err(ModelError::ZeroDimension)
        );
        assert_eq!(
            Character::new(10, 0, [0, 0, 0, 0], 1),
            Err(ModelError::ZeroDimension)
        );
        assert_eq!(
            Character::new(10, 10, [0, 0, 0, 0], 0),
            Err(ModelError::ZeroShots)
        );
    }

    #[test]
    fn pattern_dims() {
        let c = Character::new(40, 30, [3, 5, 2, 4], 9).unwrap();
        assert_eq!(c.pattern_width(), 32);
        assert_eq!(c.pattern_height(), 24);
        assert_eq!(c.area(), 1200);
        assert_eq!(c.shot_saving(), 8);
    }

    #[test]
    fn symmetric_blank_rounds_up() {
        let c = Character::new(40, 40, [3, 4, 0, 0], 2).unwrap();
        assert_eq!(c.symmetric_blank(), 4); // ceil(7/2)
        let d = Character::new(40, 40, [4, 4, 0, 0], 2).unwrap();
        assert_eq!(d.symmetric_blank(), 4);
    }

    #[test]
    fn char_id_display_and_index() {
        let id = CharId(7);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "c7");
        assert_eq!(CharId::from(3usize), CharId(3));
    }
}
