/// The set of character candidates selected onto the stencil
/// (the `a_i` variables of the paper).
///
/// A `Selection` is a fixed-length boolean mask over the instance's
/// candidates. It is intentionally a thin wrapper: algorithms flip bits
/// in place while tracking writing times incrementally.
///
/// # Example
///
/// ```
/// use eblow_model::Selection;
///
/// let mut sel = Selection::none(4);
/// sel.insert(2);
/// assert!(sel.contains(2));
/// assert_eq!(sel.iter_selected().collect::<Vec<_>>(), vec![2]);
/// assert_eq!(sel.count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Selection {
    mask: Vec<bool>,
}

impl Selection {
    /// An empty selection over `n` candidates.
    pub fn none(n: usize) -> Self {
        Selection {
            mask: vec![false; n],
        }
    }

    /// A full selection over `n` candidates.
    pub fn all(n: usize) -> Self {
        Selection {
            mask: vec![true; n],
        }
    }

    /// Builds a selection of the given indices over `n` candidates.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= n`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(n: usize, indices: I) -> Self {
        let mut s = Selection::none(n);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Builds a selection from a boolean mask.
    pub fn from_mask(mask: Vec<bool>) -> Self {
        Selection { mask }
    }

    /// Number of candidates covered by the mask (selected or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.mask.len()
    }

    /// `true` if the mask covers zero candidates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mask.is_empty()
    }

    /// Whether candidate `i` is selected.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.mask[i]
    }

    /// Selects candidate `i`. Returns whether the bit changed.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let was = self.mask[i];
        self.mask[i] = true;
        !was
    }

    /// Deselects candidate `i`. Returns whether the bit changed.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        let was = self.mask[i];
        self.mask[i] = false;
        was
    }

    /// Number of selected candidates (the paper's "char #" column).
    pub fn count(&self) -> usize {
        self.mask.iter().filter(|&&b| b).count()
    }

    /// Iterates over selected candidate indices in increasing order.
    pub fn iter_selected(&self) -> impl Iterator<Item = usize> + '_ {
        self.mask
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
    }

    /// Iterates over unselected candidate indices in increasing order.
    pub fn iter_unselected(&self) -> impl Iterator<Item = usize> + '_ {
        self.mask
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (!b).then_some(i))
    }

    /// The raw mask.
    #[inline]
    pub fn as_mask(&self) -> &[bool] {
        &self.mask
    }
}

impl From<Vec<bool>> for Selection {
    fn from(mask: Vec<bool>) -> Self {
        Selection::from_mask(mask)
    }
}

impl FromIterator<bool> for Selection {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        Selection::from_mask(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = Selection::none(5);
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn iterators_partition() {
        let s = Selection::from_indices(5, [1, 4]);
        assert_eq!(s.iter_selected().collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(s.iter_unselected().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn from_iter_collects() {
        let s: Selection = [true, false, true].into_iter().collect();
        assert_eq!(s.count(), 2);
        assert!(!s.is_empty());
    }
}
