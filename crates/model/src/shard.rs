//! Sub-instance extraction and plan stitching for sharded planning.
//!
//! Very large MCC instances decompose naturally: the stencil splits into
//! disjoint row bands, and the candidate pool splits into per-shard
//! subsets. Each shard becomes a self-contained [`Instance`] — planners
//! need no sharding awareness at all — and the per-shard plans stitch back
//! into one placement on the original instance.
//!
//! Two invariants make stitching safe:
//!
//! * **Index remapping is explicit.** A [`SubInstance`] carries the map
//!   from its local candidate indices back to the original instance, so a
//!   shard plan's [`CharId`]s translate mechanically.
//! * **Bands are geometric sub-regions.** A shard's stencil has the full
//!   original width and a contiguous band of the original rows, so any
//!   placement legal inside the shard stays legal after translation —
//!   stitching can only *fail* through overlapping bands or duplicated
//!   candidates, both of which [`stitch_1d`] reconciles or rejects.
//!
//! Candidate subsets may overlap between shards (a character with repeats
//! in several region groups is a candidate everywhere it matters); the
//! stitcher drops all but the first placement of a duplicated character
//! and reports the count, since one stencil slot serves every region.

use crate::{CharId, Instance, ModelError, Placement1d, Row, Selection, Stencil};

/// A shard of a larger instance: a candidate subset on a stencil row band,
/// plus the bookkeeping needed to translate plans back.
#[derive(Debug, Clone)]
pub struct SubInstance {
    instance: Instance,
    /// `char_map[local] = original` candidate index.
    char_map: Vec<usize>,
    /// First original stencil row covered by the band.
    row_offset: usize,
}

impl SubInstance {
    /// Extracts a 1D shard: candidates `chars` on the row band
    /// `start_row .. start_row + band_rows` of `original`'s stencil.
    ///
    /// All regions are kept, so the shard's writing-time accounting uses
    /// the same repeat columns as the original (restricted to its own
    /// candidates).
    ///
    /// # Errors
    ///
    /// [`ModelError::NotRowStructured`] for 2D originals,
    /// [`ModelError::ShardBand`] for empty or out-of-range bands,
    /// [`ModelError::UnknownChar`] / [`ModelError::DuplicateChar`] for bad
    /// candidate subsets.
    pub fn extract_rows(
        original: &Instance,
        chars: &[usize],
        start_row: usize,
        band_rows: usize,
    ) -> Result<Self, ModelError> {
        let total_rows = original.num_rows()?;
        let row_height = original
            .stencil()
            .row_height()
            .ok_or(ModelError::NotRowStructured)?;
        if band_rows == 0 || start_row + band_rows > total_rows {
            return Err(ModelError::ShardBand {
                start: start_row as u64,
                extent: band_rows as u64,
                available: total_rows as u64,
            });
        }
        let stencil = Stencil::with_rows(
            original.stencil().width(),
            band_rows as u64 * row_height,
            row_height,
        )?;
        let mut instance = Instance::empty(stencil, original.num_regions(), chars.len())?;
        let mut seen = vec![false; original.num_chars()];
        for &i in chars {
            if i >= original.num_chars() {
                return Err(ModelError::UnknownChar {
                    id: i,
                    num_chars: original.num_chars(),
                });
            }
            if seen[i] {
                return Err(ModelError::DuplicateChar { id: i });
            }
            seen[i] = true;
            instance.push(*original.char(i), original.repeat_row(i).enumerate())?;
        }
        Ok(SubInstance {
            instance,
            char_map: chars.to_vec(),
            row_offset: start_row,
        })
    }

    /// The extracted shard instance.
    #[inline]
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Local candidate index → original candidate index.
    #[inline]
    pub fn char_map(&self) -> &[usize] {
        &self.char_map
    }

    /// First original stencil row covered by the band.
    #[inline]
    pub fn row_offset(&self) -> usize {
        self.row_offset
    }

    /// Maps a local candidate index back to the original instance.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownChar`] if `local` is out of range for this
    /// shard.
    pub fn to_original(&self, local: usize) -> Result<usize, ModelError> {
        self.char_map
            .get(local)
            .copied()
            .ok_or(ModelError::UnknownChar {
                id: local,
                num_chars: self.char_map.len(),
            })
    }
}

/// A stitched sharded plan, re-expressed on the original instance.
#[derive(Debug, Clone)]
pub struct Stitched1d {
    /// The combined placement (validated against the original instance).
    pub placement: Placement1d,
    /// The induced selection over the original candidates.
    pub selection: Selection,
    /// Characters that were selected by more than one shard; every
    /// occurrence after the first was dropped during reconciliation (one
    /// stencil slot serves all regions).
    pub duplicates_dropped: usize,
}

/// Stitches per-shard 1D placements back onto the original instance.
///
/// Each part's rows land at `row_offset + local_row`; a character placed by
/// several shards keeps only its first occurrence (dropping a character
/// from a row can only shrink the row, so reconciliation never invalidates
/// a band). The result is validated against `original` before it is
/// returned.
///
/// # Errors
///
/// [`ModelError::TooManyRows`] if a band extends past the original
/// stencil, [`ModelError::UnknownChar`] for broken index maps, and any
/// validation error of [`Placement1d::validate`] (e.g. overlapping bands
/// producing an over-wide row).
pub fn stitch_1d(
    original: &Instance,
    parts: &[(&SubInstance, &Placement1d)],
) -> Result<Stitched1d, ModelError> {
    let total_rows = original.num_rows()?;
    let mut rows = vec![Row::new(); total_rows];
    let mut seen = vec![false; original.num_chars()];
    let mut duplicates_dropped = 0usize;
    for (sub, placement) in parts {
        for (local_row, row) in placement.rows().iter().enumerate() {
            let target = sub.row_offset() + local_row;
            if target >= total_rows {
                return Err(ModelError::TooManyRows {
                    got: target + 1,
                    available: total_rows,
                });
            }
            for id in row.order() {
                let original_id = sub.to_original(id.index())?;
                if seen[original_id] {
                    duplicates_dropped += 1;
                    continue;
                }
                seen[original_id] = true;
                rows[target].push_right(CharId::from(original_id));
            }
        }
    }
    let placement = Placement1d::from_rows(rows);
    placement.validate(original)?;
    let selection = placement.selection(original.num_chars());
    Ok(Stitched1d {
        placement,
        selection,
        duplicates_dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Character;

    fn inst_1d() -> Instance {
        let chars: Vec<Character> = (0..6)
            .map(|k| Character::new(30 + k, 40, [4, 4, 0, 0], 10).unwrap())
            .collect();
        let repeats = (0..6).map(|k| vec![k as u64, 6 - k as u64]).collect();
        Instance::new(Stencil::with_rows(200, 160, 40).unwrap(), chars, repeats).unwrap()
    }

    #[test]
    fn extract_rows_remaps_and_keeps_regions() {
        let inst = inst_1d();
        let sub = SubInstance::extract_rows(&inst, &[4, 1], 2, 2).unwrap();
        assert_eq!(sub.instance().num_chars(), 2);
        assert_eq!(sub.instance().num_regions(), 2);
        assert_eq!(sub.instance().num_rows().unwrap(), 2);
        assert_eq!(sub.char_map(), &[4, 1]);
        assert_eq!(sub.row_offset(), 2);
        // Local 0 is original 4: width 34, repeats [4, 2].
        assert_eq!(sub.instance().char(0).width(), 34);
        assert_eq!(sub.instance().repeat_row(0).collect::<Vec<_>>(), [4, 2]);
        assert_eq!(sub.to_original(1).unwrap(), 1);
        assert!(sub.to_original(2).is_err());
    }

    #[test]
    fn extract_rejects_bad_bands_and_subsets() {
        let inst = inst_1d();
        assert!(matches!(
            SubInstance::extract_rows(&inst, &[0], 3, 2),
            Err(ModelError::ShardBand { .. })
        ));
        assert!(matches!(
            SubInstance::extract_rows(&inst, &[0], 0, 0),
            Err(ModelError::ShardBand { .. })
        ));
        assert!(matches!(
            SubInstance::extract_rows(&inst, &[0, 0], 0, 1),
            Err(ModelError::DuplicateChar { id: 0 })
        ));
        assert!(matches!(
            SubInstance::extract_rows(&inst, &[9], 0, 1),
            Err(ModelError::UnknownChar { id: 9, .. })
        ));
    }

    #[test]
    fn stitch_1d_translates_rows_and_drops_duplicates() {
        let inst = inst_1d();
        // Shard A: originals {0, 2} on rows 0..2; shard B: {2, 5} on rows 2..4.
        let a = SubInstance::extract_rows(&inst, &[0, 2], 0, 2).unwrap();
        let b = SubInstance::extract_rows(&inst, &[2, 5], 2, 2).unwrap();
        let pa = Placement1d::from_rows(vec![
            Row::from_order(vec![CharId(0), CharId(1)]), // originals 0, 2
            Row::new(),
        ]);
        let pb = Placement1d::from_rows(vec![
            Row::from_order(vec![CharId(0)]), // original 2 again: duplicate
            Row::from_order(vec![CharId(1)]), // original 5
        ]);
        let stitched = stitch_1d(&inst, &[(&a, &pa), (&b, &pb)]).unwrap();
        assert_eq!(stitched.duplicates_dropped, 1);
        assert_eq!(stitched.selection.count(), 3);
        assert!(stitched.selection.contains(0));
        assert!(stitched.selection.contains(2));
        assert!(stitched.selection.contains(5));
        // Original 5 landed on original row 3 (= offset 2 + local 1).
        assert_eq!(stitched.placement.rows()[3].order(), &[CharId(5)]);
        stitched.placement.validate(&inst).unwrap();
    }

    #[test]
    fn stitch_1d_rejects_bands_past_the_stencil() {
        let inst = inst_1d();
        let a = SubInstance::extract_rows(&inst, &[0], 3, 1).unwrap();
        // A two-row placement from a one-row shard walks off the stencil.
        let pa = Placement1d::from_rows(vec![Row::new(), Row::from_order(vec![CharId(0)])]);
        assert!(matches!(
            stitch_1d(&inst, &[(&a, &pa)]),
            Err(ModelError::TooManyRows { .. })
        ));
    }
}
