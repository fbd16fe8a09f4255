//! The cracker column: the physically reorganized copy of a base column.
//!
//! MonetDB's cracking implementation never reorganizes the base column
//! (other plans may rely on its insertion order); the first selection on an
//! attribute creates a copy consisting of `(value, row id)` pairs and all
//! subsequent cracking happens on that copy. This module provides that copy
//! as two parallel dense vectors, plus the low-level accessors the adaptive
//! indexes need.
//!
//! The copy is made once, by [`CrackerColumn::from_chunks`], straight out of
//! the slices the base column is stored in: one read of the source and one
//! write of the two arrays, with the row ids written beside the keys rather
//! than materialized first and the key domain noted on the way. Told the
//! bounds of the selection that triggered it, the copy is also that
//! selection's crack — the first query pays for one pass over the column,
//! not for a copy and then a crack of the copy.

use crate::crack::{partition_chunks, ChunkPartition};
use aidx_columnstore::column::FixedColumn;
use aidx_columnstore::types::{Key, RowId};

/// A pair column `(values, row ids)` that cracking physically reorganizes.
///
/// Invariant: `values.len() == rowids.len()`, and `rowids[i]` is the position
/// in the *base* column where `values[i]` came from. The pair arrays are kept
/// parallel through every reorganization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrackerColumn {
    values: Vec<Key>,
    rowids: Vec<RowId>,
}

impl CrackerColumn {
    /// Create an empty cracker column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy a dense key slice into a cracker column (row ids become the
    /// original positions `0..n`): [`Self::from_chunks`] over one chunk, with
    /// no query to partition for.
    pub fn from_keys(keys: &[Key]) -> Self {
        Self::from_chunks(&[keys], None).0
    }

    /// Build the cracker column of a base column stored as `chunks` (row
    /// ids become the positions `0..n` in chunk order), allocating the two
    /// arrays zeroed and nothing else. With the `[low, high)` of the query
    /// that triggered the build, the pairs land partitioned around it — see
    /// [`partition_chunks`], whose report of the two split positions and the
    /// key domain is returned beside the column.
    pub fn from_chunks(chunks: &[&[Key]], bounds: Option<(Key, Key)>) -> (Self, ChunkPartition) {
        let len = chunks.iter().map(|chunk| chunk.len()).sum();
        let mut column = CrackerColumn {
            values: vec![0; len],
            rowids: vec![0; len],
        };
        let placed = partition_chunks(chunks, bounds, &mut column.values, &mut column.rowids);
        (column, placed)
    }

    /// Build directly from parallel vectors (used by updates and hybrids).
    ///
    /// # Panics
    /// Panics if the vectors have different lengths.
    pub fn from_pairs(values: Vec<Key>, rowids: Vec<RowId>) -> Self {
        assert_eq!(
            values.len(),
            rowids.len(),
            "cracker column pair arrays must stay parallel"
        );
        CrackerColumn { values, rowids }
    }

    /// Build from an existing `FixedColumn`.
    pub fn from_fixed(column: &FixedColumn<Key>) -> Self {
        Self::from_keys(column.as_slice())
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the column holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The key values.
    #[inline]
    pub fn values(&self) -> &[Key] {
        &self.values
    }

    /// The row ids parallel to [`Self::values`].
    #[inline]
    pub fn rowids(&self) -> &[RowId] {
        &self.rowids
    }

    /// Mutable access to both parallel arrays (the crack kernels need both).
    #[inline]
    pub fn pair_slices_mut(&mut self) -> (&mut [Key], &mut [RowId]) {
        (&mut self.values, &mut self.rowids)
    }

    /// The key value at `position`.
    #[inline]
    pub fn value(&self, position: usize) -> Key {
        self.values[position]
    }

    /// The row id at `position`.
    #[inline]
    pub fn rowid(&self, position: usize) -> RowId {
        self.rowids[position]
    }

    /// Append one pair at the end (used by the update merge paths).
    pub fn push(&mut self, value: Key, rowid: RowId) {
        self.values.push(value);
        self.rowids.push(rowid);
    }

    /// Overwrite the pair at `position`.
    pub fn set(&mut self, position: usize, value: Key, rowid: RowId) {
        self.values[position] = value;
        self.rowids[position] = rowid;
    }

    /// Swap two pairs.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.values.swap(a, b);
        self.rowids.swap(a, b);
    }

    /// Remove the last pair and return it.
    pub fn pop(&mut self) -> Option<(Key, RowId)> {
        match (self.values.pop(), self.rowids.pop()) {
            (Some(v), Some(r)) => Some((v, r)),
            _ => None,
        }
    }

    /// Truncate to `len` pairs.
    pub fn truncate(&mut self, len: usize) {
        self.values.truncate(len);
        self.rowids.truncate(len);
    }

    /// Sort a sub-range `[begin, end)` of the column by value (used when a
    /// piece is promoted to "sorted" state, e.g. by adaptive merging hybrids
    /// or when a piece shrinks below the sort threshold).
    pub fn sort_range(&mut self, begin: usize, end: usize) {
        let mut paired: Vec<(Key, RowId)> = self.values[begin..end]
            .iter()
            .copied()
            .zip(self.rowids[begin..end].iter().copied())
            .collect();
        paired.sort_unstable_by_key(|&(v, _)| v);
        for (i, (v, r)) in paired.into_iter().enumerate() {
            self.values[begin + i] = v;
            self.rowids[begin + i] = r;
        }
    }

    /// Whether the sub-range `[begin, end)` is sorted by value.
    pub fn is_sorted_range(&self, begin: usize, end: usize) -> bool {
        self.values[begin..end].windows(2).all(|w| w[0] <= w[1])
    }

    /// The values in `[begin, end)`.
    pub fn values_in(&self, begin: usize, end: usize) -> &[Key] {
        &self.values[begin..end]
    }

    /// Approximate memory footprint in bytes (8 bytes per key + 4 per row id).
    pub fn byte_size(&self) -> usize {
        self.values.len() * std::mem::size_of::<Key>()
            + self.rowids.len() * std::mem::size_of::<RowId>()
    }

    /// Check the parallel-array invariant (useful in tests and debug builds).
    pub fn check_invariants(&self) -> bool {
        self.values.len() == self.rowids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_keys_assigns_dense_rowids() {
        let c = CrackerColumn::from_keys(&[30, 10, 20]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.values(), &[30, 10, 20]);
        assert_eq!(c.rowids(), &[0, 1, 2]);
        assert!(c.check_invariants());
        assert!(!c.is_empty());
    }

    #[test]
    fn from_fixed_matches_from_keys() {
        let fixed: FixedColumn<Key> = vec![9, 8, 7].into();
        assert_eq!(
            CrackerColumn::from_fixed(&fixed),
            CrackerColumn::from_keys(&[9, 8, 7])
        );
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn from_pairs_rejects_mismatched_lengths() {
        let _ = CrackerColumn::from_pairs(vec![1, 2], vec![0]);
    }

    #[test]
    fn push_set_swap_pop_truncate() {
        let mut c = CrackerColumn::new();
        c.push(5, 0);
        c.push(7, 1);
        c.set(0, 6, 9);
        assert_eq!(c.value(0), 6);
        assert_eq!(c.rowid(0), 9);
        c.swap(0, 1);
        assert_eq!(c.value(0), 7);
        assert_eq!(c.pop(), Some((6, 9)));
        assert_eq!(c.len(), 1);
        c.truncate(0);
        assert!(c.is_empty());
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn sort_range_sorts_only_that_range() {
        let mut c = CrackerColumn::from_keys(&[9, 5, 3, 8, 1]);
        c.sort_range(1, 4);
        assert_eq!(c.values(), &[9, 3, 5, 8, 1]);
        assert!(c.is_sorted_range(1, 4));
        assert!(!c.is_sorted_range(0, 5));
        // row ids still point at the original values
        for i in 0..c.len() {
            assert_eq!([9, 5, 3, 8, 1][c.rowid(i) as usize], c.value(i));
        }
    }

    #[test]
    fn values_in_borrows_the_range() {
        let c = CrackerColumn::from_keys(&[40, 10, 30, 20]);
        assert_eq!(c.values_in(1, 3), &[10, 30]);
    }

    #[test]
    fn byte_size_accounts_for_both_arrays() {
        let c = CrackerColumn::from_keys(&[1, 2, 3, 4]);
        assert_eq!(c.byte_size(), 4 * (8 + 4));
    }

    #[test]
    fn pair_slices_mut_allows_in_place_cracking() {
        let mut c = CrackerColumn::from_keys(&[9, 1, 8, 2]);
        {
            let (values, rowids) = c.pair_slices_mut();
            let split =
                crate::crack::crack_in_two(values, rowids, 0, 4, 5, crate::crack::PivotSide::Left);
            assert_eq!(split, 2);
        }
        assert!(c.values()[..2].iter().all(|&v| v < 5));
        assert!(c.check_invariants());
    }
}
