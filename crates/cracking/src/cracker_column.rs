//! The cracker column: the physically reorganized copy of a base column.
//!
//! MonetDB's cracking implementation never reorganizes the base column
//! (other plans may rely on its insertion order); the first selection on an
//! attribute creates a copy consisting of `(value, row id)` pairs and all
//! subsequent cracking happens on that copy. This module provides that copy
//! as two parallel dense vectors, plus the low-level accessors the adaptive
//! indexes need.
//!
//! The keys are stored in the narrowest form that holds them. When the
//! column's keys span less than 2^32 — the largest minus the smallest fits a
//! `u32` — each is stored as a `u32` offset from a *frame base*, and a tuple
//! is 8 bytes (4 of key, 4 of row id); otherwise keys stay `i64` and a tuple
//! is 12 bytes. The frame is centred on the keys' `[min, max]`, so keys
//! inserted up to about 2^31 away from them still fit; an insertion outside
//! the frame [`widens`](CrackerColumn::widen) the column to `i64` once. Offsets
//! order like the keys they stand for, so the crack kernels run on them as
//! they are ([`crate::crack::CrackKey`]); keys and bounds are encoded where
//! they meet the arrays, and every accessor speaks [`Key`].
//!
//! The copy is made once, by [`CrackerColumn::from_chunks`], straight out of
//! the slices the base column is stored in: one read of the source and one
//! write of the two arrays, with the row ids written beside the keys rather
//! than materialized first and the key domain noted on the way. The width is
//! chosen before that pass, from a domain the caller already knows (a
//! segment's zone maps), not from another pass over the keys. Told the
//! bounds of the selection that triggered it, the copy is also that
//! selection's crack — the first query pays for one pass over the column,
//! not for a copy and then a crack of the copy. Both arrays are advised onto
//! transparent huge pages before that pass writes them
//! ([`aidx_columnstore::memory`]), so where the host allows it the copy is
//! written on 2 MiB pages, all but each array's ragged ends: a 4 M-key
//! column takes a small share of its ~8 000 page faults at 4 KiB, and the
//! cracks that follow take fewer TLB misses.

use crate::crack::{
    count_below, crack_in_three, crack_in_two_counted, partition_chunks, select_where,
    ChunkPartition, CrackKey, CrackTouch, PivotSide, ThreeWaySplit,
};
use aidx_columnstore::column::FixedColumn;
use aidx_columnstore::memory::advise_huge_pages;
use aidx_columnstore::types::{Key, RowId};
use std::ops::Range;

/// The stored keys, at either width.
#[derive(Debug, Clone, PartialEq)]
enum Stored {
    /// Offsets from the column's frame base.
    Narrow(Vec<u32>),
    /// The keys themselves (the frame base is 0).
    Wide(Vec<Key>),
}

/// Evaluate `$body` with `$keys` bound to the stored key vector, whichever
/// its width: one generic source, instantiated per width.
macro_rules! with_keys {
    ($stored:expr, $keys:ident => $body:expr) => {
        match $stored {
            Stored::Narrow($keys) => $body,
            Stored::Wide($keys) => $body,
        }
    };
}

/// The base of a `u32` frame centred on the keys `[min, max]`, or `None`
/// when their span does not fit one. Computed in `i128`, and kept inside the
/// `i64` domain so that every offset decodes.
fn narrow_base(min: Key, max: Key) -> Option<Key> {
    let slack = i128::from(u32::MAX) - (i128::from(max) - i128::from(min));
    if slack < 0 {
        return None;
    }
    let highest = i128::from(Key::MAX) - i128::from(u32::MAX);
    let base = (i128::from(min) - slack / 2).clamp(i128::from(Key::MIN), highest);
    Key::try_from(base).ok()
}

/// The smallest and largest of `keys` (`None` when there are none): the
/// domain to build a cracker column of a flat slice for, at the price of one
/// pass.
pub fn key_domain(keys: &[Key]) -> Option<(Key, Key)> {
    let min = keys.iter().copied().min()?;
    Some((min, keys.iter().copied().max()?))
}

/// A pair column `(values, row ids)` that cracking physically reorganizes.
///
/// Invariant: the key and row id arrays are equally long, and `rowid(i)` is
/// the position in the *base* column where `value(i)` came from. The pair
/// arrays are kept parallel through every reorganization.
#[derive(Debug, Clone, PartialEq)]
pub struct CrackerColumn {
    /// The key a stored offset of zero stands for.
    base: Key,
    keys: Stored,
    rowids: Vec<RowId>,
}

impl Default for CrackerColumn {
    fn default() -> Self {
        Self::empty(None)
    }
}

impl CrackerColumn {
    /// Create an empty cracker column (narrow, its frame centred on 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty column, narrow when `domain` — a range holding every key it
    /// will store — fits a frame.
    fn empty(domain: Option<(Key, Key)>) -> Self {
        let (min, max) = domain.unwrap_or((0, 0));
        match narrow_base(min, max) {
            Some(base) => CrackerColumn {
                base,
                keys: Stored::Narrow(Vec::new()),
                rowids: Vec::new(),
            },
            None => CrackerColumn {
                base: 0,
                keys: Stored::Wide(Vec::new()),
                rowids: Vec::new(),
            },
        }
    }

    /// Copy a dense key slice into a cracker column (row ids become the
    /// original positions `0..n`): [`Self::from_chunks`] over one chunk, with
    /// no query to partition for, after one pass for the key domain.
    pub fn from_keys(keys: &[Key]) -> Self {
        Self::from_chunks(&[keys], key_domain(keys), None).0
    }

    /// Build the cracker column of a base column stored as `chunks` (row
    /// ids become the positions `0..n` in chunk order), allocating the two
    /// arrays zeroed — on 2 MiB pages where the host allows it
    /// ([`advise_huge_pages`]) — and nothing else. `domain` is a range holding every key
    /// (a segment's zone maps give it; `None` for no keys): the column is
    /// narrow when it fits a frame. With the `[low, high)` of the query that
    /// triggered the build, the pairs land partitioned around it — see
    /// [`partition_chunks`], whose report of the two split positions and the
    /// key domain is returned beside the column.
    ///
    /// # Panics
    /// Panics if a key lies outside `domain`'s frame.
    pub fn from_chunks(
        chunks: &[&[Key]],
        domain: Option<(Key, Key)>,
        bounds: Option<(Key, Key)>,
    ) -> (Self, ChunkPartition) {
        let len = chunks.iter().map(|chunk| chunk.len()).sum();
        let mut column = Self::empty(domain);
        column.rowids = vec![0; len];
        advise_huge_pages(&column.rowids);
        let base = column.base;
        let placed = with_keys!(&mut column.keys, keys => {
            *keys = vec![Default::default(); len];
            advise_huge_pages(keys);
            partition_chunks(chunks, bounds, base, keys, &mut column.rowids)
        });
        (column, placed)
    }

    /// Build directly from parallel vectors (partial cracking's fragments,
    /// the hybrids' crack-organized sources), narrow when the keys fit a
    /// frame.
    ///
    /// # Panics
    /// Panics if the vectors have different lengths.
    pub fn from_pairs(values: Vec<Key>, rowids: Vec<RowId>) -> Self {
        assert_eq!(
            values.len(),
            rowids.len(),
            "cracker column pair arrays must stay parallel"
        );
        let mut column = Self::empty(key_domain(&values));
        let base = column.base;
        match &mut column.keys {
            Stored::Narrow(offsets) => {
                *offsets = (values.iter())
                    .map(|&key| CrackKey::encode(key, base).expect("the frame holds the keys"))
                    .collect();
            }
            Stored::Wide(keys) => *keys = values,
        }
        column.rowids = rowids;
        column
    }

    /// Build from an existing `FixedColumn`.
    pub fn from_fixed(column: &FixedColumn<Key>) -> Self {
        Self::from_keys(column.as_slice())
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.rowids.len()
    }

    /// True when the column holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.rowids.is_empty()
    }

    /// True when keys are stored as `u32` offsets (8-byte tuples), false
    /// when they are stored as `i64` (12-byte tuples).
    pub fn is_narrow(&self) -> bool {
        matches!(self.keys, Stored::Narrow(_))
    }

    /// Bytes per stored key: 4 narrow, 8 wide.
    pub fn key_bytes(&self) -> usize {
        match self.keys {
            Stored::Narrow(_) => std::mem::size_of::<u32>(),
            Stored::Wide(_) => std::mem::size_of::<Key>(),
        }
    }

    /// Bytes per `(key, row id)` tuple of a cracker column over keys in
    /// `[min, max]`: 8 when their span fits a frame, 12 otherwise. Sizing
    /// an index before building it reads this; pass `Key::MIN, Key::MAX`
    /// for a domain nobody knows.
    pub fn tuple_bytes(min: Key, max: Key) -> usize {
        Self::empty(Some((min, max))).key_bytes() + std::mem::size_of::<RowId>()
    }

    /// The key values, decoded, in column order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = Key> + '_ {
        (0..self.len()).map(|position| self.value(position))
    }

    /// The row ids parallel to [`Self::values`].
    #[inline]
    pub fn rowids(&self) -> &[RowId] {
        &self.rowids
    }

    /// The key value at `position`.
    #[inline]
    pub fn value(&self, position: usize) -> Key {
        with_keys!(&self.keys, keys => keys[position].decode(self.base))
    }

    /// The row id at `position`.
    #[inline]
    pub fn rowid(&self, position: usize) -> RowId {
        self.rowids[position]
    }

    /// The smallest and largest key (`None` when the column is empty), read
    /// off the stored keys without decoding each: offsets order like keys.
    pub fn domain(&self) -> Option<(Key, Key)> {
        with_keys!(&self.keys, keys => {
            let min = keys.iter().min()?.decode(self.base);
            Some((min, keys.iter().max()?.decode(self.base)))
        })
    }

    /// Whether `key` can be stored without widening the column.
    pub fn fits(&self, key: Key) -> bool {
        match self.keys {
            Stored::Narrow(_) => <u32 as CrackKey>::encode(key, self.base).is_some(),
            Stored::Wide(_) => true,
        }
    }

    /// Re-encode a narrow column's keys as `i64`, in column order, so that
    /// any key fits; every position, and so every cut over the column, stays
    /// as it was. O(n) for a narrow column, nothing for a wide one; the new
    /// array is written on 2 MiB pages where the host allows it.
    pub fn widen(&mut self) {
        if let Stored::Narrow(offsets) = &self.keys {
            let mut keys = Vec::with_capacity(offsets.len());
            advise_huge_pages(&keys);
            keys.extend(offsets.iter().map(|offset| offset.decode(self.base)));
            (self.base, self.keys) = (0, Stored::Wide(keys));
        }
    }

    /// Append one pair at the end (used by the insert merge).
    ///
    /// # Panics
    /// Panics if `value` does not [`fit`](Self::fits): widen first.
    pub fn push(&mut self, value: Key, rowid: RowId) {
        let base = self.base;
        with_keys!(&mut self.keys, keys => {
            keys.push(CrackKey::encode(value, base).expect("widen before storing this key"))
        });
        self.rowids.push(rowid);
    }

    /// Overwrite the pair at `position`.
    ///
    /// # Panics
    /// Panics if `value` does not [`fit`](Self::fits): widen first.
    pub fn set(&mut self, position: usize, value: Key, rowid: RowId) {
        let base = self.base;
        with_keys!(&mut self.keys, keys => {
            keys[position] = CrackKey::encode(value, base).expect("widen before storing this key")
        });
        self.rowids[position] = rowid;
    }

    /// Copy the pairs of `source` to start at `to` (the ranges may overlap),
    /// as `slice::copy_within` does on each array.
    pub fn copy_within(&mut self, source: Range<usize>, to: usize) {
        with_keys!(&mut self.keys, keys => keys.copy_within(source.clone(), to));
        self.rowids.copy_within(source, to);
    }

    /// Remove the pairs of `range` and return them, keys decoded, in column
    /// order; the pairs above it move down to close the gap.
    pub fn drain(&mut self, range: Range<usize>) -> Vec<(Key, RowId)> {
        let base = self.base;
        let rowids = self.rowids.drain(range.clone());
        with_keys!(&mut self.keys, keys => {
            keys.drain(range).map(|key| key.decode(base)).zip(rowids).collect()
        })
    }

    /// Partition `[begin, end)` in place into `< pivot | >= pivot`
    /// ([`crate::crack::crack_in_two`]) and return the split with what the
    /// crack touched.
    ///
    /// # Panics
    /// Panics unless `pivot` [fits](Self::fits): the cracker index cracks
    /// only on bounds between its keys.
    pub fn crack_in_two(&mut self, begin: usize, end: usize, pivot: Key) -> (usize, CrackTouch) {
        let base = self.base;
        let rowids = &mut self.rowids;
        with_keys!(&mut self.keys, keys => {
            let pivot = CrackKey::encode(pivot, base).expect("a bound between two keys");
            crack_in_two_counted(keys, rowids, begin, end, pivot, PivotSide::Left)
        })
    }

    /// Partition `[begin, end)` in place into
    /// `< low | low <= v < high | >= high` ([`crate::crack::crack_in_three`]).
    ///
    /// # Panics
    /// Panics unless both bounds [fit](Self::fits).
    pub fn crack_in_three(
        &mut self,
        begin: usize,
        end: usize,
        low: Key,
        high: Key,
    ) -> ThreeWaySplit {
        let base = self.base;
        let rowids = &mut self.rowids;
        with_keys!(&mut self.keys, keys => {
            let encode = |bound| CrackKey::encode(bound, base).expect("a bound between two keys");
            crack_in_three(keys, rowids, begin, end, encode(low), encode(high))
        })
    }

    /// The number of keys below `key` in `[begin, end)` ([`count_below`]),
    /// nothing moved.
    ///
    /// # Panics
    /// Panics unless `key` [fits](Self::fits).
    pub fn count_below(&self, begin: usize, end: usize, key: Key) -> usize {
        with_keys!(&self.keys, keys => {
            let bound = CrackKey::encode(key, self.base).expect("a bound between two keys");
            count_below(&keys[begin..end], bound)
        })
    }

    /// Append to `out` the row ids in `[begin, end)` whose key is at least
    /// `first` and at most `last` ([`select_where`]), in column order; a
    /// side without a bound keeps every key, so a piece that lies wholly on
    /// one side of a range is selected with one compare. An empty range
    /// selects nothing and reads neither bound.
    ///
    /// # Panics
    /// Panics on a non-empty range unless each given bound [fits](Self::fits).
    pub fn select(
        &self,
        begin: usize,
        end: usize,
        (first, last): (Option<Key>, Option<Key>),
        out: &mut Vec<RowId>,
    ) {
        if begin >= end {
            return;
        }
        let rowids = &self.rowids[begin..end];
        with_keys!(&self.keys, keys => {
            let keys = &keys[begin..end];
            let encode = |bound| CrackKey::encode(bound, self.base).expect("a bound between two keys");
            match (first.map(encode), last.map(encode)) {
                (Some(first), Some(last)) => {
                    select_where(keys, rowids, |key| (first <= key) & (key <= last), out)
                }
                (Some(first), None) => select_where(keys, rowids, |key| first <= key, out),
                (None, Some(last)) => select_where(keys, rowids, |key| key <= last, out),
                (None, None) => out.extend_from_slice(rowids),
            }
        })
    }

    /// Memory footprint in bytes: 4 or 8 bytes per key (narrow or wide) and
    /// 4 per row id.
    pub fn byte_size(&self) -> usize {
        self.len() * (self.key_bytes() + std::mem::size_of::<RowId>())
    }

    /// Check the parallel-array invariant (useful in tests and debug builds).
    pub fn check_invariants(&self) -> bool {
        with_keys!(&self.keys, keys => keys.len() == self.rowids.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(c: &CrackerColumn) -> Vec<Key> {
        c.values().collect()
    }

    #[test]
    fn from_keys_assigns_dense_rowids() {
        let c = CrackerColumn::from_keys(&[30, 10, 20]);
        assert_eq!(c.len(), 3);
        assert_eq!(values(&c), [30, 10, 20]);
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
    fn push_set_and_copy_within() {
        let mut c = CrackerColumn::new();
        c.push(5, 0);
        c.push(7, 1);
        c.set(0, 6, 9);
        assert_eq!(c.value(0), 6);
        assert_eq!(c.rowid(0), 9);
        c.push(8, 2);
        c.copy_within(0..2, 1);
        assert_eq!(values(&c), [6, 6, 7]);
        assert_eq!(c.rowids(), &[9, 9, 1]);
    }

    #[test]
    fn byte_size_accounts_for_both_arrays() {
        let narrow = CrackerColumn::from_keys(&[1, 2, 3, 4]);
        assert!(narrow.is_narrow());
        assert_eq!(narrow.byte_size(), 4 * (4 + 4));
        let wide = CrackerColumn::from_keys(&[Key::MIN, 2, 3, Key::MAX]);
        assert!(!wide.is_narrow());
        assert_eq!(wide.byte_size(), 4 * (8 + 4));
        assert_eq!(CrackerColumn::tuple_bytes(1, 4), 4 + 4);
        assert_eq!(CrackerColumn::tuple_bytes(Key::MIN, Key::MAX), 8 + 4);
    }

    #[test]
    fn the_frame_is_centred_and_fits_spans_up_to_u32_max() {
        let span = Key::from(u32::MAX);
        for (min, max, narrow) in [
            (0, 0, true),
            (-7, span - 7, true),
            (-7, span - 6, false),
            (Key::MIN, Key::MIN + span, true),
            (Key::MAX - span, Key::MAX, true),
            (Key::MIN, Key::MAX, false),
        ] {
            let c = CrackerColumn::from_keys(&[max, min]);
            assert_eq!(c.is_narrow(), narrow, "[{min}, {max}]");
            assert_eq!(values(&c), [max, min], "[{min}, {max}]");
        }
        // about 2^31 of room on either side of the keys
        let c = CrackerColumn::from_keys(&[100, 200]);
        let half = 1 << 31;
        assert!(c.fits(150 - half + 1) && c.fits(150 + half - 1));
        assert!(!c.fits(150 - half - 100) && !c.fits(150 + half + 100));
        assert!(!c.fits(Key::MIN) && !c.fits(Key::MAX));
    }

    #[test]
    fn widening_keeps_every_pair_in_place() {
        let mut c = CrackerColumn::from_keys(&[9, -4, 6, 1]);
        let (split, _) = c.crack_in_two(0, 4, 5);
        assert_eq!(split, 2);
        let before: Vec<(Key, RowId)> = c.values().zip(c.rowids().iter().copied()).collect();
        c.widen();
        assert!(!c.is_narrow() && c.fits(Key::MAX));
        c.widen();
        let after: Vec<(Key, RowId)> = c.values().zip(c.rowids().iter().copied()).collect();
        assert_eq!(before, after);
        c.push(Key::MAX, 4);
        assert_eq!(c.value(4), Key::MAX);
    }

    /// Assert that `c` holds exactly the pairs `(keys[r], r)`, each once,
    /// and that the pairs in `[begin, end)` are the scan's answer to
    /// `[low, high)`.
    fn assert_answers_like_a_scan(
        c: &CrackerColumn,
        keys: &[Key],
        (begin, end): (usize, usize),
        (low, high): (Key, Key),
    ) {
        assert_eq!(c.len(), keys.len());
        let mut seen = vec![false; keys.len()];
        for (value, &rowid) in c.values().zip(c.rowids()) {
            assert_eq!(value, keys[rowid as usize], "row {rowid}");
            assert!(!std::mem::replace(&mut seen[rowid as usize], true));
        }
        let scan = keys.iter().filter(|&&k| low <= k && k < high).count();
        assert_eq!(end - begin, scan, "[{low}, {high})");
        assert!((begin..end).all(|at| (low..high).contains(&c.value(at))));
    }

    #[test]
    fn a_column_of_whole_huge_pages_answers_like_a_scan() {
        // 2^22 keys: 16 MiB per narrow array, 32 MiB once widened — every
        // array the build and the widening write holds whole 2 MiB pages
        let n: Key = 1 << 22;
        let keys: Vec<Key> = (0..n).map(|i| (i * 2_654_435_761) % n).collect();
        let chunks: Vec<&[Key]> = keys.chunks(1 << 20).collect();
        let domain = Some((0, n - 1));
        let (low, high) = (n / 3, n / 3 + n / 100);

        let (mut c, placed) = CrackerColumn::from_chunks(&chunks, domain, None);
        assert!(c.is_narrow());
        assert_eq!((placed.low_split, placed.high_split), (0, keys.len()));
        let split = c.crack_in_three(0, c.len(), low, high);
        let cut = (split.low_split, split.high_split);
        assert_answers_like_a_scan(&c, &keys, cut, (low, high));

        let (mut c, placed) = CrackerColumn::from_chunks(&chunks, domain, Some((low, high)));
        let cut = (placed.low_split, placed.high_split);
        assert_answers_like_a_scan(&c, &keys, cut, (low, high));

        c.widen();
        assert!(!c.is_narrow());
        assert_answers_like_a_scan(&c, &keys, cut, (low, high));
        let (low, high) = (n / 2, n / 2 + n / 50);
        let split = c.crack_in_three(cut.1, c.len(), low, high);
        let cut = (split.low_split, split.high_split);
        assert_answers_like_a_scan(&c, &keys, cut, (low, high));
    }

    #[test]
    fn cracks_take_bounds_as_keys() {
        let mut c = CrackerColumn::from_keys(&[9, 1, 8, 2]);
        let (split, touch) = c.crack_in_two(0, 4, 5);
        assert_eq!((split, touch.compared), (2, 4));
        assert!(values(&c)[..2].iter().all(|&v| v < 5));
        assert!(c.check_invariants());
        let three = c.crack_in_three(0, 4, 2, 9);
        assert_eq!((three.low_split, three.high_split), (1, 3));
    }

    #[test]
    #[should_panic(expected = "between two keys")]
    fn a_pivot_outside_the_frame_is_refused() {
        CrackerColumn::from_keys(&[9, 1, 8, 2]).crack_in_two(0, 4, Key::MAX);
    }
}
