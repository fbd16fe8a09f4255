//! Chunked append-only segment storage.
//!
//! A [`Segment<T>`] stores a column as a sequence of immutable *sealed
//! chunks* plus one mutable *tail chunk*:
//!
//! * Sealed chunks hold exactly [`Segment::chunk_capacity`] rows, live behind
//!   [`std::sync::Arc`], and carry a [`ZoneMap`] (min/max/count, null-free
//!   flag) computed at seal time. They are never mutated again.
//! * The tail accumulates appends. When it reaches the chunk capacity it is
//!   sealed and a fresh tail begins. The tail's zone map is maintained
//!   incrementally so chunk-at-a-time scans can prune it like any other
//!   chunk.
//!
//! Cloning a segment — which is what the catalog's copy-on-write does when a
//! writer appends while a snapshot is alive — bumps the reference count of
//! every sealed chunk and deep-copies only the tail, so the cost of an append
//! under a live snapshot is `O(chunk)` instead of `O(table)`. Sealed chunks
//! are therefore pointer-shared across snapshots ([`Segment::sealed_chunks`]
//! exposes them so tests can assert `Arc::ptr_eq`).
//!
//! Row identity is unchanged from the flat representation: a [`RowId`] is the
//! stable global position of the row. Chunks sealed by an overflowing tail
//! are always exactly full, so `(chunk, offset)` is derived as
//! `(rowid / capacity, rowid % capacity)` on that fast path; a tail can also
//! be sealed *early* ([`Segment::seal_tail`] — the copy-on-write append path
//! seals the tails of its private clone, so repeated appends under snapshots
//! copy only the rows appended since the last seal instead of a tail that
//! keeps growing toward a full chunk), which produces **undersized**
//! sealed chunks. A segment with undersized chunks keeps a per-chunk base
//! table and resolves positions by binary search instead of division. Heavy
//! insert churn under snapshots therefore fragments a column into many small
//! sealed chunks; [`Segment::compact_runs`] merges runs of them back into
//! full chunks **without changing any row's global position**, which is what
//! lets the maintenance subsystem reconcile adaptive indexes across a
//! compaction instead of rebuilding them. Adaptive indexes built on top of a
//! segment keep emitting global positions, so nothing above the storage layer
//! has to re-learn row identity.

mod chunk;
mod group;
mod zone;

pub use chunk::{ChunkView, SealedChunk};
pub use group::{ChunkGroups, ChunkSpan};
pub use zone::ZoneMap;

use crate::types::RowId;
use std::borrow::Cow;
use std::sync::Arc;

/// Default number of rows per chunk.
///
/// 4096 eight-byte keys is 32 KiB per chunk: large enough that per-chunk
/// bookkeeping vanishes in scan cost, small enough that the copy-on-write
/// tail clone stays far below a whole-table copy.
pub const DEFAULT_SEGMENT_CAPACITY: usize = 4096;

/// A chunked, append-only column: `Arc`-shared sealed chunks plus one
/// mutable tail chunk.
#[derive(Debug, Clone)]
pub struct Segment<T> {
    capacity: usize,
    sealed: Vec<Arc<SealedChunk<T>>>,
    /// Global base position of each sealed chunk (`bases[i]` = number of
    /// rows in sealed chunks before chunk `i`). Consulted only when the
    /// segment is not `uniform`.
    bases: Vec<RowId>,
    /// Total rows across all sealed chunks.
    sealed_rows: usize,
    /// True while every sealed chunk holds exactly `capacity` rows, so
    /// position lookups can use division instead of binary search.
    uniform: bool,
    tail: Vec<T>,
    tail_zone: ZoneMap<T>,
}

impl<T: Copy + PartialOrd + std::fmt::Debug> Default for Segment<T> {
    fn default() -> Self {
        Segment::new()
    }
}

impl<T: Copy + PartialOrd + std::fmt::Debug> Segment<T> {
    /// An empty segment with the default chunk capacity.
    pub fn new() -> Self {
        Segment::with_chunk_capacity(DEFAULT_SEGMENT_CAPACITY)
    }

    /// An empty segment sealing chunks of `capacity` rows.
    ///
    /// # Panics
    /// Panics when `capacity` is zero (the facade validates user-supplied
    /// capacities before they reach this layer).
    pub fn with_chunk_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "segment chunk capacity must be at least 1");
        Segment {
            capacity,
            sealed: Vec::new(),
            bases: Vec::new(),
            sealed_rows: 0,
            uniform: true,
            tail: Vec::new(),
            tail_zone: ZoneMap::empty(),
        }
    }

    /// Build a segment from a vector with the default chunk capacity.
    pub fn from_vec(values: Vec<T>) -> Self {
        Segment::from_vec_with_capacity(values, DEFAULT_SEGMENT_CAPACITY)
    }

    /// Build a segment from a vector, sealing chunks of `capacity` rows.
    pub fn from_vec_with_capacity(values: Vec<T>, capacity: usize) -> Self {
        let mut segment = Segment::with_chunk_capacity(capacity);
        segment.extend_from_slice(&values);
        segment
    }

    /// Rows per sealed chunk.
    pub fn chunk_capacity(&self) -> usize {
        self.capacity
    }

    /// Total number of rows (sealed + tail).
    pub fn len(&self) -> usize {
        self.sealed_rows + self.tail.len()
    }

    /// True when the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// Number of sealed (immutable, `Arc`-shared) chunks.
    pub fn sealed_chunk_count(&self) -> usize {
        self.sealed.len()
    }

    /// The sealed chunks, for sharing checks (`Arc::ptr_eq`) and
    /// chunk-granular consumers.
    pub fn sealed_chunks(&self) -> &[Arc<SealedChunk<T>>] {
        &self.sealed
    }

    /// The mutable tail's rows appended since the last seal.
    pub fn tail(&self) -> &[T] {
        &self.tail
    }

    /// Append one value, returning its stable global position.
    pub fn push(&mut self, value: T) -> RowId {
        let id = self.len() as RowId;
        self.tail.push(value);
        self.tail_zone.accumulate(value);
        if self.tail.len() == self.capacity {
            self.seal_tail();
        }
        id
    }

    /// Append many values.
    pub fn extend_from_slice(&mut self, values: &[T]) {
        for &v in values {
            self.push(v);
        }
    }

    /// Seal the current tail as an immutable chunk, even when it holds fewer
    /// than `capacity` rows. Returns `true` when a chunk was sealed (`false`
    /// for an empty tail — empty chunks never exist).
    ///
    /// Within one segment this is a move, not a copy. The copy-on-write
    /// append path seals the tails of its private clone before appending:
    /// the clone pays for the tail once, at its current size, and from then
    /// on the sealed chunk is `Arc`-shared with every later snapshot — so
    /// churn copies only the rows appended since the last seal, never a
    /// growing tail. The price is an *undersized* sealed chunk; heavy churn
    /// under snapshots accumulates many of them, which the maintenance
    /// subsystem's chunk compaction ([`Segment::compact_runs`]) merges back
    /// into full chunks.
    pub fn seal_tail(&mut self) -> bool {
        if self.tail.is_empty() {
            return false;
        }
        let values = std::mem::take(&mut self.tail);
        let zone = std::mem::take(&mut self.tail_zone);
        self.push_sealed(Arc::new(SealedChunk::seal_with_zone(values, zone)));
        true
    }

    /// Append an already sealed chunk, maintaining the base table and the
    /// uniformity fast-path flag.
    fn push_sealed(&mut self, chunk: Arc<SealedChunk<T>>) {
        debug_assert!(!chunk.is_empty(), "empty chunks never exist");
        debug_assert!(chunk.len() <= self.capacity);
        self.bases.push(self.sealed_rows as RowId);
        self.sealed_rows += chunk.len();
        self.uniform &= chunk.len() == self.capacity;
        self.sealed.push(chunk);
    }

    /// Index of the sealed chunk containing global position `p`; the caller
    /// guarantees `p < self.sealed_rows`.
    #[inline]
    fn sealed_chunk_index(&self, p: usize) -> usize {
        if self.uniform {
            p / self.capacity
        } else {
            // the first base greater than p belongs to the *next* chunk
            self.bases.partition_point(|&b| b as usize <= p) - 1
        }
    }

    /// Value at `position`, if in bounds.
    pub fn get(&self, position: usize) -> Option<T> {
        if position < self.sealed_rows {
            let chunk = self.sealed_chunk_index(position);
            self.sealed[chunk]
                .values()
                .get(position - self.bases[chunk] as usize)
                .copied()
        } else {
            self.tail.get(position - self.sealed_rows).copied()
        }
    }

    /// Value at `position`; panics when out of bounds (hot-path accessor).
    #[inline]
    pub fn value(&self, position: usize) -> T {
        if position < self.sealed_rows {
            let chunk = self.sealed_chunk_index(position);
            self.sealed[chunk].values()[position - self.bases[chunk] as usize]
        } else {
            self.tail[position - self.sealed_rows]
        }
    }

    /// Number of chunks [`Segment::chunks`] yields: the sealed chunks, plus
    /// the tail when it holds rows.
    pub fn chunk_count(&self) -> usize {
        self.sealed.len() + usize::from(!self.tail.is_empty())
    }

    /// The chunk [`Segment::chunks`] yields at `index`; panics when there is
    /// none.
    pub fn chunk(&self, index: usize) -> ChunkView<'_, T> {
        match self.sealed.get(index) {
            Some(chunk) => ChunkView {
                base: self.bases[index],
                values: chunk.values(),
                zone: *chunk.zone(),
                sealed: true,
            },
            None => {
                assert!(
                    index == self.sealed.len() && !self.tail.is_empty(),
                    "chunk {index} out of bounds"
                );
                self.tail_view()
            }
        }
    }

    /// The tail as a chunk view (empty values when the tail is empty).
    fn tail_view(&self) -> ChunkView<'_, T> {
        ChunkView {
            base: self.sealed_rows as RowId,
            values: self.tail.as_slice(),
            zone: self.tail_zone,
            sealed: false,
        }
    }

    /// Iterate over every chunk in position order: the sealed chunks first,
    /// then (when non-empty) the tail. Each view carries the chunk's global
    /// base position and zone map, so operators can prune and scan
    /// chunk-at-a-time.
    pub fn chunks(&self) -> impl Iterator<Item = ChunkView<'_, T>> + '_ {
        let tail_view = (!self.tail.is_empty()).then(|| self.tail_view());
        self.sealed
            .iter()
            .zip(self.bases.iter())
            .map(|(chunk, &base)| ChunkView {
                base,
                values: chunk.values(),
                zone: *chunk.zone(),
                sealed: true,
            })
            .chain(tail_view)
    }

    /// Iterate over all values in position order.
    ///
    /// The iterator reports an exact length ([`ExactSizeIterator`]), so index
    /// builders can stream a multi-chunk segment straight into their own
    /// storage — pre-sized, without first materializing a transient
    /// contiguous copy via [`Segment::to_contiguous`].
    pub fn iter(&self) -> SegmentIter<'_, T> {
        SegmentIter {
            current: [].iter(),
            sealed: self.sealed.iter(),
            tail: &self.tail,
            remaining: self.len(),
        }
    }

    /// Materialize the segment into one contiguous vector.
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in self.chunks() {
            out.extend_from_slice(chunk.values);
        }
        out
    }

    /// A contiguous view of the values: borrowed when the segment happens to
    /// live in a single chunk (small tables, fresh tails), owned otherwise.
    /// Index builders use this so single-chunk segments pay no copy.
    pub fn to_contiguous(&self) -> Cow<'_, [T]> {
        if self.sealed.is_empty() {
            Cow::Borrowed(self.tail.as_slice())
        } else if self.sealed.len() == 1 && self.tail.is_empty() {
            Cow::Borrowed(self.sealed[0].values())
        } else {
            Cow::Owned(self.to_vec())
        }
    }

    /// Gather the values at ascending `positions` (chunk-at-a-time: the
    /// current chunk is resolved once per run of positions, not per row).
    pub fn gather_positions(&self, positions: &[RowId]) -> Vec<T> {
        let mut cursor = self.cursor();
        positions.iter().map(|&p| cursor.value(p)).collect()
    }

    /// A reader for values at ascending positions (see [`SegmentCursor`]).
    pub(crate) fn cursor(&self) -> SegmentCursor<'_, T> {
        SegmentCursor {
            segment: self,
            base: 0,
            values: &[],
        }
    }

    /// The chunk view containing global position `p` (panics out of bounds).
    fn chunk_containing(&self, p: RowId) -> ChunkView<'_, T> {
        if (p as usize) < self.sealed_rows {
            self.chunk(self.sealed_chunk_index(p as usize))
        } else {
            self.tail_view()
        }
    }

    /// Minimum value across all chunks, from zone maps alone.
    pub fn min(&self) -> Option<T> {
        self.chunks()
            .filter_map(|c| c.zone.min())
            .fold(None, |acc, v| match acc {
                Some(m) if m < v => Some(m),
                _ => Some(v),
            })
    }

    /// Maximum value across all chunks, from zone maps alone.
    pub fn max(&self) -> Option<T> {
        self.chunks()
            .filter_map(|c| c.zone.max())
            .fold(None, |acc, v| match acc {
                Some(m) if m > v => Some(m),
                _ => Some(v),
            })
    }

    /// The same rows re-chunked to `capacity` rows per chunk. Returns a
    /// clone (sharing every sealed chunk, and keeping any undersized chunks
    /// as they are — that is compaction's job, not re-chunking's) when the
    /// capacity already matches.
    pub fn rechunked(&self, capacity: usize) -> Segment<T> {
        if capacity == self.capacity {
            return self.clone();
        }
        Segment::from_vec_with_capacity(self.to_vec(), capacity)
    }

    /// Row counts of the sealed chunks, in chunk order — the observation a
    /// compaction policy plans over.
    pub fn sealed_chunk_lens(&self) -> Vec<usize> {
        self.sealed.iter().map(|c| c.len()).collect()
    }

    /// Number of sealed chunks holding fewer than `capacity` rows
    /// (undersized chunks produced by early tail seals under snapshots).
    pub fn fragmented_chunk_count(&self) -> usize {
        if self.uniform {
            return 0;
        }
        self.sealed
            .iter()
            .filter(|c| c.len() < self.capacity)
            .count()
    }

    /// Merge the given runs of sealed chunks, adaptive-merging style: each
    /// half-open run `[start, end)` of consecutive sealed chunks is rewritten
    /// into full `capacity`-row chunks (plus at most one final partial
    /// chunk), while every sealed chunk *outside* the runs — and the mutable
    /// tail — is shared by `Arc`, not copied.
    ///
    /// Compaction is a pure physical re-layout: the returned segment holds
    /// the same values at the same global positions (`compact_runs` changes
    /// `chunks()`, never `iter()`), which is what allows adaptive indexes
    /// built on the old layout to be *reconciled* onto the compacted segment
    /// instead of rebuilt.
    ///
    /// # Panics
    /// Panics when the runs are not sorted, not disjoint, or out of bounds —
    /// plans come from a compaction-policy planner (`aidx-maintenance`) that
    /// guarantees these invariants, so violating them is a logic error, not
    /// an input error.
    pub fn compact_runs(&self, runs: &[(usize, usize)]) -> Segment<T> {
        let mut previous_end = 0;
        for &(start, end) in runs {
            assert!(
                start >= previous_end && start < end && end <= self.sealed.len(),
                "compaction runs must be sorted, disjoint and in bounds \
                 (run [{start}, {end}) over {} sealed chunks)",
                self.sealed.len()
            );
            previous_end = end;
        }
        let mut out = Segment::with_chunk_capacity(self.capacity);
        let mut next_run = 0;
        let mut i = 0;
        while i < self.sealed.len() {
            if next_run < runs.len() && runs[next_run].0 == i {
                let (start, end) = runs[next_run];
                next_run += 1;
                let total: usize = self.sealed[start..end].iter().map(|c| c.len()).sum();
                let mut merged: Vec<T> = Vec::with_capacity(total);
                for chunk in &self.sealed[start..end] {
                    merged.extend_from_slice(chunk.values());
                }
                for piece in merged.chunks(self.capacity) {
                    out.push_sealed(Arc::new(SealedChunk::seal(piece.to_vec())));
                }
                i = end;
            } else {
                out.push_sealed(Arc::clone(&self.sealed[i]));
                i += 1;
            }
        }
        out.tail = self.tail.clone();
        out.tail_zone = self.tail_zone;
        debug_assert_eq!(out.len(), self.len(), "compaction preserves rows");
        out
    }
}

/// Reads the values of a [`Segment`] at caller-chosen positions, keeping the
/// chunk of the last read resolved: a run of positions inside one chunk
/// costs one bounds check per read, and only a read that leaves the chunk
/// pays the chunk lookup. Any position order is answered correctly;
/// ascending positions make the lookups once-per-chunk.
#[derive(Debug, Clone)]
pub(crate) struct SegmentCursor<'a, T> {
    segment: &'a Segment<T>,
    /// Global position of `values[0]`.
    base: RowId,
    values: &'a [T],
}

impl<T: Copy + PartialOrd + std::fmt::Debug> SegmentCursor<'_, T> {
    /// Value at global position `p`; panics when out of bounds.
    #[inline]
    pub(crate) fn value(&mut self, p: RowId) -> T {
        // a position below `base` wraps to a huge offset and misses as well
        if let Some(&v) = self.values.get(p.wrapping_sub(self.base) as usize) {
            return v;
        }
        let chunk = self.segment.chunk_containing(p);
        self.base = chunk.base;
        self.values = chunk.values;
        self.values[(p - self.base) as usize]
    }
}

/// Position-ordered value iterator over a [`Segment`] with an exact length,
/// created by [`Segment::iter`].
///
/// It walks one chunk's slice at a time: `next()` is a slice iterator's
/// `next()` until the chunk runs out, and only then looks for the following
/// chunk. `fold` — and with it `for_each`, `sum` and the other adaptors built
/// on it — hands each remaining chunk to the slice iterator's own `fold`.
#[derive(Debug, Clone)]
pub struct SegmentIter<'a, T> {
    /// What is left of the chunk being read.
    current: std::slice::Iter<'a, T>,
    /// The sealed chunks not started yet.
    sealed: std::slice::Iter<'a, Arc<SealedChunk<T>>>,
    /// The tail, emptied when it becomes `current`.
    tail: &'a [T],
    remaining: usize,
}

impl<'a, T: Copy + PartialOrd> SegmentIter<'a, T> {
    /// The next non-empty stretch of values after `current`, if any.
    fn next_chunk(&mut self) -> Option<std::slice::Iter<'a, T>> {
        match self.sealed.next() {
            Some(chunk) => Some(chunk.values().iter()),
            None if self.tail.is_empty() => None,
            None => Some(std::mem::take(&mut self.tail).iter()),
        }
    }
}

impl<T: Copy + PartialOrd> Iterator for SegmentIter<'_, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        loop {
            if let Some(&value) = self.current.next() {
                self.remaining -= 1;
                return Some(value);
            }
            self.current = self.next_chunk()?;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }

    fn fold<B, F: FnMut(B, T) -> B>(mut self, init: B, mut f: F) -> B {
        let current = std::mem::take(&mut self.current);
        let mut acc = current.copied().fold(init, &mut f);
        while let Some(chunk) = self.next_chunk() {
            acc = chunk.copied().fold(acc, &mut f);
        }
        acc
    }
}

impl<T: Copy + PartialOrd> ExactSizeIterator for SegmentIter<'_, T> {}

/// Segments compare by logical contents (length and values in position
/// order), independent of chunk layout, so re-chunking never changes
/// equality.
impl<T: Copy + PartialOrd + std::fmt::Debug> PartialEq for Segment<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Copy + PartialOrd + std::fmt::Debug> From<Vec<T>> for Segment<T> {
    fn from(values: Vec<T>) -> Self {
        Segment::from_vec(values)
    }
}

impl<T: Copy + PartialOrd + std::fmt::Debug> FromIterator<T> for Segment<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Segment::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(n: usize, capacity: usize) -> Segment<i64> {
        Segment::from_vec_with_capacity((0..n as i64).collect(), capacity)
    }

    #[test]
    fn push_seals_full_chunks() {
        let mut s: Segment<i64> = Segment::with_chunk_capacity(4);
        for i in 0..10 {
            assert_eq!(s.push(i), i as RowId);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.sealed_chunk_count(), 2);
        assert_eq!(s.tail(), &[8, 9]);
        assert_eq!(s.chunk_capacity(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn every_sealed_chunk_is_exactly_full() {
        let s = segment(103, 8);
        for chunk in s.sealed_chunks() {
            assert_eq!(chunk.len(), 8);
        }
        assert_eq!(s.tail().len(), 103 % 8);
    }

    #[test]
    fn random_access_crosses_chunks() {
        let s = segment(100, 7);
        for i in 0..100 {
            assert_eq!(s.value(i), i as i64);
            assert_eq!(s.get(i), Some(i as i64));
        }
        assert_eq!(s.get(100), None);
    }

    #[test]
    fn chunks_cover_all_rows_with_correct_bases_and_zones() {
        let s = segment(20, 6);
        let views: Vec<_> = s.chunks().collect();
        assert_eq!(views.len(), 4, "3 sealed + tail");
        let mut expected_base = 0;
        for view in &views {
            assert_eq!(view.base, expected_base);
            assert_eq!(view.zone.row_count(), view.values.len());
            assert_eq!(view.zone.min(), view.values.iter().copied().min());
            assert_eq!(view.zone.max(), view.values.iter().copied().max());
            expected_base = view.end();
        }
        assert_eq!(expected_base, 20);
        assert!(views[0].sealed && !views[3].sealed);
    }

    #[test]
    fn iter_and_to_vec_are_position_ordered() {
        let s = segment(23, 5);
        let expected: Vec<i64> = (0..23).collect();
        assert_eq!(s.to_vec(), expected);
        assert_eq!(s.iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn iter_reports_exact_length_at_every_step() {
        let s = segment(23, 5);
        let mut iter = s.iter();
        for consumed in 0..23 {
            assert_eq!(iter.len(), 23 - consumed);
            assert_eq!(iter.size_hint(), (23 - consumed, Some(23 - consumed)));
            assert!(iter.next().is_some());
        }
        assert_eq!(iter.len(), 0);
        assert_eq!(iter.next(), None);
        assert_eq!(iter.next(), None, "fused after exhaustion");
        let empty: Segment<i64> = Segment::new();
        assert_eq!(empty.iter().len(), 0);
        assert_eq!(empty.iter().next(), None);
        // collect through the exact-size hint pre-sizes correctly
        let collected: Vec<i64> = segment(17, 4).iter().collect();
        assert_eq!(collected, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn iter_fold_picks_up_where_next_stopped() {
        // layout: sealed [0..5) undersized, sealed [5..13), tail [13..16)
        let mut s: Segment<i64> = Segment::with_chunk_capacity(8);
        for i in 0..5 {
            s.push(i);
        }
        s.seal_tail();
        for i in 5..16 {
            s.push(i);
        }
        assert_eq!(s.sealed_chunk_lens(), vec![5, 8]);
        for consumed in 0..=16 {
            let mut iter = s.iter();
            for expected in 0..consumed {
                assert_eq!(iter.next(), Some(expected));
            }
            let mut rest = Vec::new();
            iter.for_each(|v| rest.push(v));
            assert_eq!(rest, (consumed..16).collect::<Vec<_>>(), "after {consumed}");
        }
        assert_eq!(s.iter().sum::<i64>(), (0..16).sum());
    }

    #[test]
    fn to_contiguous_borrows_single_chunk_segments() {
        let tail_only = segment(3, 8);
        assert!(matches!(tail_only.to_contiguous(), Cow::Borrowed(_)));
        let one_sealed = segment(8, 8);
        assert!(matches!(one_sealed.to_contiguous(), Cow::Borrowed(_)));
        let multi = segment(20, 8);
        assert!(matches!(multi.to_contiguous(), Cow::Owned(_)));
        assert_eq!(multi.to_contiguous().as_ref(), multi.to_vec().as_slice());
    }

    #[test]
    fn clone_shares_sealed_chunks_and_copies_the_tail() {
        let mut s = segment(20, 6);
        let snapshot = s.clone();
        // sealed chunks are pointer-shared
        for (a, b) in s.sealed_chunks().iter().zip(snapshot.sealed_chunks()) {
            assert!(Arc::ptr_eq(a, b));
        }
        // appending to the original never shows up in the clone
        s.push(999);
        assert_eq!(s.len(), 21);
        assert_eq!(snapshot.len(), 20);
        assert_eq!(snapshot.max(), Some(19));
    }

    #[test]
    fn gather_positions_matches_random_access() {
        let s = segment(50, 7);
        let positions: Vec<RowId> = vec![0, 6, 7, 13, 14, 48, 49];
        let gathered = s.gather_positions(&positions);
        let expected: Vec<i64> = positions.iter().map(|&p| s.value(p as usize)).collect();
        assert_eq!(gathered, expected);
        assert!(s.gather_positions(&[]).is_empty());
        // a cursor answers any order; stepping back re-resolves the chunk
        let mut cursor = s.cursor();
        for p in [49, 0, 48, 7, 6, 6, 20] {
            assert_eq!(cursor.value(p), s.value(p as usize), "position {p}");
        }
    }

    #[test]
    fn min_max_from_zones() {
        let s = Segment::from_vec_with_capacity(vec![5i64, -3, 12, 7, 0], 2);
        assert_eq!(s.min(), Some(-3));
        assert_eq!(s.max(), Some(12));
        let empty: Segment<i64> = Segment::new();
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
    }

    #[test]
    fn rechunk_preserves_contents_and_equality() {
        let s = segment(37, 5);
        let r = s.rechunked(11);
        assert_eq!(r.chunk_capacity(), 11);
        assert_eq!(r.to_vec(), s.to_vec());
        assert_eq!(r, s, "equality is layout-independent");
        // same-capacity rechunk shares chunks instead of copying
        let same = s.rechunked(5);
        for (a, b) in s.sealed_chunks().iter().zip(same.sealed_chunks()) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn conversions() {
        let s: Segment<i64> = vec![1, 2, 3].into();
        assert_eq!(s.len(), 3);
        let c: Segment<i64> = (0..5).collect();
        assert_eq!(c.to_vec(), vec![0, 1, 2, 3, 4]);
        assert_eq!(Segment::<i64>::default().len(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Segment::<i64>::with_chunk_capacity(0);
    }

    #[test]
    fn early_seal_produces_undersized_chunks_with_exact_lookup() {
        let mut s: Segment<i64> = Segment::with_chunk_capacity(8);
        for i in 0..5 {
            s.push(i);
        }
        assert!(s.seal_tail(), "non-empty tail seals");
        assert!(!s.seal_tail(), "empty tail does not");
        for i in 5..14 {
            s.push(i);
        }
        // layout: sealed [0..5), sealed [5..13), tail [13..14)
        assert_eq!(s.sealed_chunk_count(), 2);
        assert_eq!(s.sealed_chunk_lens(), vec![5, 8]);
        assert_eq!(s.fragmented_chunk_count(), 1);
        assert_eq!(s.len(), 14);
        for i in 0..14 {
            assert_eq!(s.value(i), i as i64, "position {i}");
            assert_eq!(s.get(i), Some(i as i64));
        }
        assert_eq!(s.get(14), None);
        // chunk views carry the true bases
        let bases: Vec<RowId> = s.chunks().map(|c| c.base).collect();
        assert_eq!(bases, vec![0, 5, 13]);
        // gather crosses undersized chunk boundaries correctly
        let gathered = s.gather_positions(&[0, 4, 5, 12, 13]);
        assert_eq!(gathered, vec![0, 4, 5, 12, 13]);
        assert_eq!(s.iter().collect::<Vec<_>>(), (0..14).collect::<Vec<_>>());
    }

    #[test]
    fn full_chunks_are_never_counted_fragmented() {
        let s = segment(32, 8);
        assert_eq!(s.fragmented_chunk_count(), 0);
        assert_eq!(s.sealed_chunk_lens(), vec![8, 8, 8, 8]);
    }

    #[test]
    fn compact_runs_merges_fragments_and_shares_the_rest() {
        let mut s: Segment<i64> = Segment::with_chunk_capacity(4);
        for i in 0..4 {
            s.push(i); // one full chunk, kept out of the plan
        }
        for i in 4..10 {
            s.push(i);
            s.seal_tail(); // six single-row fragments
        }
        s.push(10); // tail
        assert_eq!(s.sealed_chunk_lens(), vec![4, 1, 1, 1, 1, 1, 1]);
        let compacted = s.compact_runs(&[(1, 7)]);
        // six 1-row fragments merge into one full chunk + one 2-row remainder
        assert_eq!(compacted.sealed_chunk_lens(), vec![4, 4, 2]);
        assert_eq!(compacted.fragmented_chunk_count(), 1);
        // logical contents and positions are untouched
        assert_eq!(compacted.len(), s.len());
        assert_eq!(compacted, s, "equality is layout-independent");
        for i in 0..11 {
            assert_eq!(compacted.value(i), i as i64);
        }
        // the untouched full chunk is pointer-shared, not copied
        assert!(Arc::ptr_eq(
            &s.sealed_chunks()[0],
            &compacted.sealed_chunks()[0]
        ));
        // the tail is preserved
        assert_eq!(compacted.tail(), &[10]);
        // zone maps of merged chunks are exact
        for chunk in compacted.chunks() {
            assert_eq!(chunk.zone.min(), chunk.values.iter().copied().min());
            assert_eq!(chunk.zone.max(), chunk.values.iter().copied().max());
            assert_eq!(chunk.zone.row_count(), chunk.values.len());
        }
        // an empty plan is an Arc-sharing clone
        let untouched = s.compact_runs(&[]);
        assert_eq!(untouched.sealed_chunk_lens(), s.sealed_chunk_lens());
        for (a, b) in s.sealed_chunks().iter().zip(untouched.sealed_chunks()) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    #[should_panic(expected = "sorted, disjoint and in bounds")]
    fn compact_runs_rejects_overlapping_runs() {
        let mut s: Segment<i64> = Segment::with_chunk_capacity(4);
        for i in 0..4 {
            s.push(i);
            s.seal_tail();
        }
        let _ = s.compact_runs(&[(0, 2), (1, 3)]);
    }

    #[test]
    fn nan_values_seal_without_panicking() {
        // regression: sealing a float chunk containing NaN used to trip the
        // debug zone-map recheck because Some(NaN) != Some(NaN)
        let mut s: Segment<f64> = Segment::with_chunk_capacity(4);
        for v in [1.0, 2.0, 3.0, f64::NAN, 5.0] {
            s.push(v);
        }
        assert_eq!(s.sealed_chunk_count(), 1);
        assert_eq!(s.len(), 5);
        assert!(s.value(3).is_nan());
        assert_eq!(s.value(4), 5.0);
    }
}
