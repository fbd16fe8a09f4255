//! The sorted final index: the structure a sort-final hybrid accumulates
//! every merged range in.
//!
//! Conceptually this is the "final partition" of a partitioned B-tree, the
//! final index of adaptive merging: once a key range has been merged out of
//! the initial partitions it lives here and is queried at index cost. The implementation keeps one *sorted segment per merged value
//! interval* in a `BTreeMap` keyed by the interval's lower bound; overlapping
//! intervals are coalesced on insert. This gives:
//!
//! * insertion cost proportional to the new batch plus whatever existing
//!   segments it overlaps (not to the total merged data),
//! * lookup cost of a couple of binary searches per overlapping segment plus
//!   the output size,
//! * results that come out in globally sorted key order, because segments are
//!   disjoint and internally sorted.

use aidx_columnstore::types::{Key, RowId};
use std::collections::BTreeMap;

/// One merged value interval and its sorted pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Segment {
    /// Exclusive upper bound of the covered value interval.
    high: Key,
    keys: Vec<Key>,
    rowids: Vec<RowId>,
}

/// A collection of disjoint, internally sorted value-range segments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortedRangeIndex {
    /// Segments keyed by the inclusive lower bound of their covered interval.
    segments: BTreeMap<Key, Segment>,
    len: usize,
}

impl SortedRangeIndex {
    /// Create an empty final index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pairs stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been merged yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a batch of pairs whose keys all lie in the covered interval
    /// `[low, high)`. The batch need not be sorted; it must not contain keys
    /// that are already stored (the hybrid protocol guarantees this: a
    /// covered interval is drained from every initial partition the first
    /// time it is queried).
    pub fn insert_range(&mut self, low: Key, high: Key, mut pairs: Vec<(Key, RowId)>) {
        if high <= low {
            return;
        }
        pairs.sort_unstable();
        self.len += pairs.len();

        // Collect existing segments overlapping (or touching) [low, high),
        // from the one at or below `low` on.
        let first = self.first_segment(low);
        let overlapping: Vec<Key> = self
            .segments
            .range(first..=high)
            .filter(|(&seg_low, segment)| seg_low <= high && segment.high >= low)
            .map(|(&seg_low, _)| seg_low)
            .collect();

        let mut new_low = low;
        let mut new_high = high;
        let mut merged_keys: Vec<Key> = pairs.iter().map(|&(k, _)| k).collect();
        let mut merged_rowids: Vec<RowId> = pairs.iter().map(|&(_, r)| r).collect();
        for seg_low in overlapping {
            let segment = self.segments.remove(&seg_low).expect("listed above");
            new_low = new_low.min(seg_low);
            new_high = new_high.max(segment.high);
            let (keys, rowids) =
                merge_sorted(&merged_keys, &merged_rowids, &segment.keys, &segment.rowids);
            merged_keys = keys;
            merged_rowids = rowids;
        }
        self.segments.insert(
            new_low,
            Segment {
                high: new_high,
                keys: merged_keys,
                rowids: merged_rowids,
            },
        );
    }

    /// Collect every stored pair with key in `[low, high)`, in sorted key
    /// order.
    pub fn query_range(&self, low: Key, high: Key) -> (Vec<Key>, Vec<RowId>) {
        let mut keys = Vec::new();
        let mut rowids = Vec::new();
        for (segment_keys, segment_rowids) in self.slices(low, high) {
            keys.extend_from_slice(segment_keys);
            rowids.extend_from_slice(segment_rowids);
        }
        (keys, rowids)
    }

    /// The row ids of [`Self::query_range`], without copying the keys.
    pub fn query_rowids(&self, low: Key, high: Key) -> Vec<RowId> {
        let mut rowids = Vec::new();
        for (_, segment_rowids) in self.slices(low, high) {
            rowids.extend_from_slice(segment_rowids);
        }
        rowids
    }

    /// The stored pairs with key in `[low, high)`, as one pair of parallel
    /// slices per segment that holds any, in key order. The walk starts at
    /// the segment at or below `low`: segments are disjoint, so none before
    /// it can hold a key of the range.
    fn slices(&self, low: Key, high: Key) -> impl Iterator<Item = (&[Key], &[RowId])> {
        let first = self.first_segment(low);
        self.segments
            .range(first..high.max(first))
            .filter_map(move |(_, segment)| {
                let begin = segment.keys.partition_point(|&k| k < low);
                let end = segment.keys.partition_point(|&k| k < high);
                (begin < end).then(|| (&segment.keys[begin..end], &segment.rowids[begin..end]))
            })
    }

    /// The lower bound of the segment at or below `key`, or `key` when none
    /// is.
    fn first_segment(&self, key: Key) -> Key {
        self.segments
            .range(..=key)
            .next_back()
            .map_or(key, |(&seg_low, _)| seg_low)
    }

    /// Structural invariants: segments are disjoint, ordered, internally
    /// sorted, and the pair count adds up.
    pub fn check_invariants(&self) -> bool {
        let mut counted = 0usize;
        let mut previous_high = Key::MIN;
        for (&seg_low, segment) in &self.segments {
            if seg_low >= segment.high && !segment.keys.is_empty() {
                return false;
            }
            if seg_low < previous_high {
                return false;
            }
            if segment.keys.len() != segment.rowids.len() {
                return false;
            }
            if !segment.keys.windows(2).all(|w| w[0] <= w[1]) {
                return false;
            }
            if segment
                .keys
                .iter()
                .any(|&k| k < seg_low || k >= segment.high)
            {
                return false;
            }
            counted += segment.keys.len();
            previous_high = segment.high;
        }
        counted == self.len
    }
}

fn merge_sorted(
    a_keys: &[Key],
    a_rowids: &[RowId],
    b_keys: &[Key],
    b_rowids: &[RowId],
) -> (Vec<Key>, Vec<RowId>) {
    let mut keys = Vec::with_capacity(a_keys.len() + b_keys.len());
    let mut rowids = Vec::with_capacity(a_rowids.len() + b_rowids.len());
    let (mut i, mut j) = (0, 0);
    while i < a_keys.len() && j < b_keys.len() {
        if a_keys[i] <= b_keys[j] {
            keys.push(a_keys[i]);
            rowids.push(a_rowids[i]);
            i += 1;
        } else {
            keys.push(b_keys[j]);
            rowids.push(b_rowids[j]);
            j += 1;
        }
    }
    keys.extend_from_slice(&a_keys[i..]);
    rowids.extend_from_slice(&a_rowids[i..]);
    keys.extend_from_slice(&b_keys[j..]);
    rowids.extend_from_slice(&b_rowids[j..]);
    (keys, rowids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(range: std::ops::Range<Key>) -> Vec<(Key, RowId)> {
        range.map(|k| (k, k as RowId)).collect()
    }

    #[test]
    fn insert_and_query_single_segment() {
        let mut index = SortedRangeIndex::new();
        assert!(index.is_empty());
        index.insert_range(10, 20, pairs(10..20));
        assert_eq!(index.len(), 10);
        assert_eq!(index.segments.len(), 1);
        let (keys, rowids) = index.query_range(12, 15);
        assert_eq!(keys, vec![12, 13, 14]);
        assert_eq!(rowids, vec![12, 13, 14]);
        assert_eq!(index.query_rowids(12, 15), rowids);
        assert!(index.check_invariants());
    }

    #[test]
    fn disjoint_inserts_stay_separate_overlapping_coalesce() {
        let mut index = SortedRangeIndex::new();
        index.insert_range(0, 10, pairs(0..10));
        index.insert_range(20, 30, pairs(20..30));
        assert_eq!(index.segments.len(), 2);
        index.insert_range(5, 25, pairs(10..20));
        assert_eq!(index.segments.len(), 1, "overlapping ranges coalesce");
        assert_eq!(index.len(), 30);
        let (keys, _) = index.query_range(0, 30);
        assert_eq!(keys, (0..30).collect::<Vec<Key>>());
        assert!(index.check_invariants());
    }

    #[test]
    fn unsorted_batches_are_sorted_on_insert() {
        let mut index = SortedRangeIndex::new();
        index.insert_range(0, 100, vec![(50, 0), (10, 1), (90, 2)]);
        let (keys, _) = index.query_range(0, 100);
        assert_eq!(keys, vec![10, 50, 90]);
    }

    #[test]
    fn query_outside_and_degenerate() {
        let mut index = SortedRangeIndex::new();
        index.insert_range(10, 20, pairs(10..20));
        assert!(index.query_range(30, 40).0.is_empty());
        assert!(index.query_range(20, 10).0.is_empty());
        assert!(index.query_rowids(20, 10).is_empty());
        index.insert_range(5, 5, pairs(0..0));
        assert_eq!(index.len(), 10, "empty interval insert is a no-op");
    }

    #[test]
    fn many_random_interval_inserts_keep_invariants() {
        let mut index = SortedRangeIndex::new();
        let mut inserted = 0usize;
        let mut state = 99u64;
        let mut covered: Vec<(Key, Key)> = Vec::new();
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let low = ((state >> 33) % 10_000) as Key;
            let high = low + 1 + ((state >> 20) % 500) as Key;
            // only insert keys not covered before (mirrors the merging protocol)
            let batch: Vec<(Key, RowId)> = (low..high)
                .filter(|&k| !covered.iter().any(|&(l, h)| k >= l && k < h))
                .map(|k| (k, k as RowId))
                .collect();
            inserted += batch.len();
            index.insert_range(low, high, batch);
            covered.push((low, high));
            assert!(index.check_invariants());
        }
        assert_eq!(index.len(), inserted);
        // everything inserted comes back exactly once
        let (keys, _) = index.query_range(Key::MIN, Key::MAX);
        assert_eq!(keys.len(), inserted);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        // a sub-range starting inside a segment or between two comes back
        // exactly, in order
        for low in (0..10_500).step_by(97) {
            let high = low + 313;
            let expected: Vec<Key> = keys
                .iter()
                .copied()
                .filter(|&k| k >= low && k < high)
                .collect();
            let (got, rowids) = index.query_range(low, high);
            assert_eq!(got, expected, "[{low},{high})");
            assert_eq!(index.query_rowids(low, high), rowids);
        }
    }
}
