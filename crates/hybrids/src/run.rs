//! Sorted runs: the initial partitions of the sort-initialized hybrids
//! (Hybrid Sort-Sort is adaptive merging).
//!
//! A run behaves like one leaf level of a partitioned B-tree: the pairs are
//! sorted once (run generation) and later queries *extract* key ranges out of
//! it. Extraction must not pay for the rest of the run — in a B-tree the
//! removed range simply stops being referenced — so the run keeps its sorted
//! arrays immutable and tracks the still-live regions as a list of segments.
//! Extracting a range costs binary searches plus the size of the extracted
//! range, never a shift of the remaining data.

use aidx_columnstore::types::{Key, RowId};

/// A sorted run of `(key, row id)` pairs with segment-tracked liveness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortedRun {
    keys: Vec<Key>,
    rowids: Vec<RowId>,
    /// Still-live index ranges `[start, end)` into `keys`/`rowids`, in
    /// ascending (and therefore key-sorted) order, non-overlapping.
    live: Vec<(usize, usize)>,
    /// Number of live pairs (sum of segment lengths).
    live_len: usize,
}

impl SortedRun {
    /// Build a run by sorting a vector of pairs.
    pub fn from_pairs(mut pairs: Vec<(Key, RowId)>) -> Self {
        pairs.sort_unstable();
        let keys: Vec<Key> = pairs.iter().map(|&(k, _)| k).collect();
        let rowids: Vec<RowId> = pairs.iter().map(|&(_, r)| r).collect();
        let live = if keys.is_empty() {
            Vec::new()
        } else {
            vec![(0, keys.len())]
        };
        let live_len = keys.len();
        SortedRun {
            keys,
            rowids,
            live,
            live_len,
        }
    }

    /// Number of pairs still live in the run.
    pub fn len(&self) -> usize {
        self.live_len
    }

    /// True when the run has been fully consumed.
    pub fn is_empty(&self) -> bool {
        self.live_len == 0
    }

    /// The still-live keys, in sorted order (materializes a copy; intended
    /// for tests and diagnostics, not the hot path).
    pub fn keys(&self) -> Vec<Key> {
        let mut out = Vec::with_capacity(self.live_len);
        for &(s, e) in &self.live {
            out.extend_from_slice(&self.keys[s..e]);
        }
        out
    }

    /// Smallest key still in the run.
    pub fn min_key(&self) -> Option<Key> {
        self.live.first().map(|&(s, _)| self.keys[s])
    }

    /// Largest key still in the run.
    pub fn max_key(&self) -> Option<Key> {
        self.live.last().map(|&(_, e)| self.keys[e - 1])
    }

    /// Whether the run may contain keys in `[low, high)` (fence-key test).
    pub fn overlaps(&self, low: Key, high: Key) -> bool {
        match (self.min_key(), self.max_key()) {
            (Some(min), Some(max)) => min < high && max >= low,
            _ => false,
        }
    }

    /// Position of the first key `>= bound` within the *backing array* slice
    /// `[start, end)`.
    fn lower_bound_in(&self, start: usize, end: usize, bound: Key) -> usize {
        start + self.keys[start..end].partition_point(|&k| k < bound)
    }

    /// Number of live keys inside `[low, high)` without extracting them.
    pub fn count_range(&self, low: Key, high: Key) -> usize {
        let mut count = 0;
        for &(s, e) in &self.live {
            if self.keys[s] >= high || self.keys[e - 1] < low {
                continue;
            }
            let begin = self.lower_bound_in(s, e, low);
            let end = self.lower_bound_in(s, e, high);
            count += end - begin;
        }
        count
    }

    /// Read-only copy of the live pairs with key in `[low, high)`.
    pub fn peek_range(&self, low: Key, high: Key) -> Vec<(Key, RowId)> {
        let mut out = Vec::new();
        for &(s, e) in &self.live {
            if self.keys[s] >= high || self.keys[e - 1] < low {
                continue;
            }
            let begin = self.lower_bound_in(s, e, low);
            let end = self.lower_bound_in(s, e, high);
            for i in begin..end {
                out.push((self.keys[i], self.rowids[i]));
            }
        }
        out
    }

    /// Remove and return every live pair with key in `[low, high)`, in sorted
    /// key order. Cost: a binary search per live segment plus the size of the
    /// extracted range; the remaining data is never moved.
    pub fn extract_range(&mut self, low: Key, high: Key) -> Vec<(Key, RowId)> {
        if self.live_len == 0 || low >= high {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut new_live = Vec::with_capacity(self.live.len() + 1);
        for &(s, e) in &self.live {
            if self.keys[s] >= high || self.keys[e - 1] < low {
                new_live.push((s, e));
                continue;
            }
            let begin = self.lower_bound_in(s, e, low);
            let end = self.lower_bound_in(s, e, high);
            if begin == end {
                new_live.push((s, e));
                continue;
            }
            for i in begin..end {
                out.push((self.keys[i], self.rowids[i]));
            }
            if s < begin {
                new_live.push((s, begin));
            }
            if end < e {
                new_live.push((end, e));
            }
        }
        self.live = new_live;
        self.live_len -= out.len();
        out
    }

    /// Check that the backing arrays are parallel and sorted and that the
    /// live segments are ordered, non-overlapping and within bounds.
    pub fn check_invariants(&self) -> bool {
        if self.keys.len() != self.rowids.len() {
            return false;
        }
        if !self.keys.windows(2).all(|w| w[0] <= w[1]) {
            return false;
        }
        let mut previous_end = 0usize;
        let mut counted = 0usize;
        for &(s, e) in &self.live {
            if s >= e || s < previous_end || e > self.keys.len() {
                return false;
            }
            counted += e - s;
            previous_end = e;
        }
        counted == self.live_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_from(values: &[Key]) -> SortedRun {
        SortedRun::from_pairs(
            values
                .iter()
                .copied()
                .enumerate()
                .map(|(i, k)| (k, i as RowId))
                .collect(),
        )
    }

    #[test]
    fn from_pairs_sorts() {
        let r = run_from(&[9, 1, 5, 3]);
        assert_eq!(r.keys(), vec![1, 3, 5, 9]);
        assert_eq!(r.len(), 4);
        assert!(r.check_invariants());
        assert_eq!(r.min_key(), Some(1));
        assert_eq!(r.max_key(), Some(9));
    }

    #[test]
    fn overlaps_uses_fence_keys() {
        let r = run_from(&[10, 20, 30]);
        assert!(r.overlaps(15, 25));
        assert!(r.overlaps(30, 31));
        assert!(!r.overlaps(31, 40));
        assert!(!r.overlaps(0, 10));
        assert!(!SortedRun::default().overlaps(0, 100));
    }

    #[test]
    fn extract_range_removes_and_returns_sorted() {
        let mut r = run_from(&[9, 1, 5, 3, 7]);
        let extracted = r.extract_range(3, 8);
        assert_eq!(
            extracted.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![3, 5, 7]
        );
        assert_eq!(r.keys(), vec![1, 9]);
        assert_eq!(r.live.len(), 2, "the middle extraction splits the run");
        assert!(r.check_invariants());
        // row ids still identify the original positions
        for &(k, rid) in &extracted {
            assert_eq!([9, 1, 5, 3, 7][rid as usize], k);
        }
        // extracting again yields nothing
        assert!(r.extract_range(3, 8).is_empty());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn extract_everything_empties_the_run() {
        let mut r = run_from(&[4, 2, 6]);
        let e = r.extract_range(Key::MIN, Key::MAX);
        assert_eq!(e.len(), 3);
        assert!(r.is_empty());
        assert_eq!(r.min_key(), None);
        assert!(r.live.is_empty());
        assert!(r.check_invariants());
    }

    #[test]
    fn repeated_extractions_fragment_then_drain() {
        let mut r = run_from(&(0..100).rev().collect::<Vec<Key>>());
        let mut total = 0;
        for start in [40, 10, 70, 0, 90, 20, 50, 30, 60, 80] {
            total += r.extract_range(start, start + 10).len();
            assert!(r.check_invariants());
        }
        assert_eq!(total, 100);
        assert!(r.is_empty());
    }

    #[test]
    fn count_and_peek() {
        let r = run_from(&[1, 3, 5, 7, 9]);
        assert_eq!(r.count_range(3, 8), 3);
        assert_eq!(r.count_range(10, 20), 0);
        let peeked = r.peek_range(3, 8);
        assert_eq!(
            peeked.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![3, 5, 7]
        );
        assert_eq!(r.len(), 5, "peek does not remove");
    }

    #[test]
    fn count_respects_fragmentation() {
        let mut r = run_from(&(0..50).collect::<Vec<Key>>());
        let _ = r.extract_range(10, 20);
        assert_eq!(r.count_range(0, 50), 40);
        assert_eq!(r.count_range(5, 25), 10);
        assert_eq!(r.peek_range(5, 25).len(), 10);
    }

    #[test]
    fn duplicate_keys_extract_together() {
        let mut r = run_from(&[5, 5, 5, 1, 9]);
        let e = r.extract_range(5, 6);
        assert_eq!(e.len(), 3);
        assert_eq!(r.keys(), vec![1, 9]);
    }

    #[test]
    fn empty_run_edge_cases() {
        let mut r = SortedRun::default();
        assert!(r.is_empty());
        assert!(r.extract_range(0, 10).is_empty());
        assert_eq!(r.count_range(0, 10), 0);
        assert!(r.check_invariants());
        let mut r = run_from(&[5]);
        assert!(r.extract_range(6, 10).is_empty());
        assert_eq!(r.extract_range(5, 6).len(), 1);
    }
}
