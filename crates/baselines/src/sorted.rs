//! The full-index baseline: a sorted copy of the column, built up front.

use crate::cost::BaselineStats;
use aidx_columnstore::column::Column;
use aidx_columnstore::types::{Key, RowId};

/// A fully sorted (offline-built) index over one key column.
///
/// This is the other endpoint of the spectrum: the per-query cost is optimal
/// from the very first query, but the whole column is sorted before any query
/// runs — regardless of whether the workload will ever touch most of it.
#[derive(Debug, Clone)]
pub struct FullSortIndex {
    keys: Vec<Key>,
    rowids: Vec<RowId>,
    stats: BaselineStats,
}

impl FullSortIndex {
    /// Build the index by sorting a copy of `keys`. The sort cost is charged
    /// to the statistics immediately.
    pub fn from_keys(keys: &[Key]) -> Self {
        Self::from_key_iter(keys.iter().copied())
    }

    /// Build by streaming keys into the pair array to sort (no transient
    /// contiguous copy when the source is a chunked segment).
    pub fn from_key_iter(keys: impl ExactSizeIterator<Item = Key>) -> Self {
        let mut stats = BaselineStats::new();
        stats.record_copy(keys.len());
        stats.record_sort(keys.len());
        let mut pairs: Vec<(Key, RowId)> = keys.enumerate().map(|(i, k)| (k, i as RowId)).collect();
        pairs.sort_unstable();
        FullSortIndex {
            keys: pairs.iter().map(|&(k, _)| k).collect(),
            rowids: pairs.iter().map(|&(_, r)| r).collect(),
            stats,
        }
    }

    /// Build from an `Int64` column.
    pub fn from_column(column: &Column) -> Self {
        match column.as_i64() {
            Some(c) => Self::from_keys(&c.to_contiguous()),
            None => Self::from_keys(&[]),
        }
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no rows exist.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Accumulated work counters (includes the up-front sort).
    pub fn stats(&self) -> &BaselineStats {
        &self.stats
    }

    /// The sorted keys (useful for verification).
    pub fn sorted_keys(&self) -> &[Key] {
        &self.keys
    }

    /// Answer `[low, high)` with two binary searches; the qualifying keys are
    /// contiguous in the sorted array. The row ids come back distinct and in
    /// key order, not row-id order.
    pub fn query_range(&mut self, low: Key, high: Key) -> Vec<RowId> {
        self.stats.record_query();
        if low >= high || self.keys.is_empty() {
            return Vec::new();
        }
        self.stats.record_probe(self.keys.len());
        self.stats.record_probe(self.keys.len());
        let begin = self.keys.partition_point(|&k| k < low);
        let end = self.keys.partition_point(|&k| k < high);
        self.stats.record_scan(end - begin);
        self.rowids[begin..end].to_vec()
    }

    /// Count the qualifying tuples of `[low, high)` without materializing
    /// positions.
    pub fn count_range(&mut self, low: Key, high: Key) -> usize {
        self.stats.record_query();
        if low >= high || self.keys.is_empty() {
            return 0;
        }
        self.stats.record_probe(self.keys.len());
        self.stats.record_probe(self.keys.len());
        let begin = self.keys.partition_point(|&k| k < low);
        let end = self.keys.partition_point(|&k| k < high);
        end - begin
    }

    /// The qualifying keys of `[low, high)` in sorted order.
    pub fn keys_range(&mut self, low: Key, high: Key) -> &[Key] {
        self.stats.record_query();
        if low >= high || self.keys.is_empty() {
            return &[];
        }
        self.stats.record_probe(self.keys.len());
        self.stats.record_probe(self.keys.len());
        let begin = self.keys.partition_point(|&k| k < low);
        let end = self.keys.partition_point(|&k| k < high);
        self.stats.record_scan(end - begin);
        &self.keys[begin..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_charges_sort_cost_up_front() {
        let data: Vec<Key> = (0..1024).rev().collect();
        let idx = FullSortIndex::from_keys(&data);
        assert_eq!(idx.len(), 1024);
        assert!(idx.stats().sort_comparisons >= 1024 * 10);
        assert_eq!(idx.stats().elements_copied, 1024);
        assert!(idx.sorted_keys().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn queries_are_cheap_and_correct() {
        let data: Vec<Key> = (0..10_000).map(|i| (i * 7919) % 10_000).collect();
        let mut idx = FullSortIndex::from_keys(&data);
        let effort_after_build = idx.stats().total_effort();
        let p = idx.query_range(100, 200);
        assert_eq!(p.len(), 100);
        // row ids point back at the base data
        for &r in p.as_slice() {
            assert!((100..200).contains(&data[r as usize]));
        }
        let per_query_effort = idx.stats().total_effort() - effort_after_build;
        assert!(per_query_effort < 200, "index lookups are cheap");
        assert_eq!(idx.count_range(100, 200), 100);
        assert_eq!(idx.keys_range(100, 105), &[100, 101, 102, 103, 104]);
    }

    #[test]
    fn empty_and_degenerate_queries() {
        let mut idx = FullSortIndex::from_keys(&[]);
        assert!(idx.is_empty());
        assert!(idx.query_range(0, 10).is_empty());
        assert_eq!(idx.count_range(0, 10), 0);
        assert!(idx.keys_range(0, 10).is_empty());
        let mut idx = FullSortIndex::from_keys(&[5, 1, 9]);
        assert_eq!(idx.count_range(9, 5), 0);
        assert_eq!(idx.count_range(0, 100), 3);
    }

    #[test]
    fn duplicates_counted_correctly() {
        let mut idx = FullSortIndex::from_keys(&[5, 5, 5, 1, 9]);
        assert_eq!(idx.count_range(5, 6), 3);
        assert_eq!(idx.query_range(5, 6).len(), 3);
    }

    #[test]
    fn from_column_dispatch() {
        let c = Column::from_i64(vec![3, 1, 2]);
        let mut idx = FullSortIndex::from_column(&c);
        assert_eq!(idx.count_range(2, 4), 2);
        let f = Column::from_f64(vec![1.0]);
        assert!(FullSortIndex::from_column(&f).is_empty());
    }
}
