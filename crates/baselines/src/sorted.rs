//! The full-index baseline: a sorted copy of the column, built up front.

use aidx_columnstore::index::{AdaptiveIndex, QueryOutput};
use aidx_columnstore::memory::advise_huge_pages;
use aidx_columnstore::types::{Key, RowId, PAIR_BYTES};
use aidx_cracking::stats::CrackStats;

/// A fully sorted (offline-built) index over one key column.
///
/// This is the other endpoint of the spectrum: the per-query cost is optimal
/// from the very first query, but the whole column is sorted before any query
/// runs — regardless of whether the workload will ever touch most of it.
#[derive(Debug, Clone)]
pub struct FullSortIndex {
    keys: Vec<Key>,
    rowids: Vec<RowId>,
    stats: CrackStats,
}

impl FullSortIndex {
    /// Build the index by sorting a copy of `keys` ([`Self::from_chunks`]
    /// over one chunk). The sort cost is charged to the statistics
    /// immediately.
    pub fn from_keys(keys: &[Key]) -> Self {
        Self::from_chunks(&[keys])
    }

    /// Build from a base column stored as `chunks`: the keys go straight
    /// into the pair array to sort, row ids `0..n` in chunk order. The pair,
    /// key and row id arrays are each written on 2 MiB pages where the host
    /// allows it.
    pub fn from_chunks(chunks: &[&[Key]]) -> Self {
        let len = chunks.iter().map(|chunk| chunk.len()).sum();
        let mut pairs: Vec<(Key, RowId)> = Vec::with_capacity(len);
        advise_huge_pages(&pairs);
        for chunk in chunks {
            pairs.extend(chunk.iter().copied().zip(pairs.len() as RowId..));
        }
        let mut stats = CrackStats::new();
        stats.record_copy(pairs.len());
        stats.record_sort(pairs.len());
        pairs.sort_unstable();
        let (mut keys, mut rowids) = (Vec::with_capacity(len), Vec::with_capacity(len));
        advise_huge_pages(&keys);
        advise_huge_pages(&rowids);
        keys.extend(pairs.iter().map(|&(k, _)| k));
        rowids.extend(pairs.iter().map(|&(_, r)| r));
        FullSortIndex {
            keys,
            rowids,
            stats,
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
    pub fn stats(&self) -> &CrackStats {
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

impl AdaptiveIndex for FullSortIndex {
    fn len(&self) -> usize {
        self.keys.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(FullSortIndex::query_range(self, low, high))
    }
    fn effort(&self) -> u64 {
        self.stats.total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        self.keys.len() * PAIR_BYTES
    }
    fn is_adaptive(&self) -> bool {
        false
    }
    fn is_converged(&self) -> bool {
        true
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
        assert!(idx.stats().elements_compared >= 1024 * 10);
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
    fn from_chunks_matches_from_keys() {
        let data: Vec<Key> = (0..100).map(|i| (i * 37) % 100).collect();
        let (head, tail) = data.split_at(41);
        let mut chunked = FullSortIndex::from_chunks(&[head, &[], tail]);
        let mut flat = FullSortIndex::from_keys(&data);
        assert_eq!(chunked.sorted_keys(), flat.sorted_keys());
        assert_eq!(chunked.query_range(20, 60), flat.query_range(20, 60));
        assert_eq!(chunked.stats(), flat.stats());
        assert!(FullSortIndex::from_chunks(&[]).is_empty());
    }
}
