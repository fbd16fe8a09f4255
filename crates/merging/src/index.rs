//! The adaptive merge index.

use crate::final_index::SortedRangeIndex;
use crate::run::SortedRun;
use crate::stats::MergeStats;
use aidx_columnstore::index::{AdaptiveIndex, QueryOutput};
use aidx_columnstore::types::{Key, RowId, PAIR_BYTES};

/// The qualifying tuples of one range query, in sorted key order.
///
/// The result owns its data: depending on how much of the requested range had
/// already been merged, the tuples come partly from the final index and
/// partly from the just-merged runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeRangeResult {
    keys: Vec<Key>,
    rowids: Vec<RowId>,
}

impl MergeRangeResult {
    /// The qualifying keys, in ascending order.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Row ids parallel to [`Self::keys`] — in key order, not row-id order.
    pub fn rowids(&self) -> &[RowId] {
        &self.rowids
    }

    /// Consume the answer, keeping only its row ids.
    pub fn into_rowids(self) -> Vec<RowId> {
        self.rowids
    }

    /// Number of qualifying tuples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no tuple qualifies.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// An adaptive merging index over one key column.
#[derive(Debug, Clone)]
pub struct AdaptiveMergeIndex {
    /// Initial sorted runs; shrink as ranges are merged out of them.
    runs: Vec<SortedRun>,
    /// The final index: every tuple a query has asked for so far.
    final_index: SortedRangeIndex,
    run_size: usize,
    total_len: usize,
    stats: MergeStats,
}

impl AdaptiveMergeIndex {
    /// Build the index from a dense key slice ([`Self::from_chunks`] over
    /// one chunk). Run generation (splitting into runs of `run_size` and
    /// sorting each) happens immediately and is charged to the statistics —
    /// it is the initialization cost the first query pays.
    pub fn from_keys(keys: &[Key], run_size: usize) -> Self {
        Self::from_chunks(&[keys], run_size)
    }

    /// Build from a base column stored as `chunks`: each run buffer fills
    /// straight from the chunks (row ids `0..n` in chunk order) and is sorted
    /// in place, so a multi-chunk segment is never materialized contiguously
    /// first. Runs are cut every `run_size` tuples, wherever chunks end.
    pub fn from_chunks(chunks: &[&[Key]], run_size: usize) -> Self {
        let run_size = run_size.max(1);
        let total_len: usize = chunks.iter().map(|chunk| chunk.len()).sum();
        let mut stats = MergeStats::new();
        let mut runs = Vec::with_capacity(total_len.div_ceil(run_size));
        let mut pairs: Vec<(Key, RowId)> = Vec::with_capacity(run_size.min(total_len));
        let mut rowid: RowId = 0;
        for chunk in chunks {
            for &k in *chunk {
                pairs.push((k, rowid));
                rowid += 1;
                if pairs.len() == run_size {
                    stats.record_sort(pairs.len());
                    runs.push(SortedRun::from_pairs(std::mem::take(&mut pairs)));
                }
            }
        }
        if !pairs.is_empty() {
            stats.record_sort(pairs.len());
            runs.push(SortedRun::from_pairs(pairs));
        }
        AdaptiveMergeIndex {
            runs,
            final_index: SortedRangeIndex::new(),
            run_size,
            total_len,
            stats,
        }
    }

    /// Number of indexed tuples.
    pub fn len(&self) -> usize {
        self.total_len
    }

    /// True when the index holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.total_len == 0
    }

    /// The configured run size.
    pub fn run_size(&self) -> usize {
        self.run_size
    }

    /// Number of non-empty runs remaining.
    pub fn active_run_count(&self) -> usize {
        self.runs.iter().filter(|r| !r.is_empty()).count()
    }

    /// Number of tuples already merged into the final index.
    pub fn merged_len(&self) -> usize {
        self.final_index.len()
    }

    /// Fraction of tuples that have reached the final index (1.0 = fully
    /// converged).
    pub fn merge_progress(&self) -> f64 {
        if self.total_len == 0 {
            1.0
        } else {
            self.merged_len() as f64 / self.total_len as f64
        }
    }

    /// True once every tuple lives in the final index: from now on queries
    /// are pure index lookups with zero reorganization.
    pub fn is_converged(&self) -> bool {
        self.merged_len() == self.total_len
    }

    /// Accumulated instrumentation.
    pub fn stats(&self) -> &MergeStats {
        &self.stats
    }

    /// Answer the half-open range query `[low, high)` adaptively: merge the
    /// qualifying tuples out of all runs into the final index, then answer
    /// from the final index.
    pub fn query_range(&mut self, low: Key, high: Key) -> MergeRangeResult {
        self.stats.record_query();
        if low >= high || self.total_len == 0 {
            return MergeRangeResult::default();
        }

        // 1. If the requested interval has been merged before, the runs hold
        //    nothing for it (fast path: the overhead has disappeared).
        if !self.final_index.covers(low, high) {
            // 2. Extract the requested range from every run that may contain it.
            let mut extracted: Vec<(Key, RowId)> = Vec::new();
            for run in &mut self.runs {
                if run.is_empty() || !run.overlaps(low, high) {
                    self.stats.record_probe(true);
                    continue;
                }
                self.stats.record_probe(false);
                extracted.extend(run.extract_range(low, high));
            }
            // 3. Merge the extracted tuples into the final index (recording
            //    the covered interval even when nothing qualified, so future
            //    queries skip the runs entirely).
            self.stats.record_merge(extracted.len());
            self.final_index.insert_range(low, high, extracted);
        }

        // 4. Answer from the final index.
        let (keys, rowids) = self.final_index.query_range(low, high);
        self.stats.record_scan(keys.len());
        MergeRangeResult { keys, rowids }
    }

    /// Count the qualifying tuples of `[low, high)`.
    pub fn count_range(&mut self, low: Key, high: Key) -> usize {
        self.query_range(low, high).len()
    }

    /// Verify structural invariants: the final index and runs are internally
    /// consistent and no tuple is lost or duplicated.
    pub fn verify_integrity(&self) -> bool {
        let runs_ok = self.runs.iter().all(SortedRun::check_invariants);
        let accounted: usize =
            self.final_index.len() + self.runs.iter().map(SortedRun::len).sum::<usize>();
        runs_ok && self.final_index.check_invariants() && accounted == self.total_len
    }
}

impl AdaptiveIndex for AdaptiveMergeIndex {
    fn len(&self) -> usize {
        self.total_len
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(AdaptiveMergeIndex::query_range(self, low, high).into_rowids())
    }
    fn effort(&self) -> u64 {
        self.stats.total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        self.total_len * PAIR_BYTES
    }
    fn pieces(&self) -> usize {
        // unmerged runs plus the growing final index
        self.active_run_count() + 1
    }
    fn is_adaptive(&self) -> bool {
        true
    }
    fn is_converged(&self) -> bool {
        AdaptiveMergeIndex::is_converged(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(data: &[Key], low: Key, high: Key) -> Vec<Key> {
        let mut v: Vec<Key> = data
            .iter()
            .copied()
            .filter(|&x| x >= low && x < high)
            .collect();
        v.sort_unstable();
        v
    }

    fn test_data(n: usize) -> Vec<Key> {
        (0..n as Key).map(|i| (i * 75431) % n as Key).collect()
    }

    #[test]
    fn run_generation_splits_and_sorts() {
        let data = test_data(1000);
        let idx = AdaptiveMergeIndex::from_keys(&data, 128);
        assert_eq!(idx.len(), 1000);
        assert_eq!(idx.active_run_count(), 8); // ceil(1000/128)
        assert_eq!(idx.merged_len(), 0);
        assert!(!idx.is_converged());
        assert_eq!(idx.run_size(), 128);
        assert!(idx.stats().elements_sorted == 1000);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn first_query_merges_requested_range() {
        let data = vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3];
        let mut idx = AdaptiveMergeIndex::from_keys(&data, 4);
        let result = idx.query_range(5, 15);
        assert_eq!(result.keys(), &[7, 9, 12, 13]);
        assert!(!result.is_empty());
        // row ids point back at the base data
        for (&k, &r) in result.keys().iter().zip(result.rowids()) {
            assert_eq!(data[r as usize], k);
        }
        assert_eq!(idx.merged_len(), 4);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn answers_match_reference_over_many_queries() {
        let data = test_data(5000);
        let mut idx = AdaptiveMergeIndex::from_keys(&data, 512);
        for q in 0..100 {
            let low = (q * 131) % 4500;
            let high = low + 200;
            let got = idx.query_range(low, high).keys().to_vec();
            assert_eq!(got, reference(&data, low, high));
            assert!(idx.verify_integrity());
        }
    }

    #[test]
    fn repeated_range_skips_the_runs_entirely() {
        let data = test_data(2000);
        let mut idx = AdaptiveMergeIndex::from_keys(&data, 256);
        let _ = idx.query_range(100, 500);
        let merged_after_first = idx.stats().elements_merged;
        let probes_after_first = idx.stats().run_probes;
        let got = idx.query_range(100, 500).keys().to_vec();
        assert_eq!(got, reference(&data, 100, 500));
        assert_eq!(idx.stats().elements_merged, merged_after_first);
        assert_eq!(
            idx.stats().run_probes,
            probes_after_first,
            "a covered range needs no run probes at all"
        );
        // and a strict sub-range is covered too
        let _ = idx.query_range(200, 300);
        assert_eq!(idx.stats().run_probes, probes_after_first);
    }

    #[test]
    fn full_domain_query_converges_immediately() {
        let data = test_data(1000);
        let mut idx = AdaptiveMergeIndex::from_keys(&data, 100);
        let result = idx.query_range(Key::MIN, Key::MAX);
        assert_eq!(result.len(), 1000);
        assert!(idx.is_converged());
        assert_eq!(idx.active_run_count(), 0);
        assert!((idx.merge_progress() - 1.0).abs() < 1e-12);
        // subsequent queries never touch runs again
        let _ = idx.query_range(10, 20);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn convergence_after_covering_workload() {
        let data = test_data(4096);
        let mut idx = AdaptiveMergeIndex::from_keys(&data, 512);
        let mut low = 0;
        while low < 4096 {
            let _ = idx.query_range(low, low + 256);
            low += 256;
        }
        assert!(idx.is_converged());
        assert_eq!(idx.merged_len(), 4096);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn empty_and_degenerate_queries() {
        let mut idx = AdaptiveMergeIndex::from_keys(&[], 64);
        assert!(idx.is_empty());
        assert!(idx.query_range(0, 10).is_empty());
        assert!(idx.is_converged(), "empty index is trivially converged");

        let data = vec![5, 1, 9];
        let mut idx = AdaptiveMergeIndex::from_keys(&data, 2);
        assert_eq!(idx.count_range(9, 5), 0);
        assert_eq!(idx.count_range(0, 100), 3);
        assert_eq!(idx.query_range(0, 100).into_rowids().len(), 3);
    }

    #[test]
    fn duplicates_survive_merging() {
        let data = vec![5, 5, 5, 1, 9, 5];
        let mut idx = AdaptiveMergeIndex::from_keys(&data, 2);
        assert_eq!(idx.count_range(5, 6), 4);
        assert_eq!(idx.count_range(0, 100), 6);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn from_chunks_matches_from_keys() {
        let data: Vec<Key> = (0..300).map(|i| (i * 7919) % 300).collect();
        // chunk ends fall inside runs
        let (head, tail) = data.split_at(101);
        let mut chunked = AdaptiveMergeIndex::from_chunks(&[head, &[], tail], 64);
        let mut flat = AdaptiveMergeIndex::from_keys(&data, 64);
        assert_eq!(chunked.len(), 300);
        assert_eq!(chunked.active_run_count(), flat.active_run_count());
        assert_eq!(chunked.query_range(50, 150), flat.query_range(50, 150));
        assert_eq!(chunked.stats(), flat.stats());
        assert!(chunked.verify_integrity());
        assert!(AdaptiveMergeIndex::from_chunks(&[], 64).is_empty());
    }

    #[test]
    fn run_size_one_degenerates_to_presorted_runs() {
        let data = vec![4, 3, 2, 1];
        let mut idx = AdaptiveMergeIndex::from_keys(&data, 1);
        assert_eq!(idx.active_run_count(), 4);
        let r = idx.query_range(2, 4).keys().to_vec();
        assert_eq!(r, vec![2, 3]);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn stats_reflect_initialization_and_merging() {
        let data = test_data(1000);
        let mut idx = AdaptiveMergeIndex::from_keys(&data, 100);
        let init_effort = idx.stats().total_effort();
        assert!(init_effort > 0, "run generation is charged up front");
        let _ = idx.query_range(0, 500);
        assert!(idx.stats().elements_merged >= 490);
        assert!(idx.stats().total_effort() > init_effort);
        assert_eq!(idx.stats().queries, 1);
    }

    #[test]
    fn overlapping_queries_never_lose_or_duplicate_tuples() {
        let data = test_data(3000);
        let mut idx = AdaptiveMergeIndex::from_keys(&data, 300);
        for &(low, high) in &[(100, 900), (500, 1500), (0, 400), (1400, 2999), (0, 3000)] {
            let got = idx.query_range(low, high).keys().to_vec();
            assert_eq!(got, reference(&data, low, high), "[{low},{high})");
            assert!(idx.verify_integrity());
        }
        assert!(idx.is_converged());
    }
}
