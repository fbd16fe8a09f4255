//! The no-index baseline: answer every query with a full scan.

use aidx_columnstore::index::{AdaptiveIndex, QueryOutput};
use aidx_columnstore::memory::advise_huge_pages;
use aidx_columnstore::ops::select::{scan_keys_where, Predicate};
use aidx_columnstore::position::PositionList;
use aidx_columnstore::types::{Key, RowId};
use aidx_cracking::stats::CrackStats;

/// A "index" that never builds anything: each range query scans the column.
///
/// This is one endpoint of the tutorial's spectrum: the first query is as
/// cheap as possible (no initialization at all) and the thousandth query is
/// exactly as expensive as the first (no convergence at all).
#[derive(Debug, Clone)]
pub struct FullScanIndex {
    keys: Vec<Key>,
    stats: CrackStats,
}

impl FullScanIndex {
    /// Wrap a dense key slice: [`Self::from_chunks`] over one chunk.
    pub fn from_keys(keys: &[Key]) -> Self {
        Self::from_chunks(&[keys])
    }

    /// Wrap a base column stored as `chunks` (one copy, chunk by chunk, on
    /// 2 MiB pages where the host allows it).
    pub fn from_chunks(chunks: &[&[Key]]) -> Self {
        let mut keys = Vec::with_capacity(chunks.iter().map(|chunk| chunk.len()).sum());
        advise_huge_pages(&keys);
        for chunk in chunks {
            keys.extend_from_slice(chunk);
        }
        FullScanIndex {
            keys,
            stats: CrackStats::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no rows exist.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The keys, in row-id order.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Accumulated work counters.
    pub fn stats(&self) -> &CrackStats {
        &self.stats
    }

    /// Answer `[low, high)` by scanning everything.
    pub fn query_range(&mut self, low: Key, high: Key) -> PositionList {
        self.query(&Predicate::range(low, high))
    }

    /// Answer an arbitrary predicate by scanning everything.
    pub fn query(&mut self, predicate: &Predicate) -> PositionList {
        self.stats.record_query();
        self.stats.record_scan(self.keys.len());
        let mut out: Vec<RowId> = Vec::new();
        scan_keys_where(&self.keys, 0, |v| predicate.matches(v), &mut out);
        PositionList::from_sorted_vec(out)
    }

    /// Count the qualifying tuples of `[low, high)`.
    pub fn count_range(&mut self, low: Key, high: Key) -> usize {
        self.query_range(low, high).len()
    }
}

impl AdaptiveIndex for FullScanIndex {
    fn len(&self) -> usize {
        self.keys.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        // a scan emits row ids in order; nothing downstream re-sorts them
        QueryOutput::from_row_ids(FullScanIndex::query_range(self, low, high).into_vec())
    }
    fn effort(&self) -> u64 {
        self.stats.total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        0
    }
    fn is_adaptive(&self) -> bool {
        false
    }
    fn is_converged(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_answers_and_charges_full_cost_every_time() {
        let data: Vec<Key> = (0..1000).rev().collect();
        let mut idx = FullScanIndex::from_keys(&data);
        assert_eq!(idx.len(), 1000);
        let p = idx.query_range(100, 200);
        assert_eq!(p.len(), 100);
        assert_eq!(idx.stats().elements_scanned, 1000);
        let _ = idx.query_range(100, 200);
        assert_eq!(idx.stats().elements_scanned, 2000, "no learning effect");
        assert_eq!(idx.stats().queries, 2);
    }

    #[test]
    fn scan_predicates_and_empty_input() {
        let mut idx = FullScanIndex::from_keys(&[]);
        assert!(idx.is_empty());
        assert!(idx.query_range(0, 10).is_empty());
        let mut idx = FullScanIndex::from_keys(&[5, 1, 9]);
        assert_eq!(idx.query(&Predicate::equals(9)).len(), 1);
        assert_eq!(idx.count_range(0, 10), 3);
        assert_eq!(idx.count_range(10, 0), 0);
    }

    #[test]
    fn from_chunks_matches_from_keys() {
        let data: Vec<Key> = (0..100).rev().collect();
        let (head, tail) = data.split_at(37);
        let mut chunked = FullScanIndex::from_chunks(&[head, &[], tail]);
        let mut flat = FullScanIndex::from_keys(&data);
        assert_eq!(chunked.len(), 100);
        assert_eq!(chunked.query_range(20, 60), flat.query_range(20, 60));
        assert!(FullScanIndex::from_chunks(&[]).is_empty());
    }

    #[test]
    fn positions_are_base_positions() {
        let data = vec![40, 10, 30, 20];
        let mut idx = FullScanIndex::from_keys(&data);
        let p = idx.query_range(15, 35);
        assert_eq!(p.as_slice(), &[2, 3]);
    }
}
