//! Partial cracking: adaptive indexing under a storage budget.
//!
//! The sideways-cracking paper (SIGMOD 2009) observes that auxiliary cracking
//! structures need not cover the whole column: it is enough to materialize
//! the *value ranges the workload actually queries*, and to stay within a
//! storage budget by dropping the least recently used fragments. This module
//! applies that idea to single-column selection cracking:
//!
//! * no cracker column over the whole base column is ever built; the index
//!   keeps one flat copy of the base keys, made at build time
//!   ([`PartialCrackedIndex::from_chunks`] concatenates the chunks) and not
//!   counted against the budget, and every fragment is (re)built by a scan
//!   of that copy;
//! * each queried value range that is not yet covered gets its own
//!   **fragment** — a small cracked index over just the qualifying tuples;
//! * fragments are looked up / refined by later queries that overlap them;
//! * when the total size of all fragments exceeds the budget, least recently
//!   used fragments are evicted (their data can always be rebuilt from the
//!   base column).

use crate::cracker_column::CrackerColumn;
use crate::selection::CrackedIndex;
use aidx_columnstore::index::{AdaptiveIndex, QueryOutput};
use aidx_columnstore::ops::select::scan_keys_where;
use aidx_columnstore::types::{Key, RowId};
use std::collections::BTreeMap;

/// One materialized value range `[low, high)` and its cracked fragment.
#[derive(Debug, Clone)]
struct Fragment {
    low: Key,
    high: Key,
    index: CrackedIndex,
    last_used: u64,
}

impl Fragment {
    fn byte_size(&self) -> usize {
        self.index.column().byte_size()
    }
}

/// An owned query answer (tuples may come from several fragments).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartialQueryAnswer {
    /// Qualifying key values.
    pub keys: Vec<Key>,
    /// Row ids parallel to `keys`.
    pub rowids: Vec<RowId>,
}

impl PartialQueryAnswer {
    /// Number of qualifying tuples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no tuple qualifies.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// A storage-bounded, partially materialized cracked index.
#[derive(Debug, Clone)]
pub struct PartialCrackedIndex {
    /// A flat copy of the base column's keys, made at build time (not
    /// counted against the budget, which bounds the fragments).
    base: Vec<Key>,
    /// Materialized fragments keyed by their low bound; ranges never overlap.
    fragments: BTreeMap<Key, Fragment>,
    /// Storage budget for all fragments together, in bytes.
    budget_bytes: usize,
    clock: u64,
    evictions: u64,
    base_scans: u64,
    /// What evicted fragments had spent by the time they were dropped, so
    /// the index's effort keeps counting work whose result is gone.
    retired_effort: u64,
}

impl PartialCrackedIndex {
    /// Create a partial index over `keys` with the given fragment budget:
    /// [`Self::from_chunks`] over one chunk.
    pub fn new(keys: &[Key], budget_bytes: usize) -> Self {
        Self::from_chunks(&[keys], budget_bytes)
    }

    /// Create a partial index over a base column stored as `chunks`.
    pub fn from_chunks(chunks: &[&[Key]], budget_bytes: usize) -> Self {
        PartialCrackedIndex {
            base: chunks.concat(),
            fragments: BTreeMap::new(),
            budget_bytes,
            clock: 0,
            evictions: 0,
            base_scans: 0,
            retired_effort: 0,
        }
    }

    /// Number of rows in the base column.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// True when the base column is empty.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Number of materialized fragments.
    pub fn fragment_count(&self) -> usize {
        self.fragments.len()
    }

    /// Total bytes currently used by fragments.
    pub fn fragment_bytes(&self) -> usize {
        self.fragments.values().map(Fragment::byte_size).sum()
    }

    /// The configured storage budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Number of fragments evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of base-column scans performed to (re)build fragments.
    pub fn base_scans(&self) -> u64 {
        self.base_scans
    }

    /// Fraction of the key domain (by value range length) currently covered
    /// by fragments; a diagnostic for the "only queried ranges are optimized"
    /// claim.
    pub fn covered_ranges(&self) -> Vec<(Key, Key)> {
        self.fragments.values().map(|f| (f.low, f.high)).collect()
    }

    /// Answer the half-open range query `[low, high)`.
    pub fn query_range(&mut self, low: Key, high: Key) -> PartialQueryAnswer {
        self.clock += 1;
        let mut answer = PartialQueryAnswer::default();
        if low >= high || self.base.is_empty() {
            return answer;
        }

        // 1. Collect existing fragments overlapping the query and the gaps
        //    between them.
        let overlapping: Vec<(Key, Key)> = self
            .fragments
            .values()
            .filter(|f| f.low < high && f.high > low)
            .map(|f| (f.low, f.high))
            .collect();

        // Gaps in [low, high) not covered by any fragment.
        let mut gaps: Vec<(Key, Key)> = Vec::new();
        let mut cursor = low;
        for &(frag_low, frag_high) in &overlapping {
            if frag_low > cursor {
                gaps.push((cursor, frag_low));
            }
            cursor = cursor.max(frag_high);
        }
        if cursor < high {
            gaps.push((cursor, high));
        }

        // 2. Materialize a new fragment per gap from the base column.
        for (gap_low, gap_high) in gaps {
            let fragment = self.build_fragment(gap_low, gap_high);
            self.fragments.insert(gap_low, fragment);
        }

        // 3. Answer from all overlapping fragments (cracking them further).
        let clock = self.clock;
        for fragment in self.fragments.values_mut() {
            if fragment.low < high && fragment.high > low {
                fragment.last_used = clock;
                let result = fragment.index.query_range(low, high);
                answer.keys.extend(result.keys());
                answer.rowids.extend_from_slice(result.rowids());
            }
        }

        // 4. Enforce the storage budget.
        self.enforce_budget(low, high);

        answer
    }

    /// Count the qualifying tuples of `[low, high)`.
    pub fn count_range(&mut self, low: Key, high: Key) -> usize {
        self.query_range(low, high).len()
    }

    fn build_fragment(&mut self, low: Key, high: Key) -> Fragment {
        self.base_scans += 1;
        let mut rowids = Vec::new();
        scan_keys_where(&self.base, 0, |v| v >= low && v < high, &mut rowids);
        let values = rowids.iter().map(|&i| self.base[i as usize]).collect();
        let column = CrackerColumn::from_pairs(values, rowids);
        Fragment {
            low,
            high,
            index: CrackedIndex::from_cracker_column(column),
            last_used: self.clock,
        }
    }

    /// Evict least-recently-used fragments (excluding ones touched by the
    /// current query, identified by `last_used == clock`) until the fragment
    /// footprint fits the budget again.
    fn enforce_budget(&mut self, _low: Key, _high: Key) {
        while self.fragment_bytes() > self.budget_bytes {
            let victim = self
                .fragments
                .iter()
                .filter(|(_, f)| f.last_used != self.clock)
                .min_by_key(|(_, f)| f.last_used)
                .map(|(&k, _)| k);
            match victim {
                Some(k) => {
                    if let Some(evicted) = self.fragments.remove(&k) {
                        self.retired_effort += evicted.index.stats().total_effort();
                    }
                    self.evictions += 1;
                }
                None => break, // everything left is needed by the current query
            }
        }
    }
}

impl AdaptiveIndex for PartialCrackedIndex {
    fn len(&self) -> usize {
        self.base.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(PartialCrackedIndex::query_range(self, low, high).rowids)
    }
    /// Every base scan reads the whole column; the fragments account for
    /// their own copies, cracks and answers, evicted ones included.
    fn effort(&self) -> u64 {
        let fragments: u64 = (self.fragments.values())
            .map(|f| f.index.stats().total_effort())
            .sum();
        self.base_scans * self.base.len() as u64 + fragments + self.retired_effort
    }
    fn auxiliary_bytes(&self) -> usize {
        self.fragment_bytes()
    }
    fn pieces(&self) -> usize {
        self.fragment_count()
    }
    fn is_adaptive(&self) -> bool {
        true
    }
    fn is_converged(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes per fragment tuple: a fragment's keys span far less than 2^32,
    /// so its cracker column is narrow.
    const TUPLE_BYTES: usize = 8;

    fn reference(data: &[Key], low: Key, high: Key) -> Vec<Key> {
        let mut v: Vec<Key> = data
            .iter()
            .copied()
            .filter(|&x| x >= low && x < high)
            .collect();
        v.sort_unstable();
        v
    }

    fn sorted(mut v: Vec<Key>) -> Vec<Key> {
        v.sort_unstable();
        v
    }

    fn test_data(n: usize) -> Vec<Key> {
        (0..n as Key).map(|i| (i * 31337) % n as Key).collect()
    }

    #[test]
    fn answers_match_reference() {
        let data = test_data(2000);
        let mut idx = PartialCrackedIndex::new(&data, usize::MAX);
        for q in 0..60 {
            let low = (q * 97) % 1800;
            let high = low + 150;
            let got = sorted(idx.query_range(low, high).keys);
            assert_eq!(got, reference(&data, low, high));
        }
    }

    #[test]
    fn empty_and_degenerate() {
        let mut idx = PartialCrackedIndex::new(&[], 1024);
        assert!(idx.is_empty());
        assert!(idx.query_range(0, 10).is_empty());
        let data = vec![5, 1, 9];
        let mut idx = PartialCrackedIndex::new(&data, 1024);
        assert_eq!(idx.len(), 3);
        assert!(idx.query_range(10, 5).is_empty());
        assert_eq!(idx.count_range(0, 10), 3);
    }

    #[test]
    fn only_queried_ranges_are_materialized() {
        let data = test_data(10_000);
        let mut idx = PartialCrackedIndex::new(&data, usize::MAX);
        let _ = idx.query_range(100, 200);
        let _ = idx.query_range(5000, 5100);
        assert_eq!(idx.fragment_count(), 2);
        let covered = idx.covered_ranges();
        assert!(covered.contains(&(100, 200)));
        assert!(covered.contains(&(5000, 5100)));
        assert_eq!(idx.fragment_bytes(), 200 * TUPLE_BYTES);
        // the fragments hold only ~200 of the 10 000 tuples
        assert!(idx.fragment_bytes() < data.len() * TUPLE_BYTES / 10);
    }

    #[test]
    fn overlapping_queries_fill_gaps_only() {
        let data = test_data(5000);
        let mut idx = PartialCrackedIndex::new(&data, usize::MAX);
        let _ = idx.query_range(1000, 2000);
        let scans_after_first = idx.base_scans();
        // fully covered follow-up: no new base scan
        let got = sorted(idx.query_range(1200, 1800).keys);
        assert_eq!(got, reference(&data, 1200, 1800));
        assert_eq!(idx.base_scans(), scans_after_first);
        // partially covered follow-up: one more scan for the gap
        let got = sorted(idx.query_range(1500, 2500).keys);
        assert_eq!(got, reference(&data, 1500, 2500));
        assert_eq!(idx.base_scans(), scans_after_first + 1);
    }

    #[test]
    fn budget_forces_evictions_but_answers_stay_correct() {
        let data = test_data(20_000);
        // budget fits only ~2 fragments of 1000 tuples
        let budget = 2 * 1000 * TUPLE_BYTES;
        let mut idx = PartialCrackedIndex::new(&data, budget);
        for q in 0..30 {
            let low = (q * 633) % 18_000;
            let high = low + 1000;
            let got = sorted(idx.query_range(low, high).keys);
            assert_eq!(got, reference(&data, low, high));
            assert!(
                idx.fragment_bytes() <= budget + 1000 * TUPLE_BYTES,
                "fragments stay near the budget"
            );
        }
        assert!(idx.evictions() > 0);
        assert_eq!(idx.budget_bytes(), budget);
    }

    #[test]
    fn zero_budget_still_answers_correctly() {
        let data = test_data(1000);
        let mut idx = PartialCrackedIndex::new(&data, 0);
        for q in 0..10 {
            let low = (q * 101) % 900;
            let got = sorted(idx.query_range(low, low + 50).keys);
            assert_eq!(got, reference(&data, low, low + 50));
        }
        // every query rebuilt its fragment, and evictions kicked in each time
        assert!(idx.evictions() >= 9);
    }

    #[test]
    fn rowids_reference_base_positions() {
        let data = vec![40, 10, 30, 20];
        let mut idx = PartialCrackedIndex::new(&data, usize::MAX);
        let answer = idx.query_range(15, 35);
        for (&k, &r) in answer.keys.iter().zip(answer.rowids.iter()) {
            assert_eq!(data[r as usize], k);
        }
        assert_eq!(answer.len(), 2);
        assert!(!answer.is_empty());
    }

    #[test]
    fn cracks_inside_a_fragment_count_as_effort() {
        let data = test_data(10_000);
        let mut idx = PartialCrackedIndex::new(&data, usize::MAX);
        let _ = idx.query_range(1000, 5000);
        let (scans, after_build) = (idx.base_scans(), idx.effort());
        assert!(after_build >= data.len() as u64, "the base scan is charged");
        // lands inside the fragment: no base scan, but a crack and an answer
        assert_eq!(idx.query_range(2000, 3000).len(), 1000);
        assert_eq!(idx.base_scans(), scans);
        assert!(idx.effort() > after_build);
    }

    #[test]
    fn effort_is_monotone_across_evictions() {
        let data = test_data(2000);
        // room for the one wide fragment and nothing beside it
        let mut idx = PartialCrackedIndex::new(&data, 1500 * TUPLE_BYTES);
        let _ = idx.query_range(0, 1500);
        for low in [100, 400, 700, 1000] {
            let _ = idx.query_range(low, low + 200);
        }
        let before = idx.effort();
        assert!(before > 3 * data.len() as u64, "the fragment did real work");
        // evicts it: what it had spent stays counted beside the new scan
        let _ = idx.query_range(1500, 2000);
        assert_eq!(idx.evictions(), 1);
        assert_eq!(idx.fragment_count(), 1);
        assert!(idx.effort() >= before + data.len() as u64);
    }
}
