//! The final partition of the hybrid algorithms.
//!
//! Every tuple a query has ever asked for ends up here. How the final
//! partition organizes those tuples determines how cheap *future* queries
//! over already-seen ranges are — the convergence side of the
//! initialization-vs-convergence trade-off.

use crate::final_index::SortedRangeIndex;
use crate::source::{bucket_of, radix_buckets};
use aidx_columnstore::types::{Key, RowId};
use aidx_cracking::stats::CrackStats;

/// How the final partition is organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FinalOrganization {
    /// Merged ranges are kept as unsorted pieces (cracked granularity: one
    /// piece per merged batch). Lookups scan the overlapping pieces.
    Crack,
    /// Disjoint sorted value-range segments (the adaptive-merging final
    /// index); lookups are binary searches.
    Sort,
    /// Global value-range buckets; lookups scan the overlapping buckets.
    Radix,
}

/// The final partition.
#[derive(Debug, Clone)]
pub enum FinalPartition {
    /// Unsorted per-batch pieces.
    Crack(CrackFinal),
    /// Sorted value-range segments.
    Sort(SortFinal),
    /// Equal-width value buckets.
    Radix(RadixFinal),
}

impl FinalPartition {
    /// Create an empty final partition.
    ///
    /// For the radix organization, `domain` is the `[min, max]` key range of
    /// the indexed column and `radix_bits` the number of bucket bits.
    pub fn new(organization: FinalOrganization, domain: (Key, Key), radix_bits: u32) -> Self {
        match organization {
            FinalOrganization::Crack => FinalPartition::Crack(CrackFinal::default()),
            FinalOrganization::Sort => FinalPartition::Sort(SortFinal::default()),
            FinalOrganization::Radix => FinalPartition::Radix(RadixFinal::new(domain, radix_bits)),
        }
    }

    /// Number of tuples accumulated so far.
    pub fn len(&self) -> usize {
        match self {
            FinalPartition::Crack(f) => f.len(),
            FinalPartition::Sort(f) => f.len(),
            FinalPartition::Radix(f) => f.len(),
        }
    }

    /// True when nothing has been merged yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a batch of tuples known to have keys within `[low, high)` — the
    /// extracted range of the current query.
    pub fn insert_range(
        &mut self,
        low: Key,
        high: Key,
        pairs: Vec<(Key, RowId)>,
        stats: &mut CrackStats,
    ) {
        match self {
            FinalPartition::Crack(f) => f.insert_range(low, high, pairs),
            FinalPartition::Sort(f) => f.insert_range(low, high, pairs, stats),
            FinalPartition::Radix(f) => f.insert_batch(pairs),
        }
    }

    /// Collect every tuple with key in `[low, high)`, as parallel keys and
    /// row ids (in key order for the sort organization).
    pub fn query_range(
        &self,
        low: Key,
        high: Key,
        stats: &mut CrackStats,
    ) -> (Vec<Key>, Vec<RowId>) {
        match self {
            FinalPartition::Crack(f) => f.query_range(low, high, stats).into_iter().unzip(),
            FinalPartition::Sort(f) => {
                let (keys, rowids) = f.index.query_range(low, high);
                stats.record_scan(keys.len());
                (keys, rowids)
            }
            FinalPartition::Radix(f) => f.query_range(low, high, stats).into_iter().unzip(),
        }
    }

    /// The row ids of [`Self::query_range`], without collecting the keys.
    pub fn query_rowids(&self, low: Key, high: Key, stats: &mut CrackStats) -> Vec<RowId> {
        let rowids_of = |pairs: Vec<(Key, RowId)>| pairs.into_iter().map(|(_, r)| r).collect();
        match self {
            FinalPartition::Crack(f) => rowids_of(f.query_range(low, high, stats)),
            FinalPartition::Sort(f) => {
                let rowids = f.index.query_rowids(low, high);
                stats.record_scan(rowids.len());
                rowids
            }
            FinalPartition::Radix(f) => rowids_of(f.query_range(low, high, stats)),
        }
    }

    /// Structural invariants.
    pub fn check_invariants(&self) -> bool {
        match self {
            FinalPartition::Crack(f) => f.check_invariants(),
            FinalPartition::Sort(f) => f.check_invariants(),
            FinalPartition::Radix(f) => f.check_invariants(),
        }
    }
}

/// Final partition organized as unsorted per-batch pieces, the moral
/// equivalent of a cracker column whose pieces are the merged query ranges:
/// a lookup touches only the pieces whose value range overlaps the query,
/// never the whole accumulated data.
#[derive(Debug, Clone, Default)]
pub struct CrackFinal {
    /// One piece per inserted batch: `(low, high, pairs)`.
    pieces: Vec<CrackPiece>,
    len: usize,
}

/// One unsorted piece of the cracked final partition.
type CrackPiece = (Key, Key, Vec<(Key, RowId)>);

impl CrackFinal {
    fn len(&self) -> usize {
        self.len
    }

    /// Number of pieces (diagnostic).
    pub fn piece_count(&self) -> usize {
        self.pieces.len()
    }

    fn insert_range(&mut self, low: Key, high: Key, pairs: Vec<(Key, RowId)>) {
        if pairs.is_empty() {
            return;
        }
        self.len += pairs.len();
        self.pieces.push((low, high, pairs));
    }

    fn query_range(&self, low: Key, high: Key, stats: &mut CrackStats) -> Vec<(Key, RowId)> {
        let mut out = Vec::new();
        for &(piece_low, piece_high, ref data) in &self.pieces {
            if piece_low >= high || piece_high <= low {
                continue;
            }
            stats.record_scan(data.len());
            if piece_low >= low && piece_high <= high {
                out.extend_from_slice(data);
            } else {
                out.extend(data.iter().copied().filter(|&(k, _)| k >= low && k < high));
            }
        }
        out
    }

    fn check_invariants(&self) -> bool {
        let counted: usize = self.pieces.iter().map(|(_, _, d)| d.len()).sum();
        if counted != self.len {
            return false;
        }
        self.pieces.iter().all(|&(low, high, ref data)| {
            low < high && data.iter().all(|&(k, _)| k >= low && k < high)
        })
    }
}

/// Final partition organized as the adaptive-merging final index: disjoint,
/// internally sorted value-range segments.
#[derive(Debug, Clone, Default)]
pub struct SortFinal {
    index: SortedRangeIndex,
}

impl SortFinal {
    fn len(&self) -> usize {
        self.index.len()
    }

    /// Sort the batch into the index. The source that extracted it has
    /// already counted it as merged; the sort is this final's own work.
    fn insert_range(
        &mut self,
        low: Key,
        high: Key,
        pairs: Vec<(Key, RowId)>,
        stats: &mut CrackStats,
    ) {
        stats.record_sort(pairs.len());
        self.index.insert_range(low, high, pairs);
    }

    fn check_invariants(&self) -> bool {
        self.index.check_invariants()
    }
}

/// Final partition organized as equal-width value buckets.
#[derive(Debug, Clone)]
pub struct RadixFinal {
    buckets: Vec<Vec<(Key, RowId)>>,
    domain_low: Key,
    bucket_width: u64,
    len: usize,
}

impl RadixFinal {
    fn new(domain: (Key, Key), radix_bits: u32) -> Self {
        let (domain_low, domain_high) = domain;
        let (bucket_count, bucket_width) = radix_buckets(radix_bits, domain_low, domain_high);
        RadixFinal {
            buckets: vec![Vec::new(); bucket_count],
            domain_low,
            bucket_width,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn bucket_index(&self, key: Key) -> usize {
        if key < self.domain_low {
            return 0;
        }
        bucket_of(key, self.domain_low, self.bucket_width, self.buckets.len())
    }

    fn insert_batch(&mut self, pairs: Vec<(Key, RowId)>) {
        self.len += pairs.len();
        for (k, r) in pairs {
            let idx = self.bucket_index(k);
            self.buckets[idx].push((k, r));
        }
    }

    fn query_range(&self, low: Key, high: Key, stats: &mut CrackStats) -> Vec<(Key, RowId)> {
        if low >= high || self.len == 0 {
            return Vec::new();
        }
        let first = self.bucket_index(low);
        let last = self.bucket_index(high.saturating_sub(1));
        let mut out = Vec::new();
        for bucket in &self.buckets[first..=last] {
            if bucket.is_empty() {
                continue;
            }
            stats.record_scan(bucket.len());
            out.extend(
                bucket
                    .iter()
                    .copied()
                    .filter(|&(k, _)| k >= low && k < high),
            );
        }
        out
    }

    fn check_invariants(&self) -> bool {
        let counted: usize = self.buckets.iter().map(Vec::len).sum();
        counted == self.len
            && self
                .buckets
                .iter()
                .enumerate()
                .all(|(i, bucket)| bucket.iter().all(|&(k, _)| self.bucket_index(k) == i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_organizations() -> Vec<FinalOrganization> {
        vec![
            FinalOrganization::Crack,
            FinalOrganization::Sort,
            FinalOrganization::Radix,
        ]
    }

    fn pairs_in(low: Key, high: Key, step: Key) -> Vec<(Key, RowId)> {
        (low..high)
            .step_by(step as usize)
            .enumerate()
            .map(|(i, k)| (k, i as RowId))
            .collect()
    }

    fn sorted_keys((mut keys, _): (Vec<Key>, Vec<RowId>)) -> Vec<Key> {
        keys.sort_unstable();
        keys
    }

    #[test]
    fn insert_then_query_roundtrip() {
        for org in all_organizations() {
            let mut stats = CrackStats::new();
            let mut part = FinalPartition::new(org, (0, 1000), 4);
            assert!(part.is_empty());
            part.insert_range(100, 200, pairs_in(100, 200, 1), &mut stats);
            part.insert_range(500, 600, pairs_in(500, 600, 1), &mut stats);
            assert_eq!(part.len(), 200);
            let got = part.query_range(150, 550, &mut stats);
            assert_eq!(part.query_rowids(150, 550, &mut stats), got.1, "{org:?}");
            let expected: Vec<Key> = (150..200).chain(500..550).collect();
            assert_eq!(sorted_keys(got), expected, "{org:?}");
            assert!(part.check_invariants(), "{org:?}");
        }
    }

    #[test]
    fn overlapping_inserts_never_double_count() {
        for org in all_organizations() {
            let mut stats = CrackStats::new();
            let mut part = FinalPartition::new(org, (0, 1000), 4);
            part.insert_range(100, 300, pairs_in(100, 300, 1), &mut stats);
            // the hybrid index only ever inserts tuples that were still in the
            // source partitions, so a later overlapping query inserts only the
            // new sub-range
            part.insert_range(250, 400, pairs_in(300, 400, 1), &mut stats);
            assert_eq!(part.len(), 300);
            let (keys, _) = part.query_range(100, 400, &mut stats);
            assert_eq!(keys.len(), 300, "{org:?}");
            assert!(part.check_invariants(), "{org:?}");
        }
    }

    #[test]
    fn empty_queries_and_misses() {
        for org in all_organizations() {
            let mut stats = CrackStats::new();
            let mut part = FinalPartition::new(org, (0, 100), 3);
            assert!(part.query_range(0, 100, &mut stats).0.is_empty());
            part.insert_range(10, 20, pairs_in(10, 20, 1), &mut stats);
            assert!(part.query_range(30, 40, &mut stats).0.is_empty(), "{org:?}");
            assert!(part.query_range(20, 10, &mut stats).0.is_empty(), "{org:?}");
            assert!(part.query_rowids(20, 10, &mut stats).is_empty(), "{org:?}");
        }
    }

    #[test]
    fn sort_final_scans_less_than_crack_final_for_point_lookups() {
        let mut crack_stats = CrackStats::new();
        let mut sort_stats = CrackStats::new();
        let mut crack = FinalPartition::new(FinalOrganization::Crack, (0, 100_000), 4);
        let mut sort = FinalPartition::new(FinalOrganization::Sort, (0, 100_000), 4);
        let data = pairs_in(0, 10_000, 1);
        crack.insert_range(0, 10_000, data.clone(), &mut crack_stats);
        sort.insert_range(0, 10_000, data, &mut sort_stats);
        let crack_scan_before = crack_stats.elements_scanned;
        let sort_scan_before = sort_stats.elements_scanned;
        let _ = crack.query_range(5000, 5010, &mut crack_stats);
        let _ = sort.query_range(5000, 5010, &mut sort_stats);
        let crack_scanned = crack_stats.elements_scanned - crack_scan_before;
        let sort_scanned = sort_stats.elements_scanned - sort_scan_before;
        assert!(
            sort_scanned < crack_scanned,
            "sorted final ({sort_scanned}) must beat unsorted piece scan ({crack_scanned})"
        );
    }

    #[test]
    fn sort_final_returns_sorted_results() {
        let mut stats = CrackStats::new();
        let mut part = FinalPartition::new(FinalOrganization::Sort, (0, 1000), 4);
        part.insert_range(0, 100, vec![(90, 0), (10, 1), (50, 2)], &mut stats);
        part.insert_range(100, 200, vec![(150, 3), (110, 4)], &mut stats);
        let (keys, _) = part.query_range(0, 200, &mut stats);
        assert_eq!(keys, vec![10, 50, 90, 110, 150]);
    }

    #[test]
    fn radix_final_handles_out_of_domain_keys() {
        let mut stats = CrackStats::new();
        let mut part = FinalPartition::new(FinalOrganization::Radix, (100, 200), 3);
        // keys below the declared domain land in the first bucket
        part.insert_range(0, 300, vec![(50, 0), (150, 1), (250, 2)], &mut stats);
        assert_eq!(part.len(), 3);
        let got = part.query_range(0, 300, &mut stats);
        assert_eq!(sorted_keys(got), vec![50, 150, 250]);
        assert!(part.check_invariants());
    }

    #[test]
    fn crack_final_keeps_one_piece_per_batch_and_scans_only_overlaps() {
        let mut stats = CrackStats::new();
        let mut part = CrackFinal::default();
        part.insert_range(0, 100, pairs_in(0, 100, 1));
        part.insert_range(200, 300, pairs_in(200, 300, 1));
        part.insert_range(400, 500, pairs_in(400, 500, 1));
        assert_eq!(part.piece_count(), 3);
        assert!(part.check_invariants());
        let scanned_before = stats.elements_scanned;
        let got = part.query_range(210, 220, &mut stats);
        assert_eq!(got.len(), 10);
        // only the overlapping piece (100 tuples) was scanned, not all 300
        assert_eq!(stats.elements_scanned - scanned_before, 100);
        // empty batches are not stored
        part.insert_range(600, 700, Vec::new());
        assert_eq!(part.piece_count(), 3);
    }
}
