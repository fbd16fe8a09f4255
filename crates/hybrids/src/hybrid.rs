//! The hybrid adaptive index: initial partitions + final partition.

use crate::final_partition::{FinalOrganization, FinalPartition};
use crate::source::{SourceOrganization, SourcePartition};
use aidx_columnstore::index::{AdaptiveIndex, QueryOutput};
use aidx_columnstore::types::{Key, RowId, PAIR_BYTES};
use aidx_cracking::stats::CrackStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The named hybrid algorithms of the PVLDB 2011 paper, spelled as
/// (initial-partition organization, final-partition organization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HybridAlgorithm {
    /// Hybrid Crack-Crack: lazy on both sides; closest to plain cracking.
    CrackCrack,
    /// Hybrid Crack-Sort: lazy initial partitions, sorted final partition.
    CrackSort,
    /// Hybrid Crack-Radix: lazy initial partitions, radix-clustered final.
    CrackRadix,
    /// Hybrid Sort-Sort: adaptive merging (sorted runs, a final index of
    /// sorted merged ranges).
    ///
    /// ```
    /// use aidx_hybrids::{HybridAlgorithm, HybridIndex};
    ///
    /// let data = vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3];
    /// // runs of 4, sorted up front
    /// let mut index = HybridIndex::from_keys(&data, HybridAlgorithm::SortSort, 4, 4);
    /// let result = index.query_range(5, 15);
    /// assert_eq!(result.keys, vec![7, 9, 12, 13]); // sorted: they come from the final index
    /// assert_eq!(index.finalized_len(), 4);
    /// ```
    SortSort,
    /// Hybrid Sort-Radix.
    SortRadix,
    /// Hybrid Sort-Crack.
    SortCrack,
    /// Hybrid Radix-Radix.
    RadixRadix,
    /// Hybrid Radix-Sort.
    RadixSort,
    /// Hybrid Radix-Crack.
    RadixCrack,
}

impl HybridAlgorithm {
    /// All nine combinations, in a stable order (useful for benchmarks).
    pub fn all() -> [HybridAlgorithm; 9] {
        [
            HybridAlgorithm::CrackCrack,
            HybridAlgorithm::CrackSort,
            HybridAlgorithm::CrackRadix,
            HybridAlgorithm::SortCrack,
            HybridAlgorithm::SortSort,
            HybridAlgorithm::SortRadix,
            HybridAlgorithm::RadixCrack,
            HybridAlgorithm::RadixSort,
            HybridAlgorithm::RadixRadix,
        ]
    }

    /// The six variants the paper evaluates most prominently.
    pub fn canonical() -> [HybridAlgorithm; 6] {
        [
            HybridAlgorithm::CrackCrack,
            HybridAlgorithm::CrackSort,
            HybridAlgorithm::CrackRadix,
            HybridAlgorithm::RadixRadix,
            HybridAlgorithm::SortSort,
            HybridAlgorithm::SortRadix,
        ]
    }

    /// The initial-partition organization.
    pub fn source_organization(&self) -> SourceOrganization {
        match self {
            HybridAlgorithm::CrackCrack
            | HybridAlgorithm::CrackSort
            | HybridAlgorithm::CrackRadix => SourceOrganization::Crack,
            HybridAlgorithm::SortCrack | HybridAlgorithm::SortSort | HybridAlgorithm::SortRadix => {
                SourceOrganization::Sort
            }
            HybridAlgorithm::RadixCrack
            | HybridAlgorithm::RadixSort
            | HybridAlgorithm::RadixRadix => SourceOrganization::Radix,
        }
    }

    /// The final-partition organization.
    pub fn final_organization(&self) -> FinalOrganization {
        match self {
            HybridAlgorithm::CrackCrack
            | HybridAlgorithm::SortCrack
            | HybridAlgorithm::RadixCrack => FinalOrganization::Crack,
            HybridAlgorithm::CrackSort | HybridAlgorithm::SortSort | HybridAlgorithm::RadixSort => {
                FinalOrganization::Sort
            }
            HybridAlgorithm::CrackRadix
            | HybridAlgorithm::SortRadix
            | HybridAlgorithm::RadixRadix => FinalOrganization::Radix,
        }
    }

    /// The conventional short name (HCC, HCS, ...).
    pub fn short_name(&self) -> &'static str {
        match self {
            HybridAlgorithm::CrackCrack => "HCC",
            HybridAlgorithm::CrackSort => "HCS",
            HybridAlgorithm::CrackRadix => "HCR",
            HybridAlgorithm::SortCrack => "HSC",
            HybridAlgorithm::SortSort => "HSS",
            HybridAlgorithm::SortRadix => "HSR",
            HybridAlgorithm::RadixCrack => "HRC",
            HybridAlgorithm::RadixSort => "HRS",
            HybridAlgorithm::RadixRadix => "HRR",
        }
    }
}

/// An owned query answer (tuples may come from several structures, so no
/// single borrowed slice exists).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HybridQueryAnswer {
    /// Qualifying keys. Sorted for sort-final algorithms, unordered otherwise.
    pub keys: Vec<Key>,
    /// Row ids parallel to `keys`.
    pub rowids: Vec<RowId>,
}

impl HybridQueryAnswer {
    /// Number of qualifying tuples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no tuple qualifies.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Tuples per initial partition of the hybrids the kernel builds.
pub const PARTITION_SIZE: usize = 1 << 14;

/// Radix bits of the radix-organized partitions of the hybrids the kernel
/// builds.
pub const RADIX_BITS: u32 = 6;

/// A hybrid adaptive index over one key column.
#[derive(Debug, Clone)]
pub struct HybridIndex {
    algorithm: HybridAlgorithm,
    sources: Vec<SourcePartition>,
    final_partition: FinalPartition,
    /// The key intervals earlier queries have drained from every source,
    /// coalesced: `low -> high` for each disjoint `[low, high)`.
    drained: BTreeMap<Key, Key>,
    total_len: usize,
    stats: CrackStats,
}

impl HybridIndex {
    /// Build the index over a dense key slice ([`Self::from_chunks`] over
    /// one chunk): split `keys` into partitions of `partition_size` and
    /// organize them according to the algorithm's initial-partition letter.
    /// The cost of that organization (nothing for C, a sort per partition for
    /// S, a clustering pass for R) is charged to the statistics immediately —
    /// it is the initialization cost the first query pays.
    pub fn from_keys(
        keys: &[Key],
        algorithm: HybridAlgorithm,
        partition_size: usize,
        radix_bits: u32,
    ) -> Self {
        Self::from_chunks(&[keys], algorithm, partition_size, radix_bits)
    }

    /// Build from a base column stored as `chunks`: each initial-partition
    /// buffer fills straight from the chunks (row ids `0..n` in chunk order,
    /// the key domain tracked on the way), so a multi-chunk segment is never
    /// materialized contiguously first. Partitions are cut every
    /// `partition_size` tuples, wherever chunks end; a radix-organized one
    /// clusters its key range into `2^radix_bits` equal buckets, with
    /// `radix_bits` clamped to `1..=16`.
    pub fn from_chunks(
        chunks: &[&[Key]],
        algorithm: HybridAlgorithm,
        partition_size: usize,
        radix_bits: u32,
    ) -> Self {
        let partition_size = partition_size.max(1);
        let total_len: usize = chunks.iter().map(|chunk| chunk.len()).sum();
        let mut stats = CrackStats::new();
        stats.record_copy(total_len);
        let mut domain_low = Key::MAX;
        let mut domain_high = Key::MIN;
        let mut sources = Vec::with_capacity(total_len.div_ceil(partition_size));
        let mut pairs: Vec<(Key, RowId)> = Vec::with_capacity(partition_size.min(total_len));
        let mut rowid: RowId = 0;
        for chunk in chunks {
            for &k in *chunk {
                domain_low = domain_low.min(k);
                domain_high = domain_high.max(k);
                pairs.push((k, rowid));
                rowid += 1;
                if pairs.len() == partition_size {
                    sources.push(SourcePartition::new(
                        algorithm.source_organization(),
                        std::mem::take(&mut pairs),
                        radix_bits,
                        &mut stats,
                    ));
                }
            }
        }
        if !pairs.is_empty() {
            sources.push(SourcePartition::new(
                algorithm.source_organization(),
                pairs,
                radix_bits,
                &mut stats,
            ));
        }
        if total_len == 0 {
            (domain_low, domain_high) = (0, 0);
        }
        HybridIndex {
            algorithm,
            sources,
            final_partition: FinalPartition::new(
                algorithm.final_organization(),
                (domain_low, domain_high),
                radix_bits,
            ),
            drained: BTreeMap::new(),
            total_len,
            stats,
        }
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> HybridAlgorithm {
        self.algorithm
    }

    /// Number of indexed tuples.
    pub fn len(&self) -> usize {
        self.total_len
    }

    /// True when the index holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.total_len == 0
    }

    /// Number of initial partitions that still hold tuples.
    pub fn active_source_count(&self) -> usize {
        self.sources.iter().filter(|p| !p.is_empty()).count()
    }

    /// Number of tuples that have reached the final partition.
    pub fn finalized_len(&self) -> usize {
        self.final_partition.len()
    }

    /// True once every tuple lives in the final partition.
    pub fn is_converged(&self) -> bool {
        self.finalized_len() == self.total_len
    }

    /// Accumulated instrumentation.
    pub fn stats(&self) -> &CrackStats {
        &self.stats
    }

    /// Answer the half-open range query `[low, high)`: extract the range from
    /// every initial partition that may hold it, move the extracted tuples
    /// into the final partition, and answer from the final partition.
    pub fn query_range(&mut self, low: Key, high: Key) -> HybridQueryAnswer {
        if !self.merge_range(low, high) {
            return HybridQueryAnswer::default();
        }
        let (keys, rowids) = self.final_partition.query_range(low, high, &mut self.stats);
        HybridQueryAnswer { keys, rowids }
    }

    /// Move every tuple of `[low, high)` still in a source into the final
    /// partition, unless earlier queries have drained that interval already:
    /// every source organization removes all of a range's tuples when it
    /// extracts the range, so a drained interval is empty in every source.
    /// The interval is recorded as drained even when nothing qualified.
    /// Returns false when the query can hold no tuple.
    fn merge_range(&mut self, low: Key, high: Key) -> bool {
        self.stats.record_query();
        if low >= high || self.total_len == 0 {
            return false;
        }
        let floor = self.drained.range(..=low).next_back();
        if floor.is_some_and(|(_, &drained_high)| drained_high >= high) {
            return true;
        }
        let mut extracted: Vec<(Key, RowId)> = Vec::new();
        for source in &mut self.sources {
            if source.is_empty() || !source.overlaps(low, high) {
                continue;
            }
            extracted.extend(source.extract_range(low, high, &mut self.stats));
        }
        if !extracted.is_empty() {
            self.final_partition
                .insert_range(low, high, extracted, &mut self.stats);
        }

        // coalesce [low, high) with the drained intervals it overlaps or
        // touches: the one at or below `low`, then those starting in it
        let (mut new_low, mut new_high) = (low, high);
        if let Some((&drained_low, &drained_high)) = floor {
            if drained_high >= low {
                new_low = drained_low;
            }
        }
        while let Some((&drained_low, &drained_high)) = self.drained.range(new_low..=high).next() {
            self.drained.remove(&drained_low);
            new_high = new_high.max(drained_high);
        }
        self.drained.insert(new_low, new_high);
        true
    }

    /// Count the qualifying tuples of `[low, high)`.
    pub fn count_range(&mut self, low: Key, high: Key) -> usize {
        self.query_range(low, high).len()
    }

    /// Structural invariants: sources and final are internally consistent and
    /// no tuple has been lost or duplicated.
    pub fn verify_integrity(&self) -> bool {
        let source_len: usize = self.sources.iter().map(SourcePartition::len).sum();
        source_len + self.final_partition.len() == self.total_len
            && self.sources.iter().all(SourcePartition::check_invariants)
            && self.final_partition.check_invariants()
    }
}

impl AdaptiveIndex for HybridIndex {
    fn len(&self) -> usize {
        self.total_len
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        let rowids = if self.merge_range(low, high) {
            self.final_partition
                .query_rowids(low, high, &mut self.stats)
        } else {
            Vec::new()
        };
        QueryOutput::from_row_ids(rowids)
    }
    fn effort(&self) -> u64 {
        self.stats.total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        self.total_len * PAIR_BYTES
    }
    fn pieces(&self) -> usize {
        // undrained initial partitions plus the growing final partition
        self.active_source_count() + 1
    }
    fn is_adaptive(&self) -> bool {
        true
    }
    fn is_converged(&self) -> bool {
        HybridIndex::is_converged(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_data(n: usize) -> Vec<Key> {
        (0..n as Key).map(|i| (i * 40503) % n as Key).collect()
    }

    fn reference(data: &[Key], low: Key, high: Key) -> Vec<Key> {
        let mut v: Vec<Key> = data
            .iter()
            .copied()
            .filter(|&x| x >= low && x < high)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn algorithm_metadata() {
        assert_eq!(HybridAlgorithm::all().len(), 9);
        assert_eq!(HybridAlgorithm::canonical().len(), 6);
        assert_eq!(HybridAlgorithm::CrackSort.short_name(), "HCS");
        assert_eq!(
            HybridAlgorithm::SortSort.source_organization(),
            SourceOrganization::Sort
        );
        assert_eq!(
            HybridAlgorithm::RadixCrack.final_organization(),
            FinalOrganization::Crack
        );
        // short names are unique
        let names: std::collections::HashSet<_> = HybridAlgorithm::all()
            .iter()
            .map(|a| a.short_name())
            .collect();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn all_algorithms_answer_correctly() {
        let data = test_data(4000);
        for algorithm in HybridAlgorithm::all() {
            let mut idx = HybridIndex::from_keys(&data, algorithm, 512, 4);
            assert_eq!(idx.len(), 4000);
            for q in 0..60 {
                let low = (q * 157) % 3500;
                let high = low + 250;
                let mut got = idx.query_range(low, high).keys;
                got.sort_unstable();
                assert_eq!(got, reference(&data, low, high), "{algorithm:?} q{q}");
                assert!(idx.verify_integrity(), "{algorithm:?} q{q}");
            }
        }
    }

    #[test]
    fn repeated_queries_hit_only_the_final_partition() {
        let data = test_data(2000);
        for algorithm in HybridAlgorithm::canonical() {
            let mut idx = HybridIndex::from_keys(&data, algorithm, 256, 4);
            let first = idx.query_range(300, 700).len();
            let merged_after_first = idx.stats().elements_merged;
            let second = idx.query_range(300, 700).len();
            assert_eq!(first, second, "{algorithm:?}");
            assert_eq!(
                idx.stats().elements_merged,
                merged_after_first,
                "{algorithm:?}: nothing new to merge"
            );
        }
    }

    #[test]
    fn covering_workload_converges() {
        let data = test_data(2048);
        for algorithm in HybridAlgorithm::canonical() {
            let mut idx = HybridIndex::from_keys(&data, algorithm, 256, 4);
            let mut low = 0;
            while low < 2048 {
                let _ = idx.query_range(low, low + 128);
                low += 128;
            }
            assert!(idx.is_converged(), "{algorithm:?}");
            assert_eq!(idx.finalized_len(), 2048, "{algorithm:?}");
            assert_eq!(idx.active_source_count(), 0, "{algorithm:?}");
            assert!(idx.verify_integrity(), "{algorithm:?}");
        }
    }

    #[test]
    fn initialization_cost_ordering_crack_vs_sort() {
        let data = test_data(50_000);
        let hcc = HybridIndex::from_keys(&data, HybridAlgorithm::CrackCrack, 4096, 4);
        let hss = HybridIndex::from_keys(&data, HybridAlgorithm::SortSort, 4096, 4);
        assert!(
            hcc.stats().total_effort() < hss.stats().total_effort(),
            "crack-initialized hybrids must be cheaper to set up ({} vs {})",
            hcc.stats().total_effort(),
            hss.stats().total_effort()
        );
    }

    #[test]
    fn sorted_final_converges_to_cheaper_lookups_than_crack_final() {
        let data = test_data(50_000);
        let mut hcc = HybridIndex::from_keys(&data, HybridAlgorithm::CrackCrack, 4096, 4);
        let mut hcs = HybridIndex::from_keys(&data, HybridAlgorithm::CrackSort, 4096, 4);
        // warm both with the same broad query, then measure a narrow repeat
        let _ = hcc.query_range(0, 40_000);
        let _ = hcs.query_range(0, 40_000);
        let hcc_before = hcc.stats().elements_scanned;
        let hcs_before = hcs.stats().elements_scanned;
        let _ = hcc.query_range(10_000, 10_100);
        let _ = hcs.query_range(10_000, 10_100);
        let hcc_scanned = hcc.stats().elements_scanned - hcc_before;
        let hcs_scanned = hcs.stats().elements_scanned - hcs_before;
        assert!(
            hcs_scanned < hcc_scanned,
            "HCS repeat lookups ({hcs_scanned}) should scan less than HCC ({hcc_scanned})"
        );
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        for algorithm in HybridAlgorithm::all() {
            let mut idx = HybridIndex::from_keys(&[], algorithm, 64, 4);
            assert!(idx.is_empty());
            assert!(idx.query_range(0, 10).is_empty());
            assert!(idx.is_converged());

            let mut idx = HybridIndex::from_keys(&[5, 1, 9], algorithm, 2, 4);
            assert_eq!(idx.count_range(9, 5), 0);
            assert_eq!(idx.count_range(0, 100), 3);
            assert_eq!(idx.query_range(0, 100).rowids.len(), 3);
        }
    }

    #[test]
    fn keys_spanning_all_of_i64_answer_like_a_scan() {
        // the key span is 2^64: radix offsets and bucket widths leave `i64`
        let data = [Key::MIN, 5, 7, Key::MAX, -3, Key::MIN + 1, Key::MAX - 1, 0];
        let bounds = [
            Key::MIN,
            Key::MIN + 1,
            -3,
            0,
            5,
            6,
            10,
            Key::MAX - 1,
            Key::MAX,
        ];
        for algorithm in HybridAlgorithm::all() {
            for (partition_size, radix_bits) in [(4, 6), (4, 1), (4, 0), (8, 16)] {
                let context = format!("{algorithm:?} {partition_size} {radix_bits}");
                let mut idx = HybridIndex::from_keys(&data, algorithm, partition_size, radix_bits);
                assert_eq!(idx.count_range(0, 10), 3, "{context}");
                for low in bounds {
                    for high in bounds {
                        let answer = idx.query_range(low, high);
                        for (&k, &r) in answer.keys.iter().zip(&answer.rowids) {
                            assert_eq!(data[r as usize], k, "{context}");
                        }
                        let mut keys = answer.keys;
                        keys.sort_unstable();
                        assert_eq!(
                            keys,
                            reference(&data, low, high),
                            "{context} [{low}, {high})"
                        );
                    }
                }
                assert!(idx.verify_integrity(), "{context}");
            }
        }
    }

    #[test]
    fn rowids_point_back_into_base_data() {
        let data = test_data(1000);
        for algorithm in HybridAlgorithm::canonical() {
            let mut idx = HybridIndex::from_keys(&data, algorithm, 128, 4);
            let answer = idx.query_range(200, 400);
            for (&k, &r) in answer.keys.iter().zip(answer.rowids.iter()) {
                assert_eq!(data[r as usize], k, "{algorithm:?}");
            }
        }
    }

    #[test]
    fn from_chunks_matches_from_keys() {
        let data = test_data(500);
        // chunk ends fall inside partitions
        let (head, tail) = data.split_at(201);
        for algorithm in HybridAlgorithm::all() {
            let mut chunked = HybridIndex::from_chunks(&[head, &[], tail], algorithm, 64, 4);
            let mut flat = HybridIndex::from_keys(&data, algorithm, 64, 4);
            assert_eq!(chunked.len(), 500);
            assert_eq!(chunked.algorithm(), algorithm);
            assert_eq!(chunked.active_source_count(), flat.active_source_count());
            assert_eq!(chunked.query_range(100, 300), flat.query_range(100, 300));
            assert_eq!(chunked.stats(), flat.stats(), "{algorithm:?}");
            assert!(chunked.verify_integrity(), "{algorithm:?}");
        }
        assert!(HybridIndex::from_chunks(&[], HybridAlgorithm::CrackSort, 64, 4).is_empty());
    }

    #[test]
    fn pieces_fall_as_sources_drain() {
        let data = test_data(2048);
        for algorithm in HybridAlgorithm::all() {
            let mut idx = HybridIndex::from_keys(&data, algorithm, 256, 4);
            assert_eq!(
                idx.pieces(),
                8 + 1,
                "{algorithm:?}: eight sources and the final"
            );
            let mut last = idx.pieces();
            for low in (0..2048).step_by(128) {
                let _ = idx.query_range(low, low + 128);
                assert!(idx.pieces() <= last, "{algorithm:?}");
                last = idx.pieces();
            }
            // drained: only the final partition is left, and stays
            assert_eq!(idx.pieces(), 1, "{algorithm:?}");
            let _ = idx.query_range(0, 2048);
            assert_eq!(idx.pieces(), 1, "{algorithm:?}");
        }
    }

    #[test]
    fn merged_tuples_are_counted_once() {
        let data = test_data(3000);
        for algorithm in HybridAlgorithm::all() {
            let mut idx = HybridIndex::from_keys(&data, algorithm, 256, 4);
            for &(low, high) in &[(100, 900), (500, 1500), (0, 400), (200, 300), (0, 3000)] {
                let merged = idx.stats().elements_merged;
                let finalized = idx.finalized_len();
                let _ = idx.query_range(low, high);
                assert_eq!(
                    idx.stats().elements_merged - merged,
                    (idx.finalized_len() - finalized) as u64,
                    "{algorithm:?} [{low},{high})"
                );
            }
        }
    }

    #[test]
    fn duplicates_survive_merging() {
        let data = vec![5, 5, 5, 1, 9, 5];
        for algorithm in HybridAlgorithm::all() {
            let mut idx = HybridIndex::from_keys(&data, algorithm, 2, 4);
            assert_eq!(idx.count_range(5, 6), 4, "{algorithm:?}");
            assert_eq!(idx.count_range(0, 100), 6, "{algorithm:?}");
            assert!(idx.verify_integrity(), "{algorithm:?}");
        }
    }

    #[test]
    fn partition_size_one_degenerates_to_single_tuple_partitions() {
        let data = vec![4, 3, 2, 1];
        for algorithm in HybridAlgorithm::all() {
            let mut idx = HybridIndex::from_keys(&data, algorithm, 1, 4);
            assert_eq!(idx.active_source_count(), 4, "{algorithm:?}");
            let mut keys = idx.query_range(2, 4).keys;
            keys.sort_unstable();
            assert_eq!(keys, vec![2, 3], "{algorithm:?}");
            assert_eq!(idx.active_source_count(), 2, "{algorithm:?}");
            assert!(idx.verify_integrity(), "{algorithm:?}");
        }
    }

    #[test]
    fn full_domain_query_converges_immediately() {
        let data = test_data(1000);
        for algorithm in HybridAlgorithm::all() {
            let mut idx = HybridIndex::from_keys(&data, algorithm, 100, 4);
            assert_eq!(idx.query_range(Key::MIN, Key::MAX).len(), 1000);
            assert!(idx.is_converged(), "{algorithm:?}");
            assert_eq!(idx.active_source_count(), 0, "{algorithm:?}");
            assert_eq!(idx.query_range(10, 20).len(), 10, "{algorithm:?}");
            assert!(idx.verify_integrity(), "{algorithm:?}");
        }
    }

    #[test]
    fn overlapping_queries_never_lose_or_duplicate_tuples() {
        let data = test_data(3000);
        let queries = [(100, 900), (500, 1500), (0, 400), (1400, 2999), (0, 3000)];
        for algorithm in HybridAlgorithm::all() {
            let mut idx = HybridIndex::from_keys(&data, algorithm, 300, 4);
            for &(low, high) in &queries {
                let mut got = idx.query_range(low, high).keys;
                got.sort_unstable();
                assert_eq!(
                    got,
                    reference(&data, low, high),
                    "{algorithm:?} [{low},{high})"
                );
                assert!(idx.verify_integrity(), "{algorithm:?}");
            }
            assert!(idx.is_converged(), "{algorithm:?}");
            assert_eq!(
                idx.drained.len(),
                1,
                "{algorithm:?}: one coalesced interval"
            );
        }
    }

    #[test]
    fn drained_intervals_coalesce() {
        let mut idx = HybridIndex::from_keys(&test_data(100), HybridAlgorithm::SortSort, 16, 4);
        for &(low, high) in &[(10, 20), (30, 40), (50, 60), (20, 25), (5, 8), (35, 55)] {
            let _ = idx.query_range(low, high);
        }
        let drained: Vec<(Key, Key)> = idx.drained.iter().map(|(&l, &h)| (l, h)).collect();
        assert_eq!(drained, vec![(5, 8), (10, 25), (30, 60)]);
        let _ = idx.query_range(8, 10);
        let _ = idx.query_range(Key::MIN, 1);
        let drained: Vec<(Key, Key)> = idx.drained.iter().map(|(&l, &h)| (l, h)).collect();
        assert_eq!(drained, vec![(Key::MIN, 1), (5, 25), (30, 60)]);
    }

    #[test]
    fn covered_ranges_probe_no_source() {
        let data = test_data(2000);
        for algorithm in HybridAlgorithm::all() {
            let mut idx = HybridIndex::from_keys(&data, algorithm, 256, 4);
            let first = idx.query_range(100, 500).len();
            // an empty range beyond the data is drained too
            assert!(idx.query_range(5000, 6000).is_empty(), "{algorithm:?}");
            // a sentinel source holding keys of both drained intervals: a
            // query that probes the sources would move them to the final
            let mut scratch = CrackStats::new();
            idx.sources.push(SourcePartition::new(
                algorithm.source_organization(),
                vec![(250, 9_000), (5500, 9_001)],
                4,
                &mut scratch,
            ));
            let merged = idx.stats().elements_merged;
            let finalized = idx.finalized_len();
            for &(low, high) in &[(100, 500), (200, 300), (5000, 6000), (5200, 5800)] {
                let answer = idx.query_range(low, high);
                assert!(
                    !answer.rowids.contains(&9_000) && !answer.rowids.contains(&9_001),
                    "{algorithm:?} [{low},{high}) probed a source"
                );
            }
            assert_eq!(idx.query_range(100, 500).len(), first, "{algorithm:?}");
            assert_eq!(idx.stats().elements_merged, merged, "{algorithm:?}");
            assert_eq!(idx.finalized_len(), finalized, "{algorithm:?}");
        }
    }
}

/// Adaptive merging is [`HybridAlgorithm::SortSort`] with the run size as
/// its partition size: these check the properties adaptive merging promises
/// (sorted runs charged up front, answers in key order from the final index,
/// convergence once every run is drained) on that configuration.
#[cfg(test)]
mod adaptive_merging_tests {
    use super::*;

    const MERGING: HybridAlgorithm = HybridAlgorithm::SortSort;

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
        let idx = HybridIndex::from_keys(&data, MERGING, 128, 4);
        assert_eq!(idx.len(), 1000);
        assert_eq!(idx.active_source_count(), 8); // ceil(1000/128)
        assert_eq!(idx.finalized_len(), 0);
        assert!(!idx.is_converged());
        assert_eq!(idx.stats().pieces_sorted, 8, "every run is sorted up front");
        assert_eq!(idx.stats().elements_copied, 1000);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn answers_match_reference_over_many_queries() {
        let data = test_data(5000);
        let mut idx = HybridIndex::from_keys(&data, MERGING, 512, 4);
        for q in 0..100 {
            let low = (q * 131) % 4500;
            let high = low + 200;
            // in key order: the answer comes from the sorted final index
            let got = idx.query_range(low, high).keys;
            assert_eq!(got, reference(&data, low, high), "q{q}");
            assert!(idx.verify_integrity());
        }
    }

    #[test]
    fn convergence_after_covering_workload() {
        let data = test_data(4096);
        let mut idx = HybridIndex::from_keys(&data, MERGING, 512, 4);
        let mut low = 0;
        while low < 4096 {
            let _ = idx.query_range(low, low + 256);
            low += 256;
        }
        assert!(idx.is_converged());
        assert_eq!(idx.finalized_len(), 4096);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn empty_and_degenerate_queries() {
        let mut idx = HybridIndex::from_keys(&[], MERGING, 64, 4);
        assert!(idx.is_empty());
        assert!(idx.query_range(0, 10).is_empty());
        assert!(idx.is_converged(), "empty index is trivially converged");

        let data = vec![5, 1, 9];
        let mut idx = HybridIndex::from_keys(&data, MERGING, 2, 4);
        assert_eq!(idx.count_range(9, 5), 0);
        assert_eq!(idx.count_range(0, 100), 3);
        assert_eq!(idx.query_range(0, 100).rowids.len(), 3);
    }

    #[test]
    fn from_chunks_matches_from_keys() {
        let data: Vec<Key> = (0..300).map(|i| (i * 7919) % 300).collect();
        // chunk ends fall inside runs
        let (head, tail) = data.split_at(101);
        let mut chunked = HybridIndex::from_chunks(&[head, &[], tail], MERGING, 64, 4);
        let mut flat = HybridIndex::from_keys(&data, MERGING, 64, 4);
        assert_eq!(chunked.len(), 300);
        assert_eq!(chunked.active_source_count(), flat.active_source_count());
        assert_eq!(chunked.query_range(50, 150), flat.query_range(50, 150));
        assert_eq!(chunked.stats(), flat.stats());
        assert!(chunked.verify_integrity());
        assert!(HybridIndex::from_chunks(&[], MERGING, 64, 4).is_empty());
    }

    #[test]
    fn stats_reflect_initialization_and_merging() {
        let data = test_data(1000);
        let mut idx = HybridIndex::from_keys(&data, MERGING, 100, 4);
        let init_effort = idx.stats().total_effort();
        assert!(init_effort > 0, "run generation is charged up front");
        let _ = idx.query_range(0, 500);
        assert!(idx.stats().elements_merged >= 490);
        assert!(idx.stats().total_effort() > init_effort);
        assert_eq!(idx.stats().queries, 1);
    }
}
