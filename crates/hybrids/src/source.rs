//! Initial (source) partitions of the hybrid algorithms.
//!
//! Every hybrid splits the column into partitions of a configurable size on
//! first touch. A query then *extracts* its key range out of every partition
//! that may contain qualifying tuples; how cheap that extraction is — and how
//! much the first touch costs — depends on the partition organization.
//!
//! A crack-organized partition is a [`CrackedIndex`] (keys as `u32` offsets
//! when they fit a frame) drained by [`CrackedIndex::extract_range`]. The
//! hybrid charges the copy into it once, at build, and takes its counters
//! after each extraction ([`CrackedIndex::take_stats`]).

use crate::run::SortedRun;
use aidx_columnstore::types::{Key, RowId};
use aidx_cracking::stats::CrackStats;
use aidx_cracking::{CrackedIndex, CrackerColumn};

/// How initial partitions are organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceOrganization {
    /// Leave partitions unsorted; crack them at query bounds on demand.
    Crack,
    /// Sort each partition up front (adaptive-merging-style run generation).
    Sort,
    /// Radix-cluster each partition into value-range buckets up front.
    Radix,
}

/// A source partition in one of the three organizations.
#[derive(Debug, Clone)]
pub enum SourcePartition {
    /// Unsorted pairs, cracked at query bounds.
    Cracked(CrackedIndex),
    /// A fully sorted run.
    Sorted(SortedRun),
    /// Value-range buckets.
    Radix(RadixSource),
}

impl SourcePartition {
    /// Build a partition over the given pairs.
    pub fn new(
        organization: SourceOrganization,
        pairs: Vec<(Key, RowId)>,
        radix_bits: u32,
        stats: &mut CrackStats,
    ) -> Self {
        match organization {
            SourceOrganization::Crack => {
                let (keys, rowids) = pairs.into_iter().unzip();
                let mut index =
                    CrackedIndex::from_cracker_column(CrackerColumn::from_pairs(keys, rowids));
                // the hybrid charged the copy when it filled the partition
                index.take_stats();
                SourcePartition::Cracked(index)
            }
            SourceOrganization::Sort => {
                stats.record_sort(pairs.len());
                SourcePartition::Sorted(SortedRun::from_pairs(pairs))
            }
            SourceOrganization::Radix => {
                stats.record_scan(pairs.len());
                SourcePartition::Radix(RadixSource::new(pairs, radix_bits))
            }
        }
    }

    /// Number of tuples still in the partition.
    pub fn len(&self) -> usize {
        match self {
            SourcePartition::Cracked(p) => p.len(),
            SourcePartition::Sorted(p) => p.len(),
            SourcePartition::Radix(p) => p.len(),
        }
    }

    /// True when the partition has been fully drained into the final
    /// partition.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the partition may contain keys in `[low, high)`.
    pub fn overlaps(&self, low: Key, high: Key) -> bool {
        match self {
            SourcePartition::Cracked(p) => {
                !p.is_empty() && p.min_value() < high && p.max_value() >= low
            }
            SourcePartition::Sorted(p) => p.overlaps(low, high),
            SourcePartition::Radix(p) => p.overlaps(low, high),
        }
    }

    /// Remove and return every pair with key in `[low, high)`, charging
    /// the work and the pairs it moves on to `stats`.
    pub fn extract_range(
        &mut self,
        low: Key,
        high: Key,
        stats: &mut CrackStats,
    ) -> Vec<(Key, RowId)> {
        let out = match self {
            SourcePartition::Cracked(p) => {
                let out = p.extract_range(low, high);
                stats.merge_from(&p.take_stats());
                out
            }
            SourcePartition::Sorted(p) => p.extract_range(low, high),
            SourcePartition::Radix(p) => p.extract_range(low, high, stats),
        };
        stats.record_merge(out.len());
        out
    }

    /// Structural invariants (used by tests).
    pub fn check_invariants(&self) -> bool {
        match self {
            SourcePartition::Cracked(p) => p.verify_integrity(),
            SourcePartition::Sorted(p) => p.check_invariants(),
            SourcePartition::Radix(p) => p.check_invariants(),
        }
    }
}

/// A partition clustered into equal-width value-range buckets ("radix"
/// clustering on the most significant bits of the normalized key).
#[derive(Debug, Clone)]
pub struct RadixSource {
    buckets: Vec<Vec<(Key, RowId)>>,
    /// Inclusive lower bound of the partition's key domain.
    domain_low: Key,
    /// Width of each bucket in key units (>= 1).
    bucket_width: u64,
    len: usize,
}

/// The count and width of the equal buckets `radix_bits` cut `[low, high]`
/// into. At least one bit, at most 16: two buckets over a domain spanning
/// all of `i64` (2⁶⁴ keys) are 2⁶³ keys wide, which fits the unsigned width
/// but not a `Key`.
pub(crate) fn radix_buckets(radix_bits: u32, low: Key, high: Key) -> (usize, u64) {
    let count = 1usize << radix_bits.clamp(1, 16);
    let span = u128::from(high.abs_diff(low)) + 1;
    (count, span.div_ceil(count as u128) as u64)
}

/// The bucket of `key >= low` among `bucket_count` buckets of `width`.
pub(crate) fn bucket_of(key: Key, low: Key, width: u64, bucket_count: usize) -> usize {
    ((key.abs_diff(low) / width) as usize).min(bucket_count - 1)
}

impl RadixSource {
    fn new(pairs: Vec<(Key, RowId)>, radix_bits: u32) -> Self {
        let domain_low = pairs.iter().map(|&(k, _)| k).min().unwrap_or(0);
        let domain_high = pairs.iter().map(|&(k, _)| k).max().unwrap_or(0);
        let (bucket_count, bucket_width) = radix_buckets(radix_bits, domain_low, domain_high);
        let mut buckets = vec![Vec::new(); bucket_count];
        let len = pairs.len();
        for (k, r) in pairs {
            buckets[bucket_of(k, domain_low, bucket_width, bucket_count)].push((k, r));
        }
        RadixSource {
            buckets,
            domain_low,
            bucket_width,
            len,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// `[low, high)` of bucket `index`, in `i128`: the last bucket of a
    /// domain reaching `Key::MAX` ends past it.
    fn bucket_range(&self, index: usize) -> (i128, i128) {
        let low = i128::from(self.domain_low) + i128::from(self.bucket_width) * index as i128;
        (low, low + i128::from(self.bucket_width))
    }

    fn overlaps(&self, low: Key, high: Key) -> bool {
        if self.len == 0 {
            return false;
        }
        let (_, domain_high) = self.bucket_range(self.buckets.len() - 1);
        self.domain_low < high && domain_high > i128::from(low)
    }

    fn extract_range(&mut self, low: Key, high: Key, stats: &mut CrackStats) -> Vec<(Key, RowId)> {
        let mut out = Vec::new();
        if !self.overlaps(low, high) {
            return out;
        }
        let (low_wide, high_wide) = (i128::from(low), i128::from(high));
        for index in 0..self.buckets.len() {
            let (bucket_low, bucket_high) = self.bucket_range(index);
            if bucket_low >= high_wide || bucket_high <= low_wide {
                continue;
            }
            let bucket = &mut self.buckets[index];
            if bucket.is_empty() {
                continue;
            }
            stats.record_scan(bucket.len());
            if bucket_low >= low_wide && bucket_high <= high_wide {
                // fully covered bucket: take it wholesale
                out.append(bucket);
            } else {
                let mut kept = Vec::with_capacity(bucket.len());
                for &(k, r) in bucket.iter() {
                    if k >= low && k < high {
                        out.push((k, r));
                    } else {
                        kept.push((k, r));
                    }
                }
                *bucket = kept;
            }
        }
        self.len -= out.len();
        out
    }

    fn check_invariants(&self) -> bool {
        let counted: usize = self.buckets.iter().map(Vec::len).sum();
        if counted != self.len {
            return false;
        }
        self.buckets.iter().enumerate().all(|(i, bucket)| {
            let (low, high) = self.bucket_range(i);
            let last = i == self.buckets.len() - 1;
            bucket
                .iter()
                .all(|&(k, _)| i128::from(k) >= low && (i128::from(k) < high || last))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(values: &[Key]) -> Vec<(Key, RowId)> {
        values
            .iter()
            .copied()
            .enumerate()
            .map(|(i, k)| (k, i as RowId))
            .collect()
    }

    fn sorted_keys(pairs: &[(Key, RowId)]) -> Vec<Key> {
        let mut v: Vec<Key> = pairs.iter().map(|&(k, _)| k).collect();
        v.sort_unstable();
        v
    }

    fn all_organizations() -> Vec<SourceOrganization> {
        vec![
            SourceOrganization::Crack,
            SourceOrganization::Sort,
            SourceOrganization::Radix,
        ]
    }

    #[test]
    fn extract_matches_reference_for_all_organizations() {
        let data: Vec<Key> = (0..500).map(|i| (i * 193) % 500).collect();
        for org in all_organizations() {
            let mut stats = CrackStats::new();
            let mut partition = SourcePartition::new(org, pairs(&data), 4, &mut stats);
            assert_eq!(partition.len(), 500);
            let extracted = partition.extract_range(100, 200, &mut stats);
            let expected: Vec<Key> = {
                let mut v: Vec<Key> = data
                    .iter()
                    .copied()
                    .filter(|&k| (100..200).contains(&k))
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(sorted_keys(&extracted), expected, "{org:?}");
            assert_eq!(partition.len(), 500 - expected.len(), "{org:?}");
            assert!(partition.check_invariants(), "{org:?}");
            // extracting the same range again yields nothing
            assert!(partition.extract_range(100, 200, &mut stats).is_empty());
        }
    }

    #[test]
    fn repeated_extraction_drains_partitions() {
        let data: Vec<Key> = (0..256).rev().collect();
        for org in all_organizations() {
            let mut stats = CrackStats::new();
            let mut partition = SourcePartition::new(org, pairs(&data), 3, &mut stats);
            let mut total = 0;
            let mut low = 0;
            while low < 256 {
                total += partition.extract_range(low, low + 32, &mut stats).len();
                assert!(partition.check_invariants(), "{org:?}");
                low += 32;
            }
            assert_eq!(total, 256, "{org:?}");
            assert!(partition.is_empty(), "{org:?}");
            assert!(!partition.overlaps(0, 1000), "{org:?}");
        }
    }

    #[test]
    fn rowids_travel_with_values() {
        let data = vec![40, 10, 30, 20];
        for org in all_organizations() {
            let mut stats = CrackStats::new();
            let mut partition = SourcePartition::new(org, pairs(&data), 2, &mut stats);
            let extracted = partition.extract_range(15, 35, &mut stats);
            for &(k, r) in &extracted {
                assert_eq!(data[r as usize], k, "{org:?}");
            }
            assert_eq!(extracted.len(), 2, "{org:?}");
        }
    }

    #[test]
    fn sort_organization_charges_initialization() {
        let data: Vec<Key> = (0..1000).rev().collect();
        let mut crack_stats = CrackStats::new();
        let _ = SourcePartition::new(SourceOrganization::Crack, pairs(&data), 4, &mut crack_stats);
        let mut sort_stats = CrackStats::new();
        let _ = SourcePartition::new(SourceOrganization::Sort, pairs(&data), 4, &mut sort_stats);
        assert_eq!(crack_stats.total_effort(), 0, "crack defers all work");
        assert!(sort_stats.total_effort() > 0, "sort pays up front");
        assert_eq!(sort_stats.pieces_sorted, 1);
    }

    #[test]
    fn cracked_source_keeps_cut_catalog_consistent_across_extractions() {
        let data: Vec<Key> = (0..1000).map(|i| (i * 7919) % 1000).collect();
        let mut stats = CrackStats::new();
        let mut partition =
            SourcePartition::new(SourceOrganization::Crack, pairs(&data), 4, &mut stats);
        // overlapping and nested ranges exercise the cut-repair logic
        for &(low, high) in &[(200, 400), (100, 300), (350, 900), (0, 50), (40, 120)] {
            let _ = partition.extract_range(low, high, &mut stats);
            assert!(partition.check_invariants(), "after [{low},{high})");
        }
        let remaining = partition.len();
        let rest = partition.extract_range(Key::MIN, Key::MAX, &mut stats);
        assert_eq!(rest.len(), remaining);
        assert!(partition.is_empty());
    }

    #[test]
    fn radix_source_bucket_boundaries() {
        let data: Vec<Key> = (0..128).collect();
        let mut stats = CrackStats::new();
        let mut partition =
            SourcePartition::new(SourceOrganization::Radix, pairs(&data), 3, &mut stats);
        // 8 buckets of width 16: extracting exactly one bucket touches only it
        let scanned_before = stats.elements_scanned;
        let extracted = partition.extract_range(16, 32, &mut stats);
        assert_eq!(extracted.len(), 16);
        assert_eq!(stats.elements_scanned - scanned_before, 16);
        assert!(partition.check_invariants());
    }

    #[test]
    fn empty_partition_edge_cases() {
        for org in all_organizations() {
            let mut stats = CrackStats::new();
            let mut partition = SourcePartition::new(org, Vec::new(), 4, &mut stats);
            assert!(partition.is_empty());
            assert!(!partition.overlaps(0, 100));
            assert!(partition.extract_range(0, 100, &mut stats).is_empty());
            assert!(partition.check_invariants());
        }
    }
}
