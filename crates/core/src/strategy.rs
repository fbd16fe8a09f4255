//! The unified [`AdaptiveIndex`] abstraction and its adapters.
//!
//! Every indexing technique in the workspace — adaptive or not — is wrapped
//! behind one object-safe trait so that the index manager, the auto-tuner,
//! the executor and the benchmark harnesses can treat them interchangeably.

use crate::manager::KeySource;
use aidx_baselines::{FullScanIndex, FullSortIndex, OnlineIndexTuner, SoftIndexTuner};
use aidx_columnstore::position::PositionList;
use aidx_columnstore::types::{Key, RowId};
use aidx_cracking::partial::PartialCrackedIndex;
use aidx_cracking::selection::CrackedIndex;
use aidx_cracking::stochastic::{StochasticCrackedIndex, StochasticVariant};
use aidx_cracking::updates::{MergePolicy, UpdatableCrackedIndex};
use aidx_hybrids::{HybridAlgorithm, HybridIndex};
use aidx_merging::AdaptiveMergeIndex;
use serde::{Deserialize, Serialize};

/// The answer of one adaptive range query: the base-column row ids of the
/// qualifying tuples, **as the index produced them** — distinct, but in
/// piece order (a cracked piece, a sorted run, a key-ordered slice), not
/// row-id order.
///
/// Counting ([`QueryOutput::count`]) is O(1) and reading the ids as they
/// stand ([`QueryOutput::row_ids`]) is free. Ordering them is the one
/// per-row cost a converged probe has left, so it is paid only by the
/// consumer that needs order, through [`QueryOutput::into_positions`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryOutput {
    row_ids: Vec<RowId>,
}

impl QueryOutput {
    /// Wrap the row ids an index answered with. They must be distinct; any
    /// order is fine.
    pub fn from_row_ids(row_ids: Vec<RowId>) -> Self {
        QueryOutput { row_ids }
    }

    /// Number of qualifying tuples.
    pub fn count(&self) -> usize {
        self.row_ids.len()
    }

    /// True when no tuple qualifies.
    pub fn is_empty(&self) -> bool {
        self.row_ids.is_empty()
    }

    /// The qualifying row ids in the order the index produced them.
    pub fn row_ids(&self) -> &[RowId] {
        &self.row_ids
    }

    /// Consume the answer, keeping the row ids as produced.
    pub fn into_row_ids(self) -> Vec<RowId> {
        self.row_ids
    }

    /// Order the row ids into a [`PositionList`] (see
    /// [`PositionList::from_distinct`]).
    pub fn into_positions(self) -> PositionList {
        PositionList::from_distinct(self.row_ids)
    }
}

/// One indexing strategy wrapped behind a uniform, object-safe interface.
pub trait AdaptiveIndex {
    /// Short human-readable name ("cracking", "full-sort", ...).
    fn name(&self) -> &'static str;

    /// Number of indexed tuples.
    fn len(&self) -> usize;

    /// True when the index holds no tuples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Answer the half-open range query `[low, high)`, performing whatever
    /// adaptive reorganization the strategy calls for as a side effect.
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput;

    /// Cumulative machine-independent work performed so far (initialization
    /// plus per-query overhead plus answering).
    fn effort(&self) -> u64;

    /// Approximate memory used by auxiliary structures, in bytes (the base
    /// column itself is not counted).
    fn auxiliary_bytes(&self) -> usize;

    /// Number of physical pieces the index currently partitions the key
    /// domain into (cracked pieces, fragments, sorted runs) — the telemetry
    /// layer's convergence series. Strategies without piece structure
    /// report 1.
    fn pieces(&self) -> usize {
        1
    }

    /// Whether the strategy refines physical organization as a side effect
    /// of queries.
    fn is_adaptive(&self) -> bool;

    /// A strategy-specific notion of "fully optimized for the workload seen
    /// so far" (full indexes are converged from the start; scans never are).
    fn is_converged(&self) -> bool;

    /// Stage an insertion of `key`. Strategies without update support return
    /// `false` (the kernel then falls back to rebuilding).
    fn insert(&mut self, _key: Key) -> bool {
        false
    }

    /// Stage insertions of `keys`, in order. `false` as soon as one is
    /// refused; the index is then of no further use to the caller.
    fn insert_batch(&mut self, keys: &[Key]) -> bool {
        keys.iter().all(|&key| self.insert(key))
    }
}

/// Which strategy to build for a column.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// No index: scan on every query.
    FullScan,
    /// Offline full index: sort everything up front.
    FullSort,
    /// Database cracking (selection cracking).
    Cracking,
    /// Stochastic cracking (DDC auxiliary cracks).
    StochasticCracking,
    /// Database cracking with adaptive update support (merge-ripple).
    UpdatableCracking,
    /// Partial cracking under a storage budget (bytes).
    PartialCracking {
        /// Fragment storage budget in bytes.
        budget_bytes: usize,
    },
    /// Adaptive merging with the given run size.
    AdaptiveMerging {
        /// Tuples per initial sorted run.
        run_size: usize,
    },
    /// One of the hybrid crack/sort/radix algorithms.
    Hybrid {
        /// Which hybrid.
        algorithm: HybridKind,
    },
    /// Online index tuning (monitor, then build a full index).
    OnlineTuning,
    /// Soft indexes (periodic decisions, piggybacked construction).
    SoftIndexes,
}

/// Serializable mirror of [`HybridAlgorithm`] (kept separate so that
/// `StrategyKind` can derive `Serialize` without foreign-type issues).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HybridKind {
    /// Hybrid crack-crack.
    CrackCrack,
    /// Hybrid crack-sort.
    CrackSort,
    /// Hybrid crack-radix.
    CrackRadix,
    /// Hybrid sort-sort.
    SortSort,
    /// Hybrid sort-radix.
    SortRadix,
    /// Hybrid radix-radix.
    RadixRadix,
}

impl From<HybridKind> for HybridAlgorithm {
    fn from(kind: HybridKind) -> Self {
        match kind {
            HybridKind::CrackCrack => HybridAlgorithm::CrackCrack,
            HybridKind::CrackSort => HybridAlgorithm::CrackSort,
            HybridKind::CrackRadix => HybridAlgorithm::CrackRadix,
            HybridKind::SortSort => HybridAlgorithm::SortSort,
            HybridKind::SortRadix => HybridAlgorithm::SortRadix,
            HybridKind::RadixRadix => HybridAlgorithm::RadixRadix,
        }
    }
}

/// Construction-time tuning knobs for the strategies the kernel builds
/// lazily.
///
/// The [`StrategyKind`] enum names *which* technique to use; this struct
/// carries the parameters that used to be hardcoded at the build site — the
/// updatable-cracking merge policy and the hybrid partition sizing — so the
/// facade ([`crate::DatabaseBuilder`]) can expose them. Parameters that are
/// part of a kind's identity (e.g. the adaptive-merging run size) stay on
/// the kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyTuning {
    /// How updatable cracking merges pending inserts during queries.
    pub merge_policy: MergePolicy,
    /// Tuples per initial partition for the hybrid crack/sort/radix
    /// algorithms.
    pub hybrid_partition_size: usize,
    /// Radix bits used by the radix-based hybrid variants.
    pub hybrid_radix_bits: u32,
}

impl Default for StrategyTuning {
    fn default() -> Self {
        StrategyTuning {
            merge_policy: MergePolicy::MergeRipple,
            hybrid_partition_size: 1 << 14,
            hybrid_radix_bits: 6,
        }
    }
}

impl StrategyKind {
    /// Short label used in harness output.
    pub fn label(&self) -> &'static str {
        match self {
            StrategyKind::FullScan => "full-scan",
            StrategyKind::FullSort => "full-sort",
            StrategyKind::Cracking => "cracking",
            StrategyKind::StochasticCracking => "stochastic-cracking",
            StrategyKind::UpdatableCracking => "updatable-cracking",
            StrategyKind::PartialCracking { .. } => "partial-cracking",
            StrategyKind::AdaptiveMerging { .. } => "adaptive-merging",
            StrategyKind::Hybrid { algorithm } => match algorithm {
                HybridKind::CrackCrack => "hybrid-crack-crack",
                HybridKind::CrackSort => "hybrid-crack-sort",
                HybridKind::CrackRadix => "hybrid-crack-radix",
                HybridKind::SortSort => "hybrid-sort-sort",
                HybridKind::SortRadix => "hybrid-sort-radix",
                HybridKind::RadixRadix => "hybrid-radix-radix",
            },
            StrategyKind::OnlineTuning => "online-tuning",
            StrategyKind::SoftIndexes => "soft-indexes",
        }
    }

    /// Whether this kind's build cracks on the query it is built for (see
    /// [`StrategyKind::build_from`]).
    pub fn cracks_while_building(&self) -> bool {
        matches!(
            self,
            StrategyKind::Cracking | StrategyKind::UpdatableCracking
        )
    }

    /// Build an index of this kind over the given keys with default tuning.
    pub fn build(&self, keys: &[Key]) -> Box<dyn AdaptiveIndex + Send> {
        self.build_with(keys, &StrategyTuning::default())
    }

    /// Build an index of this kind over the given keys, using `tuning` for
    /// the parameters that are not part of the kind itself.
    pub fn build_with(
        &self,
        keys: &[Key],
        tuning: &StrategyTuning,
    ) -> Box<dyn AdaptiveIndex + Send> {
        self.build_from(&KeySource::Flat(keys), None, tuning)
    }

    /// Build an index of this kind from a view of the base column — a flat
    /// slice or a chunked segment, read where it lies, without a transient
    /// contiguous copy — for the query `first_query` that found the column
    /// unindexed, if one did.
    ///
    /// [`StrategyKind::Cracking`] and [`StrategyKind::UpdatableCracking`]
    /// crack on that query's `[low, high)` while they copy (see
    /// [`CrackedIndex::from_chunks`]); the caller still asks the query
    /// afterwards, and it finds its piece in place. Every other kind builds
    /// the index it always builds and `first_query` changes nothing.
    pub fn build_from(
        &self,
        keys: &KeySource<'_>,
        first_query: Option<(Key, Key)>,
        tuning: &StrategyTuning,
    ) -> Box<dyn AdaptiveIndex + Send> {
        match keys {
            KeySource::Flat(slice) => {
                self.build_inner(slice.iter().copied(), keys, first_query, tuning)
            }
            KeySource::Segmented(segment) => {
                self.build_inner(segment.iter(), keys, first_query, tuning)
            }
        }
    }

    /// `stream` and `source` are the same keys twice: the kinds that sort,
    /// merge or just keep the keys consume the stream, the cracking kinds
    /// partition straight out of the source's chunks.
    fn build_inner(
        &self,
        stream: impl ExactSizeIterator<Item = Key>,
        source: &KeySource<'_>,
        first_query: Option<(Key, Key)>,
        tuning: &StrategyTuning,
    ) -> Box<dyn AdaptiveIndex + Send> {
        match *self {
            StrategyKind::FullScan => Box::new(ScanStrategy {
                inner: FullScanIndex::from_key_iter(stream),
            }),
            StrategyKind::FullSort => Box::new(SortStrategy {
                inner: FullSortIndex::from_key_iter(stream),
            }),
            StrategyKind::Cracking => Box::new(CrackingStrategy {
                inner: CrackedIndex::from_chunks(&source.chunks(), first_query),
            }),
            StrategyKind::StochasticCracking => Box::new(StochasticStrategy {
                inner: StochasticCrackedIndex::from_chunks(
                    &source.chunks(),
                    StochasticVariant::DataDrivenCenter,
                    1 << 12,
                    0xA1D0,
                ),
            }),
            StrategyKind::UpdatableCracking => Box::new(UpdatableStrategy {
                inner: UpdatableCrackedIndex::from_chunks(
                    &source.chunks(),
                    first_query,
                    tuning.merge_policy,
                ),
            }),
            StrategyKind::PartialCracking { budget_bytes } => Box::new(PartialStrategy {
                inner: PartialCrackedIndex::from_key_iter(stream, budget_bytes),
            }),
            StrategyKind::AdaptiveMerging { run_size } => Box::new(MergingStrategy {
                inner: AdaptiveMergeIndex::from_key_iter(stream, run_size),
            }),
            StrategyKind::Hybrid { algorithm } => Box::new(HybridStrategy {
                inner: HybridIndex::from_key_iter(
                    stream,
                    algorithm.into(),
                    tuning.hybrid_partition_size,
                    tuning.hybrid_radix_bits,
                ),
            }),
            StrategyKind::OnlineTuning => Box::new(OnlineStrategy {
                inner: OnlineIndexTuner::from_key_iter(stream),
            }),
            StrategyKind::SoftIndexes => Box::new(SoftStrategy {
                inner: SoftIndexTuner::from_key_iter(stream, 10),
            }),
        }
    }

    /// Every kind with reasonable default parameters, for benchmark sweeps.
    pub fn all_defaults() -> Vec<StrategyKind> {
        vec![
            StrategyKind::FullScan,
            StrategyKind::FullSort,
            StrategyKind::Cracking,
            StrategyKind::StochasticCracking,
            StrategyKind::UpdatableCracking,
            StrategyKind::PartialCracking {
                budget_bytes: usize::MAX,
            },
            StrategyKind::AdaptiveMerging { run_size: 1 << 14 },
            StrategyKind::Hybrid {
                algorithm: HybridKind::CrackSort,
            },
            StrategyKind::OnlineTuning,
            StrategyKind::SoftIndexes,
        ]
    }
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

struct ScanStrategy {
    inner: FullScanIndex,
}

impl AdaptiveIndex for ScanStrategy {
    fn name(&self) -> &'static str {
        "full-scan"
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        // a scan emits row ids in order; nothing downstream re-sorts them
        QueryOutput::from_row_ids(self.inner.query_range(low, high).into_vec())
    }
    fn effort(&self) -> u64 {
        self.inner.stats().total_effort()
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

struct SortStrategy {
    inner: FullSortIndex,
}

impl AdaptiveIndex for SortStrategy {
    fn name(&self) -> &'static str {
        "full-sort"
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(self.inner.query_range(low, high))
    }
    fn effort(&self) -> u64 {
        self.inner.stats().total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        self.inner.len() * 12
    }
    fn is_adaptive(&self) -> bool {
        false
    }
    fn is_converged(&self) -> bool {
        true
    }
}

struct CrackingStrategy {
    inner: CrackedIndex,
}

impl AdaptiveIndex for CrackingStrategy {
    fn name(&self) -> &'static str {
        "cracking"
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(self.inner.query_range(low, high).rowids().to_vec())
    }
    fn effort(&self) -> u64 {
        self.inner.stats().total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        self.inner.column().byte_size()
    }
    fn pieces(&self) -> usize {
        self.inner.piece_count()
    }
    fn is_adaptive(&self) -> bool {
        true
    }
    fn is_converged(&self) -> bool {
        self.inner.is_converged(1 << 10)
    }
}

struct StochasticStrategy {
    inner: StochasticCrackedIndex,
}

impl AdaptiveIndex for StochasticStrategy {
    fn name(&self) -> &'static str {
        "stochastic-cracking"
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(self.inner.query_range(low, high).rowids().to_vec())
    }
    fn effort(&self) -> u64 {
        self.inner.stats().total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        self.inner.inner().column().byte_size()
    }
    fn pieces(&self) -> usize {
        self.inner.piece_count()
    }
    fn is_adaptive(&self) -> bool {
        true
    }
    fn is_converged(&self) -> bool {
        self.inner.largest_piece() <= 1 << 10
    }
}

struct UpdatableStrategy {
    inner: UpdatableCrackedIndex,
}

impl AdaptiveIndex for UpdatableStrategy {
    fn name(&self) -> &'static str {
        "updatable-cracking"
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(self.inner.query_rowids(low, high))
    }
    fn effort(&self) -> u64 {
        self.inner.stats().total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        let pending = self.inner.pending_insert_count() + self.inner.pending_delete_count();
        self.inner.index().column().byte_size() + pending * std::mem::size_of::<(Key, RowId)>()
    }
    fn pieces(&self) -> usize {
        self.inner.piece_count()
    }
    fn is_adaptive(&self) -> bool {
        true
    }
    fn is_converged(&self) -> bool {
        self.inner.index().is_converged(1 << 10)
    }
    fn insert(&mut self, key: Key) -> bool {
        self.inner.insert(key);
        true
    }
}

struct PartialStrategy {
    inner: PartialCrackedIndex,
}

impl AdaptiveIndex for PartialStrategy {
    fn name(&self) -> &'static str {
        "partial-cracking"
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(self.inner.query_range(low, high).rowids)
    }
    fn effort(&self) -> u64 {
        // base scans dominate; fragments account for themselves internally
        self.inner.base_scans() * self.inner.len() as u64
    }
    fn auxiliary_bytes(&self) -> usize {
        self.inner.fragment_bytes()
    }
    fn pieces(&self) -> usize {
        self.inner.fragment_count()
    }
    fn is_adaptive(&self) -> bool {
        true
    }
    fn is_converged(&self) -> bool {
        false
    }
}

struct MergingStrategy {
    inner: AdaptiveMergeIndex,
}

impl AdaptiveIndex for MergingStrategy {
    fn name(&self) -> &'static str {
        "adaptive-merging"
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(self.inner.query_range(low, high).into_rowids())
    }
    fn effort(&self) -> u64 {
        self.inner.stats().total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        self.inner.len() * 12
    }
    fn pieces(&self) -> usize {
        // unmerged runs plus the growing final index
        self.inner.active_run_count() + 1
    }
    fn is_adaptive(&self) -> bool {
        true
    }
    fn is_converged(&self) -> bool {
        self.inner.is_converged()
    }
}

struct HybridStrategy {
    inner: HybridIndex,
}

impl AdaptiveIndex for HybridStrategy {
    fn name(&self) -> &'static str {
        "hybrid"
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(self.inner.query_range(low, high).rowids)
    }
    fn effort(&self) -> u64 {
        self.inner.stats().total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        self.inner.len() * 12
    }
    fn is_adaptive(&self) -> bool {
        true
    }
    fn is_converged(&self) -> bool {
        self.inner.is_converged()
    }
}

struct OnlineStrategy {
    inner: OnlineIndexTuner,
}

impl AdaptiveIndex for OnlineStrategy {
    fn name(&self) -> &'static str {
        "online-tuning"
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(self.inner.query_range(low, high))
    }
    fn effort(&self) -> u64 {
        self.inner.total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        if self.inner.index_built() {
            self.inner.len() * 12
        } else {
            0
        }
    }
    fn is_adaptive(&self) -> bool {
        false
    }
    fn is_converged(&self) -> bool {
        self.inner.index_built()
    }
}

struct SoftStrategy {
    inner: SoftIndexTuner,
}

impl AdaptiveIndex for SoftStrategy {
    fn name(&self) -> &'static str {
        "soft-indexes"
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(self.inner.query_range(low, high))
    }
    fn effort(&self) -> u64 {
        self.inner.total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        if self.inner.index_built() {
            self.inner.len() * 12
        } else {
            0
        }
    }
    fn is_adaptive(&self) -> bool {
        false
    }
    fn is_converged(&self) -> bool {
        self.inner.index_built()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_keys(n: usize) -> Vec<Key> {
        (0..n as Key).map(|i| (i * 10007) % n as Key).collect()
    }

    fn reference_count(keys: &[Key], low: Key, high: Key) -> usize {
        keys.iter().filter(|&&k| k >= low && k < high).count()
    }

    #[test]
    fn every_strategy_answers_correctly() {
        let keys = test_keys(3000);
        for kind in StrategyKind::all_defaults() {
            let mut index = kind.build(&keys);
            assert_eq!(index.len(), 3000, "{}", kind.label());
            assert!(!index.is_empty());
            for q in 0..40 {
                let low = (q * 67) % 2500;
                let high = low + 150;
                let output = index.query_range(low, high);
                assert_eq!(
                    output.count(),
                    reference_count(&keys, low, high),
                    "{} query {q}",
                    kind.label()
                );
                // row ids refer to the base column
                for &p in output.row_ids() {
                    let v = keys[p as usize];
                    assert!(v >= low && v < high, "{}", kind.label());
                }
            }
            assert!(index.effort() > 0, "{}", kind.label());
        }
    }

    #[test]
    fn strategy_metadata_is_consistent() {
        let keys = test_keys(500);
        for kind in StrategyKind::all_defaults() {
            let index = kind.build(&keys);
            assert!(!index.name().is_empty());
            match kind {
                StrategyKind::FullScan => {
                    assert!(!index.is_adaptive());
                    assert_eq!(index.auxiliary_bytes(), 0);
                }
                StrategyKind::FullSort => {
                    assert!(index.is_converged());
                    assert!(index.auxiliary_bytes() > 0);
                }
                StrategyKind::Cracking
                | StrategyKind::StochasticCracking
                | StrategyKind::UpdatableCracking
                | StrategyKind::PartialCracking { .. }
                | StrategyKind::AdaptiveMerging { .. }
                | StrategyKind::Hybrid { .. } => {
                    assert!(index.is_adaptive(), "{}", kind.label());
                }
                StrategyKind::OnlineTuning | StrategyKind::SoftIndexes => {
                    assert!(!index.is_converged(), "no index built yet");
                }
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> = StrategyKind::all_defaults()
            .iter()
            .map(|k| k.label())
            .collect();
        assert_eq!(labels.len(), StrategyKind::all_defaults().len());
    }

    #[test]
    fn adaptive_strategies_get_cheaper_non_adaptive_scan_does_not() {
        let keys = test_keys(50_000);
        let mut cracking = StrategyKind::Cracking.build(&keys);
        let mut scan = StrategyKind::FullScan.build(&keys);
        // warm up with repeated queries over the same range
        let _ = cracking.query_range(1000, 2000);
        let _ = scan.query_range(1000, 2000);
        let cracking_effort_first = cracking.effort();
        let scan_effort_first = scan.effort();
        let _ = cracking.query_range(1000, 2000);
        let _ = scan.query_range(1000, 2000);
        let cracking_delta = cracking.effort() - cracking_effort_first;
        let scan_delta = scan.effort() - scan_effort_first;
        assert!(
            cracking_delta < scan_delta / 10,
            "repeat query on cracked range ({cracking_delta}) must be far cheaper than a scan ({scan_delta})"
        );
    }

    #[test]
    fn insert_supported_only_by_updatable_strategies() {
        let keys = test_keys(100);
        let mut updatable = StrategyKind::UpdatableCracking.build(&keys);
        let before = updatable.auxiliary_bytes();
        assert!(updatable.insert(42));
        assert_eq!(updatable.len(), 101);
        assert!(updatable.insert_batch(&[7, 7, -1]));
        assert_eq!(updatable.len(), 104);
        // staged tuples are auxiliary memory before the merge as after it
        let staged = std::mem::size_of::<(Key, RowId)>();
        assert_eq!(updatable.auxiliary_bytes(), before + 4 * staged);
        assert_eq!(updatable.query_range(Key::MIN, Key::MAX).count(), 104);
        let merged = std::mem::size_of::<Key>() + std::mem::size_of::<RowId>();
        assert_eq!(updatable.auxiliary_bytes(), before + 4 * merged);
        let mut plain = StrategyKind::Cracking.build(&keys);
        assert!(!plain.insert(42));
        assert!(!plain.insert_batch(&[42]));
        assert_eq!(plain.len(), 100);
    }

    #[test]
    fn convergence_flags_move_with_the_workload() {
        let keys = test_keys(8192);
        let mut merging = StrategyKind::AdaptiveMerging { run_size: 1024 }.build(&keys);
        assert!(!merging.is_converged());
        let _ = merging.query_range(Key::MIN, Key::MAX);
        assert!(merging.is_converged());

        let mut online = StrategyKind::OnlineTuning.build(&keys);
        assert!(!online.is_converged());
        for q in 0..200 {
            let low = (q * 37) % 8000;
            let _ = online.query_range(low, low + 64);
        }
        assert!(
            online.is_converged(),
            "online tuner should have built its index"
        );
    }

    #[test]
    fn empty_columns_are_handled() {
        for kind in StrategyKind::all_defaults() {
            let mut index = kind.build(&[]);
            assert!(index.is_empty(), "{}", kind.label());
            assert_eq!(index.query_range(0, 10).count(), 0, "{}", kind.label());
        }
    }

    #[test]
    fn build_with_honors_tuning() {
        let keys = test_keys(2000);
        let tuning = StrategyTuning {
            merge_policy: MergePolicy::MergeCompletely,
            hybrid_partition_size: 256,
            hybrid_radix_bits: 4,
        };
        // tuned builds answer exactly like default builds
        for kind in [
            StrategyKind::UpdatableCracking,
            StrategyKind::Hybrid {
                algorithm: HybridKind::CrackRadix,
            },
        ] {
            let mut tuned = kind.build_with(&keys, &tuning);
            let mut default = kind.build(&keys);
            for q in 0..20 {
                let low = (q * 97) % 1800;
                assert_eq!(
                    tuned.query_range(low, low + 100).count(),
                    default.query_range(low, low + 100).count(),
                    "{} query {q}",
                    kind.label()
                );
            }
        }
        assert_eq!(StrategyTuning::default().hybrid_radix_bits, 6);
        assert_eq!(
            StrategyTuning::default().merge_policy,
            MergePolicy::MergeRipple
        );
    }

    #[test]
    fn iterator_builds_answer_exactly_like_slice_builds() {
        use aidx_columnstore::segment::Segment;
        let keys = test_keys(3000);
        let segment = Segment::from_vec_with_capacity(keys.clone(), 128);
        let tuning = StrategyTuning::default();
        let queries: Vec<(Key, Key)> = (0..30)
            .map(|q| ((q * 151) % 2500, (q * 151) % 2500 + 200))
            .collect();
        for kind in StrategyKind::all_defaults() {
            // built for no query, and for the one that is asked first
            for first_query in [None, Some(queries[0])] {
                let mut from_slice = kind.build_with(&keys, &tuning);
                let mut from_segment = kind.build_from(&(&segment).into(), first_query, &tuning);
                assert_eq!(from_segment.len(), from_slice.len(), "{}", kind.label());
                for (q, &(low, high)) in queries.iter().enumerate() {
                    assert_eq!(
                        from_segment.query_range(low, high).into_positions(),
                        from_slice.query_range(low, high).into_positions(),
                        "{} query {q}",
                        kind.label()
                    );
                }
                assert_eq!(
                    from_segment.pieces(),
                    from_slice.pieces(),
                    "{}",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn strategy_kind_serializes() {
        let kind = StrategyKind::Hybrid {
            algorithm: HybridKind::CrackSort,
        };
        let json = serde_json::to_string(&kind).unwrap();
        let back: StrategyKind = serde_json::from_str(&json).unwrap();
        assert_eq!(kind, back);
        assert_eq!(back.label(), "hybrid-crack-sort");
    }
}
