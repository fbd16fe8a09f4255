//! [`StrategyKind`]: which index to build for a column, and the one place
//! that builds it.
//!
//! Every indexing technique in the workspace — adaptive or not — implements
//! [`AdaptiveIndex`] on its own type, in its own crate, so the index manager,
//! the auto-tuner, the executor and the benchmark harnesses treat them
//! interchangeably. This module names the kinds, carries their tuning, and
//! boxes the real type; the trait and its answer type live in
//! `aidx_columnstore::index` and are re-exported here.

use aidx_baselines::{FullScanIndex, FullSortIndex, OnlineIndexTuner, SoftIndexTuner};
use aidx_columnstore::types::Key;
use aidx_cracking::partial::PartialCrackedIndex;
use aidx_cracking::selection::CrackedIndex;
use aidx_cracking::stochastic::{StochasticCrackedIndex, StochasticVariant};
use aidx_hybrids::HybridIndex;
use aidx_merging::AdaptiveMergeIndex;
use serde::{Deserialize, Serialize};

pub use aidx_columnstore::index::{AdaptiveIndex, QueryOutput};
/// Which hybrid crack/sort/radix algorithm a [`StrategyKind::Hybrid`] builds.
pub use aidx_hybrids::HybridAlgorithm as HybridKind;

/// Which strategy to build for a column.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// No index: scan on every query.
    FullScan,
    /// Offline full index: sort everything up front.
    FullSort,
    /// Database cracking (selection cracking), absorbing inserts by
    /// merge-ripple.
    Cracking,
    /// Stochastic cracking (DDC auxiliary cracks).
    StochasticCracking,
    /// The same index as [`StrategyKind::Cracking`], under its own label:
    /// an alias kept for callers that still name it.
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

/// Construction-time tuning knobs for the strategies the kernel builds
/// lazily.
///
/// The [`StrategyKind`] enum names *which* technique to use; this struct
/// carries the parameters that used to be hardcoded at the build site — the
/// hybrid partition sizing — so the facade ([`crate::DatabaseBuilder`]) can
/// expose them. Parameters that are part of a kind's identity (e.g. the
/// adaptive-merging run size) stay on the kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyTuning {
    /// Tuples per initial partition for the hybrid crack/sort/radix
    /// algorithms.
    pub hybrid_partition_size: usize,
    /// Radix bits used by the radix-based hybrid variants.
    pub hybrid_radix_bits: u32,
}

impl Default for StrategyTuning {
    fn default() -> Self {
        StrategyTuning {
            hybrid_partition_size: 1 << 14,
            hybrid_radix_bits: 6,
        }
    }
}

impl StrategyKind {
    /// Short label used in harness output and as [`crate::manager::IndexInfo`]'s
    /// strategy name.
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
                HybridKind::SortCrack => "hybrid-sort-crack",
                HybridKind::SortSort => "hybrid-sort-sort",
                HybridKind::SortRadix => "hybrid-sort-radix",
                HybridKind::RadixCrack => "hybrid-radix-crack",
                HybridKind::RadixSort => "hybrid-radix-sort",
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

    /// Build an index of this kind over a dense key slice with default
    /// tuning and no query to build for: [`StrategyKind::build_from`] over
    /// one chunk.
    pub fn build(&self, keys: &[Key]) -> Box<dyn AdaptiveIndex + Send> {
        self.build_from(&[keys], None, &StrategyTuning::default())
    }

    /// Build an index of this kind over a base column stored as `chunks` —
    /// the one slice of a flat column, a segment's sealed chunks and tail,
    /// read where they lie — using `tuning` for the parameters that are not
    /// part of the kind itself, for the query `first_query` that found the
    /// column unindexed, if one did.
    ///
    /// [`StrategyKind::Cracking`] (and its alias
    /// [`StrategyKind::UpdatableCracking`]) cracks on that query's
    /// `[low, high)` while it copies (see [`CrackedIndex::from_chunks`]); the
    /// caller still asks the query afterwards, and it finds its piece in
    /// place. Every other kind builds the index it always builds and
    /// `first_query` changes nothing.
    pub fn build_from(
        &self,
        chunks: &[&[Key]],
        first_query: Option<(Key, Key)>,
        tuning: &StrategyTuning,
    ) -> Box<dyn AdaptiveIndex + Send> {
        match *self {
            StrategyKind::FullScan => Box::new(FullScanIndex::from_chunks(chunks)),
            StrategyKind::FullSort => Box::new(FullSortIndex::from_chunks(chunks)),
            StrategyKind::Cracking | StrategyKind::UpdatableCracking => {
                Box::new(CrackedIndex::from_chunks(chunks, first_query))
            }
            StrategyKind::StochasticCracking => Box::new(StochasticCrackedIndex::from_chunks(
                chunks,
                StochasticVariant::DataDrivenCenter,
                1 << 12,
                0xA1D0,
            )),
            StrategyKind::PartialCracking { budget_bytes } => {
                Box::new(PartialCrackedIndex::from_chunks(chunks, budget_bytes))
            }
            StrategyKind::AdaptiveMerging { run_size } => {
                Box::new(AdaptiveMergeIndex::from_chunks(chunks, run_size))
            }
            StrategyKind::Hybrid { algorithm } => Box::new(HybridIndex::from_chunks(
                chunks,
                algorithm,
                tuning.hybrid_partition_size,
                tuning.hybrid_radix_bits,
            )),
            StrategyKind::OnlineTuning => Box::new(OnlineIndexTuner::from_chunks(chunks)),
            StrategyKind::SoftIndexes => Box::new(SoftIndexTuner::from_chunks(chunks, 10)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_columnstore::types::RowId;

    /// The default kinds, with every hybrid in place of the one.
    fn all_kinds() -> Vec<StrategyKind> {
        let hybrids = HybridKind::all()
            .into_iter()
            .map(|algorithm| StrategyKind::Hybrid { algorithm });
        StrategyKind::all_defaults()
            .into_iter()
            .filter(|kind| !matches!(kind, StrategyKind::Hybrid { .. }))
            .chain(hybrids)
            .collect()
    }

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
        let kinds = all_kinds();
        assert_eq!(kinds.len(), 9 + 9);
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
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
        for kind in StrategyKind::all_defaults() {
            let mut index = kind.build(&keys);
            let absorbs = matches!(
                kind,
                StrategyKind::Cracking
                    | StrategyKind::UpdatableCracking
                    | StrategyKind::StochasticCracking
            );
            assert_eq!(index.insert(42), absorbs, "{}", kind.label());
            if !absorbs {
                assert!(!index.insert_batch(&[42]), "{}", kind.label());
                assert_eq!(index.len(), 100, "{}", kind.label());
                continue;
            }
            let before = index.auxiliary_bytes();
            assert_eq!(index.len(), 101);
            assert!(index.insert_batch(&[7, 7, -1]));
            assert_eq!(index.len(), 104);
            // staged tuples are auxiliary memory before the merge as after it
            let staged = std::mem::size_of::<(Key, RowId)>();
            assert_eq!(index.auxiliary_bytes(), before + 3 * staged);
            assert_eq!(index.query_range(Key::MIN, Key::MAX).count(), 104);
            let merged = std::mem::size_of::<Key>() + std::mem::size_of::<RowId>();
            assert_eq!(
                index.auxiliary_bytes(),
                before + 4 * merged - staged,
                "{}",
                kind.label()
            );
        }
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
            hybrid_partition_size: 256,
            hybrid_radix_bits: 4,
        };
        // tuned builds answer exactly like default builds
        let kind = StrategyKind::Hybrid {
            algorithm: HybridKind::CrackRadix,
        };
        let mut tuned = kind.build_from(&[&keys], None, &tuning);
        let mut default = kind.build(&keys);
        for q in 0..20 {
            let low = (q * 97) % 1800;
            assert_eq!(
                tuned.query_range(low, low + 100).count(),
                default.query_range(low, low + 100).count(),
                "query {q}"
            );
        }
        assert_eq!(StrategyTuning::default().hybrid_radix_bits, 6);
    }

    #[test]
    fn iterator_builds_answer_exactly_like_slice_builds() {
        use aidx_columnstore::segment::Segment;
        let keys = test_keys(3000);
        let segment = Segment::from_vec_with_capacity(keys.clone(), 128);
        let chunks: Vec<&[Key]> = segment.chunks().map(|chunk| chunk.values).collect();
        assert!(chunks.len() > 20);
        // hybrid partitions end inside chunks
        let tuning = StrategyTuning {
            hybrid_partition_size: 200,
            ..StrategyTuning::default()
        };
        let queries: Vec<(Key, Key)> = (0..30)
            .map(|q| ((q * 151) % 2500, (q * 151) % 2500 + 200))
            .collect();
        for kind in all_kinds() {
            // built for no query, and for the one that is asked first
            for first_query in [None, Some(queries[0])] {
                let mut from_slice = kind.build_from(&[&keys], None, &tuning);
                let mut from_segment = kind.build_from(&chunks, first_query, &tuning);
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

    #[test]
    fn strategy_kind_json_is_pinned() {
        // what the commit before the `HybridKind` mirror went away wrote
        let golden = [
            (StrategyKind::Cracking, r#""Cracking""#),
            (
                StrategyKind::PartialCracking { budget_bytes: 4096 },
                r#"{"PartialCracking":{"budget_bytes":4096}}"#,
            ),
            (
                StrategyKind::AdaptiveMerging { run_size: 1 << 14 },
                r#"{"AdaptiveMerging":{"run_size":16384}}"#,
            ),
            (
                StrategyKind::Hybrid {
                    algorithm: HybridKind::CrackSort,
                },
                r#"{"Hybrid":{"algorithm":"CrackSort"}}"#,
            ),
        ];
        for (kind, json) in golden {
            assert_eq!(serde_json::to_string(&kind).unwrap(), json);
            assert_eq!(serde_json::from_str::<StrategyKind>(json).unwrap(), kind);
        }
        // the other hybrids follow the same shape, variant name for variant name
        for algorithm in HybridKind::all() {
            let kind = StrategyKind::Hybrid { algorithm };
            assert_eq!(
                serde_json::to_string(&kind).unwrap(),
                format!(r#"{{"Hybrid":{{"algorithm":"{algorithm:?}"}}}}"#)
            );
        }
    }
}
