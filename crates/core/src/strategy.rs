//! [`StrategyKind`]: which index to build for a column, and the one place
//! that builds it.
//!
//! Every indexing technique in the workspace — adaptive or not — implements
//! [`AdaptiveIndex`] on its own type, in its own crate, so the index manager,
//! the executor and the benchmark harnesses treat them interchangeably. This
//! module names the kinds, fixes their construction parameters, and boxes
//! the real type; the trait and its answer type live in
//! `aidx_columnstore::index` and are re-exported here.

use aidx_baselines::{FullScanIndex, FullSortIndex, OnlineIndexTuner};
use aidx_columnstore::types::Key;
use aidx_cracking::cracker_column::key_domain;
use aidx_cracking::partial::PartialCrackedIndex;
use aidx_cracking::selection::CrackedIndex;
use aidx_cracking::stochastic::{StochasticCrackedIndex, StochasticVariant};
use aidx_hybrids::{HybridIndex, PARTITION_SIZE, RADIX_BITS};
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

    /// Build an index of this kind over a dense key slice and no query to
    /// build for: [`StrategyKind::build_from`] over one chunk. A kind that
    /// stores a cracker column first pays one pass over the keys for their
    /// domain; the others never read it.
    pub fn build(&self, keys: &[Key]) -> Box<dyn AdaptiveIndex + Send> {
        let cracker_column = matches!(
            self,
            StrategyKind::Cracking
                | StrategyKind::UpdatableCracking
                | StrategyKind::StochasticCracking
        );
        let domain = if cracker_column {
            key_domain(keys)
        } else {
            None
        };
        self.build_from(&[keys], domain, None)
    }

    /// Build an index of this kind over a base column stored as `chunks` —
    /// the one slice of a flat column, a segment's sealed chunks and tail,
    /// read where they lie — for the query `first_query` that found the
    /// column unindexed, if one did. `domain` holds every key (`None` for
    /// none); it decides the width of a cracker column's keys (see
    /// [`aidx_cracking::cracker_column`]), and the kinds that store no
    /// cracker column ignore it.
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
        domain: Option<(Key, Key)>,
        first_query: Option<(Key, Key)>,
    ) -> Box<dyn AdaptiveIndex + Send> {
        match *self {
            StrategyKind::FullScan => Box::new(FullScanIndex::from_chunks(chunks)),
            StrategyKind::FullSort => Box::new(FullSortIndex::from_chunks(chunks)),
            StrategyKind::Cracking | StrategyKind::UpdatableCracking => {
                Box::new(CrackedIndex::from_chunks(chunks, domain, first_query))
            }
            StrategyKind::StochasticCracking => Box::new(StochasticCrackedIndex::from_chunks(
                chunks,
                domain,
                StochasticVariant::DataDrivenCenter,
                1 << 12,
                0xA1D0,
            )),
            StrategyKind::PartialCracking { budget_bytes } => {
                Box::new(PartialCrackedIndex::from_chunks(chunks, budget_bytes))
            }
            StrategyKind::AdaptiveMerging { run_size } => Box::new(HybridIndex::from_chunks(
                chunks,
                HybridKind::SortSort,
                run_size,
                RADIX_BITS,
            )),
            StrategyKind::Hybrid { algorithm } => Box::new(HybridIndex::from_chunks(
                chunks,
                algorithm,
                PARTITION_SIZE,
                RADIX_BITS,
            )),
            // decide after every query; build once the benefit covers the build
            StrategyKind::OnlineTuning => Box::new(OnlineIndexTuner::from_chunks(chunks, 1, 1.0)),
            // decide every 10 queries; the build piggybacks on a scan, at half
            // the cost
            StrategyKind::SoftIndexes => Box::new(OnlineIndexTuner::from_chunks(chunks, 10, 0.5)),
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
    use aidx_cracking::stats::CrackStats;

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
        // keys spanning less than 2^32 make 8-byte cracker tuples, keys
        // spanning all of `i64` 12-byte ones
        let narrow = test_keys(100);
        let mut wide = test_keys(100);
        (wide[0], wide[1]) = (Key::MIN, Key::MAX - 1);
        for (keys, merged) in [(narrow, 4 + 4), (wide, 8 + 4)] {
            for kind in StrategyKind::all_defaults() {
                let mut index = kind.build(&keys);
                let absorbs = matches!(
                    kind,
                    StrategyKind::Cracking
                        | StrategyKind::UpdatableCracking
                        | StrategyKind::StochasticCracking
                );
                assert_eq!(index.insert_batch(&[42]), absorbs, "{}", kind.label());
                if !absorbs {
                    // a refusal stages nothing
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
                assert_eq!(
                    index.auxiliary_bytes(),
                    before + 4 * merged - staged,
                    "{}",
                    kind.label()
                );
            }
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
    fn iterator_builds_answer_exactly_like_slice_builds() {
        use aidx_columnstore::segment::Segment;
        // hybrid partitions of `PARTITION_SIZE` end inside chunks
        let keys = test_keys(40_000);
        let segment = Segment::from_vec_with_capacity(keys.clone(), 1000);
        let chunks: Vec<&[Key]> = segment.chunks().map(|chunk| chunk.values).collect();
        assert!(chunks.len() > 20);
        assert_ne!(PARTITION_SIZE % 1000, 0);
        let queries: Vec<(Key, Key)> = (0..30)
            .map(|q| ((q * 1511) % 38_000, (q * 1511) % 38_000 + 2000))
            .collect();
        for kind in all_kinds() {
            // built for no query, and for the one that is asked first
            for first_query in [None, Some(queries[0])] {
                let mut from_slice = kind.build_from(&[&keys], key_domain(&keys), None);
                let domain = segment.min().zip(segment.max());
                let mut from_segment = kind.build_from(&chunks, domain, first_query);
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

    /// FNV-1a over a sequence of words: one number that pins a whole trace.
    fn digest(words: &[u64]) -> u64 {
        words.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &word| {
            word.to_le_bytes()
                .iter()
                .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// 200 uniform 1 % ranges over `0..30 000`, from a fixed xorshift stream.
    fn uniform_ranges() -> Vec<(Key, Key)> {
        let (n, width) = (30_000, 300);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..200)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let low = (state % (n - width)) as Key;
                (low, low + width as Key)
            })
            .collect()
    }

    #[test]
    fn soft_indexes_and_the_scan_and_sort_baselines_keep_their_traces() {
        let keys = test_keys(30_000);
        let queries = uniform_ranges();
        let mut soft = StrategyKind::SoftIndexes.build(&keys);
        let mut scan = StrategyKind::FullScan.build(&keys);
        let mut sort = StrategyKind::FullSort.build(&keys);
        let (mut answers, mut soft_trace) = (Vec::new(), Vec::new());
        let (mut scan_effort, mut sort_effort) = (Vec::new(), Vec::new());
        for (q, &(low, high)) in queries.iter().enumerate() {
            let before = soft.effort();
            let out = soft.query_range(low, high);
            assert_eq!(out.count(), reference_count(&keys, low, high), "query {q}");
            // the tenth query, the first decision point, scans and builds
            let built = q + 1 >= 10;
            assert_eq!(soft.is_converged(), built, "query {q}");
            assert_eq!(soft.auxiliary_bytes(), if built { 360_000 } else { 0 });
            let spent = soft.effort() - before;
            match q + 1 {
                1..=9 => assert_eq!(spent, 30_000, "query {q} scans"),
                10 => assert_eq!(spent, 30_000 + 30_000 + 30_000 * 15, "scan, copy, sort"),
                _ => assert_eq!(spent, 2 * 15 + out.count() as u64, "query {q} probes"),
            }
            answers.push(out.count() as u64);
            answers.extend(out.row_ids().iter().map(|&r| r as u64));
            soft_trace.extend([
                soft.effort(),
                soft.is_converged() as u64,
                soft.auxiliary_bytes() as u64,
            ]);
            let _ = scan.query_range(low, high);
            scan_effort.push(scan.effort());
            let _ = sort.query_range(low, high);
            sort_effort.push(sort.effort());
        }
        // the traces of the standalone soft-index type this one replaced,
        // and of the scan and sort baselines counting into their own stats
        assert_eq!(
            (soft.effort(), scan.effort(), sort.effort()),
            (842_700, 6_000_000, 546_000)
        );
        assert_eq!(digest(&answers), 0x5e4e_e675_ba2d_c5d5);
        assert_eq!(digest(&soft_trace), 0x22de_9707_aa5d_47b8);
        assert_eq!(digest(&scan_effort), 0x54bd_8d70_81e3_e379);
        assert_eq!(digest(&sort_effort), 0x641d_d326_a694_81f6);
    }

    /// Run `queries` through `answer`, which gives a query's row ids and the
    /// index's counters after it, checking each count against a scan. The
    /// run's pin: the last total effort, and digests of the answers (count,
    /// then row ids) and of the effort steps (the first one includes the
    /// build), each followed by every counter.
    fn trace(
        keys: &[Key],
        queries: &[(Key, Key)],
        mut answer: impl FnMut(Key, Key) -> (Vec<RowId>, CrackStats),
    ) -> (u64, u64, u64) {
        let (mut answers, mut steps, mut effort) = (Vec::new(), Vec::new(), 0);
        for (q, &(low, high)) in queries.iter().enumerate() {
            let (rowids, stats) = answer(low, high);
            assert_eq!(rowids.len(), reference_count(keys, low, high), "query {q}");
            answers.push(rowids.len() as u64);
            answers.extend(rowids.iter().map(|&r| u64::from(r)));
            steps.push(stats.total_effort() - effort);
            steps.extend(format!("{stats:?}").bytes().map(u64::from));
            effort = stats.total_effort();
        }
        (effort, digest(&answers), digest(&steps))
    }

    #[test]
    fn hybrid_crack_sources_and_sideways_keep_their_traces() {
        use aidx_cracking::sideways::MapSet;
        use HybridKind::*;
        let keys = test_keys(30_000);
        let queries = uniform_ranges();
        // recorded when crack sources and cracker maps had crackers of their own
        #[rustfmt::skip]
        let pinned = [
            (CrackCrack, 524_914, 0x8a4c_82cc_02bd_70e9, 0x2512_b044_cbeb_faac),
            (CrackSort, 714_418, 0x8794_0a1a_2639_1fe9, 0x5562_06b2_8065_0738),
            (CrackRadix, 541_022, 0xf8f4_8238_084d_d975, 0x7a9a_0fd7_25c3_c0cb),
            (SortCrack, 509_768, 0x64a2_71f6_d44f_cae9, 0xbd2c_1000_7724_d48a),
            (SortSort, 699_272, 0x8794_0a1a_2639_1fe9, 0xd287_c9b7_bcaa_6428),
            (SortRadix, 525_876, 0x8ee9_9732_9eed_614d, 0x66ba_19b0_bb47_4966),
            (RadixCrack, 242_506, 0x9b21_840d_f05a_f225, 0xe0ad_1358_2f91_1800),
            (RadixSort, 432_010, 0x8794_0a1a_2639_1fe9, 0x15ec_cd23_653a_7114),
            (RadixRadix, 258_614, 0x5fbe_03fd_6dc9_e5ad, 0x35c3_5b0b_cb6a_8737),
        ];
        let runs = pinned.map(|(algorithm, ..)| {
            let mut index = HybridIndex::from_keys(&keys, algorithm, 4096, RADIX_BITS);
            let run = trace(&keys, &queries, |low, high| {
                (index.query_range(low, high).rowids, *index.stats())
            });
            assert!(index.verify_integrity(), "{algorithm:?}");
            (algorithm, run.0, run.1, run.2)
        });
        assert_eq!(runs, pinned);

        // Two tails, projected alone and together. The block kernel orders a
        // piece unlike the loop it replaced, and counts the swaps that loop
        // did not: row ids are digested sorted, and the swaps left out.
        let b = keys.iter().map(|&k| k * 10).collect();
        let c = keys.iter().map(|&k| 1_000_000 - k).collect();
        let mut maps = MapSet::new(&keys, vec![("b", b), ("c", c)]);
        let projections = [&["b"][..], &["c"], &["b", "c"]];
        let mut next = projections.iter().cycle();
        let run = trace(&keys, &queries, |low, high| {
            let mut rowids = maps.select_project(low, high, next.next().unwrap()).rowids;
            rowids.sort_unstable();
            let stats = CrackStats {
                elements_swapped: 0,
                ..*maps.stats()
            };
            (rowids, stats)
        });
        assert_eq!(run, (898_335, 0x4404_fc8e_5bc1_3635, 0x6bfb_0318_f547_5ed7));
        assert_eq!(maps.crack_history_len(), 398);
        assert!(maps.stats().elements_swapped > 0 && maps.verify_integrity());
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
