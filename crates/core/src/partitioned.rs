//! Partition-parallel adaptive indexes.
//!
//! A [`PartitionedIndex`] is the multi-core form of a per-column adaptive
//! index: the key domain is range-partitioned (via `aidx-parallel`'s
//! data-parallel scatter), one strategy index is built **per partition** —
//! in parallel — and every query refines only the partitions its bounds
//! overlap, each under that partition's own latch. This is the design of
//! Alvarez et al. (*Main Memory Adaptive Indexing for Multi-core Systems*:
//! range partitioning beats shared cracking) combined with Graefe et al.
//! (*Concurrency Control for Adaptive Indexing*: partition-level latches are
//! enough, because reorganization never changes query answers).
//!
//! Three properties make the partitioned index a drop-in replacement for the
//! serial one:
//!
//! * **Same answers.** Partitions hold disjoint value ranges, every tuple
//!   lives in exactly one partition, and per-partition answers are mapped
//!   back to global row ids and concatenated — the same set of distinct row
//!   ids the serial index emits, at any worker count, and ordered by the
//!   same routine when a consumer needs order.
//! * **Same versioning.** The index tracks one global tuple count, so the
//!   [`crate::IndexManager`]'s epoch/length staleness guard works unchanged.
//! * **Snapshot safety.** Queries fan out *after* releasing the manager's
//!   per-column registry lock (so concurrent queries refine disjoint
//!   partitions truly concurrently), and clamp their merged answer to the
//!   snapshot's row count — a concurrent append that already reached the
//!   shared index can never leak rows a reader's snapshot does not have.

use crate::strategy::{AdaptiveIndex, QueryOutput, StrategyKind, StrategyTuning};
use aidx_columnstore::types::{Key, RowId};
use aidx_parallel::{partition_of, partition_span, PartitionData, ThreadPool};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many partitions to cut per pool worker. A little oversubscription
/// keeps workers busy when query bounds overlap only part of the domain and
/// when value skew makes partitions uneven.
pub const PARTITIONS_PER_WORKER: usize = 2;

/// One value-range partition: a strategy index over the partition's keys
/// plus the map from the index's local positions to global row ids.
struct Partition {
    index: Box<dyn AdaptiveIndex + Send>,
    /// `rowids[local_position] == global rowid`; grows in lockstep with the
    /// index when update-capable strategies absorb appends.
    rowids: Vec<RowId>,
}

/// A range-partitioned adaptive index over one column, refined
/// partition-parallel under per-partition latches.
pub struct PartitionedIndex {
    /// Interior cut points of the value ranges (see
    /// [`aidx_parallel::partition_of`]); edge partitions are open-ended so
    /// later appends always map somewhere.
    cuts: Vec<Key>,
    partitions: Vec<Mutex<Partition>>,
    /// Global tuple count (scatter total + absorbed appends). Mutated only
    /// under the manager's per-column registry lock; atomic so readers that
    /// hold the registry lock can load it through the shared `Arc`.
    len: AtomicUsize,
    name: &'static str,
    adaptive: bool,
}

impl std::fmt::Debug for PartitionedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedIndex")
            .field("strategy", &self.name)
            .field("partitions", &self.partitions.len())
            .field("tuples", &self.len())
            .finish()
    }
}

impl PartitionedIndex {
    /// Build one `kind` index per value-range partition, in parallel: the
    /// scattered partitions each become an independent strategy index whose
    /// local row ids are mapped back to global positions through the
    /// partition's rowid table.
    pub fn build(
        pool: &ThreadPool,
        scattered: (Vec<Key>, Vec<PartitionData>),
        kind: StrategyKind,
        tuning: &StrategyTuning,
    ) -> Self {
        let (cuts, data) = scattered;
        let built = pool.run(data.len(), |p| {
            kind.build_from(&[&data[p].keys], None, tuning)
        });
        let total: usize = data.iter().map(PartitionData::len).sum();
        let adaptive = built.first().is_some_and(|b| b.is_adaptive());
        let partitions = built
            .into_iter()
            .zip(data)
            .map(|(index, d)| {
                debug_assert_eq!(index.len(), d.rowids.len());
                Mutex::new(Partition {
                    index,
                    rowids: d.rowids,
                })
            })
            .collect();
        PartitionedIndex {
            cuts,
            partitions,
            len: AtomicUsize::new(total),
            name: kind.label(),
            adaptive,
        }
    }

    /// Global tuple count.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when the index covers no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of value-range partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Whether the wrapped strategy refines itself as a side effect of
    /// queries.
    pub fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// Answer `[low, high)` partition-parallel: fan the overlapping
    /// partitions out across `pool`, refine each under its latch, map local
    /// answers to global row ids, and concatenate. `snapshot_len` clamps the
    /// answer to the caller's snapshot (appends absorbed into the shared
    /// index after the snapshot was taken must stay invisible to it).
    ///
    /// Like every index answer the row ids are distinct (each tuple lives
    /// in exactly one partition) and unordered; once ordered, the answer is
    /// independent of the partition layout.
    pub fn query_range(
        &self,
        pool: &ThreadPool,
        low: Key,
        high: Key,
        snapshot_len: usize,
    ) -> QueryOutput {
        if low >= high || self.partitions.is_empty() {
            return QueryOutput::default();
        }
        let (first, last) = partition_span(&self.cuts, low, high);
        let last = last.min(self.partitions.len() - 1);
        let per_partition = pool.run(last - first + 1, |i| {
            let mut partition = self.partitions[first + i].lock();
            let output = partition.index.query_range(low, high);
            let rowids = &partition.rowids;
            output
                .row_ids()
                .iter()
                .map(|&local| rowids[local as usize])
                .filter(|&global| (global as usize) < snapshot_len)
                .collect::<Vec<RowId>>()
        });
        QueryOutput::from_row_ids(per_partition.concat())
    }

    /// Stage the append of `(key, global_rowid)` into the owning partition.
    /// Returns `false` when the strategy cannot absorb inserts (the manager
    /// then drops the index so it rebuilds lazily). Callers must guarantee
    /// rowid continuity (the manager's epoch/length guard does).
    pub fn insert(&self, key: Key, global_rowid: RowId) -> bool {
        let Some(slot) = self
            .partitions
            .get(partition_of(&self.cuts, key))
            .or_else(|| self.partitions.last())
        else {
            return false;
        };
        let mut partition = slot.lock();
        if partition.index.insert(key) {
            partition.rowids.push(global_rowid);
            self.len.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Cumulative machine-independent work across all partitions.
    pub fn effort(&self) -> u64 {
        self.partitions
            .iter()
            .map(|p| p.lock().index.effort())
            .sum()
    }

    /// Physical index pieces across all partitions (each partition's
    /// strategy index reports its own cracked pieces / fragments / runs).
    pub fn pieces(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.lock().index.pieces())
            .sum()
    }

    /// Auxiliary memory across all partitions, including the local-to-global
    /// rowid maps.
    pub fn auxiliary_bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| {
                let partition = p.lock();
                partition.index.auxiliary_bytes()
                    + partition.rowids.len() * std::mem::size_of::<RowId>()
            })
            .sum()
    }

    /// True when every partition reports convergence.
    pub fn is_converged(&self) -> bool {
        self.partitions
            .iter()
            .all(|p| p.lock().index.is_converged())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_parallel::partition_keys;

    fn keys(n: usize) -> Vec<Key> {
        (0..n as Key).map(|i| (i * 613) % n as Key).collect()
    }

    fn build(
        data: &[Key],
        kind: StrategyKind,
        threads: usize,
        partitions: usize,
    ) -> (ThreadPool, PartitionedIndex) {
        let pool = ThreadPool::new(threads);
        let scattered = partition_keys(&pool, data, partitions).into_parts();
        let index = PartitionedIndex::build(&pool, scattered, kind, &StrategyTuning::default());
        (pool, index)
    }

    #[test]
    fn partitioned_answers_match_serial_for_every_strategy() {
        let data = keys(4000);
        for kind in StrategyKind::all_defaults() {
            let mut serial = kind.build(&data);
            let (pool, partitioned) = build(&data, kind, 4, 8);
            assert_eq!(partitioned.len(), serial.len(), "{}", kind.label());
            for q in 0..40 {
                let low = (q * 97) % 3500;
                let high = low + 300;
                assert_eq!(
                    partitioned
                        .query_range(&pool, low, high, data.len())
                        .into_positions(),
                    serial.query_range(low, high).into_positions(),
                    "{} query {q}",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn snapshot_clamp_hides_rows_beyond_the_snapshot() {
        let data = keys(1000);
        let (pool, partitioned) = build(&data, StrategyKind::UpdatableCracking, 2, 4);
        assert!(partitioned.insert(5, 1000));
        assert_eq!(partitioned.len(), 1001);
        // a reader whose snapshot predates the insert never sees row 1000
        let old = partitioned.query_range(&pool, 5, 6, 1000);
        assert!(old.row_ids().iter().all(|&p| p < 1000));
        let new = partitioned.query_range(&pool, 5, 6, 1001);
        assert_eq!(new.count(), old.count() + 1);
        assert!(new.row_ids().contains(&1000));
    }

    #[test]
    fn inserts_route_to_the_owning_partition_only_for_updatable_strategies() {
        let data = keys(100);
        let (pool, updatable) = build(&data, StrategyKind::UpdatableCracking, 2, 4);
        assert!(updatable.insert(-1_000_000, 100), "below-domain keys clamp");
        assert!(updatable.insert(1_000_000, 101), "above-domain keys clamp");
        assert_eq!(updatable.len(), 102);
        let found = updatable.query_range(&pool, -1_000_000, 1_000_001, 102);
        assert_eq!(found.count(), 102);
        let (_, plain) = build(&data, StrategyKind::Cracking, 2, 4);
        assert!(!plain.insert(5, 100));
        assert_eq!(plain.len(), 100);
    }

    #[test]
    fn metadata_aggregates_across_partitions() {
        // partitions must stay above cracking's convergence piece size
        // (1 << 10) so the fresh index still reports unconverged
        let data = keys(40_000);
        let (pool, partitioned) = build(&data, StrategyKind::Cracking, 4, 8);
        assert!(partitioned.is_adaptive());
        assert!(!partitioned.is_empty());
        assert!(partitioned.partition_count() >= 2);
        assert!(partitioned.effort() > 0, "scatter-build charges the copy");
        assert!(partitioned.auxiliary_bytes() > 0);
        assert!(!partitioned.is_converged());
        let _ = partitioned.query_range(&pool, 0, 2000, data.len());
        assert!(format!("{partitioned:?}").contains("PartitionedIndex"));
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let (pool, empty) = build(&[], StrategyKind::Cracking, 4, 4);
        assert!(empty.is_empty());
        assert!(empty.query_range(&pool, 0, 10, 0).is_empty());
        let (pool, single) = build(&[7], StrategyKind::Cracking, 4, 4);
        assert_eq!(single.query_range(&pool, 7, 8, 1).count(), 1);
        assert!(single.query_range(&pool, 8, 8, 1).is_empty(), "low >= high");
    }

    #[test]
    fn concurrent_queries_refine_partitions_safely() {
        use std::sync::Arc;
        let data = keys(20_000);
        let (_, partitioned) = build(&data, StrategyKind::Cracking, 4, 8);
        let partitioned = Arc::new(partitioned);
        let expected = data.iter().filter(|&&k| (500..1500).contains(&k)).count();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let partitioned = Arc::clone(&partitioned);
            let n = data.len();
            handles.push(std::thread::spawn(move || {
                let pool = ThreadPool::new(2);
                (0..25)
                    .map(|_| partitioned.query_range(&pool, 500, 1500, n).count())
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            for count in handle.join().unwrap() {
                assert_eq!(count, expected);
            }
        }
    }
}
