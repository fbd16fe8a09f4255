//! Criterion benchmark for the update path: queries beside a stream of
//! insertions, on `CrackedIndex` and on the routine it replaced.
//!
//! The replay is the `ingest_mixed` ledger workload stripped of everything
//! but the index — a 250 000-key permutation, 1 020 batches of 64 staged
//! insertions, four random 250-wide range queries after each batch, each
//! merging the staged tuples inside its range — under two key
//! distributions:
//!
//! * `ascending_above`: every inserted key is larger than every stored one
//!   (what the ledger inserts). No piece lies above a merged tuple, so the
//!   cost that shows is finding the due tuples in the pending area.
//! * `uniform_inside`: inserted keys are uniform over the stored domain
//!   (no ledger workload has them). By the end some 4 000 pieces lie above
//!   an average merged tuple, so the cost that shows is the ripple.
//!
//! `batched` is the library: an ordered pending area, one descending pass
//! over the pieces above the smallest due key per query. `per_tuple` is what it
//! replaced, kept here as the baseline: pending tuples in a `Vec` walked
//! twice per query, and one ripple per merged tuple that copies every cut
//! out of the cracker index, filters, sorts, and inserts each downstream
//! cut back.
//!
//! Each benchmark times one whole replay; a `replay:` line beside it gives
//! the per-query median and 99th percentile from one more.

use aidx_columnstore::types::{Key, RowId};
use aidx_cracking::index::BTreeCutIndex;
use aidx_cracking::{CrackedIndex, CrackerColumn};
use aidx_workloads::data::{generate_keys, DataDistribution};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

const ROWS: usize = 250_000;
const BATCHES: usize = 1_020;
const BATCH_ROWS: usize = 64;
const QUERIES_PER_BATCH: usize = 4;
const QUERY_WIDTH: Key = 250;

#[derive(Clone, Copy)]
enum InsertedKeys {
    AscendingAbove,
    UniformInside,
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % bound
    }
}

/// What the replay needs of an index.
trait Subject {
    fn stage(&mut self, key: Key);
    /// Number of qualifying tuples, the row ids gathered as a query would.
    fn query(&mut self, low: Key, high: Key) -> usize;
}

impl Subject for CrackedIndex {
    fn stage(&mut self, key: Key) {
        self.insert(key);
    }
    fn query(&mut self, low: Key, high: Key) -> usize {
        self.query_range(low, high).rowids().to_vec().len()
    }
}

/// The update path as it was: the baseline.
struct PerTupleIndex {
    column: CrackerColumn,
    cuts: BTreeCutIndex,
    min: Key,
    max: Key,
    pending: Vec<(Key, RowId)>,
    next_rowid: RowId,
}

impl PerTupleIndex {
    fn new(keys: &[Key]) -> Self {
        PerTupleIndex {
            column: CrackerColumn::from_keys(keys),
            cuts: BTreeCutIndex::new(),
            min: keys.iter().copied().min().unwrap_or(0),
            max: keys.iter().copied().max().unwrap_or(0),
            pending: Vec::new(),
            next_rowid: keys.len() as RowId,
        }
    }

    /// The position of the cut at `key`, cracking its piece if need be.
    fn cut(&mut self, key: Key) -> usize {
        let len = self.column.len();
        if key <= self.min {
            return 0;
        }
        if key > self.max {
            return len;
        }
        if let Some(position) = self.cuts.exact(key) {
            return position;
        }
        let begin = self.cuts.floor(key).map_or(0, |(_, p)| p);
        let end = self.cuts.ceiling(key).map_or(len, |(_, p)| p);
        let (split, _) = self.column.crack_in_two(begin, end, key);
        self.cuts.insert(key, split);
        split
    }

    /// One tuple into the cracker column: every cut copied out, the ones
    /// above `key` sorted descending, one element shifted per piece, each
    /// cut inserted back one position later.
    fn ripple_insert(&mut self, key: Key, rowid: RowId) {
        let mut downstream: Vec<(Key, usize)> = (self.cuts.cuts().into_iter())
            .filter(|&(k, _)| k > key)
            .collect();
        downstream.sort_unstable_by_key(|&(k, _)| std::cmp::Reverse(k));
        self.column.push(key, rowid);
        let mut hole = self.column.len() - 1;
        for (cut_key, cut_pos) in downstream {
            if cut_pos < hole {
                let (v, r) = (self.column.value(cut_pos), self.column.rowid(cut_pos));
                self.column.set(hole, v, r);
                hole = cut_pos;
            }
            self.cuts.insert(cut_key, cut_pos + 1);
        }
        self.column.set(hole, key, rowid);
        self.min = self.min.min(key);
        self.max = self.max.max(key);
    }

    fn merge_for_query(&mut self, low: Key, high: Key) {
        let mut i = 0;
        while i < self.pending.len() {
            if (low..high).contains(&self.pending[i].0) {
                let (key, rowid) = self.pending.swap_remove(i);
                self.ripple_insert(key, rowid);
            } else {
                i += 1;
            }
        }
    }
}

impl Subject for PerTupleIndex {
    fn stage(&mut self, key: Key) {
        self.pending.push((key, self.next_rowid));
        self.next_rowid += 1;
    }
    fn query(&mut self, low: Key, high: Key) -> usize {
        self.merge_for_query(low, high);
        let begin = self.cut(low);
        let end = self.cut(high).max(begin);
        let mut rowids = self.column.rowids()[begin..end].to_vec();
        let pending = self.pending.iter();
        rowids.extend(
            pending
                .filter(|(key, _)| (low..high).contains(key))
                .map(|&(_, r)| r),
        );
        rowids.len()
    }
}

/// Run the replay; the time of each query, and the tuples they returned.
fn replay(subject: &mut impl Subject, inserted: InsertedKeys) -> (Vec<Duration>, usize) {
    let mut rng = Lcg(42);
    let mut times = Vec::with_capacity(BATCHES * QUERIES_PER_BATCH);
    let mut returned = 0;
    for batch in 0..BATCHES {
        let stored = ROWS + batch * BATCH_ROWS;
        for i in 0..BATCH_ROWS {
            subject.stage(match inserted {
                InsertedKeys::AscendingAbove => (stored + i) as Key,
                InsertedKeys::UniformInside => rng.below(ROWS) as Key,
            });
        }
        let live_domain = match inserted {
            InsertedKeys::AscendingAbove => stored + BATCH_ROWS,
            InsertedKeys::UniformInside => ROWS,
        };
        for _ in 0..QUERIES_PER_BATCH {
            let low = rng.below(live_domain) as Key;
            let started = Instant::now();
            returned += subject.query(low, low + QUERY_WIDTH);
            times.push(started.elapsed());
        }
    }
    (times, returned)
}

/// One replay outside criterion, for the per-query figures.
fn report(label: &str, subject: &mut impl Subject, inserted: InsertedKeys) -> usize {
    let (mut times, returned) = replay(subject, inserted);
    times.sort_unstable();
    println!(
        "replay: {label:<58} queries {} total {:>10.3?} p50 {:>10.3?} p99 {:>10.3?}",
        times.len(),
        times.iter().sum::<Duration>(),
        times[times.len() / 2],
        times[times.len() * 99 / 100],
    );
    returned
}

fn bench_update_merge(c: &mut Criterion) {
    let keys = generate_keys(ROWS, DataDistribution::UniformPermutation, 42);
    for (group_name, inserted) in [
        ("update_merge/ascending_above", InsertedKeys::AscendingAbove),
        ("update_merge/uniform_inside", InsertedKeys::UniformInside),
    ] {
        let mut group = c.benchmark_group(group_name);
        group.sample_size(3);
        let batched = || CrackedIndex::from_keys(&keys);
        let per_tuple = || PerTupleIndex::new(&keys);
        group.bench_function(BenchmarkId::new("batched", "merge_ripple"), |b| {
            b.iter_batched(
                batched,
                |mut s| replay(&mut s, inserted),
                BatchSize::LargeInput,
            )
        });
        group.bench_function(BenchmarkId::new("per_tuple", "merge_ripple"), |b| {
            b.iter_batched(
                per_tuple,
                |mut s| replay(&mut s, inserted),
                BatchSize::LargeInput,
            )
        });
        let label = |name: &str| format!("{group_name}/{name}/merge_ripple");
        let new = report(&label("batched"), &mut batched(), inserted);
        let old = report(&label("per_tuple"), &mut per_tuple(), inserted);
        assert_eq!(new, old, "{group_name}: the two paths disagree");
        group.finish();
    }
}

criterion_group!(benches, bench_update_merge);
criterion_main!(benches);
