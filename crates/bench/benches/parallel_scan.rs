//! Criterion benchmark for the parallel engine: chunk-parallel cold scans
//! vs. the serial kernel, the first-touch index build at each worker count,
//! and the residual filter stage beside the loop it replaced.
//!
//! Matrix: {scan, index-build} × parallelism {1, 2, 4}. The scan case runs
//! the `ParallelScan` operator over a multi-chunk, zone-mapped segment of
//! shuffled keys (no pruning possible — every chunk is read); speedups
//! flatten at the machine's core count. The build case measures the
//! facade's lazy first-touch index construction, which builds the column's
//! one index on the querying thread at every worker count: it should read
//! the same at every parallelism.
//!
//! `residual_stage` replays a converged conjunctive query's residual step at
//! 1 and 2 workers: the 50 000 row ids a cracked index answers a 5 % range
//! of a 1 M-row table with, in piece order, filtered by a 30 % range on a
//! random column and a 50 % range on an ascending (clustered) one.
//! `grouped` is the executor's stage — group by chunk, run the residual
//! whose zone maps decide its chunks first, filter group by group, order
//! the survivors per group; `order_then_filter` is the loop it replaced
//! (radix-order all ids, then filter each residual in query order), kept
//! here as the reference. `group_pass` is the grouping alone, and a
//! `residual_stage:` line prints it per id (target: at most 4 ns/id). Both
//! stages must return the same positions.

use aidx_columnstore::column::Column;
use aidx_columnstore::ops::select::Predicate;
use aidx_columnstore::position::PositionList;
use aidx_columnstore::segment::Segment;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::{Key, RowId};
use aidx_core::strategy::StrategyKind;
use aidx_core::{ColumnId, Database, IndexManager, Predicate as Residual};
use aidx_parallel::{
    parallel_filter_groups, parallel_filter_positions, parallel_scan_select, ThreadPool,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 1_000_000;

fn shuffled_keys() -> Vec<Key> {
    // multiplicative shuffle: a full permutation of 0..ROWS, so zone maps
    // cannot prune and selections are spread over every chunk
    (0..ROWS as Key)
        .map(|i| (i * 999_983) % ROWS as Key)
        .collect()
}

fn bench_parallel_scan(c: &mut Criterion) {
    let segment = Segment::from_vec(shuffled_keys());
    let predicate = Predicate::range(0, (ROWS / 100) as Key);
    let mut group = c.benchmark_group("parallel_scan");
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        let pool = ThreadPool::new(workers);
        group.bench_with_input(BenchmarkId::new("cold_scan", workers), &pool, |b, pool| {
            b.iter(|| black_box(parallel_scan_select(pool, &segment, &predicate)))
        });
    }
    group.finish();
}

fn bench_parallel_index_build(c: &mut Criterion) {
    let keys = shuffled_keys();
    let mut group = c.benchmark_group("parallel_index_build");
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("cracking_first_touch", workers),
            &workers,
            |b, &workers| {
                let db = Database::builder()
                    .default_strategy(StrategyKind::Cracking)
                    .parallelism(workers)
                    .try_build()
                    .expect("valid configuration");
                db.create_table(
                    "data",
                    Table::from_columns(vec![("k", Column::from_i64(keys.clone()))])
                        .expect("single-column table"),
                )
                .expect("fresh database");
                let session = db.session();
                let column = ColumnId::new("data", "k");
                b.iter(|| {
                    // drop + query = a true cold build every iteration
                    db.index_manager().drop_index(&column);
                    black_box(
                        session
                            .query("data")
                            .range("k", 1000, 50_000)
                            .execute()
                            .expect("range query")
                            .row_count(),
                    )
                });
            },
        );
    }
    group.finish();
}

/// Row ids the residual stage starts from.
const STAGE_IDS: usize = 50_000;

/// The residual step as it was: order every driver id, then filter each
/// residual in query order over the ascending list. Kept as the reference
/// the grouped stage is measured against.
fn order_then_filter(
    pool: &ThreadPool,
    ids: &[RowId],
    residuals: &[(&Segment<Key>, &Residual)],
) -> PositionList {
    let mut positions = PositionList::from_distinct(ids.to_vec());
    for (segment, residual) in residuals {
        positions = parallel_filter_positions(
            pool,
            segment,
            &positions,
            |zone| residual.zone_may_match(zone),
            |v| residual.matches(v),
        )
        .0;
    }
    positions
}

/// The executor's residual stage: group once, filter group by group (the
/// zone-decided residual first), order the survivors per group.
fn grouped_stage(
    pool: &ThreadPool,
    ids: &[RowId],
    residuals: &[(&Segment<Key>, &Residual)],
) -> PositionList {
    let (first, _) = residuals[0];
    let mut groups = first.group_by_chunk(ids);
    let mut grouped_by = first;
    for (segment, residual) in residuals {
        let regrouped = segment.regroup(groups, grouped_by);
        groups = parallel_filter_groups(
            pool,
            segment,
            &regrouped,
            |zone| residual.zone_decision(zone),
            |v| residual.matches(v),
        )
        .0;
        grouped_by = segment;
    }
    groups.into_positions()
}

fn bench_residual_stage(c: &mut Criterion) {
    let random = Segment::from_vec((0..ROWS as Key).map(|i| (i * 7_919 + 13) % 1_000).collect());
    let clustered = Segment::from_vec((0..ROWS as Key).collect());
    let random_30 = Residual::range("a", 300, 600);
    let clustered_50 = Residual::range("b", ROWS as Key / 4, ROWS as Key * 3 / 4);
    // the driver's answer as a cracked index produces it: the row ids of a
    // 5 % piece of a shuffled key column, in piece order, after a few
    // hundred queries have cracked the column
    let manager = IndexManager::new(StrategyKind::Cracking);
    let driver = ColumnId::new("facts", "k");
    let keys = shuffled_keys();
    for i in 0..300 {
        let low = (i * 7_919) % (ROWS as Key - 10_000);
        manager.query_range(&driver, &keys, low, low + 10_000);
    }
    let low = ROWS as Key / 3;
    let ids = manager
        .query_range(&driver, &keys, low, low + STAGE_IDS as Key)
        .into_row_ids();
    assert_eq!(ids.len(), STAGE_IDS);
    let query_order = [(&random, &random_30), (&clustered, &clustered_50)];
    let zone_decided_first = [(&clustered, &clustered_50), (&random, &random_30)];

    let mut group = c.benchmark_group("residual_stage");
    group.sample_size(20);
    group.bench_function("group_pass", |b| {
        b.iter(|| black_box(clustered.group_by_chunk(&ids).len()))
    });
    for workers in [1usize, 2] {
        let pool = ThreadPool::new(workers);
        assert_eq!(
            grouped_stage(&pool, &ids, &zone_decided_first),
            order_then_filter(&pool, &ids, &query_order),
            "both stages keep the same rows"
        );
        group.bench_with_input(
            BenchmarkId::new("order_then_filter", workers),
            &pool,
            |b, pool| b.iter(|| black_box(order_then_filter(pool, &ids, &query_order).len())),
        );
        group.bench_with_input(BenchmarkId::new("grouped", workers), &pool, |b, pool| {
            b.iter(|| black_box(grouped_stage(pool, &ids, &zone_decided_first).len()))
        });
    }
    group.finish();

    let mut samples: Vec<f64> = (0..51)
        .map(|_| {
            let started = Instant::now();
            black_box(clustered.group_by_chunk(&ids).len());
            started.elapsed().as_nanos() as f64 / STAGE_IDS as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    println!(
        "residual_stage: group pass {:.2} ns/id (median of 51, {STAGE_IDS} ids, target <= 4)",
        samples[samples.len() / 2]
    );
}

criterion_group!(
    benches,
    bench_parallel_scan,
    bench_parallel_index_build,
    bench_residual_stage
);
criterion_main!(benches);
