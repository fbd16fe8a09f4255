//! Criterion benchmark for the parallel engine: chunk-parallel cold scans
//! vs. the serial kernel, and the first-touch index build at each worker
//! count.
//!
//! Matrix: {scan, index-build} × parallelism {1, 2, 4}. The scan case runs
//! the `ParallelScan` operator over a multi-chunk, zone-mapped segment of
//! shuffled keys (no pruning possible — every chunk is read); speedups
//! flatten at the machine's core count. The build case measures the
//! facade's lazy first-touch index construction, which builds the column's
//! one index on the querying thread at every worker count: it should read
//! the same at every parallelism.

use aidx_columnstore::column::Column;
use aidx_columnstore::ops::select::Predicate;
use aidx_columnstore::segment::Segment;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::Key;
use aidx_core::strategy::StrategyKind;
use aidx_core::{ColumnId, Database};
use aidx_parallel::{parallel_scan_select, ThreadPool};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

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

criterion_group!(benches, bench_parallel_scan, bench_parallel_index_build);
criterion_main!(benches);
