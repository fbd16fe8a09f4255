//! Criterion benchmarks for end-to-end query sequences through the unified
//! strategy interface: how long does it take each technique to answer a fixed
//! 200-query random workload over a 1M-row column (including any
//! initialization it chooses to do)? Plus the same sequence through the
//! `Database`/`Session` facade, to keep the facade's overhead per query
//! (catalog snapshot, planner, result assembly) visible and bounded, and a
//! converged facade query with and without reading its row ids.

use aidx_columnstore::column::Column;
use aidx_columnstore::table::Table;
use aidx_core::strategy::{HybridKind, StrategyKind};
use aidx_core::Database;
use aidx_workloads::data::{generate_keys, DataDistribution};
use aidx_workloads::query::{QueryWorkload, WorkloadKind};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_query_sequence(c: &mut Criterion) {
    let rows = 1 << 20;
    let keys = generate_keys(rows, DataDistribution::UniformPermutation, 7);
    let workload =
        QueryWorkload::generate(WorkloadKind::UniformRandom, 200, 0, rows as i64, 0.01, 9);

    let strategies = [
        StrategyKind::FullScan,
        StrategyKind::FullSort,
        StrategyKind::Cracking,
        StrategyKind::StochasticCracking,
        StrategyKind::AdaptiveMerging { run_size: 1 << 16 },
        StrategyKind::Hybrid {
            algorithm: HybridKind::CrackSort,
        },
    ];

    let mut group = c.benchmark_group("query_sequence_200q_1M_rows");
    group.sample_size(10);
    for strategy in strategies {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.label()),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let mut index = strategy.build(&keys);
                    let mut checksum = 0u64;
                    for q in workload.iter() {
                        checksum += index.query_range(q.low, q.high).count() as u64;
                    }
                    black_box(checksum)
                })
            },
        );
    }
    group.finish();
}

fn bench_facade_query_sequence(c: &mut Criterion) {
    let rows = 1 << 20;
    let keys = generate_keys(rows, DataDistribution::UniformPermutation, 7);
    let workload =
        QueryWorkload::generate(WorkloadKind::UniformRandom, 200, 0, rows as i64, 0.01, 9);

    let mut group = c.benchmark_group("facade_query_sequence_200q_1M_rows");
    group.sample_size(10);
    for strategy in [StrategyKind::FullScan, StrategyKind::Cracking] {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.label()),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let db = Database::builder().default_strategy(strategy).build();
                    db.create_table(
                        "data",
                        Table::from_columns(vec![("k", Column::from_i64(keys.clone()))])
                            .expect("columns are equally long"),
                    )
                    .expect("fresh database");
                    let session = db.session();
                    let mut checksum = 0u64;
                    for q in workload.iter() {
                        let result = session
                            .query("data")
                            .range("k", q.low, q.high)
                            .execute()
                            .expect("range query on int64 column");
                        checksum += result.row_count() as u64;
                    }
                    black_box(checksum)
                })
            },
        );
    }
    group.finish();
}

fn bench_converged_lookup(c: &mut Criterion) {
    let rows = 1 << 20;
    let keys = generate_keys(rows, DataDistribution::UniformPermutation, 7);
    let warmup =
        QueryWorkload::generate(WorkloadKind::UniformRandom, 2_000, 0, rows as i64, 0.01, 9);

    let mut group = c.benchmark_group("converged_point_range_lookup");
    group.sample_size(20);
    for strategy in [
        StrategyKind::FullSort,
        StrategyKind::Cracking,
        StrategyKind::AdaptiveMerging { run_size: 1 << 16 },
    ] {
        let mut index = strategy.build(&keys);
        for q in warmup.iter() {
            let _ = index.query_range(q.low, q.high);
        }
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.label()),
            &strategy,
            |b, _| {
                let mut i = 0i64;
                b.iter(|| {
                    i = (i + 7919) % (rows as i64 - 1000);
                    black_box(index.query_range(i, i + 1000).count())
                })
            },
        );
    }
    group.finish();
}

/// A converged single-range query through the facade, answered as a view:
/// `row_count` reads the count the probe took from the two cuts, and
/// `row_count+positions` also reads the row ids — one copy out of the
/// index plus the ordering. Every timed range is one of the warm-up's, so
/// its bounds are cut and the probe cracks nothing.
fn bench_converged_answer(c: &mut Criterion) {
    let rows = 4 << 20;
    let keys = generate_keys(rows, DataDistribution::UniformPermutation, 7);
    let warmup =
        QueryWorkload::generate(WorkloadKind::UniformRandom, 1_000, 0, rows as i64, 0.01, 9);
    let db = Database::builder()
        .default_strategy(StrategyKind::Cracking)
        .parallelism(1)
        .build();
    db.create_table(
        "data",
        Table::from_columns(vec![("k", Column::from_i64(keys))]).expect("one column"),
    )
    .expect("fresh database");
    let session = db.session();
    let ranges: Vec<(i64, i64)> = warmup.iter().map(|q| (q.low, q.high)).collect();
    for &(low, high) in &ranges {
        session
            .query("data")
            .range("k", low, high)
            .execute()
            .expect("range query on int64 column");
    }

    let mut group = c.benchmark_group("converged_answer");
    group.sample_size(500);
    for read_positions in [false, true] {
        let id = match read_positions {
            false => "row_count",
            true => "row_count+positions",
        };
        let mut next = ranges.iter().cycle();
        group.bench_function(id, |b| {
            b.iter(|| {
                let &(low, high) = next.next().expect("cycles");
                let result = session
                    .query("data")
                    .range("k", low, high)
                    .execute()
                    .expect("range query on int64 column");
                let mut read = result.row_count();
                if read_positions {
                    read += result.positions().len();
                }
                black_box(read)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = throughput;
    config = Criterion::default();
    targets = bench_query_sequence, bench_facade_query_sequence, bench_converged_lookup,
        bench_converged_answer
}
criterion_main!(throughput);
