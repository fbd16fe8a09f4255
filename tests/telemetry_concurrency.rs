//! Concurrency and determinism tests for the engine-wide telemetry
//! subsystem.
//!
//! The metrics registry is lock-free by construction (relaxed atomics, no
//! mutex anywhere on the query path), so the thing to test is *accounting
//! under races*: N threads hammering cloned `Session`s must lose no
//! increments, and the deterministic counters (queries served, rows
//! materialized, pruning totals) must come out identical whether the
//! engine executes serially or on a 4-worker pool — only timing
//! distributions may differ.

use adaptive_indexing::columnstore::{Column, Table};
use adaptive_indexing::telemetry::Snapshot;
use adaptive_indexing::workloads::data::{generate_keys, DataDistribution};
use adaptive_indexing::{Database, Query, StrategyKind};
use std::thread;

const ROWS: usize = 40_000;
const THREADS: usize = 8;
const QUERIES_PER_THREAD: usize = 50;

fn build(parallelism: usize) -> Database {
    let keys = generate_keys(ROWS, DataDistribution::UniformPermutation, 0xE16);
    let db = Database::builder()
        .default_strategy(StrategyKind::Cracking)
        .parallelism(parallelism)
        .telemetry(true)
        .build();
    db.create_table(
        "events",
        Table::from_columns(vec![("k", Column::from_i64(keys))]).unwrap(),
    )
    .unwrap();
    db
}

fn thread_query(t: usize, i: usize) -> Query {
    let low = ((t * 7919 + i * 104_729) % (ROWS - 400)) as i64;
    Query::table("events").range("k", low, low + 400)
}

/// Run the standard N×M workload against `db` from `THREADS` threads, each
/// with its own cloned `Session`.
fn hammer(db: &Database) {
    thread::scope(|scope| {
        for t in 0..THREADS {
            let session = db.session();
            scope.spawn(move || {
                for i in 0..QUERIES_PER_THREAD {
                    let result = session.execute(&thread_query(t, i)).unwrap();
                    assert_eq!(result.row_count(), 400);
                }
            });
        }
    });
}

#[test]
fn no_increment_is_lost_under_contention() {
    let db = build(1);
    hammer(&db);
    let expected = (THREADS * QUERIES_PER_THREAD) as u64;
    let metrics = db.telemetry().metrics;
    assert_eq!(
        metrics.counter("engine.queries_served"),
        Some(expected),
        "relaxed counters must still lose nothing"
    );
    let latency = metrics.histogram("engine.query_ns").expect("histogram");
    assert_eq!(latency.count, expected, "one latency sample per query");
    assert_eq!(
        latency.buckets.iter().sum::<u64>(),
        expected,
        "bucket totals account for every sample"
    );
    assert_eq!(
        metrics.counter("engine.rows_materialized"),
        Some(expected * 400),
        "every query materialized exactly 400 rows"
    );
}

/// The counters that must not depend on scheduling: everything except
/// timing histograms and index-shape metrics (concurrent sessions crack the
/// shared index in whatever order they win its latch, so effort and piece
/// counts legitimately differ from run to run).
fn deterministic_counters(snapshot: &Snapshot) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = snapshot
        .counters
        .iter()
        .filter(|c| {
            matches!(
                c.name.as_str(),
                "engine.queries_served"
                    | "engine.rows_inserted"
                    | "engine.rows_materialized"
                    | "engine.prune.chunks_scanned"
                    | "engine.prune.chunks_pruned"
            )
        })
        .map(|c| (c.name.clone(), c.value))
        .collect();
    out.sort();
    out
}

#[test]
fn serial_and_parallel_agree_on_deterministic_counters() {
    let serial = build(1);
    hammer(&serial);
    let parallel = build(4);
    hammer(&parallel);
    assert_eq!(
        deterministic_counters(&serial.telemetry().metrics),
        deterministic_counters(&parallel.telemetry().metrics),
        "parallel execution must not change what was counted, only when"
    );
    // both executed the same queries, so both latency histograms hold the
    // same number of samples even though their shapes differ
    let expected = (THREADS * QUERIES_PER_THREAD) as u64;
    for db in [&serial, &parallel] {
        let metrics = db.telemetry().metrics;
        assert_eq!(
            metrics.histogram("engine.query_ns").unwrap().count,
            expected
        );
    }
}

#[test]
fn snapshots_merge_across_databases() {
    let a = build(1);
    let b = build(1);
    let session_a = a.session();
    let session_b = b.session();
    for i in 0..10 {
        session_a.execute(&thread_query(0, i)).unwrap();
    }
    for i in 0..5 {
        session_b.execute(&thread_query(1, i)).unwrap();
    }
    let mut merged = a.telemetry().metrics;
    merged.merge(&b.telemetry().metrics);
    assert_eq!(merged.counter("engine.queries_served"), Some(15));
    assert_eq!(merged.histogram("engine.query_ns").unwrap().count, 15);
}
