//! Concurrency agreement test for the `Database`/`Session` facade.
//!
//! N threads share one `Database` and fire seeded pseudo-random conjunctive
//! queries through their own cloned `Session`s, racing each other on the
//! same columns — which means they race on the *reorganization* of the
//! adaptive indexes, the scenario the concurrency-control papers for
//! adaptive indexing are about. Every result must agree exactly (same
//! position set) with a single-threaded scan reference over the raw data.

use adaptive_indexing::core::prelude::*;
use adaptive_indexing::workloads::data::{generate_keys, DataDistribution};
use adaptive_indexing::Database;
use std::sync::{Arc, Barrier};
use std::thread;

const ROWS: usize = 40_000;
const THREADS: usize = 8;
const QUERIES_PER_THREAD: usize = 60;

struct RawColumns {
    k: Vec<i64>,
    v: Vec<i64>,
    r: Vec<i64>,
}

fn build(strategy: StrategyKind) -> (Database, Arc<RawColumns>) {
    let k = generate_keys(ROWS, DataDistribution::UniformPermutation, 1234);
    let v: Vec<i64> = k.iter().map(|&key| key % 1000).collect();
    let r: Vec<i64> = k.iter().map(|&key| key % 16).collect();
    let db = Database::builder().default_strategy(strategy).build();
    db.create_table(
        "events",
        Table::from_columns(vec![
            ("k", Column::from_i64(k.clone())),
            ("v", Column::from_i64(v.clone())),
            ("r", Column::from_i64(r.clone())),
        ])
        .unwrap(),
    )
    .unwrap();
    (db, Arc::new(RawColumns { k, v, r }))
}

/// Deterministic per-thread query sequence: a mix of single-range, range +
/// point, and range + in-set conjunctions.
fn query_for(thread: usize, step: usize) -> Query {
    // simple splitmix-style mixing, fully deterministic
    let mut x = (thread as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(step as u64)
        .wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 31;
    let low = (x % (ROWS as u64 - 2000)) as i64;
    let width = 200 + (x >> 16) % 1800;
    let high = low + width as i64;
    match step % 3 {
        0 => Query::table("events").range("k", low, high),
        1 => Query::table("events")
            .range("k", low, high)
            .point("r", (x % 16) as i64),
        _ => Query::table("events")
            .range("k", low, high)
            .in_set("v", [(x % 1000) as i64, ((x >> 8) % 1000) as i64, 500]),
    }
}

/// Single-threaded scan reference for the same query shapes.
fn reference(raw: &RawColumns, thread: usize, step: usize) -> Vec<u32> {
    let query = query_for(thread, step);
    (0..raw.k.len())
        .filter(|&i| {
            query.predicates().iter().all(|p| {
                let value = match p.column() {
                    "k" => raw.k[i],
                    "v" => raw.v[i],
                    "r" => raw.r[i],
                    other => unreachable!("unexpected column {other}"),
                };
                p.matches(value)
            })
        })
        .map(|i| i as u32)
        .collect()
}

fn run_agreement(strategy: StrategyKind) {
    let (db, raw) = build(strategy);
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let session = db.session();
        let raw = Arc::clone(&raw);
        handles.push(thread::spawn(move || {
            for step in 0..QUERIES_PER_THREAD {
                let query = query_for(t, step);
                let result = session.execute(&query).expect("query must succeed");
                let expected = reference(&raw, t, step);
                assert_eq!(
                    result.positions().as_slice(),
                    expected.as_slice(),
                    "thread {t} step {step} disagrees with the scan reference"
                );
            }
        }));
    }
    for handle in handles {
        handle.join().expect("worker thread panicked");
    }
    // every thread hammered the same few columns; the registry must hold at
    // most one index per column
    assert!(db.indexed_column_count() <= 3, "{strategy:?}");
}

#[test]
fn concurrent_sessions_agree_with_scan_reference_under_cracking() {
    run_agreement(StrategyKind::Cracking);
}

#[test]
fn concurrent_sessions_agree_with_scan_reference_under_adaptive_merging() {
    run_agreement(StrategyKind::AdaptiveMerging { run_size: 1 << 12 });
}

#[test]
fn concurrent_sessions_agree_with_scan_reference_under_full_sort() {
    run_agreement(StrategyKind::FullSort);
}

#[test]
fn concurrent_readers_and_writer_stay_consistent() {
    let (db, _raw) = build(StrategyKind::UpdatableCracking);
    let writer = db.session();
    let mut handles = Vec::new();
    // readers: count rows in a fixed range; the count must never decrease
    // across a reader's own sequence of snapshots
    for _ in 0..4 {
        let session = db.session();
        handles.push(thread::spawn(move || {
            let mut last = 0usize;
            for _ in 0..50 {
                let result = session
                    .query("events")
                    .range("k", 0, ROWS as i64 * 2)
                    .execute()
                    .expect("read must succeed");
                assert!(
                    result.row_count() >= last,
                    "snapshots must move forward in time"
                );
                last = result.row_count();
            }
            last
        }));
    }
    // writer: append rows with in-range keys while the readers stream
    for i in 0..200 {
        writer
            .insert_row(
                "events",
                &[
                    Value::Int64(ROWS as i64 + i),
                    Value::Int64(i % 1000),
                    Value::Int64(i % 16),
                ],
            )
            .expect("insert must succeed");
    }
    for handle in handles {
        assert!(handle.join().expect("reader panicked") >= ROWS);
    }
    let final_count = db
        .session()
        .query("events")
        .range("k", 0, ROWS as i64 * 2)
        .execute()
        .unwrap()
        .row_count();
    assert_eq!(final_count, ROWS + 200);
}

/// Two writers append to a converged cracking column at once. The later of
/// the two may reach the index first; it then covers both writers' rows,
/// and the other finds its row covered. No writer drops the index, and the
/// next query neither rebuilds it nor misses a row.
#[test]
fn racing_writers_keep_the_converged_index() {
    const BASE: usize = 200_000;
    const WRITERS: usize = 2;
    const INSERTS_PER_WRITER: usize = 20_000;
    let keys = generate_keys(BASE, DataDistribution::UniformPermutation, 77);
    let db = Database::builder()
        .default_strategy(StrategyKind::Cracking)
        .build();
    db.create_table(
        "t",
        Table::from_columns(vec![("k", Column::from_i64(keys))]).unwrap(),
    )
    .unwrap();
    let session = db.session();
    for q in 0..200i64 {
        let low = (q * 7_919) % (BASE as i64 - 2_000);
        session
            .query("t")
            .range("k", low, low + 2_000)
            .execute()
            .unwrap();
    }
    // both writers start together, so their appends interleave throughout
    let start = Arc::new(Barrier::new(WRITERS));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let session = db.session();
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                for i in 0..INSERTS_PER_WRITER {
                    let key = ((i * 7_919 + w * 104_729) % (BASE + 10_000)) as i64;
                    session.insert_row("t", &[Value::Int64(key)]).unwrap();
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("writer panicked");
    }
    let rows = BASE + WRITERS * INSERTS_PER_WRITER;
    assert_eq!(db.indexed_column_count(), 1, "a writer dropped the index");
    let snapshot = db.table_snapshot("t").unwrap();
    let model = snapshot.column("k").unwrap().as_i64().unwrap().to_vec();
    assert_eq!(model.len(), rows);
    // no writer held a snapshot while the other appended, so no append had
    // to copy and seal a tail chunk
    assert_eq!(snapshot.column("k").unwrap().fragmented_chunk_count(), 0);
    let scan = |low: i64, high: i64| -> Vec<u32> {
        (0..rows as u32)
            .filter(|&p| (low..high).contains(&model[p as usize]))
            .collect()
    };
    let profile = session
        .explain_profile(&Query::table("t").range("k", 5_000, 9_000))
        .unwrap();
    assert_eq!(profile.result.positions().as_slice(), scan(5_000, 9_000));
    let rebuilt = profile.trace.events.iter().find_map(|event| match event {
        SpanEvent::IndexProbe { rebuilt, .. } => Some(*rebuilt),
        _ => None,
    });
    assert_eq!(rebuilt, Some(false), "the next query rebuilt the index");
    let info = &db.index_stats()[0];
    assert_eq!(info.queries, 201, "the index kept counting its queries");
    assert_eq!(info.tuples, rows);
    for (low, high) in [(0, 1_000), (150_000, 160_500), (199_000, 215_000)] {
        let result = session.query("t").range("k", low, high).execute().unwrap();
        assert_eq!(
            result.positions().as_slice(),
            scan(low, high),
            "[{low}, {high})"
        );
    }
}
