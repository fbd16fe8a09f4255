//! End-to-end tests for the parallel query engine.
//!
//! The parallel engine's contract is *pure speedup*: chunk-parallel scans
//! and residual filters must produce exactly the position sets the serial
//! kernel produces — same seed, same answers, at any `parallelism`, under
//! any thread interleaving — and every column keeps the one adaptive index
//! the serial kernel builds. These tests pin that contract at the facade
//! level:
//!
//! * serial/parallel agreement against a scan reference across strategies;
//! * byte-identical determinism across `parallelism` 1, 2, 4, 8;
//! * the same index statistics and the same traced first probe at any
//!   `parallelism`;
//! * a multi-threaded stress race where many sessions refine the same
//!   shared index concurrently (with a writer appending rows mid-flight)
//!   and every answer is checked against the reference;
//! * identical zone-map pruning statistics from both engines.

use adaptive_indexing::core::prelude::*;
use adaptive_indexing::workloads::data::{generate_keys, DataDistribution};
use adaptive_indexing::Database;
use std::sync::Arc;
use std::thread;

const ROWS: usize = 30_000;
const SEED: u64 = 20_260_731;

/// The strategy matrix the storage tests also use: plain adaptive,
/// update-capable adaptive, and a non-adaptive full index.
const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Cracking,
    StrategyKind::UpdatableCracking,
    StrategyKind::FullSort,
];

fn build_db(keys: &[i64], strategy: StrategyKind, parallelism: usize) -> Database {
    let db = Database::builder()
        .default_strategy(strategy)
        .segment_capacity(512)
        .parallelism(parallelism)
        .try_build()
        .expect("valid configuration");
    db.create_table(
        "events",
        Table::from_columns(vec![("k", Column::from_i64(keys.to_vec()))]).unwrap(),
    )
    .unwrap();
    db
}

/// Seeded pseudo-random query bounds (an LCG so every configuration sees the
/// identical sequence).
fn query_bounds(seed: u64, queries: usize) -> Vec<(i64, i64)> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut out = Vec::with_capacity(queries);
    for _ in 0..queries {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let low = (state >> 33) as i64 % (ROWS as i64 - 1000);
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let width = 1 + (state >> 33) as i64 % 2000;
        out.push((low, low + width));
    }
    out
}

fn reference(keys: &[i64], low: i64, high: i64) -> Vec<u32> {
    (0..keys.len())
        .filter(|&i| keys[i] >= low && keys[i] < high)
        .map(|i| i as u32)
        .collect()
}

#[test]
fn parallel_engines_agree_with_the_scan_reference_across_strategies() {
    let keys = generate_keys(ROWS, DataDistribution::UniformPermutation, SEED);
    let bounds = query_bounds(SEED, 25);
    for strategy in STRATEGIES {
        for parallelism in [1usize, 2, 4] {
            let db = build_db(&keys, strategy, parallelism);
            let session = db.session();
            for &(low, high) in &bounds {
                let result = session
                    .query("events")
                    .range("k", low, high)
                    .execute()
                    .unwrap();
                assert_eq!(
                    result.positions().as_slice(),
                    reference(&keys, low, high).as_slice(),
                    "{strategy:?} parallelism={parallelism} [{low},{high})"
                );
            }
        }
    }
}

#[test]
fn same_seed_produces_byte_identical_results_at_any_parallelism() {
    let keys = generate_keys(ROWS, DataDistribution::UniformPermutation, SEED);
    let bounds = query_bounds(SEED ^ 0xBEEF, 40);
    let run = |parallelism: usize| -> Vec<Vec<u32>> {
        let db = build_db(&keys, StrategyKind::Cracking, parallelism);
        let session = db.session();
        bounds
            .iter()
            .map(|&(low, high)| {
                session
                    .query("events")
                    .range("k", low, high)
                    .execute()
                    .unwrap()
                    .positions()
                    .as_slice()
                    .to_vec()
            })
            .collect()
    };
    let serial = run(1);
    for parallelism in [2usize, 4, 8] {
        assert_eq!(run(parallelism), serial, "parallelism={parallelism}");
    }
    // and re-running the same configuration reproduces itself exactly
    assert_eq!(run(4), run(4));
}

/// The `IndexProbe` a traced query reports:
/// `(pieces_before, pieces_after, effort_delta)`.
fn traced_probe(session: &Session, query: &Query) -> (u64, u64, u64) {
    let profile = session.explain_profile(query).unwrap();
    let probe = profile.trace.events.iter().find_map(|event| match event {
        SpanEvent::IndexProbe {
            pieces_before,
            pieces_after,
            effort_delta,
            ..
        } => Some((*pieces_before, *pieces_after, *effort_delta)),
        _ => None,
    });
    probe.expect("a range query probes the index")
}

#[test]
fn the_same_index_at_any_worker_count() {
    let keys = generate_keys(ROWS, DataDistribution::UniformPermutation, SEED);
    let bounds = query_bounds(SEED ^ 0xF00D, 30);
    let query = |(low, high): (i64, i64)| Query::table("events").range("k", low, high);
    for strategy in STRATEGIES {
        let run = |parallelism: usize| {
            let db = build_db(&keys, strategy, parallelism);
            let session = db.session();
            let first = traced_probe(&session, &query(bounds[0]));
            for &bound in &bounds[1..] {
                session.execute(&query(bound)).unwrap();
            }
            (first, db.index_stats(), db.total_auxiliary_bytes())
        };
        let (serial_first, serial_stats, serial_aux) = run(1);
        assert_eq!(serial_stats.len(), 1, "{strategy:?}");
        for parallelism in [2usize, 4, 8] {
            let (first, stats, aux) = run(parallelism);
            let context = format!("{strategy:?} parallelism={parallelism}");
            assert_eq!(first, serial_first, "traced first probe, {context}");
            assert_eq!(stats, serial_stats, "index stats, {context}");
            assert_eq!(aux, serial_aux, "auxiliary bytes, {context}");
        }
    }
}

#[test]
fn concurrent_sessions_stress_the_shared_index_at_four_workers() {
    let keys = generate_keys(ROWS, DataDistribution::UniformPermutation, SEED);
    for strategy in STRATEGIES {
        let db = build_db(&keys, strategy, 4);
        let keys = Arc::new(keys.clone());
        let db_handle = db.clone();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let session = db.session();
            let keys = Arc::clone(&keys);
            handles.push(thread::spawn(move || {
                for (q, (low, high)) in query_bounds(SEED + t, 40).into_iter().enumerate() {
                    let result = session
                        .query("events")
                        .range("k", low, high)
                        .execute()
                        .unwrap();
                    // appended rows all hold key -1, outside every query
                    // range, so the expected set is snapshot-independent
                    assert_eq!(
                        result.positions().as_slice(),
                        reference(&keys, low, high).as_slice(),
                        "thread {t} query {q} [{low},{high})"
                    );
                }
            }));
        }
        // a writer appends rows mid-flight, racing the readers' refinement;
        // the appended key (-1) can never satisfy a reader's range
        let writer = thread::spawn(move || {
            let session = db_handle.session();
            for _ in 0..50 {
                session.insert_row("events", &[Value::Int64(-1)]).unwrap();
                thread::yield_now();
            }
        });
        for handle in handles {
            handle.join().unwrap();
        }
        writer.join().unwrap();
        assert_eq!(db.row_count("events").unwrap(), ROWS + 50, "{strategy:?}");
        // after the dust settles, answers still match a reference that
        // includes the appended rows
        let grown: Vec<i64> = keys
            .iter()
            .copied()
            .chain(std::iter::repeat_n(-1, 50))
            .collect();
        let result = db
            .session()
            .query("events")
            .range("k", -1, 0)
            .execute()
            .unwrap();
        assert_eq!(
            result.positions().as_slice(),
            reference(&grown, -1, 0).as_slice(),
            "{strategy:?}"
        );
    }
}

#[test]
fn serial_and_parallel_prune_statistics_are_identical() {
    let keys: Vec<i64> = (0..ROWS as i64).collect();
    let serial = build_db(&keys, StrategyKind::Cracking, 1);
    let parallel = build_db(&keys, StrategyKind::Cracking, 4);
    // an out-of-domain query is answered by zone maps alone in both engines;
    // the merged parallel statistics must equal the serial one-pass numbers
    let run = |db: &Database| {
        let result = db
            .session()
            .query("events")
            .range("k", ROWS as i64 * 2, ROWS as i64 * 3)
            .execute()
            .unwrap();
        assert!(result.is_empty());
        result.prune_stats()
    };
    let serial_stats = run(&serial);
    let parallel_stats = run(&parallel);
    assert_eq!(serial_stats, parallel_stats);
    assert!(serial_stats.chunks_pruned > 0);
    assert_eq!(serial.indexed_column_count(), 0, "no index for empty proof");
    assert_eq!(parallel.indexed_column_count(), 0);
}
