//! Many concurrent clients sharing one adaptive-indexing database.
//!
//! Run with:
//! ```sh
//! cargo run --release --example concurrent_sessions
//! ```
//!
//! This is the scenario the concurrency-control papers for adaptive
//! indexing ("Concurrency Control for Adaptive Indexing", Graefe et al.)
//! are about, and the reason the kernel's public API is a
//! `Database`/`Session` facade: adaptive indexing turns *read* queries into
//! structural *writes* (every selection may reorganize the touched column),
//! so the API boundary has to decide who holds which lock while that
//! happens. Here the index manager serializes reorganization per column,
//! sessions take point-in-time snapshots under a short read lock, and N
//! threads hammer the same columns through their own cloned `Session`
//! handles — racing on the cracking itself — while one writer keeps
//! appending rows.

use adaptive_indexing::columnstore::{Column, Table, Value};
use adaptive_indexing::workloads::data::{generate_keys, DataDistribution};
use adaptive_indexing::{Database, StrategyKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

fn main() {
    let n = 2_000_000;
    let reader_threads = 8;
    let queries_per_thread = 400;

    let keys = generate_keys(n, DataDistribution::UniformPermutation, 77);
    let regions: Vec<i64> = keys.iter().map(|&k| k % 32).collect();

    let db = Database::builder()
        .default_strategy(StrategyKind::Cracking)
        .build();
    db.create_table(
        "events",
        Table::from_columns(vec![
            ("key", Column::from_i64(keys)),
            ("region", Column::from_i64(regions)),
        ])
        .expect("columns are equally long"),
    )
    .expect("fresh database");

    println!(
        "{n} rows, {reader_threads} reader sessions x {queries_per_thread} conjunctive \
         queries, 1 writer session appending throughout\n"
    );

    let total_rows_seen = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..reader_threads {
        // a Session clone is a reference-count bump; every thread gets one
        let session = db.session();
        let counter = Arc::clone(&total_rows_seen);
        handles.push(thread::spawn(move || {
            let mut rows = 0u64;
            for q in 0..queries_per_thread {
                let low = ((t * 7919 + q * 104729) % (n - 20_000)) as i64;
                let result = session
                    .query("events")
                    .range("key", low, low + 20_000)
                    .point("region", ((t + q) % 32) as i64)
                    .execute()
                    .expect("concurrent query");
                rows += result.row_count() as u64;
            }
            counter.fetch_add(rows, Ordering::Relaxed);
        }));
    }

    // the writer races the readers; the cracking index stages each insert
    // and the readers' queries merge the ones inside their ranges, so the
    // learned structure survives the whole race
    let writer = db.session();
    let writer_handle = thread::spawn(move || {
        for i in 0..1000i64 {
            writer
                .insert_row(
                    "events",
                    &[Value::Int64(n as i64 + i), Value::Int64(i % 32)],
                )
                .expect("concurrent insert");
        }
    });

    for handle in handles {
        handle.join().expect("reader thread");
    }
    writer_handle.join().expect("writer thread");
    let elapsed = start.elapsed();

    let total_queries = (reader_threads * queries_per_thread) as f64;
    println!(
        "{} queries + 1000 inserts in {:.2?}  ({:.0} queries/s, {} qualifying rows streamed)",
        total_queries as u64,
        elapsed,
        total_queries / elapsed.as_secs_f64(),
        total_rows_seen.load(Ordering::Relaxed),
    );
    println!(
        "rows at end: {}",
        db.row_count("events").expect("table exists")
    );
    for info in db.index_stats() {
        println!(
            "index on {:<14} {:<10} {:>5} queries since last rebuild, {:>9} tuples, converged: {}",
            info.column.to_string(),
            info.strategy,
            info.queries,
            info.tuples,
            info.converged
        );
    }
    println!(
        "\nevery session cracked the same two columns concurrently; the manager \
         serialized reorganization per column, and each query answered from a \
         snapshot consistent with the rows it could see."
    );
}
