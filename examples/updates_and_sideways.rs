//! Updates and multi-column queries under adaptive indexing.
//!
//! Run with:
//! ```sh
//! cargo run --release --example updates_and_sideways
//! ```
//!
//! Part 1 interleaves insertions with range queries through the
//! `Database`/`Session` facade — a cracking index absorbs the inserts, a
//! full index scans the rows appended after its build — and then runs the
//! same stream on the raw cracked index, to show what merge-ripple
//! ("Updating a Cracked Database") leaves pending: only tuples no query has
//! asked for yet.
//!
//! Part 2 runs the sideways-cracking scenario: `SELECT B, C WHERE low <= A <
//! high`. The naive plan (crack A, then fetch B and C through late
//! materialization) is exactly what the facade's projection path does, so it
//! is expressed as a session query with a streaming result; the sideways
//! cracker maps that keep the projection attributes aligned with the
//! selection attribute are compared against it.

use adaptive_indexing::columnstore::{Column, Table, Value};
use adaptive_indexing::cracking::selection::CrackedIndex;
use adaptive_indexing::cracking::sideways::MapSet;
use adaptive_indexing::workloads::data::{
    generate_keys, generate_multi_column_table, DataDistribution,
};
use adaptive_indexing::workloads::query::{QueryWorkload, WorkloadKind};
use adaptive_indexing::{Database, StrategyKind};
use std::time::Instant;

fn main() {
    updates_part();
    println!();
    sideways_part();
}

fn updates_part() {
    let n = 1_000_000;
    let keys = generate_keys(n, DataDistribution::UniformPermutation, 5);
    let workload = QueryWorkload::generate(WorkloadKind::UniformRandom, 500, 0, n as i64, 0.01, 23);

    println!(
        "== part 1: adaptive updates ({n} rows, 500 queries, 10 inserts every 10 queries) ==\n"
    );

    // -- through the facade: queries and inserts on the same session -------
    for (label, strategy) in [
        ("cracking", StrategyKind::Cracking),
        ("full sort", StrategyKind::FullSort),
    ] {
        let db = Database::builder().default_strategy(strategy).build();
        db.create_table(
            "stream",
            Table::from_columns(vec![("k", Column::from_i64(keys.clone()))])
                .expect("columns are equally long"),
        )
        .expect("fresh database");
        let session = db.session();
        let mut next_value = n as i64;
        let start = Instant::now();
        let mut checksum = 0u64;
        for (i, q) in workload.iter().enumerate() {
            if i % 10 == 0 {
                for _ in 0..10 {
                    session
                        .insert_row("stream", &[Value::Int64(next_value % n as i64)])
                        .expect("insert into the key column");
                    next_value += 7;
                }
            }
            let result = session
                .query("stream")
                .range("k", q.low, q.high)
                .execute()
                .expect("range query on an int64 column");
            checksum += result.row_count() as u64;
        }
        std::hint::black_box(checksum);
        // a cracking index absorbs inserts; a full index keeps covering the
        // rows it was built from and scans the ones appended since, until
        // they pass max(n / 64, one chunk). Both survive the whole run
        let since_rebuild = db.index_stats().first().map_or(0, |info| info.queries);
        println!(
            "facade / {:<20} total {:>10}  rows at end {:>9}  queries since last index rebuild {}",
            label,
            format!("{:.2?}", start.elapsed()),
            session.row_count("stream").expect("table exists"),
            since_rebuild
        );
    }

    // -- below the facade: what the ripple merged and what it left --------
    let mut index = CrackedIndex::from_keys(&keys);
    let mut next_value = n as i64;
    let start = Instant::now();
    let mut checksum = 0u64;
    for (i, q) in workload.iter().enumerate() {
        if i % 10 == 0 {
            for _ in 0..10 {
                index.insert(next_value % n as i64);
                next_value += 7;
            }
        }
        checksum += index.query_range(q.low, q.high).len() as u64;
    }
    std::hint::black_box(checksum);
    println!(
        "\nraw index / merge-ripple  total {:>10}  merged {}  pending at end {}  pieces {}",
        format!("{:.2?}", start.elapsed()),
        index.stats().elements_merged,
        index.pending_count(),
        index.piece_count()
    );
    println!(
        "each query merges only the pending tuples its range covers; \
         the rest wait for a query that needs them."
    );
}

fn sideways_part() {
    let n = 1_000_000;
    let table = generate_multi_column_table(n, 4, 9);
    let workload =
        QueryWorkload::generate(WorkloadKind::UniformRandom, 300, 0, n as i64, 0.005, 31);

    println!("== part 2: sideways cracking ({n} rows, project two tail columns) ==\n");

    // naive plan through the facade: crack the selection column, then
    // late-materialize the tails through the streaming result iterator
    let db = Database::builder()
        .default_strategy(StrategyKind::Cracking)
        .build();
    db.create_table("wide", table.clone())
        .expect("fresh database");
    let session = db.session();
    let start = Instant::now();
    let mut checksum_naive = 0i64;
    for q in workload.iter() {
        let result = session
            .query("wide")
            .range("a", q.low, q.high)
            .project(["b0", "b1"])
            .execute()
            .expect("projection query");
        for row in result.rows() {
            checksum_naive +=
                row[0].as_i64().expect("b0 is int64") + row[1].as_i64().expect("b1 is int64");
        }
    }
    let naive_time = start.elapsed();

    // sideways cracking: cracker maps keep (a, b0) and (a, b1) aligned
    let mut maps = MapSet::from_table(&table, "a").expect("integer columns");
    let start = Instant::now();
    let mut checksum_sideways = 0i64;
    for q in workload.iter() {
        let answer = maps.select_project(q.low, q.high, &["b0", "b1"]);
        checksum_sideways +=
            answer.tails[0].iter().sum::<i64>() + answer.tails[1].iter().sum::<i64>();
    }
    let sideways_time = start.elapsed();

    assert_eq!(checksum_naive, checksum_sideways);
    println!(
        "{:<46} {:>12}",
        "facade: crack + late materialization (streamed)",
        format!("{naive_time:.2?}")
    );
    println!(
        "{:<46} {:>12}",
        "sideways cracking (aligned cracker maps)",
        format!("{sideways_time:.2?}")
    );
    println!(
        "\nmaterialized maps: {} of {} tails; crack history length: {}",
        maps.materialized_maps(),
        maps.tail_names().len(),
        maps.crack_history_len()
    );
    println!(
        "the cracker maps return the projected values from a sequential read of \
         the qualifying piece instead of {}-row random fetches.",
        workload.queries().len()
    );
}
