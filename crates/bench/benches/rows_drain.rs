//! Criterion benchmark for draining a result's projected rows.
//!
//! One query over a 1 M-row table selects 7 500 rows spread across the
//! whole table and projects two `Int64` columns — `filter_project`'s result
//! shape. The `rows_drain` group reports three numbers:
//!
//! * `first` — the first `QueryResult::rows` read of a fresh result: one
//!   typed gather per column into the result's `Rows` store (a `Vec<i64>`
//!   each), the one pass that lays those cells out as `Value`s row after
//!   row, then a walk over its row slices;
//! * `again` — a later read of the same result, which re-reads those
//!   `Value`s;
//! * `row_at_a_time` — the loop `rows()` replaced: one cursor per projected
//!   column and one `Vec` per row (kept here, as `crack_kernels` keeps the
//!   crack loops it replaced).
//!
//! Every result's positions are ordered in setup, so `first` and
//! `row_at_a_time` time the same work: reconstructing rows at ordered
//! positions. Compare within one run; the box is noisy.

use aidx_columnstore::column::{Column, ColumnCursor};
use aidx_columnstore::table::Table;
use aidx_columnstore::types::{Key, Value};
use aidx_core::{Database, Query, QueryResult};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

const ROWS: usize = 1_000_000;
const SELECTED: Key = 7_500;

/// The row-at-a-time reconstruction `QueryResult::rows` replaced: a cursor
/// per projected column, and one `Vec` per row.
fn drain_row_at_a_time(result: &QueryResult) -> usize {
    let mut columns: Vec<ColumnCursor<'_>> =
        result.projected_columns().map(Column::cursor).collect();
    let mut drained = 0;
    for position in result.positions().iter() {
        let row: Vec<Value> = columns
            .iter_mut()
            .map(|column| column.value_at(position))
            .collect();
        black_box(row);
        drained += 1;
    }
    drained
}

fn drain(result: &QueryResult) -> usize {
    let mut drained = 0;
    for row in result.rows() {
        black_box(row);
        drained += 1;
    }
    drained
}

fn bench_rows_drain(c: &mut Criterion) {
    // k is a permutation, so the selected rows lie all over the table
    let k: Vec<Key> = (0..ROWS as Key)
        .map(|i| (i * 999_983) % ROWS as Key)
        .collect();
    let a: Vec<Key> = k.iter().map(|&key| key % 1_000).collect();
    let b: Vec<Key> = (0..ROWS as Key).collect();
    let db = Database::new(aidx_core::StrategyKind::Cracking);
    db.create_table(
        "facts",
        Table::from_columns(vec![
            ("k", Column::from_i64(k)),
            ("a", Column::from_i64(a)),
            ("b", Column::from_i64(b)),
        ])
        .expect("three equally long columns"),
    )
    .expect("fresh database");
    let session = db.session();
    let query = Query::table("facts")
        .range("k", 1_000, 1_000 + SELECTED)
        .project(["a", "b"]);
    let fresh = || {
        let result = session.execute(&query).expect("projection query");
        black_box(result.positions());
        result
    };
    let reference = fresh();
    assert_eq!(drain_row_at_a_time(&reference), SELECTED as usize);
    let rows: Vec<Vec<Value>> = reference.collect_rows();
    assert!(
        fresh().rows().eq(rows.iter().map(Vec::as_slice)),
        "rows() must yield what the cursor loop reconstructs"
    );

    let mut group = c.benchmark_group("rows_drain");
    group.sample_size(30);
    group.bench_function("first", |bench| {
        bench.iter_batched(fresh, |result| drain(&result), BatchSize::LargeInput)
    });
    group.bench_function("again", |bench| {
        let result = fresh();
        drain(&result);
        bench.iter(|| drain(&result))
    });
    group.bench_function("row_at_a_time", |bench| {
        bench.iter_batched(
            fresh,
            |result| drain_row_at_a_time(&result),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_rows_drain);
criterion_main!(benches);
