//! Integration tests for the chunked segment storage subsystem: snapshot
//! sharing, reader isolation under concurrent appends, zone-map pruning
//! through the executor, and property-based agreement between the segmented
//! store and a flat vector reference model under random insert/query
//! interleavings.

use adaptive_indexing::columnstore::segment::Segment;
use adaptive_indexing::columnstore::Value;
use adaptive_indexing::{Aggregation, Database, Predicate, Query, StrategyKind};
use proptest::prelude::*;
use std::sync::Arc;

/// A database with one table `t(k int64)` holding `initial`, chunked small
/// enough that even modest row counts span many chunks.
fn seeded_db(initial: &[i64], segment_capacity: usize, strategy: StrategyKind) -> Database {
    seeded_db_with_workers(initial, segment_capacity, strategy, 1)
}

/// [`seeded_db`] on `workers` pool threads: more than one fans scans and
/// residual filters out across chunks; every column keeps one index.
fn seeded_db_with_workers(
    initial: &[i64],
    segment_capacity: usize,
    strategy: StrategyKind,
    workers: usize,
) -> Database {
    let db = Database::builder()
        .default_strategy(strategy)
        .segment_capacity(segment_capacity)
        .parallelism(workers)
        .try_build()
        .expect("valid configuration");
    db.create_table(
        "t",
        adaptive_indexing::columnstore::Table::from_columns(vec![(
            "k",
            adaptive_indexing::columnstore::Column::from_i64(initial.to_vec()),
        )])
        .expect("single column table"),
    )
    .expect("fresh database");
    db
}

#[test]
fn sealed_chunks_are_pointer_shared_across_pre_and_post_insert_snapshots() {
    let initial: Vec<i64> = (0..40).collect();
    let db = seeded_db(&initial, 8, StrategyKind::Cracking);
    let session = db.session();

    // hold a streaming result (and thus a table snapshot) across the insert
    let before = session
        .query("t")
        .range("k", 0, 1_000)
        .project(["k"])
        .execute()
        .unwrap();
    session.insert_row("t", &[Value::Int64(40)]).unwrap();
    let after = session
        .query("t")
        .range("k", 0, 1_000)
        .project(["k"])
        .execute()
        .unwrap();

    let seg_before: &Segment<i64> = before.snapshot().column("k").unwrap().as_i64().unwrap();
    let seg_after: &Segment<i64> = after.snapshot().column("k").unwrap().as_i64().unwrap();
    assert_eq!(seg_before.len(), 40);
    assert_eq!(seg_after.len(), 41);
    assert_eq!(seg_before.sealed_chunk_count(), 5);
    // the single-row insert deep-copied nothing but the tail: every sealed
    // chunk of the pre-insert snapshot is the same allocation post-insert
    for (a, b) in seg_before
        .sealed_chunks()
        .iter()
        .zip(seg_after.sealed_chunks())
    {
        assert!(Arc::ptr_eq(a, b), "sealed chunks must be Arc-shared");
    }
    assert_eq!(before.row_count(), 40);
    assert_eq!(after.row_count(), 41);
}

#[test]
fn open_row_iter_held_across_many_inserts_never_observes_tail_mutations() {
    let initial: Vec<i64> = (0..25).collect();
    let db = seeded_db(&initial, 4, StrategyKind::UpdatableCracking);
    let session = db.session();

    let result = session
        .query("t")
        .range("k", 0, 10_000)
        .project(["k"])
        .execute()
        .unwrap();
    let mut iter = result.rows();
    // drain a few rows, then keep the iterator open while a writer floods
    // the table — including values that would match the query's range
    let first: Vec<_> = (&mut iter).take(5).collect();
    assert_eq!(first.len(), 5);
    for i in 0..200 {
        session.insert_row("t", &[Value::Int64(i % 30)]).unwrap();
    }
    // the open iterator still sees exactly its snapshot: 20 remaining rows
    // with the original values, none of the 200 appended ones
    let rest: Vec<_> = iter.collect();
    assert_eq!(rest.len(), 20);
    for (offset, row) in rest.iter().enumerate() {
        assert_eq!(row[0], Value::Int64((offset + 5) as i64));
    }
    // a re-created iterator from the same result replays the same snapshot
    assert_eq!(result.rows().count(), 25);
    // while the table itself has moved on
    assert_eq!(session.row_count("t").unwrap(), 225);
}

#[test]
fn zone_maps_prune_chunks_through_the_facade() {
    // sorted keys + small chunks => disjoint per-chunk ranges
    let initial: Vec<i64> = (0..1_000).collect();
    let db = seeded_db(&initial, 50, StrategyKind::Cracking);
    let session = db.session();
    // an out-of-domain query is answered by zone maps alone, without ever
    // touching (or building) the adaptive index
    let result = session
        .query("t")
        .range("k", 5_000, 6_000)
        .execute()
        .unwrap();
    assert!(result.is_empty());
    assert_eq!(result.prune_stats().chunks_scanned, 0);
    assert_eq!(result.prune_stats().chunks_pruned, 20);
    assert_eq!(
        db.indexed_column_count(),
        0,
        "no index for a provably empty query"
    );
    // an in-domain query then builds the index as usual
    let result = session.query("t").range("k", 100, 200).execute().unwrap();
    assert_eq!(result.row_count(), 100);
    assert_eq!(db.indexed_column_count(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Random interleavings of batch inserts and queries of every driver
    // shape must agree *exactly* with a flat `Vec` reference model — for
    // every strategy, on one worker and on two, with tiny chunk sizes that force many chunk boundaries. An
    // index answers with row ids in piece order and the result orders them
    // on the first ordered read, so the count is checked before and after
    // that read, and the positions and the streamed rows against the
    // reference's ascending order.
    #[test]
    fn interleaved_inserts_and_queries_match_flat_reference(
        initial in prop::collection::vec(-200i64..200, 0..120),
        operations in prop::collection::vec(
            // (op selector: 0 = insert, 1.. = a query shape; value/low; high)
            (0u8..8, -250i64..250, -250i64..250),
            1..60,
        ),
        segment_capacity in 1usize..32,
        strategy_index in 0usize..10,
        workers in 1usize..3,
    ) {
        let strategies = StrategyKind::all_defaults();
        let strategy = strategies[strategy_index % strategies.len()];
        let db = seeded_db_with_workers(&initial, segment_capacity, strategy, workers);
        let session = db.session();
        let mut reference: Vec<i64> = initial.clone();

        for (op, a, b) in operations {
            let (low, high) = if a <= b { (a, b) } else { (b, a) };
            // each query shape with the flat model's own reading of it
            let (query, matches): (Query, Box<dyn Fn(i64) -> bool>) = match op {
                0 => {
                    // a batch of one to three rows, now and then holding the
                    // one key no half-open range can name
                    let batch = [a, b, i64::MAX][..1 + (a.unsigned_abs() % 3) as usize].to_vec();
                    let rows: Vec<Vec<Value>> =
                        batch.iter().map(|&k| vec![Value::Int64(k)]).collect();
                    let first = session.insert_rows("t", &rows).unwrap();
                    prop_assert_eq!(first as usize, reference.len());
                    reference.extend(batch);
                    continue;
                }
                // a range: empty when both bounds coincide
                1 | 2 => (
                    Query::table("t").range("k", low, high),
                    Box::new(move |v| v >= low && v < high),
                ),
                3 => (Query::table("t").point("k", a), Box::new(move |v| v == a)),
                // beyond every key but `i64::MAX`: zone maps answer alone
                4 => (
                    Query::table("t").range("k", low + 10_000, high + 20_000),
                    Box::new(move |v| v >= low + 10_000 && v < high + 20_000),
                ),
                5 => (
                    Query::table("t").range("k", i64::MIN, i64::MAX),
                    Box::new(|v| v < i64::MAX),
                ),
                6 => (
                    Query::table("t").in_set("k", [a, b, i64::MAX]),
                    Box::new(move |v| v == a || v == b || v == i64::MAX),
                ),
                // the variant built by hand, every member key repeated: the
                // rows of a repeated key are answered once
                _ => (
                    Query::table("t").filter(Predicate::InSet {
                        column: "k".into(),
                        keys: [low, low, high, high, i64::MAX, i64::MAX].into(),
                    }),
                    Box::new(move |v| v == a || v == b || v == i64::MAX),
                ),
            };
            let result = session.execute(&query.clone().project(["k"])).unwrap();
            let expected: Vec<u32> = (0..reference.len() as u32)
                .filter(|&i| matches(reference[i as usize]))
                .collect();
            let context = format!(
                "{} on {workers} worker(s), capacity {segment_capacity}, {query:?}",
                strategy.label()
            );
            prop_assert_eq!(result.row_count(), expected.len(), "{}", context);
            prop_assert_eq!(result.is_empty(), expected.is_empty(), "{}", context);
            let positions = result.positions().as_slice();
            prop_assert!(positions.windows(2).all(|w| w[0] < w[1]), "{}", context);
            prop_assert_eq!(positions, expected.as_slice(), "{}", context);
            prop_assert_eq!(result.row_count(), expected.len(), "{}", context);
            let streamed: Vec<Vec<Value>> = result.collect_rows();
            let expected_rows: Vec<Vec<Value>> = expected
                .iter()
                .map(|&i| vec![Value::Int64(reference[i as usize])])
                .collect();
            prop_assert_eq!(streamed, expected_rows, "{}", context);
        }
        prop_assert_eq!(session.row_count("t").unwrap(), reference.len());
    }

    // The segment's own invariants under arbitrary appends: sealed chunks
    // are exactly full, zone maps are exact, and iteration matches the
    // flat representation.
    #[test]
    fn segment_invariants_hold_under_arbitrary_appends(
        values in prop::collection::vec(-1000i64..1000, 0..300),
        capacity in 1usize..40,
    ) {
        let mut segment: Segment<i64> = Segment::with_chunk_capacity(capacity);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(segment.push(v) as usize, i);
        }
        prop_assert_eq!(segment.len(), values.len());
        prop_assert_eq!(segment.to_vec(), values.clone());
        prop_assert_eq!(segment.sealed_chunk_count(), values.len() / capacity);
        for chunk in segment.chunks() {
            prop_assert!(chunk.values.len() <= capacity);
            prop_assert_eq!(chunk.zone.row_count(), chunk.values.len());
            prop_assert_eq!(chunk.zone.min(), chunk.values.iter().copied().min());
            prop_assert_eq!(chunk.zone.max(), chunk.values.iter().copied().max());
            prop_assert!(chunk.zone.null_free());
            if chunk.sealed {
                prop_assert_eq!(chunk.values.len(), capacity);
            }
        }
        prop_assert_eq!(segment.min(), values.iter().copied().min());
        prop_assert_eq!(segment.max(), values.iter().copied().max());
    }
}

/// The reference's reading of a predicate.
type RowTest = Box<dyn Fn(i64) -> bool>;

/// One predicate of a generated conjunction: the facade predicate and the
/// reference's reading of it.
fn generated_predicate(column: &'static str, shape: u8, x: i64, y: i64) -> (Predicate, RowTest) {
    let (low, high) = if x <= y { (x, y) } else { (y, x) };
    match shape {
        // a random range: covers, straddles or misses chunks of the
        // ascending column depending on where it falls
        0 | 1 => (
            Predicate::range(column, low, high),
            Box::new(move |v| v >= low && v < high),
        ),
        2 => (
            Predicate::range(column, i64::MIN, high),
            Box::new(move |v| v < high),
        ),
        3 => (
            Predicate::range(column, low, i64::MAX),
            Box::new(move |v| v >= low && v < i64::MAX),
        ),
        4 => (
            Predicate::range(column, i64::MIN, i64::MAX),
            Box::new(|v| v < i64::MAX),
        ),
        5 => (Predicate::point(column, x), Box::new(move |v| v == x)),
        6 => (
            Predicate::in_set(column, [x, y]),
            Box::new(move |v| v == x || v == y),
        ),
        // beyond every value: zone maps drop every group
        _ => (
            Predicate::range(column, 1_000 + low, 2_000 + high),
            Box::new(move |v| v >= 1_000 + low && v < 2_000 + high),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // The residual stage — group the driver's answer by chunk, let zone maps
    // decide whole chunks, filter the rest, order the survivors — must equal
    // a per-row reference for conjunctions of one to three residuals over
    // columns chunked alike, fragmented alike (appends under a live
    // snapshot) and fragmented differently per column (so residuals regroup
    // between columns), at one, two and four workers; and the pruning
    // statistics must not depend on the worker count.
    #[test]
    fn residual_stage_matches_a_per_row_reference(
        rows in prop::collection::vec((-40i64..40, 0i64..3, -40i64..40), 0..200),
        conjunctions in prop::collection::vec(
            prop::collection::vec((0usize..3, 0u8..8, -45i64..45, -45i64..45), 1..5),
            1..8,
        ),
        capacity in 2usize..20,
        layout in 0u8..3,
        salt in 0usize..7,
    ) {
        // k: random; b: ascending in steps of 0..3 (runs of equal values
        // give single-key zones); a: random
        let k: Vec<i64> = rows.iter().map(|r| r.0).collect();
        let mut b: Vec<i64> = Vec::with_capacity(rows.len());
        let mut next = -40;
        for r in &rows {
            b.push(next);
            next += r.1;
        }
        let a: Vec<i64> = rows.iter().map(|r| r.2).collect();
        let columns: [(&'static str, &Vec<i64>); 3] = [("k", &k), ("a", &a), ("b", &b)];
        // layout 2: each column sealed early at its own rows
        let column = |c: usize, values: &[i64]| {
            let mut column = adaptive_indexing::columnstore::Column::from_i64(Vec::new())
                .with_segment_capacity(capacity);
            for (i, &v) in values.iter().enumerate() {
                column.push_value("", &Value::Int64(v)).unwrap();
                if layout == 2 && (i * (c + 2) + salt).is_multiple_of(5) {
                    column.seal_tail();
                }
            }
            column
        };
        // layout 1 appends the last third a row at a time under a live
        // snapshot, so every column's tail is sealed early at the same rows
        let preloaded = if layout == 1 { rows.len() * 2 / 3 } else { rows.len() };
        let mut dbs = Vec::new();
        for workers in [1, 2, 4] {
            let db = Database::builder()
                .segment_capacity(capacity)
                .parallelism(workers)
                .try_build()
                .expect("valid configuration");
            let table = adaptive_indexing::columnstore::Table::from_columns(
                columns
                    .iter()
                    .enumerate()
                    .map(|(c, (name, values))| (*name, column(c, &values[..preloaded])))
                    .collect(),
            )
            .unwrap();
            db.create_table("t", table).unwrap();
            let session = db.session();
            for i in preloaded..rows.len() {
                let _held = db.table_snapshot("t").unwrap();
                let row: Vec<Value> = columns.iter().map(|(_, v)| Value::Int64(v[i])).collect();
                session.insert_rows("t", &[row]).unwrap();
            }
            dbs.push((workers, db));
        }
        if layout != 0 && rows.len() > 3 * capacity {
            let snapshot = dbs[0].1.table_snapshot("t").unwrap();
            let fragmented: usize = columns
                .iter()
                .map(|(name, _)| snapshot.column(name).unwrap().fragmented_chunk_count())
                .sum();
            prop_assert!(fragmented > 0, "layout {} fragments a column", layout);
        }

        for conjunction in conjunctions {
            let mut query = Query::table("t");
            let mut tests: Vec<(usize, RowTest)> = Vec::new();
            for &(c, shape, x, y) in &conjunction {
                let (predicate, test) = generated_predicate(columns[c].0, shape, x, y);
                query = query.filter(predicate);
                tests.push((c, test));
            }
            let expected: Vec<u32> = (0..rows.len())
                .filter(|&i| tests.iter().all(|(c, test)| test(columns[*c].1[i])))
                .map(|i| i as u32)
                .collect();
            let expected_rows: Vec<Vec<Value>> = expected
                .iter()
                .map(|&i| columns.iter().map(|(_, v)| Value::Int64(v[i as usize])).collect())
                .collect();
            let selected_a: Vec<i64> = expected.iter().map(|&i| a[i as usize]).collect();
            let sum: i128 = selected_a.iter().map(|&v| v as i128).sum();
            let expected_aggregates = [
                (Aggregation::Count, Some(Value::Int64(selected_a.len() as i64))),
                (Aggregation::Sum, (!selected_a.is_empty()).then_some(Value::Int64(sum as i64))),
                (Aggregation::Min, selected_a.iter().min().map(|&v| Value::Int64(v))),
                (Aggregation::Max, selected_a.iter().max().map(|&v| Value::Int64(v))),
                (
                    Aggregation::Avg,
                    (!selected_a.is_empty())
                        .then(|| Value::Float64(sum as f64 / selected_a.len() as f64)),
                ),
            ];
            let mut stats = Vec::new();
            for (workers, db) in &dbs {
                let session = db.session();
                let context = format!("{workers} worker(s), layout {layout}, {query:?}");
                let result = session.execute(&query.clone().project(["k", "a", "b"])).unwrap();
                prop_assert_eq!(result.row_count(), expected.len(), "{}", context);
                prop_assert_eq!(result.positions().as_slice(), expected.as_slice(), "{}", context);
                prop_assert_eq!(&result.collect_rows(), &expected_rows, "{}", context);
                stats.push(result.prune_stats());
                for (aggregation, value) in &expected_aggregates {
                    let result = session.execute(&query.clone().aggregate(*aggregation, "a")).unwrap();
                    prop_assert_eq!(result.aggregate(), value.as_ref(), "{:?} {}", aggregation, context);
                }
            }
            prop_assert!(stats.windows(2).all(|w| w[0] == w[1]), "{:?} for {:?}", stats, query);
        }
    }
}
