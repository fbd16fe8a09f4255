//! Integration tests for the chunked segment storage subsystem: snapshot
//! sharing, reader isolation under concurrent appends, zone-map pruning
//! through the executor, and property-based agreement between the segmented
//! store and a flat vector reference model under random insert/query
//! interleavings.

use adaptive_indexing::columnstore::segment::Segment;
use adaptive_indexing::columnstore::Value;
use adaptive_indexing::{Database, Predicate, Query, StrategyKind};
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
