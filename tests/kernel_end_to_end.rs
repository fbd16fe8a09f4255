//! End-to-end tests through the adaptive kernel facade: database, sessions,
//! query planner, index manager and auto-tuner working together the way the
//! tutorial's "auto-tuning kernels" section describes.

use adaptive_indexing::core::manager::ColumnId;
use adaptive_indexing::core::prelude::*;
use adaptive_indexing::core::tuner::WorkloadProfile;
use adaptive_indexing::workloads::data::{generate_keys, DataDistribution};
use adaptive_indexing::Database;

fn build_database(rows: usize, strategy: StrategyKind) -> Database {
    let keys = generate_keys(rows, DataDistribution::UniformPermutation, 11);
    let amounts: Vec<i64> = keys.iter().map(|&k| k % 1000).collect();
    let region: Vec<i64> = keys.iter().map(|&k| k % 7).collect();
    let db = Database::builder().default_strategy(strategy).build();
    db.create_table(
        "sales",
        Table::from_columns(vec![
            ("s_key", Column::from_i64(keys)),
            ("s_amount", Column::from_i64(amounts)),
            ("s_region", Column::from_i64(region)),
        ])
        .unwrap(),
    )
    .unwrap();
    let lookup_keys: Vec<i64> = (0..100).collect();
    let names: Vec<String> = (0..100).map(|i| format!("region-{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    db.create_table(
        "regions",
        Table::from_columns(vec![
            ("r_key", Column::from_i64(lookup_keys)),
            ("r_name", Column::from_strs(&name_refs)),
        ])
        .unwrap(),
    )
    .unwrap();
    db
}

#[test]
fn sessions_answer_projection_and_aggregate_queries_correctly() {
    let rows = 50_000;
    let db = build_database(rows, StrategyKind::Cracking);
    let session = db.session();

    // count over a range
    let result = session
        .query("sales")
        .range("s_key", 1000, 2000)
        .aggregate(Aggregation::Count, "s_key")
        .execute()
        .unwrap();
    assert_eq!(result.aggregate(), Some(&Value::Int64(1000)));

    // streamed projection returns the right values (s_amount = s_key % 1000)
    let result = session
        .query("sales")
        .range("s_key", 5000, 5010)
        .project(["s_amount"])
        .execute()
        .unwrap();
    assert_eq!(result.row_count(), 10);
    let mut streamed = 0;
    for row in result.rows() {
        let amount = row[0].as_i64().unwrap();
        assert!((0..1000).contains(&amount));
        streamed += 1;
    }
    assert_eq!(streamed, 10);

    // only the filter column was indexed
    assert_eq!(db.indexed_column_count(), 1);
    let info = db.index_stats();
    assert_eq!(info[0].column.column(), "s_key");
    assert_eq!(info[0].strategy, "cracking");
    assert!(info[0].auxiliary_bytes > 0);
}

#[test]
fn sessions_handle_many_queries_on_multiple_columns_and_tables() {
    let rows = 30_000;
    let db = build_database(rows, StrategyKind::Cracking);
    let session = db.session();
    let mut total = 0usize;
    for q in 0..200 {
        let low = (q * 149) % 25_000;
        let result = session
            .query("sales")
            .range("s_key", low, low + 500)
            .execute()
            .unwrap();
        total += result.row_count();
        if q % 10 == 0 {
            let by_region = session
                .query("sales")
                .range("s_region", 2, 4)
                .execute()
                .unwrap();
            assert!(by_region.row_count() > 0);
        }
        if q % 25 == 0 {
            let lookup = session
                .query("regions")
                .range("r_key", 10, 20)
                .project(["r_name"])
                .execute()
                .unwrap();
            assert_eq!(lookup.row_count(), 10);
        }
    }
    assert_eq!(total, 200 * 500);
    assert_eq!(db.indexed_column_count(), 3);
    // the hot column did far more work than the occasionally queried ones
    let info = db.index_stats();
    let s_key = info.iter().find(|i| i.column.column() == "s_key").unwrap();
    let s_region = info
        .iter()
        .find(|i| i.column.column() == "s_region")
        .unwrap();
    assert!(s_key.queries > s_region.queries);
}

#[test]
fn conjunctive_queries_route_through_one_index_and_match_a_scan() {
    let rows = 20_000;
    let db = build_database(rows, StrategyKind::Cracking);
    let session = db.session();

    let query = Query::table("sales")
        .range("s_key", 2000, 12_000)
        .range("s_amount", 100, 600)
        .in_set("s_region", [1, 4, 6]);

    // the planner drives through the most selective predicate: the 3-key
    // in-set beats the 500-wide and 10_000-wide ranges
    let plan = session.explain(&query).unwrap();
    assert_eq!(plan.driver_column.as_deref(), Some("s_region"));
    assert_eq!(plan.residual_columns.len(), 2);

    let result = session.execute(&query).unwrap();

    // scan reference over the raw generated data
    let keys = generate_keys(rows, DataDistribution::UniformPermutation, 11);
    let expected: Vec<u32> = (0..rows)
        .filter(|&i| {
            let k = keys[i];
            (2000..12_000).contains(&k)
                && (100..600).contains(&(k % 1000))
                && [1, 4, 6].contains(&(k % 7))
        })
        .map(|i| i as u32)
        .collect();
    assert_eq!(result.positions().as_slice(), expected.as_slice());
    assert!(!result.is_empty());
}

#[test]
fn tuner_decisions_drive_the_manager() {
    let rows = 200_000;
    let keys = generate_keys(rows, DataDistribution::UniformPermutation, 21);
    let manager = IndexManager::new(StrategyKind::Cracking);
    let tuner = AutoTuner::new(TuningPolicy::CostBased);

    // a predictable, long workload on column "stable"
    let stable_profile = WorkloadProfile {
        row_count: rows,
        expected_queries: 100_000,
        average_selectivity: 0.001,
        update_fraction: 0.0,
        predictability: 1.0,
        storage_budget_bytes: usize::MAX,
    };
    let decision = tuner.decide(&stable_profile);
    assert_eq!(decision.strategy, StrategyKind::FullSort);
    let column = ColumnId::new("t", "stable");
    let out = manager.query_range_with(&column, &keys, 100, 1000, decision.strategy);
    assert_eq!(out.count(), 900);
    assert_eq!(manager.describe()[0].strategy, "full-sort");

    // an unpredictable workload on column "adhoc"
    let adhoc_profile = WorkloadProfile::unpredictable(rows, 500);
    let decision = tuner.decide(&adhoc_profile);
    assert_eq!(decision.strategy, StrategyKind::Cracking);
    let column = ColumnId::new("t", "adhoc");
    let out = manager.query_range_with(&column, &keys, 100, 1000, decision.strategy);
    assert_eq!(out.count(), 900);

    assert_eq!(manager.indexed_column_count(), 2);
    assert!(manager.total_auxiliary_bytes() > 0);
}

#[test]
fn inserts_flow_through_sessions_with_every_strategy() {
    for strategy in [
        StrategyKind::Cracking,
        StrategyKind::UpdatableCracking,
        StrategyKind::FullSort,
    ] {
        let db = build_database(5000, strategy);
        let session = db.session();
        let before = session
            .query("sales")
            .range("s_key", 0, 5000)
            .execute()
            .unwrap()
            .row_count();
        assert_eq!(before, 5000, "{strategy:?}");
        for i in 0..50 {
            session
                .insert_row(
                    "sales",
                    &[Value::Int64(2500 + i), Value::Int64(i), Value::Int64(i % 7)],
                )
                .unwrap();
        }
        let after = session
            .query("sales")
            .range("s_key", 0, 5000)
            .execute()
            .unwrap()
            .row_count();
        assert_eq!(after, 5050, "{strategy:?}");
    }
}

#[test]
fn unqueried_columns_never_get_indexes() {
    let db = build_database(10_000, StrategyKind::Cracking);
    let session = db.session();
    for q in 0..50 {
        let low = (q * 157) % 8000;
        let _ = session
            .query("sales")
            .range("s_key", low, low + 100)
            .execute()
            .unwrap();
    }
    let info = db.index_stats();
    assert_eq!(info.len(), 1);
    assert_eq!(info[0].column.column(), "s_key");
    assert!(!db
        .index_manager()
        .has_index(&ColumnId::new("sales", "s_amount")));
}

#[test]
fn typed_errors_replace_panics_at_the_api_boundary() {
    let db = build_database(100, StrategyKind::Cracking);
    let session = db.session();
    // unknown table / column
    assert!(session
        .query("nope")
        .range("s_key", 0, 5)
        .execute()
        .is_err());
    assert!(session
        .query("sales")
        .range("nope", 0, 5)
        .execute()
        .is_err());
    // range predicate on a string column
    let err = session
        .query("regions")
        .range("r_name", 0, 5)
        .execute()
        .unwrap_err();
    assert!(matches!(err, AidxError::Store(_)));
    // unknown projection
    assert!(session
        .query("sales")
        .range("s_key", 0, 5)
        .project(["nope"])
        .execute()
        .is_err());
    // inverted range
    let err = session
        .query("sales")
        .range("s_key", 10, 0)
        .execute()
        .unwrap_err();
    assert!(matches!(err, AidxError::InvalidRange { .. }));
}

/// The first query on a column builds its index *for that query*: the
/// cracking kinds partition around its bounds while they copy the chunks.
/// Whatever shape that first query has, the answer is the scan's, the index
/// keeps answering like one afterwards, and appended rows show up.
#[test]
fn first_touch_answers_like_a_scan_for_every_query_shape() {
    let rows = 1000; // 15 chunks of 64 and a tail of 40
    let keys: Vec<i64> = (0..rows).map(|i| (i * 7919) % 500).collect();
    let shapes: [(&str, i64, i64); 6] = [
        ("range", 100, 180),
        ("point", 250, 251),
        ("empty", 300, 300),
        ("below the domain", -50, -10),
        ("straddling the top", 450, 9000),
        ("whole domain", i64::MIN, i64::MAX),
    ];
    let scan = |model: &[i64], low: i64, high: i64| -> Vec<RowId> {
        (0..model.len() as RowId)
            .filter(|&p| (low..high).contains(&model[p as usize]))
            .collect()
    };
    for strategy in [StrategyKind::Cracking, StrategyKind::UpdatableCracking] {
        for (shape, low, high) in shapes {
            let db = Database::builder()
                .default_strategy(strategy)
                .segment_capacity(64)
                .parallelism(1)
                .build();
            db.create_table(
                "t",
                Table::from_columns(vec![("k", Column::from_i64(keys.clone()))]).unwrap(),
            )
            .unwrap();
            let session = db.session();
            let mut model = keys.clone();
            let context = format!("{strategy:?}, {shape}");

            let query = Query::table("t").range("k", low, high);
            let first = session.explain_profile(&query).unwrap();
            assert_eq!(
                first.result.positions().as_slice(),
                scan(&model, low, high),
                "{context}"
            );
            if shape == "range" {
                assert_eq!(first.trace.pieces_after(), Some(3), "{context}");
            }
            for event in &first.trace.events {
                if let SpanEvent::IndexProbe {
                    pieces_before,
                    pieces_after,
                    effort_delta,
                    rebuilt,
                    ..
                } = event
                {
                    // the build and its cuts are this query's work: copy +
                    // compare + the answer read (+ the few swaps that cut the
                    // upper side on `high`), from one piece to three
                    assert!(*rebuilt, "{context}");
                    assert_eq!(*pieces_before, 1, "{context}");
                    if shape == "range" {
                        assert_eq!(*pieces_after, 3, "{context}");
                        let floor = 2 * rows as u64 + first.result.row_count() as u64;
                        assert!(
                            (floor..floor + rows as u64 / 2).contains(effort_delta),
                            "{context}: {effort_delta}"
                        );
                    }
                }
            }

            // the index the first touch left keeps answering like a scan
            for (_, low, high) in shapes {
                let result = session.query("t").range("k", low, high).execute().unwrap();
                assert_eq!(
                    result.positions().as_slice(),
                    scan(&model, low, high),
                    "{context}, then [{low}, {high})"
                );
            }

            // and so do rows appended behind it
            let batch: Vec<Vec<Value>> = [120, 250, -20, 9500, 499, 120]
                .iter()
                .map(|&k| vec![Value::Int64(k)])
                .collect();
            session.insert_rows("t", &batch).unwrap();
            model.extend([120, 250, -20, 9500, 499, 120]);
            for (_, low, high) in shapes.into_iter().chain([("above", 9000, 10_000)]) {
                let result = session.query("t").range("k", low, high).execute().unwrap();
                assert_eq!(
                    result.positions().as_slice(),
                    scan(&model, low, high),
                    "{context}, after inserts [{low}, {high})"
                );
            }
        }
    }
}

/// Batches land inside the domain of a column the queries have already cut
/// into many pieces, so every merge ripples through the pieces above its
/// keys — on one worker and on two (the same one index per column).
/// Between batches every answer is the scan's, and the index is never
/// dropped and rebuilt to get there.
#[test]
fn in_domain_insert_batches_merge_into_a_converged_updatable_column() {
    let rows: i64 = 4000;
    let keys: Vec<i64> = (0..rows).map(|i| (i * 7919) % rows).collect();
    let scan = |model: &[i64], low: i64, high: i64| -> Vec<RowId> {
        (0..model.len() as RowId)
            .filter(|&p| (low..high).contains(&model[p as usize]))
            .collect()
    };
    for workers in [1, 2] {
        let db = Database::builder()
            .default_strategy(StrategyKind::UpdatableCracking)
            .segment_capacity(256)
            .parallelism(workers)
            .build();
        db.create_table(
            "t",
            Table::from_columns(vec![("k", Column::from_i64(keys.clone()))]).unwrap(),
        )
        .unwrap();
        let session = db.session();
        let mut model = keys.clone();
        let check = |model: &[i64], low: i64, high: i64, context: &str| {
            let result = session.query("t").range("k", low, high).execute().unwrap();
            assert_eq!(
                result.positions().as_slice(),
                scan(model, low, high),
                "{workers} workers, {context}: [{low}, {high})"
            );
        };
        for q in 0..200 {
            let low = (q * 613) % rows;
            check(&model, low, low + 40, "converging");
        }
        assert!(db.index_stats()[0].converged, "{workers} workers");

        for batch in 0..30 {
            // duplicates of stored keys, across the whole domain
            let batch_keys: Vec<i64> = (0..16).map(|i| (batch * 997 + i * 251) % rows).collect();
            let values: Vec<Vec<Value>> =
                batch_keys.iter().map(|&k| vec![Value::Int64(k)]).collect();
            session.insert_rows("t", &values).unwrap();
            model.extend(&batch_keys);
            // one range that is due part of the batch, one that is due all
            // that is still pending, one point
            let low = (batch * 389) % rows;
            check(&model, low, low + 500, "after a batch");
            if batch % 5 == 4 {
                check(&model, i64::MIN, i64::MAX, "whole domain");
            }
            check(&model, batch_keys[3], batch_keys[3] + 1, "point");
        }
        // one index took every batch and every query: never dropped
        let info = &db.index_stats()[0];
        assert_eq!(info.tuples, model.len(), "{workers} workers");
        assert_eq!(info.queries, 200 + 30 * 2 + 6, "{workers} workers");
    }
}

/// One insert into a converged column, then the same query again, for every
/// strategy: the cracking kinds merge the row into the index they have —
/// the traced probe reports no rebuild and no fewer pieces — while every
/// other kind still drops its index and rebuilds it from the grown column.
/// Every answer is the scan's either way.
#[test]
fn an_insert_into_a_converged_column_is_absorbed_by_the_cracking_kinds() {
    let rows: i64 = 5000;
    let keys: Vec<i64> = (0..rows).map(|i| (i * 7919) % rows).collect();
    let scan = |model: &[i64], low: i64, high: i64| -> Vec<RowId> {
        (0..model.len() as RowId)
            .filter(|&p| (low..high).contains(&model[p as usize]))
            .collect()
    };
    for strategy in StrategyKind::all_defaults() {
        let label = strategy.label();
        let absorbs = matches!(
            strategy,
            StrategyKind::Cracking
                | StrategyKind::UpdatableCracking
                | StrategyKind::StochasticCracking
        );
        let db = Database::builder()
            .default_strategy(strategy)
            .parallelism(1)
            .build();
        db.create_table(
            "t",
            Table::from_columns(vec![("k", Column::from_i64(keys.clone()))]).unwrap(),
        )
        .unwrap();
        let session = db.session();
        let mut model = keys.clone();
        for q in 0..300 {
            let low = (q * 613) % rows;
            let result = session.query("t").range("k", low, low + 50).execute();
            let positions = result.unwrap().positions().as_slice().to_vec();
            assert_eq!(positions, scan(&model, low, low + 50), "{label}: query {q}");
        }
        if absorbs {
            assert!(db.index_stats()[0].converged, "{label}");
        }
        // (rebuilt, pieces_before, pieces_after) of the traced probe
        let probe = |model: &[i64]| {
            let query = Query::table("t").range("k", 1000, 1100);
            let profile = session.explain_profile(&query).unwrap();
            let positions = profile.result.positions().as_slice().to_vec();
            assert_eq!(positions, scan(model, 1000, 1100), "{label}");
            let probe = profile.trace.events.iter().find_map(|event| match event {
                SpanEvent::IndexProbe {
                    rebuilt,
                    pieces_before,
                    pieces_after,
                    ..
                } => Some((*rebuilt, *pieces_before, *pieces_after)),
                _ => None,
            });
            probe.expect("a range query probes the index")
        };
        let (rebuilt, _, converged_pieces) = probe(&model);
        assert!(!rebuilt, "{label}");

        let row = session.insert_row("t", &[Value::Int64(1050)]).unwrap();
        assert_eq!(row, rows as RowId, "{label}");
        model.push(1050);
        let (rebuilt, pieces_before, pieces_after) = probe(&model);
        assert_eq!(rebuilt, !absorbs, "{label}");
        if absorbs {
            assert!(pieces_before >= converged_pieces, "{label}");
            assert!(pieces_after >= converged_pieces, "{label}");
            assert_eq!(db.index_stats()[0].tuples, model.len(), "{label}");
        }
    }
}
