//! Deferred answers: a query whose only predicate is one `Range` or `Point`
//! and that reads no row ids while it runs (no residual, no aggregate but
//! `COUNT`) counts from its index's two cuts and copies its row ids only on
//! the first `positions()` / `rows()` read.
//!
//! Whatever happens between `execute` and that read — inserts, remediation,
//! a dropped index, a dropped and re-created table, a compacting
//! maintenance tick — the read must equal the per-row answer of the
//! snapshot the query ran on, for every strategy at one worker and at four.
//! And a read is no query: it neither registers nor refines an index, and
//! adds nothing to any effort counter.
//!
//! An answer of fewer than 4 096 row ids is copied by the probe at once, so
//! the tables here hold a few thousand rows over a handful of keys: wide
//! ranges are deferred, points and narrow ranges are not.

use adaptive_indexing::columnstore::{Column, RowId, Table, Value};
use adaptive_indexing::core::manager::{ColumnId, IndexInfo};
use adaptive_indexing::{
    Aggregation, Database, MaintenanceConfig, Query, QueryResult, SpanEvent, StrategyKind,
};
use proptest::prelude::*;

/// Keys are drawn from `0..DOMAIN`, so ranges overlap and points hit.
const DOMAIN: i64 = 8;

/// `k` holds `keys`; `v` holds each row's own position, so a row read at
/// the wrong position shows.
fn table(keys: &[i64]) -> Table {
    Table::from_columns(vec![
        ("k", Column::from_i64(keys.to_vec())),
        ("v", Column::from_i64((0..keys.len() as i64).collect())),
    ])
    .expect("two equal-length columns")
}

fn database(strategy: StrategyKind, workers: usize, keys: &[i64]) -> Database {
    let db = Database::builder()
        .default_strategy(strategy)
        .segment_capacity(256)
        .parallelism(workers)
        .maintenance(MaintenanceConfig {
            min_chunk_fill: 0.9,
            ..MaintenanceConfig::default()
        })
        .try_build()
        .expect("valid configuration");
    db.create_table("t", table(keys)).expect("fresh database");
    db
}

/// One step between executing queries and reading their answers.
#[derive(Debug, Clone)]
enum Step {
    /// Execute a query and hold its result unread. `shape` 0 is a range,
    /// 1 a point, 2 a range with `COUNT`, 3 a range over most of the key
    /// domain (each of its bounds a cut, or outside the domain).
    Query {
        low: i64,
        width: i64,
        shape: u8,
    },
    /// Read the held result `pick` (modulo how many are held) for the first
    /// time: 0 through `positions()`, 1 through `rows()`, 2 through
    /// `collect_rows()`.
    Read {
        pick: usize,
        via: u8,
    },
    Insert(i64),
    /// Rebuild the column's index under another strategy, from the live
    /// snapshot or, `lagging`, from the oldest held one of the live table —
    /// as a remediation does whose snapshot predates absorbed inserts.
    Remediate {
        remedy: usize,
        lagging: bool,
    },
    DropIndex,
    /// Drop the table and create it again with other keys.
    Recreate(u8),
    Tick,
}

impl Step {
    /// The step a sampled `(kind, a, b, c)` names; queries, reads and
    /// inserts are drawn more often than the rest.
    fn decode((kind, a, b, c): (u8, i64, i64, u8)) -> Step {
        match kind {
            0..=3 => Step::Query {
                low: a,
                width: b,
                shape: c % 4,
            },
            4..=6 => Step::Read {
                pick: b as usize,
                via: c % 3,
            },
            7..=9 => Step::Insert(a),
            10 => Step::Remediate {
                remedy: usize::from(c) % REMEDIES.len(),
                lagging: b % 2 == 1,
            },
            11 => Step::DropIndex,
            12 => Step::Recreate(c + 1),
            _ => Step::Tick,
        }
    }
}

/// A result held unread, with what its snapshot says it must read.
struct Held {
    result: QueryResult,
    /// How often the table had been re-created when the query ran.
    incarnation: u32,
    positions: Vec<RowId>,
    rows: Vec<Vec<Value>>,
}

/// The per-row answer of `[low, high)` over the snapshot `result` ran on,
/// and the rows `(v, k)` at those positions.
fn reference(result: &QueryResult, low: i64, high: i64) -> (Vec<RowId>, Vec<Vec<Value>>) {
    let snapshot = result.snapshot();
    let column = |name| snapshot.column(name).unwrap().as_i64().unwrap().to_vec();
    let (keys, payload) = (column("k"), column("v"));
    let positions: Vec<RowId> = (0..keys.len())
        .filter(|&i| (low..high).contains(&keys[i]))
        .map(|i| i as RowId)
        .collect();
    let rows = positions
        .iter()
        .map(|&p| {
            vec![
                Value::Int64(payload[p as usize]),
                Value::Int64(keys[p as usize]),
            ]
        })
        .collect();
    (positions, rows)
}

/// Read `held` the way `via` says and compare with its reference; the read
/// must leave the registry as it found it.
fn read(db: &Database, held: Held, via: u8) {
    let indexed = db.indexed_column_count();
    match via {
        0 => assert_eq!(
            held.result.positions().as_slice(),
            held.positions.as_slice()
        ),
        1 => {
            let rows: Vec<Vec<Value>> = held.result.rows().map(<[Value]>::to_vec).collect();
            assert_eq!(&rows, &held.rows);
        }
        _ => assert_eq!(&held.result.collect_rows(), &held.rows),
    }
    assert_eq!(
        db.indexed_column_count(),
        indexed,
        "a read registered an index"
    );
    // a clone taken after the read shares its answer
    let clone = held.result.clone();
    assert_eq!(clone.positions().as_slice(), held.positions.as_slice());
    assert_eq!(clone.row_count(), held.positions.len());
}

const REMEDIES: [StrategyKind; 4] = [
    StrategyKind::Cracking,
    StrategyKind::UpdatableCracking,
    StrategyKind::FullSort,
    StrategyKind::StochasticCracking,
];

fn run(strategy: StrategyKind, workers: usize, initial: &[i64], steps: &[Step]) {
    let db = database(strategy, workers, initial);
    let session = db.session();
    let column = ColumnId::new("t", "k");
    let mut held: Vec<Held> = Vec::new();
    let mut incarnation = 0;
    for step in steps {
        match *step {
            Step::Query { low, width, shape } => {
                let (low, high) = match shape {
                    1 => (low, low + 1),
                    3 => (low % 2, DOMAIN - 1 + width % 2),
                    _ => (low, low + width),
                };
                let query = match shape {
                    1 => Query::table("t").point("k", low),
                    2 => Query::table("t")
                        .range("k", low, high)
                        .aggregate(Aggregation::Count, "k"),
                    _ => Query::table("t").range("k", low, high),
                }
                .project(["v", "k"]);
                let result = session.execute(&query).unwrap();
                let (positions, rows) = reference(&result, low, high);
                assert_eq!(result.row_count(), positions.len(), "{:?}", step);
                if shape == 2 {
                    let count = Value::Int64(positions.len() as i64);
                    assert_eq!(result.aggregate(), Some(&count));
                }
                held.push(Held {
                    result,
                    incarnation,
                    positions,
                    rows,
                });
            }
            Step::Read { pick, via } => {
                if !held.is_empty() {
                    let picked = held.swap_remove(pick % held.len());
                    read(&db, picked, via);
                }
            }
            Step::Insert(key) => {
                let position = db.row_count("t").unwrap() as i64;
                session
                    .insert_row("t", &[Value::Int64(key), Value::Int64(position)])
                    .unwrap();
            }
            Step::Remediate { remedy, lagging } => {
                // a whole-domain query stamps the index with the current
                // epoch, so the remedy is built for the live incarnation
                let everything = Query::table("t").range("k", i64::MIN, i64::MAX);
                session.execute(&everything).unwrap();
                let oldest = held
                    .iter()
                    .filter(|h| lagging && h.incarnation == incarnation)
                    .min_by_key(|h| h.result.snapshot().row_count());
                let snapshot = match oldest {
                    Some(h) => h.result.snapshot().clone(),
                    None => db.table_snapshot("t").unwrap(),
                };
                let keys = snapshot.column("k").unwrap().as_i64().unwrap();
                let manager = db.index_manager();
                if let Some((epoch, _)) = manager.index_version(&column) {
                    manager.remediate_index(&column, keys, epoch, REMEDIES[remedy]);
                }
            }
            Step::DropIndex => {
                db.index_manager().drop_index(&column);
            }
            Step::Recreate(shift) => {
                let keys = db.table_snapshot("t").unwrap();
                let keys = keys.column("k").unwrap().as_i64().unwrap().to_vec();
                let shifted: Vec<i64> = keys
                    .iter()
                    .map(|k| (k + i64::from(shift)) % DOMAIN)
                    .collect();
                assert!(db.drop_table("t"));
                db.create_table("t", table(&shifted)).unwrap();
                incarnation += 1;
            }
            Step::Tick => {
                db.maintenance_tick();
            }
        }
    }
    for (i, left) in held.into_iter().enumerate() {
        read(&db, left, (i % 3) as u8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn deferred_reads_equal_the_snapshot_answer_at_execute_time(
        initial in prop::collection::vec(0..DOMAIN, 6_000..7_000),
        steps in prop::collection::vec((0u8..14, 0..DOMAIN, 0..DOMAIN + 1, 0u8..8), 1..60),
    ) {
        let steps: Vec<Step> = steps.into_iter().map(Step::decode).collect();
        for strategy in StrategyKind::all_defaults() {
            for workers in [1, 4] {
                run(strategy, workers, &initial, &steps);
            }
        }
    }
}

/// A `Cracking` database over a shuffled 20 000-key column, converged by
/// 400 queries of 1 %.
fn converged() -> Database {
    let n = 20_000i64;
    let keys: Vec<i64> = (0..n).map(|i| i * 7_919 % n).collect();
    let db = Database::builder()
        .default_strategy(StrategyKind::Cracking)
        .parallelism(1)
        .build();
    db.create_table(
        "t",
        Table::from_columns(vec![("k", Column::from_i64(keys))]).unwrap(),
    )
    .unwrap();
    let session = db.session();
    for i in 0..400 {
        let low = i * 4_987 % (n - 200);
        session
            .execute(&Query::table("t").range("k", low, low + 200))
            .unwrap();
    }
    db
}

fn index_info(db: &Database) -> IndexInfo {
    let mut stats = db.index_stats();
    assert_eq!(stats.len(), 1, "one indexed column");
    stats.remove(0)
}

fn refinement_effort(db: &Database) -> u64 {
    db.telemetry()
        .metrics
        .counter("engine.index.refinement_effort")
        .expect("the engine registers its refinement counter")
}

/// The one index probe a profiled query made: (effort delta, pieces before,
/// pieces after, probes).
fn probe_of(db: &Database, query: &Query) -> (QueryResult, (u64, u64, u64, u64)) {
    let profile = db.session().explain_profile(query).unwrap();
    let probe = profile
        .trace
        .events
        .iter()
        .find_map(|event| match event {
            SpanEvent::IndexProbe {
                effort_delta,
                pieces_before,
                pieces_after,
                probes,
                ..
            } => Some((*effort_delta, *pieces_before, *pieces_after, *probes)),
            _ => None,
        })
        .expect("the driver probed its index");
    (profile.result, probe)
}

#[test]
fn a_count_only_probe_accounts_like_a_full_probe_and_a_read_accounts_nothing() {
    // two databases in the same state; on one the query only counts, on the
    // other a SUM makes it read every row id while it runs
    let (counting, reading) = (converged(), converged());
    // the first three are deferred; the last, small, is copied by the probe
    for (low, high) in [(5_000, 10_000), (123, 12_345), (-50, 4_200), (777, 778)] {
        let counted = Query::table("t").range("k", low, high);
        let summed = counted.clone().aggregate(Aggregation::Sum, "k");
        let (result, counted_probe) = probe_of(&counting, &counted);
        let (full, full_probe) = probe_of(&reading, &summed);
        assert_eq!(counted_probe, full_probe, "[{low}, {high})");
        assert_eq!(index_info(&counting), index_info(&reading));
        assert_eq!(
            refinement_effort(&counting),
            refinement_effort(&reading),
            "[{low}, {high})"
        );

        // reading the counted answer is no query and no refinement
        let (info, effort) = (index_info(&counting), refinement_effort(&counting));
        let expected: Vec<RowId> = (low.max(0)..high).map(|k| k as RowId).collect();
        assert_eq!(result.row_count(), expected.len());
        assert_eq!(full.row_count(), expected.len());
        let positions = result.positions().as_slice();
        assert!(positions.windows(2).all(|pair| pair[0] < pair[1]));
        let snapshot = result
            .snapshot()
            .column("k")
            .unwrap()
            .as_i64()
            .unwrap()
            .to_vec();
        let mut keys: Vec<RowId> = positions
            .iter()
            .map(|&p| snapshot[p as usize] as RowId)
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, expected);
        assert_eq!(index_info(&counting), info, "a read moved IndexInfo");
        assert_eq!(refinement_effort(&counting), effort);
    }
    let info = index_info(&counting);
    assert!(info.queries > 0 && info.effort > 0);
}
