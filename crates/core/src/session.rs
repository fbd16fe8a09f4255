//! Sessions: cheap, thread-safe handles for running queries and inserts.
//!
//! A [`Session`] is the per-client face of a [`crate::Database`]. Cloning
//! one (or opening more from the database) is a reference-count bump, and
//! every clone can be used from its own thread: queries take a point-in-time
//! snapshot of their table under a read lock, then do all real work —
//! including the adaptive reorganization of the touched column, which the
//! [`crate::IndexManager`] serializes per column — without holding any
//! database-wide lock.

use crate::db::DbInner;
use crate::error::AidxResult;
use crate::executor;
use crate::executor::QueryPlan;
use crate::manager::ColumnId;
use crate::query::{Aggregation, Predicate, Query};
use crate::result::QueryResult;
use crate::strategy::StrategyKind;
use aidx_columnstore::types::{Key, RowId, Value};
use aidx_telemetry::{QueryTrace, TraceRecorder};
use std::sync::Arc;

/// The result of [`Session::explain_profile`]: the query's answer plus the
/// trace of how the engine produced it.
#[derive(Debug)]
pub struct QueryProfile {
    /// The query result, identical to what [`Session::execute`] returns.
    pub result: QueryResult,
    /// The per-query trace: plan, index probe (with refinement effort),
    /// zone-map pruning, residual filters, materialization.
    pub trace: QueryTrace,
}

/// A handle for executing queries and inserts against a
/// [`crate::Database`].
///
/// ```
/// use aidx_core::prelude::*;
///
/// let db = Database::new(StrategyKind::Cracking);
/// db.create_table(
///     "events",
///     Table::from_columns(vec![
///         ("ts", Column::from_i64((0..500).collect())),
///         ("kind", Column::from_i64((0..500).map(|i| i % 4).collect())),
///     ])?,
/// )?;
///
/// let session = db.session();
/// // conjunctive query: the planner drives through one column's adaptive
/// // index and applies the rest as residual filters
/// let result = session
///     .query("events")
///     .range("ts", 100, 300)
///     .in_set("kind", [1, 3])
///     .aggregate(Aggregation::Count, "ts")
///     .execute()?;
/// assert_eq!(result.aggregate(), Some(&Value::Int64(100)));
///
/// // sessions also append rows; update-capable indexes absorb them
/// session.insert_row("events", &[Value::Int64(500), Value::Int64(1)])?;
/// assert_eq!(db.row_count("events")?, 501);
/// # Ok::<(), aidx_core::AidxError>(())
/// ```
#[derive(Clone)]
pub struct Session {
    inner: Arc<DbInner>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("tables", &self.inner.catalog.read().len())
            .finish()
    }
}

impl Session {
    pub(crate) fn new(inner: Arc<DbInner>) -> Self {
        Session { inner }
    }

    /// Start building a query against `table`; finish with
    /// [`QueryBuilder::execute`].
    pub fn query(&self, table: impl Into<Arc<str>>) -> QueryBuilder<'_> {
        QueryBuilder {
            session: self,
            query: Query::table(table),
        }
    }

    /// Execute a prepared [`Query`] with the database's default strategy.
    pub fn execute(&self, query: &Query) -> AidxResult<QueryResult> {
        self.execute_with(query, self.inner.manager.default_strategy())
    }

    /// Execute a prepared [`Query`], creating any missing index with an
    /// explicit strategy (for tuner-driven setups).
    pub fn execute_with(&self, query: &Query, strategy: StrategyKind) -> AidxResult<QueryResult> {
        // sampled tracing: with telemetry enabled, every Nth query runs with
        // a recorder and lands in the database's trace ring. The unsampled
        // path pays one relaxed load plus one relaxed fetch_add — no
        // allocation, no lock.
        if self.inner.telemetry.enabled() && self.inner.observability.sampler.should_sample() {
            let mut recorder = TraceRecorder::new();
            let result = self.execute_traced(query, strategy, Some(&mut recorder))?;
            self.inner.observability.sampler.record(recorder.finish());
            return Ok(result);
        }
        self.execute_traced(query, strategy, None)
    }

    /// Execute `query` and return its answer together with a per-query
    /// trace: the plan, the index probe (strategy, pieces touched and
    /// created, refinement-effort delta), zone-map pruning, every residual
    /// filter, and the materialization — the engine's `EXPLAIN PROFILE`.
    ///
    /// Tracing works regardless of the metrics master switch: the recorder
    /// is allocated for this one query only, so profiling a query on a
    /// telemetry-disabled database still yields a full trace.
    ///
    /// ```
    /// use aidx_core::prelude::*;
    ///
    /// let db = Database::new(StrategyKind::Cracking);
    /// db.create_table(
    ///     "t",
    ///     Table::from_columns(vec![("k", Column::from_i64((0..1000).collect()))])?,
    /// )?;
    /// let session = db.session();
    /// let profile = session.explain_profile(&Query::table("t").range("k", 100, 200))?;
    /// assert_eq!(profile.result.row_count(), 100);
    /// // the first query pays the index build: its refinement effort is
    /// // large, and later queries' traces show it shrinking
    /// assert!(profile.trace.refinement_effort() > 0);
    /// # Ok::<(), aidx_core::AidxError>(())
    /// ```
    pub fn explain_profile(&self, query: &Query) -> AidxResult<QueryProfile> {
        let mut recorder = TraceRecorder::new();
        let result = self.execute_traced(
            query,
            self.inner.manager.default_strategy(),
            Some(&mut recorder),
        )?;
        Ok(QueryProfile {
            result,
            trace: recorder.finish(),
        })
    }

    fn execute_traced(
        &self,
        query: &Query,
        strategy: StrategyKind,
        trace: Option<&mut TraceRecorder>,
    ) -> AidxResult<QueryResult> {
        let snapshot = self.inner.catalog.read().table_snapshot(query.table_name());
        let result = match snapshot {
            Ok((snapshot, epoch)) => executor::execute_on_snapshot(
                snapshot,
                epoch,
                &self.inner.manager,
                query,
                strategy,
                Some(&self.inner.maintenance.hotness),
                Some(&self.inner.telemetry),
                trace,
            ),
            Err(e) => Err(e.into()),
        };
        // if the table is gone by now (dropped before the query, or while it
        // ran), an in-flight query may have re-registered an index after
        // `drop_table`'s cleanup; sweep again so indexes for nonexistent
        // tables cannot pile up (the last straggler to finish converges)
        if self
            .inner
            .catalog
            .read()
            .table_epoch(query.table_name())
            .is_err()
        {
            self.inner.manager.drop_table_indexes(query.table_name());
        }
        result
    }

    /// Show how the planner would execute `query` (driver vs. residual
    /// columns) without running it.
    pub fn explain(&self, query: &Query) -> AidxResult<QueryPlan> {
        let snapshot = self.inner.catalog.read().table_arc(query.table_name())?;
        executor::plan_on_snapshot(&snapshot, &self.inner.manager, query)
    }

    /// Append a row to `table` (one value per column, in schema order):
    /// [`Session::insert_rows`] with one row. Returns its row id.
    pub fn insert_row(&self, table_name: &str, values: &[Value]) -> AidxResult<RowId> {
        self.insert_rows(table_name, &[values.to_vec()])
    }

    /// Append rows to `table` and catch its adaptive indexes up: one that
    /// absorbs inserts stages the rows; any other keeps them as a suffix its
    /// queries scan, until a query or the refresh job folds the suffix in.
    /// No writer drops an index. Returns the row id of the first row.
    ///
    /// Every row is validated against the schema before anything is logged
    /// or applied; then one write-lock acquisition appends them through the
    /// catalog's append-only path: if a snapshot is alive, copy-on-write
    /// clones only the segment tails (all sealed chunks stay shared), the
    /// table keeps its structural epoch, and only the append sub-version
    /// advances — so the index layer sees "same table, newer rows", never a
    /// potential drop/re-create.
    ///
    /// The indexes catch up from the table the rows were appended to, still
    /// under the write lock, so no snapshot outlives the append to make the
    /// next writer's append copy its tail. A column whose latch a query
    /// holds is skipped rather than waited for — one slow reorganization
    /// never stalls the writer, and with it every session — because an index
    /// covers a prefix of its column: the next query on that column catches
    /// it up from its own snapshot.
    ///
    /// With durability configured, the rows are written to the log, as one
    /// chunked batch of records, *before* the catalog applies them (still
    /// under the write lock, so the log order is the apply order). If the
    /// log fails partway through, the rows already logged are applied to
    /// memory — so the running process agrees with what a crash-recovery
    /// replay would rebuild — and the error is returned; a single row thus
    /// reaches either both or neither. The fsync the policy may require
    /// happens after the lock is released, so concurrent committers share
    /// one physical flush.
    pub fn insert_rows(&self, table_name: &str, rows: &[Vec<Value>]) -> AidxResult<RowId> {
        let clock = self.inner.telemetry.clock();
        let (start_row, sync_lsn) = {
            let mut catalog = self.inner.catalog.write();
            let table = catalog.table(table_name)?;
            for row in rows {
                table.validate_row(row)?;
            }
            let start_row = table.row_count() as RowId;
            let sync_lsn = match &self.inner.durability {
                Some(durability) => match durability.log_append(table_name, rows) {
                    Ok(sync_lsn) => sync_lsn,
                    Err((logged, error)) => {
                        catalog
                            .append_rows(table_name, &rows[..logged])
                            .expect("rows were validated above");
                        drop(catalog);
                        return Err(error);
                    }
                },
                None => None,
            };
            catalog
                .append_rows(table_name, rows)
                .expect("rows were validated above");
            let (table, epoch) = (catalog.table(table_name)?, catalog.table_epoch(table_name)?);
            let name: Arc<str> = Arc::from(table_name);
            for (i, field) in table.schema().fields().iter().enumerate() {
                if let Some(keys) = table.column_at(i).and_then(|c| c.as_i64()) {
                    let column_id = ColumnId::new(name.clone(), field.name());
                    self.inner.manager.catch_up(&column_id, keys, epoch);
                }
            }
            (start_row, sync_lsn)
        };
        if let Some(durability) = &self.inner.durability {
            durability.sync_if_requested(sync_lsn)?;
        }
        if let Some(started) = clock {
            self.inner.telemetry.rows_inserted.add(rows.len() as u64);
            self.inner
                .telemetry
                .insert_ns
                .record_duration(started.elapsed());
        }
        Ok(start_row)
    }

    /// Number of rows in `table`.
    pub fn row_count(&self, table: &str) -> AidxResult<usize> {
        Ok(self.inner.catalog.read().table(table)?.row_count())
    }
}

/// A [`Query`] under construction, bound to the [`Session`] that will run
/// it. Mirrors the fluent [`Query`] API and adds [`QueryBuilder::execute`].
#[derive(Debug, Clone)]
pub struct QueryBuilder<'s> {
    session: &'s Session,
    query: Query,
}

impl QueryBuilder<'_> {
    /// Add an arbitrary predicate to the conjunction.
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.query = self.query.filter(predicate);
        self
    }

    /// Add a half-open range predicate `low <= column < high`.
    pub fn range(mut self, column: impl Into<Arc<str>>, low: Key, high: Key) -> Self {
        self.query = self.query.range(column, low, high);
        self
    }

    /// Add an equality predicate `column == key`.
    pub fn point(mut self, column: impl Into<Arc<str>>, key: Key) -> Self {
        self.query = self.query.point(column, key);
        self
    }

    /// Add a membership predicate `column IN keys`.
    pub fn in_set(
        mut self,
        column: impl Into<Arc<str>>,
        keys: impl IntoIterator<Item = Key>,
    ) -> Self {
        self.query = self.query.in_set(column, keys);
        self
    }

    /// Project the named columns, in order.
    pub fn project<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.query = self.query.project(columns);
        self
    }

    /// Aggregate `column` over the qualifying rows.
    pub fn aggregate(mut self, aggregation: Aggregation, column: impl Into<Arc<str>>) -> Self {
        self.query = self.query.aggregate(aggregation, column);
        self
    }

    /// The query built so far (for reuse across sessions).
    pub fn build(self) -> Query {
        self.query
    }

    /// Execute against the bound session.
    pub fn execute(self) -> AidxResult<QueryResult> {
        self.session.execute(&self.query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use aidx_columnstore::column::Column;
    use aidx_columnstore::table::Table;

    fn sales_db(n: i64, strategy: StrategyKind) -> Database {
        let keys: Vec<i64> = (0..n).map(|i| (i * 7919) % n).collect();
        let amounts: Vec<i64> = keys.iter().map(|&k| k % 1000).collect();
        let regions: Vec<i64> = keys.iter().map(|&k| k % 7).collect();
        let labels: Vec<String> = keys.iter().map(|&k| format!("row-{k}")).collect();
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let db = Database::new(strategy);
        db.create_table(
            "sales",
            Table::from_columns(vec![
                ("s_key", Column::from_i64(keys)),
                ("s_amount", Column::from_i64(amounts)),
                ("s_region", Column::from_i64(regions)),
                ("s_label", Column::from_strs(&label_refs)),
            ])
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn selection_with_projection_streams_rows() {
        let db = sales_db(1000, StrategyKind::Cracking);
        let session = db.session();
        let result = session
            .query("sales")
            .range("s_key", 100, 110)
            .project(["s_amount", "s_label"])
            .execute()
            .unwrap();
        assert_eq!(result.row_count(), 10);
        let mut streamed = 0;
        for row in result.rows() {
            assert!(row[0].as_i64().is_some());
            assert!(row[1].as_str().unwrap().starts_with("row-"));
            streamed += 1;
        }
        assert_eq!(streamed, 10);
        assert_eq!(db.indexed_column_count(), 1);
    }

    #[test]
    fn conjunctive_query_agrees_with_reference() {
        let db = sales_db(2000, StrategyKind::Cracking);
        let result = db
            .session()
            .query("sales")
            .range("s_key", 100, 1500)
            .range("s_amount", 0, 500)
            .point("s_region", 3)
            .execute()
            .unwrap();
        for row in db
            .session()
            .query("sales")
            .range("s_key", 100, 1500)
            .range("s_amount", 0, 500)
            .point("s_region", 3)
            .project(["s_key", "s_amount", "s_region"])
            .execute()
            .unwrap()
            .rows()
        {
            assert!((100..1500).contains(&row[0].as_i64().unwrap()));
            assert!((0..500).contains(&row[1].as_i64().unwrap()));
            assert_eq!(row[2], Value::Int64(3));
        }
        assert!(result.row_count() > 0);
    }

    #[test]
    fn prepared_queries_run_on_any_session() {
        let db = sales_db(500, StrategyKind::Cracking);
        let query = Query::table("sales").range("s_key", 10, 20);
        let a = db.session().execute(&query).unwrap();
        let b = db.session().execute(&query).unwrap();
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.row_count(), 10);
    }

    #[test]
    fn execute_with_overrides_the_strategy() {
        let db = sales_db(500, StrategyKind::Cracking);
        let query = Query::table("sales").range("s_key", 0, 100);
        let result = db
            .session()
            .execute_with(&query, StrategyKind::FullSort)
            .unwrap();
        assert_eq!(result.row_count(), 100);
        assert_eq!(db.index_stats()[0].strategy, "full-sort");
    }

    #[test]
    fn explain_reports_driver_and_residuals() {
        let db = sales_db(500, StrategyKind::Cracking);
        let session = db.session();
        let query = Query::table("sales")
            .range("s_key", 0, 400)
            .point("s_region", 2);
        let plan = session.explain(&query).unwrap();
        assert_eq!(plan.driver_column.as_deref(), Some("s_region"));
        assert_eq!(plan.residual_columns, vec!["s_key".to_owned()]);
        assert_eq!(db.indexed_column_count(), 0, "explain builds nothing");
    }

    #[test]
    fn inserts_update_or_drop_indexes_per_strategy() {
        for strategy in [
            StrategyKind::Cracking,
            StrategyKind::UpdatableCracking,
            StrategyKind::FullSort,
        ] {
            let db = sales_db(1000, strategy);
            let session = db.session();
            let before = session
                .query("sales")
                .range("s_key", 0, 1000)
                .execute()
                .unwrap()
                .row_count();
            assert_eq!(before, 1000, "{strategy:?}");
            let row_id = session
                .insert_row(
                    "sales",
                    &[
                        Value::Int64(500),
                        Value::Int64(1),
                        Value::Int64(2),
                        Value::Utf8("row-new".into()),
                    ],
                )
                .unwrap();
            assert_eq!(row_id, 1000);
            let after = session
                .query("sales")
                .range("s_key", 0, 1000)
                .execute()
                .unwrap()
                .row_count();
            assert_eq!(after, 1001, "{strategy:?}");
        }
    }

    #[test]
    fn insert_errors_are_typed() {
        let db = sales_db(100, StrategyKind::Cracking);
        let session = db.session();
        assert!(session.insert_row("nope", &[]).is_err());
        assert!(
            session.insert_row("sales", &[Value::Int64(1)]).is_err(),
            "arity mismatch"
        );
        assert_eq!(session.row_count("sales").unwrap(), 100);
        assert!(format!("{session:?}").contains("Session"));
    }

    #[test]
    fn queries_on_dropped_tables_sweep_straggler_indexes() {
        let db = sales_db(100, StrategyKind::Cracking);
        let session = db.session();
        assert!(db.drop_table("sales"));
        // simulate an in-flight query that re-registered an index after the
        // drop's cleanup already ran
        let column = ColumnId::new("sales", "s_key");
        let _ = db.index_manager().query_range_snapshot(
            &column,
            &[1, 2, 3],
            1,
            0,
            10,
            StrategyKind::Cracking,
        );
        assert_eq!(db.indexed_column_count(), 1);
        // the next query on the dropped table errors AND sweeps the leftover
        assert!(session
            .query("sales")
            .range("s_key", 0, 10)
            .execute()
            .is_err());
        assert_eq!(db.indexed_column_count(), 0, "no index for a dead table");
    }

    #[test]
    fn snapshots_isolate_streaming_readers_from_writers() {
        let db = sales_db(100, StrategyKind::Cracking);
        let session = db.session();
        let result = session
            .query("sales")
            .range("s_key", 0, 100)
            .project(["s_key"])
            .execute()
            .unwrap();
        // a concurrent writer appends while the reader is still streaming
        session
            .insert_row(
                "sales",
                &[
                    Value::Int64(50),
                    Value::Int64(1),
                    Value::Int64(2),
                    Value::Utf8("x".into()),
                ],
            )
            .unwrap();
        // the streamed result still sees exactly its snapshot
        assert_eq!(result.rows().count(), 100);
        assert_eq!(session.row_count("sales").unwrap(), 101);
    }
}
