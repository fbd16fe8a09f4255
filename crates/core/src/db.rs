//! The top-level [`Database`] facade: the kernel's single public entry
//! point.
//!
//! A `Database` owns the catalog and the per-column adaptive index registry
//! behind one `Arc`, and hands out cheaply-cloneable [`Session`] handles
//! that are safe to use from many threads at once. The concurrency design
//! follows the adaptive-indexing concurrency papers: the catalog is guarded
//! by a read/write lock that queries hold only long enough to take a
//! point-in-time table snapshot, while index reorganization — the part of a
//! read query that *writes* — is serialized per column inside the
//! [`IndexManager`], never globally.

use crate::alerts::{self, AlertRuntime};
use crate::durability::{self, CheckpointReport, DurabilityState};
use crate::error::{AidxError, AidxResult};
use crate::health::{self, IndexHealth};
use crate::maintenance::{CompactionReport, MaintenanceState};
use crate::manager::{IndexInfo, IndexManager};
use crate::session::Session;
use crate::strategy::StrategyKind;
use crate::telemetry::{EngineTelemetry, ObservabilityState, TelemetrySnapshot};
use aidx_columnstore::catalog::Catalog;
use aidx_columnstore::error::ColumnStoreError;
use aidx_columnstore::segment::DEFAULT_SEGMENT_CAPACITY;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::RowId;
use aidx_maintenance::{MaintenanceConfig, MaintenanceStatsSnapshot};
use aidx_telemetry::{AlertConfig, AlertEvent, AlertStatus, QueryTrace, Registry, SnapshotDelta};
use aidx_wal::{DurabilityConfig, WalRecord, WalStatsSnapshot, WalTelemetry};
use parking_lot::RwLock;
use std::path::Path;
use std::sync::Arc;

pub(crate) struct DbInner {
    pub(crate) catalog: RwLock<Catalog>,
    pub(crate) manager: IndexManager,
    pub(crate) segment_capacity: usize,
    pub(crate) maintenance: MaintenanceState,
    /// Present when the builder configured [`DurabilityConfig`]; `None`
    /// keeps the kernel a pure in-memory engine with zero logging overhead.
    pub(crate) durability: Option<DurabilityState>,
    /// Engine-wide metrics registry and pre-resolved instrument handles;
    /// the WAL shares the registry and master switch.
    pub(crate) telemetry: EngineTelemetry,
    /// Continuous observability: the every-Nth-query trace sampler and the
    /// snapshot-diffing reporter.
    pub(crate) observability: ObservabilityState,
    /// The alert runtime, when the builder configured
    /// [`DatabaseBuilder::alerts`]; `None` keeps evaluation entirely off the
    /// reporter path.
    pub(crate) alerts: Option<AlertRuntime>,
}

impl DbInner {
    /// One full observability tick: run the reporter (snapshot + diff) and,
    /// when a delta completed, feed it through the alert engine and execute
    /// whatever fired. Every reporter cadence funnels through here — the
    /// explicit [`Database::report_tick`] and the maintenance scheduler's
    /// reporter job — so alert rules see *every* completed interval exactly
    /// once, no matter who drives the clock.
    pub(crate) fn observe_tick(self: &Arc<Self>) -> Option<SnapshotDelta> {
        let delta = self.observability.report_tick(&self.telemetry)?;
        alerts::evaluate_tick(self, &delta);
        Some(delta)
    }
}

/// Configures and builds a [`Database`].
///
/// Besides the indexing strategy, the builder exposes the storage knob: the
/// segment capacity (rows per sealed chunk of every table registered with
/// the database). Invalid settings surface as [`AidxError::Config`] from
/// [`DatabaseBuilder::try_build`].
///
/// ```
/// use aidx_core::prelude::*;
///
/// let db = Database::builder()
///     .default_strategy(StrategyKind::Cracking)
///     .segment_capacity(8192)
///     .try_build()?;
/// assert_eq!(db.default_strategy(), StrategyKind::Cracking);
/// assert_eq!(db.segment_capacity(), 8192);
/// # Ok::<(), aidx_core::AidxError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DatabaseBuilder {
    default_strategy: StrategyKind,
    catalog: Catalog,
    segment_capacity: usize,
    parallelism: usize,
    maintenance: MaintenanceConfig,
    durability: Option<DurabilityConfig>,
    telemetry: bool,
    trace_sampling: u64,
    report_capacity: usize,
    alerts: Option<AlertConfig>,
}

/// Default [`DatabaseBuilder::trace_sampling`] period: trace 1 query in 64.
/// Cheap enough to leave on (the unsampled path is one relaxed `fetch_add`)
/// and dense enough that [`Database::index_health`] has evidence within a
/// few thousand queries.
pub const DEFAULT_TRACE_SAMPLING: u64 = 64;

/// Default [`DatabaseBuilder::report_capacity`]: snapshot deltas retained
/// in the reporter ring.
pub const DEFAULT_REPORT_CAPACITY: usize = 64;

/// Upper bound on [`DatabaseBuilder::parallelism`]: far above any sensible
/// core count, low enough to catch a garbage configuration before it spawns
/// a thread army.
pub const MAX_PARALLELISM: usize = 1024;

/// The builder's default worker count: 1 (the serial kernel), unless the
/// `AIDX_TEST_PARALLELISM` environment variable names a valid worker count —
/// the hook the test suite and CI use to run the *entire* tier-1 suite
/// through the parallel engine without touching every test. An explicit
/// [`DatabaseBuilder::parallelism`] call always wins over the environment.
///
/// # Panics
/// Panics when the variable is set but not a worker count in
/// `1..=`[`MAX_PARALLELISM`]: silently falling back to 1 would let a typo in
/// the CI step re-run the *serial* suite while reporting the parallel run
/// green.
fn default_parallelism() -> usize {
    match std::env::var("AIDX_TEST_PARALLELISM") {
        Err(_) => 1,
        Ok(raw) => raw
            .parse::<usize>()
            .ok()
            .filter(|&n| (1..=MAX_PARALLELISM).contains(&n))
            .unwrap_or_else(|| {
                panic!(
                    "AIDX_TEST_PARALLELISM={raw:?} is not a worker count in \
                     1..={MAX_PARALLELISM}"
                )
            }),
    }
}

impl Default for DatabaseBuilder {
    fn default() -> Self {
        DatabaseBuilder {
            default_strategy: StrategyKind::Cracking,
            catalog: Catalog::new(),
            segment_capacity: DEFAULT_SEGMENT_CAPACITY,
            parallelism: default_parallelism(),
            maintenance: MaintenanceConfig::default(),
            durability: None,
            telemetry: true,
            trace_sampling: DEFAULT_TRACE_SAMPLING,
            report_capacity: DEFAULT_REPORT_CAPACITY,
            alerts: None,
        }
    }
}

impl DatabaseBuilder {
    /// The indexing strategy used for every column that queries touch
    /// (defaults to [`StrategyKind::Cracking`]).
    pub fn default_strategy(mut self, strategy: StrategyKind) -> Self {
        self.default_strategy = strategy;
        self
    }

    /// Start from an existing catalog instead of an empty one. Its tables
    /// are re-chunked to the configured segment capacity at build time.
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Rows per sealed chunk for every table registered with this database
    /// (defaults to [`DEFAULT_SEGMENT_CAPACITY`]). Smaller chunks mean
    /// cheaper copy-on-write appends and finer zone-map pruning; larger
    /// chunks mean less per-chunk bookkeeping on scans.
    pub fn segment_capacity(mut self, rows_per_chunk: usize) -> Self {
        self.segment_capacity = rows_per_chunk;
        self
    }

    /// Fork/join workers for query execution (defaults to 1 = the serial
    /// kernel). With `n > 1`, scans and residual filters fan chunks out
    /// across `n` workers. Every column still has exactly one adaptive
    /// index, built by the query that first touches it and refined under
    /// the column's latch, so readers of one column serialise on it at any
    /// setting. Results and index statistics are identical to the serial
    /// engine at any setting; must stay in `1..=`[`MAX_PARALLELISM`]
    /// (validated by [`DatabaseBuilder::try_build`]).
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Configure the background maintenance subsystem: the per-tick row
    /// budget, the chunk-fill threshold below which sealed chunks count as
    /// fragments, and whether a dedicated background thread runs ticks
    /// continuously (default: off — maintenance then runs only through
    /// [`Database::compact`] / [`Database::maintenance_tick`]). Invalid
    /// settings surface as [`AidxError::Config`] from
    /// [`DatabaseBuilder::try_build`].
    pub fn maintenance(mut self, config: MaintenanceConfig) -> Self {
        self.maintenance = config;
        self
    }

    /// Make the database durable: write-ahead log every logical change
    /// (creates, drops, appends) under the configured fsync policy,
    /// checkpoint sealed chunks in the background, and recover the catalog
    /// from the configured directory at build time when it already holds
    /// state. Adaptive index state is deliberately *not* persisted — queries
    /// re-derive it, so recovery replays data only and restarts with zero
    /// indexes. Invalid settings surface as [`AidxError::Config`] from
    /// [`DatabaseBuilder::try_build`]; opening a directory that already
    /// holds state with a non-empty seeded catalog is likewise rejected.
    pub fn durability(mut self, config: DurabilityConfig) -> Self {
        self.durability = Some(config);
        self
    }

    /// Whether the engine records metrics (defaults to `true`). Disabled,
    /// every recording site pays exactly one relaxed atomic load per
    /// operation; the registry and its instruments still exist, so
    /// [`Database::set_telemetry_enabled`] can flip recording on later
    /// without restarting.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Trace every `every`-th query into the sampled-trace ring (defaults
    /// to [`DEFAULT_TRACE_SAMPLING`]; `0` disables sampling). The unsampled
    /// path costs one relaxed `fetch_add` and never allocates; sampled
    /// queries pay the same recorder [`Session::explain_profile`] uses.
    /// Sampling respects the telemetry master switch: a disabled database
    /// samples nothing.
    pub fn trace_sampling(mut self, every: u64) -> Self {
        self.trace_sampling = every;
        self
    }

    /// Snapshot deltas the reporter ring retains (defaults to
    /// [`DEFAULT_REPORT_CAPACITY`]; must be at least 1 — validated by
    /// [`DatabaseBuilder::try_build`]).
    pub fn report_capacity(mut self, deltas: usize) -> Self {
        self.report_capacity = deltas;
        self
    }

    /// Enable the closed-loop alert engine: declarative rules evaluated
    /// against every completed reporter interval (explicit
    /// [`Database::report_tick`] calls and the maintenance scheduler's
    /// reporter job alike), with a bounded event journal and self-healing
    /// actions — a firing rule can force-rebuild a stalled column under a
    /// convergent strategy or arm an eager compaction pass. Start from
    /// [`crate::alerts::default_alert_config`] for a sensible rule set, or
    /// build an [`AlertConfig`] rule by rule. Invalid settings (empty or
    /// duplicate rule names, a quantile outside `0..=1`, a zero journal)
    /// surface as [`AidxError::Config`] from [`DatabaseBuilder::try_build`].
    pub fn alerts(mut self, config: AlertConfig) -> Self {
        self.alerts = Some(config);
        self
    }

    fn validate(&self) -> AidxResult<()> {
        if self.segment_capacity == 0 {
            return Err(AidxError::config(
                "segment_capacity",
                "must be at least 1 row per chunk",
            ));
        }
        if self.segment_capacity > RowId::MAX as usize {
            return Err(AidxError::config(
                "segment_capacity",
                format!("must not exceed the row-id domain ({})", RowId::MAX),
            ));
        }
        if let StrategyKind::AdaptiveMerging { run_size: 0 } = self.default_strategy {
            return Err(AidxError::config(
                "default_strategy",
                "AdaptiveMerging run_size must be at least 1",
            ));
        }
        if !(1..=MAX_PARALLELISM).contains(&self.parallelism) {
            return Err(AidxError::config(
                "parallelism",
                format!("must be between 1 and {MAX_PARALLELISM} workers"),
            ));
        }
        if let Err(message) = self.maintenance.validate() {
            return Err(AidxError::config("maintenance", message));
        }
        if self.report_capacity == 0 {
            return Err(AidxError::config(
                "report_capacity",
                "must retain at least 1 snapshot delta",
            ));
        }
        if let Some(config) = &self.durability {
            if let Err((parameter, reason)) = config.validate() {
                return Err(AidxError::config(format!("durability.{parameter}"), reason));
            }
        }
        if let Some(config) = &self.alerts {
            if let Err((parameter, reason)) = alerts::validate_config(config) {
                return Err(AidxError::config(parameter, reason));
            }
        }
        Ok(())
    }

    /// Build the database, validating the configuration. With
    /// [`DatabaseBuilder::durability`] configured, this is also the recovery
    /// entry point: an existing durable directory is loaded (latest complete
    /// checkpoint plus log-suffix replay) before the database starts serving.
    pub fn try_build(self) -> AidxResult<Database> {
        self.validate()?;
        let telemetry = EngineTelemetry::new(self.telemetry);
        let mut catalog = self.catalog;
        let durability = match self.durability {
            Some(config) => Some(durability::open_durable(
                config,
                &mut catalog,
                self.segment_capacity,
                Some(WalTelemetry::register(
                    telemetry.registry(),
                    telemetry.enabled_flag(),
                )),
            )?),
            None => None,
        };
        let recovered = durability.as_ref().is_some_and(|outcome| outcome.recovered);
        if !recovered {
            // re-chunk seeded tables to the configured capacity (recovery
            // already rebuilds every table at that capacity)
            let names: Vec<String> = catalog
                .table_names()
                .iter()
                .map(|s| s.to_string())
                .collect();
            for name in names {
                let rechunked = catalog
                    .table(&name)?
                    .with_segment_capacity(self.segment_capacity);
                catalog.drop_table(&name);
                catalog
                    .create_table(name, rechunked)
                    .expect("name was just freed");
            }
        }
        let inner = Arc::new(DbInner {
            catalog: RwLock::new(catalog),
            manager: IndexManager::with_pool(
                self.default_strategy,
                Arc::new(aidx_parallel::ThreadPool::new(self.parallelism)),
            ),
            segment_capacity: self.segment_capacity,
            maintenance: MaintenanceState::new(self.maintenance),
            durability: durability.map(|outcome| outcome.state),
            telemetry,
            observability: ObservabilityState::new(self.trace_sampling, self.report_capacity),
            alerts: self.alerts.map(AlertRuntime::new),
        });
        // jobs hold a Weak back-reference, so this must happen after the Arc
        // exists (and spawns the background thread when configured)
        MaintenanceState::attach(&inner);
        Ok(Database { inner })
    }

    /// Build the database.
    ///
    /// # Panics
    /// Panics when the configuration is invalid (use
    /// [`DatabaseBuilder::try_build`] to handle [`AidxError::Config`]
    /// gracefully).
    pub fn build(self) -> Database {
        self.try_build()
            .expect("invalid DatabaseBuilder configuration")
    }
}

/// An in-memory adaptive-indexing database.
///
/// The `Database` is the only object an application needs: register tables,
/// open [`Session`]s, fire queries — the adaptive indexes build and refine
/// themselves as a side effect of query execution. Cloning a `Database` (or
/// opening a `Session`) is a reference-count bump; all clones share the same
/// catalog and index registry.
///
/// ```
/// use aidx_core::prelude::*;
///
/// let db = Database::builder().default_strategy(StrategyKind::Cracking).build();
/// db.create_table(
///     "orders",
///     Table::from_columns(vec![
///         ("o_key", Column::from_i64((0..1000).rev().collect())),
///         ("o_value", Column::from_i64((0..1000).collect())),
///     ])?,
/// )?;
///
/// let session = db.session();
/// let result = session
///     .query("orders")
///     .range("o_key", 100, 200)
///     .project(["o_value"])
///     .execute()?;
/// assert_eq!(result.row_count(), 100);
/// for row in result.rows() {
///     assert!(row[0].as_i64().is_some());
/// }
/// // the queried column is now (partially) indexed; nothing else is
/// assert_eq!(db.indexed_column_count(), 1);
/// # Ok::<(), aidx_core::AidxError>(())
/// ```
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.inner.catalog.read().len())
            .field("manager", &self.inner.manager)
            .finish()
    }
}

impl Database {
    /// Start configuring a database.
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder::default()
    }

    /// A database with the given default strategy and an empty catalog.
    pub fn new(default_strategy: StrategyKind) -> Self {
        Database::builder()
            .default_strategy(default_strategy)
            .build()
    }

    /// Open (or create) a durable database rooted at `dir` with the default
    /// [`DurabilityConfig`]: shorthand for
    /// `Database::builder().durability(DurabilityConfig::at(dir)).try_build()`.
    /// When `dir` already holds a log and checkpoints, the catalog is
    /// recovered from them; adaptive indexes are re-derived lazily by the
    /// first queries, never read from disk.
    pub fn open(dir: impl AsRef<Path>) -> AidxResult<Self> {
        Database::builder()
            .durability(DurabilityConfig::at(dir.as_ref()))
            .try_build()
    }

    /// Register a table under `name`, re-chunking its columns to the
    /// database's configured segment capacity. Fails if the name is taken.
    /// With durability configured, the table's schema and rows are logged
    /// before the catalog publishes it; on an I/O error nothing is applied.
    pub fn create_table(&self, name: impl Into<String>, table: Table) -> AidxResult<()> {
        let name = name.into();
        // unconditional: per-column capacities may disagree with each other,
        // and with_segment_capacity is a cheap chunk-sharing clone for every
        // column already at the target capacity
        let table = table.with_segment_capacity(self.inner.segment_capacity);
        let sync_lsn = {
            let mut catalog = self.inner.catalog.write();
            if let Some(durability) = &self.inner.durability {
                // check the name *before* logging, so a duplicate create
                // leaves no orphan records in the log
                if catalog.table(name.as_str()).is_ok() {
                    return Err(ColumnStoreError::AlreadyExists {
                        kind: "table",
                        name: name.clone(),
                    }
                    .into());
                }
                let fields = table
                    .schema()
                    .fields()
                    .iter()
                    .map(|f| (f.name().to_owned(), f.data_type()))
                    .collect();
                let (_, requested) = durability
                    .wal
                    .append(&WalRecord::CreateTable {
                        name: name.clone(),
                        fields,
                    })
                    .map_err(AidxError::from)?;
                let mut sync_lsn = requested;
                if !table.is_empty() {
                    let rows = durability::table_rows(&table);
                    match durability.log_append(name.as_str(), &rows) {
                        Ok(requested) => sync_lsn = requested.or(sync_lsn),
                        // the log now holds the create plus a row prefix;
                        // publish exactly that prefix so memory and a later
                        // replay agree, then report the failure
                        Err((logged, error)) => {
                            let mut prefix = Table::new_with_segment_capacity(
                                table.schema().clone(),
                                self.inner.segment_capacity,
                            );
                            prefix
                                .append_rows(&rows[..logged])
                                .expect("rows came from a valid table");
                            catalog
                                .create_table(name.as_str(), prefix)
                                .expect("name checked free above");
                            return Err(error);
                        }
                    }
                }
                catalog
                    .create_table(name.as_str(), table)
                    .expect("name checked free above");
                sync_lsn
            } else {
                catalog.create_table(name.as_str(), table)?;
                None
            }
        };
        if let Some(durability) = &self.inner.durability {
            durability.sync_if_requested(sync_lsn)?;
        }
        // an in-flight query of a previously dropped table with this name
        // may have re-registered a stale index after `drop_table` cleaned
        // up; clear again so the new incarnation starts fresh (the epoch
        // guard in the manager catches any later stragglers)
        self.inner.manager.drop_table_indexes(&name);
        self.inner.maintenance.hotness.forget_table(&name);
        Ok(())
    }

    /// Drop a table and every adaptive index on its columns; returns `true`
    /// if the table existed. With durability configured, the drop is logged
    /// before it applies; if logging fails the table survives and this
    /// returns `false` (the infallible signature cannot carry the error —
    /// [`Database::wal_stats`] and a retry tell the caller more).
    pub fn drop_table(&self, name: &str) -> bool {
        let (dropped, sync_lsn) = {
            let mut catalog = self.inner.catalog.write();
            if let Some(durability) = &self.inner.durability {
                if catalog.table(name).is_err() {
                    (false, None)
                } else {
                    match durability.wal.append(&WalRecord::DropTable {
                        name: name.to_owned(),
                    }) {
                        Ok((_, requested)) => {
                            catalog.drop_table(name);
                            // the dropped rows stay on disk until a
                            // checkpoint without the table supersedes them
                            durability.note_drop();
                            (true, requested)
                        }
                        Err(_) => (false, None),
                    }
                }
            } else {
                (catalog.drop_table(name).is_some(), None)
            }
        };
        if let Some(durability) = &self.inner.durability {
            // best-effort: the boolean cannot carry a sync failure, and the
            // drop is already applied; the next logged write will re-request
            let _ = durability.sync_if_requested(sync_lsn);
        }
        if dropped {
            self.inner.manager.drop_table_indexes(name);
            self.inner.maintenance.hotness.forget_table(name);
        }
        dropped
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.inner
            .catalog
            .read()
            .table_names()
            .into_iter()
            .map(str::to_owned)
            .collect()
    }

    /// Number of rows in `table`.
    pub fn row_count(&self, table: &str) -> AidxResult<usize> {
        Ok(self.inner.catalog.read().table(table)?.row_count())
    }

    /// A point-in-time snapshot of `table`: an `O(1)` reference-count bump
    /// that stays readable (and frozen) while writers keep appending.
    /// Because tables are chunked segments, a writer that appends while the
    /// snapshot is alive copies only each column's mutable tail; all sealed
    /// chunks stay shared with this snapshot.
    pub fn table_snapshot(&self, table: &str) -> AidxResult<Arc<Table>> {
        Ok(self.inner.catalog.read().table_arc(table)?)
    }

    /// Open a session: a cheap, thread-safe handle for running queries and
    /// inserts against this database.
    pub fn session(&self) -> Session {
        Session::new(Arc::clone(&self.inner))
    }

    /// The strategy used for columns without an explicit override.
    pub fn default_strategy(&self) -> StrategyKind {
        self.inner.manager.default_strategy()
    }

    /// Rows per sealed chunk for tables registered with this database.
    pub fn segment_capacity(&self) -> usize {
        self.inner.segment_capacity
    }

    /// Fork/join workers queries execute with (1 = the serial kernel; more
    /// enables chunk-parallel scans and residual filters).
    pub fn parallelism(&self) -> usize {
        self.inner.manager.parallelism()
    }

    /// Bookkeeping for every adaptive index (which columns ended up indexed,
    /// effort spent, auxiliary memory, convergence), sorted by column.
    pub fn index_stats(&self) -> Vec<IndexInfo> {
        self.inner.manager.describe()
    }

    /// Number of columns currently indexed.
    pub fn indexed_column_count(&self) -> usize {
        self.inner.manager.indexed_column_count()
    }

    /// Cumulative machine-independent work performed by all indexes.
    pub fn total_effort(&self) -> u64 {
        self.inner.manager.total_effort()
    }

    /// Total auxiliary memory across all indexes, in bytes.
    pub fn total_auxiliary_bytes(&self) -> usize {
        self.inner.manager.total_auxiliary_bytes()
    }

    /// Direct access to the index manager (advanced: per-query strategy
    /// overrides, tuner-driven rebuilds).
    pub fn index_manager(&self) -> &IndexManager {
        &self.inner.manager
    }

    /// Run background maintenance to completion, synchronously: merge every
    /// eligible run of undersized chunks (hottest columns first), reconcile
    /// the affected adaptive indexes onto the compacted tables, and refresh
    /// any stale indexes. Returns what was done.
    ///
    /// This is the deterministic, test- and batch-friendly face of the
    /// subsystem; with [`MaintenanceConfig::background`] set, the same work
    /// happens incrementally on a dedicated thread.
    ///
    /// ```
    /// use aidx_core::prelude::*;
    ///
    /// let db = Database::builder().segment_capacity(64).build();
    /// db.create_table(
    ///     "t",
    ///     Table::from_columns(vec![("k", Column::from_i64((0..256).collect()))])?,
    /// )?;
    /// let session = db.session();
    /// // churn: every insert under a live snapshot seals the tail early,
    /// // fragmenting the column into undersized chunks
    /// for i in 0..64 {
    ///     let _snapshot = db.table_snapshot("t")?;
    ///     session.insert_row("t", &[Value::Int64(256 + i)])?;
    /// }
    /// let report = db.compact();
    /// assert!(report.rows_merged > 0);
    /// assert!(report.chunks_removed > 0);
    /// # Ok::<(), aidx_core::AidxError>(())
    /// ```
    pub fn compact(&self) -> CompactionReport {
        let before = self.inner.maintenance.stats.snapshot();
        let budget = self.inner.maintenance.config.budget_rows_per_tick;
        // bounded backstop: every productive tick merges at least one chunk,
        // so a loop this long only means the budget cannot make progress
        for _ in 0..10_000 {
            if self.inner.maintenance.run_tick(budget).units == 0 {
                break;
            }
        }
        let after = self.inner.maintenance.stats.snapshot();
        CompactionReport {
            rows_merged: after.rows_compacted - before.rows_compacted,
            chunks_removed: after.chunks_removed - before.chunks_removed,
            compactions_published: after.compactions_published - before.compactions_published,
            indexes_reconciled: after.indexes_reconciled - before.indexes_reconciled,
            ticks: after.ticks - before.ticks,
        }
    }

    /// Run exactly one budgeted maintenance tick (the increment the
    /// background thread runs per interval); returns the rows it processed.
    /// Useful for deterministic interleaving in tests and for embedders that
    /// want to drive maintenance between queries themselves.
    pub fn maintenance_tick(&self) -> usize {
        self.inner
            .maintenance
            .run_tick(self.inner.maintenance.config.budget_rows_per_tick)
            .units
    }

    /// Cumulative maintenance counters: ticks, rows compacted, chunks
    /// removed, indexes reconciled across compactions, indexes refreshed in
    /// the background.
    pub fn maintenance_stats(&self) -> MaintenanceStatsSnapshot {
        self.inner.maintenance.stats.snapshot()
    }

    /// The maintenance configuration this database was built with.
    pub fn maintenance_config(&self) -> &MaintenanceConfig {
        &self.inner.maintenance.config
    }

    /// The durability configuration, when the database is durable.
    pub fn durability_config(&self) -> Option<&DurabilityConfig> {
        self.inner.durability.as_ref().map(|d| &d.config)
    }

    /// Write a checkpoint now: snapshot every table (sealed chunks and
    /// tails) plus the catalog manifest to the checkpoint directory, then
    /// truncate the log up to the covered LSN. Returns `Ok(None)` when there
    /// is nothing to cover yet, and [`AidxError::Config`] when the database
    /// is not durable. The background maintenance scheduler runs the same
    /// protocol on its own once enough rows accumulate
    /// ([`DurabilityConfig::checkpoint_after_rows`]) or a table is dropped.
    pub fn checkpoint(&self) -> AidxResult<Option<CheckpointReport>> {
        if self.inner.durability.is_none() {
            return Err(AidxError::config(
                "durability",
                "checkpoint requires a durable database (DatabaseBuilder::durability)",
            ));
        }
        durability::run_checkpoint(&self.inner)
    }

    /// Write-ahead log counters (records and rows appended, physical fsyncs
    /// vs fsyncs absorbed by group commit, file rotations), when the
    /// database is durable.
    pub fn wal_stats(&self) -> Option<WalStatsSnapshot> {
        self.inner.durability.as_ref().map(|d| d.wal.stats())
    }

    /// A point-in-time snapshot of every engine metric: query and insert
    /// latencies, refinement effort, zone-map pruning, maintenance job
    /// durations, and (on durable databases) WAL append/fsync latencies.
    /// Serde-serializable; metric names are stable API.
    ///
    /// ```
    /// use aidx_core::prelude::*;
    ///
    /// let db = Database::new(StrategyKind::Cracking);
    /// db.create_table(
    ///     "t",
    ///     Table::from_columns(vec![("k", Column::from_i64((0..100).collect()))])?,
    /// )?;
    /// db.session().query("t").range("k", 10, 20).execute()?;
    /// let snapshot = db.telemetry();
    /// assert_eq!(snapshot.metrics.counter("engine.queries_served"), Some(1));
    /// assert_eq!(snapshot.metrics.histogram("engine.query_ns").unwrap().count, 1);
    /// # Ok::<(), aidx_core::AidxError>(())
    /// ```
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.inner.telemetry.snapshot()
    }

    /// Flip metric recording on or off at runtime (counters freeze rather
    /// than reset while disabled). Affects passive metrics only;
    /// [`Session::explain_profile`] traces regardless.
    pub fn set_telemetry_enabled(&self, enabled: bool) {
        self.inner.telemetry.set_enabled(enabled);
    }

    /// Whether metric recording is currently enabled.
    pub fn telemetry_enabled(&self) -> bool {
        self.inner.telemetry.enabled()
    }

    /// Run one reporter tick now: snapshot every engine metric and diff it
    /// against the previous tick's snapshot. The first tick primes the
    /// baseline and returns `None`; every later tick returns the interval's
    /// [`SnapshotDelta`] (per-counter deltas and rates, *windowed*
    /// histogram quantiles, gauge levels), which is also retained in the
    /// reporter ring ([`Database::recent_reports`]).
    ///
    /// The maintenance scheduler runs the same tick as its fourth job, so a
    /// database with [`MaintenanceConfig::background`] set reports
    /// continuously without anyone calling this.
    ///
    /// ```
    /// use aidx_core::prelude::*;
    ///
    /// let db = Database::new(StrategyKind::Cracking);
    /// db.create_table(
    ///     "t",
    ///     Table::from_columns(vec![("k", Column::from_i64((0..100).collect()))])?,
    /// )?;
    /// assert!(db.report_tick().is_none(), "first tick primes");
    /// db.session().query("t").range("k", 10, 20).execute()?;
    /// let delta = db.report_tick().expect("second tick diffs");
    /// assert_eq!(delta.counter_delta("engine.queries_served"), Some(1));
    /// # Ok::<(), aidx_core::AidxError>(())
    /// ```
    pub fn report_tick(&self) -> Option<SnapshotDelta> {
        self.inner.observe_tick()
    }

    /// Recent reporter intervals, oldest first (bounded by
    /// [`DatabaseBuilder::report_capacity`]).
    pub fn recent_reports(&self) -> Vec<SnapshotDelta> {
        self.inner.observability.recent_reports()
    }

    /// The most recent reporter interval, if one has completed.
    pub fn latest_report(&self) -> Option<SnapshotDelta> {
        self.inner.observability.latest_report()
    }

    /// Recent sampled query traces, oldest first (see
    /// [`DatabaseBuilder::trace_sampling`]).
    pub fn recent_traces(&self) -> Vec<QueryTrace> {
        self.inner.observability.recent_traces()
    }

    /// The slowest sampled traces since startup, slowest first.
    pub fn slowest_traces(&self) -> Vec<QueryTrace> {
        self.inner.observability.slowest_traces()
    }

    /// The configured trace-sampling period (`0` = sampling disabled).
    pub fn trace_sampling(&self) -> u64 {
        self.inner.observability.sampler.every()
    }

    /// Per-column index health: cumulative effort from the index registry
    /// joined with the windowed effort visible in the sampled-trace ring,
    /// labelled with a convergence verdict (converging / converged /
    /// stalled / regressing). The live form of the paper's Figure-1 curve —
    /// a stalled or regressing column is one whose workload defeats
    /// adaptive indexing (e.g. strictly sequential ranges) and deserves a
    /// strategy change or a tuner-driven rebuild.
    pub fn index_health(&self) -> Vec<IndexHealth> {
        health::derive_index_health(
            &self.inner.manager.describe(),
            &self.inner.observability.recent_traces(),
        )
    }

    /// Current per-rule alert states (one entry per configured rule, in
    /// rule order): idle / pending / firing, consecutive breach and healthy
    /// interval counts, the last breach observation, and how many times the
    /// rule has fired. Empty when alerting is not configured.
    pub fn alert_status(&self) -> Vec<AlertStatus> {
        self.inner
            .alerts
            .as_ref()
            .map(AlertRuntime::status)
            .unwrap_or_default()
    }

    /// The alert event journal, oldest first (bounded by
    /// [`AlertConfig::journal_capacity`]): every pending / firing / resolved
    /// / cancelled transition with the reporter tick it happened on. Empty
    /// when alerting is not configured.
    pub fn alert_events(&self) -> Vec<AlertEvent> {
        self.inner
            .alerts
            .as_ref()
            .map(AlertRuntime::events)
            .unwrap_or_default()
    }

    /// The alert configuration this database was built with, when alerting
    /// is enabled.
    pub fn alert_config(&self) -> Option<&AlertConfig> {
        self.inner.alerts.as_ref().map(|a| &a.config)
    }

    /// The engine's metrics registry, shared: a front-end (like the TCP
    /// server) that instruments itself on this registry gets its counters
    /// into the engine's reporter deltas — and therefore in front of the
    /// alert rules — instead of keeping a private, invisible registry.
    pub fn metrics_registry(&self) -> Arc<Registry> {
        self.inner.telemetry.registry_arc()
    }

    /// The operator's one-call console view: the latest reporter interval
    /// (rates and windowed quantiles) followed by one health line per
    /// indexed column.
    pub fn report_text(&self) -> String {
        let mut out = match self.latest_report() {
            Some(delta) => delta.render_text(),
            None => "no completed reporter interval yet\n".to_owned(),
        };
        out.push_str(&health::render_index_health(&self.index_health()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_columnstore::column::Column;

    fn orders_table(n: i64) -> Table {
        let keys: Vec<i64> = (0..n).map(|i| (i * 7919) % n).collect();
        let values: Vec<i64> = keys.iter().map(|&k| k * 2).collect();
        Table::from_columns(vec![
            ("o_key", Column::from_i64(keys)),
            ("o_value", Column::from_i64(values)),
        ])
        .unwrap()
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let db = Database::builder().build();
        assert_eq!(db.default_strategy(), StrategyKind::Cracking);
        let db = Database::new(StrategyKind::FullSort);
        assert_eq!(db.default_strategy(), StrategyKind::FullSort);
        assert!(db.table_names().is_empty());
    }

    #[test]
    fn create_query_drop_lifecycle() {
        let db = Database::new(StrategyKind::Cracking);
        db.create_table("orders", orders_table(1000)).unwrap();
        assert!(db.create_table("orders", orders_table(10)).is_err());
        assert_eq!(db.table_names(), vec!["orders".to_owned()]);
        assert_eq!(db.row_count("orders").unwrap(), 1000);
        assert!(db.row_count("nope").is_err());

        let result = db
            .session()
            .query("orders")
            .range("o_key", 0, 100)
            .execute();
        assert_eq!(result.unwrap().row_count(), 100);
        assert_eq!(db.indexed_column_count(), 1);
        assert!(db.total_effort() > 0);
        assert!(db.total_auxiliary_bytes() > 0);
        assert_eq!(db.index_stats().len(), 1);

        assert!(db.drop_table("orders"));
        assert!(!db.drop_table("orders"));
        assert_eq!(db.indexed_column_count(), 0, "indexes die with the table");
    }

    #[test]
    fn recreated_table_never_serves_stale_index_data() {
        let db = Database::new(StrategyKind::Cracking);
        db.create_table("t", orders_table(1000)).unwrap();
        let session = db.session();
        // build an index on the first incarnation
        assert_eq!(
            session
                .query("t")
                .range("o_key", 0, 1000)
                .execute()
                .unwrap()
                .row_count(),
            1000
        );
        assert!(db.drop_table("t"));
        // same name, same row count, completely different contents
        let shifted: Vec<i64> = (0..1000).map(|i| i + 10_000).collect();
        let values: Vec<i64> = shifted.clone();
        db.create_table(
            "t",
            Table::from_columns(vec![
                ("o_key", Column::from_i64(shifted)),
                ("o_value", Column::from_i64(values)),
            ])
            .unwrap(),
        )
        .unwrap();
        // old key range must be empty now; new key range must hit
        let old = session
            .query("t")
            .range("o_key", 0, 1000)
            .execute()
            .unwrap();
        assert!(old.is_empty(), "stale index data must not leak");
        let new = session
            .query("t")
            .range("o_key", 10_000, 11_000)
            .execute()
            .unwrap();
        assert_eq!(new.row_count(), 1000);
    }

    #[test]
    fn builder_validates_configuration() {
        let err = Database::builder().segment_capacity(0).try_build();
        assert!(matches!(err, Err(AidxError::Config { .. })), "{err:?}");
        let err = Database::builder()
            .default_strategy(StrategyKind::AdaptiveMerging { run_size: 0 })
            .try_build();
        assert!(matches!(err, Err(AidxError::Config { .. })));
        assert!(Database::builder().segment_capacity(1).try_build().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid DatabaseBuilder configuration")]
    fn infallible_build_panics_on_invalid_config() {
        let _ = Database::builder().segment_capacity(0).build();
    }

    #[test]
    fn builder_exposes_storage_and_tuning_knobs() {
        let db = Database::builder()
            .segment_capacity(128)
            .try_build()
            .unwrap();
        assert_eq!(db.segment_capacity(), 128);
        // registered tables are re-chunked to the configured capacity
        db.create_table("t", orders_table(1000)).unwrap();
        let snapshot = db.inner.catalog.read().table_arc("t").unwrap();
        assert_eq!(snapshot.segment_capacity(), 128);
        assert_eq!(
            snapshot
                .column("o_key")
                .unwrap()
                .as_i64()
                .unwrap()
                .sealed_chunk_count(),
            1000 / 128
        );
        // queries over the re-chunked table still answer correctly
        let result = db
            .session()
            .query("t")
            .range("o_key", 0, 100)
            .execute()
            .unwrap();
        assert_eq!(result.row_count(), 100);
    }

    #[test]
    fn parallelism_is_validated_and_exposed() {
        let err = Database::builder().parallelism(0).try_build();
        assert!(matches!(err, Err(AidxError::Config { .. })), "{err:?}");
        let err = Database::builder()
            .parallelism(MAX_PARALLELISM + 1)
            .try_build();
        assert!(matches!(err, Err(AidxError::Config { .. })));
        let db = Database::builder().parallelism(4).try_build().unwrap();
        assert_eq!(db.parallelism(), 4);
        assert_eq!(db.index_manager().parallelism(), 4);
    }

    #[test]
    fn parallel_engine_answers_exactly_like_the_serial_engine() {
        let serial = Database::builder()
            .parallelism(1)
            .segment_capacity(128)
            .try_build()
            .unwrap();
        let parallel = Database::builder()
            .parallelism(4)
            .segment_capacity(128)
            .try_build()
            .unwrap();
        for db in [&serial, &parallel] {
            db.create_table("orders", orders_table(5000)).unwrap();
        }
        for q in 0..30 {
            let low = (q * 311) % 4500;
            let a = serial
                .session()
                .query("orders")
                .range("o_key", low, low + 400)
                .execute()
                .unwrap();
            let b = parallel
                .session()
                .query("orders")
                .range("o_key", low, low + 400)
                .execute()
                .unwrap();
            assert_eq!(a.positions(), b.positions(), "query {q}");
        }
        // through the same one index per column
        assert_eq!(serial.index_stats(), parallel.index_stats());
    }

    #[test]
    fn maintenance_config_is_validated() {
        let err = Database::builder()
            .maintenance(aidx_maintenance::MaintenanceConfig {
                budget_rows_per_tick: 0,
                ..Default::default()
            })
            .try_build();
        assert!(matches!(err, Err(AidxError::Config { .. })), "{err:?}");
        let err = Database::builder()
            .maintenance(aidx_maintenance::MaintenanceConfig {
                min_chunk_fill: 2.0,
                ..Default::default()
            })
            .try_build();
        assert!(matches!(err, Err(AidxError::Config { .. })));
        let db = Database::builder()
            .maintenance(aidx_maintenance::MaintenanceConfig {
                budget_rows_per_tick: 1024,
                ..Default::default()
            })
            .try_build()
            .unwrap();
        assert_eq!(db.maintenance_config().budget_rows_per_tick, 1024);
        assert!(!db.maintenance_stats().background_attached);
    }

    /// Churn a table with inserts under live snapshots so every append
    /// seals the tail early and fragments the column.
    fn churn(db: &Database, table: &str, inserts: i64) {
        let session = db.session();
        for i in 0..inserts {
            let _snapshot = db.table_snapshot(table).unwrap();
            session
                .insert_row(table, &[Value::Int64(10_000 + i), Value::Int64(i)])
                .unwrap();
        }
    }

    use aidx_columnstore::types::Value;

    #[test]
    fn compact_restores_chunk_count_and_preserves_answers() {
        let db = Database::builder()
            .segment_capacity(64)
            .try_build()
            .unwrap();
        db.create_table("orders", orders_table(512)).unwrap();
        churn(&db, "orders", 512);
        let fragmented = db.table_snapshot("orders").unwrap();
        let frag_chunks = fragmented
            .column("o_key")
            .unwrap()
            .as_i64()
            .unwrap()
            .sealed_chunk_count();
        let rows = fragmented.row_count();
        let ideal = rows.div_ceil(64);
        assert!(
            frag_chunks >= 8 * ideal,
            "churn must fragment at least 8x over ideal ({frag_chunks} vs {ideal})"
        );
        let reference: Vec<_> = db
            .session()
            .query("orders")
            .range("o_key", 100, 400)
            .execute()
            .unwrap()
            .positions()
            .clone()
            .into_vec();

        let report = db.compact();
        assert!(report.rows_merged > 0);
        assert!(report.chunks_removed > 0);
        assert!(report.compactions_published > 0);
        let stats = db.maintenance_stats();
        assert_eq!(stats.rows_compacted, report.rows_merged);
        assert!(stats.ticks >= report.ticks);

        let compacted = db.table_snapshot("orders").unwrap();
        let chunks_after = compacted
            .column("o_key")
            .unwrap()
            .as_i64()
            .unwrap()
            .sealed_chunk_count();
        assert!(
            chunks_after <= 2 * ideal,
            "compaction must come within 2x of ideal ({chunks_after} vs {ideal})"
        );
        // identical answers, and the fragmented snapshot is untouched
        let after: Vec<_> = db
            .session()
            .query("orders")
            .range("o_key", 100, 400)
            .execute()
            .unwrap()
            .positions()
            .clone()
            .into_vec();
        assert_eq!(after, reference);
        assert_eq!(
            fragmented
                .column("o_key")
                .unwrap()
                .as_i64()
                .unwrap()
                .sealed_chunk_count(),
            frag_chunks,
            "live snapshots keep their layout"
        );
        // a second compact finds nothing left
        let idle = db.compact();
        assert_eq!(idle.rows_merged, 0);
    }

    #[test]
    fn compaction_reconciles_indexes_but_table_mut_still_drops_them() {
        // regression (ISSUE 5): a compaction epoch bump must NOT discard
        // accumulated cracking work, while a genuine structural epoch bump
        // (table_mut) must still invalidate it
        let db = Database::builder()
            .segment_capacity(32)
            .try_build()
            .unwrap();
        db.create_table("t", orders_table(256)).unwrap();
        churn(&db, "t", 64);
        let session = db.session();
        for q in 0..5 {
            let low = q * 30;
            session
                .query("t")
                .range("o_key", low, low + 40)
                .execute()
                .unwrap();
        }
        let before = db.index_stats()[0].clone();
        assert_eq!(before.queries, 5);

        let report = db.compact();
        assert!(report.compactions_published > 0);
        assert!(
            report.indexes_reconciled > 0,
            "the index must be carried across the compaction epoch: {report:?}"
        );
        // the next query reuses the reconciled index: the per-build query
        // counter keeps counting instead of resetting to 1
        session.query("t").range("o_key", 10, 50).execute().unwrap();
        let after = db.index_stats()[0].clone();
        assert_eq!(
            after.queries,
            before.queries + 1,
            "compaction must not reset the index"
        );

        // contrast: a structural mutable borrow stamps an epoch the manager
        // must treat as a potential rewrite — the index is rebuilt
        {
            let mut catalog = db.inner.catalog.write();
            let _ = catalog.table_mut("t").unwrap();
        }
        session.query("t").range("o_key", 10, 50).execute().unwrap();
        let rebuilt = db.index_stats()[0].clone();
        assert_eq!(rebuilt.queries, 1, "structural change rebuilds the index");
    }

    #[test]
    fn deferred_reads_copy_only_from_an_index_of_their_own_version() {
        use crate::{Query, QueryResult};
        let db = Database::builder()
            .default_strategy(StrategyKind::UpdatableCracking)
            .try_build()
            .unwrap();
        // large enough that the answers below are deferred, not copied
        let n = 8_192;
        db.create_table("t", orders_table(n)).unwrap();
        let session = db.session();
        let column = crate::manager::ColumnId::new("t", "o_key");
        // the per-row answer over the snapshot a result ran on
        let scanned = |result: &QueryResult, low: i64, high: i64| -> Vec<u32> {
            let keys = result.snapshot().column("o_key").unwrap().as_i64().unwrap();
            let keys = keys.to_vec();
            (0..keys.len() as u32)
                .filter(|&i| (low..high).contains(&keys[i as usize]))
                .collect()
        };

        // an index that absorbed a row since the snapshot: the read drops it
        let wide = Query::table("t").range("o_key", -1, n + 1);
        let older = session.execute(&wide).unwrap();
        session
            .insert_row("t", &[Value::Int64(5), Value::Int64(10)])
            .unwrap();
        let newer = session.execute(&wide).unwrap();
        assert!(older.is_deferred() && newer.is_deferred());
        let (epoch, covered) = db.inner.manager.index_version(&column).unwrap();
        assert_eq!(covered, n as usize + 1);
        assert_eq!(older.positions().as_slice(), scanned(&older, -1, n + 1));

        // a remediation from a snapshot older than the index shrinks it
        // below the snapshot of a held answer: that answer scans
        let keys = older.snapshot().column("o_key").unwrap().as_i64().unwrap();
        let manager = &db.inner.manager;
        assert!(manager.remediate_index(&column, keys, epoch, StrategyKind::Cracking));
        assert_eq!(newer.positions().as_slice(), scanned(&newer, -1, n + 1));

        // a structural rewrite re-stamps the same entry with other keys,
        // cut at the same bounds: the held answer scans its own snapshot
        let narrow = Query::table("t").range("o_key", 0, n / 2);
        let held = session.execute(&narrow).unwrap();
        assert!(held.is_deferred());
        {
            let mut catalog = db.inner.catalog.write();
            let table = catalog.table_mut("t").unwrap();
            let reversed = Column::from_i64((0..=n).map(|k| n - k).collect());
            *table = table.replace_columns(vec![(0, reversed)]);
        }
        let rewritten = session.execute(&narrow).unwrap();
        assert_eq!(held.positions().as_slice(), scanned(&held, 0, n / 2));
        assert_eq!(
            rewritten.positions().as_slice(),
            scanned(&rewritten, 0, n / 2)
        );
        assert_ne!(held.positions(), rewritten.positions());
    }

    #[test]
    fn a_deferred_read_of_counted_edges_returns_its_count_and_adds_no_effort() {
        use crate::Query;
        use aidx_telemetry::SpanEvent;
        // 2^17 keys, a permutation of 0..2^17: a cracking index counts a
        // bound in a piece of up to 1 024 tuples instead of cracking it
        let n: i64 = 1 << 17;
        let keys: Vec<i64> = (0..n).map(|i| (i * 7_919) % n).collect();
        let db = Database::builder()
            .default_strategy(StrategyKind::Cracking)
            .parallelism(1)
            .build();
        let table = Table::from_columns(vec![("k", Column::from_i64(keys.clone()))]).unwrap();
        db.create_table("t", table).unwrap();
        let session = db.session();
        // a sweep leaves pieces of 512 keys
        for low in (0..n).step_by(1_024) {
            session
                .execute(&Query::table("t").range("k", low, low + 512))
                .unwrap();
        }
        // both bounds inside a piece: counted there, not cracked
        let (low, high) = (30_007, 90_003);
        let profile = session
            .explain_profile(&Query::table("t").range("k", low, high))
            .unwrap();
        let pieces = profile.trace.events.iter().find_map(|event| match event {
            SpanEvent::IndexProbe {
                pieces_before,
                pieces_after,
                ..
            } => Some((*pieces_before, *pieces_after)),
            _ => None,
        });
        let (before, after) = pieces.expect("the driver probed its index");
        assert_eq!(before, after, "no bound was cracked");
        let result = profile.result;
        assert!(result.is_deferred());
        assert_eq!(result.row_count(), (high - low) as usize);
        let effort = db.index_stats()[0].effort;
        let expected: Vec<RowId> = (0..n as RowId)
            .filter(|&row| (low..high).contains(&keys[row as usize]))
            .collect();
        assert_eq!(result.positions().as_slice(), expected.as_slice());
        assert!(!result.is_deferred(), "read once");
        assert_eq!(db.index_stats()[0].effort, effort, "a read is no query");
    }

    #[test]
    fn index_refresh_rebuilds_indexes_larger_than_the_tick_budget() {
        // regression: an all-or-nothing index rebuild bigger than
        // budget_rows_per_tick must still happen (first item of a slice may
        // overrun the budget), or big tables could never be refreshed
        let db = Database::builder()
            .maintenance(aidx_maintenance::MaintenanceConfig {
                budget_rows_per_tick: 64,
                ..Default::default()
            })
            .try_build()
            .unwrap();
        db.create_table("t", orders_table(1000)).unwrap();
        let session = db.session();
        // build the index (and heat the column) at the current epoch
        session.query("t").range("o_key", 0, 100).execute().unwrap();
        let column = crate::manager::ColumnId::new("t", "o_key");
        let old = db.inner.manager.index_version(&column).unwrap();
        assert_eq!(old.1, 1000);
        // a structural epoch bump leaves the registered index stale
        {
            let mut catalog = db.inner.catalog.write();
            let _ = catalog.table_mut("t").unwrap();
        }
        let new_epoch = db.inner.catalog.read().table_epoch("t").unwrap();
        assert!(new_epoch > old.0);
        // one tick refreshes it despite 1000 rows >> 64 budget
        let units = db.maintenance_tick();
        assert!(units >= 1000, "the oversized rebuild ran: {units}");
        assert_eq!(
            db.inner.manager.index_version(&column),
            Some((new_epoch, 1000))
        );
        assert_eq!(db.maintenance_stats().indexes_refreshed, 1);
        // the refreshed index serves the next query without a rebuild
        session.query("t").range("o_key", 0, 100).execute().unwrap();
        assert_eq!(db.index_stats()[0].queries, 1);
    }

    #[test]
    fn a_refresh_between_a_writers_append_and_its_catch_up_keeps_the_index() {
        // a writer appends under the catalog lock and catches the index up
        // after; a maintenance tick in between finds the index one row short
        // and must absorb the row, not rebuild the converged column
        let db = Database::new(StrategyKind::Cracking);
        db.create_table("t", orders_table(4000)).unwrap();
        let session = db.session();
        for q in 0..100 {
            let low = (q * 613) % 3900;
            session
                .query("t")
                .range("o_key", low, low + 40)
                .execute()
                .unwrap();
        }
        let column = crate::manager::ColumnId::new("t", "o_key");
        let (epoch, covered) = db.inner.manager.index_version(&column).unwrap();
        let queries = db.index_stats()[0].queries;
        db.inner
            .catalog
            .write()
            .append_row("t", &[Value::Int64(17), Value::Int64(34)])
            .unwrap();
        db.maintenance_tick();
        assert_eq!(db.maintenance_stats().indexes_refreshed, 0);
        assert_eq!(db.index_stats()[0].queries, queries, "not rebuilt");
        assert_eq!(
            db.inner.manager.index_version(&column),
            Some((epoch, covered + 1)),
            "the index covers the row"
        );
        let result = session.query("t").range("o_key", 17, 18).execute().unwrap();
        assert_eq!(result.row_count(), 2);
        assert_eq!(result.positions().as_slice().last(), Some(&4000));
    }

    #[test]
    fn background_maintenance_compacts_without_explicit_calls() {
        let db = Database::builder()
            .segment_capacity(32)
            .maintenance(aidx_maintenance::MaintenanceConfig {
                background: true,
                tick_interval: std::time::Duration::from_millis(1),
                ..Default::default()
            })
            .try_build()
            .unwrap();
        assert!(db.maintenance_stats().background_attached);
        db.create_table("t", orders_table(256)).unwrap();
        churn(&db, "t", 128);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let snapshot = db.table_snapshot("t").unwrap();
            let fragments = snapshot.column("o_key").unwrap().fragmented_chunk_count();
            if fragments <= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "background maintenance must compact the churned table \
                 ({fragments} fragments left)"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(db.maintenance_stats().rows_compacted > 0);
        // queries during/after background compaction answer correctly
        let result = db
            .session()
            .query("t")
            .range("o_key", 0, 256)
            .execute()
            .unwrap();
        assert_eq!(result.row_count(), 256);
        // dropping the database stops the background thread (joins cleanly)
        drop(db);
    }

    #[test]
    fn trace_sampling_fills_ring_and_health_has_evidence() {
        let db = Database::builder().trace_sampling(4).try_build().unwrap();
        assert_eq!(db.trace_sampling(), 4);
        db.create_table("t", orders_table(2000)).unwrap();
        let session = db.session();
        for q in 0..64i64 {
            let low = (q * 97) % 1800;
            session
                .query("t")
                .range("o_key", low, low + 100)
                .execute()
                .unwrap();
        }
        let traces = db.recent_traces();
        assert_eq!(traces.len(), 16, "1-in-4 of 64 queries");
        assert!(!db.slowest_traces().is_empty());
        assert!(
            db.slowest_traces()
                .windows(2)
                .all(|w| w[0].elapsed_ns >= w[1].elapsed_ns),
            "slowest-first"
        );
        let health = db.index_health();
        assert_eq!(health.len(), 1);
        assert!(health[0].windowed_queries > 0, "sampled probes seen");
        assert!(health[0].cumulative_effort > 0);
        let text = db.report_text();
        assert!(text.contains("t.o_key"), "{text}");
        assert!(text.contains("verdict="), "{text}");
    }

    #[test]
    fn sampling_respects_the_telemetry_switch_and_zero_disables() {
        let db = Database::builder()
            .telemetry(false)
            .trace_sampling(1)
            .try_build()
            .unwrap();
        db.create_table("t", orders_table(100)).unwrap();
        db.session()
            .query("t")
            .range("o_key", 0, 50)
            .execute()
            .unwrap();
        assert!(
            db.recent_traces().is_empty(),
            "disabled telemetry samples nothing"
        );
        let db = Database::builder().trace_sampling(0).try_build().unwrap();
        db.create_table("t", orders_table(100)).unwrap();
        db.session()
            .query("t")
            .range("o_key", 0, 50)
            .execute()
            .unwrap();
        assert!(db.recent_traces().is_empty(), "sampling off");
        // explain_profile still traces on demand either way
        let profile = db
            .session()
            .explain_profile(&crate::query::Query::table("t").range("o_key", 0, 50))
            .unwrap();
        assert!(!profile.trace.events.is_empty());
    }

    #[test]
    fn report_tick_diffs_and_the_ring_is_bounded() {
        let db = Database::builder().report_capacity(2).try_build().unwrap();
        db.create_table("t", orders_table(500)).unwrap();
        let session = db.session();
        assert!(db.report_tick().is_none(), "first tick primes");
        for round in 1..=4i64 {
            session
                .query("t")
                .range("o_key", 0, 10 * round)
                .execute()
                .unwrap();
            let delta = db.report_tick().expect("delta after priming");
            assert_eq!(delta.counter_delta("engine.queries_served"), Some(1));
            let windowed = delta.histogram("engine.query_ns").unwrap();
            assert_eq!(windowed.count, 1, "windowed, not cumulative");
        }
        assert_eq!(db.recent_reports().len(), 2, "ring bounded at capacity");
        assert!(db.latest_report().is_some());
    }

    #[test]
    fn reporter_rides_the_maintenance_scheduler() {
        let db = Database::builder().try_build().unwrap();
        db.create_table("t", orders_table(200)).unwrap();
        db.maintenance_tick(); // primes the reporter via job (d)
        assert!(db.latest_report().is_none());
        db.session()
            .query("t")
            .range("o_key", 0, 100)
            .execute()
            .unwrap();
        db.maintenance_tick();
        let delta = db.latest_report().expect("scheduler drove the reporter");
        assert_eq!(delta.counter_delta("engine.queries_served"), Some(1));
        assert!(
            delta
                .counter_delta("engine.index.refinement_effort")
                .unwrap()
                > 0
        );
    }

    #[test]
    fn report_capacity_is_validated() {
        let err = Database::builder().report_capacity(0).try_build();
        assert!(matches!(err, Err(AidxError::Config { .. })), "{err:?}");
    }

    use aidx_telemetry::{AlertAction, AlertCondition, AlertEventKind, AlertRule, AlertState};

    /// A rule any query activity breaches: served-query rate above one
    /// query per two seconds.
    fn any_query_rule(name: &str) -> AlertRule {
        AlertRule::new(
            name,
            AlertCondition::CounterRateAbove {
                counter: "engine.queries_served".into(),
                per_second: 0.5,
            },
        )
    }

    #[test]
    fn alert_config_is_validated() {
        let bad = AlertConfig::new().journal_capacity(0);
        let err = Database::builder().alerts(bad).try_build();
        assert!(matches!(err, Err(AidxError::Config { .. })), "{err:?}");
        let dup = AlertConfig::new()
            .rule(any_query_rule("r"))
            .rule(any_query_rule("r"));
        let err = Database::builder().alerts(dup).try_build();
        assert!(matches!(err, Err(AidxError::Config { .. })));
        let bad_quantile = AlertConfig::new().rule(AlertRule::new(
            "q",
            AlertCondition::HistogramQuantileAbove {
                histogram: "engine.query_ns".into(),
                quantile: 1.5,
                threshold: 1,
            },
        ));
        let err = Database::builder().alerts(bad_quantile).try_build();
        assert!(matches!(err, Err(AidxError::Config { .. })));
        // no alerts configured: the surfaces are empty, not errors
        let db = Database::builder().try_build().unwrap();
        assert!(db.alert_status().is_empty());
        assert!(db.alert_events().is_empty());
        assert!(db.alert_config().is_none());
    }

    #[test]
    fn alert_rides_report_tick_through_pending_firing_resolved() {
        let config = AlertConfig::new().rule(
            any_query_rule("query-activity")
                .for_intervals(2)
                .recovery_intervals(2),
        );
        let db = Database::builder().alerts(config).try_build().unwrap();
        db.create_table("t", orders_table(500)).unwrap();
        let session = db.session();
        assert!(db.report_tick().is_none(), "first tick primes");
        assert_eq!(db.alert_status()[0].state, AlertState::Idle);
        // two breaching intervals arm then fire
        session.query("t").range("o_key", 0, 50).execute().unwrap();
        db.report_tick().unwrap();
        assert_eq!(db.alert_status()[0].state, AlertState::Pending);
        session.query("t").range("o_key", 50, 90).execute().unwrap();
        db.report_tick().unwrap();
        let status = &db.alert_status()[0];
        assert_eq!(status.state, AlertState::Firing);
        assert_eq!(status.times_fired, 1);
        // two quiet intervals resolve
        db.report_tick().unwrap();
        assert_eq!(db.alert_status()[0].state, AlertState::Firing);
        db.report_tick().unwrap();
        assert_eq!(db.alert_status()[0].state, AlertState::Idle);
        let kinds: Vec<AlertEventKind> = db.alert_events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AlertEventKind::Pending,
                AlertEventKind::Firing,
                AlertEventKind::Resolved
            ]
        );
        assert_eq!(db.alert_config().unwrap().rules.len(), 1);
    }

    #[test]
    fn stalled_verdict_remediates_the_column_onto_a_convergent_strategy() {
        // strictly sequential ranges: plain cracking shaves one thin slice
        // off the same huge piece every query, so windowed effort stays at
        // the cumulative average and the verdict reads "stalled"
        let config = AlertConfig::new().rule(
            AlertRule::new(
                "column-stalled",
                AlertCondition::HealthVerdictIs {
                    column: None,
                    verdicts: vec!["stalled".into()],
                },
            )
            .for_intervals(2)
            .action(AlertAction::RefreshIndex(None)),
        );
        let db = Database::builder()
            .trace_sampling(1)
            .alerts(config)
            .try_build()
            .unwrap();
        db.create_table("t", orders_table(20_000)).unwrap();
        let session = db.session();
        db.report_tick();
        let step = 20_000 / 64;
        for q in 0..40i64 {
            let low = q * step;
            session
                .query("t")
                .range("o_key", low, low + step)
                .execute()
                .unwrap();
        }
        assert_eq!(db.index_health()[0].verdict, crate::HealthVerdict::Stalled);
        assert_eq!(db.index_stats()[0].strategy, "cracking");
        db.report_tick().unwrap(); // pending
        db.report_tick().unwrap(); // firing → RefreshIndex executes
        assert_eq!(db.alert_status()[0].state, AlertState::Firing);
        assert_eq!(db.maintenance_stats().indexes_remediated, 1);
        let info = &db.index_stats()[0];
        assert_eq!(info.strategy, "stochastic-cracking");
        assert_eq!(info.queries, 0, "fresh build");
        // the remediated index answers exactly like before
        let result = session
            .query("t")
            .range("o_key", 100, 400)
            .execute()
            .unwrap();
        assert_eq!(result.row_count(), 300);
    }

    #[test]
    fn trigger_compaction_action_arms_an_eager_pass() {
        let config = AlertConfig::new()
            .rule(any_query_rule("eager-compact").action(AlertAction::TriggerCompaction));
        let db = Database::builder()
            .segment_capacity(64)
            // generous slack: normal maintenance would never bother
            .maintenance(aidx_maintenance::MaintenanceConfig {
                max_chunk_slack: 1000.0,
                ..Default::default()
            })
            .alerts(config)
            .try_build()
            .unwrap();
        db.create_table("t", orders_table(256)).unwrap();
        churn(&db, "t", 128);
        let fragmented = db
            .table_snapshot("t")
            .unwrap()
            .column("o_key")
            .unwrap()
            .as_i64()
            .unwrap()
            .sealed_chunk_count();
        // within the configured slack: a regular tick compacts nothing
        db.maintenance_tick();
        assert_eq!(db.maintenance_stats().rows_compacted, 0);
        db.report_tick();
        db.session()
            .query("t")
            .range("o_key", 0, 100)
            .execute()
            .unwrap();
        db.report_tick().unwrap(); // fires → arms the request flag
        assert!(db.inner.maintenance.compaction_requested());
        db.maintenance_tick(); // the armed slice ignores the slack
        assert!(!db.inner.maintenance.compaction_requested(), "consumed");
        assert!(db.maintenance_stats().rows_compacted > 0);
        let after = db
            .table_snapshot("t")
            .unwrap()
            .column("o_key")
            .unwrap()
            .as_i64()
            .unwrap()
            .sealed_chunk_count();
        assert!(after < fragmented, "{after} vs {fragmented}");
    }

    #[test]
    fn builder_accepts_a_prebuilt_catalog() {
        let mut catalog = Catalog::new();
        catalog.create_table("t", orders_table(50)).unwrap();
        let db = Database::builder().catalog(catalog).build();
        assert_eq!(db.row_count("t").unwrap(), 50);
    }

    #[test]
    fn clones_share_state() {
        let db = Database::new(StrategyKind::Cracking);
        let clone = db.clone();
        db.create_table("t", orders_table(10)).unwrap();
        assert_eq!(clone.row_count("t").unwrap(), 10);
        assert!(format!("{db:?}").contains("Database"));
    }
}
