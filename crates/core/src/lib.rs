//! # aidx-core
//!
//! The adaptive indexing kernel: the layer that turns the individual
//! techniques (database cracking, adaptive merging, hybrids, and the
//! non-adaptive baselines) into something a database engine can actually use,
//! which is what the EDBT 2012 tutorial's "auto-tuning kernels" section is
//! about.
//!
//! The public API is the [`Database`]/[`Session`] facade: build a database,
//! register tables, open cheap thread-safe sessions, and fire composable
//! conjunctive queries — the adaptive indexes build and refine themselves as
//! a side effect of query execution, which is the paper's headline idea.
//! Underneath sit:
//!
//! * [`strategy`] — [`strategy::StrategyKind`], which names every indexing
//!   strategy in the workspace, and the one `match` that builds it from a
//!   column's chunks. Each strategy implements [`strategy::AdaptiveIndex`]
//!   (`query_range`, effort accounting, memory accounting, convergence
//!   introspection) on its own type in its own crate; the trait itself
//!   lives in `aidx_columnstore::index` and is re-exported here.
//! * [`manager`] — the per-column index manager: it owns one adaptive index
//!   per (table, column) pair, creates them lazily on first access, and
//!   serializes reorganization per column, exactly like the cracker-map
//!   registry inside MonetDB's adaptive kernel.
//! * [`executor`] — the planner and evaluation engine behind [`Session`]:
//!   routes the most selective predicate of each query through the adaptive
//!   index and applies the rest as residual late-materialized filters
//!   (chunk-parallel through the shared worker pool when parallelism is
//!   enabled).
//! * [`maintenance`] — the kernel half of the background maintenance
//!   subsystem (`aidx-maintenance` supplies the pool, scheduler and
//!   policy): adaptive chunk compaction of churn-fragmented columns with
//!   index reconciliation across the compaction epoch, and background
//!   re-derivation of stale indexes — wired through
//!   [`DatabaseBuilder::maintenance`], [`Database::compact`] and
//!   [`Database::maintenance_stats`].
//! * [`durability`] — the kernel half of the durability subsystem
//!   (`aidx-wal` supplies the log and checkpoint formats): write-ahead
//!   logging of appends and DDL, background checkpointing of sealed chunks,
//!   and crash recovery that replays *data only* — adaptive indexes are
//!   never persisted because queries re-derive them, the cheap-recovery
//!   property the cracking papers point out. Wired through
//!   [`DatabaseBuilder::durability`] and [`Database::open`].
//! * [`tuner`] — the auto-tuning policy layer: decides *which* strategy a
//!   column should use from observed workload characteristics (the
//!   tutorial's "towards autonomous kernels" discussion).
//! * [`telemetry`] — engine-wide observability over the `aidx-telemetry`
//!   lock-free registry: every layer (executor, index manager, maintenance,
//!   WAL) records into one registry surfaced by [`Database::telemetry`],
//!   and [`Session::explain_profile`] captures a single query's lifecycle
//!   (plan, index probe with refinement effort, pruning, residual filters,
//!   materialization) as a typed trace.
//! * [`health`] + continuous observability — the live form of the paper's
//!   convergence curve: every Nth query is trace-sampled into a bounded
//!   ring ([`Database::recent_traces`]), a reporter diffs successive metric
//!   snapshots into per-interval rates and windowed quantiles
//!   ([`Database::report_tick`], riding the maintenance scheduler), and
//!   [`Database::index_health`] joins both into a per-column convergence
//!   verdict (converging / converged / stalled / regressing).
//!
//! ## Quick example
//!
//! ```
//! use aidx_core::prelude::*;
//!
//! // a table with a key column and a payload column
//! let keys: Vec<i64> = (0..10_000).rev().collect();
//! let payload: Vec<i64> = (0..10_000).collect();
//!
//! let db = Database::builder()
//!     .default_strategy(StrategyKind::Cracking)
//!     .build();
//! db.create_table(
//!     "orders",
//!     Table::from_columns(vec![
//!         ("o_key", Column::from_i64(keys)),
//!         ("o_value", Column::from_i64(payload)),
//!     ])?,
//! )?;
//!
//! // sessions are cheap clones, safe to hand to many threads; selections
//! // crack the touched columns as a side effect
//! let session = db.session();
//! let result = session
//!     .query("orders")
//!     .range("o_key", 100, 200)
//!     .project(["o_value"])
//!     .execute()?;
//! assert_eq!(result.row_count(), 100);
//! assert_eq!(result.rows().count(), 100);
//! # Ok::<(), aidx_core::AidxError>(())
//! ```

#![deny(missing_docs)]

pub mod alerts;
pub mod db;
pub mod durability;
pub mod error;
pub mod executor;
pub mod health;
pub mod maintenance;
pub mod manager;
pub mod query;
pub mod result;
pub mod session;
pub mod strategy;
pub mod telemetry;
pub mod tuner;

/// Convenient re-exports for typical kernel usage.
pub mod prelude {
    pub use crate::alerts::{default_alert_config, default_alert_rules, REMEDIAL_STRATEGY};
    pub use crate::db::{Database, DatabaseBuilder};
    pub use crate::durability::CheckpointReport;
    pub use crate::error::{AidxError, AidxResult};
    pub use crate::executor::QueryPlan;
    pub use crate::health::{HealthVerdict, IndexHealth};
    pub use crate::maintenance::CompactionReport;
    pub use crate::manager::{ColumnId, IndexManager, KeySource};
    pub use crate::query::{Aggregation, Predicate, Query};
    pub use crate::result::{Cells, QueryResult, RowIter, Rows};
    pub use crate::session::{QueryBuilder, QueryProfile, Session};
    pub use crate::strategy::{AdaptiveIndex, QueryOutput, StrategyKind, StrategyTuning};
    pub use crate::telemetry::TelemetrySnapshot;
    pub use crate::tuner::{AutoTuner, TuningPolicy};
    pub use aidx_columnstore::prelude::*;
    pub use aidx_maintenance::{MaintenanceConfig, MaintenanceStatsSnapshot};
    pub use aidx_parallel::ThreadPool;
    pub use aidx_telemetry::{
        AlertAction, AlertCondition, AlertConfig, AlertEvent, AlertEventKind, AlertRule,
        AlertState, AlertStatus, HealthSignal, QueryTrace, Snapshot, SnapshotDelta, SpanEvent,
    };
    pub use aidx_wal::{DurabilityConfig, FsyncPolicy, WalStatsSnapshot};
}

pub use aidx_maintenance::{MaintenanceConfig, MaintenanceStatsSnapshot};
pub use aidx_telemetry::{
    AlertAction, AlertCondition, AlertConfig, AlertEvent, AlertEventKind, AlertRule, AlertState,
    AlertStatus, HealthSignal, QueryTrace, Snapshot, SnapshotDelta, SpanEvent,
};
pub use aidx_wal::{DurabilityConfig, FsyncPolicy, WalStatsSnapshot};
pub use alerts::{default_alert_config, default_alert_rules, REMEDIAL_STRATEGY};
pub use db::{Database, DatabaseBuilder};
pub use durability::CheckpointReport;
pub use error::{AidxError, AidxResult};
pub use executor::QueryPlan;
pub use health::{HealthVerdict, IndexHealth};
pub use maintenance::CompactionReport;
pub use manager::{ColumnId, IndexManager, KeySource, ProbeTrace};
pub use query::{Aggregation, Predicate, Query};
pub use result::{Cells, QueryResult, RowIter, Rows};
pub use session::{QueryBuilder, QueryProfile, Session};
pub use strategy::{AdaptiveIndex, QueryOutput, StrategyKind, StrategyTuning};
pub use telemetry::TelemetrySnapshot;
pub use tuner::{AutoTuner, TuningPolicy};
