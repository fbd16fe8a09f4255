//! Umbrella crate re-exporting the adaptive indexing workspace.
//!
//! The recommended entry point is the [`Database`]/[`Session`] facade:
//!
//! ```
//! use adaptive_indexing::{Database, StrategyKind};
//! use adaptive_indexing::columnstore::{Column, Table};
//!
//! let db = Database::builder()
//!     .default_strategy(StrategyKind::Cracking)
//!     .build();
//! db.create_table(
//!     "t",
//!     Table::from_columns(vec![("k", Column::from_i64((0..1000).rev().collect()))])?,
//! )?;
//! let hits = db.session().query("t").range("k", 250, 500).execute()?;
//! assert_eq!(hits.row_count(), 250);
//! # Ok::<(), adaptive_indexing::AidxError>(())
//! ```
//!
//! To serve a database over TCP instead of embedding it, see [`server`]
//! (`aidx_server::Server` / `aidx_server::Client`).
//!
//! See the individual crates for the implementation layers:
//! `aidx-columnstore`, `aidx-cracking`, `aidx-hybrids` (which also holds
//! adaptive merging, as Hybrid Sort-Sort), `aidx-baselines`, `aidx-parallel`,
//! `aidx-maintenance`, `aidx-server`, `aidx-telemetry`, `aidx-workloads`,
//! `aidx-core`.

pub use aidx_baselines as baselines;
pub use aidx_columnstore as columnstore;
pub use aidx_core as core;
pub use aidx_cracking as cracking;
pub use aidx_hybrids as hybrids;
pub use aidx_maintenance as maintenance;
pub use aidx_parallel as parallel;
pub use aidx_server as server;
pub use aidx_telemetry as telemetry;
pub use aidx_wal as wal;
pub use aidx_workloads as workloads;

pub use aidx_core::{
    Aggregation, AidxError, AidxResult, CheckpointReport, CompactionReport, Database,
    DatabaseBuilder, DurabilityConfig, FsyncPolicy, HealthVerdict, IndexHealth, MaintenanceConfig,
    MaintenanceStatsSnapshot, Predicate, Query, QueryBuilder, QueryPlan, QueryProfile, QueryResult,
    QueryTrace, RowIter, Session, Snapshot, SnapshotDelta, SpanEvent, StrategyKind,
    TelemetrySnapshot,
};
