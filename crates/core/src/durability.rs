//! Kernel-side wiring of the durability subsystem (`aidx-wal`).
//!
//! The kernel's share of the work is small by design: `aidx-wal` owns the
//! byte formats, the fsync machinery and the checkpoint commit protocol;
//! this module owns the *coordination* — when records are written relative
//! to the catalog lock, what a checkpoint captures, and how recovery rebuilds
//! a catalog. The invariants:
//!
//! * **Write-ahead ordering.** Every logical change (create, drop, append)
//!   is written to the log *before* the in-memory catalog applies it, both
//!   under the same catalog write lock. An I/O error therefore leaves memory
//!   and log agreeing (neither applied); fsync — the slow part — happens
//!   after the lock is released, where concurrent committers share one
//!   physical flush (group commit).
//! * **Atomic capture.** A checkpoint captures `(tables, epochs, next_epoch,
//!   last LSN)` under one catalog read lock, which excludes writers — so the
//!   manifest describes a state that actually existed at one LSN, and log
//!   truncation up to that LSN is exact.
//! * **Layout is disposable.** Compaction writes no log records and arms no
//!   checkpoint: it changes structure, never contents, so like an index its
//!   result is re-derived rather than persisted eagerly. A checkpoint
//!   records whatever layout it captures, fragments included, and
//!   maintenance after recovery compacts them again in memory; the log
//!   suffix replays without live snapshots, so it comes back in full chunks.
//!   Only row volume and table drops arm the checkpoint job.
//! * **Data only.** Neither the log nor a checkpoint ever contains adaptive
//!   index state: indexes re-derive from queries, so recovery replays data
//!   and restarts with zero indexes — the cheap-recovery payoff of cracking.

use crate::db::DbInner;
use crate::error::{AidxError, AidxResult};
use aidx_columnstore::catalog::Catalog;
use aidx_columnstore::table::{Field, Schema, Table};
use aidx_columnstore::types::Value;
use aidx_wal::{
    load_latest_checkpoint, read_log, write_checkpoint, CheckpointTable, DurabilityConfig, Wal,
    WalRecord, WalTelemetry,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Rows per `Append` record when a bulk write is split across log frames:
/// large enough to amortize the frame header, small enough that replaying
/// one frame never materializes an unbounded row batch.
pub(crate) const ROWS_PER_APPEND_RECORD: usize = 4096;

/// The durability half of the database internals, present when the builder
/// configured [`DurabilityConfig`].
pub(crate) struct DurabilityState {
    pub(crate) config: DurabilityConfig,
    pub(crate) wal: Wal,
    /// Rows appended since the last completed checkpoint: the volume-based
    /// checkpoint trigger.
    pub(crate) rows_since_checkpoint: AtomicU64,
    /// Tables dropped since the last completed checkpoint: the drop-based
    /// checkpoint trigger. A dropped table's rows stay on disk, in the last
    /// checkpoint or the log, until a checkpoint without it supersedes them,
    /// so a drop arms one to reclaim the space.
    pub(crate) drops_since_checkpoint: AtomicU64,
    /// LSN the latest completed checkpoint covers (0 = none yet).
    pub(crate) last_checkpoint_lsn: AtomicU64,
    /// Sequence number of the latest completed checkpoint.
    pub(crate) checkpoint_seq: AtomicU64,
    /// Serializes checkpoint runs (explicit `Database::checkpoint` vs the
    /// background job): two interleaved checkpoints could truncate the log
    /// based on each other's half-written directories.
    pub(crate) checkpoint_lock: Mutex<()>,
}

/// Summary of one completed checkpoint, returned by
/// [`crate::Database::checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Sequence number of the checkpoint directory that was written.
    pub seq: u64,
    /// The log is truncated through this LSN; recovery replays only newer
    /// records.
    pub lsn: u64,
    /// Tables snapshotted.
    pub tables: usize,
}

impl DurabilityState {
    /// Record `rows` freshly appended rows (drives the checkpoint trigger).
    pub(crate) fn note_rows(&self, rows: u64) {
        self.rows_since_checkpoint
            .fetch_add(rows, Ordering::Relaxed);
    }

    /// Record a table drop (arms the checkpoint that reclaims its bytes).
    pub(crate) fn note_drop(&self) {
        self.drops_since_checkpoint.fetch_add(1, Ordering::Relaxed);
    }

    /// True when the background job should checkpoint now.
    pub(crate) fn wants_checkpoint(&self) -> bool {
        self.rows_since_checkpoint.load(Ordering::Relaxed) >= self.config.checkpoint_after_rows
            || self.drops_since_checkpoint.load(Ordering::Relaxed) > 0
    }

    /// Log `rows` bound for `table` as chunked `Append` records (call under
    /// the catalog write lock, *before* applying the rows to memory).
    ///
    /// `Ok` carries the highest LSN whose fsync the policy requested — the
    /// caller flushes it with [`Wal::sync_to`] *after* releasing the catalog
    /// lock, so concurrent committers share one physical flush. `Err`
    /// carries how many leading rows made it into the log before the I/O
    /// error: the caller must apply exactly that prefix to memory so a later
    /// replay (which will see the prefix) agrees with the running process.
    pub(crate) fn log_append(
        &self,
        table: &str,
        rows: &[Vec<Value>],
    ) -> Result<Option<u64>, (usize, AidxError)> {
        let mut sync_lsn = None;
        let mut logged = 0usize;
        for chunk in rows.chunks(ROWS_PER_APPEND_RECORD) {
            match self.wal.append_rows(table, chunk) {
                Ok((_, requested)) => {
                    sync_lsn = requested.or(sync_lsn);
                    logged += chunk.len();
                }
                Err(e) => {
                    self.note_rows(logged as u64);
                    return Err((logged, AidxError::from(e)));
                }
            }
        }
        self.note_rows(rows.len() as u64);
        Ok(sync_lsn)
    }

    /// Flush the log through `sync_lsn` when the fsync policy asked for it
    /// (call *after* releasing the catalog lock).
    pub(crate) fn sync_if_requested(&self, sync_lsn: Option<u64>) -> AidxResult<()> {
        match sync_lsn {
            Some(lsn) => self.wal.sync_to(lsn).map_err(AidxError::from),
            None => Ok(()),
        }
    }
}

/// What [`open_durable`] found in the durable directory.
pub(crate) struct RecoveryOutcome {
    /// The live durability half of the database internals.
    pub(crate) state: DurabilityState,
    /// True when the directory held prior state that was restored into the
    /// builder's catalog. The builder then skips its re-chunk pass: the
    /// checkpoint loader already rebuilt every table at the target segment
    /// capacity, and replayed appends chunk at that capacity naturally.
    pub(crate) recovered: bool,
}

/// Open (or create) the durable directory: load the latest complete
/// checkpoint, open the log, and either recover `catalog` from disk or log
/// the seeded catalog into the fresh directory.
///
/// Seeding tables into a directory that already holds durable state is a
/// configuration error — silently preferring either side would discard the
/// other's data.
pub(crate) fn open_durable(
    config: DurabilityConfig,
    catalog: &mut Catalog,
    segment_capacity: usize,
    telemetry: Option<WalTelemetry>,
) -> AidxResult<RecoveryOutcome> {
    let checkpoint = load_latest_checkpoint(&config.checkpoint_dir(), segment_capacity)
        .map_err(AidxError::from)?;
    let mut wal = Wal::open(&config.wal_dir(), config.fsync, segment_capacity as u64)
        .map_err(AidxError::from)?;
    if let Some(telemetry) = telemetry {
        wal.set_telemetry(telemetry);
    }
    let has_state = checkpoint.is_some() || wal.last_lsn().is_some();
    if has_state && !catalog.is_empty() {
        return Err(AidxError::config(
            "durability",
            format!(
                "{} already holds durable state; open it with an empty builder \
                 catalog (recovery rebuilds the tables from disk)",
                config.dir.display()
            ),
        ));
    }
    let (ckpt_seq, ckpt_lsn) = checkpoint.as_ref().map_or((0, 0), |c| (c.seq, c.lsn));
    let mut rows_pending = 0u64;
    if has_state {
        let mut restored = Catalog::new();
        if let Some(ckpt) = checkpoint {
            for (name, table, epoch) in ckpt.tables {
                restored
                    .restore_table(name, table, epoch)
                    .map_err(AidxError::from)?;
            }
            restored.bump_next_epoch_to(ckpt.next_epoch);
        }
        // replay the log suffix the checkpoint does not cover, through the
        // same logical appends a live session would issue — indexes are NOT
        // restored; queries re-derive them, which is the point of cracking
        let replay = read_log(&config.wal_dir(), ckpt_lsn).map_err(AidxError::from)?;
        for (lsn, record) in replay.records {
            rows_pending +=
                replay_record(&mut restored, record, segment_capacity).map_err(|reason| {
                    AidxError::io(format!("replay log record at lsn {lsn}"), reason)
                })?;
        }
        *catalog = restored;
    } else {
        // fresh directory, possibly with a seeded builder catalog: the seed
        // is logical state the log has never seen, so write it down — and
        // flush unconditionally, because returning a "durable" database
        // whose initial tables would vanish on crash is a lie
        for name in catalog
            .table_names()
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
        {
            let table = catalog.table(&name).expect("name enumerated above");
            let fields = table
                .schema()
                .fields()
                .iter()
                .map(|f| (f.name().to_owned(), f.data_type()))
                .collect();
            wal.append(&WalRecord::CreateTable {
                name: name.clone(),
                fields,
            })
            .map_err(AidxError::from)?;
            let rows = table_rows(table);
            rows_pending += rows.len() as u64;
            for chunk in rows.chunks(ROWS_PER_APPEND_RECORD) {
                wal.append_rows(&name, chunk).map_err(AidxError::from)?;
            }
        }
        if wal.last_lsn().is_some() {
            wal.sync().map_err(AidxError::from)?;
        }
    }
    Ok(RecoveryOutcome {
        state: DurabilityState {
            config,
            wal,
            rows_since_checkpoint: AtomicU64::new(rows_pending),
            drops_since_checkpoint: AtomicU64::new(0),
            last_checkpoint_lsn: AtomicU64::new(ckpt_lsn),
            checkpoint_seq: AtomicU64::new(ckpt_seq),
            checkpoint_lock: Mutex::new(()),
        },
        recovered: has_state,
    })
}

/// Apply one replayed record to the catalog being rebuilt; returns the rows
/// it contributed. Failures are rendered as strings — the caller wraps them
/// with the offending LSN.
fn replay_record(
    catalog: &mut Catalog,
    record: WalRecord,
    segment_capacity: usize,
) -> Result<u64, String> {
    match record {
        WalRecord::CreateTable { name, fields } => {
            let schema = Schema::new(
                fields
                    .iter()
                    .map(|(name, dtype)| Field::new(name.clone(), *dtype))
                    .collect(),
            );
            catalog
                .create_table(
                    name,
                    Table::new_with_segment_capacity(schema, segment_capacity),
                )
                .map_err(|e| e.to_string())?;
            Ok(0)
        }
        WalRecord::DropTable { name } => {
            catalog.drop_table(&name);
            Ok(0)
        }
        WalRecord::Append { table, rows } => {
            let appended = rows.len() as u64;
            catalog
                .append_rows(&table, &rows)
                .map_err(|e| e.to_string())?;
            Ok(appended)
        }
    }
}

/// Materialize every row of `table` (for logging a seeded or freshly
/// created table into the write-ahead log).
pub(crate) fn table_rows(table: &Table) -> Vec<Vec<Value>> {
    let arity = table.schema().arity();
    let mut rows = Vec::with_capacity(table.row_count());
    for position in 0..table.row_count() {
        let mut row = Vec::with_capacity(arity);
        for column in 0..arity {
            row.push(
                table
                    .column_at(column)
                    .expect("column index bounded by arity")
                    .value_at(position)
                    .expect("position bounded by row count"),
            );
        }
        rows.push(row);
    }
    rows
}

/// Write one checkpoint: capture the catalog atomically, persist it with
/// the manifest-last protocol, then truncate the log up to the captured LSN.
///
/// Returns `Ok(None)` when there is nothing to cover (no log records and no
/// tables — a checkpoint of nothing would only churn directories).
pub(crate) fn run_checkpoint(inner: &DbInner) -> AidxResult<Option<CheckpointReport>> {
    let durability = inner
        .durability
        .as_ref()
        .expect("checkpoint caller verified durability is configured");
    let _serialize = durability.checkpoint_lock.lock();

    // capture atomically: the catalog read lock excludes every writer, and
    // writers log before applying, so `wal.last_lsn()` read under this lock
    // is exactly the log position describing `tables`
    let (tables, next_epoch, lsn, rows_drained, drops_drained) = {
        let catalog = inner.catalog.read();
        let mut tables = Vec::with_capacity(catalog.len());
        for name in catalog.table_names() {
            let (table, epoch) = catalog
                .table_snapshot(name)
                .expect("name enumerated under this same lock");
            tables.push(CheckpointTable {
                name: name.to_owned(),
                epoch,
                table,
            });
        }
        (
            tables,
            catalog.next_epoch(),
            durability.wal.last_lsn().unwrap_or(0),
            durability.rows_since_checkpoint.load(Ordering::Relaxed),
            durability.drops_since_checkpoint.load(Ordering::Relaxed),
        )
    };
    if lsn == 0 && tables.is_empty() {
        return Ok(None);
    }
    // everything the checkpoint covers must be durable before the manifest
    // can claim to supersede it
    durability.wal.sync_to(lsn).map_err(AidxError::from)?;
    let seq = durability.checkpoint_seq.load(Ordering::Relaxed) + 1;
    write_checkpoint(
        &durability.config.checkpoint_dir(),
        seq,
        lsn,
        next_epoch,
        &tables,
    )
    .map_err(AidxError::from)?;
    durability.checkpoint_seq.store(seq, Ordering::Relaxed);
    durability.last_checkpoint_lsn.store(lsn, Ordering::Relaxed);
    // drain only what the capture saw: rows appended while the files were
    // being written still count toward the next checkpoint
    durability
        .rows_since_checkpoint
        .fetch_sub(rows_drained, Ordering::Relaxed);
    durability
        .drops_since_checkpoint
        .fetch_sub(drops_drained, Ordering::Relaxed);
    // strictly after the manifest is durable: a crash between the two leaves
    // a complete checkpoint plus a log it re-covers, which replays to the
    // same state
    durability
        .wal
        .truncate_through(lsn)
        .map_err(AidxError::from)?;
    inner
        .maintenance
        .stats
        .checkpoints_written
        .fetch_add(1, Ordering::Relaxed);
    Ok(Some(CheckpointReport {
        seq,
        lsn,
        tables: tables.len(),
    }))
}
