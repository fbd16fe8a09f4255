//! Kernel-side wiring of the background maintenance subsystem.
//!
//! `aidx-maintenance` supplies the substrate-agnostic machinery — the
//! persistent worker pool, the budgeted [`Scheduler`], the
//! [`CompactionPolicy`] — and this module supplies the two concrete job
//! types that know about the catalog and the index manager:
//!
//! * `CompactionJob` — **adaptive chunk compaction.** Heavy insert churn
//!   under live snapshots fragments columns into undersized sealed chunks
//!   (the copy-on-write append seals tails early so it never has to copy
//!   them). This job merges runs of fragments back into full
//!   `segment_capacity` chunks, hottest columns first (fed by the
//!   query-driven `Hotness` tracker), a budget's worth of rows per slice.
//!   The compacted table is published through the catalog's copy-on-write
//!   swap under a fresh epoch — live snapshots keep their old layout — and,
//!   because compaction preserves every row's global position, the table's
//!   adaptive indexes are immediately **reconciled** onto the new epoch
//!   instead of being discarded.
//! * `IndexRefreshJob` — **index reconciliation.** An index covers a prefix
//!   of its column. One left behind by a structural epoch bump makes the
//!   *next query* pay the full rebuild, and the rows past the end of one
//!   that cannot absorb inserts make every query scan them. This job
//!   catches indexes up between queries, hottest columns first, with the
//!   query path's catch-up step and version guards: it rebuilds only an
//!   index of an older epoch or one that catch-up cannot bring level, and
//!   never one that absorbs inserts.
//!
//! Both jobs hold only a [`Weak`] reference to the database internals, so a
//! background maintenance thread can never keep a dropped database alive.

use crate::db::DbInner;
use crate::manager::ColumnId;
use aidx_columnstore::column::Column;
use aidx_maintenance::{
    CompactionPlan, CompactionPolicy, MaintenanceConfig, MaintenanceJob, MaintenanceStats,
    Scheduler, TickOutcome,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Query-driven column-heat tracking: every executed query credits its
/// driver column with the number of chunks the query touched (scanned or
/// pruned). Maintenance orders its work by this score, so the columns whose
/// fragmentation queries actually pay for are compacted (and their indexes
/// refreshed) first.
#[derive(Debug, Default)]
pub(crate) struct Hotness {
    chunks_touched: Mutex<HashMap<ColumnId, u64>>,
}

impl Hotness {
    /// Credit `chunks` touched chunks to `column`.
    pub(crate) fn observe(&self, column: &ColumnId, chunks: u64) {
        if chunks == 0 {
            return;
        }
        *self
            .chunks_touched
            .lock()
            .entry(column.clone())
            .or_insert(0) += chunks;
    }

    /// The tracked columns, hottest first (ties broken by name so the order
    /// is deterministic).
    pub(crate) fn ranked(&self) -> Vec<(ColumnId, u64)> {
        let mut entries: Vec<(ColumnId, u64)> = self
            .chunks_touched
            .lock()
            .iter()
            .map(|(column, &score)| (column.clone(), score))
            .collect();
        entries.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| (a.0.table(), a.0.column()).cmp(&(b.0.table(), b.0.column())))
        });
        entries
    }

    /// The score of one column (0 when never observed).
    pub(crate) fn score(&self, table: &str, column: &str) -> u64 {
        self.chunks_touched
            .lock()
            .get(&ColumnId::new(table, column))
            .copied()
            .unwrap_or(0)
    }

    /// Drop all heat for `table` (called when the table is dropped or
    /// re-created, so the tracker cannot grow without bound).
    pub(crate) fn forget_table(&self, table: &str) {
        self.chunks_touched
            .lock()
            .retain(|column, _| column.table() != table);
    }
}

/// Everything the maintenance subsystem hangs off the database internals.
pub(crate) struct MaintenanceState {
    pub(crate) config: MaintenanceConfig,
    pub(crate) stats: Arc<MaintenanceStats>,
    pub(crate) hotness: Hotness,
    /// The job scheduler; initialized right after the `Arc<DbInner>` exists
    /// (the jobs hold a `Weak` back-reference).
    pub(crate) scheduler: OnceLock<Scheduler>,
    /// The dedicated maintenance thread, when `config.background` is set.
    pub(crate) background: Mutex<Option<aidx_maintenance::BackgroundLoop>>,
    /// Armed by the alert runtime's `TriggerCompaction` action (which runs
    /// *inside* a scheduler tick, so it cannot re-enter the scheduler);
    /// consumed by the next compaction slice, which then ignores the
    /// configured fragmentation slack — an eager pass.
    compaction_requested: AtomicBool,
}

impl MaintenanceState {
    pub(crate) fn new(config: MaintenanceConfig) -> Self {
        MaintenanceState {
            config,
            stats: Arc::new(MaintenanceStats::default()),
            hotness: Hotness::default(),
            scheduler: OnceLock::new(),
            background: Mutex::new(None),
            compaction_requested: AtomicBool::new(false),
        }
    }

    /// Arm an eager compaction pass: the next compaction slice treats every
    /// fragmented column as eligible regardless of the configured chunk
    /// slack. Safe to call from inside a running maintenance job.
    pub(crate) fn request_compaction(&self) {
        self.compaction_requested.store(true, Ordering::Relaxed);
    }

    /// Whether an eager compaction pass is armed (test hook; the consuming
    /// side is the compaction slice itself).
    #[cfg(test)]
    pub(crate) fn compaction_requested(&self) -> bool {
        self.compaction_requested.load(Ordering::Relaxed)
    }

    /// Wire the jobs (and, if configured, the background thread) onto a
    /// freshly built database. Called exactly once from `try_build`.
    pub(crate) fn attach(inner: &Arc<DbInner>) {
        let state = &inner.maintenance;
        let mut jobs: Vec<Arc<dyn MaintenanceJob>> = vec![
            Arc::new(CompactionJob {
                db: Arc::downgrade(inner),
            }),
            Arc::new(IndexRefreshJob {
                db: Arc::downgrade(inner),
            }),
        ];
        if inner.durability.is_some() {
            jobs.push(Arc::new(CheckpointJob {
                db: Arc::downgrade(inner),
            }));
        }
        jobs.push(Arc::new(ReporterJob {
            db: Arc::downgrade(inner),
        }));
        let scheduler = Scheduler::new(jobs);
        // Invariant, not a recoverable state: `attach` has exactly one call
        // site (`DatabaseBuilder::try_build`, before the `Database` handle is
        // returned), so the cell cannot already be populated. A second set
        // here would mean a new call site was added — fail loudly at the bug.
        state
            .scheduler
            .set(scheduler)
            .expect("maintenance attaches exactly once");
        if state.config.background {
            let weak = Arc::downgrade(inner);
            let budget = state.config.budget_rows_per_tick;
            let interval = state.config.tick_interval;
            state
                .stats
                .background_attached
                .store(true, Ordering::Relaxed);
            *state.background.lock() = Some(aidx_maintenance::BackgroundLoop::spawn(
                interval,
                move || match weak.upgrade() {
                    Some(inner) => {
                        inner.maintenance.run_tick(budget);
                        true
                    }
                    None => false,
                },
            ));
        }
    }

    /// Run one budgeted maintenance tick; returns the rows it processed.
    pub(crate) fn run_tick(&self, budget_rows: usize) -> TickOutcome {
        // Invariant, not a recoverable state: every `run_tick` caller reaches
        // this through a `Database`/`DbInner` handle, and `attach` populated
        // the cell before the first such handle existed.
        let scheduler = self
            .scheduler
            .get()
            .expect("maintenance attached at build time");
        let outcome = scheduler.tick(budget_rows);
        self.stats.ticks.fetch_add(1, Ordering::Relaxed);
        outcome
    }
}

/// Summary of a synchronous [`crate::Database::compact`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Rows rewritten while merging undersized chunks.
    pub rows_merged: u64,
    /// Sealed chunks eliminated.
    pub chunks_removed: u64,
    /// Compacted tables published (epoch bumps through the reconcilable
    /// path).
    pub compactions_published: u64,
    /// Adaptive indexes carried across those epoch bumps instead of being
    /// dropped.
    pub indexes_reconciled: u64,
    /// Maintenance ticks it took.
    pub ticks: u64,
}

/// Job (a): adaptive chunk compaction with index reconciliation.
struct CompactionJob {
    db: Weak<DbInner>,
}

impl MaintenanceJob for CompactionJob {
    fn name(&self) -> &'static str {
        "chunk-compaction"
    }

    fn run_slice(&self, budget_rows: usize) -> TickOutcome {
        let Some(inner) = self.db.upgrade() else {
            return TickOutcome::idle();
        };
        let clock = inner.telemetry.clock();
        let config = &inner.maintenance.config;
        let stats = &inner.maintenance.stats;
        // an armed eager pass (alert runtime's TriggerCompaction) is
        // consumed by exactly one slice: every fragmented column is
        // eligible, slack or not
        let eager = inner
            .maintenance
            .compaction_requested
            .swap(false, Ordering::Relaxed);
        let policy = CompactionPolicy {
            min_fill: config.min_chunk_fill,
        };
        let mut remaining = budget_rows;
        let mut units = 0usize;
        let mut done = true;
        let tables: Vec<String> = inner
            .catalog
            .read()
            .table_names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        for table in tables {
            if remaining == 0 {
                done = false;
                break;
            }
            // one short write-lock critical section per table: plan every
            // fragmented column, merge the planned runs (fanned out across
            // the shared worker pool), publish a single epoch bump, and
            // reconcile — so no query can observe the new epoch before the
            // indexes have been carried over
            let mut catalog = inner.catalog.write();
            let Ok(snapshot) = catalog.table_arc(&table) else {
                continue; // dropped while we iterated
            };
            let arity = snapshot.schema().arity();
            // hottest columns first; ties fall back to schema order
            let mut order: Vec<usize> = (0..arity).collect();
            order.sort_by_key(|&i| {
                std::cmp::Reverse(
                    inner
                        .maintenance
                        .hotness
                        .score(&table, snapshot.schema().fields()[i].name()),
                )
            });
            let rows = snapshot.row_count();
            let mut plans: Vec<(usize, CompactionPlan)> = Vec::new();
            for column_index in order {
                if remaining == 0 {
                    done = false;
                    break;
                }
                // schema order came from this same snapshot, so a miss here
                // would be a catalog bug — but a panic in a maintenance
                // worker silently kills the whole background subsystem, so
                // degrade to skipping the table instead
                let Some(column) = snapshot.column_at(column_index) else {
                    break;
                };
                let capacity = column.segment_capacity().max(1);
                let lens = column.sealed_chunk_lens();
                // ignore columns whose chunk count is within the configured
                // slack of ideal — not worth an epoch bump
                let ideal = rows.div_ceil(capacity).max(1);
                if !eager && (lens.len() as f64) <= config.max_chunk_slack * ideal as f64 {
                    continue;
                }
                let plan = policy.plan(&lens, capacity, remaining);
                if plan.is_empty() {
                    // fragments may remain that this slice's budget cannot
                    // touch; report not-done so a later tick returns
                    if !policy.plan(&lens, capacity, usize::MAX).is_empty() {
                        done = false;
                    }
                    continue;
                }
                remaining -= plan.rows;
                plans.push((column_index, plan));
            }
            if plans.is_empty() {
                continue;
            }
            // merge every planned column's runs concurrently: the merges are
            // independent row copies off one immutable snapshot, so they fan
            // out across the query engine's worker pool (with parallelism 1
            // the pool runs them inline — the serial kernel unchanged)
            let merged: Vec<(usize, Column)> = inner
                .manager
                .pool()
                .run(plans.len(), |i| {
                    let (column_index, plan) = &plans[i];
                    snapshot
                        .column_at(*column_index)
                        .map(|column| (*column_index, column.compact_runs(&plan.runs)))
                })
                .into_iter()
                .flatten()
                .collect();
            if merged.is_empty() {
                continue;
            }
            let compacted = snapshot.replace_columns(merged);
            // publish can only be rejected on a row-count or schema
            // mismatch; compaction preserves both, but if that invariant
            // ever breaks we abandon this table's slice rather than
            // panicking the maintenance worker to death
            let Ok((old_epoch, new_epoch)) = catalog.publish_compacted(&table, compacted) else {
                continue;
            };
            let reconciled = inner
                .manager
                .reconcile_table_epoch(&table, old_epoch, new_epoch);
            let (rows_merged, chunks_removed) =
                plans
                    .iter()
                    .fold((0usize, 0usize), |(rows_acc, chunks_acc), (_, plan)| {
                        (rows_acc + plan.rows, chunks_acc + plan.chunks_removed)
                    });
            stats
                .rows_compacted
                .fetch_add(rows_merged as u64, Ordering::Relaxed);
            stats
                .chunks_removed
                .fetch_add(chunks_removed as u64, Ordering::Relaxed);
            stats.compactions_published.fetch_add(1, Ordering::Relaxed);
            stats
                .indexes_reconciled
                .fetch_add(reconciled as u64, Ordering::Relaxed);
            units += rows_merged;
            // budget-truncated plans leave fragments for a later slice; we
            // still hold the write lock, so the table we just published
            // cannot have been dropped (degrade-don't-die regardless)
            let Ok(republished) = catalog.table_arc(&table) else {
                continue;
            };
            for (column_index, _) in &plans {
                let Some(column) = republished.column_at(*column_index) else {
                    continue;
                };
                let capacity = column.segment_capacity().max(1);
                if !policy
                    .plan(&column.sealed_chunk_lens(), capacity, usize::MAX)
                    .is_empty()
                {
                    done = false;
                    break;
                }
            }
        }
        if let Some(started) = clock {
            inner
                .telemetry
                .record_job_slice(&inner.telemetry.compaction_ns, started, units as u64);
        }
        TickOutcome { units, done }
    }
}

/// Job (c): background checkpointing for durable databases.
///
/// Triggered by volume (rows logged since the last checkpoint reaching
/// [`aidx_wal::DurabilityConfig::checkpoint_after_rows`]) or by a table
/// drop, whose rows only a new checkpoint lets the disk give back.
/// Compaction does not trigger it: a re-layout moves no row, so the next
/// volume checkpoint records whatever layout it finds, and fragments it
/// captures are compacted again after recovery. A checkpoint is
/// all-or-nothing, so like an oversized index rebuild it may overrun the
/// slice budget rather than never run; failures are counted and retried on
/// a later tick — the log keeps the uncovered suffix, so a failed
/// checkpoint costs disk space, never durability.
struct CheckpointJob {
    db: Weak<DbInner>,
}

impl MaintenanceJob for CheckpointJob {
    fn name(&self) -> &'static str {
        "checkpoint"
    }

    fn run_slice(&self, _budget_rows: usize) -> TickOutcome {
        let Some(inner) = self.db.upgrade() else {
            return TickOutcome::idle();
        };
        let Some(durability) = &inner.durability else {
            return TickOutcome::idle();
        };
        if !durability.wants_checkpoint() {
            return TickOutcome::idle();
        }
        let clock = inner.telemetry.clock();
        let pending = durability.rows_since_checkpoint.load(Ordering::Relaxed);
        let outcome = match crate::durability::run_checkpoint(&inner) {
            Ok(_) => TickOutcome {
                // count the drained rows as this slice's work (at least one
                // unit, so drop-triggered checkpoints register as progress)
                units: usize::try_from(pending.max(1)).unwrap_or(usize::MAX),
                done: !durability.wants_checkpoint(),
            },
            Err(_) => {
                inner
                    .maintenance
                    .stats
                    .checkpoint_failures
                    .fetch_add(1, Ordering::Relaxed);
                // degrade, don't die: report done so an explicit compact()
                // loop cannot spin on a persistently failing disk; the
                // trigger stays armed and the next tick retries
                TickOutcome {
                    units: 0,
                    done: true,
                }
            }
        };
        if let Some(started) = clock {
            inner.telemetry.record_job_slice(
                &inner.telemetry.checkpoint_ns,
                started,
                outcome.units as u64,
            );
        }
        outcome
    }
}

/// Job (d): the continuous-observability reporter tick.
///
/// Rides the maintenance scheduler so a database with a background thread
/// reports at the tick cadence with no extra thread or timer. The tick is
/// one registry sweep plus a diff — it reports zero units so an explicit
/// [`crate::Database::compact`] loop (which runs until a tick does no work)
/// can never spin on it, and it idles entirely while telemetry is disabled
/// (a frozen registry would only produce all-zero deltas).
struct ReporterJob {
    db: Weak<DbInner>,
}

impl MaintenanceJob for ReporterJob {
    fn name(&self) -> &'static str {
        "telemetry-report"
    }

    fn run_slice(&self, _budget_rows: usize) -> TickOutcome {
        let Some(inner) = self.db.upgrade() else {
            return TickOutcome::idle();
        };
        if !inner.telemetry.enabled() {
            return TickOutcome::idle();
        }
        // the full observability tick: reporter diff plus alert evaluation
        // (the alert runtime's actions are safe from inside a scheduler
        // tick — compaction requests arm a flag, they don't re-enter)
        inner.observe_tick();
        TickOutcome {
            units: 0,
            done: true,
        }
    }
}

/// Job (b): background catch-up of adaptive indexes that lag their column
/// ([`crate::IndexManager::refresh_index`]).
struct IndexRefreshJob {
    db: Weak<DbInner>,
}

impl MaintenanceJob for IndexRefreshJob {
    fn name(&self) -> &'static str {
        "index-refresh"
    }

    fn run_slice(&self, budget_rows: usize) -> TickOutcome {
        let Some(inner) = self.db.upgrade() else {
            return TickOutcome::idle();
        };
        let clock = inner.telemetry.clock();
        let mut remaining = budget_rows;
        let mut units = 0usize;
        let mut done = true;
        for (column_id, _score) in inner.maintenance.hotness.ranked() {
            if remaining == 0 {
                done = false;
                break;
            }
            let Some((index_epoch, index_len)) = inner.manager.index_version(&column_id) else {
                continue; // nothing registered: the next query decides
            };
            let snapshot = {
                let catalog = inner.catalog.read();
                catalog.table_snapshot(column_id.table()).ok()
            };
            let Some((snapshot, epoch)) = snapshot else {
                continue; // table dropped; the straggler sweep handles it
            };
            let rows = snapshot.row_count();
            let stale = index_epoch < epoch || (index_epoch == epoch && index_len < rows);
            if !stale {
                continue;
            }
            if rows > remaining && units > 0 {
                // a rebuild is all-or-nothing; this slice already did work,
                // so defer the possible big one to the next slice, where it
                // runs as the first (budget-overrunning) item
                done = false;
                continue;
            }
            // minimum-progress rule: a slice that has spent nothing yet may
            // overrun its budget by one rebuild — otherwise any index larger
            // than budget_rows_per_tick could never be refreshed at all
            let Some(segment) = snapshot
                .column(column_id.column())
                .ok()
                .and_then(|c| c.as_i64())
            else {
                continue;
            };
            if inner.manager.refresh_index(&column_id, segment, epoch) {
                remaining = remaining.saturating_sub(rows);
                units += rows;
                inner
                    .maintenance
                    .stats
                    .indexes_refreshed
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(started) = clock {
            inner.telemetry.record_job_slice(
                &inner.telemetry.index_refresh_ns,
                started,
                units as u64,
            );
        }
        TickOutcome { units, done }
    }
}
