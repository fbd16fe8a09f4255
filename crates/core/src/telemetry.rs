//! The engine's telemetry: pre-registered instrument handles over one
//! shared [`Registry`], and the structured snapshot the facade exposes.
//!
//! Every layer of the engine records into the same registry — the executor
//! (query latencies, pruning, refinement effort), the index manager (probe
//! outcomes), maintenance jobs (durations and outcomes), the WAL
//! (append/fsync latencies, via [`aidx_wal::WalTelemetry`]) — so one
//! [`crate::Database::telemetry`] call sees the whole engine. Handles are
//! resolved once at build time; the hot path pays one relaxed atomic load
//! (the master switch) plus a handful of relaxed adds when enabled, and
//! only the load when disabled.

use aidx_telemetry::{
    Counter, Histogram, QueryTrace, Registry, Reporter, Snapshot, SnapshotDelta, TraceSampler,
};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Pre-resolved instrument handles for every engine-side metric.
#[derive(Debug)]
pub(crate) struct EngineTelemetry {
    registry: Arc<Registry>,
    /// Master switch, shared with the WAL's instruments. One relaxed load
    /// per query is the entire disabled-path cost.
    enabled: Arc<AtomicBool>,
    /// `engine.queries_served` — queries completed through any session.
    pub(crate) queries_served: Arc<Counter>,
    /// `engine.query_ns` — end-to-end query latency.
    pub(crate) query_ns: Arc<Histogram>,
    /// `engine.rows_inserted` — rows appended through sessions.
    pub(crate) rows_inserted: Arc<Counter>,
    /// `engine.insert_ns` — end-to-end insert-call latency.
    pub(crate) insert_ns: Arc<Histogram>,
    /// `engine.index.refinement_effort` — cumulative effort deltas spent
    /// refining indexes as a side effect of queries (the paper's series,
    /// aggregated).
    pub(crate) refinement_effort: Arc<Counter>,
    /// `engine.index.rebuilds` — indexes rebuilt from a newer snapshot.
    pub(crate) index_rebuilds: Arc<Counter>,
    /// `engine.index.lagging_scans` — probes answered by a snapshot scan
    /// because the reader lagged the index.
    pub(crate) lagging_scans: Arc<Counter>,
    /// `engine.prune.chunks_scanned` — chunks whose values were read.
    pub(crate) chunks_scanned: Arc<Counter>,
    /// `engine.prune.chunks_pruned` — chunks decided by their zone map
    /// without a read (skipped, or kept whole by a residual filter).
    pub(crate) chunks_pruned: Arc<Counter>,
    /// `engine.rows_materialized` — qualifying rows across all queries,
    /// whether their row ids were copied or only counted from the cuts.
    pub(crate) rows_materialized: Arc<Counter>,
    /// `maintenance.compaction_ns` — chunk-compaction job slice durations.
    pub(crate) compaction_ns: Arc<Histogram>,
    /// `maintenance.index_refresh_ns` — index-refresh job slice durations.
    pub(crate) index_refresh_ns: Arc<Histogram>,
    /// `maintenance.checkpoint_ns` — checkpoint job slice durations.
    pub(crate) checkpoint_ns: Arc<Histogram>,
    /// `maintenance.units_processed` — work units across all job slices.
    pub(crate) maintenance_units: Arc<Counter>,
    /// `maintenance.idle_slices` — job slices that found nothing to do.
    pub(crate) maintenance_idle: Arc<Counter>,
}

impl EngineTelemetry {
    /// Build the engine's instruments on a fresh registry.
    pub(crate) fn new(enabled: bool) -> Self {
        let registry = Arc::new(Registry::new());
        EngineTelemetry {
            enabled: Arc::new(AtomicBool::new(enabled)),
            queries_served: registry.counter("engine.queries_served"),
            query_ns: registry.histogram("engine.query_ns"),
            rows_inserted: registry.counter("engine.rows_inserted"),
            insert_ns: registry.histogram("engine.insert_ns"),
            refinement_effort: registry.counter("engine.index.refinement_effort"),
            index_rebuilds: registry.counter("engine.index.rebuilds"),
            lagging_scans: registry.counter("engine.index.lagging_scans"),
            chunks_scanned: registry.counter("engine.prune.chunks_scanned"),
            chunks_pruned: registry.counter("engine.prune.chunks_pruned"),
            rows_materialized: registry.counter("engine.rows_materialized"),
            compaction_ns: registry.histogram("maintenance.compaction_ns"),
            index_refresh_ns: registry.histogram("maintenance.index_refresh_ns"),
            checkpoint_ns: registry.histogram("maintenance.checkpoint_ns"),
            maintenance_units: registry.counter("maintenance.units_processed"),
            maintenance_idle: registry.counter("maintenance.idle_slices"),
            registry,
        }
    }

    /// The master switch — the one relaxed load the disabled path pays.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording on or off at runtime.
    pub(crate) fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The switch handle shared with subsystems that record independently
    /// (the WAL).
    pub(crate) fn enabled_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.enabled)
    }

    /// The shared registry (for WAL instrument registration).
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// An owning handle on the shared registry, for front-ends (the TCP
    /// server) that instrument themselves alongside the engine's metrics.
    pub(crate) fn registry_arc(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// `Instant::now()` when enabled, `None` otherwise — the pattern every
    /// recording site uses so disabled telemetry never reads the clock.
    pub(crate) fn clock(&self) -> Option<Instant> {
        self.enabled().then(Instant::now)
    }

    /// Record one maintenance job slice: its duration into the per-job
    /// histogram, its processed units and idleness into the shared
    /// counters.
    pub(crate) fn record_job_slice(&self, job: &Histogram, started: Instant, units: u64) {
        job.record_duration(started.elapsed());
        if units == 0 {
            self.maintenance_idle.incr();
        } else {
            self.maintenance_units.add(units);
        }
    }

    /// Snapshot every registered metric.
    pub(crate) fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            enabled: self.enabled(),
            metrics: self.registry.snapshot(),
        }
    }
}

/// Recent sampled traces kept by the engine's [`TraceSampler`] ring.
pub(crate) const TRACE_RING_CAPACITY: usize = 64;

/// Slowest sampled traces retained since startup.
pub(crate) const SLOWEST_TRACE_CAPACITY: usize = 8;

/// The continuous-observability state hung off the database internals: the
/// every-Nth-query [`TraceSampler`] and the snapshot-diffing [`Reporter`].
/// Both are engine-agnostic `aidx-telemetry` types; this wrapper adds the
/// sharing (mutexes) and the wall clock the reporter deliberately does not
/// own.
#[derive(Debug)]
pub(crate) struct ObservabilityState {
    /// Every-Nth-query trace sampling; the unsampled path costs one relaxed
    /// `fetch_add`.
    pub(crate) sampler: TraceSampler,
    reporter: parking_lot::Mutex<ReporterState>,
}

#[derive(Debug)]
struct ReporterState {
    reporter: Reporter,
    /// When the previous tick ran, so the next delta carries a measured
    /// interval (the reporter itself is clock-free for determinism).
    last_tick: Option<Instant>,
}

impl ObservabilityState {
    pub(crate) fn new(trace_every: u64, report_capacity: usize) -> Self {
        ObservabilityState {
            sampler: TraceSampler::new(trace_every, TRACE_RING_CAPACITY, SLOWEST_TRACE_CAPACITY),
            reporter: parking_lot::Mutex::new(ReporterState {
                reporter: Reporter::new(report_capacity),
                last_tick: None,
            }),
        }
    }

    /// Take a registry snapshot and fold it into the reporter: the first
    /// call primes the baseline and returns `None`, every later call
    /// returns the interval's [`SnapshotDelta`] (also kept in the ring).
    pub(crate) fn report_tick(&self, telemetry: &EngineTelemetry) -> Option<SnapshotDelta> {
        let snapshot = telemetry.registry.snapshot();
        let mut state = self.reporter.lock();
        let interval = state
            .last_tick
            .map(|t| t.elapsed())
            .unwrap_or(std::time::Duration::ZERO);
        state.last_tick = Some(Instant::now());
        state.reporter.tick(snapshot, interval).cloned()
    }

    /// Recent deltas, oldest first.
    pub(crate) fn recent_reports(&self) -> Vec<SnapshotDelta> {
        self.reporter.lock().reporter.recent().cloned().collect()
    }

    /// The most recent delta, if an interval has completed.
    pub(crate) fn latest_report(&self) -> Option<SnapshotDelta> {
        self.reporter.lock().reporter.latest().cloned()
    }

    /// Recent sampled traces, oldest first.
    pub(crate) fn recent_traces(&self) -> Vec<QueryTrace> {
        self.sampler.recent()
    }

    /// Slowest sampled traces since startup, slowest first.
    pub(crate) fn slowest_traces(&self) -> Vec<QueryTrace> {
        self.sampler.slowest()
    }
}

/// A point-in-time, serde-serializable view of the engine's telemetry, as
/// returned by [`crate::Database::telemetry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Whether recording was enabled when the snapshot was taken (counters
    /// freeze, rather than reset, while disabled).
    pub enabled: bool,
    /// Every engine metric, sorted by name. Counter names are stable API:
    /// `engine.*` (executor + index layer), `maintenance.*` (background
    /// jobs), `wal.*` (durability, present only on durable databases).
    pub metrics: Snapshot,
}
