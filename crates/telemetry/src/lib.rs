//! Engine-wide observability primitives: a lock-free metrics registry and
//! per-query trace events.
//!
//! The paper's central claim is a *trajectory* — per-query cost falls as
//! cracking and merging refine the index as a side effect of queries. This
//! crate is the measurement substrate that makes the trajectory visible in a
//! *running* engine rather than only in offline bench binaries:
//!
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s and log₂-bucket
//!   [`Histogram`]s. Registration takes a short lock once; every update is
//!   a single relaxed atomic RMW, so hot paths hold `Arc` handles and never
//!   contend. [`Registry::snapshot`] produces a serde-serializable,
//!   mergeable [`Snapshot`] with p50/p90/p99 readout.
//! * [`TraceRecorder`] / [`QueryTrace`] — one query's lifecycle as typed
//!   [`SpanEvent`]s (plan, index probe with refinement-effort delta,
//!   zone-map pruning, residual filter, materialize), with a human-readable
//!   text render.
//! * [`Reporter`] / [`SnapshotDelta`] — the continuous view: successive
//!   snapshots diffed into per-interval rates and *windowed* histogram
//!   quantiles, kept in a bounded ring. The convergence claim is about the
//!   derivative of refinement effort; this is where the derivative lives.
//! * [`TraceSampler`] — every-Nth-query tracing (one relaxed `fetch_add`
//!   on the unsampled path) feeding a recent-trace ring and a slowest-K
//!   reservoir, so a production server always has traces on hand.
//! * [`Snapshot::render_prometheus`] — Prometheus text exposition of any
//!   snapshot, for scrape-based monitoring via the server's `INTROSPECT`
//!   opcode.
//! * [`AlertEngine`] / [`AlertRule`] — detection over the reporter's
//!   signal: declarative rules (counter rate, gauge level, windowed
//!   histogram quantile, health-verdict predicates) with
//!   for-N-consecutive-intervals semantics, a pending → firing → resolved
//!   state machine per rule, and a bounded transition journal. Firing
//!   rules hand an [`AlertAction`] back to the caller — the embedding
//!   engine is where self-healing happens.
//!
//! The crate is std-only and engine-agnostic: it knows the *vocabulary* of
//! the adaptive engine (pieces, refinement effort, pruning) but holds no
//! reference to any engine type, so every layer — core, WAL, server, bench
//! binaries — can record into the same structures.

#![deny(missing_docs)]

mod alert;
mod metrics;
mod prom;
mod report;
mod sample;
mod trace;

pub use alert::{
    AlertAction, AlertCondition, AlertConfig, AlertEngine, AlertEvent, AlertEventKind, AlertRule,
    AlertState, AlertStatus, FiredAlert, HealthSignal, DEFAULT_ALERT_JOURNAL_CAPACITY,
};
pub use metrics::{
    Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot, Registry,
    Snapshot, HISTOGRAM_BUCKETS,
};
pub use prom::{escape_label_value, render_labeled_gauge, sanitize_metric_name, LabeledSample};
pub use report::{CounterDelta, GaugeDelta, Reporter, SnapshotDelta};
pub use sample::TraceSampler;
pub use trace::{QueryTrace, SpanEvent, TraceRecorder};
