//! Per-query trace recording: a query's lifecycle as typed span events.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// One stage of a query's lifecycle, in execution order. The vocabulary is
/// the adaptive engine's: the *index probe* event carries the paper's
/// per-query refinement measurements (effort delta, piece growth), which is
/// what makes index convergence observable from a live trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpanEvent {
    /// Planning: which predicate drives the query through the adaptive
    /// index, and how selective the planner estimated it to be.
    Plan {
        /// Driver column, `None` for full-table queries.
        driver_column: Option<String>,
        /// Estimated fraction of the key domain the driver predicate
        /// selects (1.0 when the domain is unknown or degenerate).
        estimated_selectivity: f64,
        /// Number of residual (late-materialized) predicates.
        residual_predicates: u64,
    },
    /// The driver predicate answered through the adaptive index — the
    /// refinement step: queries ARE the index-building mechanism, and this
    /// event records how much building this one did.
    IndexProbe {
        /// Driver column name.
        column: String,
        /// Strategy label (`cracking`, `adaptive-merging`, ...).
        strategy: String,
        /// Range probes routed through the index (an `InSet` predicate
        /// probes once per key).
        probes: u64,
        /// Index pieces (cracked partitions / fragments / runs) before the
        /// probe.
        pieces_before: u64,
        /// Pieces after — `pieces_after - pieces_before` is the pieces the
        /// probe created.
        pieces_after: u64,
        /// Cumulative-effort delta the probe spent refining the index
        /// (machine-independent work units). The paper's per-query cost
        /// series, read live.
        effort_delta: u64,
        /// The index was rebuilt from the snapshot first (stale epoch or
        /// missing rows).
        rebuilt: bool,
        /// The probe bypassed the index with a snapshot scan (lagging
        /// reader) — no refinement happened.
        lagging_scan: bool,
    },
    /// Zone-map pruning over the chunked storage layer.
    ZoneMapPrune {
        /// Chunks whose values were actually read.
        chunks_scanned: u64,
        /// Chunks decided by their zone map without a read: skipped because
        /// no value can match (or, in a residual filter, kept whole because
        /// every value matches).
        chunks_pruned: u64,
    },
    /// One residual predicate filtered the candidate positions.
    ResidualFilter {
        /// Residual column name.
        column: String,
        /// Candidate positions entering the filter.
        candidates_in: u64,
        /// Positions surviving it.
        rows_out: u64,
    },
    /// Result materialization (and the optional aggregate).
    Materialize {
        /// Qualifying rows in the result.
        rows: u64,
        /// Whether an aggregate was computed over them.
        aggregated: bool,
    },
}

impl fmt::Display for SpanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanEvent::Plan {
                driver_column,
                estimated_selectivity,
                residual_predicates,
            } => write!(
                f,
                "plan       driver={} est_selectivity={:.4} residuals={}",
                driver_column.as_deref().unwrap_or("<none>"),
                estimated_selectivity,
                residual_predicates
            ),
            SpanEvent::IndexProbe {
                column,
                strategy,
                probes,
                pieces_before,
                pieces_after,
                effort_delta,
                rebuilt,
                lagging_scan,
            } => write!(
                f,
                "probe      column={column} strategy={strategy} probes={probes} \
                 pieces={pieces_before}->{pieces_after} effort_delta={effort_delta}\
                 {}{}",
                if *rebuilt { " rebuilt" } else { "" },
                if *lagging_scan { " lagging-scan" } else { "" },
            ),
            SpanEvent::ZoneMapPrune {
                chunks_scanned,
                chunks_pruned,
            } => write!(
                f,
                "prune      chunks_scanned={chunks_scanned} chunks_pruned={chunks_pruned}"
            ),
            SpanEvent::ResidualFilter {
                column,
                candidates_in,
                rows_out,
            } => write!(
                f,
                "residual   column={column} candidates={candidates_in} rows_out={rows_out}"
            ),
            SpanEvent::Materialize { rows, aggregated } => {
                write!(f, "materialize rows={rows} aggregated={aggregated}")
            }
        }
    }
}

/// The completed trace of one query: its span events in execution order
/// plus the wall-clock the query took.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryTrace {
    /// Span events in the order they happened.
    pub events: Vec<SpanEvent>,
    /// Wall-clock for the whole query, in nanoseconds.
    pub elapsed_ns: u64,
}

impl QueryTrace {
    /// Total refinement effort this query spent reorganizing indexes (sum
    /// of every probe's `effort_delta`) — one point of the paper's
    /// per-query cost series.
    pub fn refinement_effort(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                SpanEvent::IndexProbe { effort_delta, .. } => *effort_delta,
                _ => 0,
            })
            .sum()
    }

    /// Index pieces created by this query (probe growth summed).
    pub fn pieces_created(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                SpanEvent::IndexProbe {
                    pieces_before,
                    pieces_after,
                    ..
                } => pieces_after.saturating_sub(*pieces_before),
                _ => 0,
            })
            .sum()
    }

    /// The probe events' `pieces_after` reading, if the query probed an
    /// index (the convergence series README plots).
    pub fn pieces_after(&self) -> Option<u64> {
        self.events.iter().rev().find_map(|e| match e {
            SpanEvent::IndexProbe { pieces_after, .. } => Some(*pieces_after),
            _ => None,
        })
    }

    /// Human-readable multi-line render (one span per line).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "total      elapsed={}ns refinement_effort={}\n",
            self.elapsed_ns,
            self.refinement_effort()
        ));
        out
    }
}

impl fmt::Display for QueryTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

/// Collects span events while one query executes; [`TraceRecorder::finish`]
/// seals it into a [`QueryTrace`].
///
/// The recorder is allocated only for traced queries (`explain_profile`);
/// the untraced hot path carries `None` and pays nothing beyond the
/// engine's single enabled-flag load.
#[derive(Debug)]
pub struct TraceRecorder {
    events: Vec<SpanEvent>,
    started: Instant,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// Start recording (starts the query clock).
    pub fn new() -> Self {
        TraceRecorder {
            events: Vec::with_capacity(6),
            started: Instant::now(),
        }
    }

    /// Append one span event.
    pub fn record(&mut self, event: SpanEvent) {
        self.events.push(event);
    }

    /// Stop the clock and seal the trace.
    pub fn finish(self) -> QueryTrace {
        QueryTrace {
            elapsed_ns: u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryTrace {
        let mut rec = TraceRecorder::new();
        rec.record(SpanEvent::Plan {
            driver_column: Some("ts".into()),
            estimated_selectivity: 0.25,
            residual_predicates: 1,
        });
        rec.record(SpanEvent::IndexProbe {
            column: "ts".into(),
            strategy: "cracking".into(),
            probes: 1,
            pieces_before: 1,
            pieces_after: 3,
            effort_delta: 4096,
            rebuilt: false,
            lagging_scan: false,
        });
        rec.record(SpanEvent::ZoneMapPrune {
            chunks_scanned: 2,
            chunks_pruned: 6,
        });
        rec.record(SpanEvent::ResidualFilter {
            column: "kind".into(),
            candidates_in: 100,
            rows_out: 20,
        });
        rec.record(SpanEvent::Materialize {
            rows: 20,
            aggregated: true,
        });
        rec.finish()
    }

    #[test]
    fn derived_series_read_the_probe_events() {
        let trace = sample();
        assert_eq!(trace.refinement_effort(), 4096);
        assert_eq!(trace.pieces_created(), 2);
        assert_eq!(trace.pieces_after(), Some(3));
        assert_eq!(trace.events.len(), 5);
    }

    #[test]
    fn render_text_lists_every_span_in_order() {
        let text = sample().render_text();
        let plan = text.find("plan").unwrap();
        let probe = text.find("probe").unwrap();
        let prune = text.find("prune").unwrap();
        let materialize = text.find("materialize").unwrap();
        assert!(plan < probe && probe < prune && prune < materialize);
        assert!(text.contains("effort_delta=4096"));
        assert!(text.contains("pieces=1->3"));
    }

    #[test]
    fn trace_serde_round_trips() {
        let trace = sample();
        let json = serde_json::to_string(&trace).unwrap();
        let back: QueryTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(trace, back);
    }
}
