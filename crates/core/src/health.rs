//! The index-health monitor: a per-column convergence verdict derived from
//! the registry and the sampled-trace window.
//!
//! The paper's Figure-1 claim is a trajectory: per-query refinement effort
//! starts near a full scan and falls toward a tree lookup as cracking and
//! merging amortize index construction across queries. "Stochastic Database
//! Cracking" (PVLDB 2012) shows the trajectory is not guaranteed — a
//! sequential workload cracks one thin slice off the same huge piece every
//! query, so per-query effort barely falls. [`IndexHealth`] turns that
//! analysis into a live signal: it compares the *windowed* effort per query
//! (from the [`crate::Database::recent_traces`] sampling ring) against the
//! *cumulative* average (from the index manager) and labels each column
//! [`HealthVerdict::Converging`], [`HealthVerdict::Converged`],
//! [`HealthVerdict::Stalled`], or [`HealthVerdict::Regressing`].

use crate::manager::{ColumnId, IndexInfo};
use aidx_telemetry::{QueryTrace, SpanEvent};
use std::fmt;
use std::fmt::Write as _;

/// The convergence verdict for one indexed column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthVerdict {
    /// Windowed effort per query is well below the cumulative average:
    /// the index is amortizing construction the way the paper promises.
    Converging,
    /// The strategy reports convergence, or windowed effort per query has
    /// fallen to a negligible fraction of the column — queries now pay
    /// lookup prices.
    Converged,
    /// Windowed effort per query is no longer falling meaningfully below
    /// the cumulative average — the sequential-workload pathology, where
    /// every query re-scans the same large unindexed remainder.
    Stalled,
    /// Windowed effort per query *exceeds* the cumulative average: the
    /// workload shifted into unrefined territory or updates degraded the
    /// index, and refinement cost is climbing again.
    Regressing,
}

impl fmt::Display for HealthVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HealthVerdict::Converging => "converging",
            HealthVerdict::Converged => "converged",
            HealthVerdict::Stalled => "stalled",
            HealthVerdict::Regressing => "regressing",
        })
    }
}

impl HealthVerdict {
    /// Stable numeric code for metric exports (the value of the
    /// `aidx_index_health{table,column}` Prometheus gauge): 0 converging,
    /// 1 converged, 2 stalled, 3 regressing — ordered so "alert if ≥ 2"
    /// captures both pathologies.
    pub fn code(&self) -> u8 {
        match self {
            HealthVerdict::Converging => 0,
            HealthVerdict::Converged => 1,
            HealthVerdict::Stalled => 2,
            HealthVerdict::Regressing => 3,
        }
    }
}

/// Health summary for one indexed column, as returned by
/// [`crate::Database::index_health`].
#[derive(Debug, Clone, PartialEq)]
pub struct IndexHealth {
    /// The indexed column.
    pub column: ColumnId,
    /// Strategy name (as in [`IndexInfo`]).
    pub strategy: &'static str,
    /// Tuples covered by the index.
    pub tuples: usize,
    /// Queries answered by the current index build (cumulative).
    pub queries: u64,
    /// Cumulative refinement effort spent on this column.
    pub cumulative_effort: u64,
    /// Sampled queries that probed this column inside the trace window.
    pub windowed_queries: u64,
    /// Refinement effort those windowed queries spent.
    pub windowed_effort: u64,
    /// Index pieces after the most recent sampled probe, when the window
    /// saw one (piece count is the cracking progress meter).
    pub pieces: Option<u64>,
    /// Whether the strategy itself reports convergence.
    pub strategy_converged: bool,
    /// The derived verdict.
    pub verdict: HealthVerdict,
}

impl IndexHealth {
    /// Windowed effort per sampled query (the live derivative of the
    /// paper's effort curve). `None` when the window saw no probe.
    pub fn windowed_effort_per_query(&self) -> Option<f64> {
        (self.windowed_queries > 0)
            .then(|| self.windowed_effort as f64 / self.windowed_queries as f64)
    }

    /// Cumulative effort per query since the index was built.
    pub fn cumulative_effort_per_query(&self) -> f64 {
        self.cumulative_effort as f64 / self.queries.max(1) as f64
    }

    /// One health line for reporter output.
    pub fn render_line(&self) -> String {
        format!(
            "{}.{:<32} {:<12} tuples={} pieces={} effort/q cum={:.0} win={} verdict={}",
            self.column.table(),
            self.column.column(),
            self.strategy,
            self.tuples,
            self.pieces.map_or_else(|| "-".into(), |p| p.to_string()),
            self.cumulative_effort_per_query(),
            self.windowed_effort_per_query()
                .map_or_else(|| "-".into(), |w| format!("{w:.0}")),
            self.verdict,
        )
    }
}

/// Windowed effort per query at or below this fraction of the column size
/// counts as converged: the query is doing piecework, not scans.
const CONVERGED_FRACTION: f64 = 1.0 / 64.0;

/// Windowed-to-cumulative effort ratio above which the trajectory counts
/// as regressing (effort is *climbing*).
const REGRESSING_RATIO: f64 = 1.25;

/// Windowed-to-cumulative effort ratio above which the trajectory counts
/// as stalled (effort is not falling meaningfully).
const STALLED_RATIO: f64 = 0.5;

/// Derive per-column health from the index registry and the sampled-trace
/// window.
///
/// Trace probe events carry the driver *column name*; columns are matched
/// by name, so two tables sharing a column name share a window (the
/// registry side stays exact). Output order follows `infos` (sorted by
/// column).
pub fn derive_index_health(infos: &[IndexInfo], window: &[QueryTrace]) -> Vec<IndexHealth> {
    infos
        .iter()
        .map(|info| {
            let mut windowed_queries = 0u64;
            let mut windowed_effort = 0u64;
            let mut pieces = None;
            for trace in window {
                for event in &trace.events {
                    if let SpanEvent::IndexProbe {
                        column,
                        effort_delta,
                        pieces_after,
                        ..
                    } = event
                    {
                        if column == info.column.column() {
                            windowed_queries += 1;
                            windowed_effort += effort_delta;
                            pieces = Some(*pieces_after);
                        }
                    }
                }
            }
            let health = IndexHealth {
                column: info.column.clone(),
                strategy: info.strategy,
                tuples: info.tuples,
                queries: info.queries,
                cumulative_effort: info.effort,
                windowed_queries,
                windowed_effort,
                pieces,
                strategy_converged: info.converged,
                verdict: HealthVerdict::Converging,
            };
            let verdict = verdict_for(&health);
            IndexHealth { verdict, ..health }
        })
        .collect()
}

fn verdict_for(health: &IndexHealth) -> HealthVerdict {
    let Some(windowed) = health.windowed_effort_per_query() else {
        // no sampled evidence this window: only the strategy's own claim
        // can settle it
        return if health.strategy_converged {
            HealthVerdict::Converged
        } else {
            HealthVerdict::Converging
        };
    };
    if health.strategy_converged || windowed <= CONVERGED_FRACTION * health.tuples.max(1) as f64 {
        return HealthVerdict::Converged;
    }
    let cumulative = health.cumulative_effort_per_query();
    if cumulative <= 0.0 {
        // effort appearing where none ever was: climbing from zero
        return HealthVerdict::Regressing;
    }
    let ratio = windowed / cumulative;
    if ratio > REGRESSING_RATIO {
        HealthVerdict::Regressing
    } else if ratio >= STALLED_RATIO {
        HealthVerdict::Stalled
    } else {
        HealthVerdict::Converging
    }
}

/// Render one line per column (see [`IndexHealth::render_line`]); empty
/// string when nothing is indexed.
pub fn render_index_health(health: &[IndexHealth]) -> String {
    let mut out = String::new();
    for h in health {
        let _ = writeln!(out, "{}", h.render_line());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(column: &str, tuples: usize, queries: u64, effort: u64, converged: bool) -> IndexInfo {
        IndexInfo {
            column: ColumnId::new("t", column),
            strategy: "cracking",
            tuples,
            queries,
            effort,
            auxiliary_bytes: 0,
            converged,
        }
    }

    fn probe_trace(column: &str, effort_delta: u64, pieces_after: u64) -> QueryTrace {
        QueryTrace {
            events: vec![SpanEvent::IndexProbe {
                column: column.into(),
                strategy: "cracking".into(),
                probes: 1,
                pieces_before: pieces_after.saturating_sub(2),
                pieces_after,
                effort_delta,
                rebuilt: false,
                lagging_scan: false,
            }],
            elapsed_ns: 1000,
        }
    }

    #[test]
    fn empty_window_defers_to_the_strategy_flag() {
        let health = derive_index_health(
            &[
                info("k", 1000, 10, 5000, false),
                info("c", 1000, 10, 0, true),
            ],
            &[],
        );
        assert_eq!(health.len(), 2);
        assert_eq!(health[0].verdict, HealthVerdict::Converging);
        assert_eq!(health[0].windowed_effort_per_query(), None);
        assert_eq!(health[1].verdict, HealthVerdict::Converged);
    }

    #[test]
    fn falling_windowed_effort_is_converging_then_converged() {
        // cumulative average 1000/query, window spends 100/query on a
        // 10_000-tuple column: falling but above tuples/64 → converging
        let infos = [info("k", 10_000, 100, 100_000, false)];
        let window: Vec<QueryTrace> = (0..4).map(|_| probe_trace("k", 400, 50)).collect();
        let health = derive_index_health(&infos, &window);
        assert_eq!(health[0].verdict, HealthVerdict::Converging);
        assert_eq!(health[0].windowed_queries, 4);
        assert_eq!(health[0].windowed_effort, 1600);
        assert_eq!(health[0].pieces, Some(50));
        // window effort at ≤ tuples/64 per query → converged
        let window: Vec<QueryTrace> = (0..4).map(|_| probe_trace("k", 100, 80)).collect();
        let health = derive_index_health(&infos, &window);
        assert_eq!(health[0].verdict, HealthVerdict::Converged);
    }

    #[test]
    fn flat_effort_is_stalled_and_climbing_effort_is_regressing() {
        // cumulative average 1000/query
        let infos = [info("k", 10_000, 100, 100_000, false)];
        // window at 600/query: within [0.5, 1.25] of cumulative → stalled
        let window: Vec<QueryTrace> = (0..4).map(|_| probe_trace("k", 600, 9)).collect();
        assert_eq!(
            derive_index_health(&infos, &window)[0].verdict,
            HealthVerdict::Stalled
        );
        // window at 2000/query: climbing → regressing
        let window: Vec<QueryTrace> = (0..4).map(|_| probe_trace("k", 2000, 9)).collect();
        assert_eq!(
            derive_index_health(&infos, &window)[0].verdict,
            HealthVerdict::Regressing
        );
    }

    #[test]
    fn strategy_convergence_wins_over_windowed_noise() {
        let infos = [info("k", 1000, 50, 50_000, true)];
        let window = [probe_trace("k", 5000, 3)];
        assert_eq!(
            derive_index_health(&infos, &window)[0].verdict,
            HealthVerdict::Converged
        );
    }

    #[test]
    fn probes_of_other_columns_do_not_pollute_the_window() {
        let infos = [info("k", 10_000, 10, 10_000, false)];
        let window = [probe_trace("other", 9999, 7)];
        let health = derive_index_health(&infos, &window);
        assert_eq!(health[0].windowed_queries, 0);
        assert_eq!(health[0].pieces, None);
    }

    #[test]
    fn render_mentions_column_and_verdict() {
        let health = derive_index_health(
            &[info("k", 1000, 10, 5000, true)],
            &[probe_trace("k", 2, 40)],
        );
        let text = render_index_health(&health);
        assert!(text.contains("t.k"), "{text}");
        assert!(text.contains("converged"), "{text}");
        assert!(text.contains("pieces=40"), "{text}");
        assert_eq!(render_index_health(&[]), "");
    }
}
