//! Declarative alerting over reporter deltas and health verdicts.
//!
//! The reporter ([`crate::Reporter`]) turns cumulative metrics into
//! per-interval signal; this module turns that signal into *detection*: a
//! set of [`AlertRule`]s is evaluated once per reporter interval against
//! the fresh [`SnapshotDelta`] (and, for verdict rules, the engine's
//! per-column health labels), each rule runs a small
//! pending → firing → resolved state machine with
//! for-N-consecutive-intervals semantics, and every transition is recorded
//! in a bounded [`AlertEvent`] journal.
//!
//! Like the rest of the crate, the engine here is deliberately passive and
//! engine-agnostic: it holds no clock (time is the caller's evaluation
//! cadence, counted in ticks), knows no engine types (health verdicts
//! arrive as plain [`HealthSignal`] labels), and *executes* nothing — a
//! rule that transitions to firing hands its [`AlertAction`] back to the
//! caller, which is where self-healing (an index rebuild, a forced
//! compaction) actually happens.

use crate::report::SnapshotDelta;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Default [`AlertConfig::journal_capacity`]: alert transitions retained.
pub const DEFAULT_ALERT_JOURNAL_CAPACITY: usize = 256;

/// One column's health verdict in engine-agnostic form (the telemetry
/// crate knows no core types): `table`/`column` name the column, `verdict`
/// is the engine's lowercase label (`"converging"`, `"converged"`,
/// `"stalled"`, `"regressing"`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthSignal {
    /// Table the column belongs to.
    pub table: String,
    /// Column name.
    pub column: String,
    /// Lowercase verdict label.
    pub verdict: String,
}

impl HealthSignal {
    /// Build a signal from its three labels.
    pub fn new(
        table: impl Into<String>,
        column: impl Into<String>,
        verdict: impl Into<String>,
    ) -> Self {
        HealthSignal {
            table: table.into(),
            column: column.into(),
            verdict: verdict.into(),
        }
    }

    /// The column's full `table.column` spelling.
    pub fn qualified(&self) -> String {
        format!("{}.{}", self.table, self.column)
    }
}

/// What an [`AlertRule`] watches. Conditions over metrics that are absent
/// from the evaluated interval simply do not breach (a rule about a
/// counter the process never registers stays idle forever, it does not
/// error).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AlertCondition {
    /// The named counter's per-second rate over the interval exceeds
    /// `per_second`. Degenerate (near-zero-length) intervals produce no
    /// rate at all, so they can neither breach nor heal a rule falsely.
    CounterRateAbove {
        /// Registry counter name.
        counter: String,
        /// Exclusive rate threshold, events per second.
        per_second: f64,
    },
    /// The named gauge's level at the end of the interval exceeds `level`.
    GaugeAbove {
        /// Registry gauge name.
        gauge: String,
        /// Exclusive level threshold.
        level: i64,
    },
    /// The named *windowed* histogram's quantile over this interval's
    /// observations exceeds `threshold` (in the histogram's recorded
    /// units, e.g. nanoseconds for `*_ns`). An interval with no
    /// observations has no quantile and does not breach.
    HistogramQuantileAbove {
        /// Registry histogram name.
        histogram: String,
        /// Quantile in `0.0..=1.0` (e.g. `0.99`).
        quantile: f64,
        /// Exclusive threshold in recorded units.
        threshold: u64,
    },
    /// Some column's health verdict is one of `verdicts`. `column` of
    /// `None` matches every reported column; `Some("table.column")` (or a
    /// bare column name) pins the rule to one column.
    HealthVerdictIs {
        /// Qualified (`table.column`) or bare column name; `None` = any.
        column: Option<String>,
        /// Lowercase verdict labels that count as a breach
        /// (e.g. `["stalled", "regressing"]`).
        verdicts: Vec<String>,
    },
}

/// One interval's breach evidence: what was observed, and (for verdict
/// conditions) which columns matched.
struct Breach {
    observed: String,
    columns: Vec<String>,
}

impl AlertCondition {
    /// Check the condition against one interval; `None` means healthy (or
    /// the watched metric is absent).
    fn check(&self, delta: &SnapshotDelta, health: &[HealthSignal]) -> Option<Breach> {
        match self {
            AlertCondition::CounterRateAbove {
                counter,
                per_second,
            } => {
                let rate = delta.counter_rate(counter)?;
                (rate > *per_second).then(|| Breach {
                    observed: format!("{counter} rate {rate:.1}/s > {per_second:.1}/s"),
                    columns: Vec::new(),
                })
            }
            AlertCondition::GaugeAbove { gauge, level } => {
                let observed = delta.gauge_level(gauge)?;
                (observed > *level).then(|| Breach {
                    observed: format!("{gauge} level {observed} > {level}"),
                    columns: Vec::new(),
                })
            }
            AlertCondition::HistogramQuantileAbove {
                histogram,
                quantile,
                threshold,
            } => {
                let windowed = delta.histogram(histogram)?;
                let observed = windowed.quantile(*quantile)?;
                (observed > *threshold).then(|| Breach {
                    observed: format!(
                        "{histogram} p{:.0} {observed} > {threshold}",
                        quantile * 100.0
                    ),
                    columns: Vec::new(),
                })
            }
            AlertCondition::HealthVerdictIs { column, verdicts } => {
                let matched: Vec<String> = health
                    .iter()
                    .filter(|signal| match column {
                        None => true,
                        Some(want) => signal.qualified() == *want || signal.column == *want,
                    })
                    .filter(|signal| {
                        verdicts
                            .iter()
                            .any(|v| v.eq_ignore_ascii_case(&signal.verdict))
                    })
                    .map(|signal| signal.qualified())
                    .collect();
                (!matched.is_empty()).then(|| Breach {
                    observed: format!("[{}] verdict in {verdicts:?}", matched.join(", ")),
                    columns: matched,
                })
            }
        }
    }

    /// True when evaluating this condition needs health signals at all
    /// (lets the caller skip deriving them for metric-only rule sets).
    pub fn wants_health(&self) -> bool {
        matches!(self, AlertCondition::HealthVerdictIs { .. })
    }
}

/// What the caller should do when a rule transitions to firing. The alert
/// engine only *reports* the action (via [`FiredAlert`]); execution —
/// and the meaning of each variant — belongs to the embedding engine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertAction {
    /// Record the transition in the journal; take no further action.
    Log,
    /// Rebuild the named column's index (`Some("table.column")`), or —
    /// with `None` — the index of every column that breached the rule's
    /// verdict predicate this interval.
    RefreshIndex(Option<String>),
    /// Request an eager compaction pass from the maintenance scheduler.
    TriggerCompaction,
}

/// A declarative alert rule: a named condition, how many consecutive
/// breached intervals arm it, how many healthy intervals clear it, and
/// what to do when it fires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertRule {
    /// Unique rule name (journal entries and wire replies carry it).
    pub name: String,
    /// What the rule watches.
    pub condition: AlertCondition,
    /// Consecutive breached intervals before the rule fires (min 1; with
    /// 1 the rule skips pending and fires on the first breach).
    pub for_intervals: u32,
    /// Consecutive healthy intervals before a firing rule resolves
    /// (min 1).
    pub recovery_intervals: u32,
    /// Executed (by the caller) when the rule transitions to firing.
    pub action: AlertAction,
}

impl AlertRule {
    /// A rule with defaults: fire after 1 breached interval, resolve
    /// after 1 healthy interval, action [`AlertAction::Log`].
    pub fn new(name: impl Into<String>, condition: AlertCondition) -> Self {
        AlertRule {
            name: name.into(),
            condition,
            for_intervals: 1,
            recovery_intervals: 1,
            action: AlertAction::Log,
        }
    }

    /// Require `n` consecutive breached intervals before firing (min 1).
    pub fn for_intervals(mut self, n: u32) -> Self {
        self.for_intervals = n.max(1);
        self
    }

    /// Require `n` consecutive healthy intervals before resolving (min 1).
    pub fn recovery_intervals(mut self, n: u32) -> Self {
        self.recovery_intervals = n.max(1);
        self
    }

    /// Attach the action to execute on the idle/pending → firing
    /// transition.
    pub fn action(mut self, action: AlertAction) -> Self {
        self.action = action;
        self
    }
}

/// The rule set plus journal sizing handed to [`AlertEngine::new`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertConfig {
    /// Rules evaluated every interval, in order.
    pub rules: Vec<AlertRule>,
    /// Alert transitions retained in the journal (min 1; defaults to
    /// [`DEFAULT_ALERT_JOURNAL_CAPACITY`]).
    pub journal_capacity: usize,
}

impl Default for AlertConfig {
    fn default() -> Self {
        AlertConfig {
            rules: Vec::new(),
            journal_capacity: DEFAULT_ALERT_JOURNAL_CAPACITY,
        }
    }
}

impl AlertConfig {
    /// An empty configuration (no rules, default journal capacity).
    pub fn new() -> Self {
        AlertConfig::default()
    }

    /// Append a rule.
    pub fn rule(mut self, rule: AlertRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Override the journal capacity (min 1).
    pub fn journal_capacity(mut self, events: usize) -> Self {
        self.journal_capacity = events;
        self
    }
}

/// A rule's position in its state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertState {
    /// Healthy: no current breach streak.
    Idle,
    /// Breaching, but for fewer than `for_intervals` consecutive
    /// intervals.
    Pending,
    /// Breached `for_intervals` consecutive intervals; not yet recovered.
    Firing,
}

impl AlertState {
    /// Stable numeric code for metric exports (the value of the
    /// `aidx_alert_firing{rule}` Prometheus gauge): 0 idle, 1 pending,
    /// 2 firing.
    pub fn code(&self) -> u8 {
        match self {
            AlertState::Idle => 0,
            AlertState::Pending => 1,
            AlertState::Firing => 2,
        }
    }
}

impl fmt::Display for AlertState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlertState::Idle => "idle",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        })
    }
}

/// Which transition an [`AlertEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertEventKind {
    /// Idle → pending: first breached interval of a streak.
    Pending,
    /// Pending (or idle, with `for_intervals` 1) → firing.
    Firing,
    /// Firing → idle after `recovery_intervals` healthy intervals.
    Resolved,
    /// Pending → idle: the breach streak broke before the rule fired.
    Cancelled,
}

impl fmt::Display for AlertEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlertEventKind::Pending => "pending",
            AlertEventKind::Firing => "firing",
            AlertEventKind::Resolved => "resolved",
            AlertEventKind::Cancelled => "cancelled",
        })
    }
}

/// One recorded state transition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlertEvent {
    /// Rule that transitioned.
    pub rule: String,
    /// Which transition.
    pub kind: AlertEventKind,
    /// Evaluation tick (1-based count of [`AlertEngine::evaluate`] calls)
    /// at which the transition happened — the engine holds no clock.
    pub tick: u64,
    /// Human-readable evidence ("server.requests_shed rate 120.0/s >
    /// 50.0/s", or "recovered after 2 healthy intervals").
    pub observed: String,
    /// Columns that matched a verdict predicate (empty for metric rules).
    pub columns: Vec<String>,
}

/// One rule's live status, for operator surfaces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlertStatus {
    /// Rule name.
    pub rule: String,
    /// Current state.
    pub state: AlertState,
    /// Length of the current consecutive-breach streak.
    pub consecutive_breaches: u32,
    /// Healthy intervals accumulated toward recovery (firing rules only).
    pub healthy_intervals: u32,
    /// Evidence from the most recent breach (empty if never breached).
    pub observed: String,
    /// Times the rule has transitioned to firing since startup.
    pub times_fired: u64,
}

/// A rule that transitioned to firing this tick, with the action the
/// caller should now execute.
#[derive(Debug, Clone, PartialEq)]
pub struct FiredAlert {
    /// Rule name.
    pub rule: String,
    /// The rule's configured action.
    pub action: AlertAction,
    /// Columns that matched a verdict predicate (empty for metric rules).
    pub columns: Vec<String>,
}

/// Per-rule evaluation state.
#[derive(Debug)]
struct RuleState {
    rule: AlertRule,
    state: AlertState,
    consecutive: u32,
    healthy: u32,
    observed: String,
    times_fired: u64,
}

/// Evaluates a rule set once per reporter interval and journals every
/// state transition. Not internally synchronized — wrap in a mutex to
/// share.
#[derive(Debug)]
pub struct AlertEngine {
    rules: Vec<RuleState>,
    journal: VecDeque<AlertEvent>,
    journal_capacity: usize,
    tick: u64,
}

impl AlertEngine {
    /// Build the engine from a configuration.
    pub fn new(config: AlertConfig) -> Self {
        AlertEngine {
            rules: config
                .rules
                .into_iter()
                .map(|rule| RuleState {
                    rule,
                    state: AlertState::Idle,
                    consecutive: 0,
                    healthy: 0,
                    observed: String::new(),
                    times_fired: 0,
                })
                .collect(),
            journal: VecDeque::new(),
            journal_capacity: config.journal_capacity.max(1),
            tick: 0,
        }
    }

    /// True when no rules are configured (evaluation is a no-op).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// True when any rule needs health signals — lets the caller skip
    /// deriving per-column health for metric-only rule sets.
    pub fn wants_health(&self) -> bool {
        self.rules.iter().any(|r| r.rule.condition.wants_health())
    }

    /// Evaluations run so far.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Evaluate every rule against one completed interval. Transitions are
    /// journaled; rules that newly entered firing come back as
    /// [`FiredAlert`]s for the caller to act on.
    pub fn evaluate(&mut self, delta: &SnapshotDelta, health: &[HealthSignal]) -> Vec<FiredAlert> {
        self.tick += 1;
        let tick = self.tick;
        let mut fired = Vec::new();
        let mut events = Vec::new();
        for rs in &mut self.rules {
            match rs.rule.condition.check(delta, health) {
                Some(breach) => {
                    rs.observed = breach.observed;
                    rs.healthy = 0;
                    match rs.state {
                        AlertState::Idle | AlertState::Pending => {
                            rs.consecutive = rs.consecutive.saturating_add(1);
                            if rs.consecutive >= rs.rule.for_intervals {
                                rs.state = AlertState::Firing;
                                rs.times_fired += 1;
                                events.push(AlertEvent {
                                    rule: rs.rule.name.clone(),
                                    kind: AlertEventKind::Firing,
                                    tick,
                                    observed: rs.observed.clone(),
                                    columns: breach.columns.clone(),
                                });
                                fired.push(FiredAlert {
                                    rule: rs.rule.name.clone(),
                                    action: rs.rule.action.clone(),
                                    columns: breach.columns,
                                });
                            } else if rs.state == AlertState::Idle {
                                rs.state = AlertState::Pending;
                                events.push(AlertEvent {
                                    rule: rs.rule.name.clone(),
                                    kind: AlertEventKind::Pending,
                                    tick,
                                    observed: rs.observed.clone(),
                                    columns: breach.columns,
                                });
                            }
                        }
                        AlertState::Firing => {
                            // still breaching: recovery progress (if any)
                            // was reset above; nothing to journal
                            rs.consecutive = rs.consecutive.saturating_add(1);
                        }
                    }
                }
                None => match rs.state {
                    AlertState::Idle => {}
                    AlertState::Pending => {
                        rs.state = AlertState::Idle;
                        rs.consecutive = 0;
                        events.push(AlertEvent {
                            rule: rs.rule.name.clone(),
                            kind: AlertEventKind::Cancelled,
                            tick,
                            observed: format!(
                                "breach streak broke before {} intervals",
                                rs.rule.for_intervals
                            ),
                            columns: Vec::new(),
                        });
                    }
                    AlertState::Firing => {
                        rs.healthy = rs.healthy.saturating_add(1);
                        if rs.healthy >= rs.rule.recovery_intervals {
                            rs.state = AlertState::Idle;
                            rs.consecutive = 0;
                            let healthy = rs.healthy;
                            rs.healthy = 0;
                            events.push(AlertEvent {
                                rule: rs.rule.name.clone(),
                                kind: AlertEventKind::Resolved,
                                tick,
                                observed: format!("recovered after {healthy} healthy intervals"),
                                columns: Vec::new(),
                            });
                        }
                    }
                },
            }
        }
        for event in events {
            if self.journal.len() == self.journal_capacity {
                self.journal.pop_front();
            }
            self.journal.push_back(event);
        }
        fired
    }

    /// Every rule's live status, in configuration order.
    pub fn status(&self) -> Vec<AlertStatus> {
        self.rules
            .iter()
            .map(|rs| AlertStatus {
                rule: rs.rule.name.clone(),
                state: rs.state,
                consecutive_breaches: rs.consecutive,
                healthy_intervals: rs.healthy,
                observed: rs.observed.clone(),
                times_fired: rs.times_fired,
            })
            .collect()
    }

    /// The journal, oldest first (bounded by
    /// [`AlertConfig::journal_capacity`]).
    pub fn events(&self) -> Vec<AlertEvent> {
        self.journal.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CounterDelta, GaugeDelta};
    use crate::HistogramSnapshot;

    /// A one-second interval in which `counter` moved by `delta`.
    fn delta_with_counter(counter: &str, delta: u64) -> SnapshotDelta {
        SnapshotDelta {
            interval_ns: 1_000_000_000,
            counters: vec![CounterDelta {
                name: counter.into(),
                delta,
            }],
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }

    fn quiet() -> SnapshotDelta {
        delta_with_counter("server.requests_shed", 0)
    }

    fn shed_rule(for_intervals: u32, recovery: u32) -> AlertRule {
        AlertRule::new(
            "shed-spike",
            AlertCondition::CounterRateAbove {
                counter: "server.requests_shed".into(),
                per_second: 10.0,
            },
        )
        .for_intervals(for_intervals)
        .recovery_intervals(recovery)
    }

    fn states(engine: &AlertEngine) -> Vec<AlertState> {
        engine.status().into_iter().map(|s| s.state).collect()
    }

    #[test]
    fn pending_then_firing_then_resolved() {
        let mut engine = AlertEngine::new(AlertConfig::new().rule(shed_rule(2, 2)));
        let hot = delta_with_counter("server.requests_shed", 100);
        assert!(engine.evaluate(&hot, &[]).is_empty(), "first breach arms");
        assert_eq!(states(&engine), vec![AlertState::Pending]);
        let fired = engine.evaluate(&hot, &[]);
        assert_eq!(fired.len(), 1, "second consecutive breach fires");
        assert_eq!(fired[0].rule, "shed-spike");
        assert_eq!(states(&engine), vec![AlertState::Firing]);
        // one healthy interval is not recovery yet
        assert!(engine.evaluate(&quiet(), &[]).is_empty());
        assert_eq!(states(&engine), vec![AlertState::Firing]);
        assert!(engine.evaluate(&quiet(), &[]).is_empty());
        assert_eq!(states(&engine), vec![AlertState::Idle]);
        let kinds: Vec<AlertEventKind> = engine.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AlertEventKind::Pending,
                AlertEventKind::Firing,
                AlertEventKind::Resolved
            ]
        );
    }

    #[test]
    fn broken_streak_cancels_pending_and_restarts_the_count() {
        let mut engine = AlertEngine::new(AlertConfig::new().rule(shed_rule(3, 1)));
        let hot = delta_with_counter("server.requests_shed", 100);
        engine.evaluate(&hot, &[]);
        engine.evaluate(&hot, &[]);
        assert_eq!(states(&engine), vec![AlertState::Pending]);
        engine.evaluate(&quiet(), &[]);
        assert_eq!(states(&engine), vec![AlertState::Idle]);
        // two more breaches are a fresh streak of 2, still short of 3
        engine.evaluate(&hot, &[]);
        let fired = engine.evaluate(&hot, &[]);
        assert!(fired.is_empty(), "streak restarted from zero");
        let fired = engine.evaluate(&hot, &[]);
        assert_eq!(fired.len(), 1);
        let kinds: Vec<AlertEventKind> = engine.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AlertEventKind::Pending,
                AlertEventKind::Cancelled,
                AlertEventKind::Pending,
                AlertEventKind::Firing
            ]
        );
    }

    #[test]
    fn breach_mid_recovery_resets_the_healthy_count() {
        let mut engine = AlertEngine::new(AlertConfig::new().rule(shed_rule(1, 3)));
        let hot = delta_with_counter("server.requests_shed", 100);
        assert_eq!(engine.evaluate(&hot, &[]).len(), 1, "for=1 fires at once");
        engine.evaluate(&quiet(), &[]);
        engine.evaluate(&quiet(), &[]);
        assert_eq!(states(&engine), vec![AlertState::Firing]);
        // a breach two intervals into recovery starts recovery over
        assert!(engine.evaluate(&hot, &[]).is_empty(), "already firing");
        engine.evaluate(&quiet(), &[]);
        engine.evaluate(&quiet(), &[]);
        assert_eq!(states(&engine), vec![AlertState::Firing]);
        engine.evaluate(&quiet(), &[]);
        assert_eq!(states(&engine), vec![AlertState::Idle]);
    }

    #[test]
    fn absent_metric_never_breaches_or_heals_falsely() {
        let mut engine = AlertEngine::new(AlertConfig::new().rule(shed_rule(1, 1)));
        let unrelated = delta_with_counter("engine.queries_served", 1_000_000);
        for _ in 0..5 {
            assert!(engine.evaluate(&unrelated, &[]).is_empty());
        }
        assert_eq!(states(&engine), vec![AlertState::Idle]);
        assert!(engine.events().is_empty());
    }

    #[test]
    fn zero_length_interval_cannot_fire_a_rate_rule() {
        let mut engine = AlertEngine::new(AlertConfig::new().rule(shed_rule(1, 1)));
        let mut degenerate = delta_with_counter("server.requests_shed", u64::MAX);
        degenerate.interval_ns = 0;
        assert!(
            engine.evaluate(&degenerate, &[]).is_empty(),
            "no rate over a degenerate interval, so no breach"
        );
        assert_eq!(states(&engine), vec![AlertState::Idle]);
    }

    #[test]
    fn gauge_and_quantile_conditions_breach_on_threshold_crossings() {
        let gauge_rule = AlertRule::new(
            "deep-queue",
            AlertCondition::GaugeAbove {
                gauge: "server.in_flight".into(),
                level: 10,
            },
        );
        let quantile_rule = AlertRule::new(
            "slow-fsync",
            AlertCondition::HistogramQuantileAbove {
                histogram: "wal.fsync_ns".into(),
                quantile: 0.99,
                threshold: 1_000_000,
            },
        );
        let mut engine = AlertEngine::new(AlertConfig::new().rule(gauge_rule).rule(quantile_rule));
        let mut buckets = vec![0u64; crate::HISTOGRAM_BUCKETS];
        *buckets.last_mut().unwrap() = 4; // four huge observations
        let delta = SnapshotDelta {
            interval_ns: 1_000_000_000,
            counters: Vec::new(),
            gauges: vec![GaugeDelta {
                name: "server.in_flight".into(),
                level: 50,
                delta: 50,
            }],
            histograms: vec![HistogramSnapshot {
                name: "wal.fsync_ns".into(),
                count: 4,
                sum: 4 << 60,
                buckets,
            }],
        };
        let fired = engine.evaluate(&delta, &[]);
        let names: Vec<&str> = fired.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(names, vec!["deep-queue", "slow-fsync"]);
        // an empty-window histogram has no quantile: no breach, heals
        let empty = SnapshotDelta {
            interval_ns: 1_000_000_000,
            counters: Vec::new(),
            gauges: vec![GaugeDelta {
                name: "server.in_flight".into(),
                level: 0,
                delta: -50,
            }],
            histograms: vec![HistogramSnapshot {
                name: "wal.fsync_ns".into(),
                count: 0,
                sum: 0,
                buckets: vec![0u64; crate::HISTOGRAM_BUCKETS],
            }],
        };
        engine.evaluate(&empty, &[]);
        assert_eq!(states(&engine), vec![AlertState::Idle, AlertState::Idle]);
    }

    #[test]
    fn verdict_rule_matches_any_or_pinned_column_and_reports_them() {
        let any = AlertRule::new(
            "stalled-any",
            AlertCondition::HealthVerdictIs {
                column: None,
                verdicts: vec!["stalled".into(), "regressing".into()],
            },
        )
        .action(AlertAction::RefreshIndex(None));
        let pinned = AlertRule::new(
            "stalled-orders",
            AlertCondition::HealthVerdictIs {
                column: Some("orders.o_key".into()),
                verdicts: vec!["stalled".into()],
            },
        );
        let mut engine = AlertEngine::new(AlertConfig::new().rule(any).rule(pinned));
        let health = vec![
            HealthSignal::new("data", "k", "stalled"),
            HealthSignal::new("orders", "o_key", "converging"),
        ];
        let fired = engine.evaluate(&quiet(), &health);
        assert_eq!(fired.len(), 1, "pinned column is converging");
        assert_eq!(fired[0].rule, "stalled-any");
        assert_eq!(fired[0].columns, vec!["data.k".to_string()]);
        assert_eq!(fired[0].action, AlertAction::RefreshIndex(None));
        // now the pinned column stalls too
        let health = vec![HealthSignal::new("orders", "o_key", "stalled")];
        let fired = engine.evaluate(&quiet(), &health);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "stalled-orders");
        assert_eq!(fired[0].columns, vec!["orders.o_key".to_string()]);
    }

    #[test]
    fn journal_is_bounded_and_evicts_oldest() {
        let mut engine =
            AlertEngine::new(AlertConfig::new().rule(shed_rule(1, 1)).journal_capacity(3));
        let hot = delta_with_counter("server.requests_shed", 100);
        // each hot/quiet pair journals a Firing + a Resolved
        for _ in 0..4 {
            engine.evaluate(&hot, &[]);
            engine.evaluate(&quiet(), &[]);
        }
        let events = engine.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].tick, 6, "oldest events evicted first");
        assert_eq!(events[2].tick, 8);
    }

    #[test]
    fn wants_health_only_with_verdict_rules() {
        let metric_only = AlertEngine::new(AlertConfig::new().rule(shed_rule(1, 1)));
        assert!(!metric_only.wants_health());
        assert!(metric_only.wants_health() || !metric_only.is_empty());
        let with_verdict = AlertEngine::new(AlertConfig::new().rule(AlertRule::new(
            "stalled",
            AlertCondition::HealthVerdictIs {
                column: None,
                verdicts: vec!["stalled".into()],
            },
        )));
        assert!(with_verdict.wants_health());
    }

    #[test]
    fn config_events_and_status_serde_round_trip() {
        let config = AlertConfig::new()
            .rule(shed_rule(2, 3).action(AlertAction::TriggerCompaction))
            .journal_capacity(16);
        let json = serde_json::to_string(&config).unwrap();
        let back: AlertConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config, back);
        let mut engine = AlertEngine::new(config);
        let hot = delta_with_counter("server.requests_shed", 100);
        engine.evaluate(&hot, &[]);
        let (events, statuses) = (engine.events(), engine.status());
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<AlertEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(events, back);
        let json = serde_json::to_string(&statuses).unwrap();
        let back: Vec<AlertStatus> = serde_json::from_str(&json).unwrap();
        assert_eq!(statuses, back);
    }
}
