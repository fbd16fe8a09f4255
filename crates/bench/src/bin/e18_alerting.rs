//! E18 — Closed-loop observability: alerts that detect, journal, and heal.
//!
//! E16/E17 made the engine *report* its own convergence story; this harness
//! checks the PR-10 step: the engine now *acts* on that story. Declarative
//! [`AlertRule`]s ride the reporter cadence ([`Database::report_tick`]),
//! run a pending → firing → resolved state machine, and firing rules hand
//! back self-healing actions the kernel executes.
//!
//! 1. **Overload pages, then resolves** — a 1-permit server is hammered
//!    until admission control sheds; a shed-rate rule (evaluated against
//!    the engine's own reporter deltas, which see `server.requests_shed`
//!    because the server instruments itself on the engine's registry) must
//!    walk pending → firing under load and resolve after quiet intervals.
//! 2. **A stall heals itself** — the sequential workload that defeats
//!    plain cracking (the stochastic-cracking paper's adversary) drives a
//!    `stalled` verdict; a verdict rule carrying
//!    [`AlertAction::RefreshIndex`] fires and rebuilds the column under
//!    stochastic cracking, and the *windowed* per-query refinement effort
//!    measurably collapses afterward — the closed loop, no operator.
//! 3. **The wire serves the story** — `INTROSPECT(Alerts|History)` frames
//!    round-trip the exact engine-side journal and delta ring over a live
//!    socket, and the scrape exposes `aidx_alert_firing` /
//!    `aidx_index_health` gauges.

use aidx_bench::HarnessConfig;
use aidx_columnstore::column::Column;
use aidx_columnstore::table::Table;
use aidx_core::prelude::*;
use aidx_server::{Client, Server, ServerConfig};
use aidx_workloads::data::{generate_keys, DataDistribution};
use aidx_workloads::query::{QueryWorkload, WorkloadKind};
use std::time::Duration;

fn build_db(rows: usize, seed: u64, alerts: AlertConfig) -> Database {
    let db = Database::builder()
        .default_strategy(StrategyKind::Cracking)
        .trace_sampling(1)
        .alerts(alerts)
        .build();
    let keys = generate_keys(rows, DataDistribution::UniformPermutation, seed);
    db.create_table(
        "data",
        Table::from_columns(vec![("k", Column::from_i64(keys))]).expect("one-column table"),
    )
    .expect("fresh database");
    db
}

fn sequential_workload(count: usize, rows: usize, selectivity: f64, seed: u64) -> Vec<Query> {
    QueryWorkload::generate(
        WorkloadKind::Sequential,
        count,
        0,
        rows as i64,
        selectivity,
        seed,
    )
    .iter()
    .map(|q| Query::table("data").range("k", q.low, q.high))
    .collect()
}

fn run_queries(db: &Database, queries: &[Query]) -> u64 {
    let session = db.session();
    let mut checksum = 0u64;
    for query in queries {
        checksum += session.execute(query).expect("range query").row_count() as u64;
    }
    checksum
}

fn state_of(db: &Database, rule: &str) -> AlertState {
    db.alert_status()
        .into_iter()
        .find(|s| s.rule == rule)
        .map(|s| s.state)
        .expect("configured rule has a status row")
}

fn event_kinds(db: &Database, rule: &str) -> Vec<AlertEventKind> {
    db.alert_events()
        .iter()
        .filter(|e| e.rule == rule)
        .map(|e| e.kind)
        .collect()
}

/// Phase 1: induced overload walks the shed-rate rule through its whole
/// lifecycle — pending under the first hot interval, firing under the
/// second, resolved after two quiet ones.
fn phase_shed_lifecycle(seed: u64) {
    let alerts = AlertConfig::new().rule(
        AlertRule::new(
            "shed-spike",
            AlertCondition::CounterRateAbove {
                counter: "server.requests_shed".into(),
                per_second: 0.5,
            },
        )
        .for_intervals(2)
        .recovery_intervals(2),
    );
    let db = build_db(2_000, seed, alerts);
    // a single admission permit makes concurrent clients collide
    let server = Server::start(db.clone(), ServerConfig::localhost().with_max_in_flight(1))
        .expect("bind localhost");
    let addr = server.local_addr();

    assert!(db.report_tick().is_none(), "first tick primes the baseline");
    println!("\n## phase 1 — shed-rate alert lifecycle (1-permit server)");
    for interval in 0..2u32 {
        // hammer until this interval has observed at least one shed: four
        // clients racing one permit collide almost immediately, and the
        // loop makes the breach deterministic rather than probabilistic
        let floor = server.stats().requests_shed;
        while server.stats().requests_shed == floor {
            std::thread::scope(|scope| {
                for worker in 0..4 {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        for i in 0..32i64 {
                            let low = (worker * 97 + i * 13) % 1_900;
                            let _ = client.query(&Query::table("data").range("k", low, low + 64));
                        }
                    });
                }
            });
        }
        std::thread::sleep(Duration::from_millis(2));
        let delta = db.report_tick().expect("primed reporter always diffs");
        let shed = delta.counter_delta("server.requests_shed").unwrap_or(0);
        let state = state_of(&db, "shed-spike");
        println!("hot interval {interval}: {shed} sheds, rule state {state}");
        assert!(shed > 0, "hammer loop guarantees sheds per interval");
        let expected = if interval == 0 {
            AlertState::Pending
        } else {
            AlertState::Firing
        };
        assert_eq!(state, expected, "consecutive hot intervals arm then fire");
    }
    for quiet in 0..2u32 {
        std::thread::sleep(Duration::from_millis(2));
        db.report_tick().expect("primed reporter always diffs");
        let state = state_of(&db, "shed-spike");
        println!("quiet interval {quiet}: rule state {state}");
    }
    assert_eq!(
        state_of(&db, "shed-spike"),
        AlertState::Idle,
        "two quiet intervals resolve the incident"
    );
    assert_eq!(
        event_kinds(&db, "shed-spike"),
        vec![
            AlertEventKind::Pending,
            AlertEventKind::Firing,
            AlertEventKind::Resolved
        ],
        "the journal records the full lifecycle"
    );
    server.shutdown();
}

/// Phase 2: the self-healing loop. Sequential cracking stalls; the verdict
/// rule fires `RefreshIndex`, the kernel rebuilds under stochastic
/// cracking, and the windowed per-query effort collapses.
fn phase_stall_selfheal(rows: usize, queries: usize, seed: u64) -> Database {
    let alerts = AlertConfig::new().rule(
        AlertRule::new(
            "column-stalled",
            AlertCondition::HealthVerdictIs {
                column: None,
                verdicts: vec!["stalled".into()],
            },
        )
        .for_intervals(2)
        .recovery_intervals(2)
        .action(AlertAction::RefreshIndex(None)),
    );
    let db = build_db(rows, seed + 1, alerts);
    let queries = queries.clamp(128, 512);
    // coverage well under the domain: the sequential walk never finishes
    // cracking, so every query keeps paying for the uncracked tail
    let selectivity = 0.3 / queries as f64;
    let stream = sequential_workload(queries, rows, selectivity, seed + 1);
    let (head, rest) = stream.split_at(queries / 2);
    let (arm, tail) = rest.split_at(16);

    assert!(db.report_tick().is_none(), "first tick primes the baseline");
    run_queries(&db, head);
    let delta = db.report_tick().expect("interval with the stalling head");
    let effort_before = delta
        .counter_delta("engine.index.refinement_effort")
        .unwrap_or(0) as f64
        / head.len() as f64;

    let verdict = db.index_health()[0].verdict;
    assert_eq!(
        verdict,
        HealthVerdict::Stalled,
        "sequential cracking must read stalled before healing"
    );
    assert_eq!(db.index_stats()[0].strategy, "cracking");
    assert_eq!(
        state_of(&db, "column-stalled"),
        AlertState::Pending,
        "first stalled interval arms the rule"
    );

    run_queries(&db, arm);
    db.report_tick().expect("second stalled interval");
    assert_eq!(
        state_of(&db, "column-stalled"),
        AlertState::Firing,
        "second consecutive stalled interval fires"
    );
    let stats = db.index_stats();
    assert_eq!(
        stats[0].strategy, "stochastic-cracking",
        "RefreshIndex rebuilt the column under the remedial strategy"
    );
    assert_eq!(stats[0].queries, 0, "a fresh index build");
    let firing = db
        .alert_events()
        .iter()
        .find(|e| e.kind == AlertEventKind::Firing)
        .cloned()
        .expect("firing event journaled");
    assert_eq!(
        firing.columns,
        vec!["data.k".to_string()],
        "the event names the remediated column"
    );

    // continue the same sequential walk on the healed index
    run_queries(&db, tail);
    let delta = db.report_tick().expect("interval after healing");
    let effort_after = delta
        .counter_delta("engine.index.refinement_effort")
        .unwrap_or(0) as f64
        / tail.len() as f64;

    println!(
        "\n## phase 2 — self-healing stall: effort/query {effort_before:.0} (cracking, stalled) \
         -> {effort_after:.0} (stochastic-cracking), verdict now {}",
        db.index_health()[0].verdict
    );
    assert!(
        effort_after * 2.0 <= effort_before,
        "remediation must at least halve windowed per-query effort: \
         before {effort_before:.0}, after {effort_after:.0}"
    );
    db
}

/// Phase 3: `ALERTS` and `HISTORY` round-trip the engine's journal and
/// delta ring exactly, and the scrape carries the labeled gauges.
fn phase_wire(db: &Database) {
    let server = Server::start(db.clone(), ServerConfig::localhost()).expect("bind localhost");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_reply_timeout(Some(Duration::from_secs(10)))
        .expect("reply timeout");

    let (status, events) = client.alerts().expect("ALERTS reply");
    assert_eq!(status, db.alert_status(), "wire status == engine status");
    assert_eq!(events, db.alert_events(), "wire journal == engine journal");
    assert!(!events.is_empty(), "phase 2 journaled transitions");

    let history = client.history().expect("HISTORY reply");
    assert_eq!(history, db.recent_reports(), "wire ring == engine ring");
    assert!(history.len() >= 3, "phase 2 completed three intervals");

    let text = client.metrics_text().expect("METRICS reply");
    assert!(
        text.contains("aidx_alert_firing{rule=\"column-stalled\"}"),
        "alert state gauge exposed"
    );
    assert!(
        text.contains("aidx_index_health{table=\"data\",column=\"k\"}"),
        "health verdict gauge exposed"
    );

    println!(
        "\n## phase 3 — wire: {} statuses, {} journal events, {} history deltas round-tripped",
        status.len(),
        events.len(),
        history.len()
    );
    server.shutdown();
}

fn main() {
    let config = HarnessConfig::default();
    let rows = config.rows.min(200_000);
    println!(
        "# E18 closed-loop alerting — {rows} rows, {} queries",
        config.queries
    );

    phase_shed_lifecycle(config.seed);
    let healed_db = phase_stall_selfheal(rows, config.queries, config.seed);
    phase_wire(&healed_db);

    println!(
        "\nacceptance: shed alert walked pending->firing->resolved under induced overload, \
         stalled column self-healed onto stochastic cracking with effort collapse, \
         ALERTS/HISTORY round-tripped the engine surfaces"
    );
}
