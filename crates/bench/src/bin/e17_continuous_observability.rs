//! E17 — Continuous observability: the convergence curve as a live signal.
//!
//! The earlier experiments reconstruct the paper's per-query refinement
//! curve *offline*, by instrumenting benchmark loops. This harness checks
//! that the engine can now report the same story about itself, continuously,
//! through the PR-9 observability pipeline: the snapshot-diffing reporter
//! ([`Database::report_tick`]), every-Nth-query trace sampling
//! ([`Database::recent_traces`]), the per-column index-health monitor
//! ([`Database::index_health`]), and the Prometheus/TRACES wire endpoints.
//!
//! 1. **Convergence is visible in the windowed rates** — a uniform-random
//!    workload over a cracked column, ticked into reporter intervals: the
//!    windowed `engine.index.refinement_effort` delta must fall as the
//!    index converges (the paper's Figure-1 shape, read off live deltas),
//!    and the driven column's health verdict must end `converged`.
//! 2. **Stalls are visible too** — the same pipeline over a *sequential*
//!    workload (the adversarial pattern of the stochastic-cracking paper):
//!    windowed per-query effort stays pinned near its cumulative average,
//!    and the monitor must say `stalled` (or `regressing`), not converging.
//! 3. **Sampling is cheap enough to leave on** — the same workload timed
//!    with tracing disabled and at the default 1/64 rate; the sampled run
//!    must stay within generous measurement noise of the disabled one.
//! 4. **The wire serves it** — an `INTROSPECT(Metrics)` frame returns
//!    parseable Prometheus text exposition and `INTROSPECT(Traces)` the
//!    sampled ring, both over a live socket.

use aidx_bench::HarnessConfig;
use aidx_columnstore::column::Column;
use aidx_columnstore::table::Table;
use aidx_core::prelude::*;
use aidx_server::{Client, Server, ServerConfig};
use aidx_workloads::data::{generate_keys, DataDistribution};
use aidx_workloads::query::{QueryWorkload, WorkloadKind};
use std::time::{Duration, Instant};

fn build_db(rows: usize, seed: u64, trace_every: u64) -> Database {
    let db = Database::builder()
        .default_strategy(StrategyKind::Cracking)
        .trace_sampling(trace_every)
        .build();
    let keys = generate_keys(rows, DataDistribution::UniformPermutation, seed);
    db.create_table(
        "data",
        Table::from_columns(vec![("k", Column::from_i64(keys))]).expect("one-column table"),
    )
    .expect("fresh database");
    db
}

fn run_queries(db: &Database, queries: &[Query]) -> u64 {
    let session = db.session();
    let mut checksum = 0u64;
    for query in queries {
        checksum += session.execute(query).expect("range query").row_count() as u64;
    }
    checksum
}

fn workload(
    kind: WorkloadKind,
    count: usize,
    rows: usize,
    selectivity: f64,
    seed: u64,
) -> Vec<Query> {
    QueryWorkload::generate(kind, count, 0, rows as i64, selectivity, seed)
        .iter()
        .map(|q| Query::table("data").range("k", q.low, q.high))
        .collect()
}

/// Phase 1: random workload, reporter intervals bracket query batches; the
/// windowed effort must fall and the verdict must end `converged`.
fn phase_convergence(rows: usize, queries: usize, selectivity: f64, seed: u64) -> Database {
    // sample every query: the health monitor's window should have dense
    // evidence for the assertions below
    let db = build_db(rows, seed, 1);
    let intervals = 8usize;
    let per_interval = (queries / intervals).max(16);
    let stream = workload(
        WorkloadKind::UniformRandom,
        intervals * per_interval,
        rows,
        selectivity,
        seed,
    );

    db.report_tick(); // prime the baseline
    let mut effort_per_interval = Vec::with_capacity(intervals);
    println!("\n## phase 1 — convergence, {intervals} reporter intervals x {per_interval} queries");
    println!(
        "{:<10} {:>10} {:>16} {:>14} {:>12}",
        "interval", "queries", "windowed effort", "effort/query", "win p99"
    );
    for (i, chunk) in stream.chunks(per_interval).enumerate() {
        run_queries(&db, chunk);
        let delta = db.report_tick().expect("primed reporter always diffs");
        let effort = delta
            .counter_delta("engine.index.refinement_effort")
            .unwrap_or(0);
        let served = delta.counter_delta("engine.queries_served").unwrap_or(0);
        let p99 = delta
            .histogram("engine.query_ns")
            .and_then(|h| h.p99())
            .map_or("-".to_owned(), |ns| format!("{}ns", ns));
        println!(
            "{:<10} {:>10} {:>16} {:>14.0} {:>12}",
            i,
            served,
            effort,
            effort as f64 / served.max(1) as f64,
            p99
        );
        assert_eq!(
            served, per_interval as u64,
            "every query lands in its interval"
        );
        effort_per_interval.push(effort);
    }

    let first = effort_per_interval[0];
    let last = *effort_per_interval.last().expect("at least one interval");
    assert!(
        last * 2 < first,
        "windowed refinement effort must fall as the index converges: \
         first interval {first}, last interval {last}"
    );

    // the reporter ring retained the intervals
    assert_eq!(
        db.recent_reports().len().min(intervals),
        db.recent_reports().len()
    );
    assert!(!db.recent_reports().is_empty(), "reporter ring populated");

    let health = db.index_health();
    let entry = health
        .iter()
        .find(|h| h.column.column() == "k")
        .expect("driven column has a health entry");
    println!("\n{}", render_health(&health));
    assert_eq!(
        entry.verdict,
        HealthVerdict::Converged,
        "random workload must converge: {entry:?}"
    );
    db
}

/// Phase 2: sequential workload — the monitor must call the stall.
fn phase_stall(rows: usize, queries: usize, seed: u64) {
    let db = build_db(rows, seed + 1, 1);
    let queries = queries.clamp(128, 512);
    // keep total coverage well under the domain so the sequential walk
    // never finishes cracking it — each query keeps paying a near-full
    // reorganization of the uncracked tail
    let selectivity = 0.3 / queries as f64;
    let stream = workload(
        WorkloadKind::Sequential,
        queries,
        rows,
        selectivity,
        seed + 1,
    );
    db.report_tick();
    run_queries(&db, &stream);
    db.report_tick();

    let health = db.index_health();
    let entry = health
        .iter()
        .find(|h| h.column.column() == "k")
        .expect("driven column has a health entry");
    println!("\n## phase 2 — sequential workload, {queries} queries");
    println!("{}", render_health(&health));
    assert!(
        matches!(
            entry.verdict,
            HealthVerdict::Stalled | HealthVerdict::Regressing
        ),
        "sequential cracking must be flagged as stalled/regressing: {entry:?}"
    );
}

/// Phase 3: trace sampling at the default 1/64 rate vs. disabled, timed on
/// warmed (converged) indexes where per-query work is smallest and the
/// sampling overhead's relative share is therefore largest.
fn phase_overhead(rows: usize, queries: usize, selectivity: f64, seed: u64) {
    let queries = queries.clamp(128, 1_000);
    let warmup = workload(
        WorkloadKind::UniformRandom,
        queries,
        rows,
        selectivity,
        seed + 2,
    );
    let timed = workload(
        WorkloadKind::UniformRandom,
        queries,
        rows,
        selectivity,
        seed + 3,
    );

    let db_off = build_db(rows, seed + 2, 0);
    let db_on = build_db(rows, seed + 2, 64);
    let warm_off = run_queries(&db_off, &warmup);
    let warm_on = run_queries(&db_on, &warmup);
    assert_eq!(warm_off, warm_on, "identical data and workload");

    // interleaved min-of-3: the minimum discards scheduler noise, the
    // interleaving keeps cache state symmetrical between the two databases
    let mut best_off = Duration::MAX;
    let mut best_on = Duration::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        run_queries(&db_off, &timed);
        best_off = best_off.min(start.elapsed());
        let start = Instant::now();
        run_queries(&db_on, &timed);
        best_on = best_on.min(start.elapsed());
    }
    let ratio = best_on.as_secs_f64() / best_off.as_secs_f64().max(1e-9);
    println!(
        "\n## phase 3 — sampling overhead, {queries} queries (min of 3): \
         off {:?}, 1/64 {:?}, ratio {ratio:.3}",
        best_off, best_on
    );
    assert!(
        ratio < 1.5,
        "1/64 sampling must be within measurement noise of disabled: ratio {ratio:.3}"
    );
    // warmup + 3 timed batches = 4x queries total decisions at 1/64
    assert!(
        db_on.recent_traces().len() <= (4 * queries) / 64 + 1,
        "1/64 sampling keeps the ring sparse"
    );
}

/// Phase 4: the wire serves the pipeline — Prometheus text from METRICS,
/// the sampled ring from TRACES.
fn phase_wire(db: &Database) {
    let server = Server::start(db.clone(), ServerConfig::localhost()).expect("bind localhost");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_reply_timeout(Some(Duration::from_secs(10)))
        .expect("reply timeout");

    let text = client.metrics_text().expect("METRICS reply");
    let mut samples = 0usize;
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        // Prometheus text format: every sample line is `name[{labels}] value`
        let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(!name.is_empty(), "unparseable line: {line:?}");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("unparseable sample value in line: {line:?}"));
        samples += 1;
    }
    assert!(samples > 10, "METRICS exposes the metric families");
    assert!(
        text.contains("# TYPE engine_query_ns histogram"),
        "typed histogram family"
    );
    assert!(
        text.contains("engine_queries_served"),
        "sanitized counter family"
    );
    assert!(
        text.contains("server_introspect_ns"),
        "the scrape itself is instrumented"
    );

    let traces = client.traces().expect("TRACES reply");
    assert_eq!(traces, db.recent_traces(), "wire ring == embedded ring");
    assert!(!traces.is_empty(), "phase 1 sampled every query");
    assert!(
        traces
            .iter()
            .any(|t| t.refinement_effort() > 0 || t.pieces_after().is_some()),
        "traces carry probe evidence"
    );

    println!(
        "\n## phase 4 — wire: {samples} Prometheus samples parsed, {} traces over TRACES",
        traces.len()
    );
    server.shutdown();
}

fn render_health(health: &[IndexHealth]) -> String {
    health
        .iter()
        .map(|h| h.render_line())
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let config = HarnessConfig::default();
    let rows = config.rows.min(200_000);
    let queries = config.queries;
    let selectivity = config.selectivity;
    println!(
        "# E17 continuous observability — {rows} rows, {queries} queries, \
         selectivity {selectivity}"
    );

    let converged_db = phase_convergence(rows, queries, selectivity, config.seed);
    phase_stall(rows, queries, config.seed);
    phase_overhead(rows, queries, selectivity, config.seed);
    phase_wire(&converged_db);

    println!(
        "\nacceptance: windowed effort fell, verdicts converged/stalled as driven, \
         1/64 sampling within noise, METRICS and TRACES served over the wire"
    );
}
