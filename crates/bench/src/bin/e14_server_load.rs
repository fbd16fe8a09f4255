//! E14 — Serving the engine over the wire: concurrent clients, admission
//! control, and overload shedding.
//!
//! Every other experiment drives the engine embedded, which means query
//! concurrency is whatever one process's benchmark loop produces. This
//! harness drives it the way the multi-core/concurrency follow-up papers
//! say adaptive indexing must ultimately be exercised: many independent
//! clients racing their index refinements through a shared server. It
//! measures three things:
//!
//! 1. **Sustained load** — `AIDX_CLIENTS` concurrent connections (default
//!    32) each run a workload-zoo query mix (uniform, skewed, sequential,
//!    shifting-focus, point; one kind per client, round-robin) against
//!    `aidx-server`, a slice of them submitted as batches. Reported per
//!    phase, straight from the engine's snapshot-diffing reporter
//!    ([`Database::report_tick`]): windowed qps and windowed p50/p99 query
//!    latency over exactly the phase's interval, plus overload-shed counts.
//! 2. **Saturation** — the same mix against a server whose admission budget
//!    is 1 in-flight request, plus one "hog" connection looping batches
//!    (each held under a single admission permit for its whole duration,
//!    keeping the gate occupied no matter how fast individual queries
//!    run). The gate must *shed* (typed OVERLOADED replies, counted)
//!    rather than queue or hang: every client runs with a reply timeout,
//!    so a hang fails the run.
//! 3. **Wire fidelity** — results fetched over the wire are byte-identical
//!    to the same queries executed on an embedded [`aidx_core::Session`]
//!    against the same database.
//!
//! Acceptance (asserted): ≥ 32 clients sustained with nonzero completed
//! queries and zero protocol errors; nonzero sheds and zero hangs under
//! saturation; byte-identical wire results.

use aidx_bench::HarnessConfig;
use aidx_columnstore::column::Column;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::Key;
use aidx_core::strategy::StrategyKind;
use aidx_core::{Database, Query};
use aidx_server::{Client, ClientError, Server, ServerConfig, WireResult};
use aidx_workloads::data::{generate_keys, DataDistribution};
use aidx_workloads::query::{QueryWorkload, WorkloadKind};
use std::time::{Duration, Instant};

/// The workload zoo each client draws from, round-robin by client index.
fn zoo_kind(client: usize) -> WorkloadKind {
    match client % 5 {
        0 => WorkloadKind::UniformRandom,
        1 => WorkloadKind::Skewed {
            hot_regions: 16,
            exponent: 1.3,
        },
        2 => WorkloadKind::Sequential,
        3 => WorkloadKind::ShiftingFocus {
            period: 16,
            focus_fraction: 0.1,
        },
        _ => WorkloadKind::Point,
    }
}

fn zoo_queries(client: usize, count: usize, rows: usize, selectivity: f64) -> Vec<Query> {
    QueryWorkload::generate(
        zoo_kind(client),
        count,
        0,
        rows as Key,
        selectivity,
        0xE14 + client as u64,
    )
    .iter()
    .map(|q| Query::table("data").range("k", q.low, q.high))
    .collect()
}

fn build_db(rows: usize, seed: u64) -> Database {
    let db = Database::new(StrategyKind::Cracking);
    let keys = generate_keys(rows, DataDistribution::UniformPermutation, seed);
    db.create_table(
        "data",
        Table::from_columns(vec![("k", Column::from_i64(keys))]).expect("one-column table"),
    )
    .expect("fresh database");
    db
}

/// What one client thread brings home. Latencies are not collected here at
/// all: the phase summary reads the engine's own `engine.query_ns`
/// histogram through the snapshot-diffing reporter, so the numbers printed
/// are exactly what an operator tailing [`Database::report_tick`] would
/// see — no per-thread vectors, no hand-rolled aggregation.
#[derive(Debug, Default)]
struct ClientReport {
    completed: u64,
    sheds_absorbed: u64,
    shed_rejections: u64,
    protocol_errors: u64,
    hangs: u64,
}

/// Drive one connection through its query list. `reply_timeout` arms the
/// zero-hang guarantee; `retries` > 0 lets the client absorb sheds with
/// backoff, `retries` == 0 records them and moves on. With `min_duration`,
/// the list is replayed until that much wall-clock has elapsed (the
/// saturation phase needs attempts spread across many scheduler timeslices,
/// not one quick burst that can slip between two hog batches).
fn drive_client(
    addr: std::net::SocketAddr,
    queries: &[Query],
    batch_size: usize,
    reply_timeout: Duration,
    retries: usize,
    min_duration: Option<Duration>,
) -> ClientReport {
    let mut report = ClientReport::default();
    let Ok(mut client) = Client::connect(addr) else {
        report.protocol_errors += 1;
        return report;
    };
    if client.set_reply_timeout(Some(reply_timeout)).is_err() {
        report.protocol_errors += 1;
        return report;
    }
    let phase_start = Instant::now();
    let mut i = 0;
    loop {
        if i >= queries.len() {
            match min_duration {
                Some(d) if phase_start.elapsed() < d => i = 0, // another pass
                _ => break,
            }
        }
        // a slice of the stream goes through the batched path so the
        // harness exercises single-permit amortization alongside per-query
        // admission
        if batch_size > 1 && i % (4 * batch_size) == 0 && i + batch_size <= queries.len() {
            let chunk = &queries[i..i + batch_size];
            match client.batch(chunk) {
                Ok(outcomes) => {
                    report.completed += outcomes.iter().filter(|o| o.is_ok()).count() as u64;
                    report.protocol_errors += outcomes.iter().filter(|o| o.is_err()).count() as u64;
                }
                Err(e) => record_failure(&mut report, e),
            }
            i += batch_size;
            continue;
        }
        match client.query_with_retry(&queries[i], retries, Duration::from_micros(200)) {
            Ok((_result, sheds)) => {
                report.completed += 1;
                report.sheds_absorbed += sheds as u64;
            }
            Err(e) => record_failure(&mut report, e),
        }
        i += 1;
    }
    report
}

fn record_failure(report: &mut ClientReport, error: ClientError) {
    match error {
        ClientError::Overloaded { .. } => report.shed_rejections += 1,
        ClientError::Io(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            report.hangs += 1
        }
        _ => report.protocol_errors += 1,
    }
}

/// Format a histogram quantile (upper-bucket-bound nanoseconds) as
/// milliseconds; "-" when everything was shed and nothing completed.
fn quantile_ms(ns: Option<u64>) -> String {
    match ns {
        Some(ns) => format!("{:.3}", ns as f64 / 1e6),
        None => "-".to_owned(),
    }
}

struct PhaseOutcome {
    completed: u64,
    sheds: u64,
    hangs: u64,
    protocol_errors: u64,
}

/// A "hog" connection: loops batches back-to-back until asked to stop.
/// Each batch executes under one admission permit held for the batch's
/// whole duration, so against a budget-1 server the hog keeps the gate
/// occupied nearly continuously — forcing the other clients' requests to
/// collide with it no matter how fast individual queries are.
fn drive_hog(
    addr: std::net::SocketAddr,
    rows: usize,
    stop: &std::sync::atomic::AtomicBool,
    ready: &std::sync::atomic::AtomicBool,
) -> ClientReport {
    use std::sync::atomic::Ordering;
    let mut report = ClientReport::default();
    // whatever happens below, never leave the phase waiting on the
    // ready-handshake
    struct ReadyOnExit<'a>(&'a std::sync::atomic::AtomicBool);
    impl Drop for ReadyOnExit<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let _ready = ReadyOnExit(ready);
    let Ok(mut client) = Client::connect(addr) else {
        report.protocol_errors += 1;
        return report;
    };
    if client
        .set_reply_timeout(Some(Duration::from_secs(10)))
        .is_err()
    {
        report.protocol_errors += 1;
        return report;
    }
    // many narrow ranges scattered over the domain: the permit is held for
    // the whole 1024-query batch (milliseconds even on a converged index)
    // while each reply stays small (results carry their position lists, so
    // wide ranges would blow the reply-frame cap)
    let width: Key = 64;
    let batch: Vec<Query> = (0..1024)
        .map(|i: Key| {
            let low = (i * 12_289) % (rows as Key - width).max(1);
            Query::table("data")
                .range("k", low, low + width)
                .aggregate(aidx_core::Aggregation::Count, "k")
        })
        .collect();
    while !stop.load(Ordering::Relaxed) {
        match client.batch(&batch) {
            Ok(outcomes) => {
                report.completed += outcomes.iter().filter(|o| o.is_ok()).count() as u64;
                report.protocol_errors += outcomes.iter().filter(|o| o.is_err()).count() as u64;
                ready.store(true, Ordering::Release);
            }
            Err(ClientError::Overloaded { .. }) => report.sheds_absorbed += 1,
            Err(e) => {
                record_failure(&mut report, e);
                return report;
            }
        }
    }
    report
}

/// Knobs for one load phase.
struct PhaseSpec<'a> {
    label: &'a str,
    clients: usize,
    queries_per_client: usize,
    rows: usize,
    selectivity: f64,
    retries: usize,
    with_hog: bool,
    min_duration: Option<Duration>,
}

/// Run `spec.clients` concurrent connections against `server` and print one
/// result row sourced from the engine's reporter: a [`Database::report_tick`]
/// brackets the phase, and the printed qps and p50/p99 are the resulting
/// [`aidx_core::SnapshotDelta`]'s windowed `engine.queries_served` rate and
/// windowed `engine.query_ns` quantiles — the phase is one reporter
/// interval. With `with_hog`, one extra connection loops permit-holding
/// batches for the duration of the phase (see [`drive_hog`]).
fn run_phase(server: &Server, db: &Database, spec: PhaseSpec<'_>) -> PhaseOutcome {
    let PhaseSpec {
        label,
        clients,
        queries_per_client,
        rows,
        selectivity,
        retries,
        with_hog,
        min_duration,
    } = spec;
    let addr = server.local_addr();
    let reply_timeout = Duration::from_secs(10);
    let stop_hog = std::sync::atomic::AtomicBool::new(false);
    let hog_ready = std::sync::atomic::AtomicBool::new(false);
    // open the reporter interval: the phase's own delta starts here
    db.report_tick();
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let hog = with_hog.then(|| {
            let (stop_hog, hog_ready) = (&stop_hog, &hog_ready);
            scope.spawn(move || drive_hog(addr, rows, stop_hog, hog_ready))
        });
        if with_hog {
            // don't release the fleet until the hog has pushed a whole
            // batch through — otherwise a fast fleet can finish before the
            // hog ever contends for the permit
            let deadline = Instant::now() + Duration::from_secs(10);
            while !hog_ready.load(std::sync::atomic::Ordering::Acquire) && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let queries = zoo_queries(c, queries_per_client, rows, selectivity);
                    // sequential clients batch; others go query-at-a-time
                    let batch_size = if c % 5 == 2 { 8 } else { 1 };
                    drive_client(
                        addr,
                        &queries,
                        batch_size,
                        reply_timeout,
                        retries,
                        min_duration,
                    )
                })
            })
            .collect();
        let mut reports: Vec<ClientReport> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        stop_hog.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(hog) = hog {
            reports.push(hog.join().expect("hog thread panicked"));
        }
        reports
    });
    // close the reporter interval: this delta covers exactly the phase
    let delta = db
        .report_tick()
        .expect("the opening tick primed the reporter");
    let qps = delta.counter_rate("engine.queries_served").unwrap_or(0.0);
    let latency = delta.histogram("engine.query_ns");

    let completed: u64 = reports.iter().map(|r| r.completed).sum();
    let sheds_absorbed: u64 = reports.iter().map(|r| r.sheds_absorbed).sum();
    let shed_rejections: u64 = reports.iter().map(|r| r.shed_rejections).sum();
    let hangs: u64 = reports.iter().map(|r| r.hangs).sum();
    let protocol_errors: u64 = reports.iter().map(|r| r.protocol_errors).sum();
    let server_sheds = server.stats().requests_shed;
    // every shed the server counted surfaced at exactly one client as a
    // typed OVERLOADED (absorbed by retry or reported) — nothing was
    // silently dropped
    assert_eq!(
        sheds_absorbed + shed_rejections,
        server_sheds,
        "client-observed sheds must match the server's shed counter"
    );

    println!(
        "{:<12} {:>8} {:>10} {:>10.0} {:>10} {:>10} {:>12} {:>8} {:>8}",
        label,
        clients,
        completed,
        qps,
        quantile_ms(latency.and_then(|h| h.p50())),
        quantile_ms(latency.and_then(|h| h.p99())),
        server_sheds,
        hangs,
        protocol_errors,
    );
    PhaseOutcome {
        completed,
        sheds: server_sheds,
        hangs,
        protocol_errors,
    }
}

/// Phase 3: the same queries over the wire and on an embedded session must
/// produce byte-identical encodings, and every other query projects the key
/// so that the rows the client decoded are the rows the session streams.
fn assert_wire_fidelity(server: &Server, db: &Database, rows: usize, selectivity: f64) {
    let session = db.session();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut checked = 0usize;
    for c in 0..5 {
        for (i, query) in zoo_queries(c, 8, rows, selectivity).into_iter().enumerate() {
            let query = if i % 2 == 1 {
                query.project(["k"])
            } else {
                query
            };
            let wire = client.query(&query).expect("wire query");
            let result = session.execute(&query).expect("embedded query");
            let embedded = WireResult::from_query_result(&result);
            assert_eq!(
                wire.encoded(),
                embedded.encoded(),
                "wire and embedded results diverge for {query:?}"
            );
            assert!(
                wire.rows.iter().eq(result.rows()),
                "wire rows diverge from the embedded rows for {query:?}"
            );
            checked += 1;
        }
    }
    println!("\nwire fidelity: {checked} queries byte-identical to the embedded session");
}

fn main() {
    let config = HarnessConfig::default();
    let rows = config.rows.min(500_000);
    let clients = std::env::var("AIDX_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32usize);
    let queries_per_client = (config.queries / clients.max(1)).max(8);
    let selectivity = config.selectivity;

    println!(
        "# E14 server load — {rows} rows, {clients} clients x {queries_per_client} queries, \
         selectivity {selectivity}"
    );
    println!(
        "\n{:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>12} {:>8} {:>8}",
        "phase",
        "clients",
        "completed",
        "qps",
        "p50 ms",
        "p99 ms",
        "server-sheds",
        "hangs",
        "protoerr"
    );

    // phase 1: sustained load, generous admission budget — sheds possible
    // but rare, so clients absorb them with retries
    let db = build_db(rows, config.seed);
    let server = Server::start(
        db.clone(),
        ServerConfig::localhost()
            .with_max_connections(clients + 8)
            .with_max_in_flight(clients.max(4)),
    )
    .expect("bind localhost");
    // retries unbounded: the generous budget makes sheds rare, the reply
    // timeout still converts any hang into a counted failure, and an
    // exhausted-retry error would lose its absorbed-shed count and break
    // the client/server shed-accounting cross-check
    let sustained = run_phase(
        &server,
        &db,
        PhaseSpec {
            label: "sustained",
            clients,
            queries_per_client,
            rows,
            selectivity,
            retries: usize::MAX,
            with_hog: false,
            min_duration: None,
        },
    );
    assert!(sustained.completed > 0, "sustained phase completed nothing");
    assert_eq!(
        sustained.protocol_errors, 0,
        "sustained phase saw protocol errors"
    );
    assert_eq!(sustained.hangs, 0, "sustained phase hung");

    // STATS cross-check: with every client joined, the wire snapshot, the
    // embedded Server::stats() view, and the clients' own completion count
    // must all agree — the three views read the same registry
    let mut stats_client = Client::connect(server.local_addr()).expect("connect for STATS");
    let wire_snapshot = stats_client.stats().expect("STATS reply");
    let wire_served = wire_snapshot
        .counter("server.queries_served")
        .expect("server.queries_served in STATS reply");
    assert_eq!(
        wire_served,
        server.stats().queries_served,
        "INTROSPECT(Stats) and Server::stats() diverged"
    );
    assert_eq!(
        wire_served, sustained.completed,
        "server-side queries_served must match the clients' completion count"
    );
    println!(
        "\nSTATS cross-check: wire queries_served = embedded stats() = client count = {wire_served}"
    );

    // phase 3 runs against the warmed sustained-phase server so fidelity is
    // checked on a cracked (partially refined) index, not a cold one
    assert_wire_fidelity(&server, &db, rows, selectivity);
    server.shutdown();

    // phase 2: saturation — one in-flight request for the whole fleet,
    // plus a hog connection whose batches keep that single permit held, so
    // the fleet's requests must collide with it. No retries: every shed
    // surfaces, and the reply timeout turns any hang into a counted
    // failure.
    let db = build_db(rows, config.seed);
    let server = Server::start(
        db.clone(),
        ServerConfig::localhost()
            .with_max_connections(clients + 8)
            .with_max_in_flight(1),
    )
    .expect("bind localhost");
    let saturated = run_phase(
        &server,
        &db,
        PhaseSpec {
            label: "saturated",
            clients,
            queries_per_client,
            rows,
            selectivity,
            retries: 0,
            with_hog: true,
            // replay the workload for a full second: saturation needs
            // attempts spread across many hog batches and scheduler
            // timeslices, not one burst that can land between two batches
            // on a small machine
            min_duration: Some(Duration::from_secs(1)),
        },
    );
    server.shutdown();
    assert!(saturated.completed > 0, "saturated phase completed nothing");
    assert!(
        saturated.sheds > 0,
        "saturation must shed: budget 1, {clients} clients + a batch hog, 0 sheds"
    );
    assert_eq!(saturated.hangs, 0, "saturated phase hung (timeout hit)");
    assert_eq!(
        saturated.protocol_errors, 0,
        "saturated phase saw protocol errors"
    );

    println!(
        "\nacceptance: {} clients sustained, {} sheds under saturation, 0 hangs, 0 protocol errors",
        clients, saturated.sheds
    );
}
