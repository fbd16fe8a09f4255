//! The client half of the wire protocol: a blocking connection handle.
//!
//! [`Client`] is intentionally symmetrical with the embedded
//! [`aidx_core::Session`] API: you hand it the same [`Query`] values a
//! session would execute, and you get back a [`WireResult`] that is
//! byte-for-byte what the server computed from its own session. An
//! admission-control shed surfaces as the matchable
//! [`ClientError::Overloaded`] — the caller decides whether to back off and
//! retry ([`Client::query_with_retry`] implements the obvious policy).

use crate::error::ClientError;
use crate::protocol::{
    put_batch_request, put_insert_request, put_query_request, read_frame_into, send_frame,
    BatchItem, Reply, Request, Surface, WireError, WireResult, DEFAULT_MAX_FRAME_BYTES,
};
use aidx_columnstore::types::Value;
use aidx_core::Query;
use aidx_telemetry::{AlertEvent, AlertStatus, QueryTrace, Snapshot, SnapshotDelta};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking client connection to an [`crate::Server`].
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    max_frame_bytes: usize,
    /// The outgoing frame, reused by every request.
    request: Vec<u8>,
    /// The latest reply's payload, reused by every reply.
    reply: Vec<u8>,
}

impl std::fmt::Debug for Client {
    // the buffers are left out: the reply one can hold megabytes
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("reader", &self.reader)
            .field("writer", &self.writer)
            .field("max_frame_bytes", &self.max_frame_bytes)
            .finish_non_exhaustive()
    }
}

/// Per-query outcome of [`Client::batch`].
pub type BatchOutcome = Vec<Result<WireResult, WireError>>;

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ClientError::Io)?;
        stream.set_nodelay(true).ok(); // request/reply traffic: latency over batching
        let writer = stream.try_clone().map_err(ClientError::Io)?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            request: Vec::new(),
            reply: Vec::new(),
        })
    }

    /// Bound how long any single reply may take before the connection
    /// errors with [`std::io::ErrorKind::WouldBlock`]/`TimedOut` — the
    /// "zero hangs" guarantee the load generator asserts. `None` restores
    /// blocking reads.
    pub fn set_reply_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(ClientError::Io)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(|buf| Request::Ping.encode_into(buf))? {
            Reply::Pong => Ok(()),
            other => Err(unexpected(other, "pong")),
        }
    }

    /// Execute one query. An admission-control shed surfaces as
    /// [`ClientError::Overloaded`]; a typed engine failure as
    /// [`ClientError::Server`].
    pub fn query(&mut self, query: &Query) -> Result<WireResult, ClientError> {
        match self.roundtrip(|buf| put_query_request(buf, query))? {
            Reply::Result(result) => Ok(result),
            other => Err(unexpected(other, "query result")),
        }
    }

    /// Execute one query, retrying overload sheds up to `max_retries` times
    /// with the given backoff between attempts. Returns the result plus the
    /// number of sheds absorbed; any other error is returned immediately.
    pub fn query_with_retry(
        &mut self,
        query: &Query,
        max_retries: usize,
        backoff: Duration,
    ) -> Result<(WireResult, usize), ClientError> {
        let mut sheds = 0;
        loop {
            match self.query(query) {
                Ok(result) => return Ok((result, sheds)),
                Err(e) if e.is_overloaded() && sheds < max_retries => {
                    sheds += 1;
                    std::thread::sleep(backoff);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Execute many queries under one admission permit (one request frame,
    /// one reply frame). Per-query engine failures come back in-position;
    /// a shed rejects the whole batch as [`ClientError::Overloaded`].
    pub fn batch(&mut self, queries: &[Query]) -> Result<BatchOutcome, ClientError> {
        match self.roundtrip(|buf| put_batch_request(buf, queries))? {
            Reply::Batch(items) => Ok(items
                .into_iter()
                .map(|item| match item {
                    BatchItem::Result(result) => Ok(result),
                    BatchItem::Error(error) => Err(error),
                })
                .collect()),
            other => Err(unexpected(other, "batch result")),
        }
    }

    /// Fetch the server's merged telemetry snapshot: every `engine.*`,
    /// `maintenance.*`, and `wal.*` metric from the served database plus the
    /// `server.*` request counters and per-opcode latency histograms. Never
    /// shed by admission control — it stays answerable during overload.
    pub fn stats(&mut self) -> Result<Snapshot, ClientError> {
        Ok(serde_json::from_str(&self.introspect(Surface::Stats)?)?)
    }

    /// Fetch the same merged snapshot rendered as Prometheus text
    /// exposition format — the scrape endpoint in wire form. Never shed by
    /// admission control.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        self.introspect(Surface::Metrics)
    }

    /// Fetch the engine's recent sampled query traces (the trace-sampler
    /// ring, oldest first). Never shed by admission control.
    pub fn traces(&mut self) -> Result<Vec<QueryTrace>, ClientError> {
        Ok(serde_json::from_str(&self.introspect(Surface::Traces)?)?)
    }

    /// Fetch the engine's alerting surfaces: the current per-rule
    /// [`AlertStatus`] list plus the journaled [`AlertEvent`] transitions
    /// (oldest first). Both are empty when the served database was built
    /// without [`aidx_core::DatabaseBuilder::alerts`]. Never shed by
    /// admission control — active alerts are exactly what an operator polls
    /// during an incident.
    pub fn alerts(&mut self) -> Result<(Vec<AlertStatus>, Vec<AlertEvent>), ClientError> {
        Ok(serde_json::from_str(&self.introspect(Surface::Alerts)?)?)
    }

    /// Fetch the engine reporter's retained per-interval [`SnapshotDelta`]
    /// ring (oldest first) — the rate history behind [`Client::stats`].
    /// Never shed by admission control.
    pub fn history(&mut self) -> Result<Vec<SnapshotDelta>, ClientError> {
        Ok(serde_json::from_str(&self.introspect(Surface::History)?)?)
    }

    /// Append one row (one value per column, in schema order); returns the
    /// assigned row id.
    pub fn insert(&mut self, table: &str, values: &[Value]) -> Result<u64, ClientError> {
        match self.roundtrip(|buf| put_insert_request(buf, table, values))? {
            Reply::Inserted { row_id } => Ok(row_id),
            other => Err(unexpected(other, "insert acknowledgement")),
        }
    }

    /// Read one operator surface's reply body.
    fn introspect(&mut self, surface: Surface) -> Result<String, ClientError> {
        match self.roundtrip(|buf| Request::Introspect(surface).encode_into(buf))? {
            Reply::Introspection(body) => Ok(body),
            other => Err(unexpected(other, "introspection")),
        }
    }

    /// Send one request frame, whose payload `encode` writes, and read
    /// exactly one reply frame.
    fn roundtrip(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<Reply, ClientError> {
        send_frame(&mut self.writer, &mut self.request, encode).map_err(ClientError::Io)?;
        if !read_frame_into(&mut self.reader, self.max_frame_bytes, &mut self.reply)? {
            return Err(ClientError::Disconnected);
        }
        match Reply::decode(&self.reply)? {
            Reply::Error(error) => Err(ClientError::Server(error)),
            Reply::Overloaded { in_flight, budget } => {
                Err(ClientError::Overloaded { in_flight, budget })
            }
            reply => Ok(reply),
        }
    }
}

fn unexpected(reply: Reply, expected: &'static str) -> ClientError {
    debug_assert!(
        !matches!(reply, Reply::Error(_) | Reply::Overloaded { .. }),
        "roundtrip already mapped error replies"
    );
    ClientError::UnexpectedReply { expected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::protocol::{read_frame, write_frame, ErrorCode};
    use crate::server::Server;
    use aidx_columnstore::column::Column;
    use aidx_columnstore::table::Table;
    use aidx_core::{
        Aggregation, AlertCondition, AlertConfig, AlertRule, AlertState, Database, StrategyKind,
    };
    use aidx_telemetry::{
        AlertEventKind, CounterDelta, CounterSnapshot, GaugeDelta, GaugeSnapshot,
        HistogramSnapshot, SpanEvent,
    };

    fn served_db() -> (Server, Database) {
        let db = Database::new(StrategyKind::Cracking);
        db.create_table(
            "events",
            Table::from_columns(vec![
                ("ts", Column::from_i64((0..200).rev().collect())),
                ("kind", Column::from_i64((0..200).map(|i| i % 5).collect())),
            ])
            .unwrap(),
        )
        .unwrap();
        let server = Server::start(db.clone(), ServerConfig::localhost()).unwrap();
        (server, db)
    }

    #[test]
    fn query_matches_embedded_session_byte_for_byte() {
        let (server, db) = served_db();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let query = Query::table("events")
            .range("ts", 50, 150)
            .point("kind", 2)
            .project(["ts", "kind"])
            .aggregate(Aggregation::Count, "ts");
        let over_the_wire = client.query(&query).unwrap();
        let result = db.session().execute(&query).unwrap();
        let embedded = WireResult::from_query_result(&result);
        assert_eq!(over_the_wire, embedded);
        assert_eq!(over_the_wire.encoded(), embedded.encoded());
        // row by row, the rows the embedded session streams
        assert_eq!(over_the_wire.rows.len(), 20);
        assert!(over_the_wire.rows.iter().eq(result.rows()));
        server.shutdown();
    }

    #[test]
    fn insert_is_visible_to_subsequent_queries() {
        let (server, db) = served_db();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let row_id = client
            .insert("events", &[Value::Int64(999), Value::Int64(1)])
            .unwrap();
        assert_eq!(row_id, 200);
        let result = client
            .query(&Query::table("events").point("ts", 999))
            .unwrap();
        assert_eq!(result.row_count(), 1);
        assert_eq!(db.row_count("events").unwrap(), 201);
        server.shutdown();
    }

    #[test]
    fn engine_errors_are_typed_and_non_fatal() {
        let (server, _db) = served_db();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let err = client.query(&Query::table("no_such_table")).unwrap_err();
        match err {
            ClientError::Server(wire) => assert_eq!(wire.code, ErrorCode::Store),
            other => panic!("{other:?}"),
        }
        let err = client
            .query(&Query::table("events").range("ts", 10, 5))
            .unwrap_err();
        match err {
            ClientError::Server(wire) => assert_eq!(wire.code, ErrorCode::InvalidRange),
            other => panic!("{other:?}"),
        }
        // the connection survived both errors
        client.ping().unwrap();
        assert_eq!(server.stats().errors_sent, 2);
        server.shutdown();
    }

    #[test]
    fn batch_returns_per_query_outcomes_in_order() {
        let (server, db) = served_db();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let queries = vec![
            Query::table("events").range("ts", 0, 10),
            Query::table("missing").point("x", 1),
            Query::table("events").point("kind", 3).project(["ts"]),
        ];
        let outcomes = client.batch(&queries).unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].as_ref().unwrap().row_count(), 10);
        assert_eq!(outcomes[1].as_ref().unwrap_err().code, ErrorCode::Store);
        let expected = WireResult::from_query_result(&db.session().execute(&queries[2]).unwrap());
        assert_eq!(outcomes[2].as_ref().unwrap(), &expected);
        assert_eq!(server.stats().queries_served, 2, "two of three completed");
        let empty = client.batch(&[]).unwrap();
        assert!(empty.is_empty());
        server.shutdown();
    }

    #[test]
    fn stats_merges_engine_and_server_metrics() {
        let (server, _db) = served_db();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .query(&Query::table("events").range("ts", 20, 80))
            .unwrap();
        let snapshot = client.stats().unwrap();
        assert_eq!(snapshot.counter("server.queries_served"), Some(1));
        assert_eq!(snapshot.counter("engine.queries_served"), Some(1));
        let latency = snapshot.histogram("server.query_ns").unwrap();
        assert_eq!(latency.count, 1);
        // the wire view and the embedded stats() view read the same counters
        assert_eq!(
            snapshot.counter("server.queries_served").unwrap(),
            server.stats().queries_served
        );
        server.shutdown();
    }

    #[test]
    fn metrics_text_is_prometheus_rendered_merged_snapshot() {
        let (server, _db) = served_db();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .query(&Query::table("events").range("ts", 20, 80))
            .unwrap();
        let text = client.metrics_text().unwrap();
        // engine and server families, Prometheus-sanitized names
        assert!(text.contains("engine_queries_served 1\n"), "{text}");
        assert!(text.contains("server_queries_served 1\n"), "{text}");
        assert!(text.contains("# TYPE engine_query_ns histogram"), "{text}");
        assert!(
            text.contains("engine_query_ns_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        // the scrape itself is timed
        let snapshot = client.stats().unwrap();
        assert_eq!(snapshot.histogram("server.introspect_ns").unwrap().count, 1);
        server.shutdown();
    }

    #[test]
    fn traces_returns_the_sampled_ring_over_the_wire() {
        let (server, db) = served_db();
        let mut client = Client::connect(server.local_addr()).unwrap();
        // default 1/64 sampling: the very first query is always sampled
        client
            .query(&Query::table("events").range("ts", 50, 150))
            .unwrap();
        let traces = client.traces().unwrap();
        assert_eq!(traces, db.recent_traces(), "wire view == embedded view");
        assert_eq!(traces.len(), 1);
        assert!(traces[0].refinement_effort() > 0, "the query cracked");
        server.shutdown();
    }

    #[test]
    fn alerts_and_history_round_trip_the_engine_surfaces() {
        let mut alert_config = AlertConfig::new();
        alert_config.rules = vec![AlertRule::new(
            "wire-traffic",
            AlertCondition::CounterRateAbove {
                counter: "server.queries_served".into(),
                per_second: 0.5,
            },
        )
        .for_intervals(1)
        .recovery_intervals(1)];
        let db = Database::builder()
            .default_strategy(StrategyKind::Cracking)
            .alerts(alert_config)
            .build();
        db.create_table(
            "events",
            Table::from_columns(vec![("ts", Column::from_i64((0..128).rev().collect()))]).unwrap(),
        )
        .unwrap();
        let server = Server::start(db.clone(), ServerConfig::localhost()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        // quiescent: one idle rule, empty journal, empty history ring
        let (status, events) = client.alerts().unwrap();
        assert_eq!(status.len(), 1);
        assert_eq!(status[0].rule, "wire-traffic");
        assert_eq!(status[0].state, AlertState::Idle);
        assert!(events.is_empty());
        assert!(client.history().unwrap().is_empty());

        // drive wire traffic, then complete reporter intervals: the rule's
        // counter only moves because the server instruments itself on the
        // engine's registry
        assert!(db.report_tick().is_none(), "first tick primes the baseline");
        for _ in 0..2 {
            client
                .query(&Query::table("events").range("ts", 0, 50))
                .unwrap();
            std::thread::sleep(Duration::from_millis(2));
            db.report_tick().expect("a completed interval");
        }
        let (status, events) = client.alerts().unwrap();
        assert_eq!(status[0].state, AlertState::Firing);
        assert!(status[0].times_fired >= 1);
        assert!(!events.is_empty(), "journal travelled the wire");
        // the wire view is the embedded view, field for field
        assert_eq!(status, db.alert_status());
        assert_eq!(events, db.alert_events());
        let history = client.history().unwrap();
        assert_eq!(history, db.recent_reports());
        assert_eq!(history.len(), 2);
        assert!(history.iter().any(|delta| delta
            .counters
            .iter()
            .any(|c| c.name == "server.queries_served" && c.delta > 0)));
        // the four reads above are themselves timed
        let snapshot = client.stats().unwrap();
        assert_eq!(snapshot.histogram("server.introspect_ns").unwrap().count, 4);
        server.shutdown();
    }

    #[test]
    fn alert_states_and_index_health_are_scrapable_gauges() {
        let mut alert_config = AlertConfig::new();
        alert_config.rules = vec![AlertRule::new(
            "wire-traffic",
            AlertCondition::CounterRateAbove {
                counter: "server.queries_served".into(),
                per_second: 0.5,
            },
        )
        .for_intervals(1)
        .recovery_intervals(1)];
        let db = Database::builder()
            .default_strategy(StrategyKind::Cracking)
            .alerts(alert_config)
            .build();
        db.create_table(
            "events",
            Table::from_columns(vec![("ts", Column::from_i64((0..128).rev().collect()))]).unwrap(),
        )
        .unwrap();
        let server = Server::start(db.clone(), ServerConfig::localhost()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert!(db.report_tick().is_none(), "first tick primes the baseline");
        client
            .query(&Query::table("events").range("ts", 0, 50))
            .unwrap();
        std::thread::sleep(Duration::from_millis(2));
        db.report_tick().expect("a completed interval");
        let text = client.metrics_text().unwrap();
        assert!(text.contains("# TYPE aidx_alert_firing gauge"), "{text}");
        assert!(
            text.contains("aidx_alert_firing{rule=\"wire-traffic\"}"),
            "{text}"
        );
        assert!(
            text.contains("aidx_index_health{table=\"events\",column=\"ts\"}"),
            "{text}"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_disconnects_clients_cleanly() {
        let (server, _db) = served_db();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        server.shutdown();
        let err = client.ping().unwrap_err();
        assert!(
            matches!(
                err,
                ClientError::Disconnected | ClientError::Io(_) | ClientError::Server(_)
            ),
            "{err:?}"
        );
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            counters: vec![CounterSnapshot {
                name: "engine.queries_served".into(),
                value: 42,
            }],
            gauges: vec![GaugeSnapshot {
                name: "server.connections".into(),
                value: -1,
            }],
            histograms: vec![HistogramSnapshot {
                name: "server.query_ns".into(),
                count: 3,
                sum: u64::MAX, // where `HistogramSnapshot::merge` saturates
                buckets: vec![0, 1, 2],
            }],
        }
    }

    fn sample_trace() -> QueryTrace {
        QueryTrace {
            events: vec![
                SpanEvent::Plan {
                    driver_column: Some("ts".into()),
                    estimated_selectivity: 0.125,
                    residual_predicates: 1,
                },
                SpanEvent::IndexProbe {
                    column: "ts".into(),
                    strategy: "cracking".into(),
                    probes: 2,
                    pieces_before: 3,
                    pieces_after: 7,
                    effort_delta: 4096,
                    rebuilt: true,
                    lagging_scan: false,
                },
                SpanEvent::ZoneMapPrune {
                    chunks_scanned: 2,
                    chunks_pruned: 6,
                },
                SpanEvent::ResidualFilter {
                    column: "kind".into(),
                    candidates_in: 100,
                    rows_out: 20,
                },
                SpanEvent::Materialize {
                    rows: 20,
                    aggregated: true,
                },
            ],
            elapsed_ns: 123_456,
        }
    }

    fn sample_alerts() -> (Vec<AlertStatus>, Vec<AlertEvent>) {
        let status = AlertStatus {
            rule: "shed-spike".into(),
            state: AlertState::Firing,
            consecutive_breaches: 3,
            healthy_intervals: 0,
            observed: "server.requests_shed rate 120.0/s > 50.0/s".into(),
            times_fired: 2,
        };
        let event = AlertEvent {
            rule: "column-stalled".into(),
            kind: AlertEventKind::Firing,
            tick: 9,
            observed: "naïve ★ \"verdict\"\n".into(),
            columns: vec!["t.o_key".into(), "t.o_value".into()],
        };
        (vec![status], vec![event])
    }

    fn sample_history() -> Vec<SnapshotDelta> {
        vec![SnapshotDelta {
            interval_ns: 1_000_000,
            counters: vec![CounterDelta {
                name: "engine.queries_served".into(),
                delta: 42,
            }],
            gauges: vec![GaugeDelta {
                name: "server.connections".into(),
                level: -3,
                delta: i64::MIN,
            }],
            histograms: vec![HistogramSnapshot::empty("engine.query_ns")],
        }]
    }

    const SAMPLE_METRICS_TEXT: &str = "# TYPE engine_queries_served counter\n\
                                       engine_queries_served 1\n\
                                       aidx_alert_firing{rule=\"naïve\"} 2\n";

    /// What a client makes of an introspection reply: every strict prefix
    /// of the frame is a typed frame error, and every single-bit flip is a
    /// typed error, of the frame or of the body, or a body that reads as a
    /// different value — never a panic, never a corruption that goes
    /// unnoticed.
    fn assert_cuts_and_flips_are_typed<T: PartialEq + std::fmt::Debug>(
        value: T,
        body: String,
        parse: impl Fn(&str) -> Result<T, serde_json::Error>,
    ) {
        let encoded = Reply::Introspection(body).encode();
        let bits = (0..8).map(|bit| 1u8 << bit);
        crate::protocol::tests::assert_cuts_and_flips_are_typed(&value, &encoded, bits, |reply| {
            match reply {
                Reply::Introspection(body) => parse(&body).ok(),
                _ => None,
            }
        });
    }

    #[test]
    fn hostile_introspection_replies_are_typed_errors_for_every_surface() {
        use serde_json::{from_str, to_string};
        for surface in [
            Surface::Stats,
            Surface::Metrics,
            Surface::Traces,
            Surface::Alerts,
            Surface::History,
        ] {
            match surface {
                Surface::Stats => {
                    let body = to_string(&sample_snapshot()).unwrap();
                    assert_cuts_and_flips_are_typed(sample_snapshot(), body, from_str::<Snapshot>);
                }
                Surface::Metrics => {
                    let text = SAMPLE_METRICS_TEXT.to_owned();
                    assert_cuts_and_flips_are_typed(text.clone(), text, |body| Ok(body.to_owned()));
                }
                Surface::Traces => {
                    let traces = vec![sample_trace()];
                    let body = to_string(&traces).unwrap();
                    assert_cuts_and_flips_are_typed(traces, body, from_str::<Vec<QueryTrace>>);
                }
                Surface::Alerts => {
                    let body = to_string(&sample_alerts()).unwrap();
                    assert_cuts_and_flips_are_typed(sample_alerts(), body, from_str);
                }
                Surface::History => {
                    let body = to_string(&sample_history()).unwrap();
                    assert_cuts_and_flips_are_typed(sample_history(), body, from_str);
                }
            }
        }
    }

    #[test]
    fn bodies_that_are_not_their_surfaces_json_are_typed_client_errors() {
        // a peer that answers every request with the same non-JSON body
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let reply = Reply::Introspection("[[[".into()).encode();
            while let Ok(Some(_)) = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES) {
                write_frame(&mut stream, &reply).unwrap();
            }
        });
        let mut client = Client::connect(addr).unwrap();
        assert!(matches!(client.stats(), Err(ClientError::Json(_))));
        assert!(matches!(client.traces(), Err(ClientError::Json(_))));
        assert!(matches!(client.alerts(), Err(ClientError::Json(_))));
        assert!(matches!(client.history(), Err(ClientError::Json(_))));
        assert_eq!(client.metrics_text().unwrap(), "[[[", "text is any text");
        drop(client);
        peer.join().unwrap();
    }
}
