//! Failure-path and concurrency tests for the `aidx-server` TCP front-end.
//!
//! The server's contract is that *every* outcome — hostile bytes, dead
//! clients, saturation — is either a typed reply or a clean close, never a
//! hang. Each test here drives one failure mode over a real socket and
//! asserts that contract, plus one concurrency test asserting that results
//! fetched over the wire are byte-identical to an embedded session's.

use adaptive_indexing::columnstore::{Column, Table, Value};
use adaptive_indexing::server::protocol::{read_frame, write_frame, Reply};
use adaptive_indexing::server::{
    Client, ClientError, ErrorCode, Rows, Server, ServerConfig, WireResult,
};
use adaptive_indexing::telemetry::Snapshot;
use adaptive_indexing::{Aggregation, Database, Query, StrategyKind};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

const ROWS: i64 = 10_000;

fn served(config: ServerConfig) -> (Server, Database) {
    let db = Database::new(StrategyKind::Cracking);
    db.create_table(
        "events",
        Table::from_columns(vec![
            ("k", Column::from_i64((0..ROWS).rev().collect())),
            ("v", Column::from_i64((0..ROWS).map(|i| i % 97).collect())),
        ])
        .unwrap(),
    )
    .unwrap();
    let server = Server::start(db.clone(), config).unwrap();
    (server, db)
}

/// Read one reply frame off a raw socket, with a timeout so a server hang
/// fails the test instead of wedging it.
fn raw_reply(stream: &mut TcpStream) -> Result<Option<Reply>, std::io::Error> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match read_frame(stream, 64 * 1024 * 1024) {
        Ok(Some(payload)) => Ok(Some(Reply::decode(&payload).expect("decodable reply"))),
        Ok(None) => Ok(None),
        Err(e) => Err(std::io::Error::other(format!("{e:?}"))),
    }
}

#[test]
fn malformed_payload_gets_typed_error_and_connection_survives() {
    let (server, _db) = served(ServerConfig::localhost());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // a QUERY opcode followed by garbage: framing is intact, the payload is
    // not — the server must reply Malformed and keep the connection
    write_frame(&mut stream, &[0x02, 0xFF, 0xFF, 0xFF]).unwrap();
    match raw_reply(&mut stream).unwrap() {
        Some(Reply::Error(e)) => assert_eq!(e.code, ErrorCode::Malformed),
        other => panic!("expected a typed malformed error, got {other:?}"),
    }
    // an empty payload has no opcode at all
    write_frame(&mut stream, &[]).unwrap();
    match raw_reply(&mut stream).unwrap() {
        Some(Reply::Error(e)) => assert_eq!(e.code, ErrorCode::Malformed),
        other => panic!("expected a typed malformed error, got {other:?}"),
    }
    // the same connection still serves well-formed requests
    write_frame(&mut stream, &[0x01]).unwrap(); // PING
    assert!(matches!(raw_reply(&mut stream).unwrap(), Some(Reply::Pong)));
    server.shutdown();
}

#[test]
fn unknown_opcode_gets_typed_error() {
    let (server, _db) = served(ServerConfig::localhost());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut stream, &[0x7E]).unwrap();
    match raw_reply(&mut stream).unwrap() {
        Some(Reply::Error(e)) => assert_eq!(e.code, ErrorCode::UnknownOpcode),
        other => panic!("expected a typed unknown-opcode error, got {other:?}"),
    }
    write_frame(&mut stream, &[0x01]).unwrap();
    assert!(matches!(raw_reply(&mut stream).unwrap(), Some(Reply::Pong)));
    server.shutdown();
}

#[test]
fn oversized_frame_gets_typed_error_then_close() {
    let (server, _db) = served(ServerConfig::localhost().with_max_frame_bytes(1024));
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // announce a 1 MiB payload against a 1 KiB cap; the server must answer
    // from the header alone (the payload is never sent)
    let announced: u32 = 1024 * 1024;
    stream.write_all(&announced.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    match raw_reply(&mut stream).unwrap() {
        Some(Reply::Error(e)) => assert_eq!(e.code, ErrorCode::Oversized),
        other => panic!("expected a typed oversized error, got {other:?}"),
    }
    // resynchronization is impossible after an unread payload: clean close
    assert!(matches!(raw_reply(&mut stream), Ok(None) | Err(_)));
    server.shutdown();
}

#[test]
fn client_disconnect_mid_frame_leaves_server_serving() {
    let (server, _db) = served(ServerConfig::localhost());
    {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // announce 100 payload bytes, send 3, vanish
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[0x02, 0x00, 0x01]).unwrap();
        stream.flush().unwrap();
    } // dropped: mid-frame disconnect
    {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // a bare header with no payload at all, then vanish
        stream.write_all(&16u32.to_le_bytes()).unwrap();
        stream.flush().unwrap();
    }
    // new clients are served as if nothing happened
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    let result = client
        .query(&Query::table("events").range("k", 0, 10))
        .unwrap();
    assert_eq!(result.row_count(), 10);
    assert_eq!(server.stats().connections_accepted, 3);
    server.shutdown();
}

#[test]
fn saturation_sheds_with_typed_replies_and_never_hangs() {
    let (server, _db) = served(ServerConfig::localhost().with_max_in_flight(1));
    let addr = server.local_addr();
    let completed = AtomicU64::new(0);
    let sheds = AtomicU64::new(0);
    let attempted = AtomicU64::new(0);
    // every client is connected before any sends, so the eight loops run
    // side by side instead of one after another
    let connected = Barrier::new(8);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let (completed, sheds, attempted) = (&completed, &sheds, &attempted);
            let connected = &connected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // the zero-hang guarantee: any reply older than 10 s panics
                // this thread (and fails the test) instead of wedging
                client
                    .set_reply_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                connected.wait();
                // rounds of 30 queries until some client has been shed: two
                // of them overlapping on the one permit is likely in a
                // round, not certain
                for round in 0..100 {
                    if round > 0 && sheds.load(Ordering::Relaxed) > 0 {
                        break;
                    }
                    for i in 0..30 {
                        let low = ((t * 31 + i) * 7) % (ROWS - 50);
                        let query = Query::table("events").range("k", low, low + 50);
                        attempted.fetch_add(1, Ordering::Relaxed);
                        match client.query(&query) {
                            Ok(result) => {
                                assert_eq!(result.row_count(), 50);
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ClientError::Overloaded { budget, .. }) => {
                                assert_eq!(budget, 1);
                                sheds.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("unexpected failure under load: {other:?}"),
                        }
                    }
                }
            });
        }
    });
    let (completed, sheds) = (completed.into_inner(), sheds.into_inner());
    let attempted = attempted.into_inner();
    assert!(attempted >= 8 * 30);
    assert_eq!(completed + sheds, attempted, "every request got an answer");
    assert!(completed > 0, "a budget of one still makes progress");
    assert!(
        sheds > 0,
        "8 clients against a budget of 1 must shed ({completed} completed)"
    );
    assert_eq!(server.stats().requests_shed, sheds);
    server.shutdown();
}

#[test]
fn connection_cap_rejects_with_typed_error() {
    let (server, _db) = served(ServerConfig::localhost().with_max_connections(2));
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    // pings force both connections through registration before the third
    // connect, so the cap check cannot race the accept loop
    a.ping().unwrap();
    b.ping().unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    match raw_reply(&mut stream).unwrap() {
        Some(Reply::Error(e)) => assert_eq!(e.code, ErrorCode::AtCapacity),
        other => panic!("expected a typed at-capacity rejection, got {other:?}"),
    }
    assert!(matches!(raw_reply(&mut stream), Ok(None) | Err(_)));
    // the admitted connections are unaffected
    a.ping().unwrap();
    b.ping().unwrap();
    assert_eq!(server.stats().connections_rejected, 1);
    server.shutdown();
}

#[test]
fn concurrent_clients_match_embedded_session_byte_for_byte() {
    let (server, db) = served(ServerConfig::localhost());
    let addr = server.local_addr();
    // precompute embedded baselines, then race 8 wire clients over the same
    // queries while the adaptive index refines under all of them: a
    // conjunction with a projection, and the three single-predicate shapes
    // whose row ids reach the reply straight from the cracked piece — a bare
    // range, a count, and a fetch of the projected rows
    let queries: Vec<Query> = (0..24)
        .map(|i| {
            let low = (i * 389) % (ROWS - 200);
            let range = Query::table("events").range("k", low, low + 200);
            match i % 4 {
                0 => range.point("v", i % 97).project(["k", "v"]),
                1 => range,
                2 => range.aggregate(Aggregation::Count, "k"),
                _ => range.project(["k"]),
            }
        })
        .collect();
    let session = db.session();
    let baselines: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| WireResult::from_query_result(&session.execute(q).unwrap()).encoded())
        .collect();
    // `k` holds ROWS-1 down to 0, so key `k` lives in row `ROWS - 1 - k`: the
    // replies must carry the rows of each range in ascending row order
    let expected_rows = |i: usize| -> Vec<u32> {
        let low = (i as i64 * 389) % (ROWS - 200);
        (ROWS - low - 200..ROWS - low)
            .map(|row| row as u32)
            .collect()
    };
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let (queries, baselines) = (&queries, &baselines);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client
                    .set_reply_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                // each thread walks the query list from its own offset
                for step in 0..queries.len() {
                    let i = (t * 3 + step) % queries.len();
                    let wire = client.query(&queries[i]).unwrap();
                    assert_eq!(
                        wire.encoded(),
                        baselines[i],
                        "wire result diverged from the embedded session"
                    );
                    if i % 4 != 0 {
                        assert_eq!(wire.positions, expected_rows(i), "query {i}");
                    }
                    if i % 4 == 2 {
                        assert_eq!(wire.aggregate, Some(Value::Int64(200)));
                    }
                    if i % 4 == 3 {
                        let keys: Vec<Value> = expected_rows(i)
                            .iter()
                            .map(|&row| Value::Int64(ROWS - 1 - row as i64))
                            .collect();
                        assert_eq!(wire.rows, Rows::new(1, keys), "query {i}");
                    }
                }
            });
        }
    });
    assert_eq!(server.stats().queries_served, 8 * 24);
    server.shutdown();
}

/// A reply of about 30 KiB is larger than a small write buffer and smaller
/// than one loopback segment. Sent as a header and a payload in two writes
/// without `TCP_NODELAY`, the payload waits for the delayed ACK of the
/// header, about 40 ms per reply; sent as one write, it does not wait.
#[test]
fn mid_sized_replies_do_not_wait_for_a_delayed_ack() {
    let (server, _db) = served(ServerConfig::localhost());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .set_reply_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let fetch = |i: i64| {
        let low = i * 700;
        Query::table("events")
            .range("k", low, low + 2_000)
            .project(["k"])
    };
    let first = client.query(&fetch(0)).unwrap();
    assert!((28_000..34_000).contains(&first.encoded().len()));
    let started = std::time::Instant::now();
    for i in 1..=10 {
        assert_eq!(client.query(&fetch(i)).unwrap().rows.len(), 2_000);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "ten 30 KiB replies took {elapsed:?}"
    );
    server.shutdown();
}

#[test]
fn stats_roundtrip_over_a_live_socket() {
    let (server, db) = served(ServerConfig::localhost());
    let mut client = Client::connect(server.local_addr()).unwrap();
    for i in 0..5 {
        let low = i * 100;
        client
            .query(&Query::table("events").range("k", low, low + 50))
            .unwrap();
    }
    client
        .insert("events", &[Value::Int64(-1), Value::Int64(0)])
        .unwrap();
    let snapshot = client.stats().unwrap();
    // server-side counters travelled the wire intact
    assert_eq!(snapshot.counter("server.queries_served"), Some(5));
    assert_eq!(snapshot.counter("server.inserts_served"), Some(1));
    assert_eq!(snapshot.histogram("server.query_ns").unwrap().count, 5);
    // engine-side metrics are merged into the same snapshot and agree with
    // the embedded view of the same database
    let embedded = db.telemetry().metrics;
    assert_eq!(
        snapshot.counter("engine.queries_served"),
        embedded.counter("engine.queries_served")
    );
    assert_eq!(snapshot.counter("engine.rows_inserted"), Some(1));
    server.shutdown();
}

#[test]
fn stats_snapshot_is_monotone_across_reads() {
    let (server, _db) = served(ServerConfig::localhost());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .query(&Query::table("events").range("k", 0, 100))
        .unwrap();
    let first = client.stats().unwrap();
    client
        .query(&Query::table("events").range("k", 200, 300))
        .unwrap();
    client
        .query(&Query::table("events").range("k", 400, 500))
        .unwrap();
    let second = client.stats().unwrap();
    // counters and histogram counts never go backwards between reads
    for counter in &first.counters {
        let later = second.counter(&counter.name).unwrap_or(0);
        assert!(
            later >= counter.value,
            "{} went backwards: {} -> {later}",
            counter.name,
            counter.value
        );
    }
    for hist in &first.histograms {
        let later = second.histogram(&hist.name).map_or(0, |h| h.count);
        assert!(
            later >= hist.count,
            "{} count went backwards: {} -> {later}",
            hist.name,
            hist.count
        );
    }
    assert_eq!(second.counter("server.queries_served"), Some(3));
    server.shutdown();
}

#[test]
fn malformed_stats_request_gets_typed_error() {
    let (server, _db) = served(ServerConfig::localhost());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // an INTROSPECT naming an unknown surface, then the stats surface with trailing
    // garbage: framing is intact, so each is a malformed frame, answered
    // without closing
    for payload in [&[0x05, 0xAA][..], &[0x05, 0x00, 0xBB]] {
        write_frame(&mut stream, payload).unwrap();
        match raw_reply(&mut stream).unwrap() {
            Some(Reply::Error(e)) => assert_eq!(e.code, ErrorCode::Malformed),
            other => panic!("expected a typed malformed error, got {other:?}"),
        }
    }
    // the same connection still answers a well-formed INTROSPECT(stats)
    write_frame(&mut stream, &[0x05, 0x00]).unwrap();
    match raw_reply(&mut stream).unwrap() {
        Some(Reply::Introspection(body)) => {
            let snapshot: Snapshot = serde_json::from_str(&body).unwrap();
            assert_eq!(snapshot.counter("server.errors_sent"), Some(2));
        }
        other => panic!("expected an introspection reply, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn metrics_and_traces_roundtrip_over_a_live_socket() {
    let (server, db) = served(ServerConfig::localhost());
    let mut client = Client::connect(server.local_addr()).unwrap();
    // the reply-timeout guard: a hanging METRICS/TRACES dispatch fails the
    // test instead of wedging it
    client
        .set_reply_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // default 1/64 sampling: the first query is always sampled
    client
        .query(&Query::table("events").range("k", 100, 400))
        .unwrap();

    let text = client.metrics_text().unwrap();
    assert!(text.contains("# TYPE engine_query_ns histogram"), "{text}");
    assert!(text.contains("engine_queries_served 1\n"), "{text}");
    assert!(text.contains("server_queries_served 1\n"), "{text}");
    // every non-comment line is `name[{labels}] value` with a numeric value
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "{line:?}");
    }

    let traces = client.traces().unwrap();
    assert_eq!(traces, db.recent_traces(), "wire ring == embedded ring");
    assert_eq!(traces.len(), 1);
    assert!(traces[0].refinement_effort() > 0, "the query cracked");

    // both dispatches are instrumented; the next scrape sees them
    let snapshot = client.stats().unwrap();
    assert_eq!(snapshot.histogram("server.introspect_ns").unwrap().count, 2);
    server.shutdown();
}

#[test]
fn malformed_metrics_and_traces_requests_get_typed_errors() {
    let (server, _db) = served(ServerConfig::localhost());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // the retired per-surface opcodes 0x06..=0x09 are unknown opcodes,
    // answered without closing
    for opcode in [0x06u8, 0x07, 0x08, 0x09] {
        write_frame(&mut stream, &[opcode]).unwrap();
        match raw_reply(&mut stream).unwrap() {
            Some(Reply::Error(e)) => assert_eq!(e.code, ErrorCode::UnknownOpcode),
            other => panic!("expected a typed unknown-opcode error, got {other:?}"),
        }
    }
    // the same connection still answers INTROSPECT
    write_frame(&mut stream, &[0x05, 0x01]).unwrap();
    match raw_reply(&mut stream).unwrap() {
        Some(Reply::Introspection(text)) => {
            assert!(text.contains("server_errors_sent 4\n"), "{text}");
        }
        other => panic!("expected a metrics-text reply, got {other:?}"),
    }
    write_frame(&mut stream, &[0x05, 0x02]).unwrap();
    match raw_reply(&mut stream).unwrap() {
        Some(Reply::Introspection(body)) => assert_eq!(body, "[]", "no queries ran"),
        other => panic!("expected a traces reply, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn inserts_over_the_wire_are_totally_ordered_with_queries() {
    let (server, db) = served(ServerConfig::localhost());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let row_id = client
        .insert("events", &[Value::Int64(ROWS * 2), Value::Int64(0)])
        .unwrap();
    assert_eq!(row_id, ROWS as u64);
    let wire = client
        .query(&Query::table("events").point("k", ROWS * 2))
        .unwrap();
    assert_eq!(wire.row_count(), 1);
    // the embedded view agrees
    assert_eq!(db.row_count("events").unwrap(), ROWS as usize + 1);
    server.shutdown();
}
