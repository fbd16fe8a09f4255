//! The per-connection worker: session multiplexing and request dispatch.
//!
//! Each accepted connection is served by one thread owning one
//! [`aidx_core::Session`]. The loop is strictly request → reply: read a
//! frame, dispatch, write exactly one reply frame. Failure handling follows
//! one rule — *every* outcome is either a typed reply or a clean close,
//! never a hang:
//!
//! * clean EOF at a frame boundary → close (normal disconnect);
//! * EOF/error inside a frame → close (the client died mid-request; there
//!   is nobody to reply to);
//! * oversized frame announcement → typed [`ErrorCode::Oversized`] reply,
//!   then close (the payload was never read, so the stream position is no
//!   longer trustworthy);
//! * undecodable payload → typed [`ErrorCode::Malformed`] /
//!   [`ErrorCode::UnknownOpcode`] reply, connection stays open (framing is
//!   intact — the length prefix delimited the garbage);
//! * engine error → typed engine-mapped reply, connection stays open;
//! * admission budget exhausted → typed [`Reply::Overloaded`], connection
//!   stays open, nothing executed.

use crate::error::wire_error_from;
use crate::protocol::{
    read_frame_into, send_frame, BatchItem, ErrorCode, FrameError, FrameReadError, Reply, Request,
    Surface, WireError, WireResult,
};
use crate::server::Shared;
use aidx_core::{Database, Query, Session};
use aidx_telemetry::{render_labeled_gauge, LabeledSample};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Serve one connection until disconnect, fatal protocol error, or server
/// shutdown. Always deregisters the connection on exit.
pub(crate) fn serve(shared: &Shared, conn_id: u64, stream: TcpStream) {
    let session = shared.db.session();
    let max_frame = shared.config.max_frame_bytes;
    // split the socket: buffered reads for framing; each reply is encoded
    // whole into one buffer and leaves in one write
    if let Ok(mut writer) = stream.try_clone() {
        let mut reader = BufReader::new(stream);
        let (mut request, mut frame) = (Vec::new(), Vec::new());
        loop {
            let (reply, last) = match read_frame_into(&mut reader, max_frame, &mut request) {
                // clean EOF between frames, or mid-frame disconnect / socket
                // shutdown: nothing to reply to either way
                Ok(false) | Err(FrameReadError::Io(_)) => break,
                Err(FrameReadError::Oversized { announced, max }) => {
                    shared.counters.errors_sent.incr();
                    let reply = Reply::Error(WireError::new(
                        ErrorCode::Oversized,
                        format!("frame payload of {announced} bytes exceeds cap {max}"),
                    ));
                    (reply, true) // unread payload: resynchronization is impossible
                }
                Ok(true) if shared.shutdown.load(Ordering::SeqCst) => {
                    let reply = Reply::Error(WireError::new(
                        ErrorCode::ShuttingDown,
                        "server is shutting down",
                    ));
                    (reply, true)
                }
                Ok(true) => (dispatch(shared, &session, &request), false),
            };
            // a failed write means the client went away mid-reply
            if send_frame(&mut writer, &mut frame, |buf| reply.encode_into(buf)).is_err() || last {
                break;
            }
        }
    }
    shared.deregister(conn_id);
}

/// Decode and execute one request, producing exactly one reply.
fn dispatch(shared: &Shared, session: &Session, payload: &[u8]) -> Reply {
    let request = match Request::decode(payload) {
        Ok(request) => request,
        Err(e) => {
            shared.counters.errors_sent.incr();
            let code = match e {
                FrameError::UnknownTag {
                    what: "request opcode",
                    ..
                } => ErrorCode::UnknownOpcode,
                _ => ErrorCode::Malformed,
            };
            return Reply::Error(WireError::new(code, e.to_string()));
        }
    };
    match request {
        Request::Ping => Reply::Pong,
        Request::Query(query) => {
            let Some(_permit) = shared.gate.try_acquire() else {
                return shed(shared);
            };
            let started = Instant::now();
            let reply = match run_query(shared, session, &query) {
                Ok(result) => Reply::Result(result),
                Err(error) => {
                    shared.counters.errors_sent.incr();
                    Reply::Error(error)
                }
            };
            shared.counters.query_ns.record_duration(started.elapsed());
            reply
        }
        Request::Insert { table, values } => {
            let Some(_permit) = shared.gate.try_acquire() else {
                return shed(shared);
            };
            let started = Instant::now();
            let reply = match session.insert_row(&table, &values) {
                Ok(row_id) => {
                    shared.counters.inserts_served.incr();
                    Reply::Inserted {
                        row_id: row_id as u64,
                    }
                }
                Err(e) => {
                    shared.counters.errors_sent.incr();
                    Reply::Error(wire_error_from(&e))
                }
            };
            shared.counters.insert_ns.record_duration(started.elapsed());
            reply
        }
        // the whole batch runs under ONE admission permit: many small
        // queries from many clients amortize the per-request admission and
        // scheduling overhead instead of each paying it
        Request::Batch(queries) => {
            let Some(_permit) = shared.gate.try_acquire() else {
                return shed(shared);
            };
            let started = Instant::now();
            let items = queries
                .iter()
                .map(|query| match run_query(shared, session, query) {
                    Ok(result) => BatchItem::Result(result),
                    Err(error) => {
                        shared.counters.errors_sent.incr();
                        BatchItem::Error(error)
                    }
                })
                .collect();
            shared.counters.batch_ns.record_duration(started.elapsed());
            Reply::Batch(items)
        }
        // INTROSPECT is never shed: it is the tool an operator reaches for
        // *during* overload, and it does no engine work — shedding it would
        // blind exactly the person trying to diagnose the shedding.
        Request::Introspect(surface) => {
            let started = Instant::now();
            let body = introspect(&shared.db, surface);
            shared
                .counters
                .introspect_ns
                .record_duration(started.elapsed());
            Reply::Introspection(body)
        }
    }
}

/// One surface's reply body: Prometheus text for [`Surface::Metrics`], the
/// JSON of the engine's own value for every other surface. The server's
/// counters live on the engine's registry (see `Server::start`), so the
/// engine snapshot already carries both `engine.*` and `server.*`.
fn introspect(db: &Database, surface: Surface) -> String {
    let json = match surface {
        Surface::Stats => serde_json::to_string(&db.telemetry().metrics),
        Surface::Metrics => return prometheus_text(db),
        Surface::Traces => serde_json::to_string(&db.recent_traces()),
        Surface::Alerts => serde_json::to_string(&(db.alert_status(), db.alert_events())),
        Surface::History => serde_json::to_string(&db.recent_reports()),
    };
    json.expect("telemetry values have no map keys, so JSON encoding cannot fail")
}

/// The engine snapshot as Prometheus text, plus one labeled gauge per alert
/// rule and per indexed column.
fn prometheus_text(db: &Database) -> String {
    let mut text = db.telemetry().metrics.render_prometheus();
    text.push_str(&render_labeled_gauge(
        "aidx_alert_firing",
        "Alert rule state: 0 idle, 1 pending, 2 firing.",
        &db.alert_status()
            .iter()
            .map(|status| LabeledSample {
                labels: vec![("rule".into(), status.rule.clone())],
                value: f64::from(status.state.code()),
            })
            .collect::<Vec<_>>(),
    ));
    text.push_str(&render_labeled_gauge(
        "aidx_index_health",
        "Per-column health verdict: 0 converging, 1 converged, 2 stalled, 3 regressing.",
        &db.index_health()
            .iter()
            .map(|health| LabeledSample {
                labels: vec![
                    ("table".into(), health.column.table().to_string()),
                    ("column".into(), health.column.column().to_string()),
                ],
                value: f64::from(health.verdict.code()),
            })
            .collect::<Vec<_>>(),
    ));
    text
}

fn run_query(shared: &Shared, session: &Session, query: &Query) -> Result<WireResult, WireError> {
    match session.execute(query) {
        Ok(result) => {
            shared.counters.queries_served.incr();
            Ok(WireResult::from_query_result(&result))
        }
        Err(e) => Err(wire_error_from(&e)),
    }
}

fn shed(shared: &Shared) -> Reply {
    shared.counters.requests_shed.incr();
    Reply::Overloaded {
        in_flight: shared.gate.in_flight() as u32,
        budget: shared.gate.budget() as u32,
    }
}
