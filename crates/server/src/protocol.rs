//! The wire protocol: compact length-prefixed binary frames.
//!
//! Every message on the socket is one *frame*: a little-endian `u32` payload
//! length followed by the payload, whose first byte is the opcode. Requests
//! flow client → server ([`Request`]), replies flow server → client
//! ([`Reply`]); each request produces exactly one reply, in order, so a
//! client can pipeline frames and match replies by position.
//!
//! The payload encoding is deliberately boring: fixed-width little-endian
//! integers, `u32`-length-prefixed UTF-8 strings, and tagged scalars for
//! [`Value`]. There is no self-description or versioning negotiation — the
//! protocol is an internal engine front-end, not a public standard — but
//! every decoder is total: any byte sequence either decodes or yields a
//! typed [`FrameError`], never a panic or an out-of-bounds read, and
//! length/count fields are validated against the actual remaining payload
//! before any allocation is sized from them.
//!
//! The operator surfaces share one request, [`Request::Introspect`], and
//! one reply, [`Reply::Introspection`], whose body is text: Prometheus
//! exposition for [`Surface::Metrics`], and for every other surface the
//! JSON that the telemetry types' own serde derive writes. This module
//! frames that text; it does not restate how a trace or a snapshot is
//! encoded.

use aidx_columnstore::types::{RowId, Value};
use aidx_core::{Aggregation, Predicate, Query, QueryResult};
pub use aidx_core::{Cells, Rows};
use std::fmt;
use std::io::{self, Read, Write};

/// Bytes of the frame header (the little-endian payload length).
pub const FRAME_HEADER_BYTES: usize = 4;

/// Default cap on a single frame's payload. Large enough for a
/// several-hundred-thousand-row result set, small enough that a hostile
/// length prefix cannot make the server allocate gigabytes.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

// Request opcodes (client → server).
const OP_PING: u8 = 0x01;
const OP_QUERY: u8 = 0x02;
const OP_INSERT: u8 = 0x03;
const OP_BATCH: u8 = 0x04;
const OP_INTROSPECT: u8 = 0x05;

// Reply opcodes (server → client).
const OP_PONG: u8 = 0x81;
const OP_RESULT: u8 = 0x82;
const OP_ERROR: u8 = 0x83;
const OP_OVERLOADED: u8 = 0x84;
const OP_INSERTED: u8 = 0x85;
const OP_BATCH_RESULT: u8 = 0x86;
const OP_INTROSPECTION: u8 = 0x87;

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The payload ended before the field being read.
    Truncated,
    /// Bytes remained after the last field of the message.
    TrailingBytes,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An unknown tag or opcode.
    UnknownTag {
        /// What kind of field carried the tag.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A count field claims more elements than the remaining payload could
    /// possibly hold.
    CountOverflow {
        /// What was being counted.
        what: &'static str,
        /// The claimed element count.
        count: u64,
    },
    /// A result row whose arity differs from the first row's, or a first
    /// row of arity zero: every row of a result has the projection's arity,
    /// and a result that projects nothing carries no rows.
    RowArity {
        /// Index of the offending row.
        row: u32,
        /// The arity it announced.
        arity: u16,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "payload truncated"),
            FrameError::TrailingBytes => write!(f, "trailing bytes after message"),
            FrameError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            FrameError::UnknownTag { what, tag } => {
                write!(f, "unknown {what} tag 0x{tag:02x}")
            }
            FrameError::CountOverflow { what, count } => {
                write!(f, "{what} count {count} exceeds the payload")
            }
            FrameError::RowArity { row, arity } => write!(
                f,
                "row {row} has arity {arity}: the rows of a result share one non-zero arity"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Machine-readable error category carried by [`Reply::Error`] frames.
///
/// Codes below 16 are protocol-level (the frame itself was unacceptable);
/// codes 16..=31 mirror the engine's typed [`aidx_core::AidxError`]
/// variants, so a client can distinguish "your query is wrong" from "the
/// server is unhealthy" without parsing the message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ErrorCode {
    /// The payload did not decode as a message.
    Malformed = 1,
    /// The frame's length prefix exceeds the server's configured cap.
    Oversized = 2,
    /// The opcode is not a request the server understands.
    UnknownOpcode = 3,
    /// The server is at its connection cap; retry against a replica or
    /// later.
    AtCapacity = 4,
    /// The server is shutting down.
    ShuttingDown = 5,
    /// [`aidx_core::AidxError::Store`]: unknown table/column, type or arity
    /// mismatch.
    Store = 16,
    /// [`aidx_core::AidxError::InvalidRange`].
    InvalidRange = 17,
    /// [`aidx_core::AidxError::Planner`].
    Planner = 18,
    /// [`aidx_core::AidxError::Strategy`].
    Strategy = 19,
    /// [`aidx_core::AidxError::AggregateOverflow`].
    AggregateOverflow = 20,
    /// [`aidx_core::AidxError::Config`].
    Config = 21,
    /// [`aidx_core::AidxError::Io`]: a durability-layer (write-ahead log or
    /// checkpoint) failure.
    Io = 22,
    /// Any engine failure without a more specific code.
    Internal = 31,
}

impl ErrorCode {
    /// Decode a wire code.
    pub fn from_u16(code: u16) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Oversized,
            3 => ErrorCode::UnknownOpcode,
            4 => ErrorCode::AtCapacity,
            5 => ErrorCode::ShuttingDown,
            16 => ErrorCode::Store,
            17 => ErrorCode::InvalidRange,
            18 => ErrorCode::Planner,
            19 => ErrorCode::Strategy,
            20 => ErrorCode::AggregateOverflow,
            21 => ErrorCode::Config,
            22 => ErrorCode::Io,
            31 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A typed error reply: a machine-readable [`ErrorCode`] plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The error category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Construct a wire error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Reply::Pong`].
    Ping,
    /// Execute one query; answered with [`Reply::Result`],
    /// [`Reply::Overloaded`] or [`Reply::Error`].
    Query(Query),
    /// Append one row; answered with [`Reply::Inserted`] or
    /// [`Reply::Error`].
    Insert {
        /// Target table.
        table: String,
        /// One value per column, in schema order.
        values: Vec<Value>,
    },
    /// Execute many queries under a *single* admission permit, amortizing
    /// per-request overhead; answered with [`Reply::Batch`] (per-query
    /// results) or [`Reply::Overloaded`] for the whole batch.
    Batch(Vec<Query>),
    /// Read one operator [`Surface`]; answered with
    /// [`Reply::Introspection`]. Never shed by admission control — an
    /// operator must be able to see a saturated server.
    Introspect(Surface),
}

/// Which operator view a [`Request::Introspect`] reads, and what the
/// [`Reply::Introspection`] body holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Surface {
    /// JSON of an `aidx_telemetry::Snapshot`: every engine and server
    /// metric at one point in time.
    Stats = 0,
    /// The same snapshot as Prometheus text exposition, plus the labeled
    /// alert-state and index-health gauges.
    Metrics = 1,
    /// JSON of a `Vec<aidx_telemetry::QueryTrace>`: the sampled trace ring,
    /// oldest first.
    Traces = 2,
    /// JSON of a `(Vec<aidx_telemetry::AlertStatus>,
    /// Vec<aidx_telemetry::AlertEvent>)`: per-rule live states in rule
    /// order, then the event journal oldest first (both empty when the
    /// database was built without alerting).
    Alerts = 3,
    /// JSON of a `Vec<aidx_telemetry::SnapshotDelta>`: the reporter's
    /// retained rate history, oldest first.
    History = 4,
}

impl Surface {
    fn from_tag(tag: u8) -> Result<Surface, FrameError> {
        Ok(match tag {
            0 => Surface::Stats,
            1 => Surface::Metrics,
            2 => Surface::Traces,
            3 => Surface::Alerts,
            4 => Surface::History,
            tag => {
                return Err(FrameError::UnknownTag {
                    what: "introspection surface",
                    tag,
                })
            }
        })
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Request::Ping`].
    Pong,
    /// A completed query.
    Result(WireResult),
    /// A typed failure; the connection stays usable unless the error is
    /// [`ErrorCode::Oversized`] (framing can no longer be trusted).
    Error(WireError),
    /// The request was *shed* by admission control: the server's in-flight
    /// budget is exhausted. The client should back off and retry; nothing
    /// was executed.
    Overloaded {
        /// In-flight requests at the time of the rejection.
        in_flight: u32,
        /// The configured budget.
        budget: u32,
    },
    /// A completed insert.
    Inserted {
        /// Row id assigned to the appended row.
        row_id: u64,
    },
    /// Per-query outcomes of a [`Request::Batch`], in request order.
    Batch(Vec<BatchItem>),
    /// Answer to [`Request::Introspect`]: the surface's body, in the format
    /// its [`Surface`] variant names.
    Introspection(String),
}

/// One query's outcome inside a [`Reply::Batch`].
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItem {
    /// The query completed.
    Result(WireResult),
    /// The query failed (the rest of the batch still ran).
    Error(WireError),
}

/// A query result in wire form: qualifying positions, the optional
/// aggregate, and the projected rows.
///
/// Built from an engine [`QueryResult`] via [`WireResult::from_query_result`]
/// on the server; the load generator and the failure-path tests compare
/// [`WireResult::encoded`] bytes against an embedded-session baseline to
/// prove the wire path alters nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireResult {
    /// Positions of the qualifying rows in the base table.
    pub positions: Vec<RowId>,
    /// The aggregate value, when the query requested one.
    pub aggregate: Option<Value>,
    /// The projected rows (empty when the query projected no columns).
    pub rows: Rows,
}

impl WireResult {
    /// Materialize an engine result for the wire: the positions in one copy,
    /// and each projected column gathered once, typed, at those positions
    /// (see [`Rows::gather`]).
    pub fn from_query_result(result: &QueryResult) -> Self {
        let positions = result.positions();
        WireResult {
            positions: positions.as_slice().to_vec(),
            aggregate: result.aggregate().cloned(),
            rows: Rows::gather(result.projected_columns(), positions),
        }
    }

    /// Number of qualifying rows.
    pub fn row_count(&self) -> usize {
        self.positions.len()
    }

    /// The canonical byte encoding of this result (exactly what a
    /// [`Reply::Result`] frame carries after the opcode).
    pub fn encoded(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_result(&mut buf, self);
        buf
    }

    /// Exact length of [`Self::encoded`].
    fn encoded_len(&self) -> usize {
        let aggregate = self.aggregate.as_ref().map_or(0, value_len);
        let cells: usize = (self.rows.columns().iter())
            .map(|column| match column {
                Cells::Int64(cells) => cells.len() * 9,
                Cells::Float64(cells) => cells.len() * 9,
                Cells::Values(cells) => cells.iter().map(value_len).sum(),
            })
            .sum();
        4 + self.positions.len() * 4 + 1 + aggregate + 4 + self.rows.len() * 2 + cells
    }
}

// ---------------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// `values` as one little-endian run.
fn put_u32s(buf: &mut Vec<u8>, values: &[u32]) {
    let start = buf.len();
    buf.resize(start + 4 * values.len(), 0);
    for (bytes, value) in buf[start..].chunks_exact_mut(4).zip(values) {
        bytes.copy_from_slice(&value.to_le_bytes());
    }
}

/// Encoded length of one [`put_value`].
fn value_len(value: &Value) -> usize {
    match value {
        Value::Null => 1,
        Value::Int64(_) | Value::Float64(_) => 9,
        Value::Utf8(s) => 5 + s.len(),
    }
}

// Value tags: each encoded value is its tag, then its payload.
const TAG_NULL: u8 = 0;
const TAG_INT64: u8 = 1;
const TAG_FLOAT64: u8 = 2;
const TAG_UTF8: u8 = 3;

fn put_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => put_u8(buf, TAG_NULL),
        Value::Int64(v) => put_i64_value(buf, *v),
        Value::Float64(v) => put_f64_value(buf, *v),
        Value::Utf8(s) => {
            put_u8(buf, TAG_UTF8);
            put_str(buf, s);
        }
    }
}

/// A fixed-width value: its tag and its eight payload bytes, in one write.
#[inline]
fn put_fixed_value(buf: &mut Vec<u8>, tag: u8, payload: [u8; 8]) {
    let mut cell = [tag; 9];
    cell[1..].copy_from_slice(&payload);
    buf.extend_from_slice(&cell);
}

#[inline]
fn put_i64_value(buf: &mut Vec<u8>, v: i64) {
    put_fixed_value(buf, TAG_INT64, v.to_le_bytes());
}

#[inline]
fn put_f64_value(buf: &mut Vec<u8>, v: f64) {
    put_fixed_value(buf, TAG_FLOAT64, v.to_bits().to_le_bytes());
}

fn put_query(buf: &mut Vec<u8>, query: &Query) {
    put_str(buf, query.table_name());
    put_u16(buf, query.predicates().len() as u16);
    for predicate in query.predicates() {
        match predicate {
            Predicate::Range { column, low, high } => {
                put_u8(buf, 0);
                put_str(buf, column);
                put_i64(buf, *low);
                put_i64(buf, *high);
            }
            Predicate::Point { column, key } => {
                put_u8(buf, 1);
                put_str(buf, column);
                put_i64(buf, *key);
            }
            Predicate::InSet { column, keys } => {
                put_u8(buf, 2);
                put_str(buf, column);
                put_u32(buf, keys.len() as u32);
                for key in keys.iter() {
                    put_i64(buf, *key);
                }
            }
        }
    }
    put_u16(buf, query.projections().len() as u16);
    for column in query.projections() {
        put_str(buf, column);
    }
    match query.aggregation() {
        None => put_u8(buf, 0),
        Some((aggregation, column)) => {
            put_u8(buf, aggregation_tag(aggregation));
            put_str(buf, column);
        }
    }
}

fn aggregation_tag(aggregation: Aggregation) -> u8 {
    match aggregation {
        Aggregation::Count => 1,
        Aggregation::Sum => 2,
        Aggregation::Min => 3,
        Aggregation::Max => 4,
        Aggregation::Avg => 5,
    }
}

fn put_result(buf: &mut Vec<u8>, result: &WireResult) {
    buf.reserve(result.encoded_len());
    put_u32(buf, result.positions.len() as u32);
    put_u32s(buf, &result.positions);
    match &result.aggregate {
        None => put_u8(buf, 0),
        Some(value) => {
            put_u8(buf, 1);
            put_value(buf, value);
        }
    }
    put_rows(buf, &result.rows);
}

/// The row section: a row count, then each row as its `u16` arity and its
/// cells, each a tag and a payload (see [`put_value`]). The cells come
/// straight from the typed columns: an `Int64` or `Float64` cell is written
/// from its `i64` or `f64`, and no `Value` is built for it.
fn put_rows(buf: &mut Vec<u8>, rows: &Rows) {
    put_u32(buf, rows.len() as u32);
    let arity = (rows.arity() as u16).to_le_bytes();
    for row in 0..rows.len() {
        buf.extend_from_slice(&arity);
        for column in rows.columns() {
            match column {
                Cells::Int64(cells) => put_i64_value(buf, cells[row]),
                Cells::Float64(cells) => put_f64_value(buf, cells[row]),
                Cells::Values(cells) => put_value(buf, &cells[row]),
            }
        }
    }
}

fn put_wire_error(buf: &mut Vec<u8>, error: &WireError) {
    put_u16(buf, error.code as u16);
    put_str(buf, &error.message);
}

/// The payload of [`Request::Query`] for a borrowed query.
pub(crate) fn put_query_request(buf: &mut Vec<u8>, query: &Query) {
    put_u8(buf, OP_QUERY);
    put_query(buf, query);
}

/// The payload of [`Request::Insert`] for a borrowed row.
pub(crate) fn put_insert_request(buf: &mut Vec<u8>, table: &str, values: &[Value]) {
    put_u8(buf, OP_INSERT);
    put_str(buf, table);
    put_u32(buf, values.len() as u32);
    for value in values {
        put_value(buf, value);
    }
}

/// The payload of [`Request::Batch`] for borrowed queries.
pub(crate) fn put_batch_request(buf: &mut Vec<u8>, queries: &[Query]) {
    put_u8(buf, OP_BATCH);
    put_u32(buf, queries.len() as u32);
    for query in queries {
        put_query(buf, query);
    }
}

impl Request {
    /// Append this request's frame payload (opcode + body) to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Ping => put_u8(buf, OP_PING),
            Request::Query(query) => put_query_request(buf, query),
            Request::Insert { table, values } => put_insert_request(buf, table, values),
            Request::Batch(queries) => put_batch_request(buf, queries),
            Request::Introspect(surface) => {
                put_u8(buf, OP_INTROSPECT);
                put_u8(buf, *surface as u8);
            }
        }
    }

    /// Encode this request as a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Decode a frame payload into a request.
    pub fn decode(payload: &[u8]) -> Result<Request, FrameError> {
        let mut r = Reader::new(payload);
        let opcode = r.take_u8()?;
        let request = match opcode {
            OP_PING => Request::Ping,
            OP_QUERY => Request::Query(take_query(&mut r)?),
            OP_INSERT => {
                let table = r.take_str()?;
                let count = r.take_count("insert value", 1)?;
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(take_value(&mut r)?);
                }
                Request::Insert { table, values }
            }
            OP_BATCH => {
                let count = r.take_count("batch query", 7)?;
                let mut queries = Vec::with_capacity(count);
                for _ in 0..count {
                    queries.push(take_query(&mut r)?);
                }
                Request::Batch(queries)
            }
            OP_INTROSPECT => Request::Introspect(Surface::from_tag(r.take_u8()?)?),
            tag => {
                return Err(FrameError::UnknownTag {
                    what: "request opcode",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(request)
    }
}

impl Reply {
    /// Append this reply's frame payload (opcode + body) to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Reply::Pong => put_u8(buf, OP_PONG),
            Reply::Result(result) => {
                put_u8(buf, OP_RESULT);
                put_result(buf, result);
            }
            Reply::Error(error) => {
                put_u8(buf, OP_ERROR);
                put_wire_error(buf, error);
            }
            Reply::Overloaded { in_flight, budget } => {
                put_u8(buf, OP_OVERLOADED);
                put_u32(buf, *in_flight);
                put_u32(buf, *budget);
            }
            Reply::Inserted { row_id } => {
                put_u8(buf, OP_INSERTED);
                put_u64(buf, *row_id);
            }
            Reply::Batch(items) => {
                put_u8(buf, OP_BATCH_RESULT);
                put_u32(buf, items.len() as u32);
                for item in items {
                    match item {
                        BatchItem::Result(result) => {
                            put_u8(buf, 0);
                            put_result(buf, result);
                        }
                        BatchItem::Error(error) => {
                            put_u8(buf, 1);
                            put_wire_error(buf, error);
                        }
                    }
                }
            }
            Reply::Introspection(body) => {
                put_u8(buf, OP_INTROSPECTION);
                put_str(buf, body);
            }
        }
    }

    /// Encode this reply as a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Decode a frame payload into a reply.
    pub fn decode(payload: &[u8]) -> Result<Reply, FrameError> {
        let mut r = Reader::new(payload);
        let opcode = r.take_u8()?;
        let reply = match opcode {
            OP_PONG => Reply::Pong,
            OP_RESULT => Reply::Result(take_result(&mut r)?),
            OP_ERROR => Reply::Error(take_wire_error(&mut r)?),
            OP_OVERLOADED => Reply::Overloaded {
                in_flight: r.take_u32()?,
                budget: r.take_u32()?,
            },
            OP_INSERTED => Reply::Inserted {
                row_id: r.take_u64()?,
            },
            OP_BATCH_RESULT => {
                let count = r.take_count("batch item", 1)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    match r.take_u8()? {
                        0 => items.push(BatchItem::Result(take_result(&mut r)?)),
                        1 => items.push(BatchItem::Error(take_wire_error(&mut r)?)),
                        tag => {
                            return Err(FrameError::UnknownTag {
                                what: "batch item",
                                tag,
                            })
                        }
                    }
                }
                Reply::Batch(items)
            }
            OP_INTROSPECTION => Reply::Introspection(r.take_str()?),
            tag => {
                return Err(FrameError::UnknownTag {
                    what: "reply opcode",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(reply)
    }
}

// ---------------------------------------------------------------------------
// Decoding primitives
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over a frame payload.
struct Reader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, offset: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.offset
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated);
        }
        let slice = &self.bytes[self.offset..self.offset + n];
        self.offset += n;
        Ok(slice)
    }

    fn take_u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn take_u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn take_u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn take_u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn take_i64(&mut self) -> Result<i64, FrameError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The payload of a fixed-width value, when the next value is one with
    /// `tag`; otherwise nothing is read.
    #[inline]
    fn take_fixed(&mut self, tag: u8) -> Option<[u8; 8]> {
        match self.bytes.get(self.offset..self.offset + 9) {
            Some([next, payload @ ..]) if *next == tag => {
                self.offset += 9;
                payload.try_into().ok()
            }
            _ => None,
        }
    }

    fn take_str(&mut self) -> Result<String, FrameError> {
        let len = self.take_u32()? as usize;
        if len > self.remaining() {
            return Err(FrameError::CountOverflow {
                what: "string byte",
                count: len as u64,
            });
        }
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|_| FrameError::BadUtf8)
    }

    /// Read a `u32` element count and validate it against the remaining
    /// payload, given a (conservative) minimum encoded size per element —
    /// this bounds `Vec::with_capacity` by the actual frame size, so a
    /// hostile count cannot force a huge allocation.
    fn take_count(
        &mut self,
        what: &'static str,
        min_bytes_each: usize,
    ) -> Result<usize, FrameError> {
        let count = self.take_u32()? as usize;
        if count.saturating_mul(min_bytes_each.max(1)) > self.remaining() {
            return Err(FrameError::CountOverflow {
                what,
                count: count as u64,
            });
        }
        Ok(count)
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(FrameError::TrailingBytes)
        }
    }
}

#[inline]
fn take_value(r: &mut Reader<'_>) -> Result<Value, FrameError> {
    match r.take_u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_INT64 => Ok(Value::Int64(r.take_i64()?)),
        TAG_FLOAT64 => Ok(Value::Float64(f64::from_bits(r.take_u64()?))),
        TAG_UTF8 => Ok(Value::Utf8(r.take_str()?)),
        tag => Err(FrameError::UnknownTag { what: "value", tag }),
    }
}

fn take_query(r: &mut Reader<'_>) -> Result<Query, FrameError> {
    let table = r.take_str()?;
    let mut query = Query::table(table);
    let predicates = r.take_u16()? as usize;
    for _ in 0..predicates {
        match r.take_u8()? {
            0 => {
                let column = r.take_str()?;
                let low = r.take_i64()?;
                let high = r.take_i64()?;
                query = query.range(column, low, high);
            }
            1 => {
                let column = r.take_str()?;
                let key = r.take_i64()?;
                query = query.point(column, key);
            }
            2 => {
                let column = r.take_str()?;
                let count = r.take_count("in-set key", 8)?;
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(r.take_i64()?);
                }
                query = query.in_set(column, keys);
            }
            tag => {
                return Err(FrameError::UnknownTag {
                    what: "predicate",
                    tag,
                })
            }
        }
    }
    let projections = r.take_u16()? as usize;
    let mut columns = Vec::with_capacity(projections.min(r.remaining()));
    for _ in 0..projections {
        columns.push(r.take_str()?);
    }
    if !columns.is_empty() {
        query = query.project(columns);
    }
    match r.take_u8()? {
        0 => {}
        tag @ 1..=5 => {
            let aggregation = match tag {
                1 => Aggregation::Count,
                2 => Aggregation::Sum,
                3 => Aggregation::Min,
                4 => Aggregation::Max,
                _ => Aggregation::Avg,
            };
            let column = r.take_str()?;
            query = query.aggregate(aggregation, column);
        }
        tag => {
            return Err(FrameError::UnknownTag {
                what: "aggregation",
                tag,
            })
        }
    }
    Ok(query)
}

fn take_result(r: &mut Reader<'_>) -> Result<WireResult, FrameError> {
    let positions_len = r.take_count("position", 4)?;
    let positions = r
        .take(4 * positions_len)?
        .chunks_exact(4)
        .map(|bytes| RowId::from_le_bytes(bytes.try_into().expect("chunks of four bytes")))
        .collect();
    let aggregate = match r.take_u8()? {
        0 => None,
        1 => Some(take_value(r)?),
        tag => {
            return Err(FrameError::UnknownTag {
                what: "aggregate presence",
                tag,
            })
        }
    };
    Ok(WireResult {
        positions,
        aggregate,
        rows: take_rows(r)?,
    })
}

/// A row count, then each row as its arity and its values: the arity is the
/// first row's for every row, and the value count is bounded by the payload
/// before anything is reserved for it. Each column starts typed from its
/// cell in the first row (see [`Cells::starting_with`]) and is read into
/// that type until a cell of another type turns it into `Values`.
fn take_rows(r: &mut Reader<'_>) -> Result<Rows, FrameError> {
    let len = r.take_count("row", 2)?;
    if len == 0 {
        return Ok(Rows::default());
    }
    let arity = r.take_u16()?;
    if arity == 0 {
        return Err(FrameError::RowArity { row: 0, arity });
    }
    // at least one tag byte per value, and an arity before every later row
    let count = len as u64 * u64::from(arity);
    if count + (len as u64 - 1) * 2 > r.remaining() as u64 {
        let what = "row value";
        return Err(FrameError::CountOverflow { what, count });
    }
    let mut columns = Vec::with_capacity(usize::from(arity));
    for _ in 0..arity {
        columns.push(Cells::starting_with(take_value(r)?, len));
    }
    for row in 1..len {
        let announced = r.take_u16()?;
        if announced != arity {
            let row = row as u32;
            return Err(FrameError::RowArity {
                row,
                arity: announced,
            });
        }
        for column in &mut columns {
            // a cell of the column's type is read in one step; any other is
            // read as a value, and the column becomes `Values`
            match column {
                Cells::Int64(cells) => {
                    if let Some(payload) = r.take_fixed(TAG_INT64) {
                        cells.push(i64::from_le_bytes(payload));
                        continue;
                    }
                }
                Cells::Float64(cells) => {
                    if let Some(payload) = r.take_fixed(TAG_FLOAT64) {
                        cells.push(f64::from_bits(u64::from_le_bytes(payload)));
                        continue;
                    }
                }
                Cells::Values(_) => {}
            }
            column.push(take_value(r)?);
        }
    }
    Ok(Rows::from_columns(columns))
}

fn take_wire_error(r: &mut Reader<'_>) -> Result<WireError, FrameError> {
    let raw = r.take_u16()?;
    let code = ErrorCode::from_u16(raw).unwrap_or(ErrorCode::Internal);
    let message = r.take_str()?;
    Ok(WireError { code, message })
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Why reading a frame off a stream failed.
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying stream failed (including mid-frame EOF, surfaced as
    /// [`io::ErrorKind::UnexpectedEof`]).
    Io(io::Error),
    /// The header announced a payload larger than the configured cap. The
    /// payload was *not* read; the stream can no longer be trusted to be at
    /// a frame boundary.
    Oversized {
        /// Announced payload length.
        announced: u64,
        /// The configured cap.
        max: usize,
    },
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameReadError::Oversized { announced, max } => {
                write!(f, "frame payload of {announced} bytes exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for FrameReadError {}

impl From<io::Error> for FrameReadError {
    fn from(e: io::Error) -> Self {
        FrameReadError::Io(e)
    }
}

/// Write one frame in a single `write_all`: `buf` is cleared and gets a
/// placeholder header, `encode` appends the payload, and the header is then
/// patched with the payload's length. `buf` is the caller's to reuse, so a
/// connection that sends many frames allocates for none of them once it has
/// grown to the largest.
///
/// One write per frame matters on a socket: a header and a payload written
/// apart can leave as two segments, the second held back until the peer
/// acknowledges the first.
pub fn send_frame(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
    encode(buf);
    let len = u32::try_from(buf.len() - FRAME_HEADER_BYTES)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    buf[..FRAME_HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    w.write_all(buf)?;
    w.flush()
}

/// Write one frame carrying `payload` (see [`send_frame`]).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    send_frame(w, &mut buf, |buf| buf.extend_from_slice(payload))
}

/// Read one frame's payload. Returns `Ok(None)` on a clean EOF *at a frame
/// boundary* (the peer closed between frames); an EOF inside a frame is an
/// [`io::ErrorKind::UnexpectedEof`] error.
pub fn read_frame(
    r: &mut impl Read,
    max_payload: usize,
) -> Result<Option<Vec<u8>>, FrameReadError> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, max_payload, &mut payload)?.then_some(payload))
}

/// [`read_frame`] into the caller's reusable `payload` buffer, which holds
/// exactly the payload afterwards. Returns `Ok(false)` on a clean EOF at a
/// frame boundary.
pub fn read_frame_into(
    r: &mut impl Read,
    max_payload: usize,
    payload: &mut Vec<u8>,
) -> Result<bool, FrameReadError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    // hand-rolled read_exact for the header so a boundary EOF is clean
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(FrameReadError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > max_payload {
        return Err(FrameReadError::Oversized {
            announced: len as u64,
            max: max_payload,
        });
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)?;
    Ok(true)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aidx_columnstore::column::Column;
    use aidx_columnstore::table::Table;
    use aidx_core::{Database, StrategyKind};
    use aidx_telemetry::{QueryTrace, SpanEvent};
    use proptest::prelude::*;

    fn sample_query() -> Query {
        Query::table("orders")
            .range("o_key", 10, 500)
            .point("o_region", 3)
            .in_set("o_kind", [9, 1, 4])
            .project(["o_key", "o_label"])
            .aggregate(Aggregation::Sum, "o_key")
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // The data-path pins are the bytes the encoder wrote before the operator
    // surfaces were folded into INTROSPECT: those codecs must not move.
    #[test]
    fn request_roundtrips() {
        let insert = Request::Insert {
            table: "orders".into(),
            values: vec![
                Value::Int64(-7),
                Value::Float64(2.5),
                Value::Utf8("naïve".into()),
                Value::Null,
            ],
        };
        let requests = [
            (Request::Ping, "01"),
            (
                Request::Query(sample_query()),
                "02060000006f7264657273030000050000006f5f6b65790a00000000000000f4010000000000\
                 0001080000006f5f726567696f6e030000000000000002060000006f5f6b696e640300000001\
                 00000000000000040000000000000009000000000000000200050000006f5f6b657907000000\
                 6f5f6c6162656c02050000006f5f6b6579",
            ),
            (Request::Query(Query::table("t")), "0201000000740000000000"),
            (
                insert,
                "03060000006f72646572730400000001f9ffffffffffffff02000000000000044003060000006e\
                 61c3af766500",
            ),
            (
                Request::Batch(vec![Query::table("t").point("a", 1)]),
                "0401000000010000007401000101000000610100000000000000000000",
            ),
            (Request::Batch(Vec::new()), "0400000000"),
            (Request::Introspect(Surface::History), "0504"),
        ];
        for (request, pinned) in requests {
            let encoded = request.encode();
            assert_eq!(hex(&encoded), pinned, "{request:?}");
            assert_eq!(Request::decode(&encoded).unwrap(), request, "{request:?}");
        }
    }

    #[test]
    fn reply_roundtrips() {
        let result = WireResult {
            positions: vec![0, 5, 17],
            aggregate: Some(Value::Int64(42)),
            rows: Rows::new(
                2,
                vec![
                    Value::Int64(1),
                    Value::Utf8("a".into()),
                    Value::Int64(2),
                    Value::Null,
                ],
            ),
        };
        let replies = [
            (Reply::Pong, "81"),
            (
                Reply::Result(result),
                "820300000000000000050000001100000001012a0000000000000002000000020001010000000000\
                 0000030100000061020001020000000000000000",
            ),
            (Reply::Result(WireResult::default()), "82000000000000000000"),
            (
                Reply::Error(WireError::new(ErrorCode::Planner, "no driver")),
                "831200090000006e6f20647269766572",
            ),
            (
                Reply::Overloaded {
                    in_flight: 64,
                    budget: 64,
                },
                "844000000040000000",
            ),
            (Reply::Inserted { row_id: 123 }, "857b00000000000000"),
            (
                Reply::Batch(vec![
                    BatchItem::Result(WireResult::default()),
                    BatchItem::Error(WireError::new(ErrorCode::Store, "unknown table")),
                ]),
                "8602000000000000000000000000000110000d000000756e6b6e6f776e207461626c65",
            ),
            (Reply::Introspection(String::new()), "8700000000"),
            (Reply::Introspection("[1]".into()), "87030000005b315d"),
        ];
        for (reply, pinned) in replies {
            let encoded = reply.encode();
            assert_eq!(hex(&encoded), pinned, "{reply:?}");
            assert_eq!(Reply::decode(&encoded).unwrap(), reply, "{reply:?}");
        }
    }

    /// `INTROSPECT` is the opcode plus one surface byte; the reply frames
    /// the body as one string, whatever the surface.
    fn assert_surface_roundtrips(surface: Surface, tag: u8, body: &str) {
        let request = Request::Introspect(surface);
        assert_eq!(request.encode(), [OP_INTROSPECT, tag]);
        assert_eq!(Request::decode(&request.encode()).unwrap(), request);
        let reply = Reply::Introspection(body.into());
        assert_eq!(Reply::decode(&reply.encode()).unwrap(), reply);
    }

    #[test]
    fn stats_request_and_reply_roundtrip() {
        let body = r#"{"counters":[{"name":"server.queries_served","value":1}]}"#;
        assert_surface_roundtrips(Surface::Stats, 0, body);
    }

    #[test]
    fn metrics_and_traces_requests_and_replies_roundtrip() {
        let text = "# TYPE engine_queries_served counter\nnaïve 1\n";
        assert_surface_roundtrips(Surface::Metrics, 1, text);
        assert_surface_roundtrips(Surface::Traces, 2, "[]");
    }

    /// The planner clamps the estimate to `[0, 1]`, so it is never NaN;
    /// every finite value crosses the wire bit for bit.
    #[test]
    fn trace_floats_roundtrip_bit_exactly() {
        let tiny = f64::from_bits(1);
        for v in [
            0.0f64,
            -0.0,
            0.1,
            1.5e-300,
            tiny,
            f64::MIN_POSITIVE,
            f64::MAX,
        ] {
            let plan = SpanEvent::Plan {
                driver_column: None,
                estimated_selectivity: v,
                residual_predicates: 0,
            };
            let traces = vec![QueryTrace {
                events: vec![plan],
                elapsed_ns: 1,
            }];
            let reply = Reply::Introspection(serde_json::to_string(&traces).unwrap());
            let Reply::Introspection(body) = Reply::decode(&reply.encode()).unwrap() else {
                panic!("not an introspection reply");
            };
            let back: Vec<QueryTrace> = serde_json::from_str(&body).unwrap();
            match &back[0].events[0] {
                SpanEvent::Plan {
                    estimated_selectivity,
                    ..
                } => assert_eq!(estimated_selectivity.to_bits(), v.to_bits(), "{v:e}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn alerts_and_history_requests_and_replies_roundtrip() {
        assert_surface_roundtrips(Surface::Alerts, 3, "[[],[]]");
        assert_surface_roundtrips(Surface::History, 4, "[]");
    }

    #[test]
    fn truncated_and_trailing_payloads_are_typed_errors() {
        let encoded = Request::Query(sample_query()).encode();
        for cut in [0, 1, 5, encoded.len() - 1] {
            let err = Request::decode(&encoded[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    FrameError::Truncated | FrameError::CountOverflow { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
        let mut padded = encoded;
        padded.push(0);
        assert_eq!(
            Request::decode(&padded).unwrap_err(),
            FrameError::TrailingBytes
        );
        // an INTROSPECT without its surface byte, and one a byte too long
        let err = Request::decode(&[OP_INTROSPECT]).unwrap_err();
        assert_eq!(err, FrameError::Truncated);
        let err = Request::decode(&[OP_INTROSPECT, 0, 0]).unwrap_err();
        assert_eq!(err, FrameError::TrailingBytes);
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        // the retired per-surface opcodes included
        for tag in [0x7f, 0x06, 0x07, 0x08, 0x09] {
            let err = Request::decode(&[tag]).unwrap_err();
            let what = "request opcode";
            assert_eq!(err, FrameError::UnknownTag { what, tag });
        }
        for tag in [0x01, 0x88, 0x89, 0x8A, 0x8B] {
            let err = Reply::decode(&[tag]).unwrap_err();
            assert_eq!(
                err,
                FrameError::UnknownTag {
                    what: "reply opcode",
                    tag
                }
            );
        }
        let err = Request::decode(&[OP_INTROSPECT, 5]).unwrap_err();
        let what = "introspection surface";
        assert_eq!(err, FrameError::UnknownTag { what, tag: 5 });
        // a QUERY whose predicate tag is garbage
        let mut buf = vec![OP_QUERY];
        put_str(&mut buf, "t");
        put_u16(&mut buf, 1);
        put_u8(&mut buf, 9);
        assert!(matches!(
            Request::decode(&buf).unwrap_err(),
            FrameError::UnknownTag {
                what: "predicate",
                tag: 9
            }
        ));
    }

    #[test]
    fn hostile_counts_cannot_force_allocations() {
        // an INSERT claiming 4 billion values in a 20-byte payload
        let mut buf = vec![OP_INSERT];
        put_str(&mut buf, "t");
        put_u32(&mut buf, u32::MAX);
        let err = Request::decode(&buf).unwrap_err();
        assert!(matches!(err, FrameError::CountOverflow { .. }), "{err:?}");
        // a string claiming to be longer than the payload
        let mut buf = vec![OP_QUERY];
        put_u32(&mut buf, 1_000_000);
        buf.extend_from_slice(b"abc");
        let err = Request::decode(&buf).unwrap_err();
        assert!(matches!(err, FrameError::CountOverflow { .. }), "{err:?}");
    }

    #[test]
    fn bad_utf8_is_a_typed_error() {
        let mut buf = vec![OP_QUERY];
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Request::decode(&buf).unwrap_err(), FrameError::BadUtf8);
    }

    #[test]
    fn frame_io_roundtrips_and_rejects_oversized() {
        let payload = Request::Ping.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap(),
            Some(payload.clone())
        );
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), None, "clean eof");

        // a frame is one write, from a buffer the next frame reuses
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
                self.0.push(bytes.to_vec());
                Ok(bytes.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (mut writes, mut buf) = (Writes(Vec::new()), Vec::new());
        let reply = Reply::Introspection("x".repeat(100));
        send_frame(&mut writes, &mut buf, |buf| reply.encode_into(buf)).unwrap();
        let capacity = buf.capacity();
        send_frame(&mut writes, &mut buf, |buf| Reply::Pong.encode_into(buf)).unwrap();
        assert_eq!(buf.capacity(), capacity, "reused, not reallocated");
        assert_eq!(writes.0.len(), 2, "one write per frame");
        let mut cursor = io::Cursor::new(writes.0.concat());
        let mut payload = Vec::new();
        assert!(read_frame_into(&mut cursor, 1024, &mut payload).unwrap());
        assert_eq!(Reply::decode(&payload).unwrap(), reply);
        assert!(read_frame_into(&mut cursor, 1024, &mut payload).unwrap());
        assert_eq!(payload, [OP_PONG], "the buffer holds exactly the payload");
        assert!(!read_frame_into(&mut cursor, 1024, &mut payload).unwrap());

        // oversized header: payload is not read
        let mut wire = Vec::new();
        wire.extend_from_slice(&1_000_000u32.to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(wire), 1024).unwrap_err();
        assert!(matches!(
            err,
            FrameReadError::Oversized {
                announced: 1_000_000,
                max: 1024
            }
        ));
        assert!(err.to_string().contains("exceeds cap"));

        // eof inside the header
        let err = read_frame(&mut io::Cursor::new(vec![1u8, 0]), 1024).unwrap_err();
        match err {
            FrameReadError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("{other:?}"),
        }
        // eof inside the payload
        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(&[1, 2, 3]);
        let err = read_frame(&mut io::Cursor::new(wire), 1024).unwrap_err();
        assert!(matches!(err, FrameReadError::Io(_)));
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::Oversized,
            ErrorCode::UnknownOpcode,
            ErrorCode::AtCapacity,
            ErrorCode::ShuttingDown,
            ErrorCode::Store,
            ErrorCode::InvalidRange,
            ErrorCode::Planner,
            ErrorCode::Strategy,
            ErrorCode::AggregateOverflow,
            ErrorCode::Config,
            ErrorCode::Io,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code as u16), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(9999), None);
        let display = WireError::new(ErrorCode::Planner, "nope").to_string();
        assert!(display.contains("Planner") && display.contains("nope"));
    }

    #[test]
    fn float_values_roundtrip_bit_exactly() {
        for v in [0.0f64, -0.0, f64::INFINITY, f64::NAN, 1.5e-300] {
            let reply = Reply::Result(WireResult {
                aggregate: Some(Value::Float64(v)),
                ..WireResult::default()
            });
            let decoded = Reply::decode(&reply.encode()).unwrap();
            match decoded {
                Reply::Result(r) => match r.aggregate {
                    Some(Value::Float64(back)) => assert_eq!(back.to_bits(), v.to_bits()),
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            }
        }
    }

    /// The row-at-a-time encoder the flat one replaced: one `Vec` per row
    /// from `QueryResult::collect_rows`, one call per field. The column
    /// gather and the bulk encode must write exactly its bytes.
    fn reference_encoding(result: &QueryResult) -> Vec<u8> {
        let positions = result.positions().as_slice();
        let rows: Vec<Vec<Value>> = result.collect_rows();
        let mut buf = Vec::new();
        put_u32(&mut buf, positions.len() as u32);
        for &position in positions {
            put_u32(&mut buf, position);
        }
        match result.aggregate() {
            None => put_u8(&mut buf, 0),
            Some(value) => {
                put_u8(&mut buf, 1);
                put_value(&mut buf, value);
            }
        }
        put_u32(&mut buf, rows.len() as u32);
        for row in &rows {
            put_u16(&mut buf, row.len() as u16);
            for value in row {
                put_value(&mut buf, value);
            }
        }
        buf
    }

    const LABELS: [&str; 4] = ["", "a", "naïve", "ü ★ \"q\""];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn flat_results_encode_the_row_at_a_time_bytes(
            (rows, stride, offset) in (0i64..400, 1i64..50, 0i64..1_000),
            (low, width) in (-10i64..400, 0i64..150),
            projected in prop::collection::vec(0usize..3, 0..4),
            aggregation in 0u8..6,
        ) {
            let keys: Vec<i64> = (0..rows).map(|i| (i * stride + offset) % 401).collect();
            let floats = keys.iter().map(|&k| k as f64 * 0.25 - 7.5).collect();
            let labels: Vec<&str> = keys.iter().map(|&k| LABELS[k as usize % 4]).collect();
            let db = Database::new(StrategyKind::Cracking);
            let table = Table::from_columns(vec![
                ("k", Column::from_i64(keys)),
                ("f", Column::from_f64(floats)),
                ("s", Column::from_strs(&labels)),
            ])
            .unwrap();
            db.create_table("t", table).unwrap();
            let names = ["k", "f", "s"];
            let mut query = Query::table("t").range("k", low, low + width);
            if !projected.is_empty() {
                query = query.project(projected.iter().map(|&c| names[c]));
            }
            query = match aggregation {
                0 => query,
                1 => query.aggregate(Aggregation::Count, names[projected.len() % 3]),
                2 => query.aggregate(Aggregation::Sum, "k"),
                3 => query.aggregate(Aggregation::Min, "k"),
                4 => query.aggregate(Aggregation::Max, "k"),
                _ => query.aggregate(Aggregation::Avg, "k"),
            };
            let result = db.session().execute(&query).unwrap();
            let wire = WireResult::from_query_result(&result);
            prop_assert_eq!(wire.encoded(), reference_encoding(&result), "{:?}", query);
            prop_assert_eq!(wire.rows.len(), result.rows().len());
            prop_assert!(wire.rows.iter().eq(result.rows()), "{:?}", query);
            let decoded = Reply::decode(&Reply::Result(wire.clone()).encode()).unwrap();
            prop_assert_eq!(decoded, Reply::Result(wire));
        }
    }

    /// A cell's tag, payload bits and string.
    type CellBits = (u8, u64, Option<String>);

    /// A cell as bits that compare: a `Float64` by its bit pattern, so NaN
    /// equals itself and -0.0 differs from 0.0.
    fn cell_bits(value: Value) -> CellBits {
        match value {
            Value::Null => (0, 0, None),
            Value::Int64(v) => (1, v as u64, None),
            Value::Float64(v) => (2, v.to_bits(), None),
            Value::Utf8(s) => (3, 0, Some(s)),
        }
    }

    /// Each column's form and its cells' bits.
    fn column_bits(rows: &Rows) -> Vec<(&'static str, Vec<CellBits>)> {
        (rows.columns().iter())
            .map(|column| match column {
                Cells::Int64(cells) => {
                    let bits = cells.iter().map(|&v| cell_bits(Value::Int64(v)));
                    ("Int64", bits.collect())
                }
                Cells::Float64(cells) => {
                    let bits = cells.iter().map(|&v| cell_bits(Value::Float64(v)));
                    ("Float64", bits.collect())
                }
                Cells::Values(cells) => ("Values", cells.iter().cloned().map(cell_bits).collect()),
            })
            .collect()
    }

    /// The rows' cells as bits, read row by row.
    fn row_bits(rows: &Rows) -> Vec<Vec<CellBits>> {
        (rows.iter())
            .map(|row| row.iter().cloned().map(cell_bits).collect())
            .collect()
    }

    #[test]
    fn mixed_and_special_float_columns_round_trip_in_canonical_form() {
        let utf8 = |s: &str| Value::Utf8(s.into());
        // an Int64 column that meets a Null and then a Utf8; a Float64
        // column of NaN, -0.0 and the infinities; a column that starts with a
        // Null; a Float64 column that meets an Int64 in its last row
        let rows = [
            [
                Value::Int64(7),
                Value::Float64(f64::NAN),
                Value::Null,
                Value::Float64(0.5),
            ],
            [
                Value::Null,
                Value::Float64(-0.0),
                Value::Int64(1),
                Value::Float64(-2.0),
            ],
            [
                utf8("naïve"),
                Value::Float64(f64::INFINITY),
                Value::Int64(2),
                Value::Float64(0.0),
            ],
            [
                Value::Int64(-1),
                Value::Float64(f64::NEG_INFINITY),
                utf8(""),
                Value::Int64(3),
            ],
        ];
        let built = Rows::new(4, rows.iter().flatten().cloned().collect());
        let reply = Reply::Result(WireResult {
            positions: vec![0, 1, 2, 3],
            aggregate: None,
            rows: built.clone(),
        });
        let bytes = reply.encode();
        let Reply::Result(decoded) = Reply::decode(&bytes).unwrap() else {
            panic!("a result");
        };
        assert_eq!(hex(&Reply::Result(decoded.clone()).encode()), hex(&bytes));
        // the same canonical columns, cell for cell, whichever way built
        let forms: Vec<&str> = column_bits(&built).iter().map(|c| c.0).collect();
        assert_eq!(forms, ["Values", "Float64", "Values", "Values"]);
        assert_eq!(column_bits(&decoded.rows), column_bits(&built));
        // and the same rows, read row by row
        let expected = row_bits(&Rows::new(4, rows.iter().flatten().cloned().collect()));
        assert_eq!(row_bits(&decoded.rows), expected);
        assert_eq!(row_bits(&built), expected);
        // without the NaN, plain equality agrees
        let mut finite = rows.clone();
        finite[0][1] = Value::Float64(1.0);
        let finite = Rows::new(4, finite.iter().flatten().cloned().collect());
        let wire = WireResult {
            rows: finite,
            ..WireResult::default()
        };
        let decoded = Reply::decode(&Reply::Result(wire.clone()).encode()).unwrap();
        assert_eq!(decoded, Reply::Result(wire));
    }

    /// A `RESULT` payload with no positions and no aggregate, whose row
    /// section is `rows`, zero-padded to `total` bytes.
    fn result_frame(rows: &[u8], total: usize) -> Vec<u8> {
        let mut frame = vec![OP_RESULT];
        put_u32(&mut frame, 0);
        put_u8(&mut frame, 0);
        frame.extend_from_slice(rows);
        frame.resize(total.max(frame.len()), 0);
        frame
    }

    #[test]
    fn hostile_row_counts_are_bounded_before_anything_is_reserved() {
        // 60 000 rows of arity 65 535 in a 200-byte frame: the row count
        // alone overflows it
        let mut rows = Vec::new();
        put_u32(&mut rows, 60_000);
        put_u16(&mut rows, u16::MAX);
        let err = Reply::decode(&result_frame(&rows, 200)).unwrap_err();
        let (what, count) = ("row", 60_000);
        assert_eq!(err, FrameError::CountOverflow { what, count });
        // 50 rows fit two bytes each, but not 50 x 65 535 values
        let mut rows = Vec::new();
        put_u32(&mut rows, 50);
        put_u16(&mut rows, u16::MAX);
        let err = Reply::decode(&result_frame(&rows, 200)).unwrap_err();
        let (what, count) = ("row value", 50 * 65_535);
        assert_eq!(err, FrameError::CountOverflow { what, count });
        assert!(err.to_string().contains("3276750"), "{err}");
    }

    #[test]
    fn ragged_and_zero_arity_rows_are_typed_errors() {
        // row 1 announces two values where row 0 had one
        let mut rows = Vec::new();
        put_u32(&mut rows, 2);
        put_u16(&mut rows, 1);
        put_value(&mut rows, &Value::Int64(7));
        put_u16(&mut rows, 2);
        put_value(&mut rows, &Value::Int64(8));
        put_value(&mut rows, &Value::Null);
        let err = Reply::decode(&result_frame(&rows, 0)).unwrap_err();
        assert_eq!(err, FrameError::RowArity { row: 1, arity: 2 });
        assert!(err.to_string().contains("row 1 has arity 2"), "{err}");
        // three rows of no values: a result that projects nothing has no rows
        let mut rows = Vec::new();
        put_u32(&mut rows, 3);
        for _ in 0..3 {
            put_u16(&mut rows, 0);
        }
        let err = Reply::decode(&result_frame(&rows, 0)).unwrap_err();
        assert_eq!(err, FrameError::RowArity { row: 0, arity: 0 });
        // inside a batch, too
        let mut frame = vec![OP_BATCH_RESULT];
        put_u32(&mut frame, 1);
        put_u8(&mut frame, 0);
        frame.extend_from_slice(&result_frame(&rows, 0)[1..]);
        let err = Reply::decode(&frame).unwrap_err();
        assert_eq!(err, FrameError::RowArity { row: 0, arity: 0 });
    }

    /// What a client makes of a hostile reply: every strict prefix of
    /// `encoded` is a typed frame error, and every flip of one byte by one of
    /// `masks` is a typed error, of the frame or of what `read` makes of the
    /// decoded reply, or reads as a value other than `value` — never a panic,
    /// never a corruption that goes unnoticed.
    pub(crate) fn assert_cuts_and_flips_are_typed<T: PartialEq + fmt::Debug>(
        value: &T,
        encoded: &[u8],
        masks: impl Iterator<Item = u8> + Clone,
        read: impl Fn(Reply) -> Option<T>,
    ) {
        let decoded = Reply::decode(encoded).ok().and_then(&read);
        assert_eq!(decoded.as_ref(), Some(value), "the frame round-trips");
        for cut in 0..encoded.len() {
            let err = Reply::decode(&encoded[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    FrameError::Truncated | FrameError::CountOverflow { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
        let mut hostile = encoded.to_vec();
        for at in 0..encoded.len() {
            for mask in masks.clone() {
                hostile[at] ^= mask;
                if let Some(read) = Reply::decode(&hostile).ok().and_then(&read) {
                    assert_ne!(&read, value, "byte {at} ^ {mask:#04x} went unnoticed");
                }
                hostile[at] ^= mask;
            }
        }
    }

    #[test]
    fn every_cut_and_byte_flip_of_a_three_column_reply_is_typed() {
        let values = [(1, 2.5, "naïve"), (-7, -1.25, ""), (i64::MAX, 1e300, "ü ★")]
            .into_iter()
            .flat_map(|(k, f, s)| [Value::Int64(k), Value::Float64(f), Value::Utf8(s.into())]);
        let reply = Reply::Result(WireResult {
            positions: vec![3, 9, 70_000],
            aggregate: Some(Value::Float64(0.75)),
            rows: Rows::new(3, values.collect()),
        });
        assert_cuts_and_flips_are_typed(&reply, &reply.encode(), 1..=u8::MAX, Some);
    }
}
