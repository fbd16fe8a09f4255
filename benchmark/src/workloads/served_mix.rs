//! `served_mix` — socket to socket: an in-process `Server` on a loopback
//! port, two closed-loop `Client` connections (callers that wait for each
//! reply), latency taken at the client. The frame codec, admission, the
//! thread per connection and the socket writes do most of the work while
//! the warmed index does little, so this is the only place a large-reply
//! stall, a reusable encode buffer or a registry-lock change can show.
//!
//! Inserted keys lie above every queried range, so each answer is exact
//! under any interleaving of the two clients.

use super::{elapsed_us, per_call_ns, permutation_range_count, Ctx, Epoch, Tally, SERVED_CLIENTS};
use crate::stats;
use aidx_columnstore::column::Column;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::{Key, Value};
use aidx_core::strategy::StrategyKind;
use aidx_core::{Aggregation, Database, Query};
use aidx_server::{AdmissionGate, Client, Reply, Request, Server, ServerConfig, WireResult};
use aidx_workloads::data::{generate_keys, DataDistribution};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const SMALL_SELECTIVITY: f64 = 0.0002;
/// A reply of about 300 KiB, several loopback segments long: what it costs
/// is materialising, encoding, writing and decoding 20 000 rows.
const FETCH_SELECTIVITY: f64 = 0.01;
/// A reply of about 30 KiB, probed in the traced run only: above the
/// server's 8 KiB write buffer, so the frame leaves in two writes, and
/// below one 64 KiB loopback segment, so the second write waits for the
/// first one's delayed ACK. Replies of this size wait about 43 ms; the
/// workload's own fetches are past the window and do not.
const WINDOW_SELECTIVITY: f64 = 0.001;
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// One small reply in this many, and every other fetch, is kept and
/// compared byte for byte with the embedded answer after the loop.
const KEEP_SMALL_EVERY: usize = 50;
const KEEP_FETCH_EVERY: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Positions of a 0.02 % range.
    Range,
    /// `COUNT` over a 0.02 % range.
    Count,
    /// A range with the key column projected, so rows come back.
    Fetch,
}

/// A query over `[low, high)` of the key column.
#[derive(Debug, Clone, Copy)]
struct Read {
    kind: Kind,
    low: Key,
    high: Key,
}

impl Read {
    fn new(kind: Kind, (low, high): (Key, Key)) -> Read {
        Read { kind, low, high }
    }

    fn query(&self) -> Query {
        let range = Query::table("data").range("k", self.low, self.high);
        match self.kind {
            Kind::Range => range,
            Kind::Count => range.aggregate(Aggregation::Count, "k"),
            Kind::Fetch => range.project(["k"]),
        }
    }

    /// Whether `result` is the arithmetic answer over a permutation of `0..n`.
    fn answered_by(&self, result: &WireResult, n: usize) -> bool {
        let expected = permutation_range_count(self.low, self.high, n);
        result.row_count() == expected
            && match self.kind {
                Kind::Range => true,
                Kind::Count => result.aggregate == Some(Value::Int64(expected as i64)),
                Kind::Fetch => result.rows.len() == expected,
            }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(Read),
    Insert(Key),
}

struct Served {
    db: Database,
    server: Server,
    clients: Vec<Client>,
}

fn start(ctx: &Ctx) -> Served {
    let t = ctx.tracer;
    let keys = t.in_span("workloads.generate_keys", 0, || {
        generate_keys(
            ctx.sizes.served_rows,
            DataDistribution::UniformPermutation,
            ctx.seed_for(1),
        )
    });
    let db = t.in_span("core.create_table", 0, || {
        // inserts arrive beside the reads, so the index must absorb them
        let db = Database::builder()
            .default_strategy(StrategyKind::UpdatableCracking)
            .parallelism(1)
            .build();
        let table = Table::from_columns(vec![("k", Column::from_i64(keys))])
            .expect("a one-column table is well formed");
        db.create_table("data", table)
            .expect("a fresh database has no table named data");
        db
    });
    let server = t.in_span("server.start", 0, || {
        Server::start(db.clone(), ServerConfig::localhost()).expect("bind a loopback port")
    });
    let clients = t.in_span("server.connect", 0, || {
        (0..SERVED_CLIENTS)
            .map(|_| {
                let mut client = Client::connect(server.local_addr()).expect("connect");
                client
                    .set_reply_timeout(Some(REPLY_TIMEOUT))
                    .expect("set a read timeout");
                client
            })
            .collect()
    });
    Served {
        db,
        server,
        clients,
    }
}

fn stop(ctx: &Ctx, served: Served) {
    ctx.tracer.in_span("server.shutdown", 0, || {
        drop(served.clients);
        served.server.shutdown();
    });
}

fn random_range(rng: &mut StdRng, n: usize, selectivity: f64) -> (Key, Key) {
    let width = ((n as f64 * selectivity) as Key).max(1);
    let low = rng.gen_range(0..(n as Key - width).max(1));
    (low, low + width)
}

/// One client's operations for one epoch, shuffled: small queries, fetches
/// and inserts. A fetch keeps its connection thread and its client busy for
/// about a hundred small queries' worth of time, so the other client's small
/// queries run beside it — the interaction this workload exists to record.
fn plan(ctx: &Ctx, client: usize) -> Vec<Op> {
    let sizes = ctx.sizes;
    let n = sizes.served_rows;
    let mut rng = StdRng::seed_from_u64(ctx.seed_for(10 + client as u64));
    let mut ops =
        Vec::with_capacity(sizes.served_small + sizes.served_fetch + sizes.served_inserts);
    for i in 0..sizes.served_small {
        let kind = if i % 2 == 0 { Kind::Range } else { Kind::Count };
        let range = random_range(&mut rng, n, SMALL_SELECTIVITY);
        ops.push(Op::Read(Read::new(kind, range)));
    }
    for i in 0..sizes.served_inserts {
        ops.push(Op::Insert((n + client * sizes.served_inserts + i) as Key));
    }
    for _ in 0..sizes.served_fetch {
        let range = random_range(&mut rng, n, FETCH_SELECTIVITY);
        ops.push(Op::Read(Read::new(Kind::Fetch, range)));
    }
    ops.shuffle(&mut rng);
    ops
}

#[derive(Default)]
struct ClientReport {
    small_us: Vec<f64>,
    fetch_us: Vec<f64>,
    insert_us: Vec<f64>,
    tally: Tally,
    acked_inserts: u64,
    /// Replies kept for the byte-for-byte comparison.
    kept: Vec<(Query, Vec<u8>)>,
    span: Option<(Instant, Instant)>,
}

fn drive(
    ctx: &Ctx,
    client: &mut Client,
    index: usize,
    ops: &[Op],
    start: &Barrier,
) -> ClientReport {
    let t = ctx.tracer;
    let n = ctx.sizes.served_rows;
    let mut report = ClientReport::default();
    // queries are built before the clock starts
    enum Prepared {
        Read(Read, Query),
        Insert(Key),
    }
    let prepared: Vec<Prepared> = ops
        .iter()
        .map(|op| match *op {
            Op::Read(read) => Prepared::Read(read, read.query()),
            Op::Insert(key) => Prepared::Insert(key),
        })
        .collect();
    start.wait();
    let began = Instant::now();
    for (i, op) in prepared.into_iter().enumerate() {
        let id = (index * 1_000_000 + i) as u64 + 1;
        match op {
            Prepared::Insert(key) => {
                let row = [Value::Int64(key)];
                let started = Instant::now();
                let acked = t.in_span("server.client_insert", id, || client.insert("data", &row));
                report.insert_us.push(elapsed_us(started));
                report.tally.op(acked.is_ok());
                report.acked_inserts += u64::from(acked.is_ok());
            }
            Prepared::Read(read, query) => {
                let fetch = read.kind == Kind::Fetch;
                let span = if fetch {
                    "server.client_fetch"
                } else {
                    "server.client_query"
                };
                let started = Instant::now();
                let reply = t.in_span(span, id, || client.query(&query));
                let us = elapsed_us(started);
                let (class, every) = if fetch {
                    (&mut report.fetch_us, KEEP_FETCH_EVERY)
                } else {
                    (&mut report.small_us, KEEP_SMALL_EVERY)
                };
                class.push(us);
                report
                    .tally
                    .op(matches!(&reply, Ok(r) if read.answered_by(r, n)));
                if let (Ok(reply), true) = (reply, i % every == 0) {
                    report.kept.push((query, reply.encoded()));
                }
            }
        }
    }
    report.span = Some((began, Instant::now()));
    report
}

pub fn epoch(ctx: &Ctx) -> Epoch {
    let mut epoch = Epoch::default();
    let t = ctx.tracer;
    let sizes = ctx.sizes;
    let n = sizes.served_rows;

    let setup = Instant::now();
    let mut served = start(ctx);
    let plans: Vec<Vec<Op>> = (0..SERVED_CLIENTS).map(|c| plan(ctx, c)).collect();
    let mut rng = StdRng::seed_from_u64(ctx.seed_for(2));
    let first = Read::new(Kind::Range, random_range(&mut rng, n, SMALL_SELECTIVITY));
    let first_query = first.query();
    let setup_before_first = setup.elapsed();

    // the cold first query, over the wire: it builds the index
    let started = Instant::now();
    let reply = t.in_span("server.client_query", 0, || {
        served.clients[0].query(&first_query)
    });
    epoch.first_query_ms = elapsed_us(started) / 1e3;
    epoch
        .tally
        .op(matches!(&reply, Ok(r) if first.answered_by(r, n)));

    // warm-up: refine the index through both connections
    let warmup = Instant::now();
    t.in_span("server.warmup", 0, || {
        for i in 0..sizes.served_warmup {
            let range = random_range(&mut rng, n, SMALL_SELECTIVITY);
            let query = Read::new(Kind::Range, range).query();
            served.clients[i % SERVED_CLIENTS].query(&query).ok();
        }
    });
    epoch.setup_s = (setup_before_first + warmup.elapsed()).as_secs_f64();

    let barrier = Barrier::new(SERVED_CLIENTS);
    let reports: Vec<ClientReport> = {
        let _drive = t.span("harness.drive_clients", 0);
        let parent = t.current();
        std::thread::scope(|scope| {
            let handles: Vec<_> = served
                .clients
                .iter_mut()
                .zip(&plans)
                .enumerate()
                .map(|(index, (client, ops))| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        t.adopt(parent);
                        drive(ctx, client, index, ops, barrier)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        })
    };

    let began = reports.iter().filter_map(|r| r.span).map(|s| s.0).min();
    let ended = reports.iter().filter_map(|r| r.span).map(|s| s.1).max();
    epoch.wall_s = match (began, ended) {
        (Some(began), Some(ended)) => (ended - began).as_secs_f64(),
        _ => 0.0,
    };
    let mut fetch_us = Vec::new();
    let mut insert_us = Vec::new();
    let mut acked = 0;
    for report in &reports {
        epoch.query_us.extend_from_slice(&report.small_us);
        fetch_us.extend_from_slice(&report.fetch_us);
        insert_us.extend_from_slice(&report.insert_us);
        epoch.tally.merge(report.tally);
        acked += report.acked_inserts;
    }
    epoch.ops = (epoch.query_us.len() + fetch_us.len() + insert_us.len()) as u64;
    epoch.extra_latency("fetch_p50_us", None, &fetch_us);
    epoch.extra_latency("insert_p50_us", None, &insert_us);

    // oracle: kept replies equal the embedded answer byte for byte, and
    // every acknowledged insert is stored
    let _oracle = t.span("harness.oracle", 0);
    let session = served.db.session();
    for (query, wire_bytes) in reports.iter().flat_map(|r| &r.kept) {
        let embedded = session
            .execute(query)
            .map(|r| WireResult::from_query_result(&r).encoded());
        epoch
            .tally
            .op(matches!(&embedded, Ok(bytes) if bytes == wire_bytes));
    }
    epoch
        .tally
        .op(served.db.row_count("data").ok() == Some(n + acked as usize));
    let stats = served.server.stats();
    epoch.extra("server.sheds", stats.requests_shed as f64);
    epoch.extra("server.protocol_errors", stats.errors_sent as f64);
    stop(ctx, served);
    epoch
}

/// Median microseconds of `f` over `inputs`, one span per call.
fn median_us<I>(ctx: &Ctx, span: &'static str, inputs: &[I], mut f: impl FnMut(&I)) -> f64 {
    let us: Vec<f64> = inputs
        .iter()
        .map(|input| {
            let started = Instant::now();
            ctx.tracer.in_span(span, 0, || f(input));
            elapsed_us(started)
        })
        .collect();
    stats::median(&us)
}

/// Medians over one set of row-returning queries: the round trip at the
/// client, and `execute`, encode and decode replayed in-process.
struct Replayed {
    round_trip_us: f64,
    execute_us: f64,
    encode_us: f64,
    decode_us: f64,
    reply_bytes: f64,
    reply_rows: f64,
}

impl Replayed {
    /// What waiting, not CPU, costs.
    fn stall_us(&self) -> f64 {
        self.round_trip_us - self.execute_us - self.encode_us - self.decode_us
    }
}

fn replay_fetches(
    ctx: &Ctx,
    client: &mut Client,
    session: &aidx_core::Session,
    fetches: &[Query],
) -> Replayed {
    let round_trip_us = median_us(ctx, "server.client_fetch", fetches, |q| {
        black_box(client.query(q)).ok();
    });
    let execute_us = median_us(ctx, "core.execute", fetches, |q| {
        black_box(session.execute(q).map(|r| r.row_count())).ok();
    });
    let results: Vec<_> = fetches
        .iter()
        .map(|q| session.execute(q).expect("fetch query"))
        .collect();
    let mut replies: Vec<Vec<u8>> = Vec::with_capacity(results.len());
    let encode_us = median_us(ctx, "server.reply_encode", &results, |result| {
        replies.push(Reply::Result(WireResult::from_query_result(result)).encode());
    });
    let decode_us = median_us(ctx, "server.reply_decode", &replies, |bytes| {
        black_box(Reply::decode(bytes)).ok();
    });
    let median_of = |values: Vec<f64>| stats::median(&values);
    Replayed {
        round_trip_us,
        execute_us,
        encode_us,
        decode_us,
        reply_bytes: median_of(replies.iter().map(|b| b.len() as f64).collect()),
        reply_rows: median_of(results.iter().map(|r| r.row_count() as f64).collect()),
    }
}

pub fn probes(ctx: &Ctx, out: &mut Vec<(&'static str, f64)>) {
    let t = ctx.tracer;
    let n = ctx.sizes.served_rows;
    let mut served = start(ctx);
    let session = served.db.session();
    let mut rng = StdRng::seed_from_u64(ctx.seed_for(3));
    let mut queries = |count: usize, kind: Kind, selectivity: f64| -> Vec<Query> {
        (0..count)
            .map(|_| Read::new(kind, random_range(&mut rng, n, selectivity)).query())
            .collect()
    };
    let small = queries(500, Kind::Range, SMALL_SELECTIVITY);
    let fetches = queries(20, Kind::Fetch, FETCH_SELECTIVITY);
    let window = queries(20, Kind::Fetch, WINDOW_SELECTIVITY);
    let client = &mut served.clients[0];
    // converge on exactly these queries, so both sides below run warm
    t.in_span("server.warmup", 0, || {
        for query in small.iter().chain(&fetches).chain(&window) {
            client.query(query).expect("warm-up query");
        }
    });

    // the codec and the gate, called directly
    let request = Request::Query(small[0].clone()).encode();
    out.push((
        "server.request_decode_ns",
        per_call_ns(t, "server.request_decode", 5, 2_000, |_| {
            black_box(Request::decode(&request)).ok();
        }),
    ));
    let gate = AdmissionGate::new(64);
    out.push((
        "server.admission_ns",
        per_call_ns(t, "server.admission", 5, 20_000, |_| {
            drop(black_box(gate.try_acquire()));
        }),
    ));

    // the socket and framing floor, then what the wire adds to a small query
    out.push((
        "server.ping_rtt_us",
        per_call_ns(t, "server.ping", 5, 1_000, |_| {
            client.ping().expect("ping an idle server");
        }) / 1e3,
    ));
    let wire_us = median_us(ctx, "server.client_query", &small, |q| {
        black_box(client.query(q)).ok();
    });
    let embedded_us = median_us(ctx, "core.execute_warm", &small, |q| {
        black_box(session.execute(q).map(|r| r.row_count())).ok();
    });
    out.push(("server.wire_overhead_us", wire_us - embedded_us));
    out.push(("core.execute_warm_ns", embedded_us * 1e3));

    // a large reply, replayed through the same public calls: what execute,
    // encode and decode cost, and what is left of the round trip is waiting
    let replayed = replay_fetches(ctx, client, &session, &fetches);
    let kib = replayed.reply_bytes / 1024.0;
    out.push((
        "server.reply_encode_ns_per_kib",
        replayed.encode_us * 1e3 / kib,
    ));
    out.push((
        "server.reply_decode_ns_per_kib",
        replayed.decode_us * 1e3 / kib,
    ));
    out.push((
        "server.reply_bytes_per_row",
        replayed.reply_bytes / replayed.reply_rows.max(1.0),
    ));
    out.push(("server.fetch_stall_us", replayed.stall_us()));
    // the same for replies inside the delayed-ACK window
    out.push((
        "server.window_stall_us",
        replay_fetches(ctx, client, &session, &window).stall_us(),
    ));
    drop(session);
    stop(ctx, served);
}
