//! Criterion benchmark for the server's reply codec on `served_mix`'s fetch
//! shape.
//!
//! A 2 M-row table holds one `Int64` column, a permutation of its row ids. A
//! 1 % range on it, projecting that column, answers 20 000 rows; the range
//! is queried once before timing, so its bounds are cut and its positions
//! ordered. The `reply_codec` group reports:
//!
//! * `encode` — what the server does per fetch: `WireResult::from_query_result`
//!   (the positions copied, the column gathered) plus `Reply::encode_into`
//!   on a buffer reused across iterations;
//! * `decode` — what the client does with those bytes: `Reply::decode`.
//!
//! A `reply_codec:` line then prints both per KiB of reply (median of 51),
//! the unit of the ledger's `server.reply_encode_ns_per_kib` and
//! `server.reply_decode_ns_per_kib`. Compare within one run; the box is
//! noisy.

use aidx_columnstore::column::Column;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::Key;
use aidx_core::{Database, Query, QueryResult, StrategyKind};
use aidx_server::{Reply, WireResult};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 2_000_000;
const FETCHED: Key = 20_000;

/// The server's half: the result in wire form, encoded into `buf`.
fn encode(result: &QueryResult, buf: &mut Vec<u8>) -> usize {
    buf.clear();
    Reply::Result(WireResult::from_query_result(result)).encode_into(buf);
    buf.len()
}

/// Median nanoseconds per KiB of `bytes` over 51 calls of `f`.
fn ns_per_kib(bytes: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..51)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as f64 / (bytes as f64 / 1024.0)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn bench_reply_codec(c: &mut Criterion) {
    let keys: Vec<Key> = (0..ROWS as Key)
        .map(|i| (i * 999_983) % ROWS as Key)
        .collect();
    let db = Database::new(StrategyKind::Cracking);
    db.create_table(
        "data",
        Table::from_columns(vec![("k", Column::from_i64(keys))]).expect("one column"),
    )
    .expect("fresh database");
    let query = Query::table("data")
        .range("k", 500_000, 500_000 + FETCHED)
        .project(["k"]);
    let session = db.session();
    let result = session.execute(&query).expect("fetch query");
    assert_eq!(result.positions().len(), FETCHED as usize);

    let mut buf = Vec::new();
    let bytes = encode(&result, &mut buf);
    let reply = buf.clone();
    let Ok(Reply::Result(decoded)) = Reply::decode(&reply) else {
        panic!("the encoded reply decodes to a result");
    };
    assert_eq!(decoded, WireResult::from_query_result(&result));

    let mut group = c.benchmark_group("reply_codec");
    group.sample_size(200);
    group.bench_function("encode", |b| b.iter(|| encode(&result, &mut buf)));
    group.bench_function("decode", |b| b.iter(|| Reply::decode(&reply).is_ok()));
    group.finish();

    let encode_ns = ns_per_kib(bytes, || {
        black_box(encode(&result, &mut buf));
    });
    let decode_ns = ns_per_kib(bytes, || {
        black_box(Reply::decode(&reply).is_ok());
    });
    println!(
        "reply_codec: {FETCHED} rows, {:.0} KiB per reply: encode {encode_ns:.0} ns/KiB, \
         decode {decode_ns:.0} ns/KiB (median of 51)",
        bytes as f64 / 1024.0
    );
}

criterion_group!(benches, bench_reply_codec);
criterion_main!(benches);
