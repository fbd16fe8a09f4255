//! Criterion benchmark for the write-ahead log's append overhead.
//!
//! Matrix: unlogged (no durability) vs the three fsync policies —
//! `OnSeal`, `EveryN(64)`, `Always` — measured as 64-row batch inserts
//! through the normal `Session::insert_rows` path. The interesting spread
//! is between the no-WAL baseline and `OnSeal`/`EveryN` (encode + buffered
//! write, no fsync on the hot path) versus `Always` (one fsync per batch),
//! which shows why group commit and deferred sync exist.
//!
//! The `crc32` group measures the checksum every frame and checkpoint file
//! carries: the slice-by-16 kernel in `aidx_wal::crc` beside the
//! byte-at-a-time loop it replaced (kept here, as `crack_kernels` keeps the
//! crack loops), at a small frame, an `ingest_mixed` 64-row frame (850 B), a
//! page and a 2.5 MiB checkpoint table file. Small inputs repeat inside one
//! sample so every sample checksums about 1 MiB; compare the two kernels at
//! one size.

use aidx_columnstore::column::Column;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::Value;
use aidx_core::strategy::StrategyKind;
use aidx_core::{Database, DurabilityConfig, FsyncPolicy};
use aidx_wal::crc::crc32;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

const BATCH: usize = 64;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// Unique scratch directory under the system temp dir; removed by `drop_dir`.
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "aidx-bench-wal-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn drop_dir(path: &PathBuf) {
    let _ = std::fs::remove_dir_all(path);
}

fn empty_table() -> Table {
    Table::from_columns(vec![
        ("k", Column::from_i64(vec![])),
        ("v", Column::from_i64(vec![])),
    ])
    .expect("two-column table")
}

fn build_db(durability: Option<DurabilityConfig>) -> Database {
    let mut builder = Database::builder().default_strategy(StrategyKind::Cracking);
    if let Some(config) = durability {
        builder = builder.durability(config);
    }
    let db = builder.try_build().expect("valid configuration");
    db.create_table("data", empty_table()).expect("fresh table");
    db
}

fn batch(next: &mut i64) -> Vec<Vec<Value>> {
    (0..BATCH as i64)
        .map(|i| {
            let k = (*next + i) * 7919 % 1_000_003;
            vec![Value::Int64(k), Value::Int64(*next + i)]
        })
        .collect()
}

fn bench_wal_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_append");
    group.sample_size(10);

    let policies: [(&str, Option<FsyncPolicy>); 4] = [
        ("unlogged", None),
        ("on_seal", Some(FsyncPolicy::OnSeal)),
        ("every_64", Some(FsyncPolicy::EveryN(64))),
        ("always", Some(FsyncPolicy::Always)),
    ];

    for (label, policy) in policies {
        group.bench_with_input(
            BenchmarkId::new("insert_batch", label),
            &policy,
            |b, &policy| {
                let dir = scratch_dir(label);
                let db = build_db(policy.map(|fsync| {
                    DurabilityConfig::at(&dir)
                        .fsync(fsync)
                        // keep checkpoints out of the measurement window
                        .checkpoint_after_rows(u64::MAX)
                }));
                let session = db.session();
                let mut next = 0i64;
                b.iter(|| {
                    let rows = batch(&mut next);
                    next += BATCH as i64;
                    black_box(session.insert_rows("data", &rows).expect("insert"));
                });
                drop(session);
                drop(db);
                drop_dir(&dir);
            },
        );
    }
    group.finish();
}

/// The byte-at-a-time loop `crc32` was until it became slice-by-16: kept
/// here as the baseline the kernel is measured against.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

type Kernel = fn(&[u8]) -> u32;

fn bench_crc32(c: &mut Criterion) {
    const SAMPLE_BYTES: usize = 1 << 20;
    let mut group = c.benchmark_group("crc32");
    group.sample_size(20);
    for (label, len) in [
        ("64B", 64),
        ("850B", 850),
        ("4KiB", 4096),
        ("2.5MiB", 5 << 19),
    ] {
        let bytes: Vec<u8> = (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "{label}");
        let reps = (SAMPLE_BYTES / len).max(1);
        let id = format!("{label}x{reps}");
        for (name, kernel) in [
            ("slice_by_16", crc32 as Kernel),
            ("bytewise", crc32_bytewise),
        ] {
            group.bench_function(BenchmarkId::new(name, &id), |b| {
                b.iter(|| (0..reps).fold(0u32, |acc, _| acc ^ kernel(black_box(&bytes))));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_wal_append, bench_crc32);
criterion_main!(benches);
