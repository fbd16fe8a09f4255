//! `ingest_mixed` — writes beside reads on a durable database: batches of
//! fresh keys, range queries over the live domain between them, a
//! maintenance tick on a fixed cadence, then a restart. The same index and
//! storage layers as the read workloads, used the other way round: a faster
//! insert path that makes queries pay (pending merges, fragmented chunks)
//! or bloats the log shows here and nowhere else, and `wal` and
//! `maintenance` do real work only here.
//!
//! The reader holds its latest result while the next batch arrives, as a
//! client still consuming rows would, so appends land under a live snapshot
//! and fragment the column — the debt compaction exists to pay.
//!
//! The batch count is deliberately not a multiple of the tick or the fsync
//! cadence: an epoch that ended on a tick would end on a checkpoint, with an
//! empty log, and the restart and the crash check would then replay nothing.

use super::{elapsed_us, mix, per_call_ns, per_fresh_call_ns, permutation_range_count, Ctx, Epoch};
use crate::stats;
use aidx_columnstore::catalog::Catalog;
use aidx_columnstore::column::Column;
use aidx_columnstore::segment::DEFAULT_SEGMENT_CAPACITY;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::{Key, RowId, Value};
use aidx_core::strategy::StrategyKind;
use aidx_core::{Database, DurabilityConfig, FsyncPolicy, Query};
use aidx_wal::{
    load_latest_checkpoint, read_log, write_checkpoint, CheckpointTable, Wal, WalRecord,
};
use aidx_workloads::data::{generate_keys, DataDistribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const SYNC_EVERY: u32 = 8;
const QUERIES_PER_BATCH: usize = 4;
const TICK_EVERY: usize = 16;
/// Query width as a share of the initial rows.
const SELECTIVITY: f64 = 0.001;
const BATTERY: Key = 16;

fn initial_table(ctx: &Ctx) -> Table {
    let keys = ctx.tracer.in_span("workloads.generate_keys", 0, || {
        generate_keys(
            ctx.sizes.ingest_rows,
            DataDistribution::UniformPermutation,
            ctx.seed_for(1),
        )
    });
    Table::from_columns(vec![("k", Column::from_i64(keys))]).expect("a one-column table")
}

/// Batch `b`: the next `ingest_batch_rows` keys past everything stored.
fn batch(ctx: &Ctx, b: usize) -> Vec<Vec<Value>> {
    let per = ctx.sizes.ingest_batch_rows;
    let first = (ctx.sizes.ingest_rows + b * per) as Key;
    (0..per as Key)
        .map(|i| vec![Value::Int64(first + i)])
        .collect()
}

/// Where the cold first query of this epoch starts. The first crack costs
/// by where its pivot falls — 1.9 ms near either end of 250 000 keys, 3 ms
/// in the middle — and a run has only a dozen epochs, so a dozen random
/// pivots moved the run's median by a quarter from seed to seed. The pivots
/// instead walk the domain in golden-ratio steps from a start the run's seed
/// draws: any dozen consecutive epochs cover the domain evenly, wherever
/// they start.
fn first_query_low(ctx: &Ctx) -> Key {
    const GOLDEN_STEP: f64 = 0.618_033_988_749_895;
    // stream 3 of epoch 0 is drawn nowhere else, so every epoch of a run
    // sees the same start
    let start = (mix(ctx.seed, 0, 3) >> 11) as f64 / (1u64 << 53) as f64;
    let position = (start + ctx.epoch as f64 * GOLDEN_STEP).fract();
    (position * ctx.sizes.ingest_rows as f64) as Key
}

fn range_query(low: Key, high: Key) -> Query {
    Query::table("data").range("k", low, high)
}

/// Sorted positions of sixteen ranges over the initial rows: the answers a
/// restart must reproduce. Appends never move a stored row, so the battery
/// is independent of how much of the appended tail survived.
fn battery(db: &Database, initial_rows: usize) -> Option<Vec<Vec<RowId>>> {
    let session = db.session();
    let n = initial_rows as Key;
    (0..BATTERY)
        .map(|q| {
            let low = (q * 7_919) % n.max(1);
            let result = session.execute(&range_query(low, low + n / 50 + 1)).ok()?;
            Some(result.positions().as_slice().to_vec())
        })
        .collect()
}

/// The log as it stood when an fsync last returned: the newest log file,
/// its length, and the appended rows acknowledged by then.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DurablePoint {
    file: String,
    len: u64,
    appended_rows: u64,
}

fn newest_log_file(wal_dir: &Path) -> io::Result<Option<(String, u64)>> {
    let mut newest = None;
    for entry in fs::read_dir(wal_dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        // zero-padded first LSNs: name order is log order
        if name.starts_with("wal-") && newest.as_ref().is_none_or(|(n, _)| *n < name) {
            newest = Some((name, entry.metadata()?.len()));
        }
    }
    Ok(newest)
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut bytes = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        bytes += if entry.file_type()?.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            entry.metadata()?.len()
        };
    }
    Ok(bytes)
}

/// Copy `dir` and discard from the copy every log byte written after
/// `point`: a killed process keeps the page cache, so the benchmark drops
/// the unflushed tail itself.
fn crashed_copy(dir: &Path, copy: &Path, point: &DurablePoint) -> io::Result<()> {
    copy_dir(dir, copy)?;
    for entry in fs::read_dir(copy.join("wal"))? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("wal-") {
            continue;
        }
        if name > point.file {
            fs::remove_file(entry.path())?;
        } else if name == point.file {
            fs::OpenOptions::new()
                .write(true)
                .open(entry.path())?
                .set_len(point.len)?;
        }
    }
    Ok(())
}

/// Log records of the crashed copy that recovery has to replay: those newer
/// than its latest checkpoint.
fn replayable_records(copy: &Path) -> usize {
    let checkpoint_lsn =
        load_latest_checkpoint(&copy.join("checkpoints"), DEFAULT_SEGMENT_CAPACITY)
            .ok()
            .flatten()
            .map_or(0, |checkpoint| checkpoint.lsn);
    read_log(&copy.join("wal"), checkpoint_lsn).map_or(0, |replay| replay.records.len())
}

/// Operations lost by recovering the crashed copy: rows acknowledged up to
/// `point` that are missing, plus one if the battery answers differently,
/// plus one if the check was vacuous — the copy must hold log records to
/// replay, and batches acknowledged after `point` must have been cut off
/// (`acknowledged_rows` is everything the run was told was appended).
fn lost_after_crash(
    copy: &Path,
    point: &DurablePoint,
    acknowledged_rows: u64,
    initial_rows: usize,
    before: &Option<Vec<Vec<RowId>>>,
) -> u64 {
    let replayed = replayable_records(copy);
    let Ok(db) = Database::open(copy) else {
        return point.appended_rows.max(1);
    };
    let must_hold = initial_rows as u64 + point.appended_rows;
    let present = db.row_count("data").unwrap_or(0) as u64;
    let first_appended = initial_rows as Key;
    let survived = db
        .session()
        .execute(&range_query(
            first_appended,
            first_appended + point.appended_rows as Key,
        ))
        .map_or(0, |r| r.row_count() as u64);
    let missing = must_hold
        .saturating_sub(present)
        .max(point.appended_rows.saturating_sub(survived));
    let battery_differs = before.is_none() || battery(&db, initial_rows) != *before;
    let dropped_rows = (initial_rows as u64 + acknowledged_rows).saturating_sub(present);
    let vacuous = replayed == 0 || dropped_rows == 0;
    missing + u64::from(battery_differs) + u64::from(vacuous)
}

fn durable_database(dir: &Path) -> Database {
    Database::builder()
        .default_strategy(StrategyKind::UpdatableCracking)
        .parallelism(1)
        .durability(
            // checkpoint cadence is the default: every 65 536 logged rows,
            // or after a compaction changed the layout
            DurabilityConfig::at(dir).fsync(FsyncPolicy::EveryN(SYNC_EVERY)),
        )
        .try_build()
        .expect("a fresh directory opens")
}

pub fn epoch(ctx: &Ctx) -> Epoch {
    let mut epoch = Epoch::default();
    let t = ctx.tracer;
    let sizes = ctx.sizes;
    let dir = ctx.tmp.join(format!("ingest-{}", ctx.epoch));
    let copy = ctx.tmp.join(format!("ingest-{}-crashed", ctx.epoch));
    let wal_dir = dir.join("wal");

    let setup = Instant::now();
    let table = initial_table(ctx);
    let db = t.in_span("core.create_table", 0, || {
        let db = durable_database(&dir);
        db.create_table("data", table)
            .expect("a fresh database has no table named data");
        db
    });
    let session = db.session();
    let batches: Vec<Vec<Vec<Value>>> = (0..sizes.ingest_batches).map(|b| batch(ctx, b)).collect();
    let width = ((sizes.ingest_rows as f64 * SELECTIVITY) as Key).max(1);
    let mut rng = StdRng::seed_from_u64(ctx.seed_for(2));
    epoch.setup_s = setup.elapsed().as_secs_f64();

    // the cold first query, before any write
    let low = first_query_low(ctx);
    let high = low + width;
    let first = range_query(low, high);
    let started = Instant::now();
    let result = t.in_span("core.execute", 0, || session.execute(&first));
    epoch.first_query_ms = elapsed_us(started) / 1e3;
    epoch.tally.op(matches!(&result, Ok(r)
        if r.row_count() == permutation_range_count(low, high, sizes.ingest_rows)));
    let mut held = result.ok();

    let mut insert_us = Vec::with_capacity(batches.len());
    let mut tick_us = Vec::new();
    let mut appended_rows = 0u64;
    let mut fsyncs_seen = db.wal_stats().map_or(0, |s| s.fsyncs);
    let mut durable: Option<DurablePoint> = None;
    // log and checkpoint bytes on disk per byte of user data stored then
    let log_ratio = |appended_rows: u64| {
        let user_bytes = 8 * (sizes.ingest_rows as u64 + appended_rows);
        dir_bytes(&dir).unwrap_or(0) as f64 / user_bytes as f64
    };
    let mut peak_log_ratio = 0f64;
    let mut note_sync = |db: &Database, appended_rows: u64| {
        let fsyncs = db.wal_stats().map_or(0, |s| s.fsyncs);
        if fsyncs != fsyncs_seen {
            fsyncs_seen = fsyncs;
            if let Ok(Some((file, len))) = newest_log_file(&wal_dir) {
                durable = Some(DurablePoint {
                    file,
                    len,
                    appended_rows,
                });
            }
        }
    };

    let wall = Instant::now();
    for (b, rows) in batches.iter().enumerate() {
        let op = (b * (1 + QUERIES_PER_BATCH)) as u64 + 1;
        let started = Instant::now();
        let inserted = t.in_span("core.insert_rows", op, || session.insert_rows("data", rows));
        insert_us.push(elapsed_us(started));
        epoch.tally.op(inserted.is_ok());
        if inserted.is_ok() {
            appended_rows += rows.len() as u64;
        }
        note_sync(&db, appended_rows);

        let live = sizes.ingest_rows + appended_rows as usize;
        for q in 0..QUERIES_PER_BATCH {
            let low = rng.gen_range(0..live as Key);
            let high = low + width;
            let query = range_query(low, high);
            let started = Instant::now();
            let result = t.in_span("core.execute", op + 1 + q as u64, || {
                session.execute(&query)
            });
            epoch.query_us.push(elapsed_us(started));
            let expected = permutation_range_count(low, high, live);
            epoch
                .tally
                .op(matches!(&result, Ok(r) if r.row_count() == expected));
            held = result.ok();
        }

        if b % TICK_EVERY == TICK_EVERY - 1 {
            // a tick may checkpoint and cut the log: the log is longest now
            peak_log_ratio = peak_log_ratio.max(log_ratio(appended_rows));
            let started = Instant::now();
            t.in_span("maintenance.tick", op, || db.maintenance_tick());
            tick_us.push(elapsed_us(started));
            note_sync(&db, appended_rows);
        }
    }
    epoch.wall_s = wall.elapsed().as_secs_f64();
    drop(held);
    epoch.ops = (insert_us.len() + epoch.query_us.len()) as u64;
    epoch.extra_latency("insert_p50_us", Some("insert_p99_us"), &insert_us);
    epoch.extra("insert_rows_per_s", appended_rows as f64 / epoch.wall_s);
    if !tick_us.is_empty() {
        epoch.extra("maintenance.tick_us", stats::median(&tick_us));
    }

    // what a restart must reproduce, and what the run left on disk
    let before = t.in_span("harness.oracle", 0, || battery(&db, sizes.ingest_rows));
    let snapshot = db.table_snapshot("data").expect("the table exists");
    epoch.extra(
        "columnstore.sealed_chunks",
        snapshot.sealed_chunk_count() as f64,
    );
    epoch.extra(
        "columnstore.fragmented_chunks",
        snapshot.fragmented_chunk_count() as f64,
    );
    drop(snapshot);
    if let Some(wal) = db.wal_stats() {
        epoch.extra("wal.fsyncs", wal.fsyncs as f64);
        epoch.extra("wal.records", wal.records_appended as f64);
    }
    // space at its worst over the run: sampled where the log is longest,
    // before each tick and now
    epoch.extra(
        "log_bytes_per_user_byte",
        peak_log_ratio.max(log_ratio(appended_rows)),
    );
    drop(session);
    drop(db);

    // the crashed copy must be taken before the restart appends to the log
    let crashed = durable
        .as_ref()
        .map(|point| t.in_span("harness.crash_copy", 0, || crashed_copy(&dir, &copy, point)));

    // restart: open until the first query answers
    let started = Instant::now();
    let reopened = t.in_span("core.open", 0, || {
        let db = Database::open(&dir).ok()?;
        let session = db.session();
        session.execute(&first).ok()?;
        Some(db)
    });
    epoch.extra("recovery_s", started.elapsed().as_secs_f64());
    let _oracle = t.span("harness.oracle", 0);
    let total_rows = sizes.ingest_rows + appended_rows as usize;
    let restart_ok = reopened.as_ref().is_some_and(|db| {
        db.row_count("data").ok() == Some(total_rows)
            && before.is_some()
            && battery(db, sizes.ingest_rows) == before
    });
    epoch.tally.op(restart_ok);
    drop(reopened);

    // durability: every row acknowledged up to the last fsync survives the
    // loss of everything written after it
    epoch.tally.attempted += 1;
    epoch.tally.fail(match (&durable, crashed) {
        (Some(point), Some(Ok(()))) => {
            lost_after_crash(&copy, point, appended_rows, sizes.ingest_rows, &before)
        }
        // no fsync was ever observed, or the copy failed: nothing was checked
        _ => 1,
    });
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&copy);
    epoch
}

fn memory_database(ctx: &Ctx, table: Table) -> Database {
    let db = Database::builder()
        .default_strategy(StrategyKind::UpdatableCracking)
        .parallelism(1)
        .build();
    ctx.tracer.in_span("core.create_table", 0, || {
        db.create_table("data", table)
            .expect("a fresh database has no table named data")
    });
    db
}

/// Mean nanoseconds per row of `insert_rows` over the first 256 batches.
fn insert_ns_per_row(ctx: &Ctx, span: &'static str, db: &Database) -> f64 {
    let session = db.session();
    let batches: Vec<_> = (0..256).map(|b| batch(ctx, b)).collect();
    per_call_ns(ctx.tracer, span, 1, batches.len(), |b| {
        session
            .insert_rows("data", &batches[b])
            .expect("rows match the schema");
    }) / ctx.sizes.ingest_batch_rows as f64
}

pub fn probes(ctx: &Ctx, out: &mut Vec<(&'static str, f64)>) {
    let t = ctx.tracer;
    let sizes = ctx.sizes;
    let table = initial_table(ctx);
    let per_batch = sizes.ingest_batch_rows;

    // core: the insert path without a log, without and with a live index
    let plain = insert_ns_per_row(
        ctx,
        "core.insert_rows",
        &memory_database(ctx, table.clone()),
    );
    out.push(("core.insert_rows_ns_per_row", plain));
    let indexed = memory_database(ctx, table.clone());
    indexed
        .session()
        .execute(&range_query(0, 1_000))
        .expect("range query");
    let absorbing = insert_ns_per_row(ctx, "core.insert_rows_indexed", &indexed);
    out.push(("core.index_absorb_ns_per_row", absorbing - plain));
    drop(indexed);

    // columnstore: the catalog's copy-on-write append while a reader holds
    // the previous snapshot
    let mut catalog = Catalog::new();
    catalog
        .create_table("data", table.clone())
        .expect("an empty catalog");
    let batches: Vec<_> = (0..256).map(|b| batch(ctx, b)).collect();
    out.push((
        "columnstore.append_rows_ns_per_row",
        per_call_ns(t, "columnstore.append_rows", 1, batches.len(), |b| {
            let _reader = catalog.table_arc("data").expect("the table exists");
            catalog
                .append_rows("data", &batches[b])
                .expect("rows match the schema");
        }) / per_batch as f64,
    ));
    drop(catalog);

    // maintenance: compact a column that churn under live snapshots fragmented
    let churned = memory_database(ctx, table.clone());
    let session = churned.session();
    for rows in &batches {
        let _reader = churned.table_snapshot("data").expect("the table exists");
        session
            .insert_rows("data", rows)
            .expect("rows match the schema");
    }
    let chunks = |db: &Database| {
        db.table_snapshot("data")
            .expect("the table exists")
            .sealed_chunk_count() as f64
    };
    out.push(("maintenance.chunks_before", chunks(&churned)));
    out.push((
        "maintenance.compact_ms",
        per_fresh_call_ns(t, "maintenance.compact", 1, |_| (), |()| churned.compact()) / 1e6,
    ));
    out.push(("maintenance.chunks_after", chunks(&churned)));
    drop(session);
    drop(churned);

    // wal: append and fsync at the workload's cadence, then read it back
    let wal_dir = ctx.tmp.join("probe-wal");
    let _ = fs::remove_dir_all(&wal_dir);
    let wal = Wal::open(
        &wal_dir,
        FsyncPolicy::EveryN(SYNC_EVERY),
        DEFAULT_SEGMENT_CAPACITY as u64,
    )
    .expect("a fresh log directory opens");
    let records: Vec<WalRecord> = batches
        .iter()
        .map(|rows| WalRecord::Append {
            table: "data".to_owned(),
            rows: rows.clone(),
        })
        .collect();
    let mut append_ns = Vec::with_capacity(records.len());
    let mut fsync_us = Vec::new();
    for record in &records {
        let started = Instant::now();
        let (_, sync_lsn) = t
            .in_span("wal.append", 0, || wal.append(record))
            .expect("append to a healthy log");
        append_ns.push(started.elapsed().as_nanos() as f64);
        if let Some(lsn) = sync_lsn {
            let started = Instant::now();
            t.in_span("wal.fsync", 0, || wal.sync_to(lsn))
                .expect("fsync of a healthy log");
            fsync_us.push(elapsed_us(started));
        }
    }
    drop(wal);
    let logged_rows = (records.len() * per_batch) as f64;
    out.push(("wal.append_ns", stats::median(&append_ns)));
    out.push(("wal.fsync_us", stats::median(&fsync_us)));
    out.push((
        "wal.bytes_per_row",
        dir_bytes(&wal_dir).unwrap_or(0) as f64 / logged_rows,
    ));
    let replay_ns = per_fresh_call_ns(t, "wal.read_log", 3, |_| (), |()| read_log(&wal_dir, 0));
    out.push(("wal.replay_rows_per_s", logged_rows / (replay_ns / 1e9)));
    let _ = fs::remove_dir_all(&wal_dir);

    // wal: checkpoint the initial table, and load it back
    let checkpoint_dir: PathBuf = ctx.tmp.join("probe-checkpoints");
    let _ = fs::remove_dir_all(&checkpoint_dir);
    let tables = [CheckpointTable {
        name: "data".to_owned(),
        epoch: 1,
        table: Arc::new(table),
    }];
    let mut seq = 0;
    out.push((
        "wal.checkpoint_ms",
        per_fresh_call_ns(
            t,
            "wal.write_checkpoint",
            3,
            |_| {
                seq += 1;
                seq
            },
            |seq| write_checkpoint(&checkpoint_dir, seq, 1, 2, &tables),
        ) / 1e6,
    ));
    out.push((
        "wal.checkpoint_load_ms",
        per_fresh_call_ns(
            t,
            "wal.load_checkpoint",
            3,
            |_| (),
            |()| {
                black_box(load_latest_checkpoint(
                    &checkpoint_dir,
                    DEFAULT_SEGMENT_CAPACITY,
                ))
            },
        ) / 1e6,
    ));
    let _ = fs::remove_dir_all(&checkpoint_dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crashed_copy_drops_every_byte_past_the_durable_point() {
        let root = std::env::temp_dir().join(format!("ledger-crash-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let (dir, copy) = (root.join("live"), root.join("copy"));
        fs::create_dir_all(dir.join("wal")).unwrap();
        fs::create_dir_all(dir.join("checkpoints/ckpt-1")).unwrap();
        fs::write(dir.join("wal/wal-001.log"), [1u8; 100]).unwrap();
        fs::write(dir.join("wal/wal-002.log"), [2u8; 100]).unwrap();
        fs::write(dir.join("wal/wal-003.log"), [3u8; 100]).unwrap();
        fs::write(dir.join("checkpoints/ckpt-1/t0.tbl"), [4u8; 50]).unwrap();
        assert_eq!(
            newest_log_file(&dir.join("wal")).unwrap(),
            Some(("wal-003.log".to_owned(), 100))
        );
        assert_eq!(dir_bytes(&dir).unwrap(), 350);

        let point = DurablePoint {
            file: "wal-002.log".to_owned(),
            len: 40,
            appended_rows: 0,
        };
        crashed_copy(&dir, &copy, &point).unwrap();
        // the older file is whole, the durable file is cut, the newer is gone
        assert_eq!(fs::read(copy.join("wal/wal-001.log")).unwrap().len(), 100);
        assert_eq!(fs::read(copy.join("wal/wal-002.log")).unwrap(), [2u8; 40]);
        assert!(!copy.join("wal/wal-003.log").exists());
        assert_eq!(
            fs::read(copy.join("checkpoints/ckpt-1/t0.tbl"))
                .unwrap()
                .len(),
            50
        );
        // the live directory is untouched
        assert_eq!(dir_bytes(&dir).unwrap(), 350);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn first_queries_of_a_dozen_epochs_cover_the_domain_evenly() {
        let tracer = crate::trace::Tracer::new(false);
        let sizes = crate::workloads::Sizes::FROZEN;
        let n = sizes.ingest_rows as Key;
        let low = |seed, epoch| {
            first_query_low(&Ctx {
                tracer: &tracer,
                seed,
                epoch,
                sizes: &sizes,
                tmp: Path::new("."),
            })
        };
        assert_eq!(low(7, 3), low(7, 3));
        assert_ne!(low(7, 0), low(8, 0));
        for (seed, from) in [(7, 0), (8, 5), (u64::MAX, 40)] {
            let mut lows: Vec<Key> = (from..from + 12).map(|e| low(seed, e)).collect();
            lows.sort_unstable();
            assert!(lows[0] >= 0 && lows[11] < n);
            // around the circle, no gap wider than a sixth of the domain
            let widest = (0..12)
                .map(|i| (lows[(i + 1) % 12] - lows[i]).rem_euclid(n))
                .max()
                .unwrap();
            assert!(widest <= n / 6, "seed {seed}: gap {widest}");
        }
    }

    /// The durability check must have something to lose and something to
    /// replay: a batch count on the tick cadence ends the epoch on a
    /// checkpoint, and that epoch fails its check instead of passing it
    /// untested.
    #[test]
    fn an_epoch_that_ends_on_a_checkpoint_fails_its_durability_check() {
        let root = std::env::temp_dir().join(format!("ledger-vacuous-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let tracer = crate::trace::Tracer::new(false);
        let failed = |ingest_batches| {
            let sizes = crate::workloads::Sizes {
                // past the default checkpoint threshold of 65 536 logged
                // rows, so the first tick checkpoints
                ingest_rows: 70_000,
                ingest_batches,
                ..crate::workloads::Sizes::FROZEN
            };
            epoch(&Ctx {
                tracer: &tracer,
                seed: 1,
                epoch: 0,
                sizes: &sizes,
                tmp: &root,
            })
            .tally
            .failed
        };
        assert_eq!(failed(TICK_EVERY), 1);
        assert_eq!(failed(TICK_EVERY + 12), 0);
        fs::remove_dir_all(&root).unwrap();
    }
}
