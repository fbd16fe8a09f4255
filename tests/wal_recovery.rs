//! Kill-and-recover tests for the durability subsystem.
//!
//! Each test stages a database in a unique temp directory, "crashes" it at
//! an adversarial point — before any checkpoint, after one, mid-checkpoint
//! with a truncated manifest, with a torn or corrupted last log record —
//! and reopens the directory. Recovery must rebuild exactly the committed
//! prefix, answer queries byte-identically, and never restore index state:
//! adaptive indexes re-derive from queries, which is the cheap-recovery
//! property the cracking papers promise.
//!
//! True process-kill coverage (SIGABRT mid-stream) lives in the
//! `e15_crash_recovery` smoke binary; these tests cover the on-disk damage
//! cases deterministically.

use adaptive_indexing::columnstore::column::Column;
use adaptive_indexing::columnstore::table::Table;
use adaptive_indexing::columnstore::types::Value;
use adaptive_indexing::{
    AidxError, Database, DatabaseBuilder, DurabilityConfig, FsyncPolicy, StrategyKind,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

// -------------------------------------------------------------------------
// temp-dir hygiene: unique per-test directories, removed on success so the
// suite stays parallel-safe and leaves nothing behind
// -------------------------------------------------------------------------

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "aidx-recovery-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&path);
        TempDir { path }
    }

    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // keep the directory on failure for post-mortem inspection
        if !std::thread::panicking() {
            let _ = fs::remove_dir_all(&self.path);
        }
    }
}

// -------------------------------------------------------------------------
// helpers
// -------------------------------------------------------------------------

fn durable_builder(dir: &Path, strategy: StrategyKind, fsync: FsyncPolicy) -> DatabaseBuilder {
    Database::builder()
        .default_strategy(strategy)
        .segment_capacity(64)
        .durability(
            DurabilityConfig::at(dir)
                .fsync(fsync)
                .checkpoint_after_rows(10_000),
        )
}

fn orders_rows(n: i64) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| vec![Value::Int64((i * 7919) % n), Value::Int64(i)])
        .collect()
}

fn orders_table(n: i64) -> Table {
    let keys: Vec<i64> = (0..n).map(|i| (i * 7919) % n).collect();
    let values: Vec<i64> = (0..n).collect();
    Table::from_columns(vec![
        ("o_key", Column::from_i64(keys)),
        ("o_value", Column::from_i64(values)),
    ])
    .unwrap()
}

/// Materialized result of the reference query battery: positions plus
/// reconstructed row values, so equality means byte-identical answers.
fn query_battery(db: &Database, table: &str) -> Vec<(Vec<u32>, Vec<Vec<Value>>)> {
    let session = db.session();
    let mut out = Vec::new();
    for q in 0..8 {
        let low = q * 53;
        let result = session
            .query(table)
            .range("o_key", low, low + 97)
            .project(["o_key", "o_value"])
            .execute()
            .unwrap();
        let positions = result.positions().clone().into_vec();
        let rows: Vec<Vec<Value>> = result.rows().map(|r| r.to_vec()).collect();
        out.push((positions, rows));
    }
    out
}

/// The newest (highest-LSN) log file in `<dir>/wal`.
fn newest_log_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    files.sort();
    files.pop().expect("log directory must not be empty")
}

// -------------------------------------------------------------------------
// crash point 1: no checkpoint ever ran — pure log replay
// -------------------------------------------------------------------------

#[test]
fn log_only_recovery_is_byte_identical_across_strategies() {
    for strategy in [
        StrategyKind::Cracking,
        StrategyKind::FullSort,
        StrategyKind::AdaptiveMerging { run_size: 128 },
    ] {
        let tmp = TempDir::new("log-only");
        let reference = {
            let db = durable_builder(tmp.path(), strategy, FsyncPolicy::Always)
                .try_build()
                .unwrap();
            db.create_table("orders", orders_table(500)).unwrap();
            let session = db.session();
            for i in 0..40 {
                session
                    .insert_row("orders", &[Value::Int64(1000 + i), Value::Int64(i)])
                    .unwrap();
            }
            session.insert_rows("orders", &orders_rows(100)).unwrap();
            query_battery(&db, "orders")
            // drop without checkpoint: everything lives in the log
        };

        let db = durable_builder(tmp.path(), strategy, FsyncPolicy::Always)
            .try_build()
            .unwrap();
        assert_eq!(
            db.indexed_column_count(),
            0,
            "{strategy:?}: recovery must not rebuild indexes eagerly"
        );
        assert_eq!(db.row_count("orders").unwrap(), 640);
        assert_eq!(
            query_battery(&db, "orders"),
            reference,
            "{strategy:?}: recovered answers must be byte-identical"
        );
        assert_eq!(
            db.indexed_column_count(),
            1,
            "{strategy:?}: the battery re-derives exactly the queried column"
        );
    }
}

// -------------------------------------------------------------------------
// crash point 2: after a checkpoint, with a log suffix on top
// -------------------------------------------------------------------------

#[test]
fn checkpoint_plus_log_suffix_recovers_everything() {
    let tmp = TempDir::new("ckpt-suffix");
    let reference = {
        let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::Always)
            .try_build()
            .unwrap();
        db.create_table("orders", orders_table(300)).unwrap();
        let report = db.checkpoint().unwrap().expect("state to cover");
        assert_eq!(report.tables, 1);
        assert!(report.lsn > 0);
        // the suffix: rows the checkpoint does not cover
        db.session()
            .insert_rows("orders", &orders_rows(150))
            .unwrap();
        query_battery(&db, "orders")
    };

    let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::Always)
        .try_build()
        .unwrap();
    assert_eq!(db.row_count("orders").unwrap(), 450);
    assert_eq!(query_battery(&db, "orders"), reference);
    // a second checkpoint continues the sequence rather than restarting it
    let report = db.checkpoint().unwrap().expect("suffix to cover");
    assert!(
        report.seq >= 2,
        "sequence must survive recovery: {report:?}"
    );
}

// -------------------------------------------------------------------------
// crash point 3: mid-checkpoint — manifest truncated or missing
// -------------------------------------------------------------------------

#[test]
fn incomplete_checkpoint_is_ignored_in_favor_of_the_previous_one() {
    let tmp = TempDir::new("mid-ckpt");
    let (reference, seq) = {
        let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::Always)
            .try_build()
            .unwrap();
        db.create_table("orders", orders_table(300)).unwrap();
        let report = db.checkpoint().unwrap().expect("state to cover");
        db.session()
            .insert_rows("orders", &orders_rows(80))
            .unwrap();
        (query_battery(&db, "orders"), report.seq)
    };

    // forge a crash mid-checkpoint: a newer checkpoint directory whose
    // MANIFEST never finished (truncated garbage), written before the log
    // would have been truncated — exactly the manifest-last protocol's
    // crash window
    let forged = tmp
        .path()
        .join("checkpoints")
        .join(format!("ckpt-{:010}", seq + 1));
    fs::create_dir_all(&forged).unwrap();
    fs::write(forged.join("t0.tbl"), b"half-written table bytes").unwrap();
    fs::write(forged.join("MANIFEST"), b"AIDXCKP1\x03\x00").unwrap();

    let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::Always)
        .try_build()
        .unwrap();
    assert_eq!(db.row_count("orders").unwrap(), 380);
    assert_eq!(query_battery(&db, "orders"), reference);

    // a manifest missing entirely is equally ignored
    fs::remove_file(forged.join("MANIFEST")).unwrap();
    drop(db);
    let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::Always)
        .try_build()
        .unwrap();
    assert_eq!(db.row_count("orders").unwrap(), 380);
}

// -------------------------------------------------------------------------
// crash point 4: torn or corrupted last log record
// -------------------------------------------------------------------------

#[test]
fn torn_last_record_reads_as_clean_end_of_log() {
    let tmp = TempDir::new("torn");
    {
        let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::Always)
            .try_build()
            .unwrap();
        db.create_table("orders", orders_table(200)).unwrap();
        for i in 0..10 {
            db.session()
                .insert_row("orders", &[Value::Int64(5000 + i), Value::Int64(i)])
                .unwrap();
        }
    }
    // a torn append: frame header promises 300 payload bytes, the "crash"
    // left only a few
    let log = newest_log_file(tmp.path());
    let mut bytes = fs::read(&log).unwrap();
    bytes.extend_from_slice(&300u32.to_le_bytes());
    bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    bytes.extend_from_slice(b"torn");
    fs::write(&log, &bytes).unwrap();

    let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::Always)
        .try_build()
        .unwrap();
    assert_eq!(
        db.row_count("orders").unwrap(),
        210,
        "the committed prefix survives; the torn tail is truncated"
    );
    // the truncated file keeps accepting appends after recovery
    db.session()
        .insert_row("orders", &[Value::Int64(1), Value::Int64(2)])
        .unwrap();
    drop(db);
    let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::Always)
        .try_build()
        .unwrap();
    assert_eq!(db.row_count("orders").unwrap(), 211);
}

#[test]
fn corrupted_last_record_degrades_to_truncation_not_panic() {
    let tmp = TempDir::new("corrupt");
    {
        let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::Always)
            .try_build()
            .unwrap();
        db.create_table("orders", orders_table(200)).unwrap();
        for i in 0..10 {
            db.session()
                .insert_row("orders", &[Value::Int64(5000 + i), Value::Int64(i)])
                .unwrap();
        }
    }
    // flip one byte inside the last record's payload: its checksum fails,
    // and because it is the newest file's tail, recovery truncates instead
    // of refusing to open
    let log = newest_log_file(tmp.path());
    let mut bytes = fs::read(&log).unwrap();
    let last = bytes.len() - 3;
    bytes[last] ^= 0x40;
    fs::write(&log, &bytes).unwrap();

    let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::Always)
        .try_build()
        .unwrap();
    assert_eq!(
        db.row_count("orders").unwrap(),
        209,
        "exactly the damaged record is lost, nothing before it"
    );
}

// -------------------------------------------------------------------------
// index state is never persisted
// -------------------------------------------------------------------------

#[test]
fn recovery_replays_data_only_and_rederives_indexes_lazily() {
    let tmp = TempDir::new("no-index");
    let reference = {
        let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::OnSeal)
            .try_build()
            .unwrap();
        db.create_table("orders", orders_table(400)).unwrap();
        // build real index state, then checkpoint with it present
        let reference = query_battery(&db, "orders");
        assert_eq!(db.indexed_column_count(), 1);
        assert!(db.total_effort() > 0);
        db.checkpoint().unwrap().expect("state to cover");
        reference
    };

    let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::OnSeal)
        .try_build()
        .unwrap();
    assert_eq!(db.indexed_column_count(), 0, "no index state on disk");
    assert_eq!(db.total_effort(), 0);
    assert_eq!(db.maintenance_stats().indexes_refreshed, 0);
    assert_eq!(query_battery(&db, "orders"), reference);
    assert_eq!(db.indexed_column_count(), 1, "re-derived by the queries");
}

// -------------------------------------------------------------------------
// DDL replay, seeded catalogs, fsync policies, checkpoint/compaction
// -------------------------------------------------------------------------

#[test]
fn create_and_drop_are_replayed_in_order() {
    let tmp = TempDir::new("ddl");
    {
        let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::Always)
            .try_build()
            .unwrap();
        db.create_table("keep", orders_table(64)).unwrap();
        db.create_table("doomed", orders_table(32)).unwrap();
        assert!(db.drop_table("doomed"));
        db.create_table("doomed", orders_table(16)).unwrap();
        assert!(db.drop_table("doomed"));
    }
    let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::Always)
        .try_build()
        .unwrap();
    assert_eq!(db.table_names(), vec!["keep".to_owned()]);
    assert_eq!(db.row_count("keep").unwrap(), 64);
}

#[test]
fn seeded_catalog_is_logged_into_a_fresh_directory() {
    let tmp = TempDir::new("seed");
    {
        let mut catalog = adaptive_indexing::columnstore::catalog::Catalog::new();
        catalog.create_table("seeded", orders_table(128)).unwrap();
        let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::OnSeal)
            .catalog(catalog)
            .try_build()
            .unwrap();
        assert_eq!(db.row_count("seeded").unwrap(), 128);
        // no checkpoint: the seed must live in the log alone
    }
    let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::OnSeal)
        .try_build()
        .unwrap();
    assert_eq!(db.row_count("seeded").unwrap(), 128);
}

#[test]
fn seeding_tables_into_a_used_directory_is_rejected() {
    let tmp = TempDir::new("seed-clash");
    {
        let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::OnSeal)
            .try_build()
            .unwrap();
        db.create_table("existing", orders_table(16)).unwrap();
    }
    let mut catalog = adaptive_indexing::columnstore::catalog::Catalog::new();
    catalog.create_table("intruder", orders_table(8)).unwrap();
    let err = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::OnSeal)
        .catalog(catalog)
        .try_build();
    assert!(
        matches!(err, Err(AidxError::Config { .. })),
        "seeding over durable state must be rejected: {err:?}"
    );
}

#[test]
fn every_fsync_policy_recovers_the_full_history() {
    for fsync in [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(64),
        FsyncPolicy::OnSeal,
    ] {
        let tmp = TempDir::new("policy");
        {
            let db = durable_builder(tmp.path(), StrategyKind::Cracking, fsync)
                .try_build()
                .unwrap();
            db.create_table("orders", orders_table(100)).unwrap();
            db.session()
                .insert_rows("orders", &orders_rows(200))
                .unwrap();
        }
        // a clean drop flushes nothing extra, but the OS page cache holds
        // the writes; what this asserts is the logical replay path per
        // policy (physical loss needs the e15 kill harness)
        let db = durable_builder(tmp.path(), StrategyKind::Cracking, fsync)
            .try_build()
            .unwrap();
        assert_eq!(db.row_count("orders").unwrap(), 300, "{fsync:?}");
        let stats = db.wal_stats().unwrap();
        assert_eq!(stats.records_appended, 0, "fresh wal after reopen");
    }
}

/// Sealed-chunk lengths of `column` in the current snapshot of `table`.
fn chunk_lens(db: &Database, table: &str, column: &str) -> Vec<usize> {
    db.table_snapshot(table)
        .unwrap()
        .column(column)
        .unwrap()
        .sealed_chunk_lens()
}

/// Append `n` rows one at a time, each under a live snapshot: every insert
/// seals the tail early, fragmenting the columns far beyond the ideal chunk
/// count.
fn churn(db: &Database, first: i64, n: i64) {
    let session = db.session();
    for i in first..first + n {
        let _snapshot = db.table_snapshot("orders").unwrap();
        session
            .insert_row("orders", &[Value::Int64(10_000 + i), Value::Int64(i)])
            .unwrap();
    }
}

#[test]
fn compacted_layout_survives_recovery() {
    let tmp = TempDir::new("compact");
    let reference = {
        let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::OnSeal)
            .try_build()
            .unwrap();
        db.create_table("orders", orders_table(256)).unwrap();
        churn(&db, 0, 128);
        let report = db.compact();
        assert!(report.rows_merged > 0);
        // a re-layout moves no row: it arms no checkpoint, and the compact()
        // loop, which runs every maintenance job to completion, writes none
        let stats = db.maintenance_stats();
        assert_eq!(
            stats.checkpoints_written, 0,
            "compaction must not trigger a checkpoint: {stats:?}"
        );
        query_battery(&db, "orders")
    };

    // the log replays without live snapshots, so the rows come back in
    // full chunks
    let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::OnSeal)
        .try_build()
        .unwrap();
    assert_eq!(db.row_count("orders").unwrap(), 384);
    let chunks = chunk_lens(&db, "orders", "o_key").len();
    let ideal = 384usize.div_ceil(64);
    assert!(
        chunks <= 2 * ideal,
        "recovery must not resurrect the fragments ({chunks} chunks vs ideal {ideal})"
    );
    assert_eq!(query_battery(&db, "orders"), reference);
}

#[test]
fn checkpointed_fragments_are_restored_exactly_then_compacted_in_memory() {
    let tmp = TempDir::new("ckpt-fragments");
    let (reference, checkpointed) = {
        let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::OnSeal)
            .try_build()
            .unwrap();
        db.create_table("orders", orders_table(256)).unwrap();
        churn(&db, 0, 64);
        // mid-churn: the checkpoint captures the fragments as they are
        let checkpointed = chunk_lens(&db, "orders", "o_key");
        assert!(checkpointed.iter().any(|&len| len < 64));
        db.checkpoint().unwrap().expect("state to cover");
        churn(&db, 64, 64);
        (query_battery(&db, "orders"), checkpointed)
    };

    let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::OnSeal)
        .try_build()
        .unwrap();
    assert_eq!(db.row_count("orders").unwrap(), 384);
    for column in ["o_key", "o_value"] {
        let restored = chunk_lens(&db, "orders", column);
        // the checkpoint's undersized chunks, exactly, then the replayed
        // suffix in full chunks
        assert_eq!(
            restored[..checkpointed.len()],
            checkpointed[..],
            "{column}: the checkpointed layout is restored as written"
        );
        assert!(
            restored[checkpointed.len()..].iter().all(|&len| len == 64),
            "{column}: the replayed suffix seals full chunks: {restored:?}"
        );
    }
    assert_eq!(query_battery(&db, "orders"), reference);

    // one tick compacts the restored fragments in memory, and checkpoints
    // nothing for it
    let before = db.maintenance_stats();
    assert!(db.maintenance_tick() > 0);
    let after = db.maintenance_stats();
    assert!(after.rows_compacted > before.rows_compacted);
    assert_eq!(after.checkpoints_written, before.checkpoints_written);
    let chunks = chunk_lens(&db, "orders", "o_key").len();
    let ideal = 384usize.div_ceil(64);
    assert!(chunks <= 2 * ideal, "{chunks} chunks vs ideal {ideal}");
    assert_eq!(query_battery(&db, "orders"), reference);
}

#[test]
fn drop_table_arms_exactly_one_checkpoint() {
    let tmp = TempDir::new("drop-ckpt");
    let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::OnSeal)
        .try_build()
        .unwrap();
    db.create_table("keep", orders_table(64)).unwrap();
    db.create_table("doomed", orders_table(32)).unwrap();
    // below the volume trigger, a tick checkpoints nothing
    db.maintenance_tick();
    assert_eq!(db.maintenance_stats().checkpoints_written, 0);
    assert!(db.drop_table("doomed"));
    db.maintenance_tick();
    assert_eq!(db.maintenance_stats().checkpoints_written, 1);
    // the checkpoint drained the trigger
    db.maintenance_tick();
    assert_eq!(db.maintenance_stats().checkpoints_written, 1);
    drop(db);

    let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::OnSeal)
        .try_build()
        .unwrap();
    assert_eq!(db.table_names(), vec!["keep".to_owned()]);
    assert_eq!(db.row_count("keep").unwrap(), 64);
}

#[test]
fn checkpoint_truncates_the_log() {
    let tmp = TempDir::new("truncate");
    let db = durable_builder(tmp.path(), StrategyKind::Cracking, FsyncPolicy::Always)
        .try_build()
        .unwrap();
    db.create_table("orders", orders_table(100)).unwrap();
    db.session()
        .insert_rows("orders", &orders_rows(400))
        .unwrap();
    let before: u64 = wal_bytes(tmp.path());
    db.checkpoint().unwrap().expect("state to cover");
    let after: u64 = wal_bytes(tmp.path());
    assert!(
        after < before,
        "checkpoint must truncate the log ({before} -> {after} bytes)"
    );
    // and the stats counter moved
    assert_eq!(db.maintenance_stats().checkpoints_written, 1);
}

fn wal_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum()
}

#[test]
fn non_durable_databases_reject_checkpoint_but_work_normally() {
    let db = Database::builder().try_build().unwrap();
    db.create_table("t", orders_table(32)).unwrap();
    let err = db.checkpoint();
    assert!(matches!(err, Err(AidxError::Config { .. })), "{err:?}");
    assert!(db.wal_stats().is_none());
    assert!(db.durability_config().is_none());
    assert_eq!(db.row_count("t").unwrap(), 32);
}

#[test]
fn invalid_durability_configs_are_rejected() {
    let tmp = TempDir::new("bad-config");
    let err = Database::builder()
        .durability(DurabilityConfig::at(tmp.path()).fsync(FsyncPolicy::EveryN(0)))
        .try_build();
    assert!(matches!(err, Err(AidxError::Config { .. })), "{err:?}");
    let err = Database::builder()
        .durability(DurabilityConfig::at(tmp.path()).checkpoint_after_rows(0))
        .try_build();
    assert!(matches!(err, Err(AidxError::Config { .. })), "{err:?}");
    let err = Database::builder()
        .durability(DurabilityConfig::at(""))
        .try_build();
    assert!(matches!(err, Err(AidxError::Config { .. })), "{err:?}");
}

#[test]
fn database_open_is_the_durable_shorthand() {
    let tmp = TempDir::new("open");
    {
        let db = Database::open(tmp.path()).unwrap();
        db.create_table("orders", orders_table(64)).unwrap();
        assert!(db.durability_config().is_some());
    }
    let db = Database::open(tmp.path()).unwrap();
    assert_eq!(db.row_count("orders").unwrap(), 64);
}

#[test]
fn strings_and_floats_round_trip_through_recovery() {
    let tmp = TempDir::new("types");
    {
        let db = Database::open(tmp.path()).unwrap();
        let labels: Vec<String> = (0..50).map(|i| format!("label-{}", i % 7)).collect();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        db.create_table(
            "mixed",
            Table::from_columns(vec![
                ("k", Column::from_i64((0..50).collect())),
                (
                    "f",
                    Column::from_f64((0..50).map(|i| i as f64 * 0.5).collect()),
                ),
                ("s", Column::from_strs(&refs)),
            ])
            .unwrap(),
        )
        .unwrap();
        db.session()
            .insert_row(
                "mixed",
                &[
                    Value::Int64(50),
                    Value::Float64(99.25),
                    Value::Utf8("tail".into()),
                ],
            )
            .unwrap();
        db.checkpoint().unwrap().expect("state to cover");
        db.session()
            .insert_row(
                "mixed",
                &[
                    Value::Int64(51),
                    Value::Float64(-0.0),
                    Value::Utf8("suffix".into()),
                ],
            )
            .unwrap();
    }
    let db = Database::open(tmp.path()).unwrap();
    assert_eq!(db.row_count("mixed").unwrap(), 52);
    let snapshot = db.table_snapshot("mixed").unwrap();
    assert_eq!(
        snapshot.column("s").unwrap().value_at(50).unwrap(),
        Value::Utf8("tail".into())
    );
    assert_eq!(
        snapshot.column("s").unwrap().value_at(51).unwrap(),
        Value::Utf8("suffix".into())
    );
    assert_eq!(
        snapshot.column("f").unwrap().value_at(50).unwrap(),
        Value::Float64(99.25)
    );
    let result = db
        .session()
        .query("mixed")
        .range("k", 40, 52)
        .project(["s"])
        .execute()
        .unwrap();
    assert_eq!(result.row_count(), 12);
}
