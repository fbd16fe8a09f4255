//! The append-only log: writing, group commit, rotation, truncation, and the
//! total (panic-free) reader.
//!
//! A log directory holds files named `wal-<first_lsn>.log`, each an
//! unbroken run of frames whose LSNs start at `first_lsn`. Appends go to the
//! file with the highest `first_lsn`; after a checkpoint the writer rotates
//! to a fresh file and deletes every sealed file that ends at or before the
//! checkpoint LSN, so truncation never rewrites bytes — it only unlinks
//! whole files.
//!
//! ## Group commit
//!
//! [`Wal::append`] writes the frame and assigns the LSN under a short inner
//! lock, then returns *without* syncing. Callers that need durability call
//! [`Wal::sync_to`] **after** releasing whatever engine lock they hold.
//! `sync_to` is absorbing: if another thread's fsync already covered the
//! requested LSN, it returns immediately. Under concurrent writers this
//! collapses many logical syncs into one physical fsync without any of them
//! serializing the engine's catalog lock around the disk.

use crate::config::FsyncPolicy;
use crate::error::{WalError, WalResult};
use crate::record::{decode_frame, encode_body, put_append_body, put_frame, WalRecord};
use aidx_columnstore::types::Value;
use aidx_telemetry::{Histogram, Registry};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const LOG_PREFIX: &str = "wal-";
const LOG_SUFFIX: &str = ".log";

fn log_file_name(first_lsn: u64) -> String {
    // zero-padded so lexicographic order is numeric order
    format!("{LOG_PREFIX}{first_lsn:020}{LOG_SUFFIX}")
}

fn parse_log_file_name(name: &str) -> Option<u64> {
    name.strip_prefix(LOG_PREFIX)?
        .strip_suffix(LOG_SUFFIX)?
        .parse()
        .ok()
}

/// Sorted `(first_lsn, path)` list of the log files in `dir`.
fn list_log_files(dir: &Path) -> WalResult<Vec<(u64, PathBuf)>> {
    let mut files = Vec::new();
    let entries = fs::read_dir(dir)
        .map_err(|e| WalError::io(format!("read log directory {}", dir.display()), &e))?;
    for entry in entries {
        let entry =
            entry.map_err(|e| WalError::io(format!("read log directory {}", dir.display()), &e))?;
        let name = entry.file_name();
        if let Some(first_lsn) = name.to_str().and_then(parse_log_file_name) {
            files.push((first_lsn, entry.path()));
        }
    }
    files.sort();
    Ok(files)
}

fn fsync_dir(dir: &Path) {
    // Directory fsync makes renames/creates durable on POSIX; treat failure
    // as best-effort (some filesystems reject it) — the data files
    // themselves are synced separately.
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// The result of scanning a log directory: every valid record past
/// `from_lsn`, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct LogReplay {
    /// Replayable `(lsn, record)` pairs in LSN order.
    pub records: Vec<(u64, WalRecord)>,
    /// Highest valid LSN seen anywhere in the log (including records at or
    /// below `from_lsn`); `None` for an empty log.
    pub last_lsn: Option<u64>,
    /// Bytes of torn or corrupt tail that were ignored, if any, with the
    /// file they were found in. Corruption anywhere *before* the tail of
    /// the newest file is an error instead — it means acknowledged history
    /// is unreadable.
    pub truncated_tail: Option<(PathBuf, u64)>,
}

/// Read every record with `lsn > from_lsn` from the log directory `dir`.
///
/// Total over arbitrary directory contents: a torn or corrupt tail of the
/// *newest* file reads as a clean end-of-log (reported in
/// [`LogReplay::truncated_tail`]), because a crash can only tear the last
/// write. The same damage in an older, sealed file is a hard
/// [`WalError::Corrupt`] — that history was acknowledged and is gone.
pub fn read_log(dir: &Path, from_lsn: u64) -> WalResult<LogReplay> {
    let files = list_log_files(dir)?;
    let mut replay = LogReplay {
        records: Vec::new(),
        last_lsn: None,
        truncated_tail: None,
    };
    let last_index = files.len().saturating_sub(1);
    for (index, (first_lsn, path)) in files.iter().enumerate() {
        let bytes = fs::read(path)
            .map_err(|e| WalError::io(format!("read log file {}", path.display()), &e))?;
        let mut offset = 0usize;
        let mut expected = *first_lsn;
        while offset < bytes.len() {
            let verdict = decode_frame(&bytes[offset..]);
            let tail_of_newest = index == last_index;
            match verdict {
                Ok(Some((record, lsn, consumed))) => {
                    if lsn != expected {
                        return Err(WalError::corrupt(
                            offset as u64,
                            format!(
                                "lsn gap in {}: expected {expected}, found {lsn}",
                                path.display()
                            ),
                        ));
                    }
                    expected = lsn + 1;
                    replay.last_lsn = Some(lsn);
                    if lsn > from_lsn {
                        replay.records.push((lsn, record));
                    }
                    offset += consumed;
                }
                Ok(None) => {
                    // incomplete frame at the end of the buffer
                    if tail_of_newest {
                        replay.truncated_tail = Some((path.clone(), (bytes.len() - offset) as u64));
                        break;
                    }
                    return Err(WalError::corrupt(
                        offset as u64,
                        format!("torn frame inside sealed log file {}", path.display()),
                    ));
                }
                Err(WalError::Corrupt { offset: at, reason }) => {
                    if tail_of_newest {
                        // A corrupt frame in the active file's tail is a torn
                        // write (e.g. length landed but payload didn't):
                        // everything from here on is discarded.
                        replay.truncated_tail = Some((path.clone(), (bytes.len() - offset) as u64));
                        break;
                    }
                    return Err(WalError::corrupt(
                        offset as u64 + at,
                        format!("in sealed log file {}: {reason}", path.display()),
                    ));
                }
                Err(other) => return Err(other),
            }
        }
    }
    Ok(replay)
}

/// Counters describing the work a [`Wal`] has done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStatsSnapshot {
    /// Records appended (a batch is one record).
    pub records_appended: u64,
    /// Rows covered by appended `Append` records.
    pub rows_appended: u64,
    /// Physical fsyncs performed.
    pub fsyncs: u64,
    /// Logical sync requests absorbed by another thread's fsync.
    pub fsyncs_absorbed: u64,
    /// File rotations (one per checkpoint).
    pub rotations: u64,
}

struct WalInner {
    file: File,
    path: PathBuf,
    next_lsn: u64,
    /// appends since the last sync decision (for `EveryN`)
    appends_since_sync: u32,
    /// rows since the last sync decision (for `OnSeal`)
    rows_since_sync: u64,
    /// the frame being appended, reused so an append allocates nothing
    frame: Vec<u8>,
}

struct Stats {
    records_appended: AtomicU64,
    rows_appended: AtomicU64,
    fsyncs: AtomicU64,
    fsyncs_absorbed: AtomicU64,
    rotations: AtomicU64,
}

/// Latency instruments the log records into when the engine attaches its
/// telemetry registry: append (buffered write + LSN assignment), physical
/// fsync, and absorbed sync (a logical sync another thread's fsync covered
/// — the group-commit win, measured as the wait it actually cost).
#[derive(Debug, Clone)]
pub struct WalTelemetry {
    /// Shared master switch; one relaxed load per append when attached.
    enabled: Arc<AtomicBool>,
    append_ns: Arc<Histogram>,
    fsync_ns: Arc<Histogram>,
    absorbed_sync_ns: Arc<Histogram>,
}

impl WalTelemetry {
    /// Register the WAL's instruments on `registry`. `enabled` is shared
    /// with the engine's master telemetry switch, so flipping telemetry off
    /// stops the WAL's clocks too.
    pub fn register(registry: &Registry, enabled: Arc<AtomicBool>) -> Self {
        WalTelemetry {
            enabled,
            append_ns: registry.histogram("wal.append_ns"),
            fsync_ns: registry.histogram("wal.fsync_ns"),
            absorbed_sync_ns: registry.histogram("wal.absorbed_sync_ns"),
        }
    }

    fn clock(&self) -> Option<Instant> {
        self.enabled.load(Ordering::Relaxed).then(Instant::now)
    }
}

/// The write-ahead log writer.
///
/// Thread-safe: appends serialize on a short internal lock; fsyncs happen on
/// a separate lock so a slow disk never blocks the append path longer than a
/// buffered write.
pub struct Wal {
    dir: PathBuf,
    policy: FsyncPolicy,
    /// `OnSeal` threshold: sync when this many rows accumulate unsynced.
    seal_rows: u64,
    inner: Mutex<WalInner>,
    /// Highest LSN written to the OS (buffered, not necessarily durable).
    last_written_lsn: AtomicU64,
    /// Highest LSN known durable. `sync_to` compares against this first.
    synced_lsn: AtomicU64,
    /// Held only while fsyncing; a clone of the active file handle.
    sync_file: Mutex<File>,
    stats: Stats,
    /// Latency instruments, when the engine attached its registry.
    telemetry: Option<WalTelemetry>,
}

/// `u64` sentinel for "no LSN yet" in the atomics (LSNs start at 1).
const NO_LSN: u64 = 0;

impl Wal {
    /// Open (or create) the log in `dir`.
    ///
    /// Scans existing files to find the next LSN; if the newest file has a
    /// torn tail the file is truncated to its last valid frame so the next
    /// append starts on a clean boundary.
    ///
    /// `seal_rows` is the `OnSeal` sync threshold, normally the engine's
    /// segment capacity.
    pub fn open(dir: &Path, policy: FsyncPolicy, seal_rows: u64) -> WalResult<Self> {
        fs::create_dir_all(dir)
            .map_err(|e| WalError::io(format!("create log directory {}", dir.display()), &e))?;
        let replay = read_log(dir, u64::MAX)?;
        let next_lsn = replay.last_lsn.map_or(1, |lsn| lsn + 1);
        if let Some((path, torn_bytes)) = &replay.truncated_tail {
            let len = fs::metadata(path)
                .map_err(|e| WalError::io(format!("stat log file {}", path.display()), &e))?
                .len();
            let file = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| WalError::io(format!("open log file {}", path.display()), &e))?;
            file.set_len(len - torn_bytes).map_err(|e| {
                WalError::io(format!("truncate torn tail of {}", path.display()), &e)
            })?;
            file.sync_all()
                .map_err(|e| WalError::io(format!("sync log file {}", path.display()), &e))?;
        }
        let files = list_log_files(dir)?;
        let path = match files.last() {
            // resume the newest file only if its LSN run reaches next_lsn
            // (it always does after tail truncation above)
            Some((_, path)) => path.clone(),
            None => dir.join(log_file_name(next_lsn)),
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| WalError::io(format!("open log file {}", path.display()), &e))?;
        if files.is_empty() {
            fsync_dir(dir);
        }
        let sync_file = file
            .try_clone()
            .map_err(|e| WalError::io(format!("clone handle for {}", path.display()), &e))?;
        let last = next_lsn - 1;
        Ok(Wal {
            dir: dir.to_path_buf(),
            policy,
            seal_rows: seal_rows.max(1),
            inner: Mutex::new(WalInner {
                file,
                path,
                next_lsn,
                appends_since_sync: 0,
                rows_since_sync: 0,
                frame: Vec::new(),
            }),
            // everything already on disk at open is considered durable
            last_written_lsn: AtomicU64::new(if last == 0 { NO_LSN } else { last }),
            synced_lsn: AtomicU64::new(if last == 0 { NO_LSN } else { last }),
            sync_file: Mutex::new(sync_file),
            stats: Stats {
                records_appended: AtomicU64::new(0),
                rows_appended: AtomicU64::new(0),
                fsyncs: AtomicU64::new(0),
                fsyncs_absorbed: AtomicU64::new(0),
                rotations: AtomicU64::new(0),
            },
            telemetry: None,
        })
    }

    /// Attach latency instruments (see [`WalTelemetry`]). Called once by
    /// the engine right after opening the log, before any concurrent use.
    pub fn set_telemetry(&mut self, telemetry: WalTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Append one record, returning `(lsn, lsn_to_sync)`.
    ///
    /// The record is written (buffered) to the OS before this returns, so a
    /// caller that applies the change to memory afterwards preserves
    /// write-ahead ordering. `lsn_to_sync` is `Some(lsn)` when the fsync
    /// policy wants durability now — the caller should pass it to
    /// [`Wal::sync_to`] *after* releasing its own locks.
    pub fn append(&self, record: &WalRecord) -> WalResult<(u64, Option<u64>)> {
        let rows = match record {
            WalRecord::Append { rows, .. } => rows.len() as u64,
            _ => 0,
        };
        self.append_frame(rows, |out| encode_body(record, out))
    }

    /// Append the `Append` record of `rows` to `table`, encoded straight
    /// from the borrowed rows: the same bytes as [`Wal::append`] of a
    /// [`WalRecord::Append`] holding them, without first copying every row
    /// into one.
    pub fn append_rows(&self, table: &str, rows: &[Vec<Value>]) -> WalResult<(u64, Option<u64>)> {
        self.append_frame(rows.len() as u64, |out| put_append_body(out, table, rows))
    }

    /// Encode one frame into the reused buffer under the append lock, write
    /// it, and apply the fsync policy; `rows` feeds the row counters.
    fn append_frame(
        &self,
        rows: u64,
        body: impl FnOnce(&mut Vec<u8>),
    ) -> WalResult<(u64, Option<u64>)> {
        let clock = self.telemetry.as_ref().and_then(WalTelemetry::clock);
        let mut guard = self.inner.lock().expect("wal lock poisoned");
        let inner = &mut *guard;
        let lsn = inner.next_lsn;
        put_frame(&mut inner.frame, lsn, body);
        inner
            .file
            .write_all(&inner.frame)
            .map_err(|e| WalError::io(format!("append to {}", inner.path.display()), &e))?;
        inner.next_lsn = lsn + 1;
        inner.appends_since_sync += 1;
        inner.rows_since_sync += rows.max(1);
        let wants_sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => inner.appends_since_sync >= n,
            FsyncPolicy::OnSeal => inner.rows_since_sync >= self.seal_rows,
        };
        if wants_sync {
            inner.appends_since_sync = 0;
            inner.rows_since_sync = 0;
        }
        drop(guard);
        self.last_written_lsn.store(lsn, Ordering::Release);
        self.stats.records_appended.fetch_add(1, Ordering::Relaxed);
        self.stats.rows_appended.fetch_add(rows, Ordering::Relaxed);
        if let (Some(t), Some(started)) = (&self.telemetry, clock) {
            t.append_ns.record_duration(started.elapsed());
        }
        Ok((lsn, wants_sync.then_some(lsn)))
    }

    /// Make everything up to `lsn` durable. Absorbing: returns without an
    /// fsync if a concurrent call already covered `lsn` (group commit).
    pub fn sync_to(&self, lsn: u64) -> WalResult<()> {
        let clock = self.telemetry.as_ref().and_then(WalTelemetry::clock);
        if self.synced_lsn.load(Ordering::Acquire) >= lsn {
            self.stats.fsyncs_absorbed.fetch_add(1, Ordering::Relaxed);
            if let (Some(t), Some(started)) = (&self.telemetry, clock) {
                t.absorbed_sync_ns.record_duration(started.elapsed());
            }
            return Ok(());
        }
        let file = self.sync_file.lock().expect("wal sync lock poisoned");
        // re-check: the previous holder may have covered us while we waited
        if self.synced_lsn.load(Ordering::Acquire) >= lsn {
            self.stats.fsyncs_absorbed.fetch_add(1, Ordering::Relaxed);
            if let (Some(t), Some(started)) = (&self.telemetry, clock) {
                t.absorbed_sync_ns.record_duration(started.elapsed());
            }
            return Ok(());
        }
        // everything written before this fsync becomes durable with it
        let covered = self.last_written_lsn.load(Ordering::Acquire);
        file.sync_data()
            .map_err(|e| WalError::io("fsync log", &e))?;
        self.synced_lsn.fetch_max(covered, Ordering::AcqRel);
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        if let (Some(t), Some(started)) = (&self.telemetry, clock) {
            t.fsync_ns.record_duration(started.elapsed());
        }
        Ok(())
    }

    /// Make every appended record durable (used before a checkpoint and on
    /// clean shutdown).
    pub fn sync(&self) -> WalResult<()> {
        let last = self.last_written_lsn.load(Ordering::Acquire);
        if last == NO_LSN {
            return Ok(());
        }
        self.sync_to(last)
    }

    /// The LSN of the most recently appended record (`None` if the log is
    /// empty and nothing has been appended).
    pub fn last_lsn(&self) -> Option<u64> {
        match self.last_written_lsn.load(Ordering::Acquire) {
            NO_LSN => None,
            lsn => Some(lsn),
        }
    }

    /// Drop log history at or below `checkpoint_lsn`: rotate to a fresh file
    /// and unlink every sealed file whose records are all covered by the
    /// checkpoint. Called after a checkpoint manifest is durable.
    pub fn truncate_through(&self, checkpoint_lsn: u64) -> WalResult<()> {
        self.sync()?;
        let mut inner = self.inner.lock().expect("wal lock poisoned");
        let mut sync_file = self.sync_file.lock().expect("wal sync lock poisoned");
        // rotate: seal the active file, start a new one at next_lsn
        let new_path = self.dir.join(log_file_name(inner.next_lsn));
        if new_path != inner.path {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&new_path)
                .map_err(|e| WalError::io(format!("open log file {}", new_path.display()), &e))?;
            let clone = file.try_clone().map_err(|e| {
                WalError::io(format!("clone handle for {}", new_path.display()), &e)
            })?;
            inner.file = file;
            inner.path = new_path;
            *sync_file = clone;
            self.stats.rotations.fetch_add(1, Ordering::Relaxed);
        }
        drop(sync_file);
        drop(inner);
        fsync_dir(&self.dir);
        // delete sealed files fully covered by the checkpoint: a file ends
        // where the next one begins
        let files = list_log_files(&self.dir)?;
        for window in files.windows(2) {
            let (_, ref path) = window[0];
            let (next_first, _) = window[1];
            if next_first > 0 && next_first - 1 <= checkpoint_lsn {
                fs::remove_file(path)
                    .map_err(|e| WalError::io(format!("remove log file {}", path.display()), &e))?;
            }
        }
        fsync_dir(&self.dir);
        Ok(())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WalStatsSnapshot {
        WalStatsSnapshot {
            records_appended: self.stats.records_appended.load(Ordering::Relaxed),
            rows_appended: self.stats.rows_appended.load(Ordering::Relaxed),
            fsyncs: self.stats.fsyncs.load(Ordering::Relaxed),
            fsyncs_absorbed: self.stats.fsyncs_absorbed.load(Ordering::Relaxed),
            rotations: self.stats.rotations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> Self {
            let path = std::env::temp_dir().join(format!(
                "aidx-wal-log-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                let _ = fs::remove_dir_all(&self.0);
            }
        }
    }

    fn append_record(i: i64) -> WalRecord {
        WalRecord::Append {
            table: "t".into(),
            rows: vec![vec![Value::Int64(i)]],
        }
    }

    #[test]
    fn append_read_round_trip_across_reopen() {
        let dir = TempDir::new();
        {
            let wal = Wal::open(&dir.0, FsyncPolicy::Always, 4).unwrap();
            for i in 0..10 {
                let (lsn, to_sync) = wal.append(&append_record(i)).unwrap();
                assert_eq!(lsn, i as u64 + 1);
                assert_eq!(to_sync, Some(lsn), "Always syncs every append");
                wal.sync_to(lsn).unwrap();
            }
            assert_eq!(wal.last_lsn(), Some(10));
            assert!(wal.stats().fsyncs >= 1);
        }
        let replay = read_log(&dir.0, 0).unwrap();
        assert_eq!(replay.records.len(), 10);
        assert_eq!(replay.last_lsn, Some(10));
        assert!(replay.truncated_tail.is_none());
        // from_lsn filters
        assert_eq!(read_log(&dir.0, 7).unwrap().records.len(), 3);
        // reopen continues the LSN sequence
        let wal = Wal::open(&dir.0, FsyncPolicy::Always, 4).unwrap();
        let (lsn, _) = wal.append(&append_record(10)).unwrap();
        assert_eq!(lsn, 11);
    }

    #[test]
    fn every_n_policy_requests_sync_on_schedule() {
        let dir = TempDir::new();
        let wal = Wal::open(&dir.0, FsyncPolicy::EveryN(3), 4).unwrap();
        let mut requested = Vec::new();
        for i in 0..7 {
            let (lsn, to_sync) = wal.append(&append_record(i)).unwrap();
            if let Some(sync_lsn) = to_sync {
                assert_eq!(sync_lsn, lsn);
                requested.push(lsn);
            }
        }
        assert_eq!(requested, vec![3, 6]);
    }

    #[test]
    fn on_seal_policy_counts_rows() {
        let dir = TempDir::new();
        let wal = Wal::open(&dir.0, FsyncPolicy::OnSeal, 4).unwrap();
        let batch = WalRecord::Append {
            table: "t".into(),
            rows: (0..3).map(|i| vec![Value::Int64(i)]).collect(),
        };
        let (_, first) = wal.append(&batch).unwrap();
        assert_eq!(first, None, "3 of 4 rows accumulated");
        let (lsn, second) = wal.append(&batch).unwrap();
        assert_eq!(second, Some(lsn), "6 rows crossed the 4-row seal line");
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = TempDir::new();
        {
            let wal = Wal::open(&dir.0, FsyncPolicy::Always, 4).unwrap();
            for i in 0..5 {
                wal.append(&append_record(i)).unwrap();
            }
            wal.sync().unwrap();
        }
        // tear the last frame
        let (_, path) = list_log_files(&dir.0).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let replay = read_log(&dir.0, 0).unwrap();
        assert_eq!(replay.records.len(), 4);
        assert!(replay.truncated_tail.is_some());
        // opening truncates and reuses LSN 5
        let wal = Wal::open(&dir.0, FsyncPolicy::Always, 4).unwrap();
        assert_eq!(wal.last_lsn(), Some(4));
        let (lsn, _) = wal.append(&append_record(99)).unwrap();
        assert_eq!(lsn, 5);
        wal.sync().unwrap();
        drop(wal);
        let replay = read_log(&dir.0, 0).unwrap();
        assert_eq!(replay.records.len(), 5);
        assert!(replay.truncated_tail.is_none());
    }

    #[test]
    fn corrupt_tail_reads_as_clean_eof() {
        let dir = TempDir::new();
        {
            let wal = Wal::open(&dir.0, FsyncPolicy::Always, 4).unwrap();
            for i in 0..3 {
                wal.append(&append_record(i)).unwrap();
            }
            wal.sync().unwrap();
        }
        let (_, path) = list_log_files(&dir.0).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0xFF; // flip a bit inside the last payload
        fs::write(&path, &bytes).unwrap();
        let replay = read_log(&dir.0, 0).unwrap();
        assert_eq!(replay.records.len(), 2, "last record discarded");
        assert!(replay.truncated_tail.is_some());
    }

    #[test]
    fn truncate_through_rotates_and_unlinks() {
        let dir = TempDir::new();
        let wal = Wal::open(&dir.0, FsyncPolicy::OnSeal, 1024).unwrap();
        for i in 0..6 {
            wal.append(&append_record(i)).unwrap();
        }
        wal.truncate_through(6).unwrap();
        // old file gone, new (empty) file present
        let files = list_log_files(&dir.0).unwrap();
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].0, 7);
        assert_eq!(wal.stats().rotations, 1);
        // appends continue at LSN 7 and survive reopen
        let (lsn, _) = wal.append(&append_record(6)).unwrap();
        assert_eq!(lsn, 7);
        wal.sync().unwrap();
        drop(wal);
        let replay = read_log(&dir.0, 0).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].0, 7);
    }

    #[test]
    fn truncate_through_keeps_uncovered_files() {
        let dir = TempDir::new();
        let wal = Wal::open(&dir.0, FsyncPolicy::OnSeal, 1024).unwrap();
        for i in 0..4 {
            wal.append(&append_record(i)).unwrap();
        }
        // checkpoint only covered LSN 2: the first file (LSNs 1..=4) must stay
        wal.truncate_through(2).unwrap();
        let files = list_log_files(&dir.0).unwrap();
        assert_eq!(files.len(), 2, "sealed file retained, new file opened");
        let replay = read_log(&dir.0, 2).unwrap();
        assert_eq!(replay.records.len(), 2, "records 3 and 4 still replayable");
    }

    #[test]
    fn group_commit_absorbs_concurrent_syncs() {
        let dir = TempDir::new();
        let wal = std::sync::Arc::new(Wal::open(&dir.0, FsyncPolicy::Always, 4).unwrap());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let wal = std::sync::Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        let (lsn, to_sync) = wal.append(&append_record(t * 100 + i)).unwrap();
                        wal.sync_to(to_sync.unwrap_or(lsn)).unwrap();
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.records_appended, 100);
        drop(wal);
        let replay = read_log(&dir.0, 0).unwrap();
        assert_eq!(replay.records.len(), 100);
        assert_eq!(replay.last_lsn, Some(100));
    }
}
