//! Chunk-granular checkpoints: write-once table snapshots plus a
//! manifest-last commit protocol.
//!
//! A checkpoint is a directory `ckpt-<seq>/` holding one `t<i>.tbl` file per
//! table and a `MANIFEST` describing them. The manifest is written **last**,
//! after every table file is fsynced; a checkpoint without a complete,
//! checksum-valid manifest does not exist as far as recovery is concerned.
//! A crash at any point mid-checkpoint therefore leaves either the previous
//! checkpoint (plus a junk directory the next successful checkpoint prunes)
//! or the new one — never a half state.
//!
//! Because sealed chunks are immutable, the table files are plain dense
//! dumps: per column the sealed chunk lengths (so recovery reproduces the
//! exact chunk layout, which the maintenance subsystem's fill/slack
//! accounting depends on) followed by the values. Adaptive index state is
//! deliberately absent — cracking re-derives it from queries.

use crate::crc::crc32;
use crate::error::{WalError, WalResult};
use crate::record::{data_type_from_tag, data_type_tag, put_str, put_u32, put_u64, Reader};
use aidx_columnstore::column::{Column, Dictionary};
use aidx_columnstore::segment::Segment;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::DataType;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MANIFEST_MAGIC: &[u8; 8] = b"AIDXCKP1";
const TABLE_MAGIC: &[u8; 8] = b"AIDXTBL1";
const MANIFEST_NAME: &str = "MANIFEST";
const CKPT_PREFIX: &str = "ckpt-";

fn checkpoint_dir_name(seq: u64) -> String {
    format!("{CKPT_PREFIX}{seq:010}")
}

fn parse_checkpoint_dir_name(name: &str) -> Option<u64> {
    name.strip_prefix(CKPT_PREFIX)?.parse().ok()
}

/// One table to include in a checkpoint, captured atomically from the
/// catalog (the `Arc` is the catalog's own sealed snapshot — writing a
/// checkpoint copies no chunk data until serialization).
#[derive(Debug, Clone)]
pub struct CheckpointTable {
    /// Table name.
    pub name: String,
    /// The table's structural epoch at capture time.
    pub epoch: u64,
    /// The captured table snapshot.
    pub table: Arc<Table>,
}

/// A fully parsed, checksum-verified checkpoint.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// Sequence number of the checkpoint directory.
    pub seq: u64,
    /// Every log record with `lsn <= lsn` is reflected in the tables.
    pub lsn: u64,
    /// The catalog's epoch counter at capture time; recovery bumps the
    /// fresh catalog at least this far so post-restart epochs never collide
    /// with persisted ones.
    pub next_epoch: u64,
    /// `(name, rebuilt table, epoch)` for every persisted table.
    pub tables: Vec<(String, Table, u64)>,
}

// ---------------------------------------------------------------------------
// writing

fn write_file_durably(path: &Path, bytes: &[u8]) -> WalResult<()> {
    fs::write(path, bytes).map_err(|e| WalError::io(format!("write {}", path.display()), &e))?;
    File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| WalError::io(format!("sync {}", path.display()), &e))?;
    Ok(())
}

fn fsync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

fn encode_segment_data<T: Copy + PartialOrd + std::fmt::Debug>(
    out: &mut Vec<u8>,
    segment: &Segment<T>,
    put: impl Fn(&mut Vec<u8>, T),
) {
    let lens = segment.sealed_chunk_lens();
    put_u32(out, lens.len() as u32);
    for len in lens {
        put_u64(out, len as u64);
    }
    for value in segment.iter() {
        put(out, value);
    }
}

fn encode_table(table: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(TABLE_MAGIC);
    let schema = table.schema();
    put_u32(&mut out, schema.arity() as u32);
    for field in schema.fields() {
        put_str(&mut out, field.name());
        out.push(data_type_tag(field.data_type()));
    }
    put_u64(&mut out, table.row_count() as u64);
    put_u64(&mut out, table.segment_capacity() as u64);
    for index in 0..schema.arity() {
        let column = table.column_at(index).expect("column within arity");
        match column {
            Column::Int64(segment) => {
                encode_segment_data(&mut out, segment, |b, v| put_u64(b, v as u64));
            }
            Column::Float64(segment) => {
                encode_segment_data(&mut out, segment, |b, v| put_u64(b, v.to_bits()));
            }
            Column::Utf8 { codes, dictionary } => {
                encode_segment_data(&mut out, codes, put_u32);
                put_u32(&mut out, dictionary.len() as u32);
                for code in 0..dictionary.len() as u32 {
                    put_str(&mut out, dictionary.decode(code).expect("dense codes"));
                }
            }
        }
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

fn encode_manifest(lsn: u64, next_epoch: u64, tables: &[(String, u64, String)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MANIFEST_MAGIC);
    put_u64(&mut out, lsn);
    put_u64(&mut out, next_epoch);
    put_u32(&mut out, tables.len() as u32);
    for (name, epoch, file) in tables {
        put_str(&mut out, name);
        put_u64(&mut out, *epoch);
        put_str(&mut out, file);
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Write checkpoint `seq` covering log records up to `lsn`.
///
/// Protocol: create `ckpt-<seq>/`, write and fsync every table file, then
/// write and fsync the manifest, then fsync the parent directory. On
/// success, prune every older checkpoint directory (complete or junk).
/// Returns the checkpoint directory path.
pub fn write_checkpoint(
    dir: &Path,
    seq: u64,
    lsn: u64,
    next_epoch: u64,
    tables: &[CheckpointTable],
) -> WalResult<PathBuf> {
    fs::create_dir_all(dir)
        .map_err(|e| WalError::io(format!("create checkpoint directory {}", dir.display()), &e))?;
    let ckpt_dir = dir.join(checkpoint_dir_name(seq));
    // a leftover directory from a crashed attempt at the same seq is junk
    if ckpt_dir.exists() {
        fs::remove_dir_all(&ckpt_dir)
            .map_err(|e| WalError::io(format!("clear stale {}", ckpt_dir.display()), &e))?;
    }
    fs::create_dir_all(&ckpt_dir)
        .map_err(|e| WalError::io(format!("create {}", ckpt_dir.display()), &e))?;
    let mut manifest_entries = Vec::with_capacity(tables.len());
    for (index, entry) in tables.iter().enumerate() {
        let file_name = format!("t{index}.tbl");
        write_file_durably(&ckpt_dir.join(&file_name), &encode_table(&entry.table))?;
        manifest_entries.push((entry.name.clone(), entry.epoch, file_name));
    }
    write_file_durably(
        &ckpt_dir.join(MANIFEST_NAME),
        &encode_manifest(lsn, next_epoch, &manifest_entries),
    )?;
    fsync_dir(&ckpt_dir);
    fsync_dir(dir);
    // the new checkpoint is durable; everything older is garbage
    for (old_seq, path) in list_checkpoint_dirs(dir)? {
        if old_seq < seq {
            fs::remove_dir_all(&path)
                .map_err(|e| WalError::io(format!("prune {}", path.display()), &e))?;
        }
    }
    Ok(ckpt_dir)
}

// ---------------------------------------------------------------------------
// reading

fn list_checkpoint_dirs(dir: &Path) -> WalResult<Vec<(u64, PathBuf)>> {
    let mut dirs = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(dirs),
        Err(e) => {
            return Err(WalError::io(
                format!("read checkpoint directory {}", dir.display()),
                &e,
            ))
        }
    };
    for entry in entries {
        let entry = entry.map_err(|e| {
            WalError::io(format!("read checkpoint directory {}", dir.display()), &e)
        })?;
        let name = entry.file_name();
        if let Some(seq) = name.to_str().and_then(parse_checkpoint_dir_name) {
            dirs.push((seq, entry.path()));
        }
    }
    dirs.sort();
    Ok(dirs)
}

fn decode_segment_i64(
    reader: &mut Reader<'_>,
    rows: usize,
    lens: &[usize],
    capacity: usize,
    persisted_capacity: usize,
) -> WalResult<Segment<i64>> {
    let mut values = Vec::with_capacity(rows.min(1 << 20));
    for _ in 0..rows {
        values.push(reader.u64("int64 cell")? as i64);
    }
    Ok(rebuild_segment(values, lens, capacity, persisted_capacity))
}

fn decode_segment_f64(
    reader: &mut Reader<'_>,
    rows: usize,
    lens: &[usize],
    capacity: usize,
    persisted_capacity: usize,
) -> WalResult<Segment<f64>> {
    let mut values = Vec::with_capacity(rows.min(1 << 20));
    for _ in 0..rows {
        values.push(f64::from_bits(reader.u64("float64 cell")?));
    }
    Ok(rebuild_segment(values, lens, capacity, persisted_capacity))
}

fn decode_segment_u32(
    reader: &mut Reader<'_>,
    rows: usize,
    lens: &[usize],
    capacity: usize,
    persisted_capacity: usize,
) -> WalResult<Segment<u32>> {
    let mut values = Vec::with_capacity(rows.min(1 << 20));
    for _ in 0..rows {
        values.push(reader.u32("utf8 code")?);
    }
    Ok(rebuild_segment(values, lens, capacity, persisted_capacity))
}

/// Rebuild a segment from dense values. When the target capacity matches
/// the persisted one, seal at the recorded chunk boundaries so the layout
/// (including undersized chunks awaiting compaction) survives the restart;
/// rows past the last recorded boundary stay in the mutable tail. When the
/// capacities differ (the database was reopened with a different
/// `segment_capacity`), re-chunk naturally at the new capacity.
fn rebuild_segment<T: Copy + PartialOrd + std::fmt::Debug>(
    values: Vec<T>,
    lens: &[usize],
    capacity: usize,
    persisted_capacity: usize,
) -> Segment<T> {
    let mut segment = Segment::with_chunk_capacity(capacity);
    if capacity == persisted_capacity {
        let mut offset = 0;
        for &len in lens {
            segment.extend_from_slice(&values[offset..offset + len]);
            segment.seal_tail();
            offset += len;
        }
        segment.extend_from_slice(&values[offset..]);
    } else {
        segment.extend_from_slice(&values);
    }
    segment
}

fn read_chunk_lens(
    reader: &mut Reader<'_>,
    rows: usize,
    persisted_capacity: usize,
) -> WalResult<Vec<usize>> {
    let n_sealed = reader.u32("sealed chunk count")? as usize;
    let mut lens = Vec::with_capacity(n_sealed.min(1 << 20));
    let mut total = 0usize;
    for _ in 0..n_sealed {
        let len = reader.u64("chunk length")? as usize;
        if len == 0 || len > persisted_capacity {
            return Err(WalError::corrupt(
                reader.offset(),
                format!("impossible chunk length {len} (capacity {persisted_capacity})"),
            ));
        }
        total += len;
        lens.push(len);
    }
    if total > rows {
        return Err(WalError::corrupt(
            reader.offset(),
            format!("sealed chunk lengths sum to {total} but the table has {rows} rows"),
        ));
    }
    Ok(lens)
}

fn decode_table(bytes: &[u8], target_capacity: usize) -> WalResult<Table> {
    if bytes.len() < 4 {
        return Err(WalError::corrupt(0, "table file shorter than its checksum"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let expected = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != expected {
        return Err(WalError::corrupt(0, "table file checksum mismatch"));
    }
    let mut reader = Reader::new(body);
    if reader.take(8, "table magic")? != TABLE_MAGIC {
        return Err(WalError::corrupt(0, "bad table file magic"));
    }
    let arity = reader.u32("arity")? as usize;
    let mut fields = Vec::with_capacity(arity.min(1024));
    for _ in 0..arity {
        let name = reader.str("column name")?;
        let tag = reader.u8("column type")?;
        fields.push((name, data_type_from_tag(tag, reader.offset())?));
    }
    let rows = reader.u64("row count")? as usize;
    let persisted_capacity = reader.u64("segment capacity")? as usize;
    if persisted_capacity == 0 {
        return Err(WalError::corrupt(reader.offset(), "zero segment capacity"));
    }
    let mut columns = Vec::with_capacity(arity.min(1024));
    for (name, dtype) in &fields {
        let lens = read_chunk_lens(&mut reader, rows, persisted_capacity)?;
        let column = match dtype {
            DataType::Int64 => Column::Int64(decode_segment_i64(
                &mut reader,
                rows,
                &lens,
                target_capacity,
                persisted_capacity,
            )?),
            DataType::Float64 => Column::Float64(decode_segment_f64(
                &mut reader,
                rows,
                &lens,
                target_capacity,
                persisted_capacity,
            )?),
            DataType::Utf8 => {
                let codes = decode_segment_u32(
                    &mut reader,
                    rows,
                    &lens,
                    target_capacity,
                    persisted_capacity,
                )?;
                let dict_len = reader.u32("dictionary length")? as usize;
                let mut dictionary = Dictionary::new();
                for _ in 0..dict_len {
                    let value = reader.str("dictionary entry")?;
                    dictionary.intern(&value);
                }
                for code in codes.iter() {
                    if code as usize >= dictionary.len() {
                        return Err(WalError::corrupt(
                            reader.offset(),
                            format!("code {code} outside dictionary of {dict_len}"),
                        ));
                    }
                }
                Column::Utf8 {
                    codes,
                    dictionary: Arc::new(dictionary),
                }
            }
        };
        columns.push((name.as_str(), column));
    }
    if !reader.is_exhausted() {
        return Err(WalError::corrupt(
            reader.offset(),
            "trailing bytes after table body",
        ));
    }
    Table::from_columns(columns)
        .map_err(|e| WalError::corrupt(0, format!("inconsistent table file: {e}")))
}

/// A manifest's table entries: `(name, epoch, chunk-file name)`.
type ManifestEntries = Vec<(String, u64, String)>;

fn decode_manifest(bytes: &[u8]) -> WalResult<(u64, u64, ManifestEntries)> {
    if bytes.len() < 4 {
        return Err(WalError::corrupt(0, "manifest shorter than its checksum"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let expected = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != expected {
        return Err(WalError::corrupt(0, "manifest checksum mismatch"));
    }
    let mut reader = Reader::new(body);
    if reader.take(8, "manifest magic")? != MANIFEST_MAGIC {
        return Err(WalError::corrupt(0, "bad manifest magic"));
    }
    let lsn = reader.u64("checkpoint lsn")?;
    let next_epoch = reader.u64("next epoch")?;
    let n_tables = reader.u32("table count")? as usize;
    let mut tables = Vec::with_capacity(n_tables.min(1 << 16));
    for _ in 0..n_tables {
        let name = reader.str("table name")?;
        let epoch = reader.u64("table epoch")?;
        let file = reader.str("table file")?;
        tables.push((name, epoch, file));
    }
    if !reader.is_exhausted() {
        return Err(WalError::corrupt(
            reader.offset(),
            "trailing bytes after manifest body",
        ));
    }
    Ok((lsn, next_epoch, tables))
}

fn try_load_checkpoint(path: &Path, seq: u64, target_capacity: usize) -> Option<LoadedCheckpoint> {
    // Any failure here — missing manifest, bad checksum, truncated table
    // file — means this directory is an incomplete checkpoint (a crash
    // mid-write): skip it and fall back to an older one. The WAL was only
    // truncated after a *successful* checkpoint, so falling back is safe.
    let manifest = fs::read(path.join(MANIFEST_NAME)).ok()?;
    let (lsn, next_epoch, entries) = decode_manifest(&manifest).ok()?;
    let mut tables = Vec::with_capacity(entries.len());
    for (name, epoch, file) in entries {
        let bytes = fs::read(path.join(&file)).ok()?;
        let table = decode_table(&bytes, target_capacity).ok()?;
        tables.push((name, table, epoch));
    }
    Some(LoadedCheckpoint {
        seq,
        lsn,
        next_epoch,
        tables,
    })
}

/// Load the newest *complete* checkpoint under `dir`, rebuilding tables at
/// `target_capacity` (layout is preserved exactly when it matches the
/// persisted capacity). Returns `Ok(None)` when no complete checkpoint
/// exists — including the fresh-directory case.
pub fn load_latest_checkpoint(
    dir: &Path,
    target_capacity: usize,
) -> WalResult<Option<LoadedCheckpoint>> {
    let mut dirs = list_checkpoint_dirs(dir)?;
    while let Some((seq, path)) = dirs.pop() {
        if let Some(loaded) = try_load_checkpoint(&path, seq, target_capacity) {
            return Ok(Some(loaded));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_columnstore::table::{Field, Schema};
    use aidx_columnstore::types::Value;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> Self {
            let path = std::env::temp_dir().join(format!(
                "aidx-wal-ckpt-{}-{}",
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

    fn sample_table(rows: i64, capacity: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("price", DataType::Float64),
            Field::new("label", DataType::Utf8),
        ]);
        let mut table = Table::new_with_segment_capacity(schema, capacity);
        for i in 0..rows {
            table
                .append_row(&[
                    Value::Int64(i * 3 % 17),
                    Value::Float64(i as f64 / 2.0),
                    Value::Utf8(format!("label-{}", i % 5)),
                ])
                .unwrap();
        }
        table
    }

    fn rows_of(table: &Table) -> Vec<Vec<Value>> {
        (0..table.row_count())
            .map(|row| {
                (0..table.schema().arity())
                    .map(|col| table.column_at(col).unwrap().value_at(row).unwrap())
                    .collect()
            })
            .collect()
    }

    /// The table file of `sample_table(3, 2)`: `k Int64`, `price Float64`,
    /// `label Utf8`, each one sealed two-row chunk and a one-row tail.
    const PINNED_TABLE_FILE: &str = concat!(
        "4149445854424c3103000000010000006b000500000070726963650105000000",
        "6c6162656c020300000000000000020000000000000001000000020000000000",
        "0000000000000000000003000000000000000600000000000000010000000200",
        "0000000000000000000000000000000000000000e03f000000000000f03f0100",
        "0000020000000000000000000000010000000200000003000000070000006c61",
        "62656c2d30070000006c6162656c2d31070000006c6162656c2d322073ba14",
    );

    /// The manifest of that checkpoint: LSN 42, next epoch 7, `orders` at
    /// epoch 5 in `t0.tbl`.
    const PINNED_MANIFEST: &str = concat!(
        "41494458434b50312a0000000000000007000000000000000100000006000000",
        "6f726465727305000000000000000600000074302e74626cc9f398f2",
    );

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A three-column table file and its manifest, byte for byte as every
    /// checkpoint written so far holds them. A change to either string is a
    /// format change: a checkpoint written before it would no longer load.
    #[test]
    fn table_file_and_manifest_bytes_are_pinned() {
        let dir = TempDir::new();
        // one sealed two-row chunk and a one-row tail per column
        let entry = CheckpointTable {
            name: "orders".into(),
            epoch: 5,
            table: Arc::new(sample_table(3, 2)),
        };
        let ckpt = write_checkpoint(&dir.0, 1, 42, 7, &[entry]).unwrap();
        let read = |file: &str| hex(&fs::read(ckpt.join(file)).unwrap());
        assert_eq!(read("t0.tbl"), PINNED_TABLE_FILE);
        assert_eq!(read(MANIFEST_NAME), PINNED_MANIFEST);
    }

    #[test]
    fn checkpoint_round_trip_preserves_rows_layout_and_epochs() {
        let dir = TempDir::new();
        let table = sample_table(37, 8); // 4 sealed chunks + 5-row tail
        let entry = CheckpointTable {
            name: "orders".into(),
            epoch: 12,
            table: Arc::new(table.clone()),
        };
        write_checkpoint(&dir.0, 3, 99, 15, &[entry]).unwrap();
        let loaded = load_latest_checkpoint(&dir.0, 8).unwrap().unwrap();
        assert_eq!((loaded.seq, loaded.lsn, loaded.next_epoch), (3, 99, 15));
        assert_eq!(loaded.tables.len(), 1);
        let (name, rebuilt, epoch) = &loaded.tables[0];
        assert_eq!(name, "orders");
        assert_eq!(*epoch, 12);
        assert_eq!(rows_of(rebuilt), rows_of(&table));
        assert_eq!(rebuilt.segment_capacity(), 8);
        for col in 0..3 {
            assert_eq!(
                rebuilt.column_at(col).unwrap().sealed_chunk_lens(),
                table.column_at(col).unwrap().sealed_chunk_lens(),
                "column {col} chunk layout"
            );
        }
    }

    #[test]
    fn capacity_mismatch_rechunks_without_losing_rows() {
        let dir = TempDir::new();
        let table = sample_table(20, 8);
        let entry = CheckpointTable {
            name: "t".into(),
            epoch: 1,
            table: Arc::new(table.clone()),
        };
        write_checkpoint(&dir.0, 1, 5, 2, &[entry]).unwrap();
        let loaded = load_latest_checkpoint(&dir.0, 4).unwrap().unwrap();
        let (_, rebuilt, _) = &loaded.tables[0];
        assert_eq!(rows_of(rebuilt), rows_of(&table));
        assert_eq!(rebuilt.segment_capacity(), 4);
    }

    #[test]
    fn undersized_chunks_survive_the_round_trip() {
        let dir = TempDir::new();
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
        let mut table = Table::new_with_segment_capacity(schema, 8);
        for i in 0..3 {
            table.append_row(&[Value::Int64(i)]).unwrap();
        }
        table.seal_tails(); // one undersized 3-row chunk
        for i in 3..5 {
            table.append_row(&[Value::Int64(i)]).unwrap();
        }
        let entry = CheckpointTable {
            name: "t".into(),
            epoch: 1,
            table: Arc::new(table.clone()),
        };
        write_checkpoint(&dir.0, 1, 1, 2, &[entry]).unwrap();
        let loaded = load_latest_checkpoint(&dir.0, 8).unwrap().unwrap();
        let (_, rebuilt, _) = &loaded.tables[0];
        assert_eq!(rebuilt.column_at(0).unwrap().sealed_chunk_lens(), vec![3]);
        assert_eq!(rows_of(rebuilt), rows_of(&table));
    }

    #[test]
    fn incomplete_checkpoints_are_invisible() {
        let dir = TempDir::new();
        let table = Arc::new(sample_table(10, 8));
        let entry = CheckpointTable {
            name: "t".into(),
            epoch: 1,
            table,
        };
        write_checkpoint(&dir.0, 1, 10, 2, std::slice::from_ref(&entry)).unwrap();
        // fabricate a crashed, higher-seq attempt: table file but truncated
        // manifest
        let junk = dir.0.join(checkpoint_dir_name(2));
        fs::create_dir_all(&junk).unwrap();
        fs::write(junk.join("t0.tbl"), b"partial garbage").unwrap();
        let manifest = encode_manifest(20, 3, &[("t".into(), 1, "t0.tbl".into())]);
        fs::write(junk.join(MANIFEST_NAME), &manifest[..manifest.len() / 2]).unwrap();
        let loaded = load_latest_checkpoint(&dir.0, 8).unwrap().unwrap();
        assert_eq!(loaded.seq, 1, "fell back past the incomplete checkpoint");
        assert_eq!(loaded.lsn, 10);
        // a manifest-less directory is equally invisible
        let no_manifest = dir.0.join(checkpoint_dir_name(3));
        fs::create_dir_all(&no_manifest).unwrap();
        assert_eq!(load_latest_checkpoint(&dir.0, 8).unwrap().unwrap().seq, 1);
        // and an empty checkpoint root loads as None
        let empty = TempDir::new();
        assert!(load_latest_checkpoint(&empty.0, 8).unwrap().is_none());
    }

    #[test]
    fn newer_checkpoint_wins_and_prunes_older() {
        let dir = TempDir::new();
        let entry = |rows| CheckpointTable {
            name: "t".into(),
            epoch: 1,
            table: Arc::new(sample_table(rows, 8)),
        };
        write_checkpoint(&dir.0, 1, 10, 2, &[entry(5)]).unwrap();
        write_checkpoint(&dir.0, 2, 20, 2, &[entry(9)]).unwrap();
        let loaded = load_latest_checkpoint(&dir.0, 8).unwrap().unwrap();
        assert_eq!(loaded.seq, 2);
        assert_eq!(loaded.tables[0].1.row_count(), 9);
        assert!(
            !dir.0.join(checkpoint_dir_name(1)).exists(),
            "older checkpoint pruned"
        );
    }

    #[test]
    fn corrupt_table_file_degrades_to_previous_checkpoint() {
        let dir = TempDir::new();
        let entry = CheckpointTable {
            name: "t".into(),
            epoch: 1,
            table: Arc::new(sample_table(6, 8)),
        };
        write_checkpoint(&dir.0, 1, 10, 2, std::slice::from_ref(&entry)).unwrap();
        // a complete-looking seq-2 whose table file got a flipped bit
        write_checkpoint(&dir.0, 2, 20, 2, &[entry]).unwrap();
        let tbl = dir.0.join(checkpoint_dir_name(2)).join("t0.tbl");
        let mut bytes = fs::read(&tbl).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&tbl, bytes).unwrap();
        // seq 1 was pruned by seq 2's success, so with seq 2 corrupt there
        // is no loadable checkpoint left
        assert!(load_latest_checkpoint(&dir.0, 8).unwrap().is_none());
    }
}
