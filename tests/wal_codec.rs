//! Property-based tests for the WAL record codec.
//!
//! The frame format is the trust boundary between a crashed process and the
//! one that recovers its data: whatever bytes survive on disk, `decode_frame`
//! must either reproduce the original record exactly, report a torn tail
//! (`Ok(None)`), or return a typed corruption error. It must never panic and
//! never hand back a *different* record than the one that was logged.

use adaptive_indexing::columnstore::types::{DataType, Value};
use adaptive_indexing::wal::{decode_frame, encode_frame, FsyncPolicy, Wal, WalRecord};
use proptest::prelude::*;
use std::fs;
use std::sync::atomic::{AtomicU32, Ordering};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// The bytes a fresh log holds after `append` of `record` and then
/// `append_rows` of its table and rows, plus an empty batch.
fn logged_bytes(table: &str, rows: &[Vec<Value>], record: &WalRecord) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!(
        "aidx-wal-codec-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let wal = Wal::open(&dir, FsyncPolicy::OnSeal, 1024).expect("a fresh log directory opens");
    wal.append(record).expect("append");
    wal.append_rows(table, rows).expect("append_rows");
    wal.append_rows(table, &[]).expect("empty append_rows");
    drop(wal);
    let mut files: Vec<_> = fs::read_dir(&dir)
        .expect("log directory")
        .map(|entry| entry.expect("entry").path())
        .collect();
    assert_eq!(files.len(), 1, "one log file: {files:?}");
    let bytes = fs::read(files.pop().expect("one file")).expect("log file");
    fs::remove_dir_all(&dir).expect("remove the log directory");
    bytes
}

/// Map a raw integer onto a `Value`, cycling through every variant so
/// arbitrary rows exercise all four value tags in the codec.
fn value_from(x: i64) -> Value {
    match x.rem_euclid(4) {
        0 => Value::Int64(x),
        1 => Value::Float64(x as f64 / 64.0),
        2 => Value::Utf8(format!("s{:x}", x.unsigned_abs())),
        _ => Value::Null,
    }
}

/// Build an arbitrary record from sampled primitives: `kind` selects the
/// record variant, `raw` supplies the row payload, `cols` the row width.
fn record_from(kind: u8, raw: &[i64], cols: usize) -> WalRecord {
    let name = format!("t{}", raw.first().copied().unwrap_or(0).rem_euclid(16));
    match kind % 3 {
        0 => WalRecord::CreateTable {
            name,
            fields: (0..cols)
                .map(|i| {
                    let ty = match i % 3 {
                        0 => DataType::Int64,
                        1 => DataType::Float64,
                        _ => DataType::Utf8,
                    };
                    (format!("c{i}"), ty)
                })
                .collect(),
        },
        1 => WalRecord::DropTable { name },
        _ => WalRecord::Append {
            table: name,
            rows: raw
                .chunks(cols)
                .map(|chunk| chunk.iter().map(|&x| value_from(x)).collect())
                .collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // Encode → decode is the identity on the record and the LSN, and the
    // decoder consumes exactly the bytes the encoder produced.
    #[test]
    fn encode_decode_round_trips(
        kind in 0u8..3,
        raw in prop::collection::vec(i64::MIN..i64::MAX, 0..48),
        cols in 1usize..5,
        lsn in 0u64..u64::MAX,
    ) {
        let record = record_from(kind, &raw, cols);
        let frame = encode_frame(&record, lsn);
        let decoded = decode_frame(&frame).expect("well-formed frame decodes");
        let (got, got_lsn, consumed) = decoded.expect("full frame is not torn");
        prop_assert_eq!(got, record);
        prop_assert_eq!(got_lsn, lsn);
        prop_assert_eq!(consumed, frame.len());
    }

    // A frame followed by trailing garbage still decodes to the original
    // record, consuming only its own bytes — this is how a reader walks a
    // log whose tail holds the next (possibly torn) frame.
    #[test]
    fn trailing_bytes_are_not_consumed(
        kind in 0u8..3,
        raw in prop::collection::vec(i64::MIN..i64::MAX, 0..32),
        cols in 1usize..5,
        lsn in 0u64..u64::MAX,
        tail in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let record = record_from(kind, &raw, cols);
        let frame = encode_frame(&record, lsn);
        let mut buf = frame.clone();
        buf.extend_from_slice(&tail);
        let (got, got_lsn, consumed) =
            decode_frame(&buf).expect("leading frame decodes").expect("not torn");
        prop_assert_eq!(got, record);
        prop_assert_eq!(got_lsn, lsn);
        prop_assert_eq!(consumed, frame.len());
    }

    // Every strict prefix of a frame reads as a torn tail (`Ok(None)`) or a
    // typed corruption error — never a panic and never a successful decode
    // of partial bytes.
    #[test]
    fn truncation_is_torn_or_corrupt(
        kind in 0u8..3,
        raw in prop::collection::vec(i64::MIN..i64::MAX, 0..32),
        cols in 1usize..5,
        lsn in 0u64..u64::MAX,
        cut_seed in 0usize..1_000_000,
    ) {
        let record = record_from(kind, &raw, cols);
        let frame = encode_frame(&record, lsn);
        let cut = cut_seed % frame.len();
        match decode_frame(&frame[..cut]) {
            Ok(None) | Err(_) => {}
            Ok(Some(_)) => prop_assert!(false, "decoded a record from a strict prefix"),
        }
    }

    // Flipping any single byte is detected: the decoder reports corruption
    // or a torn tail (when the damage inflates the announced length), but
    // never returns a record different from the one that was encoded.
    #[test]
    fn single_byte_corruption_never_yields_a_wrong_record(
        kind in 0u8..3,
        raw in prop::collection::vec(i64::MIN..i64::MAX, 0..32),
        cols in 1usize..5,
        lsn in 0u64..u64::MAX,
        at_seed in 0usize..1_000_000,
        flip in 1u8..=255,
    ) {
        let record = record_from(kind, &raw, cols);
        let mut frame = encode_frame(&record, lsn);
        let at = at_seed % frame.len();
        frame[at] ^= flip;
        match decode_frame(&frame) {
            Ok(None) | Err(_) => {}
            Ok(Some((got, got_lsn, _))) => {
                // The payload CRC catches every single-byte flip it covers;
                // a successful decode can only mean the flip was absorbed
                // without changing the record's meaning — which it never is
                // for this format, so demand exact equality.
                prop_assert!(got == record && got_lsn == lsn, "decoded a different record");
            }
        }
    }

    // Logging borrowed rows writes exactly the bytes of logging the owned
    // record that holds them, and an empty batch is the empty `Append`.
    #[test]
    fn borrowed_rows_log_the_bytes_of_the_owned_record(
        raw in prop::collection::vec(i64::MIN..i64::MAX, 0..48),
        cols in 1usize..5,
    ) {
        let record = record_from(2, &raw, cols);
        let WalRecord::Append { table, rows } = &record else {
            unreachable!("kind 2 is an append");
        };
        let empty = WalRecord::Append { table: table.clone(), rows: Vec::new() };
        let mut expected = encode_frame(&record, 1);
        expected.extend_from_slice(&encode_frame(&record, 2));
        expected.extend_from_slice(&encode_frame(&empty, 3));
        prop_assert_eq!(logged_bytes(table, rows, &record), expected);
    }

    // Arbitrary byte soup never panics the decoder: it is torn, corrupt, or
    // (by astronomical luck) a valid frame — but always a clean return.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        let _ = decode_frame(&bytes);
    }
}
