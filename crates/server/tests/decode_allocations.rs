//! Decoding a hostile reply reserves nothing for what its counts claim: a
//! row count, and the value count it implies with the first row's arity,
//! are bounded by the payload before any buffer is sized from them.
//!
//! This is its own test binary because it installs a counting global
//! allocator.

use aidx_server::protocol::FrameError;
use aidx_server::{Cells, Reply};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes each thread asks it for.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// with a constant initialiser, so updating it neither allocates nor races.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // a thread being torn down has no counter left; its bytes go uncounted
        let _ = REQUESTED.try_with(|bytes| bytes.set(bytes.get() + layout.size()));
        // SAFETY: the caller's layout obligations pass through unchanged
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout, above
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn requested() -> usize {
    REQUESTED.with(Cell::get)
}

/// A 200-byte `RESULT` payload with no positions and no aggregate whose row
/// section claims `rows` rows, the first of arity 65 535.
fn hostile_result(rows: u32) -> Vec<u8> {
    let mut frame = vec![0x82, 0, 0, 0, 0, 0];
    frame.extend_from_slice(&rows.to_le_bytes());
    frame.extend_from_slice(&u16::MAX.to_le_bytes());
    frame.resize(200, 0);
    frame
}

#[test]
fn hostile_row_counts_are_refused_before_anything_is_reserved() {
    for (rows, what, count) in [(60_000, "row", 60_000), (50, "row value", 50 * 65_535)] {
        let frame = hostile_result(rows);
        let before = requested();
        let err = Reply::decode(&frame).unwrap_err();
        let reserved = requested() - before;
        assert_eq!(err, FrameError::CountOverflow { what, count });
        assert_eq!(reserved, 0, "{rows} claimed rows reserved {reserved} bytes");
    }
}

#[test]
fn an_honest_reply_allocates_nothing_per_row() {
    // 1 000 rows of one `Int64`: one vector of positions, one of keys
    let mut frame = vec![0x82];
    frame.extend_from_slice(&1_000u32.to_le_bytes());
    for position in 0..1_000u32 {
        frame.extend_from_slice(&position.to_le_bytes());
    }
    frame.push(0);
    frame.extend_from_slice(&1_000u32.to_le_bytes());
    for key in 0..1_000i64 {
        frame.extend_from_slice(&1u16.to_le_bytes());
        frame.push(1);
        frame.extend_from_slice(&key.to_le_bytes());
    }
    let before = requested();
    let reply = Reply::decode(&frame).unwrap();
    let reserved = requested() - before;
    let Reply::Result(result) = reply else {
        panic!("a result");
    };
    assert_eq!((result.positions.len(), result.rows.len()), (1_000, 1_000));
    assert!(matches!(result.rows.columns(), [Cells::Int64(keys)] if keys.len() == 1_000));
    // the keys as `i64`s, not one 24-byte `Value` each, and the one-entry
    // vector that holds the column
    let exact = 1_000 * 4 + 1_000 * 8 + std::mem::size_of::<Cells>();
    assert_eq!(
        reserved, exact,
        "one vector of positions, one of keys, one of columns"
    );
}
