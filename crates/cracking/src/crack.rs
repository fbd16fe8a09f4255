//! The physical reorganization kernels: crack-in-two and crack-in-three in
//! place, and the out-of-place partition that builds a cracker column.
//!
//! All three work on a *pair* of parallel arrays — the key values and the row
//! ids that travel with them — and they are the only routines in the whole
//! workspace that move data around during query processing. On random data
//! every comparison of a textbook partition loop is a coin-flip branch, so
//! none of them branches on a key: comparisons feed cursor arithmetic
//! instead.
//!
//! Each kernel is one source over a [`CrackKey`]: `i64` keys as they are, or
//! `u32` offsets from a base key, the narrow form a cracker column stores
//! when its keys span less than 2^32 (see [`crate::cracker_column`]). An
//! offset compares like the key it stands for, so the kernels never decode.
//!
//! * [`crack_in_two`] is a block partition (Edelkamp and Weiss,
//!   "BlockQuicksort"; the scheme `sort_unstable` used for years): it
//!   classifies [`BLOCK`] keys from each end of the piece into two small
//!   offset buffers, with the comparison result added to the buffer length,
//!   and then swaps the misplaced pairs the buffers name. One loop for every
//!   piece size: no scratch beyond the two buffers, no fallback below a
//!   threshold.
//! * [`crack_in_three`] is two of those, one per bound, the second over what
//!   the first left at or above `low`. `crack_kernels` (the criterion bench in
//!   `aidx-bench`) measures it against the single-pass Dutch-flag loop it
//!   replaced; the two cracks win by 2-4x wherever the bounds do not sit at
//!   the very bottom of the piece, and tie there.
//! * [`partition_chunks`] is the first touch: it reads the base column's
//!   chunks where they lie and writes each `(key, row id)` pair into a fresh
//!   cracker column on its side of the triggering query's lower bound, then
//!   cracks the upper side on the other bound.

use aidx_columnstore::types::{Key, RowId};
use std::fmt::Debug;

/// A key type the kernels crack: a [`Key`] stored as an offset from a base
/// key. `i64` holds every key (at base 0); `u32` holds the keys of a frame
/// `[base, base + u32::MAX]`, in 4 bytes instead of 8.
pub trait CrackKey: Copy + Ord + Default + Debug + Send + Sync + 'static {
    /// The next larger key; `None` for the largest.
    fn successor(self) -> Option<Self>;
    /// `key` as an offset from `base`, when the type can hold it.
    fn encode(key: Key, base: Key) -> Option<Self>;
    /// [`Self::encode`] of a key known to encode, because both ends of a
    /// range holding it do (offsets are monotone in the key), without the
    /// check: exact for such a key, and meaningless for any other.
    fn encode_within(key: Key, base: Key) -> Self;
    /// The key this offset from `base` stands for.
    fn decode(self, base: Key) -> Key;
}

impl CrackKey for i64 {
    #[inline]
    fn successor(self) -> Option<Self> {
        self.checked_add(1)
    }
    #[inline]
    fn encode(key: Key, base: Key) -> Option<Self> {
        key.checked_sub(base)
    }
    #[inline]
    fn encode_within(key: Key, base: Key) -> Self {
        key.wrapping_sub(base)
    }
    #[inline]
    fn decode(self, base: Key) -> Key {
        self + base
    }
}

impl CrackKey for u32 {
    #[inline]
    fn successor(self) -> Option<Self> {
        self.checked_add(1)
    }
    #[inline]
    fn encode(key: Key, base: Key) -> Option<Self> {
        u32::try_from(i128::from(key) - i128::from(base)).ok()
    }
    #[inline]
    fn encode_within(key: Key, base: Key) -> Self {
        // the low 32 bits of the difference, which is all of it in range
        key.wrapping_sub(base) as u32
    }
    #[inline]
    fn decode(self, base: Key) -> Key {
        base + Key::from(self)
    }
}

/// Result of a [`crack_in_two`] call: the first position of the right
/// partition (every value in `[begin, split)` is `< pivot` when
/// `PivotSide::Left`, or `<= pivot` when `PivotSide::Right`).
pub type SplitPosition = usize;

/// Controls on which side of the split values equal to the pivot land.
///
/// Cracking a range query `[low, high)` needs both flavours: the lower bound
/// splits `< low | >= low`, the upper bound splits `< high | >= high`, i.e.
/// both use [`PivotSide::Left`]; inclusive upper bounds (`<= high`) use
/// [`PivotSide::Right`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotSide {
    /// Partition as `< pivot | >= pivot` (pivot-equal values go right).
    Left,
    /// Partition as `<= pivot | > pivot` (pivot-equal values go left).
    Right,
}

/// Statistics reported by a single crack call, consumed by [`crate::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrackTouch {
    /// Number of elements compared (the size of the cracked piece).
    pub compared: usize,
    /// Number of pair swaps performed: the misplaced pairs the block
    /// partition exchanged, summed from its per-round counts.
    pub swapped: usize,
}

#[inline]
fn swap_pair<K: CrackKey>(values: &mut [K], rowids: &mut [RowId], a: usize, b: usize) {
    values.swap(a, b);
    rowids.swap(a, b);
}

/// Keys classified per side and round by [`crack_in_two`]. Offsets into a
/// block are stored as `u8`, which caps it at 256; 128 is the size
/// BlockQuicksort and the standard library settled on. In `crack_kernels`,
/// from 2^14 to 2^22 keys, it is 2-4x faster than the Hoare loop it replaced
/// at a median pivot and at most ~0.5 ns/key behind it at a 1 % or 99 %
/// pivot, where either loop's branches are predictable: no piece size at
/// which to switch loops.
pub const BLOCK: usize = 128;

/// Partition `values[begin..end]` (and the parallel `rowids`) in place around
/// `pivot`, returning the split position.
///
/// After the call, with `PivotSide::Left`:
/// `values[begin..split] < pivot <= values[split..end]`.
///
/// A block partition: no allocation, and no branch on a key.
pub fn crack_in_two<K: CrackKey>(
    values: &mut [K],
    rowids: &mut [RowId],
    begin: usize,
    end: usize,
    pivot: K,
    side: PivotSide,
) -> SplitPosition {
    crack_in_two_counted(values, rowids, begin, end, pivot, side).0
}

/// [`crack_in_two`] that also reports how much data it touched.
pub fn crack_in_two_counted<K: CrackKey>(
    values: &mut [K],
    rowids: &mut [RowId],
    begin: usize,
    end: usize,
    pivot: K,
    side: PivotSide,
) -> (SplitPosition, CrackTouch) {
    debug_assert!(begin <= end && end <= values.len());
    debug_assert_eq!(values.len(), rowids.len());

    let mut touch = CrackTouch {
        compared: end - begin,
        swapped: 0,
    };
    // `<= pivot` is `< pivot + 1`, so one strict comparison serves both
    // sides; no key is above the largest, and then nothing has to move
    let bound = match side {
        PivotSide::Left => pivot,
        PivotSide::Right => match pivot.successor() {
            Some(bound) => bound,
            None => return (end, touch),
        },
    };
    let (below, swapped) =
        partition_in_blocks(&mut values[begin..end], &mut rowids[begin..end], bound);
    touch.swapped = swapped;
    (begin + below, touch)
}

/// Reorder `values` (and the parallel `rowids`) into `< bound | >= bound`;
/// returns the number of keys below `bound` and the number of pair swaps.
///
/// Each round fills, for whichever side has none pending, a buffer with the
/// offsets of the keys that sit on the wrong side of their block — every
/// offset is written, and kept only if the comparison says so — then swaps
/// as many pairs as both buffers hold. The last round sizes its blocks to
/// what is left, and the misplaced keys one side may still hold afterwards
/// are swapped to the boundary.
fn partition_in_blocks<K: CrackKey>(
    values: &mut [K],
    rowids: &mut [RowId],
    bound: K,
) -> (usize, usize) {
    // unclassified keys live in [left, right)
    let mut left = 0;
    let mut right = values.len();
    let (mut left_block, mut right_block) = (BLOCK, BLOCK);
    // offsets from `left` of keys `>= bound`, pending in [left_from, left_to)
    let mut left_offsets = [0u8; BLOCK];
    let (mut left_from, mut left_to) = (0, 0);
    // offsets down from `right - 1` of keys `< bound`
    let mut right_offsets = [0u8; BLOCK];
    let (mut right_from, mut right_to) = (0, 0);
    let mut swapped = 0;

    loop {
        let last_round = right - left <= 2 * BLOCK;
        if last_round {
            // a side with offsets pending keeps its block; the keys nobody
            // has classified go to the other side, or are split between both
            let mut rest = right - left;
            if left_from < left_to || right_from < right_to {
                rest -= BLOCK;
            }
            if left_from < left_to {
                right_block = rest;
            } else if right_from < right_to {
                left_block = rest;
            } else {
                left_block = rest / 2;
                right_block = rest - left_block;
            }
        }
        if left_from == left_to {
            (left_from, left_to) = (0, 0);
            for (offset, &key) in values[left..left + left_block].iter().enumerate() {
                left_offsets[left_to] = offset as u8;
                left_to += usize::from(key >= bound);
            }
        }
        if right_from == right_to {
            (right_from, right_to) = (0, 0);
            let block = values[right - right_block..right].iter().rev();
            for (offset, &key) in block.enumerate() {
                right_offsets[right_to] = offset as u8;
                right_to += usize::from(key < bound);
            }
        }
        let pairs = (left_to - left_from).min(right_to - right_from);
        for i in 0..pairs {
            swap_pair(
                values,
                rowids,
                left + usize::from(left_offsets[left_from + i]),
                right - 1 - usize::from(right_offsets[right_from + i]),
            );
        }
        swapped += pairs;
        left_from += pairs;
        right_from += pairs;
        if left_from == left_to {
            left += left_block;
        }
        if right_from == right_to {
            right -= right_block;
        }
        if last_round {
            break;
        }
    }

    // everything is classified, and at most one block still names misplaced
    // keys: they trade places with that block's far end, outermost first. A
    // key already at the far end swaps with itself, which moves nothing and
    // is not counted
    let below = if left_from < left_to {
        while left_from < left_to {
            left_to -= 1;
            right -= 1;
            let misplaced = left + usize::from(left_offsets[left_to]);
            swap_pair(values, rowids, misplaced, right);
            swapped += usize::from(misplaced != right);
        }
        right
    } else {
        // the left block is spent: `left` is where the right block starts
        while right_from < right_to {
            right_to -= 1;
            let misplaced = right - 1 - usize::from(right_offsets[right_to]);
            swap_pair(values, rowids, left, misplaced);
            swapped += usize::from(misplaced != left);
            left += 1;
        }
        left
    };
    (below, swapped)
}

/// Result of a [`crack_in_three`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreeWaySplit {
    /// First position of the middle partition (`>= low`).
    pub low_split: usize,
    /// First position of the right partition (`>= high`).
    pub high_split: usize,
    /// Touch statistics.
    pub touch: CrackTouch,
}

/// Partition `values[begin..end]` in place into three regions:
/// `< low | low <= v < high | >= high`, returning both split positions.
///
/// Used when both bounds of a range query fall into the same piece. Two
/// [`crack_in_two`]s: on `low` over the piece, then on `high` over what
/// landed at or above `low`.
pub fn crack_in_three<K: CrackKey>(
    values: &mut [K],
    rowids: &mut [RowId],
    begin: usize,
    end: usize,
    low: K,
    high: K,
) -> ThreeWaySplit {
    debug_assert!(low <= high);
    let (low_split, below) = crack_in_two_counted(values, rowids, begin, end, low, PivotSide::Left);
    let (high_split, above) =
        crack_in_two_counted(values, rowids, low_split, end, high, PivotSide::Left);
    ThreeWaySplit {
        low_split,
        high_split,
        touch: CrackTouch {
            compared: end - begin,
            swapped: below.swapped + above.swapped,
        },
    }
}

/// What [`partition_chunks`] learned about the keys while placing them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPartition {
    /// First position of the keys `>= low` (0 without bounds).
    pub low_split: usize,
    /// First position of the keys `>= high` (the key count without bounds).
    pub high_split: usize,
    /// Smallest and largest key; `None` when there are no keys.
    pub min_max: Option<(Key, Key)>,
    /// Pair swaps the crack on `high` made (the copy itself makes none).
    pub swapped: usize,
}

/// Build a cracker column out of place: copy the keys of `chunks`, in order,
/// into `values` as offsets from `base` ([`CrackKey::encode`]), writing each
/// key's position in that order beside it in `rowids` — and, given the
/// `[low, high)` of the query that caused the copy, leave the pairs
/// partitioned as `< low | low <= v < high | >= high`.
///
/// One sequential read of the source and one write of the column. With
/// bounds, each pair is written from one of two cursors, the comparison with
/// `low` choosing which: keys below `low` fill the column from the front,
/// the others from the back, and the cursors meet at the first cut — so
/// there is nothing to count beforehand. What landed at or above `low` is
/// then cracked on `high` in place ([`crack_in_two`]), unless `high` lies
/// outside the keys; for the narrow range of a typical query that pivot sits
/// at the very bottom of its piece and next to nothing moves. Without bounds
/// each chunk is copied whole. The smallest and largest key are picked up on
/// the way, and each chunk's two are what checks that all of its keys
/// encoded (offsets are monotone in the key): a chunk whose extremes have no
/// offset panics before anything reads what it wrote.
///
/// # Panics
/// Panics if `values` and `rowids` are not both exactly as long as the
/// chunks together, if `low > high`, or if a key has no offset from `base`
/// in `K`.
pub fn partition_chunks<K: CrackKey>(
    chunks: &[&[Key]],
    bounds: Option<(Key, Key)>,
    base: Key,
    values: &mut [K],
    rowids: &mut [RowId],
) -> ChunkPartition {
    let len = chunks.iter().map(|chunk| chunk.len()).sum::<usize>();
    assert_eq!(values.len(), len, "one value slot per source key");
    assert_eq!(rowids.len(), len, "one row id slot per source key");
    assert!(
        bounds.is_none_or(|(low, high)| low <= high),
        "partition bounds are ordered"
    );

    // the next slot from the front, and one past the next from the back
    let (mut front, mut back) = (0, len);
    let (mut min, mut max) = (Key::MAX, Key::MIN);
    let mut next_id: RowId = 0;
    for chunk in chunks {
        let (mut chunk_min, mut chunk_max) = (Key::MAX, Key::MIN);
        // checked for the whole chunk by its extremes, below
        let encode = |key: Key| K::encode_within(key, base);
        let ids = next_id..next_id + chunk.len() as RowId;
        match bounds {
            Some((low, _)) => {
                for (&key, id) in chunk.iter().zip(ids) {
                    chunk_min = chunk_min.min(key);
                    chunk_max = chunk_max.max(key);
                    let below = usize::from(key < low);
                    // `front` for a key below `low`, `back - 1` for the rest
                    let at = (back - 1) - (below.wrapping_neg() & (back - 1 - front));
                    values[at] = encode(key);
                    rowids[at] = id;
                    front += below;
                    back -= 1 - below;
                }
            }
            None => {
                let at = front..front + chunk.len();
                for (slot, &key) in values[at.clone()].iter_mut().zip(*chunk) {
                    chunk_min = chunk_min.min(key);
                    chunk_max = chunk_max.max(key);
                    *slot = encode(key);
                }
                for (slot, id) in rowids[at].iter_mut().zip(ids) {
                    *slot = id;
                }
                front += chunk.len();
            }
        }
        assert!(
            chunk.is_empty()
                || K::encode(chunk_min, base).is_some() && K::encode(chunk_max, base).is_some(),
            "key outside the cracker column's frame"
        );
        (min, max) = (min.min(chunk_min), max.max(chunk_max));
        next_id += chunk.len() as RowId;
    }
    debug_assert_eq!(front, back);

    let (low_split, high_split, swapped) = match bounds {
        // no key is below `high`, or every key is: nothing to crack
        Some((_, high)) if high <= min => (front, front, 0),
        Some((_, high)) if high > max => (front, len, 0),
        Some((_, high)) => {
            let high = K::encode(high, base).expect("a bound between two keys encodes");
            let (high_split, touch) =
                crack_in_two_counted(values, rowids, front, len, high, PivotSide::Left);
            (front, high_split, touch.swapped)
        }
        None => (0, len, 0),
    };
    ChunkPartition {
        low_split,
        high_split,
        min_max: (len > 0).then_some((min, max)),
        swapped,
    }
}

/// Verify (in debug builds and tests) that a slice is correctly partitioned
/// around a pivot. Returns `true` when the partition invariant holds.
pub fn is_partitioned<K: CrackKey>(values: &[K], split: usize, pivot: K, side: PivotSide) -> bool {
    let left_ok = values[..split].iter().all(|&v| match side {
        PivotSide::Left => v < pivot,
        PivotSide::Right => v <= pivot,
    });
    let right_ok = values[split..].iter().all(|&v| match side {
        PivotSide::Left => v >= pivot,
        PivotSide::Right => v > pivot,
    });
    left_ok && right_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(values: &[Key]) -> (Vec<Key>, Vec<RowId>) {
        let v = values.to_vec();
        let r: Vec<RowId> = (0..values.len() as RowId).collect();
        (v, r)
    }

    fn rowids_follow_values(orig: &[Key], values: &[Key], rowids: &[RowId]) -> bool {
        values
            .iter()
            .zip(rowids.iter())
            .all(|(&v, &r)| orig[r as usize] == v)
    }

    #[test]
    fn crack_in_two_basic_left() {
        let orig = vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3];
        let (mut v, mut r) = make(&orig);
        let n = v.len();
        let split = crack_in_two(&mut v, &mut r, 0, n, 10, PivotSide::Left);
        assert!(is_partitioned(&v, split, 10, PivotSide::Left));
        assert_eq!(split, 6); // six values < 10
        assert!(rowids_follow_values(&orig, &v, &r));
    }

    #[test]
    fn crack_in_two_basic_right() {
        let orig = vec![5, 10, 10, 3, 20];
        let (mut v, mut r) = make(&orig);
        let n = v.len();
        let split = crack_in_two(&mut v, &mut r, 0, n, 10, PivotSide::Right);
        assert!(is_partitioned(&v, split, 10, PivotSide::Right));
        assert_eq!(split, 4); // 5, 10, 10, 3 go left
        assert!(rowids_follow_values(&orig, &v, &r));
    }

    #[test]
    fn crack_in_two_empty_and_single() {
        let (mut v, mut r) = make(&[]);
        assert_eq!(crack_in_two(&mut v, &mut r, 0, 0, 5, PivotSide::Left), 0);

        let (mut v, mut r) = make(&[7]);
        assert_eq!(crack_in_two(&mut v, &mut r, 0, 1, 5, PivotSide::Left), 0);
        let (mut v, mut r) = make(&[3]);
        assert_eq!(crack_in_two(&mut v, &mut r, 0, 1, 5, PivotSide::Left), 1);
    }

    #[test]
    fn crack_in_two_all_left_or_all_right() {
        let (mut v, mut r) = make(&[1, 2, 3]);
        assert_eq!(crack_in_two(&mut v, &mut r, 0, 3, 10, PivotSide::Left), 3);
        let (mut v, mut r) = make(&[11, 12, 13]);
        assert_eq!(crack_in_two(&mut v, &mut r, 0, 3, 10, PivotSide::Left), 0);
    }

    #[test]
    fn crack_in_two_subrange_only() {
        let orig = vec![100, 9, 1, 8, 2, 7, 100];
        let (mut v, mut r) = make(&orig);
        let split = crack_in_two(&mut v, &mut r, 1, 6, 5, PivotSide::Left);
        // untouched sentinels
        assert_eq!(v[0], 100);
        assert_eq!(v[6], 100);
        assert!(v[1..split].iter().all(|&x| x < 5));
        assert!(v[split..6].iter().all(|&x| x >= 5));
        assert!(rowids_follow_values(&orig, &v, &r));
    }

    #[test]
    fn crack_in_two_duplicates_at_pivot() {
        let orig = vec![5, 5, 5, 5];
        let (mut v, mut r) = make(&orig);
        assert_eq!(crack_in_two(&mut v, &mut r, 0, 4, 5, PivotSide::Left), 0);
        let (mut v, mut r) = make(&orig);
        assert_eq!(crack_in_two(&mut v, &mut r, 0, 4, 5, PivotSide::Right), 4);
    }

    #[test]
    fn crack_in_two_counts_touches() {
        let orig = vec![9, 1, 8, 2, 7, 3];
        let (mut v, mut r) = make(&orig);
        let (_, touch) = crack_in_two_counted(&mut v, &mut r, 0, 6, 5, PivotSide::Left);
        assert_eq!(touch.compared, 6);
        assert!(touch.swapped >= 2);
    }

    #[test]
    fn crack_in_three_basic() {
        let orig = vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3];
        let (mut v, mut r) = make(&orig);
        let n = v.len();
        let s = crack_in_three(&mut v, &mut r, 0, n, 5, 15);
        assert!(v[..s.low_split].iter().all(|&x| x < 5));
        assert!(v[s.low_split..s.high_split]
            .iter()
            .all(|&x| (5..15).contains(&x)));
        assert!(v[s.high_split..].iter().all(|&x| x >= 15));
        assert_eq!(s.high_split - s.low_split, 4); // 13, 9, 12, 7
        assert!(rowids_follow_values(&orig, &v, &r));
    }

    #[test]
    fn crack_in_three_empty_middle() {
        let orig = vec![1, 2, 20, 30];
        let (mut v, mut r) = make(&orig);
        let s = crack_in_three(&mut v, &mut r, 0, 4, 5, 10);
        assert_eq!(s.low_split, 2);
        assert_eq!(s.high_split, 2);
    }

    #[test]
    fn crack_in_three_whole_range() {
        let orig = vec![7, 3, 9];
        let (mut v, mut r) = make(&orig);
        let s = crack_in_three(&mut v, &mut r, 0, 3, 0, 100);
        assert_eq!(s.low_split, 0);
        assert_eq!(s.high_split, 3);
    }

    #[test]
    fn crack_in_three_empty_slice() {
        let (mut v, mut r) = make(&[]);
        let s = crack_in_three(&mut v, &mut r, 0, 0, 1, 2);
        assert_eq!(s.low_split, 0);
        assert_eq!(s.high_split, 0);
    }

    #[test]
    fn crack_in_three_equal_bounds() {
        let orig = vec![3, 1, 4, 1, 5];
        let (mut v, mut r) = make(&orig);
        let s = crack_in_three(&mut v, &mut r, 0, 5, 3, 3);
        assert_eq!(s.low_split, s.high_split);
        assert!(v[..s.low_split].iter().all(|&x| x < 3));
        assert!(v[s.high_split..].iter().all(|&x| x >= 3));
    }

    #[test]
    fn crack_in_three_subrange() {
        let orig = vec![50, 9, 1, 8, 2, 7, 50];
        let (mut v, mut r) = make(&orig);
        let s = crack_in_three(&mut v, &mut r, 1, 6, 3, 8);
        assert_eq!(v[0], 50);
        assert_eq!(v[6], 50);
        assert!(v[1..s.low_split].iter().all(|&x| x < 3));
        assert!(v[s.low_split..s.high_split]
            .iter()
            .all(|&x| (3..8).contains(&x)));
        assert!(v[s.high_split..6].iter().all(|&x| x >= 8));
        assert!(rowids_follow_values(&orig, &v, &r));
    }

    #[test]
    fn is_partitioned_detects_violations() {
        assert!(is_partitioned(&[1, 2, 9, 8], 2, 5i64, PivotSide::Left));
        assert!(!is_partitioned(&[1, 9, 2, 8], 2, 5i64, PivotSide::Left));
        assert!(is_partitioned(&[5, 1, 9], 2, 5i64, PivotSide::Right));
        assert!(!is_partitioned(&[6, 1, 9], 2, 5i64, PivotSide::Right));
        assert!(is_partitioned(&[1, 2, 9], 2, 5u32, PivotSide::Left));
    }
}
