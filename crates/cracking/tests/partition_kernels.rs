//! The partition kernels against a reference stable partition.
//!
//! Everything adaptive in the workspace moves data through `crack_in_two`,
//! `crack_in_three` and `partition_chunks`, so one property pins all three:
//! whatever a kernel does to a piece, each region afterwards holds exactly
//! the `(key, row id)` pairs a stable partition of the piece puts there —
//! none dropped, none duplicated, none re-paired — and nothing outside the
//! piece moves. A kernel may order a region as it likes. The selection a
//! reader runs over a piece it did not crack, `select_where`, moves nothing
//! and must return exactly a filter's row ids, in slice order.
//!
//! Every property runs at both key widths a cracker column stores: `i64`
//! keys, and `u32` offsets from a frame base, whose keys sit at the frame's
//! two edges as the wide ones sit at `Key::MIN` and `Key::MAX`.
//!
//! CI runs this file in the release profile as well: the kernels'
//! `debug_assert!`s vanish there and the arithmetic wraps instead of
//! panicking.

use aidx_columnstore::types::{Key, RowId};
use aidx_cracking::crack::{
    crack_in_three, crack_in_two_counted, partition_chunks, select_where, CrackKey, PivotSide,
    BLOCK,
};
use aidx_cracking::cracker_column::key_domain;
use aidx_cracking::selection::CrackedIndex;
use aidx_cracking::CrackerColumn;
use proptest::prelude::*;

type Pair = (Key, RowId);

/// The reference: `pairs` split by `region_of` into regions `0..regions`,
/// each in source order.
fn stable_partition<K: CrackKey>(
    pairs: &[(K, RowId)],
    regions: usize,
    region_of: impl Fn(K) -> usize,
) -> Vec<Vec<(K, RowId)>> {
    let mut out = vec![Vec::new(); regions];
    for &pair in pairs {
        out[region_of(pair.0)].push(pair);
    }
    out
}

fn sorted<K: CrackKey>(mut pairs: Vec<(K, RowId)>) -> Vec<(K, RowId)> {
    pairs.sort_unstable();
    pairs
}

fn zip<K: CrackKey>(values: &[K], rowids: &[RowId]) -> Vec<(K, RowId)> {
    values.iter().copied().zip(rowids.iter().copied()).collect()
}

fn decoded(values: impl IntoIterator<Item = Key>, rowids: &[RowId]) -> Vec<Pair> {
    values.into_iter().zip(rowids.iter().copied()).collect()
}

/// The two ends of the key domain a width's cases stretch to: all of `i64`,
/// or a `u32` frame's worth of keys, its edges straddling zero.
const WIDE: (Key, Key) = (Key::MIN, Key::MAX);
const NARROW: (Key, Key) = (-(1 << 31), (1 << 31) - 1);

/// Keys from a domain of a hundred values (so duplicates abound) whose two
/// ends stand for the ends of `edges`; bounds from a slightly wider one, so
/// they also fall outside the keys on either side.
fn stretch(raw: i64, (lowest, highest): (Key, Key)) -> Key {
    match raw {
        i64::MIN..=-50 => lowest,
        49.. => highest,
        _ => raw,
    }
}

/// The base a case's keys are stored against: 0 for `i64` keys, the lower
/// edge for `u32` offsets.
fn base(edges: (Key, Key)) -> Key {
    if edges == WIDE {
        0
    } else {
        edges.0
    }
}

/// A stretched key as a kernel of width `K` stores it.
fn stored<K: CrackKey>(key: Key, edges: (Key, Key)) -> K {
    K::encode(key, base(edges)).expect("a stretched key encodes")
}

fn keys(max_len: usize) -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-50i64..50, 0..max_len)
}

/// `keys` cut into an undersized first chunk, full chunks of `capacity`, and
/// whatever is left as the tail.
fn chunked(keys: &[Key], capacity: usize, first: usize) -> Vec<&[Key]> {
    let (head, rest) = keys.split_at(first.min(keys.len()));
    let mut chunks = vec![head];
    chunks.extend(rest.chunks(capacity));
    chunks.retain(|chunk| !chunk.is_empty());
    chunks
}

/// `crack_in_two` at width `K` against the stable partition of its piece.
fn check_crack_in_two<K: CrackKey>(
    keys: &[Key],
    edges: (Key, Key),
    pivot: Key,
    side: PivotSide,
    (from, to): (usize, usize),
) {
    let (begin, end) = (from.min(to).min(keys.len()), from.max(to).min(keys.len()));
    let keys: Vec<K> = keys.iter().map(|&key| stored(key, edges)).collect();
    let pivot: K = stored(pivot, edges);
    let rowids: Vec<RowId> = (0..keys.len() as RowId).collect();
    let before = zip(&keys, &rowids);

    let (mut values, mut ids) = (keys.clone(), rowids.clone());
    let (split, touch) = crack_in_two_counted(&mut values, &mut ids, begin, end, pivot, side);
    let after = zip(&values, &ids);

    let expected = stable_partition(&before[begin..end], 2, |key| match side {
        PivotSide::Left => usize::from(key >= pivot),
        PivotSide::Right => usize::from(key > pivot),
    });
    prop_assert_eq!(split, begin + expected[0].len());
    prop_assert_eq!(
        sorted(after[begin..split].to_vec()),
        sorted(expected[0].clone())
    );
    prop_assert_eq!(
        sorted(after[split..end].to_vec()),
        sorted(expected[1].clone())
    );
    prop_assert_eq!(&after[..begin], &before[..begin]);
    prop_assert_eq!(&after[end..], &before[end..]);
    prop_assert_eq!(touch.compared, end - begin);
    // every swap moves a different misplaced pair to its side
    prop_assert!(touch.swapped <= expected[0].len().max(expected[1].len()));
}

/// `crack_in_three` at width `K` against the stable partition of its piece.
fn check_crack_in_three<K: CrackKey>(
    keys: &[Key],
    edges: (Key, Key),
    (low, high): (Key, Key),
    (from, to): (usize, usize),
) {
    let (begin, end) = (from.min(to).min(keys.len()), from.max(to).min(keys.len()));
    let keys: Vec<K> = keys.iter().map(|&key| stored(key, edges)).collect();
    let (low, high): (K, K) = (stored(low, edges), stored(high, edges));
    let rowids: Vec<RowId> = (0..keys.len() as RowId).collect();
    let before = zip(&keys, &rowids);

    let (mut values, mut ids) = (keys.clone(), rowids.clone());
    let split = crack_in_three(&mut values, &mut ids, begin, end, low, high);
    let after = zip(&values, &ids);

    let expected = stable_partition(&before[begin..end], 3, |key| {
        usize::from(key >= low) + usize::from(key >= high)
    });
    prop_assert_eq!(split.low_split, begin + expected[0].len());
    prop_assert_eq!(split.high_split, split.low_split + expected[1].len());
    let regions = [
        &after[begin..split.low_split],
        &after[split.low_split..split.high_split],
        &after[split.high_split..end],
    ];
    for (region, expected) in regions.iter().zip(&expected) {
        prop_assert_eq!(sorted(region.to_vec()), sorted(expected.clone()));
    }
    prop_assert_eq!(&after[..begin], &before[..begin]);
    prop_assert_eq!(&after[end..], &before[end..]);
    prop_assert_eq!(split.touch.compared, end - begin);
}

/// `select_where` at width `K` over the piece `[from, to)` against a filter
/// of it, on the keys at least `first`, at most `last`, or both.
fn check_select_where<K: CrackKey>(
    keys: &[Key],
    edges: (Key, Key),
    (first, last): (Option<Key>, Option<Key>),
    (from, to): (usize, usize),
) {
    let (begin, end) = (from.min(to).min(keys.len()), from.max(to).min(keys.len()));
    let keys: Vec<K> = keys[begin..end]
        .iter()
        .map(|&key| stored(key, edges))
        .collect();
    let rowids: Vec<RowId> = (begin as RowId..end as RowId).collect();
    let (first, last) = (
        first.map(|key| stored::<K>(key, edges)),
        last.map(|key| stored::<K>(key, edges)),
    );
    let keep =
        |key: K| first.is_none_or(|first| first <= key) & last.is_none_or(|last| key <= last);
    let expected: Vec<RowId> = zip(&keys, &rowids)
        .into_iter()
        .filter(|&(key, _)| keep(key))
        .map(|(_, rowid)| rowid)
        .collect();
    let mut out = vec![RowId::MAX];
    select_where(&keys, &rowids, keep, &mut out);
    prop_assert_eq!(out[0], RowId::MAX);
    prop_assert_eq!(&out[1..], &expected[..]);
}

/// The fused build at the width `edges` make the column take (the domain it
/// is told is the edges themselves, so it is narrow exactly when they fit a
/// frame), against the stable partition and against `from_keys` plus the
/// same first query.
fn check_fused_build<K: CrackKey>(
    keys: &[Key],
    edges: (Key, Key),
    bounds: Option<(Key, Key)>,
    chunks: &[&[Key]],
    first_query: (Key, Key),
) {
    let source: Vec<Pair> = keys.iter().copied().zip(0..).collect();

    // the column: every pair in its region; without bounds, in source order
    let (column, placed) = CrackerColumn::from_chunks(chunks, Some(edges), bounds);
    prop_assert_eq!(column.is_narrow(), edges == NARROW);
    let expected = match bounds {
        Some((low, high)) => stable_partition(&source, 3, |key| {
            usize::from(key >= low) + usize::from(key >= high)
        }),
        None => vec![Vec::new(), source.clone(), Vec::new()],
    };
    prop_assert_eq!(placed.low_split, expected[0].len());
    prop_assert_eq!(placed.high_split, expected[0].len() + expected[1].len());
    let pairs = decoded(column.values(), column.rowids());
    let regions = [
        &pairs[..placed.low_split],
        &pairs[placed.low_split..placed.high_split],
        &pairs[placed.high_split..],
    ];
    for (region, expected) in regions.iter().zip(&expected) {
        prop_assert_eq!(sorted(region.to_vec()), sorted(expected.clone()));
    }
    if bounds.is_none() {
        prop_assert_eq!(&pairs, &source);
    }
    prop_assert_eq!(
        placed.min_max,
        keys.iter().min().copied().zip(keys.iter().max().copied())
    );

    // the same routine, handed its destination and a base of its own
    let base = base(edges);
    let (mut values, mut rowids) = (vec![K::default(); keys.len()], vec![0; keys.len()]);
    prop_assert_eq!(
        partition_chunks(chunks, bounds, base, &mut values, &mut rowids),
        placed
    );
    let values = values.iter().map(|value| value.decode(base));
    prop_assert_eq!(decoded(values, &rowids), pairs);

    // the index: what `from_keys` and the same first query come to
    let (low, high) = first_query;
    let mut fused = CrackedIndex::from_chunks(chunks, Some(edges), Some((low, high)));
    prop_assert!(fused.verify_integrity());
    let mut stepwise = CrackedIndex::from_keys(keys);
    let expected = {
        let answer = stepwise.query_range(low, high);
        sorted(decoded(answer.keys(), answer.rowids()))
    };
    prop_assert_eq!(fused.pieces(), stepwise.pieces());
    prop_assert_eq!(
        (fused.min_value(), fused.max_value()),
        (stepwise.min_value(), stepwise.max_value())
    );
    let cracks = fused.stats().crack_in_two_calls + fused.stats().crack_in_three_calls;
    let answer = fused.query_range(low, high);
    prop_assert_eq!(sorted(decoded(answer.keys(), answer.rowids())), expected);
    // asking found the piece in place; the accounts differ only in the
    // swaps, which the copy did not need for the first cut
    let (fused, stepwise) = (*fused.stats(), *stepwise.stats());
    prop_assert_eq!(
        fused.crack_in_two_calls + fused.crack_in_three_calls,
        cracks
    );
    prop_assert_eq!(
        fused,
        aidx_cracking::CrackStats {
            elements_swapped: fused.elements_swapped,
            ..stepwise
        }
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn crack_in_two_is_a_partition_of_its_piece(
        raw in keys(6 * BLOCK),
        (pivot, right_side) in (-60i64..60, 0usize..2),
        piece in (0usize..6 * BLOCK + 1, 0usize..6 * BLOCK + 1),
    ) {
        let side = if right_side == 1 { PivotSide::Right } else { PivotSide::Left };
        for edges in [WIDE, NARROW] {
            let keys: Vec<Key> = raw.iter().map(|&raw| stretch(raw, edges)).collect();
            let pivot = stretch(pivot, edges);
            if edges == WIDE {
                check_crack_in_two::<i64>(&keys, edges, pivot, side, piece);
            } else {
                check_crack_in_two::<u32>(&keys, edges, pivot, side, piece);
            }
        }
    }

    #[test]
    fn crack_in_three_is_a_partition_of_its_piece(
        raw in keys(6 * BLOCK),
        (a, b) in (-60i64..60, -60i64..60),
        piece in (0usize..6 * BLOCK + 1, 0usize..6 * BLOCK + 1),
    ) {
        for edges in [WIDE, NARROW] {
            let keys: Vec<Key> = raw.iter().map(|&raw| stretch(raw, edges)).collect();
            let bounds = (stretch(a.min(b), edges), stretch(a.max(b), edges));
            if edges == WIDE {
                check_crack_in_three::<i64>(&keys, edges, bounds, piece);
            } else {
                check_crack_in_three::<u32>(&keys, edges, bounds, piece);
            }
        }
    }

    #[test]
    fn select_where_returns_a_filter_of_its_piece(
        raw in keys(6 * BLOCK),
        (a, b, sides) in (-60i64..60, -60i64..60, 0usize..3),
        piece in (0usize..6 * BLOCK + 1, 0usize..6 * BLOCK + 1),
    ) {
        for edges in [WIDE, NARROW] {
            let keys: Vec<Key> = raw.iter().map(|&raw| stretch(raw, edges)).collect();
            let (first, last) = (stretch(a.min(b), edges), stretch(a.max(b), edges));
            let bounds = match sides {
                0 => (Some(first), None),
                1 => (None, Some(last)),
                _ => (Some(first), Some(last)),
            };
            if edges == WIDE {
                check_select_where::<i64>(&keys, edges, bounds, piece);
            } else {
                check_select_where::<u32>(&keys, edges, bounds, piece);
            }
        }
    }

    #[test]
    fn the_fused_build_is_a_partition_and_the_index_a_first_query_leaves(
        raw in keys(400),
        (a, b, unbounded) in (-60i64..60, -60i64..60, 0usize..8),
        (capacity, first) in (1usize..64, 0usize..64),
    ) {
        for edges in [WIDE, NARROW] {
            let keys: Vec<Key> = raw.iter().map(|&raw| stretch(raw, edges)).collect();
            let (low, high) = (stretch(a.min(b), edges), stretch(a.max(b), edges));
            let bounds = (unbounded > 0).then_some((low, high));
            let chunks = chunked(&keys, capacity, first % capacity);
            let first_query = bounds.unwrap_or((a, b));
            if edges == WIDE {
                check_fused_build::<i64>(&keys, edges, bounds, &chunks, first_query);
            } else {
                check_fused_build::<u32>(&keys, edges, bounds, &chunks, first_query);
            }
        }
    }
}

/// A piece whose keys all lie on one side of the bound is already
/// partitioned: no row id moves, and no swap is reported.
#[test]
fn a_piece_on_one_side_of_the_bound_reports_no_swaps() {
    for len in [1_000, 100_000] {
        let keys: Vec<Key> = (0..len as Key).collect();
        for (pivot, below) in [(-1, 0), (len as Key, len)] {
            let (mut values, mut ids) = (keys.clone(), (0..len as RowId).collect::<Vec<_>>());
            let (split, touch) =
                crack_in_two_counted(&mut values, &mut ids, 0, len, pivot, PivotSide::Left);
            assert_eq!(split, below, "{len} keys, pivot {pivot}");
            assert_eq!(touch.swapped, 0, "{len} keys, pivot {pivot}");
            assert_eq!(touch.compared, len);
            assert!(ids.iter().copied().eq(0..len as RowId), "a row id moved");
            assert_eq!(values, keys);
        }
    }
}

/// The shapes a sampled case is unlikely to hit exactly.
#[test]
fn edge_pieces_and_extreme_bounds() {
    for side in [PivotSide::Left, PivotSide::Right] {
        // empty and single-element pieces, inside a column that must not move
        let (mut values, mut ids) = (vec![9i64, 1, 8], vec![0, 1, 2]);
        for position in 0..=3 {
            let split = crack_in_two_counted(&mut values, &mut ids, position, position, 5, side);
            assert_eq!(split.0, position);
        }
        assert_eq!(
            crack_in_two_counted(&mut values, &mut ids, 1, 2, 5, side).0,
            2
        );
        assert_eq!(
            crack_in_two_counted(&mut values, &mut ids, 0, 1, 5, side).0,
            0
        );
        assert_eq!((values, ids), (vec![9, 1, 8], vec![0, 1, 2]));

        // pieces around the sizes where the block partition changes gait,
        // all-left, all-right and split down the middle
        for len in [
            2 * BLOCK - 1,
            2 * BLOCK,
            2 * BLOCK + 1,
            3 * BLOCK,
            4 * BLOCK + 1,
        ] {
            let keys: Vec<Key> = (0..len as Key).map(|i| (i * 37) % len as Key).collect();
            for pivot in [
                Key::MIN,
                -1,
                0,
                len as Key / 2,
                len as Key - 1,
                len as Key,
                Key::MAX,
            ] {
                let (mut values, mut ids) = (keys.clone(), (0..len as RowId).collect::<Vec<_>>());
                let (split, _) = crack_in_two_counted(&mut values, &mut ids, 0, len, pivot, side);
                let goes_left = |key: Key| match side {
                    PivotSide::Left => key < pivot,
                    PivotSide::Right => key <= pivot,
                };
                assert_eq!(split, keys.iter().filter(|&&key| goes_left(key)).count());
                assert!(values[..split].iter().all(|&key| goes_left(key)));
                assert!(!values[split..].iter().any(|&key| goes_left(key)));
                assert!(zip(&values, &ids)
                    .iter()
                    .all(|&(key, id)| keys[id as usize] == key));
                ids.sort_unstable();
                assert!(ids.iter().copied().eq(0..len as RowId));
            }
        }
    }

    // `Key::MAX` itself is a key, and `<= Key::MAX` holds for every key
    let (mut values, mut ids) = (vec![Key::MAX, Key::MIN, 0, Key::MAX], vec![0, 1, 2, 3]);
    let at_max = |values: &mut [Key], ids: &mut [RowId], side| {
        crack_in_two_counted(values, ids, 0, 4, Key::MAX, side).0
    };
    assert_eq!(at_max(&mut values, &mut ids, PivotSide::Right), 4);
    assert_eq!(at_max(&mut values, &mut ids, PivotSide::Left), 2);
    assert_eq!(
        sorted(zip(&values[2..], &ids[2..])),
        vec![(Key::MAX, 0), (Key::MAX, 3)]
    );

    // a build for a query the keys lie entirely inside, or entirely beside
    let keys: Vec<Key> = vec![5, 3, 9, 3, 7];
    for (bounds, cuts) in [
        ((Key::MIN, Key::MAX), 0),
        ((3, 10), 0),
        ((4, 10), 1),
        ((3, 9), 1),
        ((4, 9), 2),
        ((10, 20), 0),
        ((-5, 3), 0),
        ((6, 6), 0),
        ((8, 2), 0),
    ] {
        let index: CrackedIndex =
            CrackedIndex::from_chunks(&[&keys[..2], &keys[2..]], key_domain(&keys), Some(bounds));
        assert!(index.verify_integrity(), "{bounds:?}");
        assert_eq!(index.cut_count(), cuts, "{bounds:?}");
        assert_eq!(index.len(), 5);
    }
    let empty = CrackedIndex::from_chunks(&[], None, Some((1, 2)));
    assert!(empty.is_empty() && empty.verify_integrity());
    assert_eq!(empty.cut_count(), 0);
}
