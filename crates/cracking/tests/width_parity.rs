//! A cracker column's key width is a storage detail: the same keys, inserts
//! and queries crack a narrow column (`u32` offsets from a frame base) and a
//! wide one (`i64` keys) identically.
//!
//! Each case builds one index over its keys' own domain — narrow whenever
//! their span fits a frame — and one told the domain is all of `i64`, which
//! makes it wide, and drives both through the same interleaved inserts and
//! queries. After every step the two agree on the answer's row ids (in
//! order: the kernels compare offsets as they compare keys, so every pair
//! lands in the same slot), the cut positions, the piece count and every
//! counter of effort. An insertion outside a narrow column's frame widens it
//! exactly once, with every cut where it was.

use aidx_columnstore::types::{Key, RowId};
use aidx_cracking::cracker_column::key_domain;
use aidx_cracking::{CrackStats, CrackedIndex};

const SPAN: Key = u32::MAX as Key;

/// A seeded LCG.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// The counters that must not depend on the width: all but the widenings.
fn effort(stats: &CrackStats) -> CrackStats {
    CrackStats {
        widenings: 0,
        elements_widened: 0,
        ..*stats
    }
}

/// Assert that the two indexes are in the same state.
fn assert_same(narrow: &CrackedIndex, wide: &CrackedIndex, context: &str) {
    assert!(!wide.column().is_narrow(), "{context}");
    assert_eq!(narrow.pieces(), wide.pieces(), "{context}");
    assert_eq!(narrow.piece_count(), wide.piece_count(), "{context}");
    assert_eq!(
        narrow.column().rowids(),
        wide.column().rowids(),
        "{context}"
    );
    assert_eq!(narrow.len(), wide.len(), "{context}");
    assert_eq!(effort(narrow.stats()), effort(wide.stats()), "{context}");
    assert_eq!(
        narrow.stats().total_effort(),
        wide.stats().total_effort(),
        "{context}"
    );
    assert!(
        narrow.verify_integrity() && wide.verify_integrity(),
        "{context}"
    );
}

/// Drive `keys` through `steps` interleaved inserts and queries at both
/// widths; bounds and inserted keys are drawn from the keys, their
/// neighbours, the two ends of `i64`, and `extra`. Returns the narrow index.
fn drive(keys: &[Key], extra: &[Key], steps: usize, seed: u64) -> CrackedIndex {
    let mut narrow = CrackedIndex::from_chunks(&[keys], key_domain(keys), None);
    let mut wide = CrackedIndex::from_chunks(&[keys], Some((Key::MIN, Key::MAX)), None);
    let mut live: Vec<(Key, RowId)> = keys.iter().copied().zip(0..).collect();
    let mut rng = Lcg(seed);
    let pick = |rng: &mut Lcg, live: &[(Key, RowId)]| -> Key {
        let choices = live.len() + extra.len() + 2;
        match rng.below(choices) {
            i if i < live.len() => live[i].0.saturating_add(rng.below(3) as Key - 1),
            i if i < live.len() + extra.len() => extra[i - live.len()],
            i if i == live.len() + extra.len() => Key::MIN,
            _ => Key::MAX,
        }
    };
    for step in 0..steps {
        let context = format!("seed {seed}, step {step}");
        if rng.below(4) == 0 {
            let key = pick(&mut rng, &live);
            let rowid = narrow.insert(key);
            assert_eq!(wide.insert(key), rowid, "{context}");
            live.push((key, rowid));
        } else {
            let (a, b) = (pick(&mut rng, &live), pick(&mut rng, &live));
            let (low, high) = (a.min(b), a.max(b));
            let (narrow_ids, count) = {
                let answer = narrow.query_range(low, high);
                (answer.rowids().to_vec(), answer.len())
            };
            let answer = wide.query_range(low, high);
            assert_eq!(narrow_ids, answer.rowids(), "{context}: [{low}, {high})");
            let mut expected: Vec<RowId> = (live.iter())
                .filter(|&&(key, _)| key >= low && key < high)
                .map(|&(_, rowid)| rowid)
                .collect();
            expected.sort_unstable();
            let mut got = narrow_ids;
            got.sort_unstable();
            assert_eq!(got, expected, "{context}: [{low}, {high})");
            assert_eq!(count, expected.len(), "{context}");
        }
        assert_same(&narrow, &wide, &context);
    }
    narrow
}

/// `n` keys spread over `[min, min + span]`, both ends included.
fn spread(min: Key, span: Key, n: usize, seed: u64) -> Vec<Key> {
    let mut rng = Lcg(seed);
    let mut keys: Vec<Key> = (0..n - 2)
        .map(|_| min + (rng.next() % (span as u64 + 1)) as Key)
        .collect();
    keys.extend([min, min + span]);
    // the two ends land somewhere inside, not last
    let (a, b) = (rng.below(n), rng.below(n));
    let last = keys.len() - 1;
    keys.swap(a, last);
    keys.swap(b, last - 1);
    keys
}

#[test]
fn spans_just_under_at_and_just_over_u32_max() {
    for (span, narrow) in [(SPAN - 1, true), (SPAN, true), (SPAN + 1, false)] {
        for (seed, min) in [(1, 0), (2, -(SPAN / 2)), (3, -12_345_678_901)] {
            let keys = spread(min, span, 3_000, seed);
            let index = CrackedIndex::from_keys(&keys);
            assert_eq!(index.column().is_narrow(), narrow, "span {span}");
            // inserts beside the frame's edges, or at the ends of `i64`,
            // widen the narrow index once
            let widened = drive(&keys, &[min, min + span], 400, seed);
            assert!(widened.stats().widenings <= 1, "span {span}");
        }
    }
}

#[test]
fn keys_at_both_ends_of_i64() {
    // a frame pushed against either end of the domain stays narrow
    for keys in [
        spread(Key::MIN, 1_000_000, 2_000, 4),
        spread(Key::MAX - 1_000_000, 1_000_000, 2_000, 5),
        spread(Key::MIN, SPAN, 2_000, 6),
        spread(Key::MAX - SPAN, SPAN, 2_000, 7),
    ] {
        assert!(CrackedIndex::from_keys(&keys).column().is_narrow());
        drive(&keys, &[], 400, 8);
    }
    // the whole domain is wide from the start
    let mut keys = spread(Key::MIN, Key::MAX, 2_000, 9);
    keys.push(Key::MAX);
    assert!(!CrackedIndex::from_keys(&keys).column().is_narrow());
    let index = drive(&keys, &[0, -1, 1], 400, 10);
    assert_eq!(index.stats().widenings, 0);
}

#[test]
fn an_insert_outside_the_frame_widens_once_and_keeps_every_cut() {
    let keys: Vec<Key> = (0..5_000).map(|i| (i * 7_919) % 5_000).collect();
    let mut index = CrackedIndex::from_keys(&keys);
    assert!(index.column().is_narrow());
    for q in 0..50 {
        let low = (q * 97) % 4_900;
        index.query_range(low, low + 50);
    }
    // inside the frame, however far from the keys: no widening
    index.insert(-(1 << 30));
    index.insert(1 << 30);
    assert!(index.column().is_narrow());
    assert_eq!(index.count_range(-(1 << 31), 1 << 31), 5_002);
    let (pieces, merged) = (index.pieces(), index.column().len());
    assert_eq!(merged, 5_002);

    index.insert(Key::MAX);
    assert!(!index.column().is_narrow());
    assert_eq!(index.pieces(), pieces, "every cut where it was");
    assert_eq!(
        (index.stats().widenings, index.stats().elements_widened),
        (1, merged as u64)
    );
    for key in [Key::MIN, 1 << 40, -(1 << 40)] {
        index.insert(key);
    }
    assert_eq!(index.stats().widenings, 1, "once");
    assert_eq!(index.count_range(Key::MIN, Key::MAX), 5_005);
    assert_eq!(index.count_range(1 << 35, Key::MAX), 1);
    assert!(index.verify_integrity());

    // and at both widths alike, interleaved with queries (few keys, so that
    // the draws often leave the frame)
    let index = drive(&keys[..100], &[1 << 33, -(1 << 33)], 600, 11);
    assert_eq!(index.stats().widenings, 1);
}

/// `crack_converge`'s shape: a permutation of distinct keys read in chunks,
/// built for the first of a run of uniform 1 % ranges. What each query adds
/// to the effort and the pieces — what a traced index probe reports — is the
/// same at both widths.
#[test]
fn a_converging_sequence_costs_the_same_at_both_widths() {
    let n: usize = 200_000;
    let mut rng = Lcg(12);
    let mut keys: Vec<Key> = (0..n as Key).collect();
    for i in (1..n).rev() {
        keys.swap(i, rng.below(i + 1));
    }
    let chunks: Vec<&[Key]> = keys.chunks(4_096).collect();
    let width = (n / 100) as Key;
    let ranges: Vec<(Key, Key)> = (0..300)
        .map(|_| {
            let low = rng.below(n - width as usize) as Key;
            (low, low + width)
        })
        .collect();
    let mut narrow = CrackedIndex::from_chunks(&chunks, key_domain(&keys), Some(ranges[0]));
    let mut wide = CrackedIndex::from_chunks(&chunks, Some((Key::MIN, Key::MAX)), Some(ranges[0]));
    assert!(narrow.column().is_narrow());
    let probe = |index: &CrackedIndex| (index.stats().total_effort(), index.piece_count());
    assert_eq!(probe(&narrow), probe(&wide));
    for (q, &(low, high)) in ranges.iter().enumerate() {
        let count = narrow.count_range(low, high);
        assert_eq!(count, width as usize, "query {q}");
        assert_eq!(wide.count_range(low, high), count, "query {q}");
        assert_eq!(probe(&narrow), probe(&wide), "query {q}");
    }
    assert_same(&narrow, &wide, "after the sequence");
    assert_eq!(
        narrow.column().byte_size() * 3,
        wide.column().byte_size() * 2
    );
}
