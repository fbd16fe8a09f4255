//! The cracked index under insertions against a flat `(key, row id)` model.
//!
//! A seeded stream of insertions and queries runs against [`CrackedIndex`]
//! on a column cracked into many pieces first — some of them empty — so
//! that every merge has pieces above it to ripple through. After every
//! operation the index must hold exactly the model's tuples, split between
//! the cracker column and the pending area the way its counter says, with
//! every structural invariant intact: one tuple misplaced, dropped or
//! duplicated by a merge, or one cut left unshifted, fails here.

use aidx_columnstore::index::AdaptiveIndex;
use aidx_columnstore::types::{Key, RowId};
use aidx_cracking::selection::CrackedIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

type Pair = (Key, RowId);

const ROWS: usize = 1_000;
/// Stored keys are multiples of `STRIDE` in `[0, DOMAIN)`, so cuts at keys
/// between two multiples bound empty pieces.
const STRIDE: Key = 8;
const DOMAIN: Key = 4_000;
const OPS: usize = 350;

fn sorted<T: Ord>(mut items: Vec<T>) -> Vec<T> {
    items.sort_unstable();
    items
}

/// The tuples physically in the cracker column.
fn column_pairs(index: &CrackedIndex) -> Vec<Pair> {
    let column = index.column();
    let values = column.values().iter().copied();
    sorted(values.zip(column.rowids().iter().copied()).collect())
}

struct Harness {
    index: CrackedIndex,
    /// Every live tuple.
    model: BTreeSet<Pair>,
    next_rowid: RowId,
    rng: StdRng,
}

impl Harness {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: Vec<Key> = (0..ROWS)
            .map(|_| rng.gen_range(0..DOMAIN / STRIDE) * STRIDE)
            .collect();
        let mut index = CrackedIndex::from_keys(&keys);
        // narrow queries between two stored keys leave empty pieces behind
        for _ in 0..48 {
            let low = rng.gen_range(0..DOMAIN);
            let _ = index.query_range(low, low + rng.gen_range(1..STRIDE));
        }
        let pieces = index.pieces();
        assert!(pieces.len() >= 64, "only {} pieces", pieces.len());
        let interior = &pieces[1..pieces.len() - 1];
        assert!(interior.iter().any(|piece| piece.is_empty()));
        let model = keys.iter().copied().zip(0..).collect();
        Harness {
            index,
            model,
            next_rowid: ROWS as RowId,
            rng,
        }
    }

    fn insert(&mut self) {
        let nth = self.rng.gen_range(0..self.model.len().max(1));
        let stored = self.model.iter().nth(nth).map_or(0, |&(key, _)| key);
        let key = match self.rng.gen_range(0..8) {
            0 => stored,
            1 => -self.rng.gen_range(1..DOMAIN),
            2 => DOMAIN + self.rng.gen_range(0..DOMAIN),
            3 => Key::MIN,
            4 => Key::MAX,
            _ => self.rng.gen_range(0..DOMAIN),
        };
        let rowid = self.index.insert(key);
        assert_eq!(rowid, self.next_rowid, "row ids continue the base column's");
        self.next_rowid += 1;
        self.model.insert((key, rowid));
    }

    fn bounds(&mut self) -> (Key, Key) {
        let a = self.rng.gen_range(-DOMAIN..2 * DOMAIN);
        let b = a + self.rng.gen_range(1..DOMAIN);
        match self.rng.gen_range(0..8) {
            0 => (a, a + 1),
            1 => (a, a),
            2 => (b, a),
            3 => (Key::MIN, Key::MAX),
            4 => (Key::MIN, b),
            5 => (a, Key::MAX),
            _ => (a, b),
        }
    }

    fn query(&mut self) {
        let (low, high) = self.bounds();
        let in_range = |&(key, _): &Pair| key >= low && key < high;
        let expected: Vec<Pair> = self.model.iter().copied().filter(in_range).collect();
        let context = format!("[{low}, {high})");

        let before = column_pairs(&self.index);
        let answer = self.index.query_range(low, high);
        let pairs = answer
            .keys()
            .iter()
            .copied()
            .zip(answer.rowids().iter().copied());
        assert_eq!(sorted(pairs.collect()), expected, "{context}");

        // the one query merged exactly the staged tuples inside its range
        let after: BTreeSet<Pair> = column_pairs(&self.index).into_iter().collect();
        let before: BTreeSet<Pair> = before.into_iter().collect();
        assert!(before.is_subset(&after), "{context}: a merge only adds");
        assert!(after.difference(&before).all(in_range), "{context}");
        let staged_in_range = self.model.difference(&after).filter(|t| in_range(t));
        assert_eq!(staged_in_range.count(), 0, "{context}");

        // a counted answer reads back from its cuts, without reorganizing
        let mut out = Vec::new();
        let count = AdaptiveIndex::count_range(&mut self.index, low, high, 0, &mut out);
        assert_eq!(count, Some(expected.len()), "{context}");
        let effort = AdaptiveIndex::effort(&self.index);
        assert!(AdaptiveIndex::read_range(&self.index, low, high, &mut out));
        assert_eq!(AdaptiveIndex::effort(&self.index), effort, "{context}");
        let expected_rowids = sorted(expected.iter().map(|&(_, rowid)| rowid).collect());
        assert_eq!(sorted(out), expected_rowids, "{context}");
    }

    /// The index holds the model's tuples, each once, where its counter
    /// says they are.
    fn check(&self, step: usize) {
        let context = format!("step {step}");
        assert!(self.index.verify_integrity(), "{context}");
        assert_eq!(self.index.len(), self.model.len(), "{context}");
        assert_eq!(self.index.is_empty(), self.model.is_empty(), "{context}");
        let column = column_pairs(&self.index);
        assert!(column.windows(2).all(|w| w[0] != w[1]), "{context}");
        let column: BTreeSet<Pair> = column.into_iter().collect();
        assert!(column.is_subset(&self.model), "{context}");
        // live and not in the column: staged insertions
        assert_eq!(
            self.index.pending_count(),
            self.model.difference(&column).count(),
            "{context}"
        );
    }
}

/// The op stream from three seeds.
#[test]
fn merge_ripple_matches_the_flat_model() {
    for seed in [7, 1_234, 987_654_321] {
        let mut harness = Harness::new(seed);
        harness.check(0);
        for step in 1..=OPS {
            match harness.rng.gen_range(0..10) {
                0..=3 => harness.insert(),
                _ => harness.query(),
            }
            harness.check(step);
        }
        // a burst with no query in between, so one merge places many tuples
        // across many pieces at once
        for _ in 0..300 {
            harness.insert();
        }
        harness.check(OPS + 1);
        harness.query();
        harness.check(OPS + 2);
        let _ = harness.index.query_range(Key::MIN, Key::MAX);
        harness.check(OPS + 3);
        assert!(harness.index.stats().elements_merged > 0);
    }
}

#[test]
fn an_index_that_starts_empty_takes_any_first_batch() {
    let mut index = CrackedIndex::from_keys(&[]);
    assert_eq!(index.count_range(Key::MIN, Key::MAX), 0);
    let keys = [5, Key::MAX, -3, Key::MIN, 5, 0];
    let rowids: Vec<RowId> = keys.iter().map(|&key| index.insert(key)).collect();
    assert_eq!(rowids, (0..keys.len() as RowId).collect::<Vec<_>>());
    // `Key::MAX` lies outside every half-open range
    assert_eq!(index.count_range(Key::MIN, Key::MAX), 5);
    assert_eq!(
        sorted(index.query_range(-3, 6).keys().to_vec()),
        [-3, 0, 5, 5]
    );
    assert_eq!(index.len(), 6);
    assert_eq!(index.pending_count(), 1);
    assert!(index.verify_integrity());
}
