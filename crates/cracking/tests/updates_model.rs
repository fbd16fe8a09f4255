//! The updatable cracked index against a flat `(key, row id)` model.
//!
//! A seeded stream of insertions, deletions and queries runs against
//! [`UpdatableCrackedIndex`] under each [`MergePolicy`], on a column cracked
//! into many pieces first — some of them empty — so that every merge has
//! pieces above it to ripple through. After every operation the index must
//! hold exactly the model's tuples, split between the cracker column and
//! the pending areas the way its counters say, with every structural
//! invariant intact: one tuple misplaced, dropped or duplicated by a merge,
//! or one cut left unshifted, fails here.

use aidx_columnstore::types::{Key, RowId};
use aidx_cracking::updates::{MergePolicy, UpdatableCrackedIndex};
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
fn column_pairs(index: &UpdatableCrackedIndex) -> Vec<Pair> {
    let column = index.index().column();
    let values = column.values().iter().copied();
    sorted(values.zip(column.rowids().iter().copied()).collect())
}

struct Harness {
    index: UpdatableCrackedIndex,
    policy: MergePolicy,
    /// Every live tuple.
    model: BTreeSet<Pair>,
    /// Tuples deleted so far (for the double delete).
    dead: Vec<Pair>,
    next_rowid: RowId,
    rng: StdRng,
}

impl Harness {
    fn new(policy: MergePolicy, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: Vec<Key> = (0..ROWS)
            .map(|_| rng.gen_range(0..DOMAIN / STRIDE) * STRIDE)
            .collect();
        let mut index = UpdatableCrackedIndex::from_keys(&keys, policy);
        // narrow queries between two stored keys leave empty pieces behind
        for _ in 0..48 {
            let low = rng.gen_range(0..DOMAIN);
            let _ = index.query_range(low, low + rng.gen_range(1..STRIDE));
        }
        let pieces = index.index().pieces();
        assert!(pieces.len() >= 64, "only {} pieces", pieces.len());
        let interior = &pieces[1..pieces.len() - 1];
        assert!(interior.iter().any(|piece| piece.is_empty()));
        let model = keys.iter().copied().zip(0..).collect();
        Harness {
            index,
            policy,
            model,
            dead: Vec::new(),
            next_rowid: ROWS as RowId,
            rng,
        }
    }

    fn any_live(&mut self) -> Option<Pair> {
        let nth = self.rng.gen_range(0..self.model.len().max(1));
        self.model.iter().nth(nth).copied()
    }

    fn insert(&mut self) {
        let stored = self.any_live().map_or(0, |(key, _)| key);
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
        // deleted straight away, the tuple is still pending under any policy
        if self.rng.gen_range(0..6) == 0 {
            assert!(self.index.delete(key, rowid));
            self.model.remove(&(key, rowid));
            self.dead.push((key, rowid));
        }
    }

    fn delete(&mut self) {
        match self.rng.gen_range(0..4) {
            // unknown: a stored key under a row id never handed out, and a
            // live row id under a key it does not hold
            0 => {
                if let Some((key, rowid)) = self.any_live() {
                    assert!(!self.index.delete(key, RowId::MAX));
                    assert!(!self.index.delete(key ^ 1, rowid));
                }
            }
            // twice
            1 => {
                if !self.dead.is_empty() {
                    let (key, rowid) = self.dead[self.rng.gen_range(0..self.dead.len())];
                    assert!(!self.index.delete(key, rowid));
                }
            }
            // live: indexed, or pending since some earlier query left it so
            _ => {
                if let Some((key, rowid)) = self.any_live() {
                    assert!(self.index.delete(key, rowid));
                    self.model.remove(&(key, rowid));
                    self.dead.push((key, rowid));
                }
            }
        }
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
        let context = format!("{:?} [{low}, {high})", self.policy);

        let before = column_pairs(&self.index);
        let answer = self.index.query_range(low, high);
        assert_eq!(answer.keys.len(), answer.rowids.len());
        let pairs = answer.keys.iter().copied().zip(answer.rowids);
        assert_eq!(sorted(pairs.collect()), expected, "{context}");

        // what the one query merged: tuples that entered or left the column
        let after = column_pairs(&self.index);
        let before: BTreeSet<Pair> = before.into_iter().collect();
        let after: BTreeSet<Pair> = after.into_iter().collect();
        let merged: Vec<&Pair> = before.symmetric_difference(&after).collect();
        let pending_in_range = self
            .model
            .difference(&after)
            .filter(|t| in_range(t))
            .count()
            + after
                .difference(&self.model)
                .filter(|t| in_range(t))
                .count();
        match self.policy {
            MergePolicy::MergeCompletely => {
                assert_eq!(self.index.pending_insert_count(), 0, "{context}");
                assert_eq!(self.index.pending_delete_count(), 0, "{context}");
            }
            MergePolicy::MergeGradually { batch } => {
                assert!(merged.len() <= batch, "{context}");
                assert!(merged.iter().all(|t| in_range(t)), "{context}");
                assert!(merged.len() == batch || pending_in_range == 0, "{context}");
            }
            MergePolicy::MergeRipple => {
                assert!(merged.iter().all(|t| in_range(t)), "{context}");
                assert_eq!(pending_in_range, 0, "{context}");
            }
        }

        let rowids = self.index.query_rowids(low, high);
        let expected_rowids = sorted(expected.iter().map(|&(_, rowid)| rowid).collect());
        assert_eq!(sorted(rowids), expected_rowids, "{context}");
        assert_eq!(
            self.index.count_range(low, high),
            expected.len(),
            "{context}"
        );
    }

    /// The index holds the model's tuples, each once, where its counters
    /// say they are.
    fn check(&self, step: usize) {
        let context = format!("{:?} step {step}", self.policy);
        assert!(self.index.verify_integrity(), "{context}");
        assert_eq!(self.index.len(), self.model.len(), "{context}");
        assert_eq!(self.index.is_empty(), self.model.is_empty(), "{context}");
        let column = column_pairs(&self.index);
        assert!(column.windows(2).all(|w| w[0] != w[1]), "{context}");
        let column: BTreeSet<Pair> = column.into_iter().collect();
        // live and not in the column: pending insertions; the reverse:
        // pending deletions
        assert_eq!(
            self.index.pending_insert_count(),
            self.model.difference(&column).count(),
            "{context}"
        );
        assert_eq!(
            self.index.pending_delete_count(),
            column.difference(&self.model).count(),
            "{context}"
        );
    }
}

/// The op stream under `policy`, from three seeds.
fn matches_the_flat_model(policy: MergePolicy) {
    for seed in [7, 1_234, 987_654_321] {
        let mut harness = Harness::new(policy, seed);
        harness.check(0);
        for step in 1..=OPS {
            match harness.rng.gen_range(0..10) {
                0..=3 => harness.insert(),
                4..=5 => harness.delete(),
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
        assert!(harness.index.merged_insert_count() > 0);
        assert!(harness.index.merged_delete_count() > 0);
    }
}

#[test]
fn merge_completely_matches_the_flat_model() {
    matches_the_flat_model(MergePolicy::MergeCompletely);
}

#[test]
fn merge_gradually_matches_the_flat_model() {
    matches_the_flat_model(MergePolicy::MergeGradually { batch: 3 });
}

#[test]
fn merge_ripple_matches_the_flat_model() {
    matches_the_flat_model(MergePolicy::MergeRipple);
}

#[test]
fn an_index_that_starts_empty_takes_any_first_batch() {
    for policy in [
        MergePolicy::MergeCompletely,
        MergePolicy::MergeGradually { batch: 3 },
        MergePolicy::MergeRipple,
    ] {
        let mut index = UpdatableCrackedIndex::from_keys(&[], policy);
        assert_eq!(index.count_range(Key::MIN, Key::MAX), 0);
        let keys = [5, Key::MAX, -3, Key::MIN, 5, 0];
        let rowids: Vec<RowId> = keys.iter().map(|&key| index.insert(key)).collect();
        assert_eq!(rowids, (0..keys.len() as RowId).collect::<Vec<_>>());
        // `Key::MAX` lies outside every half-open range
        assert_eq!(index.count_range(Key::MIN, Key::MAX), 5, "{policy:?}");
        assert_eq!(sorted(index.query_range(-3, 6).keys), [-3, 0, 5, 5]);
        assert_eq!(index.len(), 6);
        assert!(index.verify_integrity(), "{policy:?}");
    }
}
