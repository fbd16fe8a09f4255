//! The cracker index: a catalog of piece boundaries ("cuts").
//!
//! A *cut* `(key, position)` records the outcome of a past crack: every value
//! stored at a position `< position` of the cracker column is `< key`, and
//! every value at a position `>= position` is `>= key`. The set of cuts
//! partitions the cracker column into *pieces*; each piece is an unordered
//! bag of values falling between two consecutive cut keys.
//!
//! Two interchangeable implementations are provided (the ablation benchmark
//! compares them): [`btree::BTreeCutIndex`] built on `std::collections::BTreeMap`
//! and [`avl::AvlCutIndex`], a hand-rolled arena-based AVL tree as used by the
//! original MonetDB implementation.

pub mod avl;
pub mod btree;

use aidx_columnstore::types::Key;

pub use avl::AvlCutIndex;
pub use btree::BTreeCutIndex;

/// The order in which [`CutIndex::visit_above`] hands out cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitOrder {
    /// Lowest key first.
    Ascending,
    /// Highest key first.
    Descending,
}

/// A catalog of cuts `(key, position)`, ordered by key.
///
/// Implementations must keep at most one position per key and support
/// predecessor / successor queries, which is all the cracking algorithms need
/// to locate the pieces a range query touches.
pub trait CutIndex: Default + std::fmt::Debug {
    /// Record (or overwrite) the cut for `key`.
    fn insert(&mut self, key: Key, position: usize);

    /// The position recorded for exactly `key`, if any.
    fn exact(&self, key: Key) -> Option<usize>;

    /// The greatest cut with `cut.key <= key`, if any.
    fn floor(&self, key: Key) -> Option<(Key, usize)>;

    /// The smallest cut with `cut.key >= key`, if any.
    fn ceiling(&self, key: Key) -> Option<(Key, usize)>;

    /// The smallest cut with `cut.key > key`, if any.
    fn successor(&self, key: Key) -> Option<(Key, usize)> {
        self.ceiling(key.checked_add(1)?)
    }

    /// Remove the cut at exactly `key`, returning its position.
    fn remove(&mut self, key: Key) -> Option<usize>;

    /// Number of cuts.
    fn len(&self) -> usize;

    /// True when no cuts have been recorded.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All cuts in ascending key order.
    fn cuts(&self) -> Vec<(Key, usize)>;

    /// Remove every cut.
    fn clear(&mut self);

    /// Add `delta` to the position of every cut whose position is
    /// `>= from_position`. Used by the update paths: inserting (deleting) a
    /// pair at some position shifts all later piece boundaries right (left).
    fn shift_positions(&mut self, from_position: usize, delta: isize);

    /// Call `visit` on every cut whose key is `> key`, in `order`, with the
    /// position open to change. The update paths move the boundaries of the
    /// pieces above a merged tuple this way, in one walk of the part of the
    /// index that holds them; positions must stay non-decreasing in key
    /// order once the walk is over.
    fn visit_above<F: FnMut(Key, &mut usize)>(&mut self, key: Key, order: VisitOrder, visit: F);

    /// Number of pieces the cuts induce over a column of `len` values
    /// (`number of cuts + 1` for a non-empty column, counting possibly empty
    /// edge pieces).
    fn piece_count(&self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            self.len() + 1
        }
    }

    /// Consistency check: cut positions must be non-decreasing in key order
    /// and within `0..=len`.
    fn check_consistency(&self, len: usize) -> bool {
        let cuts = self.cuts();
        cuts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1)
            && cuts.iter().all(|&(_, p)| p <= len)
    }
}

/// Exhaustive equivalence tests run against both implementations.
#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise<I: CutIndex>() {
        let mut idx = I::default();
        assert!(idx.is_empty());
        assert_eq!(idx.floor(10), None);
        assert_eq!(idx.ceiling(10), None);
        assert_eq!(idx.exact(10), None);
        assert_eq!(idx.piece_count(0), 0);
        assert_eq!(idx.piece_count(100), 1);

        idx.insert(10, 3);
        idx.insert(20, 7);
        idx.insert(5, 1);
        idx.insert(30, 9);
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.piece_count(12), 5);

        assert_eq!(idx.exact(20), Some(7));
        assert_eq!(idx.exact(21), None);

        assert_eq!(idx.floor(20), Some((20, 7)));
        assert_eq!(idx.floor(19), Some((10, 3)));
        assert_eq!(idx.floor(4), None);
        assert_eq!(idx.floor(100), Some((30, 9)));

        assert_eq!(idx.ceiling(20), Some((20, 7)));
        assert_eq!(idx.ceiling(21), Some((30, 9)));
        assert_eq!(idx.ceiling(31), None);
        assert_eq!(idx.ceiling(-5), Some((5, 1)));

        assert_eq!(idx.successor(20), Some((30, 9)));
        assert_eq!(idx.successor(30), None);

        assert_eq!(idx.cuts(), vec![(5, 1), (10, 3), (20, 7), (30, 9)]);
        assert!(idx.check_consistency(12));

        // overwrite
        idx.insert(10, 4);
        assert_eq!(idx.exact(10), Some(4));
        assert_eq!(idx.len(), 4);

        // shift
        idx.shift_positions(7, 2);
        assert_eq!(idx.exact(20), Some(9));
        assert_eq!(idx.exact(30), Some(11));
        assert_eq!(idx.exact(10), Some(4));
        idx.shift_positions(0, -1);
        assert_eq!(idx.exact(5), Some(0));
        assert_eq!(idx.exact(10), Some(3));

        // ranged visit: cuts are (5, 0), (10, 3), (20, 8), (30, 10)
        let visited = |idx: &mut I, key: Key, order: VisitOrder| {
            let mut seen = Vec::new();
            idx.visit_above(key, order, |k, position| seen.push((k, *position)));
            seen
        };
        let all = vec![(5, 0), (10, 3), (20, 8), (30, 10)];
        let reversed: Vec<_> = all.iter().rev().copied().collect();
        // below all
        assert_eq!(visited(&mut idx, Key::MIN, VisitOrder::Ascending), all);
        assert_eq!(visited(&mut idx, 4, VisitOrder::Descending), reversed);
        // between two cuts, and equal to one (strictly above either way)
        assert_eq!(visited(&mut idx, 7, VisitOrder::Ascending), all[1..]);
        assert_eq!(visited(&mut idx, 10, VisitOrder::Ascending), all[2..]);
        assert_eq!(visited(&mut idx, 10, VisitOrder::Descending), reversed[..2]);
        // at or above the highest
        assert_eq!(visited(&mut idx, 30, VisitOrder::Descending), vec![]);
        assert_eq!(visited(&mut idx, Key::MAX, VisitOrder::Ascending), vec![]);
        // positions edited in the callback stick, and only those visited
        idx.visit_above(10, VisitOrder::Descending, |_, position| *position += 5);
        idx.visit_above(5, VisitOrder::Ascending, |_, position| *position -= 1);
        assert_eq!(idx.cuts(), vec![(5, 0), (10, 2), (20, 12), (30, 14)]);
        idx.visit_above(5, VisitOrder::Ascending, |_, position| *position += 1);
        idx.visit_above(10, VisitOrder::Descending, |_, position| *position -= 5);
        assert_eq!(idx.cuts(), all);

        // remove
        assert_eq!(idx.remove(10), Some(3));
        assert_eq!(idx.remove(10), None);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.floor(19), Some((5, 0)));

        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.cuts(), vec![]);
    }

    #[test]
    fn btree_cut_index_contract() {
        exercise::<BTreeCutIndex>();
    }

    #[test]
    fn avl_cut_index_contract() {
        exercise::<AvlCutIndex>();
    }

    #[test]
    fn implementations_agree_on_random_workload() {
        // simple deterministic pseudo-random sequence (LCG) so the test does
        // not need the rand crate in this crate's unit tests
        let mut state: u64 = 0x2545F4914F6CDD1D;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut a = BTreeCutIndex::default();
        let mut b = AvlCutIndex::default();
        for _ in 0..2000 {
            let op = next() % 5;
            let key = (next() % 500) as Key;
            match op {
                0 | 1 => {
                    let pos = (next() % 10_000) as usize;
                    a.insert(key, pos);
                    b.insert(key, pos);
                }
                2 => {
                    assert_eq!(a.remove(key), b.remove(key));
                }
                3 => {
                    let order = if next() % 2 == 0 {
                        VisitOrder::Ascending
                    } else {
                        VisitOrder::Descending
                    };
                    let delta = (next() % 7) as usize;
                    let (mut seen_a, mut seen_b) = (Vec::new(), Vec::new());
                    a.visit_above(key, order, |k, position| {
                        seen_a.push((k, *position));
                        *position += delta;
                    });
                    b.visit_above(key, order, |k, position| {
                        seen_b.push((k, *position));
                        *position += delta;
                    });
                    assert_eq!(seen_a, seen_b);
                    // exactly the cuts above `key`, in the order asked for
                    let mut expected: Vec<(Key, usize)> = a
                        .cuts()
                        .into_iter()
                        .filter(|&(k, _)| k > key)
                        .map(|(k, position)| (k, position - delta))
                        .collect();
                    if order == VisitOrder::Descending {
                        expected.reverse();
                    }
                    assert_eq!(seen_a, expected);
                }
                _ => {
                    assert_eq!(a.exact(key), b.exact(key));
                    assert_eq!(a.floor(key), b.floor(key));
                    assert_eq!(a.ceiling(key), b.ceiling(key));
                }
            }
        }
        assert_eq!(a.cuts(), b.cuts());
        assert_eq!(a.len(), b.len());
    }
}
