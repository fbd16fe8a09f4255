//! The cracker index: a catalog of piece boundaries ("cuts").
//!
//! A *cut* `(key, position)` records the outcome of a past crack: every value
//! stored at a position `< position` of the cracker column is `< key`, and
//! every value at a position `>= position` is `>= key`. The set of cuts
//! partitions the cracker column into *pieces*; each piece is an unordered
//! bag of values falling between two consecutive cut keys.
//!
//! There is one implementation, [`btree::BTreeCutIndex`], built on
//! `std::collections::BTreeMap`, with the one piece lookup
//! ([`BTreeCutIndex::piece`]) and piece check ([`BTreeCutIndex::pieces_hold`])
//! of every cracker.

pub mod btree;

pub use btree::BTreeCutIndex;

/// The contract of the cut index, and a cross-check against an independent
/// model.
#[cfg(test)]
mod trait_tests {
    use super::*;
    use aidx_columnstore::types::Key;

    /// The reference the B-tree is checked against: cuts in a `Vec` kept
    /// sorted by key, every operation a linear walk.
    #[derive(Default)]
    struct SortedVecModel(Vec<(Key, usize)>);

    impl SortedVecModel {
        fn insert(&mut self, key: Key, position: usize) {
            match self.0.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(at) => self.0[at].1 = position,
                Err(at) => self.0.insert(at, (key, position)),
            }
        }
        fn remove(&mut self, key: Key) -> Option<usize> {
            let at = self.0.iter().position(|&(k, _)| k == key)?;
            Some(self.0.remove(at).1)
        }
        fn exact(&self, key: Key) -> Option<usize> {
            self.0.iter().find(|&&(k, _)| k == key).map(|&(_, p)| p)
        }
        fn floor(&self, key: Key) -> Option<(Key, usize)> {
            self.0.iter().rev().find(|&&(k, _)| k <= key).copied()
        }
        fn ceiling(&self, key: Key) -> Option<(Key, usize)> {
            self.0.iter().find(|&&(k, _)| k >= key).copied()
        }
    }

    #[test]
    fn btree_cut_index_contract() {
        let mut idx = BTreeCutIndex::default();
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

        assert_eq!(idx.cuts(), vec![(5, 1), (10, 3), (20, 7), (30, 9)]);
        assert!(idx.check_consistency(12));
        // a piece runs from the cut at or below a key to the one above it
        assert_eq!(idx.piece(12, 12), (3, 7));
        assert_eq!((idx.piece(10, 12), idx.piece(31, 12)), ((3, 7), (9, 12)));
        assert_eq!(idx.piece(Key::MIN, 12), (0, 1));
        let keys = [0, 5, 7, 12, 10, 15, 19, 20, 25, 30, 31, 40];
        assert!(idx.pieces_hold(12, |i| keys[i]));
        assert!(!idx.pieces_hold(12, |i| if i == 4 { 20 } else { keys[i] }));
        assert!(!idx.pieces_hold(8, |i| keys[i]), "a cut past the end");

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

        // ranged visit, highest first: cuts are (5, 0), (10, 3), (20, 8), (30, 10)
        let visited = |idx: &mut BTreeCutIndex, key: Key| {
            let mut seen = Vec::new();
            idx.visit_above(key, |k, position| seen.push((k, *position)));
            seen
        };
        let all = vec![(5, 0), (10, 3), (20, 8), (30, 10)];
        let reversed: Vec<_> = all.iter().rev().copied().collect();
        // below all
        assert_eq!(visited(&mut idx, Key::MIN), reversed);
        assert_eq!(visited(&mut idx, 4), reversed);
        // between two cuts, and equal to one (strictly above either way)
        assert_eq!(visited(&mut idx, 7), reversed[..3]);
        assert_eq!(visited(&mut idx, 10), reversed[..2]);
        // at or above the highest
        assert_eq!(visited(&mut idx, 30), vec![]);
        assert_eq!(visited(&mut idx, Key::MAX), vec![]);
        // positions edited in the callback stick, and only those visited
        idx.visit_above(10, |_, position| *position += 5);
        idx.visit_above(5, |_, position| *position -= 1);
        assert_eq!(idx.cuts(), vec![(5, 0), (10, 2), (20, 12), (30, 14)]);
        idx.visit_above(5, |_, position| *position += 1);
        idx.visit_above(10, |_, position| *position -= 5);
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
        let mut b = SortedVecModel::default();
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
                    let delta = (next() % 7) as usize;
                    // the model says which cuts lie above `key`, and moves them
                    let above = |&&(k, _): &&(Key, usize)| k > key;
                    let expected: Vec<(Key, usize)> =
                        b.0.iter().rev().filter(above).copied().collect();
                    (b.0.iter_mut().filter(|(k, _)| *k > key)).for_each(|(_, p)| *p += delta);
                    let mut seen = Vec::new();
                    a.visit_above(key, |k, position| {
                        seen.push((k, *position));
                        *position += delta;
                    });
                    assert_eq!(seen, expected);
                }
                _ => {
                    assert_eq!(a.exact(key), b.exact(key));
                    assert_eq!(a.floor(key), b.floor(key));
                    assert_eq!(a.ceiling(key), b.ceiling(key));
                    let above = b.ceiling(key + 1).map_or(10_000, |(_, p)| p);
                    let begin = b.floor(key).map_or(0, |(_, p)| p);
                    assert_eq!(a.piece(key, 10_000), (begin, above));
                }
            }
        }
        assert_eq!(a.cuts(), b.0);
        assert_eq!(a.len(), b.0.len());
    }
}
