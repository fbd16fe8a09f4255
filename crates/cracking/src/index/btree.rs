//! The cracker index, backed by `std::collections::BTreeMap`.

use super::VisitOrder;
use aidx_columnstore::types::Key;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A catalog of cuts `(key, position)`, ordered by key, on the standard
/// library B-tree map.
///
/// It keeps at most one position per key and answers predecessor /
/// successor queries, which is all the cracking algorithms need to locate
/// the pieces a range query touches. The B-tree's cache-friendly nodes make
/// those fast, and the amount of cuts stays tiny compared to the data (at
/// most two new cuts per query).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BTreeCutIndex {
    cuts: BTreeMap<Key, usize>,
}

impl BTreeCutIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record (or overwrite) the cut for `key`.
    pub fn insert(&mut self, key: Key, position: usize) {
        self.cuts.insert(key, position);
    }

    /// The position recorded for exactly `key`, if any.
    pub fn exact(&self, key: Key) -> Option<usize> {
        self.cuts.get(&key).copied()
    }

    /// The greatest cut with `cut.key <= key`, if any.
    pub fn floor(&self, key: Key) -> Option<(Key, usize)> {
        self.cuts
            .range((Bound::Unbounded, Bound::Included(key)))
            .next_back()
            .map(|(&k, &p)| (k, p))
    }

    /// The smallest cut with `cut.key >= key`, if any.
    pub fn ceiling(&self, key: Key) -> Option<(Key, usize)> {
        self.cuts
            .range((Bound::Included(key), Bound::Unbounded))
            .next()
            .map(|(&k, &p)| (k, p))
    }

    /// The smallest cut with `cut.key > key`, if any.
    pub fn successor(&self, key: Key) -> Option<(Key, usize)> {
        self.ceiling(key.checked_add(1)?)
    }

    /// Remove the cut at exactly `key`, returning its position.
    pub fn remove(&mut self, key: Key) -> Option<usize> {
        self.cuts.remove(&key)
    }

    /// Number of cuts.
    pub fn len(&self) -> usize {
        self.cuts.len()
    }

    /// True when no cuts have been recorded.
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }

    /// All cuts in ascending key order.
    pub fn cuts(&self) -> Vec<(Key, usize)> {
        self.cuts.iter().map(|(&k, &p)| (k, p)).collect()
    }

    /// Remove every cut.
    pub fn clear(&mut self) {
        self.cuts.clear();
    }

    /// Add `delta` to the position of every cut whose position is
    /// `>= from_position`. Used by the update paths: inserting (deleting) a
    /// pair at some position shifts all later piece boundaries right (left).
    pub fn shift_positions(&mut self, from_position: usize, delta: isize) {
        for position in self.cuts.values_mut() {
            if *position >= from_position {
                *position = (*position as isize + delta) as usize;
            }
        }
    }

    /// Call `visit` on every cut whose key is `> key`, in `order`, with the
    /// position open to change. The update paths move the boundaries of the
    /// pieces above a merged tuple this way, in one walk of the part of the
    /// index that holds them; positions must stay non-decreasing in key
    /// order once the walk is over.
    pub fn visit_above<F: FnMut(Key, &mut usize)>(
        &mut self,
        key: Key,
        order: VisitOrder,
        mut visit: F,
    ) {
        let above = self
            .cuts
            .range_mut((Bound::Excluded(key), Bound::Unbounded));
        match order {
            VisitOrder::Ascending => above.for_each(|(&k, position)| visit(k, position)),
            VisitOrder::Descending => above.rev().for_each(|(&k, position)| visit(k, position)),
        }
    }

    /// Number of pieces the cuts induce over a column of `len` values
    /// (`number of cuts + 1` for a non-empty column, counting possibly empty
    /// edge pieces).
    pub fn piece_count(&self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            self.len() + 1
        }
    }

    /// Consistency check: cut positions must be non-decreasing in key order
    /// and within `0..=len`.
    pub fn check_consistency(&self, len: usize) -> bool {
        let cuts = self.cuts();
        cuts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1)
            && cuts.iter().all(|&(_, p)| p <= len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let idx = BTreeCutIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn floor_and_ceiling_between_keys() {
        let mut idx = BTreeCutIndex::new();
        idx.insert(100, 10);
        idx.insert(200, 20);
        assert_eq!(idx.floor(150), Some((100, 10)));
        assert_eq!(idx.ceiling(150), Some((200, 20)));
        assert_eq!(idx.floor(99), None);
        assert_eq!(idx.ceiling(201), None);
    }

    #[test]
    fn shift_is_bounded_below() {
        let mut idx = BTreeCutIndex::new();
        idx.insert(1, 5);
        idx.insert(2, 10);
        idx.shift_positions(6, 3);
        assert_eq!(idx.exact(1), Some(5));
        assert_eq!(idx.exact(2), Some(13));
    }

    #[test]
    fn negative_keys_supported() {
        let mut idx = BTreeCutIndex::new();
        idx.insert(-50, 1);
        idx.insert(0, 2);
        assert_eq!(idx.floor(-1), Some((-50, 1)));
        assert_eq!(idx.ceiling(-100), Some((-50, 1)));
    }
}
