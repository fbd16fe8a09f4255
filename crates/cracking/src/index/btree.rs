//! Cracker index backed by `std::collections::BTreeMap`.

use super::{CutIndex, VisitOrder};
use aidx_columnstore::types::Key;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A [`CutIndex`] implemented with the standard library B-tree map.
///
/// This is the default cracker index: the B-tree's cache-friendly nodes make
/// predecessor/successor queries fast, and the amount of cuts stays tiny
/// compared to the data (at most two new cuts per query).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BTreeCutIndex {
    cuts: BTreeMap<Key, usize>,
}

impl BTreeCutIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CutIndex for BTreeCutIndex {
    fn insert(&mut self, key: Key, position: usize) {
        self.cuts.insert(key, position);
    }

    fn exact(&self, key: Key) -> Option<usize> {
        self.cuts.get(&key).copied()
    }

    fn floor(&self, key: Key) -> Option<(Key, usize)> {
        self.cuts
            .range((Bound::Unbounded, Bound::Included(key)))
            .next_back()
            .map(|(&k, &p)| (k, p))
    }

    fn ceiling(&self, key: Key) -> Option<(Key, usize)> {
        self.cuts
            .range((Bound::Included(key), Bound::Unbounded))
            .next()
            .map(|(&k, &p)| (k, p))
    }

    fn remove(&mut self, key: Key) -> Option<usize> {
        self.cuts.remove(&key)
    }

    fn len(&self) -> usize {
        self.cuts.len()
    }

    fn cuts(&self) -> Vec<(Key, usize)> {
        self.cuts.iter().map(|(&k, &p)| (k, p)).collect()
    }

    fn clear(&mut self) {
        self.cuts.clear();
    }

    fn shift_positions(&mut self, from_position: usize, delta: isize) {
        for position in self.cuts.values_mut() {
            if *position >= from_position {
                *position = (*position as isize + delta) as usize;
            }
        }
    }

    fn visit_above<F: FnMut(Key, &mut usize)>(
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
