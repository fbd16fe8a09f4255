//! The cracker index, backed by `std::collections::BTreeMap`.

use aidx_columnstore::types::Key;
use std::collections::BTreeMap;
use std::ops::Bound;

/// One cut: a key, and the first position of the values at or above it.
pub type Cut = (Key, usize);

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

    /// The cuts that bound the piece holding `key`: the greatest at or below
    /// it and the smallest above it, either `None` at the column's edge.
    #[inline]
    pub fn around(&self, key: Key) -> (Option<Cut>, Option<Cut>) {
        let above = key.checked_add(1).and_then(|above| self.ceiling(above));
        (self.floor(key), above)
    }

    /// The positions `[begin, end)` of the piece holding `key` in a column of
    /// `len` values: from the greatest cut at or below `key` (0 without one)
    /// to the smallest cut above it (`len` without one). This is the piece a
    /// crack on `key` partitions, and the one lookup every cracker makes.
    #[inline]
    pub fn piece(&self, key: Key, len: usize) -> (usize, usize) {
        let (below, above) = self.around(key);
        (below.map_or(0, |cut| cut.1), above.map_or(len, |cut| cut.1))
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

    /// Call `visit` on every cut whose key is `> key`, highest key first,
    /// with the position open to change. The insert merge moves the
    /// boundaries of the pieces above the merged tuples this way, in one
    /// walk of the part of the index that holds them; positions must stay
    /// non-decreasing in key order once the walk is over.
    pub fn visit_above<F: FnMut(Key, &mut usize)>(&mut self, key: Key, mut visit: F) {
        self.cuts
            .range_mut((Bound::Excluded(key), Bound::Unbounded))
            .rev()
            .for_each(|(&k, position)| visit(k, position));
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

    /// Length of the longest piece the cuts induce over a column of `len`
    /// values (0 for an empty column), in one walk of the cuts.
    pub fn largest_piece(&self, len: usize) -> usize {
        let mut begin = 0;
        let mut largest = 0;
        for &position in self.cuts.values() {
            largest = largest.max(position.saturating_sub(begin));
            begin = position;
        }
        largest.max(len.saturating_sub(begin))
    }

    /// Consistency check: cut positions must be non-decreasing in key order
    /// and within `0..=len`.
    pub fn check_consistency(&self, len: usize) -> bool {
        let cuts = self.cuts();
        cuts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1)
            && cuts.iter().all(|&(_, p)| p <= len)
    }

    /// Whether the cuts are consistent over a column of `len` values whose
    /// value at each position is `key_at(position)`, and every value lies at
    /// or above its piece's first cut and below the next. O(len).
    pub fn pieces_hold(&self, len: usize, key_at: impl Fn(usize) -> Key) -> bool {
        if !self.check_consistency(len) {
            return false;
        }
        let ends = (self.cuts.iter()).map(|(&key, &position)| (Some(key), position));
        let mut begin = 0;
        let mut low = None;
        for (high, end) in ends.chain([(None, len)]) {
            let holds = |value: Key| {
                low.is_none_or(|low| value >= low) && high.is_none_or(|high| value < high)
            };
            if !(begin..end).map(&key_at).all(holds) {
                return false;
            }
            (begin, low) = (end, high);
        }
        true
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
