//! Position lists (a.k.a. selection vectors / candidate lists).
//!
//! A selection over a column produces the *positions* of qualifying rows, not
//! the rows themselves; later operators combine position lists and only fetch
//! the attribute values they need (late tuple reconstruction). This is the
//! intermediate-result representation the cracking papers assume from
//! MonetDB's BAT algebra.
//!
//! # Ordering contract
//!
//! A [`PositionList`] is **always** strictly ascending: every constructor
//! either receives ordered input or orders it, so wherever a position list
//! is observable its set operations are linear merges and positional gathers
//! walk each chunk once. Adaptive indexes, on the other hand, hand out the
//! row ids of a cracked piece in whatever order the piece holds them, and
//! ordering them is the single most expensive step of a converged probe.
//! So ids are ordered as late and as few as possible, by one routine
//! (`order_row_ids`, a radix sort with a comparison-sort branch for small
//! inputs) reached two ways:
//!
//! * [`PositionList::from_distinct`] orders a whole answer, for a reader
//!   that wants every id in order and filtered none out;
//! * [`ChunkGroups::into_positions`](crate::segment::ChunkGroups::into_positions)
//!   orders the survivors of a residual filter, one chunk's group at a time
//!   — the ids were grouped by chunk (a counting scatter, not a sort) before
//!   any filter ran, so the groups already ascend and only the few dozen
//!   ids inside each one are sorted.
//!
//! Counting and aggregating never pay for either.

use crate::types::RowId;

/// A list of row positions, kept sorted and duplicate-free so that set
/// operations (intersection, union, difference) are linear merges.
///
/// `len`, `is_empty` and `as_slice` are O(1); `contains` is a binary search;
/// the set operations are linear in the two operands.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PositionList {
    positions: Vec<RowId>,
}

/// Inputs up to this length are ordered by the standard library's
/// comparison sort. Clearing and prefix-summing the radix histograms is a
/// fixed 1.3 us, a whole warm point probe: measured, 8 ids order in 22 ns
/// against 1 270 ns, 128 in 0.66 us against 1.7 us, 256 in 1.3 us against
/// 2.0 us; the two meet near 400 ids and radix wins from there (1 024 ids:
/// 5.4 us against 7.6 us).
const SMALL_SORT: usize = 256;
/// Bits per radix digit: 2 048 four-byte counters per digit stay in L1, and
/// two digits cover every row id below 4 M.
const DIGIT_BITS: u32 = 11;
const BUCKETS: usize = 1 << DIGIT_BITS;
/// Digits needed to cover a 32-bit row id.
const DIGITS: usize = RowId::BITS.div_ceil(DIGIT_BITS) as usize;

/// Order `ids` ascending in place: a least-significant-digit radix sort over
/// 11-bit digits. One counting pass fills the histograms of all digits; a
/// digit on which every id agrees moves nothing and is skipped, so the
/// number of scatter passes follows the largest id — in the kernel, the
/// snapshot's row count — and not the width of [`RowId`]. Already ascending
/// input (a scan strategy's answer) returns after one comparison pass, a
/// thirteenth of the radix passes; on a cracked piece that pass stops at the
/// first descent. Inputs of at most `SMALL_SORT` ids — one chunk's group
/// of a filtered selection, typically a few dozen — take the comparison
/// sort.
pub(crate) fn order_row_ids(ids: &mut [RowId]) {
    if ids.windows(2).all(|w| w[0] <= w[1]) {
        return;
    }
    if ids.len() <= SMALL_SORT {
        ids.sort_unstable();
        return;
    }
    assert!(
        u32::try_from(ids.len()).is_ok(),
        "radix counters are 32-bit"
    );
    let digit = |id: RowId, d: usize| (id >> (d as u32 * DIGIT_BITS)) as usize & (BUCKETS - 1);
    let mut counts = [[0u32; BUCKETS]; DIGITS];
    for &id in ids.iter() {
        for (d, histogram) in counts.iter_mut().enumerate() {
            histogram[digit(id, d)] += 1;
        }
    }
    let mut scratch = vec![0; ids.len()];
    let mut in_scratch = false;
    for (d, histogram) in counts.iter_mut().enumerate() {
        let (from, to) = if in_scratch {
            (&scratch[..], &mut ids[..])
        } else {
            (&ids[..], &mut scratch[..])
        };
        if histogram[digit(from[0], d)] as usize == from.len() {
            continue;
        }
        let mut offset = 0u32;
        for slot in histogram.iter_mut() {
            let count = *slot;
            *slot = offset;
            offset += count;
        }
        for &id in from {
            let slot = &mut histogram[digit(id, d)];
            to[*slot as usize] = id;
            *slot += 1;
        }
        in_scratch = !in_scratch;
    }
    // an even number of passes (two for row ids below 4 M) ends in `ids`
    if in_scratch {
        ids.copy_from_slice(&scratch);
    }
}

impl PositionList {
    /// Create an empty position list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty list with capacity for `capacity` positions.
    pub fn with_capacity(capacity: usize) -> Self {
        PositionList {
            positions: Vec::with_capacity(capacity),
        }
    }

    /// Build from an arbitrary vector; sorts and deduplicates.
    pub fn from_vec(mut positions: Vec<RowId>) -> Self {
        order_row_ids(&mut positions);
        positions.dedup();
        PositionList { positions }
    }

    /// Build from distinct row ids in any order — what an adaptive index
    /// answers with. This is the one place a selection's row ids get
    /// ordered: O(n) radix passes (two for row ids below 4 M), one
    /// comparison pass when the ids already ascend. Debug builds assert
    /// distinctness; release builds trust the index.
    pub fn from_distinct(mut row_ids: Vec<RowId>) -> Self {
        order_row_ids(&mut row_ids);
        PositionList::from_sorted_vec(row_ids)
    }

    /// Build from a vector that is already sorted and duplicate-free.
    ///
    /// Debug builds assert the invariant; release builds trust the caller
    /// (this is the hot path used by scans, which emit positions in order).
    pub fn from_sorted_vec(positions: Vec<RowId>) -> Self {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        PositionList { positions }
    }

    /// A contiguous range of positions `[start, end)`.
    pub fn from_range(start: RowId, end: RowId) -> Self {
        PositionList {
            positions: (start..end).collect(),
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when no row qualifies.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Append a position that is strictly greater than every current one.
    #[inline]
    pub fn push(&mut self, position: RowId) {
        debug_assert!(self.positions.last().is_none_or(|&last| last < position));
        self.positions.push(position);
    }

    /// The positions as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[RowId] {
        &self.positions
    }

    /// Iterate over positions.
    pub fn iter(&self) -> impl Iterator<Item = RowId> + '_ {
        self.positions.iter().copied()
    }

    /// Whether `position` is contained (binary search).
    pub fn contains(&self, position: RowId) -> bool {
        self.positions.binary_search(&position).is_ok()
    }

    /// Consume and return the raw vector.
    pub fn into_vec(self) -> Vec<RowId> {
        self.positions
    }

    /// Set intersection (linear merge).
    pub fn intersect(&self, other: &PositionList) -> PositionList {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        while i < self.positions.len() && j < other.positions.len() {
            match self.positions[i].cmp(&other.positions[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.positions[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        PositionList { positions: out }
    }

    /// Set union (linear merge).
    pub fn union(&self, other: &PositionList) -> PositionList {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(self.len() + other.len());
        while i < self.positions.len() && j < other.positions.len() {
            match self.positions[i].cmp(&other.positions[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.positions[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.positions[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.positions[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.positions[i..]);
        out.extend_from_slice(&other.positions[j..]);
        PositionList { positions: out }
    }

    /// Set difference: positions in `self` but not in `other`.
    pub fn difference(&self, other: &PositionList) -> PositionList {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(self.len());
        while i < self.positions.len() && j < other.positions.len() {
            match self.positions[i].cmp(&other.positions[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.positions[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.positions[i..]);
        PositionList { positions: out }
    }

    /// Selectivity of this list relative to a column of `total` rows.
    pub fn selectivity(&self, total: usize) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.len() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_sorts_and_dedups() {
        let p = PositionList::from_vec(vec![5, 1, 3, 1, 5]);
        assert_eq!(p.as_slice(), &[1, 3, 5]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn ordering_routine_equals_sort_unstable() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 32) as RowId
        };
        // row-id ceilings: one radix digit, two, and the full 32-bit width
        for ceiling in [1u64 << 10, 1 << 20, 1 << 32] {
            for len in [0usize, 1, 255, 256, 257, 1 << 20] {
                // distinct ids spread over [0, ceiling), the last one pinned
                // to the largest id the ceiling admits
                let len = len.min(ceiling as usize);
                let stride = (ceiling / len.max(1) as u64).max(1);
                let ascending: Vec<RowId> = (0..len as u64)
                    .map(|i| if i + 1 == len as u64 { ceiling - 1 } else { i * stride } as RowId)
                    .collect();
                let reversed: Vec<RowId> = ascending.iter().rev().copied().collect();
                let mut shuffled = ascending.clone();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, next() as usize % (i + 1));
                }
                for input in [ascending.clone(), reversed, shuffled] {
                    let mut expected = input.clone();
                    expected.sort_unstable();
                    assert_eq!(expected, ascending);
                    let ordered = PositionList::from_distinct(input.clone());
                    assert_eq!(ordered.as_slice(), expected, "len {len} below {ceiling}");
                    assert_eq!(PositionList::from_vec(input).as_slice(), expected);
                }
            }
        }
        // arbitrary input with duplicates goes through the same routine
        let noisy: Vec<RowId> = (0..5000).map(|_| next() % 700).collect();
        let mut expected = noisy.clone();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(PositionList::from_vec(noisy).as_slice(), expected);
        assert_eq!(
            PositionList::from_distinct(vec![RowId::MAX, 0, 7]).as_slice(),
            &[0, 7, RowId::MAX]
        );
    }

    #[test]
    fn range_and_contains() {
        let p = PositionList::from_range(2, 6);
        assert_eq!(p.as_slice(), &[2, 3, 4, 5]);
        assert!(p.contains(4));
        assert!(!p.contains(6));
    }

    #[test]
    fn push_preserves_order() {
        let mut p = PositionList::new();
        p.push(1);
        p.push(4);
        p.push(9);
        assert_eq!(p.as_slice(), &[1, 4, 9]);
    }

    #[test]
    fn intersect_union_difference() {
        let a = PositionList::from_vec(vec![1, 2, 3, 5, 8]);
        let b = PositionList::from_vec(vec![2, 3, 4, 8, 9]);
        assert_eq!(a.intersect(&b).as_slice(), &[2, 3, 8]);
        assert_eq!(a.union(&b).as_slice(), &[1, 2, 3, 4, 5, 8, 9]);
        assert_eq!(a.difference(&b).as_slice(), &[1, 5]);
        assert_eq!(b.difference(&a).as_slice(), &[4, 9]);
    }

    #[test]
    fn set_ops_with_empty() {
        let a = PositionList::from_vec(vec![1, 2]);
        let e = PositionList::new();
        assert_eq!(a.intersect(&e), e);
        assert_eq!(a.union(&e), a);
        assert_eq!(a.difference(&e), a);
        assert_eq!(e.difference(&a), e);
    }

    #[test]
    fn selectivity() {
        let p = PositionList::from_range(0, 25);
        assert!((p.selectivity(100) - 0.25).abs() < 1e-12);
        assert_eq!(PositionList::new().selectivity(0), 0.0);
    }

    #[test]
    fn iterators_and_conversions() {
        let p = PositionList::from_vec(vec![3, 1, 2]);
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(p.clone().into_vec(), vec![1, 2, 3]);
        let r = PositionList::from_sorted_vec(vec![1, 2, 3]);
        assert_eq!(r.len(), 3);
        let s = PositionList::with_capacity(8);
        assert!(s.is_empty());
    }
}
