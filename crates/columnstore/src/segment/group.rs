//! Row ids grouped by the chunk that holds them.
//!
//! An adaptive index answers with the row ids of a cracked piece in piece
//! order, scattered over the whole column. Reading their values one id at a
//! time jumps between separately allocated chunks on every read; ordering
//! them first costs as much as the reads. [`Segment::group_by_chunk`] does
//! neither: one counting pass and one scatter bring the ids of each chunk
//! together, so a consumer resolves every chunk (and its zone map) once and
//! reads inside one 32 KiB allocation at a time. Order *within* a group is
//! left as it came; [`ChunkGroups::into_positions`] orders each group in
//! place when a consumer needs ascending positions, which costs a small sort
//! per chunk instead of a radix sort of the whole answer.

use super::Segment;
use crate::position::{order_row_ids, PositionList};
use crate::types::RowId;
use std::borrow::Cow;

/// One chunk's stretch of a [`ChunkGroups`]: the ids at `start..end` of
/// [`ChunkGroups::ids`] all lie in chunk number `chunk` (counted in
/// [`Segment::chunks`] order, the tail last).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpan {
    /// Index of the chunk in [`Segment::chunks`] order.
    pub chunk: usize,
    /// First id of the group in [`ChunkGroups::ids`].
    pub start: usize,
    /// One past the last id of the group.
    pub end: usize,
}

/// Distinct row ids grouped by chunk: groups in ascending chunk order, ids
/// in any order inside a group, and no empty group.
///
/// Built by [`Segment::group_by_chunk`], filtered group by group, and turned
/// into an ascending [`PositionList`] by [`ChunkGroups::into_positions`].
/// The spans refer to the chunk layout of the segment that grouped the ids;
/// [`Segment::regroup`] carries groups over to a segment whose chunks are
/// cut differently.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkGroups<'a> {
    ids: Cow<'a, [RowId]>,
    spans: Vec<ChunkSpan>,
}

impl ChunkGroups<'_> {
    /// No ids, with room for `capacity` of them.
    pub fn with_capacity(capacity: usize) -> ChunkGroups<'static> {
        ChunkGroups {
            ids: Cow::Owned(Vec::with_capacity(capacity)),
            spans: Vec::new(),
        }
    }

    /// Number of ids across all groups.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no id is held.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Every id, group after group.
    pub fn ids(&self) -> &[RowId] {
        &self.ids
    }

    /// The groups, in ascending chunk order.
    pub fn spans(&self) -> &[ChunkSpan] {
        &self.spans
    }

    /// The ids of one group.
    #[inline]
    pub fn group(&self, span: &ChunkSpan) -> &[RowId] {
        &self.ids[span.start..span.end]
    }

    /// Append a group for chunk `chunk`, which must come after every chunk
    /// already held: `fill` pushes the group's ids onto the end of the id
    /// buffer. A `fill` that pushes nothing adds no group.
    pub fn push_group(&mut self, chunk: usize, fill: impl FnOnce(&mut Vec<RowId>)) {
        debug_assert!(self.spans.last().is_none_or(|s| s.chunk < chunk));
        let ids = self.ids.to_mut();
        let start = ids.len();
        fill(ids);
        let end = ids.len();
        if end > start {
            self.spans.push(ChunkSpan { chunk, start, end });
        }
    }

    /// Append the groups of `other`, whose chunks all come after this one's.
    pub fn append(&mut self, other: ChunkGroups<'_>) {
        debug_assert!(match (self.spans.last(), other.spans.first()) {
            (Some(last), Some(first)) => last.chunk < first.chunk,
            _ => true,
        });
        let offset = self.ids.len();
        self.ids.to_mut().extend_from_slice(&other.ids);
        self.spans.extend(other.spans.iter().map(|span| ChunkSpan {
            chunk: span.chunk,
            start: span.start + offset,
            end: span.end + offset,
        }));
    }

    /// The ids as a strictly ascending [`PositionList`]: each group is
    /// ordered in place (groups already ascend, so nothing moves between
    /// them). A group of a few dozen ids takes the ordering routine's
    /// small-sort branch; an already ascending group costs one comparison
    /// pass.
    pub fn into_positions(self) -> PositionList {
        let mut ids = self.ids.into_owned();
        for span in &self.spans {
            order_row_ids(&mut ids[span.start..span.end]);
        }
        PositionList::from_sorted_vec(ids)
    }
}

impl<T: Copy + PartialOrd + std::fmt::Debug> Segment<T> {
    /// Group distinct row ids by the chunk that holds them.
    ///
    /// Ids that already ascend are split at the chunk bounds in place (one
    /// comparison pass to find out, one binary search per chunk, no copy).
    /// Any other order takes one pass that looks up every id's chunk and
    /// counts per chunk, then one counting scatter. Inside a group the ids
    /// keep their input order.
    ///
    /// # Panics
    /// Panics when an id is not a position of this segment.
    pub fn group_by_chunk<'a>(&self, ids: &'a [RowId]) -> ChunkGroups<'a> {
        if ids.windows(2).all(|w| w[0] < w[1]) {
            return self.split_ascending(ids);
        }
        // full chunks a power of two long: the chunk is a shift of the id,
        // tail included. `residual_stage/group_pass` (50 000 ids of a 1 M-row
        // column, 2 vCPUs, four alternating runs) reads 171-205 us with the
        // shift and 268-298 us through the lookup below
        if self.uniform && self.capacity.is_power_of_two() {
            let shift = self.capacity.trailing_zeros();
            return self.scatter_by_chunk(ids, |p| (p >> shift) as usize);
        }
        let (sealed, sealed_rows) = (self.sealed.len(), self.sealed_rows);
        self.scatter_by_chunk(ids, |p| {
            if (p as usize) < sealed_rows {
                self.sealed_chunk_index(p as usize)
            } else {
                sealed
            }
        })
    }

    /// The counting scatter of [`Segment::group_by_chunk`]: count the ids
    /// per chunk (`chunk_of`), turn the counts into group offsets, and move
    /// each id to its group's next free slot. `chunk_of` runs twice per id
    /// rather than storing a tag per id.
    #[inline]
    fn scatter_by_chunk<'a>(
        &self,
        ids: &[RowId],
        chunk_of: impl Fn(RowId) -> usize,
    ) -> ChunkGroups<'a> {
        assert!(
            u32::try_from(ids.len()).is_ok(),
            "group counters are 32-bit"
        );
        // four interleaved histograms (an id past the last chunk panics
        // here): `residual_stage/group_pass` reads 171-205 us with four and
        // 228-238 us with one, in the same alternating runs
        let mut lanes = vec![[0u32; 4]; self.chunk_count()];
        let mut quads = ids.chunks_exact(4);
        for quad in &mut quads {
            for (lane, &id) in quad.iter().enumerate() {
                lanes[chunk_of(id)][lane] += 1;
            }
        }
        for &id in quads.remainder() {
            lanes[chunk_of(id)][0] += 1;
        }
        let mut spans = Vec::new();
        let mut next = Vec::with_capacity(lanes.len());
        let mut start = 0;
        for (chunk, lane) in lanes.iter().enumerate() {
            let end = start + lane.iter().sum::<u32>() as usize;
            if end > start {
                spans.push(ChunkSpan { chunk, start, end });
            }
            next.push(start as u32);
            start = end;
        }
        let mut grouped: Vec<RowId> = vec![0; ids.len()];
        for &id in ids {
            let slot = &mut next[chunk_of(id)];
            grouped[*slot as usize] = id;
            *slot += 1;
        }
        // an id past the end of the tail lands in the tail's group
        if let Some(tail) = spans.last().filter(|s| s.chunk == self.sealed.len()) {
            assert!(
                grouped[tail.start..tail.end]
                    .iter()
                    .all(|&p| (p as usize) < self.len()),
                "row id past the end of the segment"
            );
        }
        ChunkGroups {
            ids: Cow::Owned(grouped),
            spans,
        }
    }

    /// `groups` grouped by this segment's chunks: returned as they are when
    /// `grouped_by` (the segment that grouped them) has this segment's chunk
    /// layout, grouped afresh otherwise — a column compacted or fragmented
    /// differently from its neighbours is never read through another
    /// column's chunk bounds.
    pub fn regroup<'a, U: Copy + PartialOrd + std::fmt::Debug>(
        &self,
        groups: ChunkGroups<'a>,
        grouped_by: &Segment<U>,
    ) -> ChunkGroups<'a> {
        if self.same_chunk_layout(grouped_by) {
            return groups;
        }
        let fresh = self.group_by_chunk(groups.ids());
        ChunkGroups {
            ids: Cow::Owned(fresh.ids.into_owned()),
            spans: fresh.spans,
        }
    }

    /// Whether `other` cuts the same rows into the same chunks.
    fn same_chunk_layout<U: Copy + PartialOrd + std::fmt::Debug>(
        &self,
        other: &Segment<U>,
    ) -> bool {
        self.len() == other.len()
            && self.sealed_rows == other.sealed_rows
            && self.bases == other.bases
    }

    /// Split ascending ids at the chunk bounds.
    fn split_ascending<'a>(&self, ids: &'a [RowId]) -> ChunkGroups<'a> {
        let mut spans = Vec::new();
        let mut start = 0;
        for (chunk, view) in self.chunks().enumerate() {
            if start == ids.len() {
                break;
            }
            let end = start + ids[start..].partition_point(|&p| p < view.end());
            if end > start {
                spans.push(ChunkSpan { chunk, start, end });
            }
            start = end;
        }
        assert_eq!(start, ids.len(), "row id past the end of the segment");
        ChunkGroups {
            ids: Cow::Borrowed(ids),
            spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shuffled(n: RowId, seed: u64) -> Vec<RowId> {
        let mut ids: Vec<RowId> = (0..n).collect();
        let mut state = seed;
        for i in (1..ids.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ids.swap(i, (state >> 33) as usize % (i + 1));
        }
        ids
    }

    /// Every group holds exactly the input ids of its chunk, in input order.
    fn assert_grouped(segment: &Segment<i64>, input: &[RowId], groups: &ChunkGroups<'_>) {
        assert_eq!(groups.len(), input.len());
        let chunks: Vec<_> = segment.chunks().collect();
        let mut covered = 0;
        let mut previous = None;
        for span in groups.spans() {
            assert_eq!(span.start, covered, "groups are contiguous");
            assert!(span.end > span.start, "no empty group");
            assert!(previous < Some(span.chunk), "chunks ascend");
            previous = Some(span.chunk);
            let chunk = &chunks[span.chunk];
            let expected: Vec<RowId> = input
                .iter()
                .copied()
                .filter(|&p| p >= chunk.base && p < chunk.end())
                .collect();
            assert_eq!(groups.group(span), expected.as_slice());
            covered = span.end;
        }
        assert_eq!(covered, input.len());
    }

    #[test]
    fn groups_hold_each_chunks_ids_in_input_order() {
        // power-of-two, other uniform, and fragmented layouts, with a tail
        let mut fragmented = Segment::with_chunk_capacity(8);
        for (i, v) in (0..100i64).enumerate() {
            fragmented.push(v);
            if i % 7 == 3 {
                fragmented.seal_tail();
            }
        }
        for segment in [
            Segment::from_vec_with_capacity((0..100).collect(), 16),
            Segment::from_vec_with_capacity((0..100).collect(), 10),
            fragmented,
        ] {
            for input in [
                shuffled(100, 7),
                shuffled(100, 7).into_iter().step_by(3).collect(),
                (0..100).rev().collect(),
                (0..100).step_by(5).collect(),
                vec![99],
                vec![],
            ] {
                let groups = segment.group_by_chunk(&input);
                assert_grouped(&segment, &input, &groups);
                let mut expected = input.clone();
                expected.sort_unstable();
                assert_eq!(groups.clone().into_positions().as_slice(), expected);
            }
        }
    }

    #[test]
    fn ascending_input_is_split_in_place() {
        let segment = Segment::from_vec_with_capacity((0..1000i64).collect(), 64);
        let positions = PositionList::from_sorted_vec((0..1000).step_by(7).collect());
        let groups = segment.group_by_chunk(positions.as_slice());
        assert!(matches!(groups.ids, Cow::Borrowed(_)), "no copy");
        assert_grouped(&segment, positions.as_slice(), &groups);
        assert_eq!(groups.into_positions(), positions);
    }

    #[test]
    #[should_panic]
    fn ids_past_the_end_panic() {
        let segment = Segment::from_vec_with_capacity((0..100i64).collect(), 16);
        segment.group_by_chunk(&[5, 100, 3]);
    }

    #[test]
    fn regroup_follows_the_new_layout_only_when_it_differs() {
        let uniform = Segment::from_vec_with_capacity((0..200i64).collect(), 32);
        let same = Segment::from_vec_with_capacity((1000..1200i64).collect(), 32);
        let other = Segment::from_vec_with_capacity((0..200i64).collect(), 50);
        assert!(uniform.same_chunk_layout(&same));
        assert!(!uniform.same_chunk_layout(&other));
        let input = shuffled(200, 3);
        let groups = uniform.group_by_chunk(&input);
        assert_eq!(same.regroup(groups.clone(), &uniform), groups);
        let regrouped = other.regroup(groups.clone(), &uniform);
        assert_grouped(&other, groups.ids(), &regrouped);
        assert_eq!(regrouped.spans().len(), 4);
    }

    #[test]
    fn push_group_and_append_keep_spans_consistent() {
        let mut left = ChunkGroups::with_capacity(4);
        left.push_group(0, |ids| ids.extend_from_slice(&[3, 1]));
        left.push_group(1, |_| {});
        let mut right = ChunkGroups::with_capacity(4);
        right.push_group(2, |ids| ids.extend_from_slice(&[9, 8, 10]));
        left.append(right);
        assert_eq!(left.ids(), &[3, 1, 9, 8, 10]);
        assert_eq!(
            left.spans(),
            &[
                ChunkSpan {
                    chunk: 0,
                    start: 0,
                    end: 2
                },
                ChunkSpan {
                    chunk: 2,
                    start: 2,
                    end: 5
                }
            ]
        );
        assert_eq!(left.into_positions().as_slice(), &[1, 3, 8, 9, 10]);
    }
}
