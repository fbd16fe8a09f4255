//! Updating a cracked database (Idreos, Kersten, Manegold — SIGMOD 2007).
//!
//! Updates follow the same adaptive philosophy as the index itself: they are
//! *not* applied eagerly. Insertions and deletions are staged in pending
//! areas and merged into the cracker column lazily, during query
//! processing, and only as much as the chosen merge policy demands:
//!
//! * [`MergePolicy::MergeCompletely`] — the first query after updates merges
//!   every pending tuple (the simplest, most disruptive strategy),
//! * [`MergePolicy::MergeGradually`] — each query merges at most a fixed
//!   number of pending tuples that fall inside its range,
//! * [`MergePolicy::MergeRipple`] — each query merges exactly the pending
//!   tuples that fall inside its range, using the *ripple* mechanism: a
//!   piece above the merged tuples moves a few tuples from its front to its
//!   end instead of the whole column tail shifting.
//!
//! Whatever is not merged yet is still reflected in query answers: results
//! combine the cracker column with the relevant pending tuples, so answers
//! are complete before any merge ("updates are applied on demand").
//!
//! # Costs
//!
//! Both pending areas are ordered by `(key, row id)`, so nothing here walks
//! one:
//!
//! * staging an insertion is O(log pending); staging a deletion adds a scan
//!   of the one piece the key falls into,
//! * a query finds the tuples it is due — to merge, to add to its answer or
//!   to mask from it — in O(log pending + due),
//! * merging `m` due insertions is one descending pass over the pieces above
//!   the smallest due key: each piece moves at most `m` tuples and has its
//!   cut moved in place in the cracker index, so the merge costs
//!   O(pieces above + m) piece visits — not `m` passes over every cut. A
//!   merged deletion is one ascending pass over the pieces above its key,
//!   one tuple moved per piece.

use crate::cracker_column::CrackerColumn;
use crate::index::VisitOrder;
use crate::selection::{CrackedIndex, RangeResult, CONVERGED_PIECE_LEN};
use crate::stats::CrackStats;
use aidx_columnstore::index::{AdaptiveIndex, QueryOutput};
use aidx_columnstore::types::{Key, RowId};
use std::collections::BTreeSet;

/// How aggressively pending updates are merged during query processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// Merge all pending updates on the next query, regardless of its range.
    MergeCompletely,
    /// Merge at most this many pending updates per query, restricted to the
    /// query's range.
    MergeGradually {
        /// Maximum number of pending tuples merged per query.
        batch: usize,
    },
    /// Merge exactly the pending updates falling inside the query's range.
    MergeRipple,
}

/// A query answer that owns its data (the updatable index may consult both
/// the cracker column and the pending areas, so it cannot hand out one
/// contiguous borrowed slice).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateQueryAnswer {
    /// Qualifying key values.
    pub keys: Vec<Key>,
    /// Row ids parallel to `keys`.
    pub rowids: Vec<RowId>,
}

impl UpdateQueryAnswer {
    /// Number of qualifying tuples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no tuple qualifies.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// A pending area: staged tuples in `(key, row id)` order.
type PendingArea = BTreeSet<(Key, RowId)>;

/// The tuples of `area` with a key in `[low, high)`, ascending; none for an
/// empty or inverted range (which `BTreeSet::range` would panic on).
fn pending_in(area: &PendingArea, low: Key, high: Key) -> impl Iterator<Item = &(Key, RowId)> {
    area.range((low, RowId::MIN)..(high.max(low), RowId::MIN))
}

/// Append the answer of `[low, high)` to `rowids`, and its keys to `keys`
/// when asked: the cracked `piece` less the tuples pending deletion, then
/// the tuples pending insertion inside the range.
fn collect_answer(
    piece: &RangeResult<'_>,
    inserts: &PendingArea,
    deletes: &PendingArea,
    low: Key,
    high: Key,
    rowids: &mut Vec<RowId>,
    mut keys: Option<&mut Vec<Key>>,
) {
    if pending_in(deletes, low, high).next().is_none() {
        rowids.extend_from_slice(piece.rowids());
        if let Some(keys) = keys.as_deref_mut() {
            keys.extend_from_slice(piece.keys());
        }
    } else {
        for (&key, &rowid) in piece.keys().iter().zip(piece.rowids()) {
            if !deletes.contains(&(key, rowid)) {
                rowids.push(rowid);
                if let Some(keys) = keys.as_deref_mut() {
                    keys.push(key);
                }
            }
        }
    }
    for &(key, rowid) in pending_in(inserts, low, high) {
        rowids.push(rowid);
        if let Some(keys) = keys.as_deref_mut() {
            keys.push(key);
        }
    }
}

/// Take the first `budget` tuples of [`pending_in`] out of `area`.
fn take_pending_in(
    area: &mut PendingArea,
    low: Key,
    high: Key,
    budget: usize,
) -> Vec<(Key, RowId)> {
    let due: Vec<(Key, RowId)> = pending_in(area, low, high).take(budget).copied().collect();
    for tuple in &due {
        area.remove(tuple);
    }
    due
}

/// A selection-cracking index that supports adaptive insertions and deletions.
#[derive(Debug, Clone)]
pub struct UpdatableCrackedIndex {
    index: CrackedIndex,
    policy: MergePolicy,
    pending_inserts: PendingArea,
    /// Names tuples of the cracker column only: deleting a tuple that is
    /// still a pending insertion just unstages it.
    pending_deletes: PendingArea,
    next_rowid: RowId,
    merged_inserts: u64,
    merged_deletes: u64,
}

impl UpdatableCrackedIndex {
    /// Build from a dense key slice; row ids `0..n` refer to those keys.
    pub fn from_keys(keys: &[Key], policy: MergePolicy) -> Self {
        Self::from_chunks(&[keys], None, policy)
    }

    /// Build from a base column stored as `chunks`, cracked on the
    /// `[low, high)` of the query that triggers the build, if there is one
    /// (see [`CrackedIndex::from_chunks`]).
    pub fn from_chunks(
        chunks: &[&[Key]],
        first_query: Option<(Key, Key)>,
        policy: MergePolicy,
    ) -> Self {
        let index = CrackedIndex::from_chunks(chunks, first_query);
        let next_rowid = index.len() as RowId;
        UpdatableCrackedIndex {
            index,
            policy,
            pending_inserts: PendingArea::new(),
            pending_deletes: PendingArea::new(),
            next_rowid,
            merged_inserts: 0,
            merged_deletes: 0,
        }
    }

    /// Total number of live tuples (indexed + pending inserts − pending deletes).
    pub fn len(&self) -> usize {
        self.index.len() + self.pending_inserts.len() - self.pending_deletes.len()
    }

    /// True when no live tuple exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tuples waiting in the pending-insertions area.
    pub fn pending_insert_count(&self) -> usize {
        self.pending_inserts.len()
    }

    /// Number of tuples waiting in the pending-deletions area.
    pub fn pending_delete_count(&self) -> usize {
        self.pending_deletes.len()
    }

    /// How many pending insertions have been merged into the cracker column.
    pub fn merged_insert_count(&self) -> u64 {
        self.merged_inserts
    }

    /// How many pending deletions have been applied to the cracker column.
    pub fn merged_delete_count(&self) -> u64 {
        self.merged_deletes
    }

    /// The active merge policy.
    pub fn policy(&self) -> MergePolicy {
        self.policy
    }

    /// Change the merge policy (e.g. to study the trade-off in a benchmark).
    pub fn set_policy(&mut self, policy: MergePolicy) {
        self.policy = policy;
    }

    /// Accumulated instrumentation of the underlying cracked index.
    pub fn stats(&self) -> &CrackStats {
        self.index.stats()
    }

    /// Number of pieces in the cracker column.
    pub fn piece_count(&self) -> usize {
        self.index.piece_count()
    }

    /// Stage an insertion; returns the row id assigned to the new tuple.
    pub fn insert(&mut self, key: Key) -> RowId {
        let rowid = self.next_rowid;
        self.next_rowid += 1;
        self.pending_inserts.insert((key, rowid));
        rowid
    }

    /// Stage a deletion of the tuple `(key, rowid)`. If the tuple is still in
    /// the pending-insertions area it is simply dropped from there. Returns
    /// `true` when the tuple was known (either pending or indexed).
    pub fn delete(&mut self, key: Key, rowid: RowId) -> bool {
        // staging a deletion twice is refused by the set
        self.pending_inserts.remove(&(key, rowid))
            || (self.index.position_of(key, rowid).is_some()
                && self.pending_deletes.insert((key, rowid)))
    }

    /// Answer the half-open range query `[low, high)`, merging pending
    /// updates according to the configured policy first.
    pub fn query_range(&mut self, low: Key, high: Key) -> UpdateQueryAnswer {
        let mut keys = Vec::new();
        let rowids = self.answer(low, high, Some(&mut keys));
        UpdateQueryAnswer { keys, rowids }
    }

    /// [`Self::query_range`] for a caller that gathers by row id and never
    /// looks at the keys: the same tuples, the keys not copied.
    pub fn query_rowids(&mut self, low: Key, high: Key) -> Vec<RowId> {
        self.answer(low, high, None)
    }

    /// Count the qualifying tuples of `[low, high)`: the answer's piece
    /// bounds, less the pending deletions and plus the pending insertions
    /// inside the range. Merges and cracks like any query; copies nothing.
    pub fn count_range(&mut self, low: Key, high: Key) -> usize {
        self.count_and_copy(low, high, 0, &mut Vec::new())
    }

    /// [`Self::count_range`], appending the row ids to `out` as
    /// [`Self::query_rowids`] returns them when there are fewer than
    /// `copy_below`.
    fn count_and_copy(
        &mut self,
        low: Key,
        high: Key,
        copy_below: usize,
        out: &mut Vec<RowId>,
    ) -> usize {
        self.merge_for_query(low, high);
        let piece = self.index.query_range(low, high);
        // a pending deletion names a tuple of the cracker column, once
        let count = piece.len() - pending_in(&self.pending_deletes, low, high).count()
            + pending_in(&self.pending_inserts, low, high).count();
        if count < copy_below {
            out.reserve(count);
            let (inserts, deletes) = (&self.pending_inserts, &self.pending_deletes);
            collect_answer(&piece, inserts, deletes, low, high, out, None);
        }
        count
    }

    /// The row ids of `[low, high)` — and, for a caller that asks, the keys
    /// parallel to them. Remaining pending deletions mask indexed tuples;
    /// remaining pending insertions contribute extra ones.
    fn answer(&mut self, low: Key, high: Key, keys: Option<&mut Vec<Key>>) -> Vec<RowId> {
        self.merge_for_query(low, high);
        let piece = self.index.query_range(low, high);
        let mut rowids = Vec::with_capacity(piece.len());
        let (inserts, deletes) = (&self.pending_inserts, &self.pending_deletes);
        collect_answer(&piece, inserts, deletes, low, high, &mut rowids, keys);
        rowids
    }

    /// Merge what the policy says the query `[low, high)` is due: insertions
    /// first, in one batch, then deletions out of what is left of the budget.
    fn merge_for_query(&mut self, low: Key, high: Key) {
        let budget = match self.policy {
            MergePolicy::MergeCompletely => {
                let inserts: Vec<(Key, RowId)> = std::mem::take(&mut self.pending_inserts)
                    .into_iter()
                    .collect();
                self.merge_inserts(&inserts);
                for (key, rowid) in std::mem::take(&mut self.pending_deletes) {
                    self.ripple_delete(key, rowid);
                }
                return;
            }
            MergePolicy::MergeGradually { batch } => batch,
            MergePolicy::MergeRipple => usize::MAX,
        };
        let inserts = take_pending_in(&mut self.pending_inserts, low, high, budget);
        self.merge_inserts(&inserts);
        let budget = budget - inserts.len();
        for (key, rowid) in take_pending_in(&mut self.pending_deletes, low, high, budget) {
            self.ripple_delete(key, rowid);
        }
    }

    /// Merge `due` — tuples ascending by key — into the cracker column with
    /// one ripple: append a slot per tuple, then walk the pieces above the
    /// smallest due key from the top down. A piece that `below` due tuples
    /// sit under has to start `below` slots later, so it moves that many
    /// tuples (all of them, if it is shorter) from its front to just past
    /// its end — free, because everything above has moved already — and the
    /// due tuples that belong to it are written behind them.
    fn merge_inserts(&mut self, due: &[(Key, RowId)]) {
        let (Some(&(lowest, _)), Some(&(highest, _))) = (due.first(), due.last()) else {
            return;
        };
        let was_empty = self.index.is_empty();
        let (column, cuts, stats) = self.index.parts_mut();
        // the end, before the merge, of the piece being placed
        let mut end = column.len();
        for &(key, rowid) in due {
            column.push(key, rowid);
        }
        let (values, rowids) = column.pair_slices_mut();
        let place =
            |values: &mut [Key], rowids: &mut [RowId], at: usize, tuples: &[(Key, RowId)]| {
                for (slot, &(key, rowid)) in tuples.iter().enumerate() {
                    values[at + slot] = key;
                    rowids[at + slot] = rowid;
                }
            };
        // `due[..unplaced]` sit below the upper bound of that piece
        let mut unplaced = due.len();
        cuts.visit_above(lowest, VisitOrder::Descending, |cut_key, position| {
            let begin = *position;
            let below = due[..unplaced].partition_point(|&(key, _)| key < cut_key);
            let moved = below.min(end - begin);
            values.copy_within(begin..begin + moved, end + below - moved);
            rowids.copy_within(begin..begin + moved, end + below - moved);
            place(values, rowids, end + below, &due[below..unplaced]);
            *position = begin + below;
            end = begin;
            unplaced = below;
        });
        place(values, rowids, end, &due[..unplaced]);
        stats.record_merge(due.len());
        self.index.widen_min_max(lowest, highest, was_empty);
        self.merged_inserts += due.len() as u64;
    }

    /// Delete `(key, rowid)` from the cracker column using the reverse
    /// ripple: the hole the pair leaves is filled with the last pair of its
    /// piece, which opens a hole just below the next piece; that piece starts
    /// one slot earlier and fills the hole with its own last pair, and so on
    /// up to the end of the column, which shrinks by one.
    fn ripple_delete(&mut self, key: Key, rowid: RowId) {
        let Some(mut hole) = self.index.position_of(key, rowid) else {
            return;
        };
        let (column, cuts, stats) = self.index.parts_mut();
        // fill the hole with the pair at `last`, which leaves the hole there
        let fill_from = |column: &mut CrackerColumn, hole: &mut usize, last: usize| {
            column.set(*hole, column.value(last), column.rowid(last));
            *hole = last;
        };
        cuts.visit_above(key, VisitOrder::Ascending, |_, position| {
            // the hole's piece is not empty, so the cut above it is not at 0
            *position -= 1;
            fill_from(column, &mut hole, *position);
        });
        let last = column.len() - 1;
        fill_from(column, &mut hole, last);
        column.truncate(last);
        stats.record_merge(1);
        self.index.narrow_min_max(key);
        self.merged_deletes += 1;
    }

    /// Verify structural invariants of the underlying index plus the pending
    /// areas (no tuple may be both pending-inserted and pending-deleted).
    pub fn verify_integrity(&self) -> bool {
        self.index.verify_integrity() && self.pending_inserts.is_disjoint(&self.pending_deletes)
    }

    /// The underlying cracked index (for inspection in tests / harnesses).
    pub fn index(&self) -> &CrackedIndex {
        &self.index
    }
}

impl AdaptiveIndex for UpdatableCrackedIndex {
    fn len(&self) -> usize {
        UpdatableCrackedIndex::len(self)
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(self.query_rowids(low, high))
    }
    fn count_range(
        &mut self,
        low: Key,
        high: Key,
        copy_below: usize,
        out: &mut Vec<RowId>,
    ) -> Option<usize> {
        Some(self.count_and_copy(low, high, copy_below, out))
    }
    /// The piece between the two cuts plus the pending insertions inside
    /// the range; `false` while a pending deletion falls inside it.
    fn read_range(&self, low: Key, high: Key, out: &mut Vec<RowId>) -> bool {
        if pending_in(&self.pending_deletes, low, high)
            .next()
            .is_some()
        {
            return false;
        }
        let Some((begin, end)) = self.index.cut_bounds(low, high) else {
            return false;
        };
        out.extend_from_slice(&self.index.column().rowids()[begin..end]);
        out.extend(pending_in(&self.pending_inserts, low, high).map(|&(_, rowid)| rowid));
        true
    }
    fn effort(&self) -> u64 {
        self.stats().total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        let pending = self.pending_inserts.len() + self.pending_deletes.len();
        self.index.column().byte_size() + pending * std::mem::size_of::<(Key, RowId)>()
    }
    fn pieces(&self) -> usize {
        self.piece_count()
    }
    fn is_adaptive(&self) -> bool {
        true
    }
    fn is_converged(&self) -> bool {
        self.index.is_converged(CONVERGED_PIECE_LEN)
    }
    fn insert(&mut self, key: Key) -> bool {
        UpdatableCrackedIndex::insert(self, key);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(mut v: Vec<Key>) -> Vec<Key> {
        v.sort_unstable();
        v
    }

    /// Reference model: a plain vector of (key, rowid) pairs.
    #[derive(Default)]
    struct Model {
        live: Vec<(Key, RowId)>,
    }

    impl Model {
        fn from_keys(keys: &[Key]) -> Self {
            Model {
                live: keys
                    .iter()
                    .copied()
                    .enumerate()
                    .map(|(i, k)| (k, i as RowId))
                    .collect(),
            }
        }
        fn insert(&mut self, key: Key, rowid: RowId) {
            self.live.push((key, rowid));
        }
        fn delete(&mut self, key: Key, rowid: RowId) {
            self.live.retain(|&(k, r)| !(k == key && r == rowid));
        }
        fn range(&self, low: Key, high: Key) -> Vec<Key> {
            sorted(
                self.live
                    .iter()
                    .filter(|&&(k, _)| k >= low && k < high)
                    .map(|&(k, _)| k)
                    .collect(),
            )
        }
    }

    fn policies() -> Vec<MergePolicy> {
        vec![
            MergePolicy::MergeCompletely,
            MergePolicy::MergeGradually { batch: 2 },
            MergePolicy::MergeRipple,
        ]
    }

    #[test]
    fn insert_then_query_sees_new_tuples() {
        for policy in policies() {
            let data = vec![10, 50, 90];
            let mut idx = UpdatableCrackedIndex::from_keys(&data, policy);
            idx.insert(42);
            idx.insert(60);
            assert_eq!(idx.pending_insert_count(), 2);
            let answer = idx.query_range(40, 70);
            assert_eq!(sorted(answer.keys.clone()), vec![42, 50, 60], "{policy:?}");
            assert!(idx.verify_integrity(), "{policy:?}");
        }
    }

    #[test]
    fn counted_answers_read_back_with_their_pending_tuples() {
        for policy in policies() {
            let mut keys: Vec<Key> = (0..200).map(|i| (i * 7) % 200).collect();
            let mut idx = UpdatableCrackedIndex::from_keys(&keys, policy);
            for key in [45, 60, 61, 150] {
                idx.insert(key);
                keys.push(key);
            }
            let mut out = Vec::new();
            let count = AdaptiveIndex::count_range(&mut idx, 40, 70, 33, &mut out);
            assert_eq!(count, Some(30 + 3), "{policy:?}");
            assert!(out.is_empty(), "{policy:?}: 33 ids are not fewer than 33");
            let effort = AdaptiveIndex::effort(&idx);
            assert!(
                AdaptiveIndex::read_range(&idx, 40, 70, &mut out),
                "{policy:?}"
            );
            assert_eq!(AdaptiveIndex::effort(&idx), effort, "a read is no query");
            let read = sorted(out.iter().map(|&rowid| keys[rowid as usize]).collect());
            assert_eq!(
                read,
                sorted((40..70).chain([45, 60, 61]).collect()),
                "{policy:?}"
            );
            // a pending deletion inside the range leaves the read to the caller
            let rowid = keys.iter().position(|&k| k == 50).unwrap() as RowId;
            assert!(idx.delete(50, rowid));
            out.clear();
            let masked = AdaptiveIndex::read_range(&idx, 40, 70, &mut out);
            assert!(!masked && out.is_empty(), "{policy:?}");
            // with room for them, the count copies what a query answers
            let mut answering = idx.clone();
            let count = AdaptiveIndex::count_range(&mut idx, 40, 70, 64, &mut out);
            assert_eq!(count, Some(30 + 3 - 1), "{policy:?}");
            assert_eq!(out, answering.query_rowids(40, 70), "{policy:?}");
        }
    }

    #[test]
    fn delete_then_query_hides_tuples() {
        for policy in policies() {
            let data = vec![10, 20, 30, 40];
            let mut idx = UpdatableCrackedIndex::from_keys(&data, policy);
            assert!(idx.delete(20, 1));
            assert!(idx.delete(40, 3));
            let answer = idx.query_range(0, 100);
            assert_eq!(sorted(answer.keys.clone()), vec![10, 30], "{policy:?}");
            assert!(idx.verify_integrity(), "{policy:?}");
        }
    }

    #[test]
    fn delete_of_pending_insert_cancels_it() {
        let mut idx = UpdatableCrackedIndex::from_keys(&[1, 2], MergePolicy::MergeRipple);
        let rid = idx.insert(99);
        assert!(idx.delete(99, rid));
        assert_eq!(idx.pending_insert_count(), 0);
        assert_eq!(idx.pending_delete_count(), 0);
        assert_eq!(idx.count_range(0, 1000), 2);
    }

    #[test]
    fn delete_of_unknown_tuple_returns_false() {
        let mut idx = UpdatableCrackedIndex::from_keys(&[1, 2], MergePolicy::MergeRipple);
        assert!(!idx.delete(99, 57));
        assert!(!idx.delete(1, 1)); // rowid 1 holds key 2, not key 1
        assert!(idx.delete(2, 1));
        // double delete is rejected
        assert!(!idx.delete(2, 1));
    }

    #[test]
    fn merge_completely_drains_pending_on_first_query() {
        let data: Vec<Key> = (0..100).collect();
        let mut idx = UpdatableCrackedIndex::from_keys(&data, MergePolicy::MergeCompletely);
        for i in 0..10 {
            idx.insert(1000 + i);
        }
        idx.delete(5, 5);
        let _ = idx.query_range(0, 10);
        assert_eq!(idx.pending_insert_count(), 0);
        assert_eq!(idx.pending_delete_count(), 0);
        assert_eq!(idx.merged_insert_count(), 10);
        assert_eq!(idx.merged_delete_count(), 1);
        assert_eq!(idx.index().len(), 109);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn merge_ripple_only_merges_in_range_tuples() {
        let data: Vec<Key> = (0..100).collect();
        let mut idx = UpdatableCrackedIndex::from_keys(&data, MergePolicy::MergeRipple);
        // establish some pieces first
        let _ = idx.query_range(20, 40);
        let _ = idx.query_range(60, 80);
        idx.insert(25); // inside a future query range
        idx.insert(70); // outside it
        let answer = idx.query_range(20, 40);
        assert!(answer.keys.contains(&25));
        assert_eq!(idx.pending_insert_count(), 1, "70 stays pending");
        assert_eq!(idx.merged_insert_count(), 1);
        assert!(idx.verify_integrity());
        // the merged tuple is physically in the cracker column now
        assert!(idx.index().column().values().contains(&25));
    }

    #[test]
    fn merge_gradually_respects_batch_limit() {
        let data: Vec<Key> = (0..50).collect();
        let mut idx =
            UpdatableCrackedIndex::from_keys(&data, MergePolicy::MergeGradually { batch: 2 });
        for _ in 0..6 {
            idx.insert(25);
        }
        let a1 = idx.query_range(20, 30);
        assert_eq!(a1.keys.iter().filter(|&&k| k == 25).count(), 6 + 1);
        assert_eq!(idx.merged_insert_count(), 2);
        assert_eq!(idx.pending_insert_count(), 4);
        let _ = idx.query_range(20, 30);
        assert_eq!(idx.merged_insert_count(), 4);
        assert!(idx.verify_integrity());
        assert_eq!(idx.policy(), MergePolicy::MergeGradually { batch: 2 });
    }

    #[test]
    fn ripple_insert_preserves_piece_invariants() {
        let data: Vec<Key> = (0..200).rev().collect();
        let mut idx = UpdatableCrackedIndex::from_keys(&data, MergePolicy::MergeRipple);
        // crack into several pieces
        let _ = idx.query_range(50, 100);
        let _ = idx.query_range(120, 160);
        let pieces_before = idx.piece_count();
        // insert values hitting different pieces
        for &v in &[10, 55, 110, 130, 190] {
            idx.insert(v);
        }
        let answer = idx.query_range(0, 300);
        assert_eq!(answer.len(), 205);
        assert_eq!(idx.piece_count(), pieces_before);
        assert!(idx.verify_integrity());
        assert_eq!(idx.len(), 205);
    }

    #[test]
    fn interleaved_updates_and_queries_match_model() {
        for policy in policies() {
            let initial: Vec<Key> = (0..500).map(|i| (i * 71) % 500).collect();
            let mut idx = UpdatableCrackedIndex::from_keys(&initial, policy);
            let mut model = Model::from_keys(&initial);

            let mut state: u64 = 0xDEADBEEF;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as i64
            };

            for step in 0..300 {
                match step % 5 {
                    0 => {
                        let k = next() % 600;
                        let rid = idx.insert(k);
                        model.insert(k, rid);
                    }
                    1 => {
                        // delete a random live tuple from the model
                        if !model.live.is_empty() {
                            let pick = (next() as usize) % model.live.len();
                            let (k, r) = model.live[pick];
                            assert!(idx.delete(k, r), "{policy:?}: delete of live tuple failed");
                            model.delete(k, r);
                        }
                    }
                    _ => {
                        let a = next() % 600;
                        let b = next() % 600;
                        let (low, high) = if a <= b { (a, b) } else { (b, a) };
                        let answer = idx.query_range(low, high);
                        // a repeat may merge more pending tuples and so reorder
                        let mut rowids = idx.query_rowids(low, high);
                        rowids.sort_unstable();
                        let mut expected = answer.rowids.clone();
                        expected.sort_unstable();
                        assert_eq!(rowids, expected, "{policy:?}");
                        assert_eq!(idx.count_range(low, high), answer.len(), "{policy:?}");
                        assert_eq!(sorted(answer.keys), model.range(low, high), "{policy:?}");
                    }
                }
            }
            assert!(idx.verify_integrity(), "{policy:?}");
        }
    }

    #[test]
    fn min_max_follow_merged_inserts_and_deleted_extremes() {
        for policy in policies() {
            let data: Vec<Key> = (10..20).collect();
            let mut idx = UpdatableCrackedIndex::from_keys(&data, policy);
            let domain = |idx: &UpdatableCrackedIndex| {
                let values = idx.index().column().values();
                (*values.iter().min().unwrap(), *values.iter().max().unwrap())
            };
            let cached =
                |idx: &UpdatableCrackedIndex| (idx.index().min_value(), idx.index().max_value());

            // inserts beyond both ends of the domain widen the cached bounds
            let low_rid = idx.insert(-5);
            let high_rid = idx.insert(99);
            assert_eq!(idx.count_range(-100, 100), 12, "{policy:?}");
            assert_eq!(idx.pending_insert_count(), 0, "{policy:?}");
            assert_eq!(cached(&idx), (-5, 99), "{policy:?}");
            assert_eq!(cached(&idx), domain(&idx), "{policy:?}");
            // the short-circuits keyed on them still find the new extremes
            assert_eq!(idx.count_range(-5, -4), 1, "{policy:?}");
            assert_eq!(idx.count_range(99, 100), 1, "{policy:?}");

            // an interior insert leaves them alone
            idx.insert(15);
            assert_eq!(idx.count_range(-100, 100), 13, "{policy:?}");
            assert_eq!(cached(&idx), (-5, 99), "{policy:?}");

            // deleting the current extremes narrows them again
            assert!(idx.delete(-5, low_rid));
            assert!(idx.delete(99, high_rid));
            assert_eq!(idx.count_range(-100, 100), 11, "{policy:?}");
            assert_eq!(idx.pending_delete_count(), 0, "{policy:?}");
            assert_eq!(cached(&idx), (10, 19), "{policy:?}");
            assert_eq!(cached(&idx), domain(&idx), "{policy:?}");
            assert_eq!(idx.count_range(10, 11), 1, "{policy:?}");
            assert_eq!(idx.count_range(19, 20), 1, "{policy:?}");
            assert!(idx.verify_integrity(), "{policy:?}");
        }

        // an index that starts empty takes its first key as both bounds
        let mut idx = UpdatableCrackedIndex::from_keys(&[], MergePolicy::MergeRipple);
        idx.insert(-7);
        assert_eq!(idx.count_range(-10, 0), 1);
        assert_eq!((idx.index().min_value(), idx.index().max_value()), (-7, -7));
    }

    #[test]
    fn len_and_empty_reflect_pending_state() {
        let mut idx = UpdatableCrackedIndex::from_keys(&[], MergePolicy::MergeRipple);
        assert!(idx.is_empty());
        idx.insert(5);
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
        let mut idx = UpdatableCrackedIndex::from_keys(&[1, 2, 3], MergePolicy::MergeCompletely);
        idx.delete(2, 1);
        assert_eq!(idx.len(), 2);
        idx.set_policy(MergePolicy::MergeRipple);
        assert_eq!(idx.policy(), MergePolicy::MergeRipple);
    }
}
