//! Selection cracking: the core adaptive index of database cracking.
//!
//! [`CrackedIndex`] answers range selections over one attribute. Each query
//! physically reorganizes (cracks) exactly the pieces its bounds fall into,
//! records the new piece boundaries in the cracker index, and returns the
//! qualifying tuples — which, thanks to the cracking, are now stored
//! contiguously. Queries over already-learned bounds degrade gracefully into
//! pure index lookups with zero reorganization (the "overhead disappears when
//! a range has been fully optimized" property the tutorial highlights).
//!
//! # Insertions
//!
//! Insertions follow the same adaptive philosophy (Idreos, Kersten,
//! Manegold — SIGMOD 2007): [`CrackedIndex::insert`] only stages a tuple in
//! a pending area ordered by `(key, row id)`, O(log pending). A query merges
//! exactly the staged tuples inside its range before it cracks, with the
//! *ripple*: one descending pass over the pieces above the smallest merged
//! key, in which each piece moves at most as many tuples from its front to
//! just past its end as tuples are merged below it, and has its cut moved
//! in place — O(pieces above + merged) piece visits, not a shift of the
//! column's tail. Tuples outside every queried range stay staged, and the
//! answer stays one contiguous piece.
//!
//! An insertion whose key lies outside a narrow cracker column's frame
//! widens the column first ([`CrackerColumn::widen`]): once, O(n), counted in
//! [`CrackStats::widenings`], and with every cut and piece kept. The width
//! is a storage detail: cuts, pieces and effort are the same at both.

use crate::crack::CrackTouch;
use crate::cracker_column::{key_domain, CrackerColumn};
use crate::index::BTreeCutIndex;
use crate::stats::CrackStats;
use aidx_columnstore::index::{AdaptiveIndex, QueryOutput};
use aidx_columnstore::ops::select::Predicate;
use aidx_columnstore::types::{Key, RowId};
use std::collections::BTreeSet;

/// Description of one piece of the cracker column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// First position of the piece (inclusive).
    pub begin: usize,
    /// One past the last position of the piece (exclusive).
    pub end: usize,
    /// Lower bound on the values stored in the piece (inclusive), if known.
    pub low: Option<Key>,
    /// Upper bound on the values stored in the piece (exclusive), if known.
    pub high: Option<Key>,
}

impl Piece {
    /// Number of values in the piece.
    pub fn len(&self) -> usize {
        self.end - self.begin
    }

    /// True when the piece holds no values.
    pub fn is_empty(&self) -> bool {
        self.begin == self.end
    }
}

/// The contiguous region of the cracker column answering a range query.
#[derive(Debug)]
pub struct RangeResult<'a> {
    column: &'a CrackerColumn,
    begin: usize,
    end: usize,
}

impl<'a> RangeResult<'a> {
    /// Qualifying key values (unordered within the range), decoded into a
    /// fresh vector: a consumer that needs only positions reads
    /// [`Self::rowids`], which costs no copy.
    pub fn keys(&self) -> Vec<Key> {
        (self.begin..self.end)
            .map(|i| self.column.value(i))
            .collect()
    }

    /// Row ids (positions in the base column) of the qualifying tuples,
    /// parallel to [`Self::keys`]: distinct, in piece order. A consumer
    /// that gathers by position orders them first
    /// (`PositionList::from_distinct`); a consumer that counts never does.
    pub fn rowids(&self) -> &'a [RowId] {
        &self.column.rowids()[self.begin..self.end]
    }

    /// Number of qualifying tuples.
    pub fn len(&self) -> usize {
        self.end - self.begin
    }

    /// True when no tuple qualifies.
    pub fn is_empty(&self) -> bool {
        self.begin == self.end
    }

    /// The half-open range of cracker-column positions holding the answer.
    pub fn piece_bounds(&self) -> (usize, usize) {
        (self.begin, self.end)
    }
}

/// Staged insertions, in `(key, row id)` order.
type PendingArea = BTreeSet<(Key, RowId)>;

/// The tuples of `area` with a key in `[low, high)`, ascending; none for an
/// empty or inverted range (which `BTreeSet::range` would panic on).
fn pending_in(area: &PendingArea, low: Key, high: Key) -> impl Iterator<Item = &(Key, RowId)> {
    area.range((low, RowId::MIN)..(high.max(low), RowId::MIN))
}

/// A selection-cracking adaptive index over one key column, absorbing
/// insertions (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct CrackedIndex {
    column: CrackerColumn,
    cuts: BTreeCutIndex,
    stats: CrackStats,
    /// Cached over the cracker column, not the pending area.
    min_value: Key,
    max_value: Key,
    pending: PendingArea,
}

impl CrackedIndex {
    /// Build the index by copying a dense key slice (this is the
    /// initialization cost the first query pays in a real kernel; harnesses
    /// account for it explicitly): [`Self::from_chunks`] over one chunk,
    /// with no query to crack for.
    pub fn from_keys(keys: &[Key]) -> Self {
        Self::from_chunks(&[keys], key_domain(keys), None)
    }

    /// Build the index from a base column stored as `chunks` whose keys lie
    /// in `domain` (`None` for no keys), which decides the cracker column's
    /// width — and, given the `[low, high)` of the query that triggers the
    /// build, crack on it in the same pass ([`CrackerColumn::from_chunks`]),
    /// so the first query costs one read of the base column and one write of
    /// the copy.
    ///
    /// The index is then exactly what [`Self::from_keys`] followed by
    /// `query_range(low, high)` leaves, up to the order of pairs within a
    /// piece: the same cuts at the same positions, recorded under the same
    /// rule (a bound at or below the smallest key, or above the largest,
    /// cuts nothing), and the crack accounted as the one crack-in-three or
    /// crack-in-two that query would have run. It is not yet a query:
    /// `query_range(low, high)` afterwards finds both cuts in place and
    /// only reads the answer. An empty or inverted range builds uncracked.
    pub fn from_chunks(
        chunks: &[&[Key]],
        domain: Option<(Key, Key)>,
        first_query: Option<(Key, Key)>,
    ) -> Self {
        let bounds = first_query.filter(|(low, high)| low < high);
        let (column, placed) = CrackerColumn::from_chunks(chunks, domain, bounds);
        let (min_value, max_value) = placed.min_max.unwrap_or((0, 0));
        let mut stats = CrackStats::new();
        stats.record_copy(column.len());
        let mut cuts = BTreeCutIndex::new();
        if let Some((low, high)) = bounds {
            let touch = CrackTouch {
                compared: column.len(),
                swapped: placed.swapped,
            };
            let cuts_piece = |bound: Key| bound > min_value && bound <= max_value;
            match (cuts_piece(low), cuts_piece(high)) {
                (true, true) => stats.record_crack_in_three(touch),
                (false, false) => {}
                _ => stats.record_crack_in_two(touch),
            }
            if cuts_piece(low) {
                cuts.insert(low, placed.low_split);
            }
            if cuts_piece(high) {
                cuts.insert(high, placed.high_split);
            }
        }
        CrackedIndex {
            column,
            cuts,
            stats,
            min_value,
            max_value,
            pending: PendingArea::new(),
        }
    }

    /// Build from an existing cracker column (partial cracking's fragments,
    /// the hybrids' crack-organized sources), uncracked; the copy is charged
    /// to the index's statistics.
    pub fn from_cracker_column(column: CrackerColumn) -> Self {
        let (min_value, max_value) = column.domain().unwrap_or((0, 0));
        let mut stats = CrackStats::new();
        stats.record_copy(column.len());
        CrackedIndex {
            column,
            cuts: BTreeCutIndex::new(),
            stats,
            min_value,
            max_value,
            pending: PendingArea::new(),
        }
    }

    /// Number of tuples, the staged insertions included.
    pub fn len(&self) -> usize {
        self.column.len() + self.pending.len()
    }

    /// True when the index holds no tuples, staged or merged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying cracker column (merged tuples only).
    pub fn column(&self) -> &CrackerColumn {
        &self.column
    }

    /// Number of insertions staged and not merged yet.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Stage an insertion of `key`; returns the row id assigned to it, which
    /// continues the row ids the index holds (the base column's `0..n`). A
    /// key outside a narrow column's frame widens the column first, so every
    /// staged key can be merged.
    pub fn insert(&mut self, key: Key) -> RowId {
        if !self.column.fits(key) {
            self.column.widen();
            self.stats.record_widen(self.column.len());
        }
        let rowid = self.len() as RowId;
        self.pending.insert((key, rowid));
        rowid
    }

    /// Merge the staged tuples of `[low, high)` into the cracker column.
    fn merge_pending(&mut self, low: Key, high: Key) {
        let due: Vec<(Key, RowId)> = pending_in(&self.pending, low, high).copied().collect();
        for tuple in &due {
            self.pending.remove(tuple);
        }
        self.merge_inserts(&due);
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
        let was_empty = self.column.is_empty();
        // the end, before the merge, of the piece being placed
        let mut end = self.column.len();
        for &(key, rowid) in due {
            self.column.push(key, rowid);
        }
        let column = &mut self.column;
        let place = |column: &mut CrackerColumn, at: usize, tuples: &[(Key, RowId)]| {
            for (slot, &(key, rowid)) in tuples.iter().enumerate() {
                column.set(at + slot, key, rowid);
            }
        };
        // `due[..unplaced]` sit below the upper bound of that piece
        let mut unplaced = due.len();
        self.cuts.visit_above(lowest, |cut_key, position| {
            let begin = *position;
            let below = due[..unplaced].partition_point(|&(key, _)| key < cut_key);
            let moved = below.min(end - begin);
            column.copy_within(begin..begin + moved, end + below - moved);
            place(column, end + below, &due[below..unplaced]);
            *position = begin + below;
            end = begin;
            unplaced = below;
        });
        place(column, end, &due[..unplaced]);
        self.stats.record_merge(due.len());
        // O(1): a merge never rescans for the column's extremes
        if was_empty {
            (self.min_value, self.max_value) = (lowest, highest);
        } else {
            self.min_value = self.min_value.min(lowest);
            self.max_value = self.max_value.max(highest);
        }
    }

    /// Smallest merged key (undefined for an empty cracker column).
    pub fn min_value(&self) -> Key {
        self.min_value
    }

    /// Largest merged key (undefined for an empty cracker column).
    pub fn max_value(&self) -> Key {
        self.max_value
    }

    /// Accumulated instrumentation.
    pub fn stats(&self) -> &CrackStats {
        &self.stats
    }

    /// Hand over the counters accumulated since the build or the last take,
    /// and start again from zero: an index working as part of a larger one
    /// (a hybrid's crack-organized source) reports its effort there.
    pub fn take_stats(&mut self) -> CrackStats {
        std::mem::take(&mut self.stats)
    }

    /// Number of pieces the cracker column is currently split into.
    pub fn piece_count(&self) -> usize {
        self.cuts.piece_count(self.column.len())
    }

    /// Number of recorded cuts.
    pub fn cut_count(&self) -> usize {
        self.cuts.len()
    }

    /// Size of the largest piece (0 for an empty index). Convergence metrics
    /// use this: a random query stops paying reorganization overhead once all
    /// pieces it can hit are small.
    pub fn largest_piece(&self) -> usize {
        self.pieces().iter().map(Piece::len).max().unwrap_or(0)
    }

    /// The index is considered converged when no piece is larger than
    /// `threshold` values.
    pub fn is_converged(&self, threshold: usize) -> bool {
        self.largest_piece() <= threshold
    }

    /// Describe all pieces in physical order.
    pub fn pieces(&self) -> Vec<Piece> {
        let len = self.column.len();
        if len == 0 {
            return Vec::new();
        }
        let cuts = self.cuts.cuts();
        let mut pieces = Vec::with_capacity(cuts.len() + 1);
        let mut begin = 0usize;
        let mut low: Option<Key> = None;
        for &(key, position) in &cuts {
            pieces.push(Piece {
                begin,
                end: position,
                low,
                high: Some(key),
            });
            begin = position;
            low = Some(key);
        }
        pieces.push(Piece {
            begin,
            end: len,
            low,
            high: None,
        });
        pieces
    }

    /// The piece of [`Self::pieces`] that starts at the greatest cut at or
    /// below `key`, found with one [`BTreeCutIndex::around`] instead of a
    /// listing of every piece. It holds `key` unless `key` is `Key::MAX` and
    /// the piece is the last one, whose open upper bound (`high: None`)
    /// reads as an exclusive `Key::MAX`.
    #[inline]
    pub(crate) fn piece_at(&self, key: Key) -> Piece {
        let (below, above) = self.cuts.around(key);
        Piece {
            begin: below.map_or(0, |cut| cut.1),
            end: above.map_or(self.column.len(), |cut| cut.1),
            low: below.map(|cut| cut.0),
            high: above.map(|cut| cut.0),
        }
    }

    /// Ensure a cut exists exactly at `key`, cracking the containing piece if
    /// necessary, and return its position. Exposed within the crate so that
    /// stochastic cracking and the hybrids can introduce auxiliary cuts.
    pub(crate) fn ensure_cut(&mut self, key: Key) -> usize {
        if let Some(position) = self.known_position(key) {
            return position;
        }
        let (begin, end) = self.cuts.piece(key, self.column.len());
        let (split, touch) = self.column.crack_in_two(begin, end, key);
        self.stats.record_crack_in_two(touch);
        self.cuts.insert(key, split);
        split
    }

    /// Answer the half-open range query `[low, high)` adaptively: merge the
    /// staged tuples inside it, crack the touched pieces, record the new
    /// cuts, and return the (now contiguous) qualifying tuples.
    pub fn query_range(&mut self, low: Key, high: Key) -> RangeResult<'_> {
        self.stats.record_query();
        self.merge_pending(low, high);
        let len = self.column.len();
        if len == 0 || low >= high {
            return self.result(0, 0);
        }

        // Fast path: both bounds land in the same piece and neither is known
        // yet — a single three-way crack handles the whole query (this is the
        // common case for the first queries on a column).
        if self.known_position(low).is_none() && self.known_position(high).is_none() {
            let low_piece = self.cuts.piece(low, len);
            let high_piece = self.cuts.piece(high, len);
            if low_piece == high_piece {
                let (begin, end) = low_piece;
                let split = self.column.crack_in_three(begin, end, low, high);
                self.stats.record_crack_in_three(split.touch);
                self.cuts.insert(low, split.low_split);
                self.cuts.insert(high, split.high_split);
                self.stats.record_scan(split.high_split - split.low_split);
                return self.result(split.low_split, split.high_split);
            }
        }

        let begin = self.ensure_cut(low);
        let end = self.ensure_cut(high);
        let end = end.max(begin);
        self.stats.record_scan(end - begin);
        self.result(begin, end)
    }

    /// Remove every tuple with a key in `[low, high)` and return them, in
    /// column order: merge the staged ones in the range, crack on both
    /// bounds, drain the piece between the two cuts, drop the cuts inside
    /// it and move those above it down by what left, and refresh the key
    /// extremes. The cracks are counted as a query's would be; the query and
    /// the extraction are not. A hybrid's crack-organized source hands its
    /// tuples to the final partition this way.
    pub fn extract_range(&mut self, low: Key, high: Key) -> Vec<(Key, RowId)> {
        if low >= high {
            return Vec::new();
        }
        self.merge_pending(low, high);
        let begin = self.ensure_cut(low);
        let end = self.ensure_cut(high).max(begin);
        if begin == end {
            return Vec::new();
        }
        let out = self.column.drain(begin..end);
        // the cuts inside the range bound nothing now
        let inside: Vec<Key> = (self.cuts.cuts().into_iter())
            .map(|(key, _)| key)
            .filter(|&key| low < key && key < high)
            .collect();
        for key in inside {
            self.cuts.remove(key);
        }
        self.cuts.shift_positions(end, -((end - begin) as isize));
        match self.column.domain() {
            Some(domain) => (self.min_value, self.max_value) = domain,
            None => self.cuts.clear(),
        }
        out
    }

    /// Answer an arbitrary predicate by translating it to bounds.
    pub fn query(&mut self, predicate: &Predicate) -> RangeResult<'_> {
        let (low, high) = predicate.as_bounds();
        self.query_range(low, high)
    }

    /// Count the qualifying tuples of `[low, high)` (still cracks: counting
    /// is also a query and therefore also advice).
    pub fn count_range(&mut self, low: Key, high: Key) -> usize {
        self.query_range(low, high).len()
    }

    /// The position where `key` cuts the column, when it needs no crack: an
    /// empty column, a key outside the value domain (these short-circuits
    /// spare out-of-range keys a full-piece pass), or an existing cut.
    fn known_position(&self, key: Key) -> Option<usize> {
        if self.column.is_empty() || key <= self.min_value {
            return Some(0);
        }
        if key > self.max_value {
            return Some(self.column.len());
        }
        self.cuts.exact(key)
    }

    /// The positions `[begin, end)` holding the merged part of the answer
    /// of `[low, high)` when the column already holds it in place — both
    /// bounds need no crack — found without cracking or recording anything.
    /// After [`Self::query_range`] on the same bounds this is always `Some`,
    /// and later queries keep it so: a crack adds cuts but never moves a
    /// tuple across one, and a merge moves cuts with the tuples. (A merged
    /// insertion that widens the value domain may turn a short-circuited
    /// bound into one that needs a crack.)
    pub(crate) fn cut_bounds(&self, low: Key, high: Key) -> Option<(usize, usize)> {
        if low >= high {
            return Some((0, 0));
        }
        let begin = self.known_position(low)?;
        Some((begin, self.known_position(high)?.max(begin)))
    }

    fn result(&self, begin: usize, end: usize) -> RangeResult<'_> {
        RangeResult {
            column: &self.column,
            begin,
            end,
        }
    }

    /// The cut position for `key`, if one exists.
    pub fn cut_at(&self, key: Key) -> Option<usize> {
        self.cuts.exact(key)
    }

    /// Verify every structural invariant:
    ///
    /// * the pair arrays are parallel,
    /// * cut positions are non-decreasing in key order and within bounds,
    /// * every value inside a piece respects the piece's key bounds.
    ///
    /// Intended for tests and property-based checks — O(n).
    pub fn verify_integrity(&self) -> bool {
        let column = &self.column;
        column.check_invariants()
            && self.cuts.pieces_hold(column.len(), |i| column.value(i))
            && self.pending.iter().all(|&(key, _)| column.fits(key))
    }
}

/// Pieces this small no longer cost a query a noticeable crack: an index
/// whose largest piece is within it reports [`AdaptiveIndex::is_converged`].
pub(crate) const CONVERGED_PIECE_LEN: usize = 1 << 10;

impl AdaptiveIndex for CrackedIndex {
    fn len(&self) -> usize {
        CrackedIndex::len(self)
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(CrackedIndex::query_range(self, low, high).rowids().to_vec())
    }
    fn count_range(
        &mut self,
        low: Key,
        high: Key,
        copy_below: usize,
        out: &mut Vec<RowId>,
    ) -> Option<usize> {
        let answer = CrackedIndex::query_range(self, low, high);
        if answer.len() < copy_below {
            out.extend_from_slice(answer.rowids());
        }
        Some(answer.len())
    }
    /// The piece between the two cuts plus the staged insertions inside
    /// the range.
    fn read_range(&self, low: Key, high: Key, out: &mut Vec<RowId>) -> bool {
        let Some((begin, end)) = self.cut_bounds(low, high) else {
            return false;
        };
        out.extend_from_slice(&self.column.rowids()[begin..end]);
        out.extend(pending_in(&self.pending, low, high).map(|&(_, rowid)| rowid));
        true
    }
    fn effort(&self) -> u64 {
        self.stats.total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        self.column.byte_size() + self.pending.len() * std::mem::size_of::<(Key, RowId)>()
    }
    fn pieces(&self) -> usize {
        self.piece_count()
    }
    fn is_adaptive(&self) -> bool {
        true
    }
    fn is_converged(&self) -> bool {
        CrackedIndex::is_converged(self, CONVERGED_PIECE_LEN)
    }
    fn insert_batch(&mut self, keys: &[Key]) -> bool {
        for &key in keys {
            CrackedIndex::insert(self, key);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_answer(data: &[Key], low: Key, high: Key) -> Vec<Key> {
        let mut v: Vec<Key> = data
            .iter()
            .copied()
            .filter(|&x| x >= low && x < high)
            .collect();
        v.sort_unstable();
        v
    }

    fn sorted_keys(result: &RangeResult<'_>) -> Vec<Key> {
        let mut v = result.keys();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_index_returns_empty_results() {
        let mut idx = CrackedIndex::from_keys(&[]);
        assert!(idx.is_empty());
        let r = idx.query_range(0, 10);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(idx.piece_count(), 0);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn counted_answers_read_back_from_their_cuts_without_effort() {
        let data: Vec<Key> = (0..1000).map(|i| (i * 7919) % 1000).collect();
        let mut idx = CrackedIndex::from_keys(&data);
        let mut reference = idx.clone();
        let mut out = Vec::new();
        assert!(
            !AdaptiveIndex::read_range(&idx, 300, 400, &mut out),
            "not cut yet"
        );
        assert!(out.is_empty());
        // counting cracks and accounts exactly like answering
        let count = AdaptiveIndex::count_range(&mut idx, 300, 400, 100, &mut out);
        assert!(out.is_empty(), "100 ids are not fewer than 100");
        let answer = AdaptiveIndex::query_range(&mut reference, 300, 400);
        assert_eq!(count, Some(answer.count()));
        assert_eq!(idx.stats(), reference.stats());
        // with room for one more, the count copies the piece it found
        let mut copier = CrackedIndex::from_keys(&data);
        let mut copied = Vec::new();
        let copied_count = AdaptiveIndex::count_range(&mut copier, 300, 400, 101, &mut copied);
        assert_eq!(copied_count, count);
        assert_eq!(copied, answer.row_ids());
        assert_eq!(copier.stats(), reference.stats());
        // further cracks inside and around the range leave its tuples put
        for (low, high) in [(320, 350), (250, 310), (390, 700)] {
            idx.query_range(low, high);
        }
        let effort = AdaptiveIndex::effort(&idx);
        assert!(AdaptiveIndex::read_range(&idx, 300, 400, &mut out));
        assert_eq!(AdaptiveIndex::effort(&idx), effort, "a read is no query");
        out.sort_unstable();
        let expected: Vec<RowId> = (0..data.len())
            .filter(|&i| (300..400).contains(&data[i]))
            .map(|i| i as RowId)
            .collect();
        assert_eq!(out, expected);
        // bounds outside the value domain need no cut
        out.clear();
        assert!(AdaptiveIndex::read_range(&idx, -5, 2_000, &mut out));
        assert_eq!(out.len(), data.len());
        assert_eq!(idx.cut_bounds(7, 7), Some((0, 0)));
    }

    #[test]
    fn first_query_cracks_in_three() {
        let data = vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3];
        let mut idx = CrackedIndex::from_keys(&data);
        let r = idx.query_range(5, 15);
        assert_eq!(sorted_keys(&r), reference_answer(&data, 5, 15));
        assert_eq!(idx.stats().crack_in_three_calls, 1);
        assert_eq!(idx.stats().crack_in_two_calls, 0);
        assert_eq!(idx.cut_count(), 2);
        assert_eq!(idx.piece_count(), 3);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn second_query_reuses_and_refines() {
        let data: Vec<Key> = (0..100).rev().collect();
        let mut idx = CrackedIndex::from_keys(&data);
        let _ = idx.query_range(20, 60);
        let r = idx.query_range(30, 50);
        assert_eq!(sorted_keys(&r), reference_answer(&data, 30, 50));
        assert!(idx.piece_count() >= 4);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn repeated_query_stops_cracking() {
        let data: Vec<Key> = (0..1000).map(|i| (i * 7919) % 1000).collect();
        let mut idx = CrackedIndex::from_keys(&data);
        let _ = idx.query_range(100, 200);
        let cracks_after_first = idx.stats().crack_in_two_calls + idx.stats().crack_in_three_calls;
        let got = sorted_keys(&idx.query_range(100, 200));
        let cracks_after_second = idx.stats().crack_in_two_calls + idx.stats().crack_in_three_calls;
        assert_eq!(cracks_after_first, cracks_after_second, "no new cracks");
        assert_eq!(got, reference_answer(&data, 100, 200));
    }

    #[test]
    fn rowids_point_back_into_base_data() {
        let data = vec![50, 10, 40, 20, 30];
        let mut idx = CrackedIndex::from_keys(&data);
        let r = idx.query_range(15, 45);
        for (v, &rid) in r.keys().into_iter().zip(r.rowids()) {
            assert_eq!(data[rid as usize], v);
        }
        assert_eq!(r.rowids().len(), 3);
    }

    #[test]
    fn out_of_domain_queries() {
        let data = vec![10, 20, 30];
        let mut idx = CrackedIndex::from_keys(&data);
        assert_eq!(idx.query_range(-100, -50).len(), 0);
        assert_eq!(idx.query_range(100, 200).len(), 0);
        assert_eq!(idx.query_range(-100, 200).len(), 3);
        assert_eq!(idx.query_range(5, 5).len(), 0);
        assert_eq!(idx.query_range(30, 10).len(), 0);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn query_covering_everything_does_not_crack() {
        let data = vec![10, 20, 30];
        let mut idx = CrackedIndex::from_keys(&data);
        let r = idx.query_range(0, 100);
        assert_eq!(r.len(), 3);
        assert_eq!(idx.stats().crack_in_two_calls, 0);
        assert_eq!(idx.stats().crack_in_three_calls, 0);
    }

    #[test]
    fn predicate_queries() {
        let data = vec![5, 1, 9, 3, 7];
        let mut idx = CrackedIndex::from_keys(&data);
        assert_eq!(sorted_keys(&idx.query(&Predicate::equals(7))), vec![7]);
        assert_eq!(
            sorted_keys(&idx.query(&Predicate::LessThan { high: 5 })),
            vec![1, 3]
        );
        assert_eq!(
            sorted_keys(&idx.query(&Predicate::GreaterEqual { low: 5 })),
            vec![5, 7, 9]
        );
        assert_eq!(
            sorted_keys(&idx.query(&Predicate::range(3, 8))),
            vec![3, 5, 7]
        );
        assert!(idx.verify_integrity());
    }

    #[test]
    fn count_and_rowids_helpers() {
        let data: Vec<Key> = (0..50).collect();
        let mut idx = CrackedIndex::from_keys(&data);
        assert_eq!(idx.count_range(10, 20), 10);
        let result = idx.query_range(10, 20);
        assert_eq!(result.rowids().len(), 10);
        assert!(result.rowids().contains(&15));
    }

    #[test]
    fn duplicates_handled_correctly() {
        let data = vec![5, 5, 5, 1, 9, 5, 9, 1];
        let mut idx = CrackedIndex::from_keys(&data);
        assert_eq!(idx.count_range(5, 6), 4);
        assert_eq!(idx.count_range(1, 5), 2);
        assert_eq!(idx.count_range(9, 10), 2);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn many_random_queries_match_reference_and_keep_invariants() {
        // deterministic LCG workload
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as Key
        };
        let data: Vec<Key> = (0..5000).map(|_| next() % 10_000).collect();
        let mut idx = CrackedIndex::from_keys(&data);
        for _ in 0..200 {
            let a = next() % 10_000;
            let b = next() % 10_000;
            let (low, high) = if a <= b { (a, b) } else { (b, a) };
            let got = sorted_keys(&idx.query_range(low, high));
            assert_eq!(got, reference_answer(&data, low, high));
        }
        assert!(idx.verify_integrity());
        assert!(idx.piece_count() > 10);
        assert!(idx.largest_piece() < 5000);
    }

    #[test]
    fn convergence_with_many_queries() {
        let data: Vec<Key> = (0..4096).map(|i| (i * 48271) % 4096).collect();
        let mut idx = CrackedIndex::from_keys(&data);
        let mut state: u64 = 12345;
        for _ in 0..3000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let low = ((state >> 33) % 4000) as Key;
            let _ = idx.query_range(low, low + 64);
        }
        // after thousands of random queries the largest piece should be small
        assert!(
            idx.largest_piece() <= 256,
            "largest piece {} did not shrink",
            idx.largest_piece()
        );
        assert!(idx.is_converged(256));
        assert!(!idx.is_converged(1));
        assert!(idx.verify_integrity());
    }

    #[test]
    fn pieces_describe_partition() {
        let data: Vec<Key> = (0..100).rev().collect();
        let mut idx = CrackedIndex::from_keys(&data);
        let _ = idx.query_range(25, 75);
        let pieces = idx.pieces();
        assert_eq!(pieces.len(), idx.piece_count());
        assert_eq!(pieces.first().unwrap().begin, 0);
        assert_eq!(pieces.last().unwrap().end, 100);
        // pieces tile the column contiguously
        for w in pieces.windows(2) {
            assert_eq!(w[0].end, w[1].begin);
        }
        let total: usize = pieces.iter().map(Piece::len).sum();
        assert_eq!(total, 100);
        assert!(pieces.iter().any(|p| !p.is_empty()));
    }

    #[test]
    fn from_cracker_column_builds_uncracked() {
        let cc = CrackerColumn::from_keys(&[9, 4, 6]);
        let mut idx = CrackedIndex::from_cracker_column(cc);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.min_value(), 4);
        assert_eq!(idx.max_value(), 9);
        assert_eq!(idx.piece_count(), 1);
        assert_eq!(idx.count_range(5, 10), 2);
    }

    #[test]
    fn stats_track_scans_and_copies() {
        let data: Vec<Key> = (0..100).collect();
        let mut idx = CrackedIndex::from_keys(&data);
        assert_eq!(idx.stats().elements_copied, 100);
        let _ = idx.query_range(10, 20);
        assert_eq!(idx.stats().queries, 1);
        assert!(idx.stats().elements_scanned >= 10);
        assert!(idx.stats().total_effort() > 0);
    }

    /// Sorted keys of the staged tuples and the merged ones together.
    fn all_keys(idx: &CrackedIndex) -> Vec<Key> {
        let staged = idx.pending.iter().map(|&(key, _)| key);
        let mut keys: Vec<Key> = idx.column.values().chain(staged).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn insert_then_query_sees_new_tuples() {
        let mut idx = CrackedIndex::from_keys(&[10, 50, 90]);
        assert_eq!(idx.insert(42), 3);
        assert_eq!(idx.insert(60), 4);
        assert_eq!(idx.pending_count(), 2);
        assert_eq!(sorted_keys(&idx.query_range(40, 70)), vec![42, 50, 60]);
        assert_eq!(idx.pending_count(), 0);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn counted_answers_read_back_with_their_pending_tuples() {
        let mut keys: Vec<Key> = (0..200).map(|i| (i * 7) % 200).collect();
        let mut idx = CrackedIndex::from_keys(&keys);
        for key in [45, 60, 61, 150] {
            idx.insert(key);
            keys.push(key);
        }
        let mut out = Vec::new();
        let count = AdaptiveIndex::count_range(&mut idx, 40, 70, 33, &mut out);
        assert_eq!(count, Some(30 + 3));
        assert!(out.is_empty(), "33 ids are not fewer than 33");
        // staged after the count, inside the range and outside it
        for key in [50, 69, 70] {
            idx.insert(key);
            keys.push(key);
        }
        let effort = AdaptiveIndex::effort(&idx);
        assert!(AdaptiveIndex::read_range(&idx, 40, 70, &mut out));
        assert_eq!(AdaptiveIndex::effort(&idx), effort, "a read is no query");
        let read = |out: &[RowId]| {
            let mut read: Vec<Key> = out.iter().map(|&rowid| keys[rowid as usize]).collect();
            read.sort_unstable();
            read
        };
        let mut expected: Vec<Key> = (40..70).chain([45, 50, 60, 61, 69]).collect();
        expected.sort_unstable();
        assert_eq!(read(&out), expected);
        // with room for them, the count copies what a query answers
        let mut answering = idx.clone();
        out.clear();
        let count = AdaptiveIndex::count_range(&mut idx, 40, 70, 64, &mut out);
        assert_eq!(count, Some(30 + 5));
        assert_eq!(out, answering.query_range(40, 70).rowids());
        assert_eq!(read(&out), expected);
    }

    #[test]
    fn merge_ripple_only_merges_in_range_tuples() {
        let data: Vec<Key> = (0..100).collect();
        let mut idx = CrackedIndex::from_keys(&data);
        // establish some pieces first
        let _ = idx.query_range(20, 40);
        let _ = idx.query_range(60, 80);
        idx.insert(25); // inside a future query range
        idx.insert(70); // outside it
        assert!(idx.query_range(20, 40).keys().contains(&25));
        assert_eq!(idx.pending_count(), 1, "70 stays pending");
        assert_eq!(idx.stats().elements_merged, 1);
        assert!(idx.verify_integrity());
        // the merged tuple is physically in the cracker column now
        assert!(idx.column().values().any(|key| key == 25));
        assert_eq!(idx.column().len(), 101);
    }

    #[test]
    fn ripple_insert_preserves_piece_invariants() {
        let data: Vec<Key> = (0..200).rev().collect();
        let mut idx = CrackedIndex::from_keys(&data);
        // crack into several pieces
        let _ = idx.query_range(50, 100);
        let _ = idx.query_range(120, 160);
        let pieces_before = idx.piece_count();
        // insert values hitting different pieces
        for &v in &[10, 55, 110, 130, 190] {
            idx.insert(v);
        }
        assert_eq!(idx.query_range(0, 300).len(), 205);
        assert_eq!(idx.piece_count(), pieces_before);
        assert!(idx.verify_integrity());
        assert_eq!(idx.len(), 205);
        assert_eq!(idx.pending_count(), 0);
    }

    #[test]
    fn interleaved_updates_and_queries_match_model() {
        let initial: Vec<Key> = (0..500).map(|i| (i * 71) % 500).collect();
        let mut idx = CrackedIndex::from_keys(&initial);
        // the model: a flat list of (key, row id) pairs
        let mut model: Vec<(Key, RowId)> = initial.iter().copied().zip(0..).collect();
        let mut state: u64 = 0xDEADBEEF;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as Key
        };
        for step in 0..300 {
            if step % 3 == 0 {
                let key = next() % 600;
                model.push((key, idx.insert(key)));
                continue;
            }
            let (a, b) = (next() % 600, next() % 600);
            let (low, high) = (a.min(b), a.max(b));
            let mut expected: Vec<(Key, RowId)> = (model.iter().copied())
                .filter(|&(key, _)| key >= low && key < high)
                .collect();
            expected.sort_unstable();
            let answer = idx.query_range(low, high);
            let mut got: Vec<(Key, RowId)> = (answer.keys().into_iter())
                .zip(answer.rowids().iter().copied())
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected, "[{low}, {high})");
            assert_eq!(idx.count_range(low, high), expected.len());
        }
        assert!(idx.verify_integrity());
        assert_eq!(idx.len(), model.len());
        let mut keys: Vec<Key> = model.iter().map(|&(key, _)| key).collect();
        keys.sort_unstable();
        assert_eq!(all_keys(&idx), keys, "no tuple lost or doubled");
    }

    #[test]
    fn min_max_follow_merged_inserts() {
        let data: Vec<Key> = (10..20).collect();
        let mut idx = CrackedIndex::from_keys(&data);
        let domain = |idx: &CrackedIndex| {
            let values = || idx.column().values();
            (values().min().unwrap(), values().max().unwrap())
        };
        let cached = |idx: &CrackedIndex| (idx.min_value(), idx.max_value());

        // inserts beyond both ends of the domain widen the cached bounds
        idx.insert(-5);
        idx.insert(99);
        assert_eq!(cached(&idx), (10, 19), "staged tuples are not merged ones");
        assert_eq!(idx.count_range(-100, 100), 12);
        assert_eq!(idx.pending_count(), 0);
        assert_eq!(cached(&idx), (-5, 99));
        assert_eq!(cached(&idx), domain(&idx));
        // the short-circuits keyed on them still find the new extremes
        assert_eq!(idx.count_range(-5, -4), 1);
        assert_eq!(idx.count_range(99, 100), 1);

        // an interior insert leaves them alone
        idx.insert(15);
        assert_eq!(idx.count_range(-100, 100), 13);
        assert_eq!(cached(&idx), (-5, 99));
        assert!(idx.verify_integrity());

        // an index that starts empty takes its first key as both bounds
        let mut idx = CrackedIndex::from_keys(&[]);
        idx.insert(-7);
        assert_eq!(idx.count_range(-10, 0), 1);
        assert_eq!(cached(&idx), (-7, -7));
    }

    #[test]
    fn len_and_empty_reflect_pending_state() {
        let mut idx = CrackedIndex::from_keys(&[]);
        assert!(idx.is_empty());
        assert_eq!(idx.insert(5), 0);
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
        assert!(idx.column().is_empty(), "staged, not merged");
        assert_eq!(AdaptiveIndex::len(&idx), 1);
        let mut idx = CrackedIndex::from_keys(&[1, 2, 3]);
        assert!(AdaptiveIndex::insert_batch(&mut idx, &[4, 0]));
        assert_eq!(AdaptiveIndex::len(&idx), 5);
        assert_eq!(idx.count_range(0, 1), 1);
        assert_eq!((idx.len(), idx.pending_count()), (5, 1));
    }

    #[test]
    fn cut_at_reports_learned_bounds() {
        let data: Vec<Key> = (0..100).rev().collect();
        let mut idx = CrackedIndex::from_keys(&data);
        assert_eq!(idx.cut_at(30), None);
        let _ = idx.query_range(30, 60);
        assert_eq!(idx.cut_at(30), Some(30));
        assert_eq!(idx.cut_at(60), Some(60));
    }

    #[test]
    fn extract_range_removes_exactly_the_range_at_both_widths() {
        let keys: Vec<Key> = (0..3000).map(|i| (i * 7919) % 3000).collect();
        let mut narrow = CrackedIndex::from_keys(&keys);
        let mut wide = CrackerColumn::from_keys(&keys);
        wide.widen();
        let mut wide = CrackedIndex::from_cracker_column(wide);
        assert!(narrow.column().is_narrow() && !wide.column().is_narrow());
        let mut model: Vec<(Key, RowId)> = keys.iter().copied().zip(0..).collect();
        // nested and overlapping ranges, each after a query that leaves cuts
        // inside it and above it
        let ranges = [(200, 400), (100, 300), (350, 900), (0, 50), (40, 120)];
        for (low, high) in ranges.into_iter().chain([(2500, 2600), (-5, 10_000)]) {
            for index in [&mut narrow, &mut wide] {
                let _ = index.query_range(low + 10, high + 150);
            }
            let mut got = narrow.extract_range(low, high);
            assert_eq!(wide.extract_range(low, high), got, "[{low}, {high})");
            assert_eq!(narrow.stats(), wide.stats(), "[{low}, {high})");
            let (expected, rest) = model.iter().partition(|(key, _)| (low..high).contains(key));
            model = rest;
            got.sort_unstable_by_key(|&(_, rowid)| rowid);
            assert_eq!(got, expected, "[{low}, {high})");
            for index in [&mut narrow, &mut wide] {
                assert!(index.verify_integrity(), "[{low}, {high})");
                assert!(index.extract_range(low, high).is_empty());
                assert_eq!(index.count_range(Key::MIN, Key::MAX), model.len());
            }
        }
        assert!(narrow.is_empty() && wide.is_empty());
        assert_eq!((narrow.cut_count(), wide.cut_count()), (0, 0));

        // slice by slice, extraction drains the column and its cut index
        let mut index = CrackedIndex::from_keys(&keys);
        for low in (0..3000).step_by(250) {
            assert_eq!(index.extract_range(low, low + 250).len(), 250);
            assert!(index.len() == 2750 - low as usize && index.verify_integrity());
        }
        assert_eq!(index.cut_count(), 0);
        assert_eq!(index.stats().queries, 0, "an extraction is no query");
    }
}
