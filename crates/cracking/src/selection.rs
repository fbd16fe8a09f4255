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
//! # Counted bounds
//!
//! Once pieces fit in cache, a pass over one costs far less than its crack
//! (at 8 192 `u32` keys ~0.1 ns a key to count, ~2 to crack), so the
//! queries whose answer need not be one contiguous slice —
//! [`CrackedIndex::count_range`] and the [`AdaptiveIndex`] probes — leave a
//! bound that lands inside a small piece uncracked: a piece of at most
//! `min(8 192, len / 128)` tuples, and of no more than lie between the
//! query's two edge pieces, is counted. A reader copies the tuples between
//! the two edge pieces and selects each edge's row ids by key, a window of
//! eight at a time ([`crate::crack::select_where`]), on the edge's one
//! bound: the low edge lies wholly below the high bound's piece, the high
//! edge wholly above the low bound's, so each costs one compare a tuple
//! (~0.45 ns, less than half the store-per-tuple select it replaced). A
//! narrow range, whose answer is small beside its edges, cracks as before.
//! Each such bound is a hit on its piece; the eighth hit cracks it after
//! all, and both halves start again at none (ski rental, once per piece).
//! Each bound takes one cut-index lookup. The inherent
//! [`CrackedIndex::query_range`], whose [`RangeResult`] is one slice of the
//! column, and the crate's other crackers crack every bound as before.
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
//! inherent [`CrackedIndex::query_range`]'s answer stays one contiguous
//! piece.
//!
//! An insertion whose key lies outside a narrow cracker column's frame
//! widens the column first ([`CrackerColumn::widen`]): once, O(n), counted in
//! [`CrackStats::widenings`], and with every cut and piece kept. The width
//! is a storage detail: cuts, pieces and effort are the same at both.

use crate::crack::{CrackTouch, WINDOW};
use crate::cracker_column::{key_domain, CrackerColumn};
use crate::index::BTreeCutIndex;
use crate::stats::CrackStats;
use aidx_columnstore::index::{AdaptiveIndex, QueryOutput};
use aidx_columnstore::ops::select::Predicate;
use aidx_columnstore::types::{Key, RowId};
use std::collections::{BTreeMap, BTreeSet};

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
    /// How often a counting query has left a bound uncracked inside each
    /// piece, keyed by the piece's lower cut (`Key::MIN`, never a cut, for
    /// the first piece); a crack of a piece drops its entry.
    hits: BTreeMap<Key, u8>,
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
            hits: BTreeMap::new(),
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
            hits: BTreeMap::new(),
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

    /// Size of the largest piece (0 for an empty index), in one walk of the
    /// cuts. Convergence metrics use this: a random query stops paying
    /// reorganization overhead once all pieces it can hit are small.
    pub fn largest_piece(&self) -> usize {
        self.cuts.largest_piece(self.column.len())
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

    /// The position where `key` cuts the column when that needs no crack —
    /// an empty column, a key outside the value domain (these short-circuits
    /// spare out-of-range keys a full-piece pass), or an existing cut — and
    /// otherwise the piece holding `key`, found with one cut-index lookup.
    fn find(&self, key: Key) -> Result<usize, Piece> {
        if self.column.is_empty() || key <= self.min_value {
            return Ok(0);
        }
        if key > self.max_value {
            return Ok(self.column.len());
        }
        let piece = self.piece_at(key);
        match piece.low {
            Some(cut) if cut == key => Ok(piece.begin),
            _ => Err(piece),
        }
    }

    /// The longest piece a counting query counts a bound in instead of
    /// cracking it: `min(COUNTED_PIECE_CAP, len / COUNTED_PIECE_SHARE)`.
    fn counted_floor(&self) -> usize {
        (self.column.len() / COUNTED_PIECE_SHARE).min(COUNTED_PIECE_CAP)
    }

    /// Resolve `key`, which lies inside `piece`: one more hit on a piece of
    /// at most `floor` tuples (none at a floor of 0), or a crack of the
    /// piece on `key` — on any longer piece, and on a counted piece's
    /// [`CRACK_ON_HIT`]-th hit. Both halves of a cracked piece start again
    /// at no hits.
    fn settle(&mut self, key: Key, piece: Piece, floor: usize) -> Located {
        let lower = piece.low.unwrap_or(Key::MIN);
        if floor > 0 && piece.len() <= floor {
            let hits = self.hits.entry(lower).or_insert(0);
            *hits += 1;
            if *hits < CRACK_ON_HIT {
                return Located::Inside(piece.begin, piece.end);
            }
        }
        let (split, touch) = self.column.crack_in_two(piece.begin, piece.end, key);
        self.stats.record_crack_in_two(touch);
        self.cuts.insert(key, split);
        self.hits.remove(&lower);
        Located::At(split)
    }

    /// Resolve both bounds of the non-empty range `[low, high)`, each found
    /// with one cut-index lookup before either is settled. Two bounds inside
    /// one piece crack it in three, in a single pass (the common case for a
    /// column's first queries). Otherwise each bound inside a piece is
    /// settled on its own, and counted there only when the piece holds at
    /// most `floor` tuples and no more than lie between the two bounds'
    /// pieces: a reader copies those whole, so selecting its edges by key
    /// costs it at most about what its answer costs anyway.
    fn resolve(&mut self, low: Key, high: Key, floor: usize) -> (Located, Located) {
        let (lo, hi) = (self.find(low), self.find(high));
        if let (Err(piece), Err(other)) = (lo, hi) {
            if piece == other {
                let split = self
                    .column
                    .crack_in_three(piece.begin, piece.end, low, high);
                self.stats.record_crack_in_three(split.touch);
                self.cuts.insert(low, split.low_split);
                self.cuts.insert(high, split.high_split);
                self.hits.remove(&piece.low.unwrap_or(Key::MIN));
                return (Located::At(split.low_split), Located::At(split.high_split));
            }
        }
        let between = hi
            .unwrap_or_else(|piece| piece.begin)
            .saturating_sub(lo.unwrap_or_else(|piece| piece.end));
        let floor = floor.min(between);
        let mut settle = |key, found| match found {
            Ok(position) => Located::At(position),
            Err(piece) => self.settle(key, piece, floor),
        };
        (settle(low, lo), settle(high, hi))
    }

    /// Ensure a cut exists exactly at `key`, cracking the containing piece if
    /// necessary, and return its position. Exposed within the crate so that
    /// stochastic cracking and the hybrids can introduce auxiliary cuts.
    pub(crate) fn ensure_cut(&mut self, key: Key) -> usize {
        match self.find(key) {
            Ok(position) => position,
            Err(piece) => self.settle(key, piece, 0).cut(),
        }
    }

    /// What every query runs: count the query, merge the staged tuples of
    /// `[low, high)`, and resolve both bounds — in pieces of up to
    /// [`Self::counted_floor`] tuples without cracking when `counting`. The
    /// tuples a reader of the answer reads are recorded as scanned: from
    /// where the lower bound's position or piece starts to where the upper
    /// one's ends. `None` for an empty column or range.
    fn probe(&mut self, low: Key, high: Key, counting: bool) -> Option<(Located, Located)> {
        self.stats.record_query();
        self.merge_pending(low, high);
        if self.column.is_empty() || low >= high {
            return None;
        }
        let floor = if counting { self.counted_floor() } else { 0 };
        let bounds = self.resolve(low, high, floor);
        let (start, stop) = (bounds.0.span().0, bounds.1.span().1);
        self.stats.record_scan(stop.saturating_sub(start));
        Some(bounds)
    }

    /// Answer the half-open range query `[low, high)` adaptively: merge the
    /// staged tuples inside it, crack the touched pieces, record the new
    /// cuts, and return the (now contiguous) qualifying tuples.
    pub fn query_range(&mut self, low: Key, high: Key) -> RangeResult<'_> {
        match self.probe(low, high, false) {
            Some((begin, end)) => {
                let begin = begin.cut();
                self.result(begin, end.cut().max(begin))
            }
            None => self.result(0, 0),
        }
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
        // the cuts inside the range bound nothing now, and the pieces they
        // and `low` start hold other tuples
        let inside: Vec<Key> = (self.cuts.cuts().into_iter())
            .map(|(key, _)| key)
            .filter(|&key| low < key && key < high)
            .collect();
        for key in inside {
            self.cuts.remove(key);
        }
        self.hits.retain(|&key, _| !(low..high).contains(&key));
        self.cuts.shift_positions(end, -((end - begin) as isize));
        match self.column.domain() {
            Some(domain) => (self.min_value, self.max_value) = domain,
            None => {
                self.cuts.clear();
                self.hits.clear();
            }
        }
        out
    }

    /// Answer an arbitrary predicate by translating it to bounds.
    pub fn query(&mut self, predicate: &Predicate) -> RangeResult<'_> {
        let (low, high) = predicate.as_bounds();
        self.query_range(low, high)
    }

    /// Count the qualifying tuples of `[low, high)`. Counting is also a
    /// query and therefore also advice, but a bound that lands in a small
    /// piece is counted there, not cracked, until that piece's eighth hit
    /// (see the module docs).
    pub fn count_range(&mut self, low: Key, high: Key) -> usize {
        match self.probe(low, high, true) {
            Some(bounds) => self.count_resolved((low, high), bounds),
            None => 0,
        }
    }

    /// The number of merged tuples below `key`, a bound resolved to
    /// `located`: its position, or the start of its piece plus the keys
    /// below it there. Nothing moves, so this holds after later cracks of
    /// the piece too.
    fn rank(&self, key: Key, located: Located) -> usize {
        match located {
            Located::At(position) => position,
            Located::Inside(begin, end) => begin + self.column.count_below(begin, end, key),
        }
    }

    /// The number of merged tuples in `[low, high)`, its bounds resolved to
    /// `bounds`.
    fn count_resolved(&self, (low, high): (Key, Key), (lo, hi): (Located, Located)) -> usize {
        self.rank(high, hi).saturating_sub(self.rank(low, lo))
    }

    /// Append the row ids of the merged tuples in the non-empty range
    /// `[low, high)`, its bounds resolved to `bounds`: the tuples between
    /// the two edge pieces are copied, and those of each edge piece are
    /// selected by key. Disjoint edges each select on their own bound only:
    /// the low edge lies wholly below where `high` cuts or the piece it
    /// lands in, and the high edge wholly above `low`'s. Edges that overlap
    /// — both bounds in one piece, which only `read_range` meets — are one
    /// span selected on both.
    fn read_resolved(
        &self,
        (low, high): (Key, Key),
        (lo, hi): (Located, Located),
        out: &mut Vec<RowId>,
    ) {
        let ((start, low_end), (high_begin, stop)) = (lo.span(), hi.span());
        // a bound outside the keys selects every key on its side; a bound
        // inside them lies in (min, max], so both fit the column
        let first = low.max(self.min_value);
        let last = (high - 1).min(self.max_value);
        out.reserve(stop.saturating_sub(start) + WINDOW);
        if low_end <= high_begin {
            self.column.select(start, low_end, (Some(first), None), out);
            out.extend_from_slice(&self.column.rowids()[low_end..high_begin]);
            self.column
                .select(high_begin, stop, (None, Some(last)), out);
        } else {
            self.column
                .select(start, stop, (Some(first), Some(last)), out);
        }
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

/// Where a query bound cuts the merged column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Located {
    /// At a position: the tuples before it are below the bound, the others
    /// are not.
    At(usize),
    /// Somewhere inside the piece `[begin, end)`, which was left uncracked.
    Inside(usize, usize),
}

impl Located {
    /// The positions where the tuples that may lie on either side of the
    /// bound start and end: an empty span at a cut.
    fn span(self) -> (usize, usize) {
        match self {
            Located::At(position) => (position, position),
            Located::Inside(begin, end) => (begin, end),
        }
    }

    /// The position of a bound resolved with no floor, which is always a cut.
    fn cut(self) -> usize {
        match self {
            Located::At(position) => position,
            Located::Inside(..) => unreachable!("a floor of 0 cracks every piece"),
        }
    }
}

/// The longest piece a counting query leaves uncracked, at most: 8 192
/// tuples of `u32` key and row id are 64 KiB, which stay in L2, and a sweep
/// of caps on `crack_converge`'s shape (4 M keys, 1 % ranges) read 8 192 best.
const COUNTED_PIECE_CAP: usize = 8_192;

/// The share of the column a counted piece holds at most (`len / 128`
/// tuples), so that the two counted edges of a query stay within `len / 64`:
/// the share under which the engine's index health still reads a column as
/// converged.
const COUNTED_PIECE_SHARE: usize = 128;

/// The hit on which a counted piece is cracked after all (ski rental: the
/// passes over a piece that keeps being hit pay for its crack). A count
/// passes over a piece at ~0.1 ns a tuple and a reader selects an edge on
/// its one bound at ~0.45 ([`crate::crack::select_where`]), against ~2 to
/// crack it, and a count and a read of one query must reorganize alike, so
/// the crack waits as long as the readers do not pay for the wait. On
/// `crack_converge`'s shape (4 M permuted keys, 10 000 uniform 1 % ranges
/// through `StrategyKind::Cracking`, 60 rotated rounds against cracking on
/// the 2nd hit with the store-per-tuple select, 2 shared vCPUs), the whole
/// reading path read ×0.93 / ×0.96 / ×0.97 / ×0.97 for a crack on the 2nd /
/// 3rd / 4th / 8th hit, the counting path ×0.98 / ×0.99 / ×0.97 / ×0.90,
/// and the median count of queries 500-1 000 ×0.95 / ×0.80 / ×0.48 / ×0.37:
/// the 8th is the latest hit measured that keeps readers within ×1.05.
const CRACK_ON_HIT: u8 = 8;

/// Pieces this small no longer cost a query a noticeable crack: an index
/// whose largest piece is within it reports [`AdaptiveIndex::is_converged`].
pub(crate) const CONVERGED_PIECE_LEN: usize = 1 << 10;

impl AdaptiveIndex for CrackedIndex {
    fn len(&self) -> usize {
        CrackedIndex::len(self)
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        let mut row_ids = Vec::new();
        if let Some(bounds) = self.probe(low, high, true) {
            self.read_resolved((low, high), bounds, &mut row_ids);
        }
        QueryOutput::from_row_ids(row_ids)
    }
    fn count_range(
        &mut self,
        low: Key,
        high: Key,
        copy_below: usize,
        out: &mut Vec<RowId>,
    ) -> Option<usize> {
        let Some(bounds) = self.probe(low, high, true) else {
            return Some(0);
        };
        let count = self.count_resolved((low, high), bounds);
        if count < copy_below {
            self.read_resolved((low, high), bounds, out);
        }
        Some(count)
    }
    /// The tuples between the two bounds' pieces, plus those of a piece a
    /// bound lands in selected by key, plus the staged insertions inside
    /// the range; `false` when a bound lands in a piece that no count could
    /// have been taken in: one longer than a counting query leaves
    /// uncracked that holds no hit (a counted piece a merge has grown keeps
    /// its hit).
    fn read_range(&self, low: Key, high: Key, out: &mut Vec<RowId>) -> bool {
        if low < high && !self.column.is_empty() {
            let floor = self.counted_floor();
            let peek = |key| match self.find(key) {
                Ok(position) => Some(Located::At(position)),
                Err(piece)
                    if piece.len() <= floor
                        || self.hits.contains_key(&piece.low.unwrap_or(Key::MIN)) =>
                {
                    Some(Located::Inside(piece.begin, piece.end))
                }
                Err(_) => None,
            };
            let (Some(lo), Some(hi)) = (peek(low), peek(high)) else {
                return false;
            };
            self.read_resolved((low, high), (lo, hi), out);
        }
        out.extend(pending_in(&self.pending, low, high).map(|&(_, rowid)| rowid));
        true
    }
    fn effort(&self) -> u64 {
        self.stats.total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        self.column.byte_size()
            + self.pending.len() * std::mem::size_of::<(Key, RowId)>()
            + self.hits.len() * std::mem::size_of::<(Key, u8)>()
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
        out.clear();
        assert!(AdaptiveIndex::read_range(&idx, 7, 7, &mut out));
        assert!(out.is_empty());
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

    /// Row ids ascending, for comparing answers as sets.
    fn sorted(mut row_ids: Vec<RowId>) -> Vec<RowId> {
        row_ids.sort_unstable();
        row_ids
    }

    /// The scan's answer to `[low, high)` over `model`, every `(key, row
    /// id)` the index holds, kept sorted.
    fn scanned(model: &[(Key, RowId)], low: Key, high: Key) -> Vec<RowId> {
        let from = model.partition_point(|&(key, _)| key < low);
        let to = model.partition_point(|&(key, _)| key < high).max(from);
        sorted(model[from..to].iter().map(|&(_, rowid)| rowid).collect())
    }

    /// One seeded stream of inserts, counts, reads of counted answers and
    /// trait queries on an index over `keys`, with the inherent contiguous
    /// `query_range` — which cracks every bound it finds — run on a clone in
    /// lockstep; every answer is the scan's. Bounds and inserted keys are
    /// drawn from `[from, to)`, ranges are up to `width` wide, now and then
    /// one is open at `Key::MIN` or `Key::MAX`, and `frame_breaker`, when
    /// given, is inserted a third of the way in: a key outside a narrow
    /// column's frame.
    fn run_counted_stream(
        seed: u64,
        keys: &[Key],
        (from, to): (Key, Key),
        ops: usize,
        width: Key,
        frame_breaker: Option<Key>,
    ) {
        let mut idx = CrackedIndex::from_keys(keys);
        let mut cracking = idx.clone();
        let mut model: Vec<(Key, RowId)> = keys.iter().copied().zip(0..).collect();
        model.sort_unstable();
        let mut state = seed;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let span = (to - from) as u64;
        let insert =
            |idx: &mut CrackedIndex, cracking: &mut CrackedIndex, model: &mut Vec<_>, key| {
                let rowid = idx.insert(key);
                assert_eq!(cracking.insert(key), rowid);
                let at = model.partition_point(|&tuple| tuple < (key, rowid));
                model.insert(at, (key, rowid));
            };
        let mut counted: Vec<(Key, Key)> = Vec::new();
        for op in 0..ops {
            let mut low = from + next(span) as Key - width / 4;
            let mut high = low + 1 + next(width as u64) as Key;
            // an open bound, beside a bound near that end of the keys
            match next(40) {
                0 => (low, high) = (Key::MIN, from + next(width as u64) as Key),
                1 => (low, high) = (to - next(width as u64) as Key, Key::MAX),
                _ => {}
            }
            let context = format!("seed {seed}, op {op}, [{low}, {high})");
            if op == ops / 3 {
                if let Some(key) = frame_breaker {
                    insert(&mut idx, &mut cracking, &mut model, key);
                    assert!(!idx.column().is_narrow(), "{context}");
                }
            }
            let step = next(6);
            if step == 0 {
                insert(
                    &mut idx,
                    &mut cracking,
                    &mut model,
                    from + next(span) as Key,
                );
                continue;
            }
            let expected = scanned(&model, low, high);
            match step {
                1 => {
                    assert_eq!(idx.count_range(low, high), expected.len(), "{context}");
                    counted.push((low, high));
                }
                2 => {
                    let copy_below = next(2 * width as u64) as usize;
                    let mut out = Vec::new();
                    let count =
                        AdaptiveIndex::count_range(&mut idx, low, high, copy_below, &mut out);
                    assert_eq!(count, Some(expected.len()), "{context}");
                    if expected.len() < copy_below {
                        assert_eq!(sorted(out), expected, "{context}");
                    } else {
                        assert!(out.is_empty(), "{context}");
                    }
                    counted.push((low, high));
                }
                3 => {
                    let answer = AdaptiveIndex::query_range(&mut idx, low, high);
                    assert_eq!(sorted(answer.into_row_ids()), expected, "{context}");
                }
                _ => {
                    // a range counted earlier, read with nothing moved
                    let earlier = next(counted.len() as u64 + 1) as usize;
                    if let Some(&(low, high)) = counted.get(earlier) {
                        let effort = AdaptiveIndex::effort(&idx);
                        let mut out = Vec::new();
                        if AdaptiveIndex::read_range(&idx, low, high, &mut out) {
                            assert_eq!(sorted(out), scanned(&model, low, high), "{context}");
                        }
                        assert_eq!(AdaptiveIndex::effort(&idx), effort, "{context}");
                    }
                }
            }
            // the last counted answer reads back while no merge intervened
            if let (1 | 2, Some(&(low, high))) = (step, counted.last()) {
                let mut out = Vec::new();
                assert!(
                    AdaptiveIndex::read_range(&idx, low, high, &mut out),
                    "{context}"
                );
                assert_eq!(sorted(out), expected, "{context}");
            }
            let answer = cracking.query_range(low, high);
            assert_eq!(sorted(answer.rowids().to_vec()), expected, "{context}");
        }
        assert!(idx.verify_integrity() && cracking.verify_integrity());
        assert_eq!(idx.len(), model.len());
        for index in [&idx, &cracking] {
            let largest = index.pieces().iter().map(Piece::len).max();
            assert_eq!(index.largest_piece(), largest.unwrap_or(0));
        }
        // bounds were counted where the clone cracked them
        assert!(idx.cut_count() < cracking.cut_count(), "seed {seed}");
    }

    #[test]
    fn counted_bounds_answer_like_a_scan_beside_a_cracking_clone() {
        // narrow, 20 000 keys: a floor of 156
        let keys: Vec<Key> = (0..20_000).map(|i| (i * 7_919) % 20_000).collect();
        let domain = (0, 20_000);
        for seed in 1..=3 {
            run_counted_stream(seed, &keys, domain, 1_000, 400, None);
        }
        // narrow, widened a third of the way in by a key outside its frame
        run_counted_stream(4, &keys, domain, 1_000, 400, Some(1 << 40));
        run_counted_stream(5, &keys, domain, 1_000, 400, Some(-(1 << 40)));
        // wide from the start: keys spanning all of i64 at both ends
        let mut wide = keys.clone();
        wide.extend([Key::MIN, Key::MIN + 1, Key::MAX - 1, Key::MAX]);
        assert!(!CrackedIndex::from_keys(&wide).column().is_narrow());
        run_counted_stream(6, &wide, domain, 1_000, 400, None);
        // 2^20 keys: the floor reaches its cap of 8 192
        let n: Key = 1 << 20;
        let keys: Vec<Key> = (0..n).map(|i| (i * 2_654_435_761) % n).collect();
        assert_eq!(
            CrackedIndex::from_keys(&keys).counted_floor(),
            COUNTED_PIECE_CAP
        );
        run_counted_stream(7, &keys, (0, n), 1_000, n / 200, Some(1 << 40));
    }

    /// A column of `n` distinct keys, a permutation of `0..n`, cracked into
    /// pieces of 100 keys by the inherent `query_range`, which takes no hit.
    fn cracked_in_hundreds(n: Key) -> CrackedIndex {
        let keys: Vec<Key> = (0..n).map(|i| (i * 7_919) % n).collect();
        let mut idx = CrackedIndex::from_keys(&keys);
        for low in (0..n).step_by(200) {
            idx.query_range(low, low + 100);
        }
        assert!(idx.largest_piece() <= 100 && idx.hits.is_empty());
        idx
    }

    #[test]
    fn a_bound_in_a_small_piece_is_counted_until_its_cracking_hit() {
        // 16 384 keys: a floor of 128, above the pieces' 100
        let mut idx = cracked_in_hundreds(16_384);
        assert_eq!(idx.counted_floor(), 128);
        let cuts = idx.cut_count();
        let counted = Key::from(CRACK_ON_HIT) - 1;
        // `high` at a cut 200 tuples past the piece [1 000, 1 100): the
        // query reads that piece and the 200 between
        for hit in 1..=counted {
            let low = 1_000 + 10 * hit;
            let (effort, scanned) = (AdaptiveIndex::effort(&idx), idx.stats().elements_scanned);
            assert_eq!(idx.count_range(low, 1_300), (1_300 - low) as usize);
            assert_eq!(idx.cut_count(), cuts, "hit {hit}");
            assert_eq!(AdaptiveIndex::effort(&idx) - effort, 300, "hit {hit}");
            assert_eq!(idx.stats().elements_scanned - scanned, 300, "hit {hit}");
            assert_eq!(idx.hits.get(&1_000).copied(), Some(hit as u8));
        }
        let cracks = idx.stats().crack_in_two_calls;
        let split = 1_000 + 10 * (counted + 1);
        assert_eq!(idx.count_range(split, 1_300), (1_300 - split) as usize);
        assert_eq!(idx.cut_count(), cuts + 1, "the cracking hit");
        assert_eq!(idx.stats().crack_in_two_calls, cracks + 1);
        assert_eq!(idx.cut_at(split), Some(split as usize));
        assert!(idx.hits.is_empty(), "both halves start again");
        // each half is counted in as often again before its own crack
        for piece in [1_000, split] {
            for hit in 1..=counted {
                assert_eq!(
                    idx.count_range(piece + hit, 1_300),
                    (1_300 - piece - hit) as usize
                );
                assert_eq!(idx.hits.get(&piece).copied(), Some(hit as u8));
            }
        }
        assert_eq!(idx.cut_count(), cuts + 1);
        for piece in [1_000, split] {
            let low = piece + counted + 1;
            assert_eq!(idx.count_range(low, 1_300), (1_300 - low) as usize);
            assert_eq!(idx.cut_at(low), Some(low as usize));
        }
        assert_eq!(idx.cut_count(), cuts + 3);
        assert!(idx.hits.is_empty());
        // a bound whose piece is longer than the stretch between the edges
        // cracks at once: [1 410, 1 500) holds 90 tuples, none between
        assert_eq!(idx.count_range(1_410, 1_500), 90);
        assert_eq!(idx.cut_at(1_410), Some(1_410));
        assert_eq!(idx.cut_count(), cuts + 4);
        // the inherent query cracks a small piece on the first hit
        assert_eq!(idx.query_range(1_210, 1_300).len(), 90);
        assert_eq!(idx.cut_count(), cuts + 5);
        assert!(idx.hits.is_empty() && idx.verify_integrity());
        // no floor below 128 tuples: a 100-key column cracks every bound
        let mut small = CrackedIndex::from_keys(&(0..100).collect::<Vec<Key>>());
        assert_eq!(small.counted_floor(), 0);
        assert_eq!(small.count_range(10, 20), 10);
        assert_eq!(small.cut_count(), 2);
    }

    #[test]
    fn two_bounds_in_one_counted_piece_crack_it_in_three() {
        let idx = cracked_in_hundreds(16_384);
        let keys: Vec<Key> = (0..16_384).map(|i| (i * 7_919) % 16_384).collect();
        let expected: Vec<RowId> = sorted(
            (0..keys.len())
                .filter(|&i| (1_020..1_080).contains(&keys[i]))
                .map(|i| i as RowId)
                .collect(),
        );
        let mut copies = [idx.clone(), idx.clone(), idx];
        for copy in &mut copies {
            // [1 000, 1 100) one hit short of its crack
            for low in 1_010..1_010 + Key::from(CRACK_ON_HIT) - 1 {
                copy.count_range(low, 1_300);
            }
            assert_eq!(copy.hits.get(&1_000), Some(&(CRACK_ON_HIT - 1)));
        }
        let (cuts, cracks) = (
            copies[0].cut_count(),
            copies[0].stats().crack_in_three_calls,
        );
        // both bounds are found before either is settled, so neither is
        // counted in the piece the other cracks
        let [counting, copying, reading] = &mut copies;
        assert_eq!(counting.count_range(1_020, 1_080), 60);
        let mut out = Vec::new();
        assert_eq!(
            AdaptiveIndex::count_range(copying, 1_020, 1_080, 61, &mut out),
            Some(60)
        );
        assert_eq!(sorted(out), expected);
        let answer = AdaptiveIndex::query_range(reading, 1_020, 1_080);
        assert_eq!(sorted(answer.into_row_ids()), expected);
        for copy in &copies {
            assert_eq!(copy.cut_count(), cuts + 2);
            assert_eq!(copy.stats().crack_in_three_calls, cracks + 1);
            assert_eq!(
                (copy.cut_at(1_020), copy.cut_at(1_080)),
                (Some(1_020), Some(1_080))
            );
            assert!(copy.hits.is_empty());
            assert_eq!(copy.stats(), copies[0].stats());
            let mut out = Vec::new();
            assert!(AdaptiveIndex::read_range(copy, 1_020, 1_080, &mut out));
            assert_eq!(sorted(out), expected);
        }
    }

    #[test]
    fn disjoint_edges_select_on_their_own_bound_like_on_both() {
        let mut narrow = cracked_in_hundreds(16_384);
        let mut wide = narrow.clone();
        // staged outside every range read here, it only widens the column
        wide.insert(1 << 40);
        assert!(narrow.column().is_narrow() && !wide.column().is_narrow());
        for idx in [&mut narrow, &mut wide] {
            // one bound in [1 000, 1 100), the other in [1 300, 1 400)
            assert_eq!(idx.count_range(1_010, 1_390), 380);
            let (Err(low_piece), Err(high_piece)) = (idx.find(1_010), idx.find(1_390)) else {
                panic!("both bounds were counted, not cracked");
            };
            assert_ne!(low_piece, high_piece);
            let mut one_bound = Vec::new();
            idx.read_resolved(
                (1_010, 1_390),
                (
                    Located::Inside(low_piece.begin, low_piece.end),
                    Located::Inside(high_piece.begin, high_piece.end),
                ),
                &mut one_bound,
            );
            let mut both_bounds = Vec::new();
            let range = (Some(1_010), Some(1_389));
            let column = idx.column();
            column.select(low_piece.begin, low_piece.end, range, &mut both_bounds);
            both_bounds.extend_from_slice(&column.rowids()[low_piece.end..high_piece.begin]);
            column.select(high_piece.begin, high_piece.end, range, &mut both_bounds);
            assert_eq!(one_bound, both_bounds);
            assert_eq!(one_bound.len(), 380);
        }
    }

    #[test]
    fn a_counted_piece_a_merge_grows_past_the_floor_still_reads() {
        let mut idx = cracked_in_hundreds(16_384);
        let mut model: Vec<(Key, RowId)> = (0..16_384)
            .map(|i| ((i * 7_919) % 16_384, i as RowId))
            .collect();
        // both bounds counted: in [1 000, 1 100) and [1 300, 1 400)
        assert_eq!(idx.count_range(1_010, 1_390), 380);
        assert_eq!(idx.hits.len(), 2);
        // 60 tuples staged into the first piece, then merged by a query
        // whose bounds are its cuts: the piece holds 160, above the floor
        for _ in 0..60 {
            let rowid = idx.insert(1_050);
            model.push((1_050, rowid));
        }
        assert_eq!(idx.count_range(1_000, 1_100), 160);
        assert!(idx.piece_at(1_010).len() > idx.counted_floor());
        let effort = AdaptiveIndex::effort(&idx);
        let mut out = Vec::new();
        assert!(AdaptiveIndex::read_range(&idx, 1_010, 1_390, &mut out));
        model.sort_unstable();
        assert_eq!(sorted(out), scanned(&model, 1_010, 1_390));
        assert_eq!(AdaptiveIndex::effort(&idx), effort, "a read is no query");
    }
}
