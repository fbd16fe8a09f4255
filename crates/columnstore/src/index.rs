//! The one interface every index over a key column implements.
//!
//! Scan, full sort, cracking and its variants, adaptive merging and the
//! hybrids are points on one spectrum behind the same select operator. The
//! trait lives here, beside [`Key`], [`RowId`] and [`PositionList`], so that
//! each index crate implements it on its own type and the kernel holds a
//! `Box<dyn AdaptiveIndex + Send>` without an adapter in between.

use crate::position::PositionList;
use crate::types::{Key, RowId};

/// The answer of one adaptive range query: the base-column row ids of the
/// qualifying tuples, **as the index produced them** — distinct, but in
/// piece order (a cracked piece, a sorted run, a key-ordered slice), not
/// row-id order.
///
/// Counting ([`QueryOutput::count`]) is O(1) and reading the ids as they
/// stand ([`QueryOutput::row_ids`]) is free. Ordering them is the one
/// per-row cost a converged probe has left, so it is paid only by the
/// consumer that needs order, through [`QueryOutput::into_positions`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryOutput {
    row_ids: Vec<RowId>,
}

impl QueryOutput {
    /// Wrap the row ids an index answered with. They must be distinct; any
    /// order is fine.
    pub fn from_row_ids(row_ids: Vec<RowId>) -> Self {
        QueryOutput { row_ids }
    }

    /// Number of qualifying tuples.
    pub fn count(&self) -> usize {
        self.row_ids.len()
    }

    /// True when no tuple qualifies.
    pub fn is_empty(&self) -> bool {
        self.row_ids.is_empty()
    }

    /// The qualifying row ids in the order the index produced them.
    pub fn row_ids(&self) -> &[RowId] {
        &self.row_ids
    }

    /// Consume the answer, keeping the row ids as produced.
    pub fn into_row_ids(self) -> Vec<RowId> {
        self.row_ids
    }

    /// Order the row ids into a [`PositionList`] (see
    /// [`PositionList::from_distinct`]).
    pub fn into_positions(self) -> PositionList {
        PositionList::from_distinct(self.row_ids)
    }
}

/// An index over one key column, adaptive or not, behind a uniform,
/// object-safe interface.
///
/// What every implementation guarantees, and every caller may rely on:
///
/// * **Answers.** [`Self::query_range`] returns exactly the tuples of the
///   column it was built over (plus absorbed inserts) whose key lies in
///   `[low, high)`, as base-column row ids — each once, in any order.
///   Reorganizing as a side effect never changes an answer.
/// * **Version.** [`Self::len`] counts the base-column rows the index
///   covers. Base columns are append-only, so an index of length `m` covers
///   the prefix `0..m` of a column of `n >= m` rows, and rows `m..n` are a
///   suffix the kernel answers by scanning them. Only
///   [`Self::insert_batch`] grows it, by the rows it absorbs.
/// * **Effort.** [`Self::effort`] never decreases; the difference across a
///   query is the work that query caused.
/// * **Views.** A strategy whose answer lies between two cuts — or within
///   two small pieces it can select from by key — may answer a count without
///   copying it ([`Self::count_range`]) and hand out the row ids later, when
///   someone reads them, without reorganizing anything
///   ([`Self::read_range`]). Refinement moves tuples within pieces but never
///   across a cut, so an answer named by its two bounds names the same
///   tuples however far the index cracks on.
pub trait AdaptiveIndex {
    /// Number of indexed tuples.
    fn len(&self) -> usize;

    /// True when the index holds no tuples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Answer the half-open range query `[low, high)`, performing whatever
    /// adaptive reorganization the strategy calls for as a side effect.
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput;

    /// Count the tuples of `[low, high)`: the same reorganization, effort
    /// and pieces as [`Self::query_range`], then the distance between the
    /// answer's two cuts (or a bound's position within a small piece,
    /// counted). Their row ids are appended to `out`, in the order
    /// the index holds them, only when there are fewer than `copy_below`;
    /// a larger answer is not copied. Once it returns `Some`,
    /// [`Self::read_range`] on the same bounds reads those tuples — plus any
    /// the index absorbed since — or declines; it never reads others.
    /// `None` — the default — from strategies that cannot count without
    /// producing the row ids; they have done nothing, and the caller asks
    /// [`Self::query_range`] instead.
    fn count_range(
        &mut self,
        _low: Key,
        _high: Key,
        _copy_below: usize,
        _out: &mut Vec<RowId>,
    ) -> Option<usize> {
        None
    }

    /// Append the row ids of `[low, high)` to `out`, in the order the index
    /// holds them, when the index already holds the answer in place — for a
    /// cracking index, when each bound is a cut, lies outside its value
    /// domain or lies in a piece small enough to select from by key.
    /// Nothing is reorganized, no query is counted and no effort is
    /// added. Returns `false` and leaves `out` untouched otherwise; the
    /// default always does.
    fn read_range(&self, _low: Key, _high: Key, _out: &mut Vec<RowId>) -> bool {
        false
    }

    /// Cumulative machine-independent work performed so far (initialization
    /// plus per-query overhead plus answering).
    fn effort(&self) -> u64;

    /// Approximate memory used by auxiliary structures, in bytes (the base
    /// column itself is not counted).
    fn auxiliary_bytes(&self) -> usize;

    /// Number of physical pieces the index currently partitions the key
    /// domain into (cracked pieces, fragments, sorted runs) — the telemetry
    /// layer's convergence series. Strategies without piece structure
    /// report 1.
    fn pieces(&self) -> usize {
        1
    }

    /// Whether the strategy refines physical organization as a side effect
    /// of queries.
    fn is_adaptive(&self) -> bool;

    /// A strategy-specific notion of "fully optimized for the workload seen
    /// so far" (full indexes are converged from the start; scans never are).
    fn is_converged(&self) -> bool;

    /// Stage the rows `len()..` holding `keys`, in order, and return `true`;
    /// the default refuses and stages nothing, and the rows stay a suffix
    /// the kernel scans.
    fn insert_batch(&mut self, _keys: &[Key]) -> bool {
        false
    }
}
