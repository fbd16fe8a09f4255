//! The composable query model: conjunctive predicates, projections and
//! aggregates over one table.
//!
//! A [`Query`] generalizes the seed kernel's single-range `SelectQuery` to a
//! *conjunction* of [`Predicate`]s (range / point / in-set). The planner
//! (see [`crate::executor`]) routes exactly one predicate — the estimated
//! most selective one — through the adaptive index, so that executing
//! queries keeps building index structure, and applies the remaining
//! predicates as residual filters on the qualifying positions (late
//! materialization).
//!
//! Column and table names are interned as [`Arc<str>`] so that cloning a
//! query (or deriving a [`crate::manager::ColumnId`] from it on every
//! execution) is a reference-count bump, not a heap copy.

use aidx_columnstore::ops::select::ZoneDecision;
use aidx_columnstore::segment::ZoneMap;
use aidx_columnstore::types::Key;
use std::sync::Arc;

/// Optional aggregate over one column of the qualifying rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Number of qualifying rows.
    Count,
    /// Sum of the aggregated column.
    Sum,
    /// Minimum of the aggregated column.
    Min,
    /// Maximum of the aggregated column.
    Max,
    /// Average of the aggregated column.
    Avg,
}

/// One atomic filter condition on a single `int64` column.
///
/// Predicates in a [`Query`] are combined as a conjunction (logical AND).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Half-open range `low <= column < high`.
    Range {
        /// Column the predicate applies to.
        column: Arc<str>,
        /// Inclusive lower bound.
        low: Key,
        /// Exclusive upper bound.
        high: Key,
    },
    /// Equality `column == key`.
    Point {
        /// Column the predicate applies to.
        column: Arc<str>,
        /// The matched key.
        key: Key,
    },
    /// Membership `column IN keys`.
    ///
    /// Invariant: `keys` is sorted and duplicate-free, so matching is a
    /// binary search and a driver probes each key once.
    /// [`Predicate::in_set`] builds it so, and [`Query::filter`], which every
    /// predicate of a query passes through, sorts and deduplicates the keys
    /// of a variant built by hand.
    InSet {
        /// Column the predicate applies to.
        column: Arc<str>,
        /// Sorted, duplicate-free member keys.
        keys: Arc<[Key]>,
    },
}

impl Predicate {
    /// `low <= column < high`.
    pub fn range(column: impl Into<Arc<str>>, low: Key, high: Key) -> Self {
        Predicate::Range {
            column: column.into(),
            low,
            high,
        }
    }

    /// `column == key`.
    pub fn point(column: impl Into<Arc<str>>, key: Key) -> Self {
        Predicate::Point {
            column: column.into(),
            key,
        }
    }

    /// `column IN keys`.
    pub fn in_set(column: impl Into<Arc<str>>, keys: impl IntoIterator<Item = Key>) -> Self {
        let mut keys: Vec<Key> = keys.into_iter().collect();
        keys.sort_unstable();
        keys.dedup();
        Predicate::InSet {
            column: column.into(),
            keys: keys.into(),
        }
    }

    /// The predicate with its invariants restored: a hand-built `InSet`'s
    /// keys sorted and deduplicated, as [`Predicate::in_set`] leaves them.
    fn canonical(self) -> Self {
        match self {
            Predicate::InSet { column, keys } if !keys.is_sorted_by(|a, b| a < b) => {
                Predicate::in_set(column, keys.iter().copied())
            }
            other => other,
        }
    }

    /// The column this predicate filters.
    pub fn column(&self) -> &str {
        match self {
            Predicate::Range { column, .. }
            | Predicate::Point { column, .. }
            | Predicate::InSet { column, .. } => column,
        }
    }

    pub(crate) fn column_arc(&self) -> Arc<str> {
        match self {
            Predicate::Range { column, .. }
            | Predicate::Point { column, .. }
            | Predicate::InSet { column, .. } => Arc::clone(column),
        }
    }

    /// Whether `value` satisfies this predicate.
    #[inline]
    pub fn matches(&self, value: Key) -> bool {
        match self {
            Predicate::Range { low, high, .. } => *low <= value && value < *high,
            Predicate::Point { key, .. } => value == *key,
            Predicate::InSet { keys, .. } => keys.binary_search(&value).is_ok(),
        }
    }

    /// Whether a chunk with the given zone map *may* contain a qualifying
    /// value. `false` is a proof of absence — the executor prunes such
    /// chunks without reading a single value; `true` only means the chunk
    /// must be checked.
    #[inline]
    pub fn zone_may_match(&self, zone: &ZoneMap<Key>) -> bool {
        match self {
            Predicate::Range { low, high, .. } => zone.may_contain_range(*low, *high),
            Predicate::Point { key, .. } => zone.may_contain(*key),
            Predicate::InSet { keys, .. } => match (zone.min(), zone.max()) {
                (Some(min), Some(max)) => {
                    // keys are sorted: any member inside [min, max]?
                    let from = keys.partition_point(|&k| k < min);
                    keys.get(from).is_some_and(|&k| k <= max)
                }
                _ => false,
            },
        }
    }

    /// Whether every value a chunk with the given zone map can hold
    /// satisfies the predicate. `true` is a proof — the executor keeps such a
    /// chunk's candidates without reading a value; `false` only means the
    /// chunk must be checked. An empty zone never covers.
    ///
    /// * range: `low <= min && max < high`;
    /// * point: `min == max == key`;
    /// * in-set: only a single-key zone (`min == max`) whose key is a member.
    #[inline]
    pub fn zone_covers(&self, zone: &ZoneMap<Key>) -> bool {
        let (Some(min), Some(max)) = (zone.min(), zone.max()) else {
            return false;
        };
        match self {
            Predicate::Range { low, high, .. } => *low <= min && max < *high,
            Predicate::Point { key, .. } => min == *key && max == *key,
            Predicate::InSet { keys, .. } => min == max && keys.binary_search(&min).is_ok(),
        }
    }

    /// What a chunk's zone map decides for this predicate: no value matches
    /// ([`Predicate::zone_may_match`] is `false`), every value matches
    /// ([`Predicate::zone_covers`]), or neither.
    #[inline]
    pub fn zone_decision(&self, zone: &ZoneMap<Key>) -> ZoneDecision {
        if !self.zone_may_match(zone) {
            ZoneDecision::NoneMatch
        } else if self.zone_covers(zone) {
            ZoneDecision::AllMatch
        } else {
            ZoneDecision::Undecided
        }
    }

    /// Estimated number of distinct key values this predicate admits — the
    /// planner's selectivity proxy (smaller = more selective).
    pub(crate) fn estimated_width(&self) -> u128 {
        match self {
            Predicate::Range { low, high, .. } => {
                if high <= low {
                    0
                } else {
                    high.abs_diff(*low) as u128
                }
            }
            Predicate::Point { .. } => 1,
            Predicate::InSet { keys, .. } => keys.len() as u128,
        }
    }
}

/// A declarative single-table query: a conjunction of predicates, an
/// optional projection and an optional aggregate.
///
/// Build one fluently and hand it to a [`crate::Session`]:
///
/// ```
/// use aidx_core::prelude::*;
///
/// let query = Query::table("orders")
///     .range("o_key", 100, 200)
///     .point("o_region", 3)
///     .project(["o_value"])
///     .aggregate(Aggregation::Sum, "o_value");
/// assert_eq!(query.predicates().len(), 2);
/// assert_eq!(query.table_name(), "orders");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    table: Arc<str>,
    predicates: Vec<Predicate>,
    projections: Vec<Arc<str>>,
    aggregation: Option<(Aggregation, Arc<str>)>,
}

impl Query {
    /// Start a query against `table`. With no predicates added, the query
    /// qualifies every row of the table.
    pub fn table(table: impl Into<Arc<str>>) -> Self {
        Query {
            table: table.into(),
            predicates: Vec::new(),
            projections: Vec::new(),
            aggregation: None,
        }
    }

    /// Add an arbitrary predicate to the conjunction.
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicates.push(predicate.canonical());
        self
    }

    /// Add a half-open range predicate `low <= column < high`.
    pub fn range(self, column: impl Into<Arc<str>>, low: Key, high: Key) -> Self {
        self.filter(Predicate::range(column, low, high))
    }

    /// Add an equality predicate `column == key`.
    pub fn point(self, column: impl Into<Arc<str>>, key: Key) -> Self {
        self.filter(Predicate::point(column, key))
    }

    /// Add a membership predicate `column IN keys`.
    pub fn in_set(self, column: impl Into<Arc<str>>, keys: impl IntoIterator<Item = Key>) -> Self {
        self.filter(Predicate::in_set(column, keys))
    }

    /// Project the named columns, in order. Rows are materialized lazily by
    /// [`crate::QueryResult::rows`]; an empty projection returns positions
    /// only.
    pub fn project<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.projections = columns.into_iter().map(|c| Arc::from(c.as_ref())).collect();
        self
    }

    /// Aggregate `column` over the qualifying rows.
    pub fn aggregate(mut self, aggregation: Aggregation, column: impl Into<Arc<str>>) -> Self {
        self.aggregation = Some((aggregation, column.into()));
        self
    }

    /// The queried table.
    pub fn table_name(&self) -> &str {
        &self.table
    }

    pub(crate) fn table_arc(&self) -> Arc<str> {
        Arc::clone(&self.table)
    }

    /// The conjunction of predicates.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// The projected column names.
    pub fn projections(&self) -> &[Arc<str>] {
        &self.projections
    }

    /// The requested aggregate, if any.
    pub fn aggregation(&self) -> Option<(Aggregation, &str)> {
        self.aggregation.as_ref().map(|(a, c)| (*a, c.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_covers_only_what_it_can_prove() {
        let zone = |values: &[Key]| ZoneMap::from_values(values);
        let empty: ZoneMap<Key> = ZoneMap::empty();
        for predicate in [
            Predicate::range("a", Key::MIN, Key::MAX),
            Predicate::point("a", 5),
            Predicate::in_set("a", [5]),
        ] {
            assert!(!predicate.zone_covers(&empty), "{predicate:?}");
            assert_eq!(predicate.zone_decision(&empty), ZoneDecision::NoneMatch);
        }
        // range: the high bound is exclusive, so `max == high` is not covered
        let r = Predicate::range("a", 10, 20);
        assert!(r.zone_covers(&zone(&[10, 19])));
        assert!(!r.zone_covers(&zone(&[10, 20])), "max == high");
        assert!(!r.zone_covers(&zone(&[9, 15])), "min below low");
        assert_eq!(r.zone_decision(&zone(&[12, 13])), ZoneDecision::AllMatch);
        assert_eq!(r.zone_decision(&zone(&[15, 25])), ZoneDecision::Undecided);
        assert_eq!(r.zone_decision(&zone(&[20, 25])), ZoneDecision::NoneMatch);
        // the widest range covers everything below Key::MAX, never Key::MAX
        let all = Predicate::range("a", Key::MIN, Key::MAX);
        assert!(all.zone_covers(&zone(&[Key::MIN, Key::MAX - 1])));
        assert!(!all.zone_covers(&zone(&[0, Key::MAX])));
        // point: only a single-key zone of that key
        let p = Predicate::point("a", 7);
        assert!(p.zone_covers(&zone(&[7, 7])));
        assert!(!p.zone_covers(&zone(&[7, 8])));
        assert!(!p.zone_covers(&zone(&[6])));
        assert!(Predicate::point("a", Key::MAX).zone_covers(&zone(&[Key::MAX])));
        // in-set: a single-key zone whose key is a member, never a wider one
        // even when every key in it is a member
        let s = Predicate::in_set("a", [3, 4, 5]);
        assert!(s.zone_covers(&zone(&[4])));
        assert!(!s.zone_covers(&zone(&[6])));
        assert!(!s.zone_covers(&zone(&[3, 5])));
        assert_eq!(s.zone_decision(&zone(&[3, 5])), ZoneDecision::Undecided);
    }

    #[test]
    fn predicate_matches() {
        let r = Predicate::range("a", 10, 20);
        assert!(r.matches(10) && r.matches(19));
        assert!(!r.matches(9) && !r.matches(20));
        let p = Predicate::point("a", 5);
        assert!(p.matches(5) && !p.matches(6));
        let s = Predicate::in_set("a", [7, 3, 7, 11]);
        assert!(s.matches(3) && s.matches(7) && s.matches(11));
        assert!(!s.matches(5));
    }

    #[test]
    fn in_set_sorts_and_dedups() {
        let s = Predicate::in_set("a", [9, 1, 9, 4]);
        match &s {
            Predicate::InSet { keys, .. } => assert_eq!(keys.as_ref(), &[1, 4, 9]),
            _ => unreachable!(),
        }
        assert_eq!(s.estimated_width(), 3);
    }

    #[test]
    fn filter_canonicalises_hand_built_in_sets() {
        let hand_built = Predicate::InSet {
            column: "a".into(),
            keys: [9, 1, 9, 4].into(),
        };
        let query = Query::table("t").filter(hand_built);
        assert_eq!(query.predicates(), &[Predicate::in_set("a", [1, 4, 9])]);
    }

    #[test]
    fn estimated_widths_order_by_selectivity() {
        assert_eq!(Predicate::point("a", 5).estimated_width(), 1);
        assert_eq!(Predicate::range("a", 10, 110).estimated_width(), 100);
        assert_eq!(Predicate::range("a", 10, 10).estimated_width(), 0);
        assert_eq!(Predicate::range("a", 10, 5).estimated_width(), 0);
        assert_eq!(
            Predicate::range("a", Key::MIN, Key::MAX).estimated_width(),
            u64::MAX as u128
        );
    }

    #[test]
    fn query_builder_accumulates() {
        let q = Query::table("t")
            .range("a", 0, 10)
            .point("b", 3)
            .in_set("c", [1, 2])
            .project(["x", "y"])
            .aggregate(Aggregation::Avg, "x");
        assert_eq!(q.table_name(), "t");
        assert_eq!(q.predicates().len(), 3);
        assert_eq!(q.projections().len(), 2);
        assert_eq!(q.aggregation(), Some((Aggregation::Avg, "x")));
        assert_eq!(q.predicates()[0].column(), "a");
    }

    #[test]
    fn zone_pruning_covers_every_predicate_shape() {
        let zone = ZoneMap::from_values(&[10, 20]);
        assert!(Predicate::range("a", 15, 16).zone_may_match(&zone));
        assert!(!Predicate::range("a", 21, 30).zone_may_match(&zone));
        assert!(
            !Predicate::range("a", 0, 10).zone_may_match(&zone),
            "half-open"
        );
        assert!(Predicate::point("a", 10).zone_may_match(&zone));
        assert!(!Predicate::point("a", 9).zone_may_match(&zone));
        assert!(Predicate::in_set("a", [1, 12]).zone_may_match(&zone));
        assert!(!Predicate::in_set("a", [1, 2, 30]).zone_may_match(&zone));
        assert!(!Predicate::in_set("a", []).zone_may_match(&zone));
        let empty: ZoneMap<Key> = ZoneMap::empty();
        assert!(!Predicate::range("a", Key::MIN, Key::MAX).zone_may_match(&empty));
    }

    #[test]
    fn queries_clone_cheaply() {
        let q = Query::table("t").range("a", 0, 10);
        let clone = q.clone();
        // the interned names are shared, not copied
        assert!(Arc::ptr_eq(&q.table_arc(), &clone.table_arc()));
        assert_eq!(q, clone);
    }
}
