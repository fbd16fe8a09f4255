//! Query results: a compact summary plus the projected rows, gathered once.
//!
//! [`QueryResult`] carries the qualifying row ids and a point-in-time
//! snapshot of the table (`Arc<Table>`), which stays valid even while other
//! sessions keep appending to the table. Tuples are reconstructed late and
//! once: the first [`QueryResult::rows`] read gathers each projected column
//! at the qualifying positions into one flat [`Rows`] store — the layout the
//! server's wire form already uses — and every row the result yields, then
//! or later, is a slice of that store. A result that is only counted,
//! aggregated or asked for positions never gathers anything; one read
//! through `rows()` holds `arity × rows` values until it is dropped.
//!
//! # Ordering contract
//!
//! An adaptive index answers with the row ids of a cracked piece in piece
//! order, and putting them in row-id order is the one per-row cost a
//! converged query has left. A result therefore keeps the row ids as the
//! executor left them and orders them **on the first ordered read**:
//!
//! * [`QueryResult::row_count`], [`QueryResult::is_empty`],
//!   [`QueryResult::aggregate`] and [`QueryResult::prune_stats`] are O(1)
//!   and never order anything;
//! * the first [`QueryResult::positions`] or [`QueryResult::rows`] call
//!   orders the row ids once (O(rows), radix — see
//!   [`PositionList::from_distinct`]) and every later call is O(1); the
//!   first `rows()` call also gathers the projection, and later calls
//!   re-read the gathered store;
//! * when the executor already had to order them (a residual filter or a
//!   positional aggregate ran), nothing is left to do.
//!
//! A result holds its row ids once: the first ordered read consumes the
//! vector the index produced and keeps the ordered list in its place.
//!
//! What a caller can observe is unchanged: `positions()` is always strictly
//! ascending, and `rows()` yields the rows in that order.

use aidx_columnstore::column::Column;
use aidx_columnstore::ops::select::PruneStats;
use aidx_columnstore::position::PositionList;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::{RowId, Value};
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

/// The qualifying row ids of a query on their way from the index to the
/// client.
#[derive(Debug, Clone)]
pub(crate) enum Selection {
    /// As the index produced them: distinct, in any order.
    AsProduced(Vec<RowId>),
    /// Already ascending, because a scan emitted them or a consumer inside
    /// the executor needed order.
    Ordered(PositionList),
}

impl Selection {
    /// Number of selected rows.
    pub(crate) fn len(&self) -> usize {
        match self {
            Selection::AsProduced(row_ids) => row_ids.len(),
            Selection::Ordered(positions) => positions.len(),
        }
    }

    /// True when no row is selected.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Put the selected rows in ascending order (in place, once) for a
    /// consumer that reads positions in order — the executor's only call of
    /// the ordering routine, [`PositionList::from_distinct`].
    pub(crate) fn order(&mut self) -> &PositionList {
        if let Selection::AsProduced(row_ids) = self {
            *self = Selection::Ordered(PositionList::from_distinct(std::mem::take(row_ids)));
        }
        let Selection::Ordered(positions) = self else {
            unreachable!("ordered above");
        };
        positions
    }
}

/// The row ids of a finished query, held once: as the executor left them
/// until the first ordered read, ascending from then on.
#[derive(Debug)]
struct LazyPositions {
    len: usize,
    /// The row ids in the order the index produced them; the first ordered
    /// read takes them.
    produced: Mutex<Option<Vec<RowId>>>,
    ordered: OnceLock<PositionList>,
}

impl LazyPositions {
    fn new(selection: Selection) -> Self {
        let len = selection.len();
        let (produced, ordered) = match selection {
            Selection::AsProduced(row_ids) => (Some(row_ids), OnceLock::new()),
            Selection::Ordered(positions) => (None, OnceLock::from(positions)),
        };
        LazyPositions {
            len,
            produced: Mutex::new(produced),
            ordered,
        }
    }

    /// The row ids ascending; the first call orders them in the vector the
    /// index produced — the result's one call of the ordering routine,
    /// [`PositionList::from_distinct`].
    fn ordered(&self) -> &PositionList {
        self.ordered.get_or_init(|| {
            let row_ids = self.produced.lock().take();
            PositionList::from_distinct(row_ids.expect("taken by the one ordered read that runs"))
        })
    }
}

impl Clone for LazyPositions {
    fn clone(&self) -> Self {
        let produced = self.produced.lock().clone();
        LazyPositions::new(match produced {
            Some(row_ids) => Selection::AsProduced(row_ids),
            // taken: ordered, or being ordered by a read this one waits for
            None => Selection::Ordered(self.ordered().clone()),
        })
    }
}

/// The result of executing a [`crate::Query`] through a [`crate::Session`].
///
/// See the [module docs](self) for what is O(1) and what orders the row ids.
#[derive(Debug, Clone)]
pub struct QueryResult {
    table: Arc<Table>,
    selection: LazyPositions,
    /// Schema indexes of the projected columns, in projection order.
    projected: Vec<usize>,
    aggregate: Option<Value>,
    prune: PruneStats,
    /// The projected rows, gathered by the first [`Self::rows`] read.
    rows: OnceLock<Rows>,
}

impl QueryResult {
    /// Assemble a result. The selection must refer to rows of `table`; the
    /// constructor is crate-private so only the executor (which guarantees
    /// that invariant) can build one.
    pub(crate) fn new(
        table: Arc<Table>,
        selection: Selection,
        projected: Vec<usize>,
        aggregate: Option<Value>,
        prune: PruneStats,
    ) -> Self {
        debug_assert!(match &selection {
            Selection::AsProduced(row_ids) => row_ids.iter().max().copied(),
            Selection::Ordered(positions) => positions.as_slice().last().copied(),
        }
        .is_none_or(|p| (p as usize) < table.row_count()));
        QueryResult {
            table,
            selection: LazyPositions::new(selection),
            projected,
            aggregate,
            prune,
            rows: OnceLock::new(),
        }
    }

    /// Number of qualifying rows. O(1); never orders the row ids.
    pub fn row_count(&self) -> usize {
        self.selection.len
    }

    /// True when no row qualifies. O(1); never orders the row ids.
    pub fn is_empty(&self) -> bool {
        self.selection.len == 0
    }

    /// Positions of the qualifying rows in the base table, strictly
    /// ascending. The first call may order the row ids (O(rows)); later
    /// calls are O(1).
    pub fn positions(&self) -> &PositionList {
        self.selection.ordered()
    }

    /// The aggregate value, when the query requested one. `None` either
    /// means "no aggregate requested" or "aggregate over an empty set"
    /// (`COUNT` of an empty set is `Some(Int64(0))`, never `None`).
    pub fn aggregate(&self) -> Option<&Value> {
        self.aggregate.as_ref()
    }

    /// The projected rows in ascending position order, each a slice of its
    /// values in projection order. The first call gathers the projection
    /// into one [`Rows`] store (see [`Rows::gather`]); later calls re-read
    /// it. Yields nothing (and orders nothing) when the query projected no
    /// columns.
    pub fn rows(&self) -> RowIter<'_> {
        let rows = self.rows.get_or_init(|| {
            if self.projected.is_empty() {
                return Rows::default();
            }
            Rows::gather(self.projected_columns(), self.positions())
        });
        RowIter(rows.iter())
    }

    /// The snapshot's projected columns, in projection order: what
    /// [`Self::rows`] gathers at [`Self::positions`], for a consumer that
    /// wants a copy of its own (see [`Rows::gather`]).
    pub fn projected_columns(&self) -> impl ExactSizeIterator<Item = &Column> + '_ {
        // validated against the schema when the result was assembled, as the
        // selection was against the snapshot's row count
        self.projected.iter().map(|&column_index| {
            self.table
                .column_at(column_index)
                .expect("QueryResult invariant: projection validated")
        })
    }

    /// Copy every projected row out (convenience over [`Self::rows`]).
    pub fn collect_rows(&self) -> Vec<Vec<Value>> {
        self.rows().map(<[Value]>::to_vec).collect()
    }

    /// The table snapshot this result reads from.
    pub fn snapshot(&self) -> &Arc<Table> {
        &self.table
    }

    /// Zone-map pruning statistics for the scan and residual-filter work of
    /// this query: chunks whose zone map proved them irrelevant were skipped
    /// without reading a value. Work done *inside* an adaptive index is not
    /// chunk-granular and is not counted here.
    pub fn prune_stats(&self) -> PruneStats {
        self.prune
    }
}

/// The projected rows of a [`QueryResult`] (see [`QueryResult::rows`]):
/// slices of the result's gathered [`Rows`] store, in ascending position
/// order. Nothing is allocated per row.
#[derive(Debug, Clone)]
pub struct RowIter<'a>(std::slice::ChunksExact<'a, Value>);

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for RowIter<'_> {}

impl<'a> IntoIterator for &'a QueryResult {
    type Item = &'a [Value];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows()
    }
}

/// Projected rows held flat: the values of row 0 in projection order, then
/// those of row 1, and so on. Every row has the same arity, so a row is a
/// slice of the one vector and nothing is allocated per row. An empty store
/// has arity 0, whatever the projection.
///
/// A [`QueryResult`] gathers its projection into one of these on its first
/// [`QueryResult::rows`] read, and the server's wire form carries one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Rows {
    arity: usize,
    values: Vec<Value>,
}

impl Rows {
    /// Rows of `arity` values each, from their values laid out row after
    /// row.
    ///
    /// # Panics
    ///
    /// When `values` is not a whole number of rows: its length is not a
    /// multiple of `arity`, or `arity` is 0 and `values` is not empty.
    pub fn new(arity: usize, values: Vec<Value>) -> Rows {
        if values.is_empty() {
            return Rows::default();
        }
        assert!(
            values.len().is_multiple_of(arity),
            "{} values are not rows of arity {arity}",
            values.len()
        );
        Rows { arity, values }
    }

    /// The values of `columns` at `positions`, one gather per column (see
    /// [`Column::gather`]), laid out row after row.
    ///
    /// # Panics
    ///
    /// When a position lies outside a column; a [`QueryResult`]'s positions
    /// always lie inside its snapshot.
    pub fn gather<'a>(
        columns: impl ExactSizeIterator<Item = &'a Column>,
        positions: &PositionList,
    ) -> Rows {
        let arity = columns.len();
        let mut gathered = columns.map(|column| {
            column
                .gather(positions)
                .expect("QueryResult invariant: positions lie inside the snapshot")
        });
        match arity {
            0 => Rows::default(),
            // the gathered column is already the row-after-row layout
            1 => Rows::new(1, gathered.next().expect("one projected column")),
            _ => {
                let mut gathered: Vec<_> = gathered.map(Vec::into_iter).collect();
                let mut values = Vec::with_capacity(arity * positions.len());
                for _ in 0..positions.len() {
                    values.extend(gathered.iter_mut().map(|column| {
                        column
                            .next()
                            .expect("a gather yields one value per position")
                    }));
                }
                Rows::new(arity, values)
            }
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len().checked_div(self.arity).unwrap_or(0)
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Values per row (0 when there are no rows).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Every value, row after row.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The rows in order, each a slice of [`Self::arity`] values.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, Value> {
        // an empty store yields no chunk at any width; 0 is not a width
        self.values.chunks_exact(self.arity.max(1))
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a [Value];
    type IntoIter = std::slice::ChunksExact<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn snapshot() -> Arc<Table> {
        Arc::new(
            Table::from_columns(vec![
                ("k", Column::from_i64(vec![10, 20, 30, 40])),
                ("label", Column::from_strs(&["a", "b", "c", "d"])),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn rows_stream_lazily_in_projection_order() {
        let result = QueryResult::new(
            snapshot(),
            Selection::AsProduced(vec![3, 1]),
            vec![1, 0], // label, k
            None,
            PruneStats::default(),
        );
        assert_eq!(result.row_count(), 2);
        assert!(result.selection.ordered.get().is_none(), "counting orders");
        let mut iter = result.rows();
        assert_eq!(result.positions().as_slice(), &[1, 3]);
        assert_eq!(result.row_count(), 2);
        assert_eq!(iter.len(), 2);
        assert_eq!(
            iter.next(),
            Some(&[Value::Utf8("b".into()), Value::Int64(20)][..])
        );
        assert_eq!(iter.len(), 1);
        assert_eq!(
            iter.next(),
            Some(&[Value::Utf8("d".into()), Value::Int64(40)][..])
        );
        assert_eq!(iter.next(), None);
        // re-creating the iterator re-reads the one gathered store
        let gathered = result.rows.get().expect("gathered by the first read");
        assert_eq!((gathered.len(), gathered.arity()), (2, 2));
        assert!(std::ptr::eq(
            result.rows().next().unwrap(),
            &gathered.values()[..2]
        ));
        assert_eq!(result.collect_rows().len(), 2);
        assert_eq!((&result).into_iter().count(), 2);
        // the same columns, for a consumer that gathers column by column
        let gathered: Vec<Vec<Value>> = result
            .projected_columns()
            .map(|column| column.gather(result.positions()).unwrap())
            .collect();
        assert_eq!(
            gathered,
            [
                vec![Value::Utf8("b".into()), Value::Utf8("d".into())],
                vec![Value::Int64(20), Value::Int64(40)],
            ]
        );
    }

    #[test]
    fn empty_projection_streams_nothing() {
        let result = QueryResult::new(
            snapshot(),
            Selection::AsProduced(vec![2, 0, 1]),
            Vec::new(),
            None,
            PruneStats::default(),
        );
        assert_eq!(result.row_count(), 3);
        assert!(!result.is_empty());
        assert_eq!(result.rows().count(), 0);
        assert_eq!(result.rows().size_hint(), (0, Some(0)));
        assert!(result.selection.ordered.get().is_none(), "nothing read it");
        assert!(
            result.rows.get().is_some_and(Rows::is_empty),
            "nor gathered"
        );
        // a clone taken before the first ordered read orders on its own
        let clone = result.clone();
        assert_eq!(clone.positions().as_slice(), &[0, 1, 2]);
        assert!(result.selection.ordered.get().is_none());
        assert!(clone.selection.produced.lock().is_none(), "held once");
        // and one taken after it copies the ordered list
        let late = clone.clone();
        assert_eq!(late.row_count(), 3);
        assert_eq!(late.positions(), clone.positions());
    }

    const LABELS: [&str; 4] = ["", "a", "naïve", "ü ★"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn rows_equal_a_per_cell_reference(
            (len, capacity, salt) in (0usize..300, 1usize..64, 0u32..1_000),
            keep in prop::collection::vec(0u8..3, 0..300),
            projected in prop::collection::vec(0usize..3, 0..4),
            ordered in 0u8..2,
        ) {
            let ints: Vec<i64> = (0..len as i64).map(|i| i * 7 - 300).collect();
            let floats = ints.iter().map(|&i| i as f64 * 0.25).collect();
            let labels: Vec<&str> = (0..len).map(|i| LABELS[i * 5 % 4]).collect();
            let table = Arc::new(
                Table::from_columns(vec![
                    ("i", Column::from_i64(ints).with_segment_capacity(capacity)),
                    ("f", Column::from_f64(floats).with_segment_capacity(capacity)),
                    ("s", Column::from_strs(&labels).with_segment_capacity(capacity)),
                ])
                .unwrap(),
            );
            let positions: Vec<RowId> = (0..len as RowId)
                .filter(|&p| keep.get(p as usize) == Some(&0))
                .collect();
            let selection = if ordered == 1 {
                Selection::Ordered(PositionList::from_sorted_vec(positions.clone()))
            } else {
                let mut produced = positions.clone();
                produced.sort_by_key(|&p| (p ^ salt).wrapping_mul(2_654_435_761));
                Selection::AsProduced(produced)
            };
            let result = QueryResult::new(
                Arc::clone(&table),
                selection,
                projected.clone(),
                None,
                PruneStats::default(),
            );
            let expected: Vec<Vec<Value>> = match projected.is_empty() {
                true => Vec::new(),
                false => positions
                    .iter()
                    .map(|&p| {
                        let cell = |c| table.column_at(c).unwrap().value_at(p as usize).unwrap();
                        projected.iter().map(|&c| cell(c)).collect()
                    })
                    .collect(),
            };
            let before = result.clone();
            prop_assert_eq!(result.rows().len(), expected.len());
            prop_assert_eq!(result.collect_rows(), expected.clone());
            let after = result.clone();
            prop_assert_eq!(before.collect_rows(), expected.clone());
            prop_assert_eq!(after.collect_rows(), expected);
        }
    }

    #[test]
    fn rows_are_a_flat_store_of_equal_arity() {
        let rows = Rows::new(3, (0..6).map(Value::Int64).collect());
        assert_eq!((rows.len(), rows.arity(), rows.is_empty()), (2, 3, false));
        let read: Vec<&[Value]> = rows.iter().collect();
        assert_eq!(read[1], [Value::Int64(3), Value::Int64(4), Value::Int64(5)]);
        assert_eq!((&rows).into_iter().count(), 2);
        assert_eq!(rows.values().len(), 6);
        // no rows: arity 0, whatever the projection
        assert_eq!(Rows::new(3, Vec::new()), Rows::default());
        assert_eq!(Rows::default().iter().count(), 0);
        assert_eq!(Rows::default().len(), 0);
    }

    #[test]
    #[should_panic(expected = "3 values are not rows of arity 2")]
    fn rows_reject_values_that_are_not_whole_rows() {
        Rows::new(2, vec![Value::Null; 3]);
    }

    #[test]
    fn results_cross_threads() {
        fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
        assert_send_sync_clone::<QueryResult>();
    }

    #[test]
    fn aggregate_accessor() {
        let result = QueryResult::new(
            snapshot(),
            Selection::Ordered(PositionList::new()),
            Vec::new(),
            Some(Value::Int64(0)),
            PruneStats::default(),
        );
        assert!(result.is_empty());
        assert_eq!(result.aggregate(), Some(&Value::Int64(0)));
        assert_eq!(result.snapshot().row_count(), 4);
    }
}
