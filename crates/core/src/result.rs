//! Query results: a compact summary plus a streaming row iterator.
//!
//! The seed executor materialized every projected row into a
//! `Vec<Vec<Value>>` before returning. [`QueryResult`] instead carries the
//! qualifying row ids and a point-in-time snapshot of the table
//! (`Arc<Table>`); projected rows are reconstructed lazily, one at a time,
//! by [`RowIter`] — late materialization all the way to the client, and the
//! snapshot stays valid even while other sessions keep appending to the
//! table.
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
//!   [`PositionList::from_distinct`]) and every later call is O(1);
//! * when the executor already had to order them (a residual filter or a
//!   positional aggregate ran), nothing is left to do.
//!
//! A result holds its row ids once: the first ordered read consumes the
//! vector the index produced and keeps the ordered list in its place.
//!
//! What a caller can observe is unchanged: `positions()` is always strictly
//! ascending, and `rows()` streams in that order.

use aidx_columnstore::column::{Column, ColumnCursor};
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

    /// Stream the projected rows in ascending position order. Each item is
    /// one row, with values in projection order. Returns an empty iterator
    /// (and orders nothing) when the query projected no columns.
    pub fn rows(&self) -> RowIter<'_> {
        let positions = if self.projected.is_empty() {
            &[]
        } else {
            self.positions().as_slice()
        };
        RowIter {
            positions: positions.iter(),
            columns: self.projected_columns().map(Column::cursor).collect(),
        }
    }

    /// The snapshot's projected columns, in projection order: what
    /// [`Self::rows`] reads, for a consumer that gathers the projected values
    /// column by column at [`Self::positions`] (see [`Column::gather`])
    /// instead of row by row.
    pub fn projected_columns(&self) -> impl ExactSizeIterator<Item = &Column> + '_ {
        // validated against the schema when the result was assembled, as the
        // selection was against the snapshot's row count
        self.projected.iter().map(|&column_index| {
            self.table
                .column_at(column_index)
                .expect("QueryResult invariant: projection validated")
        })
    }

    /// Materialize every projected row (convenience over [`Self::rows`]).
    pub fn collect_rows(&self) -> Vec<Vec<Value>> {
        self.rows().collect()
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

/// A streaming iterator over the projected rows of a [`QueryResult`].
///
/// Rows are reconstructed on demand from the result's table snapshot; no
/// intermediate row buffer is built. Positions ascend, so each projected
/// column is read through a cursor that resolves a chunk once per run of
/// rows inside it, not once per cell. The iterator is cheap to create and
/// can be re-created from the result any number of times.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    positions: std::slice::Iter<'a, RowId>,
    /// One reader per projected column, in projection order.
    columns: Vec<ColumnCursor<'a>>,
}

impl Iterator for RowIter<'_> {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Self::Item> {
        let position = *self.positions.next()?;
        Some(
            self.columns
                .iter_mut()
                .map(|column| column.value_at(position))
                .collect(),
        )
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.positions.size_hint()
    }
}

impl ExactSizeIterator for RowIter<'_> {}

impl<'a> IntoIterator for &'a QueryResult {
    type Item = Vec<Value>;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            Some(vec![Value::Utf8("b".into()), Value::Int64(20)])
        );
        assert_eq!(iter.len(), 1);
        assert_eq!(
            iter.next(),
            Some(vec![Value::Utf8("d".into()), Value::Int64(40)])
        );
        assert_eq!(iter.next(), None);
        // re-creating the iterator replays the rows
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
