//! Aggregation operators over whole columns or position lists.

use crate::column::Column;
use crate::position::PositionList;
use crate::types::{Key, RowId};

/// The result of a numeric aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Number of aggregated rows.
    pub count: usize,
    /// Sum of the aggregated values.
    pub sum: i128,
    /// Minimum value (None when `count == 0`).
    pub min: Option<Key>,
    /// Maximum value (None when `count == 0`).
    pub max: Option<Key>,
}

impl Aggregate {
    /// An aggregate over zero rows.
    pub fn empty() -> Self {
        Aggregate {
            count: 0,
            sum: 0,
            min: None,
            max: None,
        }
    }

    /// Mean of the aggregated values, if any.
    pub fn avg(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Fold one value into the aggregate.
    #[inline]
    pub fn accumulate(&mut self, v: Key) {
        self.count += 1;
        self.sum += v as i128;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }
}

/// Aggregate every value in a dense key slice.
pub fn aggregate_keys(keys: &[Key]) -> Aggregate {
    let mut agg = Aggregate::empty();
    for &v in keys {
        agg.accumulate(v);
    }
    agg
}

/// Aggregate the values of a key column at the given positions, read
/// through one cursor over the backing segment (the current chunk is
/// resolved once per run of positions, not per row; nothing is collected).
pub fn aggregate_at(column: &Column, positions: &PositionList) -> Aggregate {
    aggregate_row_ids(column, positions.as_slice())
}

/// Aggregate the values of a key column at distinct row ids in any order —
/// ascending positions, or an adaptive index's answer as it produced it —
/// through the cursor [`aggregate_at`] reads with. The cursor finds the
/// right chunk at any position, so nothing is ordered; `SUM`, `MIN`, `MAX`
/// and `COUNT` do not depend on the order they fold in.
pub fn aggregate_row_ids(column: &Column, row_ids: &[RowId]) -> Aggregate {
    let mut agg = Aggregate::empty();
    if let Some(c) = column.as_i64() {
        let mut cursor = c.cursor();
        for &p in row_ids {
            agg.accumulate(cursor.value(p));
        }
    }
    agg
}

/// Sum of key values at the given positions (common fast path in the
/// experiment harnesses: queries are `SELECT SUM(b) WHERE a BETWEEN ...`),
/// read through one cursor like [`aggregate_at`].
pub fn sum_at(column: &Column, positions: &PositionList) -> i128 {
    match column.as_i64() {
        Some(c) => {
            let mut cursor = c.cursor();
            positions
                .as_slice()
                .iter()
                .map(|&p| cursor.value(p) as i128)
                .sum()
        }
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_empty() {
        let a = aggregate_keys(&[]);
        assert_eq!(a.count, 0);
        assert_eq!(a.sum, 0);
        assert_eq!(a.min, None);
        assert_eq!(a.max, None);
        assert_eq!(a.avg(), None);
    }

    #[test]
    fn aggregate_values() {
        let a = aggregate_keys(&[5, -3, 10, 2]);
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 14);
        assert_eq!(a.min, Some(-3));
        assert_eq!(a.max, Some(10));
        assert!((a.avg().unwrap() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_at_positions() {
        let c = Column::from_i64(vec![10, 20, 30, 40]);
        let p = PositionList::from_vec(vec![1, 3]);
        let a = aggregate_at(&c, &p);
        assert_eq!(a.count, 2);
        assert_eq!(a.sum, 60);
        assert_eq!(a.min, Some(20));
        assert_eq!(a.max, Some(40));
        assert_eq!(sum_at(&c, &p), 60);
    }

    #[test]
    fn aggregate_at_empty_qualifying_set_is_none_not_garbage() {
        // the empty-set audit: MIN/MAX/AVG over zero qualifying rows must be
        // None (COUNT is 0 and SUM is the empty sum), never a sentinel like
        // 0/i64::MIN/i64::MAX that a caller could mistake for data
        let c = Column::from_i64(vec![10, 20, 30]);
        let empty = PositionList::new();
        let a = aggregate_at(&c, &empty);
        assert_eq!(a.count, 0);
        assert_eq!(a.sum, 0);
        assert_eq!(a.min, None);
        assert_eq!(a.max, None);
        assert_eq!(a.avg(), None);
        assert_eq!(sum_at(&c, &empty), 0);
    }

    #[test]
    fn every_order_of_the_same_ids_aggregates_alike() {
        // four chunks of 16 and a tail; a per-row reference beside both the
        // ordered and the as-produced path
        let values: Vec<Key> = (0..70).map(|i| (i * 37 % 71) - 35).collect();
        let c = Column::from_i64(values.clone()).with_segment_capacity(16);
        let ascending: Vec<RowId> = (0..70).filter(|i| i % 3 != 1).collect();
        let produced: Vec<RowId> = ascending.iter().rev().copied().collect();
        let mut reference = Aggregate::empty();
        for &p in &ascending {
            reference.accumulate(values[p as usize]);
        }
        let ordered = PositionList::from_sorted_vec(ascending.clone());
        assert_eq!(aggregate_at(&c, &ordered), reference);
        assert_eq!(aggregate_row_ids(&c, &produced), reference);
        assert_eq!(aggregate_row_ids(&c, &ascending), reference);
        assert_eq!(sum_at(&c, &ordered), reference.sum);
        assert_eq!(aggregate_row_ids(&c, &[]), Aggregate::empty());
    }

    #[test]
    fn aggregate_at_wrong_type() {
        let c = Column::from_f64(vec![1.0]);
        let p = PositionList::from_vec(vec![0]);
        assert_eq!(aggregate_at(&c, &p).count, 0);
        assert_eq!(aggregate_row_ids(&c, &[0]).count, 0);
        assert_eq!(sum_at(&c, &p), 0);
    }

    #[test]
    fn accumulate_handles_extremes() {
        let mut a = Aggregate::empty();
        a.accumulate(Key::MAX);
        a.accumulate(Key::MAX);
        assert_eq!(a.sum, Key::MAX as i128 * 2);
        assert_eq!(a.min, Some(Key::MAX));
    }
}
