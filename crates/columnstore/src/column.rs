//! Typed column storage over chunked segments.
//!
//! A [`Column`] wraps the supported types behind one enum so that tables can
//! hold heterogeneous columns; strings are dictionary-encoded so that their
//! dense representation is also fixed width (a `u32` code per row). Since the
//! segment-storage rework, every column is physically a [`Segment`]: a run of
//! immutable, `Arc`-shared sealed chunks plus one mutable tail chunk, each
//! sealed chunk carrying zone-map statistics.
//!
//! [`FixedColumn<T>`] — the original flat representation the cracking papers
//! assume — survives as a standalone dense-array helper: the adaptive index
//! structures (cracker columns, sorted runs) still build and reorganize flat
//! *copies* of the data, exactly as MonetDB does, so the base storage can be
//! chunked without the index kernels noticing.

use crate::error::{ColumnStoreError, Result};
use crate::position::PositionList;
use crate::segment::{Segment, SegmentCursor};
use crate::types::{DataType, RowId, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A dense, fixed-width, append-only array of `T`.
///
/// No longer the backing store of [`Column`] (segments are), but still the
/// representation the adaptive indexes copy base data into before
/// reorganizing it, and a convenient flat buffer for tests and kernels.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FixedColumn<T> {
    data: Vec<T>,
}

impl<T: Copy> FixedColumn<T> {
    /// Create an empty column.
    pub fn new() -> Self {
        FixedColumn { data: Vec::new() }
    }

    /// Create an empty column with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        FixedColumn {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Build a column from an existing vector (no copy).
    pub fn from_vec(data: Vec<T>) -> Self {
        FixedColumn { data }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append one value, returning its position.
    pub fn push(&mut self, value: T) -> RowId {
        let id = self.data.len() as RowId;
        self.data.push(value);
        id
    }

    /// Append many values.
    pub fn extend_from_slice(&mut self, values: &[T]) {
        self.data.extend_from_slice(values);
    }

    /// Value at `position`, if in bounds.
    pub fn get(&self, position: usize) -> Option<T> {
        self.data.get(position).copied()
    }

    /// Value at `position`; panics when out of bounds (hot-path accessor).
    #[inline]
    pub fn value(&self, position: usize) -> T {
        self.data[position]
    }

    /// The underlying dense array.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the dense array (used only by update paths).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterate over values.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.data.iter()
    }

    /// Consume the column, returning the dense array.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

impl<T: Copy + Ord> FixedColumn<T> {
    /// Minimum value, if the column is non-empty.
    pub fn min(&self) -> Option<T> {
        self.data.iter().copied().min()
    }

    /// Maximum value, if the column is non-empty.
    pub fn max(&self) -> Option<T> {
        self.data.iter().copied().max()
    }
}

impl<T: Copy> From<Vec<T>> for FixedColumn<T> {
    fn from(data: Vec<T>) -> Self {
        FixedColumn::from_vec(data)
    }
}

impl<T: Copy> FromIterator<T> for FixedColumn<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        FixedColumn {
            data: iter.into_iter().collect(),
        }
    }
}

/// A dictionary for string columns: maps strings to dense `u32` codes.
///
/// Codes are assigned in first-seen order, so equality predicates map to
/// equality on codes; range predicates on strings are answered by decoding
/// (they are rare in the adaptive indexing workloads).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dictionary {
    values: Vec<String>,
    codes: HashMap<String, u32>,
}

impl Dictionary {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Intern a string, returning its code (existing or newly assigned).
    pub fn intern(&mut self, value: &str) -> u32 {
        if let Some(&code) = self.codes.get(value) {
            return code;
        }
        let code = self.values.len() as u32;
        self.values.push(value.to_owned());
        self.codes.insert(value.to_owned(), code);
        code
    }

    /// Code for a string, if it has been interned before.
    pub fn lookup(&self, value: &str) -> Option<u32> {
        self.codes.get(value).copied()
    }

    /// String for a code.
    pub fn decode(&self, code: u32) -> Option<&str> {
        self.values.get(code as usize).map(String::as_str)
    }
}

/// A typed column: the substrate's unit of storage, physically a chunked
/// [`Segment`].
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Chunked `i64` segment.
    Int64(Segment<i64>),
    /// Chunked `f64` segment.
    Float64(Segment<f64>),
    /// Dictionary-encoded strings: chunked `u32` codes plus the dictionary.
    Utf8 {
        /// Per-row dictionary codes.
        codes: Segment<u32>,
        /// The dictionary shared by the column. Behind [`Arc`] so that the
        /// catalog's copy-on-write table clone is a reference-count bump for
        /// the dictionary: appending a row while a snapshot is alive only
        /// deep-copies the dictionary when the appended string is genuinely
        /// new (see [`Column::push_value`]).
        dictionary: Arc<Dictionary>,
    },
}

impl Column {
    /// Create an empty column of the given type with the default segment
    /// capacity.
    pub fn empty(data_type: DataType) -> Self {
        Column::empty_with_capacity(data_type, crate::segment::DEFAULT_SEGMENT_CAPACITY)
    }

    /// Create an empty column of the given type, sealing chunks of
    /// `capacity` rows.
    pub fn empty_with_capacity(data_type: DataType, capacity: usize) -> Self {
        match data_type {
            DataType::Int64 => Column::Int64(Segment::with_chunk_capacity(capacity)),
            DataType::Float64 => Column::Float64(Segment::with_chunk_capacity(capacity)),
            DataType::Utf8 => Column::Utf8 {
                codes: Segment::with_chunk_capacity(capacity),
                dictionary: Arc::new(Dictionary::new()),
            },
        }
    }

    /// Build an `Int64` column from a vector.
    pub fn from_i64(values: Vec<i64>) -> Self {
        Column::Int64(Segment::from_vec(values))
    }

    /// Build a `Float64` column from a vector.
    pub fn from_f64(values: Vec<f64>) -> Self {
        Column::Float64(Segment::from_vec(values))
    }

    /// Build a `Utf8` column from string slices.
    pub fn from_strs(values: &[&str]) -> Self {
        let mut dictionary = Dictionary::new();
        let mut codes = Segment::new();
        for v in values {
            let code = dictionary.intern(v);
            codes.push(code);
        }
        Column::Utf8 {
            codes,
            dictionary: Arc::new(dictionary),
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(_) => DataType::Int64,
            Column::Float64(_) => DataType::Float64,
            Column::Utf8 { .. } => DataType::Utf8,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(c) => c.len(),
            Column::Float64(c) => c.len(),
            Column::Utf8 { codes, .. } => codes.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows per sealed chunk of the backing segment.
    pub fn segment_capacity(&self) -> usize {
        match self {
            Column::Int64(c) => c.chunk_capacity(),
            Column::Float64(c) => c.chunk_capacity(),
            Column::Utf8 { codes, .. } => codes.chunk_capacity(),
        }
    }

    /// The same rows re-chunked to `capacity` rows per chunk (a cheap clone
    /// sharing every sealed chunk when the capacity already matches).
    pub fn with_segment_capacity(&self, capacity: usize) -> Column {
        match self {
            Column::Int64(c) => Column::Int64(c.rechunked(capacity)),
            Column::Float64(c) => Column::Float64(c.rechunked(capacity)),
            Column::Utf8 { codes, dictionary } => Column::Utf8 {
                codes: codes.rechunked(capacity),
                dictionary: Arc::clone(dictionary),
            },
        }
    }

    /// Approximate in-memory footprint of the dense data in bytes
    /// (dictionary overhead excluded; it is shared and small for the
    /// synthetic workloads used here).
    pub fn byte_size(&self) -> usize {
        self.len() * self.data_type().value_width()
    }

    /// Seal the backing segment's mutable tail as an (undersized) immutable
    /// chunk; returns `true` when a chunk was sealed. The copy-on-write
    /// append path calls this so a writer under a live snapshot shares the
    /// former tail instead of deep-copying it (see [`Segment::seal_tail`]).
    pub fn seal_tail(&mut self) -> bool {
        match self {
            Column::Int64(c) => c.seal_tail(),
            Column::Float64(c) => c.seal_tail(),
            Column::Utf8 { codes, .. } => codes.seal_tail(),
        }
    }

    /// Row counts of the backing segment's sealed chunks, in chunk order
    /// (the observation a compaction policy plans over).
    pub fn sealed_chunk_lens(&self) -> Vec<usize> {
        match self {
            Column::Int64(c) => c.sealed_chunk_lens(),
            Column::Float64(c) => c.sealed_chunk_lens(),
            Column::Utf8 { codes, .. } => codes.sealed_chunk_lens(),
        }
    }

    /// Number of undersized sealed chunks in the backing segment.
    pub fn fragmented_chunk_count(&self) -> usize {
        match self {
            Column::Int64(c) => c.fragmented_chunk_count(),
            Column::Float64(c) => c.fragmented_chunk_count(),
            Column::Utf8 { codes, .. } => codes.fragmented_chunk_count(),
        }
    }

    /// The column with the given runs of sealed chunks merged into full
    /// chunks (see [`Segment::compact_runs`]): same values at the same
    /// positions, fewer and fuller chunks. Chunks outside the runs — and the
    /// string dictionary — are shared, not copied.
    pub fn compact_runs(&self, runs: &[(usize, usize)]) -> Column {
        match self {
            Column::Int64(c) => Column::Int64(c.compact_runs(runs)),
            Column::Float64(c) => Column::Float64(c.compact_runs(runs)),
            Column::Utf8 { codes, dictionary } => Column::Utf8 {
                codes: codes.compact_runs(runs),
                dictionary: Arc::clone(dictionary),
            },
        }
    }

    /// Append a dynamically typed value. Returns the new row's position.
    pub fn push_value(&mut self, column_name: &str, value: &Value) -> Result<RowId> {
        match (self, value) {
            (Column::Int64(c), Value::Int64(v)) => Ok(c.push(*v)),
            (Column::Float64(c), Value::Float64(v)) => Ok(c.push(*v)),
            (Column::Utf8 { codes, dictionary }, Value::Utf8(s)) => {
                // appending an already-interned string must not deep-clone a
                // dictionary shared with live snapshots; only a genuinely new
                // string pays the copy-on-write (and only while shared)
                let code = match dictionary.lookup(s) {
                    Some(code) => code,
                    None => Arc::make_mut(dictionary).intern(s),
                };
                Ok(codes.push(code))
            }
            (col, value) => Err(ColumnStoreError::TypeMismatch {
                column: column_name.to_owned(),
                expected: col.data_type(),
                found: value.data_type(),
            }),
        }
    }

    /// Read the value at `position` as a dynamically typed [`Value`].
    pub fn value_at(&self, position: usize) -> Result<Value> {
        let len = self.len();
        if position >= len {
            return Err(ColumnStoreError::PositionOutOfBounds {
                position: position as u64,
                len,
            });
        }
        Ok(match self {
            Column::Int64(c) => Value::Int64(c.value(position)),
            Column::Float64(c) => Value::Float64(c.value(position)),
            Column::Utf8 { codes, dictionary } => {
                let code = codes.value(position);
                Value::Utf8(
                    dictionary
                        .decode(code)
                        .expect("dictionary code out of range")
                        .to_owned(),
                )
            }
        })
    }

    /// A reader for dynamically typed values at ascending positions: like
    /// [`Column::value_at`], but a run of positions inside one chunk resolves
    /// the chunk once.
    pub fn cursor(&self) -> ColumnCursor<'_> {
        ColumnCursor(match self {
            Column::Int64(c) => TypedCursor::Int64(c.cursor()),
            Column::Float64(c) => TypedCursor::Float64(c.cursor()),
            Column::Utf8 { codes, dictionary } => TypedCursor::Utf8 {
                codes: codes.cursor(),
                dictionary,
            },
        })
    }

    /// Borrow the `i64` segment, if this is an `Int64` column.
    pub fn as_i64(&self) -> Option<&Segment<i64>> {
        match self {
            Column::Int64(c) => Some(c),
            _ => None,
        }
    }

    /// Borrow the `f64` segment, if this is a `Float64` column.
    pub fn as_f64(&self) -> Option<&Segment<f64>> {
        match self {
            Column::Float64(c) => Some(c),
            _ => None,
        }
    }

    /// Borrow the dictionary-code segment, if this is a `Utf8` column.
    pub fn as_utf8(&self) -> Option<(&Segment<u32>, &Dictionary)> {
        match self {
            Column::Utf8 { codes, dictionary } => Some((codes, dictionary.as_ref())),
            _ => None,
        }
    }

    /// The shared dictionary handle, if this is a `Utf8` column (exposed so
    /// tests can assert `Arc::ptr_eq` sharing across copy-on-write clones).
    pub fn utf8_dictionary(&self) -> Option<&Arc<Dictionary>> {
        match self {
            Column::Utf8 { dictionary, .. } => Some(dictionary),
            _ => None,
        }
    }

    /// Materialize the values at the given positions as dynamic values.
    pub fn gather(&self, positions: &PositionList) -> Result<Vec<Value>> {
        let len = self.len();
        if let Some(&last) = positions.as_slice().last() {
            if last as usize >= len {
                return Err(ColumnStoreError::PositionOutOfBounds {
                    position: last as u64,
                    len,
                });
            }
        }
        let mut cursor = self.cursor();
        Ok(positions.iter().map(|p| cursor.value_at(p)).collect())
    }
}

/// Reads a [`Column`]'s values at ascending positions, created by
/// [`Column::cursor`].
#[derive(Debug, Clone)]
pub struct ColumnCursor<'a>(TypedCursor<'a>);

#[derive(Debug, Clone)]
enum TypedCursor<'a> {
    Int64(SegmentCursor<'a, i64>),
    Float64(SegmentCursor<'a, f64>),
    /// Per-row dictionary codes, decoded through the column's dictionary.
    Utf8 {
        codes: SegmentCursor<'a, u32>,
        dictionary: &'a Dictionary,
    },
}

impl ColumnCursor<'_> {
    /// The value at `position`; panics when out of bounds.
    #[inline]
    pub fn value_at(&mut self, position: RowId) -> Value {
        match &mut self.0 {
            TypedCursor::Int64(c) => Value::Int64(c.value(position)),
            TypedCursor::Float64(c) => Value::Float64(c.value(position)),
            TypedCursor::Utf8 { codes, dictionary } => Value::Utf8(
                dictionary
                    .decode(codes.value(position))
                    .expect("dictionary code out of range")
                    .to_owned(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_column_basic_ops() {
        let mut c: FixedColumn<i64> = FixedColumn::new();
        assert!(c.is_empty());
        assert_eq!(c.push(5), 0);
        assert_eq!(c.push(3), 1);
        c.extend_from_slice(&[9, 1]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(2), Some(9));
        assert_eq!(c.get(10), None);
        assert_eq!(c.value(3), 1);
        assert_eq!(c.min(), Some(1));
        assert_eq!(c.max(), Some(9));
        assert_eq!(c.as_slice(), &[5, 3, 9, 1]);
        assert_eq!(c.iter().copied().sum::<i64>(), 18);
        assert_eq!(c.clone().into_vec(), vec![5, 3, 9, 1]);
    }

    #[test]
    fn fixed_column_from_iter_and_vec() {
        let c: FixedColumn<i64> = (0..5).collect();
        assert_eq!(c.as_slice(), &[0, 1, 2, 3, 4]);
        let c2: FixedColumn<i64> = vec![7, 8].into();
        assert_eq!(c2.len(), 2);
        let c3: FixedColumn<i64> = FixedColumn::with_capacity(16);
        assert!(c3.is_empty());
        assert!(c3.as_slice().is_empty());
    }

    #[test]
    fn dictionary_intern_and_decode() {
        let mut d = Dictionary::new();
        assert!(d.is_empty());
        let a = d.intern("apple");
        let b = d.intern("banana");
        let a2 = d.intern("apple");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.decode(a), Some("apple"));
        assert_eq!(d.lookup("banana"), Some(b));
        assert_eq!(d.lookup("cherry"), None);
        assert_eq!(d.decode(99), None);
    }

    #[test]
    fn column_int64_push_and_read() {
        let mut c = Column::empty(DataType::Int64);
        c.push_value("a", &Value::Int64(42)).unwrap();
        c.push_value("a", &Value::Int64(7)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.value_at(0).unwrap(), Value::Int64(42));
        assert_eq!(c.byte_size(), 16);
        assert!(c.as_i64().is_some());
        assert!(c.as_f64().is_none());
    }

    #[test]
    fn column_type_mismatch_errors() {
        let mut c = Column::empty(DataType::Int64);
        let err = c.push_value("a", &Value::Utf8("x".into())).unwrap_err();
        assert!(matches!(err, ColumnStoreError::TypeMismatch { .. }));
        let err = c.push_value("a", &Value::Null).unwrap_err();
        assert!(matches!(err, ColumnStoreError::TypeMismatch { .. }));
    }

    #[test]
    fn column_out_of_bounds() {
        let c = Column::from_i64(vec![1, 2]);
        let err = c.value_at(5).unwrap_err();
        assert!(matches!(err, ColumnStoreError::PositionOutOfBounds { .. }));
        let err = c.gather(&PositionList::from_vec(vec![0, 9])).unwrap_err();
        assert!(matches!(err, ColumnStoreError::PositionOutOfBounds { .. }));
    }

    #[test]
    fn column_utf8_roundtrip() {
        let c = Column::from_strs(&["x", "y", "x"]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.data_type(), DataType::Utf8);
        assert_eq!(c.value_at(2).unwrap(), Value::Utf8("x".into()));
        let (codes, dict) = c.as_utf8().unwrap();
        assert_eq!(codes.value(0), codes.value(2));
        assert_eq!(dict.len(), 2);
        let gathered = c.gather(&PositionList::from_vec(vec![0, 2])).unwrap();
        assert_eq!(
            gathered,
            vec![Value::Utf8("x".into()), Value::Utf8("x".into())]
        );
    }

    #[test]
    fn column_float64_and_gather() {
        let c = Column::from_f64(vec![0.5, 1.5, 2.5]);
        assert_eq!(c.value_at(1).unwrap(), Value::Float64(1.5));
        let positions = PositionList::from_vec(vec![0, 2]);
        let vals = c.gather(&positions).unwrap();
        assert_eq!(vals, vec![Value::Float64(0.5), Value::Float64(2.5)]);
        assert!(c.as_f64().is_some());
        assert!(c.as_utf8().is_none());
    }

    #[test]
    fn dictionary_is_arc_shared_until_a_new_string_appears() {
        let original = Column::from_strs(&["x", "y"]);
        let mut clone = original.clone();
        let before = Arc::clone(original.utf8_dictionary().unwrap());
        assert!(
            Arc::ptr_eq(&before, clone.utf8_dictionary().unwrap()),
            "cloning a column must not deep-copy the dictionary"
        );
        // appending an existing string keeps the shared dictionary
        clone.push_value("s", &Value::Utf8("y".into())).unwrap();
        assert!(Arc::ptr_eq(&before, clone.utf8_dictionary().unwrap()));
        // a genuinely new string pays the copy-on-write — and only the clone
        clone.push_value("s", &Value::Utf8("z".into())).unwrap();
        assert!(!Arc::ptr_eq(&before, clone.utf8_dictionary().unwrap()));
        assert_eq!(original.utf8_dictionary().unwrap().len(), 2);
        assert_eq!(clone.utf8_dictionary().unwrap().len(), 3);
        assert_eq!(clone.value_at(3).unwrap(), Value::Utf8("z".into()));
        // an unshared dictionary mutates in place without cloning (compare
        // raw pointers: holding an Arc would itself make it shared)
        let after = Arc::as_ptr(clone.utf8_dictionary().unwrap());
        clone.push_value("s", &Value::Utf8("w".into())).unwrap();
        assert_eq!(after, Arc::as_ptr(clone.utf8_dictionary().unwrap()));
        assert!(Column::from_i64(vec![1]).utf8_dictionary().is_none());
    }

    #[test]
    fn columns_are_chunked_segments() {
        let mut c = Column::empty_with_capacity(DataType::Int64, 4);
        assert_eq!(c.segment_capacity(), 4);
        for i in 0..10 {
            c.push_value("a", &Value::Int64(i)).unwrap();
        }
        let seg = c.as_i64().unwrap();
        assert_eq!(seg.sealed_chunk_count(), 2);
        assert_eq!(seg.tail().len(), 2);
        // re-chunking never changes logical contents
        let wide = c.with_segment_capacity(64);
        assert_eq!(wide.len(), 10);
        assert_eq!(wide.as_i64().unwrap().sealed_chunk_count(), 0);
        assert_eq!(wide.value_at(7).unwrap(), Value::Int64(7));
    }
}
