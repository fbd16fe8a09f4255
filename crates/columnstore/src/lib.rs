//! # aidx-columnstore
//!
//! An in-memory column-store substrate in the spirit of MonetDB's storage and
//! execution model, providing exactly the properties that the adaptive
//! indexing literature (database cracking and friends) relies on:
//!
//! * **Chunked append-only segments** as the physical representation of a
//!   column ([`segment::Segment`], [`column::Column`]): a run of immutable,
//!   `Arc`-shared sealed chunks (each carrying [`segment::ZoneMap`]
//!   min/max/count statistics) plus one mutable tail chunk. A row is
//!   identified by its stable global position (a *row id* / *oid*);
//!   `(chunk, offset)` is derived arithmetically because sealed chunks are
//!   always exactly full. Copy-on-write appends share every sealed chunk and
//!   clone only the tail, so writes under live snapshots cost `O(chunk)`,
//!   not `O(table)`.
//! * **Bulk, column-at-a-time operators** ([`ops`]): selections produce
//!   position lists, projections fetch attribute values for position lists
//!   (*late tuple reconstruction*), aggregations consume either whole columns
//!   or position lists.
//! * **Late materialization**: intermediate results are [`position::PositionList`]s
//!   rather than rows, so that reconstruction only touches the columns a query
//!   actually needs.
//! * **Snapshot-friendly catalog**: [`catalog::Catalog`] stores tables behind
//!   `Arc`, so a reader can take a cheap point-in-time snapshot
//!   ([`catalog::Catalog::table_arc`]) and keep streaming rows out of it while
//!   writers append copy-on-write — the isolation the kernel's streaming
//!   result iterators are built on.
//!
//! The crate deliberately contains *no* indexing: it is the substrate on which
//! `aidx-cracking`, `aidx-hybrids` and `aidx-baselines` build.
//! It does hold the interface they share — [`index::AdaptiveIndex`] and its
//! answer type [`index::QueryOutput`] — beside the [`types::Key`] and
//! [`types::RowId`] it is written in, and the one call those indexes make
//! to the operating system: [`memory::advise_huge_pages`], which asks for
//! 2 MiB pages under the big arrays they write fresh.
//!
//! ## Quick example
//!
//! ```
//! use aidx_columnstore::prelude::*;
//!
//! let mut table = Table::new(Schema::new(vec![
//!     Field::new("a", DataType::Int64),
//!     Field::new("b", DataType::Int64),
//! ]));
//! table.append_row(&[Value::Int64(10), Value::Int64(100)]).unwrap();
//! table.append_row(&[Value::Int64(20), Value::Int64(200)]).unwrap();
//! table.append_row(&[Value::Int64(30), Value::Int64(300)]).unwrap();
//!
//! // select a from table where 15 <= a < 25 (bulk scan producing positions)
//! let positions = aidx_columnstore::ops::select::scan_select_range(
//!     table.column("a").unwrap(), &Predicate::range(15, 25));
//! // late materialization: fetch b for qualifying positions
//! let b = aidx_columnstore::ops::project::fetch_i64(table.column("b").unwrap(), &positions);
//! assert_eq!(b, vec![200]);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod catalog;
pub mod column;
pub mod error;
pub mod index;
pub mod memory;
pub mod ops;
pub mod position;
pub mod segment;
pub mod table;
pub mod types;

/// Convenient re-exports of the most frequently used items.
pub mod prelude {
    pub use crate::catalog::{Catalog, TableVersion};
    pub use crate::column::{Column, FixedColumn};
    pub use crate::error::{ColumnStoreError, Result};
    pub use crate::ops::select::{Predicate, PruneStats};
    pub use crate::position::PositionList;
    pub use crate::segment::{Segment, ZoneMap, DEFAULT_SEGMENT_CAPACITY};
    pub use crate::table::{Field, Schema, Table};
    pub use crate::types::{DataType, Key, RowId, Value};
}

pub use catalog::{Catalog, TableVersion};
pub use column::{Column, FixedColumn};
pub use error::{ColumnStoreError, Result};
pub use index::{AdaptiveIndex, QueryOutput};
pub use ops::select::PruneStats;
pub use position::PositionList;
pub use segment::{Segment, ZoneMap, DEFAULT_SEGMENT_CAPACITY};
pub use table::{Field, Schema, Table};
pub use types::{DataType, Key, RowId, Value, PAIR_BYTES};
