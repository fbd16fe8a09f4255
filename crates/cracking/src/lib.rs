//! # aidx-cracking
//!
//! Database cracking: adaptive, incremental index construction as a side
//! effect of query processing (Idreos, Kersten, Manegold — CIDR 2007, SIGMOD
//! 2007, SIGMOD 2009; surveyed in the EDBT 2012 tutorial this workspace
//! reproduces).
//!
//! The central idea: *every query is treated as advice on how data should be
//! stored*. The first range selection on a column copies it into a **cracker
//! column** — partitioned around that selection's bounds as it is copied —
//! and each subsequent selection physically reorganizes ("cracks") only
//! the pieces of that copy that the query touches, so that the qualifying
//! values end up contiguous. A **cracker index** remembers the piece
//! boundaries. Over time the column converges towards a fully sorted state,
//! but only in the key ranges the workload actually asks for.
//!
//! ## Modules
//!
//! * [`crack`] — the partition kernels: crack-in-two / crack-in-three in
//!   place, and the out-of-place partition that builds a cracker column from
//!   the base column's chunks.
//! * [`cracker_column`] — the (value, row-id) pair column that gets cracked.
//! * [`index`] — the cracker index: the catalog of piece boundaries, on a
//!   `BTreeMap`.
//! * [`selection`] — [`selection::CrackedIndex`], the selection-cracking
//!   adaptive index: answers range queries and cracks as a side effect, and
//!   absorbs insertions, staged and merged by the queries that need them
//!   (merge-ripple).
//! * [`stochastic`] — stochastic cracking (DDC / DDR / MDD1R style auxiliary
//!   cracks) for robustness against adversarial (e.g. sequential) workloads.
//! * [`partial`] — partial cracking under a storage budget.
//! * [`sideways`] — sideways cracking: cracker maps, map sets and adaptive
//!   alignment for multi-column queries and late tuple reconstruction.
//! * [`stats`] — instrumentation shared by all of the above.
//!
//! The three indexes a kernel can hold — [`selection::CrackedIndex`],
//! [`stochastic::StochasticCrackedIndex`] and
//! [`partial::PartialCrackedIndex`] — implement
//! `aidx_columnstore::index::AdaptiveIndex` here, beside their own richer
//! inherent interfaces.
//!
//! ## Quick example
//!
//! ```
//! use aidx_cracking::selection::CrackedIndex;
//!
//! let data = vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3];
//! let mut index = CrackedIndex::from_keys(&data);
//!
//! // "select * where 5 <= key < 15" — answers the query AND cracks the column
//! let result = index.query_range(5, 15);
//! let mut keys = result.keys().to_vec();
//! keys.sort_unstable();
//! assert_eq!(keys, vec![7, 9, 12, 13]);
//!
//! // the physical data is now partitioned around 5 and 15
//! assert!(index.piece_count() >= 3);
//! ```

#![warn(missing_docs)]

pub mod crack;
pub mod cracker_column;
pub mod index;
pub mod partial;
pub mod selection;
pub mod sideways;
pub mod stats;
pub mod stochastic;

pub use cracker_column::CrackerColumn;
pub use selection::{CrackedIndex, RangeResult};
pub use stats::CrackStats;
