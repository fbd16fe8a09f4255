//! # aidx-parallel
//!
//! The parallel query-execution subsystem: everything the kernel needs to
//! use more than one core, built exclusively on `std` scoped threads.
//!
//! The EDBT 2012 tutorial's adaptive-indexing kernels are single-threaded.
//! Every column keeps exactly one adaptive index at any worker count (the
//! kernel's `IndexManager` builds and refines it under the column's latch);
//! what runs on more than one core is the work around it:
//!
//! * **Chunk-parallel scans** (module [`scan`]) — the segment layer stores
//!   every column as zone-mapped chunks, so a scan fans contiguous chunk
//!   stripes out across workers and merges per-stripe position lists and
//!   pruning statistics in stripe order. The merged result is byte-identical
//!   to the serial scan at every worker count, because both run the same
//!   per-chunk kernel and stripe order is position order.
//! * **The fork/join pool** (module [`pool`]) — fork/join regions with
//!   dynamic task claiming and deterministic, task-ordered result merging,
//!   executed on the **persistent** worker pool from `aidx-maintenance`
//!   (workers spawn once and park between regions; thread identities are
//!   stable). `ThreadPool::new(1)` is the identity: everything runs inline
//!   and no thread is ever spawned, which is how the serial kernel stays
//!   the default code path.
//! * **Chunk-parallel residual filtering** ([`parallel_filter_groups`],
//!   and [`parallel_filter_positions`] for ascending candidates) — the
//!   late-materialization filter step of a conjunctive query over candidates
//!   grouped by chunk: each group's zone map drops or keeps it whole where
//!   it can, and the rest run a predicated loop. Groups fan out across the
//!   pool in chunk stripes through the same per-group kernel the serial
//!   executor uses, so serial and parallel residual filtering produce
//!   byte-identical survivors and pruning statistics.
//!
//! ## Example: a chunk-parallel zone-pruned scan
//!
//! ```
//! use aidx_columnstore::ops::select::Predicate;
//! use aidx_columnstore::segment::Segment;
//! use aidx_parallel::{parallel_scan_select, ThreadPool};
//!
//! let segment = Segment::from_vec_with_capacity((0..10_000).collect(), 256);
//! let pool = ThreadPool::new(4);
//! let (positions, stats) = parallel_scan_select(&pool, &segment, &Predicate::range(100, 200));
//! assert_eq!(positions.len(), 100);
//! assert!(stats.chunks_pruned > 0, "zone maps prune per worker");
//! ```

#![deny(missing_docs)]

pub mod pool;
pub mod scan;

pub use pool::ThreadPool;
pub use scan::{
    parallel_filter_groups, parallel_filter_positions, parallel_scan_select, parallel_scan_where,
};
