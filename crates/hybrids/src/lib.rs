//! # aidx-hybrids
//!
//! Hybrid adaptive indexing ("Merging What's Cracked, Cracking What's
//! Merged" — Idreos, Manegold, Kuno, Graefe, PVLDB 2011), the family of
//! algorithms the EDBT 2012 tutorial presents as the space *between*
//! database cracking (lazy: minimal per-query investment, slow convergence)
//! and adaptive merging (eager: expensive first query, fast convergence).
//!
//! A hybrid algorithm is described by two letters:
//!
//! * how the **initial partitions** are organized the first time they are
//!   touched — **C**rack (left unsorted, cracked on demand), **S**ort
//!   (fully sorted, as in adaptive merging run generation), or **R**adix
//!   (clustered into value-range buckets, a cheap partial sort);
//! * how the **final partition** — the structure that accumulates every
//!   tuple a query has asked for — is organized: again Crack, Sort or Radix.
//!
//! `HCC` is closest to plain cracking, `HSS` *is* adaptive merging (Graefe &
//! Kuno — sorted runs generated on first touch, each query merging its key
//! range out of them into a final index of sorted merged ranges), and the
//! interesting trade-offs live in between (`HCS`, `HCR`, `HRS`, ...). This
//! crate implements all nine combinations behind one type, [`HybridIndex`],
//! parameterized by [`HybridAlgorithm`]; the kernel's adaptive-merging
//! strategy is [`HybridAlgorithm::SortSort`] with the run size as its
//! partition size. Every algorithm remembers the key intervals its queries
//! have drained, so a query inside one touches no initial partition.
//!
//! ```
//! use aidx_hybrids::{HybridAlgorithm, HybridIndex};
//!
//! let data = vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3];
//! let mut index = HybridIndex::from_keys(&data, HybridAlgorithm::CrackSort, 4, 4);
//! let mut answer = index.query_range(5, 15).keys;
//! answer.sort_unstable();
//! assert_eq!(answer, vec![7, 9, 12, 13]);
//! ```

#![warn(missing_docs)]

pub mod final_index;
pub mod final_partition;
pub mod hybrid;
pub mod run;
pub mod source;

pub use final_partition::FinalOrganization;
pub use hybrid::{HybridAlgorithm, HybridIndex, HybridQueryAnswer, PARTITION_SIZE, RADIX_BITS};
pub use source::SourceOrganization;
