//! # aidx-baselines
//!
//! The non-adaptive ends of the indexing spectrum that the EDBT 2012 tutorial
//! contrasts adaptive indexing against:
//!
//! * [`scan`] — no index at all: every query scans the whole column. Zero
//!   initialization cost, zero convergence.
//! * [`sorted`] — a full, offline index (a sorted copy of the column built
//!   a priori): the best possible per-query cost, paid for by an expensive
//!   initialization that must happen before the first query and with no
//!   regard for which key ranges the workload actually needs.
//! * [`offline`] — what-if analysis: an index advisor that analyzes a sample
//!   workload and a cost model and recommends which columns to index, the
//!   paradigm behind the commercial auto-tuning tools the tutorial surveys.
//! * [`online`] — online index tuning (COLT-style): the system monitors the
//!   live workload, accumulates the estimated benefit a hypothetical index
//!   would have had, and builds the index once that benefit exceeds its
//!   construction cost.
//!
//!   Soft indexes are the same monitor with two other settings: the
//!   index-selection decision is taken only periodically, and construction
//!   piggybacks on the scan of the query that triggers it (the data is
//!   already in flight), so it counts at a discount; the index is still
//!   built to completion, not incrementally.
//! * [`cost`] — the logical cost model the advisors and the monitor estimate
//!   an index's benefit with.
//!
//! Every index here records its effort into `aidx_cracking`'s `CrackStats`,
//! the counter the adaptive techniques use, so their efforts compare
//! directly.

#![warn(missing_docs)]

pub mod cost;
pub mod offline;
pub mod online;
pub mod scan;
pub mod sorted;

pub use cost::CostModel;
pub use offline::{IndexRecommendation, OfflineAdvisor, WorkloadSample};
pub use online::OnlineIndexTuner;
pub use scan::FullScanIndex;
pub use sorted::FullSortIndex;
