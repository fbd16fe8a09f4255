//! The auto-tuning policy layer: which strategy should a column use?
//!
//! The tutorial's closing sections argue for a kernel that *combines* offline
//! analysis, online analysis and adaptive indexing: stable, well-known
//! workloads deserve a full index built up front; completely unknown or
//! rapidly changing workloads should pay nothing until queries arrive and
//! then adapt incrementally; storage-constrained deployments should restrict
//! themselves to partial structures. [`AutoTuner`] is a small, explainable
//! version of that decision logic.
//!
//! Tuner decisions plug into the facade through
//! [`crate::Session::execute_with`], which creates any missing index with
//! the decided strategy instead of the database default:
//!
//! ```
//! use aidx_core::prelude::*;
//! use aidx_core::tuner::WorkloadProfile;
//!
//! let db = Database::new(StrategyKind::Cracking);
//! db.create_table(
//!     "t",
//!     Table::from_columns(vec![("k", Column::from_i64((0..2000).rev().collect()))])?,
//! )?;
//!
//! let tuner = AutoTuner::new(TuningPolicy::CostBased);
//! let mut profile = WorkloadProfile::unpredictable(2000, 100_000);
//! profile.predictability = 1.0; // this workload is fully known in advance
//! let decision = tuner.decide(&profile);
//! assert_eq!(decision.strategy, StrategyKind::FullSort);
//!
//! let query = Query::table("t").range("k", 100, 200);
//! let result = db.session().execute_with(&query, decision.strategy)?;
//! assert_eq!(result.row_count(), 100);
//! assert_eq!(db.index_stats()[0].strategy, "full-sort");
//! # Ok::<(), aidx_core::AidxError>(())
//! ```

use crate::strategy::StrategyKind;
use aidx_baselines::cost::CostModel;
use aidx_columnstore::types::Key;
use aidx_cracking::CrackerColumn;
use serde::{Deserialize, Serialize};

/// Workload knowledge available when the tuner makes a decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Number of rows in the column.
    pub row_count: usize,
    /// Queries expected (or observed so far) against this column.
    pub expected_queries: u64,
    /// Average selectivity of those queries (fraction of the domain).
    pub average_selectivity: f64,
    /// Fraction of operations that are updates (0.0 = read-only).
    pub update_fraction: f64,
    /// How predictable the workload is: 1.0 = fully known in advance
    /// (offline tuning is safe), 0.0 = completely unknown / shifting.
    pub predictability: f64,
    /// Auxiliary storage budget in bytes (usize::MAX = unconstrained).
    pub storage_budget_bytes: usize,
}

impl WorkloadProfile {
    /// A read-only, unpredictable workload profile — the adaptive indexing
    /// sweet spot — with everything else defaulted.
    pub fn unpredictable(row_count: usize, expected_queries: u64) -> Self {
        WorkloadProfile {
            row_count,
            expected_queries,
            average_selectivity: 0.01,
            update_fraction: 0.0,
            predictability: 0.0,
            storage_budget_bytes: usize::MAX,
        }
    }
}

/// The tuning policy in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TuningPolicy {
    /// Always use plain selection cracking (the MonetDB default).
    AlwaysCrack,
    /// Always build a full sorted index up front.
    AlwaysFullSort,
    /// Never build anything; always scan.
    NeverIndex,
    /// Choose per column from the workload profile and the cost model.
    CostBased,
}

/// A decision the tuner made, with its reasoning attached (the tutorial
/// stresses that autonomous kernels must stay explainable to DBAs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningDecision {
    /// The chosen strategy.
    pub strategy: StrategyKind,
    /// Human-readable justification.
    pub reason: String,
}

/// The auto-tuner.
#[derive(Debug, Clone)]
pub struct AutoTuner {
    policy: TuningPolicy,
    cost_model: CostModel,
}

impl AutoTuner {
    /// Create a tuner with the given policy and the default cost model.
    pub fn new(policy: TuningPolicy) -> Self {
        AutoTuner {
            policy,
            cost_model: CostModel::default(),
        }
    }

    /// Create a cost-based tuner with an explicit cost model.
    pub fn with_cost_model(cost_model: CostModel) -> Self {
        AutoTuner {
            policy: TuningPolicy::CostBased,
            cost_model,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> TuningPolicy {
        self.policy
    }

    /// Decide the strategy for a column described by `profile`.
    pub fn decide(&self, profile: &WorkloadProfile) -> TuningDecision {
        match self.policy {
            TuningPolicy::AlwaysCrack => TuningDecision {
                strategy: StrategyKind::Cracking,
                reason: "policy: always crack".to_owned(),
            },
            TuningPolicy::AlwaysFullSort => TuningDecision {
                strategy: StrategyKind::FullSort,
                reason: "policy: always full sort".to_owned(),
            },
            TuningPolicy::NeverIndex => TuningDecision {
                strategy: StrategyKind::FullScan,
                reason: "policy: never index".to_owned(),
            },
            TuningPolicy::CostBased => self.cost_based_decision(profile),
        }
    }

    fn cost_based_decision(&self, profile: &WorkloadProfile) -> TuningDecision {
        let n = profile.row_count;
        let queries = profile.expected_queries as f64;
        let selectivity = profile.average_selectivity.clamp(0.0, 1.0);

        // 1. Too few queries to ever pay for anything: scan.
        let scan_total = self.cost_model.scan_query_cost(n, selectivity) * queries;
        let build_cost = self.cost_model.index_build_cost(n);
        let index_total = build_cost + self.cost_model.index_query_cost(n, selectivity) * queries;
        if scan_total <= index_total && queries < 8.0 {
            return TuningDecision {
                strategy: StrategyKind::FullScan,
                reason: format!(
                    "only {queries:.0} queries expected; scanning ({scan_total:.0}) beats building an index ({index_total:.0})"
                ),
            };
        }

        // 2. Storage-constrained columns fall back to partial cracking. The
        //    profile does not know the key domain, so the copy is sized at
        //    the widest a cracker column's tuples can be.
        let full_copy_bytes = n * CrackerColumn::tuple_bytes(Key::MIN, Key::MAX);
        if profile.storage_budget_bytes < full_copy_bytes {
            return TuningDecision {
                strategy: StrategyKind::PartialCracking {
                    budget_bytes: profile.storage_budget_bytes,
                },
                reason: format!(
                    "storage budget {} B cannot hold a full auxiliary copy ({} B); restrict to queried ranges",
                    profile.storage_budget_bytes, full_copy_bytes
                ),
            };
        }

        // 3. Update-heavy columns need an index that absorbs inserts rather
        //    than one rebuilt after each of them: cracking merges them.
        if profile.update_fraction > 0.05 {
            return TuningDecision {
                strategy: StrategyKind::Cracking,
                reason: format!(
                    "{}% of operations are updates; use cracking with adaptive merge-ripple updates",
                    (profile.update_fraction * 100.0).round()
                ),
            };
        }

        // 4. Fully predictable, long-lived workloads: offline full index.
        if profile.predictability >= 0.9 && index_total < scan_total {
            return TuningDecision {
                strategy: StrategyKind::FullSort,
                reason: format!(
                    "workload is known in advance and long ({queries:.0} queries); a full index amortizes its {build_cost:.0}-unit build cost"
                ),
            };
        }

        // 5. Semi-predictable, long workloads: invest more per query for
        //    faster convergence (crack-sort hybrid ≈ adaptive merging).
        if profile.predictability >= 0.5 && queries >= 1000.0 {
            return TuningDecision {
                strategy: StrategyKind::Hybrid {
                    algorithm: crate::strategy::HybridKind::CrackSort,
                },
                reason: "partially predictable long workload; hybrid crack-sort converges fast without an offline sort".to_owned(),
            };
        }

        // 6. Default adaptive choice.
        TuningDecision {
            strategy: StrategyKind::Cracking,
            reason:
                "dynamic or unknown workload; crack incrementally and pay only for queried ranges"
                    .to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_profile() -> WorkloadProfile {
        WorkloadProfile {
            row_count: 10_000_000,
            expected_queries: 10_000,
            average_selectivity: 0.01,
            update_fraction: 0.0,
            predictability: 0.0,
            storage_budget_bytes: usize::MAX,
        }
    }

    #[test]
    fn fixed_policies_ignore_the_profile() {
        let profile = base_profile();
        assert_eq!(
            AutoTuner::new(TuningPolicy::AlwaysCrack)
                .decide(&profile)
                .strategy,
            StrategyKind::Cracking
        );
        assert_eq!(
            AutoTuner::new(TuningPolicy::AlwaysFullSort)
                .decide(&profile)
                .strategy,
            StrategyKind::FullSort
        );
        assert_eq!(
            AutoTuner::new(TuningPolicy::NeverIndex)
                .decide(&profile)
                .strategy,
            StrategyKind::FullScan
        );
    }

    #[test]
    fn cost_based_prefers_scan_for_tiny_workloads() {
        let tuner = AutoTuner::new(TuningPolicy::CostBased);
        let mut profile = base_profile();
        profile.expected_queries = 2;
        let decision = tuner.decide(&profile);
        assert_eq!(decision.strategy, StrategyKind::FullScan);
        assert!(decision.reason.contains("queries"));
    }

    #[test]
    fn cost_based_prefers_full_sort_for_predictable_workloads() {
        let tuner = AutoTuner::new(TuningPolicy::CostBased);
        let mut profile = base_profile();
        profile.predictability = 1.0;
        let decision = tuner.decide(&profile);
        assert_eq!(decision.strategy, StrategyKind::FullSort);
    }

    #[test]
    fn cost_based_prefers_cracking_for_unknown_workloads() {
        let tuner = AutoTuner::new(TuningPolicy::CostBased);
        let decision = tuner.decide(&base_profile());
        assert_eq!(decision.strategy, StrategyKind::Cracking);
        assert!(!decision.reason.is_empty());
    }

    #[test]
    fn cost_based_respects_storage_budget() {
        let tuner = AutoTuner::new(TuningPolicy::CostBased);
        let mut profile = base_profile();
        profile.storage_budget_bytes = 1_000_000; // far below 120 MB
        match tuner.decide(&profile).strategy {
            StrategyKind::PartialCracking { budget_bytes } => {
                assert_eq!(budget_bytes, 1_000_000);
            }
            other => panic!("expected partial cracking, got {other:?}"),
        }
    }

    #[test]
    fn cost_based_switches_to_updatable_cracking_under_updates() {
        let tuner = AutoTuner::new(TuningPolicy::CostBased);
        let mut profile = base_profile();
        profile.update_fraction = 0.2;
        // ahead of the full index a predictable workload would get, which
        // an insert drops
        profile.predictability = 0.95;
        let decision = tuner.decide(&profile);
        assert_eq!(decision.strategy, StrategyKind::Cracking);
        assert!(
            decision.reason.contains("merge-ripple"),
            "{}",
            decision.reason
        );
    }

    #[test]
    fn cost_based_picks_hybrid_for_semi_predictable_long_workloads() {
        let tuner = AutoTuner::new(TuningPolicy::CostBased);
        let mut profile = base_profile();
        profile.predictability = 0.6;
        profile.expected_queries = 100_000;
        match tuner.decide(&profile).strategy {
            StrategyKind::Hybrid { .. } => {}
            other => panic!("expected a hybrid, got {other:?}"),
        }
    }

    #[test]
    fn with_cost_model_and_accessors() {
        let tuner = AutoTuner::with_cost_model(CostModel::default());
        assert_eq!(tuner.policy(), TuningPolicy::CostBased);
        let profile = WorkloadProfile::unpredictable(1000, 100);
        assert_eq!(profile.row_count, 1000);
        let decision = tuner.decide(&profile);
        // small column, unpredictable workload: cracking or scan are both
        // defensible; the decision must at least be deterministic
        assert_eq!(decision, tuner.decide(&profile));
    }

    #[test]
    fn decisions_serialize() {
        let tuner = AutoTuner::new(TuningPolicy::CostBased);
        let decision = tuner.decide(&base_profile());
        let json = serde_json::to_string(&decision).unwrap();
        let back: TuningDecision = serde_json::from_str(&json).unwrap();
        assert_eq!(decision, back);
    }
}
