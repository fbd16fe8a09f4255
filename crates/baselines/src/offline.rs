//! Offline index selection: what-if analysis over a sample workload.
//!
//! Commercial auto-tuning tools (the tutorial cites the SQL Server Database
//! Tuning Advisor, the DB2 Design Advisor, and a line of research going back
//! to Finkelstein's 1988 work) analyze a *sample workload* against a *cost
//! model* — without executing anything — and recommend the set of indexes
//! whose estimated benefit exceeds their estimated cost, subject to a storage
//! budget. This module reproduces that paradigm for single-column range
//! indexes, which is all the adaptive-indexing comparison needs.

use crate::cost::CostModel;
use aidx_columnstore::types::Key;
use aidx_cracking::CrackerColumn;
use std::collections::BTreeMap;

/// One observed (or anticipated) query in the sample workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSample {
    /// The column the range predicate applies to.
    pub column: String,
    /// Inclusive lower bound.
    pub low: Key,
    /// Exclusive upper bound.
    pub high: Key,
    /// How many times this query (template) is expected to run.
    pub frequency: u64,
}

impl WorkloadSample {
    /// Convenience constructor.
    pub fn new(column: impl Into<String>, low: Key, high: Key, frequency: u64) -> Self {
        WorkloadSample {
            column: column.into(),
            low,
            high,
            frequency,
        }
    }
}

/// Description of one column considered by the advisor.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnProfile {
    /// Column name.
    pub name: String,
    /// Number of rows.
    pub row_count: usize,
    /// Minimum key value.
    pub min: Key,
    /// Maximum key value.
    pub max: Key,
}

/// The advisor's verdict for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexRecommendation {
    /// Column the recommendation applies to.
    pub column: String,
    /// Whether building a full index is estimated to pay off.
    pub build_index: bool,
    /// Estimated total benefit over the sample workload (work units).
    pub estimated_benefit: f64,
    /// Estimated index construction cost (work units).
    pub estimated_build_cost: f64,
    /// Estimated storage footprint of the index in bytes.
    pub estimated_bytes: usize,
}

impl IndexRecommendation {
    /// Net gain of following the recommendation.
    pub fn net_gain(&self) -> f64 {
        self.estimated_benefit - self.estimated_build_cost
    }
}

/// A what-if index advisor.
#[derive(Debug, Clone, Default)]
pub struct OfflineAdvisor {
    columns: BTreeMap<String, ColumnProfile>,
    cost_model: CostModel,
}

impl OfflineAdvisor {
    /// Create an advisor with the default cost model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an advisor with a custom cost model.
    pub fn with_cost_model(cost_model: CostModel) -> Self {
        OfflineAdvisor {
            columns: BTreeMap::new(),
            cost_model,
        }
    }

    /// Register a column the advisor may recommend indexes for.
    pub fn register_column(&mut self, profile: ColumnProfile) {
        self.columns.insert(profile.name.clone(), profile);
    }

    /// Register a column from its raw keys.
    pub fn register_keys(&mut self, name: impl Into<String>, keys: &[Key]) {
        let name = name.into();
        self.columns.insert(
            name.clone(),
            ColumnProfile {
                name,
                row_count: keys.len(),
                min: keys.iter().copied().min().unwrap_or(0),
                max: keys.iter().copied().max().unwrap_or(0),
            },
        );
    }

    /// Number of registered columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Run the what-if analysis: for every registered column, estimate the
    /// workload cost with and without a full index and recommend the index
    /// when it pays off within the sample workload. Recommendations are
    /// returned for every registered column (including negative ones), sorted
    /// by descending net gain; `storage_budget_bytes` caps how many positive
    /// recommendations are marked `build_index`.
    pub fn analyze(
        &self,
        workload: &[WorkloadSample],
        storage_budget_bytes: usize,
    ) -> Vec<IndexRecommendation> {
        let mut recommendations = Vec::with_capacity(self.columns.len());
        for profile in self.columns.values() {
            let span = (profile.max - profile.min).max(1) as f64 + 1.0;
            let mut benefit = 0.0;
            for sample in workload.iter().filter(|s| s.column == profile.name) {
                let overlap =
                    (sample.high.min(profile.max + 1) - sample.low.max(profile.min)).max(0) as f64;
                let selectivity = (overlap / span).clamp(0.0, 1.0);
                benefit += sample.frequency as f64
                    * self
                        .cost_model
                        .per_query_benefit(profile.row_count, selectivity);
            }
            let build_cost = self.cost_model.index_build_cost(profile.row_count);
            recommendations.push(IndexRecommendation {
                column: profile.name.clone(),
                build_index: false,
                estimated_benefit: benefit,
                estimated_build_cost: build_cost,
                estimated_bytes: profile.row_count
                    * CrackerColumn::tuple_bytes(profile.min, profile.max),
            });
        }
        recommendations.sort_by(|a, b| {
            b.net_gain()
                .partial_cmp(&a.net_gain())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut remaining_budget = storage_budget_bytes;
        for recommendation in &mut recommendations {
            if recommendation.net_gain() > 0.0 && recommendation.estimated_bytes <= remaining_budget
            {
                recommendation.build_index = true;
                remaining_budget -= recommendation.estimated_bytes;
            }
        }
        recommendations
    }

    /// The columns the advisor would actually index, given the workload and
    /// budget (convenience wrapper around [`Self::analyze`]).
    pub fn recommended_columns(
        &self,
        workload: &[WorkloadSample],
        storage_budget_bytes: usize,
    ) -> Vec<String> {
        self.analyze(workload, storage_budget_bytes)
            .into_iter()
            .filter(|r| r.build_index)
            .map(|r| r.column)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advisor_with_two_columns() -> OfflineAdvisor {
        let mut advisor = OfflineAdvisor::new();
        let keys_a: Vec<Key> = (0..100_000).collect();
        let keys_b: Vec<Key> = (0..100_000).collect();
        advisor.register_keys("hot", &keys_a);
        advisor.register_keys("cold", &keys_b);
        advisor
    }

    #[test]
    fn frequently_queried_column_gets_an_index() {
        let advisor = advisor_with_two_columns();
        let workload = vec![
            WorkloadSample::new("hot", 1000, 2000, 500),
            WorkloadSample::new("cold", 1000, 2000, 1),
        ];
        let recommended = advisor.recommended_columns(&workload, usize::MAX);
        assert!(recommended.contains(&"hot".to_owned()));
        assert!(!recommended.contains(&"cold".to_owned()));
    }

    #[test]
    fn unqueried_columns_are_never_recommended() {
        let advisor = advisor_with_two_columns();
        let workload = vec![WorkloadSample::new("hot", 0, 10_000, 100)];
        let analysis = advisor.analyze(&workload, usize::MAX);
        assert_eq!(analysis.len(), 2);
        let cold = analysis.iter().find(|r| r.column == "cold").unwrap();
        assert!(!cold.build_index);
        assert_eq!(cold.estimated_benefit, 0.0);
        assert!(cold.net_gain() < 0.0);
    }

    #[test]
    fn storage_budget_limits_recommendations() {
        let advisor = advisor_with_two_columns();
        let workload = vec![
            WorkloadSample::new("hot", 1000, 2000, 500),
            WorkloadSample::new("cold", 5000, 6000, 400),
        ];
        // budget fits only one 100k-row index (8 bytes per entry: each
        // column's keys span less than 2^32)
        let recommended = advisor.recommended_columns(&workload, 100_000 * 8);
        assert_eq!(recommended.len(), 1);
        assert_eq!(
            recommended[0], "hot",
            "higher-benefit column wins the budget"
        );
        let unlimited = advisor.recommended_columns(&workload, usize::MAX);
        assert_eq!(unlimited.len(), 2);
    }

    #[test]
    fn recommendations_sorted_by_net_gain() {
        let advisor = advisor_with_two_columns();
        let workload = vec![
            WorkloadSample::new("hot", 1000, 2000, 500),
            WorkloadSample::new("cold", 5000, 6000, 50),
        ];
        let analysis = advisor.analyze(&workload, usize::MAX);
        assert!(analysis[0].net_gain() >= analysis[1].net_gain());
        assert_eq!(analysis[0].column, "hot");
    }

    #[test]
    fn register_column_profile_directly() {
        let mut advisor = OfflineAdvisor::with_cost_model(CostModel::default());
        advisor.register_column(ColumnProfile {
            name: "x".into(),
            row_count: 10,
            min: 0,
            max: 9,
        });
        assert_eq!(advisor.column_count(), 1);
        // tiny column: scanning is fine, no index recommended
        let workload = vec![WorkloadSample::new("x", 0, 5, 1000)];
        let rec = advisor.analyze(&workload, usize::MAX);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn empty_workload_produces_no_positive_recommendations() {
        let advisor = advisor_with_two_columns();
        assert!(advisor.recommended_columns(&[], usize::MAX).is_empty());
    }
}
