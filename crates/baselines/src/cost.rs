//! The logical cost model the advisors estimate an index's worth with.
//!
//! Offline what-if analysis ([`crate::offline`]) and the monitor of online
//! tuning and soft indexes ([`crate::online`]) decide whether a full index
//! pays for itself *before* building it, in the same machine-independent
//! work units (elements touched, comparisons charged) the indexes record
//! into `aidx_cracking::stats::CrackStats` once they run.

/// The cost model used by the offline and online advisors to estimate the
/// benefit of building an index before actually building it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of reading one element during a scan (work units).
    pub scan_cost_per_element: f64,
    /// Cost of one comparison during index construction.
    pub sort_cost_per_comparison: f64,
    /// Cost of one element of output (result materialization).
    pub output_cost_per_element: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            scan_cost_per_element: 1.0,
            sort_cost_per_comparison: 1.0,
            output_cost_per_element: 1.0,
        }
    }
}

impl CostModel {
    /// Estimated cost of answering one range query of selectivity
    /// `selectivity` with a full scan over `n` elements.
    pub fn scan_query_cost(&self, n: usize, selectivity: f64) -> f64 {
        self.scan_cost_per_element * n as f64
            + self.output_cost_per_element * selectivity * n as f64
    }

    /// Estimated cost of answering the same query with a sorted index: two
    /// binary-search probes plus a sequential read of the qualifying range
    /// plus result materialization.
    pub fn index_query_cost(&self, n: usize, selectivity: f64) -> f64 {
        let probe = (n.max(2) as f64).log2();
        probe
            + self.scan_cost_per_element * selectivity * n as f64
            + self.output_cost_per_element * selectivity * n as f64
    }

    /// Estimated cost of building a sorted index over `n` elements.
    pub fn index_build_cost(&self, n: usize) -> f64 {
        let log = (n.max(2) as f64).log2();
        self.sort_cost_per_comparison * n as f64 * log
    }

    /// Estimated benefit (may be negative) of having an index for one query.
    pub fn per_query_benefit(&self, n: usize, selectivity: f64) -> f64 {
        self.scan_query_cost(n, selectivity) - self.index_query_cost(n, selectivity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_prefers_index_for_selective_queries() {
        let m = CostModel::default();
        let n = 1_000_000;
        assert!(m.per_query_benefit(n, 0.01) > 0.0);
        // build cost is amortized over many queries
        let build = m.index_build_cost(n);
        let benefit = m.per_query_benefit(n, 0.01);
        let queries_to_amortize = build / benefit;
        assert!(queries_to_amortize > 1.0 && queries_to_amortize < 100.0);
    }

    #[test]
    fn cost_model_scan_beats_index_for_full_range() {
        let m = CostModel::default();
        // selecting everything: the index saves nothing on output and only the
        // scan term differs marginally
        let benefit = m.per_query_benefit(1000, 1.0);
        assert!(benefit < m.scan_query_cost(1000, 1.0) * 0.51);
    }

    #[test]
    fn cost_model_tiny_inputs() {
        let m = CostModel::default();
        assert!(m.index_build_cost(0) >= 0.0);
        assert!(m.index_query_cost(1, 0.0) > 0.0);
        assert_eq!(m.scan_query_cost(0, 0.5), 0.0);
    }
}
