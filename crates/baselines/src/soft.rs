//! Soft indexes (Lühring, Sattler, Schmidt, Schallehn — SMDB 2007).
//!
//! Soft indexes sit between online tuning and adaptive indexing: like online
//! tuning they keep explicit statistics and solve the index-selection problem
//! periodically; like adaptive indexing the index is created *during query
//! processing* — the scan that the triggering query performs anyway feeds the
//! index builder, so the build piggybacks on work already being done. Unlike
//! adaptive indexing, neither the recommendation nor the construction is
//! incremental: the index is built to completion in one go.

use crate::cost::{BaselineStats, CostModel};
use crate::sorted::FullSortIndex;
use aidx_columnstore::index::{AdaptiveIndex, QueryOutput};
use aidx_columnstore::types::{Key, RowId, PAIR_BYTES};

/// A soft-index tuner over one key column.
#[derive(Debug, Clone)]
pub struct SoftIndexTuner {
    keys: Vec<Key>,
    index: Option<FullSortIndex>,
    cost_model: CostModel,
    /// Queries observed since the last index-selection decision.
    observed_queries: u64,
    /// Benefit accumulated from observed queries (work units).
    accumulated_benefit: f64,
    /// Every how many queries the index-selection problem is (re)solved.
    decision_period: u64,
    stats: BaselineStats,
    build_at_query: Option<u64>,
    /// Discount on the build cost because construction reuses the triggering
    /// query's scan (the data is already streaming by).
    piggyback_discount: f64,
}

impl SoftIndexTuner {
    /// Create a soft-index tuner over a dense key slice with a decision
    /// period of `decision_period` queries and the default cost model:
    /// [`Self::from_chunks`] over one chunk.
    pub fn from_keys(keys: &[Key], decision_period: u64) -> Self {
        Self::from_chunks(&[keys], decision_period)
    }

    /// Create a soft-index tuner over a base column stored as `chunks`.
    pub fn from_chunks(chunks: &[&[Key]], decision_period: u64) -> Self {
        SoftIndexTuner {
            keys: chunks.concat(),
            index: None,
            cost_model: CostModel::default(),
            observed_queries: 0,
            accumulated_benefit: 0.0,
            decision_period: decision_period.max(1),
            stats: BaselineStats::new(),
            build_at_query: None,
            piggyback_discount: 0.5,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no rows exist.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether the index exists yet.
    pub fn index_built(&self) -> bool {
        self.index.is_some()
    }

    /// The query number (1-based) whose scan fed the index builder, if any.
    pub fn build_at_query(&self) -> Option<u64> {
        self.build_at_query
    }

    /// Accumulated work counters.
    pub fn stats(&self) -> &BaselineStats {
        &self.stats
    }

    /// Total effort including the built index's own counters.
    pub fn total_effort(&self) -> u64 {
        self.stats.total_effort()
            + self
                .index
                .as_ref()
                .map_or(0, |index| index.stats().total_effort())
    }

    /// Answer `[low, high)`. The row ids come back distinct: ascending
    /// while scans answer, in key order once the index does.
    pub fn query_range(&mut self, low: Key, high: Key) -> Vec<RowId> {
        self.stats.record_query();
        if self.keys.is_empty() || low >= high {
            return Vec::new();
        }

        if let Some(index) = &mut self.index {
            return index.query_range(low, high);
        }

        // Answer by scanning — and keep the statistics the periodic decision
        // needs.
        self.stats.record_scan(self.keys.len());
        self.observed_queries += 1;
        let mut out: Vec<RowId> = Vec::new();
        let mut matching = 0usize;
        for (i, &v) in self.keys.iter().enumerate() {
            if v >= low && v < high {
                matching += 1;
                out.push(i as RowId);
            }
        }
        let selectivity = matching as f64 / self.keys.len() as f64;
        self.accumulated_benefit += self
            .cost_model
            .per_query_benefit(self.keys.len(), selectivity);

        // Periodically solve the index-selection problem. When the answer is
        // "build", the build piggybacks on this scan: the discount reflects
        // that the data was already read.
        if self.observed_queries.is_multiple_of(self.decision_period) {
            let build_cost =
                self.cost_model.index_build_cost(self.keys.len()) * self.piggyback_discount;
            if self.accumulated_benefit >= build_cost {
                self.index = Some(FullSortIndex::from_keys(&self.keys));
                self.build_at_query = Some(self.stats.queries);
            }
        }

        out
    }

    /// Count the qualifying tuples of `[low, high)`.
    pub fn count_range(&mut self, low: Key, high: Key) -> usize {
        self.query_range(low, high).len()
    }
}

impl AdaptiveIndex for SoftIndexTuner {
    fn len(&self) -> usize {
        self.keys.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(SoftIndexTuner::query_range(self, low, high))
    }
    fn effort(&self) -> u64 {
        self.total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        if self.index_built() {
            self.keys.len() * PAIR_BYTES
        } else {
            0
        }
    }
    fn is_adaptive(&self) -> bool {
        false
    }
    fn is_converged(&self) -> bool {
        self.index_built()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<Key> {
        (0..n as Key).map(|i| (i * 104729) % n as Key).collect()
    }

    #[test]
    fn builds_only_at_decision_points() {
        let keys = data(100_000);
        let mut tuner = SoftIndexTuner::from_keys(&keys, 10);
        let mut built_at = None;
        for q in 0..200 {
            let low = (q * 379) % 90_000;
            let _ = tuner.query_range(low, low + 500);
            if let Some(b) = tuner.build_at_query() {
                built_at = Some(b);
                break;
            }
        }
        let built_at = built_at.expect("selective workload must trigger a soft index");
        assert_eq!(built_at % 10, 0, "decisions happen every 10 queries");
        assert!(tuner.index_built());
    }

    #[test]
    fn answers_correct_before_and_after_build() {
        let keys = data(20_000);
        let mut tuner = SoftIndexTuner::from_keys(&keys, 5);
        for q in 0..60 {
            let low = (q * 331) % 18_000;
            let high = low + 400;
            let got = tuner.query_range(low, high);
            let expected = keys.iter().filter(|&&k| k >= low && k < high).count();
            assert_eq!(got.len(), expected, "query {q}");
        }
        assert!(tuner.index_built());
        assert!(tuner.total_effort() > 0);
    }

    #[test]
    fn soft_index_builds_earlier_than_plain_online_tuning() {
        // the piggyback discount halves the effective build cost, so for the
        // same workload the soft index appears at or before the online one
        let keys = data(80_000);
        let mut soft = SoftIndexTuner::from_keys(&keys, 1);
        let mut online = crate::online::OnlineIndexTuner::from_keys(&keys);
        for q in 0..300 {
            let low = (q * 157) % 70_000;
            let _ = soft.query_range(low, low + 800);
            let _ = online.query_range(low, low + 800);
        }
        let soft_at = soft.build_at_query().expect("soft builds");
        let online_at = online.build_at_query().expect("online builds");
        assert!(soft_at <= online_at, "soft {soft_at} vs online {online_at}");
    }

    #[test]
    fn unselective_workload_never_builds() {
        let keys = data(10_000);
        let mut tuner = SoftIndexTuner::from_keys(&keys, 5);
        for _ in 0..60 {
            let _ = tuner.query_range(Key::MIN, Key::MAX);
        }
        assert!(!tuner.index_built());
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let mut tuner = SoftIndexTuner::from_keys(&[], 5);
        assert!(tuner.is_empty());
        assert!(tuner.query_range(0, 10).is_empty());
        let mut tuner = SoftIndexTuner::from_keys(&[5, 1, 9], 5);
        assert_eq!(tuner.len(), 3);
        assert_eq!(tuner.count_range(9, 5), 0);
        assert_eq!(tuner.count_range(0, 10), 3);
    }
}
