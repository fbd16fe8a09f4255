//! Online index tuning (COLT-style monitor-and-create).
//!
//! Online analysis moves the what-if paradigm into query execution: the
//! system answers queries with scans while *monitoring* them, accumulates the
//! estimated benefit a hypothetical index would have delivered, and triggers
//! index construction once the accumulated benefit exceeds the construction
//! cost. The query that crosses the threshold pays the full construction
//! penalty — exactly the drawback the tutorial contrasts with adaptive
//! indexing's incremental investment.

use crate::cost::{BaselineStats, CostModel};
use crate::sorted::FullSortIndex;
use aidx_columnstore::index::{AdaptiveIndex, QueryOutput};
use aidx_columnstore::types::{Key, RowId, PAIR_BYTES};

/// An online index tuner over one key column.
#[derive(Debug, Clone)]
pub struct OnlineIndexTuner {
    keys: Vec<Key>,
    index: Option<FullSortIndex>,
    cost_model: CostModel,
    /// Benefit accumulated from observed queries (work units).
    accumulated_benefit: f64,
    /// Multiplier on the build cost before construction triggers (1.0 =
    /// build as soon as the observed benefit would have paid for the index).
    trigger_factor: f64,
    stats: BaselineStats,
    build_at_query: Option<u64>,
}

impl OnlineIndexTuner {
    /// Create a tuner over a dense key slice with the default cost model and
    /// a trigger factor of 1: [`Self::from_chunks`] over one chunk.
    pub fn from_keys(keys: &[Key]) -> Self {
        Self::from_chunks(&[keys])
    }

    /// Create a tuner with the default settings over a base column stored as
    /// `chunks`.
    pub fn from_chunks(chunks: &[&[Key]]) -> Self {
        Self::with_settings(chunks, CostModel::default(), 1.0)
    }

    /// Create a tuner with explicit cost model and trigger factor.
    pub fn with_settings(chunks: &[&[Key]], cost_model: CostModel, trigger_factor: f64) -> Self {
        OnlineIndexTuner {
            keys: chunks.concat(),
            index: None,
            cost_model,
            accumulated_benefit: 0.0,
            trigger_factor: trigger_factor.max(0.0),
            stats: BaselineStats::new(),
            build_at_query: None,
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

    /// Whether the full index has been built yet.
    pub fn index_built(&self) -> bool {
        self.index.is_some()
    }

    /// The query number (1-based) at which the index was built, if it was.
    pub fn build_at_query(&self) -> Option<u64> {
        self.build_at_query
    }

    /// Benefit accumulated so far from monitoring (work units).
    pub fn accumulated_benefit(&self) -> f64 {
        self.accumulated_benefit
    }

    /// Accumulated work counters (scans + the index build, once it happens;
    /// the inner index's own counters are folded in lazily via
    /// [`Self::total_effort`]).
    pub fn stats(&self) -> &BaselineStats {
        &self.stats
    }

    /// Total machine-independent effort including the built index's own
    /// bookkeeping.
    pub fn total_effort(&self) -> u64 {
        self.stats.total_effort()
            + self
                .index
                .as_ref()
                .map_or(0, |index| index.stats().total_effort())
    }

    /// Answer `[low, high)`; monitor, and possibly trigger index
    /// construction first. The row ids come back distinct: ascending while
    /// scans answer, in key order once the index does.
    pub fn query_range(&mut self, low: Key, high: Key) -> Vec<RowId> {
        self.stats.record_query();
        if self.keys.is_empty() || low >= high {
            return Vec::new();
        }

        if self.index.is_none() {
            // monitoring: estimate what an index would have saved for this query
            let span = (self.keys.len()).max(1);
            let selectivity = estimate_selectivity(&self.keys, low, high);
            self.accumulated_benefit += self.cost_model.per_query_benefit(span, selectivity);
            let threshold = self.cost_model.index_build_cost(span) * self.trigger_factor;
            if self.accumulated_benefit >= threshold {
                // the crossing query pays for construction
                self.index = Some(FullSortIndex::from_keys(&self.keys));
                self.build_at_query = Some(self.stats.queries);
            }
        }

        match &mut self.index {
            Some(index) => index.query_range(low, high),
            None => {
                self.stats.record_scan(self.keys.len());
                let mut out: Vec<RowId> = Vec::new();
                for (i, &v) in self.keys.iter().enumerate() {
                    if v >= low && v < high {
                        out.push(i as RowId);
                    }
                }
                out
            }
        }
    }

    /// Count the qualifying tuples of `[low, high)`.
    pub fn count_range(&mut self, low: Key, high: Key) -> usize {
        self.query_range(low, high).len()
    }
}

/// Cheap sampled selectivity estimate (the monitor must not pay a full scan
/// on top of the query's own scan).
fn estimate_selectivity(keys: &[Key], low: Key, high: Key) -> f64 {
    if keys.is_empty() || low >= high {
        return 0.0;
    }
    let step = (keys.len() / 1024).max(1);
    let mut sampled = 0usize;
    let mut matching = 0usize;
    let mut i = 0;
    while i < keys.len() {
        sampled += 1;
        if keys[i] >= low && keys[i] < high {
            matching += 1;
        }
        i += step;
    }
    matching as f64 / sampled as f64
}

impl AdaptiveIndex for OnlineIndexTuner {
    fn len(&self) -> usize {
        self.keys.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        QueryOutput::from_row_ids(OnlineIndexTuner::query_range(self, low, high))
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
        (0..n as Key).map(|i| (i * 7919) % n as Key).collect()
    }

    #[test]
    fn index_is_built_after_enough_queries() {
        let keys = data(100_000);
        let mut tuner = OnlineIndexTuner::from_keys(&keys);
        assert!(!tuner.index_built());
        let mut built_at = None;
        for q in 0..200 {
            let low = (q * 431) % 90_000;
            let _ = tuner.query_range(low, low + 1000);
            if tuner.index_built() {
                built_at = tuner.build_at_query();
                break;
            }
        }
        assert!(
            tuner.index_built(),
            "selective queries must trigger the index"
        );
        let built_at = built_at.unwrap();
        assert!(built_at > 1, "not on the very first query");
        assert!(built_at < 100, "but within a reasonable horizon");
    }

    #[test]
    fn answers_correct_before_and_after_build() {
        let keys = data(20_000);
        let mut tuner = OnlineIndexTuner::from_keys(&keys);
        for q in 0..100 {
            let low = (q * 173) % 18_000;
            let high = low + 500;
            let got = tuner.query_range(low, high);
            let expected = keys.iter().filter(|&&k| k >= low && k < high).count();
            assert_eq!(got.len(), expected, "query {q}");
        }
        assert!(tuner.index_built());
    }

    #[test]
    fn unselective_workload_never_builds() {
        let keys = data(10_000);
        // full-range queries: an index would not help, benefit stays ~0
        let mut tuner = OnlineIndexTuner::from_keys(&keys);
        for _ in 0..50 {
            let _ = tuner.query_range(Key::MIN, Key::MAX);
        }
        assert!(!tuner.index_built());
        assert!(tuner.accumulated_benefit() < tuner.cost_model.index_build_cost(10_000));
    }

    #[test]
    fn trigger_factor_delays_construction() {
        let keys = data(50_000);
        let mut eager = OnlineIndexTuner::with_settings(&[&keys], CostModel::default(), 1.0);
        let mut reluctant = OnlineIndexTuner::with_settings(&[&keys], CostModel::default(), 10.0);
        for q in 0..300 {
            let low = (q * 97) % 45_000;
            let _ = eager.query_range(low, low + 200);
            let _ = reluctant.query_range(low, low + 200);
        }
        assert!(eager.index_built());
        match (eager.build_at_query(), reluctant.build_at_query()) {
            (Some(e), Some(r)) => assert!(e < r, "eager {e} must build before reluctant {r}"),
            (Some(_), None) => {} // reluctant never built: also fine
            other => panic!("unexpected build pattern {other:?}"),
        }
    }

    #[test]
    fn scan_cost_disappears_after_build() {
        let keys = data(50_000);
        let mut tuner = OnlineIndexTuner::from_keys(&keys);
        for q in 0..100 {
            let low = (q * 211) % 45_000;
            let _ = tuner.query_range(low, low + 100);
        }
        assert!(tuner.index_built());
        let scanned_before = tuner.stats().elements_scanned;
        for q in 0..50 {
            let low = (q * 211) % 45_000;
            let _ = tuner.query_range(low, low + 100);
        }
        assert_eq!(
            tuner.stats().elements_scanned,
            scanned_before,
            "after the build no more full scans happen"
        );
        assert!(tuner.total_effort() > 0);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let mut tuner = OnlineIndexTuner::from_keys(&[]);
        assert!(tuner.is_empty());
        assert!(tuner.query_range(0, 10).is_empty());
        let mut tuner = OnlineIndexTuner::from_keys(&[5, 1, 9]);
        assert_eq!(tuner.len(), 3);
        assert_eq!(tuner.count_range(9, 5), 0);
        assert_eq!(tuner.count_range(0, 10), 3);
    }

    #[test]
    fn selectivity_estimator_reasonable() {
        let keys: Vec<Key> = (0..100_000).collect();
        let est = estimate_selectivity(&keys, 0, 10_000);
        assert!((est - 0.1).abs() < 0.05, "estimate {est}");
        assert_eq!(estimate_selectivity(&[], 0, 10), 0.0);
        assert_eq!(estimate_selectivity(&keys, 10, 10), 0.0);
    }
}
