//! Online index tuning and soft indexes: monitor, then build a full index.
//!
//! Online analysis moves the what-if paradigm into query execution: the
//! system answers queries with scans while *monitoring* them, accumulates the
//! estimated benefit a hypothetical index would have delivered, and triggers
//! index construction once the accumulated benefit pays for it. The query
//! that crosses the threshold pays the full construction penalty — exactly
//! the drawback the tutorial contrasts with adaptive indexing's incremental
//! investment.
//!
//! Online tuning (COLT-style) and soft indexes (Lühring, Sattler, Schmidt,
//! Schallehn — SMDB 2007) are this one monitor with two settings. Online
//! tuning decides after every query and builds once the benefit covers the
//! whole build cost. Soft indexes solve the index-selection problem only
//! every `decision_period` queries, and their build piggybacks on the scan
//! of the query that triggers it (the data is already streaming by), so the
//! build cost counts at a discount. Neither the decision nor the
//! construction is incremental: the index is built to completion in one go.

use crate::cost::CostModel;
use crate::scan::FullScanIndex;
use crate::sorted::FullSortIndex;
use aidx_columnstore::index::{AdaptiveIndex, QueryOutput};
use aidx_columnstore::types::Key;
use aidx_cracking::stats::CrackStats;

/// Which index answers: the monitoring scan, or the one it built.
#[derive(Debug, Clone)]
enum Phase {
    /// Answers the monitored queries, and counts them.
    Monitoring(FullScanIndex),
    /// The built index answers; of the scan only its work counters stay,
    /// its copy of the keys is dropped at the build.
    Built {
        scan: CrackStats,
        index: FullSortIndex,
    },
}

/// A monitor-then-build index over one key column: scans answer until the
/// accumulated benefit of a full index pays for building it, and the
/// [`FullSortIndex`] built then answers from there on.
#[derive(Debug, Clone)]
pub struct OnlineIndexTuner {
    phase: Phase,
    /// Every how many monitored queries the build decision is taken.
    decision_period: u64,
    /// The share of the build cost the accumulated benefit must reach.
    build_factor: f64,
    /// Benefit accumulated from monitored queries (work units).
    accumulated_benefit: f64,
    /// Queries asked, degenerate ones included.
    queries: u64,
    build_at_query: Option<u64>,
}

impl OnlineIndexTuner {
    /// Monitor a base column stored as `chunks`, deciding after every
    /// `decision_period`-th scan to build once the accumulated benefit
    /// reaches `build_factor` times the build cost.
    pub fn from_chunks(chunks: &[&[Key]], decision_period: u64, build_factor: f64) -> Self {
        OnlineIndexTuner {
            phase: Phase::Monitoring(FullScanIndex::from_chunks(chunks)),
            decision_period: decision_period.max(1),
            build_factor: build_factor.max(0.0),
            accumulated_benefit: 0.0,
            queries: 0,
            build_at_query: None,
        }
    }

    /// The query number (1-based) whose scan triggered the build, if any.
    pub fn build_at_query(&self) -> Option<u64> {
        self.build_at_query
    }
}

impl AdaptiveIndex for OnlineIndexTuner {
    fn len(&self) -> usize {
        match &self.phase {
            Phase::Monitoring(scan) => scan.len(),
            Phase::Built { index, .. } => index.len(),
        }
    }

    /// Answer `[low, high)`: scan and monitor, and possibly build, until the
    /// index exists. The row ids come back distinct: ascending while scans
    /// answer, in key order once the index does.
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        self.queries += 1;
        if self.is_empty() || low >= high {
            return QueryOutput::from_row_ids(Vec::new());
        }
        let scan = match &mut self.phase {
            Phase::Monitoring(scan) => scan,
            Phase::Built { index, .. } => {
                return QueryOutput::from_row_ids(index.query_range(low, high));
            }
        };
        let rows = scan.query_range(low, high).into_vec();
        let n = scan.len();
        let model = CostModel::default();
        self.accumulated_benefit += model.per_query_benefit(n, rows.len() as f64 / n as f64);
        if scan.stats().queries.is_multiple_of(self.decision_period)
            && self.accumulated_benefit >= model.index_build_cost(n) * self.build_factor
        {
            // the crossing query pays for construction
            let index = FullSortIndex::from_keys(scan.keys());
            let scan = *scan.stats();
            self.phase = Phase::Built { scan, index };
            self.build_at_query = Some(self.queries);
        }
        QueryOutput::from_row_ids(rows)
    }

    fn effort(&self) -> u64 {
        match &self.phase {
            Phase::Monitoring(scan) => scan.stats().total_effort(),
            Phase::Built { scan, index } => scan.total_effort() + index.effort(),
        }
    }

    fn auxiliary_bytes(&self) -> usize {
        match &self.phase {
            Phase::Monitoring(_) => 0,
            Phase::Built { index, .. } => index.auxiliary_bytes(),
        }
    }

    fn is_adaptive(&self) -> bool {
        false
    }

    fn is_converged(&self) -> bool {
        matches!(self.phase, Phase::Built { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize, step: Key) -> Vec<Key> {
        (0..n as Key).map(|i| (i * step) % n as Key).collect()
    }

    /// Online tuning's settings, as `StrategyKind::OnlineTuning` builds it.
    fn online(keys: &[Key]) -> OnlineIndexTuner {
        OnlineIndexTuner::from_chunks(&[keys], 1, 1.0)
    }

    /// Soft indexes' build discount, at a decision period of `period`.
    fn soft(keys: &[Key], period: u64) -> OnlineIndexTuner {
        OnlineIndexTuner::from_chunks(&[keys], period, 0.5)
    }

    #[test]
    fn index_is_built_after_enough_queries() {
        let keys = data(100_000, 7919);
        let mut tuner = online(&keys);
        assert!(!tuner.is_converged());
        for q in 0..200 {
            let low = (q * 431) % 90_000;
            let before = tuner.effort();
            let _ = tuner.query_range(low, low + 1000);
            if tuner.is_converged() {
                // the crossing query scans, then pays the whole build
                let sort = FullSortIndex::from_keys(&keys).stats().total_effort();
                assert_eq!(tuner.effort() - before, keys.len() as u64 + sort);
                break;
            }
        }
        let built_at = tuner.build_at_query().expect("selective queries build");
        assert!(built_at > 1, "not on the very first query");
        assert!(built_at < 100, "but within a reasonable horizon");
    }

    #[test]
    fn the_build_drops_the_monitors_copy_of_the_keys() {
        let keys = data(30_000, 7919);
        let mut tuner = soft(&keys, 10);
        let Phase::Monitoring(scan) = &tuner.phase else {
            panic!("a fresh tuner monitors");
        };
        assert_eq!(scan.keys(), keys);
        for q in 0..10 {
            let low = (q * 1_009) % 29_000;
            let _ = tuner.query_range(low, low + 300);
        }
        assert_eq!(tuner.build_at_query(), Some(10));
        // what is left of the monitor is its counters: ten scans of 30 000
        let Phase::Built { scan, index } = &tuner.phase else {
            panic!("the tenth query builds");
        };
        assert_eq!(scan.elements_scanned, 10 * 30_000);
        assert_eq!(tuner.auxiliary_bytes(), index.auxiliary_bytes());
        assert_eq!(tuner.len(), keys.len());
        assert_eq!(tuner.query_range(0, 30_000).count(), keys.len());
    }

    #[test]
    fn builds_only_at_decision_points() {
        let keys = data(100_000, 104_729);
        let mut tuner = soft(&keys, 10);
        for q in 0..200 {
            let low = (q * 379) % 90_000;
            let _ = tuner.query_range(low, low + 500);
            if tuner.is_converged() {
                break;
            }
        }
        let built_at = tuner.build_at_query().expect("a selective workload builds");
        assert_eq!(built_at % 10, 0, "decisions happen every 10 queries");
    }

    /// Run 100 ranges through `tuner`, checking every count, and assert that
    /// the workload converged.
    fn assert_answers_correct(mut tuner: OnlineIndexTuner, keys: &[Key]) {
        for q in 0..100 {
            let low = (q * 173) % 18_000;
            let high = low + 500;
            let got = tuner.query_range(low, high);
            let expected = keys.iter().filter(|&&k| k >= low && k < high).count();
            assert_eq!(got.count(), expected, "query {q}");
        }
        assert!(tuner.is_converged());
    }

    #[test]
    fn answers_correct_before_and_after_build() {
        let keys = data(20_000, 7919);
        assert_answers_correct(online(&keys), &keys);
    }

    #[test]
    fn soft_answers_correct_before_and_after_build() {
        let keys = data(20_000, 7919);
        assert_answers_correct(soft(&keys, 5), &keys);
    }

    #[test]
    fn soft_index_builds_earlier_than_plain_online_tuning() {
        // the piggyback discount halves the effective build cost, so for the
        // same workload the soft index appears at or before the online one
        let keys = data(80_000, 104_729);
        let (mut soft, mut online) = (soft(&keys, 1), online(&keys));
        for q in 0..300 {
            let low = (q * 157) % 70_000;
            let _ = soft.query_range(low, low + 800);
            let _ = online.query_range(low, low + 800);
        }
        let soft_at = soft.build_at_query().expect("soft builds");
        let online_at = online.build_at_query().expect("online builds");
        assert!(soft_at <= online_at, "soft {soft_at} vs online {online_at}");
    }

    /// Full-range queries: an index would not help, so the benefit stays ~0
    /// and nothing is built.
    fn assert_never_builds_on_full_ranges(mut tuner: OnlineIndexTuner) {
        for _ in 0..60 {
            let _ = tuner.query_range(Key::MIN, Key::MAX);
        }
        assert!(!tuner.is_converged());
        assert_eq!(tuner.auxiliary_bytes(), 0);
    }

    #[test]
    fn unselective_workload_never_builds() {
        assert_never_builds_on_full_ranges(online(&data(10_000, 7919)));
    }

    #[test]
    fn soft_unselective_workload_never_builds() {
        assert_never_builds_on_full_ranges(soft(&data(10_000, 7919), 5));
    }

    #[test]
    fn scan_cost_disappears_after_build() {
        let keys = data(50_000, 7919);
        let mut tuner = online(&keys);
        for q in 0..100 {
            let low = (q * 211) % 45_000;
            let _ = tuner.query_range(low, low + 100);
        }
        assert!(tuner.is_converged());
        let before = tuner.effort();
        for q in 0..50 {
            let low = (q * 211) % 45_000;
            let _ = tuner.query_range(low, low + 100);
        }
        assert!(
            tuner.effort() - before < keys.len() as u64,
            "after the build no more full scans happen"
        );
    }

    fn assert_degenerate_inputs_answered(build: impl Fn(&[Key]) -> OnlineIndexTuner) {
        let mut tuner = build(&[]);
        assert!(tuner.is_empty());
        assert!(tuner.query_range(0, 10).is_empty());
        let mut tuner = build(&[5, 1, 9]);
        assert_eq!(tuner.len(), 3);
        assert_eq!(tuner.query_range(9, 5).count(), 0);
        assert_eq!(tuner.query_range(0, 10).count(), 3);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_degenerate_inputs_answered(online);
    }

    #[test]
    fn soft_empty_and_degenerate_inputs() {
        assert_degenerate_inputs_answered(|keys| soft(keys, 5));
    }
}
