//! Instrumentation shared by every index implementation, adaptive or not.
//!
//! The adaptive-indexing benchmark (TPCTC 2010) characterizes techniques by
//! *how much work each query does* on top of answering the query; these
//! counters are the raw material for that: how many crack calls happened, how
//! many elements were compared, moved and scanned, and how many binary-search
//! steps the sorted baselines took. One counter serves cracking, the hybrids
//! and the non-adaptive baselines alike, so their efforts compare directly.

use crate::crack::CrackTouch;

/// Counters accumulated by an adaptive index over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrackStats {
    /// Number of queries answered.
    pub queries: u64,
    /// Number of `crack_in_two` invocations.
    pub crack_in_two_calls: u64,
    /// Number of `crack_in_three` invocations.
    pub crack_in_three_calls: u64,
    /// Total elements compared across all crack calls.
    pub elements_compared: u64,
    /// Total element swaps across all crack calls.
    pub elements_swapped: u64,
    /// Total pairs copied when initializing cracker columns / runs.
    pub elements_copied: u64,
    /// Total pairs merged by update-merging or run-merging steps.
    pub elements_merged: u64,
    /// Total elements read to produce query answers (scan + result sizes).
    pub elements_scanned: u64,
    /// Number of pieces sorted outright (hybrid sort/radix steps, the
    /// full-sort baseline's build).
    pub pieces_sorted: u64,
    /// Binary-search steps into sorted structures (the full-sort baseline's
    /// lookups): `⌈log₂ n⌉` per probe over `n` keys.
    pub index_probes: u64,
    /// Number of times a narrow cracker column was re-encoded with `i64`
    /// keys to take an insertion outside its frame.
    pub widenings: u64,
    /// Total pairs re-encoded by those widenings. A storage detail, like the
    /// width itself: not part of [`Self::total_effort`].
    pub elements_widened: u64,
}

impl CrackStats {
    /// A zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a query.
    pub fn record_query(&mut self) {
        self.queries += 1;
    }

    /// Record a `crack_in_two` call and its touch counts.
    pub fn record_crack_in_two(&mut self, touch: CrackTouch) {
        self.crack_in_two_calls += 1;
        self.elements_compared += touch.compared as u64;
        self.elements_swapped += touch.swapped as u64;
    }

    /// Record a `crack_in_three` call and its touch counts.
    pub fn record_crack_in_three(&mut self, touch: CrackTouch) {
        self.crack_in_three_calls += 1;
        self.elements_compared += touch.compared as u64;
        self.elements_swapped += touch.swapped as u64;
    }

    /// Record copying `n` pairs (cracker column initialization, run creation).
    pub fn record_copy(&mut self, n: usize) {
        self.elements_copied += n as u64;
    }

    /// Record merging `n` pairs (update merging, adaptive merging steps).
    pub fn record_merge(&mut self, n: usize) {
        self.elements_merged += n as u64;
    }

    /// Record widening a cracker column of `n` pairs.
    pub fn record_widen(&mut self, n: usize) {
        self.widenings += 1;
        self.elements_widened += n as u64;
    }

    /// Record scanning `n` elements to answer a query.
    pub fn record_scan(&mut self, n: usize) {
        self.elements_scanned += n as u64;
    }

    /// Record sorting a piece of `n` elements.
    pub fn record_sort(&mut self, n: usize) {
        self.pieces_sorted += 1;
        // sorting is ~ n log n comparisons; account it as compared elements so
        // that the "work per query" metric reflects the heavier initialization
        // of sort-based strategies
        let log = (n.max(2) as f64).log2().ceil() as u64;
        self.elements_compared += n as u64 * log;
    }

    /// Record a binary-search probe over `n` sorted keys.
    pub fn record_probe(&mut self, n: usize) {
        self.index_probes += (n.max(2) as f64).log2().ceil() as u64;
    }

    /// Total physical reorganization effort: a single scalar combining the
    /// counters, used by the benchmark harness as a machine-independent cost
    /// ("logical cost" in the EXPERIMENTS.md tables).
    pub fn total_effort(&self) -> u64 {
        self.elements_compared
            + self.elements_swapped
            + self.elements_copied
            + self.elements_merged
            + self.elements_scanned
            + self.index_probes
    }

    /// Merge another statistics block into this one (used when aggregating
    /// per-column statistics at the kernel level).
    pub fn merge_from(&mut self, other: &CrackStats) {
        self.queries += other.queries;
        self.crack_in_two_calls += other.crack_in_two_calls;
        self.crack_in_three_calls += other.crack_in_three_calls;
        self.elements_compared += other.elements_compared;
        self.elements_swapped += other.elements_swapped;
        self.elements_copied += other.elements_copied;
        self.elements_merged += other.elements_merged;
        self.elements_scanned += other.elements_scanned;
        self.pieces_sorted += other.pieces_sorted;
        self.index_probes += other.index_probes;
        self.widenings += other.widenings;
        self.elements_widened += other.elements_widened;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = CrackStats::new();
        s.record_query();
        s.record_crack_in_two(CrackTouch {
            compared: 10,
            swapped: 3,
        });
        s.record_crack_in_three(CrackTouch {
            compared: 20,
            swapped: 5,
        });
        s.record_copy(100);
        s.record_merge(7);
        s.record_scan(50);
        s.record_probe(1024);
        assert_eq!(s.queries, 1);
        assert_eq!(s.crack_in_two_calls, 1);
        assert_eq!(s.crack_in_three_calls, 1);
        assert_eq!(s.elements_compared, 30);
        assert_eq!(s.elements_swapped, 8);
        assert_eq!(s.elements_copied, 100);
        assert_eq!(s.elements_merged, 7);
        assert_eq!(s.elements_scanned, 50);
        assert_eq!(s.index_probes, 10);
        assert_eq!(s.total_effort(), 30 + 8 + 100 + 7 + 50 + 10);
    }

    #[test]
    fn record_sort_accounts_nlogn() {
        let mut s = CrackStats::new();
        s.record_sort(1024);
        assert_eq!(s.pieces_sorted, 1);
        assert_eq!(s.elements_compared, 1024 * 10);
    }

    #[test]
    fn sort_of_tiny_inputs() {
        let mut t = CrackStats::new();
        t.record_sort(0);
        assert_eq!(t.elements_compared, 0);
        t.record_sort(1);
        assert_eq!(t.pieces_sorted, 2);
        assert_eq!(t.elements_compared, 1);
    }

    #[test]
    fn merge_from_adds_everything() {
        let mut a = CrackStats::new();
        a.record_query();
        a.record_copy(5);
        let mut b = CrackStats::new();
        b.record_query();
        b.record_scan(9);
        b.record_sort(4);
        b.record_probe(4);
        a.merge_from(&b);
        assert_eq!(a.queries, 2);
        assert_eq!(a.elements_copied, 5);
        assert_eq!(a.elements_scanned, 9);
        assert_eq!(a.pieces_sorted, 1);
        assert_eq!(a.index_probes, 2);
    }
}
