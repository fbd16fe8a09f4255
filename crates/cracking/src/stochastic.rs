//! Stochastic cracking: auxiliary, data/randomness-driven cracks.
//!
//! Plain selection cracking only ever cracks at query bounds. Under
//! adversarial or simply unlucky workloads (the classic example is a
//! sequential scan of the domain with ever-increasing bounds) the pieces that
//! still need work stay huge, so each query keeps paying an almost full-scan
//! cost. Stochastic cracking (Halim et al., PVLDB 2012 — discussed in the
//! tutorial's "improving convergence speed" section) fixes this by letting
//! every query additionally crack large pieces at *auxiliary* pivots that do
//! not depend on the query bounds:
//!
//! * [`StochasticVariant::DataDrivenCenter`] (DDC) cracks oversized pieces at
//!   the midpoint of their key range,
//! * [`StochasticVariant::DataDrivenRandom`] (DDR) cracks them at a pivot
//!   chosen uniformly from the piece's key range,
//! * [`StochasticVariant::MaterializedDataDrivenRandom`] (MDD1R-style)
//!   performs exactly one random auxiliary crack per query on the largest
//!   piece the query touches.

use crate::selection::{CrackedIndex, Piece, RangeResult, CONVERGED_PIECE_LEN};
use crate::stats::CrackStats;
use aidx_columnstore::index::{AdaptiveIndex, QueryOutput};
use aidx_columnstore::types::Key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which auxiliary-crack policy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StochasticVariant {
    /// Crack oversized touched pieces at the midpoint of their key bounds.
    DataDrivenCenter,
    /// Crack oversized touched pieces at a uniformly random pivot.
    DataDrivenRandom,
    /// One random auxiliary crack per query, on the largest touched piece.
    MaterializedDataDrivenRandom,
}

/// A selection-cracking index with stochastic auxiliary cracks.
#[derive(Debug, Clone)]
pub struct StochasticCrackedIndex {
    inner: CrackedIndex,
    variant: StochasticVariant,
    /// Pieces larger than this receive auxiliary cracks.
    piece_threshold: usize,
    rng: StdRng,
    auxiliary_cracks: u64,
}

impl StochasticCrackedIndex {
    /// Build from a dense key slice.
    ///
    /// `piece_threshold` controls how large a piece must be before auxiliary
    /// cracks are applied; the canonical choice is a small multiple of the L1
    /// cache size, here expressed in number of values.
    pub fn from_keys(
        keys: &[Key],
        variant: StochasticVariant,
        piece_threshold: usize,
        seed: u64,
    ) -> Self {
        Self::from_chunks(&[keys], variant, piece_threshold, seed)
    }

    /// Build from a base column stored as `chunks`, copied chunk by chunk
    /// into the inner cracked index.
    pub fn from_chunks(
        chunks: &[&[Key]],
        variant: StochasticVariant,
        piece_threshold: usize,
        seed: u64,
    ) -> Self {
        StochasticCrackedIndex {
            inner: CrackedIndex::from_chunks(chunks, None),
            variant,
            piece_threshold: piece_threshold.max(2),
            rng: StdRng::seed_from_u64(seed),
            auxiliary_cracks: 0,
        }
    }

    /// Number of tuples, the staged insertions included.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when the index holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The wrapped plain cracked index.
    pub fn inner(&self) -> &CrackedIndex {
        &self.inner
    }

    /// Accumulated instrumentation (shared with the inner index).
    pub fn stats(&self) -> &CrackStats {
        self.inner.stats()
    }

    /// Number of auxiliary (non-query-bound) cracks performed so far.
    pub fn auxiliary_cracks(&self) -> u64 {
        self.auxiliary_cracks
    }

    /// Number of pieces.
    pub fn piece_count(&self) -> usize {
        self.inner.piece_count()
    }

    /// Size of the largest piece.
    pub fn largest_piece(&self) -> usize {
        self.inner.largest_piece()
    }

    /// Key-range midpoint of a piece, falling back to the column domain when
    /// the piece has an open bound.
    fn piece_midpoint(&self, piece: &Piece) -> Key {
        let low = piece.low.unwrap_or_else(|| self.inner.min_value());
        let high = piece
            .high
            .unwrap_or_else(|| self.inner.max_value().saturating_add(1));
        low + (high - low) / 2
    }

    /// Uniformly random pivot within a piece's key range.
    fn piece_random_pivot(&mut self, piece: &Piece) -> Key {
        let low = piece.low.unwrap_or_else(|| self.inner.min_value());
        let high = piece
            .high
            .unwrap_or_else(|| self.inner.max_value().saturating_add(1));
        if high <= low + 1 {
            low
        } else {
            self.rng.gen_range(low + 1..high)
        }
    }

    /// Pieces that the query bounds fall into and that exceed the threshold.
    fn oversized_touched_pieces(&self, low: Key, high: Key) -> Vec<Piece> {
        self.inner
            .pieces()
            .into_iter()
            .filter(|p| {
                let p_low = p.low.unwrap_or(Key::MIN);
                let p_high = p.high.unwrap_or(Key::MAX);
                let contains_low = p_low <= low && low < p_high;
                let contains_high = p_high > high && high >= p_low;
                p.len() > self.piece_threshold && (contains_low || contains_high)
            })
            .collect()
    }

    /// Perform the auxiliary cracks mandated by the configured variant, then
    /// answer the query through the inner index (which performs the regular
    /// query-bound cracks).
    pub fn query_range(&mut self, low: Key, high: Key) -> RangeResult<'_> {
        if !self.inner.is_empty() && low < high {
            let touched = self.oversized_touched_pieces(low, high);
            match self.variant {
                StochasticVariant::DataDrivenCenter => {
                    for piece in &touched {
                        let pivot = self.piece_midpoint(piece);
                        self.auxiliary_crack(pivot);
                    }
                }
                StochasticVariant::DataDrivenRandom => {
                    for piece in &touched {
                        let pivot = self.piece_random_pivot(piece);
                        self.auxiliary_crack(pivot);
                    }
                }
                StochasticVariant::MaterializedDataDrivenRandom => {
                    if let Some(piece) = touched.iter().max_by_key(|p| p.len()) {
                        let pivot = self.piece_random_pivot(piece);
                        self.auxiliary_crack(pivot);
                    }
                }
            }
        }
        self.inner.query_range(low, high)
    }

    /// Count of qualifying tuples for `[low, high)`.
    pub fn count_range(&mut self, low: Key, high: Key) -> usize {
        self.query_range(low, high).len()
    }

    fn auxiliary_crack(&mut self, pivot: Key) {
        if pivot > self.inner.min_value() && pivot <= self.inner.max_value() {
            self.inner.ensure_cut(pivot);
            self.auxiliary_cracks += 1;
        }
    }

    /// Structural invariants of the wrapped index.
    pub fn verify_integrity(&self) -> bool {
        self.inner.verify_integrity()
    }
}

impl AdaptiveIndex for StochasticCrackedIndex {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn query_range(&mut self, low: Key, high: Key) -> QueryOutput {
        let answer = StochasticCrackedIndex::query_range(self, low, high);
        QueryOutput::from_row_ids(answer.rowids().to_vec())
    }
    fn effort(&self) -> u64 {
        self.stats().total_effort()
    }
    fn auxiliary_bytes(&self) -> usize {
        AdaptiveIndex::auxiliary_bytes(&self.inner)
    }
    fn pieces(&self) -> usize {
        self.piece_count()
    }
    fn is_adaptive(&self) -> bool {
        true
    }
    fn is_converged(&self) -> bool {
        self.largest_piece() <= CONVERGED_PIECE_LEN
    }
    /// Staged in the inner index ([`CrackedIndex::insert`]): auxiliary
    /// cracks only add cuts, and the merge moves every cut with its tuples.
    fn insert(&mut self, key: Key) -> bool {
        self.inner.insert(key);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_data(n: usize) -> Vec<Key> {
        (0..n as Key).map(|i| (i * 48271) % n as Key).collect()
    }

    fn reference(data: &[Key], low: Key, high: Key) -> Vec<Key> {
        let mut v: Vec<Key> = data
            .iter()
            .copied()
            .filter(|&x| x >= low && x < high)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn answers_match_reference_for_all_variants() {
        let data = skewed_data(3000);
        for variant in [
            StochasticVariant::DataDrivenCenter,
            StochasticVariant::DataDrivenRandom,
            StochasticVariant::MaterializedDataDrivenRandom,
        ] {
            let mut idx = StochasticCrackedIndex::from_keys(&data, variant, 64, 7);
            for q in 0..50 {
                let low = (q * 53) % 2500;
                let high = low + 100;
                let mut got = idx.query_range(low, high).keys().to_vec();
                got.sort_unstable();
                assert_eq!(got, reference(&data, low, high), "variant {variant:?}");
            }
            assert!(idx.verify_integrity());
        }
    }

    #[test]
    fn sequential_workload_converges_faster_than_plain_cracking() {
        // ascending, non-overlapping ranges: the pathological workload for
        // plain cracking (the yet-unqueried suffix is never subdivided)
        let n: Key = 20_000;
        let data: Vec<Key> = (0..n).map(|i| (i * 75) % n).collect();

        let mut plain = CrackedIndex::from_keys(&data);
        let mut stochastic =
            StochasticCrackedIndex::from_keys(&data, StochasticVariant::DataDrivenCenter, 128, 42);

        let step: Key = 200;
        let mut low = 0;
        while low + step < n / 2 {
            let _ = plain.query_range(low, low + step);
            let _ = stochastic.query_range(low, low + step);
            low += step;
        }

        // the plain index still has one huge unqueried piece; DDC has broken
        // the tail down on the side
        assert!(plain.largest_piece() >= (n as usize) / 2 - 1);
        assert!(
            stochastic.largest_piece() < plain.largest_piece(),
            "stochastic {} vs plain {}",
            stochastic.largest_piece(),
            plain.largest_piece()
        );
        assert!(stochastic.auxiliary_cracks() > 0);
    }

    #[test]
    fn mdd1r_adds_at_most_one_auxiliary_crack_per_query() {
        let data = skewed_data(5000);
        let mut idx = StochasticCrackedIndex::from_keys(
            &data,
            StochasticVariant::MaterializedDataDrivenRandom,
            32,
            3,
        );
        for q in 0..20 {
            let before = idx.auxiliary_cracks();
            let low = (q * 211) % 4000;
            let _ = idx.query_range(low, low + 50);
            assert!(idx.auxiliary_cracks() <= before + 1);
        }
        assert!(idx.piece_count() > 1);
        assert_eq!(idx.len(), 5000);
        assert!(!idx.is_empty());
    }

    #[test]
    fn empty_and_degenerate_queries() {
        let mut idx =
            StochasticCrackedIndex::from_keys(&[], StochasticVariant::DataDrivenRandom, 16, 1);
        assert!(idx.is_empty());
        assert_eq!(idx.count_range(0, 10), 0);

        let data = vec![5, 1, 9];
        let mut idx =
            StochasticCrackedIndex::from_keys(&data, StochasticVariant::DataDrivenCenter, 16, 1);
        assert_eq!(idx.count_range(7, 3), 0);
        assert_eq!(idx.count_range(0, 100), 3);
        assert!(idx.inner().stats().queries >= 2);
        assert_eq!(idx.stats().queries, idx.inner().stats().queries);
    }

    #[test]
    fn inserts_merge_through_auxiliary_cracks() {
        let mut data = skewed_data(4000);
        let mut idx =
            StochasticCrackedIndex::from_keys(&data, StochasticVariant::DataDrivenCenter, 64, 5);
        for q in 0..40 {
            let low = (q * 97) % 3900;
            let _ = idx.query_range(low, low + 100);
        }
        let pieces = idx.piece_count();
        for q in 0..60 {
            let key = (q * 131) % 4500 - 200;
            assert!(AdaptiveIndex::insert(&mut idx, key));
            data.push(key);
            let low = (q * 53) % 3900;
            let mut got = idx.query_range(low, low + 150).keys().to_vec();
            got.sort_unstable();
            assert_eq!(got, reference(&data, low, low + 150));
        }
        assert_eq!(AdaptiveIndex::len(&idx), data.len());
        assert!(idx.piece_count() >= pieces, "absorbed, not rebuilt");
        assert!(idx.verify_integrity());
        let mut all = idx.query_range(Key::MIN, Key::MAX).keys().to_vec();
        all.sort_unstable();
        assert_eq!(all, reference(&data, Key::MIN, Key::MAX));
    }

    #[test]
    fn small_pieces_receive_no_auxiliary_cracks() {
        let data: Vec<Key> = (0..100).collect();
        let mut idx = StochasticCrackedIndex::from_keys(
            &data,
            StochasticVariant::DataDrivenCenter,
            1000, // threshold larger than the column
            9,
        );
        let _ = idx.query_range(10, 20);
        assert_eq!(idx.auxiliary_cracks(), 0);
    }
}
