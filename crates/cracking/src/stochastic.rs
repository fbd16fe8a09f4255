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

use crate::cracker_column::key_domain;
use crate::selection::{CrackedIndex, Piece, RangeResult, CONVERGED_PIECE_LEN};
use crate::stats::CrackStats;
use aidx_columnstore::index::{AdaptiveIndex, QueryOutput};
use aidx_columnstore::types::{Key, RowId};
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
        Self::from_chunks(&[keys], key_domain(keys), variant, piece_threshold, seed)
    }

    /// Build from a base column stored as `chunks` whose keys lie in
    /// `domain` (see [`CrackedIndex::from_chunks`]), copied chunk by chunk
    /// into the inner cracked index.
    pub fn from_chunks(
        chunks: &[&[Key]],
        domain: Option<(Key, Key)>,
        variant: StochasticVariant,
        piece_threshold: usize,
        seed: u64,
    ) -> Self {
        StochasticCrackedIndex {
            inner: CrackedIndex::from_chunks(chunks, domain, None),
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

    /// Pieces that the query bounds fall into and that exceed the threshold:
    /// the piece holding `low` and the one holding `high`, each looked up
    /// in the cut index, in ascending order and without repeats. A piece
    /// holds a bound below its upper key bound; an open upper bound reads
    /// as `Key::MAX`, so a bound of `Key::MAX` falls into no piece.
    fn oversized_touched_pieces(&self, low: Key, high: Key) -> Vec<Piece> {
        let mut touched: Vec<Piece> = Vec::with_capacity(2);
        for bound in [low, high] {
            let piece = self.inner.piece_at(bound);
            if bound < piece.high.unwrap_or(Key::MAX)
                && piece.len() > self.piece_threshold
                && touched.last() != Some(&piece)
            {
                touched.push(piece);
            }
        }
        touched
    }

    /// Perform the auxiliary cracks mandated by the configured variant, then
    /// answer the query through the inner index (which performs the regular
    /// query-bound cracks).
    pub fn query_range(&mut self, low: Key, high: Key) -> RangeResult<'_> {
        if !self.inner.is_empty() && low < high {
            let touched = self.oversized_touched_pieces(low, high);
            self.crack_touched(&touched);
        }
        self.inner.query_range(low, high)
    }

    /// The auxiliary cracks of the configured variant in the `touched`
    /// pieces.
    fn crack_touched(&mut self, touched: &[Piece]) {
        match self.variant {
            StochasticVariant::DataDrivenCenter => {
                for piece in touched {
                    let pivot = self.piece_midpoint(piece);
                    self.auxiliary_crack(pivot);
                }
            }
            StochasticVariant::DataDrivenRandom => {
                for piece in touched {
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
    /// The auxiliary and bound cracks of [`Self::query_range`], then the
    /// distance between the two cuts; the row ids are copied only below
    /// `copy_below`.
    fn count_range(
        &mut self,
        low: Key,
        high: Key,
        copy_below: usize,
        out: &mut Vec<RowId>,
    ) -> Option<usize> {
        let answer = StochasticCrackedIndex::query_range(self, low, high);
        if answer.len() < copy_below {
            out.extend_from_slice(answer.rowids());
        }
        Some(answer.len())
    }
    /// The inner index's read: every bound a query took is a cut there.
    fn read_range(&self, low: Key, high: Key, out: &mut Vec<RowId>) -> bool {
        self.inner.read_range(low, high, out)
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
    fn insert_batch(&mut self, keys: &[Key]) -> bool {
        self.inner.insert_batch(keys)
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
                let mut got = idx.query_range(low, high).keys();
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
            assert!(idx.insert_batch(&[key]));
            data.push(key);
            let low = (q * 53) % 3900;
            let mut got = idx.query_range(low, low + 150).keys();
            got.sort_unstable();
            assert_eq!(got, reference(&data, low, low + 150));
        }
        assert_eq!(AdaptiveIndex::len(&idx), data.len());
        assert!(idx.piece_count() >= pieces, "absorbed, not rebuilt");
        assert!(idx.verify_integrity());
        let mut all = idx.query_range(Key::MIN, Key::MAX).keys();
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

    /// The touched-piece filter before the cut-index lookup: every piece
    /// listed, kept when it is oversized and holds either bound.
    fn listed_touched_pieces(idx: &StochasticCrackedIndex, low: Key, high: Key) -> Vec<Piece> {
        idx.inner
            .pieces()
            .into_iter()
            .filter(|p| {
                let p_low = p.low.unwrap_or(Key::MIN);
                let p_high = p.high.unwrap_or(Key::MAX);
                let contains_low = p_low <= low && low < p_high;
                let contains_high = p_high > high && high >= p_low;
                p.len() > idx.piece_threshold && (contains_low || contains_high)
            })
            .collect()
    }

    #[test]
    fn looked_up_pieces_crack_like_the_listed_ones() {
        let n: Key = 6000;
        let data = skewed_data(n as usize);
        let sequential: Vec<(Key, Key)> = (0..n / 100).map(|i| (i * 100, i * 100 + 100)).collect();
        // open and extreme bounds while the pieces at the domain's ends are
        // still large, uniform ranges, then the extremes again
        let mut random: Vec<(Key, Key)> = vec![(1000, 2000), (0, Key::MAX), (Key::MIN, 10)];
        random.extend((0..80).map(|q| {
            let low = (q * 7919) % (n + 400) - 200;
            (low, low + 1 + (q * 131) % 900)
        }));
        random.extend([
            (Key::MIN, 10),
            (n - 10, Key::MAX),
            (Key::MIN, Key::MAX),
            (n, Key::MAX),
        ]);
        for variant in [
            StochasticVariant::DataDrivenCenter,
            StochasticVariant::DataDrivenRandom,
            StochasticVariant::MaterializedDataDrivenRandom,
        ] {
            for (name, queries) in [("sequential", &sequential), ("random", &random)] {
                let mut looked_up = StochasticCrackedIndex::from_keys(&data, variant, 64, 11);
                let mut listed = looked_up.clone();
                for (q, &(low, high)) in queries.iter().enumerate() {
                    assert_eq!(
                        looked_up.oversized_touched_pieces(low, high),
                        listed_touched_pieces(&listed, low, high),
                        "{variant:?} {name} q{q}"
                    );
                    let got = looked_up.query_range(low, high).len();
                    let touched = listed_touched_pieces(&listed, low, high);
                    listed.crack_touched(&touched);
                    assert_eq!(listed.inner.query_range(low, high).len(), got);
                    assert_eq!(
                        looked_up.auxiliary_cracks(),
                        listed.auxiliary_cracks(),
                        "{variant:?} {name} q{q}"
                    );
                    assert_eq!(
                        looked_up.piece_count(),
                        listed.piece_count(),
                        "{variant:?} {name} q{q}"
                    );
                }
                assert!(looked_up.auxiliary_cracks() > 0, "{variant:?} {name}");
            }
        }
    }

    #[test]
    fn a_count_reorganizes_like_a_query_and_copies_only_below_its_limit() {
        let data = skewed_data(6000);
        for variant in [
            StochasticVariant::DataDrivenCenter,
            StochasticVariant::DataDrivenRandom,
            StochasticVariant::MaterializedDataDrivenRandom,
        ] {
            let mut counting = StochasticCrackedIndex::from_keys(&data, variant, 64, 9);
            let mut querying = counting.clone();
            for q in 0..40 {
                let (low, high) = ((q * 389) % 5800, (q * 389) % 5800 + 20 + q % 3 * 60);
                let context = format!("{variant:?}, [{low}, {high})");
                let answer = AdaptiveIndex::query_range(&mut querying, low, high).into_row_ids();
                // below the limit on every third query, at or above it otherwise
                let copy_below = if q % 3 == 0 {
                    answer.len() + 1
                } else {
                    answer.len()
                };
                let mut out = vec![RowId::MAX];
                let count =
                    AdaptiveIndex::count_range(&mut counting, low, high, copy_below, &mut out);
                assert_eq!(count, Some(answer.len()), "{context}");
                let mut answer = answer;
                answer.sort_unstable();
                if q % 3 == 0 {
                    assert_eq!(out.remove(0), RowId::MAX);
                    out.sort_unstable();
                    assert_eq!(out, answer, "{context}");
                } else {
                    assert_eq!(out, [RowId::MAX], "{context}: nothing appended");
                }
                assert_eq!(
                    counting.inner().pieces(),
                    querying.inner().pieces(),
                    "{context}"
                );
                assert_eq!(counting.effort(), querying.effort(), "{context}");
                assert_eq!(
                    counting.auxiliary_cracks(),
                    querying.auxiliary_cracks(),
                    "{context}"
                );
                // the counted answer reads back, moving nothing
                let mut read = Vec::new();
                assert!(
                    AdaptiveIndex::read_range(&counting, low, high, &mut read),
                    "{context}"
                );
                read.sort_unstable();
                assert_eq!(read, answer, "{context}");
                assert_eq!(counting.effort(), querying.effort(), "{context}");
            }
            assert!(counting.auxiliary_cracks() > 0, "{variant:?}");
        }
    }
}
