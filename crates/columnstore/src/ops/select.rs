//! Full-scan selection over a column.
//!
//! `scan_select_*` are the baseline (non-adaptive) selection operators: they
//! read the whole column and emit qualifying positions. The cracking select
//! operator in `aidx-cracking` answers the same predicate shapes but
//! additionally reorganizes its copy of the column. Every scan that emits
//! positions — these, the chunk scans the parallel engine fans out, the
//! full-scan baseline and the kernel's scan fallbacks — runs one loop,
//! [`scan_keys_where`].

use crate::column::Column;
use crate::position::PositionList;
use crate::segment::{Segment, ZoneMap};
use crate::types::{Key, RowId};

/// A selection predicate over a key column.
///
/// Ranges are half-open `[low, high)`, the convention used throughout the
/// cracking literature (a query asks for `low <= v < high`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicate {
    /// `low <= v < high`
    Range {
        /// Inclusive lower bound.
        low: Key,
        /// Exclusive upper bound.
        high: Key,
    },
    /// `v < high`
    LessThan {
        /// Exclusive upper bound.
        high: Key,
    },
    /// `v >= low`
    GreaterEqual {
        /// Inclusive lower bound.
        low: Key,
    },
    /// `v == value`
    Equals {
        /// The probed value.
        value: Key,
    },
}

impl Predicate {
    /// Convenience constructor for a half-open range `[low, high)`.
    pub fn range(low: Key, high: Key) -> Self {
        Predicate::Range { low, high }
    }

    /// Convenience constructor for an equality predicate.
    pub fn equals(value: Key) -> Self {
        Predicate::Equals { value }
    }

    /// Evaluate the predicate for one value.
    #[inline]
    pub fn matches(&self, v: Key) -> bool {
        match *self {
            Predicate::Range { low, high } => v >= low && v < high,
            Predicate::LessThan { high } => v < high,
            Predicate::GreaterEqual { low } => v >= low,
            Predicate::Equals { value } => v == value,
        }
    }

    /// The predicate expressed as a closed-open `[low, high)` interval over
    /// the full key domain. Equality becomes `[v, v+1)`.
    pub fn as_bounds(&self) -> (Key, Key) {
        match *self {
            Predicate::Range { low, high } => (low, high),
            Predicate::LessThan { high } => (Key::MIN, high),
            Predicate::GreaterEqual { low } => (low, Key::MAX),
            Predicate::Equals { value } => (value, value.saturating_add(1)),
        }
    }

    /// Whether a chunk with the given zone map *may* contain a qualifying
    /// value. `false` is a proof of absence (the chunk can be pruned);
    /// `true` only means the chunk must be scanned.
    #[inline]
    pub fn zone_may_match(&self, zone: &ZoneMap<Key>) -> bool {
        match *self {
            Predicate::Range { low, high } => zone.may_contain_range(low, high),
            Predicate::LessThan { high } => zone.min().is_some_and(|min| min < high),
            Predicate::GreaterEqual { low } => zone.max().is_some_and(|max| max >= low),
            Predicate::Equals { value } => zone.may_contain(value),
        }
    }
}

/// How much a chunk-at-a-time scan or filter actually touched: a chunk whose
/// zone map decided it without reading a single value is *pruned*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Chunks whose values were read.
    pub chunks_scanned: usize,
    /// Chunks decided by their zone map alone: skipped because no value can
    /// match, or — in a residual filter — kept whole because every value
    /// matches (see [`ZoneDecision`]).
    pub chunks_pruned: usize,
}

impl PruneStats {
    /// Fold another scan's statistics into this one (alias for `+=`).
    pub fn merge(&mut self, other: PruneStats) {
        *self += other;
    }

    /// Total chunks considered (scanned + pruned).
    pub fn chunks_total(&self) -> usize {
        self.chunks_scanned + self.chunks_pruned
    }

    /// Fraction of considered chunks the zone maps decided without a read
    /// (0.0 when no chunks were considered at all).
    pub fn pruned_fraction(&self) -> f64 {
        match self.chunks_total() {
            0 => 0.0,
            total => self.chunks_pruned as f64 / total as f64,
        }
    }
}

/// `PruneStats` aggregate per chunk, so folding the per-worker statistics of
/// a parallel scan with `+=` yields exactly the totals the serial scan
/// reports — field-wise addition, no averaging or clamping.
impl std::ops::AddAssign for PruneStats {
    fn add_assign(&mut self, other: PruneStats) {
        self.chunks_scanned += other.chunks_scanned;
        self.chunks_pruned += other.chunks_pruned;
    }
}

impl std::ops::Add for PruneStats {
    type Output = PruneStats;
    fn add(mut self, other: PruneStats) -> PruneStats {
        self += other;
        self
    }
}

impl std::iter::Sum for PruneStats {
    fn sum<I: Iterator<Item = PruneStats>>(iter: I) -> PruneStats {
        iter.fold(PruneStats::default(), |acc, s| acc + s)
    }
}

/// Append to `out`, in order, the position of every key of `keys` that
/// satisfies `matches`, where `keys[0]` sits at position `first`: the one
/// range-scan loop of the workspace.
#[inline]
pub fn scan_keys_where(
    keys: &[Key],
    first: RowId,
    matches: impl Fn(Key) -> bool,
    out: &mut Vec<RowId>,
) {
    for (i, &v) in keys.iter().enumerate() {
        if matches(v) {
            out.push(first + i as RowId);
        }
    }
}

/// The shared chunk-at-a-time scan kernel: chunks failing `zone_may_match`
/// are skipped without touching their values; positions of values passing
/// `matches` are emitted in order.
///
/// The two predicate vocabularies of the workspace (this module's
/// [`Predicate`] and the kernel facade's conjunctive predicates) both scan
/// through this one loop, so pruning accounting and position emission can
/// never diverge between them.
pub fn scan_segment_where(
    segment: &Segment<Key>,
    zone_may_match: impl Fn(&crate::segment::ZoneMap<Key>) -> bool,
    matches: impl Fn(Key) -> bool,
) -> (PositionList, PruneStats) {
    let mut out: Vec<RowId> = Vec::new();
    let mut stats = PruneStats::default();
    for chunk in segment.chunks() {
        scan_chunk_where(&chunk, &zone_may_match, &matches, &mut out, &mut stats);
    }
    (PositionList::from_sorted_vec(out), stats)
}

/// Scan (or zone-prune) one chunk: the per-chunk unit of work shared by the
/// serial segment scan above and the chunk-parallel scan in `aidx-parallel`.
/// Qualifying global positions are appended to `out` in order and the chunk
/// is accounted in `stats`, so serial and parallel scans produce identical
/// position sets and identical pruning statistics by construction.
pub fn scan_chunk_where(
    chunk: &crate::segment::ChunkView<'_, Key>,
    zone_may_match: impl Fn(&crate::segment::ZoneMap<Key>) -> bool,
    matches: impl Fn(Key) -> bool,
    out: &mut Vec<RowId>,
    stats: &mut PruneStats,
) {
    if !zone_may_match(&chunk.zone) {
        stats.chunks_pruned += 1;
        return;
    }
    stats.chunks_scanned += 1;
    scan_keys_where(chunk.values, chunk.base, matches, out);
}

/// What a chunk's zone map proves about a predicate, for every value in the
/// chunk at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneDecision {
    /// No value can match: the chunk's candidates are dropped unread.
    NoneMatch,
    /// Every value matches: the chunk's candidates are kept unread.
    AllMatch,
    /// The zone map decides nothing: the candidates' values are read.
    Undecided,
}

impl ZoneDecision {
    /// The decision of a filter that only prunes: [`ZoneDecision::NoneMatch`]
    /// where the zone map rules the chunk out, [`ZoneDecision::Undecided`]
    /// everywhere else.
    #[inline]
    pub fn pruning(zone_may_match: bool) -> ZoneDecision {
        if zone_may_match {
            ZoneDecision::Undecided
        } else {
            ZoneDecision::NoneMatch
        }
    }
}

/// Filter the candidate positions of one chunk group: the per-chunk unit of
/// the residual (late-materialized) filter step, shared by the serial
/// executor path and the chunk-parallel residual filter in `aidx-parallel` —
/// so serial and parallel residual filtering produce identical position sets
/// and identical pruning statistics by construction.
///
/// `candidates` must all fall inside `chunk`, in any order. `decide` reads
/// the chunk's zone map first: a chunk it decides either way (all candidates
/// dropped, or all kept) costs no value read and counts as pruned; an
/// undecided chunk is scanned with a predicated loop (every candidate is
/// written, the write position advances by the predicate's result).
/// Survivors are appended to `out` in candidate order.
pub fn filter_chunk_group(
    chunk: &crate::segment::ChunkView<'_, Key>,
    candidates: &[RowId],
    decide: impl Fn(&ZoneMap<Key>) -> ZoneDecision,
    matches: impl Fn(Key) -> bool,
    out: &mut Vec<RowId>,
    stats: &mut PruneStats,
) {
    match decide(&chunk.zone) {
        ZoneDecision::NoneMatch => stats.chunks_pruned += 1,
        ZoneDecision::AllMatch => {
            stats.chunks_pruned += 1;
            out.extend_from_slice(candidates);
        }
        ZoneDecision::Undecided => {
            stats.chunks_scanned += 1;
            keep_matching(chunk, candidates, matches, out);
        }
    }
}

/// Filter the candidate positions of one chunk, pruning it when its zone map
/// cannot satisfy the predicate: [`filter_chunk_group`] with a decision
/// that never proves a whole chunk matches.
///
/// `candidates` must all fall inside `chunk` and may come in any order; the
/// survivors are appended to `out` in that order.
pub fn filter_chunk_positions(
    chunk: &crate::segment::ChunkView<'_, Key>,
    candidates: &[RowId],
    zone_may_match: impl Fn(&crate::segment::ZoneMap<Key>) -> bool,
    matches: impl Fn(Key) -> bool,
    out: &mut Vec<RowId>,
    stats: &mut PruneStats,
) {
    let decide = |zone: &ZoneMap<Key>| ZoneDecision::pruning(zone_may_match(zone));
    filter_chunk_group(chunk, candidates, decide, matches, out, stats);
}

/// The predicated filter loop: every candidate is written to the next free
/// slot, and the slot advances by the predicate's result — no branch on the
/// value, so a 30 % predicate costs what a 1 % one does.
fn keep_matching(
    chunk: &crate::segment::ChunkView<'_, Key>,
    candidates: &[RowId],
    matches: impl Fn(Key) -> bool,
    out: &mut Vec<RowId>,
) {
    debug_assert!(candidates
        .iter()
        .all(|&p| p >= chunk.base && p < chunk.end()));
    let start = out.len();
    out.resize(start + candidates.len(), 0);
    let free = &mut out[start..];
    let mut kept = 0;
    for &p in candidates {
        // a candidate below the chunk wraps to a huge offset and panics on
        // the bounds check, like one past its end
        let value = chunk.values[p.wrapping_sub(chunk.base) as usize];
        free[kept] = p;
        kept += usize::from(matches(value));
    }
    out.truncate(start + kept);
}

/// Scan a chunked key [`Segment`] with a range predicate, chunk-at-a-time:
/// chunks whose zone map cannot satisfy the predicate are skipped without
/// touching their values. Returns the qualifying positions plus pruning
/// statistics.
pub fn scan_select_segment(
    segment: &Segment<Key>,
    predicate: &Predicate,
) -> (PositionList, PruneStats) {
    scan_segment_where(
        segment,
        |zone| predicate.zone_may_match(zone),
        |v| predicate.matches(v),
    )
}

/// Scan a typed [`Column`] with a range predicate (chunk-at-a-time with
/// zone-map pruning; see [`scan_select_segment`] for the variant that also
/// reports pruning statistics).
///
/// Non-integer columns return an empty position list: the adaptive indexing
/// workloads only place range predicates on key columns, and the kernel layer
/// validates column types before planning.
pub fn scan_select_range(column: &Column, predicate: &Predicate) -> PositionList {
    match column.as_i64() {
        Some(keys) => scan_select_segment(keys, predicate).0,
        None => PositionList::new(),
    }
}

/// Count qualifying values without materializing positions (used by
/// aggregate-only queries and by cost accounting).
pub fn scan_count(keys: &[Key], predicate: &Predicate) -> usize {
    keys.iter().filter(|&&v| predicate.matches(v)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_matches() {
        let p = Predicate::range(10, 20);
        assert!(p.matches(10));
        assert!(p.matches(19));
        assert!(!p.matches(20));
        assert!(!p.matches(9));
        assert!(Predicate::LessThan { high: 5 }.matches(4));
        assert!(!Predicate::LessThan { high: 5 }.matches(5));
        assert!(Predicate::GreaterEqual { low: 5 }.matches(5));
        assert!(!Predicate::GreaterEqual { low: 5 }.matches(4));
        assert!(Predicate::equals(7).matches(7));
        assert!(!Predicate::equals(7).matches(8));
    }

    #[test]
    fn predicate_bounds() {
        assert_eq!(Predicate::range(1, 5).as_bounds(), (1, 5));
        assert_eq!(Predicate::LessThan { high: 5 }.as_bounds(), (Key::MIN, 5));
        assert_eq!(
            Predicate::GreaterEqual { low: 5 }.as_bounds(),
            (5, Key::MAX)
        );
        assert_eq!(Predicate::equals(7).as_bounds(), (7, 8));
        assert_eq!(
            Predicate::equals(Key::MAX).as_bounds(),
            (Key::MAX, Key::MAX)
        );
    }

    /// The positions of `keys` that `predicate` selects, numbered from 0.
    fn scan(keys: &[Key], predicate: &Predicate) -> Vec<RowId> {
        let mut out = Vec::new();
        scan_keys_where(keys, 0, |v| predicate.matches(v), &mut out);
        out
    }

    #[test]
    fn scan_select_small() {
        let keys = vec![5, 1, 9, 3, 7, 2, 8];
        assert_eq!(scan(&keys, &Predicate::range(3, 8)), [0, 3, 4]);
    }

    #[test]
    fn scan_keys_where_numbers_from_first_and_appends() {
        let n = 3 * 1024 + 17;
        let keys: Vec<Key> = (0..n as Key).collect();
        let mut out = vec![7];
        let first = 1_000;
        scan_keys_where(
            &keys,
            first,
            |v| (100..n as Key - 100).contains(&v),
            &mut out,
        );
        assert_eq!(out.len(), 1 + n - 200);
        assert_eq!(out[..2], [7, first + 100]);
        assert_eq!(*out.last().unwrap(), first + (n - 101) as RowId);
        assert!(out[1..].windows(2).all(|w| w[0] + 1 == w[1]));
    }

    #[test]
    fn scan_select_column_dispatch() {
        let c = Column::from_i64(vec![4, 8, 15, 16, 23, 42]);
        let p = scan_select_range(&c, &Predicate::range(8, 23));
        assert_eq!(p.as_slice(), &[1, 2, 3]);
        let f = Column::from_f64(vec![1.0, 2.0]);
        assert!(scan_select_range(&f, &Predicate::range(0, 10)).is_empty());
    }

    #[test]
    fn scan_count_matches_select_len() {
        let keys: Vec<Key> = (0..5000).map(|i| (i * 7919) % 1000).collect();
        let pred = Predicate::range(100, 300);
        assert_eq!(scan_count(&keys, &pred), scan(&keys, &pred).len());
    }

    #[test]
    fn segment_scan_prunes_non_overlapping_chunks() {
        // sorted data in chunks of 100: each chunk covers a disjoint range
        let seg = Segment::from_vec_with_capacity((0..1000).collect(), 100);
        let pred = Predicate::range(250, 340);
        let (positions, stats) = scan_select_segment(&seg, &pred);
        assert_eq!(positions.len(), 90);
        assert_eq!(positions.as_slice()[0], 250);
        assert_eq!(
            stats.chunks_scanned, 2,
            "only chunks [200,300) and [300,400)"
        );
        assert_eq!(stats.chunks_pruned, 8);
        assert_eq!(stats.chunks_total(), 10);
        // agreement with the flat scan
        assert_eq!(positions.as_slice(), scan(&seg.to_vec(), &pred));
    }

    #[test]
    fn segment_scan_out_of_domain_prunes_everything() {
        let seg = Segment::from_vec_with_capacity((0..100).collect(), 16);
        let (positions, stats) = scan_select_segment(&seg, &Predicate::range(500, 600));
        assert!(positions.is_empty());
        assert_eq!(stats.chunks_scanned, 0);
        assert_eq!(stats.chunks_pruned, 7, "6 sealed + tail");
    }

    #[test]
    fn zone_may_match_all_predicate_shapes() {
        let zone = ZoneMap::from_values(&[10, 20]);
        assert!(Predicate::range(5, 11).zone_may_match(&zone));
        assert!(!Predicate::range(21, 30).zone_may_match(&zone));
        assert!(Predicate::LessThan { high: 11 }.zone_may_match(&zone));
        assert!(!Predicate::LessThan { high: 10 }.zone_may_match(&zone));
        assert!(Predicate::GreaterEqual { low: 20 }.zone_may_match(&zone));
        assert!(!Predicate::GreaterEqual { low: 21 }.zone_may_match(&zone));
        assert!(Predicate::equals(15).zone_may_match(&zone));
        assert!(!Predicate::equals(9).zone_may_match(&zone));
        // Equals at Key::MAX must not be mis-pruned by the half-open encoding
        let extreme = ZoneMap::from_values(&[Key::MAX]);
        assert!(Predicate::equals(Key::MAX).zone_may_match(&extreme));
        let empty: ZoneMap<Key> = ZoneMap::empty();
        assert!(!Predicate::range(Key::MIN, Key::MAX).zone_may_match(&empty));
    }

    #[test]
    fn chunk_group_filter_reads_only_undecided_chunks() {
        let values: Vec<Key> = (100..164).collect();
        let seg = Segment::from_vec_with_capacity(values, 64);
        let chunk = seg.chunk(0);
        // candidates in any order; survivors keep that order
        let candidates: Vec<RowId> = vec![40, 3, 17, 63, 0, 22];
        let pred = Predicate::range(110, 141);
        for (decision, expected, scanned, pruned) in [
            (ZoneDecision::NoneMatch, vec![], 0, 1),
            (ZoneDecision::AllMatch, candidates.clone(), 0, 1),
            (ZoneDecision::Undecided, vec![40, 17, 22], 1, 0),
        ] {
            let mut out = vec![7];
            let mut stats = PruneStats::default();
            filter_chunk_group(
                &chunk,
                &candidates,
                |_| decision,
                |v| pred.matches(v),
                &mut out,
                &mut stats,
            );
            assert_eq!(out[0], 7, "appends after what is there");
            assert_eq!(&out[1..], expected.as_slice(), "{decision:?}");
            assert_eq!(
                (stats.chunks_scanned, stats.chunks_pruned),
                (scanned, pruned)
            );
        }
        // the pruning-only wrapper reads an overlapping chunk, skips a
        // disjoint one
        let mut out = Vec::new();
        let mut stats = PruneStats::default();
        for p in [pred, Predicate::range(500, 600)] {
            filter_chunk_positions(
                &chunk,
                &candidates,
                |z| p.zone_may_match(z),
                |v| p.matches(v),
                &mut out,
                &mut stats,
            );
        }
        assert_eq!(out, vec![40, 17, 22]);
        assert_eq!((stats.chunks_scanned, stats.chunks_pruned), (1, 1));
    }

    #[test]
    fn prune_stats_merge() {
        let mut a = PruneStats {
            chunks_scanned: 1,
            chunks_pruned: 2,
        };
        a.merge(PruneStats {
            chunks_scanned: 3,
            chunks_pruned: 4,
        });
        assert_eq!(a.chunks_scanned, 4);
        assert_eq!(a.chunks_pruned, 6);
        assert_eq!(PruneStats::default().chunks_total(), 0);
    }

    #[test]
    fn prune_stats_add_assign_matches_serial_totals() {
        // splitting a scan into per-chunk stats and folding with += must
        // reconstruct exactly what the one-pass serial scan reports
        let seg = Segment::from_vec_with_capacity((0..1000).collect(), 100);
        let pred = Predicate::range(250, 340);
        let (_, serial) = scan_select_segment(&seg, &pred);
        let mut folded = PruneStats::default();
        let mut summed: Vec<PruneStats> = Vec::new();
        for chunk in seg.chunks() {
            let mut out = Vec::new();
            let mut per_chunk = PruneStats::default();
            scan_chunk_where(
                &chunk,
                |z| pred.zone_may_match(z),
                |v| pred.matches(v),
                &mut out,
                &mut per_chunk,
            );
            folded += per_chunk;
            summed.push(per_chunk);
        }
        assert_eq!(folded, serial);
        assert_eq!(summed.into_iter().sum::<PruneStats>(), serial);
        assert_eq!(
            folded + PruneStats::default(),
            serial,
            "adding an empty stat is the identity"
        );
        assert_eq!(folded.chunks_total(), serial.chunks_total());
    }
}
