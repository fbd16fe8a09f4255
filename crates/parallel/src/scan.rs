//! Chunk-parallel segment scans.
//!
//! [`parallel_scan_where`] is the data-parallel counterpart of the
//! columnstore's serial `scan_segment_where` kernel: the segment's chunks are
//! grouped into contiguous *stripes*, stripes are fanned out across the
//! pool's workers, each worker zone-prunes and scans its stripe with the
//! **same per-chunk kernel the serial scan uses**
//! ([`aidx_columnstore::ops::select::scan_chunk_where`]), and the per-stripe
//! results are merged in stripe order. Because stripes cover disjoint,
//! ascending position ranges, concatenation yields a sorted position list and
//! a `+=`-fold of the per-stripe [`PruneStats`] — both byte-identical to the
//! serial scan's output by construction.

use crate::pool::{stripe_bounds, ThreadPool};
use aidx_columnstore::ops::select::{
    filter_chunk_group, scan_chunk_where, scan_segment_where, Predicate, PruneStats, ZoneDecision,
};
use aidx_columnstore::position::PositionList;
use aidx_columnstore::segment::{ChunkGroups, ChunkSpan, Segment, ZoneMap};
use aidx_columnstore::types::{Key, RowId};

/// Positions of every value in `segment` satisfying `matches`, scanned
/// chunk-parallel across `pool` with per-chunk zone-map pruning.
///
/// Returns exactly what the serial `scan_segment_where` kernel returns —
/// same sorted positions, same pruning statistics — for every pool size. A
/// serial pool short-circuits into that kernel directly, so the default
/// (parallelism 1) configuration pays no striping or merge overhead at all.
pub fn parallel_scan_where(
    pool: &ThreadPool,
    segment: &Segment<Key>,
    zone_may_match: impl Fn(&ZoneMap<Key>) -> bool + Sync,
    matches: impl Fn(Key) -> bool + Sync,
) -> (PositionList, PruneStats) {
    if pool.is_serial() {
        return scan_segment_where(segment, zone_may_match, matches);
    }
    let chunks: Vec<_> = segment.chunks().collect();
    let stripes = stripe_bounds(chunks.len(), pool.threads());
    let per_stripe = pool.run(stripes.len(), |s| {
        let (begin, end) = stripes[s];
        let mut out: Vec<RowId> = Vec::new();
        let mut stats = PruneStats::default();
        for chunk in &chunks[begin..end] {
            scan_chunk_where(chunk, &zone_may_match, &matches, &mut out, &mut stats);
        }
        (out, stats)
    });
    let mut positions: Vec<RowId> =
        Vec::with_capacity(per_stripe.iter().map(|(p, _)| p.len()).sum());
    let mut stats = PruneStats::default();
    // stripe order == chunk order == ascending position order, so plain
    // concatenation keeps the list sorted and the stats fold with `+=`
    for (stripe_positions, stripe_stats) in per_stripe {
        positions.extend_from_slice(&stripe_positions);
        stats += stripe_stats;
    }
    (PositionList::from_sorted_vec(positions), stats)
}

/// Scan `segment` with a range/point [`Predicate`], chunk-parallel: the
/// parallel counterpart of `scan_select_segment`.
pub fn parallel_scan_select(
    pool: &ThreadPool,
    segment: &Segment<Key>,
    predicate: &Predicate,
) -> (PositionList, PruneStats) {
    parallel_scan_where(
        pool,
        segment,
        |zone| predicate.zone_may_match(zone),
        |v| predicate.matches(v),
    )
}

/// Retain only the candidate `positions` whose value in `segment` satisfies
/// `matches` — the residual, late-materialized filter step of a conjunctive
/// query over an ascending candidate list — fanned chunk-parallel across
/// `pool`.
///
/// The candidates are split at the chunk bounds
/// ([`Segment::group_by_chunk`]), filtered by [`parallel_filter_groups`]
/// with a zone decision that only ever prunes (a chunk whose zone map cannot
/// satisfy the predicate rejects its candidates unread), and returned as an
/// ascending list. Chunks holding no candidates are never visited and appear
/// in neither statistic; positions and statistics are byte-identical at any
/// worker count.
pub fn parallel_filter_positions(
    pool: &ThreadPool,
    segment: &Segment<Key>,
    positions: &PositionList,
    zone_may_match: impl Fn(&ZoneMap<Key>) -> bool + Sync,
    matches: impl Fn(Key) -> bool + Sync,
) -> (PositionList, PruneStats) {
    let groups = segment.group_by_chunk(positions.as_slice());
    let decide = |zone: &ZoneMap<Key>| ZoneDecision::pruning(zone_may_match(zone));
    let (kept, stats) = parallel_filter_groups(pool, segment, &groups, decide, matches);
    (kept.into_positions(), stats)
}

/// Filter row ids grouped by `segment`'s chunks, one group at a time:
/// `decide` reads each group's zone map first, so a chunk it proves empty
/// is dropped and a chunk it proves full is kept, both unread; every other
/// group runs the predicated per-chunk loop. The kernel is
/// [`aidx_columnstore::ops::select::filter_chunk_group`], shared with every
/// serial caller.
///
/// Groups fan out across the pool in contiguous stripes of chunks, and the
/// per-stripe survivors are appended in stripe order, so the returned
/// groups (still in ascending chunk order, each in candidate order) and the
/// statistics are byte-identical at every worker count. A serial pool, or a
/// single group, runs inline.
///
/// `groups` must have been grouped by `segment`'s chunk layout
/// ([`Segment::regroup`] carries them over when it differs).
pub fn parallel_filter_groups(
    pool: &ThreadPool,
    segment: &Segment<Key>,
    groups: &ChunkGroups<'_>,
    decide: impl Fn(&ZoneMap<Key>) -> ZoneDecision + Sync,
    matches: impl Fn(Key) -> bool + Sync,
) -> (ChunkGroups<'static>, PruneStats) {
    let filter = |spans: &[ChunkSpan]| {
        let candidates = spans.last().map_or(0, |l| l.end) - spans.first().map_or(0, |f| f.start);
        let mut kept = ChunkGroups::with_capacity(candidates);
        let mut stats = PruneStats::default();
        for span in spans {
            let chunk = segment.chunk(span.chunk);
            kept.push_group(span.chunk, |out| {
                filter_chunk_group(
                    &chunk,
                    groups.group(span),
                    &decide,
                    &matches,
                    out,
                    &mut stats,
                )
            });
        }
        (kept, stats)
    };
    let spans = groups.spans();
    if pool.is_serial() || spans.len() <= 1 {
        return filter(spans);
    }
    let stripes = stripe_bounds(spans.len(), pool.threads());
    let per_stripe = pool.run(stripes.len(), |s| {
        let (begin, end) = stripes[s];
        filter(&spans[begin..end])
    });
    let mut kept = ChunkGroups::with_capacity(per_stripe.iter().map(|(k, _)| k.len()).sum());
    let mut stats = PruneStats::default();
    for (stripe_kept, stripe_stats) in per_stripe {
        kept.append(stripe_kept);
        stats += stripe_stats;
    }
    (kept, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_columnstore::ops::select::scan_select_segment;

    fn segment(n: usize, capacity: usize) -> Segment<Key> {
        Segment::from_vec_with_capacity(
            (0..n as Key).map(|i| (i * 7919) % n as Key).collect(),
            capacity,
        )
    }

    #[test]
    fn parallel_scan_matches_serial_scan_exactly() {
        let seg = segment(10_000, 64);
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            for (low, high) in [(0, 500), (2_000, 9_000), (9_999, 10_000), (50_000, 60_000)] {
                let predicate = Predicate::range(low, high);
                let (serial_pos, serial_stats) = scan_select_segment(&seg, &predicate);
                let (par_pos, par_stats) = parallel_scan_select(&pool, &seg, &predicate);
                assert_eq!(par_pos, serial_pos, "{threads} threads [{low},{high})");
                assert_eq!(par_stats, serial_stats, "{threads} threads [{low},{high})");
            }
        }
    }

    #[test]
    fn parallel_scan_prunes_with_zone_maps() {
        // sorted data => disjoint chunk ranges => most chunks prune
        let seg = Segment::from_vec_with_capacity((0..10_000).collect(), 100);
        let pool = ThreadPool::new(4);
        let (positions, stats) = parallel_scan_select(&pool, &seg, &Predicate::range(4_250, 4_340));
        assert_eq!(positions.len(), 90);
        assert_eq!(stats.chunks_scanned, 2);
        assert_eq!(stats.chunks_pruned, 98);
    }

    #[test]
    fn parallel_residual_filter_matches_the_serial_kernel_exactly() {
        let seg = segment(10_000, 64);
        // candidates: every third position (an upstream driver's output)
        let candidates =
            PositionList::from_sorted_vec((0..10_000).step_by(3).map(|p| p as RowId).collect());
        let predicate = Predicate::range(2_000, 7_000);
        let serial_pool = ThreadPool::new(1);
        let (serial_pos, serial_stats) = parallel_filter_positions(
            &serial_pool,
            &seg,
            &candidates,
            |zone| predicate.zone_may_match(zone),
            |v| predicate.matches(v),
        );
        // the serial result is the ground truth: candidates whose value
        // satisfies the predicate, in order
        let expected: Vec<RowId> = candidates
            .iter()
            .filter(|&p| predicate.matches(seg.value(p as usize)))
            .collect();
        assert_eq!(serial_pos.as_slice(), expected.as_slice());
        for threads in [2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let (par_pos, par_stats) = parallel_filter_positions(
                &pool,
                &seg,
                &candidates,
                |zone| predicate.zone_may_match(zone),
                |v| predicate.matches(v),
            );
            assert_eq!(par_pos, serial_pos, "{threads} threads");
            assert_eq!(par_stats, serial_stats, "{threads} threads");
        }
    }

    #[test]
    fn grouped_filter_is_identical_at_every_worker_count() {
        // ascending values in chunks of 64: a range covers some chunks,
        // misses most and straddles two
        let seg = Segment::from_vec_with_capacity((0..10_000).collect(), 64);
        let produced: Vec<RowId> = (0..10_000u32)
            .map(|i| i * 7_919 % 10_000)
            .step_by(3)
            .collect();
        let groups = seg.group_by_chunk(&produced);
        let (low, high) = (2_030, 4_100);
        let decide = |zone: &ZoneMap<Key>| match (zone.min(), zone.max()) {
            (Some(min), Some(max)) if low <= min && max < high => ZoneDecision::AllMatch,
            (Some(min), Some(max)) if max < low || min >= high => ZoneDecision::NoneMatch,
            _ => ZoneDecision::Undecided,
        };
        let matches = |v: Key| (low..high).contains(&v);
        let (serial, serial_stats) =
            parallel_filter_groups(&ThreadPool::new(1), &seg, &groups, decide, matches);
        let mut expected: Vec<RowId> = produced
            .iter()
            .copied()
            .filter(|&p| matches(seg.value(p as usize)))
            .collect();
        expected.sort_unstable();
        assert_eq!(
            serial.clone().into_positions().as_slice(),
            expected.as_slice()
        );
        assert_eq!(serial_stats.chunks_scanned, 2, "the two straddling chunks");
        assert_eq!(serial_stats.chunks_total(), groups.spans().len());
        for threads in [2, 4, 8] {
            let (kept, stats) =
                parallel_filter_groups(&ThreadPool::new(threads), &seg, &groups, decide, matches);
            assert_eq!(kept, serial, "{threads} threads");
            assert_eq!(stats, serial_stats, "{threads} threads");
        }
    }

    #[test]
    fn residual_filter_skips_chunks_without_candidates() {
        // sorted data, chunks of 100; candidates only in chunks 2 and 7
        let seg = Segment::from_vec_with_capacity((0..1_000).collect(), 100);
        let candidates = PositionList::from_sorted_vec(vec![250, 260, 720]);
        let pool = ThreadPool::new(4);
        let (positions, stats) = parallel_filter_positions(
            &pool,
            &seg,
            &candidates,
            |zone| zone.may_contain_range(0, 1_000),
            |v| v % 2 == 0,
        );
        assert_eq!(positions.as_slice(), &[250, 260, 720]);
        assert_eq!(stats.chunks_scanned, 2, "only populated chunks counted");
        assert_eq!(stats.chunks_pruned, 0);
        // empty candidate lists touch nothing
        let (positions, stats) =
            parallel_filter_positions(&pool, &seg, &PositionList::new(), |_| true, |_| true);
        assert!(positions.is_empty());
        assert_eq!(stats.chunks_total(), 0);
    }

    #[test]
    fn empty_and_tail_only_segments() {
        let pool = ThreadPool::new(4);
        let empty: Segment<Key> = Segment::new();
        let (positions, stats) = parallel_scan_select(&pool, &empty, &Predicate::range(0, 10));
        assert!(positions.is_empty());
        assert_eq!(stats.chunks_total(), 0);
        let tail_only = Segment::from_vec_with_capacity(vec![5, 1, 9], 100);
        let (positions, _) = parallel_scan_select(&pool, &tail_only, &Predicate::range(0, 6));
        assert_eq!(positions.as_slice(), &[0, 1]);
    }
}
