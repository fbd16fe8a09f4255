//! The adaptive query execution engine behind [`crate::Session`].
//!
//! Executing a [`Query`] is a three-step pipeline, and the first step is
//! where adaptive indexing lives:
//!
//! 1. **Plan** — of the query's conjunctive predicates, pick the *driver*:
//!    the predicate with the smallest estimated *selectivity* — its key
//!    width as a fraction of its column's zone-map domain, so 50 000 keys
//!    of a million-key column (5 %) beat 300 keys of a thousand-key column
//!    (30 %) — breaking ties in favor of columns that already have an
//!    adaptive index and then query order. A single-predicate query has
//!    nothing to rank and estimates nothing. The paper's core claim is that
//!    queries *are* the index-building mechanism, so exactly one predicate
//!    per query is routed through the [`IndexManager`] and cracks (or
//!    merges, or sorts) its column a little further.
//! 2. **Drive** — answer the driver predicate through the adaptive index of
//!    its column, creating the index lazily on first touch. The index
//!    answers with the row ids of its piece **as they stand** — distinct,
//!    in piece order — and the drive step passes them on untouched: an
//!    `InSet` driver concatenates its per-key answers, and nobody sorts.
//!    The column has this one index at every worker count; the pool only
//!    fans out the scans and filters around it.
//! 3. **Filter** — apply every remaining predicate as a residual,
//!    late-materialized filter over the qualifying positions, chunk by
//!    chunk, and compute the optional aggregate. The driver's answer is
//!    grouped by the chunk holding each row id
//!    ([`Segment::group_by_chunk`]: one counting pass, one scatter — no
//!    sort). The residuals whose zone maps decide the largest share of
//!    their column's chunks run first, then the more selective by
//!    estimate, then query order. Each residual reads a chunk's zone map
//!    before its values: a chunk that cannot match drops its group unread,
//!    a chunk that matches throughout keeps it unread, and only the rest
//!    run the predicated filter loop. The survivors are ordered last, each
//!    group in place, into the ascending [`PositionList`]. Aggregates fold
//!    through one cursor in the order the ids are held and never order;
//!    `COUNT`, the hotness credit and the telemetry counters need a length,
//!    not an order.
//!
//! A selection no residual filtered travels into the [`QueryResult`] as
//! produced; the result orders it on the first `positions()` / `rows()`
//! read, and `row_count()` never does. When nothing reads the driver's row
//! ids while the query runs — its one predicate is a `Range` or `Point`, and
//! no aggregate but `COUNT` folds them — the drive step only counts: an
//! index that counts from its cuts (cracking) copies nothing, and the
//! result holds the answer as a view — the count, the bounds, the
//! snapshot's epoch and a weak handle on the column's index entry — until
//! its first ordered read copies the row ids from between the cuts. A
//! converged single-predicate count therefore costs two cut lookups. An
//! answer of fewer than 4 096 ids (`EAGER_COPY_BELOW`) is copied by the
//! probe at once, as is every answer of another strategy or another query
//! shape.
//!
//! The engine operates on a point-in-time snapshot (`Arc<Table>`) taken by
//! the session, so concurrent writers never invalidate a running query.

use crate::error::{AidxError, AidxResult};
use crate::manager::{ColumnId, Counted, IndexManager, ProbeTrace};
use crate::query::{Aggregation, Predicate, Query};
use crate::result::{Answer, DeferredRange, QueryResult, Selection};
use crate::strategy::StrategyKind;
use crate::telemetry::EngineTelemetry;
use aidx_columnstore::error::ColumnStoreError;
use aidx_columnstore::ops::aggregate;
use aidx_columnstore::ops::select::{PruneStats, ZoneDecision};
use aidx_columnstore::position::PositionList;
use aidx_columnstore::segment::{ChunkGroups, Segment};
use aidx_columnstore::table::Table;
use aidx_columnstore::types::{DataType, Key, RowId, Value};
use aidx_telemetry::{SpanEvent, TraceRecorder};
use std::sync::Arc;

/// How the planner decided to execute a query — the facade's lightweight
/// `EXPLAIN`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Column whose adaptive index drives the selection (`None` when the
    /// query has no predicates, or the driver bypasses the index for an
    /// edge case the index cannot express).
    pub driver_column: Option<String>,
    /// Columns filtered as residual, late-materialized predicates, in the
    /// order they run: the residuals whose zone maps decide the largest
    /// share of their column's chunks first, then the more selective by
    /// estimate, then query order.
    pub residual_columns: Vec<String>,
}

/// Validated view of one predicate: its position in the query and the
/// chunked key segment of its column.
struct BoundPredicate<'a> {
    predicate: &'a Predicate,
    segment: &'a Segment<Key>,
    /// Estimated fraction of the column's key domain the predicate admits
    /// (see [`estimated_selectivity`]); 1.0 when the query has nothing to
    /// rank.
    selectivity: f64,
    /// The column has an index (`false` when the query has nothing to
    /// rank).
    indexed: bool,
}

/// Resolve, validate and order the predicates of `query` against `table`.
///
/// Every predicate column must exist and be `int64` (predicates compare
/// [`Key`]s); ranges must satisfy `low <= high`.
fn bind_predicates<'a>(
    table: &'a Table,
    manager: &IndexManager,
    query: &'a Query,
) -> AidxResult<Vec<BoundPredicate<'a>>> {
    let mut bound = Vec::with_capacity(query.predicates().len());
    let ranked = query.predicates().len() > 1;
    for predicate in query.predicates() {
        if let Predicate::Range { column, low, high } = predicate {
            if low > high {
                return Err(AidxError::InvalidRange {
                    column: column.to_string(),
                    low: *low,
                    high: *high,
                });
            }
        }
        let column = table.column(predicate.column())?;
        let segment = column
            .as_i64()
            .ok_or_else(|| ColumnStoreError::TypeMismatch {
                column: predicate.column().to_owned(),
                expected: DataType::Int64,
                found: Some(column.data_type()),
            })?;
        // only a ranking breaks ties on it: a single predicate costs no
        // registry lookup here, just the one its probe makes
        let (selectivity, indexed) = match ranked {
            true => (
                estimated_selectivity(segment, predicate),
                manager.has_index(&ColumnId::new(query.table_arc(), predicate.column_arc())),
            ),
            false => (1.0, false),
        };
        bound.push(BoundPredicate {
            predicate,
            segment,
            selectivity,
            indexed,
        });
    }
    Ok(bound)
}

/// Index of the driver predicate within `bound`: smallest estimated
/// selectivity wins; ties prefer already-indexed columns, then query order.
fn choose_driver(bound: &[BoundPredicate<'_>]) -> Option<usize> {
    (0..bound.len()).min_by(|&a, &b| {
        let (a, b) = (&bound[a], &bound[b]);
        a.selectivity
            .total_cmp(&b.selectivity)
            .then_with(|| b.indexed.cmp(&a.indexed))
    })
}

/// Answer the driver predicate through the adaptive index of its column.
///
/// Before any index work, the column's zone maps are consulted: when **no**
/// chunk can satisfy the routed predicate (an out-of-domain query), the
/// answer is provably empty and the adaptive index is neither touched nor
/// created — the query pays `O(#chunks)` instead of an `O(n)` first-touch
/// index build. The pruned chunks are recorded in `prune`. When the index
/// does answer, its internal work is not chunk-granular and contributes
/// nothing to the statistics.
///
/// Index answers are passed on as produced (distinct row ids, piece order);
/// only the scan fallbacks, which emit positions in order, come back
/// [`Selection::Ordered`]. With `defer` — nothing reads the row ids while
/// the query runs — a `Range` or `Point` driver only counts: an index that
/// counts from its cuts comes back [`Answer::Counted`] (unless the answer
/// is small enough to copy at once), and its row ids are copied by the
/// result's first ordered read, if any.
#[allow(clippy::too_many_arguments)]
fn drive(
    manager: &IndexManager,
    column_id: ColumnId,
    segment: &Segment<Key>,
    epoch: u64,
    predicate: &Predicate,
    strategy: StrategyKind,
    defer: bool,
    prune: &mut PruneStats,
    mut probe: Option<&mut ProbeTrace>,
) -> Answer {
    // short-circuit at the first overlapping chunk: the common in-domain
    // query pays O(1)-ish here, and only a provably empty query walks (and
    // records) every zone map
    let mut pruned_chunks = 0usize;
    let mut any_overlap = false;
    for chunk in segment.chunks() {
        if predicate.zone_may_match(&chunk.zone) {
            any_overlap = true;
            break;
        }
        pruned_chunks += 1;
    }
    if !any_overlap {
        prune.chunks_pruned += pruned_chunks;
        return Selection::Ordered(PositionList::new()).into();
    }
    let probe_index = |low: Key, high: Key, probe: Option<&mut ProbeTrace>| {
        manager.query_range_probed(&column_id, segment, epoch, low, high, strategy, probe)
    };
    let answer = |low: Key, high: Key, probe: Option<&mut ProbeTrace>| {
        if !defer {
            return Selection::AsProduced(probe_index(low, high, probe).into_row_ids()).into();
        }
        match manager.count_range_probed(&column_id, segment, epoch, low, high, strategy, probe) {
            Counted::Cut { count, index } => Answer::Counted(DeferredRange {
                count,
                column: predicate.column_arc(),
                low,
                high,
                epoch,
                index,
            }),
            Counted::Rows(output) => Selection::AsProduced(output.into_row_ids()).into(),
        }
    };
    // `Key::MAX` cannot be the low end of a half-open range; that one key is
    // answered with a direct (zone-pruned) scan of the snapshot.
    let mut scan_key_max = || {
        let (hits, stats) = scan_segment(manager, segment, &Predicate::point("", Key::MAX));
        prune.merge(stats);
        hits
    };
    match predicate {
        Predicate::Range { low, high, .. } => {
            if low >= high {
                Selection::Ordered(PositionList::new()).into()
            } else {
                answer(*low, *high, probe)
            }
        }
        Predicate::Point { key, .. } => match key.checked_add(1) {
            Some(next) => answer(*key, next, probe),
            None => Selection::Ordered(scan_key_max()).into(),
        },
        Predicate::InSet { keys: set, .. } => {
            // distinct keys have disjoint answers, so concatenating them
            // keeps the row ids distinct; the keys ascend, and a variant
            // built by hand may repeat one, which is answered once
            let mut row_ids = Vec::new();
            let mut previous = None;
            for &key in set.iter() {
                if previous.replace(key) == Some(key) {
                    continue;
                }
                match key.checked_add(1) {
                    Some(next) => row_ids
                        .extend_from_slice(probe_index(key, next, probe.as_deref_mut()).row_ids()),
                    None => row_ids.extend_from_slice(scan_key_max().as_slice()),
                }
            }
            Selection::AsProduced(row_ids).into()
        }
    }
}

/// Positions of every value in `segment` satisfying `predicate`, scanning
/// chunk-at-a-time and skipping chunks whose zone map proves them empty.
/// Chunks fan out across the manager's fork/join pool (the scan falls back
/// to the serial shared kernel inline when the pool is serial, and produces
/// byte-identical positions and statistics either way).
fn scan_segment(
    manager: &IndexManager,
    segment: &Segment<Key>,
    predicate: &Predicate,
) -> (PositionList, PruneStats) {
    aidx_parallel::parallel_scan_where(
        manager.pool(),
        segment,
        |zone| predicate.zone_may_match(zone),
        |v| predicate.matches(v),
    )
}

/// Order in which the residual predicates (every bound predicate but the
/// driver) run: the ones whose zone maps decide the largest share of their
/// column's chunks first — those drop or keep whole chunks unread, so the
/// residuals that must read values see fewer candidates — then the more
/// selective by estimate, then query order. The shares cost one walk over
/// the chunk headers per residual, taken only when there are at least two
/// to order. `plan_on_snapshot` reports this order and execution runs it.
fn residual_order(bound: &[BoundPredicate<'_>], driver: Option<usize>) -> Vec<usize> {
    let residuals: Vec<usize> = (0..bound.len()).filter(|&i| Some(i) != driver).collect();
    if residuals.len() < 2 {
        return residuals;
    }
    let mut keyed: Vec<(f64, usize)> = residuals
        .into_iter()
        .map(|i| (undecided_share(bound[i].segment, bound[i].predicate), i))
        .collect();
    // stable: equal keys keep query order
    keyed.sort_by(|(a_share, a), (b_share, b)| {
        a_share
            .total_cmp(b_share)
            .then_with(|| bound[*a].selectivity.total_cmp(&bound[*b].selectivity))
    });
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Fraction of `segment`'s chunks whose zone map decides `predicate`
/// neither way (0.0 for a segment without chunks).
fn undecided_share(segment: &Segment<Key>, predicate: &Predicate) -> f64 {
    let undecided = segment
        .chunks()
        .filter(|chunk| predicate.zone_decision(&chunk.zone) == ZoneDecision::Undecided)
        .count();
    undecided as f64 / segment.chunk_count().max(1) as f64
}

/// Apply the residual predicates, in order, to a non-empty selection: the
/// residual filter step. The selection is grouped by chunk once and each
/// residual filters group by group ([`aidx_parallel::parallel_filter_groups`]
/// on the manager's pool — byte-identical positions and statistics at every
/// worker count); a residual over a column cut into different chunks
/// regroups first. Once nothing survives, the remaining residuals are
/// skipped. The survivors come back ordered, group by group.
fn filter_residuals(
    manager: &IndexManager,
    selection: &Selection,
    residuals: &[&BoundPredicate<'_>],
    prune: &mut PruneStats,
    mut trace: Option<&mut TraceRecorder>,
) -> PositionList {
    let mut grouped: Option<(ChunkGroups<'_>, &Segment<Key>)> = None;
    for residual in residuals {
        let segment = residual.segment;
        let groups = match grouped.take() {
            None => segment.group_by_chunk(selection.row_ids()),
            Some((groups, grouped_by)) => segment.regroup(groups, grouped_by),
        };
        let predicate = residual.predicate;
        let (kept, stats) = aidx_parallel::parallel_filter_groups(
            manager.pool(),
            segment,
            &groups,
            |zone| predicate.zone_decision(zone),
            |v| predicate.matches(v),
        );
        *prune += stats;
        if let Some(recorder) = trace.as_deref_mut() {
            recorder.record(SpanEvent::ResidualFilter {
                column: predicate.column().to_owned(),
                candidates_in: groups.len() as u64,
                rows_out: kept.len() as u64,
            });
        }
        let emptied = kept.is_empty();
        grouped = Some((kept, segment));
        if emptied {
            break;
        }
    }
    grouped.map_or_else(PositionList::new, |(groups, _)| groups.into_positions())
}

/// Compute the requested aggregate over the selected rows. `COUNT` reads the
/// selection's length; every other aggregate folds the column's values at
/// the selected rows through one cursor, in the order the selection holds
/// them, and leaves the selection as it is: nothing here orders.
///
/// `COUNT` of an empty set is `Some(Int64(0))`; `SUM`, `MIN`, `MAX` and
/// `AVG` of an empty set are `None` (never a sentinel or a garbage value).
/// A `SUM` that does not fit `i64` is a typed [`AidxError::AggregateOverflow`].
fn compute_aggregate(
    table: &Table,
    selection: &Selection,
    aggregation: Aggregation,
    column_name: &str,
) -> AidxResult<Option<Value>> {
    let column = table.column(column_name)?;
    if aggregation == Aggregation::Count {
        return Ok(Some(Value::Int64(selection.len() as i64)));
    }
    if column.as_i64().is_none() {
        return Err(ColumnStoreError::TypeMismatch {
            column: column_name.to_owned(),
            expected: DataType::Int64,
            found: Some(column.data_type()),
        }
        .into());
    }
    let agg = aggregate::aggregate_row_ids(column, selection.row_ids());
    if agg.count == 0 {
        return Ok(None);
    }
    Ok(match aggregation {
        Aggregation::Count => unreachable!("handled above"),
        Aggregation::Sum => Some(Value::Int64(i64::try_from(agg.sum).map_err(|_| {
            AidxError::AggregateOverflow {
                column: column_name.to_owned(),
            }
        })?)),
        Aggregation::Min => agg.min.map(Value::Int64),
        Aggregation::Max => agg.max.map(Value::Int64),
        Aggregation::Avg => agg.avg().map(Value::Float64),
    })
}

/// Resolve the projected column names to schema indexes.
fn resolve_projections(table: &Table, query: &Query) -> AidxResult<Vec<usize>> {
    query
        .projections()
        .iter()
        .map(|name| {
            table.schema().index_of(name).ok_or_else(|| {
                ColumnStoreError::NotFound {
                    kind: "column",
                    name: name.to_string(),
                }
                .into()
            })
        })
        .collect()
}

/// Plan `query` against a snapshot without executing it.
pub(crate) fn plan_on_snapshot(
    snapshot: &Table,
    manager: &IndexManager,
    query: &Query,
) -> AidxResult<QueryPlan> {
    resolve_projections(snapshot, query)?;
    let bound = bind_predicates(snapshot, manager, query)?;
    let driver = choose_driver(&bound);
    Ok(QueryPlan {
        driver_column: driver.map(|i| bound[i].predicate.column().to_owned()),
        residual_columns: residual_order(&bound, driver)
            .into_iter()
            .map(|i| bound[i].predicate.column().to_owned())
            .collect(),
    })
}

/// Fraction of a segment's key domain a predicate selects, estimated from
/// the predicate's key width and the segment's zone-map min/max (a walk
/// over the chunk headers, no values read). Degenerate domains (empty,
/// single key, unknown) estimate 1.0. Computed by the planner when a query
/// has several predicates to rank, and for the plan span of a traced query —
/// never for an untraced single-predicate query.
fn estimated_selectivity(segment: &Segment<Key>, predicate: &Predicate) -> f64 {
    let (Some(lo), Some(hi)) = (segment.min(), segment.max()) else {
        return 1.0;
    };
    let domain = (hi as i128 - lo as i128 + 1) as f64;
    if domain <= 1.0 {
        return 1.0;
    }
    (predicate.estimated_width() as f64 / domain).clamp(0.0, 1.0)
}

/// Execute `query` against a table snapshot, routing the driver predicate
/// through `manager` (indexes are created lazily with `strategy`).
///
/// When `hotness` is given, the query's chunk traffic is credited to its
/// driver column afterwards — the feed for the maintenance subsystem's
/// "hot column first" compaction and index-refresh ordering.
///
/// `telemetry` feeds the engine-wide metrics registry (the disabled path
/// pays one relaxed atomic load and nothing else); `trace` collects this
/// query's lifecycle as typed span events for
/// [`crate::Session::explain_profile`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_on_snapshot(
    snapshot: Arc<Table>,
    epoch: u64,
    manager: &IndexManager,
    query: &Query,
    strategy: StrategyKind,
    hotness: Option<&crate::maintenance::Hotness>,
    telemetry: Option<&EngineTelemetry>,
    mut trace: Option<&mut TraceRecorder>,
) -> AidxResult<QueryResult> {
    let metrics = telemetry.filter(|t| t.enabled());
    let clock = metrics.map(|_| std::time::Instant::now());

    let projected = resolve_projections(&snapshot, query)?;
    if let Some((_, column)) = query.aggregation() {
        // resolve early so the error surfaces before any index work
        snapshot.column(column)?;
    }
    let bound = bind_predicates(&snapshot, manager, query)?;
    let driver = choose_driver(&bound);

    if let Some(recorder) = trace.as_deref_mut() {
        recorder.record(SpanEvent::Plan {
            driver_column: driver.map(|i| bound[i].predicate.column().to_owned()),
            estimated_selectivity: driver
                .map(|i| estimated_selectivity(bound[i].segment, bound[i].predicate))
                .unwrap_or(1.0),
            residual_predicates: (bound.len() - usize::from(driver.is_some())) as u64,
        });
    }

    // refinement measurements are collected whenever anyone will read them:
    // a trace recorder, or the enabled metrics registry
    let mut probe = (metrics.is_some() || trace.is_some()).then(ProbeTrace::default);
    let mut prune = PruneStats::default();
    // nothing reads the driver's row ids while the query runs: no residual
    // filters them and no aggregate but COUNT folds them
    let defer =
        bound.len() == 1 && matches!(query.aggregation(), None | Some((Aggregation::Count, _)));
    let mut answer = match driver {
        None => {
            Selection::Ordered(PositionList::from_range(0, snapshot.row_count() as RowId)).into()
        }
        Some(i) => {
            let column_id = ColumnId::new(query.table_arc(), bound[i].predicate.column_arc());
            drive(
                manager,
                column_id,
                bound[i].segment,
                epoch,
                bound[i].predicate,
                strategy,
                defer,
                &mut prune,
                probe.as_mut(),
            )
        }
    };

    if let (Some(recorder), Some(i)) = (trace.as_deref_mut(), driver) {
        let p = probe.as_ref().expect("probe allocated when tracing");
        if p.probes > 0 {
            recorder.record(SpanEvent::IndexProbe {
                column: bound[i].predicate.column().to_owned(),
                strategy: p.strategy.to_owned(),
                probes: p.probes,
                pieces_before: p.pieces_before,
                pieces_after: p.pieces_after,
                effort_delta: p.effort_delta,
                rebuilt: p.rebuilt,
                lagging_scan: p.lagging_scan,
            });
        }
        recorder.record(SpanEvent::ZoneMapPrune {
            chunks_scanned: prune.chunks_scanned as u64,
            chunks_pruned: prune.chunks_pruned as u64,
        });
    }

    let residuals: Vec<&BoundPredicate<'_>> = residual_order(&bound, driver)
        .into_iter()
        .map(|i| &bound[i])
        .collect();
    if !residuals.is_empty() && !answer.is_empty() {
        let survivors = filter_residuals(
            manager,
            &answer.into_selection(&snapshot),
            &residuals,
            &mut prune,
            trace.as_deref_mut(),
        );
        answer = Selection::Ordered(survivors).into();
    }

    if let (Some(hotness), Some(i)) = (hotness, driver) {
        let column_id = ColumnId::new(query.table_arc(), bound[i].predicate.column_arc());
        // index-answered queries do no chunk-granular work, so floor the
        // credit at 1: every query heats its driver column, and zone-map /
        // residual chunk traffic weights it further
        hotness.observe(&column_id, (prune.chunks_total() as u64).max(1));
    }

    let aggregate_value = match query.aggregation() {
        None => None,
        // the answer's length: a counted answer stays uncopied
        Some((Aggregation::Count, _)) => Some(Value::Int64(answer.len() as i64)),
        Some((aggregation, column)) => {
            let selection = answer.into_selection(&snapshot);
            let value = compute_aggregate(&snapshot, &selection, aggregation, column)?;
            answer = selection.into();
            value
        }
    };

    if let Some(recorder) = trace {
        recorder.record(SpanEvent::Materialize {
            rows: answer.len() as u64,
            aggregated: aggregate_value.is_some(),
        });
    }
    if let Some(t) = metrics {
        t.queries_served.incr();
        if let Some(started) = clock {
            t.query_ns.record_duration(started.elapsed());
        }
        t.chunks_scanned.add(prune.chunks_scanned as u64);
        t.chunks_pruned.add(prune.chunks_pruned as u64);
        t.rows_materialized.add(answer.len() as u64);
        if let Some(p) = &probe {
            t.refinement_effort.add(p.effort_delta);
            if p.rebuilt {
                t.index_rebuilds.incr();
            }
            if p.lagging_scan {
                t.lagging_scans.incr();
            }
        }
    }

    Ok(QueryResult::new(
        snapshot,
        answer,
        projected,
        aggregate_value,
        prune,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_columnstore::column::Column;

    fn snapshot() -> Arc<Table> {
        // k: 0..100 permuted, r: k % 5, label: strings
        let keys: Vec<Key> = (0..100).map(|i| (i * 37) % 100).collect();
        let r: Vec<Key> = keys.iter().map(|&k| k % 5).collect();
        let labels: Vec<String> = keys.iter().map(|k| format!("row-{k}")).collect();
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        Arc::new(
            Table::from_columns(vec![
                ("k", Column::from_i64(keys)),
                ("r", Column::from_i64(r)),
                ("label", Column::from_strs(&label_refs)),
            ])
            .unwrap(),
        )
    }

    fn run(query: &Query) -> AidxResult<QueryResult> {
        let manager = IndexManager::new(StrategyKind::Cracking);
        execute_on_snapshot(
            snapshot(),
            1,
            &manager,
            query,
            StrategyKind::Cracking,
            None,
            None,
            None,
        )
    }

    #[test]
    fn planner_picks_the_most_selective_predicate() {
        let manager = IndexManager::new(StrategyKind::Cracking);
        let query = Query::table("t").range("k", 0, 50).point("r", 3);
        let plan = plan_on_snapshot(&snapshot(), &manager, &query).unwrap();
        assert_eq!(plan.driver_column.as_deref(), Some("r"));
        assert_eq!(plan.residual_columns, vec!["k".to_owned()]);
    }

    #[test]
    fn planner_ranks_by_selectivity_not_by_key_width() {
        // wide: a million-key domain; narrow: a thousand-key domain
        let wide: Vec<Key> = (0..2000).map(|i| (i * 7919) % 2000 * 500).collect();
        let narrow: Vec<Key> = (0..2000).map(|i| i % 1000).collect();
        let table = Table::from_columns(vec![
            ("wide", Column::from_i64(wide)),
            ("narrow", Column::from_i64(narrow)),
        ])
        .unwrap();
        let manager = IndexManager::new(StrategyKind::Cracking);
        // 50 000 keys of ~1 000 000 is 5 % of `wide`; 300 keys of 1 000 is
        // 30 % of `narrow` — the absolutely wider range is the selective one
        for query in [
            Query::table("t")
                .range("wide", 100_000, 150_000)
                .range("narrow", 200, 500),
            Query::table("t")
                .range("narrow", 200, 500)
                .range("wide", 100_000, 150_000),
        ] {
            let plan = plan_on_snapshot(&table, &manager, &query).unwrap();
            assert_eq!(plan.driver_column.as_deref(), Some("wide"), "{query:?}");
            assert_eq!(plan.residual_columns, vec!["narrow".to_owned()]);
        }
    }

    #[test]
    fn planner_prefers_indexed_columns_on_ties() {
        let manager = IndexManager::new(StrategyKind::Cracking);
        let table = snapshot();
        // a fifth of either domain (k: 0..100, r: 0..5), but "r" is already
        // indexed
        let query = Query::table("t").range("k", 0, 20).range("r", 0, 1);
        let plan = plan_on_snapshot(&table, &manager, &query).unwrap();
        assert_eq!(plan.driver_column.as_deref(), Some("k"), "query order");
        let keys = table.column("r").unwrap().as_i64().unwrap().to_vec();
        let _ = manager.query_range(&ColumnId::new("t", "r"), &keys, 0, 2);
        let plan = plan_on_snapshot(&table, &manager, &query).unwrap();
        assert_eq!(plan.driver_column.as_deref(), Some("r"));
    }

    #[test]
    fn only_large_answers_nobody_reads_while_executing_are_deferred() {
        // k: a permutation of 0..10 000, r: k % 2
        let n: Key = 10_000;
        let k: Vec<Key> = (0..n).map(|i| i * 7_919 % n).collect();
        let r: Vec<Key> = k.iter().map(|&v| v % 2).collect();
        let table = Arc::new(
            Table::from_columns(vec![
                ("k", Column::from_i64(k.clone())),
                ("r", Column::from_i64(r.clone())),
            ])
            .unwrap(),
        );
        let range = || Query::table("t").range("k", 1_000, 6_000);
        let count = range().aggregate(Aggregation::Count, "r");
        let sum = range().aggregate(Aggregation::Sum, "r");
        for (strategy, query, deferred) in [
            (StrategyKind::Cracking, range(), true),
            (
                StrategyKind::Cracking,
                Query::table("t").point("r", 1),
                true,
            ),
            (StrategyKind::Cracking, count, true),
            (StrategyKind::UpdatableCracking, range(), true),
            // fewer ids than `EAGER_COPY_BELOW`: copied by the probe
            (
                StrategyKind::Cracking,
                Query::table("t").range("k", 10, 30),
                false,
            ),
            (StrategyKind::Cracking, sum, false),
            (StrategyKind::Cracking, range().point("r", 1), false),
            (
                StrategyKind::Cracking,
                Query::table("t").in_set("r", [0, 1]),
                false,
            ),
            (StrategyKind::FullSort, range(), false),
        ] {
            let manager = IndexManager::new(strategy);
            let result = execute_on_snapshot(
                Arc::clone(&table),
                1,
                &manager,
                &query,
                strategy,
                None,
                None,
                None,
            )
            .unwrap();
            assert_eq!(result.is_deferred(), deferred, "{strategy:?} {query:?}");
            let expected: Vec<RowId> = (0..k.len())
                .filter(|&i| {
                    let value = |p: &Predicate| if p.column() == "k" { k[i] } else { r[i] };
                    query.predicates().iter().all(|p| p.matches(value(p)))
                })
                .map(|i| i as RowId)
                .collect();
            assert_eq!(result.row_count(), expected.len());
            assert_eq!(result.positions().as_slice(), expected.as_slice());
            assert!(!result.is_deferred(), "read once");
        }
    }

    #[test]
    fn conjunction_matches_scan_reference() {
        let query = Query::table("t").range("k", 10, 60).in_set("r", [1, 3]);
        let result = run(&query).unwrap();
        let table = snapshot();
        let k = table.column("k").unwrap().as_i64().unwrap().to_vec();
        let r = table.column("r").unwrap().as_i64().unwrap().to_vec();
        let expected: Vec<RowId> = (0..k.len())
            .filter(|&i| (10..60).contains(&k[i]) && [1, 3].contains(&r[i]))
            .map(|i| i as RowId)
            .collect();
        assert_eq!(result.positions().as_slice(), expected.as_slice());
    }

    #[test]
    fn no_predicates_selects_every_row() {
        let result = run(&Query::table("t")).unwrap();
        assert_eq!(result.row_count(), 100);
    }

    #[test]
    fn empty_range_is_empty_not_an_error() {
        let result = run(&Query::table("t").range("k", 50, 50)).unwrap();
        assert!(result.is_empty());
    }

    #[test]
    fn inverted_range_is_a_typed_error() {
        let err = run(&Query::table("t").range("k", 60, 50)).unwrap_err();
        assert!(matches!(err, AidxError::InvalidRange { .. }));
    }

    #[test]
    fn predicates_on_non_int_columns_are_typed_errors() {
        let err = run(&Query::table("t").range("label", 0, 5)).unwrap_err();
        assert!(matches!(
            err,
            AidxError::Store(ColumnStoreError::TypeMismatch { .. })
        ));
        let err = run(&Query::table("t").range("nope", 0, 5)).unwrap_err();
        assert!(matches!(
            err,
            AidxError::Store(ColumnStoreError::NotFound { .. })
        ));
    }

    #[test]
    fn point_at_key_max_falls_back_to_a_scan() {
        let keys: Vec<Key> = vec![Key::MAX, 5, Key::MAX];
        let table = Arc::new(Table::from_columns(vec![("k", Column::from_i64(keys))]).unwrap());
        let manager = IndexManager::new(StrategyKind::Cracking);
        let query = Query::table("t").point("k", Key::MAX);
        let result = execute_on_snapshot(
            table,
            1,
            &manager,
            &query,
            StrategyKind::Cracking,
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(result.positions().as_slice(), &[0, 2]);
    }

    #[test]
    fn every_driver_shape_registers_the_snapshot_epoch() {
        // regression: the point/in-set driver arms must route through the
        // epoch-aware manager entry point, not the epoch-0 standalone one —
        // otherwise an insert (or a same-size re-created table) under the
        // real epoch would not line up with the registered index
        for query in [
            Query::table("t").point("k", 7),
            Query::table("t").in_set("k", [7, 9]),
            Query::table("t").range("k", 7, 10),
        ] {
            let keys: Vec<Key> = (0..100).collect();
            let table = Arc::new(Table::from_columns(vec![("k", Column::from_i64(keys))]).unwrap());
            let manager = IndexManager::new(StrategyKind::UpdatableCracking);
            let result = execute_on_snapshot(
                table,
                5,
                &manager,
                &query,
                StrategyKind::UpdatableCracking,
                None,
                None,
                None,
            )
            .unwrap();
            assert!(!result.is_empty());
            // absorbing the next row only succeeds if the index was
            // registered under the snapshot's epoch
            assert!(
                manager.insert_at(&ColumnId::new("t", "k"), 100, 100, 5),
                "index not registered under epoch 5 for {query:?}"
            );
        }
    }

    #[test]
    fn residual_filter_prunes_chunks_outside_the_predicate_range() {
        // sorted residual column in chunks of 10 => disjoint chunk ranges
        let k: Vec<Key> = (0..100).collect();
        let r: Vec<Key> = k.iter().map(|&v| v % 20).collect();
        let table = Arc::new(
            Table::from_columns(vec![
                ("k", Column::from_i64(k).with_segment_capacity(10)),
                ("r", Column::from_i64(r).with_segment_capacity(10)),
            ])
            .unwrap(),
        );
        let manager = IndexManager::new(StrategyKind::Cracking);
        // driver: the point predicate on r (a twentieth of its domain);
        // residual: the range on sorted k (a quarter of its domain). Chunk
        // [30,40) lies wholly inside [30,55) and is kept unread, chunk
        // [50,60) straddles the high bound and is read, and the candidates'
        // other chunks cannot match
        let query = Query::table("t").range("k", 30, 55).point("r", 13);
        let result = execute_on_snapshot(
            Arc::clone(&table),
            1,
            &manager,
            &query,
            StrategyKind::Cracking,
            None,
            None,
            None,
        )
        .unwrap();
        // correctness: k in [30,55) and k % 20 == 13 => 33, 53
        assert_eq!(result.positions().as_slice(), &[33, 53]);
        let stats = result.prune_stats();
        assert!(
            stats.chunks_pruned > 0,
            "chunks outside [30,55) must be skipped: {stats:?}"
        );
        assert_eq!(
            stats.chunks_scanned, 1,
            "only the chunk straddling 55 is read: {stats:?}"
        );
        assert_eq!(
            stats.chunks_pruned, 4,
            "three chunks outside the range and one inside it: {stats:?}"
        );
    }

    /// `filter_project`'s shape at a small scale: `k` a permutation (the
    /// driver), `a` spread over a small domain in every chunk, `b` ascending.
    fn fact_table() -> Arc<Table> {
        let n: Key = 2_000;
        Arc::new(
            Table::from_columns(vec![
                (
                    "k",
                    Column::from_i64((0..n).map(|i| i * 7_919 % n).collect()),
                ),
                (
                    "a",
                    Column::from_i64((0..n).map(|i| (i * 31 + 7) % 100).collect()),
                ),
                ("b", Column::from_i64((0..n).collect())),
            ])
            .unwrap()
            .with_segment_capacity(100),
        )
    }

    #[test]
    fn residuals_run_in_the_planned_order_zone_decided_first() {
        let table = fact_table();
        let manager = IndexManager::new(StrategyKind::Cracking);
        // in query order `a` comes first, but every chunk of `a` straddles
        // its range while all but two chunks of `b` lie inside or outside
        // [550, 1550): `b` runs first
        let query = Query::table("t")
            .range("k", 0, 100)
            .range("a", 10, 40)
            .range("b", 550, 1_550);
        let plan = plan_on_snapshot(&table, &manager, &query).unwrap();
        assert_eq!(plan.driver_column.as_deref(), Some("k"));
        assert_eq!(plan.residual_columns, vec!["b".to_owned(), "a".to_owned()]);
        let mut recorder = TraceRecorder::new();
        let result = execute_on_snapshot(
            Arc::clone(&table),
            1,
            &manager,
            &query,
            StrategyKind::Cracking,
            None,
            None,
            Some(&mut recorder),
        )
        .unwrap();
        let traced: Vec<String> = recorder
            .finish()
            .events
            .into_iter()
            .filter_map(|event| match event {
                SpanEvent::ResidualFilter { column, .. } => Some(column),
                _ => None,
            })
            .collect();
        assert_eq!(traced, plan.residual_columns, "plan = execution");
        let column = |name: &str| table.column(name).unwrap().as_i64().unwrap().to_vec();
        let (k, a, b) = (column("k"), column("a"), column("b"));
        let expected: Vec<RowId> = (0..k.len())
            .filter(|&i| k[i] < 100 && (10..40).contains(&a[i]) && (550..1_550).contains(&b[i]))
            .map(|i| i as RowId)
            .collect();
        assert_eq!(result.positions().as_slice(), expected.as_slice());
        // one residual: nothing to order, the plan keeps it
        let query = Query::table("t").range("k", 0, 100).range("a", 10, 40);
        let plan = plan_on_snapshot(&table, &manager, &query).unwrap();
        assert_eq!(plan.residual_columns, vec!["a".to_owned()]);
    }

    #[test]
    fn aggregates_agree_as_produced_and_ordered() {
        let table = fact_table();
        let b = table.column("b").unwrap().as_i64().unwrap().to_vec();
        let k = table.column("k").unwrap().as_i64().unwrap().to_vec();
        let selected: Vec<Key> = (0..k.len()).filter(|&i| k[i] < 300).map(|i| b[i]).collect();
        let sum: i128 = selected.iter().map(|&v| v as i128).sum();
        for (aggregation, expected) in [
            (Aggregation::Count, Value::Int64(selected.len() as i64)),
            (Aggregation::Sum, Value::Int64(sum as i64)),
            (
                Aggregation::Min,
                Value::Int64(*selected.iter().min().unwrap()),
            ),
            (
                Aggregation::Max,
                Value::Int64(*selected.iter().max().unwrap()),
            ),
            (
                Aggregation::Avg,
                Value::Float64(sum as f64 / selected.len() as f64),
            ),
        ] {
            let manager = IndexManager::new(StrategyKind::Cracking);
            // the driver's answer as produced, and the same rows after a
            // residual that keeps them all (and so orders them)
            let produced = Query::table("t")
                .range("k", 0, 300)
                .aggregate(aggregation, "b");
            let ordered = produced.clone().range("a", Key::MIN, Key::MAX);
            for query in [produced, ordered] {
                let result = execute_on_snapshot(
                    Arc::clone(&table),
                    1,
                    &manager,
                    &query,
                    StrategyKind::Cracking,
                    None,
                    None,
                    None,
                )
                .unwrap();
                assert_eq!(result.aggregate(), Some(&expected), "{query:?}");
                assert_eq!(result.row_count(), selected.len());
            }
        }
    }

    #[test]
    fn out_of_domain_driver_is_answered_by_zone_maps_alone() {
        let keys: Vec<Key> = (0..100).collect();
        let table = Arc::new(
            Table::from_columns(vec![(
                "k",
                Column::from_i64(keys).with_segment_capacity(16),
            )])
            .unwrap(),
        );
        let manager = IndexManager::new(StrategyKind::Cracking);
        let query = Query::table("t").range("k", 1_000, 2_000);
        let result = execute_on_snapshot(
            table,
            1,
            &manager,
            &query,
            StrategyKind::Cracking,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(result.is_empty());
        let stats = result.prune_stats();
        assert_eq!(stats.chunks_scanned, 0);
        assert_eq!(stats.chunks_pruned, 7, "6 sealed chunks + tail all pruned");
        assert_eq!(
            manager.indexed_column_count(),
            0,
            "a provably empty query must not trigger an index build"
        );
    }

    #[test]
    fn empty_aggregates_are_none_not_garbage() {
        for (aggregation, expected) in [
            (Aggregation::Count, Some(Value::Int64(0))),
            (Aggregation::Sum, None),
            (Aggregation::Min, None),
            (Aggregation::Max, None),
            (Aggregation::Avg, None),
        ] {
            let query = Query::table("t")
                .range("k", 1000, 2000)
                .aggregate(aggregation, "k");
            let result = run(&query).unwrap();
            assert_eq!(result.aggregate().cloned(), expected, "{aggregation:?}");
        }
    }

    #[test]
    fn sum_overflow_is_a_typed_error() {
        let table = Arc::new(
            Table::from_columns(vec![(
                "k",
                Column::from_i64(vec![Key::MAX - 1, Key::MAX - 2]),
            )])
            .unwrap(),
        );
        let manager = IndexManager::new(StrategyKind::Cracking);
        let query = Query::table("t")
            .range("k", 0, Key::MAX)
            .aggregate(Aggregation::Sum, "k");
        let err = execute_on_snapshot(
            table,
            1,
            &manager,
            &query,
            StrategyKind::Cracking,
            None,
            None,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, AidxError::AggregateOverflow { .. }));
    }

    #[test]
    fn aggregates_over_qualifying_rows() {
        let query = Query::table("t")
            .range("k", 0, 10)
            .aggregate(Aggregation::Sum, "k");
        assert_eq!(
            run(&query).unwrap().aggregate(),
            Some(&Value::Int64((0..10).sum()))
        );
        let query = Query::table("t")
            .range("k", 5, 10)
            .aggregate(Aggregation::Avg, "k");
        assert_eq!(run(&query).unwrap().aggregate(), Some(&Value::Float64(7.0)));
        let query = Query::table("t")
            .range("k", 5, 10)
            .aggregate(Aggregation::Count, "label");
        assert_eq!(
            run(&query).unwrap().aggregate(),
            Some(&Value::Int64(5)),
            "COUNT works on non-int columns"
        );
        let query = Query::table("t")
            .range("k", 5, 10)
            .aggregate(Aggregation::Sum, "label");
        assert!(run(&query).is_err(), "SUM needs an int64 column");
    }
}
