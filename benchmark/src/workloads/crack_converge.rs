//! `crack_converge` — the paper's canonical experiment: a fresh column of
//! distinct keys, a sequence of uniform-random 1 % range queries through
//! `Session::execute`, one thread, nothing contending. The cracking
//! kernels and the index probe do almost all the work; server, WAL and the
//! filter kernels do none, so a change there must leave this workload flat.

use super::{elapsed_us, per_call_ns, per_fresh_call_ns, permutation_range_count, Ctx, Epoch};
use aidx_columnstore::column::Column;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::{Key, RowId};
use aidx_core::strategy::{HybridKind, StrategyKind};
use aidx_core::{ColumnId, Database, IndexManager, Query};
use aidx_cracking::crack::{crack_in_three, crack_in_two, PivotSide};
use aidx_workloads::data::{generate_keys, DataDistribution};
use aidx_workloads::query::{QueryWorkload, RangeQuery, WorkloadKind};
use std::hint::black_box;
use std::time::Instant;

const SELECTIVITY: f64 = 0.01;
/// The scan baseline answers one query in this many of the sequence.
const SCAN_SHARE: usize = 20;

struct Inputs {
    keys: Vec<Key>,
    ranges: Vec<RangeQuery>,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let rows = ctx.sizes.crack_rows;
    let keys = ctx.tracer.in_span("workloads.generate_keys", 0, || {
        generate_keys(rows, DataDistribution::UniformPermutation, ctx.seed_for(1))
    });
    let ranges = ctx.tracer.in_span("workloads.generate_queries", 0, || {
        QueryWorkload::generate(
            WorkloadKind::UniformRandom,
            ctx.sizes.crack_queries,
            0,
            rows as Key,
            SELECTIVITY,
            ctx.seed_for(2),
        )
        .queries()
        .to_vec()
    });
    Inputs { keys, ranges }
}

fn range_query(range: &RangeQuery) -> Query {
    Query::table("data").range("k", range.low, range.high)
}

/// The defaults a user gets, with the one knob an environment variable
/// could move pinned.
fn database(ctx: &Ctx, keys: Vec<Key>, telemetry: bool, sampling: u64) -> Database {
    ctx.tracer.in_span("core.create_table", 0, || {
        let db = Database::builder()
            .parallelism(1)
            .telemetry(telemetry)
            .trace_sampling(sampling)
            .build();
        let table = Table::from_columns(vec![("k", Column::from_i64(keys))])
            .expect("a one-column table is well formed");
        db.create_table("data", table)
            .expect("a fresh database has no table named data");
        db
    })
}

pub fn epoch(ctx: &Ctx) -> Epoch {
    let mut epoch = Epoch::default();
    let rows = ctx.sizes.crack_rows;

    let setup = Instant::now();
    let Inputs { keys, ranges } = inputs(ctx);
    let queries: Vec<Query> = ranges.iter().map(range_query).collect();
    let db = database(ctx, keys, true, aidx_core::db::DEFAULT_TRACE_SAMPLING);
    let session = db.session();
    epoch.setup_s = setup.elapsed().as_secs_f64();

    let wall = Instant::now();
    for (i, (query, range)) in queries.iter().zip(&ranges).enumerate() {
        let op = i as u64 + 1;
        let started = Instant::now();
        let result = ctx
            .tracer
            .in_span("core.execute", op, || session.execute(query));
        epoch.query_us.push(elapsed_us(started));
        let expected = permutation_range_count(range.low, range.high, rows);
        epoch
            .tally
            .op(matches!(&result, Ok(r) if r.row_count() == expected));
    }
    epoch.wall_s = wall.elapsed().as_secs_f64();
    epoch.ops = queries.len() as u64;
    epoch.first_query_ms = epoch.query_us[0] / 1e3;
    // the converged half of the sequence
    epoch.tail_from = queries.len() / 2;

    let data_bytes = db
        .table_snapshot("data")
        .expect("the table was just created")
        .byte_size();
    epoch.extra(
        "aux_bytes_per_data_byte",
        db.total_auxiliary_bytes() as f64 / data_bytes as f64,
    );
    epoch
}

/// What one strategy costs on the raw index, outside the facade: the build
/// is folded into the first query, as the benchmark papers define it.
struct RawRun {
    first_query_ms: f64,
    cumulative_s: f64,
    effort: u64,
    pieces: usize,
    returned: u64,
}

fn raw_run(
    ctx: &Ctx,
    span: &'static str,
    kind: StrategyKind,
    keys: &[Key],
    ranges: &[RangeQuery],
) -> RawRun {
    let _span = ctx.tracer.span(span, 0);
    let started = Instant::now();
    let mut index = kind.build(keys);
    let mut returned = 0u64;
    let mut first_query_ms = 0.0;
    for (i, range) in ranges.iter().enumerate() {
        returned += index.query_range(range.low, range.high).count() as u64;
        if i == 0 {
            first_query_ms = started.elapsed().as_secs_f64() * 1e3;
        }
    }
    RawRun {
        first_query_ms,
        cumulative_s: started.elapsed().as_secs_f64(),
        effort: index.effort(),
        pieces: index.pieces(),
        returned,
    }
}

/// Mean nanoseconds per query of `rounds` passes over `queries` on a
/// converged database, median over rounds.
fn warm_loop_ns(
    ctx: &Ctx,
    span: &'static str,
    db: &Database,
    queries: &[Query],
    rounds: usize,
) -> f64 {
    let session = db.session();
    per_call_ns(ctx.tracer, span, rounds, queries.len(), |i| {
        black_box(
            session
                .execute(&queries[i % queries.len()])
                .map(|r| r.row_count()),
        )
        .ok();
    })
}

fn converge(ctx: &Ctx, db: &Database, queries: &[Query]) {
    let _span = ctx.tracer.span("core.converge", 0);
    let session = db.session();
    for query in queries {
        session
            .execute(query)
            .expect("range query on an int64 column");
    }
}

pub fn probes(ctx: &Ctx, out: &mut Vec<(&'static str, f64)>) {
    let t = ctx.tracer;
    let inputs = inputs(ctx);
    let rows = inputs.keys.len();

    // cracking: the copy, the kernels, and the whole sequence on the raw index
    out.push((
        "cracking.build_ns_per_key",
        per_fresh_call_ns(
            t,
            "cracking.build",
            3,
            |_| (),
            |()| StrategyKind::Cracking.build(&inputs.keys),
        ) / rows as f64,
    ));
    let slice = &inputs.keys[..ctx.sizes.probe_keys.min(rows)];
    let fresh_pairs = |_| {
        let rowids: Vec<RowId> = (0..slice.len() as RowId).collect();
        (slice.to_vec(), rowids)
    };
    let n = rows as Key;
    out.push((
        "cracking.crack_in_two_ns_per_key",
        per_fresh_call_ns(
            t,
            "cracking.crack_in_two",
            5,
            fresh_pairs,
            |(mut v, mut r)| {
                let end = v.len();
                crack_in_two(&mut v, &mut r, 0, end, n / 2, PivotSide::Left)
            },
        ) / slice.len() as f64,
    ));
    out.push((
        "cracking.crack_in_three_ns_per_key",
        per_fresh_call_ns(
            t,
            "cracking.crack_in_three",
            5,
            fresh_pairs,
            |(mut v, mut r)| {
                let end = v.len();
                crack_in_three(&mut v, &mut r, 0, end, n / 2, n / 2 + n / 100).touch
            },
        ) / slice.len() as f64,
    ));
    let Inputs { keys, ranges } = &inputs;
    let cracking = raw_run(
        ctx,
        "cracking.sequence",
        StrategyKind::Cracking,
        keys,
        ranges,
    );
    out.push(("cracking.first_query_ms", cracking.first_query_ms));
    out.push(("cracking.effort_total", cracking.effort as f64));
    out.push(("cracking.pieces_final", cracking.pieces as f64));
    out.push((
        "cracking.useful_ratio",
        cracking.returned as f64 / cracking.effort.max(1) as f64,
    ));

    // the ceiling (scan) and the floor (sort's tail) on the identical keys
    // and sequence, and the two other adaptive families. A scan does not
    // adapt, so it answers a twentieth of the sequence and its cumulative
    // cost is scaled up: 1 000 scans of 4 M keys would outlast the run.
    let prefix = &ranges[..ranges.len().div_ceil(SCAN_SHARE)];
    let scan = raw_run(
        ctx,
        "baselines.scan_sequence",
        StrategyKind::FullScan,
        keys,
        prefix,
    );
    out.push(("baselines.scan.first_query_ms", scan.first_query_ms));
    out.push((
        "baselines.scan.cumulative_s",
        scan.cumulative_s * ranges.len() as f64 / prefix.len() as f64,
    ));
    for (span, first, cumulative, kind) in [
        (
            "baselines.sort_sequence",
            "baselines.sort.first_query_ms",
            "baselines.sort.cumulative_s",
            StrategyKind::FullSort,
        ),
        (
            "merging.sequence",
            "merging.first_query_ms",
            "merging.cumulative_s",
            StrategyKind::AdaptiveMerging { run_size: 1 << 14 },
        ),
        (
            "hybrids.crack_sort_sequence",
            "hybrids.crack_sort.first_query_ms",
            "hybrids.crack_sort.cumulative_s",
            StrategyKind::Hybrid {
                algorithm: HybridKind::CrackSort,
            },
        ),
    ] {
        let run = raw_run(ctx, span, kind, keys, ranges);
        out.push((first, run.first_query_ms));
        out.push((cumulative, run.cumulative_s));
    }

    // core: what the facade adds to a point probe once the pieces under
    // the probed keys no longer split
    let points: Vec<RangeQuery> = ranges
        .iter()
        .map(|r| RangeQuery::new(r.low, r.low + 1))
        .collect();
    let point_queries: Vec<Query> = points.iter().map(range_query).collect();
    let db = database(
        ctx,
        keys.clone(),
        true,
        aidx_core::db::DEFAULT_TRACE_SAMPLING,
    );
    converge(ctx, &db, &point_queries);
    let session = db.session();
    out.push((
        "core.plan_ns",
        per_call_ns(t, "core.explain", 5, points.len(), |i| {
            black_box(session.explain(&point_queries[i % points.len()])).ok();
        }),
    ));
    let execute_warm_ns = warm_loop_ns(ctx, "core.execute_warm", &db, &point_queries, 5);
    out.push(("core.execute_warm_ns", execute_warm_ns));

    let manager = IndexManager::new(StrategyKind::Cracking);
    let column = ColumnId::new("data", "k");
    let mut raw = StrategyKind::Cracking.build(keys);
    t.in_span("core.converge", 0, || {
        for p in &points {
            manager.query_range(&column, keys, p.low, p.high);
            raw.query_range(p.low, p.high);
        }
    });
    out.push((
        "core.index_probe_ns",
        per_call_ns(t, "core.index_probe", 5, points.len(), |i| {
            let p = &points[i % points.len()];
            black_box(manager.query_range(&column, keys, p.low, p.high));
        }),
    ));
    let raw_ns = per_call_ns(t, "cracking.query_warm", 5, points.len(), |i| {
        let p = &points[i % points.len()];
        black_box(raw.query_range(p.low, p.high));
    });
    out.push(("core.facade_overhead_ns", execute_warm_ns - raw_ns));
    drop((raw, manager));

    // telemetry: the same warm point loop with sampling off, and with
    // recording off altogether
    let unsampled = database(ctx, keys.clone(), true, 0);
    converge(ctx, &unsampled, &point_queries);
    let off = database(ctx, keys.clone(), false, 0);
    converge(ctx, &off, &point_queries);
    let on_ns = warm_loop_ns(ctx, "telemetry.loop_on", &db, &point_queries, 9);
    let unsampled_ns = warm_loop_ns(
        ctx,
        "telemetry.loop_unsampled",
        &unsampled,
        &point_queries,
        9,
    );
    let off_ns = warm_loop_ns(ctx, "telemetry.loop_off", &off, &point_queries, 9);
    out.push(("telemetry.enabled_ratio", on_ns / off_ns));
    out.push(("telemetry.sampling_ratio", on_ns / unsampled_ns));
    out.push((
        "telemetry.snapshot_us",
        per_call_ns(t, "telemetry.snapshot", 5, 20, |_| {
            black_box(db.telemetry());
        }) / 1e3,
    ));
}
