//! `filter_project` — conjunctive queries over a three-column fact table
//! with two workers. The adaptive index on `k` converges within a handful
//! of queries and then is not the cost: residual filters, zone maps, the
//! aggregate gather, row materialisation, the partitioned index and the
//! fork/join pool are. A crack-kernel win shows nothing here; a vectorised
//! filter or better partition cuts shows only here.

use super::{elapsed_us, per_call_ns, Ctx, Epoch};
use aidx_columnstore::column::Column;
use aidx_columnstore::ops::aggregate::aggregate_at;
use aidx_columnstore::ops::project::fetch_values;
use aidx_columnstore::ops::select::{filter_chunk_positions, scan_chunk_where, PruneStats};
use aidx_columnstore::position::PositionList;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::{Key, RowId, Value};
use aidx_core::{Aggregation, Database, Query};
use aidx_parallel::{parallel_filter_positions, parallel_scan_where, ThreadPool};
use aidx_workloads::data::{generate_keys, DataDistribution};
use aidx_workloads::query::{QueryWorkload, WorkloadKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const A_DOMAIN: Key = 1_000;
const WORKERS: usize = 2;
/// Queries before this one still refine the index on `k`.
const WARM_AFTER: usize = 20;
/// One query in this many is checked against the flat reference.
const ORACLE_EVERY: usize = 25;

/// `range(k, 5 %) AND range(a, 30 %) AND range(b, 50 %)`.
#[derive(Debug, Clone, Copy)]
struct Conjunction {
    k: (Key, Key),
    a: (Key, Key),
    b: (Key, Key),
    /// Two thirds project `(a, b)` and drain the rows; one third is `SUM(b)`.
    sum: bool,
}

impl Conjunction {
    fn query(&self) -> Query {
        let query = Query::table("facts")
            .range("k", self.k.0, self.k.1)
            .range("a", self.a.0, self.a.1)
            .range("b", self.b.0, self.b.1);
        if self.sum {
            query.aggregate(Aggregation::Sum, "b")
        } else {
            query.project(["a", "b"])
        }
    }

    fn matches(&self, k: Key, a: Key, b: Key) -> bool {
        (self.k.0..self.k.1).contains(&k)
            && (self.a.0..self.a.1).contains(&a)
            && (self.b.0..self.b.1).contains(&b)
    }
}

/// What a query answered, reduced to what the reference can recompute.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Answer {
    rows: usize,
    sum_a: i128,
    sum_b: i128,
}

/// The generated input, kept as flat vectors: the oracle's reference model.
/// `b[i] = i`, ascending, so zone maps can prune on it.
struct Facts {
    k: Vec<Key>,
    a: Vec<Key>,
}

impl Facts {
    fn generate(ctx: &Ctx) -> Facts {
        let rows = ctx.sizes.filter_rows;
        ctx.tracer.in_span("workloads.generate_keys", 0, || Facts {
            k: generate_keys(rows, DataDistribution::UniformPermutation, ctx.seed_for(1)),
            a: generate_keys(
                rows,
                DataDistribution::UniformRandom { domain: A_DOMAIN },
                ctx.seed_for(2),
            ),
        })
    }

    fn table(&self) -> Table {
        let b: Vec<Key> = (0..self.k.len() as Key).collect();
        Table::from_columns(vec![
            ("k", Column::from_i64(self.k.clone())),
            ("a", Column::from_i64(self.a.clone())),
            ("b", Column::from_i64(b)),
        ])
        .expect("three equally long columns")
    }

    fn reference(&self, c: &Conjunction) -> Answer {
        let mut answer = Answer::default();
        for (i, (&k, &a)) in self.k.iter().zip(&self.a).enumerate() {
            let b = i as Key;
            if c.matches(k, a, b) {
                answer.rows += 1;
                if !c.sum {
                    answer.sum_a += a as i128;
                }
                answer.sum_b += b as i128;
            }
        }
        answer
    }
}

fn conjunctions(ctx: &Ctx) -> Vec<Conjunction> {
    let n = ctx.sizes.filter_rows as Key;
    let count = ctx.sizes.filter_queries;
    ctx.tracer.in_span("workloads.generate_queries", 0, || {
        let k_ranges = QueryWorkload::generate(
            WorkloadKind::UniformRandom,
            count,
            0,
            n,
            0.05,
            ctx.seed_for(3),
        );
        let mut rng = StdRng::seed_from_u64(ctx.seed_for(4));
        k_ranges
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let a_low = rng.gen_range(0..A_DOMAIN * 7 / 10);
                let b_low = rng.gen_range(0..(n / 2).max(1));
                Conjunction {
                    k: (k.low, k.high),
                    a: (a_low, a_low + A_DOMAIN * 3 / 10),
                    b: (b_low, b_low + n / 2),
                    sum: i % 3 == 2,
                }
            })
            .collect()
    })
}

fn database(ctx: &Ctx, facts: &Facts) -> Database {
    ctx.tracer.in_span("core.create_table", 0, || {
        let db = Database::builder().parallelism(WORKERS).build();
        db.create_table("facts", facts.table())
            .expect("a fresh database has no table named facts");
        db
    })
}

pub fn epoch(ctx: &Ctx) -> Epoch {
    let mut epoch = Epoch::default();

    let setup = Instant::now();
    let facts = Facts::generate(ctx);
    let conjunctions = conjunctions(ctx);
    let queries: Vec<Query> = conjunctions.iter().map(Conjunction::query).collect();
    let db = database(ctx, &facts);
    let session = db.session();
    epoch.setup_s = setup.elapsed().as_secs_f64();

    let mut answers: Vec<Option<Answer>> = Vec::with_capacity(queries.len());
    let mut prune = PruneStats::default();
    let wall = Instant::now();
    for (i, (query, c)) in queries.iter().zip(&conjunctions).enumerate() {
        let op = i as u64 + 1;
        let started = Instant::now();
        let answer = ctx.tracer.in_span("core.execute", op, || {
            let result = session.execute(query).ok()?;
            prune += result.prune_stats();
            let mut answer = Answer {
                rows: result.row_count(),
                ..Answer::default()
            };
            if c.sum {
                answer.sum_b = match result.aggregate() {
                    Some(Value::Int64(sum)) => *sum as i128,
                    None if answer.rows == 0 => 0,
                    _ => return None,
                };
            } else {
                let _drain = ctx.tracer.span("core.rows_drain", op);
                for row in result.rows() {
                    answer.sum_a += row[0].as_i64()? as i128;
                    answer.sum_b += row[1].as_i64()? as i128;
                }
            }
            Some(answer)
        });
        epoch.query_us.push(elapsed_us(started));
        answers.push(answer);
    }
    epoch.wall_s = wall.elapsed().as_secs_f64();
    epoch.ops = queries.len() as u64;
    epoch.first_query_ms = epoch.query_us[0] / 1e3;
    epoch.tail_from = WARM_AFTER.min(queries.len() / 2);

    let _oracle = ctx.tracer.span("harness.oracle", 0);
    for (i, (answer, c)) in answers.iter().zip(&conjunctions).enumerate() {
        let ok = match answer {
            None => false,
            Some(answer) if i % ORACLE_EVERY == 0 => *answer == facts.reference(c),
            Some(_) => true,
        };
        epoch.tally.op(ok);
    }

    let data_bytes = db
        .table_snapshot("facts")
        .expect("the table was just created")
        .byte_size();
    epoch.extra(
        "aux_bytes_per_data_byte",
        db.total_auxiliary_bytes() as f64 / data_bytes as f64,
    );
    epoch.extra("columnstore.zone_pruned_fraction", prune.pruned_fraction());
    epoch
}

pub fn probes(ctx: &Ctx, out: &mut Vec<(&'static str, f64)>) {
    let t = ctx.tracer;
    let facts = Facts::generate(ctx);
    let rows = facts.k.len();
    let table = facts.table();
    let k_column = table.column("k").expect("column k exists");
    let b_column = table.column("b").expect("column b exists");
    let k = k_column.as_i64().expect("column k is int64");
    let n = rows as Key;
    let in_k = |v: Key| v >= n / 4 && v < n / 4 + n / 20;

    // columnstore: the per-chunk kernels, on every chunk of column k. The
    // planner drives these queries through `a` (its zone maps make the 30 %
    // range look cheapest), so the residual filter on `k` sees every third
    // position and keeps a twentieth of them.
    let chunks: Vec<_> = k.chunks().collect();
    let candidates: Vec<Vec<RowId>> = chunks
        .iter()
        .map(|c| (c.base..c.end()).step_by(3).collect())
        .collect();
    let candidate_count: usize = candidates.iter().map(Vec::len).sum();
    out.push((
        "columnstore.filter_chunk_positions_ns_per_pos",
        per_call_ns(t, "columnstore.filter_chunk_positions", 5, 1, |_| {
            let mut kept = Vec::with_capacity(candidate_count);
            let mut stats = PruneStats::default();
            for (chunk, candidates) in chunks.iter().zip(&candidates) {
                filter_chunk_positions(chunk, candidates, |_| true, in_k, &mut kept, &mut stats);
            }
            black_box(kept);
        }) / candidate_count as f64,
    ));
    out.push((
        "columnstore.scan_chunk_where_ns_per_row",
        per_call_ns(t, "columnstore.scan_chunk_where", 5, 1, |_| {
            let mut kept = Vec::new();
            let mut stats = PruneStats::default();
            for chunk in &chunks {
                scan_chunk_where(chunk, |_| true, in_k, &mut kept, &mut stats);
            }
            black_box(kept);
        }) / rows as f64,
    ));
    // a result-sized position list: every 64th row
    let positions = PositionList::from_sorted_vec((0..rows as RowId).step_by(64).collect());
    out.push((
        "columnstore.aggregate_at_ns_per_row",
        per_call_ns(t, "columnstore.aggregate_at", 5, 1, |_| {
            black_box(aggregate_at(b_column, &positions));
        }) / positions.len() as f64,
    ));
    out.push((
        "columnstore.fetch_values_ns_per_row",
        per_call_ns(t, "columnstore.fetch_values", 5, 1, |_| {
            black_box(fetch_values(b_column, &positions)).ok();
        }) / positions.len() as f64,
    ));

    // parallel: the same residual filter and scan at one and two workers,
    // and the fork/join floor
    let driver_sized = PositionList::from_sorted_vec((0..rows as RowId).step_by(3).collect());
    for (workers, filter_name, scan_name) in [
        (
            1,
            "parallel.filter_positions_p1_ms",
            "parallel.scan_where_p1_ms",
        ),
        (
            2,
            "parallel.filter_positions_p2_ms",
            "parallel.scan_where_p2_ms",
        ),
    ] {
        let pool = ThreadPool::new(workers);
        out.push((
            filter_name,
            per_call_ns(t, "parallel.filter_positions", 5, 1, |_| {
                black_box(parallel_filter_positions(
                    &pool,
                    k,
                    &driver_sized,
                    |_| true,
                    in_k,
                ));
            }) / 1e6,
        ));
        out.push((
            scan_name,
            per_call_ns(t, "parallel.scan_where", 5, 1, |_| {
                black_box(parallel_scan_where(&pool, k, |_| true, in_k));
            }) / 1e6,
        ));
        if workers == WORKERS {
            out.push((
                "parallel.pool_run_empty_ns",
                per_call_ns(t, "parallel.pool_run", 5, 2_000, |_| {
                    black_box(pool.run(WORKERS, |task| task));
                }),
            ));
        }
    }

    // core: draining projected rows, and a warm probe of the partitioned index
    let db = database(ctx, &facts);
    let session = db.session();
    let projection = Query::table("facts")
        .range("k", n / 4, n / 4 + n / 50)
        .project(["a", "b"]);
    let result = session.execute(&projection).expect("projection query");
    out.push((
        "core.rows_drain_ns_per_row",
        per_call_ns(t, "core.rows_drain", 5, 1, |_| {
            for row in result.rows() {
                black_box(row);
            }
        }) / result.row_count().max(1) as f64,
    ));
    let points: Vec<Query> = (0..512)
        .map(|i| {
            let low = (i * 7_919) % n;
            Query::table("facts").range("k", low, low + 1)
        })
        .collect();
    for query in &points {
        session.execute(query).expect("point query");
    }
    out.push((
        "core.partitioned_probe_ns",
        per_call_ns(t, "core.partitioned_probe", 5, points.len(), |i| {
            black_box(
                session
                    .execute(&points[i % points.len()])
                    .map(|r| r.row_count()),
            )
            .ok();
        }),
    ));
}
