//! E3 — Cracking under updates (SIGMOD 2007): query cost over a sequence with
//! interleaved insertions at several update rates. The cracked index stages
//! each insertion and merges it with the ripple when a query's range covers
//! it, so the read-only run is the yardstick.

use aidx_bench::HarnessConfig;
use aidx_cracking::selection::CrackedIndex;
use aidx_workloads::data::{generate_keys, DataDistribution};
use aidx_workloads::metrics::CostSeries;
use aidx_workloads::query::{QueryWorkload, WorkloadKind};
use std::time::Instant;

fn main() {
    let config = HarnessConfig::default();
    let rows = config.rows.min(2_000_000);
    let queries = config.queries;
    println!(
        "# E3 cracking under updates — {} rows, {} queries, {:.1}% selectivity",
        rows,
        queries,
        config.selectivity * 100.0
    );
    let keys = generate_keys(rows, DataDistribution::UniformPermutation, config.seed);
    let workload = QueryWorkload::generate(
        WorkloadKind::UniformRandom,
        queries,
        0,
        rows as i64,
        config.selectivity,
        config.seed + 3,
    );

    println!(
        "\n{:>18} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "inserts/10 queries", "total (ms)", "mean q (µs)", "p99 q (µs)", "merged", "pending end"
    );
    for batch in [0usize, 1, 10, 100] {
        let mut index = CrackedIndex::from_keys(&keys);
        let mut series = CostSeries::new("merge-ripple");
        let mut next_value = rows as i64;
        let total_start = Instant::now();
        for (i, q) in workload.iter().enumerate() {
            if batch > 0 && i % 10 == 0 {
                for _ in 0..batch {
                    index.insert(next_value % rows as i64);
                    next_value += 13;
                }
            }
            let start = Instant::now();
            std::hint::black_box(index.query_range(q.low, q.high).len());
            series.push(start.elapsed().as_nanos() as f64);
        }
        let total = total_start.elapsed();
        let mut sorted = series.per_query.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((sorted.len() as f64 * 0.99) as usize).saturating_sub(1);
        let p99 = sorted.get(rank).copied().unwrap_or(0.0);
        println!(
            "{:>18} {:>14.1} {:>14.1} {:>14.1} {:>14} {:>14}",
            batch,
            total.as_secs_f64() * 1e3,
            series.mean_cost() / 1e3,
            p99 / 1e3,
            index.stats().elements_merged,
            index.pending_count()
        );
    }
    println!(
        "\nshape check: per-query cost stays within a small factor of the read-only run \
         at every update rate; each query merges only the pending tuples its range \
         covers, so tuples outside every queried range stay pending."
    );
}
