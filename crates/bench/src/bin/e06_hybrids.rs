//! E6 — Hybrid adaptive indexing (PVLDB 2011): the initialization/convergence
//! trade-off across the hybrid crack/sort/radix algorithms, plus plain
//! cracking, adaptive merging and a full sort as the endpoints of the design
//! space. Adaptive merging *is* Hybrid Sort-Sort: the `adaptive-merging` row
//! builds the same index as `hybrid-sort-sort`, with runs of 64 K tuples
//! instead of the hybrids' 16 K partitions. Also serves as the crack-in-two
//! vs. crack-in-three / organization-choice ablation called out in
//! DESIGN.md.

use aidx_bench::{assert_checksums_match, run_strategy_facade, HarnessConfig, StrategyRun};
use aidx_core::strategy::{HybridKind, StrategyKind};
use aidx_workloads::data::{generate_keys, DataDistribution};
use aidx_workloads::query::{QueryWorkload, WorkloadKind};

fn main() {
    let config = HarnessConfig::default();
    println!(
        "# E6 hybrid adaptive indexing — {} rows, {} queries, {:.1}% selectivity",
        config.rows,
        config.queries,
        config.selectivity * 100.0
    );
    let keys = generate_keys(
        config.rows,
        DataDistribution::UniformPermutation,
        config.seed,
    );
    let workload = QueryWorkload::generate(
        WorkloadKind::UniformRandom,
        config.queries,
        0,
        config.rows as i64,
        config.selectivity,
        config.seed + 6,
    );

    let strategies = [
        StrategyKind::Cracking,
        StrategyKind::Hybrid {
            algorithm: HybridKind::CrackCrack,
        },
        StrategyKind::Hybrid {
            algorithm: HybridKind::CrackSort,
        },
        StrategyKind::Hybrid {
            algorithm: HybridKind::CrackRadix,
        },
        StrategyKind::Hybrid {
            algorithm: HybridKind::RadixRadix,
        },
        StrategyKind::Hybrid {
            algorithm: HybridKind::SortSort,
        },
        StrategyKind::Hybrid {
            algorithm: HybridKind::SortRadix,
        },
        StrategyKind::AdaptiveMerging { run_size: 1 << 16 },
        StrategyKind::FullSort,
    ];
    // every strategy runs end-to-end through the Database/Session facade
    let runs: Vec<StrategyRun> = strategies
        .iter()
        .map(|&s| run_strategy_facade(s, &keys, &workload))
        .collect();
    assert_checksums_match(&runs);

    let scan_equivalent = config.rows as f64; // one pass over the column, in work units
    let full_index_cost = runs.last().map(|r| r.effort.tail_mean(100)).unwrap_or(1.0);
    println!(
        "\n{:<22} {:>16} {:>20} {:>20} {:>18} {:>14}",
        "technique",
        "first q (ms)",
        "first-q effort/scan",
        "queries to converge",
        "total effort",
        "converged?"
    );
    for run in &runs {
        let first_ms = run.time_ns.first_query_cost().unwrap_or(0.0) / 1e6;
        let overhead = run
            .effort
            .first_query_overhead(scan_equivalent)
            .unwrap_or(0.0);
        let convergence = run
            .effort
            .queries_to_convergence(full_index_cost, 1.0, 10)
            .map_or("never".to_owned(), |q| q.to_string());
        println!(
            "{:<22} {:>16.2} {:>20.2} {:>20} {:>18.2e} {:>14}",
            run.label,
            first_ms,
            overhead,
            convergence,
            run.effort.total_cost(),
            run.converged
        );
    }
    println!(
        "\nshape check (PVLDB 2011): crack-initialized hybrids have the cheapest first \
         query; sort-initialized hybrids have the most expensive first query and the \
         fastest convergence; sorted/radix final partitions converge faster than the \
         cracked final; plain cracking is the laziest of all."
    );
}
