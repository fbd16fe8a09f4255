//! E8 — Workload adaptivity: skewed, sequential and shifting-focus workloads.
//! Shows (a) that adaptive indexing only invests in the queried key ranges,
//! and (b) the robustness problem of plain cracking under sequential
//! workloads that stochastic cracking fixes.

use aidx_bench::{run_strategy, HarnessConfig};
use aidx_core::strategy::StrategyKind;
use aidx_cracking::selection::CrackedIndex;
use aidx_workloads::data::{generate_keys, DataDistribution};
use aidx_workloads::query::{QueryWorkload, WorkloadKind};

fn main() {
    let config = HarnessConfig::default();
    println!(
        "# E8 workload adaptivity — {} rows, {} queries, {:.1}% selectivity",
        config.rows,
        config.queries,
        config.selectivity * 100.0
    );
    let keys = generate_keys(
        config.rows,
        DataDistribution::UniformPermutation,
        config.seed,
    );

    let workloads = [
        ("uniform", WorkloadKind::UniformRandom),
        (
            "skewed (zipf over 20 regions)",
            WorkloadKind::Skewed {
                hot_regions: 20,
                exponent: 1.5,
            },
        ),
        ("sequential sweep", WorkloadKind::Sequential),
        (
            "shifting focus (every 100 q)",
            WorkloadKind::ShiftingFocus {
                period: 100,
                focus_fraction: 0.05,
            },
        ),
    ];

    println!(
        "\n{:<32} {:<22} {:>14} {:>16} {:>18}",
        "workload", "technique", "total (ms)", "mean q (µs)", "tail mean q (µs)"
    );
    for (label, kind) in workloads {
        let workload = QueryWorkload::generate(
            kind,
            config.queries,
            0,
            config.rows as i64,
            config.selectivity,
            config.seed + 8,
        );
        for strategy in [
            StrategyKind::FullScan,
            StrategyKind::Cracking,
            StrategyKind::StochasticCracking,
        ] {
            let run = run_strategy(strategy, &keys, &workload);
            println!(
                "{:<32} {:<22} {:>14.1} {:>16.1} {:>18.1}",
                label,
                run.label,
                run.time_ns.total_cost() / 1e6,
                run.time_ns.mean_cost() / 1e3,
                run.time_ns.tail_mean(100) / 1e3
            );
        }
    }

    // "only queried ranges are optimized": crack only a narrow hot range and
    // inspect the physical state
    let hot_low = (config.rows / 2) as i64;
    let hot_high = hot_low + (config.rows / 20) as i64;
    let mut index = CrackedIndex::from_keys(&keys);
    let workload = QueryWorkload::generate(
        WorkloadKind::UniformRandom,
        500,
        hot_low,
        hot_high,
        0.01,
        config.seed + 9,
    );
    for q in workload.iter() {
        let _ = index.query_range(q.low, q.high);
    }
    let pieces = index.pieces();
    let pieces_in_hot = pieces
        .iter()
        .filter(|p| p.low.unwrap_or(i64::MIN) >= hot_low && p.high.unwrap_or(i64::MAX) <= hot_high)
        .count();
    println!(
        "\n## partial optimization: 500 queries confined to 5% of the domain\n\
         pieces total: {}, pieces inside the hot 5% range: {}, largest piece outside: {} rows",
        pieces.len(),
        pieces_in_hot,
        pieces
            .iter()
            .filter(|p| p.high.is_none_or(|h| h <= hot_low) || p.low.is_none_or(|l| l >= hot_high))
            .map(|p| p.len())
            .max()
            .unwrap_or(0)
    );
    println!(
        "\nshape check: during the first pass of the sequential sweep plain cracking pays \
         near-scan cost per query while stochastic cracking's auxiliary cracks keep its \
         cost decaying (the gap shows up in the total and tail-mean columns); under skew \
         the hot regions are cracked into fine pieces and the cold ranges stay as a few \
         huge untouched pieces."
    );
}
