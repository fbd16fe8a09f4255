//! E10 — The indexing spectrum (tutorial Sections 1–2): total workload cost of
//! offline indexing, online indexing, soft indexes, adaptive indexing and no
//! indexing, as the workload becomes less predictable (the offline advisor's
//! sample workload matches the real workload less and less). Online tuning
//! and soft indexes are one monitor-then-build index: online tuning decides
//! after every query, soft indexes every 10 queries at half the build cost.

use aidx_baselines::{FullScanIndex, FullSortIndex, OfflineAdvisor, WorkloadSample};
use aidx_bench::HarnessConfig;
use aidx_core::strategy::StrategyKind;
use aidx_workloads::data::{generate_keys, DataDistribution};
use aidx_workloads::query::{QueryWorkload, WorkloadKind};
use std::time::Instant;

fn main() {
    let config = HarnessConfig::default();
    let rows = config.rows.min(2_000_000);
    println!(
        "# E10 the indexing spectrum — {} rows per column, 3 columns, {} queries",
        rows, config.queries
    );
    println!(
        "the real workload only queries column 'a'; the offline advisor's sample predicts\n\
         the real workload with varying accuracy (predictability)\n"
    );

    let columns = ["a", "b", "c"];
    let keys: Vec<Vec<i64>> = (0..columns.len())
        .map(|i| {
            generate_keys(
                rows,
                DataDistribution::UniformPermutation,
                config.seed + i as u64,
            )
        })
        .collect();
    let workload = QueryWorkload::generate(
        WorkloadKind::UniformRandom,
        config.queries,
        0,
        rows as i64,
        config.selectivity,
        config.seed + 11,
    );

    println!(
        "{:<26} {:>22} {:>22} {:>22}",
        "approach", "sample correct", "sample half-right", "sample wrong"
    );

    // scan / online / soft / adaptive do not depend on the sample quality; run once
    let scan_total = {
        let mut index = FullScanIndex::from_keys(&keys[0]);
        timed(|| {
            for q in workload.iter() {
                std::hint::black_box(index.query_range(q.low, q.high).len());
            }
        })
    };
    let [online_total, soft_total, adaptive_total] = [
        StrategyKind::OnlineTuning,
        StrategyKind::SoftIndexes,
        StrategyKind::Cracking,
    ]
    .map(|kind| {
        let mut index = kind.build(&keys[0]);
        timed(|| {
            for q in workload.iter() {
                std::hint::black_box(index.query_range(q.low, q.high).count());
            }
        })
    });

    // offline advisor: its cost depends on which columns the sample makes it index
    let mut offline_totals = Vec::new();
    for scenario in ["correct", "half", "wrong"] {
        let sample: Vec<WorkloadSample> = match scenario {
            // sample matches reality: only 'a' is queried
            "correct" => vec![WorkloadSample::new("a", 0, rows as i64 / 100, 1000)],
            // sample hedges: 'a' and 'b' look equally hot
            "half" => vec![
                WorkloadSample::new("a", 0, rows as i64 / 100, 500),
                WorkloadSample::new("b", 0, rows as i64 / 100, 500),
            ],
            // sample is wrong: predicts 'b' and 'c', misses 'a' entirely
            _ => vec![
                WorkloadSample::new("b", 0, rows as i64 / 100, 500),
                WorkloadSample::new("c", 0, rows as i64 / 100, 500),
            ],
        };
        let mut advisor = OfflineAdvisor::new();
        for (name, k) in columns.iter().zip(keys.iter()) {
            advisor.register_keys(*name, k);
        }
        let recommended = advisor.recommended_columns(&sample, usize::MAX);
        let total = timed(|| {
            // pay for building whatever was recommended
            let mut indexed_a: Option<FullSortIndex> = None;
            for name in &recommended {
                let i = columns.iter().position(|c| c == name).unwrap();
                let index = FullSortIndex::from_keys(&keys[i]);
                if name == "a" {
                    indexed_a = Some(index);
                }
            }
            // answer the real workload with whatever exists for 'a'
            match indexed_a {
                Some(mut index) => {
                    for q in workload.iter() {
                        std::hint::black_box(index.count_range(q.low, q.high));
                    }
                }
                None => {
                    let mut scan = FullScanIndex::from_keys(&keys[0]);
                    for q in workload.iter() {
                        std::hint::black_box(scan.query_range(q.low, q.high).len());
                    }
                }
            }
        });
        offline_totals.push((scenario, recommended, total));
    }

    println!(
        "{:<26} {:>22} {:>22} {:>22}",
        "offline what-if advisor",
        format!("{:.0} ms", offline_totals[0].2),
        format!("{:.0} ms", offline_totals[1].2),
        format!("{:.0} ms", offline_totals[2].2),
    );
    for (scenario, recommended, _) in &offline_totals {
        println!("    sample {scenario:<9} -> indexes built: {recommended:?}");
    }
    println!(
        "{:<26} {:>22} {:>22} {:>22}",
        "no index (scan)",
        format!("{scan_total:.0} ms"),
        format!("{scan_total:.0} ms"),
        format!("{scan_total:.0} ms")
    );
    println!(
        "{:<26} {:>22} {:>22} {:>22}",
        "online tuning",
        format!("{online_total:.0} ms"),
        format!("{online_total:.0} ms"),
        format!("{online_total:.0} ms")
    );
    println!(
        "{:<26} {:>22} {:>22} {:>22}",
        "soft indexes",
        format!("{soft_total:.0} ms"),
        format!("{soft_total:.0} ms"),
        format!("{soft_total:.0} ms")
    );
    println!(
        "{:<26} {:>22} {:>22} {:>22}",
        "adaptive (cracking)",
        format!("{adaptive_total:.0} ms"),
        format!("{adaptive_total:.0} ms"),
        format!("{adaptive_total:.0} ms")
    );
    println!(
        "\nshape check: offline tuning wins only when its sample workload is right — when \
         the prediction is wrong it pays for useless indexes and still scans; online and \
         soft indexing recover but penalize the early queries; adaptive indexing is \
         insensitive to workload predictions and close to the best case everywhere."
    );
}

fn timed(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}
