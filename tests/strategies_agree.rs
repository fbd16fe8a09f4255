//! Cross-crate integration tests: every indexing strategy in the workspace
//! must give exactly the same answers on the same workloads, while exhibiting
//! the initialization/convergence behaviour the literature describes.

use adaptive_indexing::baselines::FullSortIndex;
use adaptive_indexing::core::strategy::{HybridKind, StrategyKind};
use adaptive_indexing::workloads::data::{generate_keys, DataDistribution};
use adaptive_indexing::workloads::metrics::CostSeries;
use adaptive_indexing::workloads::query::{QueryWorkload, WorkloadKind};

fn reference_count(keys: &[i64], low: i64, high: i64) -> usize {
    keys.iter().filter(|&&k| k >= low && k < high).count()
}

#[test]
fn all_strategies_agree_with_a_sorted_reference_on_random_workloads() {
    let n = 20_000;
    let keys = generate_keys(n, DataDistribution::UniformPermutation, 2024);
    let workload = QueryWorkload::generate(WorkloadKind::UniformRandom, 120, 0, n as i64, 0.02, 99);
    let mut reference = FullSortIndex::from_keys(&keys);

    for kind in StrategyKind::all_defaults() {
        let mut index = kind.build(&keys);
        for q in workload.iter() {
            let expected = reference.count_range(q.low, q.high);
            let got = index.query_range(q.low, q.high).count();
            assert_eq!(got, expected, "{} on [{}, {})", kind.label(), q.low, q.high);
        }
    }
}

#[test]
fn all_strategies_agree_on_skewed_and_sequential_workloads() {
    let n = 10_000;
    let keys = generate_keys(n, DataDistribution::LowCardinality { cardinality: 257 }, 7);
    for workload_kind in [
        WorkloadKind::Skewed {
            hot_regions: 8,
            exponent: 1.3,
        },
        WorkloadKind::Sequential,
        WorkloadKind::Point,
    ] {
        let workload = QueryWorkload::generate(workload_kind, 80, 0, 257, 0.05, 5);
        let hybrids = HybridKind::all().map(|algorithm| StrategyKind::Hybrid { algorithm });
        for kind in [
            StrategyKind::FullScan,
            StrategyKind::Cracking,
            StrategyKind::StochasticCracking,
            StrategyKind::AdaptiveMerging { run_size: 1024 },
        ]
        .into_iter()
        .chain(hybrids)
        {
            let mut index = kind.build(&keys);
            for q in workload.iter() {
                assert_eq!(
                    index.query_range(q.low, q.high).count(),
                    reference_count(&keys, q.low, q.high),
                    "{} / {:?}",
                    kind.label(),
                    workload_kind
                );
            }
        }
    }
}

#[test]
fn cracking_converges_and_scan_does_not() {
    let n = 50_000;
    let keys = generate_keys(n, DataDistribution::UniformPermutation, 1);
    let workload = QueryWorkload::generate(WorkloadKind::UniformRandom, 400, 0, n as i64, 0.01, 3);

    let mut cracking = StrategyKind::Cracking.build(&keys);
    let mut scan = StrategyKind::FullScan.build(&keys);

    let mut cracking_series = CostSeries::new("cracking");
    let mut scan_series = CostSeries::new("scan");
    let mut cracking_prev = cracking.effort();
    let mut scan_prev = scan.effort();
    for q in workload.iter() {
        let _ = cracking.query_range(q.low, q.high);
        let _ = scan.query_range(q.low, q.high);
        cracking_series.push((cracking.effort() - cracking_prev) as f64);
        scan_series.push((scan.effort() - scan_prev) as f64);
        cracking_prev = cracking.effort();
        scan_prev = scan.effort();
    }

    // scan: flat cost; cracking: decaying cost that ends well below scan
    let scan_cost = scan_series.first_query_cost().unwrap();
    assert!(scan_series.tail_mean(50) >= scan_cost * 0.99);
    assert!(cracking_series.tail_mean(50) < scan_cost * 0.1);
    // cracking's first query is within a small factor of a scan
    let overhead = cracking_series.first_query_overhead(scan_cost).unwrap();
    assert!(overhead < 4.0, "first-query overhead {overhead}");
    // and cumulative cost crosses below the scan within the sequence
    assert!(cracking_series.cumulative_crossover(&scan_series).is_some());
}

#[test]
fn adaptive_merging_invests_more_up_front_but_converges_sooner() {
    let n = 50_000;
    let keys = generate_keys(n, DataDistribution::UniformPermutation, 6);
    let workload = QueryWorkload::generate(WorkloadKind::UniformRandom, 300, 0, n as i64, 0.01, 8);

    let mut cracking = StrategyKind::Cracking.build(&keys);
    let mut merging = StrategyKind::AdaptiveMerging { run_size: 4096 }.build(&keys);

    let mut cracking_series = CostSeries::new("cracking");
    let mut merging_series = CostSeries::new("adaptive-merging");
    let mut cracking_prev = cracking.effort();
    let mut merging_prev = merging.effort();
    for q in workload.iter() {
        let _ = cracking.query_range(q.low, q.high);
        let _ = merging.query_range(q.low, q.high);
        cracking_series.push((cracking.effort() - cracking_prev) as f64);
        merging_series.push((merging.effort() - merging_prev) as f64);
        cracking_prev = cracking.effort();
        merging_prev = merging.effort();
    }

    // first query: merging (runs were sorted at build time, counted in effort
    // before the series starts) — compare initialization via total effort after
    // one query instead
    let merging_total_start = merging_series.first_query_cost().unwrap();
    let cracking_total_start = cracking_series.first_query_cost().unwrap();
    assert!(cracking_total_start > 0.0 && merging_total_start > 0.0);

    // convergence: by the end, adaptive merging should answer at (near) index
    // cost, and overall it should have converged at least as fast as cracking
    let target = 1000.0; // ~selectivity * n work units just to emit the result
    let merging_convergence = merging_series.queries_to_convergence(target, 1.0, 5);
    assert!(
        merging_convergence.is_some(),
        "adaptive merging should reach index-like per-query cost"
    );
    assert!(merging.is_converged() || merging_series.tail_mean(20) < 5_000.0);
    assert!(cracking_series.tail_mean(20) < 20_000.0);
}

#[test]
fn workload_report_reproduces_the_benchmark_table_shape() {
    let n = 30_000;
    let keys = generate_keys(n, DataDistribution::UniformPermutation, 12);
    let workload = QueryWorkload::generate(WorkloadKind::UniformRandom, 200, 0, n as i64, 0.01, 13);

    let mut report = adaptive_indexing::workloads::metrics::WorkloadReport::new(
        "integration",
        "uniform random 1%",
    );
    report.scan_cost = n as f64;
    report.full_index_cost = (n as f64) * 0.01 * 2.0 + 32.0;

    for kind in [
        StrategyKind::FullScan,
        StrategyKind::FullSort,
        StrategyKind::Cracking,
        StrategyKind::AdaptiveMerging { run_size: 4096 },
        StrategyKind::Hybrid {
            algorithm: HybridKind::CrackSort,
        },
    ] {
        let mut index = kind.build(&keys);
        let mut series = CostSeries::new(kind.label());
        let mut prev = index.effort();
        for q in workload.iter() {
            let _ = index.query_range(q.low, q.high);
            series.push((index.effort() - prev) as f64);
            prev = index.effort();
        }
        report.add_series(series);
    }

    let table = report.render_table(1.0, 5);
    assert!(table.contains("full-scan"));
    assert!(table.contains("cracking"));
    assert!(table.contains("adaptive-merging"));
    // the non-adaptive scan never converges to index-like cost
    let scan_series = report.series_by_label("full-scan").unwrap();
    assert_eq!(
        scan_series.queries_to_convergence(report.full_index_cost, 1.0, 5),
        None
    );
    // cracking and the hybrid do converge
    for label in ["cracking", "hybrid-crack-sort"] {
        let series = report.series_by_label(label).unwrap();
        assert!(
            series
                .queries_to_convergence(report.full_index_cost, 1.0, 5)
                .is_some(),
            "{label} never converged"
        );
    }
}
