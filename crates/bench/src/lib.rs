//! Shared harness plumbing for the experiment binaries (`e01`…`e18`).
//!
//! Each binary reproduces one table/figure listed in `EXPERIMENTS.md`. They
//! all follow the same recipe: generate a column and a query sequence from
//! `aidx-workloads`, run one or more indexing strategies over it while
//! recording per-query wall-clock time *and* per-query logical effort, and
//! print the derived benchmark metrics. This crate holds the shared pieces so
//! the binaries stay small and uniform.

#![warn(missing_docs)]

use aidx_columnstore::column::Column;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::Key;
use aidx_core::strategy::StrategyKind;
use aidx_core::{Database, Query};
use aidx_workloads::metrics::CostSeries;
use aidx_workloads::query::QueryWorkload;
use std::time::Instant;

/// Experiment sizing, overridable through environment variables so that quick
/// smoke runs and full runs use the same binaries:
///
/// * `AIDX_ROWS` — number of rows in the base column (default 2,000,000)
/// * `AIDX_QUERIES` — number of queries per sequence (default 1,000)
/// * `AIDX_SELECTIVITY` — per-query selectivity (default 0.01)
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Number of rows in the generated column.
    pub rows: usize,
    /// Number of queries per sequence.
    pub queries: usize,
    /// Fraction of the key domain each query covers.
    pub selectivity: f64,
    /// Seed for data and workload generation.
    pub seed: u64,
}

impl Default for HarnessConfig {
    /// The sizing the environment asks for. A variable that is set to
    /// something unparsable ends the process (status 2) with a message
    /// naming it: running the 2 M-row default instead would look like a hang.
    fn default() -> Self {
        HarnessConfig::from_lookup(|name| std::env::var(name).ok()).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2)
        })
    }
}

impl HarnessConfig {
    /// The sizing `lookup` describes: a variable it does not know keeps its
    /// default, one it knows must parse.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        fn setting<T: std::str::FromStr + std::fmt::Display>(
            lookup: &impl Fn(&str) -> Option<String>,
            name: &str,
            default: T,
        ) -> Result<T, String> {
            let Some(raw) = lookup(name) else {
                return Ok(default);
            };
            raw.parse().map_err(|_| {
                format!("{name}={raw:?} is not a valid value (unset, it defaults to {default})")
            })
        }
        Ok(HarnessConfig {
            rows: setting(&lookup, "AIDX_ROWS", 2_000_000)?,
            queries: setting(&lookup, "AIDX_QUERIES", 1_000)?,
            selectivity: setting(&lookup, "AIDX_SELECTIVITY", 0.01)?,
            seed: 42,
        })
    }
}

/// The measurements of one strategy over one query sequence.
#[derive(Debug, Clone)]
pub struct StrategyRun {
    /// Strategy label.
    pub label: String,
    /// Wall-clock nanoseconds per query (query 0 includes the strategy's
    /// build/initialization time, which is how the benchmark defines the
    /// first-query cost).
    pub time_ns: CostSeries,
    /// Logical effort (work units) per query, same convention.
    pub effort: CostSeries,
    /// Checksum of result cardinalities (sanity check across strategies).
    pub checksum: u64,
    /// Auxiliary memory at the end of the run, in bytes.
    pub auxiliary_bytes: usize,
    /// Whether the strategy reported convergence at the end of the run.
    pub converged: bool,
}

/// Run `strategy` over `workload` against `keys`, measuring per-query time
/// and effort. The strategy's construction cost is folded into query 0.
pub fn run_strategy(strategy: StrategyKind, keys: &[Key], workload: &QueryWorkload) -> StrategyRun {
    let build_start = Instant::now();
    let mut index = strategy.build(keys);
    let build_ns = build_start.elapsed().as_nanos() as f64;
    let build_effort = index.effort() as f64;

    let mut time_ns = CostSeries::new(strategy.label());
    let mut effort = CostSeries::new(strategy.label());
    let mut previous_effort = index.effort();
    let mut checksum = 0u64;
    for (i, q) in workload.iter().enumerate() {
        let start = Instant::now();
        checksum += index.query_range(q.low, q.high).count() as u64;
        let mut elapsed = start.elapsed().as_nanos() as f64;
        let mut spent = (index.effort() - previous_effort) as f64;
        if i == 0 {
            elapsed += build_ns;
            spent += build_effort;
        }
        time_ns.push(elapsed);
        effort.push(spent);
        previous_effort = index.effort();
    }
    StrategyRun {
        label: strategy.label().to_owned(),
        time_ns,
        effort,
        checksum,
        auxiliary_bytes: index.auxiliary_bytes(),
        converged: index.is_converged(),
    }
}

/// Run `strategy` over `workload` through the `Database`/`Session` facade —
/// the end-to-end path a client sees: catalog snapshot, planner, adaptive
/// index routing, result assembly. The column is registered as table
/// `"data"`, column `"k"`; the first query pays the strategy's build cost
/// inherently, because the facade creates indexes lazily on first touch
/// (no explicit build phase exists at this level).
pub fn run_strategy_facade(
    strategy: StrategyKind,
    keys: &[Key],
    workload: &QueryWorkload,
) -> StrategyRun {
    let db = Database::builder().default_strategy(strategy).build();
    db.create_table(
        "data",
        Table::from_columns(vec![("k", Column::from_i64(keys.to_vec()))])
            .expect("single-column table construction cannot fail"),
    )
    .expect("fresh database has no table named 'data'");
    let session = db.session();

    let mut time_ns = CostSeries::new(strategy.label());
    let mut effort = CostSeries::new(strategy.label());
    let mut previous_effort = 0u64;
    let mut checksum = 0u64;
    for q in workload.iter() {
        let query = Query::table("data").range("k", q.low, q.high);
        let start = Instant::now();
        let result = session
            .execute(&query)
            .expect("range query on int64 column");
        checksum += result.row_count() as u64;
        time_ns.push(start.elapsed().as_nanos() as f64);
        let total = db.total_effort();
        effort.push((total - previous_effort) as f64);
        previous_effort = total;
    }
    let stats = db.index_stats();
    let info = stats.first();
    StrategyRun {
        label: strategy.label().to_owned(),
        time_ns,
        effort,
        checksum,
        auxiliary_bytes: info.map_or(0, |i| i.auxiliary_bytes),
        converged: info.is_some_and(|i| i.converged),
    }
}

/// Run a closure-based index (for structures that do not implement the
/// [`aidx_core::strategy::AdaptiveIndex`] trait, e.g. the sideways-cracking map sets), measuring
/// wall-clock time per query.
pub fn run_custom<F>(label: &str, workload: &QueryWorkload, mut answer: F) -> (CostSeries, u64)
where
    F: FnMut(Key, Key) -> usize,
{
    let mut series = CostSeries::new(label);
    let mut checksum = 0u64;
    for q in workload.iter() {
        let start = Instant::now();
        checksum += answer(q.low, q.high) as u64;
        series.push(start.elapsed().as_nanos() as f64);
    }
    (series, checksum)
}

/// Pretty-print a per-query curve at logarithmically spaced query indices —
/// the textual equivalent of the log-log per-query figures in the papers.
pub fn print_curve(title: &str, runs: &[&CostSeries], unit: &str) {
    println!("\n## {title} (per-query {unit}, sampled at selected queries)");
    let indices = sample_indices(runs.iter().map(|r| r.len()).max().unwrap_or(0));
    print!("{:<12}", "query#");
    for run in runs {
        print!("{:>22}", run.label);
    }
    println!();
    for &i in &indices {
        print!("{:<12}", i + 1);
        for run in runs {
            match run.per_query.get(i) {
                Some(v) => print!("{:>22.0}", v),
                None => print!("{:>22}", "-"),
            }
        }
        println!();
    }
}

/// Logarithmically spaced sample points: 1, 2, 5, 10, 20, 50, ...
pub fn sample_indices(len: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut step = 1usize;
    loop {
        for factor in [1usize, 2, 5] {
            let index = step * factor;
            if index > len {
                return out;
            }
            out.push(index - 1);
        }
        step *= 10;
        if step > len {
            return out;
        }
    }
}

/// Print the cumulative-cost table and pairwise crossovers against the first
/// series (usually the scan baseline).
pub fn print_cumulative(title: &str, runs: &[&CostSeries], unit: &str) {
    println!("\n## {title} (cumulative {unit})");
    println!(
        "{:<22} {:>18} {:>18} {:>26}",
        "technique", "after 10 queries", "after all queries", "overtakes first series at"
    );
    let baseline = runs.first();
    for run in runs {
        let cumulative = run.cumulative();
        let after_10 = cumulative
            .get(9)
            .or(cumulative.last())
            .copied()
            .unwrap_or(0.0);
        let total = cumulative.last().copied().unwrap_or(0.0);
        let crossover = match baseline {
            Some(base) if !std::ptr::eq(*base, *run) => run
                .cumulative_crossover(base)
                .map_or("never".to_owned(), |q| format!("query {}", q + 1)),
            _ => "-".to_owned(),
        };
        println!(
            "{:<22} {:>18.0} {:>18.0} {:>26}",
            run.label, after_10, total, crossover
        );
    }
}

/// Assert that every run produced the same result cardinalities.
pub fn assert_checksums_match(runs: &[StrategyRun]) {
    if let Some(first) = runs.first() {
        for run in runs {
            assert_eq!(
                run.checksum, first.checksum,
                "strategy {} disagrees with {}",
                run.label, first.label
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_workloads::data::{generate_keys, DataDistribution};
    use aidx_workloads::query::WorkloadKind;

    #[test]
    fn sample_indices_are_log_spaced_and_in_bounds() {
        assert_eq!(sample_indices(0), Vec::<usize>::new());
        assert_eq!(sample_indices(3), vec![0, 1]);
        let s = sample_indices(1000);
        assert_eq!(s.first(), Some(&0));
        assert!(s.contains(&99));
        assert!(s.iter().all(|&i| i < 1000));
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn run_strategy_produces_consistent_measurements() {
        let keys = generate_keys(5000, DataDistribution::UniformPermutation, 1);
        let workload = QueryWorkload::generate(WorkloadKind::UniformRandom, 50, 0, 5000, 0.01, 2);
        let scan = run_strategy(StrategyKind::FullScan, &keys, &workload);
        let crack = run_strategy(StrategyKind::Cracking, &keys, &workload);
        assert_eq!(scan.checksum, crack.checksum);
        assert_eq!(scan.time_ns.len(), 50);
        assert_eq!(crack.effort.len(), 50);
        assert!(crack.auxiliary_bytes > 0);
        assert_eq!(scan.auxiliary_bytes, 0);
        assert_checksums_match(&[scan, crack]);
    }

    #[test]
    fn facade_run_agrees_with_raw_run() {
        let keys = generate_keys(5000, DataDistribution::UniformPermutation, 1);
        let workload = QueryWorkload::generate(WorkloadKind::UniformRandom, 50, 0, 5000, 0.01, 2);
        let raw = run_strategy(StrategyKind::Cracking, &keys, &workload);
        let facade = run_strategy_facade(StrategyKind::Cracking, &keys, &workload);
        assert_eq!(raw.checksum, facade.checksum);
        assert_eq!(facade.time_ns.len(), 50);
        assert!(facade.auxiliary_bytes > 0);
        assert!(facade.effort.total_cost() > 0.0);
    }

    #[test]
    fn run_custom_measures_closures() {
        let workload = QueryWorkload::generate(WorkloadKind::UniformRandom, 10, 0, 100, 0.1, 3);
        let (series, checksum) = run_custom("const", &workload, |_, _| 7);
        assert_eq!(series.len(), 10);
        assert_eq!(checksum, 70);
    }

    /// The configuration when only `name` is set, to `value`.
    fn config_with(name: &str, value: &str) -> Result<HarnessConfig, String> {
        HarnessConfig::from_lookup(|asked| (asked == name).then(|| value.to_owned()))
    }

    #[test]
    fn unparsable_rows_are_an_error_naming_the_variable_and_the_value() {
        let message = config_with("AIDX_ROWS", "garbage").unwrap_err();
        assert!(
            message.contains("AIDX_ROWS") && message.contains("garbage"),
            "{message}"
        );
        assert!(config_with("AIDX_ROWS", "-1").is_err());
        assert_eq!(config_with("AIDX_ROWS", "20000").unwrap().rows, 20_000);
    }

    #[test]
    fn unparsable_queries_are_an_error_naming_the_variable_and_the_value() {
        let message = config_with("AIDX_QUERIES", "3.5").unwrap_err();
        assert!(
            message.contains("AIDX_QUERIES") && message.contains("3.5"),
            "{message}"
        );
        assert_eq!(config_with("AIDX_QUERIES", "30").unwrap().queries, 30);
    }

    #[test]
    fn unparsable_selectivity_is_an_error_naming_the_variable_and_the_value() {
        let message = config_with("AIDX_SELECTIVITY", "1%").unwrap_err();
        assert!(
            message.contains("AIDX_SELECTIVITY") && message.contains("1%"),
            "{message}"
        );
        assert_eq!(
            config_with("AIDX_SELECTIVITY", "0.5").unwrap().selectivity,
            0.5
        );
    }

    #[test]
    fn unset_variables_keep_their_defaults() {
        let config = HarnessConfig::from_lookup(|_| None).unwrap();
        assert_eq!((config.rows, config.queries), (2_000_000, 1_000));
        assert_eq!(config.selectivity, 0.01);
    }

    #[test]
    fn default_config_reads_environment() {
        let config = HarnessConfig::default();
        assert!(config.rows > 0);
        assert!(config.queries > 0);
        assert!(config.selectivity > 0.0);
    }
}
