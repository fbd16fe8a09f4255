//! E12 — Parallel query engine scaling: chunk-parallel scans vs. the
//! serial kernel, and what the worker count does to the adaptive index.
//!
//! Three measurements over the same uniformly shuffled key column, each at
//! parallelism 1, 2, 4 and 8 (worker counts are capped by nothing — on a
//! box with fewer cores the extra workers simply time-share and the speedup
//! flattens at the core count):
//!
//! 1. **Cold scan** — a zone-mapped, multi-chunk segment scanned end to end
//!    through the `ParallelScan` operator. This is the executor's scan
//!    fallback path; the acceptance target is ≥2× over serial at
//!    `parallelism=4` on a multi-core box.
//! 2. **Cold first query** — the facade's first range query on a fresh
//!    column: the initialization cost adaptive indexing charges its first
//!    query. It builds the column's one index serially at every worker
//!    count, so this row measures no speedup.
//! 3. **Adaptive refinement sequence** — a full random range-query workload
//!    through the facade. Each query cracks the one index under the
//!    column's latch; what runs in parallel is the scan and filter work
//!    around it, which a single-column range workload barely has.
//!
//! Every configuration's result cardinalities are checked against the
//! serial run, and its index statistics too: the parallel engine must
//! answer exactly like the serial kernel, through the same index.

use aidx_bench::HarnessConfig;
use aidx_columnstore::column::Column;
use aidx_columnstore::ops::select::{scan_select_segment, Predicate};
use aidx_columnstore::segment::Segment;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::Key;
use aidx_core::strategy::StrategyKind;
use aidx_core::Database;
use aidx_parallel::{parallel_scan_select, ThreadPool};
use aidx_workloads::data::{generate_keys, DataDistribution};
use aidx_workloads::query::{QueryWorkload, WorkloadKind};
use std::time::Instant;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Median-of-three wall-clock measurement.
fn measure<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(3);
    let mut last = None;
    for _ in 0..3 {
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[1], last.expect("three runs happened"))
}

fn print_row(label: &str, workers: usize, seconds: f64, serial_seconds: f64, checksum: u64) {
    println!(
        "{label:<18} {workers:>8} {:>14.1} {:>12.2}x {checksum:>16}",
        seconds * 1e3,
        serial_seconds / seconds.max(1e-12),
    );
}

fn main() {
    let config = HarnessConfig::default();
    let rows = config.rows;
    let queries = config.queries.min(200);
    let keys: Vec<Key> = generate_keys(rows, DataDistribution::UniformPermutation, config.seed);
    let workload = QueryWorkload::generate(
        WorkloadKind::UniformRandom,
        queries,
        0,
        rows as Key,
        config.selectivity,
        config.seed + 1,
    );
    println!("# E12 parallel scaling — {rows} rows, {queries} queries, workers {WORKER_COUNTS:?}");
    println!(
        "\n{:<18} {:>8} {:>14} {:>13} {:>16}",
        "phase", "workers", "median ms", "speedup", "checksum"
    );

    // 1. cold scan through the ParallelScan operator (multi-chunk segment,
    // shuffled data: zone maps cannot prune, every chunk is read)
    let segment = Segment::from_vec(keys.clone());
    let predicate = Predicate::range(0, (rows / 50) as Key);
    let mut serial_scan = 0.0;
    for workers in WORKER_COUNTS {
        let pool = ThreadPool::new(workers);
        let (seconds, (positions, _)) =
            measure(|| parallel_scan_select(&pool, &segment, &predicate));
        if workers == 1 {
            serial_scan = seconds;
            let (reference, _) = scan_select_segment(&segment, &predicate);
            assert_eq!(positions, reference, "parallel scan must equal serial");
        }
        print_row(
            "cold-scan",
            workers,
            seconds,
            serial_scan,
            positions.len() as u64,
        );
    }

    // 2 + 3. the facade: cold first query, then the adaptive refinement
    // sequence (both per worker count, on identical fresh databases)
    let mut serial_first = 0.0;
    let mut serial_first_rows = None;
    let mut serial_seq = 0.0;
    let mut serial_checksum = None;
    let mut serial_stats = None;
    for workers in WORKER_COUNTS {
        let db = Database::builder()
            .default_strategy(StrategyKind::Cracking)
            .parallelism(workers)
            .try_build()
            .expect("valid configuration");
        db.create_table(
            "data",
            Table::from_columns(vec![("k", Column::from_i64(keys.clone()))])
                .expect("single-column table"),
        )
        .expect("fresh database");
        let session = db.session();

        let first = workload.iter().next().expect("non-empty workload");
        let (first_seconds, first_rows) = measure(|| {
            // drop + lazy rebuild makes every repetition a true cold build
            db.index_manager()
                .drop_index(&aidx_core::ColumnId::new("data", "k"));
            session
                .query("data")
                .range("k", first.low, first.high)
                .execute()
                .expect("range query")
                .row_count()
        });
        match serial_first_rows {
            None => {
                serial_first = first_seconds;
                serial_first_rows = Some(first_rows);
            }
            Some(reference) => assert_eq!(
                first_rows, reference,
                "parallel cold build must answer exactly like serial"
            ),
        }
        print_row(
            "cold-first-query",
            workers,
            first_seconds,
            serial_first,
            first_rows as u64,
        );

        let (seq_seconds, checksum) = measure(|| {
            let mut checksum = 0u64;
            for q in workload.iter() {
                checksum += session
                    .query("data")
                    .range("k", q.low, q.high)
                    .execute()
                    .expect("range query")
                    .row_count() as u64;
            }
            checksum
        });
        match serial_checksum {
            None => {
                serial_seq = seq_seconds;
                serial_checksum = Some(checksum);
            }
            Some(reference) => assert_eq!(
                checksum, reference,
                "parallel refinement must answer exactly like serial"
            ),
        }
        print_row(
            "refine-sequence",
            workers,
            seq_seconds,
            serial_seq,
            checksum,
        );
        let stats = db.index_stats();
        assert!(!stats.is_empty(), "the column is indexed");
        match &serial_stats {
            None => serial_stats = Some(stats),
            Some(reference) => {
                assert_eq!(&stats, reference, "index stats must equal the serial run's")
            }
        }
    }

    println!(
        "\ntarget: cold-scan speedup >= 2x at parallelism=4 on a multi-core \
         box (speedups flatten at the machine's core count; this box has {} \
         cores); parallel checksums are asserted equal to serial",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
}
