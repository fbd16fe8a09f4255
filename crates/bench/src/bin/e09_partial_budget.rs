//! E9 — Partial cracking under a storage budget (SIGMOD 2009, partial maps):
//! sweep the auxiliary-storage budget from a few percent of the column to
//! unlimited and report query cost, evictions and base-column rescans.

use aidx_bench::HarnessConfig;
use aidx_cracking::partial::PartialCrackedIndex;
use aidx_cracking::selection::CrackedIndex;
use aidx_cracking::CrackerColumn;
use aidx_workloads::data::{generate_keys, DataDistribution};
use aidx_workloads::query::{QueryWorkload, WorkloadKind};
use std::time::Instant;

fn main() {
    let config = HarnessConfig::default();
    let rows = config.rows.min(2_000_000);
    println!(
        "# E9 partial cracking under a storage budget — {} rows, {} queries, {:.1}% selectivity",
        rows,
        config.queries,
        config.selectivity * 100.0
    );
    let keys = generate_keys(rows, DataDistribution::UniformPermutation, config.seed);
    // a skewed workload: partial structures shine when only parts of the
    // domain are ever touched
    let workload = QueryWorkload::generate(
        WorkloadKind::Skewed {
            hot_regions: 10,
            exponent: 1.5,
        },
        config.queries,
        0,
        rows as i64,
        config.selectivity,
        config.seed + 10,
    );

    let full_copy_bytes = rows * CrackerColumn::tuple_bytes(0, rows as i64);
    let budgets = [
        ("1%", full_copy_bytes / 100),
        ("5%", full_copy_bytes / 20),
        ("10%", full_copy_bytes / 10),
        ("25%", full_copy_bytes / 4),
        ("50%", full_copy_bytes / 2),
        ("100%", full_copy_bytes),
        ("unbounded", usize::MAX),
    ];

    println!(
        "\n{:<12} {:>14} {:>14} {:>12} {:>14} {:>16}",
        "budget", "total (ms)", "frag bytes", "fragments", "evictions", "base rescans"
    );
    let mut reference_checksum = None;
    for (label, budget) in budgets {
        let mut index = PartialCrackedIndex::new(&keys, budget);
        let start = Instant::now();
        let mut checksum = 0u64;
        for q in workload.iter() {
            checksum += index.query_range(q.low, q.high).len() as u64;
        }
        let elapsed = start.elapsed();
        match reference_checksum {
            None => reference_checksum = Some(checksum),
            Some(reference) => assert_eq!(reference, checksum, "budget {label}"),
        }
        println!(
            "{:<12} {:>14.1} {:>14} {:>12} {:>14} {:>16}",
            label,
            elapsed.as_secs_f64() * 1e3,
            index.fragment_bytes(),
            index.fragment_count(),
            index.evictions(),
            index.base_scans()
        );
    }

    // reference: unconstrained full cracking
    let mut full = CrackedIndex::from_keys(&keys);
    let start = Instant::now();
    let mut checksum = 0u64;
    for q in workload.iter() {
        checksum += full.query_range(q.low, q.high).len() as u64;
    }
    assert_eq!(checksum, reference_checksum.unwrap());
    println!(
        "{:<12} {:>14.1} {:>14} {:>12} {:>14} {:>16}",
        "full copy",
        start.elapsed().as_secs_f64() * 1e3,
        full.column().byte_size(),
        full.piece_count(),
        "-",
        1
    );
    println!(
        "\nshape check: with a skewed workload, a budget of 10-25% of the column already \
         answers most queries from resident fragments; tiny budgets stay correct but pay \
         repeated base-column rescans (the paper's storage/performance trade-off)."
    );
}
