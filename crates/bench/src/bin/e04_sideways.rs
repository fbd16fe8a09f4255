//! E4 — Sideways cracking (SIGMOD 2009): multi-column selections with tuple
//! reconstruction. Compares (a) selection cracking + late materialization
//! fetches against (b) aligned cracker maps, for 1–4 projected attributes,
//! in time and in effort (`CrackStats::total_effort`: the maps' copies,
//! compares, swaps and reads against the one cracker column's), and shows
//! the partial-materialization property (unqueried tails cost nothing).

use aidx_bench::HarnessConfig;
use aidx_columnstore::ops::project;
use aidx_columnstore::position::PositionList;
use aidx_cracking::selection::CrackedIndex;
use aidx_cracking::sideways::MapSet;
use aidx_workloads::data::generate_multi_column_table;
use aidx_workloads::query::{QueryWorkload, WorkloadKind};
use std::time::Instant;

fn main() {
    let config = HarnessConfig::default();
    let rows = config.rows.min(2_000_000);
    let queries = config.queries.min(500);
    let tail_count = 4;
    println!(
        "# E4 sideways cracking — {} rows, {} queries, {:.2}% selectivity, {} tail columns",
        rows,
        queries,
        config.selectivity * 100.0,
        tail_count
    );
    let table = generate_multi_column_table(rows, tail_count, config.seed);
    let head: Vec<i64> = table.column("a").unwrap().as_i64().unwrap().to_vec();
    let workload = QueryWorkload::generate(
        WorkloadKind::UniformRandom,
        queries,
        0,
        rows as i64,
        config.selectivity,
        config.seed + 4,
    );

    println!(
        "\n{:<12} {:>26} {:>26} {:>16} {:>16} {:>16}",
        "#projected",
        "crack + late mat. (ms)",
        "sideways cracker maps (ms)",
        "crack effort",
        "sideways effort",
        "sideways swaps"
    );
    // (projected tails, crack + late materialization ms, sideways ms)
    let mut timings: Vec<(usize, f64, f64)> = Vec::new();
    for projected in 1..=tail_count {
        let tails: Vec<String> = (0..projected).map(|t| format!("b{t}")).collect();
        let tail_refs: Vec<&str> = tails.iter().map(String::as_str).collect();
        let tail_columns: Vec<_> = tail_refs
            .iter()
            .map(|name| table.column(name).unwrap())
            .collect();

        // (a) selection cracking + late materialization of every tail
        let mut plain = CrackedIndex::from_keys(&head);
        let start = Instant::now();
        let mut checksum_naive = 0i64;
        for q in workload.iter() {
            // late materialization gathers by position, so order the piece
            let piece = plain.query_range(q.low, q.high);
            let positions = PositionList::from_distinct(piece.rowids().to_vec());
            for column in &tail_columns {
                checksum_naive += project::fetch_i64(column, &positions).iter().sum::<i64>();
            }
        }
        let naive = start.elapsed();

        // (b) sideways cracking with aligned maps
        let mut maps = MapSet::from_table(&table, "a").expect("integer columns");
        let start = Instant::now();
        let mut checksum_sideways = 0i64;
        for q in workload.iter() {
            let answer = maps.select_project(q.low, q.high, &tail_refs);
            for tail in &answer.tails {
                checksum_sideways += tail.iter().sum::<i64>();
            }
        }
        let sideways = start.elapsed();
        assert_eq!(checksum_naive, checksum_sideways);

        let (naive, sideways) = (naive.as_secs_f64() * 1e3, sideways.as_secs_f64() * 1e3);
        timings.push((projected, naive, sideways));
        println!(
            "{:<12} {:>26.1} {:>26.1} {:>16} {:>16} {:>16}",
            projected,
            naive,
            sideways,
            plain.stats().total_effort(),
            maps.stats().total_effort(),
            maps.stats().elements_swapped
        );
        if projected == tail_count {
            println!(
                "\nmaterialized maps at the end: {} of {} available tails, {:.1} MB (partial sideways cracking: only queried tails exist)",
                maps.materialized_maps(),
                maps.tail_names().len(),
                maps.auxiliary_bytes() as f64 / 1e6
            );
        }
    }
    println!("\nshape check: {}", verdict(&timings));
}

/// What the measured table shows: at which tail counts each plan was faster,
/// and whether sideways cracking's lead (crack + late materialization's time
/// minus its own) grows with every extra tail, as it should when each tail
/// costs the naive plan a random-access fetch pass and sideways cracking only
/// one aligned sequential map read.
fn verdict(timings: &[(usize, f64, f64)]) -> String {
    let tails_where = |sideways_wins: bool| {
        let tails: Vec<String> = (timings.iter())
            .filter(|&&(_, naive, sideways)| (sideways < naive) == sideways_wins)
            .map(|(projected, ..)| projected.to_string())
            .collect();
        if tails.is_empty() {
            "none".to_string()
        } else {
            tails.join(", ")
        }
    };
    let leads: Vec<f64> = (timings.iter())
        .map(|&(_, naive, sideways)| naive - sideways)
        .collect();
    let grows = leads.windows(2).all(|pair| pair[1] > pair[0]);
    format!(
        "sideways cracker maps were faster at {} projected tail(s), crack + late \
         materialization at {}; sideways cracking's lead {} with every extra tail \
         (the expected shape: each tail costs the naive plan a random-access fetch \
         pass, and sideways cracking one aligned sequential map read).",
        tails_where(true),
        tails_where(false),
        if grows { "grows" } else { "does not grow" },
    )
}
