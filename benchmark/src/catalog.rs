//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics. `BENCHMARK.json` is printed from these tables
//! (`ledger manifest`), so the file and the runner cannot drift apart.

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 28;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}
use Better::{Higher, Lower};

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "crack_converge",
        why: "The paper's experiment: fresh column, 1% random ranges, one thread. Crack kernels and index probe do the work; server, wal and filter kernels do none.",
    },
    WorkloadSpec {
        name: "filter_project",
        why: "Conjunctive queries with projection or SUM at 2 workers: residual filters, zone maps, row materialisation and the pool dominate once the index converges.",
    },
    WorkloadSpec {
        name: "ingest_mixed",
        why: "Durable 64-row insert batches beside range queries, ticks and a restart: the only workload where wal, maintenance and the append path do real work.",
    },
    WorkloadSpec {
        name: "served_mix",
        why: "Two closed-loop TCP clients on a warmed column: small queries, 1% fetches and inserts, shuffled. Codec, admission and socket writes dominate; the index does little.",
    },
];

/// A metric a user of the system would see. `bound` is the share of the
/// baseline median by which it may worsen before `compare` (and the driver)
/// calls it a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Defined on all four workloads, hence listed under `end_to_end` in
    /// `BENCHMARK.json`. The others exist on some workloads only; the file's
    /// format has no place for that, so it carries them under `per_layer`
    /// (unbounded there) and `ledger compare` applies their bounds.
    pub universal: bool,
}

const fn universal(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        universal: true,
    }
}

const fn specific(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        universal: false,
    }
}

pub const END_TO_END: [EndToEnd; 14] = [
    universal("setup_s", "s", Lower, 0.25),
    universal("first_query_ms", "ms", Lower, 0.25),
    universal("cumulative_s", "s", Lower, 0.25),
    universal("query_p50_us", "us", Lower, 0.25),
    universal("query_p99_us", "us", Lower, 0.25),
    universal("ops_per_s", "1/s", Higher, 0.25),
    universal("peak_rss_mb", "MiB", Lower, 0.10),
    specific("fetch_p50_us", "us", Lower, 0.25),
    specific("insert_p50_us", "us", Lower, 0.25),
    specific("insert_p99_us", "us", Lower, 0.25),
    specific("insert_rows_per_s", "rows/s", Higher, 0.25),
    specific("recovery_s", "s", Lower, 0.25),
    specific("log_bytes_per_user_byte", "ratio", Lower, 0.01),
    specific("aux_bytes_per_data_byte", "ratio", Lower, 0.01),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A metric of one layer (layer = crate), from the traced run. No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layers whose spans' self time is reported as `trace.self_ms.<layer>`.
pub const LAYERS: [&str; 12] = [
    "server",
    "core",
    "cracking",
    "baselines",
    "merging",
    "hybrids",
    "columnstore",
    "parallel",
    "maintenance",
    "wal",
    "telemetry",
    "workloads",
];

pub const PER_LAYER: [PerLayer; 64] = [
    layer("server.request_decode_ns", "ns", Lower),
    layer("server.admission_ns", "ns", Lower),
    layer("server.ping_rtt_us", "us", Lower),
    layer("server.wire_overhead_us", "us", Lower),
    layer("server.reply_encode_ns_per_kib", "ns/KiB", Lower),
    layer("server.reply_decode_ns_per_kib", "ns/KiB", Lower),
    layer("server.reply_bytes_per_row", "B/row", Lower),
    layer("server.fetch_stall_us", "us", Lower),
    layer("server.window_stall_us", "us", Lower),
    layer("server.sheds", "count", Lower),
    layer("server.protocol_errors", "count", Lower),
    layer("core.plan_ns", "ns", Lower),
    layer("core.execute_warm_ns", "ns", Lower),
    layer("core.index_probe_ns", "ns", Lower),
    layer("core.facade_overhead_ns", "ns", Lower),
    layer("core.rows_drain_ns_per_row", "ns/row", Lower),
    layer("core.partitioned_probe_ns", "ns", Lower),
    layer("core.insert_rows_ns_per_row", "ns/row", Lower),
    layer("core.index_absorb_ns_per_row", "ns/row", Lower),
    layer("cracking.build_ns_per_key", "ns/key", Lower),
    layer("cracking.crack_in_two_ns_per_key", "ns/key", Lower),
    layer("cracking.crack_in_three_ns_per_key", "ns/key", Lower),
    layer("cracking.first_query_ms", "ms", Lower),
    layer("cracking.effort_total", "count", Lower),
    layer("cracking.pieces_final", "count", Higher),
    layer("cracking.useful_ratio", "ratio", Higher),
    layer("baselines.scan.first_query_ms", "ms", Lower),
    layer("baselines.scan.cumulative_s", "s", Lower),
    layer("baselines.sort.first_query_ms", "ms", Lower),
    layer("baselines.sort.cumulative_s", "s", Lower),
    layer("merging.first_query_ms", "ms", Lower),
    layer("merging.cumulative_s", "s", Lower),
    layer("hybrids.crack_sort.first_query_ms", "ms", Lower),
    layer("hybrids.crack_sort.cumulative_s", "s", Lower),
    layer(
        "columnstore.filter_chunk_positions_ns_per_pos",
        "ns/pos",
        Lower,
    ),
    layer("columnstore.aggregate_at_ns_per_row", "ns/row", Lower),
    layer("columnstore.fetch_values_ns_per_row", "ns/row", Lower),
    layer("columnstore.zone_pruned_fraction", "ratio", Higher),
    layer("columnstore.append_rows_ns_per_row", "ns/row", Lower),
    layer("columnstore.sealed_chunks", "count", Lower),
    layer("columnstore.fragmented_chunks", "count", Lower),
    layer("columnstore.scan_chunk_where_ns_per_row", "ns/row", Lower),
    layer("parallel.filter_positions_p1_ms", "ms", Lower),
    layer("parallel.filter_positions_p2_ms", "ms", Lower),
    layer("parallel.scan_where_p1_ms", "ms", Lower),
    layer("parallel.scan_where_p2_ms", "ms", Lower),
    layer("parallel.pool_run_empty_ns", "ns", Lower),
    layer("maintenance.tick_us", "us", Lower),
    layer("maintenance.compact_ms", "ms", Lower),
    layer("maintenance.chunks_before", "count", Lower),
    layer("maintenance.chunks_after", "count", Lower),
    layer("wal.append_ns", "ns", Lower),
    layer("wal.fsync_us", "us", Lower),
    layer("wal.fsyncs", "count", Lower),
    layer("wal.records", "count", Lower),
    layer("wal.bytes_per_row", "B/row", Lower),
    layer("wal.checkpoint_ms", "ms", Lower),
    layer("wal.checkpoint_load_ms", "ms", Lower),
    layer("wal.replay_rows_per_s", "rows/s", Higher),
    layer("telemetry.enabled_ratio", "ratio", Lower),
    layer("telemetry.sampling_ratio", "ratio", Lower),
    layer("telemetry.snapshot_us", "us", Lower),
    layer("trace.overhead_ratio", "ratio", Higher),
    layer("trace.unattributed_share", "ratio", Lower),
];

/// Every name a `--trace 1` run reports, with its unit and direction: the
/// per-layer table, the workload-specific end-to-end metrics, and one
/// self-time total per layer.
pub fn traced_names() -> Vec<(String, &'static str, Better)> {
    let mut names: Vec<(String, &'static str, Better)> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_owned(), m.unit, m.better))
        .collect();
    names.extend(
        END_TO_END
            .iter()
            .filter(|m| !m.universal)
            .map(|m| (m.name.to_owned(), m.unit, m.better)),
    );
    names.extend(
        LAYERS
            .iter()
            .chain(&["harness"])
            .map(|l| (format!("trace.self_ms.{l}"), "ms", Lower)),
    );
    names
}

/// The unit a metric is reported in (empty for a name the catalogue does
/// not know).
pub fn unit_of(name: &str) -> &'static str {
    if let Some(metric) = end_to_end(name) {
        metric.unit
    } else if let Some(metric) = PER_LAYER.iter().find(|m| m.name == name) {
        metric.unit
    } else if name.starts_with("trace.self_ms.") {
        "ms"
    } else {
        ""
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .filter(|m| m.universal)
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = traced_names()
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_meet_the_manifest_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(well_formed(w.name, 64, "_.-"), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "{}",
                w.name
            );
            assert!(seen.insert(w.name.to_owned()), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(well_formed(m.name, 64, "_.-"), "{}", m.name);
            assert!(well_formed(m.unit, 16, "_/%.-"), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let traced = traced_names();
        assert!(traced.len() <= 128, "{} per-layer metrics", traced.len());
        for (name, unit, _) in &traced {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(well_formed(unit, 16, "_/%.-"), "{unit}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        for m in END_TO_END.iter().filter(|m| m.universal) {
            assert!(seen.insert(m.name.to_owned()), "{} used twice", m.name);
        }
        let setup = end_to_end("setup_s").unwrap();
        assert!(setup.universal && setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_json().len() < 64 * 1024);
    }

    /// The committed `BENCHMARK.json` is exactly what `ledger manifest`
    /// prints. Skipped where the package is checked out without the repo.
    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if let Ok(committed) = std::fs::read_to_string(path) {
            assert_eq!(
                committed,
                manifest_json(),
                "regenerate with `ledger manifest`"
            );
        }
    }
}
