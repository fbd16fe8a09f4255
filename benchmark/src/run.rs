//! `ledger run`: drive one workload for its time budget, epoch after epoch,
//! reduce each metric to the median across epochs, and print the result.

use crate::catalog::{self, traced_names, END_TO_END, WORKLOADS};
use crate::report::{self, Metric, Provenance, ResultSet, WorkloadResult};
use crate::stats::{self, Summary};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{
    crack_converge, filter_project, ingest_mixed, served_mix, Ctx, Epoch, Sizes, Tally,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CrackConverge,
    FilterProject,
    IngestMixed,
    ServedMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CrackConverge,
        Workload::FilterProject,
        Workload::IngestMixed,
        Workload::ServedMix,
    ];

    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn epoch(self, ctx: &Ctx) -> Epoch {
        match self {
            Workload::CrackConverge => crack_converge::epoch(ctx),
            Workload::FilterProject => filter_project::epoch(ctx),
            Workload::IngestMixed => ingest_mixed::epoch(ctx),
            Workload::ServedMix => served_mix::epoch(ctx),
        }
    }

    pub fn probes(self, ctx: &Ctx, out: &mut Vec<(&'static str, f64)>) {
        match self {
            Workload::CrackConverge => crack_converge::probes(ctx, out),
            Workload::FilterProject => filter_project::probes(ctx, out),
            Workload::IngestMixed => ingest_mixed::probes(ctx, out),
            Workload::ServedMix => served_mix::probes(ctx, out),
        }
    }
}

/// Every timing is the median over at least this many epochs, so one
/// scheduler hiccup cannot move a reported value.
const MIN_EPOCHS: usize = 5;
/// A traced run splits its budget between an untraced and a traced pass;
/// per-layer metrics carry no bound, so each half may rest on fewer epochs.
const MIN_EPOCHS_TRACED: usize = 3;

/// Values one epoch process reports for its parent to fold: the wall time
/// its tracer saw and the part of it root spans cover.
const TRACE_WALL_MS: &str = "trace.wall_ms";
const TRACE_COVERED_MS: &str = "trace.covered_ms";

pub struct RunSpec<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub sizes: &'a Sizes,
    /// Scratch directory for WAL files and the trace.
    pub tmp: &'a Path,
}

/// One epoch, identified within a run.
pub struct EpochSpec<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub epoch: u64,
    pub trace: bool,
    pub sizes: &'a Sizes,
    pub tmp: &'a Path,
}

fn single(value: f64) -> Summary {
    Summary {
        median: value,
        q1: value,
        q3: value,
        samples: 1,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn metrics_of(summaries: BTreeMap<String, Summary>) -> Vec<Metric> {
    summaries
        .into_iter()
        .map(|(name, s)| Metric {
            unit: catalog::unit_of(&name).to_owned(),
            name,
            value: s.median,
            q1: s.q1,
            q3: s.q3,
            samples: s.samples,
        })
        .collect()
}

/// Every metric of one epoch, by name.
fn epoch_values(epoch: &Epoch) -> Vec<(&'static str, f64)> {
    let tail = &epoch.query_us[epoch.tail_from.min(epoch.query_us.len())..];
    let mut values = vec![
        ("setup_s", epoch.setup_s),
        ("first_query_ms", epoch.first_query_ms),
        ("cumulative_s", epoch.query_us.iter().sum::<f64>() / 1e6),
    ];
    if !tail.is_empty() {
        values.push(("query_p50_us", stats::median(tail)));
        values.push(("query_p99_us", stats::tail(tail, 0.99).0));
    }
    if epoch.wall_s > 0.0 {
        values.push(("ops_per_s", epoch.ops as f64 / epoch.wall_s));
    }
    values.extend_from_slice(&epoch.extras);
    values
}

/// What a run, or one epoch of it, measured: the result, and when traced
/// the spans as JSON text.
pub struct Measured {
    pub result: WorkloadResult,
    pub trace: Option<String>,
}

/// Run one epoch in this process and report its values, its peak resident
/// set and, when traced, its spans and their self time per layer.
///
/// `ledger run` gives every epoch a process of its own (`--epoch`). glibc
/// moves its mmap threshold whenever a large block is freed, so in a
/// process that ran earlier epochs an epoch's vectors come from fresh zero
/// pages or from the retained heap depending on the history of frees: the
/// same cold query measured 17 or 25 ms, and the high-water mark moved by
/// whole vectors. A fresh process is what a user who loads a table and
/// queries it has, and it makes the epochs independent samples.
pub fn one_epoch(spec: &EpochSpec) -> Result<Measured, String> {
    std::fs::create_dir_all(spec.tmp).map_err(|e| format!("create {}: {e}", spec.tmp.display()))?;
    let tracer = Tracer::new(spec.trace);
    let epoch = spec.workload.epoch(&Ctx {
        tracer: &tracer,
        seed: spec.seed,
        epoch: spec.epoch,
        sizes: spec.sizes,
        tmp: spec.tmp,
    });
    let mut metrics: BTreeMap<String, Summary> = epoch_values(&epoch)
        .into_iter()
        .map(|(name, value)| (name.to_owned(), single(value)))
        .collect();
    if let Some(rss) = peak_rss_mb() {
        metrics.insert("peak_rss_mb".to_owned(), single(rss));
    }
    let mut trace = None;
    if spec.trace {
        let wall_ns = tracer.wall_ns();
        let spans = tracer.take_spans();
        fold_spans(&spans, wall_ns, &mut metrics);
        trace = Some(serde_json::to_string(&spans).map_err(|e| e.to_string())?);
    }
    Ok(Measured {
        result: WorkloadResult {
            workload: spec.workload.name().to_owned(),
            seed: spec.seed,
            seconds: 0,
            traced: spec.trace,
            epochs: 1,
            attempted: epoch.tally.attempted,
            failed: epoch.tally.failed,
            metrics: metrics_of(metrics),
        },
        trace,
    })
}

/// Add the spans' self time per layer, and the wall time and its covered
/// part, to `metrics`.
fn fold_spans(spans: &[Span], wall_ns: u64, metrics: &mut BTreeMap<String, Summary>) {
    let mut add = |name: String, ms: f64| {
        let entry = metrics.entry(name).or_insert(single(0.0));
        *entry = single(entry.median + ms);
    };
    for (layer, self_ns) in trace::self_ns_by_layer(spans) {
        add(format!("trace.self_ms.{layer}"), self_ns as f64 / 1e6);
    }
    add(TRACE_WALL_MS.to_owned(), wall_ns as f64 / 1e6);
    add(
        TRACE_COVERED_MS.to_owned(),
        trace::root_covered_ns(spans, wall_ns) as f64 / 1e6,
    );
}

/// Where the spans of the run that wrote `out` go: next to it.
pub fn trace_beside(out: &Path) -> PathBuf {
    out.with_extension("trace.json")
}

/// Run epoch `spec.epoch` as `ledger run --epoch` in a process of its own
/// and read back what it reports. The child runs [`Sizes::FROZEN`], the only
/// sizes the command line can name.
pub fn spawn_epoch(spec: &EpochSpec) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = spec.tmp.join(format!(
        "epoch-{}-{}.json",
        u8::from(spec.trace),
        spec.epoch
    ));
    let status = Command::new(&exe)
        .args(["run", "--workload", spec.workload.name()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--epoch", &spec.epoch.to_string()])
        .args(["--trace", if spec.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    // a child that found failed operations exits 1 and still writes its
    // result; only a child without a result aborts the run
    let result: WorkloadResult =
        report::read_json(&out).map_err(|e| format!("epoch {} ({status}): {e}", spec.epoch))?;
    let trace = if spec.trace {
        let path = trace_beside(&out);
        Some(std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?)
    } else {
        None
    };
    Ok(Measured { result, trace })
}

/// What a pass gathered: every metric's per-epoch values, by name.
#[derive(Default)]
struct Pass {
    values: BTreeMap<String, Vec<f64>>,
    tally: Tally,
    epochs: usize,
    /// Each traced epoch's spans as JSON text, in order.
    traces: Vec<String>,
}

/// Run epochs until `budget` is spent (and at least `min_epochs`). Both
/// passes of a traced run start at epoch 0, so they see the same inputs.
fn pass(
    spec: &RunSpec,
    traced: bool,
    budget: Duration,
    min_epochs: usize,
    run_epoch: &dyn Fn(&EpochSpec) -> Result<Measured, String>,
) -> Result<Pass, String> {
    let started = Instant::now();
    let mut pass = Pass::default();
    while pass.epochs < min_epochs || started.elapsed() < budget {
        let Measured { result, trace } = run_epoch(&EpochSpec {
            workload: spec.workload,
            seed: spec.seed,
            epoch: pass.epochs as u64,
            trace: traced,
            sizes: spec.sizes,
            tmp: spec.tmp,
        })?;
        for metric in result.metrics {
            pass.values
                .entry(metric.name)
                .or_default()
                .push(metric.value);
        }
        pass.tally.merge(Tally {
            attempted: result.attempted,
            failed: result.failed,
        });
        pass.epochs += 1;
        pass.traces.extend(trace);
    }
    Ok(pass)
}

/// Drive one workload for its time budget, epoch after epoch through
/// `run_epoch` ([`spawn_epoch`], or [`one_epoch`] where a test stays in its
/// own process), and reduce each metric to the median across epochs.
pub fn run(
    spec: &RunSpec,
    run_epoch: &dyn Fn(&EpochSpec) -> Result<Measured, String>,
) -> Result<Measured, String> {
    std::fs::create_dir_all(spec.tmp).map_err(|e| format!("create {}: {e}", spec.tmp.display()))?;
    let budget = Duration::from_secs(spec.seconds);
    let mut summaries: BTreeMap<String, Summary> = BTreeMap::new();

    let (untraced_budget, min_epochs) = if spec.trace {
        (budget / 2, MIN_EPOCHS_TRACED)
    } else {
        (budget, MIN_EPOCHS)
    };
    let untraced = pass(spec, false, untraced_budget, min_epochs, run_epoch)?;
    let mut total = untraced.tally;
    let mut epochs = untraced.epochs;
    let mut trace = None;

    if !spec.trace {
        for (name, values) in &untraced.values {
            if catalog::end_to_end(name).is_some() {
                summaries.insert(name.clone(), stats::summarize(values));
            }
        }
    } else {
        let traced = pass(spec, true, budget - untraced_budget, min_epochs, run_epoch)?;
        total.merge(traced.tally);
        epochs = traced.epochs;

        // the workload-specific end-to-end metrics come from the untraced
        // pass, the workloads' own per-layer counts from the traced one
        for (name, values) in &untraced.values {
            if catalog::end_to_end(name).is_some_and(|m| !m.universal) {
                summaries.insert(name.clone(), stats::summarize(values));
            }
        }
        for (name, values) in &traced.values {
            if catalog::end_to_end(name).is_none() && !name.starts_with("trace.") {
                summaries.insert(name.clone(), stats::summarize(values));
            }
        }
        let ops = |pass: &Pass| pass.values.get("ops_per_s").map(|v| stats::median(v));
        if let (Some(traced), Some(untraced)) = (ops(&traced), ops(&untraced)) {
            summaries.insert("trace.overhead_ratio".to_owned(), single(traced / untraced));
        }

        // the probes run here, in the parent, under a tracer of their own
        let tracer = Tracer::new(true);
        let mut probed = Vec::new();
        spec.workload.probes(
            &Ctx {
                tracer: &tracer,
                seed: spec.seed,
                epoch: 0,
                sizes: spec.sizes,
                tmp: spec.tmp,
            },
            &mut probed,
        );
        for (name, value) in probed {
            summaries.insert(name.to_owned(), single(value));
        }
        let wall_ns = tracer.wall_ns();
        let spans = tracer.take_spans();

        // self time per layer, and the uncovered share of the wall, summed
        // over the traced epochs and the probes
        let mut sums: BTreeMap<String, Summary> = traced
            .values
            .iter()
            .filter(|(name, _)| name.starts_with("trace."))
            .map(|(name, values)| (name.clone(), single(values.iter().sum())))
            .collect();
        fold_spans(&spans, wall_ns, &mut sums);
        let total_of = |name: &str| sums.get(name).map_or(0.0, |s| s.median);
        let (wall_ms, covered_ms) = (total_of(TRACE_WALL_MS), total_of(TRACE_COVERED_MS));
        summaries.insert(
            "trace.unattributed_share".to_owned(),
            single(if wall_ms > 0.0 {
                1.0 - covered_ms / wall_ms
            } else {
                0.0
            }),
        );
        sums.retain(|name, _| name.starts_with("trace.self_ms."));
        summaries.extend(sums);

        // one array of spans per process: the traced epochs, then the probes
        let probe_spans = serde_json::to_string(&spans).map_err(|e| e.to_string())?;
        let processes: Vec<&str> = traced
            .traces
            .iter()
            .chain(std::iter::once(&probe_spans))
            .map(String::as_str)
            .collect();
        trace = Some(format!("[{}]", processes.join(",\n")));
    }

    Ok(Measured {
        result: WorkloadResult {
            workload: spec.workload.name().to_owned(),
            seed: spec.seed,
            seconds: spec.seconds,
            traced: spec.trace,
            epochs: epochs as u64,
            attempted: total.attempted,
            failed: total.failed,
            metrics: metrics_of(summaries),
        },
        trace,
    })
}

/// The driver's line: one JSON object with `correct`, `attempted`,
/// `failed`, and exactly the metrics `BENCHMARK.json` lists for this mode
/// (a per-layer metric a workload does not exercise reads 0).
pub fn driver_line(result: &WorkloadResult) -> Result<String, String> {
    let names: Vec<(String, &str)> = if result.traced {
        traced_names()
            .into_iter()
            .map(|(name, unit, _)| (name, unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.universal)
            .map(|m| (m.name.to_owned(), m.unit))
            .collect()
    };
    let mut metrics = Vec::with_capacity(names.len());
    let mut finite = true;
    for (name, unit) in names {
        let value = match result.metric(&name) {
            Some(metric) => metric.value,
            None if result.traced => 0.0,
            None => return Err(format!("{} reported no {name}", result.workload)),
        };
        finite &= value.is_finite();
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    if !finite {
        return Err(format!("{} reported a non-finite metric", result.workload));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    ))
}

/// Every metric as `name value unit`, with quartiles and sample count.
pub fn print_metrics(result: &WorkloadResult) {
    println!(
        "# {} seed={} seconds={} traced={} epochs={} attempted={} failed={} failed_ops_share={}",
        result.workload,
        result.seed,
        result.seconds,
        result.traced,
        result.epochs,
        result.attempted,
        result.failed,
        result.failed_ops_share()
    );
    for m in &result.metrics {
        println!(
            "{} {} {}   [q1 {} q3 {} n {}]",
            m.name, m.value, m.unit, m.q1, m.q3, m.samples
        );
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(mount).then(|| (mount.len(), fs.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

pub fn provenance(sizes: &Sizes, tmp: &Path) -> Provenance {
    Provenance {
        commit: command_line("git", &["rev-parse", "HEAD"]),
        rustc: command_line("rustc", &["-V"]),
        kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned()),
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        wal_fs: filesystem_of(tmp),
        sizes: *sizes,
    }
}

/// `run --all`: each workload untraced and traced, each in a process of its
/// own (peak RSS is per process), gathered into one result set.
pub fn run_all(seed: u64, seconds: u64, tmp: &Path) -> Result<Vec<WorkloadResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    std::fs::create_dir_all(tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let mut results = Vec::new();
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let out: PathBuf = tmp.join(format!("{}-{trace}.json", workload.name()));
            let status = Command::new(&exe)
                .args(["run", "--workload", workload.name(), "--trace", trace])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .arg("--out")
                .arg(&out)
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            // a child that found failed operations exits 1 and still writes
            // its result; only a child without a result aborts the set
            let mut child = ResultSet::read(&out)
                .map_err(|e| format!("{} --trace {trace} ({status}): {e}", workload.name()))?;
            results.append(&mut child.results);
        }
    }
    Ok(results)
}
