//! `ledger` — the repo benchmark. Four workloads measured the way users
//! meet the system (`Session::execute` embedded, `Client` over TCP, latency
//! taken at the caller), per-layer numbers taken from outside in a separate
//! traced run. See `benchmark/README.md`.

mod catalog;
mod compare;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use report::ResultSet;
use run::{EpochSpec, Measured, RunSpec, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Sizes;

const USAGE: &str = "\
usage:
  ledger run --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--out <file>]
  ledger run --workload <name> --seed <u64> --epoch <i> [--trace <0|1>] [--out <file>]
  ledger run --all --seed <u64> [--seconds <n>] --out <file>
  ledger compare <baseline.json> <candidate.json>
  ledger manifest
workloads: crack_converge filter_project ingest_mixed served_mix";

/// Scratch space inside the working directory (the benchmark reads and
/// writes nowhere else).
const SCRATCH: &str = ".ledger_tmp";

#[derive(Debug, PartialEq)]
enum Target {
    One(Workload),
    All,
}

#[derive(Debug, PartialEq)]
struct RunArgs {
    target: Target,
    seed: u64,
    seconds: u64,
    /// Run only this epoch, in this process: what `run` spawns for every
    /// epoch, and a way to repeat one by hand.
    epoch: Option<u64>,
    trace: bool,
    out: Option<PathBuf>,
}

#[derive(Debug, PartialEq)]
enum Cli {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
    Manifest,
}

/// Strict parsing: an unknown subcommand, flag or workload, a missing or
/// repeated value, or a number that does not parse is an error — never a
/// silent default.
fn parse(args: &[String]) -> Result<Cli, String> {
    let (command, rest) = args.split_first().ok_or("missing subcommand")?;
    match command.as_str() {
        "manifest" if rest.is_empty() => Ok(Cli::Manifest),
        "manifest" => Err("manifest takes no arguments".to_owned()),
        "compare" => match rest {
            [a, b] => Ok(Cli::Compare(a.into(), b.into())),
            _ => Err("compare takes exactly two result files".to_owned()),
        },
        "run" => parse_run(rest).map(Cli::Run),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut target, mut seed, mut seconds, mut epoch, mut trace, mut out) =
        (None, None, None, None, None, None);
    fn set<T>(slot: &mut Option<T>, flag: &str, value: T) -> Result<(), String> {
        match slot.replace(value) {
            None => Ok(()),
            Some(_) => Err(format!("`{flag}` given twice")),
        }
    }
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--all" {
            set(&mut target, "--workload/--all", Target::All)?;
            continue;
        }
        if !matches!(
            flag.as_str(),
            "--workload" | "--seed" | "--seconds" | "--epoch" | "--trace" | "--out"
        ) {
            return Err(format!("unknown flag `{flag}`"));
        }
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag} {value}`: not an unsigned integer"))
        };
        match flag.as_str() {
            "--workload" => {
                let workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?;
                set(&mut target, "--workload/--all", Target::One(workload))?;
            }
            "--seed" => set(&mut seed, flag, number()?)?,
            "--epoch" => set(&mut epoch, flag, number()?)?,
            "--seconds" => match number()? {
                n @ 1..=60 => set(&mut seconds, flag, n)?,
                _ => return Err(format!("`--seconds {value}`: must be 1..=60")),
            },
            "--trace" => match value.as_str() {
                "0" => set(&mut trace, flag, false)?,
                "1" => set(&mut trace, flag, true)?,
                _ => return Err(format!("`--trace {value}`: must be 0 or 1")),
            },
            _ => set(&mut out, flag, PathBuf::from(value))?,
        }
    }
    if epoch.is_some() && seconds.is_some() {
        return Err(
            "`--epoch` runs one epoch however long it takes; it takes no `--seconds`".to_owned(),
        );
    }
    let run = RunArgs {
        target: target.ok_or("run needs `--workload <name>` or `--all`")?,
        seed: seed.ok_or("run needs `--seed <u64>`")?,
        seconds: seconds.unwrap_or(catalog::RUN_SECONDS),
        epoch,
        trace: trace.unwrap_or(false),
        out,
    };
    if run.target == Target::All && (run.out.is_none() || trace.is_some() || epoch.is_some()) {
        return Err(
            "`run --all` needs `--out <file>`, runs both trace modes itself and takes no `--epoch`"
                .to_owned(),
        );
    }
    Ok(run)
}

fn exit_code(failed: u64) -> ExitCode {
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `run --epoch`: one epoch in this process. Its result goes to `--out` and
/// its spans beside it, for the run that spawned it to gather.
fn run_epoch(args: &RunArgs, workload: Workload, epoch: u64) -> Result<ExitCode, String> {
    let scratch = Path::new(SCRATCH);
    let tmp = scratch.join(format!("run-{}", std::process::id()));
    let measured = run::one_epoch(&EpochSpec {
        workload,
        seed: args.seed,
        epoch,
        trace: args.trace,
        sizes: &Sizes::FROZEN,
        tmp: &tmp,
    });
    let _ = std::fs::remove_dir_all(&tmp);
    let Measured { result, trace } = measured?;
    if let Some(out) = &args.out {
        report::write_json(&result, out)?;
        if let Some(trace) = trace {
            let path = run::trace_beside(out);
            std::fs::write(&path, trace).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    run::print_metrics(&result);
    Ok(exit_code(result.failed))
}

fn run(args: RunArgs) -> Result<ExitCode, String> {
    if let (Target::One(workload), Some(epoch)) = (&args.target, args.epoch) {
        return run_epoch(&args, *workload, epoch);
    }
    let scratch = Path::new(SCRATCH);
    let tmp = scratch.join(format!("run-{}", std::process::id()));
    let sizes = Sizes::FROZEN;
    let results = match args.target {
        Target::All => run::run_all(args.seed, args.seconds, &tmp)?,
        Target::One(workload) => {
            let Measured { result, trace } = run::run(
                &RunSpec {
                    workload,
                    seed: args.seed,
                    seconds: args.seconds,
                    trace: args.trace,
                    sizes: &sizes,
                    tmp: &tmp,
                },
                &run::spawn_epoch,
            )?;
            if let Some(trace) = trace {
                let path = scratch.join(format!("trace-{}.json", workload.name()));
                std::fs::write(&path, trace)
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            vec![result]
        }
    };
    let set = ResultSet {
        provenance: run::provenance(&sizes, &tmp),
        results,
    };
    let _ = std::fs::remove_dir_all(&tmp);
    if let Some(out) = &args.out {
        set.write(out)?;
    }
    let failed: u64 = set.results.iter().map(|r| r.failed).sum();
    match (&args.target, set.results.as_slice()) {
        (Target::One(_), [result]) => {
            run::print_metrics(result);
            println!("{}", run::driver_line(result)?);
        }
        _ => println!(
            "# {} results, {failed} failed operations",
            set.results.len()
        ),
    }
    Ok(exit_code(failed))
}

/// Exit code 1 reports a regression; a pair of files that cannot be read or
/// did not run the same inputs is exit code 2, like any other misuse.
fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let comparison = compare::compare(&ResultSet::read(a)?, &ResultSet::read(b)?)?;
    print!("{}", comparison.table);
    println!(
        "# {} regressed, {} unresolved",
        comparison.regressed, comparison.unresolved
    );
    Ok(if comparison.regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Ok(Cli::Manifest) => {
            print!("{}", catalog::manifest_json());
            Ok(ExitCode::SUCCESS)
        }
        Ok(Cli::Compare(a, b)) => match compare(&a, &b) {
            Ok(code) => Ok(code),
            Err(message) => {
                eprintln!("ledger: {message}");
                return ExitCode::from(2);
            }
        },
        Ok(Cli::Run(args)) => run(args),
        Err(message) => {
            eprintln!("ledger: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("ledger: {message}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(line: &str) -> Result<Cli, String> {
        parse(
            &line
                .split_whitespace()
                .map(str::to_owned)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_driver_command_line_parses() {
        assert_eq!(
            cli("run --workload served_mix --seed 7 --seconds 10 --trace 1"),
            Ok(Cli::Run(RunArgs {
                target: Target::One(Workload::ServedMix),
                seed: 7,
                seconds: 10,
                epoch: None,
                trace: true,
                out: None,
            }))
        );
        assert_eq!(
            cli("run --all --seed 18446744073709551615 --out r.json"),
            Ok(Cli::Run(RunArgs {
                target: Target::All,
                seed: u64::MAX,
                seconds: catalog::RUN_SECONDS,
                epoch: None,
                trace: false,
                out: Some("r.json".into()),
            }))
        );
        assert_eq!(
            cli("compare a.json b.json"),
            Ok(Cli::Compare("a.json".into(), "b.json".into()))
        );
        assert_eq!(cli("manifest"), Ok(Cli::Manifest));
        // what `run` spawns for every epoch
        assert_eq!(
            cli("run --workload ingest_mixed --seed 7 --epoch 3 --trace 0 --out e.json"),
            Ok(Cli::Run(RunArgs {
                target: Target::One(Workload::IngestMixed),
                seed: 7,
                seconds: catalog::RUN_SECONDS,
                epoch: Some(3),
                trace: false,
                out: Some("e.json".into()),
            }))
        );
    }

    #[test]
    fn anything_unknown_or_malformed_is_refused() {
        for (line, needle) in [
            ("", "missing subcommand"),
            ("bench", "unknown subcommand"),
            ("run --workload crack --seed 1", "unknown workload"),
            (
                "run --workload crack_converge --seed garbage",
                "not an unsigned integer",
            ),
            (
                "run --workload crack_converge --seed -1",
                "not an unsigned integer",
            ),
            ("run --workload crack_converge", "needs `--seed"),
            ("run --seed 1", "needs `--workload"),
            (
                "run --workload crack_converge --seed 1 --rows 5",
                "unknown flag",
            ),
            (
                "run --workload crack_converge --seed 1 --seed 2",
                "given twice",
            ),
            (
                "run --workload crack_converge --all --seed 1",
                "given twice",
            ),
            (
                "run --workload crack_converge --seed 1 --trace yes",
                "must be 0 or 1",
            ),
            (
                "run --workload crack_converge --seed 1 --seconds 0",
                "must be 1..=60",
            ),
            ("run --workload crack_converge --seed", "needs a value"),
            ("run --all --seed 1", "needs `--out"),
            ("run --all --seed 1 --epoch 0 --out r.json", "no `--epoch`"),
            (
                "run --workload crack_converge --seed 1 --epoch 0 --seconds 5",
                "no `--seconds`",
            ),
            (
                "run --workload crack_converge --seed 1 --epoch x",
                "not an unsigned integer",
            ),
            (
                "run --all --seed 1 --trace 1 --out r.json",
                "both trace modes",
            ),
            ("compare a.json", "exactly two"),
            ("manifest now", "no arguments"),
        ] {
            let error = cli(line).expect_err(line);
            assert!(error.contains(needle), "`{line}` gave `{error}`");
        }
    }

    /// One tiny epoch of every workload, untraced and traced, with its
    /// probes: every oracle passes, and the traced run reports every
    /// per-layer name the catalogue promises.
    #[test]
    fn every_workload_passes_its_oracles_at_20k_rows() {
        let sizes = Sizes {
            crack_rows: 20_000,
            crack_queries: 60,
            filter_rows: 20_000,
            filter_queries: 12,
            ingest_rows: 20_000,
            // two maintenance ticks, then a tail the last fsync splits
            ingest_batches: 44,
            ingest_batch_rows: 64,
            served_rows: 20_000,
            served_small: 100,
            served_fetch: 5,
            served_inserts: 5,
            served_warmup: 20,
            probe_keys: 10_000,
        };
        let tmp = std::env::temp_dir().join(format!("ledger-test-{}", std::process::id()));
        let mut reported = std::collections::BTreeSet::new();
        for workload in Workload::ALL {
            for trace in [false, true] {
                // epochs stay in this process: the test binary is no ledger
                let Measured {
                    result,
                    trace: spans,
                } = run::run(
                    &RunSpec {
                        workload,
                        seed: 42,
                        // no time budget: the minimum number of epochs
                        seconds: 0,
                        trace,
                        sizes: &sizes,
                        tmp: &tmp,
                    },
                    &run::one_epoch,
                )
                .unwrap();
                assert!(result.attempted > 0, "{}", workload.name());
                assert_eq!(result.failed, 0, "{} failed an oracle", workload.name());
                let line = run::driver_line(&result).unwrap();
                assert!(line.starts_with("{\"correct\": true, "), "{line}");
                if trace {
                    assert!(spans.is_some_and(|json| json.starts_with("[[{")));
                    let unattributed = result.metric("trace.unattributed_share").unwrap().value;
                    assert!((0.0..=0.15).contains(&unattributed), "{unattributed}");
                    reported.extend(result.metrics.iter().map(|m| m.name.clone()));
                } else {
                    for metric in catalog::END_TO_END.iter().filter(|m| m.universal) {
                        let value = result.metric(metric.name).unwrap().value;
                        assert!(value > 0.0, "{} {}", workload.name(), metric.name);
                    }
                }
            }
        }
        for (name, _, _) in catalog::traced_names() {
            assert!(reported.contains(&name), "no workload reported {name}");
        }
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
