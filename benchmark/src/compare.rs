//! `ledger compare <a> <b>`: hold result set `b` against baseline `a`, per
//! workload and end-to-end metric, using the catalogue's bounds.

use crate::catalog::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::report::ResultSet;
use crate::stats::Summary;
use std::fmt::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Either side's quartiles lie further apart than the bound: the runs
    /// cannot tell a regression from noise, and must not read as
    /// "unchanged".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `candidate` is than `baseline`, as a share of the
/// baseline (negative when better), given the metric's direction.
pub fn worsening(better: Better, baseline: f64, candidate: f64) -> f64 {
    let worse_by = match better {
        Better::Lower => candidate - baseline,
        Better::Higher => baseline - candidate,
    };
    if baseline == 0.0 {
        // no share of nothing: any move off a zero baseline is unbounded
        return if worse_by == 0.0 {
            0.0
        } else {
            worse_by.signum() * f64::INFINITY
        };
    }
    worse_by / baseline.abs()
}

pub fn judge(metric: &EndToEnd, baseline: &Summary, candidate: &Summary) -> Verdict {
    if baseline.spread() > metric.bound || candidate.spread() > metric.bound {
        Verdict::Unresolved
    } else if worsening(metric.better, baseline.median, candidate.median) > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[derive(Debug)]
pub struct Comparison {
    pub table: String,
    pub regressed: usize,
    pub unresolved: usize,
}

/// Two result sets measure the same thing only when they ran the same
/// inputs: equal frozen sizes, and equal seeds workload by workload.
/// Anything else is refused, not compared.
fn comparable(a: &ResultSet, b: &ResultSet) -> Result<(), String> {
    if a.provenance.sizes != b.provenance.sizes {
        return Err(format!(
            "the two sets ran different sizes:\n  baseline  {:?}\n  candidate {:?}",
            a.provenance.sizes, b.provenance.sizes
        ));
    }
    for workload in &WORKLOADS {
        if let (Some(x), Some(y)) = (a.untraced(workload.name), b.untraced(workload.name)) {
            if x.seed != y.seed {
                return Err(format!(
                    "{} ran seed {} in the baseline and seed {} in the candidate",
                    workload.name, x.seed, y.seed
                ));
            }
        }
    }
    Ok(())
}

pub fn compare(a: &ResultSet, b: &ResultSet) -> Result<Comparison, String> {
    comparable(a, b)?;
    let mut table = String::new();
    let (mut regressed, mut unresolved) = (0, 0);
    writeln!(
        table,
        "{:<15} {:<24} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "baseline", "candidate", "worse", "bound"
    )
    .expect("write to a string");
    for workload in &WORKLOADS {
        let Some(base) = a.untraced(workload.name) else {
            continue;
        };
        let Some(cand) = b.untraced(workload.name) else {
            // a workload the candidate lost cannot read as "no regression"
            regressed += 1;
            writeln!(
                table,
                "{:<15} missing from the candidate: regressed",
                workload.name
            )
            .expect("write to a string");
            continue;
        };
        if base.seconds != cand.seconds {
            writeln!(
                table,
                "# warning: {} measured {} s in the baseline and {} s in the candidate",
                workload.name, base.seconds, cand.seconds
            )
            .expect("write to a string");
        }
        for metric in &END_TO_END {
            let Some(x) = base.metric(metric.name) else {
                continue;
            };
            let Some(y) = cand.metric(metric.name) else {
                regressed += 1;
                writeln!(
                    table,
                    "{:<15} {:<24} {:>14.4} {:>14} {:>8} {:>5.0}%  regressed",
                    workload.name,
                    metric.name,
                    x.value,
                    "missing",
                    "",
                    100.0 * metric.bound
                )
                .expect("write to a string");
                continue;
            };
            let verdict = judge(metric, &x.summary(), &y.summary());
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            writeln!(
                table,
                "{:<15} {:<24} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}%  {}",
                workload.name,
                metric.name,
                x.value,
                y.value,
                100.0 * worsening(metric.better, x.value, y.value),
                100.0 * metric.bound,
                verdict.as_str()
            )
            .expect("write to a string");
        }
        // must stay 0: any rise is a regression, whatever its size
        let (x, y) = (base.failed_ops_share(), cand.failed_ops_share());
        let verdict = if y > x {
            regressed += 1;
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        writeln!(
            table,
            "{:<15} {:<24} {:>14.6} {:>14.6} {:>8} {:>6}  {}",
            workload.name,
            "failed_ops_share",
            x,
            y,
            "",
            "0",
            verdict.as_str()
        )
        .expect("write to a string");
    }
    Ok(Comparison {
        table,
        regressed,
        unresolved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::end_to_end;
    use crate::report::{Metric, Provenance, WorkloadResult};

    fn summary(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            samples: 9,
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 130.0) + 0.30).abs() < 1e-12);
        // off a zero baseline any move is unbounded, in its direction
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), f64::INFINITY);
        assert_eq!(worsening(Better::Higher, 0.0, 5.0), f64::NEG_INFINITY);
    }

    #[test]
    fn verdicts_respect_bound_and_spread() {
        let p50 = end_to_end("query_p50_us").unwrap(); // lower is better
        let bound = p50.bound;
        let tight = |m: f64| summary(m, m * 0.999, m * 1.001);
        let within = 100.0 * (1.0 + bound * 0.9);
        let beyond = 100.0 * (1.0 + bound * 1.1);
        assert_eq!(judge(p50, &tight(100.0), &tight(within)), Verdict::Ok);
        assert_eq!(
            judge(p50, &tight(100.0), &tight(beyond)),
            Verdict::Regressed
        );
        assert_eq!(judge(p50, &tight(100.0), &tight(50.0)), Verdict::Ok);
        // a side whose quartiles are wider apart than the bound resolves
        // nothing, in either direction and on either side
        let wide = summary(100.0, 100.0 * (1.0 - bound), 100.0 * (1.0 + bound));
        assert_eq!(judge(p50, &wide, &tight(100.0)), Verdict::Unresolved);
        assert_eq!(judge(p50, &tight(100.0), &wide), Verdict::Unresolved);
        assert_eq!(
            judge(p50, &tight(100.0), &summary(200.0, 100.0, 300.0)),
            Verdict::Unresolved
        );
        // at the bound exactly is still resolved
        let half = 50.0 * bound;
        assert_eq!(
            judge(
                p50,
                &tight(100.0),
                &summary(100.0, 100.0 - half, 100.0 + half)
            ),
            Verdict::Ok
        );

        let ops = end_to_end("ops_per_s").unwrap(); // higher is better
        let within = 1000.0 * (1.0 - ops.bound * 0.9);
        let beyond = 1000.0 * (1.0 - ops.bound * 1.1);
        assert_eq!(judge(ops, &tight(1000.0), &tight(within)), Verdict::Ok);
        assert_eq!(
            judge(ops, &tight(1000.0), &tight(beyond)),
            Verdict::Regressed
        );
    }

    fn set(p50: f64, failed: u64, traced: bool) -> ResultSet {
        ResultSet {
            provenance: Provenance {
                commit: String::new(),
                rustc: String::new(),
                kernel: String::new(),
                nproc: 2,
                wal_fs: String::new(),
                sizes: crate::workloads::Sizes::FROZEN,
            },
            results: vec![WorkloadResult {
                workload: "served_mix".to_owned(),
                seed: 1,
                seconds: 10,
                traced,
                epochs: 9,
                attempted: 1000,
                failed,
                metrics: vec![Metric {
                    name: "query_p50_us".to_owned(),
                    unit: "us".to_owned(),
                    value: p50,
                    q1: p50,
                    q3: p50,
                    samples: 9,
                }],
            }],
        }
    }

    #[test]
    fn compare_counts_regressions_and_any_rise_in_failures() {
        let compare = |a: &ResultSet, b: &ResultSet| compare(a, b).unwrap();
        let same = compare(&set(100.0, 0, false), &set(101.0, 0, false));
        assert_eq!((same.regressed, same.unresolved), (0, 0));
        assert!(same.table.contains("query_p50_us") && same.table.contains("failed_ops_share"));
        assert!(!same.table.contains("warning"));

        let slower = compare(&set(100.0, 0, false), &set(150.0, 0, false));
        assert_eq!(slower.regressed, 1);
        assert!(slower.table.contains("regressed"));

        let failing = compare(&set(100.0, 0, false), &set(100.0, 1, false));
        assert_eq!(failing.regressed, 1);
        // fewer failures than the baseline is not a regression
        assert_eq!(
            compare(&set(100.0, 2, false), &set(100.0, 1, false)).regressed,
            0
        );
        // traced results carry no end-to-end verdicts
        let traced = compare(&set(100.0, 0, true), &set(200.0, 5, true));
        assert_eq!((traced.regressed, traced.unresolved), (0, 0));
    }

    #[test]
    fn what_the_candidate_lost_is_a_regression_and_other_inputs_are_refused() {
        let base = set(100.0, 0, false);
        // the candidate lost the metric, then the whole workload
        let mut no_metric = base.clone();
        no_metric.results[0].metrics.clear();
        let lost = compare(&base, &no_metric).unwrap();
        assert_eq!(lost.regressed, 1);
        assert!(lost.table.contains("missing"), "{}", lost.table);
        let mut no_workload = base.clone();
        no_workload.results.clear();
        assert_eq!(compare(&base, &no_workload).unwrap().regressed, 1);
        // a metric only the candidate has is new, not a verdict
        assert_eq!(compare(&no_metric, &base).unwrap().regressed, 0);

        // another measuring time is compared, with a warning
        let mut shorter = base.clone();
        shorter.results[0].seconds = 2;
        let warned = compare(&base, &shorter).unwrap();
        assert_eq!(warned.regressed, 0);
        assert!(warned.table.contains("# warning: served_mix measured 10 s"));

        // another seed or other sizes are other inputs
        let mut reseeded = base.clone();
        reseeded.results[0].seed = 2;
        assert!(compare(&base, &reseeded).unwrap_err().contains("seed"));
        let mut resized = base.clone();
        resized.provenance.sizes.served_small += 1;
        assert!(compare(&base, &resized).unwrap_err().contains("sizes"));
    }
}
