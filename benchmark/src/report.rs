//! The result file: what one `ledger run` measured and on what, in a form
//! `ledger compare` reads back.

use crate::stats::Summary;
use crate::workloads::Sizes;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One metric of one workload: the median across epochs of the per-epoch
/// value, with the quartiles and the number of epochs behind it. Single
/// measurements (probes, peak RSS) have `samples == 1`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: u64,
}

impl Metric {
    pub fn summary(&self) -> Summary {
        Summary {
            median: self.value,
            q1: self.q1,
            q3: self.q3,
            samples: self.samples,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    /// End-to-end metrics come from untraced results only.
    pub traced: bool,
    pub epochs: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl WorkloadResult {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Where and on what the numbers were taken.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    pub commit: String,
    pub rustc: String,
    pub kernel: String,
    pub nproc: u64,
    /// Filesystem type under the WAL directory: fsync cost is this
    /// filesystem's, not a device's.
    pub wal_fs: String,
    /// The frozen input sizes.
    pub sizes: Sizes,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    pub provenance: Provenance,
    pub results: Vec<WorkloadResult>,
}

impl ResultSet {
    pub fn untraced(&self, workload: &str) -> Option<&WorkloadResult> {
        self.results
            .iter()
            .find(|r| r.workload == workload && !r.traced)
    }

    pub fn write(&self, path: &Path) -> Result<(), String> {
        write_json(self, path)
    }

    pub fn read(path: &Path) -> Result<ResultSet, String> {
        read_json(path)
    }
}

pub fn write_json<T: Serialize>(value: &T, path: &Path) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_json<T: Deserialize>(path: &Path) -> Result<T, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_files_round_trip_with_awkward_strings_and_numbers() {
        let set = ResultSet {
            provenance: Provenance {
                commit: "unknown".to_owned(),
                rustc: "rustc 1.0 (\"quoted\" \\ back\tslash)\n".to_owned(),
                kernel: "6.1 \u{1}ctl \u{e9}".to_owned(),
                nproc: 2,
                wal_fs: "ext4".to_owned(),
                sizes: Sizes::FROZEN,
            },
            results: vec![WorkloadResult {
                workload: "crack_converge".to_owned(),
                seed: u64::from(u32::MAX) * 3,
                seconds: 10,
                traced: false,
                epochs: 7,
                attempted: 7_000,
                failed: 0,
                metrics: vec![
                    Metric {
                        name: "first_query_ms".to_owned(),
                        unit: "ms".to_owned(),
                        value: 41.250_731,
                        q1: 40.0,
                        q3: 1e-7,
                        samples: 7,
                    },
                    Metric {
                        name: "ops_per_s".to_owned(),
                        unit: "1/s".to_owned(),
                        value: 12_345_678.9,
                        q1: -0.5,
                        q3: 3.0,
                        samples: 1,
                    },
                ],
            }],
        };
        let path = std::env::temp_dir().join(format!("ledger-report-{}.json", std::process::id()));
        set.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(r#"(\"quoted\" \\ back\tslash)\n"#), "{text}");
        assert!(text.contains("\\u0001"), "{text}");
        assert_eq!(ResultSet::read(&path).unwrap(), set);
        std::fs::remove_file(&path).unwrap();
        assert!(ResultSet::read(&path).unwrap_err().contains("read"));
    }
}
