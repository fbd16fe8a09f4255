//! Durability configuration: where the log and checkpoints live, and how
//! eagerly the log is fsynced.

use std::path::{Path, PathBuf};

/// When the log file is flushed to stable storage.
///
/// Every policy keeps the *ordering* guarantee (a record is written to the
/// OS before the in-memory catalog applies it); the policy only controls how
/// much acknowledged-but-unsynced work a whole-machine crash can lose. A
/// mere process crash loses nothing under any policy — the page cache
/// survives the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append. Zero loss window, highest latency;
    /// batched appends amortize it, and concurrent writers share one fsync
    /// via group commit.
    Always,
    /// `fsync` once every `n` appends (an `append_rows` batch counts as
    /// one). Bounds the loss window to `n` acknowledged appends.
    EveryN(u32),
    /// `fsync` when roughly a chunk's worth of rows has accumulated since
    /// the last sync, aligning the sync cadence with chunk sealing. The
    /// cheapest policy; the loss window is up to one chunk of rows.
    OnSeal,
}

/// Configuration for the durability subsystem, passed to
/// `DatabaseBuilder::durability`.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityConfig {
    /// Root directory for all durable state. The log lives in `<dir>/wal/`,
    /// checkpoints in `<dir>/checkpoints/`. Created if absent.
    pub dir: PathBuf,
    /// When appends are flushed to stable storage.
    pub fsync: FsyncPolicy,
    /// Background checkpoint trigger: snapshot once this many rows have been
    /// appended since the last checkpoint (a table drop also triggers one
    /// regardless of this count; compaction never does).
    pub checkpoint_after_rows: u64,
}

impl DurabilityConfig {
    /// A configuration rooted at `dir` with the defaults: [`FsyncPolicy::OnSeal`]
    /// and a checkpoint every 65 536 appended rows.
    pub fn at(dir: impl AsRef<Path>) -> Self {
        DurabilityConfig {
            dir: dir.as_ref().to_path_buf(),
            fsync: FsyncPolicy::OnSeal,
            checkpoint_after_rows: 65_536,
        }
    }

    /// Set the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Set the row-count checkpoint trigger.
    pub fn checkpoint_after_rows(mut self, rows: u64) -> Self {
        self.checkpoint_after_rows = rows;
        self
    }

    /// Validate the configuration, returning `(parameter, reason)` on error
    /// so the kernel can surface its own typed `Config` error.
    pub fn validate(&self) -> Result<(), (&'static str, String)> {
        if self.dir.as_os_str().is_empty() {
            return Err(("durability.dir", "must not be empty".to_string()));
        }
        if self.fsync == FsyncPolicy::EveryN(0) {
            return Err((
                "durability.fsync",
                "EveryN(0) never syncs; use EveryN(1) or Always".to_string(),
            ));
        }
        if self.checkpoint_after_rows == 0 {
            return Err((
                "durability.checkpoint_after_rows",
                "must be at least 1".to_string(),
            ));
        }
        Ok(())
    }

    /// The log directory, `<dir>/wal`.
    pub fn wal_dir(&self) -> PathBuf {
        self.dir.join("wal")
    }

    /// The checkpoint directory, `<dir>/checkpoints`.
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.dir.join("checkpoints")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders() {
        let config = DurabilityConfig::at("/tmp/aidx")
            .fsync(FsyncPolicy::EveryN(64))
            .checkpoint_after_rows(1024);
        assert_eq!(config.fsync, FsyncPolicy::EveryN(64));
        assert_eq!(config.checkpoint_after_rows, 1024);
        assert_eq!(config.wal_dir(), PathBuf::from("/tmp/aidx/wal"));
        assert_eq!(
            config.checkpoint_dir(),
            PathBuf::from("/tmp/aidx/checkpoints")
        );
        assert!(config.validate().is_ok());
    }

    #[test]
    fn invalid_configurations_are_named() {
        let empty = DurabilityConfig::at("");
        assert_eq!(empty.validate().unwrap_err().0, "durability.dir");
        let zero_n = DurabilityConfig::at("/tmp/aidx").fsync(FsyncPolicy::EveryN(0));
        assert_eq!(zero_n.validate().unwrap_err().0, "durability.fsync");
        let zero_rows = DurabilityConfig::at("/tmp/aidx").checkpoint_after_rows(0);
        assert_eq!(
            zero_rows.validate().unwrap_err().0,
            "durability.checkpoint_after_rows"
        );
    }
}
