//! The workspace-wide error type returned by every fallible entry point of
//! the kernel facade.
//!
//! The substrate ([`aidx_columnstore`]) keeps its own [`ColumnStoreError`];
//! everything above it — planner, session, database — reports [`AidxError`],
//! which wraps the substrate errors via [`From`] so that `?` composes across
//! the layers. The seed kernel surfaced most of these conditions as
//! `unwrap()`/`panic!`; they are all typed now.

use aidx_columnstore::error::ColumnStoreError;
use aidx_columnstore::types::Key;
use std::fmt;

/// Result alias used by the kernel facade.
pub type AidxResult<T> = std::result::Result<T, AidxError>;

/// Errors produced by the adaptive-indexing kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum AidxError {
    /// An error bubbled up from the column-store substrate (unknown table or
    /// column, type mismatch, arity mismatch, ...).
    Store(ColumnStoreError),
    /// A range predicate with `low > high` (half-open ranges require
    /// `low <= high`; an empty range `low == high` is fine and yields no
    /// rows).
    InvalidRange {
        /// Column the predicate applies to.
        column: String,
        /// Offending lower bound.
        low: Key,
        /// Offending upper bound.
        high: Key,
    },
    /// The planner could not build an executable plan for a query (for
    /// example: no predicate references an `int64` column that could drive
    /// the adaptive index).
    Planner {
        /// Human-readable explanation.
        reason: String,
    },
    /// An indexing-strategy level failure (a strategy that cannot serve the
    /// requested operation).
    Strategy {
        /// Human-readable explanation.
        reason: String,
    },
    /// A `SUM` aggregate overflowed the 64-bit result type.
    AggregateOverflow {
        /// Column being aggregated.
        column: String,
    },
    /// An invalid configuration value handed to [`crate::DatabaseBuilder`]
    /// (zero segment capacity, zero parallelism, ...).
    Config {
        /// The offending builder parameter.
        parameter: String,
        /// Why the value was rejected.
        reason: String,
    },
    /// A durability-layer failure: the write-ahead log or a checkpoint hit
    /// an operating-system error or unreadable on-disk state. When an
    /// `insert` returns this, the row was applied neither to the log nor to
    /// memory.
    Io {
        /// What the durability layer was doing.
        context: String,
        /// The underlying failure, rendered.
        message: String,
    },
}

impl AidxError {
    /// Shorthand for a [`AidxError::Planner`] error.
    pub fn planner(reason: impl Into<String>) -> Self {
        AidxError::Planner {
            reason: reason.into(),
        }
    }

    /// Shorthand for a [`AidxError::Strategy`] error.
    pub fn strategy(reason: impl Into<String>) -> Self {
        AidxError::Strategy {
            reason: reason.into(),
        }
    }

    /// Shorthand for a [`AidxError::Config`] error.
    pub fn config(parameter: impl Into<String>, reason: impl Into<String>) -> Self {
        AidxError::Config {
            parameter: parameter.into(),
            reason: reason.into(),
        }
    }

    /// Shorthand for an [`AidxError::Io`] error.
    pub fn io(context: impl Into<String>, message: impl Into<String>) -> Self {
        AidxError::Io {
            context: context.into(),
            message: message.into(),
        }
    }

    /// The wrapped substrate error, when there is one.
    pub fn as_store(&self) -> Option<&ColumnStoreError> {
        match self {
            AidxError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ColumnStoreError> for AidxError {
    fn from(e: ColumnStoreError) -> Self {
        AidxError::Store(e)
    }
}

impl From<aidx_wal::WalError> for AidxError {
    fn from(e: aidx_wal::WalError) -> Self {
        match e {
            aidx_wal::WalError::Io { context, message } => AidxError::Io { context, message },
            corrupt @ aidx_wal::WalError::Corrupt { .. } => AidxError::Io {
                context: "write-ahead log".to_owned(),
                message: corrupt.to_string(),
            },
        }
    }
}

impl fmt::Display for AidxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AidxError::Store(e) => write!(f, "storage error: {e}"),
            AidxError::InvalidRange { column, low, high } => write!(
                f,
                "invalid range on column {column}: low {low} > high {high}"
            ),
            AidxError::Planner { reason } => write!(f, "planner error: {reason}"),
            AidxError::Strategy { reason } => write!(f, "strategy error: {reason}"),
            AidxError::AggregateOverflow { column } => {
                write!(f, "SUM over column {column} overflowed i64")
            }
            AidxError::Config { parameter, reason } => {
                write!(f, "invalid configuration for `{parameter}`: {reason}")
            }
            AidxError::Io { context, message } => {
                write!(f, "durability error ({context}): {message}")
            }
        }
    }
}

impl std::error::Error for AidxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AidxError::Store(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_store_error_and_source() {
        let store = ColumnStoreError::NotFound {
            kind: "table",
            name: "t".into(),
        };
        let err: AidxError = store.clone().into();
        assert_eq!(err.as_store(), Some(&store));
        assert!(err.to_string().contains("table not found"));
        assert!(std::error::Error::source(&err).is_some());
        assert!(AidxError::planner("x").as_store().is_none());
    }

    #[test]
    fn display_variants() {
        assert!(AidxError::InvalidRange {
            column: "a".into(),
            low: 9,
            high: 3
        }
        .to_string()
        .contains("low 9 > high 3"));
        assert!(AidxError::planner("no driver")
            .to_string()
            .contains("no driver"));
        assert!(AidxError::strategy("nope").to_string().contains("nope"));
        assert!(AidxError::AggregateOverflow { column: "v".into() }
            .to_string()
            .contains("overflowed"));
        assert!(AidxError::config("segment_capacity", "must be at least 1")
            .to_string()
            .contains("segment_capacity"));
        assert!(AidxError::io("fsync log", "disk full")
            .to_string()
            .contains("disk full"));
        assert!(std::error::Error::source(&AidxError::planner("x")).is_none());
    }

    #[test]
    fn wal_errors_convert_to_io() {
        let io: AidxError = aidx_wal::WalError::io(
            "open wal",
            &std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
        )
        .into();
        assert!(matches!(&io, AidxError::Io { context, .. } if context == "open wal"));
        let corrupt: AidxError = aidx_wal::WalError::corrupt(7, "bad frame").into();
        assert!(corrupt.to_string().contains("byte 7"));
    }
}
