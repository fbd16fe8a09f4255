//! Server- and client-side error types, and the mapping from the engine's
//! typed [`AidxError`] onto wire [`ErrorCode`]s.

use crate::protocol::{ErrorCode, FrameError, FrameReadError, WireError};
use aidx_core::AidxError;
use std::fmt;
use std::io;

/// Why a [`crate::Server`] failed to start.
#[derive(Debug)]
pub enum ServerError {
    /// The configuration was rejected (see
    /// [`crate::ServerConfig::validate`]).
    Config(String),
    /// Binding or configuring the listener failed.
    Io(io::Error),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Config(reason) => write!(f, "invalid server configuration: {reason}"),
            ServerError::Io(e) => write!(f, "server i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Config(_) => None,
        }
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// Map an engine error onto its typed wire form. The mapping is total and
/// code-stable: clients can branch on [`ErrorCode`] without parsing message
/// text.
pub fn wire_error_from(error: &AidxError) -> WireError {
    let code = match error {
        AidxError::Store(_) => ErrorCode::Store,
        AidxError::InvalidRange { .. } => ErrorCode::InvalidRange,
        AidxError::Planner { .. } => ErrorCode::Planner,
        AidxError::Strategy { .. } => ErrorCode::Strategy,
        AidxError::AggregateOverflow { .. } => ErrorCode::AggregateOverflow,
        AidxError::Config { .. } => ErrorCode::Config,
        AidxError::Io { .. } => ErrorCode::Io,
    };
    WireError::new(code, error.to_string())
}

/// Errors surfaced by the [`crate::client::Client`].
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or was closed.
    Io(io::Error),
    /// A reply frame failed to decode.
    Frame(FrameError),
    /// The server replied with a typed error.
    Server(WireError),
    /// The server shed the request under admission control. Nothing was
    /// executed; back off and retry.
    Overloaded {
        /// In-flight requests the server reported.
        in_flight: u32,
        /// The server's configured budget.
        budget: u32,
    },
    /// The server closed the connection before replying.
    Disconnected,
    /// The server replied with a frame that does not answer the request
    /// (protocol violation).
    UnexpectedReply {
        /// What the client was waiting for.
        expected: &'static str,
    },
    /// An introspection reply's body is not the JSON its surface promises.
    Json(serde_json::Error),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "client frame error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Overloaded { in_flight, budget } => {
                write!(f, "server overloaded ({in_flight}/{budget} in flight)")
            }
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::UnexpectedReply { expected } => {
                write!(f, "unexpected reply (expected {expected})")
            }
            ClientError::Json(e) => write!(f, "client body error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            ClientError::Server(e) => Some(e),
            ClientError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<serde_json::Error> for ClientError {
    fn from(e: serde_json::Error) -> Self {
        ClientError::Json(e)
    }
}

impl From<FrameReadError> for ClientError {
    fn from(e: FrameReadError) -> Self {
        match e {
            FrameReadError::Io(e) => ClientError::Io(e),
            FrameReadError::Oversized { .. } => ClientError::Frame(FrameError::CountOverflow {
                what: "frame payload byte",
                count: 0,
            }),
        }
    }
}

impl ClientError {
    /// True when this is an admission-control shed (retry is sensible).
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ClientError::Overloaded { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_columnstore::error::ColumnStoreError;

    #[test]
    fn every_engine_error_maps_to_a_distinct_code() {
        let cases = [
            (
                AidxError::Store(ColumnStoreError::NotFound {
                    kind: "table",
                    name: "t".into(),
                }),
                ErrorCode::Store,
            ),
            (
                AidxError::InvalidRange {
                    column: "a".into(),
                    low: 9,
                    high: 1,
                },
                ErrorCode::InvalidRange,
            ),
            (AidxError::planner("no driver"), ErrorCode::Planner),
            (AidxError::strategy("nope"), ErrorCode::Strategy),
            (
                AidxError::AggregateOverflow { column: "v".into() },
                ErrorCode::AggregateOverflow,
            ),
            (AidxError::config("p", "bad"), ErrorCode::Config),
            (AidxError::io("fsync log", "disk full"), ErrorCode::Io),
        ];
        for (error, expected) in cases {
            let wire = wire_error_from(&error);
            assert_eq!(wire.code, expected, "{error}");
            assert_eq!(wire.message, error.to_string());
        }
    }

    #[test]
    fn display_and_sources() {
        let e = ServerError::Config("bad".into());
        assert!(e.to_string().contains("bad"));
        assert!(std::error::Error::source(&e).is_none());
        let e = ServerError::from(io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        assert!(std::error::Error::source(&e).is_some());

        let overloaded = ClientError::Overloaded {
            in_flight: 3,
            budget: 2,
        };
        assert!(overloaded.is_overloaded());
        assert!(overloaded.to_string().contains("3/2"));
        assert!(!ClientError::Disconnected.is_overloaded());
        assert!(ClientError::Disconnected.to_string().contains("closed"));
        let e = ClientError::from(FrameError::Truncated);
        assert!(std::error::Error::source(&e).is_some());
        let e = ClientError::from(FrameReadError::Oversized {
            announced: 10,
            max: 1,
        });
        assert!(matches!(e, ClientError::Frame(_)));
        let e = ClientError::UnexpectedReply { expected: "pong" };
        assert!(e.to_string().contains("pong"));
        let e = ClientError::from(serde_json::from_str::<u64>("[").unwrap_err());
        assert!(e.to_string().contains("body") && std::error::Error::source(&e).is_some());
    }
}
