//! # aidx-server
//!
//! A std-only TCP front-end for the adaptive-indexing engine: the piece
//! that turns the embedded [`aidx_core::Database`] into something many
//! concurrent clients can hit over the wire — and thereby the forcing
//! function for the engine's concurrency design. `Session` is a cheap,
//! thread-safe, cloneable handle, which is exactly the shape a network
//! server needs: one session per connection, no shared mutable state in the
//! front-end beyond the admission gate.
//!
//! The crate has three faces:
//!
//! * [`protocol`] — a compact length-prefixed binary protocol
//!   (PING/QUERY/INSERT/BATCH request frames plus the never-shed
//!   INTROSPECT, whose surface byte picks stats, metrics, traces, alerts
//!   or history; typed reply frames including structured errors and an
//!   explicit OVERLOADED shed signal).
//!   Every decoder is total: hostile bytes produce typed errors, never
//!   panics or unbounded allocations.
//! * [`Server`] — a bounded acceptor plus one connection worker (and one
//!   engine session) per client, with **admission control**: a bounded
//!   in-flight request budget; requests beyond it are shed immediately with
//!   a typed retry signal instead of queueing unboundedly or hanging.
//!   Batched query submission lets many small queries amortize per-request
//!   overhead under a single admission permit.
//! * [`Client`] — the blocking client library the load generator
//!   (`e14_server_load` in `aidx-bench`) and the failure-path tests drive;
//!   results come back as [`WireResult`] whose canonical encoding is
//!   byte-identical to what an embedded session produces for the same
//!   query.
//!
//! The concurrency papers motivating this front-end ("Main Memory Adaptive
//! Indexing for Multi-core Systems", "Concurrency Control for Adaptive
//! Indexing") both stress that adaptive index refinement only gets honest
//! under true inter-query concurrency — many independent clients racing
//! their refinements — which an embedded single-process benchmark cannot
//! produce. This crate is how the repo produces it.

#![deny(missing_docs)]

pub mod admission;
pub mod client;
pub mod config;
mod conn;
pub mod error;
pub mod protocol;
mod server;

pub use admission::{AdmissionGate, ServerStats};
pub use client::{BatchOutcome, Client};
pub use config::ServerConfig;
pub use error::{ClientError, ServerError};
pub use protocol::{ErrorCode, Reply, Request, Rows, Surface, WireError, WireResult};
pub use server::Server;
