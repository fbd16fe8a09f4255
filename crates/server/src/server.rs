//! The TCP front-end: a bounded acceptor plus one connection worker per
//! client.
//!
//! The threading model mirrors the engine's concurrency design instead of
//! fighting it: a [`aidx_core::Session`] is a cheap thread-safe handle, so
//! every connection gets its *own* session on its *own* worker thread, and
//! all cross-connection coordination happens where the engine already does
//! it (catalog read/write locks, per-column index latches) plus one place it
//! does not — the [`AdmissionGate`], which bounds how many requests may be
//! *executing* at once across all connections. Everything else (acceptor,
//! registry, shutdown) is bookkeeping around `std::net`.
//!
//! Shutdown is cooperative and lock-step: set the flag, poke the acceptor
//! with a loopback connect, shut every registered client socket down (which
//! unblocks workers parked in `read` without ever splitting a frame), then
//! join all threads. No thread is ever detached, so a dropped [`Server`]
//! leaks nothing.

use crate::admission::{AdmissionGate, ServerCounters, ServerStats};
use crate::config::ServerConfig;
use crate::conn;
use crate::error::ServerError;
use crate::protocol::{write_frame, ErrorCode, Reply, WireError};
use aidx_core::Database;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// State shared between the acceptor, the connection workers and the
/// [`Server`] handle.
pub(crate) struct Shared {
    pub(crate) db: Database,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    pub(crate) gate: AdmissionGate,
    pub(crate) counters: ServerCounters,
    /// Live connections, keyed by a server-unique id. Holds a second handle
    /// to each worker's socket so shutdown can unblock parked reads.
    conns: Mutex<HashMap<u64, TcpStream>>,
    active: AtomicUsize,
    next_conn_id: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    pub(crate) fn deregister(&self, conn_id: u64) {
        self.conns.lock().remove(&conn_id);
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running TCP server over one [`Database`].
///
/// ```
/// use aidx_core::prelude::*;
/// use aidx_server::{Client, Server, ServerConfig};
///
/// let db = Database::new(StrategyKind::Cracking);
/// db.create_table(
///     "t",
///     Table::from_columns(vec![("k", Column::from_i64((0..100).rev().collect()))])?,
/// )?;
/// let server = Server::start(db, ServerConfig::localhost()).expect("bind localhost");
///
/// let mut client = Client::connect(server.local_addr()).expect("connect");
/// client.ping().expect("ping");
/// let result = client
///     .query(&Query::table("t").range("k", 10, 20))
///     .expect("query over the wire");
/// assert_eq!(result.row_count(), 10);
///
/// server.shutdown();
/// # Ok::<(), aidx_core::AidxError>(())
/// ```
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Server {
    /// Bind `config.addr` and start serving `db`. The acceptor and every
    /// connection worker run on their own threads; the call returns as soon
    /// as the listener is bound.
    pub fn start(db: Database, config: ServerConfig) -> Result<Server, ServerError> {
        config.validate().map_err(ServerError::Config)?;
        let listener = TcpListener::bind(config.addr)?;
        let local_addr = listener.local_addr()?;
        // instrument the server on the *engine's* registry: the engine's
        // reporter (and therefore its alert rules, e.g. the default
        // shed-spike rule) then observes `server.*` counters in its
        // per-interval deltas, and one INTROSPECT sweep covers both
        // halves of the stack
        let counters = ServerCounters::on_registry(db.metrics_registry());
        let shared = Arc::new(Shared {
            gate: AdmissionGate::new(config.max_in_flight),
            db,
            config,
            shutdown: AtomicBool::new(false),
            counters,
            conns: Mutex::new(HashMap::new()),
            active: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("aidx-server-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(ServerError::Io)?
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port picked by
    /// the OS).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.counters.snapshot()
    }

    /// Requests currently executing (holding an admission permit).
    pub fn in_flight(&self) -> usize {
        self.shared.gate.in_flight()
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Stop accepting, close every connection, and join all threads.
    /// Idempotent; also runs on drop.
    pub fn stop(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // unblock the acceptor's `accept` with a throwaway connection
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.lock().take() {
            let _ = acceptor.join();
        }
        // unblock every worker parked in `read` — shutting the socket down
        // makes the pending (or next) read observe EOF at a frame boundary
        for (_, stream) in self.shared.conns.lock().drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let workers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.workers.lock());
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// Consume the handle, stopping the server (explicit-intent spelling of
    /// what drop does).
    pub fn shutdown(self) {
        self.stop();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((mut stream, _peer)) = listener.accept() else {
            // accept errors are transient (EMFILE, aborted handshake); bail
            // only when asked to
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the throwaway unblock connection, or a late arrival
        }
        // request/reply traffic: a reply's tail must not wait for the ACK of
        // its head
        stream.set_nodelay(true).ok();
        // connection cap: reject *with a typed reply*, never queue silently.
        // Only this thread increments `active`, so load+store is race-free.
        if shared.active.load(Ordering::Acquire) >= shared.config.max_connections {
            shared.counters.connections_rejected.incr();
            let reply = Reply::Error(WireError::new(
                ErrorCode::AtCapacity,
                format!(
                    "server at its {}-connection cap",
                    shared.config.max_connections
                ),
            ));
            let _ = write_frame(&mut stream, &reply.encode());
            continue; // dropping the stream closes it
        }
        // a worker needs the socket; the registry needs a second handle to
        // unblock it at shutdown — without one we could never join, so a
        // failed clone rejects the connection
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        shared.active.fetch_add(1, Ordering::AcqRel);
        shared.conns.lock().insert(conn_id, registered);
        shared.counters.connections_accepted.incr();
        let worker = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("aidx-server-conn-{conn_id}"))
                .spawn(move || conn::serve(&shared, conn_id, stream))
        };
        match worker {
            Ok(handle) => {
                let mut workers = shared.workers.lock();
                // reap finished workers so a long-lived server does not
                // accumulate a handle per connection it ever served
                workers.retain(|w| !w.is_finished());
                workers.push(handle);
            }
            Err(_) => shared.deregister(conn_id), // spawn failed: undo
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_columnstore::column::Column;
    use aidx_columnstore::table::Table;
    use aidx_core::{Query, StrategyKind};

    fn tiny_db() -> Database {
        let db = Database::new(StrategyKind::Cracking);
        db.create_table(
            "t",
            Table::from_columns(vec![("k", Column::from_i64((0..64).collect()))]).unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn start_validates_config() {
        let err = Server::start(tiny_db(), ServerConfig::localhost().with_max_connections(0));
        assert!(matches!(err, Err(ServerError::Config(_))));
    }

    #[test]
    fn stop_is_idempotent_and_runs_on_drop() {
        let server = Server::start(tiny_db(), ServerConfig::localhost()).unwrap();
        assert_ne!(server.local_addr().port(), 0, "ephemeral port resolved");
        assert_eq!(server.active_connections(), 0);
        assert_eq!(server.in_flight(), 0);
        assert!(format!("{server:?}").contains("Server"));
        server.stop();
        server.stop();
        drop(server);
    }

    #[test]
    fn serves_a_query_end_to_end() {
        let server = Server::start(tiny_db(), ServerConfig::localhost()).unwrap();
        let mut client = crate::client::Client::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        let result = client.query(&Query::table("t").range("k", 0, 10)).unwrap();
        assert_eq!(result.row_count(), 10);
        let stats = server.stats();
        assert_eq!(stats.connections_accepted, 1);
        assert_eq!(stats.queries_served, 1);
        assert_eq!(stats.requests_shed, 0);
        server.shutdown();
    }
}
