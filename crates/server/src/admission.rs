//! Admission control: a bounded in-flight request budget with typed
//! shedding, plus the server's observable counters.
//!
//! The gate is deliberately *non-queueing*: a request that cannot acquire a
//! permit is rejected immediately with a [`crate::protocol::Reply::Overloaded`]
//! frame. Under overload this keeps every connection responsive (the client
//! learns within one round trip that it must back off) and bounds the
//! server's memory — the alternative, an unbounded queue, converts overload
//! into unbounded latency and eventually OOM, the classic failure mode the
//! admission-control literature warns about.

use aidx_telemetry::{Counter, Histogram, Registry, Snapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A bounded counting semaphore that never blocks: [`AdmissionGate::try_acquire`]
/// either returns a RAII permit or fails immediately.
#[derive(Debug)]
pub struct AdmissionGate {
    budget: usize,
    in_flight: AtomicUsize,
}

impl AdmissionGate {
    /// A gate admitting at most `budget` concurrent holders.
    pub fn new(budget: usize) -> Self {
        AdmissionGate {
            budget: budget.max(1),
            in_flight: AtomicUsize::new(0),
        }
    }

    /// The configured budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Requests currently holding a permit.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Try to admit one request. Returns `None` — without blocking or
    /// queueing — when the budget is exhausted.
    pub fn try_acquire(&self) -> Option<AdmissionPermit<'_>> {
        let mut current = self.in_flight.load(Ordering::Relaxed);
        loop {
            if current >= self.budget {
                return None;
            }
            match self.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(AdmissionPermit { gate: self }),
                Err(observed) => current = observed,
            }
        }
    }
}

/// A held admission slot; releases on drop.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Monotonic counters and latency histograms describing everything the
/// server has done, backed by one `aidx-telemetry` [`Registry`]. All
/// instruments are lock-free relaxed atomics — they are observability, not
/// synchronization.
///
/// The registry is the *single* source for server-side metrics: both
/// [`crate::Server::stats`] (via [`ServerCounters::snapshot`]) and the
/// `INTROSPECT` stats surface (via [`ServerCounters::registry_snapshot`])
/// read the same instruments, so the two views cannot drift apart.
#[derive(Debug)]
pub struct ServerCounters {
    registry: Arc<Registry>,
    /// `server.connections_accepted` — connections accepted and served.
    pub connections_accepted: Arc<Counter>,
    /// `server.connections_rejected` — rejections at the connection cap.
    pub connections_rejected: Arc<Counter>,
    /// `server.queries_served` — queries completed (including in batches).
    pub queries_served: Arc<Counter>,
    /// `server.inserts_served` — inserts completed.
    pub inserts_served: Arc<Counter>,
    /// `server.requests_shed` — requests shed by admission control (a batch
    /// counts once).
    pub requests_shed: Arc<Counter>,
    /// `server.errors_sent` — typed error replies (malformed frames, engine
    /// errors, ...).
    pub errors_sent: Arc<Counter>,
    /// `server.query_ns` — per-request dispatch latency of `QUERY` frames.
    pub query_ns: Arc<Histogram>,
    /// `server.insert_ns` — dispatch latency of `INSERT` frames.
    pub insert_ns: Arc<Histogram>,
    /// `server.batch_ns` — dispatch latency of whole `BATCH` frames.
    pub batch_ns: Arc<Histogram>,
    /// `server.introspect_ns` — dispatch latency of `INTROSPECT` frames,
    /// every surface (reading the engine plus rendering the body).
    pub introspect_ns: Arc<Histogram>,
}

impl Default for ServerCounters {
    fn default() -> Self {
        ServerCounters::on_registry(Arc::new(Registry::new()))
    }
}

impl ServerCounters {
    /// Instrument the server's counters on `registry`. The server passes
    /// the *engine's* registry here, which is what closes the loop: the
    /// engine's reporter then sees `server.requests_shed` (and friends) in
    /// its per-interval deltas, so an alert rule on the shed rate actually
    /// observes the front-end, and one `INTROSPECT` sweep covers both
    /// halves without any merging.
    pub fn on_registry(registry: Arc<Registry>) -> Self {
        ServerCounters {
            connections_accepted: registry.counter("server.connections_accepted"),
            connections_rejected: registry.counter("server.connections_rejected"),
            queries_served: registry.counter("server.queries_served"),
            inserts_served: registry.counter("server.inserts_served"),
            requests_shed: registry.counter("server.requests_shed"),
            errors_sent: registry.counter("server.errors_sent"),
            query_ns: registry.histogram("server.query_ns"),
            insert_ns: registry.histogram("server.insert_ns"),
            batch_ns: registry.histogram("server.batch_ns"),
            introspect_ns: registry.histogram("server.introspect_ns"),
            registry,
        }
    }
    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections_accepted: self.connections_accepted.get(),
            connections_rejected: self.connections_rejected.get(),
            queries_served: self.queries_served.get(),
            inserts_served: self.inserts_served.get(),
            requests_shed: self.requests_shed.get(),
            errors_sent: self.errors_sent.get(),
        }
    }

    /// Every `server.*` metric (counters and latency histograms) as a
    /// mergeable [`Snapshot`] — the server's half of the stats surface.
    pub fn registry_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

/// A point-in-time snapshot of [`ServerCounters`], as returned by
/// [`crate::Server::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and served.
    pub connections_accepted: u64,
    /// Connections rejected at the connection cap.
    pub connections_rejected: u64,
    /// Individual queries completed (including inside batches).
    pub queries_served: u64,
    /// Inserts completed.
    pub inserts_served: u64,
    /// Requests shed by admission control.
    pub requests_shed: u64,
    /// Typed error replies sent.
    pub errors_sent: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn gate_admits_up_to_budget_and_releases_on_drop() {
        let gate = AdmissionGate::new(2);
        assert_eq!(gate.budget(), 2);
        let a = gate.try_acquire().unwrap();
        let b = gate.try_acquire().unwrap();
        assert_eq!(gate.in_flight(), 2);
        assert!(gate.try_acquire().is_none(), "budget exhausted: shed");
        drop(a);
        assert_eq!(gate.in_flight(), 1);
        let c = gate.try_acquire().unwrap();
        assert!(gate.try_acquire().is_none());
        drop(b);
        drop(c);
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn zero_budget_clamps_to_one() {
        let gate = AdmissionGate::new(0);
        assert_eq!(gate.budget(), 1);
        let _permit = gate.try_acquire().unwrap();
        assert!(gate.try_acquire().is_none());
    }

    #[test]
    fn gate_is_race_free_under_contention() {
        let gate = Arc::new(AdmissionGate::new(4));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    let mut admitted = 0u64;
                    for _ in 0..10_000 {
                        if let Some(_permit) = gate.try_acquire() {
                            admitted += 1;
                            peak.fetch_max(gate.in_flight(), Ordering::Relaxed);
                        }
                    }
                    admitted
                })
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(gate.in_flight(), 0, "all permits released");
        assert!(
            peak.load(Ordering::Relaxed) <= 4,
            "budget never exceeded: {}",
            peak.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn counters_snapshot() {
        let counters = ServerCounters::default();
        counters.queries_served.add(3);
        counters.requests_shed.incr();
        let stats = counters.snapshot();
        assert_eq!(stats.queries_served, 3);
        assert_eq!(stats.requests_shed, 1);
        assert_eq!(stats.connections_accepted, 0);
    }

    #[test]
    fn registry_snapshot_matches_stats_view() {
        let counters = ServerCounters::default();
        counters.queries_served.add(5);
        counters.errors_sent.incr();
        counters.query_ns.record(1_000);
        let snapshot = counters.registry_snapshot();
        assert_eq!(snapshot.counter("server.queries_served"), Some(5));
        assert_eq!(snapshot.counter("server.errors_sent"), Some(1));
        let hist = snapshot.histogram("server.query_ns").expect("histogram");
        assert_eq!(hist.count, 1);
        // Same instruments back the ServerStats view — no drift possible.
        assert_eq!(counters.snapshot().queries_served, 5);
    }
}
