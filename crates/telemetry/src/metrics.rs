//! The lock-free metrics registry: counters, gauges, log₂ histograms, and
//! their mergeable serde-serializable snapshots.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of buckets in a [`Histogram`]: bucket 0 holds the value 0, bucket
/// `i` (1..=64) holds values in `[2^(i-1), 2^i)` — every `u64` has exactly
/// one bucket, so recording never saturates or clips.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonic event counter. Updates are single relaxed atomic adds —
/// observability, not synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one event.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed level (queue depths, in-flight requests, bytes
/// held). Unlike a [`Counter`] it can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Set the level outright.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Move the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log₂-scale histogram for latencies (nanoseconds) and
/// sizes (bytes, rows).
///
/// Recording is lock-free: one relaxed add into the value's bucket and one
/// into the running sum. The log₂ scale trades precision for a fixed
/// 65-slot footprint — percentile readout reports the *upper bound* of the
/// qualifying bucket, i.e. within 2× of the true quantile, which is the
/// right resolution for "did p99 double?" questions.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index of `value`: 0 for 0, otherwise its bit length.
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Largest value bucket `i` can hold (the value percentiles report).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Record a duration as whole nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, duration: Duration) {
        self.record(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy (name is supplied by the registry; standalone
    /// histograms pick their own).
    pub fn snapshot(&self, name: impl Into<String>) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.into(),
            count: self.count(),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// One counter's point-in-time value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Registry name (e.g. `engine.queries_served`).
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge's point-in-time level.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Registry name.
    pub name: String,
    /// Level at snapshot time.
    pub value: i64,
}

/// One histogram's point-in-time distribution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Registry name (e.g. `server.query_ns`).
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Per-bucket counts, [`HISTOGRAM_BUCKETS`] entries (log₂ scale).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty named snapshot (the identity for [`HistogramSnapshot::merge`]).
    pub fn empty(name: impl Into<String>) -> Self {
        HistogramSnapshot {
            name: name.into(),
            count: 0,
            sum: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }

    /// The value below which a fraction `q` (0.0..=1.0) of observations
    /// fall, reported as the upper bound of the qualifying log₂ bucket.
    /// `None` when empty.
    ///
    /// # Error bound
    ///
    /// The reported value `r` always satisfies `t <= r < 2·t` where `t` is
    /// the true quantile (for `t >= 1`; the value 0 has its own exact
    /// bucket). In other words the estimate is never below the truth and
    /// strictly less than 2× above it — the log₂ buckets trade per-value
    /// precision for a fixed footprint, which is the right resolution for
    /// "did p99 double?" questions but not for micro-benchmarks.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper_bound(i));
            }
        }
        Some(bucket_upper_bound(HISTOGRAM_BUCKETS - 1))
    }

    /// Median (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Exact arithmetic mean of the recorded values. `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Mean as a whole number (`sum / count`, truncating). Unlike
    /// [`HistogramSnapshot::quantile`] this is *exact* up to the integer
    /// truncation, because `sum` accumulates raw values, not bucket bounds.
    /// Interval reporters use it for "average latency this window" lines.
    /// `None` when empty.
    pub fn approx_mean(&self) -> Option<u64> {
        (self.count > 0).then(|| self.sum / self.count)
    }

    /// Fold another snapshot of the *same metric* in (bucket-wise sum).
    /// Merging differently-named snapshots is a caller bug and panics.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.name, other.name,
            "merging histograms of different metrics"
        );
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }
}

/// A mergeable point-in-time copy of a whole [`Registry`] (or a union of
/// several). Entries are sorted by name; serde round-trips through the
/// vendored serde/serde_json.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Value of the named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Level of the named gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Union with another snapshot: counters with the same name add,
    /// gauges take the other side's level (it is the newer reading),
    /// histograms merge bucket-wise; unmatched names are appended. The
    /// result stays sorted by name.
    pub fn merge(&mut self, other: &Snapshot) {
        for c in &other.counters {
            match self.counters.iter_mut().find(|mine| mine.name == c.name) {
                Some(mine) => mine.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        for g in &other.gauges {
            match self.gauges.iter_mut().find(|mine| mine.name == g.name) {
                Some(mine) => mine.value = g.value,
                None => self.gauges.push(g.clone()),
            }
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|mine| mine.name == h.name) {
                Some(mine) => mine.merge(h),
                None => self.histograms.push(h.clone()),
            }
        }
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        self.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }
}

/// Render a nanosecond reading with an adaptive unit.
pub(crate) fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// A registry of named metrics.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a short mutex and is
/// idempotent — the same name always returns the same instrument — so
/// subsystems grab `Arc` handles once at construction and update them
/// lock-free forever after. Names are dotted paths by convention
/// (`engine.queries_served`, `wal.fsync_ns`, `server.requests_shed`).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry lock poisoned");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry lock poisoned");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("registry lock poisoned");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(name, c)| CounterSnapshot {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(name, g)| GaugeSnapshot {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(name, h)| h.snapshot(name.clone()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_u64_domain() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // every bucket's upper bound maps back into that bucket
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn histogram_percentiles_bound_the_true_quantile_within_2x() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 1000);
        // true p50 = 500 → bucket [256,512) upper bound 511
        assert_eq!(snap.p50(), Some(511));
        // true p99 = 990 → bucket [512,1024) upper bound 1023
        assert_eq!(snap.p99(), Some(1023));
        assert_eq!(snap.mean(), Some(500.5));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let snap = Histogram::new().snapshot("t");
        assert_eq!(snap.p50(), None);
        assert_eq!(snap.mean(), None);
        assert_eq!(snap, HistogramSnapshot::empty("t"));
    }

    #[test]
    fn histogram_merge_is_bucketwise_addition() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100u64 {
            a.record(v);
            b.record(v * 1000);
        }
        let mut merged = a.snapshot("m");
        merged.merge(&b.snapshot("m"));
        assert_eq!(merged.count, 200);
        let all = Histogram::new();
        for v in 0..100u64 {
            all.record(v);
            all.record(v * 1000);
        }
        assert_eq!(merged, all.snapshot("m"));
    }

    #[test]
    #[should_panic(expected = "different metrics")]
    fn merging_different_metrics_panics() {
        let mut a = HistogramSnapshot::empty("a");
        a.merge(&HistogramSnapshot::empty("b"));
    }

    #[test]
    fn registry_is_idempotent_and_snapshots_sorted() {
        let registry = Registry::new();
        let c1 = registry.counter("z.late");
        let c2 = registry.counter("z.late");
        assert!(Arc::ptr_eq(&c1, &c2), "same name, same counter");
        c1.add(3);
        c2.incr();
        registry.counter("a.early").add(7);
        registry.gauge("g.depth").set(-2);
        registry.histogram("h.lat_ns").record(1500);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["a.early", "z.late"]
        );
        assert_eq!(snap.counter("z.late"), Some(4));
        assert_eq!(snap.counter("a.early"), Some(7));
        assert_eq!(snap.gauge("g.depth"), Some(-2));
        assert_eq!(snap.histogram("h.lat_ns").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_keeps_sorted_order() {
        let a = Registry::new();
        a.counter("shared").add(5);
        a.counter("only_a").add(1);
        a.histogram("h").record(10);
        let b = Registry::new();
        b.counter("shared").add(7);
        b.counter("only_b").add(2);
        b.histogram("h").record(1000);
        b.gauge("g").set(9);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("shared"), Some(12));
        assert_eq!(merged.counter("only_a"), Some(1));
        assert_eq!(merged.counter("only_b"), Some(2));
        assert_eq!(merged.gauge("g"), Some(9));
        assert_eq!(merged.histogram("h").unwrap().count, 2);
        let names: Vec<_> = merged.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn snapshot_serde_round_trips() {
        let registry = Registry::new();
        registry.counter("engine.queries_served").add(42);
        registry.histogram("engine.query_ns").record(123_456);
        registry.gauge("server.in_flight").set(3);
        let snap = registry.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn approx_mean_is_truncating_sum_over_count() {
        let h = Histogram::new();
        h.record(10);
        h.record(11);
        let snap = h.snapshot("t");
        assert_eq!(snap.approx_mean(), Some(10)); // 21 / 2 truncates
        assert_eq!(snap.mean(), Some(10.5));
        assert_eq!(HistogramSnapshot::empty("t").approx_mean(), None);
    }

    #[test]
    fn quantile_error_bound_holds_across_magnitudes() {
        for true_value in [1u64, 7, 100, 4096, 1_000_000, u64::MAX / 2] {
            let h = Histogram::new();
            h.record(true_value);
            let reported = h.snapshot("t").p50().unwrap();
            assert!(reported >= true_value, "never below truth");
            assert!(
                reported / 2 < true_value,
                "strictly under 2x: {reported} vs {true_value}"
            );
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let registry = Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    let counter = registry.counter("c");
                    let histogram = registry.histogram("h");
                    for i in 0..10_000u64 {
                        counter.incr();
                        histogram.record(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("c"), Some(80_000));
        assert_eq!(snap.histogram("h").unwrap().count, 80_000);
    }
}
