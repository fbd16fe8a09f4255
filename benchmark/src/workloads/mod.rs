//! The four workloads, and what they share: frozen sizes, the per-epoch
//! record every workload fills in, and the probe timers of the traced run.

pub mod crack_converge;
pub mod filter_project;
pub mod ingest_mixed;
pub mod served_mix;

use crate::stats;
use crate::trace::Tracer;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;

/// Input sizes. [`Sizes::FROZEN`] is the benchmark: every result file
/// records it, and changing a figure starts a new baseline. An epoch of
/// each workload lasts 1–2 s on the 2-core reference box, which lets one
/// 28 s run take the median of 10 or more epochs. `crack_converge` and
/// `served_mix` run the counts the defining issue gave; `filter_project`
/// (4 M rows, 300 queries there) and `ingest_mixed` (1 M rows, 4 000
/// batches) are a quarter of it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sizes {
    pub crack_rows: usize,
    pub crack_queries: usize,
    pub filter_rows: usize,
    pub filter_queries: usize,
    pub ingest_rows: usize,
    pub ingest_batches: usize,
    pub ingest_batch_rows: usize,
    pub served_rows: usize,
    /// Per client per epoch.
    pub served_small: usize,
    pub served_fetch: usize,
    pub served_inserts: usize,
    pub served_warmup: usize,
    /// Slice length of the crack-kernel probes.
    pub probe_keys: usize,
}

impl Sizes {
    pub const FROZEN: Sizes = Sizes {
        crack_rows: 4_000_000,
        crack_queries: 1_000,
        filter_rows: 1_000_000,
        filter_queries: 100,
        ingest_rows: 250_000,
        // off the tick cadence (16) and the fsync cadence (8): an epoch
        // must end with a log tail, part of it flushed and part of it not
        ingest_batches: 1_020,
        ingest_batch_rows: 64,
        served_rows: 2_000_000,
        served_small: 3_000,
        served_fetch: 100,
        served_inserts: 60,
        served_warmup: 300,
        probe_keys: 1_000_000,
    };
}

/// Closed-loop driving threads of `served_mix`: callers that each wait for
/// a reply before sending the next request.
pub const SERVED_CLIENTS: usize = 2;

/// What a workload function gets: where to record spans, the run's seed,
/// the epoch it is on, the sizes, and a scratch directory of its own.
pub struct Ctx<'a> {
    pub tracer: &'a Tracer,
    pub seed: u64,
    pub epoch: u64,
    pub sizes: &'a Sizes,
    pub tmp: &'a Path,
}

impl Ctx<'_> {
    /// A generator seed for input `stream` of this epoch (splitmix64 over
    /// the run seed), so epochs and inputs draw independent sequences and
    /// the same `--seed` always yields the same inputs.
    pub fn seed_for(&self, stream: u64) -> u64 {
        mix(self.seed, self.epoch, stream)
    }
}

fn mix(seed: u64, epoch: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Operations attempted and failed. An operation fails when the engine
/// returns an error, sheds or times out, or when its answer disagrees with
/// the oracle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Fail `count` already-attempted operations (rows found lost after the
    /// fact).
    pub fn fail(&mut self, count: u64) {
        self.failed += count;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One epoch of one workload: fresh state, a cold first query, the timed
/// loop.
#[derive(Debug, Default)]
pub struct Epoch {
    /// Data generation, table load, server start, warm-up.
    pub setup_s: f64,
    /// Wall time of the timed loop.
    pub wall_s: f64,
    /// Operations completed in the timed loop.
    pub ops: u64,
    pub tally: Tally,
    pub first_query_ms: f64,
    /// Caller-side latency of every query of the timed loop, in order.
    pub query_us: Vec<f64>,
    /// `query_p50_us`/`query_p99_us` are taken over `query_us[tail_from..]`.
    pub tail_from: usize,
    /// Workload-specific per-epoch values, end-to-end and per-layer alike.
    pub extras: Vec<(&'static str, f64)>,
}

impl Epoch {
    pub fn extra(&mut self, name: &'static str, value: f64) {
        self.extras.push((name, value));
    }

    /// Median and supported tail of a latency class, as two extras.
    pub fn extra_latency(&mut self, p50: &'static str, tail: Option<&'static str>, us: &[f64]) {
        if us.is_empty() {
            return;
        }
        self.extra(p50, stats::median(us));
        if let Some(name) = tail {
            self.extra(name, stats::tail(us, 0.99).0);
        }
    }
}

/// Rows of a permutation of `0..n` that fall in `[low, high)`: the oracle
/// every range count is checked against.
pub fn permutation_range_count(low: i64, high: i64, n: usize) -> usize {
    (high.min(n as i64) - low.max(0)).max(0) as usize
}

pub fn elapsed_us(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

/// Probe timer: `rounds` spans named `name`, each timing `iters` calls of
/// `f`; returns the median over rounds of the mean nanoseconds per call.
pub fn per_call_ns(
    tracer: &Tracer,
    name: &'static str,
    rounds: usize,
    iters: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let per_round: Vec<f64> = (0..rounds)
        .map(|round| {
            let _span = tracer.span(name, 0);
            let started = Instant::now();
            for i in 0..iters {
                f(round * iters + i);
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&per_round)
}

/// Probe timer for calls that need fresh input each time: `prepare` runs
/// outside the span and the clock, `f` inside. Returns the median
/// nanoseconds per call.
pub fn per_fresh_call_ns<I, R>(
    tracer: &Tracer,
    name: &'static str,
    rounds: usize,
    mut prepare: impl FnMut(usize) -> I,
    mut f: impl FnMut(I) -> R,
) -> f64 {
    let per_round: Vec<f64> = (0..rounds)
        .map(|round| {
            let input = prepare(round);
            let _span = tracer.span(name, 0);
            let started = Instant::now();
            let output = f(input);
            let ns = started.elapsed().as_nanos() as f64;
            std::hint::black_box(output);
            ns
        })
        .collect();
    stats::median(&per_round)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_counts_clamp_to_the_domain() {
        assert_eq!(permutation_range_count(10, 20, 100), 10);
        assert_eq!(permutation_range_count(-5, 20, 100), 20);
        assert_eq!(permutation_range_count(90, 150, 100), 10);
        assert_eq!(permutation_range_count(100, 150, 100), 0);
        assert_eq!(permutation_range_count(30, 30, 100), 0);
    }

    #[test]
    fn seeds_repeat_per_seed_and_differ_per_epoch_and_stream() {
        let tracer = Tracer::new(false);
        let ctx = |seed, epoch| Ctx {
            tracer: &tracer,
            seed,
            epoch,
            sizes: &Sizes::FROZEN,
            tmp: Path::new("."),
        };
        assert_eq!(ctx(7, 3).seed_for(1), ctx(7, 3).seed_for(1));
        assert_ne!(ctx(7, 3).seed_for(1), ctx(7, 3).seed_for(2));
        assert_ne!(ctx(7, 3).seed_for(1), ctx(7, 4).seed_for(1));
        assert_ne!(ctx(7, 3).seed_for(1), ctx(8, 3).seed_for(1));
    }
}
