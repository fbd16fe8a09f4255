//! The query engine's fork/join pool and the stripe decomposition every
//! operator in this crate shares.
//!
//! [`ThreadPool::run`] is the one primitive everything in this crate (and
//! the kernel above it) builds on: execute `tasks` independent closures and
//! return their results **in task order**, regardless of which worker ran
//! which task. The pool is [`aidx_maintenance::WorkerPool`] itself —
//! `threads - 1` persistent workers parked between regions, the submitting
//! thread participating as the final worker — so query execution and
//! background maintenance share one set of workers. Serial configurations
//! (`threads == 1`, the [`Default`]) and single-task calls spawn nothing
//! and run inline, which keeps the default execution path byte-identical to
//! the serial kernel.

/// A fork/join execution context with a fixed worker budget.
///
/// ```
/// use aidx_parallel::ThreadPool;
///
/// let pool = ThreadPool::new(4);
/// let squares = pool.run(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub use aidx_maintenance::WorkerPool as ThreadPool;

/// How many work stripes to cut per pool worker when fanning a sequence of
/// items (chunks, pieces) out as tasks. A little oversubscription lets the
/// atomic task counter rebalance uneven stripes (e.g. when zone maps make
/// some stripes nearly free): the worker that drew a cheap stripe
/// immediately claims the next one.
pub const STRIPES_PER_WORKER: usize = 4;

/// Cut `item_count` items into at most `workers * STRIPES_PER_WORKER`
/// contiguous, near-equal stripes, returned as half-open `(begin, end)`
/// index ranges in item order. The chunk-parallel scan (over chunks) and
/// the grouped residual filter (over chunk groups) both stripe through this
/// one function, so their work decomposition can never drift apart.
pub fn stripe_bounds(item_count: usize, workers: usize) -> Vec<(usize, usize)> {
    if item_count == 0 {
        return Vec::new();
    }
    let stripes = item_count.min(workers.max(1) * STRIPES_PER_WORKER);
    let base = item_count / stripes;
    let extra = item_count % stripes;
    let mut bounds = Vec::with_capacity(stripes);
    let mut begin = 0;
    for s in 0..stripes {
        let len = base + usize::from(s < extra);
        bounds.push((begin, begin + len));
        begin += len;
    }
    debug_assert_eq!(begin, item_count);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_bounds_partition_the_item_range() {
        for (items, workers) in [(0, 4), (1, 4), (7, 2), (64, 4), (13, 16)] {
            let bounds = stripe_bounds(items, workers);
            assert!(bounds.len() <= workers * STRIPES_PER_WORKER || items == 0);
            let mut covered = 0;
            for &(b, e) in &bounds {
                assert_eq!(b, covered, "stripes are contiguous");
                assert!(e > b, "stripes are non-empty");
                covered = e;
            }
            assert_eq!(covered, items, "stripes cover every item");
        }
    }
}
