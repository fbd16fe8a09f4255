//! In-memory spans recorded by the benchmark's own files around each call
//! into a layer's public API, and the self-time arithmetic over them.
//!
//! A span is named `<layer>.<what>`, where the layer is the crate that owns
//! the function called (`harness` for the benchmark's own work, such as an
//! oracle). Spans nest through a thread-local "current span"; a driver
//! thread is placed under the span that spawned it with [`Tracer::adopt`],
//! so a parent can have children that overlap in time.

use serde::Serialize;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = 0;

#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one ([`NO_PARENT`] for a root).
    pub parent: u32,
    /// Spans of one operation share this identifier.
    pub op: u64,
}

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(NO_PARENT) };
}

/// Collects spans while enabled; a disabled tracer hands out inert guards,
/// so the untraced run executes the same harness code without recording.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span under the calling thread's current span; it closes when
    /// the guard drops.
    pub fn span(&self, name: &'static str, op: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        SpanGuard {
            open: Some(OpenSpan {
                tracer: self,
                id,
                name,
                parent,
                op,
                start_ns: self.wall_ns(),
            }),
        }
    }

    /// Time `f` inside a span.
    pub fn in_span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let _guard = self.span(name, op);
        f()
    }

    /// The calling thread's current span id, to hand to [`Tracer::adopt`]
    /// on a thread it spawns.
    pub fn current(&self) -> u32 {
        CURRENT.with(Cell::get)
    }

    /// Make `parent` the calling thread's current span.
    pub fn adopt(&self, parent: u32) {
        CURRENT.with(|c| c.set(parent));
    }

    /// Nanoseconds since the tracer was created: the clock of every span,
    /// and at the end the traced wall time.
    pub fn wall_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no span guard panics while recording"),
        )
    }
}

struct OpenSpan<'t> {
    tracer: &'t Tracer,
    id: u32,
    name: &'static str,
    parent: u32,
    op: u64,
    start_ns: u64,
}

pub struct SpanGuard<'t> {
    open: Option<OpenSpan<'t>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        let end_ns = open.tracer.wall_ns();
        CURRENT.with(|c| c.set(open.parent));
        if let Ok(mut spans) = open.tracer.spans.lock() {
            spans.push(Span {
                id: open.id,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                parent: open.parent,
                op: open.op,
            });
        }
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children of concurrent threads may overlap, so
/// the covered part is the union of their intervals, not their sum).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if span.parent != NO_PARENT {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let duration = span.end_ns - span.start_ns;
            match children.get_mut(&span.id) {
                Some(kids) => duration - covered_ns(kids, span.start_ns, span.end_ns),
                None => duration,
            }
        })
        .collect()
}

/// Self time summed per layer (the part of a span name before the first
/// dot), in nanoseconds.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let layer = span.name.split('.').next().unwrap_or(span.name);
        *by_layer.entry(layer).or_insert(0) += self_ns;
    }
    by_layer
}

/// The part of `0..wall_ns` that root spans cover. The rest is
/// unattributed: time the harness spent between spans.
pub fn root_covered_ns(spans: &[Span], wall_ns: u64) -> u64 {
    let mut roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    covered_ns(&mut roots, 0, wall_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span(1, "harness.op", 0, 100, NO_PARENT),
            span(2, "core.execute", 10, 60, 1),
            span(3, "cracking.crack", 20, 50, 2),
            span(4, "core.drain", 70, 90, 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        let by_layer = self_ns_by_layer(&spans);
        assert_eq!(by_layer["harness"], 30);
        assert_eq!(by_layer["core"], 40);
        assert_eq!(by_layer["cracking"], 30);
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_covered_as_a_union() {
        // two client threads under one driving span: 10..60 and 40..90
        // cover 80 of the parent's 100, not 100
        let spans = [
            span(1, "harness.drive", 0, 100, NO_PARENT),
            span(2, "server.query", 10, 60, 1),
            span(3, "server.query", 40, 90, 1),
            // a child that outlives its parent is clipped to it
            span(4, "server.query", 95, 130, 1),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 80 - 5);
    }

    #[test]
    fn only_root_spans_cover_the_wall_and_overlaps_count_once() {
        let spans = [
            span(1, "core.a", 0, 40, NO_PARENT),
            span(2, "core.b", 30, 50, NO_PARENT),
            span(3, "core.c", 35, 45, 2),
            span(4, "wal.d", 80, 100, NO_PARENT),
        ];
        assert_eq!(root_covered_ns(&spans, 100), 70);
        // a root that outlives the wall is clipped to it
        assert_eq!(root_covered_ns(&spans, 90), 60);
        assert_eq!(root_covered_ns(&[], 0), 0);
    }

    #[test]
    fn guards_nest_through_the_thread_local_and_adopt_crosses_threads() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("harness.outer", 7);
            let parent = tracer.current();
            tracer.in_span("core.inner", 7, || {});
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    tracer.adopt(parent);
                    tracer.in_span("server.remote", 8, || {});
                });
            });
        }
        assert_eq!(tracer.current(), NO_PARENT);
        let spans = tracer.take_spans();
        let outer = spans.iter().find(|s| s.name == "harness.outer").unwrap();
        assert_eq!(outer.parent, NO_PARENT);
        for name in ["core.inner", "server.remote"] {
            let child = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(child.parent, outer.id);
            assert!(child.start_ns >= outer.start_ns && child.end_ns <= outer.end_ns);
        }

        let off = Tracer::new(false);
        off.in_span("core.inner", 0, || {});
        assert!(off.take_spans().is_empty());
    }
}
