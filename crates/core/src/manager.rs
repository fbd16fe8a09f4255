//! The per-column adaptive index manager.
//!
//! A real kernel maintains one adaptive index (cracker column + cracker
//! index, runs + partition index, ...) per attribute that selections touch.
//! [`IndexManager`] is that registry: indexes are created lazily on first
//! access (so unqueried columns cost nothing — one of adaptive indexing's
//! headline claims), looked up on every subsequent access, and dropped when
//! the tuner or the user decides so. The manager is thread-safe: MonetDB's
//! adaptive kernel serializes cracking per column, and we mirror that with a
//! per-manager mutex around the registry plus exclusive access per index
//! while a query reorganizes it.
//!
//! A column has exactly one index at every worker count: the manager's pool
//! only fans out the scans that answer lagging snapshots. Readers of one
//! column therefore serialise on its latch whatever the parallelism, and
//! the first query builds the index on its own thread.

use crate::strategy::{AdaptiveIndex, QueryOutput, StrategyKind};
use aidx_columnstore::ops::select as columnstore_select;
use aidx_columnstore::segment::{Segment, ZoneMap, DEFAULT_SEGMENT_CAPACITY};
use aidx_columnstore::types::{Key, RowId};
use aidx_cracking::cracker_column::key_domain;
use aidx_parallel::ThreadPool;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Identifies an indexed column.
///
/// Both names are interned as [`Arc<str>`]: a `ColumnId` is cloned on every
/// query routed through the [`IndexManager`], so cloning must be a
/// reference-count bump rather than two heap copies.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnId {
    table: Arc<str>,
    column: Arc<str>,
}

impl ColumnId {
    /// Convenience constructor.
    pub fn new(table: impl Into<Arc<str>>, column: impl Into<Arc<str>>) -> Self {
        ColumnId {
            table: table.into(),
            column: column.into(),
        }
    }

    /// Table name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Column name.
    pub fn column(&self) -> &str {
        &self.column
    }
}

impl std::fmt::Display for ColumnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// A borrowed view of the base key column a query was bound against: either
/// a flat dense slice (standalone, catalog-free callers and benchmarks) or a
/// chunked [`Segment`] (the facade's segmented tables).
///
/// The manager only touches the view on the slow paths — building or
/// rebuilding an index reads its [`KeySource::chunks`] where they lie, and a
/// lagging snapshot is answered by a scan (zone-map pruned for segments).
/// The hot path, answering through an up-to-date index, never reads the
/// view.
#[derive(Debug, Clone, Copy)]
pub enum KeySource<'a> {
    /// A flat dense key slice.
    Flat(&'a [Key]),
    /// A chunked key segment with per-chunk zone maps.
    Segmented(&'a Segment<Key>),
}

impl KeySource<'_> {
    /// Number of keys in the view.
    pub fn len(&self) -> usize {
        match self {
            KeySource::Flat(keys) => keys.len(),
            KeySource::Segmented(segment) => segment.len(),
        }
    }

    /// True when the view holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Positions of keys in `[low, high)`, in order (chunk-at-a-time with
    /// zone-map pruning for segmented views).
    pub fn scan_range(&self, low: Key, high: Key) -> aidx_columnstore::position::PositionList {
        self.scan_range_with_pool(low, high, &ThreadPool::default())
    }

    /// Like [`KeySource::scan_range`], but fanning a segmented view's chunks
    /// out across `pool`'s workers (the parallel scan produces byte-identical
    /// positions at any worker count; flat views always scan inline).
    pub fn scan_range_with_pool(
        &self,
        low: Key,
        high: Key,
        pool: &ThreadPool,
    ) -> aidx_columnstore::position::PositionList {
        match self {
            KeySource::Flat(_) => {
                let mut positions = Vec::new();
                self.scan_range_from(0, low, high, &mut positions);
                aidx_columnstore::position::PositionList::from_sorted_vec(positions)
            }
            KeySource::Segmented(segment) => {
                aidx_parallel::parallel_scan_select(
                    pool,
                    segment,
                    &columnstore_select::Predicate::range(low, high),
                )
                .0
            }
        }
    }

    /// The slices the keys are stored in, in position order: the one slice
    /// of a flat view, a segment's sealed chunks and tail. This is all a
    /// build asks of a view ([`StrategyKind::build_from`]).
    pub fn chunks(&self) -> Vec<&[Key]> {
        match self {
            KeySource::Flat(keys) => vec![keys],
            KeySource::Segmented(segment) => segment.chunks().map(|chunk| chunk.values).collect(),
        }
    }

    /// The smallest and largest key (`None` when there are none), which
    /// decides a cracker column's width: a segment's zone maps give it by
    /// walking chunk headers, a flat view pays one pass over its keys.
    fn domain(&self) -> Option<(Key, Key)> {
        match self {
            KeySource::Flat(keys) => key_domain(keys),
            KeySource::Segmented(segment) => segment.min().zip(segment.max()),
        }
    }

    /// The keys at positions `start..` where they lie, in position order:
    /// one run of a flat view, or one per chunk of a segment, found from
    /// its end.
    fn runs_from(&self, start: usize) -> Vec<Run<'_>> {
        match self {
            KeySource::Flat(keys) => vec![(start, &keys[start..], None)],
            KeySource::Segmented(segment) => {
                let count = segment.chunk_count();
                let mut first = count;
                while first > 0 && segment.chunk(first - 1).end() as usize > start {
                    first -= 1;
                }
                (first..count)
                    .map(|i| {
                        let chunk = segment.chunk(i);
                        let skip = start.saturating_sub(chunk.base as usize);
                        (
                            chunk.base as usize + skip,
                            &chunk.values[skip..],
                            Some(chunk.zone),
                        )
                    })
                    .collect()
            }
        }
    }

    /// Append the positions `start..` whose key lies in `[low, high)` to
    /// `out`, in order, skipping a chunk whose zone map rules the range out.
    fn scan_range_from(&self, start: usize, low: Key, high: Key, out: &mut Vec<RowId>) {
        for (first, run, zone) in self.runs_from(start) {
            if zone.is_some_and(|zone| !zone.may_contain_range(low, high)) {
                continue;
            }
            let matches = |key: Key| key >= low && key < high;
            columnstore_select::scan_keys_where(run, first as RowId, matches, out);
        }
    }
}

/// Keys at consecutive positions: the first one's position, the keys, and
/// the zone map of the chunk they lie in (none for a flat view).
type Run<'a> = (usize, &'a [Key], Option<ZoneMap<Key>>);

impl<'a> From<&'a [Key]> for KeySource<'a> {
    fn from(keys: &'a [Key]) -> Self {
        KeySource::Flat(keys)
    }
}

impl<'a> From<&'a Vec<Key>> for KeySource<'a> {
    fn from(keys: &'a Vec<Key>) -> Self {
        KeySource::Flat(keys)
    }
}

impl<'a, const N: usize> From<&'a [Key; N]> for KeySource<'a> {
    fn from(keys: &'a [Key; N]) -> Self {
        KeySource::Flat(keys)
    }
}

impl<'a> From<&'a Segment<Key>> for KeySource<'a> {
    fn from(segment: &'a Segment<Key>) -> Self {
        KeySource::Segmented(segment)
    }
}

/// Aggregated per-column bookkeeping the manager exposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexInfo {
    /// Which column this is about.
    pub column: ColumnId,
    /// Strategy label.
    pub strategy: &'static str,
    /// Number of rows the index covers: a prefix of its column, after which
    /// any rows it has not absorbed are a suffix its queries scan.
    pub tuples: usize,
    /// Queries answered by the current index build (resets when the index
    /// is rebuilt from a newer snapshot or another table incarnation).
    pub queries: u64,
    /// Cumulative effort spent by the index.
    pub effort: u64,
    /// Auxiliary memory in bytes.
    pub auxiliary_bytes: usize,
    /// Whether the strategy reports convergence.
    pub converged: bool,
}

/// What one routed probe did to its column's index — filled by
/// [`IndexManager::query_range_probed`] when the caller passes a trace
/// slot, and folded into the per-query [`aidx_telemetry::SpanEvent::IndexProbe`]
/// event by the executor.
///
/// A query with an `InSet` driver probes once per key; the trace
/// accumulates: `probes` counts them, `effort_delta` sums their refinement
/// work, `pieces_before`/`pieces_after` bracket the whole sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeTrace {
    /// Strategy label of the index that answered (empty until a probe).
    pub strategy: &'static str,
    /// Probes routed through the index.
    pub probes: u64,
    /// Physical index pieces before the first probe (after a rebuild, the
    /// freshly built body's piece count).
    pub pieces_before: u64,
    /// Pieces after the last probe.
    pub pieces_after: u64,
    /// Cumulative-effort delta across the probes: the refinement work this
    /// query spent reorganizing the index, including a rebuild's
    /// construction cost.
    pub effort_delta: u64,
    /// The index was (re)built from the snapshot before answering.
    pub rebuilt: bool,
    /// At least one probe bypassed the index with a snapshot scan (lagging
    /// reader).
    pub lagging_scan: bool,
}

impl ProbeTrace {
    fn observe(
        &mut self,
        strategy: &'static str,
        before: (u64, u64),
        after: (u64, u64),
        rebuilt: bool,
    ) {
        let (effort_before, pieces_before) = before;
        let (effort_after, pieces_after) = after;
        self.strategy = strategy;
        if self.probes == 0 {
            self.pieces_before = pieces_before;
        }
        self.probes += 1;
        self.pieces_after = pieces_after;
        self.effort_delta += effort_after.saturating_sub(effort_before);
        self.rebuilt |= rebuilt;
    }

    fn observe_lagging(&mut self, strategy: &'static str) {
        self.strategy = strategy;
        self.probes += 1;
        self.lagging_scan = true;
    }
}

/// Answers of fewer row ids than this are copied by the counting probe
/// itself, from the piece it just found, under the latch it holds — as
/// fast as a plain probe (±20 ns at 250–2 000 ids). Deferring an answer
/// that is read anyway costs a fixed 0.1–0.3 µs (a `Weak` upgrade, a second
/// latch, two more cut lookups); copying costs ~0.18 ns an id. Measured on
/// a converged 2 M-row column (release, 2 vCPUs, median of five rounds of
/// 300 ranges), probe + copy against count + deferred read, `Cracking`:
/// 400 ids 309 → 427 ns, 4 096 ids 944 → 1 120 ns, 20 000 ids
/// 3 972 → 4 102 ns, 40 000 ids 7 380 → 7 380 ns (`UpdatableCracking`
/// 358 → 494, 937 → 1 097, 4 329 → 4 219, 7 168 → 7 414 ns). At this
/// threshold a read answer pays at most a fifth more for its probe, while
/// an unread one saves ~0.7 µs or more. In `served_mix`, the 0.02 % ranges
/// of 2 M rows (~400 ids, every answer read) are copied at once; its 1 %
/// fetches (20 000 ids, read straight away by the server) are deferred and
/// pay ~0.1–0.3 µs of a reply that materialises and encodes 20 000 rows
/// (~1 ms); `crack_converge`'s ~40 000-id answers, counted and never read,
/// are what deferring is for.
pub(crate) const EAGER_COPY_BELOW: usize = 4_096;

/// How a count-only probe ([`IndexManager::count_range_probed`]) answered.
pub(crate) enum Counted {
    /// The index counted from its cuts; `index` reads the row ids later.
    Cut {
        /// Number of qualifying tuples.
        count: usize,
        /// The column's index entry, as the probe found it.
        index: IndexHandle,
    },
    /// The row ids themselves: the answer is small enough to copy at once,
    /// the strategy cannot count without producing them, or a lagging
    /// snapshot was answered by a scan.
    Rows(QueryOutput),
}

/// A weak handle on one column's index entry, taken by a count-only probe
/// in its own registry lookup. It keeps neither the index nor its
/// registration alive: a dropped index is simply gone for it.
#[derive(Debug, Clone)]
pub(crate) struct IndexHandle(Weak<Mutex<ManagedIndex>>);

impl IndexHandle {
    /// The row ids of `[low, high)` among the first `rows` rows of the table
    /// incarnation `epoch`, in the order the index holds them, read under
    /// the column's latch from the cuts in place
    /// ([`AdaptiveIndex::read_range`]). `expected` is the count a probe took
    /// on those `rows` rows. `None` when the entry is gone, was stamped with
    /// another epoch, covers fewer rows, or cannot answer without
    /// reorganizing. Never builds, refines or counts a query.
    pub(crate) fn read_range(
        &self,
        epoch: u64,
        rows: usize,
        low: Key,
        high: Key,
        expected: usize,
    ) -> Option<Vec<RowId>> {
        let entry = self.0.upgrade()?;
        let managed = entry.lock();
        let covered = managed.body.len();
        if managed.epoch != epoch || covered < rows {
            return None;
        }
        let mut row_ids = Vec::with_capacity(expected);
        if !managed.body.read_range(low, high, &mut row_ids) {
            return None;
        }
        drop(managed);
        // Within one epoch an index only gains rows, so a read of exactly
        // `expected` ids holds none this snapshot never saw. Filtering costs
        // ~0.7 ns an id, three times the copy, so it runs only when some of
        // the absorbed rows fell inside the range.
        if covered > rows && row_ids.len() > expected {
            row_ids.retain(|&rowid| (rowid as usize) < rows);
        }
        Some(row_ids)
    }
}

/// The most rows a probe answers by scanning past the end of its index
/// before it folds them in by rebuilding: a 64th of the snapshot, and never
/// less than one default chunk.
fn suffix_bound(rows: usize) -> usize {
    (rows / 64).max(DEFAULT_SEGMENT_CAPACITY)
}

/// One column's index. It covers a prefix `0..body.len()` of its epoch's
/// column; the rows after it are a suffix that probes scan.
struct ManagedIndex {
    body: Box<dyn AdaptiveIndex + Send>,
    kind: StrategyKind,
    /// Epoch of the table incarnation the index was built from (0 for
    /// standalone, catalog-free use).
    epoch: u64,
    queries: u64,
}

impl ManagedIndex {
    /// Bring the index up to `keys`, a snapshot of the table incarnation
    /// `epoch`: an index that absorbs inserts stages the rows it does not
    /// cover yet, any other leaves them as a suffix. Returns `true` when the
    /// index covers every row of the snapshot. An index of another epoch is
    /// left alone, and one that covers no rows — never built from this
    /// column — is built, not caught up.
    fn catch_up(&mut self, keys: &KeySource<'_>, epoch: u64) -> bool {
        if self.epoch != epoch {
            return false;
        }
        let covered = self.body.len();
        if (1..keys.len()).contains(&covered) {
            for (_, run, _) in keys.runs_from(covered) {
                if !self.body.insert_batch(run) {
                    break;
                }
            }
        }
        self.body.len() >= keys.len()
    }
}

/// A registry of adaptive indexes, one per (table, column).
pub struct IndexManager {
    default_strategy: StrategyKind,
    /// Fork/join workers for the chunk-parallel scans that answer lagging
    /// snapshots. A serial pool (the default) keeps every path inline.
    pool: Arc<ThreadPool>,
    indexes: Mutex<HashMap<ColumnId, Arc<Mutex<ManagedIndex>>>>,
}

impl std::fmt::Debug for IndexManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexManager")
            .field("default_strategy", &self.default_strategy)
            .field("indexed_columns", &self.indexes.lock().len())
            .finish()
    }
}

impl IndexManager {
    /// Create a manager that builds indexes of `default_strategy` lazily,
    /// on a serial pool.
    pub fn new(default_strategy: StrategyKind) -> Self {
        IndexManager::with_pool(default_strategy, Arc::new(ThreadPool::default()))
    }

    /// Create a manager that executes on `pool`: with more than one worker,
    /// scan fallbacks go chunk-parallel. Every column still gets exactly one
    /// index, built and refined under that column's latch, so the indexes
    /// are the same at every worker count; with a serial pool this is
    /// exactly [`IndexManager::new`].
    pub fn with_pool(default_strategy: StrategyKind, pool: Arc<ThreadPool>) -> Self {
        IndexManager {
            default_strategy,
            pool,
            indexes: Mutex::new(HashMap::new()),
        }
    }

    /// The strategy used for columns without an explicit override.
    pub fn default_strategy(&self) -> StrategyKind {
        self.default_strategy
    }

    /// The fork/join pool queries on this manager execute with.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// The worker budget (1 = the serial kernel).
    pub fn parallelism(&self) -> usize {
        self.pool.threads()
    }

    /// Number of columns currently indexed.
    pub fn indexed_column_count(&self) -> usize {
        self.indexes.lock().len()
    }

    /// Whether a column currently has an index.
    pub fn has_index(&self, column: &ColumnId) -> bool {
        self.indexes.lock().contains_key(column)
    }

    /// Route a range query `[low, high)` for `column`, creating the index
    /// from `keys` (with the default strategy) if this is the first query
    /// that touches the column.
    pub fn query_range(&self, column: &ColumnId, keys: &[Key], low: Key, high: Key) -> QueryOutput {
        self.query_range_with(column, keys, low, high, self.default_strategy)
    }

    /// Route a range query, creating the index with an explicit strategy if
    /// the column is not indexed yet (standalone, catalog-free entry point:
    /// epoch 0).
    pub fn query_range_with(
        &self,
        column: &ColumnId,
        keys: &[Key],
        low: Key,
        high: Key,
        strategy: StrategyKind,
    ) -> QueryOutput {
        self.query_range_snapshot(column, keys, 0, low, high, strategy)
    }

    /// Route a range query for a caller holding a point-in-time snapshot of
    /// the base column: `keys` views the snapshot's key column (flat slice
    /// or chunked segment) and `epoch` identifies the table incarnation it
    /// was taken from.
    ///
    /// Base columns are append-only within an epoch, so an index holding `m`
    /// tuples (same epoch) covers exactly the first `m` rows. The cases:
    ///
    /// * the snapshot is *older* than the index (same epoch, fewer rows, or
    ///   an older epoch) — answer with a scan of the snapshot (zone-map
    ///   pruned for segments) and leave the index alone, so a lagging reader
    ///   never destroys structure learned from newer data;
    /// * otherwise the index catches up with the snapshot first (an index
    ///   that absorbs inserts stages the rows it lacks) and answers,
    ///   reorganizing adaptively; rows it still lacks are a suffix, scanned
    ///   zone-pruned and added to its answer;
    /// * the index is rebuilt from the snapshot first when it belongs to
    ///   another epoch, covers no rows yet, or its suffix is longer than
    ///   `max(n / 64, DEFAULT_SEGMENT_CAPACITY)` rows of the `n`.
    pub fn query_range_snapshot<'a>(
        &self,
        column: &ColumnId,
        keys: impl Into<KeySource<'a>>,
        epoch: u64,
        low: Key,
        high: Key,
        strategy: StrategyKind,
    ) -> QueryOutput {
        self.query_range_probed(column, keys, epoch, low, high, strategy, None)
    }

    /// [`IndexManager::query_range_snapshot`] with a telemetry tap: when
    /// `probe` is given, the probe's refinement measurements (effort delta,
    /// piece growth, rebuild/lagging outcome) accumulate into it. The
    /// untraced path passes `None` and pays nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn query_range_probed<'a>(
        &self,
        column: &ColumnId,
        keys: impl Into<KeySource<'a>>,
        epoch: u64,
        low: Key,
        high: Key,
        strategy: StrategyKind,
        probe: Option<&mut ProbeTrace>,
    ) -> QueryOutput {
        self.route(
            column,
            keys.into(),
            epoch,
            low,
            high,
            strategy,
            probe,
            QueryOutput::from_row_ids,
            |index, _| index.query_range(low, high),
        )
    }

    /// [`IndexManager::query_range_probed`] for a caller that needs the
    /// count now and the row ids perhaps later: the same routing, version
    /// guard, reorganization and probe measurements, but an index that can
    /// count from its cuts ([`AdaptiveIndex::count_range`]) copies nothing
    /// and hands back a handle on its entry instead — unless the answer is
    /// smaller than [`EAGER_COPY_BELOW`], which the count copies from the
    /// piece it just found, under the latch it holds.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn count_range_probed(
        &self,
        column: &ColumnId,
        keys: &Segment<Key>,
        epoch: u64,
        low: Key,
        high: Key,
        strategy: StrategyKind,
        probe: Option<&mut ProbeTrace>,
    ) -> Counted {
        self.route(
            column,
            KeySource::Segmented(keys),
            epoch,
            low,
            high,
            strategy,
            probe,
            |row_ids| Counted::Rows(QueryOutput::from_row_ids(row_ids)),
            |index, entry| {
                let mut row_ids = Vec::new();
                match index.count_range(low, high, EAGER_COPY_BELOW, &mut row_ids) {
                    None => Counted::Rows(index.query_range(low, high)),
                    Some(count) if count < EAGER_COPY_BELOW => {
                        Counted::Rows(QueryOutput::from_row_ids(row_ids))
                    }
                    Some(count) => Counted::Cut {
                        count,
                        index: IndexHandle(Arc::downgrade(entry)),
                    },
                }
            },
        )
    }

    /// The routing both probes share (see
    /// [`IndexManager::query_range_snapshot`]): find or register the
    /// column's entry, serve a lagging snapshot with `scanned` over a scan,
    /// catch the index up or rebuild it, then let `answer` probe the index
    /// under the column's latch, measuring into `probe` — or, when a suffix
    /// is left, hand the index's answer plus the suffix's to `scanned`.
    #[allow(clippy::too_many_arguments)]
    fn route<R>(
        &self,
        column: &ColumnId,
        keys: KeySource<'_>,
        epoch: u64,
        low: Key,
        high: Key,
        strategy: StrategyKind,
        mut probe: Option<&mut ProbeTrace>,
        scanned: impl FnOnce(Vec<RowId>) -> R,
        answer: impl FnOnce(&mut (dyn AdaptiveIndex + Send), &Arc<Mutex<ManagedIndex>>) -> R,
    ) -> R {
        let entry = self.register(column, strategy, epoch);
        let mut managed = entry.lock();
        let rows = keys.len();
        if managed.epoch > epoch || (managed.epoch == epoch && rows < managed.body.len()) {
            // lagging reader — an older epoch (epochs are monotonic) or an
            // older prefix of the same epoch: serve its snapshot with a scan
            // (chunk-parallel for segmented views) and never downgrade the
            // shared index
            if let Some(p) = probe.as_deref_mut() {
                p.observe_lagging(managed.kind.label());
            }
            drop(managed);
            return scanned(keys.scan_range_with_pool(low, high, &self.pool).into_vec());
        }
        // a writer that found this latch held left its rows to the next
        // query, and a strategy that cannot absorb them keeps a suffix
        let mut rebuilt = false;
        if !managed.catch_up(&keys, epoch) {
            let covered = managed.body.len();
            if managed.epoch != epoch || covered == 0 || rows - covered > suffix_bound(rows) {
                // the build is this query's doing, so it is done for this
                // query: a cracking kind cracks on [low, high) while it
                // copies, and the probe below finds its piece in place
                let kind = managed.kind;
                self.rebuild(&mut managed, kind, &keys, epoch, Some((low, high)));
                rebuilt = true;
            }
        }
        managed.queries += 1;
        let strategy_label = managed.kind.label();
        // a rebuild restarts the new body's effort counter, and its
        // construction cost is work *this* query caused — so the rebuilt
        // baseline is effort 0 at the fresh body's piece count. The cuts a
        // cracking kind made while building are this query's work as well:
        // its count starts from the one piece of an uncracked column
        let cut_while_building = managed.kind.cracks_while_building();
        let before = probe.as_ref().map(|_| {
            let pieces = managed.body.pieces() as u64;
            if !rebuilt {
                return (managed.body.effort(), pieces);
            }
            (
                0,
                if cut_while_building {
                    pieces.min(1)
                } else {
                    pieces
                },
            )
        });
        let index = &mut managed.body;
        let covered = index.len();
        let output = if covered < rows {
            let mut row_ids = index.query_range(low, high).into_row_ids();
            keys.scan_range_from(covered, low, high, &mut row_ids);
            scanned(row_ids)
        } else {
            answer(index.as_mut(), &entry)
        };
        if let (Some(p), Some(before)) = (probe, before) {
            p.observe(
                strategy_label,
                before,
                (index.effort(), index.pieces() as u64),
                rebuilt,
            );
        }
        output
    }

    /// The column's entry, registered first if there is none: a cheap
    /// empty placeholder of `strategy`, so the O(n)-or-worse index
    /// construction never runs under the global registry lock but under the
    /// column's own latch. It covers no rows, so it is never "newer" than a
    /// snapshot, and it is built, never caught up.
    fn register(
        &self,
        column: &ColumnId,
        strategy: StrategyKind,
        epoch: u64,
    ) -> Arc<Mutex<ManagedIndex>> {
        let mut registry = self.indexes.lock();
        let entry = registry.entry(column.clone()).or_insert_with(|| {
            Arc::new(Mutex::new(ManagedIndex {
                body: strategy.build_from(&[], None, None),
                kind: strategy,
                epoch,
                queries: 0,
            }))
        });
        Arc::clone(entry)
    }

    /// Replace `managed` with an index of `kind` built from a snapshot view
    /// of `epoch`, read chunk by chunk out of a multi-chunk segment (no
    /// transient contiguous copy), over the key domain its zone maps give,
    /// and built for `first_query` (see [`StrategyKind::build_from`]); its
    /// query count restarts.
    fn rebuild(
        &self,
        managed: &mut ManagedIndex,
        kind: StrategyKind,
        keys: &KeySource<'_>,
        epoch: u64,
        first_query: Option<(Key, Key)>,
    ) {
        let body = kind.build_from(&keys.chunks(), keys.domain(), first_query);
        *managed = ManagedIndex {
            body,
            kind,
            epoch,
            queries: 0,
        };
    }

    /// Bring a column's index up to `keys`, its column in the table
    /// incarnation `epoch` just after a writer's append: an index that
    /// absorbs inserts stages the rows it lacks, any other keeps them as a
    /// suffix its probes scan. Never drops or rebuilds an index, and never
    /// waits for the latch — a query holding it leaves the rows to the next
    /// query — so a writer may call it under the catalog's write lock.
    /// `true` when the index covers `keys`.
    pub fn catch_up<'a>(
        &self,
        column: &ColumnId,
        keys: impl Into<KeySource<'a>>,
        epoch: u64,
    ) -> bool {
        let Some(entry) = self.entry(column) else {
            return false;
        };
        let caught_up = entry
            .try_lock()
            .is_some_and(|mut managed| managed.catch_up(&keys.into(), epoch));
        caught_up
    }

    /// The entry registered for a column, if any.
    fn entry(&self, column: &ColumnId) -> Option<Arc<Mutex<ManagedIndex>>> {
        self.indexes.lock().get(column).cloned()
    }

    /// Drop a column's index; returns `true` if one existed.
    pub fn drop_index(&self, column: &ColumnId) -> bool {
        self.indexes.lock().remove(column).is_some()
    }

    /// Re-stamp every index of `table` built at `from_epoch` onto
    /// `to_epoch`, returning how many were carried over.
    ///
    /// This is the index half of chunk compaction: a compacted table is
    /// published under a **fresh epoch** (so snapshots and the drop/
    /// re-create guard stay sound), but compaction is a pure physical
    /// re-layout — every row keeps its global position — so the positions an
    /// adaptive index has learned are *exactly* as valid for the new epoch
    /// as for the old. Without this call, the epoch guard would treat the
    /// compacted table like a re-created one and discard all accumulated
    /// cracking work on the next query; with it, stale-but-correct indexes
    /// survive (their query counters and learned structure intact).
    ///
    /// The caller must guarantee the epoch transition really was
    /// layout-only (the catalog's `publish_compacted` is the only producer
    /// of such transitions) and should invoke this while still holding the
    /// catalog write lock, so no query can slip between the publish and the
    /// reconciliation and rebuild from scratch.
    pub fn reconcile_table_epoch(&self, table: &str, from_epoch: u64, to_epoch: u64) -> usize {
        debug_assert!(to_epoch > from_epoch, "epochs are monotonic");
        let registry = self.indexes.lock();
        let mut reconciled = 0;
        for (column, entry) in registry.iter() {
            if column.table() != table {
                continue;
            }
            let mut managed = entry.lock();
            if managed.epoch == from_epoch {
                managed.epoch = to_epoch;
                reconciled += 1;
            }
        }
        reconciled
    }

    /// The `(epoch, indexed_tuples)` version of a column's index, if one is
    /// registered (the staleness observation background reconciliation
    /// plans over).
    pub fn index_version(&self, column: &ColumnId) -> Option<(u64, usize)> {
        let entry = self.entry(column)?;
        let managed = entry.lock();
        Some((managed.epoch, managed.body.len()))
    }

    /// Catch a column's index up with a current snapshot view, and rebuild
    /// it iff that leaves it behind: it belongs to an older epoch, or it
    /// cannot absorb the rows past its end (see [`IndexManager::catch_up`]).
    /// Returns `true` when a rebuild happened.
    ///
    /// This is background index *re-derivation*: a structural epoch bump, or
    /// a suffix of rows a strategy cannot absorb, otherwise makes the next
    /// queries pay — a rebuild, or a scan of the suffix. The maintenance
    /// scheduler calls this between queries instead. An index that absorbs
    /// inserts is never rebuilt for them, a fresher index (or a newer epoch)
    /// is never downgraded, and an up-to-date index is left untouched.
    pub fn refresh_index<'a>(
        &self,
        column: &ColumnId,
        keys: impl Into<KeySource<'a>>,
        epoch: u64,
    ) -> bool {
        let keys = keys.into();
        let Some(entry) = self.entry(column) else {
            return false;
        };
        let mut managed = entry.lock();
        if managed.epoch > epoch || managed.catch_up(&keys, epoch) {
            return false;
        }
        let kind = managed.kind;
        self.rebuild(&mut managed, kind, &keys, epoch, None);
        true
    }

    /// Replace a column's index with one freshly built under `strategy`,
    /// stamped onto the caller's snapshot `epoch` — even when the current
    /// index is fully up to date. Returns `true` when the swap happened.
    ///
    /// This is *remediation*, not re-derivation: [`refresh_index`] only
    /// rebuilds a stale index (and keeps its strategy), which is exactly
    /// right for background reconciliation but useless against the failure
    /// the health monitor exists to catch — an up-to-date index whose
    /// *workload* defeats its strategy (plain cracking under strictly
    /// sequential ranges never converges; see "Stochastic Database
    /// Cracking"). The alert runtime calls this to flip the stalled
    /// column onto a strategy that can converge. The only refusal is an
    /// index already stamped with a *newer* epoch: that one covers data
    /// this caller's snapshot never saw and is never downgraded. A column
    /// with no index yet gets one (pre-building ahead of the next query).
    ///
    /// [`refresh_index`]: IndexManager::refresh_index
    pub fn remediate_index<'a>(
        &self,
        column: &ColumnId,
        keys: impl Into<KeySource<'a>>,
        epoch: u64,
        strategy: StrategyKind,
    ) -> bool {
        // the same never-downgrade epoch guard as the query path
        let entry = self.register(column, strategy, epoch);
        let mut managed = entry.lock();
        if managed.epoch > epoch {
            return false;
        }
        self.rebuild(&mut managed, strategy, &keys.into(), epoch, None);
        true
    }

    /// Drop every index belonging to `table` (used when the table itself is
    /// dropped); returns how many were removed.
    pub fn drop_table_indexes(&self, table: &str) -> usize {
        let mut registry = self.indexes.lock();
        let before = registry.len();
        registry.retain(|column, _| column.table() != table);
        before - registry.len()
    }

    /// Bookkeeping for every indexed column, sorted by table/column name.
    pub fn describe(&self) -> Vec<IndexInfo> {
        let registry = self.indexes.lock();
        let mut infos: Vec<IndexInfo> = registry
            .iter()
            .map(|(column, entry)| {
                let managed = entry.lock();
                let index = &managed.body;
                IndexInfo {
                    column: column.clone(),
                    strategy: managed.kind.label(),
                    tuples: index.len(),
                    queries: managed.queries,
                    effort: index.effort(),
                    auxiliary_bytes: index.auxiliary_bytes(),
                    converged: index.is_converged(),
                }
            })
            .collect();
        infos.sort_by(|a, b| {
            (a.column.table(), a.column.column()).cmp(&(b.column.table(), b.column.column()))
        });
        infos
    }

    /// Total auxiliary memory across all indexes, in bytes.
    pub fn total_auxiliary_bytes(&self) -> usize {
        self.describe().iter().map(|i| i.auxiliary_bytes).sum()
    }

    /// Total effort across all indexes.
    pub fn total_effort(&self) -> u64 {
        self.describe().iter().map(|i| i.effort).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn keys(n: usize) -> Vec<Key> {
        (0..n as Key).map(|i| (i * 613) % n as Key).collect()
    }

    #[test]
    fn indexes_are_created_lazily_per_column() {
        let manager = IndexManager::new(StrategyKind::Cracking);
        assert_eq!(manager.indexed_column_count(), 0);
        let data = keys(1000);
        let a = ColumnId::new("t", "a");
        let b = ColumnId::new("t", "b");
        let out = manager.query_range(&a, &data, 100, 200);
        assert_eq!(out.count(), 100);
        assert_eq!(manager.indexed_column_count(), 1);
        assert!(manager.has_index(&a));
        assert!(!manager.has_index(&b), "unqueried columns stay unindexed");
        let _ = manager.query_range(&b, &data, 0, 10);
        assert_eq!(manager.indexed_column_count(), 2);
    }

    #[test]
    fn repeated_queries_reuse_the_same_index() {
        let manager = IndexManager::new(StrategyKind::Cracking);
        let data = keys(5000);
        let column = ColumnId::new("t", "a");
        for _ in 0..10 {
            let _ = manager.query_range(&column, &data, 1000, 2000);
        }
        let info = manager.describe();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].queries, 10);
        assert_eq!(info[0].strategy, "cracking");
        assert_eq!(info[0].tuples, 5000);
        assert!(info[0].effort > 0);
        assert!(manager.total_effort() > 0);
        assert!(manager.total_auxiliary_bytes() > 0);
    }

    #[test]
    fn per_query_strategy_override_and_rebuild() {
        let manager = IndexManager::new(StrategyKind::Cracking);
        let data = keys(2000);
        let column = ColumnId::new("t", "a");
        let out = manager.query_range_with(
            &column,
            &data,
            0,
            100,
            StrategyKind::AdaptiveMerging { run_size: 256 },
        );
        assert_eq!(out.count(), 100);
        assert_eq!(manager.describe()[0].strategy, "adaptive-merging");
        // rebuild switches strategies
        assert!(manager.remediate_index(&column, &data, 0, StrategyKind::FullSort));
        assert_eq!(manager.describe()[0].strategy, "full-sort");
        let out = manager.query_range(&column, &data, 0, 100);
        assert_eq!(out.count(), 100);
    }

    #[test]
    fn hybrid_probes_report_their_full_name_and_draining_sources() {
        let kind = StrategyKind::Hybrid {
            algorithm: crate::strategy::HybridKind::RadixSort,
        };
        let manager = IndexManager::new(kind);
        let data = keys(8 * aidx_hybrids::PARTITION_SIZE);
        let (column, high) = (ColumnId::new("t", "a"), data.len() as Key);
        let mut probe = ProbeTrace::default();
        let out =
            manager.query_range_probed(&column, &data[..], 0, 0, high, kind, Some(&mut probe));
        assert_eq!(out.count(), data.len());
        assert_eq!(probe.strategy, "hybrid-radix-sort");
        assert_eq!(manager.describe()[0].strategy, "hybrid-radix-sort");
        // eight initial partitions and the final one, drained by the query
        assert_eq!((probe.pieces_before, probe.pieces_after), (9, 1));
    }

    #[test]
    fn count_only_probes_measure_what_full_probes_measure() {
        let data = keys(4096);
        let segment = Segment::from_vec_with_capacity(data.clone(), 512);
        let older = Segment::from_vec_with_capacity(data[..4000].to_vec(), 512);
        let column = ColumnId::new("t", "a");
        for kind in [
            StrategyKind::Cracking,
            StrategyKind::UpdatableCracking,
            StrategyKind::FullSort,
        ] {
            let (counting, answering) = (IndexManager::new(kind), IndexManager::new(kind));
            // first touch (a build), refinements, a repeat, a lagging reader
            for (keys, low, high) in [
                (&segment, 100, 300),
                (&segment, 150, 250),
                (&segment, 100, 300),
                (&older, 0, 50),
            ] {
                let (mut counted, mut answered) = (ProbeTrace::default(), ProbeTrace::default());
                let count = match counting.count_range_probed(
                    &column,
                    keys,
                    1,
                    low,
                    high,
                    kind,
                    Some(&mut counted),
                ) {
                    Counted::Cut { count, .. } => count,
                    Counted::Rows(output) => output.count(),
                };
                let output = answering.query_range_probed(
                    &column,
                    keys,
                    1,
                    low,
                    high,
                    kind,
                    Some(&mut answered),
                );
                assert_eq!(count, output.count(), "{kind:?} [{low}, {high})");
                assert_eq!(counted, answered, "{kind:?} [{low}, {high})");
                assert_eq!(counting.describe(), answering.describe());
            }
        }
    }

    #[test]
    fn remediate_index_flips_strategy_even_when_up_to_date() {
        let manager = IndexManager::new(StrategyKind::Cracking);
        let data = keys(2000);
        let column = ColumnId::new("t", "a");
        let _ = manager.query_range_snapshot(&column, &data[..], 7, 0, 100, StrategyKind::Cracking);
        assert_eq!(manager.describe()[0].strategy, "cracking");
        // refresh_index refuses: same epoch, same tuple count — not stale
        assert!(!manager.refresh_index(&column, &data[..], 7));
        // remediation is unconditional at the same epoch
        assert!(manager.remediate_index(&column, &data[..], 7, StrategyKind::FullSort));
        let info = &manager.describe()[0];
        assert_eq!(info.strategy, "full-sort");
        assert_eq!(info.queries, 0, "rebuild restarts the per-build count");
        assert_eq!(manager.index_version(&column), Some((7, 2000)));
        // queries keep answering through the remediated index
        let out =
            manager.query_range_snapshot(&column, &data[..], 7, 0, 100, StrategyKind::Cracking);
        assert_eq!(out.count(), 100);
        // a column with no index yet gets one (pre-building)
        let fresh = ColumnId::new("t", "b");
        assert!(manager.remediate_index(&fresh, &data[..], 3, StrategyKind::FullSort));
        assert_eq!(manager.index_version(&fresh), Some((3, 2000)));
        // but an index at a newer epoch is never downgraded
        assert!(!manager.remediate_index(&fresh, &data[..], 2, StrategyKind::Cracking));
        assert_eq!(manager.describe()[1].strategy, "full-sort");
    }

    #[test]
    fn drop_index_removes_state() {
        let manager = IndexManager::new(StrategyKind::Cracking);
        let data = keys(100);
        let column = ColumnId::new("t", "a");
        let _ = manager.query_range(&column, &data, 0, 10);
        assert!(manager.drop_index(&column));
        assert!(!manager.drop_index(&column));
        assert_eq!(manager.indexed_column_count(), 0);
    }

    #[test]
    fn column_ids_share_interned_names() {
        let a = ColumnId::new("orders", "o_key");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.table(), "orders");
        assert_eq!(a.column(), "o_key");
        assert_eq!(a.to_string(), "orders.o_key");
        // cloning bumps the refcount instead of copying the strings
        let a_table: Arc<str> = a.table.clone();
        assert!(Arc::ptr_eq(&a_table, &b.table));
    }

    #[test]
    fn drop_table_indexes_removes_only_that_table() {
        let manager = IndexManager::new(StrategyKind::Cracking);
        let data = keys(100);
        let _ = manager.query_range(&ColumnId::new("t", "a"), &data, 0, 10);
        let _ = manager.query_range(&ColumnId::new("t", "b"), &data, 0, 10);
        let _ = manager.query_range(&ColumnId::new("u", "a"), &data, 0, 10);
        assert_eq!(manager.drop_table_indexes("t"), 2);
        assert_eq!(manager.indexed_column_count(), 1);
        assert!(manager.has_index(&ColumnId::new("u", "a")));
        assert_eq!(manager.drop_table_indexes("t"), 0);
    }

    #[test]
    fn a_full_sort_index_scans_its_suffix_and_rebuilds_once_past_the_bound() {
        let manager = IndexManager::new(StrategyKind::FullSort);
        let column = ColumnId::new("t", "a");
        let mut data = keys(1000);
        let probe = |data: &[Key]| {
            // chunks of 256: the suffix spans several, most ruled out by
            // their zone maps
            let segment = Segment::from_vec_with_capacity(data.to_vec(), 256);
            let mut probe = ProbeTrace::default();
            let kind = StrategyKind::FullSort;
            let out =
                manager.query_range_probed(&column, &segment, 0, 0, 10, kind, Some(&mut probe));
            let mut row_ids = out.into_row_ids();
            row_ids.sort_unstable();
            let scanned = KeySource::Flat(data).scan_range(0, 10);
            assert_eq!(row_ids, scanned.as_slice(), "{} rows", data.len());
            probe.rebuilt
        };
        assert!(probe(&data), "the first touch builds");
        // the index cannot absorb the rows appended after it: they are a
        // suffix every probe scans, up to the bound
        let mut rebuilds = 0;
        for step in 0..80 {
            let behind = data.len() - manager.describe()[0].tuples;
            assert!(behind <= suffix_bound(data.len()), "step {step}");
            data.extend((0..64).map(|i| if i % 7 == 0 { i % 10 } else { 5_000 + i }));
            if probe(&data) {
                rebuilds += 1;
                assert!(data.len() - 1000 > suffix_bound(data.len()), "step {step}");
            }
        }
        assert_eq!(rebuilds, 1, "folded in exactly once");
        let info = manager.describe();
        assert_eq!(info[0].strategy, "full-sort", "rebuild keeps the kind");
        assert!(info[0].tuples > 1000 + DEFAULT_SEGMENT_CAPACITY);
    }

    #[test]
    fn a_snapshot_ahead_of_its_writer_absorbs_the_rows_instead_of_rebuilding() {
        let column = ColumnId::new("t", "a");
        let mut data = keys(1000);
        let appended = [5, 6, 2_000];
        // `ahead` is queried on a snapshot holding three rows its writer has
        // not absorbed yet; `behind` absorbs them first, as usual
        let (ahead, behind) = (
            IndexManager::new(StrategyKind::UpdatableCracking),
            IndexManager::new(StrategyKind::UpdatableCracking),
        );
        let _ = ahead.query_range(&column, &data, 0, 10);
        let _ = behind.query_range(&column, &data, 0, 10);
        data.extend(appended);
        assert!(behind.catch_up(&column, &data, 0));
        let probe = |manager: &IndexManager| {
            let mut probe = ProbeTrace::default();
            let kind = StrategyKind::UpdatableCracking;
            let out = manager.query_range_probed(&column, &data, 0, 0, 10, kind, Some(&mut probe));
            let mut row_ids = out.into_row_ids();
            row_ids.sort_unstable();
            (row_ids, probe)
        };
        let (row_ids, traced) = probe(&ahead);
        assert!(!traced.rebuilt);
        assert_eq!((row_ids, traced), probe(&behind));
        // the writer then finds its rows covered, and nothing is doubled
        assert!(ahead.catch_up(&column, &data, 0));
        assert_eq!(ahead.describe(), behind.describe());
        assert_eq!(ahead.query_range(&column, &data, 0, 10).count(), 12);
    }

    #[test]
    fn insert_routes_to_updatable_indexes_only() {
        let manager = IndexManager::new(StrategyKind::UpdatableCracking);
        let mut data = keys(100);
        let column = ColumnId::new("t", "a");
        assert!(!manager.catch_up(&column, &data, 0), "no index yet");
        let _ = manager.query_range(&column, &data, 0, 10);
        let plain = IndexManager::new(StrategyKind::FullSort);
        let _ = plain.query_range(&column, &data, 0, 10);
        data.push(5);
        assert!(manager.catch_up(&column, &data, 0));
        assert_eq!(manager.index_version(&column), Some((0, 101)));
        // an index that cannot absorb keeps the row as a suffix
        assert!(!plain.catch_up(&column, &data, 0));
        assert_eq!(plain.index_version(&column), Some((0, 100)));
        assert_eq!(plain.query_range(&column, &data, 5, 6).count(), 2);
    }

    #[test]
    fn catch_up_guards_the_epoch_and_never_doubles_a_row() {
        let manager = IndexManager::new(StrategyKind::UpdatableCracking);
        let mut data = keys(100);
        let column = ColumnId::new("t", "a");
        let _ =
            manager.query_range_snapshot(&column, &data, 7, 0, 10, StrategyKind::UpdatableCracking);
        data.extend([5, 1, 2]);
        // wrong epoch: the index belongs to another table incarnation
        assert!(!manager.catch_up(&column, &data, 8));
        assert_eq!(manager.index_version(&column), Some((7, 100)));
        // its own epoch: every row past its end is staged at once
        assert!(manager.catch_up(&column, &data, 7));
        assert_eq!(manager.index_version(&column), Some((7, 103)));
        // a writer whose snapshot lags (it came second) finds its rows
        // covered, and a repeat stages nothing
        assert!(manager.catch_up(&column, &data[..101], 7));
        assert!(manager.catch_up(&column, &data, 7));
        assert_eq!(manager.index_version(&column), Some((7, 103)));
        let out =
            manager.query_range_snapshot(&column, &data, 7, 0, 10, StrategyKind::UpdatableCracking);
        let mut row_ids = out.into_row_ids();
        row_ids.sort_unstable();
        let scanned = KeySource::Flat(&data).scan_range(0, 10);
        assert_eq!(row_ids, scanned.as_slice());
    }

    #[test]
    fn lagging_snapshots_are_served_by_scan_without_downgrading_the_index() {
        let manager = IndexManager::new(StrategyKind::Cracking);
        let mut data = keys(1000);
        let column = ColumnId::new("t", "a");
        let old_snapshot = data.clone();
        data.push(5);
        // a fresh reader builds the index from the newer 1001-row snapshot
        let out = manager.query_range_snapshot(&column, &data, 3, 0, 10, StrategyKind::Cracking);
        assert_eq!(out.count(), 11);
        assert_eq!(manager.describe()[0].tuples, 1001);
        // a lagging reader with the older snapshot gets a scan answer over
        // its own data, and the shared index keeps its newer contents
        let out =
            manager.query_range_snapshot(&column, &old_snapshot, 3, 0, 10, StrategyKind::Cracking);
        assert_eq!(out.count(), 10, "answered from the 1000-row snapshot");
        assert_eq!(manager.describe()[0].tuples, 1001, "index not downgraded");
        // a newer epoch forces a rebuild even at matching length
        let out =
            manager.query_range_snapshot(&column, &old_snapshot, 4, 0, 10, StrategyKind::Cracking);
        assert_eq!(out.count(), 10);
        assert_eq!(manager.describe()[0].tuples, 1000);
        assert_eq!(
            manager.describe()[0].queries,
            1,
            "counter resets on rebuild"
        );
        // a straggler from an older incarnation is served by scan; it must
        // never rebuild the index backwards to its stale epoch
        let out = manager.query_range_snapshot(&column, &data, 3, 0, 10, StrategyKind::Cracking);
        assert_eq!(out.count(), 11, "answered from the epoch-3 snapshot");
        assert_eq!(
            manager.describe()[0].tuples,
            1000,
            "epoch-4 index not replaced by epoch-3 data"
        );
    }

    #[test]
    fn reconcile_carries_indexes_across_a_layout_only_epoch_bump() {
        let manager = IndexManager::new(StrategyKind::Cracking);
        let data = keys(1000);
        let a = ColumnId::new("t", "a");
        let b = ColumnId::new("t", "b");
        let other = ColumnId::new("u", "a");
        for (column, epoch) in [(&a, 5), (&b, 5), (&other, 9)] {
            let _ =
                manager.query_range_snapshot(column, &data, epoch, 0, 10, StrategyKind::Cracking);
            let _ =
                manager.query_range_snapshot(column, &data, epoch, 0, 10, StrategyKind::Cracking);
        }
        // compaction bumped t's epoch 5 -> 6: both of t's indexes move, u's
        // stays, and nobody's learned state or query counter resets
        assert_eq!(manager.reconcile_table_epoch("t", 5, 6), 2);
        assert_eq!(manager.index_version(&a), Some((6, 1000)));
        assert_eq!(manager.index_version(&b), Some((6, 1000)));
        assert_eq!(manager.index_version(&other), Some((9, 1000)));
        assert_eq!(manager.index_version(&ColumnId::new("t", "nope")), None);
        // a query at the new epoch answers through the carried-over index
        // (no rebuild: the query counter keeps counting)
        let out = manager.query_range_snapshot(&a, &data, 6, 0, 10, StrategyKind::Cracking);
        assert_eq!(out.count(), 10);
        let info = manager
            .describe()
            .into_iter()
            .find(|i| i.column == a)
            .unwrap();
        assert_eq!(info.queries, 3, "reconciliation must not reset the index");
        // re-running the same reconciliation is a no-op
        assert_eq!(manager.reconcile_table_epoch("t", 5, 6), 0);
    }

    #[test]
    fn refresh_rebuilds_only_genuinely_stale_indexes() {
        let manager = IndexManager::new(StrategyKind::Cracking);
        let data = keys(1000);
        let column = ColumnId::new("t", "a");
        assert!(
            !manager.refresh_index(&column, &data, 1),
            "nothing registered"
        );
        let _ = manager.query_range_snapshot(&column, &data, 3, 0, 10, StrategyKind::Cracking);
        // fresh (same epoch, same length): untouched
        assert!(!manager.refresh_index(&column, &data, 3));
        // a lagging refresher must never downgrade
        let shorter = &data[..500];
        assert!(!manager.refresh_index(&column, shorter, 3));
        assert_eq!(manager.index_version(&column), Some((3, 1000)));
        // grown base column at the same epoch: absorbed, not rebuilt
        let mut grown = data.clone();
        grown.push(7);
        assert!(!manager.refresh_index(&column, &grown, 3));
        assert_eq!(manager.index_version(&column), Some((3, 1001)));
        assert_eq!(manager.describe()[0].queries, 1, "the index kept counting");
        // an index that cannot absorb has its suffix folded in
        let plain = IndexManager::new(StrategyKind::FullSort);
        let _ = plain.query_range_snapshot(&column, &data, 3, 0, 10, StrategyKind::FullSort);
        assert!(plain.refresh_index(&column, &grown, 3));
        assert_eq!(plain.index_version(&column), Some((3, 1001)));
        assert!(!plain.refresh_index(&column, &grown, 3));
        // newer epoch: rebuilt; older epoch: refused
        assert!(manager.refresh_index(&column, &data, 4));
        assert_eq!(manager.index_version(&column), Some((4, 1000)));
        assert!(!manager.refresh_index(&column, &grown, 3));
        assert_eq!(manager.index_version(&column), Some((4, 1000)));
        // the refreshed index answers correctly
        let out = manager.query_range_snapshot(&column, &data, 4, 0, 10, StrategyKind::Cracking);
        assert_eq!(out.count(), 10);
    }

    #[test]
    fn key_source_views_agree_across_representations() {
        let data = keys(1000);
        let segment = Segment::from_vec_with_capacity(data.clone(), 64);
        let flat: KeySource<'_> = (&data).into();
        let seg: KeySource<'_> = (&segment).into();
        assert_eq!(flat.len(), seg.len());
        assert!(!flat.is_empty());
        assert_eq!(flat.scan_range(100, 200), seg.scan_range(100, 200));
        assert_eq!(flat.chunks(), [&data[..]]);
        assert_eq!(seg.chunks().concat(), data);
        let empty: KeySource<'_> = (&[] as &[Key]).into();
        assert!(empty.is_empty());
    }

    #[test]
    fn segmented_snapshots_route_through_the_manager() {
        let manager = IndexManager::new(StrategyKind::Cracking);
        let data = keys(5000);
        let segment = Segment::from_vec_with_capacity(data.clone(), 128);
        let column = ColumnId::new("t", "a");
        // build from the segmented view, answer through the index
        let out =
            manager.query_range_snapshot(&column, &segment, 1, 500, 1500, StrategyKind::Cracking);
        let expected = data.iter().filter(|&&v| (500..1500).contains(&v)).count();
        assert_eq!(out.count(), expected);
        assert_eq!(manager.describe()[0].tuples, 5000);
        // a lagging segmented snapshot is served by a zone-pruned scan
        let mut grown = data.clone();
        grown.push(7);
        let _ = manager.query_range_snapshot(&column, &grown, 1, 0, 1, StrategyKind::Cracking);
        assert_eq!(manager.describe()[0].tuples, 5001);
        let out =
            manager.query_range_snapshot(&column, &segment, 1, 500, 1500, StrategyKind::Cracking);
        assert_eq!(out.count(), expected, "lagging segment answered by scan");
        assert_eq!(manager.describe()[0].tuples, 5001, "index not downgraded");
    }

    fn parallel_manager(strategy: StrategyKind, workers: usize) -> IndexManager {
        IndexManager::with_pool(strategy, Arc::new(ThreadPool::new(workers)))
    }

    #[test]
    fn parallel_managers_build_the_serial_index_with_identical_answers() {
        let data = keys(8000);
        let segment = Segment::from_vec_with_capacity(data.clone(), 256);
        let serial = IndexManager::new(StrategyKind::Cracking);
        let parallel = parallel_manager(StrategyKind::Cracking, 4);
        let column = ColumnId::new("t", "a");
        for q in 0..30 {
            let low = ((q * 389) % 7000) as Key;
            let a = serial.query_range_snapshot(
                &column,
                &segment,
                1,
                low,
                low + 500,
                StrategyKind::Cracking,
            );
            let b = parallel.query_range_snapshot(
                &column,
                &segment,
                1,
                low,
                low + 500,
                StrategyKind::Cracking,
            );
            assert_eq!(a.into_positions(), b.into_positions(), "query {q}");
        }
        // one index per column at any worker count: the same effort, memory
        // and convergence as the serial run's
        assert_eq!(serial.describe(), parallel.describe());
    }

    #[test]
    fn parallel_managers_absorb_inserts_and_guard_continuity() {
        let data = keys(1000);
        let manager = parallel_manager(StrategyKind::UpdatableCracking, 4);
        let column = ColumnId::new("t", "a");
        let _ =
            manager.query_range_snapshot(&column, &data, 7, 0, 10, StrategyKind::UpdatableCracking);
        // a wrong epoch is refused exactly like on the serial path
        let mut grown = data.clone();
        grown.push(5);
        assert!(!manager.catch_up(&column, &grown, 8));
        assert!(manager.catch_up(&column, &grown, 7));
        assert_eq!(manager.describe()[0].tuples, 1001);
        let out =
            manager.query_range_snapshot(&column, &data, 7, 5, 6, StrategyKind::UpdatableCracking);
        // the 1000-row snapshot must not see the absorbed row 1000
        assert!(out.row_ids().iter().all(|&p| p < 1000));
        // a fresh snapshot containing the row does see it
        let out =
            manager.query_range_snapshot(&column, &grown, 7, 5, 6, StrategyKind::UpdatableCracking);
        assert!(out.row_ids().contains(&1000));
    }

    #[test]
    fn lagging_snapshots_use_the_parallel_scan_fallback() {
        let data = keys(5000);
        let segment = Segment::from_vec_with_capacity(data.clone(), 128);
        let manager = parallel_manager(StrategyKind::Cracking, 4);
        let column = ColumnId::new("t", "a");
        let mut grown = data.clone();
        grown.push(7);
        let _ = manager.query_range_snapshot(&column, &grown, 1, 0, 1, StrategyKind::Cracking);
        assert_eq!(manager.describe()[0].tuples, 5001);
        let expected = data.iter().filter(|&&v| (500..1500).contains(&v)).count();
        let out =
            manager.query_range_snapshot(&column, &segment, 1, 500, 1500, StrategyKind::Cracking);
        assert_eq!(out.count(), expected, "lagging segment answered by scan");
        assert_eq!(manager.describe()[0].tuples, 5001, "index not downgraded");
    }

    #[test]
    fn concurrent_queries_on_different_columns() {
        let manager = Arc::new(IndexManager::new(StrategyKind::Cracking));
        let data = Arc::new(keys(20_000));
        let mut handles = Vec::new();
        for t in 0..4 {
            let manager = Arc::clone(&manager);
            let data = Arc::clone(&data);
            handles.push(thread::spawn(move || {
                let column = ColumnId::new("t", format!("c{t}"));
                let mut total = 0usize;
                for q in 0..50 {
                    let low = ((q * 389) % 18_000) as Key;
                    total += manager.query_range(&column, &data, low, low + 500).count();
                }
                total
            }));
        }
        for handle in handles {
            assert!(handle.join().unwrap() > 0);
        }
        assert_eq!(manager.indexed_column_count(), 4);
    }

    #[test]
    fn concurrent_queries_on_the_same_column() {
        let manager = Arc::new(IndexManager::new(StrategyKind::Cracking));
        let data = Arc::new(keys(20_000));
        let expected: usize = data.iter().filter(|&&k| (500..1500).contains(&k)).count();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let manager = Arc::clone(&manager);
            let data = Arc::clone(&data);
            handles.push(thread::spawn(move || {
                let column = ColumnId::new("t", "shared");
                (0..25)
                    .map(|_| manager.query_range(&column, &data, 500, 1500).count())
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            for count in handle.join().unwrap() {
                assert_eq!(count, expected);
            }
        }
        assert_eq!(manager.indexed_column_count(), 1);
        assert_eq!(manager.describe()[0].queries, 100);
    }
}
