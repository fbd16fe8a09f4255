//! Sideways cracking: self-organizing tuple reconstruction (SIGMOD 2009).
//!
//! Selection cracking reorganizes one column; answering `SELECT B WHERE
//! low <= A < high` then needs a late-materialization fetch of `B` at the
//! qualifying row ids, which after a few thousand cracks degenerates into
//! random access over the whole of `B`. Sideways cracking instead maintains
//! **cracker maps** `M(A,B)`: pairs of the selection attribute `A` (the
//! *head*) and one projection attribute `B` (the *tail*), physically
//! reorganized *together* on `A`. The tuples that qualify for a selection on
//! `A` are therefore contiguous in `M(A,B)`, and the projected `B` values
//! come out of a sequential read — no random access, no join back to the base
//! table.
//!
//! With several maps `M(A,B1)…M(A,Bk)` sharing the same head, the maps must
//! be cracked *identically* so that the qualifying tuples occupy the same
//! positions in each map. [`MapSet`] guarantees this through **adaptive
//! alignment**: it keeps a log of every crack performed on the head attribute
//! and lazily replays the missing suffix of that log on a map right before
//! the map is used.
//!
//! A map is its head keys beside one array of `(tail, row id)` pairs, cracked
//! as the payload by selection cracking's kernel, with its pieces in the same
//! cut index. The kernel is deterministic: maps that replay one history from
//! one base order hold each tuple at the same position.

use crate::crack::{crack_in_two_counted, PivotSide};
use crate::index::BTreeCutIndex;
use crate::stats::CrackStats;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::{Key, RowId};
use std::collections::HashMap;

/// What travels with one head key of a cracker map: its tail value and its
/// base row id, packed into 12 bytes — as a tuple, the pair would be padded
/// to 16.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, packed)]
struct TailRow {
    tail: Key,
    rowid: RowId,
}

const _: () = assert!(std::mem::size_of::<TailRow>() == 12);

/// One cracker map `M(head, tail)`: the head keys, and beside them the
/// payload that travels with each, its tail value and row id packed into
/// 12 bytes.
#[derive(Debug, Clone)]
pub struct CrackerMap {
    head: Vec<Key>,
    payload: Vec<TailRow>,
    cuts: BTreeCutIndex,
    /// How many entries of the owning [`MapSet`]'s crack history this map has
    /// already applied.
    applied_history: usize,
}

impl CrackerMap {
    fn new(head: Vec<Key>, tail: Vec<Key>) -> Self {
        assert_eq!(head.len(), tail.len(), "head and tail must be parallel");
        CrackerMap {
            head,
            payload: (tail.into_iter().zip(0..))
                .map(|(tail, rowid)| TailRow { tail, rowid })
                .collect(),
            cuts: BTreeCutIndex::new(),
            applied_history: 0,
        }
    }

    /// Crack the map so that a cut exists at `pivot`, returning its position.
    fn ensure_cut(&mut self, pivot: Key, stats: &mut CrackStats) -> usize {
        if let Some(p) = self.cuts.exact(pivot) {
            return p;
        }
        let (begin, end) = self.cuts.piece(pivot, self.head.len());
        let (split, touch) = crack_in_two_counted(
            &mut self.head,
            &mut self.payload,
            begin,
            end,
            pivot,
            PivotSide::Left,
        );
        stats.record_crack_in_two(touch);
        self.cuts.insert(pivot, split);
        split
    }

    /// Memory footprint in bytes: 8 per head key and 12 per tail value and
    /// row id.
    pub fn byte_size(&self) -> usize {
        self.head.len() * (std::mem::size_of::<Key>() + std::mem::size_of::<TailRow>())
    }

    /// Verify that the head and payload are still parallel and that every
    /// piece respects its key bounds.
    pub fn verify_integrity(&self) -> bool {
        self.head.len() == self.payload.len()
            && self.cuts.pieces_hold(self.head.len(), |i| self.head[i])
    }
}

/// The projected answer of a sideways-cracking query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SidewaysAnswer {
    /// The qualifying head (selection attribute) values.
    pub head: Vec<Key>,
    /// The projected tail values, one vector per requested tail column, in
    /// request order; every vector is parallel to `head`.
    pub tails: Vec<Vec<Key>>,
    /// Base-table row ids parallel to `head`.
    pub rowids: Vec<RowId>,
}

impl SidewaysAnswer {
    /// Number of qualifying tuples.
    pub fn len(&self) -> usize {
        self.head.len()
    }

    /// True when no tuple qualifies.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty()
    }
}

/// A set of cracker maps sharing one head (selection) attribute.
#[derive(Debug, Clone)]
pub struct MapSet {
    head_column: Vec<Key>,
    tail_columns: HashMap<String, Vec<Key>>,
    maps: HashMap<String, CrackerMap>,
    /// Every pivot ever cracked on the head attribute, in order. Maps replay
    /// the suffix they have not applied yet (adaptive alignment).
    crack_history: Vec<Key>,
    stats: CrackStats,
}

impl MapSet {
    /// Create a map set from a head column and named tail columns. All
    /// columns must be equally long.
    pub fn new(head: &[Key], tails: Vec<(&str, Vec<Key>)>) -> Self {
        for (name, tail) in &tails {
            assert_eq!(
                tail.len(),
                head.len(),
                "tail column {name} must match head length"
            );
        }
        MapSet {
            head_column: head.to_vec(),
            tail_columns: tails
                .into_iter()
                .map(|(name, tail)| (name.to_owned(), tail))
                .collect(),
            maps: HashMap::new(),
            crack_history: Vec::new(),
            stats: CrackStats::new(),
        }
    }

    /// Build a map set for the `Int64` columns of a [`Table`]: `head_name`
    /// becomes the head, every other `Int64` column a potential tail.
    pub fn from_table(table: &Table, head_name: &str) -> Option<Self> {
        let head = table.column(head_name).ok()?.as_i64()?.to_vec();
        let mut tails = Vec::new();
        for field in table.schema().fields() {
            if field.name() == head_name {
                continue;
            }
            if let Ok(column) = table.column(field.name()) {
                if let Some(c) = column.as_i64() {
                    tails.push((field.name(), c.to_vec()));
                }
            }
        }
        Some(MapSet::new(&head, tails))
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.head_column.len()
    }

    /// True when the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.head_column.is_empty()
    }

    /// Names of the available tail columns.
    pub fn tail_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tail_columns.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Number of cracker maps materialized so far (maps are created lazily,
    /// on the first query that projects their tail — "partial sideways
    /// cracking": unqueried tails cost nothing).
    pub fn materialized_maps(&self) -> usize {
        self.maps.len()
    }

    /// Bytes the materialized maps hold: 20 a tuple each.
    pub fn auxiliary_bytes(&self) -> usize {
        self.maps.values().map(CrackerMap::byte_size).sum()
    }

    /// Length of the shared crack history.
    pub fn crack_history_len(&self) -> usize {
        self.crack_history.len()
    }

    /// Accumulated instrumentation.
    pub fn stats(&self) -> &CrackStats {
        &self.stats
    }

    /// Answer `SELECT tails... WHERE low <= head < high` adaptively.
    ///
    /// Every requested tail's cracker map is materialized (if needed),
    /// aligned with the shared crack history, cracked at the query bounds and
    /// read sequentially. The answer vectors of all tails are positionally
    /// aligned with each other, which is exactly the property the alignment
    /// machinery exists to provide.
    pub fn select_project(&mut self, low: Key, high: Key, tails: &[&str]) -> SidewaysAnswer {
        self.stats.record_query();
        let mut answer = SidewaysAnswer::default();
        if low >= high || self.head_column.is_empty() || tails.is_empty() {
            // keep the answer shape consistent: one (empty) projection per
            // requested tail
            answer.tails = tails.iter().map(|_| Vec::new()).collect();
            return answer;
        }

        // Register the query bounds in the shared history once.
        for bound in [low, high] {
            if !self.crack_history.contains(&bound) {
                self.crack_history.push(bound);
            }
        }

        let mut head_projected = false;
        for tail_name in tails {
            if !self.tail_columns.contains_key(*tail_name) {
                // unknown tail: produce an empty projection for it
                answer.tails.push(Vec::new());
                continue;
            }
            self.materialize_map(tail_name);
            let (history, stats) = (&self.crack_history, &mut self.stats);
            let map = self.maps.get_mut(*tail_name).expect("just materialized");
            // adaptive alignment: replay the missing history suffix
            while map.applied_history < history.len() {
                let pivot = history[map.applied_history];
                map.ensure_cut(pivot, stats);
                map.applied_history += 1;
            }
            // Both bounds are in the history and have just been replayed, so
            // exact cuts exist for them (out-of-domain bounds crack to the
            // column edges).
            let begin = map.cuts.exact(low).unwrap_or(0);
            let end = map.cuts.exact(high).unwrap_or(map.head.len()).max(begin);
            stats.record_scan(end - begin);

            let payload = &map.payload[begin..end];
            if !head_projected {
                head_projected = true;
                answer.head = map.head[begin..end].to_vec();
                answer.rowids = payload.iter().map(|row| row.rowid).collect();
            }
            answer
                .tails
                .push(payload.iter().map(|row| row.tail).collect());
        }
        answer
    }

    /// Convenience: project a single tail.
    pub fn select_project_one(&mut self, low: Key, high: Key, tail: &str) -> SidewaysAnswer {
        self.select_project(low, high, &[tail])
    }

    fn materialize_map(&mut self, tail_name: &str) {
        if self.maps.contains_key(tail_name) {
            return;
        }
        let tail = self
            .tail_columns
            .get(tail_name)
            .expect("caller checked the tail exists")
            .clone();
        self.stats.record_copy(self.head_column.len() * 2);
        self.maps.insert(
            tail_name.to_owned(),
            CrackerMap::new(self.head_column.clone(), tail),
        );
    }

    /// Verify the integrity of every materialized map and their mutual
    /// alignment (same piece boundaries for fully aligned maps).
    pub fn verify_integrity(&self) -> bool {
        // maps that have applied the same amount of history must have the
        // same cut structure
        let mut aligned = (self.maps.values())
            .filter(|m| m.applied_history == self.crack_history.len())
            .map(|m| &m.cuts);
        let first = aligned.next();
        self.maps.values().all(CrackerMap::verify_integrity)
            && aligned.all(|cuts| Some(cuts) == first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A little three-column relation: a (head), b = 10*a, c = 1000 - a.
    fn relation(n: Key) -> (Vec<Key>, Vec<Key>, Vec<Key>) {
        let a: Vec<Key> = (0..n).map(|i| (i * 48271) % n).collect();
        let b: Vec<Key> = a.iter().map(|&v| v * 10).collect();
        let c: Vec<Key> = a.iter().map(|&v| 1000 - v).collect();
        (a, b, c)
    }

    fn reference_project(a: &[Key], tail: &[Key], low: Key, high: Key) -> Vec<(Key, Key)> {
        let mut v: Vec<(Key, Key)> = a
            .iter()
            .zip(tail.iter())
            .filter(|&(&av, _)| av >= low && av < high)
            .map(|(&av, &tv)| (av, tv))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn single_tail_projection_matches_reference() {
        let (a, b, _) = relation(2000);
        let mut maps = MapSet::new(&a, vec![("b", b.clone())]);
        for q in 0..40 {
            let low = (q * 83) % 1800;
            let high = low + 120;
            let answer = maps.select_project_one(low, high, "b");
            let mut got: Vec<(Key, Key)> = answer
                .head
                .iter()
                .copied()
                .zip(answer.tails[0].iter().copied())
                .collect();
            got.sort_unstable();
            assert_eq!(got, reference_project(&a, &b, low, high));
        }
        assert!(maps.verify_integrity());
        assert_eq!(maps.materialized_maps(), 1);
    }

    #[test]
    fn tails_stay_aligned_across_maps() {
        let (a, b, c) = relation(3000);
        let mut maps = MapSet::new(&a, vec![("b", b.clone()), ("c", c.clone())]);
        // interleave queries that touch different subsets of tails so the
        // alignment machinery has real work to do
        let _ = maps.select_project_one(100, 400, "b");
        let _ = maps.select_project_one(900, 1500, "c");
        let _ = maps.select_project_one(200, 700, "b");
        let answer = maps.select_project(300, 600, &["b", "c"]);
        assert_eq!(answer.tails.len(), 2);
        assert_eq!(answer.head.len(), answer.tails[0].len());
        assert_eq!(answer.head.len(), answer.tails[1].len());
        // per-tuple relationships must hold across the projected vectors
        for i in 0..answer.len() {
            let av = answer.head[i];
            assert_eq!(answer.tails[0][i], av * 10, "b must align with a");
            assert_eq!(answer.tails[1][i], 1000 - av, "c must align with a");
            assert_eq!(a[answer.rowids[i] as usize], av);
        }
        assert!(maps.verify_integrity());
    }

    #[test]
    fn maps_are_materialized_lazily() {
        let (a, b, c) = relation(500);
        let mut maps = MapSet::new(&a, vec![("b", b), ("c", c)]);
        assert_eq!(maps.materialized_maps(), 0);
        let _ = maps.select_project_one(10, 50, "b");
        assert_eq!(
            maps.materialized_maps(),
            1,
            "only the queried tail is materialized"
        );
        let _ = maps.select_project_one(10, 50, "c");
        assert_eq!(maps.materialized_maps(), 2);
        assert_eq!(maps.tail_names(), vec!["b", "c"]);
        assert!(maps.crack_history_len() >= 2);
    }

    #[test]
    fn unknown_tail_and_degenerate_queries() {
        let (a, b, _) = relation(100);
        let mut maps = MapSet::new(&a, vec![("b", b)]);
        let answer = maps.select_project(10, 50, &["nope"]);
        assert!(answer.is_empty());
        assert_eq!(answer.tails.len(), 1);
        assert!(answer.tails[0].is_empty());
        assert!(maps.select_project(50, 10, &["b"]).is_empty());
        assert!(maps.select_project(10, 50, &[]).is_empty());
        let empty = MapSet::new(&[], vec![("b", vec![])]);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn out_of_domain_bounds_are_clamped() {
        let (a, b, _) = relation(200);
        let mut maps = MapSet::new(&a, vec![("b", b.clone())]);
        let answer = maps.select_project_one(-500, 5000, "b");
        assert_eq!(answer.len(), 200, "whole relation qualifies");
        let answer = maps.select_project_one(-500, -100, "b");
        assert!(answer.is_empty());
    }

    #[test]
    fn from_table_builds_maps_over_int_columns() {
        use aidx_columnstore::prelude::*;
        let table = Table::from_columns(vec![
            ("a", Column::from_i64(vec![3, 1, 2])),
            ("b", Column::from_i64(vec![30, 10, 20])),
            ("name", Column::from_strs(&["x", "y", "z"])),
        ])
        .unwrap();
        let mut maps = MapSet::from_table(&table, "a").unwrap();
        assert_eq!(maps.tail_names(), vec!["b"]);
        let answer = maps.select_project_one(1, 3, "b");
        let mut pairs: Vec<(Key, Key)> = answer
            .head
            .iter()
            .copied()
            .zip(answer.tails[0].iter().copied())
            .collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 10), (2, 20)]);
        assert!(MapSet::from_table(&table, "name").is_none());
    }

    #[test]
    fn a_map_holds_twenty_bytes_a_tuple() {
        let (a, b, c) = relation(500);
        let mut maps = MapSet::new(&a, vec![("b", b), ("c", c)]);
        assert_eq!(maps.auxiliary_bytes(), 0);
        let _ = maps.select_project(10, 50, &["b", "c"]);
        assert_eq!(maps.auxiliary_bytes(), 2 * 500 * (8 + 12));
    }

    #[test]
    fn repeated_queries_stop_cracking_maps() {
        let (a, b, _) = relation(1000);
        let mut maps = MapSet::new(&a, vec![("b", b)]);
        let _ = maps.select_project_one(100, 300, "b");
        let history = maps.crack_history_len();
        let cracks = maps.stats().crack_in_two_calls;
        let _ = maps.select_project_one(100, 300, "b");
        assert_eq!(maps.crack_history_len(), history);
        assert_eq!(maps.stats().crack_in_two_calls, cracks);
    }

    #[test]
    fn sideways_cracks_count_their_swaps() {
        let (a, b, _) = relation(2000);
        let mut maps = MapSet::new(&a, vec![("b", b)]);
        let _ = maps.select_project_one(500, 900, "b");
        let stats = maps.stats();
        assert_eq!(stats.crack_in_two_calls, 2);
        assert!(stats.elements_swapped > 0, "{stats:?}");
        assert!(stats.elements_swapped <= stats.elements_compared / 2);
    }

    /// The edge-select kernel over the maps' packed 12-byte payload, whose
    /// windows straddle cache lines unevenly.
    #[test]
    fn select_where_carries_tail_rows_like_a_filter() {
        let entry = |i: usize| TailRow {
            tail: -(i as Key),
            rowid: i as RowId,
        };
        let id = |row: TailRow| {
            let (tail, rowid) = (row.tail, row.rowid);
            assert_eq!(tail, -Key::from(rowid), "a tail stays with its row id");
            rowid as usize
        };
        crate::crack::tests::check_select_where::<u32, TailRow>(entry, id);
        crate::crack::tests::check_select_where::<i64, TailRow>(entry, id);
    }
}
