//! Cracker index backed by a hand-rolled, arena-allocated AVL tree.
//!
//! The original MonetDB cracking code keeps its piece catalog in an AVL tree;
//! this implementation mirrors that choice so the ablation benchmark can
//! compare it against the `BTreeMap`-backed index. Nodes live in a `Vec`
//! arena and refer to each other by index, which keeps the tree allocation
//! friendly and makes `clone` cheap.

use super::{CutIndex, VisitOrder};
use aidx_columnstore::types::Key;

/// Arena slot id. `u32::MAX` (via `Option<u32>`) is avoided by using
/// `Option<u32>` directly for clarity; the tree never holds enough cuts for
/// the extra word to matter.
type NodeId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    key: Key,
    position: usize,
    left: Option<NodeId>,
    right: Option<NodeId>,
    height: i32,
}

/// A [`CutIndex`] implemented as an arena-based AVL tree.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AvlCutIndex {
    nodes: Vec<Node>,
    root: Option<NodeId>,
    len: usize,
    free: Vec<NodeId>,
}

impl AvlCutIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id as usize]
    }

    fn height(&self, id: Option<NodeId>) -> i32 {
        id.map_or(0, |id| self.node(id).height)
    }

    fn update_height(&mut self, id: NodeId) {
        let h = 1 + self
            .height(self.node(id).left)
            .max(self.height(self.node(id).right));
        self.node_mut(id).height = h;
    }

    fn balance_factor(&self, id: NodeId) -> i32 {
        self.height(self.node(id).left) - self.height(self.node(id).right)
    }

    fn alloc(&mut self, key: Key, position: usize) -> NodeId {
        let node = Node {
            key,
            position,
            left: None,
            right: None,
            height: 1,
        };
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            let id = self.nodes.len() as NodeId;
            self.nodes.push(node);
            id
        }
    }

    fn rotate_right(&mut self, y: NodeId) -> NodeId {
        let x = self.node(y).left.expect("rotate_right requires left child");
        let t2 = self.node(x).right;
        self.node_mut(x).right = Some(y);
        self.node_mut(y).left = t2;
        self.update_height(y);
        self.update_height(x);
        x
    }

    fn rotate_left(&mut self, x: NodeId) -> NodeId {
        let y = self
            .node(x)
            .right
            .expect("rotate_left requires right child");
        let t2 = self.node(y).left;
        self.node_mut(y).left = Some(x);
        self.node_mut(x).right = t2;
        self.update_height(x);
        self.update_height(y);
        y
    }

    fn rebalance(&mut self, id: NodeId) -> NodeId {
        self.update_height(id);
        let balance = self.balance_factor(id);
        if balance > 1 {
            // left heavy
            let left = self.node(id).left.expect("left heavy implies left child");
            if self.balance_factor(left) < 0 {
                let new_left = self.rotate_left(left);
                self.node_mut(id).left = Some(new_left);
            }
            return self.rotate_right(id);
        }
        if balance < -1 {
            // right heavy
            let right = self
                .node(id)
                .right
                .expect("right heavy implies right child");
            if self.balance_factor(right) > 0 {
                let new_right = self.rotate_right(right);
                self.node_mut(id).right = Some(new_right);
            }
            return self.rotate_left(id);
        }
        id
    }

    fn insert_at(&mut self, root: Option<NodeId>, key: Key, position: usize) -> NodeId {
        let Some(id) = root else {
            self.len += 1;
            return self.alloc(key, position);
        };
        match key.cmp(&self.node(id).key) {
            std::cmp::Ordering::Less => {
                let new_left = self.insert_at(self.node(id).left, key, position);
                self.node_mut(id).left = Some(new_left);
            }
            std::cmp::Ordering::Greater => {
                let new_right = self.insert_at(self.node(id).right, key, position);
                self.node_mut(id).right = Some(new_right);
            }
            std::cmp::Ordering::Equal => {
                self.node_mut(id).position = position;
                return id;
            }
        }
        self.rebalance(id)
    }

    /// Detach the minimum node of the subtree rooted at `id`, returning the
    /// new subtree root and the detached node id.
    fn detach_min(&mut self, id: NodeId) -> (Option<NodeId>, NodeId) {
        if let Some(left) = self.node(id).left {
            let (new_left, min_id) = self.detach_min(left);
            self.node_mut(id).left = new_left;
            (Some(self.rebalance(id)), min_id)
        } else {
            let right = self.node(id).right;
            (right, id)
        }
    }

    fn remove_at(
        &mut self,
        root: Option<NodeId>,
        key: Key,
        removed: &mut Option<usize>,
    ) -> Option<NodeId> {
        let id = root?;
        match key.cmp(&self.node(id).key) {
            std::cmp::Ordering::Less => {
                let new_left = self.remove_at(self.node(id).left, key, removed);
                self.node_mut(id).left = new_left;
            }
            std::cmp::Ordering::Greater => {
                let new_right = self.remove_at(self.node(id).right, key, removed);
                self.node_mut(id).right = new_right;
            }
            std::cmp::Ordering::Equal => {
                *removed = Some(self.node(id).position);
                self.len -= 1;
                self.free.push(id);
                let (left, right) = (self.node(id).left, self.node(id).right);
                return match (left, right) {
                    (None, None) => None,
                    (Some(l), None) => Some(l),
                    (None, Some(r)) => Some(r),
                    (Some(l), Some(r)) => {
                        // replace with in-order successor (minimum of right subtree)
                        let (new_right, successor) = self.detach_min(r);
                        self.node_mut(successor).left = Some(l);
                        self.node_mut(successor).right = new_right;
                        Some(self.rebalance(successor))
                    }
                };
            }
        }
        Some(self.rebalance(id))
    }

    fn in_order(&self, id: Option<NodeId>, out: &mut Vec<(Key, usize)>) {
        let Some(id) = id else { return };
        self.in_order(self.node(id).left, out);
        out.push((self.node(id).key, self.node(id).position));
        self.in_order(self.node(id).right, out);
    }

    /// In-order walk (reversed for [`VisitOrder::Descending`]) of the nodes
    /// with key `> key`, skipping every subtree that cannot hold one.
    fn walk_above<F: FnMut(Key, &mut usize)>(
        &mut self,
        id: Option<NodeId>,
        key: Key,
        order: VisitOrder,
        visit: &mut F,
    ) {
        let Some(id) = id else { return };
        let Node {
            key: node_key,
            left,
            right,
            ..
        } = *self.node(id);
        if node_key <= key {
            // this node and its whole left subtree are at or below `key`
            return self.walk_above(right, key, order, visit);
        }
        let (first, second) = match order {
            VisitOrder::Ascending => (left, right),
            VisitOrder::Descending => (right, left),
        };
        self.walk_above(first, key, order, visit);
        visit(node_key, &mut self.node_mut(id).position);
        self.walk_above(second, key, order, visit);
    }

    /// Maximum depth of the tree (for balance assertions in tests).
    pub fn depth(&self) -> usize {
        self.height(self.root) as usize
    }

    /// Check the AVL balance invariant for every node.
    pub fn is_balanced(&self) -> bool {
        fn check(tree: &AvlCutIndex, id: Option<NodeId>) -> (bool, i32) {
            let Some(id) = id else { return (true, 0) };
            let (lok, lh) = check(tree, tree.node(id).left);
            let (rok, rh) = check(tree, tree.node(id).right);
            let ok = lok && rok && (lh - rh).abs() <= 1 && tree.node(id).height == 1 + lh.max(rh);
            (ok, 1 + lh.max(rh))
        }
        check(self, self.root).0
    }
}

impl CutIndex for AvlCutIndex {
    fn insert(&mut self, key: Key, position: usize) {
        let new_root = self.insert_at(self.root, key, position);
        self.root = Some(new_root);
    }

    fn exact(&self, key: Key) -> Option<usize> {
        let mut current = self.root;
        while let Some(id) = current {
            match key.cmp(&self.node(id).key) {
                std::cmp::Ordering::Less => current = self.node(id).left,
                std::cmp::Ordering::Greater => current = self.node(id).right,
                std::cmp::Ordering::Equal => return Some(self.node(id).position),
            }
        }
        None
    }

    fn floor(&self, key: Key) -> Option<(Key, usize)> {
        let mut current = self.root;
        let mut best = None;
        while let Some(id) = current {
            let node = self.node(id);
            if node.key <= key {
                best = Some((node.key, node.position));
                current = node.right;
            } else {
                current = node.left;
            }
        }
        best
    }

    fn ceiling(&self, key: Key) -> Option<(Key, usize)> {
        let mut current = self.root;
        let mut best = None;
        while let Some(id) = current {
            let node = self.node(id);
            if node.key >= key {
                best = Some((node.key, node.position));
                current = node.left;
            } else {
                current = node.right;
            }
        }
        best
    }

    fn remove(&mut self, key: Key) -> Option<usize> {
        let mut removed = None;
        self.root = self.remove_at(self.root, key, &mut removed);
        removed
    }

    fn len(&self) -> usize {
        self.len
    }

    fn cuts(&self) -> Vec<(Key, usize)> {
        let mut out = Vec::with_capacity(self.len);
        self.in_order(self.root, &mut out);
        out
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.root = None;
        self.len = 0;
    }

    fn shift_positions(&mut self, from_position: usize, delta: isize) {
        for node in &mut self.nodes {
            if node.position >= from_position {
                node.position = (node.position as isize + delta) as usize;
            }
        }
        // Note: freed arena slots may also be shifted; they are unreachable
        // from the root, so this is harmless.
    }

    fn visit_above<F: FnMut(Key, &mut usize)>(
        &mut self,
        key: Key,
        order: VisitOrder,
        mut visit: F,
    ) {
        self.walk_above(self.root, key, order, &mut visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_tree_balanced_ascending() {
        let mut idx = AvlCutIndex::new();
        for i in 0..1024 {
            idx.insert(i, i as usize);
        }
        assert_eq!(idx.len(), 1024);
        assert!(idx.is_balanced());
        // a balanced tree over 1024 nodes has height ~10-11, far below 1024
        assert!(idx.depth() <= 12, "depth {} too large", idx.depth());
    }

    #[test]
    fn insert_keeps_tree_balanced_descending_and_zigzag() {
        let mut idx = AvlCutIndex::new();
        for i in (0..512).rev() {
            idx.insert(i, i as usize);
        }
        assert!(idx.is_balanced());
        let mut idx = AvlCutIndex::new();
        for i in 0..512 {
            let key = if i % 2 == 0 { i } else { 1000 - i };
            idx.insert(key, i as usize);
        }
        assert!(idx.is_balanced());
    }

    #[test]
    fn remove_leaf_one_child_two_children() {
        let mut idx = AvlCutIndex::new();
        for &k in &[50, 30, 70, 20, 40, 60, 80] {
            idx.insert(k, k as usize);
        }
        // leaf
        assert_eq!(idx.remove(20), Some(20));
        // node with two children
        assert_eq!(idx.remove(30), Some(30));
        // root with two children
        assert_eq!(idx.remove(50), Some(50));
        assert_eq!(idx.len(), 4);
        assert!(idx.is_balanced());
        assert_eq!(
            idx.cuts().iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![40, 60, 70, 80]
        );
        // removing a missing key is a no-op
        assert_eq!(idx.remove(999), None);
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn remove_many_stays_balanced() {
        let mut idx = AvlCutIndex::new();
        for i in 0..500 {
            idx.insert(i, i as usize);
        }
        for i in (0..500).step_by(2) {
            assert_eq!(idx.remove(i), Some(i as usize));
        }
        assert_eq!(idx.len(), 250);
        assert!(idx.is_balanced());
        assert!(idx.exact(2).is_none());
        assert_eq!(idx.exact(3), Some(3));
    }

    #[test]
    fn arena_slots_are_reused_after_remove() {
        let mut idx = AvlCutIndex::new();
        idx.insert(1, 1);
        idx.insert(2, 2);
        let slots_before = idx.nodes.len();
        idx.remove(1);
        idx.insert(3, 3);
        assert_eq!(idx.nodes.len(), slots_before, "freed slot should be reused");
    }

    #[test]
    fn duplicate_insert_overwrites_position() {
        let mut idx = AvlCutIndex::new();
        idx.insert(5, 1);
        idx.insert(5, 9);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.exact(5), Some(9));
    }

    #[test]
    fn floor_ceiling_on_deep_tree() {
        let mut idx = AvlCutIndex::new();
        for i in (0..1000).step_by(10) {
            idx.insert(i, i as usize);
        }
        assert_eq!(idx.floor(55), Some((50, 50)));
        assert_eq!(idx.ceiling(55), Some((60, 60)));
        assert_eq!(idx.floor(-1), None);
        assert_eq!(idx.ceiling(991), None);
    }
}
