//! A persistent B+-tree (the BTree microbenchmark).
//!
//! Nodes are 256-byte blocks laid out by hand over the transactional
//! interface. Leaves hold up to 14 key/value pairs plus a next-leaf link;
//! internal nodes hold up to 14 keys and 15 children. Inserts split on the
//! way down is not used — splits propagate up through a parent stack.
//! Deletes are leaf-local (no rebalancing), the common persistent-memory
//! design point; the structural write sets match Table 3's BTree shape
//! (several lines per page thanks to node locality).

use rand::rngs::SmallRng;
use ssp_simulator::addr::VirtAddr;
use ssp_simulator::cache::CoreId;
use ssp_txn::engine::TxnEngine;
use ssp_txn::heap::PersistentHeap;
use ssp_txn::view;

use crate::dist::KeyDist;
use crate::runner::Workload;

/// Maximum keys per node.
pub const MAX_KEYS: usize = 14;
const NODE_SIZE: usize = 256;

// Node layout (byte offsets):
// 0: kind (0 = leaf, 1 = internal)
// 1: nkeys
// 8..120: keys[14]
// leaf:     120..232: values[14], 232..240: next leaf
// internal: 120..240: children[15]
const OFF_KIND: u64 = 0;
const OFF_NKEYS: u64 = 1;
const OFF_KEYS: u64 = 8;
const OFF_VALUES: u64 = 120;
const OFF_NEXT: u64 = 232;
const OFF_CHILDREN: u64 = 120;

const LEAF: u8 = 0;
const INTERNAL: u8 = 1;

/// A persistent B+-tree with 8-byte keys and values.
#[derive(Debug, Clone)]
pub struct BTree {
    /// Address of the 8-byte root pointer cell (in its own page so the
    /// root swap is a single-line update).
    root_cell: VirtAddr,
    heap: PersistentHeap,
}

#[derive(Clone, Copy)]
struct NodeRef(VirtAddr);

/// Deepest descent the parent stack holds. An internal node splits into
/// halves of at least 7 children, so a tree this deep would have 7²³
/// leaves.
const MAX_DEPTH: usize = 24;

/// The descent path of one insert — `(internal node, child index taken)`
/// per level, root first — held on the stack so an insert allocates
/// nothing on the host.
struct Path {
    steps: [(NodeRef, usize); MAX_DEPTH],
    len: usize,
}

impl Path {
    fn new() -> Self {
        Self {
            steps: [(NodeRef(VirtAddr::new(0)), 0); MAX_DEPTH],
            len: 0,
        }
    }

    fn push(&mut self, node: NodeRef, idx: usize) {
        assert!(
            self.len < MAX_DEPTH,
            "B+-tree deeper than {MAX_DEPTH} levels"
        );
        self.steps[self.len] = (node, idx);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(NodeRef, usize)> {
        self.len = self.len.checked_sub(1)?;
        Some(self.steps[self.len])
    }
}

impl BTree {
    /// Creates an empty tree inside an open transaction.
    pub fn create(engine: &mut dyn TxnEngine, core: CoreId, heap: PersistentHeap) -> Self {
        let meta = engine.map_new_page(core).base();
        let tree = Self {
            root_cell: meta,
            heap,
        };
        let root = tree.new_node(engine, core, LEAF);
        view::write_u64(engine, core, tree.root_cell, root.0.raw());
        tree
    }

    fn new_node(&self, engine: &mut dyn TxnEngine, core: CoreId, kind: u8) -> NodeRef {
        let addr = self.heap.alloc(engine, core, NODE_SIZE);
        view::write_u8(engine, core, addr.add(OFF_KIND), kind);
        view::write_u8(engine, core, addr.add(OFF_NKEYS), 0);
        NodeRef(addr)
    }

    fn root(&self, engine: &mut dyn TxnEngine, core: CoreId) -> NodeRef {
        NodeRef(VirtAddr::new(view::read_u64(engine, core, self.root_cell)))
    }

    fn kind(&self, engine: &mut dyn TxnEngine, core: CoreId, n: &NodeRef) -> u8 {
        view::read_u8(engine, core, n.0.add(OFF_KIND))
    }

    fn nkeys(&self, engine: &mut dyn TxnEngine, core: CoreId, n: &NodeRef) -> usize {
        view::read_u8(engine, core, n.0.add(OFF_NKEYS)) as usize
    }

    fn set_nkeys(&self, engine: &mut dyn TxnEngine, core: CoreId, n: &NodeRef, v: usize) {
        view::write_u8(engine, core, n.0.add(OFF_NKEYS), v as u8);
    }

    fn key(&self, engine: &mut dyn TxnEngine, core: CoreId, n: &NodeRef, i: usize) -> u64 {
        view::read_u64(engine, core, n.0.add(OFF_KEYS + i as u64 * 8))
    }

    fn set_key(&self, engine: &mut dyn TxnEngine, core: CoreId, n: &NodeRef, i: usize, k: u64) {
        view::write_u64(engine, core, n.0.add(OFF_KEYS + i as u64 * 8), k);
    }

    fn value(&self, engine: &mut dyn TxnEngine, core: CoreId, n: &NodeRef, i: usize) -> u64 {
        view::read_u64(engine, core, n.0.add(OFF_VALUES + i as u64 * 8))
    }

    fn set_value(&self, engine: &mut dyn TxnEngine, core: CoreId, n: &NodeRef, i: usize, v: u64) {
        view::write_u64(engine, core, n.0.add(OFF_VALUES + i as u64 * 8), v);
    }

    fn child(&self, engine: &mut dyn TxnEngine, core: CoreId, n: &NodeRef, i: usize) -> NodeRef {
        NodeRef(VirtAddr::new(view::read_u64(
            engine,
            core,
            n.0.add(OFF_CHILDREN + i as u64 * 8),
        )))
    }

    fn set_child(
        &self,
        engine: &mut dyn TxnEngine,
        core: CoreId,
        n: &NodeRef,
        i: usize,
        c: &NodeRef,
    ) {
        view::write_u64(
            engine,
            core,
            n.0.add(OFF_CHILDREN + i as u64 * 8),
            c.0.raw(),
        );
    }

    /// Looks a key up.
    pub fn get(&self, engine: &mut dyn TxnEngine, core: CoreId, key: u64) -> Option<u64> {
        let mut node = self.root(engine, core);
        loop {
            let n = self.nkeys(engine, core, &node);
            if self.kind(engine, core, &node) == LEAF {
                for i in 0..n {
                    if self.key(engine, core, &node, i) == key {
                        return Some(self.value(engine, core, &node, i));
                    }
                }
                return None;
            }
            let mut idx = n;
            for i in 0..n {
                if key < self.key(engine, core, &node, i) {
                    idx = i;
                    break;
                }
            }
            node = self.child(engine, core, &node, idx);
        }
    }

    /// Inserts (or overwrites) a key inside the caller's transaction.
    pub fn insert(&self, engine: &mut dyn TxnEngine, core: CoreId, key: u64, value: u64) {
        // Descend, remembering the path for splits.
        let mut path = Path::new();
        let mut node = self.root(engine, core);
        loop {
            if self.kind(engine, core, &node) == LEAF {
                break;
            }
            let n = self.nkeys(engine, core, &node);
            let mut idx = n;
            for i in 0..n {
                if key < self.key(engine, core, &node, i) {
                    idx = i;
                    break;
                }
            }
            let next = self.child(engine, core, &node, idx);
            path.push(node, idx);
            node = next;
        }

        // Overwrite if present.
        let n = self.nkeys(engine, core, &node);
        for i in 0..n {
            if self.key(engine, core, &node, i) == key {
                self.set_value(engine, core, &node, i, value);
                return;
            }
        }

        if n < MAX_KEYS {
            self.leaf_insert_nonfull(engine, core, &node, key, value);
            return;
        }

        // Split the leaf, then propagate.
        let (sep, right) = self.split_leaf(engine, core, &node);
        if key < sep {
            self.leaf_insert_nonfull(engine, core, &node, key, value);
        } else {
            self.leaf_insert_nonfull(engine, core, &right, key, value);
        }
        self.insert_into_parents(engine, core, path, node, sep, right);
    }

    fn leaf_insert_nonfull(
        &self,
        engine: &mut dyn TxnEngine,
        core: CoreId,
        node: &NodeRef,
        key: u64,
        value: u64,
    ) {
        let n = self.nkeys(engine, core, node);
        debug_assert!(n < MAX_KEYS);
        let mut pos = n;
        for i in 0..n {
            if key < self.key(engine, core, node, i) {
                pos = i;
                break;
            }
        }
        let mut i = n;
        while i > pos {
            let k = self.key(engine, core, node, i - 1);
            let v = self.value(engine, core, node, i - 1);
            self.set_key(engine, core, node, i, k);
            self.set_value(engine, core, node, i, v);
            i -= 1;
        }
        self.set_key(engine, core, node, pos, key);
        self.set_value(engine, core, node, pos, value);
        self.set_nkeys(engine, core, node, n + 1);
    }

    /// Splits a full leaf; returns the separator key and the new right
    /// sibling.
    fn split_leaf(
        &self,
        engine: &mut dyn TxnEngine,
        core: CoreId,
        node: &NodeRef,
    ) -> (u64, NodeRef) {
        let right = self.new_node(engine, core, LEAF);
        let n = self.nkeys(engine, core, node);
        let half = n / 2;
        for i in half..n {
            let k = self.key(engine, core, node, i);
            let v = self.value(engine, core, node, i);
            self.set_key(engine, core, &right, i - half, k);
            self.set_value(engine, core, &right, i - half, v);
        }
        self.set_nkeys(engine, core, &right, n - half);
        self.set_nkeys(engine, core, node, half);
        // Leaf chaining.
        let next = view::read_u64(engine, core, node.0.add(OFF_NEXT));
        view::write_u64(engine, core, right.0.add(OFF_NEXT), next);
        view::write_u64(engine, core, node.0.add(OFF_NEXT), right.0.raw());
        let sep = self.key(engine, core, &right, 0);
        (sep, right)
    }

    fn insert_into_parents(
        &self,
        engine: &mut dyn TxnEngine,
        core: CoreId,
        mut path: Path,
        left: NodeRef,
        sep: u64,
        right: NodeRef,
    ) {
        let mut left = left;
        let mut sep = sep;
        let mut right = right;
        loop {
            match path.pop() {
                None => {
                    // New root.
                    let root = self.new_node(engine, core, INTERNAL);
                    self.set_nkeys(engine, core, &root, 1);
                    self.set_key(engine, core, &root, 0, sep);
                    self.set_child(engine, core, &root, 0, &left);
                    self.set_child(engine, core, &root, 1, &right);
                    view::write_u64(engine, core, self.root_cell, root.0.raw());
                    return;
                }
                Some((parent, idx)) => {
                    let n = self.nkeys(engine, core, &parent);
                    if n < MAX_KEYS {
                        // Shift keys/children right of idx.
                        let mut i = n;
                        while i > idx {
                            let k = self.key(engine, core, &parent, i - 1);
                            self.set_key(engine, core, &parent, i, k);
                            let c = self.child(engine, core, &parent, i);
                            self.set_child(engine, core, &parent, i + 1, &c);
                            i -= 1;
                        }
                        self.set_key(engine, core, &parent, idx, sep);
                        self.set_child(engine, core, &parent, idx + 1, &right);
                        self.set_nkeys(engine, core, &parent, n + 1);
                        return;
                    }
                    // Split the internal node.
                    let (psep, pright) = self.split_internal(engine, core, &parent);
                    // Insert (sep, right) into the correct half.
                    let target = if sep < psep { &parent } else { &pright };
                    let tn = self.nkeys(engine, core, target);
                    let mut pos = tn;
                    for i in 0..tn {
                        if sep < self.key(engine, core, target, i) {
                            pos = i;
                            break;
                        }
                    }
                    let mut i = tn;
                    while i > pos {
                        let k = self.key(engine, core, target, i - 1);
                        self.set_key(engine, core, target, i, k);
                        let c = self.child(engine, core, target, i);
                        self.set_child(engine, core, target, i + 1, &c);
                        i -= 1;
                    }
                    self.set_key(engine, core, target, pos, sep);
                    self.set_child(engine, core, target, pos + 1, &right);
                    self.set_nkeys(engine, core, target, tn + 1);

                    left = parent;
                    sep = psep;
                    right = pright;
                }
            }
        }
    }

    /// Splits a full internal node; the median key moves up.
    fn split_internal(
        &self,
        engine: &mut dyn TxnEngine,
        core: CoreId,
        node: &NodeRef,
    ) -> (u64, NodeRef) {
        let right = self.new_node(engine, core, INTERNAL);
        let n = self.nkeys(engine, core, node);
        let mid = n / 2;
        let sep = self.key(engine, core, node, mid);
        for i in mid + 1..n {
            let k = self.key(engine, core, node, i);
            self.set_key(engine, core, &right, i - mid - 1, k);
        }
        for i in mid + 1..=n {
            let c = self.child(engine, core, node, i);
            self.set_child(engine, core, &right, i - mid - 1, &c);
        }
        self.set_nkeys(engine, core, &right, n - mid - 1);
        self.set_nkeys(engine, core, node, mid);
        (sep, right)
    }

    /// Removes a key from its leaf (no rebalancing); returns whether it
    /// was present.
    pub fn remove(&self, engine: &mut dyn TxnEngine, core: CoreId, key: u64) -> bool {
        let mut node = self.root(engine, core);
        loop {
            let n = self.nkeys(engine, core, &node);
            if self.kind(engine, core, &node) == LEAF {
                for i in 0..n {
                    if self.key(engine, core, &node, i) == key {
                        let mut j = i;
                        while j + 1 < n {
                            let k = self.key(engine, core, &node, j + 1);
                            let v = self.value(engine, core, &node, j + 1);
                            self.set_key(engine, core, &node, j, k);
                            self.set_value(engine, core, &node, j, v);
                            j += 1;
                        }
                        self.set_nkeys(engine, core, &node, n - 1);
                        return true;
                    }
                }
                return false;
            }
            let mut idx = n;
            for i in 0..n {
                if key < self.key(engine, core, &node, i) {
                    idx = i;
                    break;
                }
            }
            node = self.child(engine, core, &node, idx);
        }
    }

    /// In-order key scan via the leaf chain (verification helper).
    pub fn keys(&self, engine: &mut dyn TxnEngine, core: CoreId) -> Vec<u64> {
        // Find the leftmost leaf.
        let mut node = self.root(engine, core);
        while self.kind(engine, core, &node) == INTERNAL {
            node = self.child(engine, core, &node, 0);
        }
        let mut out = Vec::new();
        loop {
            let n = self.nkeys(engine, core, &node);
            for i in 0..n {
                out.push(self.key(engine, core, &node, i));
            }
            let next = view::read_u64(engine, core, node.0.add(OFF_NEXT));
            if next == 0 {
                return out;
            }
            node = NodeRef(VirtAddr::new(next));
        }
    }
}

/// The BTree microbenchmark: search, then delete-if-found /
/// insert-if-absent.
#[derive(Debug, Clone)]
pub struct BTreeWorkload {
    dist: KeyDist,
    initial: u64,
    tree: Option<BTree>,
}

impl BTreeWorkload {
    /// A workload over `dist.n()` keys with `initial` pre-loaded pairs.
    pub fn new(dist: KeyDist, initial: u64) -> Self {
        Self {
            dist,
            initial,
            tree: None,
        }
    }

    /// The underlying tree (after setup).
    pub fn tree(&self) -> &BTree {
        self.tree.as_ref().expect("setup ran")
    }
}

impl Workload for BTreeWorkload {
    fn name(&self) -> &'static str {
        "BTree"
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn reset(&mut self) {
        self.tree = None;
    }

    fn setup(&mut self, engine: &mut dyn TxnEngine, core: CoreId) {
        engine.begin(core);
        let heap = PersistentHeap::create(engine, core);
        let tree = BTree::create(engine, core, heap);
        engine.commit(core);
        let n = self.dist.n();
        let step = (n / self.initial.max(1)).max(1);
        let mut key = 0;
        let mut inserted = 0;
        while inserted < self.initial && key < n {
            engine.begin(core);
            for _ in 0..16 {
                if inserted >= self.initial || key >= n {
                    break;
                }
                tree.insert(engine, core, key, key * 10);
                key += step;
                inserted += 1;
            }
            engine.commit(core);
        }
        self.tree = Some(tree);
    }

    fn run_txn(&mut self, engine: &mut dyn TxnEngine, core: CoreId, rng: &mut SmallRng) {
        let key = self.dist.sample(rng);
        let tree = self.tree.as_ref().expect("setup ran");
        if tree.get(engine, core, key).is_some() {
            tree.remove(engine, core, key);
        } else {
            tree.insert(engine, core, key, key ^ 0xabcd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use ssp_core::engine::Ssp;
    use ssp_core::SspConfig;
    use ssp_simulator::config::MachineConfig;
    use std::collections::BTreeMap;

    const C0: CoreId = CoreId::new(0);

    fn fresh() -> (Ssp, BTree) {
        let mut e = Ssp::new(MachineConfig::default(), SspConfig::default());
        e.begin(C0);
        let heap = PersistentHeap::create(&mut e, C0);
        let t = BTree::create(&mut e, C0, heap);
        e.commit(C0);
        (e, t)
    }

    #[test]
    fn insert_get_basic() {
        let (mut e, t) = fresh();
        e.begin(C0);
        t.insert(&mut e, C0, 10, 100);
        t.insert(&mut e, C0, 5, 50);
        t.insert(&mut e, C0, 20, 200);
        e.commit(C0);
        assert_eq!(t.get(&mut e, C0, 10), Some(100));
        assert_eq!(t.get(&mut e, C0, 5), Some(50));
        assert_eq!(t.get(&mut e, C0, 20), Some(200));
        assert_eq!(t.get(&mut e, C0, 15), None);
    }

    #[test]
    fn splits_keep_order() {
        let (mut e, t) = fresh();
        // Enough to force multiple leaf and internal splits.
        for k in 0..200u64 {
            e.begin(C0);
            t.insert(&mut e, C0, k * 7 % 200, k);
            e.commit(C0);
        }
        let keys = t.keys(&mut e, C0);
        let mut expect: Vec<u64> = (0..200).map(|k| k * 7 % 200).collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(keys, expect);
    }

    #[test]
    fn overwrite_existing_key() {
        let (mut e, t) = fresh();
        e.begin(C0);
        t.insert(&mut e, C0, 1, 1);
        t.insert(&mut e, C0, 1, 2);
        e.commit(C0);
        assert_eq!(t.get(&mut e, C0, 1), Some(2));
        assert_eq!(t.keys(&mut e, C0), vec![1]);
    }

    #[test]
    fn remove_from_leaves() {
        let (mut e, t) = fresh();
        e.begin(C0);
        for k in 0..30 {
            t.insert(&mut e, C0, k, k);
        }
        e.commit(C0);
        e.begin(C0);
        assert!(t.remove(&mut e, C0, 7));
        assert!(!t.remove(&mut e, C0, 999));
        e.commit(C0);
        assert_eq!(t.get(&mut e, C0, 7), None);
        assert_eq!(t.keys(&mut e, C0).len(), 29);
    }

    #[test]
    fn matches_reference_model_under_random_ops() {
        let (mut e, t) = fresh();
        let mut model = BTreeMap::new();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..600 {
            let key = rng.gen_range(0..300u64);
            e.begin(C0);
            if model.remove(&key).is_some() {
                assert!(t.remove(&mut e, C0, key));
            } else {
                t.insert(&mut e, C0, key, key + 7);
                model.insert(key, key + 7);
            }
            e.commit(C0);
        }
        let keys = t.keys(&mut e, C0);
        let expect: Vec<u64> = model.keys().copied().collect();
        assert_eq!(keys, expect);
        for (&k, &v) in &model {
            assert_eq!(t.get(&mut e, C0, k), Some(v));
        }
    }

    #[test]
    fn crash_mid_split_rolls_back() {
        let (mut e, t) = fresh();
        // Fill one leaf exactly.
        e.begin(C0);
        for k in 0..MAX_KEYS as u64 {
            t.insert(&mut e, C0, k, k);
        }
        e.commit(C0);
        // The next insert splits; crash before commit.
        e.begin(C0);
        t.insert(&mut e, C0, 100, 100);
        e.crash_and_recover();
        assert_eq!(t.get(&mut e, C0, 100), None);
        let keys = t.keys(&mut e, C0);
        assert_eq!(keys, (0..MAX_KEYS as u64).collect::<Vec<_>>());
        // And the tree still works after recovery.
        e.begin(C0);
        t.insert(&mut e, C0, 100, 100);
        e.commit(C0);
        assert_eq!(t.get(&mut e, C0, 100), Some(100));
    }

    #[test]
    fn workload_runs_and_commits() {
        let mut e = Ssp::new(MachineConfig::default(), SspConfig::default());
        let mut w = BTreeWorkload::new(KeyDist::uniform(500), 100);
        w.setup(&mut e, C0);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            e.begin(C0);
            w.run_txn(&mut e, C0, &mut rng);
            e.commit(C0);
        }
        assert!(e.txn_stats().committed > 100);
    }
}
