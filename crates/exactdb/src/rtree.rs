//! R-tree spatial index (quadratic-split R-tree) — the third index family
//! §IV alludes to ("modified R-tree and its variations").
//!
//! A classic dynamic R-tree over the window: leaf entries are slot ids
//! into the shared [`ObjectStore`], internal entries are child bounding
//! rectangles. Inserts follow the least-enlargement path and split
//! overflowing nodes with Guttman's quadratic seeds; deletes locate the
//! slot via a dense `slot → leaf` locator and condense upward. Exact
//! query answering with MBR pruning.

use crate::store::{ObjectStore, SlotId};
use geostream::{Persist, PersistError, PersistReader, PersistWriter, Point, RcDvq, Rect};

type NodeId = u32;

/// Locator sentinel: slot not present in the tree.
const NOWHERE: NodeId = NodeId::MAX;

/// Maximum entries per node before splitting.
const MAX_ENTRIES: usize = 16;
/// Minimum entries after a split (Guttman's `m`).
const MIN_ENTRIES: usize = 6;

#[derive(Debug, Clone)]
struct Node {
    mbr: Rect,
    parent: Option<NodeId>,
    kind: NodeKind,
}

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf(Vec<SlotId>),
    Internal(Vec<NodeId>),
}

/// A dynamic R-tree over window objects.
#[derive(Debug, Clone)]
pub struct RTreeIndex {
    nodes: Vec<Node>,
    root: NodeId,
    locator: Vec<NodeId>,
    len: usize,
}

/// The degenerate rectangle of a point.
fn point_rect(p: &Point) -> Rect {
    Rect::new(p.x, p.y, p.x, p.y)
}

/// The smallest rectangle containing both.
fn join(a: &Rect, b: &Rect) -> Rect {
    Rect::new(
        a.min_x.min(b.min_x),
        a.min_y.min(b.min_y),
        a.max_x.max(b.max_x),
        a.max_y.max(b.max_y),
    )
}

/// Area growth of `mbr` if it had to absorb `add`.
fn enlargement(mbr: &Rect, add: &Rect) -> f64 {
    join(mbr, add).area() - mbr.area()
}

impl Default for RTreeIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl RTreeIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        RTreeIndex {
            nodes: vec![Node {
                mbr: Rect::new(0.0, 0.0, 0.0, 0.0),
                parent: None,
                kind: NodeKind::Leaf(Vec::new()),
            }],
            root: 0,
            locator: Vec::new(),
            len: 0,
        }
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (leaf = 1).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut id = self.root;
        loop {
            match &self.nodes[id as usize].kind {
                NodeKind::Leaf(_) => return h,
                NodeKind::Internal(children) => {
                    id = children[0];
                    h += 1;
                }
            }
        }
    }

    /// Chooses the leaf for `rect` by least enlargement (ties by area).
    fn choose_leaf(&self, rect: &Rect) -> NodeId {
        let mut id = self.root;
        loop {
            match &self.nodes[id as usize].kind {
                NodeKind::Leaf(_) => return id,
                NodeKind::Internal(children) => {
                    id = *children
                        .iter()
                        .min_by(|&&a, &&b| {
                            let na = &self.nodes[a as usize];
                            let nb = &self.nodes[b as usize];
                            enlargement(&na.mbr, rect)
                                .partial_cmp(&enlargement(&nb.mbr, rect))
                                // LINT-ALLOW(no-panic): MBR areas are products of finite extents, so partial_cmp succeeds
                                .expect("finite areas")
                                .then(
                                    na.mbr
                                        .area()
                                        .partial_cmp(&nb.mbr.area())
                                        // LINT-ALLOW(no-panic): MBR areas are products of finite extents, so partial_cmp succeeds
                                        .expect("finite areas"),
                                )
                        })
                        // LINT-ALLOW(no-panic): internal nodes always hold at least one child entry
                        .expect("internal nodes are non-empty");
                }
            }
        }
    }

    fn set_locator(&mut self, slot: SlotId, node: NodeId) {
        if slot as usize >= self.locator.len() {
            self.locator.resize(slot as usize + 1, NOWHERE);
        }
        self.locator[slot as usize] = node;
    }

    /// Indexes a live store slot. The slot must not already be present
    /// (the executor removes first on oid replacement).
    pub fn insert(&mut self, slot: SlotId, store: &ObjectStore) {
        let rect = point_rect(store.loc(slot));
        let leaf = self.choose_leaf(&rect);
        if let NodeKind::Leaf(entries) = &mut self.nodes[leaf as usize].kind {
            entries.push(slot);
        } else {
            unreachable!("choose_leaf returns a leaf");
        }
        self.set_locator(slot, leaf);
        self.len += 1;
        if self.entry_count(leaf) == 1 {
            self.nodes[leaf as usize].mbr = rect;
        }
        self.adjust_mbr_upward(leaf, store);
        if self.entry_count(leaf) > MAX_ENTRIES {
            self.split(leaf, store);
        }
    }

    fn entry_count(&self, id: NodeId) -> usize {
        match &self.nodes[id as usize].kind {
            NodeKind::Leaf(entries) => entries.len(),
            NodeKind::Internal(children) => children.len(),
        }
    }

    fn recompute_mbr(&mut self, id: NodeId, store: &ObjectStore) {
        let mbr = match &self.nodes[id as usize].kind {
            NodeKind::Leaf(entries) => entries
                .iter()
                .map(|&s| point_rect(store.loc(s)))
                .reduce(|a, b| join(&a, &b)),
            NodeKind::Internal(children) => children
                .iter()
                .map(|&c| self.nodes[c as usize].mbr)
                .reduce(|a, b| join(&a, &b)),
        };
        if let Some(mbr) = mbr {
            self.nodes[id as usize].mbr = mbr;
        }
    }

    fn adjust_mbr_upward(&mut self, mut id: NodeId, store: &ObjectStore) {
        loop {
            self.recompute_mbr(id, store);
            match self.nodes[id as usize].parent {
                Some(p) => id = p,
                None => break,
            }
        }
    }

    /// Quadratic split of an overflowing node.
    fn split(&mut self, id: NodeId, store: &ObjectStore) {
        // Collect the entry MBRs for seed picking.
        let rects: Vec<Rect> = match &self.nodes[id as usize].kind {
            NodeKind::Leaf(entries) => entries.iter().map(|&s| point_rect(store.loc(s))).collect(),
            NodeKind::Internal(children) => children
                .iter()
                .map(|&c| self.nodes[c as usize].mbr)
                .collect(),
        };
        // Guttman quadratic seeds: the pair wasting the most area.
        let (mut s1, mut s2, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
        for (i, ri) in rects.iter().enumerate() {
            for (j, rj) in rects.iter().enumerate().skip(i + 1) {
                let waste = join(ri, rj).area() - ri.area() - rj.area();
                if waste > worst {
                    worst = waste;
                    s1 = i;
                    s2 = j;
                }
            }
        }
        // Partition indices between the two groups by least enlargement,
        // honoring the minimum fill.
        let n = rects.len();
        let mut group1 = vec![s1];
        let mut group2 = vec![s2];
        let mut mbr1 = rects[s1];
        let mut mbr2 = rects[s2];
        for (i, rect) in rects.iter().enumerate() {
            if i == s1 || i == s2 {
                continue;
            }
            let remaining = n - i - 1;
            if group1.len() + remaining < MIN_ENTRIES {
                group1.push(i);
                mbr1 = join(&mbr1, rect);
                continue;
            }
            if group2.len() + remaining < MIN_ENTRIES {
                group2.push(i);
                mbr2 = join(&mbr2, rect);
                continue;
            }
            if enlargement(&mbr1, rect) <= enlargement(&mbr2, rect) {
                group1.push(i);
                mbr1 = join(&mbr1, rect);
            } else {
                group2.push(i);
                mbr2 = join(&mbr2, rect);
            }
        }
        // Build the sibling node holding group2.
        let sibling = self.nodes.len() as NodeId;
        let parent = self.nodes[id as usize].parent;
        let sibling_kind = match &mut self.nodes[id as usize].kind {
            NodeKind::Leaf(entries) => {
                let mut kept = Vec::with_capacity(group1.len());
                let mut moved = Vec::with_capacity(group2.len());
                let old = std::mem::take(entries);
                for (i, slot) in old.into_iter().enumerate() {
                    if group2.contains(&i) {
                        moved.push(slot);
                    } else {
                        kept.push(slot);
                    }
                }
                *entries = kept;
                NodeKind::Leaf(moved)
            }
            NodeKind::Internal(children) => {
                let mut kept = Vec::with_capacity(group1.len());
                let mut moved = Vec::with_capacity(group2.len());
                let old = std::mem::take(children);
                for (i, child) in old.into_iter().enumerate() {
                    if group2.contains(&i) {
                        moved.push(child);
                    } else {
                        kept.push(child);
                    }
                }
                *children = kept;
                NodeKind::Internal(moved)
            }
        };
        self.nodes.push(Node {
            mbr: mbr2,
            parent,
            kind: sibling_kind,
        });
        self.nodes[id as usize].mbr = mbr1;
        // Fix locators / child parents for moved entries.
        match &self.nodes[sibling as usize].kind {
            NodeKind::Leaf(entries) => {
                let moved = entries.clone();
                for slot in moved {
                    self.locator[slot as usize] = sibling;
                }
            }
            NodeKind::Internal(children) => {
                let kids = children.clone();
                for c in kids {
                    self.nodes[c as usize].parent = Some(sibling);
                }
            }
        }
        match parent {
            Some(p) => {
                if let NodeKind::Internal(children) = &mut self.nodes[p as usize].kind {
                    children.push(sibling);
                } else {
                    unreachable!("parents are internal");
                }
                self.adjust_mbr_upward(p, store);
                if self.entry_count(p) > MAX_ENTRIES {
                    self.split(p, store);
                }
            }
            None => {
                // Split the root: grow the tree by one level.
                let new_root = self.nodes.len() as NodeId;
                self.nodes.push(Node {
                    mbr: join(&mbr1, &mbr2),
                    parent: None,
                    kind: NodeKind::Internal(vec![id, sibling]),
                });
                self.nodes[id as usize].parent = Some(new_root);
                self.nodes[sibling as usize].parent = Some(new_root);
                self.root = new_root;
            }
        }
    }

    /// Removes a slot. Returns whether anything was removed.
    ///
    /// Underfull leaves are tolerated (no re-insertion pass): for a
    /// windowed stream the constant churn keeps occupancy healthy, and
    /// query exactness never depends on fill factors.
    pub fn remove(&mut self, slot: SlotId, store: &ObjectStore) -> bool {
        let Some(&leaf) = self.locator.get(slot as usize) else {
            return false;
        };
        if leaf == NOWHERE {
            return false;
        }
        self.locator[slot as usize] = NOWHERE;
        if let NodeKind::Leaf(entries) = &mut self.nodes[leaf as usize].kind {
            if let Some(pos) = entries.iter().position(|&s| s == slot) {
                entries.swap_remove(pos);
                self.len -= 1;
                self.adjust_mbr_upward(leaf, store);
                return true;
            }
        }
        false
    }

    /// Exact count of indexed objects matching `query`.
    pub fn count(&self, query: &RcDvq, store: &ObjectStore) -> u64 {
        let mut total = 0u64;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if let Some(r) = query.range() {
                if !node.mbr.intersects(r) {
                    continue;
                }
            }
            match &node.kind {
                NodeKind::Leaf(entries) => {
                    total += entries.iter().filter(|&&s| store.matches(s, query)).count() as u64;
                }
                NodeKind::Internal(children) => stack.extend_from_slice(children),
            }
        }
        total
    }

    /// Candidate-set size of the spatial access path for `r`: the leaf
    /// population of every node whose MBR intersects the range (the
    /// planner's cost for this backend; traversal only, no object reads).
    pub fn candidate_count(&self, r: &Rect) -> u64 {
        let mut total = 0u64;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if !node.mbr.intersects(r) {
                continue;
            }
            match &node.kind {
                NodeKind::Leaf(entries) => total += entries.len() as u64,
                NodeKind::Internal(children) => stack.extend_from_slice(children),
            }
        }
        total
    }

    /// Clears the index.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node {
            mbr: Rect::new(0.0, 0.0, 0.0, 0.0),
            parent: None,
            kind: NodeKind::Leaf(Vec::new()),
        });
        self.root = 0;
        self.locator.clear();
        self.len = 0;
    }

    /// Rebuilds the `slot → leaf` locator and entry count from the node
    /// arena (restore-time inverse derivation).
    fn rebuild_locator(&mut self) -> Result<(), PersistError> {
        self.locator.clear();
        self.len = 0;
        for id in 0..self.nodes.len() as NodeId {
            let slots = match &self.nodes[id as usize].kind {
                NodeKind::Leaf(entries) => entries.clone(),
                NodeKind::Internal(_) => continue,
            };
            for slot in slots {
                if self
                    .locator
                    .get(slot as usize)
                    .is_some_and(|&l| l != NOWHERE)
                {
                    return Err(PersistError::Corrupt {
                        context: "RTreeIndex.locator",
                        detail: format!("slot {slot} stored under two leaves"),
                    });
                }
                self.set_locator(slot, id);
                self.len += 1;
            }
        }
        Ok(())
    }

    /// Structural invariant check (used by tests): every child's MBR is
    /// contained in its parent's, every leaf slot is inside its leaf MBR,
    /// and the locator is exact.
    #[doc(hidden)]
    pub fn check_invariants(&self, store: &ObjectStore) {
        let mut seen = 0usize;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            match &node.kind {
                NodeKind::Leaf(entries) => {
                    for &s in entries {
                        assert!(
                            node.mbr.contains(store.loc(s)),
                            "object outside its leaf MBR"
                        );
                        assert_eq!(self.locator[s as usize], id, "stale locator");
                        seen += 1;
                    }
                }
                NodeKind::Internal(children) => {
                    assert!(!children.is_empty(), "empty internal node");
                    for &c in children {
                        let child = &self.nodes[c as usize];
                        assert!(
                            node.mbr.contains_rect(&child.mbr),
                            "child MBR escapes parent"
                        );
                        assert_eq!(child.parent, Some(id), "broken parent link");
                        stack.push(c);
                    }
                }
            }
        }
        assert_eq!(seen, self.len, "length drifted from contents");
    }
}

impl Persist for NodeKind {
    fn persist(&self, w: &mut PersistWriter) {
        match self {
            NodeKind::Leaf(entries) => {
                w.put_u8(0);
                entries.persist(w);
            }
            NodeKind::Internal(children) => {
                w.put_u8(1);
                children.persist(w);
            }
        }
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        match r.take_u8("NodeKind.discriminant")? {
            0 => Ok(NodeKind::Leaf(Vec::<SlotId>::restore(r)?)),
            1 => Ok(NodeKind::Internal(Vec::<NodeId>::restore(r)?)),
            d => Err(PersistError::Corrupt {
                context: "NodeKind.discriminant",
                detail: format!("unknown node kind {d}"),
            }),
        }
    }
}

impl Persist for Node {
    fn persist(&self, w: &mut PersistWriter) {
        self.mbr.persist(w);
        self.parent.persist(w);
        self.kind.persist(w);
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        Ok(Node {
            mbr: Rect::restore(r)?,
            parent: Option::<NodeId>::restore(r)?,
            kind: NodeKind::restore(r)?,
        })
    }
}

/// Section tag for the R-tree index's snapshot frame.
const RTREE_TAG: u32 = 0x127e_c713;

impl Persist for RTreeIndex {
    fn persist(&self, w: &mut PersistWriter) {
        w.section(RTREE_TAG, |w| {
            w.put_u32(self.root);
            // The node arena carries the split/condense history verbatim
            // (leaf bucket order is load-bearing: swap_remove renumbers by
            // position); the slot locator is a pure inverse, rebuilt on
            // restore.
            self.nodes.persist(w);
        });
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let section = r.begin_section(RTREE_TAG, "RTreeIndex")?;
        let root = r.take_u32("RTreeIndex.root")?;
        let nodes = Vec::<Node>::restore(r)?;
        r.finish_section(section, "RTreeIndex")?;
        if nodes.is_empty() || root as usize >= nodes.len() {
            return Err(PersistError::Corrupt {
                context: "RTreeIndex.root",
                detail: format!("root {root} in arena of {}", nodes.len()),
            });
        }
        if nodes[root as usize].parent.is_some() {
            return Err(PersistError::Corrupt {
                context: "RTreeIndex.root",
                detail: "root node has a parent".into(),
            });
        }
        for (id, node) in nodes.iter().enumerate() {
            let NodeKind::Internal(children) = &node.kind else {
                continue;
            };
            if children.is_empty() {
                return Err(PersistError::Corrupt {
                    context: "RTreeIndex.children",
                    detail: format!("internal node {id} has no children"),
                });
            }
            for &c in children {
                let ok =
                    (c as usize) < nodes.len() && nodes[c as usize].parent == Some(id as NodeId);
                if !ok {
                    return Err(PersistError::Corrupt {
                        context: "RTreeIndex.children",
                        detail: format!("node {id} links child {c} with a broken back-pointer"),
                    });
                }
            }
        }
        let mut index = RTreeIndex {
            nodes,
            root,
            locator: Vec::new(),
            len: 0,
        };
        index.rebuild_locator()?;
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::{GeoTextObject, KeywordId, ObjectId, Timestamp};

    fn obj(id: u64, x: f64, y: f64, kws: &[u32]) -> GeoTextObject {
        GeoTextObject::new(
            ObjectId(id),
            Point::new(x, y),
            kws.iter().copied().map(KeywordId).collect(),
            Timestamp::ZERO,
        )
    }

    fn scattered(n: u64) -> Vec<GeoTextObject> {
        let mut s = 99u64;
        (0..n)
            .map(|i| {
                s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let x = (s >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let y = (s >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                obj(i, x, y, &[(i % 13) as u32])
            })
            .collect()
    }

    fn build(objects: &[GeoTextObject]) -> (ObjectStore, RTreeIndex, Vec<SlotId>) {
        let mut store = ObjectStore::new();
        let mut t = RTreeIndex::new();
        let slots = objects
            .iter()
            .map(|o| {
                let slot = store.insert(o.clone());
                t.insert(slot, &store);
                slot
            })
            .collect();
        (store, t, slots)
    }

    /// Store-side removal matching the executor's order: mark dead in the
    /// store first, then drop from the tree.
    fn remove(t: &mut RTreeIndex, store: &mut ObjectStore, id: u64) -> bool {
        let Some((slot, _)) = store.remove(ObjectId(id)) else {
            return false;
        };
        t.remove(slot, store)
    }

    #[test]
    fn exact_counts_match_brute_force() {
        let objects = scattered(800);
        let (store, t, _) = build(&objects);
        t.check_invariants(&store);
        assert!(t.height() > 1, "tree never grew");
        for q in [
            RcDvq::spatial(Rect::new(10.0, 10.0, 60.0, 40.0)),
            RcDvq::keyword(vec![KeywordId(5)]),
            RcDvq::hybrid(Rect::new(0.0, 0.0, 50.0, 100.0), vec![KeywordId(2)]),
        ] {
            let brute = objects.iter().filter(|o| q.matches(o)).count() as u64;
            assert_eq!(t.count(&q, &store), brute, "mismatch on {q:?}");
            if let Some(r) = q.range() {
                assert!(t.candidate_count(r) >= t.count(&RcDvq::spatial(*r), &store));
            }
        }
    }

    #[test]
    fn removal_keeps_exactness_and_invariants() {
        let objects = scattered(500);
        let (mut store, mut t, _) = build(&objects);
        for o in objects.iter().take(300) {
            assert!(remove(&mut t, &mut store, o.oid.0));
        }
        t.check_invariants(&store);
        assert_eq!(t.len(), 200);
        let q = RcDvq::spatial(Rect::new(0.0, 0.0, 100.0, 100.0));
        assert_eq!(t.count(&q, &store), 200);
        assert!(
            !remove(&mut t, &mut store, objects[0].oid.0),
            "double remove must fail"
        );
    }

    #[test]
    fn churn_preserves_invariants() {
        let objects = scattered(1_500);
        let mut store = ObjectStore::new();
        let mut t = RTreeIndex::new();
        for (i, o) in objects.iter().enumerate() {
            let slot = store.insert(o.clone());
            t.insert(slot, &store);
            if i >= 400 {
                assert!(remove(&mut t, &mut store, objects[i - 400].oid.0));
            }
        }
        t.check_invariants(&store);
        assert_eq!(t.len(), 400);
    }

    #[test]
    fn disjoint_query_is_zero() {
        let (store, t, _) = build(&scattered(100));
        assert_eq!(
            t.count(
                &RcDvq::spatial(Rect::new(500.0, 500.0, 600.0, 600.0)),
                &store
            ),
            0
        );
        assert_eq!(t.candidate_count(&Rect::new(500.0, 500.0, 600.0, 600.0)), 0);
    }

    #[test]
    fn clear_resets() {
        let (store, mut t, _) = build(&scattered(100));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.check_invariants(&store);
    }

    #[test]
    fn persist_round_trip_is_bit_identical_under_churn() {
        let objects = scattered(800);
        let (mut store, mut t, _) = build(&objects);
        for o in objects.iter().take(300) {
            assert!(remove(&mut t, &mut store, o.oid.0));
        }
        let mut w = PersistWriter::new();
        t.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = PersistReader::new(&bytes);
        let mut restored = RTreeIndex::restore(&mut r).expect("restore");
        assert!(r.is_exhausted());
        restored.check_invariants(&store);
        assert_eq!(restored.len(), t.len());
        assert_eq!(restored.root, t.root);
        assert_eq!(restored.nodes.len(), t.nodes.len());
        // Continued churn must evolve both trees identically.
        let more = scattered(1_000);
        for o in more.iter().skip(800) {
            let slot = store.insert(o.clone());
            t.insert(slot, &store);
            restored.insert(slot, &store);
        }
        for o in objects.iter().skip(300).take(200) {
            let (slot, _) = store.remove(o.oid).expect("present");
            assert!(t.remove(slot, &store));
            assert!(restored.remove(slot, &store));
        }
        t.check_invariants(&store);
        restored.check_invariants(&store);
        assert_eq!(restored.nodes.len(), t.nodes.len());
        let q = RcDvq::hybrid(Rect::new(0.0, 0.0, 70.0, 70.0), vec![KeywordId(3)]);
        assert_eq!(restored.count(&q, &store), t.count(&q, &store));

        // Truncation surfaces as a typed error, never a panic.
        let mut short = PersistReader::new(&bytes[..bytes.len() / 2]);
        assert!(RTreeIndex::restore(&mut short).is_err());
    }

    #[test]
    fn clustered_data_builds_tight_mbrs() {
        // Two far-apart clusters: the root's children should separate them
        // (small total child area vs. the root MBR).
        let mut store = ObjectStore::new();
        let mut t = RTreeIndex::new();
        let mut id = 0u64;
        for i in 0..60 {
            for (x, y) in [
                (1.0 + (i % 8) as f64 * 0.1, 1.0),
                (90.0 + (i % 8) as f64 * 0.1, 90.0),
            ] {
                let slot = store.insert(obj(id, x, y, &[]));
                t.insert(slot, &store);
                id += 1;
            }
        }
        t.check_invariants(&store);
        // Query between the clusters touches nothing.
        assert_eq!(
            t.count(&RcDvq::spatial(Rect::new(30.0, 30.0, 60.0, 60.0)), &store),
            0
        );
    }
}
