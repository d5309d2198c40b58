//! Adaptive space-partition (ASP) tree — a compressed four-ary tree with
//! count summaries (paper §IV, after Hershberger et al.).
//!
//! This is a true *streaming synopsis*: the tree stores only per-node
//! counters, never the objects themselves, so memory is `O(nodes)`
//! regardless of the window size. Every arriving point is counted at the
//! **deepest node existing at arrival time** that contains it; when a
//! leaf's own count crosses the split threshold, four empty children are
//! created and only *future* arrivals descend — the historical count stays
//! at the parent, spread over its (coarser) rectangle by the uniformity
//! assumption. That residual coarseness is the structure's intrinsic
//! estimation error, exactly the bounded-error behaviour of adaptive
//! spatial partitioning in the literature.
//!
//! Window retraction pairs with FIFO eviction: the oldest points are the
//! ones counted at the shallowest nodes, so [`AspTree::remove`] decrements
//! the **shallowest** node on the containment path that still holds mass.
//!
//! Nodes live in one arena and are named by their [`NodeId`], which never
//! changes (nodes are only ever appended). The tree carries no per-node
//! payload: an owner that keeps statistics beside it (AASP's keyword-bucket
//! table) indexes them by `NodeId`, learns the node an insert or removal
//! touched from its return value, receives each node's id in
//! [`AspTree::estimate_nodes_with`]'s weight callback, and interleaves its
//! per-node bytes through [`AspTree::persist_with`] /
//! [`AspTree::restore_with`].

use geostream::{PersistError, PersistReader, PersistWriter, Point, Rect};

/// Index of a node in the tree arena.
pub type NodeId = u32;

/// One node of the ASP tree.
#[derive(Debug, Clone)]
pub struct AspNode {
    /// Spatial extent of the node.
    pub rect: Rect,
    /// Points counted *at this node* (arrived while it was the deepest
    /// containing node, minus retractions).
    pub own: f64,
    /// Points counted in this node's entire subtree (own + descendants).
    pub subtree: f64,
    /// Child node ids in `[SW, SE, NW, NE]` order, if split.
    pub children: Option<[NodeId; 4]>,
    /// Depth of the node (root = 0).
    pub depth: u16,
}

impl AspNode {
    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// A compressed adaptive quadtree of count summaries.
#[derive(Debug, Clone)]
pub struct AspTree {
    nodes: Vec<AspNode>,
    split_threshold: f64,
    max_depth: u16,
    population: u64,
}

impl AspTree {
    /// Creates a tree over `domain` whose nodes split past
    /// `split_threshold` own points, never deeper than `max_depth`.
    pub fn new(domain: Rect, split_threshold: usize, max_depth: u16) -> Self {
        assert!(split_threshold >= 1, "split threshold must be positive");
        AspTree {
            nodes: vec![AspNode {
                rect: domain,
                own: 0.0,
                subtree: 0.0,
                children: None,
                depth: 0,
            }],
            split_threshold: split_threshold as f64,
            max_depth,
            population: 0,
        }
    }

    /// The domain rectangle (root extent).
    pub fn domain(&self) -> Rect {
        self.nodes[0].rect
    }

    /// Total points currently represented.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &AspNode {
        &self.nodes[id as usize]
    }

    /// The node arena, in `NodeId` order.
    pub fn nodes(&self) -> &[AspNode] {
        &self.nodes
    }

    /// The child of `id` on `p`'s containment path, if `id` is split.
    fn child_towards(&self, id: NodeId, p: &Point) -> Option<NodeId> {
        let node = &self.nodes[id as usize];
        node.children.map(|kids| kids[node.rect.quadrant_of(p)])
    }

    /// Counts `p` at the deepest existing node containing it, splitting
    /// that node if it crossed the threshold (children start empty; the
    /// historical count stays put). Returns the node the point was counted
    /// at, so callers can update their statistics for it.
    pub fn insert(&mut self, p: &Point) -> NodeId {
        self.population += 1;
        let mut id: NodeId = 0;
        loop {
            self.nodes[id as usize].subtree += 1.0;
            match self.child_towards(id, p) {
                Some(child) => id = child,
                None => break,
            }
        }
        self.nodes[id as usize].own += 1.0;
        let node = &self.nodes[id as usize];
        if node.own > self.split_threshold && node.depth < self.max_depth {
            self.split(id);
        }
        id
    }

    /// Retracts a point at `p`: decrements the **shallowest** node on the
    /// containment path with remaining own mass (FIFO eviction retires the
    /// oldest counts, which live highest in the tree). Returns the node
    /// decremented, or `None` if the path held no mass.
    ///
    /// Two walks down the same path and no buffer: the first finds the
    /// victim, the second decrements `subtree` from the root down to it.
    pub fn remove(&mut self, p: &Point) -> Option<NodeId> {
        let mut victim: NodeId = 0;
        loop {
            if self.nodes[victim as usize].own > 0.0 {
                break;
            }
            victim = self.child_towards(victim, p)?;
        }
        self.population = self.population.saturating_sub(1);
        self.nodes[victim as usize].own -= 1.0;
        let mut id: NodeId = 0;
        loop {
            let node = &mut self.nodes[id as usize];
            node.subtree = (node.subtree - 1.0).max(0.0);
            if id == victim {
                break;
            }
            match self.child_towards(id, p) {
                Some(child) => id = child,
                None => break,
            }
        }
        Some(victim)
    }

    fn split(&mut self, id: NodeId) {
        debug_assert!(self.nodes[id as usize].children.is_none());
        let quadrants = self.nodes[id as usize].rect.quadrants();
        let depth = self.nodes[id as usize].depth + 1;
        let base = self.nodes.len() as NodeId;
        for rect in quadrants {
            self.nodes.push(AspNode {
                rect,
                own: 0.0,
                subtree: 0.0,
                children: None,
                depth,
            });
        }
        self.nodes[id as usize].children = Some([base, base + 1, base + 2, base + 3]);
    }

    /// Estimated number of points inside `range`, applying the per-node
    /// uniformity assumption to every counted node.
    pub fn estimate_range(&self, range: &Rect) -> f64 {
        self.estimate_nodes_with(range, |_, node| node.own)
    }

    /// Generalized estimate over **all counted nodes intersecting
    /// `range`**, in depth-first order: `weight(id, node)` returns the
    /// share of the node's own mass matching the non-spatial predicates
    /// (clamped to `own`); spatial coverage scaling is applied here.
    ///
    /// There is deliberately no aggregate shortcut for fully covered
    /// subtrees: node statistics (keyword synopses) are per node, so every
    /// intersecting node is consulted — the source of AASP's latency
    /// profile. The visiting order is part of the answer: coverage makes
    /// the terms fractional, so a different order could round differently.
    pub fn estimate_nodes_with(
        &self,
        range: &Rect,
        weight: impl Fn(NodeId, &AspNode) -> f64,
    ) -> f64 {
        let mut total = 0.0;
        let mut stack: Vec<NodeId> = vec![0];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if node.subtree <= 0.0 || !node.rect.intersects(range) {
                continue;
            }
            let coverage = node.rect.coverage_by(range);
            if node.own > 0.0 && coverage > 0.0 {
                total += weight(id, node).clamp(0.0, node.own) * coverage;
            }
            if let Some(children) = node.children {
                stack.extend_from_slice(&children);
            }
        }
        total
    }

    /// Full O(nodes) invariant walk (the `debug-invariants` auditor):
    ///
    /// * **partition** — each split node's four children carry exactly its
    ///   rectangle's quadrants, in `[SW, SE, NW, NE]` order (disjoint and
    ///   covering by construction of [`Rect::quadrants`]), one level
    ///   deeper, within the depth cap.
    /// * **subtree-identity** — every node's `subtree` equals its `own`
    ///   plus its children's `subtree`s.
    /// * **non-negative** — no counter is negative or non-finite.
    /// * **population** — the scalar population equals the root's subtree
    ///   mass.
    /// * **reachability** — every arena node is reachable from the root
    ///   exactly once (no orphaned or shared children).
    #[cfg(feature = "debug-invariants")]
    pub fn audit(&self) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        const S: &str = "AspTree";
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = vec![0];
        while let Some(id) = stack.pop() {
            let i = id as usize;
            ensure(!seen[i], S, "reachability", || {
                format!("node {id} reachable twice")
            })?;
            seen[i] = true;
            let node = &self.nodes[i];
            ensure(
                node.own >= 0.0 && node.own.is_finite() && node.subtree.is_finite(),
                S,
                "non-negative",
                || format!("node {id} own {} subtree {}", node.own, node.subtree),
            )?;
            match node.children {
                None => {
                    ensure(
                        (node.subtree - node.own).abs() < 1e-6,
                        S,
                        "subtree-identity",
                        || format!("leaf {id} subtree {} != own {}", node.subtree, node.own),
                    )?;
                }
                Some(children) => {
                    let quadrants = node.rect.quadrants();
                    let mut child_sum = 0.0;
                    for (q, &c) in children.iter().enumerate() {
                        let child = &self.nodes[c as usize];
                        ensure(child.rect == quadrants[q], S, "partition", || {
                            format!(
                                "node {id} child {q} covers {:?}, quadrant is {:?}",
                                child.rect, quadrants[q]
                            )
                        })?;
                        ensure(
                            child.depth == node.depth + 1 && child.depth <= self.max_depth,
                            S,
                            "partition",
                            || format!("node {id} child {c} at depth {}", child.depth),
                        )?;
                        child_sum += child.subtree;
                    }
                    ensure(
                        (node.subtree - (node.own + child_sum)).abs() < 1e-6,
                        S,
                        "subtree-identity",
                        || {
                            format!(
                                "node {id} subtree {} != own {} + children {child_sum}",
                                node.subtree, node.own
                            )
                        },
                    )?;
                    stack.extend_from_slice(&children);
                }
            }
        }
        ensure(seen.iter().all(|&s| s), S, "reachability", || {
            let orphan = seen.iter().position(|&s| !s).unwrap_or(0);
            format!("node {orphan} unreachable from the root")
        })?;
        let root = self.nodes[0].subtree;
        ensure(
            (root - self.population as f64).abs() < 1e-6,
            S,
            "population",
            || format!("population {} != root subtree {root}", self.population),
        )?;
        Ok(())
    }

    /// Approximate heap bytes of the node arena.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<AspNode>()
    }

    /// Writes the population and each node's counters and split, calling
    /// `node_tail(id, w)` right after each node's own fields so an owner
    /// can interleave its per-node data. A split is written as its first
    /// child's id (a split appends its four children in a row); the split
    /// threshold, the depth cap and every node's rectangle and depth follow
    /// from the configuration and the splits, and are not written.
    pub fn persist_with(
        &self,
        w: &mut PersistWriter,
        mut node_tail: impl FnMut(NodeId, &mut PersistWriter),
    ) {
        w.put_u64(self.population);
        w.put_usize(self.nodes.len());
        for (id, node) in (0..).zip(&self.nodes) {
            w.put_f64(node.own);
            w.put_f64(node.subtree);
            match node.children {
                Some([first, ..]) => {
                    w.put_bool(true);
                    w.put_u32(first);
                }
                None => w.put_bool(false),
            }
            node_tail(id, w);
        }
    }

    /// Reads what [`AspTree::persist_with`] wrote into this tree, which
    /// must be freshly built ([`AspTree::new`]) under the configuration of
    /// the one that wrote it, handing the reader to `node_tail(id, r)`
    /// after each node's own fields. Rectangles and depths are rebuilt
    /// from the root down: a node's children must follow it in the arena
    /// and every node but the root must be exactly one node's child, or
    /// the input is corrupt.
    pub fn restore_with(
        &mut self,
        r: &mut PersistReader<'_>,
        mut node_tail: impl FnMut(NodeId, &mut PersistReader<'_>) -> Result<(), PersistError>,
    ) -> Result<(), PersistError> {
        let corrupt = |detail: String| PersistError::Corrupt {
            context: "AspTree.nodes",
            detail,
        };
        let root = self.nodes[0].clone();
        self.population = r.take_u64("AspTree.population")?;
        let len = r.take_len("AspTree.nodes")?;
        let len = NodeId::try_from(len)
            .map_err(|_| corrupt(format!("{len} nodes exceed the NodeId range")))?;
        if len == 0 {
            return Err(corrupt("tree has no root node".into()));
        }
        self.nodes.clear();
        for id in 0..len {
            let own = r.take_f64("AspNode.own")?;
            let subtree = r.take_f64("AspNode.subtree")?;
            let children = if r.take_bool("AspNode.has_children")? {
                let first = r.take_u32("AspNode.child")?;
                let last = first
                    .checked_add(3)
                    .ok_or_else(|| corrupt(format!("node {id} splits past the NodeId range")))?;
                Some([first, first + 1, first + 2, last])
            } else {
                None
            };
            self.nodes.push(AspNode {
                own,
                subtree,
                children,
                ..root
            });
            node_tail(id, r)?;
        }
        let mut placed = vec![false; self.nodes.len()];
        placed[0] = true;
        for id in 0..self.nodes.len() {
            let node = &self.nodes[id];
            let Some(children) = node.children else {
                continue;
            };
            let (quadrants, depth) = (node.rect.quadrants(), node.depth.saturating_add(1));
            for (child, rect) in children.into_iter().zip(quadrants) {
                let c = child as usize;
                if c <= id || c >= placed.len() || placed[c] {
                    return Err(corrupt(format!(
                        "node {id} links child {child} out of order"
                    )));
                }
                placed[c] = true;
                self.nodes[c].rect = rect;
                self.nodes[c].depth = depth;
            }
        }
        match placed.iter().position(|&p| !p) {
            Some(orphan) => Err(corrupt(format!("node {orphan} is no node's child"))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{check, f64_in, usize_in};

    const DOMAIN: Rect = Rect {
        min_x: 0.0,
        min_y: 0.0,
        max_x: 64.0,
        max_y: 64.0,
    };

    /// The eviction rule as first written: collect the whole containment
    /// path, then retire the first node on it with own mass. Kept as the
    /// reference [`AspTree::remove`] must match step for step.
    fn remove_collecting_path(t: &mut AspTree, p: &Point) -> Option<NodeId> {
        let mut path = Vec::with_capacity(t.max_depth as usize + 1);
        let mut id: NodeId = 0;
        loop {
            path.push(id);
            match t.nodes[id as usize].children {
                Some(children) => {
                    let q = t.nodes[id as usize].rect.quadrant_of(p);
                    id = children[q];
                }
                None => break,
            }
        }
        let victim = path
            .iter()
            .copied()
            .find(|&n| t.nodes[n as usize].own > 0.0)?;
        t.population = t.population.saturating_sub(1);
        t.nodes[victim as usize].own -= 1.0;
        for &n in &path {
            t.nodes[n as usize].subtree = (t.nodes[n as usize].subtree - 1.0).max(0.0);
            if n == victim {
                break;
            }
        }
        Some(victim)
    }

    /// An arena of counter-free nodes, each either a leaf (`None`) or a
    /// split naming its first child, as `persist_with` lays it out.
    fn arena_image(splits: &[Option<NodeId>]) -> Vec<u8> {
        let mut w = PersistWriter::new();
        w.put_u64(0);
        w.put_usize(splits.len());
        for split in splits {
            w.put_f64(0.0);
            w.put_f64(0.0);
            w.put_bool(split.is_some());
            if let Some(first) = split {
                w.put_u32(*first);
            }
        }
        w.into_bytes()
    }

    /// A split's children must follow it in the arena, and no node may be
    /// two splits' child. Two nodes that name each other's children form a
    /// cycle the root never reaches while every node is still some split's
    /// child exactly once, so only the ordering rule refuses it; two splits
    /// naming the same children leave no node orphaned, so only the
    /// once-only rule refuses that.
    #[test]
    fn restore_refuses_children_out_of_order_or_shared() {
        let restore = |splits: &[Option<NodeId>]| {
            let bytes = arena_image(splits);
            let mut tree = AspTree::new(DOMAIN, 4, 8);
            tree.restore_with(&mut PersistReader::new(&bytes), |_, _| Ok(()))
                .map(|()| tree)
        };
        // The root splits into 1..=4, node 1 into 5..=8, node 5 into 9..=12.
        let mut splits = vec![None; 13];
        (splits[0], splits[1], splits[5]) = (Some(1), Some(5), Some(9));
        let tree = restore(&splits).expect("a valid arena restores");
        assert_eq!(tree.node(9).rect, tree.node(5).rect.quadrants()[0]);
        assert_eq!(tree.node(9).depth, 3);
        let mut shared = splits.clone();
        // Node 2 also splitting into 5..=8.
        shared[2] = Some(5);
        // Node 1 a leaf, and node 9 splitting into 5..=8: a 5 ↔ 9 cycle.
        (splits[1], splits[9]) = (None, Some(5));
        for bad in [shared, splits] {
            match restore(&bad) {
                Err(PersistError::Corrupt { detail, .. }) => {
                    assert!(detail.contains("out of order"), "{detail}");
                }
                other => panic!("{bad:?} restored as {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn remove_matches_path_collecting_reference_under_churn() {
        check(
            "remove_matches_path_collecting_reference_under_churn",
            24,
            |rng| {
                let threshold = usize_in(rng, 1..6);
                let mut fast = AspTree::new(DOMAIN, threshold, 6);
                let mut reference = fast.clone();
                let mut live: Vec<Point> = Vec::new();
                let same = |a: &AspTree, b: &AspTree| {
                    assert_eq!(a.population, b.population);
                    assert_eq!(a.nodes.len(), b.nodes.len());
                    for (x, y) in a.nodes.iter().zip(&b.nodes) {
                        assert_eq!(x.own.to_bits(), y.own.to_bits());
                        assert_eq!(x.subtree.to_bits(), y.subtree.to_bits());
                    }
                };
                for _ in 0..600 {
                    let roll = usize_in(rng, 0..10);
                    if roll < 6 {
                        // Points clump in one corner so the tree splits deep.
                        let side = if roll < 3 { 8.0 } else { 64.0 };
                        let p = Point::new(f64_in(rng, 0.0..side), f64_in(rng, 0.0..side));
                        assert_eq!(fast.insert(&p), reference.insert(&p));
                        live.push(p);
                    } else {
                        // Live points (FIFO and random), and points that were
                        // never counted: those retire foreign mass or find a
                        // path without any.
                        let p = match roll {
                            6 if !live.is_empty() => live.remove(0),
                            7 if !live.is_empty() => live.swap_remove(usize_in(rng, 0..live.len())),
                            _ => Point::new(f64_in(rng, 0.0..64.0), f64_in(rng, 0.0..64.0)),
                        };
                        assert_eq!(fast.remove(&p), remove_collecting_path(&mut reference, &p));
                    }
                    same(&fast, &reference);
                }
                assert!(fast.node_count() > 1, "churn never split");
                // Drain node by node (each removal aims at a node still
                // holding mass), then probe the empty tree: the no-mass
                // path runs in every case.
                while let Some(r) = fast.nodes.iter().find(|n| n.own > 0.0).map(|n| n.rect) {
                    let p = Point::new((r.min_x + r.max_x) / 2.0, (r.min_y + r.max_y) / 2.0);
                    let got = fast.remove(&p);
                    assert!(got.is_some());
                    assert_eq!(got, remove_collecting_path(&mut reference, &p));
                    same(&fast, &reference);
                }
                assert_eq!(fast.population(), 0);
                let p = Point::new(f64_in(rng, 0.0..64.0), f64_in(rng, 0.0..64.0));
                assert_eq!(fast.remove(&p), None);
                assert_eq!(remove_collecting_path(&mut reference, &p), None);
            },
        );
    }

    #[test]
    fn counts_without_split() {
        let mut t = AspTree::new(DOMAIN, 100, 16);
        for i in 0..10 {
            t.insert(&Point::new(i as f64, 1.0));
        }
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.population(), 10);
        assert!((t.estimate_range(&DOMAIN) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn splits_keep_total_mass() {
        let mut t = AspTree::new(DOMAIN, 4, 16);
        for _ in 0..20 {
            t.insert(&Point::new(1.0, 1.0));
        }
        assert!(t.node_count() > 1, "tree never split");
        // All mass counted exactly once across nodes.
        assert!((t.estimate_range(&DOMAIN) - 20.0).abs() < 1e-9);
        let own_total: f64 = t.nodes().iter().map(|n| n.own).sum();
        assert!((own_total - 20.0).abs() < 1e-9);
    }

    #[test]
    fn historical_counts_stay_at_coarse_nodes() {
        let mut t = AspTree::new(DOMAIN, 4, 16);
        for _ in 0..6 {
            t.insert(&Point::new(1.0, 1.0));
        }
        // Threshold 4: the 5th insert split the root; root keeps its 5,
        // the 6th lands in the SW child.
        assert!(t.node(0).own >= 5.0);
        assert!(!t.node(0).is_leaf());
    }

    #[test]
    fn adapts_to_dense_regions_with_bounded_smear() {
        let mut t = AspTree::new(DOMAIN, 8, 16);
        for i in 0..500 {
            t.insert(&Point::new(1.0 + (i % 10) as f64 * 0.01, 1.0));
        }
        for i in 0..10 {
            t.insert(&Point::new(50.0 + i as f64, 50.0));
        }
        // Dense corner: most mass is counted at deep nodes inside the
        // query; the per-level residue (≤ threshold per level) is the
        // documented smear.
        let dense = t.estimate_range(&Rect::new(0.0, 0.0, 2.0, 2.0));
        assert!(
            dense > 350.0 && dense <= 500.0,
            "dense estimate outside smear bounds: {dense}"
        );
        // Sparse quadrant: its own 10 points plus a quarter of the root
        // residue at most.
        let sparse = t.estimate_range(&Rect::new(32.0, 32.0, 64.0, 64.0));
        assert!(
            (10.0..16.0).contains(&sparse),
            "sparse estimate off: {sparse}"
        );
    }

    #[test]
    fn partial_coverage_scales() {
        let mut t = AspTree::new(DOMAIN, 1_000, 16);
        for _ in 0..100 {
            t.insert(&Point::new(32.0, 32.0));
        }
        let q = Rect::new(0.0, 0.0, 32.0, 32.0);
        assert!((t.estimate_range(&q) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn remove_retires_shallowest_mass_first() {
        let mut t = AspTree::new(DOMAIN, 4, 16);
        let p = Point::new(1.0, 1.0);
        for _ in 0..10 {
            t.insert(&p);
        }
        let root_own_before = t.node(0).own;
        assert!(root_own_before > 0.0);
        let victim = t.remove(&p).expect("mass exists");
        assert_eq!(victim, 0, "oldest (root) mass must retire first");
        for _ in 0..9 {
            assert!(t.remove(&p).is_some());
        }
        assert_eq!(t.population(), 0);
        assert!(t.estimate_range(&DOMAIN).abs() < 1e-9);
        assert!(t.remove(&p).is_none(), "double remove must no-op");
    }

    #[test]
    fn subtree_counts_stay_consistent() {
        let mut t = AspTree::new(DOMAIN, 3, 16);
        let pts: Vec<Point> = (0..200)
            .map(|i| Point::new((i * 13 % 64) as f64, (i * 29 % 64) as f64))
            .collect();
        for p in &pts {
            t.insert(p);
        }
        for p in pts.iter().take(100) {
            t.remove(p);
        }
        for id in 0..t.node_count() {
            let n = t.node(id as NodeId);
            if let Some(children) = n.children {
                let child_sum: f64 = children.iter().map(|&c| t.node(c).subtree).sum();
                assert!(
                    (n.subtree - (n.own + child_sum)).abs() < 1e-6,
                    "subtree invariant broken at node {id}"
                );
            } else {
                assert!((n.subtree - n.own).abs() < 1e-6);
            }
        }
        assert_eq!(t.population(), 100);
    }

    #[test]
    fn max_depth_caps_splitting() {
        let mut t = AspTree::new(DOMAIN, 2, 2);
        for _ in 0..1_000 {
            t.insert(&Point::new(1.0, 1.0));
        }
        let max_depth = t.nodes().iter().map(|n| n.depth).max();
        assert!(max_depth <= Some(2));
        assert!((t.estimate_range(&DOMAIN) - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_with_custom_weight() {
        let mut t = AspTree::new(DOMAIN, 1_000, 8);
        for _ in 0..100 {
            t.insert(&Point::new(32.0, 32.0));
        }
        let est = t.estimate_nodes_with(&DOMAIN, |_, n| n.own * 0.5);
        assert!((est - 50.0).abs() < 1e-9);
        // Weight above own is clamped.
        let est2 = t.estimate_nodes_with(&DOMAIN, |_, n| n.own * 10.0);
        assert!((est2 - 100.0).abs() < 1e-9);
        // The callback is handed each visited node's arena id.
        let est3 = t.estimate_nodes_with(&DOMAIN, |id, n| if id == 0 { n.own } else { 0.0 });
        assert!((est3 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_query_is_zero() {
        let mut t = AspTree::new(DOMAIN, 8, 8);
        t.insert(&Point::new(1.0, 1.0));
        assert_eq!(
            t.estimate_range(&Rect::new(100.0, 100.0, 101.0, 101.0)),
            0.0
        );
    }

    #[test]
    fn memory_is_node_bound_not_window_bound() {
        let mut t = AspTree::new(DOMAIN, 8, 4);
        // Saturate the depth-capped path first.
        for _ in 0..1_000 {
            t.insert(&Point::new(1.0, 1.0));
        }
        let m1 = t.memory_bytes();
        for _ in 0..100_000 {
            t.insert(&Point::new(1.0, 1.0));
        }
        // Depth-capped: node count (and memory) stays put while the
        // population grows 10_000×.
        let m2 = t.memory_bytes();
        assert_eq!(m1, m2, "synopsis memory must not grow with points");
    }
}
