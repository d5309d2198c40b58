//! Full PR-quadtree index whose leaves are queues of `seq`s into the
//! shared [`ObjectStore`], in arrival order.

use crate::store::{ObjectStore, Seq, SeqQueue};
use geostream::{Point, RcDvq, Rect};

type NodeId = u32;

#[derive(Debug, Clone)]
struct QuadNode {
    rect: Rect,
    /// The leaf's objects, oldest first (empty once the node splits).
    bucket: SeqQueue,
    children: Option<[NodeId; 4]>,
    depth: u16,
}

/// A point-region quadtree over the domain: leaves hold up to
/// `bucket_capacity` objects and split on overflow. Exact query answering
/// with spatial pruning; the QuadTree index column of Table I.
///
/// A split hands each child its objects in bucket order, so every leaf
/// stays in arrival order, and an eviction descends by the evicted
/// location to its leaf and pops that leaf's front.
#[derive(Debug, Clone)]
pub struct QuadtreeIndex {
    nodes: Vec<QuadNode>,
    bucket_capacity: usize,
    max_depth: u16,
    len: usize,
}

impl QuadtreeIndex {
    /// Builds an empty index over `domain`.
    pub fn new(domain: Rect, bucket_capacity: usize, max_depth: u16) -> Self {
        assert!(bucket_capacity >= 1, "bucket capacity must be positive");
        QuadtreeIndex {
            nodes: vec![QuadNode {
                rect: domain,
                bucket: SeqQueue::default(),
                children: None,
                depth: 0,
            }],
            bucket_capacity,
            max_depth,
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

    /// Number of tree nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn leaf_for(&self, p: &Point) -> NodeId {
        let mut id: NodeId = 0;
        while let Some(children) = self.nodes[id as usize].children {
            let q = self.nodes[id as usize].rect.quadrant_of(p);
            id = children[q];
        }
        id
    }

    /// Indexes the store's newest object.
    pub fn insert(&mut self, seq: Seq, store: &ObjectStore) {
        let leaf = self.leaf_for(store.loc(seq));
        self.nodes[leaf as usize].bucket.push(seq);
        self.len += 1;
        if self.nodes[leaf as usize].bucket.len() > self.bucket_capacity
            && self.nodes[leaf as usize].depth < self.max_depth
        {
            self.split(leaf, store);
        }
    }

    fn split(&mut self, id: NodeId, store: &ObjectStore) {
        let quadrants = self.nodes[id as usize].rect.quadrants();
        let depth = self.nodes[id as usize].depth + 1;
        let base = self.nodes.len() as NodeId;
        for rect in quadrants {
            self.nodes.push(QuadNode {
                rect,
                bucket: SeqQueue::default(),
                children: None,
                depth,
            });
        }
        let children = [base, base + 1, base + 2, base + 3];
        let bucket = std::mem::take(&mut self.nodes[id as usize].bucket);
        let rect = self.nodes[id as usize].rect;
        for &seq in bucket.as_slice() {
            let q = rect.quadrant_of(store.loc(seq));
            self.nodes[children[q] as usize].bucket.push(seq);
        }
        self.nodes[id as usize].children = Some(children);
    }

    /// Evicts the store's oldest object, `seq`, from the front of its
    /// leaf. Call before the store drops it. Returns `false`, changing
    /// nothing, if `seq` is not that front.
    pub fn pop_front(&mut self, seq: Seq, store: &ObjectStore) -> bool {
        let leaf = self.leaf_for(store.loc(seq));
        let bucket = &mut self.nodes[leaf as usize].bucket;
        if bucket.front() != Some(seq) {
            return false;
        }
        bucket.pop_front();
        self.len -= 1;
        true
    }

    /// `r` with its corners clamped into the root rectangle — the range
    /// nodes are pruned against. An object outside the domain is routed by
    /// comparisons against node centres, which lands it in the edge leaf
    /// its clamped position falls in; clamping is monotone, so a point
    /// inside `r` clamps to a point that is inside the clamped range and
    /// inside every node on its own path, and no such node is pruned.
    /// Objects are still tested against `r` itself.
    fn clamped(&self, r: &Rect) -> Rect {
        let d = &self.nodes[0].rect;
        Rect {
            min_x: r.min_x.max(d.min_x).min(d.max_x),
            min_y: r.min_y.max(d.min_y).min(d.max_y),
            max_x: r.max_x.max(d.min_x).min(d.max_x),
            max_y: r.max_y.max(d.min_y).min(d.max_y),
        }
    }

    /// Exact count of indexed objects matching `query`.
    pub fn count(&self, query: &RcDvq, store: &ObjectStore) -> u64 {
        let prune = query.range().map(|r| self.clamped(r));
        let mut total = 0u64;
        let mut stack: Vec<NodeId> = vec![0];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if prune.is_some_and(|r| !node.rect.intersects(&r)) {
                continue;
            }
            total += node
                .bucket
                .as_slice()
                .iter()
                .filter(|&&s| store.matches(s, query))
                .count() as u64;
            if let Some(children) = node.children {
                stack.extend_from_slice(&children);
            }
        }
        total
    }

    /// Candidate-set size of the spatial access path for `r`: the bucket
    /// population of every node the range intersects (the planner's cost
    /// for this backend; traversal only, no object reads).
    pub fn candidate_count(&self, r: &Rect) -> u64 {
        let r = self.clamped(r);
        let mut total = 0u64;
        let mut stack: Vec<NodeId> = vec![0];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if !node.rect.intersects(&r) {
                continue;
            }
            total += node.bucket.len() as u64;
            if let Some(children) = node.children {
                stack.extend_from_slice(&children);
            }
        }
        total
    }

    /// Invariant walk against the ring (the `debug-invariants` auditor):
    /// every bucket is in age order over live objects (**age-order**),
    /// only leaves hold objects and each `seq` sits in the leaf its
    /// location descends to (**leaf-of**), and the leaves hold the ring's
    /// population exactly (**population**).
    #[cfg(feature = "debug-invariants")]
    pub fn audit(&self, store: &ObjectStore) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        const S: &str = "QuadtreeIndex";
        let mut total = 0usize;
        for (id, node) in self.nodes.iter().enumerate() {
            store.audit_queue(S, &node.bucket, || format!("node {id}"))?;
            for &seq in node.bucket.as_slice() {
                let leaf = self.leaf_for(store.loc(seq));
                ensure(leaf as usize == id, S, "leaf-of", || {
                    format!("seq {seq} in node {id}, its location descends to {leaf}")
                })?;
            }
            total += node.bucket.len();
        }
        ensure(
            total == self.len && total == store.len(),
            S,
            "population",
            || {
                format!(
                    "leaves hold {total}, len {}, ring {}",
                    self.len,
                    store.len()
                )
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::{GeoTextObject, KeywordId, ObjectId, Timestamp};

    const DOMAIN: Rect = Rect {
        min_x: 0.0,
        min_y: 0.0,
        max_x: 16.0,
        max_y: 16.0,
    };

    fn obj(id: u64, x: f64, y: f64, kws: &[u32]) -> GeoTextObject {
        GeoTextObject::new(
            ObjectId(id),
            Point::new(x, y),
            kws.iter().copied().map(KeywordId).collect(),
            Timestamp::ZERO,
        )
    }

    fn insert(q: &mut QuadtreeIndex, store: &mut ObjectStore, o: GeoTextObject) -> Seq {
        let seq = store.push(&o);
        q.insert(seq, store);
        seq
    }

    #[test]
    fn exact_counts_after_splits() {
        let mut store = ObjectStore::new();
        let mut q = QuadtreeIndex::new(DOMAIN, 4, 10);
        for i in 0..100u64 {
            insert(
                &mut q,
                &mut store,
                obj(i, (i % 16) as f64 + 0.1, ((i / 16) % 16) as f64 + 0.1, &[]),
            );
        }
        assert!(q.node_count() > 1, "never split");
        assert_eq!(q.count(&RcDvq::spatial(DOMAIN), &store), 100);
        let west = RcDvq::spatial(Rect::new(0.0, 0.0, 7.9, 16.0));
        let expected = (0..100u64).filter(|i| (i % 16) as f64 + 0.1 <= 7.9).count() as u64;
        assert_eq!(q.count(&west, &store), expected);
        // Candidate cost bounds the true count from above.
        assert!(q.candidate_count(west.range().unwrap()) >= expected);
    }

    #[test]
    fn keyword_and_hybrid() {
        let mut store = ObjectStore::new();
        let mut q = QuadtreeIndex::new(DOMAIN, 2, 10);
        insert(&mut q, &mut store, obj(1, 1.0, 1.0, &[5]));
        insert(&mut q, &mut store, obj(2, 1.0, 1.0, &[6]));
        insert(&mut q, &mut store, obj(3, 14.0, 14.0, &[5]));
        assert_eq!(q.count(&RcDvq::keyword(vec![KeywordId(5)]), &store), 2);
        let h = RcDvq::hybrid(Rect::new(0.0, 0.0, 2.0, 2.0), vec![KeywordId(5)]);
        assert_eq!(q.count(&h, &store), 1);
    }

    /// Regression: nodes were pruned against the unclamped range, so a
    /// range reaching past the domain skipped the edge leaf that holds the
    /// objects routed there — and priced the spatial path at 0.
    #[test]
    fn object_beyond_the_domain_is_counted() {
        let mut store = ObjectStore::new();
        let mut q = QuadtreeIndex::new(Rect::new(0.0, 0.0, 1.0, 1.0), 2, 10);
        insert(&mut q, &mut store, obj(1, 1.5, 0.5, &[7]));
        let r = Rect::new(1.2, 0.2, 1.8, 0.8);
        assert_eq!(q.count(&RcDvq::spatial(r), &store), 1);
        assert_eq!(q.count(&RcDvq::hybrid(r, vec![KeywordId(7)]), &store), 1);
        assert_eq!(q.candidate_count(&r), 1);
    }

    #[test]
    fn remove_and_len() {
        let mut store = ObjectStore::new();
        let mut q = QuadtreeIndex::new(DOMAIN, 2, 10);
        let seqs: Vec<_> = (0..20)
            .map(|i| insert(&mut q, &mut store, obj(i, 1.0 + (i as f64) * 0.1, 1.0, &[])))
            .collect();
        assert_eq!(q.len(), 20);
        for &s in seqs.iter().take(10) {
            assert!(q.pop_front(s, &store));
            store.pop_front();
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.count(&RcDvq::spatial(DOMAIN), &store), 10);
        assert!(!q.pop_front(seqs[0], &store));
    }

    /// Splits hand children their objects in order: under sliding-window
    /// churn every leaf is a queue of live objects in arrival order, and
    /// each sits in the leaf its location descends to.
    #[test]
    fn leaves_stay_in_arrival_order_across_splits() {
        let mut store = ObjectStore::new();
        let mut q = QuadtreeIndex::new(DOMAIN, 3, 10);
        for i in 0..400u64 {
            insert(
                &mut q,
                &mut store,
                obj(i, (i % 16) as f64, ((i * 7) % 16) as f64, &[]),
            );
            if i >= 120 {
                let oldest = store.front().unwrap();
                assert!(q.pop_front(oldest, &store));
                store.pop_front();
            }
        }
        assert!(q.node_count() > 1, "never split");
        let mut seen = 0;
        for (id, node) in q.nodes.iter().enumerate() {
            let ages: Vec<u32> = node
                .bucket
                .as_slice()
                .iter()
                .map(|&s| store.age(s))
                .collect();
            assert!(ages.windows(2).all(|w| w[0] < w[1]), "node {id}: {ages:?}");
            for &seq in node.bucket.as_slice() {
                assert_eq!(q.leaf_for(store.loc(seq)) as usize, id);
            }
            seen += node.bucket.len();
        }
        assert_eq!(seen, store.len());
    }
}
