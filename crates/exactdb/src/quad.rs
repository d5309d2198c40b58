//! Full PR-quadtree index whose leaf buckets hold slot ids into the
//! shared [`ObjectStore`].

use crate::store::{ObjectStore, SlotId};
use geostream::{Point, RcDvq, Rect};

type NodeId = u32;

/// Locator sentinel: slot not present in the tree.
const NOWHERE: NodeId = NodeId::MAX;

#[derive(Debug, Clone)]
struct QuadNode {
    rect: Rect,
    bucket: Vec<SlotId>,
    children: Option<[NodeId; 4]>,
    depth: u16,
}

/// A point-region quadtree over the domain: leaves hold up to
/// `bucket_capacity` slots and split on overflow. Exact query answering
/// with spatial pruning; the QuadTree index column of Table I.
#[derive(Debug, Clone)]
pub struct QuadtreeIndex {
    nodes: Vec<QuadNode>,
    bucket_capacity: usize,
    max_depth: u16,
    /// `slot → leaf` hint for removals (positions shift, so the bucket is
    /// searched within the leaf), indexed densely by slot id.
    locator: Vec<NodeId>,
    len: usize,
}

impl QuadtreeIndex {
    /// Builds an empty index over `domain`.
    pub fn new(domain: Rect, bucket_capacity: usize, max_depth: u16) -> Self {
        assert!(bucket_capacity >= 1, "bucket capacity must be positive");
        QuadtreeIndex {
            nodes: vec![QuadNode {
                rect: domain,
                bucket: Vec::new(),
                children: None,
                depth: 0,
            }],
            bucket_capacity,
            max_depth,
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

    fn set_locator(&mut self, slot: SlotId, node: NodeId) {
        if slot as usize >= self.locator.len() {
            self.locator.resize(slot as usize + 1, NOWHERE);
        }
        self.locator[slot as usize] = node;
    }

    /// Indexes a live store slot. The slot must not already be present
    /// (the executor removes first on oid replacement).
    pub fn insert(&mut self, slot: SlotId, store: &ObjectStore) {
        let leaf = self.leaf_for(store.loc(slot));
        self.nodes[leaf as usize].bucket.push(slot);
        self.set_locator(slot, leaf);
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
                bucket: Vec::new(),
                children: None,
                depth,
            });
        }
        let children = [base, base + 1, base + 2, base + 3];
        let bucket = std::mem::take(&mut self.nodes[id as usize].bucket);
        let rect = self.nodes[id as usize].rect;
        for slot in bucket {
            let q = rect.quadrant_of(store.loc(slot));
            self.locator[slot as usize] = children[q];
            self.nodes[children[q] as usize].bucket.push(slot);
        }
        self.nodes[id as usize].children = Some(children);
    }

    /// Removes a slot. Returns whether anything was removed.
    pub fn remove(&mut self, slot: SlotId) -> bool {
        let Some(&leaf) = self.locator.get(slot as usize) else {
            return false;
        };
        if leaf == NOWHERE {
            return false;
        }
        self.locator[slot as usize] = NOWHERE;
        let bucket = &mut self.nodes[leaf as usize].bucket;
        if let Some(pos) = bucket.iter().position(|&s| s == slot) {
            bucket.swap_remove(pos);
            self.len -= 1;
            true
        } else {
            false
        }
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

    fn insert(q: &mut QuadtreeIndex, store: &mut ObjectStore, o: GeoTextObject) -> SlotId {
        let slot = store.insert(o);
        q.insert(slot, store);
        slot
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
        let slots: Vec<_> = (0..20)
            .map(|i| insert(&mut q, &mut store, obj(i, 1.0 + (i as f64) * 0.1, 1.0, &[])))
            .collect();
        assert_eq!(q.len(), 20);
        for &s in slots.iter().take(10) {
            assert!(q.remove(s));
        }
        for i in 0..10u64 {
            store.remove(ObjectId(i));
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.count(&RcDvq::spatial(DOMAIN), &store), 10);
        assert!(!q.remove(slots[0]));
    }

    #[test]
    fn locator_survives_splits() {
        let mut store = ObjectStore::new();
        let mut q = QuadtreeIndex::new(DOMAIN, 3, 10);
        let slots: Vec<_> = (0..50)
            .map(|i| {
                insert(
                    &mut q,
                    &mut store,
                    obj(i, (i % 16) as f64, ((i * 7) % 16) as f64, &[]),
                )
            })
            .collect();
        // Every locator entry must point at a leaf containing the slot.
        for &slot in &slots {
            let leaf = q.locator[slot as usize];
            assert!(
                q.nodes[leaf as usize].bucket.contains(&slot),
                "slot {slot} not in its located leaf"
            );
        }
    }
}
