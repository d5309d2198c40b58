//! Augmented adaptive space-partition tree (the paper's `AASP`, after Wang
//! et al., VLDB 2014).
//!
//! An [`AspTree`] whose nodes are *augmented*
//! with local keyword statistics, plus a global KMV synopsis of distinct
//! keywords:
//!
//! * each node keeps a **hashed keyword-bucket table** — `B` counters of
//!   how many local objects carry at least one keyword hashing into each
//!   bucket. This is the bounded-size synopsis that captures "local
//!   correlations" between a region and its vocabulary; hash collisions
//!   between unrelated terms are its intrinsic estimation error (the
//!   reason AASP's accuracy trails the samplers in the paper);
//! * a global [`KmvSynopsis`] estimates the
//!   distinct-keyword cardinality for diagnostics and collision pricing.
//!
//! A keyword predicate `W` is evaluated per leaf as the bucket-count sum
//! over `W`'s distinct buckets, capped by the leaf's object count, then
//! scaled by spatial coverage. Because all statistics live at the leaves
//! ("tightly couples spatial and keyword predicates", §II), **every**
//! query — including pure spatial ones — pays a per-leaf walk with no
//! aggregate shortcuts, and the split threshold is small: AASP is by
//! construction the highest-latency estimator of the pool, exactly its
//! profile in the paper's experiments.

use crate::asp_tree::{AspNode, AspTree};
use crate::kmv::KmvSynopsis;
use crate::traits::{EstimatorConfig, EstimatorKind, SelectivityEstimator};
use geostream::{
    GeoTextObject, KeywordId, Persist, PersistError, PersistReader, PersistWriter, QueryType, RcDvq,
};

/// Keyword hash buckets per node.
const BUCKETS: usize = 64;
/// KMV synopsis size.
const KMV_K: usize = 512;
/// Depth cap of the spatial tree.
const MAX_DEPTH: u16 = 14;

/// Maps a keyword onto its bucket (SplitMix-style avalanche, folded).
fn bucket_of(kw: KeywordId) -> usize {
    let mut z = (kw.0 as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (z ^ (z >> 27)) as usize % BUCKETS
}

/// Per-node keyword-bucket counters: `counts[b]` = objects at this node
/// carrying at least one keyword in bucket `b`.
#[derive(Debug, Clone)]
pub struct BucketCounts {
    counts: Box<[f64; BUCKETS]>,
}

impl Default for BucketCounts {
    fn default() -> Self {
        BucketCounts {
            counts: Box::new([0.0; BUCKETS]),
        }
    }
}

impl BucketCounts {
    /// Registers one object's keyword set (each distinct bucket counts the
    /// object once).
    pub fn add_object(&mut self, keywords: &[KeywordId]) {
        let mut hit = [false; BUCKETS];
        for &kw in keywords {
            hit[bucket_of(kw)] = true;
        }
        for (b, &h) in hit.iter().enumerate() {
            if h {
                self.counts[b] += 1.0;
            }
        }
    }

    /// Retracts one object's keyword set.
    pub fn retract_object(&mut self, keywords: &[KeywordId]) {
        let mut hit = [false; BUCKETS];
        for &kw in keywords {
            hit[bucket_of(kw)] = true;
        }
        for (b, &h) in hit.iter().enumerate() {
            if h {
                self.counts[b] = (self.counts[b] - 1.0).max(0.0);
            }
        }
    }

    /// Estimated local objects matching any keyword of `kws`: union-bound
    /// sum over the query's distinct buckets. Collisions with unrelated
    /// terms make this an overestimate — the synopsis' intrinsic error.
    pub fn matches(&self, kws: &[KeywordId]) -> f64 {
        let mut hit = [false; BUCKETS];
        for &kw in kws {
            hit[bucket_of(kw)] = true;
        }
        hit.iter()
            .enumerate()
            .filter(|(_, &h)| h)
            .map(|(b, _)| self.counts[b])
            .sum()
    }

    fn memory_bytes(&self) -> usize {
        BUCKETS * std::mem::size_of::<f64>()
    }
}

impl Persist for BucketCounts {
    fn persist(&self, w: &mut PersistWriter) {
        for &c in self.counts.iter() {
            w.put_f64(c);
        }
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let mut counts = Box::new([0.0; BUCKETS]);
        for c in counts.iter_mut() {
            *c = r.take_f64("BucketCounts.count")?;
        }
        Ok(BucketCounts { counts })
    }
}

/// Section tag for the AASP estimator's snapshot frame.
const AASP_TAG: u32 = 0x4512_aa59;

impl Persist for AaspTree {
    fn persist(&self, w: &mut PersistWriter) {
        w.section(AASP_TAG, |w| {
            self.tree.persist(w);
            self.kmv.persist(w);
        });
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let section = r.begin_section(AASP_TAG, "AaspTree")?;
        let tree = AspTree::restore(r)?;
        let kmv = KmvSynopsis::restore(r)?;
        r.finish_section(section, "AaspTree")?;
        Ok(AaspTree { tree, kmv })
    }
}

/// The AASP selectivity estimator.
pub struct AaspTree {
    tree: AspTree<BucketCounts>,
    kmv: KmvSynopsis,
}

impl AaspTree {
    /// Builds an empty AASP estimator per `config`.
    ///
    /// The split threshold follows the paper's `split value` knob: a node
    /// splits after `split_value × 16 / memory_budget` points. Small leaves
    /// mean many nodes, and — because keyword statistics live per node, so
    /// every query must consult each intersecting leaf — many nodes mean
    /// the highest per-query latency of the estimator pool. Larger memory
    /// budgets split even finer, so latency grows with budget (Fig. 13).
    pub fn new(config: &EstimatorConfig) -> Self {
        let threshold =
            ((config.aasp_split_value * 16.0 / config.memory_budget.max(1e-6)) as usize).max(2);
        AaspTree {
            tree: AspTree::new(config.domain, threshold, MAX_DEPTH),
            kmv: KmvSynopsis::new(KMV_K),
        }
    }

    /// Number of tree nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    /// Estimated distinct keywords in the stream (from the KMV synopsis).
    pub fn distinct_keywords(&self) -> f64 {
        self.kmv.estimate_distinct()
    }

    fn node_keyword_matches(node: &AspNode<BucketCounts>, kws: &[KeywordId]) -> f64 {
        node.payload.matches(kws).min(node.own)
    }

    /// Full invariant walk (the `debug-invariants` auditor): the spatial
    /// tree's partition/subtree/population invariants
    /// ([`AspTree::audit`]), plus keyword-bucket sanity — every bucket
    /// counter is finite and non-negative, and no bucket anywhere exceeds
    /// the tree population (a bucket counts a subset of all inserted
    /// objects; per-node bounds are deliberately *not* asserted because
    /// retraction pairs counts and keywords only approximately across
    /// splits, see [`SelectivityEstimator::remove`]).
    #[cfg(feature = "debug-invariants")]
    pub fn audit(&self) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        self.tree.audit()?;
        let population = self.tree.population() as f64;
        let mut violation: Option<(usize, usize, f64)> = None;
        let mut id = 0usize;
        self.tree.for_each_node(|node| {
            for (b, &count) in node.payload.counts.iter().enumerate() {
                let ok = count.is_finite() && count >= 0.0 && count <= population + 1e-6;
                if violation.is_none() && !ok {
                    violation = Some((id, b, count));
                }
            }
            id += 1;
        });
        ensure(violation.is_none(), "AaspTree", "bucket-bounds", || {
            let (node, bucket, count) = violation.unwrap_or((0, 0, 0.0));
            format!("node {node} bucket {bucket} counts {count} of {population} objects")
        })
    }
}

impl SelectivityEstimator for AaspTree {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::Aasp
    }

    fn insert(&mut self, obj: &GeoTextObject) {
        let counted_at = self.tree.insert(&obj.loc);
        self.tree.payload_mut(counted_at).add_object(&obj.keywords);
        for &kw in obj.keywords.iter() {
            self.kmv.insert(kw);
        }
    }

    fn remove(&mut self, obj: &GeoTextObject) {
        // The retired count and the retired keywords may live at different
        // nodes when the tree split since this object arrived; the pairing
        // is approximate, a bounded synopsis error that washes out as the
        // window slides.
        if let Some(node) = self.tree.remove(&obj.loc) {
            self.tree.payload_mut(node).retract_object(&obj.keywords);
        }
        // KMV is insert-only (distinct counts cannot be retracted); the
        // slight overcount decays in relevance as the stream moves on.
    }

    fn insert_batch(&mut self, objs: &[GeoTextObject]) {
        // Tree inserts must stay in arrival order (splits depend on it),
        // but the KMV synopsis is an order-independent set of minimum
        // hashes, so its updates can run as a second cache-friendly sweep.
        for obj in objs {
            let counted_at = self.tree.insert(&obj.loc);
            self.tree.payload_mut(counted_at).add_object(&obj.keywords);
        }
        for obj in objs {
            for &kw in obj.keywords.iter() {
                self.kmv.insert(kw);
            }
        }
    }

    fn remove_batch(&mut self, objs: &[GeoTextObject]) {
        for obj in objs {
            if let Some(node) = self.tree.remove(&obj.loc) {
                self.tree.payload_mut(node).retract_object(&obj.keywords);
            }
        }
    }

    fn estimate(&self, query: &RcDvq) -> f64 {
        match query.query_type() {
            // Even pure spatial queries pay the per-leaf walk: statistics
            // live at the leaves, so no aggregate shortcut exists.
            QueryType::Spatial => self.tree.estimate_nodes_with(
                // LINT-ALLOW(no-panic): QueryType::Spatial carries a range by construction
                Some(query.range().expect("spatial query has range")),
                &|node| node.own,
            ),
            QueryType::Keyword => self.tree.estimate_nodes_with(None, &|node| {
                Self::node_keyword_matches(node, query.keywords())
            }),
            QueryType::Hybrid => self
                .tree
                // LINT-ALLOW(no-panic): QueryType::Hybrid carries a range by construction
                .estimate_nodes_with(Some(query.range().expect("hybrid")), &|node| {
                    Self::node_keyword_matches(node, query.keywords())
                }),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes(BucketCounts::memory_bytes) + self.kmv.memory_bytes()
    }

    fn persist_state(&self, w: &mut PersistWriter) {
        self.persist(w);
    }

    fn population(&self) -> u64 {
        self.tree.population()
    }

    #[cfg(feature = "debug-invariants")]
    fn audit(&self) -> Result<(), geostream::AuditError> {
        AaspTree::audit(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::{ObjectId, Point, Rect, Timestamp};

    fn config() -> EstimatorConfig {
        EstimatorConfig {
            domain: Rect::new(0.0, 0.0, 64.0, 64.0),
            ..EstimatorConfig::default()
        }
    }

    fn obj(id: u64, x: f64, y: f64, kws: &[u32]) -> GeoTextObject {
        GeoTextObject::new(
            ObjectId(id),
            Point::new(x, y),
            kws.iter().copied().map(KeywordId).collect(),
            Timestamp::ZERO,
        )
    }

    #[test]
    fn spatial_estimates_track_density() {
        let mut a = AaspTree::new(&config());
        for i in 0..400 {
            a.insert(&obj(i, 1.0 + (i % 8) as f64 * 0.1, 1.0, &[]));
        }
        for i in 0..40 {
            a.insert(&obj(1_000 + i, 50.0, 50.0, &[]));
        }
        let dense = a.estimate(&RcDvq::spatial(Rect::new(0.0, 0.0, 4.0, 4.0)));
        let sparse = a.estimate(&RcDvq::spatial(Rect::new(48.0, 48.0, 52.0, 52.0)));
        assert!(dense > 300.0, "dense estimate too low: {dense}");
        assert!(sparse < 80.0, "sparse estimate too high: {sparse}");
    }

    #[test]
    fn keyword_estimates_reflect_local_buckets() {
        let mut a = AaspTree::new(&config());
        // 100 objects with keyword 1, 20 with keyword 2, far apart.
        for i in 0..100 {
            a.insert(&obj(i, 10.0, 10.0, &[1]));
        }
        for i in 0..20 {
            a.insert(&obj(500 + i, 40.0, 40.0, &[2]));
        }
        let e1 = a.estimate(&RcDvq::keyword(vec![KeywordId(1)]));
        let e2 = a.estimate(&RcDvq::keyword(vec![KeywordId(2)]));
        // Only two terms exist, so collisions are unlikely; estimates land
        // near truth unless both hash to one bucket (then the cap holds).
        assert!((90.0..=121.0).contains(&e1), "kw1 estimate off: {e1}");
        assert!((15.0..=121.0).contains(&e2), "kw2 estimate off: {e2}");
    }

    #[test]
    fn bucket_collisions_overestimate() {
        // Many distinct tail keywords share buckets with the queried one:
        // the synopsis must overestimate (its documented failure mode).
        let mut a = AaspTree::new(&config());
        for i in 0..BUCKETS as u64 * 8 {
            a.insert(&obj(i, 5.0, 5.0, &[i as u32 + 100]));
        }
        // Query a keyword that was never inserted but hashes into some
        // bucket: the collision mass shows up.
        let est = a.estimate(&RcDvq::keyword(vec![KeywordId(7)]));
        assert!(est > 0.0, "collision overestimate expected, got {est}");
        // But it is still bounded by the population.
        assert!(est <= a.population() as f64 + 1e-9);
    }

    #[test]
    fn hybrid_combines_region_and_keywords() {
        let mut a = AaspTree::new(&config());
        // Keyword 5 lives only in the SW corner.
        for i in 0..300 {
            a.insert(&obj(i, 2.0 + (i % 5) as f64 * 0.1, 2.0, &[5]));
        }
        for i in 0..300 {
            a.insert(&obj(1_000 + i, 60.0 + (i % 5) as f64 * 0.1, 60.0, &[6]));
        }
        let q = RcDvq::hybrid(Rect::new(0.0, 0.0, 8.0, 8.0), vec![KeywordId(5)]);
        let est = a.estimate(&q);
        assert!((est - 300.0).abs() < 90.0, "hybrid estimate off: {est}");
        // Keyword 6 in the SW corner: near zero unless 5 and 6 collide.
        if bucket_of(KeywordId(5)) != bucket_of(KeywordId(6)) {
            let q2 = RcDvq::hybrid(Rect::new(0.0, 0.0, 8.0, 8.0), vec![KeywordId(6)]);
            assert!(a.estimate(&q2) < 30.0);
        }
    }

    #[test]
    fn union_bound_caps_at_node_count() {
        let mut a = AaspTree::new(&config());
        // Every object has both keywords: union must not double count.
        for i in 0..60 {
            a.insert(&obj(i, 5.0, 5.0, &[1, 2]));
        }
        let q = RcDvq::keyword(vec![KeywordId(1), KeywordId(2)]);
        let est = a.estimate(&q);
        assert!(est <= 60.0 + 1e-9, "union bound exceeded population: {est}");
        assert!(est > 40.0);
    }

    #[test]
    fn removal_retracts_counts_and_buckets() {
        let mut a = AaspTree::new(&config());
        let objects: Vec<_> = (0..30).map(|i| obj(i, 3.0, 3.0, &[9])).collect();
        for o in &objects {
            a.insert(o);
        }
        for o in &objects {
            a.remove(o);
        }
        assert_eq!(a.population(), 0);
        let est = a.estimate(&RcDvq::keyword(vec![KeywordId(9)]));
        assert!(est.abs() < 1e-6, "stale keyword mass: {est}");
    }

    #[test]
    fn distinct_keywords_estimated() {
        let mut a = AaspTree::new(&config());
        for i in 0..200 {
            a.insert(&obj(i, 1.0, 1.0, &[i as u32 % 50]));
        }
        let d = a.distinct_keywords();
        assert!((d - 50.0).abs() < 10.0, "distinct estimate off: {d}");
    }

    #[test]
    fn bucket_counts_add_retract_symmetry() {
        let mut b = BucketCounts::default();
        let kws: Vec<KeywordId> = vec![KeywordId(1), KeywordId(900), KeywordId(77)];
        b.add_object(&kws);
        b.add_object(&kws);
        assert!(b.matches(&kws) >= 2.0);
        b.retract_object(&kws);
        b.retract_object(&kws);
        assert_eq!(b.matches(&kws), 0.0);
        // Extra retraction clamps at zero.
        b.retract_object(&kws);
        assert_eq!(b.matches(&kws), 0.0);
    }

    #[test]
    fn multi_keyword_object_counts_once_per_bucket() {
        let mut b = BucketCounts::default();
        // Two keywords in (very likely distinct) buckets, one object.
        b.add_object(&[KeywordId(1), KeywordId(2)]);
        // Query for either keyword individually sees exactly one object.
        assert_eq!(b.matches(&[KeywordId(1)]), 1.0);
        assert_eq!(b.matches(&[KeywordId(2)]), 1.0);
    }

    #[test]
    fn persist_round_trip_is_bit_identical_under_continued_churn() {
        let mut orig = AaspTree::new(&config());
        let gen_obj = |i: u64| {
            let x = (i.wrapping_mul(29) % 64) as f64 + 0.25;
            let y = (i.wrapping_mul(43) % 64) as f64 + 0.25;
            obj(i, x, y, &[(i % 80) as u32, (i % 13) as u32 + 500])
        };
        for i in 0..4_000u64 {
            orig.insert(&gen_obj(i));
            if i % 4 == 0 {
                orig.remove(&gen_obj(i / 2));
            }
        }
        assert!(orig.node_count() > 1, "tree should have split");

        let mut w = PersistWriter::new();
        orig.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = PersistReader::new(&bytes);
        let mut back = AaspTree::restore(&mut r).expect("restore");
        assert!(r.is_exhausted());
        assert_eq!(back.node_count(), orig.node_count());
        assert_eq!(back.population(), orig.population());
        assert_eq!(
            back.distinct_keywords().to_bits(),
            orig.distinct_keywords().to_bits()
        );

        // Splits depend on arrival order: mirrored churn must keep the two
        // arenas structurally identical.
        for i in 4_000..7_000u64 {
            let o = gen_obj(i);
            orig.insert(&o);
            back.insert(&o);
        }
        assert_eq!(back.node_count(), orig.node_count());
        let queries = [
            RcDvq::spatial(Rect::new(4.0, 4.0, 30.0, 30.0)),
            RcDvq::keyword(vec![KeywordId(7)]),
            RcDvq::hybrid(Rect::new(0.0, 20.0, 50.0, 64.0), vec![KeywordId(503)]),
        ];
        for q in &queries {
            assert_eq!(orig.estimate(q).to_bits(), back.estimate(q).to_bits());
        }
        #[cfg(feature = "debug-invariants")]
        {
            orig.audit().unwrap();
            back.audit().unwrap();
        }

        // A child pointer steered outside the arena must surface as a
        // typed error, not a panic in a later tree walk.
        let mut r = PersistReader::new(&bytes[..bytes.len() - 7]);
        assert!(AaspTree::restore(&mut r).is_err());
    }

    #[test]
    fn memory_budget_deepens_tree() {
        let small = EstimatorConfig {
            memory_budget: 0.5,
            ..config()
        };
        let big = EstimatorConfig {
            memory_budget: 4.0,
            ..config()
        };
        let mut a_small = AaspTree::new(&small);
        let mut a_big = AaspTree::new(&big);
        for i in 0..3_000 {
            let o = obj(i, (i % 64) as f64, ((i / 64) % 64) as f64, &[]);
            a_small.insert(&o);
            a_big.insert(&o);
        }
        assert!(
            a_big.node_count() >= a_small.node_count(),
            "bigger budget should split at least as much: {} vs {}",
            a_big.node_count(),
            a_small.node_count()
        );
    }
}
