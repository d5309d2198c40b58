//! Augmented adaptive space-partition tree (the paper's `AASP`, after Wang
//! et al., VLDB 2014).
//!
//! An [`AspTree`] whose nodes are *augmented*
//! with local keyword statistics, plus a global KMV synopsis of distinct
//! keywords:
//!
//! * each node keeps a **hashed keyword-bucket row** — `B` counters of
//!   how many local objects carry at least one keyword hashing into each
//!   bucket. This is the bounded-size synopsis that captures "local
//!   correlations" between a region and its vocabulary; hash collisions
//!   between unrelated terms are its intrinsic estimation error (the
//!   reason AASP's accuracy trails the samplers in the paper);
//! * a global [`KmvSynopsis`] estimates the
//!   distinct-keyword cardinality for diagnostics and collision pricing.
//!
//! The rows live in one **bucket-major table of `u32` counts** indexed by
//! the tree's [`NodeId`]s (`B` columns, one row per node), not inside the
//! nodes: a query hashes its keywords to its distinct buckets once and
//! then reads only those columns, and an insert or retraction touches only
//! the object's own buckets.
//!
//! A keyword predicate `W` is evaluated per node as the bucket-count sum
//! over `W`'s distinct buckets, capped by the node's object count, then
//! scaled by spatial coverage. Because all statistics live at the nodes
//! ("tightly couples spatial and keyword predicates", §II), **every**
//! query — including pure spatial ones — pays a per-node walk with no
//! aggregate shortcuts, and the split threshold is small: AASP is by
//! construction the highest-latency estimator of the pool, exactly its
//! profile in the paper's experiments. Spatial and hybrid queries walk the
//! tree depth first over the nodes their range intersects; a keyword-only
//! query has no range, so it scans the arena in `NodeId` order. Every term
//! of that scan is an integer (counts and `own` are whole numbers and
//! coverage is 1), so its sum is exact in any order and equals the
//! depth-first sum bit for bit.

use crate::asp_tree::{AspTree, NodeId};
use crate::kmv::KmvSynopsis;
use crate::traits::{EstimatorConfig, EstimatorKind, SelectivityEstimator};
use geostream::{
    GeoTextObject, KeywordId, PersistError, PersistReader, PersistWriter, QueryType, RcDvq,
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

/// The distinct buckets of a keyword set, as a bit set (bit `b` is bucket
/// `b`; `BUCKETS` is 64, one `u64`).
fn bucket_set(kws: &[KeywordId]) -> u64 {
    kws.iter().fold(0, |set, &kw| set | 1 << bucket_of(kw))
}

/// The buckets of `set`, ascending.
fn buckets_in(mut set: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let b = set.trailing_zeros() as usize;
            set &= set - 1;
            b
        })
    })
}

#[cfg(test)]
thread_local! {
    /// Bucket counters read by estimates on this thread (tests run one per
    /// thread).
    static COUNTERS_READ: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Every node's keyword-bucket counters, bucket-major: `columns[b][id]` =
/// objects counted at node `id` carrying at least one keyword in bucket
/// `b`. Each column holds one row per tree node.
#[derive(Debug, Clone)]
struct BucketTable {
    columns: [Vec<u32>; BUCKETS],
}

impl BucketTable {
    /// A table of `nodes` all-zero rows.
    fn zeroed(nodes: usize) -> Self {
        BucketTable {
            columns: std::array::from_fn(|_| vec![0; nodes]),
        }
    }

    /// Number of rows (tree nodes) held.
    fn rows(&self) -> usize {
        self.columns[0].len()
    }

    /// Appends all-zero rows up to `nodes` (the tree appends four nodes
    /// per split).
    fn grow_to(&mut self, nodes: usize) {
        if self.rows() < nodes {
            for column in &mut self.columns {
                column.resize(nodes, 0);
            }
        }
    }

    /// Registers one object at node `id` (each of its distinct buckets
    /// counts it once).
    fn add(&mut self, id: NodeId, buckets: u64) {
        for b in buckets_in(buckets) {
            let count = &mut self.columns[b][id as usize];
            *count = count.saturating_add(1);
        }
    }

    /// Retracts one object at node `id`, clamping at zero.
    fn retract(&mut self, id: NodeId, buckets: u64) {
        for b in buckets_in(buckets) {
            let count = &mut self.columns[b][id as usize];
            *count = count.saturating_sub(1);
        }
    }

    /// Estimated objects at node `id` matching any keyword of the query
    /// whose distinct buckets are `buckets`: the union-bound sum of their
    /// counters. Collisions with unrelated terms make this an
    /// overestimate — the synopsis' intrinsic error.
    fn matches(&self, id: usize, buckets: u64) -> f64 {
        let mut sum = 0.0;
        for b in buckets_in(buckets) {
            #[cfg(test)]
            COUNTERS_READ.with(|c| c.set(c.get() + 1));
            sum += f64::from(self.columns[b][id]);
        }
        sum
    }

    fn memory_bytes(&self) -> usize {
        BUCKETS * self.rows() * std::mem::size_of::<u32>()
    }
}

/// Reads one persisted bucket counter, refusing any value the table
/// cannot hold exactly.
fn take_bucket_count(r: &mut PersistReader<'_>) -> Result<u32, PersistError> {
    let count = r.take_f64("AaspTree.bucket")?;
    if !(count >= 0.0 && count <= f64::from(u32::MAX) && count.fract() == 0.0) {
        return Err(PersistError::Corrupt {
            context: "AaspTree.bucket",
            detail: format!("bucket count {count} is not a 32-bit whole number"),
        });
    }
    // Checked above: a whole number in `0..=u32::MAX` converts exactly.
    Ok(count as u32)
}

/// Section tag for the AASP estimator's snapshot frame.
const AASP_TAG: u32 = 0x4512_aa59;

/// The AASP selectivity estimator.
pub struct AaspTree {
    tree: AspTree,
    table: BucketTable,
    kmv: KmvSynopsis,
}

impl AaspTree {
    /// Builds an empty AASP estimator per `config`.
    ///
    /// The split threshold follows the paper's `split value` knob: a node
    /// splits after `split_value × 16 / memory_budget` points. Small leaves
    /// mean many nodes, and — because keyword statistics live per node, so
    /// every query must consult each intersecting node — many nodes mean
    /// the highest per-query latency of the estimator pool. Larger memory
    /// budgets split even finer, so latency grows with budget (Fig. 13).
    pub fn new(config: &EstimatorConfig) -> Self {
        let threshold =
            ((config.aasp_split_value * 16.0 / config.memory_budget.max(1e-6)) as usize).max(2);
        let tree = AspTree::new(config.domain, threshold, MAX_DEPTH);
        AaspTree {
            table: BucketTable::zeroed(tree.node_count()),
            tree,
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

    /// Counts `obj` in the tree and in its node's bucket row.
    fn count(&mut self, obj: &GeoTextObject) {
        let counted_at = self.tree.insert(&obj.loc);
        self.table.grow_to(self.tree.node_count());
        self.table.add(counted_at, bucket_set(&obj.keywords));
    }

    /// Retracts `obj` from the tree and from the bucket row of the node
    /// that gave up the count.
    ///
    /// The retired count and the retired keywords may live at different
    /// nodes when the tree split since this object arrived; the pairing is
    /// approximate, a bounded synopsis error that washes out as the window
    /// slides.
    fn uncount(&mut self, obj: &GeoTextObject) {
        if let Some(node) = self.tree.remove(&obj.loc) {
            self.table.retract(node, bucket_set(&obj.keywords));
        }
    }

    /// Keyword-only estimate: every node with mass, in arena order. The
    /// terms are whole numbers, so the sum is exact and equals the
    /// depth-first walk's.
    fn keyword_estimate(&self, buckets: u64) -> f64 {
        let mut total = 0.0;
        for (id, node) in self.tree.nodes().iter().enumerate() {
            if node.own > 0.0 {
                total += self.table.matches(id, buckets).min(node.own);
            }
        }
        total
    }

    /// Full invariant walk (the `debug-invariants` auditor): the spatial
    /// tree's partition/subtree/population invariants
    /// ([`AspTree::audit`]), plus keyword-table sanity — one row per tree
    /// node, and no bucket anywhere exceeds the tree population (a bucket
    /// counts a subset of all inserted objects; per-node bounds are
    /// deliberately *not* asserted because retraction pairs counts and
    /// keywords only approximately across splits, see `uncount`).
    #[cfg(feature = "debug-invariants")]
    pub fn audit(&self) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        self.tree.audit()?;
        let nodes = self.tree.node_count();
        ensure(
            self.table.columns.iter().all(|c| c.len() == nodes),
            "AaspTree",
            "table-shape",
            || format!("bucket columns are not {nodes} rows long"),
        )?;
        let population = self.tree.population();
        let violation = self
            .table
            .columns
            .iter()
            .enumerate()
            .find_map(|(b, column)| {
                let node = column.iter().position(|&c| u64::from(c) > population)?;
                Some((node, b, column[node]))
            });
        ensure(violation.is_none(), "AaspTree", "bucket-bounds", || {
            let (node, bucket, count) = violation.unwrap_or((0, 0, 0));
            format!("node {node} bucket {bucket} counts {count} of {population} objects")
        })
    }
}

impl SelectivityEstimator for AaspTree {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::Aasp
    }

    fn insert(&mut self, obj: &GeoTextObject) {
        self.count(obj);
        for &kw in obj.keywords.iter() {
            self.kmv.insert(kw);
        }
    }

    fn remove(&mut self, obj: &GeoTextObject) {
        self.uncount(obj);
        // KMV is insert-only (distinct counts cannot be retracted); the
        // slight overcount decays in relevance as the stream moves on.
    }

    fn insert_batch(&mut self, objs: &[GeoTextObject]) {
        // Tree inserts must stay in arrival order (splits depend on it),
        // but the KMV synopsis is an order-independent set of minimum
        // hashes, so its updates can run as a second cache-friendly sweep.
        for obj in objs {
            self.count(obj);
        }
        for obj in objs {
            for &kw in obj.keywords.iter() {
                self.kmv.insert(kw);
            }
        }
    }

    fn remove_batch(&mut self, objs: &[GeoTextObject]) {
        for obj in objs {
            self.uncount(obj);
        }
    }

    fn estimate(&self, query: &RcDvq) -> f64 {
        match query.query_type() {
            // Even pure spatial queries pay the per-node walk: statistics
            // live at the nodes, so no aggregate shortcut exists.
            QueryType::Spatial => self.tree.estimate_range(
                // LINT-ALLOW(no-panic): QueryType::Spatial carries a range by construction
                query.range().expect("spatial query has range"),
            ),
            QueryType::Keyword => self.keyword_estimate(bucket_set(query.keywords())),
            QueryType::Hybrid => {
                let buckets = bucket_set(query.keywords());
                self.tree
                    // LINT-ALLOW(no-panic): QueryType::Hybrid carries a range by construction
                    .estimate_nodes_with(query.range().expect("hybrid"), |id, node| {
                        self.table.matches(id as usize, buckets).min(node.own)
                    })
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes() + self.table.memory_bytes() + self.kmv.memory_bytes()
    }

    /// The tree with each node's bucket counters after its fields, one
    /// `f64` per bucket (the layout of the per-node rows the table
    /// replaced), then the KMV synopsis.
    fn persist_state(&self, w: &mut PersistWriter) {
        w.section(AASP_TAG, |w| {
            self.tree.persist_with(w, |id, w| {
                for column in &self.table.columns {
                    w.put_f64(f64::from(column[id as usize]));
                }
            });
            self.kmv.persist_state(w);
        });
    }

    fn restore_state(&mut self, r: &mut PersistReader<'_>) -> Result<(), PersistError> {
        let section = r.begin_section(AASP_TAG, "AaspTree")?;
        let mut table = BucketTable::zeroed(0);
        self.tree.restore_with(r, |_, r| {
            for column in &mut table.columns {
                column.push(take_bucket_count(r)?);
            }
            Ok(())
        })?;
        self.table = table;
        self.kmv.restore_state(r)?;
        r.finish_section(section, "AaspTree")
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
    use testkit::check;

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
        let mut t = BucketTable::zeroed(3);
        let kws = bucket_set(&[KeywordId(1), KeywordId(900), KeywordId(77)]);
        t.add(2, kws);
        t.add(2, kws);
        assert!(t.matches(2, kws) >= 2.0);
        assert_eq!(t.matches(1, kws), 0.0, "another node's row moved");
        t.retract(2, kws);
        t.retract(2, kws);
        assert_eq!(t.matches(2, kws), 0.0);
        // Extra retraction clamps at zero.
        t.retract(2, kws);
        assert_eq!(t.matches(2, kws), 0.0);
        assert!(t.columns.iter().flatten().all(|&c| c == 0));
    }

    #[test]
    fn multi_keyword_object_counts_once_per_bucket() {
        let mut t = BucketTable::zeroed(1);
        // Two keywords in (very likely distinct) buckets, one object.
        t.add(0, bucket_set(&[KeywordId(1), KeywordId(2)]));
        // Query for either keyword individually sees exactly one object.
        assert_eq!(t.matches(0, bucket_set(&[KeywordId(1)])), 1.0);
        assert_eq!(t.matches(0, bucket_set(&[KeywordId(2)])), 1.0);
        // A keyword listed twice, or two keywords sharing a bucket, still
        // count the object once.
        let (a, b) = (0..)
            .map(KeywordId)
            .flat_map(|a| (a.0 + 1..a.0 + 500).map(move |b| (a, KeywordId(b))))
            .find(|&(a, b)| bucket_of(a) == bucket_of(b))
            .expect("64 buckets collide within 500 keywords");
        let mut t = BucketTable::zeroed(1);
        t.add(0, bucket_set(&[a, b, a]));
        assert_eq!(t.matches(0, bucket_set(&[a])), 1.0);
        assert_eq!(t.columns.iter().flatten().sum::<u32>(), 1);
    }

    /// AASP as first written, kept as the oracle the table must match bit
    /// for bit: a 64-slot `f64` row per node, a 64-entry hit array
    /// rebuilt for every node a query visits, and one depth-first walk for
    /// all three query types (the keyword-only walk with coverage 1).
    struct PerNodeReference {
        tree: AspTree,
        rows: Vec<[f64; BUCKETS]>,
    }

    impl PerNodeReference {
        fn new(config: &EstimatorConfig) -> Self {
            PerNodeReference {
                tree: AaspTree::new(config).tree,
                rows: vec![[0.0; BUCKETS]],
            }
        }

        fn hits(kws: &[KeywordId]) -> [bool; BUCKETS] {
            let mut hit = [false; BUCKETS];
            for &kw in kws {
                hit[bucket_of(kw)] = true;
            }
            hit
        }

        fn insert(&mut self, obj: &GeoTextObject) {
            let at = self.tree.insert(&obj.loc) as usize;
            self.rows.resize(self.tree.node_count(), [0.0; BUCKETS]);
            for (b, h) in Self::hits(&obj.keywords).into_iter().enumerate() {
                if h {
                    self.rows[at][b] += 1.0;
                }
            }
        }

        fn remove(&mut self, obj: &GeoTextObject) {
            if let Some(at) = self.tree.remove(&obj.loc) {
                for (b, h) in Self::hits(&obj.keywords).into_iter().enumerate() {
                    if h {
                        let c = &mut self.rows[at as usize][b];
                        *c = (*c - 1.0).max(0.0);
                    }
                }
            }
        }

        fn matches(&self, id: NodeId, kws: &[KeywordId]) -> f64 {
            Self::hits(kws)
                .iter()
                .enumerate()
                .filter(|(_, &h)| h)
                .map(|(b, _)| self.rows[id as usize][b])
                .sum()
        }

        fn estimate(&self, q: &RcDvq) -> f64 {
            let range = q.range();
            let mut total = 0.0;
            let mut stack: Vec<NodeId> = vec![0];
            while let Some(id) = stack.pop() {
                let node = self.tree.node(id);
                if node.subtree <= 0.0 {
                    continue;
                }
                let coverage = match range {
                    None => 1.0,
                    Some(r) => {
                        if !node.rect.intersects(r) {
                            continue;
                        }
                        node.rect.coverage_by(r)
                    }
                };
                if node.own > 0.0 && coverage > 0.0 {
                    let weight = match q.query_type() {
                        QueryType::Spatial => node.own,
                        _ => self.matches(id, q.keywords()).min(node.own),
                    };
                    total += weight.clamp(0.0, node.own) * coverage;
                }
                if let Some(children) = node.children {
                    stack.extend_from_slice(&children);
                }
            }
            total
        }

        fn assert_table_matches(&self, a: &AaspTree) {
            assert_eq!(a.table.rows(), self.rows.len());
            for (id, row) in self.rows.iter().enumerate() {
                for (b, &count) in row.iter().enumerate() {
                    assert_eq!(f64::from(a.table.columns[b][id]).to_bits(), count.to_bits());
                }
            }
        }
    }

    fn persisted(a: &AaspTree) -> Vec<u8> {
        let mut w = PersistWriter::new();
        a.persist_state(&mut w);
        w.into_bytes()
    }

    /// `bytes` read back into a fresh estimator under `config()`.
    fn restored(bytes: &[u8]) -> Result<AaspTree, PersistError> {
        let mut a = AaspTree::new(&config());
        a.restore_state(&mut PersistReader::new(bytes))?;
        Ok(a)
    }

    #[test]
    fn estimates_bit_equal_to_per_node_reference_under_churn_and_restore() {
        use testkit::{f64_in, u32_in, usize_in, vec_of};
        check(
            "estimates_bit_equal_to_per_node_reference_under_churn_and_restore",
            12,
            |rng| {
                let cfg = config();
                let mut a = AaspTree::new(&cfg);
                let mut reference = PerNodeReference::new(&cfg);
                let mut live: std::collections::VecDeque<GeoTextObject> = Default::default();
                let steps = 500;
                let restore_at = usize_in(rng, 100..steps);
                for step in 0..steps {
                    let roll = usize_in(rng, 0..10);
                    let kws = vec_of(rng, 0..4, |rng| u32_in(rng, 0..40));
                    let side = if roll.is_multiple_of(2) { 6.0 } else { 64.0 };
                    let o = obj(
                        step as u64,
                        f64_in(rng, 0.0..side),
                        f64_in(rng, 0.0..side),
                        &kws,
                    );
                    match roll {
                        // FIFO eviction of a live object.
                        0..=2 if !live.is_empty() => {
                            let old = live.pop_front().expect("non-empty");
                            a.remove(&old);
                            reference.remove(&old);
                        }
                        // A never-counted object: its removal retires some
                        // other object's count (clamping its buckets at
                        // zero) or finds a path without mass.
                        3 => {
                            a.remove(&o);
                            reference.remove(&o);
                        }
                        _ => {
                            a.insert(&o);
                            reference.insert(&o);
                            live.push_back(o);
                        }
                    }
                    reference.assert_table_matches(&a);
                    if step == restore_at {
                        let bytes = persisted(&a);
                        a = restored(&bytes).expect("restore");
                        assert_eq!(persisted(&a), bytes);
                        reference.assert_table_matches(&a);
                    }
                    if step % 25 == 0 || step + 1 == steps {
                        for _ in 0..6 {
                            let (x, y) = (f64_in(rng, 0.0..60.0), f64_in(rng, 0.0..60.0));
                            let r = Rect::new(
                                x,
                                y,
                                (x + f64_in(rng, 0.1..40.0)).min(64.0),
                                (y + f64_in(rng, 0.1..40.0)).min(64.0),
                            );
                            let words = vec_of(rng, 1..4, |rng| KeywordId(u32_in(rng, 0..40)));
                            for q in [
                                RcDvq::spatial(r),
                                RcDvq::keyword(words.clone()),
                                RcDvq::hybrid(r, words),
                            ] {
                                assert_eq!(
                                    a.estimate(&q).to_bits(),
                                    reference.estimate(&q).to_bits(),
                                    "{q:?} at step {step}"
                                );
                            }
                        }
                    }
                }
                assert!(a.node_count() > 1, "churn never split");
            },
        );
    }

    fn churned(objects: u64) -> AaspTree {
        let mut a = AaspTree::new(&config());
        for i in 0..objects {
            let (x, y) = ((i * 29 % 64) as f64 + 0.25, (i * 43 % 64) as f64 + 0.25);
            a.insert(&obj(i, x / (1 + i % 4) as f64, y, &[(i % 80) as u32, 7]));
            if i % 3 == 0 {
                let j = i / 2;
                a.remove(&obj(
                    j,
                    (j * 29 % 64) as f64 + 0.25,
                    (j * 43 % 64) as f64 + 0.25,
                    &[],
                ));
            }
        }
        a
    }

    #[test]
    fn keyword_estimate_reads_only_query_buckets_of_nodes_with_mass() {
        let a = churned(3_000);
        let with_mass = a.tree.nodes().iter().filter(|n| n.own > 0.0).count() as u64;
        assert!(with_mass > 100 && with_mass < a.node_count() as u64);
        let reads = |q: &RcDvq| {
            COUNTERS_READ.with(|c| c.set(0));
            let _ = a.estimate(q);
            COUNTERS_READ.with(|c| c.get())
        };
        for kws in [vec![7], vec![7, 3], vec![1, 2, 3, 4, 5]] {
            let kws: Vec<KeywordId> = kws.into_iter().map(KeywordId).collect();
            let distinct = u64::from(bucket_set(&kws).count_ones());
            // The per-node formulation read all 64 counters of each of
            // these nodes; the table reads the query's columns only.
            assert_eq!(reads(&RcDvq::keyword(kws.clone())), distinct * with_mass);
            let hybrid = reads(&RcDvq::hybrid(Rect::new(0.0, 0.0, 20.0, 64.0), kws));
            assert!(hybrid > 0 && hybrid < distinct * with_mass);
        }
        assert_eq!(reads(&RcDvq::spatial(Rect::new(0.0, 0.0, 64.0, 64.0))), 0);
    }

    #[test]
    fn memory_is_one_row_per_node_without_per_node_heap() {
        let a = churned(3_000);
        let bound = a.node_count()
            * (std::mem::size_of::<crate::asp_tree::AspNode>() + BUCKETS * 4)
            + a.kmv.memory_bytes();
        assert!(a.memory_bytes() <= bound, "{} > {bound}", a.memory_bytes());
        assert_eq!(a.table.rows(), a.node_count());
    }

    #[test]
    fn restore_refuses_bucket_counts_a_u32_cannot_hold() {
        // One node (no split): its 64 counters sit right before the KMV.
        let mut a = AaspTree::new(&config());
        a.insert(&obj(0, 1.0, 1.0, &[5]));
        assert_eq!(a.node_count(), 1);
        let bytes = persisted(&a);
        let mut kmv = PersistWriter::new();
        a.kmv.persist_state(&mut kmv);
        let at = bytes.len() - kmv.len() - 8 * (BUCKETS - bucket_of(KeywordId(5)));
        let with = |count: f64| {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&count.to_bits().to_le_bytes());
            restored(&b)
        };
        // The offset is the counter's: a valid rewrite moves the estimate.
        let q = RcDvq::keyword(vec![KeywordId(5)]);
        assert_eq!(a.estimate(&q), 1.0);
        assert_eq!(with(0.0).expect("a zero count restores").estimate(&q), 0.0);
        assert!(with(f64::from(u32::MAX)).is_ok());
        for bad in [0.5, -1.0, f64::NAN, (1u64 << 40) as f64, f64::INFINITY] {
            match with(bad) {
                Err(PersistError::Corrupt { context, .. }) => {
                    assert_eq!(context, "AaspTree.bucket", "{bad}");
                }
                other => panic!("count {bad} restored as {:?}", other.map(|_| ())),
            }
        }
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

        let mut back = crate::traits::reload(&orig, AaspTree::new(&config()));
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

        // A truncated image, and a child pointer steered back up the
        // arena, surface as typed errors, not a panic or a cycle in a later
        // tree walk. The root's split is the first `true` after the
        // population, the node count and the root's two counters.
        let bytes = persisted(&orig);
        assert!(restored(&bytes[..bytes.len() - 7]).is_err());
        let mut cyclic = bytes.clone();
        let split_at = 12 + 8 + 8 + 16;
        assert_eq!(cyclic[split_at], 1, "the root is split");
        cyclic[split_at + 1..split_at + 5].copy_from_slice(&0u32.to_le_bytes());
        match restored(&cyclic) {
            Err(PersistError::Corrupt { context, .. }) => assert_eq!(context, "AspTree.nodes"),
            other => panic!(
                "a root that is its own child restored as {:?}",
                other.map(|_| ())
            ),
        }
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
