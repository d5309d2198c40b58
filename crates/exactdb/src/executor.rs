//! The exact executor — LATEST's "system logs" source and Table I's
//! full-index comparison point.
//!
//! The executor owns the shared [`ObjectStore`] ring and threads it
//! through every index update and query. It keys every index on window
//! position: an arrival is pushed at the back of the ring and of its
//! cell and postings, and an eviction takes the oldest object from the
//! front of each. Hybrid queries are routed by a
//! cost-based planner: the inverted path is priced at its live posting
//! mass, the spatial path at the candidate population of the cells or
//! subtrees the range touches, and the cheaper one runs. Per-path hit
//! counters expose the resulting path mix for the bench harness.

use crate::grid::GridIndex;
use crate::inverted::InvertedIndex;
use crate::quad::QuadtreeIndex;
use crate::store::{ObjectStore, Seq};
use geostream::obsv::Counter;
use geostream::{GeoTextObject, IdMap, ObjectId, QueryType, RcDvq, Rect};

/// Which spatial backend the executor runs on (the two index families
/// compared in Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpatialIndexKind {
    Grid,
    Quadtree,
}

impl SpatialIndexKind {
    /// Display name used in Table I output.
    pub fn name(self) -> &'static str {
        match self {
            SpatialIndexKind::Grid => "Grid",
            SpatialIndexKind::Quadtree => "QuadTree",
        }
    }
}

/// The access path the planner picked for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Walk the spatial index and verify predicates per candidate.
    Spatial,
    /// Merge the keywords' posting lists and verify the range per object.
    Inverted,
}

/// Snapshot of the per-path hit counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathMix {
    /// Queries answered through the spatial backend.
    pub spatial: u64,
    /// Queries answered through the inverted index.
    pub inverted: u64,
}

impl PathMix {
    /// Total queries executed.
    pub fn total(&self) -> u64 {
        self.spatial + self.inverted
    }
}

enum Backend {
    Grid(GridIndex),
    Quad(QuadtreeIndex),
}

impl Backend {
    fn insert(&mut self, seq: Seq, store: &ObjectStore) {
        match self {
            Backend::Grid(g) => g.insert(seq, store),
            Backend::Quad(q) => q.insert(seq, store),
        }
    }

    fn pop_front(&mut self, seq: Seq, store: &ObjectStore) -> bool {
        match self {
            Backend::Grid(g) => g.pop_front(seq, store),
            Backend::Quad(q) => q.pop_front(seq, store),
        }
    }

    fn count(&self, query: &RcDvq, store: &ObjectStore) -> u64 {
        match self {
            Backend::Grid(g) => g.count(query, store),
            Backend::Quad(q) => q.count(query, store),
        }
    }

    fn candidate_count(&self, r: &Rect) -> u64 {
        match self {
            Backend::Grid(g) => g.candidate_count(r),
            Backend::Quad(q) => q.candidate_count(r),
        }
    }

    #[cfg(feature = "debug-invariants")]
    fn audit(&self, store: &ObjectStore) -> Result<(), geostream::AuditError> {
        match self {
            Backend::Grid(g) => g.audit(store),
            Backend::Quad(q) => q.audit(store),
        }
    }
}

/// Exact RC-DVQ execution over the live window.
///
/// Owns the shared [`ObjectStore`] ring plus one spatial index and the
/// inverted keyword index (both queues of ring `seq`s), and routes each
/// query to the cheaper access path:
///
/// * pure spatial → spatial index;
/// * pure keyword → inverted index;
/// * hybrid → whichever path the cost model prices lower (live posting
///   mass vs. spatial candidate population).
pub struct ExactExecutor {
    store: ObjectStore,
    backend: Backend,
    inverted: InvertedIndex,
    /// Per-access-path query counters: pure statistics, stored in the
    /// observability layer's relaxed [`Counter`] cells. No other memory is
    /// published through them, no control flow synchronizes on them, and
    /// each counter only needs its own eventual sum — exactly the
    /// per-variable atomicity a relaxed counter guarantees. `&self` query
    /// paths stay shareable across threads without a mutex, and the
    /// metrics registry folds these into its snapshots directly.
    spatial_hits: Counter,
    inverted_hits: Counter,
}

/// Grid cells per axis for the grid backend (matches the estimator-side
/// default of a 64×64 grid).
const GRID_SIDE: usize = 64;
/// Quadtree leaf bucket capacity.
const QUAD_BUCKET: usize = 64;
/// Quadtree depth cap.
const QUAD_DEPTH: u16 = 14;

impl ExactExecutor {
    /// Builds an empty executor over `domain` with the chosen backend.
    pub fn new(domain: Rect, kind: SpatialIndexKind) -> Self {
        let backend = match kind {
            SpatialIndexKind::Grid => Backend::Grid(GridIndex::new(domain, GRID_SIDE)),
            SpatialIndexKind::Quadtree => {
                Backend::Quad(QuadtreeIndex::new(domain, QUAD_BUCKET, QUAD_DEPTH))
            }
        };
        ExactExecutor {
            store: ObjectStore::new(),
            backend,
            inverted: InvertedIndex::new(),
            spatial_hits: Counter::new(),
            inverted_hits: Counter::new(),
        }
    }

    /// The backend in use.
    pub fn kind(&self) -> SpatialIndexKind {
        match self.backend {
            Backend::Grid(_) => SpatialIndexKind::Grid,
            Backend::Quad(_) => SpatialIndexKind::Quadtree,
        }
    }

    /// Number of indexed window objects (the ring's live population —
    /// the single source of truth; indexes cannot drift from it).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the executor holds no objects.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Identity of the oldest indexed object: the only one an eviction
    /// may take.
    pub fn oldest(&self) -> Option<ObjectId> {
        self.store.oldest()
    }

    /// Identity of the newest indexed object.
    pub fn newest(&self) -> Option<ObjectId> {
        self.store.newest()
    }

    /// Deep cross-structure invariant walk (the `debug-invariants`
    /// auditor): the ring's shape and occupancy, then every cell (or leaf)
    /// and posting against it — age order over live objects, each `seq` in
    /// the cell its location maps to, the cells holding the ring's
    /// population, and every live object posted exactly once under each of
    /// its keywords.
    #[cfg(feature = "debug-invariants")]
    pub fn audit(&self) -> Result<(), geostream::AuditError> {
        self.store.audit()?;
        self.backend.audit(&self.store)?;
        self.inverted.audit(&self.store)
    }

    /// Indexes an arriving window object at the back of the ring. An object
    /// whose id is already live is another entry: the window holds both.
    pub fn insert(&mut self, obj: &GeoTextObject) {
        let seq = self.store.push(obj);
        self.backend.insert(seq, &self.store);
        self.inverted.insert(seq, &self.store);
    }

    /// Indexes a batch of arriving objects (one pass, amortizing the
    /// per-call dispatch for ingest-heavy upkeep).
    pub fn insert_batch(&mut self, objs: &[GeoTextObject]) {
        for obj in objs {
            self.insert(obj);
        }
    }

    /// Drops an evicted window object, which must be the oldest (see
    /// [`Self::remove_by_oid`]). Returns whether it was.
    pub fn remove(&mut self, obj: &GeoTextObject) -> bool {
        self.remove_by_oid(obj.oid)
    }

    /// Drops a batch of evicted objects, oldest first — the order the
    /// window evicts them in.
    pub fn remove_batch(&mut self, objs: &[GeoTextObject]) {
        for obj in objs {
            self.remove_by_oid(obj.oid);
        }
    }

    /// Evicts the oldest indexed object if its id is `oid`, and returns
    /// whether it did. Any other object is refused and nothing changes:
    /// the window evicts only its oldest object, so that is all the
    /// executor supports.
    ///
    /// The object leaves the front of its cell (or leaf) and of each of
    /// its keywords' postings, then the ring; the indexes read its columns
    /// before the ring drops them.
    pub fn remove_by_oid(&mut self, oid: ObjectId) -> bool {
        let Some(seq) = self.store.front().filter(|&seq| self.store.oid(seq) == oid) else {
            return false;
        };
        let in_cell = self.backend.pop_front(seq, &self.store);
        debug_assert!(in_cell, "seq {seq} is not the front of its cell");
        self.inverted.pop_front(seq, &self.store);
        self.store.pop_front();
        true
    }

    /// The access path the planner would pick for `query`, by comparing
    /// the live posting mass of its keywords against the candidate
    /// population of the cells/subtrees its range touches.
    pub fn plan(&self, query: &RcDvq) -> AccessPath {
        match query.query_type() {
            QueryType::Spatial => AccessPath::Spatial,
            QueryType::Keyword => AccessPath::Inverted,
            QueryType::Hybrid => {
                let inverted_cost = self.inverted.candidate_cost(query.keywords());
                let spatial_cost = query
                    .range()
                    .map_or(u64::MAX, |r| self.backend.candidate_count(r));
                if inverted_cost <= spatial_cost {
                    AccessPath::Inverted
                } else {
                    AccessPath::Spatial
                }
            }
        }
    }

    /// Executes `query` exactly, returning the true selectivity — the
    /// number the paper reads out of the system logs.
    pub fn execute(&self, query: &RcDvq) -> u64 {
        match self.plan(query) {
            AccessPath::Spatial => {
                self.spatial_hits.inc();
                self.backend.count(query, &self.store)
            }
            AccessPath::Inverted => {
                self.inverted_hits.inc();
                self.inverted_count(query)
            }
        }
    }

    /// The inverted-path count behind its planner precondition: the
    /// cost-based planner only routes keyword-bearing queries here.
    fn inverted_count(&self, query: &RcDvq) -> u64 {
        self.inverted
            .count(query, &self.store)
            // LINT-ALLOW(no-panic): the planner returns Inverted only for keyword-bearing queries
            .expect("planner only routes keyword-bearing queries here")
    }

    /// Executes a batch of queries, returning each exact selectivity in
    /// input order.
    ///
    /// Answer- and counter-equivalent to calling
    /// [`ExactExecutor::execute`] once per query — identical counts, and
    /// one per-path counter increment per *input* query — but amortized:
    /// the cost-based planner runs once per distinct query (duplicates
    /// inherit the plan and share a single index count, since the
    /// planner and counts are pure reads of unchanging state), and the
    /// distinct queries run grouped by access path so each index's
    /// working set stays hot across its group.
    pub fn execute_batch(&self, queries: &[RcDvq]) -> Vec<u64> {
        let mut results = vec![0u64; queries.len()];
        // signature → distinct first occurrences with that signature
        // (nearly always one; equality-checked so a 64-bit hash
        // collision can never alias two different queries).
        let mut first_of: IdMap<u64, Vec<usize>> =
            IdMap::with_capacity_and_hasher(queries.len(), Default::default());
        let mut dup_of: Vec<usize> = (0..queries.len()).collect();
        let mut plan_of: Vec<AccessPath> = Vec::with_capacity(queries.len());
        let mut spatial_group: Vec<usize> = Vec::new();
        let mut inverted_group: Vec<usize> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let firsts = first_of.entry(q.signature().0).or_default();
            if let Some(&fi) = firsts.iter().find(|&&fi| queries[fi] == *q) {
                dup_of[i] = fi;
                plan_of.push(plan_of[fi]);
            } else {
                firsts.push(i);
                let plan = self.plan(q);
                plan_of.push(plan);
                match plan {
                    AccessPath::Spatial => spatial_group.push(i),
                    AccessPath::Inverted => inverted_group.push(i),
                }
            }
        }
        for plan in &plan_of {
            match plan {
                AccessPath::Spatial => self.spatial_hits.inc(),
                AccessPath::Inverted => self.inverted_hits.inc(),
            }
        }
        for &i in &spatial_group {
            results[i] = self.backend.count(&queries[i], &self.store);
        }
        for &i in &inverted_group {
            results[i] = self.inverted_count(&queries[i]);
        }
        for i in 0..queries.len() {
            if dup_of[i] != i {
                results[i] = results[dup_of[i]];
            }
        }
        results
    }

    /// Executes strictly through the spatial backend (even for hybrid
    /// queries) — used by the Table I harness to price the spatial index's
    /// own access path.
    pub fn execute_spatial_path(&self, query: &RcDvq) -> u64 {
        self.backend.count(query, &self.store)
    }

    /// Snapshot of how many queries each access path has served.
    pub fn path_mix(&self) -> PathMix {
        // A snapshot taken while queries run may split a concurrent
        // increment between the two relaxed cells, which is inherent to
        // any non-locking pair of counters and fine for statistics.
        PathMix {
            spatial: self.spatial_hits.get(),
            inverted: self.inverted_hits.get(),
        }
    }

    /// Resets the path-mix counters (bench warmup isolation). Callers
    /// quiesce queries around a reset (bench warmup boundaries).
    pub fn reset_path_mix(&self) {
        self.spatial_hits.reset();
        self.inverted_hits.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::{KeywordId, Point, Timestamp};

    const DOMAIN: Rect = Rect {
        min_x: 0.0,
        min_y: 0.0,
        max_x: 100.0,
        max_y: 100.0,
    };

    fn obj(id: u64, x: f64, y: f64, kws: &[u32]) -> GeoTextObject {
        GeoTextObject::new(
            ObjectId(id),
            Point::new(x, y),
            kws.iter().copied().map(KeywordId).collect(),
            Timestamp::ZERO,
        )
    }

    fn populate(e: &mut ExactExecutor) {
        for i in 0..200u64 {
            let x = (i % 100) as f64;
            let kws = [(i % 10) as u32];
            e.insert(&obj(i, x, x / 2.0, &kws));
        }
    }

    /// Every backend's executor stays audit-clean through sliding-window
    /// churn: arrivals with few distinct keywords (long shared postings),
    /// evictions from the front in runs, drains of consumed prefixes, ring
    /// growth, and refused evictions of objects that are not the oldest.
    #[cfg(feature = "debug-invariants")]
    #[test]
    fn audit_passes_under_churn_on_every_backend() {
        for kind in [SpatialIndexKind::Grid, SpatialIndexKind::Quadtree] {
            let mut e = ExactExecutor::new(DOMAIN, kind);
            let mut state = 0x5eedu64;
            let mut live = std::collections::VecDeque::new();
            for i in 0..1_500u64 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let r = state >> 11;
                if live.len() > 50 && r.is_multiple_of(3) {
                    for _ in 0..r % 4 {
                        let Some(oldest) = live.pop_front() else {
                            break;
                        };
                        assert!(e.remove_by_oid(ObjectId(oldest)));
                    }
                    if live.len() > 1 {
                        let younger = *live.back().unwrap();
                        assert!(!e.remove_by_oid(ObjectId(younger)), "{kind:?} step {i}");
                    }
                } else {
                    let kws = [(r % 6) as u32];
                    e.insert(&obj(i, (r % 100) as f64, (r % 97) as f64, &kws));
                    live.push_back(i);
                }
                if i % 200 == 0 {
                    e.audit()
                        .unwrap_or_else(|err| panic!("{kind:?} step {i}: {err}"));
                }
            }
            assert_eq!(e.len(), live.len());
            e.audit()
                .unwrap_or_else(|err| panic!("{kind:?} final: {err}"));
        }
    }

    /// The Relaxed path-mix counters lose no increments under concurrent
    /// queries: per-counter atomicity is all their exactness relies on
    /// (no cross-counter ordering is claimed — see the field docs).
    #[test]
    fn path_mix_counters_are_exact_under_concurrent_queries() {
        let mut e = ExactExecutor::new(DOMAIN, SpatialIndexKind::Grid);
        populate(&mut e);
        const THREADS: usize = 8;
        const PER_THREAD: usize = 250;
        let e = &e;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Alternate access paths so both counters race.
                        let q = if (t + i) % 2 == 0 {
                            RcDvq::spatial(Rect::new(0.0, 0.0, 50.0, 50.0))
                        } else {
                            RcDvq::keyword(vec![KeywordId(((t + i) % 10) as u32)])
                        };
                        let _ = e.execute(&q);
                    }
                });
            }
        });
        let mix = e.path_mix();
        assert_eq!(mix.total(), (THREADS * PER_THREAD) as u64);
        assert_eq!(mix.spatial, (THREADS * PER_THREAD / 2) as u64);
        assert_eq!(mix.inverted, (THREADS * PER_THREAD / 2) as u64);
    }

    #[test]
    fn backends_agree_on_all_query_types() {
        let mut grid = ExactExecutor::new(DOMAIN, SpatialIndexKind::Grid);
        let mut quad = ExactExecutor::new(DOMAIN, SpatialIndexKind::Quadtree);
        populate(&mut grid);
        populate(&mut quad);
        let queries = [
            RcDvq::spatial(Rect::new(10.0, 0.0, 42.0, 30.0)),
            RcDvq::keyword(vec![KeywordId(3), KeywordId(7)]),
            RcDvq::hybrid(Rect::new(0.0, 0.0, 50.0, 50.0), vec![KeywordId(1)]),
        ];
        for q in &queries {
            assert_eq!(
                grid.execute(q),
                quad.execute(q),
                "backends disagree on {q:?}"
            );
        }
        assert_eq!(grid.kind(), SpatialIndexKind::Grid);
        assert_eq!(quad.kind(), SpatialIndexKind::Quadtree);
    }

    #[test]
    fn executor_matches_brute_force() {
        let mut e = ExactExecutor::new(DOMAIN, SpatialIndexKind::Grid);
        let mut all = Vec::new();
        let mut s = 17u64;
        for i in 0..500u64 {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let x = (s >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let y = (s >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
            let o = obj(i, x, y, &[(i % 23) as u32, (i % 7) as u32]);
            e.insert(&o);
            all.push(o);
        }
        let queries = [
            RcDvq::spatial(Rect::new(20.0, 20.0, 70.0, 55.0)),
            RcDvq::keyword(vec![KeywordId(5)]),
            RcDvq::hybrid(
                Rect::new(0.0, 0.0, 60.0, 60.0),
                vec![KeywordId(2), KeywordId(11)],
            ),
        ];
        for q in &queries {
            let brute = all.iter().filter(|o| q.matches(o)).count() as u64;
            assert_eq!(e.execute(q), brute, "mismatch on {q:?}");
            // The pure spatial path must agree too (slower, same answer).
            assert_eq!(e.execute_spatial_path(q), brute);
        }
    }

    #[test]
    fn window_eviction_keeps_exactness() {
        let mut e = ExactExecutor::new(DOMAIN, SpatialIndexKind::Quadtree);
        let objects: Vec<_> = (0..100).map(|i| obj(i, 50.0, 50.0, &[1])).collect();
        for o in &objects {
            e.insert(o);
        }
        for o in objects.iter().take(60) {
            e.remove(o);
        }
        assert_eq!(e.len(), 40);
        assert_eq!(e.execute(&RcDvq::keyword(vec![KeywordId(1)])), 40);
        assert_eq!(
            e.execute(&RcDvq::spatial(Rect::new(0.0, 0.0, 100.0, 100.0))),
            40
        );
    }

    #[test]
    fn batch_ops_match_singles() {
        let mut single = ExactExecutor::new(DOMAIN, SpatialIndexKind::Quadtree);
        let mut batched = ExactExecutor::new(DOMAIN, SpatialIndexKind::Quadtree);
        let objects: Vec<_> = (0..300u64)
            .map(|i| obj(i, (i % 100) as f64, (i % 37) as f64, &[(i % 5) as u32]))
            .collect();
        for o in &objects {
            single.insert(o);
        }
        batched.insert_batch(&objects);
        for o in objects.iter().take(120) {
            single.remove(o);
        }
        batched.remove_batch(&objects[..120]);
        assert_eq!(single.len(), batched.len());
        for q in [
            RcDvq::spatial(Rect::new(0.0, 0.0, 50.0, 50.0)),
            RcDvq::keyword(vec![KeywordId(2)]),
            RcDvq::hybrid(Rect::new(10.0, 0.0, 80.0, 30.0), vec![KeywordId(1)]),
        ] {
            assert_eq!(single.execute(&q), batched.execute(&q));
        }
    }

    /// `execute_batch` returns the same answers and drives the same
    /// per-path counters as one-at-a-time execution, on every backend,
    /// including duplicate queries inside the batch.
    #[test]
    fn execute_batch_matches_singles_and_counters() {
        for kind in [SpatialIndexKind::Grid, SpatialIndexKind::Quadtree] {
            let mut e = ExactExecutor::new(DOMAIN, kind);
            populate(&mut e);
            let batch = vec![
                RcDvq::spatial(Rect::new(10.0, 0.0, 42.0, 30.0)),
                RcDvq::keyword(vec![KeywordId(3), KeywordId(7)]),
                RcDvq::hybrid(Rect::new(0.0, 0.0, 50.0, 50.0), vec![KeywordId(1)]),
                // Duplicates: shared count, separate counter increments.
                RcDvq::spatial(Rect::new(10.0, 0.0, 42.0, 30.0)),
                RcDvq::keyword(vec![KeywordId(3), KeywordId(7)]),
                RcDvq::hybrid(Rect::new(0.0, 0.0, 100.0, 100.0), vec![KeywordId(9)]),
            ];
            e.reset_path_mix();
            let singles: Vec<u64> = batch.iter().map(|q| e.execute(q)).collect();
            let singles_mix = e.path_mix();
            e.reset_path_mix();
            let batched = e.execute_batch(&batch);
            assert_eq!(batched, singles, "{kind:?} answers diverged");
            assert_eq!(e.path_mix(), singles_mix, "{kind:?} counters diverged");
            assert_eq!(e.path_mix().total(), batch.len() as u64);
        }
    }

    /// A repeated live id is a second entry, as it is in the window: both
    /// copies count until each leaves, and each eviction takes the oldest
    /// copy.
    #[test]
    fn duplicate_oid_is_a_second_entry() {
        let mut e = ExactExecutor::new(DOMAIN, SpatialIndexKind::Grid);
        e.insert(&obj(7, 10.0, 10.0, &[1]));
        e.insert(&obj(7, 90.0, 90.0, &[2]));
        assert_eq!(e.len(), 2);
        let west = RcDvq::spatial(Rect::new(0.0, 0.0, 20.0, 20.0));
        let east = RcDvq::spatial(Rect::new(80.0, 80.0, 100.0, 100.0));
        assert_eq!((e.execute(&west), e.execute(&east)), (1, 1));
        assert_eq!(e.execute(&RcDvq::keyword(vec![KeywordId(1)])), 1);
        assert_eq!(e.execute(&RcDvq::keyword(vec![KeywordId(2)])), 1);
        assert!(e.remove_by_oid(ObjectId(7)));
        assert_eq!((e.execute(&west), e.execute(&east)), (0, 1));
        assert_eq!(e.execute(&RcDvq::keyword(vec![KeywordId(1)])), 0);
        assert!(e.remove_by_oid(ObjectId(7)));
        assert!(e.is_empty());
    }

    /// Only the oldest object may leave: anything else is refused, and
    /// every structure stays as it was.
    #[test]
    fn evicting_a_younger_object_is_refused() {
        for kind in [SpatialIndexKind::Grid, SpatialIndexKind::Quadtree] {
            let mut e = ExactExecutor::new(DOMAIN, kind);
            populate(&mut e);
            let queries = [
                RcDvq::spatial(Rect::new(0.0, 0.0, 50.0, 50.0)),
                RcDvq::keyword(vec![KeywordId(1), KeywordId(4)]),
                RcDvq::hybrid(Rect::new(0.0, 0.0, 100.0, 100.0), vec![KeywordId(0)]),
            ];
            let before: Vec<u64> = queries.iter().map(|q| e.execute(q)).collect();
            assert!(!e.remove_by_oid(ObjectId(5)), "{kind:?}");
            assert!(!e.remove(&obj(199, 99.0, 49.5, &[9])), "{kind:?}");
            assert_eq!(e.len(), 200);
            assert_eq!(
                (e.oldest(), e.newest()),
                (Some(ObjectId(0)), Some(ObjectId(199)))
            );
            let after: Vec<u64> = queries.iter().map(|q| e.execute(q)).collect();
            assert_eq!(before, after, "{kind:?}");
            assert!(e.remove_by_oid(ObjectId(0)));
            assert_eq!(e.oldest(), Some(ObjectId(1)));
        }
    }

    /// Where the upkeep saving comes from: n arrivals carrying k keywords
    /// in total, then n evictions, are n + k queue pushes and n + k front
    /// pops — one per cell and per posting, with no search and no insert
    /// into the middle of a list — and the drains of consumed prefixes
    /// move no more entries than were popped.
    #[test]
    fn upkeep_is_one_push_and_one_pop_per_cell_and_posting() {
        let before = crate::store::QueueOps::get();
        let mut e = ExactExecutor::new(DOMAIN, SpatialIndexKind::Grid);
        let objects: Vec<_> = (0..3_000u64)
            .map(|i| {
                let kws: Vec<u32> = (0..i % 4).map(|j| ((i * 7 + j * 13) % 50) as u32).collect();
                obj(i, (i * 37 % 100) as f64, (i * 11 % 100) as f64, &kws)
            })
            .collect();
        let n = objects.len() as u64;
        let k: u64 = objects.iter().map(|o| o.keywords.len() as u64).sum();
        e.insert_batch(&objects);
        e.remove_batch(&objects);
        assert!(e.is_empty());
        let ops = crate::store::QueueOps::get();
        assert_eq!(ops.pushes - before.pushes, n + k);
        assert_eq!(ops.pops - before.pops, n + k);
        assert!(ops.shifted - before.shifted <= ops.pops - before.pops);
    }

    #[test]
    fn removal_accounting_stays_consistent() {
        // Regression: the pre-store executor decremented `len` only when
        // the spatial side removed, while the inverted side removed
        // unconditionally — the two could drift. Length now comes from
        // the store, and a missing object is a clean no-op everywhere.
        let mut e = ExactExecutor::new(DOMAIN, SpatialIndexKind::Grid);
        let o = obj(1, 5.0, 5.0, &[3]);
        e.insert(&o);
        assert!(e.remove_by_oid(o.oid));
        assert!(!e.remove_by_oid(o.oid), "second removal must be a no-op");
        assert_eq!(e.len(), 0);
        assert_eq!(e.execute(&RcDvq::keyword(vec![KeywordId(3)])), 0);
        // Removing something never inserted is also a clean no-op.
        assert!(!e.remove_by_oid(ObjectId(999)));
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn planner_routes_by_cost() {
        let mut e = ExactExecutor::new(DOMAIN, SpatialIndexKind::Grid);
        // 500 objects with a hot keyword crammed into one corner cell,
        // 5 objects with a rare keyword spread wide.
        for i in 0..500u64 {
            e.insert(&obj(i, 1.0, 1.0, &[0]));
        }
        for i in 500..505u64 {
            e.insert(&obj(i, (i % 100) as f64, 50.0, &[9]));
        }
        // Rare keyword over a huge range: posting list (5) beats the
        // spatial candidates (~505).
        let rare = RcDvq::hybrid(Rect::new(0.0, 0.0, 100.0, 100.0), vec![KeywordId(9)]);
        assert_eq!(e.plan(&rare), AccessPath::Inverted);
        // Hot keyword over a tiny range away from the cluster: the range
        // touches almost nothing, the posting list holds 500.
        let hot = RcDvq::hybrid(Rect::new(60.0, 60.0, 61.0, 61.0), vec![KeywordId(0)]);
        assert_eq!(e.plan(&hot), AccessPath::Spatial);
        // Both paths agree on the answer regardless of routing.
        assert_eq!(e.execute(&rare), 5);
        assert_eq!(e.execute(&hot), 0);
        let mix = e.path_mix();
        assert_eq!(
            mix,
            PathMix {
                spatial: 1,
                inverted: 1
            }
        );
        assert_eq!(mix.total(), 2);
        e.reset_path_mix();
        assert_eq!(e.path_mix().total(), 0);
    }
}
