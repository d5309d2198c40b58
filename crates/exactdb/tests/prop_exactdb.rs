//! Property-based churn tests for the slot-based exact executor: an
//! arbitrary interleaving of inserts, removals, and window slides must
//! leave every spatial backend — and the cost-based planner routing on
//! top of them — in exact agreement with a brute-force scan of the live
//! population.

use exactdb::grid::GridIndex;
use exactdb::quad::QuadtreeIndex;
use exactdb::{AccessPath, ExactExecutor, ObjectStore, SpatialIndexKind};
use geostream::{GeoTextObject, KeywordId, ObjectId, Point, RcDvq, Rect, StreamRng, Timestamp};
use std::collections::BTreeMap;
use testkit::{check, f64_in, grid_case, u32_in, usize_in, vec_of};

const DOMAIN: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 100.0,
    max_y: 100.0,
};

/// One step of window churn.
#[derive(Debug, Clone)]
enum Op {
    /// A fresh arrival at the given location with the given keywords.
    Insert { loc: Point, kws: Vec<u32> },
    /// Evict the i-th oldest live object (modulo the live population).
    RemoveOldest(usize),
    /// Slide: evict the oldest `n` live objects at once (a window
    /// advance evicting a batch).
    Advance(usize),
}

fn arb_point(rng: &mut StreamRng) -> Point {
    Point::new(f64_in(rng, 0.0..100.0), f64_in(rng, 0.0..100.0))
}

fn arb_insert(rng: &mut StreamRng) -> (Point, Vec<u32>) {
    (arb_point(rng), vec_of(rng, 0..4, |rng| u32_in(rng, 0..20)))
}

fn arb_op(rng: &mut StreamRng) -> Op {
    // Four in seven are arrivals, two single evictions, one a slide.
    match rng.gen_range_u32(0..7) {
        0..=3 => {
            let (loc, kws) = arb_insert(rng);
            Op::Insert { loc, kws }
        }
        4 | 5 => Op::RemoveOldest(usize_in(rng, 0..64)),
        _ => Op::Advance(usize_in(rng, 1..24)),
    }
}

fn arb_rect(rng: &mut StreamRng) -> Rect {
    let (x, y) = (f64_in(rng, 0.0..90.0), f64_in(rng, 0.0..90.0));
    let (w, h) = (f64_in(rng, 0.5..50.0), f64_in(rng, 0.5..50.0));
    Rect::new(x, y, (x + w).min(100.0), (y + h).min(100.0))
}

fn arb_keywords(rng: &mut StreamRng) -> Vec<KeywordId> {
    vec_of(rng, 1..4, |rng| KeywordId(u32_in(rng, 0..20)))
}

fn arb_query(rng: &mut StreamRng) -> RcDvq {
    match rng.gen_range_u32(0..3) {
        0 => RcDvq::spatial(arb_rect(rng)),
        1 => RcDvq::keyword(arb_keywords(rng)),
        _ => RcDvq::hybrid(arb_rect(rng), arb_keywords(rng)),
    }
}

/// Replays the op sequence on both backends and a brute-force
/// oracle, checking exactness after the churn settles.
fn run_churn(ops: &[Op], queries: &[RcDvq]) {
    let mut executors = [
        ExactExecutor::new(DOMAIN, SpatialIndexKind::Grid),
        ExactExecutor::new(DOMAIN, SpatialIndexKind::Quadtree),
    ];
    // Brute-force oracle: oid → object, in insertion (= age) order.
    let mut oracle: BTreeMap<u64, GeoTextObject> = BTreeMap::new();
    let mut next_id = 0u64;
    for op in ops {
        match op {
            Op::Insert { loc, kws } => {
                let o = GeoTextObject::new(
                    ObjectId(next_id),
                    *loc,
                    kws.iter().copied().map(KeywordId).collect(),
                    Timestamp(next_id),
                );
                next_id += 1;
                for e in &mut executors {
                    e.insert(&o);
                }
                oracle.insert(o.oid.0, o);
            }
            Op::RemoveOldest(i) => {
                if oracle.is_empty() {
                    continue;
                }
                let idx = i % oracle.len();
                let oid = *oracle.keys().nth(idx).expect("index in range");
                let o = oracle.remove(&oid).expect("key exists");
                for e in &mut executors {
                    e.remove(&o);
                }
            }
            Op::Advance(n) => {
                let batch: Vec<GeoTextObject> = oracle
                    .keys()
                    .take(*n)
                    .copied()
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|oid| oracle.remove(&oid).expect("key exists"))
                    .collect();
                for e in &mut executors {
                    e.remove_batch(&batch);
                }
            }
        }
    }
    for e in &executors {
        assert_eq!(e.len(), oracle.len(), "{} length drifted", e.kind().name());
    }
    for q in queries {
        let brute = oracle.values().filter(|o| q.matches(o)).count() as u64;
        for e in &executors {
            assert_eq!(
                e.execute(q),
                brute,
                "{} (via {:?} path) wrong on {:?}",
                e.kind().name(),
                e.plan(q),
                q
            );
            // Both access paths must agree regardless of what the
            // planner picked for this query.
            if matches!(e.plan(q), AccessPath::Inverted) {
                assert_eq!(e.execute_spatial_path(q), brute);
            }
        }
    }
}

const CASES: u32 = 64;

#[test]
fn churn_keeps_every_backend_exact() {
    check("churn_keeps_every_backend_exact", CASES, |rng| {
        let ops = vec_of(rng, 1..250, arb_op);
        let queries = vec_of(rng, 1..6, arb_query);
        run_churn(&ops, &queries);
    });
}

#[test]
fn heavy_eviction_churn_is_exact() {
    check("heavy_eviction_churn_is_exact", CASES, |rng| {
        let inserts = vec_of(rng, 50..150, arb_insert);
        let queries = vec_of(rng, 1..6, arb_query);
        // Sliding-window shape: every insert past a capacity of 30 evicts
        // the oldest object, so most slots recycle at least once.
        let mut ops = Vec::new();
        for (i, (loc, kws)) in inserts.into_iter().enumerate() {
            ops.push(Op::Insert { loc, kws });
            if i >= 30 {
                ops.push(Op::Advance(1));
            }
        }
        run_churn(&ops, &queries);
    });
}

/// The cell-resolved kernel on every grid side, with objects and rectangle
/// edges on cell boundaries, their neighbouring floats and the domain
/// edge: a covered cell may be counted unread only if it really holds
/// nothing but matches, and no match may fall outside the cover. The
/// quadtree takes the same cases (a small bucket, so the tree is deep):
/// objects beyond the domain sit in its edge leaves, and a range that
/// reaches past the domain must still find them.
#[test]
fn cell_resolved_counts_match_brute_force() {
    check("cell_resolved_counts_match_brute_force", 256, |rng| {
        let case = grid_case(rng);
        let mut store = ObjectStore::new();
        let mut grid = GridIndex::new(case.domain, case.side);
        let mut quad = QuadtreeIndex::new(case.domain, 4, 14);
        let mut executors = [
            ExactExecutor::new(case.domain, SpatialIndexKind::Grid),
            ExactExecutor::new(case.domain, SpatialIndexKind::Quadtree),
        ];
        for o in &case.objects {
            let slot = store.insert(o.clone());
            grid.insert(slot, &store);
            quad.insert(slot, &store);
            for e in &mut executors {
                e.insert(o);
            }
        }
        for q in &case.queries {
            let brute = case.objects.iter().filter(|o| q.matches(o)).count() as u64;
            assert_eq!(grid.count(q, &store), brute, "side {} on {q:?}", case.side);
            assert_eq!(quad.count(q, &store), brute, "quadtree on {q:?}");
            for e in &executors {
                let name = e.kind().name();
                assert_eq!(e.execute(q), brute, "{name} planned path on {q:?}");
                assert_eq!(
                    e.execute_spatial_path(q),
                    brute,
                    "{name} spatial path on {q:?}"
                );
            }
            if let Some(r) = q.range() {
                // The planner prices the spatial path with these: a cost
                // below the count would route hybrids on a wrong number.
                assert!(
                    grid.candidate_count(r) >= brute,
                    "grid cost below count on {q:?}"
                );
                assert!(
                    quad.candidate_count(r) >= brute,
                    "quadtree cost below count on {q:?}"
                );
            }
        }
    });
}
