//! Property-based churn tests for the arrival-order exact executor: an
//! arbitrary interleaving of arrivals (some repeating a live id),
//! evictions of the oldest object, window slides, and refused evictions of
//! younger objects must leave every spatial backend — and the cost-based
//! planner routing on top of them — in exact agreement with a brute-force
//! scan of the live population.

use exactdb::grid::GridIndex;
use exactdb::quad::QuadtreeIndex;
use exactdb::{AccessPath, ExactExecutor, ObjectStore, SpatialIndexKind};
use geostream::{GeoTextObject, KeywordId, ObjectId, Point, RcDvq, Rect, StreamRng, Timestamp};
use std::collections::VecDeque;
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
    /// An arrival at the given location with the given keywords; with
    /// `repeat`, it reuses the id of the i-th oldest live object (modulo
    /// the live population).
    Insert {
        loc: Point,
        kws: Vec<u32>,
        repeat: Option<usize>,
    },
    /// Evict the oldest live object.
    RemoveOldest,
    /// Slide: evict the oldest `n` live objects at once (a window
    /// advance evicting a batch).
    Advance(usize),
    /// Try to evict the i-th oldest live object (modulo the live
    /// population): refused unless it shares the oldest's id.
    RemoveYounger(usize),
}

fn arb_point(rng: &mut StreamRng) -> Point {
    Point::new(f64_in(rng, 0.0..100.0), f64_in(rng, 0.0..100.0))
}

fn arb_insert(rng: &mut StreamRng) -> (Point, Vec<u32>) {
    (arb_point(rng), vec_of(rng, 0..4, |rng| u32_in(rng, 0..20)))
}

fn arb_op(rng: &mut StreamRng) -> Op {
    // Eight in fourteen are arrivals (one of them repeating an id), two
    // single evictions, two slides, two refused evictions.
    match rng.gen_range_u32(0..14) {
        0..=7 => {
            let (loc, kws) = arb_insert(rng);
            let repeat = rng.gen_bool(0.125).then(|| usize_in(rng, 0..64));
            Op::Insert { loc, kws, repeat }
        }
        8 | 9 => Op::RemoveOldest,
        10 | 11 => Op::Advance(usize_in(rng, 1..24)),
        _ => Op::RemoveYounger(usize_in(rng, 1..64)),
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
    // Brute-force oracle: the live objects in arrival (= age) order.
    let mut oracle: VecDeque<GeoTextObject> = VecDeque::new();
    let mut next_id = 0u64;
    for op in ops {
        match op {
            Op::Insert { loc, kws, repeat } => {
                let oid = match repeat {
                    Some(i) if !oracle.is_empty() => oracle[i % oracle.len()].oid,
                    _ => {
                        next_id += 1;
                        ObjectId(next_id)
                    }
                };
                let o = GeoTextObject::new(
                    oid,
                    *loc,
                    kws.iter().copied().map(KeywordId).collect(),
                    Timestamp(next_id),
                );
                for e in &mut executors {
                    e.insert(&o);
                }
                oracle.push_back(o);
            }
            Op::RemoveOldest => {
                let Some(o) = oracle.pop_front() else {
                    continue;
                };
                for e in &mut executors {
                    assert!(e.remove(&o), "{} refused the oldest", e.kind().name());
                }
            }
            Op::Advance(n) => {
                let n = (*n).min(oracle.len());
                let batch: Vec<GeoTextObject> = oracle.drain(..n).collect();
                for e in &mut executors {
                    e.remove_batch(&batch);
                }
            }
            Op::RemoveYounger(i) => {
                if oracle.len() < 2 {
                    continue;
                }
                let target = oracle[1 + i % (oracle.len() - 1)].clone();
                let takes_oldest = target.oid == oracle[0].oid;
                for e in &mut executors {
                    assert_eq!(e.remove(&target), takes_oldest, "{}", e.kind().name());
                }
                if takes_oldest {
                    oracle.pop_front();
                }
            }
        }
    }
    for e in &executors {
        let name = e.kind().name();
        assert_eq!(e.len(), oracle.len(), "{name} length drifted");
        assert_eq!(e.oldest(), oracle.front().map(|o| o.oid), "{name} oldest");
        assert_eq!(e.newest(), oracle.back().map(|o| o.oid), "{name} newest");
        #[cfg(feature = "debug-invariants")]
        e.audit().unwrap_or_else(|err| panic!("{name}: {err}"));
    }
    for q in queries {
        let brute = oracle.iter().filter(|o| q.matches(o)).count() as u64;
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
        // the oldest object, so the ring wraps several times.
        let mut ops = Vec::new();
        for (i, (loc, kws)) in inserts.into_iter().enumerate() {
            ops.push(Op::Insert {
                loc,
                kws,
                repeat: None,
            });
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
            let seq = store.push(o);
            grid.insert(seq, &store);
            quad.insert(seq, &store);
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
