//! Property-based invariants across the workspace's core data
//! structures: exactness of the executor against brute force, estimator
//! bounds, window semantics, geometry algebra, and learner robustness.

use estimators::{build_estimator, EstimatorConfig, EstimatorKind};
use exactdb::{ExactExecutor, SpatialIndexKind};
use geostream::{
    Duration, GeoTextObject, KeywordId, ObjectId, Point, RcDvq, Rect, SlidingWindow, StreamRng,
    Timestamp,
};
use hoeffding::{AttributeSpec, HoeffdingTree, HoeffdingTreeConfig, Schema, Value};
use testkit::{check, f64_in, u32_in, u64_in, vec_of};

const DOMAIN: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 100.0,
    max_y: 100.0,
};

fn arb_point(rng: &mut StreamRng) -> Point {
    Point::new(f64_in(rng, 0.0..100.0), f64_in(rng, 0.0..100.0))
}

fn arb_rect(rng: &mut StreamRng) -> Rect {
    let (x, y) = (f64_in(rng, 0.0..90.0), f64_in(rng, 0.0..90.0));
    let (w, h) = (f64_in(rng, 0.5..40.0), f64_in(rng, 0.5..40.0));
    Rect::new(x, y, (x + w).min(100.0), (y + h).min(100.0))
}

fn arb_keywords(rng: &mut StreamRng, min: usize) -> Vec<KeywordId> {
    vec_of(rng, min..4, |rng| KeywordId(u32_in(rng, 0..30)))
}

fn arb_object(rng: &mut StreamRng, id: u64) -> GeoTextObject {
    GeoTextObject::new(
        ObjectId(id),
        arb_point(rng),
        arb_keywords(rng, 0),
        Timestamp(id),
    )
}

fn arb_objects(rng: &mut StreamRng, n: usize) -> Vec<GeoTextObject> {
    (0..n as u64).map(|id| arb_object(rng, id)).collect()
}

fn arb_query(rng: &mut StreamRng) -> RcDvq {
    match rng.gen_range_u32(0..3) {
        0 => RcDvq::spatial(arb_rect(rng)),
        1 => RcDvq::keyword(arb_keywords(rng, 1)),
        _ => RcDvq::hybrid(arb_rect(rng), arb_keywords(rng, 1)),
    }
}

const CASES: u32 = 48;

#[test]
fn executor_matches_brute_force() {
    check("executor_matches_brute_force", CASES, |rng| {
        let objects = arb_objects(rng, 120);
        let query = arb_query(rng);
        let mut grid = ExactExecutor::new(DOMAIN, SpatialIndexKind::Grid);
        let mut quad = ExactExecutor::new(DOMAIN, SpatialIndexKind::Quadtree);
        for o in &objects {
            grid.insert(o);
            quad.insert(o);
        }
        let brute = objects.iter().filter(|o| query.matches(o)).count() as u64;
        assert_eq!(grid.execute(&query), brute);
        assert_eq!(quad.execute(&query), brute);
    });
}

#[test]
fn estimators_stay_bounded() {
    check("estimators_stay_bounded", CASES, |rng| {
        let objects = arb_objects(rng, 150);
        let query = arb_query(rng);
        let config = EstimatorConfig {
            domain: DOMAIN,
            reservoir_capacity: 64, // force real sampling
            ..EstimatorConfig::default()
        };
        for kind in EstimatorKind::ALL {
            let mut est = build_estimator(kind, &config);
            for o in &objects {
                est.insert(o);
            }
            let e = est.estimate(&query);
            assert!(e.is_finite() && e >= 0.0, "{}: estimate {}", kind, e);
            // No estimator may exceed the window population by more than
            // 1% numerical slack (H4096's keyword fallback answers the
            // whole population; nothing should answer more).
            assert!(
                e <= objects.len() as f64 * 1.01 + 1.0,
                "{}: estimate {} exceeds population {}",
                kind,
                e,
                objects.len()
            );
        }
    });
}

#[test]
fn full_capacity_sampler_is_exact() {
    check("full_capacity_sampler_is_exact", CASES, |rng| {
        let objects = arb_objects(rng, 100);
        let query = arb_query(rng);
        // Reservoir bigger than the stream ⇒ the sample IS the window.
        let config = EstimatorConfig {
            domain: DOMAIN,
            reservoir_capacity: 1_000,
            ..EstimatorConfig::default()
        };
        let brute = objects.iter().filter(|o| query.matches(o)).count() as f64;
        for kind in [EstimatorKind::Rsl, EstimatorKind::Rsh] {
            let mut est = build_estimator(kind, &config);
            for o in &objects {
                est.insert(o);
            }
            let e = est.estimate(&query);
            assert!((e - brute).abs() < 1e-6, "{}: {} vs {}", kind, e, brute);
        }
    });
}

#[test]
fn removal_is_inverse_of_insertion() {
    check("removal_is_inverse_of_insertion", CASES, |rng| {
        let objects = arb_objects(rng, 80);
        let config = EstimatorConfig {
            domain: DOMAIN,
            reservoir_capacity: 1_000,
            ..EstimatorConfig::default()
        };
        let whole = RcDvq::spatial(DOMAIN);
        for kind in [
            EstimatorKind::H4096,
            EstimatorKind::Rsl,
            EstimatorKind::Rsh,
            EstimatorKind::Aasp,
        ] {
            let mut est = build_estimator(kind, &config);
            for o in &objects {
                est.insert(o);
            }
            for o in &objects {
                est.remove(o);
            }
            assert_eq!(est.population(), 0);
            let residue = est.estimate(&whole);
            assert!(residue.abs() < 1e-6, "{}: residue {}", kind, residue);
        }
    });
}

#[test]
fn window_holds_exactly_the_recent_span() {
    check("window_holds_exactly_the_recent_span", CASES, |rng| {
        let gaps = vec_of(rng, 1..200, |rng| u64_in(rng, 0..50));
        let span = Duration(200);
        let mut w = SlidingWindow::new(span);
        let mut evicted = Vec::new();
        let mut t = 0u64;
        for (i, gap) in gaps.iter().enumerate() {
            t += gap;
            w.insert(
                GeoTextObject::new(
                    ObjectId(i as u64),
                    Point::new(0.0, 0.0),
                    vec![],
                    Timestamp(t),
                ),
                &mut evicted,
            );
        }
        let horizon = w.horizon();
        // Everything in the window is within the span; everything evicted
        // is strictly older.
        for o in w.iter() {
            assert!(o.timestamp >= horizon);
        }
        for o in &evicted {
            assert!(o.timestamp < horizon);
        }
        assert_eq!(w.len() + evicted.len(), gaps.len());
    });
}

#[test]
fn rect_intersection_is_commutative_and_contained() {
    check(
        "rect_intersection_is_commutative_and_contained",
        CASES,
        |rng| {
            let (a, b) = (arb_rect(rng), arb_rect(rng));
            let ab = a.intersection(&b);
            let ba = b.intersection(&a);
            assert_eq!(ab, ba);
            if let Some(i) = ab {
                assert!(a.contains_rect(&i));
                assert!(b.contains_rect(&i));
                assert!(i.area() <= a.area().min(b.area()) + 1e-9);
            }
        },
    );
}

#[test]
fn rect_coverage_is_a_fraction() {
    check("rect_coverage_is_a_fraction", CASES, |rng| {
        let (a, b) = (arb_rect(rng), arb_rect(rng));
        let c = a.coverage_by(&b);
        assert!((0.0..=1.0).contains(&c));
        // Self-coverage is total.
        assert!((a.coverage_by(&a) - 1.0).abs() < 1e-9);
    });
}

#[test]
fn quadrants_partition_points() {
    check("quadrants_partition_points", CASES, |rng| {
        let r = arb_rect(rng);
        let (fx, fy) = (f64_in(rng, 0.0..1.0), f64_in(rng, 0.0..1.0));
        // Generate the point inside the rect directly (a random point
        // almost never lands in a random rect).
        let p = Point::new(r.min_x + fx * r.width(), r.min_y + fy * r.height());
        let q = r.quadrant_of(&p);
        let quads = r.quadrants();
        assert!(quads[q].contains(&p));
        // The point is in exactly one half-open quadrant; the chosen one
        // must be consistent with the split.
        let c = r.center();
        assert_eq!(q, (usize::from(p.y >= c.y)) * 2 + usize::from(p.x >= c.x));
    });
}

#[test]
fn hoeffding_tree_is_total_on_valid_instances() {
    check("hoeffding_tree_is_total_on_valid_instances", CASES, |rng| {
        let records = vec_of(rng, 1..300, |rng| {
            (u32_in(rng, 0..3), f64_in(rng, 0.0..1.0), u32_in(rng, 0..2))
        });
        let schema = Schema::new(
            vec![
                AttributeSpec::categorical("c", 3),
                AttributeSpec::numeric("x"),
            ],
            2,
        );
        let mut tree = HoeffdingTree::new(
            schema,
            HoeffdingTreeConfig {
                grace_period: 20,
                ..HoeffdingTreeConfig::default()
            },
        );
        for (c, x, label) in &records {
            tree.train(&vec![Value::Cat(*c), Value::Num(*x)], *label);
        }
        // Predictions never panic and stay in the class range.
        for (c, x, _) in records.iter().take(20) {
            let p = tree.predict(&vec![Value::Cat(*c), Value::Num(*x)]);
            assert!(p < 2);
        }
        assert_eq!(tree.instances_seen(), records.len() as u64);
    });
}

#[test]
fn object_dedup_and_matching() {
    check("object_dedup_and_matching", CASES, |rng| {
        let obj = arb_object(rng, 7);
        let kw = u32_in(rng, 0..30);
        // Keyword lists are sorted/deduped, and matching agrees with a
        // linear scan.
        let sorted: Vec<_> = obj.keywords.to_vec();
        let mut resorted = sorted.clone();
        resorted.sort_unstable();
        resorted.dedup();
        assert_eq!(&sorted, &resorted);
        let needle = KeywordId(kw);
        assert_eq!(obj.has_keyword(needle), obj.keywords.contains(&needle));
    });
}
