//! Batch-ingestion equivalence: for every `EstimatorKind`, driving the
//! estimator through `insert_batch`/`remove_batch` must leave it
//! estimate-equivalent to feeding the same objects one at a time. This is
//! the contract the estimator pool and the pipeline's batched consumer
//! rely on; it must hold for arbitrary batch partitionings, including the
//! RNG-consumption order of the randomized sketches.

use estimators::{build_estimator, EstimatorConfig, EstimatorKind};
use geostream::{GeoTextObject, KeywordId, ObjectId, Point, RcDvq, Rect, StreamRng, Timestamp};
use testkit::{check, coin, f64_in, u32_in, usize_in, vec_of};

const DOMAIN: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 100.0,
    max_y: 100.0,
};

fn config() -> EstimatorConfig {
    EstimatorConfig {
        domain: DOMAIN,
        // Smaller than the object count, so the reservoir samplers leave
        // their RNG-free fill phase and the equivalence covers the
        // steady-state sampling path too.
        reservoir_capacity: 48,
        ..EstimatorConfig::default()
    }
}

fn arb_objects(rng: &mut StreamRng, n: usize) -> Vec<GeoTextObject> {
    (0..n as u64)
        .map(|i| {
            let loc = Point::new(f64_in(rng, 0.0..100.0), f64_in(rng, 0.0..100.0));
            let kws = vec_of(rng, 0..4, |rng| KeywordId(u32_in(rng, 0..30)));
            GeoTextObject::new(ObjectId(i), loc, kws, Timestamp(i))
        })
        .collect()
}

/// Splits `objs` into consecutive chunks whose sizes cycle through
/// `sizes`, so a single drawn vector exercises many partitionings.
fn chunked<'a>(objs: &'a [GeoTextObject], sizes: &[usize]) -> Vec<&'a [GeoTextObject]> {
    let mut chunks = Vec::new();
    let mut at = 0;
    let mut i = 0;
    while at < objs.len() {
        let take = sizes[i % sizes.len()].clamp(1, objs.len() - at);
        chunks.push(&objs[at..at + take]);
        at += take;
        i += 1;
    }
    chunks
}

fn probe_queries() -> Vec<RcDvq> {
    vec![
        RcDvq::spatial(DOMAIN),
        RcDvq::spatial(Rect::new(10.0, 10.0, 55.0, 60.0)),
        RcDvq::keyword(vec![KeywordId(3)]),
        RcDvq::keyword(vec![KeywordId(7), KeywordId(21)]),
        RcDvq::hybrid(Rect::new(25.0, 0.0, 90.0, 45.0), vec![KeywordId(12)]),
    ]
}

fn assert_estimate_equivalent(
    kind: EstimatorKind,
    singles: &dyn estimators::SelectivityEstimator,
    batched: &dyn estimators::SelectivityEstimator,
) {
    assert_eq!(
        singles.population(),
        batched.population(),
        "{kind}: populations diverged"
    );
    for q in probe_queries() {
        let (a, b) = (singles.estimate(&q), batched.estimate(&q));
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            "{kind}: estimates diverged on {q:?}: {a} vs {b}"
        );
    }
}

// FFN/SPN construction dominates the runtime; keep the case count
// modest — every case already covers all six kinds.
const CASES: u32 = 12;

#[test]
fn insert_batch_matches_one_at_a_time() {
    check("insert_batch_matches_one_at_a_time", CASES, |rng| {
        let objects = arb_objects(rng, 140);
        let sizes = vec_of(rng, 1..6, |rng| usize_in(rng, 1..24));
        for kind in EstimatorKind::ALL {
            let mut singles = build_estimator(kind, &config());
            let mut batched = build_estimator(kind, &config());
            for o in &objects {
                singles.insert(o);
            }
            for chunk in chunked(&objects, &sizes) {
                batched.insert_batch(chunk);
            }
            assert_estimate_equivalent(kind, singles.as_ref(), batched.as_ref());
        }
    });
}

#[test]
fn remove_batch_matches_one_at_a_time() {
    check("remove_batch_matches_one_at_a_time", CASES, |rng| {
        let objects = arb_objects(rng, 120);
        let sizes = vec_of(rng, 1..6, |rng| usize_in(rng, 1..24));
        let drop_half = coin(rng);
        let cut = if drop_half {
            objects.len() / 2
        } else {
            objects.len()
        };
        for kind in EstimatorKind::ALL {
            let mut singles = build_estimator(kind, &config());
            let mut batched = build_estimator(kind, &config());
            // Identical builds (same seed, same order) …
            singles.insert_batch(&objects);
            batched.insert_batch(&objects);
            // … then remove the prefix singly on one and batched on the
            // other.
            for o in &objects[..cut] {
                singles.remove(o);
            }
            for chunk in chunked(&objects[..cut], &sizes) {
                batched.remove_batch(chunk);
            }
            assert_estimate_equivalent(kind, singles.as_ref(), batched.as_ref());
        }
    });
}
