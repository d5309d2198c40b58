//! Estimator-specific property tests: structural invariants that must hold
//! for arbitrary object sets and queries.

use estimators::aasp::AaspTree;
use estimators::histogram2d::Histogram2D;
use estimators::kmv::KmvSynopsis;
use estimators::nn::Mlp;
use estimators::reservoir::ReservoirList;
use estimators::reservoir_hash::ReservoirHash;
use estimators::{EstimatorConfig, SelectivityEstimator};
use geostream::{GeoTextObject, KeywordId, ObjectId, Point, RcDvq, Rect, StreamRng, Timestamp};
use testkit::{check, f64_in, grid_case, u32_in, u64_in, vec_of};

const DOMAIN: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 64.0,
    max_y: 64.0,
};

fn config() -> EstimatorConfig {
    EstimatorConfig {
        domain: DOMAIN,
        reservoir_capacity: 512,
        ..EstimatorConfig::default()
    }
}

fn arb_objects(rng: &mut StreamRng, max: usize) -> Vec<GeoTextObject> {
    let n = rng.gen_range_usize(1..max) as u64;
    (0..n)
        .map(|i| {
            let loc = Point::new(f64_in(rng, 0.0..64.0), f64_in(rng, 0.0..64.0));
            let kws = vec_of(rng, 0..3, |rng| KeywordId(u32_in(rng, 0..40)));
            GeoTextObject::new(ObjectId(i), loc, kws, Timestamp(i))
        })
        .collect()
}

fn arb_rect(rng: &mut StreamRng) -> Rect {
    let (x, y) = (f64_in(rng, 0.0..56.0), f64_in(rng, 0.0..56.0));
    let (w, h) = (f64_in(rng, 1.0..30.0), f64_in(rng, 1.0..30.0));
    Rect::new(x, y, (x + w).min(64.0), (y + h).min(64.0))
}

const CASES: u32 = 40;

#[test]
fn histogram_total_mass_is_population() {
    check("histogram_total_mass_is_population", CASES, |rng| {
        let objects = arb_objects(rng, 200);
        let mut h = Histogram2D::new(&config());
        for o in &objects {
            h.insert(o);
        }
        let whole = RcDvq::spatial(DOMAIN);
        assert!((h.estimate(&whole) - objects.len() as f64).abs() < 1e-6);
    });
}

#[test]
fn histogram_is_monotone_in_range() {
    check("histogram_is_monotone_in_range", CASES, |rng| {
        let objects = arb_objects(rng, 200);
        let r = arb_rect(rng);
        // A larger rectangle can never estimate fewer points.
        let mut h = Histogram2D::new(&config());
        for o in &objects {
            h.insert(o);
        }
        let grown = Rect::new(
            (r.min_x - 5.0).max(DOMAIN.min_x),
            (r.min_y - 5.0).max(DOMAIN.min_y),
            (r.max_x + 5.0).min(DOMAIN.max_x),
            (r.max_y + 5.0).min(DOMAIN.max_y),
        );
        let small = h.estimate(&RcDvq::spatial(r));
        let big = h.estimate(&RcDvq::spatial(grown));
        assert!(big >= small - 1e-9, "shrunk: {} -> {}", small, big);
    });
}

#[test]
fn histogram_partition_is_additive() {
    check("histogram_partition_is_additive", CASES, |rng| {
        let objects = arb_objects(rng, 200);
        let split = f64_in(rng, 1.0..63.0);
        // Splitting the domain into left/right halves must conserve mass.
        let mut h = Histogram2D::new(&config());
        for o in &objects {
            h.insert(o);
        }
        let left = h.estimate(&RcDvq::spatial(Rect::new(0.0, 0.0, split, 64.0)));
        let right = h.estimate(&RcDvq::spatial(Rect::new(split, 0.0, 64.0, 64.0)));
        assert!(
            (left + right - objects.len() as f64).abs() < 1e-6,
            "mass not conserved: {} + {} != {}",
            left,
            right,
            objects.len()
        );
    });
}

#[test]
fn reservoir_never_exceeds_capacity() {
    check("reservoir_never_exceeds_capacity", CASES, |rng| {
        let objects = arb_objects(rng, 900);
        let mut r = ReservoirList::new(&EstimatorConfig {
            reservoir_capacity: 64,
            ..config()
        });
        for o in &objects {
            r.insert(o);
        }
        assert!(r.sample_len() <= 64);
        assert_eq!(r.population(), objects.len() as u64);
    });
}

#[test]
fn rsh_and_rsl_agree_when_exhaustive() {
    check("rsh_and_rsl_agree_when_exhaustive", CASES, |rng| {
        let objects = arb_objects(rng, 150);
        let r = arb_rect(rng);
        // Same capacity, both exhaustive ⇒ identical estimates.
        let big = EstimatorConfig {
            reservoir_capacity: 4_096,
            ..config()
        };
        let mut rsl = ReservoirList::new(&big);
        let mut rsh = ReservoirHash::new(&big);
        for o in &objects {
            rsl.insert(o);
            rsh.insert(o);
        }
        for q in [
            RcDvq::spatial(r),
            RcDvq::keyword(vec![KeywordId(7)]),
            RcDvq::hybrid(r, vec![KeywordId(7)]),
        ] {
            assert!((rsl.estimate(&q) - rsh.estimate(&q)).abs() < 1e-9);
        }
    });
}

/// The grid-boundary cases of `exactdb`'s kernel test against RSH's copy of
/// the covered-cell rule: with the whole population sampled the estimate
/// is the exact count, on every grid side the budget scaling can produce.
#[test]
fn full_capacity_rsh_is_exact_on_cell_boundaries() {
    check(
        "full_capacity_rsh_is_exact_on_cell_boundaries",
        256,
        |rng| {
            let case = grid_case(rng);
            let mut rsh = ReservoirHash::new(&EstimatorConfig {
                domain: case.domain,
                reservoir_capacity: 1_000,
                grid_cells: case.side * case.side,
                ..EstimatorConfig::default()
            });
            for o in &case.objects {
                rsh.insert(o);
            }
            for q in &case.queries {
                let brute = case.objects.iter().filter(|o| q.matches(o)).count() as f64;
                let est = rsh.estimate(q);
                assert!(
                    (est - brute).abs() < 1e-6,
                    "side {}: {est} vs {brute} on {q:?}",
                    case.side
                );
            }
        },
    );
}

#[test]
fn aasp_spatial_mass_is_conserved() {
    check("aasp_spatial_mass_is_conserved", CASES, |rng| {
        let objects = arb_objects(rng, 300);
        let mut a = AaspTree::new(&config());
        for o in &objects {
            a.insert(o);
        }
        let whole = a.estimate(&RcDvq::spatial(DOMAIN));
        assert!(
            (whole - objects.len() as f64).abs() < 1e-6,
            "AASP mass drifted: {} vs {}",
            whole,
            objects.len()
        );
    });
}

#[test]
fn aasp_keyword_estimates_bounded_by_population() {
    check(
        "aasp_keyword_estimates_bounded_by_population",
        CASES,
        |rng| {
            let objects = arb_objects(rng, 300);
            let kws = vec_of(rng, 1..4, |rng| KeywordId(u32_in(rng, 0..40)));
            let mut a = AaspTree::new(&config());
            for o in &objects {
                a.insert(o);
            }
            let q = RcDvq::keyword(kws);
            let e = a.estimate(&q);
            assert!(e >= -1e-9 && e <= objects.len() as f64 + 1e-6);
        },
    );
}

#[test]
fn kmv_estimate_is_monotone_nondecreasing() {
    check("kmv_estimate_is_monotone_nondecreasing", CASES, |rng| {
        let ids = vec_of(rng, 1..500, |rng| u32_in(rng, 0..10_000));
        let mut s = KmvSynopsis::new(32);
        let mut last = 0.0f64;
        for (i, id) in ids.iter().enumerate() {
            s.insert(KeywordId(*id));
            if i % 50 == 0 {
                let est = s.estimate_distinct();
                // Estimates can wobble once the synopsis saturates, but
                // while exact (below k) they never decrease.
                if s.len() < 32 {
                    assert!(est >= last - 1e-9);
                    last = est;
                }
            }
        }
        assert!(s.estimate_distinct() >= 1.0);
    });
}

#[test]
fn mlp_forward_is_deterministic_and_finite() {
    check("mlp_forward_is_deterministic_and_finite", CASES, |rng| {
        let inputs: [f64; 4] = std::array::from_fn(|_| f64_in(rng, -1.0..1.0));
        let seed = u64_in(rng, 0..1_000);
        let mlp = Mlp::new(&[4, 8, 2], 0.3, 0.2, seed);
        let a = mlp.infer(&inputs);
        let b = mlp.infer(&inputs);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.is_finite()));
        assert_eq!(a.len(), 2);
    });
}

#[test]
fn mlp_training_keeps_weights_finite() {
    check("mlp_training_keeps_weights_finite", CASES, |rng| {
        let samples = vec_of(rng, 1..100, |rng| {
            let (a, b) = (f64_in(rng, -1.0..1.0), f64_in(rng, -1.0..1.0));
            (a, b, f64_in(rng, 0.0..1.0))
        });
        let mut mlp = Mlp::new(&[2, 6, 1], 0.3, 0.2, 9);
        for (a, b, t) in &samples {
            let loss = mlp.train(&[*a, *b], &[*t]);
            assert!(loss.is_finite() && loss >= 0.0);
        }
        let out = mlp.infer(&[0.0, 0.0]);
        assert!(out[0].is_finite());
    });
}
