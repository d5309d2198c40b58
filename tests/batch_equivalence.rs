//! Batch-ingestion equivalence: for every `EstimatorKind`, driving the
//! estimator through `insert_batch`/`remove_batch` must leave it
//! estimate-equivalent to feeding the same objects one at a time. This is
//! the contract the estimator pool and the pipeline's batched consumer
//! rely on; it must hold for arbitrary batch partitionings, including the
//! RNG-consumption order of the randomized sketches.
//!
//! The bulk build a prefill candidate comes from, `DrawTapes::build`, is
//! held to the same reference — one `insert` per object — bit for bit, at
//! the end of the build and through churn afterwards, persisted state
//! included.

use estimators::{
    build_estimator, DrawTapes, EstimatorConfig, EstimatorKind, SelectivityEstimator,
};
use geostream::{GeoTextObject, KeywordId, ObjectId, Point, RcDvq, Rect, StreamRng, Timestamp};
use testkit::{check, coin, f64_in, u32_in, u64_in, usize_in, vec_of};

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

fn arb_object(rng: &mut StreamRng, next_id: &mut u64) -> GeoTextObject {
    *next_id += 1;
    let loc = Point::new(f64_in(rng, 0.0..100.0), f64_in(rng, 0.0..100.0));
    let kws = vec_of(rng, 0..4, |rng| KeywordId(u32_in(rng, 0..30)));
    GeoTextObject::new(ObjectId(*next_id), loc, kws, Timestamp(*next_id))
}

/// The same population, estimates and persisted bytes; what no estimate
/// shows yet — the sampling RNG, arrivals seen, SPN's rebuild count and
/// whether its model stands — is persisted, so the bytes compare it too.
fn assert_bit_equal(
    singles: &dyn SelectivityEstimator,
    bulk: &dyn SelectivityEstimator,
    ctx: &str,
) {
    let kind = singles.kind();
    assert_eq!(
        singles.population(),
        bulk.population(),
        "{kind} {ctx}: population"
    );
    for q in probe_queries() {
        assert_eq!(
            singles.estimate(&q).to_bits(),
            bulk.estimate(&q).to_bits(),
            "{kind} {ctx}: estimate of {q:?}"
        );
    }
    // A snapshot holds what was sampled, learned or counted and none of
    // the layout a bulk build leaves differently (posting generations,
    // keyword-pool garbage, RSH's in-cell order), so both persist alike.
    let persisted = |e: &dyn SelectivityEstimator| {
        let mut w = geostream::PersistWriter::new();
        e.persist_state(&mut w);
        w.into_bytes()
    };
    assert!(
        persisted(singles) == persisted(bulk),
        "{kind} {ctx}: persisted state"
    );
}

/// One scenario, expanded from `seed` so every kind sees the same one: a
/// run of arrivals fed singly to a fresh estimator and, under a random
/// slicing, to `tapes.build`, then 200 steps of random `insert` / `remove`
/// / `insert_batch` applied to both — compared after the build and at
/// every step.
fn bulk_build_matches_singles(seed: u64, kind: EstimatorKind, tapes: &mut DrawTapes) {
    let rng = &mut StreamRng::seed_from_u64(seed);
    let mut next_id = 0u64;

    // Mostly long enough to cross SPN's 1 024-insert rebuild boundary once,
    // twice or three times in one call; sometimes all fill phase.
    let n = if usize_in(rng, 0..4) == 0 {
        usize_in(rng, 0..100)
    } else {
        usize_in(rng, 1_100..3_300)
    };
    let arrivals: Vec<GeoTextObject> = (0..n).map(|_| arb_object(rng, &mut next_id)).collect();
    // Slices of 0..400 objects: empty ones, and with a capacity of 48 and
    // a boundary every 1 024 some straddle the fill → steady edge and a
    // rebuild.
    let mut slices: Vec<&[GeoTextObject]> = Vec::new();
    let mut rest = arrivals.as_slice();
    while !rest.is_empty() || coin(rng) {
        let take = if coin(rng) && coin(rng) {
            0
        } else {
            usize_in(rng, 1..400).min(rest.len())
        };
        let (head, tail) = rest.split_at(take);
        slices.push(head);
        rest = tail;
    }
    let mut singles = build_estimator(kind, &config());
    for o in &arrivals {
        singles.insert(o);
    }
    let mut bulk = tapes.build(kind, &config(), &mut slices.iter().copied());
    let mut live = arrivals;
    assert_bit_equal(singles.as_ref(), bulk.as_ref(), "after the build");
    #[cfg(feature = "debug-invariants")]
    bulk.audit()
        .unwrap_or_else(|e| panic!("{kind} after the build: {e}"));

    for step in 0..200 {
        match usize_in(rng, 0..3) {
            0 => {
                let o = arb_object(rng, &mut next_id);
                singles.insert(&o);
                bulk.insert(&o);
                live.push(o);
            }
            1 if !live.is_empty() => {
                let gone = live.swap_remove(usize_in(rng, 0..live.len()));
                singles.remove(&gone);
                bulk.remove(&gone);
            }
            _ => {
                let batch: Vec<GeoTextObject> = (0..usize_in(rng, 1..40))
                    .map(|_| arb_object(rng, &mut next_id))
                    .collect();
                singles.insert_batch(&batch);
                bulk.insert_batch(&batch);
                live.extend(batch);
            }
        }
        assert_bit_equal(
            singles.as_ref(),
            bulk.as_ref(),
            &format!("churn step {step}"),
        );
    }
    #[cfg(feature = "debug-invariants")]
    bulk.audit()
        .unwrap_or_else(|e| panic!("{kind} after churn: {e}"));
}

/// The oracle for the fresh bulk build: all six kinds, against
/// one-at-a-time insertion, through one set of draw tapes per case (RSL
/// and RSH read one tape).
#[test]
fn fresh_builds_match_one_at_a_time_through_churn() {
    check(
        "fresh_builds_match_one_at_a_time_through_churn",
        CASES,
        |rng| {
            let seed = u64_in(rng, 0..u64::MAX);
            let mut tapes = DrawTapes::default();
            for kind in EstimatorKind::ALL {
                bulk_build_matches_singles(seed, kind, &mut tapes);
            }
        },
    );
}
