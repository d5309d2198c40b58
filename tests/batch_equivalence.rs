//! Batch-ingestion equivalence: for every `EstimatorKind`, driving the
//! estimator through `insert_batch`/`remove_batch` must leave it
//! estimate-equivalent to feeding the same objects one at a time. This is
//! the contract the estimator pool and the pipeline's batched consumer
//! rely on; it must hold for arbitrary batch partitionings, including the
//! RNG-consumption order of the randomized sketches.
//!
//! The bulk entry a prefill candidate is built through, `insert_slices`,
//! is held to the same reference — one `insert` per object — bit for bit,
//! at the end of the build and through churn afterwards, persisted state
//! included.

use estimators::aasp::AaspTree;
use estimators::ffn::FfnEstimator;
use estimators::histogram2d::Histogram2D;
use estimators::reservoir::Reservoir;
use estimators::spn::SpnEstimator;
use estimators::{build_estimator, EstimatorConfig, EstimatorKind, SelectivityEstimator};
use geostream::{
    GeoTextObject, KeywordId, ObjectId, Point, RcDvq, Rect, RngState, StreamRng, Timestamp,
};
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

/// What `insert_slices` promises that no estimate shows yet: the sampling
/// RNG's state, and for SPN the rebuild count and whether a model stands.
/// `None` for the kinds that keep the per-slice default.
type Hidden = Option<(RngState, u64, bool)>;

fn arb_object(rng: &mut StreamRng, next_id: &mut u64) -> GeoTextObject {
    *next_id += 1;
    let loc = Point::new(f64_in(rng, 0.0..100.0), f64_in(rng, 0.0..100.0));
    let kws = vec_of(rng, 0..4, |rng| KeywordId(u32_in(rng, 0..30)));
    GeoTextObject::new(ObjectId(*next_id), loc, kws, Timestamp(*next_id))
}

fn assert_bit_equal<E: SelectivityEstimator>(
    singles: &E,
    bulk: &E,
    hidden: &impl Fn(&E) -> Hidden,
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
    assert!(
        hidden(singles) == hidden(bulk),
        "{kind} {ctx}: RNG state, rebuild count or model presence"
    );
    // A snapshot holds what was sampled, learned or counted and none of
    // the layout a bulk build leaves differently (posting generations,
    // keyword-pool garbage, RSH's in-cell order), so both persist alike.
    let persisted = |e: &E| {
        let mut w = geostream::PersistWriter::new();
        e.persist_state(&mut w);
        w.into_bytes()
    };
    assert!(
        persisted(singles) == persisted(bulk),
        "{kind} {ctx}: persisted state"
    );
}

/// One scenario, expanded from `seed` so every kind sees the same one: an
/// entry state (empty / part-filled / filled and then shrunk by removals)
/// reached one object at a time on both sides, then one run of arrivals
/// fed singly to one side and as one `insert_slices` call under a random
/// slicing to the other, then 200 steps of random `insert` / `remove` /
/// `insert_batch` applied to both — compared after the build and at every
/// step.
fn bulk_build_matches_singles<E: SelectivityEstimator>(
    seed: u64,
    make: impl Fn() -> E,
    hidden: impl Fn(&E) -> Hidden,
) {
    let rng = &mut StreamRng::seed_from_u64(seed);
    let (mut singles, mut bulk) = (make(), make());
    let mut next_id = 0u64;
    let mut live: Vec<GeoTextObject> = Vec::new();

    let entry = match usize_in(rng, 0..3) {
        0 => 0,
        // Below every sample capacity (48; SPN's buffer 64).
        1 => usize_in(rng, 1..40),
        // Past capacity, so the samplers are drawing; the removals below
        // then open free slots while `seen` stays high.
        _ => usize_in(rng, 150..300),
    };
    for _ in 0..entry {
        let o = arb_object(rng, &mut next_id);
        singles.insert(&o);
        bulk.insert(&o);
        live.push(o);
    }
    if entry >= 150 {
        for _ in 0..usize_in(rng, 100..entry) {
            let gone = live.swap_remove(usize_in(rng, 0..live.len()));
            singles.remove(&gone);
            bulk.remove(&gone);
        }
    }

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
    for o in &arrivals {
        singles.insert(o);
    }
    bulk.insert_slices(&mut slices.iter().copied());
    live.extend(arrivals.iter().cloned());
    assert_bit_equal(&singles, &bulk, &hidden, "after the build");
    #[cfg(feature = "debug-invariants")]
    bulk.audit()
        .unwrap_or_else(|e| panic!("{} after the build: {e}", bulk.kind()));

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
        assert_bit_equal(&singles, &bulk, &hidden, &format!("churn step {step}"));
    }
    #[cfg(feature = "debug-invariants")]
    bulk.audit()
        .unwrap_or_else(|e| panic!("{} after churn: {e}", bulk.kind()));
}

/// The oracle for the decision-replay bulk build: all six kinds, against
/// one-at-a-time insertion.
#[test]
fn insert_slices_matches_one_at_a_time_through_churn() {
    check(
        "insert_slices_matches_one_at_a_time_through_churn",
        CASES,
        |rng| {
            let seed = u64_in(rng, 0..u64::MAX);
            let cfg = config();
            bulk_build_matches_singles(seed, || Histogram2D::new(&cfg), |_| None);
            bulk_build_matches_singles(seed, || AaspTree::new(&cfg), |_| None);
            bulk_build_matches_singles(seed, || FfnEstimator::new(&cfg), |_| None);
            bulk_build_matches_singles(
                seed,
                || Reservoir::list(&cfg),
                |e| Some((e.rng().state(), 0, false)),
            );
            bulk_build_matches_singles(
                seed,
                || Reservoir::hash(&cfg),
                |e| Some((e.rng().state(), 0, false)),
            );
            bulk_build_matches_singles(
                seed,
                || SpnEstimator::new(&cfg),
                |e| Some((e.rng().state(), e.rebuilds(), e.has_model())),
            );
        },
    );
}
