//! Sharded scatter-gather equivalence: a [`ShardedLatest`] must be an
//! implementation detail, never a semantics change.
//!
//! Three contracts are proven against one deterministic stream (no
//! external RNG, identical on every run), with the accuracy/latency
//! trade-off pinned to accuracy only (α = 0) so wall-clock noise cannot
//! leak into adaptor decisions:
//!
//! 1. **shards = 1 is bit-equal to unsharded.** Every decision-bearing
//!    field of every [`QueryOutcome`] — estimate bits, actual, accuracy
//!    bits, estimator, phase, switched, served_by — matches a plain
//!    [`Latest`] fed the identical batches, for all six estimator kinds
//!    crossed with both router policies.
//! 2. **shards > 1 preserves ground truth and window alignment.** Exact
//!    merged counts equal the unsharded count, and the summed per-shard
//!    window occupancy equals the unsharded occupancy after every batch —
//!    including batches concentrated on one spatial strip, where the
//!    batched eviction clock (`AdvanceTo`) is the only thing keeping the
//!    idle shards' horizons aligned.
//! 3. **Routing is sound.** For any object and any query that matches
//!    it, the query's fan-out set contains the object's owning shard
//!    (property-tested over both policies and shard counts).

use estimators::{EstimatorConfig, EstimatorKind};
use geostream::{Duration, GeoTextObject, KeywordId, ObjectId, Point, RcDvq, Rect, Timestamp};
use latest_core::{
    Latest, LatestConfig, QueryOptions, RouterPolicy, ShardConfig, ShardRouter, ShardedLatest,
};
use testkit::{check, f64_in, u32_in, u64_in, usize_in};

const DOMAIN: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 100.0,
    max_y: 100.0,
};

/// Deterministic LCG (no external RNG, identical on every run).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1);
    *state >> 11
}

/// An object somewhere in the domain; 16-word vocabulary so keyword
/// queries hit often enough to exercise the merge path.
fn make_obj(id: u64, r: u64, t: Timestamp) -> GeoTextObject {
    let n_kws = 1 + r % 3;
    let kws: Vec<KeywordId> = (0..n_kws)
        .map(|k| KeywordId(((r >> 9) + k) as u32 % 16))
        .collect();
    GeoTextObject::new(
        ObjectId(id),
        Point::new((r % 1_000) as f64 / 10.0, ((r >> 17) % 1_000) as f64 / 10.0),
        kws,
        t,
    )
}

/// An object pinned to the left spatial strip: under a spatial-tile
/// router most shards receive nothing from it, so only the batched
/// eviction clock keeps their windows moving.
fn make_left_obj(id: u64, r: u64, t: Timestamp) -> GeoTextObject {
    let mut obj = make_obj(id, r, t);
    obj.loc.x = (r % 100) as f64 / 10.0; // [0, 10): first of 4 strips
    obj
}

fn probe(r: u64) -> RcDvq {
    let x = (r % 60) as f64;
    let y = ((r >> 13) % 60) as f64;
    let rect = Rect::new(x, y, x + 25.0, y + 30.0);
    match r % 3 {
        0 => RcDvq::spatial(rect),
        1 => RcDvq::keyword(vec![KeywordId(r as u32 % 16)]),
        _ => RcDvq::hybrid(rect, vec![KeywordId((r >> 5) as u32 % 16)]),
    }
}

fn config(kind: EstimatorKind, shards: usize, router: RouterPolicy) -> LatestConfig {
    LatestConfig::builder()
        .window_span(Duration::from_secs(2))
        .warmup(Duration::from_secs(2))
        .pretrain_queries(16)
        .accuracy_window(8)
        .min_switch_spacing(8)
        // Rewards depend on accuracy alone: measured latencies differ
        // between the replays but must not change any decision.
        .alpha(0.0)
        .shadow_metrics(false)
        .default_estimator(kind)
        .estimator_config(EstimatorConfig {
            domain: DOMAIN,
            reservoir_capacity: 512,
            ..EstimatorConfig::default()
        })
        .shard(ShardConfig {
            shards,
            queue_capacity: 4_096,
            router,
        })
        .build()
        .expect("test parameters are in range")
}

/// Feeds the identical deterministic stream to a one-shard engine and a
/// plain [`Latest`] and demands bit-equal outcomes at every step, from
/// warm-up through pre-training into the incremental phase.
fn assert_one_shard_bit_equal(kind: EstimatorKind, router: RouterPolicy) {
    let sharded = ShardedLatest::new(config(kind, 1, router)).expect("one shard spawns");
    let mut solo = Latest::new(config(kind, 1, router));
    let mut rng = 0x5eed_0001 ^ (kind.index() as u64) << 8;
    let mut clock = Timestamp::ZERO;
    let mut next_id = 0u64;
    for round in 0..48u32 {
        let batch: Vec<GeoTextObject> = (0..48)
            .map(|_| {
                let r = lcg(&mut rng);
                clock = clock.after(Duration::from_millis(r % 5));
                next_id += 1;
                make_obj(next_id, r, clock)
            })
            .collect();
        sharded.ingest_batch(&batch).expect("shard is live");
        solo.ingest_batch(&batch);
        let queries: Vec<RcDvq> = (0..6).map(|_| probe(lcg(&mut rng))).collect();
        let sharded_outs = sharded
            .query_batch(&queries, QueryOptions::at(clock))
            .expect("shard is live");
        let solo_outs = solo.query_batch(&queries, QueryOptions::at(clock));
        assert_eq!(sharded_outs.len(), solo_outs.len());
        for (i, (a, b)) in sharded_outs.iter().zip(&solo_outs).enumerate() {
            let ctx = format!("{}/{} round {round} query {i}", kind.name(), router.name());
            assert_eq!(
                a.estimate.to_bits(),
                b.estimate.to_bits(),
                "estimate: {ctx}"
            );
            assert_eq!(a.actual, b.actual, "actual: {ctx}");
            assert_eq!(
                a.accuracy.to_bits(),
                b.accuracy.to_bits(),
                "accuracy: {ctx}"
            );
            assert_eq!(a.estimator, b.estimator, "estimator: {ctx}");
            assert_eq!(a.phase, b.phase, "phase: {ctx}");
            assert_eq!(a.switched, b.switched, "switched: {ctx}");
            assert_eq!(a.served_by, b.served_by, "served_by: {ctx}");
        }
    }
    // The accumulated learning state matches too: the shard worked
    // through the identical phase schedule and window churn.
    let snap = sharded.metrics_snapshot().expect("shard is live");
    assert_eq!(snap.phase, solo.phase(), "{}", kind.name());
    assert_eq!(
        snap.window.occupancy,
        solo.window_len() as u64,
        "{}: final occupancy drifted",
        kind.name()
    );
    assert_eq!(sharded.clock(), clock);
    assert!(sharded.shutdown() > 0);
}

#[test]
fn one_shard_is_bit_equal_to_unsharded_under_hash_routing() {
    for kind in EstimatorKind::ALL {
        assert_one_shard_bit_equal(kind, RouterPolicy::HashOid);
    }
}

#[test]
fn one_shard_is_bit_equal_to_unsharded_under_spatial_routing() {
    for kind in EstimatorKind::ALL {
        assert_one_shard_bit_equal(kind, RouterPolicy::SpatialTile);
    }
}

/// Multi-shard engines must report the same exact counts and the same
/// total window occupancy as an unsharded instance at every step —
/// including rounds where all arrivals land on one spatial strip and the
/// other shards advance by eviction clock alone.
fn assert_sharded_ground_truth(shards: usize, router: RouterPolicy) {
    let sharded =
        ShardedLatest::new(config(EstimatorKind::Rsh, shards, router)).expect("shards spawn");
    let mut solo = Latest::new(config(EstimatorKind::Rsh, shards, router));
    let mut rng = 0xc0ffee ^ shards as u64;
    let mut clock = Timestamp::ZERO;
    let mut next_id = 0u64;
    for round in 0..40u32 {
        // Every fourth round concentrates arrivals on the leftmost strip
        // (and occasionally jumps the clock) so idle shards must evict
        // purely off the batched `AdvanceTo`.
        let concentrated = round % 4 == 3;
        let batch: Vec<GeoTextObject> = (0..48)
            .map(|_| {
                let r = lcg(&mut rng);
                let step = if concentrated { 12 } else { r % 5 };
                clock = clock.after(Duration::from_millis(step));
                next_id += 1;
                if concentrated {
                    make_left_obj(next_id, r, clock)
                } else {
                    make_obj(next_id, r, clock)
                }
            })
            .collect();
        sharded.ingest_batch(&batch).expect("shards are live");
        solo.ingest_batch(&batch);

        let queries: Vec<RcDvq> = (0..4).map(|_| probe(lcg(&mut rng))).collect();
        let exact = QueryOptions::at(clock).exact(true);
        let merged = sharded
            .query_batch(&queries, exact)
            .expect("shards are live");
        let truth = solo.query_batch(&queries, exact);
        for (i, (m, t)) in merged.iter().zip(&truth).enumerate() {
            assert_eq!(
                m.actual,
                t.actual,
                "{} shards / {}: round {round} query {i} merged exact count",
                shards,
                router.name()
            );
        }

        // Eviction-clock alignment: total live objects across every
        // shard equals the unsharded window at the same horizon.
        let snap = sharded.metrics_snapshot().expect("shards are live");
        assert_eq!(
            snap.window.occupancy,
            solo.window_len() as u64,
            "{} shards / {}: round {round} occupancy drifted",
            shards,
            router.name()
        );
        assert_eq!(
            snap.window.ingested - snap.window.evicted,
            snap.window.occupancy,
            "{} shards / {}: round {round} flow conservation",
            shards,
            router.name()
        );
    }
    assert_eq!(sharded.shutdown(), next_id);
}

#[test]
fn multi_shard_exact_counts_and_occupancy_match_unsharded() {
    for shards in [2usize, 4] {
        assert_sharded_ground_truth(shards, RouterPolicy::HashOid);
        assert_sharded_ground_truth(shards, RouterPolicy::SpatialTile);
    }
}

/// Scatter-gather soundness: whenever a query matches an object, the
/// query's fan-out set contains the shard that owns the object — for
/// both policies and every shard count. Losing this property silently
/// undercounts; the merge layer can never recover it.
#[test]
fn matching_objects_are_always_inside_the_query_fanout() {
    check(
        "matching_objects_are_always_inside_the_query_fanout",
        64,
        |rng| {
            let shards = usize_in(rng, 1..9);
            let (x, y) = (f64_in(rng, 0.0..100.0), f64_in(rng, 0.0..100.0));
            let kw = u32_in(rng, 0..16);
            let (qx, qy) = (f64_in(rng, 0.0..75.0), f64_in(rng, 0.0..70.0));
            let oid = u64_in(rng, 0..1_000_000);
            let obj = GeoTextObject::new(
                ObjectId(oid),
                Point::new(x, y),
                vec![KeywordId(kw)],
                Timestamp(1),
            );
            let rect = Rect::new(qx, qy, qx + 25.0, qy + 30.0);
            let queries = [
                RcDvq::spatial(rect),
                RcDvq::keyword(vec![KeywordId(kw)]),
                RcDvq::hybrid(rect, vec![KeywordId(kw)]),
            ];
            for policy in [RouterPolicy::HashOid, RouterPolicy::SpatialTile] {
                let router = ShardRouter::new(policy, shards, DOMAIN);
                let owner = router.route_object(&obj);
                assert!(owner < shards, "{}: owner out of range", policy.name());
                for q in &queries {
                    let fanout = router.route_query(q);
                    assert!(!fanout.is_empty(), "{}: empty fan-out", policy.name());
                    assert!(
                        fanout.windows(2).all(|w| w[0] < w[1]),
                        "{}: fan-out not strictly ascending",
                        policy.name()
                    );
                    assert!(
                        fanout.iter().all(|&s| s < shards),
                        "{}: fan-out out of range",
                        policy.name()
                    );
                    if q.matches(&obj) {
                        assert!(
                            fanout.contains(&owner),
                            "{}: shard {owner} owns a matching object but is \
                         outside the fan-out {fanout:?} of {q:?}",
                            policy.name()
                        );
                    }
                }
            }
        },
    );
}
