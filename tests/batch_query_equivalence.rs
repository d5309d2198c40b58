//! Batched execution equivalence: `Latest::query_batch` must be
//! indistinguishable — bit-for-bit on every decision-bearing field — from
//! issuing the same queries one at a time in order, for every estimator
//! kind crossed with every exact backend. With the accuracy/latency
//! trade-off pinned to accuracy only (α = 0), wall-clock noise cannot
//! leak into rewards, so the two replays must agree exactly.
//!
//! Also proves the selectivity-cache contract: any window content change
//! — an insert or an eviction sweep — invalidates every previously cached
//! signature (a stale hit is impossible), while an unchanged window keeps
//! serving pure cache reads.

use estimators::{EstimatorConfig, EstimatorKind};
use exactdb::SpatialIndexKind;
use geostream::synth::DatasetSpec;
use geostream::{Duration, KeywordId, Point, RcDvq, Rect, StreamRng, Timestamp};
use latest_core::{Latest, LatestConfig, PhaseTag, QueryOptions, ServedBy};
use testkit::{check, u64_in, usize_in};

fn build_latest(kind: EstimatorKind, index: SpatialIndexKind) -> Latest {
    let dataset = DatasetSpec::twitter();
    let config = LatestConfig::builder()
        .window_span(Duration::from_secs(40))
        .warmup(Duration::from_secs(40))
        .pretrain_queries(24)
        .accuracy_window(12)
        .min_switch_spacing(12)
        // Rewards depend on accuracy alone: measured latencies differ
        // between the two replays but must not change any decision.
        .alpha(0.0)
        .shadow_metrics(false)
        .default_estimator(kind)
        .index_kind(index)
        .estimator_config(EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 800,
            ..EstimatorConfig::default()
        })
        .build()
        .expect("test parameters are in range");
    Latest::new(config)
}

fn mixed_query(rng: &mut StreamRng, domain: &Rect) -> RcDvq {
    let cx = rng.gen_range_f64(domain.min_x..domain.max_x);
    let cy = rng.gen_range_f64(domain.min_y..domain.max_y);
    let rect = Rect::centered_clamped(Point::new(cx, cy), 3.0, 2.5, domain);
    match rng.gen_range_u32(0..3) {
        0 => RcDvq::spatial(rect),
        1 => RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..40))]),
        _ => RcDvq::hybrid(rect, vec![KeywordId(rng.gen_range_u32(0..40))]),
    }
}

/// Replays the identical seeded stream through a batched instance and a
/// one-at-a-time instance and demands bit-equal outcomes at every step,
/// from warm-up through pre-training into the incremental phase.
fn assert_batch_matches_single(kind: EstimatorKind, index: SpatialIndexKind) {
    let dataset = DatasetSpec::twitter();
    let mut batched = build_latest(kind, index);
    let mut single = build_latest(kind, index);
    let mut gen_b = dataset.generator();
    let mut gen_s = dataset.generator();
    while batched.phase() == PhaseTag::WarmUp {
        batched.ingest(gen_b.next_object());
        single.ingest(gen_s.next_object());
    }
    let mut rng = StreamRng::seed_from_u64(0xBA7C4 + kind.index() as u64);
    for round in 0..8u32 {
        for _ in 0..40 {
            batched.ingest(gen_b.next_object());
            single.ingest(gen_s.next_object());
        }
        let mut batch: Vec<RcDvq> = (0..8)
            .map(|_| mixed_query(&mut rng, &dataset.domain))
            .collect();
        // In-batch duplicates must collapse onto cache hits identically
        // in both replays.
        batch.push(batch[1].clone());
        batch.push(batch[4].clone());
        let at = gen_b.clock();
        let batch_outs = batched.query_batch(&batch, QueryOptions::at(at));
        let single_outs: Vec<_> = batch
            .iter()
            .map(|q| single.query(q, QueryOptions::at(at)))
            .collect();
        for (i, (b, s)) in batch_outs.iter().zip(&single_outs).enumerate() {
            let ctx = format!("{}/{} round {round} query {i}", kind.name(), index.name());
            assert_eq!(
                b.estimate.to_bits(),
                s.estimate.to_bits(),
                "estimate: {ctx}"
            );
            assert_eq!(b.actual, s.actual, "actual: {ctx}");
            assert_eq!(
                b.accuracy.to_bits(),
                s.accuracy.to_bits(),
                "accuracy: {ctx}"
            );
            assert_eq!(b.estimator, s.estimator, "estimator: {ctx}");
            assert_eq!(b.phase, s.phase, "phase: {ctx}");
            assert_eq!(b.switched, s.switched, "switched: {ctx}");
            assert_eq!(b.served_by, s.served_by, "served_by: {ctx}");
        }
        assert_eq!(batch_outs[8].served_by, ServedBy::Cache);
        assert_eq!(batch_outs[9].served_by, ServedBy::Cache);
    }
    // The learning state the two replays accumulated is the same too.
    assert_eq!(batched.phase(), single.phase());
    assert_eq!(batched.active_kind(), single.active_kind());
    let (b, s) = (batched.metrics_snapshot(), single.metrics_snapshot());
    assert_eq!(b.queries_total, s.queries_total);
    assert_eq!(b.adaptor.switches, s.adaptor.switches);
    assert_eq!(batched.tree_stats(), single.tree_stats());
}

#[test]
fn batch_matches_single_for_every_kind_on_grid() {
    for kind in EstimatorKind::ALL {
        assert_batch_matches_single(kind, SpatialIndexKind::Grid);
    }
}

#[test]
fn batch_matches_single_for_every_kind_on_quadtree() {
    for kind in EstimatorKind::ALL {
        assert_batch_matches_single(kind, SpatialIndexKind::Quadtree);
    }
}

/// Drives a system past warm-up with a deterministic stream and returns
/// it together with its generator.
fn warmed() -> (Latest, geostream::synth::ObjectGenerator) {
    let mut latest = build_latest(EstimatorKind::Rsh, SpatialIndexKind::Grid);
    let mut gen = DatasetSpec::twitter().generator();
    while latest.phase() == PhaseTag::WarmUp {
        latest.ingest(gen.next_object());
    }
    (latest, gen)
}

const CASES: u32 = 12;

/// Inserting any number of objects invalidates every prior signature:
/// the repeat that would have been a cache hit runs the full path.
#[test]
fn any_insert_invalidates_cached_signatures() {
    check("any_insert_invalidates_cached_signatures", CASES, |rng| {
        let extra = usize_in(rng, 1..48);
        let (mut latest, mut gen) = warmed();
        let q = RcDvq::keyword(vec![KeywordId(5)]);
        let first = latest.query(&q, QueryOptions::at(gen.clock()));
        assert!(first.served_by != ServedBy::Cache);
        // Control: unchanged window serves the repeat from the cache.
        let repeat = latest.query(&q, QueryOptions::at(gen.clock()));
        assert_eq!(repeat.served_by, ServedBy::Cache);
        for _ in 0..extra {
            latest.ingest(gen.next_object());
        }
        let after = latest.query(&q, QueryOptions::at(gen.clock()));
        assert!(after.served_by != ServedBy::Cache);
    });
}

/// An eviction sweep — advancing past the window span with no new
/// arrivals — likewise invalidates every prior signature.
#[test]
fn any_eviction_sweep_invalidates_cached_signatures() {
    check(
        "any_eviction_sweep_invalidates_cached_signatures",
        CASES,
        |rng| {
            let extra_ms = u64_in(rng, 1_000..80_000);
            let (mut latest, gen) = warmed();
            let q = RcDvq::keyword(vec![KeywordId(5)]);
            let at = gen.clock();
            let _ = latest.query(&q, QueryOptions::at(at));
            assert_eq!(
                latest.query(&q, QueryOptions::at(at)).served_by,
                ServedBy::Cache
            );
            assert!(latest.window_len() > 0);
            // Jump past the 40 s span: everything in the window is evicted.
            let later = Timestamp(at.0 + 40_000 + extra_ms);
            let after = latest.query(&q, QueryOptions::at(later));
            assert!(after.served_by != ServedBy::Cache);
            assert_eq!(after.actual, 0);
            assert!(latest.cache().invalidations() >= 1);
        },
    );
}
