//! Pool determinism: fanning estimator maintenance across worker threads
//! must not change what LATEST computes. With the accuracy/latency
//! trade-off pinned to accuracy only (α = 0, so wall-clock noise cannot
//! leak into rewards), a serial instance and a 4-worker instance fed the
//! identical seeded stream must produce identical `QueryOutcome`s —
//! latency aside, which is a measurement, not a decision.

use estimators::EstimatorConfig;
use geostream::synth::DatasetSpec;
use geostream::{Duration, KeywordId, Point, RcDvq, Rect, StreamRng};
use latest_core::{Latest, LatestConfig, PhaseTag, QueryOptions, QueryOutcome};

fn build_latest(pool_workers: usize) -> Latest {
    let dataset = DatasetSpec::twitter();
    let config = LatestConfig::builder()
        .window_span(Duration::from_secs(40))
        .warmup(Duration::from_secs(40))
        .pretrain_queries(30)
        .accuracy_window(12)
        .min_switch_spacing(12)
        // Rewards depend on accuracy alone: thread scheduling may change
        // measured latencies but must not change any decision.
        .alpha(0.0)
        .shadow_metrics(true)
        .pool_workers(pool_workers)
        .estimator_config(EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 1_200,
            ..EstimatorConfig::default()
        })
        .build()
        .expect("test parameters are in range");
    Latest::new(config)
}

/// Replays the same seeded stream + query mix and collects every outcome.
fn run(pool_workers: usize) -> (Vec<QueryOutcome>, Latest) {
    let dataset = DatasetSpec::twitter();
    let mut latest = build_latest(pool_workers);
    let mut gen = dataset.generator();
    while latest.phase() == PhaseTag::WarmUp {
        latest.ingest(gen.next_object());
    }
    let mut rng = StreamRng::seed_from_u64(0xD1CE);
    let mut outcomes = Vec::new();
    for i in 0..120u32 {
        let batch: Vec<_> = (0..8).map(|_| gen.next_object()).collect();
        latest.ingest_batch(&batch);
        let q = match i % 3 {
            0 => RcDvq::spatial(Rect::centered_clamped(
                Point::new(
                    rng.gen_range_f64(dataset.domain.min_x..dataset.domain.max_x),
                    rng.gen_range_f64(dataset.domain.min_y..dataset.domain.max_y),
                ),
                2.5,
                2.0,
                &dataset.domain,
            )),
            1 => RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..40))]),
            _ => RcDvq::hybrid(
                Rect::centered_clamped(
                    Point::new(
                        rng.gen_range_f64(dataset.domain.min_x..dataset.domain.max_x),
                        rng.gen_range_f64(dataset.domain.min_y..dataset.domain.max_y),
                    ),
                    3.0,
                    3.0,
                    &dataset.domain,
                ),
                vec![KeywordId(rng.gen_range_u32(0..40))],
            ),
        };
        outcomes.push(latest.query(&q, QueryOptions::at(gen.clock())));
    }
    (outcomes, latest)
}

#[test]
fn parallel_pool_replays_the_serial_outcomes() {
    let (serial, serial_latest) = run(1);
    let (pooled, pooled_latest) = run(4);
    assert_eq!(serial.len(), pooled.len());
    for (i, (s, p)) in serial.iter().zip(&pooled).enumerate() {
        assert_eq!(
            s.estimate.to_bits(),
            p.estimate.to_bits(),
            "query {i}: estimate"
        );
        assert_eq!(s.actual, p.actual, "query {i}: actual");
        assert_eq!(
            s.accuracy.to_bits(),
            p.accuracy.to_bits(),
            "query {i}: accuracy"
        );
        assert_eq!(s.estimator, p.estimator, "query {i}: serving estimator");
        assert_eq!(s.phase, p.phase, "query {i}: phase");
        assert_eq!(s.switched, p.switched, "query {i}: switch decision");
    }
    // The runs end in the same place, with the same switch history.
    assert_eq!(serial_latest.phase(), PhaseTag::Incremental);
    assert_eq!(serial_latest.active_kind(), pooled_latest.active_kind());
    let (sl, pl) = (serial_latest.log(), pooled_latest.log());
    assert_eq!(sl.switches.len(), pl.switches.len());
    for (a, b) in sl.switches.iter().zip(&pl.switches) {
        assert_eq!((a.at_seq, a.from, a.to), (b.at_seq, b.from, b.to));
    }
    // Shadow metrics were live for both runs and agree estimator-by-
    // estimator (modulo measured latency).
    let last_s = sl.queries.last().expect("queries logged");
    let last_p = pl.queries.last().expect("queries logged");
    assert_eq!(last_s.shadow.len(), 6);
    for (a, b) in last_s.shadow.iter().zip(&last_p.shadow) {
        assert_eq!(a.estimator, b.estimator);
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
    }
}

#[test]
fn oversized_worker_counts_are_clamped_not_fatal() {
    // More workers than estimators must behave like one-per-estimator.
    let (serial, _) = run(1);
    let (pooled, _) = run(64);
    for (s, p) in serial.iter().zip(&pooled) {
        assert_eq!(s.estimate.to_bits(), p.estimate.to_bits());
        assert_eq!(s.switched, p.switched);
    }
}
