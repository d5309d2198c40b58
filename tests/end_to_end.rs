//! End-to-end integration: the full LATEST pipeline over synthetic
//! streams, spanning every crate in the workspace.

use estimators::{EstimatorConfig, EstimatorKind};
use geostream::synth::DatasetSpec;
use geostream::{Duration, KeywordId, Point, RcDvq, Rect, StreamRng};
use latest_core::{Latest, LatestConfig, LifecycleEvent, PhaseTag, QueryOptions, ServedBy};

fn test_config(dataset: &DatasetSpec) -> LatestConfig {
    LatestConfig {
        window_span: Duration::from_secs(45),
        warmup: Duration::from_secs(45),
        pretrain_queries: 30,
        accuracy_window: 12,
        min_switch_spacing: 12,
        estimator_config: EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 1_500,
            ..EstimatorConfig::default()
        },
        ..LatestConfig::default()
    }
}

#[test]
fn full_lifecycle_reaches_incremental_phase() {
    let dataset = DatasetSpec::twitter();
    let mut latest = Latest::new(test_config(&dataset));
    let mut gen = dataset.generator();
    assert_eq!(latest.phase(), PhaseTag::WarmUp);
    while latest.phase() == PhaseTag::WarmUp {
        latest.ingest(gen.next_object());
    }
    assert_eq!(latest.phase(), PhaseTag::PreTraining);
    assert!(
        latest.window_len() > 1_000,
        "window too small after warm-up"
    );
    let mut rng = StreamRng::seed_from_u64(1);
    for i in 0..40u32 {
        for _ in 0..10 {
            latest.ingest(gen.next_object());
        }
        let q = if i % 2 == 0 {
            RcDvq::spatial(Rect::centered_clamped(
                Point::new(
                    rng.gen_range_f64(dataset.domain.min_x..dataset.domain.max_x),
                    rng.gen_range_f64(dataset.domain.min_y..dataset.domain.max_y),
                ),
                2.0,
                2.0,
                &dataset.domain,
            ))
        } else {
            RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..40))])
        };
        let out = latest.query(&q, QueryOptions::at(gen.clock()));
        assert!(out.estimate >= 0.0);
        assert!(out.latency_ms >= 0.0);
        assert!((0.0..=1.0).contains(&out.accuracy));
    }
    assert_eq!(latest.phase(), PhaseTag::Incremental);
    assert!(latest.tree_stats().instances_seen >= 40);
    // Pre-training wipes all but the default estimator.
    assert_eq!(latest.active_kind(), EstimatorKind::Rsh);
}

#[test]
fn keyword_flood_forces_histogram_abandonment() {
    // Start on the keyword-blind histogram and flood with keyword queries:
    // the adaptor must abandon it (the core claim of the paper).
    let dataset = DatasetSpec::twitter();
    let mut config = test_config(&dataset);
    config.default_estimator = EstimatorKind::H4096;
    let mut latest = Latest::new(config);
    let mut gen = dataset.generator();
    while latest.phase() == PhaseTag::WarmUp {
        latest.ingest(gen.next_object());
    }
    let mut rng = StreamRng::seed_from_u64(2);
    for _ in 0..150u32 {
        for _ in 0..10 {
            latest.ingest(gen.next_object());
        }
        let q = RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..30))]);
        let _ = latest.query(&q, QueryOptions::at(gen.clock()));
        if latest.phase() == PhaseTag::Incremental && latest.active_kind() != EstimatorKind::H4096 {
            break;
        }
    }
    assert_ne!(latest.active_kind(), EstimatorKind::H4096);
    let snap = latest.metrics_snapshot();
    // The switch event must be internally consistent.
    let Some(LifecycleEvent::EstimatorSwitched {
        from,
        to,
        trigger_average,
        ..
    }) = snap.switch_events().first().copied()
    else {
        panic!("no switch event recorded");
    };
    assert_eq!(*from, EstimatorKind::H4096);
    assert_ne!(*to, EstimatorKind::H4096);
    assert!(*trigger_average < 0.9);
}

#[test]
fn estimates_track_ground_truth_on_stable_workload() {
    let dataset = DatasetSpec::ebird();
    let mut latest = Latest::new(test_config(&dataset));
    let mut gen = dataset.generator();
    while latest.phase() == PhaseTag::WarmUp {
        latest.ingest(gen.next_object());
    }
    // Wide spatial queries over observation clusters: the sampler should
    // stay close to the executor's exact counts.
    let hotspots: Vec<Point> = dataset
        .spatial_model()
        .hotspots()
        .iter()
        .take(8)
        .map(|h| h.center)
        .collect();
    let mut accuracies = Vec::new();
    for i in 0..80usize {
        for _ in 0..10 {
            latest.ingest(gen.next_object());
        }
        let c = hotspots[i % hotspots.len()];
        let q = RcDvq::spatial(Rect::centered_clamped(c, 1.5, 1.5, &dataset.domain));
        let out = latest.query(&q, QueryOptions::at(gen.clock()));
        if out.phase == PhaseTag::Incremental {
            accuracies.push(out.accuracy);
        }
    }
    let mean: f64 = accuracies.iter().sum::<f64>() / accuracies.len() as f64;
    assert!(mean > 0.7, "stable-workload accuracy too low: {mean}");
}

#[test]
fn log_is_complete_and_ordered() {
    let dataset = DatasetSpec::checkin();
    let mut latest = Latest::new(test_config(&dataset));
    let mut gen = dataset.generator();
    while latest.phase() == PhaseTag::WarmUp {
        latest.ingest(gen.next_object());
    }
    let mut rng = StreamRng::seed_from_u64(3);
    let total = 60u64;
    for _ in 0..total {
        for _ in 0..5 {
            latest.ingest(gen.next_object());
        }
        let q = RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..100))]);
        let out = latest.query(&q, QueryOptions::at(gen.clock()));
        // The window moved since the last query, so every answer is an
        // estimator's (nothing served from the cache).
        assert!(matches!(out.served_by, ServedBy::Estimator(_)));
    }
    // The engine's own journal: every query counted once, phases entered
    // in lifetime order.
    let snap = latest.metrics_snapshot();
    assert_eq!(snap.queries_total, total);
    assert_eq!(
        snap.phase_events(),
        [
            PhaseTag::WarmUp,
            PhaseTag::PreTraining,
            PhaseTag::Incremental
        ]
    );
    // Switches (if any) reference real query positions, in order.
    let mut last_seq = 0;
    for ev in snap.switch_events() {
        let LifecycleEvent::EstimatorSwitched { seq, from, to, .. } = ev else {
            panic!("switch_events returned {ev:?}");
        };
        assert!(*seq < total && *seq >= last_seq);
        assert_ne!(from, to);
        last_seq = *seq;
    }
}

#[test]
fn window_executor_and_estimators_stay_in_sync() {
    let dataset = DatasetSpec::twitter();
    let mut config = test_config(&dataset);
    config.window_span = Duration::from_secs(10);
    config.warmup = Duration::from_secs(10);
    let mut latest = Latest::new(config);
    let mut gen = dataset.generator();
    for _ in 0..8_000 {
        latest.ingest(gen.next_object());
    }
    // The window must have evicted most of the 8k objects; the unbounded
    // query over the whole domain must agree with the window size.
    assert!(latest.window_len() < 8_000);
    let q = RcDvq::spatial(dataset.domain);
    let out = latest.query(&q, QueryOptions::at(gen.clock()));
    assert_eq!(out.actual as usize, latest.window_len());
}
