//! Cross-crate estimator contracts: every estimator, driven through
//! realistic window churn, must honor the `SelectivityEstimator` interface
//! and stay within sane bounds of the exact executor's ground truth.

use estimators::{build_estimator, EstimatorConfig, EstimatorKind};
use exactdb::{ExactExecutor, SpatialIndexKind};
use geostream::synth::DatasetSpec;
use geostream::{GeoTextObject, KeywordId, Point, RcDvq, Rect, StreamRng};
use std::collections::VecDeque;

fn config(dataset: &DatasetSpec) -> EstimatorConfig {
    EstimatorConfig {
        domain: dataset.domain,
        reservoir_capacity: 2_000,
        ..EstimatorConfig::default()
    }
}

/// Streams `n` objects through a bounded FIFO window, keeping estimator
/// and executor synchronized, and returns them plus the executor.
fn churn(
    kind: EstimatorKind,
    n: usize,
    window: usize,
) -> (Box<dyn estimators::SelectivityEstimator>, ExactExecutor) {
    let dataset = DatasetSpec::twitter();
    let mut est = build_estimator(kind, &config(&dataset));
    let mut exact = ExactExecutor::new(dataset.domain, SpatialIndexKind::Grid);
    let mut gen = dataset.generator();
    let mut live: VecDeque<GeoTextObject> = VecDeque::new();
    for _ in 0..n {
        let obj = gen.next_object();
        est.insert(&obj);
        exact.insert(&obj);
        live.push_back(obj);
        if live.len() > window {
            let gone = live.pop_front().expect("non-empty");
            est.remove(&gone);
            exact.remove(&gone);
        }
    }
    (est, exact)
}

fn sample_queries(rng: &mut StreamRng, domain: &Rect, n: usize) -> Vec<RcDvq> {
    (0..n)
        .map(|i| {
            let cx = rng.gen_range_f64(domain.min_x..domain.max_x);
            let cy = rng.gen_range_f64(domain.min_y..domain.max_y);
            let half = rng.gen_range_f64(1.0..4.0);
            let rect = Rect::centered_clamped(Point::new(cx, cy), half, half, domain);
            match i % 3 {
                0 => RcDvq::spatial(rect),
                1 => RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..50))]),
                _ => RcDvq::hybrid(rect, vec![KeywordId(rng.gen_range_u32(0..50))]),
            }
        })
        .collect()
}

#[test]
fn population_tracks_window_for_every_estimator() {
    for kind in EstimatorKind::ALL {
        let (est, exact) = churn(kind, 5_000, 3_000);
        assert_eq!(
            est.population(),
            exact.len() as u64,
            "{kind}: population diverged from window"
        );
    }
}

#[test]
fn estimates_are_finite_and_non_negative() {
    let dataset = DatasetSpec::twitter();
    let mut rng = StreamRng::seed_from_u64(11);
    let queries = sample_queries(&mut rng, &dataset.domain, 60);
    for kind in EstimatorKind::ALL {
        let (est, _) = churn(kind, 4_000, 2_500);
        for q in &queries {
            let e = est.estimate(q);
            assert!(
                e.is_finite() && e >= 0.0,
                "{kind}: bad estimate {e} for {q:?}"
            );
        }
    }
}

#[test]
fn structure_estimators_beat_trivial_baselines() {
    // For the four structure estimators, the mean accuracy over mixed
    // queries must beat the "always answer zero" strawman.
    let dataset = DatasetSpec::twitter();
    let mut rng = StreamRng::seed_from_u64(13);
    let queries = sample_queries(&mut rng, &dataset.domain, 90);
    for kind in [EstimatorKind::Rsl, EstimatorKind::Rsh, EstimatorKind::Aasp] {
        let (est, exact) = churn(kind, 6_000, 4_000);
        let (mut est_acc, mut zero_acc) = (0.0, 0.0);
        for q in &queries {
            let actual = exact.execute(q);
            est_acc += latest_core::estimation_accuracy(est.estimate(q), actual);
            zero_acc += latest_core::estimation_accuracy(0.0, actual);
        }
        assert!(
            est_acc > zero_acc,
            "{kind}: worse than answering zero ({est_acc:.1} vs {zero_acc:.1})"
        );
    }
}

#[test]
fn samplers_are_near_exact_on_broad_queries() {
    // A query matching thousands of objects has negligible sampling error.
    for kind in [EstimatorKind::Rsl, EstimatorKind::Rsh] {
        let (est, exact) = churn(kind, 5_000, 4_000);
        let q = RcDvq::spatial(DatasetSpec::twitter().domain);
        let actual = exact.execute(&q) as f64;
        let e = est.estimate(&q);
        assert!(
            (e - actual).abs() / actual < 0.05,
            "{kind}: whole-domain estimate off: {e} vs {actual}"
        );
    }
}

#[test]
fn histogram_is_exact_on_whole_domain() {
    let (est, exact) = churn(EstimatorKind::H4096, 5_000, 4_000);
    let q = RcDvq::spatial(DatasetSpec::twitter().domain);
    assert_eq!(est.estimate(&q).round() as u64, exact.execute(&q));
}

#[test]
fn memory_accounting_is_plausible() {
    for kind in EstimatorKind::ALL {
        let (est_small, _) = churn(kind, 500, 400);
        let (est_big, _) = churn(kind, 6_000, 4_000);
        let (small, big) = (est_small.memory_bytes(), est_big.memory_bytes());
        assert!(small > 0 && big > 0, "{kind}: zero memory reported");
        assert!(
            big >= small,
            "{kind}: memory shrank with more data ({small} -> {big})"
        );
    }
}

#[test]
fn exact_backends_agree_under_churn() {
    let dataset = DatasetSpec::checkin();
    let mut grid = ExactExecutor::new(dataset.domain, SpatialIndexKind::Grid);
    let mut quad = ExactExecutor::new(dataset.domain, SpatialIndexKind::Quadtree);
    let mut gen = dataset.generator();
    let mut live: VecDeque<GeoTextObject> = VecDeque::new();
    for _ in 0..4_000 {
        let obj = gen.next_object();
        grid.insert(&obj);
        quad.insert(&obj);
        live.push_back(obj);
        if live.len() > 2_500 {
            let gone = live.pop_front().expect("non-empty");
            grid.remove(&gone);
            quad.remove(&gone);
        }
    }
    let mut rng = StreamRng::seed_from_u64(17);
    for q in sample_queries(&mut rng, &dataset.domain, 60) {
        assert_eq!(
            grid.execute(&q),
            quad.execute(&q),
            "backends disagree on {q:?}"
        );
    }
    assert_eq!(grid.len(), quad.len());
}
