//! Quickstart: stand up a LATEST instance on a synthetic geo-textual
//! stream and ask it selectivity questions.
//!
//! ```text
//! cargo run --release -p latest-core --example quickstart
//! ```

use geostream::synth::DatasetSpec;
use geostream::{Duration, KeywordId, Point, RcDvq, Rect};
use latest_core::{Latest, LatestConfig, LifecycleEvent, PhaseTag, QueryOptions};

fn main() {
    // A Twitter-like synthetic stream: hotspot-clustered geotagged posts
    // with Zipf-distributed keywords.
    let dataset = DatasetSpec::twitter();
    let mut objects = dataset.generator();

    // LATEST sized for a quick demo: a 60-second window, short
    // pre-training, and the RSH sampler as the default estimator. The
    // builder validates every parameter domain up front. `.shard(...)`
    // stays at its single-shard default here — see the `sharded_serving`
    // example for partitioning the stream across worker threads.
    let config = LatestConfig::builder()
        .window_span(Duration::from_secs(60))
        .warmup(Duration::from_secs(60))
        .pretrain_queries(120)
        .shard(latest_core::ShardConfig::default())
        .estimator_config(estimators::EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 5_000,
            ..estimators::EstimatorConfig::default()
        })
        .build()
        .expect("demo parameters are in range");
    let mut latest = Latest::new(config);

    // Phase 1 — warm-up: stream data until the window is full.
    while latest.phase() == PhaseTag::WarmUp {
        latest.ingest(objects.next_object());
    }
    println!(
        "warm-up done: {} live objects in the window",
        latest.window_len()
    );

    // Phase 2 — pre-training: every query runs on all six estimators and
    // becomes training data for the Hoeffding tree.
    let downtown = Rect::centered_clamped(
        Point::new(-118.2, 34.0), // Los Angeles-ish
        2.0,
        1.5,
        &dataset.domain,
    );
    let mut qn = 0u32;
    while latest.phase() == PhaseTag::PreTraining {
        for _ in 0..25 {
            latest.ingest(objects.next_object());
        }
        let query = match qn % 3 {
            0 => RcDvq::spatial(downtown),
            1 => RcDvq::keyword(vec![KeywordId(qn % 50)]),
            _ => RcDvq::hybrid(downtown, vec![KeywordId(qn % 50)]),
        };
        let _ = latest.query(&query, QueryOptions::new());
        qn += 1;
    }
    println!(
        "pre-training done after {qn} queries; model: {:?}",
        latest.tree_stats()
    );

    // Phase 3 — incremental learning: one active estimator answers, the
    // system logs score it, and the adaptor switches when accuracy sags.
    // The engine keeps no per-query history: a caller that wants one builds
    // it from the outcomes it is handed.
    let mut accuracy_sum = 0.0;
    for i in 0..200u32 {
        for _ in 0..25 {
            latest.ingest(objects.next_object());
        }
        let query = RcDvq::hybrid(downtown, vec![KeywordId(i % 20)]);
        let out = latest.query(&query, QueryOptions::new());
        accuracy_sum += out.accuracy;
        if i % 50 == 0 {
            println!(
                "q{i:>3} [{}] estimate={:>8.1} actual={:>6} accuracy={:.2} latency={:.3}ms",
                out.estimator, out.estimate, out.actual, out.accuracy, out.latency_ms
            );
        }
    }

    // Lifecycle history — switches, prefills, phase changes — is in the
    // bounded event stream of the metrics snapshot.
    let snap = latest.metrics_snapshot();
    println!(
        "\nactive estimator: {} | switches: {} | mean incremental accuracy: {:.3}",
        latest.active_kind(),
        snap.adaptor.switches,
        accuracy_sum / 200.0
    );
    for event in snap.switch_events() {
        if let LifecycleEvent::EstimatorSwitched {
            seq,
            from,
            to,
            trigger_average,
            ..
        } = event
        {
            println!("  switch at query #{seq}: {from} -> {to} (trigger avg {trigger_average:.2})");
        }
    }
}
