//! Live pipeline: run LATEST the way a service would — ingestion on a
//! background thread (bounded queue with backpressure), queries from
//! several client threads against a shared handle.
//!
//! This keeps one instance behind a lock; to spread the stream itself
//! across cores (one window + pool + cache per shard, scatter-gather
//! queries), see the `sharded_serving` example.
//!
//! ```text
//! cargo run --release -p latest-core --example live_pipeline
//! ```

use estimators::EstimatorConfig;
use geostream::synth::DatasetSpec;
use geostream::{Duration, KeywordId, Point, RcDvq, Rect};
use latest_core::concurrent::StreamPipeline;
use latest_core::{LatestConfig, PhaseTag, QueryOptions};

fn main() {
    let dataset = DatasetSpec::twitter();
    // Four pool workers: pre-training and shadow maintenance fan the six
    // estimators across threads instead of updating them serially.
    let config = LatestConfig::builder()
        .window_span(Duration::from_secs(60))
        .warmup(Duration::from_secs(60))
        .pretrain_queries(120)
        .pool_workers(4)
        .estimator_config(EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 5_000,
            ..EstimatorConfig::default()
        })
        .build()
        .expect("demo parameters are in range");

    println!("spawning ingestion pipeline…");
    let pipeline =
        StreamPipeline::spawn(config, dataset.generator(), 8_192).expect("pipeline threads spawn");
    pipeline.wait_for_phase(PhaseTag::PreTraining);
    println!(
        "window filled: {} live objects",
        pipeline.handle().window_len()
    );

    // Feed the pre-training phase from the main thread.
    let hotspots: Vec<Point> = dataset
        .spatial_model()
        .hotspots()
        .iter()
        .take(8)
        .map(|h| h.center)
        .collect();
    let handle = pipeline.handle();
    let mut i = 0u32;
    while handle.phase() == PhaseTag::PreTraining {
        let c = hotspots[i as usize % hotspots.len()];
        let area = Rect::centered_clamped(c, 2.0, 1.5, &dataset.domain);
        let q = match i % 3 {
            0 => RcDvq::spatial(area),
            1 => RcDvq::keyword(vec![KeywordId(i % 40)]),
            _ => RcDvq::hybrid(area, vec![KeywordId(i % 40)]),
        };
        let _ = handle
            .query(&q, QueryOptions::new())
            .expect("pipeline is live");
        i += 1;
    }
    println!("pre-training finished after {i} queries; serving clients…\n");

    // Periodic observability scrape: a background thread snapshots the
    // metrics registry (counters, latency histograms, lifecycle events)
    // every 10 ms while the clients run.
    let scraper = pipeline
        .spawn_scraper(std::time::Duration::from_millis(10), 64)
        .expect("scraper thread spawns");

    // Four concurrent "client" threads hammer the shared instance while
    // ingestion keeps running underneath.
    let mut clients = Vec::new();
    for t in 0..4u32 {
        let handle = pipeline.handle();
        let hotspots = hotspots.clone();
        let domain = dataset.domain;
        clients.push(std::thread::spawn(move || {
            let mut acc_sum = 0.0;
            let queries = 200;
            for i in 0..queries {
                let c = hotspots[(t + i) as usize % hotspots.len()];
                let area = Rect::centered_clamped(c, 2.0, 1.5, &domain);
                let q = if (t + i) % 2 == 0 {
                    RcDvq::spatial(area)
                } else {
                    RcDvq::hybrid(area, vec![KeywordId((t * 53 + i) % 40)])
                };
                acc_sum += handle
                    .query(&q, QueryOptions::new())
                    .expect("pipeline is live")
                    .accuracy;
            }
            (t, acc_sum / queries as f64)
        }));
    }
    for client in clients {
        let (t, mean_acc) = client.join().expect("client thread panicked");
        println!("client {t}: mean accuracy {mean_acc:.3} over 200 queries");
    }

    let handle = pipeline.handle();
    println!(
        "\nactive estimator: {} | switches: {} | window: {} objects",
        handle.active_kind(),
        handle.switch_count(),
        handle.window_len()
    );

    // Drain the scrape stream, then take one final snapshot directly
    // (MetricsSnapshot::to_json() gives the machine-readable form).
    let _ = scraper.latest();
    let taken = scraper.stop();
    let snap = handle.metrics_snapshot();
    println!(
        "scraper took {taken} periodic snapshots; final: {} queries, \
         {} lifecycle events, executor path mix {}/{} (spatial/inverted)",
        snap.queries_total,
        snap.events.len(),
        snap.executor.spatial,
        snap.executor.inverted
    );
    let ingested = pipeline.shutdown();
    println!("pipeline ingested {ingested} objects in the background");
}
