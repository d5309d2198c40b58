//! Live pipeline: run LATEST the way a service would — ingestion on a
//! background thread, queries from several client threads against a
//! shared handle.
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
use geostream::{Duration, GeoTextObject, KeywordId, Point, RcDvq, Rect};
use latest_core::{LatestConfig, PhaseTag, QueryOptions, SharedLatest, SnapshotScraper};
use std::sync::atomic::{AtomicBool, Ordering};

/// Arrivals ingested per lock acquisition: large enough to amortize locking
/// and estimator maintenance, small enough to keep query-path lock waits
/// bounded.
const INGEST_BATCH: usize = 256;

/// Tells the ingest thread to stop when the serving code is done — or
/// unwinds, so a panic in it cannot leave the scope waiting forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn main() {
    let dataset = DatasetSpec::twitter();
    let config = LatestConfig::builder()
        .window_span(Duration::from_secs(60))
        .warmup(Duration::from_secs(60))
        .pretrain_queries(120)
        .estimator_config(EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 5_000,
            ..EstimatorConfig::default()
        })
        .build()
        .expect("demo parameters are in range");

    let hotspots: Vec<Point> = dataset
        .spatial_model()
        .hotspots()
        .iter()
        .take(8)
        .map(|h| h.center)
        .collect();

    println!("spawning ingestion pipeline…");
    let shared = SharedLatest::new(config);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The ingest path: one thread pulls the stream and applies it in
        // batches, each under a single lock acquisition.
        let ingestor = scope.spawn(|| {
            let mut generator = dataset.generator();
            let mut ingested = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let batch: Vec<GeoTextObject> =
                    (0..INGEST_BATCH).map(|_| generator.next_object()).collect();
                shared.ingest_batch(&batch);
                ingested += batch.len() as u64;
            }
            ingested
        });
        let stop_ingestor = StopOnDrop(&stop);

        while shared.phase() == PhaseTag::WarmUp {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        println!("window filled: {} live objects", shared.window_len());

        // Feed the pre-training phase from the main thread.
        let mut i = 0u32;
        while shared.phase() == PhaseTag::PreTraining {
            let c = hotspots[i as usize % hotspots.len()];
            let area = Rect::centered_clamped(c, 2.0, 1.5, &dataset.domain);
            let q = match i % 3 {
                0 => RcDvq::spatial(area),
                1 => RcDvq::keyword(vec![KeywordId(i % 40)]),
                _ => RcDvq::hybrid(area, vec![KeywordId(i % 40)]),
            };
            let _ = shared
                .query(&q, QueryOptions::new())
                .expect("blocking queries wait their turn");
            i += 1;
        }
        println!("pre-training finished after {i} queries; serving clients…\n");

        // Periodic observability scrape: a background thread snapshots the
        // metrics registry (counters, latency histograms, lifecycle events)
        // every 10 ms while the clients run.
        let scraped = shared.clone();
        let scraper = SnapshotScraper::spawn_source(
            move || Some(scraped.metrics_snapshot()),
            std::time::Duration::from_millis(10),
            64,
        )
        .expect("scraper thread spawns");

        // Four concurrent "client" threads hammer the shared instance while
        // ingestion keeps running underneath.
        let clients: Vec<_> = (0..4u32)
            .map(|t| {
                let (shared, hotspots, domain) = (&shared, &hotspots, dataset.domain);
                scope.spawn(move || {
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
                        acc_sum += shared
                            .query(&q, QueryOptions::new())
                            .expect("blocking queries wait their turn")
                            .accuracy;
                    }
                    (t, acc_sum / queries as f64)
                })
            })
            .collect();
        for client in clients {
            let (t, mean_acc) = client.join().expect("client thread panicked");
            println!("client {t}: mean accuracy {mean_acc:.3} over 200 queries");
        }

        println!(
            "\nactive estimator: {} | switches: {} | window: {} objects",
            shared.active_kind(),
            shared.switch_count(),
            shared.window_len()
        );

        // Drain the scrape stream, then take one final snapshot directly
        // (MetricsSnapshot::to_json() gives the machine-readable form).
        let _ = scraper.latest();
        let taken = scraper.stop();
        let snap = shared.metrics_snapshot();
        println!(
            "scraper took {taken} periodic snapshots; final: {} queries, \
             {} lifecycle events, executor path mix {}/{} (spatial/inverted)",
            snap.queries_total,
            snap.events.len(),
            snap.executor.spatial,
            snap.executor.inverted
        );
        drop(stop_ingestor);
        let ingested = ingestor.join().expect("ingest thread panicked");
        println!("pipeline ingested {ingested} objects in the background");
    });
}
