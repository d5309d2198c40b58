//! Concurrency regression tests for the hand-threaded serving layer:
//!
//! * **thread-leak detection** — every component that spawns workers
//!   (`ShardedLatest`, `ServingEngine`, `PrefillBuilder`, `SnapshotScraper`)
//!   must join them on its drop path, and `Latest` must never spawn one at
//!   all. Checked by counting `/proc/self/task` entries around each
//!   component's lifetime (the `thread.*` join claims in `conc.toml`,
//!   tested for real).
//! * **scrape-during-ingest** — `MetricsSnapshot::merge` under a scraper
//!   racing `ingest_batch` and `query_batch`: the merged snapshot must
//!   never report more cache lookups (hits + misses) than sub-queries
//!   submitted, and successive merged snapshots must be monotone.
//!
//! Both tests manipulate process-wide thread counts, so they serialize on
//! one mutex instead of trusting the harness not to interleave them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration as StdDuration;

use estimators::{EstimatorConfig, EstimatorKind};
use geostream::synth::DatasetSpec;
use geostream::{Duration, GeoTextObject, KeywordId, ObjectId, Point, RcDvq, Timestamp};
use latest_core::{
    Latest, LatestConfig, PrefillBuilder, QueryOptions, RouterPolicy, ServingEngine, ShardConfig,
    ShardedLatest, SharedLatest, SnapshotScraper,
};

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn config(shards: usize) -> LatestConfig {
    let dataset = DatasetSpec::twitter();
    let mut b = LatestConfig::builder()
        .window_span(Duration::from_secs(3_600))
        .warmup(Duration::from_secs(60))
        .pretrain_queries(10)
        .estimator_config(EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 500,
            ..EstimatorConfig::default()
        });
    if shards > 1 {
        b = b.shard(ShardConfig {
            shards,
            queue_capacity: 1_024,
            router: RouterPolicy::HashOid,
        });
    }
    b.build().expect("valid test config")
}

fn objects(start: u64, n: u64) -> Vec<GeoTextObject> {
    (start..start + n)
        .map(|i| {
            GeoTextObject::new(
                ObjectId(i),
                Point::new((i % 100) as f64 - 110.0, (i % 15) as f64 + 30.0),
                vec![KeywordId(i as u32 % 16)],
                Timestamp(i),
            )
        })
        .collect()
}

/// Live thread count of this process, via `/proc/self/task`. Returns
/// `None` where procfs is unavailable (the leak checks become no-ops).
///
/// The harness starts and retires the sibling test's thread whenever it
/// likes — before or after a baseline is taken — so that thread is left
/// out by name: a task is born with its creator's name (here the main
/// thread's) and only takes its own once it is first scheduled, and
/// whatever the sibling spawned inherits the sibling's. Threads the leak
/// test spawns carry its own name or a library one and are counted. When
/// the harness runs tests on the main thread itself nothing runs beside
/// them, and every task counts.
fn live_threads() -> Option<usize> {
    // The kernel keeps the first 15 bytes of a thread name.
    const SIBLING: &str = "merged_snapshot\n";
    let main = std::fs::read_to_string("/proc/self/comm").ok()?;
    let this = std::fs::read_to_string("/proc/thread-self/comm").ok()?;
    let names = std::fs::read_dir("/proc/self/task")
        .ok()?
        .filter_map(Result::ok)
        // A task that exits between the listing and this read is gone.
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok());
    Some(if this == main {
        names.count()
    } else {
        names
            .filter(|name| *name != main && name != SIBLING)
            .count()
    })
}

/// Asserts the process is back to at most `baseline` threads. Exiting
/// tasks can linger in procfs for a moment after `join` returns, so this
/// polls briefly before declaring a leak.
fn assert_no_thread_leak(what: &str, baseline: usize) {
    let mut last = None;
    for _ in 0..200 {
        match live_threads() {
            None => return, // no procfs — nothing to measure
            Some(n) if n <= baseline => return,
            Some(n) => last = Some(n),
        }
        std::thread::sleep(StdDuration::from_millis(5));
    }
    panic!("{what}: worker thread outlived its owner: {last:?} live threads, baseline {baseline}");
}

#[test]
fn drops_join_every_worker_thread() {
    let _guard = serial();
    if live_threads().is_none() {
        return; // no procfs on this platform; covered on Linux CI
    }
    let probe = |i: u32| RcDvq::keyword(vec![KeywordId(i % 16)]);

    // Latest: single-threaded by contract — constructing, ingesting, and
    // querying must not spawn anything.
    let baseline = live_threads().unwrap();
    {
        let mut latest = Latest::new(config(1));
        latest.ingest_batch(&objects(0, 256));
        for i in 0..8 {
            let _ = latest.query(&probe(i), QueryOptions::new());
        }
        assert_eq!(live_threads().unwrap(), baseline, "Latest spawned a thread");
    }
    assert_no_thread_leak("Latest", baseline);

    // ShardedLatest: explicit shutdown() joins the shard workers...
    let baseline = live_threads().unwrap();
    {
        let engine = ShardedLatest::new(config(4)).expect("engine spawns");
        engine.ingest_batch(&objects(0, 512)).expect("ingest");
        engine
            .query_batch(&[probe(1), probe(2)], QueryOptions::new())
            .expect("query");
        engine.shutdown();
        assert_no_thread_leak("ShardedLatest::shutdown", baseline);
    }
    // ...and a plain drop must join them too.
    {
        let engine = ShardedLatest::new(config(4)).expect("engine spawns");
        engine.ingest_batch(&objects(0, 128)).expect("ingest");
        drop(engine);
    }
    assert_no_thread_leak("ShardedLatest drop", baseline);

    // ServingEngine: dropping the engine joins its serving workers even
    // while the backing ShardedLatest stays alive.
    let baseline = live_threads().unwrap();
    {
        let sharded = Arc::new(ShardedLatest::new(config(2)).expect("engine spawns"));
        sharded.ingest_batch(&objects(0, 256)).expect("ingest");
        let mid = live_threads().unwrap();
        {
            let serving = ServingEngine::new(Arc::clone(&sharded), 3, 64).expect("serving spawns");
            let ticket = serving
                .submit(vec![probe(3), probe(4)], QueryOptions::new())
                .expect("submit");
            let outcomes = serving.wait(ticket).expect("serve");
            assert_eq!(outcomes.len(), 2);
            drop(serving);
        }
        assert_no_thread_leak("ServingEngine drop", mid);
        drop(sharded);
    }
    assert_no_thread_leak("ShardedLatest under ServingEngine", baseline);

    // PrefillBuilder: Drop closes the job queue and joins the lazily
    // spawned builder thread — even with a build still in flight.
    let baseline = live_threads().unwrap();
    {
        let cfg = EstimatorConfig {
            domain: DatasetSpec::twitter().domain,
            reservoir_capacity: 500,
            ..EstimatorConfig::default()
        };
        let mut builder = PrefillBuilder::new();
        let ticket = builder.submit(EstimatorKind::H4096, &cfg, objects(0, 2_000).into());
        assert!(ticket.wait().is_some(), "builder delivered");
        let ticket = builder.submit(EstimatorKind::Rsl, &cfg, objects(0, 4_000).into());
        drop(ticket); // abandoned mid-build
        drop(builder);
    }
    assert_no_thread_leak("PrefillBuilder", baseline);

    // SnapshotScraper: stop() joins the scrape thread.
    let baseline = live_threads().unwrap();
    {
        let shared = SharedLatest::new(config(1));
        shared.ingest_batch(&objects(0, 256));
        let source = shared.clone();
        let scraper = SnapshotScraper::spawn_source(
            move || Some(source.metrics_snapshot()),
            StdDuration::from_millis(5),
            16,
        )
        .expect("scraper spawns");
        std::thread::sleep(StdDuration::from_millis(20));
        scraper.stop();
    }
    assert_no_thread_leak("SnapshotScraper", baseline);
}

/// A scraper thread calling `metrics_snapshot` (which merges per-shard
/// snapshots with `MetricsSnapshot::merge`) races `ingest_batch` and
/// cached `query_batch` traffic. Each sub-query increments exactly one of
/// cache_hits/cache_misses after its submission was counted, so no merged
/// snapshot may ever report hits + misses above the submitted count — a
/// torn or double-counted merge would.
#[test]
fn merged_snapshot_is_consistent_under_scrape_during_ingest() {
    let _guard = serial();
    const SHARDS: usize = 4;
    let engine = Arc::new(ShardedLatest::new(config(SHARDS)).expect("engine spawns"));
    engine.ingest_batch(&objects(0, 256)).expect("seed ingest");

    // Keyword queries have no spatial locality: each fans out to every
    // shard, so one submitted query is exactly SHARDS cache lookups.
    let submitted = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let ingester = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut at = 256u64;
            while !stop.load(Ordering::SeqCst) {
                engine.ingest_batch(&objects(at, 16)).expect("ingest");
                at += 16;
            }
            at
        })
    };
    let querier = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let submitted = Arc::clone(&submitted);
        std::thread::spawn(move || {
            let mut rounds = 0u64;
            while !stop.load(Ordering::SeqCst) {
                // Each batch repeats its signatures: the first occurrence
                // misses and populates the cache, the duplicate hits it
                // within the same window generation — guaranteed hits even
                // while ingest keeps invalidating across batches.
                let batch: Vec<RcDvq> = (0..4)
                    .map(|i| RcDvq::keyword(vec![KeywordId((rounds as u32 + i / 2) % 6)]))
                    .collect();
                // Counted BEFORE the submit so every hit/miss increment a
                // snapshot can observe is covered by the count we read
                // after it.
                submitted.fetch_add(batch.len() as u64 * SHARDS as u64, Ordering::SeqCst);
                engine
                    .query_batch(&batch, QueryOptions::new())
                    .expect("query");
                rounds += 1;
            }
            rounds
        })
    };

    let mut prev_lookups = 0u64;
    let mut prev_queries = 0u64;
    for _ in 0..40 {
        let snap = engine.metrics_snapshot().expect("snapshot");
        let lookups = snap.cache_hits + snap.cache_misses;
        let ceiling = submitted.load(Ordering::SeqCst);
        assert!(
            lookups <= ceiling,
            "merged snapshot invented cache traffic: hits {} + misses {} > {} submitted",
            snap.cache_hits,
            snap.cache_misses,
            ceiling
        );
        // Per-shard snapshots are FIFO-ordered, so merged counters are
        // monotone even though each scrape observes the shards at
        // slightly different instants.
        assert!(
            lookups >= prev_lookups,
            "merged cache counters went backwards: {lookups} < {prev_lookups}"
        );
        assert!(
            snap.queries_total >= prev_queries,
            "merged queries_total went backwards: {} < {prev_queries}",
            snap.queries_total
        );
        prev_lookups = lookups;
        prev_queries = snap.queries_total;
        std::thread::sleep(StdDuration::from_millis(2));
    }

    stop.store(true, Ordering::SeqCst);
    let ingested_to = ingester.join().expect("ingester");
    let rounds = querier.join().expect("querier");
    assert!(ingested_to > 256 && rounds > 0, "threads did no work");

    // Quiescent: the final snapshot accounts for every lookup exactly.
    engine.flush().expect("flush");
    let snap = engine.metrics_snapshot().expect("snapshot");
    assert_eq!(
        snap.cache_hits + snap.cache_misses,
        submitted.load(Ordering::SeqCst),
        "quiescent lookup count does not match submissions"
    );
    assert!(snap.cache_hits > 0, "workload produced no cache hits");
}
