//! Concurrent deployment facade.
//!
//! A real system ingests the stream on one path and answers estimation
//! queries on another. This module provides the two pieces a deployment
//! needs:
//!
//! * [`SharedLatest`] — a cheaply cloneable, thread-safe handle around a
//!   [`Latest`] instance (one mutex; LATEST's per-event work is
//!   microseconds, so a mutex outperforms anything fancier at realistic
//!   rates);
//! * [`StreamPipeline`] — a pipeline over a bounded [`queue`](crate::queue)
//!   that runs ingestion on a background thread while the caller issues
//!   queries from any number of threads. The consumer drains the queue
//!   into batches, so lock traffic and estimator maintenance are amortized
//!   over many arrivals ([`Latest::ingest_batch`]).
//!
//! Query paths are fallible: once a pipeline shuts down, its handles
//! return [`LatestError::PipelineShutDown`] instead of silently answering
//! against a stream that is no longer advancing; a non-blocking request
//! ([`QueryOptions::blocking`]`(false)`) additionally refuses to wait on a
//! contended instance and fails with [`LatestError::WouldBlock`] instead.
//!
//! ```
//! use geostream::synth::DatasetSpec;
//! use geostream::{Duration, RcDvq, Rect};
//! use latest_core::concurrent::StreamPipeline;
//! use latest_core::{LatestConfig, LatestError, PhaseTag, QueryOptions};
//!
//! let dataset = DatasetSpec::twitter();
//! let config = LatestConfig::builder()
//!     .window_span(Duration::from_secs(30))
//!     .warmup(Duration::from_secs(30))
//!     .pretrain_queries(10)
//!     .estimator_config(estimators::EstimatorConfig {
//!         domain: dataset.domain,
//!         reservoir_capacity: 1_000,
//!         ..Default::default()
//!     })
//!     .build()
//!     .expect("parameters are in range");
//! let pipeline =
//!     StreamPipeline::spawn(config, dataset.generator(), 8_000).expect("threads spawn");
//! pipeline.wait_for_phase(PhaseTag::PreTraining);
//! let handle = pipeline.handle();
//! let out = handle
//!     .query(
//!         &RcDvq::spatial(Rect::new(-120.0, 30.0, -100.0, 45.0)),
//!         QueryOptions::new(),
//!     )
//!     .expect("pipeline is live");
//! assert!(out.estimate >= 0.0);
//! pipeline.shutdown();
//! assert_eq!(
//!     handle
//!         .query(&RcDvq::spatial(Rect::WORLD), QueryOptions::new())
//!         .unwrap_err(),
//!     LatestError::PipelineShutDown
//! );
//! ```

use crate::error::LatestError;
use crate::log::PhaseTag;
use crate::obsv::MetricsSnapshot;
use crate::queue::{bounded, Receiver, RecvTimeoutError, Sender};
use crate::system::{Latest, LatestConfig, QueryOptions, QueryOutcome};
use crate::unpoisoned;
use estimators::EstimatorKind;
use geostream::synth::ObjectGenerator;
use geostream::{GeoTextObject, RcDvq};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;

/// How many queued arrivals the pipeline consumer ingests per lock
/// acquisition, at most. Large enough to amortize locking and estimator
/// fan-out, small enough to keep query-path lock waits bounded.
const INGEST_BATCH: usize = 256;

/// A thread-safe, cloneable handle to a LATEST instance.
#[derive(Clone)]
pub struct SharedLatest {
    inner: Arc<Mutex<Latest>>,
    /// Cleared when the owning pipeline shuts down; standalone handles
    /// stay open forever.
    open: Arc<AtomicBool>,
}

impl SharedLatest {
    /// Wraps a fresh LATEST instance.
    pub fn new(config: LatestConfig) -> Self {
        SharedLatest {
            // CONC(shared-latest/latest-mutex): the one lock guarding all
            // Latest state; held only for the duration of each call
            inner: Arc::new(Mutex::new(Latest::new(config))),
            open: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Wraps an existing instance — typically one restored from a
    /// snapshot ([`Latest::load_snapshot`]) — so a warm restart re-enters
    /// the concurrent deployment path with all learned state intact.
    pub fn from_instance(latest: Latest) -> Self {
        SharedLatest {
            // CONC(shared-latest/latest-mutex): same lock discipline as
            // `new`; only the provenance of the instance differs
            inner: Arc::new(Mutex::new(latest)),
            open: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Whether the backing stream is still live (always true for
    /// standalone handles; false once an owning pipeline shut down).
    pub fn is_open(&self) -> bool {
        // Acquire ordering: pairs with the Release store in `close()` so a
        // handle that observes `false` also observes every write the
        // pipeline made before shutting down.
        // CONC(shared-open-flag/open-flag-load): Acquire half of the
        // publication pair with close()
        self.open.load(Ordering::Acquire)
    }

    fn ensure_open(&self) -> Result<(), LatestError> {
        if self.is_open() {
            Ok(())
        } else {
            Err(LatestError::PipelineShutDown)
        }
    }

    /// Marks the handle family as shut down (further queries fail).
    pub(crate) fn close(&self) {
        // Release ordering: publishes all pre-shutdown writes before any
        // Acquire load in `is_open()` can observe the cleared flag.
        // CONC(shared-open-flag/open-flag-store): Release half of the
        // publication pair with is_open()
        self.open.store(false, Ordering::Release);
    }

    fn lock(&self) -> MutexGuard<'_, Latest> {
        unpoisoned(self.inner.lock())
    }

    /// Ingests one stream object.
    pub fn ingest(&self, obj: GeoTextObject) {
        self.lock().ingest(obj);
    }

    /// Ingests a batch of stream objects under a single lock acquisition.
    pub fn ingest_batch(&self, batch: &[GeoTextObject]) {
        self.lock().ingest_batch(batch);
    }

    /// Acquires the instance lock per `options.blocking`: wait for the
    /// lock, or fail with [`LatestError::WouldBlock`] if it is contended.
    fn lock_for(&self, options: &QueryOptions) -> Result<MutexGuard<'_, Latest>, LatestError> {
        self.ensure_open()?;
        if options.blocking {
            return Ok(self.lock());
        }
        match self.inner.try_lock() {
            Ok(guard) => Ok(guard),
            Err(TryLockError::Poisoned(poisoned)) => Ok(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => Err(LatestError::WouldBlock),
        }
    }

    /// Answers one query under `options` ([`Latest::query`]), failing once
    /// the owning pipeline shut down — and, for non-blocking requests,
    /// when the instance lock is contended.
    pub fn query(&self, query: &RcDvq, options: QueryOptions) -> Result<QueryOutcome, LatestError> {
        Ok(self.lock_for(&options)?.query(query, options))
    }

    /// Answers a batch of queries under one lock acquisition
    /// ([`Latest::query_batch`]), with the same failure modes as
    /// [`SharedLatest::query`].
    pub fn query_batch(
        &self,
        queries: &[RcDvq],
        options: QueryOptions,
    ) -> Result<Vec<QueryOutcome>, LatestError> {
        Ok(self.lock_for(&options)?.query_batch(queries, options))
    }

    /// Current lifetime phase.
    pub fn phase(&self) -> PhaseTag {
        self.lock().phase()
    }

    /// The estimator currently employed.
    pub fn active_kind(&self) -> EstimatorKind {
        self.lock().active_kind()
    }

    /// Live window size.
    pub fn window_len(&self) -> usize {
        self.lock().window_len()
    }

    /// Number of switches performed so far.
    pub fn switch_count(&self) -> usize {
        self.lock().log().switches.len()
    }

    /// A point-in-time copy of the run-wide observability metrics
    /// ([`Latest::metrics_snapshot`]), taken under one brief lock hold.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.lock().metrics_snapshot()
    }

    /// Runs `f` against the underlying instance (e.g. to clone the log).
    pub fn with<R>(&self, f: impl FnOnce(&Latest) -> R) -> R {
        f(&self.lock())
    }
}

/// A background ingestion pipeline: a producer thread pulls objects from a
/// generator and sends them over a bounded queue; a consumer
/// thread drains the channel into batches and ingests each batch into the
/// shared LATEST instance under one lock acquisition.
pub struct StreamPipeline {
    handle: SharedLatest,
    stop: Sender<()>,
    producer: Option<JoinHandle<()>>,
    consumer: Option<JoinHandle<u64>>,
}

impl StreamPipeline {
    /// Spawns the pipeline. `channel_capacity` bounds producer run-ahead
    /// (backpressure).
    pub fn spawn(
        config: LatestConfig,
        generator: ObjectGenerator,
        channel_capacity: usize,
    ) -> Result<Self, LatestError> {
        Self::spawn_threads(SharedLatest::new(config), generator, channel_capacity)
    }

    /// Warm restart: spawns the pipeline around an instance restored from
    /// a snapshot ([`Latest::load_snapshot`]), preserving every learned
    /// structure instead of re-entering warm-up. The caller is responsible
    /// for resuming the generator at (or after) the snapshot's stream
    /// position; LATEST itself tolerates a gap — the window simply evicts
    /// past it — but estimates are only continuous without one.
    pub fn resume(
        latest: Latest,
        generator: ObjectGenerator,
        channel_capacity: usize,
    ) -> Result<Self, LatestError> {
        Self::spawn_threads(
            SharedLatest::from_instance(latest),
            generator,
            channel_capacity,
        )
    }

    fn spawn_threads(
        handle: SharedLatest,
        mut generator: ObjectGenerator,
        channel_capacity: usize,
    ) -> Result<Self, LatestError> {
        // CONC(stream-pipeline/pipeline-objects): bounded handoff from
        // producer to ingestor; send blocking is the backpressure
        let (obj_tx, obj_rx): (Sender<GeoTextObject>, Receiver<GeoTextObject>) =
            bounded(channel_capacity.max(1));
        // CONC(stream-pipeline/pipeline-stop): one-shot stop token polled by
        // the producer each iteration
        let (stop_tx, stop_rx) = bounded::<()>(1);

        // CONC(stream-pipeline/pipeline-producer): joined by shutdown after
        // the stop token is sent
        let producer = std::thread::Builder::new()
            .name("latest-producer".into())
            .spawn(move || loop {
                if stop_rx.try_recv().is_ok() {
                    return;
                }
                // Send blocks when the consumer lags: backpressure.
                if obj_tx.send(generator.next_object()).is_err() {
                    return;
                }
            })
            .map_err(|e| LatestError::Spawn {
                thread: "latest-producer",
                reason: e.to_string(),
            })?;

        let consumer_handle = handle.clone();
        // CONC(stream-pipeline/pipeline-ingestor): joined by shutdown once
        // the producer side disconnects
        let consumer = std::thread::Builder::new()
            .name("latest-ingestor".into())
            .spawn(move || {
                let mut ingested = 0u64;
                let mut batch = Vec::with_capacity(INGEST_BATCH);
                // Block for the first object of a batch, then drain
                // whatever else is already queued (up to the cap) so one
                // lock acquisition covers the whole burst.
                while let Ok(obj) = obj_rx.recv() {
                    batch.push(obj);
                    while batch.len() < INGEST_BATCH {
                        match obj_rx.try_recv() {
                            Ok(obj) => batch.push(obj),
                            Err(_) => break,
                        }
                    }
                    consumer_handle.ingest_batch(&batch);
                    ingested += batch.len() as u64;
                    batch.clear();
                }
                ingested
            })
            .map_err(|e| LatestError::Spawn {
                thread: "latest-ingestor",
                reason: e.to_string(),
            })?;

        Ok(StreamPipeline {
            handle,
            stop: stop_tx,
            producer: Some(producer),
            consumer: Some(consumer),
        })
    }

    /// A cloneable query handle.
    pub fn handle(&self) -> SharedLatest {
        self.handle.clone()
    }

    /// Answers one query under `options`, failing once the pipeline shut
    /// down ([`SharedLatest::query`]).
    pub fn query(&self, query: &RcDvq, options: QueryOptions) -> Result<QueryOutcome, LatestError> {
        self.handle.query(query, options)
    }

    /// Answers a batch of queries under one lock acquisition
    /// ([`SharedLatest::query_batch`]).
    pub fn query_batch(
        &self,
        queries: &[RcDvq],
        options: QueryOptions,
    ) -> Result<Vec<QueryOutcome>, LatestError> {
        self.handle.query_batch(queries, options)
    }

    /// Blocks until LATEST has reached (at least) `phase`.
    pub fn wait_for_phase(&self, phase: PhaseTag) {
        let rank = |p: PhaseTag| match p {
            PhaseTag::WarmUp => 0,
            PhaseTag::PreTraining => 1,
            PhaseTag::Incremental => 2,
        };
        while rank(self.handle.phase()) < rank(phase) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Spawns a periodic metrics scraper against this pipeline: every
    /// `every`, a [`MetricsSnapshot`] is taken under one brief lock hold
    /// and offered on the scraper's bounded channel. A slow consumer never
    /// backpressures the scrape loop — when the channel is full the
    /// snapshot is dropped (the next one supersedes it anyway). The
    /// scraper stops on [`SnapshotScraper::stop`], on drop, or on its own
    /// once the pipeline shuts down.
    pub fn spawn_scraper(
        &self,
        every: std::time::Duration,
        capacity: usize,
    ) -> Result<SnapshotScraper, LatestError> {
        // CONC(snapshot-scraper/scraper-delegate): delegation only; the
        // scraper joins its thread on stop/Drop
        SnapshotScraper::spawn(self.handle(), every, capacity)
    }

    /// Stops both threads and returns the number of objects ingested.
    /// Every handle cloned from this pipeline starts failing with
    /// [`LatestError::PipelineShutDown`].
    pub fn shutdown(mut self) -> u64 {
        self.stop_threads()
    }

    fn stop_threads(&mut self) -> u64 {
        let _ = self.stop.try_send(());
        if let Some(p) = self.producer.take() {
            let _ = p.join();
        }
        match self.consumer.take() {
            Some(c) => {
                let ingested = c.join().unwrap_or(0);
                self.handle.close();
                ingested
            }
            None => 0,
        }
    }
}

impl Drop for StreamPipeline {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// A background thread that periodically scrapes [`MetricsSnapshot`]s from
/// a [`SharedLatest`] handle onto a bounded channel
/// ([`StreamPipeline::spawn_scraper`]).
pub struct SnapshotScraper {
    snapshots: Receiver<MetricsSnapshot>,
    stop: Sender<()>,
    thread: Option<JoinHandle<u64>>,
}

impl SnapshotScraper {
    fn spawn(
        handle: SharedLatest,
        every: std::time::Duration,
        capacity: usize,
    ) -> Result<Self, LatestError> {
        Self::spawn_source(
            move || handle.is_open().then(|| handle.metrics_snapshot()),
            every,
            capacity,
        )
    }

    /// Spawns a scraper over an arbitrary snapshot source — a
    /// [`SharedLatest`] behind a pipeline, a sharded engine's merged view
    /// ([`ShardedLatest::spawn_scraper`](crate::ShardedLatest::spawn_scraper)),
    /// or anything else that can produce a [`MetricsSnapshot`] on demand.
    /// `source` returning `None` means the backing system has shut down,
    /// which stops the scrape loop for good.
    pub fn spawn_source(
        source: impl Fn() -> Option<MetricsSnapshot> + Send + 'static,
        every: std::time::Duration,
        capacity: usize,
    ) -> Result<Self, LatestError> {
        // CONC(snapshot-scraper/scraper-snaps): bounded snapshot queue; a
        // full queue drops the scrape rather than blocking
        let (snap_tx, snap_rx) = bounded::<MetricsSnapshot>(capacity.max(1));
        // CONC(snapshot-scraper/scraper-stop): stop token or disconnect edge
        // ends the scrape loop
        let (stop_tx, stop_rx) = bounded::<()>(1);
        // CONC(snapshot-scraper/scraper-thread): joined by stop()/Drop after
        // the stop channel is signalled
        let thread = std::thread::Builder::new()
            .name("latest-scraper".into())
            .spawn(move || {
                let mut taken = 0u64;
                loop {
                    match stop_rx.recv_timeout(every) {
                        // Stop signal or scraper handle dropped: done.
                        Ok(()) | Err(RecvTimeoutError::Disconnected) => return taken,
                        Err(RecvTimeoutError::Timeout) => {}
                    }
                    let Some(snap) = source() else {
                        return taken;
                    };
                    taken += 1;
                    // A full channel drops the snapshot instead of blocking:
                    // the scrape cadence must never be hostage to a slow
                    // consumer, and the next snapshot supersedes this one.
                    let _ = snap_tx.try_send(snap);
                }
            })
            .map_err(|e| LatestError::Spawn {
                thread: "latest-scraper",
                reason: e.to_string(),
            })?;
        Ok(SnapshotScraper {
            snapshots: snap_rx,
            stop: stop_tx,
            thread: Some(thread),
        })
    }

    /// The channel the scraped snapshots arrive on.
    pub fn snapshots(&self) -> &Receiver<MetricsSnapshot> {
        &self.snapshots
    }

    /// The latest snapshot currently queued, discarding older ones.
    pub fn latest(&self) -> Option<MetricsSnapshot> {
        let mut last = None;
        while let Ok(snap) = self.snapshots.try_recv() {
            last = Some(snap);
        }
        last
    }

    /// Stops the scrape thread and returns how many snapshots it took.
    pub fn stop(mut self) -> u64 {
        self.stop_thread()
    }

    fn stop_thread(&mut self) -> u64 {
        let _ = self.stop.try_send(());
        match self.thread.take() {
            Some(t) => t.join().unwrap_or(0),
            None => 0,
        }
    }
}

impl Drop for SnapshotScraper {
    fn drop(&mut self) {
        self.stop_thread();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estimators::EstimatorConfig;
    use geostream::synth::DatasetSpec;
    use geostream::{Duration, KeywordId, Rect, Timestamp};

    fn config(dataset: &DatasetSpec) -> LatestConfig {
        LatestConfig::builder()
            .window_span(Duration::from_secs(30))
            .warmup(Duration::from_secs(30))
            .pretrain_queries(15)
            .estimator_config(EstimatorConfig {
                domain: dataset.domain,
                reservoir_capacity: 1_000,
                ..EstimatorConfig::default()
            })
            .build()
            .expect("valid test config")
    }

    #[test]
    fn pipeline_streams_and_answers() {
        let dataset = DatasetSpec::twitter();
        let pipeline =
            StreamPipeline::spawn(config(&dataset), dataset.generator(), 4_096).expect("spawn");
        pipeline.wait_for_phase(PhaseTag::PreTraining);
        let handle = pipeline.handle();
        assert!(handle.window_len() > 0);
        for i in 0..30u32 {
            let out = handle
                .query(
                    &RcDvq::keyword(vec![KeywordId(i % 20)]),
                    QueryOptions::new(),
                )
                .expect("pipeline is live");
            assert!(out.estimate >= 0.0);
        }
        let ingested = pipeline.shutdown();
        assert!(ingested > 0);
    }

    #[test]
    fn concurrent_queriers_share_one_instance() {
        let dataset = DatasetSpec::twitter();
        let pipeline =
            StreamPipeline::spawn(config(&dataset), dataset.generator(), 4_096).expect("spawn");
        pipeline.wait_for_phase(PhaseTag::PreTraining);
        let mut joins = Vec::new();
        for t in 0..4u32 {
            let handle = pipeline.handle();
            joins.push(std::thread::spawn(move || {
                let mut answered = 0usize;
                for i in 0..25u32 {
                    let q = RcDvq::hybrid(
                        Rect::new(-120.0, 30.0, -100.0, 45.0),
                        vec![KeywordId(t * 31 + i)],
                    );
                    let out = handle
                        .query(&q, QueryOptions::new())
                        .expect("pipeline is live");
                    assert!(out.estimate.is_finite());
                    answered += 1;
                }
                answered
            }));
        }
        let total: usize = joins.into_iter().map(|j| j.join().expect("no panic")).sum();
        assert_eq!(total, 100);
        // All 100 queries are in the single shared log.
        assert!(pipeline.handle().with(|l| l.log().queries.len()) >= 100);
        pipeline.shutdown();
    }

    #[test]
    fn scraper_delivers_periodic_snapshots() {
        let dataset = DatasetSpec::twitter();
        let pipeline =
            StreamPipeline::spawn(config(&dataset), dataset.generator(), 4_096).expect("spawn");
        let scraper = pipeline
            .spawn_scraper(std::time::Duration::from_millis(5), 64)
            .expect("scraper spawns");
        pipeline.wait_for_phase(PhaseTag::PreTraining);
        let handle = pipeline.handle();
        for i in 0..20u32 {
            let _ = handle.query(
                &RcDvq::keyword(vec![KeywordId(i % 20)]),
                QueryOptions::new(),
            );
        }
        // Wait out at least one scrape tick after the queries landed.
        std::thread::sleep(std::time::Duration::from_millis(40));
        let snap = scraper.latest().expect("at least one snapshot queued");
        assert!(snap.window.ingested > 0, "scraped snapshot saw no ingest");
        assert!(snap.queries_total >= 20);
        let taken = scraper.stop();
        assert!(taken >= 1);
        pipeline.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_via_drop() {
        let dataset = DatasetSpec::twitter();
        let pipeline =
            StreamPipeline::spawn(config(&dataset), dataset.generator(), 128).expect("spawn");
        pipeline.wait_for_phase(PhaseTag::PreTraining);
        drop(pipeline); // Drop must stop threads without deadlocking.
    }

    #[test]
    fn shared_handle_reports_state() {
        let dataset = DatasetSpec::twitter();
        let shared = SharedLatest::new(config(&dataset));
        assert_eq!(shared.phase(), PhaseTag::WarmUp);
        assert_eq!(shared.switch_count(), 0);
        let mut gen = dataset.generator();
        for _ in 0..100 {
            shared.ingest(gen.next_object());
        }
        assert_eq!(shared.window_len(), 100);
        let clone = shared.clone();
        assert_eq!(clone.window_len(), 100);
        assert_eq!(clone.active_kind(), EstimatorKind::Rsh);
    }

    #[test]
    fn shared_batch_ingest_matches_singles() {
        let dataset = DatasetSpec::twitter();
        let shared = SharedLatest::new(config(&dataset));
        let mut gen = dataset.generator();
        let objs: Vec<GeoTextObject> = (0..200).map(|_| gen.next_object()).collect();
        shared.ingest_batch(&objs);
        assert_eq!(shared.window_len(), 200);
    }

    #[test]
    fn queries_fail_after_shutdown() {
        let dataset = DatasetSpec::twitter();
        let pipeline =
            StreamPipeline::spawn(config(&dataset), dataset.generator(), 1_024).expect("spawn");
        pipeline.wait_for_phase(PhaseTag::PreTraining);
        let handle = pipeline.handle();
        assert!(handle.is_open());
        let q = RcDvq::keyword(vec![KeywordId(1)]);
        assert!(handle.query(&q, QueryOptions::new()).is_ok());
        pipeline.shutdown();
        assert!(!handle.is_open());
        assert_eq!(
            handle.query(&q, QueryOptions::new()).unwrap_err(),
            LatestError::PipelineShutDown
        );
        assert_eq!(
            handle
                .query_batch(std::slice::from_ref(&q), QueryOptions::new())
                .unwrap_err(),
            LatestError::PipelineShutDown
        );
        // Every option set fails closed: shutdown outranks `WouldBlock`
        // and an explicit query time.
        for options in [
            QueryOptions::new().blocking(false),
            QueryOptions::at(Timestamp(1)),
        ] {
            assert_eq!(
                handle.query(&q, options).unwrap_err(),
                LatestError::PipelineShutDown
            );
        }
    }

    #[test]
    fn non_blocking_query_refuses_to_block() {
        let dataset = DatasetSpec::twitter();
        let shared = SharedLatest::new(config(&dataset));
        let mut gen = dataset.generator();
        for _ in 0..50 {
            shared.ingest(gen.next_object());
        }
        let q = RcDvq::keyword(vec![KeywordId(1)]);
        let opts = || QueryOptions::new().blocking(false);
        // Uncontended: answers.
        assert!(shared.query(&q, opts()).is_ok());
        // Contended: hold the lock on another thread and expect WouldBlock.
        let holder = shared.clone();
        let (locked_tx, locked_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            holder.with(|_| {
                locked_tx.send(()).expect("send locked");
                release_rx.recv().expect("wait for release");
            });
        });
        locked_rx.recv().expect("lock acquired");
        assert_eq!(
            shared.query(&q, opts()).unwrap_err(),
            LatestError::WouldBlock
        );
        assert_eq!(
            shared
                .query_batch(std::slice::from_ref(&q), opts())
                .unwrap_err(),
            LatestError::WouldBlock
        );
        release_tx.send(()).expect("release");
        t.join().expect("holder thread");
        assert!(shared.query(&q, opts()).is_ok());
    }
}
