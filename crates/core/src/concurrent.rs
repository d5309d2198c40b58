//! Concurrent deployment facade.
//!
//! A real system ingests the stream on one path and answers estimation
//! queries on another. This module provides the two pieces a deployment
//! needs:
//!
//! * [`SharedLatest`] — a cheaply cloneable, thread-safe handle around a
//!   [`Latest`] instance (one mutex; LATEST's per-event work is
//!   microseconds, so a mutex outperforms anything fancier at realistic
//!   rates). The deployment's own ingest thread feeds it with
//!   [`SharedLatest::ingest_batch`], so lock traffic and estimator
//!   maintenance are amortized over many arrivals, while any number of
//!   threads query clones of the handle;
//! * [`SnapshotScraper`] — a background thread that periodically offers
//!   [`MetricsSnapshot`]s of such an engine on a bounded channel.
//!
//! Query paths are fallible: a non-blocking request
//! ([`QueryOptions::blocking`]`(false)`) refuses to wait on a contended
//! instance and fails with [`LatestError::WouldBlock`] instead.
//!
//! ```
//! use geostream::synth::DatasetSpec;
//! use geostream::{Duration, RcDvq, Rect};
//! use latest_core::{LatestConfig, PhaseTag, QueryOptions, SharedLatest};
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
//! let shared = SharedLatest::new(config);
//! let ingestor = {
//!     let shared = shared.clone();
//!     let mut generator = dataset.generator();
//!     std::thread::spawn(move || {
//!         while shared.phase() == PhaseTag::WarmUp {
//!             let batch: Vec<_> = (0..256).map(|_| generator.next_object()).collect();
//!             shared.ingest_batch(&batch);
//!         }
//!     })
//! };
//! ingestor.join().expect("ingest thread");
//! let out = shared
//!     .query(
//!         &RcDvq::spatial(Rect::new(-120.0, 30.0, -100.0, 45.0)),
//!         QueryOptions::new(),
//!     )
//!     .expect("a blocking query waits its turn");
//! assert!(out.estimate >= 0.0);
//! ```

use crate::error::LatestError;
use crate::log::PhaseTag;
use crate::obsv::MetricsSnapshot;
use crate::queue::{bounded, Receiver, RecvTimeoutError, Sender};
use crate::system::{Latest, LatestConfig, QueryOptions, QueryOutcome};
use crate::unpoisoned;
use estimators::EstimatorKind;
use geostream::{GeoTextObject, RcDvq};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;

/// A thread-safe, cloneable handle to a LATEST instance.
#[derive(Clone)]
pub struct SharedLatest {
    inner: Arc<Mutex<Latest>>,
}

impl SharedLatest {
    /// Wraps a fresh LATEST instance.
    pub fn new(config: LatestConfig) -> Self {
        SharedLatest {
            // CONC(shared-latest/latest-mutex): the one lock guarding all
            // Latest state; held only for the duration of each call
            inner: Arc::new(Mutex::new(Latest::new(config))),
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
        }
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
        if options.blocking {
            return Ok(self.lock());
        }
        match self.inner.try_lock() {
            Ok(guard) => Ok(guard),
            Err(TryLockError::Poisoned(poisoned)) => Ok(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => Err(LatestError::WouldBlock),
        }
    }

    /// Answers one query under `options` ([`Latest::query`]), failing —
    /// for non-blocking requests only — when the instance lock is
    /// contended.
    pub fn query(&self, query: &RcDvq, options: QueryOptions) -> Result<QueryOutcome, LatestError> {
        Ok(self.lock_for(&options)?.query(query, options))
    }

    /// Answers a batch of queries under one lock acquisition
    /// ([`Latest::query_batch`]), with the same failure mode as
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

    /// Number of switches performed since this process built or restored
    /// the engine (the registry's `switches` counter).
    pub fn switch_count(&self) -> usize {
        self.lock().metrics().switches.get() as usize
    }

    /// A point-in-time copy of the run-wide observability metrics
    /// ([`Latest::metrics_snapshot`]), taken under one brief lock hold.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.lock().metrics_snapshot()
    }

    /// Runs `f` against the underlying instance under one lock hold.
    pub fn with<R>(&self, f: impl FnOnce(&Latest) -> R) -> R {
        f(&self.lock())
    }
}

/// A background thread that periodically scrapes [`MetricsSnapshot`]s from
/// a snapshot source onto a bounded channel. A slow consumer never
/// backpressures the scrape loop — when the channel is full the snapshot
/// is dropped (the next one supersedes it anyway). The scraper stops on
/// [`SnapshotScraper::stop`], on drop, or on its own once the source
/// reports that the engine behind it is gone.
pub struct SnapshotScraper {
    snapshots: Receiver<MetricsSnapshot>,
    stop: Sender<()>,
    thread: Option<JoinHandle<u64>>,
}

impl SnapshotScraper {
    /// Spawns a scraper over an arbitrary snapshot source — a
    /// [`SharedLatest`] handle, a sharded engine's merged view
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
    use geostream::{Duration, KeywordId, Rect};
    use std::sync::atomic::{AtomicBool, Ordering};

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

    /// The deployment's ingest path, test-local: one thread feeding the
    /// shared instance from the synthetic stream, 256 objects per lock
    /// hold, until dropped.
    struct Ingestor {
        stop: Arc<AtomicBool>,
        thread: Option<JoinHandle<()>>,
    }

    impl Ingestor {
        fn spawn(shared: &SharedLatest, dataset: &DatasetSpec) -> Self {
            let stop = Arc::new(AtomicBool::new(false));
            let (shared, mut generator) = (shared.clone(), dataset.generator());
            let stopped = Arc::clone(&stop);
            let thread = std::thread::spawn(move || {
                while !stopped.load(Ordering::SeqCst) {
                    let batch: Vec<GeoTextObject> =
                        (0..256).map(|_| generator.next_object()).collect();
                    shared.ingest_batch(&batch);
                }
            });
            Ingestor {
                stop,
                thread: Some(thread),
            }
        }
    }

    impl Drop for Ingestor {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            if let Some(t) = self.thread.take() {
                let _ = t.join();
            }
        }
    }

    fn wait_for_pretraining(shared: &SharedLatest) {
        while shared.phase() == PhaseTag::WarmUp {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn concurrent_queriers_share_one_instance() {
        let dataset = DatasetSpec::twitter();
        let shared = SharedLatest::new(config(&dataset));
        let _ingestor = Ingestor::spawn(&shared, &dataset);
        wait_for_pretraining(&shared);
        let mut joins = Vec::new();
        for t in 0..4u32 {
            let handle = shared.clone();
            joins.push(std::thread::spawn(move || {
                let mut answered = 0usize;
                for i in 0..25u32 {
                    let q = RcDvq::hybrid(
                        Rect::new(-120.0, 30.0, -100.0, 45.0),
                        vec![KeywordId(t * 31 + i)],
                    );
                    let out = handle
                        .query(&q, QueryOptions::new())
                        .expect("blocking queries wait their turn");
                    assert!(out.estimate.is_finite());
                    answered += 1;
                }
                answered
            }));
        }
        let total: usize = joins.into_iter().map(|j| j.join().expect("no panic")).sum();
        assert_eq!(total, 100);
        // All 100 queries were counted by the single shared instance.
        assert!(shared.metrics_snapshot().queries_total >= 100);
    }

    #[test]
    fn scraper_delivers_periodic_snapshots() {
        let dataset = DatasetSpec::twitter();
        let shared = SharedLatest::new(config(&dataset));
        let _ingestor = Ingestor::spawn(&shared, &dataset);
        let source = shared.clone();
        let scraper = SnapshotScraper::spawn_source(
            move || Some(source.metrics_snapshot()),
            std::time::Duration::from_millis(5),
            64,
        )
        .expect("scraper spawns");
        wait_for_pretraining(&shared);
        for i in 0..20u32 {
            let _ = shared.query(
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
