//! Sharded multi-core serving: scatter-gather query routing over a
//! partitioned stream (ROADMAP item 1: "serve millions of users").
//!
//! A single [`Latest`] behind a mutex caps the serving path at one core.
//! This module partitions the stream across `N` independent shards — each
//! owning its *own* [`SlidingWindow`](geostream::SlidingWindow), exact
//! executor, estimator pool, adaptor, and selectivity cache — with each
//! shard running on a dedicated worker thread behind a bounded ingest
//! queue:
//!
//! * [`ShardRouter`] — the pluggable partitioning policy
//!   ([`RouterPolicy::HashOid`]: FNV-hash of the object id;
//!   [`RouterPolicy::SpatialTile`]: equal-width vertical strips of the
//!   domain). Every live object is owned by exactly one shard; a query
//!   fans out to exactly the shards that can hold matching objects.
//! * [`ShardedLatest`] — the engine: batched ingest with a cross-shard
//!   **eviction clock** (every shard's window advances to the batch
//!   maximum timestamp, so virtual time stays aligned even when a shard's
//!   sub-batch ends early), scatter-gather [`ShardedLatest::query_batch`]
//!   that merges per-shard counts into one [`QueryOutcome`], and
//!   [`MetricsSnapshot`] aggregation across shards.
//! * [`ServingEngine`] — a zero-dependency thread-pool front door:
//!   [`ServingEngine::submit`] enqueues a query batch and returns a
//!   [`Ticket`]; a full queue surfaces [`LatestError::WouldBlock`] —
//!   nothing is ever silently dropped.
//!
//! With one shard the engine degenerates to a plain [`Latest`] on a
//! worker thread: the same ingest batches in the same order, no extra
//! clock advances, outcomes returned verbatim — which is what makes the
//! sharded/unsharded equivalence property testable bit-for-bit.
//!
//! Asynchronous prefill composes with sharding for free: every shard's
//! embedded [`Latest`] owns its own lazily spawned
//! [`PrefillBuilder`](crate::pool::PrefillBuilder) worker, so candidate
//! estimators build off each shard's serving thread independently and
//! the delta catch-up stays shard-local (each shard replays only its own
//! inserts and evictions). The deep auditors reached through
//! [`ShardedLatest::audit`] sweep every shard's prefill slot — delta-log
//! bounds, generation monotonicity, ready candidates — alongside the
//! cross-shard ownership invariants.

use crate::error::LatestError;
use crate::obsv::MetricsSnapshot;
use crate::queue::{bounded, Receiver, Sender, TrySendError};
use crate::system::{Latest, LatestConfig, QueryOptions, QueryOutcome};
use crate::unpoisoned;
use geostream::{GeoTextObject, RcDvq, Rect, Timestamp};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Upper bound on the configured shard count: far above any realistic
/// core count, low enough to catch a garbage value (for example a byte
/// count) before it spawns thousands of threads.
pub const MAX_SHARDS: usize = 1_024;

/// How the stream is partitioned across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterPolicy {
    /// Route each object by an FNV-1a hash of its id. Load balances any
    /// workload, but spatial queries must fan out to every shard.
    #[default]
    HashOid,
    /// Route each object by its longitude into equal-width vertical
    /// strips of the domain. Spatial and hybrid queries fan out only to
    /// the strips their rectangle overlaps; keyword-only queries still
    /// visit every shard.
    SpatialTile,
}

impl RouterPolicy {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            RouterPolicy::HashOid => "hash-oid",
            RouterPolicy::SpatialTile => "spatial-tile",
        }
    }
}

/// Sharded-serving layout, embedded in
/// [`LatestConfig`](crate::LatestConfig) and validated by
/// [`LatestConfig::validate`](crate::LatestConfig::validate): the shard
/// count must be in `[1, MAX_SHARDS]` and the queue capacity nonzero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards (`1` = unsharded behavior on a worker thread).
    pub shards: usize,
    /// Bounded per-shard command-queue capacity: how far ingest may run
    /// ahead of a shard before producers block (or, on the `try_` paths,
    /// see [`LatestError::WouldBlock`]).
    pub queue_capacity: usize,
    /// The partitioning policy.
    pub router: RouterPolicy,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            queue_capacity: 8_192,
            router: RouterPolicy::HashOid,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the little-endian bytes of an object id: stable across
/// runs and platforms, so shard ownership is a pure function of the id.
fn hash_oid(oid: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for b in oid.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The pluggable partitioning policy: which shard owns an object, and
/// which shards a query must visit. Pure and deterministic — the audit
/// re-derives ownership from the router alone.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    policy: RouterPolicy,
    shards: usize,
    domain: Rect,
}

impl ShardRouter {
    /// A router over `shards` partitions of `domain` (the domain only
    /// matters for [`RouterPolicy::SpatialTile`]).
    pub fn new(policy: RouterPolicy, shards: usize, domain: Rect) -> Self {
        ShardRouter {
            policy,
            shards: shards.max(1),
            domain,
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The policy in use.
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Strip index of a longitude under the spatial-tile policy: floor
    /// division of the offset by the strip width, clamped into range so
    /// out-of-domain objects still have a deterministic owner.
    fn strip_of(&self, x: f64) -> usize {
        let width = self.domain.width();
        if width <= 0.0 {
            return 0;
        }
        let frac = (x - self.domain.min_x) / width;
        let idx = (frac * self.shards as f64).floor();
        if idx.is_nan() || idx < 0.0 {
            0
        } else {
            (idx as usize).min(self.shards - 1)
        }
    }

    /// The single shard that owns `obj`.
    pub fn route_object(&self, obj: &GeoTextObject) -> usize {
        match self.policy {
            RouterPolicy::HashOid => (hash_oid(obj.oid.0) % self.shards as u64) as usize,
            RouterPolicy::SpatialTile => self.strip_of(obj.loc.x),
        }
    }

    /// The shards `query` must visit, ascending. Always nonempty: the
    /// fan-out set covers every shard that can own a matching object
    /// (strip arithmetic is the same floor used by `route_object`, so an
    /// object inside the query rectangle is always in a visited strip).
    pub fn route_query(&self, query: &RcDvq) -> Vec<usize> {
        match (self.policy, query.range()) {
            (RouterPolicy::SpatialTile, Some(r)) => {
                let lo = self.strip_of(r.min_x);
                let hi = self.strip_of(r.max_x);
                (lo..=hi.max(lo)).collect()
            }
            // Hash routing scatters matching objects everywhere, and a
            // keyword-only predicate has no spatial locality either way.
            _ => (0..self.shards).collect(),
        }
    }
}

/// One command on a shard's bounded FIFO queue. Ingest, clock advances,
/// and queries share the queue, so a shard observes them in exactly the
/// order the caller issued them.
enum ShardCmd {
    /// Ingest a routed sub-batch (non-decreasing timestamps).
    Ingest(Vec<GeoTextObject>),
    /// Advance the eviction clock ([`Latest::advance_clock`]) so this
    /// shard's window horizon matches the batch maximum even when its own
    /// sub-batch ended earlier (or was empty).
    AdvanceTo(Timestamp),
    /// Answer a routed query sub-batch and reply with the shard index.
    Query {
        queries: Vec<RcDvq>,
        options: QueryOptions,
        reply: Sender<(usize, Vec<QueryOutcome>)>,
    },
    /// Take a metrics snapshot.
    Snapshot(Sender<MetricsSnapshot>),
    /// Run an arbitrary closure against the shard's instance (flush
    /// barriers, audits, test hooks).
    Run(Box<dyn FnOnce(&mut Latest) + Send>),
}

impl std::fmt::Debug for ShardCmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardCmd::Ingest(batch) => f.debug_tuple("Ingest").field(&batch.len()).finish(),
            ShardCmd::AdvanceTo(at) => f.debug_tuple("AdvanceTo").field(at).finish(),
            ShardCmd::Query { queries, .. } => {
                f.debug_tuple("Query").field(&queries.len()).finish()
            }
            ShardCmd::Snapshot(_) => f.write_str("Snapshot"),
            ShardCmd::Run(_) => f.write_str("Run"),
        }
    }
}

/// The shard worker loop: drain commands until every sender is dropped,
/// then report how many objects this shard ingested.
fn shard_loop(mut latest: Latest, shard: usize, rx: Receiver<ShardCmd>) -> u64 {
    let mut ingested = 0u64;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            ShardCmd::Ingest(batch) => {
                ingested += batch.len() as u64;
                latest.ingest_batch(&batch);
            }
            ShardCmd::AdvanceTo(at) => latest.advance_clock(at),
            ShardCmd::Query {
                queries,
                options,
                reply,
            } => {
                let outcomes = latest.query_batch(&queries, options);
                // A gatherer that gave up (shut down mid-query) is not an
                // error for the shard; drop the reply.
                let _ = reply.send((shard, outcomes));
            }
            ShardCmd::Snapshot(reply) => {
                let _ = reply.send(latest.metrics_snapshot());
            }
            ShardCmd::Run(f) => f(&mut latest),
        }
    }
    ingested
}

/// A sharded LATEST serving engine: `N` independent [`Latest`] instances
/// on worker threads, a [`ShardRouter`] deciding ownership, and
/// scatter-gather queries merged into single [`QueryOutcome`]s.
///
/// ```
/// use geostream::synth::DatasetSpec;
/// use geostream::{Duration, RcDvq, Rect};
/// use latest_core::{LatestConfig, QueryOptions, ShardConfig, ShardedLatest};
///
/// let dataset = DatasetSpec::twitter();
/// let config = LatestConfig::builder()
///     .window_span(Duration::from_secs(30))
///     .warmup(Duration::from_secs(30))
///     .pretrain_queries(10)
///     .estimator_config(estimators::EstimatorConfig {
///         domain: dataset.domain,
///         reservoir_capacity: 1_000,
///         ..Default::default()
///     })
///     .shard(ShardConfig {
///         shards: 2,
///         ..ShardConfig::default()
///     })
///     .build()
///     .expect("parameters are in range");
/// let engine = ShardedLatest::new(config).expect("shards spawn");
/// let mut gen = dataset.generator();
/// let batch: Vec<_> = (0..512).map(|_| gen.next_object()).collect();
/// engine.ingest_batch(&batch).expect("shards are live");
/// engine.flush().expect("shards are live");
/// let out = engine
///     .query(
///         &RcDvq::spatial(Rect::new(-120.0, 30.0, -100.0, 45.0)),
///         QueryOptions::new(),
///     )
///     .expect("shards are live");
/// assert!(out.estimate >= 0.0);
/// engine.shutdown();
/// ```
pub struct ShardedLatest {
    config: LatestConfig,
    router: ShardRouter,
    senders: Vec<Sender<ShardCmd>>,
    workers: Vec<JoinHandle<u64>>,
    /// Maximum stream timestamp observed by `ingest_batch`, in raw
    /// `Timestamp` millis: the engine-wide virtual clock queries pin to
    /// when the caller does not supply `QueryOptions::at`.
    clock: AtomicU64,
}

impl ShardedLatest {
    /// Spawns `config.shard.shards` shard workers, each owning a fresh
    /// [`Latest`] built from the same configuration.
    pub fn new(config: LatestConfig) -> Result<Self, LatestError> {
        config.validate()?;
        // Validation passed above, so the per-shard `Latest::new` cannot
        // hit its config panic.
        let instances = (0..config.shard.shards)
            .map(|_| Latest::new(config.clone()))
            .collect();
        Self::launch(config, instances, 0)
    }

    /// Spawns the worker threads around pre-built per-shard instances
    /// (fresh ones from [`ShardedLatest::new`], restored ones from
    /// [`ShardedLatest::restore`]). `clock` seeds the engine-wide
    /// watermark.
    fn launch(
        config: LatestConfig,
        instances: Vec<Latest>,
        clock: u64,
    ) -> Result<Self, LatestError> {
        let shard = config.shard;
        let router = ShardRouter::new(shard.router, shard.shards, config.estimator_config.domain);
        let mut senders = Vec::with_capacity(instances.len());
        let mut workers = Vec::with_capacity(instances.len());
        for (i, latest) in instances.into_iter().enumerate() {
            // CONC(shard-command-fifo/shard-fifo): per-shard bounded command
            // queue; send happens-before the worker's recv
            let (tx, rx) = bounded(shard.queue_capacity);
            // CONC(shard-command-fifo/shard-worker): joined by shutdown/Drop
            // after the senders are dropped
            let worker = std::thread::Builder::new()
                .name(format!("latest-shard-{i}"))
                .spawn(move || shard_loop(latest, i, rx))
                .map_err(|e| LatestError::Spawn {
                    thread: "latest-shard",
                    reason: e.to_string(),
                })?;
            senders.push(tx);
            workers.push(worker);
        }
        Ok(ShardedLatest {
            config,
            router,
            senders,
            workers,
            clock: AtomicU64::new(clock),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// The configuration in use (shared by every shard).
    pub fn config(&self) -> &LatestConfig {
        &self.config
    }

    /// The partitioning router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The engine-wide virtual clock: the maximum stream timestamp any
    /// ingested batch carried so far.
    pub fn clock(&self) -> Timestamp {
        // Relaxed ordering: the clock is a monotone watermark used as a
        // query-time lower bound; command FIFO order, not this load, is
        // what orders queries against ingest.
        // CONC(sharded-eviction-clock/engine-clock-read): watermark read; no
        // cross-cell ordering is derived from it
        Timestamp(self.clock.load(Ordering::Relaxed))
    }

    /// Ingests one stream object (routed like a one-element batch).
    pub fn ingest(&self, obj: GeoTextObject) -> Result<(), LatestError> {
        self.ingest_batch(std::slice::from_ref(&obj))
    }

    /// Ingests a batch of stream objects (non-decreasing timestamps, the
    /// same precondition as [`Latest::ingest_batch`]): the batch is
    /// partitioned by the router into order-preserving sub-batches, and
    /// every shard's eviction clock is advanced to the batch maximum so
    /// all windows share one virtual horizon. Blocks when a shard's
    /// bounded queue is full (backpressure).
    pub fn ingest_batch(&self, batch: &[GeoTextObject]) -> Result<(), LatestError> {
        self.ingest_batch_inner(batch, true)
    }

    /// Non-blocking [`ShardedLatest::ingest_batch`]: refuses with
    /// [`LatestError::WouldBlock`] — ingesting nothing — when any shard's
    /// queue lacks room for the sub-batch plus its clock advance. With
    /// concurrent producers the room check is advisory (a racing producer
    /// can still fill the queue first, briefly blocking the send), but
    /// nothing is ever silently dropped.
    pub fn try_ingest_batch(&self, batch: &[GeoTextObject]) -> Result<(), LatestError> {
        self.ingest_batch_inner(batch, false)
    }

    fn ingest_batch_inner(
        &self,
        batch: &[GeoTextObject],
        blocking: bool,
    ) -> Result<(), LatestError> {
        let Some(last) = batch.last() else {
            return Ok(());
        };
        let batch_max = last.timestamp;
        if !blocking {
            for s in &self.senders {
                // Room for the sub-batch and the trailing clock advance.
                if s.len() + 2 > self.config.shard.queue_capacity {
                    return Err(LatestError::WouldBlock);
                }
            }
        }
        let n = self.senders.len();
        let mut sub: Vec<Vec<GeoTextObject>> = vec![Vec::new(); n];
        if n == 1 {
            // Single shard: ownership is trivial, skip the per-object
            // routing so the shards=1 path stays within a hair of plain
            // `Latest` ingest.
            sub[0].extend_from_slice(batch);
        } else {
            for obj in batch {
                sub[self.router.route_object(obj)].push(obj.clone());
            }
        }
        for (shard, objs) in sub.into_iter().enumerate() {
            // A shard whose sub-batch already ends at the batch maximum
            // needs no separate clock advance — with one shard this makes
            // the command stream identical to plain `Latest` ingest.
            let needs_advance = objs.last().is_none_or(|o| o.timestamp < batch_max);
            if !objs.is_empty() {
                self.senders[shard]
                    .send(ShardCmd::Ingest(objs))
                    .map_err(|_| LatestError::PipelineShutDown)?;
            }
            if needs_advance {
                self.senders[shard]
                    .send(ShardCmd::AdvanceTo(batch_max))
                    .map_err(|_| LatestError::PipelineShutDown)?;
            }
        }
        // Relaxed ordering: monotone watermark (see `clock()`); fetch_max
        // keeps concurrent producers from ever moving it backwards.
        // CONC(sharded-eviction-clock/engine-clock-advance): fetch_max keeps
        // the watermark monotone under concurrent producers
        self.clock.fetch_max(batch_max.0, Ordering::Relaxed);
        Ok(())
    }

    /// Blocks until every shard has drained all commands issued before
    /// this call (a FIFO barrier: one no-op closure per shard).
    pub fn flush(&self) -> Result<(), LatestError> {
        // CONC(shard-command-fifo/flush-barrier): rendezvous, one unit per
        // shard; recv below completes the FIFO barrier
        let (tx, rx) = bounded::<()>(self.senders.len());
        for s in &self.senders {
            let tx = tx.clone();
            s.send(ShardCmd::Run(Box::new(move |_| {
                let _ = tx.send(());
            })))
            .map_err(|_| LatestError::PipelineShutDown)?;
        }
        drop(tx);
        for _ in 0..self.senders.len() {
            rx.recv().map_err(|_| LatestError::PipelineShutDown)?;
        }
        Ok(())
    }

    /// Answers one query by scatter-gather: the owning shards each answer
    /// their partition, and the per-shard counts merge into one outcome.
    /// A query that fans out to a single shard (always, with one shard)
    /// returns that shard's outcome verbatim.
    pub fn query(&self, query: &RcDvq, options: QueryOptions) -> Result<QueryOutcome, LatestError> {
        let mut outcomes = self.query_batch(std::slice::from_ref(query), options)?;
        outcomes.pop().ok_or(LatestError::PipelineShutDown)
    }

    /// Answers a batch of queries by scatter-gather, reusing the grouped
    /// per-shard [`Latest::query_batch`] execution (shared window slide,
    /// in-batch cache collapse, multi-query kernels). Each query's
    /// per-shard outcomes are merged in shard-index order; queries the
    /// router sends to a single shard come back verbatim.
    ///
    /// The stream time defaults to the engine clock (the maximum ingested
    /// timestamp) rather than any one shard's window time, so all shards
    /// answer at the same virtual instant. With
    /// [`QueryOptions::blocking`]`(false)` a full shard queue refuses
    /// with [`LatestError::WouldBlock`] before anything is enqueued.
    pub fn query_batch(
        &self,
        queries: &[RcDvq],
        options: QueryOptions,
    ) -> Result<Vec<QueryOutcome>, LatestError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let options = QueryOptions {
            at: Some(options.at.unwrap_or_else(|| self.clock())),
            ..options
        };
        let n = self.senders.len();
        // Scatter: per-shard index lists, preserving batch order.
        let mut routed: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (qi, query) in queries.iter().enumerate() {
            for shard in self.router.route_query(query) {
                routed[shard].push(qi);
            }
        }
        if !options.blocking {
            for (shard, indices) in routed.iter().enumerate() {
                let s = &self.senders[shard];
                if !indices.is_empty() && s.len() + 1 > self.config.shard.queue_capacity {
                    return Err(LatestError::WouldBlock);
                }
            }
        }
        let participants = routed.iter().filter(|idx| !idx.is_empty()).count();
        // CONC(shard-command-fifo/query-reply): per-call rendezvous; one
        // reply per participating shard is drained below
        let (reply_tx, reply_rx) = bounded(participants.max(1));
        for (shard, indices) in routed.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let sub: Vec<RcDvq> = indices.iter().map(|&i| queries[i].clone()).collect();
            self.senders[shard]
                .send(ShardCmd::Query {
                    queries: sub,
                    options,
                    reply: reply_tx.clone(),
                })
                .map_err(|_| LatestError::PipelineShutDown)?;
        }
        drop(reply_tx);
        // Gather: collect per-shard outcome vectors, then stitch each
        // query's parts together in ascending shard order.
        let mut per_shard: Vec<Option<Vec<QueryOutcome>>> = vec![None; n];
        for _ in 0..participants {
            let (shard, outcomes) = reply_rx.recv().map_err(|_| LatestError::PipelineShutDown)?;
            per_shard[shard] = Some(outcomes);
        }
        let mut parts: Vec<Vec<QueryOutcome>> = vec![Vec::new(); queries.len()];
        for (shard, indices) in routed.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let outcomes = per_shard[shard]
                .take()
                .ok_or(LatestError::PipelineShutDown)?;
            if outcomes.len() != indices.len() {
                return Err(LatestError::PipelineShutDown);
            }
            for (&qi, outcome) in indices.iter().zip(outcomes) {
                parts[qi].push(outcome);
            }
        }
        let mut merged = Vec::with_capacity(queries.len());
        for p in parts {
            merged.push(merge_outcomes(p).ok_or(LatestError::PipelineShutDown)?);
        }
        Ok(merged)
    }

    /// A point-in-time view of the whole engine: every shard's
    /// [`MetricsSnapshot`], merged with [`MetricsSnapshot::merge`]
    /// (counters sum, histograms add bucket-wise, the phase is the least
    /// advanced shard's).
    pub fn metrics_snapshot(&self) -> Result<MetricsSnapshot, LatestError> {
        // CONC(shard-command-fifo/snapshot-reply): per-call rendezvous; one
        // snapshot per shard is merged below
        let (tx, rx) = bounded(self.senders.len());
        for s in &self.senders {
            s.send(ShardCmd::Snapshot(tx.clone()))
                .map_err(|_| LatestError::PipelineShutDown)?;
        }
        drop(tx);
        let mut merged: Option<MetricsSnapshot> = None;
        for _ in 0..self.senders.len() {
            let snap = rx.recv().map_err(|_| LatestError::PipelineShutDown)?;
            merged = Some(match merged {
                None => snap,
                Some(m) => m.merge(&snap),
            });
        }
        merged.ok_or(LatestError::PipelineShutDown)
    }

    /// Spawns a periodic metrics scraper over the merged engine snapshot
    /// ([`SnapshotScraper::spawn_source`](crate::SnapshotScraper::spawn_source)
    /// over [`Self::metrics_snapshot`]). The scraper stops on its own once
    /// the engine is dropped.
    pub fn spawn_scraper(
        self: &Arc<Self>,
        every: std::time::Duration,
        capacity: usize,
    ) -> Result<crate::concurrent::SnapshotScraper, LatestError> {
        let engine = Arc::downgrade(self);
        crate::concurrent::SnapshotScraper::spawn_source(
            move || engine.upgrade().and_then(|e| e.metrics_snapshot().ok()),
            every,
            capacity,
        )
    }

    /// Writes a crash-consistent snapshot of the whole engine into `dir`:
    /// one `shard-<i>.snap` file per shard (each a full [`Latest`]
    /// snapshot) stitched together by a `manifest.snap` keyed by the
    /// eviction-clock watermark.
    ///
    /// The manifest is written **last** and records a checksum for every
    /// shard payload, so it is the commit point: a crash mid-snapshot
    /// leaves either a complete previous snapshot or files the restore
    /// path refuses, never a torn mixture presented as valid.
    ///
    /// Each shard serializes its state in command-FIFO order, so the
    /// snapshot reflects every ingest and query issued before this call.
    /// Producers racing this call land either before or after the
    /// snapshot, per shard; quiesce them for a fully point-in-time image.
    pub fn save_snapshot(&self, dir: impl AsRef<std::path::Path>) -> Result<(), LatestError> {
        use geostream::PersistError;
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| LatestError::Persist(PersistError::io("create-dir", e)))?;
        // Read the watermark before the per-shard barriers: every command
        // that advanced it is already enqueued, so each shard's state at
        // closure execution covers at least this horizon.
        // CONC(sharded-eviction-clock/engine-clock-read): watermark read; no
        // cross-cell ordering is derived from it
        let watermark = self.clock.load(Ordering::Relaxed);
        // CONC(shard-command-fifo/snapshot-state-reply): per-call rendezvous;
        // one serialized state payload per shard is drained below
        let (tx, rx) = bounded::<(usize, Vec<u8>)>(self.senders.len());
        for (i, s) in self.senders.iter().enumerate() {
            let tx = tx.clone();
            s.send(ShardCmd::Run(Box::new(move |latest| {
                let _ = tx.send((i, latest.snapshot_bytes()));
            })))
            .map_err(|_| LatestError::PipelineShutDown)?;
        }
        drop(tx);
        let mut checksums = vec![0u64; self.senders.len()];
        for _ in 0..self.senders.len() {
            let (shard, payload) = rx.recv().map_err(|_| LatestError::PipelineShutDown)?;
            checksums[shard] = crate::persist::payload_checksum(&payload);
            crate::persist::write_snapshot_file(
                &dir.join(format!("shard-{shard}.snap")),
                &crate::persist::SNAPSHOT_MAGIC,
                &payload,
            )?;
        }
        let mut w = geostream::PersistWriter::new();
        w.put_u64(watermark);
        w.put_usize(checksums.len());
        for &c in &checksums {
            w.put_u64(c);
        }
        crate::persist::write_snapshot_file(
            &dir.join("manifest.snap"),
            &crate::persist::MANIFEST_MAGIC,
            &w.into_bytes(),
        )?;
        Ok(())
    }

    /// Restores an engine from a [`ShardedLatest::save_snapshot`]
    /// directory: reads the manifest, verifies every shard file against
    /// its recorded checksum, restores each shard's [`Latest`], and only
    /// then spawns the workers (watermark included). Any missing, torn,
    /// or mismatched file aborts the restore with a typed error before a
    /// single thread is spawned.
    pub fn restore(
        config: LatestConfig,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<Self, LatestError> {
        use geostream::PersistError;
        config.validate()?;
        let dir = dir.as_ref();
        let manifest = crate::persist::read_snapshot_file(
            &dir.join("manifest.snap"),
            &crate::persist::MANIFEST_MAGIC,
        )?;
        let mut r = geostream::PersistReader::new(&manifest);
        let watermark = r.take_u64("Manifest.watermark")?;
        let shards = r.take_usize("Manifest.shards")?;
        if shards != config.shard.shards || shards == 0 || shards > MAX_SHARDS {
            return Err(LatestError::Persist(PersistError::Corrupt {
                context: "Manifest.shards",
                detail: format!(
                    "manifest holds {shards} shards, configuration expects {}",
                    config.shard.shards
                ),
            }));
        }
        let mut checksums = Vec::with_capacity(shards);
        for _ in 0..shards {
            checksums.push(r.take_u64("Manifest.checksum")?);
        }
        let mut instances = Vec::with_capacity(shards);
        for (i, &expected) in checksums.iter().enumerate() {
            let payload = crate::persist::read_snapshot_file(
                &dir.join(format!("shard-{i}.snap")),
                &crate::persist::SNAPSHOT_MAGIC,
            )?;
            let found = crate::persist::payload_checksum(&payload);
            if found != expected {
                // The shard file unsealed cleanly but is not the one the
                // manifest committed (e.g. a torn snapshot that crashed
                // between shard files and manifest).
                return Err(LatestError::Persist(PersistError::ChecksumMismatch {
                    expected,
                    found,
                }));
            }
            instances.push(Latest::restore(config.clone(), &payload)?);
        }
        Self::launch(config, instances, watermark)
    }

    /// Deep cross-shard invariant walk: every shard's own
    /// [`Latest::audit`] plus the sharding invariants — router partition
    /// coverage (each live object is held by the shard that owns it, and
    /// by no other shard) and the cross-shard occupancy identity
    /// (`Σ occupancy == Σ ingested − Σ evicted`).
    #[cfg(feature = "debug-invariants")]
    pub fn audit(&self) -> Result<(), geostream::AuditError> {
        use geostream::AuditError;
        let shut = || AuditError {
            structure: "ShardedLatest",
            invariant: "shards-live",
            detail: "a shard worker exited before the audit completed".into(),
        };
        type ShardReport = (
            usize,
            Result<(), AuditError>,
            usize,
            Vec<u64>,
            (u64, u64, u64),
        );
        // CONC(shard-command-fifo/audit-reply): per-call rendezvous; one
        // report per shard is summarized below
        let (tx, rx) = bounded::<ShardReport>(self.senders.len());
        for (i, s) in self.senders.iter().enumerate() {
            let tx = tx.clone();
            let router = self.router.clone();
            s.send(ShardCmd::Run(Box::new(move |latest| {
                let audit = latest.audit();
                let mut misrouted = 0usize;
                let mut oids = Vec::with_capacity(latest.window_len());
                for obj in latest.window_objects() {
                    if router.route_object(obj) != i {
                        misrouted += 1;
                    }
                    oids.push(obj.oid.0);
                }
                let m = latest.metrics();
                let flows = (
                    latest.window_len() as u64,
                    m.objects_ingested.get(),
                    m.objects_evicted.get(),
                );
                let _ = tx.send((i, audit, misrouted, oids, flows));
            })))
            .map_err(|_| shut())?;
        }
        drop(tx);
        let mut seen = std::collections::HashSet::new();
        let mut occupancy = 0u64;
        let mut ingested = 0u64;
        let mut evicted = 0u64;
        for _ in 0..self.senders.len() {
            let (shard, audit, misrouted, oids, flows) = rx.recv().map_err(|_| shut())?;
            audit?;
            if misrouted != 0 {
                return Err(AuditError {
                    structure: "ShardedLatest",
                    invariant: "partition-coverage",
                    detail: format!("shard {shard} holds {misrouted} objects it does not own"),
                });
            }
            for oid in oids {
                if !seen.insert(oid) {
                    return Err(AuditError {
                        structure: "ShardedLatest",
                        invariant: "partition-disjoint",
                        detail: format!("oid {oid} is live on more than one shard"),
                    });
                }
            }
            occupancy += flows.0;
            ingested += flows.1;
            evicted += flows.2;
        }
        if occupancy != ingested - evicted || occupancy != seen.len() as u64 {
            return Err(AuditError {
                structure: "ShardedLatest",
                invariant: "occupancy-total",
                detail: format!(
                    "Σ occupancy {occupancy} vs Σ ingested {ingested} − Σ evicted {evicted} \
                     (distinct live oids: {})",
                    seen.len()
                ),
            });
        }
        Ok(())
    }

    fn stop(&mut self) -> u64 {
        // Dropping every sender disconnects the shard queues; workers
        // drain what is already enqueued and return their ingest counts.
        self.senders.clear();
        let mut ingested = 0u64;
        for worker in self.workers.drain(..) {
            ingested += worker.join().unwrap_or(0);
        }
        ingested
    }

    /// Stops every shard worker (draining already-enqueued commands) and
    /// returns the total number of objects ingested across shards.
    pub fn shutdown(mut self) -> u64 {
        self.stop()
    }
}

impl std::fmt::Debug for ShardedLatest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLatest")
            .field("shards", &self.senders.len())
            .field("router", &self.router.policy())
            .field("clock", &self.clock())
            .finish_non_exhaustive()
    }
}

impl Drop for ShardedLatest {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Merges one query's per-shard outcomes (ascending shard order) into the
/// engine-level outcome. A single part is returned verbatim; otherwise
/// counts sum left-to-right (`estimate`, `actual`), the accuracy is
/// re-derived from the merged totals, the latency is the gather makespan
/// (the slowest shard), identity fields (`estimator`, `phase`,
/// `served_by`) come from the lowest-indexed participating shard, and the
/// shadow samples are dropped (each scores one shard's partial count, not
/// the merged answer).
fn merge_outcomes(parts: Vec<QueryOutcome>) -> Option<QueryOutcome> {
    let mut iter = parts.into_iter();
    let mut merged = iter.next()?;
    let mut many = false;
    for p in iter {
        many = true;
        merged.estimate += p.estimate;
        merged.actual += p.actual;
        merged.latency_ms = merged.latency_ms.max(p.latency_ms);
        merged.switched |= p.switched;
    }
    if many {
        merged.accuracy = crate::estimation_accuracy(merged.estimate, merged.actual);
        merged.shadow.clear();
    }
    Some(merged)
}

/// An opaque handle to a submitted [`ServingEngine`] job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

impl Ticket {
    /// The job's engine-unique id.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// One submitted query batch awaiting a serving worker.
struct Job {
    ticket: u64,
    queries: Vec<RcDvq>,
    options: QueryOptions,
}

/// Completed results, keyed by ticket id, plus the wakeup for blocking
/// waiters.
struct EngineState {
    done: Mutex<HashMap<u64, Result<Vec<QueryOutcome>, LatestError>>>,
    ready: Condvar,
}

/// A zero-dependency thread-pool front door over a [`ShardedLatest`]:
/// callers [`submit`](ServingEngine::submit) query batches onto a bounded
/// job queue and later [`poll`](ServingEngine::poll) or
/// [`wait`](ServingEngine::wait) on the returned [`Ticket`]. A full queue
/// surfaces [`LatestError::WouldBlock`] at submit time — backpressure is
/// the caller's signal, and no accepted job is ever dropped.
pub struct ServingEngine {
    jobs: Option<Sender<Job>>,
    state: Arc<EngineState>,
    next_ticket: AtomicU64,
    workers: Vec<JoinHandle<u64>>,
}

impl ServingEngine {
    /// Spawns `workers` serving threads (at least one) over `engine`,
    /// with a job queue bounded at `queue_capacity`.
    pub fn new(
        engine: Arc<ShardedLatest>,
        workers: usize,
        queue_capacity: usize,
    ) -> Result<Self, LatestError> {
        // CONC(serving-tickets/serving-jobs): bounded job queue shared by
        // all workers; try_send gives callers backpressure
        let (job_tx, job_rx) = bounded::<Job>(queue_capacity.max(1));
        let state = Arc::new(EngineState {
            // CONC(serving-tickets/serving-done-map): guards finished
            // results; always paired with the ready condvar
            done: Mutex::new(HashMap::new()),
            // CONC(serving-tickets/serving-ready-cv): wakes waiters after a
            // result lands in the done map under the lock
            ready: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(workers.max(1));
        for i in 0..workers.max(1) {
            let rx = job_rx.clone();
            let engine = Arc::clone(&engine);
            let state = Arc::clone(&state);
            // CONC(serving-tickets/serving-worker): joined by shutdown/Drop
            // after the job sender is dropped
            let handle = std::thread::Builder::new()
                .name(format!("latest-serving-{i}"))
                .spawn(move || {
                    let mut served = 0u64;
                    while let Ok(job) = rx.recv() {
                        let result = engine.query_batch(&job.queries, job.options);
                        served += 1;
                        unpoisoned(state.done.lock()).insert(job.ticket, result);
                        state.ready.notify_all();
                    }
                    served
                })
                .map_err(|e| LatestError::Spawn {
                    thread: "latest-serving",
                    reason: e.to_string(),
                })?;
            handles.push(handle);
        }
        Ok(ServingEngine {
            jobs: Some(job_tx),
            state,
            next_ticket: AtomicU64::new(0),
            workers: handles,
        })
    }

    /// Submits a query batch for asynchronous execution. Fails with
    /// [`LatestError::WouldBlock`] when the job queue is full (the batch
    /// is NOT enqueued — retry later) and
    /// [`LatestError::PipelineShutDown`] once the engine stopped.
    pub fn submit(
        &self,
        queries: Vec<RcDvq>,
        options: QueryOptions,
    ) -> Result<Ticket, LatestError> {
        let jobs = self.jobs.as_ref().ok_or(LatestError::PipelineShutDown)?;
        // Relaxed ordering: ticket ids only need to be unique; the job
        // channel orders the actual work.
        // CONC(serving-tickets/serving-ticket-ids): uniqueness only; the job
        // channel provides the ordering edge
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        match jobs.try_send(Job {
            ticket,
            queries,
            options,
        }) {
            Ok(()) => Ok(Ticket(ticket)),
            Err(TrySendError::Full(_)) => Err(LatestError::WouldBlock),
            Err(TrySendError::Disconnected(_)) => Err(LatestError::PipelineShutDown),
        }
    }

    /// Takes the result of a completed job, or `None` while it is still
    /// queued or running. A completed ticket yields its result exactly
    /// once.
    pub fn poll(&self, ticket: Ticket) -> Option<Result<Vec<QueryOutcome>, LatestError>> {
        unpoisoned(self.state.done.lock()).remove(&ticket.0)
    }

    /// Blocks until the job completes and takes its result.
    pub fn wait(&self, ticket: Ticket) -> Result<Vec<QueryOutcome>, LatestError> {
        let mut done = unpoisoned(self.state.done.lock());
        loop {
            if let Some(result) = done.remove(&ticket.0) {
                return result;
            }
            done = unpoisoned(self.state.ready.wait(done));
        }
    }

    /// Pending jobs currently queued (not yet picked up by a worker).
    pub fn queued(&self) -> usize {
        self.jobs.as_ref().map_or(0, Sender::len)
    }

    fn stop(&mut self) -> u64 {
        drop(self.jobs.take());
        let mut served = 0u64;
        for worker in self.workers.drain(..) {
            served += worker.join().unwrap_or(0);
        }
        // Wake any waiter stuck on a ticket that can no longer complete.
        self.state.ready.notify_all();
        served
    }

    /// Stops the serving workers after they drain the accepted jobs, and
    /// returns how many jobs were served.
    pub fn shutdown(mut self) -> u64 {
        self.stop()
    }
}

impl Drop for ServingEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::PhaseTag;
    use estimators::EstimatorConfig;
    use geostream::synth::DatasetSpec;
    use geostream::{Duration, KeywordId, ObjectId, Point};

    fn config(shards: usize, router: RouterPolicy) -> LatestConfig {
        let dataset = DatasetSpec::twitter();
        LatestConfig::builder()
            .window_span(Duration::from_secs(60))
            .warmup(Duration::from_secs(60))
            .pretrain_queries(20)
            .estimator_config(EstimatorConfig {
                domain: dataset.domain,
                reservoir_capacity: 1_000,
                ..EstimatorConfig::default()
            })
            .shard(ShardConfig {
                shards,
                queue_capacity: 1_024,
                router,
            })
            .build()
            .expect("valid test config")
    }

    fn obj(id: u64, x: f64, y: f64, at: u64) -> GeoTextObject {
        GeoTextObject::new(
            ObjectId(id),
            Point::new(x, y),
            vec![KeywordId((id % 16) as u32)],
            Timestamp(at),
        )
    }

    #[test]
    fn hash_router_partitions_and_fans_out_everywhere() {
        let domain = Rect::new(0.0, 0.0, 100.0, 100.0);
        let router = ShardRouter::new(RouterPolicy::HashOid, 4, domain);
        let mut per_shard = [0usize; 4];
        for id in 0..1_000u64 {
            let o = obj(id, 50.0, 50.0, 0);
            per_shard[router.route_object(&o)] += 1;
        }
        // FNV spreads sequential ids: no shard is empty or hogs the load.
        for n in per_shard {
            assert!(n > 100, "skewed hash partition: {per_shard:?}");
        }
        let q = RcDvq::spatial(Rect::new(10.0, 10.0, 20.0, 20.0));
        assert_eq!(router.route_query(&q), vec![0, 1, 2, 3]);
    }

    #[test]
    fn spatial_router_covers_matching_strips_only() {
        let domain = Rect::new(0.0, 0.0, 100.0, 100.0);
        let router = ShardRouter::new(RouterPolicy::SpatialTile, 4, domain);
        // Strips are [0,25), [25,50), [50,75), [75,100].
        assert_eq!(router.route_object(&obj(1, 10.0, 5.0, 0)), 0);
        assert_eq!(router.route_object(&obj(2, 25.0, 5.0, 0)), 1);
        assert_eq!(router.route_object(&obj(3, 99.9, 5.0, 0)), 3);
        assert_eq!(router.route_object(&obj(4, 100.0, 5.0, 0)), 3); // clamped
        let q = RcDvq::spatial(Rect::new(30.0, 0.0, 60.0, 10.0));
        assert_eq!(router.route_query(&q), vec![1, 2]);
        // Keyword-only queries have no spatial locality: all shards.
        let q = RcDvq::keyword(vec![KeywordId(3)]);
        assert_eq!(router.route_query(&q), vec![0, 1, 2, 3]);
        // Router coverage: every object inside a query rect is on a
        // visited strip.
        let q = RcDvq::spatial(Rect::new(24.9, 0.0, 25.1, 10.0));
        let visited = router.route_query(&q);
        for o in [obj(5, 24.95, 5.0, 0), obj(6, 25.05, 5.0, 0)] {
            assert!(visited.contains(&router.route_object(&o)));
        }
    }

    #[test]
    fn rejects_invalid_shard_configs() {
        let bad = LatestConfig {
            shard: ShardConfig {
                shards: 0,
                ..ShardConfig::default()
            },
            ..LatestConfig::default()
        };
        assert!(ShardedLatest::new(bad).is_err());
        let bad = LatestConfig {
            shard: ShardConfig {
                queue_capacity: 0,
                ..ShardConfig::default()
            },
            ..LatestConfig::default()
        };
        assert!(ShardedLatest::new(bad).is_err());
    }

    #[test]
    fn ingests_and_answers_across_shards() {
        for router in [RouterPolicy::HashOid, RouterPolicy::SpatialTile] {
            let engine = ShardedLatest::new(config(4, router)).expect("spawn");
            let dataset = DatasetSpec::twitter();
            let mut gen = dataset.generator();
            let batch: Vec<_> = (0..2_000).map(|_| gen.next_object()).collect();
            engine.ingest_batch(&batch).expect("live");
            engine.flush().expect("live");
            let snap = engine.metrics_snapshot().expect("live");
            assert_eq!(snap.window.ingested, 2_000);
            assert_eq!(snap.window.occupancy, 2_000); // nothing evicted yet
            let out = engine
                .query(
                    &RcDvq::spatial(Rect::new(-120.0, 30.0, -100.0, 45.0)),
                    QueryOptions::new(),
                )
                .expect("live");
            assert!(out.estimate >= 0.0);
            assert_eq!(engine.shutdown(), 2_000);
        }
    }

    #[test]
    fn merged_actual_matches_direct_count() {
        let engine = ShardedLatest::new(config(3, RouterPolicy::SpatialTile)).expect("spawn");
        let domain = Rect::new(-124.7, 25.1, -66.2, 49.0); // twitter domain
        let mut batch = Vec::new();
        for id in 0..600u64 {
            let x = domain.min_x + (id as f64 / 600.0) * domain.width();
            batch.push(obj(id, x, 30.0, id));
        }
        engine.ingest_batch(&batch).expect("live");
        engine.flush().expect("live");
        let q = RcDvq::spatial(Rect::new(domain.min_x, 25.1, domain.min_x + 30.0, 49.0));
        let expected = batch.iter().filter(|o| q.matches(o)).count() as u64;
        let out = engine
            .query(&q, QueryOptions::new().exact(true))
            .expect("live");
        assert_eq!(out.actual, expected);
        assert!(out.estimate == expected as f64);
        engine.shutdown();
    }

    #[test]
    fn eviction_clock_keeps_windows_aligned() {
        let engine = ShardedLatest::new(config(4, RouterPolicy::SpatialTile)).expect("spawn");
        // All objects in strip 0, but time advances for every shard: the
        // other three windows must still slide.
        let span_ms = 60_000u64;
        let mut batch = Vec::new();
        for id in 0..100u64 {
            batch.push(obj(id, 0.01, 30.0, id * 2_000));
        }
        // Only strip 0 gets data; later batch pushes time past the span.
        let engine_domain = engine.config().estimator_config.domain;
        let _ = engine_domain;
        engine.ingest_batch(&batch).expect("live");
        engine.flush().expect("live");
        let snap = engine.metrics_snapshot().expect("live");
        // The window keeps objects with `ts >= now − span` (inclusive).
        let live_expected = batch
            .iter()
            .filter(|o| o.timestamp.0 + span_ms >= batch[99].timestamp.0)
            .count() as u64;
        assert_eq!(snap.window.occupancy, live_expected);
        assert_eq!(engine.clock(), Timestamp(99 * 2_000));
        engine.shutdown();
    }

    #[test]
    fn non_blocking_paths_surface_would_block() {
        let dataset = DatasetSpec::twitter();
        let tiny = LatestConfig::builder()
            .window_span(Duration::from_secs(60))
            .warmup(Duration::from_secs(60))
            .estimator_config(EstimatorConfig {
                domain: dataset.domain,
                reservoir_capacity: 1_000,
                ..EstimatorConfig::default()
            })
            .shard(ShardConfig {
                shards: 1,
                queue_capacity: 2,
                router: RouterPolicy::HashOid,
            })
            .build()
            .expect("valid");
        let engine = ShardedLatest::new(tiny).expect("spawn");
        // Park the single shard worker on a blocking closure so the queue
        // cannot drain, then fill it.
        let (hold_tx, hold_rx) = bounded::<()>(1);
        engine.senders[0]
            .send(ShardCmd::Run(Box::new(move |_| {
                let _ = hold_rx.recv();
            })))
            .expect("live");
        while engine.senders[0].len() < 2 {
            if engine.senders[0]
                .try_send(ShardCmd::AdvanceTo(Timestamp(0)))
                .is_err()
            {
                break;
            }
        }
        let batch = vec![obj(1, 0.0, 0.0, 1)];
        assert_eq!(
            engine.try_ingest_batch(&batch).unwrap_err(),
            LatestError::WouldBlock
        );
        let q = RcDvq::keyword(vec![KeywordId(1)]);
        assert_eq!(
            engine
                .query(&q, QueryOptions::new().blocking(false))
                .unwrap_err(),
            LatestError::WouldBlock
        );
        hold_tx.send(()).expect("worker is parked");
        engine.flush().expect("live");
        assert!(engine.try_ingest_batch(&batch).is_ok());
        engine.shutdown();
    }

    #[test]
    fn merge_outcomes_sums_counts_and_rederives_accuracy() {
        let part = |estimate: f64, actual: u64, latency_ms: f64| QueryOutcome {
            estimate,
            actual,
            latency_ms,
            accuracy: crate::estimation_accuracy(estimate, actual),
            estimator: estimators::EstimatorKind::Rsh,
            phase: PhaseTag::Incremental,
            switched: false,
            served_by: crate::system::ServedBy::Estimator(estimators::EstimatorKind::Rsh),
            shadow: Vec::new(),
        };
        // Single part: verbatim.
        let single = merge_outcomes(vec![part(9.0, 10, 0.5)]).expect("one part");
        assert_eq!(single.actual, 10);
        assert_eq!(single.latency_ms, 0.5);
        // Two parts: sums, max latency, re-derived accuracy.
        let merged =
            merge_outcomes(vec![part(9.0, 10, 0.5), part(21.0, 20, 1.5)]).expect("two parts");
        assert_eq!(merged.actual, 30);
        assert_eq!(merged.estimate, 30.0);
        assert_eq!(merged.latency_ms, 1.5);
        assert_eq!(merged.accuracy, 1.0);
        assert!(merge_outcomes(Vec::new()).is_none());
    }

    #[test]
    fn serving_engine_submit_poll_wait_and_backpressure() {
        let engine = Arc::new(ShardedLatest::new(config(2, RouterPolicy::HashOid)).expect("spawn"));
        let dataset = DatasetSpec::twitter();
        let mut gen = dataset.generator();
        let batch: Vec<_> = (0..1_000).map(|_| gen.next_object()).collect();
        engine.ingest_batch(&batch).expect("live");
        engine.flush().expect("live");
        let serving = ServingEngine::new(Arc::clone(&engine), 1, 1).expect("spawn");
        let q = vec![RcDvq::keyword(vec![KeywordId(1)])];
        // Park the worker indirectly: park both shard workers so the one
        // serving thread blocks inside query_batch.
        let mut holds = Vec::new();
        for s in &engine.senders {
            let (hold_tx, hold_rx) = bounded::<()>(1);
            s.send(ShardCmd::Run(Box::new(move |_| {
                let _ = hold_rx.recv();
            })))
            .expect("live");
            holds.push(hold_tx);
        }
        let t1 = serving.submit(q.clone(), QueryOptions::new()).expect("t1");
        // Wait until the worker picked t1 up, then fill the queue of 1.
        while serving.queued() > 0 {
            std::thread::yield_now();
        }
        let t2 = serving.submit(q.clone(), QueryOptions::new()).expect("t2");
        assert_eq!(
            serving.submit(q.clone(), QueryOptions::new()).unwrap_err(),
            LatestError::WouldBlock
        );
        assert!(serving.poll(t1).is_none(), "t1 cannot finish while parked");
        for h in holds {
            h.send(()).expect("worker parked");
        }
        let r1 = serving.wait(t1).expect("t1 completes");
        assert_eq!(r1.len(), 1);
        let r2 = serving.wait(t2).expect("t2 completes");
        assert_eq!(r2.len(), 1);
        assert_eq!(serving.shutdown(), 2);
    }

    #[test]
    fn scraper_snapshots_merge_across_shards() {
        let engine = Arc::new(ShardedLatest::new(config(2, RouterPolicy::HashOid)).expect("spawn"));
        let scraper = engine
            .spawn_scraper(std::time::Duration::from_millis(5), 16)
            .expect("scraper spawns");
        let dataset = DatasetSpec::twitter();
        let mut gen = dataset.generator();
        let batch: Vec<_> = (0..500).map(|_| gen.next_object()).collect();
        engine.ingest_batch(&batch).expect("live");
        engine.flush().expect("live");
        // Wait for a post-ingest scrape tick.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            if let Some(snap) = scraper.latest() {
                if snap.window.ingested == 500 {
                    break;
                }
            }
            assert!(std::time::Instant::now() < deadline, "no merged snapshot");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        scraper.stop();
    }

    /// Miri-sized exercise of the shard command FIFO (the `fifo_` prefix
    /// is the CI miri filter): one small ingest, a flush barrier, a
    /// fanned-out query with its reply rendezvous, a snapshot gather, and
    /// the shutdown/join path — every channel in the
    /// `shard-command-fifo` protocol — with no timers, scrapers, or
    /// generator entropy, so the interpreter finishes in seconds.
    #[test]
    fn fifo_commands_round_trip_under_miri() {
        let engine = ShardedLatest::new(config(2, RouterPolicy::HashOid)).expect("spawn");
        let batch: Vec<_> = (0..16)
            .map(|i| obj(i, (i % 10) as f64 * 10.0, (i % 10) as f64 * 10.0, i))
            .collect();
        engine.ingest_batch(&batch).expect("ingest");
        engine.flush().expect("barrier");
        // The watermark is the max batch timestamp, published by fetch_max.
        assert_eq!(engine.clock(), Timestamp(15));
        let outcomes = engine
            .query_batch(
                &[RcDvq::keyword(vec![KeywordId(3)])],
                QueryOptions::default(),
            )
            .expect("query");
        assert_eq!(outcomes.len(), 1);
        let snap = engine.metrics_snapshot().expect("snapshot");
        assert_eq!(snap.window.ingested, 16, "merged ingest count");
        assert_eq!(engine.shutdown(), 16);
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    fn audit_passes_on_live_engine() {
        for router in [RouterPolicy::HashOid, RouterPolicy::SpatialTile] {
            let engine = ShardedLatest::new(config(4, router)).expect("spawn");
            let dataset = DatasetSpec::twitter();
            let mut gen = dataset.generator();
            for _ in 0..10 {
                let batch: Vec<_> = (0..300).map(|_| gen.next_object()).collect();
                engine.ingest_batch(&batch).expect("live");
            }
            engine.flush().expect("live");
            engine.audit().expect("cross-shard invariants hold");
            engine.shutdown();
        }
    }
}
