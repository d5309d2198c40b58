//! The estimator pool: one owner for every estimator a phase maintains.
//!
//! LATEST's protocol keeps several estimators consistent with the sliding
//! window at once — all six during pre-training (§V-C) and shadow-metrics
//! runs, the active one plus a pre-filling replacement during adaptation
//! (§V-D). [`EstimatorPool`] owns the maintained set and walks it in pool
//! order, one estimator at a time, on the calling thread: `insert`/`remove`
//! batches for maintenance, and a timed `estimate` + `observe_query` round
//! for measurement.
//!
//! The walk is deliberately serial. A scoped thread fan-out across the
//! estimators was measured on a 2-vCPU host and lost on the only
//! end-to-end metric it could move (`setup_s`, worse in ten of ten pairs),
//! and it timed each estimator while a sibling contended for the
//! last-level cache — with `α > 0` those latencies are the labels the
//! Hoeffding tree trains on (DESIGN.md, "Estimator-pool maintenance and
//! batched ingestion").
//!
//! The second half of this module is the one thread the switching path
//! does pay for: [`PrefillBuilder`], the background worker that builds
//! §V-D's replacement candidate off the serving thread.

use crate::estimation_accuracy;
use crate::log::ShadowSample;
use crate::obsv::WallTimer;
use estimators::{build_estimator, BoxedEstimator, EstimatorConfig, EstimatorKind};
use geostream::{GeoTextObject, RcDvq, WindowSnapshot};
use std::sync::Arc;

/// A pool of maintained estimators, walked serially in pool order.
pub struct EstimatorPool {
    estimators: Vec<BoxedEstimator>,
}

impl EstimatorPool {
    /// Wraps an existing set of estimators.
    pub fn new(estimators: Vec<BoxedEstimator>) -> Self {
        EstimatorPool { estimators }
    }

    /// Builds the full six-estimator pool of the pre-training phase, in
    /// [`EstimatorKind::ALL`] order.
    ///
    /// The second argument is ignored. It was the worker count of the
    /// retired thread fan-out and survives only because the frozen
    /// benchmark sources (`crates/bench/src/bin/e2e/trace.rs`) still pass
    /// one; the next PR allowed to edit them drops it (CHANGES.md keeps the
    /// list).
    pub fn full(config: &EstimatorConfig, _retired_workers: usize) -> Self {
        let estimators = EstimatorKind::ALL
            .iter()
            .map(|&k| build_estimator(k, config))
            .collect();
        EstimatorPool::new(estimators)
    }

    /// An estimator-less pool (placeholder during phase transitions).
    pub fn empty() -> Self {
        EstimatorPool::new(Vec::new())
    }

    /// Number of estimators maintained.
    pub fn len(&self) -> usize {
        self.estimators.len()
    }

    /// Whether the pool maintains no estimators.
    pub fn is_empty(&self) -> bool {
        self.estimators.is_empty()
    }

    /// The kinds currently maintained, in pool order.
    pub fn kinds(&self) -> Vec<EstimatorKind> {
        self.estimators.iter().map(|e| e.kind()).collect()
    }

    /// Read access to the maintained estimators, in pool order (the
    /// snapshot path persists each one through `persist_boxed`, and the
    /// engine reads their memory footprints after a measurement round).
    pub(crate) fn estimators(&self) -> &[BoxedEstimator] {
        &self.estimators
    }

    /// Adds an estimator to the pool.
    pub fn push(&mut self, est: BoxedEstimator) {
        self.estimators.push(est);
    }

    /// Keeps only the estimators satisfying `keep`.
    pub fn retain(&mut self, keep: impl FnMut(&BoxedEstimator) -> bool) {
        self.estimators.retain(keep);
    }

    /// Dissolves the pool into its estimators (pool order preserved).
    pub fn into_inner(self) -> Vec<BoxedEstimator> {
        self.estimators
    }

    /// Ingests a batch of arrivals into every estimator.
    pub fn insert_batch(&mut self, objs: &[GeoTextObject]) {
        if objs.is_empty() {
            return;
        }
        for est in &mut self.estimators {
            est.insert_batch(objs);
        }
    }

    /// Retracts a batch of evictions from every estimator.
    pub fn remove_batch(&mut self, objs: &[GeoTextObject]) {
        if objs.is_empty() {
            return;
        }
        for est in &mut self.estimators {
            est.remove_batch(objs);
        }
    }

    /// One maintenance round: every estimator ingests `arrived` and then
    /// retracts `evicted`.
    pub fn apply_batch(&mut self, arrived: &[GeoTextObject], evicted: &[GeoTextObject]) {
        if arrived.is_empty() && evicted.is_empty() {
            return;
        }
        for est in &mut self.estimators {
            est.insert_batch(arrived);
            est.remove_batch(evicted);
        }
    }

    /// Deep invariant walk over the pool (the `debug-invariants`
    /// auditor): each estimator's own `audit`, plus **population-agreement**
    /// — every maintained estimator has been fed the same insert/remove
    /// stream, so all populations match.
    #[cfg(feature = "debug-invariants")]
    pub fn audit(&self) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        const S: &str = "EstimatorPool";
        let mut first: Option<(EstimatorKind, u64)> = None;
        for est in &self.estimators {
            est.audit()?;
            let pop = est.population();
            match first {
                None => first = Some((est.kind(), pop)),
                Some((kind0, pop0)) => {
                    ensure(pop == pop0, S, "population-agreement", || {
                        format!(
                            "{kind0} tracks {pop0} objects but {} tracks {pop}",
                            est.kind()
                        )
                    })?;
                }
            }
        }
        Ok(())
    }

    /// One measurement round: every estimator answers `query` (timed) and
    /// receives the `observe_query` feedback, one after the other, so no
    /// estimator is timed while another runs. Samples come back in pool
    /// order.
    pub fn measure(&mut self, query: &RcDvq, actual: u64) -> Vec<ShadowSample> {
        let mut samples = Vec::with_capacity(self.estimators.len());
        for est in &mut self.estimators {
            let timer = WallTimer::start();
            let estimate = est.estimate(query);
            let latency_us = timer.elapsed_us();
            est.observe_query(query, actual);
            samples.push(ShadowSample {
                estimator: est.kind(),
                estimate,
                latency_ms: latency_us as f64 / 1_000.0,
                accuracy: estimation_accuracy(estimate, actual),
            });
        }
        samples
    }
}

// ---------------------------------------------------------------------------
// Background prefill builder
// ---------------------------------------------------------------------------

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

/// Builds a prefill candidate of `kind` from `slices` (oldest first): the
/// one build every candidate comes from — the worker's job, the on-caller
/// degradation, and the engine's worker-died fallback — so all of them
/// persist byte for byte alike.
///
/// The slices go through `SelectivityEstimator::insert_slices` in one call.
/// Its contract is the *observable* state of one `insert` per object in
/// order — population, arrivals seen, RNG state, each sample's slot →
/// object map, SPN's `rebuilds` and components — so the candidate's
/// estimates are bit-identical, now and after any further churn, to those
/// of one maintained inline. What no estimate reads may differ from such a
/// one: a bulk-built sample has every posting generation at zero, no
/// tombstones or keyword-pool garbage, and RSH cells that list their slots
/// in ascending order.
///
/// A caller that may abandon the build ends `slices` early and drops the
/// result: the worker's sequence stops at the first slice boundary after
/// its cancel flag is set (a window snapshot's slices hold at most 1 024
/// objects).
pub(crate) fn build_candidate<'a>(
    kind: EstimatorKind,
    config: &EstimatorConfig,
    mut slices: impl Iterator<Item = &'a [GeoTextObject]>,
) -> BoxedEstimator {
    let mut est = build_estimator(kind, config);
    est.insert_slices(&mut slices);
    est
}

/// A finished background prefill build, as delivered on a [`PrefillTicket`].
pub struct BuiltPrefill {
    /// The candidate, fed the full snapshot. Delta catch-up (replaying the
    /// window changes that arrived while the build ran) is still pending.
    pub estimator: BoxedEstimator,
    /// Wall time the worker spent building, in microseconds.
    pub build_us: u64,
    /// Objects in the snapshot the candidate was built from.
    pub snapshot_len: usize,
}

/// One queued build job for the builder worker.
struct PrefillJob {
    kind: EstimatorKind,
    config: EstimatorConfig,
    snapshot: WindowSnapshot,
    cancel: Arc<AtomicBool>,
    done: mpsc::Sender<BuiltPrefill>,
}

/// Handle on one in-flight background prefill build.
///
/// The serving thread polls it with [`PrefillTicket::try_take`] from the
/// ingest/query paths and blocks on [`PrefillTicket::wait`] only at
/// activation, when the switch cannot proceed without the candidate.
pub struct PrefillTicket {
    rx: mpsc::Receiver<BuiltPrefill>,
    cancel: Arc<AtomicBool>,
}

impl PrefillTicket {
    /// The finished build, if the worker has delivered it (non-blocking).
    pub fn try_take(&mut self) -> Option<BuiltPrefill> {
        self.rx.try_recv().ok()
    }

    /// Blocks until the build lands. `None` only if the worker died
    /// mid-build (a worker panic) — callers fall back to a synchronous
    /// build.
    pub fn wait(self) -> Option<BuiltPrefill> {
        self.rx.recv().ok()
    }

    /// Abandons the build: the worker stops at the next slice boundary
    /// and drops the partial candidate.
    pub fn cancel(self) {
        // Relaxed ordering: advisory early-exit flag — the worker merely
        // stops sooner or later by a slice; dropping `rx` is what
        // actually detaches the result.
        // CONC(prefill-handoff/prefill-cancel): advisory early-exit flag;
        // the done channel carries the real handoff
        self.cancel.store(true, Ordering::Relaxed);
    }
}

/// A lazily spawned background worker that builds prefill candidates off
/// the serving thread.
///
/// Jobs queue on an mpsc channel; at most one is outstanding per engine in
/// practice (one prefill slot), so a single worker suffices. If the thread
/// cannot be spawned (or has died), `submit` degrades to building inline on
/// the calling thread — the ticket API is identical either way.
pub struct PrefillBuilder {
    tx: Option<mpsc::Sender<PrefillJob>>,
    worker: Option<std::thread::JoinHandle<()>>,
    /// Cancel flag of the most recent job, poked on drop so shutdown never
    /// waits out a full build.
    last_cancel: Option<Arc<AtomicBool>>,
    /// Set once a spawn attempt failed (or by the on-caller test hook);
    /// stops re-attempting per submit.
    spawn_failed: bool,
}

impl Default for PrefillBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefillBuilder {
    /// A builder with no worker yet; the thread starts on first `submit`.
    pub fn new() -> Self {
        PrefillBuilder {
            tx: None,
            worker: None,
            last_cancel: None,
            spawn_failed: false,
        }
    }

    fn ensure_worker(&mut self) {
        if self.tx.is_some() || self.spawn_failed {
            return;
        }
        // CONC(prefill-handoff/prefill-jobs): job queue to the builder;
        // Drop closes it (tx = None) and then joins
        let (tx, rx) = mpsc::channel::<PrefillJob>();
        // CONC(prefill-handoff/prefill-builder): joined by Drop after the
        // job queue is closed
        let spawned = std::thread::Builder::new()
            .name("latest-prefill-builder".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    Self::run_job(job);
                }
            });
        match spawned {
            Ok(handle) => {
                self.tx = Some(tx);
                self.worker = Some(handle);
            }
            Err(_) => self.spawn_failed = true,
        }
    }

    /// Builds `kind` from `snapshot` (a structurally shared
    /// [`WindowSnapshot`] — taking one never copies objects), then
    /// delivers it on the returned ticket.
    pub fn submit(
        &mut self,
        kind: EstimatorKind,
        config: &EstimatorConfig,
        snapshot: WindowSnapshot,
    ) -> PrefillTicket {
        let cancel = Arc::new(AtomicBool::new(false));
        // CONC(prefill-handoff/prefill-done): one-shot result channel; the
        // send happens-before the ticket's recv
        let (done_tx, done_rx) = mpsc::channel();
        let job = PrefillJob {
            kind,
            config: config.clone(),
            snapshot,
            cancel: Arc::clone(&cancel),
            done: done_tx,
        };
        self.ensure_worker();
        match &self.tx {
            Some(tx) => {
                if let Err(mpsc::SendError(job)) = tx.send(job) {
                    // The worker died (panic); run inline so the ticket
                    // still resolves, and let the next submit respawn.
                    self.tx = None;
                    self.worker = None;
                    Self::run_job(job);
                }
            }
            // Spawn failed: degrade to a synchronous inline build.
            None => Self::run_job(job),
        }
        self.last_cancel = Some(Arc::clone(&cancel));
        PrefillTicket {
            rx: done_rx,
            cancel,
        }
    }

    /// Puts the builder in the state a failed spawn leaves it in: every
    /// later `submit` runs its job on the calling thread and hands back a
    /// ticket that is already resolved. Backs
    /// `Latest::debug_build_prefills_on_caller`.
    pub(crate) fn build_on_caller(&mut self) {
        // Closing the queue retires a worker that already started; Drop
        // joins it.
        self.tx = None;
        self.spawn_failed = true;
    }

    fn run_job(job: PrefillJob) {
        // Relaxed ordering: the flag is advisory — it only decides how soon
        // the worker abandons a cancelled build; the result channel
        // provides the actual cross-thread handoff.
        // CONC(prefill-handoff/prefill-cancel): read before any build work
        // starts, at every slice boundary of the snapshot, and once more
        // before delivery
        let cancelled = || job.cancel.load(Ordering::Relaxed);
        if cancelled() {
            return;
        }
        let timer = WallTimer::start();
        let est = build_candidate(
            job.kind,
            &job.config,
            job.snapshot.chunk_slices().take_while(|_| !cancelled()),
        );
        // A cancelled build may have seen only part of the snapshot: it is
        // dropped, never delivered.
        if cancelled() {
            return;
        }
        let _ = job.done.send(BuiltPrefill {
            estimator: est,
            build_us: timer.elapsed_us(),
            snapshot_len: job.snapshot.len(),
        });
    }
}

impl Drop for PrefillBuilder {
    fn drop(&mut self) {
        if let Some(c) = self.last_cancel.take() {
            // Relaxed ordering: see run_job — advisory early-exit only.
            // CONC(prefill-handoff/prefill-cancel): Drop cancels the pending
            // build before closing the queue
            c.store(true, Ordering::Relaxed);
        }
        // Closing the queue wakes the worker out of `recv`; it drains the
        // (cancelled) tail and exits, so this join is prompt.
        self.tx = None;
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::{KeywordId, ObjectId, Point, Rect, Timestamp};

    fn config() -> EstimatorConfig {
        EstimatorConfig {
            domain: Rect::new(0.0, 0.0, 64.0, 64.0),
            reservoir_capacity: 500,
            ..EstimatorConfig::default()
        }
    }

    fn objects(n: u64) -> Vec<GeoTextObject> {
        (0..n)
            .map(|i| {
                GeoTextObject::new(
                    ObjectId(i),
                    Point::new((i % 64) as f64, ((i / 64) % 64) as f64),
                    vec![KeywordId(i as u32 % 20)],
                    Timestamp(i),
                )
            })
            .collect()
    }

    fn probe() -> RcDvq {
        RcDvq::hybrid(Rect::new(0.0, 0.0, 32.0, 32.0), vec![KeywordId(3)])
    }

    #[test]
    fn full_pool_maintains_all_six() {
        let mut pool = EstimatorPool::full(&config(), 1);
        assert_eq!(pool.len(), 6);
        assert_eq!(pool.kinds(), EstimatorKind::ALL.to_vec());
        let objs = objects(200);
        pool.insert_batch(&objs);
        let samples = pool.measure(&probe(), 50);
        assert_eq!(samples.len(), 6);
        for (s, k) in samples.iter().zip(EstimatorKind::ALL) {
            assert_eq!(s.estimator, k);
            assert!(s.estimate >= 0.0);
        }
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let mut pool = EstimatorPool::full(&config(), 1);
        pool.insert_batch(&[]);
        pool.remove_batch(&[]);
        pool.apply_batch(&[], &[]);
        assert!(pool.measure(&probe(), 0).iter().all(|s| s.estimate == 0.0));
    }

    /// The pool auditor passes on a consistently maintained pool and
    /// flags an estimator that missed part of the maintenance stream.
    #[cfg(feature = "debug-invariants")]
    #[test]
    fn audit_checks_every_estimator_and_population_agreement() {
        let mut pool = EstimatorPool::full(&config(), 1);
        let objs = objects(300);
        pool.insert_batch(&objs);
        pool.remove_batch(&objs[..100]);
        pool.audit().expect("consistently maintained pool");
        // A freshly built estimator never saw the stream: its population
        // disagrees with the rest of the pool.
        pool.push(build_estimator(EstimatorKind::Ffn, &config()));
        let err = pool.audit().expect_err("stale estimator must be caught");
        assert_eq!(err.structure, "EstimatorPool");
        assert_eq!(err.invariant, "population-agreement");
    }

    #[test]
    fn background_build_matches_inline_build() {
        let cfg = config();
        let objs = objects(3_000);
        let mut builder = PrefillBuilder::new();
        for kind in EstimatorKind::ALL {
            let ticket = builder.submit(kind, &cfg, objs.clone().into());
            let built = ticket.wait().expect("worker delivered");
            assert_eq!(built.snapshot_len, objs.len());
            let mut inline = build_estimator(kind, &cfg);
            inline.insert_batch(&objs);
            let q = probe();
            assert_eq!(
                built.estimator.estimate(&q).to_bits(),
                inline.estimate(&q).to_bits(),
                "{kind}: background build diverged from inline"
            );
            assert_eq!(built.estimator.population(), inline.population());
        }
    }

    /// The spawn-failure degradation: `submit` runs the job on the caller,
    /// so the ticket is resolved the moment it is handed back, and the
    /// candidate is the one a background build of the same snapshot makes.
    #[test]
    fn on_caller_build_resolves_at_once_and_matches_background_build() {
        let cfg = config();
        let objs = objects(3_000);
        let persisted = |est: &BoxedEstimator| {
            let mut w = geostream::PersistWriter::new();
            estimators::persist_boxed(est.as_ref(), &mut w);
            w.into_bytes()
        };
        let mut background = PrefillBuilder::new();
        let mut on_caller = PrefillBuilder::new();
        on_caller.build_on_caller();
        for kind in EstimatorKind::ALL {
            let mut ticket = on_caller.submit(kind, &cfg, objs.clone().into());
            let built = ticket
                .try_take()
                .expect("an on-caller build is complete when submit returns");
            assert_eq!(built.snapshot_len, objs.len());
            let reference = background
                .submit(kind, &cfg, objs.clone().into())
                .wait()
                .expect("worker delivered");
            assert!(
                persisted(&built.estimator) == persisted(&reference.estimator),
                "{kind}: on-caller build persists differently from the background build"
            );
            // The engine's worker-died fallback builds from the live window
            // through the same function; a window slices the same sequence
            // differently than its snapshot does.
            let fallback = build_candidate(kind, &cfg, objs.chunks(700));
            assert!(
                persisted(&fallback) == persisted(&reference.estimator),
                "{kind}: fallback build persists differently from the background build"
            );
        }
        assert!(
            on_caller.worker.is_none(),
            "on-caller mode spawned a thread"
        );
    }

    #[test]
    fn cancelled_ticket_never_delivers() {
        let mut builder = PrefillBuilder::new();
        let ticket = builder.submit(EstimatorKind::H4096, &config(), objects(5_000).into());
        ticket.cancel();
        // A second submit on the same builder still works after a cancel.
        let ticket = builder.submit(EstimatorKind::Rsl, &config(), objects(100).into());
        assert!(ticket.wait().is_some());
    }

    #[test]
    fn retain_and_push_reshape_the_pool() {
        let mut pool = EstimatorPool::full(&config(), 1);
        pool.retain(|e| e.kind() != EstimatorKind::Ffn);
        assert_eq!(pool.len(), 5);
        pool.push(build_estimator(EstimatorKind::Ffn, &config()));
        assert_eq!(pool.len(), 6);
        let inner = pool.into_inner();
        assert_eq!(inner.last().unwrap().kind(), EstimatorKind::Ffn);
    }
}
