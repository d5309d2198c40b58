//! The LATEST system module: phase orchestration and the Estimator Adaptor.
//!
//! `Latest` and its ingest path live here. Each decision has one owning
//! submodule: `query` answers a query and runs the adaptor's thresholds,
//! `phase` makes every phase and estimator transition, `prefill` builds
//! the §V-D replacement in the background, and `snapshot` persists the
//! whole engine.

mod phase;
mod prefill;
mod query;
mod snapshot;

pub use crate::config::{AblationConfig, LatestConfig};
pub use query::{QueryOptions, QueryOutcome, ServedBy};

use crate::adaptor::Recommender;
use crate::cache::SelectivityCache;
use crate::features::{model_schema, QueryProfile, RewardScaler};
use crate::log::PhaseTag;
use crate::monitor::AccuracyMonitor;
use crate::obsv::{
    AdaptorMetrics, EstimatorMetrics, EstimatorRole, ExecutorMetrics, LifecycleEvent,
    MetricsRegistry, MetricsSnapshot, WindowMetrics,
};
use crate::pool::{EstimatorPool, PrefillBuilder};
use estimators::{BoxedEstimator, EstimatorKind};
use exactdb::ExactExecutor;
use geostream::QueryType;
use geostream::{GeoTextObject, SlidingWindow, Timestamp};
use hoeffding::{DdmDetector, HoeffdingTree, TreeStats};
use prefill::PrefillSlot;

enum Phase {
    /// Warm-up: all estimators pre-filling, no queries expected.
    WarmUp { pool: EstimatorPool },
    /// Pre-training: every query runs on the whole pool.
    PreTraining { pool: EstimatorPool },
    /// Incremental learning: one active estimator (+ optional prefill).
    Incremental {
        active: BoxedEstimator,
        prefill: PrefillSlot,
        /// Shadow pool for per-estimator metrics, when enabled.
        shadow: EstimatorPool,
    },
}

/// The LATEST module. Drive it with [`Latest::ingest`] for stream objects
/// and [`Latest::query`] for estimation queries. Every answer is handed
/// back as a [`QueryOutcome`] and nothing is kept per query: what the
/// engine holds is bounded by the window, the estimators and the model,
/// not by how long it has been serving (DESIGN.md, "Bounded state").
pub struct Latest {
    config: LatestConfig,
    window: SlidingWindow,
    executor: ExactExecutor,
    phase: Phase,
    tree: HoeffdingTree,
    recommender: Recommender,
    scaler: RewardScaler,
    monitor: AccuracyMonitor,
    /// Estimation-path queries answered so far (the next one's `seq`).
    queries_seen: u64,
    queries_since_switch: usize,
    /// DDM detector over the tree's own prediction errors.
    drift: DdmDetector,
    /// Query types of the most recent incremental queries (the workload
    /// mix the adaptor optimizes for).
    recent_types: std::collections::VecDeque<QueryType>,
    /// EWMA representative profile per query type, for consulting the tree
    /// about a *mix* rather than a single query.
    type_profiles: [Option<QueryProfile>; 3],
    evict_buf: Vec<GeoTextObject>,
    /// Memoized answers for repeated queries over an unchanged window,
    /// keyed on `(QuerySignature, window generation)`.
    cache: SelectivityCache,
    /// Run-wide observability registry.
    metrics: MetricsRegistry,
    /// Background prefill build worker (lazy: spawned by the first
    /// prefill).
    builder: PrefillBuilder,
}

impl Latest {
    /// Creates a LATEST instance in the warm-up phase.
    ///
    /// # Panics
    /// Panics if the configuration fails [`LatestConfig::validate`];
    /// prefer assembling configs through [`LatestConfig::builder`], which
    /// surfaces the same checks as a `Result`.
    pub fn new(config: LatestConfig) -> Self {
        if let Err(e) = config.validate() {
            // LINT-ALLOW(no-panic): `new` documents this panic; `LatestConfig::builder().build()` and `LatestConfig::validate` are the fallible paths for recoverable callers
            panic!("{e}");
        }
        let mut metrics = MetricsRegistry::new();
        metrics.events.record(LifecycleEvent::PhaseEntered {
            phase: PhaseTag::WarmUp,
            at: Timestamp::ZERO,
        });
        Latest {
            window: SlidingWindow::new(config.window_span),
            executor: ExactExecutor::new(config.estimator_config.domain, config.index_kind),
            phase: Phase::WarmUp {
                pool: EstimatorPool::full(&config.estimator_config, 1),
            },
            tree: HoeffdingTree::new(model_schema(), config.tree_config.clone()),
            recommender: Recommender::new(),
            scaler: RewardScaler::new(config.alpha),
            monitor: AccuracyMonitor::new(config.accuracy_window),
            queries_seen: 0,
            queries_since_switch: 0,
            drift: DdmDetector::default(),
            recent_types: std::collections::VecDeque::new(),
            type_profiles: [None, None, None],
            evict_buf: Vec::new(),
            cache: SelectivityCache::new(config.selectivity_cache_capacity),
            metrics,
            builder: PrefillBuilder::new(),
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LatestConfig {
        &self.config
    }

    /// The current phase tag.
    pub fn phase(&self) -> PhaseTag {
        match self.phase {
            Phase::WarmUp { .. } => PhaseTag::WarmUp,
            Phase::PreTraining { .. } => PhaseTag::PreTraining,
            Phase::Incremental { .. } => PhaseTag::Incremental,
        }
    }

    /// The estimator currently employed (the pre-training default until the
    /// incremental phase starts).
    pub fn active_kind(&self) -> EstimatorKind {
        match &self.phase {
            Phase::Incremental { active, .. } => active.kind(),
            _ => self.config.default_estimator,
        }
    }

    /// Whether a replacement estimator is currently pre-filling (either
    /// building in the background or built and awaiting activation).
    pub fn prefilling(&self) -> Option<EstimatorKind> {
        match &self.phase {
            Phase::Incremental { prefill, .. } => prefill.kind(),
            _ => None,
        }
    }

    /// Shape statistics of the learning model.
    pub fn tree_stats(&self) -> TreeStats {
        self.tree.stats()
    }

    /// Live window size.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Current stream time.
    pub fn now(&self) -> Timestamp {
        self.window.now()
    }

    /// Advances virtual stream time to `at` without ingesting anything:
    /// the window slides (propagating the eviction sweep to the executor
    /// and every maintained estimator) and the warm-up → pre-training
    /// transition is checked, exactly as an empty ingest batch stamped
    /// `at` would. [`ShardedLatest`](crate::ShardedLatest) uses this as
    /// its cross-shard eviction clock, so shards whose sub-batch ended
    /// early still observe the same window horizon as their peers.
    /// Timestamps earlier than the current stream time are ignored (the
    /// window never moves backwards).
    pub fn advance_clock(&mut self, at: Timestamp) {
        self.advance_window_to(at);
        self.maybe_leave_warmup();
    }

    /// Iterates over the live window contents, oldest first (read-only;
    /// the sharded audit uses it to check router partition coverage).
    pub fn window_objects(&self) -> impl Iterator<Item = &GeoTextObject> + '_ {
        self.window.iter()
    }

    /// Read access to the selectivity cache (size, generation,
    /// invalidation count).
    pub fn cache(&self) -> &SelectivityCache {
        &self.cache
    }

    /// The run-wide observability registry. Live cells; prefer
    /// [`Latest::metrics_snapshot`] for a consistent point-in-time copy.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A point-in-time copy of every subsystem's metrics — window, adaptor,
    /// executor path mix, per-estimator series, lifecycle events — plus
    /// the adaptor state only the system itself can see (monitor window,
    /// estimator roles).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let m = &self.metrics;
        let mix = self.executor.path_mix();
        let role_of = |kind: EstimatorKind| match &self.phase {
            Phase::WarmUp { pool } | Phase::PreTraining { pool } => {
                if pool.kinds().contains(&kind) {
                    EstimatorRole::Pool
                } else {
                    EstimatorRole::Idle
                }
            }
            Phase::Incremental {
                active,
                prefill,
                shadow,
                ..
            } => {
                if active.kind() == kind {
                    EstimatorRole::Active
                } else if prefill.kind() == Some(kind) {
                    EstimatorRole::Prefilling
                } else if shadow.kinds().contains(&kind) {
                    EstimatorRole::Shadow
                } else {
                    EstimatorRole::Idle
                }
            }
        };
        MetricsSnapshot {
            phase: self.phase(),
            queries_total: m.queries_total.get(),
            queries_by_phase: [
                m.queries_by_phase[0].get(),
                m.queries_by_phase[1].get(),
                m.queries_by_phase[2].get(),
            ],
            cache_hits: m.cache_hits.get(),
            cache_misses: m.cache_misses.get(),
            window: WindowMetrics {
                occupancy: self.window.len() as u64,
                ingested: m.objects_ingested.get(),
                evicted: m.objects_evicted.get(),
            },
            adaptor: AdaptorMetrics {
                switches: m.switches.get(),
                prefill_starts: m.prefill_starts.get(),
                prefill_discards: m.prefill_discards.get(),
                tree_retrainings: m.tree_retrainings.get(),
                prefill_cancelled: m.prefill_cancelled.get(),
                prefill_build_us: m.prefill_build_us.snapshot(),
                switch_stall_us: m.switch_stall_us.snapshot(),
                monitor_len: self.monitor.len() as u64,
                monitor_average: self.monitor.average(),
                queries_since_switch: self.queries_since_switch as u64,
            },
            executor: ExecutorMetrics {
                spatial: mix.spatial,
                inverted: mix.inverted,
            },
            estimators: EstimatorKind::ALL
                .into_iter()
                .map(|kind| EstimatorMetrics {
                    kind,
                    role: role_of(kind),
                    memory_bytes: m.estimator_memory_bytes[kind.index() as usize].get(),
                    latency_us: m.estimate_latency_us[kind.index() as usize].snapshot(),
                })
                .collect(),
            events: m.events.snapshot(),
            events_dropped: m.events.dropped(),
        }
    }

    /// Deep invariant walk over the window, the exact executor, and every
    /// estimator the current phase maintains. A violation is recorded as
    /// an `AuditFailed` lifecycle event before being returned, so a run's
    /// snapshot shows *that* an audit tripped even if the error itself was
    /// swallowed upstream.
    #[cfg(feature = "debug-invariants")]
    pub fn audit(&mut self) -> Result<(), geostream::AuditError> {
        let window_generation = self.window.generation();
        let result = self
            .window
            .audit()
            .and_then(|()| self.executor.audit())
            .and_then(|()| self.audit_executor_against_window())
            .and_then(|()| match &mut self.phase {
                Phase::WarmUp { pool } | Phase::PreTraining { pool } => pool.audit(),
                Phase::Incremental {
                    active,
                    prefill,
                    shadow,
                } => {
                    active.audit()?;
                    match prefill {
                        PrefillSlot::Idle => {}
                        PrefillSlot::Building { delta, .. } => delta.audit(window_generation)?,
                        PrefillSlot::Ready(p) => p.audit()?,
                    }
                    shadow.audit()
                }
            });
        if let Err(e) = &result {
            self.metrics.events.record(LifecycleEvent::AuditFailed {
                structure: e.structure.to_string(),
                invariant: e.invariant.to_string(),
            });
        }
        result
    }

    /// The executor holds the window's view (**executor-window**): the
    /// same population, the same oldest object (the next eviction) and
    /// the same newest.
    #[cfg(feature = "debug-invariants")]
    fn audit_executor_against_window(&self) -> Result<(), geostream::AuditError> {
        let oldest = self.window.iter().next().map(|o| o.oid);
        let newest = self
            .window
            .chunk_slices()
            .last()
            .and_then(|chunk| chunk.last())
            .map(|o| o.oid);
        let executor = &self.executor;
        geostream::audit::ensure(
            executor.len() == self.window.len()
                && executor.oldest() == oldest
                && executor.newest() == newest,
            "Latest",
            "executor-window",
            || {
                format!(
                    "executor {} live, oldest {:?}, newest {:?}; window {}, {oldest:?}, {newest:?}",
                    executor.len(),
                    executor.oldest(),
                    executor.newest(),
                    self.window.len()
                )
            },
        )
    }

    /// Test hook: from now on prefill candidates are built on the calling
    /// thread — the degradation [`PrefillBuilder`] falls back to when its
    /// worker cannot be spawned. Such a candidate is complete when the
    /// adaptor's decision returns, so it is promoted at the next window
    /// change after a one-batch replay and maintained inline from then on;
    /// `tests/async_prefill_equivalence.rs` uses an engine in this mode as
    /// the reference the threaded build must match bit for bit.
    #[doc(hidden)]
    pub fn debug_build_prefills_on_caller(&mut self) {
        self.builder.build_on_caller();
    }

    /// Test hook: starts a prefill of `kind` right now through the
    /// adaptor's own transition (`Latest::start_prefill`), bypassing the
    /// accuracy thresholds. Returns `false` when not in the incremental
    /// phase or a prefill is already pending. Lets equivalence tests drive
    /// the prefill state machine deterministically.
    #[doc(hidden)]
    pub fn debug_force_prefill(&mut self, kind: EstimatorKind) -> bool {
        self.start_prefill(kind, self.queries_seen)
    }

    /// Test hook: discards the pending prefill right now through the
    /// adaptor's own transition (`Latest::discard_prefill`). Returns
    /// `false` when there is nothing to discard.
    #[doc(hidden)]
    pub fn debug_discard_prefill(&mut self) -> bool {
        self.discard_prefill(self.queries_seen)
    }

    /// Test hook: activates the pending prefill right now through the
    /// adaptor's own transition (`Latest::activate_prefill`). Returns
    /// `false` when there is nothing to activate.
    #[doc(hidden)]
    pub fn debug_activate_prefill(&mut self) -> bool {
        let at = self.window.now();
        let avg = self.monitor.average().unwrap_or(0.0);
        self.activate_prefill(self.queries_seen, at, avg)
    }

    /// Ingests one stream object, updating the window, the exact executor,
    /// and whichever estimators the current phase maintains. Also advances
    /// the warm-up → pre-training transition.
    pub fn ingest(&mut self, obj: GeoTextObject) {
        self.ingest_batch(std::slice::from_ref(&obj));
    }

    /// Ingests a batch of stream objects (non-decreasing timestamps) in one
    /// maintenance round: the window slides once, and the exact executor
    /// and each maintained estimator receive the arrivals and the evictions
    /// as batches. The warm-up → pre-training transition is checked once,
    /// after the batch lands (the phases maintain the same pool, so
    /// mid-batch arrival order is unaffected).
    ///
    /// # Panics
    /// Panics if any object is older than its predecessor (in the batch or
    /// already in the window). The whole batch is refused before anything
    /// is touched, so an engine reached again after the unwind — through
    /// `catch_unwind`, or a [`SharedLatest`](crate::SharedLatest) whose
    /// lock recovers from poisoning — is the engine from before the call.
    pub fn ingest_batch(&mut self, batch: &[GeoTextObject]) {
        if batch.is_empty() {
            return;
        }
        // The window's own check fires per object, after the earlier ones
        // of the batch went in: it would leave the window ahead of the
        // executor and the estimators.
        let mut newest = self.window.newest();
        for obj in batch {
            if let Some(newest) = newest {
                assert!(
                    obj.timestamp >= newest,
                    "out-of-order arrival: {} after {}",
                    obj.timestamp,
                    newest
                );
            }
            newest = Some(obj.timestamp);
        }
        self.evict_buf.clear();
        let mut evicted = std::mem::take(&mut self.evict_buf);
        self.window
            .insert_batch(batch.iter().cloned(), &mut evicted);
        self.executor.insert_batch(batch);
        self.executor.remove_batch(&evicted);
        let generation = self.window.generation();
        match &mut self.phase {
            Phase::WarmUp { pool } | Phase::PreTraining { pool } => {
                pool.apply_batch(batch, &evicted);
            }
            Phase::Incremental {
                active,
                prefill,
                shadow,
                ..
            } => {
                active.insert_batch(batch);
                active.remove_batch(&evicted);
                match prefill {
                    PrefillSlot::Ready(p) => {
                        p.insert_batch(batch);
                        p.remove_batch(&evicted);
                    }
                    PrefillSlot::Building { delta, .. } => {
                        delta.push_insert(batch, generation);
                        delta.push_remove(&evicted, generation);
                    }
                    PrefillSlot::Idle => {}
                }
                shadow.apply_batch(batch, &evicted);
            }
        }
        self.metrics.objects_ingested.add(batch.len() as u64);
        self.metrics.objects_evicted.add(evicted.len() as u64);
        self.evict_buf = evicted;
        self.poll_prefill();
        self.maybe_leave_warmup();
    }

    /// Slides the window to `at` and propagates the eviction sweep to the
    /// phase's estimators and the exact executor.
    fn advance_window_to(&mut self, at: Timestamp) {
        self.evict_buf.clear();
        let mut evicted = std::mem::take(&mut self.evict_buf);
        self.window.advance_to(at, &mut evicted);
        if !evicted.is_empty() {
            let generation = self.window.generation();
            match &mut self.phase {
                Phase::WarmUp { pool } | Phase::PreTraining { pool } => {
                    pool.remove_batch(&evicted);
                }
                Phase::Incremental {
                    active,
                    prefill,
                    shadow,
                    ..
                } => {
                    active.remove_batch(&evicted);
                    match prefill {
                        PrefillSlot::Ready(p) => p.remove_batch(&evicted),
                        PrefillSlot::Building { delta, .. } => {
                            delta.push_remove(&evicted, generation);
                        }
                        PrefillSlot::Idle => {}
                    }
                    shadow.remove_batch(&evicted);
                }
            }
            self.executor.remove_batch(&evicted);
            self.metrics.objects_evicted.add(evicted.len() as u64);
        }
        self.evict_buf = evicted;
        self.poll_prefill();
    }
}

#[cfg(test)]
mod tests;
