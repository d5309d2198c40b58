//! The LATEST system module: phase orchestration and the Estimator Adaptor.

use crate::adaptor::Recommender;
use crate::cache::{CachedAnswer, SelectivityCache};
use crate::estimation_accuracy;
use crate::features::{model_schema, QueryProfile, RewardScaler};
use crate::log::{PhaseTag, ShadowSample};
use crate::monitor::AccuracyMonitor;
use crate::obsv::{
    phase_index, AdaptorMetrics, EstimatorMetrics, EstimatorRole, ExecutorMetrics, LifecycleEvent,
    MetricsRegistry, MetricsSnapshot, WallTimer, WindowMetrics,
};
use crate::pool::{build_candidate, BuiltPrefill, EstimatorPool, PrefillBuilder, PrefillTicket};
use crate::shard::{RouterPolicy, ShardConfig};
use estimators::{build_estimator, BoxedEstimator, EstimatorConfig, EstimatorKind};
use exactdb::{ExactExecutor, SpatialIndexKind};
use geostream::QueryType;
use geostream::{
    Duration, GeoTextObject, IdSet, Persist, QuerySignature, RcDvq, SlidingWindow, Timestamp,
};
use hoeffding::{DdmDetector, DriftState, HoeffdingTree, HoeffdingTreeConfig, TreeStats};

/// Configuration of a LATEST instance. Defaults mirror the paper's §VI-A
/// setup at laptop scale.
#[derive(Debug, Clone)]
pub struct LatestConfig {
    /// The time window `T` queries are answered over.
    pub window_span: Duration,
    /// Length of the warm-up (data only, no queries). The paper defaults
    /// this to `T` so the window is full when queries start.
    pub warmup: Duration,
    /// Number of queries in the pre-training phase.
    pub pretrain_queries: usize,
    /// Accuracy threshold `τ`: switching below it.
    pub tau: f64,
    /// Pre-filling factor `β ∈ (0, 1)`: pre-filling starts below `β·τ`.
    pub beta: f64,
    /// Accuracy/latency trade-off `α ∈ [0, 1]` (0 = accuracy only).
    pub alpha: f64,
    /// Moving-average window (queries) of the accuracy monitor.
    pub accuracy_window: usize,
    /// Minimum incremental queries between consecutive switches
    /// (hysteresis so a single noisy batch cannot thrash).
    pub min_switch_spacing: usize,
    /// A replacement is only pre-filled when its learned reward for the
    /// current query type beats the active estimator's by this margin —
    /// switching between statistically indistinguishable estimators is
    /// churn, not adaptation.
    pub switch_margin: f64,
    /// The default estimator employed when the incremental phase starts.
    pub default_estimator: EstimatorKind,
    /// Sizing of the underlying estimators.
    pub estimator_config: EstimatorConfig,
    /// Hoeffding tree configuration (paper: info gain + majority class).
    pub tree_config: HoeffdingTreeConfig,
    /// Spatial backend of the exact executor.
    pub index_kind: SpatialIndexKind,
    /// Keep *all* estimators maintained and measure each per query (the
    /// paper's figures plot every estimator's latency/accuracy). Costs
    /// memory and time; off by default.
    pub shadow_metrics: bool,
    /// Capacity of the selectivity cache: distinct query signatures
    /// memoized per window generation (any window content change clears
    /// the cache wholesale). `0` disables caching entirely.
    pub selectivity_cache_capacity: usize,
    /// Sharded-serving layout ([`ShardedLatest`](crate::ShardedLatest)):
    /// how many shards partition the stream, their ingest-queue capacity,
    /// and the routing policy. A plain [`Latest`] ignores everything but
    /// validation; the default is one shard (unsharded behavior).
    pub shard: ShardConfig,
    /// Objects the prefill delta log may buffer while a background build
    /// of the §V-D replacement is in flight. Exceeding it cancels the build
    /// and restarts from a fresh snapshot (the tail to replay must stay
    /// short, or activation would stall the way an inline sweep of the
    /// whole window does).
    pub prefill_delta_cap: usize,
    /// Ablation knobs for the design-choice experiments. All on for the
    /// full LATEST protocol.
    pub ablation: AblationConfig,
}

/// Switches individual LATEST design choices off for ablation studies
/// (the `experiments ablation` harness target sweeps these).
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Pre-fill the replacement below `β·τ` before switching at `τ`
    /// (§V-D). Off: replacements are built cold at switch time, so the new
    /// estimator answers from whatever it can ingest after activation.
    pub prefill: bool,
    /// Consult the Hoeffding tree when recommending (off: EWMA rewards
    /// only — is the learning model actually earning its keep?).
    pub use_tree: bool,
    /// Recommend for the recent workload *mix* (off: the single next
    /// query's profile decides, which thrashes on interleaved workloads).
    pub mix_recommendation: bool,
    /// Allow switching at all (off: the default estimator serves the whole
    /// stream — the static-baseline comparison).
    pub switching: bool,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            prefill: true,
            use_tree: true,
            mix_recommendation: true,
            switching: true,
        }
    }
}

impl Default for LatestConfig {
    fn default() -> Self {
        LatestConfig {
            window_span: Duration::from_mins(10),
            warmup: Duration::from_mins(10),
            pretrain_queries: 300,
            tau: 0.75,
            beta: 0.9,
            alpha: 0.5,
            accuracy_window: 48,
            min_switch_spacing: 64,
            switch_margin: 0.03,
            default_estimator: EstimatorKind::Rsh,
            estimator_config: EstimatorConfig::default(),
            tree_config: HoeffdingTreeConfig {
                // Workload records are plentiful and several features often
                // separate the classes equally well (best-vs-second gain
                // gap ≈ 0), so react faster than the generic VFDT default:
                // smaller grace period, looser δ, and a tie threshold wide
                // enough that a clean split does not need tens of
                // thousands of records per leaf (R = log2(6) here).
                grace_period: 50,
                split_confidence: 1e-4,
                tie_threshold: 0.25,
                ..HoeffdingTreeConfig::default()
            },
            index_kind: SpatialIndexKind::Grid,
            shadow_metrics: false,
            selectivity_cache_capacity: 4_096,
            shard: ShardConfig::default(),
            prefill_delta_cap: 65_536,
            ablation: AblationConfig::default(),
        }
    }
}

/// Per-request knobs of the unified query API ([`Latest::query`],
/// [`Latest::query_batch`], and the [`SharedLatest`] counterparts).
///
/// The default is the common case: answer at the stream's current time,
/// block on a contended shared instance, consult the selectivity cache,
/// and serve from the estimation path.
///
/// ```
/// use geostream::Timestamp;
/// use latest_core::QueryOptions;
///
/// let opts = QueryOptions::default();
/// assert!(opts.blocking && opts.use_cache && !opts.exact);
/// let pinned = QueryOptions::at(Timestamp(1_000)).exact(true);
/// assert_eq!(pinned.at, Some(Timestamp(1_000)));
/// ```
///
/// [`SharedLatest`]: crate::SharedLatest
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOptions {
    /// Stream time to answer at; `None` means the window's current time.
    pub at: Option<Timestamp>,
    /// Whether a shared handle may block on a contended instance lock
    /// (`false` maps contention to [`LatestError::WouldBlock`]; ignored on
    /// an exclusive [`Latest`] borrow, which never waits).
    ///
    /// [`LatestError::WouldBlock`]: crate::LatestError::WouldBlock
    pub blocking: bool,
    /// Whether to consult (and feed) the selectivity cache. Cache hits are
    /// pure reads: they skip the executor, the learning loop, and the
    /// `queries_total` counter.
    pub use_cache: bool,
    /// Answer with the exact executor's ground truth instead of an
    /// estimate. Exact answers bypass the cache, the estimators, and the
    /// learning loop — they still count toward `queries_total` and the
    /// executor's path mix.
    pub exact: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            at: None,
            blocking: true,
            use_cache: true,
            exact: false,
        }
    }
}

impl QueryOptions {
    /// The default options (answer now, blocking, cached, estimated).
    pub fn new() -> Self {
        QueryOptions::default()
    }

    /// Default options pinned to an explicit stream time.
    pub fn at(at: Timestamp) -> Self {
        QueryOptions {
            at: Some(at),
            ..QueryOptions::default()
        }
    }

    /// Pins the stream time to answer at.
    #[must_use = "builder methods move the options; reassign or chain the result"]
    pub fn at_time(mut self, at: Timestamp) -> Self {
        self.at = Some(at);
        self
    }

    /// Sets whether shared handles may block on a contended instance.
    #[must_use = "builder methods move the options; reassign or chain the result"]
    pub fn blocking(mut self, blocking: bool) -> Self {
        self.blocking = blocking;
        self
    }

    /// Sets whether the selectivity cache is consulted and fed.
    #[must_use = "builder methods move the options; reassign or chain the result"]
    pub fn use_cache(mut self, use_cache: bool) -> Self {
        self.use_cache = use_cache;
        self
    }

    /// Sets whether to answer with exact ground truth instead of an
    /// estimate.
    #[must_use = "builder methods move the options; reassign or chain the result"]
    pub fn exact(mut self, exact: bool) -> Self {
        self.exact = exact;
        self
    }
}

/// Which subsystem produced a [`QueryOutcome`]'s answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The estimation path: the named estimator answered.
    Estimator(EstimatorKind),
    /// The exact executor's ground truth ([`QueryOptions::exact`]).
    Exact,
    /// The selectivity cache (a memoized earlier answer; pure read).
    Cache,
}

impl ServedBy {
    /// Short display name (the estimator's own name for estimator serves).
    pub fn name(self) -> &'static str {
        match self {
            ServedBy::Estimator(kind) => kind.name(),
            ServedBy::Exact => "exact",
            ServedBy::Cache => "cache",
        }
    }
}

/// What a single estimation query returned.
#[derive(Debug, Clone)]
#[must_use = "the outcome carries the estimate and its accuracy; discarding it wastes the query"]
pub struct QueryOutcome {
    /// The estimate LATEST answered with.
    pub estimate: f64,
    /// Actual selectivity from the system logs.
    pub actual: u64,
    /// Latency of the estimate (milliseconds).
    pub latency_ms: f64,
    /// Relative-error-based accuracy of the answer.
    pub accuracy: f64,
    /// The estimator that produced the answer.
    pub estimator: EstimatorKind,
    /// Phase the query was served in.
    pub phase: PhaseTag,
    /// Whether this query triggered an estimator switch.
    pub switched: bool,
    /// Which subsystem produced the answer (estimator, exact executor, or
    /// the selectivity cache).
    pub served_by: ServedBy,
    /// Per-estimator measurements of this query under
    /// [`LatestConfig::shadow_metrics`] (one per maintained estimator, the
    /// answering one included); empty — no allocation — otherwise, and on
    /// exact and cached answers.
    pub shadow: Vec<ShadowSample>,
}

/// One recorded window change for the async-prefill delta log, preserving
/// the batch boundaries of the live maintenance path.
enum DeltaOp {
    Insert(Vec<GeoTextObject>),
    Remove(Vec<GeoTextObject>),
}

/// Ordered tail of window changes recorded while a background prefill
/// build is in flight, replayed into the candidate at hand-off.
///
/// Each op is the exact insert/remove batch the candidate would have
/// received had it been maintained inline, in the same order — so by the
/// `insert_batch`/`remove_batch` state-equivalence contract, snapshot +
/// replay lands the candidate in a state bit-equal to inline maintenance.
/// The log is bounded: once more than `cap` objects have been buffered it
/// flips to `overflowed` (dropping its contents — they can no longer be
/// complete) and the owner restarts the build from a fresh snapshot, so
/// the tail replayed at activation stays short.
struct DeltaLog {
    ops: Vec<DeltaOp>,
    /// Objects currently buffered across `ops`.
    objects: usize,
    cap: usize,
    /// Window generation when the snapshot was taken. Read only by the
    /// `debug-invariants` auditor (generation-monotonicity check).
    #[cfg_attr(not(feature = "debug-invariants"), allow(dead_code))]
    snapshot_generation: u64,
    /// Generation stamped on the most recent recorded op (monotonicity is
    /// audited: the log must trail the window, never lead it).
    last_generation: u64,
    overflowed: bool,
}

impl DeltaLog {
    fn new(cap: usize, snapshot_generation: u64) -> Self {
        DeltaLog {
            ops: Vec::new(),
            objects: 0,
            cap,
            snapshot_generation,
            last_generation: snapshot_generation,
            overflowed: false,
        }
    }

    fn push(&mut self, op: DeltaOp, len: usize, generation: u64) {
        if len == 0 {
            return;
        }
        self.last_generation = self.last_generation.max(generation);
        if self.overflowed {
            return;
        }
        if self.objects + len > self.cap {
            // Past the cap the log can never be replayed completely;
            // drop the buffer now and let the owner restart the build.
            self.overflowed = true;
            self.ops.clear();
            self.objects = 0;
            return;
        }
        self.ops.push(op);
        self.objects += len;
    }

    fn push_insert(&mut self, objs: &[GeoTextObject], generation: u64) {
        self.push(DeltaOp::Insert(objs.to_vec()), objs.len(), generation);
    }

    fn push_remove(&mut self, objs: &[GeoTextObject], generation: u64) {
        self.push(DeltaOp::Remove(objs.to_vec()), objs.len(), generation);
    }

    fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Objects currently buffered (the delta tail length).
    fn objects(&self) -> usize {
        self.objects
    }

    /// Replays the recorded tail into `est`, in recorded order.
    fn replay_into(&self, est: &mut BoxedEstimator) {
        for op in &self.ops {
            match op {
                DeltaOp::Insert(objs) => est.insert_batch(objs),
                DeltaOp::Remove(objs) => est.remove_batch(objs),
            }
        }
    }

    /// `debug-invariants` auditor: bounded length, internal count
    /// agreement, and generation monotonicity against the live window.
    #[cfg(feature = "debug-invariants")]
    fn audit(&self, window_generation: u64) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        const S: &str = "DeltaLog";
        ensure(self.objects <= self.cap, S, "bounded-length", || {
            format!("{} buffered objects exceed cap {}", self.objects, self.cap)
        })?;
        let counted: usize = self
            .ops
            .iter()
            .map(|op| match op {
                DeltaOp::Insert(o) | DeltaOp::Remove(o) => o.len(),
            })
            .sum();
        ensure(counted == self.objects, S, "count-agreement", || {
            format!(
                "ops hold {counted} objects but the log tracks {}",
                self.objects
            )
        })?;
        ensure(
            self.snapshot_generation <= self.last_generation,
            S,
            "generation-monotonicity",
            || {
                format!(
                    "last recorded generation {} precedes snapshot generation {}",
                    self.last_generation, self.snapshot_generation
                )
            },
        )?;
        ensure(
            self.last_generation <= window_generation,
            S,
            "generation-monotonicity",
            || {
                format!(
                    "recorded generation {} leads the window's {window_generation}",
                    self.last_generation
                )
            },
        )?;
        // `poll_prefill` runs after every window change that pushes here
        // and restarts an overflowed build on the spot, so a slot at rest
        // never holds an overflowed log.
        ensure(!self.overflowed, S, "restarted-at-overflow", || {
            format!(
                "overflowed log (cap {}) outlived the window change that overflowed it",
                self.cap
            )
        })?;
        Ok(())
    }
}

/// The incremental phase's prefill slot: the §V-D replacement candidate in
/// whichever build stage it is in.
enum PrefillSlot {
    /// No candidate pending.
    Idle,
    /// A background build is in flight; the delta log records every window
    /// change since its snapshot.
    Building {
        kind: EstimatorKind,
        ticket: PrefillTicket,
        delta: DeltaLog,
        /// Query seq of the adaptor decision that started this build.
        started_seq: u64,
    },
    /// Fully built (and caught up); maintained inline like the active
    /// estimator until activation or discard.
    Ready(BoxedEstimator),
}

impl PrefillSlot {
    /// The candidate kind, if one is pending.
    fn kind(&self) -> Option<EstimatorKind> {
        match self {
            PrefillSlot::Idle => None,
            PrefillSlot::Building { kind, .. } => Some(*kind),
            PrefillSlot::Ready(p) => Some(p.kind()),
        }
    }

    fn is_idle(&self) -> bool {
        matches!(self, PrefillSlot::Idle)
    }
}

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
            // LINT-ALLOW(no-panic): `new` documents this panic; `try_new` is the fallible path for recoverable callers
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

    fn maybe_leave_warmup(&mut self) {
        if matches!(self.phase, Phase::WarmUp { .. })
            && self.window.now() >= Timestamp::ZERO.after(self.config.warmup)
        {
            let Phase::WarmUp { pool } = std::mem::replace(
                &mut self.phase,
                Phase::PreTraining {
                    pool: EstimatorPool::empty(),
                },
            ) else {
                unreachable!()
            };
            self.phase = Phase::PreTraining { pool };
            self.metrics.events.record(LifecycleEvent::PhaseEntered {
                phase: PhaseTag::PreTraining,
                at: self.window.now(),
            });
        }
    }

    /// Answers one query under `options`, returning the outcome and — on
    /// the estimation path — updating the learning model, the monitor,
    /// and, if the thresholds say so, the employed estimator.
    ///
    /// With the default options the answer is served at the stream's
    /// current time and the selectivity cache is consulted first: a repeat
    /// of a recent query over an unchanged window is a pure read that
    /// skips the executor and the learning loop entirely.
    pub fn query(&mut self, query: &RcDvq, options: QueryOptions) -> QueryOutcome {
        let at = options.at.unwrap_or_else(|| self.window.now());
        self.advance_window_to(at);
        let cacheable = options.use_cache && !options.exact;
        let generation = self.window.generation();
        let sig = query.signature();
        if cacheable {
            if let Some(hit) = self.cache.lookup(sig, generation) {
                self.metrics.cache_hits.inc();
                return Self::cache_outcome(&hit);
            }
            self.metrics.cache_misses.inc();
        }
        if options.exact {
            return self.exact_query(query);
        }
        let actual = self.executor.execute(query);
        let outcome = self.answer_estimation(query, at, actual, None);
        if cacheable {
            self.cache
                .insert(sig, generation, Self::cache_entry(&outcome));
        }
        outcome
    }

    /// Answers a batch of queries under one set of options, equivalently
    /// to issuing them one at a time in order — same estimates (bit-equal),
    /// same feedback order, same counters — but with the grouped work
    /// amortized:
    ///
    /// * the window slides once for the whole batch;
    /// * duplicate signatures and cached answers collapse onto one
    ///   execution (the rest are pure cache reads);
    /// * the remaining misses run through
    ///   [`ExactExecutor::execute_batch`](exactdb::ExactExecutor::execute_batch),
    ///   which groups by access path and shares posting-list merges;
    /// * when the active estimator's `estimate` is a pure read (anything
    ///   but the self-training FFN), the misses' estimates are produced by
    ///   one multi-query kernel pass over the sample columns.
    ///
    /// Per-query feedback (reward scaling, tree training, the accuracy
    /// monitor, switch decisions) still runs in original order, so the
    /// adaptor sees exactly the single-query history.
    pub fn query_batch(&mut self, queries: &[RcDvq], options: QueryOptions) -> Vec<QueryOutcome> {
        if queries.is_empty() {
            return Vec::new();
        }
        let at = options.at.unwrap_or_else(|| self.window.now());
        self.advance_window_to(at);
        if options.exact {
            // Ground-truth batches skip the cache and the estimation path:
            // one grouped executor pass answers everything.
            let timer = WallTimer::start();
            let actuals = self.executor.execute_batch(queries);
            let latency_ms = timer.elapsed_ms() / queries.len() as f64;
            let estimator = self.active_kind();
            let phase = self.phase();
            let mut outcomes = Vec::with_capacity(queries.len());
            for actual in actuals {
                self.record_query_admission();
                outcomes.push(QueryOutcome {
                    estimate: actual as f64,
                    actual,
                    latency_ms,
                    accuracy: 1.0,
                    estimator,
                    phase,
                    switched: false,
                    served_by: ServedBy::Exact,
                    shadow: Vec::new(),
                });
            }
            return outcomes;
        }
        let cacheable = options.use_cache;
        let generation = self.window.generation();
        let sigs: Vec<QuerySignature> = queries.iter().map(|q| q.signature()).collect();
        // Predict the hit/miss partition upfront: the first occurrence of
        // each signature not already cached runs the full path; every
        // later occurrence hits the answer that first one inserts. The
        // window cannot change mid-batch, so the partition is exact (up to
        // the cache's capacity bound — the loop below falls back to the
        // single-query path if an entry failed to land).
        let mut missed: Vec<usize> = Vec::new();
        if cacheable {
            let mut pending: IdSet<QuerySignature> = IdSet::default();
            for (i, sig) in sigs.iter().enumerate() {
                if !self.cache.contains(*sig, generation) && pending.insert(*sig) {
                    missed.push(i);
                }
            }
        } else {
            missed = (0..queries.len()).collect();
        }
        let missed_queries: Vec<RcDvq> = missed.iter().map(|&i| queries[i].clone()).collect();
        let actuals = self.executor.execute_batch(&missed_queries);
        let mut estimates: Vec<Option<(f64, u64)>> = vec![None; missed_queries.len()];
        self.precompute_estimates(&missed_queries, &mut estimates, 0);
        let mut outcomes = Vec::with_capacity(queries.len());
        let mut next_miss = 0usize;
        for (i, query) in queries.iter().enumerate() {
            if cacheable {
                if let Some(hit) = self.cache.lookup(sigs[i], generation) {
                    self.metrics.cache_hits.inc();
                    outcomes.push(Self::cache_outcome(&hit));
                    continue;
                }
                self.metrics.cache_misses.inc();
            }
            let (actual, precomputed) = if next_miss < missed.len() && missed[next_miss] == i {
                let m = next_miss;
                next_miss += 1;
                (actuals[m], estimates[m])
            } else {
                // Predicted hit that missed after all (the cache's
                // capacity bound refused the insert): single-query path.
                (self.executor.execute(query), None)
            };
            let outcome = self.answer_estimation(query, at, actual, precomputed);
            if cacheable {
                self.cache
                    .insert(sigs[i], generation, Self::cache_entry(&outcome));
            }
            if outcome.switched {
                // The active estimator changed: every pre-computed estimate
                // for the tail of the batch is stale. Re-derive them from
                // the replacement (or fall back to in-sequence estimates if
                // the replacement is the self-training FFN).
                self.precompute_estimates(&missed_queries, &mut estimates, next_miss);
            }
            outcomes.push(outcome);
        }
        outcomes
    }

    /// Builds the outcome of a cache hit: a pure read — zero latency, no
    /// switch, no feedback.
    fn cache_outcome(hit: &CachedAnswer) -> QueryOutcome {
        QueryOutcome {
            estimate: hit.estimate,
            actual: hit.actual,
            latency_ms: 0.0,
            accuracy: hit.accuracy,
            estimator: hit.estimator,
            phase: hit.phase,
            switched: false,
            served_by: ServedBy::Cache,
            shadow: Vec::new(),
        }
    }

    /// The memoizable slice of an outcome.
    fn cache_entry(outcome: &QueryOutcome) -> CachedAnswer {
        CachedAnswer {
            estimate: outcome.estimate,
            actual: outcome.actual,
            accuracy: outcome.accuracy,
            estimator: outcome.estimator,
            phase: outcome.phase,
        }
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

    /// Builds the slot for a prefill of `rec`, honouring the prefill
    /// ablation. An associated function (not `&mut self`) because every
    /// caller holds the destructured `Phase::Incremental` borrow.
    ///
    /// Takes a structurally shared window snapshot (O(#chunks) `Arc`
    /// handle clones — microseconds at any occupancy, the only
    /// serving-thread cost), hands the build to the background worker, and
    /// opens a delta log at the snapshot's generation.
    fn start_prefill_slot(
        window: &mut SlidingWindow,
        builder: &mut PrefillBuilder,
        config: &LatestConfig,
        metrics: &MetricsRegistry,
        rec: EstimatorKind,
        seq: u64,
    ) -> PrefillSlot {
        if !config.ablation.prefill {
            // Ablation: cold replacement, no pre-filling.
            return PrefillSlot::Ready(build_estimator(rec, &config.estimator_config));
        }
        let timer = WallTimer::start();
        let snapshot = window.snapshot();
        let ticket = builder.submit(rec, &config.estimator_config, snapshot);
        // The serving thread pays only for the O(#chunks) snapshot
        // handles; the object sweep happens on the worker.
        metrics.switch_stall_us.record(timer.elapsed_us());
        PrefillSlot::Building {
            kind: rec,
            ticket,
            delta: DeltaLog::new(config.prefill_delta_cap, window.generation()),
            started_seq: seq,
        }
    }

    /// The adaptor's first transition (§V-D, below `β·τ`): start
    /// pre-filling `kind` from the live window. `false` when not in the
    /// incremental phase or a prefill is already pending.
    fn start_prefill(&mut self, kind: EstimatorKind, seq: u64) -> bool {
        let Phase::Incremental { prefill, .. } = &mut self.phase else {
            return false;
        };
        if !prefill.is_idle() {
            return false;
        }
        *prefill = Self::start_prefill_slot(
            &mut self.window,
            &mut self.builder,
            &self.config,
            &self.metrics,
            kind,
            seq,
        );
        self.metrics.prefill_starts.inc();
        self.metrics
            .events
            .record(LifecycleEvent::PrefillStarted { seq, kind });
        true
    }

    /// The adaptor's second transition (accuracy recovered above `β·τ`):
    /// drop the pending prefill. A built candidate is dropped with it: a
    /// later re-entry builds afresh from the window it then finds.
    /// `false` when there is nothing to discard.
    fn discard_prefill(&mut self, seq: u64) -> bool {
        let Phase::Incremental { prefill, .. } = &mut self.phase else {
            return false;
        };
        let kind = match std::mem::replace(prefill, PrefillSlot::Idle) {
            PrefillSlot::Idle => return false,
            PrefillSlot::Ready(p) => p.kind(),
            PrefillSlot::Building { kind, ticket, .. } => {
                ticket.cancel();
                self.metrics.prefill_cancelled.inc();
                self.metrics
                    .events
                    .record(LifecycleEvent::PrefillCancelled { seq, kind });
                kind
            }
        };
        // A cancelled build still counts as a discarded prefill decision,
        // so the counter identity `starts == switches + discards + pending`
        // holds.
        self.metrics.prefill_discards.inc();
        self.metrics
            .events
            .record(LifecycleEvent::PrefillDiscarded { seq, kind });
        true
    }

    /// The adaptor's third transition (below `τ` with a prefill pending):
    /// the candidate becomes the active estimator. A build still in flight
    /// blocks only for the remaining tail — the wait plus the delta
    /// replay. `false` when there is nothing to activate.
    fn activate_prefill(&mut self, seq: u64, at: Timestamp, trigger_average: f64) -> bool {
        let Phase::Incremental {
            active,
            prefill,
            shadow,
            ..
        } = &mut self.phase
        else {
            return false;
        };
        let slot = std::mem::replace(prefill, PrefillSlot::Idle);
        let Some(replacement) =
            Self::resolve_candidate(slot, &self.window, &self.config, &mut self.metrics, seq)
        else {
            return false;
        };
        let from = active.kind();
        let to = replacement.kind();
        let old = std::mem::replace(active, replacement);
        if self.config.shadow_metrics {
            // Keep the old estimator measurable in shadow mode.
            shadow.retain(|e| e.kind() != to);
            shadow.push(old);
        }
        self.metrics.switches.inc();
        self.metrics
            .events
            .record(LifecycleEvent::EstimatorSwitched {
                seq,
                at,
                from,
                to,
                trigger_average,
            });
        self.monitor.reset();
        self.queries_since_switch = 0;
        true
    }

    /// Turns a non-idle prefill slot into an activated candidate. A
    /// `Ready` candidate is handed over as-is; a `Building` one blocks on
    /// the worker and replays the delta tail (the only remaining stall).
    /// Falls back to an inline build from the live window if the worker
    /// died — through the builder's own [`build_candidate`], so the
    /// fallback's candidate is the one the worker would have delivered for
    /// the same window.
    fn resolve_candidate(
        slot: PrefillSlot,
        window: &SlidingWindow,
        config: &LatestConfig,
        metrics: &mut MetricsRegistry,
        seq: u64,
    ) -> Option<BoxedEstimator> {
        match slot {
            PrefillSlot::Idle => None,
            PrefillSlot::Ready(p) => Some(p),
            PrefillSlot::Building {
                kind,
                ticket,
                delta,
                ..
            } => {
                // `poll_prefill` restarts an overflowed build at the window
                // change that overflowed it, so activation never meets one.
                debug_assert!(!delta.overflowed(), "overflowed build was not restarted");
                let timer = WallTimer::start();
                let est = match ticket.wait() {
                    Some(built) => Self::promote(built, &delta, kind, seq, metrics),
                    // The worker died mid-build: build inline so the switch
                    // still happens.
                    None => build_candidate(kind, &config.estimator_config, window.chunk_slices()),
                };
                metrics.switch_stall_us.record(timer.elapsed_us());
                Some(est)
            }
        }
    }

    /// Hands over a build the worker delivered: records its cost, emits
    /// `PrefillCompleted` and replays the delta tail, which leaves the
    /// candidate caught up with the live window.
    fn promote(
        built: BuiltPrefill,
        delta: &DeltaLog,
        kind: EstimatorKind,
        seq: u64,
        metrics: &mut MetricsRegistry,
    ) -> BoxedEstimator {
        metrics.prefill_build_us.record(built.build_us);
        metrics.events.record(LifecycleEvent::PrefillCompleted {
            seq,
            kind,
            build_ms: built.build_us as f64 / 1_000.0,
            snapshot_len: built.snapshot_len,
            delta_len: delta.objects(),
        });
        let mut est = built.estimator;
        delta.replay_into(&mut est);
        est
    }

    /// Drives an in-flight background prefill forward; called after every
    /// window change. Two jobs:
    ///
    /// * **Overflow restart** — the delta log dropped changes, so the
    ///   in-flight snapshot can never be caught up. Cancel the build and
    ///   resubmit from the current window. This is not a new adaptor
    ///   decision, so `prefill_starts` is *not* re-incremented (the
    ///   cancelled counter records the churn).
    /// * **Promotion** — the worker delivered: replay the delta tail and
    ///   promote the candidate to `Ready`, after which it is maintained
    ///   inline exactly like the active estimator.
    fn poll_prefill(&mut self) {
        let Phase::Incremental { prefill, .. } = &mut self.phase else {
            return;
        };
        if matches!(&*prefill, PrefillSlot::Building { delta, .. } if delta.overflowed()) {
            if let PrefillSlot::Building {
                kind,
                ticket,
                started_seq,
                ..
            } = std::mem::replace(prefill, PrefillSlot::Idle)
            {
                ticket.cancel();
                self.metrics.prefill_cancelled.inc();
                self.metrics
                    .events
                    .record(LifecycleEvent::PrefillCancelled {
                        seq: started_seq,
                        kind,
                    });
                *prefill = Self::start_prefill_slot(
                    &mut self.window,
                    &mut self.builder,
                    &self.config,
                    &self.metrics,
                    kind,
                    started_seq,
                );
            }
            return;
        }
        if let PrefillSlot::Building {
            kind,
            ticket,
            delta,
            started_seq,
        } = &mut *prefill
        {
            if let Some(built) = ticket.try_take() {
                let timer = WallTimer::start();
                let est = Self::promote(built, delta, *kind, *started_seq, &mut self.metrics);
                self.metrics.switch_stall_us.record(timer.elapsed_us());
                *prefill = PrefillSlot::Ready(est);
            }
        }
    }

    /// Counts one admitted (non-cache-hit) query into the registry.
    fn record_query_admission(&self) {
        self.metrics.queries_total.inc();
        self.metrics.queries_by_phase[phase_index(self.phase())].inc();
    }

    /// Folds one pool measurement round into the per-kind series: each
    /// sample's estimate latency, and the memory footprint of every
    /// estimator the round measured.
    fn record_round(metrics: &MetricsRegistry, pool: &EstimatorPool, samples: &[ShadowSample]) {
        for s in samples {
            let latency_us = (s.latency_ms * 1_000.0).round() as u64;
            metrics.record_estimate_latency(s.estimator, latency_us);
        }
        for est in pool.estimators() {
            metrics.estimator_memory_bytes[est.kind().index() as usize]
                .set(est.memory_bytes() as u64);
        }
    }

    /// The ground-truth path: the exact executor answers and nothing is
    /// learned (the answer is not an estimate).
    fn exact_query(&mut self, query: &RcDvq) -> QueryOutcome {
        self.record_query_admission();
        let timer = WallTimer::start();
        let actual = self.executor.execute(query);
        QueryOutcome {
            estimate: actual as f64,
            actual,
            latency_ms: timer.elapsed_ms(),
            accuracy: 1.0,
            estimator: self.active_kind(),
            phase: self.phase(),
            switched: false,
            served_by: ServedBy::Exact,
            shadow: Vec::new(),
        }
    }

    /// The estimation path for one admitted query with its ground truth
    /// already executed (and, on the batch path, a pre-computed estimate).
    fn answer_estimation(
        &mut self,
        query: &RcDvq,
        at: Timestamp,
        actual: u64,
        precomputed: Option<(f64, u64)>,
    ) -> QueryOutcome {
        self.record_query_admission();
        let seq = self.queries_seen;
        self.queries_seen += 1;
        let profile = QueryProfile::of(query, &self.config.estimator_config.domain);
        let outcome = match self.phase() {
            PhaseTag::WarmUp | PhaseTag::PreTraining => {
                self.pretraining_query(query, actual, &profile)
            }
            PhaseTag::Incremental => {
                self.incremental_query(query, at, seq, actual, &profile, precomputed)
            }
        };
        self.maybe_finish_pretraining();
        outcome
    }

    /// Fills `out[from..]` with one batched-kernel estimate per query when
    /// the active estimator's `estimate` is a pure read (incremental
    /// phase, non-FFN active — the FFN trains itself on every observed
    /// query, so its answers must be produced in sequence). Stale slots
    /// are cleared when batching does not apply. The recorded per-query
    /// latency is the kernel pass amortized over its queries.
    fn precompute_estimates(&self, queries: &[RcDvq], out: &mut [Option<(f64, u64)>], from: usize) {
        if from >= queries.len() {
            return;
        }
        let batchable = match &self.phase {
            Phase::Incremental { active, .. } => active.kind() != EstimatorKind::Ffn,
            _ => false,
        };
        if !batchable {
            for slot in out[from..].iter_mut() {
                *slot = None;
            }
            return;
        }
        let Phase::Incremental { active, .. } = &self.phase else {
            unreachable!("batchable implies incremental")
        };
        let timer = WallTimer::start();
        let estimates = active.estimate_batch(&queries[from..]);
        let per_query_us = timer.elapsed_us() / (queries.len() - from) as u64;
        for (slot, estimate) in out[from..].iter_mut().zip(estimates) {
            *slot = Some((estimate, per_query_us));
        }
    }

    /// Pre-training: run the query on the whole pool, score every
    /// estimator, label the winner, and answer with the default estimator.
    fn pretraining_query(
        &mut self,
        query: &RcDvq,
        actual: u64,
        profile: &QueryProfile,
    ) -> QueryOutcome {
        let default_kind = self.config.default_estimator;
        let (Phase::WarmUp { pool } | Phase::PreTraining { pool }) = &mut self.phase else {
            unreachable!("phase checked by caller")
        };
        // One round measures (and feeds back to) every pool estimator.
        let samples = pool.measure(query, actual);
        Self::record_round(&self.metrics, pool, &samples);
        for s in &samples {
            self.scaler.observe_latency(s.latency_ms);
        }
        // Label: the estimator with the best α-weighted reward.
        let mut best = samples[0].estimator;
        let mut best_reward = f64::NEG_INFINITY;
        for s in &samples {
            let r = self.scaler.reward(s.accuracy, s.latency_ms);
            self.recommender.observe(profile.query_type, s.estimator, r);
            if r > best_reward {
                best_reward = r;
                best = s.estimator;
            }
        }
        self.tree
            .train(&profile.instance(default_kind), best.index());

        let answer = samples
            .iter()
            .find(|s| s.estimator == default_kind)
            .copied()
            // LINT-ALLOW(no-panic): the pool is seeded from ALL_KINDS, which includes the configured default kind
            .expect("default estimator is in the pool");
        QueryOutcome {
            estimate: answer.estimate,
            actual,
            latency_ms: answer.latency_ms,
            accuracy: answer.accuracy,
            estimator: default_kind,
            phase: self.phase(),
            switched: false,
            served_by: ServedBy::Estimator(default_kind),
            shadow: if self.config.shadow_metrics {
                samples
            } else {
                Vec::new()
            },
        }
    }

    /// Ends pre-training once enough queries were harvested: wipe every
    /// pool estimator except the default, which becomes the active one
    /// (§V-C "all estimation structures are wiped out ... except the one
    /// used at the beginning of the next phase").
    fn maybe_finish_pretraining(&mut self) {
        let done = matches!(&self.phase, Phase::PreTraining { .. })
            && self.queries_seen >= self.config.pretrain_queries as u64;
        if !done {
            return;
        }
        let Phase::PreTraining { pool } = std::mem::replace(
            &mut self.phase,
            Phase::WarmUp {
                pool: EstimatorPool::empty(),
            },
        ) else {
            unreachable!()
        };
        let mut active = None;
        let mut shadow = Vec::new();
        for est in pool.into_inner() {
            if est.kind() == self.config.default_estimator {
                active = Some(est);
            } else if self.config.shadow_metrics {
                shadow.push(est);
            }
            // Otherwise dropped: wiped out to keep one live structure.
        }
        self.phase = Phase::Incremental {
            // LINT-ALLOW(no-panic): the loop above inserted every kind, including the default, into the pool
            active: active.expect("default estimator was in the pool"),
            prefill: PrefillSlot::Idle,
            shadow: EstimatorPool::new(shadow),
        };
        self.monitor.reset();
        self.queries_since_switch = 0;
        self.metrics.events.record(LifecycleEvent::PhaseEntered {
            phase: PhaseTag::Incremental,
            at: self.window.now(),
        });
    }

    /// Incremental phase: answer with the active estimator, feed the
    /// feedback loop, and run the adaptor's threshold logic.
    fn incremental_query(
        &mut self,
        query: &RcDvq,
        at: Timestamp,
        seq: u64,
        actual: u64,
        profile: &QueryProfile,
        precomputed: Option<(f64, u64)>,
    ) -> QueryOutcome {
        let tau = self.config.tau;
        let prefill_threshold = self.config.beta * tau;
        // Update the recent workload mix before destructuring the phase.
        if self.recent_types.len() >= self.config.accuracy_window {
            self.recent_types.pop_front();
        }
        self.recent_types.push_back(profile.query_type);
        let slot = &mut self.type_profiles[profile.query_type.index() as usize];
        *slot = Some(match slot {
            None => *profile,
            Some(prev) => QueryProfile {
                query_type: profile.query_type,
                keyword_count: ((prev.keyword_count as f64) * 0.9
                    + (profile.keyword_count as f64) * 0.1)
                    .round() as usize,
                area_fraction: prev.area_fraction * 0.9 + profile.area_fraction * 0.1,
            },
        });
        let mut type_weights = [0.0f64; 3];
        for t in &self.recent_types {
            type_weights[t.index() as usize] += 1.0;
        }
        let Phase::Incremental { active, shadow, .. } = &mut self.phase else {
            unreachable!("phase checked by caller")
        };
        let active_kind = active.kind();

        let (estimate, latency_us) = match precomputed {
            // The batch path pre-computed this answer with one multi-query
            // kernel pass; `estimate` on a pure-read estimator is
            // deterministic, so the value is bit-equal to what the call
            // below would produce.
            Some(pair) => pair,
            None => {
                let timer = WallTimer::start();
                let estimate = active.estimate(query);
                (estimate, timer.elapsed_us())
            }
        };
        let latency_ms = latency_us as f64 / 1_000.0;
        let accuracy = estimation_accuracy(estimate, actual);
        active.observe_query(query, actual);
        self.metrics
            .record_estimate_latency(active_kind, latency_us);
        self.metrics.estimator_memory_bytes[active_kind.index() as usize]
            .set(active.memory_bytes() as u64);

        // Shadow measurements for the figures, when enabled: one round
        // over the shadow pool.
        let mut samples = Vec::new();
        if self.config.shadow_metrics {
            samples.push(ShadowSample {
                estimator: active_kind,
                estimate,
                latency_ms,
                accuracy,
            });
            let measured = shadow.measure(query, actual);
            Self::record_round(&self.metrics, shadow, &measured);
            samples.extend(measured);
        }

        // Feedback loop: scaler, EWMA rewards, Hoeffding training record.
        self.scaler.observe_latency(latency_ms);
        let reward = self.scaler.reward(accuracy, latency_ms);
        self.recommender
            .observe(profile.query_type, active_kind, reward);
        if self.config.shadow_metrics {
            for s in samples.iter().filter(|s| s.estimator != active_kind) {
                self.scaler.observe_latency(s.latency_ms);
                let r = self.scaler.reward(s.accuracy, s.latency_ms);
                self.recommender.observe(profile.query_type, s.estimator, r);
            }
        }
        // Train with the active estimator when it is doing well; otherwise
        // teach the tree the best-known alternative for this query type.
        let label = if reward >= tau {
            active_kind
        } else {
            self.recommender
                .best_by_reward(profile.query_type, Some(active_kind))
        };
        let instance = profile.instance(active_kind);
        // §V-D retraining trigger: score the tree's own prediction before
        // training on the record; sustained error growth (DDM drift) means
        // the learned concept is stale — reset and regrow.
        let wrong = self.tree.predict(&instance) != label.index();
        if self.drift.observe(wrong) == DriftState::Drift {
            self.tree.reset();
            self.drift.reset();
            self.metrics.tree_retrainings.inc();
            self.metrics
                .events
                .record(LifecycleEvent::TreeRetrained { seq });
        }
        self.tree.train(&instance, label.index());

        self.monitor.push(accuracy);
        self.queries_since_switch += 1;
        let monitor_average = self.monitor.warmed_up().then(|| {
            self.monitor
                .average()
                // LINT-ALLOW(no-panic): warmed_up() requires at least one observation, so the window mean exists
                .expect("warmed_up implies observations")
        });

        // ---- Estimator Adaptor (§V-D) ----
        // The phase borrow above has ended: each transition is a method
        // that takes it again, shared with the `debug_*` hooks.
        let mut switched = false;
        if let Some(avg) = monitor_average.filter(|_| self.config.ablation.switching) {
            let spaced = self.queries_since_switch >= self.config.min_switch_spacing;
            if avg >= prefill_threshold {
                // Accuracy recovered: discard any pre-filling candidate.
                self.discard_prefill(seq);
            } else if spaced {
                if self.prefilling().is_none() {
                    // Entering the danger zone: consult the model about the
                    // recent workload *mix* and start pre-filling its
                    // recommendation from the live window — but only if the
                    // model actually expects the candidate to do better
                    // than what we have (switch margin).
                    let rec = if self.config.ablation.mix_recommendation {
                        self.recommender.recommend_with(
                            &self.tree,
                            &self.type_profiles,
                            &type_weights,
                            active_kind,
                            self.config.ablation.use_tree,
                        )
                    } else {
                        // Ablation: the single next query's profile decides.
                        self.recommender.recommend(&self.tree, profile, active_kind)
                    };
                    let advantage = self.recommender.expected_reward(&type_weights, rec)
                        - self.recommender.expected_reward(&type_weights, active_kind);
                    if advantage > self.config.switch_margin {
                        self.start_prefill(rec, seq);
                    }
                }
                // Below τ with a prefill pending: activate it. (No prefill
                // means the model sees no better option — stay on the
                // current estimator rather than churn.)
                if avg < tau {
                    switched = self.activate_prefill(seq, at, avg);
                }
            }
        }

        QueryOutcome {
            estimate,
            actual,
            latency_ms,
            accuracy,
            estimator: active_kind,
            phase: PhaseTag::Incremental,
            switched,
            served_by: ServedBy::Estimator(active_kind),
            shadow: samples,
        }
    }
}

/// Snapshot/restore: the crash-consistent persistence path.
///
/// A snapshot is the window plus what was learned: the window, every live
/// estimator (with its sampler RNG state), the learning model, the
/// adaptor's monitor/recommender/scaler state, and the selectivity cache.
/// A restored instance therefore produces exact counts equal to the
/// uninterrupted run's, and bit-identical estimates as long as the
/// window's live object ids are distinct (the sampling estimators key on
/// the id, and a sample holding one twice is refused on restore). Its
/// size is a function of the window, the estimators and the model — not
/// of how many queries were answered before it was taken.
///
/// Deliberately *not* persisted:
///
/// * the exact executor — the paper's "system logs" source, a function of
///   the window alone. Restore rebuilds it from the restored window on the
///   configured backend, so its ring numbering restarts at zero and the
///   quadtree comes back in fresh node shape; neither reaches an answer
///   (the hybrid planner may pick the other access path, which changes
///   latency only);
/// * the [`MetricsRegistry`] — observability counters, the executor's
///   path-mix counters among them, restart at zero (a restart is an
///   observable event; hiding it would be lying);
/// * the prefill builder worker — recreated lazily on first use;
/// * the eviction scratch buffer.
///
/// An in-flight background prefill build cannot be persisted (it lives on
/// another thread), so the snapshot path first *settles* it: the build is
/// resolved exactly as activation would — wait for the worker, replay the
/// delta tail — leaving a `Ready` candidate that is bit-equal to one
/// maintained inline. That is why snapshotting takes `&mut self`.
impl Latest {
    /// Settles an in-flight prefill build into a `Ready` candidate so the
    /// phase is serializable (see the impl-level docs).
    fn settle_prefill_for_snapshot(&mut self) {
        let seq = self.queries_seen;
        let Phase::Incremental { prefill, .. } = &mut self.phase else {
            return;
        };
        if matches!(prefill, PrefillSlot::Building { .. }) {
            let slot = std::mem::replace(prefill, PrefillSlot::Idle);
            if let Some(est) =
                Self::resolve_candidate(slot, &self.window, &self.config, &mut self.metrics, seq)
            {
                *prefill = PrefillSlot::Ready(est);
            }
        }
    }

    /// Fingerprint of the configuration, stored in the snapshot and
    /// re-checked on restore: a snapshot only restores under a configuration
    /// that agrees with the one that produced it on every setting that
    /// shapes the persisted state or the answers given after the restore.
    ///
    /// It is the FNV-1a checksum of an explicit [`PersistWriter`] encoding,
    /// in this fixed order (the order is part of the snapshot format; a
    /// change is a `FORMAT_VERSION` bump):
    ///
    /// 1. `window_span`, `warmup`, `pretrain_queries`;
    /// 2. `tau`, `beta`, `alpha`;
    /// 3. `accuracy_window`, `min_switch_spacing`, `switch_margin`,
    ///    `default_estimator`;
    /// 4. `estimator_config`: `domain`, `memory_budget`,
    ///    `reservoir_capacity`, `grid_cells`, `aasp_split_value`,
    ///    `ffn_train_budget`, `seed`;
    /// 5. `tree_config`: `grace_period`, `split_confidence`,
    ///    `tie_threshold`, `num_split_points`, `max_depth`;
    /// 6. `shadow_metrics`, `selectivity_cache_capacity`;
    /// 7. `shard.shards`, `shard.router`;
    /// 8. `ablation`: `prefill`, `use_tree`, `mix_recommendation`,
    ///    `switching`.
    ///
    /// Left out on purpose, because they bound latency and memory and
    /// cannot change an answer: `shard.queue_capacity` (backpressure),
    /// `prefill_delta_cap` (when a background build restarts; the activated
    /// candidate is bit-equal either way) and `index_kind` (the exact
    /// executor is rebuilt from the restored window on the configured
    /// backend, and both backends return the same counts). An operator may
    /// retune all three across a restart.
    ///
    /// Every struct is destructured without `..`, so a new field fails to
    /// compile here until someone decides which of the two lists it joins.
    ///
    /// [`PersistWriter`]: geostream::PersistWriter
    fn config_fingerprint(config: &LatestConfig) -> u64 {
        let LatestConfig {
            window_span,
            warmup,
            pretrain_queries,
            tau,
            beta,
            alpha,
            accuracy_window,
            min_switch_spacing,
            switch_margin,
            default_estimator,
            estimator_config,
            tree_config,
            index_kind: _,
            shadow_metrics,
            selectivity_cache_capacity,
            shard,
            prefill_delta_cap: _,
            ablation,
        } = config;
        let EstimatorConfig {
            domain,
            memory_budget,
            reservoir_capacity,
            grid_cells,
            aasp_split_value,
            ffn_train_budget,
            seed,
        } = estimator_config;
        let HoeffdingTreeConfig {
            grace_period,
            split_confidence,
            tie_threshold,
            num_split_points,
            max_depth,
        } = tree_config;
        let ShardConfig {
            shards,
            queue_capacity: _,
            router,
        } = shard;
        let AblationConfig {
            prefill,
            use_tree,
            mix_recommendation,
            switching,
        } = ablation;

        let mut w = geostream::PersistWriter::new();
        window_span.persist(&mut w);
        warmup.persist(&mut w);
        w.put_usize(*pretrain_queries);
        w.put_f64(*tau);
        w.put_f64(*beta);
        w.put_f64(*alpha);
        w.put_usize(*accuracy_window);
        w.put_usize(*min_switch_spacing);
        w.put_f64(*switch_margin);
        crate::persist::persist_kind(&mut w, *default_estimator);
        domain.persist(&mut w);
        w.put_f64(*memory_budget);
        w.put_usize(*reservoir_capacity);
        w.put_usize(*grid_cells);
        w.put_f64(*aasp_split_value);
        w.put_u64(*ffn_train_budget);
        w.put_u64(*seed);
        w.put_u64(*grace_period);
        w.put_f64(*split_confidence);
        w.put_f64(*tie_threshold);
        w.put_usize(*num_split_points);
        w.put_usize(*max_depth);
        w.put_bool(*shadow_metrics);
        w.put_usize(*selectivity_cache_capacity);
        w.put_usize(*shards);
        w.put_u8(match router {
            RouterPolicy::HashOid => 0,
            RouterPolicy::SpatialTile => 1,
        });
        w.put_bool(*prefill);
        w.put_bool(*use_tree);
        w.put_bool(*mix_recommendation);
        w.put_bool(*switching);
        geostream::persist::checksum(&w.into_bytes())
    }

    /// Serializes the full system state (after settling any in-flight
    /// prefill) into a snapshot payload. Pair with [`Latest::restore`].
    pub fn snapshot_bytes(&mut self) -> Vec<u8> {
        self.settle_prefill_for_snapshot();
        let mut w = geostream::PersistWriter::new();
        w.put_u64(Self::config_fingerprint(&self.config));
        self.window.persist(&mut w);
        self.tree.persist(&mut w);
        self.recommender.persist(&mut w);
        self.scaler.persist(&mut w);
        self.monitor.persist(&mut w);
        self.cache.persist(&mut w);
        self.drift.persist(&mut w);
        w.put_u64(self.queries_seen);
        w.put_usize(self.queries_since_switch);
        w.put_usize(self.recent_types.len());
        for &t in &self.recent_types {
            crate::persist::persist_query_type(&mut w, t);
        }
        for profile in &self.type_profiles {
            profile.persist(&mut w);
        }
        match &self.phase {
            Phase::WarmUp { pool } => {
                w.put_u8(0);
                Self::persist_pool(&mut w, pool);
            }
            Phase::PreTraining { pool } => {
                w.put_u8(1);
                Self::persist_pool(&mut w, pool);
            }
            Phase::Incremental {
                active,
                prefill,
                shadow,
            } => {
                w.put_u8(2);
                estimators::persist_boxed(active.as_ref(), &mut w);
                match prefill {
                    // An in-flight build was settled above; only Idle and
                    // Ready remain representable.
                    PrefillSlot::Idle | PrefillSlot::Building { .. } => w.put_u8(0),
                    PrefillSlot::Ready(p) => {
                        w.put_u8(1);
                        estimators::persist_boxed(p.as_ref(), &mut w);
                    }
                }
                Self::persist_pool(&mut w, shadow);
            }
        }
        w.into_bytes()
    }

    fn persist_pool(w: &mut geostream::PersistWriter, pool: &EstimatorPool) {
        let ests = pool.estimators();
        w.put_usize(ests.len());
        for est in ests {
            estimators::persist_boxed(est.as_ref(), w);
        }
    }

    fn restore_pool(
        r: &mut geostream::PersistReader<'_>,
    ) -> Result<EstimatorPool, geostream::PersistError> {
        let len = r.take_usize("Latest.pool.len")?;
        if len > EstimatorKind::ALL.len() {
            return Err(geostream::PersistError::Corrupt {
                context: "Latest.pool",
                detail: format!(
                    "{len} estimators exceed the {} kinds",
                    EstimatorKind::ALL.len()
                ),
            });
        }
        let mut ests = Vec::with_capacity(len);
        for _ in 0..len {
            ests.push(estimators::restore_boxed(r)?);
        }
        Ok(EstimatorPool::new(ests))
    }

    /// Rebuilds an instance from [`Latest::snapshot_bytes`] output. The
    /// caller supplies the configuration (it contains closures-adjacent
    /// runtime sizing and is cheap to keep alongside the snapshot); a
    /// fingerprint check refuses payloads produced under one that differs
    /// in a state- or answer-shaping setting. The three latency-only
    /// settings, `shard.queue_capacity`, `prefill_delta_cap` and
    /// `index_kind`, may differ.
    ///
    /// Restore is all-or-nothing: any decode failure returns the typed
    /// error and no instance.
    pub fn restore(config: LatestConfig, bytes: &[u8]) -> Result<Self, geostream::PersistError> {
        if let Err(e) = config.validate() {
            return Err(geostream::PersistError::Corrupt {
                context: "LatestConfig",
                detail: e.to_string(),
            });
        }
        let mut r = geostream::PersistReader::new(bytes);
        let fingerprint = r.take_u64("Latest.config_fingerprint")?;
        if fingerprint != Self::config_fingerprint(&config) {
            return Err(geostream::PersistError::Corrupt {
                context: "Latest.config_fingerprint",
                detail: "snapshot was taken under a different configuration".to_string(),
            });
        }
        let window = SlidingWindow::restore(&mut r)?;
        // The executor is a function of the window: rebuild it through the
        // calls `ingest_batch` makes.
        let mut executor = ExactExecutor::new(config.estimator_config.domain, config.index_kind);
        for chunk in window.chunk_slices() {
            executor.insert_batch(chunk);
        }
        let tree = HoeffdingTree::restore(&mut r)?;
        let recommender = Recommender::restore(&mut r)?;
        let scaler = RewardScaler::restore(&mut r)?;
        let monitor = AccuracyMonitor::restore(&mut r)?;
        let cache = SelectivityCache::restore(&mut r)?;
        let drift = DdmDetector::restore(&mut r)?;
        let queries_seen = r.take_u64("Latest.queries_seen")?;
        let queries_since_switch = r.take_usize("Latest.queries_since_switch")?;
        let recent_len = r.take_usize("Latest.recent_types.len")?;
        if recent_len > config.accuracy_window {
            return Err(geostream::PersistError::Corrupt {
                context: "Latest.recent_types",
                detail: format!(
                    "{recent_len} recent types exceed the accuracy window {}",
                    config.accuracy_window
                ),
            });
        }
        let mut recent_types = std::collections::VecDeque::with_capacity(recent_len);
        for _ in 0..recent_len {
            recent_types.push_back(crate::persist::restore_query_type(&mut r)?);
        }
        let mut type_profiles = [None, None, None];
        for slot in &mut type_profiles {
            *slot = Option::<QueryProfile>::restore(&mut r)?;
        }
        let phase = match r.take_u8("Latest.phase")? {
            0 => Phase::WarmUp {
                pool: Self::restore_pool(&mut r)?,
            },
            1 => Phase::PreTraining {
                pool: Self::restore_pool(&mut r)?,
            },
            2 => {
                let active = estimators::restore_boxed(&mut r)?;
                let prefill = match r.take_u8("Latest.prefill")? {
                    0 => PrefillSlot::Idle,
                    1 => PrefillSlot::Ready(estimators::restore_boxed(&mut r)?),
                    d => {
                        return Err(geostream::PersistError::Corrupt {
                            context: "Latest.prefill",
                            detail: format!("unknown prefill tag {d}"),
                        })
                    }
                };
                Phase::Incremental {
                    active,
                    prefill,
                    shadow: Self::restore_pool(&mut r)?,
                }
            }
            d => {
                return Err(geostream::PersistError::Corrupt {
                    context: "Latest.phase",
                    detail: format!("unknown phase discriminant {d}"),
                })
            }
        };
        let mut restored = Latest {
            window,
            executor,
            phase,
            tree,
            recommender,
            scaler,
            monitor,
            queries_seen,
            queries_since_switch,
            drift,
            recent_types,
            type_profiles,
            evict_buf: Vec::new(),
            cache,
            // Metrics restart at zero: the registry is process-local
            // observability, not answer-shaping state.
            metrics: MetricsRegistry::new(),
            builder: PrefillBuilder::new(),
            config,
        };
        // The registry restarts zeroed (metrics are per-process), but the
        // restored window arrives populated: count its occupants as
        // ingested so the flow identity `occupancy == ingested − evicted`
        // holds from the first post-restore scrape (the sharded audit
        // checks it across shards).
        restored
            .metrics
            .objects_ingested
            .add(restored.window.len() as u64);
        restored
            .metrics
            .events
            .record(LifecycleEvent::PhaseEntered {
                phase: restored.phase(),
                at: restored.window.now(),
            });
        Ok(restored)
    }

    /// Writes a crash-consistent snapshot file: the state is sealed
    /// (magic, version, length, checksum), written to a temporary sibling,
    /// fsynced, and atomically renamed over `path`. A crash mid-write
    /// leaves the previous snapshot (or none), never a torn file.
    pub fn save_snapshot(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), geostream::PersistError> {
        let payload = self.snapshot_bytes();
        crate::persist::write_snapshot_file(
            path.as_ref(),
            &crate::persist::SNAPSHOT_MAGIC,
            &payload,
        )
    }

    /// Restores an instance from a [`Latest::save_snapshot`] file. Torn,
    /// truncated, or bit-rotted files surface as typed
    /// [`PersistError`](geostream::PersistError)s — never a panic or a
    /// half-restored system.
    pub fn load_snapshot(
        config: LatestConfig,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, geostream::PersistError> {
        let payload =
            crate::persist::read_snapshot_file(path.as_ref(), &crate::persist::SNAPSHOT_MAGIC)?;
        Self::restore(config, &payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::synth::DatasetSpec;
    use geostream::{KeywordId, Rect, StreamRng};

    fn small_config() -> LatestConfig {
        let spec = DatasetSpec::twitter();
        LatestConfig {
            window_span: Duration::from_secs(60),
            warmup: Duration::from_secs(60),
            pretrain_queries: 40,
            accuracy_window: 16,
            min_switch_spacing: 16,
            estimator_config: EstimatorConfig {
                domain: spec.domain,
                reservoir_capacity: 2_000,
                ..EstimatorConfig::default()
            },
            ..LatestConfig::default()
        }
    }

    /// Drives warm-up with synthetic data, returns the generator for more.
    fn warm_up(latest: &mut Latest) -> geostream::synth::ObjectGenerator {
        let mut gen = DatasetSpec::twitter().generator();
        while latest.phase() == PhaseTag::WarmUp {
            latest.ingest(gen.next_object());
        }
        gen
    }

    fn random_query(rng: &mut StreamRng, domain: &Rect) -> RcDvq {
        let cx = rng.gen_range_f64(domain.min_x..domain.max_x);
        let cy = rng.gen_range_f64(domain.min_y..domain.max_y);
        let half = rng.gen_range_f64(0.5..4.0);
        match rng.gen_range_u32(0..3) {
            0 => RcDvq::spatial(Rect::centered_clamped(
                geostream::Point::new(cx, cy),
                half,
                half,
                domain,
            )),
            1 => RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..100))]),
            _ => RcDvq::hybrid(
                Rect::centered_clamped(geostream::Point::new(cx, cy), half, half, domain),
                vec![KeywordId(rng.gen_range_u32(0..100))],
            ),
        }
    }

    #[test]
    fn phases_progress() {
        let config = small_config();
        let domain = config.estimator_config.domain;
        let mut latest = Latest::new(config);
        assert_eq!(latest.phase(), PhaseTag::WarmUp);
        let mut gen = warm_up(&mut latest);
        assert_eq!(latest.phase(), PhaseTag::PreTraining);
        let mut rng = StreamRng::seed_from_u64(1);
        for _ in 0..40 {
            for _ in 0..5 {
                latest.ingest(gen.next_object());
            }
            let q = random_query(&mut rng, &domain);
            let out = latest.query(&q, QueryOptions::at(gen.clock()));
            assert!(out.estimate >= 0.0);
        }
        assert_eq!(latest.phase(), PhaseTag::Incremental);
        assert_eq!(latest.active_kind(), EstimatorKind::Rsh);
    }

    #[test]
    fn pretraining_answers_with_default_and_trains_tree() {
        let config = small_config();
        let domain = config.estimator_config.domain;
        let mut latest = Latest::new(config);
        let mut gen = warm_up(&mut latest);
        let mut rng = StreamRng::seed_from_u64(2);
        for _ in 0..10 {
            latest.ingest(gen.next_object());
            let q = random_query(&mut rng, &domain);
            let out = latest.query(&q, QueryOptions::at(gen.clock()));
            assert_eq!(out.estimator, EstimatorKind::Rsh);
            assert_eq!(out.phase, PhaseTag::PreTraining);
            // The pool measured all six, but shadow metrics are off: the
            // samples stay inside the engine.
            assert!(out.shadow.is_empty());
        }
        assert!(latest.tree_stats().instances_seen >= 10);
    }

    #[test]
    fn incremental_queries_answer_reasonably() {
        let config = small_config();
        let domain = config.estimator_config.domain;
        let mut latest = Latest::new(config);
        let mut gen = warm_up(&mut latest);
        let mut rng = StreamRng::seed_from_u64(3);
        let mut incremental = Vec::new();
        for _ in 0..60 {
            for _ in 0..3 {
                latest.ingest(gen.next_object());
            }
            let q = random_query(&mut rng, &domain);
            let out = latest.query(&q, QueryOptions::at(gen.clock()));
            if out.phase == PhaseTag::Incremental {
                incremental.push(out.accuracy);
            }
        }
        assert!(!incremental.is_empty());
        let acc = incremental.iter().sum::<f64>() / incremental.len() as f64;
        assert!(acc > 0.3, "incremental accuracy too low: {acc}");
        // Every query ran once through the exact executor's planner.
        let executor = latest.metrics_snapshot().executor;
        assert_eq!(executor.spatial + executor.inverted, 60);
    }

    #[test]
    fn switches_away_from_bad_estimator() {
        // Force H4096 active, then hammer with keyword queries it cannot
        // answer — the adaptor must switch away.
        let mut config = small_config();
        config.default_estimator = EstimatorKind::H4096;
        config.pretrain_queries = 20;
        config.min_switch_spacing = 8;
        config.accuracy_window = 8;
        let mut latest = Latest::new(config);
        let mut gen = warm_up(&mut latest);
        let mut rng = StreamRng::seed_from_u64(4);
        // Pre-train with keyword queries so rewards already favor samplers.
        for _ in 0..20 {
            latest.ingest(gen.next_object());
            let q = RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..50))]);
            let _ = latest.query(&q, QueryOptions::at(gen.clock()));
        }
        assert_eq!(latest.phase(), PhaseTag::Incremental);
        assert_eq!(latest.active_kind(), EstimatorKind::H4096);
        for _ in 0..80 {
            for _ in 0..2 {
                latest.ingest(gen.next_object());
            }
            let q = RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..50))]);
            let _ = latest.query(&q, QueryOptions::at(gen.clock()));
            if latest.active_kind() != EstimatorKind::H4096 {
                break;
            }
        }
        assert_ne!(
            latest.active_kind(),
            EstimatorKind::H4096,
            "never switched away from a keyword-blind estimator"
        );
        let snap = latest.metrics_snapshot();
        let Some(LifecycleEvent::EstimatorSwitched {
            from,
            trigger_average,
            ..
        }) = snap.switch_events().first().copied()
        else {
            panic!("no switch event recorded");
        };
        assert_eq!(*from, EstimatorKind::H4096);
        assert!(*trigger_average < latest.config().tau);
    }

    #[test]
    fn good_estimator_is_kept() {
        // RSH on well-behaved mixed queries should not thrash.
        let config = small_config();
        let domain = config.estimator_config.domain;
        let mut latest = Latest::new(config);
        let mut gen = warm_up(&mut latest);
        let mut rng = StreamRng::seed_from_u64(5);
        for _ in 0..150 {
            for _ in 0..3 {
                latest.ingest(gen.next_object());
            }
            // Large ranges → high actual counts → sampler accuracy high.
            let q = RcDvq::spatial(Rect::centered_clamped(
                geostream::Point::new(
                    rng.gen_range_f64(domain.min_x..domain.max_x),
                    rng.gen_range_f64(domain.min_y..domain.max_y),
                ),
                20.0,
                10.0,
                &domain,
            ));
            let _ = latest.query(&q, QueryOptions::at(gen.clock()));
        }
        let switches = latest.metrics_snapshot().adaptor.switches;
        assert!(switches <= 1, "stable workload caused {switches} switches");
    }

    #[test]
    fn shadow_metrics_record_every_estimator() {
        let mut config = small_config();
        config.shadow_metrics = true;
        config.pretrain_queries = 10;
        let domain = config.estimator_config.domain;
        let mut latest = Latest::new(config);
        let mut gen = warm_up(&mut latest);
        let mut rng = StreamRng::seed_from_u64(6);
        let mut last_phase = PhaseTag::WarmUp;
        for _ in 0..20 {
            latest.ingest(gen.next_object());
            let q = random_query(&mut rng, &domain);
            let out = latest.query(&q, QueryOptions::at(gen.clock()));
            assert_eq!(out.shadow.len(), 6, "shadow mode must measure all six");
            last_phase = out.phase;
        }
        assert_eq!(last_phase, PhaseTag::Incremental);
    }

    /// The per-kind series count every estimate the engine timed: all six
    /// kinds once per pre-training query, then the active kind alone.
    #[test]
    fn per_kind_latency_counts_every_measured_estimate() {
        let config = small_config();
        let pretrain = config.pretrain_queries as u64;
        let domain = config.estimator_config.domain;
        let mut latest = Latest::new(config);
        let mut gen = warm_up(&mut latest);
        let mut rng = StreamRng::seed_from_u64(8);
        let uncached = QueryOptions::new().use_cache(false);
        let mut ask = |latest: &mut Latest, n: u64| {
            for _ in 0..n {
                latest.ingest(gen.next_object());
                let _ = latest.query(&random_query(&mut rng, &domain), uncached);
            }
        };
        let counts = |latest: &Latest| {
            let snap = latest.metrics_snapshot();
            assert_eq!(snap.estimators.len(), EstimatorKind::COUNT);
            snap.estimators
                .iter()
                .map(|e| (e.kind, e.latency_us.count, e.memory_bytes))
                .collect::<Vec<_>>()
        };
        ask(&mut latest, pretrain);
        assert_eq!(latest.phase(), PhaseTag::Incremental);
        for (kind, count, memory) in counts(&latest) {
            assert_eq!(count, pretrain, "{kind}");
            assert!(memory > 0, "{kind} has no memory reading");
        }
        const K: u64 = 7;
        ask(&mut latest, K);
        let active = latest.active_kind();
        for (kind, count, _) in counts(&latest) {
            let expected = if kind == active {
                pretrain + K
            } else {
                pretrain
            };
            assert_eq!(count, expected, "{kind}");
        }
    }

    #[test]
    fn window_eviction_reaches_estimators() {
        let mut config = small_config();
        config.window_span = Duration::from_secs(5);
        config.warmup = Duration::from_secs(5);
        let mut latest = Latest::new(config);
        let mut gen = DatasetSpec::twitter().generator();
        for _ in 0..3_000 {
            latest.ingest(gen.next_object());
        }
        // Window span is 5s and objects arrive ~4ms apart ⇒ far fewer live
        // than ingested.
        assert!(latest.window_len() < 3_000);
        assert_eq!(latest.executor.len(), latest.window_len());
    }

    /// A batch that repeats a live id puts a second copy in the window. The
    /// executor counts both until each leaves, so every `actual` equals a
    /// brute-force count over the window — and so does a restored copy's.
    ///
    /// The sampling estimators key their samples on the id, and a snapshot
    /// whose sample holds one id twice does not restore. So the repeat
    /// arrives once the engine maintains H4096 alone: pre-training (the
    /// whole pool) is over, and switching is off.
    #[test]
    fn repeated_live_oid_keeps_actual_equal_to_the_window() {
        let mut config = small_config();
        config.window_span = Duration::from_secs(5);
        config.warmup = Duration::from_secs(5);
        config.pretrain_queries = 10;
        config.default_estimator = EstimatorKind::H4096;
        config.ablation.switching = false;
        let domain = config.estimator_config.domain;
        let mut latest = Latest::new(config.clone());
        let mut gen = warm_up(&mut latest);
        let mut rng = StreamRng::seed_from_u64(31);
        while latest.phase() != PhaseTag::Incremental {
            latest.ingest(gen.next_object());
            let q = random_query(&mut rng, &domain);
            let _ = latest.query(&q, QueryOptions::at(gen.clock()));
        }
        for _ in 0..200 {
            latest.ingest(gen.next_object());
        }
        let original = latest
            .window_objects()
            .skip(latest.window_len() / 2)
            .find(|o| !o.keywords.is_empty())
            .expect("a live object with keywords")
            .clone();
        let mut batch: Vec<GeoTextObject> = (0..8).map(|_| gen.next_object()).collect();
        batch[3].oid = original.oid;
        let repeat = batch[3].clone();
        latest.ingest_batch(&batch);
        let probes = [
            RcDvq::spatial(Rect::WORLD),
            RcDvq::keyword(original.keywords.to_vec()),
            RcDvq::hybrid(
                Rect::centered_clamped(original.loc, 2.0, 2.0, &domain),
                original.keywords.to_vec(),
            ),
            RcDvq::spatial(Rect::centered_clamped(repeat.loc, 2.0, 2.0, &domain)),
        ];
        let copies = |latest: &Latest| {
            latest
                .window_objects()
                .filter(|o| o.oid == original.oid)
                .count()
        };
        let check = |latest: &mut Latest, at: &str| {
            assert_eq!(latest.executor.len(), latest.window_len(), "{at}");
            #[cfg(feature = "debug-invariants")]
            latest.audit().unwrap_or_else(|e| panic!("{at}: {e}"));
            for q in &probes {
                let brute = latest.window_objects().filter(|o| q.matches(o)).count() as u64;
                let out = latest.query(q, QueryOptions::new().use_cache(false));
                assert_eq!(out.actual, brute, "{at}: {q:?}");
            }
        };
        assert_eq!(copies(&latest), 2);
        let mut round_tripped = [false; 3];
        for step in 0.. {
            let n = copies(&latest);
            check(&mut latest, &format!("step {step}, {n} copies live"));
            if !round_tripped[n] {
                round_tripped[n] = true;
                let bytes = latest.snapshot_bytes();
                let mut restored = Latest::restore(config.clone(), &bytes).expect("restores");
                check(
                    &mut restored,
                    &format!("restored at step {step}, {n} copies"),
                );
            }
            if n == 0 {
                break;
            }
            assert!(step < 1_000, "the copies never left the window");
            let batch: Vec<GeoTextObject> = (0..50).map(|_| gen.next_object()).collect();
            latest.ingest_batch(&batch);
        }
        assert_eq!(round_tripped, [true; 3]);
    }

    #[test]
    fn refused_batch_leaves_the_engine_untouched() {
        let mut latest = Latest::new(small_config());
        let mut gen = warm_up(&mut latest);
        let q = RcDvq::spatial(Rect::WORLD);
        let exact = QueryOptions::new().exact(true);
        let uncached = QueryOptions::new().use_cache(false);
        let len = latest.window_len();
        let count = latest.query(&q, exact).actual;
        let estimate = latest.query(&q, uncached).estimate;
        // Two good arrivals, then one from before the window's newest.
        let mut batch: Vec<GeoTextObject> = (0..3).map(|_| gen.next_object()).collect();
        batch[2].timestamp = Timestamp::ZERO;
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            latest.ingest_batch(&batch);
        }));
        let message = *refused
            .expect_err("a late object must refuse the batch")
            .downcast::<String>()
            .expect("assert! panics with a String");
        assert!(message.contains("out-of-order arrival"), "{message}");
        // Nothing of the batch went in: window, executor and estimators
        // still agree with each other and with the moment before the call.
        assert_eq!(latest.window_len(), len);
        assert_eq!(latest.query(&q, exact).actual, count);
        assert_eq!(
            latest.query(&q, uncached).estimate.to_bits(),
            estimate.to_bits()
        );
        // And the engine still takes the batch once it is in order.
        latest.ingest_batch(&batch[..2]);
        assert_eq!(latest.query(&q, exact).actual as usize, latest.window_len());
    }

    #[test]
    fn switching_ablation_pins_default_estimator() {
        let mut config = small_config();
        config.default_estimator = EstimatorKind::H4096;
        config.ablation.switching = false;
        let mut latest = Latest::new(config);
        let mut gen = warm_up(&mut latest);
        let mut rng = StreamRng::seed_from_u64(21);
        // Keyword flood: full LATEST would abandon the histogram; the
        // no-switching ablation must stay put.
        for _ in 0..120 {
            latest.ingest(gen.next_object());
            let q = RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..50))]);
            let _ = latest.query(&q, QueryOptions::at(gen.clock()));
        }
        assert_eq!(latest.active_kind(), EstimatorKind::H4096);
        assert_eq!(latest.metrics_snapshot().adaptor.switches, 0);
    }

    #[test]
    fn cold_switch_ablation_still_switches() {
        let mut config = small_config();
        config.default_estimator = EstimatorKind::H4096;
        config.pretrain_queries = 20;
        config.min_switch_spacing = 8;
        config.accuracy_window = 8;
        config.ablation.prefill = false;
        let mut latest = Latest::new(config);
        let mut gen = warm_up(&mut latest);
        let mut rng = StreamRng::seed_from_u64(22);
        for _ in 0..120 {
            for _ in 0..2 {
                latest.ingest(gen.next_object());
            }
            let q = RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..50))]);
            let _ = latest.query(&q, QueryOptions::at(gen.clock()));
            if latest.active_kind() != EstimatorKind::H4096 {
                break;
            }
        }
        // Switching still happens; the replacement just starts cold.
        assert_ne!(latest.active_kind(), EstimatorKind::H4096);
    }

    #[test]
    fn ewma_only_ablation_still_recommends() {
        let mut config = small_config();
        config.default_estimator = EstimatorKind::H4096;
        config.pretrain_queries = 20;
        config.min_switch_spacing = 8;
        config.accuracy_window = 8;
        config.ablation.use_tree = false;
        let mut latest = Latest::new(config);
        let mut gen = warm_up(&mut latest);
        let mut rng = StreamRng::seed_from_u64(23);
        for _ in 0..120 {
            for _ in 0..2 {
                latest.ingest(gen.next_object());
            }
            let q = RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..50))]);
            let _ = latest.query(&q, QueryOptions::at(gen.clock()));
            if latest.active_kind() != EstimatorKind::H4096 {
                break;
            }
        }
        assert_ne!(latest.active_kind(), EstimatorKind::H4096);
    }

    #[test]
    #[should_panic(expected = "tau must be in")]
    fn rejects_bad_tau() {
        let mut config = small_config();
        config.tau = 1.5;
        let _ = Latest::new(config);
    }

    #[test]
    fn repeat_query_hits_cache_until_window_changes() {
        let config = small_config();
        let mut latest = Latest::new(config);
        let mut gen = warm_up(&mut latest);
        let q = RcDvq::keyword(vec![KeywordId(3)]);
        let first = latest.query(&q, QueryOptions::at(gen.clock()));
        assert!(matches!(first.served_by, ServedBy::Estimator(_)));
        // Same query, unchanged window: a pure cache read that repeats the
        // answer bit-for-bit and skips the executor and the learning loop.
        let answered = latest.metrics_snapshot().queries_total;
        let hit = latest.query(&q, QueryOptions::at(gen.clock()));
        assert_eq!(hit.served_by, ServedBy::Cache);
        assert_eq!(hit.estimate.to_bits(), first.estimate.to_bits());
        assert_eq!(hit.actual, first.actual);
        assert_eq!(hit.accuracy.to_bits(), first.accuracy.to_bits());
        assert_eq!(hit.latency_ms, 0.0);
        assert!(!hit.switched);
        let m = latest.metrics_snapshot();
        assert_eq!(m.queries_total, answered);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        // Any content change invalidates: the next repeat misses again.
        latest.ingest(gen.next_object());
        let after = latest.query(&q, QueryOptions::at(gen.clock()));
        assert_ne!(after.served_by, ServedBy::Cache);
        assert_eq!(latest.metrics_snapshot().cache_misses, 2);
        assert!(latest.cache().invalidations() >= 1);
    }

    #[test]
    fn opting_out_of_the_cache_repeats_the_full_path() {
        let config = small_config();
        let mut latest = Latest::new(config);
        let gen = warm_up(&mut latest);
        let q = RcDvq::keyword(vec![KeywordId(3)]);
        let opts = QueryOptions::at(gen.clock()).use_cache(false);
        let learned = latest.tree_stats().instances_seen;
        let _ = latest.query(&q, opts);
        let second = latest.query(&q, opts);
        assert_ne!(second.served_by, ServedBy::Cache);
        assert_eq!(latest.tree_stats().instances_seen, learned + 2);
        assert_eq!(latest.metrics_snapshot().cache_hits, 0);
    }

    #[test]
    fn exact_queries_bypass_estimation_and_learning() {
        let config = small_config();
        let mut latest = Latest::new(config);
        let gen = warm_up(&mut latest);
        let q = RcDvq::keyword(vec![KeywordId(7)]);
        let learned = latest.tree_stats().instances_seen;
        let out = latest.query(&q, QueryOptions::at(gen.clock()).exact(true));
        assert_eq!(out.served_by, ServedBy::Exact);
        assert_eq!(out.estimate, out.actual as f64);
        assert_eq!(out.accuracy, 1.0);
        // Ground truth is not an estimate: nothing is learned, and nothing
        // lands in the cache.
        assert_eq!(latest.tree_stats().instances_seen, learned);
        assert!(latest.cache().is_empty());
        let estimated = latest.query(&q, QueryOptions::at(gen.clock()));
        assert!(matches!(estimated.served_by, ServedBy::Estimator(_)));
    }

    #[test]
    fn query_batch_matches_sequential_queries() {
        let config = small_config();
        let domain = config.estimator_config.domain;
        let mut batched = Latest::new(config);
        let mut single = Latest::new(small_config());
        let gen_b = warm_up(&mut batched);
        let _gen_s = warm_up(&mut single);
        let mut rng = StreamRng::seed_from_u64(11);
        let mut queries: Vec<RcDvq> = (0..24).map(|_| random_query(&mut rng, &domain)).collect();
        // Duplicates inside the batch must collapse onto cache hits.
        queries.push(queries[0].clone());
        queries.push(queries[3].clone());
        let at = gen_b.clock();
        let batch_outs = batched.query_batch(&queries, QueryOptions::at(at));
        let single_outs: Vec<QueryOutcome> = queries
            .iter()
            .map(|q| single.query(q, QueryOptions::at(at)))
            .collect();
        assert_eq!(batch_outs.len(), single_outs.len());
        for (b, s) in batch_outs.iter().zip(&single_outs) {
            assert_eq!(b.estimate.to_bits(), s.estimate.to_bits());
            assert_eq!(b.actual, s.actual);
            assert_eq!(b.accuracy.to_bits(), s.accuracy.to_bits());
            assert_eq!(b.estimator, s.estimator);
            assert_eq!(b.phase, s.phase);
            assert_eq!(b.served_by, s.served_by);
        }
        assert_eq!(batch_outs[24].served_by, ServedBy::Cache);
        assert_eq!(batch_outs[25].served_by, ServedBy::Cache);
        let m = batched.metrics_snapshot();
        assert_eq!(m.queries_total, single.metrics_snapshot().queries_total);
        // At least the two appended duplicates hit (the random 24 may
        // collide among themselves too).
        assert!(m.cache_hits >= 2);
    }

    #[test]
    fn exact_batch_reports_ground_truth_for_every_query() {
        let config = small_config();
        let mut latest = Latest::new(config);
        let gen = warm_up(&mut latest);
        let queries = vec![
            RcDvq::keyword(vec![KeywordId(1)]),
            RcDvq::spatial(Rect::WORLD),
            RcDvq::keyword(vec![KeywordId(1)]),
        ];
        let outs = latest.query_batch(&queries, QueryOptions::at(gen.clock()).exact(true));
        assert_eq!(outs.len(), 3);
        for (q, out) in queries.iter().zip(&outs) {
            assert_eq!(out.served_by, ServedBy::Exact);
            assert_eq!(
                out.actual,
                latest
                    .query(q, QueryOptions::at(gen.clock()).exact(true))
                    .actual
            );
        }
        assert_eq!(outs[1].actual, latest.window_len() as u64);
        assert_eq!(outs[0].actual, outs[2].actual);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut latest = Latest::new(small_config());
        let _ = warm_up(&mut latest);
        let before = latest.metrics_snapshot();
        assert!(latest.query_batch(&[], QueryOptions::new()).is_empty());
        let after = latest.metrics_snapshot();
        assert_eq!(after.queries_total, before.queries_total);
    }

    // The delta_log_* tests are deliberately miri-sized (no threads, no
    // channels, no timers): CI's miri job runs them by name to cover the
    // prefill catch-up buffer's slot recycling under the interpreter.

    fn delta_objects(start: u64, n: u64) -> Vec<GeoTextObject> {
        let domain = DatasetSpec::twitter().domain;
        (start..start + n)
            .map(|i| {
                GeoTextObject::new(
                    geostream::ObjectId(i),
                    geostream::Point::new(
                        domain.min_x + (i % 7) as f64,
                        domain.min_y + (i % 5) as f64,
                    ),
                    vec![KeywordId(i as u32 % 4)],
                    Timestamp(i),
                )
            })
            .collect()
    }

    #[test]
    fn delta_log_replays_in_recorded_order() {
        let cfg = small_config().estimator_config;
        let a = delta_objects(0, 12);
        let b = delta_objects(100, 6);
        let mut log = DeltaLog::new(1_024, 7);
        log.push_insert(&a, 8);
        log.push_remove(&a[..4], 9);
        log.push_insert(&b, 9);
        assert_eq!(log.objects(), a.len() + 4 + b.len());
        assert!(!log.overflowed());

        let mut replayed = build_estimator(EstimatorKind::H4096, &cfg);
        log.replay_into(&mut replayed);
        let mut inline = build_estimator(EstimatorKind::H4096, &cfg);
        inline.insert_batch(&a);
        inline.remove_batch(&a[..4]);
        inline.insert_batch(&b);
        let q = RcDvq::keyword(vec![KeywordId(1)]);
        assert_eq!(
            replayed.estimate(&q).to_bits(),
            inline.estimate(&q).to_bits(),
            "replay diverged from the inline application of the same tail"
        );
        assert_eq!(replayed.population(), inline.population());
    }

    #[test]
    fn delta_log_overflow_latches_and_empties() {
        let mut log = DeltaLog::new(4, 0);
        log.push_insert(&delta_objects(0, 3), 1);
        assert!(!log.overflowed());
        assert_eq!(log.objects(), 3);
        // 3 + 2 > 4: the log can never be replayed completely again.
        log.push_insert(&delta_objects(10, 2), 2);
        assert!(log.overflowed());
        assert_eq!(log.objects(), 0);
        // Latched: later pushes stay dropped rather than resurrecting a
        // hole-y tail.
        log.push_insert(&delta_objects(20, 1), 3);
        assert!(log.overflowed());
        assert_eq!(log.objects(), 0);
        // An overflowed replay is a no-op, not a partial catch-up.
        let cfg = small_config().estimator_config;
        let mut est = build_estimator(EstimatorKind::H4096, &cfg);
        log.replay_into(&mut est);
        assert_eq!(est.population(), 0);
    }

    #[test]
    fn delta_log_ignores_empty_batches() {
        let mut log = DeltaLog::new(2, 5);
        log.push_insert(&[], 9);
        log.push_remove(&[], 9);
        assert_eq!(log.objects(), 0);
        assert!(!log.overflowed());
        // An empty push is invisible: a fresh push still fits the cap.
        log.push_insert(&delta_objects(0, 2), 6);
        assert_eq!(log.objects(), 2);
        assert!(!log.overflowed());
    }
}
