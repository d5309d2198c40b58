//! Run-wide observability: the metrics registry, the lifecycle event
//! stream, and point-in-time snapshots.
//!
//! The adaptor's whole control loop (§V-D) runs on signals — moving-average
//! accuracy, prefill/switch decisions, drift retrainings. This module is
//! where they are observable, live and after the fact — the engine keeps no
//! other journal:
//!
//! * [`MetricsRegistry`] — counters, gauges and fixed-bucket histograms for
//!   the facts an operator asks about: window flows, queries per phase,
//!   cache traffic, the adaptor's decisions and their costs, and
//!   per-[`EstimatorKind`] estimate-latency histograms and memory gauges.
//!   The exact executor's path-mix counters live in `exactdb` and are
//!   folded into every snapshot. Every cell has a reader (DESIGN.md,
//!   "Observability", lists them).
//! * [`EventStream`] — a bounded ring of typed [`LifecycleEvent`]s (phase
//!   transitions, prefill starts/completions/cancellations/discards,
//!   switches, tree retrainings, audit failures): apart from an audit
//!   failure, each one a decision that a counter also counts, so "what
//!   just happened" has a machine-readable answer.
//! * [`MetricsSnapshot`] — a plain-data copy of everything above, taken by
//!   [`Latest::metrics_snapshot`](crate::Latest::metrics_snapshot), with a
//!   hand-rolled [`MetricsSnapshot::to_json`] writer.
//!
//! The registry is owned by one [`Latest`](crate::Latest) and touched only
//! by the thread that holds it. Wall-clock series (estimate latency,
//! prefill build and stall times) are timed with [`WallTimer`] — the
//! **single** wall-clock read in the instrumented crates, explicitly
//! budgeted under the `virtual-clock` lint rule rather than silently
//! exempted; event timestamps are virtual stream time ([`Timestamp`]).

use crate::log::PhaseTag;
use estimators::EstimatorKind;
use geostream::Timestamp;
pub use geostream::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::VecDeque;
use std::time::Instant;

/// Bucket bounds (microseconds) for wall-clock latency histograms: sub-µs
/// estimator kernels up to multi-ms stragglers.
pub const WALL_LATENCY_US_BOUNDS: [u64; 12] =
    [1, 2, 5, 10, 25, 50, 100, 250, 1_000, 5_000, 25_000, 100_000];

/// Default capacity of the bounded [`EventStream`].
pub const DEFAULT_EVENT_CAPACITY: usize = 4_096;

/// The explicit wall-clock instrumentation surface: a started stopwatch.
///
/// This is the only place the instrumented crates read the wall clock
/// (`Instant::now`); the site is counted against the `virtual-clock` lint
/// budget in `lint.toml`, so any *new* wall-clock read elsewhere still
/// fails the lint pass. Virtual stream time never flows through this type.
#[derive(Debug, Clone, Copy)]
pub struct WallTimer {
    start: Instant,
}

impl WallTimer {
    /// Starts the stopwatch.
    pub fn start() -> Self {
        WallTimer {
            // LINT-ALLOW(virtual-clock): the one budgeted wall-clock read of the instrumentation surface; stream time stays virtual
            start: Instant::now(),
        }
    }

    /// Elapsed wall time in whole microseconds.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Elapsed wall time in (fractional) milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1_000.0
    }

    /// Records the elapsed microseconds into a wall-latency histogram.
    pub fn observe(&self, histogram: &Histogram) {
        histogram.record(self.elapsed_us());
    }
}

/// One typed lifecycle event of a LATEST run.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleEvent {
    /// The phase machine entered `phase` at stream time `at`.
    PhaseEntered { phase: PhaseTag, at: Timestamp },
    /// A replacement started pre-filling at query `seq`.
    PrefillStarted { seq: u64, kind: EstimatorKind },
    /// A pre-filling replacement was discarded (accuracy recovered).
    PrefillDiscarded { seq: u64, kind: EstimatorKind },
    /// A background prefill build finished — `snapshot_len` objects in
    /// `build_ms` on the worker — and its delta tail was replayed
    /// (`delta_len` objects caught up on the serving thread).
    PrefillCompleted {
        seq: u64,
        kind: EstimatorKind,
        build_ms: f64,
        snapshot_len: usize,
        delta_len: usize,
    },
    /// A background prefill build was abandoned mid-flight (discard while
    /// building, or a delta-log overflow forcing a fresh snapshot).
    PrefillCancelled { seq: u64, kind: EstimatorKind },
    /// The adaptor switched the employed estimator at query `seq` (stream
    /// time `at`); `trigger_average` is the moving-average accuracy that
    /// triggered it.
    EstimatorSwitched {
        seq: u64,
        at: Timestamp,
        from: EstimatorKind,
        to: EstimatorKind,
        trigger_average: f64,
    },
    /// The Hoeffding tree was reset and will regrow: DDM drift detection
    /// over its own prediction errors fired (§V-D retraining).
    TreeRetrained { seq: u64 },
    /// A `debug-invariants` audit walk found a violated invariant.
    AuditFailed {
        structure: String,
        invariant: String,
    },
}

impl LifecycleEvent {
    /// Snake-case event name (the `"event"` field of the JSON rendering).
    pub fn name(&self) -> &'static str {
        match self {
            LifecycleEvent::PhaseEntered { .. } => "phase_entered",
            LifecycleEvent::PrefillStarted { .. } => "prefill_started",
            LifecycleEvent::PrefillDiscarded { .. } => "prefill_discarded",
            LifecycleEvent::PrefillCompleted { .. } => "prefill_completed",
            LifecycleEvent::PrefillCancelled { .. } => "prefill_cancelled",
            LifecycleEvent::EstimatorSwitched { .. } => "estimator_switched",
            LifecycleEvent::TreeRetrained { .. } => "tree_retrained",
            LifecycleEvent::AuditFailed { .. } => "audit_failed",
        }
    }

    /// One-line JSON object for this event.
    pub fn to_json(&self) -> String {
        match self {
            LifecycleEvent::PhaseEntered { phase, at } => format!(
                "{{\"event\": \"phase_entered\", \"phase\": \"{}\", \"at_ms\": {}}}",
                phase.name(),
                at.0
            ),
            LifecycleEvent::PrefillStarted { seq, kind } => format!(
                "{{\"event\": \"prefill_started\", \"seq\": {seq}, \"kind\": \"{}\"}}",
                kind.name()
            ),
            LifecycleEvent::PrefillDiscarded { seq, kind } => format!(
                "{{\"event\": \"prefill_discarded\", \"seq\": {seq}, \"kind\": \"{}\"}}",
                kind.name()
            ),
            LifecycleEvent::PrefillCompleted {
                seq,
                kind,
                build_ms,
                snapshot_len,
                delta_len,
            } => format!(
                "{{\"event\": \"prefill_completed\", \"seq\": {seq}, \"kind\": \"{}\", \
                 \"build_ms\": {build_ms:.3}, \"snapshot_len\": {snapshot_len}, \
                 \"delta_len\": {delta_len}}}",
                kind.name()
            ),
            LifecycleEvent::PrefillCancelled { seq, kind } => format!(
                "{{\"event\": \"prefill_cancelled\", \"seq\": {seq}, \"kind\": \"{}\"}}",
                kind.name()
            ),
            LifecycleEvent::EstimatorSwitched {
                seq,
                at,
                from,
                to,
                trigger_average,
            } => format!(
                "{{\"event\": \"estimator_switched\", \"seq\": {seq}, \"at_ms\": {}, \
                 \"from\": \"{}\", \"to\": \"{}\", \"trigger_average\": {trigger_average:.4}}}",
                at.0,
                from.name(),
                to.name()
            ),
            LifecycleEvent::TreeRetrained { seq } => {
                format!("{{\"event\": \"tree_retrained\", \"seq\": {seq}}}")
            }
            LifecycleEvent::AuditFailed {
                structure,
                invariant,
            } => format!(
                "{{\"event\": \"audit_failed\", \"structure\": \"{structure}\", \
                 \"invariant\": \"{invariant}\"}}"
            ),
        }
    }
}

/// A bounded ring of recent [`LifecycleEvent`]s.
///
/// When the ring is full the oldest event is dropped and the drop is
/// counted, so consumers can tell a quiet system from a saturated stream.
/// Only decisions (and `debug-invariants` audit failures) are recorded,
/// each decision kind with a counter beside it, so the ring fills at the
/// rate the adaptor decides, not at the rate the stream flows.
#[derive(Debug)]
pub struct EventStream {
    events: VecDeque<LifecycleEvent>,
    capacity: usize,
    dropped: u64,
}

impl EventStream {
    /// An event ring holding at most `capacity` recent events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventStream {
            events: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn record(&mut self, event: LifecycleEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<LifecycleEvent> {
        self.events.iter().cloned().collect()
    }

    /// Events lost to the capacity bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The ring's capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Default for EventStream {
    fn default() -> Self {
        EventStream::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

/// Maps a phase to its index in per-phase counter arrays.
pub fn phase_index(phase: PhaseTag) -> usize {
    match phase {
        PhaseTag::WarmUp => 0,
        PhaseTag::PreTraining => 1,
        PhaseTag::Incremental => 2,
    }
}

/// The single place where "is the system healthy" is answerable at
/// runtime: every subsystem's counters, gauges, and histograms.
///
/// One [`Latest`](crate::Latest) owns its registry and updates it from the
/// thread that holds the engine; the cells are relaxed atomics only so a
/// snapshot can read them through `&self`.
#[derive(Debug)]
pub struct MetricsRegistry {
    // --- sliding window / ingest path ---
    /// Stream objects ingested.
    pub objects_ingested: Counter,
    /// Objects evicted by window slides (ingest and query paths).
    pub objects_evicted: Counter,
    // --- phase machine / queries ---
    /// Queries answered, total.
    pub queries_total: Counter,
    /// Queries answered per phase (`[warm-up, pre-training, incremental]`).
    pub queries_by_phase: [Counter; 3],
    /// Queries served straight from the selectivity cache (these skip the
    /// executor, the learning loop, and `queries_total` — a cache hit is a
    /// pure read).
    pub cache_hits: Counter,
    /// Cache-eligible queries that had to run the full estimation path.
    pub cache_misses: Counter,
    // --- estimator adaptor ---
    /// Estimator switches performed.
    pub switches: Counter,
    /// Prefills started.
    pub prefill_starts: Counter,
    /// Prefills discarded after accuracy recovered.
    pub prefill_discards: Counter,
    /// Hoeffding-tree retrainings (DDM drift).
    pub tree_retrainings: Counter,
    /// Background prefill builds abandoned mid-flight (discard while
    /// building, or delta-log overflow forcing a fresh snapshot).
    pub prefill_cancelled: Counter,
    /// Wall time background prefill builds spent on the builder worker
    /// (µs; sync builds record here too, where the build *is* the stall).
    pub prefill_build_us: Histogram,
    /// Wall time the serving thread stalled on prefill work (µs): snapshot
    /// capture, delta replay, and any activation-time wait for the builder
    /// — the inline cost the background builder keeps small.
    pub switch_stall_us: Histogram,
    // --- per-estimator-kind series (indexed by `EstimatorKind::index()`) ---
    /// Wall-clock estimate latency per kind (µs).
    pub estimate_latency_us: [Histogram; EstimatorKind::COUNT],
    /// Latest memory footprint per kind (bytes; 0 when unmaintained).
    pub estimator_memory_bytes: [Gauge; EstimatorKind::COUNT],
    // --- lifecycle events ---
    /// Bounded ring of typed lifecycle events.
    pub events: EventStream,
}

impl MetricsRegistry {
    /// A fresh registry with all cells zeroed.
    pub fn new() -> Self {
        MetricsRegistry {
            objects_ingested: Counter::new(),
            objects_evicted: Counter::new(),
            queries_total: Counter::new(),
            queries_by_phase: std::array::from_fn(|_| Counter::new()),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            switches: Counter::new(),
            prefill_starts: Counter::new(),
            prefill_discards: Counter::new(),
            tree_retrainings: Counter::new(),
            prefill_cancelled: Counter::new(),
            prefill_build_us: Histogram::new(&WALL_LATENCY_US_BOUNDS),
            switch_stall_us: Histogram::new(&WALL_LATENCY_US_BOUNDS),
            estimate_latency_us: std::array::from_fn(|_| Histogram::new(&WALL_LATENCY_US_BOUNDS)),
            estimator_memory_bytes: std::array::from_fn(|_| Gauge::new()),
            events: EventStream::default(),
        }
    }

    /// Records a wall-clock estimate latency for `kind`.
    pub fn record_estimate_latency(&self, kind: EstimatorKind, us: u64) {
        self.estimate_latency_us[kind.index() as usize].record(us);
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// Window-subsystem slice of a snapshot.
#[derive(Debug, Clone)]
pub struct WindowMetrics {
    pub occupancy: u64,
    pub ingested: u64,
    pub evicted: u64,
}

/// Adaptor-subsystem slice of a snapshot.
#[derive(Debug, Clone)]
pub struct AdaptorMetrics {
    pub switches: u64,
    pub prefill_starts: u64,
    pub prefill_discards: u64,
    pub tree_retrainings: u64,
    /// Background prefill builds abandoned mid-flight.
    pub prefill_cancelled: u64,
    /// Builder-side prefill build durations (µs).
    pub prefill_build_us: HistogramSnapshot,
    /// Serving-thread stall on prefill work (snapshot + replay + wait, µs).
    pub switch_stall_us: HistogramSnapshot,
    /// Observations currently in the accuracy monitor's window.
    pub monitor_len: u64,
    /// Current moving-average accuracy, if any observations exist.
    pub monitor_average: Option<f64>,
    pub queries_since_switch: u64,
}

/// Exact-executor slice of a snapshot (the access-path mix).
#[derive(Debug, Clone, Copy)]
pub struct ExecutorMetrics {
    pub spatial: u64,
    pub inverted: u64,
}

/// What an estimator is doing for the system right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorRole {
    /// Answering queries (incremental phase).
    Active,
    /// Pre-filling as the designated replacement.
    Prefilling,
    /// Maintained in the pre-training pool.
    Pool,
    /// Maintained for shadow metrics only.
    Shadow,
    /// Not currently maintained.
    Idle,
}

impl EstimatorRole {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            EstimatorRole::Active => "active",
            EstimatorRole::Prefilling => "prefilling",
            EstimatorRole::Pool => "pool",
            EstimatorRole::Shadow => "shadow",
            EstimatorRole::Idle => "idle",
        }
    }
}

/// Per-kind slice of a snapshot.
#[derive(Debug, Clone)]
pub struct EstimatorMetrics {
    pub kind: EstimatorKind,
    pub role: EstimatorRole,
    pub memory_bytes: u64,
    pub latency_us: HistogramSnapshot,
}

/// A point-in-time, plain-data copy of the whole registry plus the
/// adaptor state the registry cannot see (monitor, roles, path mix).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Current lifetime phase.
    pub phase: PhaseTag,
    pub queries_total: u64,
    /// `[warm-up, pre-training, incremental]`.
    pub queries_by_phase: [u64; 3],
    /// Queries served straight from the selectivity cache (not counted in
    /// `queries_total`).
    pub cache_hits: u64,
    /// Cache-eligible queries that ran the full estimation path.
    pub cache_misses: u64,
    pub window: WindowMetrics,
    pub adaptor: AdaptorMetrics,
    pub executor: ExecutorMetrics,
    /// One entry per [`EstimatorKind`], in `ALL` order.
    pub estimators: Vec<EstimatorMetrics>,
    /// Retained lifecycle events, oldest first.
    pub events: Vec<LifecycleEvent>,
    /// Events lost to the ring's capacity bound.
    pub events_dropped: u64,
}

/// Renders a histogram snapshot as a one-line JSON object.
fn hist_json(h: &HistogramSnapshot) -> String {
    let mut buckets = String::from("[");
    for (i, n) in h.counts.iter().enumerate() {
        if i > 0 {
            buckets.push_str(", ");
        }
        match h.bounds.get(i) {
            Some(le) => buckets.push_str(&format!("{{\"le\": {le}, \"n\": {n}}}")),
            None => buckets.push_str(&format!("{{\"le\": null, \"n\": {n}}}")),
        }
    }
    buckets.push(']');
    format!(
        "{{\"count\": {}, \"sum\": {}, \"mean\": {:.3}, \"buckets\": {buckets}}}",
        h.count,
        h.sum,
        h.mean()
    )
}

impl MetricsSnapshot {
    /// Serializes the snapshot with the workspace's hand-rolled JSON
    /// style (checked against the RFC 8259 grammar by
    /// `testkit::validate_json` in this module's tests and in
    /// `tests/observability.rs`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"phase\": \"{}\",\n", self.phase.name()));
        s.push_str("  \"queries\": {\n");
        s.push_str(&format!("    \"total\": {},\n", self.queries_total));
        s.push_str(&format!("    \"warmup\": {},\n", self.queries_by_phase[0]));
        s.push_str(&format!(
            "    \"pretraining\": {},\n",
            self.queries_by_phase[1]
        ));
        s.push_str(&format!(
            "    \"incremental\": {},\n",
            self.queries_by_phase[2]
        ));
        s.push_str(&format!("    \"cache_hits\": {},\n", self.cache_hits));
        s.push_str(&format!("    \"cache_misses\": {}\n", self.cache_misses));
        s.push_str("  },\n");
        s.push_str("  \"window\": {\n");
        s.push_str(&format!("    \"occupancy\": {},\n", self.window.occupancy));
        s.push_str(&format!("    \"ingested\": {},\n", self.window.ingested));
        s.push_str(&format!("    \"evicted\": {}\n", self.window.evicted));
        s.push_str("  },\n");
        s.push_str("  \"adaptor\": {\n");
        s.push_str(&format!("    \"switches\": {},\n", self.adaptor.switches));
        s.push_str(&format!(
            "    \"prefill_starts\": {},\n",
            self.adaptor.prefill_starts
        ));
        s.push_str(&format!(
            "    \"prefill_discards\": {},\n",
            self.adaptor.prefill_discards
        ));
        s.push_str(&format!(
            "    \"tree_retrainings\": {},\n",
            self.adaptor.tree_retrainings
        ));
        s.push_str(&format!(
            "    \"prefill_cancelled\": {},\n",
            self.adaptor.prefill_cancelled
        ));
        s.push_str(&format!(
            "    \"prefill_build_us\": {},\n",
            hist_json(&self.adaptor.prefill_build_us)
        ));
        s.push_str(&format!(
            "    \"switch_stall_us\": {},\n",
            hist_json(&self.adaptor.switch_stall_us)
        ));
        s.push_str(&format!(
            "    \"monitor_len\": {},\n",
            self.adaptor.monitor_len
        ));
        match self.adaptor.monitor_average {
            Some(avg) => s.push_str(&format!("    \"monitor_average\": {avg:.4},\n")),
            None => s.push_str("    \"monitor_average\": null,\n"),
        }
        s.push_str(&format!(
            "    \"queries_since_switch\": {}\n",
            self.adaptor.queries_since_switch
        ));
        s.push_str("  },\n");
        s.push_str(&format!(
            "  \"executor\": {{\"spatial\": {}, \"inverted\": {}}},\n",
            self.executor.spatial, self.executor.inverted
        ));
        s.push_str("  \"estimators\": [\n");
        for (i, e) in self.estimators.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"kind\": \"{}\", \"role\": \"{}\", \"memory_bytes\": {}, \
                 \"latency_us\": {}}}{}\n",
                e.kind.name(),
                e.role.name(),
                e.memory_bytes,
                hist_json(&e.latency_us),
                if i + 1 < self.estimators.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"events\": {\n");
        s.push_str(&format!("    \"dropped\": {},\n", self.events_dropped));
        s.push_str("    \"recent\": [\n");
        for (i, ev) in self.events.iter().enumerate() {
            s.push_str(&format!(
                "      {}{}\n",
                ev.to_json(),
                if i + 1 < self.events.len() { "," } else { "" }
            ));
        }
        s.push_str("    ]\n");
        s.push_str("  }\n");
        s.push_str("}\n");
        s
    }

    /// The `PhaseEntered` events, in recorded order.
    pub fn phase_events(&self) -> Vec<PhaseTag> {
        self.events
            .iter()
            .filter_map(|e| match e {
                LifecycleEvent::PhaseEntered { phase, .. } => Some(*phase),
                _ => None,
            })
            .collect()
    }

    /// The `EstimatorSwitched` events, in recorded order.
    pub fn switch_events(&self) -> Vec<&LifecycleEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, LifecycleEvent::EstimatorSwitched { .. }))
            .collect()
    }

    /// Merges two snapshots into the run-wide view a sharded engine
    /// reports ([`ShardedLatest::metrics_snapshot`]). The algebra, per
    /// cell class:
    ///
    /// * **counters** (queries, ingest/eviction flows, cache traffic,
    ///   adaptor decisions, path mix) sum;
    /// * **histograms** add bucket-wise ([`HistogramSnapshot::merge`]);
    /// * **gauges**: occupancy and memory footprints sum (they partition
    ///   disjoint state), the monitor average becomes the
    ///   observation-count-weighted mean, and `queries_since_switch`
    ///   takes the max (the least-recently-switched shard bounds the
    ///   whole engine's stability claim);
    /// * **phase** is the *least* advanced shard's — the engine is only
    ///   as far along as its slowest shard;
    /// * **estimator roles** keep the most engaged role across shards
    ///   (active > prefilling > pool > shadow > idle);
    /// * **events** concatenate (self's first) and drop counts sum.
    ///
    /// The operation is associative and commutative on every numeric
    /// field, so folding any number of shards in any order yields the
    /// same totals.
    ///
    /// [`ShardedLatest::metrics_snapshot`]: crate::ShardedLatest::metrics_snapshot
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let phase = if phase_index(other.phase) < phase_index(self.phase) {
            other.phase
        } else {
            self.phase
        };
        let monitor_average = match (
            (self.adaptor.monitor_average, self.adaptor.monitor_len),
            (other.adaptor.monitor_average, other.adaptor.monitor_len),
        ) {
            ((Some(a), la), (Some(b), lb)) if la + lb > 0 => {
                Some((a * la as f64 + b * lb as f64) / (la + lb) as f64)
            }
            ((Some(a), _), _) => Some(a),
            (_, (Some(b), _)) => Some(b),
            _ => None,
        };
        let mut estimators: Vec<EstimatorMetrics> = self.estimators.clone();
        for theirs in &other.estimators {
            match estimators.iter_mut().find(|e| e.kind == theirs.kind) {
                Some(ours) => {
                    if role_rank(theirs.role) < role_rank(ours.role) {
                        ours.role = theirs.role;
                    }
                    ours.memory_bytes += theirs.memory_bytes;
                    ours.latency_us = ours.latency_us.merge(&theirs.latency_us);
                }
                None => estimators.push(theirs.clone()),
            }
        }
        let mut events = self.events.clone();
        events.extend(other.events.iter().cloned());
        MetricsSnapshot {
            phase,
            queries_total: self.queries_total + other.queries_total,
            queries_by_phase: std::array::from_fn(|i| {
                self.queries_by_phase[i] + other.queries_by_phase[i]
            }),
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            window: WindowMetrics {
                occupancy: self.window.occupancy + other.window.occupancy,
                ingested: self.window.ingested + other.window.ingested,
                evicted: self.window.evicted + other.window.evicted,
            },
            adaptor: AdaptorMetrics {
                switches: self.adaptor.switches + other.adaptor.switches,
                prefill_starts: self.adaptor.prefill_starts + other.adaptor.prefill_starts,
                prefill_discards: self.adaptor.prefill_discards + other.adaptor.prefill_discards,
                tree_retrainings: self.adaptor.tree_retrainings + other.adaptor.tree_retrainings,
                prefill_cancelled: self.adaptor.prefill_cancelled + other.adaptor.prefill_cancelled,
                prefill_build_us: self
                    .adaptor
                    .prefill_build_us
                    .merge(&other.adaptor.prefill_build_us),
                switch_stall_us: self
                    .adaptor
                    .switch_stall_us
                    .merge(&other.adaptor.switch_stall_us),
                monitor_len: self.adaptor.monitor_len + other.adaptor.monitor_len,
                monitor_average,
                queries_since_switch: self
                    .adaptor
                    .queries_since_switch
                    .max(other.adaptor.queries_since_switch),
            },
            executor: ExecutorMetrics {
                spatial: self.executor.spatial + other.executor.spatial,
                inverted: self.executor.inverted + other.executor.inverted,
            },
            estimators,
            events,
            events_dropped: self.events_dropped + other.events_dropped,
        }
    }
}

/// Engagement order of estimator roles for snapshot merging: lower rank =
/// more engaged, and the merged view keeps the most engaged role any
/// shard reports for a kind.
fn role_rank(role: EstimatorRole) -> u8 {
    match role {
        EstimatorRole::Active => 0,
        EstimatorRole::Prefilling => 1,
        EstimatorRole::Pool => 2,
        EstimatorRole::Shadow => 3,
        EstimatorRole::Idle => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_stream_is_bounded_and_counts_drops() {
        let mut stream = EventStream::with_capacity(3);
        for seq in 0..5 {
            stream.record(LifecycleEvent::PrefillStarted {
                seq,
                kind: EstimatorKind::Rsh,
            });
        }
        assert_eq!(stream.len(), 3);
        assert_eq!(stream.dropped(), 2);
        let events = stream.snapshot();
        // Oldest first, and the two oldest fell off the ring.
        assert!(
            matches!(events[0], LifecycleEvent::PrefillStarted { seq: 2, .. }),
            "unexpected head: {:?}",
            events[0]
        );
    }

    #[test]
    fn registry_cells_start_zeroed() {
        let m = MetricsRegistry::new();
        assert_eq!(m.queries_total.get(), 0);
        assert!(m.events.is_empty());
        assert!(m.estimate_latency_us.iter().all(|h| h.is_empty()));
        m.record_estimate_latency(EstimatorKind::Spn, 12);
        assert_eq!(
            m.estimate_latency_us[EstimatorKind::Spn.index() as usize].count(),
            1
        );
    }

    #[test]
    fn wall_timer_measures_something_nonnegative() {
        let h = Histogram::new(&WALL_LATENCY_US_BOUNDS);
        let t = WallTimer::start();
        std::hint::black_box((0..100).sum::<u64>());
        t.observe(&h);
        assert_eq!(h.count(), 1);
        assert!(t.elapsed_ms() >= 0.0);
    }

    /// One event of every kind.
    fn every_event() -> Vec<LifecycleEvent> {
        vec![
            LifecycleEvent::PhaseEntered {
                phase: PhaseTag::WarmUp,
                at: Timestamp(0),
            },
            LifecycleEvent::PrefillStarted {
                seq: 3,
                kind: EstimatorKind::Rsh,
            },
            LifecycleEvent::PrefillDiscarded {
                seq: 4,
                kind: EstimatorKind::Aasp,
            },
            LifecycleEvent::PrefillCompleted {
                seq: 5,
                kind: EstimatorKind::Spn,
                build_ms: 12.5,
                snapshot_len: 100_000,
                delta_len: 40,
            },
            LifecycleEvent::PrefillCancelled {
                seq: 6,
                kind: EstimatorKind::Ffn,
            },
            LifecycleEvent::EstimatorSwitched {
                seq: 7,
                at: Timestamp(123),
                from: EstimatorKind::H4096,
                to: EstimatorKind::Rsh,
                trigger_average: 0.61,
            },
            LifecycleEvent::TreeRetrained { seq: 9 },
            LifecycleEvent::AuditFailed {
                structure: "SampleStore".into(),
                invariant: "dead-counter".into(),
            },
        ]
    }

    #[test]
    fn event_json_fragments_are_well_formed() {
        let events = every_event();
        for ev in &events {
            let json = ev.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(json.contains(ev.name()), "{json}");
            testkit::validate_json(&json).unwrap_or_else(|e| panic!("{e}"));
        }
        // Objects and milliseconds of a build sit side by side.
        assert_eq!(
            events[3].to_json(),
            "{\"event\": \"prefill_completed\", \"seq\": 5, \"kind\": \"SPN\", \
             \"build_ms\": 12.500, \"snapshot_len\": 100000, \"delta_len\": 40}"
        );
    }

    #[test]
    fn phase_indices_cover_all_phases() {
        assert_eq!(phase_index(PhaseTag::WarmUp), 0);
        assert_eq!(phase_index(PhaseTag::PreTraining), 1);
        assert_eq!(phase_index(PhaseTag::Incremental), 2);
    }

    /// A hand-built snapshot for merge tests, parameterized enough to make
    /// the per-field algebra distinguishable.
    fn snap(phase: PhaseTag, queries: u64, avg: Option<f64>, len: u64) -> MetricsSnapshot {
        let hist = |values: &[u64]| {
            let h = Histogram::new(&WALL_LATENCY_US_BOUNDS);
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        MetricsSnapshot {
            phase,
            queries_total: queries,
            queries_by_phase: [1, 2, queries.saturating_sub(3)],
            cache_hits: 2 * queries,
            cache_misses: queries,
            window: WindowMetrics {
                occupancy: 10 * queries,
                ingested: 12 * queries,
                evicted: 2 * queries,
            },
            adaptor: AdaptorMetrics {
                switches: 1,
                prefill_starts: 2,
                prefill_discards: 1,
                tree_retrainings: 1,
                prefill_cancelled: 1,
                prefill_build_us: hist(&[3, 300]),
                switch_stall_us: hist(&[11]),
                monitor_len: len,
                monitor_average: avg,
                queries_since_switch: queries,
            },
            executor: ExecutorMetrics {
                spatial: queries,
                inverted: 2 * queries,
            },
            estimators: vec![
                EstimatorMetrics {
                    kind: EstimatorKind::Rsh,
                    role: if phase == PhaseTag::Incremental {
                        EstimatorRole::Active
                    } else {
                        EstimatorRole::Pool
                    },
                    memory_bytes: 1_000,
                    latency_us: hist(&[7]),
                },
                EstimatorMetrics {
                    kind: EstimatorKind::Spn,
                    role: EstimatorRole::Idle,
                    memory_bytes: 0,
                    latency_us: hist(&[]),
                },
            ],
            events: vec![LifecycleEvent::PhaseEntered {
                phase,
                at: Timestamp(queries),
            }],
            events_dropped: queries,
        }
    }

    #[test]
    fn merge_sums_counters_and_adds_histograms_bucket_wise() {
        let a = snap(PhaseTag::Incremental, 10, Some(0.9), 8);
        let b = snap(PhaseTag::Incremental, 4, Some(0.6), 2);
        let m = a.merge(&b);
        assert_eq!(m.queries_total, 14);
        assert_eq!(m.queries_by_phase, [2, 4, 8]);
        assert_eq!(m.cache_hits, 28);
        assert_eq!(m.cache_misses, 14);
        assert_eq!(m.window.occupancy, 140);
        assert_eq!(m.window.ingested, 168);
        assert_eq!(m.window.evicted, 28);
        assert_eq!(m.executor.spatial, 14);
        assert_eq!(m.executor.inverted, 28);
        assert_eq!(m.events_dropped, 14);
        // Histograms: counts add bucket-for-bucket, totals add.
        let build = &m.adaptor.prefill_build_us;
        assert_eq!(build.count, 4);
        assert_eq!(build.sum, 606);
        assert_eq!(
            build.counts.iter().sum::<u64>(),
            a.adaptor.prefill_build_us.counts.iter().sum::<u64>()
                + b.adaptor.prefill_build_us.counts.iter().sum::<u64>()
        );
        // Events concatenate, self first.
        assert_eq!(m.events.len(), 2);
    }

    #[test]
    fn merge_phase_is_least_advanced_and_average_is_weighted() {
        let a = snap(PhaseTag::Incremental, 10, Some(0.9), 8);
        let b = snap(PhaseTag::WarmUp, 4, Some(0.6), 2);
        let m = a.merge(&b);
        assert_eq!(m.phase, PhaseTag::WarmUp);
        // Weighted mean: (0.9·8 + 0.6·2) / 10 = 0.84.
        let avg = m.adaptor.monitor_average.expect("both sides observed");
        assert!((avg - 0.84).abs() < 1e-12, "avg = {avg}");
        assert_eq!(m.adaptor.monitor_len, 10);
        // queries_since_switch: max, not sum.
        assert_eq!(m.adaptor.queries_since_switch, 10);
    }

    #[test]
    fn merge_handles_one_sided_and_absent_monitors() {
        let some = snap(PhaseTag::Incremental, 5, Some(0.7), 4);
        let none = snap(PhaseTag::Incremental, 5, None, 0);
        assert_eq!(
            some.merge(&none).adaptor.monitor_average,
            Some(0.7),
            "one-sided merge keeps the observed average"
        );
        assert_eq!(none.merge(&some).adaptor.monitor_average, Some(0.7));
        assert_eq!(none.merge(&none).adaptor.monitor_average, None);
    }

    /// All-empty-shards regression: folding any number of snapshots whose
    /// monitors have observed nothing must stay `None` — and even the
    /// degenerate `Some(avg)`-with-zero-length shape (impossible from a
    /// real [`AccuracyMonitor`], but one torn scrape away) must never
    /// reach the weighted mean's `0/0` and surface a NaN.
    #[test]
    fn merge_of_all_empty_shards_yields_no_monitor_average() {
        let empties: Vec<_> = (0..4)
            .map(|_| snap(PhaseTag::Incremental, 0, None, 0))
            .collect();
        let folded = empties
            .iter()
            .skip(1)
            .fold(empties[0].clone(), |acc, s| acc.merge(s));
        assert_eq!(folded.adaptor.monitor_average, None);
        assert_eq!(folded.adaptor.monitor_len, 0);

        let degenerate = snap(PhaseTag::Incremental, 0, Some(0.4), 0);
        for m in [
            degenerate.merge(&degenerate),
            degenerate.merge(&empties[0]),
            empties[0].merge(&degenerate),
        ] {
            let avg = m.adaptor.monitor_average;
            assert!(
                avg.is_none() || avg.is_some_and(|v| v.is_finite()),
                "weighted mean produced a non-finite average: {avg:?}"
            );
            assert_eq!(avg, Some(0.4), "zero-length side must pass through");
        }
    }

    #[test]
    fn merge_keeps_most_engaged_estimator_role_and_sums_memory() {
        let active = snap(PhaseTag::Incremental, 5, None, 0); // Rsh active
        let pooled = snap(PhaseTag::WarmUp, 5, None, 0); // Rsh pooled
        for m in [active.merge(&pooled), pooled.merge(&active)] {
            let rsh = m
                .estimators
                .iter()
                .find(|e| e.kind == EstimatorKind::Rsh)
                .expect("rsh entry survives the merge");
            assert_eq!(rsh.role, EstimatorRole::Active);
            assert_eq!(rsh.memory_bytes, 2_000);
            assert_eq!(rsh.latency_us.count, 2);
        }
    }

    #[test]
    fn merge_is_commutative_on_totals_and_associative() {
        let a = snap(PhaseTag::Incremental, 3, Some(0.5), 2);
        let b = snap(PhaseTag::PreTraining, 7, Some(0.9), 6);
        let c = snap(PhaseTag::WarmUp, 1, None, 0);
        let ab_c = a.merge(&b).merge(&c);
        let a_bc = a.merge(&b.merge(&c));
        assert_eq!(ab_c.queries_total, a_bc.queries_total);
        assert_eq!(ab_c.window.occupancy, a_bc.window.occupancy);
        assert_eq!(ab_c.phase, a_bc.phase);
        assert_eq!(ab_c.adaptor.monitor_len, a_bc.adaptor.monitor_len);
        let (x, y) = (
            ab_c.adaptor.monitor_average.expect("observed"),
            a_bc.adaptor.monitor_average.expect("observed"),
        );
        assert!((x - y).abs() < 1e-12);
        let ba = b.merge(&a);
        let ab = a.merge(&b);
        assert_eq!(ab.queries_total, ba.queries_total);
        assert_eq!(ab.phase, ba.phase);
        assert_eq!(ab.adaptor.prefill_build_us, ba.adaptor.prefill_build_us);
    }

    /// Every key path of a JSON document that leads to a scalar, in
    /// document order and once each: object keys joined by `.`, array
    /// elements as `[]`. Assumes well-formed input (the writers here are
    /// checked by `testkit::validate_json`).
    fn key_paths(json: &str) -> Vec<String> {
        fn leaf(path: &[String], out: &mut Vec<String>) {
            let p = path.join(".").replace(".[]", "[]");
            if !out.contains(&p) {
                out.push(p);
            }
        }
        let (b, mut i) = (json.as_bytes(), 0);
        let (mut path, mut out) = (Vec::new(), Vec::new());
        while i < b.len() {
            match b[i] {
                b'{' => path.push(String::new()),
                b'[' => path.push("[]".to_string()),
                b'}' | b']' => {
                    path.pop();
                }
                b'"' => {
                    let start = i + 1;
                    i = start;
                    while b[i] != b'"' {
                        i += if b[i] == b'\\' { 2 } else { 1 };
                    }
                    if json[i + 1..].trim_start().starts_with(':') {
                        *path.last_mut().expect("a key sits in an object") = json[start..i].into();
                    } else {
                        leaf(&path, &mut out);
                    }
                }
                c if c == b'-' || c.is_ascii_alphanumeric() => {
                    leaf(&path, &mut out);
                    while i + 1 < b.len() && !b",}] \n".contains(&b[i + 1]) {
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        out
    }

    /// Every key `MetricsSnapshot::to_json` writes, in document order. A
    /// key joins this list together with a row in DESIGN.md's
    /// "Observability" table that names its reader.
    const SNAPSHOT_KEYS: &str = "\
        phase queries.total queries.warmup queries.pretraining queries.incremental \
        queries.cache_hits queries.cache_misses window.occupancy window.ingested \
        window.evicted adaptor.switches adaptor.prefill_starts \
        adaptor.prefill_discards adaptor.tree_retrainings adaptor.prefill_cancelled \
        adaptor.prefill_build_us.count adaptor.prefill_build_us.sum \
        adaptor.prefill_build_us.mean adaptor.prefill_build_us.buckets[].le \
        adaptor.prefill_build_us.buckets[].n adaptor.switch_stall_us.count \
        adaptor.switch_stall_us.sum adaptor.switch_stall_us.mean \
        adaptor.switch_stall_us.buckets[].le adaptor.switch_stall_us.buckets[].n \
        adaptor.monitor_len adaptor.monitor_average adaptor.queries_since_switch \
        executor.spatial executor.inverted estimators[].kind estimators[].role \
        estimators[].memory_bytes estimators[].latency_us.count \
        estimators[].latency_us.sum estimators[].latency_us.mean \
        estimators[].latency_us.buckets[].le estimators[].latency_us.buckets[].n \
        events.dropped events.recent[].event events.recent[].phase \
        events.recent[].at_ms events.recent[].seq events.recent[].kind \
        events.recent[].build_ms events.recent[].snapshot_len \
        events.recent[].delta_len events.recent[].from events.recent[].to \
        events.recent[].trigger_average events.recent[].structure \
        events.recent[].invariant";

    #[test]
    fn snapshot_keys_are_pinned_and_each_has_a_reader() {
        let mut full = snap(PhaseTag::Incremental, 10, Some(0.9), 8);
        full.events = every_event();
        let json = full.to_json();
        testkit::validate_json(&json).unwrap_or_else(|e| panic!("{e}"));
        let keys: Vec<&str> = SNAPSHOT_KEYS.split_whitespace().collect();
        assert_eq!(key_paths(&json), keys, "{json}");

        let design =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
                .expect("read DESIGN.md");
        let section = design
            .split("\n## Observability")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("DESIGN.md has an Observability section");
        for key in keys {
            assert!(
                section.contains(&format!("| `{key}` |")),
                "DESIGN.md's Observability table has no row for `{key}`"
            );
        }
    }

    #[test]
    fn merged_snapshot_still_renders_valid_json_shape() {
        let a = snap(PhaseTag::Incremental, 10, Some(0.9), 8);
        let b = snap(PhaseTag::WarmUp, 4, None, 0);
        let json = a.merge(&b).to_json();
        testkit::validate_json(&json).unwrap_or_else(|e| panic!("{e}"));
        assert!(json.contains("\"phase\": \"warm-up\""));
    }
}
