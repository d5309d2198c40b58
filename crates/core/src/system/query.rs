//! The per-query path: cache probe, exact or estimated answer, and the
//! hand-off of every estimated answer to the Estimator Adaptor (§V-D).

use super::{Latest, Phase};
use crate::adaptor::Observation;
use crate::cache::CachedAnswer;
use crate::estimation_accuracy;
use crate::features::QueryProfile;
use crate::log::{PhaseTag, ShadowSample};
use crate::obsv::{phase_index, MetricsRegistry, WallTimer};
use crate::pool::EstimatorPool;
use estimators::EstimatorKind;
use geostream::{IdSet, QuerySignature, RcDvq, Timestamp};

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
    ///
    /// [`LatestConfig::shadow_metrics`]: crate::LatestConfig::shadow_metrics
    pub shadow: Vec<ShadowSample>,
}

impl Latest {
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
        self.adaptor
            .observe_pretraining(profile, default_kind, &samples);

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

    /// Incremental phase: answer with the active estimator, hand the answer
    /// to the adaptor, and execute its decision.
    fn incremental_query(
        &mut self,
        query: &RcDvq,
        at: Timestamp,
        seq: u64,
        actual: u64,
        profile: &QueryProfile,
        precomputed: Option<(f64, u64)>,
    ) -> QueryOutcome {
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
        let answer = ShadowSample {
            estimator: active_kind,
            estimate,
            latency_ms: latency_us as f64 / 1_000.0,
            accuracy: estimation_accuracy(estimate, actual),
        };
        active.observe_query(query, actual);
        self.metrics
            .record_estimate_latency(active_kind, latency_us);
        self.metrics.estimator_memory_bytes[active_kind.index() as usize]
            .set(active.memory_bytes() as u64);

        // Shadow measurements for the figures, when enabled: one round
        // over the shadow pool.
        let mut samples = Vec::new();
        if self.config.shadow_metrics {
            samples.push(answer);
            let measured = shadow.measure(query, actual);
            Self::record_round(&self.metrics, shadow, &measured);
            samples.extend(measured);
        }

        let decision = self.adaptor.observe(&Observation {
            seq,
            profile: *profile,
            active: answer,
            shadow: &samples,
            prefilling: self.prefilling(),
        });
        let switched = self.execute(decision, seq, at);

        QueryOutcome {
            estimate,
            actual,
            latency_ms: answer.latency_ms,
            accuracy: answer.accuracy,
            estimator: active_kind,
            phase: PhaseTag::Incremental,
            switched,
            served_by: ServedBy::Estimator(active_kind),
            shadow: samples,
        }
    }
}
