//! The traced pass: per-layer numbers without touching library code.
//!
//! Beside the engine the tracer holds a standalone instance of every
//! layer's public type, feeds each the same batches (arrivals, plus the
//! evictions its own shadow window reports) and queries, and records a
//! span around every such call — the "layer replay". Engine calls are
//! timed exactly as in an untraced pass; the replay runs after each call,
//! outside its span, so what tracing costs the engine is cache pollution
//! and the counting allocator (`trace.overhead_ratio`).
//!
//! Every batch is replayed through every layer (the shadows must track the
//! window); query-side layers are replayed for one query in
//! `QUERY_SAMPLE`, the six-estimator `EstimatorPool::measure` for one in
//! `POOL_SAMPLE`, and the brute-force oracle checks one in
//! `ORACLE_SAMPLE`.
//!
//! The replay times each layer's public call on what the engine was given
//! and what it answered. It does not follow the engine's own pipeline:
//! every sampled query goes through every layer whether or not the engine
//! served it from its cache, and the standalone tree is trained on the
//! estimator the engine answered with, not on a label derived the way
//! the engine derives one. So the numbers say what a call into a layer
//! costs on this workload's inputs, and stay true when the engine's
//! policy changes.

use crate::alloc;
use crate::engine::Facade;
use crate::pass::Call;
use crate::spec::kind_slug;
use estimators::{build_estimator, BoxedEstimator, EstimatorKind};
use exactdb::ExactExecutor;
use geostream::{GeoTextObject, QueryType, RcDvq, SlidingWindow};
use hoeffding::HoeffdingTree;
use latest_core::features::model_schema;
use latest_core::{
    CachedAnswer, EstimatorPool, Latest, LatestConfig, MetricsSnapshot, PhaseTag, QueryOutcome,
    QueryProfile, Recommender, RouterPolicy, SelectivityCache, ShardRouter, ShardedLatest,
};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const QUERY_SAMPLE: usize = 4;
pub const POOL_SAMPLE: usize = 32;
pub const ORACLE_SAMPLE: usize = 64;
/// Shards the standalone router replays over (the `sharded-2` layout).
const ROUTER_SHARDS: usize = 2;
/// Fresh estimators are built from the shadow window after these
/// fractions of the measured rounds; `build_ms` keeps the minimum.
const BUILD_POINTS: [(usize, usize); 3] = [(1, 4), (1, 2), (3, 4)];

/// One timed call. `parent` is the span of the engine call the replayed
/// call belongs to (0 for engine calls themselves); spans of one engine
/// call share its `round`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn push(
        &mut self,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        round: usize,
        start: Instant,
        nanos: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            layer,
            name,
            round: round as u32,
            start_ns,
            end_ns: start_ns + nanos,
        });
        id
    }

    /// Runs `f` inside a span and returns its result and duration.
    fn time<T>(
        &mut self,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        round: usize,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        let nanos = start.elapsed().as_nanos() as u64;
        self.push(parent, layer, name, round, start, nanos);
        (value, nanos)
    }
}

#[derive(Clone, Copy)]
enum EstimatorOp {
    Upkeep,
    Estimate,
    Build,
}

fn estimator_span(kind: EstimatorKind, op: EstimatorOp) -> &'static str {
    const NAMES: [[&str; 3]; EstimatorKind::COUNT] = [
        ["h4096.upkeep", "h4096.estimate", "h4096.build"],
        ["rsl.upkeep", "rsl.estimate", "rsl.build"],
        ["rsh.upkeep", "rsh.estimate", "rsh.build"],
        ["aasp.upkeep", "aasp.estimate", "aasp.build"],
        ["ffn.upkeep", "ffn.estimate", "ffn.build"],
        ["spn.upkeep", "spn.estimate", "spn.build"],
    ];
    NAMES[kind.index() as usize][op as usize]
}

fn execute_span(query_type: QueryType) -> &'static str {
    match query_type {
        QueryType::Spatial => "execute.spatial",
        QueryType::Keyword => "execute.keyword",
        QueryType::Hybrid => "execute.hybrid",
    }
}

/// Nanoseconds and call counts per layer, over the measured rounds.
#[derive(Default)]
struct Totals {
    objects: u64,
    batches: u64,
    evicted: u64,
    window_insert_ns: u64,
    exactdb_upkeep_ns: u64,
    upkeep_ns: [u64; EstimatorKind::COUNT],
    pool_apply_ns: u64,
    route_object_ns: u64,
    shard_objects: [u64; ROUTER_SHARDS],
    engine_ingest_ns: u64,
    ingest_attributed_ns: u64,
    ingest_allocs: alloc::Counters,

    queries: u64,
    query_allocs: alloc::Counters,
    /// Engine query calls set against layer time (`system.*`), the time
    /// they took and the layer time attributed to them.
    sampled: u64,
    sampled_engine_ns: f64,
    sampled_attributed_ns: f64,
    /// Queries replayed through the per-query layers.
    replays: u64,
    cache_lookup_ns: u64,
    cache_insert_ns: u64,
    execute_ns: [u64; 3],
    execute_n: [u64; 3],
    execute_batch_ns: u64,
    execute_batch_queries: u64,
    estimate_ns: [u64; EstimatorKind::COUNT],
    rsh_batch_ns: u64,
    rsh_batch_queries: u64,
    profile_ns: u64,
    predict_ns: u64,
    train_ns: u64,
    recommend_ns: u64,
    pool_measure_ns: u64,
    pool_measures: u64,
    route_query_ns: u64,
    fanout: u64,
    snapshot_ns: u64,
    snapshots: u64,
    build_ms_min: [Option<f64>; EstimatorKind::COUNT],
}

pub struct Tracer {
    recorder: Recorder,
    config: LatestConfig,
    window: SlidingWindow,
    evicted: Vec<GeoTextObject>,
    executor: ExactExecutor,
    /// One standalone estimator per kind, in `EstimatorKind::ALL` order.
    estimators: Vec<BoxedEstimator>,
    pool: EstimatorPool,
    cache: SelectivityCache,
    tree: HoeffdingTree,
    recommender: Recommender,
    type_profiles: [Option<QueryProfile>; 3],
    type_counts: [f64; 3],
    router: ShardRouter,
    /// The estimator the engine last answered with.
    active: EstimatorKind,
    build_rounds: Vec<usize>,
    totals: Totals,
    out_dir: PathBuf,
    workload: &'static str,
    pub oracle_checked: u64,
    pub oracle_mismatches: u64,
    pub oracle_failures: Vec<String>,
    /// Per-layer metrics this pass could compute; filled by `finish`.
    pub layers: Vec<(String, f64)>,
}

impl Tracer {
    /// `config` is the engine's own configuration: the standalone layers
    /// are sized from it, and the persistence round trip restores under
    /// it.
    pub fn new(
        workload: &'static str,
        rounds: usize,
        config: LatestConfig,
        out_dir: &Path,
    ) -> Tracer {
        let estimator_config = &config.estimator_config;
        Tracer {
            recorder: Recorder {
                origin: Instant::now(),
                spans: Vec::new(),
            },
            window: SlidingWindow::new(config.window_span),
            evicted: Vec::new(),
            executor: ExactExecutor::new(estimator_config.domain, config.index_kind),
            estimators: EstimatorKind::ALL
                .iter()
                .map(|&kind| build_estimator(kind, estimator_config))
                .collect(),
            pool: EstimatorPool::full(estimator_config, 1),
            cache: SelectivityCache::new(config.selectivity_cache_capacity),
            tree: HoeffdingTree::new(model_schema(), config.tree_config.clone()),
            recommender: Recommender::new(),
            type_profiles: [None; 3],
            type_counts: [0.0; 3],
            router: ShardRouter::new(
                RouterPolicy::HashOid,
                ROUTER_SHARDS,
                estimator_config.domain,
            ),
            active: config.default_estimator,
            build_rounds: BUILD_POINTS
                .iter()
                .map(|&(num, den)| rounds * num / den)
                .collect(),
            totals: Totals::default(),
            out_dir: out_dir.to_path_buf(),
            workload,
            oracle_checked: 0,
            oracle_mismatches: 0,
            oracle_failures: Vec::new(),
            layers: Vec::new(),
            config,
        }
    }

    /// Set-up batches keep the shadows in step with the engine; they are
    /// not part of any per-layer number.
    pub fn setup_ingest(&mut self, batch: &[GeoTextObject]) {
        self.evicted.clear();
        self.window
            .insert_batch(batch.iter().cloned(), &mut self.evicted);
        self.executor.insert_batch(batch);
        self.executor.remove_batch(&self.evicted);
        for estimator in &mut self.estimators {
            estimator.insert_batch(batch);
            estimator.remove_batch(&self.evicted);
        }
        self.pool.apply_batch(batch, &self.evicted);
    }

    /// Pre-training queries reach every estimator's feedback hook, as the
    /// engine's own pool round does, and the standalone tree and
    /// recommender see what the engine answered, so that the measured
    /// calls into them find a grown tree and filled reward cells.
    pub fn setup_query(&mut self, query: &RcDvq, outcome: &QueryOutcome) {
        for estimator in &mut self.estimators {
            estimator.observe_query(query, outcome.actual);
        }
        let _ = self.pool.measure(query, outcome.actual);
        let profile = QueryProfile::of(query, &self.config.estimator_config.domain);
        self.observe(profile, outcome);
        self.tree.train(
            &profile.instance(outcome.estimator),
            outcome.estimator.index(),
        );
    }

    /// What the recommender's call takes as input: the latest profile and
    /// the count per query type, and the accuracy the engine reported.
    fn observe(&mut self, profile: QueryProfile, outcome: &QueryOutcome) {
        let t = profile.query_type.index() as usize;
        self.type_profiles[t] = Some(profile);
        self.type_counts[t] += 1.0;
        self.recommender
            .observe(profile.query_type, outcome.estimator, outcome.accuracy);
    }

    pub fn ingest(&mut self, round: usize, batch: &[GeoTextObject], call: &Call) {
        let parent = self
            .recorder
            .push(0, "engine", "ingest_batch", round, call.start, call.nanos);
        let Tracer {
            recorder,
            window,
            evicted,
            executor,
            estimators,
            pool,
            router,
            totals,
            ..
        } = self;
        evicted.clear();
        let ((), window_ns) = recorder.time(parent, "window", "insert_batch", round, || {
            window.insert_batch(batch.iter().cloned(), evicted);
        });
        let ((), upkeep_ns) = recorder.time(parent, "exactdb", "upkeep", round, || {
            executor.insert_batch(batch);
            executor.remove_batch(evicted);
        });
        let mut active_ns = 0;
        for estimator in estimators.iter_mut() {
            let kind = estimator.kind();
            let name = estimator_span(kind, EstimatorOp::Upkeep);
            let ((), ns) = recorder.time(parent, "estimators", name, round, || {
                estimator.insert_batch(batch);
                estimator.remove_batch(evicted);
            });
            totals.upkeep_ns[kind.index() as usize] += ns;
            if kind == self.active {
                active_ns = ns;
            }
        }
        let ((), pool_ns) = recorder.time(parent, "pool", "apply_batch", round, || {
            pool.apply_batch(batch, evicted);
        });
        let (owners, route_ns) = recorder.time(parent, "shard", "route_objects", round, || {
            let mut owners = [0u64; ROUTER_SHARDS];
            for object in batch {
                owners[router.route_object(object)] += 1;
            }
            owners
        });
        for (total, n) in totals.shard_objects.iter_mut().zip(owners) {
            *total += n;
        }
        totals.objects += batch.len() as u64;
        totals.batches += 1;
        totals.evicted += evicted.len() as u64;
        totals.window_insert_ns += window_ns;
        totals.exactdb_upkeep_ns += upkeep_ns;
        totals.pool_apply_ns += pool_ns;
        totals.route_object_ns += route_ns;
        totals.engine_ingest_ns += call.nanos;
        totals.ingest_attributed_ns += window_ns + upkeep_ns + active_ns;
        totals.ingest_allocs.count += call.allocs.count;
        totals.ingest_allocs.bytes += call.allocs.bytes;
        if self.build_rounds.contains(&round) {
            self.build_point(round);
        }
    }

    /// Times a window snapshot and a from-scratch build of every
    /// estimator kind out of the standing window — what a switch costs
    /// when nothing hides it.
    fn build_point(&mut self, round: usize) {
        self.snapshot(round);
        for kind in EstimatorKind::ALL {
            let Tracer {
                recorder,
                window,
                config,
                ..
            } = self;
            let name = estimator_span(kind, EstimatorOp::Build);
            let (_built, ns) = recorder.time(0, "estimators", name, round, || {
                let mut fresh = build_estimator(kind, &config.estimator_config);
                for slice in window.chunk_slices() {
                    fresh.insert_batch(slice);
                }
                fresh
            });
            let ms = ns as f64 / 1e6;
            let slot = &mut self.totals.build_ms_min[kind.index() as usize];
            *slot = Some(slot.map_or(ms, |best: f64| best.min(ms)));
        }
    }

    fn snapshot(&mut self, round: usize) {
        let window = &mut self.window;
        let (_snapshot, ns) = self
            .recorder
            .time(0, "window", "snapshot", round, || window.snapshot());
        self.totals.snapshot_ns += ns;
        self.totals.snapshots += 1;
    }

    /// `switch-storm` forced a prefill in this slot: the engine took a
    /// window snapshot, so the shadow takes one too.
    pub fn storm_forced(&mut self, round: usize) {
        self.snapshot(round);
    }

    pub fn query(
        &mut self,
        round: usize,
        index: usize,
        query: &RcDvq,
        outcome: &QueryOutcome,
        call: &Call,
    ) {
        let parent = self
            .recorder
            .push(0, "engine", "query", round, call.start, call.nanos);
        self.note_query_call(1, call);
        self.active = outcome.estimator;
        if index.is_multiple_of(QUERY_SAMPLE) {
            let attributed = self.replay_layers(round, parent, index, query, outcome);
            self.totals.sampled += 1;
            self.totals.sampled_engine_ns += call.nanos as f64;
            self.totals.sampled_attributed_ns += attributed as f64;
        }
        if index.is_multiple_of(ORACLE_SAMPLE) {
            self.oracle(index, query, outcome);
        }
    }

    pub fn query_batch(
        &mut self,
        round: usize,
        queries: &[RcDvq],
        outcomes: &[QueryOutcome],
        call: &Call,
    ) {
        let parent = self
            .recorder
            .push(0, "engine", "query_batch", round, call.start, call.nanos);
        self.note_query_call(queries.len() as u64, call);
        // `query_batch` runs every distinct signature once through the
        // grouped executor and kernel passes; those two calls are what the
        // batch call is set against. Per-slot cache traffic and learning
        // count as the engine's own time.
        let mut distinct: Vec<RcDvq> = Vec::new();
        for query in queries {
            if !distinct.contains(query) {
                distinct.push(query.clone());
            }
        }
        let grouped_ns = self.replay_batch_kernels(round, parent, &distinct);
        let first = round * queries.len();
        for (slot, (query, outcome)) in queries.iter().zip(outcomes).enumerate() {
            let index = first + slot;
            self.active = outcome.estimator;
            if index.is_multiple_of(QUERY_SAMPLE) {
                let _ = self.replay_layers(round, parent, index, query, outcome);
            }
            if index.is_multiple_of(ORACLE_SAMPLE) {
                self.oracle(index, query, outcome);
            }
        }
        self.totals.sampled += queries.len() as u64;
        self.totals.sampled_engine_ns += call.nanos as f64;
        self.totals.sampled_attributed_ns += grouped_ns as f64;
    }

    /// Unbatched workloads make no grouped calls; replaying each round's
    /// queries through the grouped executor and kernel passes still says
    /// what those layers would cost on this workload's inputs.
    pub fn end_round(&mut self, round: usize, queries: &[RcDvq]) {
        let _ = self.replay_batch_kernels(round, 0, queries);
    }

    fn replay_batch_kernels(&mut self, round: usize, parent: u32, queries: &[RcDvq]) -> u64 {
        if queries.is_empty() {
            return 0;
        }
        let Tracer {
            recorder,
            executor,
            estimators,
            totals,
            ..
        } = self;
        let (_counts, execute_ns) =
            recorder.time(parent, "exactdb", "execute_batch", round, || {
                executor.execute_batch(queries)
            });
        let rsh = &estimators[EstimatorKind::Rsh.index() as usize];
        let (_estimates, kernel_ns) =
            recorder.time(parent, "estimators", "rsh.estimate_batch", round, || {
                rsh.estimate_batch(queries)
            });
        totals.execute_batch_ns += execute_ns;
        totals.execute_batch_queries += queries.len() as u64;
        totals.rsh_batch_ns += kernel_ns;
        totals.rsh_batch_queries += queries.len() as u64;
        execute_ns + kernel_ns
    }

    fn note_query_call(&mut self, queries: u64, call: &Call) {
        self.totals.queries += queries;
        self.totals.query_allocs.count += call.allocs.count;
        self.totals.query_allocs.bytes += call.allocs.bytes;
    }

    /// Times every per-query layer's public call on one query the engine
    /// has just answered. Returns the time in the calls an uncached
    /// single `query` is made of: cache lookup, exact execution, the
    /// employed estimator, profile, tree, cache insert.
    fn replay_layers(
        &mut self,
        round: usize,
        parent: u32,
        index: usize,
        query: &RcDvq,
        outcome: &QueryOutcome,
    ) -> u64 {
        let Tracer {
            recorder,
            config,
            window,
            executor,
            estimators,
            pool,
            cache,
            tree,
            recommender,
            type_profiles,
            type_counts,
            router,
            active,
            totals,
            ..
        } = self;
        totals.replays += 1;
        let signature = query.signature();
        let generation = window.generation();
        let (_cached, lookup_ns) = recorder.time(parent, "cache", "lookup", round, || {
            cache.lookup(signature, generation)
        });
        totals.cache_lookup_ns += lookup_ns;

        let query_type = query.query_type();
        let (actual, execute_ns) =
            recorder.time(parent, "exactdb", execute_span(query_type), round, || {
                executor.execute(query)
            });
        totals.execute_ns[query_type.index() as usize] += execute_ns;
        totals.execute_n[query_type.index() as usize] += 1;

        let mut active_estimate_ns = 0;
        for estimator in estimators.iter_mut() {
            let kind = estimator.kind();
            let name = estimator_span(kind, EstimatorOp::Estimate);
            let (_estimate, ns) = recorder.time(parent, "estimators", name, round, || {
                estimator.estimate(query)
            });
            estimator.observe_query(query, outcome.actual);
            totals.estimate_ns[kind.index() as usize] += ns;
            if kind == outcome.estimator {
                active_estimate_ns = ns;
            }
        }
        if index.is_multiple_of(POOL_SAMPLE) {
            let (_samples, ns) = recorder.time(parent, "pool", "measure", round, || {
                pool.measure(query, outcome.actual)
            });
            totals.pool_measure_ns += ns;
            totals.pool_measures += 1;
        }
        let (shards, route_ns) = recorder.time(parent, "shard", "route_query", round, || {
            router.route_query(query)
        });
        totals.route_query_ns += route_ns;
        totals.fanout += shards.len() as u64;

        let domain = config.estimator_config.domain;
        let (profile, profile_ns) = recorder.time(parent, "features", "profile", round, || {
            QueryProfile::of(query, &domain)
        });
        let instance = profile.instance(outcome.estimator);
        let (_class, predict_ns) = recorder.time(parent, "hoeffding", "predict", round, || {
            tree.predict(&instance)
        });
        let ((), train_ns) = recorder.time(parent, "hoeffding", "train", round, || {
            tree.train(&instance, outcome.estimator.index());
        });
        totals.profile_ns += profile_ns;
        totals.predict_ns += predict_ns;
        totals.train_ns += train_ns;

        let t = profile.query_type.index() as usize;
        type_profiles[t] = Some(profile);
        type_counts[t] += 1.0;
        recommender.observe(profile.query_type, outcome.estimator, outcome.accuracy);
        let (_kind, recommend_ns) =
            recorder.time(parent, "adaptor", "recommend_mixed", round, || {
                recommender.recommend_mixed(tree, type_profiles, type_counts, *active)
            });
        totals.recommend_ns += recommend_ns;

        let answer = CachedAnswer {
            estimate: outcome.estimate,
            actual: outcome.actual,
            accuracy: outcome.accuracy,
            estimator: outcome.estimator,
            phase: PhaseTag::Incremental,
        };
        let ((), insert_ns) = recorder.time(parent, "cache", "insert", round, || {
            cache.insert(signature, generation, answer);
        });
        totals.cache_insert_ns += insert_ns;

        if actual != outcome.actual {
            self.mismatch(format!(
                "query {index}: engine actual {} but the standalone executor counts {actual}",
                outcome.actual
            ));
        }
        lookup_ns + execute_ns + active_estimate_ns + profile_ns + predict_ns + train_ns + insert_ns
    }

    /// Recomputes `actual` by a brute-force scan of the shadow window.
    fn oracle(&mut self, index: usize, query: &RcDvq, outcome: &QueryOutcome) {
        self.oracle_checked += 1;
        let expected = self.window.iter().filter(|o| query.matches(o)).count() as u64;
        if expected != outcome.actual {
            self.mismatch(format!(
                "query {index}: engine actual {} but a window scan counts {expected}",
                outcome.actual
            ));
        }
    }

    fn mismatch(&mut self, what: String) {
        self.oracle_mismatches += 1;
        if self.oracle_failures.len() < 4 {
            self.oracle_failures.push(what);
        }
    }

    /// Closes the pass: counters from the engine's own snapshot, the
    /// persistence round trip, the per-layer metrics, and the span file.
    pub fn finish(&mut self, engine: &mut Facade, snapshot: &MetricsSnapshot) {
        let persist = self.persist_round_trip(engine);
        let t = &self.totals;
        let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        let mut layers: Vec<(String, f64)> = Vec::new();
        let mut put = |name: &str, value: f64| layers.push((name.to_string(), value));
        put(
            "window.insert_ns_per_obj",
            per(t.window_insert_ns, t.objects),
        );
        put("window.evicted_per_batch", per(t.evicted, t.batches));
        put("window.snapshot_us", per(t.snapshot_ns, t.snapshots) / 1e3);
        put(
            "exactdb.upkeep_ns_per_obj",
            per(t.exactdb_upkeep_ns, t.objects),
        );
        for (i, name) in ["spatial", "keyword", "hybrid"].into_iter().enumerate() {
            put(
                &format!("exactdb.execute_us.{name}"),
                per(t.execute_ns[i], t.execute_n[i]) / 1e3,
            );
        }
        let executed = snapshot.executor.spatial + snapshot.executor.inverted;
        put(
            "exactdb.path_spatial_share",
            per(snapshot.executor.spatial, executed),
        );
        put(
            "exactdb.execute_batch_us_per_query",
            per(t.execute_batch_ns, t.execute_batch_queries) / 1e3,
        );
        for kind in EstimatorKind::ALL {
            let (i, k) = (kind.index() as usize, kind_slug(kind));
            put(
                &format!("estimators.{k}.upkeep_ns_per_obj"),
                per(t.upkeep_ns[i], t.objects),
            );
            put(
                &format!("estimators.{k}.estimate_us"),
                per(t.estimate_ns[i], t.replays) / 1e3,
            );
            put(
                &format!("estimators.{k}.build_ms"),
                t.build_ms_min[i].unwrap_or(0.0),
            );
        }
        put(
            "estimators.rsh.estimate_batch_us_per_query",
            per(t.rsh_batch_ns, t.rsh_batch_queries) / 1e3,
        );
        put("hoeffding.train_us", per(t.train_ns, t.replays) / 1e3);
        put("hoeffding.predict_us", per(t.predict_ns, t.replays) / 1e3);
        put("features.profile_ns", per(t.profile_ns, t.replays));
        put("adaptor.recommend_us", per(t.recommend_ns, t.replays) / 1e3);
        put("cache.lookup_ns", per(t.cache_lookup_ns, t.replays));
        put("cache.insert_ns", per(t.cache_insert_ns, t.replays));
        put(
            "cache.hit_ratio",
            per(
                snapshot.cache_hits,
                snapshot.cache_hits + snapshot.cache_misses,
            ),
        );
        // The unsharded engine exposes its cache; the sharded one does
        // not, and there the standalone cache's count stands in.
        let invalidations = match engine.as_latest() {
            Some(latest) => latest.cache().invalidations(),
            None => self.cache.invalidations(),
        };
        put("cache.invalidations", invalidations as f64);
        put(
            "pool.apply_batch_ns_per_obj",
            per(t.pool_apply_ns, t.objects),
        );
        put(
            "pool.measure_us",
            per(t.pool_measure_ns, t.pool_measures) / 1e3,
        );
        put(
            "prefill.build_ms",
            snapshot.adaptor.prefill_build_us.mean() / 1e3,
        );
        put(
            "prefill.stall_us_mean",
            snapshot.adaptor.switch_stall_us.mean(),
        );
        put("prefill.switches", snapshot.adaptor.switches as f64);
        put(
            "prefill.cancelled",
            snapshot.adaptor.prefill_cancelled as f64,
        );
        let query_self_ns = if t.sampled == 0 {
            0.0
        } else {
            (t.sampled_engine_ns - t.sampled_attributed_ns) / t.sampled as f64
        };
        put("system.query_self_us", query_self_ns / 1e3);
        put(
            "system.ingest_self_ns_per_obj",
            (t.engine_ingest_ns as f64 - t.ingest_attributed_ns as f64) / t.objects.max(1) as f64,
        );
        let engine_ns = t.sampled_engine_ns + t.engine_ingest_ns as f64;
        put(
            "system.attributed_share",
            if engine_ns > 0.0 {
                (t.sampled_attributed_ns + t.ingest_attributed_ns as f64) / engine_ns
            } else {
                0.0
            },
        );
        put("shard.route_object_ns", per(t.route_object_ns, t.objects));
        put("shard.route_query_ns", per(t.route_query_ns, t.replays));
        put("shard.fanout_mean", per(t.fanout, t.replays));
        let busiest = t.shard_objects.iter().copied().max().unwrap_or(0);
        put(
            "shard.object_skew",
            per(busiest * ROUTER_SHARDS as u64, t.objects),
        );
        put("persist.snapshot_bytes", persist.bytes as f64);
        put("persist.snapshot_ms", persist.snapshot_ns as f64 / 1e6);
        put("persist.restore_ms", persist.restore_ns as f64 / 1e6);
        put(
            "alloc.count_per_query",
            per(t.query_allocs.count, t.queries),
        );
        put(
            "alloc.bytes_per_query",
            per(t.query_allocs.bytes, t.queries),
        );
        put(
            "alloc.count_per_ingest_batch",
            per(t.ingest_allocs.count, t.batches),
        );
        put(
            "alloc.bytes_per_ingest_batch",
            per(t.ingest_allocs.bytes, t.batches),
        );
        self.layers = layers;
        if let Some(failure) = persist.failure {
            self.mismatch(failure);
        }
        if let Err(e) = self.write_spans() {
            self.mismatch(format!("writing the span file: {e}"));
        }
    }

    /// State size and the time to write it out and read it back, through
    /// whichever snapshot API the engine has.
    fn persist_round_trip(&mut self, engine: &mut Facade) -> Persisted {
        let mut persisted = Persisted::default();
        let config = self.config.clone();
        match engine {
            Facade::Latest(latest) => {
                let (bytes, ns) = self.recorder.time(0, "persist", "snapshot_bytes", 0, || {
                    latest.snapshot_bytes()
                });
                persisted.snapshot_ns = ns;
                persisted.bytes = bytes.len() as u64;
                let (restored, ns) = self.recorder.time(0, "persist", "restore", 0, || {
                    Latest::restore(config, &bytes)
                });
                persisted.restore_ns = ns;
                match restored {
                    Ok(restored) if restored.window_len() == latest.window_len() => {}
                    Ok(_) => persisted.failure = Some("restored window differs".into()),
                    Err(e) => persisted.failure = Some(format!("restore: {e}")),
                }
            }
            Facade::Sharded(sharded) => {
                let dir = self.out_dir.join(format!("snapshot-{}", self.workload));
                let (saved, ns) = self.recorder.time(0, "persist", "save_snapshot", 0, || {
                    sharded.save_snapshot(&dir)
                });
                persisted.snapshot_ns = ns;
                persisted.bytes = std::fs::read_dir(&dir)
                    .map(|entries| {
                        entries
                            .filter_map(|e| e.ok()?.metadata().ok())
                            .map(|m| m.len())
                            .sum()
                    })
                    .unwrap_or(0);
                let (restored, ns) = self.recorder.time(0, "persist", "restore", 0, || {
                    ShardedLatest::restore(config, &dir)
                });
                persisted.restore_ns = ns;
                if let Err(e) = saved.and(restored.map(drop)) {
                    persisted.failure = Some(format!("sharded snapshot round trip: {e}"));
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
            Facade::Shared(_) | Facade::Serving { .. } => {}
        }
        persisted
    }

    fn write_spans(&self) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.out_dir)?;
        let path = self.out_dir.join(format!("trace-{}.json", self.workload));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\": \"{}\", \"spans\": [", self.workload)?;
        for (i, s) in self.recorder.spans.iter().enumerate() {
            let comma = if i + 1 == self.recorder.spans.len() {
                ""
            } else {
                ","
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"round\":{},\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.id, s.parent, s.layer, s.name, s.round, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }

    pub fn span_count(&self) -> usize {
        self.recorder.spans.len()
    }
}

#[derive(Default)]
struct Persisted {
    bytes: u64,
    snapshot_ns: u64,
    restore_ns: u64,
    failure: Option<String>,
}
