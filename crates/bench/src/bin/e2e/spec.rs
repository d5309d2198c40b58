//! What the benchmark runs and what it reports: the workloads, the engine
//! configuration they share, and the metric lists. `BENCHMARK.json` at the
//! repo root repeats the contract workloads and the metric names; a unit
//! test keeps the two equal.

use estimators::{EstimatorConfig, EstimatorKind};
use geostream::synth::DatasetSpec;
use geostream::Duration;
use latest_core::{AblationConfig, LatestConfig, RouterPolicy, ShardConfig};

/// Identical passes per workload; each runs in its own child process.
/// Odd, so every call has a middle pass. Over 60 identical passes the
/// spread between groups fell with the square root of the group size
/// (README, "Noise"); nine is what the time cap leaves room for.
pub const PASSES: usize = 9;
/// Untraced reference passes beside the traced one in a `--trace 1` run.
pub const TRACE_REFERENCE_PASSES: usize = 2;
/// `--seconds` the round counts below are sized for (`run_seconds` in
/// `BENCHMARK.json`): at this value the measured phases of one
/// invocation's passes add up to about that long on the 2-vCPU host the
/// benchmark was sized on. Other values scale the rounds linearly —
/// fixed work, not a deadline, is what lets passes be stitched and
/// their outputs compared bit for bit.
pub const RUN_SECONDS: u64 = 20;
/// A traced pass replays every batch through thirteen more estimators
/// and times a dozen layer calls per sampled query, so a `--trace 1` run
/// covers this fraction of the rounds (its reference passes too).
pub const TRACE_ROUNDS_DIVISOR: usize = 4;
/// The façade ladder prices hops between rungs, which do not depend on
/// how much the window holds; ten more full-size set-ups would not fit
/// the time cap, so its rungs run at this fraction of the scale.
pub const LADDER_SCALE: f64 = 0.25;

/// Fewest measured rounds a pass runs, however small the scale.
pub const MIN_ROUNDS: usize = 16;

/// Stream time the window spans — and the warm-up lasts — at scale 1:
/// about 100 k standing objects at the Twitter preset's 250 objects/s.
pub const WINDOW_SECS: f64 = 400.0;
/// Pre-training queries at scale 1 and above; below, they shrink with the
/// scale like everything else, or the smoke tests would spend their time
/// measuring six estimators on each of them.
pub const PRETRAIN_QUERIES: usize = 300;
pub const MIN_PRETRAIN_QUERIES: usize = 16;
pub const RESERVOIR_CAPACITY: usize = 8_192;
/// Set-up: warm-up batches, then rounds of a small batch and one query
/// until pre-training is over and a few incremental queries have run.
pub const WARMUP_BATCH: usize = 1_024;
pub const PRETRAIN_BATCH: usize = 64;
/// Set-up rounds beyond the pre-training ones: the first incremental
/// queries, so the measured phase starts in the phase it stays in.
pub const SETTLE_ROUNDS: usize = 20;

/// `hot-batch`: size of a call's hot set and the share of batch slots
/// drawn from it.
pub const HOT_SET: usize = 16;
/// Hot-set queries per type, indexed by `QueryType::index` (spatial,
/// keyword, hybrid); sums to `HOT_SET`.
pub const HOT_QUOTA: [usize; 3] = [6, 5, 5];
pub const HOT_SHARE: f64 = 0.9;

/// `switch-storm`: a prefill is forced every this many queries and
/// activated half a period later; kinds rotate through `STORM_KINDS`.
/// One slot in 64 then carries an activation, so p99 lies well inside
/// the stall population instead of at its edge.
pub const STORM_PERIOD: usize = 64;
/// The kinds whose estimates cost tens of microseconds and whose builds
/// from a 100 k window cost 20-30 ms. Left out on measurement: AASP,
/// whose 2.8 ms estimate would make the workload a benchmark of
/// `AaspTree::estimate`, and H4096 and FFN, whose builds (1 ms, 0.1 ms)
/// finish before activation and so carry no stall.
pub const STORM_KINDS: [EstimatorKind; 3] =
    [EstimatorKind::Rsh, EstimatorKind::Rsl, EstimatorKind::Spn];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `latest_core::Latest`, driven directly.
    Plain,
    /// `latest_core::ShardedLatest` with this many shards; every ingest
    /// call is `ingest_batch` + `flush`.
    Sharded(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub engine: EngineKind,
    pub ingest_batch: usize,
    pub queries_per_round: usize,
    /// One `query_batch` call per round instead of one `query` per query.
    pub batched: bool,
    /// Force and activate prefills on a fixed query schedule.
    pub storm: bool,
    /// Leave the adaptor's own (threshold-driven) switching on.
    pub switching: bool,
    /// Measured rounds at scale 1 and `--seconds RUN_SECONDS`.
    pub rounds: usize,
    /// Whether `BENCHMARK.json` lists the workload, that is, whether the
    /// driver holds its end-to-end metrics to their bounds.
    pub contract: bool,
}

/// The contract workloads first, then the two that run only when named:
/// they are checked like the others but no bound holds them, because on
/// the sizing host nothing made them repeat (README, "Outside the
/// contract").
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "steady",
        why: "The single-threaded baseline with RSH employed: exactdb, the estimator kernel, the window and the feature/Hoeffding/monitor loop do all the work; cache, shard and prefill layers idle.",
        engine: EngineKind::Plain,
        ingest_batch: 256,
        queries_per_round: 8,
        batched: false,
        storm: false,
        switching: false,
        rounds: 2_048,
        contract: true,
    },
    Workload {
        name: "hot-batch",
        why: "Read-heavy 1:1 mix: query_batch(64) with 90% of slots from a 16-query hot set stresses cache in-batch collapse, execute_batch and the multi-query kernels.",
        engine: EngineKind::Plain,
        ingest_batch: 64,
        queries_per_round: 64,
        batched: true,
        storm: false,
        switching: false,
        rounds: 2_048,
        contract: true,
    },
    Workload {
        name: "switch-storm",
        why: "steady plus a forced estimator switch every 64 queries: prefill builder, window snapshot, delta log and activation replay set the p99; steady is its no-switch twin.",
        engine: EngineKind::Plain,
        ingest_batch: 256,
        queries_per_round: 8,
        batched: false,
        storm: true,
        switching: false,
        rounds: 640,
        contract: true,
    },
    Workload {
        name: "sharded-2",
        why: "steady's inputs through ShardedLatest with two shards and a flush per batch, so the difference is core::shard: route, FIFO hop, gather, merge.",
        engine: EngineKind::Sharded(2),
        ingest_batch: 256,
        queries_per_round: 8,
        batched: false,
        storm: false,
        switching: false,
        rounds: 512,
        // Three threads waking each other across two contended vCPUs:
        // identical passes ranged 5x in throughput on the sizing host.
        contract: false,
    },
    Workload {
        name: "adaptive",
        why: "steady with the adaptor's own switching on: thresholds, recommend_with, natural prefill, discard and activation run as the paper has them.",
        engine: EngineKind::Plain,
        ingest_batch: 256,
        queries_per_round: 8,
        batched: false,
        storm: false,
        switching: true,
        rounds: 2_048,
        // The query seed decides how often the monitor dips below the
        // threshold and to which estimator the engine moves: 1 to 6
        // switches and 11.9 k to 16.6 k queries/s over ten seeds.
        contract: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much of the nominal work one invocation does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    /// Multiplies rounds, window span and — below 1 — the pre-training
    /// queries (unit-test smoke: 0.02).
    pub scale: f64,
    /// Multiplies rounds only, as `seconds / RUN_SECONDS`.
    pub seconds: f64,
    /// Whether this is a `--trace 1` run (`TRACE_ROUNDS_DIVISOR`).
    pub traced: bool,
}

impl Sizing {
    pub fn window_span(&self) -> Duration {
        Duration::from_millis((WINDOW_SECS * self.scale * 1_000.0).round().max(1_000.0) as u64)
    }

    pub fn pretrain_queries(&self) -> usize {
        let scaled = (PRETRAIN_QUERIES as f64 * self.scale.min(1.0)).round() as usize;
        scaled.max(MIN_PRETRAIN_QUERIES)
    }

    /// Rounds of one small batch and one query that end the set-up.
    pub fn pretrain_rounds(&self) -> usize {
        self.pretrain_queries() + SETTLE_ROUNDS
    }

    /// Measured rounds; every pass of an invocation runs this many.
    pub fn rounds(&self, workload: &Workload) -> usize {
        let divisor = if self.traced { TRACE_ROUNDS_DIVISOR } else { 1 };
        let nominal = workload.rounds as f64 * self.scale * self.seconds
            / RUN_SECONDS as f64
            / divisor as f64;
        (nominal.round() as usize).max(MIN_ROUNDS)
    }
}

/// The configuration every workload's engine is built from.
///
/// `alpha = 0` takes wall-clock latency out of the reward, so nothing the
/// engine decides depends on how fast the host happens to be and every
/// output repeats bit for bit across passes.
///
/// Unless `switching`, the adaptor's own switching is off and RSH stays
/// employed (the forced switches of `switch-storm` bypass the thresholds
/// and still happen): mean accuracy sits at the default `tau`, so with it
/// on the seed decides how often a 48-query average dips below the
/// threshold and where the engine moves. The contract's acceptance check
/// is the spread over ten different seeds, which that breaks (see
/// `adaptive` above). The feature / Hoeffding / monitor loop still runs on
/// every query; `crates/bench/src/sharding_bench.rs` pins the estimator
/// for the same reason.
pub fn engine_config(
    dataset: &DatasetSpec,
    sizing: &Sizing,
    engine: EngineKind,
    switching: bool,
) -> LatestConfig {
    let span = sizing.window_span();
    let shards = match engine {
        EngineKind::Plain => 1,
        EngineKind::Sharded(n) => n,
    };
    LatestConfig::builder()
        .window_span(span)
        .warmup(span)
        .pretrain_queries(sizing.pretrain_queries())
        .alpha(0.0)
        .default_estimator(EstimatorKind::Rsh)
        .ablation(AblationConfig {
            switching,
            ..AblationConfig::default()
        })
        .estimator_config(EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: RESERVOIR_CAPACITY,
            ..EstimatorConfig::default()
        })
        .shard(ShardConfig {
            shards,
            queue_capacity: 8_192,
            router: RouterPolicy::HashOid,
        })
        .build()
        .expect("benchmark configuration is in range")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload. `error_rate` of
/// the issue's table is not in this list because it is 0 on a healthy run
/// and the benchmark contract wants metrics that never are: failures
/// travel as `failed` / `attempted` beside the metrics and fail the run.
///
/// The five timing metrics are in reference-host time (`probe.rs`), which
/// the `norm` in their names and the `ref_` in their units say; `setup_s`
/// is too, but the contract fixes its name and unit. What the stopwatch
/// read is in every result's `detail.raw`.
///
/// Bounds: 10 % on every timing metric, the most the issue allows, and so
/// the largest in the file, which is what the contract asks for `setup_s`.
/// `accuracy_mean` repeats bit for bit for a seed, but the contract's
/// acceptance check takes the spread over ten *different* seeds, 0.4-0.9 %
/// of the median here; 2 % clears that, and `check-repeat` holds runs of
/// equal seed to the issue's 0.005 absolute.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "ingest_norm_eps",
        unit: "1/ref_s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "query_norm_qps",
        unit: "1/ref_s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "query_p50_norm_us",
        unit: "ref_us",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "query_p99_norm_us",
        unit: "ref_us",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "accuracy_mean",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// Two runs of one seed may differ by this much in `accuracy_mean`
/// (absolute) before `check-repeat` calls it a breach: the issue's bound,
/// which only a comparison paired by seed can hold.
pub const ACCURACY_PAIRED_ABS: f64 = 0.005;

#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Short names of the six estimator kinds in metric names, in
/// `EstimatorKind::ALL` order.
pub fn kind_slug(kind: EstimatorKind) -> &'static str {
    match kind {
        EstimatorKind::H4096 => "h4096",
        EstimatorKind::Rsl => "rsl",
        EstimatorKind::Rsh => "rsh",
        EstimatorKind::Aasp => "aasp",
        EstimatorKind::Ffn => "ffn",
        EstimatorKind::Spn => "spn",
    }
}

/// Every per-layer metric a traced run emits, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out: Vec<PerLayer> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        out.push(PerLayer { name, unit, better });
    };
    add("window.insert_ns_per_obj".into(), "ns/obj", Lower);
    add("window.evicted_per_batch".into(), "count", Lower);
    add("window.snapshot_us".into(), "us", Lower);
    add("exactdb.upkeep_ns_per_obj".into(), "ns/obj", Lower);
    add("exactdb.execute_us.spatial".into(), "us", Lower);
    add("exactdb.execute_us.keyword".into(), "us", Lower);
    add("exactdb.execute_us.hybrid".into(), "us", Lower);
    add("exactdb.path_spatial_share".into(), "ratio", Higher);
    add("exactdb.execute_batch_us_per_query".into(), "us", Lower);
    for kind in EstimatorKind::ALL {
        let k = kind_slug(kind);
        add(format!("estimators.{k}.upkeep_ns_per_obj"), "ns/obj", Lower);
        add(format!("estimators.{k}.estimate_us"), "us", Lower);
        add(format!("estimators.{k}.build_ms"), "ms", Lower);
    }
    add(
        "estimators.rsh.estimate_batch_us_per_query".into(),
        "us",
        Lower,
    );
    add("hoeffding.train_us".into(), "us", Lower);
    add("hoeffding.predict_us".into(), "us", Lower);
    add("features.profile_ns".into(), "ns", Lower);
    add("adaptor.recommend_us".into(), "us", Lower);
    add("cache.lookup_ns".into(), "ns", Lower);
    add("cache.insert_ns".into(), "ns", Lower);
    add("cache.hit_ratio".into(), "ratio", Higher);
    add("cache.invalidations".into(), "count", Lower);
    add("pool.apply_batch_ns_per_obj".into(), "ns/obj", Lower);
    add("pool.measure_us".into(), "us", Lower);
    add("prefill.build_ms".into(), "ms", Lower);
    add("prefill.stall_us_mean".into(), "us", Lower);
    add("prefill.switches".into(), "count", Lower);
    add("prefill.cancelled".into(), "count", Lower);
    add("system.query_self_us".into(), "us", Lower);
    add("system.ingest_self_ns_per_obj".into(), "ns/obj", Lower);
    add("system.attributed_share".into(), "ratio", Higher);
    add("shard.route_object_ns".into(), "ns", Lower);
    add("shard.route_query_ns".into(), "ns", Lower);
    add("shard.fanout_mean".into(), "count", Lower);
    add("shard.object_skew".into(), "ratio", Lower);
    add("shard.hop_query_us".into(), "us", Lower);
    add("shard.hop_ingest_ns_per_obj".into(), "ns/obj", Lower);
    add("shard.query_2v1_ratio".into(), "ratio", Lower);
    add("concurrent.shared_query_us".into(), "us", Lower);
    add("serving.ticket_us".into(), "us", Lower);
    add("persist.snapshot_bytes".into(), "bytes", Lower);
    add("persist.snapshot_ms".into(), "ms", Lower);
    add("persist.restore_ms".into(), "ms", Lower);
    add("alloc.count_per_query".into(), "count", Lower);
    add("alloc.bytes_per_query".into(), "bytes", Lower);
    add("alloc.count_per_ingest_batch".into(), "count", Lower);
    add("alloc.bytes_per_ingest_batch".into(), "bytes", Lower);
    add("trace.overhead_ratio".into(), "ratio", Lower);
    add("host.pass_spread".into(), "ratio", Lower);
    add("host.steal_ms".into(), "ms", Lower);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_scale_linearly() {
        let steady = workload("steady").unwrap();
        let full = Sizing {
            scale: 1.0,
            seconds: RUN_SECONDS as f64,
            traced: false,
        };
        assert_eq!(full.rounds(steady), steady.rounds);
        assert_eq!(
            (full.pretrain_queries(), full.pretrain_rounds()),
            (300, 320)
        );
        let half = Sizing {
            seconds: RUN_SECONDS as f64 / 2.0,
            ..full
        };
        assert_eq!(half.rounds(steady), steady.rounds / 2);
        let tiny = Sizing {
            scale: 0.001,
            ..full
        };
        assert_eq!(tiny.rounds(steady), MIN_ROUNDS);
        assert_eq!(tiny.pretrain_queries(), MIN_PRETRAIN_QUERIES);
        let traced = Sizing {
            traced: true,
            ..full
        };
        assert_eq!(traced.rounds(steady), steady.rounds / TRACE_ROUNDS_DIVISOR);
    }

    #[test]
    fn every_emitted_name_is_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
        for name in &names {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
                "{name}"
            );
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(per_layer().iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.bytes()
                    .all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "{unit}"
            );
        }
    }
}
