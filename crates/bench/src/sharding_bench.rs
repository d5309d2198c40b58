//! Sharded-serving benchmark: replays one deterministic Twitter stream
//! through [`ShardedLatest`] at increasing shard counts plus an unsharded
//! [`Latest`] baseline, and reports the ingest/query throughput curves
//! (`--bench-json` → `BENCH_sharding.json`).
//!
//! Two measurements per engine, on identical pre-generated work so only
//! the shard count varies:
//!
//! - **ingest**: batches of 256 objects through `ingest_batch`, closed by
//!   a [`ShardedLatest::flush`] barrier so the clock stops only after
//!   every shard has drained its queue — enqueue speed alone never counts.
//! - **query**: scatter-gather `query_batch` calls of 16 mixed queries;
//!   gathering replies is inherently synchronous, each call blocks until
//!   every fanned-out shard has answered.
//!
//! The headline numbers the acceptance gate checks: `shards = 1` stays
//! within a small constant factor of the unsharded baseline (the cost of
//! one channel hop), and ingest scales with shard count up to the host's
//! parallelism. On a core-clamped CI host the curve flattens at the clamp
//! — `render_text` prints the host parallelism next to the curve so a
//! flat tail reads as queue-bound, not as a scaling regression.

use crate::experiments::Scale;
use estimators::{EstimatorConfig, EstimatorKind};
use geostream::synth::DatasetSpec;
use geostream::{Duration, GeoTextObject, KeywordId, Point, RcDvq, Rect, StreamRng, Timestamp};
use latest_core::{
    AblationConfig, Latest, LatestConfig, QueryOptions, RouterPolicy, ShardConfig, ShardedLatest,
};
use std::time::Instant;

/// Shard counts the curve samples, alongside the unsharded baseline.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Objects per ingest batch — large enough to amortize the channel hop,
/// small enough that the per-batch eviction clock still ticks often.
const INGEST_BATCH: usize = 256;
/// Queries per scatter-gather call.
const QUERY_BATCH: usize = 16;

/// One engine's measured throughput.
#[derive(Debug, Clone, Copy)]
pub struct ShardPoint {
    pub shards: usize,
    /// Objects ingested per second (flush barrier included).
    pub ingest_eps: f64,
    /// Queries answered per second through scatter-gather.
    pub query_qps: f64,
    /// `ingest_eps / ingest_eps(shards = 1)`.
    pub ingest_speedup: f64,
    /// `query_qps / query_qps(shards = 1)`.
    pub query_speedup: f64,
}

/// The full report: replay geometry, host parallelism, the unsharded
/// baseline, and the per-shard-count curve.
#[derive(Debug, Clone)]
pub struct ShardingBenchReport {
    pub workload: &'static str,
    pub router: &'static str,
    pub objects: usize,
    pub queries: usize,
    /// `std::thread::available_parallelism()` on the measuring host —
    /// the ceiling past which more shards cannot scale.
    pub host_parallelism: usize,
    pub baseline_ingest_eps: f64,
    pub baseline_query_qps: f64,
    pub points: Vec<ShardPoint>,
    /// `ingest_eps(shards = 1) / baseline_ingest_eps` — the overhead of
    /// the shard indirection itself; the acceptance gate wants ≈ 1.
    pub shards1_vs_baseline: f64,
}

fn config(dataset: &DatasetSpec, shards: usize) -> LatestConfig {
    LatestConfig::builder()
        .window_span(Duration::from_secs(30))
        .warmup(Duration::from_secs(10))
        .pretrain_queries(12)
        // Pin the serving estimator: switch timing is stochastic across
        // replays and a switch rebuilds from the standing window — noise
        // that would swamp the scaling effect this curve isolates.
        .default_estimator(EstimatorKind::Rsh)
        .ablation(AblationConfig {
            switching: false,
            ..AblationConfig::default()
        })
        .estimator_config(EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 2_048,
            ..EstimatorConfig::default()
        })
        .shard(ShardConfig {
            shards,
            queue_capacity: 8_192,
            router: RouterPolicy::HashOid,
        })
        .build()
        .expect("benchmark parameters are in range")
}

fn make_query(rng: &mut StreamRng, domain: &Rect, salt: usize) -> RcDvq {
    let cx = rng.gen_range_f64(domain.min_x..domain.max_x);
    let cy = rng.gen_range_f64(domain.min_y..domain.max_y);
    let half = rng.gen_range_f64(1.0..5.0);
    let rect = Rect::centered_clamped(Point::new(cx, cy), half, half, domain);
    match salt % 3 {
        0 => RcDvq::spatial(rect),
        1 => RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..100))]),
        _ => RcDvq::hybrid(rect, vec![KeywordId(rng.gen_range_u32(0..100))]),
    }
}

/// The pre-generated deterministic work every engine replays: priming
/// batches (warm-up + pre-training), measured ingest batches, and the
/// measured query stream with its pinned evaluation time.
struct Workload {
    prime: Vec<Vec<GeoTextObject>>,
    prime_queries: Vec<RcDvq>,
    measured: Vec<Vec<GeoTextObject>>,
    queries: Vec<RcDvq>,
    /// Stream horizon after the last measured batch; all query batches
    /// pin to it so every engine answers at the same virtual time.
    at: Timestamp,
}

fn build_workload(dataset: &DatasetSpec, objects: usize, queries: usize) -> Workload {
    let mut gen = dataset.generator();
    // Warm-up (10 s of stream time) plus enough arrivals to pre-train on.
    let mut prime = Vec::new();
    while gen.clock().0 < 12_000 {
        prime.push((0..INGEST_BATCH).map(|_| gen.next_object()).collect());
    }
    let mut rng = StreamRng::seed_from_u64(0x5A4D);
    let prime_queries: Vec<RcDvq> = (0..2 * QUERY_BATCH)
        .map(|i| make_query(&mut rng, &dataset.domain, i))
        .collect();
    let measured: Vec<Vec<GeoTextObject>> = (0..objects / INGEST_BATCH)
        .map(|_| (0..INGEST_BATCH).map(|_| gen.next_object()).collect())
        .collect();
    let queries = (0..queries)
        .map(|i| make_query(&mut rng, &dataset.domain, i))
        .collect();
    Workload {
        prime,
        prime_queries,
        measured,
        queries,
        at: gen.clock(),
    }
}

/// Measures one sharded engine: prime through warm-up and pre-training,
/// then time the ingest replay (with a flush barrier) and the query
/// replay.
fn measure_sharded(dataset: &DatasetSpec, shards: usize, work: &Workload) -> (f64, f64) {
    let engine = ShardedLatest::new(config(dataset, shards)).expect("shards spawn");
    for batch in &work.prime {
        engine.ingest_batch(batch).expect("shards are live");
    }
    // Fanned-out priming queries advance every shard's pre-training in
    // lock-step (a hash-routed query is measured on all shards).
    for chunk in work.prime_queries.chunks(QUERY_BATCH) {
        let _ = engine.query_batch(chunk, QueryOptions::new());
    }

    let start = Instant::now();
    for batch in &work.measured {
        engine.ingest_batch(batch).expect("shards are live");
    }
    engine.flush().expect("shards are live");
    let ingest_secs = start.elapsed().as_secs_f64();

    let opts = QueryOptions::at(work.at);
    let start = Instant::now();
    for chunk in work.queries.chunks(QUERY_BATCH) {
        let outs = engine.query_batch(chunk, opts).expect("shards are live");
        std::hint::black_box(outs.len());
    }
    let query_secs = start.elapsed().as_secs_f64();
    engine.shutdown();

    let objects: usize = work.measured.iter().map(Vec::len).sum();
    (
        objects as f64 / ingest_secs.max(1e-9),
        work.queries.len() as f64 / query_secs.max(1e-9),
    )
}

/// The unsharded control: the identical replay through a plain `Latest`.
fn measure_baseline(dataset: &DatasetSpec, work: &Workload) -> (f64, f64) {
    let mut latest = Latest::new(config(dataset, 1));
    for batch in &work.prime {
        latest.ingest_batch(batch);
    }
    for chunk in work.prime_queries.chunks(QUERY_BATCH) {
        let _ = latest.query_batch(chunk, QueryOptions::new());
    }

    let start = Instant::now();
    for batch in &work.measured {
        latest.ingest_batch(batch);
    }
    let ingest_secs = start.elapsed().as_secs_f64();

    let opts = QueryOptions::at(work.at);
    let start = Instant::now();
    for chunk in work.queries.chunks(QUERY_BATCH) {
        let outs = latest.query_batch(chunk, opts);
        std::hint::black_box(outs.len());
    }
    let query_secs = start.elapsed().as_secs_f64();

    let objects: usize = work.measured.iter().map(Vec::len).sum();
    (
        objects as f64 / ingest_secs.max(1e-9),
        work.queries.len() as f64 / query_secs.max(1e-9),
    )
}

/// Runs the measurement. Floors keep even tiny `--scale` runs at a
/// multiple of the batch sizes.
pub fn run(scale: Scale) -> ShardingBenchReport {
    let objects = (((40_000.0 * scale.0) as usize).max(2_048) / INGEST_BATCH).max(4) * INGEST_BATCH;
    let queries = (((1_024.0 * scale.0) as usize).max(64) / QUERY_BATCH).max(2) * QUERY_BATCH;
    let dataset = DatasetSpec::twitter();
    let work = build_workload(&dataset, objects, queries);

    let (baseline_ingest_eps, baseline_query_qps) = measure_baseline(&dataset, &work);
    let raw: Vec<(usize, f64, f64)> = SHARD_COUNTS
        .iter()
        .map(|&s| {
            let (eps, qps) = measure_sharded(&dataset, s, &work);
            (s, eps, qps)
        })
        .collect();
    let (one_eps, one_qps) = (raw[0].1, raw[0].2);
    let points = raw
        .iter()
        .map(|&(shards, eps, qps)| ShardPoint {
            shards,
            ingest_eps: eps,
            query_qps: qps,
            ingest_speedup: eps / one_eps.max(1e-9),
            query_speedup: qps / one_qps.max(1e-9),
        })
        .collect();
    ShardingBenchReport {
        workload: "twitter mixed",
        router: RouterPolicy::HashOid.name(),
        objects,
        queries,
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        baseline_ingest_eps,
        baseline_query_qps,
        points,
        shards1_vs_baseline: one_eps / baseline_ingest_eps.max(1e-9),
    }
}

impl ShardingBenchReport {
    /// Human-readable scaling table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== Sharding bench: throughput vs shard count ==\n");
        out.push_str(&format!(
            "workload {} ({} objects, {} queries, {} router)\n",
            self.workload, self.objects, self.queries, self.router
        ));
        out.push_str(&format!(
            "host parallelism: {} cores",
            self.host_parallelism
        ));
        let max_shards = SHARD_COUNTS[SHARD_COUNTS.len() - 1];
        if self.host_parallelism < max_shards + 1 {
            // +1: the caller thread that feeds and gathers.
            out.push_str(" — CLAMPED below the widest point; curves past the clamp are queue-bound, not core-bound");
        }
        out.push('\n');
        out.push_str(&format!(
            "unsharded baseline: {:>8.0} eps {:>8.0} qps\n",
            self.baseline_ingest_eps, self.baseline_query_qps
        ));
        out.push_str("shards  ingest_eps  speedup  query_qps  speedup\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:>6} {:>11.0} {:>7.2}x {:>10.0} {:>7.2}x\n",
                p.shards, p.ingest_eps, p.ingest_speedup, p.query_qps, p.query_speedup
            ));
        }
        out.push_str(&format!(
            "shards=1 vs unsharded ingest: {:.2}x\n",
            self.shards1_vs_baseline
        ));
        out
    }

    /// JSON form for `BENCH_sharding.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("\"workload\": \"{}\",\n", self.workload));
        s.push_str(&format!("\"router\": \"{}\",\n", self.router));
        s.push_str(&format!("\"objects\": {},\n", self.objects));
        s.push_str(&format!("\"queries\": {},\n", self.queries));
        s.push_str(&format!(
            "\"host_parallelism\": {},\n",
            self.host_parallelism
        ));
        s.push_str(&format!(
            "\"baseline\": {{\"ingest_eps\": {:.1}, \"query_qps\": {:.1}}},\n",
            self.baseline_ingest_eps, self.baseline_query_qps
        ));
        s.push_str("\"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            s.push_str(&format!(
                "{{\"shards\": {}, \"ingest_eps\": {:.1}, \"query_qps\": {:.1}, \"ingest_speedup\": {:.3}, \"query_speedup\": {:.3}}}{}\n",
                p.shards,
                p.ingest_eps,
                p.query_qps,
                p.ingest_speedup,
                p.query_speedup,
                if i + 1 == self.points.len() { "" } else { "," }
            ));
        }
        s.push_str("],\n");
        s.push_str(&format!(
            "\"shards1_vs_baseline\": {:.3}\n",
            self.shards1_vs_baseline
        ));
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_covers_every_shard_count() {
        let report = run(Scale(0.05));
        assert_eq!(report.points.len(), SHARD_COUNTS.len());
        for (p, want) in report.points.iter().zip(SHARD_COUNTS) {
            assert_eq!(p.shards, want);
            assert!(p.ingest_eps > 0.0);
            assert!(p.query_qps > 0.0);
        }
        assert!(report.baseline_ingest_eps > 0.0);
        assert!(report.shards1_vs_baseline > 0.0);
        assert!((report.points[0].ingest_speedup - 1.0).abs() < 1e-9);
        assert!(report.host_parallelism >= 1);
    }

    #[test]
    fn json_is_balanced_and_text_renders() {
        let report = run(Scale(0.05));
        let json = report.to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in sharding JSON"
        );
        assert!(json.contains("\"host_parallelism\""));
        assert!(json.contains("\"shards1_vs_baseline\""));
        let text = report.render_text();
        assert!(text.contains("shards=1 vs unsharded"));
    }
}
