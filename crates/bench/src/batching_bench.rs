//! Batched-execution benchmark: replays the same hot-heavy mixed query
//! stream through [`Latest::query`] one query at a time and through
//! [`Latest::query_batch`] at increasing batch sizes, and reports the
//! throughput curve (`--bench-json` → `BENCH_batching.json`).
//!
//! The replay models the deployment trade the batched API exists for: a
//! querier that accumulates `B` requests between window updates instead
//! of interleaving every request with arrivals. Arrivals are identical
//! across runs (a fixed number of objects per query slot); only the
//! granularity changes. One-at-a-time, every query lands on a freshly
//! changed window — the selectivity cache can never hit and every request
//! pays the full executor + learning path. Batched, the window changes
//! once per batch, so repeats of the hot set collapse onto in-batch cache
//! hits, the remaining misses share one grouped
//! [`ExactExecutor::execute_batch`](exactdb::ExactExecutor::execute_batch)
//! pass, and the estimates come from one multi-query kernel sweep.

use crate::experiments::Scale;
use estimators::{EstimatorConfig, EstimatorKind};
use geostream::synth::DatasetSpec;
use geostream::{Duration, KeywordId, Point, RcDvq, Rect, StreamRng};
use latest_core::{AblationConfig, Latest, LatestConfig, PhaseTag, QueryOptions};
use std::time::Instant;

/// Batch sizes the curve samples. `1` uses the single-query API;
/// everything else goes through `query_batch`.
pub const BATCH_SIZES: [usize; 5] = [1, 4, 16, 64, 256];

/// Distinct queries in the hot set.
const HOT_SET: usize = 8;
/// Probability (out of 20) that a slot draws from the hot set.
const HOT_IN_20: u32 = 19;
/// Stream arrivals per query slot.
const OBJECTS_PER_QUERY: usize = 4;
/// Standing window the replay queries against (scaled by `--scale`): the
/// exact path's cost grows with the window, which is what makes answer
/// reuse worth batching for in the first place.
const BASE_WINDOW: usize = 40_000;

/// One sampled point on the throughput curve.
#[derive(Debug, Clone, Copy)]
pub struct BatchPoint {
    pub batch_size: usize,
    /// Wall time spent inside the query calls (ingest excluded).
    pub query_ms: f64,
    /// Queries answered per second at this batch size.
    pub qps: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// The full report: replay geometry plus the curve.
#[derive(Debug, Clone)]
pub struct BatchingBenchReport {
    pub workload: &'static str,
    pub total_queries: usize,
    pub hot_set: usize,
    pub hot_ratio: f64,
    pub points: Vec<BatchPoint>,
    /// `qps(64) / qps(1)` — the headline the acceptance gate checks.
    pub speedup_at_64: f64,
}

fn config(dataset: &DatasetSpec) -> LatestConfig {
    LatestConfig::builder()
        .window_span(Duration::from_secs(3_600))
        .warmup(Duration::from_secs(60))
        .pretrain_queries(60)
        // Pin the serving estimator: a switch event rebuilds the
        // replacement from the standing window (multi-ms on 40k objects),
        // and switch timing is stochastic across replays — noise that
        // would swamp the steady-state batching effect this curve
        // isolates.
        .default_estimator(EstimatorKind::Rsh)
        .ablation(AblationConfig {
            switching: false,
            ..AblationConfig::default()
        })
        .estimator_config(EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 4_096,
            ..EstimatorConfig::default()
        })
        .build()
        .expect("benchmark parameters are in range")
}

/// The hot-heavy mixed query stream: mostly repeats of a small hot set of
/// region queries (the dashboard / monitoring pattern batching targets),
/// salted with cold one-off queries of every shape.
fn query_stream(rng: &mut StreamRng, domain: &Rect, total: usize) -> Vec<RcDvq> {
    let hot: Vec<RcDvq> = (0..HOT_SET)
        .map(|i| make_hot_query(rng, domain, i))
        .collect();
    (0..total)
        .map(|i| {
            if rng.gen_range_u32(0..20) < HOT_IN_20 {
                hot[rng.gen_range_usize(0..HOT_SET)].clone()
            } else {
                // Cold: a fresh query that will not repeat.
                make_query(rng, domain, HOT_SET + i)
            }
        })
        .collect()
}

/// A hot-set entry: a wide spatial or hybrid region watch, the kind of
/// repeated query whose exact count is expensive on a large window.
fn make_hot_query(rng: &mut StreamRng, domain: &Rect, salt: usize) -> RcDvq {
    let cx = rng.gen_range_f64(domain.min_x..domain.max_x);
    let cy = rng.gen_range_f64(domain.min_y..domain.max_y);
    let half = rng.gen_range_f64(4.0..10.0);
    let rect = Rect::centered_clamped(Point::new(cx, cy), half, half, domain);
    if salt.is_multiple_of(2) {
        RcDvq::spatial(rect)
    } else {
        RcDvq::hybrid(rect, vec![KeywordId(rng.gen_range_u32(0..100))])
    }
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

/// Builds a system, drives it into the incremental phase on a standing
/// window of `window` objects, and replays the query stream at
/// `batch_size`, timing only the query calls.
fn replay(
    dataset: &DatasetSpec,
    queries: &[RcDvq],
    window: usize,
    batch_size: usize,
) -> BatchPoint {
    let mut latest = Latest::new(config(dataset));
    let mut gen = dataset.generator();
    while latest.phase() == PhaseTag::WarmUp {
        latest.ingest(gen.next_object());
    }
    // Pre-train on a side stream of queries so the replay below runs
    // entirely in the incremental phase.
    let mut rng = StreamRng::seed_from_u64(7);
    while latest.phase() == PhaseTag::PreTraining {
        latest.ingest(gen.next_object());
        let q = make_query(&mut rng, &dataset.domain, 1_000);
        let _ = latest.query(&q, QueryOptions::at(gen.clock()));
    }
    // Fill the standing window the replay queries against.
    while latest.window_len() < window {
        latest.ingest(gen.next_object());
    }

    let before = latest.metrics_snapshot();
    let mut query_secs = 0.0f64;
    for batch in queries.chunks(batch_size) {
        for _ in 0..batch.len() * OBJECTS_PER_QUERY {
            latest.ingest(gen.next_object());
        }
        let opts = QueryOptions::at(gen.clock());
        let start = Instant::now();
        if batch_size == 1 {
            let out = latest.query(&batch[0], opts);
            std::hint::black_box(out.estimate);
        } else {
            let outs = latest.query_batch(batch, opts);
            std::hint::black_box(outs.len());
        }
        query_secs += start.elapsed().as_secs_f64();
    }
    let after = latest.metrics_snapshot();
    BatchPoint {
        batch_size,
        query_ms: query_secs * 1_000.0,
        qps: queries.len() as f64 / query_secs.max(1e-9),
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
    }
}

/// Runs the measurement. The floor keeps even tiny `--scale` runs at a
/// multiple of the largest batch size.
pub fn run(scale: Scale) -> BatchingBenchReport {
    let max_batch = BATCH_SIZES[BATCH_SIZES.len() - 1];
    let total = (((2_048.0 * scale.0) as usize).max(512) / max_batch).max(2) * max_batch;
    let window = ((BASE_WINDOW as f64 * scale.0) as usize).max(8_000);
    let dataset = DatasetSpec::twitter();
    let mut rng = StreamRng::seed_from_u64(42);
    let queries = query_stream(&mut rng, &dataset.domain, total);
    let points: Vec<BatchPoint> = BATCH_SIZES
        .iter()
        .map(|&b| replay(&dataset, &queries, window, b))
        .collect();
    let qps_at = |b: usize| {
        points
            .iter()
            .find(|p| p.batch_size == b)
            .map_or(0.0, |p| p.qps)
    };
    BatchingBenchReport {
        workload: "twitter hot-mixed",
        total_queries: total,
        hot_set: HOT_SET,
        hot_ratio: f64::from(HOT_IN_20) / 20.0,
        speedup_at_64: qps_at(64) / qps_at(1).max(1e-9),
        points,
    }
}

impl BatchingBenchReport {
    /// Human-readable throughput table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== Batching bench: throughput vs batch size ==\n");
        out.push_str(&format!(
            "workload {} ({} queries, hot set {} at {:.0}% of the mix)\n",
            self.workload,
            self.total_queries,
            self.hot_set,
            self.hot_ratio * 100.0
        ));
        out.push_str("batch      qps   query_ms   cache hit/miss\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:>5} {:>8.0} {:>10.2}   {}/{}\n",
                p.batch_size, p.qps, p.query_ms, p.cache_hits, p.cache_misses
            ));
        }
        out.push_str(&format!(
            "speedup at batch 64 vs one-at-a-time: {:.1}x\n",
            self.speedup_at_64
        ));
        out
    }

    /// JSON form for `BENCH_batching.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("\"workload\": \"{}\",\n", self.workload));
        s.push_str(&format!("\"total_queries\": {},\n", self.total_queries));
        s.push_str(&format!("\"hot_set\": {},\n", self.hot_set));
        s.push_str(&format!("\"hot_ratio\": {},\n", self.hot_ratio));
        s.push_str("\"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            s.push_str(&format!(
                "{{\"batch_size\": {}, \"qps\": {:.1}, \"query_ms\": {:.3}, \"cache_hits\": {}, \"cache_misses\": {}}}{}\n",
                p.batch_size,
                p.qps,
                p.query_ms,
                p.cache_hits,
                p.cache_misses,
                if i + 1 == self.points.len() { "" } else { "," }
            ));
        }
        s.push_str("],\n");
        s.push_str(&format!("\"speedup_at_64\": {:.2}\n", self.speedup_at_64));
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_covers_every_batch_size_and_caches_in_batch() {
        let report = run(Scale(0.25)); // floor: 512 queries
        assert_eq!(report.points.len(), BATCH_SIZES.len());
        assert_eq!(report.total_queries % 256, 0);
        for (p, want) in report.points.iter().zip(BATCH_SIZES) {
            assert_eq!(p.batch_size, want);
            assert!(p.qps > 0.0);
            assert_eq!(
                p.cache_hits + p.cache_misses,
                report.total_queries as u64,
                "every replayed query consults the cache"
            );
        }
        // One-at-a-time the window changes before every query, so the
        // cache can never hit; batched, the hot set collapses in-batch.
        assert_eq!(report.points[0].cache_hits, 0);
        let at_64 = &report.points[3];
        assert!(
            at_64.cache_hits > at_64.cache_misses,
            "hot-heavy mix must mostly hit in-batch ({} hits / {} misses)",
            at_64.cache_hits,
            at_64.cache_misses
        );
    }

    #[test]
    fn json_is_balanced_and_text_renders() {
        let report = run(Scale(0.25));
        let json = report.to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in batching JSON"
        );
        assert!(json.contains("\"speedup_at_64\""));
        assert!(json.contains("\"points\""));
        let text = report.render_text();
        assert!(text.contains("speedup at batch 64"));
    }
}
