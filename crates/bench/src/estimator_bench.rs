//! Standalone sampling-estimator benchmark with machine-readable output.
//!
//! Windowed ingest throughput plus per-query-type estimate latency for
//! every [`SampleStore`]-backed estimator. It runs inside the
//! `experiments` binary and can serialize its report as JSON
//! (`--bench-json` → `BENCH_estimators.json`), so CI and the docs can diff
//! measured numbers.
//!
//! A `scan_baseline` arm replays the pre-refactor storage verbatim
//! (`Vec<GeoTextObject>` + `HashMap` slot index, linear-scan estimates,
//! identical algorithm-R RNG stream to RSL): the per-query speedup block
//! at the bottom of the report is RSL's kernels measured against that
//! baseline on the *same* sample membership, which makes the estimates
//! of the two arms — and therefore the work counted — directly
//! comparable.
//!
//! [`SampleStore`]: estimators::store::SampleStore

use crate::experiments::Scale;
use estimators::equidepth::EquiDepthGrid;
use estimators::reservoir::ReservoirList;
use estimators::reservoir_hash::ReservoirHash;
use estimators::spn::SpnEstimator;
use estimators::windowed::WindowedSampler;
use estimators::{EstimatorConfig, SelectivityEstimator};
use geostream::synth::DatasetSpec;
use geostream::{GeoTextObject, KeywordId, ObjectId, RcDvq, Rect, StreamRng};
use std::collections::HashMap;
use std::time::Instant;

/// The pre-refactor array-of-structs reservoir: per-object `clone` into a
/// `Vec<GeoTextObject>`, `HashMap` slot index, linear `query.matches`
/// scan per estimate. Kept here as the measured "before" arm.
struct ScanBaseline {
    capacity: usize,
    sample: Vec<GeoTextObject>,
    index: HashMap<ObjectId, usize>,
    seen: u64,
    population: u64,
    rng: StreamRng,
}

impl ScanBaseline {
    fn new(config: &EstimatorConfig) -> Self {
        ScanBaseline {
            capacity: config.scaled_reservoir(),
            sample: Vec::new(),
            index: HashMap::new(),
            seen: 0,
            population: 0,
            rng: StreamRng::seed_from_u64(config.seed ^ 0x5151),
        }
    }

    fn insert(&mut self, obj: &GeoTextObject) {
        self.population += 1;
        self.seen += 1;
        if self.sample.len() < self.capacity {
            self.index.insert(obj.oid, self.sample.len());
            self.sample.push(obj.clone());
        } else {
            let j = self.rng.gen_range_u64(0..self.seen);
            if (j as usize) < self.capacity {
                let slot = j as usize;
                self.index.remove(&self.sample[slot].oid);
                self.index.insert(obj.oid, slot);
                self.sample[slot] = obj.clone();
            }
        }
    }

    fn remove(&mut self, obj: &GeoTextObject) {
        self.population = self.population.saturating_sub(1);
        if let Some(slot) = self.index.remove(&obj.oid) {
            self.sample.swap_remove(slot);
            if slot < self.sample.len() {
                self.index.insert(self.sample[slot].oid, slot);
            }
        }
    }

    fn estimate(&self, query: &RcDvq) -> f64 {
        if self.sample.is_empty() {
            return 0.0;
        }
        let matches = self.sample.iter().filter(|o| query.matches(o)).count();
        matches as f64 / self.sample.len() as f64 * self.population as f64
    }
}

impl SelectivityEstimator for ScanBaseline {
    fn kind(&self) -> estimators::EstimatorKind {
        estimators::EstimatorKind::Rsl
    }

    fn insert(&mut self, obj: &GeoTextObject) {
        ScanBaseline::insert(self, obj);
    }

    fn remove(&mut self, obj: &GeoTextObject) {
        ScanBaseline::remove(self, obj);
    }

    fn estimate(&self, query: &RcDvq) -> f64 {
        ScanBaseline::estimate(self, query)
    }

    fn memory_bytes(&self) -> usize {
        self.sample.iter().map(|o| o.approx_bytes()).sum::<usize>()
            + self.index.len() * (std::mem::size_of::<ObjectId>() + std::mem::size_of::<usize>())
            + std::mem::size_of::<Self>()
    }

    fn clear(&mut self) {
        self.sample.clear();
        self.index.clear();
        self.seen = 0;
        self.population = 0;
    }

    fn population(&self) -> u64 {
        self.population
    }

    fn persist_state(&self, _w: &mut geostream::PersistWriter) {
        // LINT-ALLOW(no-panic): the scan baseline is a bench-harness
        // control that never enters a LATEST pool, so no snapshot path can
        // reach it — a call here is a harness bug, not a runtime state.
        unreachable!("ScanBaseline is a measurement control and is never snapshotted");
    }
}

/// One query shape's measurement on one estimator arm.
#[derive(Debug, Clone)]
pub struct QueryStat {
    pub label: &'static str,
    /// Mean estimate latency, microseconds.
    pub mean_us: f64,
    /// The estimate itself — sanity anchor for cross-run comparisons
    /// (`scan_baseline` and `rsl` share a seed, so theirs must be equal).
    pub estimate: f64,
}

/// One estimator arm's measurements at one sample size.
#[derive(Debug, Clone)]
pub struct EstimatorStats {
    pub estimator: &'static str,
    /// Objects retained in the sample after the replay.
    pub sample_len: usize,
    /// Wall time of the windowed ingest replay, milliseconds.
    pub ingest_ms: f64,
    /// Ingest throughput over the replay (inserts + evictions per second).
    pub ingest_ops_per_sec: f64,
    /// Posting-list compactions performed during the replay (0 for arms
    /// without a posting index).
    pub compactions: u64,
    pub queries: Vec<QueryStat>,
}

/// All arms at one sample size.
#[derive(Debug, Clone)]
pub struct SizeStats {
    pub sample_capacity: usize,
    pub stream: usize,
    pub estimators: Vec<EstimatorStats>,
}

/// RSL kernels vs the scan baseline for one query shape at one size.
#[derive(Debug, Clone)]
pub struct Speedup {
    pub sample_capacity: usize,
    pub label: &'static str,
    pub speedup: f64,
}

/// The full report: per-size arms plus the RSL-vs-scan speedup block.
#[derive(Debug, Clone)]
pub struct EstimatorBenchReport {
    pub iters_per_query: usize,
    pub sizes: Vec<SizeStats>,
    pub speedups: Vec<Speedup>,
}

/// Picks query keywords from the *final window* of the stream: the
/// twitter preset drifts its hot terms over time, so fixed low ids go
/// stale on long streams and would benchmark empty posting lists. Rank 2
/// is a hot term, ranks 9 and 17 mid-frequency ones (0-based, clamped).
fn query_keywords(window_objects: &[GeoTextObject]) -> [KeywordId; 3] {
    let mut freq: HashMap<KeywordId, usize> = HashMap::new();
    for o in window_objects {
        for &kw in o.keywords.iter() {
            *freq.entry(kw).or_default() += 1;
        }
    }
    let mut ranked: Vec<(KeywordId, usize)> = freq.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
    let pick = |rank: usize| ranked[rank.min(ranked.len().saturating_sub(1))].0;
    [pick(2), pick(9), pick(17)]
}

/// The query shapes measured per arm (same shapes as `exactdb`'s bench;
/// keyword ids come from the live window, see [`query_keywords`]).
fn query_set(dataset: &DatasetSpec, kws: [KeywordId; 3]) -> Vec<(&'static str, RcDvq)> {
    let center = dataset.spatial_model().hotspots()[0].center;
    let rect = Rect::centered_clamped(center, 2.0, 1.5, &dataset.domain);
    let small = Rect::centered_clamped(center, 0.4, 0.3, &dataset.domain);
    vec![
        ("spatial", RcDvq::spatial(rect)),
        ("keyword1", RcDvq::keyword(vec![kws[0]])),
        ("keyword3", RcDvq::keyword(kws.to_vec())),
        ("hybrid1", RcDvq::hybrid(rect, vec![kws[0]])),
        ("hybrid3", RcDvq::hybrid(rect, kws.to_vec())),
        ("hybrid_small", RcDvq::hybrid(small, kws.to_vec())),
    ]
}

/// The shared replay recipe for one sample size: the object stream, the
/// eviction window, and the query shapes timed against each arm.
struct Replay<'a> {
    objects: &'a [GeoTextObject],
    window: usize,
    queries: &'a [(&'static str, RcDvq)],
    iters: usize,
}

/// Replays a windowed stream through `insert`/`remove` and measures every
/// query shape. `sample_len` and `compactions` are read after the replay.
fn measure_arm<E: SelectivityEstimator>(
    estimator: &'static str,
    e: &mut E,
    sample_len: impl Fn(&E) -> usize,
    compactions: impl Fn(&E) -> u64,
    replay: &Replay,
) -> EstimatorStats {
    let start = Instant::now();
    for (i, o) in replay.objects.iter().enumerate() {
        e.insert(o);
        if i >= replay.window {
            e.remove(&replay.objects[i - replay.window]);
        }
    }
    let ingest_ms = start.elapsed().as_secs_f64() * 1_000.0;
    let ops = (replay.objects.len() + replay.objects.len().saturating_sub(replay.window)) as f64;
    let mut stats = Vec::new();
    for (label, q) in replay.queries {
        let est = e.estimate(q);
        let start = Instant::now();
        for _ in 0..replay.iters {
            std::hint::black_box(e.estimate(q));
        }
        let mean_us = start.elapsed().as_secs_f64() * 1e6 / replay.iters as f64;
        stats.push(QueryStat {
            label,
            mean_us,
            estimate: est,
        });
    }
    EstimatorStats {
        estimator,
        sample_len: sample_len(e),
        ingest_ms,
        ingest_ops_per_sec: ops / (ingest_ms / 1_000.0),
        compactions: compactions(e),
        queries: stats,
    }
}

/// Runs the full measurement. `scale` stretches the sample sizes (1.0 →
/// 10K and 100K-object samples; the stream is 1.5× the eviction window).
pub fn run(scale: Scale) -> EstimatorBenchReport {
    let iters = 200usize;
    let dataset = DatasetSpec::twitter();
    let sizes_cfg = [
        ((10_000.0 * scale.0) as usize).max(512),
        ((100_000.0 * scale.0) as usize).max(2_048),
    ];
    let mut sizes = Vec::new();
    let mut speedups = Vec::new();

    for capacity in sizes_cfg {
        // Window 2× the sample so removals hit sampled objects; stream
        // 1.5× the window so eviction churn recycles slots.
        let window = capacity * 2;
        let stream = window + window / 2;
        let objects: Vec<GeoTextObject> = dataset.generator().take(stream).collect();
        let queries = query_set(&dataset, query_keywords(&objects[stream - window..]));
        let config = EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: capacity,
            ..EstimatorConfig::default()
        };

        let replay = Replay {
            objects: &objects,
            window,
            queries: &queries,
            iters,
        };
        let arms = vec![
            measure_arm(
                "scan_baseline",
                &mut ScanBaseline::new(&config),
                |e| e.sample.len(),
                |_| 0,
                &replay,
            ),
            measure_arm(
                "rsl",
                &mut ReservoirList::new(&config),
                |e| e.sample_len(),
                |e| e.store().compactions(),
                &replay,
            ),
            measure_arm(
                "rsh",
                &mut ReservoirHash::new(&config),
                |e| e.sample_len(),
                |e| e.store().compactions(),
                &replay,
            ),
            measure_arm(
                "windowed",
                &mut WindowedSampler::new(&config),
                |e| e.sample_len(),
                |e| e.store().compactions(),
                &replay,
            ),
            measure_arm(
                "equidepth",
                &mut EquiDepthGrid::new(&config),
                |e| e.store().len(),
                |_| 0,
                &replay,
            ),
            measure_arm(
                "spn",
                &mut SpnEstimator::new(&config),
                |e| e.store().len(),
                |e| e.store().compactions(),
                &replay,
            ),
        ];

        // RSL vs scan baseline: identical seed and algorithm-R stream →
        // identical sample membership, so the latency ratio is pure
        // kernel-vs-scan.
        let baseline = &arms[0];
        let rsl = &arms[1];
        for (b, r) in baseline.queries.iter().zip(rsl.queries.iter()) {
            speedups.push(Speedup {
                sample_capacity: capacity,
                label: b.label,
                speedup: b.mean_us / r.mean_us.max(1e-9),
            });
        }

        sizes.push(SizeStats {
            sample_capacity: capacity,
            stream,
            estimators: arms,
        });
    }
    EstimatorBenchReport {
        iters_per_query: iters,
        sizes,
        speedups,
    }
}

impl EstimatorBenchReport {
    /// Human-readable table (the `estimator-bench` experiment output).
    pub fn render_text(&self) -> String {
        let mut out = String::from("== estimator hot path ==\n");
        for s in &self.sizes {
            out.push_str(&format!(
                "-- sample capacity {} / stream {} --\n",
                s.sample_capacity, s.stream
            ));
            out.push_str("estimator\tsample_len\tingest_ms\tingest_ops_s\tcompactions\n");
            for a in &s.estimators {
                out.push_str(&format!(
                    "{}\t{}\t{:.1}\t{:.0}\t{}\n",
                    a.estimator, a.sample_len, a.ingest_ms, a.ingest_ops_per_sec, a.compactions
                ));
            }
            out.push_str("estimator\tquery\tmean_us\testimate\n");
            for a in &s.estimators {
                for q in &a.queries {
                    out.push_str(&format!(
                        "{}\t{}\t{:.2}\t{:.1}\n",
                        a.estimator, q.label, q.mean_us, q.estimate
                    ));
                }
            }
        }
        out.push_str("rsl speedup vs scan baseline\n");
        out.push_str("sample_capacity\tquery\tspeedup\n");
        for sp in &self.speedups {
            out.push_str(&format!(
                "{}\t{}\t{:.2}x\n",
                sp.sample_capacity, sp.label, sp.speedup
            ));
        }
        out
    }

    /// JSON serialization (hand-rolled: every value here is a number or a
    /// fixed label, so no escaping is needed).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"iters_per_query\": {},\n",
            self.iters_per_query
        ));
        s.push_str("  \"sizes\": [\n");
        for (i, size) in self.sizes.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!(
                "      \"sample_capacity\": {},\n",
                size.sample_capacity
            ));
            s.push_str(&format!("      \"stream\": {},\n", size.stream));
            s.push_str("      \"estimators\": [\n");
            for (j, a) in size.estimators.iter().enumerate() {
                s.push_str("        {\n");
                s.push_str(&format!("          \"estimator\": \"{}\",\n", a.estimator));
                s.push_str(&format!("          \"sample_len\": {},\n", a.sample_len));
                s.push_str(&format!("          \"ingest_ms\": {:.3},\n", a.ingest_ms));
                s.push_str(&format!(
                    "          \"ingest_ops_per_sec\": {:.0},\n",
                    a.ingest_ops_per_sec
                ));
                s.push_str(&format!("          \"compactions\": {},\n", a.compactions));
                s.push_str("          \"queries\": [\n");
                for (k, q) in a.queries.iter().enumerate() {
                    s.push_str(&format!(
                        "            {{\"query\": \"{}\", \"mean_us\": {:.3}, \"estimate\": {:.3}}}{}\n",
                        q.label,
                        q.mean_us,
                        q.estimate,
                        if k + 1 < a.queries.len() { "," } else { "" }
                    ));
                }
                s.push_str("          ]\n");
                s.push_str(&format!(
                    "        }}{}\n",
                    if j + 1 < size.estimators.len() {
                        ","
                    } else {
                        ""
                    }
                ));
            }
            s.push_str("      ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.sizes.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"rsl_speedup_vs_scan\": [\n");
        for (i, sp) in self.speedups.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"sample_capacity\": {}, \"query\": \"{}\", \"speedup\": {:.2}}}{}\n",
                sp.sample_capacity,
                sp.label,
                sp.speedup,
                if i + 1 < self.speedups.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_report_is_complete_and_json_balanced() {
        let report = run(Scale(0.02)); // 512 / 2_048 sample floors
        assert_eq!(report.sizes.len(), 2);
        for size in &report.sizes {
            assert_eq!(size.estimators.len(), 6);
            let baseline = &size.estimators[0];
            let rsl = &size.estimators[1];
            assert_eq!(baseline.estimator, "scan_baseline");
            assert_eq!(rsl.estimator, "rsl");
            // Same seed + same algorithm-R stream: the before/after arms
            // must retain identical samples and produce equal estimates —
            // otherwise the speedup block compares different work.
            assert_eq!(baseline.sample_len, rsl.sample_len);
            for (b, r) in baseline.queries.iter().zip(rsl.queries.iter()) {
                assert!(
                    (b.estimate - r.estimate).abs() < 1e-9,
                    "{}: baseline {} vs rsl {}",
                    b.label,
                    b.estimate,
                    r.estimate
                );
            }
            for a in &size.estimators {
                assert_eq!(a.queries.len(), 6);
                assert!(a.ingest_ms > 0.0);
                assert!(a.sample_len > 0);
            }
        }
        // Two sizes × six query shapes.
        assert_eq!(report.speedups.len(), 12);
        let json = report.to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        assert!(json.contains("\"estimator\": \"scan_baseline\""));
        assert!(json.contains("\"rsl_speedup_vs_scan\""));
        let text = report.render_text();
        assert!(text.contains("speedup vs scan baseline"));
    }
}
