//! Standalone exact-executor benchmark with machine-readable output.
//!
//! A sliding-window ingest replay plus per-query-type count latency, per
//! spatial backend. It runs inside the `experiments` binary and can
//! serialize its report as JSON (`--bench-json` → `BENCH_exactdb.json`),
//! so the measured ingest throughput, count latencies, and planner path
//! mix land in a file CI and the docs can diff against.

use crate::experiments::Scale;
use exactdb::{ExactExecutor, SpatialIndexKind};
use geostream::synth::DatasetSpec;
use geostream::{GeoTextObject, KeywordId, RcDvq, Rect};
use std::time::Instant;

const BACKENDS: [SpatialIndexKind; 3] = [
    SpatialIndexKind::Grid,
    SpatialIndexKind::Quadtree,
    SpatialIndexKind::RTree,
];

/// One query shape's measurement on one backend.
#[derive(Debug, Clone)]
pub struct QueryStat {
    pub label: &'static str,
    /// Mean count latency, microseconds.
    pub mean_us: f64,
    /// The (exact) answer — sanity anchor for cross-run comparisons.
    pub count: u64,
}

/// One backend's measurements.
#[derive(Debug, Clone)]
pub struct BackendStats {
    pub backend: &'static str,
    /// Wall time of the windowed ingest replay, milliseconds.
    pub ingest_ms: f64,
    /// Ingest throughput over the replay (inserts + evictions per second).
    pub ingest_ops_per_sec: f64,
    /// Posting-list compactions performed during the replay.
    pub compactions: u64,
    pub queries: Vec<QueryStat>,
    /// Planner routing over the measured queries.
    pub path_spatial: u64,
    pub path_inverted: u64,
}

/// The full report: window geometry plus per-backend stats.
#[derive(Debug, Clone)]
pub struct ExactBenchReport {
    pub window: usize,
    pub stream: usize,
    pub iters_per_query: usize,
    pub backends: Vec<BackendStats>,
}

/// The query shapes measured per backend: label + query.
fn query_set(dataset: &DatasetSpec) -> Vec<(&'static str, RcDvq)> {
    let center = dataset.spatial_model().hotspots()[0].center;
    let rect = Rect::centered_clamped(center, 2.0, 1.5, &dataset.domain);
    let small = Rect::centered_clamped(center, 0.4, 0.3, &dataset.domain);
    vec![
        ("spatial", RcDvq::spatial(rect)),
        ("keyword1", RcDvq::keyword(vec![KeywordId(3)])),
        (
            "keyword3",
            RcDvq::keyword(vec![KeywordId(3), KeywordId(11), KeywordId(19)]),
        ),
        ("hybrid1", RcDvq::hybrid(rect, vec![KeywordId(3)])),
        (
            "hybrid3",
            RcDvq::hybrid(rect, vec![KeywordId(3), KeywordId(11), KeywordId(19)]),
        ),
        (
            "hybrid_small",
            RcDvq::hybrid(small, vec![KeywordId(3), KeywordId(11), KeywordId(19)]),
        ),
    ]
}

/// Runs the full measurement. `scale` stretches the window and stream
/// sizes (1.0 → 20k-object window, 30k-object stream).
pub fn run(scale: Scale) -> ExactBenchReport {
    let window = ((20_000.0 * scale.0) as usize).max(2_000);
    let stream = window + window / 2;
    let iters = 200usize;
    let dataset = DatasetSpec::twitter();
    let objects: Vec<GeoTextObject> = dataset.generator().take(stream).collect();
    let queries = query_set(&dataset);

    let mut backends = Vec::new();
    for kind in BACKENDS {
        // Ingest: windowed replay (insert + evict once the window fills).
        let start = Instant::now();
        let mut ex = ExactExecutor::new(dataset.domain, kind);
        for (i, o) in objects.iter().enumerate() {
            ex.insert(o);
            if i >= window {
                ex.remove(&objects[i - window]);
            }
        }
        let ingest_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let ops = (stream + stream.saturating_sub(window)) as f64;
        let compactions = ex.compactions();

        // Counts: mean latency per query shape on the settled window.
        ex.reset_path_mix();
        let mut stats = Vec::new();
        for (label, q) in &queries {
            let count = ex.execute(q);
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(ex.execute(q));
            }
            let mean_us = start.elapsed().as_secs_f64() * 1e6 / iters as f64;
            stats.push(QueryStat {
                label,
                mean_us,
                count,
            });
        }
        let mix = ex.path_mix();
        backends.push(BackendStats {
            backend: kind.name(),
            ingest_ms,
            ingest_ops_per_sec: ops / (ingest_ms / 1_000.0),
            compactions,
            queries: stats,
            path_spatial: mix.spatial,
            path_inverted: mix.inverted,
        });
    }
    ExactBenchReport {
        window,
        stream,
        iters_per_query: iters,
        backends,
    }
}

impl ExactBenchReport {
    /// Human-readable table (the `exactdb-bench` experiment output).
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "== exactdb hot path: window {} / stream {} ==\n",
            self.window, self.stream
        );
        out.push_str("backend\tingest_ms\tingest_ops_s\tcompactions\tpath spatial/inverted\n");
        for b in &self.backends {
            out.push_str(&format!(
                "{}\t{:.1}\t{:.0}\t{}\t{}/{}\n",
                b.backend,
                b.ingest_ms,
                b.ingest_ops_per_sec,
                b.compactions,
                b.path_spatial,
                b.path_inverted
            ));
        }
        out.push_str("backend\tquery\tmean_us\tcount\n");
        for b in &self.backends {
            for q in &b.queries {
                out.push_str(&format!(
                    "{}\t{}\t{:.2}\t{}\n",
                    b.backend, q.label, q.mean_us, q.count
                ));
            }
        }
        out
    }

    /// JSON serialization (hand-rolled: every value here is a number or a
    /// fixed label, so no escaping is needed).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"window\": {},\n", self.window));
        s.push_str(&format!("  \"stream\": {},\n", self.stream));
        s.push_str(&format!(
            "  \"iters_per_query\": {},\n",
            self.iters_per_query
        ));
        s.push_str("  \"backends\": [\n");
        for (i, b) in self.backends.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"backend\": \"{}\",\n", b.backend));
            s.push_str(&format!("      \"ingest_ms\": {:.3},\n", b.ingest_ms));
            s.push_str(&format!(
                "      \"ingest_ops_per_sec\": {:.0},\n",
                b.ingest_ops_per_sec
            ));
            s.push_str(&format!("      \"compactions\": {},\n", b.compactions));
            s.push_str(&format!(
                "      \"path_mix\": {{\"spatial\": {}, \"inverted\": {}}},\n",
                b.path_spatial, b.path_inverted
            ));
            s.push_str("      \"queries\": [\n");
            for (j, q) in b.queries.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"query\": \"{}\", \"mean_us\": {:.3}, \"count\": {}}}{}\n",
                    q.label,
                    q.mean_us,
                    q.count,
                    if j + 1 < b.queries.len() { "," } else { "" }
                ));
            }
            s.push_str("      ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.backends.len() { "," } else { "" }
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
        let report = run(Scale(0.02)); // 2k-object window floor
        assert_eq!(report.backends.len(), 3);
        for b in &report.backends {
            assert_eq!(b.queries.len(), 6);
            assert!(b.ingest_ms > 0.0);
            // Six query shapes, each executed once for the count anchor
            // plus `iters` measured runs.
            assert_eq!(
                b.path_spatial + b.path_inverted,
                (6 * (report.iters_per_query + 1)) as u64
            );
            // All three backends must agree on every anchored count.
            assert_eq!(
                b.queries.iter().map(|q| q.count).collect::<Vec<_>>(),
                report.backends[0]
                    .queries
                    .iter()
                    .map(|q| q.count)
                    .collect::<Vec<_>>()
            );
        }
        let json = report.to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        assert!(json.contains("\"backend\": \"Grid\""));
        assert!(json.contains("\"path_mix\""));
        let text = report.render_text();
        assert!(text.contains("hybrid_small"));
    }
}
