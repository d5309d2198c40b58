//! Switch-stall benchmark: replays one deterministic Twitter stream and
//! query mix through three engines that differ only in how estimator
//! switches are prepared, and reports the serving-thread tail latency
//! (`--bench-json` → `BENCH_switching.json`).
//!
//! The three arms, on identical pre-generated work:
//!
//! - **no-switch**: the adaptor never prefills or switches — the tail
//!   latency floor every switch mechanism is judged against.
//! - **sync-prefill**: `async_prefill = false`. Entering the danger zone
//!   builds the candidate inline from the standing window, so the serving
//!   thread stalls for the full build.
//! - **async-prefill**: `async_prefill = true`. Entering the danger zone
//!   snapshots the window and hands the build to the background worker;
//!   the serving thread pays only the snapshot clone, plus the short
//!   delta-tail replay at activation.
//!
//! Switch storms are driven deterministically through the system's debug
//! hooks (`debug_force_prefill` / `debug_activate_prefill`) rather than
//! the stochastic accuracy thresholds, so every arm performs the same
//! switches at the same query positions. Each measured sample is the
//! serving-thread cost of one query *slot* — any prefill start or
//! activation scheduled at that position plus the query itself — which is
//! exactly the latency a caller would observe.
//!
//! The headline the acceptance gate checks: the async arm's p99 stays
//! within a small factor (≤ 1.2×) of the no-switch floor, while the sync
//! arm's p99 grows with the window because every storm re-builds from
//! scratch on the serving thread. The gate presumes ≥ 2 cores — with one
//! core the background builder never overlaps the serving thread, every
//! activation blocks on a barely started build, and the report carries a
//! CLAMPED note instead (same convention as the sharding bench).

use crate::experiments::Scale;
use estimators::{EstimatorConfig, EstimatorKind};
use geostream::synth::DatasetSpec;
use geostream::{Duration, GeoTextObject, KeywordId, Point, RcDvq, Rect, StreamRng};
use latest_core::{AblationConfig, Latest, LatestConfig, QueryOptions};
use std::time::Instant;

/// Objects per trickle ingest batch between queries — keeps the window
/// sliding (and the delta log non-trivial) during the measured run.
const INGEST_BATCH: usize = 128;
/// A prefill is forced every this many queries…
const SWITCH_EVERY: usize = 64;
/// …and activated this many queries later (the background build races
/// the serving thread across this gap).
const ACTIVATE_LAG: usize = 48;
/// Candidate kinds the storm cycles through (skipping the current active
/// kind so every activation is a real switch).
const STORM_KINDS: [EstimatorKind; 4] = [
    EstimatorKind::Rsh,
    EstimatorKind::H4096,
    EstimatorKind::Rsl,
    EstimatorKind::Aasp,
];

/// One arm's measured serving-thread latency distribution.
#[derive(Debug, Clone)]
pub struct SwitchingArm {
    pub mode: &'static str,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    /// Switches actually performed during the measured run.
    pub switches: u64,
    /// Mean candidate build time (inline or on the worker), ms.
    pub mean_build_ms: f64,
    /// Serving-thread stall attributable to prefill work: p99 over the
    /// recorded stall samples (inline builds, snapshot clones, delta
    /// replays), µs.
    pub stall_p99_us: u64,
}

/// The full report: replay geometry plus the three arms and the headline
/// tail-latency ratios.
#[derive(Debug, Clone)]
pub struct SwitchingBenchReport {
    pub workload: &'static str,
    /// Objects ingested during the measured run (the priming stream is
    /// on top of this).
    pub objects: usize,
    pub queries: usize,
    pub switch_every: usize,
    pub activate_lag: usize,
    /// `std::thread::available_parallelism()` on the measuring host. The
    /// async arm needs at least two cores for the background builder to
    /// actually overlap the serving thread: on a one-core host every
    /// activation blocks on a barely started build, so the async ratio is
    /// scheduler-bound, not a property of the mechanism.
    pub host_parallelism: usize,
    pub arms: Vec<SwitchingArm>,
    /// `p99(sync) / p99(no-switch)`.
    pub sync_p99_vs_baseline: f64,
    /// `p99(async) / p99(no-switch)` — the acceptance gate wants ≤ 1.2.
    pub async_p99_vs_baseline: f64,
}

/// The arm-independent knobs; switching is handled by the debug hooks,
/// so the adaptor's own thresholds stay out of every arm.
fn config(dataset: &DatasetSpec, async_prefill: bool) -> LatestConfig {
    LatestConfig::builder()
        .window_span(Duration::from_secs(30))
        .warmup(Duration::from_secs(10))
        .pretrain_queries(12)
        .default_estimator(EstimatorKind::Rsh)
        .shadow_metrics(false)
        .ablation(AblationConfig {
            switching: false,
            ..AblationConfig::default()
        })
        .async_prefill(async_prefill)
        .estimator_config(EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 2_048,
            ..EstimatorConfig::default()
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

/// Pre-generated deterministic work all three arms replay: priming
/// batches (warm-up + pre-training), the trickle batches interleaved with
/// the measured queries, and the measured queries themselves.
struct Workload {
    prime: Vec<Vec<GeoTextObject>>,
    prime_queries: Vec<RcDvq>,
    trickle: Vec<Vec<GeoTextObject>>,
    queries: Vec<RcDvq>,
}

fn build_workload(dataset: &DatasetSpec, queries: usize) -> Workload {
    let mut gen = dataset.generator();
    let mut prime = Vec::new();
    while gen.clock().0 < 12_000 {
        prime.push((0..INGEST_BATCH).map(|_| gen.next_object()).collect());
    }
    let mut rng = StreamRng::seed_from_u64(0x57A1);
    let prime_queries: Vec<RcDvq> = (0..24)
        .map(|i| make_query(&mut rng, &dataset.domain, i))
        .collect();
    // One trickle batch per measured query: the window keeps sliding, so
    // in-flight builds see inserts *and* evictions in their delta logs.
    let trickle: Vec<Vec<GeoTextObject>> = (0..queries)
        .map(|_| (0..INGEST_BATCH).map(|_| gen.next_object()).collect())
        .collect();
    let queries = (0..queries)
        .map(|i| make_query(&mut rng, &dataset.domain, i))
        .collect();
    Workload {
        prime,
        prime_queries,
        trickle,
        queries,
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Replays the workload through one engine, forcing a prefill/activation
/// storm when `storm` is set, and returns the serving-thread latency
/// distribution of the measured query slots.
fn measure(
    dataset: &DatasetSpec,
    async_prefill: bool,
    storm: bool,
    work: &Workload,
) -> SwitchingArm {
    let mut latest = Latest::new(config(dataset, async_prefill));
    for batch in &work.prime {
        latest.ingest_batch(batch);
    }
    for q in &work.prime_queries {
        let _ = latest.query(q, QueryOptions::new());
    }

    let opts = QueryOptions::new().use_cache(false);
    let mut lat: Vec<u64> = Vec::with_capacity(work.queries.len());
    let mut storm_kind = 0usize;
    for (i, q) in work.queries.iter().enumerate() {
        // The trickle rides between query slots; it is shared upkeep, not
        // part of the measured serving cost.
        latest.ingest_batch(&work.trickle[i]);
        let start = Instant::now();
        if storm {
            if i % SWITCH_EVERY == 0 {
                // Next storm kind that is a real switch away.
                while STORM_KINDS[storm_kind % STORM_KINDS.len()] == latest.active_kind() {
                    storm_kind += 1;
                }
                let kind = STORM_KINDS[storm_kind % STORM_KINDS.len()];
                storm_kind += 1;
                latest.debug_force_prefill(kind);
            } else if i % SWITCH_EVERY == ACTIVATE_LAG {
                latest.debug_activate_prefill();
            }
        }
        let out = latest.query(q, opts);
        std::hint::black_box(out.estimate);
        lat.push(start.elapsed().as_micros() as u64);
    }

    let snap = latest.metrics_snapshot();
    lat.sort_unstable();
    SwitchingArm {
        mode: match (storm, async_prefill) {
            (false, _) => "no-switch",
            (true, false) => "sync-prefill",
            (true, true) => "async-prefill",
        },
        p50_us: percentile(&lat, 0.50),
        p95_us: percentile(&lat, 0.95),
        p99_us: percentile(&lat, 0.99),
        max_us: lat.last().copied().unwrap_or(0),
        switches: snap.adaptor.switches,
        mean_build_ms: snap.adaptor.prefill_build_us.mean() / 1_000.0,
        stall_p99_us: {
            // The stall histogram is bucketed; report the p99 bucket
            // bound as a conservative upper estimate.
            let h = &snap.adaptor.switch_stall_us;
            let want = (h.count as f64 * 0.99).ceil() as u64;
            let mut seen = 0u64;
            let mut bound = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                seen += c;
                if seen >= want && want > 0 {
                    bound = h.bounds.get(i).copied().unwrap_or(u64::MAX);
                    break;
                }
            }
            bound
        },
    }
}

/// Runs the measurement. Floors keep even tiny `--scale` runs long
/// enough for several full storm cycles.
pub fn run(scale: Scale) -> SwitchingBenchReport {
    let queries =
        (((2_048.0 * scale.0) as usize).max(3 * SWITCH_EVERY) / SWITCH_EVERY).max(3) * SWITCH_EVERY;
    let dataset = DatasetSpec::twitter();
    let work = build_workload(&dataset, queries);

    let baseline = measure(&dataset, true, false, &work);
    let sync = measure(&dataset, false, true, &work);
    let async_arm = measure(&dataset, true, true, &work);
    let floor = baseline.p99_us.max(1) as f64;
    let sync_ratio = sync.p99_us as f64 / floor;
    let async_ratio = async_arm.p99_us as f64 / floor;
    SwitchingBenchReport {
        workload: "twitter mixed",
        objects: work.trickle.iter().map(Vec::len).sum(),
        queries,
        switch_every: SWITCH_EVERY,
        activate_lag: ACTIVATE_LAG,
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        arms: vec![baseline, sync, async_arm],
        sync_p99_vs_baseline: sync_ratio,
        async_p99_vs_baseline: async_ratio,
    }
}

impl SwitchingBenchReport {
    /// Human-readable tail-latency table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== Switching bench: serving-thread tail latency through switch storms ==\n");
        out.push_str(&format!(
            "workload {} ({} measured objects, {} queries, prefill every {} / activate +{})\n",
            self.workload, self.objects, self.queries, self.switch_every, self.activate_lag
        ));
        out.push_str(&format!(
            "host parallelism: {} cores",
            self.host_parallelism
        ));
        if self.host_parallelism < 2 {
            out.push_str(
                " — CLAMPED: the background builder cannot overlap the serving thread, \
                 so activations block on in-flight builds and the async ratio is \
                 scheduler-bound",
            );
        }
        out.push('\n');
        out.push_str(
            "mode           p50_us  p95_us  p99_us  max_us  switches  build_ms  stall_p99_us\n",
        );
        for a in &self.arms {
            out.push_str(&format!(
                "{:<14} {:>6} {:>7} {:>7} {:>7} {:>9} {:>9.3} {:>13}\n",
                a.mode,
                a.p50_us,
                a.p95_us,
                a.p99_us,
                a.max_us,
                a.switches,
                a.mean_build_ms,
                a.stall_p99_us
            ));
        }
        out.push_str(&format!(
            "sync  p99 vs no-switch: {:.2}x\n",
            self.sync_p99_vs_baseline
        ));
        out.push_str(&format!(
            "async p99 vs no-switch: {:.2}x (gate: <= 1.2x on hosts with >= 2 cores)\n",
            self.async_p99_vs_baseline
        ));
        out
    }

    /// JSON form for `BENCH_switching.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("\"workload\": \"{}\",\n", self.workload));
        s.push_str(&format!("\"objects\": {},\n", self.objects));
        s.push_str(&format!("\"queries\": {},\n", self.queries));
        s.push_str(&format!("\"switch_every\": {},\n", self.switch_every));
        s.push_str(&format!("\"activate_lag\": {},\n", self.activate_lag));
        s.push_str(&format!(
            "\"host_parallelism\": {},\n",
            self.host_parallelism
        ));
        s.push_str("\"arms\": [\n");
        for (i, a) in self.arms.iter().enumerate() {
            s.push_str(&format!(
                "{{\"mode\": \"{}\", \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}, \"switches\": {}, \"mean_build_ms\": {:.3}, \"stall_p99_us\": {}}}{}\n",
                a.mode,
                a.p50_us,
                a.p95_us,
                a.p99_us,
                a.max_us,
                a.switches,
                a.mean_build_ms,
                a.stall_p99_us,
                if i + 1 == self.arms.len() { "" } else { "," }
            ));
        }
        s.push_str("],\n");
        s.push_str(&format!(
            "\"sync_p99_vs_baseline\": {:.3},\n",
            self.sync_p99_vs_baseline
        ));
        s.push_str(&format!(
            "\"async_p99_vs_baseline\": {:.3}\n",
            self.async_p99_vs_baseline
        ));
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_arms_with_real_switches() {
        let report = run(Scale(0.05));
        assert_eq!(report.arms.len(), 3);
        assert_eq!(report.arms[0].mode, "no-switch");
        assert_eq!(report.arms[0].switches, 0);
        for arm in &report.arms[1..] {
            assert!(arm.switches > 0, "{} performed no switches", arm.mode);
            assert!(arm.mean_build_ms >= 0.0);
        }
        assert!(report.async_p99_vs_baseline > 0.0);
        assert!(report.host_parallelism >= 1);
    }

    #[test]
    fn json_is_balanced_and_text_renders() {
        let report = run(Scale(0.05));
        let json = report.to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in switching JSON"
        );
        assert!(json.contains("\"async_p99_vs_baseline\""));
        let text = report.render_text();
        assert!(text.contains("async p99 vs no-switch"));
    }
}
