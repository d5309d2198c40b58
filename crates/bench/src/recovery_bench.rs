//! Crash-recovery benchmark: snapshots a live instance mid-stream,
//! restores it into a fresh process image, and proves the warm restart is
//! *bit-identical* to never having crashed (`--bench-json` →
//! `BENCH_recovery.json`).
//!
//! Three measurements:
//!
//! - **snapshot cost vs window size** — save latency, snapshot size on
//!   disk, and restore latency at growing live-window populations;
//! - **replay-from-scratch speedup** — restoring the snapshot vs
//!   rebuilding the same state by re-driving the full history through a
//!   fresh instance (the alternative a deployment without snapshots is
//!   left with after a crash);
//! - **bit-identity** — after the restore, the original and the restored
//!   instance are driven in lockstep over the same tail of objects and
//!   queries; every estimate must match to the bit, unsharded and
//!   sharded. The JSON carries the mismatch counts so the CI schema gate
//!   can insist on zero.
//!
//! With `--features debug-invariants` the restored instances additionally
//! run the deep `audit()` walks; the report records whether that pass ran.

use crate::experiments::Scale;
use estimators::EstimatorConfig;
use geostream::synth::{DatasetSpec, ObjectGenerator};
use geostream::{Duration, KeywordId, Point, RcDvq, Rect, StreamRng};
use latest_core::{Latest, LatestConfig, QueryOptions, RouterPolicy, ShardConfig, ShardedLatest};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Objects per ingest batch while driving the stream.
const INGEST_BATCH: usize = 256;
/// Lockstep verification queries after the restore.
const LOCKSTEP_QUERIES: usize = 96;

/// One window-size sample of the snapshot cost curve.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPoint {
    /// Live objects in the window when the snapshot was taken.
    pub window_objects: usize,
    /// Snapshot file size in bytes.
    pub snapshot_bytes: u64,
    /// Crash-consistent save latency (serialize + fsync + rename), ms.
    pub save_ms: f64,
    /// Restore latency (read + decode + rebuild), ms.
    pub restore_ms: f64,
    /// Rebuilding the same state by replaying the history from scratch, ms.
    pub replay_ms: f64,
    /// `replay_ms / restore_ms` — how much faster the warm restart is.
    pub replay_speedup: f64,
}

/// The full recovery report.
#[derive(Debug, Clone)]
pub struct RecoveryBenchReport {
    pub workload: &'static str,
    /// Queries compared bit-for-bit after each restore.
    pub lockstep_queries: usize,
    /// Estimate-bit mismatches between original and restored (want 0).
    pub unsharded_mismatches: usize,
    pub sharded_mismatches: usize,
    /// Whether the deep `debug-invariants` audits ran on the restored
    /// instances: `"clean"`, or `"skipped (debug-invariants off)"`.
    pub audits: &'static str,
    pub points: Vec<RecoveryPoint>,
}

/// A path no other call shares: two runs in one process (the unit tests
/// run in parallel) must not save into and delete each other's directory.
fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "latest-recovery-bench-{}-{}-{name}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn config(dataset: &DatasetSpec, shards: usize) -> LatestConfig {
    let mut b = LatestConfig::builder()
        .window_span(Duration::from_secs(300))
        .warmup(Duration::from_secs(10))
        .pretrain_queries(12)
        // τ low enough that the lockstep tails never switch estimators: a
        // switch *target* depends on wall-clock latency rewards, the one
        // non-deterministic input, while everything the bit-identity claim
        // covers (window, samplers and their RNGs, cache, tree) is exact.
        .tau(0.05)
        .estimator_config(EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 2_048,
            ..EstimatorConfig::default()
        });
    if shards > 1 {
        b = b.shard(ShardConfig {
            shards,
            queue_capacity: 8_192,
            router: RouterPolicy::HashOid,
        });
    }
    b.build().expect("benchmark parameters are in range")
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

/// Drives a fresh instance through warm-up, pre-training, and enough
/// stream to hold `target_window` live objects. Fully deterministic, so
/// calling it twice rebuilds the identical instance — the second, timed
/// call *is* the replay-from-scratch measurement.
fn drive(dataset: &DatasetSpec, target_window: usize) -> Latest {
    let mut latest = Latest::new(config(dataset, 1));
    let mut gen = dataset.generator();
    let mut rng = StreamRng::seed_from_u64(0x4ec0);
    let mut salt = 0;
    loop {
        let batch: Vec<_> = (0..INGEST_BATCH).map(|_| gen.next_object()).collect();
        latest.ingest_batch(&batch);
        // A couple of queries per batch walk pre-training and keep the
        // monitor, cache, and tree all populated when the snapshot hits.
        for _ in 0..2 {
            let q = make_query(&mut rng, &dataset.domain, salt);
            salt += 1;
            let _ = latest.query(&q, QueryOptions::new());
        }
        if latest.window_len() >= target_window {
            return latest;
        }
    }
}

/// Lockstep tail: drives `a` (original) and `b` (restored) with identical
/// objects and queries, returning how many estimates differed in bits.
fn lockstep(
    a: &mut Latest,
    b: &mut Latest,
    gen: &mut ObjectGenerator,
    domain: &Rect,
    queries: usize,
) -> usize {
    let mut rng = StreamRng::seed_from_u64(0x7e57);
    let mut mismatches = 0;
    for salt in 0..queries {
        if salt % 8 == 0 {
            let batch: Vec<_> = (0..INGEST_BATCH).map(|_| gen.next_object()).collect();
            a.ingest_batch(&batch);
            b.ingest_batch(&batch);
        }
        let q = make_query(&mut rng, domain, salt);
        let oa = a.query(&q, QueryOptions::new());
        let ob = b.query(&q, QueryOptions::new());
        if oa.estimate.to_bits() != ob.estimate.to_bits() {
            mismatches += 1;
        }
    }
    mismatches
}

/// The sharded arm: snapshot a 4-shard engine mid-stream, restore it, and
/// compare scatter-gather answers bit-for-bit.
fn sharded_mismatches(dataset: &DatasetSpec, queries: usize) -> usize {
    let cfg = config(dataset, 4);
    let original = ShardedLatest::new(cfg.clone()).expect("shards spawn");
    let mut gen = dataset.generator();
    for _ in 0..24 {
        let batch: Vec<_> = (0..INGEST_BATCH).map(|_| gen.next_object()).collect();
        original.ingest_batch(&batch).expect("shards are live");
    }
    let mut rng = StreamRng::seed_from_u64(0x5a4d);
    for salt in 0..32 {
        let q = make_query(&mut rng, &dataset.domain, salt);
        let _ = original.query_batch(&[q], QueryOptions::new());
    }

    let dir = scratch("sharded");
    original.save_snapshot(&dir).expect("sharded save");
    let restored = ShardedLatest::restore(cfg, &dir).expect("sharded restore");
    let _ = std::fs::remove_dir_all(&dir);

    #[cfg(feature = "debug-invariants")]
    restored
        .audit()
        .expect("restored sharded engine audits clean");

    let mut mismatches = 0;
    for salt in 0..queries {
        if salt % 8 == 0 {
            let batch: Vec<_> = (0..INGEST_BATCH).map(|_| gen.next_object()).collect();
            original.ingest_batch(&batch).expect("shards are live");
            restored.ingest_batch(&batch).expect("shards are live");
            original.flush().expect("shards are live");
            restored.flush().expect("shards are live");
        }
        let q = make_query(&mut rng, &dataset.domain, salt);
        let oa = original
            .query_batch(std::slice::from_ref(&q), QueryOptions::new())
            .expect("shards are live");
        let ob = restored
            .query_batch(std::slice::from_ref(&q), QueryOptions::new())
            .expect("shards are live");
        if oa[0].estimate.to_bits() != ob[0].estimate.to_bits() {
            mismatches += 1;
        }
    }
    original.shutdown();
    restored.shutdown();
    mismatches
}

/// Runs the measurement. Window targets scale with `--scale`.
pub fn run(scale: Scale) -> RecoveryBenchReport {
    let dataset = DatasetSpec::twitter();
    let targets: Vec<usize> = [4_000.0, 16_000.0, 64_000.0]
        .iter()
        .map(|&base| ((base * scale.0) as usize).max(512))
        .collect();

    let mut points = Vec::new();
    let mut unsharded_mismatches = 0;
    for (i, &target) in targets.iter().enumerate() {
        let mut original = drive(&dataset, target);
        let window_objects = original.window_len();
        let path = scratch(&format!("window-{target}.snap"));

        let start = Instant::now();
        original.save_snapshot(&path).expect("save");
        let save_ms = start.elapsed().as_secs_f64() * 1e3;
        let snapshot_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

        let start = Instant::now();
        let mut restored = Latest::load_snapshot(config(&dataset, 1), &path).expect("restore");
        let restore_ms = start.elapsed().as_secs_f64() * 1e3;
        let _ = std::fs::remove_file(&path);

        #[cfg(feature = "debug-invariants")]
        restored.audit().expect("restored instance audits clean");

        let start = Instant::now();
        let replayed = drive(&dataset, target);
        let replay_ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(replayed.window_len());

        // Bit-identity on the largest window only: the lockstep tail is
        // identical work per point, and one verdict is the headline.
        if i + 1 == targets.len() {
            let mut gen = dataset.generator();
            // Resume the generator past everything `drive` consumed so
            // the tail continues the stream instead of rewinding it.
            while gen.clock() < original.now() {
                let _ = gen.next_object();
            }
            unsharded_mismatches = lockstep(
                &mut original,
                &mut restored,
                &mut gen,
                &dataset.domain,
                LOCKSTEP_QUERIES,
            );
        }

        points.push(RecoveryPoint {
            window_objects,
            snapshot_bytes,
            save_ms,
            restore_ms,
            replay_ms,
            replay_speedup: replay_ms / restore_ms.max(1e-9),
        });
    }

    let sharded = sharded_mismatches(&dataset, LOCKSTEP_QUERIES);
    RecoveryBenchReport {
        workload: "twitter mixed",
        lockstep_queries: LOCKSTEP_QUERIES,
        unsharded_mismatches,
        sharded_mismatches: sharded,
        audits: if cfg!(feature = "debug-invariants") {
            "clean"
        } else {
            "skipped (debug-invariants off)"
        },
        points,
    }
}

impl RecoveryBenchReport {
    /// Human-readable recovery table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== Recovery bench: snapshot cost and warm-restart fidelity ==\n");
        out.push_str(&format!("workload {}\n", self.workload));
        out.push_str("window_objs  snap_bytes  save_ms  restore_ms  replay_ms  speedup\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:>11} {:>11} {:>8.2} {:>11.2} {:>10.1} {:>7.1}x\n",
                p.window_objects,
                p.snapshot_bytes,
                p.save_ms,
                p.restore_ms,
                p.replay_ms,
                p.replay_speedup
            ));
        }
        out.push_str(&format!(
            "bit-identity over {} lockstep queries: unsharded {} mismatches, sharded {} mismatches\n",
            self.lockstep_queries, self.unsharded_mismatches, self.sharded_mismatches
        ));
        out.push_str(&format!("restored-instance audits: {}\n", self.audits));
        out
    }

    /// JSON form for `BENCH_recovery.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("\"workload\": \"{}\",\n", self.workload));
        s.push_str(&format!(
            "\"lockstep_queries\": {},\n",
            self.lockstep_queries
        ));
        s.push_str(&format!(
            "\"unsharded\": {{\"mismatches\": {}, \"bit_identical\": {}}},\n",
            self.unsharded_mismatches,
            self.unsharded_mismatches == 0
        ));
        s.push_str(&format!(
            "\"sharded\": {{\"mismatches\": {}, \"bit_identical\": {}}},\n",
            self.sharded_mismatches,
            self.sharded_mismatches == 0
        ));
        s.push_str(&format!("\"audits\": \"{}\",\n", self.audits));
        s.push_str("\"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            s.push_str(&format!(
                "{{\"window_objects\": {}, \"snapshot_bytes\": {}, \"save_ms\": {:.3}, \"restore_ms\": {:.3}, \"replay_ms\": {:.3}, \"replay_speedup\": {:.2}}}{}\n",
                p.window_objects,
                p.snapshot_bytes,
                p.save_ms,
                p.restore_ms,
                p.replay_ms,
                p.replay_speedup,
                if i + 1 == self.points.len() { "" } else { "," }
            ));
        }
        s.push_str("]\n}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_restart_is_bit_identical_and_cheaper_than_replay() {
        let report = run(Scale(0.05));
        assert_eq!(report.points.len(), 3);
        for p in &report.points {
            assert!(p.window_objects > 0);
            assert!(p.snapshot_bytes > 0);
            assert!(p.save_ms > 0.0 && p.restore_ms > 0.0 && p.replay_ms > 0.0);
        }
        assert_eq!(report.unsharded_mismatches, 0, "unsharded restore diverged");
        assert_eq!(report.sharded_mismatches, 0, "sharded restore diverged");
    }

    #[test]
    fn json_is_balanced_and_text_renders() {
        let report = run(Scale(0.05));
        let json = report.to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in recovery JSON"
        );
        assert!(json.contains("\"bit_identical\""));
        assert!(json.contains("\"replay_speedup\""));
        let text = report.render_text();
        assert!(text.contains("bit-identity"));
    }
}
