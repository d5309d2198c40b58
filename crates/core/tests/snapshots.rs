//! Crash-consistency and warm-restart tests for the snapshot layer:
//!
//! * **lockstep continuation** — an instance restored from a mid-stream
//!   snapshot must produce *bit-identical* estimates to the uninterrupted
//!   original when both are driven with the same objects and queries.
//!   This is the end-to-end proof that every piece of live state — sampler
//!   RNGs included — survives the round trip: a sampler restored with a
//!   reseeded RNG diverges within a handful of replacements.
//! * **typed failures** — truncated, bit-flipped, mis-addressed, or
//!   config-mismatched snapshots must surface a [`PersistError`], never a
//!   panic or a half-restored instance.
//! * **sharded snapshots** — the per-shard files + manifest protocol must
//!   restore a [`ShardedLatest`] that answers bit-identically, and must
//!   reject a corrupted shard payload by checksum.
//! * **golden fixture** — a committed snapshot from the current format
//!   version must keep decoding (format-compatibility canary).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use estimators::{EstimatorConfig, EstimatorKind};
use exactdb::SpatialIndexKind;
use geostream::synth::DatasetSpec;
use geostream::{Duration, GeoTextObject, KeywordId, PersistError, Point, RcDvq, Rect, Timestamp};
use latest_core::{
    Latest, LatestConfig, LatestError, PhaseTag, QueryOptions, RouterPolicy, ServedBy, ShardConfig,
    ShardedLatest, SharedLatest, SNAPSHOT_MAGIC,
};
use testkit::{check, u32_in, u64_in, usize_in, vec_of};

/// A process-unique scratch path (no tempdir crate; plain std).
fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "latest-snap-test-{}-{n}-{name}",
        std::process::id()
    ))
}

fn config_with(index_kind: SpatialIndexKind, reservoir: usize) -> LatestConfig {
    let spec = DatasetSpec::twitter();
    LatestConfig::builder()
        .window_span(Duration::from_secs(60))
        .warmup(Duration::from_secs(60))
        .pretrain_queries(20)
        .accuracy_window(8)
        .min_switch_spacing(8)
        // τ low enough that the continuation runs never switch: a switch
        // target depends on wall-clock latency rewards, which are the one
        // legitimately non-deterministic input.
        .tau(0.05)
        .index_kind(index_kind)
        .estimator_config(EstimatorConfig {
            domain: spec.domain,
            reservoir_capacity: reservoir,
            ..EstimatorConfig::default()
        })
        .build()
        .expect("valid test config")
}

fn small_config() -> LatestConfig {
    config_with(SpatialIndexKind::Grid, 1_000)
}

/// Deterministic object stream (explicit timestamps; no RNG involved).
/// Timestamps are milliseconds: 50 ms per arrival crosses the 60 s
/// warm-up in ~1.2 k objects and keeps the window at eviction churn.
fn objects(start: u64, n: u64) -> Vec<GeoTextObject> {
    (start..start + n)
        .map(|i| {
            GeoTextObject::new(
                geostream::ObjectId(i),
                Point::new(
                    -124.0 + (i as f64 * 7.31) % 58.0,
                    25.0 + (i as f64 * 3.17) % 24.0,
                ),
                vec![KeywordId(i as u32 % 32)],
                Timestamp(1 + i * 50),
            )
        })
        .collect()
}

/// Deterministic query mix covering all three query types.
fn queries(round: u64, n: u64) -> Vec<RcDvq> {
    (0..n)
        .map(|i| {
            let k = round * n + i;
            let cx = -120.0 + (k as f64 * 5.13) % 50.0;
            let cy = 27.0 + (k as f64 * 2.71) % 20.0;
            let r = Rect::new(cx, cy, cx + 3.0, cy + 2.0);
            match k % 3 {
                0 => RcDvq::spatial(r),
                1 => RcDvq::keyword(vec![KeywordId(k as u32 % 32)]),
                _ => RcDvq::hybrid(r, vec![KeywordId(k as u32 % 32)]),
            }
        })
        .collect()
}

/// Drives `latest` to the requested phase with the deterministic stream,
/// returning the next free object id.
fn drive_to(latest: &mut Latest, phase: PhaseTag, mut at: u64) -> u64 {
    while latest.phase() == PhaseTag::WarmUp && phase != PhaseTag::WarmUp {
        latest.ingest_batch(&objects(at, 64));
        at += 64;
    }
    if phase == PhaseTag::Incremental {
        let mut round = 0;
        while latest.phase() != PhaseTag::Incremental {
            for q in queries(round, 4) {
                let _ = latest.query(&q, QueryOptions::new());
            }
            latest.ingest_batch(&objects(at, 16));
            at += 16;
            round += 1;
        }
    }
    at
}

/// Continues `a` (original) and `b` (restored) in lockstep and asserts
/// bit-identical estimates throughout.
fn assert_lockstep(a: &mut Latest, b: &mut Latest, mut at: u64, rounds: u64) {
    for round in 100..100 + rounds {
        let batch = objects(at, 24);
        a.ingest_batch(&batch);
        b.ingest_batch(&batch);
        at += 24;
        for q in queries(round, 6) {
            let oa = a.query(&q, QueryOptions::new());
            let ob = b.query(&q, QueryOptions::new());
            assert_eq!(
                oa.estimate.to_bits(),
                ob.estimate.to_bits(),
                "estimates diverged at round {round}: {} vs {} ({:?} vs {:?})",
                oa.estimate,
                ob.estimate,
                oa.served_by,
                ob.served_by
            );
            assert_eq!(oa.actual, ob.actual, "ground truth diverged");
            assert_eq!(oa.served_by, ob.served_by, "serving path diverged");
        }
        assert_eq!(a.phase(), b.phase());
        assert_eq!(a.active_kind(), b.active_kind());
        assert_eq!(a.window_len(), b.window_len());
    }
}

#[test]
fn roundtrip_is_bit_identical_in_every_phase() {
    for phase in [
        PhaseTag::WarmUp,
        PhaseTag::PreTraining,
        PhaseTag::Incremental,
    ] {
        let config = small_config();
        let mut original = Latest::new(config.clone());
        let at = drive_to(&mut original, phase, 0);
        let bytes = original.snapshot_bytes();
        let mut restored = Latest::restore(config, &bytes)
            .unwrap_or_else(|e| panic!("restore in {phase:?} failed: {e}"));
        assert_eq!(restored.phase(), original.phase());
        assert_eq!(restored.window_len(), original.window_len());
        assert_lockstep(&mut original, &mut restored, at, 6);
    }
}

/// The dedicated sampler-RNG regression: RSL replaces reservoir slots by
/// RNG draw on *every* post-fill insert, so a restored run whose sampler
/// RNG did not round-trip diverges from the original within one batch.
/// A tiny reservoir against a large window maximizes replacement traffic.
#[test]
fn sampler_rng_state_survives_the_roundtrip() {
    let config = config_with(SpatialIndexKind::Grid, 64);
    let mut original = Latest::new(config.clone());
    let at = drive_to(&mut original, PhaseTag::Incremental, 0);
    let bytes = original.snapshot_bytes();
    let mut restored = Latest::restore(config, &bytes).expect("restore");
    // 12 rounds × 24 objects ≫ the 64-slot reservoir: plenty of draws.
    assert_lockstep(&mut original, &mut restored, at, 12);
}

#[test]
fn ready_prefill_and_building_prefill_survive_the_roundtrip() {
    let config = small_config();
    let mut original = Latest::new(config.clone());
    let at = drive_to(&mut original, PhaseTag::Incremental, 0);
    // A Building slot must be settled by the snapshot itself (the restored
    // instance has no builder thread to finish it).
    assert!(
        original.debug_force_prefill(EstimatorKind::Aasp),
        "prefill accepted"
    );
    let bytes = original.snapshot_bytes();
    let mut restored = Latest::restore(config, &bytes).expect("restore");
    assert_lockstep(&mut original, &mut restored, at, 6);
}

/// A pending RSL prefill beside an active RSH — one sampler on one seed,
/// so the candidate is the active sample's fresh twin — is settled into
/// the snapshot; the restored engine activates it and answers bit for bit
/// like the engine that never stopped.
#[test]
fn pending_rsl_prefill_beside_rsh_survives_the_roundtrip() {
    let config = small_config();
    let mut original = Latest::new(config.clone());
    let at = drive_to(&mut original, PhaseTag::Incremental, 0);
    assert_eq!(original.active_kind(), EstimatorKind::Rsh);
    assert!(original.debug_force_prefill(EstimatorKind::Rsl));
    let bytes = original.snapshot_bytes();
    let mut restored = Latest::restore(config, &bytes).expect("restore");
    assert_eq!(restored.prefilling(), Some(EstimatorKind::Rsl));
    for latest in [&mut original, &mut restored] {
        assert!(latest.debug_activate_prefill());
        assert_eq!(latest.active_kind(), EstimatorKind::Rsl);
    }
    assert_lockstep(&mut original, &mut restored, at, 6);
}

/// With prefilling ablated, a switch starts its replacement empty beside a
/// full window: each batch hands it evictions it never saw, so its
/// population falls to zero under a sample of new arrivals. The engine
/// writes that state — a cold active estimator and a cold `Ready` one, for
/// RSL, RSH and SPN — and restores it to an engine that answers bit for bit
/// like the one that never stopped.
#[test]
fn cold_switched_samplers_survive_the_roundtrip() {
    let mut config = small_config();
    config.ablation.prefill = false;
    for (active, ready) in [
        (EstimatorKind::Rsl, EstimatorKind::Spn),
        (EstimatorKind::Spn, EstimatorKind::Rsh),
    ] {
        let mut original = Latest::new(config.clone());
        let mut at = drive_to(&mut original, PhaseTag::Incremental, 0);
        for (kind, activate) in [(active, true), (ready, false)] {
            assert!(original.debug_force_prefill(kind), "{kind} prefill");
            for _ in 0..3 {
                original.ingest_batch(&objects(at, 24));
                at += 24;
            }
            if activate {
                assert!(original.debug_activate_prefill());
            }
        }
        assert_eq!(original.active_kind(), active);
        assert_eq!(original.prefilling(), Some(ready));
        let bytes = original.snapshot_bytes();
        let mut restored = Latest::restore(config.clone(), &bytes)
            .unwrap_or_else(|e| panic!("{active} active, {ready} ready: {e}"));
        assert_eq!(restored.prefilling(), Some(ready));
        assert_lockstep(&mut original, &mut restored, at, 6);
    }
}

#[test]
fn save_and_load_snapshot_roundtrip_through_a_file() {
    let config = small_config();
    let mut original = Latest::new(config.clone());
    let at = drive_to(&mut original, PhaseTag::Incremental, 0);
    let path = scratch("single.snap");
    original.save_snapshot(&path).expect("save");
    // Overwrite must be atomic too: a second save over the same path.
    original.save_snapshot(&path).expect("second save");
    let mut restored = Latest::load_snapshot(config, &path).expect("load");
    assert_lockstep(&mut original, &mut restored, at, 4);
    let _ = std::fs::remove_file(&path);
}

#[cfg(feature = "debug-invariants")]
#[test]
fn restored_instance_passes_a_full_audit() {
    for phase in [PhaseTag::PreTraining, PhaseTag::Incremental] {
        let config = small_config();
        let mut original = Latest::new(config.clone());
        let mut at = drive_to(&mut original, phase, 0);
        let bytes = original.snapshot_bytes();
        let mut restored = Latest::restore(config, &bytes).expect("restore");
        restored.audit().expect("restored instance audits clean");
        // Still clean after it resumes ingesting and answering.
        for round in 200..203 {
            restored.ingest_batch(&objects(at, 32));
            at += 32;
            for q in queries(round, 4) {
                let _ = restored.query(&q, QueryOptions::new());
            }
            restored.audit().expect("audit after continuation");
        }
    }
}

/// Satellite regression for the `RcDvq::signature()` −0.0 normalization:
/// IEEE 754 says −0.0 == 0.0, so two queries differing only in zero sign
/// must memoize as one cache entry — the second is served by the cache
/// with the first one's bits.
#[test]
fn negative_zero_and_positive_zero_queries_share_a_cache_entry() {
    let config = small_config();
    let mut latest = Latest::new(config);
    drive_to(&mut latest, PhaseTag::Incremental, 0);
    // The same rectangle, one corner written with each zero sign.
    let r_neg = Rect::new(-0.0, 30.0, 8.0, 38.0);
    let r_pos = Rect::new(0.0, 30.0, 8.0, 38.0);
    assert!(r_neg.min_x.is_sign_negative() && r_pos.min_x.is_sign_positive());
    let first = latest.query(&RcDvq::spatial(r_neg), QueryOptions::new());
    let second = latest.query(&RcDvq::spatial(r_pos), QueryOptions::new());
    assert_eq!(
        second.served_by,
        ServedBy::Cache,
        "+0.0 twin of a −0.0 query missed the cache"
    );
    assert_eq!(first.estimate.to_bits(), second.estimate.to_bits());
}

#[test]
fn truncated_snapshots_fail_typed_at_every_length() {
    let config = small_config();
    let mut original = Latest::new(config.clone());
    drive_to(&mut original, PhaseTag::Incremental, 0);
    let path = scratch("trunc.snap");
    original.save_snapshot(&path).expect("save");
    let full = std::fs::read(&path).expect("read back");
    // Cut at a spread of prefixes including the header boundary region;
    // every one must be a typed error, never a panic or an Ok.
    for cut in [0usize, 1, 7, 8, 27, 28, full.len() / 2, full.len() - 1] {
        std::fs::write(&path, &full[..cut]).expect("write truncation");
        let err = Latest::load_snapshot(config.clone(), &path);
        assert!(
            err.is_err(),
            "truncation at {cut}/{} was not detected",
            full.len()
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_snapshots_fail_typed() {
    let config = small_config();
    let mut original = Latest::new(config.clone());
    drive_to(&mut original, PhaseTag::Incremental, 0);
    let path = scratch("corrupt.snap");
    original.save_snapshot(&path).expect("save");
    let full = std::fs::read(&path).expect("read back");

    // Any payload bit flip is caught by the sealed-file checksum.
    let mut flipped = full.clone();
    let mid = 28 + (flipped.len() - 28) / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&path, &flipped).expect("write flipped");
    match Latest::load_snapshot(config.clone(), &path) {
        Err(PersistError::ChecksumMismatch { expected, found }) => assert_ne!(expected, found),
        other => panic!(
            "bit flip produced {:?}, wanted ChecksumMismatch",
            other.err()
        ),
    }

    // A wrong magic is recognized before anything is decoded.
    let mut wrong_magic = full.clone();
    wrong_magic[..8].copy_from_slice(b"NOTLATST");
    std::fs::write(&path, &wrong_magic).expect("write wrong magic");
    match Latest::load_snapshot(config.clone(), &path) {
        Err(PersistError::BadMagic { expected, .. }) => assert_eq!(&expected, &SNAPSHOT_MAGIC),
        other => panic!("wrong magic produced {:?}, wanted BadMagic", other.err()),
    }

    // A file of an earlier format is refused by its header and never
    // decoded: these are the 28 bytes `golden-v4.snap`, `golden-v5.snap`
    // and `golden-v6.snap` began with.
    let v4_header: [u8; 28] = [
        0x4c, 0x41, 0x54, 0x53, 0x4e, 0x41, 0x50, 0x31, 0x04, 0x00, 0x00, 0x00, 0xc0, 0xb9, 0x01,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0xbb, 0x4e, 0x00, 0xb6, 0x61, 0xd6, 0x5c,
    ];
    let v5_header: [u8; 28] = [
        0x4c, 0x41, 0x54, 0x53, 0x4e, 0x41, 0x50, 0x31, 0x05, 0x00, 0x00, 0x00, 0xb8, 0xb9, 0x01,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x3e, 0x58, 0x8f, 0x7e, 0xbd, 0xec, 0x27, 0x65,
    ];
    let v6_header: [u8; 28] = [
        0x4c, 0x41, 0x54, 0x53, 0x4e, 0x41, 0x50, 0x31, 0x06, 0x00, 0x00, 0x00, 0x9f, 0xb9, 0x01,
        0x00, 0x00, 0x00, 0x00, 0x00, 0xe7, 0xb0, 0x96, 0xc5, 0xb7, 0xc6, 0xd8, 0x27,
    ];
    for (version, header) in [(4, v4_header), (5, v5_header), (6, v6_header)] {
        std::fs::write(&path, header).expect("write old header");
        match Latest::load_snapshot(config.clone(), &path) {
            Err(PersistError::UnsupportedVersion { found, supported }) => {
                assert_eq!((found, supported), (version, 7));
            }
            other => panic!(
                "v{version} header produced {:?}, wanted UnsupportedVersion",
                other.err()
            ),
        }
    }

    // A config that does not match the snapshot's fingerprint is refused —
    // restoring learned state under different parameters would silently
    // violate every capacity invariant. The other backend alone would be
    // accepted (`index_kind` shapes no persisted state); the 500-slot
    // reservoir is what refuses it.
    std::fs::write(&path, &full).expect("write intact");
    let other_config = config_with(SpatialIndexKind::Quadtree, 500);
    match Latest::load_snapshot(other_config, &path) {
        Err(PersistError::Corrupt { context, .. }) => {
            assert!(context.contains("config"), "unexpected context {context}");
        }
        other => panic!("config mismatch produced {:?}, wanted Corrupt", other.err()),
    }
    let _ = std::fs::remove_file(&path);
}

/// `shard.queue_capacity`, `prefill_delta_cap` and `index_kind` bound
/// latency and memory and cannot change an answer, so they are not part of
/// the fingerprint: an operator may retune backpressure, or move a grid
/// snapshot onto the quadtree (the exact executor is rebuilt from the
/// restored window on the configured backend), and the restored instance
/// still continues bit-identically.
#[test]
fn latency_only_settings_do_not_block_restore() {
    let saved_under = LatestConfig {
        shard: ShardConfig {
            queue_capacity: 8_192,
            ..ShardConfig::default()
        },
        prefill_delta_cap: 65_536,
        ..small_config()
    };
    let restored_under = LatestConfig {
        shard: ShardConfig {
            queue_capacity: 4_096,
            ..ShardConfig::default()
        },
        prefill_delta_cap: 1_024,
        ..config_with(SpatialIndexKind::Quadtree, 1_000)
    };
    let mut original = Latest::new(saved_under);
    let at = drive_to(&mut original, PhaseTag::Incremental, 0);
    let bytes = original.snapshot_bytes();
    let mut restored = Latest::restore(restored_under, &bytes)
        .expect("queue capacity, delta cap and backend are free to change across a restart");
    // 6 rounds × 6 queries: the next 36 answers against the uninterrupted twin.
    assert_lockstep(&mut original, &mut restored, at, 6);
}

/// The other direction: every setting that shapes persisted state or future
/// answers still refuses the restore with the typed configuration error.
#[test]
fn state_shaping_settings_still_do() {
    let config = small_config();
    let mut original = Latest::new(config.clone());
    drive_to(&mut original, PhaseTag::Incremental, 0);
    let bytes = original.snapshot_bytes();
    let mismatches = [
        (
            "tau",
            LatestConfig {
                tau: 0.06,
                ..config.clone()
            },
        ),
        (
            "reservoir_capacity",
            LatestConfig {
                estimator_config: EstimatorConfig {
                    reservoir_capacity: 999,
                    ..config.estimator_config.clone()
                },
                ..config.clone()
            },
        ),
        (
            "shard.router",
            LatestConfig {
                shard: ShardConfig {
                    router: RouterPolicy::SpatialTile,
                    ..config.shard
                },
                ..config.clone()
            },
        ),
    ];
    for (what, other) in mismatches {
        match Latest::restore(other, &bytes) {
            Err(PersistError::Corrupt { context, .. }) => {
                assert_eq!(context, "Latest.config_fingerprint", "{what}");
            }
            other => panic!(
                "a different {what} produced {:?}, wanted Corrupt",
                other.err()
            ),
        }
    }
}

/// Where the bytes went, as a count: the snapshot holds the window and the
/// learned state and no executor index, so two engines that differ only in
/// their spatial backend write snapshots of the same length. α = 0 keeps
/// wall-clock latency out of the rewards, so both learn the same model.
#[test]
fn the_spatial_backend_adds_no_snapshot_bytes() {
    let lens = [SpatialIndexKind::Grid, SpatialIndexKind::Quadtree].map(|kind| {
        let mut latest = Latest::new(LatestConfig {
            alpha: 0.0,
            ..config_with(kind, 1_000)
        });
        drive_to(&mut latest, PhaseTag::Incremental, 0);
        latest.snapshot_bytes().len()
    });
    assert_eq!(lens[0], lens[1], "grid vs quadtree snapshot length");
}

fn sharded_config(index_kind: SpatialIndexKind) -> LatestConfig {
    let spec = DatasetSpec::twitter();
    LatestConfig::builder()
        .window_span(Duration::from_secs(60))
        .warmup(Duration::from_secs(60))
        .pretrain_queries(12)
        .accuracy_window(8)
        .min_switch_spacing(8)
        .tau(0.05)
        .index_kind(index_kind)
        .shard(ShardConfig {
            shards: 4,
            queue_capacity: 1_024,
            router: RouterPolicy::HashOid,
        })
        .estimator_config(EstimatorConfig {
            domain: spec.domain,
            reservoir_capacity: 500,
            ..EstimatorConfig::default()
        })
        .build()
        .expect("valid sharded config")
}

#[test]
fn sharded_roundtrip_is_bit_identical() {
    let config = sharded_config(SpatialIndexKind::Grid);
    let original = ShardedLatest::new(config.clone()).expect("engine spawns");
    let mut at = 0u64;
    for _ in 0..12 {
        original.ingest_batch(&objects(at, 128)).expect("ingest");
        at += 128;
    }
    for round in 0..6 {
        original
            .query_batch(&queries(round, 4), QueryOptions::new())
            .expect("query");
    }

    let dir = scratch("sharded-snap");
    original.save_snapshot(&dir).expect("save");
    let restored = ShardedLatest::restore(config, &dir).expect("restore");

    for round in 300..306 {
        let batch = objects(at, 64);
        original.ingest_batch(&batch).expect("ingest original");
        restored.ingest_batch(&batch).expect("ingest restored");
        at += 64;
        original.flush().expect("flush original");
        restored.flush().expect("flush restored");
        let qs = queries(round, 5);
        let oa = original.query_batch(&qs, QueryOptions::new()).expect("qa");
        let ob = restored.query_batch(&qs, QueryOptions::new()).expect("qb");
        for (a, b) in oa.iter().zip(&ob) {
            assert_eq!(
                a.estimate.to_bits(),
                b.estimate.to_bits(),
                "sharded estimates diverged: {} vs {}",
                a.estimate,
                b.estimate
            );
            assert_eq!(a.actual, b.actual);
        }
    }

    #[cfg(feature = "debug-invariants")]
    restored
        .audit()
        .expect("restored sharded engine audits clean");

    original.shutdown();
    restored.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_restore_rejects_corruption_and_missing_manifest() {
    let config = sharded_config(SpatialIndexKind::Grid);
    let original = ShardedLatest::new(config.clone()).expect("engine spawns");
    original.ingest_batch(&objects(0, 512)).expect("ingest");
    let dir = scratch("sharded-corrupt");
    original.save_snapshot(&dir).expect("save");
    original.shutdown();

    // Bit-flip one shard payload: the manifest checksum must catch it.
    let shard0 = dir.join("shard-0.snap");
    let mut bytes = std::fs::read(&shard0).expect("read shard");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&shard0, &bytes).expect("rewrite shard");
    match ShardedLatest::restore(config.clone(), &dir) {
        Err(LatestError::Persist(PersistError::ChecksumMismatch { .. })) => {}
        other => panic!("corrupt shard produced {other:?}, wanted ChecksumMismatch"),
    }

    // Without the manifest the snapshot never committed: typed error.
    std::fs::remove_file(dir.join("manifest.snap")).expect("drop manifest");
    match ShardedLatest::restore(config, &dir) {
        Err(LatestError::Persist(PersistError::Io { .. })) => {}
        other => panic!("missing manifest produced {other:?}, wanted Io"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An engine restored from snapshot re-enters the concurrent serving path
/// via [`SharedLatest::from_instance`] — one ingesting thread, queries
/// beside it — with its learned state intact.
#[test]
fn pipeline_resume_continues_from_a_snapshot() {
    let config = small_config();
    let mut original = Latest::new(config.clone());
    let mut at = drive_to(&mut original, PhaseTag::Incremental, 0);
    let path = scratch("resume.snap");
    original.save_snapshot(&path).expect("save");

    let restored = Latest::load_snapshot(config, &path).expect("load");
    assert_eq!(restored.phase(), PhaseTag::Incremental);
    let shared = SharedLatest::from_instance(restored);
    let ingestor = {
        let shared = shared.clone();
        // The stream resumes where the snapshot left it: the window
        // refuses arrivals older than its clock.
        std::thread::spawn(move || {
            for _ in 0..8 {
                shared.ingest_batch(&objects(at, 64));
                at += 64;
            }
        })
    };
    // No warm-up re-entry: the handle answers from the incremental phase
    // immediately.
    assert_eq!(shared.phase(), PhaseTag::Incremental);
    let out = shared
        .query(&RcDvq::keyword(vec![KeywordId(3)]), QueryOptions::new())
        .expect("a blocking query waits its turn");
    assert!(out.estimate.is_finite());
    ingestor.join().expect("ingest thread");
    let _ = std::fs::remove_file(&path);
}

/// Format-compatibility canary: a committed snapshot written by the
/// current format version must keep decoding bit-for-bit. Regenerate with
/// `cargo test -p latest-core --test snapshots regen_golden_fixture -- --ignored`
/// **only** alongside a deliberate FORMAT_VERSION bump.
fn golden_config() -> LatestConfig {
    config_with(SpatialIndexKind::Grid, 800)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden-v7.snap")
}

fn golden_instance() -> Latest {
    let mut latest = Latest::new(golden_config());
    drive_to(&mut latest, PhaseTag::Incremental, 0);
    latest
}

#[test]
#[ignore = "writes the committed fixture; run only on a format bump"]
fn regen_golden_fixture() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).expect("fixtures dir");
    golden_instance()
        .save_snapshot(&path)
        .expect("write fixture");
}

#[test]
fn golden_fixture_still_decodes() {
    let path = golden_path();
    let mut restored = Latest::load_snapshot(golden_config(), &path)
        .expect("golden fixture no longer decodes — format broke without a version bump");
    assert_eq!(restored.phase(), PhaseTag::Incremental);
    assert!(restored.window_len() > 0);
    // And it answers exactly like a freshly driven twin of the workload
    // that produced it.
    let mut twin = golden_instance();
    assert_eq!(restored.window_len(), twin.window_len());
    for q in queries(77, 6) {
        let a = restored.query(&q, QueryOptions::new());
        let b = twin.query(&q, QueryOptions::new());
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    }
}

/// The format is pinned byte for byte, not just "still decodes": loading
/// the fixture and saving it again reproduces the committed file, so an
/// in-memory layout change (columns, dense grids, another hasher) cannot
/// leak into what is written.
#[test]
fn golden_fixture_reserialises_to_itself() {
    let golden = std::fs::read(golden_path()).expect("read fixture");
    let mut restored =
        Latest::load_snapshot(golden_config(), golden_path()).expect("golden fixture decodes");
    let path = scratch("golden-resaved.snap");
    restored.save_snapshot(&path).expect("save");
    let resaved = std::fs::read(&path).expect("read resaved");
    let _ = std::fs::remove_file(&path);
    assert!(
        resaved == golden,
        "re-saved fixture differs from golden-v7.snap ({} vs {} bytes)",
        resaved.len(),
        golden.len()
    );
}

/// All-empty-shards observability regression: a merged snapshot over
/// shards that have answered nothing must report no monitor average at
/// all — never a NaN from a 0/0 weighted mean.
#[test]
fn merged_metrics_over_idle_shards_have_no_monitor_average() {
    let config = sharded_config(SpatialIndexKind::Grid);
    let engine = ShardedLatest::new(config).expect("engine spawns");
    let snap = engine.metrics_snapshot().expect("snapshot");
    assert_eq!(snap.adaptor.monitor_average, None);
    assert_eq!(snap.adaptor.monitor_len, 0);
    engine.shutdown();
}

/// Random churn schedules × every estimator kind (as the forced
/// prefill candidate — warm-up/pre-training snapshots already carry
/// the full six-kind pool) × every exact backend: the round trip is
/// always bit-identical and (under `debug-invariants`) audit-clean.
#[test]
fn roundtrip_survives_random_churn() {
    check("roundtrip_survives_random_churn", 12, |rng| {
        let schedule = vec_of(rng, 1..8, |rng| (u64_in(rng, 1..80), u64_in(rng, 0..6)));
        let kind_ix = u32_in(rng, 0..EstimatorKind::ALL.len() as u32);
        let backend = [SpatialIndexKind::Grid, SpatialIndexKind::Quadtree][usize_in(rng, 0..2)];
        let config = config_with(backend, 700);
        let mut original = Latest::new(config.clone());
        let mut at = drive_to(&mut original, PhaseTag::Incremental, 0);

        // Apply the random churn: interleaved ingest bursts and queries.
        for (round, &(ingest_n, query_n)) in schedule.iter().enumerate() {
            original.ingest_batch(&objects(at, ingest_n));
            at += ingest_n;
            for q in queries(1_000 + round as u64, query_n) {
                let _ = original.query(&q, QueryOptions::new());
            }
        }
        let kind = EstimatorKind::from_index(kind_ix).expect("kind index in range");
        let _ = original.debug_force_prefill(kind);

        let bytes = original.snapshot_bytes();
        let mut restored = Latest::restore(config, &bytes).expect("restore");
        #[cfg(feature = "debug-invariants")]
        restored.audit().expect("restored instance audits clean");
        assert_lockstep(&mut original, &mut restored, at, 3);
    });
}

/// Bounded state, asserted: nothing a `Latest` writes into a snapshot grows
/// with the number of queries it has answered. The stream is fixed-shape
/// and fixed-rate, so the window holds the same 1 201 objects throughout; a
/// forced prefill + activation every 150 queries keeps lifecycle events
/// flowing. The two marks sit right after a switch back to RSH. Since
/// format v7 a snapshot writes the window's live objects and each sample's
/// objects alone (no evicted prefix, no dead posting or pool garbage), so
/// what is left to move between the 25 % and the 100 % mark is the sample's
/// keyword count and the model — an order of magnitude under the 96-byte
/// record per answered query the engine used to keep and persist.
#[test]
fn snapshot_size_does_not_grow_with_queries_served() {
    const QUERIES: u64 = 2_400; // 120× the 20 pre-training queries
    const PER_ROUND: u64 = 6; // divides 150, 600 and 2 400
    let mut latest = Latest::new(small_config());
    let mut at = drive_to(&mut latest, PhaseTag::Incremental, 0);
    let mut quarter_mark = 0;
    for round in 0..QUERIES / PER_ROUND {
        for q in queries(2_000 + round, PER_ROUND) {
            let out = latest.query(&q, QueryOptions::new());
            assert!(matches!(out.served_by, ServedBy::Estimator(_)));
        }
        let answered = (round + 1) * PER_ROUND;
        if answered.is_multiple_of(150) {
            let to = match latest.active_kind() {
                EstimatorKind::Rsh => EstimatorKind::Rsl,
                _ => EstimatorKind::Rsh,
            };
            assert!(latest.debug_force_prefill(to));
            assert!(latest.debug_activate_prefill());
        }
        // The ingest empties the selectivity cache, so neither mark counts
        // cached answers.
        latest.ingest_batch(&objects(at, 16));
        at += 16;
        if answered == QUERIES / 4 {
            assert_eq!(latest.active_kind(), EstimatorKind::Rsh);
            quarter_mark = latest.snapshot_bytes().len();
        }
    }
    assert_eq!(latest.active_kind(), EstimatorKind::Rsh);
    let full_mark = latest.snapshot_bytes().len();
    let a_log_would_have_added = 96 * (QUERIES - QUERIES / 4) as usize;
    assert!(
        full_mark.abs_diff(quarter_mark) < a_log_would_have_added / 10,
        "snapshot went from {quarter_mark} to {full_mark} bytes over {} queries",
        QUERIES - QUERIES / 4
    );
    let snap = latest.metrics_snapshot();
    assert_eq!(snap.adaptor.switches, QUERIES / 150);
    assert!(latest.metrics().events.len() <= latest.metrics().events.capacity());
    assert_eq!(snap.events_dropped, 0);
}
