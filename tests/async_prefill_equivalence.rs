//! Async prefill equivalence: a candidate built in the background from a
//! window snapshot and caught up through the delta log must be
//! indistinguishable — bit for bit — from one built synchronously on the
//! serving thread. Where the build runs decides latency, never an answer.
//!
//! **The reference engine** ("sync" below) is the same configuration with
//! the builder running its jobs on the calling thread
//! (`Latest::debug_build_prefills_on_caller`): the degradation
//! `PrefillBuilder` falls back to when its worker cannot be spawned. It
//! still is a reference, not a second copy of the code under test: an
//! on-caller candidate is complete before the next window change, so it is
//! promoted after a one-batch replay and maintained inline from then on —
//! the retired synchronous path in all but name — while the threaded
//! engine ("async") races the churn and replays a many-batch tail, or is
//! cancelled, restarted and waited for.
//!
//! Three contracts, each against deterministic lock-step streams (no
//! external RNG, identical on every run; α = 0 so wall-clock noise
//! cannot leak into any decision):
//!
//! 1. **Every estimator kind, forced storms.** For all six kinds, a
//!    sync and an async engine fed the identical stream force-prefill
//!    the kind, churn through inserts *and* evictions while the build is
//!    in flight, activate, and then must produce bit-equal outcomes on
//!    every subsequent query — including a run with a tiny delta cap
//!    that forces the overflow-restart path.
//! 2. **Sharded × async vs unsharded × sync.** A one-shard engine with
//!    async prefill and a plain `Latest` with sync prefill replay the
//!    identical stream under an adaptor tuned to switch often; every
//!    outcome of every query must match bit-for-bit, switches included.
//! 3. **Random churn schedules (property).** Arbitrary interleavings of
//!    batch sizes and clock jumps between prefill start and activation
//!    preserve contract 1.

use estimators::{EstimatorConfig, EstimatorKind};
use geostream::{Duration, GeoTextObject, KeywordId, ObjectId, Point, RcDvq, Rect, Timestamp};
use latest_core::{
    AblationConfig, Latest, LatestConfig, QueryOptions, QueryOutcome, RouterPolicy, ShardConfig,
    ShardedLatest,
};
use testkit::{check, u64_in, usize_in};

const DOMAIN: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 100.0,
    max_y: 100.0,
};

/// Deterministic LCG (no external RNG, identical on every run).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1);
    *state >> 11
}

fn make_obj(id: u64, r: u64, t: Timestamp) -> GeoTextObject {
    let n_kws = 1 + r % 3;
    let kws: Vec<KeywordId> = (0..n_kws)
        .map(|k| KeywordId(((r >> 9) + k) as u32 % 16))
        .collect();
    GeoTextObject::new(
        ObjectId(id),
        Point::new((r % 1_000) as f64 / 10.0, ((r >> 17) % 1_000) as f64 / 10.0),
        kws,
        t,
    )
}

fn probe(r: u64) -> RcDvq {
    let x = (r % 60) as f64;
    let y = ((r >> 13) % 60) as f64;
    let rect = Rect::new(x, y, x + 25.0, y + 30.0);
    match r % 3 {
        0 => RcDvq::spatial(rect),
        1 => RcDvq::keyword(vec![KeywordId(r as u32 % 16)]),
        _ => RcDvq::hybrid(rect, vec![KeywordId((r >> 5) as u32 % 16)]),
    }
}

fn assert_outcomes_bit_equal(a: &QueryOutcome, b: &QueryOutcome, ctx: &str) {
    assert_eq!(
        a.estimate.to_bits(),
        b.estimate.to_bits(),
        "estimate: {ctx}"
    );
    assert_eq!(a.actual, b.actual, "actual: {ctx}");
    assert_eq!(
        a.accuracy.to_bits(),
        b.accuracy.to_bits(),
        "accuracy: {ctx}"
    );
    assert_eq!(a.estimator, b.estimator, "estimator: {ctx}");
    assert_eq!(a.phase, b.phase, "phase: {ctx}");
    assert_eq!(a.switched, b.switched, "switched: {ctx}");
    assert_eq!(a.served_by, b.served_by, "served_by: {ctx}");
}

/// Config for the forced-storm contracts: the adaptor's own switching is
/// ablated away so the debug hooks are the only switch driver.
fn forced_config(delta_cap: usize) -> LatestConfig {
    LatestConfig::builder()
        .window_span(Duration::from_secs(2))
        .warmup(Duration::from_secs(2))
        .pretrain_queries(16)
        .accuracy_window(8)
        .alpha(0.0)
        .shadow_metrics(false)
        .default_estimator(EstimatorKind::Rsh)
        .ablation(AblationConfig {
            switching: false,
            ..AblationConfig::default()
        })
        .prefill_delta_cap(delta_cap)
        .estimator_config(EstimatorConfig {
            domain: DOMAIN,
            reservoir_capacity: 512,
            ..EstimatorConfig::default()
        })
        .build()
        .expect("test parameters are in range")
}

/// The reference engine (module docs): `config`, with every prefill built
/// on the calling thread.
fn sync_engine(config: LatestConfig) -> Latest {
    let mut latest = Latest::new(config);
    latest.debug_build_prefills_on_caller();
    latest
}

/// Drives a sync and an async engine in lock-step: prime into the
/// incremental phase, force a prefill of `kind`, churn through `churn`
/// rounds of `(batch_size, clock_step_ms)` while the async build is in
/// flight, activate on both, then keep churning and probing. Every
/// outcome along the way must be bit-equal.
fn assert_forced_equivalence(kind: EstimatorKind, churn: &[(usize, u64)], delta_cap: usize) {
    let mut sync = sync_engine(forced_config(delta_cap));
    let mut asyn = Latest::new(forced_config(delta_cap));
    let mut rng = 0xA51D_0001 ^ ((kind.index() as u64) << 8) ^ (delta_cap as u64);
    let mut clock = Timestamp::ZERO;
    let mut next_id = 0u64;
    let ctx = |tag: &str, round: usize, i: usize| {
        format!(
            "{}: {tag} round {round} query {i} (delta_cap {delta_cap})",
            kind.name()
        )
    };

    let drive = |sync: &mut Latest,
                 asyn: &mut Latest,
                 rng: &mut u64,
                 clock: &mut Timestamp,
                 next_id: &mut u64,
                 n: usize,
                 step: u64,
                 tag: &str,
                 round: usize| {
        let batch: Vec<GeoTextObject> = (0..n.max(1))
            .map(|_| {
                let r = lcg(rng);
                *clock = clock.after(Duration::from_millis(r % (step + 1)));
                *next_id += 1;
                make_obj(*next_id, r, *clock)
            })
            .collect();
        sync.ingest_batch(&batch);
        asyn.ingest_batch(&batch);
        let opts = QueryOptions::at(*clock).use_cache(false);
        for i in 0..4usize {
            let q = probe(lcg(rng));
            let a = sync.query(&q, opts);
            let b = asyn.query(&q, opts);
            assert_outcomes_bit_equal(&a, &b, &ctx(tag, round, i));
        }
    };

    // Prime through warm-up and pre-training into the incremental phase.
    let mut round = 0usize;
    while sync.phase() != latest_core::PhaseTag::Incremental {
        drive(
            &mut sync,
            &mut asyn,
            &mut rng,
            &mut clock,
            &mut next_id,
            48,
            5,
            "prime",
            round,
        );
        round += 1;
        assert!(round < 64, "{}: never reached incremental", kind.name());
    }
    assert_eq!(asyn.phase(), latest_core::PhaseTag::Incremental);

    // Force the prefill, churn while the async build is in flight, then
    // activate on both engines at the same point.
    assert!(
        sync.debug_force_prefill(kind),
        "{}: sync force",
        kind.name()
    );
    assert!(
        asyn.debug_force_prefill(kind),
        "{}: async force",
        kind.name()
    );
    assert_eq!(sync.prefilling(), Some(kind));
    assert_eq!(asyn.prefilling(), Some(kind));
    for (round, &(n, step)) in churn.iter().enumerate() {
        drive(
            &mut sync,
            &mut asyn,
            &mut rng,
            &mut clock,
            &mut next_id,
            n,
            step,
            "mid-build",
            round,
        );
    }
    assert!(
        sync.debug_activate_prefill(),
        "{}: sync activate",
        kind.name()
    );
    assert!(
        asyn.debug_activate_prefill(),
        "{}: async activate",
        kind.name()
    );
    assert_eq!(sync.active_kind(), kind);
    assert_eq!(asyn.active_kind(), kind);

    // The activated estimator must now behave identically on both sides:
    // same estimates, same internal sampling decisions as the window
    // keeps churning underneath it.
    for round in 0..6usize {
        drive(
            &mut sync,
            &mut asyn,
            &mut rng,
            &mut clock,
            &mut next_id,
            48,
            8,
            "post-switch",
            round,
        );
    }
}

#[test]
fn async_prefill_is_bit_equal_to_sync_for_every_kind() {
    for kind in EstimatorKind::ALL {
        assert_forced_equivalence(kind, &[(48, 6), (32, 4), (64, 9)], 65_536);
    }
}

/// A delta cap far below one churn batch forces the overflow-restart
/// path (cancel, fresh snapshot at the restart point, new log). The
/// restart re-anchors the candidate: it must be bit-equal to a candidate
/// built *synchronously at the restart point* — here, the sync engine
/// force-prefills right after the overflowing batch, while the async
/// engine force-prefilled before it and was restarted by the overflow.
#[test]
fn overflowing_delta_log_restarts_and_stays_bit_equal() {
    for kind in [EstimatorKind::Rsh, EstimatorKind::Spn, EstimatorKind::Ffn] {
        let mut sync = sync_engine(forced_config(32));
        let mut asyn = Latest::new(forced_config(32));
        let mut rng = 0x0F10_u64 ^ (kind.index() as u64);
        let mut clock = Timestamp::ZERO;
        let mut next_id = 0u64;
        let feed = |sync: &mut Latest,
                    asyn: &mut Latest,
                    rng: &mut u64,
                    clock: &mut Timestamp,
                    next_id: &mut u64,
                    probes: bool| {
            let batch: Vec<GeoTextObject> = (0..60)
                .map(|_| {
                    let r = lcg(rng);
                    *clock = clock.after(Duration::from_millis(r % 6));
                    *next_id += 1;
                    make_obj(*next_id, r, *clock)
                })
                .collect();
            sync.ingest_batch(&batch);
            asyn.ingest_batch(&batch);
            if probes {
                let opts = QueryOptions::at(*clock).use_cache(false);
                for i in 0..4usize {
                    let q = probe(lcg(rng));
                    let a = sync.query(&q, opts);
                    let b = asyn.query(&q, opts);
                    assert_outcomes_bit_equal(&a, &b, &format!("{}: query {i}", kind.name()));
                }
            }
        };
        while sync.phase() != latest_core::PhaseTag::Incremental {
            feed(
                &mut sync,
                &mut asyn,
                &mut rng,
                &mut clock,
                &mut next_id,
                true,
            );
        }
        // Only the async engine prefills now; the 60-object batch
        // overflows its 32-object delta log, cancelling the in-flight
        // build and resubmitting from the post-batch window.
        assert!(asyn.debug_force_prefill(kind));
        feed(
            &mut sync,
            &mut asyn,
            &mut rng,
            &mut clock,
            &mut next_id,
            false,
        );
        assert_eq!(
            asyn.metrics_snapshot().adaptor.prefill_cancelled,
            1,
            "{}: the overflow restart never fired",
            kind.name()
        );
        // The sync engine builds inline at exactly the restart point.
        assert!(sync.debug_force_prefill(kind));
        assert!(sync.debug_activate_prefill());
        assert!(asyn.debug_activate_prefill());
        assert_eq!(sync.active_kind(), kind);
        assert_eq!(asyn.active_kind(), kind);
        for _ in 0..5 {
            feed(
                &mut sync,
                &mut asyn,
                &mut rng,
                &mut clock,
                &mut next_id,
                true,
            );
        }
    }
}

/// Discard-then-re-enter: a discarded candidate is dropped, and the one
/// built on re-entry must still match the on-caller reference bit for bit.
#[test]
fn discard_then_reenter_is_bit_equal() {
    for kind in [EstimatorKind::Rsl, EstimatorKind::Aasp] {
        let mut sync = sync_engine(forced_config(65_536));
        let mut asyn = Latest::new(forced_config(65_536));
        let mut rng = 0x0D15_CA4D ^ (kind.index() as u64);
        let mut clock = Timestamp::ZERO;
        let mut next_id = 0u64;
        let feed = |sync: &mut Latest,
                    asyn: &mut Latest,
                    rng: &mut u64,
                    clock: &mut Timestamp,
                    next_id: &mut u64| {
            let batch: Vec<GeoTextObject> = (0..48)
                .map(|_| {
                    let r = lcg(rng);
                    *clock = clock.after(Duration::from_millis(r % 6));
                    *next_id += 1;
                    make_obj(*next_id, r, *clock)
                })
                .collect();
            sync.ingest_batch(&batch);
            asyn.ingest_batch(&batch);
            let opts = QueryOptions::at(*clock).use_cache(false);
            for _ in 0..4usize {
                let q = probe(lcg(rng));
                let a = sync.query(&q, opts);
                let b = asyn.query(&q, opts);
                assert_outcomes_bit_equal(&a, &b, kind.name());
            }
        };
        while sync.phase() != latest_core::PhaseTag::Incremental {
            feed(&mut sync, &mut asyn, &mut rng, &mut clock, &mut next_id);
        }
        // First prefill: build fully, then discard (drops the candidate).
        assert!(sync.debug_force_prefill(kind));
        assert!(asyn.debug_force_prefill(kind));
        for _ in 0..3 {
            feed(&mut sync, &mut asyn, &mut rng, &mut clock, &mut next_id);
        }
        assert!(sync.debug_discard_prefill());
        assert!(asyn.debug_discard_prefill());
        assert_eq!(sync.prefilling(), None);
        assert_eq!(asyn.prefilling(), None);
        // Re-enter with the same kind: a fresh candidate is built.
        assert!(sync.debug_force_prefill(kind));
        assert!(asyn.debug_force_prefill(kind));
        for _ in 0..2 {
            feed(&mut sync, &mut asyn, &mut rng, &mut clock, &mut next_id);
        }
        assert!(sync.debug_activate_prefill());
        assert!(asyn.debug_activate_prefill());
        assert_eq!(sync.active_kind(), kind);
        assert_eq!(asyn.active_kind(), kind);
        for _ in 0..4 {
            feed(&mut sync, &mut asyn, &mut rng, &mut clock, &mut next_id);
        }
    }
}

/// Adaptor tuned to switch eagerly: a spatial-only default estimator on a
/// keyword-heavy mix keeps the monitor in the danger zone, so natural
/// (un-forced) prefills and switches happen along the replay.
fn eager_config(shards: usize) -> LatestConfig {
    LatestConfig::builder()
        .window_span(Duration::from_secs(2))
        .warmup(Duration::from_secs(2))
        .pretrain_queries(16)
        .accuracy_window(8)
        .min_switch_spacing(8)
        .tau(0.9)
        .beta(0.95)
        .switch_margin(0.0)
        .alpha(0.0)
        .shadow_metrics(false)
        .default_estimator(EstimatorKind::H4096)
        .estimator_config(EstimatorConfig {
            domain: DOMAIN,
            reservoir_capacity: 512,
            ..EstimatorConfig::default()
        })
        .shard(ShardConfig {
            shards,
            queue_capacity: 4_096,
            router: RouterPolicy::HashOid,
        })
        .build()
        .expect("test parameters are in range")
}

/// One-shard engine with async prefill vs plain `Latest` with sync
/// prefill: the natural adaptor switches along the replay, and every
/// outcome must still match bit-for-bit.
#[test]
fn sharded_async_matches_unsharded_sync_through_natural_switches() {
    let sharded = ShardedLatest::new(eager_config(1)).expect("one shard spawns");
    let mut solo = sync_engine(eager_config(1));
    let mut rng = 0x5eed_a51d;
    let mut clock = Timestamp::ZERO;
    let mut next_id = 0u64;
    for round in 0..48u32 {
        let batch: Vec<GeoTextObject> = (0..48)
            .map(|_| {
                let r = lcg(&mut rng);
                clock = clock.after(Duration::from_millis(r % 5));
                next_id += 1;
                make_obj(next_id, r, clock)
            })
            .collect();
        sharded.ingest_batch(&batch).expect("shard is live");
        solo.ingest_batch(&batch);
        let queries: Vec<RcDvq> = (0..6).map(|_| probe(lcg(&mut rng))).collect();
        let sharded_outs = sharded
            .query_batch(&queries, QueryOptions::at(clock))
            .expect("shard is live");
        let solo_outs = solo.query_batch(&queries, QueryOptions::at(clock));
        assert_eq!(sharded_outs.len(), solo_outs.len());
        for (i, (a, b)) in sharded_outs.iter().zip(&solo_outs).enumerate() {
            assert_outcomes_bit_equal(a, b, &format!("round {round} query {i}"));
        }
    }
    let snap = sharded.metrics_snapshot().expect("shard is live");
    // The replay must have exercised the machinery under test: prefills
    // started on both engines, in equal number, and the adaptor landed
    // on the same estimator.
    let solo_snap = solo.metrics_snapshot();
    assert!(
        solo_snap.adaptor.prefill_starts > 0,
        "workload never entered the danger zone; the equivalence run was vacuous"
    );
    assert_eq!(
        snap.adaptor.prefill_starts,
        solo_snap.adaptor.prefill_starts
    );
    assert_eq!(snap.adaptor.switches, solo_snap.adaptor.switches);
    assert!(sharded.shutdown() > 0);
}

/// The adaptor's current threshold order as a test: with the pre-fill
/// threshold β·τ below τ, the query that starts a natural pre-fill also
/// activates it, so no pre-fill outlives its query and none is ever
/// discarded. Putting the pre-fill threshold above the switch threshold
/// must invert this test.
#[test]
fn natural_prefill_never_outlives_its_query() {
    let mut latest = Latest::new(eager_config(1));
    let mut rng = 0x5eed_a51d;
    let mut clock = Timestamp::ZERO;
    let mut next_id = 0u64;
    for round in 0..96u32 {
        let batch: Vec<GeoTextObject> = (0..48)
            .map(|_| {
                let r = lcg(&mut rng);
                clock = clock.after(Duration::from_millis(r % 5));
                next_id += 1;
                make_obj(next_id, r, clock)
            })
            .collect();
        latest.ingest_batch(&batch);
        for i in 0..6 {
            let _ = latest.query(&probe(lcg(&mut rng)), QueryOptions::at(clock));
            assert_eq!(
                latest.prefilling(),
                None,
                "round {round} query {i}: a natural pre-fill outlived its query"
            );
        }
    }
    let adaptor = latest.metrics_snapshot().adaptor;
    assert!(
        adaptor.prefill_starts >= 1,
        "workload never entered the danger zone; the run was vacuous"
    );
    assert_eq!(adaptor.prefill_starts, adaptor.switches);
    assert_eq!(adaptor.prefill_discards, 0);
}

/// Contract 1 under arbitrary churn schedules: any interleaving of
/// batch sizes and clock jumps between prefill start and activation
/// (including eviction-heavy jumps) preserves bit-equality. The
/// schedule is expanded deterministically from the drawn seed. The
/// cap stays at its (ample) default: an overflow re-anchors the
/// candidate to the restart point by design, which the dedicated
/// overflow test covers.
#[test]
fn random_churn_mid_build_preserves_bit_equality() {
    check("random_churn_mid_build_preserves_bit_equality", 8, |rng| {
        let kind_idx = usize_in(rng, 0..6);
        let rounds = usize_in(rng, 1..5);
        let schedule_seed = u64_in(rng, 0..u64::MAX);
        let kind = EstimatorKind::ALL[kind_idx];
        let mut s = schedule_seed | 1;
        let churn: Vec<(usize, u64)> = (0..rounds)
            .map(|_| {
                let r = lcg(&mut s);
                (1 + (r % 63) as usize, (r >> 8) % 12)
            })
            .collect();
        assert_forced_equivalence(kind, &churn, 65_536);
    });
}
