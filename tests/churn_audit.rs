//! Cross-crate churn harness for the deep invariant auditors
//! (`--features debug-invariants`).
//!
//! One deterministic stream drives every stateful structure in the stack
//! at once — the sliding window, the full six-estimator pool, and an
//! exact executor per spatial backend — and the auditors sweep all of
//! them at fixed intervals. The stream is shaped to hit the accounting
//! edge cases the auditors exist for: swap-remove slot recycling in the
//! sample stores, their lazy posting tombstones crossing the 25%
//! compaction threshold mid-removal, the exact executors' cell and posting
//! queues draining their consumed prefixes while the ring wraps, and
//! estimator populations drifting past their sample capacities.
//!
//! The harness asserts nothing about estimate quality; it asserts the
//! *bookkeeping* stays exactly consistent under sustained churn.

use estimators::store::SampleStore;
use estimators::{build_estimator, EstimatorConfig, EstimatorKind};
use exactdb::{ExactExecutor, SpatialIndexKind};
use geostream::{
    Duration, GeoTextObject, KeywordId, ObjectId, Point, RcDvq, Rect, SlidingWindow, Timestamp,
};
use latest_core::{
    EstimatorPool, Latest, LatestConfig, QueryOptions, RouterPolicy, ShardConfig, ShardedLatest,
};

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
    // Few distinct keywords (16) over thousands of live objects: posting
    // lists grow long and shared, so eviction churn repeatedly trips the
    // 25% tombstone compaction threshold.
    let n_kws = r % 4;
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

fn probes(r: u64) -> RcDvq {
    let x = (r % 60) as f64;
    let y = ((r >> 13) % 60) as f64;
    let rect = Rect::new(x, y, x + 25.0, y + 30.0);
    match r % 3 {
        0 => RcDvq::spatial(rect),
        1 => RcDvq::keyword(vec![KeywordId(r as u32 % 16)]),
        _ => RcDvq::hybrid(rect, vec![KeywordId((r >> 5) as u32 % 16)]),
    }
}

/// 12k stream events churn the window, the full estimator pool, and all
/// three exact backends together; every structure must stay audit-clean
/// at every sweep, and the cross-structure populations must agree.
#[test]
fn full_stack_stays_audit_clean_under_churn() {
    // Small reservoirs: the samplers leave their fill phase early, so
    // steady-state replacement (swap-remove recycling) dominates.
    let config = EstimatorConfig {
        domain: DOMAIN,
        reservoir_capacity: 256,
        ..EstimatorConfig::default()
    };
    let mut window = SlidingWindow::new(Duration::from_millis(2_000));
    let mut pool = EstimatorPool::full(&config, 2);
    let mut execs: Vec<ExactExecutor> = [SpatialIndexKind::Grid, SpatialIndexKind::Quadtree]
        .into_iter()
        .map(|k| ExactExecutor::new(DOMAIN, k))
        .collect();

    let mut rng = 0x1a7e57u64;
    let mut clock = Timestamp::ZERO;
    let mut evicted = Vec::new();
    let mut evictions = 0usize;
    for i in 0..12_000u64 {
        let r = lcg(&mut rng);
        clock = clock.after(Duration::from_millis(r % 3));
        let obj = make_obj(i, r, clock);
        evicted.clear();
        window.insert(obj.clone(), &mut evicted);
        for e in &mut execs {
            e.insert(&obj);
            for gone in &evicted {
                assert!(
                    e.remove_by_oid(gone.oid),
                    "evicted {:?} not indexed",
                    gone.oid
                );
            }
        }
        evictions += evicted.len();
        let arrived = [obj];
        pool.apply_batch(&arrived, &evicted);

        // Periodic measurement rounds keep the query-feedback paths
        // (observe_query, path-mix counters) inside the churn loop.
        if i % 101 == 0 {
            let q = probes(r);
            let truth = execs[0].execute(&q);
            for e in &execs[1..] {
                assert_eq!(e.execute(&q), truth, "backends disagree on {q:?}");
            }
            pool.measure(&q, truth);
        }

        // Mid-run, swap the whole pool for candidates bulk-built from the
        // live window, the way a prefill builds them: from here on the
        // sweeps audit decision-replay samples (each slot written once,
        // generations all zero, RSH cells in slot order) as eviction and
        // replacement churn through them.
        if i == 6_000 {
            let rebuilt = EstimatorKind::ALL.map(|kind| {
                let mut est = build_estimator(kind, &config);
                est.insert_slices(&mut window.chunk_slices());
                est
            });
            pool = EstimatorPool::new(rebuilt.into());
            pool.audit()
                .unwrap_or_else(|e| panic!("bulk-built pool: {e}"));
        }

        if i % 500 == 0 || i == 11_999 {
            window.audit().unwrap_or_else(|e| panic!("step {i}: {e}"));
            pool.audit().unwrap_or_else(|e| panic!("step {i}: {e}"));
            for e in &execs {
                e.audit()
                    .unwrap_or_else(|err| panic!("step {i} {:?}: {err}", e.kind()));
                assert_eq!(
                    e.len(),
                    window.len(),
                    "step {i}: {:?} population drifted from the window",
                    e.kind()
                );
            }
        }
    }
    assert!(
        evictions > 10_000,
        "only {evictions} evictions — churn too weak to cycle the executors' rings"
    );
}

/// Targeted slot-recycling torture for the shared [`SampleStore`]: the
/// store oscillates around a small size so nearly every slot is a
/// swap-remove recycled one, keywords come from a 16-word vocabulary so
/// the shared posting lists cross the compaction threshold many times,
/// and removals and in-place replacements interleave mid-stream so
/// compaction fires *during* the remove path (the `dead-counter` /
/// `posting-coverage` edge), not only between batches.
#[test]
fn sample_store_recycling_and_midstream_compaction_stay_audit_clean() {
    let mut s = SampleStore::new();
    let mut rng = 0xdecafu64;
    let mut live: Vec<ObjectId> = Vec::new();
    for i in 0..6_000u64 {
        let r = lcg(&mut rng);
        // Heavily removal-biased once warm: the store oscillates around a
        // small size, so nearly every slot is a recycled one.
        if live.len() > 32 && r % 5 < 2 {
            let victim = live.swap_remove((r % live.len() as u64) as usize);
            assert!(s.remove(victim).is_some());
        } else if !live.is_empty() && r.is_multiple_of(7) {
            // In-place replacement: the old object's postings die while
            // the slot stays occupied by the new one.
            let slot = (r % s.len() as u64) as u32;
            let old = s.oids()[slot as usize];
            s.replace(slot, &make_obj(1_000_000 + i, r | 1, Timestamp(i)));
            let at = live.iter().position(|&o| o == old).unwrap();
            live[at] = ObjectId(1_000_000 + i);
        } else {
            s.push(&make_obj(i, r | 1, Timestamp(i)));
            live.push(ObjectId(i));
        }
        if i % 199 == 0 {
            s.audit().unwrap_or_else(|e| panic!("step {i}: {e}"));
        }
    }
    s.audit().expect("final audit");
    assert_eq!(s.len(), live.len());
}

/// Async-prefill churn: the delta log of an in-flight background build
/// must stay audit-clean — bounded length, internal count agreement,
/// generation monotonicity against the live window, restarted at
/// overflow — through sustained insert/evict churn, through overflow
/// restarts (tiny cap), through discard, and across activation. The deep
/// audit walks the delta log whenever the slot is `Building` and the
/// candidate whenever it is `Ready`, so every arm of the prefill state
/// machine gets swept here.
#[test]
fn async_prefill_delta_log_stays_audit_clean_under_churn() {
    for delta_cap in [64usize, 65_536] {
        let config = LatestConfig::builder()
            .window_span(Duration::from_millis(2_000))
            .warmup(Duration::from_millis(2_000))
            .pretrain_queries(16)
            .alpha(0.0)
            .default_estimator(EstimatorKind::Rsh)
            .prefill_delta_cap(delta_cap)
            .estimator_config(EstimatorConfig {
                domain: DOMAIN,
                reservoir_capacity: 256,
                ..EstimatorConfig::default()
            })
            .build()
            .expect("test parameters are in range");
        let mut latest = Latest::new(config);
        let mut rng = 0xde17a_u64 ^ delta_cap as u64;
        let mut clock = Timestamp::ZERO;
        let mut next_id = 0u64;
        let mut step = |latest: &mut Latest, rng: &mut u64, clock: &mut Timestamp| {
            let batch: Vec<GeoTextObject> = (0..48)
                .map(|_| {
                    let r = lcg(rng);
                    *clock = clock.after(Duration::from_millis(r % 4));
                    next_id += 1;
                    make_obj(next_id, r, *clock)
                })
                .collect();
            latest.ingest_batch(&batch);
            let q = probes(lcg(rng));
            let _ = latest.query(&q, QueryOptions::at(*clock));
        };
        // Prime through warm-up and pre-training so the prefill state
        // machine (incremental phase only) is live for the whole churn.
        let mut primed = 0u32;
        while latest.phase() != latest_core::PhaseTag::Incremental {
            step(&mut latest, &mut rng, &mut clock);
            latest
                .audit()
                .unwrap_or_else(|e| panic!("cap {delta_cap} prime {primed}: {e}"));
            primed += 1;
            assert!(primed < 128, "never reached the incremental phase");
        }
        let kinds = [EstimatorKind::Rsl, EstimatorKind::Aasp, EstimatorKind::Spn];
        for round in 0..48u32 {
            step(&mut latest, &mut rng, &mut clock);
            // Drive the prefill state machine through all its arms while
            // the window churns: start a build, let it ride three rounds
            // (overflowing mid-flight when the cap is tiny — two 48-object
            // batches overrun a 64-entry log), then alternately discard
            // (dropping the candidate) or activate (switching to it).
            match round % 6 {
                0 => {
                    let kind = kinds[(round as usize / 6) % kinds.len()];
                    assert!(latest.debug_force_prefill(kind), "round {round}: force");
                }
                3 if round % 12 == 3 => {
                    assert!(latest.debug_discard_prefill(), "round {round}: discard");
                }
                3 => {
                    assert!(latest.debug_activate_prefill(), "round {round}: activate");
                }
                _ => {}
            }
            latest
                .audit()
                .unwrap_or_else(|e| panic!("cap {delta_cap} round {round}: {e}"));
        }
        let snap = latest.metrics_snapshot();
        if delta_cap == 64 {
            assert!(
                snap.adaptor.prefill_cancelled > 0,
                "tiny cap never tripped an overflow restart — churn too weak"
            );
        }
        assert!(
            snap.adaptor.prefill_starts > 0,
            "prefill state machine never engaged"
        );
    }
}

/// Sharded-engine churn: a [`ShardedLatest`] under sustained batched
/// ingest, scatter-gather queries, and window turnover must keep its
/// cross-shard invariants — every live object on the shard the router
/// maps it to, no object on two shards, and per-shard flow counters
/// summing to the global occupancy — for both router policies.
#[test]
fn sharded_engine_stays_audit_clean_under_churn() {
    for policy in [RouterPolicy::HashOid, RouterPolicy::SpatialTile] {
        let config = LatestConfig::builder()
            .window_span(Duration::from_millis(2_000))
            .warmup(Duration::from_millis(2_000))
            .pretrain_queries(16)
            .alpha(0.0)
            .default_estimator(EstimatorKind::Rsh)
            .estimator_config(EstimatorConfig {
                domain: DOMAIN,
                reservoir_capacity: 256,
                ..EstimatorConfig::default()
            })
            .shard(ShardConfig {
                shards: 3,
                queue_capacity: 1_024,
                router: policy,
            })
            .build()
            .expect("test parameters are in range");
        let engine = ShardedLatest::new(config).expect("shards spawn");
        let mut rng = 0x5a4d_0a0du64 ^ policy as u64;
        let mut clock = Timestamp::ZERO;
        let mut next_id = 0u64;
        for round in 0..60u32 {
            let batch: Vec<GeoTextObject> = (0..64)
                .map(|_| {
                    let r = lcg(&mut rng);
                    clock = clock.after(Duration::from_millis(r % 4));
                    next_id += 1;
                    make_obj(next_id, r, clock)
                })
                .collect();
            engine.ingest_batch(&batch).expect("shards are live");
            // Keep the scatter-gather path inside the churn loop.
            let q = probes(lcg(&mut rng));
            let _ = engine
                .query(&q, QueryOptions::at(clock))
                .expect("shards are live");
            if round % 10 == 9 {
                engine
                    .audit()
                    .unwrap_or_else(|e| panic!("{} round {round}: {e}", policy.name()));
            }
        }
        assert_eq!(engine.shutdown(), next_id);
    }
}
