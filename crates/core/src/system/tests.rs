#![cfg(test)]

use super::prefill::DeltaLog;
use super::*;
use estimators::{build_estimator, EstimatorConfig};
use geostream::synth::DatasetSpec;
use geostream::{Duration, RcDvq};
use geostream::{KeywordId, Rect, StreamRng};

fn small_config() -> LatestConfig {
    let spec = DatasetSpec::twitter();
    LatestConfig {
        window_span: Duration::from_secs(60),
        warmup: Duration::from_secs(60),
        pretrain_queries: 40,
        accuracy_window: 16,
        min_switch_spacing: 16,
        estimator_config: EstimatorConfig {
            domain: spec.domain,
            reservoir_capacity: 2_000,
            ..EstimatorConfig::default()
        },
        ..LatestConfig::default()
    }
}

/// Drives warm-up with synthetic data, returns the generator for more.
fn warm_up(latest: &mut Latest) -> geostream::synth::ObjectGenerator {
    let mut gen = DatasetSpec::twitter().generator();
    while latest.phase() == PhaseTag::WarmUp {
        latest.ingest(gen.next_object());
    }
    gen
}

fn random_query(rng: &mut StreamRng, domain: &Rect) -> RcDvq {
    let cx = rng.gen_range_f64(domain.min_x..domain.max_x);
    let cy = rng.gen_range_f64(domain.min_y..domain.max_y);
    let half = rng.gen_range_f64(0.5..4.0);
    match rng.gen_range_u32(0..3) {
        0 => RcDvq::spatial(Rect::centered_clamped(
            geostream::Point::new(cx, cy),
            half,
            half,
            domain,
        )),
        1 => RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..100))]),
        _ => RcDvq::hybrid(
            Rect::centered_clamped(geostream::Point::new(cx, cy), half, half, domain),
            vec![KeywordId(rng.gen_range_u32(0..100))],
        ),
    }
}

#[test]
fn phases_progress() {
    let config = small_config();
    let domain = config.estimator_config.domain;
    let mut latest = Latest::new(config);
    assert_eq!(latest.phase(), PhaseTag::WarmUp);
    let mut gen = warm_up(&mut latest);
    assert_eq!(latest.phase(), PhaseTag::PreTraining);
    let mut rng = StreamRng::seed_from_u64(1);
    for _ in 0..40 {
        for _ in 0..5 {
            latest.ingest(gen.next_object());
        }
        let q = random_query(&mut rng, &domain);
        let out = latest.query(&q, QueryOptions::at(gen.clock()));
        assert!(out.estimate >= 0.0);
    }
    assert_eq!(latest.phase(), PhaseTag::Incremental);
    assert_eq!(latest.active_kind(), EstimatorKind::Rsh);
}

#[test]
fn pretraining_answers_with_default_and_trains_tree() {
    let config = small_config();
    let domain = config.estimator_config.domain;
    let mut latest = Latest::new(config);
    let mut gen = warm_up(&mut latest);
    let mut rng = StreamRng::seed_from_u64(2);
    for _ in 0..10 {
        latest.ingest(gen.next_object());
        let q = random_query(&mut rng, &domain);
        let out = latest.query(&q, QueryOptions::at(gen.clock()));
        assert_eq!(out.estimator, EstimatorKind::Rsh);
        assert_eq!(out.phase, PhaseTag::PreTraining);
        // The pool measured all six, but shadow metrics are off: the
        // samples stay inside the engine.
        assert!(out.shadow.is_empty());
    }
    assert!(latest.tree_stats().instances_seen >= 10);
}

#[test]
fn incremental_queries_answer_reasonably() {
    let config = small_config();
    let domain = config.estimator_config.domain;
    let mut latest = Latest::new(config);
    let mut gen = warm_up(&mut latest);
    let mut rng = StreamRng::seed_from_u64(3);
    let mut incremental = Vec::new();
    for _ in 0..60 {
        for _ in 0..3 {
            latest.ingest(gen.next_object());
        }
        let q = random_query(&mut rng, &domain);
        let out = latest.query(&q, QueryOptions::at(gen.clock()));
        if out.phase == PhaseTag::Incremental {
            incremental.push(out.accuracy);
        }
    }
    assert!(!incremental.is_empty());
    let acc = incremental.iter().sum::<f64>() / incremental.len() as f64;
    assert!(acc > 0.3, "incremental accuracy too low: {acc}");
    // Every query ran once through the exact executor's planner.
    let executor = latest.metrics_snapshot().executor;
    assert_eq!(executor.spatial + executor.inverted, 60);
}

#[test]
fn switches_away_from_bad_estimator() {
    // Force H4096 active, then hammer with keyword queries it cannot
    // answer — the adaptor must switch away.
    let mut config = small_config();
    config.default_estimator = EstimatorKind::H4096;
    config.pretrain_queries = 20;
    config.min_switch_spacing = 8;
    config.accuracy_window = 8;
    let mut latest = Latest::new(config);
    let mut gen = warm_up(&mut latest);
    let mut rng = StreamRng::seed_from_u64(4);
    // Pre-train with keyword queries so rewards already favor samplers.
    for _ in 0..20 {
        latest.ingest(gen.next_object());
        let q = RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..50))]);
        let _ = latest.query(&q, QueryOptions::at(gen.clock()));
    }
    assert_eq!(latest.phase(), PhaseTag::Incremental);
    assert_eq!(latest.active_kind(), EstimatorKind::H4096);
    for _ in 0..80 {
        for _ in 0..2 {
            latest.ingest(gen.next_object());
        }
        let q = RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..50))]);
        let _ = latest.query(&q, QueryOptions::at(gen.clock()));
        if latest.active_kind() != EstimatorKind::H4096 {
            break;
        }
    }
    assert_ne!(
        latest.active_kind(),
        EstimatorKind::H4096,
        "never switched away from a keyword-blind estimator"
    );
    let snap = latest.metrics_snapshot();
    let Some(LifecycleEvent::EstimatorSwitched {
        from,
        trigger_average,
        ..
    }) = snap.switch_events().first().copied()
    else {
        panic!("no switch event recorded");
    };
    assert_eq!(*from, EstimatorKind::H4096);
    assert!(*trigger_average < latest.config().tau);
}

#[test]
fn good_estimator_is_kept() {
    // RSH on well-behaved mixed queries should not thrash.
    let config = small_config();
    let domain = config.estimator_config.domain;
    let mut latest = Latest::new(config);
    let mut gen = warm_up(&mut latest);
    let mut rng = StreamRng::seed_from_u64(5);
    for _ in 0..150 {
        for _ in 0..3 {
            latest.ingest(gen.next_object());
        }
        // Large ranges → high actual counts → sampler accuracy high.
        let q = RcDvq::spatial(Rect::centered_clamped(
            geostream::Point::new(
                rng.gen_range_f64(domain.min_x..domain.max_x),
                rng.gen_range_f64(domain.min_y..domain.max_y),
            ),
            20.0,
            10.0,
            &domain,
        ));
        let _ = latest.query(&q, QueryOptions::at(gen.clock()));
    }
    let switches = latest.metrics_snapshot().adaptor.switches;
    assert!(switches <= 1, "stable workload caused {switches} switches");
}

#[test]
fn shadow_metrics_record_every_estimator() {
    let mut config = small_config();
    config.shadow_metrics = true;
    config.pretrain_queries = 10;
    let domain = config.estimator_config.domain;
    let mut latest = Latest::new(config);
    let mut gen = warm_up(&mut latest);
    let mut rng = StreamRng::seed_from_u64(6);
    let mut last_phase = PhaseTag::WarmUp;
    for _ in 0..20 {
        latest.ingest(gen.next_object());
        let q = random_query(&mut rng, &domain);
        let out = latest.query(&q, QueryOptions::at(gen.clock()));
        assert_eq!(out.shadow.len(), 6, "shadow mode must measure all six");
        last_phase = out.phase;
    }
    assert_eq!(last_phase, PhaseTag::Incremental);
}

/// The per-kind series count every estimate the engine timed: all six
/// kinds once per pre-training query, then the active kind alone.
#[test]
fn per_kind_latency_counts_every_measured_estimate() {
    let config = small_config();
    let pretrain = config.pretrain_queries as u64;
    let domain = config.estimator_config.domain;
    let mut latest = Latest::new(config);
    let mut gen = warm_up(&mut latest);
    let mut rng = StreamRng::seed_from_u64(8);
    let uncached = QueryOptions::new().use_cache(false);
    let mut ask = |latest: &mut Latest, n: u64| {
        for _ in 0..n {
            latest.ingest(gen.next_object());
            let _ = latest.query(&random_query(&mut rng, &domain), uncached);
        }
    };
    let counts = |latest: &Latest| {
        let snap = latest.metrics_snapshot();
        assert_eq!(snap.estimators.len(), EstimatorKind::COUNT);
        snap.estimators
            .iter()
            .map(|e| (e.kind, e.latency_us.count, e.memory_bytes))
            .collect::<Vec<_>>()
    };
    ask(&mut latest, pretrain);
    assert_eq!(latest.phase(), PhaseTag::Incremental);
    for (kind, count, memory) in counts(&latest) {
        assert_eq!(count, pretrain, "{kind}");
        assert!(memory > 0, "{kind} has no memory reading");
    }
    const K: u64 = 7;
    ask(&mut latest, K);
    let active = latest.active_kind();
    for (kind, count, _) in counts(&latest) {
        let expected = if kind == active {
            pretrain + K
        } else {
            pretrain
        };
        assert_eq!(count, expected, "{kind}");
    }
}

#[test]
fn window_eviction_reaches_estimators() {
    let mut config = small_config();
    config.window_span = Duration::from_secs(5);
    config.warmup = Duration::from_secs(5);
    let mut latest = Latest::new(config);
    let mut gen = DatasetSpec::twitter().generator();
    for _ in 0..3_000 {
        latest.ingest(gen.next_object());
    }
    // Window span is 5s and objects arrive ~4ms apart ⇒ far fewer live
    // than ingested.
    assert!(latest.window_len() < 3_000);
    assert_eq!(latest.executor.len(), latest.window_len());
}

/// A batch that repeats a live id puts a second copy in the window. The
/// executor counts both until each leaves, so every `actual` equals a
/// brute-force count over the window — and so does a restored copy's.
///
/// The sampling estimators key their samples on the id, and a snapshot
/// whose sample holds one id twice does not restore. So the repeat
/// arrives once the engine maintains H4096 alone: pre-training (the
/// whole pool) is over, and switching is off.
#[test]
fn repeated_live_oid_keeps_actual_equal_to_the_window() {
    let mut config = small_config();
    config.window_span = Duration::from_secs(5);
    config.warmup = Duration::from_secs(5);
    config.pretrain_queries = 10;
    config.default_estimator = EstimatorKind::H4096;
    config.ablation.switching = false;
    let domain = config.estimator_config.domain;
    let mut latest = Latest::new(config.clone());
    let mut gen = warm_up(&mut latest);
    let mut rng = StreamRng::seed_from_u64(31);
    while latest.phase() != PhaseTag::Incremental {
        latest.ingest(gen.next_object());
        let q = random_query(&mut rng, &domain);
        let _ = latest.query(&q, QueryOptions::at(gen.clock()));
    }
    for _ in 0..200 {
        latest.ingest(gen.next_object());
    }
    let original = latest
        .window_objects()
        .skip(latest.window_len() / 2)
        .find(|o| !o.keywords.is_empty())
        .expect("a live object with keywords")
        .clone();
    let mut batch: Vec<GeoTextObject> = (0..8).map(|_| gen.next_object()).collect();
    batch[3].oid = original.oid;
    let repeat = batch[3].clone();
    latest.ingest_batch(&batch);
    let probes = [
        RcDvq::spatial(Rect::WORLD),
        RcDvq::keyword(original.keywords.to_vec()),
        RcDvq::hybrid(
            Rect::centered_clamped(original.loc, 2.0, 2.0, &domain),
            original.keywords.to_vec(),
        ),
        RcDvq::spatial(Rect::centered_clamped(repeat.loc, 2.0, 2.0, &domain)),
    ];
    let copies = |latest: &Latest| {
        latest
            .window_objects()
            .filter(|o| o.oid == original.oid)
            .count()
    };
    let check = |latest: &mut Latest, at: &str| {
        assert_eq!(latest.executor.len(), latest.window_len(), "{at}");
        #[cfg(feature = "debug-invariants")]
        latest.audit().unwrap_or_else(|e| panic!("{at}: {e}"));
        for q in &probes {
            let brute = latest.window_objects().filter(|o| q.matches(o)).count() as u64;
            let out = latest.query(q, QueryOptions::new().use_cache(false));
            assert_eq!(out.actual, brute, "{at}: {q:?}");
        }
    };
    assert_eq!(copies(&latest), 2);
    let mut round_tripped = [false; 3];
    for step in 0.. {
        let n = copies(&latest);
        check(&mut latest, &format!("step {step}, {n} copies live"));
        if !round_tripped[n] {
            round_tripped[n] = true;
            let bytes = latest.snapshot_bytes();
            let mut restored = Latest::restore(config.clone(), &bytes).expect("restores");
            check(
                &mut restored,
                &format!("restored at step {step}, {n} copies"),
            );
        }
        if n == 0 {
            break;
        }
        assert!(step < 1_000, "the copies never left the window");
        let batch: Vec<GeoTextObject> = (0..50).map(|_| gen.next_object()).collect();
        latest.ingest_batch(&batch);
    }
    assert_eq!(round_tripped, [true; 3]);
}

#[test]
fn refused_batch_leaves_the_engine_untouched() {
    let mut latest = Latest::new(small_config());
    let mut gen = warm_up(&mut latest);
    let q = RcDvq::spatial(Rect::WORLD);
    let exact = QueryOptions::new().exact(true);
    let uncached = QueryOptions::new().use_cache(false);
    let len = latest.window_len();
    let count = latest.query(&q, exact).actual;
    let estimate = latest.query(&q, uncached).estimate;
    // Two good arrivals, then one from before the window's newest.
    let mut batch: Vec<GeoTextObject> = (0..3).map(|_| gen.next_object()).collect();
    batch[2].timestamp = Timestamp::ZERO;
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        latest.ingest_batch(&batch);
    }));
    let message = *refused
        .expect_err("a late object must refuse the batch")
        .downcast::<String>()
        .expect("assert! panics with a String");
    assert!(message.contains("out-of-order arrival"), "{message}");
    // Nothing of the batch went in: window, executor and estimators
    // still agree with each other and with the moment before the call.
    assert_eq!(latest.window_len(), len);
    assert_eq!(latest.query(&q, exact).actual, count);
    assert_eq!(
        latest.query(&q, uncached).estimate.to_bits(),
        estimate.to_bits()
    );
    // And the engine still takes the batch once it is in order.
    latest.ingest_batch(&batch[..2]);
    assert_eq!(latest.query(&q, exact).actual as usize, latest.window_len());
}

#[test]
fn switching_ablation_pins_default_estimator() {
    let mut config = small_config();
    config.default_estimator = EstimatorKind::H4096;
    config.ablation.switching = false;
    let mut latest = Latest::new(config);
    let mut gen = warm_up(&mut latest);
    let mut rng = StreamRng::seed_from_u64(21);
    // Keyword flood: full LATEST would abandon the histogram; the
    // no-switching ablation must stay put.
    for _ in 0..120 {
        latest.ingest(gen.next_object());
        let q = RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..50))]);
        let _ = latest.query(&q, QueryOptions::at(gen.clock()));
    }
    assert_eq!(latest.active_kind(), EstimatorKind::H4096);
    assert_eq!(latest.metrics_snapshot().adaptor.switches, 0);
}

#[test]
fn cold_switch_ablation_still_switches() {
    let mut config = small_config();
    config.default_estimator = EstimatorKind::H4096;
    config.pretrain_queries = 20;
    config.min_switch_spacing = 8;
    config.accuracy_window = 8;
    config.ablation.prefill = false;
    let mut latest = Latest::new(config);
    let mut gen = warm_up(&mut latest);
    let mut rng = StreamRng::seed_from_u64(22);
    for _ in 0..120 {
        for _ in 0..2 {
            latest.ingest(gen.next_object());
        }
        let q = RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..50))]);
        let _ = latest.query(&q, QueryOptions::at(gen.clock()));
        if latest.active_kind() != EstimatorKind::H4096 {
            break;
        }
    }
    // Switching still happens; the replacement just starts cold.
    assert_ne!(latest.active_kind(), EstimatorKind::H4096);
}

#[test]
fn ewma_only_ablation_still_recommends() {
    let mut config = small_config();
    config.default_estimator = EstimatorKind::H4096;
    config.pretrain_queries = 20;
    config.min_switch_spacing = 8;
    config.accuracy_window = 8;
    config.ablation.use_tree = false;
    let mut latest = Latest::new(config);
    let mut gen = warm_up(&mut latest);
    let mut rng = StreamRng::seed_from_u64(23);
    for _ in 0..120 {
        for _ in 0..2 {
            latest.ingest(gen.next_object());
        }
        let q = RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..50))]);
        let _ = latest.query(&q, QueryOptions::at(gen.clock()));
        if latest.active_kind() != EstimatorKind::H4096 {
            break;
        }
    }
    assert_ne!(latest.active_kind(), EstimatorKind::H4096);
}

#[test]
#[should_panic(expected = "tau must be in")]
fn rejects_bad_tau() {
    let mut config = small_config();
    config.tau = 1.5;
    let _ = Latest::new(config);
}

#[test]
fn repeat_query_hits_cache_until_window_changes() {
    let config = small_config();
    let mut latest = Latest::new(config);
    let mut gen = warm_up(&mut latest);
    let q = RcDvq::keyword(vec![KeywordId(3)]);
    let first = latest.query(&q, QueryOptions::at(gen.clock()));
    assert!(matches!(first.served_by, ServedBy::Estimator(_)));
    // Same query, unchanged window: a pure cache read that repeats the
    // answer bit-for-bit and skips the executor and the learning loop.
    let answered = latest.metrics_snapshot().queries_total;
    let hit = latest.query(&q, QueryOptions::at(gen.clock()));
    assert_eq!(hit.served_by, ServedBy::Cache);
    assert_eq!(hit.estimate.to_bits(), first.estimate.to_bits());
    assert_eq!(hit.actual, first.actual);
    assert_eq!(hit.accuracy.to_bits(), first.accuracy.to_bits());
    assert_eq!(hit.latency_ms, 0.0);
    assert!(!hit.switched);
    let m = latest.metrics_snapshot();
    assert_eq!(m.queries_total, answered);
    assert_eq!(m.cache_hits, 1);
    assert_eq!(m.cache_misses, 1);
    // Any content change invalidates: the next repeat misses again.
    latest.ingest(gen.next_object());
    let after = latest.query(&q, QueryOptions::at(gen.clock()));
    assert_ne!(after.served_by, ServedBy::Cache);
    assert_eq!(latest.metrics_snapshot().cache_misses, 2);
    assert!(latest.cache().invalidations() >= 1);
}

#[test]
fn opting_out_of_the_cache_repeats_the_full_path() {
    let config = small_config();
    let mut latest = Latest::new(config);
    let gen = warm_up(&mut latest);
    let q = RcDvq::keyword(vec![KeywordId(3)]);
    let opts = QueryOptions::at(gen.clock()).use_cache(false);
    let learned = latest.tree_stats().instances_seen;
    let _ = latest.query(&q, opts);
    let second = latest.query(&q, opts);
    assert_ne!(second.served_by, ServedBy::Cache);
    assert_eq!(latest.tree_stats().instances_seen, learned + 2);
    assert_eq!(latest.metrics_snapshot().cache_hits, 0);
}

#[test]
fn exact_queries_bypass_estimation_and_learning() {
    let config = small_config();
    let mut latest = Latest::new(config);
    let gen = warm_up(&mut latest);
    let q = RcDvq::keyword(vec![KeywordId(7)]);
    let learned = latest.tree_stats().instances_seen;
    let out = latest.query(&q, QueryOptions::at(gen.clock()).exact(true));
    assert_eq!(out.served_by, ServedBy::Exact);
    assert_eq!(out.estimate, out.actual as f64);
    assert_eq!(out.accuracy, 1.0);
    // Ground truth is not an estimate: nothing is learned, and nothing
    // lands in the cache.
    assert_eq!(latest.tree_stats().instances_seen, learned);
    assert!(latest.cache().is_empty());
    let estimated = latest.query(&q, QueryOptions::at(gen.clock()));
    assert!(matches!(estimated.served_by, ServedBy::Estimator(_)));
}

#[test]
fn query_batch_matches_sequential_queries() {
    let config = small_config();
    let domain = config.estimator_config.domain;
    let mut batched = Latest::new(config);
    let mut single = Latest::new(small_config());
    let gen_b = warm_up(&mut batched);
    let _gen_s = warm_up(&mut single);
    let mut rng = StreamRng::seed_from_u64(11);
    let mut queries: Vec<RcDvq> = (0..24).map(|_| random_query(&mut rng, &domain)).collect();
    // Duplicates inside the batch must collapse onto cache hits.
    queries.push(queries[0].clone());
    queries.push(queries[3].clone());
    let at = gen_b.clock();
    let batch_outs = batched.query_batch(&queries, QueryOptions::at(at));
    let single_outs: Vec<QueryOutcome> = queries
        .iter()
        .map(|q| single.query(q, QueryOptions::at(at)))
        .collect();
    assert_eq!(batch_outs.len(), single_outs.len());
    for (b, s) in batch_outs.iter().zip(&single_outs) {
        assert_eq!(b.estimate.to_bits(), s.estimate.to_bits());
        assert_eq!(b.actual, s.actual);
        assert_eq!(b.accuracy.to_bits(), s.accuracy.to_bits());
        assert_eq!(b.estimator, s.estimator);
        assert_eq!(b.phase, s.phase);
        assert_eq!(b.served_by, s.served_by);
    }
    assert_eq!(batch_outs[24].served_by, ServedBy::Cache);
    assert_eq!(batch_outs[25].served_by, ServedBy::Cache);
    let m = batched.metrics_snapshot();
    assert_eq!(m.queries_total, single.metrics_snapshot().queries_total);
    // At least the two appended duplicates hit (the random 24 may
    // collide among themselves too).
    assert!(m.cache_hits >= 2);
}

#[test]
fn exact_batch_reports_ground_truth_for_every_query() {
    let config = small_config();
    let mut latest = Latest::new(config);
    let gen = warm_up(&mut latest);
    let queries = vec![
        RcDvq::keyword(vec![KeywordId(1)]),
        RcDvq::spatial(Rect::WORLD),
        RcDvq::keyword(vec![KeywordId(1)]),
    ];
    let outs = latest.query_batch(&queries, QueryOptions::at(gen.clock()).exact(true));
    assert_eq!(outs.len(), 3);
    for (q, out) in queries.iter().zip(&outs) {
        assert_eq!(out.served_by, ServedBy::Exact);
        assert_eq!(
            out.actual,
            latest
                .query(q, QueryOptions::at(gen.clock()).exact(true))
                .actual
        );
    }
    assert_eq!(outs[1].actual, latest.window_len() as u64);
    assert_eq!(outs[0].actual, outs[2].actual);
}

#[test]
fn empty_batch_is_a_no_op() {
    let mut latest = Latest::new(small_config());
    let _ = warm_up(&mut latest);
    let before = latest.metrics_snapshot();
    assert!(latest.query_batch(&[], QueryOptions::new()).is_empty());
    let after = latest.metrics_snapshot();
    assert_eq!(after.queries_total, before.queries_total);
}

// The delta_log_* tests are deliberately miri-sized (no threads, no
// channels, no timers): CI's miri job runs them by name to cover the
// prefill catch-up buffer's slot recycling under the interpreter.

fn delta_objects(start: u64, n: u64) -> Vec<GeoTextObject> {
    let domain = DatasetSpec::twitter().domain;
    (start..start + n)
        .map(|i| {
            GeoTextObject::new(
                geostream::ObjectId(i),
                geostream::Point::new(domain.min_x + (i % 7) as f64, domain.min_y + (i % 5) as f64),
                vec![KeywordId(i as u32 % 4)],
                Timestamp(i),
            )
        })
        .collect()
}

#[test]
fn delta_log_replays_in_recorded_order() {
    let cfg = small_config().estimator_config;
    let a = delta_objects(0, 12);
    let b = delta_objects(100, 6);
    let mut log = DeltaLog::new(1_024, 7);
    log.push_insert(&a, 8);
    log.push_remove(&a[..4], 9);
    log.push_insert(&b, 9);
    assert_eq!(log.objects(), a.len() + 4 + b.len());
    assert!(!log.overflowed());

    let mut replayed = build_estimator(EstimatorKind::H4096, &cfg);
    log.replay_into(&mut replayed);
    let mut inline = build_estimator(EstimatorKind::H4096, &cfg);
    inline.insert_batch(&a);
    inline.remove_batch(&a[..4]);
    inline.insert_batch(&b);
    let q = RcDvq::keyword(vec![KeywordId(1)]);
    assert_eq!(
        replayed.estimate(&q).to_bits(),
        inline.estimate(&q).to_bits(),
        "replay diverged from the inline application of the same tail"
    );
    assert_eq!(replayed.population(), inline.population());
}

#[test]
fn delta_log_overflow_latches_and_empties() {
    let mut log = DeltaLog::new(4, 0);
    log.push_insert(&delta_objects(0, 3), 1);
    assert!(!log.overflowed());
    assert_eq!(log.objects(), 3);
    // 3 + 2 > 4: the log can never be replayed completely again.
    log.push_insert(&delta_objects(10, 2), 2);
    assert!(log.overflowed());
    assert_eq!(log.objects(), 0);
    // Latched: later pushes stay dropped rather than resurrecting a
    // hole-y tail.
    log.push_insert(&delta_objects(20, 1), 3);
    assert!(log.overflowed());
    assert_eq!(log.objects(), 0);
    // An overflowed replay is a no-op, not a partial catch-up.
    let cfg = small_config().estimator_config;
    let mut est = build_estimator(EstimatorKind::H4096, &cfg);
    log.replay_into(&mut est);
    assert_eq!(est.population(), 0);
}

#[test]
fn delta_log_ignores_empty_batches() {
    let mut log = DeltaLog::new(2, 5);
    log.push_insert(&[], 9);
    log.push_remove(&[], 9);
    assert_eq!(log.objects(), 0);
    assert!(!log.overflowed());
    // An empty push is invisible: a fresh push still fits the cap.
    log.push_insert(&delta_objects(0, 2), 6);
    assert_eq!(log.objects(), 2);
    assert!(!log.overflowed());
}
