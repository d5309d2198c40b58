//! End-to-end observability: the metrics registry and lifecycle event
//! stream must account for every switch of a deterministic switch storm —
//! they are the engine's only journal — and an end-of-run snapshot must
//! carry non-trivial data for every subsystem.

use estimators::{EstimatorConfig, EstimatorKind};
use geostream::synth::DatasetSpec;
use geostream::{Duration, KeywordId, Point, RcDvq, Rect, StreamRng};
use latest_core::{EstimatorRole, Latest, LatestConfig, LifecycleEvent, PhaseTag, QueryOptions};

fn storm_config(dataset: &DatasetSpec) -> LatestConfig {
    LatestConfig {
        window_span: Duration::from_secs(45),
        warmup: Duration::from_secs(45),
        pretrain_queries: 20,
        accuracy_window: 8,
        min_switch_spacing: 8,
        default_estimator: EstimatorKind::H4096,
        estimator_config: EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 1_500,
            ..EstimatorConfig::default()
        },
        ..LatestConfig::default()
    }
}

fn keyword_query(rng: &mut StreamRng) -> RcDvq {
    RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..50))])
}

fn spatial_query(rng: &mut StreamRng, domain: &Rect) -> RcDvq {
    RcDvq::spatial(Rect::centered_clamped(
        Point::new(
            rng.gen_range_f64(domain.min_x..domain.max_x),
            rng.gen_range_f64(domain.min_y..domain.max_y),
        ),
        2.0,
        1.5,
        domain,
    ))
}

/// Drives a keyword flood against a keyword-blind default estimator so
/// the adaptor keeps switching, and checks that the observability layer
/// accounts for what the caller saw: one `EstimatorSwitched` event per
/// outcome that reported a switch (same order, from the answering
/// estimator to the one active afterwards), the accuracy monitor reset on
/// each switch, the prefill-start/discard/switch accounting identity, and
/// a ring that holds decisions only — every retained event is one a
/// counter counts, however many objects the window evicted meanwhile.
#[test]
fn switch_storm_events_account_for_every_switch() {
    let dataset = DatasetSpec::twitter();
    let mut latest = Latest::new(storm_config(&dataset));
    let mut gen = dataset.generator();
    while latest.phase() == PhaseTag::WarmUp {
        latest.ingest(gen.next_object());
    }
    let mut rng = StreamRng::seed_from_u64(4);
    // Pre-train on keyword queries so rewards already favor samplers.
    for _ in 0..20 {
        latest.ingest(gen.next_object());
        let q = keyword_query(&mut rng);
        let _ = latest.query(&q, QueryOptions::at(gen.clock()));
    }
    assert_eq!(latest.phase(), PhaseTag::Incremental);
    assert_eq!(latest.active_kind(), EstimatorKind::H4096);

    // Alternate hostile blocks: keyword floods (bad for histograms) and
    // narrow spatial bursts, so accuracy keeps collapsing after each
    // switch and the adaptor fires more than once.
    // (query position, stream time, from, to) of every switch the outcomes
    // reported; the 20 pre-training queries came first.
    let mut switches_seen = Vec::new();
    for i in 0..400usize {
        for _ in 0..2 {
            latest.ingest(gen.next_object());
        }
        let q = if (i / 40) % 2 == 0 {
            keyword_query(&mut rng)
        } else {
            spatial_query(&mut rng, &dataset.domain)
        };
        let at = gen.clock();
        let out = latest.query(&q, QueryOptions::at(at));

        if out.switched {
            switches_seen.push((20 + i as u64, at, out.estimator, latest.active_kind()));
            // The monitor must restart from empty after every switch (the
            // switching query's own observation lands before the reset).
            let snap = latest.metrics_snapshot();
            assert_eq!(
                snap.adaptor.monitor_len,
                0,
                "accuracy monitor not reset after switch {}",
                switches_seen.len()
            );
            assert_eq!(snap.adaptor.queries_since_switch, 0);
        }
    }
    assert!(
        switches_seen.len() >= 2,
        "hostile workload produced only {} switches — not a storm",
        switches_seen.len()
    );

    let snap = latest.metrics_snapshot();

    // Every switch an outcome reported has exactly one EstimatorSwitched
    // event, in order, naming that query and those two estimators.
    assert_eq!(snap.adaptor.switches, switches_seen.len() as u64);
    let events = snap.switch_events();
    assert_eq!(events.len(), switches_seen.len());
    for (ev, seen) in events.iter().zip(&switches_seen) {
        match ev {
            LifecycleEvent::EstimatorSwitched {
                seq,
                at,
                from,
                to,
                trigger_average,
            } => {
                assert_eq!((*seq, *at, *from, *to), *seen);
                assert!(*trigger_average < latest.config().tau);
            }
            other => panic!("switch_events returned {other:?}"),
        }
    }

    // Prefill accounting: every prefill either switched in, was
    // discarded, or is still pending.
    let pending = snap
        .estimators
        .iter()
        .filter(|e| e.role == EstimatorRole::Prefilling)
        .count() as u64;
    assert!(pending <= 1, "at most one estimator may be prefilling");
    assert_eq!(
        snap.adaptor.prefill_starts,
        snap.adaptor.switches + snap.adaptor.prefill_discards + pending,
        "prefill starts must equal switches + discards + pending"
    );

    // Every build that finished says how many objects it swept, beside how
    // long it took.
    let mut completed = 0;
    for ev in &snap.events {
        if let LifecycleEvent::PrefillCompleted { snapshot_len, .. } = ev {
            completed += 1;
            assert!(
                (1..=snap.window.ingested).contains(&(*snapshot_len as u64)),
                "build of {snapshot_len} objects, {} ever ingested",
                snap.window.ingested
            );
            assert!(ev
                .to_json()
                .contains(&format!("\"snapshot_len\": {snapshot_len}")));
        }
    }
    assert!(
        completed > 0,
        "no prefill build completed in a switch storm"
    );

    // The event stream was sized for the run: nothing was dropped, so the
    // orderings above are complete, not a suffix.
    assert_eq!(snap.events_dropped, 0);

    // Every retained event is a counted decision: the three phase entries,
    // then one event per prefill start, discard, cancellation and finished
    // build, per switch and per retraining. The window's evictions, which
    // `window.evicted` counts, add none.
    assert!(
        snap.window.evicted >= 256,
        "only {} evictions — too few to show the ring ignores them",
        snap.window.evicted
    );
    let a = &snap.adaptor;
    assert_eq!(
        snap.events.len() as u64,
        3 + a.prefill_starts
            + a.prefill_discards
            + a.prefill_cancelled
            + a.prefill_build_us.count
            + a.switches
            + a.tree_retrainings,
        "events: {:?}",
        snap.events.iter().map(|e| e.name()).collect::<Vec<_>>()
    );
}

/// Acceptance: an end-of-run snapshot is non-trivial for every subsystem
/// and consistent with the independently queryable system state.
#[test]
fn snapshot_covers_every_subsystem() {
    let dataset = DatasetSpec::twitter();
    let config = LatestConfig {
        window_span: Duration::from_secs(45),
        warmup: Duration::from_secs(45),
        pretrain_queries: 30,
        accuracy_window: 12,
        min_switch_spacing: 12,
        estimator_config: EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 1_500,
            ..EstimatorConfig::default()
        },
        ..LatestConfig::default()
    };
    let mut latest = Latest::new(config);
    let mut gen = dataset.generator();
    while latest.phase() == PhaseTag::WarmUp {
        latest.ingest(gen.next_object());
    }
    let mut rng = StreamRng::seed_from_u64(7);
    for i in 0..80usize {
        for _ in 0..10 {
            latest.ingest(gen.next_object());
        }
        let q = match i % 3 {
            0 => spatial_query(&mut rng, &dataset.domain),
            1 => keyword_query(&mut rng),
            _ => RcDvq::hybrid(
                Rect::centered_clamped(
                    Point::new(
                        rng.gen_range_f64(dataset.domain.min_x..dataset.domain.max_x),
                        rng.gen_range_f64(dataset.domain.min_y..dataset.domain.max_y),
                    ),
                    2.0,
                    1.5,
                    &dataset.domain,
                ),
                vec![KeywordId(rng.gen_range_u32(0..40))],
            ),
        };
        let _ = latest.query(&q, QueryOptions::at(gen.clock()));
    }
    assert_eq!(latest.phase(), PhaseTag::Incremental);

    let snap = latest.metrics_snapshot();

    // Phase machine: all three phases entered, in lifetime order.
    assert_eq!(
        snap.phase_events(),
        [
            PhaseTag::WarmUp,
            PhaseTag::PreTraining,
            PhaseTag::Incremental
        ]
    );
    assert_eq!(snap.phase, PhaseTag::Incremental);

    // Query accounting adds up.
    assert_eq!(snap.queries_total, 80);
    assert_eq!(
        snap.queries_by_phase.iter().sum::<u64>(),
        snap.queries_total
    );

    // Window: everything ingested is either resident or evicted.
    assert!(snap.window.ingested > 0);
    assert_eq!(snap.window.occupancy, latest.window_len() as u64);
    assert_eq!(
        snap.window.occupancy + snap.window.evicted,
        snap.window.ingested
    );

    // Executor path mix: the planner routed every query once.
    assert_eq!(
        snap.executor.spatial + snap.executor.inverted,
        snap.queries_total,
        "every query takes exactly one access path"
    );

    // Per-kind estimate latency histograms are all populated (each
    // pre-training query measured every kind) and exactly one kind is
    // active.
    for e in &snap.estimators {
        assert!(
            e.latency_us.count > 0,
            "no latency samples for {}",
            e.kind.name()
        );
        assert!(e.memory_bytes > 0, "no memory gauge for {}", e.kind.name());
    }
    let active: Vec<EstimatorKind> = snap
        .estimators
        .iter()
        .filter(|e| e.role == EstimatorRole::Active)
        .map(|e| e.kind)
        .collect();
    assert_eq!(active, [latest.active_kind()]);

    // The hand-rolled rendering is strict JSON.
    let json = snap.to_json();
    testkit::validate_json(&json).unwrap_or_else(|e| panic!("{e}"));
    for key in [
        "\"phase\"",
        "\"queries\"",
        "\"window\"",
        "\"adaptor\"",
        "\"executor\"",
        "\"estimators\"",
        "\"events\"",
    ] {
        assert!(json.contains(key), "snapshot JSON lacks {key}");
    }
}
