//! Workload shift: watch the Estimator Adaptor (§V-D) switch live.
//!
//! The workload starts purely spatial (where the 2D histogram shines),
//! then flips to pure keyword queries (which a purely spatial summary
//! cannot answer at all). The example prints the moving-average accuracy
//! the adaptor monitors and annotates pre-fill starts and switches.
//!
//! ```text
//! cargo run --release -p latest-core --example workload_shift
//! ```

use estimators::EstimatorKind;
use geostream::synth::DatasetSpec;
use geostream::{Duration, KeywordId, Point, RcDvq, Rect, StreamRng};
use latest_core::{Latest, LatestConfig, LifecycleEvent, PhaseTag, QueryOptions};

fn main() {
    let dataset = DatasetSpec::twitter();
    let mut objects = dataset.generator();
    let mut rng = StreamRng::seed_from_u64(0x5417);

    let config = LatestConfig::builder()
        .window_span(Duration::from_secs(60))
        .warmup(Duration::from_secs(60))
        .pretrain_queries(150)
        // Start from the histogram so the shift to keywords must force a
        // switch.
        .default_estimator(EstimatorKind::H4096)
        .accuracy_window(24)
        .min_switch_spacing(24)
        .estimator_config(estimators::EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 5_000,
            ..estimators::EstimatorConfig::default()
        })
        .build()
        .expect("demo parameters are in range");
    let mut latest = Latest::new(config);

    while latest.phase() == PhaseTag::WarmUp {
        latest.ingest(objects.next_object());
    }

    let spatial_query = |rng: &mut StreamRng, domain: &Rect| {
        let cx = rng.gen_range_f64(domain.min_x..domain.max_x);
        let cy = rng.gen_range_f64(domain.min_y..domain.max_y);
        RcDvq::spatial(Rect::centered_clamped(Point::new(cx, cy), 2.5, 2.0, domain))
    };

    // Pre-training with a mixed diet so the model knows all estimators.
    let mut n = 0u32;
    while latest.phase() == PhaseTag::PreTraining {
        for _ in 0..20 {
            latest.ingest(objects.next_object());
        }
        let q = if n.is_multiple_of(2) {
            spatial_query(&mut rng, &dataset.domain)
        } else {
            RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..40))])
        };
        let _ = latest.query(&q, QueryOptions::new());
        n += 1;
    }

    println!(
        "phase 1: pure spatial workload (active: {})",
        latest.active_kind()
    );
    println!("query  active  accuracy  monitor_avg");
    let print_row = |i: u32, latest: &Latest, acc: f64, switched: bool| {
        let avg = latest
            .metrics_snapshot()
            .adaptor
            .monitor_average
            .map(|a| format!("{a:.2}"))
            .unwrap_or_else(|| "warming".into());
        println!(
            "{i:>5}  {:<6}  {acc:>8.2}  {avg}{}{}",
            latest.active_kind().name(),
            if switched { "   << SWITCH" } else { "" },
            latest
                .prefilling()
                .map(|k| format!("   (pre-filling {k})"))
                .unwrap_or_default()
        );
    };

    for i in 0..260u32 {
        for _ in 0..15 {
            latest.ingest(objects.next_object());
        }
        // The shift: spatial for the first 120 queries, keyword afterwards.
        let q = if i < 120 {
            spatial_query(&mut rng, &dataset.domain)
        } else {
            RcDvq::keyword(vec![KeywordId(rng.gen_range_u32(0..40))])
        };
        if i == 120 {
            println!("\nphase 2: workload flips to pure keyword queries\n");
        }
        let out = latest.query(&q, QueryOptions::new());
        if i % 20 == 0 || out.switched {
            print_row(i, &latest, out.accuracy, out.switched);
        }
    }

    println!("\nswitch history:");
    for event in latest.metrics_snapshot().switch_events() {
        if let LifecycleEvent::EstimatorSwitched {
            seq,
            from,
            to,
            trigger_average,
            ..
        } = event
        {
            println!("  at query #{seq}: {from} -> {to} (monitor avg {trigger_average:.2})");
        }
    }
    assert_ne!(
        latest.active_kind(),
        EstimatorKind::H4096,
        "the adaptor should have abandoned the keyword-blind histogram"
    );
    println!("\nfinal active estimator: {}", latest.active_kind());
}
