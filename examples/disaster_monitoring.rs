//! Disaster monitoring: the paper's motivating scenario (§I).
//!
//! First responders estimate, in real time, how many stream posts mention
//! "fire" inside an affected area to size the response. This example
//! simulates a fire event: a burst of posts with the incident keyword
//! appears inside one hotspot, and repeated RC-DVQ estimation queries
//! track the affected population while LATEST keeps the estimator choice
//! appropriate.
//!
//! ```text
//! cargo run --release -p latest-core --example disaster_monitoring
//! ```

use geostream::synth::DatasetSpec;
use geostream::{Duration, GeoTextObject, KeywordId, ObjectId, Point, RcDvq, Rect, StreamRng};
use latest_core::{Latest, LatestConfig, PhaseTag, QueryOptions};

/// The interned id we reserve for the incident keyword ("fire").
const FIRE: KeywordId = KeywordId(7);

fn main() {
    let dataset = DatasetSpec::twitter();
    let mut background = dataset.generator();
    let mut rng = StreamRng::seed_from_u64(0xf12e);

    // The affected area: a box around one metro hotspot.
    let incident_center = Point::new(-118.9, 34.2); // Thousand Oaks-ish
    let affected = Rect::centered_clamped(incident_center, 1.2, 0.9, &dataset.domain);

    let config = LatestConfig::builder()
        .window_span(Duration::from_secs(90))
        .warmup(Duration::from_secs(90))
        .pretrain_queries(150)
        .estimator_config(estimators::EstimatorConfig {
            domain: dataset.domain,
            reservoir_capacity: 5_000,
            ..estimators::EstimatorConfig::default()
        })
        .build()
        .expect("demo parameters are in range");
    let mut latest = Latest::new(config);

    while latest.phase() == PhaseTag::WarmUp {
        latest.ingest(background.next_object());
    }

    // Pre-train with the kind of estimation queries responders issue.
    let mut n = 0u32;
    while latest.phase() == PhaseTag::PreTraining {
        for _ in 0..20 {
            latest.ingest(background.next_object());
        }
        let q = if n.is_multiple_of(2) {
            RcDvq::hybrid(affected, vec![FIRE])
        } else {
            RcDvq::spatial(affected)
        };
        let _ = latest.query(&q, QueryOptions::new());
        n += 1;
    }

    println!("monitoring '{affected:?}' for incident keyword…\n");
    println!("minute  est. affected  actual  accuracy  estimator");

    // Simulate 10 \"minutes\": the fire starts at minute 3 and burns until
    // minute 7 — during the event, extra posts carrying FIRE appear inside
    // the affected box.
    let mut next_oid = 10_000_000u64;
    for minute in 0..10u32 {
        let event_active = (3..7).contains(&minute);
        for _ in 0..1_500 {
            latest.ingest(background.next_object());
            if event_active && rng.gen_bool(0.12) {
                // Incident post: inside the box, mentions the keyword.
                let x = rng.gen_range_f64(affected.min_x..affected.max_x);
                let y = rng.gen_range_f64(affected.min_y..affected.max_y);
                let obj = GeoTextObject::new(
                    ObjectId(next_oid),
                    Point::new(x, y),
                    vec![FIRE, KeywordId(rng.gen_range_u32(100..200))],
                    latest.now(),
                );
                next_oid += 1;
                latest.ingest(obj);
            }
        }
        let out = latest.query(&RcDvq::hybrid(affected, vec![FIRE]), QueryOptions::new());
        println!(
            "{minute:>6}  {:>13.0}  {:>6}  {:>8.2}  {}{}",
            out.estimate,
            out.actual,
            out.accuracy,
            out.estimator,
            if event_active {
                "   << FIRE ACTIVE"
            } else {
                ""
            }
        );
    }

    println!(
        "\nestimates tracked the burst and decay; switches performed: {}",
        latest.metrics_snapshot().adaptor.switches
    );
}
