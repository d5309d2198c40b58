//! Targeted advertising: gauge product-keyword popularity per metro area
//! in real time (the paper's second motivating application, §I).
//!
//! An ad platform wants to know, for each candidate metro, roughly how
//! many recent posts mention a product keyword — cheap estimates decide
//! where to spend, exact counting would be wasteful. This example ranks
//! metros by estimated keyword popularity and shows the estimation error
//! LATEST actually incurred against the system logs.
//!
//! ```text
//! cargo run --release -p latest-core --example targeted_ads
//! ```

use geostream::synth::DatasetSpec;
#[allow(unused_imports)]
use geostream::synth::KeywordModel;
use geostream::{Duration, KeywordId, Point, RcDvq, Rect, StreamRng};
use latest_core::{Latest, LatestConfig, PhaseTag, QueryOptions};

fn main() {
    let dataset = DatasetSpec::twitter();
    let mut objects = dataset.generator();

    // Candidate metro areas: the synthetic stream concentrates around its
    // own hotspot mixture, so the campaign targets the six densest
    // synthetic "metros".
    let metro_names = [
        "Metro A", "Metro B", "Metro C", "Metro D", "Metro E", "Metro F",
    ];
    let metros: Vec<(&str, f64, f64)> = dataset
        .spatial_model()
        .hotspots()
        .iter()
        .take(6)
        .zip(metro_names)
        .map(|(h, name)| (name, h.center.x, h.center.y))
        .collect();
    // "Product keywords" are chosen at campaign time from the currently
    // trending vocabulary — the synthetic stream has topical drift, so
    // yesterday's hot hashtags go cold (§I's churn phenomenon).
    let keyword_model = dataset.keyword_model();

    let config = LatestConfig::builder()
        .window_span(Duration::from_secs(90))
        .warmup(Duration::from_secs(90))
        .pretrain_queries(180)
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
    // Pre-train on the exact query shape the campaign dashboard issues.
    let mut rng = StreamRng::seed_from_u64(0xad5);
    let mut i = 0usize;
    while latest.phase() == PhaseTag::PreTraining {
        for _ in 0..20 {
            latest.ingest(objects.next_object());
        }
        let (_, x, y) = metros[i % metros.len()];
        let kw = keyword_model.sample_keywords(&mut rng, latest.now(), 1)[0];
        let area = Rect::centered_clamped(Point::new(x, y), 1.5, 1.2, &dataset.domain);
        let _ = latest.query(&RcDvq::hybrid(area, vec![kw]), QueryOptions::new());
        i += 1;
    }

    // Let the stream settle, then pick three trending product keywords and
    // rank metros for each.
    for _ in 0..20_000 {
        latest.ingest(objects.next_object());
    }
    let product_names = ["sneakers", "headphones", "espresso"];
    let mut used: std::collections::HashSet<KeywordId> = std::collections::HashSet::new();
    let products: Vec<(&str, KeywordId)> = product_names
        .iter()
        .map(|name| {
            // The most frequent term among a batch of draws is a currently
            // trending one (low ids are not: topical drift rotates the hot
            // band through the vocabulary).
            let mut counts = std::collections::HashMap::new();
            for _ in 0..64 {
                let k = keyword_model.sample_keywords(&mut rng, latest.now(), 1)[0];
                *counts.entry(k).or_insert(0usize) += 1;
            }
            let kw = counts
                .into_iter()
                .filter(|(k, _)| !used.contains(k))
                .max_by_key(|&(k, c)| (c, std::cmp::Reverse(k.0)))
                .map(|(k, _)| k)
                .expect("draws");
            used.insert(kw);
            (*name, kw)
        })
        .collect();
    let (mut accuracy_sum, mut answered) = (0.0, 0usize);
    for (product, kw) in &products {
        println!(
            "product '{product}' (kw{}): estimated mentions per metro",
            kw.0
        );
        let mut rows = Vec::new();
        for (name, x, y) in &metros {
            let area = Rect::centered_clamped(Point::new(*x, *y), 1.5, 1.2, &dataset.domain);
            let out = latest.query(&RcDvq::hybrid(area, vec![*kw]), QueryOptions::new());
            rows.push((*name, out.estimate, out.actual, out.estimator));
            accuracy_sum += out.accuracy;
            answered += 1;
            // Keep the stream moving between queries.
            for _ in 0..200 {
                latest.ingest(objects.next_object());
            }
        }
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite estimates"));
        for (rank, (name, est, actual, estimator)) in rows.iter().enumerate() {
            println!(
                "  #{:<2} {:<12} est {:>7.0}  (actual {:>5}, via {})",
                rank + 1,
                name,
                est,
                actual,
                estimator
            );
        }
        println!();
    }

    println!(
        "mean estimation accuracy across the campaign: {:.3}",
        accuracy_sum / answered as f64
    );
}
