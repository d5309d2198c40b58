//! Dataset presets and the object generator.
//!
//! Each preset mirrors one of the paper's evaluation datasets (§VI-A) in
//! *shape* — spatial modality, vocabulary size, keywords per object, stream
//! rate — at a laptop-friendly scale. Scale factors are configurable, so the
//! harness can dial object counts up or down without changing distribution
//! shape.

use crate::geometry::Rect;
use crate::object::{GeoTextObject, ObjectId};
use crate::rng::StreamRng;
use crate::synth::spatial::{GaussianMixture, SpatialModel};
use crate::synth::text::{KeywordModel, TopicDrift, ZipfKeywords};
use crate::time::{Duration, Timestamp};
use crate::vocab::Vocabulary;

/// Which paper dataset a preset mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// 75 M geotagged tweets over 10 h: many urban hotspots, large hashtag
    /// vocabulary with churn, 1–3 keywords per object.
    Twitter,
    /// 41 M eBird records over 6 h: fewer, tighter observation sites, modest
    /// species vocabulary, 2–5 keywords per record, no churn.
    EBird,
    /// 973 K Foursquare check-ins: venue-shaped point clusters, small tag
    /// vocabulary, 1–2 tags per check-in.
    CheckIn,
}

impl DatasetKind {
    /// Short name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Twitter => "Twitter",
            DatasetKind::EBird => "eBird",
            DatasetKind::CheckIn => "CheckIn",
        }
    }
}

/// Full description of a synthetic dataset/stream.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    pub kind: DatasetKind,
    pub domain: Rect,
    /// Number of Gaussian hotspots.
    pub hotspots: usize,
    /// Hotspot std-dev as a fraction of domain extent.
    pub sigma_frac: f64,
    /// Probability mass of the uniform background.
    pub background: f64,
    /// Seasonal drift of the spatial mixture, if any.
    pub spatial_drift: Option<(Duration, f64)>,
    /// Distinct keyword count.
    pub vocab_size: usize,
    /// Zipf exponent of keyword frequencies.
    pub zipf_s: f64,
    /// Topical drift `(period, step)` of the keyword model, if any.
    pub keyword_drift: Option<(Duration, usize)>,
    /// Inclusive range of keywords per object.
    pub kw_per_object: (usize, usize),
    /// Mean inter-arrival gap between objects.
    pub mean_gap: Duration,
    /// Base RNG seed; all randomness in the generator derives from it.
    pub seed: u64,
}

impl DatasetSpec {
    /// Twitter-like preset (the paper's primary dataset).
    pub fn twitter() -> Self {
        DatasetSpec {
            kind: DatasetKind::Twitter,
            // Continental-US-like bounding box.
            domain: Rect::new(-125.0, 25.0, -66.0, 49.0),
            hotspots: 24,
            sigma_frac: 0.015,
            background: 0.08,
            spatial_drift: Some((Duration::from_secs(90), 6.0)),
            vocab_size: 20_000,
            zipf_s: 1.05,
            keyword_drift: Some((Duration::from_secs(75), 4_831)),
            kw_per_object: (1, 3),
            mean_gap: Duration::from_millis(4),
            seed: 0x7717_7e12,
        }
    }

    /// eBird-like preset: tight observation clusters, stable vocabulary.
    pub fn ebird() -> Self {
        DatasetSpec {
            kind: DatasetKind::EBird,
            domain: Rect::new(-125.0, 25.0, -66.0, 49.0),
            hotspots: 60,
            sigma_frac: 0.006,
            background: 0.03,
            spatial_drift: None,
            vocab_size: 2_500,
            zipf_s: 0.9,
            keyword_drift: None,
            kw_per_object: (2, 5),
            mean_gap: Duration::from_millis(5),
            seed: 0xeb1d_0001,
        }
    }

    /// Foursquare-CheckIn-like preset: venue clusters, tiny tag vocabulary.
    pub fn checkin() -> Self {
        DatasetSpec {
            kind: DatasetKind::CheckIn,
            domain: Rect::new(-125.0, 25.0, -66.0, 49.0),
            hotspots: 12,
            sigma_frac: 0.01,
            background: 0.05,
            spatial_drift: None,
            vocab_size: 800,
            zipf_s: 1.1,
            keyword_drift: None,
            kw_per_object: (1, 2),
            mean_gap: Duration::from_millis(8),
            seed: 0xc4ec_0001,
        }
    }

    /// Returns the preset for `kind`.
    pub fn preset(kind: DatasetKind) -> Self {
        match kind {
            DatasetKind::Twitter => Self::twitter(),
            DatasetKind::EBird => Self::ebird(),
            DatasetKind::CheckIn => Self::checkin(),
        }
    }

    /// Overrides the RNG seed (handy for repeated trials).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the interned vocabulary for this dataset.
    pub fn vocabulary(&self) -> Vocabulary {
        Vocabulary::synthetic(self.vocab_size)
    }

    /// Builds the spatial model for this dataset.
    pub fn spatial_model(&self) -> GaussianMixture {
        let mut m = GaussianMixture::scattered(
            self.domain,
            self.hotspots,
            self.sigma_frac,
            self.background,
            self.seed ^ 0x5a5a,
        );
        if let Some((period, boost)) = self.spatial_drift {
            m = m.with_drift(period, boost);
        }
        m
    }

    /// Builds the keyword model for this dataset.
    pub fn keyword_model(&self) -> Box<dyn KeywordModel + Send + Sync> {
        let z = ZipfKeywords::new(self.vocab_size, self.zipf_s);
        match self.keyword_drift {
            Some((period, step)) => Box::new(TopicDrift::new(z, period, step)),
            None => Box::new(z),
        }
    }

    /// Builds a deterministic object generator for this spec.
    pub fn generator(&self) -> ObjectGenerator {
        ObjectGenerator::new(self.clone())
    }
}

/// An infinite, deterministic iterator of [`GeoTextObject`]s in
/// non-decreasing timestamp order.
pub struct ObjectGenerator {
    spec: DatasetSpec,
    spatial: GaussianMixture,
    keywords: Box<dyn KeywordModel + Send + Sync>,
    rng: StreamRng,
    next_oid: u64,
    clock: Timestamp,
}

impl ObjectGenerator {
    fn new(spec: DatasetSpec) -> Self {
        let spatial = spec.spatial_model();
        let keywords = spec.keyword_model();
        let rng = StreamRng::seed_from_u64(spec.seed);
        ObjectGenerator {
            spec,
            spatial,
            keywords,
            rng,
            next_oid: 0,
            clock: Timestamp::ZERO,
        }
    }

    /// The dataset spec this generator was built from.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// Current virtual time of the generator (timestamp of the last object).
    pub fn clock(&self) -> Timestamp {
        self.clock
    }

    /// Produces the next object.
    pub fn next_object(&mut self) -> GeoTextObject {
        // Exponential-ish inter-arrival: uniform gap in [0, 2 * mean].
        let gap = self
            .rng
            .gen_range_u64_inclusive(0..=self.spec.mean_gap.millis() * 2);
        self.clock = self.clock + Duration::from_millis(gap);
        let loc = self.spatial.sample(&mut self.rng, self.clock);
        let (lo, hi) = self.spec.kw_per_object;
        let count = self.rng.gen_range_usize_inclusive(lo..=hi);
        let kws = self
            .keywords
            .sample_keywords(&mut self.rng, self.clock, count);
        let oid = ObjectId(self.next_oid);
        self.next_oid += 1;
        GeoTextObject::new(oid, loc, kws, self.clock)
    }

    /// Generates objects until the virtual clock passes `until`.
    pub fn take_until(&mut self, until: Timestamp) -> Vec<GeoTextObject> {
        let mut out = Vec::new();
        while self.clock < until {
            out.push(self.next_object());
        }
        out
    }
}

impl Iterator for ObjectGenerator {
    type Item = GeoTextObject;

    fn next(&mut self) -> Option<GeoTextObject> {
        Some(self.next_object())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_are_time_ordered_and_in_domain() {
        let spec = DatasetSpec::twitter();
        let mut g = spec.generator();
        let mut last = Timestamp::ZERO;
        for _ in 0..2_000 {
            let o = g.next_object();
            assert!(o.timestamp >= last, "timestamps must be non-decreasing");
            assert!(spec.domain.contains(&o.loc));
            last = o.timestamp;
        }
    }

    #[test]
    fn keyword_counts_respect_spec() {
        let spec = DatasetSpec::ebird();
        let (lo, hi) = spec.kw_per_object;
        let mut g = spec.generator();
        for _ in 0..500 {
            let o = g.next_object();
            // Dedup can shrink below lo, but never above hi.
            assert!(o.keywords.len() <= hi);
            assert!(!o.keywords.is_empty() || lo == 0);
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a: Vec<_> = DatasetSpec::checkin().generator().take(100).collect();
        let b: Vec<_> = DatasetSpec::checkin().generator().take(100).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = DatasetSpec::twitter().generator().take(50).collect();
        let b: Vec<_> = DatasetSpec::twitter()
            .with_seed(99)
            .generator()
            .take(50)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn oids_are_unique_and_dense() {
        let g = DatasetSpec::twitter().generator();
        let oids: Vec<u64> = g.take(100).map(|o| o.oid.0).collect();
        assert_eq!(oids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn take_until_advances_clock() {
        let mut g = DatasetSpec::twitter().generator();
        let objs = g.take_until(Timestamp(10_000));
        assert!(!objs.is_empty());
        assert!(g.clock() >= Timestamp(10_000));
        assert!(objs.iter().all(|o| o.timestamp <= g.clock()));
    }

    #[test]
    fn presets_have_distinct_character() {
        let tw = DatasetSpec::twitter();
        let eb = DatasetSpec::ebird();
        let ci = DatasetSpec::checkin();
        assert!(tw.vocab_size > eb.vocab_size);
        assert!(eb.vocab_size > ci.vocab_size);
        assert_eq!(DatasetSpec::preset(DatasetKind::Twitter).kind, tw.kind);
        assert_eq!(DatasetKind::EBird.name(), "eBird");
    }
}
