//! Workload specifications and the deterministic query generator.

use geostream::synth::{GaussianMixture, KeywordModel, SpatialModel, TopicDrift, ZipfKeywords};
use geostream::{KeywordId, Point, RcDvq, Rect, StreamRng, Timestamp};

/// A composition of query types, as probabilities summing to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    pub spatial: f64,
    pub keyword: f64,
    pub hybrid: f64,
}

impl Mix {
    /// Builds a mix; the three shares must sum to 1 (±1e-9).
    pub fn new(spatial: f64, keyword: f64, hybrid: f64) -> Self {
        let sum = spatial + keyword + hybrid;
        assert!((sum - 1.0).abs() < 1e-9, "mix must sum to 1, got {sum}");
        assert!(spatial >= 0.0 && keyword >= 0.0 && hybrid >= 0.0);
        Mix {
            spatial,
            keyword,
            hybrid,
        }
    }

    /// 100% pure spatial queries.
    pub fn spatial_only() -> Self {
        Mix::new(1.0, 0.0, 0.0)
    }

    /// 100% pure keyword queries.
    pub fn keyword_only() -> Self {
        Mix::new(0.0, 1.0, 0.0)
    }

    /// 100% hybrid queries.
    pub fn hybrid_only() -> Self {
        Mix::new(0.0, 0.0, 1.0)
    }

    /// Spatial-dominated third-mix block (70/15/15).
    pub fn dominated_spatial() -> Self {
        Mix::new(0.7, 0.15, 0.15)
    }

    /// Keyword-dominated third-mix block (15/70/15).
    pub fn dominated_keyword() -> Self {
        Mix::new(0.15, 0.7, 0.15)
    }

    /// Hybrid-dominated third-mix block (15/15/70).
    pub fn dominated_hybrid() -> Self {
        Mix::new(0.15, 0.15, 0.7)
    }
}

/// Full description of a query workload over one dataset.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    name: &'static str,
    dataset: geostream::synth::DatasetSpec,
    total: usize,
    /// Equal-length blocks of query-type composition covering the
    /// workload's lifetime.
    blocks: Vec<Mix>,
    /// Inclusive range of keywords per keyword-bearing query.
    keyword_counts: (usize, usize),
    /// Base half-extent of query ranges, as a multiple of the dataset's
    /// hotspot sigma (≈ "city-sized" at 1.0).
    range_scale: f64,
    /// When set, every spatial range uses exactly this half-extent in
    /// degrees (the Fig. 9/10 sweep knob).
    fixed_half_extent: Option<f64>,
    /// When set, every keyword query uses exactly this many keywords (the
    /// Fig. 11 sweep knob).
    fixed_keyword_count: Option<usize>,
    seed: u64,
}

impl WorkloadSpec {
    /// Creates a workload over `dataset` with `total` queries and a single
    /// uniform-mix block (one third each) until blocks are configured.
    pub fn new(name: &'static str, dataset: geostream::synth::DatasetSpec, total: usize) -> Self {
        WorkloadSpec {
            name,
            seed: dataset.seed ^ 0x9e3779b9,
            dataset,
            total,
            blocks: vec![Mix::new(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)],
            keyword_counts: (1, 3),
            range_scale: 1.0,
            fixed_half_extent: None,
            fixed_keyword_count: None,
        }
    }

    /// The workload's display name (e.g. `TwQW1`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The dataset the workload runs against.
    pub fn dataset(&self) -> &geostream::synth::DatasetSpec {
        &self.dataset
    }

    /// Total queries in the workload.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Replaces the composition schedule.
    pub fn with_blocks(mut self, blocks: Vec<Mix>) -> Self {
        assert!(!blocks.is_empty(), "schedule needs at least one block");
        self.blocks = blocks;
        self
    }

    /// Sets the per-query keyword count range.
    pub fn with_keyword_counts(mut self, lo: usize, hi: usize) -> Self {
        assert!(lo >= 1 && hi >= lo, "invalid keyword count range");
        self.keyword_counts = (lo, hi);
        self
    }

    /// Scales spatial query ranges relative to hotspot size.
    pub fn with_range_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0);
        self.range_scale = scale;
        self
    }

    /// Overrides the query count (for scaled-down runs).
    pub fn with_total(mut self, total: usize) -> Self {
        assert!(total >= 1);
        self.total = total;
        self
    }

    /// Fixes every spatial range to the given half-extent in degrees
    /// (Fig. 9/10 sweeps).
    pub fn with_fixed_half_extent(mut self, half: f64) -> Self {
        assert!(half > 0.0);
        self.fixed_half_extent = Some(half);
        self
    }

    /// Fixes every keyword query to exactly `count` keywords (Fig. 11
    /// sweep).
    pub fn with_fixed_keyword_count(mut self, count: usize) -> Self {
        assert!(count >= 1);
        self.fixed_keyword_count = Some(count);
        self
    }

    /// Overrides the workload RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the deterministic generator.
    pub fn generator(&self) -> WorkloadGenerator {
        WorkloadGenerator::new(self.clone())
    }

    /// The composition in force at query position `i` of `total`.
    pub fn mix_at(&self, i: usize) -> Mix {
        let block = (i * self.blocks.len() / self.total.max(1)).min(self.blocks.len() - 1);
        self.blocks[block]
    }
}

/// Deterministic query generator for one [`WorkloadSpec`].
///
/// Query centers come from the dataset's own hotspot mixture, so queries
/// land where data lives (as real search traffic does); keywords are
/// Zipf-drawn from the dataset vocabulary.
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
    centers: GaussianMixture,
    keywords: Box<dyn KeywordModel + Send + Sync>,
    rng: StreamRng,
    /// Virtual stream time the next queries are issued at; drives topical
    /// drift so query keywords track the data's hot vocabulary (the paper
    /// picks query keywords "randomly from evaluation data").
    now: Timestamp,
}

impl WorkloadGenerator {
    fn new(spec: WorkloadSpec) -> Self {
        let centers = spec.dataset.spatial_model();
        // Query keywords are more head-skewed than the content itself —
        // search-term frequency famously concentrates harder than document
        // vocabulary — so the query sampler uses a steeper Zipf exponent
        // than the data generator. It also follows the dataset's topical
        // drift: users search what is currently being posted.
        let base = ZipfKeywords::new(spec.dataset.vocab_size, spec.dataset.zipf_s + 0.35);
        let keywords: Box<dyn KeywordModel + Send + Sync> = match spec.dataset.keyword_drift {
            Some((period, step)) => Box::new(TopicDrift::new(base, period, step)),
            None => Box::new(base),
        };
        let rng = StreamRng::seed_from_u64(spec.seed);
        WorkloadGenerator {
            spec,
            centers,
            keywords,
            rng,
            now: Timestamp::ZERO,
        }
    }

    /// Sets the virtual stream time for subsequent queries (drives topical
    /// drift; harmless when the dataset has none).
    pub fn set_time(&mut self, now: Timestamp) {
        self.now = now;
    }

    /// The spec this generator was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Generates the query at position `i` of the workload. Positions need
    /// not be visited in order, but the stream of random draws is shared,
    /// so identical call sequences produce identical workloads.
    pub fn query_at(&mut self, i: usize) -> RcDvq {
        let mix = self.spec.mix_at(i);
        let u = self.rng.gen_f64();
        if u < mix.spatial {
            RcDvq::spatial(self.sample_range())
        } else if u < mix.spatial + mix.keyword {
            RcDvq::keyword(self.sample_keywords())
        } else {
            RcDvq::hybrid(self.sample_range(), self.sample_keywords())
        }
    }

    fn sample_range(&mut self) -> Rect {
        let domain = self.spec.dataset.domain;
        let center = self.centers.sample(&mut self.rng, self.now);
        let (hx, hy) = match self.spec.fixed_half_extent {
            Some(h) => (h, h),
            None => {
                // Query extents of a few hotspot sigmas (≈ a few grid
                // cells), varying ~3× so the estimators see a spread of
                // selectivities.
                let base_x = self.spec.dataset.sigma_frac * domain.width();
                let base_y = self.spec.dataset.sigma_frac * domain.height();
                let f = self.rng.gen_range_f64(1.5..5.0) * self.spec.range_scale;
                (base_x * f, base_y * f)
            }
        };
        Rect::centered_clamped(Point::new(center.x, center.y), hx, hy, &domain)
    }

    fn sample_keywords(&mut self) -> Vec<KeywordId> {
        let count = match self.spec.fixed_keyword_count {
            Some(c) => c,
            None => {
                let (lo, hi) = self.spec.keyword_counts;
                self.rng.gen_range_usize_inclusive(lo..=hi)
            }
        };
        // Rejection-light distinct draw: Zipf repeats are re-rolled a few
        // times, then accepted (duplicates are deduped by RcDvq anyway).
        let mut kws: Vec<KeywordId> = Vec::with_capacity(count);
        for _ in 0..count {
            let mut kw = self.keywords.sample_keywords(&mut self.rng, self.now, 1)[0];
            for _ in 0..4 {
                if !kws.contains(&kw) {
                    break;
                }
                kw = self.keywords.sample_keywords(&mut self.rng, self.now, 1)[0];
            }
            kws.push(kw);
        }
        kws
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::synth::DatasetSpec;

    #[test]
    fn mix_must_sum_to_one() {
        let m = Mix::new(0.2, 0.3, 0.5);
        assert_eq!(m.spatial, 0.2);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_mix_panics() {
        let _ = Mix::new(0.5, 0.5, 0.5);
    }

    #[test]
    fn mix_at_walks_blocks() {
        let spec = WorkloadSpec::new("t", DatasetSpec::twitter(), 100)
            .with_blocks(vec![Mix::spatial_only(), Mix::keyword_only()]);
        assert_eq!(spec.mix_at(0), Mix::spatial_only());
        assert_eq!(spec.mix_at(49), Mix::spatial_only());
        assert_eq!(spec.mix_at(50), Mix::keyword_only());
        assert_eq!(spec.mix_at(99), Mix::keyword_only());
        // Out-of-range clamps to the last block.
        assert_eq!(spec.mix_at(500), Mix::keyword_only());
    }

    #[test]
    fn ranges_stay_in_domain() {
        let spec = WorkloadSpec::new("t", DatasetSpec::twitter(), 100)
            .with_blocks(vec![Mix::spatial_only()]);
        let domain = spec.dataset().domain;
        let mut g = spec.generator();
        for i in 0..100 {
            let q = g.query_at(i);
            assert!(domain.contains_rect(q.range().unwrap()));
        }
    }

    #[test]
    fn fixed_half_extent_is_respected() {
        let spec = WorkloadSpec::new("t", DatasetSpec::twitter(), 50)
            .with_blocks(vec![Mix::spatial_only()])
            .with_fixed_half_extent(1.5);
        let mut g = spec.generator();
        for i in 0..50 {
            let r = *g.query_at(i).range().unwrap();
            // Clamping can shrink edge queries, never grow them.
            assert!(r.width() <= 3.0 + 1e-9);
            assert!(r.height() <= 3.0 + 1e-9);
        }
    }

    #[test]
    fn fixed_keyword_count_is_respected() {
        let spec = WorkloadSpec::new("t", DatasetSpec::twitter(), 50)
            .with_blocks(vec![Mix::keyword_only()])
            .with_fixed_keyword_count(4);
        let mut g = spec.generator();
        let mut four = 0;
        for i in 0..50 {
            let n = g.query_at(i).keywords().len();
            assert!(n <= 4);
            if n == 4 {
                four += 1;
            }
        }
        // Zipf collisions can dedup a few below 4, but most hit exactly 4.
        assert!(four >= 40, "only {four}/50 reached 4 distinct keywords");
    }

    #[test]
    fn keyword_skew_follows_zipf() {
        let spec = WorkloadSpec::new("t", DatasetSpec::twitter(), 5_000)
            .with_blocks(vec![Mix::keyword_only()])
            .with_keyword_counts(1, 1);
        let mut g = spec.generator();
        let mut head = 0usize;
        for i in 0..5_000 {
            if g.query_at(i).keywords()[0].index() < 20 {
                head += 1;
            }
        }
        assert!(head > 1_000, "query keywords not skewed: head={head}");
    }
}
