//! Data-driven sum-product network estimator (the paper's `SPN`).
//!
//! A sum-product network factorizes the window's joint distribution over
//! `(x, y, keywords)`:
//!
//! * the **root sum node** mixes `C` cluster components (weights = cluster
//!   sizes), found by k-means over object locations on a buffered sample;
//! * each **product node** assumes independence *within* its cluster and
//!   multiplies three leaf distributions: an x-histogram, a y-histogram,
//!   and a hashed keyword-bucket Bernoulli vector.
//!
//! The model is **data-driven**: it trains on raw window objects and must
//! be rebuilt as the window slides. Rebuild cost is linear in the sample
//! and model size — the "very high computational intensity to constantly
//! update" the paper cites as the SPN's weakness in streams, and the reason
//! its latency grows linearly with the memory budget (Figure 13).
//!
//! The training buffer lives in a shared [`SampleStore`]: rebuilds stream
//! the coordinate columns, and the pre-model estimate path (before the
//! first rebuild) answers from the store's kernels instead of a scan.

use crate::reservoir::Winners;
use crate::store::SampleStore;
use crate::traits::{EstimatorConfig, EstimatorKind, SelectivityEstimator};
use geostream::{
    GeoTextObject, KeywordId, Persist, PersistError, PersistReader, PersistWriter, Point, RcDvq,
    Rect, StreamRng,
};

/// Keyword-bucket count (hashed vocabulary dimension).
const KW_BUCKETS: usize = 64;
/// k-means iterations per rebuild.
const KMEANS_ITERS: usize = 4;

fn kw_bucket(kw: KeywordId) -> usize {
    // SplitMix-style mix, folded to the bucket range.
    let mut z = (kw.0 as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (z ^ (z >> 27)) as usize % KW_BUCKETS
}

/// One leaf histogram over a single axis.
#[derive(Debug, Clone)]
struct AxisHistogram {
    lo: f64,
    hi: f64,
    bins: Vec<f64>,
    total: f64,
}

impl AxisHistogram {
    fn build(lo: f64, hi: f64, bins: usize, values: impl Iterator<Item = f64>) -> Self {
        let mut h = AxisHistogram {
            lo,
            hi,
            bins: vec![0.0; bins.max(1)],
            total: 0.0,
        };
        for v in values {
            let idx = (((v - lo) / (hi - lo) * h.bins.len() as f64) as isize)
                .clamp(0, h.bins.len() as isize - 1) as usize;
            h.bins[idx] += 1.0;
            h.total += 1.0;
        }
        h
    }

    /// Probability mass on the interval `[a, b]`, with partial bins scaled
    /// linearly.
    fn mass(&self, a: f64, b: f64) -> f64 {
        if self.total <= 0.0 || b < self.lo || a > self.hi {
            return 0.0;
        }
        let a = a.max(self.lo);
        let b = b.min(self.hi);
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let mut mass = 0.0;
        for (i, &count) in self.bins.iter().enumerate() {
            if count <= 0.0 {
                continue;
            }
            let bin_lo = self.lo + i as f64 * width;
            let bin_hi = bin_lo + width;
            let overlap = (b.min(bin_hi) - a.max(bin_lo)).max(0.0);
            if overlap > 0.0 {
                mass += count * (overlap / width).min(1.0);
            }
        }
        mass / self.total
    }
}

/// One product-node component of the mixture.
#[derive(Debug, Clone)]
struct Component {
    weight: f64,
    x: AxisHistogram,
    y: AxisHistogram,
    /// `P(object carries ≥1 keyword hashing to bucket b)` per bucket.
    kw_probs: Vec<f64>,
}

impl Component {
    /// `P(object matches query)` under the within-cluster independence
    /// assumption.
    fn match_prob(&self, query: &RcDvq) -> f64 {
        let mut p = 1.0;
        if let Some(r) = query.range() {
            p *= self.x.mass(r.min_x, r.max_x);
            p *= self.y.mass(r.min_y, r.max_y);
        }
        let kws = query.keywords();
        if !kws.is_empty() {
            // P(any keyword matches) = 1 − Π (1 − p_bucket) over the
            // distinct buckets the query keywords hash to.
            let mut buckets: Vec<usize> = kws.iter().map(|&k| kw_bucket(k)).collect();
            buckets.sort_unstable();
            buckets.dedup();
            let miss: f64 = buckets.iter().map(|&b| 1.0 - self.kw_probs[b]).product();
            p *= 1.0 - miss;
        }
        p
    }
}

#[cfg(test)]
thread_local! {
    /// k-means trainings run on this thread (tests run one per thread).
    static TRAININGS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The sum-product network estimator.
pub struct SpnEstimator {
    domain: Rect,
    /// Buffered sample of the live window the model is (re)built from.
    buffer: SampleStore,
    buffer_capacity: usize,
    /// Built mixture model, if a rebuild has happened.
    components: Vec<Component>,
    clusters: usize,
    bins: usize,
    rebuild_every: u64,
    inserts_since_rebuild: u64,
    /// Total rebuilds performed (diagnostics; the paper's "update cost").
    rebuilds: u64,
    seen: u64,
    population: u64,
    rng: StreamRng,
}

impl SpnEstimator {
    /// Builds an empty SPN per `config`. Cluster count and histogram
    /// resolution scale with the memory budget.
    pub fn new(config: &EstimatorConfig) -> Self {
        let buffer_capacity = (config.scaled_reservoir() / 4).max(64);
        // The mixture is deliberately wide: real SPN inference sums over a
        // large node set, and the paper's Fig. 13 shows SPN latency growing
        // linearly with the memory budget — scaling the cluster count (with
        // fixed-resolution leaves) reproduces both.
        let clusters = ((48.0 * config.memory_budget) as usize).clamp(2, 256);
        let bins = 32;
        SpnEstimator {
            domain: config.domain,
            buffer: SampleStore::new(),
            buffer_capacity,
            components: Vec::new(),
            clusters,
            bins,
            // Rebuilding is the SPN's Achilles heel in streams ("very high
            // computational intensity to update the model constantly",
            // §V-B): a real deployment amortizes it, so the model is
            // rebuilt only after a multiple of the buffer has streamed by
            // and serves stale densities in between.
            rebuild_every: (buffer_capacity as u64 * 4).max(1_024),
            inserts_since_rebuild: 0,
            rebuilds: 0,
            seen: 0,
            population: 0,
            rng: StreamRng::seed_from_u64(config.seed ^ 0x59a9),
        }
    }

    /// Number of model rebuilds performed.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Whether a mixture model has been built yet.
    pub fn has_model(&self) -> bool {
        !self.components.is_empty()
    }

    /// The backing sample buffer (read access for diagnostics and tests).
    pub fn store(&self) -> &SampleStore {
        &self.buffer
    }

    /// The sampling RNG (read access for tests: equal states draw alike).
    pub fn rng(&self) -> &StreamRng {
        &self.rng
    }

    fn buffer_insert(&mut self, obj: &GeoTextObject) {
        self.seen += 1;
        if self.buffer.len() < self.buffer_capacity {
            self.buffer.push(obj);
        } else {
            let j = self.rng.gen_range_u64(0..self.seen);
            if (j as usize) < self.buffer_capacity {
                self.buffer.replace(j as u32, obj);
            }
        }
    }

    /// Places a bulk build's decided winners into the buffer.
    fn place_winners(&mut self, winners: &mut Winners<'_>) {
        for (slot, obj) in winners.drain() {
            if slot < self.buffer.len() {
                self.buffer.replace(slot as u32, obj);
            } else {
                self.buffer.push(obj);
            }
        }
    }

    /// Opens a rebuild over an `n`-object buffer: counts it and draws the
    /// k-means seed slots, which is all the randomness a rebuild consumes.
    /// A bulk build calls this alone for a rebuild whose model the next
    /// rebuild of the same call replaces before any estimate can read it.
    fn draw_seeds(&mut self, n: usize) -> Vec<usize> {
        self.rebuilds += 1;
        self.inserts_since_rebuild = 0;
        (0..self.clusters.min(n))
            .map(|_| self.rng.gen_range_usize(0..n))
            .collect()
    }

    /// Rebuilds the mixture from the current buffer: k-means over
    /// locations, then per-cluster leaf distributions.
    fn rebuild(&mut self) {
        let seeds = self.draw_seeds(self.buffer.len());
        self.train(&seeds);
    }

    /// Trains the mixture on the current buffer from the given seed slots.
    fn train(&mut self, seeds: &[usize]) {
        #[cfg(test)]
        TRAININGS.with(|t| t.set(t.get() + 1));
        self.components.clear();
        if seeds.is_empty() {
            return;
        }
        let (xs, ys) = (self.buffer.xs(), self.buffer.ys());
        let n = xs.len();
        let k = seeds.len();
        // Init centroids from distinct-ish sample positions.
        let mut centroids: Vec<Point> = seeds
            .iter()
            .map(|&idx| Point::new(xs[idx], ys[idx]))
            .collect();
        let mut assignment = vec![0usize; n];
        for _ in 0..KMEANS_ITERS {
            // Assign.
            for i in 0..n {
                let loc = Point::new(xs[i], ys[i]);
                let mut best = 0;
                let mut best_d = f64::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = loc.dist_sq(centroid);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                assignment[i] = best;
            }
            // Update.
            let mut sums = vec![(0.0f64, 0.0f64, 0usize); k];
            for i in 0..n {
                let s = &mut sums[assignment[i]];
                s.0 += xs[i];
                s.1 += ys[i];
                s.2 += 1;
            }
            for (c, s) in sums.iter().enumerate() {
                if s.2 > 0 {
                    centroids[c] = Point::new(s.0 / s.2 as f64, s.1 / s.2 as f64);
                }
            }
        }
        // Build components.
        for c in 0..k {
            let members: Vec<u32> = (0..n as u32)
                .filter(|&i| assignment[i as usize] == c)
                .collect();
            if members.is_empty() {
                continue;
            }
            let x = AxisHistogram::build(
                self.domain.min_x,
                self.domain.max_x,
                self.bins,
                members.iter().map(|&i| xs[i as usize]),
            );
            let y = AxisHistogram::build(
                self.domain.min_y,
                self.domain.max_y,
                self.bins,
                members.iter().map(|&i| ys[i as usize]),
            );
            let mut kw_probs = vec![0.0; KW_BUCKETS];
            for &i in &members {
                let mut hit = [false; KW_BUCKETS];
                for &kw in self.buffer.keywords(i) {
                    hit[kw_bucket(kw)] = true;
                }
                for (b, &h) in hit.iter().enumerate() {
                    if h {
                        kw_probs[b] += 1.0;
                    }
                }
            }
            let m = members.len() as f64;
            for p in &mut kw_probs {
                *p /= m;
            }
            self.components.push(Component {
                weight: m,
                x,
                y,
                kw_probs,
            });
        }
    }
}

impl Persist for AxisHistogram {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_f64(self.lo);
        w.put_f64(self.hi);
        self.bins.persist(w);
        w.put_f64(self.total);
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let lo = r.take_f64("AxisHistogram.lo")?;
        let hi = r.take_f64("AxisHistogram.hi")?;
        let bins = Vec::<f64>::restore(r)?;
        let total = r.take_f64("AxisHistogram.total")?;
        if bins.is_empty() {
            return Err(PersistError::Corrupt {
                context: "AxisHistogram.bins",
                detail: "empty bin vector".into(),
            });
        }
        Ok(AxisHistogram {
            lo,
            hi,
            bins,
            total,
        })
    }
}

impl Persist for Component {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_f64(self.weight);
        self.x.persist(w);
        self.y.persist(w);
        self.kw_probs.persist(w);
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let weight = r.take_f64("Component.weight")?;
        let x = AxisHistogram::restore(r)?;
        let y = AxisHistogram::restore(r)?;
        let kw_probs = Vec::<f64>::restore(r)?;
        if kw_probs.len() != KW_BUCKETS {
            return Err(PersistError::Corrupt {
                context: "Component.kw_probs",
                detail: format!("expected {KW_BUCKETS} buckets, found {}", kw_probs.len()),
            });
        }
        Ok(Component {
            weight,
            x,
            y,
            kw_probs,
        })
    }
}

/// Section tag for the SPN estimator's snapshot frame.
const SPN_TAG: u32 = 0x4512_59a9;

impl Persist for SpnEstimator {
    fn persist(&self, w: &mut PersistWriter) {
        w.section(SPN_TAG, |w| {
            self.domain.persist(w);
            w.put_usize(self.buffer_capacity);
            w.put_usize(self.clusters);
            w.put_usize(self.bins);
            w.put_u64(self.rebuild_every);
            w.put_u64(self.inserts_since_rebuild);
            w.put_u64(self.rebuilds);
            w.put_u64(self.seen);
            w.put_u64(self.population);
            self.rng.persist(w);
            self.components.persist(w);
            self.buffer.persist(w);
        });
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let section = r.begin_section(SPN_TAG, "SpnEstimator")?;
        let domain = Rect::restore(r)?;
        let buffer_capacity = r.take_usize("SpnEstimator.buffer_capacity")?;
        let clusters = r.take_usize("SpnEstimator.clusters")?;
        let bins = r.take_usize("SpnEstimator.bins")?;
        let rebuild_every = r.take_u64("SpnEstimator.rebuild_every")?;
        let inserts_since_rebuild = r.take_u64("SpnEstimator.inserts_since_rebuild")?;
        let rebuilds = r.take_u64("SpnEstimator.rebuilds")?;
        let seen = r.take_u64("SpnEstimator.seen")?;
        let population = r.take_u64("SpnEstimator.population")?;
        let rng = StreamRng::restore(r)?;
        let components = Vec::<Component>::restore(r)?;
        let buffer = SampleStore::restore(r)?;
        r.finish_section(section, "SpnEstimator")?;
        if buffer.len() > buffer_capacity {
            return Err(PersistError::Corrupt {
                context: "SpnEstimator.buffer",
                detail: format!(
                    "buffer holds {} objects over capacity {}",
                    buffer.len(),
                    buffer_capacity
                ),
            });
        }
        Ok(SpnEstimator {
            domain,
            buffer,
            buffer_capacity,
            components,
            clusters,
            bins,
            rebuild_every,
            inserts_since_rebuild,
            rebuilds,
            seen,
            population,
            rng,
        })
    }
}

impl SelectivityEstimator for SpnEstimator {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::Spn
    }

    fn insert(&mut self, obj: &GeoTextObject) {
        self.population += 1;
        self.buffer_insert(obj);
        self.inserts_since_rebuild += 1;
        if self.inserts_since_rebuild >= self.rebuild_every {
            self.rebuild();
        }
    }

    fn remove(&mut self, obj: &GeoTextObject) {
        self.population = self.population.saturating_sub(1);
        self.buffer.remove(obj.oid);
    }

    /// Decide, then place once — see [`Winners`] — with the sequence cut at
    /// the `rebuild_every` boundaries `insert` would rebuild at. Only the
    /// last boundary's model can ever be read, so the buffer is
    /// materialised and k-means run there alone; the earlier ones spend
    /// their seed draws ([`SpnEstimator::draw_seeds`]) and nothing else.
    fn insert_slices(&mut self, slices: &mut dyn Iterator<Item = &[GeoTextObject]>) {
        // Which boundary is the last depends on the total, so the slice
        // list (not the objects) is taken up front.
        let slices: Vec<&[GeoTextObject]> = slices.collect();
        let mut left: u64 = slices.iter().map(|s| s.len() as u64).sum();
        self.population += left;
        let every = self.rebuild_every.max(1);
        let mut until_rebuild = every.saturating_sub(self.inserts_since_rebuild).max(1);
        let mut winners = Winners::over(self.buffer.len());
        for mut slice in slices {
            while !slice.is_empty() {
                let take =
                    usize::try_from(until_rebuild).map_or(slice.len(), |u| u.min(slice.len()));
                let (head, rest) = slice.split_at(take);
                winners.decide(head, self.buffer_capacity, &mut self.seen, &mut self.rng);
                slice = rest;
                left -= take as u64;
                until_rebuild -= take as u64;
                self.inserts_since_rebuild += take as u64;
                if until_rebuild > 0 {
                    continue;
                }
                until_rebuild = every;
                if left >= every {
                    self.draw_seeds(winners.sample_len());
                } else {
                    self.place_winners(&mut winners);
                    self.rebuild();
                }
            }
        }
        self.place_winners(&mut winners);
    }

    fn estimate(&self, query: &RcDvq) -> f64 {
        if self.components.is_empty() {
            // No model yet: answer directly from the buffered sample.
            if self.buffer.is_empty() {
                return 0.0;
            }
            let matches = self.buffer.count(query);
            return matches as f64 / self.buffer.len() as f64 * self.population as f64;
        }
        let total_weight: f64 = self.components.iter().map(|c| c.weight).sum();
        if total_weight <= 0.0 {
            return 0.0;
        }
        let p: f64 = self
            .components
            .iter()
            .map(|c| c.weight / total_weight * c.match_prob(query))
            .sum();
        p.clamp(0.0, 1.0) * self.population as f64
    }

    fn memory_bytes(&self) -> usize {
        self.buffer.memory_bytes()
            + self
                .components
                .iter()
                .map(|c| {
                    (c.x.bins.len() + c.y.bins.len() + c.kw_probs.len())
                        * std::mem::size_of::<f64>()
                })
                .sum::<usize>()
            + std::mem::size_of::<Self>()
    }

    fn persist_state(&self, w: &mut PersistWriter) {
        self.persist(w);
    }

    fn population(&self) -> u64 {
        self.population
    }

    /// Audits the training buffer, plus its capacity bound.
    #[cfg(feature = "debug-invariants")]
    fn audit(&self) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        self.buffer.audit()?;
        ensure(
            self.buffer.len() <= self.buffer_capacity,
            "SpnEstimator",
            "buffer-capacity",
            || format!("buffer {} over {}", self.buffer.len(), self.buffer_capacity),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::{ObjectId, Timestamp};

    fn config() -> EstimatorConfig {
        EstimatorConfig {
            domain: Rect::new(0.0, 0.0, 100.0, 100.0),
            // Buffer 500; rebuilds fire every max(2000, 1024) inserts.
            reservoir_capacity: 2_000,
            ..EstimatorConfig::default()
        }
    }

    fn obj(id: u64, x: f64, y: f64, kws: &[u32]) -> GeoTextObject {
        GeoTextObject::new(
            ObjectId(id),
            Point::new(x, y),
            kws.iter().copied().map(KeywordId).collect(),
            Timestamp::ZERO,
        )
    }

    #[test]
    fn rebuild_happens_periodically() {
        let mut s = SpnEstimator::new(&config());
        for i in 0..5_000 {
            s.insert(&obj(i, (i % 100) as f64, (i % 97) as f64, &[]));
        }
        assert!(s.rebuilds() >= 2, "no periodic rebuilds: {}", s.rebuilds());
        assert!(s.has_model());
    }

    #[test]
    fn spatial_estimates_follow_clusters() {
        let mut s = SpnEstimator::new(&config());
        // Two clusters: 80% near (20,20), 20% near (80,80).
        for i in 0..6_000u64 {
            let (x, y) = if i % 5 < 4 {
                (20.0 + (i % 7) as f64 * 0.3, 20.0 + (i % 5) as f64 * 0.3)
            } else {
                (80.0 + (i % 7) as f64 * 0.3, 80.0 + (i % 5) as f64 * 0.3)
            };
            s.insert(&obj(i, x, y, &[]));
        }
        assert!(s.has_model(), "model should have been rebuilt");
        let dense = s.estimate(&RcDvq::spatial(Rect::new(15.0, 15.0, 25.0, 25.0)));
        let sparse = s.estimate(&RcDvq::spatial(Rect::new(75.0, 75.0, 90.0, 90.0)));
        let empty = s.estimate(&RcDvq::spatial(Rect::new(45.0, 45.0, 55.0, 55.0)));
        assert!(
            dense > 3_600.0 && dense < 6_000.0,
            "dense estimate off: {dense}"
        );
        assert!(
            sparse > 600.0 && sparse < 2_400.0,
            "sparse estimate off: {sparse}"
        );
        assert!(empty < 600.0, "empty region overestimated: {empty}");
    }

    #[test]
    fn keyword_estimates_reflect_frequency() {
        let mut s = SpnEstimator::new(&config());
        // Keyword 3 on 50% of objects, keyword 40 on 5%.
        for i in 0..6_000u64 {
            let mut kws = vec![(i % 997) as u32 + 100];
            if i % 2 == 0 {
                kws.push(3);
            }
            if i % 20 == 0 {
                kws.push(40);
            }
            s.insert(&obj(i, 50.0, 50.0, &kws));
        }
        let common = s.estimate(&RcDvq::keyword(vec![KeywordId(3)]));
        let rare = s.estimate(&RcDvq::keyword(vec![KeywordId(40)]));
        assert!(common > rare, "frequency ordering lost: {common} vs {rare}");
        assert!(common > 1_800.0, "common keyword underestimated: {common}");
    }

    #[test]
    fn before_first_rebuild_uses_buffer_scan() {
        let mut s = SpnEstimator::new(&config());
        for i in 0..50 {
            let x = if i < 20 { 10.0 } else { 90.0 };
            s.insert(&obj(i, x, 10.0, &[]));
        }
        assert!(!s.has_model());
        let est = s.estimate(&RcDvq::spatial(Rect::new(0.0, 0.0, 20.0, 20.0)));
        assert!((est - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_spn_estimates_zero() {
        let s = SpnEstimator::new(&config());
        assert_eq!(
            s.estimate(&RcDvq::spatial(Rect::new(0.0, 0.0, 1.0, 1.0))),
            0.0
        );
    }

    #[test]
    fn estimate_bounded_by_population() {
        let mut s = SpnEstimator::new(&config());
        for i in 0..2_000 {
            s.insert(&obj(i, 50.0, 50.0, &[1, 2, 3]));
        }
        let q = RcDvq::hybrid(
            Rect::new(0.0, 0.0, 100.0, 100.0),
            vec![KeywordId(1), KeywordId(2)],
        );
        assert!(s.estimate(&q) <= s.population() as f64 + 1e-9);
    }

    #[test]
    fn axis_histogram_mass() {
        let h = AxisHistogram::build(0.0, 10.0, 10, vec![0.5, 1.5, 2.5, 3.5].into_iter());
        assert!((h.mass(0.0, 10.0) - 1.0).abs() < 1e-9);
        assert!((h.mass(0.0, 2.0) - 0.5).abs() < 1e-9);
        assert_eq!(h.mass(20.0, 30.0), 0.0);
        // Partial bin: half of bin [0,1) ⇒ half of its 0.25 mass.
        assert!((h.mass(0.0, 0.5) - 0.125).abs() < 1e-9);
    }

    #[test]
    fn persist_round_trip_is_bit_identical_under_continued_churn() {
        let mut orig = SpnEstimator::new(&config());
        // Enough inserts that at least one rebuild has happened and the
        // reservoir is in rejection mode.
        for i in 0..5_000u64 {
            let x = (i.wrapping_mul(37) % 100) as f64;
            let y = (i.wrapping_mul(59) % 100) as f64;
            orig.insert(&obj(i, x, y, &[(i % 50) as u32]));
        }
        assert!(orig.has_model());

        let mut w = PersistWriter::new();
        orig.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = PersistReader::new(&bytes);
        let mut back = SpnEstimator::restore(&mut r).expect("restore");
        assert!(r.is_exhausted());
        assert_eq!(back.rebuilds(), orig.rebuilds());
        assert_eq!(back.seen, orig.seen);
        assert_eq!(back.buffer.oids(), orig.buffer.oids());

        // Continue churning both mirrors across the next rebuild boundary
        // (rebuild_every = 2000 under the test config): reservoir draws and
        // k-means centroid seeds must resume from the identical RNG stream.
        for i in 5_000..9_000u64 {
            let x = (i.wrapping_mul(37) % 100) as f64;
            let y = (i.wrapping_mul(59) % 100) as f64;
            let o = obj(i, x, y, &[(i % 50) as u32]);
            orig.insert(&o);
            back.insert(&o);
        }
        assert!(orig.rebuilds() > back.rebuilds().min(orig.rebuilds()) - 1);
        assert_eq!(back.rebuilds(), orig.rebuilds());
        assert_eq!(back.buffer.oids(), orig.buffer.oids());
        let queries = [
            RcDvq::spatial(Rect::new(10.0, 10.0, 40.0, 40.0)),
            RcDvq::keyword(vec![KeywordId(7)]),
            RcDvq::hybrid(Rect::new(20.0, 0.0, 90.0, 70.0), vec![KeywordId(13)]),
        ];
        for q in &queries {
            assert_eq!(orig.estimate(q).to_bits(), back.estimate(q).to_bits());
        }
        #[cfg(feature = "debug-invariants")]
        {
            orig.audit().unwrap();
            back.audit().unwrap();
        }
    }

    /// The benchmark's shape — 100 k objects into a 2 048-object buffer
    /// that rebuilds every 8 192 inserts: twelve rebuilds are counted and
    /// their seeds drawn, one k-means is run, and the state is the one
    /// twelve k-means runs reach one insert at a time.
    #[test]
    fn bulk_build_of_100k_counts_twelve_rebuilds_and_trains_once() {
        let cfg = EstimatorConfig {
            reservoir_capacity: 8_192,
            ..config()
        };
        let objs: Vec<GeoTextObject> = (0..100_000u64)
            .map(|i| {
                let x = (i.wrapping_mul(37) % 100) as f64;
                let y = (i.wrapping_mul(59) % 100) as f64;
                obj(i, x, y, &[(i % 50) as u32])
            })
            .collect();
        let trainings = || TRAININGS.with(std::cell::Cell::get);

        let before = trainings();
        let mut bulk = SpnEstimator::new(&cfg);
        bulk.insert_slices(&mut objs.chunks(1_024));
        assert_eq!(bulk.rebuilds(), 12);
        assert_eq!(trainings() - before, 1, "k-means runs in one bulk build");

        let before = trainings();
        let mut singles = SpnEstimator::new(&cfg);
        for o in &objs {
            singles.insert(o);
        }
        assert_eq!(singles.rebuilds(), 12);
        assert_eq!(trainings() - before, 12);

        assert_eq!(bulk.buffer.oids(), singles.buffer.oids());
        assert_eq!(bulk.rng.state(), singles.rng.state());
        assert_eq!(bulk.seen, singles.seen);
        assert_eq!(bulk.inserts_since_rebuild, singles.inserts_since_rebuild);
        for q in [
            RcDvq::spatial(Rect::new(10.0, 10.0, 40.0, 40.0)),
            RcDvq::keyword(vec![KeywordId(7)]),
            RcDvq::hybrid(Rect::new(20.0, 0.0, 90.0, 70.0), vec![KeywordId(13)]),
        ] {
            assert_eq!(bulk.estimate(&q).to_bits(), singles.estimate(&q).to_bits());
        }
        #[cfg(feature = "debug-invariants")]
        bulk.audit().expect("bulk-built spn audit");
    }

    #[test]
    fn buffer_eviction_consistency() {
        let mut s = SpnEstimator::new(&EstimatorConfig {
            reservoir_capacity: 400, // buffer 100
            ..config()
        });
        let mut live = Vec::new();
        for i in 0..2_000u64 {
            let o = obj(i, (i % 100) as f64, 5.0, &[]);
            s.insert(&o);
            live.push(o);
            if live.len() > 150 {
                s.remove(&live.remove(0));
            }
        }
        for (slot, oid) in s.buffer.oids().iter().enumerate() {
            assert_eq!(s.buffer.slot_of(*oid), Some(slot as u32));
        }
        assert_eq!(s.population(), 150);
    }
}
