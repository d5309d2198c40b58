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
//! The training buffer is a scan-read [`Reservoir`] — RSL's sampler on
//! SPN's own capacity and seed — whose RNG also draws each rebuild's
//! k-means seeds. Rebuilds stream its store's coordinate columns, and
//! before the first rebuild the reservoir answers estimates itself.

use crate::reservoir::{DrawTape, Reservoir};
use crate::store::SampleStore;
use crate::traits::{EstimatorConfig, EstimatorKind, SelectivityEstimator};
use geostream::{
    GeoTextObject, KeywordId, PersistError, PersistReader, PersistWriter, Point, RcDvq, Rect,
    StreamRng,
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
    /// Sample of the live window the model is (re)built from.
    buffer: Reservoir,
    /// Built mixture model, if a rebuild has happened.
    components: Vec<Component>,
    clusters: usize,
    bins: usize,
    rebuild_every: u64,
    inserts_since_rebuild: u64,
    /// Total rebuilds performed (diagnostics; the paper's "update cost").
    rebuilds: u64,
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
            buffer: Reservoir::sampler(buffer_capacity, config.seed ^ 0x59a9),
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
        self.buffer.store()
    }

    /// The sampling RNG (read access for tests: equal states draw alike).
    pub fn rng(&self) -> &StreamRng {
        self.buffer.rng()
    }

    /// Arrivals the sampler has seen.
    #[cfg(test)]
    pub(crate) fn seen(&self) -> u64 {
        self.buffer.seen()
    }

    /// What one `insert` per arrival makes of this fresh SPN over `slices`,
    /// with the reservoir's draws and every rebuild's seeds read off the
    /// tape in `slot`. Only the last rebuild's model can ever be read, so
    /// k-means runs there alone. `false`, building nothing, past the
    /// arrivals a tape holds.
    pub(crate) fn build_taped(
        &mut self,
        slot: &mut Option<DrawTape>,
        slices: &[&[GeoTextObject]],
    ) -> bool {
        let every = self.rebuild_every.max(1);
        let rebuild = Some((every, self.clusters));
        let built = self
            .buffer
            .build_taped_with(slot, slices, rebuild, |sample, seeds| {
                self.components = train(sample, seeds, self.domain, self.bins);
            });
        let n = self.buffer.population();
        (self.rebuilds, self.inserts_since_rebuild) = (n / every, n % every);
        built
    }

    /// Rebuilds the mixture from the current buffer: draws the k-means seed
    /// slots, which is all the randomness a rebuild consumes, then trains.
    fn rebuild(&mut self) {
        self.rebuilds += 1;
        self.inserts_since_rebuild = 0;
        let seeds = self.buffer.draw_slots(self.clusters);
        self.components = train(self.buffer.store(), &seeds, self.domain, self.bins);
    }
}

/// Trains the mixture on `sample` from the given seed slots: k-means over
/// locations, then per-cluster leaf distributions over `domain` with
/// `bins` bins an axis.
fn train(sample: &SampleStore, seeds: &[usize], domain: Rect, bins: usize) -> Vec<Component> {
    #[cfg(test)]
    TRAININGS.with(|t| t.set(t.get() + 1));
    let mut components = Vec::new();
    if seeds.is_empty() {
        return components;
    }
    let (xs, ys) = (sample.xs(), sample.ys());
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
            domain.min_x,
            domain.max_x,
            bins,
            members.iter().map(|&i| xs[i as usize]),
        );
        let y = AxisHistogram::build(
            domain.min_y,
            domain.max_y,
            bins,
            members.iter().map(|&i| ys[i as usize]),
        );
        let mut kw_probs = vec![0.0; KW_BUCKETS];
        for &i in &members {
            let mut hit = [false; KW_BUCKETS];
            for &kw in sample.keywords(i) {
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
        components.push(Component {
            weight: m,
            x,
            y,
            kw_probs,
        });
    }
    components
}

impl AxisHistogram {
    fn persist_state(&self, w: &mut PersistWriter) {
        for &count in &self.bins {
            w.put_f64(count);
        }
        w.put_f64(self.total);
    }

    /// Reads the bin counts and total into this (empty) histogram, whose
    /// range and bin count are the writer's.
    fn restore_state(&mut self, r: &mut PersistReader<'_>) -> Result<(), PersistError> {
        for count in &mut self.bins {
            *count = r.take_f64("AxisHistogram.bins")?;
        }
        self.total = r.take_f64("AxisHistogram.total")?;
        Ok(())
    }
}

/// Section tag for the SPN estimator's snapshot frame.
const SPN_TAG: u32 = 0x4512_59a9;

impl SelectivityEstimator for SpnEstimator {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::Spn
    }

    fn insert(&mut self, obj: &GeoTextObject) {
        self.buffer.insert(obj);
        self.inserts_since_rebuild += 1;
        if self.inserts_since_rebuild >= self.rebuild_every {
            self.rebuild();
        }
    }

    fn remove(&mut self, obj: &GeoTextObject) {
        self.buffer.remove(obj);
    }

    fn estimate(&self, query: &RcDvq) -> f64 {
        if self.components.is_empty() {
            // No model yet: the sample answers, as RSL would.
            return self.buffer.estimate(query);
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
        p.clamp(0.0, 1.0) * self.buffer.population() as f64
    }

    fn memory_bytes(&self) -> usize {
        self.buffer.store().memory_bytes()
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

    /// The counters, the RNG, the mixture's components and the buffered
    /// sample in slot order. The domain, buffer capacity, cluster and bin
    /// counts and rebuild period are the configuration's; so are each
    /// leaf histogram's range and the keyword-bucket count.
    fn persist_state(&self, w: &mut PersistWriter) {
        w.section(SPN_TAG, |w| {
            w.put_u64(self.inserts_since_rebuild);
            w.put_u64(self.rebuilds);
            self.buffer.persist_counters(w);
            w.put_usize(self.components.len());
            for c in &self.components {
                w.put_f64(c.weight);
                c.x.persist_state(w);
                c.y.persist_state(w);
                for &p in &c.kw_probs {
                    w.put_f64(p);
                }
            }
            self.store().persist(w);
        });
    }

    fn restore_state(&mut self, r: &mut PersistReader<'_>) -> Result<(), PersistError> {
        let section = r.begin_section(SPN_TAG, "SpnEstimator")?;
        self.inserts_since_rebuild = r.take_u64("SpnEstimator.inserts_since_rebuild")?;
        self.rebuilds = r.take_u64("SpnEstimator.rebuilds")?;
        self.buffer.restore_counters(r)?;
        let components = r.take_len("SpnEstimator.components")?;
        if components > self.clusters {
            return Err(PersistError::Corrupt {
                context: "SpnEstimator.components",
                detail: format!("{components} components over {} clusters", self.clusters),
            });
        }
        let d = self.domain;
        for _ in 0..components {
            let mut c = Component {
                weight: r.take_f64("Component.weight")?,
                x: AxisHistogram::build(d.min_x, d.max_x, self.bins, std::iter::empty()),
                y: AxisHistogram::build(d.min_y, d.max_y, self.bins, std::iter::empty()),
                kw_probs: vec![0.0; KW_BUCKETS],
            };
            c.x.restore_state(r)?;
            c.y.restore_state(r)?;
            for p in &mut c.kw_probs {
                *p = r.take_f64("Component.kw_probs")?;
            }
            self.components.push(c);
        }
        self.buffer.restore_sample(r)?;
        r.finish_section(section, "SpnEstimator")
    }

    fn population(&self) -> u64 {
        self.buffer.population()
    }

    /// Audits the training buffer ([`Reservoir`]'s audit).
    #[cfg(feature = "debug-invariants")]
    fn audit(&self) -> Result<(), geostream::AuditError> {
        self.buffer.audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::{ObjectId, Persist, Timestamp};

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

        let mut back = crate::traits::reload(&orig, SpnEstimator::new(&config()));
        let restored_at = orig.rebuilds();
        assert_eq!(restored_at, 2, "5 000 inserts cross two boundaries");
        assert_eq!(back.rebuilds(), restored_at);
        assert_eq!(back.seen(), orig.seen());
        assert_eq!(back.store().oids(), orig.store().oids());

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
        assert_eq!(orig.rebuilds(), 4, "the churn crossed two more boundaries");
        assert_eq!(back.rebuilds(), orig.rebuilds());
        assert_eq!(back.store().oids(), orig.store().oids());
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

    /// SPN's section carries its buffer's counters and sample, so restore
    /// refuses a crafted one whose 40-object sample outgrows the arrivals
    /// seen, typed, and takes one whose population fell below the sample,
    /// as RSL's and RSH's do.
    #[test]
    fn restore_refuses_a_buffer_larger_than_its_counters() {
        let mut written = SpnEstimator::new(&config());
        for i in 0..40 {
            written.insert(&obj(i, i as f64, 5.0, &[1]));
        }
        let section = |seen: u64, population: u64| {
            let mut w = PersistWriter::new();
            w.section(SPN_TAG, |w| {
                w.put_u64(40);
                w.put_u64(0);
                w.put_u64(seen);
                w.put_u64(population);
                written.rng().persist(w);
                w.put_usize(0);
                written.store().persist(w);
            });
            w.into_bytes()
        };
        let restore = |bytes: &[u8]| {
            SpnEstimator::new(&config()).restore_state(&mut PersistReader::new(bytes))
        };
        assert!(section(40, 40) == crate::fill_oracle::persisted(&written));
        for (seen, population) in [(40, 40), (40, 39), (40, 0)] {
            restore(&section(seen, population))
                .unwrap_or_else(|e| panic!("{seen} seen, population {population}: {e}"));
        }
        for (seen, population) in [(39, 40), (39, 39), (0, 0)] {
            let err = restore(&section(seen, population));
            assert!(
                matches!(err, Err(PersistError::Corrupt { .. })),
                "40 sampled, {seen} seen, population {population}: {err:?}"
            );
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
        let cuts: Vec<&[GeoTextObject]> = objs.chunks(1_024).collect();
        assert!(bulk.build_taped(&mut None, &cuts));
        assert_eq!(bulk.rebuilds(), 12);
        assert_eq!(trainings() - before, 1, "k-means runs in one bulk build");

        let before = trainings();
        let mut singles = SpnEstimator::new(&cfg);
        for o in &objs {
            singles.insert(o);
        }
        assert_eq!(singles.rebuilds(), 12);
        assert_eq!(trainings() - before, 12);

        assert_eq!(bulk.store().oids(), singles.store().oids());
        assert_eq!(bulk.rng().state(), singles.rng().state());
        assert_eq!(bulk.seen(), singles.seen());
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
        for (slot, oid) in s.store().oids().iter().enumerate() {
            assert_eq!(s.store().slot_of(*oid), Some(slot as u32));
        }
        assert_eq!(s.population(), 150);
    }
}
