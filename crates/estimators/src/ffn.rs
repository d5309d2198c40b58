//! Workload-driven feed-forward network estimator (the paper's `FFN`).
//!
//! The FFN never looks at raw stream objects: it trains on `(query
//! features, actual selectivity)` pairs harvested from the system logs —
//! the classic workload-driven learned estimator the paper uses as a
//! baseline. Query features are geometry and keyword-shape only; targets
//! are log-compressed selectivities.
//!
//! Matching the paper's setup (§VI-A), the network uses unipolar sigmoid
//! hidden units, learning rate 0.3, and momentum 0.2, trained online with
//! a small replay buffer. Its weakness — which the paper's experiments
//! surface and LATEST exploits — is that a fixed feature→selectivity
//! mapping goes stale the moment the stream distribution or the workload
//! mix shifts.

use crate::nn::Mlp;
use crate::traits::{EstimatorConfig, EstimatorKind, SelectivityEstimator};
use geostream::{
    GeoTextObject, Persist, PersistError, PersistReader, PersistWriter, RcDvq, Rect, StreamRng,
};

/// Input feature width.
const FEATURES: usize = 8;
/// Hidden layer width (two hidden layers; the paper's WEKA network
/// explores "multiple variations of hidden layers", so inference is far
/// from free — this keeps its latency in realistic proportion to the
/// structure estimators).
const HIDDEN: usize = 64;
/// Replay buffer capacity.
const REPLAY_CAPACITY: usize = 512;
/// Replay samples drawn per observed query.
const REPLAY_STEPS: usize = 4;
/// Log compression scale: selectivities are mapped through
/// `ln(1+s) / LOG_SCALE`, comfortably covering millions of matches.
const LOG_SCALE: f64 = 16.0;

/// A feed-forward selectivity regressor over query features.
pub struct FfnEstimator {
    net: Mlp,
    domain: Rect,
    population: u64,
    replay: Vec<([f64; FEATURES], f64)>,
    replay_next: usize,
    trained: u64,
    /// Feedback records consumed before the network freezes: the paper's
    /// FFN is batch-trained ("until the generalization gap stops
    /// shrinking") and then serves as-is — it cannot keep adapting to the
    /// stream, which is precisely the weakness LATEST exploits (§V-B).
    train_budget: u64,
    rng: StreamRng,
}

impl FfnEstimator {
    /// Builds an untrained FFN per `config`.
    pub fn new(config: &EstimatorConfig) -> Self {
        FfnEstimator {
            net: Mlp::new(
                &[FEATURES, HIDDEN, HIDDEN, 1],
                0.3,
                0.2,
                config.seed ^ 0xff17,
            ),
            domain: config.domain,
            population: 0,
            replay: Vec::with_capacity(REPLAY_CAPACITY),
            replay_next: 0,
            trained: 0,
            train_budget: config.ffn_train_budget,
            rng: StreamRng::seed_from_u64(config.seed ^ 0xf0f0),
        }
    }

    /// Number of training records consumed so far.
    pub fn trained_records(&self) -> u64 {
        self.trained
    }

    /// Extracts the normalized feature vector of `query`.
    fn features(&self, query: &RcDvq) -> [f64; FEATURES] {
        let mut f = [0.0; FEATURES];
        if let Some(r) = query.range() {
            let c = r.center();
            f[0] = 1.0; // has spatial predicate
            f[1] = ((c.x - self.domain.min_x) / self.domain.width()).clamp(0.0, 1.0);
            f[2] = ((c.y - self.domain.min_y) / self.domain.height()).clamp(0.0, 1.0);
            // Area fraction, log-compressed so small ranges stay resolvable.
            let frac = (r.area() / self.domain.area()).clamp(1e-12, 1.0);
            f[3] = (frac.ln() / -28.0).clamp(0.0, 1.0); // ln(1e-12) ≈ −27.6
        }
        let kws = query.keywords();
        if !kws.is_empty() {
            f[4] = 1.0; // has keyword predicate
            f[5] = (kws.len() as f64 / 5.0).min(1.0);
            // Keyword identity proxies: Zipf vocabularies are rank-ordered,
            // so low ids ≈ frequent terms. Log-compress ranks.
            let min_id = kws[0].0 as f64;
            let mean_id = kws.iter().map(|k| k.0 as f64).sum::<f64>() / kws.len() as f64;
            f[6] = ((min_id + 1.0).ln() / 12.0).min(1.0); // ln(160k) ≈ 12
            f[7] = ((mean_id + 1.0).ln() / 12.0).min(1.0);
        }
        f
    }

    fn compress(selectivity: f64) -> f64 {
        (1.0 + selectivity.max(0.0)).ln() / LOG_SCALE
    }

    fn expand(y: f64) -> f64 {
        ((y * LOG_SCALE).exp() - 1.0).max(0.0)
    }
}

/// Section tag for the FFN estimator's snapshot frame.
const FFN_TAG: u32 = 0x4512_f0f0;

impl SelectivityEstimator for FfnEstimator {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::Ffn
    }

    // Workload-driven: stream objects only matter for the population cap.
    fn insert(&mut self, _obj: &GeoTextObject) {
        self.population += 1;
    }

    fn remove(&mut self, _obj: &GeoTextObject) {
        self.population = self.population.saturating_sub(1);
    }

    fn estimate(&self, query: &RcDvq) -> f64 {
        if self.trained == 0 {
            return 0.0;
        }
        let features = self.features(query);
        // Zero-allocation inference: `estimate` sits on the query hot path.
        let y = self.net.infer_one(&features);
        Self::expand(y).min(self.population as f64)
    }

    fn observe_query(&mut self, query: &RcDvq, actual: u64) {
        if self.trained >= self.train_budget {
            // Batch-trained model: serves frozen weights from here on.
            return;
        }
        let features = self.features(query);
        let target = Self::compress(actual as f64);
        self.net.train(&features, &[target]);
        self.trained += 1;
        // Stash in the replay ring and rehearse a few past records so the
        // network does not catastrophically forget rarer query shapes.
        if self.replay.len() < REPLAY_CAPACITY {
            self.replay.push((features, target));
        } else {
            self.replay[self.replay_next] = (features, target);
            self.replay_next = (self.replay_next + 1) % REPLAY_CAPACITY;
        }
        for _ in 0..REPLAY_STEPS.min(self.replay.len()) {
            let idx = self.rng.gen_range_usize(0..self.replay.len());
            let (f, t) = self.replay[idx];
            self.net.train(&f, &[t]);
        }
    }

    fn memory_bytes(&self) -> usize {
        self.net.memory_bytes()
            + self.replay.capacity() * std::mem::size_of::<([f64; FEATURES], f64)>()
            + std::mem::size_of::<Self>()
    }

    /// The counters, the RNG, the network's parameters and the replay
    /// ring; the domain, the training budget and the network's widths are
    /// the configuration's.
    fn persist_state(&self, w: &mut PersistWriter) {
        w.section(FFN_TAG, |w| {
            w.put_u64(self.population);
            w.put_u64(self.trained);
            w.put_usize(self.replay_next);
            self.rng.persist(w);
            self.net.persist_state(w);
            w.put_usize(self.replay.len());
            for (features, target) in &self.replay {
                for f in features {
                    w.put_f64(*f);
                }
                w.put_f64(*target);
            }
        });
    }

    fn restore_state(&mut self, r: &mut PersistReader<'_>) -> Result<(), PersistError> {
        let section = r.begin_section(FFN_TAG, "FfnEstimator")?;
        self.population = r.take_u64("FfnEstimator.population")?;
        self.trained = r.take_u64("FfnEstimator.trained")?;
        self.replay_next = r.take_usize("FfnEstimator.replay_next")?;
        self.rng = StreamRng::restore(r)?;
        self.net.restore_state(r)?;
        let replay_len = r.take_len("FfnEstimator.replay.len")?;
        if replay_len > REPLAY_CAPACITY || self.replay_next >= REPLAY_CAPACITY {
            return Err(PersistError::Corrupt {
                context: "FfnEstimator.replay",
                detail: format!(
                    "{replay_len} records, cursor {} over capacity {REPLAY_CAPACITY}",
                    self.replay_next
                ),
            });
        }
        for _ in 0..replay_len {
            let mut features = [0.0; FEATURES];
            for f in &mut features {
                *f = r.take_f64("FfnEstimator.replay.feature")?;
            }
            let target = r.take_f64("FfnEstimator.replay.target")?;
            self.replay.push((features, target));
        }
        r.finish_section(section, "FfnEstimator")
    }

    fn population(&self) -> u64 {
        self.population
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::KeywordId;

    fn config() -> EstimatorConfig {
        EstimatorConfig {
            domain: Rect::new(0.0, 0.0, 100.0, 100.0),
            ffn_train_budget: u64::MAX, // capability tests train freely
            ..EstimatorConfig::default()
        }
    }

    fn range_query(cx: f64, cy: f64, half: f64) -> RcDvq {
        RcDvq::spatial(Rect::new(cx - half, cy - half, cx + half, cy + half))
    }

    #[test]
    fn untrained_estimates_zero() {
        let f = FfnEstimator::new(&config());
        assert_eq!(f.estimate(&range_query(50.0, 50.0, 5.0)), 0.0);
    }

    #[test]
    fn learns_area_proportional_selectivity() {
        let mut f = FfnEstimator::new(&config());
        // Population of 100k; selectivity proportional to area fraction.
        for _ in 0..100_000 {
            f.insert(&GeoTextObject::new(
                geostream::ObjectId(0),
                geostream::Point::new(0.0, 0.0),
                vec![],
                geostream::Timestamp::ZERO,
            ));
        }
        let mut s = 5u64;
        for _ in 0..10_000 {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let half = 1.0 + ((s >> 11) as f64 / (1u64 << 53) as f64) * 24.0;
            let q = range_query(50.0, 50.0, half);
            let actual = (q.range().unwrap().area() / 10_000.0 * 100_000.0) as u64;
            f.observe_query(&q, actual);
        }
        // Large ranges should now predict much higher than small ranges.
        let small = f.estimate(&range_query(50.0, 50.0, 2.0));
        let large = f.estimate(&range_query(50.0, 50.0, 20.0));
        // The two-hidden-layer sigmoid net is a coarse regressor; demand
        // clear monotone size sensitivity rather than a calibrated fit.
        assert!(
            large > small * 1.8,
            "no size sensitivity: small={small} large={large}"
        );
        // And the large estimate should be in the right order of magnitude.
        let truth = (40.0 * 40.0) / 10_000.0 * 100_000.0;
        assert!(
            large > truth * 0.2 && large < truth * 5.0,
            "large estimate off: {large} vs {truth}"
        );
    }

    #[test]
    fn keyword_count_feature_matters() {
        let mut f = FfnEstimator::new(&config());
        for _ in 0..10_000 {
            f.insert(&GeoTextObject::new(
                geostream::ObjectId(0),
                geostream::Point::new(0.0, 0.0),
                vec![],
                geostream::Timestamp::ZERO,
            ));
        }
        // 1 keyword → 100 matches; 3 keywords → 3000 matches.
        for i in 0..3_000u32 {
            let one = RcDvq::keyword(vec![KeywordId(i % 50)]);
            f.observe_query(&one, 100);
            let three = RcDvq::keyword(vec![
                KeywordId(i % 50),
                KeywordId(50 + i % 50),
                KeywordId(100 + i % 50),
            ]);
            f.observe_query(&three, 3_000);
        }
        let e1 = f.estimate(&RcDvq::keyword(vec![KeywordId(10)]));
        let e3 = f.estimate(&RcDvq::keyword(vec![
            KeywordId(10),
            KeywordId(60),
            KeywordId(110),
        ]));
        assert!(e3 > e1 * 2.0, "keyword count ignored: e1={e1} e3={e3}");
    }

    #[test]
    fn estimate_capped_by_population() {
        let mut f = FfnEstimator::new(&config());
        f.insert(&GeoTextObject::new(
            geostream::ObjectId(0),
            geostream::Point::new(0.0, 0.0),
            vec![],
            geostream::Timestamp::ZERO,
        ));
        // Train with absurdly high targets; cap still applies.
        let q = range_query(50.0, 50.0, 40.0);
        for _ in 0..200 {
            f.observe_query(&q, 1_000_000);
        }
        assert!(f.estimate(&q) <= 1.0);
    }

    #[test]
    fn freezes_after_training_budget() {
        let mut f = FfnEstimator::new(&EstimatorConfig {
            domain: Rect::new(0.0, 0.0, 100.0, 100.0),
            ffn_train_budget: 10,
            ..EstimatorConfig::default()
        });
        let q = range_query(50.0, 50.0, 10.0);
        for _ in 0..50 {
            f.observe_query(&q, 500);
        }
        assert_eq!(f.trained_records(), 10, "budget must cap training");
    }

    #[test]
    fn persist_round_trip_is_bit_identical_under_continued_training() {
        let mut orig = FfnEstimator::new(&config());
        for _ in 0..5_000 {
            orig.insert(&GeoTextObject::new(
                geostream::ObjectId(0),
                geostream::Point::new(0.0, 0.0),
                vec![],
                geostream::Timestamp::ZERO,
            ));
        }
        let mut s = 17u64;
        let mut next_query = move || {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let half = 1.0 + ((s >> 11) as f64 / (1u64 << 53) as f64) * 20.0;
            range_query(50.0, 50.0, half)
        };
        // Overfill the replay ring so the cursor has wrapped.
        for _ in 0..700 {
            let q = next_query();
            let actual = (q.range().unwrap().area()) as u64;
            orig.observe_query(&q, actual);
        }
        let mut back = crate::traits::reload(&orig, FfnEstimator::new(&config()));
        assert_eq!(back.trained_records(), orig.trained_records());
        let probe = range_query(50.0, 50.0, 9.0);
        assert_eq!(
            orig.estimate(&probe).to_bits(),
            back.estimate(&probe).to_bits()
        );
        // The RNG and replay ring resumed exactly: continued training with
        // its replay rehearsal draws stays bit-identical.
        for _ in 0..300 {
            let q = next_query();
            let actual = (q.range().unwrap().area()) as u64;
            orig.observe_query(&q, actual);
            back.observe_query(&q, actual);
        }
        assert_eq!(
            orig.estimate(&probe).to_bits(),
            back.estimate(&probe).to_bits()
        );
    }

    #[test]
    fn population_tracking() {
        let mut f = FfnEstimator::new(&config());
        let o = GeoTextObject::new(
            geostream::ObjectId(1),
            geostream::Point::new(0.0, 0.0),
            vec![],
            geostream::Timestamp::ZERO,
        );
        f.insert(&o);
        f.insert(&o);
        f.remove(&o);
        assert_eq!(f.population(), 1);
    }
}
