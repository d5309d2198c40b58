//! Workload features and reward scoring (§V-C).
//!
//! The Hoeffding tree learns over per-query workload features: the query
//! type, keyword-set size, spatial extent, and the estimator currently in
//! use. The *label* is an [`EstimatorKind`]. Estimator performance —
//! accuracy and latency — is folded into the **reward** that decides the
//! label, min-max normalized and weighted by the paper's `α` parameter.

use crate::persist::{persist_query_type, restore_query_type};
use estimators::EstimatorKind;
use geostream::{Persist, PersistError, PersistReader, PersistWriter, QueryType, RcDvq, Rect};
use hoeffding::{AttributeSpec, Instance, Schema, Value};

/// Compact, ML-ready description of one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryProfile {
    /// Which predicates the query carries.
    pub query_type: QueryType,
    /// Number of query keywords (0 for pure spatial).
    pub keyword_count: usize,
    /// Query area as a fraction of the domain (0 for pure keyword).
    pub area_fraction: f64,
}

impl QueryProfile {
    /// Extracts the profile of `query` over `domain`.
    pub fn of(query: &RcDvq, domain: &Rect) -> Self {
        let area_fraction = query
            .range()
            .map(|r| (r.area() / domain.area()).clamp(0.0, 1.0))
            .unwrap_or(0.0);
        QueryProfile {
            query_type: query.query_type(),
            keyword_count: query.keywords().len(),
            area_fraction,
        }
    }

    /// Builds the Hoeffding-tree instance for this profile given the
    /// estimator currently employed.
    pub fn instance(&self, active: EstimatorKind) -> Instance {
        vec![
            Value::Cat(self.query_type.index()),
            Value::Num(self.keyword_count as f64),
            // Log-compress the area so city-block vs. state-wide ranges
            // remain distinguishable near zero.
            Value::Num((self.area_fraction.max(1e-12)).ln()),
            Value::Cat(active.index()),
        ]
    }
}

/// The attribute schema shared by LATEST's learning model: query type,
/// keyword count, log area, active estimator → class = recommended
/// estimator.
pub fn model_schema() -> Schema {
    Schema::new(
        vec![
            AttributeSpec::categorical("query_type", QueryType::COUNT),
            AttributeSpec::numeric("keyword_count"),
            AttributeSpec::numeric("log_area_fraction"),
            AttributeSpec::categorical("active_estimator", EstimatorKind::ALL.len() as u32),
        ],
        EstimatorKind::ALL.len() as u32,
    )
}

/// Min-max normalization of latencies plus the α-weighted reward (§V-C).
///
/// Accuracy is already in `[0, 1]`. Latency is min-max normalized **in log
/// space** against the fastest/slowest latency observed so far, then the
/// reward blends them: `reward = (1 − α)·accuracy + α·(1 − latency_norm)`,
/// so `α = 0` scores by accuracy only and `α = 1` by latency only.
///
/// Log-space normalization is a deliberate deviation from a plain linear
/// min-max: the paper's estimators span 19–111 ms (a 6× linear range), but
/// at laptop scale ours span four orders of magnitude (µs histogram probes
/// to sub-ms tree walks). Linear normalization would compress every
/// non-slowest estimator to a latency score of ≈1 and erase the signal the
/// paper's α experiments rely on; log-space restores relative spacing
/// comparable to the paper's linear one.
#[derive(Debug, Clone)]
pub struct RewardScaler {
    alpha: f64,
    /// Min/max of `ln(latency_ms + ε)`.
    lat_min: f64,
    lat_max: f64,
}

/// Offset keeping `ln` finite for ~zero latencies (1 ns in ms).
const LOG_EPS: f64 = 1e-6;

impl RewardScaler {
    /// Creates a scaler for the given `α ∈ [0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        RewardScaler {
            alpha,
            lat_min: f64::INFINITY,
            lat_max: f64::NEG_INFINITY,
        }
    }

    /// The configured α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Records an observed latency (milliseconds) to keep the min-max
    /// range current.
    pub fn observe_latency(&mut self, latency_ms: f64) {
        if latency_ms.is_finite() && latency_ms >= 0.0 {
            let l = (latency_ms + LOG_EPS).ln();
            self.lat_min = self.lat_min.min(l);
            self.lat_max = self.lat_max.max(l);
        }
    }

    /// Normalizes a latency into `[0, 1]` against the observed log-space
    /// range (0 = fastest seen). Before any observation, returns 0.5.
    pub fn normalize_latency(&self, latency_ms: f64) -> f64 {
        if !self.lat_min.is_finite() || self.lat_max <= self.lat_min {
            return 0.5;
        }
        let l = (latency_ms.max(0.0) + LOG_EPS).ln();
        ((l - self.lat_min) / (self.lat_max - self.lat_min)).clamp(0.0, 1.0)
    }

    /// The α-weighted reward of an observation.
    pub fn reward(&self, accuracy: f64, latency_ms: f64) -> f64 {
        let lat_score = 1.0 - self.normalize_latency(latency_ms);
        (1.0 - self.alpha) * accuracy.clamp(0.0, 1.0) + self.alpha * lat_score
    }
}

impl Persist for QueryProfile {
    fn persist(&self, w: &mut PersistWriter) {
        persist_query_type(w, self.query_type);
        w.put_usize(self.keyword_count);
        w.put_f64(self.area_fraction);
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let query_type = restore_query_type(r)?;
        let keyword_count = r.take_usize("QueryProfile.keyword_count")?;
        let area_fraction = r.take_f64("QueryProfile.area_fraction")?;
        if !area_fraction.is_finite() {
            return Err(PersistError::Corrupt {
                context: "QueryProfile.area_fraction",
                detail: format!("non-finite area fraction {area_fraction}"),
            });
        }
        Ok(QueryProfile {
            query_type,
            keyword_count,
            area_fraction,
        })
    }
}

impl RewardScaler {
    /// Writes the observed latency range; α is the configuration's.
    pub fn persist_state(&self, w: &mut PersistWriter) {
        // lat_min/lat_max legitimately start at ±∞ before the first
        // observation; ship the raw bits rather than a sentinel.
        w.put_f64(self.lat_min);
        w.put_f64(self.lat_max);
    }

    /// Reads [`RewardScaler::persist_state`]'s range into this scaler.
    pub fn restore_state(&mut self, r: &mut PersistReader<'_>) -> Result<(), PersistError> {
        let lat_min = r.take_f64("RewardScaler.lat_min")?;
        let lat_max = r.take_f64("RewardScaler.lat_max")?;
        if lat_min.is_nan() || lat_max.is_nan() {
            return Err(PersistError::Corrupt {
                context: "RewardScaler",
                detail: format!("lat_min {lat_min}, lat_max {lat_max}"),
            });
        }
        (self.lat_min, self.lat_max) = (lat_min, lat_max);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::KeywordId;

    const DOMAIN: Rect = Rect {
        min_x: 0.0,
        min_y: 0.0,
        max_x: 100.0,
        max_y: 100.0,
    };

    #[test]
    fn profile_of_each_query_type() {
        let s = QueryProfile::of(&RcDvq::spatial(Rect::new(0.0, 0.0, 10.0, 10.0)), &DOMAIN);
        assert_eq!(s.query_type, QueryType::Spatial);
        assert_eq!(s.keyword_count, 0);
        assert!((s.area_fraction - 0.01).abs() < 1e-12);

        let k = QueryProfile::of(&RcDvq::keyword(vec![KeywordId(1), KeywordId(2)]), &DOMAIN);
        assert_eq!(k.query_type, QueryType::Keyword);
        assert_eq!(k.keyword_count, 2);
        assert_eq!(k.area_fraction, 0.0);

        let h = QueryProfile::of(
            &RcDvq::hybrid(Rect::new(0.0, 0.0, 50.0, 50.0), vec![KeywordId(1)]),
            &DOMAIN,
        );
        assert_eq!(h.query_type, QueryType::Hybrid);
        assert!((h.area_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn instances_validate_against_schema() {
        let schema = model_schema();
        for q in [
            RcDvq::spatial(Rect::new(0.0, 0.0, 1.0, 1.0)),
            RcDvq::keyword(vec![KeywordId(3)]),
            RcDvq::hybrid(Rect::new(0.0, 0.0, 1.0, 1.0), vec![KeywordId(3)]),
        ] {
            let profile = QueryProfile::of(&q, &DOMAIN);
            for kind in EstimatorKind::ALL {
                let inst = profile.instance(kind);
                assert!(
                    schema.validate(&inst).is_ok(),
                    "invalid instance for {kind}"
                );
            }
        }
    }

    #[test]
    fn reward_extremes_match_alpha_semantics() {
        let mut acc_only = RewardScaler::new(0.0);
        let mut lat_only = RewardScaler::new(1.0);
        for s in [&mut acc_only, &mut lat_only] {
            s.observe_latency(1.0);
            s.observe_latency(11.0);
        }
        // α = 0: only accuracy matters.
        assert!(acc_only.reward(0.9, 11.0) > acc_only.reward(0.5, 1.0));
        // α = 1: only latency matters.
        assert!(lat_only.reward(0.1, 1.0) > lat_only.reward(1.0, 11.0));
    }

    #[test]
    fn balanced_alpha_blends() {
        let mut s = RewardScaler::new(0.5);
        s.observe_latency(0.0);
        s.observe_latency(10.0);
        // acc 1.0, fastest → reward 1.0; acc 0, slowest → reward 0.
        assert!((s.reward(1.0, 0.0) - 1.0).abs() < 1e-12);
        assert!(s.reward(0.0, 10.0).abs() < 1e-12);
        assert!((s.reward(1.0, 10.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn latency_normalization_clamps() {
        let mut s = RewardScaler::new(0.5);
        assert_eq!(s.normalize_latency(5.0), 0.5); // no observations yet
        s.observe_latency(2.0);
        s.observe_latency(4.0);
        assert_eq!(s.normalize_latency(1.0), 0.0);
        assert_eq!(s.normalize_latency(9.0), 1.0);
        // Log-space midpoint of [2, 4] is the geometric mean 2√2.
        let mid = 2.0 * std::f64::consts::SQRT_2;
        assert!((s.normalize_latency(mid) - 0.5).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn rejects_bad_alpha() {
        let _ = RewardScaler::new(1.5);
    }
}
