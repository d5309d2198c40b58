//! Sufficient statistics kept at tree leaves.
//!
//! Each leaf maintains, per attribute, an *observer* summarizing the joint
//! distribution of attribute values and class labels seen at that leaf:
//!
//! * categorical attributes keep a `value × class` count table;
//! * numeric attributes keep one [`GaussianEstimator`] per class (mean /
//!   variance via Welford's algorithm) plus the observed value range.
//!
//! Observers can score candidate splits by information gain without ever
//! revisiting past instances — the property that makes VFDT single-pass.

use geostream::{Persist, PersistError, PersistReader, PersistWriter};

/// Per-class instance counts.
#[derive(Debug, Clone, Default)]
pub struct ClassCounts {
    counts: Vec<f64>,
}

impl ClassCounts {
    /// Creates counts for `num_classes` classes, all zero.
    pub fn new(num_classes: u32) -> Self {
        ClassCounts {
            counts: vec![0.0; num_classes as usize],
        }
    }

    /// Adds `weight` observations of `class`.
    #[inline]
    pub fn add(&mut self, class: u32, weight: f64) {
        self.counts[class as usize] += weight;
    }

    /// Total observation weight.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Weight of `class`.
    pub fn get(&self, class: u32) -> f64 {
        self.counts[class as usize]
    }

    /// The class with the highest weight (ties break to the lowest index),
    /// or `None` if nothing was observed.
    pub fn majority(&self) -> Option<u32> {
        if self.total() <= 0.0 {
            return None;
        }
        self.counts
            .iter()
            .enumerate()
            .max_by(|(ai, a), (bi, b)| {
                a.partial_cmp(b)
                    // LINT-ALLOW(no-panic): class counts are non-negative integers cast to f64, always finite
                    .expect("counts are finite")
                    // Prefer the *lower* index on ties: max_by keeps the last
                    // maximal element, so order comparisons accordingly.
                    .then(bi.cmp(ai))
            })
            .map(|(i, _)| i as u32)
    }

    /// Shannon entropy of the class distribution, in bits.
    pub fn entropy(&self) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        let mut h = 0.0;
        for &c in &self.counts {
            if c > 0.0 {
                let p = c / total;
                h -= p * p.log2();
            }
        }
        h
    }

    /// Number of classes with nonzero weight.
    pub fn distinct(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0.0).count()
    }

    /// Iterates over the raw per-class weights.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.counts.iter().copied()
    }

    /// Number of classes (including zero-weight ones).
    pub fn num_classes(&self) -> usize {
        self.counts.len()
    }
}

impl Persist for ClassCounts {
    fn persist(&self, w: &mut PersistWriter) {
        self.counts.persist(w);
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let counts = Vec::<f64>::restore(r)?;
        if counts.iter().any(|c| !c.is_finite() || *c < 0.0) {
            return Err(PersistError::Corrupt {
                context: "ClassCounts.counts",
                detail: "negative or non-finite class weight".into(),
            });
        }
        Ok(ClassCounts { counts })
    }
}

/// Weighted entropy of a partition: `Σ (n_i / n) · H(part_i)`.
pub fn partition_entropy(parts: &[ClassCounts]) -> f64 {
    let total: f64 = parts.iter().map(ClassCounts::total).sum();
    if total <= 0.0 {
        return 0.0;
    }
    parts.iter().map(|p| p.total() / total * p.entropy()).sum()
}

/// Incremental Gaussian (mean/variance) estimator using Welford's algorithm,
/// plus the min/max range of observed values.
#[derive(Debug, Clone)]
pub struct GaussianEstimator {
    weight: f64,
    mean: f64,
    /// Sum of squared deviations (Welford's `M2`).
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for GaussianEstimator {
    fn default() -> Self {
        GaussianEstimator {
            weight: 0.0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl GaussianEstimator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation of `value` with `weight`.
    pub fn add(&mut self, value: f64, weight: f64) {
        debug_assert!(value.is_finite() && weight > 0.0);
        self.weight += weight;
        let delta = value - self.mean;
        self.mean += delta * weight / self.weight;
        self.m2 += weight * delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total observation weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Sample mean (0 if nothing observed).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (0 until two observations).
    pub fn variance(&self) -> f64 {
        if self.weight <= 1.0 {
            0.0
        } else {
            (self.m2 / (self.weight - 1.0)).max(0.0)
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observed value, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.weight > 0.0).then_some(self.min)
    }

    /// Maximum observed value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.weight > 0.0).then_some(self.max)
    }

    /// Estimated probability mass of this Gaussian below `t` (its CDF),
    /// treating a degenerate (zero-variance) Gaussian as a point mass.
    pub fn cdf(&self, t: f64) -> f64 {
        if self.weight <= 0.0 {
            return 0.0;
        }
        let sd = self.std_dev();
        if sd <= f64::EPSILON {
            return if self.mean <= t { 1.0 } else { 0.0 };
        }
        normal_cdf((t - self.mean) / sd)
    }

    /// Estimated observation weight with values `<= t`.
    pub fn weight_below(&self, t: f64) -> f64 {
        self.weight * self.cdf(t)
    }
}

impl Persist for GaussianEstimator {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_f64(self.weight);
        w.put_f64(self.mean);
        w.put_f64(self.m2);
        w.put_f64(self.min);
        w.put_f64(self.max);
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let weight = r.take_f64("GaussianEstimator.weight")?;
        let mean = r.take_f64("GaussianEstimator.mean")?;
        let m2 = r.take_f64("GaussianEstimator.m2")?;
        let min = r.take_f64("GaussianEstimator.min")?;
        let max = r.take_f64("GaussianEstimator.max")?;
        // Welford state must be usable: finite accumulators (the min/max
        // range is ±∞ only for the empty estimator, which is legitimate).
        if !weight.is_finite() || weight < 0.0 || !mean.is_finite() || !m2.is_finite() {
            return Err(PersistError::Corrupt {
                context: "GaussianEstimator.welford",
                detail: format!("weight {weight}, mean {mean}, m2 {m2}"),
            });
        }
        Ok(GaussianEstimator {
            weight,
            mean,
            m2,
            min,
            max,
        })
    }
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (maximum absolute error ≈ 1.5e-7, plenty for split scoring).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counts_majority_and_entropy() {
        let mut c = ClassCounts::new(3);
        assert_eq!(c.majority(), None);
        assert_eq!(c.entropy(), 0.0);
        c.add(0, 1.0);
        c.add(1, 3.0);
        c.add(2, 0.0);
        assert_eq!(c.majority(), Some(1));
        assert_eq!(c.total(), 4.0);
        assert_eq!(c.distinct(), 2);
        // H(1/4, 3/4) ≈ 0.8113 bits.
        assert!((c.entropy() - 0.811_278).abs() < 1e-5);
    }

    #[test]
    fn majority_tie_breaks_low() {
        let mut c = ClassCounts::new(3);
        c.add(2, 2.0);
        c.add(0, 2.0);
        assert_eq!(c.majority(), Some(0));
    }

    #[test]
    fn entropy_uniform_is_log2() {
        let mut c = ClassCounts::new(4);
        for k in 0..4 {
            c.add(k, 5.0);
        }
        assert!((c.entropy() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn partition_entropy_weights_parts() {
        let mut pure = ClassCounts::new(2);
        pure.add(0, 10.0);
        let mut mixed = ClassCounts::new(2);
        mixed.add(0, 5.0);
        mixed.add(1, 5.0);
        // 10 pure + 10 mixed ⇒ 0.5 * 0 + 0.5 * 1 = 0.5 bits.
        let h = partition_entropy(&[pure, mixed]);
        assert!((h - 0.5).abs() < 1e-12);
        assert_eq!(partition_entropy(&[]), 0.0);
    }

    #[test]
    fn gaussian_mean_variance() {
        let mut g = GaussianEstimator::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            g.add(v, 1.0);
        }
        assert!((g.mean() - 5.0).abs() < 1e-12);
        // Sample variance of that classic dataset is 32/7.
        assert!((g.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(g.min(), Some(2.0));
        assert_eq!(g.max(), Some(9.0));
    }

    #[test]
    fn gaussian_weighted_updates() {
        let mut a = GaussianEstimator::new();
        a.add(1.0, 2.0);
        a.add(3.0, 2.0);
        let mut b = GaussianEstimator::new();
        for v in [1.0, 1.0, 3.0, 3.0] {
            b.add(v, 1.0);
        }
        assert!((a.mean() - b.mean()).abs() < 1e-12);
        assert!((a.variance() - b.variance()).abs() < 1e-9);
    }

    #[test]
    fn gaussian_cdf_behaviour() {
        let mut g = GaussianEstimator::new();
        for i in 0..100 {
            g.add(i as f64 % 10.0, 1.0);
        }
        assert!(g.cdf(-100.0) < 0.01);
        assert!(g.cdf(100.0) > 0.99);
        let at_mean = g.cdf(g.mean());
        assert!((at_mean - 0.5).abs() < 0.01);
    }

    #[test]
    fn degenerate_gaussian_is_point_mass() {
        let mut g = GaussianEstimator::new();
        g.add(5.0, 3.0);
        assert_eq!(g.variance(), 0.0);
        assert_eq!(g.cdf(4.9), 0.0);
        assert_eq!(g.cdf(5.0), 1.0);
        assert_eq!(g.weight_below(6.0), 3.0);
    }

    #[test]
    fn empty_gaussian() {
        let g = GaussianEstimator::new();
        assert_eq!(g.weight(), 0.0);
        assert_eq!(g.cdf(0.0), 0.0);
        assert_eq!(g.min(), None);
        assert_eq!(g.max(), None);
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }
}
