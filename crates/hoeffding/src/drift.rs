//! Drift detection for the learning model (the §V-D retraining trigger).
//!
//! The paper retrains its model when "the increase in latency times or
//! overall error rate" says the model has gone stale. The standard
//! streaming formalization of that trigger is **DDM** (the Drift Detection
//! Method of Gama et al., 2004): track the online error rate `p` of the
//! model and its binomial deviation `s = sqrt(p(1−p)/n)`; remember the
//! best (`p_min + s_min`) the model has achieved; raise a *warning* when
//! `p + s > p_min + 2·s_min` and declare *drift* when
//! `p + s > p_min + 3·s_min`, at which point the model should be rebuilt.

use geostream::{PersistError, PersistReader, PersistWriter};

/// Detector verdict after an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftState {
    /// The error rate is consistent with the best the model has shown.
    Stable,
    /// Error is elevated (`> p_min + 2 s_min`): start hedging (e.g. buffer
    /// records for a fresh model).
    Warning,
    /// Error is incompatible with the learned concept
    /// (`> p_min + 3 s_min`): retrain now.
    Drift,
}

/// DDM drift detector over a boolean error stream.
#[derive(Debug, Clone)]
pub struct DdmDetector {
    /// Observations since the last reset.
    n: u64,
    /// Errors since the last reset.
    errors: u64,
    /// Best `p` seen (at its time of observation).
    p_min: f64,
    /// `s` at the time `p_min` was recorded.
    s_min: f64,
    /// Observations required before verdicts are issued (the error-rate
    /// estimate is meaningless on a handful of samples).
    min_observations: u64,
}

impl Default for DdmDetector {
    fn default() -> Self {
        Self::new(30)
    }
}

impl DdmDetector {
    /// Creates a detector that stays [`DriftState::Stable`] until
    /// `min_observations` records have been seen.
    pub fn new(min_observations: u64) -> Self {
        DdmDetector {
            n: 0,
            errors: 0,
            p_min: f64::INFINITY,
            s_min: f64::INFINITY,
            min_observations: min_observations.max(2),
        }
    }

    /// Observations since the last reset.
    pub fn observations(&self) -> u64 {
        self.n
    }

    /// Current online error rate (Laplace-smoothed so a perfect prefix
    /// cannot collapse the deviation to zero and hair-trigger the
    /// detector).
    pub fn error_rate(&self) -> f64 {
        (self.errors as f64 + 1.0) / (self.n as f64 + 2.0)
    }

    /// Feeds one prediction outcome (`true` = the model was wrong) and
    /// returns the verdict.
    pub fn observe(&mut self, error: bool) -> DriftState {
        self.n += 1;
        if error {
            self.errors += 1;
        }
        let p = self.error_rate();
        let s = (p * (1.0 - p) / self.n as f64).sqrt();
        if self.n < self.min_observations {
            return DriftState::Stable;
        }
        if p + s < self.p_min + self.s_min {
            self.p_min = p;
            self.s_min = s;
        }
        let level = p + s;
        if level > self.p_min + 3.0 * self.s_min {
            DriftState::Drift
        } else if level > self.p_min + 2.0 * self.s_min {
            DriftState::Warning
        } else {
            DriftState::Stable
        }
    }

    /// Forgets everything (call after retraining the model).
    pub fn reset(&mut self) {
        self.n = 0;
        self.errors = 0;
        self.p_min = f64::INFINITY;
        self.s_min = f64::INFINITY;
    }
}

impl DdmDetector {
    /// Writes the error counts and the best level seen; the warm-up length
    /// is the constructor's.
    pub fn persist_state(&self, w: &mut PersistWriter) {
        w.put_u64(self.n);
        w.put_u64(self.errors);
        // p_min/s_min start at +∞ (no verdict yet); ship the raw bits.
        w.put_f64(self.p_min);
        w.put_f64(self.s_min);
    }

    /// Reads [`DdmDetector::persist_state`]'s state into this detector,
    /// which must be built with the writer's warm-up length.
    pub fn restore_state(&mut self, r: &mut PersistReader<'_>) -> Result<(), PersistError> {
        let n = r.take_u64("DdmDetector.n")?;
        let errors = r.take_u64("DdmDetector.errors")?;
        let p_min = r.take_f64("DdmDetector.p_min")?;
        let s_min = r.take_f64("DdmDetector.s_min")?;
        if errors > n || p_min.is_nan() || s_min.is_nan() {
            return Err(PersistError::Corrupt {
                context: "DdmDetector",
                detail: format!("n {n}, errors {errors}, p_min {p_min}, s_min {s_min}"),
            });
        }
        (self.n, self.errors, self.p_min, self.s_min) = (n, errors, p_min, s_min);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_on_constant_low_error() {
        let mut d = DdmDetector::new(30);
        let mut s = 7u32;
        for _ in 0..2_000 {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            // 5% error rate.
            let err = (s >> 16) % 100 < 5;
            assert_ne!(d.observe(err), DriftState::Drift, "false drift alarm");
        }
        assert!(d.error_rate() < 0.08);
    }

    #[test]
    fn detects_abrupt_degradation() {
        let mut d = DdmDetector::new(30);
        let mut s = 11u32;
        // Phase 1: 5% error.
        for _ in 0..1_000 {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            d.observe((s >> 16) % 100 < 5);
        }
        // Phase 2: 60% error — must escalate to Drift.
        let mut saw_drift = false;
        for _ in 0..1_000 {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            if d.observe((s >> 16) % 100 < 60) == DriftState::Drift {
                saw_drift = true;
                break;
            }
        }
        assert!(saw_drift, "degradation never detected");
    }

    #[test]
    fn warning_precedes_drift() {
        let mut d = DdmDetector::new(30);
        for _ in 0..500 {
            d.observe(false); // perfect model
        }
        // Slow degradation: warnings should appear before the hard drift.
        let mut states = Vec::new();
        let mut s = 13u32;
        for i in 0..2_000 {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let err_pct = 2 + i / 40; // ramps up
            states.push(d.observe((s >> 16) % 100 < err_pct.min(90)));
        }
        let first_warning = states.iter().position(|&x| x == DriftState::Warning);
        let first_drift = states.iter().position(|&x| x == DriftState::Drift);
        let (Some(w), Some(dd)) = (first_warning, first_drift) else {
            panic!("ramp produced warning={first_warning:?} drift={first_drift:?}");
        };
        assert!(w < dd, "warning ({w}) must precede drift ({dd})");
    }

    #[test]
    fn silent_before_min_observations() {
        let mut d = DdmDetector::new(50);
        for _ in 0..49 {
            assert_eq!(d.observe(true), DriftState::Stable);
        }
    }

    #[test]
    fn reset_restores_stability() {
        let mut d = DdmDetector::new(10);
        for _ in 0..200 {
            d.observe(false);
        }
        for _ in 0..500 {
            if d.observe(true) == DriftState::Drift {
                break;
            }
        }
        d.reset();
        assert_eq!(d.observations(), 0);
        assert_eq!(d.observe(false), DriftState::Stable);
    }
}
