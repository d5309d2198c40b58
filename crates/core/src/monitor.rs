//! Moving-average estimation-accuracy monitor (§V-D).
//!
//! After every answered query, LATEST scores the active estimator against
//! the system-log selectivity and pushes the accuracy here. The monitor
//! keeps the accuracies of the most recent `W` queries; its average is the
//! signal the estimator adaptor compares against the pre-filling threshold
//! `β·τ` and the switch threshold `τ`.
//!
//! The running sum uses Kahan compensated summation and is re-derived from
//! the windowed values on a fixed cadence, so the average tracks the true
//! window mean to within an ulp even over unbounded streams. The naive
//! add/subtract running sum drifts: each push does one subtraction and one
//! addition in `f64`, and the rounding residue compounds forever because the
//! sum is never rebuilt from its constituents.

use std::collections::VecDeque;

use geostream::{PersistError, PersistReader, PersistWriter};

/// Rebuild the compensated sum from scratch every this many pushes.
/// Kahan summation already bounds the error independently of stream
/// length; the periodic recompute additionally pins the sum to the exact
/// fold of the current window, making drift impossible by construction.
const RECOMPUTE_EVERY: u64 = 1 << 16;

/// Sliding average over the accuracies of the last `capacity` queries.
#[derive(Debug, Clone)]
pub struct AccuracyMonitor {
    window: VecDeque<f64>,
    capacity: usize,
    /// Kahan-compensated running sum of `window`.
    sum: f64,
    /// Kahan compensation term carrying the low-order bits `sum` lost.
    compensation: f64,
    /// Pushes since the last from-scratch recompute of `sum`.
    pushes_since_recompute: u64,
}

impl AccuracyMonitor {
    /// Creates a monitor over the last `capacity` queries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "monitor needs a positive window");
        AccuracyMonitor {
            window: VecDeque::with_capacity(capacity),
            capacity,
            sum: 0.0,
            compensation: 0.0,
            pushes_since_recompute: 0,
        }
    }

    /// Kahan (compensated) add of `value` into the running sum.
    fn kahan_add(&mut self, value: f64) {
        let y = value - self.compensation;
        let t = self.sum + y;
        self.compensation = (t - self.sum) - y;
        self.sum = t;
    }

    /// Re-derives the running sum exactly from the windowed values.
    fn recompute_sum(&mut self) {
        let mut sum = 0.0_f64;
        let mut comp = 0.0_f64;
        for &v in &self.window {
            let y = v - comp;
            let t = sum + y;
            comp = (t - sum) - y;
            sum = t;
        }
        self.sum = sum;
        self.compensation = comp;
        self.pushes_since_recompute = 0;
    }

    /// Pushes one accuracy observation in `[0, 1]`.
    pub fn push(&mut self, accuracy: f64) {
        let accuracy = accuracy.clamp(0.0, 1.0);
        if self.window.len() == self.capacity {
            // LINT-ALLOW(no-panic): this branch runs only when len == capacity, so the deque has a front to pop
            let popped = self.window.pop_front().expect("non-empty at capacity");
            self.kahan_add(-popped);
        }
        self.window.push_back(accuracy);
        self.kahan_add(accuracy);
        self.pushes_since_recompute += 1;
        if self.pushes_since_recompute >= RECOMPUTE_EVERY {
            self.recompute_sum();
        }
    }

    /// Average accuracy over the current window (`None` until at least one
    /// observation arrives). Unclamped: with the compensated sum the value
    /// is the true window mean, and clamping would only paper over a
    /// bookkeeping bug the `debug-invariants` audits should catch instead.
    pub fn average(&self) -> Option<f64> {
        if self.window.is_empty() {
            None
        } else {
            Some(self.sum / self.window.len() as f64)
        }
    }

    /// Number of observations currently windowed.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Whether the window has seen enough queries for its average to be
    /// trusted (at least half full).
    pub fn warmed_up(&self) -> bool {
        self.window.len() * 2 >= self.capacity
    }

    /// Forgets all observations (used right after a switch so the new
    /// estimator is judged on its own record).
    pub fn reset(&mut self) {
        self.window.clear();
        self.sum = 0.0;
        self.compensation = 0.0;
        self.pushes_since_recompute = 0;
    }
}

impl AccuracyMonitor {
    /// Writes the running-sum state and the windowed accuracies, oldest
    /// first; the window's capacity is the configuration's.
    pub fn persist_state(&self, w: &mut PersistWriter) {
        // The raw running-sum state ships bit-for-bit: recomputing it on
        // restore would produce a different rounding residue than the
        // uninterrupted run and break bit-identical estimates.
        w.put_f64(self.sum);
        w.put_f64(self.compensation);
        w.put_u64(self.pushes_since_recompute);
        w.put_usize(self.window.len());
        for &v in &self.window {
            w.put_f64(v);
        }
    }

    /// Reads [`AccuracyMonitor::persist_state`]'s state into this empty
    /// monitor, whose capacity must be the writer's.
    pub fn restore_state(&mut self, r: &mut PersistReader<'_>) -> Result<(), PersistError> {
        let sum = r.take_f64("AccuracyMonitor.sum")?;
        let compensation = r.take_f64("AccuracyMonitor.compensation")?;
        self.pushes_since_recompute = r.take_u64("AccuracyMonitor.pushes")?;
        let len = r.take_len("AccuracyMonitor.window.len")?;
        if len > self.capacity || !sum.is_finite() || !compensation.is_finite() {
            return Err(PersistError::Corrupt {
                context: "AccuracyMonitor",
                detail: format!("capacity {}, len {len}, sum {sum}", self.capacity),
            });
        }
        (self.sum, self.compensation) = (sum, compensation);
        for i in 0..len {
            let v = r.take_f64("AccuracyMonitor.window[]")?;
            if !(0.0..=1.0).contains(&v) {
                return Err(PersistError::Corrupt {
                    context: "AccuracyMonitor.window",
                    detail: format!("value {v} at {i} outside [0, 1]"),
                });
            }
            self.window.push_back(v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The window mean computed fresh, with no running-sum shortcuts.
    fn fresh_mean(m: &AccuracyMonitor) -> f64 {
        m.window.iter().sum::<f64>() / m.window.len() as f64
    }

    #[test]
    fn average_over_window() {
        let mut m = AccuracyMonitor::new(4);
        assert_eq!(m.average(), None);
        m.push(1.0);
        m.push(0.5);
        assert!((m.average().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn old_observations_fall_out() {
        let mut m = AccuracyMonitor::new(2);
        m.push(0.0);
        m.push(0.0);
        m.push(1.0);
        m.push(1.0);
        assert!((m.average().unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn clamps_inputs() {
        let mut m = AccuracyMonitor::new(2);
        m.push(5.0);
        m.push(-3.0);
        assert!((m.average().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn warmed_up_at_half_capacity() {
        let mut m = AccuracyMonitor::new(4);
        m.push(1.0);
        assert!(!m.warmed_up());
        m.push(1.0);
        assert!(m.warmed_up());
    }

    #[test]
    fn reset_clears() {
        let mut m = AccuracyMonitor::new(4);
        m.push(0.9);
        m.reset();
        assert!(m.is_empty());
        assert_eq!(m.average(), None);
        m.push(0.25);
        assert!((m.average().unwrap() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn long_stream_stays_numerically_sane() {
        // Alternating blocks of near-1 and near-0 accuracies force maximal
        // cancellation in the running sum; a naive add/subtract sum drifts
        // to ~5e-13 from the true window mean over these 100k pushes, while
        // the compensated + periodically recomputed sum stays within a few
        // ulps of the freshly computed mean.
        let mut m = AccuracyMonitor::new(8);
        for i in 0..100_000_u64 {
            let v = if (i / 8) % 2 == 0 {
                0.999_999_999
            } else {
                1e-9 + (i as f64 * 1e-13)
            };
            m.push(v);
        }
        let avg = m.average().unwrap();
        assert!((0.0..=1.0).contains(&avg));
        assert!(
            (avg - fresh_mean(&m)).abs() < 1e-14,
            "running average {avg} drifted from fresh mean {}",
            fresh_mean(&m)
        );
    }

    #[test]
    fn recompute_cadence_pins_sum_exactly() {
        // Cross the RECOMPUTE_EVERY boundary and verify the running sum is
        // *exactly* the fresh Kahan fold right after the rebuild.
        let mut m = AccuracyMonitor::new(16);
        for i in 0..(RECOMPUTE_EVERY + 3) {
            m.push(((i % 97) as f64) / 97.0);
        }
        assert!(m.pushes_since_recompute < RECOMPUTE_EVERY);
        assert!((m.average().unwrap() - fresh_mean(&m)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "positive window")]
    fn rejects_zero_capacity() {
        let _ = AccuracyMonitor::new(0);
    }
}
