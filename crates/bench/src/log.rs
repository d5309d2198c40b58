//! The run log the paper's figures bucket.
//!
//! The engine keeps no per-query history; [`crate::driver`] builds this one
//! from the outcomes it is handed, and [`crate::report`] /
//! [`crate::experiments`] read it.

use estimators::EstimatorKind;
use latest_core::{PhaseTag, QueryOutcome};

/// One run's answers and switch marks.
#[derive(Debug, Clone, Default)]
pub struct RunLog {
    /// Every estimator-served answer, in order: a record's index is its
    /// sequence number. Cache hits are not answers of an estimator and are
    /// left out.
    pub queries: Vec<QueryOutcome>,
    /// Switch marks as `(index of the switching query, from, to)`.
    pub switches: Vec<(usize, EstimatorKind, EstimatorKind)>,
}

impl RunLog {
    /// The incremental-phase answers, in order.
    pub fn incremental(&self) -> impl DoubleEndedIterator<Item = &QueryOutcome> {
        self.queries
            .iter()
            .filter(|q| q.phase == PhaseTag::Incremental)
    }

    /// Mean of `f` over incremental-phase answers.
    fn incremental_mean(&self, f: impl Fn(&QueryOutcome) -> f64) -> Option<f64> {
        let (sum, n) = self
            .incremental()
            .fold((0.0, 0usize), |(s, n), q| (s + f(q), n + 1));
        (n > 0).then(|| sum / n as f64)
    }

    /// Mean accuracy over incremental-phase answers (the headline score).
    pub fn mean_incremental_accuracy(&self) -> Option<f64> {
        self.incremental_mean(|q| q.accuracy)
    }

    /// Mean answer latency over incremental-phase answers.
    pub fn mean_incremental_latency_ms(&self) -> Option<f64> {
        self.incremental_mean(|q| q.latency_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latest_core::ServedBy;

    fn record(phase: PhaseTag, accuracy: f64) -> QueryOutcome {
        QueryOutcome {
            estimate: 10.0,
            actual: 10,
            latency_ms: 1.0,
            accuracy,
            estimator: EstimatorKind::Rsh,
            phase,
            switched: false,
            served_by: ServedBy::Estimator(EstimatorKind::Rsh),
            shadow: Vec::new(),
        }
    }

    #[test]
    fn aggregates_skip_pretraining() {
        let log = RunLog {
            queries: vec![
                record(PhaseTag::PreTraining, 0.1),
                record(PhaseTag::Incremental, 0.8),
                record(PhaseTag::Incremental, 0.6),
            ],
            switches: Vec::new(),
        };
        assert_eq!(log.incremental().count(), 2);
        assert!((log.mean_incremental_accuracy().unwrap() - 0.7).abs() < 1e-12);
        assert!((log.mean_incremental_latency_ms().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_log_aggregates_none() {
        let log = RunLog::default();
        assert_eq!(log.mean_incremental_accuracy(), None);
        assert_eq!(log.mean_incremental_latency_ms(), None);
    }
}
