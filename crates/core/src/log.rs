//! Phase tags and shadow samples: the two per-query types the engine hands
//! out with every [`QueryOutcome`](crate::QueryOutcome).
//!
//! The engine keeps no per-query history of its own. Whoever wants a run
//! log builds it from the outcomes they are handed (`latest-bench`'s driver
//! does, for the paper's figures); the adaptor's decisions live in the
//! bounded [`EventStream`](crate::EventStream), each one beside the counter
//! that counts it.

use estimators::EstimatorKind;
use geostream::{Persist, PersistError, PersistReader, PersistWriter};

/// Which lifetime phase a query was served in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseTag {
    WarmUp,
    PreTraining,
    Incremental,
}

impl PhaseTag {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            PhaseTag::WarmUp => "warm-up",
            PhaseTag::PreTraining => "pre-training",
            PhaseTag::Incremental => "incremental",
        }
    }
}

/// Latency/accuracy of one (estimator, query) pair measured in shadow mode
/// (all estimators maintained for plotting, as the paper's figures do).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowSample {
    pub estimator: EstimatorKind,
    pub estimate: f64,
    pub latency_ms: f64,
    pub accuracy: f64,
}

impl Persist for PhaseTag {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_u8(match self {
            PhaseTag::WarmUp => 0,
            PhaseTag::PreTraining => 1,
            PhaseTag::Incremental => 2,
        });
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        match r.take_u8("PhaseTag")? {
            0 => Ok(PhaseTag::WarmUp),
            1 => Ok(PhaseTag::PreTraining),
            2 => Ok(PhaseTag::Incremental),
            d => Err(PersistError::Corrupt {
                context: "PhaseTag",
                detail: format!("unknown phase tag {d}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names() {
        assert_eq!(PhaseTag::WarmUp.name(), "warm-up");
        assert_eq!(PhaseTag::PreTraining.name(), "pre-training");
        assert_eq!(PhaseTag::Incremental.name(), "incremental");
    }
}
