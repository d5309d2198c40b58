//! # latest-core — the LATEST selectivity-estimation module
//!
//! The paper's primary contribution (§V): a system-level module that keeps
//! a pool of selectivity estimators and uses an incrementally trained
//! Hoeffding tree over query-workload features to decide which estimator
//! the system should employ at every point of the stream lifetime.
//!
//! The stream lifetime is divided into three phases:
//!
//! 1. **warm-up** (`t ∈ [0, T)`): data accumulates until the time window
//!    `S_T` is meaningful; all estimation structures are pre-filled;
//! 2. **pre-training**: every incoming query runs on *all* estimators; the
//!    actual selectivity from the exact executor ("system logs") scores
//!    each one, and the winners become training records for the Hoeffding
//!    tree;
//! 3. **incremental learning**: a single active estimator answers queries.
//!    Each query's accuracy is fed back into the tree, a moving-average
//!    accuracy is monitored, and when it sinks below `β·τ` a recommended
//!    replacement starts pre-filling — ready to take over the moment the
//!    average crosses `τ` (the paper's Estimator Adaptor, §V-D).
//!
//! The trade-off knob `α ∈ [0, 1]` weighs estimation latency against
//! accuracy when scoring estimators (`α = 0`: accuracy only; `α = 1`:
//! latency only; default 0.5).
//!
//! Entry point: [`Latest`]. See `examples/quickstart.rs` for a tour.

pub mod adaptor;
pub mod cache;
pub mod concurrent;
pub mod config;
pub mod error;
pub mod features;
pub mod log;
pub mod monitor;
pub mod obsv;
pub mod persist;
pub mod pool;
pub mod queue;
pub mod shard;
pub mod system;

pub use adaptor::Recommender;
pub use cache::{CachedAnswer, SelectivityCache};
pub use concurrent::{SharedLatest, SnapshotScraper};
pub use config::{AblationConfig, ConfigError, LatestConfig, LatestConfigBuilder};
pub use error::LatestError;
pub use features::{QueryProfile, RewardScaler};
pub use log::{PhaseTag, ShadowSample};
pub use monitor::AccuracyMonitor;
pub use obsv::{
    EstimatorRole, EventStream, LifecycleEvent, MetricsRegistry, MetricsSnapshot, WallTimer,
};
pub use persist::{MANIFEST_MAGIC, SNAPSHOT_MAGIC};
pub use pool::{BuiltPrefill, EstimatorPool, PrefillBuilder, PrefillTicket};
pub use shard::{
    RouterPolicy, ServingEngine, ShardConfig, ShardRouter, ShardedLatest, Ticket, MAX_SHARDS,
};
pub use system::{Latest, QueryOptions, QueryOutcome, ServedBy};

/// The crate's lock-poisoning policy, applied to every `lock()` and condvar
/// wait: a later caller gets the guard even if an earlier holder panicked.
/// This is the non-poisoning behaviour the serving layer was written and
/// measured against. The queue and done-map critical sections are single
/// pushes, pops and inserts that cannot leave torn state; a panic
/// inside a `Latest` call under [`SharedLatest`]'s mutex can, exactly as it
/// could before — turning that into a typed error is ROADMAP item 7(c).
pub(crate) fn unpoisoned<G>(result: Result<G, std::sync::PoisonError<G>>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Estimation accuracy of an estimate vs. the logged actual selectivity:
/// `max(0, 1 − |est − actual| / max(actual, 1))`, the relative-error-based
/// accuracy in `[0, 1]` the paper's plots use.
pub fn estimation_accuracy(estimate: f64, actual: u64) -> f64 {
    let denom = (actual as f64).max(1.0);
    (1.0 - (estimate - actual as f64).abs() / denom).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_perfect_and_degraded() {
        assert_eq!(estimation_accuracy(100.0, 100), 1.0);
        assert!((estimation_accuracy(90.0, 100) - 0.9).abs() < 1e-12);
        assert!((estimation_accuracy(110.0, 100) - 0.9).abs() < 1e-12);
        assert_eq!(estimation_accuracy(300.0, 100), 0.0); // clamped
    }

    #[test]
    fn accuracy_small_actuals_use_floor() {
        // actual = 0 uses denominator 1 so exactness is still rewarded.
        assert_eq!(estimation_accuracy(0.0, 0), 1.0);
        assert_eq!(estimation_accuracy(1.0, 0), 0.0);
    }
}
