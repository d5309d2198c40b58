//! Validated construction of [`LatestConfig`]: the builder API.
//!
//! [`LatestConfig`] remains a plain struct with public fields (and a
//! working `Default`), but the supported way to assemble one is the
//! fluent [`LatestConfigBuilder`], which checks the paper's parameter
//! domains (`τ ∈ (0,1]`, `β ∈ (0,1)`, `α ∈ [0,1]`, nonzero windows) and
//! returns a typed [`ConfigError`] instead of panicking deep inside
//! [`Latest::new`].
//!
//! ```
//! use geostream::Duration;
//! use latest_core::{ConfigError, LatestConfig};
//!
//! let config = LatestConfig::builder()
//!     .window_span(Duration::from_mins(5))
//!     .warmup(Duration::from_mins(5))
//!     .tau(0.8)
//!     .beta(0.9)
//!     .alpha(0.25)
//!     .build()
//!     .expect("parameters are in range");
//! assert_eq!(config.tau, 0.8);
//!
//! let err = LatestConfig::builder().tau(1.5).build().unwrap_err();
//! assert!(matches!(err, ConfigError::TauOutOfRange(_)));
//! ```
//!
//! [`Latest::new`]: crate::Latest::new

use crate::system::{AblationConfig, LatestConfig};
use estimators::{EstimatorConfig, EstimatorKind};
use exactdb::SpatialIndexKind;
use geostream::Duration;
use hoeffding::HoeffdingTreeConfig;

/// Why a [`LatestConfig`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `τ` must be in `(0, 1]` (switching threshold on a `[0,1]` accuracy).
    TauOutOfRange(f64),
    /// `β` must be in `(0, 1)` (pre-filling starts strictly below `τ`).
    BetaOutOfRange(f64),
    /// `α` must be in `[0, 1]` (accuracy/latency trade-off weight).
    AlphaOutOfRange(f64),
    /// The sliding time window `T` must be nonzero.
    ZeroWindowSpan,
    /// The accuracy monitor's moving-average window must be nonzero.
    ZeroAccuracyWindow,
    /// The embedded [`EstimatorConfig`](estimators::EstimatorConfig)
    /// failed its own validation (degenerate domain, zero capacities, ...).
    Estimator(estimators::EstimateError),
    /// A sharded engine needs at least one shard.
    ZeroShardCount,
    /// The shard count exceeds [`MAX_SHARDS`](crate::MAX_SHARDS) — almost
    /// certainly a units mistake, and each shard is a full `Latest` with
    /// its own worker thread.
    ExcessiveShardCount(usize),
    /// Shard command queues must be able to hold at least one command,
    /// or every ingest would deadlock against its own backpressure.
    ZeroShardQueueCapacity,
    /// The prefill delta log must be able to hold at least one object, or
    /// every background build would overflow and restart immediately.
    ZeroPrefillDeltaCap,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TauOutOfRange(v) => write!(f, "tau must be in (0,1], got {v}"),
            ConfigError::BetaOutOfRange(v) => write!(f, "beta must be in (0,1), got {v}"),
            ConfigError::AlphaOutOfRange(v) => write!(f, "alpha must be in [0,1], got {v}"),
            ConfigError::ZeroWindowSpan => write!(f, "window_span must be nonzero"),
            ConfigError::ZeroAccuracyWindow => write!(f, "accuracy_window must be nonzero"),
            ConfigError::Estimator(e) => write!(f, "{e}"),
            ConfigError::ZeroShardCount => write!(f, "shard.shards must be at least 1"),
            ConfigError::ExcessiveShardCount(n) => write!(
                f,
                "shard.shards must be at most {}, got {n}",
                crate::shard::MAX_SHARDS
            ),
            ConfigError::ZeroShardQueueCapacity => {
                write!(f, "shard.queue_capacity must be nonzero")
            }
            ConfigError::ZeroPrefillDeltaCap => {
                write!(f, "prefill_delta_cap must be nonzero")
            }
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Estimator(e) => Some(e),
            _ => None,
        }
    }
}

impl LatestConfig {
    /// Starts a fluent builder seeded with the defaults.
    #[must_use]
    pub fn builder() -> LatestConfigBuilder {
        LatestConfigBuilder::default()
    }

    /// Checks every parameter domain the builder enforces. [`Latest::new`]
    /// calls this too, so hand-assembled configs fail just as loudly.
    ///
    /// [`Latest::new`]: crate::Latest::new
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.tau > 0.0 && self.tau <= 1.0) {
            return Err(ConfigError::TauOutOfRange(self.tau));
        }
        if !(self.beta > 0.0 && self.beta < 1.0) {
            return Err(ConfigError::BetaOutOfRange(self.beta));
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(ConfigError::AlphaOutOfRange(self.alpha));
        }
        if self.window_span.0 == 0 {
            return Err(ConfigError::ZeroWindowSpan);
        }
        if self.accuracy_window == 0 {
            return Err(ConfigError::ZeroAccuracyWindow);
        }
        self.estimator_config
            .validate()
            .map_err(ConfigError::Estimator)?;
        if self.shard.shards == 0 {
            return Err(ConfigError::ZeroShardCount);
        }
        if self.shard.shards > crate::shard::MAX_SHARDS {
            return Err(ConfigError::ExcessiveShardCount(self.shard.shards));
        }
        if self.shard.queue_capacity == 0 {
            return Err(ConfigError::ZeroShardQueueCapacity);
        }
        if self.prefill_delta_cap == 0 {
            return Err(ConfigError::ZeroPrefillDeltaCap);
        }
        Ok(())
    }
}

/// Fluent, validating builder for [`LatestConfig`].
#[derive(Debug, Clone, Default)]
pub struct LatestConfigBuilder {
    config: LatestConfig,
}

impl LatestConfigBuilder {
    /// The time window `T` queries are answered over.
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn window_span(mut self, span: Duration) -> Self {
        self.config.window_span = span;
        self
    }

    /// Length of the data-only warm-up phase.
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn warmup(mut self, warmup: Duration) -> Self {
        self.config.warmup = warmup;
        self
    }

    /// Number of queries in the pre-training phase.
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn pretrain_queries(mut self, n: usize) -> Self {
        self.config.pretrain_queries = n;
        self
    }

    /// Accuracy threshold `τ ∈ (0, 1]`: switching below it.
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn tau(mut self, tau: f64) -> Self {
        self.config.tau = tau;
        self
    }

    /// Pre-filling factor `β ∈ (0, 1)`: pre-filling starts below `β·τ`.
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn beta(mut self, beta: f64) -> Self {
        self.config.beta = beta;
        self
    }

    /// Accuracy/latency trade-off `α ∈ [0, 1]` (0 = accuracy only).
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// Moving-average window (queries) of the accuracy monitor.
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn accuracy_window(mut self, n: usize) -> Self {
        self.config.accuracy_window = n;
        self
    }

    /// Minimum incremental queries between consecutive switches.
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn min_switch_spacing(mut self, n: usize) -> Self {
        self.config.min_switch_spacing = n;
        self
    }

    /// Required learned-reward advantage before pre-filling a replacement.
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn switch_margin(mut self, margin: f64) -> Self {
        self.config.switch_margin = margin;
        self
    }

    /// The estimator employed when the incremental phase starts.
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn default_estimator(mut self, kind: EstimatorKind) -> Self {
        self.config.default_estimator = kind;
        self
    }

    /// Sizing of the underlying estimators.
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn estimator_config(mut self, config: EstimatorConfig) -> Self {
        self.config.estimator_config = config;
        self
    }

    /// Hoeffding tree configuration.
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn tree_config(mut self, config: HoeffdingTreeConfig) -> Self {
        self.config.tree_config = config;
        self
    }

    /// Spatial backend of the exact executor.
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn index_kind(mut self, kind: SpatialIndexKind) -> Self {
        self.config.index_kind = kind;
        self
    }

    /// Keep all estimators maintained and measure each per query.
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn shadow_metrics(mut self, on: bool) -> Self {
        self.config.shadow_metrics = on;
        self
    }

    /// Ablation knobs for the design-choice experiments.
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn ablation(mut self, ablation: AblationConfig) -> Self {
        self.config.ablation = ablation;
        self
    }

    /// Distinct query signatures the selectivity cache memoizes per
    /// window generation (`0` disables caching).
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn selectivity_cache_capacity(mut self, capacity: usize) -> Self {
        self.config.selectivity_cache_capacity = capacity;
        self
    }

    /// Sharded-serving layout: shard count, per-shard queue capacity, and
    /// routing policy ([`ShardedLatest`](crate::ShardedLatest)).
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn shard(mut self, shard: crate::shard::ShardConfig) -> Self {
        self.config.shard = shard;
        self
    }

    /// Objects the prefill delta log may buffer before the background
    /// build is cancelled and restarted from a fresh snapshot (must be
    /// nonzero).
    #[must_use = "setters move the builder; reassign or chain the result"]
    pub fn prefill_delta_cap(mut self, cap: usize) -> Self {
        self.config.prefill_delta_cap = cap;
        self
    }

    /// Validates the assembled configuration.
    pub fn build(self) -> Result<LatestConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builder_is_valid() {
        let config = LatestConfig::builder().build().expect("defaults valid");
        let defaults = LatestConfig::default();
        assert_eq!(config.tau, defaults.tau);
        assert_eq!(config.pretrain_queries, defaults.pretrain_queries);
    }

    #[test]
    fn fluent_setters_land() {
        let config = LatestConfig::builder()
            .window_span(Duration::from_secs(90))
            .warmup(Duration::from_secs(45))
            .pretrain_queries(77)
            .tau(1.0)
            .beta(0.5)
            .alpha(0.0)
            .accuracy_window(9)
            .min_switch_spacing(3)
            .switch_margin(0.1)
            .default_estimator(EstimatorKind::Aasp)
            .shadow_metrics(true)
            .build()
            .expect("valid");
        assert_eq!(config.window_span, Duration::from_secs(90));
        assert_eq!(config.pretrain_queries, 77);
        assert_eq!(config.tau, 1.0); // τ = 1 is the inclusive upper bound
        assert_eq!(config.default_estimator, EstimatorKind::Aasp);
        assert!(config.shadow_metrics);
    }

    #[test]
    fn rejects_out_of_range_parameters() {
        assert_eq!(
            LatestConfig::builder().tau(0.0).build().unwrap_err(),
            ConfigError::TauOutOfRange(0.0)
        );
        assert_eq!(
            LatestConfig::builder().tau(1.01).build().unwrap_err(),
            ConfigError::TauOutOfRange(1.01)
        );
        assert_eq!(
            LatestConfig::builder().beta(1.0).build().unwrap_err(),
            ConfigError::BetaOutOfRange(1.0)
        );
        assert_eq!(
            LatestConfig::builder().alpha(-0.1).build().unwrap_err(),
            ConfigError::AlphaOutOfRange(-0.1)
        );
        assert_eq!(
            LatestConfig::builder()
                .window_span(Duration(0))
                .build()
                .unwrap_err(),
            ConfigError::ZeroWindowSpan
        );
        assert_eq!(
            LatestConfig::builder()
                .accuracy_window(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroAccuracyWindow
        );
    }

    #[test]
    fn rejects_invalid_shard_layouts() {
        use crate::shard::{RouterPolicy, ShardConfig, MAX_SHARDS};
        assert_eq!(
            LatestConfig::builder()
                .shard(ShardConfig {
                    shards: 0,
                    ..ShardConfig::default()
                })
                .build()
                .unwrap_err(),
            ConfigError::ZeroShardCount
        );
        assert_eq!(
            LatestConfig::builder()
                .shard(ShardConfig {
                    shards: MAX_SHARDS + 1,
                    ..ShardConfig::default()
                })
                .build()
                .unwrap_err(),
            ConfigError::ExcessiveShardCount(MAX_SHARDS + 1)
        );
        assert_eq!(
            LatestConfig::builder()
                .shard(ShardConfig {
                    queue_capacity: 0,
                    ..ShardConfig::default()
                })
                .build()
                .unwrap_err(),
            ConfigError::ZeroShardQueueCapacity
        );
        // The in-range corners build.
        for shards in [1, MAX_SHARDS] {
            let config = LatestConfig::builder()
                .shard(ShardConfig {
                    shards,
                    queue_capacity: 1,
                    router: RouterPolicy::SpatialTile,
                })
                .build()
                .expect("corner layouts are valid");
            assert_eq!(config.shard.shards, shards);
            assert_eq!(config.shard.router, RouterPolicy::SpatialTile);
        }
    }

    #[test]
    fn rejects_zero_prefill_delta_cap_and_accepts_toggles() {
        assert_eq!(
            LatestConfig::builder()
                .prefill_delta_cap(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroPrefillDeltaCap
        );
        let config = LatestConfig::builder()
            .prefill_delta_cap(1)
            .build()
            .expect("minimal delta cap is valid");
        assert_eq!(config.prefill_delta_cap, 1);
    }

    #[test]
    fn error_messages_name_the_domain() {
        assert!(ConfigError::TauOutOfRange(1.5)
            .to_string()
            .contains("tau must be in (0,1]"));
        assert!(ConfigError::BetaOutOfRange(0.0)
            .to_string()
            .contains("beta must be in (0,1)"));
        assert!(ConfigError::ZeroWindowSpan.to_string().contains("nonzero"));
        assert!(ConfigError::ZeroShardCount
            .to_string()
            .contains("at least 1"));
        assert!(ConfigError::ExcessiveShardCount(4_096)
            .to_string()
            .contains("4096"));
        assert!(ConfigError::ZeroShardQueueCapacity
            .to_string()
            .contains("queue_capacity"));
        assert!(ConfigError::ZeroPrefillDeltaCap
            .to_string()
            .contains("prefill_delta_cap"));
    }

    #[test]
    fn estimator_config_errors_surface_through_builder() {
        use std::error::Error;
        let err = LatestConfig::builder()
            .estimator_config(EstimatorConfig {
                reservoir_capacity: 0,
                ..EstimatorConfig::default()
            })
            .build()
            .unwrap_err();
        let ConfigError::Estimator(ref inner) = err else {
            panic!("expected ConfigError::Estimator, got {err:?}");
        };
        assert!(inner.to_string().contains("reservoir_capacity"));
        assert!(err.source().is_some());
    }
}
