//! The stream driver: replays a dataset + workload through LATEST.

use crate::log::RunLog;
use estimators::EstimatorConfig;
use geostream::{Duration, Timestamp};
use latest_core::{Latest, LatestConfig, QueryOptions, ServedBy};
use workloads::WorkloadSpec;

/// How a workload is replayed.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Queries answered after the pre-training phase (what the figures
    /// plot as t_0 … t_100).
    pub incremental_queries: usize,
    /// Queries in the pre-training phase.
    pub pretrain_queries: usize,
    /// Stream objects ingested between consecutive queries.
    pub objects_per_query: usize,
    /// α accuracy/latency trade-off.
    pub alpha: f64,
    /// Switch threshold τ.
    pub tau: f64,
    /// Pre-filling factor β.
    pub beta: f64,
    /// Memory budget multiplier for all estimators.
    pub memory_budget: f64,
    /// Base reservoir capacity (scaled by `memory_budget`).
    pub reservoir_capacity: usize,
    /// Maintain and measure all six estimators per query (needed by the
    /// figures; costs runtime).
    pub shadow_metrics: bool,
    /// Design-choice ablation switches (all on = full LATEST protocol).
    pub ablation: latest_core::AblationConfig,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            incremental_queries: 2_000,
            pretrain_queries: 300,
            objects_per_query: 25,
            alpha: 0.5,
            tau: 0.9,
            beta: 0.9,
            memory_budget: 1.0,
            reservoir_capacity: 2_400,
            shadow_metrics: true,
            ablation: latest_core::AblationConfig::default(),
        }
    }
}

/// Everything a finished run exposes to the report layer.
pub struct RunResult {
    pub workload: &'static str,
    pub log: RunLog,
    /// Stream time at the start of the incremental phase.
    pub incremental_start: Timestamp,
    /// Final Hoeffding-tree statistics.
    pub tree_stats: hoeffding::TreeStats,
}

/// [`run_workload`] with an explicit default estimator (used by the
/// static-baseline ablations).
pub fn run_workload_with_default(
    spec: &WorkloadSpec,
    driver: &DriverConfig,
    default: estimators::EstimatorKind,
) -> RunResult {
    run_workload_inner(spec, driver, default)
}

/// Replays `spec` through a LATEST instance configured by `driver`.
///
/// The virtual stream interleaves `objects_per_query` data objects before
/// each query; the warm-up phase runs until the window fills once. All
/// randomness is seeded by the specs, so runs are reproducible.
pub fn run_workload(spec: &WorkloadSpec, driver: &DriverConfig) -> RunResult {
    run_workload_inner(spec, driver, estimators::EstimatorKind::Rsh)
}

fn run_workload_inner(
    spec: &WorkloadSpec,
    driver: &DriverConfig,
    default_estimator: estimators::EstimatorKind,
) -> RunResult {
    let dataset = spec.dataset().clone();
    // Window sized so it holds a few tens of thousands of objects at the
    // dataset's arrival rate: span = mean_gap × objects_per_query × 1200.
    let window_span = Duration::from_millis(
        dataset.mean_gap.millis().max(1) * (driver.objects_per_query as u64).max(1) * 1_200,
    );
    let config = LatestConfig::builder()
        .window_span(window_span)
        .warmup(window_span)
        .pretrain_queries(driver.pretrain_queries)
        .alpha(driver.alpha)
        .tau(driver.tau)
        .beta(driver.beta)
        // Hysteresis scales with the run length so short calibration runs
        // and full runs allow a comparable number of switch opportunities.
        .min_switch_spacing((driver.incremental_queries / 12).max(48))
        .accuracy_window((driver.incremental_queries / 50).clamp(16, 32))
        .estimator_config(EstimatorConfig {
            domain: dataset.domain,
            memory_budget: driver.memory_budget,
            reservoir_capacity: driver.reservoir_capacity,
            // The paper's FFN is batch-trained during pre-training and then
            // serves as-is; freeze it at the phase boundary.
            ffn_train_budget: driver.pretrain_queries as u64,
            ..EstimatorConfig::default()
        })
        .shadow_metrics(driver.shadow_metrics)
        .ablation(driver.ablation.clone())
        .default_estimator(default_estimator)
        .build()
        .expect("driver parameters are in range");
    let mut latest = Latest::new(config);
    let mut objects = dataset.generator();
    let mut queries = spec.generator();

    // Warm-up: stream objects until the window has filled once.
    while latest.phase() == latest_core::PhaseTag::WarmUp {
        latest.ingest(objects.next_object());
    }

    let total_queries = driver.pretrain_queries + driver.incremental_queries;
    let mut incremental_start = latest.now();
    let mut started = false;
    let mut log = RunLog::default();
    for qi in 0..total_queries {
        for _ in 0..driver.objects_per_query {
            latest.ingest(objects.next_object());
        }
        // Map the driver's query position onto the workload's own length
        // so block schedules cover the whole run, and stamp the generator
        // with stream time so query keywords follow topical drift.
        let pos = qi * spec.total() / total_queries.max(1);
        queries.set_time(objects.clock());
        let query = queries.query_at(pos);
        let out = latest.query(&query, QueryOptions::at(objects.clock()));
        if let ServedBy::Estimator(from) = out.served_by {
            if out.switched {
                log.switches
                    .push((log.queries.len(), from, latest.active_kind()));
            }
            log.queries.push(out);
        }
        if !started && latest.phase() == latest_core::PhaseTag::Incremental {
            incremental_start = latest.now();
            started = true;
        }
    }

    RunResult {
        workload: spec.name(),
        log,
        incremental_start,
        tree_stats: latest.tree_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::twqw;

    fn tiny_driver() -> DriverConfig {
        DriverConfig {
            incremental_queries: 60,
            pretrain_queries: 20,
            objects_per_query: 10,
            reservoir_capacity: 2_000,
            ..DriverConfig::default()
        }
    }

    #[test]
    fn run_produces_log_with_both_phases() {
        let spec = twqw(2).with_total(80);
        let result = run_workload(&spec, &tiny_driver());
        assert_eq!(result.workload, "TwQW2");
        assert_eq!(result.log.queries.len(), 80);
        assert_eq!(result.log.incremental().count(), 60);
        // Drift detection may reset the tree mid-run; it must still be
        // learning at the end.
        assert!(result.tree_stats.instances_seen >= 1);
    }

    #[test]
    fn shadow_metrics_present_when_enabled() {
        let spec = twqw(4).with_total(80);
        let result = run_workload(&spec, &tiny_driver());
        let last = result.log.queries.last().unwrap();
        assert_eq!(last.shadow.len(), 6);
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = twqw(3).with_total(80);
        let a = run_workload(&spec, &tiny_driver());
        let b = run_workload(&spec, &tiny_driver());
        let seq_a: Vec<u64> = a.log.queries.iter().map(|q| q.actual).collect();
        let seq_b: Vec<u64> = b.log.queries.iter().map(|q| q.actual).collect();
        assert_eq!(seq_a, seq_b, "actual selectivities must replay identically");
    }
}
