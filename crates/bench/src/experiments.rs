//! One function per paper table/figure. Each prints the series/rows the
//! paper reports and returns the rendered text so `all` can collect them.

use crate::driver::{run_workload, run_workload_with_default, DriverConfig, RunResult};
use crate::report::{final_choice, incremental_means, Timeline};
use estimators::{build_estimator, EstimatorConfig, EstimatorKind};
use exactdb::{ExactExecutor, SpatialIndexKind};
use geostream::synth::DatasetSpec;
use std::time::Instant;
use workloads::{ciqw1, ebrqw1, twqw, WorkloadSpec};

/// Global scale factor applied to query counts (CLI `--scale`).
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    fn queries(&self, base: usize) -> usize {
        ((base as f64 * self.0) as usize).max(40)
    }

    fn driver(&self, incremental: usize) -> DriverConfig {
        DriverConfig {
            incremental_queries: self.queries(incremental),
            pretrain_queries: self.queries(incremental / 6).max(60),
            ..DriverConfig::default()
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale(1.0)
    }
}

fn switching_figure(title: &str, spec: &WorkloadSpec, driver: &DriverConfig) -> String {
    let result = run_workload(spec, driver);
    let tl = Timeline::from_result(&result, 10);
    let mut out = tl.render(title);
    out.push_str(&format!(
        "mean incremental accuracy (LATEST answer): {:.3}\n",
        result.log.mean_incremental_accuracy().unwrap_or(0.0)
    ));
    out.push_str(&format!(
        "mean incremental latency ms (LATEST answer): {:.3}\n",
        result.log.mean_incremental_latency_ms().unwrap_or(0.0)
    ));
    out
}

/// Fig. 3 — estimator switches on TwQW1 (rotating thirds; α = 0.5).
pub fn fig3(scale: Scale) -> String {
    switching_figure(
        "Fig 3: TwQW1 switches (alpha=0.5)",
        &twqw(1),
        &scale.driver(2_400),
    )
}

/// Fig. 4 — estimator switches on TwQW6 (different block order).
pub fn fig4(scale: Scale) -> String {
    switching_figure(
        "Fig 4: TwQW6 switches (alpha=0.5)",
        &twqw(6),
        &scale.driver(2_400),
    )
}

/// Fig. 5 — estimator switches on EbRQW1 (real spatial requests).
pub fn fig5(scale: Scale) -> String {
    switching_figure(
        "Fig 5: EbRQW1 switches (alpha=0.5)",
        &ebrqw1(),
        &scale.driver(2_000),
    )
}

/// Fig. 6 — TwQW3 with α = 0 (accuracy only).
pub fn fig6(scale: Scale) -> String {
    let mut driver = scale.driver(2_000);
    driver.alpha = 0.0;
    switching_figure("Fig 6: TwQW3 switches (alpha=0)", &twqw(3), &driver)
}

/// Fig. 7 — TwQW3 with α = 1 (latency only).
pub fn fig7(scale: Scale) -> String {
    let mut driver = scale.driver(2_000);
    driver.alpha = 1.0;
    switching_figure("Fig 7: TwQW3 switches (alpha=1)", &twqw(3), &driver)
}

/// Fig. 8 — EbRQW1 with α = 1.
pub fn fig8(scale: Scale) -> String {
    let mut driver = scale.driver(2_000);
    driver.alpha = 1.0;
    switching_figure("Fig 8: EbRQW1 switches (alpha=1)", &ebrqw1(), &driver)
}

/// Fig. 12 — estimator switches on CiQW1 (CheckIn single-keyword).
pub fn fig12(scale: Scale) -> String {
    switching_figure(
        "Fig 12: CiQW1 switches (alpha=0.5)",
        &ciqw1(),
        &scale.driver(2_000),
    )
}

/// Table I — index overhead (Grid / QuadTree exact indexes) vs estimator
/// latency & accuracy, per dataset.
pub fn table1(scale: Scale) -> String {
    let mut out = String::from("== Table I: index overhead comparison ==\n");
    out.push_str("dataset\tindex\tindex_ms\testimator\test_ms\test_accuracy\n");
    let cases: [(&str, WorkloadSpec, &[EstimatorKind], &[EstimatorKind]); 3] = [
        (
            "eBird",
            ebrqw1(),
            &[EstimatorKind::H4096, EstimatorKind::Rsl, EstimatorKind::Rsh],
            &[EstimatorKind::Aasp],
        ),
        (
            "CheckIn",
            ciqw1(),
            &[EstimatorKind::Rsl, EstimatorKind::Rsh],
            &[EstimatorKind::Aasp],
        ),
        (
            // The Twitter rows use the pure-spatial workload so the H4096
            // row is meaningful (the paper's Table I lists H4096 at 75%
            // accuracy, which only a spatial workload can produce).
            "Twitter",
            twqw(2),
            &[EstimatorKind::H4096, EstimatorKind::Rsl, EstimatorKind::Rsh],
            &[EstimatorKind::Aasp],
        ),
    ];
    let n_objects = ((60_000.0 * scale.0) as usize).max(5_000);
    let n_queries = scale.queries(300);
    for (name, spec, grid_estimators, quad_estimators) in cases {
        let dataset = spec.dataset().clone();
        // Build both full indexes and all estimators over the same window.
        let mut grid = ExactExecutor::new(dataset.domain, SpatialIndexKind::Grid);
        let mut quad = ExactExecutor::new(dataset.domain, SpatialIndexKind::Quadtree);
        let est_config = EstimatorConfig {
            domain: dataset.domain,
            // Same sampling fraction the switching experiments use — a
            // reservoir that swallows the whole window would be exact.
            reservoir_capacity: 2_400,
            ..EstimatorConfig::default()
        };
        let mut estimators: Vec<_> = EstimatorKind::ALL
            .iter()
            .map(|&k| build_estimator(k, &est_config))
            .collect();
        let mut gen = dataset.generator();
        for _ in 0..n_objects {
            let obj = gen.next_object();
            grid.insert(&obj);
            quad.insert(&obj);
            for e in &mut estimators {
                e.insert(&obj);
            }
        }
        // Measure the spatial access path of each index and every
        // estimator on the same query set.
        let mut queries = spec.generator();
        let qs: Vec<_> = (0..n_queries).map(|i| queries.query_at(i)).collect();
        let time_index = |ex: &ExactExecutor| {
            let start = Instant::now();
            for q in &qs {
                std::hint::black_box(ex.execute_spatial_path(q));
            }
            start.elapsed().as_secs_f64() * 1_000.0 / qs.len() as f64
        };
        let grid_ms = time_index(&grid);
        let quad_ms = time_index(&quad);
        for (index_name, index_ms, kinds) in [
            ("Grid", grid_ms, grid_estimators),
            ("QuadTree", quad_ms, quad_estimators),
        ] {
            for &kind in kinds {
                let est = &estimators[kind.index() as usize];
                let start = Instant::now();
                let mut acc_sum = 0.0;
                for q in &qs {
                    let e = est.estimate(q);
                    acc_sum += latest_core::estimation_accuracy(e, grid.execute(q));
                }
                // Remove the exact-execution cost from the estimator's
                // timing by re-running the estimate alone.
                let _ = start;
                let t2 = Instant::now();
                for q in &qs {
                    std::hint::black_box(est.estimate(q));
                }
                let est_ms = t2.elapsed().as_secs_f64() * 1_000.0 / qs.len() as f64;
                out.push_str(&format!(
                    "{name}\t{index_name}\t{index_ms:.4}\t{kind}\t{est_ms:.4}\t{:.1}%\n",
                    acc_sum / qs.len() as f64 * 100.0
                ));
            }
        }
    }
    out
}

/// Table II — LATEST's choice at t = 20/60/100 on TwQW3 for α sweeps.
pub fn table2(scale: Scale) -> String {
    let mut out = String::from("== Table II: impact of alpha on TwQW3 ==\n");
    out.push_str("alpha\tt=20\tt=60\tt=100\n");
    for alpha in [0.0, 0.3, 0.5, 0.7, 1.0] {
        let mut driver = scale.driver(1_500);
        driver.alpha = alpha;
        let result = run_workload(&twqw(3), &driver);
        let tl = Timeline::from_result(&result, 10);
        out.push_str(&format!(
            "{alpha}\t{}\t{}\t{}\n",
            tl.active_at(20),
            tl.active_at(60),
            tl.active_at(99)
        ));
    }
    out
}

fn range_sweep(title: &str, spec_fn: impl Fn() -> WorkloadSpec, scale: Scale) -> String {
    let mut out = format!("== {title} ==\n");
    out.push_str("half_extent_deg\testimator\tlatency_ms\taccuracy\tLATEST\n");
    // Half extents as fractions of the domain width (~59°): 0.5%–8%.
    for frac in [0.005, 0.01, 0.02, 0.04, 0.08] {
        let spec = spec_fn();
        let half = spec.dataset().domain.width() * frac;
        let spec = spec.with_fixed_half_extent(half);
        let mut driver = scale.driver(900);
        driver.pretrain_queries = scale.queries(120);
        let result = run_workload(&spec, &driver);
        let means = incremental_means(&result);
        let choice = final_choice(&result);
        for kind in EstimatorKind::ALL {
            let m = means[kind.index() as usize];
            out.push_str(&format!(
                "{half:.2}\t{kind}\t{:.3}\t{:.3}\t{}\n",
                m.latency_ms,
                m.accuracy,
                if kind == choice { "<-- chosen" } else { "" }
            ));
        }
    }
    out
}

/// Fig. 9 — varying spatial range on TwQW1.
///
/// The sweep varies the extent of the range-bearing queries; the paper's
/// reading ("superiority of the H4096 estimator for different spatial
/// ranges") is about those queries, so the harness runs the workload's
/// spatial portion with the swept extent.
pub fn fig9(scale: Scale) -> String {
    let spec_fn = || {
        WorkloadSpec::new("TwQW1-ranges", DatasetSpec::twitter(), 100_000)
            .with_blocks(vec![workloads::Mix::spatial_only()])
    };
    range_sweep("Fig 9: varying spatial ranges on TwQW1", spec_fn, scale)
}

/// Fig. 10 — varying spatial range on TwQW4 (keyword workload; only its
/// hybrid/spatial sweep variant carries ranges, so the sweep fixes the
/// range of the spatial side while keywords stay single).
pub fn fig10(scale: Scale) -> String {
    // TwQW4 is pure keyword; the paper sweeps the spatial range of the
    // corresponding spatial-keyword variant. We follow by running the
    // 50/50 hybrid composition with single keywords.
    let spec_fn = || {
        WorkloadSpec::new("TwQW4-range", DatasetSpec::twitter(), 100_000)
            .with_blocks(vec![workloads::Mix::new(0.0, 0.5, 0.5)])
            .with_keyword_counts(1, 1)
    };
    range_sweep("Fig 10: varying spatial ranges on TwQW4", spec_fn, scale)
}

/// Fig. 11 — varying keyword-set size (1–5) on TwQW5. H4096 is excluded
/// (purely spatial statistics, as in the paper).
pub fn fig11(scale: Scale) -> String {
    let mut out = String::from("== Fig 11: varying keyword set size on TwQW5 ==\n");
    out.push_str("keywords\testimator\tlatency_ms\taccuracy\tLATEST\n");
    for k in 1..=5usize {
        let spec = twqw(5).with_fixed_keyword_count(k);
        let mut driver = scale.driver(900);
        driver.pretrain_queries = scale.queries(120);
        let result = run_workload(&spec, &driver);
        let means = incremental_means(&result);
        let choice = final_choice(&result);
        for kind in EstimatorKind::ALL {
            if kind == EstimatorKind::H4096 {
                continue; // purely spatial statistics (paper §VI-E)
            }
            let m = means[kind.index() as usize];
            out.push_str(&format!(
                "{k}\t{kind}\t{:.3}\t{:.3}\t{}\n",
                m.latency_ms,
                m.accuracy,
                if kind == choice { "<-- chosen" } else { "" }
            ));
        }
    }
    out
}

/// Fig. 13 — varying the estimator memory budget on the Twitter dataset.
pub fn fig13(scale: Scale) -> String {
    let mut out = String::from("== Fig 13: varying memory budget (Twitter) ==\n");
    out.push_str("budget\testimator\tlatency_ms\taccuracy\tLATEST\n");
    for budget in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut driver = scale.driver(800);
        driver.pretrain_queries = scale.queries(120);
        driver.memory_budget = budget;
        let result = run_workload(&twqw(1), &driver);
        let means = incremental_means(&result);
        let choice = final_choice(&result);
        for kind in EstimatorKind::ALL {
            let m = means[kind.index() as usize];
            out.push_str(&format!(
                "{budget}\t{kind}\t{:.3}\t{:.3}\t{}\n",
                m.latency_ms,
                m.accuracy,
                if kind == choice { "<-- chosen" } else { "" }
            ));
        }
    }
    out
}

/// §V-D claim — Hoeffding model accuracy stabilizes with training records.
pub fn model_convergence(scale: Scale) -> String {
    use estimators::EstimatorKind;
    use hoeffding::{HoeffdingTree, HoeffdingTreeConfig};
    use latest_core::QueryProfile;

    let mut out = String::from("== Model convergence: accuracy vs training records ==\n");
    out.push_str("records\tholdout_accuracy\n");
    let config = HoeffdingTreeConfig {
        grace_period: 50,
        split_confidence: 1e-4,
        tie_threshold: 0.25,
        ..HoeffdingTreeConfig::default()
    };
    let mut tree = HoeffdingTree::new(latest_core::features::model_schema(), config);
    // Deterministic mixed query-profile sampler plus a fixed concept the
    // tree must discover: spatial → H4096; keyword → RSH; hybrid → RSL,
    // except tiny hybrid ranges, which favor the list sampler's sibling.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut sample = move || {
        let r = next();
        let qtype = match r % 3 {
            0 => geostream::QueryType::Spatial,
            1 => geostream::QueryType::Keyword,
            _ => geostream::QueryType::Hybrid,
        };
        let keyword_count = if qtype == geostream::QueryType::Spatial {
            0
        } else {
            1 + ((r >> 8) % 5) as usize
        };
        let area_fraction = if qtype == geostream::QueryType::Keyword {
            0.0
        } else {
            1e-5 * (1.0 + ((r >> 16) % 1_000) as f64)
        };
        let profile = QueryProfile {
            query_type: qtype,
            keyword_count,
            area_fraction,
        };
        let label = match qtype {
            geostream::QueryType::Spatial => EstimatorKind::H4096,
            geostream::QueryType::Keyword => EstimatorKind::Rsh,
            geostream::QueryType::Hybrid => {
                if area_fraction < 2e-3 {
                    EstimatorKind::Rsl
                } else {
                    EstimatorKind::Rsh
                }
            }
        };
        (profile, label)
    };
    let total = ((100_000.0 * scale.0) as usize).max(5_000);
    // Log-spaced checkpoints so the early learning curve is visible.
    let mut checkpoints: Vec<usize> = [
        100usize, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    ]
    .into_iter()
    .filter(|&c| c < total)
    .collect();
    checkpoints.push(total);
    let mut trained = 0usize;
    for &cp in &checkpoints {
        while trained < cp {
            let (profile, label) = sample();
            tree.train(&profile.instance(EstimatorKind::Rsh), label.index());
            trained += 1;
        }
        let holdout = 500;
        let mut correct = 0usize;
        for _ in 0..holdout {
            let (profile, label) = sample();
            if tree.predict(&profile.instance(EstimatorKind::Rsh)) == label.index() {
                correct += 1;
            }
        }
        out.push_str(&format!(
            "{trained}\t{:.3}\n",
            correct as f64 / holdout as f64
        ));
    }
    out.push_str(&format!("final tree: {:?}\n", tree.stats()));
    out
}

/// Design-choice ablation: run TwQW1 with each LATEST mechanism disabled
/// in turn, plus every static single-estimator baseline. The gap between
/// "full LATEST" and the rest is the contribution the paper claims.
pub fn ablation(scale: Scale) -> String {
    use latest_core::AblationConfig;
    let mut out = String::from("== Ablation: LATEST design choices on TwQW1 ==\n");
    out.push_str("variant\tmean_accuracy\tmean_latency_ms\tswitches\n");
    let spec = twqw(1);
    let base = scale.driver(1_600);

    let run = |label: &str, ablation: AblationConfig, default: Option<EstimatorKind>| {
        let mut driver = base.clone();
        driver.ablation = ablation;
        // Static baselines do not need shadow measurements.
        let result = if let Some(kind) = default {
            let mut d2 = driver.clone();
            d2.shadow_metrics = false;
            run_workload_with_default(&spec, &d2, kind)
        } else {
            run_workload(&spec, &driver)
        };
        format!(
            "{label}\t{:.3}\t{:.4}\t{}\n",
            result.log.mean_incremental_accuracy().unwrap_or(0.0),
            result.log.mean_incremental_latency_ms().unwrap_or(0.0),
            result.log.switches.len()
        )
    };

    out.push_str(&run("full LATEST", AblationConfig::default(), None));
    out.push_str(&run(
        "no pre-filling (cold switches)",
        AblationConfig {
            prefill: false,
            ..AblationConfig::default()
        },
        None,
    ));
    out.push_str(&run(
        "no Hoeffding tree (EWMA only)",
        AblationConfig {
            use_tree: false,
            ..AblationConfig::default()
        },
        None,
    ));
    out.push_str(&run(
        "next-query recommendation (no mix)",
        AblationConfig {
            mix_recommendation: false,
            ..AblationConfig::default()
        },
        None,
    ));
    for kind in EstimatorKind::ALL {
        out.push_str(&run(
            &format!("static {kind}"),
            AblationConfig {
                switching: false,
                ..AblationConfig::default()
            },
            Some(kind),
        ));
    }
    out
}

/// All experiment names, in paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig3",
    "fig4",
    "fig5",
    "table1",
    "table2",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "model-convergence",
    "ablation",
];

/// Runs one experiment by id.
pub fn run_by_name(name: &str, scale: Scale) -> Option<String> {
    Some(match name {
        "fig3" => fig3(scale),
        "fig4" => fig4(scale),
        "fig5" => fig5(scale),
        "fig6" => fig6(scale),
        "fig7" => fig7(scale),
        "fig8" => fig8(scale),
        "fig9" => fig9(scale),
        "fig10" => fig10(scale),
        "fig11" => fig11(scale),
        "fig12" => fig12(scale),
        "fig13" => fig13(scale),
        "table1" => table1(scale),
        "table2" => table2(scale),
        "model-convergence" => model_convergence(scale),
        "ablation" => ablation(scale),
        _ => return None,
    })
}

/// Convenience wrapper used by integration tests: a small deterministic
/// run of a switching figure.
pub fn smoke_run() -> RunResult {
    run_workload(
        &twqw(1).with_total(200),
        &DriverConfig {
            incremental_queries: 150,
            pretrain_queries: 50,
            objects_per_query: 10,
            reservoir_capacity: 2_000,
            ..DriverConfig::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_by_name_dispatch() {
        assert!(run_by_name("unknown", Scale::default()).is_none());
        assert_eq!(ALL_EXPERIMENTS.len(), 15);
    }

    #[test]
    fn smoke_run_completes() {
        let r = smoke_run();
        assert_eq!(r.log.queries.len(), 200);
    }

    #[test]
    fn table2_small_scale() {
        let out = table2(Scale(0.05));
        assert!(out.contains("alpha"));
        // Five alpha rows plus header.
        assert_eq!(out.lines().count(), 7);
    }
}
