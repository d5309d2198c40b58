//! Report rendering: fold a run log into the series/tables the paper
//! prints.

use crate::driver::RunResult;
use estimators::EstimatorKind;
use latest_core::{PhaseTag, QueryOutcome};

/// Per-estimator mean latency/accuracy within one timeline bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BucketStats {
    pub latency_ms: f64,
    pub accuracy: f64,
    pub samples: usize,
}

/// The paper's `t_0 … t_100` timeline: the incremental phase divided into
/// `buckets` equal slices, with per-estimator shadow measurements averaged
/// per slice and the active estimator recorded.
pub struct Timeline {
    /// `series[estimator][bucket]`.
    pub series: Vec<Vec<BucketStats>>,
    /// The active (dotted-line) estimator of each bucket — the one that
    /// answered the majority of its queries.
    pub active: Vec<EstimatorKind>,
    /// Switch marks as `(bucket position in 0..=100, from, to)`.
    pub switches: Vec<(usize, EstimatorKind, EstimatorKind)>,
    pub buckets: usize,
}

impl Timeline {
    /// Builds the timeline from a run with shadow metrics.
    pub fn from_result(result: &RunResult, buckets: usize) -> Timeline {
        let incremental: Vec<&QueryOutcome> = result.log.incremental().collect();
        let n = incremental.len().max(1);
        let mut sums = vec![vec![(0.0f64, 0.0f64, 0usize); buckets]; EstimatorKind::ALL.len()];
        let mut active_votes = vec![[0usize; 6]; buckets];
        for (i, rec) in incremental.iter().enumerate() {
            let b = (i * buckets / n).min(buckets - 1);
            active_votes[b][rec.estimator.index() as usize] += 1;
            for s in &rec.shadow {
                let cell = &mut sums[s.estimator.index() as usize][b];
                cell.0 += s.latency_ms;
                cell.1 += s.accuracy;
                cell.2 += 1;
            }
        }
        let series = sums
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|(lat, acc, k)| BucketStats {
                        latency_ms: if k > 0 { lat / k as f64 } else { 0.0 },
                        accuracy: if k > 0 { acc / k as f64 } else { 0.0 },
                        samples: k,
                    })
                    .collect()
            })
            .collect();
        let active = active_votes
            .into_iter()
            .map(|votes| {
                let best = votes
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &v)| v)
                    .map(|(i, _)| i as u32)
                    .unwrap_or(0);
                EstimatorKind::from_index(best).expect("valid index")
            })
            .collect();
        // Map switch positions to 0..=100 marks, counted from the first
        // incremental answer.
        let first_seq = result
            .log
            .queries
            .iter()
            .position(|q| q.phase == PhaseTag::Incremental)
            .unwrap_or(0);
        let switches = result
            .log
            .switches
            .iter()
            .map(|&(at, from, to)| {
                let pos = at.saturating_sub(first_seq) * 100 / n;
                (pos.min(100), from, to)
            })
            .collect();
        Timeline {
            series,
            active,
            switches,
            buckets,
        }
    }

    /// Renders the two panels of a switching figure — "(a) latency" and
    /// "(b) accuracy" — as aligned text tables, with the active estimator
    /// per bucket marked `*` (the paper's dotted line).
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {title} ==\n"));
        if !self.switches.is_empty() {
            out.push_str("switches:");
            for (i, (pos, from, to)) in self.switches.iter().enumerate() {
                out.push_str(&format!(" S{}@t{:02}:{}→{}", i + 1, pos, from, to));
            }
            out.push('\n');
        } else {
            out.push_str("switches: none\n");
        }
        for (panel, metric) in [("(a) latency ms", 0usize), ("(b) accuracy", 1)] {
            out.push_str(&format!("{panel}\n"));
            out.push_str("estimator");
            for b in 0..self.buckets {
                out.push_str(&format!("\tt{:<3}", b * 100 / self.buckets));
            }
            out.push('\n');
            for kind in EstimatorKind::ALL {
                out.push_str(kind.name());
                for b in 0..self.buckets {
                    let s = self.series[kind.index() as usize][b];
                    let v = if metric == 0 {
                        s.latency_ms
                    } else {
                        s.accuracy
                    };
                    let mark = if self.active[b] == kind { "*" } else { "" };
                    out.push_str(&format!("\t{v:.3}{mark}"));
                }
                out.push('\n');
            }
        }
        out
    }

    /// The active estimator at a `t` position in `0..=100`.
    pub fn active_at(&self, t: usize) -> EstimatorKind {
        let b = (t * self.buckets / 100).min(self.buckets - 1);
        self.active[b]
    }
}

/// Per-estimator aggregate over the whole incremental phase (used by the
/// sweep figures, where one run contributes one point per estimator).
pub fn incremental_means(result: &RunResult) -> Vec<BucketStats> {
    let mut sums = vec![(0.0f64, 0.0f64, 0usize); EstimatorKind::ALL.len()];
    for rec in result.log.incremental() {
        for s in &rec.shadow {
            let cell = &mut sums[s.estimator.index() as usize];
            cell.0 += s.latency_ms;
            cell.1 += s.accuracy;
            cell.2 += 1;
        }
    }
    sums.into_iter()
        .map(|(lat, acc, k)| BucketStats {
            latency_ms: if k > 0 { lat / k as f64 } else { 0.0 },
            accuracy: if k > 0 { acc / k as f64 } else { 0.0 },
            samples: k,
        })
        .collect()
}

/// The estimator LATEST ended the run on.
pub fn final_choice(result: &RunResult) -> EstimatorKind {
    result
        .log
        .incremental()
        .next_back()
        .map(|q| q.estimator)
        .unwrap_or(EstimatorKind::Rsh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_workload, DriverConfig};
    use workloads::twqw;

    fn result() -> RunResult {
        let spec = twqw(2).with_total(100);
        run_workload(
            &spec,
            &DriverConfig {
                incremental_queries: 80,
                pretrain_queries: 20,
                objects_per_query: 10,
                reservoir_capacity: 2_000,
                ..DriverConfig::default()
            },
        )
    }

    #[test]
    fn timeline_buckets_cover_all_queries() {
        let r = result();
        let tl = Timeline::from_result(&r, 10);
        assert_eq!(tl.active.len(), 10);
        let total: usize = (0..10)
            .map(|b| tl.series[EstimatorKind::Rsh.index() as usize][b].samples)
            .sum();
        assert_eq!(total, 80, "every incremental query lands in a bucket");
    }

    #[test]
    fn render_contains_all_estimators() {
        let r = result();
        let tl = Timeline::from_result(&r, 5);
        let text = tl.render("test");
        for kind in EstimatorKind::ALL {
            assert!(text.contains(kind.name()));
        }
        assert!(text.contains("(a) latency"));
        assert!(text.contains("(b) accuracy"));
    }

    #[test]
    fn means_and_choice() {
        let r = result();
        let means = incremental_means(&r);
        assert_eq!(means.len(), 6);
        assert!(means.iter().all(|m| m.samples == 80));
        // H4096 should have sane accuracy on a pure spatial workload.
        let h = means[EstimatorKind::H4096.index() as usize];
        assert!(
            h.accuracy > 0.5,
            "H4096 accuracy on spatial: {}",
            h.accuracy
        );
        let _ = final_choice(&r);
    }

    #[test]
    fn active_at_maps_positions() {
        let r = result();
        let tl = Timeline::from_result(&r, 10);
        let _ = tl.active_at(0);
        let _ = tl.active_at(100); // clamps, no panic
    }
}
