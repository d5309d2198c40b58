//! From identical passes to metrics that repeat.
//!
//! The host this benchmark was sized on is a 2-vCPU guest that shares its
//! machine: identical passes of one workload ranged 1.5x in throughput
//! within one invocation, and the speed of the moment drifts over
//! minutes. Passes make the same calls on the same inputs, so they can be
//! lined up call by call. Each pass first divides its latencies by its
//! own host-speed factor (`probe.rs`), which takes out most of the drift;
//! then, for each call, the stitched sequence keeps the pass whose
//! normalised latency is the median, which takes out what comes and goes
//! within seconds. Every metric is computed over that sequence.
//!
//! Why per call and not per segment or per pass: in a closed loop driven
//! from one thread on identical inputs, what the engine's own code makes
//! slow — a large rectangle, a resize, a stall behind a build — falls on
//! the same call in every pass and survives the median; what falls on
//! other calls each time is the host. Over 60 identical passes of each
//! workload, groups of five: keeping whole segments of the median pass
//! spread p99 by up to 11 % between groups, the per-call median by
//! 5-6 % (README, "Noise"). Each pass's own p99, with whatever the host
//! did to it, is in `detail`.

use crate::pass::PassReport;
use crate::spec::END_TO_END;

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty() && (0.0..=100.0).contains(&p));
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at 9 990, not at the 9 991 that
    // 9990.000000000002 would round up to.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support reporting percentile `p`: at least ten
/// samples must lie beyond its rank.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

/// Time in the stitched calls of each phase, and the query calls' own.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Times {
    pub setup_ns: u64,
    pub ingest_ns: u64,
    pub query_ns: u64,
    /// Per-call query latencies, ascending.
    pub latencies_ns: Vec<u64>,
}

/// The stitched call sequence of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Stitched {
    /// In reference-host time: what the metrics report.
    pub norm: Times,
    /// The same calls of the same passes as the stopwatch read them: kept
    /// in `detail`.
    pub raw: Times,
    /// How many stitched calls took their value from each pass.
    pub taken_from_pass: Vec<u64>,
}

/// For every call index, the pass whose latency divided by its factor is
/// the median across passes (the lower of the two middle ones when the
/// passes are even in number, so two passes give the faster one): that
/// normalised latency and the raw one it came from.
fn medians(series: &[(&[u64], f64)], taken_from_pass: &mut [u64]) -> Vec<(u64, u64)> {
    let mut column: Vec<(u64, usize)> = Vec::with_capacity(series.len());
    (0..series[0].0.len())
        .map(|call| {
            column.clear();
            column.extend(
                series
                    .iter()
                    .enumerate()
                    .map(|(pass, (latencies, factor))| {
                        ((latencies[call] as f64 / factor).round() as u64, pass)
                    }),
            );
            column.sort_unstable();
            let (value, pass) = column[(column.len() - 1) / 2];
            taken_from_pass[pass] += 1;
            (value, series[pass].0[call])
        })
        .collect()
}

pub fn stitch(passes: &[PassReport]) -> Result<Stitched, String> {
    let first = passes.first().ok_or("no passes to stitch")?;
    for (i, pass) in passes.iter().enumerate() {
        if pass.rounds != first.rounds
            || pass.setup_call_ns.len() != first.setup_call_ns.len()
            || pass.ingest_call_ns.len() != first.ingest_call_ns.len()
            || pass.query_call_ns.len() != first.query_call_ns.len()
        {
            return Err(format!("pass {i} made other calls than pass 0"));
        }
    }
    if first.query_call_ns.is_empty() || first.ingest_call_ns.is_empty() {
        return Err("passes measured no calls".into());
    }
    let mut taken_from_pass = vec![0u64; passes.len()];
    let mut column = |calls: fn(&PassReport) -> &Vec<u64>, factor: fn(&PassReport) -> f64| {
        let series: Vec<(&[u64], f64)> = passes
            .iter()
            .map(|p| (calls(p).as_slice(), factor(p)))
            .collect();
        medians(&series, &mut taken_from_pass)
    };
    let setup = column(|p| &p.setup_call_ns, |p| p.setup_probe.factor());
    let ingest = column(|p| &p.ingest_call_ns, |p| p.probe.factor());
    let query = column(|p| &p.query_call_ns, |p| p.probe.factor());
    let times = |pick: fn(&(u64, u64)) -> u64| {
        let mut latencies_ns: Vec<u64> = query.iter().map(pick).collect();
        let query_ns = latencies_ns.iter().sum();
        latencies_ns.sort_unstable();
        Times {
            setup_ns: setup.iter().map(pick).sum(),
            ingest_ns: ingest.iter().map(pick).sum(),
            query_ns,
            latencies_ns,
        }
    };
    Ok(Stitched {
        norm: times(|pair| pair.0),
        raw: times(|pair| pair.1),
        taken_from_pass,
    })
}

/// All passes must have produced the same outputs. On a disagreement
/// the error names the first measured query the passes differ on.
pub fn check_agreement(passes: &[PassReport]) -> Result<(), String> {
    let Some((first, rest)) = passes.split_first() else {
        return Ok(());
    };
    for (i, pass) in rest.iter().enumerate() {
        if pass.output_checksum == first.output_checksum
            && pass.outcome_hashes.len() == first.outcome_hashes.len()
        {
            continue;
        }
        let at = first
            .outcome_hashes
            .iter()
            .zip(&pass.outcome_hashes)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| first.outcome_hashes.len().min(pass.outcome_hashes.len()));
        return Err(format!(
            "output_checksum differs between pass 0 ({:016x}) and pass {} ({:016x}); first differing query index {at}",
            first.output_checksum,
            i + 1,
            pass.output_checksum
        ));
    }
    Ok(())
}

/// The end-to-end metrics of one workload, in `END_TO_END` order, from
/// passes that agree and the times of their stitched calls.
pub fn end_to_end(passes: &[PassReport], times: &Times) -> Vec<(&'static str, f64)> {
    let first = &passes[0];
    let seconds = |ns: u64| ns as f64 / 1e9;
    END_TO_END
        .iter()
        .map(|metric| {
            let value = match metric.name {
                "setup_s" => seconds(times.setup_ns),
                "ingest_norm_eps" => first.objects as f64 / seconds(times.ingest_ns),
                "query_norm_qps" => first.queries as f64 / seconds(times.query_ns),
                "query_p50_norm_us" => percentile(&times.latencies_ns, 50.0) as f64 / 1e3,
                "query_p99_norm_us" => percentile(&times.latencies_ns, 99.0) as f64 / 1e3,
                "accuracy_mean" => first.accuracy_sum / first.queries as f64,
                "peak_rss_mb" => {
                    // Each pass's `VmHWM` is already its peak; across
                    // passes the median, like every other metric (on
                    // switch-storm one pass in ten peaked 8 % higher,
                    // depending on when the builder freed what).
                    let mut peaks: Vec<u64> = passes.iter().map(|p| p.vm_hwm_kb).collect();
                    peaks.sort_unstable();
                    peaks[(peaks.len() - 1) / 2] as f64 / 1024.0
                }
                other => unreachable!("no definition for end-to-end metric {other}"),
            };
            (metric.name, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Sample;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&values, 50.0), 50);
        assert_eq!(percentile(&values, 99.0), 99);
        assert_eq!(percentile(&values, 100.0), 100);
        assert_eq!(percentile(&values, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        // 15 samples: the median is the 8th, p99 the last.
        let odd: Vec<u64> = (10..25).collect();
        assert_eq!(percentile(&odd, 50.0), 17);
        assert_eq!(percentile(&odd, 99.0), 24);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(supported(1_000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert!(supported(10_000, 99.9));
        assert!(!supported(4_000, 99.9));
        assert!(!supported(0, 50.0));
    }

    /// A pass whose probe ran at `factor` times the reference.
    fn at_speed(mut pass: PassReport, factor: f64) -> PassReport {
        let sample = Sample {
            median_ns: (crate::probe::REFERENCE_SLICE_NS * factor) as u64,
            slices: 10,
        };
        pass.setup_probe = sample;
        pass.probe = sample;
        pass
    }

    fn pass(setup: &[u64], ingest: &[u64], query: &[u64]) -> PassReport {
        PassReport {
            rounds: ingest.len(),
            setup_call_ns: setup.to_vec(),
            ingest_call_ns: ingest.to_vec(),
            query_call_ns: query.to_vec(),
            objects: 100,
            queries: 4,
            output_checksum: 1,
            outcome_hashes: vec![1, 2, 3, 4],
            accuracy_sum: 3.0,
            vm_hwm_kb: 2_048,
            ..PassReport::default()
        }
    }

    #[test]
    fn stitching_keeps_each_calls_median_in_any_pass_order() {
        let a = pass(&[5, 9], &[10, 30], &[4, 6, 20, 40]);
        let b = pass(&[7, 3], &[20, 10], &[15, 25, 5, 10]);
        let c = pass(&[6, 6], &[15, 20], &[9, 21, 9, 31]);
        let forward = stitch(&[a.clone(), b.clone(), c.clone()]).unwrap();
        assert_eq!(forward.norm.setup_ns, 6 + 6);
        assert_eq!(forward.norm.ingest_ns, 15 + 20);
        assert_eq!(forward.norm.query_ns, 9 + 21 + 9 + 31);
        assert_eq!(forward.norm.latencies_ns, vec![9, 9, 21, 31]);
        assert_eq!(forward.taken_from_pass, vec![0, 0, 8]);
        // No probe sample: reference-host time is the stopwatch's.
        assert_eq!(forward.raw, forward.norm);
        let backward = stitch(&[c, b.clone(), a.clone()]).unwrap();
        assert_eq!(backward.taken_from_pass, vec![8, 0, 0]);
        assert_eq!(backward.norm, forward.norm);
        // Two passes: the lower middle value, which is the faster one.
        let two = stitch(&[a.clone(), b.clone()]).unwrap();
        assert_eq!((two.norm.setup_ns, two.norm.ingest_ns), (5 + 3, 10 + 10));
        assert_eq!(two.norm.latencies_ns, vec![4, 5, 6, 10]);

        let metrics = end_to_end(&[a, b], &forward.norm);
        let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("setup_s"), 12e-9);
        assert_eq!(get("ingest_norm_eps"), 100.0 / 35e-9);
        assert_eq!(get("query_norm_qps"), 4.0 / 70e-9);
        assert_eq!(get("query_p50_norm_us"), 0.009);
        assert_eq!(get("accuracy_mean"), 0.75);
        assert_eq!(get("peak_rss_mb"), 2.0);
        assert_eq!(metrics.len(), END_TO_END.len());
    }

    #[test]
    fn a_pass_on_a_slow_host_is_scaled_back_before_the_median() {
        // The same pass measured on a host twice and three times as slow.
        let base = pass(&[10, 20], &[100, 300], &[40, 60, 200, 400]);
        let scaled = |k: u64| {
            let times = |v: &[u64]| v.iter().map(|x| x * k).collect::<Vec<u64>>();
            at_speed(
                pass(
                    &times(&base.setup_call_ns),
                    &times(&base.ingest_call_ns),
                    &times(&base.query_call_ns),
                ),
                k as f64,
            )
        };
        let stitched = stitch(&[scaled(2), at_speed(base.clone(), 1.0), scaled(3)]).unwrap();
        let norm = &stitched.norm;
        assert_eq!(
            (norm.setup_ns, norm.ingest_ns, norm.query_ns),
            (30, 400, 700)
        );
        assert_eq!(norm.latencies_ns, vec![40, 60, 200, 400]);
        // Normalised, the three passes tie, and a tie goes to the middle
        // pass in order: the raw times are the unscaled pass's own.
        assert_eq!(stitched.raw, stitched.norm);
        // With the slowest pass in the middle the raw times are three
        // times larger, the normalised ones the same.
        let reordered = stitch(&[at_speed(base.clone(), 1.0), scaled(3), scaled(2)]).unwrap();
        assert_eq!(reordered.norm, stitched.norm);
        assert_eq!(reordered.raw.query_ns, 2_100);
        assert_eq!(reordered.raw.latencies_ns, vec![120, 180, 600, 1_200]);
    }

    #[test]
    fn passes_that_made_other_calls_do_not_stitch() {
        let a = pass(&[1], &[1], &[1]);
        let b = pass(&[1, 1], &[1], &[1]);
        let c = pass(&[1], &[1], &[1, 1]);
        assert!(stitch(&[a.clone(), b]).is_err());
        assert!(stitch(&[a, c]).is_err());
        assert!(stitch(&[]).is_err());
        assert!(stitch(&[pass(&[1], &[], &[])]).is_err());
    }

    #[test]
    fn disagreement_names_the_first_differing_query() {
        let a = pass(&[1], &[1], &[1]);
        let mut b = a.clone();
        assert!(check_agreement(&[a.clone(), b.clone()]).is_ok());
        b.output_checksum = 2;
        b.outcome_hashes[2] = 99;
        let err = check_agreement(&[a, b]).unwrap_err();
        assert!(err.contains("first differing query index 2"), "{err}");
    }
}
