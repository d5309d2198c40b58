//! `e2e check-repeat A.json B.json`: do two sets of runs agree within the
//! bounds `BENCHMARK.json` fixes? Each file is what `--out` accumulates;
//! runs are grouped by workload and compared by their medians, as the
//! driver compares a change with its parent. `accuracy_mean`, which
//! repeats exactly for a seed, is also compared run by run where both
//! files hold the same seed.

use crate::json::Json;
use crate::spec::ACCURACY_PAIRED_ABS;
use std::collections::BTreeMap;

/// `BENCHMARK.json` at the repo root, five levels above this file, as it
/// was when the binary was built.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// What `BENCHMARK.json` fixes: the workloads held to bounds, and the
/// bounds.
pub struct Contract {
    pub workloads: Vec<String>,
    pub bounds: Vec<Bound>,
}

pub fn read_contract(path: Option<&str>) -> Result<Contract, String> {
    let text = match path {
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?,
        None => BENCHMARK_JSON.to_string(),
    };
    let json = Json::parse(&text)?;
    let list = |key: &str| {
        json.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: no `{key}` list"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| Some(w.get("name")?.as_str()?.to_string()))
        .collect::<Option<Vec<String>>>()
        .ok_or("BENCHMARK.json: malformed `workloads` entry")?;
    let bounds = list("end_to_end")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Bound>>>()
        .ok_or("BENCHMARK.json: malformed `end_to_end` entry")?;
    Ok(Contract { workloads, bounds })
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `workload → metric → (seed, value)` in file order, over the untraced
/// runs of a file.
type Table = BTreeMap<String, BTreeMap<String, Vec<(u64, f64)>>>;

fn load(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = json
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no `runs` list"))?;
    let mut table = Table::new();
    for run in runs {
        if run.get("traced") == Some(&Json::Bool(true)) {
            continue;
        }
        if run.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{path}: holds a run that was not correct"));
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: run without a workload"))?;
        let seed = run
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or(format!("{path}: run without a seed"))?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("{path}: run without metrics"))?;
        for (name, value) in metrics {
            let value = value
                .as_f64()
                .ok_or(format!("{path}: {name} is not a number"))?;
            table
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push((seed, value));
        }
    }
    Ok(table)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn check_repeat(a: &str, b: &str, benchmark: Option<&str>) -> Result<bool, String> {
    let contract = read_contract(benchmark)?;
    let (first, second) = (load(a)?, load(b)?);
    let mut all_within = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "bound"
    );
    for (workload, metrics) in &first {
        // Workloads the contract does not list are shown, not judged.
        let judged = contract.workloads.contains(workload);
        for bound in &contract.bounds {
            let pair = metrics
                .get(&bound.name)
                .zip(second.get(workload).and_then(|m| m.get(&bound.name)));
            let Some((a_values, b_values)) = pair else {
                println!("{workload:<14} {:<20} missing from one file", bound.name);
                all_within = false;
                continue;
            };
            let values = |runs: &[(u64, f64)]| runs.iter().map(|r| r.1).collect::<Vec<f64>>();
            let a_median = median(&mut values(a_values));
            let b_median = median(&mut values(b_values));
            // Either direction: the two sets are the same code, so a
            // difference beyond the bound is noise the bound cannot hold.
            let worse = worsening(a_median, b_median, bound.lower_is_better);
            let within = worse.abs() <= bound.bound;
            all_within &= within || !judged;
            println!(
                "{workload:<14} {:<20} {a_median:>14.4} {b_median:>14.4} {:>+8.2}% {:>6.1}%  {}",
                bound.name,
                -worse * 100.0,
                bound.bound * 100.0,
                match (within, judged) {
                    (true, _) => "ok",
                    (false, true) => "BREACH",
                    (false, false) => "beyond (not in BENCHMARK.json)",
                }
            );
            if bound.name == "accuracy_mean" {
                all_within &= accuracy_by_seed(workload, a_values, b_values) || !judged;
            }
        }
    }
    for workload in second.keys().filter(|w| !first.contains_key(*w)) {
        println!("{workload:<14} only in {b}");
        all_within = false;
    }
    Ok(all_within)
}

/// `accuracy_mean` repeats bit for bit for a seed, so runs of equal seed
/// are held to the issue's absolute bound, in either direction. (Medians
/// over different seeds cannot be: the seeds alone spread them further.)
fn accuracy_by_seed(workload: &str, a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    let mut pairs = 0;
    let mut largest = 0.0f64;
    for (seed, first) in a {
        for (_, second) in b.iter().filter(|(s, _)| s == seed) {
            pairs += 1;
            largest = largest.max((first - second).abs());
        }
    }
    if pairs == 0 {
        return true;
    }
    let within = largest <= ACCURACY_PAIRED_ABS;
    println!(
        "{workload:<14} {:<20} {pairs} pairs of equal seed, largest difference {largest:.6} (bound {ACCURACY_PAIRED_ABS} abs)  {}",
        "  paired by seed",
        if within { "ok" } else { "BREACH" }
    );
    within
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_worsening() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn two_files_compare_by_median_against_the_bounds() {
        let dir = std::env::temp_dir().join(format!("e2e-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // One run per value, seeds counting from `first_seed`.
        let write = |name: &str, first_seed: u64, qps: &[f64], accuracy: f64| {
            let runs = qps
                .iter()
                .zip(first_seed..)
                .map(|(&q, seed)| {
                    Json::obj([
                        ("workload", Json::str("steady")),
                        ("seed", Json::count(seed)),
                        ("traced", Json::Bool(false)),
                        ("correct", Json::Bool(true)),
                        (
                            "metrics",
                            Json::obj([
                                ("query_norm_qps", Json::Num(q)),
                                ("accuracy_mean", Json::Num(accuracy)),
                            ]),
                        ),
                    ])
                })
                .collect();
            let path = dir.join(name);
            std::fs::write(&path, Json::obj([("runs", Json::Arr(runs))]).to_pretty()).unwrap();
            path.display().to_string()
        };
        let contract = |workloads: &str| {
            format!(
                r#"{{"workloads": [{workloads}], "end_to_end": [
                {{"name": "query_norm_qps", "unit": "1/ref_s", "better": "higher", "bound": 0.1}},
                {{"name": "accuracy_mean", "unit": "ratio", "better": "higher", "bound": 0.02}}]}}"#
            )
        };
        let bench = dir.join("BENCHMARK.json");
        std::fs::write(&bench, contract(r#"{"name": "steady", "why": "w"}"#)).unwrap();
        let bench = bench.display().to_string();
        let a = write("a.json", 1, &[100.0, 104.0, 98.0], 0.75);
        let near = write("near.json", 1, &[95.0, 97.0, 93.0], 0.75);
        let far = write("far.json", 1, &[80.0, 85.0, 70.0], 0.75);
        assert_eq!(check_repeat(&a, &near, Some(&bench)), Ok(true));
        assert_eq!(check_repeat(&a, &far, Some(&bench)), Ok(false));
        // 0.01 less accurate is inside the 2 % the medians are held to,
        // but not inside the 0.005 runs of equal seed are; with other
        // seeds there is nothing to pair.
        let duller = write("duller.json", 1, &[100.0, 104.0, 98.0], 0.74);
        let elsewhere = write("elsewhere.json", 11, &[100.0, 104.0, 98.0], 0.74);
        assert_eq!(check_repeat(&a, &duller, Some(&bench)), Ok(false));
        assert_eq!(check_repeat(&a, &elsewhere, Some(&bench)), Ok(true));
        // A workload the contract does not list is shown, not judged.
        let unlisted = dir.join("unlisted.json");
        std::fs::write(&unlisted, contract("")).unwrap();
        assert_eq!(
            check_repeat(&a, &far, Some(&unlisted.display().to_string())),
            Ok(true)
        );
        assert!(check_repeat(&a, "/nonexistent.json", Some(&bench)).is_err());
        // The contract built into the binary is the repo's own.
        assert!(read_contract(None)
            .unwrap()
            .workloads
            .contains(&"steady".to_string()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
