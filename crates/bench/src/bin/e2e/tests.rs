//! Whole-harness tests: the contract file matches the constants, and a
//! 2 % scale run of every workload — end to end and traced — finishes in
//! seconds, emits every metric and repeats its outputs.

use crate::compare::BENCHMARK_JSON;
use crate::json::Json;
use crate::run::{run_end_to_end, run_traced, Isolation, Options, Outcome};
use crate::spec::{per_layer, Sizing, Workload, END_TO_END, RUN_SECONDS, WORKLOADS};

/// `BENCHMARK.json` as the harness constants define it (all but
/// `command`, which no constant repeats).
fn benchmark_from_constants() -> Vec<(&'static str, Json)> {
    vec![
        ("run_seconds", Json::count(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.contract)
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]
}

#[test]
fn benchmark_json_equals_the_harness_constants() {
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    let file = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = file
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    for (key, expected) in benchmark_from_constants() {
        assert_eq!(
            file.get(key),
            Some(&expected),
            "`{key}` differs from the constants"
        );
    }
    assert_eq!(
        file.get("paths"),
        Some(&Json::Arr(vec![Json::str("crates/bench/src/bin/e2e")]))
    );
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    // The contract wants the largest bound on `setup_s`; the issue wants
    // none past 10 %.
    assert!(setup.bound == largest && largest <= 0.10);
}

fn smoke_options(traced: bool, tag: &str) -> Options {
    Options {
        seed: 5,
        sizing: Sizing {
            scale: 0.02,
            seconds: RUN_SECONDS as f64,
            traced,
        },
        passes: 3,
        isolation: Isolation::InProcess,
        out_dir: std::env::temp_dir().join(format!("e2e-smoke-{tag}-{}", std::process::id())),
    }
}

fn checksum(outcome: &Outcome) -> String {
    outcome
        .detail
        .get("output_checksum")
        .and_then(Json::as_str)
        .expect("detail carries the checksum")
        .to_string()
}

#[test]
fn smoke_every_workload_end_to_end() {
    let all: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let options = smoke_options(false, "e2e");
    let first = run_end_to_end(&all, &options).expect("passes run");
    assert_eq!(first.len(), WORKLOADS.len());
    for outcome in &first {
        assert!(
            outcome.correct,
            "{}: {:?}",
            outcome.workload.name, outcome.problems
        );
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted > 0);
        let names: Vec<&str> = outcome.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", outcome.workload.name);
        for (name, value, _) in &outcome.metrics {
            // In-process passes share one address space, so the peak
            // resident set is the test harness's; everything else must
            // be a positive, finite measurement.
            assert!(
                value.is_finite() && *value > 0.0,
                "{} {name} = {value}",
                outcome.workload.name
            );
        }
        let line = Json::parse(&outcome.contract_line()).expect("contract line parses");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
    // sharded-2 replays steady's inputs: same queries, other answers.
    let of = |name: &str| first.iter().find(|o| o.workload.name == name).unwrap();
    assert_ne!(checksum(of("steady")), checksum(of("sharded-2")));

    // A second invocation repeats every checksum; another seed does not.
    let again = run_end_to_end(&all, &options).expect("passes run");
    let other = run_end_to_end(
        &all,
        &Options {
            seed: 6,
            ..options.clone()
        },
    )
    .expect("passes run");
    for ((a, b), c) in first.iter().zip(&again).zip(&other) {
        assert_eq!(checksum(a), checksum(b), "{}", a.workload.name);
        assert_ne!(checksum(a), checksum(c), "{}", a.workload.name);
        let accuracy = |o: &Outcome| o.metrics.iter().find(|m| m.0 == "accuracy_mean").unwrap().1;
        assert_eq!(accuracy(a).to_bits(), accuracy(b).to_bits());
    }
}

#[test]
fn smoke_every_workload_traced() {
    let options = smoke_options(true, "trace");
    for workload in &WORKLOADS {
        let outcome = run_traced(workload, &options).expect("traced run");
        assert!(outcome.correct, "{}: {:?}", workload.name, outcome.problems);
        let names: Vec<String> = outcome.metrics.iter().map(|(n, _, _)| n.clone()).collect();
        let expected: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", workload.name);
        let get = |name: &str| outcome.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert!(get("trace.overhead_ratio") > 0.0);
        assert!(get("system.attributed_share") > 0.0);
        assert!(get("window.insert_ns_per_obj") > 0.0);
        if workload.name == "hot-batch" {
            assert!(get("cache.hit_ratio") > 0.4, "hot-batch must hit the cache");
        } else {
            assert!(
                get("cache.hit_ratio") < 0.2,
                "{} must miss the cache",
                workload.name
            );
        }
        if workload.storm {
            assert!(get("prefill.switches") >= 1.0);
        }
        let spans = options
            .out_dir
            .join(format!("trace-{}.json", workload.name));
        let text = std::fs::read_to_string(&spans).expect("span file written");
        let file = Json::parse(&text).expect("span file parses");
        let list = file.get("spans").and_then(Json::as_arr).unwrap();
        assert!(list.len() > 100);
        for key in [
            "id", "parent", "layer", "name", "round", "start_ns", "end_ns",
        ] {
            assert!(list[0].get(key).is_some(), "span without `{key}`");
        }
        assert!(
            outcome
                .detail
                .get("oracle_checked")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
    }
    let _ = std::fs::remove_dir_all(&options.out_dir);
}
