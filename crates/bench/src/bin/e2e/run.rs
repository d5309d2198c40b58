//! The parent side: schedules passes (each in a child process of its own,
//! one at a time), checks that they agree, stitches them, and prints the
//! result — a block people read, then the one JSON line the driver reads.

use crate::engine::FacadeKind;
use crate::json::Json;
use crate::pass::{run_pass, PassConfig, PassOutput, PassReport};
use crate::spec::{
    per_layer, workload, Sizing, Workload, END_TO_END, LADDER_SCALE, PASSES, RUN_SECONDS,
    TRACE_REFERENCE_PASSES, WORKLOADS,
};
use crate::stitch::{check_agreement, end_to_end, percentile, stitch, supported, Stitched};
use crate::Args;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Where passes run. The binary isolates every pass in a child process
/// (fresh heap, `VmHWM` per pass); unit tests, whose executable is the
/// test harness, run them in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isolation {
    ChildProcess,
    #[cfg(test)]
    InProcess,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub sizing: Sizing,
    pub passes: usize,
    pub isolation: Isolation,
    pub out_dir: PathBuf,
}

impl Options {
    /// Passes one workload's result is made from.
    fn passes_run(&self) -> usize {
        if self.sizing.traced {
            TRACE_REFERENCE_PASSES + 1
        } else {
            self.passes
        }
    }
}

/// One workload's result, ready to print.
pub struct Outcome {
    pub workload: &'static Workload,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Everything else worth keeping: sizes, per-pass values, choices.
    pub detail: Json,
    pub problems: Vec<String>,
}

impl Outcome {
    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::count(self.attempted.max(1))),
            ("failed", Json::count(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::str(*unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .to_line()
    }

    pub fn record(&self, options: &Options) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.name)),
            ("seed", Json::count(options.seed)),
            ("scale", Json::Num(options.sizing.scale)),
            ("seconds", Json::Num(options.sizing.seconds)),
            ("passes", Json::count(options.passes_run() as u64)),
            ("traced", Json::Bool(options.sizing.traced)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::count(self.attempted)),
            ("failed", Json::count(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, _)| (name.clone(), Json::Num(*value)))
                        .collect(),
                ),
            ),
            ("detail", self.detail.clone()),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
        ])
    }

    fn print(&self, options: &Options) {
        println!(
            "== {}{}  seed {}  scale {}  seconds {}  passes {}  host_parallelism {}",
            self.workload.name,
            if options.sizing.traced {
                " (traced)"
            } else {
                ""
            },
            options.seed,
            options.sizing.scale,
            options.sizing.seconds,
            options.passes_run(),
            host_parallelism(),
        );
        println!("  why: {}", self.workload.why);
        if !self.workload.contract {
            println!("  not in BENCHMARK.json: does not repeat on the sizing host, so no bound holds it (README)");
        }
        for (name, value, unit) in &self.metrics {
            let bound = END_TO_END
                .iter()
                .find(|m| m.name == name && self.workload.contract)
                .map_or(String::new(), |m| {
                    format!(
                        "  ({} is better, bound {:.0} %)",
                        m.better.name(),
                        m.bound * 100.0
                    )
                });
            println!("  {name:<44} {value:>16.4} {unit}{bound}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<44} {error_rate:>16.4} ratio  ({} failed of {} attempted)",
            "error_rate", self.failed, self.attempted
        );
        println!("  detail {}", self.detail.to_line());
        for problem in &self.problems {
            println!("  PROBLEM {problem}");
        }
    }
}

pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Directory for span files and scratch snapshots: `e2e/` in the cargo
/// target directory the executable was built into.
fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("e2e")))
        .unwrap_or_else(|| PathBuf::from("target/e2e"))
}

fn sizing_from(args: &Args, traced: bool) -> Result<Sizing, String> {
    let sizing = Sizing {
        scale: args.number("scale", 1.0)?,
        seconds: args.number("seconds", RUN_SECONDS as f64)?,
        traced,
    };
    if !(sizing.scale > 0.0 && sizing.scale <= 4.0) {
        return Err("--scale must be in (0, 4]".into());
    }
    if !(sizing.seconds >= 1.0 && sizing.seconds <= 60.0) {
        return Err("--seconds must be in [1, 60]".into());
    }
    Ok(sizing)
}

pub fn run(args: &Args) -> Result<bool, String> {
    let traced = match args.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let selected: Vec<&'static Workload> = match args.get("workload") {
        // `sharded-2` and `adaptive` hold no bound and run only by name.
        None | Some("all") => WORKLOADS.iter().filter(|w| w.contract).collect(),
        Some(name) => vec![workload(name).ok_or(format!("unknown workload `{name}`"))?],
    };
    let options = Options {
        seed: args.number("seed", 1)?,
        sizing: sizing_from(args, traced)?,
        passes: PASSES,
        isolation: Isolation::ChildProcess,
        out_dir: default_out_dir(),
    };
    let outcomes = if traced {
        selected
            .iter()
            .map(|w| run_traced(w, &options))
            .collect::<Result<Vec<Outcome>, String>>()?
    } else {
        run_end_to_end(&selected, &options)?
    };
    if let Some(path) = args.get("out") {
        append_records(Path::new(path), &outcomes, &options)?;
    }
    for outcome in &outcomes {
        outcome.print(&options);
    }
    // Last, so that the final line of standard output is the newest
    // workload's contract line whatever was printed above.
    for outcome in &outcomes {
        println!("{}", outcome.contract_line());
    }
    Ok(outcomes.iter().all(|o| o.correct))
}

/// `P` passes per workload, round-robin across the workloads so each
/// one's passes are spread over the whole invocation.
pub fn run_end_to_end(
    selected: &[&'static Workload],
    options: &Options,
) -> Result<Vec<Outcome>, String> {
    let mut passes: Vec<Vec<PassReport>> = vec![Vec::new(); selected.len()];
    for _ in 0..options.passes {
        for (reports, workload) in passes.iter_mut().zip(selected) {
            let config = pass_config(workload, workload.engine.into(), options);
            reports.push(execute(&config, false, options)?.report);
        }
    }
    Ok(selected
        .iter()
        .zip(&passes)
        .map(|(workload, reports)| summarize(workload, reports))
        .collect())
}

fn pass_config(workload: &'static Workload, facade: FacadeKind, options: &Options) -> PassConfig {
    PassConfig {
        workload,
        facade,
        seed: options.seed,
        sizing: options.sizing,
    }
}

/// Failure counts and problems shared by both kinds of run.
fn audit(reports: &[PassReport], problems: &mut Vec<String>) -> (u64, u64) {
    if let Err(e) = check_agreement(reports) {
        problems.push(e);
    }
    for (i, report) in reports.iter().enumerate() {
        for failure in &report.failures {
            problems.push(format!("pass {i}: {failure}"));
        }
    }
    // Passes repeat the same calls; report the worst one's counts.
    let attempted = reports.iter().map(|r| r.attempted).max().unwrap_or(0);
    let failed = reports.iter().map(PassReport::failed).max().unwrap_or(0);
    (attempted, failed)
}

fn hex(n: u64) -> Json {
    Json::str(format!("{n:016x}"))
}

fn summarize(workload: &'static Workload, reports: &[PassReport]) -> Outcome {
    let mut problems = Vec::new();
    let (attempted, failed) = audit(reports, &mut problems);
    let (metrics, detail) = match stitch(reports) {
        Ok(stitched) => {
            let metrics = end_to_end(reports, &stitched.norm)
                .into_iter()
                .zip(END_TO_END)
                .map(|((name, value), def)| (name.to_string(), value, def.unit))
                .collect();
            (metrics, end_to_end_detail(reports, &stitched))
        }
        Err(e) => {
            problems.push(e);
            (Vec::new(), Json::Null)
        }
    };
    Outcome {
        workload,
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        detail,
        problems,
    }
}

fn end_to_end_detail(reports: &[PassReport], stitched: &Stitched) -> Json {
    let first = &reports[0];
    let calls = stitched.norm.latencies_ns.len();
    let raw = &stitched.raw;
    let seconds = |ns: u64| ns as f64 / 1e9;
    let counts = |values: &[u64]| Json::Arr(values.iter().map(|&n| Json::count(n)).collect());
    let per_pass = |f: &dyn Fn(&PassReport) -> f64| {
        Json::Arr(reports.iter().map(|r| Json::Num(f(r))).collect())
    };
    let sum = |values: &[u64]| values.iter().sum::<u64>() as f64 / 1e9;
    let mut detail = vec![
        ("host_parallelism", Json::count(host_parallelism() as u64)),
        ("rounds", Json::count(first.rounds as u64)),
        ("objects", Json::count(first.objects)),
        ("queries", Json::count(first.queries)),
        ("query_calls", Json::count(calls as u64)),
        ("output_checksum", hex(first.output_checksum)),
        ("switches", Json::count(first.switches)),
        ("cache_hits", Json::count(first.cache_hits)),
        ("cache_misses", Json::count(first.cache_misses)),
        ("final_window_len", Json::count(first.final_window_len)),
        ("calls_taken_from_pass", counts(&stitched.taken_from_pass)),
        // The timing metrics as the stopwatch read them — the same
        // calls of the same passes, not divided by anything — and the
        // factors each pass was divided by.
        (
            "raw",
            Json::obj([
                ("setup_s", Json::Num(seconds(raw.setup_ns))),
                (
                    "ingest_eps",
                    Json::Num(first.objects as f64 / seconds(raw.ingest_ns)),
                ),
                (
                    "query_qps",
                    Json::Num(first.queries as f64 / seconds(raw.query_ns)),
                ),
                (
                    "query_p50_us",
                    Json::Num(percentile(&raw.latencies_ns, 50.0) as f64 / 1e3),
                ),
                (
                    "query_p99_us",
                    Json::Num(percentile(&raw.latencies_ns, 99.0) as f64 / 1e3),
                ),
            ]),
        ),
        (
            "pass_setup_host_factor",
            per_pass(&|r| r.setup_probe.factor()),
        ),
        ("pass_host_factor", per_pass(&|r| r.probe.factor())),
        ("pass_setup_s", per_pass(&|r| sum(&r.setup_call_ns))),
        (
            "pass_ingest_eps",
            per_pass(&|r| r.objects as f64 / sum(&r.ingest_call_ns)),
        ),
        (
            "pass_query_qps",
            per_pass(&|r| r.queries as f64 / sum(&r.query_call_ns)),
        ),
        // Each pass's own p99 over all its calls, host and all: the
        // tail a caller saw, which the per-call median filters.
        (
            "pass_query_p99_us",
            per_pass(&|r| {
                let mut latencies = r.query_call_ns.clone();
                latencies.sort_unstable();
                percentile(&latencies, 99.0) as f64 / 1e3
            }),
        ),
        ("pass_rss_mb", per_pass(&|r| r.vm_hwm_kb as f64 / 1024.0)),
    ];
    // p999 is reported only where ten samples lie beyond it.
    if supported(calls, 99.9) {
        detail.push((
            "query_p999_norm_us",
            Json::Num(percentile(&stitched.norm.latencies_ns, 99.9) as f64 / 1e3),
        ));
    }
    if !supported(calls, 99.0) {
        detail.push(("p99_undersampled", Json::Bool(true)));
    }
    Json::obj(detail)
}

/// A `--trace 1` run of one workload: untraced reference passes, one
/// traced pass, and the façade ladder, all at the traced sizing.
pub fn run_traced(workload: &'static Workload, options: &Options) -> Result<Outcome, String> {
    let steal_before = steal_ticks();
    let config = pass_config(workload, workload.engine.into(), options);
    let mut reports = Vec::new();
    for _ in 0..TRACE_REFERENCE_PASSES {
        reports.push(execute(&config, false, options)?.report);
    }
    let traced = execute(&config, true, options)?;
    let ladder = run_ladder(options)?;
    let steal_after = steal_ticks();

    let mut problems = ladder.problems;
    let reference = stitch(&reports).map_err(|e| format!("reference passes: {e}"))?;
    let reference_busy = reference.raw.ingest_ns + reference.raw.query_ns;
    let pass_busy: Vec<u64> = reports.iter().map(PassReport::busy_ns).collect();
    let mut values: Vec<(String, f64)> = traced.layers.unwrap_or_default();
    values.extend(ladder.metrics);
    values.push((
        "trace.overhead_ratio".into(),
        traced.report.busy_ns() as f64 / reference_busy.max(1) as f64,
    ));
    values.push((
        "host.pass_spread".into(),
        *pass_busy.iter().max().unwrap_or(&0) as f64
            / (*pass_busy.iter().min().unwrap_or(&1)).max(1) as f64,
    ));
    // USER_HZ is 100 on every Linux this runs on: 10 ms per tick.
    values.push((
        "host.steal_ms".into(),
        steal_after.saturating_sub(steal_before) as f64 * 10.0,
    ));

    // The traced pass must have produced the reference passes' outputs.
    reports.push(traced.report);
    let (attempted, failed) = audit(&reports, &mut problems);
    let mut metrics = Vec::new();
    for def in per_layer() {
        match values.iter().find(|(name, _)| *name == def.name) {
            Some((_, value)) if value.is_finite() => metrics.push((def.name, *value, def.unit)),
            Some((_, value)) => problems.push(format!("{} is {value}", def.name)),
            None => problems.push(format!("{} was not measured", def.name)),
        }
    }
    let traced_report = reports.last().expect("traced report was pushed");
    let detail = Json::obj([
        ("host_parallelism", Json::count(host_parallelism() as u64)),
        ("rounds", Json::count(traced_report.rounds as u64)),
        ("spans", Json::count(traced.spans)),
        ("oracle_checked", Json::count(traced_report.oracle_checked)),
        ("output_checksum", hex(traced_report.output_checksum)),
        ("ladder", ladder.detail),
        (
            "span_file",
            Json::str(
                options
                    .out_dir
                    .join(format!("trace-{}.json", workload.name))
                    .display()
                    .to_string(),
            ),
        ),
    ]);
    Ok(Outcome {
        workload,
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        detail,
        problems,
    })
}

struct Ladder {
    metrics: Vec<(String, f64)>,
    detail: Json,
    problems: Vec<String>,
}

/// Replays the first rounds of `steady` through every serving façade,
/// two passes per rung (stitching two keeps each call's faster one), and
/// prices the hops between rungs.
fn run_ladder(options: &Options) -> Result<Ladder, String> {
    let steady = workload("steady").expect("steady is a workload");
    let options = &Options {
        sizing: Sizing {
            scale: options.sizing.scale * LADDER_SCALE,
            ..options.sizing
        },
        ..options.clone()
    };
    let mut problems = Vec::new();
    let mut rungs: Vec<(FacadeKind, f64, f64, u64)> = Vec::new();
    for facade in FacadeKind::LADDER {
        let config = pass_config(steady, facade, options);
        let reports = [
            execute(&config, false, options)?.report,
            execute(&config, false, options)?.report,
        ];
        let _ = audit(&reports, &mut problems);
        let stitched = stitch(&reports)
            .map_err(|e| format!("ladder {}: {e}", facade.name()))?
            .norm;
        let query_us = stitched.query_ns as f64 / reports[0].queries.max(1) as f64 / 1e3;
        let ingest_ns = stitched.ingest_ns as f64 / reports[0].objects.max(1) as f64;
        rungs.push((facade, query_us, ingest_ns, reports[0].output_checksum));
    }
    let rung = |kind: FacadeKind| {
        rungs
            .iter()
            .find(|r| r.0 == kind)
            .copied()
            .expect("every ladder rung ran")
    };
    let latest = rung(FacadeKind::Latest);
    let shared = rung(FacadeKind::SharedLatest);
    let one = rung(FacadeKind::Sharded(1));
    let two = rung(FacadeKind::Sharded(2));
    let serving = rung(FacadeKind::Serving);
    // tests/sharding_equivalence.rs proves these rungs bit-equal.
    for (kind, _, _, checksum) in [shared, one, serving] {
        if checksum != latest.3 {
            problems.push(format!(
                "ladder rung {} answered differently from latest ({checksum:016x} vs {:016x})",
                kind.name(),
                latest.3
            ));
        }
    }
    Ok(Ladder {
        metrics: vec![
            ("shard.hop_query_us".into(), one.1 - latest.1),
            ("shard.hop_ingest_ns_per_obj".into(), one.2 - latest.2),
            ("shard.query_2v1_ratio".into(), two.1 / one.1),
            ("concurrent.shared_query_us".into(), shared.1 - latest.1),
            ("serving.ticket_us".into(), serving.1 - one.1),
        ],
        detail: Json::Arr(
            rungs
                .iter()
                .map(|(kind, query_us, ingest_ns, checksum)| {
                    Json::obj([
                        ("rung", Json::str(kind.name())),
                        ("query_us", Json::Num(*query_us)),
                        ("ingest_ns_per_obj", Json::Num(*ingest_ns)),
                        ("output_checksum", hex(*checksum)),
                    ])
                })
                .collect(),
        ),
        problems,
    })
}

/// Cumulative steal time of all CPUs, in clock ticks (0 where
/// `/proc/stat` does not exist).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?;
            line.strip_prefix("cpu ")?
                .split_whitespace()
                .nth(7)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

fn execute(config: &PassConfig, tracer: bool, options: &Options) -> Result<PassOutput, String> {
    match options.isolation {
        #[cfg(test)]
        Isolation::InProcess => Ok(run_pass(config, tracer.then_some(&options.out_dir))),
        Isolation::ChildProcess => spawn_pass(config, tracer, &options.out_dir),
    }
}

fn spawn_pass(config: &PassConfig, tracer: bool, out_dir: &Path) -> Result<PassOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("pass")
        .args(["--workload", config.workload.name])
        .args(["--facade", &config.facade.name()])
        .args(["--seed", &config.seed.to_string()])
        .args(["--seconds", &config.sizing.seconds.to_string()])
        .args(["--scale", &config.sizing.scale.to_string()])
        .args(["--traced", if config.sizing.traced { "1" } else { "0" }])
        .args(["--tracer", if tracer { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a pass: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "pass of {} ended with {}",
            config.workload.name, output.status
        ));
    }
    let stdout = String::from_utf8(output.stdout).map_err(|_| "pass output is not UTF-8")?;
    let line = stdout.lines().last().ok_or("pass printed nothing")?;
    let json = Json::parse(line)?;
    let report = PassReport::from_json(json.get("report").ok_or("pass output: no report")?)?;
    let layers = json.get("layers").and_then(Json::as_obj).map(|pairs| {
        pairs
            .iter()
            .filter_map(|(name, value)| Some((name.clone(), value.as_f64()?)))
            .collect()
    });
    Ok(PassOutput {
        report,
        layers,
        spans: json.get("spans").and_then(Json::as_u64).unwrap_or(0),
    })
}

/// `e2e pass …`: one pass in this process, its report on standard output.
pub fn child_pass(args: &Args) -> Result<bool, String> {
    let name = args.get("workload").ok_or("pass: --workload is required")?;
    let workload = workload(name).ok_or(format!("unknown workload `{name}`"))?;
    let facade = match args.get("facade") {
        None => workload.engine.into(),
        Some(name) => FacadeKind::parse(name).ok_or(format!("unknown facade `{name}`"))?,
    };
    let config = PassConfig {
        workload,
        facade,
        seed: args.number("seed", 1)?,
        sizing: sizing_from(args, args.get("traced") == Some("1"))?,
    };
    let out_dir = args
        .get("out-dir")
        .map_or_else(default_out_dir, PathBuf::from);
    let output = run_pass(
        &config,
        (args.get("tracer") == Some("1")).then_some(out_dir.as_path()),
    );
    let layers = output.layers.map_or(Json::Null, |layers| {
        Json::Obj(layers.into_iter().map(|(k, v)| (k, Json::Num(v))).collect())
    });
    println!(
        "{}",
        Json::obj([
            ("report", output.report.to_json()),
            ("layers", layers),
            ("spans", Json::count(output.spans)),
        ])
        .to_line()
    );
    Ok(true)
}

/// Appends this invocation's records to a `{"runs": [...]}` file, so a
/// set of runs (workloads × seeds) accumulates in one place for
/// `check-repeat`.
fn append_records(path: &Path, outcomes: &[Outcome], options: &Options) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)?
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or(format!("{}: no `runs` list", path.display()))?
            .to_vec(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    runs.extend(outcomes.iter().map(|o| o.record(options)));
    std::fs::write(path, Json::obj([("runs", Json::Arr(runs))]).to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))
}
