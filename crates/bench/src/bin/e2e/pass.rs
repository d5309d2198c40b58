//! One pass: build the engine, set it up, and drive the workload's rounds
//! from this one thread in a closed loop, timing every public call with
//! its own `Instant` pair. A pass runs in a child process of its own and
//! reports the latency of every call; the parent stitches passes, call
//! by call, into metrics (`stitch.rs`).

use crate::alloc;
use crate::engine::{Facade, FacadeKind};
use crate::inputs::Inputs;
use crate::json::Json;
use crate::probe::{Probe, Sample};
use crate::spec::{
    engine_config, Sizing, Workload, PRETRAIN_BATCH, STORM_KINDS, STORM_PERIOD, WARMUP_BATCH,
};
use crate::trace::Tracer;
use geostream::{GeoTextObject, RcDvq, Timestamp};
use latest_core::{LatestError, PhaseTag, QueryOutcome, ServedBy};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

pub struct PassConfig {
    pub workload: &'static Workload,
    /// The façade driven; the workload's own engine unless this pass is
    /// a rung of the traced run's façade ladder.
    pub facade: FacadeKind,
    pub seed: u64,
    pub sizing: Sizing,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassReport {
    pub rounds: usize,
    /// Latency of every call, in call order. Passes of one invocation
    /// make the same calls, so index `i` is the same call in each.
    /// Set-up: engine construction, warm-up batches, pre-training
    /// batches and queries.
    pub setup_call_ns: Vec<u64>,
    /// Measured phase: one entry per `ingest_batch` (+ `flush`).
    pub ingest_call_ns: Vec<u64>,
    /// Measured phase: one entry per `query`, or per `query_batch` on
    /// `hot-batch`.
    pub query_call_ns: Vec<u64>,
    /// Host-speed probe slices taken between the set-up calls and
    /// between the measured rounds (`probe.rs`).
    pub setup_probe: Sample,
    pub probe: Sample,
    /// Measured objects ingested and queries answered.
    pub objects: u64,
    pub queries: u64,
    /// FNV-1a over every measured outcome, in order.
    pub output_checksum: u64,
    /// The same fold per outcome, cut to 32 bits, so the parent can name
    /// the first query two passes disagree on.
    pub outcome_hashes: Vec<u32>,
    /// Sum of `QueryOutcome::accuracy` over measured queries.
    pub accuracy_sum: f64,
    /// Public calls made (set-up included) and how many went wrong:
    /// `Err` results, estimates that are not finite or lie outside
    /// `[0, window_len]`, and — traced pass only — oracle mismatches.
    pub attempted: u64,
    pub errors: u64,
    pub invalid_estimates: u64,
    pub oracle_checked: u64,
    pub oracle_mismatches: u64,
    /// The first few failures, in words.
    pub failures: Vec<String>,
    pub vm_hwm_kb: u64,
    pub switches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub final_window_len: u64,
}

/// Times one public call. Allocation counters are read outside the
/// `Instant` pair so traced and untraced passes time the same region.
pub struct Call {
    pub start: Instant,
    pub nanos: u64,
    pub allocs: alloc::Counters,
}

fn timed<T>(traced: bool, f: impl FnOnce() -> T) -> (T, Call) {
    let before = if traced {
        alloc::counters()
    } else {
        alloc::Counters::default()
    };
    let start = Instant::now();
    let value = black_box(f());
    let nanos = start.elapsed().as_nanos() as u64;
    let allocs = if traced {
        alloc::counters().since(before)
    } else {
        alloc::Counters::default()
    };
    (
        value,
        Call {
            start,
            nanos,
            allocs,
        },
    )
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The fields of an outcome that must repeat: estimate bits, actual,
/// served-by, estimator kind, switched. (`latency_ms` is wall clock.)
fn outcome_bytes(outcome: &QueryOutcome) -> [u8; 19] {
    let mut bytes = [0u8; 19];
    bytes[..8].copy_from_slice(&outcome.estimate.to_bits().to_le_bytes());
    bytes[8..16].copy_from_slice(&outcome.actual.to_le_bytes());
    bytes[16] = match outcome.served_by {
        ServedBy::Estimator(kind) => kind.index() as u8,
        ServedBy::Exact => 0xe0,
        ServedBy::Cache => 0xc0,
    };
    bytes[17] = outcome.estimator.index() as u8;
    bytes[18] = u8::from(outcome.switched);
    bytes
}

/// What a pass accumulates outside its timed spans.
struct Ledger {
    report: PassReport,
    /// Timestamps of the objects the engine's window must hold: the
    /// bound every estimate is checked against.
    live: VecDeque<Timestamp>,
    span_ms: u64,
}

impl Ledger {
    fn fail(&mut self, what: String) {
        if self.report.failures.len() < 8 {
            self.report.failures.push(what);
        }
    }

    fn ingested(&mut self, batch: &[GeoTextObject], result: Result<(), LatestError>) {
        self.report.attempted += 1;
        if let Err(e) = result {
            self.report.errors += 1;
            self.fail(format!("ingest: {e}"));
        }
        self.live.extend(batch.iter().map(|o| o.timestamp));
        if let Some(now) = self.live.back().copied() {
            let horizon = Timestamp(now.0.saturating_sub(self.span_ms));
            while self.live.front().is_some_and(|t| *t < horizon) {
                self.live.pop_front();
            }
        }
    }

    /// Range-checks one outcome; `measured` ones also enter the
    /// checksum and the accuracy mean.
    fn outcome(&mut self, outcome: &QueryOutcome, measured: bool) {
        let bound = self.live.len() as f64;
        if !(outcome.estimate.is_finite() && (0.0..=bound).contains(&outcome.estimate)) {
            self.report.invalid_estimates += 1;
            self.fail(format!(
                "estimate {} outside [0, {bound}] from {}",
                outcome.estimate,
                outcome.served_by.name()
            ));
        }
        if measured {
            let bytes = outcome_bytes(outcome);
            self.report.output_checksum = fnv1a(self.report.output_checksum, &bytes);
            let own = fnv1a(FNV_OFFSET, &bytes);
            self.report.outcome_hashes.push((own ^ (own >> 32)) as u32);
            self.report.accuracy_sum += outcome.accuracy;
            self.report.queries += 1;
        }
    }

    fn query_error(&mut self, e: &LatestError) {
        self.report.errors += 1;
        self.fail(format!("query: {e}"));
    }
}

/// What one pass hands back: its report and, when a tracer rode along,
/// the per-layer metrics that pass could compute.
pub struct PassOutput {
    pub report: PassReport,
    pub layers: Option<Vec<(String, f64)>>,
    pub spans: u64,
}

/// Runs one pass. With `trace_into`, a [`Tracer`] rides along (and the
/// counting allocator is switched on) and writes its span file there.
pub fn run_pass(config: &PassConfig, trace_into: Option<&Path>) -> PassOutput {
    let workload = config.workload;
    let mut inputs = Inputs::new(config.seed);
    let engine_cfg = engine_config(
        inputs.dataset(),
        &config.sizing,
        config.facade.engine(),
        workload.switching,
    );
    let span = engine_cfg.window_span;
    let rounds = config.sizing.rounds(workload);
    let mut tracer = trace_into.map(|dir| {
        alloc::enable();
        Tracer::new(workload.name, rounds, engine_cfg.clone(), dir)
    });
    let traced = tracer.is_some();
    let mut ledger = Ledger {
        report: PassReport {
            rounds,
            output_checksum: FNV_OFFSET,
            ..PassReport::default()
        },
        live: VecDeque::new(),
        span_ms: span.0,
    };

    // ---- set-up: construction, warm-up, pre-training ----
    let (engine, call) = timed(false, || Facade::new(config.facade, engine_cfg));
    let mut engine = match engine {
        Ok(engine) => engine,
        Err(e) => {
            ledger.report.attempted = 1;
            ledger.report.errors = 1;
            ledger.fail(format!("engine construction: {e}"));
            return PassOutput {
                report: ledger.report,
                layers: None,
                spans: 0,
            };
        }
    };
    ledger.report.setup_call_ns.push(call.nanos);
    let mut probe = Probe::new();
    let mut slice_ns: Vec<u64> = Vec::new();
    let warm_until = Timestamp::ZERO.after(span);
    while inputs.clock() < warm_until {
        let batch = inputs.batch(WARMUP_BATCH);
        probe.slice(&mut slice_ns);
        let (result, call) = timed(false, || engine.ingest(&batch));
        ledger.report.setup_call_ns.push(call.nanos);
        ledger.ingested(&batch, result);
        if let Some(t) = tracer.as_mut() {
            t.setup_ingest(&batch);
        }
    }
    for _ in 0..config.sizing.pretrain_rounds() {
        let batch = inputs.batch(PRETRAIN_BATCH);
        probe.slice(&mut slice_ns);
        let (result, call) = timed(false, || engine.ingest(&batch));
        ledger.report.setup_call_ns.push(call.nanos);
        ledger.ingested(&batch, result);
        if let Some(t) = tracer.as_mut() {
            t.setup_ingest(&batch);
        }
        let query = inputs.query();
        let (result, call) = timed(false, || engine.query(&query));
        ledger.report.setup_call_ns.push(call.nanos);
        ledger.report.attempted += 1;
        match result {
            Ok(outcome) => {
                ledger.outcome(&outcome, false);
                if let Some(t) = tracer.as_mut() {
                    t.setup_query(&query, &outcome);
                }
            }
            Err(e) => ledger.query_error(&e),
        }
    }
    ledger.report.setup_probe = Sample::of(&mut slice_ns);
    slice_ns.clear();
    match engine.phase() {
        Ok(PhaseTag::Incremental) => {}
        other => {
            ledger.report.errors += 1;
            ledger.fail(format!(
                "set-up ended in {other:?}, not the incremental phase"
            ));
        }
    }

    // ---- measured rounds ----
    let mut storm_cursor = 0usize;
    let mut round_queries: Vec<RcDvq> = Vec::new();
    for round in 0..rounds {
        let batch = inputs.batch(workload.ingest_batch);
        // The probe measures the host, so it stays out of the rounds that
        // start while this benchmark's own builder thread is at work on
        // the other vCPU: after a forced prefill, up to its activation.
        let since_forced = (round * workload.queries_per_round) % STORM_PERIOD;
        let building = workload.storm && (1..=STORM_PERIOD / 2).contains(&since_forced);
        if !building {
            probe.slice(&mut slice_ns);
        }
        let (result, call) = timed(traced, || engine.ingest(&batch));
        ledger.report.ingest_call_ns.push(call.nanos);
        ledger.report.objects += batch.len() as u64;
        ledger.ingested(&batch, result);
        if let Some(t) = tracer.as_mut() {
            t.ingest(round, &batch, &call);
        }

        if workload.batched {
            let queries = inputs.hot_batch(workload.queries_per_round);
            let (result, call) = timed(traced, || engine.query_batch(&queries));
            ledger.report.query_call_ns.push(call.nanos);
            ledger.report.attempted += 1;
            match result {
                Ok(outcomes) => {
                    if outcomes.len() != queries.len() {
                        ledger.report.errors += 1;
                        ledger.fail(format!(
                            "query_batch returned {} outcomes for {} queries",
                            outcomes.len(),
                            queries.len()
                        ));
                    }
                    for outcome in &outcomes {
                        ledger.outcome(outcome, true);
                    }
                    if let Some(t) = tracer.as_mut() {
                        t.query_batch(round, &queries, &outcomes, &call);
                    }
                }
                Err(e) => ledger.query_error(&e),
            }
            continue;
        }

        round_queries.clear();
        for k in 0..workload.queries_per_round {
            let index = round * workload.queries_per_round + k;
            let query = inputs.query();
            // switch-storm: the forced prefill and its activation are
            // part of the query slot they fall in, as a natural switch
            // would be.
            let force = (workload.storm && index.is_multiple_of(STORM_PERIOD)).then(|| {
                let active = engine.as_latest().map(|l| l.active_kind());
                let mut kind = STORM_KINDS[storm_cursor % STORM_KINDS.len()];
                if Some(kind) == active {
                    storm_cursor += 1;
                    kind = STORM_KINDS[storm_cursor % STORM_KINDS.len()];
                }
                storm_cursor += 1;
                kind
            });
            let activate = workload.storm && index % STORM_PERIOD == STORM_PERIOD / 2;
            let (result, call) = timed(traced, || {
                if let Some(latest) = engine.as_latest() {
                    if let Some(kind) = force {
                        black_box(latest.debug_force_prefill(kind));
                    }
                    if activate {
                        black_box(latest.debug_activate_prefill());
                    }
                }
                engine.query(&query)
            });
            ledger.report.query_call_ns.push(call.nanos);
            ledger.report.attempted += 1;
            match &result {
                Ok(outcome) => ledger.outcome(outcome, true),
                Err(e) => ledger.query_error(e),
            }
            if let Some(t) = tracer.as_mut() {
                if force.is_some() {
                    t.storm_forced(round);
                }
                if let Ok(outcome) = &result {
                    t.query(round, index, &query, outcome, &call);
                }
            }
            round_queries.push(query);
        }
        if let Some(t) = tracer.as_mut() {
            t.end_round(round, &round_queries);
        }
    }

    ledger.report.probe = Sample::of(&mut slice_ns);
    match engine.metrics_snapshot() {
        Ok(snapshot) => {
            ledger.report.switches = snapshot.adaptor.switches;
            ledger.report.cache_hits = snapshot.cache_hits;
            ledger.report.cache_misses = snapshot.cache_misses;
            ledger.report.final_window_len = snapshot.window.occupancy;
            if let Some(t) = tracer.as_mut() {
                t.finish(&mut engine, &snapshot);
            }
        }
        Err(e) => {
            ledger.report.errors += 1;
            ledger.fail(format!("metrics_snapshot: {e}"));
        }
    }
    if let Some(t) = tracer.as_mut() {
        ledger.report.oracle_checked = t.oracle_checked;
        ledger.report.oracle_mismatches = t.oracle_mismatches;
        for failure in t.oracle_failures.drain(..) {
            ledger.fail(failure);
        }
    }
    drop(engine);
    ledger.report.vm_hwm_kb = vm_hwm_kb();
    PassOutput {
        report: ledger.report,
        spans: tracer.as_ref().map_or(0, |t| t.span_count() as u64),
        layers: tracer.map(|t| t.layers),
    }
}

/// Peak resident set of this process so far, from `/proc/self/status`
/// (0 where that file does not exist).
pub fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

impl PassReport {
    pub fn failed(&self) -> u64 {
        self.errors + self.invalid_estimates + self.oracle_mismatches
    }

    /// Time spent inside measured calls.
    pub fn busy_ns(&self) -> u64 {
        self.ingest_call_ns.iter().chain(&self.query_call_ns).sum()
    }

    pub fn to_json(&self) -> Json {
        let mut hashes = String::with_capacity(self.outcome_hashes.len() * 8);
        for h in &self.outcome_hashes {
            use std::fmt::Write as _;
            let _ = write!(hashes, "{h:08x}");
        }
        let counts = |values: &[u64]| Json::Arr(values.iter().map(|&n| Json::count(n)).collect());
        let sample = |s: Sample| Json::Arr(vec![Json::count(s.median_ns), Json::count(s.slices)]);
        Json::obj([
            ("rounds", Json::count(self.rounds as u64)),
            ("setup_call_ns", counts(&self.setup_call_ns)),
            ("ingest_call_ns", counts(&self.ingest_call_ns)),
            ("query_call_ns", counts(&self.query_call_ns)),
            ("setup_probe", sample(self.setup_probe)),
            ("probe", sample(self.probe)),
            ("objects", Json::count(self.objects)),
            ("queries", Json::count(self.queries)),
            (
                "output_checksum",
                Json::str(format!("{:016x}", self.output_checksum)),
            ),
            ("outcome_hashes", Json::Str(hashes)),
            // Bit pattern, so the sum survives the trip exactly.
            (
                "accuracy_sum_bits",
                Json::str(format!("{:016x}", self.accuracy_sum.to_bits())),
            ),
            ("attempted", Json::count(self.attempted)),
            ("errors", Json::count(self.errors)),
            ("invalid_estimates", Json::count(self.invalid_estimates)),
            ("oracle_checked", Json::count(self.oracle_checked)),
            ("oracle_mismatches", Json::count(self.oracle_mismatches)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("vm_hwm_kb", Json::count(self.vm_hwm_kb)),
            ("switches", Json::count(self.switches)),
            ("cache_hits", Json::count(self.cache_hits)),
            ("cache_misses", Json::count(self.cache_misses)),
            ("final_window_len", Json::count(self.final_window_len)),
        ])
    }

    pub fn from_json(json: &Json) -> Result<PassReport, String> {
        let count = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("pass report: missing count `{key}`"))
        };
        let counts = |key: &str| -> Result<Vec<u64>, String> {
            json.get(key)
                .and_then(Json::as_arr)
                .and_then(|a| a.iter().map(Json::as_u64).collect::<Option<Vec<u64>>>())
                .ok_or_else(|| format!("pass report: missing list `{key}`"))
        };
        let sample = |key: &str| match counts(key)?.as_slice() {
            &[median_ns, slices] => Ok(Sample { median_ns, slices }),
            _ => Err(format!("pass report: `{key}` is not [median_ns, slices]")),
        };
        let hex = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("pass report: missing hex `{key}`"))
        };
        let hashes = json
            .get("outcome_hashes")
            .and_then(Json::as_str)
            .ok_or("pass report: missing `outcome_hashes`")?;
        let outcome_hashes = hashes
            .as_bytes()
            .chunks(8)
            .map(|c| {
                std::str::from_utf8(c)
                    .ok()
                    .and_then(|s| u32::from_str_radix(s, 16).ok())
                    .ok_or_else(|| "pass report: bad `outcome_hashes`".to_string())
            })
            .collect::<Result<Vec<u32>, String>>()?;
        Ok(PassReport {
            rounds: count("rounds")? as usize,
            setup_call_ns: counts("setup_call_ns")?,
            ingest_call_ns: counts("ingest_call_ns")?,
            query_call_ns: counts("query_call_ns")?,
            setup_probe: sample("setup_probe")?,
            probe: sample("probe")?,
            objects: count("objects")?,
            queries: count("queries")?,
            output_checksum: hex("output_checksum")?,
            outcome_hashes,
            accuracy_sum: f64::from_bits(hex("accuracy_sum_bits")?),
            attempted: count("attempted")?,
            errors: count("errors")?,
            invalid_estimates: count("invalid_estimates")?,
            oracle_checked: count("oracle_checked")?,
            oracle_mismatches: count("oracle_mismatches")?,
            failures: json
                .get("failures")
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(Json::as_str)
                        .map(String::from)
                        .collect()
                })
                .unwrap_or_default(),
            vm_hwm_kb: count("vm_hwm_kb")?,
            switches: count("switches")?,
            cache_hits: count("cache_hits")?,
            cache_misses: count("cache_misses")?,
            final_window_len: count("final_window_len")?,
        })
    }
}
