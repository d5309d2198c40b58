//! The system log: per-query records, shadow metrics, and switch events.
//!
//! Every figure of the paper's evaluation is a readout of this log — the
//! experiment harness replays a workload through [`crate::Latest`] and then
//! renders the recorded latency/accuracy series and switch marks.

use estimators::EstimatorKind;
use geostream::{Persist, PersistError, PersistReader, PersistWriter, QueryType, Timestamp};

use crate::persist::{persist_kind, persist_query_type, restore_kind, restore_query_type};

/// Which lifetime phase a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseTag {
    WarmUp,
    PreTraining,
    Incremental,
}

impl PhaseTag {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            PhaseTag::WarmUp => "warm-up",
            PhaseTag::PreTraining => "pre-training",
            PhaseTag::Incremental => "incremental",
        }
    }
}

/// Latency/accuracy of one (estimator, query) pair measured in shadow mode
/// (all estimators maintained for plotting, as the paper's figures do).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowSample {
    pub estimator: EstimatorKind,
    pub estimate: f64,
    pub latency_ms: f64,
    pub accuracy: f64,
}

/// One answered estimation query.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Sequence number of the query (0-based, across all phases).
    pub seq: u64,
    /// Virtual stream time when the query arrived.
    pub at: Timestamp,
    pub phase: PhaseTag,
    pub query_type: QueryType,
    /// Estimator that produced the returned answer.
    pub estimator: EstimatorKind,
    pub estimate: f64,
    /// Actual selectivity from the exact executor (the "system logs").
    pub actual: u64,
    pub latency_ms: f64,
    pub accuracy: f64,
    /// Moving-average accuracy right after this query, if warmed up.
    pub monitor_average: Option<f64>,
    /// Per-estimator measurements when shadow mode is on.
    pub shadow: Vec<ShadowSample>,
}

/// One estimator switch performed by the adaptor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchEvent {
    /// Query sequence number at which the switch took effect.
    pub at_seq: u64,
    /// Virtual stream time of the switch.
    pub at: Timestamp,
    pub from: EstimatorKind,
    pub to: EstimatorKind,
    /// Moving-average accuracy that triggered the switch.
    pub trigger_average: f64,
}

/// Append-only log of everything observable about a LATEST run.
#[derive(Debug, Clone, Default)]
pub struct SystemLog {
    pub queries: Vec<QueryRecord>,
    pub switches: Vec<SwitchEvent>,
    /// Query sequence numbers at which prefilling started (diagnostics for
    /// the β knob).
    pub prefill_starts: Vec<u64>,
    /// Query sequence numbers at which a prefill was discarded because
    /// accuracy recovered.
    pub prefill_discards: Vec<u64>,
}

impl SystemLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queries answered in the incremental phase.
    pub fn incremental_queries(&self) -> usize {
        self.queries
            .iter()
            .filter(|q| q.phase == PhaseTag::Incremental)
            .count()
    }

    /// Mean accuracy over incremental-phase queries (the headline score).
    pub fn mean_incremental_accuracy(&self) -> Option<f64> {
        let (sum, n) = self
            .queries
            .iter()
            .filter(|q| q.phase == PhaseTag::Incremental)
            .fold((0.0, 0usize), |(s, n), q| (s + q.accuracy, n + 1));
        (n > 0).then(|| sum / n as f64)
    }

    /// Mean answer latency over incremental-phase queries.
    pub fn mean_incremental_latency_ms(&self) -> Option<f64> {
        let (sum, n) = self
            .queries
            .iter()
            .filter(|q| q.phase == PhaseTag::Incremental)
            .fold((0.0, 0usize), |(s, n), q| (s + q.latency_ms, n + 1));
        (n > 0).then(|| sum / n as f64)
    }

    /// Renders the per-query records as CSV (one row per query; shadow
    /// samples flattened into `<EST>_latency_ms` / `<EST>_accuracy`
    /// columns) — the format external plotting scripts consume.
    pub fn queries_to_csv(&self) -> String {
        use estimators::EstimatorKind;
        let mut out = String::from(
            "seq,at_ms,phase,query_type,estimator,estimate,actual,latency_ms,accuracy,monitor_average",
        );
        for kind in EstimatorKind::ALL {
            out.push_str(&format!(",{kind}_latency_ms,{kind}_accuracy"));
        }
        out.push('\n');
        for q in &self.queries {
            out.push_str(&format!(
                "{},{},{},{},{},{:.6},{},{:.6},{:.6},{}",
                q.seq,
                q.at.millis(),
                q.phase.name(),
                q.query_type.name(),
                q.estimator,
                q.estimate,
                q.actual,
                q.latency_ms,
                q.accuracy,
                q.monitor_average
                    .map(|a| format!("{a:.6}"))
                    .unwrap_or_default(),
            ));
            for kind in EstimatorKind::ALL {
                match q.shadow.iter().find(|s| s.estimator == kind) {
                    Some(s) => out.push_str(&format!(",{:.6},{:.6}", s.latency_ms, s.accuracy)),
                    None => out.push_str(",,"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the switch events as CSV.
    pub fn switches_to_csv(&self) -> String {
        let mut out = String::from("at_seq,at_ms,from,to,trigger_average\n");
        for sw in &self.switches {
            out.push_str(&format!(
                "{},{},{},{},{:.6}\n",
                sw.at_seq,
                sw.at.millis(),
                sw.from,
                sw.to,
                sw.trigger_average
            ));
        }
        out
    }

    /// The sequence of estimators employed over the incremental phase, as
    /// `(starting seq, estimator)` runs.
    pub fn estimator_timeline(&self) -> Vec<(u64, EstimatorKind)> {
        let mut runs = Vec::new();
        for q in self
            .queries
            .iter()
            .filter(|q| q.phase == PhaseTag::Incremental)
        {
            if runs.last().is_none_or(|&(_, kind)| kind != q.estimator) {
                runs.push((q.seq, q.estimator));
            }
        }
        runs
    }
}

impl Persist for PhaseTag {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_u8(match self {
            PhaseTag::WarmUp => 0,
            PhaseTag::PreTraining => 1,
            PhaseTag::Incremental => 2,
        });
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        match r.take_u8("PhaseTag")? {
            0 => Ok(PhaseTag::WarmUp),
            1 => Ok(PhaseTag::PreTraining),
            2 => Ok(PhaseTag::Incremental),
            d => Err(PersistError::Corrupt {
                context: "PhaseTag",
                detail: format!("unknown phase tag {d}"),
            }),
        }
    }
}

impl Persist for ShadowSample {
    fn persist(&self, w: &mut PersistWriter) {
        persist_kind(w, self.estimator);
        w.put_f64(self.estimate);
        w.put_f64(self.latency_ms);
        w.put_f64(self.accuracy);
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        Ok(ShadowSample {
            estimator: restore_kind(r)?,
            estimate: r.take_f64("ShadowSample.estimate")?,
            latency_ms: r.take_f64("ShadowSample.latency_ms")?,
            accuracy: r.take_f64("ShadowSample.accuracy")?,
        })
    }
}

impl Persist for QueryRecord {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_u64(self.seq);
        self.at.persist(w);
        self.phase.persist(w);
        persist_query_type(w, self.query_type);
        persist_kind(w, self.estimator);
        w.put_f64(self.estimate);
        w.put_u64(self.actual);
        w.put_f64(self.latency_ms);
        w.put_f64(self.accuracy);
        self.monitor_average.persist(w);
        self.shadow.persist(w);
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        Ok(QueryRecord {
            seq: r.take_u64("QueryRecord.seq")?,
            at: Timestamp::restore(r)?,
            phase: PhaseTag::restore(r)?,
            query_type: restore_query_type(r)?,
            estimator: restore_kind(r)?,
            estimate: r.take_f64("QueryRecord.estimate")?,
            actual: r.take_u64("QueryRecord.actual")?,
            latency_ms: r.take_f64("QueryRecord.latency_ms")?,
            accuracy: r.take_f64("QueryRecord.accuracy")?,
            monitor_average: Option::<f64>::restore(r)?,
            shadow: Vec::<ShadowSample>::restore(r)?,
        })
    }
}

impl Persist for SwitchEvent {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_u64(self.at_seq);
        self.at.persist(w);
        persist_kind(w, self.from);
        persist_kind(w, self.to);
        w.put_f64(self.trigger_average);
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        Ok(SwitchEvent {
            at_seq: r.take_u64("SwitchEvent.at_seq")?,
            at: Timestamp::restore(r)?,
            from: restore_kind(r)?,
            to: restore_kind(r)?,
            trigger_average: r.take_f64("SwitchEvent.trigger_average")?,
        })
    }
}

impl Persist for SystemLog {
    fn persist(&self, w: &mut PersistWriter) {
        self.queries.persist(w);
        self.switches.persist(w);
        self.prefill_starts.persist(w);
        self.prefill_discards.persist(w);
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        Ok(SystemLog {
            queries: Vec::<QueryRecord>::restore(r)?,
            switches: Vec::<SwitchEvent>::restore(r)?,
            prefill_starts: Vec::<u64>::restore(r)?,
            prefill_discards: Vec::<u64>::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, phase: PhaseTag, estimator: EstimatorKind, accuracy: f64) -> QueryRecord {
        QueryRecord {
            seq,
            at: Timestamp(seq),
            phase,
            query_type: QueryType::Spatial,
            estimator,
            estimate: 10.0,
            actual: 10,
            latency_ms: 1.0,
            accuracy,
            monitor_average: None,
            shadow: Vec::new(),
        }
    }

    #[test]
    fn aggregates_skip_pretraining() {
        let mut log = SystemLog::new();
        log.queries
            .push(record(0, PhaseTag::PreTraining, EstimatorKind::Rsh, 0.1));
        log.queries
            .push(record(1, PhaseTag::Incremental, EstimatorKind::Rsh, 0.8));
        log.queries
            .push(record(2, PhaseTag::Incremental, EstimatorKind::Rsh, 0.6));
        assert_eq!(log.incremental_queries(), 2);
        assert!((log.mean_incremental_accuracy().unwrap() - 0.7).abs() < 1e-12);
        assert!((log.mean_incremental_latency_ms().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_log_aggregates_none() {
        let log = SystemLog::new();
        assert_eq!(log.mean_incremental_accuracy(), None);
        assert_eq!(log.mean_incremental_latency_ms(), None);
        assert!(log.estimator_timeline().is_empty());
    }

    #[test]
    fn timeline_compresses_runs() {
        let mut log = SystemLog::new();
        for (seq, kind) in [
            (0, EstimatorKind::Rsh),
            (1, EstimatorKind::Rsh),
            (2, EstimatorKind::H4096),
            (3, EstimatorKind::H4096),
            (4, EstimatorKind::Rsh),
        ] {
            log.queries
                .push(record(seq, PhaseTag::Incremental, kind, 0.5));
        }
        let timeline = log.estimator_timeline();
        assert_eq!(
            timeline,
            vec![
                (0, EstimatorKind::Rsh),
                (2, EstimatorKind::H4096),
                (4, EstimatorKind::Rsh)
            ]
        );
    }

    #[test]
    fn csv_round_trips_columns() {
        let mut log = SystemLog::new();
        let mut rec = record(3, PhaseTag::Incremental, EstimatorKind::Rsh, 0.8);
        rec.monitor_average = Some(0.75);
        rec.shadow.push(crate::log::ShadowSample {
            estimator: EstimatorKind::H4096,
            estimate: 5.0,
            latency_ms: 0.001,
            accuracy: 0.5,
        });
        log.queries.push(rec);
        log.switches.push(SwitchEvent {
            at_seq: 3,
            at: Timestamp(3),
            from: EstimatorKind::Rsh,
            to: EstimatorKind::H4096,
            trigger_average: 0.6,
        });
        let csv = log.queries_to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let row = lines.next().unwrap();
        assert_eq!(
            header.split(',').count(),
            row.split(',').count(),
            "header/row column mismatch:\n{header}\n{row}"
        );
        assert!(header.contains("H4096_latency_ms"));
        assert!(row.starts_with("3,3,incremental,spatial,RSH,"));
        assert!(row.contains("0.750000"));
        let sw_csv = log.switches_to_csv();
        assert!(sw_csv.lines().nth(1).unwrap().starts_with("3,3,RSH,H4096,"));
    }

    #[test]
    fn phase_names() {
        assert_eq!(PhaseTag::WarmUp.name(), "warm-up");
        assert_eq!(PhaseTag::PreTraining.name(), "pre-training");
        assert_eq!(PhaseTag::Incremental.name(), "incremental");
    }
}
