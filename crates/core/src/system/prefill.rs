//! The §V-D replacement candidate: its slot, its background build and the
//! delta log that catches it up with the live window.

use super::{Latest, Phase};
use crate::config::LatestConfig;
use crate::obsv::{LifecycleEvent, MetricsRegistry, WallTimer};
use crate::pool::{BuiltPrefill, PrefillBuilder, PrefillTicket};
use estimators::{build_estimator, BoxedEstimator, DrawTapes, EstimatorKind};
use geostream::{GeoTextObject, SlidingWindow};

/// One recorded window change for the async-prefill delta log, preserving
/// the batch boundaries of the live maintenance path.
enum DeltaOp {
    Insert(Vec<GeoTextObject>),
    Remove(Vec<GeoTextObject>),
}

/// Ordered tail of window changes recorded while a background prefill
/// build is in flight, replayed into the candidate at hand-off.
///
/// Each op is the exact insert/remove batch the candidate would have
/// received had it been maintained inline, in the same order — so by the
/// `insert_batch`/`remove_batch` state-equivalence contract, snapshot +
/// replay lands the candidate in a state bit-equal to inline maintenance.
/// The log is bounded: once more than `cap` objects have been buffered it
/// flips to `overflowed` (dropping its contents — they can no longer be
/// complete) and the owner restarts the build from a fresh snapshot, so
/// the tail replayed at activation stays short.
pub(super) struct DeltaLog {
    ops: Vec<DeltaOp>,
    /// Objects currently buffered across `ops`.
    objects: usize,
    cap: usize,
    /// Window generation when the snapshot was taken. Read only by the
    /// `debug-invariants` auditor (generation-monotonicity check).
    #[cfg_attr(not(feature = "debug-invariants"), allow(dead_code))]
    snapshot_generation: u64,
    /// Generation stamped on the most recent recorded op (monotonicity is
    /// audited: the log must trail the window, never lead it).
    last_generation: u64,
    overflowed: bool,
}

impl DeltaLog {
    pub(super) fn new(cap: usize, snapshot_generation: u64) -> Self {
        DeltaLog {
            ops: Vec::new(),
            objects: 0,
            cap,
            snapshot_generation,
            last_generation: snapshot_generation,
            overflowed: false,
        }
    }

    fn push(&mut self, op: DeltaOp, len: usize, generation: u64) {
        if len == 0 {
            return;
        }
        self.last_generation = self.last_generation.max(generation);
        if self.overflowed {
            return;
        }
        if self.objects + len > self.cap {
            // Past the cap the log can never be replayed completely;
            // drop the buffer now and let the owner restart the build.
            self.overflowed = true;
            self.ops.clear();
            self.objects = 0;
            return;
        }
        self.ops.push(op);
        self.objects += len;
    }

    pub(super) fn push_insert(&mut self, objs: &[GeoTextObject], generation: u64) {
        self.push(DeltaOp::Insert(objs.to_vec()), objs.len(), generation);
    }

    pub(super) fn push_remove(&mut self, objs: &[GeoTextObject], generation: u64) {
        self.push(DeltaOp::Remove(objs.to_vec()), objs.len(), generation);
    }

    pub(super) fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Objects currently buffered (the delta tail length).
    pub(super) fn objects(&self) -> usize {
        self.objects
    }

    /// Replays the recorded tail into `est`, in recorded order.
    pub(super) fn replay_into(&self, est: &mut BoxedEstimator) {
        for op in &self.ops {
            match op {
                DeltaOp::Insert(objs) => est.insert_batch(objs),
                DeltaOp::Remove(objs) => est.remove_batch(objs),
            }
        }
    }

    /// `debug-invariants` auditor: bounded length, internal count
    /// agreement, and generation monotonicity against the live window.
    #[cfg(feature = "debug-invariants")]
    pub(super) fn audit(&self, window_generation: u64) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        const S: &str = "DeltaLog";
        ensure(self.objects <= self.cap, S, "bounded-length", || {
            format!("{} buffered objects exceed cap {}", self.objects, self.cap)
        })?;
        let counted: usize = self
            .ops
            .iter()
            .map(|op| match op {
                DeltaOp::Insert(o) | DeltaOp::Remove(o) => o.len(),
            })
            .sum();
        ensure(counted == self.objects, S, "count-agreement", || {
            format!(
                "ops hold {counted} objects but the log tracks {}",
                self.objects
            )
        })?;
        ensure(
            self.snapshot_generation <= self.last_generation,
            S,
            "generation-monotonicity",
            || {
                format!(
                    "last recorded generation {} precedes snapshot generation {}",
                    self.last_generation, self.snapshot_generation
                )
            },
        )?;
        ensure(
            self.last_generation <= window_generation,
            S,
            "generation-monotonicity",
            || {
                format!(
                    "recorded generation {} leads the window's {window_generation}",
                    self.last_generation
                )
            },
        )?;
        // `poll_prefill` runs after every window change that pushes here
        // and restarts an overflowed build on the spot, so a slot at rest
        // never holds an overflowed log.
        ensure(!self.overflowed, S, "restarted-at-overflow", || {
            format!(
                "overflowed log (cap {}) outlived the window change that overflowed it",
                self.cap
            )
        })?;
        Ok(())
    }
}

/// The incremental phase's prefill slot: the §V-D replacement candidate in
/// whichever build stage it is in.
pub(super) enum PrefillSlot {
    /// No candidate pending.
    Idle,
    /// A background build is in flight; the delta log records every window
    /// change since its snapshot.
    Building {
        kind: EstimatorKind,
        ticket: PrefillTicket,
        delta: DeltaLog,
        /// Query seq of the adaptor decision that started this build.
        started_seq: u64,
    },
    /// Fully built (and caught up); maintained inline like the active
    /// estimator until activation or discard.
    Ready(BoxedEstimator),
}

impl PrefillSlot {
    /// The candidate kind, if one is pending.
    pub(super) fn kind(&self) -> Option<EstimatorKind> {
        match self {
            PrefillSlot::Idle => None,
            PrefillSlot::Building { kind, .. } => Some(*kind),
            PrefillSlot::Ready(p) => Some(p.kind()),
        }
    }

    pub(super) fn is_idle(&self) -> bool {
        matches!(self, PrefillSlot::Idle)
    }
}

impl Latest {
    /// Builds the slot for a prefill of `rec`, honouring the prefill
    /// ablation. An associated function (not `&mut self`) because every
    /// caller holds the destructured `Phase::Incremental` borrow.
    ///
    /// Takes a structurally shared window snapshot (O(#chunks) `Arc`
    /// handle clones — microseconds at any occupancy, the only
    /// serving-thread cost), hands the build to the background worker, and
    /// opens a delta log at the snapshot's generation.
    pub(super) fn start_prefill_slot(
        window: &mut SlidingWindow,
        builder: &mut PrefillBuilder,
        config: &LatestConfig,
        metrics: &MetricsRegistry,
        rec: EstimatorKind,
        seq: u64,
    ) -> PrefillSlot {
        if !config.ablation.prefill {
            // Ablation: cold replacement, no pre-filling.
            return PrefillSlot::Ready(build_estimator(rec, &config.estimator_config));
        }
        let timer = WallTimer::start();
        let snapshot = window.snapshot();
        let ticket = builder.submit(rec, &config.estimator_config, snapshot);
        // The serving thread pays only for the O(#chunks) snapshot
        // handles; the object sweep happens on the worker.
        metrics.switch_stall_us.record(timer.elapsed_us());
        PrefillSlot::Building {
            kind: rec,
            ticket,
            delta: DeltaLog::new(config.prefill_delta_cap, window.generation()),
            started_seq: seq,
        }
    }

    /// Turns a non-idle prefill slot into an activated candidate. A
    /// `Ready` candidate is handed over as-is; a `Building` one blocks on
    /// the worker and replays the delta tail (the only remaining stall).
    /// Falls back to an inline build from the live window if the worker
    /// died — through the builder's own [`DrawTapes::build`], so the
    /// fallback's candidate is the one the worker would have delivered for
    /// the same window.
    pub(super) fn resolve_candidate(
        slot: PrefillSlot,
        window: &SlidingWindow,
        config: &LatestConfig,
        metrics: &mut MetricsRegistry,
        seq: u64,
    ) -> Option<BoxedEstimator> {
        match slot {
            PrefillSlot::Idle => None,
            PrefillSlot::Ready(p) => Some(p),
            PrefillSlot::Building {
                kind,
                ticket,
                delta,
                ..
            } => {
                // `poll_prefill` restarts an overflowed build at the window
                // change that overflowed it, so activation never meets one.
                debug_assert!(!delta.overflowed(), "overflowed build was not restarted");
                let timer = WallTimer::start();
                let est = match ticket.wait() {
                    Some(built) => Self::promote(built, &delta, kind, seq, metrics),
                    // The worker died mid-build: build inline so the switch
                    // still happens.
                    None => DrawTapes::default().build(
                        kind,
                        &config.estimator_config,
                        &mut window.chunk_slices(),
                    ),
                };
                metrics.switch_stall_us.record(timer.elapsed_us());
                Some(est)
            }
        }
    }

    /// Hands over a build the worker delivered: records its cost, emits
    /// `PrefillCompleted` and replays the delta tail, which leaves the
    /// candidate caught up with the live window.
    fn promote(
        built: BuiltPrefill,
        delta: &DeltaLog,
        kind: EstimatorKind,
        seq: u64,
        metrics: &mut MetricsRegistry,
    ) -> BoxedEstimator {
        metrics.prefill_build_us.record(built.build_us);
        metrics.events.record(LifecycleEvent::PrefillCompleted {
            seq,
            kind,
            build_ms: built.build_us as f64 / 1_000.0,
            snapshot_len: built.snapshot_len,
            delta_len: delta.objects(),
        });
        let mut est = built.estimator;
        delta.replay_into(&mut est);
        est
    }

    /// Drives an in-flight background prefill forward; called after every
    /// window change. Two jobs:
    ///
    /// * **Overflow restart** — the delta log dropped changes, so the
    ///   in-flight snapshot can never be caught up. Cancel the build and
    ///   resubmit from the current window. This is not a new adaptor
    ///   decision, so `prefill_starts` is *not* re-incremented (the
    ///   cancelled counter records the churn).
    /// * **Promotion** — the worker delivered: replay the delta tail and
    ///   promote the candidate to `Ready`, after which it is maintained
    ///   inline exactly like the active estimator.
    pub(super) fn poll_prefill(&mut self) {
        let Phase::Incremental { prefill, .. } = &mut self.phase else {
            return;
        };
        if matches!(&*prefill, PrefillSlot::Building { delta, .. } if delta.overflowed()) {
            if let PrefillSlot::Building {
                kind,
                ticket,
                started_seq,
                ..
            } = std::mem::replace(prefill, PrefillSlot::Idle)
            {
                ticket.cancel();
                self.metrics.prefill_cancelled.inc();
                self.metrics
                    .events
                    .record(LifecycleEvent::PrefillCancelled {
                        seq: started_seq,
                        kind,
                    });
                *prefill = Self::start_prefill_slot(
                    &mut self.window,
                    &mut self.builder,
                    &self.config,
                    &self.metrics,
                    kind,
                    started_seq,
                );
            }
            return;
        }
        if let PrefillSlot::Building {
            kind,
            ticket,
            delta,
            started_seq,
        } = &mut *prefill
        {
            if let Some(built) = ticket.try_take() {
                let timer = WallTimer::start();
                let est = Self::promote(built, delta, *kind, *started_seq, &mut self.metrics);
                self.metrics.switch_stall_us.record(timer.elapsed_us());
                *prefill = PrefillSlot::Ready(est);
            }
        }
    }

    /// Settles an in-flight prefill build into a `Ready` candidate so the
    /// phase is serializable (see the impl-level docs in `system::snapshot`).
    pub(super) fn settle_prefill_for_snapshot(&mut self) {
        let seq = self.queries_seen;
        let Phase::Incremental { prefill, .. } = &mut self.phase else {
            return;
        };
        if matches!(prefill, PrefillSlot::Building { .. }) {
            let slot = std::mem::replace(prefill, PrefillSlot::Idle);
            if let Some(est) =
                Self::resolve_candidate(slot, &self.window, &self.config, &mut self.metrics, seq)
            {
                *prefill = PrefillSlot::Ready(est);
            }
        }
    }
}
