//! The phase machine's transitions (warm-up → pre-training → incremental,
//! §V-C) and the adaptor's three estimator transitions (§V-D): start,
//! discard and activate a prefill, each made when a [`Decision`] asks.
//! An estimator a transition lets go of is retired to the builder.

use super::prefill::PrefillSlot;
use super::{Latest, Phase};
use crate::adaptor::Decision;
use crate::log::PhaseTag;
use crate::obsv::LifecycleEvent;
use crate::pool::EstimatorPool;
use estimators::EstimatorKind;
use geostream::Timestamp;

impl Latest {
    pub(super) fn maybe_leave_warmup(&mut self) {
        if matches!(self.phase, Phase::WarmUp { .. })
            && self.window.now() >= Timestamp::ZERO.after(self.config.warmup)
        {
            let Phase::WarmUp { pool } = std::mem::replace(
                &mut self.phase,
                Phase::PreTraining {
                    pool: EstimatorPool::empty(),
                },
            ) else {
                unreachable!()
            };
            self.phase = Phase::PreTraining { pool };
            self.metrics.events.record(LifecycleEvent::PhaseEntered {
                phase: PhaseTag::PreTraining,
                at: self.window.now(),
            });
        }
    }

    /// Ends pre-training once enough queries were harvested: wipe every
    /// pool estimator except the default, which becomes the active one
    /// (§V-C "all estimation structures are wiped out ... except the one
    /// used at the beginning of the next phase").
    pub(super) fn maybe_finish_pretraining(&mut self) {
        let done = matches!(&self.phase, Phase::PreTraining { .. })
            && self.queries_seen >= self.config.pretrain_queries as u64;
        if !done {
            return;
        }
        let Phase::PreTraining { pool } = std::mem::replace(
            &mut self.phase,
            Phase::WarmUp {
                pool: EstimatorPool::empty(),
            },
        ) else {
            unreachable!()
        };
        let mut active = None;
        let mut shadow = Vec::new();
        for est in pool.into_inner() {
            if est.kind() == self.config.default_estimator {
                active = Some(est);
            } else if self.config.shadow_metrics {
                shadow.push(est);
            } else {
                // Wiped out to keep one live structure.
                self.builder.retire(est);
            }
        }
        self.phase = Phase::Incremental {
            // LINT-ALLOW(no-panic): the loop above inserted every kind, including the default, into the pool
            active: active.expect("default estimator was in the pool"),
            prefill: PrefillSlot::Idle,
            shadow: EstimatorPool::new(shadow),
        };
        self.adaptor.reset_monitor();
        self.metrics.events.record(LifecycleEvent::PhaseEntered {
            phase: PhaseTag::Incremental,
            at: self.window.now(),
        });
    }

    /// The adaptor's first transition (§V-D, below `β·τ`): start
    /// pre-filling `kind` from the live window. `false` when not in the
    /// incremental phase or a prefill is already pending.
    pub(super) fn start_prefill(&mut self, kind: EstimatorKind, seq: u64) -> bool {
        let Phase::Incremental { prefill, .. } = &mut self.phase else {
            return false;
        };
        if !prefill.is_idle() {
            return false;
        }
        *prefill = Self::start_prefill_slot(
            &mut self.window,
            &mut self.builder,
            &self.config,
            &self.metrics,
            kind,
            seq,
        );
        self.metrics.prefill_starts.inc();
        self.metrics
            .events
            .record(LifecycleEvent::PrefillStarted { seq, kind });
        true
    }

    /// The adaptor's second transition (accuracy recovered above `β·τ`):
    /// drop the pending prefill. A built candidate is retired with it: a
    /// later re-entry builds afresh from the window it then finds.
    /// `false` when there is nothing to discard.
    pub(super) fn discard_prefill(&mut self, seq: u64) -> bool {
        let Phase::Incremental { prefill, .. } = &mut self.phase else {
            return false;
        };
        let kind = match std::mem::replace(prefill, PrefillSlot::Idle) {
            PrefillSlot::Idle => return false,
            PrefillSlot::Ready(p) => {
                let kind = p.kind();
                self.builder.retire(p);
                kind
            }
            PrefillSlot::Building { kind, ticket, .. } => {
                ticket.cancel();
                self.metrics.prefill_cancelled.inc();
                self.metrics
                    .events
                    .record(LifecycleEvent::PrefillCancelled { seq, kind });
                kind
            }
        };
        // A cancelled build still counts as a discarded prefill decision,
        // so the counter identity `starts == switches + discards + pending`
        // holds.
        self.metrics.prefill_discards.inc();
        self.metrics
            .events
            .record(LifecycleEvent::PrefillDiscarded { seq, kind });
        true
    }

    /// The adaptor's third transition (below `τ` with a prefill pending):
    /// the candidate becomes the active estimator. A build still in flight
    /// blocks only for the remaining tail — the wait plus the delta
    /// replay. `false` when there is nothing to activate.
    pub(super) fn activate_prefill(
        &mut self,
        seq: u64,
        at: Timestamp,
        trigger_average: f64,
    ) -> bool {
        let Phase::Incremental {
            active,
            prefill,
            shadow,
            ..
        } = &mut self.phase
        else {
            return false;
        };
        let slot = std::mem::replace(prefill, PrefillSlot::Idle);
        let Some(replacement) =
            Self::resolve_candidate(slot, &self.window, &self.config, &mut self.metrics, seq)
        else {
            return false;
        };
        let from = active.kind();
        let to = replacement.kind();
        let old = std::mem::replace(active, replacement);
        if self.config.shadow_metrics {
            // Keep the old estimator measurable in shadow mode, in place
            // of the new one's shadow twin.
            for est in std::mem::replace(shadow, EstimatorPool::empty()).into_inner() {
                if est.kind() == to {
                    self.builder.retire(est);
                } else {
                    shadow.push(est);
                }
            }
            shadow.push(old);
        } else {
            self.builder.retire(old);
        }
        self.metrics.switches.inc();
        self.metrics
            .events
            .record(LifecycleEvent::EstimatorSwitched {
                seq,
                at,
                from,
                to,
                trigger_average,
            });
        self.adaptor.reset_monitor();
        true
    }

    /// Executes the adaptor's decision on query `seq`. Returns whether
    /// the active estimator changed.
    pub(super) fn execute(&mut self, decision: Decision, seq: u64, at: Timestamp) -> bool {
        if decision.retrained {
            self.metrics.tree_retrainings.inc();
            self.metrics
                .events
                .record(LifecycleEvent::TreeRetrained { seq });
        }
        if decision.discard {
            self.discard_prefill(seq);
        }
        if let Some(kind) = decision.start {
            self.start_prefill(kind, seq);
        }
        decision
            .activate
            .is_some_and(|average| self.activate_prefill(seq, at, average))
    }
}
