//! The `PrefillBuilder` cancel/promotion handoff (`prefill-handoff` in
//! `conc.toml`).
//!
//! Real shape (`crates/core/src/pool.rs` + `system/prefill.rs`): the serving side
//! submits a background build, may later *cancel* it (the estimator kind
//! changed again before the build finished) and submit a replacement. The
//! cancel flag is an advisory **relaxed** `AtomicBool` — the builder polls
//! it between chunks and may legitimately miss it, completing and
//! delivering a build that was already obsolete. Correctness therefore
//! lives on the promotion path: the serving side must check the build's
//! generation against the current one *before* swapping it in, because the
//! flag alone proves nothing about what is sitting in the done channel.
//!
//! Model: a serving thread submits generation 1, cancels it, submits
//! generation 2, then drains the done channel promoting only matching
//! generations; a builder thread chunk-polls the cancel flag and delivers
//! finished builds. Seeded bug:
//!
//! * [`Mutation::PromoteBeforeGenCheck`] — the promotion swap happens
//!   before the generation check (the "reorder the cancel-flag check past
//!   the promotion swap" bug): when the builder missed the advisory flag,
//!   the cancelled generation-1 build gets served. The `always` invariant
//!   ("never serve a cancelled generation") catches the exact interleaving.

use crate::sim::{Config, Ctx, Sim, Stats, Step, Violation};
use crate::sync::{MemOrd, RecvOutcome, SendOutcome, SimAtomicBool, SimChannel};

/// Seeded bugs for the mutation suite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    None,
    /// Serving promotes whatever build arrives, checking the generation
    /// only after the swap — too late.
    PromoteBeforeGenCheck,
}

/// Ops each generation's finished build carries (generation × 10, so a
/// wrong promotion is visible in the data, not just the tag).
fn built_ops(gen: u64) -> u64 {
    gen * 10
}

#[derive(Clone, Hash)]
pub struct State {
    /// Job submissions: the generation to build.
    jobs: SimChannel<u64>,
    /// Finished builds: `(generation, ops)`.
    done: SimChannel<(u64, u64)>,
    /// Advisory cancel flag for generation 1 — relaxed on purpose, exactly
    /// like the real `PrefillBuilder::cancel`.
    cancel: SimAtomicBool,
    /// What the serving side currently has active (0 = none yet).
    active_gen: u64,
    active_ops: u64,
    mutated: bool,
}

/// Serving thread: submit gen 1, cancel it, submit gen 2, then drain done
/// messages promoting only the current generation (2).
fn serving(state: &mut State, ctx: &mut Ctx) -> Step {
    match ctx.pc {
        0 => match state.jobs.try_send(1, ctx) {
            SendOutcome::Sent => {
                ctx.pc = 1;
                Step::Ran
            }
            SendOutcome::Full => Step::Blocked,
        },
        // Ordering note: the cancel store is relaxed — it is advisory for
        // the builder only; promotion correctness comes from the
        // generation check below, never from this flag being seen.
        1 => {
            state.cancel.store(true, MemOrd::Relaxed, ctx);
            ctx.pc = 2;
            Step::Ran
        }
        2 => match state.jobs.try_send(2, ctx) {
            SendOutcome::Sent => {
                ctx.pc = 3;
                Step::Ran
            }
            SendOutcome::Full => Step::Blocked,
        },
        3 => {
            state.jobs.drop_sender();
            ctx.pc = 4;
            Step::Ran
        }
        // Drain finished builds until the builder hangs up.
        _ => match state.done.try_recv(ctx) {
            RecvOutcome::Msg((gen, ops)) => {
                if state.mutated {
                    // BUG under test: swap first, notice staleness after.
                    state.active_gen = gen;
                    state.active_ops = ops;
                } else if gen == 2 {
                    state.active_gen = gen;
                    state.active_ops = ops;
                }
                Step::Ran
            }
            RecvOutcome::Empty => Step::Blocked,
            RecvOutcome::Disconnected => Step::Done,
        },
    }
}

/// Builder thread: pull a job, build it in two chunks polling the advisory
/// cancel flag between chunks (generation 1 only — the flag belongs to
/// it), deliver the finished build. `regs[0]` holds the generation.
fn builder(state: &mut State, ctx: &mut Ctx) -> Step {
    match ctx.pc {
        0 => match state.jobs.try_recv(ctx) {
            RecvOutcome::Msg(gen) => {
                ctx.regs[0] = gen;
                ctx.pc = 1;
                Step::Ran
            }
            RecvOutcome::Empty => Step::Blocked,
            RecvOutcome::Disconnected => {
                state.done.drop_sender();
                Step::Done
            }
        },
        // Chunk boundary: a cancelled generation-1 build aborts silently
        // (no done message), exactly like run_job's per-slice poll.
        // Ordering note: the relaxed load may miss a concurrent cancel —
        // the protocol tolerates that by construction.
        1 | 2 => {
            if ctx.regs[0] == 1 && state.cancel.load(MemOrd::Relaxed, ctx) {
                ctx.pc = 0;
                return Step::Ran;
            }
            ctx.pc += 1;
            Step::Ran
        }
        // Deliver the finished build.
        _ => {
            let gen = ctx.regs[0];
            match state.done.try_send((gen, built_ops(gen)), ctx) {
                SendOutcome::Sent => {
                    ctx.pc = 0;
                    Step::Ran
                }
                SendOutcome::Full => Step::Blocked,
            }
        }
    }
}

/// Never serve the cancelled generation: the serving thread cancels gen 1
/// strictly before it starts draining, so any observation of an active
/// gen-1 build means a cancelled build got promoted.
fn never_serve_cancelled(state: &State) -> Result<(), String> {
    if state.active_gen == 1 {
        return Err(format!(
            "cancelled generation-1 build promoted (active ops {})",
            state.active_ops
        ));
    }
    Ok(())
}

/// Once quiescent the replacement build must be live with its full data.
fn replacement_promoted(state: &State) -> Result<(), String> {
    if state.active_gen != 2 || state.active_ops != built_ops(2) {
        return Err(format!(
            "replacement build not promoted: active gen {} ops {}",
            state.active_gen, state.active_ops
        ));
    }
    Ok(())
}

/// Explore the protocol under `mutation`. `Mutation::None` must verify.
pub fn check(mutation: Mutation, cfg: &Config) -> Result<Stats, Violation> {
    let mut sim: Sim<State> = Sim::new();
    sim.spawn("serving", serving)
        .spawn("builder", builder)
        .always_invariant(never_serve_cancelled)
        .terminal_invariant(replacement_promoted);
    sim.run(
        State {
            jobs: SimChannel::bounded(2, 1),
            done: SimChannel::bounded(2, 1),
            cancel: SimAtomicBool::new(false),
            active_gen: 0,
            active_ops: 0,
            mutated: mutation == Mutation::PromoteBeforeGenCheck,
        },
        cfg,
    )
}
