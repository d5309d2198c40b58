//! The `ServingEngine` ticket state machine (`serving-tickets` in
//! `conc.toml`).
//!
//! Real shape (`crates/core/src/shard.rs`): `submit` mints a ticket with a
//! relaxed `fetch_add` and sends the job down a bounded channel; workers
//! execute the job, insert the result into a mutex-guarded done-map and
//! `notify_all` the condvar; `wait` re-checks the map in a condvar loop.
//! Correctness claims: tickets are unique, every waiter eventually claims
//! exactly its own result, and the insert→notify protocol can never lose a
//! wakeup (the waiter checks the map *under the same lock* the worker
//! inserts under, and sleeps atomically with the unlock).
//!
//! Model: two client threads (mint ticket, submit, condvar-wait, claim)
//! and one worker draining the job channel. Seeded bug:
//!
//! * [`Mutation::DropNotify`] — the worker inserts the result but never
//!   notifies: the waiter that already went to sleep sleeps forever and the
//!   explorer reports the deadlock interleaving.

use crate::sim::{Config, Ctx, Sim, Stats, Step, Violation};
use crate::sync::{
    MemOrd, RecvOutcome, SendOutcome, SimAtomicU64, SimChannel, SimCondvar, SimMutex,
};

/// Seeded bugs for the mutation suite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    None,
    /// Worker inserts into the done-map without notifying the condvar.
    DropNotify,
}

const CLIENTS: usize = 2;

#[derive(Clone, Hash)]
pub struct State {
    next_ticket: SimAtomicU64,
    jobs: SimChannel<u64>,
    /// Done-map: slot `t` true once ticket `t`'s result is ready.
    done: SimMutex<[bool; CLIENTS]>,
    ready: SimCondvar,
    claimed: [bool; CLIENTS],
    mutated: bool,
}

/// Client: mint a ticket, submit it, then condvar-wait for the result.
fn client(state: &mut State, ctx: &mut Ctx) -> Step {
    match ctx.pc {
        // Ordering note: ticket minting is a relaxed fetch_add — only
        // uniqueness matters; the channel send publishes the job.
        0 => {
            ctx.regs[0] = state.next_ticket.fetch_add(1, MemOrd::Relaxed, ctx);
            ctx.pc = 1;
            Step::Ran
        }
        1 => match state.jobs.try_send(ctx.regs[0], ctx) {
            SendOutcome::Sent => {
                state.jobs.drop_sender();
                ctx.pc = 2;
                Step::Ran
            }
            SendOutcome::Full => Step::Blocked,
        },
        // Wait loop body: under the lock, either claim the result or go to
        // sleep atomically with the unlock (std condvar-wait semantics).
        2 => {
            if !state.done.try_lock(ctx) {
                return Step::Blocked;
            }
            let ticket = ctx.regs[0] as usize;
            let claim = match state.done.data(ctx) {
                Ok(map) => match map.get_mut(ticket) {
                    Some(slot) if *slot => {
                        *slot = false;
                        true
                    }
                    Some(_) => false,
                    None => return Step::Fail(format!("ticket {ticket} out of range")),
                },
                Err(e) => return Step::Fail(e),
            };
            if !claim {
                state.ready.sleep(ctx);
            }
            if let Err(e) = state.done.unlock(ctx) {
                return Step::Fail(e);
            }
            if claim {
                if let Some(c) = state.claimed.get_mut(ticket) {
                    *c = true;
                }
                Step::Done
            } else {
                ctx.pc = 3;
                Step::Ran
            }
        }
        // Asleep until notified, then loop back to re-check under the lock.
        _ => {
            if state.ready.take_wakeup(ctx) {
                ctx.pc = 2;
                Step::Ran
            } else {
                Step::Blocked
            }
        }
    }
}

/// Worker: drain the job channel; per job, insert the result under the
/// lock and notify every waiter.
fn worker(state: &mut State, ctx: &mut Ctx) -> Step {
    match ctx.pc {
        0 => match state.jobs.try_recv(ctx) {
            RecvOutcome::Msg(ticket) => {
                ctx.regs[0] = ticket;
                ctx.pc = 1;
                Step::Ran
            }
            RecvOutcome::Empty => Step::Blocked,
            RecvOutcome::Disconnected => Step::Done,
        },
        _ => {
            if !state.done.try_lock(ctx) {
                return Step::Blocked;
            }
            let ticket = ctx.regs[0] as usize;
            match state.done.data(ctx) {
                Ok(map) => match map.get_mut(ticket) {
                    Some(slot) if *slot => {
                        return Step::Fail(format!("duplicate ticket {ticket} completed twice"));
                    }
                    Some(slot) => *slot = true,
                    None => return Step::Fail(format!("ticket {ticket} out of range")),
                },
                Err(e) => return Step::Fail(e),
            }
            let mutated = state.mutated;
            if !mutated {
                // The lost-wakeup guard: notify while the insert is still
                // ordered under this critical section.
                state.ready.notify_all(ctx);
            }
            if let Err(e) = state.done.unlock(ctx) {
                return Step::Fail(e);
            }
            ctx.pc = 0;
            Step::Ran
        }
    }
}

/// Once quiescent every client must hold exactly its own result and the
/// done-map must be drained.
fn all_claimed(state: &State) -> Result<(), String> {
    if state.claimed.iter().any(|&c| !c) {
        return Err("a submitted ticket was never claimed".into());
    }
    if state.done.peek().iter().any(|&d| d) {
        return Err("done-map retains an unclaimed result".into());
    }
    Ok(())
}

/// Explore the protocol under `mutation`. `Mutation::None` must verify.
pub fn check(mutation: Mutation, cfg: &Config) -> Result<Stats, Violation> {
    let mut sim: Sim<State> = Sim::new();
    sim.spawn("client-a", client)
        .spawn("client-b", client)
        .spawn("worker", worker)
        .terminal_invariant(all_claimed);
    sim.run(
        State {
            next_ticket: SimAtomicU64::new(0),
            jobs: SimChannel::bounded(CLIENTS, CLIENTS as u32),
            done: SimMutex::new([false; CLIENTS]),
            ready: SimCondvar::default(),
            claimed: [false; CLIENTS],
            mutated: mutation == Mutation::DropNotify,
        },
        cfg,
    )
}
