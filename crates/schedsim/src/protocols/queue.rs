//! The in-tree bounded MPMC FIFO (`bounded-queue` in `conc.toml`).
//!
//! Real shape (`crates/core/src/queue.rs`): one mutex guards the item
//! deque and the live-handle counts; `send` sleeps on `not_full` while the
//! queue is at capacity, `recv` sleeps on `not_empty` while it is empty and
//! a sender remains; every push / pop `notify_one`s the opposite condvar,
//! and the **last sender's drop `notify_all`s `not_empty`** so sleeping
//! receivers wake to see the disconnect. Each wait re-checks its condition
//! under the lock it sleeps with, so no wakeup can be lost. Correctness
//! claims: every item is received exactly once, and every receiver returns
//! once the queue is drained and disconnected.
//!
//! Model: one producer pushing `ITEMS` values through a capacity-1 queue
//! and then dropping its handle, two consumers looping on `recv` until
//! `Disconnected`. One step is one critical section. Seeded bug:
//!
//! * [`Mutation::DropDisconnectNotify`] — the last sender's drop skips the
//!   `notify_all`: a receiver that went to sleep on the empty queue sleeps
//!   forever, and the explorer reports the deadlock interleaving.

use crate::sim::{Config, Ctx, Sim, Stats, Step, Violation};
use crate::sync::{SimCondvar, SimMutex};

/// Seeded bugs for the mutation suite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    None,
    /// The last sender drops without waking the sleeping receivers.
    DropDisconnectNotify,
}

const ITEMS: usize = 2;
const CAPACITY: usize = 1;

#[derive(Clone, Hash)]
struct Queue {
    items: Vec<usize>,
    senders: u32,
}

#[derive(Clone, Hash)]
pub struct State {
    queue: SimMutex<Queue>,
    not_empty: SimCondvar,
    not_full: SimCondvar,
    /// How often each item was received.
    received: [u8; ITEMS],
    mutated: bool,
}

/// Producer: `send` each item, then drop the only sender handle.
fn producer(state: &mut State, ctx: &mut Ctx) -> Step {
    match ctx.pc {
        // `send`: push, or go to sleep atomically with the unlock.
        0 => {
            if !state.queue.try_lock(ctx) {
                return Step::Blocked;
            }
            let sent = match state.queue.data(ctx) {
                Ok(q) if q.items.len() < CAPACITY => {
                    q.items.push(ctx.regs[0] as usize);
                    true
                }
                Ok(_) => false,
                Err(e) => return Step::Fail(e),
            };
            if sent {
                state.not_empty.notify_one(ctx);
                ctx.regs[0] += 1;
                ctx.pc = if ctx.regs[0] as usize == ITEMS { 2 } else { 0 };
            } else {
                state.not_full.sleep(ctx);
                ctx.pc = 1;
            }
            unlock(state, ctx, Step::Ran)
        }
        1 => wake(&mut state.not_full, ctx),
        // `Drop for Sender`: the last handle wakes every sleeping receiver.
        _ => {
            if !state.queue.try_lock(ctx) {
                return Step::Blocked;
            }
            match state.queue.data(ctx) {
                Ok(q) => q.senders -= 1,
                Err(e) => return Step::Fail(e),
            }
            if !state.mutated {
                state.not_empty.notify_all(ctx);
            }
            unlock(state, ctx, Step::Done)
        }
    }
}

/// Consumer: `recv` until the queue reports `Disconnected`.
fn consumer(state: &mut State, ctx: &mut Ctx) -> Step {
    if ctx.pc == 1 {
        return wake(&mut state.not_empty, ctx);
    }
    if !state.queue.try_lock(ctx) {
        return Step::Blocked;
    }
    let (item, disconnected) = match state.queue.data(ctx) {
        Ok(q) if q.items.is_empty() => (None, q.senders == 0),
        Ok(q) => (Some(q.items.remove(0)), false),
        Err(e) => return Step::Fail(e),
    };
    match item {
        Some(item) => {
            state.received[item] += 1;
            state.not_full.notify_one(ctx);
        }
        None if disconnected => {}
        None => {
            state.not_empty.sleep(ctx);
            ctx.pc = 1;
        }
    }
    let then = if disconnected { Step::Done } else { Step::Ran };
    unlock(state, ctx, then)
}

/// Ends a critical section; the step's outcome is `then`.
fn unlock(state: &mut State, ctx: &mut Ctx, then: Step) -> Step {
    match state.queue.unlock(ctx) {
        Ok(()) => then,
        Err(e) => Step::Fail(e),
    }
}

/// Asleep on `cv` until a notify reaches this thread, then back to the
/// re-check at pc 0.
fn wake(cv: &mut SimCondvar, ctx: &mut Ctx) -> Step {
    if cv.take_wakeup(ctx) {
        ctx.pc = 0;
        Step::Ran
    } else {
        Step::Blocked
    }
}

/// Once quiescent every item was received exactly once and none is left.
fn all_received_once(state: &State) -> Result<(), String> {
    if state.received.iter().any(|&n| n != 1) {
        return Err(format!("receive counts {:?}, want all 1", state.received));
    }
    if !state.queue.peek().items.is_empty() {
        return Err("the queue retains an item nobody received".into());
    }
    Ok(())
}

/// Explore the protocol under `mutation`. `Mutation::None` must verify.
pub fn check(mutation: Mutation, cfg: &Config) -> Result<Stats, Violation> {
    let mut sim: Sim<State> = Sim::new();
    sim.spawn("producer", producer)
        .spawn("consumer-a", consumer)
        .spawn("consumer-b", consumer)
        .terminal_invariant(all_received_once);
    sim.run(
        State {
            queue: SimMutex::new(Queue {
                items: Vec::new(),
                senders: 1,
            }),
            not_empty: SimCondvar::default(),
            not_full: SimCondvar::default(),
            received: [0; ITEMS],
            mutated: mutation == Mutation::DropDisconnectNotify,
        },
        cfg,
    )
}
