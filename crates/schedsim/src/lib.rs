//! schedsim — a zero-dependency bounded model checker (a "mini-loom") for
//! the repo's hand-threaded serving protocols.
//!
//! The real threading layer in `latest-core` is built from `std::thread`,
//! bounded queues, mutexes/condvars, and a handful of atomics whose
//! orderings are justified by comments and cross-checked by `cargo xtask
//! conc`. Static registration proves the *shape* of each protocol; this
//! crate proves the *behaviour*: each risky protocol is ported onto plain
//! data shim types ([`sync::SimMutex`], [`sync::SimAtomicU64`],
//! [`sync::SimChannel`], …) and driven by an exhaustive depth-first
//! scheduler ([`sim::Sim`]) that explores **every interleaving** of the
//! participating threads up to a bound, with state-hash pruning so the
//! search revisits no world twice.
//!
//! The memory model is the usual vector-clock abstraction:
//!
//! * every thread carries a [`clock::VClock`]; every shim operation bumps
//!   the acting thread's component;
//! * `Release` stores publish the writer's clock on the atomic, `Acquire`
//!   loads join it; `Relaxed` stores publish nothing (and break the release
//!   sequence), while relaxed RMWs preserve it — faithful enough to catch
//!   every ordering bug the protocols here could contain;
//! * mutex unlock→lock and channel send→recv edges transfer clocks the same
//!   way.
//!
//! Violations surface as counterexample traces (`thread@pc` per step), so a
//! seeded bug — dropping an `AdvanceTo` broadcast, promoting a cancelled
//! prefill build, losing a condvar notify — fails with the exact
//! interleaving that exposes it. The
//! [`protocols`] module ports the riskiest real protocols and carries those
//! seeded mutations; `tests/protocols.rs` asserts the clean models verify
//! exhaustively and every mutant is caught.

pub mod clock;
pub mod protocols;
pub mod sim;
pub mod sync;
