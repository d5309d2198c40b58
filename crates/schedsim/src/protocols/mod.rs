//! Ports of the repo's riskiest real concurrency protocols onto the
//! simulator, each with seeded-bug mutations.
//!
//! Each module mirrors one protocol from the `conc.toml` registry (see
//! DESIGN.md "Concurrency protocols"):
//!
//! * [`eviction`] — the `ShardedLatest` cross-shard eviction clock: relaxed
//!   `fetch_max` watermark plus per-shard `AdvanceTo` broadcasts.
//! * [`prefill`] — the `PrefillBuilder` cancel-flag / promotion handoff
//!   from PR 8's zero-stall estimator switching.
//! * [`tickets`] — the `ServingEngine` submit/poll/wait ticket state
//!   machine (job channel + done-map mutex + condvar).
//! * [`queue`] — the in-tree bounded MPMC FIFO every channel site uses
//!   (mutex + two condvars + disconnect-on-last-drop).
//!
//! Every module exposes `check(mutation, &Config)`: `Mutation::None` must
//! verify exhaustively (no violation, `!truncated`), and each seeded
//! mutation must produce a [`Violation`](crate::sim::Violation) — the
//! regression suite in `tests/protocols.rs` asserts both directions.

pub mod eviction;
pub mod prefill;
pub mod queue;
pub mod tickets;
