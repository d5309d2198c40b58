//! The schedsim regression suite: every ported protocol verifies
//! exhaustively in its unmutated form, and every seeded bug is caught with
//! a counterexample interleaving. This is the dynamic half of the
//! concurrency gate (`cargo xtask conc` is the static half); CI's `conc`
//! job runs both.

use schedsim::protocols::{eviction, prefill, queue, tickets};
use schedsim::sim::{Config, Stats, Violation, ViolationKind};

fn cfg() -> Config {
    Config {
        max_depth: 256,
        max_states: 1 << 21,
        check_deadlock: true,
    }
}

fn assert_proved(what: &str, r: Result<Stats, Violation>) -> Stats {
    match r {
        Ok(stats) => {
            assert!(
                !stats.truncated,
                "{what}: exploration hit a bound; not a proof"
            );
            assert!(stats.terminals > 0, "{what}: no terminal state reached");
            stats
        }
        Err(v) => panic!("{what}: unexpected violation: {v}"),
    }
}

fn assert_caught(what: &str, r: Result<Stats, Violation>) -> Violation {
    match r {
        Ok(stats) => panic!("{what}: seeded bug NOT caught ({stats:?})"),
        Err(v) => {
            assert!(!v.trace.is_empty(), "{what}: violation carries no trace");
            v
        }
    }
}

// --- eviction clock ---------------------------------------------------------

#[test]
fn eviction_clock_verifies_exhaustively() {
    let stats = assert_proved(
        "eviction",
        eviction::check(eviction::Mutation::None, &cfg()),
    );
    // Four threads genuinely interleave: the state space is nontrivial.
    assert!(stats.states > 100, "suspiciously small search: {stats:?}");
}

#[test]
fn eviction_dropped_advance_to_is_caught() {
    let v = assert_caught(
        "eviction/DropAdvanceTo",
        eviction::check(eviction::Mutation::DropAdvanceTo, &cfg()),
    );
    assert_eq!(v.kind, ViolationKind::Terminal);
    assert!(v.message.contains("stale-watermark"), "{v}");
}

#[test]
fn eviction_store_instead_of_fetch_max_is_caught() {
    let v = assert_caught(
        "eviction/StoreInsteadOfFetchMax",
        eviction::check(eviction::Mutation::StoreInsteadOfFetchMax, &cfg()),
    );
    assert_eq!(v.kind, ViolationKind::Terminal);
}

// --- prefill handoff --------------------------------------------------------

#[test]
fn prefill_handoff_verifies_exhaustively() {
    assert_proved("prefill", prefill::check(prefill::Mutation::None, &cfg()));
}

#[test]
fn prefill_promotion_before_gen_check_is_caught() {
    let v = assert_caught(
        "prefill/PromoteBeforeGenCheck",
        prefill::check(prefill::Mutation::PromoteBeforeGenCheck, &cfg()),
    );
    assert_eq!(v.kind, ViolationKind::Always);
    assert!(v.message.contains("cancelled"), "{v}");
}

// --- serving tickets --------------------------------------------------------

#[test]
fn serving_tickets_verify_exhaustively() {
    let stats = assert_proved("tickets", tickets::check(tickets::Mutation::None, &cfg()));
    assert!(stats.states > 100, "suspiciously small search: {stats:?}");
}

#[test]
fn tickets_dropped_notify_deadlocks_and_is_caught() {
    let v = assert_caught(
        "tickets/DropNotify",
        tickets::check(tickets::Mutation::DropNotify, &cfg()),
    );
    assert_eq!(v.kind, ViolationKind::Deadlock);
}

// --- bounded queue ----------------------------------------------------------

#[test]
fn bounded_queue_verifies_exhaustively() {
    let stats = assert_proved("queue", queue::check(queue::Mutation::None, &cfg()));
    assert!(stats.states > 100, "suspiciously small search: {stats:?}");
}

#[test]
fn queue_silent_last_sender_drop_strands_a_receiver_and_is_caught() {
    let v = assert_caught(
        "queue/DropDisconnectNotify",
        queue::check(queue::Mutation::DropDisconnectNotify, &cfg()),
    );
    assert_eq!(v.kind, ViolationKind::Deadlock);
    assert!(v.trace.iter().any(|s| s.starts_with("consumer")), "{v}");
}
