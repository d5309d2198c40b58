//! Shim synchronization primitives: plain-data stand-ins for the `std`
//! types (and the in-tree bounded queue) the real protocols use.
//!
//! Every type here is `Clone + Hash` so a whole protocol state snapshots
//! into the explorer's visited set. Operations take the acting thread's
//! [`Ctx`](crate::sim::Ctx) and move vector clocks exactly where the real
//! memory model would: release edges publish, acquire edges join.

use crate::clock::VClock;
use crate::sim::Ctx;

/// Memory orderings the shims model. `SeqCst` is intentionally absent: the
/// real workspace never uses it (the conc registry would flag it), and the
/// acquire/release lattice is all the protocols need.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemOrd {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
}

impl MemOrd {
    fn acquires(self) -> bool {
        matches!(self, MemOrd::Acquire | MemOrd::AcqRel)
    }
    fn releases(self) -> bool {
        matches!(self, MemOrd::Release | MemOrd::AcqRel)
    }
}

/// Shim `AtomicU64`. Models C11 message passing: the atomic carries the
/// release clock of its last release-sequence head; acquire loads join it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
pub struct SimAtomicU64 {
    value: u64,
    msg: VClock,
}

impl SimAtomicU64 {
    pub fn new(value: u64) -> Self {
        SimAtomicU64 {
            value,
            msg: VClock::default(),
        }
    }

    pub fn load(&self, ord: MemOrd, ctx: &mut Ctx) -> u64 {
        if ord.acquires() {
            ctx.clock.join(&self.msg);
        }
        ctx.clock.bump(ctx.id);
        self.value
    }

    pub fn store(&mut self, value: u64, ord: MemOrd, ctx: &mut Ctx) {
        ctx.clock.bump(ctx.id);
        self.value = value;
        // A plain store starts a new modification: a release publishes the
        // writer's clock, a relaxed store publishes nothing and breaks any
        // prior release sequence (this is what makes a weakened
        // release→relaxed mutation detectable downstream).
        self.msg = if ord.releases() {
            ctx.clock
        } else {
            VClock::default()
        };
    }

    pub fn fetch_max(&mut self, value: u64, ord: MemOrd, ctx: &mut Ctx) -> u64 {
        self.rmw(ord, ctx, |old| old.max(value))
    }

    pub fn fetch_add(&mut self, value: u64, ord: MemOrd, ctx: &mut Ctx) -> u64 {
        self.rmw(ord, ctx, |old| old.wrapping_add(value))
    }

    /// RMW semantics: reads the latest value, writes a new one. A relaxed
    /// RMW *continues* the release sequence (msg clock kept); a releasing
    /// RMW additionally merges the writer's clock in.
    fn rmw(&mut self, ord: MemOrd, ctx: &mut Ctx, f: impl Fn(u64) -> u64) -> u64 {
        if ord.acquires() {
            ctx.clock.join(&self.msg);
        }
        ctx.clock.bump(ctx.id);
        let old = self.value;
        self.value = f(old);
        if ord.releases() {
            self.msg.join(&ctx.clock);
        }
        old
    }
}

/// Shim `AtomicBool` on top of [`SimAtomicU64`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
pub struct SimAtomicBool {
    inner: SimAtomicU64,
}

impl SimAtomicBool {
    pub fn new(value: bool) -> Self {
        SimAtomicBool {
            inner: SimAtomicU64::new(u64::from(value)),
        }
    }
    pub fn load(&self, ord: MemOrd, ctx: &mut Ctx) -> bool {
        self.inner.load(ord, ctx) != 0
    }
    pub fn store(&mut self, value: bool, ord: MemOrd, ctx: &mut Ctx) {
        self.inner.store(u64::from(value), ord, ctx);
    }
    /// Peek without a memory-model event — for invariant checks only, never
    /// from inside a thread program.
    pub fn peek(&self) -> bool {
        self.inner.value != 0
    }
}

/// Shim mutex. Lock acquisition joins the clock the last unlocker
/// published, so everything done under the lock is ordered.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
pub struct SimMutex<T> {
    data: T,
    owner: Option<usize>,
    clock: VClock,
}

impl<T> SimMutex<T> {
    pub fn new(data: T) -> Self {
        SimMutex {
            data,
            owner: None,
            clock: VClock::default(),
        }
    }

    /// Attempt to take the lock; `false` means contended (the caller's step
    /// should return [`Step::Blocked`](crate::sim::Step::Blocked)).
    pub fn try_lock(&mut self, ctx: &mut Ctx) -> bool {
        if self.owner.is_some() {
            return false;
        }
        self.owner = Some(ctx.id);
        ctx.clock.join(&self.clock);
        ctx.clock.bump(ctx.id);
        true
    }

    pub fn unlock(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        if self.owner != Some(ctx.id) {
            return Err(format!(
                "thread {} unlocked a mutex it does not hold",
                ctx.id
            ));
        }
        ctx.clock.bump(ctx.id);
        self.clock = ctx.clock;
        self.owner = None;
        Ok(())
    }

    /// Access the protected data; errors if the caller does not hold the
    /// lock (a protocol bug in the model itself).
    pub fn data(&mut self, ctx: &Ctx) -> Result<&mut T, String> {
        if self.owner == Some(ctx.id) {
            Ok(&mut self.data)
        } else {
            Err(format!(
                "thread {} touched mutex data without holding the lock",
                ctx.id
            ))
        }
    }

    /// Peek for invariant checks only (terminal states hold no locks).
    pub fn peek(&self) -> &T {
        &self.data
    }
}

/// Shim condvar: a waiting set. Real happens-before comes from the paired
/// mutex (notify itself synchronizes nothing, exactly like std).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
pub struct SimCondvar {
    waiting: [bool; crate::clock::MAX_THREADS],
    /// `notify_one` wakeups not yet claimed by a sleeper.
    permits: usize,
}

impl SimCondvar {
    /// Register the calling thread as asleep. The caller must then unlock
    /// the paired mutex and block until [`Self::take_wakeup`].
    pub fn sleep(&mut self, ctx: &Ctx) {
        if let Some(w) = self.waiting.get_mut(ctx.id) {
            *w = true;
        }
    }

    pub fn notify_all(&mut self, ctx: &mut Ctx) {
        ctx.clock.bump(ctx.id);
        *self = SimCondvar::default();
    }

    /// Wake one sleeper — which one is the scheduler's choice, as in std:
    /// the notify leaves a permit that the first sleeper to run
    /// [`Self::take_wakeup`] claims. With no unclaimed sleeper it is lost,
    /// like any notify nobody waits for.
    pub fn notify_one(&mut self, ctx: &mut Ctx) {
        ctx.clock.bump(ctx.id);
        let sleepers = self.waiting.iter().filter(|w| **w).count();
        if self.permits < sleepers {
            self.permits += 1;
        }
    }

    /// The sleeper's side of both notify flavours: true once this thread
    /// is awake — it never slept, a `notify_all` cleared it, or it claims a
    /// `notify_one` permit here. Mutates nothing when it returns false.
    pub fn take_wakeup(&mut self, ctx: &Ctx) -> bool {
        match self.waiting.get_mut(ctx.id) {
            Some(asleep) if *asleep && self.permits == 0 => false,
            Some(asleep) if *asleep => {
                *asleep = false;
                self.permits -= 1;
                true
            }
            _ => true,
        }
    }
}

/// Outcome of a [`SimChannel::try_send`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendOutcome {
    Sent,
    /// Bounded queue at capacity — the sender's step should block.
    Full,
}

/// Outcome of a [`SimChannel::try_recv`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecvOutcome<T> {
    Msg(T),
    /// Queue empty but senders remain — the receiver's step should block.
    Empty,
    /// Queue empty and every sender dropped.
    Disconnected,
}

/// Shim bounded MPSC channel. Every message carries its sender's clock;
/// receiving joins it (the send→recv happens-before edge the real queue's
/// mutex gives the real code).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SimChannel<T> {
    queue: Vec<(T, VClock)>,
    cap: usize,
    senders: u32,
}

impl<T> SimChannel<T> {
    /// A channel with `cap` slots and `senders` live sender handles.
    pub fn bounded(cap: usize, senders: u32) -> Self {
        SimChannel {
            queue: Vec::new(),
            cap: cap.max(1),
            senders,
        }
    }

    pub fn try_send(&mut self, value: T, ctx: &mut Ctx) -> SendOutcome {
        if self.queue.len() >= self.cap {
            return SendOutcome::Full;
        }
        ctx.clock.bump(ctx.id);
        self.queue.push((value, ctx.clock));
        SendOutcome::Sent
    }

    pub fn try_recv(&mut self, ctx: &mut Ctx) -> RecvOutcome<T> {
        if self.queue.is_empty() {
            return if self.senders == 0 {
                RecvOutcome::Disconnected
            } else {
                RecvOutcome::Empty
            };
        }
        let (value, clock) = self.queue.remove(0);
        ctx.clock.join(&clock);
        ctx.clock.bump(ctx.id);
        RecvOutcome::Msg(value)
    }

    /// Drop one sender handle (hang-up half of the shutdown edge).
    pub fn drop_sender(&mut self) {
        self.senders = self.senders.saturating_sub(1);
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(id: usize) -> Ctx {
        Ctx::new(id)
    }

    #[test]
    fn release_acquire_transfers_clock() {
        let mut a = SimAtomicU64::new(0);
        let mut writer = ctx(0);
        let mut reader = ctx(1);
        writer.clock.bump(0); // some prior event
        a.store(7, MemOrd::Release, &mut writer);
        assert_eq!(a.load(MemOrd::Acquire, &mut reader), 7);
        assert!(writer.clock.leq(&reader.clock));
    }

    #[test]
    fn relaxed_store_publishes_nothing() {
        let mut a = SimAtomicU64::new(0);
        let mut writer = ctx(0);
        let mut reader = ctx(1);
        a.store(7, MemOrd::Relaxed, &mut writer);
        let _ = a.load(MemOrd::Acquire, &mut reader);
        assert!(!writer.clock.leq(&reader.clock), "no hb edge expected");
    }

    #[test]
    fn relaxed_rmw_continues_release_sequence() {
        let mut a = SimAtomicU64::new(0);
        let (mut w, mut m, mut r) = (ctx(0), ctx(1), ctx(2));
        a.store(1, MemOrd::Release, &mut w);
        // A relaxed fetch_add in the middle must not break w's publication.
        let _ = a.fetch_add(1, MemOrd::Relaxed, &mut m);
        let _ = a.load(MemOrd::Acquire, &mut r);
        assert!(w.clock.leq(&r.clock));
    }

    #[test]
    fn fetch_max_keeps_maximum() {
        let mut a = SimAtomicU64::new(5);
        let mut c = ctx(0);
        assert_eq!(a.fetch_max(3, MemOrd::Relaxed, &mut c), 5);
        assert_eq!(a.fetch_max(9, MemOrd::Relaxed, &mut c), 5);
        assert_eq!(a.load(MemOrd::Relaxed, &mut c), 9);
    }

    #[test]
    fn mutex_enforces_ownership() {
        let mut m = SimMutex::new(0u64);
        let mut a = ctx(0);
        let mut b = ctx(1);
        assert!(m.try_lock(&mut a));
        assert!(!m.try_lock(&mut b), "contended lock must refuse");
        assert!(m.data(&b).is_err());
        assert!(m.unlock(&mut b).is_err());
        *m.data(&a).expect("owner can access") = 3;
        m.unlock(&mut a).expect("owner can unlock");
        // b acquires after a: a's critical section happens-before b's.
        assert!(m.try_lock(&mut b));
        assert!(a.clock.leq(&b.clock));
    }

    #[test]
    fn channel_orders_and_disconnects() {
        let mut ch: SimChannel<u32> = SimChannel::bounded(1, 1);
        let mut tx = ctx(0);
        let mut rx = ctx(1);
        assert_eq!(ch.try_recv(&mut rx), RecvOutcome::Empty);
        assert_eq!(ch.try_send(4, &mut tx), SendOutcome::Sent);
        assert_eq!(ch.try_send(5, &mut tx), SendOutcome::Full);
        assert_eq!(ch.try_recv(&mut rx), RecvOutcome::Msg(4));
        assert!(tx.clock.leq(&rx.clock), "send happens-before recv");
        ch.drop_sender();
        assert_eq!(ch.try_recv(&mut rx), RecvOutcome::Disconnected);
        assert!(ch.is_empty());
        assert_eq!(ch.len(), 0);
    }

    #[test]
    fn condvar_sleep_notify() {
        let mut cv = SimCondvar::default();
        let sleeper = ctx(2);
        let mut waker = ctx(0);
        assert!(cv.take_wakeup(&sleeper));
        cv.sleep(&sleeper);
        assert!(!cv.take_wakeup(&sleeper));
        cv.notify_all(&mut waker);
        assert!(cv.take_wakeup(&sleeper));
    }

    #[test]
    fn notify_one_wakes_exactly_one_sleeper() {
        let mut cv = SimCondvar::default();
        let (a, b) = (ctx(1), ctx(2));
        let mut waker = ctx(0);
        cv.notify_one(&mut waker); // nobody asleep: lost
        cv.sleep(&a);
        cv.sleep(&b);
        assert!(!cv.take_wakeup(&a));
        cv.notify_one(&mut waker);
        assert!(cv.take_wakeup(&b), "whichever sleeper runs first wakes");
        assert!(!cv.take_wakeup(&a), "the permit is spent");
        cv.notify_all(&mut waker);
        assert!(cv.take_wakeup(&a));
    }
}
