//! The one channel of the serving layer: a bounded multi-producer
//! multi-consumer FIFO over a mutex-guarded `VecDeque` and two condvars.
//!
//! `std::sync::mpsc` does not fit: [`ServingEngine`](crate::ServingEngine)
//! shares one job queue among all its workers (multi-consumer) and reports
//! its depth ([`Sender::len`]). The surface is exactly what the crate
//! calls — blocking, non-blocking and timed transfer, queue depth, clonable
//! ends — and a side disconnects when its last peer handle drops: senders
//! then fail at once, receivers drain what is buffered first.

use crate::unpoisoned;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

struct State<T> {
    items: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// The sending half; clone it for more producers.
pub struct Sender<T>(Arc<Shared<T>>);

/// The receiving half; clone it for more consumers (each item is
/// delivered to exactly one of them).
pub struct Receiver<T>(Arc<Shared<T>>);

/// [`Sender::send`] found every receiver gone; the value comes back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Why [`Sender::try_send`] handed the value back.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue holds `capacity` items.
    Full(T),
    /// Every receiver is gone.
    Disconnected(T),
}

/// [`Receiver::recv`] found the queue empty and every sender gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Why [`Receiver::try_recv`] returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

/// Why [`Receiver::recv_timeout`] returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

/// A FIFO holding at most `capacity` (nonzero) items.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "queue capacity must be nonzero");
    let shared = Arc::new(Shared {
        // CONC(bounded-queue/queue-state): the one lock of a queue; held
        // for a push or pop only, never while acquiring another lock
        state: Mutex::new(State {
            items: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        capacity,
        // CONC(bounded-queue/queue-not-empty-cv): receivers sleep here;
        // signalled by every push and by the last sender's drop
        not_empty: Condvar::new(),
        // CONC(bounded-queue/queue-not-full-cv): senders sleep here;
        // signalled by every pop and by the last receiver's drop
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

impl<T> Sender<T> {
    /// Enqueues `value`, sleeping while the queue is full.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let full = |s: &mut State<T>| s.receivers > 0 && s.items.len() >= self.0.capacity;
        let state = unpoisoned(self.0.state.lock());
        let mut state = unpoisoned(self.0.not_full.wait_while(state, full));
        if state.receivers == 0 {
            return Err(SendError(value));
        }
        state.items.push_back(value);
        self.0.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues `value` unless that would mean waiting.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut state = unpoisoned(self.0.state.lock());
        if state.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if state.items.len() >= self.0.capacity {
            return Err(TrySendError::Full(value));
        }
        state.items.push_back(value);
        self.0.not_empty.notify_one();
        Ok(())
    }

    /// Items queued and not yet received.
    pub fn len(&self) -> usize {
        unpoisoned(self.0.state.lock()).items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a receiver sleeps through: nothing queued, but a sender remains.
fn idle<T>(state: &mut State<T>) -> bool {
    state.items.is_empty() && state.senders > 0
}

impl<T> Receiver<T> {
    fn pop(&self, state: &mut State<T>) -> Option<T> {
        let item = state.items.pop_front()?;
        self.0.not_full.notify_one();
        Some(item)
    }

    /// Dequeues the oldest item, sleeping while the queue is empty and a
    /// sender remains.
    pub fn recv(&self) -> Result<T, RecvError> {
        let state = unpoisoned(self.0.state.lock());
        let mut state = unpoisoned(self.0.not_empty.wait_while(state, idle));
        self.pop(&mut state).ok_or(RecvError)
    }

    /// Dequeues the oldest item if one is queued.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = unpoisoned(self.0.state.lock());
        match self.pop(&mut state) {
            Some(item) => Ok(item),
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// [`recv`](Self::recv) that gives up after `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let state = unpoisoned(self.0.state.lock());
        let wait = self.0.not_empty.wait_timeout_while(state, timeout, idle);
        let (mut state, _) = unpoisoned(wait);
        match self.pop(&mut state) {
            Some(item) => Ok(item),
            None if state.senders == 0 => Err(RecvTimeoutError::Disconnected),
            None => Err(RecvTimeoutError::Timeout),
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        unpoisoned(self.0.state.lock()).senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        unpoisoned(self.0.state.lock()).receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = unpoisoned(self.0.state.lock());
        state.senders -= 1;
        if state.senders == 0 {
            // Every sleeping receiver must wake to see the disconnect.
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = unpoisoned(self.0.state.lock());
        state.receivers -= 1;
        if state.receivers == 0 {
            self.0.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_fifo_order_and_reports_len() {
        let (tx, rx) = bounded(4);
        assert!(tx.is_empty());
        for i in 0..4 {
            tx.send(i).expect("receiver alive");
        }
        assert_eq!(tx.len(), 4);
        assert_eq!(rx.recv(), Ok(0));
        assert_eq!(tx.len(), 3);
        assert_eq!(
            (rx.try_recv(), rx.try_recv(), rx.try_recv()),
            (Ok(1), Ok(2), Ok(3))
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn try_send_reports_full_then_disconnected() {
        let (tx, rx) = bounded(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        let rx2 = rx.clone();
        drop(rx);
        assert_eq!(
            tx.try_send(3),
            Err(TrySendError::Full(3)),
            "one receiver left"
        );
        drop(rx2);
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
        assert_eq!(tx.send(5), Err(SendError(5)));
    }

    #[test]
    fn recv_drains_buffered_items_before_disconnect() {
        let (tx, rx) = bounded(2);
        tx.send('a').expect("receiver alive");
        tx.clone().send('b').expect("receiver alive");
        drop(tx);
        assert_eq!(rx.recv(), Ok('a'));
        assert_eq!(rx.try_recv(), Ok('b'));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_tells_timeout_from_disconnect() {
        let (tx, rx) = bounded::<u8>(1);
        let tick = Duration::from_millis(5);
        assert_eq!(rx.recv_timeout(tick), Err(RecvTimeoutError::Timeout));
        tx.send(7).expect("receiver alive");
        assert_eq!(rx.recv_timeout(tick), Ok(7));
        drop(tx);
        assert_eq!(rx.recv_timeout(tick), Err(RecvTimeoutError::Disconnected));
    }

    /// A full queue blocks the sender until a pop; the last sender's drop
    /// wakes both sleeping consumers; every item arrives exactly once.
    #[test]
    fn two_consumers_receive_each_item_exactly_once() {
        const N: u64 = 2_000;
        let (tx, rx) = bounded::<u64>(3);
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for i in 0..N {
            tx.send(i).expect("consumers alive");
        }
        drop(tx);
        let mut all = Vec::new();
        for c in consumers {
            let got = c.join().expect("consumer thread");
            assert!(got.windows(2).all(|w| w[0] < w[1]), "per-consumer order");
            all.extend(got);
        }
        all.sort_unstable();
        assert_eq!(all, (0..N).collect::<Vec<_>>());
    }
}
