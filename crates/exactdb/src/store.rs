//! Arrival-order storage: the ring that owns the live window objects, and
//! the queue every index keeps its entries in.
//!
//! The window only ever evicts its oldest object. The executor therefore
//! numbers arrivals with a wrapping `u32` sequence number ([`Seq`]) and
//! keeps them in a power-of-two ring of columns indexed by `seq & mask`:
//! an arrival enters at the back, an eviction leaves from the front.
//!
//! Every grid cell, quadtree leaf and posting list is a `SeqQueue` of
//! `seq`s in age order. An arrival is one push per structure it enters.
//! An eviction pops the front of each structure that holds the oldest
//! object, and that front is the object by construction. Nothing is ever
//! removed from the middle, so there is no identity map, free list,
//! tombstone or locator, and a query never meets a dead entry.
//!
//! Age order is `seq.wrapping_sub(head)`. It is valid while fewer than
//! 2³² objects are live; the ring checks that once, when it grows.

use geostream::{GeoTextObject, KeywordId, ObjectId, Point, RcDvq};
use std::sync::Arc;

/// Arrival number of an object in the executor, wrapping at 2³².
pub type Seq = u32;

/// Ring size of the first allocation.
const MIN_CAPACITY: u32 = 64;

/// Largest ring mask: the ring holds at most 2³¹ objects, so an age never
/// wraps.
const MAX_MASK: u32 = (1 << 31) - 1;

/// Single owner of the live window objects, shared by all exact indexes.
///
/// Objects are split into parallel columns, so a counting kernel streams
/// only the field it tests: a rectangle check reads the 16-byte `locs`
/// entry and nothing else of the object.
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    /// Location per ring position (stale outside the live range).
    locs: Vec<Point>,
    /// Identity per ring position (stale outside the live range).
    oids: Vec<ObjectId>,
    /// Keyword set per ring position; `None` outside the live range, so
    /// an eviction releases its `Arc`.
    keywords: Vec<Option<Arc<[KeywordId]>>>,
    /// Ring size − 1 (the columns' common length is a power of two).
    mask: u32,
    /// `seq` of the oldest live object.
    head: Seq,
    /// `seq` the next arrival gets.
    tail: Seq,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.tail.wrapping_sub(self.head) as usize
    }

    /// Whether the store holds no live objects.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Ring size (a power of two, or zero before the first arrival).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.locs.len()
    }

    /// Whether the live `seq`s wrap past `u32::MAX`, so that `seq` order
    /// is not age order.
    #[inline]
    pub(crate) fn wraps(&self) -> bool {
        self.tail < self.head
    }

    /// Position of `seq` in arrival order: 0 for the oldest live object.
    #[inline]
    pub(crate) fn age(&self, seq: Seq) -> u32 {
        seq.wrapping_sub(self.head)
    }

    /// Whether `seq` names a live object.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn is_live(&self, seq: Seq) -> bool {
        self.age(seq) < self.tail.wrapping_sub(self.head)
    }

    /// The live `seq`s, oldest first.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn seqs(&self) -> impl Iterator<Item = Seq> + '_ {
        (0..self.tail.wrapping_sub(self.head)).map(|age| self.head.wrapping_add(age))
    }

    /// `seq` of the oldest live object, the one the next eviction takes.
    pub(crate) fn front(&self) -> Option<Seq> {
        (!self.is_empty()).then_some(self.head)
    }

    /// Identity of the oldest live object.
    pub(crate) fn oldest(&self) -> Option<ObjectId> {
        self.front().map(|seq| self.oid(seq))
    }

    /// Identity of the newest live object.
    pub(crate) fn newest(&self) -> Option<ObjectId> {
        (!self.is_empty()).then(|| self.oid(self.tail.wrapping_sub(1)))
    }

    #[inline]
    fn index(&self, seq: Seq) -> usize {
        (seq & self.mask) as usize
    }

    /// Location of the live object `seq`.
    #[inline]
    pub fn loc(&self, seq: Seq) -> &Point {
        &self.locs[self.index(seq)]
    }

    /// Identity of the live object `seq`.
    #[inline]
    pub fn oid(&self, seq: Seq) -> ObjectId {
        self.oids[self.index(seq)]
    }

    /// The sorted keyword set of the live object `seq`. Indexes hold live
    /// `seq`s only (the auditors check it); a vacant position reads as no
    /// keywords.
    #[inline]
    pub fn keywords(&self, seq: Seq) -> &[KeywordId] {
        let keywords = self.keywords[self.index(seq)].as_deref();
        debug_assert!(keywords.is_some(), "seq {seq} is not live");
        keywords.unwrap_or(&[])
    }

    /// Whether the live object `seq` satisfies both of `query`'s
    /// predicates.
    #[inline]
    pub fn matches(&self, seq: Seq, query: &RcDvq) -> bool {
        query.matches_parts(self.loc(seq), self.keywords(seq))
    }

    /// An empty store whose first arrival gets `seq` (tests of the wrap).
    #[cfg(test)]
    pub(crate) fn starting_at(seq: Seq) -> Self {
        ObjectStore {
            head: seq,
            tail: seq,
            ..Self::default()
        }
    }

    /// Stores an arrival at the back of the ring and returns its `seq`.
    pub fn push(&mut self, obj: &GeoTextObject) -> Seq {
        if self.len() == self.locs.len() {
            self.grow();
        }
        let seq = self.tail;
        let i = self.index(seq);
        self.locs[i] = obj.loc;
        self.oids[i] = obj.oid;
        self.keywords[i] = Some(Arc::clone(&obj.keywords));
        self.tail = seq.wrapping_add(1);
        seq
    }

    /// Drops the oldest live object and returns its `seq`. The indexes
    /// pop it first: they read its columns to find their fronts.
    pub fn pop_front(&mut self) -> Option<Seq> {
        let seq = self.front()?;
        let i = self.index(seq);
        self.keywords[i] = None;
        self.head = seq.wrapping_add(1);
        Some(seq)
    }

    /// Doubles the ring, re-placing each live entry at `seq & new_mask`.
    /// Indexes hold `seq`s, not positions, so they are not touched.
    ///
    /// # Panics
    /// Panics if 2³¹ objects are already live.
    fn grow(&mut self) {
        let new_mask = if self.locs.is_empty() {
            MIN_CAPACITY - 1
        } else {
            assert!(
                self.mask < MAX_MASK,
                "exact executor ring full: {} objects live",
                self.len()
            );
            (self.mask << 1) | 1
        };
        let size = new_mask as usize + 1;
        let mut locs = vec![Point::new(0.0, 0.0); size];
        let mut oids = vec![ObjectId(0); size];
        let mut keywords = vec![None; size];
        let mut seq = self.head;
        while seq != self.tail {
            let (from, to) = (self.index(seq), (seq & new_mask) as usize);
            locs[to] = self.locs[from];
            oids[to] = self.oids[from];
            keywords[to] = self.keywords[from].take();
            seq = seq.wrapping_add(1);
        }
        self.locs = locs;
        self.oids = oids;
        self.keywords = keywords;
        self.mask = new_mask;
    }

    /// Full O(ring) invariant walk (the `debug-invariants` auditor):
    ///
    /// * **ring-shape** — the three columns have one length, zero or a
    ///   power of two equal to `mask + 1`, and it holds the live range.
    /// * **occupancy** — exactly the live positions carry a keyword set.
    #[cfg(feature = "debug-invariants")]
    pub fn audit(&self) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        const S: &str = "ObjectStore";
        let n = self.locs.len();
        ensure(
            self.oids.len() == n
                && self.keywords.len() == n
                && (n == 0 || (n.is_power_of_two() && n == self.mask as usize + 1))
                && self.len() <= n,
            S,
            "ring-shape",
            || {
                format!(
                    "columns {n}/{}/{}, mask {}, {} live",
                    self.oids.len(),
                    self.keywords.len(),
                    self.mask,
                    self.len()
                )
            },
        )?;
        let mut live = vec![false; n];
        for seq in self.seqs() {
            live[self.index(seq)] = true;
        }
        for (i, (keywords, &live)) in self.keywords.iter().zip(&live).enumerate() {
            ensure(keywords.is_some() == live, S, "occupancy", || {
                format!("position {i}: occupied={} live={live}", keywords.is_some())
            })?;
        }
        Ok(())
    }

    /// Checks one index queue against the ring: every entry is live and
    /// the entries are strictly increasing in age (`invariant`
    /// "age-order"). `what` names the queue in the error.
    #[cfg(feature = "debug-invariants")]
    pub(crate) fn audit_queue(
        &self,
        structure: &'static str,
        queue: &SeqQueue,
        what: impl Fn() -> String,
    ) -> Result<(), geostream::AuditError> {
        let mut previous: Option<u32> = None;
        for &seq in queue.as_slice() {
            let age = self.age(seq);
            geostream::audit::ensure(
                self.is_live(seq) && previous.is_none_or(|p| p < age),
                structure,
                "age-order",
                || {
                    format!(
                        "{}: seq {seq} at age {age} after {previous:?}, {} live",
                        what(),
                        self.len()
                    )
                },
            )?;
            previous = Some(age);
        }
        Ok(())
    }
}

#[cfg(test)]
thread_local! {
    /// Queue traffic on this thread (tests run one per thread): pushes,
    /// front pops, and entries moved by the drains of consumed prefixes.
    static QUEUE_OPS: std::cell::Cell<QueueOps> = const {
        std::cell::Cell::new(QueueOps { pushes: 0, pops: 0, shifted: 0 })
    };
}

/// Counts of `SeqQueue` operations on the current thread (test builds).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueueOps {
    pub pushes: u64,
    pub pops: u64,
    pub shifted: u64,
}

#[cfg(test)]
impl QueueOps {
    /// The counts so far on this thread.
    pub fn get() -> QueueOps {
        QUEUE_OPS.with(std::cell::Cell::get)
    }

    fn bump(f: impl FnOnce(&mut QueueOps)) {
        QUEUE_OPS.with(|ops| {
            let mut now = ops.get();
            f(&mut now);
            ops.set(now);
        });
    }
}

/// An append-only queue of `seq`s in age order: a grid cell, a quadtree
/// leaf or a posting list.
///
/// Pops advance a front offset. The consumed prefix is drained once it
/// reaches half the vector, which moves at most as many entries as were
/// popped: amortised O(1) per pop, and no allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeqQueue {
    seqs: Vec<Seq>,
    front: usize,
}

impl SeqQueue {
    /// Number of queued entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.seqs.len() - self.front
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.front == self.seqs.len()
    }

    /// The queued entries, oldest first.
    #[inline]
    pub fn as_slice(&self) -> &[Seq] {
        &self.seqs[self.front..]
    }

    /// The oldest entry.
    #[inline]
    pub fn front(&self) -> Option<Seq> {
        self.seqs.get(self.front).copied()
    }

    /// Appends the newest entry.
    #[inline]
    pub fn push(&mut self, seq: Seq) {
        #[cfg(test)]
        QueueOps::bump(|ops| ops.pushes += 1);
        self.seqs.push(seq);
    }

    /// Removes and returns the oldest entry.
    pub fn pop_front(&mut self) -> Option<Seq> {
        let seq = self.front()?;
        #[cfg(test)]
        QueueOps::bump(|ops| ops.pops += 1);
        self.front += 1;
        if self.front * 2 >= self.seqs.len() {
            #[cfg(test)]
            QueueOps::bump(|ops| ops.shifted += self.len() as u64);
            self.seqs.drain(..self.front);
            self.front = 0;
        }
        Some(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::Timestamp;

    fn obj(id: u64, kws: &[u32]) -> GeoTextObject {
        GeoTextObject::new(
            ObjectId(id),
            Point::new(id as f64, 0.0),
            kws.iter().copied().map(KeywordId).collect(),
            Timestamp::ZERO,
        )
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = ObjectStore::new();
        let a = s.push(&obj(1, &[7]));
        let b = s.push(&obj(2, &[]));
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.oid(a), ObjectId(1));
        assert_eq!(s.keywords(a), &[KeywordId(7)]);
        assert_eq!(*s.loc(b), Point::new(2.0, 0.0));
        assert_eq!(
            (s.oldest(), s.newest()),
            (Some(ObjectId(1)), Some(ObjectId(2)))
        );
        assert_eq!(s.pop_front(), Some(a));
        assert!(!s.is_live(a));
        assert!(s.is_live(b));
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop_front(), Some(b));
        assert_eq!(s.pop_front(), None);
        assert!(s.is_empty());
    }

    /// A ring position freed by an eviction takes the next arrival: a
    /// window that stays under the ring size never grows it.
    #[test]
    fn keywordless_slot_recycles_immediately() {
        let mut s = ObjectStore::new();
        for i in 0..10 * u64::from(MIN_CAPACITY) {
            s.push(&obj(i, &[]));
            if s.len() == 3 {
                s.pop_front();
            }
        }
        assert_eq!(s.capacity(), MIN_CAPACITY as usize);
        assert_eq!(s.len(), 2);
    }

    /// Growth re-places live entries at their new positions, across the
    /// wrap of both the ring and the `u32` sequence numbers.
    #[test]
    fn ring_grows_across_the_wrap() {
        // Start just below the wrap so the live range straddles it.
        let mut s = ObjectStore::starting_at(u32::MAX - 40);
        for i in 0..50 {
            s.push(&obj(i, &[]));
        }
        for _ in 0..20 {
            s.pop_front();
        }
        for i in 50..200 {
            s.push(&obj(i, &[i as u32]));
        }
        assert_eq!(s.capacity(), 256);
        let oids: Vec<u64> = s.seqs().map(|seq| s.oid(seq).0).collect();
        assert_eq!(oids, (20..200).collect::<Vec<_>>());
        let ages: Vec<u32> = s.seqs().map(|seq| s.age(seq)).collect();
        assert_eq!(ages, (0..180).collect::<Vec<_>>());
        let last = s.seqs().last().unwrap();
        assert_eq!(s.keywords(last), &[KeywordId(199)]);
        assert_eq!(s.newest(), Some(ObjectId(199)));
    }

    #[test]
    fn iter_live_sees_exactly_the_population() {
        let mut s = ObjectStore::new();
        for i in 0..10 {
            s.push(&obj(i, &[]));
        }
        for _ in 0..5 {
            s.pop_front();
        }
        let live: Vec<u64> = s.seqs().map(|seq| s.oid(seq).0).collect();
        assert_eq!(live, [5, 6, 7, 8, 9]);
    }

    /// Pops return entries oldest first, and draining the consumed prefix
    /// never moves more entries than were popped.
    #[test]
    fn queue_pops_in_order_and_drains_cheaply() {
        let before = QueueOps::get();
        let mut q = SeqQueue::default();
        let mut expected = std::collections::VecDeque::new();
        for seq in 0..1_000u32 {
            q.push(seq);
            expected.push_back(seq);
            if seq % 3 != 0 {
                assert_eq!(q.pop_front(), expected.pop_front());
            }
            assert_eq!(q.as_slice(), expected.make_contiguous());
            assert_eq!(q.front(), expected.front().copied());
        }
        while let Some(seq) = expected.pop_front() {
            assert_eq!(q.pop_front(), Some(seq));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop_front(), None);
        let ops = QueueOps::get();
        assert_eq!(ops.pushes - before.pushes, 1_000);
        assert_eq!(ops.pops - before.pops, 1_000);
        assert!(ops.shifted - before.shifted <= ops.pops - before.pops);
    }
}
