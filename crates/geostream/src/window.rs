//! The sliding time window `S_T` (§III).
//!
//! `S_T` holds every object whose timestamp is within the last `T` time
//! units. Estimation queries are always answered with respect to the window,
//! and the exact executor (crate `exactdb`) computes ground truth over it.
//!
//! The window is a FIFO of objects ordered by arrival. Streams deliver
//! objects in non-decreasing timestamp order, so eviction is a pop from the
//! front. Evicted objects are reported to the caller so downstream
//! structures (indexes, estimators) can stay consistent.
//!
//! # Storage: sealed chunks + active tail
//!
//! Internally the FIFO is a deque of immutable **sealed chunks**
//! (`Arc<Vec<GeoTextObject>>`, `CHUNK` objects each) followed by a
//! mutable **active tail** receiving inserts. The split exists for one
//! reason: [`SlidingWindow::snapshot`] — an O(#chunks) structurally
//! shared copy of the live contents, taken on the serving thread in
//! microseconds regardless of occupancy. Sealed chunks are never
//! mutated; eviction advances an offset into the front chunk (cloning
//! the evicted objects out) and drops the chunk once fully consumed, so
//! an outstanding [`WindowSnapshot`] keeps seeing exactly the contents
//! at snapshot time while the window churns on.

use crate::object::GeoTextObject;
use crate::time::{Duration, Timestamp};
use std::collections::VecDeque;
use std::sync::Arc;

/// Objects per sealed chunk. Large enough that the per-chunk `Arc`
/// overhead vanishes, small enough that sealing the tail at snapshot
/// time (a move of at most `CHUNK − 1` objects, no per-object allocs)
/// stays in the microsecond range.
const CHUNK: usize = 1_024;

/// A sliding time window over a geo-textual stream.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    span: Duration,
    /// Sealed immutable chunks, oldest first; shared with snapshots.
    /// Every sealed chunk is non-empty.
    sealed: VecDeque<Arc<Vec<GeoTextObject>>>,
    /// Index of the first *live* object in the front sealed chunk — the
    /// prefix before it has been evicted (the objects stay allocated
    /// until the chunk drains, bounded waste of `CHUNK − 1` objects).
    front_offset: usize,
    /// Active tail receiving inserts; sealed at [`CHUNK`] objects or
    /// when a snapshot is taken.
    tail: VecDeque<GeoTextObject>,
    /// Live object count (sealed minus evicted prefix, plus tail).
    len: usize,
    /// Most recent clock value observed, used to validate monotonicity.
    now: Timestamp,
    /// Content-change counter: bumped whenever the live set changes
    /// (insert or eviction sweep). Selectivity caches key answers
    /// on `(QuerySignature, generation)`, so any content change makes
    /// every prior cached answer unreachable.
    generation: u64,
}

/// A structurally shared copy of a window's live contents at one instant:
/// `Arc` handles on the sealed chunks plus the eviction offset into the
/// first one. Taking one is O(#chunks); the underlying objects are never
/// copied. The snapshot stays valid — and unchanged — no matter how the
/// window churns afterwards.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    chunks: Vec<Arc<Vec<GeoTextObject>>>,
    front_offset: usize,
    len: usize,
}

impl WindowSnapshot {
    /// Number of live objects captured.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the snapshot captured no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The captured objects as contiguous slices, oldest first.
    pub fn chunk_slices(&self) -> impl Iterator<Item = &[GeoTextObject]> {
        self.chunks
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let skip = if i == 0 { self.front_offset } else { 0 };
                &c[skip..]
            })
            .filter(|s| !s.is_empty())
    }

    /// Iterates over the captured objects, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &GeoTextObject> {
        self.chunk_slices().flatten()
    }
}

/// A snapshot of a plain object list (one sealed chunk) — handy for
/// tests and callers that already hold an owned `Vec`.
impl From<Vec<GeoTextObject>> for WindowSnapshot {
    fn from(objs: Vec<GeoTextObject>) -> Self {
        WindowSnapshot {
            len: objs.len(),
            front_offset: 0,
            chunks: if objs.is_empty() {
                Vec::new()
            } else {
                vec![Arc::new(objs)]
            },
        }
    }
}

impl SlidingWindow {
    /// Creates a window spanning the last `span` time units.
    pub fn new(span: Duration) -> Self {
        SlidingWindow {
            span,
            sealed: VecDeque::new(),
            front_offset: 0,
            tail: VecDeque::new(),
            len: 0,
            now: Timestamp::ZERO,
            generation: 0,
        }
    }

    /// The content-change generation: increases (by at least one) every
    /// time the live object set changes. Two calls returning the same
    /// value guarantee the window contents were identical in between.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The configured window span `T`.
    pub fn span(&self) -> Duration {
        self.span
    }

    /// The latest time the window has been advanced to.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Number of live objects in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Timestamp of the newest live object, if any — what the next arrival
    /// must not precede.
    pub fn newest(&self) -> Option<Timestamp> {
        self.tail
            .back()
            .or_else(|| self.sealed.back().and_then(|c| c.last()))
            .map(|o| o.timestamp)
    }

    /// Moves the active tail into a sealed chunk (no-op when empty).
    /// Purely representational: contents, order, `len`, and `generation`
    /// are unchanged.
    fn seal_tail(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let chunk: Vec<GeoTextObject> = std::mem::take(&mut self.tail).into();
        self.sealed.push_back(Arc::new(chunk));
    }

    /// A structurally shared snapshot of the live contents: the tail is
    /// sealed (a bounded move, no per-object copies) and the chunk
    /// handles are cloned. O(#chunks) — *not* O(objects) — which is what
    /// lets a serving thread hand its window to a background estimator
    /// build without a stall.
    pub fn snapshot(&mut self) -> WindowSnapshot {
        self.seal_tail();
        WindowSnapshot {
            chunks: self.sealed.iter().cloned().collect(),
            front_offset: self.front_offset,
            len: self.len,
        }
    }

    /// Inserts an arriving object, advances the clock to its timestamp, and
    /// appends any objects that fell out of the window to `evicted`.
    ///
    /// # Panics
    /// Panics if `obj.timestamp` is older than the newest object already in
    /// the window — streams must deliver in non-decreasing time order.
    pub fn insert(&mut self, obj: GeoTextObject, evicted: &mut Vec<GeoTextObject>) {
        self.push(obj);
        self.evict_expired(evicted);
    }

    /// Inserts a batch of arriving objects (non-decreasing timestamps),
    /// advancing the clock as they land and running the eviction sweep
    /// **once** at the end — the final window contents and the evicted
    /// set (in FIFO order) are identical to inserting one at a time, but
    /// the front-of-queue scan is paid once per batch.
    ///
    /// # Panics
    /// Panics if any object is older than its predecessor (in the batch or
    /// already in the window).
    pub fn insert_batch(
        &mut self,
        objs: impl IntoIterator<Item = GeoTextObject>,
        evicted: &mut Vec<GeoTextObject>,
    ) {
        for obj in objs {
            self.push(obj);
        }
        self.evict_expired(evicted);
    }

    fn push(&mut self, obj: GeoTextObject) {
        if let Some(newest) = self.newest() {
            assert!(
                obj.timestamp >= newest,
                "out-of-order arrival: {} after {}",
                obj.timestamp,
                newest
            );
        }
        self.now = self.now.max(obj.timestamp);
        self.tail.push_back(obj);
        self.len += 1;
        self.generation += 1;
        if self.tail.len() >= CHUNK {
            self.seal_tail();
        }
    }

    /// Advances the clock without inserting (e.g. when only queries arrive),
    /// evicting anything that expired.
    pub fn advance_to(&mut self, t: Timestamp, evicted: &mut Vec<GeoTextObject>) {
        self.now = self.now.max(t);
        self.evict_expired(evicted);
    }

    /// The inclusive lower bound of live timestamps: `NOW - T`.
    pub fn horizon(&self) -> Timestamp {
        self.now.before(self.span)
    }

    fn evict_expired(&mut self, evicted: &mut Vec<GeoTextObject>) {
        let horizon = self.horizon();
        let mut swept = 0u64;
        // Sealed chunks are immutable (snapshots may share them): evicted
        // objects are cloned out and the front offset advances; the chunk
        // itself is dropped only once fully consumed.
        while let Some(chunk) = self.sealed.front() {
            let mut i = self.front_offset;
            while i < chunk.len() && chunk[i].timestamp < horizon {
                evicted.push(chunk[i].clone());
                i += 1;
            }
            swept += (i - self.front_offset) as u64;
            let drained = i == chunk.len();
            self.front_offset = i;
            if drained {
                self.sealed.pop_front();
                self.front_offset = 0;
            } else {
                break;
            }
        }
        // The tail is exclusively owned: expired objects move out.
        if self.sealed.is_empty() {
            while self
                .tail
                .front()
                .is_some_and(|front| front.timestamp < horizon)
            {
                if let Some(o) = self.tail.pop_front() {
                    evicted.push(o);
                    swept += 1;
                }
            }
        }
        self.len -= swept as usize;
        self.generation += swept;
    }

    /// Iterates over the live objects, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &GeoTextObject> {
        self.chunk_slices().flatten()
    }

    /// The live objects as contiguous slices, oldest first — for batch
    /// APIs that want `&[_]` input. Yields each sealed chunk's live part
    /// and then the active tail's (up to two) halves.
    pub fn chunk_slices(&self) -> impl Iterator<Item = &[GeoTextObject]> {
        let (tail_a, tail_b) = self.tail.as_slices();
        self.sealed
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let skip = if i == 0 { self.front_offset } else { 0 };
                &c[skip..]
            })
            .chain([tail_a, tail_b])
            .filter(|s| !s.is_empty())
    }
}

impl crate::persist::Persist for SlidingWindow {
    /// The chunked representation is serialized as-is (chunk boundaries
    /// and the evicted front prefix included) rather than flattened, so
    /// a restored window is *structurally* identical — snapshot costs,
    /// chunk seal points, and eviction sweeps behave exactly as they
    /// would have in the uninterrupted process.
    fn persist(&self, w: &mut crate::persist::PersistWriter) {
        w.section(0x5711_d011, |w| {
            self.span.persist(w);
            self.now.persist(w);
            w.put_u64(self.generation);
            w.put_usize(self.len);
            w.put_usize(self.front_offset);
            w.put_usize(self.sealed.len());
            for chunk in &self.sealed {
                w.put_seq(chunk, |w, obj| obj.persist(w));
            }
            let tail: Vec<GeoTextObject> = self.tail.iter().cloned().collect();
            w.put_seq(&tail, |w, obj| obj.persist(w));
        });
    }

    fn restore(
        r: &mut crate::persist::PersistReader<'_>,
    ) -> Result<Self, crate::persist::PersistError> {
        const CTX: &str = "SlidingWindow";
        let sec = r.begin_section(0x5711_d011, CTX)?;
        let span = Duration::restore(r)?;
        let now = Timestamp::restore(r)?;
        let generation = r.take_u64(CTX)?;
        let len = r.take_usize(CTX)?;
        let front_offset = r.take_usize(CTX)?;
        let chunk_count = r.take_len(CTX)?;
        let mut sealed = VecDeque::with_capacity(chunk_count.min(1 << 16));
        for _ in 0..chunk_count {
            let chunk = r.take_seq(CTX, GeoTextObject::restore)?;
            if chunk.is_empty() || chunk.len() > CHUNK {
                return Err(crate::persist::PersistError::Corrupt {
                    context: CTX,
                    detail: format!("sealed chunk of {} objects", chunk.len()),
                });
            }
            sealed.push_back(Arc::new(chunk));
        }
        let tail: VecDeque<GeoTextObject> = r.take_seq(CTX, GeoTextObject::restore)?.into();
        r.finish_section(sec, CTX)?;
        let live: usize = sealed
            .iter()
            .map(|c: &Arc<Vec<GeoTextObject>>| c.len())
            .sum::<usize>()
            + tail.len();
        if front_offset > live || live - front_offset != len {
            return Err(crate::persist::PersistError::Corrupt {
                context: CTX,
                detail: format!(
                    "cached len {len} disagrees with {live} stored objects (front offset {front_offset})"
                ),
            });
        }
        if front_offset > 0 && sealed.front().is_none_or(|c| front_offset >= c.len()) {
            return Err(crate::persist::PersistError::Corrupt {
                context: CTX,
                detail: format!("front offset {front_offset} outside the front chunk"),
            });
        }
        Ok(SlidingWindow {
            span,
            sealed,
            front_offset,
            tail,
            len,
            now,
            generation,
        })
    }
}

#[cfg(feature = "debug-invariants")]
impl SlidingWindow {
    /// Full O(n) invariant walk (the `debug-invariants` auditor):
    ///
    /// * **fifo-order** — live timestamps are non-decreasing front to
    ///   back (streams arrive in time order and eviction pops the front).
    /// * **eviction** — no live object is older than the horizon
    ///   `now - T`; [`Self::insert`] and [`Self::advance_to`] must have
    ///   swept them out.
    /// * **clock** — `now` is at least the newest live timestamp (the
    ///   clock only moves forward).
    /// * **chunk-accounting** — every sealed chunk is non-empty and at
    ///   most [`CHUNK`] long, the front offset stays inside the front
    ///   chunk, and the cached `len` equals the walked live count.
    pub fn audit(&self) -> Result<(), crate::audit::AuditError> {
        use crate::audit::ensure;
        const S: &str = "SlidingWindow";
        let mut prev: Option<Timestamp> = None;
        let mut walked = 0usize;
        for (i, obj) in self.iter().enumerate() {
            if let Some(p) = prev {
                ensure(obj.timestamp >= p, S, "fifo-order", || {
                    format!("object {i} at {} after {}", obj.timestamp, p)
                })?;
            }
            prev = Some(obj.timestamp);
            walked += 1;
        }
        let horizon = self.horizon();
        if let Some(front) = self.iter().next() {
            ensure(front.timestamp >= horizon, S, "eviction", || {
                format!("front at {} precedes horizon {horizon}", front.timestamp)
            })?;
        }
        if let Some(newest) = self.newest() {
            ensure(self.now >= newest, S, "clock", || {
                format!("now {} behind newest object {newest}", self.now)
            })?;
        }
        for (i, c) in self.sealed.iter().enumerate() {
            ensure(
                !c.is_empty() && c.len() <= CHUNK,
                S,
                "chunk-accounting",
                || format!("sealed chunk {i} holds {} objects", c.len()),
            )?;
        }
        ensure(
            self.sealed
                .front()
                .is_none_or(|c| self.front_offset < c.len())
                && (self.front_offset == 0 || !self.sealed.is_empty()),
            S,
            "chunk-accounting",
            || format!("front offset {} outside the front chunk", self.front_offset),
        )?;
        ensure(walked == self.len, S, "chunk-accounting", || {
            format!("cached len {} but walked {walked} live objects", self.len)
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::object::ObjectId;

    fn obj(id: u64, t: u64) -> GeoTextObject {
        GeoTextObject::new(ObjectId(id), Point::new(0.0, 0.0), vec![], Timestamp(t))
    }

    #[test]
    fn keeps_objects_within_span() {
        let mut w = SlidingWindow::new(Duration(100));
        let mut ev = Vec::new();
        w.insert(obj(1, 0), &mut ev);
        w.insert(obj(2, 50), &mut ev);
        w.insert(obj(3, 100), &mut ev);
        assert!(ev.is_empty());
        assert_eq!(w.len(), 3);
        // t=150 ⇒ horizon=50 ⇒ object at t=0 evicted, t=50 retained.
        w.insert(obj(4, 150), &mut ev);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].oid, ObjectId(1));
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn advance_without_insert_evicts() {
        let mut w = SlidingWindow::new(Duration(10));
        let mut ev = Vec::new();
        w.insert(obj(1, 0), &mut ev);
        w.insert(obj(2, 5), &mut ev);
        w.advance_to(Timestamp(20), &mut ev);
        assert_eq!(ev.len(), 2);
        assert!(w.is_empty());
        assert_eq!(w.now(), Timestamp(20));
    }

    #[test]
    fn advance_never_rewinds() {
        let mut w = SlidingWindow::new(Duration(10));
        let mut ev = Vec::new();
        w.advance_to(Timestamp(100), &mut ev);
        w.advance_to(Timestamp(50), &mut ev);
        assert_eq!(w.now(), Timestamp(100));
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn rejects_out_of_order() {
        let mut w = SlidingWindow::new(Duration(10));
        let mut ev = Vec::new();
        w.insert(obj(1, 100), &mut ev);
        w.insert(obj(2, 50), &mut ev);
    }

    #[test]
    fn iter_is_oldest_first() {
        let mut w = SlidingWindow::new(Duration(1_000));
        let mut ev = Vec::new();
        for i in 0..5 {
            w.insert(obj(i, i * 10), &mut ev);
        }
        let ids: Vec<u64> = w.iter().map(|o| o.oid.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn insert_batch_matches_one_at_a_time() {
        let mut single = SlidingWindow::new(Duration(100));
        let mut batched = SlidingWindow::new(Duration(100));
        let objs: Vec<GeoTextObject> = (0..50).map(|i| obj(i, i * 7)).collect();
        let (mut ev_s, mut ev_b) = (Vec::new(), Vec::new());
        for o in objs.clone() {
            single.insert(o, &mut ev_s);
        }
        batched.insert_batch(objs, &mut ev_b);
        assert_eq!(single.len(), batched.len());
        assert_eq!(single.now(), batched.now());
        let ids_s: Vec<u64> = ev_s.iter().map(|o| o.oid.0).collect();
        let ids_b: Vec<u64> = ev_b.iter().map(|o| o.oid.0).collect();
        assert_eq!(ids_s, ids_b);
        let live_s: Vec<u64> = single.iter().map(|o| o.oid.0).collect();
        let live_b: Vec<u64> = batched.iter().map(|o| o.oid.0).collect();
        assert_eq!(live_s, live_b);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn insert_batch_rejects_out_of_order() {
        let mut w = SlidingWindow::new(Duration(10));
        let mut ev = Vec::new();
        w.insert_batch(vec![obj(1, 100), obj(2, 50)], &mut ev);
    }

    #[test]
    fn chunk_slices_cover_live_objects_across_seals() {
        let mut w = SlidingWindow::new(Duration(u64::MAX));
        let mut ev = Vec::new();
        // Three sealed chunks plus a short tail.
        for i in 0..(3 * CHUNK as u64 + 7) {
            w.insert(obj(i, i), &mut ev);
        }
        let total: usize = w.chunk_slices().map(<[GeoTextObject]>::len).sum();
        assert_eq!(total, w.len());
        let ids: Vec<u64> = w.iter().map(|o| o.oid.0).collect();
        let expect: Vec<u64> = (0..(3 * CHUNK as u64 + 7)).collect();
        assert_eq!(ids, expect);
    }

    #[test]
    fn eviction_spans_chunk_boundaries() {
        let span = Duration(10);
        let mut w = SlidingWindow::new(span);
        let mut ev = Vec::new();
        // Two full chunks at t=0, then a jump that expires them all.
        for i in 0..(2 * CHUNK as u64) {
            w.insert(obj(i, 0), &mut ev);
        }
        assert!(ev.is_empty());
        w.insert(obj(99_999, 100), &mut ev);
        assert_eq!(ev.len(), 2 * CHUNK);
        assert_eq!(w.len(), 1);
        // Evictions came out oldest first.
        let ids: Vec<u64> = ev.iter().map(|o| o.oid.0).collect();
        let expect: Vec<u64> = (0..(2 * CHUNK as u64)).collect();
        assert_eq!(ids, expect);
    }

    #[test]
    fn snapshot_matches_live_contents() {
        let mut w = SlidingWindow::new(Duration(u64::MAX));
        let mut ev = Vec::new();
        for i in 0..(CHUNK as u64 + 100) {
            w.insert(obj(i, i), &mut ev);
        }
        let snap = w.snapshot();
        assert_eq!(snap.len(), w.len());
        let snap_ids: Vec<u64> = snap.iter().map(|o| o.oid.0).collect();
        let live_ids: Vec<u64> = w.iter().map(|o| o.oid.0).collect();
        assert_eq!(snap_ids, live_ids);
        // Taking the snapshot is representational only.
        let g = w.generation();
        let _ = w.snapshot();
        assert_eq!(w.generation(), g);
    }

    #[test]
    fn snapshot_is_immune_to_later_churn() {
        let mut w = SlidingWindow::new(Duration(50));
        let mut ev = Vec::new();
        for i in 0..40 {
            w.insert(obj(i, i), &mut ev);
        }
        let snap = w.snapshot();
        let frozen: Vec<u64> = snap.iter().map(|o| o.oid.0).collect();
        // Churn: evict most of the snapshot's objects and add new ones.
        for i in 0..60u64 {
            w.insert(obj(1_000 + i, 40 + i * 2), &mut ev);
        }
        assert!(!ev.is_empty());
        let after: Vec<u64> = snap.iter().map(|o| o.oid.0).collect();
        assert_eq!(frozen, after);
        assert_eq!(frozen, (0..40).collect::<Vec<u64>>());
    }

    #[test]
    fn snapshot_respects_evicted_front_prefix() {
        let mut w = SlidingWindow::new(Duration(10));
        let mut ev = Vec::new();
        // Seal a full chunk, then expire its first half.
        for i in 0..CHUNK as u64 {
            w.insert(obj(i, if i < CHUNK as u64 / 2 { 0 } else { 5 }), &mut ev);
        }
        w.advance_to(Timestamp(12), &mut ev);
        assert_eq!(ev.len(), CHUNK / 2);
        let snap = w.snapshot();
        assert_eq!(snap.len(), CHUNK / 2);
        assert_eq!(
            snap.iter().next().map(|o| o.oid.0),
            Some(CHUNK as u64 / 2),
            "snapshot must skip the evicted prefix of the front chunk"
        );
    }

    #[test]
    fn generation_advances_on_every_content_change() {
        let mut w = SlidingWindow::new(Duration(100));
        let mut ev = Vec::new();
        let g0 = w.generation();
        // Advancing the clock without evicting anything changes nothing.
        w.advance_to(Timestamp(50), &mut ev);
        assert_eq!(w.generation(), g0);
        // Inserts change the contents.
        w.insert(obj(1, 60), &mut ev);
        let g1 = w.generation();
        assert!(g1 > g0);
        // Eviction sweeps change the contents even without an insert.
        w.advance_to(Timestamp(300), &mut ev);
        assert_eq!(ev.len(), 1);
        let g2 = w.generation();
        assert!(g2 > g1);
    }

    #[test]
    fn persist_round_trip_is_structural() {
        use crate::persist::{Persist, PersistError, PersistReader, PersistWriter};
        let mut w = SlidingWindow::new(Duration(5_000));
        let mut ev = Vec::new();
        // Sealed chunks with a partially evicted front prefix plus a tail.
        for i in 0..(2 * CHUNK as u64 + 77) {
            w.insert(obj(i, i), &mut ev);
        }
        w.advance_to(Timestamp(5_100), &mut ev);
        assert!(w.front_offset > 0, "test wants a live evicted prefix");

        let mut pw = PersistWriter::new();
        w.persist(&mut pw);
        let bytes = pw.into_bytes();
        let mut back = SlidingWindow::restore(&mut PersistReader::new(&bytes)).unwrap();

        assert_eq!(back.len(), w.len());
        assert_eq!(back.now(), w.now());
        assert_eq!(back.generation(), w.generation());
        assert_eq!(back.front_offset, w.front_offset);
        assert_eq!(back.sealed.len(), w.sealed.len());
        let a: Vec<u64> = w.iter().map(|o| o.oid.0).collect();
        let b: Vec<u64> = back.iter().map(|o| o.oid.0).collect();
        assert_eq!(a, b);

        // Future churn behaves identically on both.
        let (mut ev_a, mut ev_b) = (Vec::new(), Vec::new());
        for i in 0..200u64 {
            w.insert(obj(100_000 + i, 5_200 + i * 40), &mut ev_a);
            back.insert(obj(100_000 + i, 5_200 + i * 40), &mut ev_b);
        }
        assert_eq!(
            ev_a.iter().map(|o| o.oid.0).collect::<Vec<_>>(),
            ev_b.iter().map(|o| o.oid.0).collect::<Vec<_>>()
        );
        assert_eq!(w.generation(), back.generation());

        // Truncations decode to typed errors, never a panic.
        for cut in [0, 4, 12, 40, bytes.len() / 2, bytes.len() - 1] {
            let err = SlidingWindow::restore(&mut PersistReader::new(&bytes[..cut])).unwrap_err();
            assert!(matches!(
                err,
                PersistError::Truncated { .. } | PersistError::Corrupt { .. }
            ));
        }
    }

    #[test]
    fn horizon_tracks_now() {
        let mut w = SlidingWindow::new(Duration(100));
        let mut ev = Vec::new();
        assert_eq!(w.horizon(), Timestamp::ZERO);
        w.insert(obj(1, 250), &mut ev);
        assert_eq!(w.horizon(), Timestamp(150));
    }
}
