//! Slot-based shared object store: the single owner of live window
//! objects.
//!
//! Every backend used to keep its own clone of the `GeoTextObject`s (the
//! spatial index's cells *and* the inverted index's object map), so each
//! window insert paid two clones and queries chased pointers through
//! `HashMap`s. The store replaces all of that with one set of dense
//! columns addressed by `u32` slot ids; indexes hold bare slots and read
//! only the column they test at query time.
//!
//! ## Slot lifecycle and deferred reuse
//!
//! Slots are recycled through a free list, but the inverted index keeps
//! **lazy tombstones**: removing an object does not touch its posting
//! lists, it only bumps per-posting dead counters (compaction is
//! amortized, see [`crate::inverted`]). A dead slot must therefore not be
//! handed out again while stale posting entries still reference it —
//! otherwise an old entry would alias the new object. The store enforces
//! this with a per-slot reference count: [`ObjectStore::remove`] parks the
//! slot with one reference per posting list that mentions it (= the
//! object's keyword count), and each posting compaction that drops a dead
//! entry calls [`ObjectStore::release_ref`]; the slot only rejoins the
//! free list at zero. Keyword-less objects recycle immediately.

use geostream::{GeoTextObject, IdMap, KeywordId, ObjectId, Point, RcDvq};
use std::sync::Arc;

/// Dense index of an object in the store (and in every backend).
pub type SlotId = u32;

/// Single owner of the live window objects, shared by all exact indexes.
///
/// Objects are split into parallel columns indexed by slot, so a counting
/// kernel streams only the field it tests: a rectangle check reads the
/// 16-byte `locs` entry and nothing else of the object.
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    /// Location per slot (stale for free or parked slots).
    locs: Vec<Point>,
    /// Identity per slot (stale for free or parked slots).
    oids: Vec<ObjectId>,
    /// Keyword set per slot; `None` for free or parked slots.
    keywords: Vec<Option<Arc<[KeywordId]>>>,
    /// Liveness per slot — posting lists check this to skip tombstones.
    live: Vec<bool>,
    /// Outstanding posting-list references to a dead slot; the slot is
    /// recycled only when this drains to zero.
    pending_refs: Vec<u32>,
    /// Recycled slots ready for reuse.
    free: Vec<SlotId>,
    /// External identity → slot.
    by_oid: IdMap<ObjectId, SlotId>,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.by_oid.len()
    }

    /// Whether the store holds no live objects.
    pub fn is_empty(&self) -> bool {
        self.by_oid.is_empty()
    }

    /// Total slots ever allocated (live + parked + free) — the capacity
    /// indexes may be asked to address.
    pub fn slot_capacity(&self) -> usize {
        self.live.len()
    }

    /// Whether an object with this id is live.
    pub fn contains(&self, oid: ObjectId) -> bool {
        self.by_oid.contains_key(&oid)
    }

    /// The slot of a live object, if present.
    pub fn slot_of(&self, oid: ObjectId) -> Option<SlotId> {
        self.by_oid.get(&oid).copied()
    }

    /// Whether `slot` holds a live object. Out-of-range slots are dead.
    #[inline]
    pub fn is_live(&self, slot: SlotId) -> bool {
        self.live.get(slot as usize).copied().unwrap_or(false)
    }

    /// Location of the object at `slot`. Only meaningful for a live slot:
    /// callers holding possibly dead slots (posting tombstones) check
    /// [`Self::is_live`] first.
    #[inline]
    pub fn loc(&self, slot: SlotId) -> &Point {
        &self.locs[slot as usize]
    }

    /// Identity of the object at `slot` (same liveness caveat as
    /// [`Self::loc`]).
    #[inline]
    pub fn oid(&self, slot: SlotId) -> ObjectId {
        self.oids[slot as usize]
    }

    /// The sorted keyword set of the live object at `slot`.
    ///
    /// # Panics
    /// Panics if the slot is free or parked — indexes only hold live
    /// slots (posting tombstones are filtered through [`Self::is_live`]).
    #[inline]
    pub fn keywords(&self, slot: SlotId) -> &[KeywordId] {
        self.keywords[slot as usize]
            .as_deref()
            // LINT-ALLOW(no-panic): the free list only ever holds indices of dead slots
            .expect("index holds a dead slot")
    }

    /// Whether the live object at `slot` satisfies both of `query`'s
    /// predicates.
    #[inline]
    pub fn matches(&self, slot: SlotId, query: &RcDvq) -> bool {
        query.matches_parts(self.loc(slot), self.keywords(slot))
    }

    /// Iterates `(slot, keywords)` over the live population (store order,
    /// not insertion order).
    pub fn iter_live(&self) -> impl Iterator<Item = (SlotId, &[KeywordId])> {
        self.keywords
            .iter()
            .enumerate()
            .filter_map(|(i, kws)| kws.as_deref().map(|kws| (i as SlotId, kws)))
    }

    /// Stores an object and returns its slot.
    ///
    /// The caller (the executor) is responsible for removing any previous
    /// object with the same id first; debug builds assert it.
    pub fn insert(&mut self, obj: GeoTextObject) -> SlotId {
        debug_assert!(
            !self.by_oid.contains_key(&obj.oid),
            "oid re-inserted without removal"
        );
        let GeoTextObject {
            oid, loc, keywords, ..
        } = obj;
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = slot as usize;
                self.locs[s] = loc;
                self.oids[s] = oid;
                self.keywords[s] = Some(keywords);
                self.live[s] = true;
                slot
            }
            None => {
                let slot = self.live.len() as SlotId;
                self.locs.push(loc);
                self.oids.push(oid);
                self.keywords.push(Some(keywords));
                self.live.push(true);
                self.pending_refs.push(0);
                slot
            }
        };
        self.by_oid.insert(oid, slot);
        slot
    }

    /// Removes a live object, returning its slot and its keyword set (what
    /// the inverted index needs to tombstone its postings; the spatial
    /// backends locate a slot without reading the object).
    ///
    /// The slot is parked with one pending reference per keyword — each
    /// posting list that mentions it — and recycles via
    /// [`Self::release_ref`]; with no keywords it is immediately free.
    pub fn remove(&mut self, oid: ObjectId) -> Option<(SlotId, Arc<[KeywordId]>)> {
        let slot = self.by_oid.remove(&oid)?;
        let keywords = self.keywords[slot as usize]
            .take()
            // LINT-ALLOW(no-panic): by_oid entries are removed before their slot is freed, so the slot is occupied
            .expect("by_oid points at an occupied slot");
        self.live[slot as usize] = false;
        // LINT-ALLOW(as-truncation): per-object keyword counts are tiny (tens at most)
        let refs = keywords.len() as u32;
        self.pending_refs[slot as usize] = refs;
        if refs == 0 {
            self.free.push(slot);
        }
        Some((slot, keywords))
    }

    /// Drops one posting-list reference to a parked slot; the last
    /// reference returns the slot to the free list.
    pub fn release_ref(&mut self, slot: SlotId) {
        let refs = &mut self.pending_refs[slot as usize];
        debug_assert!(*refs > 0, "released more refs than were parked");
        *refs -= 1;
        if *refs == 0 {
            self.free.push(slot);
        }
    }

    /// Outstanding posting-list references parked on a slot (zero for
    /// live or out-of-range slots). Auditor-only cross-check against the
    /// inverted index's actual tombstone entries.
    #[cfg(feature = "debug-invariants")]
    pub(crate) fn pending_refs_of(&self, slot: SlotId) -> u32 {
        self.pending_refs.get(slot as usize).copied().unwrap_or(0)
    }

    /// Full O(slots) invariant walk (the `debug-invariants` auditor):
    ///
    /// * **parallel-arrays** — the three object columns, `live`, and
    ///   `pending_refs` have the same length.
    /// * **identity** — `by_oid` maps exactly the live population: every
    ///   entry points at a live slot holding that oid, and every live slot
    ///   is pointed at.
    /// * **liveness** — a live slot is occupied (its keyword set is
    ///   present) with zero pending references; a dead slot is vacant.
    /// * **free-list** — the free list holds exactly the dead slots with
    ///   no outstanding posting references, each once (parked slots —
    ///   dead with references — are excluded until fully released).
    #[cfg(feature = "debug-invariants")]
    pub fn audit(&self) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        const S: &str = "ObjectStore";
        let n = self.live.len();
        let columns = [
            self.locs.len(),
            self.oids.len(),
            self.keywords.len(),
            self.pending_refs.len(),
        ];
        ensure(
            columns.iter().all(|&len| len == n),
            S,
            "parallel-arrays",
            || format!("live {n}, locs/oids/keywords/pending_refs {columns:?}"),
        )?;
        let mut live_count = 0usize;
        for s in 0..n {
            match (self.keywords[s].is_some(), self.live[s]) {
                (true, true) => {
                    live_count += 1;
                    ensure(self.pending_refs[s] == 0, S, "liveness", || {
                        format!(
                            "live slot {s} carries {} pending refs",
                            self.pending_refs[s]
                        )
                    })?;
                    ensure(
                        self.by_oid.get(&self.oids[s]) == Some(&(s as SlotId)),
                        S,
                        "identity",
                        || format!("slot {s} holds {:?} but by_oid disagrees", self.oids[s]),
                    )?;
                }
                (false, false) => {}
                (occupied, live) => {
                    ensure(false, S, "liveness", || {
                        format!("slot {s}: occupied={occupied} live={live}")
                    })?;
                }
            }
        }
        ensure(self.by_oid.len() == live_count, S, "identity", || {
            format!(
                "by_oid maps {} oids, {live_count} slots live",
                self.by_oid.len()
            )
        })?;
        let mut in_free = vec![false; n];
        for &slot in &self.free {
            let s = slot as usize;
            ensure(s < n && !in_free[s], S, "free-list", || {
                format!("slot {slot} out of range or listed twice")
            })?;
            in_free[s] = true;
        }
        for (s, &free_listed) in in_free.iter().enumerate() {
            let should_be_free = !self.live[s] && self.pending_refs[s] == 0;
            ensure(free_listed == should_be_free, S, "free-list", || {
                format!(
                    "slot {s}: live={} refs={} but free-listed={free_listed}",
                    self.live[s], self.pending_refs[s]
                )
            })?;
        }
        Ok(())
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
        let a = s.insert(obj(1, &[7]));
        let b = s.insert(obj(2, &[]));
        assert_ne!(a, b);
        assert_eq!(s.len(), 2);
        assert_eq!(s.oid(a), ObjectId(1));
        assert_eq!(s.keywords(a), &[KeywordId(7)]);
        assert_eq!(*s.loc(b), Point::new(2.0, 0.0));
        assert_eq!(s.slot_of(ObjectId(2)), Some(b));
        let (slot, kws) = s.remove(ObjectId(1)).unwrap();
        assert_eq!(slot, a);
        assert_eq!(&*kws, &[KeywordId(7)]);
        assert!(!s.is_live(a));
        assert!(s.remove(ObjectId(1)).is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn keywordless_slot_recycles_immediately() {
        let mut s = ObjectStore::new();
        let a = s.insert(obj(1, &[]));
        s.remove(ObjectId(1));
        let b = s.insert(obj(2, &[]));
        assert_eq!(a, b, "free slot must be reused");
        assert_eq!(s.slot_capacity(), 1);
    }

    #[test]
    fn keyword_slot_parks_until_refs_release() {
        let mut s = ObjectStore::new();
        let a = s.insert(obj(1, &[3, 5]));
        s.remove(ObjectId(1));
        // Two posting lists still reference the slot: not reusable yet.
        let b = s.insert(obj(2, &[]));
        assert_ne!(a, b);
        s.release_ref(a);
        let c = s.insert(obj(3, &[]));
        assert_ne!(a, c, "one ref still parked");
        s.release_ref(a);
        let d = s.insert(obj(4, &[]));
        assert_eq!(a, d, "fully released slot recycles");
    }

    #[test]
    fn iter_live_sees_exactly_the_population() {
        let mut s = ObjectStore::new();
        for i in 0..10 {
            s.insert(obj(i, &[]));
        }
        for i in 0..5 {
            s.remove(ObjectId(i));
        }
        let live: Vec<u64> = s.iter_live().map(|(slot, _)| s.oid(slot).0).collect();
        assert_eq!(live.len(), 5);
        assert!(live.iter().all(|&id| id >= 5));
    }
}
