//! Inverted keyword index over store slots: `keyword → sorted posting
//! list of slot ids`.
//!
//! Postings are plain sorted `Vec<SlotId>`s into the shared
//! [`ObjectStore`] — no per-object clones, no hash sets. Removal is
//! **lazy**: it only bumps a per-posting dead counter (the store's live
//! bitmap is the truth), and a posting is compacted — dead entries
//! filtered out, their slot references released back to the store — once
//! a quarter of it is tombstones. Each compaction drops at least a
//! quarter of the list, so the amortized cost per removal is O(1) and a
//! posting never carries more than ~33% garbage.
//!
//! Multi-keyword counting runs a k-way merge over the sorted postings:
//! duplicates collapse by slot order instead of through a per-query
//! `HashSet`, and hybrid queries verify the spatial predicate by reading
//! the shared store directly.

use crate::store::{ObjectStore, SlotId};
use crate::NoKeywordPredicate;
use geostream::{IdMap, KeywordId, RcDvq};

/// Keyword sets up to this size merge from list slices held on the stack;
/// only longer ones allocate.
const INLINE_MERGE_WAYS: usize = 8;

/// One keyword's posting list: ascending slot ids, `dead` of which are
/// tombstones (slots no longer live in the store).
#[derive(Debug, Clone, Default)]
struct PostingList {
    slots: Vec<SlotId>,
    dead: u32,
}

impl PostingList {
    #[inline]
    fn live_len(&self) -> usize {
        self.slots.len() - self.dead as usize
    }

    /// Tombstone threshold: compact once ≥ 25% of the list is dead.
    #[inline]
    fn needs_compaction(&self) -> bool {
        self.dead as usize * 4 >= self.slots.len()
    }
}

/// An inverted index over object keywords, addressing the shared store.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: IdMap<KeywordId, PostingList>,
    /// Posting compactions performed (diagnostics / bench reporting).
    compactions: u64,
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keywords with live postings.
    pub fn distinct_keywords(&self) -> usize {
        self.postings.values().filter(|p| p.live_len() > 0).count()
    }

    /// Posting compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Live posting-list size for one keyword.
    pub fn postings_len(&self, kw: KeywordId) -> usize {
        self.postings.get(&kw).map_or(0, PostingList::live_len)
    }

    /// Indexes a live slot under each of the object's keywords. The slot
    /// must not already be present (the executor removes first on oid
    /// replacement, and the store never re-issues a referenced slot).
    pub fn insert(&mut self, slot: SlotId, store: &ObjectStore) {
        for &kw in store.keywords(slot) {
            let posting = self.postings.entry(kw).or_default();
            match posting.slots.binary_search(&slot) {
                Ok(_) => debug_assert!(false, "slot already posted under {kw:?}"),
                Err(pos) => posting.slots.insert(pos, slot),
            }
        }
    }

    /// Lazily removes a slot: each of the object's postings gains a
    /// tombstone, and postings crossing the garbage threshold are
    /// compacted (releasing their parked slot references to the store).
    ///
    /// Call **after** `store.remove` — the liveness bitmap drives both
    /// tombstone filtering and compaction.
    pub fn remove(&mut self, keywords: &[KeywordId], store: &mut ObjectStore) {
        for &kw in keywords {
            let Some(posting) = self.postings.get_mut(&kw) else {
                debug_assert!(false, "removing a slot that was never posted");
                continue;
            };
            posting.dead += 1;
            if posting.needs_compaction() {
                posting.slots.retain(|&s| {
                    let keep = store.is_live(s);
                    if !keep {
                        store.release_ref(s);
                    }
                    keep
                });
                posting.dead = 0;
                self.compactions += 1;
                if posting.slots.is_empty() {
                    self.postings.remove(&kw);
                }
            }
        }
    }

    /// Candidate cost of the inverted access path for these keywords: the
    /// number of posting entries a count would have to merge.
    pub fn candidate_cost(&self, keywords: &[KeywordId]) -> u64 {
        keywords
            .iter()
            .map(|kw| self.postings.get(kw).map_or(0, |p| p.live_len() as u64))
            .sum()
    }

    /// Exact count of objects matching `query`, using the union of the
    /// query keywords' posting lists as the access path (the spatial
    /// predicate, if any, is verified against the shared store).
    ///
    /// Returns [`NoKeywordPredicate`] for queries without keywords — the
    /// inverted index has no access path for pure spatial queries.
    pub fn count(&self, query: &RcDvq, store: &ObjectStore) -> Result<u64, NoKeywordPredicate> {
        let kws = query.keywords();
        if kws.is_empty() {
            return Err(NoKeywordPredicate);
        }
        let range = query.range();
        if let [kw] = kws {
            // Single-keyword fast path: no merge needed, and without a
            // spatial predicate the live length *is* the answer.
            let Some(posting) = self.postings.get(kw) else {
                return Ok(0);
            };
            return Ok(match range {
                None => posting.live_len() as u64,
                Some(r) => posting
                    .slots
                    .iter()
                    .filter(|&&s| store.is_live(s) && r.contains(store.loc(s)))
                    .count() as u64,
            });
        }
        // K-way merge over the sorted postings: duplicates collapse by
        // advancing every list whose head is the minimum slot. A list's
        // cursor is its slice itself, shrunk from the front.
        let non_empty = kws
            .iter()
            .filter_map(|kw| self.postings.get(kw))
            .map(|p| p.slots.as_slice())
            .filter(|s| !s.is_empty());
        let mut inline: [&[SlotId]; INLINE_MERGE_WAYS] = [&[]; INLINE_MERGE_WAYS];
        let mut spilled: Vec<&[SlotId]> = Vec::new();
        let lists: &mut [&[SlotId]] = if kws.len() <= INLINE_MERGE_WAYS {
            let mut n = 0;
            for list in non_empty {
                inline[n] = list;
                n += 1;
            }
            &mut inline[..n]
        } else {
            spilled.extend(non_empty);
            &mut spilled
        };
        let mut count = 0u64;
        while let Some(slot) = lists.iter().filter_map(|list| list.first().copied()).min() {
            for list in lists.iter_mut() {
                if list.first() == Some(&slot) {
                    *list = &list[1..];
                }
            }
            if store.is_live(slot) && range.is_none_or(|r| r.contains(store.loc(slot))) {
                count += 1;
            }
        }
        Ok(count)
    }
}

#[cfg(feature = "debug-invariants")]
impl InvertedIndex {
    /// Full O(postings) invariant walk against the shared store (the
    /// `debug-invariants` auditor):
    ///
    /// * **posting-sorted** — every posting list is strictly ascending in
    ///   slot id (binary-search insertion and k-way merging depend on it).
    /// * **dead-counter** — each list's maintained tombstone count equals
    ///   the number of its slots no longer live in the store.
    /// * **posting-coverage** — every live object's keywords post its
    ///   slot.
    /// * **pending-refs** — each dead slot's outstanding reference count
    ///   in the store equals the posting entries still mentioning it (the
    ///   contract that keeps recycled slots from aliasing stale entries).
    pub fn audit(&self, store: &ObjectStore) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        const S: &str = "InvertedIndex";
        let mut refs: IdMap<SlotId, u32> = IdMap::default();
        for (kw, posting) in &self.postings {
            let mut dead = 0u32;
            for (i, &slot) in posting.slots.iter().enumerate() {
                if i > 0 {
                    ensure(posting.slots[i - 1] < slot, S, "posting-sorted", || {
                        format!("{kw:?} slots out of order at {i}")
                    })?;
                }
                if !store.is_live(slot) {
                    dead += 1;
                    *refs.entry(slot).or_insert(0) += 1;
                }
            }
            ensure(posting.dead == dead, S, "dead-counter", || {
                format!(
                    "{kw:?} maintains dead {} but {dead} slots are dead",
                    posting.dead
                )
            })?;
        }
        let mut coverage_gap: Option<(SlotId, KeywordId)> = None;
        for (slot, keywords) in store.iter_live() {
            for &kw in keywords {
                let posted = self
                    .postings
                    .get(&kw)
                    .is_some_and(|p| p.slots.binary_search(&slot).is_ok());
                if coverage_gap.is_none() && !posted {
                    coverage_gap = Some((slot, kw));
                }
            }
        }
        ensure(coverage_gap.is_none(), S, "posting-coverage", || {
            let (slot, kw) = coverage_gap.unwrap_or((0, KeywordId(0)));
            format!("live slot {slot} not posted under {kw:?}")
        })?;
        for slot in 0..store.slot_capacity() as SlotId {
            if store.is_live(slot) {
                continue;
            }
            let expected = refs.get(&slot).copied().unwrap_or(0);
            let parked = store.pending_refs_of(slot);
            ensure(parked == expected, S, "pending-refs", || {
                format!("dead slot {slot} parks {parked} refs, {expected} entries remain")
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::{GeoTextObject, ObjectId, Point, Rect, Timestamp};

    fn obj(id: u64, x: f64, kws: &[u32]) -> GeoTextObject {
        GeoTextObject::new(
            ObjectId(id),
            Point::new(x, 0.0),
            kws.iter().copied().map(KeywordId).collect(),
            Timestamp::ZERO,
        )
    }

    fn insert(idx: &mut InvertedIndex, store: &mut ObjectStore, o: GeoTextObject) -> SlotId {
        let slot = store.insert(o);
        idx.insert(slot, store);
        slot
    }

    fn remove(idx: &mut InvertedIndex, store: &mut ObjectStore, id: u64) {
        let (_, keywords) = store.remove(ObjectId(id)).expect("present");
        idx.remove(&keywords, store);
    }

    #[test]
    fn counts_union_of_postings() {
        let mut store = ObjectStore::new();
        let mut idx = InvertedIndex::new();
        insert(&mut idx, &mut store, obj(1, 0.0, &[1, 2]));
        insert(&mut idx, &mut store, obj(2, 0.0, &[2]));
        insert(&mut idx, &mut store, obj(3, 0.0, &[3]));
        let q = RcDvq::keyword(vec![KeywordId(1), KeywordId(2)]);
        // Object 1 matches both keywords but counts once.
        assert_eq!(idx.count(&q, &store).unwrap(), 2);
        assert_eq!(idx.postings_len(KeywordId(2)), 2);
        assert_eq!(idx.distinct_keywords(), 3);
        assert_eq!(idx.candidate_cost(q.keywords()), 3);
    }

    #[test]
    fn hybrid_checks_spatial_predicate() {
        let mut store = ObjectStore::new();
        let mut idx = InvertedIndex::new();
        insert(&mut idx, &mut store, obj(1, 1.0, &[7]));
        insert(&mut idx, &mut store, obj(2, 50.0, &[7]));
        let q = RcDvq::hybrid(Rect::new(0.0, -1.0, 10.0, 1.0), vec![KeywordId(7)]);
        assert_eq!(idx.count(&q, &store).unwrap(), 1);
        let q2 = RcDvq::hybrid(
            Rect::new(0.0, -1.0, 10.0, 1.0),
            vec![KeywordId(7), KeywordId(9)],
        );
        assert_eq!(idx.count(&q2, &store).unwrap(), 1);
    }

    #[test]
    fn tombstones_hide_removed_objects() {
        let mut store = ObjectStore::new();
        let mut idx = InvertedIndex::new();
        for i in 0..10 {
            insert(&mut idx, &mut store, obj(i, 0.0, &[1]));
        }
        remove(&mut idx, &mut store, 0);
        remove(&mut idx, &mut store, 1);
        // Lazy: tombstones only, but counts must not see the dead.
        assert_eq!(idx.postings_len(KeywordId(1)), 8);
        let q = RcDvq::keyword(vec![KeywordId(1)]);
        assert_eq!(idx.count(&q, &store).unwrap(), 8);
        let multi = RcDvq::keyword(vec![KeywordId(1), KeywordId(2)]);
        assert_eq!(idx.count(&multi, &store).unwrap(), 8);
    }

    #[test]
    fn compaction_releases_slots_for_reuse() {
        let mut store = ObjectStore::new();
        let mut idx = InvertedIndex::new();
        for i in 0..8 {
            insert(&mut idx, &mut store, obj(i, 0.0, &[1]));
        }
        // Remove enough to cross the 25% threshold.
        remove(&mut idx, &mut store, 0);
        remove(&mut idx, &mut store, 1);
        assert!(idx.compactions() >= 1, "threshold crossed, no compaction");
        // Compaction released the refs: the freed slots recycle.
        let reused = store.insert(obj(100, 0.0, &[]));
        assert!(reused < 8, "slot {reused} should come from the free list");
        let q = RcDvq::keyword(vec![KeywordId(1)]);
        assert_eq!(idx.count(&q, &store).unwrap(), 6);
    }

    #[test]
    fn singleton_posting_compacts_away() {
        let mut store = ObjectStore::new();
        let mut idx = InvertedIndex::new();
        insert(&mut idx, &mut store, obj(1, 0.0, &[42]));
        remove(&mut idx, &mut store, 1);
        assert_eq!(idx.distinct_keywords(), 0);
        assert_eq!(idx.postings_len(KeywordId(42)), 0);
        // The slot fully recycles — no leak from rare keywords.
        let reused = store.insert(obj(2, 0.0, &[]));
        assert_eq!(reused, 0);
    }

    #[test]
    fn pure_spatial_is_a_typed_error() {
        let store = ObjectStore::new();
        let idx = InvertedIndex::new();
        let q = RcDvq::spatial(Rect::new(0.0, 0.0, 1.0, 1.0));
        assert_eq!(idx.count(&q, &store), Err(NoKeywordPredicate));
    }

    #[test]
    fn missing_keyword_counts_zero() {
        let mut store = ObjectStore::new();
        let mut idx = InvertedIndex::new();
        insert(&mut idx, &mut store, obj(1, 0.0, &[1]));
        let q = RcDvq::keyword(vec![KeywordId(99)]);
        assert_eq!(idx.count(&q, &store).unwrap(), 0);
    }
}
