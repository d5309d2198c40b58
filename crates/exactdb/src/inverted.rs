//! Inverted keyword index over the ring: `keyword → posting list of
//! seqs`, oldest first.
//!
//! Postings are `SeqQueue`s into the shared [`ObjectStore`] — no
//! per-object clones, no hash sets. An arrival pushes its `seq` onto each
//! of its keywords' postings; an eviction pops the front of each, which is
//! the evicted object because it is the oldest live one. A posting that
//! empties leaves the map. There are no tombstones, so a posting's length
//! is its live count and a count never checks liveness.
//!
//! Multi-keyword counting runs a k-way merge over the postings, which are
//! sorted by age: duplicates collapse by age order instead of through a
//! per-query `HashSet`, and hybrid queries verify the spatial predicate by
//! reading the shared store directly.

use crate::store::{ObjectStore, Seq, SeqQueue};
use crate::NoKeywordPredicate;
use geostream::{IdMap, KeywordId, RcDvq};

/// Keyword sets up to this size merge from list slices held on the stack;
/// only longer ones allocate.
const INLINE_MERGE_WAYS: usize = 8;

/// An inverted index over object keywords, addressing the shared store.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: IdMap<KeywordId, SeqQueue>,
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keywords among the live objects.
    pub fn distinct_keywords(&self) -> usize {
        self.postings.len()
    }

    /// Posting-list size for one keyword.
    pub fn postings_len(&self, kw: KeywordId) -> usize {
        self.postings.get(&kw).map_or(0, SeqQueue::len)
    }

    /// Posts the store's newest object under each of its keywords.
    pub fn insert(&mut self, seq: Seq, store: &ObjectStore) {
        for &kw in store.keywords(seq) {
            self.postings.entry(kw).or_default().push(seq);
        }
    }

    /// Evicts the store's oldest object, `seq`, from the front of each of
    /// its keywords' postings. Call before the store drops it.
    pub fn pop_front(&mut self, seq: Seq, store: &ObjectStore) {
        for &kw in store.keywords(seq) {
            let Some(posting) = self.postings.get_mut(&kw) else {
                debug_assert!(false, "seq {seq} was never posted under {kw:?}");
                continue;
            };
            debug_assert_eq!(posting.front(), Some(seq), "{kw:?} front");
            posting.pop_front();
            if posting.is_empty() {
                self.postings.remove(&kw);
            }
        }
    }

    /// Candidate cost of the inverted access path for these keywords: the
    /// number of posting entries a count would have to merge.
    pub fn candidate_cost(&self, keywords: &[KeywordId]) -> u64 {
        keywords
            .iter()
            .map(|kw| self.postings_len(*kw) as u64)
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
            // spatial predicate the length *is* the answer.
            let Some(posting) = self.postings.get(kw) else {
                return Ok(0);
            };
            return Ok(match range {
                None => posting.len() as u64,
                Some(r) => posting
                    .as_slice()
                    .iter()
                    .filter(|&&s| r.contains(store.loc(s)))
                    .count() as u64,
            });
        }
        let non_empty = kws
            .iter()
            .filter_map(|kw| self.postings.get(kw))
            .map(SeqQueue::as_slice)
            .filter(|s| !s.is_empty());
        let mut inline: [&[Seq]; INLINE_MERGE_WAYS] = [&[]; INLINE_MERGE_WAYS];
        let mut spilled: Vec<&[Seq]> = Vec::new();
        let lists: &mut [&[Seq]] = if kws.len() <= INLINE_MERGE_WAYS {
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
        let passes = |seq: Seq| range.is_none_or(|r| r.contains(store.loc(seq)));
        // Age order is `seq` order unless the live range wraps the `u32`
        // space (once per 2³² arrivals); only then is every head rebased,
        // which costs the merge ≈ 10 %.
        Ok(if store.wraps() {
            merge_count(lists, |seq| store.age(seq), passes)
        } else {
            merge_count(lists, |seq| seq, passes)
        })
    }
}

/// K-way merge: counts the objects in the union of `lists` — each sorted
/// by `key`, oldest first — that `passes` accepts. Every list whose head
/// is the oldest advances, so an object posted under several of the
/// keywords counts once without a per-query `HashSet`. A list's cursor is
/// its slice itself, shrunk from the front.
fn merge_count(
    lists: &mut [&[Seq]],
    key: impl Fn(Seq) -> u32,
    passes: impl Fn(Seq) -> bool,
) -> u64 {
    let mut count = 0;
    while let Some(oldest) = lists
        .iter()
        .filter_map(|list| list.first().copied())
        .min_by_key(|&seq| key(seq))
    {
        for list in lists.iter_mut() {
            if list.first() == Some(&oldest) {
                *list = &list[1..];
            }
        }
        if passes(oldest) {
            count += 1;
        }
    }
    count
}

#[cfg(feature = "debug-invariants")]
impl InvertedIndex {
    /// Full O(postings) invariant walk against the ring (the
    /// `debug-invariants` auditor):
    ///
    /// * **age-order** — every posting is strictly increasing in age over
    ///   live objects (the k-way merge and front pops depend on it).
    /// * **posting-keyword** — every entry's object carries the keyword,
    ///   and no posting is empty.
    /// * **posting-coverage** — the postings hold as many entries as the
    ///   live objects carry keywords. With the two checks above, every
    ///   live object is posted exactly once under each of its keywords.
    pub fn audit(&self, store: &ObjectStore) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        const S: &str = "InvertedIndex";
        let mut posted = 0usize;
        for (kw, posting) in &self.postings {
            store.audit_queue(S, posting, || format!("{kw:?}"))?;
            ensure(!posting.is_empty(), S, "posting-keyword", || {
                format!("{kw:?} posting is empty")
            })?;
            for &seq in posting.as_slice() {
                ensure(
                    store.keywords(seq).binary_search(kw).is_ok(),
                    S,
                    "posting-keyword",
                    || format!("seq {seq} posted under {kw:?} it does not carry"),
                )?;
            }
            posted += posting.len();
        }
        let carried: usize = store.seqs().map(|seq| store.keywords(seq).len()).sum();
        ensure(posted == carried, S, "posting-coverage", || {
            format!("postings hold {posted} entries, live objects carry {carried} keywords")
        })
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

    fn insert(idx: &mut InvertedIndex, store: &mut ObjectStore, o: GeoTextObject) -> Seq {
        let seq = store.push(&o);
        idx.insert(seq, store);
        seq
    }

    fn remove_oldest(idx: &mut InvertedIndex, store: &mut ObjectStore) {
        let seq = store.front().expect("non-empty");
        idx.pop_front(seq, store);
        store.pop_front();
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

    /// Evictions pop posting fronts, so neither the single-keyword length
    /// nor the merge sees an evicted object.
    #[test]
    fn evictions_leave_the_postings() {
        let mut store = ObjectStore::new();
        let mut idx = InvertedIndex::new();
        for i in 0..10 {
            insert(&mut idx, &mut store, obj(i, 0.0, &[1, 1 + (i % 2) as u32]));
        }
        remove_oldest(&mut idx, &mut store);
        remove_oldest(&mut idx, &mut store);
        assert_eq!(idx.postings_len(KeywordId(1)), 8);
        assert_eq!(idx.postings_len(KeywordId(2)), 4);
        let q = RcDvq::keyword(vec![KeywordId(1)]);
        assert_eq!(idx.count(&q, &store).unwrap(), 8);
        let multi = RcDvq::keyword(vec![KeywordId(1), KeywordId(2)]);
        assert_eq!(idx.count(&multi, &store).unwrap(), 8);
        let odd = RcDvq::keyword(vec![KeywordId(2), KeywordId(3)]);
        assert_eq!(idx.count(&odd, &store).unwrap(), 4);
    }

    /// A posting that empties leaves the map: rare keywords leak nothing.
    #[test]
    fn singleton_posting_compacts_away() {
        let mut store = ObjectStore::new();
        let mut idx = InvertedIndex::new();
        insert(&mut idx, &mut store, obj(1, 0.0, &[42]));
        insert(&mut idx, &mut store, obj(2, 0.0, &[7]));
        remove_oldest(&mut idx, &mut store);
        assert_eq!(idx.distinct_keywords(), 1);
        assert_eq!(idx.postings_len(KeywordId(42)), 0);
        assert!(!idx.postings.contains_key(&KeywordId(42)));
    }

    /// The merge runs by age, not by `seq` value: a posting whose entries
    /// straddle the `u32` wrap still collapses duplicates.
    #[test]
    fn posting_merge_orders_by_age_across_the_seq_wrap() {
        let mut store = ObjectStore::starting_at(u32::MAX - 3);
        let mut idx = InvertedIndex::new();
        for i in 0..8u64 {
            insert(
                &mut idx,
                &mut store,
                obj(i, i as f64, &[1, 2 + (i % 3) as u32]),
            );
        }
        assert_eq!(
            store.seqs().nth(4),
            Some(0),
            "the live range straddles the wrap"
        );
        let q = RcDvq::keyword(vec![KeywordId(1), KeywordId(3)]);
        assert_eq!(idx.count(&q, &store).unwrap(), 8);
        let r = RcDvq::hybrid(
            geostream::Rect::new(2.5, -1.0, 6.5, 1.0),
            vec![KeywordId(2), KeywordId(4)],
        );
        assert_eq!(idx.count(&r, &store).unwrap(), 3);
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
