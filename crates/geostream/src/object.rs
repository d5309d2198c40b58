//! The geo-textual object model from the paper's problem definition (§III).

use crate::geometry::Point;
use crate::time::Timestamp;
use crate::vocab::KeywordId;
use std::sync::Arc;

/// Unique identifier for a stream object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

/// A geo-textual stream object `(oid, loc, kw, timestamp)`.
///
/// The keyword set is an `Arc<[KeywordId]>` so objects can be held by the
/// sliding window, a reservoir sampler, and an index at once without cloning
/// the keyword list. The slice is kept **sorted and deduplicated** by
/// [`GeoTextObject::new`], which makes keyword-intersection tests a merge
/// scan.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoTextObject {
    pub oid: ObjectId,
    pub loc: Point,
    pub keywords: Arc<[KeywordId]>,
    pub timestamp: Timestamp,
}

impl GeoTextObject {
    /// Builds an object, sorting and deduplicating `keywords`.
    pub fn new(
        oid: ObjectId,
        loc: Point,
        mut keywords: Vec<KeywordId>,
        timestamp: Timestamp,
    ) -> Self {
        keywords.sort_unstable();
        keywords.dedup();
        GeoTextObject {
            oid,
            loc,
            keywords: keywords.into(),
            timestamp,
        }
    }

    /// Whether the object carries `kw`.
    #[inline]
    pub fn has_keyword(&self, kw: KeywordId) -> bool {
        self.keywords.binary_search(&kw).is_ok()
    }

    /// Whether the object's keyword set intersects the **sorted** query
    /// keyword slice (the `o.kw ∩ q.W ≠ ∅` predicate of RC-DVQ).
    pub fn matches_any_keyword(&self, query_kws: &[KeywordId]) -> bool {
        keywords_intersect(&self.keywords, query_kws)
    }
}

/// Whether two **sorted** keyword slices share an element.
#[inline]
pub fn keywords_intersect(a: &[KeywordId], b: &[KeywordId]) -> bool {
    // Merge scan over two sorted sequences; both sides are tiny (a
    // handful of keywords), so this beats hashing.
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(kws: Vec<u32>) -> GeoTextObject {
        GeoTextObject::new(
            ObjectId(1),
            Point::new(0.0, 0.0),
            kws.into_iter().map(KeywordId).collect(),
            Timestamp::ZERO,
        )
    }

    #[test]
    fn keywords_sorted_and_deduped() {
        let o = obj(vec![5, 3, 5, 1, 3]);
        assert_eq!(
            o.keywords.as_ref(),
            &[KeywordId(1), KeywordId(3), KeywordId(5)]
        );
    }

    #[test]
    fn has_keyword() {
        let o = obj(vec![2, 4, 6]);
        assert!(o.has_keyword(KeywordId(4)));
        assert!(!o.has_keyword(KeywordId(5)));
    }

    #[test]
    fn matches_any_keyword_merge_scan() {
        let o = obj(vec![10, 20, 30]);
        assert!(o.matches_any_keyword(&[KeywordId(5), KeywordId(20)]));
        assert!(!o.matches_any_keyword(&[KeywordId(5), KeywordId(25)]));
        assert!(!o.matches_any_keyword(&[]));
        let empty = obj(vec![]);
        assert!(!empty.matches_any_keyword(&[KeywordId(10)]));
    }

    #[test]
    fn cheap_sharing() {
        let o = obj(vec![1, 2, 3]);
        let o2 = o.clone();
        assert!(Arc::ptr_eq(&o.keywords, &o2.keywords));
    }
}
