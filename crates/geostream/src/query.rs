//! The RC-DVQ estimation query (§III).
//!
//! A **Range-Counting Distinct-Value Query** `q = (R, W)` asks for the
//! number of window objects that (1) lie inside the optional spatial range
//! `R` and (2) carry at least one of the optional query keywords `W`. Both
//! predicates are optional (but not both absent), which degrades the query
//! to a pure range-counting query `q = (R)` or a pure distinct-value query
//! `q = (W)` — the flexibility LATEST is designed around.

use crate::geometry::{Point, Rect};
use crate::object::keywords_intersect;
use crate::vocab::KeywordId;

/// Classification of a query by which predicates it carries. This is one of
/// the workload features the learning model trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryType {
    /// Only a spatial range (pure range-counting query).
    Spatial,
    /// Only keywords (pure distinct-value query).
    Keyword,
    /// Both predicates.
    Hybrid,
}

impl QueryType {
    /// Stable dense index, used as a categorical ML feature.
    pub fn index(self) -> u32 {
        match self {
            QueryType::Spatial => 0,
            QueryType::Keyword => 1,
            QueryType::Hybrid => 2,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            QueryType::Spatial => "spatial",
            QueryType::Keyword => "keyword",
            QueryType::Hybrid => "hybrid",
        }
    }

    /// Number of query types (arity of the categorical feature).
    pub const COUNT: u32 = 3;
}

/// Stable identity hash of a query's predicates: equal queries (same
/// range bits, same sorted keyword set, same [`QueryType`]) always hash
/// to the same signature, across runs and platforms. Selectivity caches
/// key on `(QuerySignature, window generation)`.
///
/// The hash is FNV-1a over a type tag, the rectangle's `f64` bits, and
/// the sorted keyword ids. Rectangle bounds are normalized before
/// hashing so that `-0.0` hashes like `0.0`: the two are *equal* under
/// the spatial predicates (`-0.0 == 0.0` in every comparison), so
/// geometrically identical queries must share one signature — otherwise
/// the selectivity cache and the batch dedup would treat them as
/// distinct queries and redundantly recompute. NaN bounds (which no
/// valid query carries) hash by their raw bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuerySignature(pub u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A Range-Counting Distinct-Value estimation query.
#[derive(Debug, Clone, PartialEq)]
pub struct RcDvq {
    range: Option<Rect>,
    /// Sorted, deduplicated query keywords. Empty means "no keyword
    /// predicate".
    keywords: Vec<KeywordId>,
}

impl RcDvq {
    /// Builds a query from optional predicates.
    ///
    /// # Panics
    /// Panics if both predicates are absent — such a query would just count
    /// the window.
    pub fn new(range: Option<Rect>, mut keywords: Vec<KeywordId>) -> Self {
        keywords.sort_unstable();
        keywords.dedup();
        assert!(
            range.is_some() || !keywords.is_empty(),
            "RC-DVQ needs at least one predicate"
        );
        RcDvq { range, keywords }
    }

    /// Pure range-counting query `q = (R)`.
    pub fn spatial(range: Rect) -> Self {
        RcDvq::new(Some(range), Vec::new())
    }

    /// Pure distinct-value query `q = (W)`.
    pub fn keyword(keywords: Vec<KeywordId>) -> Self {
        RcDvq::new(None, keywords)
    }

    /// Hybrid query `q = (R, W)`.
    pub fn hybrid(range: Rect, keywords: Vec<KeywordId>) -> Self {
        assert!(!keywords.is_empty(), "hybrid query needs keywords");
        RcDvq::new(Some(range), keywords)
    }

    /// The spatial predicate, if present.
    pub fn range(&self) -> Option<&Rect> {
        self.range.as_ref()
    }

    /// The keyword predicate (sorted, deduplicated; empty if absent).
    pub fn keywords(&self) -> &[KeywordId] {
        &self.keywords
    }

    /// Which predicates the query carries.
    pub fn query_type(&self) -> QueryType {
        match (self.range.is_some(), self.keywords.is_empty()) {
            (true, true) => QueryType::Spatial,
            (false, false) => QueryType::Keyword,
            (true, false) => QueryType::Hybrid,
            (false, true) => unreachable!("constructor forbids empty query"),
        }
    }

    /// Stable content hash of the query's predicates (see
    /// [`QuerySignature`]). Deterministic across runs: the constructor
    /// sorts and dedups keywords, so equal predicate sets always produce
    /// equal signatures.
    pub fn signature(&self) -> QuerySignature {
        let mut h = fnv1a(FNV_OFFSET, &[self.query_type().index() as u8]);
        if let Some(r) = &self.range {
            for v in [r.min_x, r.min_y, r.max_x, r.max_y] {
                // `-0.0` and `0.0` are the same spatial predicate
                // (IEEE-754 compares them equal), so they must share a
                // signature: map -0.0 to +0.0 before taking bits.
                let v = if v == 0.0 { 0.0 } else { v };
                h = fnv1a(h, &v.to_bits().to_le_bytes());
            }
        }
        for kw in &self.keywords {
            h = fnv1a(h, &kw.0.to_le_bytes());
        }
        QuerySignature(h)
    }

    /// Whether `obj` satisfies both predicates (the exact-match test used by
    /// the ground-truth executor and samplers).
    pub fn matches(&self, obj: &crate::object::GeoTextObject) -> bool {
        self.matches_parts(&obj.loc, &obj.keywords)
    }

    /// [`RcDvq::matches`] for an object held as columns: its location and
    /// its **sorted** keyword slice.
    #[inline]
    pub fn matches_parts(&self, loc: &Point, keywords: &[KeywordId]) -> bool {
        self.range.as_ref().is_none_or(|r| r.contains(loc))
            && (self.keywords.is_empty() || keywords_intersect(keywords, &self.keywords))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::object::{GeoTextObject, ObjectId};
    use crate::time::Timestamp;

    fn obj(x: f64, y: f64, kws: &[u32]) -> GeoTextObject {
        GeoTextObject::new(
            ObjectId(0),
            Point::new(x, y),
            kws.iter().copied().map(KeywordId).collect(),
            Timestamp::ZERO,
        )
    }

    #[test]
    fn query_type_classification() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(RcDvq::spatial(r).query_type(), QueryType::Spatial);
        assert_eq!(
            RcDvq::keyword(vec![KeywordId(1)]).query_type(),
            QueryType::Keyword
        );
        assert_eq!(
            RcDvq::hybrid(r, vec![KeywordId(1)]).query_type(),
            QueryType::Hybrid
        );
    }

    #[test]
    #[should_panic(expected = "at least one predicate")]
    fn rejects_empty_query() {
        let _ = RcDvq::new(None, vec![]);
    }

    #[test]
    fn keywords_sorted_deduped() {
        let q = RcDvq::keyword(vec![KeywordId(3), KeywordId(1), KeywordId(3)]);
        assert_eq!(q.keywords(), &[KeywordId(1), KeywordId(3)]);
    }

    #[test]
    fn matches_spatial_only() {
        let q = RcDvq::spatial(Rect::new(0.0, 0.0, 1.0, 1.0));
        assert!(q.matches(&obj(0.5, 0.5, &[])));
        assert!(!q.matches(&obj(2.0, 0.5, &[])));
    }

    #[test]
    fn matches_keyword_only() {
        let q = RcDvq::keyword(vec![KeywordId(7)]);
        assert!(q.matches(&obj(99.0, 99.0, &[7, 9])));
        assert!(!q.matches(&obj(0.0, 0.0, &[6])));
    }

    #[test]
    fn matches_hybrid_requires_both() {
        let q = RcDvq::hybrid(Rect::new(0.0, 0.0, 1.0, 1.0), vec![KeywordId(7)]);
        assert!(q.matches(&obj(0.5, 0.5, &[7])));
        assert!(!q.matches(&obj(0.5, 0.5, &[8])));
        assert!(!q.matches(&obj(5.0, 0.5, &[7])));
    }

    #[test]
    fn signatures_are_stable_and_discriminating() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        let a = RcDvq::hybrid(r, vec![KeywordId(3), KeywordId(1)]);
        let b = RcDvq::hybrid(r, vec![KeywordId(1), KeywordId(3), KeywordId(3)]);
        // Same predicate set (order/dup-insensitive) → same signature.
        assert_eq!(a.signature(), b.signature());
        // Different type, range, or keyword set → different signatures.
        assert_ne!(RcDvq::spatial(r).signature(), a.signature());
        assert_ne!(
            RcDvq::keyword(vec![KeywordId(1), KeywordId(3)]).signature(),
            a.signature()
        );
        assert_ne!(
            RcDvq::hybrid(
                Rect::new(0.0, 0.0, 1.0, 2.0),
                vec![KeywordId(1), KeywordId(3)]
            )
            .signature(),
            a.signature()
        );
        assert_ne!(
            RcDvq::hybrid(r, vec![KeywordId(1)]).signature(),
            a.signature()
        );
    }

    #[test]
    fn negative_zero_bounds_share_a_signature() {
        // -0.0 == 0.0 under every spatial predicate, so geometrically
        // identical queries must be one cache/dedup identity.
        let pos = RcDvq::spatial(Rect::new(0.0, 0.0, 1.0, 1.0));
        let neg = RcDvq::spatial(Rect::new(-0.0, -0.0, 1.0, 1.0));
        assert_eq!(pos.signature(), neg.signature());
        let hybrid_pos = RcDvq::hybrid(Rect::new(-2.0, 0.0, 0.0, 1.0), vec![KeywordId(5)]);
        let hybrid_neg = RcDvq::hybrid(Rect::new(-2.0, -0.0, -0.0, 1.0), vec![KeywordId(5)]);
        assert_eq!(hybrid_pos.signature(), hybrid_neg.signature());
        // Genuinely different bounds still discriminate.
        assert_ne!(
            RcDvq::spatial(Rect::new(0.0, 0.0, 1.0, 1.0)).signature(),
            RcDvq::spatial(Rect::new(0.0, 0.0, 1.0, 2.0)).signature()
        );
    }

    #[test]
    fn type_indices_are_dense() {
        assert_eq!(QueryType::Spatial.index(), 0);
        assert_eq!(QueryType::Keyword.index(), 1);
        assert_eq!(QueryType::Hybrid.index(), 2);
        assert_eq!(QueryType::COUNT, 3);
        assert_eq!(QueryType::Hybrid.name(), "hybrid");
    }
}
