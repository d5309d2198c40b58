//! KMV (k-minimum-values) distinct-value synopsis.
//!
//! The AASP estimator (paper §IV, after Bar-Yossef et al.) augments its
//! space-partition tree with KMV synopses of the keyword stream. A KMV
//! synopsis hashes every element onto `[0, 1)` and keeps only the `k`
//! smallest hash values; the number of distinct elements is estimated as
//! `(k − 1) / h_(k)` where `h_(k)` is the k-th smallest normalized hash.
//!
//! Duplicates hash identically, so they never inflate the synopsis — that
//! is what makes it a *distinct*-value estimator.

use geostream::{KeywordId, Persist, PersistError, PersistReader, PersistWriter};
use std::collections::BTreeSet;

/// A k-minimum-values synopsis over keyword ids.
#[derive(Debug, Clone)]
pub struct KmvSynopsis {
    k: usize,
    /// The k smallest hashes observed (u64 hash space, normalized on read).
    mins: BTreeSet<u64>,
    /// Total insertions (with duplicates), for diagnostics.
    observed: u64,
}

impl KmvSynopsis {
    /// Creates a synopsis retaining the `k` smallest hash values.
    ///
    /// # Panics
    /// Panics if `k < 2` — the estimator formula needs at least two values.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "KMV needs k >= 2");
        KmvSynopsis {
            k,
            mins: BTreeSet::new(),
            observed: 0,
        }
    }

    /// The configured `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of hash values currently retained (`<= k`).
    pub fn len(&self) -> usize {
        self.mins.len()
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.mins.is_empty()
    }

    /// Total insertions seen (duplicates included).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Observes one keyword occurrence.
    pub fn insert(&mut self, kw: KeywordId) {
        self.observed += 1;
        let h = hash_keyword(kw);
        if self.mins.len() < self.k {
            self.mins.insert(h);
        } else if let Some(&max) = self.mins.iter().next_back() {
            if h < max && self.mins.insert(h) {
                self.mins.remove(&max);
            }
        }
    }

    /// Estimated number of distinct keywords observed.
    pub fn estimate_distinct(&self) -> f64 {
        let n = self.mins.len();
        if n == 0 {
            return 0.0;
        }
        if n < self.k {
            // Synopsis not yet full: it holds every distinct element.
            return n as f64;
        }
        // LINT-ALLOW(no-panic): callers reach this only after a non-empty check on the sketch
        let kth = *self.mins.iter().next_back().expect("non-empty");
        let normalized = (kth as f64 + 1.0) / (u64::MAX as f64 + 1.0);
        (self.k as f64 - 1.0) / normalized
    }

    /// Approximate heap bytes.
    pub fn memory_bytes(&self) -> usize {
        self.mins.len() * std::mem::size_of::<u64>() + std::mem::size_of::<Self>()
    }
}

impl Persist for KmvSynopsis {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_usize(self.k);
        w.put_u64(self.observed);
        // BTreeSet iterates in ascending order, so the encoding is
        // deterministic and restore can validate sortedness for free.
        w.put_usize(self.mins.len());
        for &h in &self.mins {
            w.put_u64(h);
        }
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let k = r.take_usize("KmvSynopsis.k")?;
        let observed = r.take_u64("KmvSynopsis.observed")?;
        let n = r.take_len("KmvSynopsis.mins.len")?;
        if k < 2 {
            return Err(PersistError::Corrupt {
                context: "KmvSynopsis.k",
                detail: format!("k = {k}, estimator needs k >= 2"),
            });
        }
        if n > k {
            return Err(PersistError::Corrupt {
                context: "KmvSynopsis.mins",
                detail: format!("{n} retained hashes over k = {k}"),
            });
        }
        let mut mins = BTreeSet::new();
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let h = r.take_u64("KmvSynopsis.mins.entry")?;
            if prev.is_some_and(|p| p >= h) {
                return Err(PersistError::Corrupt {
                    context: "KmvSynopsis.mins",
                    detail: "hash values not strictly ascending".into(),
                });
            }
            prev = Some(h);
            mins.insert(h);
        }
        Ok(KmvSynopsis { k, mins, observed })
    }
}

/// SplitMix64-style avalanche hash of a keyword id — cheap, stateless, and
/// well distributed, which is all KMV requires.
fn hash_keyword(kw: KeywordId) -> u64 {
    let mut z = (kw.0 as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_k() {
        let mut s = KmvSynopsis::new(64);
        for i in 0..10 {
            s.insert(KeywordId(i));
        }
        assert_eq!(s.estimate_distinct(), 10.0);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut s = KmvSynopsis::new(64);
        for _ in 0..1_000 {
            s.insert(KeywordId(7));
        }
        assert_eq!(s.estimate_distinct(), 1.0);
        assert_eq!(s.observed(), 1_000);
    }

    #[test]
    fn estimates_large_cardinalities() {
        let mut s = KmvSynopsis::new(256);
        let true_distinct = 50_000u32;
        for i in 0..true_distinct {
            s.insert(KeywordId(i));
        }
        let est = s.estimate_distinct();
        let rel_err = (est - true_distinct as f64).abs() / true_distinct as f64;
        assert!(
            rel_err < 0.2,
            "relative error too high: {rel_err} (est={est})"
        );
    }

    #[test]
    fn empty_synopsis() {
        let s = KmvSynopsis::new(16);
        assert!(s.is_empty());
        assert_eq!(s.estimate_distinct(), 0.0);
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn rejects_tiny_k() {
        let _ = KmvSynopsis::new(1);
    }

    #[test]
    fn retains_only_k_values() {
        let mut s = KmvSynopsis::new(8);
        for i in 0..1_000 {
            s.insert(KeywordId(i));
        }
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn hash_is_deterministic_and_spread() {
        let a = hash_keyword(KeywordId(1));
        let b = hash_keyword(KeywordId(2));
        assert_eq!(a, hash_keyword(KeywordId(1)));
        assert_ne!(a, b);
    }
}
