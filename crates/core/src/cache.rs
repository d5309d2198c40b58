//! The selectivity cache: answers for repeated queries over an unchanged
//! window, keyed on `(QuerySignature, window generation)`.
//!
//! A sliding-window selectivity is only stable while the window's content
//! is stable, so the cache is valid for exactly one window *generation* —
//! the [`SlidingWindow`](geostream::SlidingWindow) counter that advances on
//! every insert, eviction sweep, and clear. Rather than tagging entries,
//! the cache remembers the generation its whole map was filled under and
//! drops everything the first time it is consulted under a newer one. A
//! stale hit is therefore impossible by construction: an entry can only be
//! returned under the same generation it was inserted under.
//!
//! The map is bounded: once `capacity` distinct signatures are cached for
//! the current generation, further inserts are ignored (the next content
//! change clears the map anyway, so eviction machinery would buy nothing
//! but nondeterminism).

use crate::log::PhaseTag;
use crate::persist::{persist_kind, restore_kind};
use estimators::EstimatorKind;
use geostream::{IdMap, Persist, PersistError, PersistReader, PersistWriter, QuerySignature};

/// A memoized query answer: everything [`QueryOutcome`](crate::QueryOutcome)
/// needs besides the (always-zero) latency of serving a cache hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedAnswer {
    /// The estimate the estimation path answered with.
    pub estimate: f64,
    /// Actual selectivity the exact executor logged.
    pub actual: u64,
    /// Accuracy of the estimate against the actual.
    pub accuracy: f64,
    /// The estimator that produced the answer.
    pub estimator: EstimatorKind,
    /// Phase the original query was served in.
    pub phase: PhaseTag,
}

/// A bounded, generation-scoped memo table of query answers.
#[derive(Debug)]
pub struct SelectivityCache {
    /// Window generation the current map contents were filled under.
    generation: u64,
    /// Keyed by an FNV hash already, so the table's own hasher is the
    /// cheap [`geostream::IdHasher`].
    map: IdMap<QuerySignature, CachedAnswer>,
    capacity: usize,
    /// Whole-map invalidations performed (generation changes observed).
    invalidations: u64,
}

impl SelectivityCache {
    /// An empty cache holding at most `capacity` answers per generation.
    /// `capacity` 0 disables caching (every lookup misses).
    pub fn new(capacity: usize) -> Self {
        SelectivityCache {
            generation: 0,
            map: IdMap::default(),
            capacity,
            invalidations: 0,
        }
    }

    /// Drops the map if `generation` differs from the one it was filled
    /// under, then records the new generation.
    fn sync(&mut self, generation: u64) {
        if self.generation != generation {
            if !self.map.is_empty() {
                self.map.clear();
                self.invalidations += 1;
            }
            self.generation = generation;
        }
    }

    /// The cached answer for `sig` at window `generation`, if any.
    pub fn lookup(&mut self, sig: QuerySignature, generation: u64) -> Option<CachedAnswer> {
        self.sync(generation);
        self.map.get(&sig).copied()
    }

    /// Whether `sig` is cached at window `generation` (same invalidation
    /// side effect as [`SelectivityCache::lookup`]).
    pub fn contains(&mut self, sig: QuerySignature, generation: u64) -> bool {
        self.lookup(sig, generation).is_some()
    }

    /// Memoizes `answer` under `sig` for window `generation`. A no-op when
    /// the capacity bound is reached (the entry simply stays uncached).
    pub fn insert(&mut self, sig: QuerySignature, generation: u64, answer: CachedAnswer) {
        self.sync(generation);
        if self.map.len() < self.capacity || self.map.contains_key(&sig) {
            self.map.insert(sig, answer);
        }
    }

    /// Entries cached for the current generation.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is cached for the current generation.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The window generation the current contents are valid for.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The per-generation capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whole-map invalidations observed so far.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }
}

impl Persist for CachedAnswer {
    fn persist(&self, w: &mut PersistWriter) {
        w.put_f64(self.estimate);
        w.put_u64(self.actual);
        w.put_f64(self.accuracy);
        persist_kind(w, self.estimator);
        self.phase.persist(w);
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        Ok(CachedAnswer {
            estimate: r.take_f64("CachedAnswer.estimate")?,
            actual: r.take_u64("CachedAnswer.actual")?,
            accuracy: r.take_f64("CachedAnswer.accuracy")?,
            estimator: restore_kind(r)?,
            phase: PhaseTag::restore(r)?,
        })
    }
}

impl SelectivityCache {
    /// Writes the generation, the invalidation count and the entries; the
    /// capacity is the configuration's.
    pub fn persist(&self, w: &mut PersistWriter) {
        w.put_u64(self.generation);
        w.put_u64(self.invalidations);
        // HashMap iteration order is nondeterministic; emit entries sorted
        // by signature so identical caches serialize to identical bytes.
        let mut entries: Vec<(&QuerySignature, &CachedAnswer)> = self.map.iter().collect();
        entries.sort_by_key(|(sig, _)| sig.0);
        w.put_usize(entries.len());
        for (sig, answer) in entries {
            w.put_u64(sig.0);
            answer.persist(w);
        }
    }

    /// Reads what [`SelectivityCache::persist`] wrote into a new cache of
    /// `capacity`, which must be the writer's.
    pub fn restore(r: &mut PersistReader<'_>, capacity: usize) -> Result<Self, PersistError> {
        let mut cache = SelectivityCache::new(capacity);
        cache.generation = r.take_u64("SelectivityCache.generation")?;
        cache.invalidations = r.take_u64("SelectivityCache.invalidations")?;
        let len = r.take_usize("SelectivityCache.len")?;
        if len > capacity {
            return Err(PersistError::Corrupt {
                context: "SelectivityCache",
                detail: format!("{len} entries exceed capacity {capacity}"),
            });
        }
        for _ in 0..len {
            let sig = QuerySignature(r.take_u64("SelectivityCache.signature")?);
            let answer = CachedAnswer::restore(r)?;
            if cache.map.insert(sig, answer).is_some() {
                return Err(PersistError::Corrupt {
                    context: "SelectivityCache",
                    detail: format!("duplicate signature {:#x}", sig.0),
                });
            }
        }
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(estimate: f64) -> CachedAnswer {
        CachedAnswer {
            estimate,
            actual: 7,
            accuracy: 0.9,
            estimator: EstimatorKind::Rsh,
            phase: PhaseTag::Incremental,
        }
    }

    #[test]
    fn hit_only_under_same_generation() {
        let mut cache = SelectivityCache::new(16);
        let sig = QuerySignature(42);
        cache.insert(sig, 3, answer(1.0));
        assert_eq!(cache.lookup(sig, 3).map(|a| a.estimate), Some(1.0));
        // Any generation change — even backwards — invalidates everything.
        assert_eq!(cache.lookup(sig, 4), None);
        assert_eq!(cache.invalidations(), 1);
        assert_eq!(cache.lookup(sig, 3), None, "old generation must not revive");
    }

    #[test]
    fn capacity_bounds_distinct_signatures() {
        let mut cache = SelectivityCache::new(2);
        cache.insert(QuerySignature(1), 0, answer(1.0));
        cache.insert(QuerySignature(2), 0, answer(2.0));
        cache.insert(QuerySignature(3), 0, answer(3.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(QuerySignature(3), 0), None);
        // Updating an already-cached signature is always allowed.
        cache.insert(QuerySignature(2), 0, answer(9.0));
        assert_eq!(
            cache.lookup(QuerySignature(2), 0).map(|a| a.estimate),
            Some(9.0)
        );
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = SelectivityCache::new(0);
        cache.insert(QuerySignature(1), 0, answer(1.0));
        assert_eq!(cache.lookup(QuerySignature(1), 0), None);
        assert!(cache.is_empty());
    }
}
