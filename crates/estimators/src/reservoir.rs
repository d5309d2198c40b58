//! Reservoir sampling list (the paper's `RSL`), Vitter's *algorithm R*.
//!
//! A fixed-capacity uniform sample of the stream: the first `N` arrivals
//! fill the list; afterwards the `i`-th arrival replaces a random slot with
//! probability `N/i`. Window eviction retracts expired samples, so the
//! reservoir stays an (approximately) uniform sample of the *live window*.
//!
//! An estimate counts matching samples and scales the fraction by the
//! window population. The sample lives in a shared [`SampleStore`]:
//! spatial predicates stream the coordinate columns through the chunked
//! kernel, keyword predicates answer from the sample-local posting index,
//! and hybrid predicates take the cost-fused path — the scan the paper
//! charges RSL for is gone from the query path.

use crate::store::SampleStore;
use crate::traits::{EstimatorConfig, EstimatorKind, SelectivityEstimator};
use geostream::StreamRng;
use geostream::{GeoTextObject, Persist, PersistError, PersistReader, PersistWriter, RcDvq};

/// Algorithm R's outcome over a run of arrivals, decided before any object
/// is read: the first pass of a bulk build
/// ([`SelectivityEstimator::insert_slices`]).
///
/// `winner[slot]` is the last arrival algorithm R wrote to `slot` (`None`:
/// the slot keeps the object it held on entry), and `winner.len()` is the
/// sample length after the run. An arrival that a later one overwrites is
/// never placed, so the second pass ([`Winners::drain`]) writes each slot
/// at most once.
pub(crate) struct Winners<'a> {
    winner: Vec<Option<&'a GeoTextObject>>,
}

impl<'a> Winners<'a> {
    /// No decisions yet over a sample of `sample_len` objects.
    pub(crate) fn over(sample_len: usize) -> Self {
        Winners {
            winner: vec![None; sample_len],
        }
    }

    /// Sample length once every decision so far is placed.
    pub(crate) fn sample_len(&self) -> usize {
        self.winner.len()
    }

    /// Decides `objs` in order exactly as one `insert` each would: every
    /// arrival bumps `seen`; below `capacity` it takes the next free slot
    /// and draws nothing, at capacity it draws `0..seen` from `rng` and
    /// takes slot `j` iff `j < capacity`.
    pub(crate) fn decide(
        &mut self,
        objs: &'a [GeoTextObject],
        capacity: usize,
        seen: &mut u64,
        rng: &mut StreamRng,
    ) {
        let fill = capacity.saturating_sub(self.winner.len()).min(objs.len());
        let (filling, steady) = objs.split_at(fill);
        *seen += fill as u64;
        self.winner.extend(filling.iter().map(Some));
        for obj in steady {
            *seen += 1;
            let j = rng.gen_range_u64(0..*seen);
            if (j as usize) < capacity {
                self.winner[j as usize] = Some(obj);
            }
        }
    }

    /// Hands out the decided `(slot, object)` placements, slots ascending —
    /// so a slot past the entry length is always the store's next free one
    /// — leaving no decision over the sample as placed.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (usize, &'a GeoTextObject)> + '_ {
        self.winner
            .iter_mut()
            .enumerate()
            .filter_map(|(slot, w)| w.take().map(|obj| (slot, obj)))
    }
}

/// Algorithm-R reservoir sample of the window.
pub struct ReservoirList {
    capacity: usize,
    store: SampleStore,
    /// Arrivals seen since the reservoir was last (re)started; drives the
    /// algorithm-R replacement probability.
    seen: u64,
    /// Live window population (inserts − removes).
    population: u64,
    rng: StreamRng,
}

impl ReservoirList {
    /// Builds an empty reservoir per `config` (capacity scales with the
    /// memory budget).
    pub fn new(config: &EstimatorConfig) -> Self {
        let capacity = config.scaled_reservoir();
        ReservoirList {
            capacity,
            store: SampleStore::with_capacity(capacity.min(1 << 20)),
            seen: 0,
            population: 0,
            rng: StreamRng::seed_from_u64(config.seed ^ 0x5151),
        }
    }

    /// The configured sample capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of sampled objects.
    pub fn sample_len(&self) -> usize {
        self.store.len()
    }

    /// The backing sample store (read access for diagnostics and tests).
    pub fn store(&self) -> &SampleStore {
        &self.store
    }

    /// The sampling RNG (read access for tests: equal states draw alike).
    pub fn rng(&self) -> &StreamRng {
        &self.rng
    }

    /// Counts sample objects matching `query` and scales to the window
    /// population.
    fn scaled_matches(&self, query: &RcDvq) -> f64 {
        if self.store.is_empty() {
            return 0.0;
        }
        let matches = self.store.count(query);
        matches as f64 / self.store.len() as f64 * self.population as f64
    }

    fn place(&mut self, obj: &GeoTextObject, slot: usize) {
        if slot == self.store.len() {
            self.store.push(obj);
        } else {
            self.store.replace(slot as u32, obj);
        }
    }
}

impl SelectivityEstimator for ReservoirList {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::Rsl
    }

    fn insert(&mut self, obj: &GeoTextObject) {
        self.population += 1;
        self.seen += 1;
        if self.store.len() < self.capacity {
            self.place(obj, self.store.len());
        } else {
            // Algorithm R: replace a random slot with probability N/seen.
            let j = self.rng.gen_range_u64(0..self.seen);
            if (j as usize) < self.capacity {
                self.place(obj, j as usize);
            }
        }
    }

    fn remove(&mut self, obj: &GeoTextObject) {
        self.population = self.population.saturating_sub(1);
        self.store.remove(obj.oid);
    }

    fn insert_batch(&mut self, objs: &[GeoTextObject]) {
        self.population += objs.len() as u64;
        let mut rest = objs;
        // Fill phase: below capacity, algorithm R places directly and draws
        // no random numbers — hoist that branch out of the hot loop.
        if self.store.len() < self.capacity {
            let take = (self.capacity - self.store.len()).min(rest.len());
            for obj in &rest[..take] {
                self.seen += 1;
                self.store.push(obj);
            }
            rest = &rest[take..];
        }
        // Steady state: same draw per arrival, in the same order, as
        // one-at-a-time insertion.
        for obj in rest {
            self.seen += 1;
            let j = self.rng.gen_range_u64(0..self.seen);
            if (j as usize) < self.capacity {
                self.place(obj, j as usize);
            }
        }
    }

    /// Two passes: decide every arrival (draws only), then place each
    /// surviving slot once — `n` arrivals cost `n` draws and at most
    /// `capacity` store writes instead of `capacity · (1 + ln(n / capacity))`.
    fn insert_slices(&mut self, slices: &mut dyn Iterator<Item = &[GeoTextObject]>) {
        let mut winners = Winners::over(self.store.len());
        for slice in slices {
            self.population += slice.len() as u64;
            winners.decide(slice, self.capacity, &mut self.seen, &mut self.rng);
        }
        for (slot, obj) in winners.drain() {
            self.place(obj, slot);
        }
    }

    fn remove_batch(&mut self, objs: &[GeoTextObject]) {
        self.population = self.population.saturating_sub(objs.len() as u64);
        for obj in objs {
            self.store.remove(obj.oid);
        }
    }

    fn estimate(&self, query: &RcDvq) -> f64 {
        self.scaled_matches(query)
    }

    /// Batch variant: one [`SampleStore::count_many`] call shares the
    /// column passes and posting merges across the batch. Every kernel is
    /// an exact count and the scaling expression is identical, so each
    /// result is bit-equal to [`ReservoirList::estimate`] on that query.
    fn estimate_batch(&self, queries: &[RcDvq]) -> Vec<f64> {
        if self.store.is_empty() {
            return vec![0.0; queries.len()];
        }
        let n = self.store.len() as f64;
        self.store
            .count_many(queries)
            .into_iter()
            .map(|matches| matches as f64 / n * self.population as f64)
            .collect()
    }

    fn memory_bytes(&self) -> usize {
        self.store.memory_bytes() + std::mem::size_of::<Self>()
    }

    fn persist_state(&self, w: &mut PersistWriter) {
        self.persist(w);
    }

    fn population(&self) -> u64 {
        self.population
    }

    /// Audits the backing store, plus the reservoir bounds: the sample
    /// never exceeds its capacity, the live window population, or the
    /// arrivals seen.
    #[cfg(feature = "debug-invariants")]
    fn audit(&self) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        self.store.audit()?;
        ensure(
            self.store.len() <= self.capacity
                && self.store.len() as u64 <= self.population
                && self.store.len() as u64 <= self.seen,
            "ReservoirList",
            "sample-bounds",
            || {
                format!(
                    "sample {} vs capacity {} population {} seen {}",
                    self.store.len(),
                    self.capacity,
                    self.population,
                    self.seen
                )
            },
        )
    }
}

/// Section tag for [`ReservoirList`] snapshots.
const RSL_TAG: u32 = 0x4512_5101;

impl Persist for ReservoirList {
    fn persist(&self, w: &mut PersistWriter) {
        w.section(RSL_TAG, |w| {
            w.put_usize(self.capacity);
            w.put_u64(self.seen);
            w.put_u64(self.population);
            self.rng.persist(w);
            self.store.persist(w);
        });
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        const CTX: &str = "reservoir list";
        let sec = r.begin_section(RSL_TAG, CTX)?;
        let capacity = r.take_usize("reservoir capacity")?;
        let seen = r.take_u64("reservoir seen")?;
        let population = r.take_u64("reservoir population")?;
        let rng = StreamRng::restore(r)?;
        let store = SampleStore::restore(r)?;
        r.finish_section(sec, CTX)?;
        if store.len() > capacity {
            return Err(PersistError::Corrupt {
                context: CTX,
                detail: format!("sample {} exceeds capacity {capacity}", store.len()),
            });
        }
        Ok(ReservoirList {
            capacity,
            store,
            seen,
            population,
            rng,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::{KeywordId, ObjectId, Point, Rect, Timestamp};

    fn config(cap: usize) -> EstimatorConfig {
        EstimatorConfig {
            reservoir_capacity: cap,
            ..EstimatorConfig::default()
        }
    }

    fn obj(id: u64, x: f64, y: f64, kws: &[u32]) -> GeoTextObject {
        GeoTextObject::new(
            ObjectId(id),
            Point::new(x, y),
            kws.iter().copied().map(KeywordId).collect(),
            Timestamp::ZERO,
        )
    }

    #[test]
    fn fills_to_capacity_then_samples() {
        let mut r = ReservoirList::new(&config(50));
        for i in 0..200 {
            r.insert(&obj(i, 0.0, 0.0, &[]));
        }
        assert_eq!(r.sample_len(), 50);
        assert_eq!(r.population(), 200);
    }

    #[test]
    fn exact_when_sample_holds_everything() {
        let mut r = ReservoirList::new(&config(1_000));
        for i in 0..100 {
            let x = if i < 30 { 1.0 } else { 50.0 };
            r.insert(&obj(i, x, 1.0, &[i as u32 % 5]));
        }
        let q = RcDvq::spatial(Rect::new(0.0, 0.0, 10.0, 10.0));
        assert!((r.estimate(&q) - 30.0).abs() < 1e-9);
        let qk = RcDvq::keyword(vec![KeywordId(0)]);
        assert!((r.estimate(&qk) - 20.0).abs() < 1e-9);
        let qh = RcDvq::hybrid(Rect::new(0.0, 0.0, 10.0, 10.0), vec![KeywordId(0)]);
        assert!((r.estimate(&qh) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_scales_to_population() {
        let mut r = ReservoirList::new(&config(100));
        // 10_000 objects, 50% in the query range.
        for i in 0..10_000 {
            let x = if i % 2 == 0 { 1.0 } else { 50.0 };
            r.insert(&obj(i, x, 1.0, &[]));
        }
        let q = RcDvq::spatial(Rect::new(0.0, 0.0, 10.0, 10.0));
        let est = r.estimate(&q);
        assert!(
            (est - 5_000.0).abs() < 1_500.0,
            "estimate too far from truth: {est}"
        );
    }

    #[test]
    fn sample_is_unbiased_ish() {
        // Insert 0..10_000; the sample mean of ids should be near 5_000.
        let mut r = ReservoirList::new(&config(500));
        for i in 0..10_000 {
            r.insert(&obj(i, 0.0, 0.0, &[]));
        }
        let mean: f64 =
            r.store.oids().iter().map(|o| o.0 as f64).sum::<f64>() / r.sample_len() as f64;
        assert!((mean - 5_000.0).abs() < 600.0, "biased sample mean: {mean}");
    }

    #[test]
    fn remove_retracts_sampled_objects() {
        let mut r = ReservoirList::new(&config(100));
        let kept = obj(1, 1.0, 1.0, &[]);
        let evicted = obj(2, 1.0, 1.0, &[]);
        r.insert(&kept);
        r.insert(&evicted);
        r.remove(&evicted);
        assert_eq!(r.sample_len(), 1);
        assert_eq!(r.population(), 1);
        let q = RcDvq::spatial(Rect::new(0.0, 0.0, 2.0, 2.0));
        assert!((r.estimate(&q) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn remove_of_unsampled_object_only_drops_population() {
        let mut r = ReservoirList::new(&config(10));
        for i in 0..1_000 {
            r.insert(&obj(i, 0.0, 0.0, &[]));
        }
        let pop_before = r.population();
        let len_before = r.sample_len();
        // Find an id not in the sample.
        let sampled: std::collections::HashSet<u64> = r.store.oids().iter().map(|o| o.0).collect();
        let missing = (0..1_000).find(|i| !sampled.contains(i)).unwrap();
        r.remove(&obj(missing, 0.0, 0.0, &[]));
        assert_eq!(r.population(), pop_before - 1);
        assert_eq!(r.sample_len(), len_before);
    }

    #[test]
    fn empty_reservoir_estimates_zero() {
        let r = ReservoirList::new(&config(10));
        let q = RcDvq::spatial(Rect::new(0.0, 0.0, 1.0, 1.0));
        assert_eq!(r.estimate(&q), 0.0);
    }

    #[test]
    fn estimate_batch_is_bit_equal_to_singles() {
        let mut r = ReservoirList::new(&config(64));
        for i in 0..2_000 {
            r.insert(&obj(i, (i % 97) as f64, (i % 89) as f64, &[i as u32 % 6]));
        }
        let batch = vec![
            RcDvq::spatial(Rect::new(0.0, 0.0, 40.0, 40.0)),
            RcDvq::spatial(Rect::new(10.0, 10.0, 90.0, 20.0)),
            RcDvq::keyword(vec![KeywordId(2)]),
            RcDvq::keyword(vec![KeywordId(1), KeywordId(5)]),
            RcDvq::hybrid(
                Rect::new(0.0, 0.0, 50.0, 80.0),
                vec![KeywordId(1), KeywordId(5)],
            ),
        ];
        let many = r.estimate_batch(&batch);
        for (q, b) in batch.iter().zip(many) {
            assert_eq!(b.to_bits(), r.estimate(q).to_bits(), "diverged on {q:?}");
        }
    }

    /// A count, not a stopwatch, pins what the bulk build saves: the same
    /// sample and RNG state as one `insert` per arrival, reached with each
    /// slot written once — where the singles side churned through
    /// replacements, tombstones and compactions to get there.
    #[test]
    fn bulk_build_writes_each_slot_once_and_matches_singles() {
        let objs: Vec<GeoTextObject> = (0..3_000u64)
            .map(|i| obj(i, (i % 97) as f64, (i % 89) as f64, &[i as u32 % 6, 7]))
            .collect();
        let mut singles = ReservoirList::new(&config(32));
        for o in &objs {
            singles.insert(o);
        }
        let mut bulk = ReservoirList::new(&config(32));
        // Slices that straddle the fill → steady edge, and an empty one.
        let slices = [&objs[..20], &objs[20..20], &objs[20..700], &objs[700..]];
        bulk.insert_slices(&mut slices.into_iter());

        assert_eq!(bulk.store.oids(), singles.store.oids());
        assert_eq!(bulk.seen, singles.seen);
        assert_eq!(bulk.population(), singles.population());
        assert_eq!(bulk.rng.state(), singles.rng.state());
        let q = RcDvq::hybrid(Rect::new(0.0, 0.0, 50.0, 50.0), vec![KeywordId(2)]);
        assert_eq!(bulk.estimate(&q).to_bits(), singles.estimate(&q).to_bits());

        assert!(bulk.store.written_once(), "a slot was written twice");
        assert_eq!(bulk.store.compactions(), 0);
        assert!(!singles.store.written_once(), "singles never replaced");
        assert!(singles.store.compactions() > 0, "singles never compacted");
        #[cfg(feature = "debug-invariants")]
        bulk.audit().expect("bulk-built reservoir audit");
    }

    /// On a sample that removals shrank below capacity, the bulk build
    /// refills the free slots without drawing — as `insert` does — and
    /// replaces in place below the entry length.
    #[test]
    fn bulk_build_continues_a_shrunk_sample_like_singles() {
        let objs: Vec<GeoTextObject> = (0..1_200u64)
            .map(|i| obj(i, (i % 97) as f64, (i % 89) as f64, &[i as u32 % 6]))
            .collect();
        let (mut singles, mut bulk) = (
            ReservoirList::new(&config(32)),
            ReservoirList::new(&config(32)),
        );
        for r in [&mut singles, &mut bulk] {
            r.insert_batch(&objs[..400]);
            let sampled: Vec<ObjectId> = r.store.oids()[..12].to_vec();
            for oid in sampled {
                r.remove(&objs[oid.0 as usize]);
            }
            assert_eq!(r.sample_len(), 20);
        }
        for o in &objs[400..] {
            singles.insert(o);
        }
        bulk.insert_slices(&mut objs[400..].chunks(150));
        assert_eq!(bulk.store.oids(), singles.store.oids());
        assert_eq!(bulk.rng.state(), singles.rng.state());
        assert_eq!(bulk.seen, singles.seen);
        #[cfg(feature = "debug-invariants")]
        bulk.audit().expect("bulk-continued reservoir audit");
    }

    #[test]
    fn slots_stay_consistent_under_churn() {
        let mut r = ReservoirList::new(&config(50));
        let mut live: Vec<GeoTextObject> = Vec::new();
        for i in 0..2_000u64 {
            let o = obj(i, 0.0, 0.0, &[]);
            r.insert(&o);
            live.push(o);
            if live.len() > 300 {
                let victim = live.remove(0);
                r.remove(&victim);
            }
        }
        // Every slot-map entry must point at the object that claims it.
        for (slot, oid) in r.store.oids().iter().enumerate() {
            assert_eq!(r.store.slot_of(*oid), Some(slot as u32));
        }
    }

    /// The snapshot contract: restore mid-stream, keep ingesting the same
    /// suffix on both instances, and every subsequent estimate is
    /// bit-identical — which requires the RNG to resume mid-sequence.
    #[test]
    fn persist_round_trip_is_bit_identical_under_continued_churn() {
        let mut orig = ReservoirList::new(&config(64));
        for i in 0..5_000u64 {
            orig.insert(&obj(i, (i % 97) as f64, (i % 89) as f64, &[i as u32 % 6]));
        }
        let mut w = PersistWriter::new();
        orig.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = PersistReader::new(&bytes);
        let mut back = ReservoirList::restore(&mut r).expect("round trip");
        assert!(r.is_exhausted());
        let q = RcDvq::hybrid(Rect::new(0.0, 0.0, 50.0, 50.0), vec![KeywordId(2)]);
        assert_eq!(back.estimate(&q).to_bits(), orig.estimate(&q).to_bits());
        // Continued ingest consumes the RNG: both must replace the exact
        // same slots with the exact same draws.
        for i in 5_000..7_000u64 {
            let o = obj(i, (i % 97) as f64, (i % 89) as f64, &[i as u32 % 6]);
            orig.insert(&o);
            back.insert(&o);
        }
        assert_eq!(orig.store.oids(), back.store.oids());
        assert_eq!(back.estimate(&q).to_bits(), orig.estimate(&q).to_bits());
        #[cfg(feature = "debug-invariants")]
        back.audit().expect("restored reservoir audit");
    }
}
