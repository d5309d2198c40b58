//! Seed-equivalence property tests for the SoA [`SampleStore`] refactor.
//!
//! The pre-refactor ("seed") estimators kept per-estimator
//! `Vec<GeoTextObject>` samples plus a `HashMap<ObjectId, usize>` slot
//! index, replaced slots in place, and evicted via swap-remove. The SoA
//! store must be *observationally identical* under that contract: same
//! slot arithmetic, same RNG consumption order, therefore bit-equal
//! sample membership and estimates. These tests drive each refactored
//! estimator against a faithful reference implementation of the old
//! array-of-structs logic through churn sequences heavy enough to force
//! slot recycling, posting tombstone compaction, and keyword-pool
//! compaction, asserting estimates agree to 1e-9 across spatial,
//! keyword, and hybrid queries.

use estimators::reservoir::ReservoirList;
use estimators::reservoir_hash::ReservoirHash;
use estimators::spn::SpnEstimator;
use estimators::{EstimatorConfig, SelectivityEstimator};
use geostream::{GeoTextObject, KeywordId, ObjectId, Point, RcDvq, Rect, StreamRng, Timestamp};
use std::collections::HashMap;

/// Reference array-of-structs algorithm-R reservoir, replicating the
/// seed estimators' storage semantics verbatim: in-place replacement,
/// swap-remove eviction, `HashMap` slot index, linear-scan estimation.
struct RefReservoir {
    capacity: usize,
    sample: Vec<GeoTextObject>,
    index: HashMap<ObjectId, usize>,
    seen: u64,
    population: u64,
    rng: StreamRng,
}

impl RefReservoir {
    fn new(capacity: usize, seed: u64) -> Self {
        RefReservoir {
            capacity,
            sample: Vec::new(),
            index: HashMap::new(),
            seen: 0,
            population: 0,
            rng: StreamRng::seed_from_u64(seed),
        }
    }

    fn place(&mut self, obj: &GeoTextObject, slot: usize) {
        if slot == self.sample.len() {
            self.index.insert(obj.oid, slot);
            self.sample.push(obj.clone());
        } else {
            self.index.remove(&self.sample[slot].oid);
            self.index.insert(obj.oid, slot);
            self.sample[slot] = obj.clone();
        }
    }

    fn insert(&mut self, obj: &GeoTextObject) {
        self.population += 1;
        self.seen += 1;
        if self.sample.len() < self.capacity {
            self.place(obj, self.sample.len());
        } else {
            let j = self.rng.gen_range_u64(0..self.seen);
            if (j as usize) < self.capacity {
                self.place(obj, j as usize);
            }
        }
    }

    fn remove(&mut self, obj: &GeoTextObject) {
        self.population = self.population.saturating_sub(1);
        if let Some(slot) = self.index.remove(&obj.oid) {
            self.sample.swap_remove(slot);
            if slot < self.sample.len() {
                self.index.insert(self.sample[slot].oid, slot);
            }
        }
    }

    fn estimate(&self, query: &RcDvq) -> f64 {
        if self.sample.is_empty() {
            return 0.0;
        }
        let matches = self.sample.iter().filter(|o| query.matches(o)).count();
        matches as f64 / self.sample.len() as f64 * self.population as f64
    }
}

/// Deterministic churn stream: skewed keywords from a small vocabulary
/// (to exercise shared posting lists), clustered coordinates, and an
/// eviction regime aggressive enough to recycle most slots repeatedly.
struct Churn {
    state: u64,
    next_id: u64,
    live: Vec<GeoTextObject>,
}

impl Churn {
    fn new(seed: u64) -> Self {
        Churn {
            state: seed,
            next_id: 0,
            live: Vec::new(),
        }
    }

    fn rand(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state >> 11
    }

    fn unit(&mut self) -> f64 {
        self.rand() as f64 / (1u64 << 53) as f64
    }

    fn next_object(&mut self) -> GeoTextObject {
        let id = self.next_id;
        self.next_id += 1;
        let x = self.unit() * 100.0;
        let y = self.unit() * 100.0;
        let nk = (self.rand() % 5) as usize;
        let mut kws: Vec<KeywordId> = (0..nk)
            .map(|_| KeywordId((self.rand() % 32) as u32))
            .collect();
        kws.sort_unstable();
        kws.dedup();
        let obj = GeoTextObject::new(ObjectId(id), Point::new(x, y), kws, Timestamp(id));
        self.live.push(obj.clone());
        obj
    }

    /// Pops a pseudo-random live object for removal.
    fn victim(&mut self) -> Option<GeoTextObject> {
        if self.live.is_empty() {
            return None;
        }
        let idx = (self.rand() as usize) % self.live.len();
        Some(self.live.swap_remove(idx))
    }
}

fn probe_queries() -> Vec<RcDvq> {
    vec![
        RcDvq::spatial(Rect::new(10.0, 10.0, 60.0, 55.0)),
        RcDvq::spatial(Rect::new(70.0, 0.0, 100.0, 30.0)),
        RcDvq::keyword(vec![KeywordId(3)]),
        RcDvq::keyword(vec![KeywordId(1), KeywordId(7), KeywordId(20)]),
        RcDvq::hybrid(Rect::new(0.0, 0.0, 50.0, 100.0), vec![KeywordId(2)]),
        RcDvq::hybrid(
            Rect::new(25.0, 25.0, 90.0, 90.0),
            vec![KeywordId(5), KeywordId(11)],
        ),
    ]
}

fn config(cap: usize) -> EstimatorConfig {
    EstimatorConfig {
        domain: Rect::new(0.0, 0.0, 100.0, 100.0),
        reservoir_capacity: cap,
        ..EstimatorConfig::default()
    }
}

const DEFAULT_SEED: u64 = 0x001a_7e57;

/// Drives `steps` churn operations (2 inserts : 1 remove once warm) and
/// checks the probes at every checkpoint.
fn drive<E: SelectivityEstimator>(
    est: &mut E,
    est_len: impl Fn(&E) -> usize,
    reference: &mut RefReservoir,
    steps: usize,
) {
    let queries = probe_queries();
    let mut churn = Churn::new(0xdead_beef);
    for step in 0..steps {
        let obj = churn.next_object();
        est.insert(&obj);
        reference.insert(&obj);
        // Once the stream is past capacity, evict hard: two removals every
        // third step keeps the live set shrinking and recycling slots.
        if step % 3 == 2 && churn.live.len() > reference.capacity / 2 {
            for _ in 0..2 {
                if let Some(victim) = churn.victim() {
                    est.remove(&victim);
                    reference.remove(&victim);
                }
            }
        }
        if step % 97 == 0 || step + 1 == steps {
            assert_eq!(est_len(est), reference.sample.len(), "len @ step {step}");
            assert_eq!(est.population(), reference.population, "pop @ step {step}");
            for (qi, q) in queries.iter().enumerate() {
                let got = est.estimate(q);
                let want = reference.estimate(q);
                assert!(
                    (got - want).abs() < 1e-9,
                    "estimate diverged @ step {step}, query {qi}: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn rsl_is_seed_equivalent_under_churn() {
    let cfg = config(128);
    let mut est = ReservoirList::new(&cfg);
    let mut reference = RefReservoir::new(est.capacity(), DEFAULT_SEED ^ 0x5151);
    drive(&mut est, |e| e.sample_len(), &mut reference, 4_000);
    // The churn above must have exercised posting compaction, otherwise
    // the tombstone path went untested.
    assert!(est.store().compactions() > 0, "no posting compaction hit");
}

#[test]
fn rsh_is_seed_equivalent_under_churn() {
    let cfg = config(128);
    let mut est = ReservoirHash::new(&cfg);
    let mut reference = RefReservoir::new(cfg.scaled_reservoir(), DEFAULT_SEED ^ 0x2525);
    drive(&mut est, |e| e.sample_len(), &mut reference, 4_000);
}

#[test]
fn spn_buffer_is_seed_equivalent_pre_model() {
    // SPN pre-model estimates scan the buffer; stay under `rebuild_every`
    // (1_024 at this capacity) so the mixture never builds.
    let cfg = config(256); // buffer capacity = 256/4 = 64
    let mut est = SpnEstimator::new(&cfg);
    let mut reference = RefReservoir::new(64, DEFAULT_SEED ^ 0x59a9);
    drive(&mut est, |e| e.store().len(), &mut reference, 600);
    assert!(!est.has_model(), "rebuild fired; test no longer pre-model");
}

#[test]
fn rsl_batch_ingestion_is_seed_equivalent() {
    // Batched ingestion must consume the RNG in the same order as
    // one-at-a-time seed insertion — estimates stay bit-equal.
    let cfg = config(128);
    let mut est = ReservoirList::new(&cfg);
    let mut reference = RefReservoir::new(est.capacity(), DEFAULT_SEED ^ 0x5151);
    let mut churn = Churn::new(0x0dd_ba11);
    let queries = probe_queries();
    for round in 0..40 {
        let batch: Vec<GeoTextObject> = (0..57).map(|_| churn.next_object()).collect();
        est.insert_batch(&batch);
        for obj in &batch {
            reference.insert(obj);
        }
        let victims: Vec<GeoTextObject> = (0..20).filter_map(|_| churn.victim()).collect();
        est.remove_batch(&victims);
        for v in &victims {
            reference.remove(v);
        }
        assert_eq!(est.sample_len(), reference.sample.len());
        assert_eq!(est.population(), reference.population);
        for q in &queries {
            let (got, want) = (est.estimate(q), reference.estimate(q));
            assert!(
                (got - want).abs() < 1e-9,
                "batch round {round}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn estimator_memory_counters_match_recompute_under_churn() {
    // O(1) accounting must agree with the O(n) walk at every checkpoint,
    // for every store-backed estimator, through recycling-heavy churn.
    let cfg = config(128);
    let mut rsl = ReservoirList::new(&cfg);
    let mut rsh = ReservoirHash::new(&cfg);
    let mut churn = Churn::new(0x5eed_5eed);
    for step in 0..2_000usize {
        let obj = churn.next_object();
        rsl.insert(&obj);
        rsh.insert(&obj);
        if step % 3 == 2 && churn.live.len() > 64 {
            if let Some(victim) = churn.victim() {
                rsl.remove(&victim);
                rsh.remove(&victim);
            }
        }
        if step % 251 == 0 || step + 1 == 2_000 {
            for (name, store) in [("rsl", rsl.store()), ("rsh", rsh.store())] {
                assert_eq!(
                    store.memory_bytes(),
                    store.recompute_memory_bytes(),
                    "{name} memory counter drifted @ step {step}"
                );
            }
        }
    }
}
