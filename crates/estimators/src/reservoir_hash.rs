//! Hybrid reservoir sampling hashmap (the paper's `RSH`).
//!
//! The same algorithm-R reservoir as [`crate::reservoir::ReservoirList`],
//! but every sampled object is additionally indexed by the 2D grid cell its
//! location falls into (Figure 1(b) of the paper). Queries with a spatial
//! predicate only scan the sample objects in cells the range touches, which
//! removes the full-sample iteration overhead — the reason RSH gives RSL's
//! accuracy at lower latency and is LATEST's default estimator.
//!
//! The sample lives in a shared [`SampleStore`]; the grid holds bare `u32`
//! slot lists over it. Keyword-only queries answer from the store's
//! posting index, and hybrid queries pick posting-first vs grid-gather by
//! the store's cost cutover.

use crate::reservoir::Winners;
use crate::store::SampleStore;
use crate::traits::{EstimatorConfig, EstimatorKind, SelectivityEstimator};
use geostream::object::keywords_intersect;
use geostream::{
    CellGrid, GeoTextObject, Persist, PersistError, PersistReader, PersistWriter, Point, RcDvq,
    Rect, StreamRng,
};

/// Largest grid side a snapshot may ask for: the grid is dense, so a
/// restore allocates `side²` lists before reading any of them.
const MAX_GRID_SIDE: usize = 1 << 10;

/// Reservoir sample indexed by a 2D grid over the domain.
pub struct ReservoirHash {
    capacity: usize,
    layout: CellGrid,
    store: SampleStore,
    /// `cell → slots of sampled objects in the cell`, one list per cell of
    /// `layout` (dense: a query walks its cover by index, no hashing).
    grid: Vec<Vec<u32>>,
    /// Cells whose list is non-empty (what `memory_bytes` charges for).
    occupied: usize,
    seen: u64,
    population: u64,
    rng: StreamRng,
}

impl ReservoirHash {
    /// Builds an empty RSH per `config` (reservoir capacity and grid size
    /// both scale with the memory budget).
    pub fn new(config: &EstimatorConfig) -> Self {
        let capacity = config.scaled_reservoir();
        let side = config.scaled_grid_side();
        assert!(side <= MAX_GRID_SIDE, "grid side {side} is not restorable");
        let layout = CellGrid::new(config.domain, side);
        ReservoirHash {
            capacity,
            store: SampleStore::with_capacity(capacity.min(1 << 20)),
            grid: vec![Vec::new(); layout.cell_count()],
            layout,
            occupied: 0,
            seen: 0,
            population: 0,
            rng: StreamRng::seed_from_u64(config.seed ^ 0x2525),
        }
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

    /// Cell of the object currently stored at `slot`.
    fn cell_of_slot(&self, slot: u32) -> usize {
        let s = slot as usize;
        self.layout
            .cell_of(&Point::new(self.store.xs()[s], self.store.ys()[s]))
    }

    fn unlink(&mut self, cell: usize, slot: u32) {
        let v = &mut self.grid[cell];
        if let Some(pos) = v.iter().position(|&s| s == slot) {
            v.swap_remove(pos);
            self.occupied -= usize::from(v.is_empty());
        }
    }

    fn link(&mut self, cell: usize, slot: u32) {
        let v = &mut self.grid[cell];
        self.occupied += usize::from(v.is_empty());
        v.push(slot);
    }

    fn place(&mut self, obj: &GeoTextObject, slot: usize) {
        if slot < self.store.len() {
            let cell = self.cell_of_slot(slot as u32);
            self.unlink(cell, slot as u32);
            self.store.replace(slot as u32, obj);
        } else {
            self.store.push(obj);
        }
        self.link(self.layout.cell_of(&obj.loc), slot as u32);
    }

    /// Count of sample objects matching `query` via the grid: walk the
    /// cells of the range's cover and test each candidate — except in
    /// cells the range wholly covers, which add their length (pure
    /// spatial) or skip the rectangle test (hybrid).
    fn grid_count(&self, query: &RcDvq, r: &Rect) -> usize {
        let cover = self.layout.cover(r);
        let kws = query.keywords();
        let mut matches = 0usize;
        self.layout.for_each_cell(&cover, |cell, covered| {
            let slots = &self.grid[cell];
            matches += match (covered, kws.is_empty()) {
                (true, true) => slots.len(),
                (false, true) => self.store.count_slots_in_rect(slots, r),
                (covered, false) => slots
                    .iter()
                    .filter(|&&s| {
                        (covered || self.store.slot_in_rect(s, r))
                            && keywords_intersect(self.store.keywords(s), kws)
                    })
                    .count(),
            };
        });
        matches
    }
}

impl SelectivityEstimator for ReservoirHash {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::Rsh
    }

    fn insert(&mut self, obj: &GeoTextObject) {
        self.population += 1;
        self.seen += 1;
        if self.store.len() < self.capacity {
            self.place(obj, self.store.len());
        } else {
            let j = self.rng.gen_range_u64(0..self.seen);
            if (j as usize) < self.capacity {
                self.place(obj, j as usize);
            }
        }
    }

    /// Decide, then place once — see [`Winners`]. Each placement links its
    /// grid cell as `insert` does, so a cell lists its slots in ascending
    /// order rather than in arrival order; no count depends on that order.
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

    fn remove(&mut self, obj: &GeoTextObject) {
        self.population = self.population.saturating_sub(1);
        let Some(slot) = self.store.slot_of(obj.oid) else {
            return;
        };
        // Grid bookkeeping needs cell ids *before* the store swap-removes:
        // unlink the victim and (if a move happens) the former last slot,
        // then relink the moved object under its new slot id.
        let victim_cell = self.cell_of_slot(slot);
        let last = (self.store.len() - 1) as u32;
        self.unlink(victim_cell, slot);
        if slot != last {
            let moved_cell = self.cell_of_slot(last);
            self.unlink(moved_cell, last);
            self.store.remove(obj.oid);
            self.link(moved_cell, slot);
        } else {
            self.store.remove(obj.oid);
        }
    }

    fn estimate(&self, query: &RcDvq) -> f64 {
        if self.store.is_empty() {
            return 0.0;
        }
        let n = self.store.len();
        let matches = match query.range() {
            Some(r) => {
                let kws = query.keywords();
                // Hybrid cost cutover: a rare keyword's posting union is
                // cheaper than gathering the touched cells.
                let posting_first = !kws.is_empty() && self.store.posting_mass(kws) * 4 < n;
                if posting_first {
                    self.store.count(query)
                } else {
                    self.grid_count(query, r)
                }
            }
            // Pure keyword query: no spatial pruning; the posting index
            // answers without touching the grid.
            None => self.store.count(query),
        };
        matches as f64 / n as f64 * self.population as f64
    }

    /// Batch variant preserving [`ReservoirHash::estimate`]'s per-query
    /// routing exactly: queries the single path would answer from the
    /// posting index (pure keyword, and posting-first hybrids under the
    /// cost cutover) share one [`SampleStore::count_many`] call — one
    /// union merge per common keyword set — while grid-routed queries
    /// take the same grid gather the single path takes. Identical
    /// routing + exact kernels ⇒ bit-equal results.
    fn estimate_batch(&self, queries: &[RcDvq]) -> Vec<f64> {
        if self.store.is_empty() {
            return vec![0.0; queries.len()];
        }
        let n = self.store.len();
        let mut store_routed: Vec<usize> = Vec::new();
        let mut store_queries: Vec<RcDvq> = Vec::new();
        let mut matches = vec![0usize; queries.len()];
        for (i, q) in queries.iter().enumerate() {
            match q.range() {
                Some(r) => {
                    let kws = q.keywords();
                    let posting_first = !kws.is_empty() && self.store.posting_mass(kws) * 4 < n;
                    if posting_first {
                        store_routed.push(i);
                        store_queries.push(q.clone());
                    } else {
                        matches[i] = self.grid_count(q, r);
                    }
                }
                None => {
                    store_routed.push(i);
                    store_queries.push(q.clone());
                }
            }
        }
        for (&i, c) in store_routed
            .iter()
            .zip(self.store.count_many(&store_queries))
        {
            matches[i] = c;
        }
        matches
            .into_iter()
            .map(|m| m as f64 / n as f64 * self.population as f64)
            .collect()
    }

    fn memory_bytes(&self) -> usize {
        // Every grid entry holds exactly one live slot, so the slot total
        // equals the sample length — no walk needed.
        self.store.memory_bytes()
            + self.store.len() * std::mem::size_of::<u32>()
            + self.occupied * (std::mem::size_of::<u32>() + std::mem::size_of::<Vec<u32>>())
            + std::mem::size_of::<Self>()
    }

    fn persist_state(&self, w: &mut PersistWriter) {
        self.persist(w);
    }

    fn population(&self) -> u64 {
        self.population
    }

    /// Audits the backing store, plus the spatial grid over it: every
    /// sampled slot is linked under exactly the cell its coordinates hash
    /// to, and the grid holds nothing else.
    #[cfg(feature = "debug-invariants")]
    fn audit(&self) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        const S: &str = "ReservoirHash";
        self.store.audit()?;
        ensure(
            self.store.len() <= self.capacity,
            S,
            "sample-bounds",
            || {
                format!(
                    "sample {} over capacity {}",
                    self.store.len(),
                    self.capacity
                )
            },
        )?;
        ensure(
            self.grid.len() == self.layout.cell_count(),
            S,
            "grid-coverage",
            || {
                format!(
                    "{} lists for a grid of {} cells",
                    self.grid.len(),
                    self.layout.cell_count()
                )
            },
        )?;
        let linked: usize = self.grid.iter().map(Vec::len).sum();
        ensure(linked == self.store.len(), S, "grid-coverage", || {
            format!("{linked} grid links for {} slots", self.store.len())
        })?;
        let occupied = self.grid.iter().filter(|slots| !slots.is_empty()).count();
        ensure(occupied == self.occupied, S, "grid-coverage", || {
            format!("{occupied} non-empty cells, counter says {}", self.occupied)
        })?;
        for (cell, slots) in self.grid.iter().enumerate() {
            for &slot in slots {
                ensure(
                    (slot as usize) < self.store.len() && self.cell_of_slot(slot) == cell,
                    S,
                    "grid-placement",
                    || format!("slot {slot} linked under cell {cell}"),
                )?;
            }
        }
        Ok(())
    }
}

/// Section tag for [`ReservoirHash`] snapshots.
const RSH_TAG: u32 = 0x4512_2502;

impl Persist for ReservoirHash {
    /// Grid slot lists are serialized verbatim, as `(cell, list)` pairs for
    /// the non-empty cells in index order: list order is live state
    /// produced by `link` / `unlink`'s swap-removes, and a restore must
    /// leave the estimator byte-identical to the instance it snapshotted.
    fn persist(&self, w: &mut PersistWriter) {
        w.section(RSH_TAG, |w| {
            w.put_usize(self.capacity);
            self.layout.domain().persist(w);
            w.put_usize(self.layout.side());
            w.put_u64(self.seen);
            w.put_u64(self.population);
            self.rng.persist(w);
            w.put_usize(self.occupied);
            for (cell, slots) in self.grid.iter().enumerate() {
                if !slots.is_empty() {
                    // `new` and `restore` cap the side at MAX_GRID_SIDE.
                    w.put_u32(cell as u32);
                    slots.persist(w);
                }
            }
            self.store.persist(w);
        });
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        const CTX: &str = "reservoir hash";
        let corrupt = |detail: String| PersistError::Corrupt {
            context: CTX,
            detail,
        };
        let sec = r.begin_section(RSH_TAG, CTX)?;
        let capacity = r.take_usize("rsh capacity")?;
        let domain = Rect::restore(r)?;
        let side = r.take_usize("rsh grid side")?;
        let seen = r.take_u64("rsh seen")?;
        let population = r.take_u64("rsh population")?;
        let rng = StreamRng::restore(r)?;
        if side == 0 || side > MAX_GRID_SIDE {
            return Err(corrupt(format!(
                "grid side {side} outside 1..={MAX_GRID_SIDE}"
            )));
        }
        let layout = CellGrid::new(domain, side);
        let occupied = r.take_len("rsh grid cells")?;
        let mut grid = vec![Vec::new(); layout.cell_count()];
        let mut linked = 0usize;
        for _ in 0..occupied {
            let cell = r.take_u32("rsh grid cell")? as usize;
            let slots = Vec::<u32>::restore(r)?;
            linked += slots.len();
            match grid.get_mut(cell) {
                Some(list) if list.is_empty() && !slots.is_empty() => *list = slots,
                _ => {
                    return Err(corrupt(format!(
                        "grid cell {cell} duplicate, empty or off-grid"
                    )))
                }
            }
        }
        let store = SampleStore::restore(r)?;
        r.finish_section(sec, CTX)?;
        if linked != store.len() {
            return Err(corrupt(format!(
                "{linked} grid links for {} slots",
                store.len()
            )));
        }
        Ok(ReservoirHash {
            capacity,
            layout,
            store,
            grid,
            occupied,
            seen,
            population,
            rng,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::{KeywordId, ObjectId, Timestamp};

    fn config(cap: usize) -> EstimatorConfig {
        EstimatorConfig {
            reservoir_capacity: cap,
            domain: Rect::new(0.0, 0.0, 64.0, 64.0),
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
    fn exact_when_sample_holds_everything() {
        let mut r = ReservoirHash::new(&config(1_000));
        for i in 0..100 {
            let x = if i < 40 { 1.0 } else { 50.0 };
            r.insert(&obj(i, x, 1.0, &[i as u32 % 4]));
        }
        let q = RcDvq::spatial(Rect::new(0.0, 0.0, 10.0, 10.0));
        assert!((r.estimate(&q) - 40.0).abs() < 1e-9);
        let qk = RcDvq::keyword(vec![KeywordId(1)]);
        assert!((r.estimate(&qk) - 25.0).abs() < 1e-9);
        let qh = RcDvq::hybrid(Rect::new(40.0, 0.0, 60.0, 10.0), vec![KeywordId(2)]);
        assert!((r.estimate(&qh) - 15.0).abs() < 1e-9);
    }

    /// Twin of `exactdb`'s grid reproducer: with `side = 10` the old cell
    /// and candidate formulas put `0.3` in columns 3 and 2, and a full
    /// sample estimated 0 for a rectangle holding the object.
    #[test]
    fn object_on_a_cell_boundary_is_counted_at_side_10() {
        let mut r = ReservoirHash::new(&EstimatorConfig {
            reservoir_capacity: 16,
            domain: Rect::new(0.0, 0.0, 1.0, 1.0),
            grid_cells: 100,
            ..EstimatorConfig::default()
        });
        r.insert(&obj(1, 0.3, 0.05, &[4]));
        let rect = Rect::new(0.0, 0.0, 0.3, 0.1);
        assert_eq!(r.estimate(&RcDvq::spatial(rect)), 1.0);
        assert_eq!(r.estimate(&RcDvq::hybrid(rect, vec![KeywordId(4)])), 1.0);
    }

    #[test]
    fn grid_scan_agrees_with_full_scan() {
        let mut r = ReservoirHash::new(&config(5_000));
        let mut seed = 9u64;
        for i in 0..3_000 {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let x = (seed >> 11) as f64 / (1u64 << 53) as f64 * 64.0;
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let y = (seed >> 11) as f64 / (1u64 << 53) as f64 * 64.0;
            r.insert(&obj(i, x, y, &[(i % 7) as u32]));
        }
        for rect in [
            Rect::new(0.0, 0.0, 64.0, 64.0),
            Rect::new(10.3, 20.7, 35.2, 33.3),
            Rect::new(0.0, 0.0, 0.5, 0.5),
        ] {
            let q = RcDvq::hybrid(rect, vec![KeywordId(3)]);
            let grid_est = r.estimate(&q);
            let full = (0..r.store.len() as u32)
                .filter(|&s| r.store.slot_matches(s, &q))
                .count() as f64
                / r.store.len() as f64
                * r.population() as f64;
            assert!(
                (grid_est - full).abs() < 1e-9,
                "grid scan diverged: {grid_est} vs {full} for {rect:?}"
            );
        }
    }

    #[test]
    fn churn_keeps_grid_consistent() {
        let mut r = ReservoirHash::new(&config(64));
        let mut live: Vec<GeoTextObject> = Vec::new();
        let mut seed = 77u64;
        for i in 0..3_000u64 {
            seed = seed.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(3);
            let x = (seed >> 11) as f64 / (1u64 << 53) as f64 * 64.0;
            let o = obj(i, x, x / 2.0, &[]);
            r.insert(&o);
            live.push(o);
            if live.len() > 200 {
                let victim = live.remove(0);
                r.remove(&victim);
            }
        }
        // Invariants: every slot map entry points at its object, and grid
        // entries cover exactly the sample.
        for (slot, oid) in r.store.oids().iter().enumerate() {
            assert_eq!(r.store.slot_of(*oid), Some(slot as u32));
        }
        let grid_slots: usize = r.grid.iter().map(Vec::len).sum();
        assert_eq!(grid_slots, r.store.len());
        for (cell, slots) in r.grid.iter().enumerate() {
            for &s in slots {
                assert_eq!(r.cell_of_slot(s), cell, "slot in wrong cell");
            }
        }
    }

    /// The bulk build leaves the singles' sample and RNG state, every slot
    /// written once, and a grid that covers exactly the sample — its cells
    /// list slots in ascending order, which is the one thing that differs.
    #[test]
    fn bulk_build_writes_each_slot_once_and_matches_singles() {
        let mut seed = 31u64;
        let objs: Vec<GeoTextObject> = (0..3_000u64)
            .map(|i| {
                seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let x = (seed >> 11) as f64 / (1u64 << 53) as f64 * 64.0;
                obj(i, x, 64.0 - x, &[(i % 5) as u32, 9])
            })
            .collect();
        let mut singles = ReservoirHash::new(&config(32));
        for o in &objs {
            singles.insert(o);
        }
        let mut bulk = ReservoirHash::new(&config(32));
        let slices = [&objs[..20], &objs[20..20], &objs[20..700], &objs[700..]];
        bulk.insert_slices(&mut slices.into_iter());

        assert_eq!(bulk.store.oids(), singles.store.oids());
        assert_eq!(bulk.seen, singles.seen);
        assert_eq!(bulk.population(), singles.population());
        assert_eq!(bulk.rng.state(), singles.rng.state());
        assert_eq!(bulk.occupied, singles.occupied);
        for (cell, slots) in bulk.grid.iter().enumerate() {
            assert!(
                slots.windows(2).all(|w| w[0] < w[1]),
                "cell {cell} unsorted"
            );
            let mut theirs = singles.grid[cell].clone();
            theirs.sort_unstable();
            assert_eq!(*slots, theirs, "cell {cell} holds other slots");
        }
        for q in [
            RcDvq::spatial(Rect::new(5.0, 5.0, 40.0, 60.0)),
            RcDvq::keyword(vec![KeywordId(3)]),
            RcDvq::hybrid(Rect::new(0.0, 0.0, 40.0, 64.0), vec![KeywordId(9)]),
        ] {
            assert_eq!(bulk.estimate(&q).to_bits(), singles.estimate(&q).to_bits());
        }
        assert!(bulk.store.written_once(), "a slot was written twice");
        assert_eq!(bulk.store.compactions(), 0);
        assert!(!singles.store.written_once(), "singles never replaced");
        #[cfg(feature = "debug-invariants")]
        bulk.audit().expect("bulk-built rsh audit");
    }

    #[test]
    fn estimate_batch_is_bit_equal_to_singles() {
        let mut r = ReservoirHash::new(&config(256));
        let mut seed = 13u64;
        for i in 0..4_000 {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let x = (seed >> 11) as f64 / (1u64 << 53) as f64 * 64.0;
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let y = (seed >> 11) as f64 / (1u64 << 53) as f64 * 64.0;
            // Keyword 9 is rare (posting-first hybrids), 0 is common
            // (grid-routed hybrids under the cutover).
            let kws: &[u32] = if i % 64 == 0 { &[0, 9] } else { &[0, i % 5] };
            r.insert(&obj(i as u64, x, y, kws));
        }
        let batch = vec![
            RcDvq::spatial(Rect::new(0.0, 0.0, 30.0, 30.0)),
            RcDvq::spatial(Rect::new(12.5, 3.25, 60.0, 48.0)),
            RcDvq::keyword(vec![KeywordId(3)]),
            RcDvq::keyword(vec![KeywordId(9)]),
            RcDvq::hybrid(Rect::new(0.0, 0.0, 40.0, 64.0), vec![KeywordId(9)]),
            RcDvq::hybrid(Rect::new(0.0, 0.0, 40.0, 64.0), vec![KeywordId(0)]),
        ];
        let many = r.estimate_batch(&batch);
        for (q, b) in batch.iter().zip(many) {
            assert_eq!(b.to_bits(), r.estimate(q).to_bits(), "diverged on {q:?}");
        }
    }

    #[test]
    fn estimate_scales_to_population() {
        let mut r = ReservoirHash::new(&config(200));
        for i in 0..20_000 {
            let x = if i % 4 == 0 { 1.0 } else { 50.0 };
            r.insert(&obj(i, x, 1.0, &[]));
        }
        let q = RcDvq::spatial(Rect::new(0.0, 0.0, 10.0, 10.0));
        let est = r.estimate(&q);
        assert!(
            (est - 5_000.0).abs() < 2_000.0,
            "estimate too far from truth: {est}"
        );
    }

    #[test]
    fn out_of_domain_query_is_zero() {
        let mut r = ReservoirHash::new(&config(10));
        r.insert(&obj(1, 5.0, 5.0, &[]));
        let q = RcDvq::spatial(Rect::new(100.0, 100.0, 110.0, 110.0));
        assert_eq!(r.estimate(&q), 0.0);
    }

    /// Churn (replacements, evictions, cells emptied and refilled), then
    /// persist → restore → persist: the second image equals the first, so
    /// the dense grid writes exactly the `(cell, list)` pairs it reads.
    #[test]
    fn persist_restore_persist_is_byte_identical_after_churn() {
        let mut r = ReservoirHash::new(&config(48));
        let mut live: Vec<GeoTextObject> = Vec::new();
        let mut seed = 5u64;
        for i in 0..2_000u64 {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let x = (seed >> 11) as f64 / (1u64 << 53) as f64 * 64.0;
            let o = obj(i, x, 64.0 - x, &[(i % 5) as u32]);
            r.insert(&o);
            live.push(o);
            if live.len() > 150 {
                r.remove(&live.remove(0));
            }
        }
        let mut first = PersistWriter::new();
        r.persist(&mut first);
        let first = first.into_bytes();
        let back = ReservoirHash::restore(&mut PersistReader::new(&first)).expect("restore");
        let mut second = PersistWriter::new();
        back.persist(&mut second);
        assert!(first == second.into_bytes(), "second image differs");
        assert_eq!(back.memory_bytes(), r.memory_bytes());
    }

    /// Snapshot mid-stream, restore, continue ingesting the same suffix on
    /// both instances: sample slots, grid links, and estimates must stay
    /// bit-identical (RNG included).
    #[test]
    fn persist_round_trip_is_bit_identical_under_continued_churn() {
        let mut orig = ReservoirHash::new(&config(128));
        let mut seed = 21u64;
        let mut point = |i: u64| {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let x = (seed >> 11) as f64 / (1u64 << 53) as f64 * 64.0;
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let y = (seed >> 11) as f64 / (1u64 << 53) as f64 * 64.0;
            obj(i, x, y, &[(i % 7) as u32])
        };
        for i in 0..4_000u64 {
            orig.insert(&point(i));
        }
        let mut w = PersistWriter::new();
        orig.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = PersistReader::new(&bytes);
        let mut back = ReservoirHash::restore(&mut r).expect("round trip");
        assert!(r.is_exhausted());
        for i in 4_000..6_000u64 {
            let o = point(i);
            orig.insert(&o);
            back.insert(&o);
        }
        assert_eq!(orig.store.oids(), back.store.oids());
        assert_eq!(orig.grid, back.grid);
        let q = RcDvq::hybrid(Rect::new(5.0, 5.0, 40.0, 50.0), vec![KeywordId(3)]);
        assert_eq!(back.estimate(&q).to_bits(), orig.estimate(&q).to_bits());
        #[cfg(feature = "debug-invariants")]
        back.audit().expect("restored rsh audit");
    }
}
