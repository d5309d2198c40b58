//! RSH's access path (the paper's reservoir sampling hashmap): a 2D grid
//! over a [`Reservoir`]'s sample.
//!
//! Every sampled slot is also listed under the grid cell its location
//! falls into (Figure 1(b) of the paper). Queries with a spatial predicate
//! only test the sample objects in cells the range touches, which removes
//! the full-sample iteration overhead — the reason RSH gives RSL's
//! accuracy at lower latency and is LATEST's default estimator. The grid
//! holds bare `u32` slot lists over the reservoir's [`SampleStore`];
//! keyword-only queries, and hybrids whose keywords are rare, answer from
//! the store's posting index as RSL does (`Reservoir::grid_route`).
//!
//! [`Reservoir`]: crate::reservoir::Reservoir

use crate::store::SampleStore;
use geostream::object::keywords_intersect;
use geostream::{CellGrid, GeoTextObject, ObjectId, Point, RcDvq, Rect};

/// Slot lists per cell of a [`CellGrid`] over a sample, which the owning
/// reservoir keeps in step with its store.
pub(crate) struct Grid {
    layout: CellGrid,
    /// `cell → slots of sampled objects in the cell`, one list per cell of
    /// `layout` (dense: a query walks its cover by index, no hashing).
    cells: Vec<Vec<u32>>,
    /// Cells whose list is non-empty (what `memory_bytes` charges for).
    occupied: usize,
}

impl Grid {
    /// An empty grid over `layout`.
    pub(crate) fn new(layout: CellGrid) -> Self {
        Grid {
            cells: vec![Vec::new(); layout.cell_count()],
            layout,
            occupied: 0,
        }
    }

    /// Cell of the object `store` holds at `slot`.
    fn cell_of_slot(&self, store: &SampleStore, slot: u32) -> usize {
        let s = slot as usize;
        self.layout
            .cell_of(&Point::new(store.xs()[s], store.ys()[s]))
    }

    /// The slot lists, by cell.
    #[cfg(test)]
    pub(crate) fn cells(&self) -> &[Vec<u32>] {
        &self.cells
    }

    fn unlink(&mut self, cell: usize, slot: u32) {
        let v = &mut self.cells[cell];
        if let Some(pos) = v.iter().position(|&s| s == slot) {
            v.swap_remove(pos);
            self.occupied -= usize::from(v.is_empty());
        }
    }

    fn link(&mut self, cell: usize, slot: u32) {
        let v = &mut self.cells[cell];
        self.occupied += usize::from(v.is_empty());
        v.push(slot);
    }

    /// Links every slot of `store`, ascending, into this empty grid, each
    /// cell's list sized once: the grid of a filled, restored or converted
    /// sample.
    pub(crate) fn link_all(&mut self, store: &SampleStore) {
        let cells: Vec<usize> = (store.xs().iter().zip(store.ys()))
            .map(|(&x, &y)| self.layout.cell_of(&Point::new(x, y)))
            .collect();
        let mut sizes = vec![0; self.cells.len()];
        cells.iter().for_each(|&cell| sizes[cell] += 1);
        for (slots, size) in self.cells.iter_mut().zip(sizes) {
            slots.reserve_exact(size);
        }
        for (slot, &cell) in (0u32..).zip(&cells) {
            self.link(cell, slot);
        }
    }

    /// Writes `obj` to `slot` of `store` — a replacement below its length,
    /// else the next free slot — and relinks the slot under `obj`'s cell.
    pub(crate) fn place(&mut self, store: &mut SampleStore, obj: &GeoTextObject, slot: usize) {
        if slot < store.len() {
            self.unlink(self.cell_of_slot(store, slot as u32), slot as u32);
            store.replace(slot as u32, obj);
        } else {
            store.push(obj);
        }
        self.link(self.layout.cell_of(&obj.loc), slot as u32);
    }

    /// Removes `oid` from `store`, if it is sampled, keeping the links in
    /// step with the store's swap-remove.
    pub(crate) fn remove(&mut self, store: &mut SampleStore, oid: ObjectId) {
        let Some(slot) = store.slot_of(oid) else {
            return;
        };
        // Cell ids are read *before* the store swap-removes: unlink the
        // victim and (if a move happens) the former last slot, then relink
        // the moved object under its new slot id.
        let last = (store.len() - 1) as u32;
        self.unlink(self.cell_of_slot(store, slot), slot);
        if slot != last {
            let moved_cell = self.cell_of_slot(store, last);
            self.unlink(moved_cell, last);
            store.remove(oid);
            self.link(moved_cell, slot);
        } else {
            store.remove(oid);
        }
    }

    /// Count of `store`'s objects matching `query` via the grid: walk the
    /// cells of the range's cover and test each candidate — except in
    /// cells the range wholly covers, which add their length (pure
    /// spatial) or skip the rectangle test (hybrid).
    pub(crate) fn count(&self, store: &SampleStore, query: &RcDvq, r: &Rect) -> usize {
        let cover = self.layout.cover(r);
        let kws = query.keywords();
        let mut matches = 0usize;
        self.layout.for_each_cell(&cover, |cell, covered| {
            let slots = &self.cells[cell];
            matches += match (covered, kws.is_empty()) {
                (true, true) => slots.len(),
                (false, true) => store.count_slots_in_rect(slots, r),
                (covered, false) => slots
                    .iter()
                    .filter(|&&s| {
                        (covered || store.slot_in_rect(s, r))
                            && keywords_intersect(store.keywords(s), kws)
                    })
                    .count(),
            };
        });
        matches
    }

    /// Heap bytes over a sample of `sample_len`: every link holds exactly
    /// one live slot, so the link total is the sample length — no walk.
    pub(crate) fn memory_bytes(&self, sample_len: usize) -> usize {
        sample_len * std::mem::size_of::<u32>()
            + self.occupied * (std::mem::size_of::<u32>() + std::mem::size_of::<Vec<u32>>())
    }

    /// Every slot of `store` is linked under exactly the cell its
    /// coordinates hash to, and the grid holds nothing else.
    #[cfg(feature = "debug-invariants")]
    pub(crate) fn audit(&self, store: &SampleStore) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        const S: &str = "Grid";
        ensure(
            self.cells.len() == self.layout.cell_count(),
            S,
            "grid-coverage",
            || {
                format!(
                    "{} lists for a grid of {} cells",
                    self.cells.len(),
                    self.layout.cell_count()
                )
            },
        )?;
        let linked: usize = self.cells.iter().map(Vec::len).sum();
        ensure(linked == store.len(), S, "grid-coverage", || {
            format!("{linked} grid links for {} slots", store.len())
        })?;
        let occupied = self.cells.iter().filter(|slots| !slots.is_empty()).count();
        ensure(occupied == self.occupied, S, "grid-coverage", || {
            format!("{occupied} non-empty cells, counter says {}", self.occupied)
        })?;
        for (cell, slots) in self.cells.iter().enumerate() {
            for &slot in slots {
                ensure(
                    (slot as usize) < store.len() && self.cell_of_slot(store, slot) == cell,
                    S,
                    "grid-placement",
                    || format!("slot {slot} linked under cell {cell}"),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservoir::Reservoir;
    use crate::traits::{EstimatorConfig, SelectivityEstimator};
    use geostream::{KeywordId, PersistWriter, Timestamp};

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
        let mut r = Reservoir::hash(&config(1_000));
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
        let mut r = Reservoir::hash(&EstimatorConfig {
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
        let mut r = Reservoir::hash(&config(5_000));
        let mut seed = 9u64;
        for i in 0..3_000 {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let x = (seed >> 11) as f64 / (1u64 << 53) as f64 * 64.0;
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let y = (seed >> 11) as f64 / (1u64 << 53) as f64 * 64.0;
            r.insert(&obj(i, x, y, &[(i % 7) as u32]));
        }
        let store = r.store();
        for rect in [
            Rect::new(0.0, 0.0, 64.0, 64.0),
            Rect::new(10.3, 20.7, 35.2, 33.3),
            Rect::new(0.0, 0.0, 0.5, 0.5),
        ] {
            let q = RcDvq::hybrid(rect, vec![KeywordId(3)]);
            let grid_est = r.estimate(&q);
            let full = (0..store.len() as u32)
                .filter(|&s| store.slot_matches(s, &q))
                .count() as f64
                / store.len() as f64
                * r.population() as f64;
            assert!(
                (grid_est - full).abs() < 1e-9,
                "grid scan diverged: {grid_est} vs {full} for {rect:?}"
            );
        }
    }

    #[test]
    fn churn_keeps_grid_consistent() {
        let mut r = Reservoir::hash(&config(64));
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
        let store = r.store();
        for (slot, oid) in store.oids().iter().enumerate() {
            assert_eq!(store.slot_of(*oid), Some(slot as u32));
        }
        let grid = r.grid().expect("an RSH");
        let grid_slots: usize = grid.cells.iter().map(Vec::len).sum();
        assert_eq!(grid_slots, store.len());
        for (cell, slots) in grid.cells.iter().enumerate() {
            for &s in slots {
                assert_eq!(grid.cell_of_slot(store, s), cell, "slot in wrong cell");
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
        let mut singles = Reservoir::hash(&config(32));
        for o in &objs {
            singles.insert(o);
        }
        let mut bulk = Reservoir::hash(&config(32));
        let slices = [&objs[..20], &objs[20..20], &objs[20..700], &objs[700..]];
        assert!(bulk.build_taped(&mut None, &slices));

        assert_eq!(bulk.store().oids(), singles.store().oids());
        assert_eq!(bulk.seen(), singles.seen());
        assert_eq!(bulk.population(), singles.population());
        assert_eq!(bulk.rng().state(), singles.rng().state());
        let (bulk_grid, singles_grid) = (bulk.grid().unwrap(), singles.grid().unwrap());
        assert_eq!(bulk_grid.occupied, singles_grid.occupied);
        for (cell, slots) in bulk_grid.cells.iter().enumerate() {
            assert!(
                slots.windows(2).all(|w| w[0] < w[1]),
                "cell {cell} unsorted"
            );
            let mut theirs = singles_grid.cells[cell].clone();
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
        assert!(bulk.store().written_once(), "a slot was written twice");
        assert_eq!(bulk.store().compactions(), 0);
        assert!(!singles.store().written_once(), "singles never replaced");
        #[cfg(feature = "debug-invariants")]
        bulk.audit().expect("bulk-built rsh audit");
    }

    #[test]
    fn estimate_batch_is_bit_equal_to_singles() {
        let mut r = Reservoir::hash(&config(256));
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
        let mut r = Reservoir::hash(&config(200));
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
        let mut r = Reservoir::hash(&config(10));
        r.insert(&obj(1, 5.0, 5.0, &[]));
        let q = RcDvq::spatial(Rect::new(100.0, 100.0, 110.0, 110.0));
        assert_eq!(r.estimate(&q), 0.0);
    }

    /// Churn (replacements, evictions, cells emptied and refilled), then
    /// persist → restore → persist: the second image equals the first, and
    /// the rebuilt grid links every slot under its cell
    /// (`SelectivityEstimator::audit` checks the placement).
    #[test]
    fn persist_restore_persist_is_byte_identical_after_churn() {
        let mut r = Reservoir::hash(&config(48));
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
        r.persist_state(&mut first);
        let first = first.into_bytes();
        let back = crate::traits::reload(&r, Reservoir::hash(&config(48)));
        let mut second = PersistWriter::new();
        back.persist_state(&mut second);
        assert!(first == second.into_bytes(), "second image differs");
        let occupied = |r: &Reservoir| r.grid().map(|g| g.occupied);
        assert_eq!(occupied(&back), occupied(&r));
        assert!(back.memory_bytes() <= r.memory_bytes());
        #[cfg(feature = "debug-invariants")]
        back.audit().expect("restored grid audit");
    }

    /// Snapshot mid-stream, restore, continue ingesting the same suffix on
    /// both instances: sample slots, grid links, and estimates must stay
    /// bit-identical (RNG included).
    #[test]
    fn persist_round_trip_is_bit_identical_under_continued_churn() {
        let mut orig = Reservoir::hash(&config(128));
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
        let mut back = crate::traits::reload(&orig, Reservoir::hash(&config(128)));
        for i in 4_000..6_000u64 {
            let o = point(i);
            orig.insert(&o);
            back.insert(&o);
        }
        assert_eq!(orig.store().oids(), back.store().oids());
        let cells = |r: &Reservoir| r.grid().map(|g| g.cells.clone());
        assert_eq!(cells(&orig), cells(&back));
        let q = RcDvq::hybrid(Rect::new(5.0, 5.0, 40.0, 50.0), vec![KeywordId(3)]);
        assert_eq!(back.estimate(&q).to_bits(), orig.estimate(&q).to_bits());
        #[cfg(feature = "debug-invariants")]
        back.audit().expect("restored rsh audit");
    }
}
