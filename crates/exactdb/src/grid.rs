//! Full grid index: a regular spatial grid whose cells hold slot ids into
//! the shared [`ObjectStore`].

use crate::store::{ObjectStore, SlotId};
use geostream::object::keywords_intersect;
use geostream::{CellGrid, RcDvq, Rect};

/// Locator sentinel: slot not present in the grid.
const NOWHERE: (u32, u32) = (u32::MAX, u32::MAX);

/// Locator entry for position `pos` of cell `cell`.
#[inline]
fn locator_entry(cell: usize, pos: usize) -> (u32, u32) {
    // LINT-ALLOW(as-truncation): side is a small per-axis cell count (64 in the executor), so side² fits; a cell holds at most the u32 slot space
    (cell as u32, pos as u32)
}

/// A regular `side × side` grid over the domain, each cell holding the
/// slots of the objects located inside it. Exact and update-cheap. A
/// rectangle is answered from the cells of its [`CellGrid::cover`]: cells
/// the rectangle wholly covers are counted by length (or keyword-tested
/// only), and objects are read only in the cells on the cover's rim — the
/// index overhead of Table I.
#[derive(Debug, Clone)]
pub struct GridIndex {
    layout: CellGrid,
    cells: Vec<Vec<SlotId>>,
    /// `slot → (cell, position within cell)` for O(1) removal, indexed
    /// densely by slot id.
    locator: Vec<(u32, u32)>,
    len: usize,
}

impl GridIndex {
    /// Builds an empty index with `side` cells per axis.
    pub fn new(domain: Rect, side: usize) -> Self {
        let layout = CellGrid::new(domain, side);
        GridIndex {
            cells: vec![Vec::new(); layout.cell_count()],
            layout,
            locator: Vec::new(),
            len: 0,
        }
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn locator_mut(&mut self, slot: SlotId) -> &mut (u32, u32) {
        if slot as usize >= self.locator.len() {
            self.locator.resize(slot as usize + 1, NOWHERE);
        }
        &mut self.locator[slot as usize]
    }

    /// Indexes a live store slot. The slot must not already be present
    /// (the executor removes first on oid replacement).
    pub fn insert(&mut self, slot: SlotId, store: &ObjectStore) {
        let cell = self.layout.cell_of(store.loc(slot));
        let pos = self.cells[cell].len();
        self.cells[cell].push(slot);
        *self.locator_mut(slot) = locator_entry(cell, pos);
        self.len += 1;
    }

    /// Removes a slot. Returns whether anything was removed.
    pub fn remove(&mut self, slot: SlotId) -> bool {
        let Some(&(cell, pos)) = self.locator.get(slot as usize) else {
            return false;
        };
        if (cell, pos) == NOWHERE {
            return false;
        }
        self.locator[slot as usize] = NOWHERE;
        let bucket = &mut self.cells[cell as usize];
        bucket.swap_remove(pos as usize);
        if (pos as usize) < bucket.len() {
            self.locator[bucket[pos as usize] as usize] = (cell, pos);
        }
        self.len -= 1;
        true
    }

    /// Exact count of indexed objects matching `query`. With a range, only
    /// the rim cells of its cover pay a location read per object; a cell
    /// the range wholly covers adds its length (pure spatial) or tests
    /// keywords alone (hybrid).
    pub fn count(&self, query: &RcDvq, store: &ObjectStore) -> u64 {
        let Some(r) = query.range() else {
            return self
                .cells
                .iter()
                .flatten()
                .filter(|&&s| store.matches(s, query))
                .count() as u64;
        };
        let cover = self.layout.cover(r);
        let kws = query.keywords();
        let mut total = 0usize;
        self.layout.for_each_cell(&cover, |cell, covered| {
            let slots = &self.cells[cell];
            total += match (covered, kws.is_empty()) {
                (true, true) => slots.len(),
                (false, true) => slots.iter().filter(|&&s| r.contains(store.loc(s))).count(),
                // Location first: it is the cheap column, and a rim cell
                // mostly fails it, so the keyword `Arc` is chased on a hit only.
                (covered, false) => slots
                    .iter()
                    .filter(|&&s| {
                        (covered || r.contains(store.loc(s)))
                            && keywords_intersect(store.keywords(s), kws)
                    })
                    .count(),
            };
        });
        total as u64
    }

    /// Candidate-set size of the spatial access path for `r`: the number
    /// of objects in the cells the range touches (the planner's cost for
    /// this backend; O(cells), no object reads).
    pub fn candidate_count(&self, r: &Rect) -> u64 {
        let cover = self.layout.cover(r);
        let mut total = 0usize;
        self.layout
            .for_each_cell(&cover, |cell, _| total += self.cells[cell].len());
        total as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::{GeoTextObject, KeywordId, ObjectId, Point, Timestamp};

    const DOMAIN: Rect = Rect {
        min_x: 0.0,
        min_y: 0.0,
        max_x: 10.0,
        max_y: 10.0,
    };

    fn obj(id: u64, x: f64, y: f64, kws: &[u32]) -> GeoTextObject {
        GeoTextObject::new(
            ObjectId(id),
            Point::new(x, y),
            kws.iter().copied().map(KeywordId).collect(),
            Timestamp::ZERO,
        )
    }

    fn insert(g: &mut GridIndex, store: &mut ObjectStore, o: GeoTextObject) -> SlotId {
        let slot = store.insert(o);
        g.insert(slot, store);
        slot
    }

    #[test]
    fn exact_spatial_count() {
        let mut store = ObjectStore::new();
        let mut g = GridIndex::new(DOMAIN, 8);
        for i in 0..20 {
            insert(&mut g, &mut store, obj(i, (i % 10) as f64 + 0.5, 0.5, &[]));
        }
        let q = RcDvq::spatial(Rect::new(0.0, 0.0, 4.9, 1.0));
        assert_eq!(g.count(&q, &store), 10); // x in {0.5..4.5} twice each
        assert_eq!(g.len(), 20);
    }

    /// With `side` not a power of two the old cell and candidate formulas
    /// disagreed at a boundary (`0.3 / 1.0 * 10` truncates to 3,
    /// `0.3 / (1.0 / 10)` to 2) and this count came back 0.
    #[test]
    fn object_on_a_cell_boundary_is_counted_at_side_10() {
        let mut store = ObjectStore::new();
        let mut g = GridIndex::new(Rect::new(0.0, 0.0, 1.0, 1.0), 10);
        insert(&mut g, &mut store, obj(1, 0.3, 0.05, &[4]));
        let r = Rect::new(0.0, 0.0, 0.3, 0.1);
        assert_eq!(g.count(&RcDvq::spatial(r), &store), 1);
        assert_eq!(g.count(&RcDvq::hybrid(r, vec![KeywordId(4)]), &store), 1);
        assert_eq!(g.candidate_count(&r), 1);
    }

    /// Covered cells are counted without reading objects; the rim still
    /// tests each one, out-of-domain objects clamped into it included.
    #[test]
    fn covered_cells_and_rim_add_up() {
        let mut store = ObjectStore::new();
        let mut g = GridIndex::new(DOMAIN, 10);
        let mut id = 0;
        for x in 0..10 {
            for y in 0..10 {
                id += 1;
                let kws = [(x + y) % 3];
                insert(
                    &mut g,
                    &mut store,
                    obj(id, x as f64 + 0.5, y as f64 + 0.5, &kws),
                );
            }
        }
        insert(&mut g, &mut store, obj(1_000, -4.0, 5.5, &[0]));
        insert(&mut g, &mut store, obj(1_001, 10.0, 10.0, &[0]));
        for r in [
            Rect::new(1.2, 0.7, 8.6, 9.4),
            Rect::new(-10.0, -10.0, 20.0, 20.0),
            Rect::new(0.0, 0.0, 10.0, 10.0),
            Rect::new(3.5, 3.5, 3.5, 3.5),
        ] {
            for q in [RcDvq::spatial(r), RcDvq::hybrid(r, vec![KeywordId(0)])] {
                let brute = store.iter_live().filter(|&(s, _)| store.matches(s, &q));
                assert_eq!(g.count(&q, &store), brute.count() as u64, "{q:?}");
            }
        }
    }

    #[test]
    fn exact_keyword_count() {
        let mut store = ObjectStore::new();
        let mut g = GridIndex::new(DOMAIN, 4);
        for i in 0..30 {
            insert(&mut g, &mut store, obj(i, 1.0, 1.0, &[(i % 3) as u32]));
        }
        let q = RcDvq::keyword(vec![KeywordId(1)]);
        assert_eq!(g.count(&q, &store), 10);
    }

    #[test]
    fn hybrid_count_checks_both() {
        let mut store = ObjectStore::new();
        let mut g = GridIndex::new(DOMAIN, 4);
        insert(&mut g, &mut store, obj(1, 1.0, 1.0, &[7]));
        insert(&mut g, &mut store, obj(2, 1.0, 1.0, &[8]));
        insert(&mut g, &mut store, obj(3, 9.0, 9.0, &[7]));
        let q = RcDvq::hybrid(Rect::new(0.0, 0.0, 2.0, 2.0), vec![KeywordId(7)]);
        assert_eq!(g.count(&q, &store), 1);
        // The candidate cost covers everything in the touched cells.
        assert_eq!(g.candidate_count(q.range().unwrap()), 2);
    }

    #[test]
    fn remove_works() {
        let mut store = ObjectStore::new();
        let mut g = GridIndex::new(DOMAIN, 4);
        let a = insert(&mut g, &mut store, obj(1, 5.0, 5.0, &[]));
        insert(&mut g, &mut store, obj(2, 5.0, 5.0, &[]));
        assert!(g.remove(a));
        assert!(!g.remove(a));
        assert_eq!(g.len(), 1);
        store.remove(ObjectId(1));
        let q = RcDvq::spatial(Rect::new(4.0, 4.0, 6.0, 6.0));
        assert_eq!(g.count(&q, &store), 1);
    }

    #[test]
    fn locator_consistent_under_churn() {
        let mut store = ObjectStore::new();
        let mut g = GridIndex::new(DOMAIN, 8);
        let mut slots = std::collections::HashMap::new();
        for i in 0..500u64 {
            let s = insert(
                &mut g,
                &mut store,
                obj(i, (i % 10) as f64, ((i / 10) % 10) as f64, &[]),
            );
            slots.insert(i, s);
            if i >= 100 {
                let old = slots[&(i - 100)];
                assert!(g.remove(old));
                store.remove(ObjectId(i - 100));
            }
        }
        assert_eq!(g.len(), 100);
        for (cell, bucket) in g.cells.iter().enumerate() {
            for (pos, &slot) in bucket.iter().enumerate() {
                assert_eq!(g.locator[slot as usize], (cell as u32, pos as u32));
            }
        }
    }

    #[test]
    fn out_of_domain_query() {
        let mut store = ObjectStore::new();
        let mut g = GridIndex::new(DOMAIN, 4);
        insert(&mut g, &mut store, obj(1, 5.0, 5.0, &[]));
        let q = RcDvq::spatial(Rect::new(50.0, 50.0, 60.0, 60.0));
        assert_eq!(g.count(&q, &store), 0);
        assert_eq!(g.candidate_count(q.range().unwrap()), 0);
    }
}
