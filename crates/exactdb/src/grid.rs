//! Full grid index: a regular spatial grid whose cells are queues of
//! `seq`s into the shared [`ObjectStore`], in arrival order.

use crate::store::{ObjectStore, Seq, SeqQueue};
use geostream::object::keywords_intersect;
use geostream::{CellGrid, RcDvq, Rect};

/// A regular `side × side` grid over the domain, each cell holding the
/// `seq`s of the objects located inside it, oldest first. Exact and
/// update-cheap: an arrival pushes onto its cell, an eviction pops the
/// front of its cell. A rectangle is answered from the cells of its
/// [`CellGrid::cover`]: cells the rectangle wholly covers are counted by
/// length (or keyword-tested only), and objects are read only in the
/// cells on the cover's rim — the index overhead of Table I.
#[derive(Debug, Clone)]
pub struct GridIndex {
    layout: CellGrid,
    cells: Vec<SeqQueue>,
    len: usize,
}

impl GridIndex {
    /// Builds an empty index with `side` cells per axis.
    pub fn new(domain: Rect, side: usize) -> Self {
        let layout = CellGrid::new(domain, side);
        GridIndex {
            cells: vec![SeqQueue::default(); layout.cell_count()],
            layout,
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

    /// Indexes the store's newest object.
    pub fn insert(&mut self, seq: Seq, store: &ObjectStore) {
        self.cells[self.layout.cell_of(store.loc(seq))].push(seq);
        self.len += 1;
    }

    /// Evicts the store's oldest object, `seq`, from the front of its
    /// cell. Call before the store drops it. Returns `false`, changing
    /// nothing, if `seq` is not that front.
    pub fn pop_front(&mut self, seq: Seq, store: &ObjectStore) -> bool {
        let cell = &mut self.cells[self.layout.cell_of(store.loc(seq))];
        if cell.front() != Some(seq) {
            return false;
        }
        cell.pop_front();
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
                .flat_map(SeqQueue::as_slice)
                .filter(|&&s| store.matches(s, query))
                .count() as u64;
        };
        let cover = self.layout.cover(r);
        let kws = query.keywords();
        let mut total = 0usize;
        self.layout.for_each_cell(&cover, |cell, covered| {
            let seqs = self.cells[cell].as_slice();
            total += match (covered, kws.is_empty()) {
                (true, true) => seqs.len(),
                (false, true) => seqs.iter().filter(|&&s| r.contains(store.loc(s))).count(),
                // Location first: it is the cheap column, and a rim cell
                // mostly fails it, so the keyword `Arc` is chased on a hit only.
                (covered, false) => seqs
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

    /// Invariant walk against the ring (the `debug-invariants` auditor):
    /// every cell is in age order over live objects (**age-order**), each
    /// `seq` sits in the cell its location maps to (**cell-of**), and the
    /// cells hold the ring's population exactly (**population**).
    #[cfg(feature = "debug-invariants")]
    pub fn audit(&self, store: &ObjectStore) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        const S: &str = "GridIndex";
        let mut total = 0usize;
        for (cell, queue) in self.cells.iter().enumerate() {
            store.audit_queue(S, queue, || format!("cell {cell}"))?;
            for &seq in queue.as_slice() {
                let home = self.layout.cell_of(store.loc(seq));
                ensure(home == cell, S, "cell-of", || {
                    format!("seq {seq} in cell {cell}, its location maps to {home}")
                })?;
            }
            total += queue.len();
        }
        ensure(
            total == self.len && total == store.len(),
            S,
            "population",
            || format!("cells hold {total}, len {}, ring {}", self.len, store.len()),
        )
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

    fn insert(g: &mut GridIndex, store: &mut ObjectStore, o: GeoTextObject) -> Seq {
        let seq = store.push(&o);
        g.insert(seq, store);
        seq
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
                let brute = store.seqs().filter(|&s| store.matches(s, &q));
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

    /// Evictions pop cell fronts; an object that is not the oldest is
    /// refused and nothing changes.
    #[test]
    fn remove_works() {
        let mut store = ObjectStore::new();
        let mut g = GridIndex::new(DOMAIN, 4);
        let a = insert(&mut g, &mut store, obj(1, 5.0, 5.0, &[]));
        let b = insert(&mut g, &mut store, obj(2, 5.0, 5.0, &[]));
        assert!(!g.pop_front(b, &store), "only the front may leave");
        assert!(g.pop_front(a, &store));
        store.pop_front();
        assert!(!g.pop_front(a, &store));
        assert_eq!(g.len(), 1);
        let q = RcDvq::spatial(Rect::new(4.0, 4.0, 6.0, 6.0));
        assert_eq!(g.count(&q, &store), 1);
    }

    /// Under sliding-window churn every cell stays in arrival order and
    /// holds exactly the live objects that map to it.
    #[test]
    fn cells_stay_in_arrival_order_under_churn() {
        let mut store = ObjectStore::new();
        let mut g = GridIndex::new(DOMAIN, 8);
        for i in 0..500u64 {
            insert(
                &mut g,
                &mut store,
                obj(i, (i % 10) as f64, ((i * 7 / 10) % 10) as f64, &[]),
            );
            if i >= 100 {
                let oldest = store.front().unwrap();
                assert!(g.pop_front(oldest, &store));
                store.pop_front();
            }
        }
        assert_eq!(g.len(), 100);
        let mut seen = 0;
        for (cell, queue) in g.cells.iter().enumerate() {
            let ages: Vec<u32> = queue.as_slice().iter().map(|&s| store.age(s)).collect();
            assert!(
                ages.windows(2).all(|w| w[0] < w[1]),
                "cell {cell}: {ages:?}"
            );
            for &seq in queue.as_slice() {
                assert!(store.is_live(seq));
                assert_eq!(g.layout.cell_of(store.loc(seq)), cell);
            }
            seen += queue.len();
        }
        assert_eq!(seen, store.len());
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
