//! Shared structure-of-arrays sample storage for the sampling estimators.
//!
//! Every sampling-family estimator (RSL, RSH, the SPN training buffer)
//! used to keep its own `Vec<GeoTextObject>` plus an
//! `oid → slot` `HashMap`, and answered `estimate` by scanning the whole
//! vector with [`RcDvq::matches`] — a pointer-chasing loop (one
//! `Arc<[KeywordId]>` deref per object) that dominates query latency at
//! paper-scale 100K-object reservoirs. [`SampleStore`] replaces that with
//! parallel arrays addressed by dense `u32` slots:
//!
//! * `xs` / `ys` — coordinate columns the spatial kernel streams through
//!   (64-slot chunks of branch-light compares the compiler can
//!   auto-vectorize). Coordinates stay `f64`: exhaustive samplers must
//!   reproduce *exact* match counts (`tests/prop_invariants.rs` pins
//!   this), and narrowing to `f32` flips membership for points within one
//!   ulp of a query boundary.
//! * `oids` + `slot_of` — identity column and the reverse map for O(1)
//!   retraction of evicted objects.
//! * `kw_pool` + `kw_ranges` — one flat keyword-id pool with per-slot
//!   `(offset, len)` ranges; no per-object allocation, no `Arc` deref.
//! * a sample-local **inverted posting index**: per keyword a
//!   sorted list of packed `(slot << 32) | generation` entries with lazy
//!   tombstones, compacted once a quarter of a list is dead (the same
//!   recipe as `exactdb`'s postings). Pure-keyword counts become
//!   posting-length lookups; hybrid counts walk the posting union and test
//!   the rectangle per candidate.
//!
//! Slots are kept dense by swap-remove (mirroring the estimators' previous
//! slot arithmetic exactly, which algorithm-R replacement order depends
//! on). Because a swap-remove recycles slot ids, posting entries carry a
//! per-slot **generation**: any mutation of a physical slot bumps
//! `slot_gen[slot]`, so stale entries can never alias the slot's new
//! occupant. An entry is live iff `slot < len && slot_gen[slot] == gen`.
//!
//! [`SampleStore::count`] fuses the three kernels behind one dispatch:
//! spatial-only → chunked coordinate scan; keyword-only → posting
//! lengths / k-way union merge; hybrid → posting-first when the union mass
//! is below a quarter of the sample, full scan otherwise.

use geostream::object::keywords_intersect;
use geostream::{
    GeoTextObject, IdMap, KeywordId, ObjectId, Persist, PersistError, PersistReader, PersistWriter,
    RcDvq, Rect,
};
use std::collections::HashMap;

/// Spatial-kernel chunk width (slots per inner loop).
const CHUNK: usize = 64;

/// Hybrid cost cutover: go posting-first when the union posting mass is
/// below `len / POSTING_CUTOVER_DIV`.
const POSTING_CUTOVER_DIV: usize = 4;

/// Keyword sets up to this size merge from list slices held on the stack;
/// only longer ones allocate.
const INLINE_MERGE_WAYS: usize = 8;

/// Keyword-pool compaction threshold: rebuild once more than half the pool
/// is garbage (and the pool is big enough to bother).
const POOL_MIN_COMPACT: usize = 64;

/// One keyword's posting list: packed `(slot << 32) | generation` entries,
/// sorted ascending (slot-major), with an exact count of dead entries.
#[derive(Debug, Default)]
struct PostingList {
    entries: Vec<u64>,
    dead: u32,
}

/// Sample-local inverted index over the store's keyword column.
#[derive(Debug, Default)]
struct PostingIndex {
    map: IdMap<KeywordId, PostingList>,
    /// Total entries across all lists (live + dead) — keeps
    /// [`SampleStore::memory_bytes`] O(1).
    total_entries: usize,
    compactions: u64,
}

#[inline]
fn pack(slot: u32, gen: u32) -> u64 {
    ((slot as u64) << 32) | gen as u64
}

#[inline]
fn entry_slot(e: u64) -> u32 {
    // LINT-ALLOW(as-truncation): the shift leaves exactly the upper 32 bits of the packed (slot, gen) pair
    (e >> 32) as u32
}

#[inline]
fn entry_gen(e: u64) -> u32 {
    // LINT-ALLOW(as-truncation): truncation extracts exactly the low 32 bits of the packed (slot, gen) pair
    e as u32
}

impl PostingIndex {
    fn post(&mut self, kw: KeywordId, slot: u32, gen: u32) {
        let e = pack(slot, gen);
        let list = self.map.entry(kw).or_default();
        if let Err(pos) = list.entries.binary_search(&e) {
            list.entries.insert(pos, e);
            self.total_entries += 1;
        }
    }

    /// Marks the entry `(slot, gen)` of `kw` dead; compacts the list at
    /// 25% garbage. The stale entry is located exactly (binary search on
    /// the packed key): a compaction triggered mid-operation may already
    /// have dropped it physically, and blindly bumping `dead` then would
    /// leave the counter permanently over live mass.
    fn tombstone(&mut self, kw: KeywordId, slot: u32, gen: u32, slot_gen: &[u32], live_len: usize) {
        let mut now_empty = false;
        if let Some(list) = self.map.get_mut(&kw) {
            if list.entries.binary_search(&pack(slot, gen)).is_err() {
                return; // already compacted away
            }
            list.dead += 1;
            if list.dead as usize * 4 >= list.entries.len() {
                let before = list.entries.len();
                list.entries.retain(|&e| {
                    let s = entry_slot(e) as usize;
                    s < live_len && slot_gen[s] == entry_gen(e)
                });
                self.total_entries -= before - list.entries.len();
                list.dead = 0;
                self.compactions += 1;
                now_empty = list.entries.is_empty();
            }
        }
        if now_empty {
            self.map.remove(&kw);
        }
    }
}

/// Structure-of-arrays storage for a dense, swap-removed object sample.
#[derive(Default)]
pub struct SampleStore {
    xs: Vec<f64>,
    ys: Vec<f64>,
    oids: Vec<ObjectId>,
    /// Per-slot `(offset, len)` into `kw_pool`.
    kw_ranges: Vec<(u32, u32)>,
    kw_pool: Vec<KeywordId>,
    /// Dead keyword ids still occupying `kw_pool`.
    kw_garbage: usize,
    slot_of: IdMap<ObjectId, u32>,
    /// High-water generation per physical slot; never decreases while the
    /// store holds data, so recycled slots cannot alias stale postings.
    slot_gen: Vec<u32>,
    postings: PostingIndex,
}

impl SampleStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Like [`SampleStore::new`] with pre-sized columns.
    pub fn with_capacity(cap: usize) -> Self {
        let mut s = Self::new();
        s.xs.reserve(cap);
        s.ys.reserve(cap);
        s.oids.reserve(cap);
        s.kw_ranges.reserve(cap);
        s
    }

    /// Number of stored objects (dense: slots are `0..len`).
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The x-coordinate column.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y-coordinate column.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The object-id column.
    pub fn oids(&self) -> &[ObjectId] {
        &self.oids
    }

    /// The (sorted, deduped) keywords of `slot`.
    pub fn keywords(&self, slot: u32) -> &[KeywordId] {
        let (off, len) = self.kw_ranges[slot as usize];
        &self.kw_pool[off as usize..(off + len) as usize]
    }

    /// Slot of `oid`, if sampled.
    pub fn slot_of(&self, oid: ObjectId) -> Option<u32> {
        self.slot_of.get(&oid).copied()
    }

    /// Posting-list compactions performed so far (diagnostics).
    pub fn compactions(&self) -> u64 {
        self.postings.compactions
    }

    /// Whether every slot was written exactly once and nothing retired: no
    /// generation bumped, no dead posting entry, no keyword garbage — what
    /// a bulk build into an empty store must leave.
    #[cfg(test)]
    pub(crate) fn written_once(&self) -> bool {
        self.kw_garbage == 0
            && self.slot_gen.iter().all(|&g| g == 0)
            && self.postings.map.values().all(|l| l.dead == 0)
    }

    /// Appends `obj` at slot `len`, returning its slot.
    pub fn push(&mut self, obj: &GeoTextObject) -> u32 {
        // LINT-ALLOW(as-truncation): slot count is bounded by the reservoir capacity, far below u32::MAX
        let slot = self.xs.len() as u32;
        self.xs.push(obj.loc.x);
        self.ys.push(obj.loc.y);
        self.oids.push(obj.oid);
        // LINT-ALLOW(as-truncation): pool length is bounded by capacity x keywords-per-object, well below u32::MAX
        let off = self.kw_pool.len() as u32;
        self.kw_pool.extend_from_slice(&obj.keywords);
        // LINT-ALLOW(as-truncation): per-object keyword counts are tiny (tens at most)
        self.kw_ranges.push((off, obj.keywords.len() as u32));
        if self.slot_gen.len() <= slot as usize {
            self.slot_gen.push(0);
        }
        self.slot_of.insert(obj.oid, slot);
        let gen = self.slot_gen[slot as usize];
        for &kw in obj.keywords.iter() {
            self.postings.post(kw, slot, gen);
        }
        slot
    }

    /// Overwrites `slot` with `obj` (algorithm-R replacement).
    pub fn replace(&mut self, slot: u32, obj: &GeoTextObject) {
        let s = slot as usize;
        let (old_off, old_len) = self.kw_ranges[s];
        let old_gen = self.slot_gen[s];
        self.slot_of.remove(&self.oids[s]);
        self.slot_gen[s] = self.slot_gen[s].wrapping_add(1);
        self.xs[s] = obj.loc.x;
        self.ys[s] = obj.loc.y;
        self.oids[s] = obj.oid;
        // LINT-ALLOW(as-truncation): pool length is bounded by capacity x keywords-per-object, well below u32::MAX
        let off = self.kw_pool.len() as u32;
        self.kw_pool.extend_from_slice(&obj.keywords);
        // LINT-ALLOW(as-truncation): per-object keyword counts are tiny (tens at most)
        self.kw_ranges[s] = (off, obj.keywords.len() as u32);
        self.slot_of.insert(obj.oid, slot);
        let gen = self.slot_gen[s];
        for &kw in obj.keywords.iter() {
            self.postings.post(kw, slot, gen);
        }
        let live_len = self.xs.len();
        for i in old_off..old_off + old_len {
            self.postings.tombstone(
                self.kw_pool[i as usize],
                slot,
                old_gen,
                &self.slot_gen,
                live_len,
            );
        }
        self.kw_garbage += old_len as usize;
        self.maybe_compact_pool();
    }

    /// Removes `oid` by swap-remove, returning its (former) slot. The
    /// object previously at the last slot, if any, moves into it — exactly
    /// the slot arithmetic the estimators' old `Vec` + `HashMap` pairs
    /// performed.
    pub fn remove(&mut self, oid: ObjectId) -> Option<u32> {
        let slot = self.slot_of.remove(&oid)? as usize;
        let (gone_off, gone_len) = self.kw_ranges[slot];
        let last = self.xs.len() - 1;
        if slot != last {
            let (moved_off, moved_len) = self.kw_ranges[last];
            let moved_oid = self.oids[last];
            let victim_gen = self.slot_gen[slot];
            let moved_old_gen = self.slot_gen[last];
            self.xs[slot] = self.xs[last];
            self.ys[slot] = self.ys[last];
            self.oids[slot] = moved_oid;
            self.kw_ranges[slot] = (moved_off, moved_len);
            // LINT-ALLOW(as-truncation): slot indices are bounded by the reservoir capacity, far below u32::MAX
            self.slot_of.insert(moved_oid, slot as u32);
            self.slot_gen[slot] = self.slot_gen[slot].wrapping_add(1);
            self.slot_gen[last] = self.slot_gen[last].wrapping_add(1);
            self.pop_columns();
            let gen = self.slot_gen[slot];
            let live_len = self.xs.len();
            // Re-post the moved object at its new slot, then tombstone
            // both its stale entries (at `last`) and the victim's.
            for i in moved_off..moved_off + moved_len {
                let kw = self.kw_pool[i as usize];
                // LINT-ALLOW(as-truncation): slot indices are bounded by the reservoir capacity, far below u32::MAX
                self.postings.post(kw, slot as u32, gen);
            }
            for i in moved_off..moved_off + moved_len {
                self.postings.tombstone(
                    self.kw_pool[i as usize],
                    // LINT-ALLOW(as-truncation): `last` is a live slot index, bounded by the reservoir capacity
                    last as u32,
                    moved_old_gen,
                    &self.slot_gen,
                    live_len,
                );
            }
            for i in gone_off..gone_off + gone_len {
                self.postings.tombstone(
                    self.kw_pool[i as usize],
                    // LINT-ALLOW(as-truncation): slot indices are bounded by the reservoir capacity, far below u32::MAX
                    slot as u32,
                    victim_gen,
                    &self.slot_gen,
                    live_len,
                );
            }
        } else {
            let victim_gen = self.slot_gen[slot];
            self.slot_gen[slot] = self.slot_gen[slot].wrapping_add(1);
            self.pop_columns();
            let live_len = self.xs.len();
            for i in gone_off..gone_off + gone_len {
                self.postings.tombstone(
                    self.kw_pool[i as usize],
                    // LINT-ALLOW(as-truncation): slot indices are bounded by the reservoir capacity, far below u32::MAX
                    slot as u32,
                    victim_gen,
                    &self.slot_gen,
                    live_len,
                );
            }
        }
        self.kw_garbage += gone_len as usize;
        self.maybe_compact_pool();
        // LINT-ALLOW(as-truncation): `slot` round-trips a u32-sized slot index through usize
        Some(slot as u32)
    }

    fn pop_columns(&mut self) {
        self.xs.pop();
        self.ys.pop();
        self.oids.pop();
        self.kw_ranges.pop();
    }

    fn maybe_compact_pool(&mut self) {
        if self.kw_pool.len() < POOL_MIN_COMPACT || self.kw_garbage * 2 <= self.kw_pool.len() {
            return;
        }
        let mut pool = Vec::with_capacity(self.kw_pool.len() - self.kw_garbage);
        for r in self.kw_ranges.iter_mut() {
            let (off, len) = *r;
            // LINT-ALLOW(as-truncation): pool length is bounded by capacity x keywords-per-object, well below u32::MAX
            let start = pool.len() as u32;
            pool.extend_from_slice(&self.kw_pool[off as usize..(off + len) as usize]);
            *r = (start, len);
        }
        self.kw_pool = pool;
        self.kw_garbage = 0;
    }

    // ---- match kernels ------------------------------------------------

    /// Whether `slot` falls inside `r`.
    #[inline]
    pub fn slot_in_rect(&self, slot: u32, r: &Rect) -> bool {
        let s = slot as usize;
        let (x, y) = (self.xs[s], self.ys[s]);
        x >= r.min_x && x <= r.max_x && y >= r.min_y && y <= r.max_y
    }

    /// Whether `slot` satisfies both of `query`'s predicates.
    pub fn slot_matches(&self, slot: u32, query: &RcDvq) -> bool {
        if let Some(r) = query.range() {
            if !self.slot_in_rect(slot, r) {
                return false;
            }
        }
        let kws = query.keywords();
        kws.is_empty() || keywords_intersect(self.keywords(slot), kws)
    }

    /// Chunked branch-light spatial kernel: counts slots inside `r` by
    /// streaming the coordinate columns in `CHUNK`-slot blocks of
    /// compare-and-accumulate — no branches, no `Arc` derefs, fully
    /// auto-vectorizable.
    pub fn count_in_rect(&self, r: &Rect) -> usize {
        let mut total = 0usize;
        for (cx, cy) in self.xs.chunks(CHUNK).zip(self.ys.chunks(CHUNK)) {
            let mut c = 0u32;
            for (&x, &y) in cx.iter().zip(cy.iter()) {
                c += u32::from(x >= r.min_x)
                    & u32::from(x <= r.max_x)
                    & u32::from(y >= r.min_y)
                    & u32::from(y <= r.max_y);
            }
            total += c as usize;
        }
        total
    }

    /// Multi-rectangle variant of [`SampleStore::count_in_rect`]: one
    /// streaming pass over the coordinate columns answers every
    /// rectangle. Each `CHUNK`-slot block is resident in cache while all
    /// rectangles test it, so the column traffic is paid once per batch
    /// instead of once per query. Counts are identical to calling
    /// `count_in_rect` per rectangle.
    pub fn count_in_rects(&self, rects: &[Rect]) -> Vec<usize> {
        let mut totals = vec![0usize; rects.len()];
        for (cx, cy) in self.xs.chunks(CHUNK).zip(self.ys.chunks(CHUNK)) {
            for (r, total) in rects.iter().zip(totals.iter_mut()) {
                let mut c = 0u32;
                for (&x, &y) in cx.iter().zip(cy.iter()) {
                    c += u32::from(x >= r.min_x)
                        & u32::from(x <= r.max_x)
                        & u32::from(y >= r.min_y)
                        & u32::from(y <= r.max_y);
                }
                *total += c as usize;
            }
        }
        totals
    }

    /// Multi-query variant of [`SampleStore::count`]: answers the whole
    /// batch with shared work — spatial-only queries ride one multi-rect
    /// column pass ([`SampleStore::count_in_rects`]), and queries with a
    /// common keyword set share a single posting-list union merge (each
    /// member only pays its rectangle test per visited slot). Counts are
    /// identical to calling `count` per query: every kernel is an exact
    /// match count, so routing differences cannot change a result.
    pub fn count_many(&self, queries: &[RcDvq]) -> Vec<usize> {
        let mut counts = vec![0usize; queries.len()];
        if self.is_empty() || queries.is_empty() {
            return counts;
        }
        let mut rect_queries: Vec<usize> = Vec::new();
        let mut rects: Vec<Rect> = Vec::new();
        let mut kw_groups: HashMap<&[KeywordId], Vec<usize>> = HashMap::new();
        for (i, q) in queries.iter().enumerate() {
            match q.range() {
                Some(r) if q.keywords().is_empty() => {
                    rect_queries.push(i);
                    rects.push(*r);
                }
                _ => kw_groups.entry(q.keywords()).or_default().push(i),
            }
        }
        if !rects.is_empty() {
            for (&i, c) in rect_queries.iter().zip(self.count_in_rects(&rects)) {
                counts[i] = c;
            }
        }
        for (kws, members) in kw_groups {
            // One union merge serves every query with this keyword set;
            // per visited slot each member only tests its rect.
            self.for_each_union_slot(kws, |s| {
                for &i in &members {
                    match queries[i].range() {
                        Some(r) => counts[i] += self.slot_in_rect(s, r) as usize,
                        None => counts[i] += 1,
                    }
                }
            });
        }
        counts
    }

    /// Gather variant of the spatial kernel for externally indexed slot
    /// lists (e.g. RSH's grid cells).
    pub fn count_slots_in_rect(&self, slots: &[u32], r: &Rect) -> usize {
        let mut c = 0usize;
        for &s in slots {
            c += self.slot_in_rect(s, r) as usize;
        }
        c
    }

    /// Live posting mass of the keyword union — the cost model input for
    /// the hybrid cutover.
    pub fn posting_mass(&self, kws: &[KeywordId]) -> usize {
        kws.iter()
            .filter_map(|k| self.postings.map.get(k))
            .map(|l| l.entries.len() - l.dead as usize)
            .sum()
    }

    /// Visits each live slot whose object carries ≥1 of `kws`, exactly
    /// once, via a k-way merge over the sorted posting lists.
    fn for_each_union_slot(&self, kws: &[KeywordId], mut visit: impl FnMut(u32)) {
        let live_len = self.xs.len();
        let live = |e: u64| {
            let s = entry_slot(e) as usize;
            s < live_len && self.slot_gen[s] == entry_gen(e)
        };
        let found = kws
            .iter()
            .filter_map(|k| self.postings.map.get(k))
            .map(|l| l.entries.as_slice());
        let mut inline: [&[u64]; INLINE_MERGE_WAYS] = [&[]; INLINE_MERGE_WAYS];
        let mut spilled: Vec<&[u64]> = Vec::new();
        let lists: &mut [&[u64]] = if kws.len() <= INLINE_MERGE_WAYS {
            let mut n = 0;
            for list in found {
                inline[n] = list;
                n += 1;
            }
            &mut inline[..n]
        } else {
            spilled.extend(found);
            &mut spilled
        };
        if let [only] = lists {
            for &e in only.iter() {
                if live(e) {
                    visit(entry_slot(e));
                }
            }
            return;
        }
        // A list's cursor is its slice itself, shrunk from the front.
        loop {
            let mut min_slot = u32::MAX;
            for list in lists.iter_mut() {
                while let Some(&e) = list.first() {
                    if live(e) {
                        min_slot = min_slot.min(entry_slot(e));
                        break;
                    }
                    *list = &list[1..]; // dead: skip permanently
                }
            }
            if min_slot == u32::MAX {
                break;
            }
            visit(min_slot);
            for list in lists.iter_mut() {
                while list.first().is_some_and(|&e| entry_slot(e) <= min_slot) {
                    *list = &list[1..];
                }
            }
        }
    }

    /// Fused count of slots matching `query`, routed through the cheapest
    /// kernel: chunked scan (spatial-only), posting lengths / k-way union
    /// (keyword-only), or a posting-first vs scan-first hybrid chosen by
    /// the `mass < len/4` cutover.
    pub fn count(&self, query: &RcDvq) -> usize {
        let n = self.len();
        if n == 0 {
            return 0;
        }
        let kws = query.keywords();
        match query.range() {
            Some(r) if kws.is_empty() => self.count_in_rect(r),
            Some(r) => {
                if self.posting_mass(kws) * POSTING_CUTOVER_DIV < n {
                    let mut c = 0usize;
                    self.for_each_union_slot(kws, |s| c += self.slot_in_rect(s, r) as usize);
                    return c;
                }
                let mut c = 0usize;
                // LINT-ALLOW(as-truncation): n is the live sample length, bounded by the reservoir capacity
                for s in 0..n as u32 {
                    if self.slot_in_rect(s, r) && keywords_intersect(self.keywords(s), kws) {
                        c += 1;
                    }
                }
                c
            }
            None => {
                if kws.len() == 1 {
                    return self.posting_mass(kws);
                }
                let mut c = 0usize;
                self.for_each_union_slot(kws, |_| c += 1);
                c
            }
        }
    }

    // ---- memory accounting --------------------------------------------

    /// Heap bytes, O(1): every term comes from a column length or a
    /// maintained counter.
    pub fn memory_bytes(&self) -> usize {
        self.bytes_with_posting_entries(self.postings.total_entries)
    }

    /// Heap bytes recomputed by walking every posting list — O(total
    /// entries); exists to verify the maintained counter in tests.
    pub fn recompute_memory_bytes(&self) -> usize {
        self.bytes_with_posting_entries(self.postings.map.values().map(|l| l.entries.len()).sum())
    }

    fn bytes_with_posting_entries(&self, posting_entries: usize) -> usize {
        use std::mem::size_of;
        self.xs.len() * size_of::<f64>() * 2
            + self.oids.len() * size_of::<ObjectId>()
            + self.kw_ranges.len() * size_of::<(u32, u32)>()
            + self.kw_pool.len() * size_of::<KeywordId>()
            + self.slot_gen.len() * size_of::<u32>()
            + self.slot_of.len() * (size_of::<ObjectId>() + size_of::<u32>())
            + posting_entries * size_of::<u64>()
            + self.postings.map.len() * (size_of::<KeywordId>() + size_of::<PostingList>())
    }
}

impl Persist for PostingList {
    fn persist(&self, w: &mut PersistWriter) {
        self.entries.persist(w);
        w.put_u32(self.dead);
    }
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let entries = Vec::<u64>::restore(r)?;
        let dead = r.take_u32("posting dead count")?;
        // Binary search (post / tombstone) depends on strict ascent.
        if entries.windows(2).any(|p| p[0] >= p[1]) {
            return Err(PersistError::Corrupt {
                context: "posting entries",
                detail: "entries not strictly ascending".to_string(),
            });
        }
        if dead as usize > entries.len() {
            return Err(PersistError::Corrupt {
                context: "posting dead count",
                detail: format!("dead {dead} exceeds {} entries", entries.len()),
            });
        }
        Ok(PostingList { entries, dead })
    }
}

impl Persist for PostingIndex {
    fn persist(&self, w: &mut PersistWriter) {
        // Deterministic encoding: lists in sorted keyword order. Entry
        // order *within* a list is already canonical (sorted packed keys).
        let mut kws: Vec<KeywordId> = self.map.keys().copied().collect();
        kws.sort_unstable();
        w.put_usize(kws.len());
        for kw in kws {
            kw.persist(w);
            self.map[&kw].persist(w);
        }
        w.put_usize(self.total_entries);
        w.put_u64(self.compactions);
    }
    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let len = r.take_len("posting map length")?;
        let mut map = IdMap::with_capacity_and_hasher(len.min(1 << 16), Default::default());
        for _ in 0..len {
            let kw = KeywordId::restore(r)?;
            let list = PostingList::restore(r)?;
            if map.insert(kw, list).is_some() {
                return Err(PersistError::Corrupt {
                    context: "posting map",
                    detail: format!("duplicate keyword {kw:?}"),
                });
            }
        }
        let total_entries = r.take_usize("posting total entries")?;
        let compactions = r.take_u64("posting compactions")?;
        let walked: usize = map.values().map(|l: &PostingList| l.entries.len()).sum();
        if total_entries != walked {
            return Err(PersistError::Corrupt {
                context: "posting total entries",
                detail: format!("counter {total_entries} != walked {walked}"),
            });
        }
        Ok(PostingIndex {
            map,
            total_entries,
            compactions,
        })
    }
}

/// Section tag for [`SampleStore`] snapshots.
const STORE_TAG: u32 = 0x5a3e_5701;

impl Persist for SampleStore {
    /// Columns are written verbatim — slot order is algorithm-R state, so
    /// a restore must reproduce it exactly, including `slot_gen` at its
    /// full high-water length (it may exceed the live length after
    /// shrinks; stale postings are guarded by those retained generations).
    /// `slot_of` is derived state and is rebuilt on restore.
    fn persist(&self, w: &mut PersistWriter) {
        w.section(STORE_TAG, |w| {
            self.xs.persist(w);
            self.ys.persist(w);
            self.oids.persist(w);
            self.kw_ranges.persist(w);
            self.kw_pool.persist(w);
            w.put_usize(self.kw_garbage);
            self.slot_gen.persist(w);
            // The byte `Option::persist` wrote when the index was optional;
            // every store ever saved had one.
            w.put_u8(1);
            self.postings.persist(w);
        });
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        const CTX: &str = "sample store";
        let sec = r.begin_section(STORE_TAG, CTX)?;
        let xs = Vec::<f64>::restore(r)?;
        let ys = Vec::<f64>::restore(r)?;
        let oids = Vec::<ObjectId>::restore(r)?;
        let kw_ranges = Vec::<(u32, u32)>::restore(r)?;
        let kw_pool = Vec::<KeywordId>::restore(r)?;
        let kw_garbage = r.take_usize("kw garbage")?;
        let slot_gen = Vec::<u32>::restore(r)?;
        let postings =
            Option::<PostingIndex>::restore(r)?.ok_or_else(|| PersistError::Corrupt {
                context: CTX,
                detail: "posting index absent".to_string(),
            })?;
        r.finish_section(sec, CTX)?;

        let n = xs.len();
        if ys.len() != n || oids.len() != n || kw_ranges.len() != n || slot_gen.len() < n {
            return Err(PersistError::Corrupt {
                context: CTX,
                detail: format!(
                    "column lengths disagree: xs {n} ys {} oids {} kw_ranges {} slot_gen {}",
                    ys.len(),
                    oids.len(),
                    kw_ranges.len(),
                    slot_gen.len()
                ),
            });
        }
        for &(off, len) in &kw_ranges {
            if (off as usize) + (len as usize) > kw_pool.len() {
                return Err(PersistError::Corrupt {
                    context: CTX,
                    detail: format!(
                        "keyword range ({off}, {len}) exceeds pool {}",
                        kw_pool.len()
                    ),
                });
            }
        }
        let mut slot_of = IdMap::with_capacity_and_hasher(n, Default::default());
        for (s, &oid) in oids.iter().enumerate() {
            let slot = u32::try_from(s).map_err(|_| PersistError::Corrupt {
                context: CTX,
                detail: format!("slot index {s} exceeds the u32 arena"),
            })?;
            if slot_of.insert(oid, slot).is_some() {
                return Err(PersistError::Corrupt {
                    context: CTX,
                    detail: format!("duplicate object id {oid:?}"),
                });
            }
        }
        Ok(SampleStore {
            xs,
            ys,
            oids,
            kw_ranges,
            kw_pool,
            kw_garbage,
            slot_of,
            slot_gen,
            postings,
        })
    }
}

#[cfg(feature = "debug-invariants")]
impl SampleStore {
    /// Full O(n + postings) invariant walk (the `debug-invariants`
    /// auditor):
    ///
    /// * **columns** — all parallel arrays have the same length, and
    ///   `slot_gen` covers every slot.
    /// * **identity** — `slot_of` is the exact inverse of `oids` (which
    ///   also proves the ids are distinct).
    /// * **kw-ranges** — every per-slot range lies inside `kw_pool`.
    /// * **kw-garbage** — the garbage counter equals the pool bytes not
    ///   referenced by any live range.
    /// * **finite-coords** — every stored coordinate is finite (the match
    ///   kernels' comparisons assume it).
    /// * **posting-sorted** — every posting list is strictly ascending in
    ///   the packed `(slot, gen)` key (binary search depends on it).
    /// * **dead-counter** — each list's maintained `dead` count equals the
    ///   number of entries whose generation no longer matches.
    /// * **posting-coverage** — every live slot's keywords are posted
    ///   under the slot's current generation.
    /// * **total-entries** — the O(1) entry counter matches the lists.
    /// * **memory** — [`Self::memory_bytes`] agrees with the O(n)
    ///   recomputation.
    pub fn audit(&self) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        const S: &str = "SampleStore";
        let n = self.xs.len();
        ensure(
            self.ys.len() == n && self.oids.len() == n && self.kw_ranges.len() == n,
            S,
            "columns",
            || {
                format!(
                    "xs {} ys {} oids {} kw_ranges {}",
                    n,
                    self.ys.len(),
                    self.oids.len(),
                    self.kw_ranges.len()
                )
            },
        )?;
        ensure(self.slot_gen.len() >= n, S, "columns", || {
            format!("slot_gen {} < len {n}", self.slot_gen.len())
        })?;
        ensure(self.slot_of.len() == n, S, "identity", || {
            format!("slot_of holds {} ids for {n} slots", self.slot_of.len())
        })?;
        let mut ranged = 0usize;
        for s in 0..n {
            // LINT-ALLOW(as-truncation): slot indices fit u32 by construction (push caps the store)
            let slot = s as u32;
            ensure(
                self.slot_of.get(&self.oids[s]) == Some(&slot),
                S,
                "identity",
                || format!("slot {s} holds {:?} but slot_of disagrees", self.oids[s]),
            )?;
            let (off, len) = self.kw_ranges[s];
            ensure(
                (off as usize) + (len as usize) <= self.kw_pool.len(),
                S,
                "kw-ranges",
                || {
                    format!(
                        "slot {s} range ({off}, {len}) exceeds pool {}",
                        self.kw_pool.len()
                    )
                },
            )?;
            ranged += len as usize;
            ensure(
                self.xs[s].is_finite() && self.ys[s].is_finite(),
                S,
                "finite-coords",
                || format!("slot {s} at ({}, {})", self.xs[s], self.ys[s]),
            )?;
        }
        ensure(
            self.kw_pool.len() == ranged + self.kw_garbage,
            S,
            "kw-garbage",
            || {
                format!(
                    "pool {} != ranged {ranged} + garbage {}",
                    self.kw_pool.len(),
                    self.kw_garbage
                )
            },
        )?;
        let p = &self.postings;
        let mut entries_seen = 0usize;
        for (kw, list) in &p.map {
            entries_seen += list.entries.len();
            let mut actual_dead = 0u32;
            for (i, &e) in list.entries.iter().enumerate() {
                if i > 0 {
                    ensure(list.entries[i - 1] < e, S, "posting-sorted", || {
                        format!("{kw:?} entries out of order at {i}")
                    })?;
                }
                let s = entry_slot(e) as usize;
                if s >= n || self.slot_gen[s] != entry_gen(e) {
                    actual_dead += 1;
                }
            }
            ensure(list.dead == actual_dead, S, "dead-counter", || {
                format!(
                    "{kw:?} maintains dead {} but {actual_dead} entries are dead",
                    list.dead
                )
            })?;
        }
        ensure(p.total_entries == entries_seen, S, "total-entries", || {
            format!("counter {} != walked {entries_seen}", p.total_entries)
        })?;
        for s in 0..n {
            let gen = self.slot_gen[s];
            // LINT-ALLOW(as-truncation): slot indices fit u32 by construction (push caps the store)
            let slot = s as u32;
            for &kw in self.keywords(slot) {
                let posted = p
                    .map
                    .get(&kw)
                    .is_some_and(|l| l.entries.binary_search(&pack(slot, gen)).is_ok());
                ensure(posted, S, "posting-coverage", || {
                    format!("slot {s} gen {gen} not posted under {kw:?}")
                })?;
            }
        }
        ensure(
            self.memory_bytes() == self.recompute_memory_bytes(),
            S,
            "memory",
            || {
                format!(
                    "maintained {} != recomputed {}",
                    self.memory_bytes(),
                    self.recompute_memory_bytes()
                )
            },
        )?;
        Ok(())
    }

    /// Test hook: desynchronizes the dead counter of one posting list (the
    /// seeded corruption the audit regression test plants), returning
    /// whether a non-empty list existed to corrupt.
    #[doc(hidden)]
    pub fn debug_desync_dead_counter(&mut self) -> bool {
        let lists = &mut self.postings.map;
        if let Some(list) = lists.values_mut().find(|l| !l.entries.is_empty()) {
            list.dead += 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::{Point, Timestamp};

    fn obj(id: u64, x: f64, y: f64, kws: &[u32]) -> GeoTextObject {
        GeoTextObject::new(
            ObjectId(id),
            Point::new(x, y),
            kws.iter().copied().map(KeywordId).collect(),
            Timestamp::ZERO,
        )
    }

    /// Reference count: per-slot full match, no kernels.
    fn naive_count(s: &SampleStore, q: &RcDvq) -> usize {
        (0..s.len() as u32)
            .filter(|&i| s.slot_matches(i, q))
            .count()
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        *state >> 11
    }

    #[test]
    fn push_replace_remove_roundtrip() {
        let mut s = SampleStore::new();
        assert_eq!(s.push(&obj(1, 1.0, 2.0, &[5])), 0);
        assert_eq!(s.push(&obj(2, 3.0, 4.0, &[5, 7])), 1);
        assert_eq!(s.push(&obj(3, 5.0, 6.0, &[])), 2);
        assert_eq!(s.len(), 3);
        assert_eq!(s.slot_of(ObjectId(2)), Some(1));
        assert_eq!(s.keywords(1), &[KeywordId(5), KeywordId(7)]);

        s.replace(1, &obj(4, 7.0, 8.0, &[9]));
        assert_eq!(s.slot_of(ObjectId(2)), None);
        assert_eq!(s.slot_of(ObjectId(4)), Some(1));
        assert_eq!(s.keywords(1), &[KeywordId(9)]);

        // Swap-remove: slot 0 removed, former last (slot 2) moves into it.
        assert_eq!(s.remove(ObjectId(1)), Some(0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.slot_of(ObjectId(3)), Some(0));
        assert_eq!(s.oids()[0], ObjectId(3));
        assert_eq!(s.remove(ObjectId(99)), None);
    }

    #[test]
    fn kernels_agree_with_naive_matching_under_churn() {
        let mut s = SampleStore::new();
        let mut rng = 0xfeedu64;
        let mut live: Vec<GeoTextObject> = Vec::new();
        let queries = [
            RcDvq::spatial(Rect::new(10.0, 10.0, 60.0, 55.0)),
            RcDvq::keyword(vec![KeywordId(3)]),
            RcDvq::keyword(vec![KeywordId(1), KeywordId(4), KeywordId(6)]),
            RcDvq::hybrid(Rect::new(0.0, 0.0, 45.0, 90.0), vec![KeywordId(2)]),
            RcDvq::hybrid(
                Rect::new(20.0, 5.0, 80.0, 70.0),
                vec![KeywordId(0), KeywordId(5)],
            ),
        ];
        for i in 0..4_000u64 {
            let x = (lcg(&mut rng) % 1_000) as f64 / 10.0;
            let y = (lcg(&mut rng) % 1_000) as f64 / 10.0;
            let nk = (lcg(&mut rng) % 4) as usize;
            let kws: Vec<u32> = (0..nk).map(|_| (lcg(&mut rng) % 8) as u32).collect();
            let o = obj(i, x, y, &kws);
            // Mix of appends, replacements, and removals to recycle slots.
            match lcg(&mut rng) % 4 {
                0 if !live.is_empty() => {
                    let victim = live.swap_remove((lcg(&mut rng) as usize) % live.len());
                    assert!(s.remove(victim.oid).is_some());
                }
                1 if !live.is_empty() => {
                    let slot = (lcg(&mut rng) as usize % live.len()) as u32;
                    let old = s.oids()[slot as usize];
                    live.retain(|o| o.oid != old);
                    s.replace(slot, &o);
                    live.push(o);
                }
                _ => {
                    s.push(&o);
                    live.push(o);
                }
            }
            if i % 257 == 0 {
                for q in &queries {
                    assert_eq!(s.count(q), naive_count(&s, q), "kernel diverged at {i}");
                }
            }
        }
        assert_eq!(s.len(), live.len());
        for q in &queries {
            // Cross-check against brute force over the live set.
            let brute = live.iter().filter(|o| q.matches(o)).count();
            assert_eq!(s.count(q), brute);
        }
        assert!(s.compactions() > 0, "churn never compacted a posting list");
    }

    #[test]
    fn count_many_agrees_with_per_query_count() {
        let mut s = SampleStore::new();
        let mut rng = 0x5eedu64;
        for i in 0..2_500u64 {
            let x = (lcg(&mut rng) % 1_000) as f64 / 10.0;
            let y = (lcg(&mut rng) % 1_000) as f64 / 10.0;
            let nk = (lcg(&mut rng) % 4) as usize;
            let kws: Vec<u32> = (0..nk).map(|_| (lcg(&mut rng) % 8) as u32).collect();
            s.push(&obj(i, x, y, &kws));
            if i % 3 == 0 && s.len() > 100 {
                let victim = s.oids()[(lcg(&mut rng) as usize) % s.len()];
                s.remove(victim);
            }
        }
        // A batch mixing all three types, duplicate signatures, and
        // shared keyword sets (the shared-merge path).
        let batch = vec![
            RcDvq::spatial(Rect::new(10.0, 10.0, 60.0, 55.0)),
            RcDvq::spatial(Rect::new(0.0, 0.0, 100.0, 100.0)),
            RcDvq::spatial(Rect::new(10.0, 10.0, 60.0, 55.0)),
            RcDvq::keyword(vec![KeywordId(3)]),
            RcDvq::keyword(vec![KeywordId(1), KeywordId(4)]),
            RcDvq::hybrid(
                Rect::new(0.0, 0.0, 45.0, 90.0),
                vec![KeywordId(1), KeywordId(4)],
            ),
            RcDvq::hybrid(
                Rect::new(20.0, 5.0, 80.0, 70.0),
                vec![KeywordId(1), KeywordId(4)],
            ),
            RcDvq::hybrid(Rect::new(20.0, 5.0, 80.0, 70.0), vec![KeywordId(6)]),
            RcDvq::keyword(vec![KeywordId(31)]), // absent keyword
        ];
        let many = s.count_many(&batch);
        let singles: Vec<usize> = batch.iter().map(|q| s.count(q)).collect();
        assert_eq!(many, singles);
        // Empty store: all zeros.
        let s = SampleStore::new();
        assert_eq!(s.count_many(&[RcDvq::keyword(vec![KeywordId(0)])]), vec![0]);
    }

    #[test]
    fn memory_counter_matches_recompute_after_churn() {
        let mut s = SampleStore::new();
        let mut rng = 0xabcdu64;
        let mut ids: Vec<u64> = Vec::new();
        for i in 0..3_000u64 {
            let kws: Vec<u32> = (0..(lcg(&mut rng) % 5) as u32).collect();
            s.push(&obj(i, (i % 97) as f64, (i % 89) as f64, &kws));
            ids.push(i);
            if ids.len() > 500 {
                let victim = ids.remove(0);
                s.remove(ObjectId(victim));
            }
        }
        assert_eq!(s.memory_bytes(), s.recompute_memory_bytes());
        assert!(s.memory_bytes() > 0);
    }

    #[test]
    fn keyword_pool_compacts_under_replacement() {
        let mut s = SampleStore::new();
        for i in 0..8u64 {
            s.push(&obj(i, 0.0, 0.0, &[1, 2, 3, 4]));
        }
        // Replace slot 0 many times: garbage accrues, pool must not grow
        // without bound.
        for i in 100..400u64 {
            s.replace(0, &obj(i, 0.0, 0.0, &[5, 6, 7, 8]));
        }
        assert!(
            s.kw_pool.len() <= 8 * 4 * 4,
            "pool never compacted: {}",
            s.kw_pool.len()
        );
        assert_eq!(s.keywords(0).len(), 4);
    }

    #[test]
    fn recycled_slots_never_alias_postings() {
        let mut s = SampleStore::new();
        // Object with keyword 1 at slot 0, then swap-remove and refill the
        // slot with a keyword-2 object; the keyword-1 posting must be dead.
        s.push(&obj(1, 0.0, 0.0, &[1]));
        s.remove(ObjectId(1));
        s.push(&obj(2, 0.0, 0.0, &[2]));
        assert_eq!(s.count(&RcDvq::keyword(vec![KeywordId(1)])), 0);
        assert_eq!(s.count(&RcDvq::keyword(vec![KeywordId(2)])), 1);
        // Same through the union-merge path.
        assert_eq!(
            s.count(&RcDvq::keyword(vec![KeywordId(1), KeywordId(2)])),
            1
        );
    }

    #[test]
    fn hybrid_cutover_both_paths_agree() {
        let mut s = SampleStore::new();
        // Keyword 7 is rare (posting-first), keyword 0 is universal
        // (scan-first under the mass < len/4 cutover).
        for i in 0..1_000u64 {
            let kws: &[u32] = if i % 50 == 0 { &[0, 7] } else { &[0] };
            s.push(&obj(i, (i % 100) as f64, (i / 100) as f64, kws));
        }
        let rect = Rect::new(0.0, 0.0, 49.0, 9.0);
        for kws in [vec![KeywordId(7)], vec![KeywordId(0)]] {
            let q = RcDvq::hybrid(rect, kws);
            assert_eq!(s.count(&q), naive_count(&s, &q));
        }
    }

    /// The auditor passes on a heavily churned store and flags a seeded
    /// one-off corruption — a desynced posting dead counter, the exact
    /// drift the lazy-tombstone accounting could silently accumulate.
    #[cfg(feature = "debug-invariants")]
    #[test]
    fn audit_survives_churn_and_catches_seeded_corruption() {
        let mut s = SampleStore::new();
        let mut rng = 0xabcdu64;
        let mut live: Vec<ObjectId> = Vec::new();
        for i in 0..2_000u64 {
            let r = lcg(&mut rng);
            if live.len() > 64 && r.is_multiple_of(3) {
                let victim = live.swap_remove((r % live.len() as u64) as usize);
                s.remove(victim);
            } else {
                let kws: Vec<u32> = (0..(r % 4)).map(|k| ((r >> 7) + k) as u32 % 16).collect();
                s.push(&obj(i, (r % 100) as f64, (r % 97) as f64, &kws));
                live.push(ObjectId(i));
            }
            if i % 250 == 0 {
                s.audit().unwrap_or_else(|e| panic!("churn step {i}: {e}"));
            }
        }
        s.audit().expect("post-churn audit");
        assert!(s.debug_desync_dead_counter(), "churn left no postings");
        let err = s.audit().expect_err("desynced counter must be caught");
        assert_eq!(err.structure, "SampleStore");
        assert_eq!(err.invariant, "dead-counter");
    }

    /// Builds a churned store (swap-removes, replacements, compactions) so
    /// the round-trip test covers recycled slots and tombstoned postings.
    fn churned_store() -> SampleStore {
        let mut s = SampleStore::new();
        let mut rng = 0x7e57u64;
        let mut live: Vec<ObjectId> = Vec::new();
        for i in 0..2_000u64 {
            let r = lcg(&mut rng);
            if live.len() > 64 && r.is_multiple_of(3) {
                let victim = live.swap_remove((r % live.len() as u64) as usize);
                s.remove(victim);
            } else if !live.is_empty() && r.is_multiple_of(7) {
                let slot = (r as usize) % s.len();
                let old = s.oids()[slot];
                live.retain(|&o| o != old);
                let kws: Vec<u32> = (0..(r % 4))
                    .map(|k| (r >> 9).wrapping_add(k) as u32 % 16)
                    .collect();
                s.replace(
                    slot as u32,
                    &obj(i, (r % 100) as f64, (r % 97) as f64, &kws),
                );
                live.push(ObjectId(i));
            } else {
                let kws: Vec<u32> = (0..(r % 4)).map(|k| ((r >> 7) + k) as u32 % 16).collect();
                s.push(&obj(i, (r % 100) as f64, (r % 97) as f64, &kws));
                live.push(ObjectId(i));
            }
        }
        s
    }

    #[test]
    fn persist_round_trip_preserves_every_kernel() {
        let s = churned_store();
        let mut w = geostream::PersistWriter::new();
        s.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = geostream::PersistReader::new(&bytes);
        let back = SampleStore::restore(&mut r).expect("round trip");
        assert!(r.is_exhausted());

        assert_eq!(back.len(), s.len());
        assert_eq!(back.xs(), s.xs());
        assert_eq!(back.ys(), s.ys());
        assert_eq!(back.oids(), s.oids());
        assert_eq!(back.compactions(), s.compactions());
        assert_eq!(back.memory_bytes(), s.memory_bytes());
        for slot in 0..s.len() as u32 {
            assert_eq!(back.keywords(slot), s.keywords(slot));
            assert_eq!(back.slot_of(s.oids()[slot as usize]), Some(slot));
        }
        let queries = [
            RcDvq::spatial(Rect::new(10.0, 10.0, 60.0, 55.0)),
            RcDvq::keyword(vec![KeywordId(3)]),
            RcDvq::hybrid(Rect::new(0.0, 0.0, 45.0, 90.0), vec![KeywordId(2)]),
        ];
        for q in &queries {
            assert_eq!(back.count(q), s.count(q));
        }
        #[cfg(feature = "debug-invariants")]
        back.audit().expect("restored store audit");
    }

    /// Restored state must keep behaving identically under *further*
    /// churn — slot order, generations, and postings are all live state.
    #[test]
    fn persist_round_trip_survives_further_churn() {
        let mut original = churned_store();
        let mut w = geostream::PersistWriter::new();
        original.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = geostream::PersistReader::new(&bytes);
        let mut restored = SampleStore::restore(&mut r).expect("round trip");
        let mut rng = 0x1234u64;
        for i in 10_000..11_000u64 {
            let roll = lcg(&mut rng);
            if original.len() > 32 && roll.is_multiple_of(3) {
                let victim = original.oids()[(roll as usize) % original.len()];
                assert_eq!(original.remove(victim), restored.remove(victim));
            } else {
                let kws: Vec<u32> = (0..(roll % 4))
                    .map(|k| (roll >> 5).wrapping_add(k) as u32 % 16)
                    .collect();
                let o = obj(i, (roll % 100) as f64, (roll % 97) as f64, &kws);
                assert_eq!(original.push(&o), restored.push(&o));
            }
        }
        assert_eq!(original.oids(), restored.oids());
        let q = RcDvq::hybrid(Rect::new(0.0, 0.0, 50.0, 50.0), vec![KeywordId(1)]);
        assert_eq!(original.count(&q), restored.count(&q));
    }

    #[test]
    fn persist_rejects_corrupt_stores() {
        let s = churned_store();
        let mut w = geostream::PersistWriter::new();
        s.persist(&mut w);
        let bytes = w.into_bytes();
        // Every truncation prefix fails typed, never panics.
        for cut in (0..bytes.len()).step_by(97) {
            let mut r = geostream::PersistReader::new(&bytes[..cut]);
            assert!(SampleStore::restore(&mut r).is_err(), "cut {cut} decoded");
        }
        // Duplicate oid: two pushes of the same id through the encoder.
        let mut dup = SampleStore::new();
        dup.push(&obj(1, 0.0, 0.0, &[]));
        dup.push(&obj(2, 1.0, 1.0, &[]));
        let mut w = geostream::PersistWriter::new();
        dup.persist(&mut w);
        let mut bytes = w.into_bytes();
        // A frame without a posting index — what a posting-less store used
        // to write — is refused by name. With no keywords stored the index
        // is the frame's last 25 bytes: presence byte, empty map, two
        // counters; the reader skips what follows a cleared presence byte.
        let mut absent = bytes.clone();
        let presence = absent.len() - 25;
        assert_eq!(absent[presence], 1, "presence byte moved");
        absent[presence] = 0;
        let mut r = geostream::PersistReader::new(&absent);
        assert!(matches!(
            SampleStore::restore(&mut r),
            Err(geostream::PersistError::Corrupt {
                context: "sample store",
                ..
            })
        ));
        // Patch the second oid to collide with the first: oid 1 is the
        // only u64 value 1 in this encoding, and oid 2 sits right after
        // it in the oids column.
        let one = 1u64.to_le_bytes();
        let at = bytes
            .windows(8)
            .position(|wnd| wnd == one)
            .expect("oid 1 present");
        bytes[at + 8..at + 16].copy_from_slice(&one);
        let mut r = geostream::PersistReader::new(&bytes);
        match SampleStore::restore(&mut r) {
            Err(geostream::PersistError::Corrupt { .. }) => {}
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("expected Corrupt, got a decoded store"),
        }
    }
}
