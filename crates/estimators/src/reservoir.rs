//! Reservoir sampling (the paper's `RSL` and `RSH`), Vitter's
//! *algorithm R*.
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
//!
//! RSL and RSH are one [`Reservoir`] with two access paths: RSH is the
//! same sample with a grid linked over it ([`crate::reservoir_hash`]). SPN
//! trains on a scan-read `Reservoir` of its own ([`crate::spn`]), so the
//! crate keeps one sampler: one insert path, one persist layout for its
//! counters, and one fresh bulk build, [`DrawTapes::build`], which reads
//! the sampler's random draws off a recorded tape (`Reservoir::build_taped`).

use crate::reservoir_hash::Grid;
use crate::spn::SpnEstimator;
use crate::store::SampleStore;
use crate::traits::{
    build_estimator, BoxedEstimator, EstimatorConfig, EstimatorKind, SelectivityEstimator,
};
use geostream::{
    CellGrid, GeoTextObject, Persist, PersistError, PersistReader, PersistWriter, RcDvq, Rect,
    StreamRng,
};

/// Algorithm R's outcome over a run of arrivals, decided before any object
/// is read: the first pass of a fresh build ([`Reservoir::build_taped_with`]).
///
/// `winner[slot]` is the last arrival algorithm R wrote to `slot` (`None`:
/// the slot keeps the object it held), and `winner.len()` is the sample
/// length after the run. An arrival that a later one overwrites is never
/// placed, so the second pass ([`Winners::drain`]) writes each slot at
/// most once.
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

/// Arrivals between two RNG checkpoints of a [`DrawTape`]: a build read
/// off the tape replays fewer than this many arrivals' draws.
const CHECKPOINT_EVERY: u64 = 1_024;

#[cfg(test)]
thread_local! {
    /// Random numbers drawn through a [`DrawPlan`] on this thread, recording
    /// a tape or replaying one (tests run one per thread).
    pub(crate) static DRAWS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// What a fresh sampler draws at each arrival from the RNG it starts with:
/// algorithm R's slot once past `capacity` and, for SPN, the k-means seed
/// slots of each rebuild (`rebuild = (rebuild_every, clusters)`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct DrawPlan {
    pub(crate) capacity: usize,
    pub(crate) rebuild: Option<(u64, usize)>,
}

impl DrawPlan {
    /// The draws a fresh sample makes at its `k`-th arrival (1-based), in
    /// the order `insert` makes them: the slot taken, if the draw lands in
    /// the sample, then the seeds of a rebuild that `k` opens.
    fn draw(self, rng: &mut StreamRng, k: u64) -> (Option<u64>, Option<Vec<usize>>) {
        let cap = self.capacity as u64;
        let slot = (k > cap).then(|| rng.gen_range_u64(0..k));
        let seeds = self
            .rebuild
            .filter(|&(every, _)| k.is_multiple_of(every))
            .map(|(_, clusters)| {
                let n = self.capacity.min(k as usize);
                (0..clusters.min(n))
                    .map(|_| rng.gen_range_usize(0..n))
                    .collect::<Vec<_>>()
            });
        #[cfg(test)]
        DRAWS.with(|d| {
            d.set(d.get() + u64::from(k > cap) + seeds.as_ref().map_or(0, |s| s.len() as u64));
        });
        (slot.filter(|&j| j < cap), seeds)
    }
}

/// A fresh sampler's draws over its first `len` arrivals, recorded once so
/// that later fresh builds under the same RNG and [`DrawPlan`] read them
/// instead of drawing again.
///
/// A fresh sampler's decisions never read an object: which arrival wins
/// each slot, SPN's rebuild seeds, and the RNG state after `n` arrivals
/// depend on the starting RNG, the plan and `n` alone.
pub(crate) struct DrawTape {
    plan: DrawPlan,
    /// `(k, j)`: arrival `k` (1-based) drew slot `j < capacity`, `k`
    /// ascending. Arrivals up to the capacity fill slot `k − 1` without a
    /// draw and have no entry.
    hits: Vec<(u32, u32)>,
    /// The seed slots drawn at each rebuild boundary, in order (SPN).
    seeds: Vec<Vec<usize>>,
    /// The RNG after arrival `i · CHECKPOINT_EVERY`, for each such arrival
    /// up to `len`; the first is the starting RNG.
    checkpoints: Vec<StreamRng>,
    /// The RNG after arrival `len`.
    rng: StreamRng,
    len: u64,
}

impl DrawTape {
    /// Records arrivals up to `n`; `false`, recording nothing, past the
    /// `u32::MAX` arrivals a tape holds.
    fn grow_to(&mut self, n: u64) -> bool {
        if n > u64::from(u32::MAX) {
            return false;
        }
        while self.len < n {
            self.len += 1;
            let (slot, seeds) = self.plan.draw(&mut self.rng, self.len);
            // Both fit: `j < k = len ≤ u32::MAX`.
            if let Some(j) = slot {
                self.hits.push((self.len as u32, j as u32));
            }
            self.seeds.extend(seeds);
            if self.len.is_multiple_of(CHECKPOINT_EVERY) {
                self.checkpoints.push(self.rng.clone());
            }
        }
        true
    }

    /// The RNG after arrival `n ≤ len`: the checkpoint at or below `n`, then
    /// the draws of the arrivals past it.
    fn rng_at(&self, n: u64) -> StreamRng {
        if n == self.len {
            return self.rng.clone();
        }
        let mut rng = self.checkpoints[(n / CHECKPOINT_EVERY) as usize].clone();
        for k in n / CHECKPOINT_EVERY * CHECKPOINT_EVERY + 1..=n {
            self.plan.draw(&mut rng, k);
        }
        rng
    }

    /// Bytes the recorded draws take: hits, seed slots and checkpoints.
    #[cfg(test)]
    fn memory_bytes(&self) -> usize {
        self.hits.len() * std::mem::size_of::<(u32, u32)>()
            + self.seeds.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<usize>()
            + self.checkpoints.len() * std::mem::size_of::<StreamRng>()
    }

    /// Audits the tape against its length: hits strictly ascending in `k`,
    /// each past the capacity, within the tape and on a slot below the
    /// capacity; one checkpoint per `CHECKPOINT_EVERY` arrivals plus the
    /// start; one seed list per rebuild boundary.
    #[cfg(feature = "debug-invariants")]
    pub(crate) fn audit(&self) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        const S: &str = "DrawTape";
        let cap = self.plan.capacity as u64;
        ensure(
            self.hits.windows(2).all(|w| w[0].0 < w[1].0),
            S,
            "hits-ascending",
            || "two hits out of arrival order".into(),
        )?;
        let stray = self
            .hits
            .iter()
            .find(|&&(k, j)| u64::from(k) <= cap || u64::from(k) > self.len || u64::from(j) >= cap);
        ensure(stray.is_none(), S, "hit-bounds", || {
            format!("{stray:?} on {} arrivals, capacity {cap}", self.len)
        })?;
        ensure(
            self.checkpoints.len() as u64 == self.len / CHECKPOINT_EVERY + 1,
            S,
            "checkpoint-count",
            || {
                format!(
                    "{} checkpoints for {} arrivals",
                    self.checkpoints.len(),
                    self.len
                )
            },
        )?;
        let boundaries = self.plan.rebuild.map_or(0, |(every, _)| self.len / every);
        ensure(
            self.seeds.len() as u64 == boundaries,
            S,
            "seed-lists",
            || format!("{} seed lists for {boundaries} rebuilds", self.seeds.len()),
        )
    }
}

/// A fresh build reading its decisions off a [`DrawTape`] that covers it.
pub(crate) struct Replay<'t> {
    tape: &'t DrawTape,
    next_hit: usize,
    seen: u64,
}

impl<'t> Replay<'t> {
    /// Opens the tape in `slot` for a fresh sampler that starts from `rng`
    /// under `plan` and will see `n` arrivals — replacing a tape drawn
    /// under another RNG or plan, and growing it to `n`. `None` past what a
    /// tape holds.
    pub(crate) fn open(
        slot: &'t mut Option<DrawTape>,
        rng: &StreamRng,
        plan: DrawPlan,
        n: u64,
    ) -> Option<Self> {
        if !slot
            .as_ref()
            .is_some_and(|t| t.plan == plan && t.checkpoints[0].state() == rng.state())
        {
            *slot = None;
        }
        let tape = slot.get_or_insert_with(|| DrawTape {
            plan,
            hits: Vec::new(),
            seeds: Vec::new(),
            checkpoints: vec![rng.clone()],
            rng: rng.clone(),
            len: 0,
        });
        tape.grow_to(n).then_some(Replay {
            tape,
            next_hit: 0,
            seen: 0,
        })
    }

    /// Decides `objs`, the next arrivals, as one `insert` each would for a
    /// fresh sample: the first `capacity` fill the next free slot, and each
    /// later one that the tape records takes its slot.
    pub(crate) fn decide<'a>(&mut self, winners: &mut Winners<'a>, objs: &'a [GeoTextObject]) {
        let fill = (self.tape.plan.capacity)
            .saturating_sub(winners.winner.len())
            .min(objs.len());
        winners.winner.extend(objs[..fill].iter().map(Some));
        let first = self.seen + 1;
        self.seen += objs.len() as u64;
        let end = self.seen;
        for &(k, j) in self.tape.hits[self.next_hit..]
            .iter()
            .take_while(|&&(k, _)| u64::from(k) <= end)
        {
            winners.winner[j as usize] = Some(&objs[(u64::from(k) - first) as usize]);
            self.next_hit += 1;
        }
    }

    /// The seed slots drawn at the `i`-th rebuild boundary (0-based).
    pub(crate) fn seeds(&self, i: u64) -> &'t [usize] {
        &self.tape.seeds[i as usize]
    }

    /// Arrivals decided, and the RNG after them.
    pub(crate) fn finish(self) -> (u64, StreamRng) {
        (self.seen, self.tape.rng_at(self.seen))
    }
}

/// `est` fed `slices` by one `insert_batch` each.
fn fed(
    mut est: BoxedEstimator,
    slices: &mut dyn Iterator<Item = &[GeoTextObject]>,
) -> BoxedEstimator {
    for slice in slices {
        est.insert_batch(slice);
    }
    est
}

/// The parts of `slices` that hold arrivals `from..to` (0-based), in order.
fn arrivals<'s, 'a>(
    slices: &'s [&'a [GeoTextObject]],
    from: u64,
    to: u64,
) -> impl Iterator<Item = &'a [GeoTextObject]> + 's {
    let mut start = 0;
    slices.iter().filter_map(move |s| {
        let lo = start;
        start += s.len() as u64;
        let (a, b) = (from.clamp(lo, start) - lo, to.clamp(lo, start) - lo);
        (a < b).then(|| &s[a as usize..b as usize])
    })
}

/// A draw tape per sampler (the reservoir behind RSL and RSH, and SPN's
/// buffer): the random draws of a fresh sampler, recorded by its first
/// build so that later fresh builds read them instead of drawing. A fresh
/// sampler's draws depend on its seed, its capacity and the number of
/// arrivals, never on an object, so a tape is redrawn only when the seed
/// or capacity of its builds changes. RSL and RSH share a seed and a
/// capacity, hence one tape. Whoever builds fresh candidates owns a set;
/// nothing in it is shared or persisted.
#[derive(Default)]
pub struct DrawTapes {
    reservoir: Option<DrawTape>,
    spn: Option<DrawTape>,
}

impl DrawTapes {
    /// A fresh `kind` built from `slices` (oldest first): the one bulk
    /// build every prefill candidate comes from — the builder's job, its
    /// on-caller degradation and the engine's worker-died fallback — so all
    /// of them persist byte for byte alike.
    ///
    /// The result's *observable* state is that of one `insert` per object
    /// in order — population, arrivals seen, RNG state, each sample's slot →
    /// object map, SPN's `rebuilds` and components — so its estimates are
    /// bit-identical, now and after any further churn, to those of one
    /// maintained inline, and so are its persisted bytes. What no estimate
    /// reads may differ from such a one. RSL, RSH and SPN decide every
    /// arrival before reading any object, with algorithm R's draws (and
    /// SPN's seed draws) read off this set's tapes, then fill their sample
    /// in one pass: each posting list written once, every generation at
    /// zero, no tombstones or keyword-pool garbage, RSH's cells listing
    /// their slots in ascending order. SPN trains only the last rebuild's
    /// model, the one an estimate can read. H4096, AASP and FFN, and a
    /// sampler past the `u32::MAX` arrivals a tape holds, take one
    /// [`SelectivityEstimator::insert_batch`] per slice.
    ///
    /// A caller that may abandon the build ends `slices` early and drops
    /// the result: they are pulled one at a time. RSL, RSH and SPN pull the
    /// whole sequence before they start, so a cancel during their build (a
    /// few milliseconds) is seen at delivery.
    ///
    /// # Panics
    /// As [`build_estimator`], if `config` fails validation.
    pub fn build(
        &mut self,
        kind: EstimatorKind,
        config: &EstimatorConfig,
        slices: &mut dyn Iterator<Item = &[GeoTextObject]>,
    ) -> BoxedEstimator {
        let slot = match kind {
            EstimatorKind::Rsl | EstimatorKind::Rsh => &mut self.reservoir,
            EstimatorKind::Spn => &mut self.spn,
            _ => return fed(build_estimator(kind, config), slices),
        };
        let slices: Vec<&[GeoTextObject]> = slices.collect();
        if config.validate().is_ok() {
            if kind == EstimatorKind::Spn {
                let mut est = SpnEstimator::new(config);
                if est.build_taped(slot, &slices) {
                    return Box::new(est);
                }
            } else {
                let mut est = match kind {
                    EstimatorKind::Rsh => Reservoir::hash(config),
                    _ => Reservoir::list(config),
                };
                if est.build_taped(slot, &slices) {
                    return Box::new(est);
                }
            }
        }
        fed(build_estimator(kind, config), &mut slices.into_iter())
    }

    /// Bytes the tapes' recorded draws take.
    #[cfg(test)]
    pub(crate) fn memory_bytes(&self) -> usize {
        [&self.reservoir, &self.spn]
            .into_iter()
            .flatten()
            .map(DrawTape::memory_bytes)
            .sum()
    }

    /// Audits every tape held ([`DrawTape`]'s invariants).
    #[cfg(feature = "debug-invariants")]
    pub fn audit(&self) -> Result<(), geostream::AuditError> {
        [&self.reservoir, &self.spn]
            .into_iter()
            .flatten()
            .try_for_each(DrawTape::audit)
    }
}

/// Algorithm-R reservoir sample of the window, read by scan (RSL) or, with
/// a grid linked over it, by grid cell (RSH).
///
/// The paper's RSH is "a reservoir indexed by a 2D grid": an access path
/// over RSL's sample. Both kinds seed their sampler with
/// `config.seed ^ 0x2525`, so an RSL and an RSH fed one stream hold one
/// sample and answer bit for bit alike, and one draw tape serves the fresh
/// builds of both. SPN's training buffer is a scan-read reservoir too, on
/// its own capacity and seed (`Reservoir::sampler`).
pub struct Reservoir {
    capacity: usize,
    store: SampleStore,
    /// Arrivals seen since the reservoir was last (re)started; drives the
    /// algorithm-R replacement probability.
    seen: u64,
    /// Live window population (inserts − removes).
    population: u64,
    rng: StreamRng,
    /// RSH's grid over the sample; `None` is RSL.
    grid: Option<Grid>,
}

impl Reservoir {
    /// An empty scan-read sampler of `capacity` objects whose RNG is
    /// seeded with `seed`: RSL's, and SPN's training buffer.
    pub(crate) fn sampler(capacity: usize, seed: u64) -> Self {
        Reservoir {
            capacity,
            store: SampleStore::with_capacity(capacity.min(1 << 20)),
            seen: 0,
            population: 0,
            rng: StreamRng::seed_from_u64(seed),
            grid: None,
        }
    }

    /// An empty RSL per `config` (capacity and grid side scale with the
    /// memory budget).
    pub fn list(config: &EstimatorConfig) -> Self {
        Self::sampler(config.scaled_reservoir(), config.seed ^ 0x2525)
    }

    /// An empty RSH per `config`: [`Reservoir::list`] with an empty grid.
    pub fn hash(config: &EstimatorConfig) -> Self {
        let mut r = Self::list(config);
        r.grid = Some(Grid::new(CellGrid::new(
            config.domain,
            config.scaled_grid_side(),
        )));
        r
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

    /// Arrivals the sampler has seen.
    #[cfg(test)]
    pub(crate) fn seen(&self) -> u64 {
        self.seen
    }

    /// `k` slots of the sample (fewer if it holds fewer objects), each
    /// drawn uniformly off the sampler's RNG: SPN's k-means seeds, drawn in
    /// step with algorithm R's.
    pub(crate) fn draw_slots(&mut self, k: usize) -> Vec<usize> {
        let n = self.store.len();
        (0..k.min(n))
            .map(|_| self.rng.gen_range_usize(0..n))
            .collect()
    }

    /// Writes the sampler's counters and RNG: arrivals seen, population,
    /// RNG state.
    pub(crate) fn persist_counters(&self, w: &mut PersistWriter) {
        w.put_u64(self.seen);
        w.put_u64(self.population);
        self.rng.persist(w);
    }

    /// Reads what [`Reservoir::persist_counters`] wrote.
    pub(crate) fn restore_counters(
        &mut self,
        r: &mut PersistReader<'_>,
    ) -> Result<(), PersistError> {
        self.seen = r.take_u64("reservoir seen")?;
        self.population = r.take_u64("reservoir population")?;
        self.rng = StreamRng::restore(r)?;
        Ok(())
    }

    /// Reads the sample its store persisted, after the counters. A sample
    /// over its capacity or its arrivals seen is corrupt; one over its
    /// population is not: the engine hands a sampler it started cold
    /// evictions it never saw. An RSH links every restored slot under its
    /// cell in slot order — the order a bulk build leaves.
    pub(crate) fn restore_sample(&mut self, r: &mut PersistReader<'_>) -> Result<(), PersistError> {
        let store = SampleStore::restore(r, self.capacity)?;
        let len = store.len() as u64;
        if len > self.seen {
            return Err(PersistError::Corrupt {
                context: "reservoir sample",
                detail: format!("sample {len} over {} seen", self.seen),
            });
        }
        self.store = store;
        if let Some(grid) = &mut self.grid {
            grid.link_all(&self.store);
        }
        Ok(())
    }

    /// The grid, if this is RSH.
    #[cfg(test)]
    pub(crate) fn grid(&self) -> Option<&Grid> {
        self.grid.as_ref()
    }

    /// The grid and range that answer `query`, or `None` when the sample's
    /// own kernels do: always for RSL; for RSH, keyword-only queries and
    /// hybrids whose keywords are rare enough (the cost cutover) that their
    /// posting union is cheaper than gathering the touched cells.
    fn grid_route<'q>(&self, query: &'q RcDvq) -> Option<(&Grid, &'q Rect)> {
        let (grid, r) = (self.grid.as_ref()?, query.range()?);
        let kws = query.keywords();
        let posting_first = !kws.is_empty() && self.store.posting_mass(kws) * 4 < self.store.len();
        (!posting_first).then_some((grid, r))
    }

    /// The persisted section's tag: RSL's or RSH's, as before the two
    /// shared a sampler, so both sections keep their layout.
    fn section_tag(&self) -> u32 {
        match self.grid {
            Some(_) => 0x4512_2502,
            None => 0x4512_5101,
        }
    }

    /// `matches` sample objects scaled to the window population.
    fn scaled(&self, matches: usize) -> f64 {
        matches as f64 / self.store.len() as f64 * self.population as f64
    }

    fn place(&mut self, obj: &GeoTextObject, slot: usize) {
        match &mut self.grid {
            Some(grid) => grid.place(&mut self.store, obj, slot),
            None if slot == self.store.len() => {
                self.store.push(obj);
            }
            None => self.store.replace(slot as u32, obj),
        }
    }

    /// Drops `oid` from the sample, if it is sampled.
    fn unsample(&mut self, oid: geostream::ObjectId) {
        match &mut self.grid {
            Some(grid) => grid.remove(&mut self.store, oid),
            None => {
                self.store.remove(oid);
            }
        }
    }

    /// Places a bulk build's winners: one `SampleStore::fill` into a fresh
    /// reservoir (and one pass linking the grid), one `place` each
    /// otherwise.
    fn place_winners(&mut self, winners: &mut Winners<'_>) {
        if self.store.fill(winners.drain().map(|(_, obj)| obj)) {
            if let Some(grid) = &mut self.grid {
                grid.link_all(&self.store);
            }
        } else {
            for (slot, obj) in winners.drain() {
                self.place(obj, slot);
            }
        }
    }

    /// What one `insert` per arrival makes of this fresh RSL or RSH over
    /// `slices`, with algorithm R's decisions read off the tape in `slot`
    /// and each surviving slot written once. `false`, building nothing,
    /// past the arrivals a tape holds.
    pub(crate) fn build_taped(
        &mut self,
        slot: &mut Option<DrawTape>,
        slices: &[&[GeoTextObject]],
    ) -> bool {
        self.build_taped_with(slot, slices, None, |_, _| {})
    }

    /// [`Reservoir::build_taped`] for any sampler. Under `rebuild =
    /// Some((every, clusters))`, SPN's plan, the tape also holds each
    /// rebuild's seed slots, and `train` gets the sample as it stands at the
    /// last rebuild boundary with that boundary's seeds: the one rebuild
    /// whose model an estimate can read.
    pub(crate) fn build_taped_with(
        &mut self,
        slot: &mut Option<DrawTape>,
        slices: &[&[GeoTextObject]],
        rebuild: Option<(u64, usize)>,
        mut train: impl FnMut(&SampleStore, &[usize]),
    ) -> bool {
        let n = slices.iter().map(|s| s.len() as u64).sum();
        let plan = DrawPlan {
            capacity: self.capacity,
            rebuild,
        };
        let Some(mut replay) = Replay::open(slot, &self.rng, plan, n) else {
            return false;
        };
        let last = rebuild.map_or(0, |(every, _)| n / every * every);
        let mut winners = Winners::over(0);
        for objs in arrivals(slices, 0, last) {
            replay.decide(&mut winners, objs);
        }
        if let Some((every, _)) = rebuild.filter(|_| last > 0) {
            self.place_winners(&mut winners);
            train(&self.store, replay.seeds(last / every - 1));
            winners = Winners::over(self.store.len());
        }
        for objs in arrivals(slices, last, n) {
            replay.decide(&mut winners, objs);
        }
        self.place_winners(&mut winners);
        let (seen, rng) = replay.finish();
        (self.population, self.seen, self.rng) = (seen, seen, rng);
        true
    }
}

impl SelectivityEstimator for Reservoir {
    fn kind(&self) -> EstimatorKind {
        match self.grid {
            Some(_) => EstimatorKind::Rsh,
            None => EstimatorKind::Rsl,
        }
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
        self.unsample(obj.oid);
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
                self.place(obj, self.store.len());
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

    fn remove_batch(&mut self, objs: &[GeoTextObject]) {
        self.population = self.population.saturating_sub(objs.len() as u64);
        for obj in objs {
            self.unsample(obj.oid);
        }
    }

    fn estimate(&self, query: &RcDvq) -> f64 {
        if self.store.is_empty() {
            return 0.0;
        }
        self.scaled(match self.grid_route(query) {
            Some((grid, r)) => grid.count(&self.store, query, r),
            None => self.store.count(query),
        })
    }

    /// Batch variant preserving [`Reservoir::estimate`]'s per-query
    /// routing exactly: queries the single path answers from the sample's
    /// own kernels share one [`SampleStore::count_many`] call — one column
    /// pass, one union merge per common keyword set — while grid-routed
    /// queries take the same grid gather the single path takes. Identical
    /// routing + exact kernels ⇒ bit-equal results.
    fn estimate_batch(&self, queries: &[RcDvq]) -> Vec<f64> {
        if self.store.is_empty() {
            return vec![0.0; queries.len()];
        }
        let mut matches = vec![0usize; queries.len()];
        let mut store_routed: Vec<usize> = Vec::new();
        let mut store_queries: Vec<RcDvq> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            match self.grid_route(q) {
                Some((grid, r)) => matches[i] = grid.count(&self.store, q, r),
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
        matches.into_iter().map(|m| self.scaled(m)).collect()
    }

    fn memory_bytes(&self) -> usize {
        self.store.memory_bytes()
            + self
                .grid
                .as_ref()
                .map_or(0, |g| g.memory_bytes(self.store.len()))
            + std::mem::size_of::<Self>()
    }

    /// The sampler's counters and RNG, then the sample in slot order, in a
    /// section tagged with the kind. The capacity and grid are the
    /// configuration's.
    fn persist_state(&self, w: &mut PersistWriter) {
        w.section(self.section_tag(), |w| {
            self.persist_counters(w);
            self.store.persist(w);
        });
    }

    fn restore_state(&mut self, r: &mut PersistReader<'_>) -> Result<(), PersistError> {
        const CTX: &str = "reservoir";
        let sec = r.begin_section(self.section_tag(), CTX)?;
        self.restore_counters(r)?;
        self.restore_sample(r)?;
        r.finish_section(sec, CTX)
    }

    fn population(&self) -> u64 {
        self.population
    }

    /// Audits the backing store, the reservoir bounds — the sample never
    /// exceeds its capacity, the live window population, or the arrivals
    /// seen — and RSH's grid over the sample.
    #[cfg(feature = "debug-invariants")]
    fn audit(&self) -> Result<(), geostream::AuditError> {
        self.store.audit()?;
        geostream::audit::ensure(
            self.store.len() <= self.capacity
                && self.store.len() as u64 <= self.population
                && self.store.len() as u64 <= self.seen,
            "Reservoir",
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
        )?;
        self.grid.as_ref().map_or(Ok(()), |g| g.audit(&self.store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::{KeywordId, ObjectId, Point, Timestamp};
    use std::collections::VecDeque;

    fn config(cap: usize) -> EstimatorConfig {
        EstimatorConfig {
            reservoir_capacity: cap,
            domain: Rect::new(0.0, 0.0, 100.0, 100.0),
            ..EstimatorConfig::default()
        }
    }

    /// RSL, then RSH: the two access paths, built alike.
    const PATHS: [fn(&EstimatorConfig) -> Reservoir; 2] = [Reservoir::list, Reservoir::hash];

    fn obj(id: u64, x: f64, y: f64, kws: &[u32]) -> GeoTextObject {
        GeoTextObject::new(
            ObjectId(id),
            Point::new(x, y),
            kws.iter().copied().map(KeywordId).collect(),
            Timestamp::ZERO,
        )
    }

    /// `n` objects spread over `[0, 64)²` by an LCG from `seed`. Keyword 9
    /// is rare (RSH answers its hybrids from the postings), 0 common (RSH
    /// gathers its hybrids from the grid).
    fn scattered(seed: u64, n: u64) -> Vec<GeoTextObject> {
        let mut s = seed;
        let mut unit = || {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (s >> 11) as f64 / (1u64 << 53) as f64 * 64.0
        };
        (0..n)
            .map(|i| {
                let (x, y) = (unit(), unit());
                let kws: &[u32] = if i % 64 == 0 {
                    &[0, 9]
                } else {
                    &[0, i as u32 % 5]
                };
                obj(i, x, y, kws)
            })
            .collect()
    }

    /// Spatial, keyword and hybrid queries; the hybrids on a rare and on a
    /// common keyword.
    fn probes() -> Vec<RcDvq> {
        vec![
            RcDvq::spatial(Rect::new(0.0, 0.0, 30.0, 30.0)),
            RcDvq::spatial(Rect::new(12.5, 3.25, 60.0, 48.0)),
            RcDvq::keyword(vec![KeywordId(3)]),
            RcDvq::keyword(vec![KeywordId(9)]),
            RcDvq::hybrid(Rect::new(0.0, 0.0, 40.0, 64.0), vec![KeywordId(9)]),
            RcDvq::hybrid(Rect::new(0.0, 0.0, 40.0, 64.0), vec![KeywordId(0)]),
        ]
    }

    /// Each cell's slots, sorted: what a grid lists, whatever the order.
    fn cell_sets(r: &Reservoir) -> Option<Vec<Vec<u32>>> {
        r.grid().map(|g| {
            g.cells()
                .iter()
                .map(|slots| {
                    let mut slots = slots.clone();
                    slots.sort_unstable();
                    slots
                })
                .collect()
        })
    }

    #[test]
    fn fills_to_capacity_then_samples() {
        let mut r = Reservoir::list(&config(50));
        for i in 0..200 {
            r.insert(&obj(i, 0.0, 0.0, &[]));
        }
        assert_eq!(r.sample_len(), 50);
        assert_eq!(r.population(), 200);
    }

    #[test]
    fn exact_when_sample_holds_everything() {
        let mut r = Reservoir::list(&config(1_000));
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

    /// Both access paths, on half of 10 000 objects in range.
    #[test]
    fn estimate_scales_to_population() {
        for make in PATHS {
            let mut r = make(&config(100));
            for i in 0..10_000 {
                let x = if i % 2 == 0 { 1.0 } else { 50.0 };
                r.insert(&obj(i, x, 1.0, &[]));
            }
            let q = RcDvq::spatial(Rect::new(0.0, 0.0, 10.0, 10.0));
            let est = r.estimate(&q);
            assert!(
                (est - 5_000.0).abs() < 1_500.0,
                "{}: estimate too far from truth: {est}",
                r.kind()
            );
        }
    }

    #[test]
    fn sample_is_unbiased_ish() {
        // Insert 0..10_000; the sample mean of ids should be near 5_000.
        let mut r = Reservoir::list(&config(500));
        for i in 0..10_000 {
            r.insert(&obj(i, 0.0, 0.0, &[]));
        }
        let mean: f64 =
            r.store.oids().iter().map(|o| o.0 as f64).sum::<f64>() / r.sample_len() as f64;
        assert!((mean - 5_000.0).abs() < 600.0, "biased sample mean: {mean}");
    }

    #[test]
    fn remove_retracts_sampled_objects() {
        let mut r = Reservoir::list(&config(100));
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
        let mut r = Reservoir::list(&config(10));
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
        let r = Reservoir::list(&config(10));
        let q = RcDvq::spatial(Rect::new(0.0, 0.0, 1.0, 1.0));
        assert_eq!(r.estimate(&q), 0.0);
    }

    /// Both access paths; RSH routes the rare keyword's hybrid to the
    /// postings and the common one's to the grid.
    #[test]
    fn estimate_batch_is_bit_equal_to_singles() {
        for make in PATHS {
            let mut r = make(&config(256));
            r.insert_batch(&scattered(13, 4_000));
            let batch = probes();
            let many = r.estimate_batch(&batch);
            for (q, b) in batch.iter().zip(many) {
                let kind = r.kind();
                assert_eq!(b.to_bits(), r.estimate(q).to_bits(), "{kind}: {q:?}");
            }
        }
    }

    /// A count, not a stopwatch, pins what the bulk build saves: the same
    /// sample and RNG state as one `insert` per arrival, reached with each
    /// slot written once — where the singles side churned through
    /// replacements, tombstones and compactions to get there. On both
    /// access paths; RSH's grid covers exactly the sample, its cells
    /// listing slots in ascending order, which is the one thing that
    /// differs.
    #[test]
    fn bulk_build_writes_each_slot_once_and_matches_singles() {
        let objs: Vec<GeoTextObject> = (0..3_000u64)
            .map(|i| obj(i, (i % 97) as f64, (i % 89) as f64, &[i as u32 % 6, 7]))
            .collect();
        for make in PATHS {
            let mut singles = make(&config(32));
            for o in &objs {
                singles.insert(o);
            }
            let mut bulk = make(&config(32));
            // Slices that straddle the fill → steady edge, and an empty one.
            let slices = [&objs[..20], &objs[20..20], &objs[20..700], &objs[700..]];
            assert!(bulk.build_taped(&mut None, &slices));

            let kind = bulk.kind();
            assert_eq!(bulk.store.oids(), singles.store.oids(), "{kind}");
            assert_eq!(bulk.seen, singles.seen, "{kind}");
            assert_eq!(bulk.population(), singles.population(), "{kind}");
            assert_eq!(bulk.rng.state(), singles.rng.state(), "{kind}");
            for q in probes() {
                let (b, s) = (bulk.estimate(&q), singles.estimate(&q));
                assert_eq!(b.to_bits(), s.to_bits(), "{kind}: {q:?}");
            }
            if let Some(grid) = bulk.grid() {
                for (cell, slots) in grid.cells().iter().enumerate() {
                    assert!(slots.is_sorted(), "cell {cell} unsorted");
                }
            }
            assert_eq!(cell_sets(&bulk), cell_sets(&singles), "{kind}");

            assert!(
                bulk.store.written_once(),
                "{kind}: a slot was written twice"
            );
            assert_eq!(bulk.store.compactions(), 0);
            assert!(!singles.store.written_once(), "singles never replaced");
            assert!(singles.store.compactions() > 0, "singles never compacted");
            #[cfg(feature = "debug-invariants")]
            bulk.audit().expect("bulk-built reservoir audit");
        }
    }

    /// RSL and RSH are one sample read two ways: built from one
    /// configuration they hold the same sample and RNG and give bit-equal
    /// `estimate` and `estimate_batch` answers — after fresh builds through
    /// one set of draw tapes and through a fresh tape each, and through
    /// churn by single inserts, `insert_batch`, single removes and
    /// `remove_batch` over a window several times the sample.
    #[test]
    fn rsl_and_rsh_are_one_sample_read_two_ways() {
        let cfg = config(48);
        let queries = probes();
        let alike = |rsl: &dyn SelectivityEstimator, rsh: &dyn SelectivityEstimator, what: &str| {
            assert_eq!(
                (rsl.kind(), rsh.kind()),
                (EstimatorKind::Rsl, EstimatorKind::Rsh)
            );
            assert_eq!(rsl.population(), rsh.population(), "{what}");
            for (q, (l, h)) in queries.iter().zip(
                rsl.estimate_batch(&queries)
                    .into_iter()
                    .zip(rsh.estimate_batch(&queries)),
            ) {
                let (el, eh) = (rsl.estimate(q), rsh.estimate(q));
                assert_eq!(el.to_bits(), eh.to_bits(), "{what}: estimate on {q:?}");
                assert_eq!(l.to_bits(), h.to_bits(), "{what}: batch on {q:?}");
                assert_eq!(
                    l.to_bits(),
                    el.to_bits(),
                    "{what}: batch vs single on {q:?}"
                );
            }
        };
        let objs = scattered(29, 3_000);
        let mut tapes = DrawTapes::default();
        for n in [20, 48, 700, 3_000] {
            let what = format!("fresh build of {n}");
            let rsl = tapes.build(EstimatorKind::Rsl, &cfg, &mut objs[..n].chunks(100));
            let rsh = tapes.build(EstimatorKind::Rsh, &cfg, &mut objs[..n].chunks(100));
            alike(rsl.as_ref(), rsh.as_ref(), &format!("taped {what}"));
            let cuts: Vec<&[GeoTextObject]> = objs[..n].chunks(100).collect();
            let [rsl, rsh] = PATHS.map(|make| {
                let mut r = make(&cfg);
                assert!(r.build_taped(&mut None, &cuts));
                r
            });
            alike(&rsl, &rsh, &what);
        }

        let [mut rsl, mut rsh] = PATHS.map(|make| make(&cfg));
        let mut window = VecDeque::new();
        for (i, chunk) in objs.chunks(37).enumerate() {
            for r in [&mut rsl, &mut rsh] {
                if i % 2 == 0 {
                    chunk.iter().for_each(|o| r.insert(o));
                } else {
                    r.insert_batch(chunk);
                }
            }
            window.extend(chunk.iter().cloned());
            let evicted: Vec<GeoTextObject> =
                window.drain(..window.len().saturating_sub(400)).collect();
            for r in [&mut rsl, &mut rsh] {
                if i % 3 == 0 {
                    r.remove_batch(&evicted);
                } else {
                    evicted.iter().for_each(|o| r.remove(o));
                }
            }
            assert_eq!(rsl.store.oids(), rsh.store.oids(), "chunk {i}");
            assert_eq!(rsl.rng.state(), rsh.rng.state(), "chunk {i}");
            alike(&rsl, &rsh, &format!("churn, chunk {i}"));
        }
        assert!(
            rsl.sample_len() * 8 < window.len(),
            "the sample holds the window"
        );
    }

    /// The two access paths persist one layout under two tags, so a
    /// section written by one kind is refused by the other, typed, rather
    /// than restored as the wrong kind.
    #[test]
    fn a_section_restores_only_into_its_own_kind() {
        let objs = scattered(7, 500);
        for (from, into) in [(PATHS[0], PATHS[1]), (PATHS[1], PATHS[0])] {
            let mut written = from(&config(64));
            written.insert_batch(&objs);
            let mut w = PersistWriter::new();
            written.persist_state(&mut w);
            let bytes = w.into_bytes();
            let mut wrong = into(&config(64));
            let err = wrong.restore_state(&mut PersistReader::new(&bytes));
            assert!(
                err.is_err(),
                "{} restored into {}",
                written.kind(),
                wrong.kind()
            );
        }
    }

    /// A section whose sample holds more objects than arrivals seen cannot
    /// come from a real stream: restore refuses it, typed, for both access
    /// paths, while the honest section restores, and so does one whose
    /// population fell below the sample (a cold-started sampler's).
    #[test]
    fn restore_refuses_a_sample_larger_than_its_counters() {
        let objs = scattered(5, 40);
        for make in PATHS {
            let mut written = make(&config(64));
            written.insert_batch(&objs);
            let section = |seen: u64, population: u64| {
                let mut w = PersistWriter::new();
                w.section(written.section_tag(), |w| {
                    w.put_u64(seen);
                    w.put_u64(population);
                    written.rng.persist(w);
                    written.store.persist(w);
                });
                w.into_bytes()
            };
            let restore =
                |bytes: &[u8]| make(&config(64)).restore_state(&mut PersistReader::new(bytes));
            let kind = written.kind();
            for (seen, population) in [(40, 40), (40, 39), (40, 0)] {
                restore(&section(seen, population)).unwrap_or_else(|e| {
                    panic!("{kind}: {seen} seen, population {population}: {e}")
                });
            }
            for (seen, population) in [(39, 40), (39, 39), (0, 0)] {
                let err = restore(&section(seen, population));
                assert!(
                    matches!(err, Err(PersistError::Corrupt { .. })),
                    "{kind}: 40 sampled, {seen} seen, population {population}: {err:?}"
                );
            }
        }
    }

    /// Pearson's chi-square of `counts` against a uniform spread over them.
    fn chi_square(counts: &[u64]) -> f64 {
        let expected = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum()
    }

    /// The chi-square critical value at significance 0.001 for 7 degrees
    /// of freedom (8 bins).
    const CHI2_7_P001: f64 = 24.32;

    /// Objects per ingest batch, and the window: 32 batches.
    const BATCH: u64 = 256;
    const WINDOW: u64 = 32 * BATCH;

    /// Sampled ids binned in 8 by position within their `BATCH`-object
    /// batch, and in 8 by age within the window `[first, first + WINDOW)`.
    fn position_and_age_bins(ids: &[ObjectId], first: u64) -> ([u64; 8], [u64; 8]) {
        let (mut position, mut age) = ([0u64; 8], [0u64; 8]);
        for id in ids {
            position[(id.0 % BATCH * 8 / BATCH) as usize] += 1;
            age[((id.0 - first) * 8 / WINDOW) as usize] += 1;
        }
        (position, age)
    }

    /// A fresh build is a uniform sample of the window, whatever the batch
    /// cuts: over 16 seeds, RSL (a 256-object sample) and SPN (a 256-object
    /// buffer) built through `build_taped` from a window ingested in
    /// 256-object batches take their objects evenly by position within the
    /// batch and by age. Each chi-square stays below the 0.001 critical
    /// value. The stream's first window has slid out, so ids start mid-way.
    #[test]
    fn fresh_builds_are_uniform_over_the_window() {
        let stream = scattered(41, 2 * WINDOW);
        let window = &stream[WINDOW as usize..];
        let cuts: Vec<&[GeoTextObject]> = window.chunks(BATCH as usize).collect();
        let (mut rsl, mut spn) = (([0u64; 8], [0u64; 8]), ([0u64; 8], [0u64; 8]));
        for seed in 1..=16 {
            let cfg = |capacity| EstimatorConfig {
                seed,
                ..config(capacity)
            };
            let mut list = Reservoir::list(&cfg(256));
            assert!(list.build_taped(&mut None, &cuts));
            let mut model = SpnEstimator::new(&cfg(1_024));
            assert!(model.build_taped(&mut None, &cuts));
            for (ids, bins) in [
                (list.store.oids(), &mut rsl),
                (model.store().oids(), &mut spn),
            ] {
                assert_eq!(ids.len(), 256);
                let (position, age) = position_and_age_bins(ids, WINDOW);
                for b in 0..8 {
                    bins.0[b] += position[b];
                    bins.1[b] += age[b];
                }
            }
        }
        for (kind, (position, age)) in [("RSL", rsl), ("SPN", spn)] {
            let (p, a) = (chi_square(&position), chi_square(&age));
            assert!(
                p < CHI2_7_P001,
                "{kind}: by position in batch {p:.2}: {position:?}"
            );
            assert!(a < CHI2_7_P001, "{kind}: by age {a:.2}: {age:?}");
        }
    }

    /// A tape recorded for a 64-slot sample that rebuilds every 1 200
    /// arrivals with five seeds, over 3 000 arrivals.
    #[cfg(feature = "debug-invariants")]
    fn recorded_tape() -> DrawTape {
        let plan = DrawPlan {
            capacity: 64,
            rebuild: Some((1_200, 5)),
        };
        let mut slot = None;
        Replay::open(&mut slot, &StreamRng::seed_from_u64(3), plan, 3_000).expect("fits");
        slot.expect("a tape")
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    fn tape_audit_flags_each_broken_invariant() {
        recorded_tape().audit().expect("a recorded tape");
        let broken = |corrupt: fn(&mut DrawTape)| {
            let mut tape = recorded_tape();
            corrupt(&mut tape);
            tape.audit().expect_err("a corrupt tape").invariant
        };
        assert_eq!(broken(|t| t.hits.swap(3, 4)), "hits-ascending");
        assert_eq!(broken(|t| t.hits[5].1 = 64), "hit-bounds");
        assert_eq!(broken(|t| t.hits[0].0 = 64), "hit-bounds");
        assert_eq!(broken(|t| t.len -= 1_000), "hit-bounds");
        assert_eq!(broken(|t| t.checkpoints.truncate(1)), "checkpoint-count");
        assert_eq!(broken(|t| t.seeds.truncate(1)), "seed-lists");
    }

    #[test]
    fn slots_stay_consistent_under_churn() {
        let mut r = Reservoir::list(&config(50));
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

    /// The snapshot contract, on both access paths: restore mid-stream,
    /// keep ingesting the same suffix on both instances, and every
    /// subsequent estimate — and RSH's grid — is bit-identical, which
    /// requires the RNG to resume mid-sequence.
    #[test]
    fn persist_round_trip_is_bit_identical_under_continued_churn() {
        let objs = scattered(21, 7_000);
        for make in PATHS {
            let mut orig = make(&config(64));
            orig.insert_batch(&objs[..5_000]);
            let mut back = crate::traits::reload(&orig, make(&config(64)));
            let kind = back.kind();
            for q in probes() {
                let (b, o) = (back.estimate(&q), orig.estimate(&q));
                assert_eq!(b.to_bits(), o.to_bits(), "{kind}: restored, {q:?}");
            }
            // Continued ingest consumes the RNG: both must replace the
            // exact same slots with the exact same draws.
            for o in &objs[5_000..] {
                orig.insert(o);
                back.insert(o);
            }
            assert_eq!(orig.store.oids(), back.store.oids(), "{kind}");
            assert_eq!(cell_sets(&orig), cell_sets(&back), "{kind}");
            for q in probes() {
                let (b, o) = (back.estimate(&q), orig.estimate(&q));
                assert_eq!(b.to_bits(), o.to_bits(), "{kind}: continued, {q:?}");
            }
            #[cfg(feature = "debug-invariants")]
            back.audit().expect("restored reservoir audit");
        }
    }
}
