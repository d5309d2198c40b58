//! The one-pass fill of a fresh sample (`SampleStore::fill`) checked
//! against the per-winner placement it replaced: for RSL, RSH and SPN, a
//! candidate built from a draw tape by the fill and one built with
//! [`PLACE_EACH`] set — which sends every winner through `push` /
//! `replace` and their searched posting inserts — must be the same sample,
//! and stay the same through further churn.
#![cfg(test)]

use crate::reservoir::{DrawTape, Reservoir};
use crate::spn::SpnEstimator;
use crate::store::{SampleStore, PLACE_EACH, POSTS};
use crate::traits::{EstimatorConfig, SelectivityEstimator};
use geostream::{
    GeoTextObject, KeywordId, ObjectId, PersistWriter, Point, RcDvq, Rect, StreamRng, Timestamp,
};

/// A sampler a draw tape can build fresh, with the state the oracles read.
pub(crate) trait Taped: SelectivityEstimator + Sized {
    fn taped(&mut self, slot: &mut Option<DrawTape>, slices: &[&[GeoTextObject]]) -> bool;
    fn sample(&self) -> &SampleStore;
    fn arrivals_seen(&self) -> u64;
    fn sampling_rng(&self) -> &StreamRng;
}

macro_rules! taped {
    ($($t:ty),*) => {$(
        impl Taped for $t {
            fn taped(&mut self, slot: &mut Option<DrawTape>, slices: &[&[GeoTextObject]]) -> bool {
                self.build_taped(slot, slices)
            }
            fn sample(&self) -> &SampleStore {
                self.store()
            }
            fn arrivals_seen(&self) -> u64 {
                self.seen()
            }
            fn sampling_rng(&self) -> &StreamRng {
                self.rng()
            }
        }
    )*};
}

taped!(Reservoir, SpnEstimator);

/// Reservoir capacity 64: RSL and RSH sample 64 objects; SPN buffers 64
/// and rebuilds every 1 024 arrivals.
fn config() -> EstimatorConfig {
    EstimatorConfig {
        domain: Rect::new(0.0, 0.0, 64.0, 64.0),
        reservoir_capacity: 64,
        ..EstimatorConfig::default()
    }
}

/// `n` arrivals with ids from `next_id` on, each with up to four keywords
/// of twelve; with `repeats`, about one in eight reuses an id that arrived
/// earlier in the same run.
pub(crate) fn arrivals(
    rng: &mut StreamRng,
    n: usize,
    next_id: &mut u64,
    repeats: bool,
) -> Vec<GeoTextObject> {
    let first = *next_id;
    (0..n)
        .map(|_| {
            let id = if repeats && *next_id > first && rng.gen_range_u32(0..8) == 0 {
                rng.gen_range_u64(first..*next_id)
            } else {
                *next_id += 1;
                *next_id - 1
            };
            let kws = (0..rng.gen_range_u32(0..5))
                .map(|_| KeywordId(rng.gen_range_u32(0..12)))
                .collect();
            let loc = Point::new(rng.gen_range_f64(0.0..64.0), rng.gen_range_f64(0.0..64.0));
            GeoTextObject::new(ObjectId(id), loc, kws, Timestamp(*next_id))
        })
        .collect()
}

/// `objs` cut at random points, empty slices included.
pub(crate) fn slices<'a>(
    rng: &mut StreamRng,
    objs: &'a [GeoTextObject],
) -> Vec<&'a [GeoTextObject]> {
    let mut out = Vec::new();
    let mut rest = objs;
    while !rest.is_empty() {
        let take = rng.gen_range_usize(0..rest.len().min(700) + 1);
        let (head, tail) = rest.split_at(take);
        out.push(head);
        rest = tail;
    }
    out
}

pub(crate) fn queries() -> Vec<RcDvq> {
    let kw = |ks: &[u32]| ks.iter().copied().map(KeywordId).collect::<Vec<_>>();
    vec![
        RcDvq::spatial(Rect::new(5.0, 5.0, 40.0, 50.0)),
        RcDvq::keyword(kw(&[3])),
        RcDvq::keyword(kw(&[1, 4, 9])),
        RcDvq::hybrid(Rect::new(0.0, 0.0, 40.0, 64.0), kw(&[7])),
        RcDvq::hybrid(Rect::new(10.0, 3.0, 60.0, 30.0), kw(&[0, 5, 11])),
    ]
}

pub(crate) fn persisted(est: &dyn SelectivityEstimator) -> Vec<u8> {
    let mut w = PersistWriter::new();
    est.persist_state(&mut w);
    w.into_bytes()
}

/// Builds fresh `est` from `slices`, letting its store take the fill or,
/// with `place_each`, placing every winner one at a time.
fn bulk(est: &mut impl Taped, slices: &[&[GeoTextObject]], place_each: bool) {
    PLACE_EACH.with(|p| p.set(place_each));
    assert!(est.taped(&mut None, slices));
    PLACE_EACH.with(|p| p.set(false));
}

/// Asserts the twins hold the same sample: persisted bytes, estimates to
/// the bit, the id → slot map over `ids`, the memory account, and a clean
/// audit when no id repeats.
fn assert_twins<E: Taped>(filled: &E, placed: &E, ids: &[ObjectId], what: &str) {
    assert!(
        persisted(filled) == persisted(placed),
        "{what}: persisted bytes differ"
    );
    for q in &queries() {
        assert_eq!(
            filled.estimate(q).to_bits(),
            placed.estimate(q).to_bits(),
            "{what}: estimates differ on {q:?}"
        );
    }
    for &oid in ids {
        assert_eq!(
            filled.sample().slot_of(oid),
            placed.sample().slot_of(oid),
            "{what}: {oid:?} maps elsewhere"
        );
    }
    assert_eq!(
        filled.sample().memory_bytes(),
        placed.sample().memory_bytes(),
        "{what}: memory differs"
    );
    #[cfg(feature = "debug-invariants")]
    {
        let distinct = ids.iter().collect::<std::collections::HashSet<_>>().len();
        if distinct == ids.len() {
            filled
                .audit()
                .unwrap_or_else(|e| panic!("{what}: filled audit: {e}"));
        }
    }
}

/// Fill against per-winner placement over random windows — below, at and
/// above capacity, with and without repeated ids, cut into random slices —
/// then both twins through the same churn: evictions, then `insert_batch`
/// per slice into the written store and into a store churn emptied.
fn check_against_placement<E: Taped>(make: impl Fn() -> E, sizes: &[usize], seed: u64) {
    let mut rng = StreamRng::seed_from_u64(seed);
    for &n in sizes {
        for repeats in [false, true] {
            let what = format!("window {n}, repeats {repeats}");
            let mut next_id = 0;
            let window = arrivals(&mut rng, n, &mut next_id, repeats);
            let cuts = slices(&mut rng, &window);
            let (mut filled, mut placed) = (make(), make());
            bulk(&mut filled, &cuts, false);
            bulk(&mut placed, &cuts, true);
            let ids: Vec<ObjectId> = window.iter().map(|o| o.oid).collect();
            // Past its last rebuild boundary SPN replaces into the filled
            // buffer; every other build places only through the fill.
            let only_filled = n < 1_024 || n % 1_024 == 0;
            assert_eq!(filled.sample().written_once(), only_filled, "{what}");
            assert_eq!(placed.sample().written_once(), only_filled, "{what}");
            assert_twins(&filled, &placed, &ids, &what);

            let evicted = &window[..n / 3];
            let more = arrivals(&mut rng, n / 2 + 40, &mut next_id, repeats);
            let later = arrivals(&mut rng, n + 100, &mut next_id, repeats);
            let later_cuts = slices(&mut rng, &later);
            for est in [&mut filled, &mut placed] {
                est.remove_batch(evicted);
                est.insert_batch(&more);
                later_cuts.iter().for_each(|cut| est.insert_batch(cut));
            }
            let mut all = ids.clone();
            all.extend(more.iter().chain(&later).map(|o| o.oid));
            assert_twins(&filled, &placed, &all, &format!("{what}, churned"));

            let refill = arrivals(&mut rng, n, &mut next_id, repeats);
            let refill_cuts = slices(&mut rng, &refill);
            for est in [&mut filled, &mut placed] {
                est.remove_batch(&window[n / 3..]);
                est.remove_batch(&more);
                est.remove_batch(&later);
                refill_cuts.iter().for_each(|cut| est.insert_batch(cut));
            }
            all.extend(refill.iter().map(|o| o.oid));
            assert_twins(&filled, &placed, &all, &format!("{what}, emptied"));
        }
    }
}

#[test]
fn filled_rsl_matches_per_winner_placement() {
    check_against_placement(|| Reservoir::list(&config()), &[1, 40, 64, 65, 900], 1);
}

#[test]
fn filled_rsh_matches_per_winner_placement() {
    check_against_placement(|| Reservoir::hash(&config()), &[1, 40, 64, 65, 900], 2);
}

#[test]
fn filled_spn_matches_per_winner_placement() {
    check_against_placement(
        || SpnEstimator::new(&config()),
        &[40, 64, 900, 1_024, 2_500],
        3,
    );
}

/// A hostile snapshot may list a keyword twice for one slot (an object
/// built by `GeoTextObject::new` cannot): restoring it, the fill posts the
/// keyword once, as a `push` of the same object does.
#[test]
fn restore_posts_a_keyword_repeated_within_a_slot_once() {
    let mut pushed = SampleStore::new();
    for (oid, kws) in [(4, &[3, 3][..]), (9, &[1, 3, 1]), (2, &[3])] {
        pushed.push(&GeoTextObject {
            oid: ObjectId(oid),
            loc: Point::new(oid as f64, 1.0),
            keywords: kws.iter().copied().map(KeywordId).collect(),
            timestamp: Timestamp(oid),
        });
    }
    let mut w = PersistWriter::new();
    pushed.persist(&mut w);
    let bytes = w.into_bytes();
    let filled =
        SampleStore::restore(&mut geostream::PersistReader::new(&bytes), 8).expect("restores");
    for kws in [vec![3], vec![1], vec![1, 3]] {
        let q = RcDvq::keyword(kws.into_iter().map(KeywordId).collect());
        assert_eq!(filled.count(&q), pushed.count(&q), "{q:?}");
    }
    assert_eq!(filled.count(&RcDvq::keyword(vec![KeywordId(3)])), 3);
    assert_eq!(filled.memory_bytes(), pushed.memory_bytes());
    #[cfg(feature = "debug-invariants")]
    filled.audit().expect("filled store audit");
}

/// Posting entries written by a searched insert (`PostingIndex::post`)
/// while `f` runs on this thread.
fn posts_during(f: impl FnOnce()) -> u64 {
    let before = POSTS.with(std::cell::Cell::get);
    f();
    POSTS.with(std::cell::Cell::get) - before
}

/// Where the fill saves, as a count: a fresh build from 3 072 objects (a
/// multiple of SPN's rebuild interval, so its one placement is the fill)
/// posts no entry by a searched insert; a twin fed by `insert_batch` posts
/// at least one per sampled slot.
#[test]
fn fresh_builds_post_without_a_search() {
    fn check<E: Taped>(make: impl Fn() -> E) {
        let mut next_id = 0;
        let objs = arrivals(&mut StreamRng::seed_from_u64(9), 3_072, &mut next_id, false);
        let mut bulk = make();
        let cuts: Vec<&[GeoTextObject]> = objs.chunks(1_024).collect();
        let bulk_posts = posts_during(|| assert!(bulk.taped(&mut None, &cuts)));
        let mut fed = make();
        let fed_posts = posts_during(|| fed.insert_batch(&objs));
        let kind = bulk.kind();
        assert_eq!(bulk_posts, 0, "{kind}: the bulk build searched");
        assert!(
            fed_posts >= bulk.sample().len() as u64,
            "{kind}: {fed_posts} searched posts for {} slots",
            bulk.sample().len()
        );
        assert!(persisted(&bulk) == persisted(&fed), "{kind}: twins differ");
    }
    check(|| Reservoir::list(&config()));
    check(|| Reservoir::hash(&config()));
    check(|| SpnEstimator::new(&config()));
}
