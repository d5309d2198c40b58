//! Fresh builds read off a draw tape ([`DrawTapes`]) checked against the
//! maintained path that draws: for RSL, RSH and SPN, an estimator built
//! from a tape and a fresh twin fed one `insert_batch` per cut — algorithm
//! R's live draws, one arrival at a time — must be the same estimator, and
//! stay the same through further churn. A tape serves many builds, as the
//! prefill builder's do: its builds grow and shrink, are cut short, and a
//! changed seed or capacity replaces it.
#![cfg(test)]

use crate::fill_oracle::{arrivals, persisted, queries, slices, Taped};
use crate::reservoir::{DrawTape, Reservoir, DRAWS};
use crate::spn::SpnEstimator;
use crate::traits::{build_estimator, EstimatorConfig, EstimatorKind};
use crate::DrawTapes;
use geostream::{GeoTextObject, Rect, StreamRng};
use std::collections::VecDeque;

/// RSL and RSH sample `capacity` objects; SPN buffers a quarter of it.
fn config(capacity: usize, seed: u64) -> EstimatorConfig {
    EstimatorConfig {
        domain: Rect::new(0.0, 0.0, 64.0, 64.0),
        reservoir_capacity: capacity,
        seed,
        ..EstimatorConfig::default()
    }
}

/// SPN buffers 300 objects and rebuilds every 1 200 arrivals: a period
/// that is no multiple of the tape's 1 024-arrival checkpoints.
fn spn_config(seed: u64) -> EstimatorConfig {
    config(1_200, seed)
}

/// Asserts the twins are one estimator: persisted bytes, RNG state,
/// arrivals seen, population and estimates to the bit.
fn assert_same(taped: &impl Taped, drawn: &impl Taped, what: &str) {
    assert!(
        persisted(taped) == persisted(drawn),
        "{what}: persisted bytes differ"
    );
    assert_eq!(
        taped.sampling_rng().state(),
        drawn.sampling_rng().state(),
        "{what}: RNG differs"
    );
    assert_eq!(taped.arrivals_seen(), drawn.arrivals_seen(), "{what}: seen");
    assert_eq!(taped.population(), drawn.population(), "{what}: population");
    for q in &queries() {
        assert_eq!(
            taped.estimate(q).to_bits(),
            drawn.estimate(q).to_bits(),
            "{what}: estimates differ on {q:?}"
        );
    }
}

/// 200 random steps applied to both twins: an arrival or an eviction
/// (oldest first), one at a time or in a batch of up to 40.
fn churn<E: Taped>(
    twins: [&mut E; 2],
    window: &mut VecDeque<GeoTextObject>,
    rng: &mut StreamRng,
    next_id: &mut u64,
) {
    let [a, b] = twins;
    for _ in 0..200 {
        let batch = rng.gen_range_u32(0..2) == 0;
        let n = if batch { rng.gen_range_usize(1..41) } else { 1 };
        if rng.gen_range_u32(0..2) == 0 {
            let objs = arrivals(rng, n, next_id, false);
            for est in [&mut *a, &mut *b] {
                if batch {
                    est.insert_batch(&objs);
                } else {
                    est.insert(&objs[0]);
                }
            }
            window.extend(objs);
        } else {
            let objs: Vec<GeoTextObject> = window.drain(..n.min(window.len())).collect();
            for est in [&mut *a, &mut *b] {
                if batch {
                    est.remove_batch(&objs);
                } else {
                    objs.iter().for_each(|o| est.remove(o));
                }
            }
        }
    }
}

/// Builds `cuts` from the tape in `slot` and by one `insert_batch` per cut,
/// asserts the twins are one estimator, then again after 200 steps of
/// churn.
fn check_build<E: Taped>(
    make: fn(&EstimatorConfig) -> E,
    cfg: &EstimatorConfig,
    slot: &mut Option<DrawTape>,
    cuts: &[&[GeoTextObject]],
    rng: &mut StreamRng,
    next_id: &mut u64,
    what: &str,
) {
    let mut taped = make(cfg);
    assert!(taped.taped(slot, cuts), "{what}: the tape refused");
    let mut drawn = make(cfg);
    cuts.iter().for_each(|cut| drawn.insert_batch(cut));
    #[cfg(feature = "debug-invariants")]
    if let Some(tape) = slot.as_ref() {
        tape.audit().unwrap_or_else(|e| panic!("{what}: {e}"));
    }
    assert_same(&taped, &drawn, what);
    let mut window: VecDeque<GeoTextObject> = cuts.iter().flat_map(|c| c.to_vec()).collect();
    churn([&mut taped, &mut drawn], &mut window, rng, next_id);
    assert_same(&taped, &drawn, &format!("{what}, churned"));
}

/// Each window size twice, cut at random (empty slices included): once
/// from a fresh tape, once from one tape that every build reuses, so it
/// serves builds that grow and builds that shrink.
fn check_sizes<E: Taped>(
    make: fn(&EstimatorConfig) -> E,
    cfg: &EstimatorConfig,
    sizes: &[usize],
    seed: u64,
) {
    let mut rng = StreamRng::seed_from_u64(seed);
    let mut next_id = 0;
    let mut reused = None;
    for &n in sizes {
        let window = arrivals(&mut rng, n, &mut next_id, false);
        let cuts = slices(&mut rng, &window);
        let what = format!("window {n}");
        check_build(make, cfg, &mut None, &cuts, &mut rng, &mut next_id, &what);
        let what = format!("window {n}, reused tape");
        check_build(make, cfg, &mut reused, &cuts, &mut rng, &mut next_id, &what);
    }
}

/// Below, at and above the capacity of 64, on both sides of the first two
/// checkpoints, growing, shrinking and growing again.
const SIZES: [usize; 15] = [
    1, 40, 64, 65, 1_023, 1_024, 1_025, 3_000, 2_047, 2_048, 2_049, 700, 64, 5_000, 10,
];

#[test]
fn taped_rsl_matches_drawn_builds() {
    check_sizes(Reservoir::list, &config(64, 11), &SIZES, 1);
}

#[test]
fn taped_rsh_matches_drawn_builds() {
    check_sizes(Reservoir::hash, &config(64, 12), &SIZES, 2);
}

/// Below, at and above the buffer of 300, both sides of two checkpoints and
/// of three rebuild boundaries (1 200, 2 400, 4 800).
#[test]
fn taped_spn_matches_drawn_builds() {
    let sizes = [
        40, 300, 301, 1_023, 1_024, 1_025, 1_199, 1_200, 1_201, 3_000, 2_047, 2_049, 2_400, 5_000,
        4_799, 4_800, 4_801, 700,
    ];
    check_sizes(SpnEstimator::new, &spn_config(13), &sizes, 3);
}

/// `kind`'s config in these tests for a given seed and RSL capacity.
fn kind_config(kind: EstimatorKind, capacity: usize, seed: u64) -> EstimatorConfig {
    match kind {
        EstimatorKind::Spn => config(capacity * 20, seed),
        _ => config(capacity, seed),
    }
}

/// `DrawTapes::build` against `build_estimator` + one `insert_batch` per
/// cut: the same persisted bytes (arrivals seen, population and RNG among
/// them) and estimates.
fn assert_built_alike(
    tapes: &mut DrawTapes,
    kind: EstimatorKind,
    cfg: &EstimatorConfig,
    cuts: &[&[GeoTextObject]],
    what: &str,
) {
    let taped = tapes.build(kind, cfg, &mut cuts.iter().copied());
    let mut drawn = build_estimator(kind, cfg);
    cuts.iter().for_each(|cut| drawn.insert_batch(cut));
    assert!(
        persisted(taped.as_ref()) == persisted(drawn.as_ref()),
        "{kind} {what}: persisted bytes differ"
    );
    for q in &queries() {
        assert_eq!(
            taped.estimate(q).to_bits(),
            drawn.estimate(q).to_bits(),
            "{kind} {what}: estimates differ on {q:?}"
        );
    }
    #[cfg(feature = "debug-invariants")]
    tapes
        .audit()
        .unwrap_or_else(|e| panic!("{kind} {what}: {e}"));
}

/// A cancelled build pulls a prefix of the slices: it is the drawn build
/// of that prefix, and the tape it grew or read serves the builds after it.
#[test]
fn cut_short_builds_match_and_keep_the_tape() {
    let mut rng = StreamRng::seed_from_u64(4);
    let window = arrivals(&mut rng, 5_000, &mut 0, false);
    let cuts = slices(&mut rng, &window);
    for kind in [EstimatorKind::Rsl, EstimatorKind::Rsh, EstimatorKind::Spn] {
        let cfg = kind_config(kind, 64, 7);
        let mut tapes = DrawTapes::default();
        for keep in [cuts.len() / 2, cuts.len(), 1, cuts.len() / 3, 0] {
            let what = format!("first {keep} of {} slices", cuts.len());
            assert_built_alike(&mut tapes, kind, &cfg, &cuts[..keep], &what);
        }
    }
}

/// Each kind's tape is redrawn when the seed or the capacity changes —
/// back and forth — and every build matches its drawn twin; so do the
/// kinds that keep no tape.
#[test]
fn a_new_seed_or_capacity_replaces_the_tape() {
    let mut rng = StreamRng::seed_from_u64(5);
    let window = arrivals(&mut rng, 4_000, &mut 0, false);
    let cuts = slices(&mut rng, &window);
    let short = &cuts[..cuts.len() / 2];
    for kind in EstimatorKind::ALL {
        let mut tapes = DrawTapes::default();
        for (capacity, seed) in [(64, 1), (64, 2), (80, 2), (64, 1)] {
            let cfg = kind_config(kind, capacity, seed);
            let what = format!("capacity {capacity}, seed {seed}");
            assert_built_alike(&mut tapes, kind, &cfg, short, &what);
            assert_built_alike(&mut tapes, kind, &cfg, &cuts, &what);
        }
    }
}

/// Random numbers drawn through a tape while `f` runs on this thread.
fn draws_during(f: impl FnOnce()) -> u64 {
    let before = DRAWS.with(std::cell::Cell::get);
    f();
    DRAWS.with(std::cell::Cell::get) - before
}

/// Where the tape saves, as a count. The first fresh build over `n`
/// arrivals draws once per arrival past the capacity, plus SPN's seeds;
/// every later one, shorter or as long, fewer than 1 024 numbers. The
/// tape's hits fit in `8 · cap · (1 + ln(n / cap))` bytes beside one
/// checkpoint per 1 024 arrivals and SPN's seed slots.
#[test]
fn a_repeat_build_draws_fewer_than_a_checkpoint_interval() {
    let n = 25_000usize;
    let objs = arrivals(&mut StreamRng::seed_from_u64(6), n, &mut 0, false);
    // RSL and RSH sample 1 024; SPN buffers 1 024 and rebuilds every 4 096
    // arrivals, drawing 48 seeds each time: 6 rebuilds in 25 000.
    for (kind, cap, seeds) in [
        (EstimatorKind::Rsl, 1_024, 0),
        (EstimatorKind::Rsh, 1_024, 0),
        (EstimatorKind::Spn, 1_024, 6 * 48),
    ] {
        let cfg = config(
            if kind == EstimatorKind::Spn {
                4 * cap
            } else {
                cap
            },
            8,
        );
        let mut tapes = DrawTapes::default();
        let first = draws_during(|| drop(tapes.build(kind, &cfg, &mut objs.chunks(1_024))));
        assert_eq!(first, (n - cap + seeds) as u64, "{kind}: first build");
        let bytes = tapes.memory_bytes();
        let hits = 8.0 * cap as f64 * (1.0 + (n as f64 / cap as f64).ln());
        let checkpoints = (n / 1_024 + 1) * std::mem::size_of::<StreamRng>();
        let seed_slots = seeds * std::mem::size_of::<usize>();
        assert!(
            bytes as f64 <= hits + (checkpoints + seed_slots) as f64,
            "{kind}: {bytes} tape bytes over {hits:.0} + {checkpoints} + {seed_slots}"
        );
        for m in [n, 24_575, 3_000, 500, n] {
            let again =
                draws_during(|| drop(tapes.build(kind, &cfg, &mut objs[..m].chunks(1_024))));
            assert!(again < 1_024, "{kind}: a build of {m} drew {again}");
        }
        assert_eq!(
            tapes.memory_bytes(),
            bytes,
            "{kind}: a build no longer grew the tape"
        );
    }
}

/// RSL and RSH share a seed and a capacity, so they read one tape: after
/// a first build of either, a build of the other draws fewer than 1 024
/// numbers and does not grow the tape.
#[test]
fn rsl_and_rsh_read_one_tape() {
    let n = 6_000;
    let objs = arrivals(&mut StreamRng::seed_from_u64(10), n, &mut 0, false);
    let cfg = config(256, 9);
    for (first, then) in [
        (EstimatorKind::Rsl, EstimatorKind::Rsh),
        (EstimatorKind::Rsh, EstimatorKind::Rsl),
    ] {
        let mut tapes = DrawTapes::default();
        let drawn = draws_during(|| drop(tapes.build(first, &cfg, &mut objs.chunks(1_024))));
        assert_eq!(drawn, (n - 256) as u64, "{first}: first build");
        let bytes = tapes.memory_bytes();
        let again = draws_during(|| drop(tapes.build(then, &cfg, &mut objs.chunks(1_024))));
        assert!(again < 1_024, "{then} after {first} drew {again}");
        assert_eq!(tapes.memory_bytes(), bytes, "{then} grew the tape");
    }
}
