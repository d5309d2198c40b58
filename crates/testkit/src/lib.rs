//! Dev-only property-test kit: a deterministic case runner, a handful of
//! plain input generators over [`StreamRng`], the one scenario generator
//! two crates' suites share ([`grid_case`]), and a strict JSON checker for
//! the hand-rolled writers ([`validate_json`]). There are no strategy
//! objects and no shrinking: a property is a closure that draws what it
//! needs and asserts.
//!
//! Runs are reproducible. Case `i` of property `name` draws from a
//! generator seeded by `(base seed, name, i)`; the base seed is fixed
//! unless the `PROPTEST_SEED` environment variable overrides it, and a
//! failing case prints the line that replays it.

use geostream::persist::checksum;
use geostream::{GeoTextObject, KeywordId, ObjectId, Point, RcDvq, Rect, StreamRng, Timestamp};
use std::ops::{Range, RangeInclusive};

/// Base seed of every run that does not set `PROPTEST_SEED`.
const DEFAULT_SEED: u64 = 0x4c41_5445_5354;

/// Runs `property` on `cases` independently seeded generators.
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut StreamRng)) {
    let seed = match std::env::var("PROPTEST_SEED") {
        Ok(text) => text
            .parse()
            .unwrap_or_else(|_| panic!("PROPTEST_SEED={text} is not a u64")),
        Err(_) => DEFAULT_SEED,
    };
    for case in 0..cases {
        let _replay = Replay { name, case, seed };
        property(&mut case_rng(seed, name, case));
    }
}

fn case_rng(seed: u64, name: &str, case: u32) -> StreamRng {
    let mut key = name.as_bytes().to_vec();
    key.extend_from_slice(&seed.to_le_bytes());
    key.extend_from_slice(&case.to_le_bytes());
    StreamRng::seed_from_u64(checksum(&key))
}

/// Names the failing case while its panic unwinds.
struct Replay<'a> {
    name: &'a str,
    case: u32,
    seed: u64,
}

impl Drop for Replay<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "property `{}` failed at case {}; replay with PROPTEST_SEED={}",
                self.name, self.case, self.seed
            );
        }
    }
}

/// An integer in `range`; one draw in four is an endpoint, where
/// off-by-one bugs live.
pub fn u64_in(rng: &mut StreamRng, range: Range<u64>) -> u64 {
    match rng.gen_range_u32(0..8) {
        0 => range.start,
        1 => range.end - 1,
        _ => rng.gen_range_u64(range),
    }
}

/// [`u64_in`] for `u32`.
pub fn u32_in(rng: &mut StreamRng, range: Range<u32>) -> u32 {
    u64_in(rng, u64::from(range.start)..u64::from(range.end)) as u32
}

/// [`u64_in`] for `usize`.
pub fn usize_in(rng: &mut StreamRng, range: Range<usize>) -> usize {
    u64_in(rng, range.start as u64..range.end as u64) as usize
}

/// A float in `range`; one draw in eight is the lower bound.
pub fn f64_in(rng: &mut StreamRng, range: Range<f64>) -> f64 {
    match rng.gen_range_u32(0..8) {
        0 => range.start,
        _ => rng.gen_range_f64(range),
    }
}

/// A fair coin.
pub fn coin(rng: &mut StreamRng) -> bool {
    rng.gen_bool(0.5)
}

/// A vector whose length is uniform in `len`, filled by `item`.
pub fn vec_of<T>(
    rng: &mut StreamRng,
    len: Range<usize>,
    mut item: impl FnMut(&mut StreamRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range_usize(len);
    (0..n).map(|_| item(rng)).collect()
}

/// A lowercase ASCII word whose length is uniform in `len`.
pub fn word(rng: &mut StreamRng, len: RangeInclusive<usize>) -> String {
    let n = rng.gen_range_usize_inclusive(len);
    (0..n)
        .map(|_| char::from(b'a' + rng.gen_range_u32(0..26) as u8))
        .collect()
}

/// Objects and queries placed where a `side × side` grid over `domain`
/// can go wrong: on cell boundaries and one ulp either side of them, on and
/// beyond the domain edge. Every structure that buckets points by
/// `geostream::CellGrid` is checked against the same cases.
pub struct GridCase {
    pub domain: Rect,
    pub side: usize,
    pub objects: Vec<GeoTextObject>,
    pub queries: Vec<RcDvq>,
}

/// Draws a [`GridCase`]. Sides cover one cell, powers of two, and the odd
/// sides whose cell width is not a binary fraction of the domain.
pub fn grid_case(rng: &mut StreamRng) -> GridCase {
    const SIDES: [usize; 7] = [1, 2, 3, 7, 10, 45, 64];
    let domains = [
        Rect::new(0.0, 0.0, 1.0, 1.0),
        Rect::new(0.0, 0.0, 100.0, 100.0),
        Rect::new(-3.0, 2.0, 7.0, 9.0),
        Rect::WORLD,
    ];
    let side = SIDES[rng.gen_range_usize(0..SIDES.len())];
    let domain = domains[rng.gen_range_usize(0..domains.len())];
    let objects: Vec<GeoTextObject> = (0..rng.gen_range_u64(1..120))
        .map(|id| {
            let loc = Point::new(
                grid_coord(rng, domain.min_x, domain.max_x, side),
                grid_coord(rng, domain.min_y, domain.max_y, side),
            );
            let kws = vec_of(rng, 0..3, |rng| KeywordId(u32_in(rng, 0..6)));
            GeoTextObject::new(ObjectId(id), loc, kws, Timestamp(id))
        })
        .collect();
    let queries = vec_of(rng, 1..8, |rng| {
        // An edge is an object's own coordinate half the time.
        let span = |rng: &mut StreamRng, min: f64, max: f64, of: fn(&Point) -> f64| {
            let edge = |rng: &mut StreamRng| {
                if coin(rng) {
                    of(&objects[rng.gen_range_usize(0..objects.len())].loc)
                } else {
                    grid_coord(rng, min, max, side)
                }
            };
            let (a, b) = (edge(rng), edge(rng));
            match rng.gen_range_u32(0..6) {
                0 => (a, a), // degenerate: zero width or height
                _ => (a.min(b), a.max(b)),
            }
        };
        let (x0, x1) = span(rng, domain.min_x, domain.max_x, |p| p.x);
        let (y0, y1) = span(rng, domain.min_y, domain.max_y, |p| p.y);
        let rect = Rect::new(x0, y0, x1, y1);
        let kws = |rng: &mut StreamRng| vec_of(rng, 1..4, |rng| KeywordId(u32_in(rng, 0..6)));
        match rng.gen_range_u32(0..3) {
            0 => RcDvq::spatial(rect),
            1 => RcDvq::keyword(kws(rng)),
            _ => RcDvq::hybrid(rect, kws(rng)),
        }
    });
    GridCase {
        domain,
        side,
        objects,
        queries,
    }
}

/// One coordinate on the axis `[min, max]` cut into `side` cells.
fn grid_coord(rng: &mut StreamRng, min: f64, max: f64, side: usize) -> f64 {
    let extent = max - min;
    match rng.gen_range_u32(0..10) {
        0 => min,
        1 => max,
        2 => min - rng.gen_range_f64(0.0..extent),
        3 => max + rng.gen_range_f64(0.0..extent),
        4..=6 => {
            // A cell boundary, rounded either way it can be computed, or
            // a neighbouring float.
            let k = rng.gen_range_usize_inclusive(0..=side) as f64;
            let edge = if coin(rng) {
                min + k * extent / side as f64
            } else {
                min + k * (extent / side as f64)
            };
            match rng.gen_range_u32(0..3) {
                0 => edge,
                1 => edge.next_up(),
                _ => edge.next_down(),
            }
        }
        _ => rng.gen_range_f64(min..max),
    }
}

/// Checks `text` against the RFC 8259 grammar, strictly: exactly one
/// value, no trailing commas, no `NaN` or `Infinity`, no leading zeros, no
/// raw control characters in strings and only the escapes the RFC names.
/// The error quotes the text from the byte the parse stopped at.
pub fn validate_json(text: &str) -> Result<(), String> {
    /// Input and cursor; every method reports success and, on failure,
    /// leaves the cursor on the offending byte.
    struct Parser<'a>(&'a [u8], usize);
    impl Parser<'_> {
        fn eat(&mut self, set: impl Fn(u8) -> bool) -> bool {
            let hit = self.0.get(self.1).is_some_and(|&c| set(c));
            self.1 += usize::from(hit);
            hit
        }
        fn ws(&mut self) -> bool {
            while self.eat(|c| b" \t\n\r".contains(&c)) {}
            true
        }
        fn digits(&mut self) -> bool {
            let start = self.1;
            while self.eat(|c| c.is_ascii_digit()) {}
            self.1 > start
        }
        fn string(&mut self) -> bool {
            if !self.eat(|c| c == b'"') {
                return false;
            }
            loop {
                if self.eat(|c| c == b'\\') {
                    let escape = if self.eat(|c| c == b'u') {
                        (0..4).all(|_| self.eat(|c| c.is_ascii_hexdigit()))
                    } else {
                        self.eat(|c| b"\"\\/bfnrt".contains(&c))
                    };
                    if !escape {
                        return false;
                    }
                } else if !self.eat(|c| c >= 0x20 && c != b'"') {
                    return self.eat(|c| c == b'"');
                }
            }
        }
        fn number(&mut self) -> bool {
            self.eat(|c| c == b'-');
            (self.eat(|c| c == b'0') || self.digits())
                && (!self.eat(|c| c == b'.') || self.digits())
                && (!self.eat(|c| c == b'e' || c == b'E') || {
                    self.eat(|c| c == b'+' || c == b'-');
                    self.digits()
                })
        }
        fn value(&mut self, depth: usize) -> bool {
            self.ws();
            match self.0.get(self.1) {
                Some(b'"') => self.string(),
                Some(b'-' | b'0'..=b'9') => self.number(),
                Some(&open @ (b'{' | b'[')) if depth < 64 => {
                    let close = open + 2; // ASCII: `{` closes with `}`, `[` with `]`
                    self.1 += 1;
                    self.ws();
                    let mut first = true;
                    while !self.eat(|c| c == close) {
                        let item = (std::mem::take(&mut first)
                            || self.eat(|c| c == b',') && self.ws())
                            && (open == b'['
                                || self.string() && self.ws() && self.eat(|c| c == b':'))
                            && self.value(depth + 1)
                            && self.ws();
                        if !item {
                            return false;
                        }
                    }
                    true
                }
                _ => ["true", "false", "null"].iter().any(|literal| {
                    let hit = self.0[self.1..].starts_with(literal.as_bytes());
                    self.1 += if hit { literal.len() } else { 0 };
                    hit
                }),
            }
        }
    }
    let mut p = Parser(text.as_bytes(), 0);
    if p.value(0) && p.ws() && p.1 == p.0.len() {
        return Ok(());
    }
    let rest = String::from_utf8_lossy(&p.0[p.1..p.0.len().min(p.1 + 32)]);
    Err(format!("not RFC 8259 JSON at byte {}: {rest:?}", p.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(name: &str) -> Vec<u64> {
        let mut seen = Vec::new();
        check(name, 5, |rng| seen.push(rng.next_u64()));
        seen
    }

    #[test]
    fn runs_repeat_and_cases_differ_by_name_and_index() {
        let first = draws("a");
        assert_eq!(first, draws("a"), "two runs execute identical cases");
        assert_ne!(first, draws("b"));
        let mut distinct = first.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), 5, "every case has its own generator");
    }

    #[test]
    #[should_panic(expected = "case body failed")]
    fn a_failing_case_propagates_its_panic() {
        check("failing", 3, |_| panic!("case body failed"));
    }

    #[test]
    fn json_validator_is_strict() {
        for ok in [
            "0",
            " -0.5e+3 ",
            "\"a\\n\\u00e9/\"",
            "[]",
            "{}",
            "[1, [true, null], {\"k\": {\"n\": -1E2}}]\n",
        ] {
            assert_eq!(validate_json(ok), Ok(()), "{ok}");
        }
        for bad in [
            "",
            "NaN",
            "[Infinity]",
            "-inf",
            "01",
            "1.",
            "1e",
            "1e+",
            ".5",
            "+1",
            "[1,]",
            "{\"a\": 1,}",
            "{a: 1}",
            "{\"a\" 1}",
            "[1 2]",
            "[1",
            "\"a\\x\"",
            "\"a\\u12g4\"",
            "\"tab\there\"",
            "\"open",
            "{} {}",
            "nulls",
        ] {
            assert!(validate_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn generators_respect_their_bounds() {
        check("bounds", 200, |rng| {
            assert!((3..9).contains(&u64_in(rng, 3..9)));
            assert_eq!(u32_in(rng, 7..8), 7);
            assert!((0..2).contains(&usize_in(rng, 0..2)));
            assert!((-1.0..1.0).contains(&f64_in(rng, -1.0..1.0)));
            let v = vec_of(rng, 2..5, coin);
            assert!((2..5).contains(&v.len()));
            let w = word(rng, 1..=10);
            assert!((1..=10).contains(&w.len()));
            assert!(w.bytes().all(|b| b.is_ascii_lowercase()));
        });
    }
}
