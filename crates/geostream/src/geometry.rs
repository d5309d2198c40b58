//! Planar geometry used by spatial predicates.
//!
//! Locations are latitude/longitude pairs treated as points in a Euclidean
//! plane (the paper does the same: all spatial predicates are axis-aligned
//! rectangles over raw coordinates, no great-circle math is involved).

/// A point in 2D space. `x` is longitude, `y` is latitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// Creates a point at `(x, y)`.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Squared Euclidean distance to `other`. Cheaper than [`Point::dist`]
    /// when only comparisons are needed.
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist_sq(other).sqrt()
    }
}

/// An axis-aligned rectangle, closed on the min edges and open on the max
/// edges (`[min_x, max_x) × [min_y, max_y)`), except that the spatial-domain
/// rectangle is treated as closed on all edges by the containment helpers so
/// points on the top/right domain boundary are not lost.
///
/// Half-open semantics make a regular grid partition exact: every point
/// belongs to exactly one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from min/max corners. Panics in debug builds if
    /// the corners are inverted.
    #[inline]
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x, "inverted x extent: {min_x} > {max_x}");
        debug_assert!(min_y <= max_y, "inverted y extent: {min_y} > {max_y}");
        Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// Creates the rectangle centered on `c` with half-extents `hx`, `hy`,
    /// clamped to `domain`.
    pub fn centered_clamped(c: Point, hx: f64, hy: f64, domain: &Rect) -> Self {
        Rect::new(
            (c.x - hx).max(domain.min_x),
            (c.y - hy).max(domain.min_y),
            (c.x + hx).min(domain.max_x),
            (c.y + hy).min(domain.max_y),
        )
    }

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Whether `p` lies inside the rectangle (closed on all edges).
    ///
    /// Query rectangles in the paper are closed ranges; grid-partition code
    /// uses index arithmetic instead of this predicate, so the closed
    /// semantics here never double-counts.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Whether `other` lies entirely inside `self`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.min_x >= self.min_x
            && other.max_x <= self.max_x
            && other.min_y >= self.min_y
            && other.max_y <= self.max_y
    }

    /// Whether the two rectangles intersect (touching edges count).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// The intersection of the two rectangles, or `None` if disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect::new(
            self.min_x.max(other.min_x),
            self.min_y.max(other.min_y),
            self.max_x.min(other.max_x),
            self.max_y.min(other.max_y),
        ))
    }

    /// Fraction of `self`'s area covered by `other`, in `[0, 1]`.
    ///
    /// Degenerate (zero-area) rectangles yield 1.0 when intersected at all:
    /// a cell that is a point is either fully covered or not covered.
    pub fn coverage_by(&self, other: &Rect) -> f64 {
        match self.intersection(other) {
            None => 0.0,
            Some(i) => {
                let a = self.area();
                if a <= f64::EPSILON {
                    1.0
                } else {
                    (i.area() / a).clamp(0.0, 1.0)
                }
            }
        }
    }

    /// Splits the rectangle into its four quadrants, ordered
    /// `[SW, SE, NW, NE]`.
    pub fn quadrants(&self) -> [Rect; 4] {
        let c = self.center();
        [
            Rect::new(self.min_x, self.min_y, c.x, c.y),
            Rect::new(c.x, self.min_y, self.max_x, c.y),
            Rect::new(self.min_x, c.y, c.x, self.max_y),
            Rect::new(c.x, c.y, self.max_x, self.max_y),
        ]
    }

    /// Index (0..4, in `[SW, SE, NW, NE]` order) of the quadrant `p` falls
    /// into, using half-open split semantics so each point maps to exactly
    /// one quadrant.
    #[inline]
    pub fn quadrant_of(&self, p: &Point) -> usize {
        let c = self.center();
        let east = p.x >= c.x;
        let north = p.y >= c.y;
        (north as usize) * 2 + east as usize
    }

    /// The whole-world lat/lon rectangle.
    pub const WORLD: Rect = Rect {
        min_x: -180.0,
        min_y: -90.0,
        max_x: 180.0,
        max_y: 90.0,
    };
}

/// The one map from coordinates to the cells of a regular `side × side`
/// grid over a domain — shared by every structure that buckets points by
/// cell *and* answers rectangles from those buckets, because the two sides
/// must agree to the last bit.
///
/// Both go through one per-axis function
/// `f(v) = clamp(trunc((v − min) / extent · side), 0, side − 1)`.
/// Each step (subtract, divide and multiply by positives, truncate, clamp)
/// is monotone non-decreasing under IEEE rounding, so `f` is too, which
/// gives [`CellGrid::cover`] its contract. With `x0 = f(r.min_x)` and
/// `x1 = f(r.max_x)`:
///
/// * a point with `r.min_x ≤ p.x ≤ r.max_x` has `x0 ≤ f(p.x) ≤ x1`: no
///   match lies outside the cover;
/// * a point stored in column `cx` with `x0 < cx < x1` has
///   `r.min_x < p.x < r.max_x` (were `p.x ≤ r.min_x`, monotonicity would
///   put it at or left of `x0`): a cell strictly inside the cover on both
///   axes holds only matches, and can be counted without reading a point.
///
/// Points outside the domain are clamped into the border rows and columns,
/// and so are rectangle corners: a rectangle lying wholly beyond one edge
/// still covers the border cells on that side, where the only points that
/// can match it are stored. `0 ≤ x0` and `x1 ≤ side − 1`, so a border cell
/// is never strictly inside and such points are always tested against the
/// rectangle itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGrid {
    domain: Rect,
    side: usize,
}

/// The inclusive block of grid columns `x0..=x1` and rows `y0..=y1` a
/// rectangle can have matches in (see [`CellGrid::cover`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellCover {
    pub x0: usize,
    pub x1: usize,
    pub y0: usize,
    pub y1: usize,
}

impl CellGrid {
    /// A grid of `side` cells per axis over `domain`.
    ///
    /// # Panics
    /// Panics if `side` is zero.
    pub fn new(domain: Rect, side: usize) -> Self {
        assert!(side >= 1, "grid needs at least one cell per axis");
        CellGrid { domain, side }
    }

    /// Cells per axis.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Total number of cells (`side²`); cell indices are row-major below it.
    pub fn cell_count(&self) -> usize {
        self.side * self.side
    }

    #[inline]
    fn axis(&self, v: f64, min: f64, extent: f64) -> usize {
        let scaled = (v - min) / extent * self.side as f64;
        (scaled as isize).clamp(0, self.side as isize - 1) as usize
    }

    /// Row-major index of the cell `p` is stored in.
    #[inline]
    pub fn cell_of(&self, p: &Point) -> usize {
        let cx = self.axis(p.x, self.domain.min_x, self.domain.width());
        let cy = self.axis(p.y, self.domain.min_y, self.domain.height());
        cy * self.side + cx
    }

    /// The cells `r` can have matches in. Computed by sending the
    /// rectangle's own corners through the function [`CellGrid::cell_of`]
    /// uses, which is what makes the cells strictly inside the block wholly
    /// covered (type-level docs).
    pub fn cover(&self, r: &Rect) -> CellCover {
        let d = &self.domain;
        CellCover {
            x0: self.axis(r.min_x, d.min_x, d.width()),
            x1: self.axis(r.max_x, d.min_x, d.width()),
            y0: self.axis(r.min_y, d.min_y, d.height()),
            y1: self.axis(r.max_y, d.min_y, d.height()),
        }
    }

    /// Calls `visit(cell, covered)` for every cell of `cover` in row-major
    /// order; `covered` is true when every point stored in the cell
    /// satisfies the rectangle the cover was computed from.
    #[inline]
    pub fn for_each_cell(&self, cover: &CellCover, mut visit: impl FnMut(usize, bool)) {
        for cy in cover.y0..=cover.y1 {
            let row_inside = cover.y0 < cy && cy < cover.y1;
            for cx in cover.x0..=cover.x1 {
                visit(
                    cy * self.side + cx,
                    row_inside && cover.x0 < cx && cx < cover.x1,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_of_and_cover_agree_on_non_power_of_two_sides() {
        // 0.3 / 1.0 * 10 truncates to 3, 0.3 / (1.0 / 10) to 2: the two
        // formulas this type replaced put the point and the rectangle edge
        // in different columns.
        let g = CellGrid::new(Rect::new(0.0, 0.0, 1.0, 1.0), 10);
        let p = Point::new(0.3, 0.05);
        let cover = g.cover(&Rect::new(0.0, 0.0, 0.3, 0.1));
        assert_eq!(g.cell_of(&p), 3);
        assert_eq!((cover.x0, cover.x1, cover.y0, cover.y1), (0, 3, 0, 1));
    }

    #[test]
    fn covered_cells_hold_only_matches_and_no_match_escapes_the_cover() {
        let domain = Rect::new(-3.0, 2.0, 7.0, 9.0);
        // The sweep is cubic in `side`; the interpreter gets the small ones.
        let sides: &[usize] = if cfg!(miri) {
            &[1, 3, 10]
        } else {
            &[1, 2, 3, 7, 10, 45, 64]
        };
        for &side in sides {
            let g = CellGrid::new(domain, side);
            let step = domain.width() / side as f64;
            // Rectangle edges on exact cell boundaries and one ulp either
            // side, crossed with points on the same values.
            let mut vals = vec![-5.0, domain.min_x, domain.max_x, 12.0];
            for k in 0..=side {
                let edge = domain.min_x + k as f64 * step;
                vals.extend([edge, edge.next_up(), edge.next_down()]);
            }
            for &lo in &vals {
                for &hi in vals.iter().filter(|&&hi| hi >= lo) {
                    let r = Rect::new(lo, 2.0, hi, 9.0);
                    let cover = g.cover(&r);
                    for &x in &vals {
                        let p = Point::new(x, 5.0);
                        let cx = g.cell_of(&p) % side;
                        if r.contains(&p) {
                            assert!(cover.x0 <= cx && cx <= cover.x1, "{p:?} escapes {r:?}");
                        }
                        if cover.x0 < cx && cx < cover.x1 {
                            assert!(r.contains(&p), "side {side}: {p:?} covered, not in {r:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn for_each_cell_marks_exactly_the_strict_interior() {
        let g = CellGrid::new(Rect::new(0.0, 0.0, 8.0, 8.0), 8);
        let cover = g.cover(&Rect::new(1.5, 2.5, 5.5, 4.5));
        let mut seen = Vec::new();
        g.for_each_cell(&cover, |cell, covered| seen.push((cell, covered)));
        assert_eq!(seen.len(), 5 * 3);
        let covered: Vec<usize> = seen.iter().filter(|c| c.1).map(|c| c.0).collect();
        assert_eq!(covered, vec![3 * 8 + 2, 3 * 8 + 3, 3 * 8 + 4]);
        // Beyond the domain: the border cells on that side, none covered.
        let beyond = g.cover(&Rect::new(9.0, 3.5, 10.0, 12.0));
        assert_eq!((beyond.x0, beyond.x1, beyond.y0, beyond.y1), (7, 7, 3, 7));
    }

    #[test]
    fn point_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist_sq(&b), 25.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn rect_basic_measures() {
        let r = Rect::new(0.0, 0.0, 4.0, 2.0);
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 2.0);
        assert_eq!(r.area(), 8.0);
        assert_eq!(r.center(), Point::new(2.0, 1.0));
    }

    #[test]
    fn rect_contains_closed_edges() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(r.contains(&Point::new(0.0, 0.0)));
        assert!(r.contains(&Point::new(1.0, 1.0)));
        assert!(r.contains(&Point::new(0.5, 0.5)));
        assert!(!r.contains(&Point::new(1.0001, 0.5)));
        assert!(!r.contains(&Point::new(0.5, -0.0001)));
    }

    #[test]
    fn rect_intersection() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 3.0, 3.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Rect::new(1.0, 1.0, 2.0, 2.0));
        let c = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersection(&c).is_none());
        assert!(!a.intersects(&c));
    }

    #[test]
    fn rect_touching_edges_intersect() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.area(), 0.0);
    }

    #[test]
    fn coverage_fraction() {
        let cell = Rect::new(0.0, 0.0, 2.0, 2.0);
        let query = Rect::new(1.0, 0.0, 3.0, 2.0);
        assert!((cell.coverage_by(&query) - 0.5).abs() < 1e-12);
        assert_eq!(cell.coverage_by(&Rect::new(10.0, 10.0, 11.0, 11.0)), 0.0);
        assert_eq!(cell.coverage_by(&Rect::new(-1.0, -1.0, 3.0, 3.0)), 1.0);
    }

    #[test]
    fn coverage_of_degenerate_cell() {
        let cell = Rect::new(1.0, 1.0, 1.0, 1.0);
        let query = Rect::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(cell.coverage_by(&query), 1.0);
    }

    #[test]
    fn quadrants_partition_area() {
        let r = Rect::new(-2.0, -2.0, 2.0, 6.0);
        let qs = r.quadrants();
        let total: f64 = qs.iter().map(Rect::area).sum();
        assert!((total - r.area()).abs() < 1e-9);
        // SW quadrant has the min corner.
        assert_eq!(qs[0].min_x, r.min_x);
        assert_eq!(qs[0].min_y, r.min_y);
        // NE quadrant has the max corner.
        assert_eq!(qs[3].max_x, r.max_x);
        assert_eq!(qs[3].max_y, r.max_y);
    }

    #[test]
    fn quadrant_of_matches_quadrant_rects() {
        let r = Rect::new(0.0, 0.0, 8.0, 8.0);
        let qs = r.quadrants();
        for &(x, y) in &[(1.0, 1.0), (5.0, 1.0), (1.0, 5.0), (5.0, 5.0), (4.0, 4.0)] {
            let p = Point::new(x, y);
            let q = r.quadrant_of(&p);
            assert!(qs[q].contains(&p), "point {p:?} not in quadrant {q}");
        }
        // Center point goes to NE under half-open semantics.
        assert_eq!(r.quadrant_of(&Point::new(4.0, 4.0)), 3);
    }

    #[test]
    fn centered_clamped_respects_domain() {
        let domain = Rect::new(0.0, 0.0, 10.0, 10.0);
        let r = Rect::centered_clamped(Point::new(0.5, 9.9), 1.0, 1.0, &domain);
        assert_eq!(r.min_x, 0.0);
        assert_eq!(r.max_y, 10.0);
        assert!(domain.contains_rect(&r));
    }

    #[test]
    fn contains_rect_works() {
        let outer = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(outer.contains_rect(&Rect::new(1.0, 1.0, 2.0, 2.0)));
        assert!(outer.contains_rect(&outer));
        assert!(!outer.contains_rect(&Rect::new(5.0, 5.0, 11.0, 6.0)));
    }
}
