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

#[cfg(test)]
mod tests {
    use super::*;

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
