//! Two-dimensional equi-width histogram (the paper's `H4096`).
//!
//! The spatial domain is divided into a regular `side × side` grid; each
//! cell stores only the count of window objects inside it. Range-counting
//! estimates sum fully covered cells exactly and scale partially covered
//! boundary cells by area fraction (the uniformity assumption inside a
//! cell).
//!
//! The histogram keeps **purely spatial statistics** (paper §VI-E):
//! keyword predicates cannot be evaluated, so hybrid queries are answered
//! from the spatial predicate alone and pure keyword queries fall back to
//! the full window count. That bias is intentional — it is exactly why
//! LATEST steers away from `H4096` when keyword predicates dominate.

use crate::traits::{EstimatorConfig, EstimatorKind, SelectivityEstimator};
use geostream::{
    GeoTextObject, PersistError, PersistReader, PersistWriter, Point, QueryType, RcDvq, Rect,
};

/// 2D equi-width count histogram.
#[derive(Debug, Clone)]
pub struct Histogram2D {
    domain: Rect,
    side: usize,
    /// Row-major `side × side` counts. `f64` so partial retractions never
    /// underflow.
    cells: Vec<f64>,
    population: u64,
}

impl Histogram2D {
    /// Builds an empty histogram per `config` (cell count scales with the
    /// memory budget).
    pub fn new(config: &EstimatorConfig) -> Self {
        let side = config.scaled_grid_side();
        Histogram2D {
            domain: config.domain,
            side,
            cells: vec![0.0; side * side],
            population: 0,
        }
    }

    /// Number of cells per axis.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Grid index of the cell containing `p` (clamped into the domain).
    fn cell_of(&self, p: &Point) -> (usize, usize) {
        let fx = (p.x - self.domain.min_x) / self.domain.width();
        let fy = (p.y - self.domain.min_y) / self.domain.height();
        let cx = ((fx * self.side as f64) as isize).clamp(0, self.side as isize - 1) as usize;
        let cy = ((fy * self.side as f64) as isize).clamp(0, self.side as isize - 1) as usize;
        (cx, cy)
    }

    /// The spatial extent of cell `(cx, cy)`.
    fn cell_rect(&self, cx: usize, cy: usize) -> Rect {
        let w = self.domain.width() / self.side as f64;
        let h = self.domain.height() / self.side as f64;
        let min_x = self.domain.min_x + cx as f64 * w;
        let min_y = self.domain.min_y + cy as f64 * h;
        Rect::new(min_x, min_y, min_x + w, min_y + h)
    }

    /// Full O(cells) invariant walk (the `debug-invariants` auditor):
    ///
    /// * **cell-bounds** — every cell count is finite and non-negative
    ///   (retraction clamps at zero, never below).
    /// * **mass-conservation** — the cell counts sum to the population
    ///   counter: each insert adds exactly one unit of cell mass and each
    ///   retraction of a previously inserted object removes exactly one
    ///   (whole counts are exact in f64 far beyond window scale).
    #[cfg(feature = "debug-invariants")]
    pub fn audit(&self) -> Result<(), geostream::AuditError> {
        use geostream::audit::ensure;
        const S: &str = "Histogram2D";
        let mut sum = 0.0;
        for (i, &c) in self.cells.iter().enumerate() {
            ensure(c.is_finite() && c >= 0.0, S, "cell-bounds", || {
                format!("cell {i} holds {c}")
            })?;
            sum += c;
        }
        ensure(
            (sum - self.population as f64).abs() < 1e-6,
            S,
            "mass-conservation",
            || format!("cells sum to {sum}, population is {}", self.population),
        )
    }

    /// Estimated count of objects inside `r` (spatial predicate only).
    fn estimate_range(&self, r: &Rect) -> f64 {
        let Some(clipped) = r.intersection(&self.domain) else {
            return 0.0;
        };
        // Indices of the cell range the query touches.
        let w = self.domain.width() / self.side as f64;
        let h = self.domain.height() / self.side as f64;
        let x0 = (((clipped.min_x - self.domain.min_x) / w) as isize)
            .clamp(0, self.side as isize - 1) as usize;
        let x1 = (((clipped.max_x - self.domain.min_x) / w) as isize)
            .clamp(0, self.side as isize - 1) as usize;
        let y0 = (((clipped.min_y - self.domain.min_y) / h) as isize)
            .clamp(0, self.side as isize - 1) as usize;
        let y1 = (((clipped.max_y - self.domain.min_y) / h) as isize)
            .clamp(0, self.side as isize - 1) as usize;
        let mut total = 0.0;
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                let count = self.cells[cy * self.side + cx];
                if count <= 0.0 {
                    continue;
                }
                let cell = self.cell_rect(cx, cy);
                total += count * cell.coverage_by(&clipped);
            }
        }
        total
    }
}

/// Section tag for the histogram's snapshot frame.
const H2D_TAG: u32 = 0x4512_4096;

impl SelectivityEstimator for Histogram2D {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::H4096
    }

    fn insert(&mut self, obj: &GeoTextObject) {
        let (cx, cy) = self.cell_of(&obj.loc);
        self.cells[cy * self.side + cx] += 1.0;
        self.population += 1;
    }

    fn remove(&mut self, obj: &GeoTextObject) {
        let (cx, cy) = self.cell_of(&obj.loc);
        let cell = &mut self.cells[cy * self.side + cx];
        *cell = (*cell - 1.0).max(0.0);
        self.population = self.population.saturating_sub(1);
    }

    fn insert_batch(&mut self, objs: &[GeoTextObject]) {
        // Cell increments commute (whole counts, exact in f64), so one
        // population update covers the batch.
        for obj in objs {
            let (cx, cy) = self.cell_of(&obj.loc);
            self.cells[cy * self.side + cx] += 1.0;
        }
        self.population += objs.len() as u64;
    }

    fn remove_batch(&mut self, objs: &[GeoTextObject]) {
        // Per-cell clamped decrements are monotone, so applying them in
        // one sweep lands on the same `max(count - k, 0)` as one-at-a-time.
        for obj in objs {
            let (cx, cy) = self.cell_of(&obj.loc);
            let cell = &mut self.cells[cy * self.side + cx];
            *cell = (*cell - 1.0).max(0.0);
        }
        self.population = self.population.saturating_sub(objs.len() as u64);
    }

    fn estimate(&self, query: &RcDvq) -> f64 {
        match query.query_type() {
            QueryType::Spatial | QueryType::Hybrid => {
                // Hybrid: the keyword predicate is invisible to a purely
                // spatial summary; answer from the range alone.
                // LINT-ALLOW(no-panic): Spatial/Hybrid queries carry a range by construction
                self.estimate_range(query.range().expect("spatial/hybrid has range"))
            }
            // No spatial statistics apply: the least-wrong purely spatial
            // answer is the whole window.
            QueryType::Keyword => self.population as f64,
        }
    }

    fn memory_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<f64>() + std::mem::size_of::<Self>()
    }

    /// The population, then every cell's count in row-major order; the
    /// domain and side are the configuration's.
    fn persist_state(&self, w: &mut PersistWriter) {
        w.section(H2D_TAG, |w| {
            w.put_u64(self.population);
            for &count in &self.cells {
                w.put_f64(count);
            }
        });
    }

    fn restore_state(&mut self, r: &mut PersistReader<'_>) -> Result<(), PersistError> {
        let section = r.begin_section(H2D_TAG, "Histogram2D")?;
        self.population = r.take_u64("Histogram2D.population")?;
        for count in &mut self.cells {
            *count = r.take_f64("Histogram2D.cells")?;
        }
        r.finish_section(section, "Histogram2D")
    }

    fn population(&self) -> u64 {
        self.population
    }

    #[cfg(feature = "debug-invariants")]
    fn audit(&self) -> Result<(), geostream::AuditError> {
        Histogram2D::audit(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::{ObjectId, Timestamp};

    fn config() -> EstimatorConfig {
        EstimatorConfig {
            domain: Rect::new(0.0, 0.0, 64.0, 64.0),
            grid_cells: 4_096, // 64×64 ⇒ cell size 1×1
            ..EstimatorConfig::default()
        }
    }

    fn obj(id: u64, x: f64, y: f64) -> GeoTextObject {
        GeoTextObject::new(ObjectId(id), Point::new(x, y), vec![], Timestamp::ZERO)
    }

    #[test]
    fn exact_for_cell_aligned_ranges() {
        let mut h = Histogram2D::new(&config());
        for i in 0..10 {
            h.insert(&obj(i, 5.5, 5.5)); // all in cell (5,5)
        }
        for i in 0..4 {
            h.insert(&obj(100 + i, 20.5, 20.5));
        }
        let q = RcDvq::spatial(Rect::new(5.0, 5.0, 6.0, 6.0));
        assert!((h.estimate(&q) - 10.0).abs() < 1e-9);
        let q_all = RcDvq::spatial(Rect::new(0.0, 0.0, 64.0, 64.0));
        assert!((h.estimate(&q_all) - 14.0).abs() < 1e-9);
    }

    #[test]
    fn partial_cells_scaled_by_coverage() {
        let mut h = Histogram2D::new(&config());
        for i in 0..8 {
            h.insert(&obj(i, 10.5, 10.5));
        }
        // Query covers the left half of cell (10,10).
        let q = RcDvq::spatial(Rect::new(10.0, 10.0, 10.5, 11.0));
        assert!((h.estimate(&q) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn remove_retracts_counts() {
        let mut h = Histogram2D::new(&config());
        let o = obj(1, 3.5, 3.5);
        h.insert(&o);
        h.insert(&obj(2, 3.5, 3.5));
        h.remove(&o);
        let q = RcDvq::spatial(Rect::new(3.0, 3.0, 4.0, 4.0));
        assert!((h.estimate(&q) - 1.0).abs() < 1e-9);
        assert_eq!(h.population(), 1);
    }

    #[test]
    fn keyword_query_falls_back_to_population() {
        let mut h = Histogram2D::new(&config());
        for i in 0..6 {
            h.insert(&obj(i, 1.0, 1.0));
        }
        let q = RcDvq::keyword(vec![geostream::KeywordId(7)]);
        assert_eq!(h.estimate(&q), 6.0);
    }

    #[test]
    fn hybrid_uses_spatial_only() {
        let mut h = Histogram2D::new(&config());
        for i in 0..5 {
            h.insert(&obj(i, 2.5, 2.5));
        }
        let q = RcDvq::hybrid(Rect::new(2.0, 2.0, 3.0, 3.0), vec![geostream::KeywordId(1)]);
        // Ignores the keyword predicate: returns the spatial count.
        assert!((h.estimate(&q) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_domain_query_is_zero() {
        let mut h = Histogram2D::new(&config());
        h.insert(&obj(1, 5.0, 5.0));
        let q = RcDvq::spatial(Rect::new(100.0, 100.0, 110.0, 110.0));
        assert_eq!(h.estimate(&q), 0.0);
    }

    #[test]
    fn domain_boundary_points_are_counted() {
        let mut h = Histogram2D::new(&config());
        h.insert(&obj(1, 64.0, 64.0)); // top-right corner clamps to last cell
        let q = RcDvq::spatial(Rect::new(63.0, 63.0, 64.0, 64.0));
        assert!((h.estimate(&q) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memory_scales_with_budget() {
        let small = Histogram2D::new(&config());
        let big = Histogram2D::new(&EstimatorConfig {
            memory_budget: 4.0,
            ..config()
        });
        assert!(big.memory_bytes() > small.memory_bytes() * 3);
    }

    #[test]
    fn persist_round_trip_is_bit_identical() {
        let mut orig = Histogram2D::new(&config());
        for i in 0..3_000u64 {
            orig.insert(&obj(i, (i % 64) as f64 + 0.5, (i % 61) as f64 + 0.5));
            if i % 3 == 0 {
                orig.remove(&obj(i, (i % 64) as f64 + 0.5, (i % 61) as f64 + 0.5));
            }
        }
        let back = crate::traits::reload(&orig, Histogram2D::new(&config()));
        assert_eq!(back.population(), orig.population());
        assert_eq!(back.side(), orig.side());
        let q = RcDvq::spatial(Rect::new(3.3, 7.1, 41.9, 52.4));
        assert_eq!(orig.estimate(&q).to_bits(), back.estimate(&q).to_bits());
        #[cfg(feature = "debug-invariants")]
        back.audit().unwrap();
        // Truncations are typed errors.
        let mut w = PersistWriter::new();
        orig.persist_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = PersistReader::new(&bytes[..bytes.len() / 3]);
        assert!(Histogram2D::new(&config()).restore_state(&mut r).is_err());
    }

    #[test]
    fn remove_never_goes_negative() {
        let mut h = Histogram2D::new(&config());
        let o = obj(1, 5.0, 5.0);
        h.remove(&o); // retract before insert: clamps at zero
        let q = RcDvq::spatial(Rect::new(0.0, 0.0, 64.0, 64.0));
        assert_eq!(h.estimate(&q), 0.0);
        assert_eq!(h.population(), 0);
    }
}
