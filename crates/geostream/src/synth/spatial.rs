//! Spatial location models.

use crate::geometry::{Point, Rect};
use crate::rng::StreamRng;
use crate::time::Timestamp;

/// A generator of object locations. Implementations may depend on virtual
/// time to model drifting distributions.
pub trait SpatialModel {
    /// Draws a location at virtual time `t`.
    fn sample(&self, rng: &mut StreamRng, t: Timestamp) -> Point;

    /// The spatial domain all samples fall into.
    fn domain(&self) -> Rect;
}

/// Uniform locations over a rectangle.
#[derive(Debug, Clone)]
pub struct UniformSpatial {
    domain: Rect,
}

impl UniformSpatial {
    pub fn new(domain: Rect) -> Self {
        UniformSpatial { domain }
    }
}

impl SpatialModel for UniformSpatial {
    fn sample(&self, rng: &mut StreamRng, _t: Timestamp) -> Point {
        Point::new(
            rng.gen_range_f64_inclusive(self.domain.min_x..=self.domain.max_x),
            rng.gen_range_f64_inclusive(self.domain.min_y..=self.domain.max_y),
        )
    }

    fn domain(&self) -> Rect {
        self.domain
    }
}

/// One Gaussian hotspot of a mixture.
#[derive(Debug, Clone)]
pub struct Hotspot {
    pub center: Point,
    /// Standard deviation along x (degrees).
    pub sigma_x: f64,
    /// Standard deviation along y (degrees).
    pub sigma_y: f64,
    /// Unnormalized mixture weight.
    pub weight: f64,
}

/// A mixture of Gaussian hotspots with a uniform background component,
/// clamped to the domain rectangle. This is the workhorse spatial model:
/// geotagged social data is strongly multi-modal around population centers.
///
/// When `drift_period` is set, the hotspot weights rotate over time: at any
/// instant one hotspot is "in season" and receives `seasonal_boost` times
/// its base weight, moving the spatial mass around the domain — the paper's
/// streams exhibit exactly this kind of distribution change, which is what
/// the adaptive estimators must track.
#[derive(Debug, Clone)]
pub struct GaussianMixture {
    domain: Rect,
    hotspots: Vec<Hotspot>,
    /// Probability of drawing from the uniform background instead of a
    /// hotspot.
    background: f64,
    drift_period: Option<crate::time::Duration>,
    seasonal_boost: f64,
}

impl GaussianMixture {
    /// Builds a mixture from explicit hotspots.
    ///
    /// `background` is the probability mass of the uniform component and
    /// must be in `[0, 1]`.
    pub fn new(domain: Rect, hotspots: Vec<Hotspot>, background: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&background),
            "background must be a probability"
        );
        assert!(
            !hotspots.is_empty() || background > 0.0,
            "mixture needs at least one component"
        );
        GaussianMixture {
            domain,
            hotspots,
            background,
            drift_period: None,
            seasonal_boost: 1.0,
        }
    }

    /// Places `n` hotspots deterministically (from `seed`) inside `domain`,
    /// with standard deviations of `sigma_frac` of the domain extent.
    pub fn scattered(domain: Rect, n: usize, sigma_frac: f64, background: f64, seed: u64) -> Self {
        let mut rng = StreamRng::seed_from_u64(seed);
        let hotspots = (0..n)
            .map(|_| {
                // Keep centers off the very edge so most mass stays in-domain.
                let fx = rng.gen_range_f64(0.1..0.9);
                let fy = rng.gen_range_f64(0.1..0.9);
                Hotspot {
                    center: Point::new(
                        domain.min_x + fx * domain.width(),
                        domain.min_y + fy * domain.height(),
                    ),
                    sigma_x: sigma_frac * domain.width(),
                    sigma_y: sigma_frac * domain.height(),
                    weight: rng.gen_range_f64(0.5..1.5),
                }
            })
            .collect();
        GaussianMixture::new(domain, hotspots, background)
    }

    /// Enables seasonal drift: every `period`, the "in season" hotspot
    /// advances by one, and the seasonal hotspot's weight is multiplied by
    /// `boost`.
    pub fn with_drift(mut self, period: crate::time::Duration, boost: f64) -> Self {
        assert!(period.millis() > 0, "drift period must be positive");
        assert!(boost >= 1.0, "boost must be >= 1");
        self.drift_period = Some(period);
        self.seasonal_boost = boost;
        self
    }

    /// The hotspots of the mixture.
    pub fn hotspots(&self) -> &[Hotspot] {
        &self.hotspots
    }

    fn seasonal_index(&self, t: Timestamp) -> Option<usize> {
        let period = self.drift_period?;
        if self.hotspots.is_empty() {
            return None;
        }
        Some(((t.millis() / period.millis()) as usize) % self.hotspots.len())
    }

    fn pick_hotspot(&self, rng: &mut StreamRng, t: Timestamp) -> &Hotspot {
        let season = self.seasonal_index(t);
        let total: f64 = self
            .hotspots
            .iter()
            .enumerate()
            .map(|(i, h)| {
                if Some(i) == season {
                    h.weight * self.seasonal_boost
                } else {
                    h.weight
                }
            })
            .sum();
        let mut u = rng.gen_range_f64(0.0..total);
        for (i, h) in self.hotspots.iter().enumerate() {
            let w = if Some(i) == season {
                h.weight * self.seasonal_boost
            } else {
                h.weight
            };
            if u < w {
                return h;
            }
            u -= w;
        }
        // LINT-ALLOW(no-panic): the hotspot list is verified non-empty at construction
        self.hotspots.last().expect("non-empty checked")
    }
}

/// Draws a standard normal variate via the Box–Muller transform.
fn standard_normal(rng: &mut StreamRng) -> f64 {
    // Guard against ln(0).
    let u1 = rng.gen_range_f64(f64::MIN_POSITIVE..1.0);
    let u2 = rng.gen_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl SpatialModel for GaussianMixture {
    fn sample(&self, rng: &mut StreamRng, t: Timestamp) -> Point {
        if self.hotspots.is_empty() || rng.gen_bool(self.background) {
            return UniformSpatial::new(self.domain).sample(rng, t);
        }
        let h = self.pick_hotspot(rng, t);
        let x = h.center.x + standard_normal(rng) * h.sigma_x;
        let y = h.center.y + standard_normal(rng) * h.sigma_y;
        Point::new(
            x.clamp(self.domain.min_x, self.domain.max_x),
            y.clamp(self.domain.min_y, self.domain.max_y),
        )
    }

    fn domain(&self) -> Rect {
        self.domain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    const DOMAIN: Rect = Rect {
        min_x: -10.0,
        min_y: -10.0,
        max_x: 10.0,
        max_y: 10.0,
    };

    #[test]
    fn uniform_stays_in_domain() {
        let m = UniformSpatial::new(DOMAIN);
        let mut rng = StreamRng::seed_from_u64(1);
        for _ in 0..1_000 {
            let p = m.sample(&mut rng, Timestamp::ZERO);
            assert!(DOMAIN.contains(&p));
        }
    }

    #[test]
    fn mixture_stays_in_domain() {
        let m = GaussianMixture::scattered(DOMAIN, 4, 0.05, 0.1, 7);
        let mut rng = StreamRng::seed_from_u64(2);
        for _ in 0..1_000 {
            let p = m.sample(&mut rng, Timestamp::ZERO);
            assert!(DOMAIN.contains(&p));
        }
    }

    #[test]
    fn mixture_is_skewed_toward_hotspots() {
        let h = Hotspot {
            center: Point::new(5.0, 5.0),
            sigma_x: 0.5,
            sigma_y: 0.5,
            weight: 1.0,
        };
        let m = GaussianMixture::new(DOMAIN, vec![h], 0.0);
        let mut rng = StreamRng::seed_from_u64(3);
        let near = Rect::new(3.0, 3.0, 7.0, 7.0);
        let hits = (0..2_000)
            .filter(|_| near.contains(&m.sample(&mut rng, Timestamp::ZERO)))
            .count();
        // Essentially everything should land within 4 sigma of the center.
        assert!(hits > 1_900, "only {hits}/2000 near hotspot");
    }

    #[test]
    fn background_component_spreads_mass() {
        let h = Hotspot {
            center: Point::new(5.0, 5.0),
            sigma_x: 0.1,
            sigma_y: 0.1,
            weight: 1.0,
        };
        let m = GaussianMixture::new(DOMAIN, vec![h], 0.5);
        let mut rng = StreamRng::seed_from_u64(4);
        let far = Rect::new(-10.0, -10.0, 0.0, 0.0); // quarter of the domain
        let hits = (0..4_000)
            .filter(|_| far.contains(&m.sample(&mut rng, Timestamp::ZERO)))
            .count();
        // Background alone should put ~ 0.5 * 0.25 = 12.5% of mass there.
        assert!(hits > 300, "background not spreading mass: {hits}");
    }

    #[test]
    fn drift_moves_mass_between_hotspots() {
        let a = Hotspot {
            center: Point::new(-5.0, -5.0),
            sigma_x: 0.2,
            sigma_y: 0.2,
            weight: 1.0,
        };
        let b = Hotspot {
            center: Point::new(5.0, 5.0),
            sigma_x: 0.2,
            sigma_y: 0.2,
            weight: 1.0,
        };
        let m = GaussianMixture::new(DOMAIN, vec![a, b], 0.0).with_drift(Duration(1_000), 50.0);
        let mut rng = StreamRng::seed_from_u64(5);
        let near_a = Rect::new(-7.0, -7.0, -3.0, -3.0);
        let at = |t: u64, rng: &mut StreamRng| {
            (0..1_000)
                .filter(|_| near_a.contains(&m.sample(rng, Timestamp(t))))
                .count()
        };
        let season_a = at(0, &mut rng); // hotspot 0 in season
        let season_b = at(1_500, &mut rng); // hotspot 1 in season
        assert!(
            season_a > season_b + 200,
            "drift had no effect: {season_a} vs {season_b}"
        );
    }

    #[test]
    fn scattered_is_deterministic_per_seed() {
        let m1 = GaussianMixture::scattered(DOMAIN, 3, 0.05, 0.0, 42);
        let m2 = GaussianMixture::scattered(DOMAIN, 3, 0.05, 0.0, 42);
        for (a, b) in m1.hotspots().iter().zip(m2.hotspots()) {
            assert_eq!(a.center, b.center);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_background() {
        let _ = GaussianMixture::new(DOMAIN, vec![], 1.5);
    }
}
