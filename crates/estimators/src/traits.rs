//! The estimator abstraction LATEST builds on.

use geostream::{GeoTextObject, Persist, PersistError, PersistReader, PersistWriter, RcDvq, Rect};

/// Identity of an estimator implementation. This is the *class label* of
/// LATEST's Hoeffding tree: the learning model's job is to predict the best
/// `EstimatorKind` for the current workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// 2D equi-width histogram (the paper's `H4096`).
    H4096,
    /// Reservoir sampling list.
    Rsl,
    /// Reservoir sampling hashmap (reservoir indexed by a grid).
    Rsh,
    /// Augmented adaptive space-partition tree.
    Aasp,
    /// Workload-driven feed-forward neural network.
    Ffn,
    /// Data-driven sum-product network.
    Spn,
}

impl EstimatorKind {
    /// Number of estimator kinds (length of [`EstimatorKind::ALL`]) —
    /// sizes per-kind metric arrays without a magic `6`.
    pub const COUNT: usize = 6;

    /// All kinds, in stable label order (index = Hoeffding class id).
    pub const ALL: [EstimatorKind; Self::COUNT] = [
        EstimatorKind::H4096,
        EstimatorKind::Rsl,
        EstimatorKind::Rsh,
        EstimatorKind::Aasp,
        EstimatorKind::Ffn,
        EstimatorKind::Spn,
    ];

    /// Stable dense index (also the ML class label).
    pub fn index(self) -> u32 {
        match self {
            EstimatorKind::H4096 => 0,
            EstimatorKind::Rsl => 1,
            EstimatorKind::Rsh => 2,
            EstimatorKind::Aasp => 3,
            EstimatorKind::Ffn => 4,
            EstimatorKind::Spn => 5,
        }
    }

    /// Inverse of [`EstimatorKind::index`].
    pub fn from_index(i: u32) -> Option<EstimatorKind> {
        Self::ALL.get(i as usize).copied()
    }

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            EstimatorKind::H4096 => "H4096",
            EstimatorKind::Rsl => "RSL",
            EstimatorKind::Rsh => "RSH",
            EstimatorKind::Aasp => "AASP",
            EstimatorKind::Ffn => "FFN",
            EstimatorKind::Spn => "SPN",
        }
    }
}

impl std::fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Sizing and domain parameters shared by all estimators.
///
/// `memory_budget` scales every structure the way the paper's §VI-F sweep
/// does: `1.0` reproduces the §VI-A defaults scaled to laptop size
/// (reservoirs of `100K` objects, 4096 grid cells), `2.0` doubles them, and
/// so on.
#[derive(Debug, Clone)]
pub struct EstimatorConfig {
    /// The spatial domain of the stream.
    pub domain: Rect,
    /// Relative memory budget multiplier (1.0 = defaults).
    pub memory_budget: f64,
    /// Base reservoir capacity before the budget multiplier.
    pub reservoir_capacity: usize,
    /// Base number of histogram grid cells (must be a perfect square for
    /// the equi-width grid) before the budget multiplier.
    pub grid_cells: usize,
    /// AASP split threshold: a leaf splits when its share of the window
    /// population exceeds `split_value × (capacity heuristic)`; the paper
    /// uses 0.5.
    pub aasp_split_value: f64,
    /// FFN training budget: feedback records consumed before the network
    /// freezes (the paper's FFN is batch-trained and cannot keep adapting;
    /// see `estimators::ffn`).
    pub ffn_train_budget: u64,
    /// RNG seed for the randomized structures (reservoirs, FFN init, SPN).
    pub seed: u64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            domain: Rect::WORLD,
            memory_budget: 1.0,
            reservoir_capacity: 100_000,
            grid_cells: 4_096,
            aasp_split_value: 0.5,
            ffn_train_budget: 1_500,
            seed: 0x001a_7e57,
        }
    }
}

impl EstimatorConfig {
    /// Checks that every sizing/domain parameter is usable by all six
    /// estimator kinds. [`try_build_estimator`] runs this before
    /// constructing anything, and `LatestConfig::validate` (in
    /// `latest-core`) surfaces the same errors at system-assembly time.
    pub fn validate(&self) -> Result<(), crate::EstimateError> {
        let invalid = |field: &'static str, reason: String| {
            Err(crate::EstimateError::InvalidConfig { field, reason })
        };
        if !(self.domain.max_x > self.domain.min_x && self.domain.max_y > self.domain.min_y) {
            return invalid(
                "domain",
                format!(
                    "must have positive extent (got x {}..{}, y {}..{})",
                    self.domain.min_x, self.domain.max_x, self.domain.min_y, self.domain.max_y
                ),
            );
        }
        if !(self.memory_budget.is_finite() && self.memory_budget > 0.0) {
            return invalid(
                "memory_budget",
                format!("must be positive and finite (got {})", self.memory_budget),
            );
        }
        if self.reservoir_capacity == 0 {
            return invalid("reservoir_capacity", "must be nonzero".into());
        }
        if self.grid_cells == 0 {
            return invalid("grid_cells", "must be nonzero".into());
        }
        if !(self.aasp_split_value.is_finite() && self.aasp_split_value > 0.0) {
            return invalid(
                "aasp_split_value",
                format!(
                    "must be positive and finite (got {})",
                    self.aasp_split_value
                ),
            );
        }
        Ok(())
    }

    /// Effective reservoir capacity after the budget multiplier.
    pub fn scaled_reservoir(&self) -> usize {
        ((self.reservoir_capacity as f64 * self.memory_budget) as usize).max(16)
    }

    /// Effective grid side length (cells per axis) after the budget
    /// multiplier, keeping the cell count a perfect square.
    pub fn scaled_grid_side(&self) -> usize {
        let cells = (self.grid_cells as f64 * self.memory_budget).max(4.0);
        (cells.sqrt().round() as usize).max(2)
    }
}

/// A streaming selectivity estimator for RC-DVQ queries.
///
/// Estimators are kept consistent with the sliding window by the driver:
/// every arriving object is [`insert`]ed and every expired object is
/// [`remove`]d. Workload-driven estimators additionally receive
/// [`observe_query`] feedback (query + actual selectivity from the system
/// logs) — data-structure estimators ignore it.
///
/// [`insert`]: SelectivityEstimator::insert
/// [`remove`]: SelectivityEstimator::remove
/// [`observe_query`]: SelectivityEstimator::observe_query
pub trait SelectivityEstimator: Send {
    /// Which estimator this is.
    fn kind(&self) -> EstimatorKind;

    /// Ingests an arriving window object.
    fn insert(&mut self, obj: &GeoTextObject);

    /// Retracts an object evicted from the window.
    fn remove(&mut self, obj: &GeoTextObject);

    /// Ingests a batch of arriving objects, in order.
    ///
    /// Must be *state-equivalent* to calling [`insert`] once per object in
    /// the same order (including the order randomized structures consume
    /// their RNG) — overrides may only amortize per-call overhead, never
    /// change the resulting estimates.
    ///
    /// [`insert`]: SelectivityEstimator::insert
    fn insert_batch(&mut self, objs: &[GeoTextObject]) {
        for obj in objs {
            self.insert(obj);
        }
    }

    /// Ingests an ordered sequence of object slices — the shape
    /// `WindowSnapshot::chunk_slices()` yields — as one bulk build. This is
    /// the entry a prefill candidate is built through (`latest_core::pool`).
    ///
    /// Must leave the same *observable state* as calling [`insert`] once
    /// per object in sequence order: the same `population`, arrivals-seen
    /// counter and RNG state, the same slot → object map in every sample,
    /// and for SPN the same `rebuilds` count and mixture components — hence
    /// bit-identical estimates now and after any further churn. Internals
    /// that no estimate or later decision reads may differ: posting
    /// generations and tombstones, keyword-pool layout, RSH's in-cell slot
    /// order (so `memory_bytes` and the persisted bytes may differ too; a
    /// bulk-built sample carries none of the garbage).
    ///
    /// The producer may cut the sequence short (a cancelled build, whose
    /// partial result is dropped), so it is pulled as far as it goes —
    /// lazily or collected up front — and taken as it came.
    ///
    /// Default: [`insert_batch`] per slice, which H4096, AASP and FFN keep.
    /// The reservoir family (RSL, RSH, SPN) overrides it with a decision
    /// pass that replays algorithm R's draws without touching an object and
    /// a materialise pass that writes each surviving slot once.
    ///
    /// [`insert`]: SelectivityEstimator::insert
    /// [`insert_batch`]: SelectivityEstimator::insert_batch
    fn insert_slices(&mut self, slices: &mut dyn Iterator<Item = &[GeoTextObject]>) {
        for slice in slices {
            self.insert_batch(slice);
        }
    }

    /// Retracts a batch of evicted objects, in order. Same equivalence
    /// contract as [`insert_batch`].
    ///
    /// [`insert_batch`]: SelectivityEstimator::insert_batch
    fn remove_batch(&mut self, objs: &[GeoTextObject]) {
        for obj in objs {
            self.remove(obj);
        }
    }

    /// Estimates the RC-DVQ selectivity (number of matching window
    /// objects). Never negative; may exceed the window size for rough
    /// estimators.
    #[must_use = "an estimate is a pure read; discarding it wastes the traversal"]
    fn estimate(&self, query: &RcDvq) -> f64;

    /// Estimates a batch of queries in one call.
    ///
    /// Must be *value-equivalent* to mapping [`estimate`] over `queries`
    /// in order — bit-identical `f64`s, since `estimate` is a pure read —
    /// so overrides may only amortize shared work across the batch (one
    /// column pass answering many rectangles, one posting-list merge
    /// shared by queries with common keywords), never change a result.
    ///
    /// [`estimate`]: SelectivityEstimator::estimate
    #[must_use = "estimates are pure reads; discarding them wastes the traversal"]
    fn estimate_batch(&self, queries: &[RcDvq]) -> Vec<f64> {
        queries.iter().map(|q| self.estimate(q)).collect()
    }

    /// Feedback after the query executed on actual data: the true
    /// selectivity from the system logs. Default: ignored.
    fn observe_query(&mut self, _query: &RcDvq, _actual: u64) {}

    /// Approximate heap footprint in bytes.
    fn memory_bytes(&self) -> usize;

    /// Number of window objects currently represented (the population the
    /// estimator scales to).
    fn population(&self) -> u64;

    /// Serializes the estimator's full state (counters, samples, model
    /// parameters, and internal RNG) into `w`, such that
    /// [`restore_boxed`] rebuilds a bit-identical estimator: continuing
    /// the stream on the restored instance must produce the same estimates
    /// as never having snapshotted.
    fn persist_state(&self, w: &mut PersistWriter);

    /// Deep invariant audit (the `debug-invariants` feature): a full walk
    /// that re-derives the estimator's maintained counters and checks its
    /// internal structures for corruption. The default has nothing to
    /// audit.
    #[cfg(feature = "debug-invariants")]
    fn audit(&self) -> Result<(), geostream::AuditError> {
        Ok(())
    }
}

/// Convenience alias for a boxed estimator.
pub type BoxedEstimator = Box<dyn SelectivityEstimator>;

/// Builds a fresh (empty) estimator of `kind` under `config`, validating
/// the configuration first. This is the fallible entry point; systems that
/// assemble configs from user input should prefer it over
/// [`build_estimator`].
pub fn try_build_estimator(
    kind: EstimatorKind,
    config: &EstimatorConfig,
) -> Result<BoxedEstimator, crate::EstimateError> {
    config.validate()?;
    Ok(match kind {
        EstimatorKind::H4096 => Box::new(crate::histogram2d::Histogram2D::new(config)),
        EstimatorKind::Rsl => Box::new(crate::reservoir::ReservoirList::new(config)),
        EstimatorKind::Rsh => Box::new(crate::reservoir_hash::ReservoirHash::new(config)),
        EstimatorKind::Aasp => Box::new(crate::aasp::AaspTree::new(config)),
        EstimatorKind::Ffn => Box::new(crate::ffn::FfnEstimator::new(config)),
        EstimatorKind::Spn => Box::new(crate::spn::SpnEstimator::new(config)),
    })
}

/// Builds a fresh (empty) estimator of `kind` under `config`. This is the
/// factory the estimator adaptor uses when it starts pre-filling a
/// recommended replacement (§V-D).
///
/// # Panics
/// Panics if `config` fails [`EstimatorConfig::validate`]; use
/// [`try_build_estimator`] to handle invalid configs as a typed error.
pub fn build_estimator(kind: EstimatorKind, config: &EstimatorConfig) -> BoxedEstimator {
    // LINT-ALLOW(no-panic): documented panicking convenience wrapper; the
    // fallible path is try_build_estimator, and LatestConfig::validate
    // rejects invalid estimator configs before any system reaches here.
    try_build_estimator(kind, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Serializes a boxed estimator with its kind tag, so [`restore_boxed`]
/// can rebuild the right concrete type without the caller tracking it.
pub fn persist_boxed(est: &dyn SelectivityEstimator, w: &mut PersistWriter) {
    w.put_u32(est.kind().index());
    est.persist_state(w);
}

/// Inverse of [`persist_boxed`]: reads the kind tag, then dispatches to
/// the matching concrete `Persist::restore`.
pub fn restore_boxed(r: &mut PersistReader<'_>) -> Result<BoxedEstimator, PersistError> {
    let idx = r.take_u32("BoxedEstimator.kind")?;
    let kind = EstimatorKind::from_index(idx).ok_or_else(|| PersistError::Corrupt {
        context: "BoxedEstimator.kind",
        detail: format!("unknown estimator kind index {idx}"),
    })?;
    Ok(match kind {
        EstimatorKind::H4096 => Box::new(crate::histogram2d::Histogram2D::restore(r)?),
        EstimatorKind::Rsl => Box::new(crate::reservoir::ReservoirList::restore(r)?),
        EstimatorKind::Rsh => Box::new(crate::reservoir_hash::ReservoirHash::restore(r)?),
        EstimatorKind::Aasp => Box::new(crate::aasp::AaspTree::restore(r)?),
        EstimatorKind::Ffn => Box::new(crate::ffn::FfnEstimator::restore(r)?),
        EstimatorKind::Spn => Box::new(crate::spn::SpnEstimator::restore(r)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_persist_round_trips_every_kind() {
        use geostream::{KeywordId, ObjectId, Point, Timestamp};
        let config = EstimatorConfig {
            domain: Rect::new(0.0, 0.0, 100.0, 100.0),
            reservoir_capacity: 400,
            ffn_train_budget: u64::MAX,
            ..EstimatorConfig::default()
        };
        for kind in EstimatorKind::ALL {
            let mut orig = build_estimator(kind, &config);
            for i in 0..2_500u64 {
                let o = GeoTextObject::new(
                    ObjectId(i),
                    Point::new((i % 100) as f64, (i % 97) as f64),
                    vec![KeywordId((i % 40) as u32)],
                    Timestamp::ZERO,
                );
                orig.insert(&o);
            }
            let probe = RcDvq::hybrid(Rect::new(10.0, 10.0, 70.0, 60.0), vec![KeywordId(3)]);
            orig.observe_query(&probe, 500);

            let mut w = PersistWriter::new();
            persist_boxed(orig.as_ref(), &mut w);
            let bytes = w.into_bytes();
            let mut r = PersistReader::new(&bytes);
            let mut back = restore_boxed(&mut r).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(r.is_exhausted(), "{kind}: trailing bytes");
            assert_eq!(back.kind(), kind);
            assert_eq!(back.population(), orig.population());
            assert_eq!(
                orig.estimate(&probe).to_bits(),
                back.estimate(&probe).to_bits(),
                "{kind}: estimate drifted through the snapshot"
            );
            // Continued ingestion must stay bit-identical too.
            for i in 2_500..3_000u64 {
                let o = GeoTextObject::new(
                    ObjectId(i),
                    Point::new((i % 100) as f64, (i % 89) as f64),
                    vec![KeywordId((i % 40) as u32)],
                    Timestamp::ZERO,
                );
                orig.insert(&o);
                back.insert(&o);
            }
            assert_eq!(
                orig.estimate(&probe).to_bits(),
                back.estimate(&probe).to_bits(),
                "{kind}: post-restore churn diverged"
            );
        }
        // An unknown kind tag is a typed error.
        let mut w = PersistWriter::new();
        w.put_u32(99);
        let bytes = w.into_bytes();
        let mut r = PersistReader::new(&bytes);
        assert!(restore_boxed(&mut r).is_err());
    }

    #[test]
    fn kind_indices_round_trip() {
        for kind in EstimatorKind::ALL {
            assert_eq!(EstimatorKind::from_index(kind.index()), Some(kind));
        }
        assert_eq!(EstimatorKind::from_index(6), None);
    }

    #[test]
    fn kind_names_match_paper() {
        let names: Vec<&str> = EstimatorKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["H4096", "RSL", "RSH", "AASP", "FFN", "SPN"]);
        assert_eq!(format!("{}", EstimatorKind::Rsh), "RSH");
    }

    #[test]
    fn config_scaling() {
        let mut c = EstimatorConfig::default();
        assert_eq!(c.scaled_grid_side(), 64); // 4096 cells
        assert_eq!(c.scaled_reservoir(), 100_000);
        c.memory_budget = 4.0;
        assert_eq!(c.scaled_grid_side(), 128);
        assert_eq!(c.scaled_reservoir(), 400_000);
        c.memory_budget = 1e-9;
        assert!(c.scaled_reservoir() >= 16);
        assert!(c.scaled_grid_side() >= 2);
    }

    #[test]
    fn invalid_configs_surface_typed_errors() {
        use crate::EstimateError;
        let cases: [(&str, EstimatorConfig); 4] = [
            (
                "memory_budget",
                EstimatorConfig {
                    memory_budget: 0.0,
                    ..EstimatorConfig::default()
                },
            ),
            (
                "reservoir_capacity",
                EstimatorConfig {
                    reservoir_capacity: 0,
                    ..EstimatorConfig::default()
                },
            ),
            (
                "grid_cells",
                EstimatorConfig {
                    grid_cells: 0,
                    ..EstimatorConfig::default()
                },
            ),
            (
                "aasp_split_value",
                EstimatorConfig {
                    aasp_split_value: f64::NAN,
                    ..EstimatorConfig::default()
                },
            ),
        ];
        for (expect_field, config) in cases {
            let err = try_build_estimator(EstimatorKind::Rsl, &config)
                .err()
                .unwrap_or_else(|| panic!("{expect_field} should be rejected"));
            let EstimateError::InvalidConfig { field, .. } = err;
            assert_eq!(field, expect_field);
        }
        assert!(try_build_estimator(EstimatorKind::Rsl, &EstimatorConfig::default()).is_ok());
    }

    #[test]
    fn factory_builds_every_kind() {
        let config = EstimatorConfig {
            reservoir_capacity: 100,
            ..EstimatorConfig::default()
        };
        for kind in EstimatorKind::ALL {
            let e = build_estimator(kind, &config);
            assert_eq!(e.kind(), kind);
            assert_eq!(e.population(), 0);
        }
    }
}
