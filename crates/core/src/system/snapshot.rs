//! Snapshot and restore of a whole `Latest` (the payload; `crate::persist`
//! owns the file envelope).

use super::prefill::PrefillSlot;
use super::{Latest, Phase};
use crate::adaptor::Adaptor;
use crate::cache::SelectivityCache;
use crate::config::{AblationConfig, LatestConfig};
use crate::obsv::{LifecycleEvent, MetricsRegistry};
use crate::pool::{EstimatorPool, PrefillBuilder};
use crate::shard::{RouterPolicy, ShardConfig};
use estimators::{EstimatorConfig, EstimatorKind};
use exactdb::ExactExecutor;
use geostream::{Persist, SlidingWindow};
use hoeffding::HoeffdingTreeConfig;

/// Snapshot/restore: the crash-consistent persistence path.
///
/// A snapshot is the window plus what was learned: the window's objects,
/// every live estimator's samples, model and counters (with its sampler RNG
/// state), the adaptor's state (the learning model, recommender, scaler,
/// monitor, drift detector and workload mix), and the selectivity cache.
/// It says each thing once. The configuration is stored as a fingerprint
/// that restore checks, and restore builds every structure from that
/// configuration before reading back only what was sampled, learned or
/// counted.
/// A restored instance therefore produces exact counts equal to the
/// uninterrupted run's, and bit-identical estimates as long as the
/// window's live object ids are distinct (the sampling estimators key on
/// the id, and a sample holding one twice is refused on restore). Its
/// size is a function of the window, the estimators and the model — not
/// of how many queries were answered before it was taken.
///
/// Deliberately *not* persisted:
///
/// * anything the configuration fixes — the window's span, each
///   estimator's domain, grid, capacity, cluster and bin counts, the
///   network's widths and learning rates, the model's schema and tuning,
///   the monitor's and the cache's capacities, α and the adaptor's
///   thresholds;
/// * the exact executor — the paper's "system logs" source, a function of
///   the window alone. Restore rebuilds it from the restored window on the
///   configured backend, so its ring numbering restarts at zero and the
///   quadtree comes back in fresh node shape; neither reaches an answer
///   (the hybrid planner may pick the other access path, which changes
///   latency only);
/// * what restore rebuilds from the samples and the model: each sample's
///   posting index, slot generations and keyword-pool garbage (a restored
///   sample has the compact layout a bulk build leaves), RSH's grid cells,
///   the AASP tree's node rectangles, the Hoeffding tree's leaf depths and
///   the window's chunk layout. None of them reaches an answer;
/// * the [`MetricsRegistry`] — observability counters, the executor's
///   path-mix counters among them, restart at zero (a restart is an
///   observable event; hiding it would be lying);
/// * the prefill builder worker — recreated lazily on first use;
/// * the eviction scratch buffer.
///
/// An in-flight background prefill build cannot be persisted (it lives on
/// another thread), so the snapshot path first *settles* it: the build is
/// resolved exactly as activation would — wait for the worker, replay the
/// delta tail — leaving a `Ready` candidate that is bit-equal to one
/// maintained inline. That is why snapshotting takes `&mut self`.
impl Latest {
    /// Fingerprint of the configuration, stored in the snapshot and
    /// re-checked on restore: a snapshot only restores under a configuration
    /// that agrees with the one that produced it on every setting that
    /// shapes the persisted state or the answers given after the restore.
    ///
    /// It is the FNV-1a checksum of an explicit [`PersistWriter`] encoding,
    /// in this fixed order (the order is part of the snapshot format; a
    /// change is a `FORMAT_VERSION` bump):
    ///
    /// 1. `window_span`, `warmup`, `pretrain_queries`;
    /// 2. `tau`, `beta`, `alpha`;
    /// 3. `accuracy_window`, `min_switch_spacing`, `switch_margin`,
    ///    `default_estimator`;
    /// 4. `estimator_config`: `domain`, `memory_budget`,
    ///    `reservoir_capacity`, `grid_cells`, `aasp_split_value`,
    ///    `ffn_train_budget`, `seed`;
    /// 5. `tree_config`: `grace_period`, `split_confidence`,
    ///    `tie_threshold`, `num_split_points`, `max_depth`;
    /// 6. `shadow_metrics`, `selectivity_cache_capacity`;
    /// 7. `shard.shards`, `shard.router`;
    /// 8. `ablation`: `prefill`, `use_tree`, `mix_recommendation`,
    ///    `switching`.
    ///
    /// Left out on purpose, because they bound latency and memory and
    /// cannot change an answer: `shard.queue_capacity` (backpressure),
    /// `prefill_delta_cap` (when a background build restarts; the activated
    /// candidate is bit-equal either way) and `index_kind` (the exact
    /// executor is rebuilt from the restored window on the configured
    /// backend, and both backends return the same counts). An operator may
    /// retune all three across a restart.
    ///
    /// Every struct is destructured without `..`, so a new field fails to
    /// compile here until someone decides which of the two lists it joins.
    ///
    /// [`PersistWriter`]: geostream::PersistWriter
    fn config_fingerprint(config: &LatestConfig) -> u64 {
        let LatestConfig {
            window_span,
            warmup,
            pretrain_queries,
            tau,
            beta,
            alpha,
            accuracy_window,
            min_switch_spacing,
            switch_margin,
            default_estimator,
            estimator_config,
            tree_config,
            index_kind: _,
            shadow_metrics,
            selectivity_cache_capacity,
            shard,
            prefill_delta_cap: _,
            ablation,
        } = config;
        let EstimatorConfig {
            domain,
            memory_budget,
            reservoir_capacity,
            grid_cells,
            aasp_split_value,
            ffn_train_budget,
            seed,
        } = estimator_config;
        let HoeffdingTreeConfig {
            grace_period,
            split_confidence,
            tie_threshold,
            num_split_points,
            max_depth,
        } = tree_config;
        let ShardConfig {
            shards,
            queue_capacity: _,
            router,
        } = shard;
        let AblationConfig {
            prefill,
            use_tree,
            mix_recommendation,
            switching,
        } = ablation;

        let mut w = geostream::PersistWriter::new();
        window_span.persist(&mut w);
        warmup.persist(&mut w);
        w.put_usize(*pretrain_queries);
        w.put_f64(*tau);
        w.put_f64(*beta);
        w.put_f64(*alpha);
        w.put_usize(*accuracy_window);
        w.put_usize(*min_switch_spacing);
        w.put_f64(*switch_margin);
        crate::persist::persist_kind(&mut w, *default_estimator);
        domain.persist(&mut w);
        w.put_f64(*memory_budget);
        w.put_usize(*reservoir_capacity);
        w.put_usize(*grid_cells);
        w.put_f64(*aasp_split_value);
        w.put_u64(*ffn_train_budget);
        w.put_u64(*seed);
        w.put_u64(*grace_period);
        w.put_f64(*split_confidence);
        w.put_f64(*tie_threshold);
        w.put_usize(*num_split_points);
        w.put_usize(*max_depth);
        w.put_bool(*shadow_metrics);
        w.put_usize(*selectivity_cache_capacity);
        w.put_usize(*shards);
        w.put_u8(match router {
            RouterPolicy::HashOid => 0,
            RouterPolicy::SpatialTile => 1,
        });
        w.put_bool(*prefill);
        w.put_bool(*use_tree);
        w.put_bool(*mix_recommendation);
        w.put_bool(*switching);
        geostream::persist::checksum(&w.into_bytes())
    }

    /// Serializes the full system state (after settling any in-flight
    /// prefill) into a snapshot payload. Pair with [`Latest::restore`].
    pub fn snapshot_bytes(&mut self) -> Vec<u8> {
        self.settle_prefill_for_snapshot();
        let mut w = geostream::PersistWriter::new();
        w.put_u64(Self::config_fingerprint(&self.config));
        self.window.persist(&mut w);
        self.adaptor.persist(&mut w);
        self.cache.persist(&mut w);
        w.put_u64(self.queries_seen);
        match &self.phase {
            Phase::WarmUp { pool } => {
                w.put_u8(0);
                Self::persist_pool(&mut w, pool);
            }
            Phase::PreTraining { pool } => {
                w.put_u8(1);
                Self::persist_pool(&mut w, pool);
            }
            Phase::Incremental {
                active,
                prefill,
                shadow,
            } => {
                w.put_u8(2);
                estimators::persist_boxed(active.as_ref(), &mut w);
                match prefill {
                    // An in-flight build was settled above; only Idle and
                    // Ready remain representable.
                    PrefillSlot::Idle | PrefillSlot::Building { .. } => w.put_u8(0),
                    PrefillSlot::Ready(p) => {
                        w.put_u8(1);
                        estimators::persist_boxed(p.as_ref(), &mut w);
                    }
                }
                Self::persist_pool(&mut w, shadow);
            }
        }
        w.into_bytes()
    }

    fn persist_pool(w: &mut geostream::PersistWriter, pool: &EstimatorPool) {
        let ests = pool.estimators();
        w.put_usize(ests.len());
        for est in ests {
            estimators::persist_boxed(est.as_ref(), w);
        }
    }

    fn restore_pool(
        r: &mut geostream::PersistReader<'_>,
        config: &EstimatorConfig,
    ) -> Result<EstimatorPool, geostream::PersistError> {
        let len = r.take_usize("Latest.pool.len")?;
        if len > EstimatorKind::ALL.len() {
            return Err(geostream::PersistError::Corrupt {
                context: "Latest.pool",
                detail: format!(
                    "{len} estimators exceed the {} kinds",
                    EstimatorKind::ALL.len()
                ),
            });
        }
        let mut ests = Vec::with_capacity(len);
        for _ in 0..len {
            ests.push(estimators::restore_boxed(r, config)?);
        }
        Ok(EstimatorPool::new(ests))
    }

    /// Rebuilds an instance from [`Latest::snapshot_bytes`] output. The
    /// caller supplies the configuration, and it is the one source of every
    /// size and setting on restore: each structure is built from it, and
    /// only what was sampled, learned or counted is read back. A
    /// fingerprint check refuses payloads produced under a configuration
    /// that differs in a state- or answer-shaping setting. The three
    /// latency-only settings, `shard.queue_capacity`, `prefill_delta_cap`
    /// and `index_kind`, may differ.
    ///
    /// Restore is all-or-nothing: any decode failure returns the typed
    /// error and no instance.
    pub fn restore(config: LatestConfig, bytes: &[u8]) -> Result<Self, geostream::PersistError> {
        if let Err(e) = config.validate() {
            return Err(geostream::PersistError::Corrupt {
                context: "LatestConfig",
                detail: e.to_string(),
            });
        }
        let mut r = geostream::PersistReader::new(bytes);
        let fingerprint = r.take_u64("Latest.config_fingerprint")?;
        if fingerprint != Self::config_fingerprint(&config) {
            return Err(geostream::PersistError::Corrupt {
                context: "Latest.config_fingerprint",
                detail: "snapshot was taken under a different configuration".to_string(),
            });
        }
        let window = SlidingWindow::restore(&mut r, config.window_span)?;
        // The executor is a function of the window: rebuild it through the
        // calls `ingest_batch` makes.
        let mut executor = ExactExecutor::new(config.estimator_config.domain, config.index_kind);
        for chunk in window.chunk_slices() {
            executor.insert_batch(chunk);
        }
        let adaptor = Adaptor::restore(&mut r, &config)?;
        let cache = SelectivityCache::restore(&mut r, config.selectivity_cache_capacity)?;
        let queries_seen = r.take_u64("Latest.queries_seen")?;
        let ec = &config.estimator_config;
        let phase = match r.take_u8("Latest.phase")? {
            0 => Phase::WarmUp {
                pool: Self::restore_pool(&mut r, ec)?,
            },
            1 => Phase::PreTraining {
                pool: Self::restore_pool(&mut r, ec)?,
            },
            2 => {
                let active = estimators::restore_boxed(&mut r, ec)?;
                let prefill = match r.take_u8("Latest.prefill")? {
                    0 => PrefillSlot::Idle,
                    1 => PrefillSlot::Ready(estimators::restore_boxed(&mut r, ec)?),
                    d => {
                        return Err(geostream::PersistError::Corrupt {
                            context: "Latest.prefill",
                            detail: format!("unknown prefill tag {d}"),
                        })
                    }
                };
                Phase::Incremental {
                    active,
                    prefill,
                    shadow: Self::restore_pool(&mut r, ec)?,
                }
            }
            d => {
                return Err(geostream::PersistError::Corrupt {
                    context: "Latest.phase",
                    detail: format!("unknown phase discriminant {d}"),
                })
            }
        };
        let mut restored = Latest {
            window,
            executor,
            phase,
            adaptor,
            queries_seen,
            evict_buf: Vec::new(),
            cache,
            // Metrics restart at zero: the registry is process-local
            // observability, not answer-shaping state.
            metrics: MetricsRegistry::new(),
            builder: PrefillBuilder::new(),
            config,
        };
        // The registry restarts zeroed (metrics are per-process), but the
        // restored window arrives populated: count its occupants as
        // ingested so the flow identity `occupancy == ingested − evicted`
        // holds from the first post-restore scrape (the sharded audit
        // checks it across shards).
        restored
            .metrics
            .objects_ingested
            .add(restored.window.len() as u64);
        restored
            .metrics
            .events
            .record(LifecycleEvent::PhaseEntered {
                phase: restored.phase(),
                at: restored.window.now(),
            });
        Ok(restored)
    }

    /// Writes a crash-consistent snapshot file: the state is sealed
    /// (magic, version, length, checksum), written to a temporary sibling,
    /// fsynced, and atomically renamed over `path`. A crash mid-write
    /// leaves the previous snapshot (or none), never a torn file.
    pub fn save_snapshot(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), geostream::PersistError> {
        let payload = self.snapshot_bytes();
        crate::persist::write_snapshot_file(
            path.as_ref(),
            &crate::persist::SNAPSHOT_MAGIC,
            &payload,
        )
    }

    /// Restores an instance from a [`Latest::save_snapshot`] file. Torn,
    /// truncated, or bit-rotted files surface as typed
    /// [`PersistError`](geostream::PersistError)s — never a panic or a
    /// half-restored system.
    pub fn load_snapshot(
        config: LatestConfig,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, geostream::PersistError> {
        let payload =
            crate::persist::read_snapshot_file(path.as_ref(), &crate::persist::SNAPSHOT_MAGIC)?;
        Self::restore(config, &payload)
    }
}
