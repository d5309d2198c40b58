//! The Estimator Adaptor (§V-D): what is learned from an answer, and when
//! to pre-fill or switch. `Latest` hands the [`Adaptor`] one
//! [`Observation`] per incremental answer and executes the [`Decision`] it
//! returns; the adaptor reads no clock, window or estimator.
//!
//! Its [`Recommender`] ranks replacements by two signals:
//!
//! * the **Hoeffding tree**, consulted with a representative profile per
//!   query type of the recent mix (the answered query's profile alone under
//!   the `mix_recommendation` ablation) — its class scores rank the
//!   estimators;
//! * per-`(query type, estimator)` **EWMA rewards** accumulated since the
//!   pre-training phase — the fallback ranking while the tree is young,
//!   and the tie-breaker among classes the tree has never predicted.
//!
//! The recommendation always excludes the estimator currently in use
//! (switching to itself would be a no-op the paper's protocol never does).

use crate::config::LatestConfig;
use crate::features::{model_schema, QueryProfile, RewardScaler};
use crate::log::ShadowSample;
use crate::monitor::AccuracyMonitor;
use estimators::EstimatorKind;
use geostream::{Persist, PersistError, PersistReader, PersistWriter, QueryType};
use hoeffding::{DdmDetector, DriftState, HoeffdingTree};
use std::collections::VecDeque;

/// Section tag for the adaptor's snapshot frame.
const ADAPTOR_TAG: u32 = 0xada9_7010;

/// EWMA smoothing factor for per-cell rewards.
const EWMA_LAMBDA: f64 = 0.15;
/// Optimistic initial reward so unobserved estimators get explored.
const INITIAL_REWARD: f64 = 0.6;

/// One answered incremental query: the active estimator's answer, every
/// maintained estimator's under `shadow_metrics` (the active one's
/// included; empty otherwise), and the pending replacement, if any.
#[derive(Debug, Clone, Copy)]
pub struct Observation<'a> {
    pub seq: u64,
    pub profile: QueryProfile,
    pub active: ShadowSample,
    pub shadow: &'a [ShadowSample],
    pub prefilling: Option<EstimatorKind>,
}

/// What the adaptor concluded from one [`Observation`]: the transitions
/// `Latest` makes, in field order. The default is "stay".
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Decision {
    /// DDM flagged drift: the tree was reset before this query trained it.
    pub retrained: bool,
    /// Accuracy recovered to `β·τ` or above: drop the pending pre-fill.
    pub discard: bool,
    /// Below `β·τ`, nothing pending: start pre-filling this kind.
    pub start: Option<EstimatorKind>,
    /// Below `τ` with a pre-fill pending or just started: activate it,
    /// triggered by this monitor average.
    pub activate: Option<f64>,
}

/// The Estimator Adaptor's learned state and thresholds. `Latest` reads
/// the model, the monitor and the switch spacing for its metrics, so those
/// are crate-visible.
pub struct Adaptor {
    pub(crate) tree: HoeffdingTree,
    recommender: Recommender,
    scaler: RewardScaler,
    pub(crate) monitor: AccuracyMonitor,
    /// DDM detector over the tree's own prediction errors.
    drift: DdmDetector,
    pub(crate) queries_since_switch: usize,
    /// Query types of the most recent incremental queries (the workload
    /// mix the adaptor optimizes for).
    recent_types: VecDeque<QueryType>,
    /// EWMA representative profile per query type, for consulting the tree
    /// about a *mix* rather than a single query.
    type_profiles: [Option<QueryProfile>; 3],
    tau: f64,
    beta: f64,
    accuracy_window: usize,
    min_switch_spacing: usize,
    switch_margin: f64,
    switching: bool,
    use_tree: bool,
    mix_recommendation: bool,
}

impl Adaptor {
    /// An adaptor that has learned nothing, with the settings it reads
    /// copied from `config`.
    pub fn new(config: &LatestConfig) -> Self {
        Adaptor {
            tree: HoeffdingTree::new(model_schema(), config.tree_config.clone()),
            recommender: Recommender::new(),
            scaler: RewardScaler::new(config.alpha),
            monitor: AccuracyMonitor::new(config.accuracy_window),
            drift: DdmDetector::default(),
            queries_since_switch: 0,
            recent_types: VecDeque::new(),
            type_profiles: [None; 3],
            tau: config.tau,
            beta: config.beta,
            accuracy_window: config.accuracy_window,
            min_switch_spacing: config.min_switch_spacing,
            switch_margin: config.switch_margin,
            switching: config.ablation.switching,
            use_tree: config.ablation.use_tree,
            mix_recommendation: config.ablation.mix_recommendation,
        }
    }

    /// Writes what the adaptor learned and counted, as one section: the
    /// model, the EWMA rewards, the latency range, the monitor, the drift
    /// detector, the switch spacing and the workload mix. Its thresholds,
    /// the monitor's capacity, α and the model's schema and tuning are
    /// the configuration's.
    pub fn persist(&self, w: &mut PersistWriter) {
        w.section(ADAPTOR_TAG, |w| {
            self.tree.persist(w);
            self.recommender.persist(w);
            self.scaler.persist_state(w);
            self.monitor.persist_state(w);
            self.drift.persist_state(w);
            w.put_usize(self.queries_since_switch);
            w.put_usize(self.recent_types.len());
            for &t in &self.recent_types {
                crate::persist::persist_query_type(w, t);
            }
            for profile in &self.type_profiles {
                profile.persist(w);
            }
        });
    }

    /// Reads what [`Adaptor::persist`] wrote into a new adaptor under
    /// `config`, which must be the writer's.
    pub fn restore(r: &mut PersistReader<'_>, config: &LatestConfig) -> Result<Self, PersistError> {
        const CTX: &str = "Adaptor";
        let section = r.begin_section(ADAPTOR_TAG, CTX)?;
        let mut a = Adaptor::new(config);
        a.tree = HoeffdingTree::restore(r, model_schema(), config.tree_config.clone())?;
        a.recommender = Recommender::restore(r)?;
        a.scaler.restore_state(r)?;
        a.monitor.restore_state(r)?;
        a.drift.restore_state(r)?;
        a.queries_since_switch = r.take_usize("Adaptor.queries_since_switch")?;
        let recent = r.take_len("Adaptor.recent_types")?;
        if recent > a.accuracy_window {
            return Err(PersistError::Corrupt {
                context: "Adaptor.recent_types",
                detail: format!(
                    "{recent} recent types exceed the accuracy window {}",
                    a.accuracy_window
                ),
            });
        }
        for _ in 0..recent {
            a.recent_types
                .push_back(crate::persist::restore_query_type(r)?);
        }
        for slot in &mut a.type_profiles {
            *slot = Option::<QueryProfile>::restore(r)?;
        }
        r.finish_section(section, CTX)?;
        Ok(a)
    }

    /// Learns from a pre-training round, in which every pool estimator
    /// answered while `active` served: each sample's reward feeds its EWMA
    /// cell, and the tree is taught the best of them.
    pub fn observe_pretraining(
        &mut self,
        profile: &QueryProfile,
        active: EstimatorKind,
        samples: &[ShadowSample],
    ) {
        for s in samples {
            self.scaler.observe_latency(s.latency_ms);
        }
        // Label: the estimator with the best α-weighted reward.
        let mut best = samples[0].estimator;
        let mut best_reward = f64::NEG_INFINITY;
        for s in samples {
            let r = self.scaler.reward(s.accuracy, s.latency_ms);
            self.recommender.observe(profile.query_type, s.estimator, r);
            if r > best_reward {
                best_reward = r;
                best = s.estimator;
            }
        }
        self.tree.train(&profile.instance(active), best.index());
    }

    /// Learns from one incremental answer, then applies the thresholds.
    pub fn observe(&mut self, obs: &Observation<'_>) -> Decision {
        let profile = &obs.profile;
        let active = obs.active.estimator;
        self.record_mix(profile);
        // Feedback loop: scaler, EWMA rewards, Hoeffding training record.
        self.scaler.observe_latency(obs.active.latency_ms);
        let reward = self
            .scaler
            .reward(obs.active.accuracy, obs.active.latency_ms);
        self.recommender.observe(profile.query_type, active, reward);
        for s in obs.shadow.iter().filter(|s| s.estimator != active) {
            self.scaler.observe_latency(s.latency_ms);
            let r = self.scaler.reward(s.accuracy, s.latency_ms);
            self.recommender.observe(profile.query_type, s.estimator, r);
        }
        // Train with the active estimator when it is doing well; otherwise
        // teach the tree the best-known alternative for this query type.
        let label = if reward >= self.tau {
            active
        } else {
            self.recommender.best_by_reward(profile.query_type, active)
        };
        let instance = profile.instance(active);
        // §V-D retraining trigger: score the tree's own prediction before
        // training on the record; sustained error growth (DDM drift) means
        // the learned concept is stale — reset and regrow.
        let wrong = self.tree.predict(&instance) != label.index();
        let retrained = self.drift.observe(wrong) == DriftState::Drift;
        if retrained {
            self.tree.reset();
            self.drift.reset();
        }
        self.tree.train(&instance, label.index());

        self.monitor.push(obs.active.accuracy);
        self.queries_since_switch += 1;
        let mut decision = match self.monitor.average() {
            Some(avg) if self.switching && self.monitor.warmed_up() => self.decide(avg, obs),
            _ => Decision::default(),
        };
        decision.retrained = retrained;
        decision
    }

    /// A new estimator took over (a switch, or the start of the incremental
    /// phase): it is judged on its own record from here on.
    pub fn reset_monitor(&mut self) {
        self.monitor.reset();
        self.queries_since_switch = 0;
    }

    fn record_mix(&mut self, profile: &QueryProfile) {
        if self.recent_types.len() >= self.accuracy_window {
            self.recent_types.pop_front();
        }
        self.recent_types.push_back(profile.query_type);
        let slot = &mut self.type_profiles[profile.query_type.index() as usize];
        *slot = Some(match slot {
            None => *profile,
            Some(prev) => QueryProfile {
                query_type: profile.query_type,
                keyword_count: ((prev.keyword_count as f64) * 0.9
                    + (profile.keyword_count as f64) * 0.1)
                    .round() as usize,
                area_fraction: prev.area_fraction * 0.9 + profile.area_fraction * 0.1,
            },
        });
    }

    /// The thresholds, given the warmed-up monitor's average `avg`.
    fn decide(&self, avg: f64, obs: &Observation<'_>) -> Decision {
        let mut decision = Decision::default();
        if avg >= self.beta * self.tau {
            // Accuracy recovered: discard any pre-filling candidate.
            decision.discard = obs.prefilling.is_some();
        } else if self.queries_since_switch >= self.min_switch_spacing {
            if obs.prefilling.is_none() {
                // Entering the danger zone: consult the model about the
                // recent workload *mix* and pre-fill its recommendation —
                // but only if the model actually expects the candidate to
                // do better than what we have (switch margin).
                let active = obs.active.estimator;
                let mut mix = [0.0f64; 3];
                for t in &self.recent_types {
                    mix[t.index() as usize] += 1.0;
                }
                let (profiles, weights) = if self.mix_recommendation {
                    (self.type_profiles, mix)
                } else {
                    one_hot(&obs.profile)
                };
                let rec = self.recommender.recommend_with(
                    &self.tree,
                    &profiles,
                    &weights,
                    active,
                    self.use_tree,
                );
                let advantage = self.recommender.expected_reward(&mix, rec)
                    - self.recommender.expected_reward(&mix, active);
                decision.start = (advantage > self.switch_margin).then_some(rec);
            }
            // Below τ with a prefill pending: activate it. (No prefill
            // means the model sees no better option — stay on the current
            // estimator rather than churn.) With β < 1 a start is always
            // below τ, so it is activated in the query that starts it.
            if avg < self.tau && (obs.prefilling.is_some() || decision.start.is_some()) {
                decision.activate = Some(avg);
            }
        }
        decision
    }
}

/// The `mix_recommendation` ablation's mix: weight 1 on the query's own
/// type, with its own profile in that slot.
fn one_hot(profile: &QueryProfile) -> ([Option<QueryProfile>; 3], [f64; 3]) {
    let t = profile.query_type.index() as usize;
    let mut profiles = [None; 3];
    let mut weights = [0.0; 3];
    profiles[t] = Some(*profile);
    weights[t] = 1.0;
    (profiles, weights)
}

/// Ranks estimators for a query profile from the learning model plus
/// reward history.
#[derive(Debug, Clone)]
pub struct Recommender {
    /// `rewards[query_type][estimator]` EWMA of α-weighted rewards.
    rewards: [[f64; 6]; 3],
    /// `observations[query_type][estimator]`.
    observations: [[u64; 6]; 3],
}

impl Default for Recommender {
    fn default() -> Self {
        Recommender {
            rewards: [[INITIAL_REWARD; 6]; 3],
            observations: [[0; 6]; 3],
        }
    }
}

impl Recommender {
    /// Creates a recommender with optimistic priors.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observed reward into the EWMA cell.
    pub fn observe(&mut self, query_type: QueryType, kind: EstimatorKind, reward: f64) {
        let q = query_type.index() as usize;
        let k = kind.index() as usize;
        self.rewards[q][k] = (1.0 - EWMA_LAMBDA) * self.rewards[q][k] + EWMA_LAMBDA * reward;
        self.observations[q][k] += 1;
    }

    /// Current EWMA reward of a cell.
    pub fn reward(&self, query_type: QueryType, kind: EstimatorKind) -> f64 {
        self.rewards[query_type.index() as usize][kind.index() as usize]
    }

    /// How many rewards a cell has absorbed.
    pub fn observations(&self, query_type: QueryType, kind: EstimatorKind) -> u64 {
        self.observations[query_type.index() as usize][kind.index() as usize]
    }

    /// The estimator with the best EWMA reward for `query_type`, excluding
    /// `exclude`.
    pub fn best_by_reward(&self, query_type: QueryType, exclude: EstimatorKind) -> EstimatorKind {
        EstimatorKind::ALL
            .into_iter()
            .filter(|&k| k != exclude)
            .max_by(|a, b| {
                self.reward(query_type, *a)
                    .partial_cmp(&self.reward(query_type, *b))
                    // LINT-ALLOW(no-panic): the cells hold EWMAs of α-weighted rewards in [0, 1], always finite, so partial_cmp succeeds
                    .expect("rewards are finite")
            })
            // LINT-ALLOW(no-panic): five of the six kinds remain after excluding one, so the maximum exists
            .expect("at least five candidates remain")
    }

    /// Expected EWMA reward of `kind` under a query-type distribution
    /// (`weights` indexed by [`QueryType::index`], not necessarily
    /// normalized).
    pub fn expected_reward(&self, weights: &[f64; 3], kind: EstimatorKind) -> f64 {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return INITIAL_REWARD;
        }
        weights
            .iter()
            .enumerate()
            .map(|(t, &w)| w / total * self.rewards[t][kind.index() as usize])
            .sum()
    }

    /// Recommends a replacement for `active` for a **workload mix** rather
    /// than a single query: scores are expectations over the recent
    /// query-type distribution, with one representative profile per type
    /// feeding the tree. This is what keeps LATEST stable on mixed
    /// workloads (e.g. 50 % spatial / 50 % hybrid): optimizing for the
    /// marginal next query would flip-flop between per-type favorites.
    pub fn recommend_mixed(
        &self,
        tree: &HoeffdingTree,
        profiles: &[Option<QueryProfile>; 3],
        weights: &[f64; 3],
        active: EstimatorKind,
    ) -> EstimatorKind {
        self.recommend_with(tree, profiles, weights, active, true)
    }

    /// [`Recommender::recommend_mixed`] with the tree vote optionally
    /// disabled (EWMA-only ablation).
    pub fn recommend_with(
        &self,
        tree: &HoeffdingTree,
        profiles: &[Option<QueryProfile>; 3],
        weights: &[f64; 3],
        active: EstimatorKind,
        use_tree: bool,
    ) -> EstimatorKind {
        // With no recorded query-type mix there is no reason to privilege
        // any single type: fall back to a uniform mix over all three query
        // types, so candidates are judged on their all-round record rather
        // than their Hybrid column alone.
        let uniform = [1.0f64; 3];
        let observed: f64 = weights.iter().sum();
        let (weights, total) = if observed > 0.0 {
            (weights, observed)
        } else {
            (&uniform, 3.0)
        };
        // Per-type tree votes, computed once. Each is normalized to a
        // distribution so young trees (all mass on one class) and mature
        // trees compare on the same scale, over the **non-active** classes
        // only: tree mass on the (ineligible) active estimator must not
        // dilute the candidates and hand the decision to reward noise.
        let mut tree_scores = [[0.0f64; 6]; 3];
        if use_tree {
            for (t, profile) in profiles.iter().enumerate() {
                let Some(p) = profile else { continue };
                let w = tree.predict_weights(&p.instance(active));
                let sum: f64 = w
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != active.index() as usize)
                    .map(|(_, x)| x)
                    .sum();
                if sum > 0.0 {
                    for k in 0..6 {
                        tree_scores[t][k] = w[k] / sum;
                    }
                }
            }
        }
        let mut best = None;
        let mut best_score = f64::NEG_INFINITY;
        for kind in EstimatorKind::ALL {
            if kind == active {
                continue;
            }
            let k = kind.index() as usize;
            // The tree vote is damped so that measured EWMA rewards decide
            // near-ties; the tree's job is to break genuine workload-shape
            // distinctions, not to override fresh performance evidence.
            let score: f64 = (0..3)
                .map(|t| weights[t] / total * (0.5 * tree_scores[t][k] + self.rewards[t][k]))
                .sum();
            if score > best_score {
                best_score = score;
                best = Some(kind);
            }
        }
        // LINT-ALLOW(no-panic): the pool holds six kinds and exactly one is active, so a non-active candidate exists
        best.expect("non-active candidates exist")
    }
}

impl Persist for Recommender {
    /// The 3 × 6 reward and observation cells, row by row.
    fn persist(&self, w: &mut PersistWriter) {
        for row in &self.rewards {
            for &cell in row {
                w.put_f64(cell);
            }
        }
        for row in &self.observations {
            for &cell in row {
                w.put_u64(cell);
            }
        }
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let mut rec = Recommender::new();
        for row in &mut rec.rewards {
            for cell in row.iter_mut() {
                let v = r.take_f64("Recommender.reward")?;
                if !v.is_finite() {
                    return Err(PersistError::Corrupt {
                        context: "Recommender.reward",
                        detail: format!("non-finite reward {v}"),
                    });
                }
                *cell = v;
            }
        }
        for row in &mut rec.observations {
            for cell in row.iter_mut() {
                *cell = r.take_u64("Recommender.observations")?;
            }
        }
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostream::{RcDvq, Rect};
    use hoeffding::HoeffdingTreeConfig;

    const TYPES: [QueryType; 3] = [QueryType::Spatial, QueryType::Keyword, QueryType::Hybrid];

    fn profile(qt: QueryType) -> QueryProfile {
        QueryProfile {
            query_type: qt,
            keyword_count: if qt == QueryType::Spatial { 0 } else { 2 },
            area_fraction: if qt == QueryType::Keyword { 0.0 } else { 0.01 },
        }
    }

    /// The `mix_recommendation = false` path: the one-hot mix of a single
    /// query, with the tree consulted.
    fn recommend_single(
        r: &Recommender,
        tree: &HoeffdingTree,
        p: &QueryProfile,
        active: EstimatorKind,
    ) -> EstimatorKind {
        let (profiles, weights) = one_hot(p);
        r.recommend_with(tree, &profiles, &weights, active, true)
    }

    /// The single-query recommendation as it was written before the
    /// one-hot mix replaced it: the oracle for `recommend_single`.
    fn reference_recommend(
        r: &Recommender,
        tree: &HoeffdingTree,
        profile: &QueryProfile,
        active: EstimatorKind,
    ) -> EstimatorKind {
        let weights = tree.predict_weights(&profile.instance(active));
        let total: f64 = weights
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != active.index() as usize)
            .map(|(_, w)| w)
            .sum();
        let mut best = None;
        let mut best_score = f64::NEG_INFINITY;
        for kind in EstimatorKind::ALL {
            if kind == active {
                continue;
            }
            let tree_score = if total > 0.0 {
                weights[kind.index() as usize] / total
            } else {
                0.0
            };
            let score = 0.5 * tree_score + r.reward(profile.query_type, kind);
            if score > best_score {
                best_score = score;
                best = Some(kind);
            }
        }
        best.expect("non-active candidates exist")
    }

    #[test]
    fn ewma_moves_toward_observations() {
        let mut r = Recommender::new();
        for _ in 0..50 {
            r.observe(QueryType::Spatial, EstimatorKind::H4096, 1.0);
            r.observe(QueryType::Spatial, EstimatorKind::Aasp, 0.0);
        }
        assert!(r.reward(QueryType::Spatial, EstimatorKind::H4096) > 0.95);
        assert!(r.reward(QueryType::Spatial, EstimatorKind::Aasp) < 0.05);
        assert_eq!(r.observations(QueryType::Spatial, EstimatorKind::H4096), 50);
    }

    #[test]
    fn best_by_reward_respects_exclusion() {
        let mut r = Recommender::new();
        for _ in 0..50 {
            r.observe(QueryType::Keyword, EstimatorKind::Rsh, 1.0);
            r.observe(QueryType::Keyword, EstimatorKind::Rsl, 0.9);
        }
        assert_eq!(
            r.best_by_reward(QueryType::Keyword, EstimatorKind::Aasp),
            EstimatorKind::Rsh
        );
        assert_eq!(
            r.best_by_reward(QueryType::Keyword, EstimatorKind::Rsh),
            EstimatorKind::Rsl
        );
    }

    #[test]
    fn recommend_never_returns_active() {
        let r = Recommender::new();
        let tree = HoeffdingTree::new(model_schema(), HoeffdingTreeConfig::default());
        for qt in [QueryType::Spatial, QueryType::Keyword, QueryType::Hybrid] {
            for active in EstimatorKind::ALL {
                let rec = recommend_single(&r, &tree, &profile(qt), active);
                assert_ne!(rec, active);
            }
        }
    }

    #[test]
    fn trained_tree_drives_recommendation() {
        let mut r = Recommender::new();
        // Neutralize reward priors so the tree signal dominates.
        for qt in [QueryType::Spatial, QueryType::Keyword, QueryType::Hybrid] {
            for k in EstimatorKind::ALL {
                for _ in 0..60 {
                    r.observe(qt, k, 0.5);
                }
            }
        }
        // Several attributes separate the classes perfectly, so the
        // best-vs-second gain gap stays ~0 and only the tie threshold can
        // trigger the split; loosen it so the test tree matures quickly.
        let config = HoeffdingTreeConfig {
            tie_threshold: 0.3,
            grace_period: 100,
            ..HoeffdingTreeConfig::default()
        };
        let mut tree = HoeffdingTree::new(model_schema(), config);
        // Teach: spatial queries → H4096, keyword queries → RSH.
        let domain = Rect::new(0.0, 0.0, 100.0, 100.0);
        for i in 0..4_000 {
            let side = 1.0 + (i % 20) as f64;
            let sq = RcDvq::spatial(Rect::new(0.0, 0.0, side, side));
            tree.train(
                &QueryProfile::of(&sq, &domain).instance(EstimatorKind::Rsh),
                EstimatorKind::H4096.index(),
            );
            let kq = RcDvq::keyword(vec![geostream::KeywordId(i as u32 % 30)]);
            tree.train(
                &QueryProfile::of(&kq, &domain).instance(EstimatorKind::Rsh),
                EstimatorKind::Rsh.index(),
            );
        }
        let spatial_rec =
            recommend_single(&r, &tree, &profile(QueryType::Spatial), EstimatorKind::Rsl);
        assert_eq!(spatial_rec, EstimatorKind::H4096);
        // For keyword queries the tree prefers RSH.
        let kw_rec = recommend_single(&r, &tree, &profile(QueryType::Keyword), EstimatorKind::Aasp);
        assert_eq!(kw_rec, EstimatorKind::Rsh);
    }

    #[test]
    fn tree_mass_on_active_does_not_dilute_candidates() {
        // The tree strongly favors the ACTIVE estimator (900 of 1000
        // labels), with the remaining mass split 60:40 between H4096 and
        // RSL; rewards are near-flat with RSL 0.02 ahead. Normalizing the
        // tree vote over all six classes shrinks both candidates' votes
        // ~10x and lets the reward noise flip the decision to RSL;
        // normalizing over the non-active classes keeps the tree's 60:40
        // preference decisive, so H4096 must win.
        let mut r = Recommender::new();
        for k in EstimatorKind::ALL {
            let reward = if k == EstimatorKind::Rsl { 0.52 } else { 0.5 };
            for _ in 0..80 {
                r.observe(QueryType::Spatial, k, reward);
            }
        }
        // A huge grace period keeps the root a leaf, so predict_weights
        // returns the raw class counts.
        let config = HoeffdingTreeConfig {
            grace_period: 1_000_000,
            ..HoeffdingTreeConfig::default()
        };
        let mut tree = HoeffdingTree::new(model_schema(), config);
        let inst = profile(QueryType::Spatial).instance(EstimatorKind::Spn);
        for _ in 0..900 {
            tree.train(&inst, EstimatorKind::Spn.index());
        }
        for _ in 0..60 {
            tree.train(&inst, EstimatorKind::H4096.index());
        }
        for _ in 0..40 {
            tree.train(&inst, EstimatorKind::Rsl.index());
        }
        let rec = recommend_single(&r, &tree, &profile(QueryType::Spatial), EstimatorKind::Spn);
        assert_eq!(rec, EstimatorKind::H4096);
    }

    #[test]
    fn degenerate_mix_falls_back_to_uniform_expectation() {
        // No query-type mix has been recorded yet. AASP is the all-round
        // best (strong on spatial AND keyword), while FFN is merely the
        // Hybrid specialist. A fallback hardcoded to the Hybrid column
        // would pick FFN; the uniform-mix expectation must pick AASP.
        let mut r = Recommender::new();
        for _ in 0..80 {
            r.observe(QueryType::Spatial, EstimatorKind::Aasp, 0.9);
            r.observe(QueryType::Keyword, EstimatorKind::Aasp, 0.9);
            r.observe(QueryType::Hybrid, EstimatorKind::Aasp, 0.5);
            r.observe(QueryType::Spatial, EstimatorKind::Ffn, 0.45);
            r.observe(QueryType::Keyword, EstimatorKind::Ffn, 0.5);
            r.observe(QueryType::Hybrid, EstimatorKind::Ffn, 0.8);
        }
        let tree = HoeffdingTree::new(model_schema(), HoeffdingTreeConfig::default());
        let rec = r.recommend_with(
            &tree,
            &[None, None, None],
            &[0.0; 3],
            EstimatorKind::H4096,
            true,
        );
        assert_eq!(rec, EstimatorKind::Aasp);
    }

    #[test]
    fn rewards_break_tree_ties() {
        let r = {
            let mut r = Recommender::new();
            for _ in 0..80 {
                r.observe(QueryType::Hybrid, EstimatorKind::Rsl, 0.95);
            }
            r
        };
        // Untrained tree: uniform scores; reward history should decide.
        let tree = HoeffdingTree::new(model_schema(), HoeffdingTreeConfig::default());
        let rec = recommend_single(&r, &tree, &profile(QueryType::Hybrid), EstimatorKind::Rsh);
        assert_eq!(rec, EstimatorKind::Rsl);
    }

    /// The one-hot mix scores each candidate `1.0 × score + 0.0 + 0.0`,
    /// so it picks what the single-query formulation picked, ties
    /// included, over random rewards and trees.
    #[test]
    fn one_hot_mix_matches_the_single_query_recommendation() {
        use testkit::{check, coin, f64_in, usize_in};
        check("one_hot_mix_matches_single_query", 64, |rng| {
            let mut r = Recommender::new();
            for _ in 0..usize_in(rng, 0..200) {
                let qt = TYPES[usize_in(rng, 0..3)];
                let kind = EstimatorKind::ALL[usize_in(rng, 0..6)];
                // Coarse rewards make exact score ties common.
                let reward = if coin(rng) {
                    usize_in(rng, 0..3) as f64 / 2.0
                } else {
                    f64_in(rng, 0.0..1.0)
                };
                r.observe(qt, kind, reward);
            }
            let config = HoeffdingTreeConfig {
                grace_period: 20,
                tie_threshold: 0.3,
                ..HoeffdingTreeConfig::default()
            };
            let mut tree = HoeffdingTree::new(model_schema(), config);
            let random_profile = |rng: &mut geostream::StreamRng| QueryProfile {
                query_type: TYPES[usize_in(rng, 0..3)],
                keyword_count: usize_in(rng, 0..6),
                area_fraction: f64_in(rng, 0.0..1.0),
            };
            for _ in 0..usize_in(rng, 0..400) {
                let p = random_profile(rng);
                let active = EstimatorKind::ALL[usize_in(rng, 0..6)];
                tree.train(&p.instance(active), usize_in(rng, 0..6) as u32);
            }
            for _ in 0..8 {
                let p = random_profile(rng);
                let active = EstimatorKind::ALL[usize_in(rng, 0..6)];
                assert_eq!(
                    recommend_single(&r, &tree, &p, active),
                    reference_recommend(&r, &tree, &p, active),
                    "profile {p:?}, active {active:?}"
                );
            }
        });
    }

    // ---- Adaptor: one hand-built observation sequence per transition ----

    /// Accuracy-only rewards (α = 0), τ = 0.75, β·τ = 0.675, a monitor warm
    /// after two queries, and switches spaced four queries apart.
    fn adaptor_config() -> LatestConfig {
        LatestConfig {
            alpha: 0.0,
            accuracy_window: 4,
            min_switch_spacing: 4,
            ..LatestConfig::default()
        }
    }

    /// An adaptor whose rewards already rank H4096 far above RSH on
    /// spatial queries.
    fn primed(config: &LatestConfig) -> Adaptor {
        let mut a = Adaptor::new(config);
        for _ in 0..20 {
            a.recommender
                .observe(QueryType::Spatial, EstimatorKind::H4096, 1.0);
        }
        a
    }

    /// Feeds `n` spatial answers from RSH at `accuracy` and returns the
    /// decision on the last one.
    fn feed(a: &mut Adaptor, n: u64, accuracy: f64, prefilling: Option<EstimatorKind>) -> Decision {
        let mut last = None;
        for seq in 0..n {
            last = Some(a.observe(&Observation {
                seq,
                profile: profile(QueryType::Spatial),
                active: ShadowSample {
                    estimator: EstimatorKind::Rsh,
                    estimate: 0.0,
                    latency_ms: 0.1,
                    accuracy,
                },
                shadow: &[],
                prefilling,
            }));
        }
        last.expect("n > 0")
    }

    const STAY: Decision = Decision {
        retrained: false,
        discard: false,
        start: None,
        activate: None,
    };

    #[test]
    fn adaptor_stays_until_the_monitor_is_warm() {
        let mut a = primed(&adaptor_config());
        // One answer of four: the average exists but is not trusted yet.
        assert_eq!(feed(&mut a, 1, 0.0, None), STAY);
        assert_eq!(a.monitor.len(), 1);
    }

    #[test]
    fn adaptor_starts_a_prefill_between_tau_and_beta_tau() {
        // A start alone needs β·τ above τ: validation holds β below 1, so
        // the adaptor is built directly from an unvalidated config.
        let config = LatestConfig {
            beta: 1.2,
            ..adaptor_config()
        };
        let mut a = primed(&config);
        let d = feed(&mut a, 4, 0.875, None);
        let start = Some(EstimatorKind::H4096);
        assert_eq!(d, Decision { start, ..STAY });
    }

    #[test]
    fn adaptor_stays_when_the_margin_is_not_beaten() {
        let config = LatestConfig {
            switch_margin: 1.0,
            ..adaptor_config()
        };
        let mut a = primed(&config);
        assert_eq!(feed(&mut a, 4, 0.5, None), STAY);
    }

    #[test]
    fn adaptor_activates_a_pending_prefill_below_tau() {
        let mut a = primed(&adaptor_config());
        let d = feed(&mut a, 4, 0.5, Some(EstimatorKind::H4096));
        let activate = Some(0.5);
        assert_eq!(d, Decision { activate, ..STAY });
    }

    /// Today's behaviour: with β < 1 every average below β·τ is below τ
    /// too, so the query that starts a pre-fill also activates it. Ordered
    /// thresholds (a pre-fill that starts above τ) invert this test.
    #[test]
    fn adaptor_starts_and_activates_in_the_same_query() {
        let mut a = primed(&adaptor_config());
        let d = feed(&mut a, 4, 0.5, None);
        let (start, activate) = (Some(EstimatorKind::H4096), Some(0.5));
        assert_eq!(
            d,
            Decision {
                start,
                activate,
                ..STAY
            }
        );
    }

    #[test]
    fn adaptor_discards_a_prefill_once_accuracy_recovers() {
        let mut a = primed(&adaptor_config());
        let d = feed(&mut a, 4, 1.0, Some(EstimatorKind::H4096));
        assert_eq!(
            d,
            Decision {
                discard: true,
                ..STAY
            }
        );
        // Nothing pending: nothing to discard.
        assert_eq!(feed(&mut a, 1, 1.0, None), STAY);
    }

    #[test]
    fn adaptor_waits_for_the_switch_spacing() {
        let config = LatestConfig {
            min_switch_spacing: 6,
            ..adaptor_config()
        };
        let mut a = primed(&config);
        assert_eq!(feed(&mut a, 5, 0.5, None), STAY);
        assert_eq!(feed(&mut a, 1, 0.5, None).start, Some(EstimatorKind::H4096));
        // A switch restarts the count.
        a.reset_monitor();
        assert_eq!(feed(&mut a, 5, 0.5, None), STAY);
    }

    #[test]
    fn adaptor_resets_the_tree_on_drift_and_reports_it() {
        let mut config = adaptor_config();
        config.ablation.switching = false;
        let mut a = Adaptor::new(&config);
        // A long run in which RSH earns its label teaches the tree to
        // predict RSH...
        assert_eq!(feed(&mut a, 200, 1.0, None), STAY);
        assert!(a.tree.stats().instances_seen >= 200);
        // ...then RSH fails and the label moves away from it: the tree's
        // errors climb until DDM declares drift.
        let mut drifted = false;
        for _ in 0..200 {
            let d = feed(&mut a, 1, 0.0, None);
            if d.retrained {
                assert_eq!(
                    d,
                    Decision {
                        retrained: true,
                        ..STAY
                    }
                );
                drifted = true;
                break;
            }
            assert_eq!(d, STAY);
        }
        assert!(drifted, "no drift in 200 failures");
        // Reset, then trained on the one record that tripped it.
        assert_eq!(a.tree.stats().instances_seen, 1);
        assert_eq!(a.drift.observations(), 0);
    }
}
