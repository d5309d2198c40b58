//! # estimators — selectivity estimators for spatio-textual streams
//!
//! The six estimators LATEST switches among (paper §IV and §VI-A), all
//! implemented from scratch behind one trait:
//!
//! | name  | structure | paper role |
//! |-------|-----------|------------|
//! | `H4096` | [`histogram2d::Histogram2D`] — 2D equi-width grid of counts | fastest; spatial-only statistics |
//! | `RSL`  | [`reservoir::Reservoir`] — Algorithm-R reservoir sample, read by scan | accurate, scan-heavy |
//! | `RSH`  | the same [`reservoir::Reservoir`] with a 2D grid over its sample ([`reservoir_hash`]) | default estimator; accurate with moderate latency |
//! | `AASP` | [`aasp::AaspTree`] — adaptive space-partition tree + KMV keyword synopses | hierarchical; highest latency |
//! | `FFN`  | [`ffn::FfnEstimator`] — workload-driven feed-forward network | learned baseline |
//! | `SPN`  | [`spn::SpnEstimator`] — data-driven sum-product network trained on its own scan-read [`reservoir::Reservoir`] | learned baseline, costly to keep current |
//!
//! All estimators implement [`SelectivityEstimator`]: they ingest window
//! insertions/evictions, answer [`RcDvq`](geostream::RcDvq) estimates, and
//! report their memory footprint. [`EstimatorKind`] is the label space of
//! LATEST's Hoeffding tree; [`build_estimator`] is the factory the
//! estimator adaptor uses, and [`DrawTapes::build`] the one bulk build of
//! a fresh estimator that a pre-filled replacement comes from. RSL and RSH
//! are one sampler on one seed read by two access paths, so built from one
//! configuration and fed one stream they hold one sample; SPN trains on the
//! same sampler, on its own capacity and seed.

pub mod aasp;
pub mod asp_tree;
pub mod error;
pub mod ffn;
pub mod histogram2d;
pub mod kmv;
pub mod nn;
pub mod reservoir;
pub mod reservoir_hash;
pub mod spn;
pub mod store;
mod traits;

#[cfg(test)]
mod fill_oracle;
#[cfg(test)]
mod tape_oracle;

pub use error::EstimateError;
pub use reservoir::DrawTapes;
pub use traits::{
    build_estimator, persist_boxed, restore_boxed, try_build_estimator, BoxedEstimator,
    EstimatorConfig, EstimatorKind, SelectivityEstimator,
};
