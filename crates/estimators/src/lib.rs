//! # estimators — selectivity estimators for spatio-textual streams
//!
//! The six estimators LATEST switches among (paper §IV and §VI-A), all
//! implemented from scratch behind one trait:
//!
//! | name  | structure | paper role |
//! |-------|-----------|------------|
//! | `H4096` | [`histogram2d::Histogram2D`] — 2D equi-width grid of counts | fastest; spatial-only statistics |
//! | `RSL`  | [`reservoir::ReservoirList`] — Algorithm-R reservoir sample | accurate, scan-heavy |
//! | `RSH`  | [`reservoir_hash::ReservoirHash`] — reservoir indexed by a 2D grid | default estimator; accurate with moderate latency |
//! | `AASP` | [`aasp::AaspTree`] — adaptive space-partition tree + KMV keyword synopses | hierarchical; highest latency |
//! | `FFN`  | [`ffn::FfnEstimator`] — workload-driven feed-forward network | learned baseline |
//! | `SPN`  | [`spn::SpnEstimator`] — data-driven sum-product network | learned baseline, costly to keep current |
//!
//! All estimators implement [`SelectivityEstimator`]: they ingest window
//! insertions/evictions, answer [`RcDvq`](geostream::RcDvq) estimates, and
//! report their memory footprint. [`EstimatorKind`] is the label space of
//! LATEST's Hoeffding tree; [`build_estimator`] is the factory the
//! estimator adaptor uses when pre-filling a replacement.

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

pub use error::EstimateError;
pub use traits::{
    build_estimator, persist_boxed, restore_boxed, try_build_estimator, BoxedEstimator,
    EstimatorConfig, EstimatorKind, SelectivityEstimator,
};
