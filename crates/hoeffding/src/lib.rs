//! # hoeffding — a from-scratch Hoeffding tree (VFDT)
//!
//! LATEST's learning model (§V-B of the paper) is a Hoeffding tree — the
//! Very Fast Decision Tree of Domingos & Hulten (KDD 2000) — trained
//! incrementally on query-workload records. This crate implements the
//! algorithm with the paper's configuration:
//!
//! * **splitting criterion:** information gain;
//! * **leaf prediction:** majority class;
//! * **split decision:** the Hoeffding bound
//!   `ε = sqrt(R² · ln(1/δ) / (2n))` decides when the observed best split
//!   is reliably better than the runner-up, so each training record is read
//!   at most once and the tree converges to the batch tree with high
//!   probability.
//!
//! Attributes may be categorical (finite arity) or numeric. Numeric
//! attributes use per-class Gaussian observers (the standard VFDT
//! approach): candidate binary thresholds are evaluated against the
//! Gaussian class models to score information gain.
//!
//! The implementation is dependency-free, deterministic, and `O(1)` per
//! training record (amortized), which is the property the paper relies on
//! for real-time streaming adaptation.

mod attribute;
mod bound;
mod drift;
mod stats;
mod tree;

pub use attribute::{AttributeSpec, Instance, Schema, Value};
pub use bound::hoeffding_bound;
pub use drift::{DdmDetector, DriftState};
pub use stats::{ClassCounts, GaussianEstimator};
pub use tree::{HoeffdingTree, HoeffdingTreeConfig, TreeStats};
