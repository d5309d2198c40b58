//! # geostream — geo-textual stream substrate
//!
//! This crate provides the data substrate the LATEST reproduction is built
//! on: the geo-textual object model from the paper's problem definition
//! (§III), planar geometry for spatial predicates, an interned keyword
//! vocabulary, a sliding time window `S_T`, and synthetic stream generators
//! that stand in for the paper's Twitter / eBird / Foursquare CheckIn
//! datasets.
//!
//! Every object in a stream `S` is a tuple `(oid, loc, kw, timestamp)`
//! ([`GeoTextObject`]). A window [`window::SlidingWindow`] keeps the objects
//! of the last `T` time units, which is the population every selectivity
//! estimate refers to.
//!
//! The [`synth`] module generates streams whose spatial skew (Gaussian
//! hotspot mixtures), textual skew (Zipf keyword frequencies), and temporal
//! drift reproduce the statistical structure that drives the paper's
//! experiments, at laptop scale.

#[cfg(feature = "debug-invariants")]
pub mod audit;
pub mod geometry;
pub mod idmap;
pub mod object;
pub mod obsv;
pub mod persist;
pub mod query;
pub mod rng;
pub mod synth;
pub mod time;
pub mod vocab;
pub mod window;

#[cfg(feature = "debug-invariants")]
pub use audit::AuditError;
pub use geometry::{CellCover, CellGrid, Point, Rect};
pub use idmap::{IdHasher, IdMap, IdSet};
pub use object::{GeoTextObject, ObjectId};
pub use obsv::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use persist::{Persist, PersistError, PersistReader, PersistWriter};
pub use query::{QuerySignature, QueryType, RcDvq};
pub use rng::{RngState, StreamRng};
pub use time::{Duration, Timestamp};
pub use vocab::{KeywordId, Vocabulary};
pub use window::{SlidingWindow, WindowSnapshot};
