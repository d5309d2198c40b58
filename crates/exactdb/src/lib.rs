//! # exactdb — exact spatio-textual query execution over the window
//!
//! LATEST never trusts an estimator blindly: after the query plan runs,
//! the *actual* selectivity appears in the system logs and is used to (a)
//! score the estimate and (b) extend the Hoeffding tree's training data
//! (paper §V-D). This crate is that ground-truth substrate: full indexes
//! over the sliding window that answer RC-DVQ queries **exactly**.
//!
//! All live window objects are owned once, as parallel columns, by the
//! [`store::ObjectStore`] ring, in arrival order. The spatial backends
//! ([`grid::GridIndex`], [`quad::QuadtreeIndex`]) and the keyword-side
//! [`inverted::InvertedIndex`] keep each object's `u32` arrival number in
//! append-only queues, oldest first: the window evicts only its oldest
//! object, so an eviction pops queue fronts and never searches.
//! [`ExactExecutor`] threads the store through every update and routes
//! each query with a cost-based access-path planner (posting mass vs.
//! spatial candidate count). These are also the "Grid" and "QuadTree"
//! index columns of the paper's Table I: exact indexes touch real
//! objects, which is why they cost an order of magnitude more than an
//! estimator — the grid reads them only in the cells on the rim of a
//! range (cells the range wholly covers are counted by length), the
//! quadtree in every bucket the range intersects.

use std::fmt;

pub mod executor;
pub mod grid;
pub mod inverted;
pub mod quad;
pub mod store;

pub use executor::{AccessPath, ExactExecutor, PathMix, SpatialIndexKind};
pub use store::{ObjectStore, Seq};

/// Error returned when the inverted index is asked to count a query with
/// no keyword predicate — posting lists are its only access path, so a
/// pure spatial query has nothing to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoKeywordPredicate;

impl fmt::Display for NoKeywordPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query has no keyword predicate: the inverted index cannot serve it"
        )
    }
}

impl std::error::Error for NoKeywordPredicate {}
