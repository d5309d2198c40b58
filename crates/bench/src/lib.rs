//! # latest-bench — experiment harness for the LATEST reproduction
//!
//! Regenerates every table and figure of the paper's evaluation (§VI) on
//! the synthetic dataset presets. Each experiment module replays a
//! workload through a fully configured [`latest_core::Latest`] instance
//! and renders the recorded series the way the paper reports them
//! (per-decile latency/accuracy per estimator, switch marks, sweep
//! tables).
//!
//! Use the `experiments` binary:
//!
//! ```text
//! cargo run --release -p latest-bench --bin experiments -- fig3
//! cargo run --release -p latest-bench --bin experiments -- all
//! ```
//!
//! Scale knobs (`--queries`, `--scale`) trade fidelity for runtime; the
//! defaults finish each figure in seconds on a laptop while preserving the
//! paper's qualitative shapes.

pub mod driver;
pub mod experiments;
pub mod log;
pub mod report;

pub use driver::{run_workload, run_workload_with_default, DriverConfig, RunResult};
