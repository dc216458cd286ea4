//! # ft-bench
//!
//! Benchmark harness for the fault-trajectory reproduction: shared
//! experiment setup, the figure/table regeneration functions consumed by
//! the `repro` binary, and plain-text/CSV reporting. Criterion
//! performance benches live under `benches/`.

#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod setup;
pub mod tables;

pub use report::Table;
pub use setup::{paper_setup, PAPER_SEED};
