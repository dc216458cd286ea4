//! Circuit analyses: AC sweep (engine-backed, with a reference oracle),
//! DC operating point, transient, and rational fitting.

pub mod ac;
pub mod dc;
pub mod engine;
pub mod fit;
pub mod tran;
