//! # ft-core
//!
//! The fault-trajectory method of Savioli, Szendrodi, Calvano & Mesquita
//! (DATE 2005): signature transformation, component fault trajectories,
//! intersection-count fitness `1/(1+I)`, GA-driven test-frequency ATPG,
//! perpendicular-distance diagnosis with deviation estimation, ambiguity
//! groups, Monte Carlo accuracy metrics, and baseline selectors.
//!
//! ## Pipeline
//!
//! 1. Build the CUT and its fault dictionary (`ft-circuit`, `ft-faults`).
//! 2. [`atpg::select_test_vector`] runs the GA over frequency pairs.
//! 3. [`trajectory::trajectories_from_dictionary`] materialises the fault
//!    trajectories at the chosen frequencies.
//! 4. [`diagnosis::Diagnoser`] assigns observed responses to the nearest
//!    trajectory segment.
//! 5. [`metrics::evaluate_classifier`] scores the whole arrangement under
//!    tolerances and noise.
//!
//! ## Example
//!
//! ```
//! use ft_circuit::tow_thomas_normalized;
//! use ft_core::{
//!     trajectories_from_dictionary, Diagnoser, DiagnoserConfig, TestVector,
//! };
//! use ft_faults::{DeviationGrid, FaultDictionary, FaultUniverse};
//! use ft_numerics::FrequencyGrid;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = tow_thomas_normalized(1.0)?;
//! let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
//! let dict = FaultDictionary::build(
//!     &bench.circuit,
//!     &universe,
//!     &bench.input,
//!     &bench.probe,
//!     &FrequencyGrid::log_space(0.01, 100.0, 41),
//! )?;
//!
//! let tv = TestVector::pair(0.6, 1.6);
//! let set = trajectories_from_dictionary(&dict, &tv);
//! let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());
//!
//! // Diagnose a +25% fault on R2 (off the dictionary grid).
//! let mut faulty = bench.circuit.clone();
//! faulty.set_value("R2", 1.25)?;
//! let sig = ft_core::measure_signature(
//!     &faulty, &bench.circuit, &bench.input, &bench.probe, &tv,
//! )?;
//! let verdict = diagnoser.diagnose(&sig);
//! assert_eq!(verdict.best().component, "R2");
//!
//! // R3 faults land in the {R3, R5} structural ambiguity pair: the LP
//! // response depends only on the product R3·R5, so the true component
//! // is guaranteed to appear in the ambiguity set, not necessarily at
//! // rank one.
//! let mut faulty = bench.circuit.clone();
//! faulty.set_value("R3", 1.25)?;
//! let sig = ft_core::measure_signature(
//!     &faulty, &bench.circuit, &bench.input, &bench.probe, &tv,
//! )?;
//! let verdict = diagnoser.diagnose(&sig);
//! assert!(verdict.ambiguity_set().contains(&"R3"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ambiguity;
pub mod atpg;
pub mod baselines;
pub mod diagnosis;
pub mod fitness;
pub mod geometry;
pub mod metrics;
pub mod multiprobe;
pub mod scratch;
pub mod signature;
pub mod trajectory;

pub use ambiguity::{ambiguity_groups, pair_separation, AmbiguityGroups};
pub use atpg::{
    genome_to_test_vector, select_test_vector, select_test_vector_binary, AtpgConfig, AtpgResult,
    TrajectorySource,
};
pub use baselines::{grid_search, random_search, sensitivity_heuristic, NnDictionary};
pub use diagnosis::{
    topk_prefix_len, Candidate, Diagnoser, DiagnoserConfig, Diagnosis, LinearScan, SegmentQuery,
    TopkRanking,
};
pub use fitness::{
    count_intersections, evaluate_fitness, min_separation, FitnessKind, GeometryOptions,
};
pub use metrics::{
    evaluate_classifier, AccuracyReport, ConfusionMatrix, EvalConfig, SignatureClassifier,
};
pub use multiprobe::ProbeBank;
pub use scratch::scratch_pool_stats;
pub use signature::{measure_signature, sample_response_db, Signature, TestVector};
pub use trajectory::{
    trajectories_exact, trajectories_from_dictionary, FaultTrajectory, PackedTrajectories,
    TrajectorySet, TrajectoryView,
};
