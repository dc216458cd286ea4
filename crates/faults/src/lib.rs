//! # ft-faults
//!
//! Parametric fault modelling for analog circuits: the functional
//! parametric fault model of the paper, systematic fault universes
//! (deviation grids), fault injection, parallel fault-dictionary
//! construction, and the tolerance/noise models used by the Monte Carlo
//! diagnosis experiments.
//!
//! ## Example: the paper's 56-fault dictionary
//!
//! ```
//! use ft_circuit::tow_thomas_normalized;
//! use ft_faults::{DeviationGrid, FaultDictionary, FaultUniverse};
//! use ft_numerics::FrequencyGrid;
//!
//! let bench = tow_thomas_normalized(1.0)?;
//! let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
//! assert_eq!(universe.len(), 56); // 7 components × 8 deviations
//!
//! let grid = FrequencyGrid::log_space(0.01, 100.0, 21);
//! let dict = FaultDictionary::build(
//!     &bench.circuit,
//!     &universe,
//!     &bench.input,
//!     &bench.probe,
//!     &grid,
//! )?;
//! assert_eq!(dict.entries().len(), 56);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod dictionary;
pub mod model;
pub mod multifault;
pub mod noise;
pub mod universe;

pub use dictionary::{DictionaryEntry, FaultDictionary};
pub use model::ParametricFault;
pub use multifault::{
    all_pairs, sample_double, sample_tuple, sampled_tuples, MultiFault, MultiFaultDictionary,
    MultiFaultEntry,
};
pub use noise::{measure_faulty, MeasurementNoise, Tolerance};
pub use universe::{DeviationGrid, FaultUniverse};
