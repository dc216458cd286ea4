//! # fault-trajectory
//!
//! Reproduction of *"Fault-Trajectory Approach for Fault Diagnosis on
//! Analog Circuits"* (Savioli, Szendrodi, Calvano, Mesquita — DATE 2005)
//! as a production-quality Rust workspace.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`numerics`] — complex arithmetic, dense LU, polynomials, transfer
//!   functions, frequency grids, Goertzel DFT, statistics.
//! * [`circuit`] — MNA linear circuit simulator (AC/DC/transient),
//!   SPICE-subset parser, op-amp models, benchmark filters.
//! * [`faults`] — parametric fault model, fault universes, dictionaries,
//!   tolerance/noise models.
//! * [`evolve`] — the GA framework (roulette wheel et al.).
//! * [`core`] — the paper's method: signatures, trajectories, fitness
//!   `1/(1+I)`, GA ATPG, perpendicular-distance diagnosis, metrics.
//! * [`serve`] — the serving layer: persistent trajectory banks
//!   (sectioned v3 container), the segment spatial index, batched
//!   diagnosis, out-of-core multi-circuit bank sharding (`BankStore`:
//!   shard loads that read only the trajectory section, LRU eviction
//!   under a memory budget, hot shard reload), the persistent-pool
//!   front-end (`ServeHandle`), the serving observability registry
//!   (`MetricsRegistry`: counters, gauges, log₂ latency histograms,
//!   Prometheus snapshots), and the `ftd` CLI.
//!
//! ## Quickstart
//!
//! ```
//! use fault_trajectory::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's CUT: a normalized Tow-Thomas biquad low-pass.
//! let bench = tow_thomas_normalized(1.0)?;
//!
//! // Fault dictionary: 7 passives × ±40% in 10% steps = 56 circuits.
//! let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
//! let dict = FaultDictionary::build(
//!     &bench.circuit,
//!     &universe,
//!     &bench.input,
//!     &bench.probe,
//!     &FrequencyGrid::log_space(0.01, 100.0, 41),
//! )?;
//!
//! // Deploy a two-frequency test vector and diagnose an unknown fault.
//! let tv = TestVector::pair(0.98, 2.5);
//! let set = trajectories_from_dictionary(&dict, &tv);
//! let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());
//!
//! let mut faulty = bench.circuit.clone();
//! faulty.set_value("R2", 1.25)?; // +25%, off the dictionary grid
//! let sig = measure_signature(&faulty, &bench.circuit, &bench.input, &bench.probe, &tv)?;
//! let verdict = diagnoser.diagnose(&sig);
//! assert_eq!(verdict.best().component, "R2");
//! # Ok(())
//! # }
//! ```

pub use ft_circuit as circuit;
pub use ft_core as core;
pub use ft_evolve as evolve;
pub use ft_faults as faults;
pub use ft_numerics as numerics;
pub use ft_serve as serve;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use ft_circuit::{
        all_benchmarks, khn_state_variable, mfb_normalized, operating_point, rlc_ladder_lowpass,
        sallen_key_normalized, sample_at, sweep, sweep_reference, tow_thomas,
        tow_thomas_normalized, transfer, transient, twin_t_notch, AcSweepEngine, Benchmark,
        Circuit, CircuitError, Element, Probe, TowThomasParams, TransientOptions, Waveform,
    };
    pub use ft_core::{
        ambiguity_groups, evaluate_classifier, grid_search, measure_signature, random_search,
        select_test_vector, sensitivity_heuristic, trajectories_from_dictionary, AtpgConfig,
        Diagnoser, DiagnoserConfig, EvalConfig, FitnessKind, GeometryOptions, LinearScan,
        NnDictionary, SegmentQuery, Signature, TestVector, TopkRanking,
    };
    pub use ft_evolve::{GaConfig, Selection};
    pub use ft_faults::{
        DeviationGrid, FaultDictionary, FaultUniverse, MeasurementNoise, MultiFault,
        MultiFaultDictionary, ParametricFault, Tolerance,
    };
    pub use ft_numerics::{Complex64, FrequencyGrid, TransferFunction};
    pub use ft_serve::{
        BankStore, CodecError, DiagnosisEngine, DiagnosisRequest, EngineConfig, MappedBank,
        MetricsRegistry, SegmentIndex, ServeHandle, Snapshot, StoreConfig, StoreError,
        TrajectoryBank,
    };
}
