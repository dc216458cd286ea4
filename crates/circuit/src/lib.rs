//! # ft-circuit
//!
//! A from-scratch linear analog circuit simulator built for the
//! fault-trajectory diagnosis workspace: modified nodal analysis (MNA)
//! over real or complex scalars, AC sweeps, DC operating points,
//! trapezoidal transient analysis, rational fitting of a response, a
//! SPICE-subset netlist parser, an ideal op-amp, and a library of
//! benchmark filters including the paper's Tow-Thomas CUT.
//!
//! ## Example: Bode point of an RC low-pass
//!
//! ```
//! use ft_circuit::{transfer, Circuit, Probe};
//!
//! let mut ckt = Circuit::new("rc");
//! ckt.voltage_source("V1", "in", "0", 1.0)?;
//! ckt.resistor("R1", "in", "out", 1_000.0)?;
//! ckt.capacitor("C1", "out", "0", 1e-6)?;
//!
//! // ωc = 1/(RC) = 1000 rad/s → −3 dB at the corner.
//! let h = transfer(&ckt, "V1", &Probe::node("out"), 1_000.0)?;
//! assert!((h.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
//! # Ok::<(), ft_circuit::CircuitError>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod element;
pub mod error;
pub mod library;
pub mod mna;
pub mod netlist;
pub mod parser;

pub use analysis::ac::{sample_at, sweep, sweep_reference, transfer, AcSweep, Probe};
pub use analysis::dc::operating_point;
pub use analysis::engine::AcSweepEngine;
pub use analysis::fit::fit_circuit;
pub use analysis::tran::{transient, TransientOptions};
pub use element::{Element, Waveform};
pub use error::CircuitError;
pub use library::{
    all_benchmarks, khn_state_variable, mfb_lowpass, mfb_normalized, rlc_ladder_lowpass,
    sallen_key_lowpass, sallen_key_normalized, tow_thomas, tow_thomas_normalized, twin_t_notch,
    Benchmark, TowThomasParams,
};
pub use mna::MnaLayout;
pub use netlist::{Circuit, ComponentId};
