//! AC (frequency-domain) analysis.
//!
//! The workhorse of the fault-trajectory method: frequency responses of
//! golden and faulty circuits are computed here by solving the complex MNA
//! system across a frequency grid.

use ft_numerics::{decibel, Complex64, FrequencyGrid};
use serde::{Deserialize, Serialize};

use crate::error::{CircuitError, Result};
use crate::mna::{solve, Excitation, MnaLayout};
use crate::netlist::Circuit;

/// What to observe at the circuit output.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Probe {
    /// A single node voltage referred to ground.
    Node(String),
    /// A differential voltage `V(p) − V(n)`.
    Differential(String, String),
}

impl Probe {
    /// Convenience constructor for a node probe.
    pub fn node(name: impl Into<String>) -> Self {
        Probe::Node(name.into())
    }

    /// Convenience constructor for a differential probe.
    pub fn differential(p: impl Into<String>, n: impl Into<String>) -> Self {
        Probe::Differential(p.into(), n.into())
    }

    /// Evaluates the probe on a solved system.
    pub(crate) fn read(
        &self,
        circuit: &Circuit,
        sol: &crate::mna::MnaSolution,
    ) -> Result<Complex64> {
        match self {
            Probe::Node(name) => {
                let id = circuit
                    .find_node(name)
                    .ok_or_else(|| CircuitError::UnknownNode(name.clone()))?;
                Ok(sol.voltage(id))
            }
            Probe::Differential(p, n) => {
                let pid = circuit
                    .find_node(p)
                    .ok_or_else(|| CircuitError::UnknownNode(p.clone()))?;
                let nid = circuit
                    .find_node(n)
                    .ok_or_else(|| CircuitError::UnknownNode(n.clone()))?;
                Ok(sol.voltage_between(pid, nid))
            }
        }
    }
}

/// Complex transfer function `probe / input` at angular frequency
/// `omega` (rad/s), with `input` driven at `1∠0` and all other sources
/// zeroed.
///
/// # Errors
///
/// Propagates layout, probe, and singularity errors.
pub fn transfer(circuit: &Circuit, input: &str, probe: &Probe, omega: f64) -> Result<Complex64> {
    let layout = MnaLayout::new(circuit)?;
    transfer_with_layout(circuit, &layout, input, probe, omega)
}

/// [`transfer`] with a pre-built layout (avoids rebuilding per frequency).
///
/// The input source is resolved to a [`crate::ComponentId`] per call, so
/// no per-frequency allocation remains; even so, each call re-assembles
/// and re-factors the full MNA system — loops over frequencies should use
/// [`AcSweepEngine`](crate::analysis::engine::AcSweepEngine) instead.
///
/// # Errors
///
/// Propagates probe and singularity errors.
pub(crate) fn transfer_with_layout(
    circuit: &Circuit,
    layout: &MnaLayout,
    input: &str,
    probe: &Probe,
    omega: f64,
) -> Result<Complex64> {
    let excitation = Excitation::ac_unit(circuit, input)?;
    let sol = solve(circuit, layout, Complex64::jw(omega), &excitation)?;
    probe.read(circuit, &sol)
}

/// A completed AC sweep: the complex response at each grid frequency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcSweep {
    omegas: Vec<f64>,
    values: Vec<Complex64>,
}

impl AcSweep {
    /// Packages a completed sweep (used by the AC sweep engine).
    pub(crate) fn from_raw(omegas: Vec<f64>, values: Vec<Complex64>) -> Self {
        debug_assert_eq!(omegas.len(), values.len());
        AcSweep { omegas, values }
    }

    /// Grid frequencies (rad/s).
    #[inline]
    pub fn omegas(&self) -> &[f64] {
        &self.omegas
    }

    /// Complex responses, one per frequency.
    #[inline]
    pub fn values(&self) -> &[Complex64] {
        &self.values
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.omegas.len()
    }

    /// `true` when the sweep has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.omegas.is_empty()
    }

    /// Magnitudes in dB (clamped at −300 dB so notches stay finite).
    pub fn magnitude_db(&self) -> Vec<f64> {
        self.values
            .iter()
            .map(|v| decibel::clamp_db(v.abs_db(), -300.0))
            .collect()
    }
}

/// Sweeps the transfer function `probe / input` across `grid`.
///
/// Runs on the stamp-split
/// [`AcSweepEngine`](crate::analysis::engine::AcSweepEngine): the system
/// is stamped once and only refactored per frequency, with zero heap
/// allocation after warm-up. [`sweep_reference`] keeps the
/// assemble-per-frequency path as the verification oracle.
///
/// # Errors
///
/// Propagates layout, probe, and singularity errors (a singular system at
/// any grid point aborts the sweep).
pub fn sweep(
    circuit: &Circuit,
    input: &str,
    probe: &Probe,
    grid: &FrequencyGrid,
) -> Result<AcSweep> {
    let mut engine = crate::analysis::engine::AcSweepEngine::new(circuit, input, probe)?;
    engine.sweep(grid)
}

/// [`sweep`] on the reference path: the MNA system is re-assembled and a
/// fresh LU factorisation taken at every grid point. This is the oracle
/// the engine is property-tested against — slower, but with no stamp
/// bookkeeping that could drift from the netlist.
///
/// # Errors
///
/// As [`sweep`].
pub fn sweep_reference(
    circuit: &Circuit,
    input: &str,
    probe: &Probe,
    grid: &FrequencyGrid,
) -> Result<AcSweep> {
    let layout = MnaLayout::new(circuit)?;
    let mut values = Vec::with_capacity(grid.len());
    for omega in grid.iter() {
        values.push(transfer_with_layout(circuit, &layout, input, probe, omega)?);
    }
    Ok(AcSweep {
        omegas: grid.frequencies().to_vec(),
        values,
    })
}

/// Samples the transfer function at an arbitrary list of angular
/// frequencies (not necessarily sorted) — the signature-extraction entry
/// point used by the fault-trajectory method. Engine-backed, like
/// [`sweep`].
///
/// # Errors
///
/// Propagates layout, probe, and singularity errors.
pub fn sample_at(
    circuit: &Circuit,
    input: &str,
    probe: &Probe,
    omegas: &[f64],
) -> Result<Vec<Complex64>> {
    let mut engine = crate::analysis::engine::AcSweepEngine::new(circuit, input, probe)?;
    let mut out = Vec::with_capacity(omegas.len());
    engine.sweep_into(omegas, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc() -> Circuit {
        let mut ckt = Circuit::new("rc");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
        ckt.capacitor("C1", "out", "0", 1e-6).unwrap();
        ckt
    }

    #[test]
    fn transfer_matches_analytic_rc() {
        let ckt = rc();
        let probe = Probe::node("out");
        // H(jω) = 1 / (1 + jωRC), RC = 1e-3.
        for &w in &[1.0, 100.0, 1000.0, 1e4, 1e6] {
            let h = transfer(&ckt, "V1", &probe, w).unwrap();
            let expected = Complex64::ONE / (Complex64::ONE + Complex64::jw(w * 1e-3));
            assert!((h - expected).abs() < 1e-12, "mismatch at ω={w}");
        }
    }

    #[test]
    fn sweep_collects_grid() {
        let ckt = rc();
        let grid = FrequencyGrid::log_space(1.0, 1e6, 25);
        let sw = sweep(&ckt, "V1", &Probe::node("out"), &grid).unwrap();
        assert_eq!(sw.len(), 25);
        assert!(!sw.is_empty());
        assert_eq!(sw.omegas().len(), sw.values().len());
        // Monotone decreasing magnitude for a first-order low-pass.
        let mags: Vec<f64> = sw.values().iter().map(|v| v.abs()).collect();
        for pair in mags.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-12);
        }
        // dB and linear agree.
        let db = sw.magnitude_db();
        assert!((db[0] - 20.0 * mags[0].log10()).abs() < 1e-9);
    }

    #[test]
    fn phase_behaviour() {
        let ckt = rc();
        let sw = sweep(
            &ckt,
            "V1",
            &Probe::node("out"),
            &FrequencyGrid::log_space(1.0, 1e6, 13),
        )
        .unwrap();
        let ph: Vec<f64> = sw.values().iter().map(|v| v.arg().to_degrees()).collect();
        assert!(ph[0] > -1.0); // ≈0° well below the corner
        assert!(*ph.last().unwrap() < -89.0); // →−90° far above
    }

    #[test]
    fn differential_probe() {
        let ckt = rc();
        // V(in) − V(out) across the resistor.
        let h = transfer(&ckt, "V1", &Probe::differential("in", "out"), 1000.0).unwrap();
        let out = transfer(&ckt, "V1", &Probe::node("out"), 1000.0).unwrap();
        assert!((h + out - Complex64::ONE).abs() < 1e-12);
    }

    #[test]
    fn unknown_probe_node_rejected() {
        let ckt = rc();
        let err = transfer(&ckt, "V1", &Probe::node("missing"), 1.0).unwrap_err();
        assert!(matches!(err, CircuitError::UnknownNode(_)));
        let err = transfer(&ckt, "V1", &Probe::differential("in", "zz"), 1.0).unwrap_err();
        assert!(matches!(err, CircuitError::UnknownNode(_)));
    }

    #[test]
    fn sample_at_arbitrary_frequencies() {
        let ckt = rc();
        let samples = sample_at(&ckt, "V1", &Probe::node("out"), &[2000.0, 10.0, 500.0]).unwrap();
        assert_eq!(samples.len(), 3);
        // Order preserved: first sample is the highest frequency (lowest gain).
        assert!(samples[0].abs() < samples[1].abs());
    }
}
