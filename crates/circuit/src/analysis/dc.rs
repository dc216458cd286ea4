//! DC operating-point analysis.
//!
//! All elements are linear, so the operating point is one MNA solve at
//! `s = 0`: capacitors vanish from the matrix (open) and inductors reduce
//! to shorts through their branch equations.

use std::collections::HashMap;

use ft_numerics::Complex64;

use crate::error::Result;
use crate::mna::{solve, Excitation, MnaLayout};
use crate::netlist::{Circuit, ComponentId, NodeId};

/// DC operating point: real node voltages and branch currents.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    voltages: Vec<f64>,
    currents: HashMap<ComponentId, f64>,
}

impl OperatingPoint {
    /// Node voltage (ground reads 0).
    #[inline]
    pub(crate) fn voltage(&self, node: NodeId) -> f64 {
        self.voltages[node.index()]
    }

    /// Node voltage by name.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CircuitError::UnknownNode`] when absent.
    pub fn voltage_by_name(&self, circuit: &Circuit, name: &str) -> Result<f64> {
        let id = circuit
            .find_node(name)
            .ok_or_else(|| crate::error::CircuitError::UnknownNode(name.to_string()))?;
        Ok(self.voltage(id))
    }

    /// Branch current of a component with a branch unknown.
    #[inline]
    pub(crate) fn current(&self, id: ComponentId) -> Option<f64> {
        self.currents.get(&id).copied()
    }
}

/// Computes the DC operating point.
///
/// # Errors
///
/// Returns [`crate::CircuitError::Singular`] for ill-posed circuits and
/// layout errors for bad controlled-source references.
pub fn operating_point(circuit: &Circuit) -> Result<OperatingPoint> {
    let layout = MnaLayout::new(circuit)?;
    operating_point_with_layout(circuit, &layout)
}

/// [`operating_point`] with a pre-built layout.
///
/// # Errors
///
/// As [`operating_point`].
pub(crate) fn operating_point_with_layout(
    circuit: &Circuit,
    layout: &MnaLayout,
) -> Result<OperatingPoint> {
    let sol = solve(circuit, layout, Complex64::ZERO, &Excitation::Dc)?;
    let voltages = (0..circuit.node_count())
        .map(|i| sol.voltage(NodeId(i)).re)
        .collect();
    let mut currents = HashMap::new();
    for idx in 0..circuit.component_count() {
        let id = ComponentId(idx);
        if let Some(i) = sol.current(id) {
            currents.insert(id, i.re);
        }
    }
    Ok(OperatingPoint { voltages, currents })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divider_operating_point() {
        let mut ckt = Circuit::new("div");
        ckt.voltage_source("V1", "in", "0", 9.0).unwrap();
        ckt.resistor("R1", "in", "mid", 2e3).unwrap();
        ckt.resistor("R2", "mid", "0", 1e3).unwrap();
        let op = operating_point(&ckt).unwrap();
        assert!((op.voltage_by_name(&ckt, "mid").unwrap() - 3.0).abs() < 1e-9);
        assert!((op.voltage_by_name(&ckt, "in").unwrap() - 9.0).abs() < 1e-9);
        assert_eq!(op.voltage(NodeId(0)), 0.0);
    }

    #[test]
    fn capacitor_blocks_dc() {
        let mut ckt = Circuit::new("c-block");
        ckt.voltage_source("V1", "in", "0", 5.0).unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
        ckt.capacitor("C1", "out", "0", 1e-6).unwrap();
        // A bleeder so "out" is not floating at DC.
        ckt.resistor("R2", "out", "0", 1e6).unwrap();
        let op = operating_point(&ckt).unwrap();
        let v = op.voltage_by_name(&ckt, "out").unwrap();
        // Divider 1e6/(1e6+1e3): nearly the full 5 V, no cap current.
        assert!((v - 5.0 * 1e6 / 1.001e6).abs() < 1e-9);
    }

    #[test]
    fn inductor_short_at_dc() {
        let mut ckt = Circuit::new("l-short");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "a", 100.0).unwrap();
        ckt.inductor("L1", "a", "b", 10.0).unwrap();
        ckt.resistor("R2", "b", "0", 100.0).unwrap();
        let op = operating_point(&ckt).unwrap();
        let va = op.voltage_by_name(&ckt, "a").unwrap();
        let vb = op.voltage_by_name(&ckt, "b").unwrap();
        assert!((va - vb).abs() < 1e-12, "inductor should be a DC short");
        assert!((va - 0.5).abs() < 1e-9);
        let il = op.current(ckt.find("L1").unwrap()).unwrap();
        assert!((il - 5e-3).abs() < 1e-9);
    }

    #[test]
    fn currents_reported_for_branch_elements() {
        let mut ckt = Circuit::new("i");
        ckt.voltage_source("V1", "a", "0", 10.0).unwrap();
        ckt.resistor("R1", "a", "0", 1e3).unwrap();
        let op = operating_point(&ckt).unwrap();
        let iv = op.current(ckt.find("V1").unwrap()).unwrap();
        assert!((iv + 0.01).abs() < 1e-9);
        // Resistors have no branch current unknown.
        assert_eq!(op.current(ckt.find("R1").unwrap()), None);
    }
}
