//! Op-amp models.
//!
//! The paper's fault model (the FFM of Calvano et al., JETTA 2001) treats
//! active-device faults as percentage deviations of *macromodel*
//! parameters. Two models are described: the ideal nullor (exact virtual
//! short, used for the normalized CUT and stamped by
//! [`Circuit::ideal_opamp`](crate::Circuit::ideal_opamp)) and a
//! single-pole macromodel. No circuit builder expands the macromodel.

use serde::{Deserialize, Serialize};

/// Behavioural model of an op amp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum OpAmpModel {
    /// Ideal nullor: infinite gain and input impedance, zero output
    /// impedance. One MNA branch unknown, no internal nodes.
    #[default]
    Ideal,
    /// Single-pole finite-gain macromodel
    /// `A(s) = A0 / (1 + s·A0/GBW)` with resistive input/output.
    SinglePole {
        /// DC open-loop gain (dimensionless, e.g. 2·10⁵).
        a0: f64,
        /// Gain-bandwidth product in rad/s.
        gbw_rad: f64,
        /// Differential input resistance in ohms.
        rin: f64,
        /// Output resistance in ohms.
        rout: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ideal() {
        assert_eq!(OpAmpModel::default(), OpAmpModel::Ideal);
    }
}
