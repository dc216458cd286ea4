//! The parametric fault model.
//!
//! Following the paper's functional-parametric-fault paradigm (FFM,
//! Calvano et al. 2001): a fault is a percentage deviation of one
//! component's value: R, C or L, or the gain of a controlled source.

use std::fmt;

use ft_circuit::{Circuit, CircuitError, ComponentId};
use serde::{Deserialize, Serialize};

/// A single parametric fault: `component` deviates by `deviation`
/// (fractional: `+0.3` = +30% of nominal, `-0.4` = −40%).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParametricFault {
    component: String,
    deviation: f64,
}

impl ParametricFault {
    /// Creates a fault; `deviation` is fractional (−0.4 = −40%).
    ///
    /// # Panics
    ///
    /// Panics if `deviation <= -1` (a deviation of −100% or more is a
    /// catastrophic fault, not a parametric one) or is not finite.
    pub(crate) fn new(component: impl Into<String>, deviation: f64) -> Self {
        assert!(
            deviation.is_finite() && deviation > -1.0,
            "parametric deviation must be finite and > -100%"
        );
        ParametricFault {
            component: component.into(),
            deviation,
        }
    }

    /// Creates a fault from a percentage (`30.0` = +30%).
    ///
    /// # Panics
    ///
    /// As `ParametricFault::new`.
    pub fn from_percent(component: impl Into<String>, percent: f64) -> Self {
        ParametricFault::new(component, percent / 100.0)
    }

    /// The faulted component's name.
    #[inline]
    pub fn component(&self) -> &str {
        &self.component
    }

    /// Deviation as a percentage.
    #[inline]
    pub fn percent(&self) -> f64 {
        self.deviation * 100.0
    }

    /// Multiplier applied to the nominal value (`1 + deviation`).
    #[inline]
    pub fn multiplier(&self) -> f64 {
        1.0 + self.deviation
    }

    /// Resolves this fault against `circuit` into the
    /// `(ComponentId, faulty value)` form the AC sweep engine's batch
    /// sweeps consume — the shared front half of every dictionary build.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownComponent`] when the component does
    /// not exist and [`CircuitError::InvalidValue`] when it has no
    /// principal value.
    pub fn resolve(&self, circuit: &Circuit) -> Result<(ComponentId, f64), CircuitError> {
        let id = circuit
            .find(&self.component)
            .ok_or_else(|| CircuitError::UnknownComponent(self.component.clone()))?;
        let nominal =
            circuit
                .value(&self.component)?
                .ok_or_else(|| CircuitError::InvalidValue {
                    component: self.component.clone(),
                    value: f64::NAN,
                    reason: "component has no principal value to deviate",
                })?;
        Ok((id, nominal * self.multiplier()))
    }

    /// Applies this fault to a clone of `circuit`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownComponent`] when the component does
    /// not exist and [`CircuitError::InvalidValue`] when it has no
    /// principal value.
    pub fn apply(&self, circuit: &Circuit) -> Result<Circuit, CircuitError> {
        let mut faulty = circuit.clone();
        self.apply_in_place(&mut faulty)?;
        Ok(faulty)
    }

    /// Applies this fault to `circuit` in place.
    ///
    /// # Errors
    ///
    /// As [`ParametricFault::apply`].
    pub(crate) fn apply_in_place(&self, circuit: &mut Circuit) -> Result<(), CircuitError> {
        let nominal =
            circuit
                .value(&self.component)?
                .ok_or_else(|| CircuitError::InvalidValue {
                    component: self.component.clone(),
                    value: f64::NAN,
                    reason: "component has no principal value to deviate",
                })?;
        circuit.set_value(&self.component, nominal * self.multiplier())
    }
}

impl fmt::Display for ParametricFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+.0}%", self.component, self.percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_circuit::{transfer, Probe};

    fn rc() -> Circuit {
        let mut ckt = Circuit::new("rc");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
        ckt.capacitor("C1", "out", "0", 1e-6).unwrap();
        ckt
    }

    #[test]
    fn constructors_and_accessors() {
        let f = ParametricFault::new("R1", 0.3);
        assert_eq!(f.component(), "R1");
        assert_eq!(f.deviation, 0.3);
        assert_eq!(f.percent(), 30.0);
        assert_eq!(f.multiplier(), 1.3);
        let g = ParametricFault::from_percent("C1", -40.0);
        assert_eq!(g.deviation, -0.4);
    }

    #[test]
    #[should_panic(expected = "-100%")]
    fn full_negative_deviation_rejected() {
        let _ = ParametricFault::new("R1", -1.0);
    }

    #[test]
    fn display_format() {
        assert_eq!(ParametricFault::new("R3", 0.2).to_string(), "R3+20%");
        assert_eq!(ParametricFault::new("C1", -0.1).to_string(), "C1-10%");
    }

    #[test]
    fn apply_changes_value_and_response() {
        let ckt = rc();
        let fault = ParametricFault::new("R1", 0.5);
        let faulty = fault.apply(&ckt).unwrap();
        assert_eq!(faulty.value("R1").unwrap(), Some(1.5e3));
        // Original untouched.
        assert_eq!(ckt.value("R1").unwrap(), Some(1e3));
        // Corner moves down: response at the nominal corner is lower.
        let g = transfer(&ckt, "V1", &Probe::node("out"), 1000.0).unwrap();
        let f = transfer(&faulty, "V1", &Probe::node("out"), 1000.0).unwrap();
        assert!(f.abs() < g.abs());
    }

    #[test]
    fn apply_unknown_component() {
        let ckt = rc();
        assert!(ParametricFault::new("R9", 0.1).apply(&ckt).is_err());
        assert!(ParametricFault::new("V1", 0.1).apply(&ckt).is_err());
    }
}
