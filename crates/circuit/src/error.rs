//! Error types for circuit construction and analysis.

use std::fmt;

use ft_numerics::SingularMatrixError;

/// Error raised while building or analysing a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// A component name was used twice.
    DuplicateComponent(String),
    /// A referenced component does not exist.
    UnknownComponent(String),
    /// A referenced node does not exist.
    UnknownNode(String),
    /// A component value is non-finite or out of its legal range.
    InvalidValue {
        /// Component whose value is invalid.
        component: String,
        /// The offending value.
        value: f64,
        /// Explanation of the constraint that was violated.
        reason: &'static str,
    },
    /// A controlled source references a component that is not a voltage
    /// source (SPICE F/H semantics require a voltage-source ammeter).
    InvalidControl {
        /// The controlled source.
        component: String,
        /// The (non-voltage-source) control reference.
        control: String,
    },
    /// The MNA system is singular — typically a floating node or a loop of
    /// ideal voltage sources.
    Singular {
        /// Index of the MNA column where elimination failed.
        column: usize,
    },
    /// One deviation of a batch fault sweep produced a (numerically)
    /// singular system at one grid frequency. Unlike [`CircuitError::Singular`]
    /// this identifies *which* batch entry is ill-posed, so callers can
    /// attribute the failure to a fault instead of aborting blind.
    SingularFault {
        /// Index of the offending deviation in the batch passed to the
        /// sweep.
        fault: usize,
        /// Angular frequency (rad/s) at which the deviated system is
        /// singular.
        omega: f64,
    },
    /// The analysis was asked to use a component in a role it cannot play
    /// (e.g. AC input that is not an independent source).
    NotASource(String),
    /// The circuit has no ground reference (node `0`).
    NoGround,
    /// Component has the wrong number of terminals for its element kind.
    TerminalMismatch {
        /// Component name.
        component: String,
        /// Expected terminal count.
        expected: usize,
        /// Actual terminal count.
        actual: usize,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::DuplicateComponent(name) => {
                write!(f, "component name `{name}` is already in use")
            }
            CircuitError::UnknownComponent(name) => {
                write!(f, "unknown component `{name}`")
            }
            CircuitError::UnknownNode(name) => write!(f, "unknown node `{name}`"),
            CircuitError::InvalidValue {
                component,
                value,
                reason,
            } => write!(f, "invalid value {value} for `{component}`: {reason}"),
            CircuitError::InvalidControl { component, control } => write!(
                f,
                "`{component}` control reference `{control}` is not a voltage source"
            ),
            CircuitError::Singular { column } => write!(
                f,
                "singular MNA system (column {column}): check for floating nodes or source loops"
            ),
            CircuitError::SingularFault { fault, omega } => write!(
                f,
                "deviated system of batch fault #{fault} is singular at ω={omega} rad/s"
            ),
            CircuitError::NotASource(name) => {
                write!(f, "`{name}` is not an independent source")
            }
            CircuitError::NoGround => write!(f, "circuit has no ground (node `0`) connection"),
            CircuitError::TerminalMismatch {
                component,
                expected,
                actual,
            } => write!(
                f,
                "`{component}` expects {expected} terminals, got {actual}"
            ),
        }
    }
}

impl std::error::Error for CircuitError {}

impl From<SingularMatrixError> for CircuitError {
    fn from(e: SingularMatrixError) -> Self {
        CircuitError::Singular { column: e.column }
    }
}

/// Convenience alias for circuit results.
pub(crate) type Result<T> = std::result::Result<T, CircuitError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let cases: Vec<(CircuitError, &str)> = vec![
            (
                CircuitError::DuplicateComponent("R1".into()),
                "already in use",
            ),
            (CircuitError::UnknownComponent("X9".into()), "unknown"),
            (CircuitError::UnknownNode("n7".into()), "unknown node"),
            (
                CircuitError::InvalidValue {
                    component: "R1".into(),
                    value: -1.0,
                    reason: "resistance must be positive",
                },
                "must be positive",
            ),
            (
                CircuitError::InvalidControl {
                    component: "F1".into(),
                    control: "R2".into(),
                },
                "not a voltage source",
            ),
            (CircuitError::Singular { column: 3 }, "singular"),
            (
                CircuitError::SingularFault {
                    fault: 13,
                    omega: 2.0,
                },
                "batch fault #13",
            ),
            (CircuitError::NotASource("R1".into()), "not an independent"),
            (CircuitError::NoGround, "ground"),
            (
                CircuitError::TerminalMismatch {
                    component: "E1".into(),
                    expected: 4,
                    actual: 2,
                },
                "terminals",
            ),
        ];
        for (err, frag) in cases {
            assert!(err.to_string().contains(frag), "`{err}` missing `{frag}`");
        }
    }

    #[test]
    fn from_singular_matrix() {
        let e: CircuitError = SingularMatrixError { column: 2 }.into();
        assert_eq!(e, CircuitError::Singular { column: 2 });
    }
}
