//! The signature transformation (paper §2.2, Fig. 2).
//!
//! Sampling a circuit's magnitude response at the `n` test frequencies
//! maps the whole response onto a single point of an `n`-dimensional
//! Cartesian space. With the golden response subtracted, the golden
//! circuit sits at the origin and every faulty circuit at a displacement
//! whose direction and length encode the fault — the coordinate data on
//! which fault trajectories are drawn.

use std::fmt;

use ft_circuit::{sample_at, Circuit, CircuitError, Probe};
use ft_numerics::decibel;
use serde::{Deserialize, Serialize};

/// An ordered set of test frequencies (rad/s) — the test vector the GA
/// optimises.
///
/// # Examples
///
/// ```
/// use ft_core::TestVector;
///
/// let tv = TestVector::new(vec![0.5, 2.0]);
/// assert_eq!(tv.len(), 2);
/// assert_eq!(tv.omegas(), &[0.5, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestVector {
    omegas: Vec<f64>,
}

impl TestVector {
    /// Creates a test vector from angular frequencies.
    ///
    /// # Panics
    ///
    /// Panics if `omegas` is empty or contains non-finite/non-positive
    /// values.
    pub fn new(omegas: Vec<f64>) -> Self {
        assert!(
            !omegas.is_empty(),
            "test vector needs at least one frequency"
        );
        assert!(
            omegas.iter().all(|w| w.is_finite() && *w > 0.0),
            "test frequencies must be positive and finite"
        );
        TestVector { omegas }
    }

    /// A two-frequency test vector — the paper's choice.
    pub fn pair(f1: f64, f2: f64) -> Self {
        TestVector::new(vec![f1, f2])
    }

    /// The angular frequencies.
    #[inline]
    pub fn omegas(&self) -> &[f64] {
        &self.omegas
    }

    /// Number of test frequencies (the signature-space dimension).
    #[inline]
    pub fn len(&self) -> usize {
        self.omegas.len()
    }

    /// `true` when empty (never, for constructed vectors).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.omegas.is_empty()
    }
}

impl fmt::Display for TestVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, w) in self.omegas.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w:.4}")?;
        }
        write!(f, "}} rad/s")
    }
}

/// A point in signature space: golden-relative dB magnitudes at the test
/// frequencies. The golden circuit is exactly the origin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Signature(Vec<f64>);

impl Signature {
    /// Builds a signature from golden-relative coordinates.
    pub fn new(coords: Vec<f64>) -> Self {
        Signature(coords)
    }

    /// The origin of an `n`-dimensional signature space.
    pub(crate) fn origin(n: usize) -> Self {
        Signature(vec![0.0; n])
    }

    /// Coordinates (ΔdB at each test frequency).
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.0
    }

    /// Space dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Euclidean distance to another signature.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub(crate) fn distance(&self, other: &Signature) -> f64 {
        assert_eq!(self.dim(), other.dim(), "signature dimension mismatch");
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    /// Euclidean norm (distance from the golden origin).
    pub fn norm(&self) -> f64 {
        self.0.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl From<Vec<f64>> for Signature {
    fn from(v: Vec<f64>) -> Self {
        Signature(v)
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, x) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:+.3}")?;
        }
        write!(f, ") dB")
    }
}

/// Floor applied to dB magnitudes before differencing (keeps notch
/// responses finite).
pub(crate) const DB_FLOOR: f64 = -300.0;

/// Converts absolute dB samples to a golden-relative signature.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub(crate) fn signature_from_db(measured_db: &[f64], golden_db: &[f64]) -> Signature {
    assert_eq!(
        measured_db.len(),
        golden_db.len(),
        "measured/golden length mismatch"
    );
    Signature(
        measured_db
            .iter()
            .zip(golden_db)
            .map(|(m, g)| decibel::clamp_db(*m, DB_FLOOR) - decibel::clamp_db(*g, DB_FLOOR))
            .collect(),
    )
}

/// Measures a circuit's signature exactly (AC solves at the test
/// frequencies) against a golden reference circuit.
///
/// Sampling runs on the stamp-split [`ft_circuit::AcSweepEngine`] (via
/// [`sample_at`]): each circuit is stamped once and only refactored per
/// test frequency.
///
/// # Errors
///
/// Propagates simulation errors from either circuit.
pub fn measure_signature(
    circuit: &Circuit,
    golden: &Circuit,
    input: &str,
    probe: &Probe,
    tv: &TestVector,
) -> Result<Signature, CircuitError> {
    let measured = sample_at(circuit, input, probe, tv.omegas())?;
    let reference = sample_at(golden, input, probe, tv.omegas())?;
    let m_db: Vec<f64> = measured.iter().map(|v| v.abs_db()).collect();
    let g_db: Vec<f64> = reference.iter().map(|v| v.abs_db()).collect();
    Ok(signature_from_db(&m_db, &g_db))
}

/// Absolute (not golden-relative) dB samples of one circuit at the test
/// frequencies — the raw `H(f1), H(f2), …` values of Fig. 2.
/// Engine-backed, like [`measure_signature`].
///
/// # Errors
///
/// Propagates simulation errors.
pub fn sample_response_db(
    circuit: &Circuit,
    input: &str,
    probe: &Probe,
    tv: &TestVector,
) -> Result<Vec<f64>, CircuitError> {
    let samples = sample_at(circuit, input, probe, tv.omegas())?;
    Ok(samples
        .iter()
        .map(|v| decibel::clamp_db(v.abs_db(), DB_FLOOR))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_circuit::tow_thomas_normalized;

    #[test]
    fn test_vector_validation() {
        let tv = TestVector::pair(0.5, 2.0);
        assert_eq!(tv.len(), 2);
        assert!(!tv.is_empty());
        assert!(tv.to_string().contains("rad/s"));
    }

    #[test]
    #[should_panic(expected = "at least one frequency")]
    fn empty_test_vector_rejected() {
        let _ = TestVector::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_frequency_rejected() {
        let _ = TestVector::new(vec![1.0, -2.0]);
    }

    #[test]
    fn signature_geometry() {
        let a = Signature::new(vec![3.0, 4.0]);
        assert_eq!(a.dim(), 2);
        assert_eq!(a.norm(), 5.0);
        let b = Signature::origin(2);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(b.norm(), 0.0);
        let s: Signature = vec![1.0].into();
        assert_eq!(s.coords(), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn distance_dimension_checked() {
        let _ = Signature::origin(2).distance(&Signature::origin(3));
    }

    #[test]
    fn signature_from_db_differences() {
        let s = signature_from_db(&[-10.0, -20.0], &[-13.0, -18.0]);
        assert_eq!(s.coords(), &[3.0, -2.0]);
        // Infinite notches clamp to the floor instead of producing NaN.
        let s = signature_from_db(&[f64::NEG_INFINITY], &[-10.0]);
        assert_eq!(s.coords(), &[DB_FLOOR + 10.0]);
    }

    #[test]
    fn golden_signature_is_origin() {
        let bench = tow_thomas_normalized(1.0).unwrap();
        let tv = TestVector::pair(0.5, 2.0);
        let s = measure_signature(
            &bench.circuit,
            &bench.circuit,
            &bench.input,
            &bench.probe,
            &tv,
        )
        .unwrap();
        assert!(s.norm() < 1e-12);
    }

    #[test]
    fn faulty_signature_leaves_origin() {
        let bench = tow_thomas_normalized(1.0).unwrap();
        let tv = TestVector::pair(0.5, 2.0);
        let mut faulty = bench.circuit.clone();
        faulty.set_value("R3", 1.3).unwrap();
        let s =
            measure_signature(&faulty, &bench.circuit, &bench.input, &bench.probe, &tv).unwrap();
        assert!(s.norm() > 0.1, "norm {}", s.norm());
    }

    #[test]
    fn raw_samples_match_fig2_semantics() {
        // Fig. 2: H(f1) = A1, H(f2) = A2 for the golden curve; the
        // signature is (B − A) per axis.
        let bench = tow_thomas_normalized(1.0).unwrap();
        let tv = TestVector::pair(0.5, 2.0);
        let golden_raw =
            sample_response_db(&bench.circuit, &bench.input, &bench.probe, &tv).unwrap();
        let mut faulty = bench.circuit.clone();
        faulty.set_value("R3", 1.3).unwrap();
        let faulty_raw = sample_response_db(&faulty, &bench.input, &bench.probe, &tv).unwrap();
        let sig =
            measure_signature(&faulty, &bench.circuit, &bench.input, &bench.probe, &tv).unwrap();
        for i in 0..2 {
            assert!((sig.coords()[i] - (faulty_raw[i] - golden_raw[i])).abs() < 1e-12);
        }
    }
}
