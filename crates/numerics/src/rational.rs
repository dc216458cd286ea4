//! Rational transfer functions `H(s) = N(s)/D(s)`.
//!
//! Lumped linear time-invariant networks have rational transfer functions
//! with real coefficients. This module provides evaluation on the `jω`
//! axis, pole/zero extraction, and the second-order descriptors (ω₀, Q)
//! used to sanity-check the circuit simulator against closed forms.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::complex::Complex64;
use crate::poly::Poly;

/// A rational function of the Laplace variable with real coefficients.
///
/// # Examples
///
/// ```
/// use ft_numerics::{Poly, TransferFunction};
///
/// // Unity-gain RC low-pass with ωc = 1: H(s) = 1 / (s + 1)
/// let h = TransferFunction::new(Poly::constant(1.0), Poly::new(vec![1.0, 1.0]));
/// let at_dc = h.eval_jw(0.0);
/// assert!((at_dc.abs() - 1.0).abs() < 1e-12);
/// let at_corner = h.eval_jw(1.0);
/// assert!((at_corner.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferFunction {
    num: Poly,
    den: Poly,
}

impl TransferFunction {
    /// Creates `N(s)/D(s)`.
    ///
    /// # Panics
    ///
    /// Panics if the denominator is the zero polynomial.
    pub fn new(num: Poly, den: Poly) -> Self {
        assert!(
            !den.is_zero(),
            "transfer function denominator must be nonzero"
        );
        TransferFunction { num, den }
    }

    /// Numerator polynomial.
    #[inline]
    pub fn num(&self) -> &Poly {
        &self.num
    }

    /// Evaluates `H(s)` at an arbitrary complex `s`.
    pub(crate) fn eval(&self, s: Complex64) -> Complex64 {
        self.num.eval(s) / self.den.eval(s)
    }

    /// Evaluates `H(jω)` at angular frequency `omega` (rad/s).
    pub fn eval_jw(&self, omega: f64) -> Complex64 {
        self.eval(Complex64::jw(omega))
    }

    /// DC gain `H(0)`; may be ±∞ for differentiating/integrating networks.
    pub fn dc_gain(&self) -> f64 {
        let n = self.num.eval_real(0.0);
        let d = self.den.eval_real(0.0);
        n / d
    }

    /// Poles (roots of the denominator).
    pub fn poles(&self) -> Vec<Complex64> {
        self.den.roots()
    }

    /// `true` when all poles have strictly negative real parts (BIBO
    /// stability of the network function).
    pub fn is_stable(&self) -> bool {
        self.poles().iter().all(|p| p.re < 0.0)
    }

    /// For a second-order denominator `a₂s² + a₁s + a₀`, the natural
    /// frequency `ω₀ = √(a₀/a₂)` and quality factor
    /// `Q = √(a₀·a₂)/a₁`. Returns `None` for other orders.
    pub fn second_order_descriptors(&self) -> Option<SecondOrder> {
        if self.den.degree() != 2 {
            return None;
        }
        let c = self.den.coeffs();
        let (a0, a1, a2) = (c[0], c[1], c[2]);
        if a0 / a2 <= 0.0 {
            return None;
        }
        let w0 = (a0 / a2).sqrt();
        let q = (a0 * a2).sqrt() / a1;
        Some(SecondOrder { w0, q })
    }
}

impl fmt::Display for TransferFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}) / ({})", self.num, self.den)
    }
}

/// Natural frequency and quality factor of a second-order section.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SecondOrder {
    /// Natural (pole) frequency ω₀ in rad/s.
    pub w0: f64,
    /// Quality factor Q.
    pub q: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_lowpass_magnitudes() {
        let h = TransferFunction::new(Poly::constant(1.0), Poly::new(vec![1.0, 1.0]));
        assert!((h.dc_gain() - 1.0).abs() < 1e-15);
        assert!((h.eval_jw(1.0).abs_db() - (-3.0103)).abs() < 1e-3);
        // One decade above the corner: −20 dB/dec slope.
        assert!((h.eval_jw(10.0).abs_db() - (-20.043)).abs() < 0.01);
        assert!((h.eval_jw(1.0).arg().to_degrees() - (-45.0)).abs() < 1e-9);
    }

    #[test]
    fn biquad_descriptors() {
        // H(s) = k·w0² / (s² + (w0/q)·s + w0²) with k = 2, w0 = 1000, q = 0.707.
        let (k, w0, q) = (2.0, 1000.0, 0.707);
        let h = TransferFunction::new(
            Poly::constant(k * w0 * w0),
            Poly::new(vec![w0 * w0, w0 / q, 1.0]),
        );
        let so = h.second_order_descriptors().unwrap();
        assert!((so.w0 - 1000.0).abs() < 1e-9);
        assert!((so.q - 0.707).abs() < 1e-12);
        assert!((h.dc_gain() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn poles_and_stability() {
        // H(s) = s / (s+1)(s+2)
        let h = TransferFunction::new(
            Poly::new(vec![0.0, 1.0]),
            Poly::from_real_roots(&[-1.0, -2.0]),
        );
        let mut poles: Vec<f64> = h.poles().iter().map(|p| p.re).collect();
        poles.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((poles[0] + 2.0).abs() < 1e-9);
        assert!((poles[1] + 1.0).abs() < 1e-9);
        assert!(h.is_stable());
    }

    #[test]
    fn instability_detected() {
        // Pole in the right half plane.
        let h = TransferFunction::new(Poly::constant(1.0), Poly::new(vec![-1.0, 1.0]));
        assert!(!h.is_stable());
    }

    #[test]
    fn second_order_none_for_first_order() {
        let h = TransferFunction::new(Poly::constant(1.0), Poly::new(vec![1.0, 1.0]));
        assert!(h.second_order_descriptors().is_none());
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_rejected() {
        let _ = TransferFunction::new(Poly::constant(1.0), Poly::zero());
    }

    #[test]
    fn display() {
        let h = TransferFunction::new(Poly::constant(1.0), Poly::new(vec![1.0, 1.0]));
        let s = h.to_string();
        assert!(s.contains('/'), "{s}");
    }
}
