//! Real-coefficient polynomials in the Laplace variable `s`.
//!
//! Transfer functions of lumped linear networks are rational functions with
//! real coefficients; this module supplies the polynomial half: arithmetic,
//! evaluation at complex `s`, differentiation, and root finding via the
//! Durand–Kerner (Weierstrass) simultaneous iteration.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use serde::{Deserialize, Serialize};

use crate::complex::Complex64;

/// A polynomial `c₀ + c₁·s + c₂·s² + …` stored least-significant
/// coefficient first.
///
/// The representation is kept *normalised*: trailing (highest-degree) zero
/// coefficients are trimmed, and the zero polynomial is stored as a single
/// zero coefficient.
///
/// # Examples
///
/// ```
/// use ft_numerics::{Complex64, Poly};
///
/// // s² + 3s + 2 = (s+1)(s+2)
/// let p = Poly::new(vec![2.0, 3.0, 1.0]);
/// assert_eq!(p.degree(), 2);
/// let at_minus_1 = p.eval(Complex64::from_real(-1.0));
/// assert!(at_minus_1.abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Poly {
    coeffs: Vec<f64>,
}

impl Poly {
    /// Creates a polynomial from coefficients, lowest order first.
    ///
    /// An empty vector produces the zero polynomial.
    pub fn new(coeffs: Vec<f64>) -> Self {
        let mut p = Poly { coeffs };
        p.normalize();
        p
    }

    /// The zero polynomial.
    pub(crate) fn zero() -> Self {
        Poly { coeffs: vec![0.0] }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: f64) -> Self {
        Poly::new(vec![c])
    }

    /// Builds the monic polynomial with the given real roots,
    /// `(s − r₀)(s − r₁)…`.
    pub fn from_real_roots(roots: &[f64]) -> Self {
        let mut p = Poly::constant(1.0);
        for &r in roots {
            p = &p * &Poly::new(vec![-r, 1.0]);
        }
        p
    }

    fn normalize(&mut self) {
        while self.coeffs.len() > 1 && self.coeffs.last() == Some(&0.0) {
            self.coeffs.pop();
        }
        if self.coeffs.is_empty() {
            self.coeffs.push(0.0);
        }
    }

    /// Coefficients, lowest order first.
    #[inline]
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Degree of the polynomial; the zero polynomial reports degree 0.
    #[inline]
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// `true` if this is the zero polynomial.
    #[inline]
    pub(crate) fn is_zero(&self) -> bool {
        self.coeffs.len() == 1 && self.coeffs[0] == 0.0
    }

    /// Leading (highest-degree) coefficient.
    #[inline]
    pub(crate) fn leading(&self) -> f64 {
        *self.coeffs.last().expect("normalised poly is never empty")
    }

    /// Evaluates at complex `s` by Horner's rule.
    pub fn eval(&self, s: Complex64) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * s + c;
        }
        acc
    }

    /// Evaluates at real `x` by Horner's rule.
    pub fn eval_real(&self, x: f64) -> f64 {
        let mut acc = 0.0;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// First derivative `dP/ds`.
    pub fn derivative(&self) -> Poly {
        if self.degree() == 0 {
            return Poly::zero();
        }
        let coeffs = self
            .coeffs
            .iter()
            .enumerate()
            .skip(1)
            .map(|(k, &c)| c * k as f64)
            .collect();
        Poly::new(coeffs)
    }

    /// All complex roots by Durand–Kerner iteration.
    ///
    /// Returns an empty vector for constant polynomials. Roots of real
    /// polynomials come in conjugate pairs up to numerical noise; callers
    /// needing exact pairing should post-process.
    ///
    /// # Panics
    ///
    /// Panics if called on the zero polynomial (whose root set is ℂ).
    pub fn roots(&self) -> Vec<Complex64> {
        assert!(
            !self.is_zero(),
            "the zero polynomial has no finite root set"
        );
        let n = self.degree();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            // c0 + c1 s = 0
            return vec![Complex64::from_real(-self.coeffs[0] / self.coeffs[1])];
        }
        if n == 2 {
            return self.quadratic_roots();
        }

        // Monic normalisation for stability.
        let lead = self.leading();
        let monic: Vec<f64> = self.coeffs.iter().map(|c| c / lead).collect();
        let poly = Poly { coeffs: monic };

        // Initial guesses on a circle of radius derived from the Cauchy
        // bound, with an irrational angle offset to break symmetry.
        let radius = 1.0 + poly.coeffs[..n].iter().map(|c| c.abs()).fold(0.0, f64::max);
        let mut z: Vec<Complex64> = (0..n)
            .map(|k| {
                let theta = 2.0 * std::f64::consts::PI * (k as f64) / (n as f64) + 0.35;
                Complex64::from_polar(radius.clamp(0.5, 1e6), theta)
            })
            .collect();

        const MAX_ITER: usize = 500;
        const TOL: f64 = 1e-13;
        for _ in 0..MAX_ITER {
            let mut max_step = 0.0f64;
            for i in 0..n {
                let zi = z[i];
                let mut denom = Complex64::ONE;
                for (j, &zj) in z.iter().enumerate() {
                    if j != i {
                        denom *= zi - zj;
                    }
                }
                if denom == Complex64::ZERO {
                    // Perturb coincident guesses.
                    z[i] = zi + Complex64::new(1e-8, 1e-8);
                    max_step = f64::INFINITY;
                    continue;
                }
                let step = poly.eval(zi) / denom;
                z[i] = zi - step;
                max_step = max_step.max(step.abs());
            }
            if max_step < TOL * radius.max(1.0) {
                break;
            }
        }
        z
    }

    fn quadratic_roots(&self) -> Vec<Complex64> {
        let (c, b, a) = (self.coeffs[0], self.coeffs[1], self.coeffs[2]);
        let disc = Complex64::from_real(b * b - 4.0 * a * c).sqrt();
        // Numerically stable form: avoid cancellation in −b ± √disc.
        let b_c = Complex64::from_real(b);
        let q = if b >= 0.0 {
            (-b_c - disc).scale(0.5)
        } else {
            (-b_c + disc).scale(0.5)
        };
        if q == Complex64::ZERO {
            return vec![Complex64::ZERO, Complex64::ZERO];
        }
        vec![q / a, Complex64::from_real(c) / q]
    }
}

impl Default for Poly {
    fn default() -> Self {
        Poly::zero()
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, &c) in self.coeffs.iter().enumerate().rev() {
            if c == 0.0 && self.degree() > 0 {
                continue;
            }
            if !first {
                write!(f, " {} ", if c < 0.0 { "-" } else { "+" })?;
            } else if c < 0.0 {
                write!(f, "-")?;
            }
            let a = c.abs();
            match k {
                0 => write!(f, "{a}")?,
                1 => write!(f, "{a}·s")?,
                _ => write!(f, "{a}·s^{k}")?,
            }
            first = false;
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

impl Add for &Poly {
    type Output = Poly;
    fn add(self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = vec![0.0; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            out[i] += c;
        }
        for (i, &c) in rhs.coeffs.iter().enumerate() {
            out[i] += c;
        }
        Poly::new(out)
    }
}

impl Sub for &Poly {
    type Output = Poly;
    fn sub(self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = vec![0.0; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            out[i] += c;
        }
        for (i, &c) in rhs.coeffs.iter().enumerate() {
            out[i] -= c;
        }
        Poly::new(out)
    }
}

impl Mul for &Poly {
    type Output = Poly;
    fn mul(self, rhs: &Poly) -> Poly {
        if self.is_zero() || rhs.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![0.0; self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in rhs.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Poly::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_trims_trailing_zeros() {
        let p = Poly::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), 1);
        assert_eq!(p.coeffs(), &[1.0, 2.0]);
        let z = Poly::new(vec![]);
        assert!(z.is_zero());
        assert_eq!(z.degree(), 0);
    }

    #[test]
    fn evaluation_horner() {
        let p = Poly::new(vec![2.0, 3.0, 1.0]); // 2 + 3s + s²
        assert_eq!(p.eval_real(0.0), 2.0);
        assert_eq!(p.eval_real(1.0), 6.0);
        assert_eq!(p.eval_real(-2.0), 0.0);
        let v = p.eval(Complex64::jw(1.0)); // 2 + 3j + (j)² = 1 + 3j
        assert!((v - Complex64::new(1.0, 3.0)).abs() < 1e-14);
    }

    #[test]
    fn arithmetic() {
        let a = Poly::new(vec![1.0, 1.0]); // 1 + s
        let b = Poly::new(vec![2.0, 1.0]); // 2 + s
        assert_eq!((&a + &b).coeffs(), &[3.0, 2.0]);
        assert_eq!((&a - &b).coeffs(), &[-1.0]);
        assert_eq!((&a * &b).coeffs(), &[2.0, 3.0, 1.0]);
    }

    #[test]
    fn subtraction_cancels_degree() {
        let a = Poly::new(vec![0.0, 0.0, 1.0]);
        let d = &a - &a;
        assert!(d.is_zero());
    }

    #[test]
    fn derivative_rules() {
        let p = Poly::new(vec![5.0, 4.0, 3.0]); // 5 + 4s + 3s²
        assert_eq!(p.derivative().coeffs(), &[4.0, 6.0]);
        assert!(Poly::constant(9.0).derivative().is_zero());
    }

    #[test]
    fn from_real_roots_builds_factored_poly() {
        let p = Poly::from_real_roots(&[-1.0, -2.0]);
        assert_eq!(p.coeffs(), &[2.0, 3.0, 1.0]);
    }

    #[test]
    fn linear_root() {
        let p = Poly::new(vec![4.0, 2.0]); // 4 + 2s = 0 → s = −2
        let r = p.roots();
        assert_eq!(r.len(), 1);
        assert!((r[0] - Complex64::from_real(-2.0)).abs() < 1e-14);
    }

    #[test]
    fn quadratic_complex_roots() {
        // s² + 2s + 5 → roots −1 ± 2j
        let p = Poly::new(vec![5.0, 2.0, 1.0]);
        let mut r = p.roots();
        r.sort_by(|a, b| a.im.partial_cmp(&b.im).unwrap());
        assert!((r[0] - Complex64::new(-1.0, -2.0)).abs() < 1e-12);
        assert!((r[1] - Complex64::new(-1.0, 2.0)).abs() < 1e-12);
    }

    #[test]
    fn quadratic_near_cancellation() {
        // s² − 1e8 s + 1 has roots ~1e8 and ~1e-8; naive formula loses the
        // small one.
        let p = Poly::new(vec![1.0, -1e8, 1.0]);
        let r = p.roots();
        let small = r.iter().map(|z| z.abs()).fold(f64::INFINITY, f64::min);
        assert!((small - 1e-8).abs() / 1e-8 < 1e-6);
    }

    #[test]
    fn durand_kerner_high_degree() {
        // (s+1)(s+2)(s+3)(s+4)(s+5)
        let p = Poly::from_real_roots(&[-1.0, -2.0, -3.0, -4.0, -5.0]);
        let mut mags: Vec<f64> = p.roots().iter().map(|z| z.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (k, m) in mags.iter().enumerate() {
            assert!(
                (m - (k as f64 + 1.0)).abs() < 1e-6,
                "root magnitude {m} != {}",
                k + 1
            );
        }
    }

    #[test]
    fn roots_are_actual_roots() {
        let p = Poly::new(vec![1.0, 0.5, 2.0, 0.25, 1.0]);
        for z in p.roots() {
            assert!(p.eval(z).abs() < 1e-7, "residual too large at {z}");
        }
    }

    #[test]
    fn display_formats() {
        let p = Poly::new(vec![2.0, -3.0, 1.0]);
        let s = p.to_string();
        assert!(s.contains("s^2"), "{s}");
        assert!(s.contains('2'), "{s}");
        assert_eq!(Poly::zero().to_string(), "0");
    }

    #[test]
    #[should_panic(expected = "zero polynomial")]
    fn roots_of_zero_poly_panics() {
        let _ = Poly::zero().roots();
    }
}
