//! Double-precision complex arithmetic.
//!
//! The offline dependency set contains no `num-complex`, so the workspace
//! carries its own [`Complex64`]. It implements the full field operations,
//! the polar interface used by AC circuit analysis, and the elementary
//! functions (`exp`, `ln`, `sqrt`, `powi`, `powf`) needed by pole/zero and
//! root-finding code.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A complex number with `f64` real and imaginary parts.
///
/// # Examples
///
/// ```
/// use ft_numerics::Complex64;
///
/// let s = Complex64::new(0.0, 1.0); // j
/// assert_eq!(s * s, Complex64::new(-1.0, 0.0));
/// assert!((s.abs() - 1.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// Zero (additive identity).
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// One (multiplicative identity).
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{jθ}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ft_numerics::Complex64;
    /// use std::f64::consts::FRAC_PI_2;
    ///
    /// let z = Complex64::from_polar(2.0, FRAC_PI_2);
    /// assert!((z.re).abs() < 1e-15);
    /// assert!((z.im - 2.0).abs() < 1e-15);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64 {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// `jω` — the Laplace variable evaluated on the imaginary axis at
    /// angular frequency `omega` (rad/s). This is the entry point for all
    /// AC analyses in the workspace.
    #[inline]
    pub fn jw(omega: f64) -> Self {
        Complex64 { re: 0.0, im: omega }
    }

    /// Magnitude (modulus) `|z|`, computed with `hypot` for robustness
    /// against overflow/underflow.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (avoids the square root).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns non-finite parts when `self` is zero, mirroring `1.0 / 0.0`.
    #[inline]
    pub fn recip(self) -> Self {
        // Smith's algorithm: scale by the larger component to avoid
        // overflow for large |z| and precision loss for small |z|.
        if self.re.abs() >= self.im.abs() {
            let r = self.im / self.re;
            let d = self.re + self.im * r;
            Complex64 {
                re: 1.0 / d,
                im: -r / d,
            }
        } else {
            let r = self.re / self.im;
            let d = self.re * r + self.im;
            Complex64 {
                re: r / d,
                im: -1.0 / d,
            }
        }
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64 {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Principal square root.
    ///
    /// # Examples
    ///
    /// ```
    /// use ft_numerics::Complex64;
    ///
    /// let z = Complex64::new(-4.0, 0.0).sqrt();
    /// assert!((z - Complex64::new(0.0, 2.0)).abs() < 1e-14);
    /// ```
    #[inline]
    pub fn sqrt(self) -> Self {
        Complex64::from_polar(self.abs().sqrt(), self.arg() / 2.0)
    }

    /// Integer power by repeated squaring.
    pub fn powi(self, mut n: i32) -> Self {
        if n == 0 {
            return Complex64::ONE;
        }
        let mut base = if n < 0 { self.recip() } else { self };
        if n < 0 {
            n = -n;
        }
        let mut acc = Complex64::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc *= base;
            }
            base *= base;
            n >>= 1;
        }
        acc
    }

    /// `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Magnitude expressed in decibels, `20·log₁₀|z|`.
    ///
    /// Returns `f64::NEG_INFINITY` for a zero magnitude, which is the
    /// mathematically consistent limit.
    #[inline]
    pub fn abs_db(self) -> f64 {
        20.0 * self.abs().log10()
    }

    /// Phase in degrees, in `(-180°, 180°]`.
    #[inline]
    pub fn arg_deg(self) -> f64 {
        self.arg().to_degrees()
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl From<(f64, f64)> for Complex64 {
    #[inline]
    fn from((re, im): (f64, f64)) -> Self {
        Complex64::new(re, im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+j{}", self.re, self.im)
        } else {
            write!(f, "{}-j{}", self.re, -self.im)
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Add<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re + rhs, self.im)
    }
}

impl Add<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self + rhs.re, rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Sub<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re - rhs, self.im)
    }
}

impl Sub<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self - rhs.re, -rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Div<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        rhs.recip().scale(self)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl Product for Complex64 {
    fn product<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < EPS
    }

    #[test]
    fn construction_and_accessors() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z.re, 3.0);
        assert_eq!(z.im, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(Complex64::from_real(2.0), Complex64::new(2.0, 0.0));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::new(1.5, -2.5);
        let w = Complex64::from_polar(z.abs(), z.arg());
        assert!(close(z, w));
    }

    #[test]
    fn jw_is_imaginary_axis() {
        let s = Complex64::jw(100.0);
        assert_eq!(s.re, 0.0);
        assert_eq!(s.im, 100.0);
    }

    #[test]
    fn field_operations() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-3.0, 0.5);
        assert!(close(a + b, Complex64::new(-2.0, 2.5)));
        assert!(close(a - b, Complex64::new(4.0, 1.5)));
        assert!(close(a * b, Complex64::new(-4.0, -5.5)));
        assert!(close((a / b) * b, a));
    }

    #[test]
    fn mixed_real_operations() {
        let a = Complex64::new(1.0, 2.0);
        assert!(close(a + 1.0, Complex64::new(2.0, 2.0)));
        assert!(close(1.0 + a, Complex64::new(2.0, 2.0)));
        assert!(close(a - 1.0, Complex64::new(0.0, 2.0)));
        assert!(close(1.0 - a, Complex64::new(0.0, -2.0)));
        assert!(close(a * 2.0, Complex64::new(2.0, 4.0)));
        assert!(close(2.0 * a, Complex64::new(2.0, 4.0)));
        assert!(close(a / 2.0, Complex64::new(0.5, 1.0)));
        assert!(close(1.0 / a, a.recip()));
    }

    #[test]
    fn recip_small_and_large() {
        // Values whose naive |z|² would overflow/underflow.
        let big = Complex64::new(1e200, 1e200);
        let r = big.recip();
        assert!(r.is_finite());
        assert!(close(big * r, Complex64::ONE));

        let small = Complex64::new(1e-200, -1e-200);
        let r = small.recip();
        assert!(close(small * r, Complex64::ONE));
    }

    #[test]
    fn conjugate_properties() {
        let a = Complex64::new(2.0, -7.0);
        assert_eq!(a.conj().conj(), a);
        let p = a * a.conj();
        assert!((p.im).abs() < EPS);
        assert!((p.re - a.norm_sqr()).abs() < EPS);
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (-4.0, 0.0), (3.0, 4.0), (-1.0, -1.0)] {
            let z = Complex64::new(re, im);
            let r = z.sqrt();
            assert!(close(r * r, z), "sqrt failed for {z}");
        }
    }

    #[test]
    fn integer_powers() {
        let z = Complex64::new(1.0, 1.0);
        assert!(close(z.powi(0), Complex64::ONE));
        assert!(close(z.powi(2), Complex64::new(0.0, 2.0)));
        assert!(close(z.powi(4), Complex64::new(-4.0, 0.0)));
        assert!(close(z.powi(-2), Complex64::new(0.0, 2.0).recip()));
    }

    #[test]
    fn decibel_magnitude() {
        let z = Complex64::from_real(10.0);
        assert!((z.abs_db() - 20.0).abs() < EPS);
        assert_eq!(Complex64::ZERO.abs_db(), f64::NEG_INFINITY);
    }

    #[test]
    fn display_formatting() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+j2");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-j2");
    }

    #[test]
    fn sum_and_product() {
        let v = [
            Complex64::new(1.0, 0.0),
            Complex64::new(0.0, 1.0),
            Complex64::new(2.0, 2.0),
        ];
        let s: Complex64 = v.iter().copied().sum();
        assert!(close(s, Complex64::new(3.0, 3.0)));
        let p: Complex64 = v.iter().copied().product();
        assert!(close(
            p,
            Complex64::new(0.0, 1.0) * Complex64::new(2.0, 2.0)
        ));
    }

    #[test]
    fn finite_predicate() {
        assert!(Complex64::new(1.0, 2.0).is_finite());
        assert!(!Complex64::new(f64::INFINITY, 0.0).is_finite());
    }
}
