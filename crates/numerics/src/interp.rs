//! Piecewise-linear interpolation over sampled curves.
//!
//! Fault dictionaries store magnitude responses sampled on a grid; test
//! frequencies chosen by the GA fall between grid points, so responses are
//! interpolated — linearly in log-frequency, matching how Bode plots are
//! read.

use serde::{Deserialize, Serialize};

/// A piecewise-linear function defined by `(x, y)` knots with strictly
/// increasing `x`.
///
/// # Examples
///
/// ```
/// use ft_numerics::interp::PiecewiseLinear;
///
/// let f = PiecewiseLinear::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 0.0])?;
/// assert_eq!(f.eval(0.5), 5.0);
/// assert_eq!(f.eval(1.5), 5.0);
/// # Ok::<(), ft_numerics::interp::InterpError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PiecewiseLinear {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

/// Error constructing an interpolant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Fewer than two knots were supplied.
    TooFewKnots,
    /// `xs` and `ys` lengths differ.
    LengthMismatch,
    /// `xs` is not strictly increasing or contains non-finite values.
    InvalidAbscissae,
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::TooFewKnots => write!(f, "interpolation needs at least two knots"),
            InterpError::LengthMismatch => write!(f, "xs and ys must have equal length"),
            InterpError::InvalidAbscissae => {
                write!(f, "xs must be finite and strictly increasing")
            }
        }
    }
}

impl std::error::Error for InterpError {}

impl PiecewiseLinear {
    /// Creates an interpolant from knots.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError`] when fewer than two knots are given, the
    /// lengths differ, or `xs` is not strictly increasing/finite.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, InterpError> {
        if xs.len() != ys.len() {
            return Err(InterpError::LengthMismatch);
        }
        if xs.len() < 2 {
            return Err(InterpError::TooFewKnots);
        }
        if !xs.iter().all(|x| x.is_finite()) || !xs.windows(2).all(|w| w[0] < w[1]) {
            return Err(InterpError::InvalidAbscissae);
        }
        Ok(PiecewiseLinear { xs, ys })
    }

    /// Evaluates at `x`, extrapolating with the boundary segments outside
    /// the knot range (constant-slope extrapolation).
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        // Find the segment whose left knot is the last xs[i] <= x.
        let i = match self
            .xs
            .binary_search_by(|probe| probe.partial_cmp(&x).expect("finite xs"))
        {
            Ok(i) => return self.ys[i],
            Err(0) => 0,
            Err(i) if i >= n => n - 2,
            Err(i) => i - 1,
        };
        let (x0, x1) = (self.xs[i], self.xs[i + 1]);
        let (y0, y1) = (self.ys[i], self.ys[i + 1]);
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// Evaluates with `x` mapped through log₁₀ — interpolation linear in
    /// log-abscissa, as used for frequency-response curves. The knots must
    /// have been supplied as log₁₀ values already.
    pub fn eval_log(&self, x: f64) -> f64 {
        self.eval(x.log10())
    }
}

/// Interpolates `y` at `x` over parallel slices (convenience wrapper when
/// constructing a [`PiecewiseLinear`] is not worth it).
///
/// # Panics
///
/// Panics if slices are empty, of different lengths, or `xs` unsorted.
pub fn lerp_at(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    let pl = PiecewiseLinear::new(xs.to_vec(), ys.to_vec()).expect("valid knots");
    pl.eval(x)
}

/// Linear interpolation between two scalars: `a + t·(b − a)`.
#[inline]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + t * (b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_at_knots() {
        let f = PiecewiseLinear::new(vec![1.0, 2.0, 4.0], vec![10.0, 20.0, -20.0]).unwrap();
        assert_eq!(f.eval(1.0), 10.0);
        assert_eq!(f.eval(2.0), 20.0);
        assert_eq!(f.eval(4.0), -20.0);
    }

    #[test]
    fn linear_between_knots() {
        let f = PiecewiseLinear::new(vec![0.0, 10.0], vec![0.0, 100.0]).unwrap();
        assert_eq!(f.eval(2.5), 25.0);
        assert_eq!(f.eval(7.5), 75.0);
    }

    #[test]
    fn extrapolates_with_boundary_slope() {
        let f = PiecewiseLinear::new(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 3.0]).unwrap();
        assert_eq!(f.eval(-1.0), -1.0); // slope 1 on the left
        assert_eq!(f.eval(3.0), 5.0); // slope 2 on the right
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            PiecewiseLinear::new(vec![1.0], vec![1.0]).unwrap_err(),
            InterpError::TooFewKnots
        );
        assert_eq!(
            PiecewiseLinear::new(vec![1.0, 2.0], vec![1.0]).unwrap_err(),
            InterpError::LengthMismatch
        );
        assert_eq!(
            PiecewiseLinear::new(vec![2.0, 1.0], vec![0.0, 0.0]).unwrap_err(),
            InterpError::InvalidAbscissae
        );
        assert_eq!(
            PiecewiseLinear::new(vec![f64::NAN, 1.0], vec![0.0, 0.0]).unwrap_err(),
            InterpError::InvalidAbscissae
        );
    }

    #[test]
    fn error_display() {
        assert!(InterpError::TooFewKnots.to_string().contains("two knots"));
    }

    #[test]
    fn log_evaluation() {
        // Knots at log10(w) = 0,1,2 i.e. w = 1,10,100.
        let f = PiecewiseLinear::new(vec![0.0, 1.0, 2.0], vec![0.0, -20.0, -40.0]).unwrap();
        assert!((f.eval_log(10.0) + 20.0).abs() < 1e-12);
        // Geometric mean of 1 and 10 is mid in log space.
        assert!((f.eval_log(10f64.sqrt()) + 10.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_lerp() {
        assert_eq!(lerp(0.0, 10.0, 0.25), 2.5);
        assert_eq!(lerp(5.0, 5.0, 0.9), 5.0);
        assert_eq!(lerp_at(&[0.0, 1.0], &[0.0, 2.0], 0.5), 1.0);
    }
}
