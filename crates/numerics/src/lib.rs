//! # ft-numerics
//!
//! Numerical substrate for the fault-trajectory workspace: complex
//! arithmetic, dense real/complex linear algebra, polynomials and rational
//! transfer functions, frequency grids, single-bin DFT (Goertzel), linear
//! interpolation, decibel helpers, and descriptive statistics.
//!
//! The offline dependency set contains neither `num-complex` nor a linear
//! algebra crate, so everything here is implemented from scratch and tested
//! against closed forms.
//!
//! ## Example: solving a complex linear system
//!
//! ```
//! use ft_numerics::{CMatrix, Complex64, Lu};
//!
//! let a = CMatrix::from_rows(
//!     2,
//!     2,
//!     vec![
//!         Complex64::new(2.0, 0.0),
//!         Complex64::new(0.0, 1.0),
//!         Complex64::new(0.0, -1.0),
//!         Complex64::new(3.0, 0.0),
//!     ],
//! );
//! let b = [Complex64::ONE, Complex64::ZERO];
//! let x = Lu::factor(&a)?.solve(&b);
//! let residual = a.mul_vec(&x);
//! assert!((residual[0] - b[0]).abs() < 1e-12);
//! # Ok::<(), ft_numerics::SingularMatrixError>(())
//! ```

#![warn(missing_docs)]

pub mod complex;
pub mod decibel;
pub mod dsp;
pub mod grid;
pub mod interp;
pub mod matrix;
pub mod poly;
pub mod rational;
pub mod stats;

pub use complex::Complex64;
pub use grid::{FrequencyGrid, Spacing};
pub use matrix::{solve, CMatrix, Lu, Matrix, RMatrix, SingularMatrixError};
pub use poly::Poly;
pub use rational::TransferFunction;
