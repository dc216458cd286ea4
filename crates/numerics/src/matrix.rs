//! Dense matrices over real or complex scalars.
//!
//! The MNA formulation of a linear circuit produces a dense (for the sizes
//! relevant here: tens of unknowns) system matrix that is real for DC and
//! transient analysis and complex for AC analysis. [`Matrix`] is generic
//! over the [`Scalar`] field so that one implementation (storage, indexing,
//! elementary row operations) serves both.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::complex::Complex64;

/// A field scalar usable as a matrix element.
///
/// This trait is sealed: it is implemented for `f64` and [`Complex64`] and
/// not intended for downstream implementation.
pub trait Scalar:
    Copy
    + PartialEq
    + fmt::Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + private::Sealed
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Magnitude used for pivot selection and singularity detection.
    fn magnitude(self) -> f64;

    /// `true` when the value contains no NaN/∞ component.
    fn is_finite_scalar(self) -> bool;
}

mod private {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for super::Complex64 {}
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;

    #[inline]
    fn magnitude(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }
}

impl Scalar for Complex64 {
    const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };

    #[inline]
    fn magnitude(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }
}

/// Dense row-major matrix over a [`Scalar`] field.
///
/// # Examples
///
/// ```
/// use ft_numerics::Matrix;
///
/// let mut a = Matrix::<f64>::zeros(2, 2);
/// a[(0, 0)] = 2.0;
/// a[(1, 1)] = 3.0;
/// let b = a.mul_vec(&[1.0, 1.0]);
/// assert_eq!(b, vec![2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// Real dense matrix.
pub type RMatrix = Matrix<f64>;
/// Complex dense matrix.
pub type CMatrix = Matrix<Complex64>;

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; len],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub(crate) fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// `true` when the matrix is square.
    #[inline]
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Copies `other`'s contents into `self` without allocating — the
    /// first half of the stamp-split AC assembly `A(ω) = G + jω·B`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, other: &Matrix<T>) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "copy_from shape mismatch"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Adds `k · other` entry-wise (axpy) — the second half of the
    /// stamp-split AC assembly.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix<T>, k: T) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_scaled shape mismatch"
        );
        for (d, o) in self.data.iter_mut().zip(&other.data) {
            *d += k * *o;
        }
    }

    /// Borrow of one row as a slice.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Swaps two rows in place.
    pub(crate) fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(b * self.cols);
        head[a * self.cols..(a + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "vector length mismatch");
        let mut y = vec![T::ZERO; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = T::ZERO;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += *a * *b;
            }
            *yr = acc;
        }
        y
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn mul_mat(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == T::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }

    /// Maximum entry magnitude (∞-norm of the vectorised matrix).
    pub(crate) fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.magnitude()).fold(0.0, f64::max)
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Scalar> fmt::Display for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:?}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// Error returned by the LU factorisation when the matrix is singular (or
/// numerically indistinguishable from singular).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// Elimination column at which no usable pivot was found.
    pub column: usize,
}

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is singular: no usable pivot in column {}",
            self.column
        )
    }
}

impl std::error::Error for SingularMatrixError {}

/// LU factorisation with partial pivoting, `P·A = L·U`.
///
/// Factor once, then solve against many right-hand sides — the usage
/// pattern of transient analysis (fixed conductance matrix, new source
/// vector every timestep).
///
/// # Examples
///
/// ```
/// use ft_numerics::{Lu, Matrix};
///
/// let a = Matrix::from_rows(2, 2, vec![4.0, 3.0, 6.0, 3.0]);
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[10.0, 12.0]);
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok::<(), ft_numerics::SingularMatrixError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Lu<T: Scalar> {
    lu: Matrix<T>,
    perm: Vec<usize>,
    /// Sign of the permutation: +1 for even, −1 for odd.
    perm_sign: i32,
}

/// Relative pivot threshold below which elimination reports singularity.
const PIVOT_RTOL: f64 = 1e-13;

impl<T: Scalar> Lu<T> {
    /// Factors `a` in `P·A = L·U` form with partial (row) pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when no pivot of sufficient relative
    /// magnitude exists in some column.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(a: &Matrix<T>) -> Result<Self, SingularMatrixError> {
        let mut ws = Lu::workspace(a.rows());
        ws.factor_into(a)?;
        Ok(ws)
    }

    /// Creates a reusable factorisation workspace for `n × n` systems.
    ///
    /// The workspace holds no valid factors until the first successful
    /// [`Lu::factor_into`]; calling [`Lu::solve`] before that yields the
    /// (meaningless) solution of the zero-initialised system.
    pub fn workspace(n: usize) -> Self {
        Lu {
            lu: Matrix::zeros(n, n),
            perm: (0..n).collect(),
            perm_sign: 1,
        }
    }

    /// Factors `a` into this workspace, reusing its storage: after the
    /// first call with a given dimension, refactoring performs zero heap
    /// allocation — the hot-loop primitive of the AC sweep engine, where
    /// the same-sized system is refactored at every grid frequency.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] as [`Lu::factor`] does; the
    /// workspace then holds no valid factors (a later successful
    /// `factor_into` makes it usable again).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor_into(&mut self, a: &Matrix<T>) -> Result<(), SingularMatrixError> {
        assert!(a.is_square(), "LU requires a square matrix");
        let n = a.rows();
        if self.lu.rows != n || self.lu.cols != n {
            self.lu = Matrix::zeros(n, n);
            self.perm = (0..n).collect();
        }
        self.lu.data.copy_from_slice(&a.data);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        self.perm_sign = 1;
        self.eliminate()
    }

    /// Gaussian elimination with partial pivoting over the workspace
    /// contents. Operates on row slices so the inner update runs without
    /// per-element bounds checks.
    fn eliminate(&mut self) -> Result<(), SingularMatrixError> {
        let n = self.lu.rows;
        let scale = self.lu.max_abs().max(f64::MIN_POSITIVE);

        for k in 0..n {
            // Pivot search: largest magnitude in column k at/below the diagonal.
            let mut p = k;
            let mut best = self.lu.data[k * n + k].magnitude();
            for r in (k + 1)..n {
                let m = self.lu.data[r * n + k].magnitude();
                if m > best {
                    best = m;
                    p = r;
                }
            }
            if !best.is_finite() || best <= PIVOT_RTOL * scale {
                return Err(SingularMatrixError { column: k });
            }
            if p != k {
                self.lu.swap_rows(p, k);
                self.perm.swap(p, k);
                self.perm_sign = -self.perm_sign;
            }
            let (above, below) = self.lu.data.split_at_mut((k + 1) * n);
            let pivot_row = &above[k * n..(k + 1) * n];
            let pivot = pivot_row[k];
            for row in below.chunks_exact_mut(n) {
                let factor = row[k] / pivot;
                row[k] = factor;
                if factor == T::ZERO {
                    continue;
                }
                for (x, &u) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                    *x -= factor * u;
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored system.
    #[inline]
    pub(crate) fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = Vec::with_capacity(self.dim());
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A·x = b` into a caller-owned buffer: `x` is cleared and
    /// refilled, so after warm-up repeated solves perform zero heap
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_into(&self, b: &[T], x: &mut Vec<T>) {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Apply permutation.
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        let data = &self.lu.data;
        // Forward substitution (L has unit diagonal).
        for r in 1..n {
            let row = &data[r * n..r * n + r];
            let mut acc = x[r];
            for (l, xc) in row.iter().zip(x.iter()) {
                acc -= *l * *xc;
            }
            x[r] = acc;
        }
        // Backward substitution.
        for r in (0..n).rev() {
            let row = &data[r * n..(r + 1) * n];
            let mut acc = x[r];
            for (u, xc) in row[r + 1..].iter().zip(x[r + 1..].iter()) {
                acc -= *u * *xc;
            }
            x[r] = acc / row[r];
        }
    }

    /// Factors `a` into this workspace and solves `a·x = b` in one call
    /// — the small-matrix primitive behind the Woodbury (rank-k) batch
    /// fault sweep, where a fresh k×k complex system is solved per
    /// multi-fault per frequency. Reuses the workspace storage exactly
    /// like [`Lu::factor_into`] + [`Lu::solve_into`], so after warm-up a
    /// same-sized solve performs zero heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when `a` is singular; `x` is left
    /// cleared in that case.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square or `b.len() != a.rows()`.
    pub fn solve_dense_into(
        &mut self,
        a: &Matrix<T>,
        b: &[T],
        x: &mut Vec<T>,
    ) -> Result<(), SingularMatrixError> {
        assert_eq!(b.len(), a.rows(), "rhs length mismatch");
        if let Err(e) = self.factor_into(a) {
            x.clear();
            return Err(e);
        }
        self.solve_into(b, x);
        Ok(())
    }

    /// Determinant of the original matrix (product of pivots times the
    /// permutation sign).
    pub fn det(&self) -> T {
        let mut d = T::ONE;
        for k in 0..self.dim() {
            d *= self.lu[(k, k)];
        }
        if self.perm_sign < 0 {
            -d
        } else {
            d
        }
    }
}

/// Convenience one-shot solve of `A·x = b`.
///
/// # Errors
///
/// Returns [`SingularMatrixError`] when `a` is singular.
pub fn solve<T: Scalar>(a: &Matrix<T>, b: &[T]) -> Result<Vec<T>, SingularMatrixError> {
    Ok(Lu::factor(a)?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;

    #[test]
    fn zeros_shape() {
        let m = RMatrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols, 3);
        assert!(!m.is_square());
        assert!(RMatrix::zeros(3, 3).is_square());
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_rows_length_checked() {
        let _ = RMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn swap_rows_works() {
        let mut m = RMatrix::from_rows(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[5., 6.]);
        assert_eq!(m.row(2), &[1., 2.]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[3., 4.]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = RMatrix::from_rows(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn mat_vec_product() {
        let m = RMatrix::from_rows(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let y = m.mul_vec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn mat_mat_product_identity() {
        let m = RMatrix::from_rows(2, 2, vec![1., 2., 3., 4.]);
        let i = RMatrix::from_rows(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(m.mul_mat(&i), m);
        assert_eq!(i.mul_mat(&m), m);
    }

    #[test]
    fn lu_solves_real_system() {
        let a = RMatrix::from_rows(3, 3, vec![2., 1., 1., 4., -6., 0., -2., 7., 2.]);
        let b = [5., -2., 9.];
        let x = solve(&a, &b).unwrap();
        let back = a.mul_vec(&x);
        for (bi, yi) in b.iter().zip(back.iter()) {
            assert!((bi - yi).abs() < 1e-12);
        }
    }

    #[test]
    fn lu_requires_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let a = RMatrix::from_rows(2, 2, vec![0., 1., 1., 0.]);
        let x = solve(&a, &[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn lu_detects_singularity() {
        let a = RMatrix::from_rows(2, 2, vec![1., 2., 2., 4.]);
        let err = Lu::factor(&a).unwrap_err();
        assert_eq!(err.column, 1);
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn lu_determinant() {
        let a = RMatrix::from_rows(2, 2, vec![3., 8., 4., 6.]);
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() - (-14.0)).abs() < 1e-12);
    }

    #[test]
    fn lu_determinant_permutation_sign() {
        // A matrix requiring one swap: det should keep the right sign.
        let a = RMatrix::from_rows(2, 2, vec![0., 1., 1., 0.]);
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn complex_lu_solves() {
        let j = Complex64::new(0.0, 1.0);
        // [[1+j, 2], [3, 4-j]] x = b
        let a = CMatrix::from_rows(
            2,
            2,
            vec![
                Complex64::new(1.0, 1.0),
                Complex64::new(2.0, 0.0),
                Complex64::new(3.0, 0.0),
                Complex64::new(4.0, -1.0),
            ],
        );
        let b = [Complex64::ONE, j];
        let x = solve(&a, &b).unwrap();
        let back = a.mul_vec(&x);
        for (bi, yi) in b.iter().zip(back.iter()) {
            assert!((*bi - *yi).abs() < 1e-12);
        }
    }

    #[test]
    fn factor_into_matches_factor() {
        let a = RMatrix::from_rows(3, 3, vec![2., 1., 1., 4., -6., 0., -2., 7., 2.]);
        let fresh = Lu::factor(&a).unwrap();
        let mut ws = Lu::workspace(3);
        ws.factor_into(&a).unwrap();
        assert_eq!(ws.solve(&[5., -2., 9.]), fresh.solve(&[5., -2., 9.]));
        assert_eq!(ws.det(), fresh.det());
        // Refactoring a different same-sized matrix reuses the workspace.
        let b = RMatrix::from_rows(3, 3, vec![1., 0., 0., 0., 2., 0., 0., 0., 4.]);
        ws.factor_into(&b).unwrap();
        assert_eq!(ws.solve(&[1., 2., 4.]), vec![1., 1., 1.]);
        // A singular refactor errors; a later valid refactor recovers.
        let s = RMatrix::from_rows(3, 3, vec![1., 2., 3., 2., 4., 6., 0., 0., 1.]);
        assert!(ws.factor_into(&s).is_err());
        ws.factor_into(&a).unwrap();
        assert_eq!(ws.solve(&[5., -2., 9.]), fresh.solve(&[5., -2., 9.]));
    }

    #[test]
    fn factor_into_resizes_on_dimension_change() {
        let mut ws = Lu::workspace(2);
        let a = RMatrix::from_rows(3, 3, vec![2., 1., 1., 4., -6., 0., -2., 7., 2.]);
        ws.factor_into(&a).unwrap();
        assert_eq!(ws.dim(), 3);
        assert_eq!(
            ws.solve(&[5., -2., 9.]),
            Lu::factor(&a).unwrap().solve(&[5., -2., 9.])
        );
    }

    #[test]
    fn solve_into_reuses_buffer() {
        let a = RMatrix::from_rows(2, 2, vec![0., 1., 1., 0.]);
        let lu = Lu::factor(&a).unwrap();
        let mut x = Vec::new();
        lu.solve_into(&[3.0, 4.0], &mut x);
        assert_eq!(x, vec![4.0, 3.0]);
        let cap = x.capacity();
        lu.solve_into(&[1.0, 2.0], &mut x);
        assert_eq!(x, vec![2.0, 1.0]);
        assert_eq!(x.capacity(), cap);
    }

    #[test]
    fn solve_dense_into_factors_and_solves() {
        let mut ws = Lu::workspace(2);
        let a = RMatrix::from_rows(2, 2, vec![4.0, 3.0, 6.0, 3.0]);
        let mut x = Vec::new();
        ws.solve_dense_into(&a, &[10.0, 12.0], &mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        // Reuse with a different same-sized system: no reallocation of x.
        let cap = x.capacity();
        let b = RMatrix::from_rows(2, 2, vec![2.0, 0.0, 0.0, 5.0]);
        ws.solve_dense_into(&b, &[4.0, 10.0], &mut x).unwrap();
        assert_eq!(x, vec![2.0, 2.0]);
        assert_eq!(x.capacity(), cap);
        // Singular input errors and leaves the buffer cleared.
        let s = RMatrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(ws.solve_dense_into(&s, &[1.0, 1.0], &mut x).is_err());
        assert!(x.is_empty());
        // A 1×1 "matrix" degenerates to scalar division.
        let mut ws1 = Lu::workspace(1);
        let one = RMatrix::from_rows(1, 1, vec![4.0]);
        ws1.solve_dense_into(&one, &[2.0], &mut x).unwrap();
        assert_eq!(x, vec![0.5]);
    }

    #[test]
    fn copy_from_and_add_scaled() {
        let g = RMatrix::from_rows(2, 2, vec![1., 2., 3., 4.]);
        let b = RMatrix::from_rows(2, 2, vec![10., 0., 0., 10.]);
        let mut work = RMatrix::zeros(2, 2);
        work.copy_from(&g);
        assert_eq!(work, g);
        work.add_scaled(&b, 0.5);
        assert_eq!(work, RMatrix::from_rows(2, 2, vec![6., 2., 3., 9.]));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_scaled_shape_checked() {
        let mut a = RMatrix::zeros(2, 2);
        a.add_scaled(&RMatrix::zeros(3, 3), 1.0);
    }

    #[test]
    fn max_abs_is_the_largest_magnitude() {
        let mut m = RMatrix::zeros(2, 2);
        m[(0, 1)] = -7.0;
        m[(1, 0)] = 3.0;
        assert_eq!(m.max_abs(), 7.0);
    }
}
