//! Dense row-major matrix with the handful of operations Tomborg needs.

use std::fmt;

/// Errors produced by the linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The operation requires a square matrix.
    NotSquare {
        /// Number of rows found.
        rows: usize,
        /// Number of columns found.
        cols: usize,
    },
    /// The operation requires a symmetric matrix.
    NotSymmetric,
    /// Cholesky pivot became non-positive: the matrix is not positive
    /// definite.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// Dimensions of operands do not line up.
    DimensionMismatch {
        /// Human-readable context.
        context: String,
    },
    /// An iterative routine did not converge within its budget.
    NoConvergence {
        /// Iterations/sweeps performed.
        iterations: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}×{cols}")
            }
            LinalgError::NotSymmetric => write!(f, "matrix must be symmetric"),
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            LinalgError::NoConvergence { iterations } => {
                write!(f, "did not converge after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from nested rows.
    ///
    /// # Panics
    /// Panics on ragged input.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in &rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != rows·cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer has wrong length");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element write.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Matrix product `self · other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "matmul {}×{} by {}×{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order keeps the inner accesses contiguous; each inner
        // row update is one fused axpy kernel call.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_base = i * out.cols;
                kernel::fma_accumulate(&mut out.data[out_base..out_base + out.cols], orow, a);
            }
        }
        Ok(out)
    }

    /// True when square and symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Require square shape.
    pub fn require_square(&self) -> Result<usize, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok(self.rows)
    }

    /// Elementwise maximum absolute difference.
    ///
    /// # Panics
    /// Panics when shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Force exact symmetry by averaging with the transpose.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize needs a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let v = 0.5 * (self.get(i, j) + self.get(j, i));
                self.set(i, j, v);
                self.set(j, i, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_access() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3.get(0, 0), 1.0);
        assert_eq!(i3.get(0, 1), 0.0);
        assert_eq!(i3.rows(), 3);
        assert_eq!(i3.cols(), 3);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(vec![vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(vec![vec![1.0, -2.0, 0.5], vec![0.0, 3.0, 4.0]]);
        let i3 = Matrix::identity(3);
        assert_eq!(a.matmul(&i3).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_mismatched() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn symmetry_checks() {
        let s = Matrix::from_rows(vec![vec![2.0, 1.0], vec![1.0, 2.0]]);
        assert!(s.is_symmetric(1e-12));
        let ns = Matrix::from_rows(vec![vec![2.0, 1.0], vec![0.9, 2.0]]);
        assert!(!ns.is_symmetric(1e-3));
        assert!(ns.is_symmetric(0.2));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn symmetrize_averages() {
        let mut m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![4.0, 1.0]]);
        m.symmetrize();
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn distances() {
        let a = Matrix::identity(2);
        let b = Matrix::zeros(2, 2);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        Matrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn error_display() {
        let e = LinalgError::NotPositiveDefinite { pivot: 3 };
        assert!(e.to_string().contains("pivot 3"));
    }
}
