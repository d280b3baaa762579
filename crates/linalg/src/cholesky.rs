//! Cholesky factorisation `A = L·Lᵀ` for symmetric positive-definite
//! matrices — the mixing step of Tomborg's generator (independent series
//! `G` become `X = L·G` with correlation `L·Lᵀ`).

use crate::matrix::{LinalgError, Matrix};

/// Computes the lower-triangular Cholesky factor of a symmetric
/// positive-definite matrix.
///
/// Returns [`LinalgError::NotPositiveDefinite`] when a pivot drops below
/// `tol` (use [`crate::nearest_corr`] to repair near-PSD inputs first).
pub fn cholesky(a: &Matrix, tol: f64) -> Result<Matrix, LinalgError> {
    let n = a.require_square()?;
    if !a.is_symmetric(1e-8) {
        return Err(LinalgError::NotSymmetric);
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= tol {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i });
                }
                l.set(i, i, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_reconstructs_matrix() {
        let a = Matrix::from_rows(vec![
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.5],
            vec![0.6, 1.5, 2.0],
        ]);
        let l = cholesky(&a, 1e-12).unwrap();
        let back = l.matmul(&l.transpose()).unwrap();
        assert!(a.max_abs_diff(&back) < 1e-10);
        // L is lower triangular.
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert_eq!(l.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn identity_factors_to_identity() {
        let l = cholesky(&Matrix::identity(4), 1e-12).unwrap();
        assert_eq!(l, Matrix::identity(4));
    }

    #[test]
    fn known_2x2_factor() {
        // [[4, 2], [2, 2]] = [[2, 0], [1, 1]] · transpose
        let a = Matrix::from_rows(vec![vec![4.0, 2.0], vec![2.0, 2.0]]);
        let l = cholesky(&a, 1e-12).unwrap();
        assert!((l.get(0, 0) - 2.0).abs() < 1e-12);
        assert!((l.get(1, 0) - 1.0).abs() < 1e-12);
        assert!((l.get(1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        // Eigenvalues 3 and −1 → not PD.
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(matches!(
            cholesky(&a, 1e-12),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_asymmetric_and_nonsquare() {
        let a = Matrix::from_rows(vec![vec![1.0, 0.5], vec![0.2, 1.0]]);
        assert_eq!(cholesky(&a, 1e-12), Err(LinalgError::NotSymmetric));
        let r = Matrix::zeros(2, 3);
        assert!(matches!(
            cholesky(&r, 1e-12),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn correlation_matrix_factors() {
        // Equicorrelation matrix with rho = 0.7 (PD for rho > −1/(n−1)).
        let n = 6;
        let mut a = Matrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    a.set(i, j, 0.7);
                }
            }
        }
        let l = cholesky(&a, 1e-12).unwrap();
        let back = l.matmul(&l.transpose()).unwrap();
        assert!(a.max_abs_diff(&back) < 1e-10);
    }
}
