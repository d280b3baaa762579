//! Nearest correlation matrix by alternating projections (Higham 2002).
//!
//! Tomborg lets the user *specify* a target correlation distribution; a
//! matrix sampled entrywise from it is symmetric with unit diagonal but
//! usually **not** positive semidefinite, hence not a correlation matrix.
//! This module repairs it: alternating projections between the PSD cone
//! (eigenvalue clipping via Jacobi) and the unit-diagonal affine set, with
//! Dykstra's correction so the iteration converges to the *nearest* valid
//! correlation matrix in Frobenius norm.

use crate::jacobi::jacobi_eigen_default;
use crate::matrix::{LinalgError, Matrix};

/// Options for the nearest-correlation iteration.
#[derive(Debug, Clone, Copy)]
pub struct NearestCorrOptions {
    /// Maximum alternating-projection iterations.
    pub max_iters: usize,
    /// Stop when successive iterates differ by less than this (max-abs).
    pub tol: f64,
    /// Floor applied to eigenvalues in the PSD projection; a small positive
    /// value yields a strictly positive-definite (Cholesky-able) result.
    pub eig_floor: f64,
}

impl Default for NearestCorrOptions {
    fn default() -> Self {
        Self {
            max_iters: 100,
            tol: 1e-10,
            eig_floor: 1e-8,
        }
    }
}

/// Projects a symmetric matrix onto the set of valid correlation matrices.
///
/// Returns a symmetric positive-(semi)definite matrix with exactly unit
/// diagonal, close to `a` in Frobenius norm.
pub fn nearest_correlation(a: &Matrix, opts: NearestCorrOptions) -> Result<Matrix, LinalgError> {
    let n = a.require_square()?;
    if !a.is_symmetric(1e-8) {
        return Err(LinalgError::NotSymmetric);
    }
    let mut y = a.clone();
    y.symmetrize();
    let mut dykstra = Matrix::zeros(n, n);
    let mut prev = y.clone();

    for iter in 0..opts.max_iters {
        // PSD projection applied to the Dykstra-corrected iterate.
        let mut r = y.clone();
        for i in 0..n {
            for j in 0..n {
                r.set(i, j, r.get(i, j) - dykstra.get(i, j));
            }
        }
        let psd = project_psd(&r, opts.eig_floor)?;
        for i in 0..n {
            for j in 0..n {
                dykstra.set(i, j, psd.get(i, j) - r.get(i, j));
            }
        }
        // Unit-diagonal projection.
        y = psd;
        for i in 0..n {
            y.set(i, i, 1.0);
        }
        if y.max_abs_diff(&prev) < opts.tol && iter > 0 {
            break;
        }
        prev = y.clone();
    }

    // Final cleanup: one more PSD pass then exact unit diagonal via
    // D^{-1/2}·B·D^{-1/2}, which preserves PSD-ness exactly.
    let mut b = project_psd(&y, opts.eig_floor)?;
    let d: Vec<f64> = (0..n)
        .map(|i| b.get(i, i).max(opts.eig_floor).sqrt())
        .collect();
    for i in 0..n {
        for j in 0..n {
            let v = b.get(i, j) / (d[i] * d[j]);
            b.set(i, j, v.clamp(-1.0, 1.0));
        }
    }
    for i in 0..n {
        b.set(i, i, 1.0);
    }
    b.symmetrize();
    Ok(b)
}

/// Projection onto the PSD cone: clip eigenvalues at `floor`.
pub fn project_psd(a: &Matrix, floor: f64) -> Result<Matrix, LinalgError> {
    let e = jacobi_eigen_default(a)?;
    let mut m = e.reassemble_with(|l| l.max(floor));
    m.symmetrize();
    Ok(m)
}

/// True when every eigenvalue of the symmetric matrix `a` is ≥ `-tol`.
pub fn is_positive_semidefinite(a: &Matrix, tol: f64) -> Result<bool, LinalgError> {
    let e = jacobi_eigen_default(a)?;
    Ok(e.values.iter().all(|&l| l >= -tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::cholesky;

    fn unit_diag(m: &Matrix) -> bool {
        (0..m.rows()).all(|i| (m.get(i, i) - 1.0).abs() < 1e-12)
    }

    #[test]
    fn valid_correlation_matrix_is_fixed_point() {
        let a = Matrix::from_rows(vec![
            vec![1.0, 0.5, 0.3],
            vec![0.5, 1.0, 0.2],
            vec![0.3, 0.2, 1.0],
        ]);
        let r = nearest_correlation(&a, NearestCorrOptions::default()).unwrap();
        assert!(a.max_abs_diff(&r) < 1e-6);
        assert!(unit_diag(&r));
    }

    #[test]
    fn repairs_higham_example() {
        // Higham (2002)'s classic non-PSD example.
        let a = Matrix::from_rows(vec![
            vec![1.0, 1.0, 0.0],
            vec![1.0, 1.0, 1.0],
            vec![0.0, 1.0, 1.0],
        ]);
        assert!(!is_positive_semidefinite(&a, 1e-10).unwrap());
        let r = nearest_correlation(&a, NearestCorrOptions::default()).unwrap();
        assert!(is_positive_semidefinite(&r, 1e-8).unwrap());
        assert!(unit_diag(&r));
        // Known nearest correlation matrix has off-diagonals ≈ 0.7607 and
        // corner ≈ 0.1573 (Higham 2002).
        assert!((r.get(0, 1) - 0.7607).abs() < 0.01, "r01 = {}", r.get(0, 1));
        assert!((r.get(0, 2) - 0.1573).abs() < 0.01, "r02 = {}", r.get(0, 2));
    }

    #[test]
    fn result_is_choleskyable() {
        // Wildly invalid target: all off-diagonals 0.99 with a sign flip.
        let a = Matrix::from_rows(vec![
            vec![1.0, 0.99, -0.99],
            vec![0.99, 1.0, 0.99],
            vec![-0.99, 0.99, 1.0],
        ]);
        let r = nearest_correlation(&a, NearestCorrOptions::default()).unwrap();
        assert!(cholesky(&r, 1e-12).is_ok(), "repaired matrix must be PD");
    }

    #[test]
    fn off_diagonals_stay_in_range() {
        let a = Matrix::from_rows(vec![
            vec![1.0, 2.0, -3.0],
            vec![2.0, 1.0, 0.5],
            vec![-3.0, 0.5, 1.0],
        ]);
        let r = nearest_correlation(&a, NearestCorrOptions::default()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((-1.0..=1.0).contains(&r.get(i, j)));
            }
        }
    }

    #[test]
    fn psd_projection_clips_negatives() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 1.0]]);
        let p = project_psd(&a, 0.0).unwrap();
        assert!(is_positive_semidefinite(&p, 1e-10).unwrap());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(nearest_correlation(&Matrix::zeros(2, 3), NearestCorrOptions::default()).is_err());
        let asym = Matrix::from_rows(vec![vec![1.0, 0.9], vec![0.1, 1.0]]);
        assert!(nearest_correlation(&asym, NearestCorrOptions::default()).is_err());
    }
}
