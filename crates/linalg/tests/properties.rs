//! Property-based tests for the linear-algebra substrate.

use linalg::cholesky::cholesky;
use linalg::jacobi::jacobi_eigen_default;
use linalg::matrix::Matrix;
use linalg::nearest_corr::{is_positive_semidefinite, nearest_correlation, NearestCorrOptions};
use proptest::prelude::*;

/// Random square matrix with entries in [−1, 1].
fn square(n: usize, seed: u64) -> Matrix {
    // Cheap deterministic fill (no rand needed inside the strategy).
    let mut m = Matrix::zeros(n, n);
    let mut state = seed.wrapping_add(1);
    for i in 0..n {
        for j in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
            m.set(i, j, v);
        }
    }
    m
}

/// `A·Aᵀ + εI` — symmetric positive definite by construction.
fn random_spd(n: usize, seed: u64) -> Matrix {
    let a = square(n, seed);
    let mut m = a.matmul(&a.transpose()).unwrap();
    for i in 0..n {
        m.set(i, i, m.get(i, i) + 0.5);
    }
    m.symmetrize();
    m
}

/// Symmetrised random matrix (usually indefinite).
fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let mut m = square(n, seed);
    m.symmetrize();
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cholesky reconstructs every SPD matrix.
    #[test]
    fn cholesky_reconstructs_spd(n in 1usize..10, seed in 0u64..10_000) {
        let a = random_spd(n, seed);
        let l = cholesky(&a, 1e-12).unwrap();
        let back = l.matmul(&l.transpose()).unwrap();
        prop_assert!(a.max_abs_diff(&back) < 1e-8);
        // L is lower triangular with positive diagonal.
        for i in 0..n {
            prop_assert!(l.get(i, i) > 0.0);
            for j in (i + 1)..n {
                prop_assert_eq!(l.get(i, j), 0.0);
            }
        }
    }

    /// Jacobi eigendecomposition reconstructs and produces orthonormal
    /// vectors for any symmetric matrix.
    #[test]
    fn jacobi_reconstructs_symmetric(n in 2usize..9, seed in 0u64..10_000) {
        let a = random_symmetric(n, seed);
        let e = jacobi_eigen_default(&a).unwrap();
        let back = e.reassemble_with(|l| l);
        prop_assert!(a.max_abs_diff(&back) < 1e-7, "reconstruction error");
        let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
        prop_assert!(vtv.max_abs_diff(&Matrix::identity(n)) < 1e-7, "orthonormality");
        // Eigenvalues sorted descending.
        prop_assert!(e.values.windows(2).all(|w| w[0] >= w[1] - 1e-10));
        // Trace preserved.
        let trace: f64 = (0..n).map(|i| a.get(i, i)).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-7);
    }

    /// The nearest-correlation projection always returns a valid
    /// correlation matrix, whatever symmetric garbage goes in.
    #[test]
    fn nearest_correlation_output_is_valid(n in 2usize..9, seed in 0u64..10_000) {
        let mut a = random_symmetric(n, seed);
        for i in 0..n {
            a.set(i, i, 1.0);
        }
        let r = nearest_correlation(&a, NearestCorrOptions::default()).unwrap();
        prop_assert!(r.is_symmetric(1e-10));
        for i in 0..n {
            prop_assert!((r.get(i, i) - 1.0).abs() < 1e-9);
            for j in 0..n {
                prop_assert!((-1.0..=1.0).contains(&r.get(i, j)));
            }
        }
        prop_assert!(is_positive_semidefinite(&r, 1e-6).unwrap());
        // The repaired matrix is Cholesky-able (strictly PD by the floor).
        prop_assert!(cholesky(&r, 1e-12).is_ok());
    }

    /// Projection is idempotent on already-valid correlation matrices.
    #[test]
    fn nearest_correlation_fixes_nothing_valid(n in 2usize..8, seed in 0u64..10_000) {
        // Build a guaranteed-valid correlation matrix from an SPD one.
        let spd = random_spd(n, seed);
        let mut c = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = spd.get(i, j) / (spd.get(i, i) * spd.get(j, j)).sqrt();
                c.set(i, j, v);
            }
        }
        c.symmetrize();
        let r = nearest_correlation(&c, NearestCorrOptions::default()).unwrap();
        prop_assert!(c.max_abs_diff(&r) < 1e-5, "moved a valid matrix by {}", c.max_abs_diff(&r));
    }
}
