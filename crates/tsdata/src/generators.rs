//! Generic synthetic series generators used by tests and benches.
//!
//! These are deliberately simple, seeded and deterministic. The
//! paper-faithful workload generators live in [`crate::climate`] (USCRN
//! substitute) and in the `tomborg` crate (correlation-targeted synthesis).

use crate::error::TsError;
use crate::rand_util::standard_normal;
use crate::series::TimeSeriesMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Iid standard Gaussian noise of length `len`.
pub fn white_noise(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| standard_normal(&mut rng)).collect()
}

/// AR(1) process `x_t = phi·x_{t−1} + ε_t`, ε ~ N(0, sigma²), x_0 = 0.
///
/// `|phi| < 1` gives a stationary series; values at or beyond 1 are allowed
/// (they produce a random walk / explosive series) but documented as such.
pub fn ar1(len: usize, phi: f64, sigma: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len);
    let mut x = 0.0;
    for _ in 0..len {
        x = phi * x + sigma * standard_normal(&mut rng);
        out.push(x);
    }
    out
}

/// A sum of sinusoids: `Σ_k amp_k · sin(2π · freq_k · t / len + phase_k)`.
pub fn sine_mix(len: usize, components: &[(f64, f64, f64)]) -> Vec<f64> {
    (0..len)
        .map(|t| {
            components
                .iter()
                .map(|&(amp, freq, phase)| {
                    amp * (std::f64::consts::TAU * freq * t as f64 / len as f64 + phase).sin()
                })
                .sum()
        })
        .collect()
}

/// `y = rho·x̂ + √(1−rho²)·ê` construction: returns `(x, y)` whose
/// *population-model* correlation is `rho` (the sample correlation
/// concentrates around it as `len` grows). Used pervasively in tests.
pub fn correlated_pair(len: usize, rho: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
    assert!((-1.0..=1.0).contains(&rho), "rho must be in [-1, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<f64> = (0..len).map(|_| standard_normal(&mut rng)).collect();
    let e: Vec<f64> = (0..len).map(|_| standard_normal(&mut rng)).collect();
    let c = (1.0 - rho * rho).sqrt();
    let y: Vec<f64> = x
        .iter()
        .zip(&e)
        .map(|(&xv, &ev)| rho * xv + c * ev)
        .collect();
    (x, y)
}

/// A matrix of `n` independent AR(1) series — a "nothing correlates"
/// workload for false-positive testing.
pub fn independent_ar1_matrix(
    n: usize,
    len: usize,
    phi: f64,
    seed: u64,
) -> Result<TimeSeriesMatrix, TsError> {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| ar1(len, phi, 1.0, seed.wrapping_add(i as u64)))
        .collect();
    TimeSeriesMatrix::from_rows(rows)
}

/// A matrix with `groups` clusters; within a cluster, every series is the
/// shared cluster driver plus idiosyncratic noise of relative strength
/// `noise` — a "block community" workload with dense in-cluster edges.
pub fn clustered_matrix(
    n: usize,
    len: usize,
    groups: usize,
    noise: f64,
    seed: u64,
) -> Result<TimeSeriesMatrix, TsError> {
    if groups == 0 || n == 0 {
        return Err(TsError::InvalidParameter(
            "n and groups must be positive".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let drivers: Vec<Vec<f64>> = (0..groups)
        .map(|_| (0..len).map(|_| standard_normal(&mut rng)).collect())
        .collect();
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let d = &drivers[i % groups];
        let row: Vec<f64> = d
            .iter()
            .map(|&v| v + noise * standard_normal(&mut rng))
            .collect();
        rows.push(row);
    }
    TimeSeriesMatrix::from_rows(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(white_noise(64, 7), white_noise(64, 7));
        assert_ne!(white_noise(64, 7), white_noise(64, 8));
        assert_eq!(ar1(64, 0.5, 1.0, 7), ar1(64, 0.5, 1.0, 7));
    }

    #[test]
    fn ar1_is_autocorrelated() {
        let x = ar1(20_000, 0.9, 1.0, 3);
        let lag1 = stats::pearson(&x[..x.len() - 1], &x[1..]).unwrap();
        assert!(lag1 > 0.85, "lag-1 autocorrelation = {lag1}");
        let w = white_noise(20_000, 3);
        let lag1w = stats::pearson(&w[..w.len() - 1], &w[1..]).unwrap();
        assert!(lag1w.abs() < 0.05, "white-noise lag-1 = {lag1w}");
    }

    #[test]
    fn correlated_pair_hits_target() {
        for &rho in &[-0.8, 0.0, 0.5, 0.95] {
            let (x, y) = correlated_pair(50_000, rho, 11);
            let r = stats::pearson(&x, &y).unwrap();
            assert!((r - rho).abs() < 0.02, "target {rho}, got {r}");
        }
    }

    #[test]
    #[should_panic(expected = "rho must be in [-1, 1]")]
    fn correlated_pair_rejects_bad_rho() {
        correlated_pair(10, 1.5, 0);
    }

    #[test]
    fn sine_mix_is_periodic() {
        let s = sine_mix(100, &[(1.0, 2.0, 0.0)]); // 2 full periods over len
        assert!((s[0] - s[50]).abs() < 1e-9);
        assert!(s.iter().cloned().fold(f64::MIN, f64::max) <= 1.0 + 1e-9);
    }

    #[test]
    fn clustered_matrix_separates_communities() {
        let m = clustered_matrix(8, 4_000, 2, 0.3, 5).unwrap();
        // Same cluster (0, 2) strongly correlated, different (0, 1) weak.
        let same = stats::pearson(m.row(0), m.row(2)).unwrap();
        let diff = stats::pearson(m.row(0), m.row(1)).unwrap();
        assert!(same > 0.8, "in-cluster r = {same}");
        assert!(diff.abs() < 0.15, "cross-cluster r = {diff}");
    }

    #[test]
    fn clustered_matrix_validates() {
        assert!(clustered_matrix(0, 10, 2, 0.3, 5).is_err());
        assert!(clustered_matrix(4, 10, 0, 0.3, 5).is_err());
    }

    #[test]
    fn independent_matrix_has_low_cross_correlation() {
        let m = independent_ar1_matrix(4, 20_000, 0.5, 9).unwrap();
        for i in 0..4 {
            for j in (i + 1)..4 {
                let r = stats::pearson(m.row(i), m.row(j)).unwrap();
                assert!(r.abs() < 0.1, "r({i},{j}) = {r}");
            }
        }
    }
}
