//! Scalar statistics used throughout the workspace.
//!
//! All moments are *population* moments (divide by `n`, not `n − 1`) —
//! Pearson correlation is invariant to the choice, and population moments
//! make the basic-window pooling identities of `sketch` exact.

use crate::error::TsError;

/// Arithmetic mean. Errors on empty input.
pub fn mean(xs: &[f64]) -> Result<f64, TsError> {
    if xs.is_empty() {
        return Err(TsError::Empty);
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64) // lint:allow(float-reduction-outside-kernel) -- scalar reference oracle: deliberately independent of the kernels it validates
}

/// Population variance. Errors on empty input.
pub fn variance(xs: &[f64]) -> Result<f64, TsError> {
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64) // lint:allow(float-reduction-outside-kernel) -- scalar reference oracle: deliberately independent of the kernels it validates
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> Result<f64, TsError> {
    Ok(variance(xs)?.sqrt())
}

/// Population covariance of two equally long slices.
pub fn covariance(xs: &[f64], ys: &[f64]) -> Result<f64, TsError> {
    if xs.len() != ys.len() {
        return Err(TsError::DimensionMismatch {
            expected: xs.len(),
            found: ys.len(),
        });
    }
    if xs.is_empty() {
        return Err(TsError::Empty);
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    Ok(xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (x - mx) * (y - my))
        // lint:allow(float-reduction-outside-kernel) -- scalar reference oracle: deliberately independent of the kernels it validates
        .sum::<f64>()
        / xs.len() as f64)
}

/// Pearson correlation coefficient.
///
/// The five raw moments come from the fused [`kernel::cross_moments`]
/// pass (SIMD where the host supports it), so the direct path and the
/// sketch-reconstructed path share one accumulation kernel.
///
/// Errors when the slices differ in length, have fewer than 2 points, or
/// either has zero variance (the coefficient is undefined there).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64, TsError> {
    if xs.len() != ys.len() {
        return Err(TsError::DimensionMismatch {
            expected: xs.len(),
            found: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(TsError::TooShort {
            need: 2,
            got: xs.len(),
        });
    }
    let n = xs.len() as f64;
    let m = kernel::cross_moments(xs, ys);
    let vx = m.sum_xx - m.sum_x * m.sum_x / n;
    let vy = m.sum_yy - m.sum_y * m.sum_y / n;
    if vx <= 0.0 || vy <= 0.0 {
        return Err(TsError::ZeroVariance);
    }
    let r = (m.sum_xy - m.sum_x * m.sum_y / n) / (vx.sqrt() * vy.sqrt());
    // Guard against floating-point excursions slightly past ±1.
    Ok(r.clamp(-1.0, 1.0))
}

/// Pearson correlation from the five raw sums
/// `(n, Σx, Σy, Σx², Σy², Σxy)` — the form every sketch in this workspace
/// reduces to.
pub fn pearson_from_sums(
    n: f64,
    sx: f64,
    sy: f64,
    sxx: f64,
    syy: f64,
    sxy: f64,
) -> Result<f64, TsError> {
    let vx = sxx - sx * sx / n;
    let vy = syy - sy * sy / n;
    // Negated comparisons on purpose: NaN variance must take the error
    // path, which `vx <= 0.0` would not.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(vx > 0.0) || !(vy > 0.0) {
        return Err(TsError::ZeroVariance);
    }
    Ok(((sxy - sx * sy / n) / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0))
}

/// [`pearson_from_sums`] of four windows at once (lane `l` = window `l`),
/// with the same IEEE operations in the same order per lane; a lane whose
/// variance is not positive (a constant or NaN window) comes back NaN in
/// place of the error. Nothing crosses lanes, so the loop is branch-free
/// and the compiler may vectorize it without changing a bit.
#[inline]
pub fn pearson_from_sums4(
    n: f64,
    sx: &[f64; 4],
    sy: &[f64; 4],
    sxx: &[f64; 4],
    syy: &[f64; 4],
    sxy: &[f64; 4],
) -> [f64; 4] {
    std::array::from_fn(|l| {
        let vx = sxx[l] - sx[l] * sx[l] / n;
        let vy = syy[l] - sy[l] * sy[l] / n;
        let r = ((sxy[l] - sx[l] * sy[l] / n) / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0);
        if vx > 0.0 && vy > 0.0 {
            r
        } else {
            f64::NAN
        }
    })
}

/// Replace `xs` by its z-normalisation `(x − mean) / std` in place.
///
/// Returns the `(mean, std)` that were removed. Errors on zero variance.
pub fn z_normalize(xs: &mut [f64]) -> Result<(f64, f64), TsError> {
    let m = mean(xs)?;
    let s = std_dev(xs)?;
    if s <= 0.0 {
        return Err(TsError::ZeroVariance);
    }
    for x in xs.iter_mut() {
        *x = (*x - m) / s;
    }
    Ok((m, s))
}

/// Z-normalised copy of `xs`.
pub fn z_normalized(xs: &[f64]) -> Result<Vec<f64>, TsError> {
    let mut v = xs.to_vec();
    z_normalize(&mut v)?;
    Ok(v)
}

/// Numerically stable single-pass accumulator (Welford) for mean/variance,
/// extended with a co-moment for covariance of a pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStats {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    m2_x: f64,
    m2_y: f64,
    cxy: f64,
}

impl RunningStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one paired observation.
    pub fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        let n = self.n as f64;
        let dx = x - self.mean_x;
        self.mean_x += dx / n;
        let dy = y - self.mean_y;
        self.mean_y += dy / n;
        // Co-moment update uses the *new* mean of x and old mean of y:
        self.cxy += dx * (y - self.mean_y);
        self.m2_x += dx * (x - self.mean_x);
        self.m2_y += dy * (y - self.mean_y);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Population variance of the `x` stream (0 before two points).
    pub fn variance_x(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2_x / self.n as f64
        }
    }

    /// Population variance of the `y` stream.
    pub fn variance_y(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2_y / self.n as f64
        }
    }

    /// Population covariance of the two streams.
    pub fn covariance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.cxy / self.n as f64
        }
    }

    /// Pearson correlation of the two streams.
    pub fn correlation(&self) -> Result<f64, TsError> {
        if self.n < 2 {
            return Err(TsError::TooShort {
                need: 2,
                got: self.n as usize,
            });
        }
        let d = (self.variance_x() * self.variance_y()).sqrt();
        if d <= 0.0 {
            return Err(TsError::ZeroVariance);
        }
        Ok((self.covariance() / d).clamp(-1.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs).unwrap(), 5.0);
        assert_eq!(variance(&xs).unwrap(), 4.0);
        assert_eq!(std_dev(&xs).unwrap(), 2.0);
        assert!(mean(&[]).is_err());
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0];
        let down = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_known_value() {
        // Hand-computed: x = [1,2,3], y = [1,2,4] → r = 0.981980506...
        let r = pearson(&[1.0, 2.0, 3.0], &[1.0, 2.0, 4.0]).unwrap();
        assert!((r - 0.981_980_506_061_965_8).abs() < 1e-12, "r = {r}");
    }

    #[test]
    fn pearson_error_cases() {
        assert!(matches!(
            pearson(&[1.0, 2.0], &[1.0]),
            Err(TsError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            pearson(&[1.0], &[1.0]),
            Err(TsError::TooShort { .. })
        ));
        assert!(matches!(
            pearson(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0]),
            Err(TsError::ZeroVariance)
        ));
    }

    #[test]
    fn pearson_from_sums_matches_direct() {
        let x = [0.3, -1.2, 4.4, 2.0, 0.0, -0.5];
        let y = [1.0, 0.5, 3.0, 2.5, -1.0, 0.2];
        let n = x.len() as f64;
        let sx: f64 = x.iter().sum();
        let sy: f64 = y.iter().sum();
        let sxx: f64 = x.iter().map(|v| v * v).sum();
        let syy: f64 = y.iter().map(|v| v * v).sum();
        let sxy: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let via_sums = pearson_from_sums(n, sx, sy, sxx, syy, sxy).unwrap();
        let direct = pearson(&x, &y).unwrap();
        assert!((via_sums - direct).abs() < 1e-12);
    }

    #[test]
    fn pearson_from_sums4_lanes_equal_pearson_from_sums() {
        // Random windows, perfectly (anti-)correlated ones whose ratio
        // rounds past ±1 and clamps, a constant side (zero variance), a
        // negative-variance side, a NaN sum and a ratio far past ±1, mixed
        // across the four lanes.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut kinds = [0usize; 6];
        for _ in 0..500 {
            let n = rng.gen_range(2usize..40);
            let lane = |rng: &mut rand::rngs::StdRng, kinds: &mut [usize; 6]| {
                let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 20.0 - 10.0).collect();
                let y: Vec<f64> = match rng.gen_range(0..3) {
                    0 => x.clone(),
                    1 => x.iter().map(|v| -3.0 * v + 0.1).collect(),
                    _ => (0..n).map(|_| rng.gen::<f64>() * 20.0 - 10.0).collect(),
                };
                let m = kernel::cross_moments(&x, &y);
                let mut s = [m.sum_x, m.sum_y, m.sum_xx, m.sum_yy, m.sum_xy];
                let kind = rng.gen_range(0..8usize).min(5);
                kinds[kind] += 1;
                match kind {
                    0 => {
                        let c = rng.gen::<f64>() * 4.0 - 2.0;
                        (s[0], s[2]) = (n as f64 * c, n as f64 * c * c);
                    }
                    1 => s[3] = 0.0,
                    2 => s[2] = -s[2],
                    3 => s[rng.gen_range(0..5usize)] = f64::NAN,
                    4 => s[4] = s[4].signum() * 1e12,
                    _ => {}
                }
                s
            };
            let lanes: [[f64; 5]; 4] = std::array::from_fn(|_| lane(&mut rng, &mut kinds));
            let col = |k: usize| -> [f64; 4] { std::array::from_fn(|l| lanes[l][k]) };
            let nf = n as f64;
            let got = pearson_from_sums4(nf, &col(0), &col(1), &col(2), &col(3), &col(4));
            for (l, s) in lanes.iter().enumerate() {
                match pearson_from_sums(nf, s[0], s[1], s[2], s[3], s[4]) {
                    Ok(want) => assert_eq!(got[l].to_bits(), want.to_bits(), "lane {l}"),
                    Err(_) => assert!(got[l].is_nan(), "lane {l}: {}", got[l]),
                }
            }
        }
        assert!(
            kinds.iter().all(|&k| k > 0),
            "every lane kind drawn: {kinds:?}"
        );
    }

    #[test]
    fn covariance_matches_definition() {
        let x = [1.0, 2.0, 3.0];
        let y = [2.0, 1.0, 5.0];
        // means: 2, 8/3; cov = ((-1)(-2/3) + 0(-5/3) + (1)(7/3)) / 3 = 1.0
        assert!((covariance(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_normalize_properties() {
        let mut xs = vec![3.0, 5.0, 9.0, 11.0, 2.0];
        let (m, s) = z_normalize(&mut xs).unwrap();
        assert!(m > 0.0 && s > 0.0);
        assert!(mean(&xs).unwrap().abs() < 1e-12);
        assert!((variance(&xs).unwrap() - 1.0).abs() < 1e-12);
        assert!(z_normalize(&mut [1.0, 1.0, 1.0]).is_err());
    }

    #[test]
    fn running_stats_matches_batch() {
        let x = [0.5, 1.5, -2.0, 3.0, 0.25, -0.75];
        let y = [1.0, -1.0, 0.5, 2.0, 0.0, 1.25];
        let mut rs = RunningStats::new();
        for (&a, &b) in x.iter().zip(&y) {
            rs.push(a, b);
        }
        assert_eq!(rs.count(), 6);
        assert!((rs.variance_x() - variance(&x).unwrap()).abs() < 1e-12);
        assert!((rs.variance_y() - variance(&y).unwrap()).abs() < 1e-12);
        assert!((rs.covariance() - covariance(&x, &y).unwrap()).abs() < 1e-12);
        assert!((rs.correlation().unwrap() - pearson(&x, &y).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn running_stats_short_input() {
        let mut rs = RunningStats::new();
        assert!(rs.correlation().is_err());
        rs.push(1.0, 1.0);
        assert!(rs.correlation().is_err());
    }

    #[test]
    fn pearson_is_shift_scale_invariant() {
        let x = [0.1, 0.9, 0.4, 0.7, 0.2, 0.6];
        let y = [1.0, 0.3, 0.8, 0.5, 0.9, 0.4];
        let r0 = pearson(&x, &y).unwrap();
        let x2: Vec<f64> = x.iter().map(|v| 3.0 * v + 7.0).collect();
        let y2: Vec<f64> = y.iter().map(|v| 0.5 * v - 2.0).collect();
        let r1 = pearson(&x2, &y2).unwrap();
        assert!((r0 - r1).abs() < 1e-12);
        // Negative scaling flips the sign.
        let x3: Vec<f64> = x.iter().map(|v| -v).collect();
        let r2 = pearson(&x3, &y).unwrap();
        assert!((r0 + r2).abs() < 1e-12);
    }
}
