//! Small random-sampling helpers shared by the generators.
//!
//! Only `rand` is on the approved dependency list (not `rand_distr`), so the
//! non-uniform samplers needed by the workloads are implemented here.

use rand::Rng;

/// Standard normal sample via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Beta(a, b) sample via the Jöhnk/Gamma-free acceptance method for small
/// shapes and the ratio of Gamma draws (Marsaglia–Tsang) otherwise.
pub fn beta<R: Rng + ?Sized>(rng: &mut R, a: f64, b: f64) -> f64 {
    let x = gamma(rng, a);
    let y = gamma(rng, b);
    if x + y == 0.0 {
        0.5
    } else {
        x / (x + y)
    }
}

/// Gamma(shape, 1) sample via Marsaglia–Tsang (with the shape < 1 boost).
pub fn gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a + 1) * U^{1/a}
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * x * x + d - d * v3 + d * v3.ln() {
            return d * v3;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDA_0601)
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let mut r = rng();
        for &shape in &[0.5, 1.0, 2.5, 9.0] {
            let n = 60_000;
            let mean = (0..n).map(|_| gamma(&mut r, shape)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.1 * shape.max(1.0),
                "shape {shape}: mean {mean}"
            );
        }
    }

    #[test]
    fn beta_stays_in_unit_interval_and_centers() {
        let mut r = rng();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| beta(&mut r, 2.0, 2.0)).collect();
        assert!(samples.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
        // Skewed case: Beta(2, 6) has mean 0.25.
        let mean = (0..n).map(|_| beta(&mut r, 2.0, 6.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    #[should_panic(expected = "gamma shape must be positive")]
    fn gamma_rejects_nonpositive_shape() {
        gamma(&mut rng(), 0.0);
    }
}
