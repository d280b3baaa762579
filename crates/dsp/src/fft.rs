//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! Sign convention: the *forward* transform computes
//! `X_k = Σ_t x_t · e^{−2πi·kt/n}` and the *inverse* transform divides by
//! `n`, so `inverse(forward(x)) == x`.

use crate::complex::Complex64;

/// Whether the transform is forward or inverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `e^{−2πi·kt/n}` kernel.
    Forward,
    /// `e^{+2πi·kt/n}` kernel with the `1/n` normalisation.
    Inverse,
}

/// Returns true when `n` is a power of two (and nonzero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Smallest power of two `>= n`.
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}

/// In-place radix-2 FFT.
///
/// # Panics
/// Panics when `data.len()` is not a power of two — callers that need
/// arbitrary lengths should use [`crate::dft::fft_any`].
pub fn fft_in_place(data: &mut [Complex64], dir: Direction) {
    let n = data.len();
    assert!(
        is_power_of_two(n),
        "radix-2 FFT requires power-of-two length, got {n}"
    );
    if n == 1 {
        return;
    }

    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }

    // Butterflies.
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let wlen = Complex64::cis(ang);
        let half = len / 2;
        let mut i = 0;
        while i < n {
            let mut w = Complex64::one();
            for k in 0..half {
                let u = data[i + k];
                let v = data[i + k + half] * w;
                data[i + k] = u + v;
                data[i + k + half] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }

    if dir == Direction::Inverse {
        let inv = 1.0 / n as f64;
        for v in data.iter_mut() {
            *v = v.scale(inv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_naive;

    fn assert_close(a: &[Complex64], b: &[Complex64], eps: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x.re - y.re).abs() < eps && (x.im - y.im).abs() < eps,
                "bin {i}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[1usize, 2, 4, 8, 16, 64] {
            let signal: Vec<Complex64> = (0..n)
                .map(|t| Complex64::new((t as f64 * 0.7).sin(), (t as f64 * 0.3).cos()))
                .collect();
            let mut fast = signal.clone();
            fft_in_place(&mut fast, Direction::Forward);
            let slow = dft_naive(&signal, Direction::Forward);
            assert_close(&fast, &slow, 1e-9);
        }
    }

    #[test]
    fn forward_then_inverse_is_identity() {
        let signal: Vec<Complex64> = (0..128)
            .map(|t| Complex64::new((t as f64).sin(), (t as f64 * 2.0).cos()))
            .collect();
        let mut buf = signal.clone();
        fft_in_place(&mut buf, Direction::Forward);
        fft_in_place(&mut buf, Direction::Inverse);
        assert_close(&buf, &signal, 1e-10);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut buf = vec![Complex64::zero(); 8];
        buf[0] = Complex64::one();
        fft_in_place(&mut buf, Direction::Forward);
        for v in &buf {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 32;
        let k = 5;
        let mut spec: Vec<Complex64> = (0..n)
            .map(|t| (std::f64::consts::TAU * k as f64 * t as f64 / n as f64).cos())
            .map(|x| Complex64::new(x, 0.0))
            .collect();
        fft_in_place(&mut spec, Direction::Forward);
        // cos tone of frequency k splits into bins k and n−k, each n/2.
        for (bin, v) in spec.iter().enumerate() {
            let expected = if bin == k || bin == n - k {
                n as f64 / 2.0
            } else {
                0.0
            };
            assert!(
                (v.abs() - expected).abs() < 1e-9,
                "bin {bin}: |X| = {}",
                v.abs()
            );
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let signal: Vec<f64> = (0..64).map(|t| ((t * t) as f64 * 0.1).sin()).collect();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let mut spec: Vec<Complex64> = signal.iter().map(|&x| Complex64::new(x, 0.0)).collect();
        fft_in_place(&mut spec, Direction::Forward);
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / 64.0;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn linearity() {
        let n = 16;
        let a: Vec<Complex64> = (0..n).map(|t| Complex64::new(t as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..n)
            .map(|t| Complex64::new(0.0, (t as f64).cos()))
            .collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        fft_in_place(&mut fa, Direction::Forward);
        fft_in_place(&mut fb, Direction::Forward);
        fft_in_place(&mut fs, Direction::Forward);
        let combined: Vec<Complex64> = fa.iter().zip(&fb).map(|(&x, &y)| x + y).collect();
        assert_close(&fs, &combined, 1e-10);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two() {
        let mut buf = vec![Complex64::zero(); 6];
        fft_in_place(&mut buf, Direction::Forward);
    }

    #[test]
    fn power_of_two_helpers() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(64));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(48));
        assert_eq!(next_power_of_two(48), 64);
        assert_eq!(next_power_of_two(64), 64);
    }
}
