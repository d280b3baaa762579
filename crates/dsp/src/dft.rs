//! Reference DFT and the any-length dispatcher.

use crate::bluestein;
use crate::complex::Complex64;
use crate::fft::{self, Direction};

/// Naive O(n²) DFT — the correctness oracle for the fast transforms.
pub fn dft_naive(signal: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = signal.len();
    if n == 0 {
        return Vec::new();
    }
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex64::zero(); n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex64::zero();
        for (t, &x) in signal.iter().enumerate() {
            let ang = sign * std::f64::consts::TAU * (k as f64) * (t as f64) / n as f64;
            acc += x * Complex64::cis(ang);
        }
        *o = acc;
    }
    if dir == Direction::Inverse {
        let inv = 1.0 / n as f64;
        for v in out.iter_mut() {
            *v = v.scale(inv);
        }
    }
    out
}

/// FFT for *any* length: radix-2 when the length is a power of two,
/// Bluestein's chirp-z algorithm otherwise. O(n log n) in both cases.
pub fn fft_any(signal: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = signal.len();
    if n <= 1 {
        return signal.to_vec();
    }
    if fft::is_power_of_two(n) {
        let mut buf = signal.to_vec();
        fft::fft_in_place(&mut buf, dir);
        buf
    } else {
        bluestein::bluestein(signal, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn naive_inverse_roundtrip() {
        let signal: Vec<Complex64> = (0..12)
            .map(|t| Complex64::new(t as f64 * 0.5, (t as f64).cos()))
            .collect();
        let spec = dft_naive(&signal, Direction::Forward);
        let back = dft_naive(&spec, Direction::Inverse);
        assert_close(&back, &signal, 1e-10);
    }

    #[test]
    fn fft_any_matches_naive_for_awkward_lengths() {
        for &n in &[2usize, 3, 5, 7, 12, 15, 17, 33, 100] {
            let signal: Vec<Complex64> = (0..n)
                .map(|t| Complex64::new((t as f64 * 1.3).sin(), (t as f64 * 0.9).cos()))
                .collect();
            let fast = fft_any(&signal, Direction::Forward);
            let slow = dft_naive(&signal, Direction::Forward);
            assert_close(&fast, &slow, 1e-8);
            let back = fft_any(&fast, Direction::Inverse);
            assert_close(&back, &signal, 1e-8);
        }
    }

    #[test]
    fn fft_any_real_dc_component_is_sum() {
        let signal: Vec<Complex64> = [1.0, 2.0, 3.0, 4.0, 5.0]
            .iter()
            .map(|&x| Complex64::new(x, 0.0))
            .collect();
        let spec = fft_any(&signal, Direction::Forward);
        assert!((spec[0].re - 15.0).abs() < 1e-9);
        assert!(spec[0].im.abs() < 1e-9);
    }

    #[test]
    fn real_signal_spectrum_is_hermitian() {
        let signal: Vec<Complex64> = [0.3, -1.0, 2.2, 0.7, -0.4, 1.1, 0.0]
            .iter()
            .map(|&x| Complex64::new(x, 0.0))
            .collect();
        let spec = fft_any(&signal, Direction::Forward);
        let n = spec.len();
        for k in 1..n {
            let a = spec[k];
            let b = spec[n - k].conj();
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn degenerate_lengths() {
        assert!(fft_any(&[], Direction::Forward).is_empty());
        let one = [Complex64::new(4.2, -1.0)];
        assert_eq!(fft_any(&one, Direction::Forward), one.to_vec());
    }
}
