//! Property-based tests for the DSP substrate: the invariants every
//! transform must satisfy for arbitrary inputs.

use dsp::complex::Complex64;
use dsp::dft::{dft_naive, fft_any};
use dsp::fft::Direction;
use dsp::projection::{SlidingSketch, TimeIndexedProjection};
use dsp::real_fourier;
use proptest::prelude::*;

fn signal_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 2..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FFT of any length inverts exactly (complex roundtrip).
    #[test]
    fn fft_any_roundtrip(re in signal_strategy(64), seed in 0u64..100) {
        let im: Vec<f64> = re.iter().map(|x| (x * seed as f64).sin()).collect();
        let signal: Vec<Complex64> = re
            .iter()
            .zip(&im)
            .map(|(&r, &i)| Complex64::new(r, i))
            .collect();
        let spec = fft_any(&signal, Direction::Forward);
        let back = fft_any(&spec, Direction::Inverse);
        for (a, b) in back.iter().zip(&signal) {
            prop_assert!((a.re - b.re).abs() < 1e-6);
            prop_assert!((a.im - b.im).abs() < 1e-6);
        }
    }

    /// fft_any agrees with the O(n²) reference for arbitrary lengths.
    #[test]
    fn fft_any_matches_naive(re in signal_strategy(48)) {
        let signal: Vec<Complex64> = re.iter().map(|&r| Complex64::new(r, 0.0)).collect();
        let fast = fft_any(&signal, Direction::Forward);
        let slow = dft_naive(&signal, Direction::Forward);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a.re - b.re).abs() < 1e-6, "{a:?} vs {b:?}");
            prop_assert!((a.im - b.im).abs() < 1e-6);
        }
    }

    /// Real-signal spectra are Hermitian-symmetric.
    #[test]
    fn real_spectrum_hermitian(x in signal_strategy(50)) {
        let signal: Vec<Complex64> = x.iter().map(|&r| Complex64::new(r, 0.0)).collect();
        let spec = fft_any(&signal, Direction::Forward);
        let n = spec.len();
        for k in 1..n {
            let a = spec[k];
            let b = spec[n - k].conj();
            prop_assert!((a.re - b.re).abs() < 1e-6);
            prop_assert!((a.im - b.im).abs() < 1e-6);
        }
    }

    /// The real Fourier basis preserves norms and inner products exactly
    /// (the Parseval property Tomborg relies on).
    #[test]
    fn real_fourier_is_isometric(x in signal_strategy(40), shift in -5.0f64..5.0) {
        let y: Vec<f64> = x.iter().map(|v| v * 0.7 + shift).collect();
        let fx = real_fourier::forward(&x);
        let fy = real_fourier::forward(&y);
        let ip_t: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let ip_f: f64 = fx.iter().zip(&fy).map(|(a, b)| a * b).sum();
        prop_assert!((ip_t - ip_f).abs() < 1e-6 * (1.0 + ip_t.abs()));
        // Roundtrip.
        let back = real_fourier::inverse(&fx);
        for (a, b) in back.iter().zip(&x) {
            prop_assert!((a - b).abs() < 1e-7);
        }
    }

    /// Incremental sliding sketches always equal a fresh rebuild.
    #[test]
    fn sliding_sketch_incremental_equals_rebuild(
        x in prop::collection::vec(-10.0f64..10.0, 120..200),
        dim in 1usize..16,
        seed in 0u64..1_000,
        steps in prop::collection::vec(1usize..20, 1..6),
    ) {
        let len = 50;
        let proj = TimeIndexedProjection::new(dim, seed);
        let mut inc = SlidingSketch::init(proj, &x, 0, len);
        let mut t0 = 0usize;
        for s in steps {
            if t0 + s + len > x.len() {
                break;
            }
            t0 += s;
            inc.advance(&x, t0);
            let fresh = SlidingSketch::init(proj, &x, t0, len);
            match (inc.normalized(), fresh.normalized()) {
                (Some(a), Some(b)) => {
                    for (u, v) in a.iter().zip(&b) {
                        prop_assert!((u - v).abs() < 1e-6);
                    }
                }
                (None, None) => {}
                other => prop_assert!(false, "divergent variance handling: {other:?}"),
            }
        }
    }
}
