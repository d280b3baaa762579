//! # kernel — portable 4-lane `f64` SIMD primitives for the hot loops
//!
//! Every dense inner product in this workspace — sketch prefix builders,
//! the direct five-moment Pearson accumulation, pivot-table triangle
//! bounds, the linear-algebra substrate — funnels through this crate. Each
//! reduction exists in two backends:
//!
//! * [`scalar`] — the canonical **4-lane striped** reference (always
//!   compiled; every target without AVX2+FMA, aarch64 included, runs it);
//! * an AVX2+FMA backend (x86-64), selected at compile time when the
//!   binary is built with `-C target-feature=+avx2,+fma` and otherwise at
//!   first use via CPU feature detection.
//!
//! ## The determinism contract
//!
//! The canonical reduction order is defined by [`scalar`]: element
//! `4k + l` of the input updates lane accumulator `l` with exactly one
//! IEEE-754 operation (`+` or fused `mul_add`), trailing `len % 4`
//! elements update lanes `0 .. len % 4`, and the lanes combine as
//! `(l0 + l1) + (l2 + l3)`. The AVX2 backend performs the *same* lane-wise
//! operations in the *same* order — which is precisely what 4-wide FMA
//! hardware does — and every IEEE operation (including fused multiply-add
//! and square root) is exactly rounded, so **both backends produce
//! bit-identical results on every input**. This is what lets the engine
//! guarantee bit-identical edges across scalar and SIMD builds, extending
//! the thread-count determinism contract of `tests/parallel_determinism.rs`
//! to the instruction set; the crate's property tests assert the identity
//! on random lengths, including all remainder classes `len % 4 ∈ {1,2,3}`.
//!
//! [`dot4_windows`] is the pair-sketch builder's batched [`dot`]: the
//! per-basic-window dots of one row against four rows in one call, each
//! lane bit-identical to [`dot`] of its window.
//!
//! Two ops have no backend twin; their caller picks the instruction set.
//! [`triangle_fold4`] folds one pivot into four windows' triangle
//! intervals, lane `l` carrying window `l`; [`prefix_sums4`] extends four
//! prefix chains at once, lane `q` carrying one pair's chain (the
//! pair-sketch builder runs its cross-sum prefixes and the Eq. 2 cost
//! prefixes four pairs at a time through it). They are inlined scalar
//! functions. The pivot table's wholesale prefilter, the fold's one
//! caller, checks `avx2_active` once per call and runs an `avx2,fma`
//! instance of itself into which the fold inlines, so each `mul_add` is
//! one fused instruction rather than an out-of-line call to the `fma`
//! routine, which a portable x86-64 build would make. A fused multiply-add
//! is exactly rounded in either form, so both instances give the same
//! bits.
//!
//! ```
//! let x: Vec<f64> = (0..1027).map(|t| (t as f64 * 0.37).sin()).collect();
//! let y: Vec<f64> = (0..1027).map(|t| (t as f64 * 0.91).cos()).collect();
//! // Dispatched kernel (SIMD where available) vs the canonical scalar
//! // reference: bit-identical, not merely close.
//! assert_eq!(kernel::dot(&x, &y).to_bits(), kernel::scalar::dot(&x, &y).to_bits());
//! let m = kernel::cross_moments(&x, &y);
//! assert_eq!(m.sum_xy.to_bits(), kernel::dot(&x, &y).to_bits());
//! ```

pub mod scalar;

pub use scalar::{prefix_sums4, triangle_fold4};

#[cfg(target_arch = "x86_64")]
mod avx2;

use std::sync::atomic::{AtomicBool, Ordering};

/// The five raw sums `(Σx, Σy, Σx², Σy², Σxy)` of a pair of slices — the
/// exact inputs of the pooled Pearson form used throughout the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CrossMoments {
    /// `Σ x`.
    pub sum_x: f64,
    /// `Σ y`.
    pub sum_y: f64,
    /// `Σ x²`.
    pub sum_xx: f64,
    /// `Σ y²`.
    pub sum_yy: f64,
    /// `Σ x·y`.
    pub sum_xy: f64,
}

/// When set, the dispatcher routes every call to [`scalar`] regardless of
/// hardware — the benchmarking/testing override.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Force (or stop forcing) the scalar backend at runtime.
///
/// Because every backend is bit-identical, flipping this mid-run can never
/// change a result — only its speed. Used by the E12 microbenchmark to
/// measure the SIMD speedup end-to-end, and by tests asserting backend
/// invariance.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// True when the dispatcher routes to the AVX2+FMA backend: the CPU has
/// both features and [`force_scalar`] is off.
///
/// A caller whose hot loop inlines lane-wise kernels such as
/// [`triangle_fold4`] checks this once per loop and runs its own
/// `#[target_feature(enable = "avx2,fma")]` instance when it holds, under
/// the same override as every dispatched kernel.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn avx2_active() -> bool {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        return false;
    }
    #[cfg(all(target_feature = "avx2", target_feature = "fma"))]
    {
        true
    }
    #[cfg(not(all(target_feature = "avx2", target_feature = "fma")))]
    {
        // Runtime detection, cached: 0 = unknown, 1 = absent, 2 = present.
        use std::sync::atomic::AtomicU8;
        static STATE: AtomicU8 = AtomicU8::new(0);
        match STATE.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => {
                let ok = std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma");
                STATE.store(if ok { 2 } else { 1 }, Ordering::Relaxed);
                ok
            }
        }
    }
}

/// Name of the backend the dispatcher currently selects — printed by the
/// E12 kernel experiment so its speedup table says what was measured.
pub fn active_backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        return "avx2+fma";
    }
    "scalar"
}

/// Dispatch one kernel call: the AVX2+FMA backend when active, canonical
/// scalar otherwise. The `unsafe` is justified by the `avx2_active()`
/// feature check.
macro_rules! dispatch {
    ($name:ident ( $($arg:expr),* )) => {{
        #[cfg(target_arch = "x86_64")]
        if avx2_active() {
            // SAFETY: avx2_active() confirmed avx2+fma (statically or via
            // CPU detection).
            return unsafe { avx2::$name($($arg),*) };
        }
        scalar::$name($($arg),*)
    }};
}

/// Dot product `Σ x·y` in the canonical striped order.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    dispatch!(dot(x, y))
}

/// Per-basic-window dot products of one row against four rows in one
/// call: lane `q` of `out[b]` is [`dot`] of window `b` (`width` elements
/// from `b·width`) of `x` and `ys[q]`, bit for bit — the pair-sketch
/// builder's kernel, four pairs per call.
///
/// AVX2+FMA where available, the canonical scalar twin otherwise.
///
/// # Panics
/// Panics unless `x` and every `ys[q]` hold exactly `out.len() · width`
/// elements.
#[inline]
pub fn dot4_windows(x: &[f64], ys: [&[f64]; 4], width: usize, out: &mut [[f64; 4]]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: avx2_active() confirmed avx2+fma (statically or via CPU
        // detection).
        return unsafe { avx2::dot4_windows(x, ys, width, out) };
    }
    scalar::dot4_windows(x, ys, width, out)
}

/// `Σ x` in the canonical striped order. Bit-identical to the first
/// component of [`sum_and_sum_squares`] (same per-lane adds, same
/// combine) — use this when only the plain sum is needed.
#[inline]
pub fn sum(x: &[f64]) -> f64 {
    dispatch!(sum(x))
}

/// `Σ x²` in the canonical striped order.
#[inline]
pub fn sum_squares(x: &[f64]) -> f64 {
    dispatch!(sum_squares(x))
}

/// Fused `(Σ x, Σ x²)` in one pass — the sketch-store prefix kernel.
#[inline]
pub fn sum_and_sum_squares(x: &[f64]) -> (f64, f64) {
    dispatch!(sum_and_sum_squares(x))
}

/// Fused five-moment accumulation — the direct window-correlation kernel.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn cross_moments(x: &[f64], y: &[f64]) -> CrossMoments {
    dispatch!(cross_moments(x, y))
}

/// `acc[i] += x[i] · scale`, one fused multiply-add per element (axpy).
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn fma_accumulate(acc: &mut [f64], x: &[f64], scale: f64) {
    dispatch!(fma_accumulate(acc, x, scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|t| (t as f64 * 0.73 + phase).sin() * 2.0 + 0.01 * t as f64)
            .collect()
    }

    #[test]
    fn dot_matches_naive_and_scalar() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 1000] {
            let x = series(n, 0.0);
            let y = series(n, 1.3);
            let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let d = dot(&x, &y);
            assert!((d - naive).abs() <= 1e-9 * naive.abs().max(1.0), "n={n}");
            assert_eq!(d.to_bits(), scalar::dot(&x, &y).to_bits(), "n={n}");
        }
    }

    #[test]
    fn fused_sums_match_components() {
        for n in [0usize, 1, 3, 5, 16, 21, 257] {
            let x = series(n, 0.4);
            let (s, ss) = sum_and_sum_squares(&x);
            let (rs, rss) = scalar::sum_and_sum_squares(&x);
            assert_eq!(s.to_bits(), rs.to_bits());
            assert_eq!(ss.to_bits(), rss.to_bits());
            assert_eq!(ss.to_bits(), sum_squares(&x).to_bits());
            let direct: f64 = x.iter().sum();
            assert!((s - direct).abs() <= 1e-9 * direct.abs().max(1.0));
        }
    }

    #[test]
    fn sum_matches_scalar_and_fused_kernel_bitwise() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 1000] {
            let x = series(n, 0.7);
            let s = sum(&x);
            assert_eq!(s.to_bits(), scalar::sum(&x).to_bits(), "n={n}");
            let (fused, _) = sum_and_sum_squares(&x);
            assert_eq!(s.to_bits(), fused.to_bits(), "n={n}");
            let direct: f64 = x.iter().sum();
            assert!((s - direct).abs() <= 1e-9 * direct.abs().max(1.0), "n={n}");
        }
    }

    #[test]
    fn cross_moments_agree_with_kernels() {
        let x = series(143, 0.0);
        let y = series(143, 2.2);
        let m = cross_moments(&x, &y);
        assert_eq!(m.sum_xy.to_bits(), dot(&x, &y).to_bits());
        assert_eq!(m.sum_xx.to_bits(), sum_squares(&x).to_bits());
        let (sx, sxx) = sum_and_sum_squares(&x);
        assert_eq!(m.sum_x.to_bits(), sx.to_bits());
        assert_eq!(m.sum_xx.to_bits(), sxx.to_bits());
    }

    #[test]
    fn fma_accumulate_is_axpy() {
        for n in [0usize, 1, 4, 6, 100, 103] {
            let x = series(n, 0.9);
            let mut acc = series(n, 0.2);
            let mut expect = acc.clone();
            for (e, &v) in expect.iter_mut().zip(&x) {
                *e = v.mul_add(0.37, *e);
            }
            fma_accumulate(&mut acc, &x, 0.37);
            assert_eq!(
                acc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "n={n}"
            );
        }
    }

    #[test]
    fn triangle_interval_bounds_are_sound() {
        // Pivot runs folded four windows at a time, against the direct
        // per-pivot formula for each window's interval.
        for n in [0usize, 1, 2, 3, 4, 5, 9, 31] {
            let c = |p: usize, l: usize, f: f64| ((p * 4 + l) as f64 * f).sin();
            let (mut lo, mut hi) = ([-1.0f64; 4], [1.0f64; 4]);
            for p in 0..n {
                let ciz = std::array::from_fn(|l| c(p, l, 1.1));
                let cjz = std::array::from_fn(|l| c(p, l, 0.7).cos());
                triangle_fold4(&ciz, &cjz, &mut lo, &mut hi);
            }
            for l in 0..4 {
                // Arbitrary (mutually inconsistent) pivot values can
                // produce an empty intersection, so only the clamps are
                // asserted.
                assert!(lo[l] >= -1.0 && hi[l] <= 1.0, "n={n} lane {l}");
                let (direct_lo, direct_hi) =
                    one_window_interval((0..n).map(|p| (c(p, l, 1.1), c(p, l, 0.7).cos())));
                assert!(lo[l] == direct_lo && hi[l] == direct_hi, "n={n} lane {l}");
            }
        }
    }

    /// One window's triangle interval: each pivot's
    /// `c_iz·c_jz ± √((1−c_iz²)(1−c_jz²))`, with the fused radicands of
    /// `tri_lo_hi`, intersected by compare-select from `(−1, 1)`.
    fn one_window_interval(cs: impl Iterator<Item = (f64, f64)>) -> (f64, f64) {
        let (mut lo, mut hi) = (-1.0f64, 1.0f64);
        for (iz, jz) in cs {
            let u = (-iz).mul_add(iz, 1.0);
            let v = (-jz).mul_add(jz, 1.0);
            let rad = (if u > 0.0 { u } else { 0.0 } * if v > 0.0 { v } else { 0.0 }).sqrt();
            if iz * jz - rad > lo {
                lo = iz * jz - rad;
            }
            if iz * jz + rad < hi {
                hi = iz * jz + rad;
            }
        }
        (lo, hi)
    }

    #[test]
    fn force_scalar_round_trips() {
        let x = series(77, 0.0);
        let y = series(77, 0.5);
        let before = dot(&x, &y);
        force_scalar(true);
        assert_eq!(active_backend(), "scalar");
        let forced = dot(&x, &y);
        force_scalar(false);
        assert_eq!(before.to_bits(), forced.to_bits());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
