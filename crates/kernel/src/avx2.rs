//! AVX2 + FMA backend: one `f64x4` register per lane group, one
//! `vfmadd`/`vadd` per element — the same lane-wise operation sequence as
//! [`crate::scalar`], so results are bit-identical (every IEEE operation,
//! including fused multiply-add and square root, is exactly rounded).
//!
//! Remainder elements and the final 4-lane combine are delegated to the
//! shared helpers in [`crate::scalar`], so divergence there is impossible
//! by construction.
//!
//! # Safety
//! Every function here is `unsafe` and must only be called after the
//! dispatcher has confirmed `avx2` **and** `fma` are available (statically
//! via `target_feature` or dynamically via `is_x86_feature_detected!`).

use crate::scalar::{self, LANES};
use crate::CrossMoments;
use core::arch::x86_64::*;

/// Store the four lanes of `v` to an array (lane `l` of the register is
/// canonical lane `l`).
// SAFETY: the only unsafe operation is `_mm256_storeu_pd`, an unaligned
// store of exactly 4 f64 into `out`, which is exactly 4 f64 long; the
// avx2 target feature is guaranteed by the caller (dispatcher check).
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn lanes_of(v: __m256d) -> [f64; LANES] {
    let mut out = [0.0f64; LANES];
    _mm256_storeu_pd(out.as_mut_ptr(), v);
    out
}

/// See [`scalar::dot`].
// SAFETY: caller must guarantee avx2+fma (the dispatcher's `avx2_active`
// check). Unaligned loads read lanes `k*4 .. k*4+4` with `k < len/4`
// (length equality asserted first), so every pointer stays in bounds.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let blocks = x.len() / LANES;
    let mut acc = _mm256_setzero_pd();
    for k in 0..blocks {
        let a = _mm256_loadu_pd(x.as_ptr().add(k * LANES));
        let b = _mm256_loadu_pd(y.as_ptr().add(k * LANES));
        acc = _mm256_fmadd_pd(a, b, acc);
    }
    scalar::finish_fma(lanes_of(acc), &x[blocks * LANES..], &y[blocks * LANES..])
}

/// See [`scalar::dot4_windows`]. Each window keeps one accumulator per
/// row, so the four FMA chains are independent, and the remainder block
/// updates only lanes `0 .. width % 4` (masked loads, then a blend that
/// keeps the other lanes' accumulators). The four canonical combines run
/// in registers: `hadd` forms `l0 + l1` and `l2 + l3` of two rows at a
/// time, a 128-bit permute lines the pairs up by row, and one add finishes
/// `(l0 + l1) + (l2 + l3)` for all four rows. (`hadd` adds `l1 + l0`;
/// IEEE addition commutes, so that cannot change a bit.)
// SAFETY: caller must guarantee avx2+fma. All five slices are asserted to
// hold `out.len() * width` elements; full loads read `base + k*4 ..
// base + k*4 + 4` with `k < width/4`, and the masked remainder loads touch
// only lanes `< width % 4` past `base + (width/4)*4` (masked-off lanes are
// not accessed), so every read stays inside its window. Each store writes
// exactly the four f64 of one exclusively borrowed `out[b]`.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn dot4_windows(
    x: &[f64],
    ys: [&[f64]; LANES],
    width: usize,
    out: &mut [[f64; LANES]],
) {
    let len = out.len() * width;
    assert!(
        x.len() == len && ys.iter().all(|y| y.len() == len),
        "dot4_windows: length mismatch"
    );
    let blocks = width / LANES;
    let rem = width % LANES;
    let lane_on = |l: usize| if l < rem { -1i64 } else { 0 };
    let rem_mask = _mm256_setr_epi64x(lane_on(0), lane_on(1), lane_on(2), lane_on(3));
    for (b, o) in out.iter_mut().enumerate() {
        let base = b * width;
        let px = x.as_ptr().add(base);
        let py = ys.map(|y| y.as_ptr().add(base));
        let mut acc = [_mm256_setzero_pd(); LANES];
        for k in 0..blocks {
            let a = _mm256_loadu_pd(px.add(k * LANES));
            for (acc, p) in acc.iter_mut().zip(py) {
                *acc = _mm256_fmadd_pd(a, _mm256_loadu_pd(p.add(k * LANES)), *acc);
            }
        }
        if rem > 0 {
            let at = blocks * LANES;
            let a = _mm256_maskload_pd(px.add(at), rem_mask);
            for (acc, p) in acc.iter_mut().zip(py) {
                let fused = _mm256_fmadd_pd(a, _mm256_maskload_pd(p.add(at), rem_mask), *acc);
                *acc = select(*acc, fused, _mm256_castsi256_pd(rem_mask));
            }
        }
        let h01 = _mm256_hadd_pd(acc[0], acc[1]);
        let h23 = _mm256_hadd_pd(acc[2], acc[3]);
        let sum = _mm256_add_pd(
            _mm256_permute2f128_pd::<0x20>(h01, h23),
            _mm256_permute2f128_pd::<0x31>(h01, h23),
        );
        _mm256_storeu_pd(o.as_mut_ptr(), sum);
    }
}

/// See [`scalar::sum`].
// SAFETY: caller must guarantee avx2+fma. Unaligned loads read lanes
// `k*4 .. k*4+4` with `k < x.len()/4` — always in bounds.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn sum(x: &[f64]) -> f64 {
    let blocks = x.len() / LANES;
    let mut acc = _mm256_setzero_pd();
    for k in 0..blocks {
        acc = _mm256_add_pd(acc, _mm256_loadu_pd(x.as_ptr().add(k * LANES)));
    }
    let mut s = lanes_of(acc);
    for (l, &v) in x[blocks * LANES..].iter().enumerate() {
        s[l] += v;
    }
    scalar::reduce_add(s)
}

/// See [`scalar::sum_squares`].
// SAFETY: caller must guarantee avx2+fma. Unaligned loads read lanes
// `k*4 .. k*4+4` with `k < x.len()/4` — always in bounds.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn sum_squares(x: &[f64]) -> f64 {
    let blocks = x.len() / LANES;
    let mut acc = _mm256_setzero_pd();
    for k in 0..blocks {
        let a = _mm256_loadu_pd(x.as_ptr().add(k * LANES));
        acc = _mm256_fmadd_pd(a, a, acc);
    }
    let tail = &x[blocks * LANES..];
    scalar::finish_fma(lanes_of(acc), tail, tail)
}

/// See [`scalar::sum_and_sum_squares`].
// SAFETY: caller must guarantee avx2+fma. Unaligned loads read lanes
// `k*4 .. k*4+4` with `k < x.len()/4` — always in bounds.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn sum_and_sum_squares(x: &[f64]) -> (f64, f64) {
    let blocks = x.len() / LANES;
    let mut s = _mm256_setzero_pd();
    let mut ss = _mm256_setzero_pd();
    for k in 0..blocks {
        let a = _mm256_loadu_pd(x.as_ptr().add(k * LANES));
        s = _mm256_add_pd(s, a);
        ss = _mm256_fmadd_pd(a, a, ss);
    }
    let mut s = lanes_of(s);
    let mut ss = lanes_of(ss);
    for (l, &v) in x[blocks * LANES..].iter().enumerate() {
        s[l] += v;
        ss[l] = v.mul_add(v, ss[l]);
    }
    (scalar::reduce_add(s), scalar::reduce_add(ss))
}

/// See [`scalar::cross_moments`].
// SAFETY: caller must guarantee avx2+fma. Length equality is asserted,
// then unaligned loads read lanes `k*4 .. k*4+4` with `k < len/4` from
// both slices — always in bounds.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn cross_moments(x: &[f64], y: &[f64]) -> CrossMoments {
    assert_eq!(x.len(), y.len(), "cross_moments: length mismatch");
    let blocks = x.len() / LANES;
    let mut sx = _mm256_setzero_pd();
    let mut sy = _mm256_setzero_pd();
    let mut sxx = _mm256_setzero_pd();
    let mut syy = _mm256_setzero_pd();
    let mut sxy = _mm256_setzero_pd();
    for k in 0..blocks {
        let a = _mm256_loadu_pd(x.as_ptr().add(k * LANES));
        let b = _mm256_loadu_pd(y.as_ptr().add(k * LANES));
        sx = _mm256_add_pd(sx, a);
        sy = _mm256_add_pd(sy, b);
        sxx = _mm256_fmadd_pd(a, a, sxx);
        syy = _mm256_fmadd_pd(b, b, syy);
        sxy = _mm256_fmadd_pd(a, b, sxy);
    }
    let mut sx = lanes_of(sx);
    let mut sy = lanes_of(sy);
    let mut sxx = lanes_of(sxx);
    let mut syy = lanes_of(syy);
    let mut sxy = lanes_of(sxy);
    for (l, (&a, &b)) in x[blocks * LANES..]
        .iter()
        .zip(&y[blocks * LANES..])
        .enumerate()
    {
        sx[l] += a;
        sy[l] += b;
        sxx[l] = a.mul_add(a, sxx[l]);
        syy[l] = b.mul_add(b, syy[l]);
        sxy[l] = a.mul_add(b, sxy[l]);
    }
    CrossMoments {
        sum_x: scalar::reduce_add(sx),
        sum_y: scalar::reduce_add(sy),
        sum_xx: scalar::reduce_add(sxx),
        sum_yy: scalar::reduce_add(syy),
        sum_xy: scalar::reduce_add(sxy),
    }
}

/// See [`scalar::fma_accumulate`].
// SAFETY: caller must guarantee avx2+fma. Length equality is asserted;
// loads and the store touch lanes `k*4 .. k*4+4` with `k < len/4`, and
// the store target `acc` is exclusively borrowed — no aliasing.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn fma_accumulate(acc: &mut [f64], x: &[f64], scale: f64) {
    assert_eq!(acc.len(), x.len(), "fma_accumulate: length mismatch");
    let blocks = acc.len() / LANES;
    let s = _mm256_set1_pd(scale);
    for k in 0..blocks {
        let a = _mm256_loadu_pd(acc.as_ptr().add(k * LANES));
        let v = _mm256_loadu_pd(x.as_ptr().add(k * LANES));
        _mm256_storeu_pd(acc.as_mut_ptr().add(k * LANES), _mm256_fmadd_pd(v, s, a));
    }
    for (a, &v) in acc[blocks * LANES..].iter_mut().zip(&x[blocks * LANES..]) {
        *a = v.mul_add(scale, *a);
    }
}

/// `b` where the lane of `cond` is all-ones, else `a` — the vector
/// counterpart of a scalar `if cond { b } else { a }`.
// SAFETY: register-only blend, no memory access; requires avx2, which
// the caller guarantees.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn select(a: __m256d, b: __m256d, cond: __m256d) -> __m256d {
    _mm256_blendv_pd(a, b, cond)
}
