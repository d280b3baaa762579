//! The canonical striped scalar kernels — the portable reference the
//! AVX2+FMA backend must match **bit for bit**, and what every target
//! without AVX2+FMA runs.
//!
//! Each reduction walks the input in blocks of [`LANES`] elements and
//! accumulates element `4k + l` into lane accumulator `l` with exactly one
//! IEEE-754 operation per element (`+`, or a fused `mul_add`). Trailing
//! elements (`len % 4` of them) go into lanes `0 .. len % 4` with the same
//! per-lane operation, and the four lanes are combined by the fixed
//! reduction tree `(l0 + l1) + (l2 + l3)`. A SIMD
//! backend that performs the same lane-wise operations in the same order —
//! which 4-wide FMA hardware does naturally — produces identical bits,
//! because every IEEE operation (including fused multiply-add and square
//! root) is exactly rounded and therefore deterministic per lane.

use crate::CrossMoments;

/// Stripe width of the canonical reduction order. Fixed at 4 (one AVX2
/// `f64x4` register) for both backends, including this scalar one.
pub const LANES: usize = 4;

/// The canonical 4-lane combine: `(l0 + l1) + (l2 + l3)`.
#[inline]
pub(crate) fn reduce_add(l: [f64; LANES]) -> f64 {
    (l[0] + l[1]) + (l[2] + l[3])
}

/// Fold the trailing `x.len() % 4` elements into `acc` lanes `0..rem`
/// with `op`, then combine with [`reduce_add`]. Shared by every backend so
/// remainder handling cannot diverge.
#[inline]
pub(crate) fn finish_fma(mut acc: [f64; LANES], x: &[f64], y: &[f64]) -> f64 {
    for (l, (&a, &b)) in x.iter().zip(y).enumerate() {
        acc[l] = a.mul_add(b, acc[l]);
    }
    reduce_add(acc)
}

/// Dot product `Σ x·y` in the canonical striped order (lane-wise fused
/// multiply-adds).
///
/// # Panics
/// Panics when the slices differ in length.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let blocks = x.len() / LANES;
    let mut acc = [0.0f64; LANES];
    for k in 0..blocks {
        let xs = &x[k * LANES..(k + 1) * LANES];
        let ys = &y[k * LANES..(k + 1) * LANES];
        for l in 0..LANES {
            acc[l] = xs[l].mul_add(ys[l], acc[l]);
        }
    }
    finish_fma(acc, &x[blocks * LANES..], &y[blocks * LANES..])
}

/// Per-basic-window dot products of one row against four: for every
/// window `b < out.len()`, lane `q` of `out[b]` is [`dot`] of the `width`
/// elements of `x` and `ys[q]` from `b·width` on. The AVX2 twin runs the
/// four rows' striped reductions side by side in one call; each lane is
/// still exactly one canonical [`dot`].
///
/// # Panics
/// Panics unless `x` and every `ys[q]` hold exactly `out.len() · width`
/// elements.
pub fn dot4_windows(x: &[f64], ys: [&[f64]; LANES], width: usize, out: &mut [[f64; LANES]]) {
    let len = out.len() * width;
    assert!(
        x.len() == len && ys.iter().all(|y| y.len() == len),
        "dot4_windows: length mismatch"
    );
    for (b, o) in out.iter_mut().enumerate() {
        let span = b * width..(b + 1) * width;
        *o = ys.map(|y| dot(&x[span.clone()], &y[span.clone()]));
    }
}

/// Turns every lane `q` of `lanes` into its running sum from `start[q]`,
/// in place — `lanes[b][q] ← start[q] + lanes[0][q] + … + lanes[b][q]`,
/// one `+` per row — and returns the last row (`start` when `lanes` is
/// empty).
///
/// A *window-lane* op like [`triangle_fold4`]: lane `q` carries one
/// pair's prefix chain, so one pass extends four prefixes. Each lane is
/// exactly the sequential `acc += v` chain of a one-pair prefix build,
/// so it matches that build bit for bit; nothing crosses lanes, so there
/// is no reduction order to match and no backend twin.
#[inline]
pub fn prefix_sums4(start: [f64; LANES], lanes: &mut [[f64; LANES]]) -> [f64; LANES] {
    let mut acc = start;
    for row in lanes {
        for q in 0..LANES {
            acc[q] += row[q];
        }
        *row = acc;
    }
    acc
}

/// `Σ x` in the canonical striped order (one lane-wise `+` per element).
/// Bit-identical to the first component of [`sum_and_sum_squares`].
pub fn sum(x: &[f64]) -> f64 {
    let blocks = x.len() / LANES;
    let mut acc = [0.0f64; LANES];
    for k in 0..blocks {
        let xs = &x[k * LANES..(k + 1) * LANES];
        for l in 0..LANES {
            acc[l] += xs[l];
        }
    }
    for (l, &v) in x[blocks * LANES..].iter().enumerate() {
        acc[l] += v;
    }
    reduce_add(acc)
}

/// `Σ x²` in the canonical striped order.
pub fn sum_squares(x: &[f64]) -> f64 {
    let blocks = x.len() / LANES;
    let mut acc = [0.0f64; LANES];
    for k in 0..blocks {
        let xs = &x[k * LANES..(k + 1) * LANES];
        for l in 0..LANES {
            acc[l] = xs[l].mul_add(xs[l], acc[l]);
        }
    }
    finish_fma(acc, &x[blocks * LANES..], &x[blocks * LANES..])
}

/// Fused `(Σ x, Σ x²)` in one pass — the sketch-store prefix kernel.
pub fn sum_and_sum_squares(x: &[f64]) -> (f64, f64) {
    let blocks = x.len() / LANES;
    let mut s = [0.0f64; LANES];
    let mut ss = [0.0f64; LANES];
    for k in 0..blocks {
        let xs = &x[k * LANES..(k + 1) * LANES];
        for l in 0..LANES {
            s[l] += xs[l];
            ss[l] = xs[l].mul_add(xs[l], ss[l]);
        }
    }
    for (l, &v) in x[blocks * LANES..].iter().enumerate() {
        s[l] += v;
        ss[l] = v.mul_add(v, ss[l]);
    }
    (reduce_add(s), reduce_add(ss))
}

/// Fused five-moment accumulation `(Σx, Σy, Σx², Σy², Σxy)` — the direct
/// window-correlation kernel.
///
/// # Panics
/// Panics when the slices differ in length.
pub fn cross_moments(x: &[f64], y: &[f64]) -> CrossMoments {
    assert_eq!(x.len(), y.len(), "cross_moments: length mismatch");
    let blocks = x.len() / LANES;
    let mut sx = [0.0f64; LANES];
    let mut sy = [0.0f64; LANES];
    let mut sxx = [0.0f64; LANES];
    let mut syy = [0.0f64; LANES];
    let mut sxy = [0.0f64; LANES];
    for k in 0..blocks {
        let xs = &x[k * LANES..(k + 1) * LANES];
        let ys = &y[k * LANES..(k + 1) * LANES];
        for l in 0..LANES {
            sx[l] += xs[l];
            sy[l] += ys[l];
            sxx[l] = xs[l].mul_add(xs[l], sxx[l]);
            syy[l] = ys[l].mul_add(ys[l], syy[l]);
            sxy[l] = xs[l].mul_add(ys[l], sxy[l]);
        }
    }
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
        sum_x: reduce_add(sx),
        sum_y: reduce_add(sy),
        sum_xx: reduce_add(sxx),
        sum_yy: reduce_add(syy),
        sum_xy: reduce_add(sxy),
    }
}

/// `acc[i] += x[i] · scale` with one fused multiply-add per element — the
/// axpy kernel. Element-wise (no reduction), so it is bit-identical across
/// backends for any vector width.
///
/// # Panics
/// Panics when the slices differ in length.
pub fn fma_accumulate(acc: &mut [f64], x: &[f64], scale: f64) {
    assert_eq!(acc.len(), x.len(), "fma_accumulate: length mismatch");
    for (a, &v) in acc.iter_mut().zip(x) {
        *a = v.mul_add(scale, *a);
    }
}

/// One lane of [`triangle_fold4`]: the `[lo, hi]` bound on
/// `c_xy` from the pivot correlations `(c_xz, c_yz)`: a fused negated
/// multiply-add per radicand and compare-select clamps, each of which an
/// `avx2,fma` caller compiles to one vector instruction.
#[inline(always)]
pub(crate) fn tri_lo_hi(c_iz: f64, c_jz: f64) -> (f64, f64) {
    let prod = c_iz * c_jz;
    let u = (-c_iz).mul_add(c_iz, 1.0);
    let u = if u > 0.0 { u } else { 0.0 };
    let v = (-c_jz).mul_add(c_jz, 1.0);
    let v = if v > 0.0 { v } else { 0.0 };
    let rad = (u * v).sqrt();
    let lo = prod - rad;
    let lo = if lo > -1.0 { lo } else { -1.0 };
    let hi = prod + rad;
    let hi = if hi < 1.0 { hi } else { 1.0 };
    (lo, hi)
}

/// Intersect each lane `l` of the running interval `(lo, hi)` with the
/// triangle bound of `(c_iz[l], c_jz[l])`, four lanes in one `avx2,fma`
/// register.
///
/// A *window-lane* op: lane `l` carries window `l` of a block of four, so
/// one call folds one pivot into four windows' intervals. A NaN operand (an undefined pivot window) comes out of the
/// clamp selects as `(−1, 1)`, which never tightens a lane, so NaN lanes
/// are skipped. Nothing crosses lanes, so there is no reduction order to
/// match and no backend twin: a caller compiled for `avx2,fma` (see
/// `avx2_active`) inlines it with fused instructions, and every instance
/// gives the same bits. It and `tri_lo_hi` are `inline(always)` so that
/// no copy is left out of line in a build without FMA, calling the `fma`
/// routine.
#[inline(always)]
pub fn triangle_fold4(
    c_iz: &[f64; LANES],
    c_jz: &[f64; LANES],
    lo: &mut [f64; LANES],
    hi: &mut [f64; LANES],
) {
    for l in 0..LANES {
        let (clo, chi) = tri_lo_hi(c_iz[l], c_jz[l]);
        if clo > lo[l] {
            lo[l] = clo;
        }
        if chi < hi[l] {
            hi[l] = chi;
        }
    }
}
