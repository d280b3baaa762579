//! The determinism contract, property-tested: on *any* input — random
//! values, random lengths covering every remainder class `len % 4 ∈
//! {0, 1, 2, 3}` — the dispatched kernels (SIMD where the host supports
//! it) return **bit-identical** results to the canonical striped scalar
//! reference. On an AVX2+FMA host this is a real cross-backend check;
//! elsewhere it degenerates to reflexivity, which is why CI also runs a
//! build-matrix leg with the features force-enabled.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Held by every test that flips [`kernel::force_scalar`], a process-wide
/// switch, so one test's flip cannot land inside another's assertions.
static BACKEND_SWITCH: Mutex<()> = Mutex::new(());

/// Random slice whose length hits every remainder class: `base4 * 4 + rem`.
fn inputs(seed: u64, base4: usize, rem: usize) -> (Vec<f64>, Vec<f64>) {
    let n = base4 * 4 + rem;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 200.0 - 100.0).collect();
    let y: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 200.0 - 100.0).collect();
    (x, y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dot_is_backend_invariant(seed in 0u64..10_000, base4 in 0usize..40, rem in 0usize..4) {
        let (x, y) = inputs(seed, base4, rem);
        prop_assert_eq!(
            kernel::dot(&x, &y).to_bits(),
            kernel::scalar::dot(&x, &y).to_bits(),
            "len={}", x.len()
        );
    }

    #[test]
    fn sums_are_backend_invariant(seed in 0u64..10_000, base4 in 0usize..40, rem in 0usize..4) {
        let (x, _) = inputs(seed, base4, rem);
        let (s, ss) = kernel::sum_and_sum_squares(&x);
        let (rs, rss) = kernel::scalar::sum_and_sum_squares(&x);
        prop_assert_eq!(s.to_bits(), rs.to_bits(), "len={}", x.len());
        prop_assert_eq!(ss.to_bits(), rss.to_bits(), "len={}", x.len());
        prop_assert_eq!(
            kernel::sum_squares(&x).to_bits(),
            kernel::scalar::sum_squares(&x).to_bits()
        );
    }

    #[test]
    fn cross_moments_are_backend_invariant(
        seed in 0u64..10_000, base4 in 0usize..40, rem in 0usize..4
    ) {
        let (x, y) = inputs(seed, base4, rem);
        let a = kernel::cross_moments(&x, &y);
        let b = kernel::scalar::cross_moments(&x, &y);
        prop_assert_eq!(a.sum_x.to_bits(), b.sum_x.to_bits());
        prop_assert_eq!(a.sum_y.to_bits(), b.sum_y.to_bits());
        prop_assert_eq!(a.sum_xx.to_bits(), b.sum_xx.to_bits());
        prop_assert_eq!(a.sum_yy.to_bits(), b.sum_yy.to_bits());
        prop_assert_eq!(a.sum_xy.to_bits(), b.sum_xy.to_bits());
    }

    #[test]
    fn fma_accumulate_is_backend_invariant(
        seed in 0u64..10_000, base4 in 0usize..40, rem in 0usize..4, scale in -10.0f64..10.0
    ) {
        let (x, acc0) = inputs(seed, base4, rem);
        let mut a = acc0.clone();
        let mut b = acc0;
        kernel::fma_accumulate(&mut a, &x, scale);
        kernel::scalar::fma_accumulate(&mut b, &x, scale);
        let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(ab, bb, "len={}", x.len());
    }
}

/// A pivot correlation lane: in `[-1, 1]`, at a clamp edge, or NaN (an
/// undefined pivot window).
fn pivot_lane(rng: &mut rand::rngs::StdRng) -> f64 {
    match rng.gen_range(0..8) {
        0 => f64::NAN,
        1 => 1.0,
        2 => -1.0,
        3 => 0.0,
        _ => rng.gen::<f64>() * 2.0 - 1.0,
    }
}

/// One window's triangle interval, the reference for the four-lane fold:
/// each pivot's `c_iz·c_jz ± √((1−c_iz²)(1−c_jz²))` with the fold's fused
/// radicands, clamped to `[−1, 1]` and intersected by compare-select.
/// Empty input gives `(−1, 1)`.
fn triangle_interval(c_iz: &[f64], c_jz: &[f64]) -> (f64, f64) {
    let (mut lo, mut hi) = (-1.0f64, 1.0f64);
    for (&iz, &jz) in c_iz.iter().zip(c_jz) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Folding a run of pivots into four window lanes: each lane equals
    /// [`triangle_interval`] over that window's non-NaN pivots, so NaN
    /// lanes are skipped. `==`, not bits: intersection order may keep
    /// either sign of a `±0` tie, which no comparison can tell apart.
    #[test]
    fn triangle_fold4_lanes_equal_triangle_interval(seed in 0u64..10_000, pivots in 1usize..9) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (mut lo, mut hi) = ([-1.0f64; 4], [1.0f64; 4]);
        let mut per_lane: [(Vec<f64>, Vec<f64>); 4] = Default::default();
        for _ in 0..pivots {
            let ciz: [f64; 4] = std::array::from_fn(|_| pivot_lane(&mut rng));
            let cjz: [f64; 4] = std::array::from_fn(|_| pivot_lane(&mut rng));
            kernel::triangle_fold4(&ciz, &cjz, &mut lo, &mut hi);
            for l in 0..4 {
                if !ciz[l].is_nan() && !cjz[l].is_nan() {
                    per_lane[l].0.push(ciz[l]);
                    per_lane[l].1.push(cjz[l]);
                }
            }
        }
        for (l, (iz, jz)) in per_lane.iter().enumerate() {
            let (wlo, whi) = triangle_interval(iz, jz);
            prop_assert!(lo[l] == wlo && hi[l] == whi, "lane {}", l);
        }
    }
}

/// This host's backend, printed into the test log for CI triage, plus the
/// guarantee that forcing scalar flips the dispatcher.
#[test]
fn backend_reporting_is_consistent() {
    let _switch = BACKEND_SWITCH.lock().unwrap();
    let b = kernel::active_backend();
    assert!(["avx2+fma", "scalar"].contains(&b), "{b}");
    kernel::force_scalar(true);
    assert_eq!(kernel::active_backend(), "scalar");
    kernel::force_scalar(false);
    assert_eq!(kernel::active_backend(), b);
}

/// An element for the windowed-dot test: mostly finite, sometimes one of
/// the IEEE special values, or `±1e-300`, whose products underflow to a
/// signed zero.
fn special_or_finite(rng: &mut rand::rngs::StdRng) -> f64 {
    match rng.gen_range(0..128) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3..=10 => -0.0,
        11..=14 => 0.0,
        15..=18 => 1e-300,
        19..=22 => -1e-300,
        _ => rng.gen::<f64>() * 200.0 - 100.0,
    }
}

/// Bitwise equality, except that any two NaNs agree: Rust leaves the
/// payload and sign of a NaN result unspecified, so two correct backends
/// (or one compiler reordering a commutative add) may differ there.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Every lane of `dot4_windows` equals `dot` (dispatched) and
/// `scalar::dot` of its window, bit for bit: widths 1–33 cover every
/// `width % 4`, 0–5 windows, rows with NaN, ±inf, ±0.0 and ±1e-300
/// elements, with the dispatcher forced to scalar and free. The scalar
/// twin is held to the same equalities.
#[test]
fn dot4_windows_lanes_equal_dot() {
    let _switch = BACKEND_SWITCH.lock().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    for forced in [false, true] {
        kernel::force_scalar(forced);
        for width in 1..=33 {
            for windows in 0..=5 {
                let len = width * windows;
                // Random rows, then rows whose every product underflows to
                // −0.0: the dot is −0.0 only if no lane's accumulator is
                // ever touched by a `+0.0` (the remainder lanes past
                // `width % 4` must be left alone, not fed `0·0`).
                let random: Vec<Vec<f64>> = (0..5)
                    .map(|_| (0..len).map(|_| special_or_finite(&mut rng)).collect())
                    .collect();
                let tiny: Vec<Vec<f64>> = (0..5)
                    .map(|r| vec![if r == 0 { 1e-300 } else { -1e-300 }; len])
                    .collect();
                for rows in [random, tiny] {
                    let ys = [&rows[1][..], &rows[2][..], &rows[3][..], &rows[4][..]];
                    let mut out = vec![[f64::NAN; 4]; windows];
                    let mut scalar_out = vec![[f64::NAN; 4]; windows];
                    kernel::dot4_windows(&rows[0], ys, width, &mut out);
                    kernel::scalar::dot4_windows(&rows[0], ys, width, &mut scalar_out);
                    for b in 0..windows {
                        let span = b * width..(b + 1) * width;
                        for (q, y) in ys.iter().enumerate() {
                            let d = kernel::dot(&rows[0][span.clone()], &y[span.clone()]);
                            let sd = kernel::scalar::dot(&rows[0][span.clone()], &y[span.clone()]);
                            for (got, which) in
                                [(out[b][q], "dispatched"), (scalar_out[b][q], "scalar")]
                            {
                                assert!(
                                    same(got, d) && same(got, sd),
                                    "{which} forced={forced} width={width} window={b} lane={q}: \
                                 {got:e} vs dot {d:e} / scalar::dot {sd:e}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    kernel::force_scalar(false);
}

/// Every lane of `prefix_sums4` is the one-pair chain `acc += v` from its
/// start, bit for bit: 0–40 rows of finite, special (NaN, ±inf, ±0.0,
/// ±1e-300) and cancelling values, from zero and nonzero starts, with the
/// dispatcher forced to scalar and free (the op is inlined into its
/// caller, so the switch must not reach it). The returned row is the last
/// prefix, or the start when there are no rows.
#[test]
fn prefix_sums4_lanes_equal_sequential_chains() {
    let _switch = BACKEND_SWITCH.lock().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    for forced in [false, true] {
        kernel::force_scalar(forced);
        for rows in 0..=40 {
            let lanes: Vec<[f64; 4]> = (0..rows)
                .map(|b| {
                    std::array::from_fn(|q| match (b + q) % 3 {
                        0 => special_or_finite(&mut rng),
                        1 => 1e16 * if b % 2 == 0 { 1.0 } else { -1.0 },
                        _ => rng.gen::<f64>() * 2.0 - 1.0,
                    })
                })
                .collect();
            for start in [[0.0; 4], [-0.0, 1.5, -3.0e300, f64::NAN]] {
                let mut got = lanes.clone();
                let last = kernel::prefix_sums4(start, &mut got);
                for q in 0..4 {
                    let mut acc = start[q];
                    for (b, row) in lanes.iter().enumerate() {
                        acc += row[q];
                        assert!(
                            same(got[b][q], acc),
                            "forced={forced} rows={rows} row={b} lane={q}: {:e} vs {acc:e}",
                            got[b][q]
                        );
                    }
                    assert!(
                        same(last[q], acc),
                        "forced={forced} rows={rows} lane={q}: last"
                    );
                }
            }
        }
    }
    kernel::force_scalar(false);
}

/// [`kernel::triangle_fold4`] the way the exhaustive walk runs it:
/// inlined into an `avx2,fma` instance when the dispatcher selects
/// AVX2+FMA, where each `mul_add` is one fused instruction, and plain
/// otherwise.
fn walk_fold(c_iz: &[f64; 4], c_jz: &[f64; 4], lo: &mut [f64; 4], hi: &mut [f64; 4]) {
    #[cfg(target_arch = "x86_64")]
    if kernel::avx2_active() {
        // SAFETY: `avx2_active` confirmed that this CPU has AVX2 and FMA.
        return unsafe { fma_fold(c_iz, c_jz, lo, hi) };
    }
    kernel::triangle_fold4(c_iz, c_jz, lo, hi)
}

/// Sound to call only on a CPU with AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_fold(c_iz: &[f64; 4], c_jz: &[f64; 4], lo: &mut [f64; 4], hi: &mut [f64; 4]) {
    kernel::triangle_fold4(c_iz, c_jz, lo, hi)
}

/// A pivot correlation at an edge of the fold: NaN, a signed zero,
/// exactly ±1, one ulp past ±1 (where `1 − c²` rounds below zero and
/// clamps), a subnormal, or a random value in `[-1, 1]`.
fn fold_lane(rng: &mut rand::rngs::StdRng) -> f64 {
    let past_one = 1.0 + f64::EPSILON;
    match rng.gen_range(0..16) {
        0 => f64::NAN,
        1 => 0.0,
        2 => -0.0,
        3 => 1.0,
        4 => -1.0,
        5 => past_one,
        6 => -past_one,
        7 => 5e-324,
        8 => -f64::MIN_POSITIVE / 3.0,
        _ => rng.gen::<f64>() * 2.0 - 1.0,
    }
}

/// Every lane of the walk's fold keeps the bits of
/// `scalar::triangle_fold4`, with the dispatcher free and forced to
/// scalar: runs of up to eight pivots built from [`fold_lane`], folded
/// into running intervals that start open, tight (a few ulps wide or a
/// single point) or anywhere inside `[-1, 1]`.
#[test]
fn walk_fold_lanes_equal_scalar_triangle_fold4() {
    let _switch = BACKEND_SWITCH.lock().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    for forced in [false, true] {
        kernel::force_scalar(forced);
        for case in 0..4000 {
            let mut lo = [0.0f64; 4];
            let mut hi = [0.0f64; 4];
            for l in 0..4 {
                let c = rng.gen::<f64>() * 2.0 - 1.0;
                (lo[l], hi[l]) = match rng.gen_range(0..4) {
                    0 => (-1.0, 1.0),
                    1 => (c, c),
                    2 => (c, c + 4.0 * f64::EPSILON),
                    _ => (c.min(0.0), c.max(0.0)),
                };
            }
            let (mut slo, mut shi) = (lo, hi);
            for p in 0..rng.gen_range(1..=8) {
                let c_iz: [f64; 4] = std::array::from_fn(|_| fold_lane(&mut rng));
                let c_jz: [f64; 4] = std::array::from_fn(|_| fold_lane(&mut rng));
                walk_fold(&c_iz, &c_jz, &mut lo, &mut hi);
                kernel::scalar::triangle_fold4(&c_iz, &c_jz, &mut slo, &mut shi);
                for l in 0..4 {
                    assert!(
                        lo[l].to_bits() == slo[l].to_bits() && hi[l].to_bits() == shi[l].to_bits(),
                        "forced={forced} case {case} pivot {p} lane {l}: \
                         ({:e}, {:e}) vs scalar ({:e}, {:e}) from ({:e}, {:e})",
                        lo[l],
                        hi[l],
                        slo[l],
                        shi[l],
                        c_iz[l],
                        c_jz[l]
                    );
                }
            }
        }
    }
    kernel::force_scalar(false);
}

#[test]
#[should_panic(expected = "length mismatch")]
fn dot4_windows_rejects_short_rows() {
    let x = [1.0; 8];
    let short = [1.0; 7];
    kernel::dot4_windows(&x, [&x, &x, &short, &x], 4, &mut [[0.0; 4]; 2]);
}
