//! E12 — SIMD kernel microbenchmark: the dispatched `kernel` primitives
//! against two scalar baselines on the workloads' hot shapes.
//!
//! Three implementations are timed per kernel:
//!
//! * **pr2** — the pre-kernel scalar code, replicated inline: one
//!   *sequential* accumulator chain (`acc = x[t].mul_add(y[t], acc)` for
//!   the prefix builders, unfused `s += x; sxx += x*x; …` for the direct
//!   Pearson moments). This is the PR 2 baseline the acceptance target is
//!   measured against.
//! * **striped** — the canonical 4-lane scalar fallback
//!   (`kernel::scalar`), i.e. what a build without SIMD support runs.
//! * **simd** — the dispatched kernel (`kernel::*`), AVX2+FMA where the
//!   host supports it, otherwise identical to *striped* (aarch64 and every
//!   other target run the scalar reference).
//!
//! The `prefix-build` row times the real [`sketch::PairSketch::build`]
//! path end-to-end (per-basic-window kernel dots plus the prefix chain),
//! with the scalar variants forced via [`kernel::force_scalar`] — safe
//! because every backend is bit-identical. The reported backend makes the
//! record honest on hosts without SIMD: there the simd column simply
//! equals striped.

use crate::Scale;
use eval::report::Table;
use eval::timing::{measure, speedup, TimingSummary};
use sketch::{BasicWindowLayout, PairSketch};
use std::hint::black_box;
use std::time::Instant;

/// One kernel's three timings.
pub struct KernelTiming {
    /// Kernel name (`dot`, `moments`, `prefix-build`, …).
    pub name: &'static str,
    /// Input length in `f64` elements.
    pub len: usize,
    /// The PR 2 sequential-scalar baseline.
    pub pr2: TimingSummary,
    /// The canonical striped scalar fallback.
    pub striped: TimingSummary,
    /// The dispatched kernel.
    pub simd: TimingSummary,
}

impl KernelTiming {
    /// Speedup of the dispatched kernel over the PR 2 baseline.
    pub fn speedup_vs_pr2(&self) -> f64 {
        speedup(&self.pr2, &self.simd)
    }
}

/// PR 2's `PairSketch` accumulation, verbatim: sequential fused chain.
fn pr2_dot(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        acc = a.mul_add(b, acc);
    }
    acc
}

/// PR 2's direct five-moment accumulation (`tsdata::stats::pearson`
/// before the kernel rewrite): sequential, unfused.
fn pr2_moments(x: &[f64], y: &[f64]) -> (f64, f64, f64, f64, f64) {
    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (&a, &b) in x.iter().zip(y) {
        sx += a;
        sy += b;
        sxx += a * a;
        syy += b * b;
        sxy += a * b;
    }
    (sx, sy, sxx, syy, sxy)
}

/// PR 2's `SketchStore` per-window accumulation: sequential `+` / fused
/// square chain.
fn pr2_sums(x: &[f64]) -> (f64, f64) {
    let (mut s, mut ss) = (0.0, 0.0);
    for &v in x {
        s += v;
        ss = v.mul_add(v, ss);
    }
    (s, ss)
}

/// Time `f` over `reps` repetitions of `inner` calls each.
fn time_it(reps: usize, inner: usize, mut f: impl FnMut() -> f64) -> TimingSummary {
    measure(reps, 1, || {
        let t = Instant::now();
        let mut sink = 0.0;
        for _ in 0..inner {
            sink += f(); // lint:allow(float-reduction-outside-kernel) -- benchmark sink defeating DCE; value is discarded
        }
        let elapsed = t.elapsed();
        assert!(sink.is_finite());
        elapsed
    })
}

/// Runs the microbenchmark suite and returns the per-kernel timings.
pub fn measure_suite(scale: Scale) -> Vec<KernelTiming> {
    let (len, width, reps, inner) = match scale {
        Scale::Quick => (16_384usize, 64usize, 5usize, 8usize),
        Scale::Full => (65_536, 64, 9, 16),
    };
    let x: Vec<f64> = (0..len)
        .map(|t| (t as f64 * 0.37).sin() + 0.01 * (t % 97) as f64)
        .collect();
    let y: Vec<f64> = (0..len).map(|t| (t as f64 * 0.91).cos() * 1.7).collect();
    let layout = BasicWindowLayout::cover(0, len, width).expect("valid layout");

    let mut out = Vec::new();

    // Raw dot product — the PairSketch inner kernel.
    out.push(KernelTiming {
        name: "dot",
        len,
        pr2: time_it(reps, inner, || pr2_dot(black_box(&x), black_box(&y))),
        striped: time_it(reps, inner, || {
            kernel::scalar::dot(black_box(&x), black_box(&y))
        }),
        simd: time_it(reps, inner, || kernel::dot(black_box(&x), black_box(&y))),
    });

    // Fused (Σx, Σx²) — the SketchStore prefix kernel.
    out.push(KernelTiming {
        name: "sum+sumsq",
        len,
        pr2: time_it(reps, inner, || pr2_sums(black_box(&x)).1),
        striped: time_it(reps, inner, || {
            kernel::scalar::sum_and_sum_squares(black_box(&x)).1
        }),
        simd: time_it(reps, inner, || kernel::sum_and_sum_squares(black_box(&x)).1),
    });

    // Five-moment accumulation — the direct window-correlation kernel.
    out.push(KernelTiming {
        name: "moments",
        len,
        pr2: time_it(reps, inner, || pr2_moments(black_box(&x), black_box(&y)).4),
        striped: time_it(reps, inner, || {
            kernel::scalar::cross_moments(black_box(&x), black_box(&y)).sum_xy
        }),
        simd: time_it(reps, inner, || {
            kernel::cross_moments(black_box(&x), black_box(&y)).sum_xy
        }),
    });

    // The real prefix-build path end-to-end (PairSketch::build); scalar
    // variants run the same code with the kernel backend forced scalar.
    // The pr2 variant replays the original sequential prefix loop.
    let pr2_prefix = |x: &[f64], y: &[f64]| -> f64 {
        let mut cross_prefix = Vec::with_capacity(layout.count + 1);
        cross_prefix.push(0.0);
        let mut acc = 0.0;
        for b in 0..layout.count {
            let (t0, t1) = layout.time_range(b);
            for t in t0..t1 {
                acc = x[t].mul_add(y[t], acc);
            }
            cross_prefix.push(acc);
        }
        *black_box(&cross_prefix).last().unwrap()
    };
    let build = |x: &[f64], y: &[f64]| -> f64 {
        let p = PairSketch::build(&layout, black_box(x), black_box(y)).expect("valid build");
        p.cross_sum(0, layout.count)
    };
    let pr2 = time_it(reps, inner, || pr2_prefix(black_box(&x), black_box(&y)));
    kernel::force_scalar(true);
    let striped = time_it(reps, inner, || build(&x, &y));
    kernel::force_scalar(false);
    let simd = time_it(reps, inner, || build(&x, &y));
    out.push(KernelTiming {
        name: "prefix-build",
        len,
        pr2,
        striped,
        simd,
    });

    out
}

/// Runs E12 and renders its table.
pub fn run(scale: Scale) -> String {
    let suite = measure_suite(scale);
    let mut table = Table::new(
        "E12: SIMD kernels vs scalar baselines",
        &[
            "kernel",
            "len",
            "pr2-ms",
            "striped-ms",
            "simd-ms",
            "simd/pr2",
            "simd/striped",
        ],
    );
    for k in &suite {
        table.row(vec![
            k.name.to_string(),
            k.len.to_string(),
            format!("{:.4}", k.pr2.median_ms()),
            format!("{:.4}", k.striped.median_ms()),
            format!("{:.4}", k.simd.median_ms()),
            format!("{:.2}x", k.speedup_vs_pr2()),
            format!("{:.2}x", speedup(&k.striped, &k.simd)),
        ]);
    }
    let mut out = table.render();
    out.push_str(&format!(
        "\nDispatched backend: {}. All three variants are bit-identical in\n\
         output (the kernel determinism contract); only speed differs. On\n\
         hosts without SIMD support the simd column equals striped and the\n\
         backend reads \"scalar\" — record interpreted accordingly.\n",
        kernel::active_backend()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_agree_with_kernels() {
        // The inline PR 2 replicas must compute the same mathematics as
        // the kernels (tolerance: different summation order).
        let x: Vec<f64> = (0..257).map(|t| (t as f64 * 0.7).sin()).collect();
        let y: Vec<f64> = (0..257).map(|t| (t as f64 * 1.3).cos()).collect();
        let scale = x.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        assert!((pr2_dot(&x, &y) - kernel::dot(&x, &y)).abs() < 1e-9 * scale);
        let (s, ss) = pr2_sums(&x);
        let (ks, kss) = kernel::sum_and_sum_squares(&x);
        assert!((s - ks).abs() < 1e-9 * scale);
        assert!((ss - kss).abs() < 1e-9 * scale);
        let m = kernel::cross_moments(&x, &y);
        let (sx, .., sxy) = pr2_moments(&x, &y);
        assert!((sx - m.sum_x).abs() < 1e-9 * scale);
        assert!((sxy - m.sum_xy).abs() < 1e-9 * scale);
    }

    #[test]
    fn report_renders_with_backend_and_rows() {
        let report = run(Scale::Quick);
        for name in ["dot", "sum+sumsq", "moments", "prefix-build"] {
            assert!(report.contains(name), "missing {name} row:\n{report}");
        }
        assert!(
            report.contains("Dispatched backend:"),
            "missing backend line:\n{report}"
        );
    }
}
