//! StatStream-style frequency-transform baseline (Zhu & Shasha, VLDB '02).
//!
//! The frequency-based family approximates the correlation of z-normalised
//! windows from the first `m` Fourier coefficients: because the
//! (orthonormal real) DFT preserves inner products, `corr(x, y) =
//! ⟨x̂, ŷ⟩/l ≈ ⟨F_m x̂, F_m ŷ⟩/l`, with error exactly the cross-energy
//! outside the kept coefficients. The approximation is excellent when the
//! energy concentrates in few (low-frequency) coefficients and degrades
//! otherwise — the data-dependent robustness weakness the paper (and the
//! Tomborg benchmark, experiment E6) targets.
//!
//! Simplification vs. the original: StatStream
//! maintains coefficients incrementally over basic windows and uses a grid
//! for candidate reporting; we recompute per window (timing is not this
//! baseline's role — accuracy/robustness is) and compare all pairs.

use crate::{matrices_from_edges, SlidingEngine, TimedRun};
use dsp::real_fourier;
use sketch::{SlidingQuery, ThresholdedMatrix};
use std::time::Instant;
use tsdata::{stats, TimeSeriesMatrix, TsError};

/// StatStream-style engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct StatStream {
    /// Number of leading real-Fourier coefficients kept per window.
    pub coeffs: usize,
    /// Candidate margin (see [`crate::parcorr::ParCorr::margin`]).
    pub margin: f64,
    /// Verify candidates against raw data.
    pub verify: bool,
}

impl Default for StatStream {
    fn default() -> Self {
        Self {
            coeffs: 16,
            margin: 0.05,
            verify: true,
        }
    }
}

impl StatStream {
    /// Runs the sliding query.
    pub fn run(
        &self,
        x: &TimeSeriesMatrix,
        query: SlidingQuery,
    ) -> Result<Vec<ThresholdedMatrix>, TsError> {
        if self.coeffs == 0 {
            return Err(TsError::InvalidParameter(
                "must keep at least one coefficient".into(),
            ));
        }
        if self.margin < 0.0 {
            return Err(TsError::InvalidParameter(
                "margin must be non-negative".into(),
            ));
        }
        query.validate(x.len())?;
        let n = x.n_series();
        let l = query.window;
        let m = self.coeffs.min(l);

        let mut window_edges = Vec::with_capacity(query.n_windows());
        for w in 0..query.n_windows() {
            let (ws, we) = query.window_range(w);
            // Leading coefficients of each z-normalised window (None when
            // the window is constant).
            let specs: Vec<Option<Vec<f64>>> = (0..n)
                .map(|i| {
                    stats::z_normalized(&x.row(i)[ws..we]).ok().map(|z| {
                        let mut c = real_fourier::forward(&z);
                        c.truncate(m);
                        c
                    })
                })
                .collect();

            let mut edges = Vec::new();
            #[allow(clippy::needless_range_loop)] // i/j pair over two slices
            for i in 0..n {
                let Some(ci) = &specs[i] else { continue };
                for j in (i + 1)..n {
                    let Some(cj) = &specs[j] else { continue };
                    let est: f64 = kernel::dot(ci, cj) / l as f64;
                    if est < query.threshold - self.margin {
                        continue;
                    }
                    if self.verify {
                        if let Ok(r) = stats::pearson(&x.row(i)[ws..we], &x.row(j)[ws..we]) {
                            if r >= query.threshold {
                                edges.push((i, j, r));
                            }
                        }
                    } else if est >= query.threshold {
                        edges.push((i, j, est.clamp(-1.0, 1.0)));
                    }
                }
            }
            window_edges.push(edges);
        }
        Ok(matrices_from_edges(n, query.threshold, window_edges))
    }
}

impl SlidingEngine for StatStream {
    fn name(&self) -> String {
        format!(
            "statstream(m={},{})",
            self.coeffs,
            if self.verify { "verify" } else { "sketch-only" }
        )
    }

    fn execute(
        &self,
        x: &TimeSeriesMatrix,
        query: SlidingQuery,
    ) -> Result<Vec<ThresholdedMatrix>, TsError> {
        self.run(x, query)
    }

    fn execute_timed(
        &self,
        x: &TimeSeriesMatrix,
        query: SlidingQuery,
    ) -> Result<TimedRun, TsError> {
        let t0 = Instant::now();
        let matrices = self.run(x, query)?;
        Ok(TimedRun {
            matrices,
            prepare: std::time::Duration::ZERO,
            query: t0.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::Naive;
    use tsdata::generators;

    fn edge_set(ms: &[ThresholdedMatrix]) -> std::collections::HashSet<(usize, usize, usize)> {
        ms.iter()
            .enumerate()
            .flat_map(|(w, m)| m.edge_pairs().map(move |(i, j)| (w, i, j)))
            .collect()
    }

    #[test]
    fn exact_on_low_frequency_signals() {
        // Smooth sinusoidal mixtures with whole periods per window (no
        // spectral leakage): energy sits in the first few coefficients,
        // so the estimate is essentially exact.
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                generators::sine_mix(
                    400,
                    &[
                        (1.0, 4.0, i as f64 * 0.3), // 1 cycle per 100-window
                        (0.5, 8.0, i as f64 * 0.7), // 2 cycles per 100-window
                    ],
                )
            })
            .collect();
        let x = TimeSeriesMatrix::from_rows(rows).unwrap();
        let q = SlidingQuery {
            start: 0,
            end: 400,
            window: 100,
            step: 50,
            threshold: 0.7,
        };
        let ss = StatStream {
            coeffs: 32,
            margin: 0.02,
            verify: true,
        };
        let got = edge_set(&ss.run(&x, q).unwrap());
        let truth = edge_set(&Naive.execute(&x, q).unwrap());
        assert_eq!(got, truth);
    }

    #[test]
    fn verify_mode_never_reports_false_edges() {
        let x = generators::clustered_matrix(8, 300, 2, 0.5, 9).unwrap();
        let q = SlidingQuery {
            start: 0,
            end: 300,
            window: 60,
            step: 30,
            threshold: 0.75,
        };
        let ss = StatStream::default();
        let got = edge_set(&ss.run(&x, q).unwrap());
        let truth = edge_set(&Naive.execute(&x, q).unwrap());
        assert!(got.is_subset(&truth));
    }

    #[test]
    fn recall_degrades_on_white_noise_with_few_coeffs() {
        // White-noise-driven clusters spread energy across all
        // frequencies: with very few coefficients the filter must miss
        // more than with many — the robustness failure mode E6 measures.
        let x = generators::clustered_matrix(10, 400, 2, 0.35, 31).unwrap();
        let q = SlidingQuery {
            start: 0,
            end: 400,
            window: 100,
            step: 100,
            threshold: 0.85,
        };
        let truth = edge_set(&Naive.execute(&x, q).unwrap());
        assert!(!truth.is_empty());
        let recall_of = |m: usize| {
            let ss = StatStream {
                coeffs: m,
                margin: 0.0,
                verify: true,
            };
            edge_set(&ss.run(&x, q).unwrap()).len() as f64 / truth.len() as f64
        };
        let few = recall_of(2);
        let many = recall_of(100);
        assert!(
            many >= few,
            "more coefficients cannot hurt: {few} vs {many}"
        );
        assert!(many > 0.95, "full-coefficient recall should be ~1: {many}");
        assert!(
            few < 0.9,
            "2-coefficient recall on noise should degrade: {few}"
        );
    }

    #[test]
    fn sketch_only_estimates_are_bounded() {
        let x = generators::clustered_matrix(6, 200, 2, 0.4, 3).unwrap();
        let q = SlidingQuery {
            start: 0,
            end: 200,
            window: 50,
            step: 50,
            threshold: 0.7,
        };
        let ss = StatStream {
            coeffs: 10,
            margin: 0.0,
            verify: false,
        };
        for m in ss.run(&x, q).unwrap() {
            for e in m.edges() {
                assert!((-1.0..=1.0).contains(&e.value));
            }
        }
    }

    #[test]
    fn validates_parameters() {
        let x = generators::independent_ar1_matrix(3, 100, 0.4, 1).unwrap();
        let q = SlidingQuery {
            start: 0,
            end: 100,
            window: 50,
            step: 25,
            threshold: 0.5,
        };
        assert!(StatStream {
            coeffs: 0,
            ..Default::default()
        }
        .run(&x, q)
        .is_err());
        assert!(StatStream {
            margin: -1.0,
            ..Default::default()
        }
        .run(&x, q)
        .is_err());
    }
}
