//! TSUBASA baseline (Xu, Liu & Nargesian, SIGMOD '22), reimplemented.
//!
//! TSUBASA precomputes basic-window sketches (per-series moments and
//! per-pair cross products) offline, then answers an *arbitrary* window
//! query exactly by combining the `n_s` covered basic windows — the same
//! Eq. 1 substrate Dangoron uses. Its limitation, per the paper, is
//! sliding queries: every window of every pair pays the O(n_s) combine,
//! with no cross-window reuse and no skipping. That cost model is
//! reproduced faithfully here: the per-window inner loop really iterates
//! over basic windows (no prefix sums), because that O(n_s) factor *is*
//! the baseline Dangoron's order-of-magnitude claim is measured against.

use crate::{SlidingEngine, TimedRun};
use sketch::output::{Edge, EdgeRule};
use sketch::{
    pair, triangular, BasicWindowLayout, PairSketch, SketchStore, SlidingQuery, ThresholdedMatrix,
};
use std::time::Instant;
use tsdata::stats::pearson_from_sums;
use tsdata::{TimeSeriesMatrix, TsError};

/// TSUBASA engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct Tsubasa {
    /// Basic-window width; must divide the query's window and step.
    pub basic_window: usize,
    /// Worker threads for the query phase (1 = sequential).
    pub threads: usize,
}

impl Default for Tsubasa {
    fn default() -> Self {
        Self {
            basic_window: 24,
            threads: 1,
        }
    }
}

/// TSUBASA's offline state: the sketch store plus all pair sketches.
pub struct TsubasaPrepared {
    layout: BasicWindowLayout,
    store: SketchStore,
    pairs: Vec<PairSketch>,
    query: SlidingQuery,
    n: usize,
}

impl Tsubasa {
    /// Offline phase: build every sketch (mirrors
    /// `dangoron::Dangoron::prepare` in `Precomputed` mode).
    pub fn prepare(
        &self,
        x: &TimeSeriesMatrix,
        query: SlidingQuery,
    ) -> Result<TsubasaPrepared, TsError> {
        if self.basic_window < 2 {
            return Err(TsError::InvalidParameter(
                "basic_window must be at least 2".into(),
            ));
        }
        query.validate(x.len())?;
        let layout = BasicWindowLayout::for_query(&query, self.basic_window)?;
        let store = SketchStore::build_with_threads(x, layout, self.threads)?;
        let n = x.n_series();
        let pairs = pair::build_all(&layout, x, self.threads)?;
        Ok(TsubasaPrepared {
            layout,
            store,
            pairs,
            query,
            n,
        })
    }

    /// Pure query phase: per pair, per window, O(n_s) sketch combination.
    ///
    /// Uses the same work-stealing executor and per-window collector
    /// ([`ThresholdedMatrix::from_window_lists`]) as the Dangoron engine,
    /// so parallel speedup comparisons measure the algorithms, not the
    /// schedulers.
    pub fn run(&self, prep: &TsubasaPrepared) -> Vec<ThresholdedMatrix> {
        let q = &prep.query;
        let n_windows = q.n_windows();
        let n = prep.n;

        let chunks = exec::par_map_chunks(triangular::count(n), self.threads, 8, |range| {
            let mut windows: Vec<Vec<Edge>> = vec![Vec::new(); n_windows];
            for p in range {
                let (i, j) = triangular::unrank(p, n);
                let pair = &prep.pairs[p];
                for (w, list) in windows.iter_mut().enumerate() {
                    let (ws, we) = q.window_range(w);
                    let (b0, b1) = prep
                        .layout
                        .window_to_basic(ws, we)
                        .expect("alignment checked in prepare");
                    if let Some(r) = combine_tsubasa(&prep.store, pair, i, j, b0, b1) {
                        if r >= q.threshold {
                            let (i, j) = (i as u32, j as u32);
                            list.push(Edge { i, j, value: r });
                        }
                    }
                }
            }
            windows
        });
        ThresholdedMatrix::from_window_lists(n, q.threshold, EdgeRule::Positive, n_windows, chunks)
    }
}

/// The literal TSUBASA combine: accumulate the pooled sums by walking the
/// `n_s` basic windows. Deliberately **not** O(1) — see module docs.
#[inline]
fn combine_tsubasa(
    store: &SketchStore,
    pair: &PairSketch,
    i: usize,
    j: usize,
    b0: usize,
    b1: usize,
) -> Option<f64> {
    let mut n = 0.0;
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    // The per-window accumulation order below IS the replicated algorithm
    // (cost model and rounding alike), so it stays off the kernel path.
    for b in b0..b1 {
        let a = store.basic_stats(i, b);
        let c = store.basic_stats(j, b);
        n += a.n; // lint:allow(float-reduction-outside-kernel) -- literal TSUBASA walk
        sx += a.sum; // lint:allow(float-reduction-outside-kernel) -- literal TSUBASA walk
        sxx += a.sum_sq; // lint:allow(float-reduction-outside-kernel) -- literal TSUBASA walk
        sy += c.sum; // lint:allow(float-reduction-outside-kernel) -- literal TSUBASA walk
        syy += c.sum_sq; // lint:allow(float-reduction-outside-kernel) -- literal TSUBASA walk
        sxy += pair.cross_sum(b, b + 1); // lint:allow(float-reduction-outside-kernel) -- literal TSUBASA walk
    }
    pearson_from_sums(n, sx, sy, sxx, syy, sxy).ok()
}

impl SlidingEngine for Tsubasa {
    fn name(&self) -> String {
        format!("tsubasa(b={})", self.basic_window)
    }

    fn execute(
        &self,
        x: &TimeSeriesMatrix,
        query: SlidingQuery,
    ) -> Result<Vec<ThresholdedMatrix>, TsError> {
        let prep = self.prepare(x, query)?;
        Ok(self.run(&prep))
    }

    fn execute_timed(
        &self,
        x: &TimeSeriesMatrix,
        query: SlidingQuery,
    ) -> Result<TimedRun, TsError> {
        let t0 = Instant::now();
        let prep = self.prepare(x, query)?;
        let prepare = t0.elapsed();
        let t1 = Instant::now();
        let matrices = self.run(&prep);
        Ok(TimedRun {
            matrices,
            prepare,
            query: t1.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::Naive;
    use tsdata::generators;

    fn assert_same(a: &[ThresholdedMatrix], b: &[ThresholdedMatrix]) {
        assert_eq!(a.len(), b.len());
        for (w, (ma, mb)) in a.iter().zip(b).enumerate() {
            assert_eq!(ma.n_edges(), mb.n_edges(), "window {w}");
            for (ea, eb) in ma.edges().iter().zip(mb.edges()) {
                assert_eq!((ea.i, ea.j), (eb.i, eb.j));
                assert!((ea.value - eb.value).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn tsubasa_is_exact_versus_naive() {
        let x = generators::clustered_matrix(9, 240, 3, 0.6, 11).unwrap();
        for &beta in &[0.0, 0.5, 0.8] {
            let q = SlidingQuery {
                start: 0,
                end: 240,
                window: 60,
                step: 20,
                threshold: beta,
            };
            let t = Tsubasa {
                basic_window: 20,
                threads: 1,
            };
            assert_same(&t.execute(&x, q).unwrap(), &Naive.execute(&x, q).unwrap());
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let x = generators::clustered_matrix(10, 200, 2, 0.5, 7).unwrap();
        let q = SlidingQuery {
            start: 0,
            end: 200,
            window: 40,
            step: 20,
            threshold: 0.6,
        };
        let seq = Tsubasa {
            basic_window: 20,
            threads: 1,
        }
        .execute(&x, q)
        .unwrap();
        let par = Tsubasa {
            basic_window: 20,
            threads: 3,
        }
        .execute(&x, q)
        .unwrap();
        assert_same(&seq, &par);
    }

    #[test]
    fn timed_run_splits_phases() {
        let x = generators::clustered_matrix(6, 200, 2, 0.5, 7).unwrap();
        let q = SlidingQuery {
            start: 0,
            end: 200,
            window: 40,
            step: 20,
            threshold: 0.6,
        };
        let run = Tsubasa {
            basic_window: 20,
            threads: 1,
        }
        .execute_timed(&x, q)
        .unwrap();
        assert!(run.prepare > std::time::Duration::ZERO);
        assert!(run.query > std::time::Duration::ZERO);
        assert_eq!(run.matrices.len(), q.n_windows());
    }

    #[test]
    fn rejects_misaligned_basic_window() {
        let x = generators::clustered_matrix(4, 200, 2, 0.5, 7).unwrap();
        let q = SlidingQuery {
            start: 0,
            end: 200,
            window: 40,
            step: 20,
            threshold: 0.6,
        };
        assert!(Tsubasa {
            basic_window: 7,
            threads: 1
        }
        .prepare(&x, q)
        .is_err());
        assert!(Tsubasa {
            basic_window: 1,
            threads: 1
        }
        .prepare(&x, q)
        .is_err());
    }
}
