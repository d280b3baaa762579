//! Time-indexed random projections — the ParCorr sketch primitive.
//!
//! ParCorr [Yagoubi et al., DMKD 2018] sketches each sliding window with a
//! random ±1 projection whose columns are indexed by *absolute time*, so a
//! window slide updates the sketch incrementally: subtract the leaving
//! terms, add the entering terms. Because z-normalisation changes with the
//! window, the incremental state tracks the *raw* projections plus the
//! window sums, and normalises lazily:
//!
//! `sketch_r = (Σ_t R[r,t]·x_t − mean·Σ_t R[r,t]) / (std·√d)`
//!
//! For z-normalised windows `x̂, ŷ` of length `l`, `corr = ⟨x̂, ŷ⟩ / l`, and
//! the Johnson–Lindenstrauss property gives `⟨sketch_x, sketch_y⟩ ≈ ⟨x̂, ŷ⟩/l`
//! with the scaling chosen here.

/// A ±1 random projection with columns indexed by absolute time, generated
/// on the fly from a seed (nothing is materialised).
#[derive(Debug, Clone, Copy)]
pub struct TimeIndexedProjection {
    /// Number of sketch dimensions `d`.
    pub dim: usize,
    seed: u64,
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TimeIndexedProjection {
    /// A projection with `dim` rows derived from `seed`.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "projection dimension must be positive");
        Self { dim, seed }
    }

    /// The ±1 entry `R[row, t]`.
    #[inline]
    pub fn entry(&self, row: usize, t: usize) -> f64 {
        let h = splitmix64(
            self.seed
                ^ (row as u64).wrapping_mul(0xA076_1D64_78BD_642F)
                ^ (t as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB),
        );
        if h & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Estimate `corr(x, y)` from two sketches of z-normalised windows of
    /// length `len`.
    pub fn estimate_correlation(sx: &[f64], sy: &[f64], len: usize) -> f64 {
        debug_assert_eq!(sx.len(), sy.len());
        let dot: f64 = kernel::dot(sx, sy);
        (dot / len as f64).clamp(-1.0, 1.0)
    }
}

/// Incremental sketch state for one series and a sliding window.
#[derive(Debug, Clone)]
pub struct SlidingSketch {
    proj: TimeIndexedProjection,
    /// Current window start (absolute time index).
    pub t0: usize,
    /// Window length.
    pub len: usize,
    raw_dot: Vec<f64>,
    row_sum: Vec<f64>,
    sum: f64,
    sum_sq: f64,
}

impl SlidingSketch {
    /// Build the state for the window `series[t0 .. t0+len)`.
    ///
    /// # Panics
    /// Panics when the window exceeds the series.
    pub fn init(proj: TimeIndexedProjection, series: &[f64], t0: usize, len: usize) -> Self {
        assert!(t0 + len <= series.len(), "window out of range");
        assert!(len >= 2, "window must contain at least 2 points");
        let mut raw_dot = vec![0.0; proj.dim];
        let mut row_sum = vec![0.0; proj.dim];
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for (off, &x) in series[t0..t0 + len].iter().enumerate() {
            let t = t0 + off;
            sum += x; // lint:allow(float-reduction-outside-kernel) -- incremental sliding state: init and slide share one sequential update order so a slid window equals a fresh build exactly
            sum_sq += x * x; // lint:allow(float-reduction-outside-kernel) -- incremental sliding state: init and slide share one sequential update order so a slid window equals a fresh build exactly
            for r in 0..proj.dim {
                let e = proj.entry(r, t);
                raw_dot[r] += e * x;
                row_sum[r] += e;
            }
        }
        Self {
            proj,
            t0,
            len,
            raw_dot,
            row_sum,
            sum,
            sum_sq,
        }
    }

    /// Slide the window to start at `new_t0 >= t0`, updating incrementally
    /// in O(dim · step) rather than O(dim · len).
    ///
    /// # Panics
    /// Panics when the new window exceeds the series or moves backwards.
    pub fn advance(&mut self, series: &[f64], new_t0: usize) {
        assert!(new_t0 >= self.t0, "sliding sketch cannot move backwards");
        assert!(new_t0 + self.len <= series.len(), "window out of range");
        if new_t0 == self.t0 {
            return;
        }
        let step = new_t0 - self.t0;
        if step >= self.len {
            // Disjoint windows: rebuild is cheaper and exact.
            *self = Self::init(self.proj, series, new_t0, self.len);
            return;
        }
        // Remove leaving points, add entering points. (`t` is the global
        // time index — it seeds `entry(r, t)` — so an indexed loop it is.)
        #[allow(clippy::needless_range_loop)]
        for t in self.t0..new_t0 {
            let x = series[t];
            self.sum -= x;
            self.sum_sq -= x * x;
            for r in 0..self.proj.dim {
                let e = self.proj.entry(r, t);
                self.raw_dot[r] -= e * x;
                self.row_sum[r] -= e;
            }
        }
        #[allow(clippy::needless_range_loop)]
        for t in self.t0 + self.len..new_t0 + self.len {
            let x = series[t];
            self.sum += x; // lint:allow(float-reduction-outside-kernel) -- incremental sliding state: init and slide share one sequential update order so a slid window equals a fresh build exactly
            self.sum_sq += x * x; // lint:allow(float-reduction-outside-kernel) -- incremental sliding state: init and slide share one sequential update order so a slid window equals a fresh build exactly
            for r in 0..self.proj.dim {
                let e = self.proj.entry(r, t);
                self.raw_dot[r] += e * x;
                self.row_sum[r] += e;
            }
        }
        self.t0 = new_t0;
    }

    /// The normalised sketch of the current window, or `None` when the
    /// window has (numerically) zero variance.
    pub fn normalized(&self) -> Option<Vec<f64>> {
        let n = self.len as f64;
        let mean = self.sum / n;
        let var = (self.sum_sq / n - mean * mean).max(0.0);
        if var <= 1e-24 {
            return None;
        }
        let inv = 1.0 / (var.sqrt() * (self.proj.dim as f64).sqrt());
        Some(
            self.raw_dot
                .iter()
                .zip(&self.row_sum)
                .map(|(&d, &s)| (d - mean * s) * inv)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn series(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = 0.0;
        (0..len)
            .map(|_| {
                x = 0.9 * x + rng.gen::<f64>() - 0.5;
                x
            })
            .collect()
    }

    #[test]
    fn entries_are_deterministic_signs() {
        let p = TimeIndexedProjection::new(8, 42);
        for r in 0..8 {
            for t in 0..100 {
                let e = p.entry(r, t);
                assert!(e == 1.0 || e == -1.0);
                assert_eq!(e, p.entry(r, t));
            }
        }
        // A different seed flips a decent fraction of entries.
        let q = TimeIndexedProjection::new(8, 43);
        let diff = (0..800)
            .filter(|&i| p.entry(i / 100, i % 100) != q.entry(i / 100, i % 100))
            .count();
        assert!(diff > 200, "only {diff} of 800 entries differ");
    }

    #[test]
    fn incremental_advance_matches_rebuild() {
        let x = series(500, 1);
        let p = TimeIndexedProjection::new(16, 7);
        let mut inc = SlidingSketch::init(p, &x, 0, 100);
        for t0 in [1usize, 5, 30, 31, 95, 200, 400] {
            inc.advance(&x, t0);
            let fresh = SlidingSketch::init(p, &x, t0, 100);
            let a = inc.normalized().unwrap();
            let b = fresh.normalized().unwrap();
            for (u, v) in a.iter().zip(&b) {
                assert!((u - v).abs() < 1e-8, "t0={t0}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn disjoint_advance_rebuilds() {
        let x = series(500, 2);
        let p = TimeIndexedProjection::new(8, 3);
        let mut inc = SlidingSketch::init(p, &x, 0, 50);
        inc.advance(&x, 300); // step > len
        let fresh = SlidingSketch::init(p, &x, 300, 50);
        assert_eq!(inc.normalized().unwrap(), fresh.normalized().unwrap());
    }

    #[test]
    fn correlation_estimate_is_accurate_for_high_dim() {
        // JL: with d = 512 the estimate should be within ~0.1 of truth.
        let n = 256;
        let mut rng = StdRng::seed_from_u64(9);
        let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
        let rho = 0.8;
        let y: Vec<f64> = x
            .iter()
            .map(|&v| rho * v + (1.0 - rho * rho).sqrt() * (rng.gen::<f64>() - 0.5))
            .collect();
        let exact = {
            let mx = x.iter().sum::<f64>() / n as f64;
            let my = y.iter().sum::<f64>() / n as f64;
            let cov: f64 = x.iter().zip(&y).map(|(a, b)| (a - mx) * (b - my)).sum();
            let vx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
            let vy: f64 = y.iter().map(|b| (b - my) * (b - my)).sum();
            cov / (vx * vy).sqrt()
        };
        let p = TimeIndexedProjection::new(512, 11);
        let sx = SlidingSketch::init(p, &x, 0, n).normalized().unwrap();
        let sy = SlidingSketch::init(p, &y, 0, n).normalized().unwrap();
        let est = TimeIndexedProjection::estimate_correlation(&sx, &sy, n);
        assert!((est - exact).abs() < 0.12, "exact {exact}, estimated {est}");
    }

    #[test]
    fn self_correlation_estimates_near_one() {
        let x = series(300, 5);
        let p = TimeIndexedProjection::new(256, 13);
        let s = SlidingSketch::init(p, &x, 10, 128).normalized().unwrap();
        let est = TimeIndexedProjection::estimate_correlation(&s, &s, 128);
        assert!(est > 0.8, "self-estimate {est}");
    }

    #[test]
    fn zero_variance_window_is_none() {
        let x = vec![3.0; 100];
        let p = TimeIndexedProjection::new(8, 1);
        assert!(SlidingSketch::init(p, &x, 0, 50).normalized().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot move backwards")]
    fn backwards_advance_panics() {
        let x = series(100, 1);
        let p = TimeIndexedProjection::new(4, 1);
        let mut s = SlidingSketch::init(p, &x, 10, 20);
        s.advance(&x, 5);
    }

    #[test]
    #[should_panic(expected = "window out of range")]
    fn overlong_window_panics() {
        let x = series(100, 1);
        let p = TimeIndexedProjection::new(4, 1);
        SlidingSketch::init(p, &x, 90, 20);
    }
}
