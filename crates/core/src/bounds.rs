//! Correlation bounds: the temporal Eq. 2 bound and the horizontal
//! triangle-inequality bound.
//!
//! ## Eq. 2 (temporal / vertical)
//!
//! Under the paper's assumption that every basic window is drawn from one
//! sample distribution (window means and variances roughly stationary), the
//! query-window correlation is approximately the average of its basic
//! windows' correlations: `Corr ≈ (1/n_s)·Σ c_j`. Sliding the window by `m`
//! basic windows removes the `m` oldest terms (whose `c` values are *known*
//! from the sketches) and adds `m` new ones (bounded above by 1), giving
//!
//! ```text
//! Corr_{i+k} ≤ Corr_i + (1/n_s)·(m·k − Σ_{departing} c_b)   (Eq. 2)
//! ```
//!
//! Each summand `1 − c_b ≥ 0`, so the bound is **monotone non-decreasing in
//! `k`** — which is what makes the paper's binary search for the jump
//! length valid ([`max_jump`]).
//!
//! Because Eq. 2 is exact only under the stationarity assumption, jumping
//! with it trades recall for speed; the engine's `slack` knob widens the
//! margin for a controllable trade-off (paper §4: "accuracy above 90
//! percent").
//!
//! ## Triangle (horizontal)
//!
//! Correlation matrices are PSD, so for any pivot `z`:
//! `c_xz·c_yz − √((1−c_xz²)(1−c_yz²)) ≤ c_xy ≤ c_xz·c_yz + √(…)`.
//! This bound is unconditional (a theorem, not a heuristic).

use sketch::output::EdgeRule;
use sketch::pair::StripFinish;
use sketch::BasicMoments;

/// Prefix sums of `(1 − c_b)` (or `(1 + c_b)` for the lower bound) over
/// all basic windows of a pair, built by [`PairCosts::from_correlations`];
/// the jump bound for any departure range is then O(1).
#[derive(Debug, Clone)]
pub struct DepartureCost {
    /// `prefix[b] = Σ_{t<b} (1 − c_t)`, length `n_b + 1`.
    prefix: Vec<f64>,
}

impl DepartureCost {
    /// An empty prefix (`[0.0]`) with room for `n_basic` basic windows.
    fn with_capacity(n_basic: usize) -> Self {
        let mut prefix = Vec::with_capacity(n_basic + 1);
        prefix.push(0.0);
        Self { prefix }
    }

    /// The last prefix entry — where an extension resumes.
    fn total(&self) -> f64 {
        *self.prefix.last().expect("prefix is never empty")
    }

    /// Appends lane `q` of `lanes` (one departure cost per row) to
    /// `prefixes[q]` as one [`kernel::prefix_sums4`] chain per lane, from
    /// each prefix's total; a `None` lane is dropped.
    fn extend_lanes(prefixes: [Option<&mut DepartureCost>; 4], lanes: &mut [[f64; 4]]) {
        let start = prefixes
            .each_ref()
            .map(|p| p.as_ref().map_or(0.0, |p| p.total()));
        kernel::prefix_sums4(start, lanes);
        for (q, prefix) in prefixes.into_iter().enumerate() {
            if let Some(prefix) = prefix {
                prefix.prefix.extend(lanes.iter().map(|l| l[q]));
            }
        }
    }

    /// Number of basic windows covered.
    pub fn n_basic(&self) -> usize {
        self.prefix.len() - 1
    }

    /// Resident bytes of the prefix's backing store.
    pub fn memory_bytes(&self) -> usize {
        self.prefix.capacity() * std::mem::size_of::<f64>()
    }

    /// `Σ_{b in [b0, b1)} (1 − c_b)` — the growth of the Eq. 2 bound when
    /// those basic windows depart.
    #[inline]
    pub fn cost(&self, b0: usize, b1: usize) -> f64 {
        debug_assert!(b0 <= b1 && b1 < self.prefix.len());
        self.prefix[b1] - self.prefix[b0]
    }
}

/// The Eq. 2 upper bound on `Corr_{i+k}` given `Corr_i`, when window `i`
/// starts at basic window `bw0`, each slide departs `step_bw` basic
/// windows, and the query window spans `ns` basic windows.
#[inline]
pub fn eq2_upper_bound(
    corr_i: f64,
    ns: usize,
    step_bw: usize,
    bw0: usize,
    k: usize,
    dep: &DepartureCost,
) -> f64 {
    corr_i + dep.cost(bw0, bw0 + k * step_bw) / ns as f64
}

/// The symmetric Eq. 2 lower bound (arriving windows bounded below by −1):
/// `Corr_{i+k} ≥ Corr_i − (1/n_s)·Σ_departing (1 + c_b)`. Exposed for
/// completeness and for the negative-threshold use-case.
#[inline]
pub fn eq2_lower_bound(
    corr_i: f64,
    ns: usize,
    step_bw: usize,
    bw0: usize,
    k: usize,
    dep_lower: &DepartureCost,
) -> f64 {
    // `dep_lower` must be built with `1 + c_b` costs; reuse the same
    // prefix structure by negating correlations at construction.
    corr_i - dep_lower.cost(bw0, bw0 + k * step_bw) / ns as f64
}

/// Largest `k ∈ [1, k_max]` such that the Eq. 2 bound stays strictly below
/// `beta − slack` — i.e. windows `i+1 … i+k` can all be skipped. Returns 0
/// when even `k = 1` cannot be ruled out.
///
/// Runs the paper's binary search; validity rests on the bound's
/// monotonicity in `k`.
#[allow(clippy::too_many_arguments)]
pub fn max_jump(
    corr_i: f64,
    beta: f64,
    slack: f64,
    ns: usize,
    step_bw: usize,
    bw0: usize,
    k_max: usize,
    dep: &DepartureCost,
) -> usize {
    if k_max == 0 {
        return 0;
    }
    let below = |k: usize| eq2_upper_bound(corr_i, ns, step_bw, bw0, k, dep) < beta - slack;
    if !below(1) {
        return 0;
    }
    if below(k_max) {
        return k_max;
    }
    // Invariant: below(lo) is true, below(hi) is false.
    let (mut lo, mut hi) = (1usize, k_max);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The per-pair departure-cost prefixes an engine needs: the upper-bound
/// cost always, the lower-bound cost only for absolute-threshold queries.
#[derive(Debug, Clone)]
pub struct PairCosts {
    /// `Σ (1 − c_b)` prefix — drives the Eq. 2 *upper* bound.
    pub upper: DepartureCost,
    /// `Σ (1 + c_b)` prefix — drives the lower bound (anticorrelation
    /// edges); `None` for positive-threshold queries.
    pub lower: Option<DepartureCost>,
}

impl PairCosts {
    /// Builds both prefixes from per-basic-window correlations `cs` in one
    /// pass: the upper prefix always, the lower one only for
    /// [`EdgeRule::Absolute`]. `None` is an undefined (constant-window)
    /// correlation, treated as 0 — a neutral value. Each prefix is
    /// allocated at exactly `cs.len() + 1` entries.
    pub fn from_correlations(
        cs: impl ExactSizeIterator<Item = Option<f64>>,
        rule: EdgeRule,
    ) -> Self {
        let mut costs = Self::with_capacity(cs.len(), rule);
        costs.extend(cs);
        costs
    }

    /// Prefixes of no basic window, with room for `n_basic` of them.
    fn with_capacity(n_basic: usize, rule: EdgeRule) -> Self {
        Self {
            upper: DepartureCost::with_capacity(n_basic),
            lower: (rule == EdgeRule::Absolute).then(|| DepartureCost::with_capacity(n_basic)),
        }
    }

    /// Appends further basic windows' correlations to both prefixes. The
    /// accumulation continues from the stored tails, so an extended
    /// prefix is bit-identical to a fresh build over the concatenated
    /// sequence — the streaming-session maintenance path.
    pub fn extend(&mut self, cs: impl Iterator<Item = Option<f64>>) {
        let mut up = self.upper.total();
        let mut low = self.lower.as_ref().map_or(0.0, DepartureCost::total);
        for c in cs {
            let c = c.unwrap_or(0.0);
            up += 1.0 - c;
            self.upper.prefix.push(up);
            if let Some(lower) = &mut self.lower {
                low += 1.0 + c; // lint:allow(float-reduction-outside-kernel) -- prefix-sum build: every partial is stored; extension resumes from the stored tail bit-identically
                lower.prefix.push(low);
            }
        }
    }

    /// Resident bytes of both prefixes.
    pub fn memory_bytes(&self) -> usize {
        self.upper.memory_bytes() + self.lower.as_ref().map_or(0, DepartureCost::memory_bytes)
    }
}

/// The Eq. 2 finisher of the pair-sketch pass: [`sketch::pair::build_with`]
/// builds each pair's [`PairCosts`] right after its sketch, four pairs of
/// a strip at a time. Lane `q` carries one pair: `1 − c_b` (and `1 + c_b`
/// for [`EdgeRule::Absolute`]) chained by [`kernel::prefix_sums4`], the
/// same adds in the same order as [`PairCosts::extend`], so every prefix
/// equals [`PairCosts::from_correlations`] of the pair's `c_b` bit for bit.
pub(crate) struct StripCosts {
    /// Every series' `(mean, σ)` per basic window of the layout.
    pub(crate) moments: BasicMoments,
    /// Basic windows of the layout.
    pub(crate) n_basic: usize,
    pub(crate) rule: EdgeRule,
}

impl StripFinish for StripCosts {
    type Out = PairCosts;

    fn moments(&self) -> Option<&BasicMoments> {
        Some(&self.moments)
    }

    fn empty(&self) -> PairCosts {
        PairCosts::with_capacity(self.n_basic, self.rule)
    }

    fn fill(
        &self,
        cs: &[[Option<f64>; 4]],
        lanes: &mut [[f64; 4]],
        mut slots: [Option<&mut PairCosts>; 4],
    ) {
        // `None` is an undefined (constant-window) correlation, treated as
        // 0, as in `PairCosts::extend`.
        for (l, c) in lanes.iter_mut().zip(cs) {
            *l = c.map(|c| 1.0 - c.unwrap_or(0.0));
        }
        DepartureCost::extend_lanes(
            slots
                .each_mut()
                .map(|s| s.as_deref_mut().map(|c| &mut c.upper)),
            lanes,
        );
        if self.rule == EdgeRule::Absolute {
            for (l, c) in lanes.iter_mut().zip(cs) {
                *l = c.map(|c| 1.0 + c.unwrap_or(0.0));
            }
            DepartureCost::extend_lanes(slots.map(|s| s.and_then(|c| c.lower.as_mut())), lanes);
        }
    }
}

/// Largest `k ∈ [1, k_max]` such that **both** Eq. 2 bounds confine the
/// correlation strictly inside `(−(β−slack), β−slack)` — i.e. windows
/// `i+1 … i+k` cannot produce an edge under [`EdgeRule::Absolute`].
///
/// `corr` is the current window's exact correlation. Both bounds are
/// monotone in `k`, so their conjunction is binary-searchable.
#[allow(clippy::too_many_arguments)]
pub fn max_jump_absolute(
    corr: f64,
    beta: f64,
    slack: f64,
    ns: usize,
    step_bw: usize,
    bw0: usize,
    k_max: usize,
    up: &DepartureCost,
    low: &DepartureCost,
) -> usize {
    if k_max == 0 {
        return 0;
    }
    let margin = beta - slack;
    let inside = |k: usize| {
        eq2_upper_bound(corr, ns, step_bw, bw0, k, up) < margin
            && eq2_lower_bound(corr, ns, step_bw, bw0, k, low) > -margin
    };
    if !inside(1) {
        return 0;
    }
    if inside(k_max) {
        return k_max;
    }
    let (mut lo_k, mut hi_k) = (1usize, k_max);
    while hi_k - lo_k > 1 {
        let mid = lo_k + (hi_k - lo_k) / 2;
        if inside(mid) {
            lo_k = mid;
        } else {
            hi_k = mid;
        }
    }
    lo_k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pivot::tests::triangle_reference;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tsdata::stats::pearson;

    /// The `Σ (1 − c_b)` prefix of `cs`.
    fn upper(cs: impl ExactSizeIterator<Item = Option<f64>>) -> DepartureCost {
        PairCosts::from_correlations(cs, EdgeRule::Positive).upper
    }

    /// The `Σ (1 + c_b)` prefix of `cs`.
    fn lower(cs: impl ExactSizeIterator<Item = Option<f64>>) -> DepartureCost {
        PairCosts::from_correlations(cs, EdgeRule::Absolute)
            .lower
            .expect("absolute costs keep a lower prefix")
    }

    #[test]
    fn departure_cost_prefix() {
        let dep = upper(vec![Some(1.0), Some(0.5), Some(-1.0), None].into_iter());
        assert_eq!(dep.n_basic(), 4);
        assert_eq!(dep.cost(0, 1), 0.0); // 1 − 1
        assert_eq!(dep.cost(1, 2), 0.5);
        assert_eq!(dep.cost(2, 3), 2.0);
        assert_eq!(dep.cost(3, 4), 1.0); // None → c = 0
        assert_eq!(dep.cost(0, 4), 3.5);
        assert_eq!(dep.cost(2, 2), 0.0);
    }

    #[test]
    fn extended_prefix_is_bit_identical_to_fresh_build() {
        let cs: Vec<Option<f64>> = vec![Some(0.9), Some(-0.3), None, Some(0.47), Some(0.99)];
        for rule in [EdgeRule::Positive, EdgeRule::Absolute] {
            let fresh = PairCosts::from_correlations(cs.iter().cloned(), rule);
            for split in 0..=cs.len() {
                let mut grown = PairCosts::from_correlations(cs[..split].iter().cloned(), rule);
                grown.extend(cs[split..].iter().cloned());
                let pairs = [(&grown.upper, &fresh.upper)]
                    .into_iter()
                    .chain(grown.lower.as_ref().zip(fresh.lower.as_ref()));
                for (g, f) in pairs {
                    assert_eq!(g.n_basic(), f.n_basic());
                    for b in 0..=f.n_basic() {
                        assert_eq!(g.cost(0, b).to_bits(), f.cost(0, b).to_bits());
                    }
                }
            }
            assert_eq!(fresh.lower.is_some(), rule == EdgeRule::Absolute);
        }
    }

    /// Bitwise equality of two prefixes, except that any two NaNs agree
    /// (Rust leaves a NaN result's payload unspecified).
    fn assert_same_prefix(got: &DepartureCost, want: &DepartureCost, what: &str) {
        assert_eq!(got.prefix.len(), want.prefix.len(), "{what}: length");
        for (b, (g, w)) in got.prefix.iter().zip(&want.prefix).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: entry {b}: {g:e} vs {w:e}"
            );
        }
    }

    #[test]
    fn strip_lanes_equal_per_pair_cost_prefixes() {
        // Every lane mask of a strip, both rules, 0–9 basic windows of
        // undefined, NaN, ±inf-clamped, ±0.0 and random correlations, filled
        // in one call and in two (the second resuming from each prefix's
        // total): each kept lane equals `from_correlations` of its own
        // column bit for bit, and a dropped lane is left alone.
        let mut rng = StdRng::seed_from_u64(41);
        let x = tsdata::TimeSeriesMatrix::from_rows(vec![vec![0.5; 12]]).unwrap();
        let layout = sketch::BasicWindowLayout::cover(0, 12, 12).unwrap();
        let store = sketch::SketchStore::build(&x, layout).unwrap();
        let special = [
            None,
            Some(f64::NAN),
            Some(1.0),
            Some(-1.0),
            Some(0.0),
            Some(-0.0),
        ];
        for rule in [EdgeRule::Positive, EdgeRule::Absolute] {
            for nb in 0..10 {
                let finish = StripCosts {
                    moments: store.basic_moments(0..1),
                    n_basic: nb,
                    rule,
                };
                let cs: Vec<[Option<f64>; 4]> = (0..nb)
                    .map(|_| {
                        std::array::from_fn(|_| match rng.gen_range(0..3) {
                            0 => special[rng.gen_range(0..special.len())],
                            _ => Some(rng.gen::<f64>() * 2.0 - 1.0),
                        })
                    })
                    .collect();
                for mask in 0..16u32 {
                    for split in [nb, nb / 2] {
                        let mut outs: [PairCosts; 4] = std::array::from_fn(|_| finish.empty());
                        let untouched = outs[0].memory_bytes();
                        for part in [&cs[..split], &cs[split..]] {
                            let mut lanes = vec![[f64::NAN; 4]; part.len()];
                            let mut slots: [Option<&mut PairCosts>; 4] = Default::default();
                            for (q, out) in outs.iter_mut().enumerate() {
                                if mask & (1 << q) != 0 {
                                    slots[q] = Some(out);
                                }
                            }
                            finish.fill(part, &mut lanes, slots);
                        }
                        for (q, got) in outs.iter().enumerate() {
                            let what = format!("{rule:?} nb={nb} mask={mask:04b} lane {q}");
                            let want = if mask & (1 << q) != 0 {
                                PairCosts::from_correlations(cs.iter().map(|c| c[q]), rule)
                            } else {
                                finish.empty()
                            };
                            assert_same_prefix(&got.upper, &want.upper, &what);
                            assert_eq!(got.lower.is_some(), want.lower.is_some(), "{what}");
                            if let (Some(g), Some(w)) = (&got.lower, &want.lower) {
                                assert_same_prefix(g, w, &what);
                            }
                            assert_eq!(got.memory_bytes(), untouched, "{what}: capacity");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn eq2_bound_is_monotone_in_k() {
        let mut rng = StdRng::seed_from_u64(3);
        let cs: Vec<Option<f64>> = (0..50)
            .map(|_| Some(rng.gen::<f64>() * 2.0 - 1.0))
            .collect();
        let dep = upper(cs.into_iter());
        let mut prev = f64::NEG_INFINITY;
        for k in 0..=10 {
            let b = eq2_upper_bound(0.3, 7, 2, 5, k, &dep);
            assert!(b >= prev - 1e-12, "bound decreased at k={k}");
            prev = b;
        }
    }

    #[test]
    fn max_jump_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..200 {
            let nb = rng.gen_range(10..60);
            let cs: Vec<Option<f64>> = (0..nb)
                .map(|_| Some(rng.gen::<f64>() * 2.0 - 1.0))
                .collect();
            let dep = upper(cs.into_iter());
            let ns = rng.gen_range(2..8usize);
            let step_bw = rng.gen_range(1..3usize);
            let bw0 = rng.gen_range(0..3usize);
            let k_cap = (nb - bw0) / step_bw;
            if k_cap == 0 {
                continue;
            }
            let k_max = rng.gen_range(1..=k_cap);
            let corr = rng.gen::<f64>() * 2.0 - 1.0;
            let beta = rng.gen::<f64>();
            let fast = max_jump(corr, beta, 0.0, ns, step_bw, bw0, k_max, &dep);
            // Linear reference.
            let mut slow = 0;
            for k in 1..=k_max {
                if eq2_upper_bound(corr, ns, step_bw, bw0, k, &dep) < beta {
                    slow = k;
                } else {
                    break;
                }
            }
            assert_eq!(fast, slow, "trial {trial}");
        }
    }

    #[test]
    fn max_jump_zero_cases() {
        let dep = upper((0..10).map(|_| Some(0.0)));
        // Already at/above threshold → bound(1) ≥ β → no jump.
        assert_eq!(max_jump(0.9, 0.8, 0.0, 4, 1, 0, 5, &dep), 0);
        // k_max = 0.
        assert_eq!(max_jump(0.0, 0.9, 0.0, 4, 1, 0, 0, &dep), 0);
        // Slack can suppress a jump that bare Eq. 2 would take.
        let with = max_jump(0.5, 0.8, 0.0, 4, 1, 0, 5, &dep);
        let without = max_jump(0.5, 0.8, 0.5, 4, 1, 0, 5, &dep);
        assert!(with > without);
    }

    #[test]
    fn eq2_is_exact_under_paper_assumption() {
        // When every basic window is z-normalised (mean 0, std 1), the
        // pooled correlation IS the average of the c_j, so the bound with
        // c_arriving = actual values would be tight; with c ≤ 1 it must
        // hold as a true upper bound.
        let mut rng = StdRng::seed_from_u64(17);
        let b = 16usize; // basic window width
        let nb = 40usize;
        // Build pairs of z-normalised basic windows with varying c.
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut cs = Vec::new();
        for _ in 0..nb {
            let raw_x: Vec<f64> = (0..b).map(|_| rng.gen::<f64>() - 0.5).collect();
            let raw_e: Vec<f64> = (0..b).map(|_| rng.gen::<f64>() - 0.5).collect();
            let rho: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let raw_y: Vec<f64> = raw_x
                .iter()
                .zip(&raw_e)
                .map(|(&a, &e)| rho * a + (1.0 - rho * rho).sqrt() * e)
                .collect();
            let zx = tsdata::stats::z_normalized(&raw_x).unwrap();
            let zy = tsdata::stats::z_normalized(&raw_y).unwrap();
            cs.push(Some(pearson(&zx, &zy).unwrap()));
            x.extend(zx);
            y.extend(zy);
        }
        let ns = 8usize;
        let dep = upper(cs.iter().copied());
        // Window starting at basic window w: correlation over ns windows.
        let win_corr =
            |w: usize| pearson(&x[w * b..(w + ns) * b], &y[w * b..(w + ns) * b]).unwrap();
        for w0 in 0..8 {
            let c0 = win_corr(w0);
            for k in 1..=6 {
                let bound = eq2_upper_bound(c0, ns, 1, w0, k, &dep);
                let actual = win_corr(w0 + k);
                assert!(
                    actual <= bound + 1e-9,
                    "w0={w0} k={k}: actual {actual} > bound {bound}"
                );
            }
        }
    }

    #[test]
    fn lower_cost_prefix() {
        let dep = lower(vec![Some(1.0), Some(-1.0), None].into_iter());
        assert_eq!(dep.cost(0, 1), 2.0);
        assert_eq!(dep.cost(1, 2), 0.0);
        assert_eq!(dep.cost(2, 3), 1.0);
    }

    #[test]
    fn max_jump_absolute_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..200 {
            let nb = rng.gen_range(10..40);
            let cs: Vec<Option<f64>> = (0..nb)
                .map(|_| Some(rng.gen::<f64>() * 2.0 - 1.0))
                .collect();
            let up = upper(cs.iter().copied());
            let low = lower(cs.iter().copied());
            let ns = rng.gen_range(2..6usize);
            let bw0 = rng.gen_range(0..3usize);
            let k_max = (nb - bw0).min(12);
            let corr = rng.gen::<f64>() * 2.0 - 1.0;
            let beta: f64 = rng.gen();
            let fast = max_jump_absolute(corr, beta, 0.0, ns, 1, bw0, k_max, &up, &low);
            let mut slow = 0;
            for k in 1..=k_max {
                let ub = eq2_upper_bound(corr, ns, 1, bw0, k, &up);
                let lb = eq2_lower_bound(corr, ns, 1, bw0, k, &low);
                if ub < beta && lb > -beta {
                    slow = k;
                } else {
                    break;
                }
            }
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn absolute_jump_never_exceeds_positive_jump() {
        // The absolute predicate adds a constraint, so its jumps are a
        // subset of the positive-rule jumps.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let cs: Vec<Option<f64>> = (0..30)
                .map(|_| Some(rng.gen::<f64>() * 2.0 - 1.0))
                .collect();
            let up = upper(cs.iter().copied());
            let low = lower(cs.iter().copied());
            let corr = rng.gen::<f64>() * 1.6 - 0.8;
            let beta = 0.85;
            let pos = max_jump(corr, beta, 0.0, 4, 1, 0, 20, &up);
            let abs = max_jump_absolute(corr, beta, 0.0, 4, 1, 0, 20, &up, &low);
            assert!(abs <= pos, "abs {abs} > pos {pos}");
        }
    }

    #[test]
    fn triangle_bounds_known_values() {
        // Orthogonal pivot tells nothing: bounds are [−1, 1].
        let (lo, hi) = triangle_reference([(0.0, 0.0)]);
        assert_eq!((lo, hi), (-1.0, 1.0));
        // Perfect pivot correlation pins the value.
        let (lo, hi) = triangle_reference([(1.0, 0.6)]);
        assert!((lo - 0.6).abs() < 1e-12 && (hi - 0.6).abs() < 1e-12);
        // Symmetric case.
        let (lo, hi) = triangle_reference([(0.9, 0.9)]);
        assert!((hi - (0.81 + 0.19)).abs() < 1e-12);
        assert!((lo - (0.81 - 0.19)).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The triangle bound always contains the true correlation — tested
        /// against actual data triples, since PSD-ness of correlation
        /// matrices is the underlying theorem.
        #[test]
        fn triangle_bound_contains_truth(seed in 0u64..2_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 64;
            let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
            let y: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
            let z: Vec<f64> = x
                .iter()
                .zip(&y)
                .map(|(&a, &b)| 0.4 * a + 0.3 * b + 0.3 * (rng.gen::<f64>() - 0.5))
                .collect();
            let cxy = pearson(&x, &y).unwrap();
            let cxz = pearson(&x, &z).unwrap();
            let cyz = pearson(&y, &z).unwrap();
            let (lo, hi) = triangle_reference([(cxz, cyz)]);
            prop_assert!(cxy >= lo - 1e-9 && cxy <= hi + 1e-9,
                "c_xy={cxy} outside [{lo}, {hi}]");
        }

        /// Bounds are always ordered and inside [−1, 1].
        #[test]
        fn triangle_bounds_are_sane(a in -1.0f64..=1.0, b in -1.0f64..=1.0) {
            let (lo, hi) = triangle_reference([(a, b)]);
            prop_assert!(lo <= hi + 1e-12);
            prop_assert!((-1.0..=1.0).contains(&lo));
            prop_assert!((-1.0..=1.0).contains(&hi));
        }
    }
}
