//! Engine configuration.

use serde::{Deserialize, Serialize};
use sketch::output::EdgeRule;
use tsdata::TsError;

/// How windows are skipped across time (vertical pruning).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BoundMode {
    /// The paper's Eq. 2 jumping: sound under the paper's
    /// sample-distribution assumption, ≥90 % accuracy in practice, fastest.
    /// `slack` is added to the threshold margin: larger slack ⇒ more
    /// conservative jumps ⇒ higher recall, less skipping (`0.0` is the
    /// literal Eq. 2).
    PaperJump {
        /// Extra margin subtracted from the bound before comparing to `β`.
        slack: f64,
    },
    /// No jumping: every window of every pair is evaluated exactly via the
    /// O(1) sketch combine. Exact results; the ablation baseline for the
    /// jump machinery.
    Exhaustive,
}

impl Default for BoundMode {
    fn default() -> Self {
        BoundMode::PaperJump { slack: 0.0 }
    }
}

/// Whether per-pair cross-product sketches are materialised up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PairStorage {
    /// Build all `N·(N−1)/2` pair sketches during `prepare` (the TSUBASA
    /// storage model): O(N²·n_b) memory, O(1) query-time evaluation.
    /// "Pure query time" in the paper's sense excludes this build.
    #[default]
    Precomputed,
    /// Build each pair's sketch lazily inside the query (O(L) per visited
    /// pair): constant memory, the mode that scales to large `N`, and the
    /// mode where horizontal pruning pays (a pruned pair never touches the
    /// raw series).
    OnDemand,
}

/// Pivot selection for horizontal (triangle-inequality) pruning.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PivotStrategy {
    /// Evenly spaced series indices `p·N/k` — the default, and cheap.
    /// Not diverse when the series index has a period that divides the
    /// stride `N/k`: then every pivot lands in the same residue class.
    /// With `tsdata::generators::clustered_matrix` (series `i` in cluster
    /// `i mod 4`) at `N = 256`, any `k ∈ {2, 4, 8}` puts every pivot in
    /// cluster 0. ROADMAP's spread-selection item plans a max-min
    /// replacement.
    Evenly,
    /// Pseudorandom choice from the given seed.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Caller-provided pivot indices.
    Explicit(Vec<usize>),
}

/// Horizontal-pruning configuration.
///
/// Accepted by the batch engine and by streaming sessions alike, and acts
/// where a walk reads the pivot table:
///
/// * [`BoundMode::Exhaustive`] walks, batch (table built in parallel
///   during `prepare`) and streaming (table grown incrementally per
///   append), which settle windows by their triangle intervals;
/// * the wholesale pair prefilter of batch [`PairStorage::OnDemand`]
///   walks in either bound mode, which skips pairs no window can make an
///   edge of.
///
/// It is inert under [`BoundMode::PaperJump`] with resident pair sketches
/// — batch [`PairStorage::Precomputed`] and every streaming session —
/// where no table is built: that walk evaluates every window it visits
/// and jumps from the exact value. The triangle bound is exact, so
/// enabling it never changes edges in any mode — only how many cells are
/// evaluated exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HorizontalConfig {
    /// Number of pivot series.
    pub n_pivots: usize,
    /// How pivots are picked.
    pub strategy: PivotStrategy,
}

impl Default for HorizontalConfig {
    fn default() -> Self {
        Self {
            n_pivots: 2,
            strategy: PivotStrategy::Evenly,
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DangoronConfig {
    /// Basic-window width `B`; must divide the query's `window` and `step`.
    pub basic_window: usize,
    /// Vertical pruning mode.
    pub bound: BoundMode,
    /// Pair-sketch storage model.
    pub storage: PairStorage,
    /// Horizontal pruning; `None` disables it.
    pub horizontal: Option<HorizontalConfig>,
    /// Worker threads (1 = sequential).
    pub threads: usize,
    /// Which correlations become edges: the paper's `c ≥ β`
    /// ([`EdgeRule::Positive`], default) or the teleconnection variant
    /// `|c| ≥ β` ([`EdgeRule::Absolute`]).
    #[serde(default)]
    pub edge_rule: EdgeRule,
}

impl Default for DangoronConfig {
    fn default() -> Self {
        Self {
            basic_window: 24,
            bound: BoundMode::default(),
            storage: PairStorage::default(),
            horizontal: None,
            threads: 1,
            edge_rule: EdgeRule::Positive,
        }
    }
}

impl DangoronConfig {
    /// Validates parameter sanity (query-dependent checks happen when a
    /// query is prepared, a session opened or a shared query answered).
    pub fn validate(&self) -> Result<(), TsError> {
        if self.basic_window < 2 {
            return Err(TsError::InvalidParameter(format!(
                "basic_window must be at least 2, got {}",
                self.basic_window
            )));
        }
        if self.threads == 0 {
            return Err(TsError::InvalidParameter("threads must be positive".into()));
        }
        if let BoundMode::PaperJump { slack } = self.bound {
            if !(0.0..=2.0).contains(&slack) || !slack.is_finite() {
                return Err(TsError::InvalidParameter(format!(
                    "slack must be in [0, 2], got {slack}"
                )));
            }
        }
        if let Some(h) = &self.horizontal {
            if h.n_pivots == 0 {
                return Err(TsError::InvalidParameter(
                    "horizontal pruning needs at least one pivot".into(),
                ));
            }
            if let PivotStrategy::Explicit(p) = &h.strategy {
                if p.is_empty() {
                    return Err(TsError::InvalidParameter(
                        "explicit pivot list is empty".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks a walk's window geometry and threshold against this
    /// configuration: `window ≥ 2` and `step > 0`, both multiples of the
    /// basic window; `threshold ∈ [−1, 1]`, and non-negative under
    /// [`EdgeRule::Absolute`]. The one check behind batch preparation,
    /// streaming session open and shared queries.
    pub(crate) fn check_geometry(
        &self,
        window: usize,
        step: usize,
        threshold: f64,
    ) -> Result<(), TsError> {
        let b = self.basic_window;
        if window < 2 || !window.is_multiple_of(b) {
            return Err(TsError::InvalidParameter(format!(
                "window {window} must be a positive multiple of basic window {b}"
            )));
        }
        if step == 0 || !step.is_multiple_of(b) {
            return Err(TsError::InvalidParameter(format!(
                "step {step} must be a positive multiple of basic window {b}"
            )));
        }
        if !(-1.0..=1.0).contains(&threshold) {
            return Err(TsError::InvalidParameter(format!(
                "threshold must be in [-1, 1], got {threshold}"
            )));
        }
        if self.edge_rule == EdgeRule::Absolute && threshold < 0.0 {
            return Err(TsError::InvalidParameter(format!(
                "absolute edge rule requires a non-negative threshold, got {threshold}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(DangoronConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_degenerate_parameters() {
        let c = DangoronConfig {
            basic_window: 1,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = DangoronConfig {
            threads: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let mut c = DangoronConfig {
            bound: BoundMode::PaperJump { slack: -0.1 },
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c.bound = BoundMode::PaperJump { slack: f64::NAN };
        assert!(c.validate().is_err());

        let c = DangoronConfig {
            horizontal: Some(HorizontalConfig {
                n_pivots: 0,
                strategy: PivotStrategy::Evenly,
            }),
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = DangoronConfig {
            horizontal: Some(HorizontalConfig {
                n_pivots: 1,
                strategy: PivotStrategy::Explicit(vec![]),
            }),
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn exhaustive_mode_is_valid() {
        let c = DangoronConfig {
            bound: BoundMode::Exhaustive,
            ..Default::default()
        };
        assert!(c.validate().is_ok());
    }
}
