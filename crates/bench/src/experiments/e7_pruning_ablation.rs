//! E7 — ablation of the two pruning mechanisms (§3's "another feature …
//! horizontal computation pruning").
//!
//! Three engine variants factor the design: exhaustive, jump, and
//! exhaustive with the triangle bound; plus jump over the on-demand
//! storage mode, where the pair-level triangle prefilter avoids touching
//! raw series entirely. A jump walk over resident sketches reads no pivot
//! table (it evaluates every window it visits and jumps from the exact
//! value), so jump+triangle there would be the jump row again.

use crate::common::time_dangoron;
use crate::Scale;
use dangoron::config::{HorizontalConfig, PivotStrategy};
use dangoron::{BoundMode, Dangoron, DangoronConfig, PairStorage};
use eval::report::{dur, Table};
use eval::workloads;

/// Runs E7 and renders its table.
pub fn run(scale: Scale) -> String {
    let (n, hours) = match scale {
        Scale::Quick => (16, 24 * 90),
        Scale::Full => (64, 24 * 365),
    };
    let beta = 0.9;
    let w = workloads::climate(n, hours, beta, 2020).expect("workload");
    let horizontal = Some(HorizontalConfig {
        n_pivots: 2,
        strategy: PivotStrategy::Evenly,
    });

    let variants: Vec<(&str, DangoronConfig)> = vec![
        (
            "exhaustive",
            DangoronConfig {
                basic_window: w.basic_window,
                bound: BoundMode::Exhaustive,
                ..Default::default()
            },
        ),
        (
            "jump",
            DangoronConfig {
                basic_window: w.basic_window,
                bound: BoundMode::PaperJump { slack: 0.0 },
                ..Default::default()
            },
        ),
        (
            "exhaustive+triangle",
            DangoronConfig {
                basic_window: w.basic_window,
                bound: BoundMode::Exhaustive,
                horizontal: horizontal.clone(),
                ..Default::default()
            },
        ),
        (
            "ondemand+triangle",
            DangoronConfig {
                basic_window: w.basic_window,
                bound: BoundMode::PaperJump { slack: 0.0 },
                storage: PairStorage::OnDemand,
                horizontal,
                ..Default::default()
            },
        ),
    ];

    let mut table = Table::new(
        "E7: pruning ablation (β=0.9)",
        &[
            "variant",
            "query",
            "evaluated",
            "jumped",
            "tri-pruned",
            "pairs-skipped",
            "edges",
        ],
    );
    for (name, config) in variants {
        let engine = Dangoron::new(config).expect("valid config");
        let (t, r) = time_dangoron(&w, &engine);
        let s = &r.stats;
        table.row(vec![
            name.to_string(),
            dur(t.median),
            s.evaluated.to_string(),
            s.skipped_by_jump.to_string(),
            s.pruned_by_triangle.to_string(),
            s.pairs_skipped_entirely.to_string(),
            s.edges.to_string(),
        ]);
    }
    let mut out = table.render();
    out.push_str(
        "\nExpected shape: each pruning mechanism reduces `evaluated`;\n\
         exhaustive+triangle keeps edge counts identical to exhaustive and\n\
         ondemand+triangle identical to jump (the triangle bound is sound,\n\
         and the prefilter skips only pairs with no edge in any window);\n\
         jump variants may drop a few edges (Eq. 2 is assumption-based).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_shows_monotone_work_reduction() {
        let report = run(Scale::Quick);
        let evaluated = |name: &str| -> u64 {
            report
                .lines()
                .find(|l| l.starts_with(name) && !l.contains("+") || l.starts_with(name))
                .unwrap_or_else(|| panic!("row {name}"))
                .split_whitespace()
                .nth(2)
                .unwrap()
                .parse()
                .unwrap()
        };
        let exhaustive = evaluated("exhaustive ");
        let jump = evaluated("jump ");
        assert!(jump < exhaustive, "jumping must reduce evaluations");
        // Edge counts: exhaustive and exhaustive+triangle agree exactly.
        let edges = |name: &str| -> u64 {
            report
                .lines()
                .find(|l| l.trim_start().starts_with(name))
                .unwrap()
                .split_whitespace()
                .last()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert_eq!(edges("exhaustive "), edges("exhaustive+triangle"));
        assert_eq!(edges("jump "), edges("ondemand+triangle"));
    }
}
