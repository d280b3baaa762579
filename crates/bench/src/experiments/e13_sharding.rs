//! E13 — the distributed shard tier: shard-count invariance and balance.
//!
//! Partitions the E1 climate workload's pair space into k ∈ {1, 2, 4, 8}
//! shards, runs every shard through the worker execution path
//! (`prepare_shard` + `run_range`), merges, and checks the merged
//! matrices bitwise against the unsharded engine — the determinism
//! contract the process tier (CI `shard-smoke`) relies on. Shards run
//! in-process here so the experiment works in any build context; the
//! real `dangoron-shard` process tier is timed by the `dist-shards`
//! workload of `benchmark/`.

use crate::Scale;
use dangoron::{BoundMode, DangoronConfig};
use dist::coord::{run_in_process, run_single_process};
use dist::merge::windows_bit_identical;
use dist::proto::WorkerMode;
use dist::ShardPlan;
use eval::workloads;
use std::fmt::Write as _;

/// Runs the experiment and renders its report table.
pub fn run(scale: Scale) -> String {
    let (n, hours) = match scale {
        Scale::Quick => (24, 24 * 60),
        Scale::Full => (96, 24 * 365),
    };
    let beta = 0.9;
    let w = workloads::climate(n, hours, beta, 2020).expect("workload");
    let cfg = DangoronConfig {
        basic_window: w.basic_window,
        bound: BoundMode::PaperJump { slack: 0.0 },
        ..Default::default()
    };

    let mut out = String::new();
    let _ = writeln!(out, "E13 · Distributed shard tier ({})", w.name);
    let _ = writeln!(
        out,
        "  pair space: {} ranks over {} series",
        dist::ShardPlan::balanced(n, 1).n_pairs(),
        n
    );
    let single =
        run_single_process(WorkerMode::Batch, &cfg, &w.data, w.query).expect("single-process run");
    let single_edges: usize = single.matrices.iter().map(|m| m.n_edges()).sum();
    let _ = writeln!(
        out,
        "  single-process: {} windows, {} edges, skip {:.3}",
        single.matrices.len(),
        single_edges,
        single.stats.skip_fraction()
    );
    let _ = writeln!(
        out,
        "  {:>6} | {:>11} | {:>11} | {:>10} | {:>9} | identical",
        "shards", "max pairs", "min pairs", "slowest ms", "edges"
    );
    for k in [1usize, 2, 4, 8] {
        let plan = ShardPlan::balanced(n, k);
        let (max_pairs, min_pairs) = plan.balance();
        let sharded =
            run_in_process(k, WorkerMode::Batch, &cfg, &w.data, w.query).expect("sharded run");
        let identical = windows_bit_identical(&sharded.matrices, &single.matrices)
            && sharded.stats == single.stats;
        let slowest_ms = sharded
            .shards
            .iter()
            .map(|s| (s.prepare_s + s.query_s) * 1e3)
            .fold(0.0, f64::max);
        let edges: usize = sharded.matrices.iter().map(|m| m.n_edges()).sum();
        let _ = writeln!(
            out,
            "  {:>6} | {:>11} | {:>11} | {:>10.2} | {:>9} | {}",
            k,
            max_pairs,
            min_pairs,
            slowest_ms,
            edges,
            if identical { "yes" } else { "NO" }
        );
        assert!(identical, "shard count {k} broke determinism");
    }
    let _ = writeln!(
        out,
        "  merged result bit-identical to the single-process engine for every shard count"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_runs_and_confirms_invariance() {
        let report = run(Scale::Quick);
        assert!(report.contains("E13"));
        assert!(report.contains("identical"));
        assert!(!report.contains("| NO"));
    }
}
