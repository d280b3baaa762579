//! The experiment modules, one per paper artefact; each module's doc
//! names the table or claim it regenerates.

pub mod e10_network;
pub mod e12_kernels;
pub mod e13_sharding;
pub mod e1_query_time;
pub mod e2_accuracy;
pub mod e3_jump_structure;
pub mod e4_threshold_sweep;
pub mod e5_window_geometry;
pub mod e6_tomborg_robustness;
pub mod e7_pruning_ablation;
pub mod e8_scaling;
pub mod e9_basic_window;

use crate::Scale;

/// Dispatch an experiment by id (`"e1"` … `"e13"`, with no `"e11"`),
/// returning its report.
pub fn run_experiment(id: &str, scale: Scale) -> Option<String> {
    Some(match id {
        "e1" => e1_query_time::run(scale),
        "e2" => e2_accuracy::run(scale),
        "e3" => e3_jump_structure::run(scale),
        "e4" => e4_threshold_sweep::run(scale),
        "e5" => e5_window_geometry::run(scale),
        "e6" => e6_tomborg_robustness::run(scale),
        "e7" => e7_pruning_ablation::run(scale),
        "e8" => e8_scaling::run(scale),
        "e9" => e9_basic_window::run(scale),
        "e10" => e10_network::run(scale),
        "e12" => e12_kernels::run(scale),
        "e13" => e13_sharding::run(scale),
        _ => return None,
    })
}

/// All experiment ids in order.
pub const ALL: [&str; 12] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e12", "e13",
];
