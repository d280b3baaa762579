//! Standard workloads shared by the harness binary and the Criterion
//! benches — one definition so every experiment runs the same data.

use baselines::SlidingEngine;
use sketch::{SlidingQuery, ThresholdedMatrix};
use tomborg::suite::SuiteCase;
use tsdata::climate::{generate_sized, ClimateDataset};
use tsdata::{TimeSeriesMatrix, TsError};

/// A named dataset + query + engine geometry.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Report name.
    pub name: String,
    /// The data matrix.
    pub data: TimeSeriesMatrix,
    /// The sliding query.
    pub query: SlidingQuery,
    /// Basic-window width every sketch engine should use.
    pub basic_window: usize,
}

/// The paper's NCEI-style workload: `n` stations, `hours` hourly samples,
/// 30-day windows (the climate-network literature's standard scale)
/// sliding one day, 24 h basic windows — so `n_s = 30` basic windows per
/// query window.
///
/// This is the E1 headline configuration (`bench`'s `e1_query_time`).
pub fn climate(n: usize, hours: usize, beta: f64, seed: u64) -> Result<Workload, TsError> {
    let ds: ClimateDataset = generate_sized(n, hours, seed)?;
    let query = SlidingQuery {
        start: 0,
        end: hours,
        window: 720, // 30 days
        step: 24,    // one day
        threshold: beta,
    };
    query.validate(hours)?;
    Ok(Workload {
        name: format!("climate(n={n},h={hours},β={beta})"),
        data: ds.data,
        query,
        basic_window: 24,
    })
}

/// A smaller, fast climate workload for tests and smoke runs.
pub fn climate_quick(n: usize, beta: f64) -> Result<Workload, TsError> {
    climate(n, 24 * 60, beta, 2020) // ~2 months of hours
}

/// Wraps a Tomborg suite case into a workload with a window geometry that
/// divides evenly into the generated length.
pub fn from_tomborg(case: &SuiteCase, beta: f64) -> Result<Workload, TsError> {
    let d = case.generate()?;
    let len = d.data.len();
    let window = (len / 8).max(32);
    let step = window / 4;
    // Align everything on a basic window that divides both.
    let basic = step.clamp(2, 16);
    let window = window - window % basic;
    let step = step - step % basic;
    let query = SlidingQuery {
        start: 0,
        end: len,
        window,
        step,
        threshold: beta,
    };
    query.validate(len)?;
    Ok(Workload {
        name: format!("tomborg[{}]", case.name),
        data: d.data,
        query,
        basic_window: basic,
    })
}

/// Exact ground truth for a workload, computed with the naive engine.
pub fn ground_truth(w: &Workload) -> Result<Vec<ThresholdedMatrix>, TsError> {
    baselines::naive::Naive.execute(&w.data, w.query)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn climate_workload_geometry() {
        let w = climate(8, 24 * 30, 0.9, 7).unwrap();
        assert_eq!(w.data.n_series(), 8);
        assert_eq!(w.data.len(), 720);
        assert_eq!(w.query.window % w.basic_window, 0);
        assert_eq!(w.query.step % w.basic_window, 0);
        assert!(w.query.n_windows() > 0);
    }

    #[test]
    fn climate_quick_is_valid() {
        let w = climate_quick(4, 0.8).unwrap();
        assert!(w.query.n_windows() > 10);
    }

    #[test]
    fn tomborg_workload_aligns() {
        let case = &tomborg::suite::smoke_suite(5, 512, 3)[0];
        let w = from_tomborg(case, 0.7).unwrap();
        assert_eq!(w.query.window % w.basic_window, 0);
        assert_eq!(w.query.step % w.basic_window, 0);
        assert!(w.query.n_windows() >= 4);
        assert_eq!(w.data.n_series(), 5);
    }

    #[test]
    fn ground_truth_has_one_matrix_per_window() {
        let w = climate_quick(4, 0.9).unwrap();
        let t = ground_truth(&w).unwrap();
        assert_eq!(t.len(), w.query.n_windows());
    }
}
