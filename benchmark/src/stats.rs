//! Timing conversions and order statistics over timing samples.

use std::time::Duration;

/// `d` in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, 0 when `den` is 0.
pub fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Found true edges over true edges; 1 when there is no true edge.
pub fn recall(hits: usize, truths: usize) -> f64 {
    if truths == 0 {
        1.0
    } else {
        hits as f64 / truths as f64
    }
}

/// Quantile `p ∈ [0, 1]` of `values` by linear interpolation between the
/// closest ranks; `None` when `values` is empty.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The highest of p99/p95/p90/p75 that has at least ten samples beyond it,
/// as `(label, value)`.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 99u32), ("p95", 95), ("p90", 90), ("p75", 75)]
        .into_iter()
        .find(|&(_, pct)| values.len() * (100 - pct) as usize >= 1000)
        .and_then(|(label, pct)| quantile(values, f64::from(pct) / 100.0).map(|v| (label, v)))
}

/// The largest value (0 when empty).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some("p90"));
        assert_eq!(tail(&v[..30]), None);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some("p99"));
    }
}
