//! Synthetic USCRN-like climate workload.
//!
//! The paper's evaluation uses the NCEI/NOAA USCRN hourly dataset for 2020.
//! Those files cannot ship with this repository, so this generator produces
//! a drop-in substitute with the statistical structure Dangoron's pruning
//! exploits:
//!
//! * **seasonal + diurnal cycles** shared by all stations (hourly
//!   resolution, 8 760 points per year), with per-station amplitude/phase
//!   jitter — the source of the broadly positive correlation floor in
//!   climate data;
//! * **spatially correlated weather noise** built from `K` latent regional
//!   factors with Gaussian radial weights: nearby stations share factor
//!   loadings, so their correlation decays smoothly with distance — the
//!   structure that makes adjacent-window correlation drift slowly;
//! * **idiosyncratic sensor noise** controlling how many pairs sit below
//!   the query threshold.
//!
//! The latent-factor construction needs no Cholesky factorisation (the
//! `linalg` crate sits above this one), yet yields a valid correlation
//! structure by construction.

use crate::error::TsError;
use crate::rand_util::standard_normal;
use crate::series::TimeSeriesMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hours in a non-leap year — the length of a USCRN yearly hourly series.
pub const HOURS_PER_YEAR: usize = 8_760;

/// Configuration for the synthetic climate workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClimateConfig {
    /// Number of stations (series).
    pub n_stations: usize,
    /// Number of hourly samples.
    pub hours: usize,
    /// RNG seed — every run with the same config is identical.
    pub seed: u64,
    /// Number of latent regional weather factors.
    pub n_factors: usize,
    /// Radius of factor influence in unit-square distance; larger values
    /// mean broader, smoother spatial correlation.
    pub factor_radius: f64,
    /// AR(1) persistence of the regional factors (weather time scale).
    pub factor_phi: f64,
    /// Amplitude of the shared seasonal (yearly) cycle, °C.
    pub seasonal_amp: f64,
    /// Amplitude of the shared diurnal (daily) cycle, °C.
    pub diurnal_amp: f64,
    /// Standard deviation of the correlated weather noise, °C.
    pub weather_sigma: f64,
    /// Standard deviation of idiosyncratic sensor noise, °C.
    pub sensor_sigma: f64,
    /// Mean temperature level, °C.
    pub base_temp: f64,
    /// Time-zone span of the station domain in hours: a station's diurnal
    /// cycle is phase-shifted by its longitude (x coordinate) across this
    /// many hours, like a real continental network. 0 puts every station
    /// on one clock.
    pub timezone_span_hours: f64,
}

impl Default for ClimateConfig {
    fn default() -> Self {
        Self {
            n_stations: 128,
            hours: HOURS_PER_YEAR,
            seed: 2020,
            n_factors: 12,
            factor_radius: 0.25,
            factor_phi: 0.995,
            seasonal_amp: 12.0,
            diurnal_amp: 5.0,
            weather_sigma: 5.0,
            sensor_sigma: 1.2,
            base_temp: 11.0,
            timezone_span_hours: 4.0,
        }
    }
}

impl ClimateConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), TsError> {
        if self.n_stations == 0 || self.hours < 2 || self.n_factors == 0 {
            return Err(TsError::InvalidParameter(
                "n_stations, n_factors must be > 0 and hours >= 2".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.factor_phi.abs()) {
            return Err(TsError::InvalidParameter(format!(
                "factor_phi must have |phi| < 1, got {}",
                self.factor_phi
            )));
        }
        if self.factor_radius <= 0.0 {
            return Err(TsError::InvalidParameter(
                "factor_radius must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// A generated station: position in the unit square plus its series index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Station {
    /// Row index in the generated matrix.
    pub index: usize,
    /// Horizontal coordinate in `[0, 1)`.
    pub x: f64,
    /// Vertical coordinate in `[0, 1)`.
    pub y: f64,
}

/// A generated climate dataset: the matrix plus station geometry.
#[derive(Debug, Clone)]
pub struct ClimateDataset {
    /// `n_stations × hours` temperature matrix.
    pub data: TimeSeriesMatrix,
    /// Station positions (aligned with matrix rows).
    pub stations: Vec<Station>,
}

impl ClimateDataset {
    /// Euclidean distance between two stations.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        let a = &self.stations[i];
        let b = &self.stations[j];
        ((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt()
    }
}

/// Generates the synthetic climate dataset.
pub fn generate(config: &ClimateConfig) -> Result<ClimateDataset, TsError> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.n_stations;
    let len = config.hours;
    let k = config.n_factors;

    // Station and factor-anchor positions in the unit square.
    let stations: Vec<Station> = (0..n)
        .map(|index| Station {
            index,
            x: rng.gen::<f64>(),
            y: rng.gen::<f64>(),
        })
        .collect();
    let anchors: Vec<(f64, f64)> = (0..k)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();

    // Row-normalised Gaussian radial loadings: w_ik ∝ exp(−d²/(2ρ²)),
    // Σ_k w_ik² = 1 so each station's correlated part has unit variance.
    let mut loadings = vec![0.0; n * k];
    for (i, s) in stations.iter().enumerate() {
        for (f, &(ax, ay)) in anchors.iter().enumerate() {
            let d2 = (s.x - ax).powi(2) + (s.y - ay).powi(2);
            let w = (-d2 / (2.0 * config.factor_radius * config.factor_radius)).exp();
            loadings[i * k + f] = w;
        }
        let norm2 = kernel::sum_squares(&loadings[i * k..(i + 1) * k]);
        let inv = if norm2 > 0.0 { 1.0 / norm2.sqrt() } else { 0.0 };
        for f in 0..k {
            loadings[i * k + f] *= inv;
        }
    }

    // Regional factors: stationary AR(1) with unit marginal variance.
    let innov_sigma = (1.0 - config.factor_phi * config.factor_phi).sqrt();
    let mut factors = vec![0.0; k * len];
    for f in 0..k {
        let mut x = standard_normal(&mut rng); // stationary start
        for t in 0..len {
            x = config.factor_phi * x + innov_sigma * standard_normal(&mut rng);
            factors[f * len + t] = x;
        }
    }

    // Per-station cycle jitter.
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let seasonal_amp = config.seasonal_amp * (1.0 + 0.1 * standard_normal(&mut rng));
        let diurnal_amp = config.diurnal_amp * (1.0 + 0.1 * standard_normal(&mut rng));
        let seasonal_phase = 0.05 * standard_normal(&mut rng);
        // Longitude-driven solar-time offset plus small local jitter.
        let tz_shift =
            std::f64::consts::TAU * config.timezone_span_hours / 24.0 * (stations[i].x - 0.5);
        let diurnal_phase = tz_shift + 0.05 * standard_normal(&mut rng);
        let level = config.base_temp + 2.0 * standard_normal(&mut rng);

        let mut row = Vec::with_capacity(len);
        let mut fcol = vec![0.0; k];
        for t in 0..len {
            let year_angle =
                std::f64::consts::TAU * t as f64 / HOURS_PER_YEAR as f64 + seasonal_phase;
            let day_angle = std::f64::consts::TAU * (t % 24) as f64 / 24.0 + diurnal_phase;
            // Seasonal minimum in "January" (t = 0) like the northern-
            // hemisphere USCRN network.
            let cycles = -seasonal_amp * year_angle.cos() - diurnal_amp * day_angle.cos();
            for (f, slot) in fcol.iter_mut().enumerate() {
                *slot = factors[f * len + t];
            }
            let weather = kernel::dot(&loadings[i * k..(i + 1) * k], &fcol);
            let noise = config.sensor_sigma * standard_normal(&mut rng);
            row.push(level + cycles + config.weather_sigma * weather + noise);
        }
        rows.push(row);
    }

    Ok(ClimateDataset {
        data: TimeSeriesMatrix::from_rows(rows)?,
        stations,
    })
}

/// Convenience: generate with defaults except size, for benches/tests.
pub fn generate_sized(
    n_stations: usize,
    hours: usize,
    seed: u64,
) -> Result<ClimateDataset, TsError> {
    generate(&ClimateConfig {
        n_stations,
        hours,
        seed,
        ..ClimateConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    fn small() -> ClimateDataset {
        generate(&ClimateConfig {
            n_stations: 24,
            hours: 24 * 90, // one quarter
            seed: 7,
            ..ClimateConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn shape_and_determinism() {
        let a = small();
        let b = small();
        assert_eq!(a.data.n_series(), 24);
        assert_eq!(a.data.len(), 24 * 90);
        assert_eq!(a.data, b.data);
        assert_eq!(a.stations.len(), 24);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let c = ClimateConfig {
            n_stations: 0,
            ..Default::default()
        };
        assert!(generate(&c).is_err());
        let c = ClimateConfig {
            factor_phi: 1.0,
            ..Default::default()
        };
        assert!(generate(&c).is_err());
        let c = ClimateConfig {
            factor_radius: 0.0,
            ..Default::default()
        };
        assert!(generate(&c).is_err());
    }

    #[test]
    fn temperatures_are_physical() {
        let d = small();
        for i in 0..d.data.n_series() {
            for &v in d.data.row(i) {
                assert!((-60.0..=70.0).contains(&v), "unphysical temperature {v}");
            }
        }
    }

    #[test]
    fn correlation_decays_with_distance() {
        // With the shared cycles removed (z-normalised anomalies), nearby
        // stations should correlate more than distant ones on average.
        let d = generate(&ClimateConfig {
            n_stations: 40,
            hours: 24 * 120,
            seed: 13,
            seasonal_amp: 0.0,
            diurnal_amp: 0.0,
            sensor_sigma: 0.5,
            ..ClimateConfig::default()
        })
        .unwrap();
        let mut close = Vec::new();
        let mut far = Vec::new();
        for i in 0..d.data.n_series() {
            for j in (i + 1)..d.data.n_series() {
                let r = stats::pearson(d.data.row(i), d.data.row(j)).unwrap();
                let dist = d.distance(i, j);
                if dist < 0.15 {
                    close.push(r);
                } else if dist > 0.7 {
                    far.push(r);
                }
            }
        }
        assert!(!close.is_empty() && !far.is_empty());
        let mc = close.iter().sum::<f64>() / close.len() as f64;
        let mf = far.iter().sum::<f64>() / far.len() as f64;
        assert!(
            mc > mf + 0.2,
            "close mean {mc} should exceed far mean {mf} by a margin"
        );
    }

    #[test]
    fn shared_cycles_induce_positive_correlation_floor() {
        let d = small();
        let mut rs = Vec::new();
        for i in 0..8 {
            for j in (i + 1)..8 {
                rs.push(stats::pearson(d.data.row(i), d.data.row(j)).unwrap());
            }
        }
        let mean_r = rs.iter().sum::<f64>() / rs.len() as f64;
        assert!(
            mean_r > 0.4,
            "seasonal cycle should dominate: mean r = {mean_r}"
        );
    }

    #[test]
    fn diurnal_cycle_visible_in_autocorrelation() {
        let d = small();
        let x = d.data.row(0);
        // Remove the slow seasonal trend by differencing at 24h lag; the
        // series should still correlate with itself a day apart strongly.
        let r24 = stats::pearson(&x[..x.len() - 24], &x[24..]).unwrap();
        let r12 = stats::pearson(&x[..x.len() - 12], &x[12..]).unwrap();
        assert!(r24 > r12, "24h autocorrelation {r24} should beat 12h {r12}");
    }
}
