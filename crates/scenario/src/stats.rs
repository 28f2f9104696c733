//! Multi-seed statistics: [`SummaryStats`] (mean / stddev / 95% confidence
//! interval) and the [`ReplicatedSummary`] a [`crate::Sweep::run_replicated`] call
//! produces for each grid cell.

use std::fmt;

use crate::summary::RunSummary;

/// Mean, sample standard deviation and Student-t 95% confidence interval of a
/// metric across replicated runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SummaryStats {
    /// Number of samples (seeds) the statistic aggregates.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; 0 for a single sample).
    pub stddev: f64,
    /// Half-width of the 95% confidence interval on the mean
    /// (`t₀.₉₇₅,ₙ₋₁ · stddev / √n`; 0 for a single sample). Sweeps replicate over a
    /// handful of seeds, where the normal 1.96 would claim intervals roughly half
    /// as wide as the data supports — see [`t_critical_975`].
    pub ci95: f64,
}

/// Two-sided 95% (upper-tail 97.5%) Student-t critical values for 1–30 degrees of
/// freedom — the standard table, exact to the three decimals it is quoted at.
const T_975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The 97.5th-percentile Student-t critical value for `df` degrees of freedom —
/// the multiplier for a two-sided 95% confidence interval on a mean estimated
/// from `df + 1` samples.
///
/// Degrees of freedom 1–30 come from the standard table; beyond that the
/// Cornish–Fisher expansion around the normal quantile is accurate to ~1e-4 and
/// decreases monotonically towards 1.96. `df = 0` (a single sample) has no
/// finite interval; this returns infinity so callers notice rather than getting
/// a silently-too-narrow bound (SummaryStats itself reports 0 width for n < 2,
/// as before).
pub fn t_critical_975(df: usize) -> f64 {
    match df {
        0 => f64::INFINITY,
        1..=30 => T_975[df - 1],
        _ => {
            let z = 1.959_963_985;
            let (z3, d) = (z * z * z, df as f64);
            let z5 = z3 * z * z;
            z + (z3 + z) / (4.0 * d) + (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * d * d)
        }
    }
}

impl SummaryStats {
    /// Aggregate `samples`; `None` when the slice is empty.
    pub fn from_samples(samples: &[f64]) -> Option<SummaryStats> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let stddev = if n < 2 {
            0.0
        } else {
            let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
            var.sqrt()
        };
        let ci95 = if n < 2 {
            0.0
        } else {
            t_critical_975(n - 1) * stddev / (n as f64).sqrt()
        };
        Some(SummaryStats {
            n,
            mean,
            stddev,
            ci95,
        })
    }
}

/// Displays as `mean ± ci95` (the conventional table form).
impl fmt::Display for SummaryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ± {:.3}", self.mean, self.ci95)
    }
}

/// One grid cell of a replicated sweep: the same scenario run under
/// `runs.len()` consecutive seeds, with statistics over any per-run metric.
#[derive(Clone, Debug)]
pub struct ReplicatedSummary {
    /// The cell's scenario name (shared by all replicates).
    pub scenario: String,
    /// Protocol spec string of the cell.
    pub protocol: String,
    /// Display label of the resolved installer.
    pub protocol_label: String,
    /// The seeds the replicates ran with, in run order.
    pub seeds: Vec<u64>,
    /// The individual runs, in seed order.
    pub runs: Vec<RunSummary>,
}

impl ReplicatedSummary {
    /// Group `runs` (the flattened replicate runs of one cell) into a summary.
    /// Panics on an empty slice — `run_replicated` always produces ≥ 1 run per cell.
    pub fn new(runs: Vec<RunSummary>) -> Self {
        let first = runs
            .first()
            .expect("a replicated cell has at least one run");
        ReplicatedSummary {
            scenario: first.scenario.clone(),
            protocol: first.protocol.clone(),
            protocol_label: first.protocol_label.clone(),
            seeds: runs.iter().map(|r| r.seed).collect(),
            runs,
        }
    }

    /// Statistics of an arbitrary per-run metric; runs where the metric is `None`
    /// are skipped, and `None` is returned when no run produced a value.
    pub fn stats_of<F>(&self, metric: F) -> Option<SummaryStats>
    where
        F: Fn(&RunSummary) -> Option<f64>,
    {
        let samples: Vec<f64> = self.runs.iter().filter_map(&metric).collect();
        SummaryStats::from_samples(&samples)
    }

    /// Mean-FCT statistics across seeds, in seconds.
    pub fn mean_fct_stats(&self) -> Option<SummaryStats> {
        self.stats_of(|r| r.mean_fct_secs)
    }

    /// Application-throughput statistics across seeds.
    pub fn application_throughput_stats(&self) -> Option<SummaryStats> {
        self.stats_of(|r| r.application_throughput())
    }

    /// Completed-flow-count statistics across seeds.
    pub fn completed_stats(&self) -> Option<SummaryStats> {
        self.stats_of(|r| Some(r.completed as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_samples() {
        assert!(SummaryStats::from_samples(&[]).is_none());
        let one = SummaryStats::from_samples(&[4.0]).unwrap();
        assert_eq!((one.n, one.mean, one.stddev, one.ci95), (1, 4.0, 0.0, 0.0));

        let s = SummaryStats::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        // Sample variance of 1..4 is 5/3; 4 samples → t with 3 degrees of freedom.
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((s.ci95 - 3.182 * s.stddev / 2.0).abs() < 1e-12);
        assert_eq!(s.to_string(), format!("{:.3} ± {:.3}", s.mean, s.ci95));
    }

    #[test]
    fn small_seed_counts_use_the_t_table_not_the_normal_1_96() {
        // Unit-stddev samples make the half-width exactly t / √n. These pin the
        // K=3 (df=2) and K=30 (df=29) interval widths to the textbook t values —
        // the normal 1.96 would understate the K=3 interval by more than 2×.
        let k3 = SummaryStats::from_samples(&[-1.0, 0.0, 1.0]).unwrap();
        assert!((k3.stddev - 1.0).abs() < 1e-12);
        assert!(
            (k3.ci95 - 4.303 / 3.0f64.sqrt()).abs() < 1e-12,
            "{}",
            k3.ci95
        );

        // 15 × {-1, 1}: mean 0, sample stddev √(30/29).
        let samples: Vec<f64> = (0..30)
            .map(|i| if i % 2 == 0 { -1.0 } else { 1.0 })
            .collect();
        let k30 = SummaryStats::from_samples(&samples).unwrap();
        let expect = 2.045 * (30.0f64 / 29.0).sqrt() / 30.0f64.sqrt();
        assert!((k30.ci95 - expect).abs() < 1e-12, "{}", k30.ci95);
    }

    #[test]
    fn t_critical_values_are_sane() {
        // Table endpoints and the single-sample sentinel.
        assert!(t_critical_975(0).is_infinite());
        assert_eq!(t_critical_975(1), 12.706);
        assert_eq!(t_critical_975(2), 4.303);
        assert_eq!(t_critical_975(30), 2.042);
        // Beyond the table: strictly decreasing towards the normal 1.96, with no
        // jump at the table/series boundary.
        let mut prev = t_critical_975(1);
        for df in 2..=200 {
            let t = t_critical_975(df);
            assert!(t < prev, "df={df}: {t} !< {prev}");
            assert!(t > 1.959, "df={df}: {t}");
            prev = t;
        }
        // The series hits the quoted table values where they overlap (df=120: 1.980).
        assert!((t_critical_975(120) - 1.980).abs() < 1e-3);
    }

    #[test]
    fn ci_narrows_with_more_samples_of_the_same_spread() {
        // Same alternating spread, more samples: the CI half-width must shrink
        // even though the stddev stays put — both the 1/√n factor and the t
        // critical value fall as the seed count grows.
        let widths: Vec<f64> = [4usize, 8, 16, 32]
            .iter()
            .map(|&n| {
                let samples: Vec<f64> =
                    (0..n).map(|i| if i % 2 == 0 { 1.0 } else { 3.0 }).collect();
                SummaryStats::from_samples(&samples).unwrap().ci95
            })
            .collect();
        for pair in widths.windows(2) {
            assert!(pair[1] < pair[0], "{widths:?}");
        }
    }
}
