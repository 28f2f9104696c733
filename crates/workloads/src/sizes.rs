//! Flow-size distributions.

use std::fmt;
use std::str::FromStr;

use rand::rngs::SmallRng;
use rand::Rng;

/// A distribution over flow sizes in bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum SizeDist {
    /// Every flow has exactly this size.
    Fixed(u64),
    /// Uniform over `[min, max]` bytes. The paper's deadline-constrained ("query")
    /// workload is `Uniform(2 KB, 198 KB)`.
    Uniform {
        /// Minimum size in bytes.
        min: u64,
        /// Maximum size in bytes.
        max: u64,
    },
    /// Uniform over `[mean/2, 3*mean/2]`, i.e. a uniform distribution with the given
    /// mean — the paper's deadline-unconstrained workload with mean 100 KB or 1 MB.
    UniformMean(u64),
    /// Bounded Pareto with the given mean and tail index (`alpha`); Figure 10 uses a
    /// tail index of 1.1. Samples are capped at `10_000 × mean` so a single elephant
    /// cannot make a run unbounded; the cap affects well under 0.1% of samples.
    Pareto {
        /// Mean flow size in bytes.
        mean: u64,
        /// Tail index (shape parameter), > 1.
        alpha: f64,
    },
    /// Piecewise-linear CDF in log-size space: `(bytes, cumulative probability)` points
    /// in increasing order, with the last point at probability 1.0.
    Empirical(Vec<(u64, f64)>),
}

impl SizeDist {
    /// The paper's deadline-constrained query workload: uniform \[2 KB, 198 KB\].
    pub fn query() -> Self {
        SizeDist::Uniform {
            min: 2_000,
            max: 198_000,
        }
    }

    /// A VL2-like data-center mix (Greenberg et al. \[12\]): most flows are mice of a few
    /// kilobytes, while most of the bytes are carried by multi-megabyte elephants.
    /// Synthetic stand-in for the unpublished production trace (see DESIGN.md).
    pub fn vl2_like() -> Self {
        SizeDist::Empirical(vec![
            (1_000, 0.0),
            (10_000, 0.50),
            (40_000, 0.70),
            (100_000, 0.80),
            (1_000_000, 0.95),
            (10_000_000, 0.99),
            (30_000_000, 1.0),
        ])
    }

    /// An EDU1-like university data-center mix (Benson et al. \[6\]): dominated by small
    /// transfers of a few kilobytes with a modest tail below ~2 MB.
    /// Synthetic stand-in for the Bro-processed packet trace (see DESIGN.md).
    pub fn edu1_like() -> Self {
        SizeDist::Empirical(vec![
            (500, 0.0),
            (5_000, 0.70),
            (20_000, 0.90),
            (200_000, 0.98),
            (2_000_000, 1.0),
        ])
    }

    /// Draw one flow size.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        match self {
            SizeDist::Fixed(s) => *s,
            SizeDist::Uniform { min, max } => {
                assert!(min <= max);
                rng.gen_range(*min..=*max)
            }
            SizeDist::UniformMean(mean) => {
                let lo = *mean / 2;
                let hi = mean + mean / 2;
                rng.gen_range(lo..=hi)
            }
            SizeDist::Pareto { mean, alpha } => {
                assert!(*alpha > 1.0, "Pareto mean is finite only for alpha > 1");
                let xm = *mean as f64 * (alpha - 1.0) / alpha;
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let sample = xm / u.powf(1.0 / alpha);
                let cap = *mean as f64 * 10_000.0;
                sample.min(cap).max(1.0) as u64
            }
            SizeDist::Empirical(points) => {
                assert!(points.len() >= 2, "empirical CDF needs at least two points");
                let u: f64 = rng.gen();
                // Find the segment containing u and interpolate in log-size space.
                for w in points.windows(2) {
                    let (s0, p0) = w[0];
                    let (s1, p1) = w[1];
                    if u <= p1 || (p1 - 1.0).abs() < 1e-12 {
                        if p1 <= p0 {
                            return s1;
                        }
                        let frac = ((u - p0) / (p1 - p0)).clamp(0.0, 1.0);
                        let log_s = (s0 as f64).ln() + frac * ((s1 as f64).ln() - (s0 as f64).ln());
                        return log_s.exp().round().max(1.0) as u64;
                    }
                }
                points.last().unwrap().0
            }
        }
    }

    /// The mean of the distribution (exact for the analytic cases, approximate for the
    /// empirical CDF where it is the mean of the piecewise log-linear interpolation's
    /// segment midpoints weighted by probability mass — good enough for load sizing).
    pub fn mean_bytes(&self) -> f64 {
        match self {
            SizeDist::Fixed(s) => *s as f64,
            SizeDist::Uniform { min, max } => (*min as f64 + *max as f64) / 2.0,
            SizeDist::UniformMean(mean) => *mean as f64,
            SizeDist::Pareto { mean, .. } => *mean as f64,
            SizeDist::Empirical(points) => {
                let mut mean = 0.0;
                for w in points.windows(2) {
                    let (s0, p0) = w[0];
                    let (s1, p1) = w[1];
                    let mid = ((s0 as f64).ln() + (s1 as f64).ln()) / 2.0;
                    mean += (p1 - p0) * mid.exp();
                }
                mean
            }
        }
    }
}

/// Canonical one-token spec form, parseable back via [`FromStr`]:
/// `fixed:<bytes>`, `uniform:<min>:<max>`, `uniform_mean:<mean>`,
/// `pareto:<mean>:<alpha>`, `empirical:<bytes>@<cdf>,...`.
impl fmt::Display for SizeDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizeDist::Fixed(s) => write!(f, "fixed:{s}"),
            SizeDist::Uniform { min, max } => write!(f, "uniform:{min}:{max}"),
            SizeDist::UniformMean(mean) => write!(f, "uniform_mean:{mean}"),
            SizeDist::Pareto { mean, alpha } => write!(f, "pareto:{mean}:{alpha}"),
            SizeDist::Empirical(points) => {
                write!(f, "empirical:")?;
                for (i, (bytes, p)) in points.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{bytes}@{p}")?;
                }
                Ok(())
            }
        }
    }
}

/// Parses the [`fmt::Display`] form plus the named shortcuts `query`, `vl2` and
/// `edu1` (which map to [`SizeDist::query`], [`SizeDist::vl2_like`] and
/// [`SizeDist::edu1_like`]).
impl FromStr for SizeDist {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || format!("unrecognized size distribution: {s:?}");
        match s {
            "query" => return Ok(SizeDist::query()),
            "vl2" => return Ok(SizeDist::vl2_like()),
            "edu1" => return Ok(SizeDist::edu1_like()),
            _ => {}
        }
        let (kind, args) = s.split_once(':').ok_or_else(bad)?;
        let parse_u64 = |v: &str| v.parse::<u64>().map_err(|_| bad());
        let parse_f64 = |v: &str| v.parse::<f64>().map_err(|_| bad());
        match kind {
            "fixed" => Ok(SizeDist::Fixed(parse_u64(args)?)),
            "uniform" => {
                let (min, max) = args.split_once(':').ok_or_else(bad)?;
                let (min, max) = (parse_u64(min)?, parse_u64(max)?);
                if min > max {
                    return Err(format!(
                        "a uniform size range needs min <= max, got {min} > {max}"
                    ));
                }
                Ok(SizeDist::Uniform { min, max })
            }
            "uniform_mean" => Ok(SizeDist::UniformMean(parse_u64(args)?)),
            "pareto" => {
                let (mean, alpha) = args.split_once(':').ok_or_else(bad)?;
                let (mean, alpha) = (parse_u64(mean)?, parse_f64(alpha)?);
                if !(alpha.is_finite() && alpha > 1.0) {
                    return Err(format!(
                        "the Pareto tail index must be finite and above 1 \
                         (the mean is infinite otherwise), got {alpha}"
                    ));
                }
                Ok(SizeDist::Pareto { mean, alpha })
            }
            "empirical" => {
                let mut points = Vec::new();
                for part in args.split(',') {
                    let (bytes, p) = part.split_once('@').ok_or_else(bad)?;
                    points.push((parse_u64(bytes)?, parse_f64(p)?));
                }
                if points.len() < 2 {
                    return Err(bad());
                }
                // A CDF: probabilities in [0, 1], never decreasing (which also keeps
                // out NaN, a value that would not read back equal to itself).
                let mut last = 0.0;
                for &(_, p) in &points {
                    if !(last..=1.0).contains(&p) {
                        return Err(format!(
                            "empirical cumulative probabilities must rise within [0, 1], \
                             got {p} after {last}"
                        ));
                    }
                    last = p;
                }
                Ok(SizeDist::Empirical(points))
            }
            _ => Err(bad()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn spec_round_trip() {
        let dists = vec![
            SizeDist::Fixed(777),
            SizeDist::query(),
            SizeDist::UniformMean(100_000),
            SizeDist::Pareto {
                mean: 100_000,
                alpha: 1.1,
            },
            SizeDist::vl2_like(),
            SizeDist::edu1_like(),
        ];
        for d in dists {
            let text = d.to_string();
            let back: SizeDist = text.parse().expect(&text);
            assert_eq!(back, d, "{text}");
        }
        // Named shortcuts parse to the same distributions.
        assert_eq!("query".parse::<SizeDist>().unwrap(), SizeDist::query());
        assert_eq!("vl2".parse::<SizeDist>().unwrap(), SizeDist::vl2_like());
        assert!("nonsense".parse::<SizeDist>().is_err());
        assert!("pareto:10".parse::<SizeDist>().is_err());
    }

    #[test]
    fn pareto_without_a_finite_mean_is_rejected_at_parse_time() {
        // `sample` would panic on these; a spec or CLI token must not reach it.
        for alpha in ["1", "0.5", "-2", "nan", "inf"] {
            let text = format!("pareto:30000:{alpha}");
            let err = text.parse::<SizeDist>().unwrap_err();
            assert!(err.contains("tail index"), "{text}: {err}");
        }
        assert!("pareto:30000:1.0001".parse::<SizeDist>().is_ok());
    }

    #[test]
    fn an_empirical_cdf_must_rise_within_the_unit_interval() {
        // NaN would not round-trip; a falling or out-of-range CDF means nothing.
        for points in ["1@0,2@NaN", "1@0.5,2@0.4", "1@-0.1,2@1", "1@0,2@1.5"] {
            let text = format!("empirical:{points}");
            let err = text.parse::<SizeDist>().unwrap_err();
            assert!(err.contains("within [0, 1]"), "{text}: {err}");
        }
        assert!("empirical:1@0,2@0.5,3@0.5,4@1".parse::<SizeDist>().is_ok());
    }

    #[test]
    fn an_empty_uniform_range_is_rejected_at_parse_time() {
        // `sample` asserts `min <= max`; a spec or CLI token must not reach it.
        let err = "uniform:200000:100".parse::<SizeDist>().unwrap_err();
        assert!(err.contains("min <= max"), "{err}");
        assert_eq!(
            "uniform:7:7".parse::<SizeDist>(),
            Ok(SizeDist::Uniform { min: 7, max: 7 })
        );
    }

    #[test]
    fn fixed_and_uniform() {
        let mut r = rng();
        assert_eq!(SizeDist::Fixed(777).sample(&mut r), 777);
        let d = SizeDist::query();
        for _ in 0..1000 {
            let s = d.sample(&mut r);
            assert!((2_000..=198_000).contains(&s));
        }
        assert_eq!(d.mean_bytes(), 100_000.0);
    }

    #[test]
    fn uniform_mean_brackets_mean() {
        let mut r = rng();
        let d = SizeDist::UniformMean(100_000);
        let mut sum = 0u64;
        let n = 20_000;
        for _ in 0..n {
            let s = d.sample(&mut r);
            assert!((50_000..=150_000).contains(&s));
            sum += s;
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 100_000.0).abs() < 2_000.0, "mean = {mean}");
    }

    #[test]
    fn pareto_is_heavy_tailed_with_roughly_right_mean() {
        let mut r = rng();
        let d = SizeDist::Pareto {
            mean: 100_000,
            alpha: 1.1,
        };
        let n = 200_000;
        let samples: Vec<u64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        // Heavy tails converge slowly; accept a wide band around the nominal mean.
        assert!(mean > 30_000.0 && mean < 400_000.0, "mean = {mean}");
        // Median far below the mean is the signature of a heavy tail.
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let median = sorted[n / 2] as f64;
        assert!(median < mean * 0.5, "median {median} vs mean {mean}");
    }

    #[test]
    fn empirical_respects_breakpoints() {
        let mut r = rng();
        let d = SizeDist::vl2_like();
        let n = 50_000;
        let mut below_10k = 0;
        let mut above_1m = 0;
        for _ in 0..n {
            let s = d.sample(&mut r);
            assert!((1_000..=30_000_000).contains(&s));
            if s <= 10_000 {
                below_10k += 1;
            }
            if s > 1_000_000 {
                above_1m += 1;
            }
        }
        let frac_small = below_10k as f64 / n as f64;
        let frac_big = above_1m as f64 / n as f64;
        assert!((frac_small - 0.5).abs() < 0.03, "{frac_small}");
        assert!((frac_big - 0.05).abs() < 0.02, "{frac_big}");
    }

    #[test]
    fn edu1_is_mostly_mice() {
        let mut r = rng();
        let d = SizeDist::edu1_like();
        let n = 20_000;
        let small = (0..n).filter(|_| d.sample(&mut r) <= 20_000).count();
        assert!(small as f64 / n as f64 > 0.85);
    }

    #[test]
    #[should_panic]
    fn pareto_alpha_below_one_rejected() {
        let mut r = rng();
        let _ = SizeDist::Pareto {
            mean: 1000,
            alpha: 0.9,
        }
        .sample(&mut r);
    }
}
