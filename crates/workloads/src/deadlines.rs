//! Deadline distributions.
//!
//! The paper draws flow deadlines from an exponential distribution with a mean of
//! 20 ms (varied 20–60 ms in Figure 3c / Figure 5a) and imposes a 3 ms lower bound so
//! that no flow gets an unrealistically tiny deadline (§5.1).

use std::fmt;
use std::str::FromStr;

use pdq_netsim::{SimTime, LATEST_DEADLINE};
use rand::rngs::SmallRng;
use rand::Rng;

/// A distribution over *relative* deadlines (durations from flow arrival).
#[derive(Clone, Debug, PartialEq)]
pub enum DeadlineDist {
    /// No deadline: flows are deadline-unconstrained.
    None,
    /// Every flow gets exactly this relative deadline.
    Fixed(SimTime),
    /// Exponential with the given mean, clamped from below at `floor`.
    Exponential {
        /// Mean relative deadline.
        mean: SimTime,
        /// Lower bound applied after sampling (the paper uses 3 ms).
        floor: SimTime,
    },
}

impl DeadlineDist {
    /// The paper's default: exponential with mean 20 ms, floored at 3 ms.
    pub fn paper_default() -> Self {
        DeadlineDist::Exponential {
            mean: SimTime::from_millis(20),
            floor: SimTime::from_millis(3),
        }
    }

    /// Exponential with the given mean in milliseconds and the paper's 3 ms floor.
    pub fn exponential_ms(mean_ms: u64) -> Self {
        DeadlineDist::Exponential {
            mean: SimTime::from_millis(mean_ms),
            floor: SimTime::from_millis(3),
        }
    }

    /// Draw one relative deadline; `None` when the distribution is [`DeadlineDist::None`].
    pub fn sample(&self, rng: &mut SmallRng) -> Option<SimTime> {
        match self {
            DeadlineDist::None => None,
            DeadlineDist::Fixed(d) => Some(*d),
            DeadlineDist::Exponential { mean, floor } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let sample = -mean.as_secs_f64() * u.ln();
                let t = SimTime::from_secs_f64(sample);
                Some(t.max(*floor))
            }
        }
    }

    /// Draw the absolute deadline of a flow arriving at `arrival`; `None` when the
    /// distribution is [`DeadlineDist::None`]. A sum that saturates stops at
    /// [`LATEST_DEADLINE`]: [`SimTime::MAX`] would read back as no deadline.
    pub fn sample_after(&self, arrival: SimTime, rng: &mut SmallRng) -> Option<SimTime> {
        self.sample(rng).map(|d| (arrival + d).min(LATEST_DEADLINE))
    }
}

/// Canonical one-token spec form, parseable back via [`FromStr`]: `none`,
/// `fixed:<ns>`, `exponential:<mean_ns>:<floor_ns>`.
impl fmt::Display for DeadlineDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeadlineDist::None => write!(f, "none"),
            DeadlineDist::Fixed(d) => write!(f, "fixed:{}", d.as_nanos()),
            DeadlineDist::Exponential { mean, floor } => {
                write!(f, "exponential:{}:{}", mean.as_nanos(), floor.as_nanos())
            }
        }
    }
}

/// Parses the [`fmt::Display`] form plus the shortcut `paper` (exponential with the
/// paper's 20 ms mean and 3 ms floor).
impl FromStr for DeadlineDist {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || format!("unrecognized deadline distribution: {s:?}");
        match s {
            "none" => return Ok(DeadlineDist::None),
            "paper" => return Ok(DeadlineDist::paper_default()),
            _ => {}
        }
        let (kind, args) = s.split_once(':').ok_or_else(bad)?;
        let parse_ns = |v: &str| v.parse::<u64>().map(SimTime::from_nanos).map_err(|_| bad());
        match kind {
            "fixed" => Ok(DeadlineDist::Fixed(parse_ns(args)?)),
            "exponential" => {
                let (mean, floor) = args.split_once(':').ok_or_else(bad)?;
                Ok(DeadlineDist::Exponential {
                    mean: parse_ns(mean)?,
                    floor: parse_ns(floor)?,
                })
            }
            _ => Err(bad()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// An absolute deadline is the arrival plus the draw, stopping one nanosecond
    /// short of `SimTime::MAX`, which a spec reads as no deadline.
    #[test]
    fn absolute_deadlines_never_reach_the_no_deadline_sentinel() {
        let mut rng = SmallRng::seed_from_u64(1);
        let ms = SimTime::from_millis;
        let after = |d: DeadlineDist, rng: &mut SmallRng| d.sample_after(ms(1), rng);
        assert_eq!(after(DeadlineDist::Fixed(ms(2)), &mut rng), Some(ms(3)));
        assert_eq!(
            after(DeadlineDist::Fixed(SimTime::MAX), &mut rng),
            Some(LATEST_DEADLINE)
        );
        assert_eq!(after(DeadlineDist::None, &mut rng), None);
    }

    #[test]
    fn spec_round_trip() {
        for d in [
            DeadlineDist::None,
            DeadlineDist::Fixed(SimTime::from_millis(7)),
            DeadlineDist::paper_default(),
            DeadlineDist::exponential_ms(45),
        ] {
            let text = d.to_string();
            assert_eq!(text.parse::<DeadlineDist>().expect(&text), d, "{text}");
        }
        assert_eq!(
            "paper".parse::<DeadlineDist>().unwrap(),
            DeadlineDist::paper_default()
        );
        assert!("exp".parse::<DeadlineDist>().is_err());
    }

    #[test]
    fn none_and_fixed() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(DeadlineDist::None.sample(&mut rng), None);
        assert_eq!(
            DeadlineDist::Fixed(SimTime::from_millis(7)).sample(&mut rng),
            Some(SimTime::from_millis(7))
        );
    }

    #[test]
    fn exponential_mean_and_floor() {
        let mut rng = SmallRng::seed_from_u64(2);
        let d = DeadlineDist::paper_default();
        let n = 50_000;
        let mut sum = 0.0;
        let mut at_floor = 0;
        for _ in 0..n {
            let t = d.sample(&mut rng).unwrap();
            assert!(t >= SimTime::from_millis(3));
            if t == SimTime::from_millis(3) {
                at_floor += 1;
            }
            sum += t.as_secs_f64();
        }
        let mean = sum / n as f64;
        // The floor pushes the mean slightly above 20 ms; expect roughly 20-22 ms.
        assert!(mean > 0.019 && mean < 0.024, "mean = {mean}");
        // P(exp(20ms) < 3ms) = 1 - e^(-0.15) ~ 14%, so a noticeable share sits at the floor.
        let frac = at_floor as f64 / n as f64;
        assert!(frac > 0.10 && frac < 0.18, "floor fraction = {frac}");
    }

    #[test]
    fn larger_mean_gives_larger_deadlines() {
        let mut rng = SmallRng::seed_from_u64(3);
        let small = DeadlineDist::exponential_ms(20);
        let large = DeadlineDist::exponential_ms(60);
        let avg = |d: &DeadlineDist, rng: &mut SmallRng| {
            (0..20_000)
                .map(|_| d.sample(rng).unwrap().as_secs_f64())
                .sum::<f64>()
                / 20_000.0
        };
        assert!(avg(&large, &mut rng) > 2.0 * avg(&small, &mut rng));
    }
}
