//! Order statistics of a handful of repetitions.

/// Median, quartiles and extremes of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
}

impl Quartiles {
    /// A quantity measured once (peak RSS, simulated results).
    pub fn single(value: f64) -> Quartiles {
        Quartiles::of(&[value])
    }

    /// Quartiles by the rule of Python's `statistics.quantiles(values, n=4)`
    /// (exclusive method), so the spread printed here is the spread the pipeline
    /// computes from the same values. A single sample is its own quartiles.
    ///
    /// # Panics
    /// On an empty sample.
    pub fn of(samples: &[f64]) -> Quartiles {
        assert!(!samples.is_empty(), "quartiles of an empty sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let m = v.len();
        let cut = |i: usize| -> f64 {
            if m == 1 {
                return v[0];
            }
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles {
            n: m,
            min: v[0],
            p25: cut(1),
            median: cut(2),
            p75: cut(3),
            max: v[m - 1],
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

/// How much worse `after` is than `before`, as a share of `before`; negative when
/// it is better. `lower_is_better` picks the direction.
pub fn worsening(before: f64, after: f64, lower_is_better: bool) -> f64 {
    if before == 0.0 {
        return if after == before { 0.0 } else { f64::INFINITY };
    }
    let change = (after - before) / before.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count_quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let q = Quartiles::of(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]);
        assert_eq!((q.n, q.min, q.max), (7, 1.0, 7.0));
        assert_eq!((q.p25, q.median, q.p75), (2.0, 4.0, 6.0));
        assert!((q.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn even_count_quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6], n=4) == [1.75, 3.5, 5.25]
        let q = Quartiles::of(&[6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((q.p25, q.median, q.p75), (1.75, 3.5, 5.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = Quartiles::of(&[20.0, 10.0]);
        assert_eq!((q.min, q.p25, q.median, q.p75), (10.0, 7.5, 15.0, 22.5));
    }

    #[test]
    fn single_sample_is_its_own_quartiles() {
        let q = Quartiles::single(3.5);
        assert_eq!(
            (q.n, q.min, q.p25, q.median, q.p75),
            (1, 3.5, 3.5, 3.5, 3.5)
        );
        assert_eq!(q.max, 3.5);
        assert_eq!(q.spread(), 0.0);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(2.0, 2.2, true) - 0.1).abs() < 1e-12);
        assert!((worsening(2.0, 2.2, false) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, true), 0.0);
    }
}
