//! Flow criticality: the common comparator shared by all PDQ switches, and the
//! sender-side disciplines that decide what criticality a flow advertises.
//!
//! Switches compare flows by the fields carried in the scheduling header
//! (§3.3): smaller deadline first (EDF, to minimize deadline misses), then smaller
//! expected transmission time (SJF, to minimize mean completion time), then flow id as
//! a final tie-break. The operator can change what senders *advertise* — the paper's
//! Figure 10 uses random criticality and estimated flow size, and Figure 12 ages
//! criticality to prevent starvation — without touching the switch comparator.

use std::cmp::Ordering;

use pdq_netsim::{FlowId, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

/// The criticality of a flow as seen by a switch: the totally ordered key PDQ uses to
/// decide which flows may send. Smaller keys are more critical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Criticality {
    /// Deadline (absolute time); `None` means no deadline and sorts after any deadline.
    pub deadline: Option<SimTime>,
    /// Expected remaining transmission time in seconds (`T_H`).
    pub expected_trans_time: f64,
    /// Flow id (final tie-break, makes the order total).
    pub flow: FlowId,
}

impl Criticality {
    /// Build a criticality key.
    pub fn new(deadline: Option<SimTime>, expected_trans_time: f64, flow: FlowId) -> Self {
        Criticality {
            deadline,
            expected_trans_time,
            flow,
        }
    }

    /// Compare two criticalities: `Less` means `self` is **more critical**.
    pub fn cmp_priority(&self, other: &Criticality) -> Ordering {
        let d_self = self.deadline.unwrap_or(SimTime::MAX);
        let d_other = other.deadline.unwrap_or(SimTime::MAX);
        d_self
            .cmp(&d_other)
            .then_with(|| {
                self.expected_trans_time
                    .partial_cmp(&other.expected_trans_time)
                    .unwrap_or(Ordering::Equal)
            })
            .then_with(|| self.flow.cmp(&other.flow))
    }

    /// True if `self` is strictly more critical than `other`.
    pub fn more_critical_than(&self, other: &Criticality) -> bool {
        self.cmp_priority(other) == Ordering::Less
    }
}

/// How a PDQ **sender** computes the expected-transmission-time it advertises.
/// (The deadline, when present, is always advertised as-is.)
#[derive(Clone, Debug, PartialEq)]
pub enum Discipline {
    /// The flow size is known exactly (the paper's default assumption):
    /// `T = remaining_bytes × 8 / R_max`.
    Exact,
    /// The sender does not know the flow size and picks a random but fixed criticality
    /// at flow start (Figure 10, "Random").
    RandomCriticality,
    /// The sender estimates the flow size from the bytes sent so far, updating the
    /// estimate every `update_bytes` bytes (Figure 10, "Flow Size Estimation";
    /// the paper updates every 50 KB).
    EstimatedSize {
        /// Granularity of criticality updates, in bytes.
        update_bytes: u64,
    },
    /// Exact size plus aging (Figure 12): the advertised `T` is divided by
    /// `2^(alpha × t)` where `t` is the flow's waiting time in units of 100 ms, so
    /// long-waiting flows become steadily more critical and cannot starve.
    Aging {
        /// Aging rate α.
        alpha: f64,
    },
}

impl Discipline {
    /// The expected-transmission-time a sender advertises.
    ///
    /// * `remaining_bytes` — bytes not yet acknowledged;
    /// * `sent_bytes` — bytes handed to the network so far (for estimation);
    /// * `max_rate_bps` — the flow's maximal sending rate `R_max`;
    /// * `waiting` — time since the flow arrived;
    /// * `random_t` — the fixed random criticality drawn at flow start (seconds).
    pub fn advertised_trans_time(
        &self,
        remaining_bytes: u64,
        sent_bytes: u64,
        max_rate_bps: f64,
        waiting: SimTime,
        random_t: f64,
    ) -> f64 {
        let exact = remaining_bytes as f64 * 8.0 / max_rate_bps;
        match self {
            Discipline::Exact => exact,
            Discipline::RandomCriticality => random_t,
            Discipline::EstimatedSize { update_bytes } => {
                // Estimated size grows with the bytes already sent, in steps of
                // `update_bytes`; flows that have sent less look shorter (more critical).
                let step = (*update_bytes).max(1);
                let est = (sent_bytes / step + 1) * step;
                est as f64 * 8.0 / max_rate_bps
            }
            Discipline::Aging { alpha } => aged(exact, *alpha, waiting),
        }
    }

    /// Draw the fixed random criticality used by [`Discipline::RandomCriticality`]
    /// (uniform in \[0, 1\] seconds, consistent for the flow's lifetime).
    pub fn draw_random_criticality(rng: &mut SmallRng) -> f64 {
        rng.gen_range(0.0..1.0)
    }
}

/// Figure 12's aging of an expected transmission time `t`: divided by
/// `2^(alpha × w)`, where `w` is the time the flow has waited in units of 100 ms.
pub(crate) fn aged(t: f64, alpha: f64, waiting: SimTime) -> f64 {
    t / 2f64.powf(alpha * (waiting.as_secs_f64() / 0.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn c(deadline_ms: Option<u64>, t: f64, id: u64) -> Criticality {
        Criticality::new(deadline_ms.map(SimTime::from_millis), t, FlowId(id))
    }

    #[test]
    fn edf_beats_sjf() {
        // A flow with any deadline is more critical than a flow with none.
        assert!(c(Some(50), 10.0, 1).more_critical_than(&c(None, 0.001, 2)));
        // Earlier deadline wins regardless of size.
        assert!(c(Some(10), 10.0, 1).more_critical_than(&c(Some(20), 0.001, 2)));
    }

    #[test]
    fn sjf_breaks_ties() {
        assert!(c(None, 0.001, 1).more_critical_than(&c(None, 0.002, 2)));
        assert!(c(Some(10), 0.001, 1).more_critical_than(&c(Some(10), 0.002, 2)));
    }

    #[test]
    fn flow_id_makes_order_total() {
        assert!(c(None, 0.5, 1).more_critical_than(&c(None, 0.5, 2)));
        assert!(!c(None, 0.5, 2).more_critical_than(&c(None, 0.5, 2)));
        assert_eq!(
            c(None, 0.5, 2).cmp_priority(&c(None, 0.5, 2)),
            Ordering::Equal
        );
    }

    #[test]
    fn exact_discipline_tracks_remaining() {
        let d = Discipline::Exact;
        let t = d.advertised_trans_time(1_000_000, 0, 1e9, SimTime::ZERO, 0.0);
        assert!((t - 0.008).abs() < 1e-9);
        let t2 = d.advertised_trans_time(500_000, 500_000, 1e9, SimTime::ZERO, 0.0);
        assert!(t2 < t);
    }

    #[test]
    fn random_criticality_is_fixed_value() {
        let d = Discipline::RandomCriticality;
        assert_eq!(
            d.advertised_trans_time(123, 456, 1e9, SimTime::ZERO, 0.77),
            0.77
        );
        let mut rng = SmallRng::seed_from_u64(9);
        let r = Discipline::draw_random_criticality(&mut rng);
        assert!((0.0..1.0).contains(&r));
    }

    #[test]
    fn estimated_size_grows_with_bytes_sent() {
        let d = Discipline::EstimatedSize {
            update_bytes: 50_000,
        };
        let t0 = d.advertised_trans_time(1_000_000, 0, 1e9, SimTime::ZERO, 0.0);
        let t1 = d.advertised_trans_time(900_000, 100_000, 1e9, SimTime::ZERO, 0.0);
        let t2 = d.advertised_trans_time(500_000, 500_000, 1e9, SimTime::ZERO, 0.0);
        assert!(t0 < t1 && t1 < t2, "{t0} {t1} {t2}");
        // Within one 50 KB step the estimate does not change.
        let a = d.advertised_trans_time(990_000, 10_000, 1e9, SimTime::ZERO, 0.0);
        let b = d.advertised_trans_time(960_000, 40_000, 1e9, SimTime::ZERO, 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn aging_reduces_advertised_time() {
        let d = Discipline::Aging { alpha: 2.0 };
        let fresh = d.advertised_trans_time(1_000_000, 0, 1e9, SimTime::ZERO, 0.0);
        let waited = d.advertised_trans_time(1_000_000, 0, 1e9, SimTime::from_millis(200), 0.0);
        // After 200 ms (2 aging units) at alpha = 2, T is divided by 2^4 = 16.
        assert!((fresh / waited - 16.0).abs() < 1e-6);
    }
}
