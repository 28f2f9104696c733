//! A reusable leaky-bucket sender pacer (RFC 9002 §7.7).
//!
//! Senders that transmit a whole congestion window back-to-back stress shallow
//! buffers far beyond their average rate — at WAN BDPs a single burst can be tens
//! of megabytes. RFC 9002 §7.7 prescribes the standard remedy: spread packets over
//! time at `rate = N · congestion_window / smoothed_rtt` with a small utilization
//! headroom `N` (we default to 1.25, the value QUIC implementations commonly use),
//! realized as a token bucket whose capacity caps the residual burst.
//!
//! [`Pacer`] is that token bucket, expressed in the simulator's own terms:
//!
//! * **Tokens are bytes.** A packet may leave when the bucket holds at least its
//!   wire size; sending consumes that many tokens.
//! * **Refill is continuous.** Tokens accrue at the configured rate between the
//!   integer-nanosecond instants the sender touches the bucket, capped at
//!   [`PacerConfig::burst_bytes`] (the maximum back-to-back burst, default 10
//!   MTUs — QUIC's initial-burst allowance).
//! * **No internal clock.** The sender drives the pacer with the existing timer
//!   machinery: when [`Pacer::try_send`] refuses, [`Pacer::next_ready`] names the
//!   instant the deficit clears and the sender arms a [`crate::TimerKind::Pacing`]
//!   timer for it (with the usual token freshness guard).
//!
//! Window-based senders (TCP) call [`Pacer::set_window`] whenever `cwnd` or the
//! smoothed RTT moves; the rate-based senders (PDQ, RCP, D3) share one drain,
//! [`crate::PacedCore::drain`], which calls [`Pacer::set_rate_bps`] with the granted
//! rate. Both may change mid-flight: accrued tokens are settled at the old rate
//! first, so a rate change never retroactively re-prices elapsed time.
//!
//! The pacer is pure integer/float arithmetic over [`SimTime`] instants — no
//! randomness, no wall clock — so paced runs stay bit-reproducible and
//! shard-count invariant. ACK-only packets should not be paced (RFC 9002 §7.7);
//! the protocol crates only pace data.

use crate::packet::MTU_BYTES;
use crate::time::SimTime;

/// Tuning knobs for a [`Pacer`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PacerConfig {
    /// Utilization headroom `N` in `rate = N · cwnd / srtt` (RFC 9002 §7.7:
    /// "slightly higher than one", commonly 1.25). Also applied as headroom by
    /// rate-based senders via [`Pacer::set_window`] only — [`Pacer::set_rate_bps`]
    /// takes the rate verbatim, since a granted rate is already a ceiling.
    pub gain: f64,
    /// Token-bucket capacity: the largest back-to-back burst, in bytes.
    /// Values below one MTU are raised to one MTU so a full-sized packet can
    /// always eventually pass.
    pub burst_bytes: u64,
}

impl Default for PacerConfig {
    fn default() -> Self {
        PacerConfig {
            gain: 1.25,
            burst_bytes: 10 * MTU_BYTES as u64,
        }
    }
}

/// A leaky-bucket pacer: tokens are bytes, refilled continuously at the
/// configured rate, capped at the burst allowance. See the module docs.
#[derive(Clone, Debug)]
pub struct Pacer {
    gain: f64,
    burst_bytes: f64,
    /// Current pacing rate in bits/s; `None` until the sender provides one
    /// (unpaced: every send allowed, as RFC 9002 allows for the initial burst).
    rate_bps: Option<f64>,
    tokens_bytes: f64,
    last_refill: SimTime,
}

impl Pacer {
    /// A pacer starting with a full bucket and no rate (unpaced until the first
    /// [`Pacer::set_rate_bps`] / [`Pacer::set_window`]).
    pub fn new(config: PacerConfig) -> Self {
        assert!(config.gain > 0.0, "pacing gain must be positive");
        let burst = config.burst_bytes.max(MTU_BYTES as u64) as f64;
        Pacer {
            gain: config.gain,
            burst_bytes: burst,
            rate_bps: None,
            tokens_bytes: burst,
            last_refill: SimTime::ZERO,
        }
    }

    /// The current pacing rate in bits/s, if one has been set.
    pub fn rate_bps(&self) -> Option<f64> {
        self.rate_bps
    }

    /// Set the pacing rate directly (rate-based senders: PDQ grant, RCP/D3
    /// allocation). Tokens accrued since the last touch are settled at the old
    /// rate first. Non-positive rates are treated as "no rate" (sends pass).
    pub fn set_rate_bps(&mut self, now: SimTime, rate_bps: f64) {
        self.refill(now);
        self.rate_bps = (rate_bps > 0.0).then_some(rate_bps);
    }

    /// Derive the rate from a congestion window and smoothed RTT:
    /// `rate = gain · cwnd / srtt` (RFC 9002 §7.7). A zero RTT (no sample yet)
    /// leaves the pacer unpaced.
    pub fn set_window(&mut self, now: SimTime, cwnd_bytes: u64, srtt: SimTime) {
        let srtt_s = srtt.as_secs_f64();
        let rate = if srtt_s > 0.0 {
            self.gain * cwnd_bytes as f64 * 8.0 / srtt_s
        } else {
            0.0
        };
        self.set_rate_bps(now, rate);
    }

    /// Try to send `bytes` wire bytes at `now`: returns true (and consumes the
    /// tokens) when the bucket allows it, false when the sender must wait until
    /// [`Pacer::next_ready`].
    pub fn try_send(&mut self, now: SimTime, bytes: u64) -> bool {
        self.refill(now);
        if self.rate_bps.is_none() {
            return true;
        }
        // Requests above the burst cap are priced at the cap so they can pass at
        // all; the deficit still throttles the long-run rate.
        let need = (bytes as f64).min(self.burst_bytes);
        if self.tokens_bytes >= need {
            self.tokens_bytes -= bytes as f64;
            true
        } else {
            false
        }
    }

    /// The earliest instant a send of `bytes` wire bytes can pass, assuming the
    /// rate does not change in between. Returns `now` when it would pass already.
    pub fn next_ready(&self, now: SimTime, bytes: u64) -> SimTime {
        let Some(rate) = self.rate_bps else {
            return now;
        };
        let need = (bytes as f64).min(self.burst_bytes);
        let deficit = need - self.tokens_bytes;
        if deficit <= 0.0 {
            return now;
        }
        // ceil: never name an instant at which the deficit is still open.
        let wait_ns = (deficit * 8.0e9 / rate).ceil().max(1.0) as u64;
        now.saturating_add(SimTime::from_nanos(wait_ns))
    }

    fn refill(&mut self, now: SimTime) {
        if now <= self.last_refill {
            return;
        }
        if let Some(rate) = self.rate_bps {
            let dt_ns = (now - self.last_refill).as_nanos();
            self.tokens_bytes =
                (self.tokens_bytes + dt_ns as f64 * rate / 8.0e9).min(self.burst_bytes);
        } else {
            // Unpaced time refills the burst allowance in full.
            self.tokens_bytes = self.burst_bytes;
        }
        self.last_refill = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pacer_at(rate_bps: f64) -> Pacer {
        let mut p = Pacer::new(PacerConfig::default());
        p.set_rate_bps(SimTime::ZERO, rate_bps);
        p
    }

    #[test]
    fn unpaced_until_a_rate_is_set() {
        let mut p = Pacer::new(PacerConfig::default());
        for i in 0..100 {
            assert!(p.try_send(SimTime::from_nanos(i), MTU_BYTES as u64));
        }
        assert_eq!(p.next_ready(SimTime::ZERO, MTU_BYTES as u64), SimTime::ZERO);
    }

    #[test]
    fn tokens_accrue_at_the_configured_rate() {
        // 1 Gbps: one 1500 B packet each 12 µs.
        let mut p = pacer_at(1e9);
        // Drain the initial burst allowance (10 MTUs).
        for _ in 0..10 {
            assert!(p.try_send(SimTime::ZERO, MTU_BYTES as u64));
        }
        assert!(!p.try_send(SimTime::ZERO, MTU_BYTES as u64));
        let ready = p.next_ready(SimTime::ZERO, MTU_BYTES as u64);
        assert_eq!(ready, SimTime::from_nanos(12_000));
        // One nanosecond early the bucket is still short...
        assert!(!p.try_send(ready - SimTime::from_nanos(1), MTU_BYTES as u64));
        // ...at the named instant it passes.
        assert!(p.try_send(ready, MTU_BYTES as u64));
    }

    #[test]
    fn burst_cap_bounds_idle_accrual() {
        let mut p = pacer_at(1e9);
        // A long idle period must not bank unbounded credit: exactly the burst
        // allowance (10 MTUs) passes back-to-back, not more.
        let now = SimTime::from_secs(5);
        let mut sent = 0;
        while p.try_send(now, MTU_BYTES as u64) {
            sent += 1;
            assert!(sent <= 10, "burst cap exceeded");
        }
        assert_eq!(sent, 10);
    }

    #[test]
    fn rate_change_mid_flight_settles_old_tokens_first() {
        let mut p = pacer_at(1e9);
        for _ in 0..10 {
            assert!(p.try_send(SimTime::ZERO, MTU_BYTES as u64));
        }
        // 6 µs at 1 Gbps banks 750 B; then the rate drops 10x. The banked 750 B
        // must survive the change, so the remaining 750 B deficit at 100 Mbps
        // clears after another 60 µs, not 120 µs.
        let t = SimTime::from_nanos(6_000);
        p.set_rate_bps(t, 1e8);
        assert_eq!(
            p.next_ready(t, MTU_BYTES as u64),
            t + SimTime::from_nanos(60_000)
        );
    }

    #[test]
    fn set_window_matches_rfc9002() {
        let mut p = Pacer::new(PacerConfig {
            gain: 1.25,
            burst_bytes: 2 * MTU_BYTES as u64,
        });
        // cwnd 125 000 B over a 10 ms srtt = 100 Mbps; ×1.25 gain = 125 Mbps.
        p.set_window(SimTime::ZERO, 125_000, SimTime::from_millis(10));
        let rate = p.rate_bps().unwrap();
        assert!((rate - 1.25e8).abs() < 1e-3, "rate {rate}");
        // Zero srtt (no sample yet) leaves the pacer unpaced.
        p.set_window(SimTime::ZERO, 125_000, SimTime::ZERO);
        assert!(p.rate_bps().is_none());
    }

    #[test]
    fn oversized_requests_pass_at_the_burst_cap() {
        let mut p = Pacer::new(PacerConfig {
            gain: 1.0,
            burst_bytes: MTU_BYTES as u64,
        });
        p.set_rate_bps(SimTime::ZERO, 1e9);
        // A jumbo request larger than the bucket is priced at the cap: it passes
        // once the bucket is full, and its true size still drains the bucket.
        assert!(p.try_send(SimTime::ZERO, 3 * MTU_BYTES as u64));
        let ready = p.next_ready(SimTime::ZERO, MTU_BYTES as u64);
        // 3 MTUs consumed from a 1-MTU bucket: 3 MTUs of deficit to clear.
        assert_eq!(ready, SimTime::from_nanos(3 * 12_000));
    }
}
