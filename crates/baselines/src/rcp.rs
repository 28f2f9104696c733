//! RCP (Rate Control Protocol) switch logic with exact flow counting.
//!
//! The PDQ paper's RCP baseline (§5.1) is optimized by counting the exact number of
//! flows at each switch, so the per-link fair rate converges immediately to
//! `C_effective / N` instead of being estimated from aggregate arrival rates. This is
//! also exactly what D3 degenerates to when no flow has a deadline.

use pdq_netsim::{FlowMap, Link, LinkController, Packet, PacketKind, SimTime};

/// Parameters for the RCP controller.
#[derive(Clone, Debug)]
pub struct RcpParams {
    /// Control interval, in multiples of the average RTT.
    pub interval_rtts: f64,
    /// Fallback RTT before any measurement exists.
    pub default_rtt: SimTime,
    /// Forget a flow if it has not been seen for this many control intervals
    /// (flows normally deregister via their TERM packet).
    pub idle_intervals: f64,
}

impl Default for RcpParams {
    fn default() -> Self {
        RcpParams {
            interval_rtts: 2.0,
            default_rtt: SimTime::from_micros(150),
            idle_intervals: 20.0,
        }
    }
}

/// Per-link RCP controller: advertises `max(0, C - q/T) / N` to every flow.
pub struct RcpSwitchController {
    params: RcpParams,
    capacity: f64,
    fair_rate: f64,
    rtt_avg: f64,
    /// Active flows and when each was last seen.
    flows: FlowMap<SimTime>,
}

impl RcpSwitchController {
    /// Create a controller; the link rate is learned in `init`.
    pub fn new(params: RcpParams) -> Self {
        let rtt = params.default_rtt.as_secs_f64();
        RcpSwitchController {
            params,
            capacity: 0.0,
            fair_rate: 0.0,
            rtt_avg: rtt,
            flows: FlowMap::default(),
        }
    }

    /// Number of flows currently counted (tests / diagnostics).
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// The advertised fair-share rate in bits/s (tests / diagnostics).
    pub fn fair_rate(&self) -> f64 {
        self.fair_rate
    }

    fn interval(&self) -> SimTime {
        SimTime::from_secs_f64((self.params.interval_rtts * self.rtt_avg).max(50e-6))
    }

    fn recompute(&mut self, queue_bytes: u64) {
        let interval = (self.params.interval_rtts * self.rtt_avg).max(50e-6);
        let drain = queue_bytes as f64 * 8.0 / interval;
        let effective = (self.capacity - drain).max(0.0);
        let n = self.flows.len().max(1) as f64;
        self.fair_rate = effective / n;
    }
}

impl LinkController for RcpSwitchController {
    fn init(&mut self, now: SimTime, link: &Link) -> Option<SimTime> {
        self.capacity = link.rate_bps;
        self.fair_rate = link.rate_bps;
        Some(now + self.interval())
    }

    fn on_forward(&mut self, packet: &mut Packet, now: SimTime, _link: &Link) {
        if packet.sched.rtt > 0.0 {
            self.rtt_avg = 0.875 * self.rtt_avg + 0.125 * packet.sched.rtt;
        }
        match packet.kind {
            PacketKind::Term => {
                self.flows.remove(&packet.flow);
            }
            k if k.carries_forward_header() => {
                let newly_seen = self.flows.insert(packet.flow, now).is_none();
                if newly_seen {
                    // Make room for the new flow right away so a burst of arrivals
                    // immediately shares the link instead of waiting a control interval.
                    let q = 0;
                    self.recompute(q);
                }
                if packet.sched.granted_rate() > self.fair_rate {
                    packet.sched.set_granted_rate(self.fair_rate);
                }
            }
            _ => {}
        }
    }

    fn on_reverse(&mut self, _packet: &mut Packet, _now: SimTime, _link: &Link) {}

    fn on_tick(&mut self, now: SimTime, link: &Link) -> Option<SimTime> {
        // Purge flows that silently disappeared.
        let idle = SimTime::from_secs_f64(
            self.params.idle_intervals * self.params.interval_rtts * self.rtt_avg,
        );
        self.flows.retain(|_, last| *last + idle >= now);
        self.recompute(link.queue_bytes());
        Some(now + self.interval())
    }

    fn name(&self) -> &'static str {
        "rcp-switch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_netsim::{FlowId, LinkParams, Network, NodeId, SchedulingHeader};

    fn setup() -> (Network, pdq_netsim::LinkId, RcpSwitchController) {
        let mut net = Network::new();
        let s = net.add_switch("s");
        let h = net.add_host("h");
        let (l, _) = net.add_duplex_link(s, h, LinkParams::default());
        let mut ctl = RcpSwitchController::new(RcpParams::default());
        ctl.init(SimTime::ZERO, net.link(l));
        (net, l, ctl)
    }

    fn data(flow: u64) -> Packet {
        let mut p = Packet::data(FlowId(flow), NodeId(1), NodeId(0), 0, 1000);
        p.sched = SchedulingHeader::new(1e9);
        p.sched.rtt = 150e-6;
        p.sched.set_granted_rate(f64::INFINITY);
        p
    }

    #[test]
    fn fair_share_divides_capacity_by_flow_count() {
        let (net, l, mut ctl) = setup();
        let mut p1 = data(1);
        ctl.on_forward(&mut p1, SimTime::ZERO, net.link(l));
        assert!(
            (p1.sched.granted_rate() - 1e9).abs() < 1.0,
            "one flow gets the full rate"
        );
        let mut p2 = data(2);
        ctl.on_forward(&mut p2, SimTime::ZERO, net.link(l));
        assert!(
            (p2.sched.granted_rate() - 5e8).abs() < 1.0,
            "two flows split the link"
        );
        assert_eq!(ctl.flow_count(), 2);
        // A third flow: each gets a third.
        let mut p3 = data(3);
        ctl.on_forward(&mut p3, SimTime::ZERO, net.link(l));
        assert!((p3.sched.granted_rate() - 1e9 / 3.0).abs() < 1.0);
    }

    #[test]
    fn term_releases_the_share() {
        let (net, l, mut ctl) = setup();
        for f in 1..=4u64 {
            let mut p = data(f);
            ctl.on_forward(&mut p, SimTime::ZERO, net.link(l));
        }
        assert_eq!(ctl.flow_count(), 4);
        let mut term = Packet::control(PacketKind::Term, FlowId(2), NodeId(1), NodeId(0));
        ctl.on_forward(&mut term, SimTime::ZERO, net.link(l));
        assert_eq!(ctl.flow_count(), 3);
        ctl.on_tick(SimTime::from_millis(1), net.link(l));
        assert!((ctl.fair_rate() - 1e9 / 3.0).abs() < 1.0);
    }

    #[test]
    fn queue_build_up_reduces_fair_rate() {
        let (mut net, l, mut ctl) = setup();
        let mut p = data(1);
        ctl.on_forward(&mut p, SimTime::ZERO, net.link(l));
        net.link_mut(l).queue_bytes = 50_000;
        ctl.on_tick(SimTime::from_millis(1), net.link(l));
        assert!(ctl.fair_rate() < 1e9, "queue must push the rate down");
    }

    #[test]
    fn only_lowers_the_header_rate() {
        let (net, l, mut ctl) = setup();
        let mut p1 = data(1);
        ctl.on_forward(&mut p1, SimTime::ZERO, net.link(l));
        let mut p2 = data(2);
        p2.sched.set_granted_rate(1e8); // a slower upstream link already capped it
        ctl.on_forward(&mut p2, SimTime::ZERO, net.link(l));
        assert!((p2.sched.granted_rate() - 1e8).abs() < 1.0);
    }

    #[test]
    fn idle_flows_are_purged() {
        let (net, l, mut ctl) = setup();
        let mut p = data(1);
        ctl.on_forward(&mut p, SimTime::ZERO, net.link(l));
        assert_eq!(ctl.flow_count(), 1);
        // Far in the future, the flow has been silent: it is forgotten.
        ctl.on_tick(SimTime::from_secs(1), net.link(l));
        assert_eq!(ctl.flow_count(), 0);
    }
}
