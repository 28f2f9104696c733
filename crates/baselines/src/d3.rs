//! D3 (Deadline-Driven Delivery) switch logic.
//!
//! D3 (Wilson et al., SIGCOMM 2011) is the deadline-aware baseline the PDQ paper
//! compares against. Senders of deadline flows request `remaining_size /
//! time_to_deadline`; switches grant requests greedily **in the order they arrive**
//! ("first-come first-reserve") plus a fair share of whatever is left, and non-deadline
//! flows just get the fair share. Because allocations persist until the flow finishes,
//! an early-arriving far-deadline flow can hold bandwidth that a later, tighter-deadline
//! flow needed — the behaviour PDQ's preemption fixes.
//!
//! Following §5.1 of the PDQ paper, the fair share is clamped to be non-negative
//! (their fix to the published algorithm) and the rate-adaptation constants are
//! α = 0.1, β = 1.

use pdq_netsim::{FlowId, FlowMap, Link, LinkController, Packet, PacketKind, SimTime};

/// Parameters for the D3 controller.
#[derive(Clone, Debug)]
pub struct D3Params {
    /// Control interval, in multiples of the average RTT.
    pub interval_rtts: f64,
    /// Fallback RTT before any measurement exists.
    pub default_rtt: SimTime,
    /// α: weight of the spare-capacity term in the base-rate adaptation.
    pub alpha: f64,
    /// β: weight of the queue-drain term in the base-rate adaptation.
    pub beta: f64,
    /// Forget a flow if unseen for this many control intervals.
    pub idle_intervals: f64,
}

impl Default for D3Params {
    fn default() -> Self {
        D3Params {
            interval_rtts: 2.0,
            default_rtt: SimTime::from_micros(150),
            alpha: 0.1,
            beta: 1.0,
            idle_intervals: 20.0,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Allocation {
    rate: f64,
    desired: f64,
    last_seen: SimTime,
}

/// Per-link D3 controller.
pub struct D3SwitchController {
    params: D3Params,
    capacity: f64,
    /// Capacity available to new allocations after the rate-adaptation correction.
    effective_capacity: f64,
    rtt_avg: f64,
    allocations: FlowMap<Allocation>,
    allocated_sum: f64,
    /// Bytes transmitted at the last tick (to measure utilization for rate adaptation).
    last_bytes_transmitted: u64,
}

impl D3SwitchController {
    /// Create a controller; the link rate is learned in `init`.
    pub fn new(params: D3Params) -> Self {
        let rtt = params.default_rtt.as_secs_f64();
        D3SwitchController {
            params,
            capacity: 0.0,
            effective_capacity: 0.0,
            rtt_avg: rtt,
            allocations: FlowMap::default(),
            allocated_sum: 0.0,
            last_bytes_transmitted: 0,
        }
    }

    /// Number of flows with a live allocation.
    pub fn flow_count(&self) -> usize {
        self.allocations.len()
    }

    /// Sum of the rates currently reserved on this link (bits/s).
    pub fn allocated(&self) -> f64 {
        self.allocated_sum
    }

    fn interval(&self) -> SimTime {
        SimTime::from_secs_f64((self.params.interval_rtts * self.rtt_avg).max(50e-6))
    }

    fn release(&mut self, flow: FlowId) {
        if let Some(a) = self.allocations.remove(&flow) {
            self.allocated_sum = (self.allocated_sum - a.rate).max(0.0);
        }
    }

    /// Process a rate request: return the flow's previous allocation, grant
    /// `desired + fair_share` if it fits (deadline flows) or just the fair share
    /// (non-deadline flows), and record the new allocation.
    ///
    /// The fair share is `max(0, C_eff − ΣD) / N`, where `ΣD` is the sum of the desired
    /// rates of every flow the switch currently knows and `N` the flow count — the
    /// published D3 allocation with the non-negativity fix. Because each flow only
    /// refreshes its allocation when its own request arrives, capacity reserved by
    /// earlier flows stays reserved: requests are effectively served in arrival order.
    fn allocate(&mut self, flow: FlowId, desired: f64, now: SimTime) -> f64 {
        // Return this flow's previous allocation before recomputing.
        let prev = self.allocations.get(&flow).map(|a| a.rate).unwrap_or(0.0);
        self.allocated_sum = (self.allocated_sum - prev).max(0.0);

        // Total demand and flow count including the requester's fresh demand.
        let others_desired: f64 = self
            .allocations
            .iter()
            .filter(|(f, _)| **f != flow)
            .map(|(_, a)| a.desired)
            .sum();
        let total_desired = others_desired + desired;
        let n = if self.allocations.contains_key(&flow) {
            self.allocations.len()
        } else {
            self.allocations.len() + 1
        }
        .max(1) as f64;
        let left = (self.effective_capacity - self.allocated_sum).max(0.0);
        // Non-negative fair share (the PDQ paper's fix to the original algorithm).
        let fair_share = ((self.effective_capacity - total_desired) / n).max(0.0);
        let grant = if desired > 0.0 {
            if left >= desired {
                (desired + fair_share).min(left)
            } else {
                // Cannot reserve the desired rate: the flow only gets the fair share of
                // what is left and will most likely miss its deadline (and be quenched).
                fair_share.min(left)
            }
        } else {
            fair_share.min(left)
        };
        self.allocations.insert(
            flow,
            Allocation {
                rate: grant,
                desired,
                last_seen: now,
            },
        );
        self.allocated_sum += grant;
        grant
    }
}

impl LinkController for D3SwitchController {
    fn init(&mut self, now: SimTime, link: &Link) -> Option<SimTime> {
        self.capacity = link.rate_bps;
        self.effective_capacity = link.rate_bps;
        Some(now + self.interval())
    }

    fn on_forward(&mut self, packet: &mut Packet, now: SimTime, _link: &Link) {
        if packet.sched.rtt > 0.0 {
            self.rtt_avg = 0.875 * self.rtt_avg + 0.125 * packet.sched.rtt;
        }
        match packet.kind {
            PacketKind::Term => self.release(packet.flow),
            k if k.carries_forward_header() => {
                let grant = self.allocate(packet.flow, packet.sched.desired_rate(), now);
                if packet.sched.granted_rate() > grant {
                    packet.sched.set_granted_rate(grant);
                }
            }
            _ => {}
        }
    }

    fn on_reverse(&mut self, _packet: &mut Packet, _now: SimTime, _link: &Link) {}

    fn on_tick(&mut self, now: SimTime, link: &Link) -> Option<SimTime> {
        // Rate adaptation: effective capacity follows C + α(C − y) − β q/T, clamped to
        // [0, C], where y is the measured utilization over the last interval.
        let interval_s = (self.params.interval_rtts * self.rtt_avg).max(50e-6);
        let bytes = link.stats.bytes_transmitted;
        let delta = bytes.saturating_sub(self.last_bytes_transmitted);
        self.last_bytes_transmitted = bytes;
        let y = delta as f64 * 8.0 / interval_s;
        let q_drain = link.queue_bytes() as f64 * 8.0 / interval_s;
        self.effective_capacity = (self.capacity + self.params.alpha * (self.capacity - y)
            - self.params.beta * q_drain)
            .clamp(0.0, self.capacity);
        // Purge silent flows.
        let idle = SimTime::from_secs_f64(self.params.idle_intervals * interval_s);
        let stale: Vec<FlowId> = self
            .allocations
            .iter()
            .filter(|(_, a)| a.last_seen + idle < now)
            .map(|(f, _)| *f)
            .collect();
        for f in stale {
            self.release(f);
        }
        Some(now + self.interval())
    }

    fn name(&self) -> &'static str {
        "d3-switch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_netsim::{LinkParams, Network, NodeId, SchedulingHeader};

    fn setup() -> (Network, pdq_netsim::LinkId, D3SwitchController) {
        let mut net = Network::new();
        let s = net.add_switch("s");
        let h = net.add_host("h");
        let (l, _) = net.add_duplex_link(s, h, LinkParams::default());
        let mut ctl = D3SwitchController::new(D3Params::default());
        ctl.init(SimTime::ZERO, net.link(l));
        (net, l, ctl)
    }

    fn request(flow: u64, desired: f64) -> Packet {
        let mut p = Packet::data(FlowId(flow), NodeId(1), NodeId(0), 0, 1000);
        p.sched = SchedulingHeader::new(1e9);
        p.sched.rtt = 150e-6;
        p.sched.set_desired_rate(desired);
        p.sched.set_granted_rate(f64::INFINITY);
        p
    }

    #[test]
    fn deadline_flow_gets_its_desired_rate_plus_fair_share() {
        let (net, l, mut ctl) = setup();
        let mut p = request(1, 3e8);
        ctl.on_forward(&mut p, SimTime::ZERO, net.link(l));
        assert!(
            p.sched.granted_rate() >= 3e8,
            "desired rate must be reserved"
        );
        assert!(p.sched.granted_rate() <= 1e9 + 1.0);
    }

    #[test]
    fn first_come_first_reserve_starves_later_deadline_flows() {
        let (net, l, mut ctl) = setup();
        // Flow 1 (far deadline, huge demand) grabs most of the link first.
        let mut p1 = request(1, 9e8);
        ctl.on_forward(&mut p1, SimTime::ZERO, net.link(l));
        assert!(p1.sched.granted_rate() >= 9e8);
        // Flow 2 arrives later wanting 5e8: the link cannot reserve it any more, even
        // though flow 2 might have the tighter deadline.
        let mut p2 = request(2, 5e8);
        ctl.on_forward(&mut p2, SimTime::from_micros(10), net.link(l));
        assert!(
            p2.sched.granted_rate() < 5e8,
            "later flow cannot reserve its desired rate: got {}",
            p2.sched.granted_rate()
        );
    }

    #[test]
    fn non_deadline_flows_share_leftover_fairly() {
        let (net, l, mut ctl) = setup();
        // In D3 every sender refreshes its allocation once per RTT, so run two request
        // rounds: the first lets the switch learn all three flows, the second converges
        // to the published allocation (deadline flow keeps its demand + fair share, the
        // best-effort flows split the leftover).
        for round in 0..2 {
            let t = SimTime::from_micros(round * 150);
            let mut p1 = request(1, 6e8);
            ctl.on_forward(&mut p1, t, net.link(l));
            let mut p2 = request(2, 0.0);
            ctl.on_forward(&mut p2, t, net.link(l));
            let mut p3 = request(3, 0.0);
            ctl.on_forward(&mut p3, t, net.link(l));
            if round == 1 {
                assert!(
                    p1.sched.granted_rate() >= 6e8,
                    "{}",
                    p1.sched.granted_rate()
                );
                assert!(p2.sched.granted_rate() > 0.0);
                assert!(p3.sched.granted_rate() > 0.0);
            }
        }
        let total = ctl.allocated();
        assert!(total <= 1e9 + 1.0, "never over-allocate the link: {total}");
    }

    #[test]
    fn term_releases_reservation() {
        let (net, l, mut ctl) = setup();
        let mut p1 = request(1, 8e8);
        ctl.on_forward(&mut p1, SimTime::ZERO, net.link(l));
        let mut term = Packet::control(PacketKind::Term, FlowId(1), NodeId(1), NodeId(0));
        ctl.on_forward(&mut term, SimTime::ZERO, net.link(l));
        assert_eq!(ctl.flow_count(), 0);
        // A later flow can now reserve the full link.
        let mut p2 = request(2, 8e8);
        ctl.on_forward(&mut p2, SimTime::ZERO, net.link(l));
        assert!(p2.sched.granted_rate() >= 8e8);
    }

    #[test]
    fn fair_share_never_negative_even_when_overloaded() {
        let (net, l, mut ctl) = setup();
        for f in 1..=5u64 {
            let mut p = request(f, 4e8);
            ctl.on_forward(&mut p, SimTime::ZERO, net.link(l));
            assert!(p.sched.granted_rate() >= 0.0);
        }
        assert!(ctl.allocated() <= 1e9 + 1.0);
    }

    #[test]
    fn rate_adaptation_reacts_to_queue() {
        let (mut net, l, mut ctl) = setup();
        net.link_mut(l).queue_bytes = 200_000;
        ctl.on_tick(SimTime::from_millis(1), net.link(l));
        assert!(ctl.effective_capacity < 1e9);
        net.link_mut(l).queue_bytes = 0;
        ctl.on_tick(SimTime::from_millis(2), net.link(l));
        assert!(ctl.effective_capacity > 9e8);
    }
}
