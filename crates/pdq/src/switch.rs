//! The PDQ switch: per-egress-link flow controller and rate controller (§3.3).
//!
//! Each switch output link runs one [`PdqSwitchController`]. It keeps a small list of
//! the most critical flows traversing the link (§3.3.1), decides on every forward
//! packet whether the flow may send and at what rate (Algorithm 1 / 2, including Early
//! Start and Dampening), commits the global accept/pause decision when the ACK passes
//! back through the switch (Algorithm 3, including Suppressed Probing), and runs the
//! aggregate rate controller that keeps the queue drained (§3.3.3).

use pdq_netsim::{FlowId, FlowSet, Link, LinkController, LinkId, Packet, PacketKind, SimTime};

use crate::comparator::Criticality;
use crate::params::{PdqParams, DEFAULT_RTT};

/// Rate-controller update period, in multiples of the average RTT (§3.3.3 uses 2).
const RATE_CONTROLLER_INTERVAL_RTTS: f64 = 2.0;
/// The switch keeps the `LIST_FACTOR × κ` most critical flows (the paper stores 2κ).
const LIST_FACTOR: usize = 2;

/// Per-flow state kept by the switch (the `<R_i, P_i, D_i, T_i, RTT_i>` tuple of §3.3.1).
#[derive(Clone, Debug)]
struct FlowEntry {
    flow: FlowId,
    crit: Criticality,
    /// Most recent RTT estimate reported by the sender (seconds).
    rtt: f64,
    /// Rate allocated to the flow (`R_i`, bits/s), committed on the reverse path.
    rate: f64,
    /// Which link has paused the flow (`P_i`), committed on the reverse path.
    paused_by: Option<LinkId>,
}

/// The PDQ per-link switch controller.
pub struct PdqSwitchController {
    params: PdqParams,
    /// This controller's identity (the egress link id), used as the `pauseby` tag.
    my_id: LinkId,
    /// Flow list, sorted most critical first.
    flows: Vec<FlowEntry>,
    /// Aggregate rate budget `C` maintained by the rate controller (bits/s).
    c_rate: f64,
    /// `r_PDQ`: the share of the line rate given to PDQ traffic (bits/s).
    r_pdq: f64,
    /// EWMA of the RTTs reported in scheduling headers (seconds).
    rtt_avg: f64,
    /// The last time the switch accepted a flow that was not sending, with the flow id
    /// and the criticality it advertised (used by Dampening).
    last_nonsending_accept: Option<(FlowId, SimTime, Criticality)>,
    /// Flows seen since the last rate-controller tick that did not fit in the list
    /// (served by the RCP fallback).
    unlisted_seen: FlowSet,
}

impl PdqSwitchController {
    /// Create a controller with the given parameters. The link identity and rate are
    /// learned in [`LinkController::init`].
    pub fn new(params: PdqParams) -> Self {
        let rtt = DEFAULT_RTT.as_secs_f64();
        PdqSwitchController {
            params,
            my_id: LinkId(u32::MAX),
            flows: Vec::new(),
            c_rate: 0.0,
            r_pdq: 0.0,
            rtt_avg: rtt,
            last_nonsending_accept: None,
            unlisted_seen: FlowSet::default(),
        }
    }

    /// Number of flows currently remembered (for tests and diagnostics).
    pub fn tracked_flows(&self) -> usize {
        self.flows.len()
    }

    /// The current aggregate rate budget `C` in bits/s (for tests and diagnostics).
    pub fn current_budget(&self) -> f64 {
        self.c_rate
    }

    fn remove_flow(&mut self, flow: FlowId) {
        self.flows.retain(|e| e.flow != flow);
    }

    fn position(&self, flow: FlowId) -> Option<usize> {
        self.flows.iter().position(|e| e.flow == flow)
    }

    fn sort_flows(&mut self) {
        self.flows.sort_by(|a, b| a.crit.cmp_priority(&b.crit));
    }

    /// κ: the number of flows currently sending on this link.
    fn kappa(&self) -> usize {
        self.flows.iter().filter(|e| e.rate > 0.0).count().max(1)
    }

    /// The maximum list size: `LIST_FACTOR × κ`, at least `min_list_size`, at most `M`.
    fn list_limit(&self) -> usize {
        (LIST_FACTOR * self.kappa())
            .max(self.params.min_list_size)
            .min(self.params.max_switch_flows)
    }

    fn trim_list(&mut self) {
        let limit = self.list_limit();
        if self.flows.len() > limit {
            self.flows.truncate(limit);
        }
    }

    /// Algorithm 2: the bandwidth available to the flow at list index `j`, accounting
    /// for Early Start (nearly-completed more-critical flows do not consume budget).
    fn avail_bw(&self, j: usize) -> f64 {
        let k = self.params.effective_k();
        let mut x = 0.0f64;
        let mut a = 0.0f64;
        for e in self.flows.iter().take(j) {
            let trtt = e.crit.expected_trans_time / e.rtt.max(1e-9);
            if trtt < k && x < k {
                x += trtt;
            } else {
                a += e.rate.max(0.0);
            }
            if a >= self.c_rate {
                return 0.0;
            }
        }
        (self.c_rate - a).max(0.0)
    }

    /// RCP-style fair share for flows that do not fit in the flow list (§3.3.1).
    fn rcp_fallback_rate(&self) -> f64 {
        let allocated: f64 = self.flows.iter().map(|e| e.rate.max(0.0)).sum();
        let leftover = (self.c_rate - allocated).max(0.0);
        leftover / self.unlisted_seen.len().max(1) as f64
    }

    /// Handle a flow that could not be admitted to the flow list. While the list is
    /// below the hard memory cap `M` the flow is simply paused — it keeps probing and
    /// is reconsidered as κ and the criticality ordering evolve. Only once the memory
    /// cap binds does PDQ fall back to RCP-style fair sharing of the leftover bandwidth
    /// (§3.3.1), trading optimality for not requiring per-flow state.
    fn reject_unlisted(&mut self, flow: FlowId, h: &mut pdq_netsim::SchedulingHeader) {
        if self.flows.len() >= self.params.max_switch_flows {
            self.unlisted_seen.insert(flow);
            let fair = self.rcp_fallback_rate();
            h.rate = h.rate.min(fair);
            if h.rate <= 0.0 {
                h.set_pause_by(Some(self.my_id));
            }
        } else {
            h.set_pause_by(Some(self.my_id));
        }
    }

    fn rate_controller_interval(&self) -> SimTime {
        // Two (average) RTTs, clamped to a sane data-center range: transient queueing
        // can inflate sender RTT reports, and an unbounded interval would leave a
        // depressed budget C in place long after the queue has drained.
        let secs = (RATE_CONTROLLER_INTERVAL_RTTS * self.rtt_avg).clamp(50e-6, 1e-3);
        SimTime::from_secs_f64(secs)
    }

    /// Algorithm 1: process a forward-direction packet (SYN / DATA / probe).
    fn algorithm_receive_data(&mut self, pkt: &mut Packet, now: SimTime) {
        let flow = pkt.flow;
        let h = &mut pkt.sched;

        // Track the average RTT reported by senders (used by the rate controller and
        // Suppressed Probing).
        if h.rtt > 0.0 {
            self.rtt_avg = 0.875 * self.rtt_avg + 0.125 * h.rtt;
        }

        // "if P_H = other switch then remove the flow and return".
        if let Some(p) = h.pause_by() {
            if p != self.my_id {
                self.remove_flow(flow);
                return;
            }
        }

        let crit = Criticality::new(h.deadline(), h.expected_trans_time(), flow);
        let rtt = if h.rtt > 0.0 {
            h.rtt
        } else {
            DEFAULT_RTT.as_secs_f64()
        };

        // Locate or admit the flow in the list.
        let idx = match self.position(flow) {
            Some(i) => {
                self.flows[i].crit = crit;
                self.flows[i].rtt = rtt;
                self.sort_flows();
                self.position(flow).expect("entry still present after sort")
            }
            None => {
                let full = self.flows.len() >= self.list_limit();
                let more_critical_than_tail = self
                    .flows
                    .last()
                    .map(|tail| crit.more_critical_than(&tail.crit))
                    .unwrap_or(true);
                if !full || more_critical_than_tail {
                    self.flows.push(FlowEntry {
                        flow,
                        crit,
                        rtt,
                        rate: 0.0,
                        paused_by: None,
                    });
                    self.sort_flows();
                    self.trim_list();
                    match self.position(flow) {
                        Some(i) => i,
                        None => {
                            // Admitted but trimmed right back out: the working set (2κ)
                            // or the memory cap is full of more critical flows.
                            self.reject_unlisted(flow, h);
                            return;
                        }
                    }
                } else {
                    // List full and the flow is not critical enough.
                    self.reject_unlisted(flow, h);
                    return;
                }
            }
        };

        // W = min(Availbw(i), R_H). Leftover slivers below `min_accept_fraction` of the
        // PDQ budget are treated as "no bandwidth": granting them would let paused flows
        // trickle data out of criticality order without finishing meaningfully sooner.
        let avail = self.avail_bw(idx);
        let w = if avail < self.params.min_accept_fraction * self.r_pdq {
            0.0
        } else {
            avail.min(h.rate)
        };
        if w > 0.0 {
            let entry = &self.flows[idx];
            let not_sending = entry.paused_by.is_some() || entry.rate <= 0.0;
            // Dampening (§3.3.2) suppresses rapid flow switching when a burst of flows
            // arrives: after un-pausing one flow, further *equally or less* critical
            // paused flows must wait a short window (their acceptance would transiently
            // overcommit the link because the first flow's rate is not yet committed).
            // A strictly more critical flow is never delayed — preemption must stay
            // fast, and the transient overcommit resolves within an RTT once its rate
            // is committed and the less critical flow is paused again.
            let dampened = not_sending
                && self
                    .last_nonsending_accept
                    .map(|(f, t, c)| {
                        f != flow && now < t + self.params.damping && !crit.more_critical_than(&c)
                    })
                    .unwrap_or(false);
            // §3.3.2: flows are accepted *according to their criticality*. A paused flow
            // is therefore not un-paused while a more critical flow is also waiting to
            // send — otherwise whichever paused flow happens to probe first at a
            // switchover would grab the freed bandwidth out of order.
            let more_critical_waiting =
                not_sending && self.flows[..idx].iter().any(|e| e.rate <= 0.0);
            if dampened || more_critical_waiting {
                // Dampening: the switch very recently accepted another non-sending
                // flow; pause this one for now.
                h.set_pause_by(Some(self.my_id));
                self.flows[idx].paused_by = Some(self.my_id);
            } else {
                h.set_pause_by(None);
                h.rate = w;
                if not_sending {
                    self.last_nonsending_accept = Some((flow, now, crit));
                }
            }
        } else {
            h.set_pause_by(Some(self.my_id));
            self.flows[idx].paused_by = Some(self.my_id);
        }
    }

    /// Algorithm 3: process a reverse-direction packet (SYN-ACK / ACK).
    fn algorithm_receive_ack(&mut self, pkt: &mut Packet) {
        let flow = pkt.flow;
        let h = &mut pkt.sched;
        if let Some(p) = h.pause_by() {
            if p != self.my_id {
                self.remove_flow(flow);
            }
        }
        if h.pause_by().is_some() {
            h.rate = 0.0;
        }
        if let Some(i) = self.position(flow) {
            self.flows[i].paused_by = h.pause_by();
            if self.params.suppressed_probing {
                h.set_inter_probe_rtts(h.inter_probe_rtts().max(self.params.probing_x * i as f64));
            }
            self.flows[i].rate = h.rate;
        }
    }
}

impl LinkController for PdqSwitchController {
    fn init(&mut self, now: SimTime, link: &Link) -> Option<SimTime> {
        self.my_id = link.id;
        // All of the link: PDQ is the only protocol on the network (`r_PDQ`, §3.3.3).
        self.r_pdq = link.rate_bps;
        self.c_rate = self.r_pdq;
        Some(now + self.rate_controller_interval())
    }

    fn on_forward(&mut self, packet: &mut Packet, now: SimTime, _link: &Link) {
        match packet.kind {
            PacketKind::Term => {
                // The flow is finishing (or giving up): forget it immediately so the
                // next most critical flow can be unpaused.
                self.remove_flow(packet.flow);
            }
            k if k.carries_forward_header() => self.algorithm_receive_data(packet, now),
            _ => {}
        }
    }

    fn on_reverse(&mut self, packet: &mut Packet, _now: SimTime, _link: &Link) {
        match packet.kind {
            PacketKind::Ack | PacketKind::SynAck => self.algorithm_receive_ack(packet),
            PacketKind::TermAck => self.remove_flow(packet.flow),
            _ => {}
        }
    }

    fn on_tick(&mut self, now: SimTime, link: &Link) -> Option<SimTime> {
        // Rate controller (§3.3.3): C = max(0, r_PDQ − q / (2 RTT)).
        let q_bits = link.queue_bytes() as f64 * 8.0;
        let window = self.rate_controller_interval().as_secs_f64();
        self.c_rate = (self.r_pdq - q_bits / window.max(1e-9)).max(0.0);
        self.unlisted_seen.clear();
        Some(now + self.rate_controller_interval())
    }

    fn name(&self) -> &'static str {
        "pdq-switch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_netsim::{LinkParams, Network, NodeId, SchedulingHeader};

    const GBPS: f64 = 1e9;

    fn make_link() -> (Network, LinkId) {
        let mut net = Network::new();
        let s = net.add_switch("s");
        let h = net.add_host("h");
        let (l, _) = net.add_duplex_link(s, h, LinkParams::default());
        (net, l)
    }

    fn controller(params: PdqParams) -> (Network, LinkId, PdqSwitchController) {
        let (net, l) = make_link();
        let mut ctl = PdqSwitchController::new(params);
        let first_tick = ctl.init(SimTime::ZERO, net.link(l));
        assert!(first_tick.is_some());
        (net, l, ctl)
    }

    fn fwd_packet(flow: u64, deadline: Option<SimTime>, t: f64, rtt: f64) -> Packet {
        let mut p = Packet::control(PacketKind::Syn, FlowId(flow), NodeId(1), NodeId(0));
        p.sched = SchedulingHeader::new(GBPS);
        p.sched.set_deadline(deadline);
        p.sched.set_expected_trans_time(t);
        p.sched.rtt = rtt;
        p
    }

    fn ack_of(p: &Packet) -> Packet {
        p.make_echo(PacketKind::Ack, 0)
    }

    #[test]
    fn single_flow_accepted_at_full_rate() {
        let (net, l, mut ctl) = controller(PdqParams::full());
        let mut p = fwd_packet(1, None, 0.001, 150e-6);
        ctl.on_forward(&mut p, SimTime::ZERO, net.link(l));
        assert_eq!(p.sched.pause_by(), None);
        assert!((p.sched.rate - GBPS).abs() < 1.0);
        assert_eq!(ctl.tracked_flows(), 1);
    }

    #[test]
    fn less_critical_flow_is_paused_once_first_flow_sends() {
        let (net, l, mut ctl) = controller(PdqParams::full());
        let t0 = SimTime::ZERO;
        // Flow 1 (more critical: smaller T) accepted and committed via its ACK.
        let mut p1 = fwd_packet(1, None, 0.001, 150e-6);
        ctl.on_forward(&mut p1, t0, net.link(l));
        let mut a1 = ack_of(&p1);
        ctl.on_reverse(&mut a1, t0, net.link(l));
        // Flow 2 (less critical) now finds no available bandwidth.
        let mut p2 = fwd_packet(2, None, 0.010, 150e-6);
        ctl.on_forward(&mut p2, t0 + SimTime::from_millis(1), net.link(l));
        assert_eq!(p2.sched.pause_by(), Some(l));
        assert_eq!(p2.sched.rate, GBPS); // rate untouched on the pause branch...
        let mut a2 = ack_of(&p2);
        ctl.on_reverse(&mut a2, t0, net.link(l));
        // ...but the reverse path zeroes the rate for paused flows.
        assert_eq!(a2.sched.rate, 0.0);
        assert_eq!(ctl.tracked_flows(), 2);
    }

    #[test]
    fn more_critical_flow_preempts() {
        let (net, l, mut ctl) = controller(PdqParams::full());
        let t0 = SimTime::ZERO;
        // Long flow accepted first.
        let mut p1 = fwd_packet(1, None, 0.010, 150e-6);
        ctl.on_forward(&mut p1, t0, net.link(l));
        let mut a1 = ack_of(&p1);
        ctl.on_reverse(&mut a1, t0, net.link(l));
        assert!(a1.sched.rate > 0.0);
        // A new, shorter flow arrives: it is more critical, and the long flow's full
        // allocation does not block it because Availbw only counts flows *above* it.
        // Wait past the dampening window so the burst-suppression logic does not bite.
        let later = t0 + SimTime::from_millis(1);
        let mut p2 = fwd_packet(2, None, 0.001, 150e-6);
        ctl.on_forward(&mut p2, later, net.link(l));
        assert_eq!(p2.sched.pause_by(), None, "short flow must be accepted");
        // The long flow's next data packet now sees zero available bandwidth once the
        // short flow's rate is committed.
        let mut a2 = ack_of(&p2);
        ctl.on_reverse(&mut a2, later, net.link(l));
        let mut p1b = fwd_packet(1, None, 0.010, 150e-6);
        p1b.kind = PacketKind::Data;
        ctl.on_forward(&mut p1b, later + SimTime::from_micros(10), net.link(l));
        assert_eq!(p1b.sched.pause_by(), Some(l), "long flow must be preempted");
    }

    #[test]
    fn deadline_flow_beats_shorter_no_deadline_flow() {
        let (net, l, mut ctl) = controller(PdqParams::full());
        let t0 = SimTime::ZERO;
        let mut p1 = fwd_packet(1, None, 0.0001, 150e-6); // tiny, no deadline
        ctl.on_forward(&mut p1, t0, net.link(l));
        let mut a1 = ack_of(&p1);
        ctl.on_reverse(&mut a1, t0, net.link(l));
        let later = t0 + SimTime::from_millis(1);
        let mut p2 = fwd_packet(2, Some(SimTime::from_millis(30)), 0.005, 150e-6);
        ctl.on_forward(&mut p2, later, net.link(l));
        assert_eq!(
            p2.sched.pause_by(),
            None,
            "EDF: deadline flow outranks SJF tie-break"
        );
    }

    #[test]
    fn early_start_admits_next_flow_when_current_is_nearly_done() {
        let mut params = PdqParams::full();
        params.damping = SimTime::ZERO;
        let (net, l, mut ctl) = controller(params);
        let t0 = SimTime::ZERO;
        // Flow 1 is nearly completed: T = 0.1 RTT < K = 2 RTTs.
        let rtt = 150e-6;
        let mut p1 = fwd_packet(1, None, 0.1 * rtt, rtt);
        ctl.on_forward(&mut p1, t0, net.link(l));
        let mut a1 = ack_of(&p1);
        ctl.on_reverse(&mut a1, t0, net.link(l));
        assert!(a1.sched.rate > 0.0);
        // Flow 2 should be admitted as well thanks to Early Start.
        let mut p2 = fwd_packet(2, None, 0.010, rtt);
        ctl.on_forward(&mut p2, t0 + SimTime::from_micros(10), net.link(l));
        assert_eq!(
            p2.sched.pause_by(),
            None,
            "Early Start should admit the next flow"
        );
        assert!(p2.sched.rate > 0.0);
    }

    #[test]
    fn without_early_start_next_flow_waits() {
        let mut params = PdqParams::variant(crate::params::PdqVariant::Basic);
        params.damping = SimTime::ZERO;
        let (net, l, mut ctl) = controller(params);
        let t0 = SimTime::ZERO;
        let rtt = 150e-6;
        let mut p1 = fwd_packet(1, None, 0.1 * rtt, rtt);
        ctl.on_forward(&mut p1, t0, net.link(l));
        let mut a1 = ack_of(&p1);
        ctl.on_reverse(&mut a1, t0, net.link(l));
        let mut p2 = fwd_packet(2, None, 0.010, rtt);
        ctl.on_forward(&mut p2, t0 + SimTime::from_micros(10), net.link(l));
        assert_eq!(
            p2.sched.pause_by(),
            Some(l),
            "PDQ(Basic) must not early-start"
        );
    }

    #[test]
    fn dampening_pauses_second_new_flow_in_a_burst() {
        let (net, l, mut ctl) = controller(PdqParams::full()); // damping = 150 us (1 RTT)
        let t0 = SimTime::ZERO;
        let mut p1 = fwd_packet(1, None, 0.005, 150e-6);
        ctl.on_forward(&mut p1, t0, net.link(l));
        assert_eq!(p1.sched.pause_by(), None);
        // Second flow arrives 10 µs later — within the dampening window. Even though
        // flow 1's rate is not yet committed (so Availbw still looks free), dampening
        // pauses it.
        let mut p2 = fwd_packet(2, None, 0.006, 150e-6);
        ctl.on_forward(&mut p2, t0 + SimTime::from_micros(10), net.link(l));
        assert_eq!(p2.sched.pause_by(), Some(l));
    }

    #[test]
    fn suppressed_probing_sets_inter_probe_time() {
        let (net, l, mut ctl) = controller(PdqParams::full());
        let t0 = SimTime::ZERO;
        // Three flows, committed in criticality order 1, 2, 3.
        for (i, t) in [(1u64, 0.001), (2, 0.002), (3, 0.003)] {
            let mut p = fwd_packet(i, None, t, 150e-6);
            ctl.on_forward(&mut p, t0, net.link(l));
            let mut a = ack_of(&p);
            ctl.on_reverse(&mut a, t0, net.link(l));
        }
        // The least critical flow (index 2) gets I_H >= X * 2 = 0.4 RTTs.
        let mut p3 = fwd_packet(3, None, 0.003, 150e-6);
        ctl.on_forward(&mut p3, t0 + SimTime::from_millis(1), net.link(l));
        let mut a3 = ack_of(&p3);
        ctl.on_reverse(&mut a3, t0 + SimTime::from_millis(1), net.link(l));
        assert!(a3.sched.inter_probe_rtts() >= 0.4 - 1e-9);
        // The most critical flow keeps whatever the sender asked for (zero here).
        let mut p1 = fwd_packet(1, None, 0.001, 150e-6);
        ctl.on_forward(&mut p1, t0 + SimTime::from_millis(1), net.link(l));
        let mut a1 = ack_of(&p1);
        ctl.on_reverse(&mut a1, t0 + SimTime::from_millis(1), net.link(l));
        assert_eq!(a1.sched.inter_probe_rtts(), 0.0);
    }

    #[test]
    fn term_removes_flow_state() {
        let (net, l, mut ctl) = controller(PdqParams::full());
        let mut p = fwd_packet(7, None, 0.001, 150e-6);
        ctl.on_forward(&mut p, SimTime::ZERO, net.link(l));
        assert_eq!(ctl.tracked_flows(), 1);
        let mut term = Packet::control(PacketKind::Term, FlowId(7), NodeId(1), NodeId(0));
        ctl.on_forward(&mut term, SimTime::ZERO, net.link(l));
        assert_eq!(ctl.tracked_flows(), 0);
    }

    #[test]
    fn flow_paused_elsewhere_is_forgotten() {
        let (net, l, mut ctl) = controller(PdqParams::full());
        let mut p = fwd_packet(9, None, 0.001, 150e-6);
        ctl.on_forward(&mut p, SimTime::ZERO, net.link(l));
        assert_eq!(ctl.tracked_flows(), 1);
        // The same flow shows up paused by a different switch.
        let mut p2 = fwd_packet(9, None, 0.001, 150e-6);
        p2.sched.set_pause_by(Some(LinkId(999)));
        ctl.on_forward(&mut p2, SimTime::ZERO, net.link(l));
        assert_eq!(ctl.tracked_flows(), 0);
        // And its header must not be modified by this switch.
        assert_eq!(p2.sched.pause_by(), Some(LinkId(999)));
    }

    #[test]
    fn rcp_fallback_when_hard_cap_reached() {
        let mut params = PdqParams::full();
        params.max_switch_flows = 2;
        params.min_list_size = 1;
        params.damping = SimTime::ZERO;
        let (net, l, mut ctl) = controller(params);
        let t0 = SimTime::ZERO;
        // Two critical flows fill the list.
        for (i, t) in [(1u64, 0.001), (2, 0.002)] {
            let mut p = fwd_packet(i, None, t, 150e-6);
            ctl.on_forward(&mut p, t0, net.link(l));
            let mut a = ack_of(&p);
            ctl.on_reverse(&mut a, t0, net.link(l));
        }
        assert_eq!(ctl.tracked_flows(), 2);
        // A third, less critical flow does not fit: it gets an RCP fair-share rate
        // (here: zero leftover, so it is paused) rather than list admission.
        let mut p3 = fwd_packet(3, None, 0.005, 150e-6);
        ctl.on_forward(&mut p3, t0 + SimTime::from_millis(1), net.link(l));
        assert_eq!(ctl.tracked_flows(), 2);
        assert_eq!(p3.sched.pause_by(), Some(l));
    }

    #[test]
    fn rate_controller_shrinks_budget_when_queue_builds() {
        let (mut net, l, mut ctl) = controller(PdqParams::full());
        assert!((ctl.current_budget() - GBPS).abs() < 1.0);
        // Put 100 KB in the queue and tick: C must drop below the line rate.
        net.link_mut(l).queue_bytes = 100_000;
        let next = ctl.on_tick(SimTime::from_millis(1), net.link(l));
        assert!(next.unwrap() > SimTime::from_millis(1));
        assert!(ctl.current_budget() < GBPS);
        // Empty queue restores the full budget.
        net.link_mut(l).queue_bytes = 0;
        ctl.on_tick(SimTime::from_millis(2), net.link(l));
        assert!((ctl.current_budget() - GBPS).abs() < 1.0);
    }

    /// The full pause/resume state machine of one contended link: a less critical
    /// flow is paused while the critical flow holds the link, keeps probing (and
    /// stays paused), and is resumed at the full rate as soon as the critical flow
    /// terminates.
    #[test]
    fn paused_flow_resumes_after_critical_flow_terminates() {
        let (net, l, mut ctl) = controller(PdqParams::full());
        let t0 = SimTime::ZERO;
        // Flow 1 (critical) is accepted and its rate committed on the reverse path.
        let mut p1 = fwd_packet(1, None, 0.001, 150e-6);
        ctl.on_forward(&mut p1, t0, net.link(l));
        let mut a1 = ack_of(&p1);
        ctl.on_reverse(&mut a1, t0, net.link(l));
        assert!(a1.sched.rate > 0.0);

        // Flow 2 (less critical) arrives: paused, and its ACK zeroes the rate.
        let t1 = t0 + SimTime::from_millis(1);
        let mut p2 = fwd_packet(2, None, 0.010, 150e-6);
        ctl.on_forward(&mut p2, t1, net.link(l));
        assert_eq!(p2.sched.pause_by(), Some(l));
        let mut a2 = ack_of(&p2);
        ctl.on_reverse(&mut a2, t1, net.link(l));
        assert_eq!(a2.sched.rate, 0.0);

        // While flow 1 still holds the link, flow 2's probes keep being paused.
        let t2 = t1 + SimTime::from_millis(1);
        let mut probe = fwd_packet(2, None, 0.010, 150e-6);
        ctl.on_forward(&mut probe, t2, net.link(l));
        assert_eq!(probe.sched.pause_by(), Some(l), "probe must stay paused");
        let mut pa = ack_of(&probe);
        ctl.on_reverse(&mut pa, t2, net.link(l));

        // Flow 1 finishes: its TERM removes the switch state...
        let mut term = Packet::control(PacketKind::Term, FlowId(1), NodeId(1), NodeId(0));
        ctl.on_forward(&mut term, t2 + SimTime::from_micros(10), net.link(l));
        assert_eq!(ctl.tracked_flows(), 1);

        // ...and flow 2's next probe (past the dampening window) is resumed at the
        // full PDQ rate.
        let t3 = t2 + SimTime::from_millis(1);
        let mut resume = fwd_packet(2, None, 0.010, 150e-6);
        ctl.on_forward(&mut resume, t3, net.link(l));
        assert_eq!(resume.sched.pause_by(), None, "flow must resume after TERM");
        assert!((resume.sched.rate - GBPS).abs() < 1.0);
        let mut ra = ack_of(&resume);
        ctl.on_reverse(&mut ra, t3, net.link(l));
        assert!(ra.sched.rate > 0.0);
    }

    #[test]
    fn receiver_capped_rate_is_respected() {
        // If a prior hop (or the receiver) lowered R_H, the switch can only lower it
        // further, never raise it.
        let (net, l, mut ctl) = controller(PdqParams::full());
        let mut p = fwd_packet(1, None, 0.001, 150e-6);
        p.sched.rate = 3e8; // someone upstream capped the flow at 300 Mbps
        ctl.on_forward(&mut p, SimTime::ZERO, net.link(l));
        assert_eq!(p.sched.pause_by(), None);
        assert!(p.sched.rate <= 3e8 + 1.0);
    }
}
