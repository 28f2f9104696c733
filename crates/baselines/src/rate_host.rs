//! Sender and host agent shared by the explicit-rate baselines (RCP and D3).
//!
//! Both protocols pace data at a rate granted by the switches through the scheduling
//! header's granted-rate word; they differ only in what the switches grant and in what
//! the sender requests (D3 deadline flows ask for `remaining_size / time_to_deadline`).
//! The sender is PDQ's [`PacedCore`] — its reliability, header half, drain and TERM —
//! plus the mode's header words, the rate floor and the one-packet-per-gap schedule.
//! The host holds its senders and receivers in an [`Endpoints`], as a PDQ host does: a
//! sender while it is active, a receiver until it has echoed its flow's TERM.

use pdq_netsim::{
    Ctx, Endpoints, FlowId, FlowInfo, FlowSender, HostAgent, PacedCore, PacedFamily, PacerConfig,
    Packet, SchedulingHeader, SenderStatus, SimTime, TimerKind, MSS_BYTES,
};

/// Which explicit-rate protocol a sender speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RateMode {
    /// RCP with exact flow counting: switches grant their fair share.
    Rcp,
    /// D3: switches grant first-come-first-reserve allocations; deadline flows request
    /// `remaining / time_to_deadline` and are quenched when the deadline has passed.
    D3 {
        /// Enable the quenching (early termination) of flows whose deadline passed.
        quenching: bool,
    },
}

/// A rate-paced sender for RCP / D3.
#[derive(Debug)]
pub struct RateSender {
    core: PacedCore,
    mode: RateMode,
}

impl RateSender {
    /// Create a sender for `flow`.
    pub fn new(mode: RateMode, flow: &FlowInfo) -> Self {
        let (size, deadline) = (flow.spec.size_bytes, flow.spec.deadline);
        RateSender {
            core: PacedCore::new(flow, size, deadline, flow.base_rtt.as_secs_f64()),
            mode,
        }
    }

    /// Drive sends through an RFC 9002-style token bucket at the granted rate
    /// instead of the fixed one-packet-per-gap schedule: short token-bounded
    /// bursts are allowed (better WAN pipe utilization), and a mid-gap rate
    /// change re-prices the remaining wait instead of honoring the stale gap.
    pub fn with_pacer(mut self, config: PacerConfig) -> Self {
        self.core = self.core.with_pacer(config);
        self
    }

    /// Currently granted rate in bits/s.
    pub fn rate(&self) -> f64 {
        self.core.rate
    }

    /// Send data if the handshake is done and data is left: through the bucket, or
    /// by the RCP/D3 gap rule — one packet, then a pacing timer `wire_size()·8/rate`
    /// later, uncapped, armed once per send.
    fn send_paced(&mut self, ctx: &mut Ctx) {
        let core = &mut self.core;
        if !core.gbn.syn_acked() || core.gbn.next_seq >= core.limit || core.rate <= 0.0 {
            return; // waiting for the handshake or for ACKs; the RTO covers loss
        }
        if core.paced() {
            return core.drain(&mut self.mode, ctx);
        }
        let wire_bits = core.transmit(&mut self.mode, ctx) as f64 * 8.0;
        let gap = SimTime::from_secs_f64(wire_bits / core.rate);
        core.arm_pacing(ctx.now() + gap, ctx);
    }

    /// D3 quenching, its give-up rule: a deadline flow whose deadline has passed stops
    /// wasting bandwidth.
    fn check_quenching(&mut self, ctx: &mut Ctx) -> bool {
        let now = ctx.now();
        if self.mode != (RateMode::D3 { quenching: true })
            || self.core.remaining_bytes() == 0
            || !self.core.deadline().is_some_and(|dl| quenched(now, dl))
        {
            return false;
        }
        self.core.end(&self.mode, SenderStatus::Terminated, ctx);
        true
    }
}

impl PacedFamily for RateMode {
    /// The request: D3 deadline flows ask for `remaining / time_to_deadline` (RCP asks
    /// for nothing); the grant starts at infinity, and switches only lower it.
    fn stamp(&self, core: &PacedCore, now: SimTime, header: &mut SchedulingHeader) {
        let desired = match (self, core.deadline()) {
            (RateMode::D3 { .. }, Some(dl)) if dl > now => {
                let remaining = core.remaining_bytes() as f64 * 8.0;
                let time_left = (dl - now).as_secs_f64();
                (remaining / time_left).min(core.max_rate)
            }
            _ => 0.0,
        };
        header.set_desired_rate(desired);
        header.set_granted_rate(f64::INFINITY);
    }

    /// The grant, never above `R_max` and never below the rate floor: one packet per
    /// RTT, which is D3's "base rate" and also keeps RCP flows alive under extreme
    /// load.
    fn feedback(&mut self, core: &mut PacedCore, pkt: &Packet) {
        let grant = pkt.sched.granted_rate();
        let max_rate = core.max_rate;
        let granted = if grant.is_finite() { grant } else { max_rate };
        let floor = (MSS_BYTES as f64 * 8.0) / core.gbn.srtt().max(1e-6);
        core.rate = granted.min(max_rate).max(floor).min(max_rate);
    }
}

impl FlowSender for RateSender {
    fn status(&self) -> SenderStatus {
        self.core.status()
    }

    fn start(&mut self, ctx: &mut Ctx) {
        self.core.start(&self.mode, ctx);
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        if self.core.on_ack(&mut self.mode, pkt, ctx)
            && !self.check_quenching(ctx)
            && !self.core.pacing_armed()
        {
            // The RCP/D3 rule: send (or drain) only while no pacing timer is armed.
            self.send_paced(ctx);
        }
    }

    fn on_timer(&mut self, kind: TimerKind, token: u64, ctx: &mut Ctx) {
        if self.core.status() != SenderStatus::Active {
            return;
        }
        match kind {
            TimerKind::Pacing => {
                if !self.core.pacing_fired(token) || self.check_quenching(ctx) {
                    return;
                }
                self.send_paced(ctx);
            }
            TimerKind::Rto => {
                // The RCP/D3 rule: an RTO goes back without testing for a quench.
                if !self.core.gbn.fire_rto(self.core.flow, token, ctx) {
                    return;
                }
                if self.core.go_back(&self.mode, ctx) && !self.core.pacing_armed() {
                    self.send_paced(ctx);
                }
                self.core.gbn.arm_rto(self.core.flow, ctx);
            }
            _ => {}
        }
    }
}

/// D3 quenching: a deadline flow gives up once its deadline has passed.
pub(crate) fn quenched(now: SimTime, deadline: SimTime) -> bool {
    now > deadline
}

/// The host agent for RCP / D3: one [`RateSender`] per originating flow while it is
/// active, one receiver per terminating flow until it has echoed the TERM.
pub struct RateHostAgent {
    mode: RateMode,
    pacer: Option<PacerConfig>,
    endpoints: Endpoints<RateSender>,
}

impl RateHostAgent {
    /// Create an agent speaking `mode`.
    pub fn new(mode: RateMode) -> Self {
        RateHostAgent {
            mode,
            pacer: None,
            endpoints: Endpoints::default(),
        }
    }

    /// Give every sender an RFC 9002-style token bucket (see
    /// [`RateSender::with_pacer`]).
    pub fn with_pacer(mut self, config: PacerConfig) -> Self {
        self.pacer = Some(config);
        self
    }
}

impl HostAgent for RateHostAgent {
    fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
        let mut s = RateSender::new(self.mode, flow);
        if let Some(config) = self.pacer {
            s = s.with_pacer(config);
        }
        self.endpoints.start(flow.spec.id, s, ctx);
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
        self.endpoints.on_packet(&packet, ctx);
    }

    fn on_timer(&mut self, flow: FlowId, kind: TimerKind, token: u64, ctx: &mut Ctx) {
        self.endpoints.on_timer(flow, kind, token, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_netsim::{Action, FlowMap, FlowSpec, NodeId, PacketKind};

    fn info(size: u64, deadline: Option<SimTime>) -> (FlowMap<FlowInfo>, FlowInfo) {
        let mut spec = FlowSpec::new(1, NodeId(0), NodeId(2), size);
        if let Some(d) = deadline {
            spec = spec.with_deadline(d);
        }
        let fi = FlowInfo {
            spec,
            bottleneck_rate_bps: 1e9,
            nic_rate_bps: 1e9,
            base_rtt: SimTime::from_micros(150),
        };
        let mut m = FlowMap::default();
        m.insert(FlowId(1), fi.clone());
        (m, fi)
    }

    fn synack(granted: f64, now: SimTime) -> Packet {
        let mut p = Packet::control(PacketKind::SynAck, FlowId(1), NodeId(0), NodeId(2));
        p.sched = SchedulingHeader::new(1e9);
        p.sched.set_granted_rate(granted);
        p.sent_at = now.saturating_sub(SimTime::from_micros(150));
        p
    }

    #[test]
    fn rcp_sender_uses_the_granted_rate() {
        let (map, fi) = info(100_000, None);
        let mut s = RateSender::new(RateMode::Rcp, &fi);
        let now = SimTime::from_micros(200);
        let mut ctx = Ctx::new(now, &map);
        s.start(&mut ctx);
        ctx.take_actions();
        let mut ctx = Ctx::new(now, &map);
        s.on_packet(&synack(5e8, now), &mut ctx);
        assert!((s.rate() - 5e8).abs() < 1.0);
        let actions = ctx.take_actions();
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Send(p) if p.kind == PacketKind::Data)));
    }

    /// The first forward packet in either mode carries every word the rate
    /// switches read, written from the sender's own state: the grant starts at
    /// infinity (switches only lower it) and the desired rate is D3's request (zero
    /// under RCP).
    #[test]
    fn first_packet_writes_every_word_rate_switches_read() {
        let deadline = SimTime::from_millis(10);
        let now = SimTime::from_micros(200);
        for mode in [RateMode::Rcp, RateMode::D3 { quenching: true }] {
            let (map, fi) = info(500_000, Some(deadline));
            let mut s = RateSender::new(mode, &fi);
            let syn = run(now, &map, |ctx| s.start(ctx))
                .into_iter()
                .find_map(|a| match a {
                    Action::Send(p) => Some(p),
                    _ => None,
                })
                .expect("the SYN");
            assert_eq!(syn.kind, PacketKind::Syn);
            let h = syn.sched;
            assert_eq!(
                (h.rate, h.rtt),
                (s.core.max_rate, s.core.gbn.srtt()),
                "{mode:?}"
            );
            assert_eq!((h.deadline(), h.pause_by()), (Some(deadline), None));
            assert_eq!(h.granted_rate(), f64::INFINITY, "{mode:?}");
            let desired = match mode {
                RateMode::Rcp => 0.0,
                RateMode::D3 { .. } => 500_000.0 * 8.0 / (deadline - now).as_secs_f64(),
            };
            assert_eq!(h.desired_rate(), desired, "{mode:?}");
        }
    }

    #[test]
    fn d3_sender_uses_allocation_and_requests_desired_rate() {
        let deadline = Some(SimTime::from_millis(10));
        let (map, fi) = info(500_000, deadline);
        let mut s = RateSender::new(RateMode::D3 { quenching: true }, &fi);
        let now = SimTime::from_micros(200);
        let mut ctx = Ctx::new(now, &map);
        s.start(&mut ctx);
        let actions = ctx.take_actions();
        // The SYN carries the desired rate = remaining/(deadline - now) ~ 408 Mbps.
        let syn_desired = actions
            .iter()
            .find_map(|a| match a {
                Action::Send(p) if p.kind == PacketKind::Syn => Some(p.sched.desired_rate()),
                _ => None,
            })
            .unwrap();
        assert!(syn_desired > 3.5e8 && syn_desired < 4.5e8, "{syn_desired}");
        let mut ctx = Ctx::new(now, &map);
        s.on_packet(&synack(2e8, now), &mut ctx);
        assert!((s.rate() - 2e8).abs() < 1.0);
    }

    #[test]
    fn d3_quenches_after_deadline() {
        let deadline = Some(SimTime::from_millis(1));
        let (map, fi) = info(500_000, deadline);
        let mut s = RateSender::new(RateMode::D3 { quenching: true }, &fi);
        let start = SimTime::from_micros(200);
        let mut ctx = Ctx::new(start, &map);
        s.start(&mut ctx);
        ctx.take_actions();
        // First feedback arrives after the deadline has already passed.
        let late = SimTime::from_millis(2);
        let mut ctx = Ctx::new(late, &map);
        s.on_packet(&synack(1e8, late), &mut ctx);
        assert_eq!(s.status(), SenderStatus::Terminated);
        let actions = ctx.take_actions();
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::FlowTerminated(f) if *f == FlowId(1))));
    }

    #[test]
    fn rcp_without_quenching_keeps_going_past_deadline() {
        let deadline = Some(SimTime::from_millis(1));
        let (map, fi) = info(500_000, deadline);
        let mut s = RateSender::new(RateMode::Rcp, &fi);
        let late = SimTime::from_millis(2);
        let mut ctx = Ctx::new(late, &map);
        s.start(&mut ctx);
        ctx.take_actions();
        let mut ctx = Ctx::new(late, &map);
        s.on_packet(&synack(1e8, late), &mut ctx);
        assert_eq!(s.status(), SenderStatus::Active);
    }

    #[test]
    fn token_bucket_pacer_bursts_then_arms_one_timer() {
        let (map, fi) = info(100_000, None);
        let mut s = RateSender::new(RateMode::Rcp, &fi).with_pacer(PacerConfig {
            gain: 1.0,
            burst_bytes: 2 * pdq_netsim::MTU_BYTES as u64,
        });
        let now = SimTime::from_micros(200);
        let mut ctx = Ctx::new(now, &map);
        s.start(&mut ctx);
        ctx.take_actions();
        let mut ctx = Ctx::new(now, &map);
        s.on_packet(&synack(5e8, now), &mut ctx);
        let actions = ctx.take_actions();
        // The legacy gap schedule sends exactly one packet per grant; the token
        // bucket drains its two-MTU burst allowance, then arms a single pacing
        // timer for the instant the next packet's deficit clears.
        let data = actions
            .iter()
            .filter(|a| matches!(a, Action::Send(p) if p.kind == PacketKind::Data))
            .count();
        assert_eq!(data, 2);
        let pacing_timers = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::SetTimer {
                        kind: TimerKind::Pacing,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(pacing_timers, 1);
    }

    /// One agent callback at `now`: the actions it queued.
    fn run(
        now: SimTime,
        flows: &FlowMap<FlowInfo>,
        callback: impl FnOnce(&mut Ctx),
    ) -> Vec<Action> {
        let mut ctx = Ctx::new(now, flows);
        callback(&mut ctx);
        ctx.take_actions()
    }

    /// An ACK of `n` bytes carrying grants for both protocols.
    fn ack(n: u64, now: SimTime) -> Packet {
        let mut p = synack(5e8, now);
        p.kind = PacketKind::Ack;
        p.ack = n;
        p
    }

    /// A late ACK and any stale timer for flow 1 find no sender — exactly what the
    /// finished or quenched sender answered: nothing.
    fn assert_ignored_after_retirement(agent: &mut RateHostAgent, map: &FlowMap<FlowInfo>) {
        let late = SimTime::from_millis(20);
        assert!(run(late, map, |ctx| agent.on_packet(ack(1, late), ctx)).is_empty());
        for kind in [TimerKind::Rto, TimerKind::Pacing] {
            for token in 0..=4 {
                let actions = run(late, map, |ctx| agent.on_timer(FlowId(1), kind, token, ctx));
                assert!(actions.is_empty(), "{kind:?} #{token} acted: {actions:?}");
            }
        }
    }

    #[test]
    fn a_finished_sender_is_retired() {
        let (map, fi) = info(2_000, None);
        let mut agent = RateHostAgent::new(RateMode::Rcp);
        run(SimTime::ZERO, &map, |ctx| agent.on_flow_arrival(&fi, ctx));
        let t0 = SimTime::from_micros(200);
        run(t0, &map, |ctx| agent.on_packet(synack(5e8, t0), ctx));
        assert_eq!(agent.endpoints.senders.len(), 1);
        let t1 = t0 + SimTime::from_micros(300);
        let done = run(t1, &map, |ctx| agent.on_packet(ack(2_000, t1), ctx));
        assert!(done
            .iter()
            .any(|a| matches!(a, Action::FlowCompleted(f) if *f == FlowId(1))));
        assert_eq!(agent.endpoints.senders.len(), 0);
        assert_ignored_after_retirement(&mut agent, &map);
    }

    #[test]
    fn a_quenched_sender_is_retired() {
        let (map, fi) = info(500_000, Some(SimTime::from_millis(1)));
        let mut agent = RateHostAgent::new(RateMode::D3 { quenching: true });
        run(SimTime::ZERO, &map, |ctx| agent.on_flow_arrival(&fi, ctx));
        // The first feedback arrives after the deadline has passed.
        let late = SimTime::from_millis(2);
        let quenched = run(late, &map, |ctx| agent.on_packet(synack(1e8, late), ctx));
        assert!(quenched
            .iter()
            .any(|a| matches!(a, Action::FlowTerminated(f) if *f == FlowId(1))));
        assert_eq!(agent.endpoints.senders.len(), 0);
        assert_ignored_after_retirement(&mut agent, &map);
    }

    #[test]
    fn a_zero_byte_flow_is_never_stored() {
        let (map, fi) = info(0, None);
        let mut agent = RateHostAgent::new(RateMode::Rcp);
        let actions = run(SimTime::ZERO, &map, |ctx| agent.on_flow_arrival(&fi, ctx));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::FlowCompleted(_))));
        assert_eq!(agent.endpoints.senders.len(), 0);
    }

    /// The destination's side: a receiver is created on the flow's first packet and,
    /// once it has echoed the TERM, dropped — under RCP and D3 alike.
    #[test]
    fn the_term_echo_retires_the_receiver() {
        use PacketKind::{Ack, Data, Syn, SynAck, Term, TermAck};
        let (map, _) = info(3_000, None);
        let forward = |kind, seq, payload| match kind {
            Data => Packet::data(FlowId(1), NodeId(0), NodeId(2), seq, payload),
            _ => Packet::control(kind, FlowId(1), NodeId(0), NodeId(2)),
        };
        for mode in [RateMode::Rcp, RateMode::D3 { quenching: true }] {
            let mut agent = RateHostAgent::new(mode);
            let mut got = Vec::new();
            for packet in [
                forward(Syn, 0, 0),
                forward(Data, 0, 1_500),
                forward(Data, 1_500, 1_500),
                forward(Term, 3_000, 0),
            ] {
                for a in run(SimTime::ZERO, &map, |ctx| agent.on_packet(packet, ctx)) {
                    if let Action::Send(echo) = a {
                        got.push((echo.kind, echo.ack, agent.endpoints.receivers.len()));
                    }
                }
            }
            let want = [
                (SynAck, 0, 1),
                (Ack, 1_500, 1),
                (Ack, 3_000, 1),
                (TermAck, 3_000, 0),
            ];
            assert_eq!(got, want, "{mode:?}");
        }
    }

    #[test]
    fn rate_senders_stay_slim() {
        let size = std::mem::size_of::<RateSender>();
        assert!(size <= 200, "RateSender grew to {size} bytes");
    }

    #[test]
    fn granted_rate_never_below_floor_or_above_max() {
        let (map, fi) = info(100_000, None);
        let mut s = RateSender::new(RateMode::Rcp, &fi);
        let now = SimTime::from_micros(200);
        let mut ctx = Ctx::new(now, &map);
        s.start(&mut ctx);
        ctx.take_actions();
        let mut ctx = Ctx::new(now, &map);
        s.on_packet(&synack(0.0, now), &mut ctx);
        assert!(s.rate() > 0.0, "rate floor keeps the flow alive");
        let mut ctx = Ctx::new(now, &map);
        s.on_packet(&synack(5e12, now), &mut ctx);
        assert!(s.rate() <= 1e9 + 1.0, "never exceed the path rate");
        let _ = ctx.take_actions();
    }
}
