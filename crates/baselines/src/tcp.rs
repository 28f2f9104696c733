//! TCP Reno with a small minimum RTO (the paper's TCP baseline, §5.1).
//!
//! Window-based congestion control: slow start, congestion avoidance, fast retransmit /
//! fast recovery on three duplicate ACKs, and a retransmission timeout with a small
//! floor (to alleviate the incast problem, as suggested by Vasudevan et al. and done in
//! the PDQ paper's TCP baseline). Switches need no controller: plain FIFO tail-drop.

use pdq_netsim::{
    Ctx, Endpoints, FlowId, FlowInfo, FlowSender, GoBackN, HostAgent, NodeId, Pacer, PacerConfig,
    Packet, PacketKind, RestartTimer, SenderStatus, SimTime, TimerKind, MSS_BYTES,
};

/// TCP Reno parameters.
#[derive(Clone, Debug)]
pub struct TcpParams {
    /// Initial congestion window, in segments.
    pub initial_window_segments: u32,
    /// Receive/congestion window cap, in bytes.
    pub max_window_bytes: u64,
    /// RFC 9002 §7.7 sender pacing: spread the window at `gain · cwnd / srtt`
    /// instead of bursting it back to back. `None` (the default) keeps the
    /// historical burst behavior byte for byte.
    pub pacer: Option<PacerConfig>,
}

impl Default for TcpParams {
    fn default() -> Self {
        TcpParams {
            initial_window_segments: 2,
            max_window_bytes: 1 << 20,
            pacer: None,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CcState {
    SlowStart,
    CongestionAvoidance,
    FastRecovery,
}

/// A TCP Reno sender for one flow.
#[derive(Debug)]
pub struct TcpSender {
    params: TcpParams,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    size: u64,

    cwnd: f64,
    ssthresh: f64,
    state: CcState,
    next_seq: u64,
    acked: u64,
    dup_acks: u32,
    recover: u64,
    rtt: f64,
    rttvar: f64,
    syn_acked: bool,
    /// Never [`SenderStatus::Terminated`]: TCP does not give up on a flow.
    status: SenderStatus,
    /// The retransmission timeout, restarted on every ACK of new data.
    rto_timer: RestartTimer,
    rto_backoff: u32,
    pacer: Option<Pacer>,
    pace_token: u64,
}

impl TcpSender {
    /// Create a sender for `flow`.
    pub fn new(params: TcpParams, flow: &FlowInfo) -> Self {
        let mss = MSS_BYTES as f64;
        let rtt = flow.base_rtt.as_secs_f64();
        TcpSender {
            cwnd: params.initial_window_segments as f64 * mss,
            ssthresh: params.max_window_bytes as f64,
            pacer: params.pacer.map(Pacer::new),
            params,
            flow: flow.spec.id,
            src: flow.spec.src,
            dst: flow.spec.dst,
            size: flow.spec.size_bytes,
            state: CcState::SlowStart,
            next_seq: 0,
            acked: 0,
            dup_acks: 0,
            recover: 0,
            rtt,
            rttvar: rtt / 2.0,
            syn_acked: false,
            status: SenderStatus::Active,
            rto_timer: RestartTimer::new(),
            rto_backoff: 0,
            pace_token: 0,
        }
    }

    /// Congestion window in bytes (tests / diagnostics).
    pub fn cwnd_bytes(&self) -> f64 {
        self.cwnd
    }

    fn mss(&self) -> f64 {
        MSS_BYTES as f64
    }

    fn in_flight(&self) -> u64 {
        self.next_seq.saturating_sub(self.acked)
    }

    /// `srtt + 4·rttvar`, backed off, never under the one floor every protocol's
    /// retransmission timeout shares: data-center TCP shrinks it to a few milliseconds
    /// to recover quickly from incast losses.
    fn rto(&self) -> SimTime {
        let base = self.rtt + 4.0 * self.rttvar;
        let backoff = 1u64 << self.rto_backoff.min(6);
        SimTime::from_secs_f64(base * backoff as f64).max(GoBackN::MIN_RTO)
    }

    fn data_packet(&self, seq: u64, now: SimTime) -> Packet {
        let payload = (self.size - seq).min(MSS_BYTES as u64) as u32;
        let mut p = Packet::data(self.flow, self.src, self.dst, seq, payload);
        p.sent_at = now;
        p
    }

    fn send_window(&mut self, ctx: &mut Ctx) {
        if self.status != SenderStatus::Active || !self.syn_acked {
            return;
        }
        let window = self.cwnd.min(self.params.max_window_bytes as f64) as u64;
        // Re-derive the pacing rate from the current window and smoothed RTT
        // before draining (RFC 9002 §7.7: rate = gain · cwnd / srtt).
        if let Some(p) = &mut self.pacer {
            p.set_window(ctx.now(), window, SimTime::from_secs_f64(self.rtt));
        }
        while self.next_seq < self.size && self.in_flight() < window {
            let pkt = self.data_packet(self.next_seq, ctx.now());
            if let Some(p) = &mut self.pacer {
                let wire = pkt.wire_size() as u64;
                if !p.try_send(ctx.now(), wire) {
                    // Out of tokens: arm a pacing timer for the instant the
                    // deficit clears and resume the drain there. TCP's own rule,
                    // not the rate-paced senders' drain: it re-arms on every
                    // blocked call, so the bucket refills at the instants it did.
                    let wait = p.next_ready(ctx.now(), wire) - ctx.now();
                    self.pace_token += 1;
                    ctx.set_timer_after(self.flow, TimerKind::Pacing, wait, self.pace_token);
                    return;
                }
            }
            self.next_seq += pkt.payload as u64;
            ctx.send(pkt);
        }
    }

    fn take_rtt_sample(&mut self, pkt: &Packet, now: SimTime) {
        if pkt.sent_at > SimTime::ZERO && now > pkt.sent_at {
            let sample = (now - pkt.sent_at).as_secs_f64();
            self.rttvar = 0.75 * self.rttvar + 0.25 * (sample - self.rtt).abs();
            self.rtt = 0.875 * self.rtt + 0.125 * sample;
        }
    }

    fn arm_rto(&mut self, ctx: &mut Ctx) {
        let rto = self.rto();
        self.rto_timer
            .arm_after(self.flow, TimerKind::Rto, rto, ctx);
    }
}

impl FlowSender for TcpSender {
    fn status(&self) -> SenderStatus {
        self.status
    }

    fn start(&mut self, ctx: &mut Ctx) {
        if self.size == 0 {
            self.status = SenderStatus::Finished;
            ctx.flow_completed(self.flow);
            return;
        }
        let mut syn = Packet::control(PacketKind::Syn, self.flow, self.src, self.dst);
        syn.sent_at = ctx.now();
        ctx.send(syn);
        self.arm_rto(ctx);
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        if self.status != SenderStatus::Active {
            return;
        }
        match pkt.kind {
            PacketKind::SynAck => {
                self.syn_acked = true;
                self.take_rtt_sample(pkt, ctx.now());
                self.send_window(ctx);
                self.arm_rto(ctx);
            }
            PacketKind::Ack => {
                self.take_rtt_sample(pkt, ctx.now());
                if pkt.ack > self.acked {
                    let newly = pkt.ack - self.acked;
                    self.acked = pkt.ack;
                    self.dup_acks = 0;
                    self.rto_backoff = 0;
                    if self.state == CcState::FastRecovery {
                        if self.acked >= self.recover {
                            self.cwnd = self.ssthresh;
                            self.state = CcState::CongestionAvoidance;
                        } else {
                            // Partial ACK: retransmit the next missing segment.
                            let pkt = self.data_packet(self.acked, ctx.now());
                            ctx.send(pkt);
                        }
                    } else if self.state == CcState::SlowStart {
                        self.cwnd += newly as f64;
                        if self.cwnd >= self.ssthresh {
                            self.state = CcState::CongestionAvoidance;
                        }
                    } else {
                        self.cwnd += self.mss() * newly as f64 / self.cwnd;
                    }
                    self.cwnd = self.cwnd.min(self.params.max_window_bytes as f64);
                    if self.acked >= self.size {
                        self.status = SenderStatus::Finished;
                        ctx.flow_completed(self.flow);
                        return;
                    }
                    self.send_window(ctx);
                    self.arm_rto(ctx);
                } else if self.acked < self.next_seq {
                    self.dup_acks += 1;
                    if self.dup_acks == 3 && self.state != CcState::FastRecovery {
                        // Fast retransmit + fast recovery.
                        self.ssthresh = (self.in_flight() as f64 / 2.0).max(2.0 * self.mss());
                        self.cwnd = self.ssthresh + 3.0 * self.mss();
                        self.state = CcState::FastRecovery;
                        self.recover = self.next_seq;
                        let pkt = self.data_packet(self.acked, ctx.now());
                        ctx.send(pkt);
                    } else if self.state == CcState::FastRecovery {
                        self.cwnd += self.mss();
                        self.send_window(ctx);
                    }
                }
            }
            _ => {}
        }
    }

    /// The RTO, plus pacing when enabled.
    fn on_timer(&mut self, kind: TimerKind, token: u64, ctx: &mut Ctx) {
        if self.status != SenderStatus::Active {
            return;
        }
        if kind == TimerKind::Pacing {
            if token == self.pace_token {
                self.send_window(ctx);
            }
            return;
        }
        if kind != TimerKind::Rto || !self.rto_timer.fire(self.flow, kind, token, ctx) {
            return;
        }
        if !self.syn_acked {
            let mut syn = Packet::control(PacketKind::Syn, self.flow, self.src, self.dst);
            syn.sent_at = ctx.now();
            ctx.send(syn);
        } else if self.acked < self.size && self.in_flight() > 0 {
            // Timeout: multiplicative decrease and go back to slow start.
            self.ssthresh = (self.in_flight() as f64 / 2.0).max(2.0 * self.mss());
            self.cwnd = self.mss();
            self.state = CcState::SlowStart;
            self.next_seq = self.acked;
            self.dup_acks = 0;
            self.rto_backoff += 1;
            self.send_window(ctx);
        }
        self.arm_rto(ctx);
    }
}

/// The per-host TCP agent: one [`TcpSender`] per originating flow while it is
/// active, one receiver per terminating flow. TCP sends no TERM, so a receiver stays
/// for the whole run.
pub struct TcpHostAgent {
    params: TcpParams,
    endpoints: Endpoints<TcpSender>,
}

impl TcpHostAgent {
    /// Create an agent with the given TCP parameters.
    pub fn new(params: TcpParams) -> Self {
        TcpHostAgent {
            params,
            endpoints: Endpoints::default(),
        }
    }
}

impl HostAgent for TcpHostAgent {
    fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
        let s = TcpSender::new(self.params.clone(), flow);
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
    use pdq_netsim::{Action, FlowMap, FlowSpec, SchedulingHeader};

    fn info(size: u64) -> (FlowMap<FlowInfo>, FlowInfo) {
        let fi = FlowInfo {
            spec: FlowSpec::new(1, NodeId(0), NodeId(2), size),
            bottleneck_rate_bps: 1e9,
            nic_rate_bps: 1e9,
            base_rtt: SimTime::from_micros(150),
        };
        let mut m = FlowMap::default();
        m.insert(FlowId(1), fi.clone());
        (m, fi)
    }

    fn synack(now: SimTime) -> Packet {
        let mut p = Packet::control(PacketKind::SynAck, FlowId(1), NodeId(0), NodeId(2));
        p.sent_at = now.saturating_sub(SimTime::from_micros(150));
        p
    }

    fn ack(n: u64, now: SimTime) -> Packet {
        let mut p = Packet::control(PacketKind::Ack, FlowId(1), NodeId(0), NodeId(2));
        p.ack = n;
        p.sent_at = now.saturating_sub(SimTime::from_micros(150));
        p
    }

    fn count_data(actions: &[Action]) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, Action::Send(p) if p.kind == PacketKind::Data))
            .count()
    }

    /// TCP's links run no controller (`install_tcp` installs host agents only), so
    /// its first forward packet leaves the header as built: there is no word for a
    /// controller to read.
    #[test]
    fn first_packet_leaves_the_header_untouched() {
        let (map, fi) = info(100_000);
        let mut s = TcpSender::new(TcpParams::default(), &fi);
        let mut ctx = Ctx::new(SimTime::from_micros(200), &map);
        s.start(&mut ctx);
        let syn = ctx
            .take_actions()
            .into_iter()
            .find_map(|a| match a {
                Action::Send(p) => Some(p),
                _ => None,
            })
            .expect("the SYN");
        assert_eq!(syn.kind, PacketKind::Syn);
        assert_eq!(syn.sched, SchedulingHeader::default());
    }

    #[test]
    fn slow_start_doubles_window_per_rtt() {
        let (map, fi) = info(1_000_000);
        let mut s = TcpSender::new(TcpParams::default(), &fi);
        let t0 = SimTime::from_micros(200);
        let mut ctx = Ctx::new(t0, &map);
        s.start(&mut ctx);
        ctx.take_actions();
        let mut ctx = Ctx::new(t0, &map);
        s.on_packet(&synack(t0), &mut ctx);
        let a = ctx.take_actions();
        assert_eq!(count_data(&a), 2, "initial window of 2 segments");
        // ACK both segments: window grows to 4 -> sends 4 more.
        let mut ctx = Ctx::new(t0 + SimTime::from_micros(300), &map);
        s.on_packet(&ack(2 * MSS_BYTES as u64, ctx.now()), &mut ctx);
        let a = ctx.take_actions();
        assert_eq!(count_data(&a), 4);
        assert!(s.cwnd_bytes() >= 4.0 * MSS_BYTES as f64);
    }

    #[test]
    fn triple_dup_ack_triggers_fast_retransmit() {
        let (map, fi) = info(1_000_000);
        let mut s = TcpSender::new(TcpParams::default(), &fi);
        let t0 = SimTime::from_micros(200);
        let mut ctx = Ctx::new(t0, &map);
        s.start(&mut ctx);
        ctx.take_actions();
        let mut ctx = Ctx::new(t0, &map);
        s.on_packet(&synack(t0), &mut ctx);
        ctx.take_actions();
        // Grow the window a bit so several packets are in flight.
        let mut t = t0;
        for i in 1..=4u64 {
            t += SimTime::from_micros(300);
            let mut c = Ctx::new(t, &map);
            s.on_packet(&ack(i * 2 * MSS_BYTES as u64, t), &mut c);
        }
        let cwnd_before = s.cwnd_bytes();
        let acked_before = 8 * MSS_BYTES as u64;
        // Three duplicate ACKs at the same cumulative value.
        let mut retransmitted = 0;
        for _ in 0..3 {
            t += SimTime::from_micros(50);
            let mut c = Ctx::new(t, &map);
            s.on_packet(&ack(acked_before, t), &mut c);
            retransmitted += count_data(&c.take_actions());
        }
        assert_eq!(retransmitted, 1, "exactly one fast retransmission");
        assert!(s.cwnd_bytes() < cwnd_before, "window must shrink on loss");
    }

    #[test]
    fn rto_resets_to_slow_start() {
        let (map, fi) = info(1_000_000);
        let mut s = TcpSender::new(TcpParams::default(), &fi);
        let t0 = SimTime::from_micros(200);
        let mut ctx = Ctx::new(t0, &map);
        s.start(&mut ctx);
        ctx.take_actions();
        let mut ctx = Ctx::new(t0, &map);
        s.on_packet(&synack(t0), &mut ctx);
        ctx.take_actions();
        let token = s.rto_timer.token();
        let mut ctx = Ctx::new(t0 + SimTime::from_millis(10), &map);
        s.on_timer(TimerKind::Rto, token, &mut ctx);
        assert_eq!(s.cwnd_bytes(), MSS_BYTES as f64);
    }

    #[test]
    fn completion_reports_flow_completed() {
        let (map, fi) = info(2 * MSS_BYTES as u64);
        let mut s = TcpSender::new(TcpParams::default(), &fi);
        let t0 = SimTime::from_micros(200);
        let mut ctx = Ctx::new(t0, &map);
        s.start(&mut ctx);
        ctx.take_actions();
        let mut ctx = Ctx::new(t0, &map);
        s.on_packet(&synack(t0), &mut ctx);
        ctx.take_actions();
        let mut ctx = Ctx::new(t0 + SimTime::from_micros(400), &map);
        s.on_packet(&ack(2 * MSS_BYTES as u64, ctx.now()), &mut ctx);
        assert_eq!(s.status(), SenderStatus::Finished);
        assert!(ctx
            .take_actions()
            .iter()
            .any(|a| matches!(a, Action::FlowCompleted(_))));
    }

    #[test]
    fn pacing_spreads_the_window_instead_of_bursting() {
        let (map, fi) = info(1_000_000);
        let params = TcpParams {
            pacer: Some(PacerConfig {
                gain: 1.25,
                burst_bytes: MSS_BYTES as u64, // one full packet of burst
            }),
            ..TcpParams::default()
        };
        let mut s = TcpSender::new(params, &fi);
        let t0 = SimTime::from_micros(200);
        let mut ctx = Ctx::new(t0, &map);
        s.start(&mut ctx);
        ctx.take_actions();
        let mut ctx = Ctx::new(t0, &map);
        s.on_packet(&synack(t0), &mut ctx);
        let actions = ctx.take_actions();
        // Unpaced TCP would blast both initial segments back to back; the paced
        // sender emits one and arms a pacing timer for the second.
        assert_eq!(count_data(&actions), 1);
        let (at, token) = actions
            .iter()
            .find_map(|a| match a {
                Action::SetTimer {
                    kind: TimerKind::Pacing,
                    at,
                    token,
                    ..
                } => Some((*at, *token)),
                _ => None,
            })
            .expect("a pacing timer must be armed");
        assert!(at > t0);
        // When the timer fires, the drain resumes and the second segment leaves.
        let mut ctx = Ctx::new(at, &map);
        s.on_timer(TimerKind::Pacing, token, &mut ctx);
        assert_eq!(count_data(&ctx.take_actions()), 1);
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

    #[test]
    fn a_finished_sender_is_retired() {
        let (map, fi) = info(2 * MSS_BYTES as u64);
        let mut agent = TcpHostAgent::new(TcpParams::default());
        run(SimTime::ZERO, &map, |ctx| agent.on_flow_arrival(&fi, ctx));
        let t0 = SimTime::from_micros(200);
        let sent = run(t0, &map, |ctx| agent.on_packet(synack(t0), ctx));
        assert_eq!(count_data(&sent), 2);
        let t1 = t0 + SimTime::from_micros(400);
        let done = run(t1, &map, |ctx| {
            agent.on_packet(ack(2 * MSS_BYTES as u64, t1), ctx)
        });
        assert!(done.iter().any(|a| matches!(a, Action::FlowCompleted(_))));
        assert_eq!(agent.endpoints.senders.len(), 0);
        // A late ACK and any stale timer find no sender — exactly what the finished
        // sender answered: nothing.
        let late = t1 + SimTime::from_millis(10);
        assert!(run(late, &map, |ctx| agent
            .on_packet(ack(MSS_BYTES as u64, late), ctx))
        .is_empty());
        for kind in [TimerKind::Rto, TimerKind::Pacing] {
            for token in 0..=4 {
                let actions = run(late, &map, |ctx| {
                    agent.on_timer(FlowId(1), kind, token, ctx)
                });
                assert!(actions.is_empty(), "{kind:?} #{token} acted: {actions:?}");
            }
        }
    }

    #[test]
    fn a_zero_byte_flow_is_never_stored() {
        let (map, fi) = info(0);
        let mut agent = TcpHostAgent::new(TcpParams::default());
        let actions = run(SimTime::ZERO, &map, |ctx| agent.on_flow_arrival(&fi, ctx));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::FlowCompleted(_))));
        assert_eq!(agent.endpoints.senders.len(), 0);
    }

    /// TCP sends no TERM, so its receivers stay after the flow completes.
    #[test]
    fn receivers_stay_after_the_flow_completes() {
        let (map, _) = info(2 * MSS_BYTES as u64);
        let mut agent = TcpHostAgent::new(TcpParams::default());
        let mss = MSS_BYTES;
        let syn = Packet::control(PacketKind::Syn, FlowId(1), NodeId(0), NodeId(2));
        let data = |seq| Packet::data(FlowId(1), NodeId(0), NodeId(2), seq, mss);
        let mut completed = false;
        for packet in [syn, data(0), data(mss as u64)] {
            let actions = run(SimTime::ZERO, &map, |ctx| agent.on_packet(packet, ctx));
            completed |= actions
                .iter()
                .any(|a| matches!(a, Action::FlowCompleted(_)));
            assert_eq!(agent.endpoints.receivers.len(), 1);
        }
        assert!(completed);
    }

    #[test]
    fn tcp_senders_stay_slim() {
        let size = std::mem::size_of::<TcpSender>();
        assert!(size <= 240, "TcpSender grew to {size} bytes");
    }

    #[test]
    fn min_rto_is_respected() {
        let (_, fi) = info(1_000_000);
        let s = TcpSender::new(TcpParams::default(), &fi);
        assert!(s.rto() >= GoBackN::MIN_RTO);
    }
}
