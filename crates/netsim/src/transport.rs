//! What every transport protocol shares. PDQ and its RCP, D3 and TCP baselines
//! differ in what the switches grant and in what a sender asks for, not in how a
//! flow's bytes get across:
//!
//! * [`Receiver`] — the receiving end of every flow;
//! * [`SenderStatus`] and [`FlowSender`] — what a per-flow sender tells its host;
//! * [`Endpoints`] — a host's senders and receivers;
//! * [`GoBackN`] — the reliability of the rate-paced senders (PDQ, RCP, D3). TCP keeps
//!   its own Reno window and RTO backoff;
//! * [`PacedCore`] — the sender core those three families embed: the header half they
//!   share, the start, the ACK prefix, the one token-bucket drain and the TERM. Each
//!   family keeps its own header words, unpaced gap schedule and give-up rule, and
//!   hands them to the core as a [`PacedFamily`].

use std::collections::hash_map::Entry;

use crate::agent::{Ctx, FlowInfo};
use crate::event::TimerKind;
use crate::ids::{FlowId, FlowMap, NodeId};
use crate::pacer::{Pacer, PacerConfig};
use crate::packet::{Packet, PacketKind, SchedulingHeader, CONTROL_PACKET_BYTES, MSS_BYTES};
use crate::time::SimTime;
use crate::timer::RestartTimer;

/// Per-flow receiver state. The receiver echoes each forward packet's scheduling
/// header with a cumulative in-order ACK, and reports the flow complete once every
/// byte has arrived — except for an M-PDQ subflow, whose sender reports.
#[derive(Debug)]
pub struct Receiver {
    /// Total application bytes expected.
    size: u64,
    /// Contiguous bytes received so far: the cumulative ACK.
    received: u64,
    /// The highest rate the receiver can absorb (bits/s). Every echo but the TERM's
    /// carries the header's rate capped here, so a PDQ sender never overruns its
    /// receiver.
    max_rate: f64,
    /// True for an M-PDQ subflow: its sender reports completion instead (re-balancing
    /// changes subflow sizes, so only the sender knows when a subflow is done).
    is_subflow: bool,
    completed: bool,
}

impl Receiver {
    /// Receiver state for a flow of `size` bytes.
    pub(crate) fn new(size: u64, max_rate: f64, is_subflow: bool) -> Self {
        Receiver {
            size,
            received: 0,
            max_rate,
            is_subflow,
            completed: false,
        }
    }

    /// Handle a forward packet of this receiver's flow, emitting the echo.
    pub(crate) fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        let kind = match pkt.kind {
            PacketKind::Syn => PacketKind::SynAck,
            PacketKind::Data => {
                // Out-of-order or duplicate data is ignored (go-back-N); the cumulative
                // ACK tells the sender where to resume.
                if pkt.seq == self.received {
                    self.received += pkt.payload as u64;
                }
                PacketKind::Ack
            }
            PacketKind::Probe => PacketKind::Ack,
            PacketKind::Term => PacketKind::TermAck,
            _ => return,
        };
        let mut echo = pkt.make_echo(kind, self.received);
        if kind != PacketKind::TermAck && echo.sched.rate > self.max_rate {
            echo.sched.rate = self.max_rate;
        }
        ctx.send(echo);
        if pkt.kind == PacketKind::Data
            && self.received >= self.size
            && !self.completed
            && !self.is_subflow
        {
            self.completed = true;
            ctx.flow_completed(pkt.flow);
        }
    }
}

/// Why a sender stopped serving its flow, or that it has not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SenderStatus {
    /// Still transferring.
    Active,
    /// All assigned bytes acknowledged.
    Finished,
    /// Gave up: PDQ's Early Termination, D3's quenching.
    Terminated,
}

/// A per-flow sender, as its host's [`Endpoints`] drive it. Once it leaves
/// [`SenderStatus::Active`] it ignores every later packet and timer.
pub trait FlowSender {
    /// Current status.
    fn status(&self) -> SenderStatus;
    /// Start the flow: send the SYN (or finish at once when there is nothing to send).
    fn start(&mut self, ctx: &mut Ctx);
    /// Handle a reverse packet of this sender's flow.
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx);
    /// Handle a timer of this sender's flow.
    fn on_timer(&mut self, kind: TimerKind, token: u64, ctx: &mut Ctx);
}

/// A host's transport endpoints: the senders of the flows it originates and the
/// receivers of the flows it terminates.
///
/// A sender is held while it is active, and dropped by the event that ends it. An
/// M-PDQ subflow's sender stays, because its host's completion check and re-balancer
/// read it; that host drops it once the parent reports. A receiver is created on its
/// flow's first packet, caps every echoed rate at the flow's bottleneck, and is dropped
/// once it has echoed the flow's TERM: a sender sends the TERM last, once, and every
/// packet of a flow takes the same FIFO path, so nothing of the flow arrives after it
/// (a lost TERM leaves its receiver in place, which is harmless). Every TCP receiver
/// stays, as TCP sends no TERM.
pub struct Endpoints<S> {
    /// The senders held, by flow.
    pub senders: FlowMap<S>,
    /// The receivers held, by flow.
    pub receivers: FlowMap<Receiver>,
}

impl<S> Default for Endpoints<S> {
    fn default() -> Self {
        Endpoints {
            senders: FlowMap::default(),
            receivers: FlowMap::default(),
        }
    }
}

impl<S: FlowSender> Endpoints<S> {
    /// Start `sender` on `flow` and hold it while it is active. Returns true if it
    /// finished inside its start.
    pub fn start(&mut self, flow: FlowId, mut sender: S, ctx: &mut Ctx) -> bool {
        sender.start(ctx);
        let ended = sender.status() != SenderStatus::Active;
        if !ended || is_subflow(flow, ctx) {
            self.senders.insert(flow, sender);
        }
        ended
    }

    /// Deliver `packet` to its endpoint here: a reverse packet to its flow's sender, a
    /// forward one to its flow's receiver. Returns true if this packet ended the sender.
    pub fn on_packet(&mut self, packet: &Packet, ctx: &mut Ctx) -> bool {
        if packet.reverse() {
            return self.drive(packet.flow, ctx, |s, ctx| s.on_packet(packet, ctx));
        }
        let receiver = match self.receivers.entry(packet.flow) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let Some(info) = ctx.flow(packet.flow) else {
                    return false;
                };
                let (size, max_rate) = (info.spec.size_bytes, info.bottleneck_rate_bps);
                e.insert(Receiver::new(size, max_rate, info.spec.parent.is_some()))
            }
        };
        receiver.on_packet(packet, ctx);
        if packet.kind == PacketKind::Term {
            self.receivers.remove(&packet.flow);
        }
        false
    }

    /// Deliver a timer to `flow`'s sender. Returns true if this timer ended it.
    pub fn on_timer(&mut self, flow: FlowId, kind: TimerKind, token: u64, ctx: &mut Ctx) -> bool {
        self.drive(flow, ctx, |s, ctx| s.on_timer(kind, token, ctx))
    }

    /// Hand `flow`'s sender, if it is held and active, to `event`. Returns true if the
    /// event ended it; the sender is then dropped, unless it serves an M-PDQ subflow.
    fn drive(&mut self, flow: FlowId, ctx: &mut Ctx, event: impl FnOnce(&mut S, &mut Ctx)) -> bool {
        let Some(sender) = self.senders.get_mut(&flow) else {
            return false;
        };
        if sender.status() != SenderStatus::Active {
            return false; // a finished subflow's: it ignores the event
        }
        event(sender, ctx);
        if sender.status() == SenderStatus::Active {
            return false;
        }
        if !is_subflow(flow, ctx) {
            self.senders.remove(&flow);
        }
        true
    }
}

/// True if `flow` is an M-PDQ subflow.
fn is_subflow(flow: FlowId, ctx: &Ctx) -> bool {
    ctx.flow(flow)
        .is_some_and(|info| info.spec.parent.is_some())
}

/// Go-back-N reliability for a rate-paced sender: the send and ACK points, the
/// smoothed RTT, fast retransmit and the retransmission timeout (RTO).
///
/// The receiver ignores out-of-order data and repeats its cumulative ACK, so a loss
/// shows as duplicate ACKs. Three of them rewind the send point to the ACK point, once
/// per window: no further fast retransmit until the ACK point passes `recover`, the
/// send point at the rewind — otherwise the duplicate ACKs of the retransmissions
/// themselves would rewind again and again. A lost retransmission, or a lost SYN, is
/// the RTO's: `max(3·srtt, MIN_RTO)`, restarted by the handshake and by every ACK of
/// new data, on a [`RestartTimer`].
#[derive(Debug)]
pub struct GoBackN {
    /// Next new byte to send. The sender advances it as it transmits; a fast
    /// retransmit, or the sender's RTO handler, sets it back to the ACK point.
    pub next_seq: u64,
    /// Highest cumulative ACK received.
    acked: u64,
    /// Smoothed RTT estimate, seconds.
    srtt: f64,
    /// No further fast retransmit until `acked` passes this point.
    recover: u64,
    /// Duplicate ACKs since the ACK point last moved or the last fast retransmit.
    dup_acks: u32,
    /// True once the SYN-ACK has been received.
    syn_acked: bool,
    rto: RestartTimer,
}

impl GoBackN {
    /// The RTO floor, and TCP's (`pdq_baselines::tcp`), which has a Reno RTO of its own.
    pub const MIN_RTO: SimTime = SimTime::from_millis(2);

    /// Nothing sent yet; the RTT estimate starts at `srtt` seconds.
    pub fn new(srtt: f64) -> Self {
        GoBackN {
            next_seq: 0,
            acked: 0,
            srtt,
            recover: 0,
            dup_acks: 0,
            syn_acked: false,
            rto: RestartTimer::new(),
        }
    }

    /// Highest cumulative ACK received.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Smoothed RTT estimate, seconds.
    pub fn srtt(&self) -> f64 {
        self.srtt
    }

    /// True once the SYN-ACK has been received.
    pub fn syn_acked(&self) -> bool {
        self.syn_acked
    }

    /// The token the live RTO fires with.
    pub fn rto_token(&self) -> u64 {
        self.rto.token()
    }

    /// Take a SYN-ACK or ACK of `flow`: sample the RTT, note the handshake, then move
    /// the ACK point or count a duplicate ACK (fast retransmit on the third). The RTO
    /// restarts on the handshake and on every ACK of new data.
    pub fn on_ack(&mut self, flow: FlowId, pkt: &Packet, ctx: &mut Ctx) {
        let now = ctx.now();
        if pkt.sent_at > SimTime::ZERO && now > pkt.sent_at {
            let sample = (now - pkt.sent_at).as_secs_f64();
            self.srtt = 0.875 * self.srtt + 0.125 * sample;
        }
        if pkt.kind == PacketKind::SynAck {
            self.syn_acked = true;
            self.arm_rto(flow, ctx);
        }
        if pkt.ack > self.acked {
            self.acked = pkt.ack;
            self.dup_acks = 0;
            self.arm_rto(flow, ctx);
        } else if pkt.ack == self.acked && self.acked < self.next_seq {
            self.dup_acks += 1;
            if self.dup_acks >= 3 && self.acked >= self.recover {
                self.recover = self.next_seq;
                self.next_seq = self.acked;
                self.dup_acks = 0;
            }
        }
    }

    /// Arm (or restart) `flow`'s RTO: `max(3·srtt, MIN_RTO)` from now.
    pub fn arm_rto(&mut self, flow: FlowId, ctx: &mut Ctx) {
        let rto = SimTime::from_secs_f64(3.0 * self.srtt).max(Self::MIN_RTO);
        self.rto.arm_after(flow, TimerKind::Rto, rto, ctx);
    }

    /// Handle a firing of `flow`'s RTO: true exactly when it is the live deadline, and
    /// the sender should act on it (see [`RestartTimer::fire`]).
    pub fn fire_rto(&mut self, flow: FlowId, token: u64, ctx: &mut Ctx) -> bool {
        self.rto.fire(flow, TimerKind::Rto, token, ctx)
    }
}

/// What a rate-paced family adds to its [`PacedCore`]: its words of the forward
/// header, how it reads the switches' feedback, and what it notes per data packet.
pub trait PacedFamily {
    /// Write this family's words into a forward header built at `now`.
    fn stamp(&self, core: &PacedCore, now: SimTime, header: &mut SchedulingHeader);
    /// Set [`PacedCore::rate`] from a SYN-ACK's or ACK's feedback (after go-back-N).
    fn feedback(&mut self, core: &mut PacedCore, pkt: &Packet);
    /// A data packet of `payload` bytes has just been sent at `now`.
    fn on_sent(&mut self, _payload: u32, _now: SimTime) {}
}

/// The sender core the rate-paced families (PDQ, RCP, D3) embed: the flow's
/// endpoints and deadline, `R_max` and the granted rate, [`GoBackN`], the status, the
/// pacing timer and the optional token bucket; the core's half of every forward
/// header, the start, the ACK prefix, the one token-bucket drain and the TERM. What
/// is a family's own stays in the family, which hands itself to the core's methods as
/// a [`PacedFamily`].
#[derive(Debug)]
pub struct PacedCore {
    /// The flow served.
    pub flow: FlowId,
    src: NodeId,
    dst: NodeId,
    /// The deadline when `has_deadline`: an `Option<SimTime>` split so that its flag
    /// packs beside the node ids (the senders' size pins).
    deadline: SimTime,
    has_deadline: bool,
    /// Bytes to deliver: the flow's size, or an M-PDQ subflow's share.
    pub limit: u64,
    /// `R_max`: min(sender NIC rate, path bottleneck), bits/s.
    pub max_rate: f64,
    /// The granted sending rate, bits/s (0 while paused).
    pub rate: f64,
    /// The send and ACK points, the smoothed RTT and the retransmission timeout.
    pub gbn: GoBackN,
    status: SenderStatus,
    /// Token of the latest pacing timer: a `u32` packs beside the node ids, and a flow
    /// would have to arm 2³² pacing timers to wrap it.
    pacing_token: u32,
    /// When the armed pacing timer is due; [`SimTime::MAX`] while none is armed.
    pacing_at: SimTime,
    pacer: Option<Pacer>,
}

impl PacedCore {
    /// A core for `flow`, responsible for `limit` bytes of it under `deadline`, with
    /// its RTT estimate starting at `srtt` seconds.
    pub fn new(flow: &FlowInfo, limit: u64, deadline: Option<SimTime>, srtt: f64) -> Self {
        PacedCore {
            flow: flow.spec.id,
            src: flow.spec.src,
            dst: flow.spec.dst,
            deadline: deadline.unwrap_or(SimTime::MAX),
            has_deadline: deadline.is_some(),
            limit,
            max_rate: flow.bottleneck_rate_bps.min(flow.nic_rate_bps),
            rate: 0.0,
            gbn: GoBackN::new(srtt),
            status: SenderStatus::Active,
            pacing_token: 0,
            pacing_at: SimTime::MAX,
            pacer: None,
        }
    }

    /// Pace data through an RFC 9002-style token bucket instead of a gap schedule.
    pub fn with_pacer(mut self, config: PacerConfig) -> Self {
        self.pacer = Some(Pacer::new(config));
        self
    }

    /// The deadline the sender works to, if any.
    pub fn deadline(&self) -> Option<SimTime> {
        self.has_deadline.then_some(self.deadline)
    }

    /// Current status.
    pub fn status(&self) -> SenderStatus {
        self.status
    }

    /// True when a token bucket paces the data.
    pub fn paced(&self) -> bool {
        self.pacer.is_some()
    }

    /// True while a pacing timer is armed.
    pub fn pacing_armed(&self) -> bool {
        self.pacing_at != SimTime::MAX
    }

    /// Bytes not yet acknowledged.
    pub fn remaining_bytes(&self) -> u64 {
        self.limit.saturating_sub(self.gbn.acked())
    }

    /// A forward packet of `kind` (a data packet carries the next bytes from the send
    /// point): the core's half of its header — `R_max`, the smoothed RTT, the deadline
    /// and `sent_at` — then `family`'s.
    pub fn packet<F: PacedFamily>(&self, family: &F, kind: PacketKind, now: SimTime) -> Packet {
        let (flow, src, dst) = (self.flow, self.src, self.dst);
        let mut p = match kind {
            PacketKind::Data => {
                Packet::data(flow, src, dst, self.gbn.next_seq, self.next_payload())
            }
            _ => Packet::control(kind, flow, src, dst),
        };
        p.sent_at = now;
        p.sched.rate = self.max_rate;
        p.sched.rtt = self.gbn.srtt();
        p.sched.set_deadline(self.deadline());
        family.stamp(self, now, &mut p.sched);
        p
    }

    /// Start the flow: send the SYN and arm the RTO, or end at once when there is
    /// nothing to send. True if the SYN went out.
    pub fn start<F: PacedFamily>(&mut self, family: &F, ctx: &mut Ctx) -> bool {
        if self.limit == 0 {
            self.end(family, SenderStatus::Finished, ctx);
            return false;
        }
        ctx.send(self.packet(family, PacketKind::Syn, ctx.now()));
        self.gbn.arm_rto(self.flow, ctx);
        true
    }

    /// The ACK prefix: an active sender takes a SYN-ACK or ACK into go-back-N, then
    /// `family` takes its feedback, and the flow completes once every byte is
    /// acknowledged. True if the sender goes on: it took the packet and is active.
    pub fn on_ack<F: PacedFamily>(&mut self, family: &mut F, pkt: &Packet, ctx: &mut Ctx) -> bool {
        if self.status != SenderStatus::Active
            || !matches!(pkt.kind, PacketKind::SynAck | PacketKind::Ack)
        {
            return false;
        }
        self.gbn.on_ack(self.flow, pkt, ctx);
        family.feedback(self, pkt);
        if self.gbn.acked() >= self.limit && self.gbn.syn_acked() {
            self.end(family, SenderStatus::Finished, ctx);
            return false;
        }
        true
    }

    /// Send the next data packet now. Returns its wire size.
    pub fn transmit<F: PacedFamily>(&mut self, family: &mut F, ctx: &mut Ctx) -> u32 {
        let pkt = self.packet(family, PacketKind::Data, ctx.now());
        let (payload, wire) = (pkt.payload, pkt.wire_size());
        ctx.send(pkt);
        self.gbn.next_seq += payload as u64;
        family.on_sent(payload, ctx.now());
        wire
    }

    /// The token-bucket drain: send data while the bucket, refilled at the granted
    /// rate, holds the next packet's wire size; then arm a pacing timer for the instant
    /// its deficit clears, unless one is armed for an earlier instant.
    pub fn drain<F: PacedFamily>(&mut self, family: &mut F, ctx: &mut Ctx) {
        let (now, rate) = (ctx.now(), self.rate);
        self.pacer.as_mut().expect("paced").set_rate_bps(now, rate);
        while self.gbn.next_seq < self.limit {
            let wire = (self.next_payload() + CONTROL_PACKET_BYTES) as u64;
            let pacer = self.pacer.as_mut().expect("paced");
            if !pacer.try_send(now, wire) {
                let at = pacer.next_ready(now, wire);
                return self.pace_by(at, ctx);
            }
            self.transmit(family, ctx);
        }
    }

    /// Arm the pacing timer for `at`, superseding any armed one.
    pub fn arm_pacing(&mut self, at: SimTime, ctx: &mut Ctx) {
        self.pacing_token = self.pacing_token.wrapping_add(1);
        self.pacing_at = at;
        let token = u64::from(self.pacing_token);
        ctx.set_timer_at(self.flow, TimerKind::Pacing, at, token);
    }

    /// Arm the pacing timer for `at` unless one is armed for no later instant.
    pub fn pace_by(&mut self, at: SimTime, ctx: &mut Ctx) {
        if !self.pacing_armed() || at < self.pacing_at {
            self.arm_pacing(at, ctx);
        }
    }

    /// A pacing timer fired with `token`: true, and no timer is armed any more, if it
    /// is the armed one; a superseded one acts on nothing.
    pub fn pacing_fired(&mut self, token: u64) -> bool {
        let live = token == u64::from(self.pacing_token);
        if live {
            self.pacing_at = SimTime::MAX;
        }
        live
    }

    /// Go back after an RTO: resend the SYN while the handshake is not done, else
    /// rewind the send point to the ACK point. True if it rewound.
    pub fn go_back<F: PacedFamily>(&mut self, family: &F, ctx: &mut Ctx) -> bool {
        if !self.gbn.syn_acked() {
            ctx.send(self.packet(family, PacketKind::Syn, ctx.now()));
            return false;
        }
        let rewind = self.gbn.acked() < self.limit;
        if rewind {
            self.gbn.next_seq = self.gbn.acked();
        }
        rewind
    }

    /// End the flow with `status`: [`SenderStatus::Finished`] once every byte is
    /// acknowledged, [`SenderStatus::Terminated`] when the family gives up. The TERM
    /// lets the switches drop the flow at once.
    pub fn end<F: PacedFamily>(&mut self, family: &F, status: SenderStatus, ctx: &mut Ctx) {
        debug_assert_eq!(
            self.status,
            SenderStatus::Active,
            "{:?} ended twice",
            self.flow
        );
        self.status = status;
        ctx.send(self.packet(family, PacketKind::Term, ctx.now()));
        match status {
            SenderStatus::Finished => ctx.flow_completed(self.flow),
            _ => ctx.flow_terminated(self.flow),
        }
    }

    /// The payload of the next data packet.
    fn next_payload(&self) -> u32 {
        (self.limit - self.gbn.next_seq).min(MSS_BYTES as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Action, FlowInfo};
    use crate::ids::NodeId;
    use crate::packet::MSS_BYTES;

    const FLOW: FlowId = FlowId(1);

    /// Run `call` in a callback at `now`, returning the actions it queued.
    fn run<R>(now: SimTime, call: impl FnOnce(&mut Ctx) -> R) -> (R, Vec<Action>) {
        let flows: FlowMap<FlowInfo> = FlowMap::default();
        let mut ctx = Ctx::new(now, &flows);
        let out = call(&mut ctx);
        (out, ctx.take_actions())
    }

    fn data(seq: u64, payload: u32) -> Packet {
        let mut p = Packet::data(FLOW, NodeId(0), NodeId(1), seq, payload);
        p.sched.rate = 1e9;
        p.sched.set_expected_trans_time(0.5);
        p
    }

    fn control(kind: PacketKind) -> Packet {
        let mut p = Packet::control(kind, FLOW, NodeId(0), NodeId(1));
        p.sched.rate = 1e9;
        p.sched.set_expected_trans_time(0.123);
        p
    }

    /// Each row: a receiver for `size` bytes (an M-PDQ subflow's when `subflow`) is fed
    /// `packets` and must echo `(kind, cumulative ACK)` for each, reporting the flow
    /// complete `completions` times. Every row runs on a receiver capped at 100 Mbit/s
    /// and on an uncapped one: each echo carries its packet's header back, with the
    /// 1 Gbit/s rate capped at the receiver's maximum — except on the TERM's echo.
    #[test]
    fn receivers_echo_ack_and_complete() {
        use PacketKind::{Ack, Probe, Syn, SynAck, Term, TermAck};
        type Row = (
            &'static str,
            u64,
            bool,
            Vec<Packet>,
            Vec<(PacketKind, u64)>,
            usize,
        );
        let rows: Vec<Row> = vec![
            (
                "syn",
                10_000,
                false,
                vec![control(Syn)],
                vec![(SynAck, 0)],
                0,
            ),
            (
                "in-order data advances the ACK and completes",
                3_000,
                false,
                vec![data(0, 1_500), data(1_500, 1_500)],
                vec![(Ack, 1_500), (Ack, 3_000)],
                1,
            ),
            (
                "a gap repeats the ACK",
                6_000,
                false,
                vec![data(0, 1_500), data(3_000, 1_500)],
                vec![(Ack, 1_500), (Ack, 1_500)],
                0,
            ),
            (
                "a gap before any data",
                10_000,
                false,
                vec![data(5_000, 1_000)],
                vec![(Ack, 0)],
                0,
            ),
            (
                "a duplicate completes nothing twice",
                2_000,
                false,
                vec![data(0, 1_000), data(1_000, 1_000), data(1_000, 1_000)],
                vec![(Ack, 1_000), (Ack, 2_000), (Ack, 2_000)],
                1,
            ),
            (
                "a subflow's sender reports",
                1_000,
                true,
                vec![data(0, 1_000)],
                vec![(Ack, 1_000)],
                0,
            ),
            (
                "probe and term",
                1_000,
                false,
                vec![control(Probe), control(Term)],
                vec![(Ack, 0), (TermAck, 0)],
                0,
            ),
        ];
        for max_rate in [1e8, f64::INFINITY] {
            for (name, size, subflow, packets, want, completions) in &rows {
                let mut r = Receiver::new(*size, max_rate, *subflow);
                let mut echoes = Vec::new();
                let mut completed = 0;
                for pkt in packets {
                    let ((), actions) = run(SimTime::ZERO, |ctx| r.on_packet(pkt, ctx));
                    for action in actions {
                        match action {
                            Action::Send(echo) => {
                                assert!(echo.reverse(), "{name}: {echo:?}");
                                assert_eq!((echo.seq, echo.sent_at), (pkt.seq, pkt.sent_at));
                                let mut sched = pkt.sched;
                                if echo.kind != TermAck {
                                    sched.rate = sched.rate.min(max_rate);
                                }
                                assert_eq!(echo.sched, sched, "{name}, cap {max_rate}");
                                echoes.push((echo.kind, echo.ack));
                            }
                            Action::FlowCompleted(f) => {
                                assert_eq!(f, FLOW);
                                completed += 1;
                            }
                            other => panic!("{name}: unexpected {other:?}"),
                        }
                    }
                }
                assert_eq!(&echoes, want, "{name}, cap {max_rate}");
                assert_eq!(completed, *completions, "{name}, cap {max_rate}");
            }
        }
    }

    /// An ACK (or SYN-ACK) cumulatively acknowledging `ack`, sent 150 µs before `now`.
    fn ack(kind: PacketKind, ack: u64, now: SimTime) -> Packet {
        let mut p = Packet::control(kind, FLOW, NodeId(0), NodeId(1));
        p.ack = ack;
        p.sent_at = now.saturating_sub(SimTime::from_micros(150));
        p
    }

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    /// The RTO firings `actions` queued, as `(at, token)`.
    fn rto_timers(actions: &[Action]) -> Vec<(SimTime, u64)> {
        actions
            .iter()
            .map(|a| match a {
                Action::SetTimer {
                    kind: TimerKind::Rto,
                    at,
                    token,
                    ..
                } => (*at, *token),
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn one_fast_retransmit_per_window() {
        let mss = MSS_BYTES as u64;
        let mut g = GoBackN::new(150e-6);
        run(us(0), |ctx| {
            g.on_ack(FLOW, &ack(PacketKind::SynAck, 0, us(200)), ctx)
        });
        g.next_seq = 10 * mss; // ten packets in flight
        run(us(300), |ctx| {
            g.on_ack(FLOW, &ack(PacketKind::Ack, mss, us(300)), ctx)
        });
        let dup = |g: &mut GoBackN, acked: u64| {
            run(us(400), |ctx| {
                g.on_ack(FLOW, &ack(PacketKind::Ack, acked, us(400)), ctx)
            });
        };
        dup(&mut g, mss);
        dup(&mut g, mss);
        assert_eq!(g.next_seq, 10 * mss, "two duplicates rewind nothing");
        dup(&mut g, mss);
        assert_eq!(g.next_seq, mss, "the third rewinds to the ACK point");
        // The retransmitted window draws duplicate ACKs of its own: no second rewind
        // until the ACK point passes the recovery point.
        g.next_seq = 10 * mss;
        for _ in 0..6 {
            dup(&mut g, mss);
        }
        assert_eq!(g.next_seq, 10 * mss);
        run(us(500), |ctx| {
            g.on_ack(FLOW, &ack(PacketKind::Ack, 10 * mss, us(500)), ctx)
        });
        assert_eq!(g.acked(), 10 * mss);
        // A loss in the next window is repaired the same way.
        g.next_seq = 20 * mss;
        for _ in 0..3 {
            dup(&mut g, 10 * mss);
        }
        assert_eq!(g.next_seq, 10 * mss);
    }

    #[test]
    fn the_rto_is_three_srtts_but_never_under_the_floor() {
        for (srtt, rto) in [(100e-6, GoBackN::MIN_RTO), (1e-3, SimTime::from_millis(3))] {
            let mut g = GoBackN::new(srtt);
            let ((), actions) = run(us(10), |ctx| g.arm_rto(FLOW, ctx));
            assert_eq!(rto_timers(&actions), [(us(10) + rto, 1)], "srtt {srtt}");
        }
        assert_eq!(GoBackN::MIN_RTO, SimTime::from_millis(2));
    }

    #[test]
    fn the_handshake_restarts_the_rto() {
        let mut g = GoBackN::new(100e-6);
        // The SYN's.
        run(us(0), |ctx| g.arm_rto(FLOW, ctx));
        // A duplicate ACK of nothing new restarts nothing.
        run(us(100), |ctx| {
            g.on_ack(FLOW, &ack(PacketKind::Ack, 0, us(100)), ctx)
        });
        assert_eq!(g.rto_token(), 1);
        assert!(!g.syn_acked());
        // The SYN-ACK acknowledges no data, yet it restarts the RTO.
        run(us(300), |ctx| {
            g.on_ack(FLOW, &ack(PacketKind::SynAck, 0, us(300)), ctx)
        });
        assert!(g.syn_acked());
        assert_eq!(g.rto_token(), 2);
        // The SYN's firing does not act: it re-queues the deadline the handshake set.
        let min = GoBackN::MIN_RTO;
        let (acts, actions) = run(min, |ctx| g.fire_rto(FLOW, 1, ctx));
        assert!(!acts);
        assert_eq!(rto_timers(&actions), [(us(300) + min, 2)]);
        let (acts, _) = run(us(300) + min, |ctx| g.fire_rto(FLOW, 2, ctx));
        assert!(acts);
    }

    #[test]
    fn a_superseded_rto_acts_on_nothing() {
        let mut g = GoBackN::new(100e-6);
        g.next_seq = 3_000;
        let ((), armed) = run(us(10), |ctx| g.arm_rto(FLOW, ctx));
        assert_eq!(armed.len(), 1);
        let stale = g.rto_token();
        // New data acknowledged: the RTO restarts and the earlier deadline is dead.
        run(us(500), |ctx| {
            g.on_ack(FLOW, &ack(PacketKind::Ack, 1_500, us(500)), ctx)
        });
        let live = g.rto_token();
        assert!(live > stale);
        let min = GoBackN::MIN_RTO;
        let (acts, _) = run(us(10) + min, |ctx| g.fire_rto(FLOW, stale, ctx));
        assert!(!acts, "a superseded RTO acts on nothing");
        assert_eq!(g.next_seq, 3_000);
        let (acts, _) = run(us(500) + min, |ctx| g.fire_rto(FLOW, live, ctx));
        assert!(acts, "the live one does");
        let (acts, _) = run(us(500) + min, |ctx| g.fire_rto(FLOW, live, ctx));
        assert!(!acts, "and only once");
    }

    #[test]
    fn go_back_n_stays_within_eighty_bytes() {
        let size = std::mem::size_of::<GoBackN>();
        assert!(size <= 80, "GoBackN grew to {size} bytes");
    }
}
