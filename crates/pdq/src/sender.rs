//! The PDQ sender (§3.1).
//!
//! A [`PdqSender`] serves one flow: it sends a SYN to initialize the flow, paces data
//! packets at the rate granted by the switches, falls back to periodic probing while
//! paused, retransmits after timeouts, applies Early Termination to deadline flows that
//! can no longer make it, and finishes with a TERM packet so switches can drop the
//! flow's state immediately. The SYN, the ACK prefix, the token-bucket drain and the
//! TERM are the [`PacedCore`]'s, shared with the RCP and D3 senders.

use std::sync::Arc;

use pdq_netsim::{
    Ctx, FlowInfo, FlowSender, LinkId, PacedCore, PacedFamily, Packet, PacketKind,
    SchedulingHeader, SenderStatus, SimTime, TimerKind,
};

use crate::comparator::Discipline;
use crate::params::{PdqParams, DEFAULT_RTT};

/// Upper bound on the pacing gap. A switch can grant an arbitrarily small sliver of
/// bandwidth (e.g. the RCP fallback share); without a cap the pacing timer of such a
/// flow could be parked tens of milliseconds in the future and the flow would be
/// unable to react to newly freed capacity.
const MAX_PACE_GAP: SimTime = SimTime::from_millis(20);

/// Per-flow PDQ sender state machine.
///
/// The parameters are shared: a host agent hands every sender it starts the same
/// [`Arc`], so a sender carries its own flow's state and nothing per host.
#[derive(Debug)]
pub struct PdqSender {
    /// The flow, `R_S` (the granted rate), the deadline, go-back-N with `RTT_S`, the
    /// pacing timer and the optional token bucket. Its `limit` is the bytes this sender
    /// is responsible for (M-PDQ re-balancing moves it between subflows).
    core: PacedCore,
    /// What PDQ writes into its headers and reads from the switches' feedback.
    pdq: PdqState,
    params: Arc<PdqParams>,
    probe_token: u64,
    probe_armed: bool,
}

/// PDQ's own per-flow state (§3.1): `P_S`, `I_S` and what the advertised `T_S` is
/// computed from.
#[derive(Debug)]
struct PdqState {
    discipline: Discipline,
    arrival: SimTime,
    /// `P_S`: the switch link that paused the flow, if any.
    paused_by: Option<LinkId>,
    /// `I_S`: inter-probe interval in RTTs (>= 1).
    inter_probe_rtts: f64,
    /// Total payload bytes handed to the network (including retransmissions); feeds the
    /// flow-size-estimation discipline.
    sent_bytes: u64,
    /// Fixed random criticality (only used by [`Discipline::RandomCriticality`]).
    random_crit: f64,
    /// Coflow criticality floor (seconds): the group bottleneck's transmission time,
    /// advertised in place of the flow's own `T_S` whenever it is larger, so every
    /// member of a coflow carries the group's criticality. The advertised floor is
    /// scaled by the member's remaining fraction, so a draining member still looks
    /// nearly done to the switches (Early Start keeps working). 0 for untagged flows
    /// or when [`PdqParams::coflow_aware`] is off.
    group_trans_floor: f64,
    /// When the last data packet was handed to the network (the gap schedule's
    /// reference point); `SimTime::MAX` when there is none to pace from.
    last_data_send: SimTime,
}

impl PdqSender {
    /// Create a sender for `flow`, responsible for `assigned_bytes` of it (the full
    /// size for single-path PDQ, a share for M-PDQ subflows).
    pub fn new(
        params: Arc<PdqParams>,
        discipline: Discipline,
        flow: &FlowInfo,
        assigned_bytes: u64,
        random_crit: f64,
    ) -> Self {
        let rtt = flow.base_rtt.max(DEFAULT_RTT).as_secs_f64();
        let max_rate = flow.bottleneck_rate_bps.min(flow.nic_rate_bps);
        // Coflow-aware criticality: a tagged flow inherits its group's deadline and
        // bottleneck transmission time. Both come from the static CoflowTag, so no
        // cross-flow (or cross-shard) state is consulted at schedule time.
        let (deadline, group_trans_floor) = match flow.spec.coflow.filter(|_| params.coflow_aware) {
            Some(tag) if max_rate > 0.0 => (
                tag.deadline.or(flow.spec.deadline),
                tag.bottleneck_bytes as f64 * 8.0 / max_rate,
            ),
            _ => (flow.spec.deadline, 0.0),
        };
        let mut core = PacedCore::new(flow, assigned_bytes, deadline, rtt);
        if let Some(config) = params.pacer {
            core = core.with_pacer(config);
        }
        PdqSender {
            core,
            pdq: PdqState {
                discipline,
                arrival: flow.spec.arrival,
                paused_by: None,
                inter_probe_rtts: 1.0,
                sent_bytes: 0,
                random_crit,
                group_trans_floor,
                last_data_send: SimTime::MAX,
            },
            params,
            probe_token: 0,
            probe_armed: false,
        }
    }

    /// Granted rate in bits/s (0 while paused).
    pub fn rate(&self) -> f64 {
        self.core.rate
    }

    /// True while the switches have this flow paused.
    pub fn is_paused(&self) -> bool {
        self.core.rate <= 0.0
    }

    /// Bytes not yet acknowledged.
    pub fn remaining_bytes(&self) -> u64 {
        self.core.remaining_bytes()
    }

    /// Bytes this sender is responsible for.
    pub fn assigned_bytes(&self) -> u64 {
        self.core.limit
    }

    /// Shrink the assignment to what has already been handed to the network and return
    /// how many bytes were given up (M-PDQ re-balancing takes load away from paused
    /// subflows).
    pub fn shed_unsent_bytes(&mut self) -> u64 {
        let floor = self.core.gbn.next_seq.max(self.core.gbn.acked());
        let shed = self.core.limit.saturating_sub(floor);
        self.core.limit = floor;
        shed
    }

    /// Grow the assignment by `extra` bytes (M-PDQ re-balancing adds load to the least
    /// loaded sending subflow, which is always an active one).
    pub fn add_bytes(&mut self, extra: u64) {
        self.core.limit += extra;
    }
}

impl FlowSender for PdqSender {
    fn status(&self) -> SenderStatus {
        self.core.status()
    }

    /// Start the flow: send the SYN and arm the retransmission timer.
    fn start(&mut self, ctx: &mut Ctx) {
        if !self.core.start(&self.pdq, ctx) {
            return;
        }
        if let Some(dl) = self.core.deadline() {
            // Wake up at the deadline so Early Termination fires even if no feedback
            // ever arrives.
            ctx.set_timer_at(self.core.flow, TimerKind::Custom(0), dl, 0);
        }
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        if self.core.on_ack(&mut self.pdq, pkt, ctx) && !self.check_early_termination(ctx) {
            self.reschedule(ctx);
        }
    }

    fn on_timer(&mut self, kind: TimerKind, token: u64, ctx: &mut Ctx) {
        if self.core.status() != SenderStatus::Active {
            return;
        }
        match kind {
            TimerKind::Pacing => {
                if !self.core.pacing_fired(token) || self.check_early_termination(ctx) {
                    return;
                }
                self.reschedule(ctx);
            }
            TimerKind::Probe => {
                if token != self.probe_token {
                    return;
                }
                self.probe_armed = false;
                if self.check_early_termination(ctx) {
                    return;
                }
                if self.core.rate <= 0.0 || self.needs_probing() {
                    // Either paused, or sending so slowly that data packets alone would
                    // not fetch timely feedback: keep the probe loop alive.
                    let probe = self.core.packet(&self.pdq, PacketKind::Probe, ctx.now());
                    ctx.send(probe);
                    self.arm_probe(ctx);
                }
                self.reschedule(ctx);
            }
            TimerKind::Rto => {
                // PDQ's rule: an RTO tests Early Termination before it goes back.
                if !self.core.gbn.fire_rto(self.core.flow, token, ctx)
                    || self.check_early_termination(ctx)
                {
                    return;
                }
                if self.core.go_back(&self.pdq, ctx) {
                    // Retransmit at once, whatever the old gap schedule said.
                    self.pdq.last_data_send = SimTime::MAX;
                    self.reschedule(ctx);
                }
                self.core.gbn.arm_rto(self.core.flow, ctx);
            }
            TimerKind::Custom(0) => {
                // Deadline wake-up.
                self.check_early_termination(ctx);
            }
            _ => {}
        }
    }
}

impl PacedFamily for PdqState {
    fn stamp(&self, core: &PacedCore, now: SimTime, header: &mut SchedulingHeader) {
        header.set_pause_by(self.paused_by);
        header.set_expected_trans_time(self.advertised_trans_time(core, now));
        header.set_inter_probe_rtts(0.0);
    }

    fn feedback(&mut self, core: &mut PacedCore, pkt: &Packet) {
        let h = &pkt.sched;
        self.paused_by = h.pause_by();
        core.rate = if self.paused_by.is_some() {
            0.0
        } else {
            h.rate.min(core.max_rate).max(0.0)
        };
        self.inter_probe_rtts = h.inter_probe_rtts().max(1.0);
    }

    fn on_sent(&mut self, payload: u32, now: SimTime) {
        self.sent_bytes += payload as u64;
        self.last_data_send = now;
    }
}

impl PdqState {
    /// `T_S`: the expected remaining transmission time the sender advertises.
    fn advertised_trans_time(&self, core: &PacedCore, now: SimTime) -> f64 {
        // The coflow floor drains with the member's own progress: at flow start it is
        // the full group-bottleneck time (smallest-bottleneck-first across coflows),
        // and it shrinks linearly toward 0 as the member completes, so switches still
        // see a nearly-done flow as nearly done.
        let remaining = core.remaining_bytes();
        let remaining_frac = if core.limit > 0 {
            remaining as f64 / core.limit as f64
        } else {
            0.0
        };
        self.discipline
            .advertised_trans_time(
                remaining,
                self.sent_bytes,
                core.max_rate,
                now.saturating_sub(self.arrival),
                self.random_crit,
            )
            .max(self.group_trans_floor * remaining_frac)
    }
}

impl PdqSender {
    /// Recompute what the sender should be waiting for and (re)arm the right timer.
    ///
    /// Called after every packet or timer event that leaves the sender active. The
    /// invariant it maintains:
    /// * a flow with a positive rate and unsent data either transmits now (if its pacing
    ///   gap has elapsed) or has a pacing timer armed no later than its next send time;
    /// * a paused flow always has a probe timer armed;
    /// * a flow whose granted rate is too small to produce one packet per probe interval
    ///   additionally keeps probing, so it still learns promptly when capacity frees up.
    fn reschedule(&mut self, ctx: &mut Ctx) {
        if self.core.rate > 0.0 {
            if self.core.gbn.next_seq < self.core.limit {
                if self.core.paced() {
                    // PDQ's rule: the bucket drains on every reschedule.
                    self.core.drain(&mut self.pdq, ctx);
                } else {
                    self.send_by_gap(ctx);
                }
            }
            if self.needs_probing() && !self.probe_armed {
                self.arm_probe(ctx);
            }
        } else if !self.probe_armed {
            self.arm_probe(ctx);
        }
    }

    /// PDQ's unpaced gap rule: packets `MTU·8/rate` apart from the last send, capped at
    /// [`MAX_PACE_GAP`], and every feedback pulls the pacing timer forward.
    fn send_by_gap(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let due = self.next_send_due(now);
        if due > now {
            // The granted rate increased: pull the pacing timer forward.
            return self.core.pace_by(due, ctx);
        }
        self.core.transmit(&mut self.pdq, ctx);
        if self.core.gbn.next_seq < self.core.limit {
            let next = self.next_send_due(ctx.now());
            self.core.arm_pacing(next, ctx);
        }
    }

    /// True when the granted rate is so small that data packets alone would not carry
    /// scheduling feedback back at least once per probe interval.
    fn needs_probing(&self) -> bool {
        if self.core.rate <= 0.0 {
            return true;
        }
        let wire_bits = pdq_netsim::MTU_BYTES as f64 * 8.0;
        wire_bits / self.core.rate > self.probe_gap().as_secs_f64()
    }

    /// When the gap schedule next allows a data transmission.
    fn next_send_due(&self, now: SimTime) -> SimTime {
        let last = self.pdq.last_data_send;
        if last == SimTime::MAX {
            return now;
        }
        let wire_bits = pdq_netsim::MTU_BYTES as f64 * 8.0;
        let gap_secs = (wire_bits / self.core.rate).min(MAX_PACE_GAP.as_secs_f64());
        last + SimTime::from_secs_f64(gap_secs)
    }

    /// The interval between probes of a paused (or starved) flow.
    fn probe_gap(&self) -> SimTime {
        // Probe every I_S RTTs, but never let a transiently inflated RTT estimate delay
        // the next probe by more than a couple of milliseconds: a paused flow's probes
        // are its only way to learn that capacity has freed up.
        SimTime::from_secs_f64(self.pdq.inter_probe_rtts.max(1.0) * self.core.gbn.srtt())
            .min(SimTime::from_millis(2))
            .max(SimTime::from_micros(50))
    }

    fn arm_probe(&mut self, ctx: &mut Ctx) {
        let gap = self.probe_gap();
        self.probe_token += 1;
        self.probe_armed = true;
        ctx.set_timer_after(self.core.flow, TimerKind::Probe, gap, self.probe_token);
    }

    /// Early Termination (§3.1), PDQ's give-up rule. Returns true if the flow was
    /// terminated.
    fn check_early_termination(&mut self, ctx: &mut Ctx) -> bool {
        if !self.params.early_termination {
            return false;
        }
        let Some(deadline) = self.core.deadline() else {
            return false;
        };
        let now = ctx.now();
        let remaining = self.core.remaining_bytes();
        let t_s = SimTime::from_secs_f64(remaining as f64 * 8.0 / self.core.max_rate);
        let rtt = SimTime::from_secs_f64(self.core.gbn.srtt());
        let paused_and_close = self.core.rate <= 0.0 && now + rtt > deadline;
        if !early_terminate(now, deadline, t_s) && !paused_and_close {
            return false;
        }
        self.core.end(&self.pdq, SenderStatus::Terminated, ctx);
        true
    }
}

/// Early Termination (§3.1): a deadline flow gives up when its deadline has passed
/// or when even `time_to_finish`, its remaining transmission time at the maximal
/// rate, would end past it. The packet sender also gives up on a paused flow less
/// than one RTT before its deadline; the flow-level model has no RTT.
pub(crate) fn early_terminate(now: SimTime, deadline: SimTime, time_to_finish: SimTime) -> bool {
    now > deadline || now + time_to_finish > deadline
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_netsim::{Action, FlowId, FlowSpec, NodeId};
    use std::collections::HashMap;

    const GBPS: f64 = 1e9;

    fn flow_info(size: u64, deadline: Option<SimTime>) -> (HashMap<FlowId, FlowInfo>, FlowInfo) {
        let mut spec = FlowSpec::new(1, NodeId(0), NodeId(2), size);
        if let Some(d) = deadline {
            spec = spec.with_deadline(d);
        }
        let info = FlowInfo {
            spec,
            bottleneck_rate_bps: GBPS,
            nic_rate_bps: GBPS,
            base_rtt: SimTime::from_micros(150),
        };
        let mut map = HashMap::new();
        map.insert(FlowId(1), info.clone());
        (map, info)
    }

    fn sender(size: u64, deadline: Option<SimTime>) -> (HashMap<FlowId, FlowInfo>, PdqSender) {
        let (map, info) = flow_info(size, deadline);
        let s = PdqSender::new(
            PdqParams::full().into(),
            Discipline::Exact,
            &info,
            size,
            0.0,
        );
        (map, s)
    }

    fn sent_kinds(actions: &[Action]) -> Vec<PacketKind> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(p) => Some(p.kind),
                _ => None,
            })
            .collect()
    }

    fn synack_with_rate(rate: f64, now: SimTime) -> Packet {
        let mut p = Packet::control(PacketKind::SynAck, FlowId(1), NodeId(0), NodeId(2));
        p.sched = SchedulingHeader::new(GBPS);
        p.sched.rate = rate;
        p.sent_at = now.saturating_sub(SimTime::from_micros(150));
        p
    }

    #[test]
    fn coflow_aware_sender_advertises_group_criticality() {
        let (_, info) = flow_info(10_000, Some(SimTime::from_millis(5)));
        let tag = pdq_netsim::CoflowTag {
            id: pdq_netsim::CoflowId(3),
            bottleneck_bytes: 1_000_000,
            deadline: Some(SimTime::from_millis(9)),
        };
        let mut tagged = info.clone();
        tagged.spec = tagged.spec.with_coflow(tag);

        // Coflow-unaware params ignore the tag entirely.
        let plain = PdqSender::new(
            PdqParams::full().into(),
            Discipline::Exact,
            &tagged,
            10_000,
            0.0,
        );
        let p = plain
            .core
            .packet(&plain.pdq, PacketKind::Syn, SimTime::ZERO);
        assert_eq!(p.sched.deadline(), Some(SimTime::from_millis(5)));
        assert_eq!(p.sched.expected_trans_time(), 10_000.0 * 8.0 / GBPS);

        // Coflow-aware senders inherit the group deadline and advertise the group
        // bottleneck's transmission time: the whole coflow shares one criticality.
        let aware = PdqSender::new(
            PdqParams::coflow().into(),
            Discipline::Exact,
            &tagged,
            10_000,
            0.0,
        );
        let p = aware
            .core
            .packet(&aware.pdq, PacketKind::Syn, SimTime::ZERO);
        assert_eq!(p.sched.deadline(), Some(SimTime::from_millis(9)));
        assert_eq!(p.sched.expected_trans_time(), 1_000_000.0 * 8.0 / GBPS);

        // Untagged flows under coflow-aware params behave exactly as plain PDQ.
        let untagged = PdqSender::new(
            PdqParams::coflow().into(),
            Discipline::Exact,
            &info,
            10_000,
            0.0,
        );
        let p = untagged
            .core
            .packet(&untagged.pdq, PacketKind::Syn, SimTime::ZERO);
        assert_eq!(p.sched.deadline(), Some(SimTime::from_millis(5)));
        assert_eq!(p.sched.expected_trans_time(), 10_000.0 * 8.0 / GBPS);
    }

    /// The first forward packet carries every field a PDQ switch reads, written from
    /// the sender's own state: no switch depends on `SchedulingHeader::new`'s
    /// defaults.
    #[test]
    fn first_packet_writes_every_word_pdq_switches_read() {
        let deadline = SimTime::from_millis(5);
        let (map, mut s) = sender(100_000, Some(deadline));
        let mut ctx = Ctx::new(SimTime::ZERO, &map);
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
        let h = syn.sched;
        assert_eq!((h.rate, h.rtt), (s.core.max_rate, s.core.gbn.srtt()));
        assert_eq!((h.deadline(), h.pause_by()), (Some(deadline), None));
        assert_eq!(
            h.expected_trans_time(),
            s.pdq.advertised_trans_time(&s.core, SimTime::ZERO)
        );
        assert!((h.expected_trans_time() - 100_000.0 * 8.0 / GBPS).abs() < 1e-15);
        assert_eq!(
            h.inter_probe_rtts(),
            0.0,
            "I_H starts at zero: switches raise it"
        );
    }

    #[test]
    fn start_sends_syn_with_header() {
        let (map, mut s) = sender(100_000, None);
        let mut ctx = Ctx::new(SimTime::ZERO, &map);
        s.start(&mut ctx);
        let actions = ctx.take_actions();
        assert_eq!(sent_kinds(&actions), vec![PacketKind::Syn]);
        if let Action::Send(p) = &actions[0] {
            assert_eq!(p.sched.rate, GBPS);
            assert!((p.sched.expected_trans_time() - 0.0008).abs() < 1e-9);
            assert!(p.sched.deadline().is_none());
        }
        // RTO timer armed.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::Rto,
                ..
            }
        )));
    }

    #[test]
    fn synack_with_rate_starts_paced_sending() {
        let (map, mut s) = sender(10_000, None);
        let now = SimTime::from_micros(200);
        let mut ctx = Ctx::new(now, &map);
        s.on_packet(&synack_with_rate(GBPS, now), &mut ctx);
        let actions = ctx.take_actions();
        let kinds = sent_kinds(&actions);
        assert_eq!(kinds, vec![PacketKind::Data]);
        assert!(s.rate() > 0.0);
        // The pacing timer is armed roughly one packet-serialization later.
        let pacing = actions.iter().find_map(|a| match a {
            Action::SetTimer {
                kind: TimerKind::Pacing,
                at,
                ..
            } => Some(*at),
            _ => None,
        });
        let gap = pacing.unwrap() - now;
        assert!(
            gap.as_micros_f64() > 10.0 && gap.as_micros_f64() < 14.0,
            "{gap}"
        );
    }

    #[test]
    fn paused_flow_probes_instead_of_sending() {
        let (map, mut s) = sender(100_000, None);
        let now = SimTime::from_micros(200);
        let mut ctx = Ctx::new(now, &map);
        let mut synack = synack_with_rate(0.0, now);
        synack.sched.set_pause_by(Some(LinkId(5)));
        s.on_packet(&synack, &mut ctx);
        let actions = ctx.take_actions();
        assert!(
            sent_kinds(&actions).is_empty(),
            "paused flow must not send data"
        );
        assert!(s.is_paused());
        let probe_at = actions.iter().find_map(|a| match a {
            Action::SetTimer {
                kind: TimerKind::Probe,
                at,
                token,
                ..
            } => Some((*at, *token)),
            _ => None,
        });
        let (at, token) = probe_at.expect("probe timer armed");
        // Fire the probe timer: a probe packet goes out carrying the pause tag.
        let mut ctx2 = Ctx::new(at, &map);
        s.on_timer(TimerKind::Probe, token, &mut ctx2);
        let actions2 = ctx2.take_actions();
        assert_eq!(sent_kinds(&actions2), vec![PacketKind::Probe]);
        if let Action::Send(p) = &actions2[0] {
            assert_eq!(p.sched.pause_by(), Some(LinkId(5)));
        }
    }

    #[test]
    fn suppressed_probing_interval_respected() {
        let (map, mut s) = sender(100_000, None);
        let now = SimTime::from_millis(1);
        let mut ctx = Ctx::new(now, &map);
        let mut synack = synack_with_rate(0.0, now);
        synack.sched.set_pause_by(Some(LinkId(5)));
        synack.sched.set_inter_probe_rtts(4.0);
        s.on_packet(&synack, &mut ctx);
        let actions = ctx.take_actions();
        let at = actions
            .iter()
            .find_map(|a| match a {
                Action::SetTimer {
                    kind: TimerKind::Probe,
                    at,
                    ..
                } => Some(*at),
                _ => None,
            })
            .unwrap();
        // Probe interval = I_S * RTT = 4 * ~150 µs.
        let gap = (at - now).as_micros_f64();
        assert!(gap > 500.0 && gap < 800.0, "gap = {gap}");
    }

    #[test]
    fn completion_sends_term_and_completes_flow() {
        let (map, mut s) = sender(2_000, None);
        let now = SimTime::from_micros(200);
        // Grant rate and send all data.
        let mut ctx = Ctx::new(now, &map);
        s.on_packet(&synack_with_rate(GBPS, now), &mut ctx);
        ctx.take_actions();
        // Cumulative ACK covering the whole flow.
        let mut ack = Packet::control(PacketKind::Ack, FlowId(1), NodeId(0), NodeId(2));
        ack.ack = 2_000;
        ack.sched = SchedulingHeader::new(GBPS);
        ack.sent_at = now;
        let later = now + SimTime::from_micros(300);
        let mut ctx2 = Ctx::new(later, &map);
        s.on_packet(&ack, &mut ctx2);
        let actions = ctx2.take_actions();
        assert_eq!(s.status(), SenderStatus::Finished);
        assert!(sent_kinds(&actions).contains(&PacketKind::Term));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::FlowCompleted(f) if *f == FlowId(1))));
    }

    #[test]
    fn early_termination_when_deadline_unreachable() {
        // 10 MB flow with a 1 ms deadline can never make it at 1 Gbps (needs 80 ms).
        let deadline = Some(SimTime::from_millis(1));
        let (map, mut s) = sender(10_000_000, deadline);
        let now = SimTime::from_micros(200);
        let mut ctx = Ctx::new(now, &map);
        s.on_packet(&synack_with_rate(GBPS, now), &mut ctx);
        let actions = ctx.take_actions();
        assert_eq!(s.status(), SenderStatus::Terminated);
        assert!(sent_kinds(&actions).contains(&PacketKind::Term));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::FlowTerminated(f) if *f == FlowId(1))));
    }

    #[test]
    fn no_early_termination_when_disabled() {
        let deadline = Some(SimTime::from_millis(1));
        let (map, info) = flow_info(10_000_000, deadline);
        let mut params = PdqParams::full();
        params.early_termination = false;
        let mut s = PdqSender::new(params.into(), Discipline::Exact, &info, 10_000_000, 0.0);
        let now = SimTime::from_micros(200);
        let mut ctx = Ctx::new(now, &map);
        s.on_packet(&synack_with_rate(GBPS, now), &mut ctx);
        ctx.take_actions();
        assert_eq!(s.status(), SenderStatus::Active);
    }

    #[test]
    fn rto_rewinds_to_last_ack() {
        let (map, mut s) = sender(50_000, None);
        let now = SimTime::from_micros(200);
        let mut ctx = Ctx::new(now, &map);
        s.on_packet(&synack_with_rate(GBPS, now), &mut ctx);
        let mut actions = ctx.take_actions();
        // Pump the pacing loop a few times so several packets are "in flight".
        let mut t = now;
        for _ in 0..5 {
            t += SimTime::from_micros(12);
            let mut c = Ctx::new(t, &map);
            let token = actions.iter().rev().find_map(|a| match a {
                Action::SetTimer {
                    kind: TimerKind::Pacing,
                    token,
                    ..
                } => Some(*token),
                _ => None,
            });
            s.on_timer(TimerKind::Pacing, token.expect("a pacing timer"), &mut c);
            actions = c.take_actions();
        }
        let sent_before = s.core.gbn.next_seq;
        assert!(sent_before > 4 * 1444);
        // RTO fires with nothing acknowledged: the sender rewinds to the last cumulative
        // ACK and immediately retransmits the first unacknowledged packet.
        let mut c = Ctx::new(t + SimTime::from_millis(10), &map);
        let token = s.core.gbn.rto_token();
        s.on_timer(TimerKind::Rto, token, &mut c);
        let actions = c.take_actions();
        let retransmitted = actions.iter().find_map(|a| match a {
            Action::Send(p) if p.kind == PacketKind::Data => Some(p.seq),
            _ => None,
        });
        assert_eq!(
            retransmitted,
            Some(0),
            "go-back-N retransmits from the last ACK"
        );
        assert!(
            s.core.gbn.next_seq < sent_before,
            "the send position rewinds (then advances past the retransmission)"
        );
    }

    #[test]
    fn stale_timers_are_ignored() {
        let (map, mut s) = sender(50_000, None);
        let now = SimTime::from_micros(200);
        let mut ctx = Ctx::new(now, &map);
        s.on_packet(&synack_with_rate(GBPS, now), &mut ctx);
        ctx.take_actions();
        let seq_before = s.core.gbn.next_seq;
        let mut c = Ctx::new(now + SimTime::from_micros(12), &map);
        s.on_timer(TimerKind::Pacing, 999_999, &mut c); // bogus token
        assert_eq!(s.core.gbn.next_seq, seq_before);
        assert!(c.take_actions().is_empty());
    }

    #[test]
    fn rebalancing_helpers_shift_bytes() {
        let (_map, mut s) = sender(100_000, None);
        assert_eq!(s.assigned_bytes(), 100_000);
        let shed = s.shed_unsent_bytes();
        assert_eq!(shed, 100_000); // nothing sent yet, everything can move
        assert_eq!(s.assigned_bytes(), 0);
        s.add_bytes(40_000);
        assert_eq!(s.assigned_bytes(), 40_000);
        assert_eq!(s.remaining_bytes(), 40_000);
    }

    #[test]
    fn senders_stay_slim() {
        // An overloaded host keeps thousands of senders live and touches one per
        // packet; the parameters are shared, never copied into each sender, and the
        // restartable RTO stores neither its flow nor its kind.
        let timer = std::mem::size_of::<pdq_netsim::RestartTimer>();
        assert!(timer <= 40, "RestartTimer grew to {timer} bytes");
        let size = std::mem::size_of::<PdqSender>();
        assert!(size <= 296, "PdqSender grew to {size} bytes");
    }

    #[test]
    fn zero_byte_assignment_finishes_immediately() {
        let (map, info) = flow_info(0, None);
        let mut s = PdqSender::new(PdqParams::full().into(), Discipline::Exact, &info, 0, 0.0);
        let mut ctx = Ctx::new(SimTime::ZERO, &map);
        s.start(&mut ctx);
        assert_eq!(s.status(), SenderStatus::Finished);
    }
}
