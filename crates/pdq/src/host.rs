//! The per-host PDQ transport agent, including Multipath PDQ (§6).
//!
//! A [`PdqHostAgent`] owns the sender state machines of the flows originating at its
//! host and the receiver state machines of the flows terminating there. When
//! configured with more than one subflow it becomes an **M-PDQ** sender: incoming
//! flows are split into subflows, each routed as a flow of its own: the router draws an
//! independent random shortest path per subflow, so flow-level ECMP spreads them over
//! the available paths but nothing keeps two subflows off the same one. A periodic
//! re-balancer moves unsent bytes from paused subflows to the sending subflow with the
//! least remaining work.
//!
//! The agent holds state for what is live, in an [`Endpoints`]: a sender until it
//! leaves [`SenderStatus::Active`] — the host-side counterpart of the TERM that lets
//! switches drop the flow — and a receiver until it has echoed its flow's TERM. An
//! M-PDQ subflow's sender is the one exception: it stays in the endpoints when it
//! finishes, because its parent's completion check reads it, until the parent
//! reports; then the parent's whole M-PDQ bookkeeping goes with it. The re-balancer
//! only hands bytes to an active subflow, so a finished one never sends again, and its
//! receiver goes with its TERM like any other.

use std::sync::Arc;

use pdq_netsim::{
    Ctx, Endpoints, FlowId, FlowInfo, FlowMap, FlowSender, FlowSpec, HostAgent, Packet,
    SenderStatus, SimTime, TimerKind,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::comparator::Discipline;
use crate::params::{PdqParams, DEFAULT_RTT};
use crate::sender::PdqSender;

/// Base offset for generated subflow ids; parents must use ids below this.
const SUBFLOW_ID_BASE: u64 = 1 << 48;
/// Maximum number of subflows per flow.
const MAX_SUBFLOWS: usize = 16;
/// M-PDQ re-balancing period in RTTs.
const REBALANCE_INTERVAL_RTTS: f64 = 2.0;

/// Derive the globally unique flow id of subflow `k` of `parent`.
pub fn subflow_id(parent: FlowId, k: usize) -> FlowId {
    assert!(
        parent.value() < (1 << 44),
        "parent flow id too large for subflow encoding"
    );
    assert!(
        k < MAX_SUBFLOWS,
        "at most {MAX_SUBFLOWS} subflows are supported"
    );
    FlowId(SUBFLOW_ID_BASE | (parent.value() << 4) | k as u64)
}

/// The PDQ (and M-PDQ) host agent.
pub struct PdqHostAgent {
    /// Shared by every sender this agent starts.
    params: Arc<PdqParams>,
    discipline: Discipline,
    rng: SmallRng,
    /// Live senders, plus finished M-PDQ subflows whose parent has not reported yet;
    /// live receivers.
    endpoints: Endpoints<PdqSender>,
    /// Parent flow id -> its subflow ids, for flows originating at this host whose
    /// completion is not yet reported.
    children: FlowMap<Vec<FlowId>>,
    /// Subflow id -> parent flow id, while the parent is in `children`.
    parent_of: FlowMap<FlowId>,
}

impl PdqHostAgent {
    /// Create an agent. `seed` keeps any per-host randomness (random criticality)
    /// reproducible; pass e.g. the host's node id.
    pub fn new(params: PdqParams, discipline: Discipline, seed: u64) -> Self {
        PdqHostAgent {
            params: Arc::new(params),
            discipline,
            rng: SmallRng::seed_from_u64(seed),
            endpoints: Endpoints::default(),
            children: FlowMap::default(),
            parent_of: FlowMap::default(),
        }
    }

    /// Number of sender state machines held (diagnostics / tests): the live senders,
    /// plus the finished subflows of M-PDQ parents that have not reported yet. A
    /// single-path sender is dropped as soon as it finishes or terminates.
    pub fn active_senders(&self) -> usize {
        self.endpoints.senders.len()
    }

    fn start_sender(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
        let random_crit = Discipline::draw_random_criticality(&mut self.rng);
        let sender = PdqSender::new(
            Arc::clone(&self.params),
            self.discipline.clone(),
            flow,
            flow.spec.size_bytes,
            random_crit,
        );
        if let Some(parent) = flow.spec.parent {
            self.parent_of.insert(flow.spec.id, parent);
        }
        if self.endpoints.start(flow.spec.id, sender, ctx) {
            self.sender_ended(flow.spec.id, ctx);
        }
    }

    /// `flow`'s sender has just left `Active`: if it serves an M-PDQ subflow, its
    /// parent may be done.
    fn sender_ended(&mut self, flow: FlowId, ctx: &mut Ctx) {
        if let Some(&parent) = self.parent_of.get(&flow) {
            self.check_parent_completion(parent, ctx);
        }
    }

    fn split_into_subflows(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
        let n = self.params.subflows.clamp(1, MAX_SUBFLOWS);
        let size = flow.spec.size_bytes;
        let base = size / n as u64;
        let mut ids = Vec::with_capacity(n);
        for k in 0..n {
            let mut share = base;
            if k == 0 {
                share += size - base * n as u64; // remainder to the first subflow
            }
            let id = subflow_id(flow.spec.id, k);
            let mut spec = FlowSpec {
                id,
                src: flow.spec.src,
                dst: flow.spec.dst,
                size_bytes: share,
                deadline: flow.spec.deadline,
                arrival: ctx.now(),
                parent: Some(flow.spec.id),
                coflow: flow.spec.coflow,
            };
            // Avoid zero-byte subflows when the flow is tiny.
            if spec.size_bytes == 0 {
                spec.size_bytes = 1;
            }
            ids.push(id);
            ctx.spawn_flow(spec);
        }
        self.children.insert(flow.spec.id, ids);
        // Periodic M-PDQ re-balancing.
        let interval = flow
            .base_rtt
            .mul_f64(REBALANCE_INTERVAL_RTTS)
            .max(SimTime::from_micros(100));
        ctx.set_timer_after(flow.spec.id, TimerKind::Rebalance, interval, 0);
    }

    /// Report `parent` once every subflow sender has finished or terminated, and drop
    /// its M-PDQ state: nothing reads it afterwards.
    fn check_parent_completion(&mut self, parent: FlowId, ctx: &mut Ctx) {
        let Some(kids) = self.children.get(&parent) else {
            return; // not split here, or already reported
        };
        let mut any_terminated = false;
        for k in kids {
            match self.endpoints.senders.get(k).map(|s| s.status()) {
                Some(SenderStatus::Finished) => {}
                Some(SenderStatus::Terminated) => any_terminated = true,
                _ => return,
            }
        }
        if any_terminated {
            ctx.flow_terminated(parent);
        } else {
            ctx.flow_completed(parent);
        }
        for k in self.children.remove(&parent).into_iter().flatten() {
            self.endpoints.senders.remove(&k);
            self.parent_of.remove(&k);
        }
    }

    /// M-PDQ re-balancing: move unsent bytes from paused subflows to the sending
    /// subflow with the least remaining work.
    fn rebalance(&mut self, parent: FlowId, ctx: &mut Ctx) {
        let Some(kids) = self.children.get(&parent).cloned() else {
            return;
        };
        // Pick the target: an active, sending subflow with minimal remaining bytes.
        let target = kids
            .iter()
            .filter(|k| {
                self.endpoints
                    .senders
                    .get(*k)
                    .map(|s| s.status() == SenderStatus::Active && !s.is_paused())
                    .unwrap_or(false)
            })
            .min_by_key(|k| {
                self.endpoints
                    .senders
                    .get(*k)
                    .map(|s| s.remaining_bytes())
                    .unwrap_or(u64::MAX)
            })
            .copied();
        if let Some(target) = target {
            let mut pool = 0u64;
            for k in &kids {
                if *k == target {
                    continue;
                }
                if let Some(s) = self.endpoints.senders.get_mut(k) {
                    if s.status() == SenderStatus::Active && s.is_paused() {
                        pool += s.shed_unsent_bytes();
                    }
                }
            }
            if pool > 0 {
                if let Some(s) = self.endpoints.senders.get_mut(&target) {
                    s.add_bytes(pool);
                }
            }
        }
        self.check_parent_completion(parent, ctx);
        if self.children.contains_key(&parent) {
            let interval =
                SimTime::from_secs_f64(REBALANCE_INTERVAL_RTTS * DEFAULT_RTT.as_secs_f64())
                    .max(SimTime::from_micros(100));
            ctx.set_timer_after(parent, TimerKind::Rebalance, interval, 0);
        }
    }
}

impl HostAgent for PdqHostAgent {
    fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
        if self.params.subflows > 1 && flow.spec.parent.is_none() {
            self.split_into_subflows(flow, ctx);
        } else {
            self.start_sender(flow, ctx);
        }
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
        if self.endpoints.on_packet(&packet, ctx) {
            self.sender_ended(packet.flow, ctx);
        }
    }

    fn on_timer(&mut self, flow: FlowId, kind: TimerKind, token: u64, ctx: &mut Ctx) {
        if kind == TimerKind::Rebalance {
            self.rebalance(flow, ctx);
            return;
        }
        if self.endpoints.on_timer(flow, kind, token, ctx) {
            self.sender_ended(flow, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_netsim::{Action, NodeId, PacketKind, SchedulingHeader};

    fn info(id: u64, size: u64, parent: Option<FlowId>) -> FlowInfo {
        FlowInfo {
            spec: FlowSpec {
                id: FlowId(id),
                src: NodeId(0),
                dst: NodeId(2),
                size_bytes: size,
                deadline: None,
                arrival: SimTime::ZERO,
                parent,
                coflow: None,
            },
            bottleneck_rate_bps: 1e9,
            nic_rate_bps: 1e9,
            base_rtt: SimTime::from_micros(150),
        }
    }

    #[test]
    fn subflow_ids_are_unique_and_derived() {
        let a = subflow_id(FlowId(7), 0);
        let b = subflow_id(FlowId(7), 1);
        let c = subflow_id(FlowId(8), 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(a.value() >= SUBFLOW_ID_BASE);
    }

    #[test]
    fn single_path_flow_starts_a_sender() {
        let mut agent = PdqHostAgent::new(PdqParams::full(), Discipline::Exact, 1);
        let flows = FlowMap::default();
        let mut ctx = Ctx::new(SimTime::ZERO, &flows);
        agent.on_flow_arrival(&info(1, 10_000, None), &mut ctx);
        assert_eq!(agent.active_senders(), 1);
        let actions = ctx.take_actions();
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Send(p) if p.kind == pdq_netsim::PacketKind::Syn)));
    }

    #[test]
    fn multipath_parent_spawns_subflows() {
        let mut params = PdqParams::full();
        params.subflows = 4;
        let mut agent = PdqHostAgent::new(params, Discipline::Exact, 1);
        let flows = FlowMap::default();
        let mut ctx = Ctx::new(SimTime::ZERO, &flows);
        agent.on_flow_arrival(&info(1, 100_000, None), &mut ctx);
        let actions = ctx.take_actions();
        let spawned: Vec<&FlowSpec> = actions
            .iter()
            .filter_map(|a| match a {
                Action::SpawnFlow(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(spawned.len(), 4);
        let total: u64 = spawned.iter().map(|s| s.size_bytes).sum();
        assert_eq!(total, 100_000);
        assert!(spawned.iter().all(|s| s.parent == Some(FlowId(1))));
        // No sender for the parent itself; a re-balance timer is armed.
        assert_eq!(agent.active_senders(), 0);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::Rebalance,
                ..
            }
        )));
    }

    #[test]
    fn subflow_arrivals_create_senders() {
        let mut params = PdqParams::full();
        params.subflows = 2;
        let mut agent = PdqHostAgent::new(params, Discipline::Exact, 1);
        let flows = FlowMap::default();
        let mut ctx = Ctx::new(SimTime::ZERO, &flows);
        // The engine delivers the subflow arrival back to the same host.
        let sub = info(subflow_id(FlowId(1), 0).value(), 50_000, Some(FlowId(1)));
        agent.on_flow_arrival(&sub, &mut ctx);
        assert_eq!(agent.active_senders(), 1);
    }

    const GBPS: f64 = 1e9;

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

    /// Switch feedback for `flow`: a `kind` packet granting `rate` and cumulatively
    /// acknowledging `ack` bytes.
    fn feedback(kind: PacketKind, flow: FlowId, ack: u64, rate: f64, now: SimTime) -> Packet {
        let mut p = Packet::control(kind, flow, NodeId(0), NodeId(2));
        p.ack = ack;
        p.sched = SchedulingHeader::new(GBPS);
        p.sched.rate = rate;
        p.sent_at = now.saturating_sub(SimTime::from_micros(150));
        p
    }

    fn flows_of<'a>(infos: impl IntoIterator<Item = &'a FlowInfo>) -> FlowMap<FlowInfo> {
        infos.into_iter().map(|i| (i.spec.id, i.clone())).collect()
    }

    /// Every late packet and timer a retired `flow` can still receive — an ACK, and
    /// each sender timer kind with any token it can have armed — produces no action,
    /// which is what the agent got from the `Finished`/`Terminated` sender before.
    fn assert_ignored_after_retirement(
        agent: &mut PdqHostAgent,
        flows: &FlowMap<FlowInfo>,
        flow: FlowId,
        now: SimTime,
    ) {
        let late_ack = feedback(PacketKind::Ack, flow, 1, GBPS, now);
        assert!(run(now, flows, |ctx| agent.on_packet(late_ack, ctx)).is_empty());
        for kind in [
            TimerKind::Rto,
            TimerKind::Probe,
            TimerKind::Pacing,
            TimerKind::Custom(0),
        ] {
            for token in 0..=4 {
                let actions = run(now, flows, |ctx| agent.on_timer(flow, kind, token, ctx));
                assert!(actions.is_empty(), "{kind:?} #{token} acted: {actions:?}");
            }
        }
    }

    #[test]
    fn a_completed_sender_is_retired() {
        let mut agent = PdqHostAgent::new(PdqParams::full(), Discipline::Exact, 1);
        let flow = info(1, 2_000, None);
        let flows = flows_of([&flow]);
        run(SimTime::ZERO, &flows, |ctx| {
            agent.on_flow_arrival(&flow, ctx)
        });
        let t = SimTime::from_micros(200);
        let synack = feedback(PacketKind::SynAck, FlowId(1), 0, GBPS, t);
        run(t, &flows, |ctx| agent.on_packet(synack, ctx));
        assert_eq!(agent.active_senders(), 1);
        let t = SimTime::from_micros(500);
        let ack = feedback(PacketKind::Ack, FlowId(1), 2_000, GBPS, t);
        let actions = run(t, &flows, |ctx| agent.on_packet(ack, ctx));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::FlowCompleted(f) if *f == FlowId(1))));
        assert_eq!(agent.active_senders(), 0);
        assert_ignored_after_retirement(&mut agent, &flows, FlowId(1), SimTime::from_millis(5));
    }

    #[test]
    fn an_early_terminated_sender_is_retired() {
        // 10 MB due in 1 ms cannot make it at 1 Gbit/s: the first grant terminates it.
        let mut agent = PdqHostAgent::new(PdqParams::full(), Discipline::Exact, 1);
        let mut flow = info(1, 10_000_000, None);
        flow.spec.deadline = Some(SimTime::from_millis(1));
        let flows = flows_of([&flow]);
        run(SimTime::ZERO, &flows, |ctx| {
            agent.on_flow_arrival(&flow, ctx)
        });
        let t = SimTime::from_micros(200);
        let synack = feedback(PacketKind::SynAck, FlowId(1), 0, GBPS, t);
        let actions = run(t, &flows, |ctx| agent.on_packet(synack, ctx));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::FlowTerminated(f) if *f == FlowId(1))));
        assert_eq!(agent.active_senders(), 0);
        assert_ignored_after_retirement(&mut agent, &flows, FlowId(1), SimTime::from_millis(2));
    }

    #[test]
    fn a_sender_finished_inside_start_is_never_stored() {
        let mut agent = PdqHostAgent::new(PdqParams::full(), Discipline::Exact, 1);
        let flow = info(1, 0, None);
        let flows = flows_of([&flow]);
        let actions = run(SimTime::ZERO, &flows, |ctx| {
            agent.on_flow_arrival(&flow, ctx)
        });
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::FlowCompleted(f) if *f == FlowId(1))));
        assert_eq!(agent.active_senders(), 0);
    }

    #[test]
    fn a_multipath_parent_reports_once_its_last_subflow_is_done() {
        let mut params = PdqParams::full();
        params.subflows = 2;
        let mut agent = PdqHostAgent::new(params, Discipline::Exact, 1);
        let parent = info(1, 100_000, None);
        let split = run(SimTime::ZERO, &FlowMap::default(), |ctx| {
            agent.on_flow_arrival(&parent, ctx)
        });
        // The engine delivers each spawned subflow back to this host.
        let subs: Vec<FlowInfo> = split
            .iter()
            .filter_map(|a| match a {
                Action::SpawnFlow(s) => Some(info(s.id.value(), s.size_bytes, s.parent)),
                _ => None,
            })
            .collect();
        let flows = flows_of(&subs);
        for sub in &subs {
            run(SimTime::ZERO, &flows, |ctx| agent.on_flow_arrival(sub, ctx));
        }
        let finish = |agent: &mut PdqHostAgent, sub: &FlowInfo, us: u64| {
            let (id, size) = (sub.spec.id, sub.spec.size_bytes);
            let t = SimTime::from_micros(us);
            let synack = feedback(PacketKind::SynAck, id, 0, GBPS, t);
            run(t, &flows, |ctx| agent.on_packet(synack, ctx));
            let t = SimTime::from_micros(us + 300);
            let ack = feedback(PacketKind::Ack, id, size, GBPS, t);
            run(t, &flows, |ctx| agent.on_packet(ack, ctx))
        };
        let parent_done = |actions: &[Action]| {
            actions
                .iter()
                .any(|a| matches!(a, Action::FlowCompleted(f) if *f == FlowId(1)))
        };
        let first = finish(&mut agent, &subs[0], 200);
        assert!(
            !parent_done(&first),
            "reported with a subflow still sending"
        );
        // The finished subflow stays: the parent's completion check reads it.
        assert_eq!(agent.active_senders(), 2);
        // A late ACK reaches the finished subflow's sender, which ignores it and stays.
        let t = SimTime::from_micros(600);
        let late = feedback(PacketKind::Ack, subs[0].spec.id, 1, GBPS, t);
        assert!(run(t, &flows, |ctx| agent.on_packet(late, ctx)).is_empty());
        assert_eq!(agent.active_senders(), 2);
        let last = finish(&mut agent, &subs[1], 400);
        assert!(parent_done(&last), "{last:?}");
        assert_eq!(agent.active_senders(), 0);
        // Reported once: a later re-balance neither reports again nor re-arms.
        let t = SimTime::from_millis(1);
        let rebalance = TimerKind::Rebalance;
        let actions = run(t, &flows, |ctx| {
            agent.on_timer(FlowId(1), rebalance, 0, ctx)
        });
        assert!(actions.is_empty(), "{actions:?}");
        assert_ignored_after_retirement(&mut agent, &flows, subs[0].spec.id, t);
    }

    /// A forward packet of `flow` arriving at the destination (`seq`/`payload` for
    /// data).
    fn forward(kind: PacketKind, flow: FlowId, seq: u64, payload: u32) -> Packet {
        let mut p = match kind {
            PacketKind::Data => Packet::data(flow, NodeId(0), NodeId(2), seq, payload),
            _ => Packet::control(kind, flow, NodeId(0), NodeId(2)),
        };
        p.sched = SchedulingHeader::new(GBPS);
        p
    }

    /// Deliver `packets` to `agent` (the flows' destination) one by one: the kind and
    /// cumulative ACK of each echo, and the receivers held after each packet.
    fn echoes(
        agent: &mut PdqHostAgent,
        flows: &FlowMap<FlowInfo>,
        packets: impl IntoIterator<Item = Packet>,
    ) -> Vec<(PacketKind, u64, usize)> {
        let mut out = Vec::new();
        for packet in packets {
            let actions = run(SimTime::ZERO, flows, |ctx| agent.on_packet(packet, ctx));
            for a in &actions {
                if let Action::Send(echo) = a {
                    assert!(echo.reverse(), "{echo:?}");
                    out.push((echo.kind, echo.ack, agent.endpoints.receivers.len()));
                }
            }
        }
        out
    }

    #[test]
    fn term_retires_the_receiver_of_a_completed_flow() {
        use PacketKind::{Ack, Data, Probe, Syn, SynAck, Term, TermAck};
        let mut agent = PdqHostAgent::new(PdqParams::full(), Discipline::Exact, 2);
        let flows = flows_of([&info(1, 3_000, None)]);
        let f = FlowId(1);
        let got = echoes(
            &mut agent,
            &flows,
            [
                forward(Syn, f, 0, 0),
                forward(Data, f, 0, 1_500),
                forward(Probe, f, 0, 0),
                forward(Data, f, 1_500, 1_500),
                forward(Term, f, 3_000, 0),
            ],
        );
        let want = [
            (SynAck, 0, 1),
            (Ack, 1_500, 1),
            (Ack, 1_500, 1),
            (Ack, 3_000, 1),
            (TermAck, 3_000, 0),
        ];
        assert_eq!(got, want);
        assert_eq!(agent.endpoints.receivers.len(), 0);
    }

    #[test]
    fn term_retires_the_receiver_of_an_early_terminated_flow() {
        use PacketKind::{Ack, Data, Probe, Syn, SynAck, Term, TermAck};
        let mut agent = PdqHostAgent::new(PdqParams::full(), Discipline::Exact, 2);
        let mut flow = info(1, 10_000_000, None);
        flow.spec.deadline = Some(SimTime::from_millis(1));
        let flows = flows_of([&flow, &info(2, 3_000, None)]);
        let (f, other) = (FlowId(1), FlowId(2));
        let got = echoes(
            &mut agent,
            &flows,
            [
                forward(Syn, f, 0, 0),
                forward(Syn, other, 0, 0),
                forward(Data, f, 0, 1_500),
                // Out of order: the cumulative ACK stays put.
                forward(Data, f, 3_000, 1_500),
                forward(Probe, f, 0, 0),
                // Given up with most of the flow unsent.
                forward(Term, f, 4_500, 0),
            ],
        );
        let want = [
            (SynAck, 0, 1),
            (SynAck, 0, 2),
            (Ack, 1_500, 2),
            (Ack, 1_500, 2),
            (Ack, 1_500, 2),
            (TermAck, 1_500, 1),
        ];
        assert_eq!(got, want);
        // Only the other flow's receiver is left.
        let more = echoes(&mut agent, &flows, [forward(Data, other, 0, 1_500)]);
        assert_eq!(more, [(Ack, 1_500, 1)]);
    }

    #[test]
    fn a_subflow_receiver_retires_on_its_term() {
        use PacketKind::{Ack, Data, Term, TermAck};
        let mut params = PdqParams::full();
        params.subflows = 2;
        let mut agent = PdqHostAgent::new(params, Discipline::Exact, 2);
        let sub = subflow_id(FlowId(1), 0);
        let flows = flows_of([&info(sub.value(), 1_500, Some(FlowId(1)))]);
        let got = echoes(
            &mut agent,
            &flows,
            [forward(Data, sub, 0, 1_500), forward(Term, sub, 1_500, 0)],
        );
        // The subflow's sender reports it, not the receiver; the TERM retires the
        // receiver, as it does any flow's.
        assert_eq!(got, [(Ack, 1_500, 1), (TermAck, 1_500, 0)]);
    }

    /// A re-balance of three subflows — one finished, one paused, one sending — moves
    /// the paused one's unsent bytes to the sending one only: the finished one is no
    /// target and stays finished.
    #[test]
    fn a_rebalance_feeds_only_the_sending_subflow() {
        let mut params = PdqParams::full();
        params.subflows = 3;
        let mut agent = PdqHostAgent::new(params, Discipline::Exact, 1);
        let parent = info(1, 30_000, None);
        let split = run(SimTime::ZERO, &FlowMap::default(), |ctx| {
            agent.on_flow_arrival(&parent, ctx)
        });
        let subs: Vec<FlowInfo> = split
            .iter()
            .filter_map(|a| match a {
                Action::SpawnFlow(s) => Some(info(s.id.value(), s.size_bytes, s.parent)),
                _ => None,
            })
            .collect();
        let flows = flows_of(&subs);
        for sub in &subs {
            run(SimTime::ZERO, &flows, |ctx| agent.on_flow_arrival(sub, ctx));
        }
        let [done, paused, sending] = [0, 1, 2].map(|k| subs[k].spec.id);
        let t = SimTime::from_micros(200);
        let grant = |agent: &mut PdqHostAgent, id, rate| {
            let synack = feedback(PacketKind::SynAck, id, 0, rate, t);
            run(t, &flows, |ctx| agent.on_packet(synack, ctx));
        };
        grant(&mut agent, done, GBPS);
        grant(&mut agent, sending, GBPS);
        let mut pause = feedback(PacketKind::SynAck, paused, 0, 0.0, t);
        pause.sched.set_pause_by(Some(pdq_netsim::LinkId(5)));
        run(t, &flows, |ctx| agent.on_packet(pause, ctx));
        let t = SimTime::from_micros(500);
        let ack = feedback(PacketKind::Ack, done, 10_000, GBPS, t);
        run(t, &flows, |ctx| agent.on_packet(ack, ctx));

        fn sender(agent: &PdqHostAgent, id: FlowId) -> &PdqSender {
            &agent.endpoints.senders[&id]
        }
        assert_eq!(sender(&agent, done).status(), SenderStatus::Finished);
        assert!(sender(&agent, paused).is_paused());
        let before = [done, paused, sending].map(|id| sender(&agent, id).assigned_bytes());
        assert_eq!(before, [10_000; 3]);
        let t = SimTime::from_millis(1);
        run(t, &flows, |ctx| {
            agent.on_timer(FlowId(1), TimerKind::Rebalance, 0, ctx)
        });
        // Nothing of the paused subflow was sent: all of it moves.
        let after = [done, paused, sending].map(|id| sender(&agent, id).assigned_bytes());
        assert_eq!(after, [10_000, 0, 20_000]);
        assert_eq!(sender(&agent, done).status(), SenderStatus::Finished);
        assert_eq!(sender(&agent, sending).status(), SenderStatus::Active);
    }

    #[test]
    fn receiver_is_created_on_demand() {
        let mut agent = PdqHostAgent::new(PdqParams::full(), Discipline::Exact, 1);
        let mut flows = FlowMap::default();
        flows.insert(FlowId(1), info(1, 2_000, None));
        let mut ctx = Ctx::new(SimTime::ZERO, &flows);
        let syn = Packet::control(pdq_netsim::PacketKind::Syn, FlowId(1), NodeId(0), NodeId(2));
        agent.on_packet(syn, &mut ctx);
        let actions = ctx.take_actions();
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Send(p) if p.kind == pdq_netsim::PacketKind::SynAck)));
    }
}
