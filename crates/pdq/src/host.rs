//! The per-host PDQ transport agent, including Multipath PDQ (§6).
//!
//! A [`PdqHostAgent`] owns the sender state machines of the flows originating at its
//! host and the receiver state machines of the flows terminating there. When
//! configured with more than one subflow it becomes an **M-PDQ** sender: incoming
//! flows are split into subflows (each routed independently, so flow-level ECMP spreads
//! them over distinct paths), and a periodic re-balancer moves unsent bytes from paused
//! subflows to the sending subflow with the least remaining work.

use pdq_netsim::{Ctx, FlowId, FlowInfo, FlowMap, FlowSpec, HostAgent, Packet, SimTime, TimerKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::comparator::Discipline;
use crate::params::PdqParams;
use crate::receiver::PdqReceiver;
use crate::sender::{PdqSender, SenderStatus};

/// Base offset for generated subflow ids; parents must use ids below this.
const SUBFLOW_ID_BASE: u64 = 1 << 48;
/// Maximum number of subflows per flow.
const MAX_SUBFLOWS: usize = 16;

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
    params: PdqParams,
    discipline: Discipline,
    rng: SmallRng,
    senders: FlowMap<PdqSender>,
    receivers: FlowMap<PdqReceiver>,
    /// Parent flow id -> its subflow ids (only for flows originating at this host).
    children: FlowMap<Vec<FlowId>>,
    /// Subflow id -> parent flow id.
    parent_of: FlowMap<FlowId>,
    /// Parents already reported complete/terminated.
    parent_done: FlowMap<bool>,
}

impl PdqHostAgent {
    /// Create an agent. `seed` keeps any per-host randomness (random criticality)
    /// reproducible; pass e.g. the host's node id.
    pub fn new(params: PdqParams, discipline: Discipline, seed: u64) -> Self {
        PdqHostAgent {
            params,
            discipline,
            rng: SmallRng::seed_from_u64(seed),
            senders: FlowMap::default(),
            receivers: FlowMap::default(),
            children: FlowMap::default(),
            parent_of: FlowMap::default(),
            parent_done: FlowMap::default(),
        }
    }

    /// Number of currently tracked sender state machines (diagnostics / tests).
    pub fn active_senders(&self) -> usize {
        self.senders.len()
    }

    fn start_sender(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
        let random_crit = Discipline::draw_random_criticality(&mut self.rng);
        let mut sender = PdqSender::new(
            self.params.clone(),
            self.discipline.clone(),
            flow,
            flow.spec.size_bytes,
            random_crit,
        );
        sender.start(ctx);
        if let Some(parent) = flow.spec.parent {
            self.parent_of.insert(flow.spec.id, parent);
        }
        self.senders.insert(flow.spec.id, sender);
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
        self.parent_done.insert(flow.spec.id, false);
        // Periodic M-PDQ re-balancing.
        let interval = flow
            .base_rtt
            .mul_f64(self.params.rebalance_interval_rtts)
            .max(SimTime::from_micros(100));
        ctx.set_timer_after(flow.spec.id, TimerKind::Rebalance, interval, 0);
    }

    fn check_parent_completion(&mut self, parent: FlowId, ctx: &mut Ctx) {
        if self.parent_done.get(&parent).copied().unwrap_or(true) {
            return;
        }
        let Some(kids) = self.children.get(&parent) else {
            return;
        };
        let mut all_done = true;
        let mut any_terminated = false;
        for k in kids {
            match self.senders.get(k).map(|s| s.status()) {
                Some(SenderStatus::Finished) => {}
                Some(SenderStatus::Terminated) => any_terminated = true,
                _ => {
                    all_done = false;
                    break;
                }
            }
        }
        if all_done {
            self.parent_done.insert(parent, true);
            if any_terminated {
                ctx.flow_terminated(parent);
            } else {
                ctx.flow_completed(parent);
            }
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
                self.senders
                    .get(k)
                    .map(|s| s.status() == SenderStatus::Active && !s.is_paused())
                    .unwrap_or(false)
            })
            .min_by_key(|k| {
                self.senders
                    .get(k)
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
                if let Some(s) = self.senders.get_mut(k) {
                    if s.status() == SenderStatus::Active && s.is_paused() {
                        pool += s.shed_unsent_bytes();
                    }
                }
            }
            if pool > 0 {
                if let Some(s) = self.senders.get_mut(&target) {
                    s.add_bytes(pool);
                }
            }
        }
        self.check_parent_completion(parent, ctx);
        if !self.parent_done.get(&parent).copied().unwrap_or(true) {
            let interval = SimTime::from_secs_f64(
                self.params.rebalance_interval_rtts * self.params.default_rtt.as_secs_f64(),
            )
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
        if packet.reverse {
            // We are the flow's source: feed the sender.
            if let Some(sender) = self.senders.get_mut(&packet.flow) {
                sender.on_packet(&packet, ctx);
                if sender.status() != SenderStatus::Active {
                    if let Some(parent) = self.parent_of.get(&packet.flow).copied() {
                        self.check_parent_completion(parent, ctx);
                    }
                }
            }
        } else {
            // We are the flow's destination: feed (or create) the receiver.
            let receiver = match self.receivers.entry(packet.flow) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let Some(info) = ctx.flow(packet.flow) else {
                        return;
                    };
                    e.insert(PdqReceiver::new(
                        packet.flow,
                        info.spec.size_bytes,
                        info.bottleneck_rate_bps,
                        info.spec.parent.is_some(),
                    ))
                }
            };
            receiver.on_packet(&packet, ctx);
        }
    }

    fn on_timer(&mut self, flow: FlowId, kind: TimerKind, token: u64, ctx: &mut Ctx) {
        if kind == TimerKind::Rebalance {
            self.rebalance(flow, ctx);
            return;
        }
        if let Some(sender) = self.senders.get_mut(&flow) {
            sender.on_timer(kind, token, ctx);
            if sender.status() != SenderStatus::Active {
                if let Some(parent) = self.parent_of.get(&flow).copied() {
                    self.check_parent_completion(parent, ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_netsim::{Action, FlowPath, LinkId, NodeId};

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
            path: FlowPath::new(
                vec![NodeId(0), NodeId(1), NodeId(2)],
                vec![LinkId(0), LinkId(2)],
            )
            .into(),
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
