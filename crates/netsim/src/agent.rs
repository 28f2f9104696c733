//! Host-side transport agents.
//!
//! Each host in the simulation runs one [`HostAgent`], which implements both the sender
//! and receiver sides of a transport protocol (PDQ, TCP, RCP, D3, ...). The engine
//! drives the agent through three callbacks — flow arrival, packet delivery and timer
//! expiry — and the agent responds by pushing [`Action`]s into the provided [`Ctx`].
//! This callback/action split keeps protocol logic free of borrow entanglement with the
//! engine and makes protocols unit-testable without a network.
//!
//! Every action takes effect at the host whose callback issued it, at that instant: a
//! sent packet enters the network there, a timer fires there, and a spawned flow starts
//! there. An agent acts on its own node only; the far end of a flow hears from it
//! through packets.

use std::collections::HashMap;
use std::hash::BuildHasher;

use crate::event::TimerKind;
use crate::flow::FlowSpec;
use crate::ids::FlowId;
use crate::packet::Packet;
use crate::time::SimTime;

/// Everything an agent may want to know about a flow when it starts (and later via
/// [`Ctx::flow`]): the spec, plus what the engine derived from the path the router
/// chose.
///
/// The path itself is not here. The engine keeps a flow's links in one place, its
/// route arena, from the arrival until nothing of the finished flow is left in the
/// network; no agent needs them, and re-routing a flow means injecting a new flow
/// (e.g. an M-PDQ subflow). The engine holds one `FlowInfo` per flow, in the flow's
/// slot, so [`Ctx::flow`] hands out a reference, never a copy. [`Ctx::flow`] finds a
/// flow while it can still have a packet or a timer: in every callback for the flow,
/// and no longer once it has been retired.
#[derive(Clone, Debug)]
pub struct FlowInfo {
    /// The flow specification (size, deadline, endpoints, arrival time).
    pub spec: FlowSpec,
    /// The minimum link rate along the forward path, i.e. the highest rate at which the
    /// flow could possibly be served (`R^max` in the paper, before receiver limits).
    pub bottleneck_rate_bps: f64,
    /// The rate of the sender's access link (NIC rate).
    pub nic_rate_bps: f64,
    /// A static estimate of the round-trip time along the path (transmission of a
    /// full-size packet + propagation + processing, both directions, empty queues).
    /// Protocols use it to seed their RTT estimators before real samples exist.
    pub base_rtt: SimTime,
}

/// Actions an agent can request from the engine.
#[derive(Clone, Debug)]
pub enum Action {
    /// Hand a packet to this host's NIC. The engine forwards it along the flow's path:
    /// a forward packet from the flow's source, a reverse one from its destination.
    Send(Packet),
    /// Ask for [`HostAgent::on_timer`] to be invoked on this host at absolute time
    /// `at`.
    SetTimer {
        /// The flow the timer belongs to.
        flow: FlowId,
        /// Timer class.
        kind: TimerKind,
        /// Absolute expiry time.
        at: SimTime,
        /// The instant the timer was armed: its firing's creation stamp, which orders
        /// it first among same-instant events (see the `event` module). It is the
        /// callback's `now` for [`Ctx::set_timer_at`] and [`Ctx::set_timer_after`]; a
        /// [`RestartTimer`](crate::RestartTimer) re-queueing a deadline armed earlier
        /// stamps that earlier instant. Never later than the callback's `now`.
        created: SimTime,
        /// Opaque token echoed back to the agent (used to detect stale timers).
        token: u64,
    },
    /// Declare a flow complete (all application bytes delivered). Recorded by the engine.
    FlowCompleted(FlowId),
    /// Declare a flow terminated without completing (Early Termination / quenching).
    FlowTerminated(FlowId),
    /// Inject a brand-new flow (used by M-PDQ to create subflows) whose source is this
    /// host. The engine routes it and delivers `on_flow_arrival` here at the given
    /// arrival time.
    ///
    /// # Panics
    /// The engine panics if `spec.src` is another node.
    SpawnFlow(FlowSpec),
}

/// Read-only lookup of per-flow routing/size information.
///
/// The engine implements this on its dense flow slab; protocol unit tests implement it
/// for free via the blanket impl on `HashMap<FlowId, FlowInfo, _>`, so a test can hand
/// [`Ctx::new`] a plain map (or a [`FlowMap`](crate::ids::FlowMap)).
pub trait FlowLookup {
    /// The routing/size information of a flow, if the flow is known.
    fn flow_info(&self, id: FlowId) -> Option<&FlowInfo>;
}

impl<S: BuildHasher> FlowLookup for HashMap<FlowId, FlowInfo, S> {
    fn flow_info(&self, id: FlowId) -> Option<&FlowInfo> {
        self.get(&id)
    }
}

/// The callback context handed to agents. Collects actions and exposes read-only flow
/// information; the engine applies the queued actions after the callback returns.
pub struct Ctx<'a> {
    now: SimTime,
    flows: &'a dyn FlowLookup,
    actions: Vec<Action>,
}

impl<'a> Ctx<'a> {
    /// Create a context (used by the engine and by protocol unit tests).
    pub fn new(now: SimTime, flows: &'a dyn FlowLookup) -> Self {
        Ctx::with_buffer(now, flows, Vec::new())
    }

    /// A context that collects into `actions` (empty, but with whatever capacity
    /// earlier callbacks grew it to): the engine hands every callback the same buffer
    /// and gets it back through [`Ctx::take_actions`].
    pub(crate) fn with_buffer(
        now: SimTime,
        flows: &'a dyn FlowLookup,
        actions: Vec<Action>,
    ) -> Self {
        debug_assert!(actions.is_empty());
        Ctx {
            now,
            flows,
            actions,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Look up the routing/size information of a flow known to the engine.
    pub fn flow(&self, id: FlowId) -> Option<&FlowInfo> {
        self.flows.flow_info(id)
    }

    /// Queue a packet for transmission. The engine stamps nothing: the agent is
    /// responsible for setting `sent_at` and the scheduling header before sending.
    pub fn send(&mut self, packet: Packet) {
        self.actions.push(Action::Send(packet));
    }

    /// Add a timer firing on this host at an absolute time.
    ///
    /// This queues one more timer: nothing cancels a timer, every timer set earlier
    /// still fires, and the agent tells a stale one from the live one by its token. A
    /// deadline that is re-armed over and over (a retransmission timeout) belongs in a
    /// [`RestartTimer`](crate::RestartTimer), which queues no event for a later re-arm.
    pub fn set_timer_at(&mut self, flow: FlowId, kind: TimerKind, at: SimTime, token: u64) {
        self.set_timer_created(flow, kind, at, self.now, token);
    }

    /// Add a timer firing `delay` after the current time (see [`Ctx::set_timer_at`]).
    pub fn set_timer_after(&mut self, flow: FlowId, kind: TimerKind, delay: SimTime, token: u64) {
        let at = self.now + delay;
        self.set_timer_at(flow, kind, at, token);
    }

    /// Add a timer stamped as armed at `created` rather than now (clamped to now): a
    /// [`RestartTimer`](crate::RestartTimer) re-queueing a deadline armed earlier
    /// gives the firing the key that arming would have given it.
    pub(crate) fn set_timer_created(
        &mut self,
        flow: FlowId,
        kind: TimerKind,
        at: SimTime,
        created: SimTime,
        token: u64,
    ) {
        self.actions.push(Action::SetTimer {
            flow,
            kind,
            at,
            created: created.min(self.now),
            token,
        });
    }

    /// Mark a flow as completed.
    pub fn flow_completed(&mut self, flow: FlowId) {
        self.actions.push(Action::FlowCompleted(flow));
    }

    /// Mark a flow as terminated early.
    pub fn flow_terminated(&mut self, flow: FlowId) {
        self.actions.push(Action::FlowTerminated(flow));
    }

    /// Inject a new flow (e.g. an M-PDQ subflow) whose source is this host.
    pub fn spawn_flow(&mut self, spec: FlowSpec) {
        self.actions.push(Action::SpawnFlow(spec));
    }

    /// Drain the queued actions (used by the engine; also handy in protocol tests).
    pub fn take_actions(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.actions)
    }

    /// Peek at the queued actions without draining them.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }
}

/// A per-host transport endpoint (sender + receiver state machines).
pub trait HostAgent {
    /// A flow whose source is this host has arrived and should start being served.
    fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx);

    /// A packet addressed to this host has been delivered: forward-direction packets at
    /// the flow destination, reverse-direction packets (ACKs) at the flow source.
    fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx);

    /// A previously-set timer fired.
    fn on_timer(&mut self, flow: FlowId, kind: TimerKind, token: u64, ctx: &mut Ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn ctx_collects_actions_in_order() {
        let flows: HashMap<FlowId, FlowInfo> = HashMap::new();
        let mut ctx = Ctx::new(SimTime::from_millis(1), &flows);
        assert_eq!(ctx.now(), SimTime::from_millis(1));
        ctx.flow_completed(FlowId(1));
        ctx.set_timer_after(FlowId(1), TimerKind::Rto, SimTime::from_millis(2), 7);
        let acts = ctx.take_actions();
        assert_eq!(acts.len(), 2);
        match &acts[1] {
            Action::SetTimer {
                at, created, token, ..
            } => {
                assert_eq!(*at, SimTime::from_millis(3));
                assert_eq!(*created, SimTime::from_millis(1));
                assert_eq!(*token, 7);
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert!(ctx.take_actions().is_empty());
    }

    #[test]
    fn ctx_flow_lookup() {
        let mut flows = HashMap::new();
        let spec = FlowSpec::new(3, NodeId(0), NodeId(1), 1000);
        flows.insert(
            FlowId(3),
            FlowInfo {
                spec: spec.clone(),
                bottleneck_rate_bps: 1e9,
                nic_rate_bps: 1e9,
                base_rtt: SimTime::from_micros(100),
            },
        );
        let ctx = Ctx::new(SimTime::ZERO, &flows);
        assert!(ctx.flow(FlowId(3)).is_some());
        assert_eq!(ctx.flow(FlowId(3)).unwrap().spec, spec);
        assert!(ctx.flow(FlowId(4)).is_none());
    }
}
