//! The discrete-event simulation engine.
//!
//! The engine owns the network, the per-host transport agents, the per-link switch
//! controllers and the event queue, and advances simulated time event by event:
//!
//! * flow arrivals are routed and handed to the source host's agent;
//! * packets are moved hop by hop across links, experiencing serialization,
//!   propagation, per-hop processing delay, FIFO tail-drop queueing and (optionally)
//!   random loss;
//! * switch egress links may run a [`LinkController`] that inspects and rewrites the
//!   scheduling header of forward packets and of the ACKs passing back through the
//!   owning switch (this is how PDQ, RCP and D3 are implemented);
//! * host agents receive delivered packets and timer callbacks and respond with
//!   actions (send, set timer, complete/terminate flow, spawn subflow).
//!
//! There is one driver, [`Simulator::run_sharded`] (see the `shard` module for the
//! window loop and the determinism model): it partitions the state across N
//! cooperating `EngineCore`s synchronized by conservative lookahead — shard 0 on the
//! caller's thread, the others on a thread each — and [`Simulator::run`] is its N = 1
//! case: one core, one window, the caller's thread.
//! Either way a run is fully deterministic for a fixed seed.
//!
//! # Hot-path layout (id slabs, route arena, in-flight slab, ledger links)
//!
//! All engine state is held in dense, id-indexed slabs rather than hash maps:
//!
//! * **agents** — `Vec<Option<Box<dyn HostAgent + Send>>>` indexed by [`NodeId`];
//! * **controllers** — `Vec<Option<Box<dyn LinkController + Send>>>` indexed by
//!   [`LinkId`];
//! * **flows** — a `FlowTable`: two parallel slabs indexed by a per-core flow slot.
//!   The *hot* one (`FlowHot`, 12 bytes a flow: its route offset, its link count and
//!   what of it the core still holds) is all that sending a packet reads, and stays
//!   cache-resident with thousands of flows live; the *cold* one (`FlowState`, 120
//!   bytes: the flow's 80-byte [`FlowInfo`] — the engine's one copy of its 56-byte
//!   spec, whose deadline, parent and coflow tag are stored without `Option` tags
//!   (see the `flow` module) — and its accounting; the [`FlowRecord`] is built in
//!   its place at the merge) is read when a flow arrives or finishes, when an agent
//!   asks for its `FlowInfo`, and to count a drop or delivered bytes. What only the
//!   goodput trace sampler reads, a flow's delivered bytes at the previous sample,
//!   is in the sampler's own per-slot store, empty unless flows are traced. A flow
//!   holds its slot from injection to the merge; the flows injected before the run
//!   are ordered by arrival and fed to the event queue
//!   one at a time. Beside the slabs a flat **route arena** holds each routed flow's
//!   forward links — the only copy of its path — followed by the links its ACKs take,
//!   and a `FlowId -> slot` index
//!   ([`FlowMap`]: one multiply-xorshift round, not SipHash) is consulted only at the
//!   per-packet boundaries (a packet sent, a timer set, a flow finished, a shard's
//!   message); a timer that fires carries its flow's slot. Both hold only the flows
//!   that can still have a packet on the core: a flow enters the index when it
//!   arrives, is spawned or is registered, and once it is finished and nothing of it
//!   is left — no packet in flight, no timer pending, on this core or any other — it
//!   is *retired*: its index entry goes and its arena run is reused by the next flow
//!   routed over as many links (see `EngineCore::try_retire`). [`NodeId`]/[`LinkId`]
//!   are sequential by construction; [`FlowId`]s may be sparse (M-PDQ subflow ids,
//!   workload-chosen ids), which is exactly what the index absorbs.
//!
//! The *per-hop* path reads hop state only: the popped event, the packet, one run of
//! the route arena, the link controller and the link. When a packet enters the network
//! (or is taken over from another shard) the engine stamps the flow's slot, its arena
//! offset and its link count into it and writes it into a recycled slot of the core's
//! **in-flight slab**, where it stays until it is delivered, dropped or moved (by
//! value) into the outbox for another shard. A slot is 144 bytes: an `Option<Packet>`
//! of 120 (the kind's niche holds the `None`: 56 of scheduling header, 32 of flow id,
//! byte offsets and send time, 28 of endpoints, payload and the engine's `u32` stamp
//! and hop index, 1 of kind and 3 of padding; the wire size and the direction are
//! derived from the payload and the kind, not stored), then the link the packet is
//! crossing, the next slot on that link's arrival FIFO, its departure time and its
//! arrival's sequence number. The slab grows 256 slots at a time and never moves one.
//! Each hop then knows it has arrived when `hop == nlinks` — which is why a routed path
//! must be simple; one that revisits a node is refused like no path at all — or finds
//! its next link at `routes[route + hop]` (`routes[route + nlinks + hop]` for an ACK),
//! lets the link controller rewrite the packet in place, and sends the same `u32` slot
//! on: no hash, no allocation, no packet copy, no per-flow state.
//!
//! A hop is **one event**. A link is a departure ledger (see the `network` module):
//! accepting a packet fixes when its last bit leaves, so its arrival at the next node
//! is known at once, stamped as created at the departure — the same
//! `(at, created, class, flow, subkey)` key it would have got from a transmit-done
//! event popping at that instant, hence the same place in the event order. Before the
//! engine reads a link (tail-drop check, controller callback, trace sample, final
//! results) it settles it against the key of the event being dispatched — once per
//! link per event. The ledgers of all links of a core share one slab in its
//! [`Network`]: a queued packet holds one 24-byte entry, retired entries are reused
//! by the next packet accepted on any link, and the slab is as long as the most
//! departures queued at once on the core ([`EngineStats::ledger_high_water`]).
//!
//! A link is also a **delay line**: a fixed latency after a FIFO, so its packets
//! arrive in the order it accepted them. Each link keeps an arrival FIFO of its
//! packets in flight, chained through their in-flight slots, and only the FIFO's head
//! has its `PacketAtNode` in the event queue. The arrival takes its sequence number
//! when the link accepts the packet ([`EventQueue::reserve_seq`]), and dispatching the
//! head queues the next packet's arrival under its reserved number, so every arrival
//! pops with exactly the key `(at, created, class, flow, subkey, seq)` it had when
//! every packet in flight was an event of its own. A packet joins the FIFO only if it
//! left strictly after the FIFO's tail; one that left at the same instant (a 56-byte
//! packet serialized in 0 ns on a link of terabits) would arrive at the same instant,
//! where the event order is decided by content, not by the link's order, so its
//! arrival is queued on its own. A packet taken over from another shard joins the
//! receiving core's FIFO of the cut link it crossed. On the high-BDP WAN a packet in
//! flight thus costs its 144-byte slot and no 64-byte event.
//!
//! # Agent actions take effect where the agent is
//!
//! An agent's actions take effect at the node whose callback issued them, at that
//! instant: a `Send` enters the network there, a timer is scheduled there, and a
//! spawned flow must have that node as its source. No action reaches another node, so
//! none crosses a shard boundary — what crosses is packets on links, flow
//! registrations and finish notices (see the `shard` module) — and a lone core and N
//! shards see the same actions at the same instants.
//!
//! Nothing cancels a timer: `Ctx::set_timer_*` adds one, and every timer set pops.
//! Neither re-arming nor a flow finishing retires an earlier one — a finish detected
//! at the receiver has no business reaching a timer pending at the sender. Agents
//! ignore late timers through status guards and per-timer tokens. A deadline an agent
//! re-arms over and over (a retransmission timeout, restarted on every ACK of new
//! data) is a [`RestartTimer`](crate::RestartTimer) instead: it queues a firing only
//! when the new deadline is no later than the one queued, and a firing that pops early
//! re-queues the latest deadline with the creation stamp (`Action::SetTimer`'s
//! `created`) and token its arming gave it — so the firing that acts pops at exactly
//! the place in the event order a timer per arming would have, and the superseded
//! firings never enter the queue. The engine schedules every timer with the stamp the
//! action carries, which is never later than the current instant.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::agent::{Action, Ctx, FlowInfo, FlowLookup, HostAgent};
use crate::controller::LinkController;
use crate::event::{EventKey, EventKind, EventQueue, PacketSlot, TimerKind};
use crate::flow::{FlowPath, FlowRecord, FlowSpec};
use crate::ids::{FlowId, FlowMap, LinkId, NodeId};
use crate::metrics::{Sample, SimResults, TraceConfig, Traces};
use crate::network::{Network, NodeKind, DEFAULT_PROCESSING_DELAY};
use crate::packet::{Packet, PacketKind, CONTROL_PACKET_BYTES, MTU_BYTES};
use crate::shard::{MsgBody, ShardAssignment, ShardMsg};
use crate::time::SimTime;

/// Chooses the forward path of each flow. Implemented by the topology crate
/// (shortest path, ECMP, BCube address routing); a plain closure also works.
pub trait Router {
    /// Compute the forward path for `spec` over `net`, or `None` if the pair is
    /// disconnected. An unroutable flow is recorded as [`crate::FlowOutcome::Failed`]
    /// instead of aborting the run — and so is one whose path visits a node twice:
    /// packets are delivered by hop count, which needs a simple path.
    fn route(&mut self, net: &Network, spec: &FlowSpec, rng: &mut SmallRng) -> Option<FlowPath>;
}

impl<F> Router for F
where
    F: FnMut(&Network, &FlowSpec, &mut SmallRng) -> Option<FlowPath>,
{
    fn route(&mut self, net: &Network, spec: &FlowSpec, rng: &mut SmallRng) -> Option<FlowPath> {
        self(net, spec, rng)
    }
}

/// Routes every flow over the BFS shortest path (deterministic).
#[derive(Debug, Default, Clone, Copy)]
pub struct ShortestPathRouter;

impl Router for ShortestPathRouter {
    fn route(&mut self, net: &Network, spec: &FlowSpec, _rng: &mut SmallRng) -> Option<FlowPath> {
        net.shortest_path(spec.src, spec.dst)
    }
}

/// The RNG a multipath router draws from when routing `flow`, derived from the
/// run seed and the flow id alone. Routing is therefore a pure function of the
/// flow — independent of arrival interleaving and of which shard performs it —
/// so runtime-spawned flows (e.g. M-PDQ subflows) take the same path at every
/// `engine_threads`.
pub(crate) fn route_rng(seed: u64, flow: FlowId) -> SmallRng {
    SmallRng::seed_from_u64(crate::event::mix(seed, flow.value()))
}

/// Domain-separation salt for per-link loss streams: keeps a link's loss stream
/// independent of the per-flow routing streams derived from the same master seed.
const LINK_LOSS_SALT: u64 = 0x6C6F_7373_6C6E_6B73; // "losslnks"

/// The private loss stream of `link`: a pure function of `(seed, link id)`, consumed
/// in the order packets are handed to the link — an order the deterministic engine
/// reproduces at every shard count.
pub(crate) fn link_loss_rng(seed: u64, link: LinkId) -> SmallRng {
    SmallRng::seed_from_u64(crate::event::mix(
        seed ^ LINK_LOSS_SALT,
        link.index() as u64,
    ))
}

/// Content tie-break subkey for a packet's `PacketAtNode` event, derived from the
/// packet's simulation-visible identity (kind, byte offsets, direction) — never from
/// the engine-local in-flight slot. The owning flow id is carried separately in the event
/// as the primary key. Every engine computes the same key for the same packet
/// regardless of which shard forwarded it, which is what keeps the event order
/// identical at every shard count.
pub(crate) fn packet_tie(p: &Packet) -> u64 {
    let kind_rank = match p.kind {
        PacketKind::Syn => 0u64,
        PacketKind::SynAck => 1,
        PacketKind::Data => 2,
        PacketKind::Ack => 3,
        PacketKind::Term => 4,
        PacketKind::TermAck => 5,
        PacketKind::Probe => 6,
    };
    crate::event::mix(
        p.seq ^ p.ack.rotate_left(17),
        (kind_rank << 1) | p.reverse() as u64,
    )
}

/// Global simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed. Each lossy link draws from a private stream derived from
    /// `(seed, link id)`, and ECMP routing from one derived from `(seed, flow id)`,
    /// so drops and paths are shard-count invariant.
    pub seed: u64,
    /// Hard stop: the run never advances past this simulated time.
    pub max_sim_time: SimTime,
    /// Per-hop processing delay charged when a packet is received by a node.
    pub processing_delay: SimTime,
    /// Stop as soon as every injected flow has completed or terminated.
    pub stop_when_flows_done: bool,
    /// Time-series sampling configuration.
    pub trace: TraceConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            max_sim_time: SimTime::from_secs(30),
            processing_delay: DEFAULT_PROCESSING_DELAY,
            stop_when_flows_done: true,
            trace: TraceConfig::default(),
        }
    }
}

/// Where a flow is in its life on one core, in the order a merge of several cores'
/// stages keeps the greatest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Stage {
    /// Injected or spawned, its arrival still to come: invisible to agents, and no
    /// record if the run ends first.
    Pending,
    /// Routed: visible to agents, its links in the route arena.
    Routed,
    /// Arrived, but the router could not place it: recorded as failed, never to touch
    /// an agent or a link.
    Failed,
}

/// How a flow ended, as one core saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Finish {
    pub(crate) at: SimTime,
    /// True for completion, false for early termination.
    pub(crate) completed: bool,
}

impl Finish {
    /// True if `self` replaces `other` as the flow's finish: earlier wins, and at equal
    /// times completion beats termination.
    pub(crate) fn beats(self, other: Option<Finish>) -> bool {
        match other {
            None => true,
            Some(o) => self.at < o.at || (self.at == o.at && self.completed && !o.completed),
        }
    }
}

/// The cold half of a flow's engine state, and the only place its spec is kept: what
/// arrivals, agent lookups, finishes, trace samples and the final merge read. Nothing
/// on the per-packet paths touches it except to count a drop or delivered bytes (see
/// [`FlowHot`]). The flow's [`FlowRecord`] is assembled from it at the merge.
pub(crate) struct FlowState {
    /// The spec, and once the flow is routed the rates and RTT estimate derived from
    /// its path: what [`Ctx::flow`] returns for a routed flow.
    pub(crate) info: FlowInfo,
    pub(crate) stage: Stage,
    /// True on the shard that owns the flow's source host (always true on a
    /// lone core). Only the home replica counts towards `unfinished_flows`;
    /// other shards hold replicas for forwarding/delivery and report their local
    /// accounting through the deterministic result merge.
    pub(crate) home: bool,
    /// [`FlowRecord::raw_bytes_delivered`] on this core.
    pub(crate) raw_bytes_delivered: u64,
    /// [`FlowRecord::drops`] on this core.
    pub(crate) drops: u64,
    pub(crate) finish: Option<Finish>,
    /// On the home slot of a finished flow with replicas: the replies still awaited
    /// to the poll asking every core on its path whether it holds anything of the
    /// flow (0 while no poll is out; see `EngineCore::try_retire`).
    pub(crate) awaited: u32,
    /// True while every reply to that poll said the core held nothing.
    pub(crate) all_idle: bool,
}

impl FlowState {
    /// A flow whose arrival is still to come, on its home core.
    pub(crate) fn pending(spec: FlowSpec) -> Self {
        let info = FlowInfo {
            spec,
            bottleneck_rate_bps: 0.0,
            nic_rate_bps: 0.0,
            base_rtt: SimTime::ZERO,
        };
        FlowState::new(info, Stage::Pending, true)
    }

    pub(crate) fn new(info: FlowInfo, stage: Stage, home: bool) -> Self {
        FlowState {
            info,
            stage,
            home,
            raw_bytes_delivered: 0,
            drops: 0,
            finish: None,
            awaited: 0,
            all_idle: false,
        }
    }

    /// The flow's record on this core; none for a flow that never arrived.
    pub(crate) fn into_record(self) -> Option<FlowRecord> {
        if self.stage == Stage::Pending {
            return None;
        }
        let mut record = FlowRecord::new(self.info.spec);
        record.raw_bytes_delivered = self.raw_bytes_delivered;
        record.drops = self.drops;
        record.failed = self.stage == Stage::Failed;
        if let Some(Finish { at, completed }) = self.finish {
            record.completed_at = completed.then_some(at);
            record.terminated_at = (!completed).then_some(at);
            record.bytes_acked = if completed { record.spec.size_bytes } else { 0 };
        }
        Some(record)
    }
}

/// The hot half of a flow's engine state: all that sending a packet and taking one
/// over from another shard need, and what tells the core when it may let the flow's
/// route go. It lives in a slab of its own so that thousands of live flows stay
/// cache-resident (12 bytes each against 120 for a [`FlowState`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FlowHot {
    /// Where the flow's links start in [`FlowTable::routes`].
    pub(crate) route: u32,
    /// Links on the flow's path; 0 for a flow not routed — not yet arrived, not placed
    /// by the router, or retired — which sends no packet.
    pub(crate) nlinks: u32,
    /// What of the flow this core still holds: its packets inside this core's
    /// network, its timers pending here, and the agent callback running for it (its
    /// arrival, one of its packets or one of its timers). Until it is 0 an agent here
    /// may still send on the flow or look it up.
    pub(crate) refs: u32,
}

/// Per-flow state in dense slabs — hot and cold halves side by side, indexed by the
/// same slot — plus the flat route arena and the sparse `FlowId -> slot` index.
///
/// A flow has one slot per core that knows it, from the moment it is injected (or
/// spawned, or registered by the shard it is homed on) until the results are merged;
/// slots are never reused within a run, so a slot is a stable dense id for the flow
/// *on this core*, and a home slot becomes the flow's record in place. The flows
/// injected before the run take the first slots, in the order their arrivals pop
/// (`(arrival, id)`), so the next arrival is always the next slot.
///
/// The index and the route arena hold only the flows that can still have a packet on
/// this core: a flow enters the index when it arrives, is spawned or is registered,
/// and its links enter the arena when it is routed. Once it is finished and nothing of
/// it is left (see [`FlowHot::refs`] and `EngineCore::try_retire`), the flow is
/// *retired*: its index entry goes, and its arena run goes onto a free list of runs of
/// its length, for the next flow routed over as many links. The index is consulted
/// once per packet an agent sends, per timer it sets and per finish; per-hop code
/// needs neither the index nor the slabs, only the route stamp in the packet.
///
/// `routes` holds, for each routed flow, its `n` forward links followed by the `n`
/// links its ACKs take (`network.reverse(links[n-1-h])` at reverse hop `h`), so a hop
/// in either direction is one index into one contiguous run of link ids.
#[derive(Default)]
pub(crate) struct FlowTable {
    pub(crate) hot: Vec<FlowHot>,
    pub(crate) slots: Vec<FlowState>,
    pub(crate) routes: Vec<LinkId>,
    /// Per path length: the offsets of released runs of `routes`.
    free_runs: Vec<Vec<u32>>,
    /// Entries of `routes` held by routed flows, now and at most.
    routes_in_use: u64,
    routes_high_water: u64,
    index: FlowMap<u32>,
}

impl FlowTable {
    pub(crate) fn contains(&self, id: FlowId) -> bool {
        self.index.contains_key(&id)
    }

    pub(crate) fn slot_of(&self, id: FlowId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// Enter the flow in `slot` into the index.
    ///
    /// # Panics
    /// If a flow with its id is indexed already.
    pub(crate) fn index(&mut self, slot: u32) {
        let id = self.slots[slot as usize].info.spec.id;
        let fresh = self.index.insert(id, slot).is_none();
        assert!(fresh, "duplicate flow id {id:?}");
    }

    /// Add a flow, indexed but unrouted: it sends nothing until
    /// [`FlowTable::set_route`] gives it links.
    pub(crate) fn push(&mut self, state: FlowState) -> u32 {
        let slot = self.slots.len() as u32;
        self.hot.push(FlowHot::default());
        self.slots.push(state);
        self.index(slot);
        slot
    }

    /// Order the flows added before the run (their hot halves not yet built) by
    /// `(arrival, id)`, the order their arrivals pop. Each enters the index when it
    /// arrives.
    pub(crate) fn order_injected(&mut self) {
        debug_assert!(self.hot.is_empty() && self.index.is_empty());
        self.slots
            .sort_unstable_by_key(|s| (s.info.spec.arrival, s.info.spec.id));
        self.hot = vec![FlowHot::default(); self.slots.len()];
    }

    /// Give the flow in `slot` its path: lay `links` and the links its ACKs take out
    /// in the route arena, in a released run of the same length if there is one.
    pub(crate) fn set_route(&mut self, slot: u32, network: &Network, links: &[LinkId]) {
        let n = links.len();
        let run = match self.free_runs.get_mut(n).and_then(Vec::pop) {
            Some(run) => run as usize,
            None => {
                let run = self.routes.len();
                self.routes.resize(run + 2 * n, LinkId(NIL));
                run
            }
        };
        let (forward, reverse) = self.routes[run..][..2 * n].split_at_mut(n);
        forward.copy_from_slice(links);
        for (r, &l) in reverse.iter_mut().zip(links.iter().rev()) {
            *r = network.reverse(l);
        }
        let hot = &mut self.hot[slot as usize];
        hot.route = u32::try_from(run).expect("route arena exceeds u32 offsets");
        hot.nlinks = n as u32;
        self.routes_in_use += 2 * n as u64;
        self.routes_high_water = self.routes_high_water.max(self.routes_in_use);
    }

    /// Retire the flow in `slot`: drop its index entry and release its arena run.
    pub(crate) fn retire(&mut self, slot: u32) {
        let id = self.slots[slot as usize].info.spec.id;
        let removed = self.index.remove(&id);
        debug_assert_eq!(removed, Some(slot), "{id:?} retired twice");
        let hot = &mut self.hot[slot as usize];
        debug_assert_eq!(hot.refs, 0, "{id:?} retired while still held");
        let n = std::mem::take(&mut hot.nlinks) as usize;
        if n == 0 {
            return;
        }
        if self.free_runs.len() <= n {
            self.free_runs.resize_with(n + 1, Vec::new);
        }
        self.free_runs[n].push(hot.route);
        self.routes_in_use -= 2 * n as u64;
    }

    /// The most route-arena entries routed flows held at once.
    pub(crate) fn route_high_water(&self) -> u64 {
        self.routes_high_water
    }

    /// The forward links of the flow in `slot` (none for an unrouted flow).
    pub(crate) fn links(&self, slot: u32) -> &[LinkId] {
        let hot = self.hot[slot as usize];
        &self.routes[hot.route as usize..][..hot.nlinks as usize]
    }

    /// Stamp `packet` with the flow's slot and route on this core, and count it as
    /// held; returns the hot state it stamped from. A flow not routed here stamps
    /// `nlinks == 0` and is not held.
    #[inline]
    pub(crate) fn stamp(&mut self, slot: u32, packet: &mut Packet) -> FlowHot {
        let hot = &mut self.hot[slot as usize];
        packet.flow_slot = slot;
        packet.route = hot.route;
        packet.nlinks = hot.nlinks;
        if hot.nlinks > 0 {
            hot.refs += 1;
        }
        *hot
    }

    /// True if `packet`'s stamp still names its flow's route on this core: what every
    /// packet inside the network must satisfy, since a flow's run is released only
    /// once none of its packets is left here.
    pub(crate) fn holds_route_of(&self, packet: &Packet) -> bool {
        let hot = self.hot[packet.flow_slot as usize];
        hot.nlinks == packet.nlinks && hot.route == packet.route && hot.refs > 0
    }

    /// The link a stamped packet takes at its current hop, and the forward link whose
    /// controller sees it pass: the same link for a forward packet; for a reverse
    /// packet the forward link leaving the node it is at (none at hop 0, where it is
    /// still at the destination host).
    #[inline]
    pub(crate) fn hop_links(&self, packet: &Packet) -> (LinkId, Option<LinkId>) {
        let (route, nlinks, hop) = (
            packet.route as usize,
            packet.nlinks as usize,
            packet.hop as usize,
        );
        debug_assert!(hop < nlinks, "hop {hop} beyond a {nlinks}-link path");
        debug_assert!(
            self.holds_route_of(packet),
            "{:?} forwarded on a released route",
            packet.flow
        );
        if packet.reverse() {
            let ctl = (hop >= 1).then(|| self.routes[route + nlinks - hop]);
            (self.routes[route + nlinks + hop], ctl)
        } else {
            let next = self.routes[route + hop];
            (next, Some(next))
        }
    }
}

impl FlowLookup for FlowTable {
    fn flow_info(&self, id: FlowId) -> Option<&FlowInfo> {
        let state = &self.slots[self.slot_of(id)? as usize];
        (state.stage == Stage::Routed).then_some(&state.info)
    }
}

/// The end of an arrival FIFO or of the in-flight slab's free list.
const NIL: u32 = u32::MAX;

/// Slots per page of the in-flight slab (a power of two): 36 KiB of 144-byte slots.
const SLAB_PAGE: usize = 256;

/// A slot of the in-flight slab: a packet inside the network, and its place on the
/// arrival FIFO of the link it is crossing.
#[derive(Clone)]
pub(crate) struct InFlight {
    /// The packet; `None` while the slot is free.
    packet: Option<Packet>,
    /// The link it is crossing.
    link: LinkId,
    /// The next packet on that link's arrival FIFO, or the next free slot.
    next: u32,
    /// When its last bit left the link: its arrival's creation stamp.
    depart: SimTime,
    /// The sequence number its arrival reserved when the link accepted it.
    seq: u64,
}

const VACANT: InFlight = InFlight {
    packet: None,
    link: LinkId(NIL),
    next: NIL,
    depart: SimTime::ZERO,
    seq: 0,
};

/// A link's packets in flight, oldest first: slots chained through
/// [`InFlight::next`]. The head's arrival is queued; the others wait here.
#[derive(Clone, Copy)]
struct Arrivals {
    head: u32,
    tail: u32,
}

/// Where every packet inside the network waits: written once when the packet is sent
/// (or ingested from another shard), read and rewritten in place at each hop, vacated
/// when it is delivered, dropped or handed to another shard. The slab grows a
/// fixed-size page at a time and never moves a slot; vacated slots go onto a LIFO free
/// list threaded through [`InFlight::next`], so in steady state a packet's life
/// allocates nothing.
///
/// The slots also hold every link's arrival FIFO (see the module docs): a link
/// delivers its packets in the order it accepted them, so only the head's arrival is
/// in the event queue, and the others wait on the FIFO with the departure time and
/// sequence number their arrivals will be queued with.
pub(crate) struct PacketPool {
    pages: Vec<Box<[InFlight; SLAB_PAGE]>>,
    /// Slots handed out so far: the most packets that were inside the network at once.
    len: u32,
    /// Head of the free list.
    free: u32,
    /// Per link, indexed by [`LinkId`]: its arrival FIFO.
    fifos: Vec<Arrivals>,
}

impl PacketPool {
    fn new(links: usize) -> Self {
        let empty = Arrivals {
            head: NIL,
            tail: NIL,
        };
        PacketPool {
            pages: Vec::new(),
            len: 0,
            free: NIL,
            fifos: vec![empty; links],
        }
    }

    fn slot(&self, slot: u32) -> &InFlight {
        &self.pages[slot as usize / SLAB_PAGE][slot as usize % SLAB_PAGE]
    }

    fn slot_mut(&mut self, slot: u32) -> &mut InFlight {
        &mut self.pages[slot as usize / SLAB_PAGE][slot as usize % SLAB_PAGE]
    }

    pub(crate) fn park(&mut self, packet: Packet) -> PacketSlot {
        let i = if self.free != NIL {
            let i = self.free;
            self.free = self.slot(i).next;
            i
        } else {
            if self.len as usize == self.pages.len() * SLAB_PAGE {
                self.add_page();
            }
            self.len += 1;
            self.len - 1
        };
        self.slot_mut(i).packet = Some(packet);
        PacketSlot(i)
    }

    #[cold]
    fn add_page(&mut self) {
        let page: Box<[InFlight]> = std::iter::repeat_n(VACANT, SLAB_PAGE).collect();
        self.pages
            .push(page.try_into().unwrap_or_else(|_| unreachable!("one page")));
    }

    fn get_mut(&mut self, slot: PacketSlot) -> Option<&mut Packet> {
        self.slot_mut(slot.0).packet.as_mut()
    }

    /// Vacate `slot`, returning the packet it held.
    fn take(&mut self, slot: PacketSlot) -> Option<Packet> {
        let free = self.free;
        let s = self.slot_mut(slot.0);
        let p = s.packet.take();
        if p.is_some() {
            s.next = free;
            self.free = slot.0;
        }
        p
    }

    /// The packet in `slot` left `link` at `depart`, and its arrival took sequence
    /// number `seq`: chain it behind the link's packets in flight if it left strictly
    /// after the last of them. Returns true if its arrival is to be queued now — as the
    /// FIFO's new head, or, when it left at the same instant as the tail (a packet
    /// serialized in 0 ns), on its own: same-instant arrivals are ordered by content,
    /// not by the order the link took them.
    fn depart(&mut self, link: LinkId, slot: PacketSlot, depart: SimTime, seq: u64) -> bool {
        let s = self.slot_mut(slot.0);
        (s.link, s.next, s.depart, s.seq) = (link, NIL, depart, seq);
        let fifo = self.fifos[link.index()];
        if fifo.head == NIL {
            self.fifos[link.index()] = Arrivals {
                head: slot.0,
                tail: slot.0,
            };
            return true;
        }
        if depart <= self.slot(fifo.tail).depart {
            return true;
        }
        self.slot_mut(fifo.tail).next = slot.0;
        self.fifos[link.index()].tail = slot.0;
        false
    }

    /// The packet in `slot` has arrived. If it was the head of its link's FIFO, the
    /// next packet there becomes the head: returns it, for its arrival to be queued.
    fn arrived(&mut self, slot: PacketSlot) -> Option<PacketSlot> {
        let (link, next) = (self.slot(slot.0).link, self.slot(slot.0).next);
        let fifo = &mut self.fifos[link.index()];
        if fifo.head != slot.0 {
            return None;
        }
        fifo.head = next;
        (fifo.head != NIL).then_some(PacketSlot(fifo.head))
    }

    /// Slots handed out so far: the most packets that were inside the network at once.
    pub(crate) fn high_water(&self) -> u64 {
        self.len as u64
    }

    /// Packets currently held.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        let free = std::iter::successors((self.free != NIL).then_some(self.free), |&i| {
            let next = self.slot(i).next;
            (next != NIL).then_some(next)
        });
        self.len as usize - free.count()
    }
}

/// Always-on work counters of the engine proper, next to the event queue's
/// [`QueueStats`](crate::event::QueueStats): what the popped events were, plus what
/// the shard protocol did. Summed across shards (except `windows`); never part of a
/// fingerprint or a cache record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Flow arrivals dispatched.
    pub arrivals: u64,
    /// Packet arrivals at a node (one per link traversal), forwarded or delivered.
    pub packets: u64,
    /// Timers delivered to an agent.
    pub timers_fired: u64,
    /// Link-controller ticks.
    pub ticks: u64,
    /// Trace samples.
    pub samples: u64,
    /// Most packets inside the network at once (per shard; the sum is an upper bound
    /// on the global peak).
    pub pool_high_water: u64,
    /// Most departures queued at once on all links of a core — the length of its
    /// ledger slab (per shard; the sum is an upper bound on the global peak).
    pub ledger_high_water: u64,
    /// Most flows unfinished at once, counted where each is homed (per shard; the sum
    /// is an upper bound on the global peak). The size of the per-flow working set:
    /// what separates an overloaded run from a steady one at the same event count.
    pub live_flows_high_water: u64,
    /// Most route-arena entries in use at once on a core: two per link of every flow
    /// routed there and not yet retired (per shard; the sum is an upper bound on the
    /// global peak).
    pub route_high_water: u64,
    /// Lookahead windows the run processed: 1 on a lone core (one unbounded window),
    /// at most `end_time / lookahead` plus one or two on shards. Every shard opens the
    /// same windows, so this one counter is merged as the common count, not summed.
    pub windows: u64,
    /// Boundary messages ingested from other shards (0 on a lone core; a home's poll
    /// of itself is not counted).
    pub messages_in: u64,
}

impl std::fmt::Display for EngineStats {
    /// `key=value` pairs, the form the experiments' stderr telemetry lines use.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "arrivals={} packets={} timers_fired={} ticks={} samples={} \
             pool_high_water={} ledger_high_water={} live_flows_high_water={} \
             route_high_water={} windows={} messages_in={}",
            self.arrivals,
            self.packets,
            self.timers_fired,
            self.ticks,
            self.samples,
            self.pool_high_water,
            self.ledger_high_water,
            self.live_flows_high_water,
            self.route_high_water,
            self.windows,
            self.messages_in
        )
    }
}

/// All per-run mutable simulation state: the slabs (agents, controllers, flows), the
/// event queue, the RNG stream, the metrics accumulators and the live network queues.
///
/// A one-shard run drives the core the [`Simulator`] was built on; an N-shard run
/// keeps that core as shard 0 and deals the agents, controllers and injected flows of
/// the other shards out to one new core each, every core with an `outbox` of boundary
/// messages exchanged at conservative-lookahead barriers. Every core routes a flow
/// when it arrives and registers it with the other shards on its path.
///
/// The cores of a run sit side by side in one `Vec`, shard 0 driven by the caller's
/// thread and each other core by a thread of its own.
/// The alignment keeps one core's per-event fields (`key`, `stats`, `msg_seq`, the
/// event queue's counters) off the cache line — and the adjacent prefetched one —
/// that its neighbour's `config` and `network` headers are read from on every event;
/// without it, whether two cores share a line depends on the struct's size and on
/// where the allocator happens to put the `Vec`.
#[repr(align(128))]
pub(crate) struct EngineCore {
    pub(crate) config: SimConfig,
    pub(crate) network: Network,
    pub(crate) router: Box<dyn Router + Send>,
    /// Host agents, indexed by [`NodeId`]. `None` for nodes owned by other shards.
    pub(crate) agents: Vec<Option<Box<dyn HostAgent + Send>>>,
    /// Link controllers, indexed by [`LinkId`].
    pub(crate) controllers: Vec<Option<Box<dyn LinkController + Send>>>,
    pub(crate) events: EventQueue,
    pub(crate) now: SimTime,
    /// Key of the event being dispatched: what links are settled against. Between
    /// windows and after the run, how far this core has got — the key of the event
    /// `process_window` broke at, or the start of `window_end` if it drained.
    pub(crate) key: EventKey,
    pub(crate) stats: EngineStats,
    pub(crate) flows: FlowTable,
    /// Flows injected before the run: slots `0..injected`, in arrival order.
    injected: usize,
    pub(crate) pool: PacketPool,
    pub(crate) unfinished_flows: usize,
    pub(crate) pending_arrivals: usize,
    pub(crate) traces: Traces,
    /// `bytes_transmitted` at the previous trace sample, indexed by [`LinkId`].
    pub(crate) link_bytes_at_last_sample: Vec<u64>,
    /// A flow's `raw_bytes_delivered` at the previous goodput sample, indexed by its
    /// slot: the sampler's own store, empty unless flows are traced (slots are never
    /// reused within a run, and one not yet in it had delivered nothing).
    flow_bytes_at_last_sample: Vec<u64>,
    /// Time of the previous trace sample (guards rate computations against a
    /// zero-length sampling window).
    pub(crate) last_sample_at: SimTime,
    /// This core's shard id (0 on a lone core).
    pub(crate) shard: u32,
    /// Node → shard map shared by all cores; empty on a lone core, which
    /// short-circuits every ownership check to "local".
    pub(crate) shard_of: Arc<[u32]>,
    /// Set when this core consumed its Stop event or passed `max_sim_time`.
    pub(crate) stopped: bool,
    /// Outgoing boundary messages, one batch per destination shard.
    pub(crate) outbox: Vec<Vec<ShardMsg>>,
    /// Per-core sequence number stamped on outgoing messages (deterministic ingest
    /// ordering at the receiver).
    pub(crate) msg_seq: u64,
    /// Lazily-seeded private loss streams ([`link_loss_rng`]), indexed by [`LinkId`].
    /// `None` until the link's first loss draw.
    pub(crate) link_loss_rngs: Vec<Option<SmallRng>>,
    /// The one action buffer every agent callback's [`Ctx`] fills: taken for the
    /// callback, drained by `apply_actions` (which never calls an agent, so there is
    /// no re-entrancy) and put back.
    actions: Vec<Action>,
}

impl EngineCore {
    pub(crate) fn new(network: Network, config: SimConfig) -> Self {
        let n_nodes = network.node_count();
        let n_links = network.link_count();
        // Event-queue bucket width: the smallest serialization time in this topology
        // (a control packet on the fastest link), the spacing at which a busy link
        // releases packets.
        let bucket = network
            .links
            .iter()
            .map(|l| l.transmission_time(CONTROL_PACKET_BYTES as u64))
            .min()
            .unwrap_or(EventQueue::DEFAULT_BUCKET_WIDTH);
        EngineCore {
            config,
            network,
            router: Box::new(ShortestPathRouter),
            agents: (0..n_nodes).map(|_| None).collect(),
            controllers: (0..n_links).map(|_| None).collect(),
            events: EventQueue::with_bucket_width(bucket),
            now: SimTime::ZERO,
            key: EventKey::start_of(SimTime::ZERO),
            stats: EngineStats::default(),
            flows: FlowTable::default(),
            injected: 0,
            pool: PacketPool::new(n_links),
            unfinished_flows: 0,
            pending_arrivals: 0,
            traces: Traces::default(),
            link_bytes_at_last_sample: vec![0; n_links],
            flow_bytes_at_last_sample: Vec::new(),
            last_sample_at: SimTime::ZERO,
            shard: 0,
            shard_of: Arc::from([] as [u32; 0]),
            stopped: false,
            outbox: Vec::new(),
            msg_seq: 0,
            link_loss_rngs: (0..n_links).map(|_| None).collect(),
            actions: Vec::new(),
        }
    }

    /// True if `node` is simulated by this core.
    #[inline]
    pub(crate) fn is_local(&self, node: NodeId) -> bool {
        self.shard_of.is_empty() || self.shard_of[node.index()] == self.shard
    }

    /// Queue `body` for `to_shard`, created at `sent` (see [`ShardMsg::sent`] for when
    /// it takes effect).
    pub(crate) fn push_msg(&mut self, to_shard: u32, sent: SimTime, body: MsgBody) {
        let seq = self.msg_seq;
        self.msg_seq += 1;
        self.outbox[to_shard as usize].push(ShardMsg {
            sent,
            src_shard: self.shard,
            seq,
            body,
        });
    }

    /// Inject a flow before the run: its state waits in the flow slab (ordered by
    /// arrival when the run starts), and it arrives at `spec.arrival`.
    pub(crate) fn add_flow(&mut self, spec: FlowSpec) {
        self.pending_arrivals += 1;
        self.flows.slots.push(FlowState::pending(spec));
    }

    /// Add a flow an agent spawned at run time (arriving no earlier than now), with an
    /// arrival event of its own.
    ///
    /// # Panics
    /// If a flow with its id is indexed on this core.
    fn spawn_flow(&mut self, spec: FlowSpec) {
        self.pending_arrivals += 1;
        let arrival = spec.arrival.max(self.now);
        let (flow, spec) = (spec.id, spec.with_arrival(arrival));
        let slot = self.flows.push(FlowState::pending(spec));
        self.events
            .schedule(arrival, EventKind::FlowArrival { flow, slot });
    }

    /// Queue the arrival of injected flow `slot`, if there is one. It is created at
    /// time 0, the key it would have had had every arrival been queued before the run:
    /// the queue holds one injected arrival at a time, and they pop in the same places.
    fn feed_arrival(&mut self, slot: usize) {
        if let Some(state) = self.flows.slots[..self.injected].get(slot) {
            let spec = &state.info.spec;
            let kind = EventKind::FlowArrival {
                flow: spec.id,
                slot: slot as u32,
            };
            self.events
                .schedule_created(spec.arrival, SimTime::ZERO, kind);
        }
    }

    /// Start the run: order the injected flows by arrival and queue the first, then
    /// schedule the bootstrap events — controller init ticks, the first trace sample,
    /// and the hard Stop at `max_sim_time`.
    pub(crate) fn setup(&mut self) {
        self.flows.order_injected();
        self.injected = self.flows.slots.len();
        self.feed_arrival(0);
        {
            let Self {
                controllers,
                network,
                events,
                ..
            } = self;
            for (i, ctl) in controllers.iter_mut().enumerate() {
                if let Some(ctl) = ctl {
                    let l = LinkId(i as u32);
                    if let Some(t) = ctl.init(SimTime::ZERO, network.link(l)) {
                        events.schedule(t, EventKind::ControllerTick { link: l });
                    }
                }
            }
        }
        if self.config.trace.enabled() {
            self.events
                .schedule(self.config.trace.interval, EventKind::TraceSample);
        }
        self.events
            .schedule(self.config.max_sim_time, EventKind::Stop);
    }

    /// Process every pending event strictly before `window_end`: the conservative
    /// lookahead guarantees no other shard can inject an event earlier. A lone core
    /// also stops at the event that settles its last flow; shards learn that global
    /// condition from the driver at the next barrier (see the `shard` module docs).
    pub(crate) fn process_window(&mut self, window_end: SimTime) {
        if self.stopped {
            return;
        }
        // Batched drain: `pop_window` streams straight off the event queue's
        // sorted current run — one call per event instead of a peek-compare-pop
        // round-trip, with no re-peeking between events.
        loop {
            let Some(ev) = self.events.pop_window(window_end) else {
                self.key = EventKey::start_of(window_end);
                break;
            };
            self.key = ev.key();
            if ev.at > self.config.max_sim_time {
                self.stopped = true;
                break;
            }
            self.now = ev.at;
            self.events.set_now(ev.at);
            match ev.kind {
                EventKind::Stop => {
                    self.stopped = true;
                    break;
                }
                kind => self.dispatch(kind),
            }
            if self.shard_of.is_empty()
                && self.config.stop_when_flows_done
                && self.unfinished_flows == 0
                && self.pending_arrivals == 0
            {
                break;
            }
        }
    }

    /// Earliest pending event time in nanoseconds (`u64::MAX` if idle or stopped).
    pub(crate) fn next_event_nanos(&self) -> u64 {
        if self.stopped {
            return u64::MAX;
        }
        self.events
            .peek_time()
            .map(|t| t.as_nanos())
            .unwrap_or(u64::MAX)
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Stop => unreachable!("Stop is handled by the event loop"),
            EventKind::FlowArrival { slot, .. } => {
                self.stats.arrivals += 1;
                self.handle_flow_arrival(slot)
            }
            EventKind::PacketAtNode { node, packet, .. } => {
                self.stats.packets += 1;
                self.handle_packet_at_node(node, packet)
            }
            // Links are ledgers: nothing in the engine schedules this. One that got
            // into the queue anyway must degrade, not corrupt a link: flag it in
            // debug builds, ignore it otherwise.
            EventKind::TransmitDone { link } => {
                debug_assert!(false, "TransmitDone dispatched for {link:?}")
            }
            EventKind::Timer {
                node,
                flow,
                slot,
                kind,
                token,
            } => {
                self.stats.timers_fired += 1;
                self.handle_timer(node, flow, slot, kind, token)
            }
            EventKind::ControllerTick { link } => {
                self.stats.ticks += 1;
                self.handle_controller_tick(link)
            }
            EventKind::TraceSample => {
                self.stats.samples += 1;
                self.handle_trace_sample()
            }
        }
    }

    // ------------------------------------------------------------------ events

    /// Route the flow arriving in `slot`, make it visible to every shard its path
    /// touches, and hand it to its source agent. The path goes into the route arena
    /// and is dropped. An injected flow enters the index here; a spawned one did when
    /// it was spawned.
    fn handle_flow_arrival(&mut self, slot: u32) {
        self.pending_arrivals -= 1;
        let s = slot as usize;
        if s < self.injected {
            self.feed_arrival(s + 1);
            self.flows.index(slot);
        }
        let path = {
            let Self {
                router,
                network,
                flows,
                config,
                ..
            } = self;
            let spec = &flows.slots[s].info.spec;
            // Route on a per-flow RNG derived from (seed, flow id), not the engine
            // stream: the draw is then a pure function of the flow, so it picks the
            // same ECMP path no matter which shard routes it or how arrivals
            // interleave.
            let mut route_rng = route_rng(config.seed, spec.id);
            router.route(network, spec, &mut route_rng)
        };
        // A packet has arrived when it has crossed every link of its path, which is
        // the far endpoint only if the path visits no node twice: a router that loops
        // has not placed the flow.
        let Some(path) = path.filter(|p| is_simple(&p.nodes)) else {
            // Disconnected src/dst pair: record the flow as failed instead of
            // aborting the whole run. It never reaches an agent, so nothing looks it up.
            self.flows.slots[s].stage = Stage::Failed;
            self.flows.retire(slot);
            return;
        };
        let state = &mut self.flows.slots[s];
        let src = state.info.spec.src;
        assert_eq!(path.src(), src, "router returned a path with wrong source");
        assert_eq!(
            path.dst(),
            state.info.spec.dst,
            "router returned a path with wrong destination"
        );
        state.stage = Stage::Routed;
        describe_path(&mut state.info, &self.network, &self.config, &path.links);
        self.flows.set_route(slot, &self.network, &path.links);
        // Every shard the path touches must know the flow before any of its packets
        // cross a boundary; registrations sort ahead of packets at ingest.
        self.broadcast_registration(slot);
        self.unfinished_flows += 1;
        self.stats.live_flows_high_water = self
            .stats
            .live_flows_high_water
            .max(self.unfinished_flows as u64);
        // The callback holds the flow: a flow finished inside it is retired only once
        // all of its actions have taken effect.
        self.flows.hot[s].refs += 1;
        let actions = {
            let Self {
                agents,
                flows,
                actions,
                ..
            } = self;
            let agent = agents[src.index()]
                .as_mut()
                .unwrap_or_else(|| panic!("no agent installed on {src:?}"));
            let info = &flows.slots[s].info;
            let mut ctx = Ctx::with_buffer(self.now, flows, std::mem::take(actions));
            agent.on_flow_arrival(info, &mut ctx);
            ctx.take_actions()
        };
        let flow = self.flows.slots[s].info.spec.id;
        self.apply_actions(src, actions, (flow, slot));
        self.unhold(slot);
    }

    /// Send a registration for the routed flow in `slot` — its info and its links — to
    /// every other shard on its path.
    fn broadcast_registration(&mut self, slot: u32) {
        let now = self.now;
        for s in 0..self.outbox.len() as u32 {
            if self.is_replica(slot, s) {
                let info = Box::new(self.flows.slots[slot as usize].info.clone());
                let links = self.flows.links(slot).into();
                self.push_msg(s, now, MsgBody::Register { info, links });
            }
        }
    }

    /// True if `shard` holds a replica of the routed flow in `slot`: it is another
    /// shard with a node on the flow's path. A lone core has no outbox, so it names no
    /// shard to ask about.
    pub(crate) fn is_replica(&self, slot: u32, shard: u32) -> bool {
        shard != self.shard
            && self.flows.links(slot).iter().any(|&l| {
                let link = self.network.link(l);
                [link.src, link.dst]
                    .iter()
                    .any(|n| self.shard_of[n.index()] == shard)
            })
    }

    fn handle_packet_at_node(&mut self, node: NodeId, slot: PacketSlot) {
        if let Some(next) = self.pool.arrived(slot) {
            self.queue_arrival(next);
        }
        let Some(packet) = self.pool.get_mut(slot) else {
            // Pool slot already vacated (should not happen); silently discard.
            return;
        };
        // The path is simple, so the packet is at its far endpoint exactly when it has
        // crossed every link.
        let delivered = packet.hop == packet.nlinks;
        debug_assert_eq!(
            delivered,
            node == if packet.reverse() {
                packet.src
            } else {
                packet.dst
            },
            "{:?} hop {} of {} at {node:?}",
            packet.flow,
            packet.hop,
            packet.nlinks
        );
        if delivered {
            let packet = self.pool.take(slot).expect("peeked above");
            self.deliver_packet(node, packet);
        } else {
            self.forward_packet(node, slot);
        }
    }

    /// Deliver a packet to the host agent at `node`. The packet holds its flow until
    /// the agent's actions have taken effect.
    fn deliver_packet(&mut self, node: NodeId, packet: Packet) {
        debug_assert!(
            self.flows.holds_route_of(&packet),
            "{:?} delivered on a released route",
            packet.flow
        );
        let (flow, slot) = (packet.flow, packet.flow_slot);
        if packet.kind == PacketKind::Data {
            let state = &mut self.flows.slots[slot as usize];
            state.raw_bytes_delivered += packet.payload as u64;
        }
        let actions = {
            let Self {
                agents,
                flows,
                actions,
                ..
            } = self;
            agents[node.index()].as_mut().map(|agent| {
                let mut ctx = Ctx::with_buffer(self.now, flows, std::mem::take(actions));
                agent.on_packet(packet, &mut ctx);
                ctx.take_actions()
            })
        };
        if let Some(actions) = actions {
            self.apply_actions(node, actions, (flow, slot));
        }
        self.unhold(slot);
    }

    /// Put the packet in `slot` on its next link from `node`: run the link controller,
    /// apply random loss and tail drop, and — the link being a departure ledger — know
    /// at once when its last bit leaves, which is its arrival's creation stamp. The
    /// arrival takes its sequence number now; the packet joins the link's arrival FIFO
    /// and its arrival is queued when it becomes the FIFO's head (see the module docs).
    /// The packet stays in its slot; every path that does not send it on (drop,
    /// hand-off to another shard) vacates the slot.
    ///
    /// This is the hottest function in the simulator. It reads hop state only — the
    /// packet, one run of the route arena, the controller and the link — and never the
    /// flow slabs (but to count a drop); it performs no heap allocation, no hash lookup
    /// and no packet copy, and settles each link it touches exactly once.
    fn forward_packet(&mut self, node: NodeId, slot: PacketSlot) {
        let key = self.key;
        let Some(packet) = self.pool.get_mut(slot) else {
            return;
        };
        let (next_link, controller_link) = self.flows.hop_links(packet);
        debug_assert_eq!(self.network.link(next_link).src, node, "hop mismatch");
        self.network.settle(next_link, key);

        // Run the link controller (switch scheduling logic) on the settled link: the
        // one just settled for a forward packet, another for a reverse one.
        if let Some(cl) = controller_link {
            if let Some(ctl) = self.controllers[cl.index()].as_mut() {
                if packet.reverse() {
                    self.network.settle(cl, key);
                    ctl.on_reverse(packet, self.now, self.network.link(cl));
                } else {
                    ctl.on_forward(packet, self.now, self.network.link(cl));
                }
            }
        }

        // Random loss injection: each lossy link consumes its own `(seed, link)`
        // stream, so the draw sequence is invariant under the shard count.
        let link = self.network.link_mut(next_link);
        let mut lost = false;
        if link.loss_rate > 0.0 {
            let seed = self.config.seed;
            let draw = self.link_loss_rngs[next_link.index()]
                .get_or_insert_with(|| link_loss_rng(seed, next_link))
                .gen::<f64>();
            if draw < link.loss_rate {
                link.stats.random_drops += 1;
                lost = true;
            }
        }

        // Tail-drop FIFO enqueue: an accepted packet's departure is known at once.
        let depart = if lost {
            None
        } else {
            self.network.accept(next_link, key, packet.wire_size())
        };
        let Some(depart) = depart else {
            let flow_slot = packet.flow_slot;
            self.flows.slots[flow_slot as usize].drops += 1;
            self.pool.take(slot);
            self.unhold(flow_slot);
            return;
        };
        packet.hop += 1;
        let (flow, tie) = (packet.flow, packet_tie(packet));
        let dst = self.network.link(next_link).dst;
        if self.is_local(dst) {
            self.arrive(next_link, slot, depart, flow, tie);
        } else {
            // Boundary crossing: the conservative lookahead window is sized so that
            // the arrival is at or past the receiver's next barrier.
            let to = self.shard_of[dst.index()];
            let packet = self.pool.take(slot).expect("peeked above");
            let flow_slot = packet.flow_slot;
            let body = MsgBody::Packet {
                link: next_link,
                packet,
            };
            self.push_msg(to, depart, body);
            self.unhold(flow_slot);
        }
    }

    /// When a packet whose last bit left `link` at `depart` is at the far end.
    pub(crate) fn arrival_time(&self, link: LinkId, depart: SimTime) -> SimTime {
        depart + self.network.link(link).prop_delay + self.config.processing_delay
    }

    /// The packet in `slot`, of `flow` and with content subkey `tie`, left `link` at
    /// `depart`: number its arrival now, put it on the link's arrival FIFO, and queue
    /// the arrival at once if it is the FIFO's head or bypasses the FIFO.
    pub(crate) fn arrive(
        &mut self,
        link: LinkId,
        slot: PacketSlot,
        depart: SimTime,
        flow: FlowId,
        tie: u64,
    ) {
        let seq = self.events.reserve_seq();
        if self.pool.depart(link, slot, depart, seq) {
            let node = self.network.link(link).dst;
            let kind = EventKind::PacketAtNode {
                node,
                packet: slot,
                flow,
                tie,
            };
            let at = self.arrival_time(link, depart);
            self.events.schedule_reserved(at, depart, seq, kind);
        }
    }

    /// Queue the arrival of the packet in `slot`, the new head of its link's FIFO,
    /// under the key it took when the link accepted it: what a transmit-done event
    /// popping at its departure would have scheduled.
    fn queue_arrival(&mut self, slot: PacketSlot) {
        let s = self.pool.slot(slot.0);
        let packet = s.packet.as_ref().expect("a packet in flight");
        let kind = EventKind::PacketAtNode {
            node: self.network.link(s.link).dst,
            packet: slot,
            flow: packet.flow,
            tie: packet_tie(packet),
        };
        let at = self.arrival_time(s.link, s.depart);
        self.events.schedule_reserved(at, s.depart, s.seq, kind);
    }

    /// Fire a timer of `flow` at the agent at `node`. A timer set while its flow was
    /// indexed here holds the flow's `slot` until the agent's actions have taken
    /// effect; one set for a flow id not indexed here has `slot == NIL`.
    fn handle_timer(&mut self, node: NodeId, flow: FlowId, slot: u32, kind: TimerKind, token: u64) {
        let actions = {
            let Self {
                agents,
                flows,
                actions,
                ..
            } = self;
            agents[node.index()].as_mut().map(|agent| {
                let mut ctx = Ctx::with_buffer(self.now, flows, std::mem::take(actions));
                agent.on_timer(flow, kind, token, &mut ctx);
                ctx.take_actions()
            })
        };
        if let Some(actions) = actions {
            self.apply_actions(node, actions, (flow, slot));
        }
        if slot != NIL {
            self.unhold(slot);
        }
    }

    fn handle_controller_tick(&mut self, link_id: LinkId) {
        let next = {
            let Self {
                controllers,
                network,
                ..
            } = self;
            let Some(ctl) = controllers[link_id.index()].as_mut() else {
                return;
            };
            network.settle(link_id, self.key);
            ctl.on_tick(self.now, network.link(link_id))
        };
        if let Some(t) = next {
            assert!(t > self.now, "controller tick must advance time");
            self.events
                .schedule(t, EventKind::ControllerTick { link: link_id });
        }
    }

    fn handle_trace_sample(&mut self) {
        let interval = self.config.trace.interval;
        let sharded = !self.shard_of.is_empty();
        // Rates are computed over the *actual* elapsed window, and guarded against a
        // zero-length one (a sample at t=0 or a zero-period TraceConfig would
        // otherwise divide by zero and poison the results with NaN).
        let elapsed_s = self.now.saturating_sub(self.last_sample_at).as_secs_f64();
        for i in 0..self.config.trace.links.len() {
            let l = self.config.trace.links[i];
            // Each link is sampled by the shard that owns its source node.
            if !self.is_local(self.network.link(l).src) {
                continue;
            }
            self.network.settle(l, self.key);
            let link = self.network.link(l);
            let prev = self.link_bytes_at_last_sample[l.index()];
            let delta = link.stats.bytes_transmitted - prev;
            self.link_bytes_at_last_sample[l.index()] = link.stats.bytes_transmitted;
            let util = if elapsed_s > 0.0 {
                (delta as f64 * 8.0) / (link.rate_bps * elapsed_s)
            } else {
                0.0
            };
            self.traces
                .link_utilization
                .entry(l)
                .or_default()
                .push(Sample {
                    at: self.now,
                    value: util,
                });
            self.traces
                .link_queue_bytes
                .entry(l)
                .or_default()
                .push(Sample {
                    at: self.now,
                    value: link.queue_bytes as f64,
                });
        }
        if self.config.trace.flows {
            let shard = self.shard;
            let Self {
                flows,
                traces,
                shard_of,
                flow_bytes_at_last_sample: last,
                ..
            } = self;
            last.resize(flows.slots.len(), 0);
            for (state, last) in flows.slots.iter().zip(last) {
                let spec = &state.info.spec;
                // Goodput accumulates where the data is delivered: the shard owning
                // the flow's destination samples it (every shard in a 1-shard run). A
                // flow yet to arrive has no series.
                if state.stage == Stage::Pending || sharded && shard_of[spec.dst.index()] != shard {
                    continue;
                }
                let delta = state.raw_bytes_delivered - *last;
                *last = state.raw_bytes_delivered;
                let rate = if elapsed_s > 0.0 {
                    delta as f64 * 8.0 / elapsed_s
                } else {
                    0.0
                };
                traces
                    .flow_goodput
                    .entry(spec.id)
                    .or_default()
                    .push(Sample {
                        at: self.now,
                        value: rate,
                    });
            }
        }
        self.last_sample_at = self.now;
        if interval > SimTime::ZERO {
            self.events
                .schedule(self.now + interval, EventKind::TraceSample);
        }
    }

    // ------------------------------------------------------------------ actions

    /// Apply the actions of the agent at `node`, where they all take effect (see the
    /// module docs). `held` is the flow whose callback issued them and its slot here
    /// (`NIL` if it has none): held through its callback, it is indexed, so its own
    /// packets and timers find their slot without a hash.
    fn apply_actions(&mut self, node: NodeId, mut actions: Vec<Action>, held: (FlowId, u32)) {
        let slot_of = |flows: &FlowTable, flow: FlowId| match held {
            (id, slot) if id == flow && slot != NIL => Some(slot),
            _ => flows.slot_of(flow),
        };
        for a in actions.drain(..) {
            match a {
                Action::Send(mut packet) => {
                    // This is the one place a packet's flow id is looked up; every hop
                    // after this uses the route stamped here. A packet sent from the
                    // wrong end of its flow trips `forward_packet`'s hop check in debug
                    // builds.
                    packet.hop = 0;
                    let Some(slot) = slot_of(&self.flows, packet.flow) else {
                        continue;
                    };
                    // A stamped packet holds its flow until it leaves this core.
                    if self.flows.stamp(slot, &mut packet).nlinks == 0 {
                        continue;
                    }
                    let slot = self.pool.park(packet);
                    self.forward_packet(node, slot);
                }
                Action::SetTimer {
                    flow,
                    kind,
                    at,
                    created,
                    token,
                } => {
                    debug_assert!(
                        created <= self.now,
                        "{flow:?}: a timer armed at {created:?} set at {:?}",
                        self.now
                    );
                    // A pending timer holds its flow: when it fires, the agent may send.
                    let slot = slot_of(&self.flows, flow).unwrap_or(NIL);
                    if slot != NIL {
                        self.flows.hot[slot as usize].refs += 1;
                    }
                    let timer = EventKind::Timer {
                        node,
                        flow,
                        slot,
                        kind,
                        token,
                    };
                    self.events
                        .schedule_created(at.max(self.now), created, timer);
                }
                Action::FlowCompleted(flow) => self.finish_flow(flow, true),
                Action::FlowTerminated(flow) => self.finish_flow(flow, false),
                Action::SpawnFlow(spec) => {
                    assert_eq!(
                        spec.src, node,
                        "{:?} spawned by the agent at {node:?} with another source",
                        spec.id
                    );
                    self.spawn_flow(spec)
                }
            }
        }
        self.actions = actions;
    }

    /// Record a flow completion/termination (first action wins) and settle the
    /// liveness accounting: the home shard decrements its unfinished count directly
    /// (and retires the flow if nothing of it is left), a replica notifies the home
    /// shard instead.
    fn finish_flow(&mut self, flow: FlowId, completed: bool) {
        let Some(slot) = self.flows.slot_of(flow) else {
            return;
        };
        let (home, src) = {
            let state = &mut self.flows.slots[slot as usize];
            if state.stage == Stage::Pending || state.finish.is_some() {
                return;
            }
            state.finish = Some(Finish {
                at: self.now,
                completed,
            });
            (state.home, state.info.spec.src)
        };
        if home {
            self.unfinished_flows = self.unfinished_flows.saturating_sub(1);
            self.try_retire(slot);
        } else {
            let to = self.shard_of[src.index()];
            let now = self.now;
            self.push_msg(to, now, MsgBody::Finished { flow, completed });
        }
    }

    // ------------------------------------------------------------------ retirement

    /// Let go of one hold on the flow in `slot` (a packet that left this core, a timer
    /// or callback that ended); the last one may retire the flow.
    #[inline]
    pub(crate) fn unhold(&mut self, slot: u32) {
        let refs = &mut self.flows.hot[slot as usize].refs;
        *refs -= 1;
        if *refs == 0 {
            self.try_retire(slot);
        }
    }

    /// Retire the flow homed in `slot` if it can never have a packet again: it is
    /// finished, and nothing of it is left — no packet in flight, no pending timer, no
    /// running callback — here or on any other core.
    ///
    /// On a lone core, and for a flow whose path stays on its home core, "here" is
    /// all there is. A flow with replicas is polled instead: every core on its path,
    /// the home included, is asked at one barrier whether it holds anything of the
    /// flow, and answers after ingesting that barrier's packets. Messages cross only at
    /// barriers, so the answers describe one instant with nothing in transit; if none
    /// holds anything then, nothing of the flow is left anywhere, and the home retires
    /// it and tells the replicas to. Otherwise the home polls again once it holds
    /// nothing itself.
    pub(crate) fn try_retire(&mut self, slot: u32) {
        let state = &self.flows.slots[slot as usize];
        if !state.home
            || state.finish.is_none()
            || state.awaited > 0
            || self.flows.hot[slot as usize].refs > 0
        {
            return;
        }
        let (flow, now) = (state.info.spec.id, self.now);
        let mut replicas = 0;
        for s in 0..self.outbox.len() as u32 {
            if self.is_replica(slot, s) {
                self.push_msg(s, now, MsgBody::Poll { flow });
                replicas += 1;
            }
        }
        if replicas == 0 {
            return self.flows.retire(slot);
        }
        self.push_msg(self.shard, now, MsgBody::Poll { flow });
        let state = &mut self.flows.slots[slot as usize];
        (state.awaited, state.all_idle) = (replicas + 1, true);
    }
}

/// True if no node occurs twice (paths are a handful of nodes: quadratic is fine).
fn is_simple(nodes: &[NodeId]) -> bool {
    (1..nodes.len()).all(|i| !nodes[..i].contains(&nodes[i]))
}

/// Fill in what the engine derives from a flow's routed path, `links`: the path
/// bottleneck and NIC rates plus the no-load RTT estimate (one MTU forward, one
/// control packet back, per hop).
fn describe_path(info: &mut FlowInfo, network: &Network, config: &SimConfig, links: &[LinkId]) {
    info.bottleneck_rate_bps = links
        .iter()
        .map(|&l| network.link(l).rate_bps)
        .fold(f64::INFINITY, f64::min);
    info.nic_rate_bps = network.link(links[0]).rate_bps;
    let mut base_rtt = SimTime::ZERO;
    for &l in links {
        let link = network.link(l);
        base_rtt +=
            link.transmission_time(MTU_BYTES as u64) + link.prop_delay + config.processing_delay;
        let rev = network.link(link.reverse);
        base_rtt += rev.transmission_time(CONTROL_PACKET_BYTES as u64)
            + rev.prop_delay
            + config.processing_delay;
    }
    info.base_rtt = base_rtt;
}

/// The discrete-event simulator: construction facade over an `EngineCore`.
///
/// Install agents, controllers and flows, then [`Simulator::run`] (this core, the
/// caller's thread) or [`Simulator::run_sharded`] (the same loop over N cores under
/// conservative-lookahead synchronization; see the `shard` module).
pub struct Simulator {
    pub(crate) core: EngineCore,
}

impl Simulator {
    /// Create a simulator over `network` with the default shortest-path router.
    pub fn new(network: Network, config: SimConfig) -> Self {
        Simulator {
            core: EngineCore::new(network, config),
        }
    }

    /// Replace the router.
    pub fn set_router(&mut self, router: impl Router + Send + 'static) {
        self.core.router = Box::new(router);
    }

    /// Install the transport agent running on `host`.
    pub fn set_agent(&mut self, host: NodeId, agent: Box<dyn HostAgent + Send>) {
        assert_eq!(
            self.core.network.node(host).kind,
            NodeKind::Host,
            "agents can only be installed on hosts"
        );
        self.core.agents[host.index()] = Some(agent);
    }

    /// Install an agent on every host using a factory.
    pub fn install_agents<F>(&mut self, mut factory: F)
    where
        F: FnMut(&Network, NodeId) -> Box<dyn HostAgent + Send>,
    {
        for host in self.core.network.hosts() {
            let agent = factory(&self.core.network, host);
            self.core.agents[host.index()] = Some(agent);
        }
    }

    /// Install controllers on links selected by a factory (commonly: every link whose
    /// source node is a switch). Returning `None` leaves a link uncontrolled.
    pub fn install_controllers<F>(&mut self, mut factory: F)
    where
        F: FnMut(&Network, LinkId) -> Option<Box<dyn LinkController + Send>>,
    {
        for i in 0..self.core.controllers.len() {
            let l = LinkId(i as u32);
            if let Some(c) = factory(&self.core.network, l) {
                self.core.controllers[i] = Some(c);
            }
        }
    }

    /// Install a controller (from the factory) on every link whose source is a switch.
    pub fn install_switch_controllers<F>(&mut self, mut factory: F)
    where
        F: FnMut(&Network, LinkId) -> Box<dyn LinkController + Send>,
    {
        self.install_controllers(|net, l| {
            if net.node(net.link(l).src).kind == NodeKind::Switch {
                Some(factory(net, l))
            } else {
                None
            }
        });
    }

    /// Inject a flow; it arrives at `spec.arrival`. Its spec is kept once, in the
    /// flow's slot, until the results are merged.
    pub fn add_flow(&mut self, spec: FlowSpec) {
        self.core.add_flow(spec);
    }

    /// Inject many flows.
    pub fn add_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) {
        let specs = specs.into_iter();
        self.core.flows.slots.reserve(specs.size_hint().0);
        for s in specs {
            self.add_flow(s);
        }
    }

    /// Current simulated time (mostly useful from tests).
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Read-only access to the network (topology + live queue state).
    pub fn network(&self) -> &Network {
        &self.core.network
    }

    /// Run the simulation to completion on this one core, on the caller's thread,
    /// and return the results: [`Simulator::run_sharded`] with one shard.
    pub fn run(self) -> SimResults {
        let lone = ShardAssignment::single(self.core.network.node_count());
        self.run_sharded(&lone, |_| unreachable!("a lone core keeps its own router"))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::flow::FlowOutcome;
    use crate::network::LinkParams;
    use crate::shard::{MsgBody, ShardMsg};

    /// A minimal "blast" transport used to exercise the engine: the sender transmits the
    /// whole flow as a burst of MSS packets; the receiver ACKs each packet and declares
    /// completion when it has seen every byte (ignoring ordering; there is no loss in
    /// these tests unless injected).
    pub(crate) struct BlastAgent {
        received: FlowMap<u64>,
        sizes: FlowMap<u64>,
    }
    impl BlastAgent {
        pub(crate) fn new() -> Self {
            BlastAgent {
                received: FlowMap::default(),
                sizes: FlowMap::default(),
            }
        }
    }
    impl HostAgent for BlastAgent {
        fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
            let mut offset = 0u64;
            while offset < flow.spec.size_bytes {
                let payload =
                    (flow.spec.size_bytes - offset).min(crate::packet::MSS_BYTES as u64) as u32;
                let mut p =
                    Packet::data(flow.spec.id, flow.spec.src, flow.spec.dst, offset, payload);
                p.sent_at = ctx.now();
                ctx.send(p);
                offset += payload as u64;
            }
        }
        fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
            match packet.kind {
                PacketKind::Data => {
                    let size = ctx.flow(packet.flow).unwrap().spec.size_bytes;
                    let total = self.received.entry(packet.flow).or_insert(0);
                    *total += packet.payload as u64;
                    let total = *total;
                    self.sizes.insert(packet.flow, size);
                    let ack = packet.make_echo(PacketKind::Ack, total);
                    ctx.send(ack);
                    if total >= size {
                        ctx.flow_completed(packet.flow);
                    }
                }
                PacketKind::Ack => {}
                _ => {}
            }
        }
        fn on_timer(&mut self, _flow: FlowId, _kind: TimerKind, _token: u64, _ctx: &mut Ctx) {}
    }

    pub(crate) fn dumbbell() -> Network {
        // h0, h1 -- s0 -- s1 -- h2
        let mut net = Network::new();
        let h0 = net.add_host("h0");
        let h1 = net.add_host("h1");
        let s0 = net.add_switch("s0");
        let s1 = net.add_switch("s1");
        let h2 = net.add_host("h2");
        net.add_duplex_link(h0, s0, LinkParams::default());
        net.add_duplex_link(h1, s0, LinkParams::default());
        net.add_duplex_link(s0, s1, LinkParams::default());
        net.add_duplex_link(s1, h2, LinkParams::default());
        net
    }

    pub(crate) fn blast_sim(net: Network) -> Simulator {
        let mut sim = Simulator::new(net, SimConfig::default());
        sim.install_agents(|_, _| Box::new(BlastAgent::new()));
        sim
    }

    #[test]
    fn single_flow_completes_with_sane_fct() {
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = blast_sim(net);
        // 100 KB from h0 to h2 over three 1 Gbps hops.
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 100_000));
        let res = sim.run();
        let rec = res.flow(FlowId(1)).unwrap();
        assert_eq!(rec.outcome(), crate::flow::FlowOutcome::Completed);
        let fct = rec.fct().unwrap().as_secs_f64();
        // Serialization of 100 KB at 1 Gbps is 0.8 ms; with per-hop overheads the FCT
        // must be close to but above that, and far below 10 ms.
        assert!(fct > 0.0008, "fct = {fct}");
        assert!(fct < 0.005, "fct = {fct}");
        assert_eq!(rec.raw_bytes_delivered, 100_000);
        assert_eq!(res.total_tail_drops(), 0);
    }

    #[test]
    fn two_senders_share_bottleneck_and_both_finish() {
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = blast_sim(net);
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 200_000));
        sim.add_flow(FlowSpec::new(2, hosts[1], hosts[2], 200_000));
        let res = sim.run();
        assert_eq!(res.completed_count(), 2);
        // Both flows cross the shared s0->s1 and s1->h2 links; total bytes transmitted
        // on the shared bottleneck must cover both flows (plus headers).
        let shared: u64 = res
            .link_stats
            .iter()
            .map(|(_, s)| s.bytes_transmitted)
            .max()
            .unwrap();
        assert!(shared >= 400_000);
    }

    #[test]
    fn overload_burst_causes_tail_drops_with_tiny_buffers() {
        // Shrink queues so that a synchronized burst overflows them.
        let mut net = Network::new();
        let h0 = net.add_host("h0");
        let h1 = net.add_host("h1");
        let s0 = net.add_switch("s0");
        let h2 = net.add_host("h2");
        let small = LinkParams {
            queue_capacity_bytes: 20_000,
            ..Default::default()
        };
        net.add_duplex_link(h0, s0, small);
        net.add_duplex_link(h1, s0, small);
        net.add_duplex_link(s0, h2, small);
        let hosts = net.hosts();
        let mut sim = blast_sim(net);
        sim.core.config = SimConfig {
            stop_when_flows_done: false,
            max_sim_time: SimTime::from_millis(50),
            ..SimConfig::default()
        };
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 500_000));
        sim.add_flow(FlowSpec::new(2, hosts[1], hosts[2], 500_000));
        let res = sim.run();
        assert!(
            res.total_tail_drops() > 0,
            "expected tail drops on a 20 KB queue"
        );
    }

    #[test]
    fn random_loss_drops_packets() {
        let mut net = Network::new();
        let h0 = net.add_host("h0");
        let s0 = net.add_switch("s0");
        let h1 = net.add_host("h1");
        net.add_duplex_link(h0, s0, LinkParams::default());
        let lossy = LinkParams {
            loss_rate: 0.5,
            ..Default::default()
        };
        net.add_duplex_link(s0, h1, lossy);
        let hosts = net.hosts();
        let mut sim = blast_sim(net);
        sim.core.config.stop_when_flows_done = false;
        sim.core.config.max_sim_time = SimTime::from_millis(20);
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[1], 150_000));
        let res = sim.run();
        let drops: u64 = res.link_stats.iter().map(|(_, s)| s.random_drops).sum();
        assert!(drops > 10, "expected many random drops, got {drops}");
        let rec = res.flow(FlowId(1)).unwrap();
        assert!(rec.raw_bytes_delivered < 150_000);
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let run = |seed: u64| {
            let net = dumbbell();
            let hosts = net.hosts();
            let mut sim = blast_sim(net);
            sim.core.config.seed = seed;
            sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 80_000));
            sim.add_flow(FlowSpec::new(2, hosts[1], hosts[2], 120_000));
            let res = sim.run();
            (
                res.flow(FlowId(1)).unwrap().fct(),
                res.flow(FlowId(2)).unwrap().fct(),
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn trace_sampling_records_utilization() {
        let net = dumbbell();
        let hosts = net.hosts();
        // The bottleneck link is s1 -> h2, which is the 7th link (index 6).
        let bottleneck = LinkId(6);
        let mut sim = blast_sim(net);
        sim.core.config.trace = TraceConfig {
            interval: SimTime::from_micros(200),
            links: vec![bottleneck],
            flows: true,
        };
        sim.core.config.stop_when_flows_done = false;
        sim.core.config.max_sim_time = SimTime::from_millis(3);
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 200_000));
        let res = sim.run();
        let util = res.traces.link_utilization.get(&bottleneck).unwrap();
        assert!(!util.is_empty());
        assert!(
            util.iter().any(|s| s.value > 0.5),
            "bottleneck should be busy"
        );
        // Utilization is measured as bytes completed per interval, so a packet whose
        // serialization straddles an interval boundary can push a sample slightly above
        // 1.0 (by at most one MTU per interval).
        let slack = (MTU_BYTES as f64 * 8.0) / (1e9 * 200e-6);
        assert!(util.iter().all(|s| s.value <= 1.0 + slack));
        assert!(res.traces.flow_goodput.contains_key(&FlowId(1)));
    }

    /// Regression (zero-length sampling window): a trace sample forced at t=0 must not
    /// divide by zero — every recorded value stays finite.
    #[test]
    fn trace_sample_at_time_zero_produces_finite_values() {
        let net = dumbbell();
        let hosts = net.hosts();
        let bottleneck = LinkId(6);
        let mut sim = blast_sim(net);
        sim.core.config.trace = TraceConfig {
            interval: SimTime::from_micros(200),
            links: vec![bottleneck],
            flows: true,
        };
        sim.core.config.stop_when_flows_done = false;
        sim.core.config.max_sim_time = SimTime::from_millis(1);
        // Force a first sample at t=0 (elapsed window of zero length).
        sim.core
            .events
            .schedule(SimTime::ZERO, EventKind::TraceSample);
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 100_000));
        let res = sim.run();
        for samples in res
            .traces
            .link_utilization
            .values()
            .chain(res.traces.link_queue_bytes.values())
            .chain(res.traces.flow_goodput.values())
        {
            assert!(
                samples.iter().all(|s| s.value.is_finite()),
                "non-finite trace sample"
            );
        }
    }

    /// Regression (zero-period TraceConfig): a zero interval disables tracing rather
    /// than dividing by zero or looping forever at one instant.
    #[test]
    fn zero_interval_trace_config_is_disabled() {
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = blast_sim(net);
        sim.core.config.trace = TraceConfig {
            interval: SimTime::ZERO,
            links: vec![LinkId(6)],
            flows: true,
        };
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 50_000));
        let res = sim.run();
        assert_eq!(res.completed_count(), 1);
        assert!(res.traces.link_utilization.is_empty());
        assert!(res.traces.flow_goodput.is_empty());
    }

    /// Regression (disconnected routing): a flow between partitioned components is
    /// recorded as Failed; the rest of the run is unaffected.
    #[test]
    fn unroutable_flow_is_recorded_as_failed_not_a_panic() {
        // Two disconnected islands: h0 -- s0 -- h1   and   h2 -- s1 -- h3.
        let mut net = Network::new();
        let h0 = net.add_host("h0");
        let s0 = net.add_switch("s0");
        let h1 = net.add_host("h1");
        let h2 = net.add_host("h2");
        let s1 = net.add_switch("s1");
        let h3 = net.add_host("h3");
        net.add_duplex_link(h0, s0, LinkParams::default());
        net.add_duplex_link(s0, h1, LinkParams::default());
        net.add_duplex_link(h2, s1, LinkParams::default());
        net.add_duplex_link(s1, h3, LinkParams::default());
        let mut sim = blast_sim(net);
        sim.add_flow(FlowSpec::new(1, h0, h1, 50_000)); // routable
        sim.add_flow(FlowSpec::new(2, h0, h3, 50_000)); // crosses the partition
        let res = sim.run();
        assert_eq!(
            res.flow(FlowId(1)).unwrap().outcome(),
            FlowOutcome::Completed
        );
        let failed = res.flow(FlowId(2)).unwrap();
        assert_eq!(failed.outcome(), FlowOutcome::Failed);
        assert!(failed.fct().is_none());
        assert!(!failed.met_deadline());
        assert_eq!(failed.raw_bytes_delivered, 0);
    }

    /// Regression (looping route): delivery is decided by hop count, which is the far
    /// endpoint only on a simple path — and before that rule, a path revisiting the
    /// destination silently delivered at the first visit. A router (a public trait:
    /// anyone's closure) that returns a path visiting a node twice has not placed the
    /// flow: it is recorded as Failed and never reaches an agent or a link.
    #[test]
    fn looping_route_is_recorded_as_failed_like_an_unroutable_one() {
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = blast_sim(net);
        // h0 -> s0 -> s1 -> h2 -> s1 -> h2: right endpoints, through h2 twice.
        sim.set_router(|net: &Network, spec: &FlowSpec, _: &mut SmallRng| {
            let direct = net.shortest_path(spec.src, spec.dst)?;
            if spec.id != FlowId(2) {
                return Some(direct);
            }
            let (mut nodes, mut links) = (direct.nodes, direct.links);
            let last = *links.last().unwrap();
            nodes.extend([net.link(last).src, net.link(last).dst]);
            links.extend([net.reverse(last), last]);
            Some(FlowPath::new(nodes, links))
        });
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 50_000));
        sim.add_flow(FlowSpec::new(2, hosts[0], hosts[2], 50_000));
        let res = sim.run();
        assert_eq!(
            res.flow(FlowId(1)).unwrap().outcome(),
            FlowOutcome::Completed
        );
        let looped = res.flow(FlowId(2)).unwrap();
        assert_eq!(looped.outcome(), FlowOutcome::Failed);
        assert_eq!(looped.raw_bytes_delivered, 0);
        // Only flow 1's packets ever crossed the access link.
        let sent = res.link_stats[0].1.packets_transmitted;
        assert_eq!(sent, 50_000u64.div_ceil(crate::packet::MSS_BYTES as u64));
    }

    /// Regression (mis-sequenced TransmitDone): in release builds a spurious
    /// TransmitDone on an idle link is absorbed (link idled, no crash); in debug
    /// builds the checked invariant fires.
    #[cfg(not(debug_assertions))]
    #[test]
    fn spurious_transmit_done_is_absorbed_in_release() {
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = blast_sim(net);
        sim.core.events.schedule(
            SimTime::from_micros(1),
            EventKind::TransmitDone { link: LinkId(0) },
        );
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 50_000));
        let res = sim.run();
        assert_eq!(res.completed_count(), 1);
    }

    /// Debug counterpart: the invariant is checked.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "TransmitDone")]
    fn spurious_transmit_done_panics_in_debug() {
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = blast_sim(net);
        sim.core.events.schedule(
            SimTime::from_micros(1),
            EventKind::TransmitDone { link: LinkId(0) },
        );
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 50_000));
        let _ = sim.run();
    }

    /// The hot slab is a route offset, a link count and a hold count, 12 bytes a
    /// flow: 5 000 live flows take 60 kB of it.
    #[test]
    fn hot_flow_state_stays_small() {
        assert_eq!(std::mem::size_of::<FlowHot>(), 12);
    }

    /// Every flow of a run holds a cold slot from injection to the merge, finished or
    /// not, and the workload list holds its spec once more. With the spec's optional
    /// fields stored without `Option` tags and the coflow tag behind a shared pointer,
    /// a spec is 56 bytes (96 before), a `FlowInfo` 80 (120) and a slot 120 (168; 128
    /// with the goodput sampler's last reading still in it). A record fits in the
    /// slot it is built from (120 bytes in 120), so a lone core's records reuse its
    /// slot slab's buffer.
    #[test]
    fn flow_state_stays_small() {
        use std::mem::{align_of, size_of};
        let spec = size_of::<FlowSpec>();
        assert!(spec <= 56, "FlowSpec is {spec} bytes");
        let info = size_of::<FlowInfo>();
        assert!(info <= 80, "FlowInfo is {info} bytes");
        let size = size_of::<FlowState>();
        assert!(size <= 120, "FlowState is {size} bytes");
        let record = size_of::<FlowRecord>();
        assert!(
            record <= size,
            "FlowRecord is {record} bytes, FlowState {size}"
        );
        assert!(align_of::<FlowRecord>() <= align_of::<FlowState>());
    }

    /// A hard stop before some arrivals: the flows that never arrived hold a slot but
    /// produce no record and no trace series.
    #[test]
    fn arrivals_after_a_hard_stop_leave_no_record() {
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = blast_sim(net);
        sim.core.config.max_sim_time = SimTime::from_millis(2);
        sim.core.config.trace = TraceConfig {
            interval: SimTime::from_micros(200),
            links: vec![],
            flows: true,
        };
        let late = |id, ms| {
            FlowSpec::new(id, hosts[1], hosts[2], 10_000).with_arrival(SimTime::from_millis(ms))
        };
        sim.add_flows([
            FlowSpec::new(1, hosts[0], hosts[2], 10_000),
            late(3, 5),
            late(2, 1),
            late(4, 7),
        ]);
        let res = sim.run();
        let ids: Vec<u64> = res.flows.iter().map(|r| r.spec.id.value()).collect();
        assert_eq!(ids, [1, 2]);
        assert_eq!(res.engine.arrivals, 2);
        let mut traced: Vec<u64> = res
            .traces
            .flow_goodput
            .keys()
            .map(|id| id.value())
            .collect();
        traced.sort_unstable();
        assert_eq!(traced, [1, 2]);
    }

    /// What each hop of `path` must do, derived the long way from the path and
    /// `Network::reverse`: `(next link, controller link)` per hop, forward then reverse.
    type HopLinks = Vec<(LinkId, Option<LinkId>)>;
    fn hops_from_path(net: &Network, path: &FlowPath) -> (HopLinks, HopLinks) {
        let n = path.links.len();
        let forward = path.links.iter().map(|&l| (l, Some(l))).collect();
        let reverse = (0..n)
            .map(|h| {
                let ctl = (h >= 1).then(|| path.links[n - h]);
                (net.reverse(path.links[n - 1 - h]), ctl)
            })
            .collect();
        (forward, reverse)
    }

    proptest::proptest! {
        /// The route arena against the path it was built from: on a random duplex
        /// network and a random simple path, a packet stamped by the flow's home core
        /// — and one stamped by a replica that learnt the flow through
        /// `MsgBody::Register`, at another slot and arena offset — takes the links
        /// `FlowPath` + `Network::reverse` give, hop by hop in both directions, and has
        /// arrived exactly when it reaches the far endpoint.
        #[test]
        fn route_arena_agrees_with_the_flow_path(
            n in 3usize..10,
            order in proptest::prop::collection::vec(0u32..1_000_000, 10),
            len in 2usize..9,
            extra in proptest::prop::collection::vec((0usize..10, 0usize..10), 0..12),
        ) {
            // Nodes in a random order; the first `len` of them are the path. Unrelated
            // links before and between the path's keep link ids from lining up.
            let mut net = Network::new();
            let mut nodes: Vec<NodeId> = (0..n).map(|i| net.add_host(format!("n{i}"))).collect();
            nodes.sort_by_key(|v| order[v.index()]);
            nodes.truncate(len.min(n));
            let mut extra = extra.into_iter().filter(|(a, b)| a % n != b % n);
            let mut links = Vec::new();
            for pair in nodes.windows(2) {
                if let Some((a, b)) = extra.next() {
                    let (a, b) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
                    net.add_duplex_link(a, b, LinkParams::default());
                }
                links.push(net.add_duplex_link(pair[0], pair[1], LinkParams::default()).0);
            }
            let path = FlowPath::new(nodes.clone(), links);
            let (src, dst) = (path.src(), path.dst());
            let (forward, reverse) = hops_from_path(&net, &path);

            let routed = |core: &mut EngineCore, spec: FlowSpec, links: &[LinkId]| {
                let slot = core.flows.push(FlowState::pending(spec));
                core.flows.set_route(slot, &net, links);
                core.flows.slots[slot as usize].stage = Stage::Routed;
            };
            let config = SimConfig::default();
            let mut home = EngineCore::new(net.clone(), config.clone());
            routed(&mut home, FlowSpec::new(7, src, dst, 10_000), &path.links);
            // The replica already holds a flow, so slot and offset differ from home's.
            let mut replica = EngineCore::new(net.clone(), config.clone());
            let back: Vec<LinkId> = reverse.iter().map(|&(l, _)| l).collect();
            routed(&mut replica, FlowSpec::new(8, dst, src, 10_000), &back);
            let info = Box::new(home.flows.slots[0].info.clone());
            replica.ingest(&mut vec![ShardMsg {
                sent: SimTime::ZERO,
                src_shard: 0,
                seq: 0,
                body: MsgBody::Register { info, links: path.links.clone().into() },
            }]);
            proptest::prop_assert_ne!(
                home.flows.slot_of(FlowId(7)),
                replica.flows.slot_of(FlowId(7))
            );

            for core in [&mut home, &mut replica] {
                let slot = core.flows.slot_of(FlowId(7)).unwrap();
                for (kind, want, end) in [
                    (PacketKind::Data, &forward, dst),
                    (PacketKind::Ack, &reverse, src),
                ] {
                    let mut p = Packet::control(kind, FlowId(7), src, dst);
                    core.flows.stamp(slot, &mut p);
                    for (hop, &links) in want.iter().enumerate() {
                        p.hop = hop as u32;
                        proptest::prop_assert!(p.hop != p.nlinks, "early delivery");
                        proptest::prop_assert_eq!(core.flows.hop_links(&p), links);
                        // Crossing the link leads to the far endpoint at the last hop only.
                        let at_end = net.link(links.0).dst == end;
                        proptest::prop_assert_eq!(at_end, hop + 1 == p.nlinks as usize);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn duplicate_flow_ids_rejected() {
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = blast_sim(net);
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 1000));
        sim.add_flow(FlowSpec::new(1, hosts[1], hosts[2], 1000));
        // Arrival handling (same id twice) panics via the flow-table insert guard.
        let _ = sim.run();
    }

    /// An agent that schedules timers out of insertion order (two instants, two
    /// timers each) and records the order in which the engine delivers them.
    struct TimerProbe {
        fired: std::sync::Arc<std::sync::Mutex<Vec<(SimTime, u64)>>>,
    }
    impl HostAgent for TimerProbe {
        fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
            let f = flow.spec.id;
            let k = TimerKind::Custom(0);
            ctx.set_timer_after(f, k, SimTime::from_micros(2), 10);
            ctx.set_timer_after(f, k, SimTime::from_micros(1), 20);
            ctx.set_timer_after(f, k, SimTime::from_micros(2), 11);
            ctx.set_timer_after(f, k, SimTime::from_micros(1), 21);
        }
        fn on_packet(&mut self, _packet: Packet, _ctx: &mut Ctx) {}
        fn on_timer(&mut self, _flow: FlowId, _kind: TimerKind, token: u64, ctx: &mut Ctx) {
            self.fired.lock().unwrap().push((ctx.now(), token));
        }
    }

    /// Engine-level event ordering: timers fire strictly in time order, FIFO within
    /// the same instant (the scheduling order, not the token values), and the clock
    /// observed by agents never moves backwards.
    #[test]
    fn engine_delivers_timers_in_time_then_fifo_order() {
        let fired = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = Simulator::new(
            net,
            SimConfig {
                max_sim_time: SimTime::from_millis(1),
                stop_when_flows_done: false,
                ..SimConfig::default()
            },
        );
        let probe_log = fired.clone();
        sim.install_agents(move |_, _| {
            Box::new(TimerProbe {
                fired: probe_log.clone(),
            })
        });
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 1000));
        let _ = sim.run();
        let fired = fired.lock().unwrap();
        let tokens: Vec<u64> = fired.iter().map(|&(_, tok)| tok).collect();
        assert_eq!(
            tokens,
            vec![20, 21, 10, 11],
            "timers must fire in time order, FIFO within one instant"
        );
        for pair in fired.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "agent-visible time went backwards");
        }
    }

    /// An agent that completes its flow on one timer's firing and has armed another
    /// for after the completion: that one fires anyway — a finish does not cancel
    /// timers (see the module docs), so agents recognise late timers themselves.
    struct FinishProbe {
        fired: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
    }
    impl HostAgent for FinishProbe {
        fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
            let f = flow.spec.id;
            let k = TimerKind::Custom(0);
            ctx.set_timer_after(f, k, SimTime::from_micros(5), 4);
            ctx.set_timer_after(f, k, SimTime::from_micros(100), 5);
        }
        fn on_packet(&mut self, _packet: Packet, _ctx: &mut Ctx) {}
        fn on_timer(&mut self, flow: FlowId, _kind: TimerKind, token: u64, ctx: &mut Ctx) {
            self.fired.lock().unwrap().push(token);
            if token == 4 {
                ctx.flow_completed(flow);
            }
        }
    }

    #[test]
    fn timer_cancellation_is_agent_driven_not_finish_driven() {
        let fired = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = Simulator::new(
            net,
            SimConfig {
                max_sim_time: SimTime::from_millis(1),
                stop_when_flows_done: false,
                ..SimConfig::default()
            },
        );
        let log = fired.clone();
        sim.install_agents(move |_, _| Box::new(FinishProbe { fired: log.clone() }));
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 1000));
        let res = sim.run();
        assert_eq!(
            *fired.lock().unwrap(),
            vec![4, 5],
            "the post-completion timer (5) must fire"
        );
        assert_eq!(res.completed_count(), 1);
    }

    /// An agent that arms a timer wherever it is called — at the source on the
    /// flow's arrival, at the destination on its first packet — and logs the node
    /// each timer fires at; spawning at the destination if `spawn` is set.
    struct WhereProbe {
        node: NodeId,
        spawn: bool,
        fired: std::sync::Arc<std::sync::Mutex<Vec<(NodeId, u64)>>>,
    }
    impl HostAgent for WhereProbe {
        fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
            let f = flow.spec.id;
            ctx.set_timer_after(f, TimerKind::Custom(0), SimTime::from_micros(1), 1);
            ctx.send(Packet::data(f, flow.spec.src, flow.spec.dst, 0, 100));
        }
        fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
            ctx.set_timer_after(
                packet.flow,
                TimerKind::Custom(0),
                SimTime::from_micros(1),
                2,
            );
            if self.spawn {
                let spec = FlowSpec::new(2, packet.src, packet.dst, 100);
                ctx.spawn_flow(spec.with_arrival(ctx.now()));
            }
        }
        fn on_timer(&mut self, _flow: FlowId, _kind: TimerKind, token: u64, _ctx: &mut Ctx) {
            self.fired.lock().unwrap().push((self.node, token));
        }
    }

    fn where_probe_run(spawn: bool) -> Vec<(NodeId, u64)> {
        let fired = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = Simulator::new(
            net,
            SimConfig {
                max_sim_time: SimTime::from_millis(1),
                stop_when_flows_done: false,
                ..SimConfig::default()
            },
        );
        let log = fired.clone();
        sim.install_agents(move |_, node| {
            let fired = log.clone();
            Box::new(WhereProbe { node, spawn, fired })
        });
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 100));
        let _ = sim.run();
        let fired = fired.lock().unwrap().clone();
        fired
    }

    /// A timer fires at the node whose callback armed it, whichever end of the flow
    /// that is.
    #[test]
    fn timers_fire_at_the_node_that_armed_them() {
        let hosts = dumbbell().hosts();
        assert_eq!(where_probe_run(false), [(hosts[0], 1), (hosts[2], 2)]);
    }

    /// A spawned flow starts at the node that spawned it: any other source is refused.
    #[test]
    #[should_panic(expected = "with another source")]
    fn spawning_a_flow_elsewhere_panics() {
        where_probe_run(true);
    }

    /// A transport that leaves packets of its flow in the network after the flow
    /// finishes, and logs every packet delivered with the instant:
    ///
    /// * the sender sends the flow's data `copies` times over, back to back — a
    ///   go-back-N sender resending what the receiver already has — so duplicate ACKs
    ///   trail the completion;
    /// * with `term`, the sender answers the ACK of the last byte with a TERM, which
    ///   the receiver echoes: PDQ's TERM and its echo are in flight after the finish;
    /// * the receiver ACKs every data packet with its cumulative in-order count and
    ///   reports the flow complete on its last byte.
    struct LateAgent {
        copies: u32,
        term: bool,
        received: FlowMap<u64>,
        termed: FlowMap<()>,
        log: std::sync::Arc<std::sync::Mutex<Vec<(PacketKind, SimTime)>>>,
    }

    impl HostAgent for LateAgent {
        fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
            let spec = &flow.spec;
            for _ in 0..self.copies {
                let mut offset = 0;
                while offset < spec.size_bytes {
                    let payload =
                        (spec.size_bytes - offset).min(crate::packet::MSS_BYTES as u64) as u32;
                    ctx.send(Packet::data(spec.id, spec.src, spec.dst, offset, payload));
                    offset += payload as u64;
                }
            }
        }

        fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
            self.log.lock().unwrap().push((packet.kind, ctx.now()));
            let size = ctx.flow(packet.flow).expect("a live flow").spec.size_bytes;
            match packet.kind {
                PacketKind::Data => {
                    let received = self.received.entry(packet.flow).or_insert(0);
                    let complete = *received >= size;
                    if packet.seq == *received {
                        *received += packet.payload as u64;
                    }
                    ctx.send(packet.make_echo(PacketKind::Ack, *received));
                    if !complete && *received >= size {
                        ctx.flow_completed(packet.flow);
                    }
                }
                PacketKind::Ack
                    if self.term
                        && packet.ack >= size
                        && self.termed.insert(packet.flow, ()).is_none() =>
                {
                    let term =
                        Packet::control(PacketKind::Term, packet.flow, packet.src, packet.dst);
                    ctx.send(term);
                }
                PacketKind::Term => ctx.send(packet.make_echo(PacketKind::TermAck, 0)),
                _ => {}
            }
        }

        fn on_timer(&mut self, _: FlowId, _: TimerKind, _: u64, _: &mut Ctx) {}
    }

    /// One 30 kB flow h0 → h2 across the dumbbell under a [`LateAgent`], run to
    /// 20 ms on `shards` cores (two: the cut between s0 and s1), with random loss
    /// `loss` on the link h2 → s1 that every ACK takes first. Returns the packets
    /// delivered, when the flow completed, and the cores as they ended.
    fn late_run(
        shards: u32,
        copies: u32,
        term: bool,
        loss: f64,
    ) -> (Vec<(PacketKind, SimTime)>, SimTime, Vec<EngineCore>) {
        let mut net = dumbbell();
        let hosts = net.hosts();
        let ack_link = net
            .links
            .iter()
            .find(|l| l.src == hosts[2])
            .expect("h2's link")
            .id;
        net.link_mut(ack_link).loss_rate = loss;
        let config = SimConfig {
            stop_when_flows_done: false,
            max_sim_time: SimTime::from_millis(20),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(net, config);
        let log = std::sync::Arc::default();
        sim.install_agents(|_, _| {
            Box::new(LateAgent {
                copies,
                term,
                received: FlowMap::default(),
                termed: FlowMap::default(),
                log: std::sync::Arc::clone(&log),
            })
        });
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 30_000));
        let assignment = match shards {
            1 => ShardAssignment::single(5),
            _ => ShardAssignment::new(vec![0, 0, 0, 1, 1], 2, crate::network::DEFAULT_PROP_DELAY),
        };
        let cores = sim.run_cores(&assignment, |_| Box::new(ShortestPathRouter));
        let finish = cores
            .iter()
            .flat_map(|c| &c.flows.slots)
            .find_map(|s| s.finish)
            .expect("the flow finished");
        assert!(finish.completed);
        let log = std::mem::take(&mut *log.lock().unwrap());
        (log, finish.at, cores)
    }

    /// After the run, nothing of the flow is held on any core: every packet left, and
    /// the flow is out of its home's index with its route released. A replica retires
    /// when the home's notice reaches it, which the end of the run may cut off.
    fn assert_retired(cores: &[EngineCore], shards: u32) {
        for core in cores {
            assert!(
                core.flows.hot.iter().all(|h| h.refs == 0),
                "{shards} shard(s)"
            );
            assert_eq!(core.pool.live(), 0, "{shards} shard(s)");
            let notice = cores[0]
                .outbox
                .iter()
                .flatten()
                .any(|m| matches!(m.body, MsgBody::Retire { flow } if flow == FlowId(1)));
            if core.shard == 0 || !notice {
                assert_eq!(core.flows.slot_of(FlowId(1)), None, "{shards} shard(s)");
                assert!(core.flows.hot.iter().all(|h| h.nlinks == 0));
            }
        }
    }

    /// PDQ's ending: the flow completes when its last byte reaches the receiver, with
    /// that byte's ACK, then the sender's TERM and the receiver's echo still to cross
    /// the network. The flow keeps its route until the echo is delivered, on one core
    /// and on two.
    #[test]
    fn a_flow_keeps_its_route_for_its_term_and_echo() {
        for shards in [1, 2] {
            let (log, finished, cores) = late_run(shards, 1, true, 0.0);
            let late: Vec<PacketKind> = log
                .iter()
                .filter(|&&(_, at)| at > finished)
                .map(|&(kind, _)| kind)
                .collect();
            // The last byte's ACK and those ahead of it, then the TERM and its echo.
            let (acks, end) = late.split_at(late.len() - 2);
            assert!(!acks.is_empty(), "{shards} shard(s): {late:?}");
            assert!(acks.iter().all(|&k| k == PacketKind::Ack), "{late:?}");
            assert_eq!(end, [PacketKind::Term, PacketKind::TermAck], "{late:?}");
            assert_retired(&cores, shards);
        }
    }

    /// A TCP-like ending: the data went out twice, so the receiver completes with the
    /// second copy and its duplicate ACKs still to come. Each is forwarded and
    /// delivered after the finish, on one core and on two.
    #[test]
    fn a_flow_keeps_its_route_for_its_duplicate_acks() {
        for shards in [1, 2] {
            let (log, finished, cores) = late_run(shards, 2, false, 0.0);
            let late = |kind| {
                log.iter()
                    .filter(|&&(k, at)| k == kind && at > finished)
                    .count()
            };
            // 30 kB in 1 460-byte packets: 21 duplicates, each ACKed, behind the ACKs
            // of the first copy still on their way.
            assert_eq!(late(PacketKind::Data), 21, "{shards} shard(s)");
            assert!(late(PacketKind::Ack) > 21, "{shards} shard(s)");
            assert_retired(&cores, shards);
        }
    }

    /// Packets lost after the finish: the duplicate ACKs cross a link that drops half
    /// of what it carries. A lost packet lets go of its flow like a delivered one, so
    /// the flow retires once the last ACK is delivered or lost, on one core and on
    /// two.
    #[test]
    fn a_packet_lost_after_the_finish_lets_go_of_its_flow() {
        for shards in [1, 2] {
            let (log, finished, cores) = late_run(shards, 2, false, 0.5);
            let late = |kind| {
                log.iter()
                    .filter(|&&(k, at)| k == kind && at > finished)
                    .count()
            };
            let lost: u64 = cores
                .iter()
                .flat_map(|c| &c.network.links)
                .map(|l| l.stats.random_drops)
                .sum();
            assert_eq!(late(PacketKind::Data), 21, "{shards} shard(s)");
            assert!(
                late(PacketKind::Ack) < 21 && lost > 0,
                "{shards} shard(s): no late ACK was lost"
            );
            assert_retired(&cores, shards);
        }
    }
}
