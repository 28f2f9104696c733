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
//! cooperating `EngineCore`s synchronized by conservative lookahead, and
//! [`Simulator::run`] is its N = 1 case — one core, one window, the caller's thread.
//! Either way a run is fully deterministic for a fixed seed.
//!
//! # Hot-path layout (id slabs, route arena, pooled packets, ledger links)
//!
//! All engine state is held in dense, id-indexed slabs rather than hash maps:
//!
//! * **agents** — `Vec<Option<Box<dyn HostAgent + Send>>>` indexed by [`NodeId`];
//! * **controllers** — `Vec<Option<Box<dyn LinkController + Send>>>` indexed by
//!   [`LinkId`];
//! * **flows** — a `FlowTable`: two parallel slabs indexed by a per-core flow slot.
//!   The *hot* one (`FlowHot`, 20 bytes a flow: endpoints, route, timer generation)
//!   is all that sending a packet and arming, firing or cancelling a timer read, and
//!   stays cache-resident with thousands of flows live; the *cold* one (`FlowState`:
//!   [`FlowInfo`], [`FlowRecord`], trace accumulator) is read when a flow arrives or
//!   finishes, when an agent asks for its `FlowInfo`, and to count a drop or delivered
//!   bytes. Beside them a flat **route arena** holds every routed flow's forward links
//!   followed by the links its ACKs take, and a `FlowId -> slot` index
//!   ([`FlowMap`]: one multiply-xorshift round, not SipHash) is consulted only at the
//!   per-packet boundaries (agent actions, fired timers). [`NodeId`]/[`LinkId`] are
//!   sequential by construction; [`FlowId`]s may be sparse (M-PDQ subflow ids,
//!   workload-chosen ids), which is exactly what the index absorbs.
//!
//! The *per-hop* path reads hop state only: the popped event, the pooled packet, one
//! run of the route arena, the link controller and the link. When a packet enters the
//! network (or is taken over from another shard) the engine stamps the flow's slot,
//! its arena offset and its link count into it and writes it into a recycled pool
//! slot, where it stays until it is delivered, dropped or moved (by value) into the
//! outbox for another shard.
//! Each hop then knows it has arrived when `hop == nlinks` — which is why a routed path
//! must be simple; one that revisits a node is refused like no path at all — or finds
//! its next link at `routes[route + hop]` (`routes[route + nlinks + hop]` for an ACK),
//! lets the link controller rewrite the pooled packet in place, and re-schedules the
//! same `u32` slot: no hash, no allocation, no packet copy, no per-flow state.
//!
//! A hop is **one event**. A link is a departure ledger (see the `network` module):
//! accepting a packet fixes when its last bit leaves, so its arrival at the next node
//! is scheduled at once, stamped as created at the departure — the same
//! `(at, created, class, flow, subkey)` key it would have got from a transmit-done
//! event popping at that instant, hence the same place in the event order. Before the
//! engine reads a link (tail-drop check, controller callback, trace sample, final
//! results) it settles it against the key of the event being dispatched — once per
//! link per event.
//!
//! # Timer cancellation
//!
//! Each flow carries a generation counter (in its `FlowHot`); timer events snapshot it
//! when scheduled and are silently dropped at pop time if it has moved on. Only agents
//! bump the generation (via `Ctx::cancel_flow_timers`), and only for timers armed at
//! their own node: the engine deliberately does *not* cancel timers when a flow
//! finishes, because a finish detected at the receiver must not acausally suppress a
//! timer pending at the sender — under sharding that knowledge travels a lookahead
//! window later, and a lone core must behave identically. Agents instead
//! ignore late timers through status guards and token freshness.
//!
//! Nor does re-arming cancel anything: `Ctx::set_timer_*` adds a timer, and every
//! earlier one still pops. A deadline an agent re-arms over and over (a
//! retransmission timeout, restarted on every ACK of new data) is a
//! [`RestartTimer`](crate::RestartTimer) instead: it queues a firing only when the
//! new deadline is no later than the one queued, and a firing that pops early
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
use crate::network::{LossStream, Network, NodeKind, DEFAULT_PROCESSING_DELAY};
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

/// Domain-separation salt for per-link loss streams ([`LossStream::PerLink`]): keeps
/// a link's loss stream independent of the per-flow routing streams and of the
/// per-shard engine streams derived from the same master seed.
const LINK_LOSS_SALT: u64 = 0x6C6F_7373_6C6E_6B73; // "losslnks"

/// The private loss stream of `link` ([`LossStream::PerLink`]): a pure function of
/// `(seed, link id)`, consumed in the order packets are handed to the link — an
/// order the deterministic engine reproduces at every shard count.
pub(crate) fn link_loss_rng(seed: u64, link: LinkId) -> SmallRng {
    SmallRng::seed_from_u64(crate::event::mix(
        seed ^ LINK_LOSS_SALT,
        link.index() as u64,
    ))
}

/// Content tie-break subkey for a packet's `PacketAtNode` event, derived from the
/// packet's simulation-visible identity (kind, byte offsets, direction) — never from
/// the engine-local pool slot. The owning flow id is carried separately in the event
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
        (kind_rank << 1) | p.reverse as u64,
    )
}

/// Global simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed. Random loss draws on [`LossStream::Engine`] links come from an
    /// engine stream derived from it (per shard in a partitioned run); links marked
    /// [`LossStream::PerLink`] draw from a private `(seed, link id)` stream instead,
    /// which is shard-count invariant. ECMP routing draws from a per-flow RNG
    /// derived from `(seed, flow id)` so paths are shard-invariant.
    ///
    /// [`LossStream::Engine`]: crate::network::LossStream::Engine
    /// [`LossStream::PerLink`]: crate::network::LossStream::PerLink
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

/// The cold half of a flow's engine state: what arrivals, agent lookups, finishes,
/// trace samples and the final merge read. Nothing on the per-packet paths touches it
/// except to count a drop or delivered bytes (see [`FlowHot`]).
pub(crate) struct FlowState {
    /// Routing/size information; `None` for flows the router could not place (their
    /// record is kept, marked failed, but they never touch an agent or a link).
    pub(crate) info: Option<FlowInfo>,
    /// Per-flow accounting (becomes `SimResults::flows` at the end of the run).
    pub(crate) record: FlowRecord,
    /// `raw_bytes_delivered` at the previous trace sample (goodput time series).
    pub(crate) bytes_at_last_sample: u64,
    /// True on the shard that owns the flow's source host (always true on a
    /// lone core). Only the home replica counts towards `unfinished_flows`;
    /// other shards hold replicas for forwarding/delivery and report their local
    /// accounting through the deterministic result merge.
    pub(crate) home: bool,
}

impl FlowState {
    /// Fresh state for `spec`, routed along `info` — or, without one, unroutable:
    /// recorded as failed, never to touch an agent or a link.
    pub(crate) fn new(spec: FlowSpec, info: Option<FlowInfo>, home: bool) -> Self {
        let mut record = FlowRecord::new(spec);
        record.failed = info.is_none();
        FlowState {
            info,
            record,
            bytes_at_last_sample: 0,
            home,
        }
    }
}

/// The hot half of a flow's engine state: all that sending a packet, arming, firing
/// or cancelling a timer and taking a packet over from another shard need. It lives
/// in a slab of its own so that thousands of live flows stay cache-resident (20 bytes
/// each against several hundred for a [`FlowState`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct FlowHot {
    /// The flow's endpoints: where its forward and reverse packets enter the network,
    /// and (`src`) where its timers fire.
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    /// Where the flow's links start in [`FlowTable::routes`].
    pub(crate) route: u32,
    /// Links on the flow's path; 0 for a flow the router could not place, which never
    /// sends a packet or arms a timer.
    pub(crate) nlinks: u32,
    /// Timer generation: pending timers of older generations are dropped unfired.
    pub(crate) timer_gen: u32,
}

/// Per-flow state in dense slabs — hot and cold halves side by side, indexed by the
/// same slot — plus the flat route arena and the sparse `FlowId -> slot` index.
///
/// Slots are assigned in arrival order and never reused within a run, so a slot is a
/// stable dense id for the flow *on this core*. The index is consulted once per agent
/// action (send / timer / finish) and per fired timer; per-hop code needs neither the
/// index nor the slabs, only the route stamp in the packet.
///
/// `routes` holds, for each routed flow, its `n` forward links followed by the `n`
/// links its ACKs take (`network.reverse(links[n-1-h])` at reverse hop `h`), so a hop
/// in either direction is one index into one contiguous run of link ids.
#[derive(Default)]
pub(crate) struct FlowTable {
    pub(crate) hot: Vec<FlowHot>,
    pub(crate) slots: Vec<FlowState>,
    pub(crate) routes: Vec<LinkId>,
    index: FlowMap<u32>,
}

impl FlowTable {
    pub(crate) fn contains(&self, id: FlowId) -> bool {
        self.index.contains_key(&id)
    }

    pub(crate) fn slot_of(&self, id: FlowId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// Make room for `flows` more flows in the slabs and the index, so that a run
    /// whose arrivals are all known up front sizes them once instead of doubling
    /// (which copies the cold slab and briefly holds both copies).
    pub(crate) fn reserve(&mut self, flows: usize) {
        self.hot.reserve(flows);
        self.slots.reserve(flows);
        self.index.reserve(flows);
    }

    /// Add a flow, laying its path (if it has one) out in the route arena.
    pub(crate) fn insert(&mut self, network: &Network, state: FlowState) -> u32 {
        let slot = self.slots.len() as u32;
        let spec = &state.record.spec;
        let links = state.info.as_ref().map_or(&[][..], |i| &i.path.links[..]);
        self.hot.push(FlowHot {
            src: spec.src,
            dst: spec.dst,
            route: u32::try_from(self.routes.len()).expect("route arena exceeds u32 offsets"),
            nlinks: links.len() as u32,
            timer_gen: 0,
        });
        self.routes.extend_from_slice(links);
        self.routes
            .extend(links.iter().rev().map(|&l| network.reverse(l)));
        self.index.insert(spec.id, slot);
        self.slots.push(state);
        slot
    }

    /// Stamp `packet` with the flow's slot and route on this core; returns the hot
    /// state it stamped from.
    #[inline]
    pub(crate) fn stamp(&self, slot: u32, packet: &mut Packet) -> FlowHot {
        let hot = self.hot[slot as usize];
        packet.flow_slot = slot;
        packet.route = hot.route;
        packet.nlinks = hot.nlinks;
        hot
    }

    /// The link a stamped packet takes at its current hop, and the forward link whose
    /// controller sees it pass: the same link for a forward packet; for a reverse
    /// packet the forward link leaving the node it is at (none at hop 0, where it is
    /// still at the destination host).
    #[inline]
    pub(crate) fn hop_links(&self, packet: &Packet) -> (LinkId, Option<LinkId>) {
        let (route, nlinks, hop) = (packet.route as usize, packet.nlinks as usize, packet.hop);
        debug_assert!(hop < nlinks, "hop {hop} beyond a {nlinks}-link path");
        if packet.reverse {
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
        let slot = self.slot_of(id)?;
        self.slots[slot as usize].info.as_ref()
    }
}

/// Recycled storage for every packet inside the network: written once when the
/// packet is sent (or ingested from another shard), read and rewritten in place at
/// each hop, vacated when it is delivered, dropped or handed to another shard. Slots
/// are reused in LIFO order, so in steady state a packet's life allocates nothing.
#[derive(Default)]
pub(crate) struct PacketPool {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketPool {
    pub(crate) fn park(&mut self, packet: Packet) -> PacketSlot {
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = Some(packet);
            PacketSlot(i)
        } else {
            self.slots.push(Some(packet));
            PacketSlot((self.slots.len() - 1) as u32)
        }
    }

    fn get_mut(&mut self, slot: PacketSlot) -> Option<&mut Packet> {
        self.slots.get_mut(slot.0 as usize)?.as_mut()
    }

    /// Vacate `slot`, returning the packet it held.
    fn take(&mut self, slot: PacketSlot) -> Option<Packet> {
        let p = self.slots.get_mut(slot.0 as usize)?.take();
        if p.is_some() {
            self.free.push(slot.0);
        }
        p
    }

    /// Slots ever allocated: the most packets that were inside the network at once.
    pub(crate) fn high_water(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Packets currently held.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
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
    /// Packet arrivals at a node (one per link traversal, plus one per cross-shard
    /// injection), forwarded or delivered.
    pub packets: u64,
    /// Timers delivered to an agent.
    pub timers_fired: u64,
    /// Timers popped only to be dropped: cancelled by a newer timer generation.
    pub timers_dead: u64,
    /// Link-controller ticks.
    pub ticks: u64,
    /// Trace samples.
    pub samples: u64,
    /// Most packets inside the network at once (per shard; the sum is an upper bound
    /// on the global peak).
    pub pool_high_water: u64,
    /// Most flows unfinished at once, counted where each is homed (per shard; the sum
    /// is an upper bound on the global peak). The size of the per-flow working set:
    /// what separates an overloaded run from a steady one at the same event count.
    pub live_flows_high_water: u64,
    /// Lookahead windows the run processed: 1 on a lone core (one unbounded window),
    /// at most `end_time / lookahead` plus one or two on shards. Every shard opens the
    /// same windows, so this one counter is merged as the common count, not summed.
    pub windows: u64,
    /// Boundary messages ingested from other shards (0 on a lone core).
    pub messages_in: u64,
}

impl std::fmt::Display for EngineStats {
    /// `key=value` pairs, the form the experiments' stderr telemetry lines use.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "arrivals={} packets={} timers_fired={} timers_dead={} ticks={} samples={} \
             pool_high_water={} live_flows_high_water={} windows={} messages_in={}",
            self.arrivals,
            self.packets,
            self.timers_fired,
            self.timers_dead,
            self.ticks,
            self.samples,
            self.pool_high_water,
            self.live_flows_high_water,
            self.windows,
            self.messages_in
        )
    }
}

/// All per-run mutable simulation state: the slabs (agents, controllers, flows), the
/// event queue, the RNG stream, the metrics accumulators and the live network queues.
///
/// A one-shard run drives the core the [`Simulator`] was built on; an N-shard run
/// deals its agents, controllers and pending arrivals out to one core per shard, each
/// with an `outbox` of boundary messages exchanged at conservative-lookahead barriers.
/// Every core routes a flow when it arrives and registers it with the other shards on
/// its path.
///
/// The cores of a run sit side by side in one `Vec`, each driven by its own thread.
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
    pub(crate) rng: SmallRng,
    pub(crate) flows: FlowTable,
    pub(crate) pool: PacketPool,
    pub(crate) unfinished_flows: usize,
    pub(crate) pending_arrivals: usize,
    pub(crate) traces: Traces,
    /// `bytes_transmitted` at the previous trace sample, indexed by [`LinkId`].
    pub(crate) link_bytes_at_last_sample: Vec<u64>,
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
    /// Lazily-seeded private loss streams for [`LossStream::PerLink`] links,
    /// indexed by [`LinkId`]. `None` until the link's first loss draw.
    ///
    /// [`LossStream::PerLink`]: crate::network::LossStream::PerLink
    pub(crate) link_loss_rngs: Vec<Option<SmallRng>>,
    /// The one action buffer every agent callback's [`Ctx`] fills: taken for the
    /// callback, drained by `apply_actions` (which never calls an agent, so there is
    /// no re-entrancy) and put back.
    actions: Vec<Action>,
}

impl EngineCore {
    pub(crate) fn new(network: Network, config: SimConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
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
            rng,
            flows: FlowTable::default(),
            pool: PacketPool::default(),
            unfinished_flows: 0,
            pending_arrivals: 0,
            traces: Traces::default(),
            link_bytes_at_last_sample: vec![0; n_links],
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

    /// Queue `body` for `to_shard`, taking effect at `at`, created at `sent`.
    fn push_msg(&mut self, to_shard: u32, at: SimTime, sent: SimTime, body: MsgBody) {
        let seq = self.msg_seq;
        self.msg_seq += 1;
        self.outbox[to_shard as usize].push(ShardMsg {
            at,
            sent,
            src_shard: self.shard,
            seq,
            body,
        });
    }

    /// Inject a flow; its arrival event fires at `spec.arrival`.
    pub(crate) fn add_flow(&mut self, spec: FlowSpec) {
        assert!(
            !self.flows.contains(spec.id),
            "duplicate flow id {:?}",
            spec.id
        );
        self.pending_arrivals += 1;
        self.events
            .schedule(spec.arrival, EventKind::FlowArrival(Box::new(spec)));
    }

    /// Schedule the run's bootstrap events: controller init ticks, the first trace
    /// sample, and the hard Stop at `max_sim_time`; size the flow slabs for the
    /// arrivals already queued.
    pub(crate) fn setup(&mut self) {
        self.flows.reserve(self.pending_arrivals);
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
            EventKind::FlowArrival(spec) => {
                self.stats.arrivals += 1;
                self.handle_flow_arrival(*spec)
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
                kind,
                token,
                gen,
            } => self.handle_timer(node, flow, kind, token, gen),
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

    /// Route an arriving flow, make it visible to every shard its path touches, and
    /// hand it to its source agent.
    fn handle_flow_arrival(&mut self, spec: FlowSpec) {
        self.pending_arrivals -= 1;
        assert!(
            !self.flows.contains(spec.id),
            "duplicate flow id {:?} arrived twice",
            spec.id
        );
        let path = {
            let Self {
                router, network, ..
            } = self;
            // Route on a per-flow RNG derived from (seed, flow id), not the engine
            // stream: the draw is then a pure function of the flow, so it picks the
            // same ECMP path no matter which shard routes it or how arrivals
            // interleave.
            let mut route_rng = route_rng(self.config.seed, spec.id);
            router.route(network, &spec, &mut route_rng)
        };
        // A packet has arrived when it has crossed every link of its path, which is
        // the far endpoint only if the path visits no node twice: a router that loops
        // has not placed the flow.
        let Some(path) = path.filter(|p| is_simple(&p.nodes)) else {
            // Disconnected src/dst pair: record the flow as failed instead of
            // aborting the whole run. It never reaches an agent.
            self.flows
                .insert(&self.network, FlowState::new(spec, None, true));
            return;
        };
        assert_eq!(
            path.src(),
            spec.src,
            "router returned a path with wrong source"
        );
        assert_eq!(
            path.dst(),
            spec.dst,
            "router returned a path with wrong destination"
        );

        let src = spec.src;
        let info = make_flow_info(&self.network, &self.config, spec.clone(), path);
        // Every shard the path touches must know the flow before any of its packets
        // cross a boundary; registrations sort ahead of packets at ingest.
        self.broadcast_registration(&info);
        let slot = self
            .flows
            .insert(&self.network, FlowState::new(spec, Some(info), true));
        self.unfinished_flows += 1;
        self.stats.live_flows_high_water = self
            .stats
            .live_flows_high_water
            .max(self.unfinished_flows as u64);
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
            let info = flows.slots[slot as usize]
                .info
                .as_ref()
                .expect("routed above");
            let mut ctx = Ctx::with_buffer(self.now, flows, std::mem::take(actions));
            agent.on_flow_arrival(info, &mut ctx);
            ctx.take_actions()
        };
        self.apply_actions(actions);
    }

    /// Send a registration for the flow to every other shard on its path.
    fn broadcast_registration(&mut self, info: &FlowInfo) {
        if self.shard_of.is_empty() {
            return;
        }
        let mut shards: Vec<u32> = info
            .path
            .nodes
            .iter()
            .map(|n| self.shard_of[n.index()])
            .filter(|&s| s != self.shard)
            .collect();
        shards.sort_unstable();
        shards.dedup();
        let now = self.now;
        for s in shards {
            self.push_msg(s, now, now, MsgBody::Register(Box::new(info.clone())));
        }
    }

    fn handle_packet_at_node(&mut self, node: NodeId, slot: PacketSlot) {
        let Some(packet) = self.pool.get_mut(slot) else {
            // Pool slot already vacated (should not happen); silently discard.
            return;
        };
        // The path is simple, so the packet is at its far endpoint exactly when it has
        // crossed every link.
        let delivered = packet.hop == packet.nlinks as usize;
        debug_assert_eq!(
            delivered,
            {
                let hot = &self.flows.hot[packet.flow_slot as usize];
                node == if packet.reverse { hot.src } else { hot.dst }
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

    /// Deliver a packet to the host agent at `node`.
    fn deliver_packet(&mut self, node: NodeId, packet: Packet) {
        if !packet.reverse && packet.kind == PacketKind::Data {
            let state = &mut self.flows.slots[packet.flow_slot as usize];
            state.record.raw_bytes_delivered += packet.payload as u64;
        }
        let actions = {
            let Self {
                agents,
                flows,
                actions,
                ..
            } = self;
            let Some(agent) = agents[node.index()].as_mut() else {
                return;
            };
            let mut ctx = Ctx::with_buffer(self.now, flows, std::mem::take(actions));
            agent.on_packet(packet, &mut ctx);
            ctx.take_actions()
        };
        self.apply_actions(actions);
    }

    /// Put the pooled packet `slot` on its next link from `node`: run the link
    /// controller, apply random loss and tail drop, and — the link being a departure
    /// ledger — schedule its arrival at the far end straight away, created at the
    /// instant its last bit leaves the link. The packet stays in its pool slot; every
    /// path that does not re-schedule it (drop, hand-off to another shard) vacates the
    /// slot.
    ///
    /// This is the hottest function in the simulator. It reads hop state only — the
    /// pooled packet, one run of the route arena, the controller and the link — and
    /// never the flow slabs (but to count a drop); it performs no heap allocation, no
    /// hash lookup and no packet copy, and settles each link it touches exactly once.
    fn forward_packet(&mut self, node: NodeId, slot: PacketSlot) {
        let key = self.key;
        let Some(packet) = self.pool.get_mut(slot) else {
            return;
        };
        let (next_link, controller_link) = self.flows.hop_links(packet);
        debug_assert_eq!(self.network.link(next_link).src, node, "hop mismatch");
        self.network.link_mut(next_link).settle(key);

        // Run the link controller (switch scheduling logic) on the settled link: the
        // one just settled for a forward packet, another for a reverse one.
        if let Some(cl) = controller_link {
            if let Some(ctl) = self.controllers[cl.index()].as_mut() {
                let link = self.network.link_mut(cl);
                if packet.reverse {
                    link.settle(key);
                    ctl.on_reverse(packet, self.now, link);
                } else {
                    ctl.on_forward(packet, self.now, link);
                }
            }
        }

        // Random loss injection. `Engine` links share this core's stream;
        // `PerLink` links (WAN long-hauls) each consume their own `(seed, link)`
        // stream so the draw sequence is invariant under the shard count.
        let link = self.network.link_mut(next_link);
        let mut lost = false;
        if link.loss_rate > 0.0 {
            let draw = match link.loss_stream {
                LossStream::Engine => self.rng.gen::<f64>(),
                LossStream::PerLink => {
                    let seed = self.config.seed;
                    self.link_loss_rngs[next_link.index()]
                        .get_or_insert_with(|| link_loss_rng(seed, next_link))
                        .gen::<f64>()
                }
            };
            if draw < link.loss_rate {
                link.stats.random_drops += 1;
                lost = true;
            }
        }

        // Tail-drop FIFO enqueue: an accepted packet's departure is known at once.
        let depart = if lost {
            None
        } else {
            link.accept(key, packet.wire_size)
        };
        let Some(depart) = depart else {
            self.flows.slots[packet.flow_slot as usize].record.drops += 1;
            self.pool.take(slot);
            return;
        };
        let arrive_at = depart + link.prop_delay + self.config.processing_delay;
        let dst = link.dst;
        packet.hop += 1;
        let (flow, tie) = (packet.flow, packet_tie(packet));
        if self.is_local(dst) {
            // What a transmit-done event popping at `depart` would have scheduled.
            let kind = EventKind::PacketAtNode {
                node: dst,
                packet: slot,
                flow,
                tie,
            };
            self.events.schedule_created(arrive_at, depart, kind);
        } else {
            // Boundary crossing: the conservative lookahead window is sized so that
            // `arrive_at` is at or past the receiver's next barrier.
            let to = self.shard_of[dst.index()];
            let packet = self.pool.take(slot).expect("peeked above");
            self.push_msg(to, arrive_at, depart, MsgBody::Packet { node: dst, packet });
        }
    }

    fn handle_timer(&mut self, node: NodeId, flow: FlowId, kind: TimerKind, token: u64, gen: u32) {
        // Lazy cancellation: a timer from an older generation is dropped unfired.
        let live = self
            .flows
            .slot_of(flow)
            .is_some_and(|slot| self.flows.hot[slot as usize].timer_gen == gen);
        if !live {
            self.stats.timers_dead += 1;
            return;
        }
        self.stats.timers_fired += 1;
        let actions = {
            let Self {
                agents,
                flows,
                actions,
                ..
            } = self;
            let Some(agent) = agents[node.index()].as_mut() else {
                return;
            };
            let mut ctx = Ctx::with_buffer(self.now, flows, std::mem::take(actions));
            agent.on_timer(flow, kind, token, &mut ctx);
            ctx.take_actions()
        };
        self.apply_actions(actions);
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
            let link = network.link_mut(link_id);
            link.settle(self.key);
            ctl.on_tick(self.now, link)
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
            let link = self.network.link_mut(l);
            link.settle(self.key);
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
                ..
            } = self;
            for state in &mut flows.slots {
                let rec = &state.record;
                // Goodput accumulates where the data is delivered: the shard owning
                // the flow's destination samples it (every shard in a 1-shard run).
                if sharded && shard_of[rec.spec.dst.index()] != shard {
                    continue;
                }
                let delta = rec.raw_bytes_delivered - state.bytes_at_last_sample;
                state.bytes_at_last_sample = rec.raw_bytes_delivered;
                let rate = if elapsed_s > 0.0 {
                    delta as f64 * 8.0 / elapsed_s
                } else {
                    0.0
                };
                traces
                    .flow_goodput
                    .entry(rec.spec.id)
                    .or_default()
                    .push(Sample {
                        at: self.now,
                        value: rate,
                    });
            }
        }
        // Pending-event depth of this core's queue (per shard in a partitioned run) —
        // the scheduler's working-set size over time.
        self.traces.event_queue_depth.push(Sample {
            at: self.now,
            value: self.events.len() as f64,
        });
        self.last_sample_at = self.now;
        if interval > SimTime::ZERO {
            self.events
                .schedule(self.now + interval, EventKind::TraceSample);
        }
    }

    // ------------------------------------------------------------------ actions

    pub(crate) fn apply_actions(&mut self, mut actions: Vec<Action>) {
        for a in actions.drain(..) {
            match a {
                Action::Send(mut packet) => {
                    // The packet leaves the host that generated it: the flow source for
                    // forward packets, the flow destination for reverse packets. This
                    // is the one place a packet's flow id is hashed; every hop after
                    // this uses the route stamped here.
                    packet.hop = 0;
                    let Some(slot) = self.flows.slot_of(packet.flow) else {
                        continue;
                    };
                    let hot = self.flows.stamp(slot, &mut packet);
                    if hot.nlinks == 0 {
                        continue;
                    }
                    let origin = if packet.reverse { hot.dst } else { hot.src };
                    if self.is_local(origin) {
                        let slot = self.pool.park(packet);
                        self.forward_packet(origin, slot);
                    } else {
                        // An agent on this shard emitted a packet that enters the
                        // network on a host owned by another shard; hand it over
                        // for injection there (no current protocol does this).
                        let to = self.shard_of[origin.index()];
                        let at = self.now;
                        let body = MsgBody::Packet {
                            node: origin,
                            packet,
                        };
                        self.push_msg(to, at, at, body);
                    }
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
                    let Some(slot) = self.flows.slot_of(flow) else {
                        continue;
                    };
                    let hot = self.flows.hot[slot as usize];
                    if hot.nlinks == 0 {
                        continue;
                    }
                    // Timers always fire on the host that owns the flow's sending side;
                    // receiver-side protocols use distinct flows or tokens.
                    let node = hot.src;
                    let at = at.max(self.now);
                    if self.is_local(node) {
                        self.events.schedule_created(
                            at,
                            created,
                            EventKind::Timer {
                                node,
                                flow,
                                kind,
                                token,
                                gen: hot.timer_gen,
                            },
                        );
                    } else {
                        let to = self.shard_of[node.index()];
                        self.push_msg(to, at, created, MsgBody::SetTimer { flow, kind, token });
                    }
                }
                Action::FlowCompleted(flow) => self.finish_flow(flow, true),
                Action::FlowTerminated(flow) => self.finish_flow(flow, false),
                Action::CancelTimers(flow) => {
                    if let Some(slot) = self.flows.slot_of(flow) {
                        let hot = &mut self.flows.hot[slot as usize];
                        hot.timer_gen = hot.timer_gen.wrapping_add(1);
                    }
                }
                Action::SpawnFlow(spec) => {
                    let arrival = spec.arrival.max(self.now);
                    let spec = FlowSpec { arrival, ..spec };
                    self.add_flow(spec);
                }
            }
        }
        self.actions = actions;
    }

    /// Record a flow completion/termination (first action wins) and settle the
    /// liveness accounting: the home shard decrements its unfinished count directly,
    /// a replica notifies the home shard instead.
    fn finish_flow(&mut self, flow: FlowId, completed: bool) {
        let Some(slot) = self.flows.slot_of(flow) else {
            return;
        };
        let (home, src) = {
            let state = &mut self.flows.slots[slot as usize];
            let rec = &mut state.record;
            if rec.completed_at.is_some() || rec.terminated_at.is_some() {
                return;
            }
            if completed {
                rec.completed_at = Some(self.now);
                rec.bytes_acked = rec.spec.size_bytes;
            } else {
                rec.terminated_at = Some(self.now);
            }
            // Deliberately no timer cancellation here: a finish detected at one node
            // (usually the receiver) must not acausally reach timers armed at another
            // node. Agents suppress their own late timers via status guards and token
            // freshness, which keeps 1-shard and N-shard runs byte-identical.
            (state.home, rec.spec.src)
        };
        if home {
            self.unfinished_flows = self.unfinished_flows.saturating_sub(1);
        } else {
            let to = self.shard_of[src.index()];
            let at = self.now;
            self.push_msg(to, at, at, MsgBody::Finished { flow, completed });
        }
    }
}

/// True if no node occurs twice (paths are a handful of nodes: quadratic is fine).
fn is_simple(nodes: &[NodeId]) -> bool {
    (1..nodes.len()).all(|i| !nodes[..i].contains(&nodes[i]))
}

/// Build the [`FlowInfo`] the engine derives from a routed path: the path bottleneck
/// and NIC rates plus the no-load RTT estimate (one MTU forward, one control packet
/// back, per hop).
fn make_flow_info(
    network: &Network,
    config: &SimConfig,
    spec: FlowSpec,
    path: FlowPath,
) -> FlowInfo {
    let bottleneck = path
        .links
        .iter()
        .map(|&l| network.link(l).rate_bps)
        .fold(f64::INFINITY, f64::min);
    let nic = network.link(path.links[0]).rate_bps;
    let mut base_rtt = SimTime::ZERO;
    for &l in &path.links {
        let link = network.link(l);
        base_rtt +=
            link.transmission_time(MTU_BYTES as u64) + link.prop_delay + config.processing_delay;
        let rev = network.link(link.reverse);
        base_rtt += rev.transmission_time(CONTROL_PACKET_BYTES as u64)
            + rev.prop_delay
            + config.processing_delay;
    }
    FlowInfo {
        spec,
        path: Arc::new(path),
        bottleneck_rate_bps: bottleneck,
        nic_rate_bps: nic,
        base_rtt,
    }
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

    /// Install a controller on a specific link.
    pub fn set_controller(&mut self, link: LinkId, controller: Box<dyn LinkController + Send>) {
        self.core.controllers[link.index()] = Some(controller);
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

    /// Inject a flow; its arrival event fires at `spec.arrival`.
    pub fn add_flow(&mut self, spec: FlowSpec) {
        self.core.add_flow(spec);
    }

    /// Inject many flows.
    pub fn add_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) {
        for s in specs {
            self.add_flow(s);
        }
    }

    /// Current simulated time (mostly useful from tests).
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Mutable access to the configuration (before calling [`Simulator::run`]).
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.core.config
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

    /// 5 000 live flows must stay L2-resident: the hot slab is 24 bytes a flow at most.
    #[test]
    fn hot_flow_state_stays_small() {
        assert!(std::mem::size_of::<FlowHot>() <= 24);
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

            let config = SimConfig::default();
            let spec = FlowSpec::new(7, src, dst, 10_000);
            let info = make_flow_info(&net, &config, spec.clone(), path.clone());
            let mut home = EngineCore::new(net.clone(), config.clone());
            home.flows
                .insert(&net, FlowState::new(spec, Some(info.clone()), true));
            // The replica already holds a flow, so slot and offset differ from home's.
            let mut replica = EngineCore::new(net.clone(), config.clone());
            let decoy = FlowSpec::new(8, dst, src, 10_000);
            let back = FlowPath::new(
                nodes.iter().rev().copied().collect(),
                reverse.iter().map(|&(l, _)| l).collect(),
            );
            let decoy_info = make_flow_info(&net, &config, decoy.clone(), back);
            replica
                .flows
                .insert(&net, FlowState::new(decoy, Some(decoy_info), false));
            replica.ingest(&mut vec![ShardMsg {
                at: SimTime::ZERO,
                sent: SimTime::ZERO,
                src_shard: 0,
                seq: 0,
                body: MsgBody::Register(Box::new(info)),
            }]);
            proptest::prop_assert_ne!(
                home.flows.slot_of(FlowId(7)),
                replica.flows.slot_of(FlowId(7))
            );

            for core in [&home, &replica] {
                let slot = core.flows.slot_of(FlowId(7)).unwrap();
                for (kind, want, end) in [
                    (PacketKind::Data, &forward, dst),
                    (PacketKind::Ack, &reverse, src),
                ] {
                    let mut p = Packet::control(kind, FlowId(7), src, dst);
                    core.flows.stamp(slot, &mut p);
                    for (hop, &links) in want.iter().enumerate() {
                        p.hop = hop;
                        proptest::prop_assert!(p.hop != p.nlinks as usize, "early delivery");
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

    /// An agent exercising the cancellation contract: it arms three timers, cancels
    /// them, arms one more (new generation), and completes the flow on that firing.
    /// A further timer armed for after the completion must still fire — a finish
    /// deliberately does not cancel timers (see the contract on
    /// `Ctx::cancel_flow_timers`), so agents can observe it and ignore it themselves.
    struct CancelProbe {
        fired: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
    }
    impl HostAgent for CancelProbe {
        fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
            let f = flow.spec.id;
            let k = TimerKind::Custom(0);
            ctx.set_timer_after(f, k, SimTime::from_micros(1), 1);
            ctx.set_timer_after(f, k, SimTime::from_micros(2), 2);
            ctx.set_timer_after(f, k, SimTime::from_micros(3), 3);
            ctx.cancel_flow_timers(f);
            // Re-armed after the cancellation: belongs to the new generation.
            ctx.set_timer_after(f, k, SimTime::from_micros(5), 4);
            // Armed for after the completion: fires anyway, and the agent is expected
            // to recognise it as late (real senders guard on their own status).
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
        sim.install_agents(move |_, _| Box::new(CancelProbe { fired: log.clone() }));
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 1000));
        let res = sim.run();
        assert_eq!(
            *fired.lock().unwrap(),
            vec![4, 5],
            "cancelled timers (1,2,3) must not fire; the post-completion timer (5) \
             must (finishes never cancel timers — that would be acausal under sharding)"
        );
        assert_eq!(res.completed_count(), 1);
    }
}
