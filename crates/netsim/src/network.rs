//! Static network description plus per-link runtime state (queues, counters).
//!
//! The network model follows the evaluation setup of the PDQ paper (§5.1, Figure 2):
//! hosts and switches connected by full-duplex links, each direction having its own
//! FIFO tail-drop queue bounded in bytes (default 4 MByte, as in shallow-buffered
//! data-center switches), a line rate (default 1 Gbps) and a propagation delay
//! (default 0.1 µs). A per-hop processing delay (default 25 µs) is charged when a
//! packet is received by a node.
//!
//! # Links are departure ledgers plus arrival FIFOs
//!
//! A FIFO server needs no event of its own: packet *k* leaves at
//! `max(arrival_k, departure_{k-1}) + tx_k`, known the moment the packet is accepted.
//! So a [`Link`] stores no packets and runs no transmit-completion events. It keeps
//! one small ledger entry per accepted packet — when its serialization starts and
//! ends, and its wire size — and the packet's arrival at the next node is known right
//! away. Occupancy and counters stay exact because the engine *settles* a link
//! (`Network::settle`) before looking at it: every entry whose virtual
//! [`EventKind::TransmitDone`](crate::event::EventKind::TransmitDone) event — the one
//! an explicit link server would have scheduled — orders before the event being
//! dispatched is retired, bytes and busy time credited, exactly as if that event had
//! popped.
//!
//! Past its FIFO a link is a delay line: its packets arrive in the order it accepted
//! them, a fixed latency after they leave. So the engine keeps each link's packets in
//! flight on an arrival FIFO of its own, threaded through their slots in the engine's
//! in-flight slab, and only the first of them has its arrival in the event queue (see
//! the `engine` module).
//!
//! The entries of all links live in one slab per [`Network`], hence one per engine
//! core: each link's FIFO is a chain through it (the link holds only its head and
//! tail indices), and a retired entry is reused by the next packet accepted on any
//! link. A queued packet costs one 24-byte entry, and the
//! slab is as long as the most departures queued at once on the core
//! ([`Network::ledger_high_water`]) — not, as with a buffer per link, the sum of each
//! link's own peak, which grows with links × history.
//!
//! # Random loss
//!
//! A link with a nonzero [`Link::loss_rate`] drops each packet handed to it with that
//! probability, drawing from a stream of its own derived from `(seed, link id)` in the
//! order packets reach it — an order the engine reproduces at every shard count, so
//! lossy runs are shard-count invariant.

use std::collections::VecDeque;

use crate::event::EventKey;
use crate::ids::{LinkId, NodeId};
use crate::packet::CONTROL_PACKET_BYTES;
use crate::time::SimTime;

/// Default link rate: 1 Gbps (paper §5.1).
pub const DEFAULT_LINK_RATE_BPS: f64 = 1e9;
/// Default switch buffer per output queue: 4 MByte (paper §5.1).
pub const DEFAULT_QUEUE_CAPACITY_BYTES: u64 = 4 * 1024 * 1024;
/// Default per-hop propagation delay: 0.1 µs (paper Figure 2).
pub const DEFAULT_PROP_DELAY: SimTime = SimTime(100);
/// Default per-hop processing delay: 25 µs (paper Figure 2).
pub const DEFAULT_PROCESSING_DELAY: SimTime = SimTime(25_000);

/// Whether a node is an end host or a switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// End host: runs a transport agent, terminates flows.
    Host,
    /// Switch: forwards packets; its egress links may run a [`crate::LinkController`].
    Switch,
}

/// A node in the network.
#[derive(Clone, Debug)]
pub struct Node {
    /// The node id (equal to its index in [`Network::nodes`]).
    pub id: NodeId,
    /// Host or switch.
    pub kind: NodeKind,
    /// Human-readable name for traces and errors.
    pub name: String,
}

/// Counters accumulated per unidirectional link.
#[derive(Clone, Debug, Default)]
pub struct LinkStats {
    /// Wire bytes fully serialized onto the link.
    pub bytes_transmitted: u64,
    /// Packets fully serialized onto the link.
    pub packets_transmitted: u64,
    /// Packets dropped because the queue was full (tail drop).
    pub tail_drops: u64,
    /// Packets dropped by the random-loss injector.
    pub random_drops: u64,
    /// Total time the link spent transmitting.
    pub busy_time: SimTime,
    /// Largest queue occupancy observed, in bytes.
    pub max_queue_bytes: u64,
}

/// One accepted packet in a link's ledger: an entry of its core's [`LedgerSlab`],
/// chained to the link's next accepted packet.
#[derive(Clone, Copy, Debug)]
struct Departure {
    /// When the packet's last bit leaves the link.
    depart: SimTime,
    /// When its serialization starts: the instant it was accepted on an idle link,
    /// the previous packet's departure on a busy one. This is also when an explicit
    /// link server would have scheduled the packet's transmit-done event.
    start: SimTime,
    /// Wire bytes.
    wire: u32,
    /// The slab index of the link's next accepted packet ([`NIL`] for the last one),
    /// or of the next free entry once this one is retired.
    next: u32,
}

/// The end of a ledger chain or of the free list.
const NIL: u32 = u32::MAX;

/// Every link's departure ledger on one core: FIFOs chained through one slab, so a
/// queued packet costs one 24-byte entry wherever it is queued and the slab is as
/// long as the most departures queued at once, not the sum of each link's own peak.
/// A retired entry goes onto a LIFO free list, threaded through `next`, and the next
/// accept reuses it.
#[derive(Clone, Debug)]
struct LedgerSlab {
    entries: Vec<Departure>,
    /// Head of the free list.
    free: u32,
}

impl Default for LedgerSlab {
    fn default() -> Self {
        LedgerSlab {
            entries: Vec::new(),
            free: NIL,
        }
    }
}

impl LedgerSlab {
    /// Store `d` in a free entry, or a new one when none is free.
    fn alloc(&mut self, d: Departure) -> u32 {
        if self.free == NIL {
            self.entries.push(d);
            return (self.entries.len() - 1) as u32;
        }
        let i = self.free;
        self.free = self.entries[i as usize].next;
        self.entries[i as usize] = d;
        i
    }

    /// Put entry `i` on the free list.
    fn release(&mut self, i: u32) {
        self.entries[i as usize].next = self.free;
        self.free = i;
    }

    /// The chain starting at `head`, oldest first.
    fn chain(&self, head: u32) -> impl Iterator<Item = (u32, &Departure)> {
        std::iter::successors((head != NIL).then_some(head), |&i| {
            let next = self.entries[i as usize].next;
            (next != NIL).then_some(next)
        })
        .map(|i| (i, &self.entries[i as usize]))
    }
}

/// A unidirectional link with its egress FIFO tail-drop queue.
#[derive(Clone, Debug)]
pub struct Link {
    /// The link id (equal to its index in [`Network::links`]).
    pub id: LinkId,
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Line rate in bits per second. Fixed once the link has carried a packet: it
    /// remembers serialization times (until [`Network::reset_runtime_state`]).
    pub rate_bps: f64,
    /// Propagation delay.
    pub prop_delay: SimTime,
    /// Queue capacity in bytes (tail drop beyond this).
    pub queue_capacity_bytes: u64,
    /// Probability in `[0, 1]` that a packet handed to this link is dropped at random
    /// (used for the loss-resilience experiments, Figure 9), from a stream of the
    /// link's own ([random loss](crate::network#random-loss)).
    pub loss_rate: f64,
    /// The id of the link in the opposite direction.
    pub reverse: LinkId,
    /// Bytes the link has accepted and not finished serializing: the packets waiting
    /// in the FIFO *and* the one on the wire, which counts until its last bit has
    /// left. See [`Link::queue_bytes`].
    pub queue_bytes: u64,
    /// The FIFO in the core's [`LedgerSlab`], oldest first: one entry per packet
    /// counted in `queue_bytes`. [`NIL`] when empty; `tail` is then stale.
    head: u32,
    tail: u32,
    /// `(wire size, serialization time)` of the last control-size packet accepted and
    /// of the last packet of any other size (`(0, ZERO)` is exact before the first).
    tx_memo: [(u32, SimTime); 2],
    /// Counters.
    pub stats: LinkStats,
}

impl Link {
    /// Time to serialize a packet of `bytes` bytes on this link.
    pub fn transmission_time(&self, bytes: u64) -> SimTime {
        SimTime::transmission_time(bytes, self.rate_bps)
    }

    /// Instantaneous queue occupancy in bytes, **including** the packet on the wire
    /// (it counts until it is fully serialized). This is what the tail-drop check
    /// compares with the capacity and what the PDQ, RCP and D3 rate controllers drain.
    ///
    /// The engine settles a link — retires every packet whose serialization has
    /// completed by the event being dispatched — before each [`crate::LinkController`]
    /// callback that is handed the link and before a trace sample reads it, so the
    /// value is current wherever it can be observed during a run.
    pub fn queue_bytes(&self) -> u64 {
        self.queue_bytes
    }

    /// [`Link::transmission_time`] of a `wire`-byte packet, remembered for the last
    /// control-size packet and the last packet of any other size: nearly every packet
    /// is an ACK/probe or a full MTU, and the exact value costs an `f64` divide and a
    /// `round`.
    fn memoised_transmission_time(&mut self, wire: u32) -> SimTime {
        let memo = &mut self.tx_memo[(wire != CONTROL_PACKET_BYTES) as usize];
        if memo.0 != wire {
            *memo = (wire, SimTime::transmission_time(wire as u64, self.rate_bps));
        }
        debug_assert_eq!(
            memo.1,
            SimTime::transmission_time(wire as u64, self.rate_bps),
            "{:?}: rate changed under the serialization-time memo",
            self.id
        );
        memo.1
    }

    /// Debug builds: the ledger chain accounts for exactly the queued bytes, within
    /// capacity, and ends at `tail`.
    fn debug_check(&self, slab: &LedgerSlab) {
        if !cfg!(debug_assertions) {
            return;
        }
        let (mut bytes, mut last) = (0, NIL);
        for (i, d) in slab.chain(self.head) {
            bytes += d.wire as u64;
            last = i;
        }
        assert_eq!(
            self.queue_bytes, bytes,
            "{:?}: queue_bytes out of step with the ledger",
            self.id
        );
        assert!(
            self.head == NIL || last == self.tail,
            "{:?}: the ledger chain ends at {last}, not at its tail {}",
            self.id,
            self.tail
        );
        assert!(
            self.queue_bytes <= self.queue_capacity_bytes,
            "{:?}: {} bytes queued, capacity {}",
            self.id,
            self.queue_bytes,
            self.queue_capacity_bytes
        );
    }
}

/// Parameters for creating a duplex link.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// Line rate in bits per second.
    pub rate_bps: f64,
    /// Propagation delay.
    pub prop_delay: SimTime,
    /// Queue capacity in bytes.
    pub queue_capacity_bytes: u64,
    /// Random loss probability.
    pub loss_rate: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            rate_bps: DEFAULT_LINK_RATE_BPS,
            prop_delay: DEFAULT_PROP_DELAY,
            queue_capacity_bytes: DEFAULT_QUEUE_CAPACITY_BYTES,
            loss_rate: 0.0,
        }
    }
}

/// The static topology plus per-link runtime state.
#[derive(Clone, Debug, Default)]
pub struct Network {
    /// All nodes, indexed by [`NodeId`].
    pub nodes: Vec<Node>,
    /// All unidirectional links, indexed by [`LinkId`].
    pub links: Vec<Link>,
    /// Outgoing links of each node.
    adjacency: Vec<Vec<LinkId>>,
    /// Every link's departure ledger.
    ledgers: LedgerSlab,
}

impl Network {
    /// Create an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Add a host node.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Host, name)
    }

    /// Add a switch node.
    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Switch, name)
    }

    fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            kind,
            name: name.into(),
        });
        self.adjacency.push(Vec::new());
        id
    }

    /// Add a full-duplex link between `a` and `b`; returns the two unidirectional link
    /// ids `(a -> b, b -> a)`.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        params: LinkParams,
    ) -> (LinkId, LinkId) {
        assert!(a.index() < self.nodes.len(), "unknown node {a:?}");
        assert!(b.index() < self.nodes.len(), "unknown node {b:?}");
        assert_ne!(a, b, "self-loop links are not allowed");
        let ab = LinkId(self.links.len() as u32);
        let ba = LinkId(ab.0 + 1);
        for (id, src, dst, reverse) in [(ab, a, b, ba), (ba, b, a, ab)] {
            self.links.push(Link {
                id,
                src,
                dst,
                rate_bps: params.rate_bps,
                prop_delay: params.prop_delay,
                queue_capacity_bytes: params.queue_capacity_bytes,
                loss_rate: params.loss_rate,
                reverse,
                queue_bytes: 0,
                head: NIL,
                tail: NIL,
                tx_memo: [(0, SimTime::ZERO); 2],
                stats: LinkStats::default(),
            });
            self.adjacency[src.index()].push(id);
        }
        (ab, ba)
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Link accessor.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Mutable link accessor.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.index()]
    }

    /// The reverse-direction link of `id`.
    pub fn reverse(&self, id: LinkId) -> LinkId {
        self.links[id.index()].reverse
    }

    /// Outgoing links of a node.
    pub fn outgoing(&self, node: NodeId) -> &[LinkId] {
        &self.adjacency[node.index()]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of unidirectional links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All host node ids, in creation order.
    pub fn hosts(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Host)
            .map(|n| n.id)
            .collect()
    }

    /// All switch node ids, in creation order.
    pub fn switches(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Switch)
            .map(|n| n.id)
            .collect()
    }

    /// Breadth-first shortest path (in hops) from `src` to `dst`.
    /// Returns the node sequence and link sequence, or `None` if unreachable.
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<crate::flow::FlowPath> {
        if src == dst {
            return None;
        }
        let n = self.nodes.len();
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        visited[src.index()] = true;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            if u == dst {
                break;
            }
            for &l in &self.adjacency[u.index()] {
                let v = self.links[l.index()].dst;
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    prev[v.index()] = Some((u, l));
                    queue.push_back(v);
                }
            }
        }
        if !visited[dst.index()] {
            return None;
        }
        let mut nodes = vec![dst];
        let mut links = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (p, l) = prev[cur.index()].unwrap();
            nodes.push(p);
            links.push(l);
            cur = p;
        }
        nodes.reverse();
        links.reverse();
        Some(crate::flow::FlowPath::new(nodes, links))
    }

    /// Retire every departure of `link` whose virtual transmit-done event orders
    /// before `bound` (the key of the event being dispatched, or the point a finished
    /// run stopped at), crediting its bytes and serialization time to the counters.
    pub(crate) fn settle(&mut self, link: LinkId, bound: EventKey) {
        let (l, slab) = (&mut self.links[link.index()], &mut self.ledgers);
        while l.head != NIL {
            let d = slab.entries[l.head as usize];
            if EventKey::transmit_done(d.depart, d.start, l.id) >= bound {
                break;
            }
            l.queue_bytes -= d.wire as u64;
            l.stats.bytes_transmitted += d.wire as u64;
            l.stats.packets_transmitted += 1;
            l.stats.busy_time += d.depart - d.start;
            slab.release(l.head);
            l.head = d.next;
        }
        l.debug_check(slab);
    }

    /// Offer a packet of `wire` bytes to `link` during the event with key `now`,
    /// which the caller has [settled](Network::settle) the link against — the engine
    /// settles each link an event touches once, for the controller callback and this
    /// alike. Returns when the packet's last bit leaves — it starts serializing at
    /// once on an idle link, behind the last accepted packet otherwise — or `None`,
    /// counting a tail drop, if the queue has no room for it.
    pub(crate) fn accept(&mut self, link: LinkId, now: EventKey, wire: u32) -> Option<SimTime> {
        let (l, slab) = (&mut self.links[link.index()], &mut self.ledgers);
        debug_assert!(
            l.head == NIL || {
                let d = &slab.entries[l.head as usize];
                EventKey::transmit_done(d.depart, d.start, l.id) >= now
            },
            "{:?}: accept on a link not settled against {now:?}",
            l.id
        );
        if l.queue_bytes + wire as u64 > l.queue_capacity_bytes {
            l.stats.tail_drops += 1;
            return None;
        }
        // A departure that `settle` left behind has not happened yet in event order,
        // even if its time is `now.at`: the link is still busy with it.
        let start = if l.head == NIL {
            now.at
        } else {
            slab.entries[l.tail as usize].depart
        };
        let tx = l.memoised_transmission_time(wire);
        let depart = start + tx;
        debug_assert!(
            start >= now.at && (depart > start || tx == SimTime::ZERO),
            "{:?}: departure {depart:?} does not follow {start:?} at {:?}",
            l.id,
            now.at
        );
        let i = slab.alloc(Departure {
            depart,
            start,
            wire,
            next: NIL,
        });
        if l.head == NIL {
            l.head = i;
        } else {
            slab.entries[l.tail as usize].next = i;
        }
        l.tail = i;
        l.queue_bytes += wire as u64;
        l.stats.max_queue_bytes = l.stats.max_queue_bytes.max(l.queue_bytes);
        l.debug_check(slab);
        Some(depart)
    }

    /// The most departures queued at once on all links together since the last
    /// [`Network::reset_runtime_state`]: the length of the ledger slab.
    pub fn ledger_high_water(&self) -> u64 {
        self.ledgers.entries.len() as u64
    }

    /// Reset all runtime link state (queues, counters) so the same topology can be
    /// reused for another simulation run.
    pub fn reset_runtime_state(&mut self) {
        self.ledgers.entries.clear();
        self.ledgers.free = NIL;
        for l in &mut self.links {
            (l.head, l.tail) = (NIL, NIL);
            l.tx_memo = [(0, SimTime::ZERO); 2];
            l.queue_bytes = 0;
            l.stats = LinkStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the engine does per hop: settle the link against the event, then offer.
    fn offer(net: &mut Network, link: LinkId, now: EventKey, wire: u32) -> Option<SimTime> {
        net.settle(link, now);
        net.accept(link, now, wire)
    }

    fn line_network() -> (Network, Vec<NodeId>) {
        // h0 - s0 - s1 - h1
        let mut net = Network::new();
        let h0 = net.add_host("h0");
        let s0 = net.add_switch("s0");
        let s1 = net.add_switch("s1");
        let h1 = net.add_host("h1");
        net.add_duplex_link(h0, s0, LinkParams::default());
        net.add_duplex_link(s0, s1, LinkParams::default());
        net.add_duplex_link(s1, h1, LinkParams::default());
        (net, vec![h0, s0, s1, h1])
    }

    #[test]
    fn duplex_links_are_paired() {
        let (net, n) = line_network();
        assert_eq!(net.link_count(), 6);
        for l in &net.links {
            let r = net.link(l.reverse);
            assert_eq!(r.src, l.dst);
            assert_eq!(r.dst, l.src);
            assert_eq!(net.reverse(r.id), l.id);
        }
        assert_eq!(net.hosts(), vec![n[0], n[3]]);
        assert_eq!(net.switches(), vec![n[1], n[2]]);
    }

    #[test]
    fn shortest_path_on_line() {
        let (net, n) = line_network();
        let p = net.shortest_path(n[0], n[3]).unwrap();
        assert_eq!(p.nodes, vec![n[0], n[1], n[2], n[3]]);
        assert_eq!(p.hops(), 3);
        // Each link on the path must connect consecutive nodes.
        for (i, &l) in p.links.iter().enumerate() {
            assert_eq!(net.link(l).src, p.nodes[i]);
            assert_eq!(net.link(l).dst, p.nodes[i + 1]);
        }
    }

    #[test]
    fn shortest_path_unreachable_and_self() {
        let mut net = Network::new();
        let a = net.add_host("a");
        let b = net.add_host("b");
        assert!(net.shortest_path(a, b).is_none());
        assert!(net.shortest_path(a, a).is_none());
    }

    #[test]
    fn default_parameters_match_paper() {
        let p = LinkParams::default();
        assert_eq!(p.rate_bps, 1e9);
        assert_eq!(p.queue_capacity_bytes, 4 * 1024 * 1024);
        assert_eq!(p.prop_delay.as_nanos(), 100);
        assert_eq!(DEFAULT_PROCESSING_DELAY.as_micros_f64(), 25.0);
    }

    #[test]
    fn transmission_time_uses_link_rate() {
        let (net, _) = line_network();
        let l = net.link(LinkId(0));
        assert_eq!(l.transmission_time(1500).as_nanos(), 12_000);
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let mut net = Network::new();
        let a = net.add_host("a");
        net.add_duplex_link(a, a, LinkParams::default());
    }

    #[test]
    fn reset_clears_runtime_state() {
        let (mut net, _) = line_network();
        let l0 = LinkId(0);
        assert!(offer(&mut net, l0, EventKey::start_of(SimTime::ZERO), 1500).is_some());
        net.link_mut(l0).stats.tail_drops = 3;
        net.reset_runtime_state();
        let link = net.link(l0);
        assert_eq!(link.queue_bytes, 0);
        assert_eq!(link.head, NIL);
        assert_eq!(link.stats.tail_drops, 0);
        assert_eq!(net.ledger_high_water(), 0);
        // Idle again: the next packet starts serializing the moment it is accepted.
        let at = SimTime::from_micros(1);
        let tx = link.transmission_time(1500);
        assert_eq!(
            offer(&mut net, l0, EventKey::start_of(at), 1500),
            Some(at + tx)
        );
    }

    /// The memo returns what `transmission_time` returns, whatever sizes alternate.
    #[test]
    fn memoised_serialization_times_are_the_exact_ones() {
        let (mut net, _) = line_network();
        let l0 = LinkId(0);
        net.link_mut(l0).queue_capacity_bytes = u64::MAX;
        let mut start = SimTime::ZERO;
        for wire in [56, 1500, 1500, 56, 700, 56, 1500, 700, 701, 56, 0] {
            let depart = offer(&mut net, l0, EventKey::start_of(SimTime::ZERO), wire).unwrap();
            assert_eq!(
                depart - start,
                net.link(l0).transmission_time(wire as u64),
                "{wire}"
            );
            start = depart;
        }
    }

    #[test]
    fn ledger_retires_departures_in_event_key_order() {
        let (mut net, _) = line_network();
        let l0 = LinkId(0);
        let us = SimTime::from_micros;
        // Two back-to-back MTUs accepted at t = 0: departures at 12 and 24 µs.
        assert_eq!(
            offer(&mut net, l0, EventKey::start_of(us(0)), 1500),
            Some(us(12))
        );
        assert_eq!(
            offer(&mut net, l0, EventKey::start_of(us(0)), 1500),
            Some(us(24))
        );
        assert_eq!(net.link(l0).queue_bytes(), 3000);
        // A packet arrival (class 1) at the instant of the first departure still
        // sees it queued; a timer (class 3) created no earlier than it sees it gone.
        let at_12 = |class, created| EventKey {
            class,
            created,
            ..EventKey::start_of(us(12))
        };
        net.settle(l0, at_12(1, us(0)));
        assert_eq!(net.link(l0).queue_bytes(), 3000);
        net.settle(l0, at_12(3, us(0)));
        assert_eq!(net.link(l0).queue_bytes(), 1500);
        // The second departure was "scheduled" at 12 µs: an event at 24 µs created
        // before that goes first whatever its class.
        let at_24 = |class, created| EventKey {
            class,
            created,
            ..EventKey::start_of(us(24))
        };
        net.settle(l0, at_24(3, us(11)));
        assert_eq!(net.link(l0).queue_bytes(), 1500);
        // Still busy at the very instant its last departure is due: the next packet
        // queues behind it.
        assert_eq!(offer(&mut net, l0, at_24(3, us(11)), 1500), Some(us(36)));
        net.settle(l0, EventKey::start_of(SimTime::MAX));
        let link = net.link(l0);
        assert_eq!(link.queue_bytes(), 0);
        assert_eq!(link.stats.packets_transmitted, 3);
        assert_eq!(link.stats.bytes_transmitted, 4500);
        assert_eq!(link.stats.busy_time, us(36));
        assert_eq!(link.stats.max_queue_bytes, 3000);
    }

    #[test]
    fn departures_and_links_stay_small() {
        assert_eq!(std::mem::size_of::<Departure>(), 24);
        assert!(
            std::mem::size_of::<Link>() <= 144,
            "{}",
            std::mem::size_of::<Link>()
        );
    }

    /// A link's ledger as it was before the shared slab — a buffer of its own — the
    /// model the slab answers to.
    struct ModelLink {
        id: LinkId,
        capacity: u64,
        rate_bps: f64,
        /// `(depart, start, wire)`, oldest first.
        ledger: VecDeque<(SimTime, SimTime, u32)>,
        queue_bytes: u64,
        stats: LinkStats,
    }

    impl ModelLink {
        fn settle(&mut self, bound: EventKey) {
            while let Some(&(depart, start, wire)) = self.ledger.front() {
                if EventKey::transmit_done(depart, start, self.id) >= bound {
                    break;
                }
                self.queue_bytes -= wire as u64;
                self.stats.bytes_transmitted += wire as u64;
                self.stats.packets_transmitted += 1;
                self.stats.busy_time += depart - start;
                self.ledger.pop_front();
            }
        }

        fn accept(&mut self, now: EventKey, wire: u32) -> Option<SimTime> {
            if self.queue_bytes + wire as u64 > self.capacity {
                self.stats.tail_drops += 1;
                return None;
            }
            let start = self.ledger.back().map_or(now.at, |d| d.0);
            let depart = start + SimTime::transmission_time(wire as u64, self.rate_bps);
            self.ledger.push_back((depart, start, wire));
            self.queue_bytes += wire as u64;
            self.stats.max_queue_bytes = self.stats.max_queue_bytes.max(self.queue_bytes);
            Some(depart)
        }
    }

    fn stats_row(s: &LinkStats) -> (u64, u64, u64, u64, SimTime, u64) {
        (
            s.bytes_transmitted,
            s.packets_transmitted,
            s.tail_drops,
            s.random_drops,
            s.busy_time,
            s.max_queue_bytes,
        )
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleaved settles and accepts on four links of one network, at
        /// event keys in dispatch order on a grid every serialization time is a
        /// multiple of (so arrivals land on departures), with now and then a reset:
        /// the shared slab gives the same departures, tail drops, occupancy and
        /// counters as a buffer per link, and is never longer than the most
        /// departures queued at once.
        #[test]
        fn shared_slab_matches_a_ledger_per_link(
            ops in prop::collection::vec(((0u64..3_000, 0u64..3, 0u8..4), (0usize..4, 0u8..16)), 1..200),
        ) {
            let (mut net, _) = line_network();
            net.links.truncate(4);
            let capacities = [4_000, 6_000, 3_000, u64::MAX];
            let rates = [1e9, 1e9, 10e9, 1e9];
            let mut model: Vec<ModelLink> = (0..4)
                .map(|i| {
                    let link = net.link_mut(LinkId(i as u32));
                    (link.queue_capacity_bytes, link.rate_bps) = (capacities[i], rates[i]);
                    ModelLink {
                        id: link.id,
                        capacity: capacities[i],
                        rate_bps: rates[i],
                        ledger: VecDeque::new(),
                        queue_bytes: 0,
                        stats: LinkStats::default(),
                    }
                })
                .collect();
            // Dispatch order: `(at, created, class)` never goes back.
            let mut ops: Vec<_> = ops
                .into_iter()
                .map(|((at, back, class), op)| {
                    let at = 32 * at;
                    ((at, at.saturating_sub(back * 448), class), op)
                })
                .collect();
            ops.sort_by_key(|&(key, _)| key);
            let mut peak = 0;
            for ((at, created, class), (l, op)) in ops {
                let key = EventKey {
                    at: SimTime::from_nanos(at),
                    created: SimTime::from_nanos(created),
                    class,
                    ..EventKey::start_of(SimTime::ZERO)
                };
                let id = LinkId(l as u32);
                match op {
                    0..=9 => {
                        let wire = [56, 1500, 500, 1000, 56][op as usize % 5];
                        model[l].settle(key);
                        prop_assert_eq!(offer(&mut net, id, key, wire), model[l].accept(key, wire));
                    }
                    10..=14 => {
                        net.settle(id, key);
                        model[l].settle(key);
                    }
                    _ => {
                        net.reset_runtime_state();
                        for m in &mut model {
                            m.ledger.clear();
                            (m.queue_bytes, m.stats) = (0, LinkStats::default());
                        }
                        peak = 0;
                    }
                }
                peak = peak.max(model.iter().map(|m| m.ledger.len() as u64).sum::<u64>());
                for m in &model {
                    let link = net.link(m.id);
                    prop_assert_eq!(link.queue_bytes(), m.queue_bytes);
                    prop_assert_eq!(stats_row(&link.stats), stats_row(&m.stats));
                }
                prop_assert_eq!(net.ledger_high_water(), peak);
            }
            // Drained, every entry is back on the free list.
            for m in &mut model {
                net.settle(m.id, EventKey::start_of(SimTime::MAX));
                m.settle(EventKey::start_of(SimTime::MAX));
                prop_assert_eq!(stats_row(&net.link(m.id).stats), stats_row(&m.stats));
                prop_assert_eq!(net.link(m.id).queue_bytes(), 0);
            }
            prop_assert_eq!(net.ledgers.chain(net.ledgers.free).count() as u64, peak);
        }
    }
}
