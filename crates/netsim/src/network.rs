//! Static network description plus per-link runtime state (queues, counters).
//!
//! The network model follows the evaluation setup of the PDQ paper (§5.1, Figure 2):
//! hosts and switches connected by full-duplex links, each direction having its own
//! FIFO tail-drop queue bounded in bytes (default 4 MByte, as in shallow-buffered
//! data-center switches), a line rate (default 1 Gbps) and a propagation delay
//! (default 0.1 µs). A per-hop processing delay (default 25 µs) is charged when a
//! packet is received by a node.

use std::collections::VecDeque;

use crate::ids::{LinkId, NodeId};
use crate::packet::Packet;
use crate::time::SimTime;

/// Default link rate: 1 Gbps (paper §5.1).
pub const DEFAULT_LINK_RATE_BPS: f64 = 1e9;
/// Default switch buffer per output queue: 4 MByte (paper §5.1).
pub const DEFAULT_QUEUE_CAPACITY_BYTES: u64 = 4 * 1024 * 1024;
/// Default per-hop propagation delay: 0.1 µs (paper Figure 2).
pub const DEFAULT_PROP_DELAY: SimTime = SimTime(100);
/// Default per-hop processing delay: 25 µs (paper Figure 2).
pub const DEFAULT_PROCESSING_DELAY: SimTime = SimTime(25_000);

/// Which random stream a link's loss injector draws from.
///
/// The historical default draws from the engine core's own RNG stream. That keeps
/// every run self-deterministic, but the stream is *per shard* (`seed ⊕ shard id`),
/// so outcomes on lossy links depend on the shard count. [`LossStream::PerLink`]
/// instead derives an independent stream from `(seed, link id)` and consumes it in
/// the order packets are handed to that link — an order the deterministic engine
/// reproduces at every shard count, making loss draws shard-count invariant. WAN
/// long-haul links (which cross shard cuts by construction) use it; existing
/// intra-DC topologies keep [`LossStream::Engine`] so their figures are
/// byte-identical to earlier releases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LossStream {
    /// Draw from the owning engine core's stream (`seed ⊕ shard id`).
    #[default]
    Engine,
    /// Draw from a private `(seed, link id)`-derived stream; shard-count invariant.
    PerLink,
}

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

/// A unidirectional link with its egress FIFO tail-drop queue.
#[derive(Clone, Debug)]
pub struct Link {
    /// The link id (equal to its index in [`Network::links`]).
    pub id: LinkId,
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Line rate in bits per second.
    pub rate_bps: f64,
    /// Propagation delay.
    pub prop_delay: SimTime,
    /// Queue capacity in bytes (tail drop beyond this).
    pub queue_capacity_bytes: u64,
    /// Probability in [0,1] that a packet handed to this link is dropped at random
    /// (used for the loss-resilience experiments, Figure 9).
    pub loss_rate: f64,
    /// Which random stream the loss injector draws from.
    pub loss_stream: LossStream,
    /// The id of the link in the opposite direction.
    pub reverse: LinkId,
    /// FIFO egress queue (packets waiting behind the one being serialized).
    pub queue: VecDeque<Packet>,
    /// Bytes currently waiting in `queue`.
    pub queue_bytes: u64,
    /// True while a packet is being serialized onto the wire.
    pub busy: bool,
    /// Serialization time of the packet on the wire (meaningful while `busy`): set
    /// when it starts transmitting, charged to `stats.busy_time` when it is done.
    pub tx_time: SimTime,
    /// Counters.
    pub stats: LinkStats,
}

impl Link {
    /// Time to serialize a packet of `bytes` bytes on this link.
    pub fn transmission_time(&self, bytes: u64) -> SimTime {
        SimTime::transmission_time(bytes, self.rate_bps)
    }

    /// Instantaneous queue occupancy in bytes (excluding the packet on the wire).
    pub fn queue_bytes(&self) -> u64 {
        self.queue_bytes
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
    /// Which random stream the loss injector draws from.
    pub loss_stream: LossStream,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            rate_bps: DEFAULT_LINK_RATE_BPS,
            prop_delay: DEFAULT_PROP_DELAY,
            queue_capacity_bytes: DEFAULT_QUEUE_CAPACITY_BYTES,
            loss_rate: 0.0,
            loss_stream: LossStream::Engine,
        }
    }
}

impl LinkParams {
    /// A link with the given rate and otherwise default parameters.
    pub fn with_rate(rate_bps: f64) -> Self {
        LinkParams {
            rate_bps,
            ..Default::default()
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
        let ba = LinkId(self.links.len() as u32 + 1);
        self.links.push(Link {
            id: ab,
            src: a,
            dst: b,
            rate_bps: params.rate_bps,
            prop_delay: params.prop_delay,
            queue_capacity_bytes: params.queue_capacity_bytes,
            loss_rate: params.loss_rate,
            loss_stream: params.loss_stream,
            reverse: ba,
            queue: VecDeque::new(),
            queue_bytes: 0,
            busy: false,
            tx_time: SimTime::ZERO,
            stats: LinkStats::default(),
        });
        self.links.push(Link {
            id: ba,
            src: b,
            dst: a,
            rate_bps: params.rate_bps,
            prop_delay: params.prop_delay,
            queue_capacity_bytes: params.queue_capacity_bytes,
            loss_rate: params.loss_rate,
            loss_stream: params.loss_stream,
            reverse: ab,
            queue: VecDeque::new(),
            queue_bytes: 0,
            busy: false,
            tx_time: SimTime::ZERO,
            stats: LinkStats::default(),
        });
        self.adjacency[a.index()].push(ab);
        self.adjacency[b.index()].push(ba);
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

    /// Reset all runtime link state (queues, counters) so the same topology can be
    /// reused for another simulation run.
    pub fn reset_runtime_state(&mut self) {
        for l in &mut self.links {
            l.queue.clear();
            l.queue_bytes = 0;
            l.busy = false;
            l.tx_time = SimTime::ZERO;
            l.stats = LinkStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        net.link_mut(LinkId(0)).queue_bytes = 100;
        net.link_mut(LinkId(0)).busy = true;
        net.link_mut(LinkId(0)).stats.tail_drops = 3;
        net.reset_runtime_state();
        assert_eq!(net.link(LinkId(0)).queue_bytes, 0);
        assert!(!net.link(LinkId(0)).busy);
        assert_eq!(net.link(LinkId(0)).stats.tail_drops, 0);
    }
}
