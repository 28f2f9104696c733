//! # pdq-topology
//!
//! Data-center topologies and routing for the PDQ (SIGCOMM 2012) reproduction.
//!
//! The paper evaluates PDQ on:
//!
//! * a **single-bottleneck** topology (Figure 2b) — N senders behind one switch sending
//!   to the same receiver;
//! * a **single-rooted tree** (Figure 2a) — the default 12-server, 4-ToR, 1-root
//!   topology borrowed from the D3 paper;
//! * **Fat-tree** (Al-Fares et al.), **BCube** (Guo et al.) and **Jellyfish**
//!   (Singla et al.) at scale (Figure 8), and BCube again for multipath PDQ
//!   (Figure 11).
//!
//! Beyond the paper, the [`wan`](mod@wan) module builds heterogeneous **inter-datacenter**
//! topologies (2–8 sites, 10–100 ms RTTs, 1–10 Gbps long-hauls, BDP-scaled
//! queues, optional per-link loss) for the high-BDP scenarios where sender
//! pacing matters.
//!
//! Every builder returns a [`Topology`]: the [`pdq_netsim::Network`] plus the list of
//! host nodes and rack labels (used by the Staggered-Probability traffic pattern).
//! Routing is provided by [`EcmpRouter`], a flow-level equal-cost multi-path router
//! that picks a uniformly random shortest path per flow — the paper's assumption for
//! both PDQ and the baselines — and falls back to plain shortest-path routing when a
//! pair has a single path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bcube;
pub mod ecmp;
pub mod fattree;
pub mod jellyfish;
pub mod partition;
pub mod single;
pub mod wan;

pub use bcube::bcube;
pub use ecmp::EcmpRouter;
pub use fattree::fat_tree;
pub use jellyfish::jellyfish;
pub use partition::Partition;
pub use single::{single_bottleneck, single_bottleneck_with_access_loss, single_rooted_tree};
pub use wan::{wan, WanParams};

use std::collections::HashMap;

use pdq_netsim::{Network, NodeId};

/// A built topology: the network, its hosts, and rack membership.
#[derive(Clone, Debug)]
pub struct Topology {
    /// The network (hosts, switches, links).
    pub net: Network,
    /// All host nodes, in a stable order.
    pub hosts: Vec<NodeId>,
    /// Rack (or ToR / pod-edge switch) index of each host; hosts in the same rack are
    /// "local" to each other for the Staggered Prob(p) pattern.
    pub rack_of: HashMap<NodeId, usize>,
    /// Human-readable topology name.
    pub name: String,
}

impl Topology {
    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Hosts in the same rack as `h` (including `h` itself).
    pub fn rack_peers(&self, h: NodeId) -> Vec<NodeId> {
        let rack = self.rack_of[&h];
        self.hosts
            .iter()
            .copied()
            .filter(|x| self.rack_of[x] == rack)
            .collect()
    }

    /// Hosts in a different rack from `h`.
    pub fn other_rack_hosts(&self, h: NodeId) -> Vec<NodeId> {
        let rack = self.rack_of[&h];
        self.hosts
            .iter()
            .copied()
            .filter(|x| self.rack_of[x] != rack)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_netsim::LinkParams;

    #[test]
    fn rack_helpers() {
        let t = single_rooted_tree(2, 3, LinkParams::default(), LinkParams::default());
        assert_eq!(t.host_count(), 6);
        let h = t.hosts[0];
        let peers = t.rack_peers(h);
        assert_eq!(peers.len(), 3);
        assert!(peers.contains(&h));
        let others = t.other_rack_hosts(h);
        assert_eq!(others.len(), 3);
        for o in others {
            assert_ne!(t.rack_of[&o], t.rack_of[&h]);
        }
    }
}
