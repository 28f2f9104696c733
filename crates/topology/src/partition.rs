//! Partitioning a topology into shards for the parallel engine.
//!
//! A [`Partition`] assigns every node of a network to exactly one shard, for
//! [`pdq_netsim::Simulator::run_sharded`]. [`Partition::of_topology`] builds one from
//! the topology's racks, on every topology the crate builds (jellyfish and WAN meshes
//! included): whole racks are kept together and distributed as contiguous blocks (for
//! a fat-tree this groups pods, for BCube it groups sub-cubes, since both number their
//! racks in construction order), then every switch joins the shard of the nearest host
//! block by multi-source BFS. This keeps the dense intra-rack/intra-pod traffic
//! shard-local and leaves only the sparse aggregation/core layers on boundaries.
//!
//! The conservative lookahead of the resulting cut is [`Partition::lookahead`]: the
//! minimum propagation delay over links whose endpoints land on different shards
//! (the engine adds its per-hop processing delay on top). [`Partition::to_assignment`]
//! packages both into the [`ShardAssignment`] consumed by the engine.

use std::collections::VecDeque;

use pdq_netsim::{Network, NodeId, ShardAssignment, SimTime};

use crate::Topology;

/// A node → shard map over a specific network.
#[derive(Clone, Debug)]
pub struct Partition {
    shard_of: Vec<u32>,
    shards: u32,
}

impl Partition {
    /// Structure-aware partition of a built [`Topology`] into at most `shards` shards.
    ///
    /// Racks (in rack-index order) are split into `shards` contiguous blocks of
    /// near-equal host count; each host joins its rack's shard and each switch joins
    /// the shard of the nearest host (multi-source BFS, deterministic tie-break by
    /// visit order). The effective shard count is capped at the number of racks, so
    /// a rack is never split; [`Partition::shards`] reports the cap.
    pub fn of_topology(topo: &Topology, shards: u32) -> Partition {
        let n_racks = topo
            .rack_of
            .values()
            .copied()
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let shards = (shards.max(1) as usize).min(n_racks.max(1)) as u32;
        if shards <= 1 {
            return Partition {
                shard_of: vec![0; topo.net.node_count()],
                shards: 1,
            };
        }
        // Contiguous rack blocks: rack r -> shard r * shards / n_racks. Rack indices
        // are assigned in construction order by every builder, so neighbouring racks
        // (same pod / same sub-cube) land on the same shard.
        let rack_shard = |rack: usize| -> u32 { (rack * shards as usize / n_racks) as u32 };
        let n = topo.net.node_count();
        let mut shard_of: Vec<Option<u32>> = vec![None; n];
        let mut queue = VecDeque::new();
        for &h in &topo.hosts {
            let s = rack_shard(topo.rack_of[&h]);
            shard_of[h.index()] = Some(s);
            queue.push_back(h);
        }
        // Multi-source BFS: every remaining node (switches; hosts are all seeds)
        // takes the shard of the nearest seed, ties broken by queue order — fully
        // deterministic for a fixed topology.
        while let Some(u) = queue.pop_front() {
            let s = shard_of[u.index()].expect("queued nodes are labelled");
            for &l in topo.net.outgoing(u) {
                let v = topo.net.link(l).dst;
                if shard_of[v.index()].is_none() {
                    shard_of[v.index()] = Some(s);
                    queue.push_back(v);
                }
            }
        }
        // Nodes unreachable from any host (none in practice): shard 0.
        let shard_of = shard_of.into_iter().map(|s| s.unwrap_or(0)).collect();
        Partition { shard_of, shards }
    }

    /// Effective number of shards (may be lower than requested).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> u32 {
        self.shard_of[node.index()]
    }

    /// The conservative lookahead this cut guarantees: the minimum propagation delay
    /// over cross-shard links, or [`SimTime::MAX`] if no link crosses a boundary.
    pub fn lookahead(&self, net: &Network) -> SimTime {
        net.links
            .iter()
            .filter(|l| self.shard_of[l.src.index()] != self.shard_of[l.dst.index()])
            .map(|l| l.prop_delay)
            .min()
            .unwrap_or(SimTime::MAX)
    }

    /// Package the partition as the engine's [`ShardAssignment`].
    pub fn to_assignment(&self, net: &Network) -> ShardAssignment {
        ShardAssignment::new(self.shard_of.clone(), self.shards, self.lookahead(net))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jellyfish::jellyfish_paper_config;
    use crate::{bcube, fat_tree, single_rooted_tree};
    use pdq_netsim::LinkParams;
    use proptest::{prop_assert, prop_assert_eq, proptest};

    fn check_partition(p: &Partition, net: &Network, requested: u32) {
        // Every node is assigned to exactly one shard, within the shard count.
        assert_eq!(p.shard_of.len(), net.node_count());
        assert!(p.shards >= 1 && p.shards <= requested.max(1));
        for node in 0..net.node_count() {
            assert!(p.shard_of[node] < p.shards, "node {node} out of range");
        }
        // Every shard id below the effective count is actually used (no thread ever
        // spins on an empty core).
        let mut used = vec![false; p.shards as usize];
        for &s in &p.shard_of {
            used[s as usize] = true;
        }
        assert!(used.iter().all(|&u| u), "an effective shard owns no node");
        // Every cross-shard link is at least as slow as the reported lookahead.
        let horizon = p.lookahead(net);
        for l in &net.links {
            if p.shard_of[l.src.index()] != p.shard_of[l.dst.index()] {
                assert!(
                    l.prop_delay >= horizon,
                    "cross-shard link {:?} beats the lookahead",
                    l.id
                );
            }
        }
        // The assignment round-trips into the engine's type.
        let a = p.to_assignment(net);
        assert_eq!(a.shards(), p.shards);
        assert_eq!(a.lookahead(), horizon);
        for node in 0..net.node_count() {
            assert_eq!(a.shard_of(NodeId(node as u32)), p.shard_of[node]);
        }
    }

    #[test]
    fn fat_tree_partition_keeps_pods_together() {
        let topo = fat_tree(4, LinkParams::default());
        // k=4 fat-tree: 4 pods, 8 racks (2 per pod), 16 hosts.
        let p = Partition::of_topology(&topo, 4);
        assert_eq!(p.shards(), 4);
        check_partition(&p, &topo.net, 4);
        // Both racks of a pod map to the same shard (8 racks / 4 shards = pod blocks).
        for hosts in topo.hosts.chunks(4) {
            let s0 = p.shard_of(hosts[0]);
            assert!(hosts.iter().all(|&h| p.shard_of(h) == s0), "pod split");
        }
    }

    #[test]
    fn shard_count_is_capped_at_rack_count() {
        let topo = single_rooted_tree(4, 3, LinkParams::default(), LinkParams::default());
        // 4 ToRs -> at most 4 shards, however many were requested.
        let p = Partition::of_topology(&topo, 64);
        assert_eq!(p.shards(), 4);
        check_partition(&p, &topo.net, 64);
    }

    #[test]
    fn single_shard_partition_is_trivial() {
        let topo = fat_tree(4, LinkParams::default());
        let p = Partition::of_topology(&topo, 1);
        assert_eq!(p.shards(), 1);
        assert!(p.shard_of.iter().all(|&s| s == 0));
        assert_eq!(p.lookahead(&topo.net), SimTime::MAX);
    }

    proptest! {
        /// Partition correctness across the paper's three scaled topologies: every
        /// node on exactly one in-range shard, every effective shard non-empty, and
        /// every cross-shard link at least as slow as the reported lookahead.
        #[test]
        fn topology_partitions_are_valid(kind in 0usize..3, shards in 1u32..9) {
            let topo = match kind {
                0 => fat_tree(4, LinkParams::default()),
                1 => bcube(4, 1, LinkParams::default()),
                _ => jellyfish_paper_config(24, 7, LinkParams::default()),
            };
            let p = Partition::of_topology(&topo, shards);
            check_partition(&p, &topo.net, shards);
            // Hosts of one rack are never split across shards.
            let mut rack_shard: std::collections::HashMap<usize, u32> =
                std::collections::HashMap::new();
            for (&h, &r) in &topo.rack_of {
                let s = p.shard_of(h);
                let prev = *rack_shard.entry(r).or_insert(s);
                prop_assert_eq!(prev, s, "rack {} split across shards", r);
            }
            prop_assert!(p.shards() <= shards.max(1));
        }
    }
}
