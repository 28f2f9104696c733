//! Inter-datacenter WAN topologies.
//!
//! The paper's evaluation is intra-datacenter (microsecond RTTs, homogeneous
//! 1 Gbps links), but the preemptive-scheduling question is just as interesting
//! across sites: long-haul links have millisecond propagation delays, so the
//! bandwidth-delay product — and with it the damage an unpaced window burst can
//! do — grows by four orders of magnitude. This module builds that setting:
//!
//! * `sites` datacenter sites (2–8 is the intended range), each a site switch
//!   with `hosts_per_site` hosts attached on default intra-DC access links;
//! * a full mesh of **long-haul** duplex links between the site switches,
//!   heterogeneous on purpose: across the site pairs, the one-way propagation
//!   delay spreads from half of `rtt_ms/2` up to the full `rtt_ms/2`, and the
//!   line rate from `gbps` up to `2·gbps` (slowest pair = longest pair, the
//!   worst case for pacing);
//! * **BDP-scaled queues**: each long-haul direction gets a queue of
//!   `max(rate · rtt / 8, DEFAULT_QUEUE_CAPACITY_BYTES)` bytes — a 4 MB
//!   intra-DC default is less than half the BDP of a 2.5 Gbps / 60 ms path and
//!   would tail-drop every window burst;
//! * optional random `loss_rate` on every long-haul direction. Like every lossy
//!   link, each draws from its own `(seed, link)` stream, so lossy WAN runs are
//!   fingerprint-identical at every shard count (see `pdq_netsim::network`).
//!
//! Each site is one rack ([`Topology::rack_of`]), so rack-aware workloads and
//! the shard partitioner both see sites as the natural unit: a partitioned run
//! cuts along the long-haul links, whose large propagation delays make generous
//! conservative-lookahead windows.

use std::collections::HashMap;

use pdq_netsim::{LinkParams, Network, SimTime, DEFAULT_QUEUE_CAPACITY_BYTES};

use crate::Topology;

/// Parameters of a [`wan`] topology.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WanParams {
    /// Number of datacenter sites (≥ 2 for any long-haul link to exist).
    pub sites: usize,
    /// Hosts attached to each site switch.
    pub hosts_per_site: usize,
    /// Round-trip propagation across the *longest* site pair, in milliseconds
    /// (10–100 ms is the intended range). Shorter pairs get down to half this.
    pub rtt_ms: f64,
    /// Line rate of the *slowest* long-haul pair, in Gbit/s (1–10 is the
    /// intended range). Faster pairs get up to twice this.
    pub gbps: f64,
    /// Random loss probability on every long-haul direction (0 disables).
    pub loss_rate: f64,
}

impl Default for WanParams {
    fn default() -> Self {
        WanParams {
            sites: 4,
            hosts_per_site: 4,
            rtt_ms: 60.0,
            gbps: 2.5,
            loss_rate: 0.0,
        }
    }
}

/// Build an inter-datacenter WAN topology: `sites` site switches in a full
/// long-haul mesh, `hosts_per_site` hosts per site. See the module docs for the
/// heterogeneity and queue-sizing rules.
pub fn wan(params: WanParams) -> Topology {
    assert!(params.sites >= 2, "a WAN needs at least two sites");
    assert!(
        params.hosts_per_site >= 1,
        "need at least one host per site"
    );
    assert!(params.rtt_ms > 0.0, "RTT must be positive");
    assert!(params.gbps > 0.0, "line rate must be positive");
    assert!(
        (0.0..1.0).contains(&params.loss_rate),
        "loss rate must be in [0, 1)"
    );

    let mut net = Network::new();
    let mut hosts = Vec::new();
    let mut rack_of = HashMap::new();

    let switches: Vec<_> = (0..params.sites)
        .map(|s| net.add_switch(format!("site{s}")))
        .collect();
    for (s, &sw) in switches.iter().enumerate() {
        for h in 0..params.hosts_per_site {
            let host = net.add_host(format!("h{s}_{h}"));
            net.add_duplex_link(host, sw, LinkParams::default());
            hosts.push(host);
            rack_of.insert(host, s);
        }
    }

    // Long-haul mesh. Pair k of P (lexicographic (i, j), i < j) is placed at
    // frac = k / (P - 1): delay grows with frac, rate shrinks — the longest
    // path is also the slowest, maximizing BDP heterogeneity.
    let pairs: Vec<_> = (0..params.sites)
        .flat_map(|i| (i + 1..params.sites).map(move |j| (i, j)))
        .collect();
    let denom = (pairs.len() - 1).max(1) as f64;
    for (k, &(i, j)) in pairs.iter().enumerate() {
        let frac = if pairs.len() == 1 {
            1.0
        } else {
            k as f64 / denom
        };
        let one_way_s = params.rtt_ms * 1e-3 / 2.0 * (0.5 + 0.5 * frac);
        let rate_bps = params.gbps * 1e9 * (2.0 - frac);
        // BDP of this pair, at its own RTT; never below the intra-DC default.
        let bdp_bytes = (rate_bps * 2.0 * one_way_s / 8.0).ceil() as u64;
        net.add_duplex_link(
            switches[i],
            switches[j],
            LinkParams {
                rate_bps,
                prop_delay: SimTime::from_secs_f64(one_way_s),
                queue_capacity_bytes: bdp_bytes.max(DEFAULT_QUEUE_CAPACITY_BYTES),
                loss_rate: params.loss_rate,
            },
        );
    }

    Topology {
        net,
        hosts,
        rack_of,
        name: format!(
            "wan({}x{},rtt{}ms,{}gbps,loss{})",
            params.sites, params.hosts_per_site, params.rtt_ms, params.gbps, params.loss_rate
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;

    #[test]
    fn structure_and_rack_labels() {
        let t = wan(WanParams::default());
        assert_eq!(t.host_count(), 16);
        assert_eq!(t.net.switches().len(), 4);
        // 16 access duplex links + C(4,2)=6 long-haul duplex links.
        assert_eq!(t.net.link_count(), 2 * (16 + 6));
        for (s, &h) in t.hosts.iter().enumerate() {
            assert_eq!(t.rack_of[&h], s / 4);
        }
    }

    #[test]
    fn long_hauls_are_heterogeneous_bdp_sized_and_per_link_lossy() {
        let params = WanParams {
            loss_rate: 0.001,
            ..WanParams::default()
        };
        let t = wan(params);
        let (long_hauls, access): (Vec<_>, Vec<_>) =
            t.net.links.iter().partition(|l| l.loss_rate > 0.0);
        assert_eq!(long_hauls.len(), 12); // 6 pairs, both directions
        let delays: Vec<_> = long_hauls.iter().map(|l| l.prop_delay).collect();
        let min = *delays.iter().min().unwrap();
        let max = *delays.iter().max().unwrap();
        // One-way spreads from rtt/4 (15 ms) to rtt/2 (30 ms).
        assert_eq!(min, SimTime::from_millis(15));
        assert_eq!(max, SimTime::from_millis(30));
        for l in &long_hauls {
            assert!(l.rate_bps >= params.gbps * 1e9);
            assert!(l.rate_bps <= 2.0 * params.gbps * 1e9);
            assert_eq!(l.loss_rate, 0.001);
            // Queue at least the link's own BDP and at least the 4 MB default.
            let bdp = (l.rate_bps * 2.0 * l.prop_delay.as_secs_f64() / 8.0).ceil() as u64;
            assert!(l.queue_capacity_bytes >= bdp.max(DEFAULT_QUEUE_CAPACITY_BYTES));
        }
        // Access links keep the lossless intra-DC defaults.
        assert_eq!(access.len(), 32);
        for l in access {
            assert_eq!(l.queue_capacity_bytes, DEFAULT_QUEUE_CAPACITY_BYTES);
        }
    }

    #[test]
    fn partition_cuts_along_long_haul_links() {
        let t = wan(WanParams::default());
        let p = Partition::of_topology(&t, 4);
        assert_eq!(p.shards(), 4);
        // The lookahead is the minimum cross-shard propagation delay: the
        // shortest long-haul (15 ms one-way), millions of times the intra-DC
        // lookahead — sharded WAN runs barrier rarely.
        assert_eq!(p.lookahead(&t.net), SimTime::from_millis(15));
    }

    #[test]
    fn two_sites_use_the_full_rtt() {
        let t = wan(WanParams {
            sites: 2,
            hosts_per_site: 1,
            rtt_ms: 100.0,
            gbps: 1.0,
            loss_rate: 0.01,
        });
        let long_haul = t.net.links.iter().find(|l| l.loss_rate > 0.0).unwrap();
        assert_eq!(long_haul.prop_delay, SimTime::from_millis(50));
        assert_eq!(long_haul.rate_bps, 1e9);
    }
}
