//! Declarative topology and workload specifications.
//!
//! [`TopologySpec`] and [`WorkloadSpec`] are plain-data descriptions that a
//! [`crate::Scenario`] serializes into its plain-text spec and materializes at run
//! time. They cover every setup the paper's figures use; workload generation
//! reproduces the experiment harness' historical RNG draw order exactly, so a spec
//! plus a seed pins down the flow set byte for byte.

use std::fmt;
use std::ops::{Range, RangeBounds, RangeInclusive};
use std::str::FromStr;

use pdq_netsim::{CoflowId, CoflowTag, FlowSpec, LinkParams, NodeId, NodeKind, SimTime};
use pdq_topology::{
    bcube::{bcube, bcube_with_at_least},
    fattree::fat_tree_with_at_least,
    jellyfish::jellyfish_paper_config,
    single::{default_paper_tree, single_bottleneck_with_access_loss},
    wan::{wan, WanParams},
    Topology,
};
use pdq_workloads::{
    coflow_flows, coflow_set, pattern_flows, poisson_flows, query_aggregation_flows, CoflowConfig,
    DeadlineDist, Pattern, PoissonConfig, SizeDist, WorkloadConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::kv::{self, OrDash};

/// A buildable topology. All variants use default (paper) link parameters; the only
/// link-level variation the figures need — access-link loss — is part of
/// [`TopologySpec::SingleBottleneck`].
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// The paper's default 12-server single-rooted tree (Figure 2a).
    PaperTree,
    /// `senders` hosts behind one switch sending to a single receiver (Figure 2b),
    /// optionally with random loss on the shared access link (Figure 9).
    SingleBottleneck {
        /// Number of sending hosts.
        senders: usize,
        /// Loss rate injected on the switch↔receiver link, both directions.
        access_loss: f64,
    },
    /// Smallest three-level fat-tree with at least `hosts` hosts (Figure 8).
    FatTree {
        /// Minimum host count.
        hosts: usize,
    },
    /// `bcube(n, k)`: BCube with `n`-port switches and `k + 1` levels, so
    /// `n^(k+1)` hosts (Figure 11 uses BCube(2,3)).
    BCube {
        /// Switch port count `n`.
        n: usize,
        /// Level parameter `k`: the topology has `k + 1` levels.
        k: usize,
    },
    /// Smallest BCube with `n`-port switches and at least `hosts` hosts (Figure 8c).
    BCubeHosts {
        /// Minimum host count.
        hosts: usize,
        /// Switch port count.
        n: usize,
    },
    /// Jellyfish at the paper's 2:1 network:server port ratio with at least `hosts`
    /// hosts, wired with the given graph seed (Figure 8d).
    Jellyfish {
        /// Minimum host count.
        hosts: usize,
        /// Random-graph wiring seed.
        seed: u64,
    },
    /// Inter-datacenter WAN: `sites` site switches in a heterogeneous full
    /// long-haul mesh (10–100 ms RTTs, BDP-scaled queues, optional per-link
    /// loss), `hosts_per_site` hosts per site. See `pdq_topology::wan`.
    Wan {
        /// Number of datacenter sites.
        sites: usize,
        /// Hosts per site.
        hosts_per_site: usize,
        /// Round-trip propagation of the longest site pair, milliseconds.
        rtt_ms: f64,
        /// Line rate of the slowest long-haul pair, Gbit/s.
        gbps: f64,
        /// Random loss probability on every long-haul direction.
        loss_rate: f64,
    },
}

impl TopologySpec {
    /// Build the topology.
    pub fn build(&self) -> Topology {
        let link = LinkParams::default();
        match *self {
            TopologySpec::PaperTree => default_paper_tree(),
            TopologySpec::SingleBottleneck {
                senders,
                access_loss,
            } => single_bottleneck_with_access_loss(senders, link, access_loss),
            TopologySpec::FatTree { hosts } => fat_tree_with_at_least(hosts, link),
            TopologySpec::BCube { n, k } => bcube(n, k, link),
            TopologySpec::BCubeHosts { hosts, n } => bcube_with_at_least(hosts, n, link),
            TopologySpec::Jellyfish { hosts, seed } => jellyfish_paper_config(hosts, seed, link),
            TopologySpec::Wan {
                sites,
                hosts_per_site,
                rtt_ms,
                gbps,
                loss_rate,
            } => wan(WanParams {
                sites,
                hosts_per_site,
                rtt_ms,
                gbps,
                loss_rate,
            }),
        }
    }

    /// How many hosts [`TopologySpec::build`] makes, by the builders' own sizing
    /// rules, or `None` if the count overflows.
    fn host_count(&self) -> Option<usize> {
        match *self {
            TopologySpec::PaperTree => Some(12),
            TopologySpec::SingleBottleneck { senders, .. } => senders.checked_add(1),
            // The smallest even k with k³/4 hosts ≥ `hosts`.
            TopologySpec::FatTree { hosts } => (2usize..)
                .step_by(2)
                .map(|k| k.checked_pow(3).map(|cube| cube / 4))
                .find(|n| n.is_none_or(|n| n >= hosts))?,
            TopologySpec::BCube { n, k } => n.checked_pow(u32::try_from(k.checked_add(1)?).ok()?),
            // The fewest levels that reach `hosts`.
            TopologySpec::BCubeHosts { hosts, n } => {
                let mut count = n;
                while count < hosts {
                    count = count.checked_mul(n)?;
                }
                Some(count)
            }
            // 8 hosts on each of at least 17 switches.
            TopologySpec::Jellyfish { hosts, .. } => hosts.div_ceil(8).max(17).checked_mul(8),
            TopologySpec::Wan {
                sites,
                hosts_per_site,
                ..
            } => sites.checked_mul(hosts_per_site),
        }
    }
}

/// The most hosts a topology token may ask for: the k = 64 fat-tree. The largest
/// shipped topology, the Huge tier's tree, has 1 024.
const MAX_HOSTS: usize = 65_536;
/// The most sites a `wan` token may ask for: its long-haul mesh grows with sites².
const MAX_WAN_SITES: usize = 256;
/// The most flows a workload may draw: 2²⁴, 16 times the Huge tier's 2²⁰.
const MAX_FLOWS: usize = 1 << 24;

/// The one-token spec form, e.g. `fat_tree:16` or `wan:4:2:60:1:loss=0.0001`.
impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologySpec::PaperTree => f.write_str("paper_tree"),
            TopologySpec::SingleBottleneck {
                senders,
                access_loss,
            } => {
                write!(f, "single_bottleneck:{senders}")?;
                if access_loss > 0.0 {
                    write!(f, ":loss={access_loss}")?;
                }
                Ok(())
            }
            TopologySpec::FatTree { hosts } => write!(f, "fat_tree:{hosts}"),
            TopologySpec::BCube { n, k } => write!(f, "bcube:{n}:{k}"),
            TopologySpec::BCubeHosts { hosts, n } => write!(f, "bcube_hosts:{hosts}:{n}"),
            TopologySpec::Jellyfish { hosts, seed } => write!(f, "jellyfish:{hosts}:{seed}"),
            TopologySpec::Wan {
                sites,
                hosts_per_site,
                rtt_ms,
                gbps,
                loss_rate,
            } => {
                write!(f, "wan:{sites}:{hosts_per_site}:{rtt_ms}:{gbps}")?;
                if loss_rate > 0.0 {
                    write!(f, ":loss={loss_rate}")?;
                }
                Ok(())
            }
        }
    }
}

/// Parses the [`Display`](fmt::Display) form, refusing arguments the topology
/// builders cannot build from and topologies of more than 65 536 hosts.
impl FromStr for TopologySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        // The optional trailing `loss=<p>` argument.
        fn loss(rest: &[&str]) -> Result<f64, String> {
            match rest {
                [] => Ok(0.0),
                [p] if p.starts_with("loss=") => arg(&p[5..], 0.0..1.0, "a loss in [0, 1)"),
                _ => Err(format!("want loss=<p> last, got {:?}", rest.join(":"))),
            }
        }
        let spec = match s.split(':').collect::<Vec<_>>()[..] {
            ["paper_tree"] => TopologySpec::PaperTree,
            ["single_bottleneck", senders, ref rest @ ..] => TopologySpec::SingleBottleneck {
                senders: arg(senders, 1.., "at least 1 sender")?,
                access_loss: loss(rest)?,
            },
            ["fat_tree", hosts] => TopologySpec::FatTree {
                hosts: arg(hosts, .., "a host count")?,
            },
            ["bcube", n, k] => TopologySpec::BCube {
                n: arg(n, 2.., "a switch port count of at least 2")?,
                k: arg(k, .., "a level count")?,
            },
            ["bcube_hosts", hosts, n] => TopologySpec::BCubeHosts {
                hosts: arg(hosts, .., "a host count")?,
                n: arg(n, 2.., "a switch port count of at least 2")?,
            },
            ["jellyfish", hosts, seed] => TopologySpec::Jellyfish {
                hosts: arg(hosts, .., "a host count")?,
                seed: arg(seed, .., "a seed")?,
            },
            ["wan", sites, hosts_per_site, rtt_ms, gbps, ref rest @ ..] => TopologySpec::Wan {
                sites: arg(
                    sites,
                    2..=MAX_WAN_SITES,
                    &format!("at least 2 sites and at most {MAX_WAN_SITES}"),
                )?,
                hosts_per_site: arg(hosts_per_site, 1.., "at least 1 host per site")?,
                rtt_ms: arg(rtt_ms, POSITIVE, "a positive, finite RTT in ms")?,
                gbps: arg(gbps, POSITIVE, "a positive, finite line rate in Gbit/s")?,
                loss_rate: loss(rest)?,
            },
            _ => return Err("unrecognized topology kind or argument count".into()),
        };
        match spec.host_count() {
            Some(hosts) if hosts <= MAX_HOSTS => Ok(spec),
            hosts => Err(format!(
                "want at most {MAX_HOSTS} hosts (the k = 64 fat-tree), this builds {}",
                hosts.map_or("more than a usize holds".into(), |n| n.to_string())
            )),
        }
    }
}

/// A generatable workload: everything a run needs to materialize its flow set from a
/// topology and a seed.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// Query aggregation (§5.2): `flows` flows, all towards the topology's last host.
    QueryAggregation {
        /// Number of flows.
        flows: usize,
        /// Flow-size distribution.
        sizes: SizeDist,
        /// Deadline distribution.
        deadlines: DeadlineDist,
    },
    /// A static pattern workload: every pattern pair carries `flows_per_pair` flows,
    /// all arriving at time zero (Figures 4 and 8).
    Pattern {
        /// Sending pattern.
        pattern: Pattern,
        /// Flow-size distribution.
        sizes: SizeDist,
        /// Deadline distribution.
        deadlines: DeadlineDist,
        /// Flows per (sender, receiver) pair.
        flows_per_pair: usize,
    },
    /// Poisson flow arrivals over a pattern; short flows get deadlines (Figure 5).
    Poisson {
        /// Aggregate arrival rate over the whole network, flows per second.
        rate_flows_per_sec: f64,
        /// Arrivals are generated over `[0, duration)`.
        duration: SimTime,
        /// Flow-size distribution.
        sizes: SizeDist,
        /// Deadlines applied to flows at or below the short-flow threshold.
        short_deadlines: DeadlineDist,
        /// Flows of at most this many bytes count as short / deadline-constrained.
        short_flow_threshold_bytes: u64,
        /// How (src, dst) pairs are drawn.
        pattern: Pattern,
    },
    /// Random-permutation traffic at a fractional load: only `load × hosts` senders
    /// transmit, one flow each (Figure 11).
    PermutationAtLoad {
        /// Fraction of hosts that send, in `(0, 1]`.
        load: f64,
        /// Flow-size distribution.
        sizes: SizeDist,
        /// Deadline distribution (deadlines are absolute; arrivals are at time zero).
        deadlines: DeadlineDist,
    },
    /// `flows` flows between random distinct host pairs with arrivals spread uniformly
    /// over `[0, spread]` — the engine-scale stress scenario.
    RandomPairs {
        /// Number of flows.
        flows: usize,
        /// Arrival spread.
        spread: SimTime,
        /// Flow-size distribution.
        sizes: SizeDist,
    },
    /// Coflow-structured aggregation traffic: `coflows` groups of `width` member
    /// flows each, every group converging on one reducer host, with Poisson group
    /// arrivals and optional per-coflow deadlines. Emitted flows carry a
    /// [`CoflowTag`], so coflow-aware schedulers and CCT metrics can recover
    /// membership.
    Coflow {
        /// Number of coflows.
        coflows: usize,
        /// Member flows per coflow (aggregation fan-in).
        width: usize,
        /// Coflow arrival rate (Poisson); `<= 0` starts every coflow at time zero.
        rate_coflows_per_sec: f64,
        /// Member flow-size distribution.
        sizes: SizeDist,
        /// Per-coflow deadline distribution (relative to the coflow's arrival).
        deadlines: DeadlineDist,
    },
    /// An explicit flow list (node ids refer to the built topology).
    Manual(Vec<FlowSpec>),
}

impl WorkloadSpec {
    /// Materialize the flow set on `topo`, deterministically in `seed`.
    ///
    /// Flow ids start at 1. Each variant reproduces the exact RNG draw order the
    /// corresponding figure historically used, so scenario runs are byte-identical to
    /// the pre-scenario harness.
    pub fn generate(&self, topo: &Topology, seed: u64) -> Vec<FlowSpec> {
        let mut rng = SmallRng::seed_from_u64(seed);
        match self {
            WorkloadSpec::QueryAggregation {
                flows,
                sizes,
                deadlines,
            } => query_aggregation_flows(topo, *flows, sizes, deadlines, 1, &mut rng),
            WorkloadSpec::Pattern {
                pattern,
                sizes,
                deadlines,
                flows_per_pair,
            } => {
                let cfg = WorkloadConfig {
                    pattern: pattern.clone(),
                    sizes: sizes.clone(),
                    deadlines: deadlines.clone(),
                    flows_per_pair: *flows_per_pair,
                    ..Default::default()
                };
                pattern_flows(topo, &cfg, 1, &mut rng)
            }
            WorkloadSpec::Poisson {
                rate_flows_per_sec,
                duration,
                sizes,
                short_deadlines,
                short_flow_threshold_bytes,
                pattern,
            } => {
                let cfg = PoissonConfig {
                    rate_flows_per_sec: *rate_flows_per_sec,
                    duration: *duration,
                    sizes: sizes.clone(),
                    short_deadlines: short_deadlines.clone(),
                    short_flow_threshold_bytes: *short_flow_threshold_bytes,
                    pattern: pattern.clone(),
                };
                poisson_flows(topo, &cfg, 1, &mut rng)
            }
            WorkloadSpec::PermutationAtLoad {
                load,
                sizes,
                deadlines,
            } => {
                let pairs = Pattern::RandomPermutation.pairs(topo, &mut rng);
                let n_senders = ((topo.host_count() as f64) * load).round().max(1.0) as usize;
                pairs
                    .into_iter()
                    .take(n_senders)
                    .enumerate()
                    .map(|(i, (src, dst))| {
                        let mut spec =
                            FlowSpec::new(i as u64 + 1, src, dst, sizes.sample(&mut rng).max(1));
                        if let Some(d) = deadlines.sample(&mut rng) {
                            spec = spec.with_deadline(d);
                        }
                        spec
                    })
                    .collect()
            }
            WorkloadSpec::RandomPairs {
                flows,
                spread,
                sizes,
            } => {
                let hosts: &[NodeId] = &topo.hosts;
                let mut out = Vec::with_capacity(*flows);
                for i in 0..*flows {
                    let src = hosts[rng.gen_range(0..hosts.len())];
                    let mut dst = hosts[rng.gen_range(0..hosts.len())];
                    while dst == src {
                        dst = hosts[rng.gen_range(0..hosts.len())];
                    }
                    let at = SimTime::from_nanos(rng.gen_range(0..=spread.as_nanos()));
                    out.push(
                        FlowSpec::new(i as u64 + 1, src, dst, sizes.sample(&mut rng).max(1))
                            .with_arrival(at),
                    );
                }
                out
            }
            WorkloadSpec::Coflow {
                coflows,
                width,
                rate_coflows_per_sec,
                sizes,
                deadlines,
            } => {
                let cfg = CoflowConfig {
                    coflows: *coflows,
                    width: *width,
                    rate_coflows_per_sec: *rate_coflows_per_sec,
                    sizes: sizes.clone(),
                    deadlines: deadlines.clone(),
                };
                coflow_flows(&coflow_set(topo, &cfg, 1, 1, &mut rng))
            }
            WorkloadSpec::Manual(flows) => flows.clone(),
        }
    }

    /// How many flows [`WorkloadSpec::generate`] draws on `topo` (at most, for a
    /// pattern; the expected count for Poisson arrivals), or `None` on overflow.
    fn flow_count(&self, topo: &Topology) -> Option<usize> {
        let hosts = topo.host_count();
        match self {
            WorkloadSpec::QueryAggregation { flows, .. }
            | WorkloadSpec::RandomPairs { flows, .. } => Some(*flows),
            WorkloadSpec::Pattern { flows_per_pair, .. } => hosts.checked_mul(*flows_per_pair),
            WorkloadSpec::Poisson {
                rate_flows_per_sec,
                duration,
                ..
            } => {
                let expected = (rate_flows_per_sec * duration.as_secs_f64()).ceil();
                // Infinite and NaN counts compare false here, like finite overflows.
                (expected < usize::MAX as f64).then_some(expected as usize)
            }
            WorkloadSpec::PermutationAtLoad { .. } => Some(hosts),
            WorkloadSpec::Coflow { coflows, width, .. } => coflows.checked_mul(*width),
            WorkloadSpec::Manual(flows) => Some(flows.len()),
        }
    }

    /// Whether [`WorkloadSpec::generate`] can draw this workload on `topo`: a stride
    /// that is a multiple of the host count would send every host to itself, more
    /// than 2²⁴ flows would not fit, and every manual flow must run between two
    /// distinct hosts of `topo` under an id no other flow has. (What depends on no
    /// topology is refused at parse time.)
    pub(crate) fn fits(&self, topo: &Topology) -> Result<(), String> {
        let hosts = topo.host_count();
        if let WorkloadSpec::Manual(flows) = self {
            let host = |n: NodeId| {
                let node = topo.net.nodes.get(n.index());
                node.is_some_and(|node| node.kind == NodeKind::Host)
            };
            if let Some(f) = flows
                .iter()
                .find(|f| f.src == f.dst || !host(f.src) || !host(f.dst))
            {
                return Err(format!(
                    "flow {}: nodes {} -> {} are not two distinct hosts of {}",
                    f.id.value(),
                    f.src.0,
                    f.dst.0,
                    topo.name
                ));
            }
            let mut ids: Vec<u64> = flows.iter().map(|f| f.id.value()).collect();
            ids.sort_unstable();
            if let Some(pair) = ids.windows(2).find(|pair| pair[0] == pair[1]) {
                return Err(format!("flow id {} is used by two flows", pair[0]));
            }
        }
        match self {
            WorkloadSpec::Pattern {
                pattern: Pattern::Stride(i),
                ..
            }
            | WorkloadSpec::Poisson {
                pattern: Pattern::Stride(i),
                ..
            } if i % hosts == 0 => Err(format!(
                "pattern stride:{i} on {hosts} hosts would send every host to itself"
            )),
            _ => match self.flow_count(topo) {
                Some(flows) if flows <= MAX_FLOWS => Ok(()),
                flows => Err(format!(
                    "the workload would draw {} flows, more than the {MAX_FLOWS} a run may hold",
                    flows.map_or(format!("over {}", usize::MAX), |n| n.to_string())
                )),
            },
        }
    }

    /// The workload with its flow-size distribution replaced — the flow-size sweep
    /// axis. Errors for [`WorkloadSpec::Manual`], whose flows are explicit.
    pub fn with_sizes(&self, sizes: SizeDist) -> Result<WorkloadSpec, String> {
        let mut w = self.clone();
        match &mut w {
            WorkloadSpec::QueryAggregation { sizes: s, .. }
            | WorkloadSpec::Pattern { sizes: s, .. }
            | WorkloadSpec::Poisson { sizes: s, .. }
            | WorkloadSpec::PermutationAtLoad { sizes: s, .. }
            | WorkloadSpec::RandomPairs { sizes: s, .. }
            | WorkloadSpec::Coflow { sizes: s, .. } => *s = sizes,
            WorkloadSpec::Manual(_) => {
                return Err("a manual workload has no size distribution to sweep".into())
            }
        }
        Ok(w)
    }

    /// The workload with its deadline distribution replaced — the deadline sweep
    /// axis. For [`WorkloadSpec::Poisson`] this sets the short-flow deadlines;
    /// errors for workloads without a deadline knob (random pairs, manual).
    pub fn with_deadlines(&self, deadlines: DeadlineDist) -> Result<WorkloadSpec, String> {
        let mut w = self.clone();
        match &mut w {
            WorkloadSpec::QueryAggregation { deadlines: d, .. }
            | WorkloadSpec::Pattern { deadlines: d, .. }
            | WorkloadSpec::PermutationAtLoad { deadlines: d, .. }
            | WorkloadSpec::Coflow { deadlines: d, .. } => *d = deadlines,
            WorkloadSpec::Poisson {
                short_deadlines, ..
            } => *short_deadlines = deadlines,
            WorkloadSpec::RandomPairs { .. } => {
                return Err("a random-pairs workload carries no deadlines".into())
            }
            WorkloadSpec::Manual(_) => {
                return Err("a manual workload has no deadline distribution to sweep".into())
            }
        }
        Ok(w)
    }

    /// The workload with its load knob replaced — the load sweep axis. For
    /// [`WorkloadSpec::PermutationAtLoad`] the value is the sending-host fraction;
    /// for [`WorkloadSpec::Poisson`] it is the aggregate arrival rate in flows per
    /// second, which must be positive and finite. Other workloads have no load
    /// parameter and error.
    pub fn with_load(&self, load: f64) -> Result<WorkloadSpec, String> {
        let mut w = self.clone();
        match &mut w {
            WorkloadSpec::PermutationAtLoad { load: l, .. } => *l = load,
            WorkloadSpec::Poisson {
                rate_flows_per_sec, ..
            } if POSITIVE.contains(&load) => *rate_flows_per_sec = load,
            WorkloadSpec::Poisson { .. } => {
                return Err(format!(
                    "a Poisson arrival rate must be positive and finite, got {load}"
                ))
            }
            WorkloadSpec::Coflow {
                rate_coflows_per_sec,
                ..
            } => *rate_coflows_per_sec = load,
            other => {
                return Err(format!(
                    "workload {:?} has no load parameter to sweep",
                    other.kind()
                ))
            }
        }
        Ok(w)
    }

    /// The workload kind token written as the `workload =` line of a scenario spec.
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::QueryAggregation { .. } => "query_aggregation",
            WorkloadSpec::Pattern { .. } => "pattern",
            WorkloadSpec::Poisson { .. } => "poisson",
            WorkloadSpec::PermutationAtLoad { .. } => "permutation_at_load",
            WorkloadSpec::RandomPairs { .. } => "random_pairs",
            WorkloadSpec::Coflow { .. } => "coflow",
            WorkloadSpec::Manual(_) => "manual",
        }
    }

    /// Write this workload's spec lines: the `workload =` kind, its `workload.*`
    /// keys, and one `flow` line per flow of a manual workload.
    pub(crate) fn write_keys(&self, w: &mut kv::Writer) {
        w.put("workload", self.kind());
        match self {
            WorkloadSpec::QueryAggregation {
                flows,
                sizes,
                deadlines,
            } => {
                w.put("workload.flows", flows);
                w.put("workload.sizes", sizes);
                w.put("workload.deadlines", deadlines);
            }
            WorkloadSpec::Pattern {
                pattern,
                sizes,
                deadlines,
                flows_per_pair,
            } => {
                w.put("workload.pattern", pattern);
                w.put("workload.sizes", sizes);
                w.put("workload.deadlines", deadlines);
                w.put("workload.flows_per_pair", flows_per_pair);
            }
            WorkloadSpec::Poisson {
                rate_flows_per_sec,
                duration,
                sizes,
                short_deadlines,
                short_flow_threshold_bytes,
                pattern,
            } => {
                w.put("workload.rate_flows_per_sec", rate_flows_per_sec);
                w.put("workload.duration_ns", duration.as_nanos());
                w.put("workload.sizes", sizes);
                w.put("workload.short_deadlines", short_deadlines);
                w.put("workload.short_threshold_bytes", short_flow_threshold_bytes);
                w.put("workload.pattern", pattern);
            }
            WorkloadSpec::PermutationAtLoad {
                load,
                sizes,
                deadlines,
            } => {
                w.put("workload.load", load);
                w.put("workload.sizes", sizes);
                w.put("workload.deadlines", deadlines);
            }
            WorkloadSpec::RandomPairs {
                flows,
                spread,
                sizes,
            } => {
                w.put("workload.flows", flows);
                w.put("workload.spread_ns", spread.as_nanos());
                w.put("workload.sizes", sizes);
            }
            WorkloadSpec::Coflow {
                coflows,
                width,
                rate_coflows_per_sec,
                sizes,
                deadlines,
            } => {
                w.put("workload.coflows", coflows);
                w.put("workload.width", width);
                w.put("workload.rate_coflows_per_sec", rate_coflows_per_sec);
                w.put("workload.sizes", sizes);
                w.put("workload.deadlines", deadlines);
            }
            WorkloadSpec::Manual(flows) => {
                for f in flows {
                    w.put("flow", FlowLine(f.clone()));
                }
            }
        }
    }

    /// Read a workload back from the keys [`WorkloadSpec::write_keys`] writes.
    pub(crate) fn from_keys(r: &kv::Reader) -> Result<Self, kv::Error> {
        let kind = r.field("workload")?;
        Ok(match kind.value {
            "query_aggregation" => WorkloadSpec::QueryAggregation {
                flows: r.required("workload.flows")?,
                sizes: r.required("workload.sizes")?,
                deadlines: r.required("workload.deadlines")?,
            },
            "pattern" => WorkloadSpec::Pattern {
                pattern: r.required("workload.pattern")?,
                sizes: r.required("workload.sizes")?,
                deadlines: r.required("workload.deadlines")?,
                flows_per_pair: r.required("workload.flows_per_pair")?,
            },
            "poisson" => WorkloadSpec::Poisson {
                rate_flows_per_sec: r
                    .field("workload.rate_flows_per_sec")?
                    .parse_with(|v| arg(v, POSITIVE, "a positive, finite rate in flows/s"))?,
                duration: SimTime::from_nanos(r.required("workload.duration_ns")?),
                sizes: r.required("workload.sizes")?,
                short_deadlines: r.required("workload.short_deadlines")?,
                short_flow_threshold_bytes: r.required("workload.short_threshold_bytes")?,
                pattern: r.required("workload.pattern")?,
            },
            "permutation_at_load" => WorkloadSpec::PermutationAtLoad {
                load: r
                    .field("workload.load")?
                    .parse_with(|v| arg(v, NUMBER, "a number"))?,
                sizes: r.required("workload.sizes")?,
                deadlines: r.required("workload.deadlines")?,
            },
            "random_pairs" => WorkloadSpec::RandomPairs {
                flows: r.required("workload.flows")?,
                spread: SimTime::from_nanos(r.required("workload.spread_ns")?),
                sizes: r.required("workload.sizes")?,
            },
            "coflow" => WorkloadSpec::Coflow {
                coflows: r.required("workload.coflows")?,
                width: r.required("workload.width")?,
                rate_coflows_per_sec: r
                    .field("workload.rate_coflows_per_sec")?
                    .parse_with(|v| arg(v, NUMBER, "a number"))?,
                sizes: r.required("workload.sizes")?,
                deadlines: r.required("workload.deadlines")?,
            },
            "manual" => WorkloadSpec::Manual(
                r.all("flow")
                    .map(|f| f.parse().map(|FlowLine(spec)| spec))
                    .collect::<Result<_, _>>()?,
            ),
            other => return Err(kind.error(format!("unrecognized workload kind {other:?}"))),
        })
    }
}

/// A spec argument: `v` parsed, and in `ok`.
fn arg<T: FromStr + PartialOrd>(v: &str, ok: impl RangeBounds<T>, want: &str) -> Result<T, String> {
    match v.parse() {
        Ok(x) if ok.contains(&x) => Ok(x),
        _ => Err(format!("want {want}, got {v:?}")),
    }
}

/// Every float but NaN, which would not read back equal to itself.
const NUMBER: RangeInclusive<f64> = f64::NEG_INFINITY..=f64::INFINITY;
const POSITIVE: Range<f64> = f64::MIN_POSITIVE..f64::INFINITY;

/// One flow of a manual workload as the value of a `flow` line:
/// `id src dst bytes arrival_ns deadline_ns|- [coflow_id:bottleneck_bytes:deadline_ns|-]`.
struct FlowLine(FlowSpec);

impl fmt::Display for FlowLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.0;
        let nanos = |t: Option<SimTime>| OrDash(t.map(SimTime::as_nanos));
        let (id, src, dst, bytes) = (s.id.value(), s.src.0, s.dst.0, s.size_bytes);
        let arrival = s.arrival.as_nanos();
        write!(
            f,
            "{id} {src} {dst} {bytes} {arrival} {}",
            nanos(s.deadline)
        )?;
        // The coflow tag is a 7th field written only when present, so untagged
        // flow lines stay byte-identical to older specs.
        if let Some(t) = s.coflow {
            let (id, bottleneck) = (t.id.value(), t.bottleneck_bytes);
            write!(f, " {id}:{bottleneck}:{}", nanos(t.deadline))?;
        }
        Ok(())
    }
}

impl FromStr for FlowLine {
    type Err = String;

    fn from_str(line: &str) -> Result<Self, String> {
        const WANT: &str = "want: id src dst bytes arrival_ns deadline_ns|- \
                            [coflow_id:bottleneck_bytes:deadline_ns|-]";
        fn field<T: FromStr>(v: &str) -> Result<T, String> {
            v.parse().map_err(|_| WANT.to_string())
        }
        let nanos = |v: &str| field(v).map(|OrDash(t)| t.map(SimTime::from_nanos));
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [id, src, dst, bytes, arrival, deadline, ref tag @ ..] = fields[..] else {
            return Err(WANT.into());
        };
        let mut spec = FlowSpec::new(
            field(id)?,
            NodeId(field(src)?),
            NodeId(field(dst)?),
            field(bytes)?,
        )
        .with_arrival(SimTime::from_nanos(field(arrival)?));
        spec.deadline = nanos(deadline)?;
        spec.coflow = match *tag {
            [] => None,
            [tag] => match tag.split(':').collect::<Vec<_>>()[..] {
                [id, bottleneck, deadline] => Some(CoflowTag {
                    id: CoflowId(field(id)?),
                    bottleneck_bytes: field(bottleneck)?,
                    deadline: nanos(deadline)?,
                }),
                _ => return Err(WANT.into()),
            },
            _ => return Err(WANT.into()),
        };
        Ok(FlowLine(spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_tokens_round_trip() {
        let specs = vec![
            TopologySpec::PaperTree,
            TopologySpec::SingleBottleneck {
                senders: 12,
                access_loss: 0.0,
            },
            TopologySpec::SingleBottleneck {
                senders: 12,
                access_loss: 0.02,
            },
            TopologySpec::FatTree { hosts: 16 },
            TopologySpec::BCube { n: 2, k: 3 },
            TopologySpec::BCubeHosts { hosts: 16, n: 4 },
            TopologySpec::Jellyfish { hosts: 16, seed: 7 },
            TopologySpec::Wan {
                sites: 4,
                hosts_per_site: 4,
                rtt_ms: 60.0,
                gbps: 2.5,
                loss_rate: 0.0,
            },
            TopologySpec::Wan {
                sites: 3,
                hosts_per_site: 2,
                rtt_ms: 100.0,
                gbps: 1.0,
                loss_rate: 0.0001,
            },
        ];
        for s in specs {
            let token = s.to_string();
            assert_eq!(token.parse::<TopologySpec>().expect(&token), s, "{token}");
            assert_eq!(s.host_count(), Some(s.build().host_count()), "{token}");
        }
        // The size caps: 65 536 hosts, 256 WAN sites.
        for token in [
            "fat_tree:65536",
            "bcube:2:15",
            "bcube:65536:0",
            "bcube_hosts:65536:2",
            "jellyfish:65536:1",
            "single_bottleneck:65535",
            "wan:256:256:60:1",
        ] {
            let s = token.parse::<TopologySpec>().expect(token);
            assert_eq!(s.host_count(), Some(MAX_HOSTS), "{token}");
        }
        for (token, needle) in [
            ("bcube:2:64", "at most 65536 hosts"),
            ("bcube:2:16", "at most 65536 hosts"),
            ("bcube:2:18446744073709551615", "at most 65536 hosts"),
            ("bcube:65537:0", "at most 65536 hosts"),
            ("fat_tree:65537", "at most 65536 hosts"),
            ("fat_tree:18446744073709551615", "at most 65536 hosts"),
            ("bcube_hosts:65537:2", "at most 65536 hosts"),
            ("bcube_hosts:2:65537", "at most 65536 hosts"),
            ("jellyfish:65537:1", "at most 65536 hosts"),
            ("single_bottleneck:65536", "at most 65536 hosts"),
            ("wan:256:257:60:1", "at most 65536 hosts"),
            ("wan:257:1:60:1", "at most 256"),
        ] {
            let err = token.parse::<TopologySpec>().unwrap_err();
            assert!(err.contains(needle), "{token}: {err}");
        }
        for (token, needle) in [
            ("torus:4", "unrecognized"),
            ("fat_tree:16:extra", "unrecognized"),
            ("fat_tree:-1", "host count"),
            ("single_bottleneck:3:drop=1", "loss="),
            ("single_bottleneck:0", "sender"),
            ("single_bottleneck:3:loss=1", "[0, 1)"),
            ("single_bottleneck:3:loss=-0.5", "[0, 1)"),
            ("bcube:1:3", "port count"),
            ("bcube_hosts:16:0", "port count"),
            ("wan:1:4:60:1", "2 sites"),
            ("wan:2:0:60:1", "host per site"),
            ("wan:2:2:inf:1", "RTT"),
            ("wan:2:2:60:0", "line rate"),
            ("wan:2:2:60:1:loss=NaN", "[0, 1)"),
        ] {
            let err = token.parse::<TopologySpec>().unwrap_err();
            assert!(err.contains(needle), "{token}: {err}");
        }
    }

    #[test]
    fn topologies_build() {
        assert_eq!(TopologySpec::PaperTree.build().host_count(), 12);
        let lossy = TopologySpec::SingleBottleneck {
            senders: 3,
            access_loss: 0.02,
        }
        .build();
        let n = lossy.net.link_count();
        assert_eq!(lossy.net.links[n - 1].loss_rate, 0.02);
        assert_eq!(lossy.net.links[n - 2].loss_rate, 0.02);
        assert!(TopologySpec::FatTree { hosts: 16 }.build().host_count() >= 16);
        let wan = TopologySpec::Wan {
            sites: 2,
            hosts_per_site: 3,
            rtt_ms: 50.0,
            gbps: 1.0,
            loss_rate: 0.001,
        }
        .build();
        assert_eq!(wan.host_count(), 6);
        assert!(wan.net.links.iter().any(|l| l.loss_rate == 0.001));
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let topo = default_paper_tree();
        let w = WorkloadSpec::QueryAggregation {
            flows: 9,
            sizes: SizeDist::query(),
            deadlines: DeadlineDist::paper_default(),
        };
        assert_eq!(w.generate(&topo, 5), w.generate(&topo, 5));
        assert_ne!(w.generate(&topo, 5), w.generate(&topo, 6));
        // Ids start at 1, matching the historical harness.
        assert_eq!(w.generate(&topo, 5)[0].id.value(), 1);
    }

    #[test]
    fn flow_counts_follow_the_generators_and_are_capped() {
        let topo = default_paper_tree();
        let (sizes, deadlines) = (SizeDist::query, DeadlineDist::paper_default);
        let pairs = |flows| WorkloadSpec::RandomPairs {
            flows,
            spread: SimTime::from_millis(1),
            sizes: sizes(),
        };
        let pattern = |flows_per_pair| WorkloadSpec::Pattern {
            pattern: Pattern::RandomPermutation,
            sizes: sizes(),
            deadlines: deadlines(),
            flows_per_pair,
        };
        let poisson = |rate_flows_per_sec| WorkloadSpec::Poisson {
            rate_flows_per_sec,
            duration: SimTime::from_millis(250),
            sizes: sizes(),
            short_deadlines: deadlines(),
            short_flow_threshold_bytes: 40_000,
            pattern: Pattern::RandomPermutation,
        };
        let coflow = |coflows, width| WorkloadSpec::Coflow {
            coflows,
            width,
            rate_coflows_per_sec: 400.0,
            sizes: sizes(),
            deadlines: deadlines(),
        };
        // What the generators draw: a random permutation has one pair per host.
        for w in [
            WorkloadSpec::QueryAggregation {
                flows: 9,
                sizes: sizes(),
                deadlines: deadlines(),
            },
            pattern(3),
            WorkloadSpec::PermutationAtLoad {
                load: 1.0,
                sizes: sizes(),
                deadlines: deadlines(),
            },
            pairs(7),
            coflow(5, 3),
        ] {
            let drawn = w.generate(&topo, 1).len();
            assert_eq!(w.flow_count(&topo), Some(drawn), "{}", w.kind());
        }
        // Poisson arrivals: the expected count.
        assert_eq!(poisson(2_000.0).flow_count(&topo), Some(500));

        // 2^24 flows fit; one more, or a count that overflows, does not.
        assert!(pairs(MAX_FLOWS).fits(&topo).is_ok());
        for (w, count) in [
            (pairs(MAX_FLOWS + 1), "16777217"),
            (pairs(1_000_000_000_000), "1000000000000"),
            (pattern(1_000_000_000_000), "12000000000000"),
            (pattern(usize::MAX), "over 18446744073709551615"),
            (poisson(1e12), "250000000000"),
            (poisson(1e308), "over 18446744073709551615"),
            (coflow(usize::MAX, 2), "over 18446744073709551615"),
        ] {
            let err = w.fits(&topo).unwrap_err();
            let want = format!("would draw {count} flows, more than the 16777216");
            assert!(err.contains(&want), "{}: {err}", w.kind());
        }
    }

    #[test]
    fn flow_lines_round_trip() {
        let flows = vec![
            FlowSpec::new(1, NodeId(0), NodeId(5), 100_000),
            FlowSpec::new(2, NodeId(3), NodeId(5), 20_000)
                .with_arrival(SimTime::from_millis(10))
                .with_deadline(SimTime::from_millis(30)),
            FlowSpec::new(3, NodeId(4), NodeId(5), 50_000)
                .with_deadline(SimTime::from_millis(40))
                .with_coflow(CoflowTag {
                    id: CoflowId(9),
                    bottleneck_bytes: 60_000,
                    deadline: Some(SimTime::from_millis(40)),
                }),
        ];
        let w = WorkloadSpec::Manual(flows);
        let mut out = kv::Writer::new("h");
        w.write_keys(&mut out);
        let text = out.finish();
        // Untagged lines keep the historical 6-field form byte for byte.
        assert_eq!(
            text,
            "# h\nworkload = manual\nflow = 1 0 5 100000 0 -\n\
             flow = 2 3 5 20000 10000000 30000000\n\
             flow = 3 4 5 50000 0 40000000 9:60000:40000000\n"
        );
        let back = WorkloadSpec::from_keys(&kv::Reader::new(&text, &["flow"]).unwrap()).unwrap();
        assert_eq!(back, w);
        for bad in [
            "1 2 3",
            "1 0 5 100 0 - 9:60000",
            "1 0 5 100 0 - 9:1:2 x",
            "1 0 5 -1 0 -",
        ] {
            assert!(bad.parse::<FlowLine>().is_err(), "{bad}");
        }
    }

    #[test]
    fn coflow_workload_round_trips_and_generates_tagged_groups() {
        let w = WorkloadSpec::Coflow {
            coflows: 6,
            width: 3,
            rate_coflows_per_sec: 400.0,
            sizes: SizeDist::query(),
            deadlines: DeadlineDist::paper_default(),
        };
        let mut out = kv::Writer::new("h");
        w.write_keys(&mut out);
        let text = out.finish();
        assert!(text.starts_with("# h\nworkload = coflow\n"), "{text}");
        let back = WorkloadSpec::from_keys(&kv::Reader::new(&text, &[]).unwrap()).unwrap();
        assert_eq!(back, w);

        let topo = default_paper_tree();
        let flows = w.generate(&topo, 5);
        assert_eq!(flows.len(), 18);
        assert_eq!(flows[0].id.value(), 1, "flow ids start at 1");
        assert!(flows.iter().all(|f| f.coflow.is_some()));
        assert_eq!(
            flows[0].coflow.unwrap().id,
            CoflowId(1),
            "coflow ids start at 1"
        );
        assert_eq!(w.generate(&topo, 5), w.generate(&topo, 5));
        assert_ne!(w.generate(&topo, 5), w.generate(&topo, 6));

        // Sweep axes: load maps to the coflow arrival rate.
        let loaded = w.with_load(900.0).unwrap();
        match loaded {
            WorkloadSpec::Coflow {
                rate_coflows_per_sec,
                ..
            } => assert_eq!(rate_coflows_per_sec, 900.0),
            other => panic!("unexpected workload {other:?}"),
        }
        assert!(w.with_sizes(SizeDist::Fixed(1_000)).is_ok());
        assert!(w.with_deadlines(DeadlineDist::None).is_ok());
    }
}
