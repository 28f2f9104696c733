//! Declarative topology and workload specifications.
//!
//! [`TopologySpec`] and [`WorkloadSpec`] are plain-data descriptions that a
//! [`crate::Scenario`] serializes into its plain-text spec and materializes at run
//! time. They cover every setup the paper's figures use; workload generation
//! reproduces the experiment harness' historical RNG draw order exactly, so a spec
//! plus a seed pins down the flow set byte for byte.

use pdq_netsim::{CoflowId, CoflowTag, FlowSpec, LinkParams, NodeId, SimTime};
use pdq_topology::{
    bcube::{bcube, bcube_with_at_least},
    fattree::fat_tree_with_at_least,
    jellyfish::jellyfish_paper_config,
    single::{default_paper_tree, single_bottleneck, single_bottleneck_with_access_loss},
    wan::{wan, WanParams},
    Topology,
};
use pdq_workloads::{
    coflow_flows, coflow_set, pattern_flows, poisson_flows, query_aggregation_flows, CoflowConfig,
    DeadlineDist, Pattern, PoissonConfig, SizeDist, WorkloadConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
    /// `bcube(n, k)`: BCube with the given level count and switch port count
    /// (Figure 11 uses BCube(2,3)).
    BCube {
        /// BCube level parameter `n`.
        n: usize,
        /// Switch port count `k`.
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
            } => {
                if access_loss > 0.0 {
                    single_bottleneck_with_access_loss(senders, link, access_loss)
                } else {
                    single_bottleneck(senders, link)
                }
            }
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

    /// One-token spec form, parseable back via [`TopologySpec::parse`].
    pub fn spec_token(&self) -> String {
        match *self {
            TopologySpec::PaperTree => "paper_tree".into(),
            TopologySpec::SingleBottleneck {
                senders,
                access_loss,
            } => {
                if access_loss > 0.0 {
                    format!("single_bottleneck:{senders}:loss={access_loss}")
                } else {
                    format!("single_bottleneck:{senders}")
                }
            }
            TopologySpec::FatTree { hosts } => format!("fat_tree:{hosts}"),
            TopologySpec::BCube { n, k } => format!("bcube:{n}:{k}"),
            TopologySpec::BCubeHosts { hosts, n } => format!("bcube_hosts:{hosts}:{n}"),
            TopologySpec::Jellyfish { hosts, seed } => format!("jellyfish:{hosts}:{seed}"),
            TopologySpec::Wan {
                sites,
                hosts_per_site,
                rtt_ms,
                gbps,
                loss_rate,
            } => {
                if loss_rate > 0.0 {
                    format!("wan:{sites}:{hosts_per_site}:{rtt_ms}:{gbps}:loss={loss_rate}")
                } else {
                    format!("wan:{sites}:{hosts_per_site}:{rtt_ms}:{gbps}")
                }
            }
        }
    }

    /// Parse the [`TopologySpec::spec_token`] form.
    pub fn parse(s: &str) -> Result<Self, String> {
        let bad = || format!("unrecognized topology: {s:?}");
        if s == "paper_tree" {
            return Ok(TopologySpec::PaperTree);
        }
        let mut parts = s.split(':');
        let kind = parts.next().ok_or_else(bad)?;
        let next_usize = |parts: &mut std::str::Split<'_, char>| -> Result<usize, String> {
            parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())
        };
        let spec = match kind {
            "single_bottleneck" => {
                let senders = next_usize(&mut parts)?;
                let access_loss = match parts.next() {
                    None => 0.0,
                    Some(arg) => arg
                        .strip_prefix("loss=")
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(bad)?,
                };
                TopologySpec::SingleBottleneck {
                    senders,
                    access_loss,
                }
            }
            "fat_tree" => TopologySpec::FatTree {
                hosts: next_usize(&mut parts)?,
            },
            "bcube" => TopologySpec::BCube {
                n: next_usize(&mut parts)?,
                k: next_usize(&mut parts)?,
            },
            "bcube_hosts" => TopologySpec::BCubeHosts {
                hosts: next_usize(&mut parts)?,
                n: next_usize(&mut parts)?,
            },
            "jellyfish" => {
                let hosts = next_usize(&mut parts)?;
                let seed = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                TopologySpec::Jellyfish { hosts, seed }
            }
            "wan" => {
                let sites = next_usize(&mut parts)?;
                let hosts_per_site = next_usize(&mut parts)?;
                let mut next_f64 = || -> Result<f64, String> {
                    parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())
                };
                let rtt_ms = next_f64()?;
                let gbps = next_f64()?;
                let loss_rate = match parts.next() {
                    None => 0.0,
                    Some(arg) => arg
                        .strip_prefix("loss=")
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(bad)?,
                };
                TopologySpec::Wan {
                    sites,
                    hosts_per_site,
                    rtt_ms,
                    gbps,
                    loss_rate,
                }
            }
            _ => return Err(bad()),
        };
        if parts.next().is_some() {
            return Err(bad());
        }
        Ok(spec)
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

    /// Whether [`WorkloadSpec::generate`] can draw this workload on `topo`: a stride
    /// that is a multiple of the host count would send every host to itself. (What
    /// depends on no topology is refused at parse time.)
    pub(crate) fn fits(&self, topo: &Topology) -> Result<(), String> {
        let hosts = topo.host_count();
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
            _ => Ok(()),
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
            } => *rate_flows_per_sec = poisson_rate(load)?,
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

    /// Append this workload's `key = value` spec lines to `out` (keys are prefixed
    /// `workload.`; manual flows use repeated `flow` keys).
    pub(crate) fn write_keys(&self, out: &mut Vec<(String, String)>) {
        let mut push = |k: &str, v: String| out.push((k.to_string(), v));
        push("workload", self.kind().to_string());
        match self {
            WorkloadSpec::QueryAggregation {
                flows,
                sizes,
                deadlines,
            } => {
                push("workload.flows", flows.to_string());
                push("workload.sizes", sizes.to_string());
                push("workload.deadlines", deadlines.to_string());
            }
            WorkloadSpec::Pattern {
                pattern,
                sizes,
                deadlines,
                flows_per_pair,
            } => {
                push("workload.pattern", pattern.to_string());
                push("workload.sizes", sizes.to_string());
                push("workload.deadlines", deadlines.to_string());
                push("workload.flows_per_pair", flows_per_pair.to_string());
            }
            WorkloadSpec::Poisson {
                rate_flows_per_sec,
                duration,
                sizes,
                short_deadlines,
                short_flow_threshold_bytes,
                pattern,
            } => {
                push(
                    "workload.rate_flows_per_sec",
                    rate_flows_per_sec.to_string(),
                );
                push("workload.duration_ns", duration.as_nanos().to_string());
                push("workload.sizes", sizes.to_string());
                push("workload.short_deadlines", short_deadlines.to_string());
                push(
                    "workload.short_threshold_bytes",
                    short_flow_threshold_bytes.to_string(),
                );
                push("workload.pattern", pattern.to_string());
            }
            WorkloadSpec::PermutationAtLoad {
                load,
                sizes,
                deadlines,
            } => {
                push("workload.load", load.to_string());
                push("workload.sizes", sizes.to_string());
                push("workload.deadlines", deadlines.to_string());
            }
            WorkloadSpec::RandomPairs {
                flows,
                spread,
                sizes,
            } => {
                push("workload.flows", flows.to_string());
                push("workload.spread_ns", spread.as_nanos().to_string());
                push("workload.sizes", sizes.to_string());
            }
            WorkloadSpec::Coflow {
                coflows,
                width,
                rate_coflows_per_sec,
                sizes,
                deadlines,
            } => {
                push("workload.coflows", coflows.to_string());
                push("workload.width", width.to_string());
                push(
                    "workload.rate_coflows_per_sec",
                    rate_coflows_per_sec.to_string(),
                );
                push("workload.sizes", sizes.to_string());
                push("workload.deadlines", deadlines.to_string());
            }
            WorkloadSpec::Manual(flows) => {
                for f in flows {
                    let deadline = f
                        .deadline
                        .map(|d| d.as_nanos().to_string())
                        .unwrap_or_else(|| "-".to_string());
                    // The coflow tag is a 7th field written only when present, so
                    // untagged flow lines stay byte-identical to older specs.
                    let coflow = f
                        .coflow
                        .map(|t| {
                            let d = t
                                .deadline
                                .map(|d| d.as_nanos().to_string())
                                .unwrap_or_else(|| "-".to_string());
                            format!(" {}:{}:{d}", t.id.value(), t.bottleneck_bytes)
                        })
                        .unwrap_or_default();
                    push(
                        "flow",
                        format!(
                            "{} {} {} {} {} {deadline}{coflow}",
                            f.id.value(),
                            f.src.0,
                            f.dst.0,
                            f.size_bytes,
                            f.arrival.as_nanos()
                        ),
                    );
                }
            }
        }
    }

    /// Rebuild a workload from its spec keys: the `workload =` kind token, a lookup
    /// for `workload.<key>` values, and the repeated `flow` lines (manual workloads).
    pub(crate) fn from_keys(
        kind: &str,
        get: &dyn Fn(&str) -> Option<String>,
        flow_lines: &[String],
    ) -> Result<Self, String> {
        let require = |key: &str| get(key).ok_or_else(|| format!("missing key workload.{key}"));
        let parse_sizes = |v: String| v.parse::<SizeDist>();
        let parse_deadlines = |v: String| v.parse::<DeadlineDist>();
        match kind {
            "query_aggregation" => Ok(WorkloadSpec::QueryAggregation {
                flows: require("flows")?
                    .parse()
                    .map_err(|_| "bad workload.flows".to_string())?,
                sizes: parse_sizes(require("sizes")?)?,
                deadlines: parse_deadlines(require("deadlines")?)?,
            }),
            "pattern" => Ok(WorkloadSpec::Pattern {
                pattern: require("pattern")?.parse()?,
                sizes: parse_sizes(require("sizes")?)?,
                deadlines: parse_deadlines(require("deadlines")?)?,
                flows_per_pair: require("flows_per_pair")?
                    .parse()
                    .map_err(|_| "bad workload.flows_per_pair".to_string())?,
            }),
            "poisson" => Ok(WorkloadSpec::Poisson {
                rate_flows_per_sec: require("rate_flows_per_sec")?
                    .parse()
                    .map_err(|_| "bad workload.rate_flows_per_sec".to_string())
                    .and_then(|rate| {
                        poisson_rate(rate)
                            .map_err(|e| format!("bad workload.rate_flows_per_sec: {e}"))
                    })?,
                duration: SimTime::from_nanos(
                    require("duration_ns")?
                        .parse()
                        .map_err(|_| "bad workload.duration_ns".to_string())?,
                ),
                sizes: parse_sizes(require("sizes")?)?,
                short_deadlines: parse_deadlines(require("short_deadlines")?)?,
                short_flow_threshold_bytes: require("short_threshold_bytes")?
                    .parse()
                    .map_err(|_| "bad workload.short_threshold_bytes".to_string())?,
                pattern: require("pattern")?.parse()?,
            }),
            "permutation_at_load" => Ok(WorkloadSpec::PermutationAtLoad {
                load: require("load")?
                    .parse()
                    .map_err(|_| "bad workload.load".to_string())?,
                sizes: parse_sizes(require("sizes")?)?,
                deadlines: parse_deadlines(require("deadlines")?)?,
            }),
            "random_pairs" => Ok(WorkloadSpec::RandomPairs {
                flows: require("flows")?
                    .parse()
                    .map_err(|_| "bad workload.flows".to_string())?,
                spread: SimTime::from_nanos(
                    require("spread_ns")?
                        .parse()
                        .map_err(|_| "bad workload.spread_ns".to_string())?,
                ),
                sizes: parse_sizes(require("sizes")?)?,
            }),
            "coflow" => Ok(WorkloadSpec::Coflow {
                coflows: require("coflows")?
                    .parse()
                    .map_err(|_| "bad workload.coflows".to_string())?,
                width: require("width")?
                    .parse()
                    .map_err(|_| "bad workload.width".to_string())?,
                rate_coflows_per_sec: require("rate_coflows_per_sec")?
                    .parse()
                    .map_err(|_| "bad workload.rate_coflows_per_sec".to_string())?,
                sizes: parse_sizes(require("sizes")?)?,
                deadlines: parse_deadlines(require("deadlines")?)?,
            }),
            "manual" => {
                let mut flows = Vec::with_capacity(flow_lines.len());
                for line in flow_lines {
                    flows.push(parse_flow_line(line)?);
                }
                Ok(WorkloadSpec::Manual(flows))
            }
            _ => Err(format!("unrecognized workload kind: {kind:?}")),
        }
    }
}

/// A Poisson arrival rate the generator can draw gaps from: positive and finite.
fn poisson_rate(rate: f64) -> Result<f64, String> {
    if rate.is_finite() && rate > 0.0 {
        Ok(rate)
    } else {
        Err(format!(
            "a Poisson arrival rate must be a positive, finite number of flows per second, \
             got {rate}"
        ))
    }
}

fn parse_flow_line(line: &str) -> Result<FlowSpec, String> {
    let bad = || {
        format!(
            "bad flow line: {line:?} (want: id src dst bytes arrival_ns deadline_ns|- \
             [coflow_id:bottleneck_bytes:deadline_ns|-])"
        )
    };
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() != 6 && fields.len() != 7 {
        return Err(bad());
    }
    let id: u64 = fields[0].parse().map_err(|_| bad())?;
    let src: u32 = fields[1].parse().map_err(|_| bad())?;
    let dst: u32 = fields[2].parse().map_err(|_| bad())?;
    let bytes: u64 = fields[3].parse().map_err(|_| bad())?;
    let arrival: u64 = fields[4].parse().map_err(|_| bad())?;
    let mut spec = FlowSpec::new(id, NodeId(src), NodeId(dst), bytes)
        .with_arrival(SimTime::from_nanos(arrival));
    if fields[5] != "-" {
        let deadline: u64 = fields[5].parse().map_err(|_| bad())?;
        spec = spec.with_deadline(SimTime::from_nanos(deadline));
    }
    if let Some(tag) = fields.get(6) {
        let parts: Vec<&str> = tag.split(':').collect();
        if parts.len() != 3 {
            return Err(bad());
        }
        let cid: u64 = parts[0].parse().map_err(|_| bad())?;
        let bottleneck: u64 = parts[1].parse().map_err(|_| bad())?;
        let deadline = if parts[2] == "-" {
            None
        } else {
            Some(SimTime::from_nanos(parts[2].parse().map_err(|_| bad())?))
        };
        spec = spec.with_coflow(CoflowTag {
            id: CoflowId(cid),
            bottleneck_bytes: bottleneck,
            deadline,
        });
    }
    Ok(spec)
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
            let token = s.spec_token();
            assert_eq!(TopologySpec::parse(&token).expect(&token), s, "{token}");
        }
        assert!(TopologySpec::parse("torus:4").is_err());
        assert!(TopologySpec::parse("fat_tree:16:extra").is_err());
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
        let w = WorkloadSpec::Manual(flows.clone());
        let mut keys = Vec::new();
        w.write_keys(&mut keys);
        let flow_lines: Vec<String> = keys
            .iter()
            .filter(|(k, _)| k == "flow")
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(flow_lines.len(), 3);
        // Untagged lines keep the historical 6-field form byte for byte.
        assert_eq!(flow_lines[0], "1 0 5 100000 0 -");
        assert_eq!(flow_lines[2], "3 4 5 50000 0 40000000 9:60000:40000000");
        let back = WorkloadSpec::from_keys("manual", &|_| None, &flow_lines).unwrap();
        assert_eq!(back, w);
        assert!(parse_flow_line("1 2 3").is_err());
        assert!(parse_flow_line("1 0 5 100 0 - 9:60000").is_err());
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
        let mut keys = Vec::new();
        w.write_keys(&mut keys);
        assert_eq!(keys[0], ("workload".to_string(), "coflow".to_string()));
        let lookup = |k: &str| {
            keys.iter()
                .find(|(key, _)| key == &format!("workload.{k}"))
                .map(|(_, v)| v.clone())
        };
        let back = WorkloadSpec::from_keys("coflow", &lookup, &[]).unwrap();
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
