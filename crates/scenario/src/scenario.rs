//! The [`Scenario`] value: everything one simulation run needs, as plain data,
//! executable on either simulation backend (packet-level or flow-level).

use std::fmt;

use pdq_flowsim::{run_flow_level, run_fluid, FluidFlow};
use pdq_netsim::{FlowSpec, LinkId, SimConfig, SimResults, SimTime, Simulator, TraceConfig};
use pdq_topology::{EcmpRouter, Partition, Topology};

use crate::backend::SimBackend;
use crate::kv;
use crate::protocol::{ProtocolInstaller, ProtocolRegistry, RegistryError};
use crate::spec::{TopologySpec, WorkloadSpec};
use crate::summary::{BackendResults, RunSummary};

/// Default simulated-time cap: the harness' historical `run_packet_level` limit.
pub const DEFAULT_STOP_AT: SimTime = SimTime::from_secs(20);

/// The `engine_threads` rule: there is no auto-detected shard count.
const SHARD_COUNT: &str = "want a shard count of at least 1 (omit engine_threads for one)";

/// Errors building or running a scenario.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The protocol spec string did not resolve through the registry.
    Protocol(RegistryError),
    /// A plain-text scenario spec failed to parse.
    Spec(String),
    /// The protocol resolved, but has no model for the requested backend.
    Backend {
        /// The protocol spec string that lacks the backend.
        protocol: String,
        /// The backend the scenario asked for.
        backend: SimBackend,
        /// Families in the registry that do advertise this backend, sorted.
        supported: Vec<String>,
    },
    /// An I/O failure persisting or streaming results (cache store, JSONL sink).
    /// The simulation itself succeeded; losing its record silently would defeat
    /// the resumable-sweep guarantee, so it surfaces loudly.
    Io(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Protocol(e) => write!(f, "{e}"),
            ScenarioError::Spec(msg) => write!(f, "bad scenario spec: {msg}"),
            ScenarioError::Backend {
                protocol,
                backend,
                supported,
            } => write!(
                f,
                "protocol {protocol:?} does not support the {backend} backend; \
                 families supporting {backend}: {}",
                if supported.is_empty() {
                    "(none)".to_string()
                } else {
                    supported.join(", ")
                }
            ),
            ScenarioError::Io(msg) => write!(f, "result I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<RegistryError> for ScenarioError {
    fn from(e: RegistryError) -> Self {
        ScenarioError::Protocol(e)
    }
}

/// A complete, self-contained description of one packet-level experiment run:
/// topology, workload, protocol, seed and stop time.
///
/// Scenarios are plain data — buildable with the fluent methods, serializable to a
/// plain-text spec ([`Scenario::to_spec`] / [`Scenario::from_spec`]) and executable
/// against any [`ProtocolRegistry`] ([`Scenario::run`]). The same scenario value
/// always produces the same [`RunSummary`].
///
/// ```
/// use std::sync::Arc;
/// use pdq_netsim::{Ctx, FlowId, FlowInfo, HostAgent, Packet, PacketKind, Simulator, TimerKind};
/// use pdq_scenario::{ProtocolInstaller, ProtocolRegistry, Scenario, TopologySpec, WorkloadSpec};
/// use pdq_workloads::{DeadlineDist, SizeDist};
///
/// // A toy protocol: blast the whole flow at once, complete on full receipt.
/// struct Blast;
/// impl HostAgent for Blast {
///     fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
///         let mut off = 0;
///         while off < flow.spec.size_bytes {
///             let pay = (flow.spec.size_bytes - off).min(1444) as u32;
///             ctx.send(Packet::data(flow.spec.id, flow.spec.src, flow.spec.dst, off, pay));
///             off += pay as u64;
///         }
///     }
///     fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
///         if packet.kind == PacketKind::Data {
///             let size = ctx.flow(packet.flow).unwrap().spec.size_bytes;
///             if packet.seq + packet.payload as u64 >= size {
///                 ctx.flow_completed(packet.flow);
///             }
///         }
///     }
///     fn on_timer(&mut self, _: FlowId, _: TimerKind, _: u64, _: &mut Ctx) {}
/// }
///
/// struct BlastInstaller;
/// impl ProtocolInstaller for BlastInstaller {
///     fn name(&self) -> String { "blast".into() }
///     fn label(&self) -> String { "Blast".into() }
///     fn install(&self, sim: &mut Simulator) {
///         sim.install_agents(|_, _| Box::new(Blast));
///     }
/// }
///
/// let mut registry = ProtocolRegistry::new();
/// registry.register_instance(Arc::new(BlastInstaller));
///
/// let scenario = Scenario::new("doc")
///     .topology(TopologySpec::SingleBottleneck { senders: 4, access_loss: 0.0 })
///     .workload(WorkloadSpec::QueryAggregation {
///         flows: 4,
///         sizes: SizeDist::Fixed(50_000),
///         deadlines: DeadlineDist::None,
///     })
///     .protocol("blast")
///     .seed(7);
/// let summary = scenario.run(&registry).unwrap();
/// assert_eq!(summary.completed, 4);
/// assert_eq!(Scenario::from_spec(&scenario.to_spec()).unwrap(), scenario);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name (free-form; used in summaries and sweep output).
    pub name: String,
    /// Which simulation engine executes the run (default: packet-level).
    pub backend: SimBackend,
    /// The topology to build.
    pub topology: TopologySpec,
    /// The workload to generate on it.
    pub workload: WorkloadSpec,
    /// Protocol spec string resolved through the registry at run time.
    pub protocol: String,
    /// Seed for both workload generation and the simulation RNG.
    pub seed: u64,
    /// Hard cap on simulated time.
    pub stop_at: SimTime,
    /// Time-series sampling configuration (packet backend only).
    pub trace: TraceConfig,
    /// Shard count for the packet engine's [`pdq_netsim::Simulator::run_sharded`]:
    /// 1 (default) is one core on the caller's thread, N ≥ 2 a
    /// [`Partition::of_topology`] cut. 0 is refused.
    pub engine_threads: u32,
    /// RFC 9002-style sender pacing (spec key `pacing = on|off`, default off).
    /// Resolved through [`ProtocolInstaller::with_pacing`]; protocols without a
    /// paced variant fail loudly, and only the packet backend models pacing.
    pub pacing: bool,
    /// Override every link's queue capacity, in bytes (spec key
    /// `topology.queue_bytes`). `None` (the default) keeps each topology's own
    /// sizing — the 4 MB intra-DC default or the WAN builder's BDP scaling.
    pub queue_capacity: Option<u64>,
}

impl Scenario {
    /// A scenario with the harness defaults: the paper tree, a 10-flow
    /// deadline-constrained query aggregation, PDQ(Full), seed 1, 20 s cap, no traces.
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            backend: SimBackend::Packet,
            topology: TopologySpec::PaperTree,
            workload: WorkloadSpec::QueryAggregation {
                flows: 10,
                sizes: pdq_workloads::SizeDist::query(),
                deadlines: pdq_workloads::DeadlineDist::paper_default(),
            },
            protocol: "pdq(full)".into(),
            seed: 1,
            stop_at: DEFAULT_STOP_AT,
            trace: TraceConfig::default(),
            engine_threads: 1,
            pacing: false,
            queue_capacity: None,
        }
    }

    /// Set the simulation backend.
    pub fn backend(mut self, backend: SimBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Set the topology.
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Set the workload.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Set the protocol spec string (e.g. `pdq(full)`, `mpdq(3)`, `tcp`).
    pub fn protocol(mut self, protocol: impl Into<String>) -> Self {
        self.protocol = protocol.into();
        self
    }

    /// Set the seed (drives both workload generation and the simulation RNG).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the simulated-time cap.
    pub fn stop_at(mut self, stop_at: SimTime) -> Self {
        self.stop_at = stop_at;
        self
    }

    /// Enable time-series tracing.
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Set the packet-engine shard count (1 = one core, the default).
    pub fn engine_threads(mut self, engine_threads: u32) -> Self {
        self.engine_threads = engine_threads;
        self
    }

    /// Enable or disable RFC 9002-style sender pacing.
    pub fn pacing(mut self, pacing: bool) -> Self {
        self.pacing = pacing;
        self
    }

    /// Override every link's queue capacity in bytes.
    pub fn queue_capacity(mut self, bytes: u64) -> Self {
        self.queue_capacity = Some(bytes);
        self
    }

    /// Execute the scenario on its backend: build the topology, generate the
    /// workload, resolve the protocol, run the simulation, and summarize.
    ///
    /// The packet backend installs the protocol's agents/controllers on the
    /// discrete-event engine; the flow backend runs the flow-level loop with the
    /// protocol's model from [`ProtocolInstaller::flow_config`]; the
    /// fluid backend lowers it onto the §2.1 single bottleneck via
    /// [`ProtocolInstaller::fluid_model`] (see [`lower_to_fluid`]). Either lowering
    /// fails with [`ScenarioError::Backend`] for protocols without that model, and the
    /// fluid one with [`ScenarioError::Spec`] when the flows do not all share one
    /// receiver, the one bottleneck the model has.
    pub fn run(&self, registry: &ProtocolRegistry) -> Result<RunSummary, ScenarioError> {
        if self.engine_threads == 0 {
            return Err(ScenarioError::Spec(SHARD_COUNT.into()));
        }
        let mut installer = registry.resolve(&self.protocol)?;
        if self.pacing {
            if self.backend != SimBackend::Packet {
                return Err(ScenarioError::Spec(format!(
                    "pacing = on requires the packet backend, not {}",
                    self.backend
                )));
            }
            installer = installer
                .with_pacing(pdq_netsim::PacerConfig::default())
                .ok_or_else(|| {
                    ScenarioError::Spec(format!(
                        "protocol {:?} has no paced variant (pacing = on)",
                        self.protocol
                    ))
                })?;
        }
        let mut topo = self.topology.build();
        if let Some(bytes) = self.queue_capacity {
            for link in &mut topo.net.links {
                link.queue_capacity_bytes = bytes;
            }
        }
        self.workload.fits(&topo).map_err(ScenarioError::Spec)?;
        let links = topo.net.link_count();
        if let Some(bad) = self.trace.links.iter().find(|l| l.0 as usize >= links) {
            return Err(ScenarioError::Spec(format!(
                "trace.links: link {} does not exist (the topology has {links} links)",
                bad.0
            )));
        }
        let flows = self.workload.generate(&topo, self.seed);
        let mut summary = match self.backend {
            SimBackend::Packet => {
                let results = execute(
                    &topo,
                    &flows,
                    &*installer,
                    self.seed,
                    self.trace.clone(),
                    self.stop_at,
                    self.engine_threads,
                );
                RunSummary::new(self, installer.label(), results)
            }
            SimBackend::Flow => {
                let mut cfg = installer
                    .flow_config()
                    .ok_or_else(|| ScenarioError::Backend {
                        protocol: self.protocol.clone(),
                        backend: SimBackend::Flow,
                        supported: registry.families_supporting(SimBackend::Flow),
                    })?;
                cfg.max_time = self.stop_at;
                let results = run_flow_level(&topo, &flows, &cfg, self.seed);
                RunSummary::summarize(self, installer.label(), BackendResults::Flow(results))
            }
            SimBackend::Fluid => {
                let model = installer
                    .fluid_model()
                    .ok_or_else(|| ScenarioError::Backend {
                        protocol: self.protocol.clone(),
                        backend: SimBackend::Fluid,
                        supported: registry.families_supporting(SimBackend::Fluid),
                    })?;
                if let Some(f) = flows.iter().find(|f| f.dst != flows[0].dst) {
                    return Err(ScenarioError::Spec(format!(
                        "backend = fluid models one bottleneck shared by every flow, their \
                         common receiver's link, but flows {} and {} go to nodes {} and {}",
                        flows[0].id.value(),
                        f.id.value(),
                        flows[0].dst.index(),
                        f.dst.index()
                    )));
                }
                let results = run_fluid(model, &lower_to_fluid(&flows));
                RunSummary::summarize(self, installer.label(), BackendResults::Fluid(results))
            }
        };
        summary.attach_coflows(&flows);
        Ok(summary)
    }

    /// Serialize to the plain-text spec format (`key = value` lines under a `#`
    /// header). A key at its default — `backend`, `engine_threads`,
    /// `pacing`, `topology.queue_bytes`, the `trace.*` keys — is not written, so a
    /// spec serializes exactly as it did before the key existed.
    pub fn to_spec(&self) -> String {
        let mut w = kv::Writer::new("pdq scenario spec v1");
        w.put("scenario", &self.name);
        w.put("protocol", &self.protocol);
        if self.backend != SimBackend::default() {
            w.put("backend", self.backend);
        }
        w.put("seed", self.seed);
        w.put("stop_at_ns", self.stop_at.as_nanos());
        w.put("topology", &self.topology);
        if self.engine_threads != 1 {
            w.put("engine_threads", self.engine_threads);
        }
        if self.pacing {
            w.put("pacing", "on");
        }
        if let Some(bytes) = self.queue_capacity {
            w.put("topology.queue_bytes", bytes);
        }
        self.workload.write_keys(&mut w);
        if self.trace != TraceConfig::default() {
            w.put("trace.interval_ns", self.trace.interval.as_nanos());
            if !self.trace.links.is_empty() {
                let links: Vec<String> = self.trace.links.iter().map(|l| l.0.to_string()).collect();
                w.put("trace.links", links.join(","));
            }
            if self.trace.flows {
                w.put("trace.flows", true);
            }
        }
        w.finish()
    }

    /// Parse the [`Scenario::to_spec`] format. A repeated key (other than `flow`)
    /// and a key the scenario does not use are refused, so a typo or a leftover
    /// line fails loudly rather than silently changing the run.
    pub fn from_spec(text: &str) -> Result<Self, ScenarioError> {
        Self::read_spec(text).map_err(|e| ScenarioError::Spec(e.to_string()))
    }

    /// Reads the keys in the order [`Scenario::to_spec`] writes them, which keeps
    /// each lookup short.
    fn read_spec(text: &str) -> Result<Self, kv::Error> {
        let r = kv::Reader::new(text, &["flow"])?;
        let scenario = Scenario {
            name: r.required("scenario")?,
            protocol: r.required("protocol")?,
            backend: r.optional("backend")?.unwrap_or_default(),
            seed: r.required("seed")?,
            stop_at: SimTime::from_nanos(r.required("stop_at_ns")?),
            topology: r.required("topology")?,
            engine_threads: r.get("engine_threads").map_or(Ok(1), |f| {
                f.parse_with(|v| v.parse().ok().filter(|&n| n > 0).ok_or(SHARD_COUNT))
            })?,
            pacing: match r.get("pacing") {
                None => false,
                Some(f) => f.parse_with(|v| match v {
                    "on" => Ok(true),
                    "off" => Ok(false),
                    _ => Err("want on or off"),
                })?,
            },
            queue_capacity: r.optional("topology.queue_bytes")?,
            workload: WorkloadSpec::from_keys(&r)?,
            trace: TraceConfig {
                interval: SimTime::from_nanos(r.optional("trace.interval_ns")?.unwrap_or(0)),
                links: match r.get("trace.links") {
                    None => Vec::new(),
                    Some(f) => f.parse_with(|v| {
                        v.split(',')
                            .map(|part| part.trim().parse().map(LinkId))
                            .collect::<Result<_, _>>()
                    })?,
                },
                flows: r.optional("trace.flows")?.unwrap_or(false),
            },
        };
        r.reject_unread(format_args!(
            " (not used by workload {:?})",
            scenario.workload.kind()
        ))?;
        Ok(scenario)
    }
}

/// Lower a generated flow list onto the §2.1 fluid model's single bottleneck:
/// sizes in bytes, deadlines in seconds, in arrival order. [`pdq_flowsim::run_fluid`]
/// schedules them at [`pdq_flowsim::FLUID_RATE_BPS`], one byte per second.
///
/// The fluid model assumes every flow is present from time zero, so arrival times
/// do not shift completions — they (tie-broken by flow id) only fix the order the
/// [`pdq_flowsim::FluidModel::D3`] reservation loop grants requests in, which is
/// exactly the degree of freedom the paper's Figure 1d explores. Topology is
/// ignored: whatever the scenario builds, the fluid model sees one shared link.
pub fn lower_to_fluid(flows: &[FlowSpec]) -> Vec<(u64, FluidFlow)> {
    let mut order: Vec<&FlowSpec> = flows.iter().collect();
    order.sort_by_key(|f| (f.arrival, f.id.value()));
    order
        .into_iter()
        .map(|f| {
            (
                f.id.value(),
                FluidFlow {
                    size: f.size_bytes as f64,
                    deadline: f.deadline.map(|d| d.as_secs_f64()),
                },
            )
        })
        .collect()
}

/// Run one packet-level simulation with the harness' canonical setup: ECMP routing,
/// the given installer, `stop_at` simulated-time cap, `engine_threads` engine shards.
///
/// This is the single execution path shared by [`Scenario::run`] and the lower-level
/// `run_packet_level` helper, so scenario runs and direct flow-list runs are
/// bit-for-bit identical. [`Partition::of_topology`] cuts at most that many shards
/// (`pdq_netsim::shard` has the determinism model); one shard, asked for or all a
/// single-rack topology allows, is the same engine loop on the caller's thread.
pub fn execute(
    topo: &Topology,
    flows: &[FlowSpec],
    installer: &dyn ProtocolInstaller,
    seed: u64,
    trace: TraceConfig,
    stop_at: SimTime,
    engine_threads: u32,
) -> SimResults {
    let assignment = Partition::of_topology(topo, engine_threads).to_assignment(&topo.net);
    let config = SimConfig {
        seed,
        trace,
        max_sim_time: stop_at,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net.clone(), config);
    sim.set_router(EcmpRouter::new());
    installer.install(&mut sim);
    sim.add_flows(flows.iter().cloned());
    sim.run_sharded(&assignment, |_| Box::new(EcmpRouter::new()))
}

/// Run a packet-level simulation of `flows` over `topo` under `installer`, with the
/// default 20 s simulated-time cap — the escape hatch for hand-built flow lists.
pub fn run_packet_level(
    topo: &Topology,
    flows: &[FlowSpec],
    installer: &dyn ProtocolInstaller,
    seed: u64,
    trace: TraceConfig,
) -> SimResults {
    execute(topo, flows, installer, seed, trace, DEFAULT_STOP_AT, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_workloads::{DeadlineDist, Pattern, SizeDist};

    fn sample_scenarios() -> Vec<Scenario> {
        vec![
            Scenario::new("defaults"),
            Scenario::new("fig5-ish")
                .workload(WorkloadSpec::Poisson {
                    rate_flows_per_sec: 1500.0,
                    duration: SimTime::from_millis(80),
                    sizes: SizeDist::vl2_like(),
                    short_deadlines: DeadlineDist::paper_default(),
                    short_flow_threshold_bytes: 40_000,
                    pattern: Pattern::RandomPermutation,
                })
                .protocol("rcp")
                .seed(11),
            Scenario::new("fig9-ish")
                .topology(TopologySpec::SingleBottleneck {
                    senders: 12,
                    access_loss: 0.02,
                })
                .protocol("tcp"),
            Scenario::new("traced")
                .workload(WorkloadSpec::Manual(vec![FlowSpec::new(
                    1,
                    pdq_netsim::NodeId(1),
                    pdq_netsim::NodeId(3),
                    100_000,
                )]))
                .trace(TraceConfig {
                    interval: SimTime::from_millis(1),
                    links: vec![LinkId(2), LinkId(5)],
                    flows: true,
                }),
            Scenario::new("load")
                .topology(TopologySpec::BCube { n: 2, k: 3 })
                .workload(WorkloadSpec::PermutationAtLoad {
                    load: 0.25,
                    sizes: SizeDist::UniformMean(1_000_000),
                    deadlines: DeadlineDist::None,
                })
                .protocol("mpdq(3)")
                .seed(4)
                .stop_at(SimTime::from_secs(5)),
            Scenario::new("flow-level")
                .backend(SimBackend::Flow)
                .topology(TopologySpec::FatTree { hosts: 16 })
                .workload(WorkloadSpec::Pattern {
                    pattern: Pattern::RandomPermutation,
                    sizes: SizeDist::UniformMean(100_000),
                    deadlines: DeadlineDist::None,
                    flows_per_pair: 2,
                })
                .protocol("rcp")
                .seed(3)
                .stop_at(SimTime::from_secs(60)),
            Scenario::new("fluid")
                .backend(SimBackend::Fluid)
                .topology(TopologySpec::SingleBottleneck {
                    senders: 3,
                    access_loss: 0.0,
                })
                .workload(WorkloadSpec::Manual(vec![
                    FlowSpec::new(1, pdq_netsim::NodeId(1), pdq_netsim::NodeId(4), 1)
                        .with_deadline(SimTime::from_secs(1)),
                    FlowSpec::new(2, pdq_netsim::NodeId(2), pdq_netsim::NodeId(4), 2)
                        .with_deadline(SimTime::from_secs(4)),
                ]))
                .protocol("d3"),
            Scenario::new("coflow")
                .workload(WorkloadSpec::Coflow {
                    coflows: 5,
                    width: 4,
                    rate_coflows_per_sec: 800.0,
                    sizes: SizeDist::query(),
                    deadlines: DeadlineDist::paper_default(),
                })
                .protocol("cpdq")
                .seed(9),
            Scenario::new("sharded")
                .topology(TopologySpec::FatTree { hosts: 16 })
                .workload(WorkloadSpec::Pattern {
                    pattern: Pattern::RandomPermutation,
                    sizes: SizeDist::Fixed(20_000),
                    deadlines: DeadlineDist::None,
                    flows_per_pair: 1,
                })
                .protocol("tcp")
                .seed(5)
                .engine_threads(4),
            Scenario::new("wan-paced")
                .topology(TopologySpec::Wan {
                    sites: 4,
                    hosts_per_site: 2,
                    rtt_ms: 60.0,
                    gbps: 2.5,
                    loss_rate: 0.0001,
                })
                .workload(WorkloadSpec::RandomPairs {
                    flows: 40,
                    spread: SimTime::from_millis(50),
                    sizes: SizeDist::UniformMean(200_000),
                })
                .protocol("pdq(full)")
                .pacing(true)
                .queue_capacity(16 * 1024 * 1024)
                .seed(2),
        ]
    }

    #[test]
    fn spec_round_trips_exactly() {
        for s in sample_scenarios() {
            let text = s.to_spec();
            let back = Scenario::from_spec(&text).unwrap_or_else(|e| panic!("{text}\n{e}"));
            assert_eq!(back, s, "{text}");
            // Serialization is stable (canonical form).
            assert_eq!(back.to_spec(), text);
        }
    }

    #[test]
    fn packet_specs_never_write_a_backend_key() {
        // Byte-compatibility: the default backend serializes exactly as before the
        // backend axis existed, while flow/fluid scenarios carry an explicit key.
        assert!(!Scenario::new("a").to_spec().contains("backend"));
        let flow = Scenario::new("a").backend(SimBackend::Flow).to_spec();
        assert!(flow.contains("backend = flow"), "{flow}");
        let fluid = Scenario::new("a").backend(SimBackend::Fluid).to_spec();
        assert!(fluid.contains("backend = fluid"), "{fluid}");
        assert!(Scenario::from_spec("scenario = a\nbackend = liquid\n").is_err());
    }

    #[test]
    fn sequential_specs_never_write_an_engine_threads_key() {
        // Byte-compatibility: the default (sequential) engine serializes exactly as
        // before the shard axis existed; non-default counts carry an explicit key.
        assert!(!Scenario::new("a").to_spec().contains("engine_threads"));
        let sharded = Scenario::new("a").engine_threads(4).to_spec();
        assert!(sharded.contains("engine_threads = 4"), "{sharded}");
        let mut bad = Scenario::new("a").to_spec();
        bad.push_str("engine_threads = lots\n");
        assert!(Scenario::from_spec(&bad).is_err());
    }

    #[test]
    fn zero_engine_threads_is_refused_naming_the_replacement() {
        // There is no auto-detected shard count: a spec key of 0 is a spec error
        // on its line, and a scenario built with 0 refuses to run.
        let auto = Scenario::new("a").engine_threads(0);
        let err = Scenario::from_spec(&auto.to_spec())
            .unwrap_err()
            .to_string();
        assert!(err.contains("engine_threads: bad value \"0\""), "{err}");
        assert!(err.contains("omit engine_threads for one"), "{err}");
        let registry = ProtocolRegistry::new();
        match auto.run(&registry) {
            Err(ScenarioError::Spec(msg)) => assert!(msg.contains("at least 1"), "{msg}"),
            other => panic!("expected a spec error, got {other:?}"),
        }
    }

    #[test]
    fn default_specs_never_write_pacing_or_queue_keys() {
        // Byte-compatibility: pacing-off, default-queue scenarios serialize exactly
        // as before the WAN axes existed.
        let plain = Scenario::new("a").to_spec();
        assert!(!plain.contains("pacing"), "{plain}");
        assert!(!plain.contains("queue_bytes"), "{plain}");
        let paced = Scenario::new("a").pacing(true).queue_capacity(1 << 20);
        let text = paced.to_spec();
        assert!(text.contains("pacing = on"), "{text}");
        assert!(text.contains("topology.queue_bytes = 1048576"), "{text}");
        assert!(Scenario::from_spec("scenario = a\npacing = maybe\n").is_err());
        // `pacing = off` parses back to the default.
        let mut off = Scenario::new("a").to_spec();
        off.push_str("pacing = off\n");
        assert!(!Scenario::from_spec(&off).unwrap().pacing);
    }

    #[test]
    fn pacing_requires_a_paced_packet_protocol() {
        use pdq_netsim::Simulator;
        use std::sync::Arc;

        struct Unpaceable;
        impl ProtocolInstaller for Unpaceable {
            fn name(&self) -> String {
                "unpaceable".into()
            }
            fn label(&self) -> String {
                "Unpaceable".into()
            }
            fn install(&self, _sim: &mut Simulator) {}
        }
        let mut registry = ProtocolRegistry::new();
        registry.register_instance(Arc::new(Unpaceable));
        let err = Scenario::new("a")
            .protocol("unpaceable")
            .pacing(true)
            .run(&registry)
            .unwrap_err();
        assert!(err.to_string().contains("paced variant"), "{err}");
    }

    #[test]
    fn queue_capacity_override_reaches_the_engine() {
        use pdq_netsim::{
            Ctx, FlowId, FlowInfo, HostAgent, Packet, PacketKind, Simulator, TimerKind,
        };
        use std::sync::Arc;

        // Blast the whole flow at once: with the default 4 MB queues everything
        // arrives; squeezed to ~2 packets of queue, most of the burst tail-drops.
        struct Blast;
        impl HostAgent for Blast {
            fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
                let mut off = 0;
                while off < flow.spec.size_bytes {
                    let pay = (flow.spec.size_bytes - off).min(1444) as u32;
                    ctx.send(Packet::data(
                        flow.spec.id,
                        flow.spec.src,
                        flow.spec.dst,
                        off,
                        pay,
                    ));
                    off += pay as u64;
                }
            }
            fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
                if packet.kind == PacketKind::Data {
                    let size = ctx.flow(packet.flow).unwrap().spec.size_bytes;
                    if packet.seq + packet.payload as u64 >= size {
                        ctx.flow_completed(packet.flow);
                    }
                }
            }
            fn on_timer(&mut self, _: FlowId, _: TimerKind, _: u64, _: &mut Ctx) {}
        }
        struct BlastInstaller;
        impl ProtocolInstaller for BlastInstaller {
            fn name(&self) -> String {
                "blast".into()
            }
            fn label(&self) -> String {
                "Blast".into()
            }
            fn install(&self, sim: &mut Simulator) {
                sim.install_agents(|_, _| Box::new(Blast));
            }
        }
        let mut registry = ProtocolRegistry::new();
        registry.register_instance(Arc::new(BlastInstaller));
        let scenario = Scenario::new("q")
            .topology(TopologySpec::SingleBottleneck {
                senders: 1,
                access_loss: 0.0,
            })
            .workload(WorkloadSpec::Manual(vec![FlowSpec::new(
                1,
                pdq_netsim::NodeId(1),
                pdq_netsim::NodeId(2),
                100_000,
            )]))
            .protocol("blast");
        let roomy = scenario.clone().run(&registry).unwrap();
        assert_eq!(roomy.completed, 1);
        let squeezed = scenario.queue_capacity(3_000).run(&registry).unwrap();
        assert_eq!(
            squeezed.completed, 0,
            "tiny queues must tail-drop the burst"
        );
    }

    #[test]
    fn fluid_lowering_is_arrival_ordered_and_unit_consistent() {
        let flows = vec![
            FlowSpec::new(1, pdq_netsim::NodeId(1), pdq_netsim::NodeId(3), 300)
                .with_arrival(SimTime::from_nanos(5)),
            FlowSpec::new(2, pdq_netsim::NodeId(2), pdq_netsim::NodeId(3), 100)
                .with_deadline(SimTime::from_millis(1500)),
        ];
        let lowered = lower_to_fluid(&flows);
        // Flow 2 arrives at t=0, before flow 1's 5 ns — arrival order wins.
        assert_eq!(lowered[0].0, 2);
        assert_eq!(lowered[0].1.size, 100.0);
        assert_eq!(lowered[0].1.deadline, Some(1.5));
        assert_eq!(lowered[1].0, 1);
        assert_eq!(lowered[1].1.deadline, None);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(Scenario::from_spec("scenario x").is_err());
        assert!(Scenario::from_spec("scenario = a\n").is_err()); // missing keys
        let mut good = Scenario::new("a").to_spec();
        good.push_str("mystery = 1\n");
        let err = Scenario::from_spec(&good).unwrap_err();
        assert!(err.to_string().contains("mystery"), "{err}");
        // The rejection names the full valid key set, fixed and workload keys alike.
        let msg = err.to_string();
        assert!(msg.contains("valid keys:"), "{msg}");
        for key in [
            "topology",
            "engine_threads",
            "workload.sizes",
            "workload.flows",
        ] {
            assert!(msg.contains(key), "{key} missing from: {msg}");
        }
    }

    #[test]
    fn spec_rejects_keys_of_other_workload_kinds() {
        // A leftover key from a different workload kind must not be silently ignored.
        let mut spec = Scenario::new("a").to_spec(); // query_aggregation workload
        spec.push_str("workload.rate_flows_per_sec = 16000\n");
        let err = Scenario::from_spec(&spec).unwrap_err();
        assert!(err.to_string().contains("rate_flows_per_sec"), "{err}");

        // A stray flow line outside a manual workload is equally fatal.
        let mut spec = Scenario::new("a").to_spec();
        spec.push_str("flow = 1 0 1 1000 0 -\n");
        let err = Scenario::from_spec(&spec).unwrap_err();
        assert!(err.to_string().contains("flow"), "{err}");
    }

    #[test]
    fn spec_rejects_workloads_the_generators_cannot_draw() {
        // Each of these used to parse and then panic inside the workload generator.
        let poisson = sample_scenarios()[1].to_spec();
        assert!(poisson.contains("workload.rate_flows_per_sec = 1500\n"));
        for rate in ["0", "-5", "nan", "inf"] {
            let spec = poisson.replace(
                "workload.rate_flows_per_sec = 1500\n",
                &format!("workload.rate_flows_per_sec = {rate}\n"),
            );
            let err = Scenario::from_spec(&spec).unwrap_err().to_string();
            assert!(err.contains("rate_flows_per_sec"), "{rate}: {err}");
        }
        let sizes = format!("workload.sizes = {}\n", SizeDist::vl2_like());
        assert!(poisson.contains(&sizes));
        let spec = poisson.replace(&sizes, "workload.sizes = pareto:30000:1\n");
        let err = Scenario::from_spec(&spec).unwrap_err().to_string();
        assert!(err.contains("tail index"), "{err}");

        // The load axis of a Poisson workload is its arrival rate: the same rule.
        let workload = &sample_scenarios()[1].workload;
        for load in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            assert!(workload.with_load(load).is_err(), "load {load}");
        }
        assert!(workload.with_load(900.0).is_ok());
    }

    #[test]
    fn spec_rejects_size_ranges_and_patterns_the_generators_cannot_draw() {
        use pdq_netsim::Simulator;
        use std::sync::Arc;

        // The committed flow-level Figure 8a spec, one line replaced: each of these
        // used to parse and then panic inside the workload generator.
        let fig8a = include_str!("../../../specs/fig8a_flow.scn");
        let sizes = "workload.sizes = uniform:2000:198000\n";
        let pattern = "workload.pattern = random_permutation\n";
        for (line, replacement, needle) in [
            (sizes, "workload.sizes = uniform:200000:100\n", "min <= max"),
            (pattern, "workload.pattern = staggered:1.5\n", "[0, 1]"),
            (pattern, "workload.pattern = staggered:NaN\n", "[0, 1]"),
            (pattern, "workload.pattern = stride:0\n", "stride of 0"),
        ] {
            assert!(fig8a.contains(line), "{line}");
            let err = Scenario::from_spec(&fig8a.replace(line, replacement)).unwrap_err();
            assert!(
                matches!(&err, ScenarioError::Spec(m) if m.contains(needle)),
                "{replacement}: {err}"
            );
        }

        // A stride that is a multiple of the host count parses — it depends on the
        // topology — and is refused once the topology is built, before any flow is
        // generated or any protocol installed.
        struct Inert;
        impl ProtocolInstaller for Inert {
            fn name(&self) -> String {
                "inert".into()
            }
            fn label(&self) -> String {
                "Inert".into()
            }
            fn install(&self, _sim: &mut Simulator) {}
        }
        let mut registry = ProtocolRegistry::new();
        registry.register_instance(Arc::new(Inert));
        let spec = fig8a.replace(pattern, "workload.pattern = stride:16\n");
        let scenario = Scenario::from_spec(&spec).unwrap().protocol("inert");
        let err = scenario.run(&registry).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Spec(m) if m.contains("to itself")),
            "{err}"
        );
        let topo = scenario.topology.build();
        for (stride, fits) in [(5, true), (16, false), (32, false), (17, true)] {
            let mut workload = scenario.workload.clone();
            let WorkloadSpec::Pattern { pattern, .. } = &mut workload else {
                panic!("fig8a is a pattern workload");
            };
            *pattern = Pattern::Stride(stride);
            assert_eq!(workload.fits(&topo).is_ok(), fits, "stride {stride}");
        }
    }
}
