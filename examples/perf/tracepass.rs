//! The traced pass: one untraced reference rep for the numbers public results give
//! away, one rep with spans and [`crate::timed`] wrappers on, and replays of the
//! layers the engine keeps to itself (event queue, pacer) or that the sweep runner
//! hides behind one call (cache, record codec, flow and fluid backends).
//! End-to-end numbers never come from here.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pdq_flowsim::{run_flow_level, run_fluid};
use pdq_netsim::{
    EventKind, EventQueue, LinkId, Pacer, PacerConfig, SimConfig, SimTime, MTU_BYTES,
};
use pdq_scenario::{
    lower_to_fluid, ProtocolRegistry, ResultCache, RunSummary, Scenario, SimBackend, SweepOutcome,
};

use crate::harness::{run_mirror, run_sweep_rep, MirrorRun, Outcome, OutputCheck, Probe, SweepRep};
use crate::metrics::{ratio, LayerValues};
use crate::registry::{real_registry, traced_registry};
use crate::spans::{self_time_ns, Tracer};
use crate::timed::{calibrate_timer_ns, kind, Layer, TraceAgg, TraceSnapshot, SAMPLE_EVERY};
use crate::workloads::{Plan, Workload};

/// Hold-model cycles the event-queue replay runs at the most.
const MAX_REPLAY_CYCLES: u64 = 2_000_000;
/// Buckets in the event queue's near-future wheel; beyond them lies the overflow tier.
const WHEEL_BUCKETS: u64 = 1024;

/// The result of a traced pass on one workload.
#[derive(Debug)]
pub struct TracedReport {
    pub workload: &'static str,
    pub seed: u64,
    pub layers: LayerValues,
    pub check: OutputCheck,
    /// Where the span JSONL went.
    pub spans: PathBuf,
}

/// Simulated-time windows a sharded run cannot do without: end time over lookahead.
fn windows_bound(end_time_ns: u64, lookahead_ns: u64) -> u64 {
    if lookahead_ns == 0 {
        0
    } else {
        end_time_ns.div_ceil(lookahead_ns)
    }
}

/// Lookahead quantum of the packet engine on `scenario`'s topology: the smallest
/// per-hop latency, which is also the event queue's bucket width.
fn hop_quantum(scenario: &Scenario) -> SimTime {
    let net = scenario.topology.build().net;
    (0..net.link_count())
        .map(|i| net.link(LinkId(i as u32)).prop_delay)
        .min()
        .unwrap_or(pdq_netsim::DEFAULT_PROP_DELAY)
        .saturating_add(SimConfig::default().processing_delay)
}

/// The wrapped layers as `(span name, aggregate)`, for attaching under a run span.
const SPAN_LAYERS: [(&str, Layer); 7] = [
    ("pdq.switch", Layer::PdqSwitch),
    ("pdq.host", Layer::PdqHost),
    ("baselines.tcp.agent", Layer::TcpAgent),
    ("baselines.rate_host", Layer::RateHost),
    ("baselines.rcp.ctrl", Layer::RcpCtrl),
    ("baselines.d3.ctrl", Layer::D3Ctrl),
    ("topology.ecmp", Layer::Ecmp),
];

fn aggregate_children(snapshot: &TraceSnapshot, timer_ns: f64) -> Vec<(&'static str, u64)> {
    SPAN_LAYERS
        .iter()
        .filter(|(_, layer)| snapshot.layer(*layer).total_calls() > 0)
        .map(|&(name, layer)| (name, snapshot.layer(layer).busy_ns(timer_ns) as u64))
        .collect()
}

/// A small deterministic generator for the replays (xorshift64).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Estimate the event queue's cost per operation with a hold model driven through
/// the public `EventQueue`: keep `pending` events queued; each cycle pops the
/// earliest and schedules a successor a few hops ahead — or, with probability
/// `far_share`, past the wheel into the overflow tier. Returns nanoseconds per
/// operation (a cycle is two: one pop, one push).
pub fn replay_event_queue(bucket: SimTime, pending: u64, far_share: f64, cycles: u64) -> f64 {
    let width = bucket.as_nanos().max(1);
    let horizon = width * WHEEL_BUCKETS;
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut gap = move || {
        if (rng.below(1 << 20) as f64) < far_share * (1 << 20) as f64 {
            horizon + rng.below(horizon)
        } else {
            1 + rng.below(8 * width)
        }
    };
    let mut queue = EventQueue::with_bucket_width(bucket);
    for i in 0..pending.max(1) {
        let link = LinkId((i % 1024) as u32);
        queue.schedule(SimTime::from_nanos(gap()), EventKind::TransmitDone { link });
    }
    let cycles = cycles.max(1);
    let started = Instant::now();
    for _ in 0..cycles {
        let event = queue.pop().expect("the hold model never drains the queue");
        queue.set_now(event.at);
        queue.schedule(event.at + SimTime::from_nanos(gap()), event.kind);
    }
    let ns = started.elapsed().as_nanos() as f64;
    std::hint::black_box(queue.len());
    ns / (2 * cycles) as f64
}

/// Cost of one paced send through the public `Pacer`: full-size packets at 1 Gbit/s,
/// waiting out `next_ready` whenever the bucket is empty. Nanoseconds per send.
pub fn replay_pacer(sends: u64) -> f64 {
    let mut pacer = Pacer::new(PacerConfig::default());
    let mut now = SimTime::ZERO;
    pacer.set_rate_bps(now, 1e9);
    let mut sent = 0u64;
    let started = Instant::now();
    while sent < sends {
        if pacer.try_send(now, u64::from(MTU_BYTES)) {
            sent += 1;
        } else {
            now = pacer.next_ready(now, u64::from(MTU_BYTES));
        }
    }
    let ns = started.elapsed().as_nanos() as f64;
    std::hint::black_box(now);
    ns / sends.max(1) as f64
}

/// The numbers the wrappers and the allocator counted, as layer values. `run_s` is
/// the traced wall time they are shares of.
fn wrapped_layers(layers: &mut LayerValues, snapshot: &TraceSnapshot, timer_ns: f64, run_s: f64) {
    let busy_s = |layer| snapshot.layer(layer).busy_ns(timer_ns) * 1e-9;
    let per_call = |layer| {
        ratio(
            snapshot.layer(layer).busy_ns(timer_ns),
            snapshot.layer(layer).total_calls() as f64,
        )
    };
    let switch = snapshot.layer(Layer::PdqSwitch);
    layers.set("pdq.switch.calls_fwd", switch.calls[kind::FORWARD] as f64);
    layers.set("pdq.switch.calls_rev", switch.calls[kind::REVERSE] as f64);
    layers.set("pdq.switch.calls_tick", switch.calls[kind::TICK] as f64);
    layers.set("pdq.switch.busy_s", busy_s(Layer::PdqSwitch));
    layers.set("pdq.switch.ns_per_call", per_call(Layer::PdqSwitch));
    layers.set("pdq.switch.share", ratio(busy_s(Layer::PdqSwitch), run_s));
    layers.set("pdq.switch.peak_tracked_flows", switch.peak as f64);

    let host = snapshot.layer(Layer::PdqHost);
    layers.set("pdq.host.calls_arrival", host.calls[kind::ARRIVAL] as f64);
    layers.set("pdq.host.calls_packet", host.calls[kind::PACKET] as f64);
    layers.set("pdq.host.calls_timer", host.timer_calls() as f64);
    layers.set("pdq.host.busy_s", busy_s(Layer::PdqHost));
    layers.set("pdq.host.ns_per_call", per_call(Layer::PdqHost));
    layers.set("pdq.host.share", ratio(busy_s(Layer::PdqHost), run_s));
    layers.set("pdq.host.peak_active_senders", host.peak as f64);

    for (calls, busy, layer) in [
        (
            "baselines.tcp.agent_calls",
            "baselines.tcp.agent_busy_s",
            Layer::TcpAgent,
        ),
        (
            "baselines.rate_host.calls",
            "baselines.rate_host.busy_s",
            Layer::RateHost,
        ),
        (
            "baselines.rcp.ctrl_calls",
            "baselines.rcp.ctrl_busy_s",
            Layer::RcpCtrl,
        ),
        (
            "baselines.d3.ctrl_calls",
            "baselines.d3.ctrl_busy_s",
            Layer::D3Ctrl,
        ),
        ("topology.ecmp.calls", "topology.ecmp.busy_s", Layer::Ecmp),
    ] {
        layers.set(calls, snapshot.layer(layer).total_calls() as f64);
        layers.set(busy, busy_s(layer));
    }
    let pacing_timers: u64 = [Layer::PdqHost, Layer::TcpAgent, Layer::RateHost]
        .iter()
        .map(|l| snapshot.layer(*l).calls[kind::TIMER_PACING])
        .sum();
    layers.set("netsim.pacer.timers", pacing_timers as f64);
    layers.set("trace.timer_ns", timer_ns);
    layers.set("trace.sample_every", SAMPLE_EVERY as f64);
}

/// The scheduler and engine numbers public results give away, summed over `outcomes`
/// (the untraced reference rep), with `run_s` the engine time they took.
fn engine_layers(layers: &mut LayerValues, outcomes: &[&Outcome], run_s: f64) {
    let sum = |f: &dyn Fn(&Outcome) -> u64| outcomes.iter().map(|o| f(o)).sum::<u64>() as f64;
    let events = sum(&|o| o.queue.pops);
    layers.set("netsim.event.pushes", sum(&|o| o.queue.pushes));
    layers.set("netsim.event.pops", events);
    let peak = outcomes.iter().map(|o| o.queue.peak_pending).max();
    layers.set("netsim.event.peak_pending", peak.unwrap_or(0) as f64);
    layers.set(
        "netsim.event.overflow_migrations",
        sum(&|o| o.queue.overflow_migrations),
    );
    layers.set(
        "netsim.event.buckets_sorted",
        sum(&|o| o.queue.buckets_sorted),
    );
    layers.set("netsim.engine.events", events);
    let packet_flows = sum(&|o| if o.queue.pops > 0 { o.flows } else { 0 });
    layers.set("netsim.engine.events_per_flow", ratio(events, packet_flows));
    layers.set("netsim.engine.ns_per_event", ratio(run_s * 1e9, events));
    layers.set("netsim.engine.events_per_s", ratio(events, run_s));
    layers.set("netsim.engine.tail_drops", sum(&|o| o.tail_drops));
    layers.set("netsim.engine.flows_unfinished", sum(&|o| o.unfinished));
    layers.set("netsim.engine.run_s", run_s);
}

/// Replay the event queue and the pacer at the reference rep's sizes.
fn replay_layers(layers: &mut LayerValues, scenario: &Scenario, run_s: f64) {
    let pushes = layers.get("netsim.event.pushes");
    let ops = pushes + layers.get("netsim.event.pops");
    let far_share = ratio(layers.get("netsim.event.overflow_migrations"), pushes);
    let ns_per_op = replay_event_queue(
        hop_quantum(scenario),
        layers.get("netsim.event.peak_pending") as u64,
        far_share,
        ((ops / 2.0) as u64).min(MAX_REPLAY_CYCLES),
    );
    layers.set("netsim.event.replay_ns_per_op", ns_per_op);
    layers.set("netsim.event.replay_s", ns_per_op * ops * 1e-9);
    layers.set(
        "netsim.event.est_share",
        ratio(ns_per_op * ops * 1e-9, run_s),
    );
    layers.set("netsim.pacer.replay_ns_per_send", replay_pacer(1_000_000));
}

fn shard_layers(layers: &mut LayerValues, sharded: &MirrorRun, sequential: &MirrorRun) {
    let inputs = &sharded.inputs;
    layers.set("netsim.shard.shards", inputs.shards as f64);
    layers.set("netsim.shard.lookahead_ns", inputs.lookahead_ns as f64);
    layers.set("netsim.shard.cut_links", inputs.cut_links as f64);
    layers.set(
        "netsim.shard.windows_bound",
        windows_bound(sharded.outcome.end_time_ns, inputs.lookahead_ns) as f64,
    );
    layers.set(
        "netsim.shard.speedup",
        ratio(sequential.phases.wall(), sharded.phases.wall()),
    );
    layers.set(
        "netsim.shard.cpu_over_wall",
        ratio(sharded.phases.run_cpu, sharded.phases.run),
    );
}

fn traced_packet(
    workload: &Workload,
    seed: u64,
    real: &Arc<ProtocolRegistry>,
    tracer: &mut Tracer,
    check: &mut OutputCheck,
) -> Result<LayerValues, String> {
    let parse_started = Instant::now();
    let Plan::Scenarios(scenarios) = workload.plan(seed)? else {
        unreachable!("non-sweep workloads plan scenarios");
    };
    let parse_s = parse_started.elapsed().as_secs_f64();

    let reference: Vec<MirrorRun> = scenarios
        .iter()
        .map(|s| run_mirror(s, real, None))
        .collect::<Result<_, _>>()?;
    for run in &reference {
        check.see(&run.outcome, "mirror");
    }

    let timer_ns = calibrate_timer_ns();
    let sink = TraceAgg::new();
    let registry = traced_registry(real, &sink);
    let mut snapshot = TraceSnapshot::default();
    let mut traced: Vec<MirrorRun> = Vec::new();
    for scenario in &scenarios {
        let root = tracer.enter("scenario.run");
        let probe = Probe {
            tracer: &mut *tracer,
            sink: &sink,
        };
        let run = run_mirror(scenario, &registry, Some(probe))?;
        let seen = sink.take();
        let run_span = run.run_span.expect("traced runs record their run span");
        tracer.attach_aggregates(run_span, &aggregate_children(&seen, timer_ns));
        tracer.exit(root);
        check.see(&run.outcome, "traced");
        snapshot.merge(&seen);
        traced.push(run);
    }

    let mut layers = LayerValues::default();
    let phase = |runs: &[MirrorRun], f: &dyn Fn(&MirrorRun) -> f64| runs.iter().map(f).sum::<f64>();
    let run_s = phase(&reference, &|r| r.phases.run);
    let outcomes: Vec<&Outcome> = reference.iter().map(|r| &r.outcome).collect();
    engine_layers(&mut layers, &outcomes, run_s);
    layers.set(
        "netsim.engine.setup_s",
        phase(&reference, &|r| r.phases.engine_setup),
    );
    layers.set("topology.build_s", phase(&reference, &|r| r.phases.build));
    layers.set(
        "topology.partition_s",
        phase(&reference, &|r| r.phases.partition),
    );
    layers.set(
        "workloads.generate_s",
        phase(&reference, &|r| r.phases.generate),
    );
    layers.set("scenario.spec_parse_s", parse_s);
    layers.set(
        "scenario.resolve_s",
        phase(&reference, &|r| r.phases.resolve),
    );
    layers.set(
        "scenario.summarize_s",
        phase(&reference, &|r| r.phases.summarize),
    );
    layers.set(
        "scenario.fingerprint_s",
        phase(&reference, &|r| r.phases.fingerprint),
    );
    let links = reference.iter().map(|r| r.inputs.links).max().unwrap_or(0);
    layers.set("topology.links", links as f64);
    layers.set(
        "workloads.flows",
        phase(&reference, &|r| r.inputs.flows as f64),
    );
    layers.set(
        "workloads.bytes",
        phase(&reference, &|r| r.inputs.bytes as f64),
    );

    let traced_run_s = phase(&traced, &|r| r.phases.run);
    wrapped_layers(&mut layers, &snapshot, timer_ns, traced_run_s);
    let self_s = traced
        .iter()
        .filter_map(|r| r.run_span)
        .map(|id| self_time_ns(tracer.spans(), id))
        .sum::<u64>() as f64
        * 1e-9;
    layers.set("netsim.engine.self_s", self_s);
    layers.set("netsim.engine.self_share", ratio(self_s, traced_run_s));
    let allocs = phase(&traced, &|r| r.allocs.allocs as f64);
    layers.set("netsim.engine.allocs", allocs);
    layers.set(
        "netsim.engine.allocs_per_event",
        ratio(allocs, layers.get("netsim.engine.events")),
    );
    let alloc_peak = traced
        .iter()
        .map(|r| r.allocs.peak_bytes)
        .max()
        .unwrap_or(0);
    layers.set("netsim.engine.alloc_peak_mb", alloc_peak as f64 / 1e6);
    layers.set("trace.overhead_frac", ratio(traced_run_s, run_s) - 1.0);

    // The shard protocol against the sequential engine on the same scenario: the
    // sharded workload is compared with a one-shard run of its spec, the paced WAN
    // workload gets one extra two-shard run of its last scenario. Fingerprints must
    // not depend on the shard count.
    let last = reference
        .last()
        .expect("a workload runs at least one scenario");
    let last_scenario = scenarios.last().expect("as above");
    if last.inputs.shards > 1 {
        let sequential = run_mirror(&last_scenario.clone().engine_threads(1), real, None)?;
        check.see(&sequential.outcome, "one-shard");
        shard_layers(&mut layers, last, &sequential);
    } else if last_scenario.pacing {
        let sharded = run_mirror(&last_scenario.clone().engine_threads(2), real, None)?;
        check.see(&sharded.outcome, "two-shard");
        shard_layers(&mut layers, &sharded, last);
    } else {
        shard_layers(&mut layers, last, last);
    }

    replay_layers(&mut layers, &scenarios[0], run_s);
    Ok(layers)
}

/// Push the cold sweep's summaries through the cache and the record codec, and its
/// flow- and fluid-backend cells through their simulators, one layer at a time.
fn replay_sweep_shell(
    layers: &mut LayerValues,
    tracer: &mut Tracer,
    scenarios: &[Scenario],
    cold: &SweepOutcome,
    real: &ProtocolRegistry,
) -> Result<(), String> {
    /// Close the interval opened at `started`: record its span, return its seconds.
    fn span(tracer: &mut Tracer, name: &str, started: Instant) -> f64 {
        let ended = Instant::now();
        tracer.record(name, started, ended);
        (ended - started).as_secs_f64()
    }
    let root = tracer.enter("scenario.sweep.replay");
    let io = |e: std::io::Error| e.to_string();

    let dir = crate::workdir::scratch_dir("cache-replay").map_err(io)?;
    let cache = ResultCache::open(&dir).map_err(io)?;
    let started = Instant::now();
    for (scenario, summary) in scenarios.iter().zip(&cold.summaries) {
        cache.store(scenario, summary).map_err(io)?;
    }
    layers.set(
        "scenario.cache.store_s",
        span(tracer, "scenario.cache.store", started),
    );
    let started = Instant::now();
    for scenario in scenarios {
        if cache.lookup(scenario).is_none() {
            return Err(format!("{}: stored record not found again", scenario.name));
        }
    }
    layers.set(
        "scenario.cache.lookup_s",
        span(tracer, "scenario.cache.lookup", started),
    );
    let _ = std::fs::remove_dir_all(&dir);

    let started = Instant::now();
    let records: Vec<String> = cold.summaries.iter().map(RunSummary::to_record).collect();
    layers.set(
        "scenario.record_encode_s",
        span(tracer, "scenario.record.encode", started),
    );
    let started = Instant::now();
    for record in &records {
        RunSummary::from_record(record)?;
    }
    layers.set(
        "scenario.record_decode_s",
        span(tracer, "scenario.record.decode", started),
    );
    let started = Instant::now();
    for summary in &cold.summaries {
        std::hint::black_box(summary.fingerprint());
    }
    layers.set(
        "scenario.fingerprint_s",
        span(tracer, "scenario.fingerprint", started),
    );

    // What each cell does before its simulator starts, layer by layer.
    let started = Instant::now();
    let installers = scenarios
        .iter()
        .map(|s| real.resolve(&s.protocol).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    layers.set(
        "scenario.resolve_s",
        span(tracer, "scenario.resolve", started),
    );
    let started = Instant::now();
    let topologies: Vec<_> = scenarios.iter().map(|s| s.topology.build()).collect();
    layers.set("topology.build_s", span(tracer, "topology.build", started));
    let started = Instant::now();
    let flows: Vec<_> = scenarios
        .iter()
        .zip(&topologies)
        .map(|(s, topo)| s.workload.generate(topo, s.seed))
        .collect();
    layers.set(
        "workloads.generate_s",
        span(tracer, "workloads.generate", started),
    );
    let links = topologies.iter().map(|t| t.net.link_count()).max();
    layers.set("topology.links", links.unwrap_or(0) as f64);
    layers.set(
        "workloads.flows",
        flows.iter().map(Vec::len).sum::<usize>() as f64,
    );
    let bytes: u64 = flows.iter().flatten().map(|f| f.size_bytes).sum();
    layers.set("workloads.bytes", bytes as f64);

    let (mut level_s, mut level_flows, mut fluid_s) = (0.0, 0usize, 0.0);
    for (i, scenario) in scenarios.iter().enumerate() {
        match scenario.backend {
            SimBackend::Packet => {}
            SimBackend::Flow => {
                let mut config = installers[i]
                    .flow_config()
                    .ok_or_else(|| format!("{}: no flow-level model", scenario.protocol))?;
                config.max_time = scenario.stop_at;
                let started = Instant::now();
                std::hint::black_box(run_flow_level(
                    &topologies[i],
                    &flows[i],
                    &config,
                    scenario.seed,
                ));
                level_s += span(tracer, "flowsim.level.run", started);
                level_flows += flows[i].len();
            }
            SimBackend::Fluid => {
                let model = installers[i]
                    .fluid_model()
                    .ok_or_else(|| format!("{}: no fluid model", scenario.protocol))?;
                let lowered = lower_to_fluid(&flows[i]);
                let started = Instant::now();
                std::hint::black_box(run_fluid(model, &lowered));
                fluid_s += span(tracer, "flowsim.fluid.run", started);
            }
        }
    }
    layers.set("flowsim.level.run_s", level_s);
    layers.set(
        "flowsim.level.flows_per_s",
        ratio(level_flows as f64, level_s),
    );
    layers.set("flowsim.fluid.run_s", fluid_s);
    tracer.exit(root);
    Ok(())
}

/// Record a sweep rep's cold and warm phases and its cells as spans; returns the
/// cold span.
fn sweep_spans(tracer: &mut Tracer, rep: &SweepRep) -> u32 {
    let cold = tracer.record("scenario.sweep.cold", rep.cold_span.0, rep.cold_span.1);
    for cell in &rep.cells {
        let name = format!("scenario.sweep.cell[{}]", cell.protocol);
        let id = tracer.record_in(Some(cold), &name, cell.start, cell.end);
        if let Some(installed) = cell.installed {
            tracer.record_in(Some(id), "netsim.engine.run", installed, cell.end);
        }
    }
    tracer.record("scenario.sweep.warm", rep.warm_span.0, rep.warm_span.1);
    cold
}

fn traced_sweep(
    workload: &Workload,
    seed: u64,
    real: &Arc<ProtocolRegistry>,
    tracer: &mut Tracer,
    check: &mut OutputCheck,
) -> Result<LayerValues, String> {
    let (reference, _) = run_sweep_rep(workload, seed, real)?;
    let timer_ns = calibrate_timer_ns();
    let sink = TraceAgg::new();
    let registry = Arc::new(traced_registry(real, &sink));
    let (traced, cold) = run_sweep_rep(workload, seed, &registry)?;
    let snapshot = sink.take();
    for (rep, source) in [(&reference, "sweep"), (&traced, "traced")] {
        for outcome in &rep.outcomes {
            check.see(outcome, source);
        }
        check.problems.extend(rep.problems.iter().cloned());
    }
    let cold_span = sweep_spans(tracer, &traced);
    tracer.attach_aggregates(cold_span, &aggregate_children(&snapshot, timer_ns));

    let mut layers = LayerValues::default();
    let run_s = reference.cell_run_s();
    let outcomes: Vec<&Outcome> = reference.outcomes.iter().collect();
    engine_layers(&mut layers, &outcomes, run_s);
    layers.set("netsim.engine.setup_s", reference.cell_setup_s());
    layers.set("scenario.spec_parse_s", reference.plan_s);
    layers.set("scenario.sweep.cold_s", reference.cold_s());
    layers.set("scenario.sweep.warm_s", reference.warm_s());
    layers.set("scenario.sweep.hits", reference.hits as f64);
    layers.set(
        "scenario.sweep.parallel_eff",
        ratio(
            reference.cold_cpu,
            crate::harness::SWEEP_THREADS as f64 * reference.cold_s(),
        ),
    );
    layers.set("netsim.shard.shards", 1.0);
    layers.set(
        "netsim.shard.cpu_over_wall",
        ratio(reference.cold_cpu, reference.cold_s()),
    );

    // Shares are of the cold sweep's CPU time: its cells run on two threads.
    wrapped_layers(&mut layers, &snapshot, timer_ns, traced.cold_cpu);
    let busy_s: f64 = aggregate_children(&snapshot, timer_ns)
        .iter()
        .map(|(_, ns)| *ns as f64 * 1e-9)
        .sum();
    let self_s = (traced.cell_run_s() - busy_s).max(0.0);
    layers.set("netsim.engine.self_s", self_s);
    layers.set(
        "netsim.engine.self_share",
        ratio(self_s, traced.cell_run_s()),
    );
    layers.set(
        "trace.overhead_frac",
        ratio(traced.cold_s(), reference.cold_s()) - 1.0,
    );

    let Plan::Sweep(sweep) = workload.plan(seed)? else {
        unreachable!("the sweep workload plans a sweep");
    };
    replay_sweep_shell(&mut layers, tracer, &sweep.scenarios, &cold, real)?;
    replay_layers(&mut layers, &sweep.scenarios[0], run_s);
    Ok(layers)
}

/// Run the traced pass on `workload` and write its spans to `spans_to` (default:
/// `spans-<workload>.jsonl` in the work directory).
pub fn traced_pass(
    workload: &Workload,
    seed: u64,
    spans_to: Option<&Path>,
) -> Result<TracedReport, String> {
    let real = real_registry();
    let mut tracer = Tracer::new(workload.name);
    let mut check = OutputCheck::default();
    let layers = if workload.is_sweep() {
        traced_sweep(workload, seed, &real, &mut tracer, &mut check)?
    } else {
        traced_packet(workload, seed, &real, &mut tracer, &mut check)?
    };
    if seed == 1 {
        check.check_pins(workload.name);
    }
    let spans = match spans_to {
        Some(path) => path.to_path_buf(),
        None => {
            let dir = crate::workdir::root();
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            dir.join(format!("spans-{}.jsonl", workload.name))
        }
    };
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    Ok(TracedReport {
        workload: workload.name,
        seed,
        layers,
        check,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_hold_model_keeps_the_queue_full_and_costs_something() {
        let ns = replay_event_queue(SimTime::from_micros(25), 500, 0.05, 20_000);
        assert!(ns > 0.0 && ns < 100_000.0, "{ns}");
        // Degenerate sizes are clamped, not a panic.
        assert!(replay_event_queue(SimTime::ZERO, 0, 0.0, 0) > 0.0);
    }

    #[test]
    fn windows_are_end_time_over_lookahead_rounded_up() {
        assert_eq!(windows_bound(1_000, 0), 0);
        assert_eq!(windows_bound(1_001, 100), 11);
    }

    #[test]
    fn the_pacer_replay_sends_what_it_was_asked_to() {
        let ns = replay_pacer(10_000);
        assert!(ns > 0.0 && ns < 100_000.0, "{ns}");
    }
}
