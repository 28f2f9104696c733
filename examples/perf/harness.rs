//! The timed pass: one warm-up rep through the one-call path, then timed reps
//! through a phase-timed mirror of `Scenario::run`, with the output checks.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use pdq_netsim::{
    FlowSpec, LinkId, PacerConfig, QueueStats, ShardAssignment, SimConfig, SimTime, Simulator,
};
use pdq_scenario::{
    default_threads, request_fingerprint, CachePolicy, InstallerHandle, ProtocolRegistry,
    ResultCache, RunSummary, Scenario, SimBackend, Sweep, SweepOutcome,
};
use pdq_topology::{EcmpRouter, Partition, Topology};

use crate::alloc::{count_during, AllocCount};
use crate::metrics::{ratio, END_TO_END};
use crate::registry::{cells_of, hooked_registry, real_registry, Cell, CellLog};
use crate::spans::Tracer;
use crate::stats::Quartiles;
use crate::sys;
use crate::timed::{Layer, Timed, TraceAgg};
use crate::workloads::{cell_key, Plan, Workload, SWEEP_CELLS};

/// Timed reps a run makes at the least, whatever `--seconds` says.
pub const MIN_REPS: usize = 5;
/// Set-up rounds timed after each rep; `setup_s` is the median over all of them.
const SETUPS_PER_REP: usize = 5;
/// Worker threads of the sweep workload (the container's core count).
pub const SWEEP_THREADS: usize = 2;

const PINS: &str = include_str!("pins.txt");

/// A 128-bit digest of a `RunSummary::fingerprint()` (two chained FNV-1a passes):
/// what `pins.txt` holds and reps compare, in place of the ~300 KB string itself.
pub fn digest(text: &str) -> String {
    fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
        bytes.iter().fold(basis, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let lo = fnv1a64(text.as_bytes(), OFFSET);
    let hi = fnv1a64(text.as_bytes(), lo ^ OFFSET);
    format!("{hi:016x}{lo:016x}")
}

/// The seed-1 digest pinned for `key` of `workload`, if any.
pub fn pinned(workload: &str, key: &str) -> Option<&'static str> {
    PINS.lines().find_map(|line| {
        let mut words = line.split_whitespace();
        (words.next()? == workload && words.next()? == key)
            .then(|| words.next())
            .flatten()
    })
}

/// Host seconds of each phase of one mirrored scenario run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Phases {
    pub resolve: f64,
    pub build: f64,
    pub generate: f64,
    pub partition: f64,
    pub engine_setup: f64,
    pub run: f64,
    pub summarize: f64,
    pub fingerprint: f64,
    /// Process CPU seconds of the `run` phase, and of all phases together.
    pub run_cpu: f64,
    pub cpu: f64,
}

impl Phases {
    /// Everything before the first simulated event.
    pub fn setup(&self) -> f64 {
        self.resolve + self.build + self.generate + self.partition + self.engine_setup
    }

    pub fn wall(&self) -> f64 {
        self.setup() + self.run + self.summarize + self.fingerprint
    }
}

/// What the harness keeps of a run once its summary is dropped: the count fields,
/// the scheduler telemetry and the fingerprint digest.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub key: String,
    pub digest: String,
    pub flows: u64,
    pub completed: u64,
    pub terminated: u64,
    pub failed: u64,
    pub unfinished: u64,
    pub deadline_flows: u64,
    pub deadlines_met: u64,
    pub mean_fct_secs: Option<f64>,
    pub end_time_ns: u64,
    /// Packet backend only (zero otherwise).
    pub queue: QueueStats,
    pub tail_drops: u64,
}

impl Outcome {
    pub fn of(key: String, summary: &RunSummary, fingerprint: &str) -> Outcome {
        let packet = summary.results.packet();
        Outcome {
            key,
            digest: digest(fingerprint),
            flows: summary.flows as u64,
            completed: summary.completed as u64,
            terminated: summary.terminated as u64,
            failed: summary.failed as u64,
            unfinished: summary.unfinished as u64,
            deadline_flows: summary.deadline_flows as u64,
            deadlines_met: summary.deadlines_met as u64,
            mean_fct_secs: summary.mean_fct_secs,
            end_time_ns: summary.end_time.as_nanos(),
            queue: packet.map(|r| r.queue).unwrap_or_default(),
            tail_drops: packet.map_or(0, |r| r.total_tail_drops()),
        }
    }

    /// Flows brought to an outcome: finished, or given up on by the protocol.
    pub fn flows_done(&self) -> u64 {
        self.completed + self.terminated
    }

    /// Operations this run failed: flows the router could not place or that were
    /// still active at the stop time — or every flow, when the run's output is
    /// `invalid` (reps disagree, or the fingerprint is not the pinned one). Missed
    /// deadlines and Early Terminations are simulated results, not failures.
    pub fn failed_ops(&self, invalid: bool) -> u64 {
        if invalid {
            self.flows
        } else {
            self.failed + self.unfinished
        }
    }
}

/// Size of the inputs a mirrored run was given.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Inputs {
    pub links: u64,
    pub flows: u64,
    pub bytes: u64,
    pub shards: u64,
    pub cut_links: u64,
    /// Conservative lookahead of the cut, engine processing delay included; 0 on
    /// one shard.
    pub lookahead_ns: u64,
}

/// The traced pass's handles into a mirrored run.
pub struct Probe<'a> {
    pub tracer: &'a mut Tracer,
    pub sink: &'a Arc<TraceAgg>,
}

/// One scenario through the mirror.
#[derive(Clone, Debug)]
pub struct MirrorRun {
    pub phases: Phases,
    pub outcome: Outcome,
    pub inputs: Inputs,
    /// Allocator activity inside `netsim.engine.run` (traced runs only).
    pub allocs: AllocCount,
    /// The `netsim.engine.run` span (traced runs only).
    pub run_span: Option<u32>,
}

/// Ends a phase: returns its seconds and, when tracing, records its span.
struct Lap<'a, 'b> {
    at: Instant,
    probe: &'a mut Option<Probe<'b>>,
    last_span: Option<u32>,
}

impl Lap<'_, '_> {
    fn end(&mut self, name: &str) -> f64 {
        let now = Instant::now();
        if let Some(probe) = self.probe {
            self.last_span = Some(probe.tracer.record(name, self.at, now));
        }
        let secs = (now - self.at).as_secs_f64();
        self.at = now;
        secs
    }
}

/// A scenario set up and about to run: everything `Scenario::run` does before the
/// first simulated event.
struct Ready {
    installer: InstallerHandle,
    topo: Topology,
    flows: Vec<FlowSpec>,
    partition: Option<Partition>,
    assignment: Option<ShardAssignment>,
    sim: Simulator,
    processing_delay: SimTime,
}

/// The set-up half of the mirror: resolve, topology build, workload generation,
/// partition, `Simulator::new` + `set_router(EcmpRouter)` + `installer.install` +
/// `add_flows`, in `Scenario::run`'s order. Fills the set-up fields of `phases`.
fn set_up(
    scenario: &Scenario,
    registry: &ProtocolRegistry,
    sink: Option<&Arc<TraceAgg>>,
    phases: &mut Phases,
    lap: &mut Lap,
) -> Result<Ready, String> {
    if scenario.backend != SimBackend::Packet {
        return Err(format!(
            "{}: the mirror runs packet scenarios",
            scenario.name
        ));
    }
    let mut installer = registry
        .resolve(&scenario.protocol)
        .map_err(|e| e.to_string())?;
    if scenario.pacing {
        installer = installer
            .with_pacing(PacerConfig::default())
            .ok_or_else(|| format!("{:?} has no paced variant", scenario.protocol))?;
    }
    phases.resolve = lap.end("scenario.resolve");

    let mut topo = scenario.topology.build();
    if let Some(bytes) = scenario.queue_capacity {
        for link in &mut topo.net.links {
            link.queue_capacity_bytes = bytes;
        }
    }
    phases.build = lap.end("topology.build");

    let flows = scenario.workload.generate(&topo, scenario.seed);
    phases.generate = lap.end("workloads.generate");

    let threads = match scenario.engine_threads {
        0 => default_threads() as u32,
        n => n,
    };
    let partition = (threads > 1)
        .then(|| Partition::of_topology(&topo, threads))
        .filter(|p| p.shards() > 1);
    phases.partition = lap.end("topology.partition");

    let config = SimConfig {
        seed: scenario.seed,
        trace: scenario.trace.clone(),
        max_sim_time: scenario.stop_at,
        ..SimConfig::default()
    };
    let processing_delay = config.processing_delay;
    let mut sim = Simulator::new(topo.net.clone(), config);
    match sink {
        Some(sink) => sim.set_router(Timed::ungauged(EcmpRouter::new(), Layer::Ecmp, sink)),
        None => sim.set_router(EcmpRouter::new()),
    }
    installer.install(&mut sim);
    sim.add_flows(flows.iter().cloned());
    let assignment = partition.as_ref().map(|p| p.to_assignment(&topo.net));
    phases.engine_setup = lap.end("netsim.engine.setup");
    Ok(Ready {
        installer,
        topo,
        flows,
        partition,
        assignment,
        sim,
        processing_delay,
    })
}

/// Set `scenario` up once more, untraced, and return the seconds it took.
fn time_set_up(scenario: &Scenario, registry: &ProtocolRegistry) -> Result<f64, String> {
    let mut phases = Phases::default();
    let mut lap = Lap {
        at: Instant::now(),
        probe: &mut None,
        last_span: None,
    };
    set_up(scenario, registry, None, &mut phases, &mut lap)?;
    Ok(phases.setup())
}

/// The body of `Scenario::run` + `fingerprint()` for a packet-backend scenario,
/// phase by phase, through public items only. With a `probe`, the router is wrapped
/// (the registry passed in wraps the agents and controllers) and allocations inside
/// the run are counted; nothing the simulation can see changes.
pub fn run_mirror(
    scenario: &Scenario,
    registry: &ProtocolRegistry,
    mut probe: Option<Probe>,
) -> Result<MirrorRun, String> {
    let sink = probe.as_ref().map(|p| Arc::clone(p.sink));
    let cpu_start = sys::cpu_seconds();
    let mut phases = Phases::default();
    let mut lap = Lap {
        at: Instant::now(),
        probe: &mut probe,
        last_span: None,
    };
    let Ready {
        installer,
        topo,
        flows,
        partition,
        assignment,
        sim,
        processing_delay,
    } = set_up(scenario, registry, sink.as_ref(), &mut phases, &mut lap)?;

    let run_cpu_start = sys::cpu_seconds();
    let run = || match &assignment {
        None => sim.run(),
        Some(assignment) => sim.run_sharded(assignment, |_| match &sink {
            Some(sink) => Box::new(Timed::ungauged(EcmpRouter::new(), Layer::Ecmp, sink)),
            None => Box::new(EcmpRouter::new()),
        }),
    };
    let (results, allocs) = match &sink {
        Some(_) => count_during(run),
        None => (run(), AllocCount::default()),
    };
    phases.run_cpu = sys::cpu_seconds() - run_cpu_start;
    phases.run = lap.end("netsim.engine.run");
    let run_span = lap.last_span;

    let mut summary = RunSummary::new(scenario, installer.label(), results);
    summary.attach_coflows(&flows);
    phases.summarize = lap.end("scenario.summarize");

    let fingerprint = summary.fingerprint();
    phases.fingerprint = lap.end("scenario.fingerprint");
    phases.cpu = sys::cpu_seconds() - cpu_start;

    let net = &topo.net;
    let (shards, cut_links, lookahead_ns) = match &partition {
        None => (1, 0, 0),
        Some(p) => (
            u64::from(p.shards()),
            (0..net.link_count())
                .map(|i| net.link(LinkId(i as u32)))
                .filter(|l| p.shard_of(l.src) != p.shard_of(l.dst))
                .count() as u64,
            p.lookahead(net).saturating_add(processing_delay).as_nanos(),
        ),
    };
    Ok(MirrorRun {
        phases,
        outcome: Outcome::of(cell_key(scenario), &summary, &fingerprint),
        inputs: Inputs {
            links: net.link_count() as u64,
            flows: flows.len() as u64,
            bytes: flows.iter().map(|f| f.size_bytes).sum(),
            shards,
            cut_links,
            lookahead_ns,
        },
        allocs,
        run_span,
    })
}

/// One rep of the sweep workload: the grid cold into a fresh cache, then warm.
#[derive(Clone, Debug)]
pub struct SweepRep {
    /// Spec parse and grid expansion; cache open and request fingerprints.
    pub plan_s: f64,
    pub open_s: f64,
    pub cold_cpu: f64,
    pub cpu: f64,
    /// Cells the warm sweep served from the cache.
    pub hits: u64,
    /// The cold sweep's cells as the registry hooks saw them, and the instants the
    /// two sweeps started and ended (for the traced pass's spans).
    pub cells: Vec<Cell>,
    pub cold_span: (Instant, Instant),
    pub warm_span: (Instant, Instant),
    pub outcomes: Vec<Outcome>,
    pub problems: Vec<String>,
}

impl SweepRep {
    pub fn cold_s(&self) -> f64 {
        (self.cold_span.1 - self.cold_span.0).as_secs_f64()
    }

    pub fn warm_s(&self) -> f64 {
        (self.warm_span.1 - self.warm_span.0).as_secs_f64()
    }

    /// Per-cell host time before the first simulated event (packet cells).
    pub fn cell_setup_s(&self) -> f64 {
        self.cells
            .iter()
            .filter_map(|c| Some((c.installed? - c.start).as_secs_f64()))
            .sum()
    }

    /// Per-cell host time from protocol install to the end of the cell (packet
    /// cells): the engine run, with the cell's summary and cache store behind it.
    pub fn cell_run_s(&self) -> f64 {
        self.cells
            .iter()
            .filter_map(|c| Some((c.end - c.installed?).as_secs_f64()))
            .sum()
    }
}

/// What the sweep driver does before its first cell: open a fresh cache directory
/// and compute every cell's request fingerprint. The caller removes the directory.
fn open_sweep_cache(sweep: &Sweep) -> Result<(PathBuf, ResultCache), String> {
    let dir = crate::workdir::scratch_dir("sweep-cache").map_err(|e| e.to_string())?;
    let cache = ResultCache::open(&dir).map_err(|e| e.to_string())?;
    for scenario in &sweep.scenarios {
        std::hint::black_box(request_fingerprint(scenario));
    }
    Ok((dir, cache))
}

/// Run the sweep workload once against `inner` (the real or the traced registry).
/// Returns the cold sweep's summaries too; the traced pass replays them through the
/// cache and the record codec.
pub fn run_sweep_rep(
    workload: &Workload,
    seed: u64,
    inner: &Arc<ProtocolRegistry>,
) -> Result<(SweepRep, SweepOutcome), String> {
    let cpu_start = sys::cpu_seconds();
    let started = Instant::now();
    let Plan::Sweep(sweep) = workload.plan(seed)? else {
        return Err(format!("{} is not a sweep workload", workload.name));
    };
    let planned = Instant::now();
    let (dir, cache) = open_sweep_cache(&sweep)?;
    let log = Arc::new(CellLog::default());
    let registry = hooked_registry(inner, &log);
    let opened = Instant::now();

    let run = || {
        sweep
            .run_cached(
                &registry,
                SWEEP_THREADS,
                Some(&cache),
                CachePolicy::ReadWrite,
                None,
            )
            .map_err(|e| e.to_string())
    };
    let cold_cpu_start = sys::cpu_seconds();
    let cold = run();
    let cold_end = Instant::now();
    let cold_cpu = sys::cpu_seconds() - cold_cpu_start;
    let cells = cells_of(log.take(), cold_end);
    let warm_start = Instant::now();
    let warm = run();
    let warm_end = Instant::now();
    let cpu = sys::cpu_seconds() - cpu_start;
    // Best effort: a leftover cache directory is ignored by git and harmless.
    let _ = std::fs::remove_dir_all(&dir);
    let (cold, warm) = (cold?, warm?);

    let mut problems = Vec::new();
    if (cold.executed, cold.cache_hits) != (SWEEP_CELLS, 0) {
        problems.push(format!(
            "cold sweep executed {} cells with {} hits, expected {SWEEP_CELLS} and 0",
            cold.executed, cold.cache_hits
        ));
    }
    if (warm.executed, warm.cache_hits) != (0, SWEEP_CELLS) {
        problems.push(format!(
            "warm sweep executed {} cells with {} hits, expected 0 and {SWEEP_CELLS}",
            warm.executed, warm.cache_hits
        ));
    }
    let mut outcomes = Vec::with_capacity(sweep.len());
    for ((scenario, fresh), cached) in sweep
        .scenarios
        .iter()
        .zip(&cold.summaries)
        .zip(&warm.summaries)
    {
        let key = cell_key(scenario);
        if fresh.to_record() != cached.to_record() {
            problems.push(format!("{key}: warm summary differs from the cold one"));
        }
        outcomes.push(Outcome::of(key, fresh, &fresh.fingerprint()));
    }
    let rep = SweepRep {
        plan_s: (planned - started).as_secs_f64(),
        open_s: (opened - planned).as_secs_f64(),
        cold_cpu,
        cpu,
        hits: warm.cache_hits as u64,
        cells,
        cold_span: (opened, cold_end),
        warm_span: (warm_start, warm_end),
        outcomes,
        problems,
    };
    Ok((rep, cold))
}

/// Everything one timed rep measured.
#[derive(Clone, Debug)]
pub enum Rep {
    Packet {
        /// Spec parse (`Scenario::from_spec`), seconds.
        parse_s: f64,
        runs: Vec<MirrorRun>,
    },
    Sweep(SweepRep),
}

impl Rep {
    pub fn outcomes(&self) -> Vec<&Outcome> {
        match self {
            Rep::Packet { runs, .. } => runs.iter().map(|r| &r.outcome).collect(),
            Rep::Sweep(rep) => rep.outcomes.iter().collect(),
        }
    }

    /// Wall-clock of the rep's `Scenario::run` + `fingerprint()` equivalents.
    pub fn wall_s(&self) -> f64 {
        match self {
            Rep::Packet { parse_s, runs } => {
                parse_s + runs.iter().map(|r| r.phases.wall()).sum::<f64>()
            }
            Rep::Sweep(rep) => rep.plan_s + rep.open_s + rep.cold_s() + rep.warm_s(),
        }
    }

    /// Process CPU seconds over the same regions.
    pub fn cpu_s(&self) -> f64 {
        match self {
            Rep::Packet { runs, .. } => runs.iter().map(|r| r.phases.cpu).sum(),
            Rep::Sweep(rep) => rep.cpu,
        }
    }
}

/// Run one timed rep of `workload` against the real registry.
fn run_rep(workload: &Workload, seed: u64, real: &Arc<ProtocolRegistry>) -> Result<Rep, String> {
    if workload.is_sweep() {
        return run_sweep_rep(workload, seed, real).map(|(rep, _)| Rep::Sweep(rep));
    }
    let started = Instant::now();
    let Plan::Scenarios(scenarios) = workload.plan(seed)? else {
        unreachable!("non-sweep workloads plan scenarios");
    };
    let parse_s = started.elapsed().as_secs_f64();
    let runs = scenarios
        .iter()
        .map(|s| run_mirror(s, real, None))
        .collect::<Result<_, _>>()?;
    Ok(Rep::Packet { parse_s, runs })
}

/// Set the workload up once, run nothing, and return the host seconds it took: spec
/// parse, then per scenario everything before the first simulated event. For the
/// sweep: plan, cache open, request fingerprints, and the set-up of each packet cell.
/// A timed rep sets up once; these extra rounds make `setup_s` a median of many.
fn set_up_once(workload: &Workload, seed: u64, real: &ProtocolRegistry) -> Result<f64, String> {
    let started = Instant::now();
    let plan = workload.plan(seed)?;
    let mut secs = started.elapsed().as_secs_f64();
    let scenarios = match plan {
        Plan::Scenarios(scenarios) => scenarios,
        Plan::Sweep(sweep) => {
            let started = Instant::now();
            let (dir, _cache) = open_sweep_cache(&sweep)?;
            secs += started.elapsed().as_secs_f64();
            let _ = std::fs::remove_dir_all(&dir);
            sweep.scenarios
        }
    };
    for scenario in scenarios.iter().filter(|s| s.backend == SimBackend::Packet) {
        secs += time_set_up(scenario, real)?;
    }
    Ok(secs)
}

/// The warm-up rep, through the one-call path: `Scenario::from_spec` →
/// `Scenario::run(&registry)` → `fingerprint()` (for the sweep, `Sweep::run_cached`
/// is itself the one call).
fn warm_up(
    workload: &Workload,
    seed: u64,
    real: &Arc<ProtocolRegistry>,
) -> Result<Vec<Outcome>, String> {
    match workload.plan(seed)? {
        Plan::Sweep(_) => {
            let (rep, _) = run_sweep_rep(workload, seed, real)?;
            Ok(rep.outcomes)
        }
        Plan::Scenarios(scenarios) => scenarios
            .iter()
            .map(|scenario| {
                let summary = scenario.run(real).map_err(|e| e.to_string())?;
                Ok(Outcome::of(
                    cell_key(scenario),
                    &summary,
                    &summary.fingerprint(),
                ))
            })
            .collect(),
    }
}

/// How long the timed pass runs: at least `reps` (default [`MIN_REPS`]) timed reps,
/// and further ones while the next still fits inside `seconds`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Limits {
    pub seconds: Option<f64>,
    pub reps: Option<usize>,
}

/// Checks the outputs of a run's reps against each other and against the pins, and
/// counts operations.
#[derive(Debug, Default)]
pub struct OutputCheck {
    /// First digest seen per cell key.
    digests: BTreeMap<String, String>,
    /// Cells whose output cannot be trusted.
    invalid: Vec<String>,
    /// Per run seen: key, flows, flows failed or unfinished.
    tally: Vec<(String, u64, u64)>,
    pub problems: Vec<String>,
}

impl OutputCheck {
    /// Take in one run's outcome, `source` saying where it came from.
    pub fn see(&mut self, outcome: &Outcome, source: &str) {
        self.tally.push((
            outcome.key.clone(),
            outcome.flows,
            outcome.failed_ops(false),
        ));
        match self.digests.get(&outcome.key) {
            None => {
                self.digests
                    .insert(outcome.key.clone(), outcome.digest.clone());
                if outcome.failed_ops(false) > 0 {
                    self.problems.push(format!(
                        "{}: of {} flows {} failed and {} were unfinished at the stop time",
                        outcome.key, outcome.flows, outcome.failed, outcome.unfinished
                    ));
                }
            }
            Some(first) if *first == outcome.digest => {}
            Some(first) => {
                self.problems.push(format!(
                    "{}: {source} fingerprint digest {} differs from the first run's {first}",
                    outcome.key, outcome.digest
                ));
                self.invalid.push(outcome.key.clone());
            }
        }
    }

    /// Compare every cell seen with `pins.txt` (the pins are for seed 1).
    pub fn check_pins(&mut self, workload: &str) {
        for (key, digest) in &self.digests {
            let problem = match pinned(workload, key) {
                Some(pin) if pin == digest => continue,
                Some(pin) => format!("{key}: fingerprint digest {digest} is not the pinned {pin}"),
                None => format!("{key}: no pin in pins.txt (digest {digest})"),
            };
            self.problems.push(problem);
            self.invalid.push(key.clone());
        }
    }

    pub fn digests(&self) -> &BTreeMap<String, String> {
        &self.digests
    }

    /// No problem noted and no operation failed.
    pub fn passed(&self) -> bool {
        self.problems.is_empty() && self.ops().1 == 0
    }

    /// `(attempted, failed)` over every run seen.
    pub fn ops(&self) -> (u64, u64) {
        let attempted = self.tally.iter().map(|(_, flows, _)| flows).sum();
        let failed = self
            .tally
            .iter()
            .map(|(key, flows, bad)| {
                if self.invalid.contains(key) {
                    *flows
                } else {
                    *bad
                }
            })
            .sum();
        (attempted, failed)
    }
}

/// The result of a timed pass on one workload.
#[derive(Debug)]
pub struct TimedReport {
    pub workload: &'static str,
    pub seed: u64,
    pub reps: usize,
    /// One entry per [`END_TO_END`] metric, in its order.
    pub end_to_end: Vec<Quartiles>,
    /// `wall_s` of each timed rep, in run order (noise on the host shows here).
    pub wall_samples: Vec<f64>,
    pub check: OutputCheck,
}

/// Flow-weighted mean FCT over `outcomes`, in simulated milliseconds.
pub fn sim_mean_fct_ms(outcomes: &[&Outcome]) -> f64 {
    let weighted: f64 = outcomes
        .iter()
        .filter_map(|o| Some(o.mean_fct_secs? * o.completed as f64))
        .sum();
    let completed: u64 = outcomes.iter().map(|o| o.completed).sum();
    ratio(weighted * 1e3, completed as f64)
}

/// Application throughput over `outcomes`, from the summaries' count fields: a
/// scenario with deadline flows counts deadlines met over deadline flows (the
/// paper's definition), one without counts flows completed over flows.
pub fn sim_app_throughput(outcomes: &[&Outcome]) -> f64 {
    let (mut good, mut all) = (0u64, 0u64);
    for o in outcomes {
        if o.deadline_flows > 0 {
            good += o.deadlines_met;
            all += o.deadline_flows;
        } else {
            good += o.completed;
            all += o.flows;
        }
    }
    ratio(good as f64, all as f64)
}

/// Run the timed pass (tracing off) on `workload`.
pub fn timed_pass(workload: &Workload, seed: u64, limits: Limits) -> Result<TimedReport, String> {
    let real = real_registry();
    let mut check = OutputCheck::default();
    for outcome in warm_up(workload, seed, &real)? {
        check.see(&outcome, "one-call");
    }

    let min_reps = limits.reps.unwrap_or(MIN_REPS).max(1);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    loop {
        let rep_started = Instant::now();
        let rep = run_rep(workload, seed, &real)?;
        for _ in 0..SETUPS_PER_REP {
            setups.push(set_up_once(workload, seed, &real)?);
        }
        let rep_secs = rep_started.elapsed().as_secs_f64();
        for outcome in rep.outcomes() {
            check.see(outcome, "mirror");
        }
        if let Rep::Sweep(sweep) = &rep {
            check.problems.extend(sweep.problems.iter().cloned());
        }
        reps.push(rep);
        let next_fits = limits
            .seconds
            .is_some_and(|s| started.elapsed().as_secs_f64() + rep_secs <= s);
        if reps.len() >= min_reps && !next_fits {
            break;
        }
    }
    if seed == 1 {
        check.check_pins(workload.name);
    }

    let column = |f: &dyn Fn(&Rep) -> f64| -> Quartiles {
        Quartiles::of(&reps.iter().map(f).collect::<Vec<f64>>())
    };
    let first = reps[0].outcomes();
    let flows_done: u64 = first.iter().map(|o| o.flows_done()).sum();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| match m.name {
            "setup_s" => Quartiles::of(&setups),
            "wall_s" => column(&Rep::wall_s),
            "cpu_s" => column(&Rep::cpu_s),
            "sim_flows_per_s" => column(&|r| ratio(flows_done as f64, r.wall_s())),
            "peak_rss_mb" => Quartiles::single(sys::peak_rss_mb()),
            "sim_mean_fct_ms" => Quartiles::single(sim_mean_fct_ms(&first)),
            "sim_app_throughput" => Quartiles::single(sim_app_throughput(&first)),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        })
        .collect();
    Ok(TimedReport {
        workload: workload.name,
        seed,
        reps: reps.len(),
        end_to_end,
        wall_samples: reps.iter().map(Rep::wall_s).collect(),
        check,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(flows: usize, completed: usize, failed: usize, unfinished: usize) -> RunSummary {
        let record = format!(
            "scenario = s\nprotocol = tcp\nprotocol_label = TCP\nbackend = packet\nseed = 1\n\
             flows = {flows}\ncompleted = {completed}\nterminated = 0\nfailed = {failed}\n\
             unfinished = {unfinished}\ndeadline_flows = 0\ndeadlines_met = 0\n\
             mean_fct_secs = 0.002\np99_fct_secs = -\nmax_fct_secs = -\ngoodput_bytes = 0\n\
             end_time_ns = 5000\nfingerprint = end=5000;\n"
        );
        RunSummary::from_record(&record).expect("synthetic record parses")
    }

    #[test]
    fn failed_and_unfinished_flows_are_failed_operations() {
        let s = summary(10, 6, 1, 3);
        let outcome = Outcome::of("s[tcp]".into(), &s, &s.fingerprint());
        assert_eq!(outcome.flows_done(), 6);
        assert_eq!(outcome.failed_ops(false), 4);
        assert_eq!(outcome.failed_ops(true), 10);

        let mut check = OutputCheck::default();
        check.see(&outcome, "one-call");
        check.see(&outcome, "mirror");
        assert_eq!(check.ops(), (20, 8));
        // Reported once per cell, not once per rep.
        assert_eq!(check.problems.len(), 1, "{:?}", check.problems);
    }

    #[test]
    fn a_rep_that_disagrees_fails_every_flow_of_its_cell() {
        let clean = summary(10, 10, 0, 0);
        let first = Outcome::of("a[tcp]".into(), &clean, "end=1;");
        let other = Outcome::of("b[tcp]".into(), &clean, "end=1;");
        let drifted = Outcome::of("a[tcp]".into(), &clean, "end=2;");
        let mut check = OutputCheck::default();
        check.see(&first, "one-call");
        check.see(&other, "one-call");
        check.see(&drifted, "mirror");
        assert_eq!(check.problems.len(), 1, "{:?}", check.problems);
        // Both runs of cell `a` are void; cell `b` is untouched.
        assert_eq!(check.ops(), (30, 20));
    }

    #[test]
    fn pins_are_looked_up_by_workload_and_key_and_checked() {
        assert_eq!(pinned("nope", "x[tcp]"), None);
        let clean = summary(4, 4, 0, 0);
        let mut check = OutputCheck::default();
        check.see(
            &Outcome::of("unpinned[tcp]".into(), &clean, "end=1;"),
            "one-call",
        );
        check.check_pins("smoke");
        assert_eq!(check.ops(), (4, 4));
        assert!(check.problems[0].contains("no pin"), "{:?}", check.problems);
    }

    #[test]
    fn simulated_metrics_weight_by_flows_and_follow_the_deadline_rule() {
        let mut a = Outcome::of("a".into(), &summary(10, 10, 0, 0), "");
        a.mean_fct_secs = Some(0.001);
        let mut b = Outcome::of("b".into(), &summary(40, 30, 0, 10), "");
        b.mean_fct_secs = Some(0.002);
        b.deadline_flows = 20;
        b.deadlines_met = 15;
        let both = [&a, &b];
        assert!((sim_mean_fct_ms(&both) - (10.0 * 1.0 + 30.0 * 2.0) / 40.0).abs() < 1e-12);
        assert!((sim_app_throughput(&both) - (10.0 + 15.0) / (10.0 + 20.0)).abs() < 1e-12);
        assert_eq!(sim_mean_fct_ms(&[]), 0.0);
    }

    #[test]
    fn digests_are_stable_and_distinguish_inputs() {
        assert_eq!(digest("end=1;").len(), 32);
        assert_eq!(digest("end=1;"), digest("end=1;"));
        assert_ne!(digest("end=1;"), digest("end=2;"));
    }
}
