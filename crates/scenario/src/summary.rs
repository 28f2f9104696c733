//! Typed run outcomes: the [`RunSummary`] a scenario run produces, on any
//! backend, plus the [`BackendResults`] holding the engine-specific records.
//!
//! A summary persists as a run record ([`RunSummary::to_record`]): the headline
//! fields and the determinism fingerprint as `key = value` lines under a
//! `# pdq run record v1` header, in the scenario spec's format. Absent metrics
//! are written `-`, and the coflow keys only when the run had coflows.

use std::fmt::Write as _;

use pdq_flowsim::{FlowLevelResults, FluidResults};
use pdq_netsim::{FlowOutcome, FlowSpec, SimResults, SimTime};

use crate::backend::SimBackend;
use crate::kv::{self, OrDash};
use crate::scenario::Scenario;

/// The engine-specific result records behind a [`RunSummary`]: full packet-level
/// [`SimResults`] (per-flow records, link counters, traces), flow-level
/// [`FlowLevelResults`] (per-flow completion records), fluid-model
/// [`FluidResults`] (per-flow §2.1 completion times), or the headline-only
/// [`CachedResults`] of a summary restored from the result cache.
#[derive(Clone, Debug)]
pub enum BackendResults {
    /// Results of a packet-level run. Boxed: `SimResults` is by far the largest
    /// record (flow records, link counters, trace maps plus scheduler telemetry) and
    /// would otherwise dominate the size of every `RunSummary`.
    Packet(Box<SimResults>),
    /// Results of a flow-level run.
    Flow(FlowLevelResults),
    /// Results of a §2.1 fluid-model run.
    Fluid(FluidResults),
    /// A summary restored from a [`crate::cache::ResultCache`] record: the original
    /// engine's per-flow records are not persisted, only which backend ran and the
    /// run's determinism fingerprint.
    Cached(CachedResults),
}

/// What survives of a run's engine-specific results in a cache record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedResults {
    /// The backend the original run executed on.
    pub backend: SimBackend,
    /// The original run's determinism fingerprint ([`RunSummary::fingerprint`]).
    pub fingerprint: String,
}

impl BackendResults {
    /// The packet-level results, if this was a packet-level run.
    pub fn packet(&self) -> Option<&SimResults> {
        match self {
            BackendResults::Packet(r) => Some(r),
            _ => None,
        }
    }

    /// The flow-level results, if this was a flow-level run.
    pub fn flow(&self) -> Option<&FlowLevelResults> {
        match self {
            BackendResults::Flow(r) => Some(r),
            _ => None,
        }
    }

    /// The fluid-model results, if this was a fluid run.
    pub fn fluid(&self) -> Option<&FluidResults> {
        match self {
            BackendResults::Fluid(r) => Some(r),
            _ => None,
        }
    }

    /// The cache-restored results, if this summary came from a cache record.
    pub fn cached(&self) -> Option<&CachedResults> {
        match self {
            BackendResults::Cached(r) => Some(r),
            _ => None,
        }
    }

    /// Which backend produced these results (for a cached summary: the backend the
    /// original run executed on).
    pub fn backend(&self) -> SimBackend {
        match self {
            BackendResults::Packet(_) => SimBackend::Packet,
            BackendResults::Flow(_) => SimBackend::Flow,
            BackendResults::Fluid(_) => SimBackend::Fluid,
            BackendResults::Cached(r) => r.backend,
        }
    }
}

/// The typed outcome of one scenario run: headline statistics plus the full
/// [`BackendResults`] for callers that need traces or per-flow records.
///
/// Counts cover top-level flows only (M-PDQ subflows are accounted to their parent).
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Name of the scenario that produced this run.
    pub scenario: String,
    /// Protocol spec string the scenario ran with (registry name).
    pub protocol: String,
    /// Display label of the resolved installer.
    pub protocol_label: String,
    /// The backend the run executed on.
    pub backend: SimBackend,
    /// The run's seed.
    pub seed: u64,
    /// Total top-level flows injected.
    pub flows: usize,
    /// Flows that delivered all bytes.
    pub completed: usize,
    /// Flows given up on (PDQ Early Termination / D3 quenching).
    pub terminated: usize,
    /// Flows the router could not place (packet backend only).
    pub failed: usize,
    /// Flows still active when the run stopped.
    pub unfinished: usize,
    /// Deadline-constrained flows.
    pub deadline_flows: usize,
    /// Deadline-constrained flows that completed in time.
    pub deadlines_met: usize,
    /// Mean completion time over completed flows, seconds.
    pub mean_fct_secs: Option<f64>,
    /// 99th-percentile completion time, seconds.
    pub p99_fct_secs: Option<f64>,
    /// Worst completion time, seconds.
    pub max_fct_secs: Option<f64>,
    /// Sum of distinct payload bytes delivered across all flows. The flow-level
    /// model has no per-byte accounting, so flow runs count completed flows' sizes.
    pub goodput_bytes: u64,
    /// Simulated time at which the run stopped (flow backend: last completion).
    pub end_time: SimTime,
    /// Coflows in the workload (0 unless the workload tags flows with coflows;
    /// populated by [`RunSummary::attach_coflows`]).
    pub coflows: usize,
    /// Coflows whose every member flow completed.
    pub coflows_completed: usize,
    /// Coflows carrying a group deadline.
    pub coflow_deadlines: usize,
    /// Deadline-carrying coflows whose last member completed in time.
    pub coflow_deadlines_met: usize,
    /// Mean coflow completion time over completed coflows, seconds.
    pub mean_cct_secs: Option<f64>,
    /// 95th-percentile coflow completion time over completed coflows, seconds.
    pub p95_cct_secs: Option<f64>,
    /// The full engine-specific results.
    pub results: BackendResults,
}

impl RunSummary {
    /// Summarize packet-level `results` for `scenario`.
    pub fn new(scenario: &Scenario, protocol_label: String, results: SimResults) -> Self {
        let mut flows = 0;
        let mut completed = 0;
        let mut terminated = 0;
        let mut failed = 0;
        let mut unfinished = 0;
        let mut deadline_flows = 0;
        let mut deadlines_met = 0;
        let mut goodput_bytes = 0u64;
        for r in results.top_level_flows() {
            flows += 1;
            match r.outcome() {
                FlowOutcome::Completed => completed += 1,
                FlowOutcome::Terminated => terminated += 1,
                FlowOutcome::Failed => failed += 1,
                FlowOutcome::Active => unfinished += 1,
            }
            if r.spec.deadline.is_some() {
                deadline_flows += 1;
                if r.met_deadline() {
                    deadlines_met += 1;
                }
            }
            goodput_bytes += r.bytes_acked;
        }
        RunSummary {
            scenario: scenario.name.clone(),
            protocol: scenario.protocol.clone(),
            protocol_label,
            backend: SimBackend::Packet,
            seed: scenario.seed,
            flows,
            completed,
            terminated,
            failed,
            unfinished,
            deadline_flows,
            deadlines_met,
            mean_fct_secs: results.mean_fct_all_secs(),
            p99_fct_secs: results.fct_percentile_secs(99.0, |_| true),
            max_fct_secs: results.max_fct_secs(|_| true),
            goodput_bytes,
            end_time: results.end_time,
            coflows: 0,
            coflows_completed: 0,
            coflow_deadlines: 0,
            coflow_deadlines_met: 0,
            mean_cct_secs: None,
            p95_cct_secs: None,
            results: BackendResults::Packet(Box::new(results)),
        }
    }

    /// Summarize flow-level `results` for `scenario`.
    pub fn from_flow(
        scenario: &Scenario,
        protocol_label: String,
        results: FlowLevelResults,
    ) -> Self {
        let mut completed = 0;
        let mut terminated = 0;
        let mut unfinished = 0;
        let mut deadline_flows = 0;
        let mut deadlines_met = 0;
        let mut goodput_bytes = 0u64;
        let mut end_time = SimTime::ZERO;
        for r in results.flows.values() {
            match (r.completed_at, r.terminated) {
                (Some(done), _) => {
                    completed += 1;
                    goodput_bytes += r.size_bytes;
                    end_time = end_time.max(done);
                }
                (None, true) => terminated += 1,
                (None, false) => unfinished += 1,
            }
            if r.deadline.is_some() {
                deadline_flows += 1;
                if r.met_deadline() {
                    deadlines_met += 1;
                }
            }
        }
        RunSummary {
            scenario: scenario.name.clone(),
            protocol: scenario.protocol.clone(),
            protocol_label,
            backend: SimBackend::Flow,
            seed: scenario.seed,
            flows: results.flows.len(),
            completed,
            terminated,
            failed: 0,
            unfinished,
            deadline_flows,
            deadlines_met,
            mean_fct_secs: results.mean_fct_all_secs(),
            p99_fct_secs: results.fct_percentile_secs(99.0),
            max_fct_secs: results.max_fct_secs(),
            goodput_bytes,
            end_time,
            coflows: 0,
            coflows_completed: 0,
            coflow_deadlines: 0,
            coflow_deadlines_met: 0,
            mean_cct_secs: None,
            p95_cct_secs: None,
            results: BackendResults::Flow(results),
        }
    }

    /// Summarize fluid-model `results` for `scenario`.
    ///
    /// The fluid model's unit-rate bottleneck serves one size unit per second, so a
    /// flow's size doubles as the bytes delivered on completion, and completion
    /// times convert to [`SimTime`] directly as seconds.
    pub fn from_fluid(scenario: &Scenario, protocol_label: String, results: FluidResults) -> Self {
        let mut goodput_bytes = 0u64;
        for r in &results.flows {
            if r.completion.is_some() {
                goodput_bytes += r.flow.size as u64;
            }
        }
        RunSummary {
            scenario: scenario.name.clone(),
            protocol: scenario.protocol.clone(),
            protocol_label,
            backend: SimBackend::Fluid,
            seed: scenario.seed,
            flows: results.flows.len(),
            completed: results.completed(),
            terminated: 0,
            failed: 0,
            unfinished: results.flows.len() - results.completed(),
            deadline_flows: results.deadline_flows(),
            deadlines_met: results.deadlines_met(),
            mean_fct_secs: results.mean_fct_secs(),
            p99_fct_secs: results.fct_percentile_secs(99.0),
            max_fct_secs: results.max_fct_secs(),
            goodput_bytes,
            end_time: SimTime::from_secs_f64(results.end_time_secs()),
            coflows: 0,
            coflows_completed: 0,
            coflow_deadlines: 0,
            coflow_deadlines_met: 0,
            mean_cct_secs: None,
            p95_cct_secs: None,
            results: BackendResults::Fluid(results),
        }
    }

    /// The packet-level results. Panics for other backends — use it only where the
    /// caller controls the backend (figure code reading traces or link counters).
    pub fn packet(&self) -> &SimResults {
        self.results
            .packet()
            .expect("RunSummary::packet() on a non-packet run")
    }

    /// The flow-level results. Panics for other backends.
    pub fn flow(&self) -> &FlowLevelResults {
        self.results
            .flow()
            .expect("RunSummary::flow() on a non-flow-level run")
    }

    /// The fluid-model results. Panics for other backends.
    pub fn fluid(&self) -> &FluidResults {
        self.results
            .fluid()
            .expect("RunSummary::fluid() on a non-fluid run")
    }

    /// Compute coflow-level metrics (CCT, coflow deadline hits) by joining the
    /// workload's [`pdq_netsim::CoflowTag`]s with this run's per-flow completions.
    ///
    /// `specs` is the materialized flow set the run executed; untagged flows are
    /// ignored, and a workload with no tagged flows leaves the summary unchanged
    /// (so non-coflow runs — and their fingerprints — are untouched). A coflow
    /// counts as completed only when *every* member delivered all bytes; its CCT is
    /// the last member's completion minus the group's earliest member arrival
    /// (fluid runs start all flows at time zero, so the fluid CCT is simply the
    /// last member's completion time). Cached summaries keep their stored metrics.
    pub fn attach_coflows(&mut self, specs: &[FlowSpec]) {
        use std::collections::BTreeMap;

        struct Group {
            arrival: SimTime,
            deadline: Option<SimTime>,
            members: Vec<u64>,
        }
        let mut groups: BTreeMap<u64, Group> = BTreeMap::new();
        for s in specs {
            if let Some(tag) = s.coflow {
                let g = groups.entry(tag.id.value()).or_insert(Group {
                    arrival: s.arrival,
                    deadline: tag.deadline,
                    members: Vec::new(),
                });
                g.arrival = g.arrival.min(s.arrival);
                g.members.push(s.id.value());
            }
        }
        if groups.is_empty() {
            return;
        }
        // Per-flow completion times in nanoseconds, by flow id.
        let (done, fluid): (std::collections::HashMap<u64, u64>, bool) = match &self.results {
            BackendResults::Cached(_) => return,
            BackendResults::Packet(r) => (
                r.top_level_flows()
                    .filter_map(|f| f.completed_at.map(|t| (f.spec.id.value(), t.as_nanos())))
                    .collect(),
                false,
            ),
            BackendResults::Flow(r) => (
                r.flows
                    .values()
                    .filter_map(|f| f.completed_at.map(|t| (f.id.value(), t.as_nanos())))
                    .collect(),
                false,
            ),
            BackendResults::Fluid(r) => (
                r.flows
                    .iter()
                    .filter_map(|f| {
                        f.completion
                            .map(|c| (f.id, SimTime::from_secs_f64(c).as_nanos()))
                    })
                    .collect(),
                true,
            ),
        };
        let mut ccts_ns: Vec<u64> = Vec::new();
        for g in groups.values() {
            self.coflows += 1;
            if g.deadline.is_some() {
                self.coflow_deadlines += 1;
            }
            let mut last = 0u64;
            let mut all_done = true;
            for id in &g.members {
                match done.get(id) {
                    Some(&t) => last = last.max(t),
                    None => all_done = false,
                }
            }
            if !all_done {
                continue;
            }
            self.coflows_completed += 1;
            let start = if fluid { 0 } else { g.arrival.as_nanos() };
            ccts_ns.push(last.saturating_sub(start));
            if let Some(d) = g.deadline {
                if last <= d.as_nanos() {
                    self.coflow_deadlines_met += 1;
                }
            }
        }
        if ccts_ns.is_empty() {
            return;
        }
        ccts_ns.sort_unstable();
        let sum: u64 = ccts_ns.iter().sum();
        self.mean_cct_secs = Some(sum as f64 / ccts_ns.len() as f64 / 1e9);
        let idx = ((ccts_ns.len() as f64 * 0.95).ceil() as usize).clamp(1, ccts_ns.len()) - 1;
        self.p95_cct_secs = Some(ccts_ns[idx] as f64 / 1e9);
    }

    /// Fraction of deadline-carrying coflows whose last member completed in time;
    /// `None` when no coflow carried a deadline.
    pub fn coflow_deadline_miss_rate(&self) -> Option<f64> {
        if self.coflow_deadlines == 0 {
            None
        } else {
            Some(1.0 - self.coflow_deadlines_met as f64 / self.coflow_deadlines as f64)
        }
    }

    /// Application throughput (§5.1): fraction of deadline-constrained flows that met
    /// their deadline; `None` when no flow carried a deadline.
    pub fn application_throughput(&self) -> Option<f64> {
        if self.deadline_flows == 0 {
            None
        } else {
            Some(self.deadlines_met as f64 / self.deadline_flows as f64)
        }
    }

    /// Fraction of deadline-constrained flows that missed their deadline.
    pub fn deadline_miss_rate(&self) -> Option<f64> {
        self.application_throughput().map(|at| 1.0 - at)
    }

    /// A deterministic digest of the run: every top-level flow's outcome and timing,
    /// sorted by flow id, plus the end time. Two runs of the same scenario — on any
    /// thread count — must produce identical fingerprints; the sweep-determinism
    /// tests compare these. A summary restored from a cache record returns the
    /// original run's stored fingerprint, so cached and fresh results of the same
    /// scenario always agree.
    pub fn fingerprint(&self) -> String {
        let mut out = format!("end={};", self.end_time.as_nanos());
        let mut rows: Vec<(u64, String)> = match &self.results {
            BackendResults::Cached(r) => return r.fingerprint.clone(),
            // Packet records are in id order already: each row goes straight out.
            BackendResults::Packet(results) => {
                for r in results.top_level_flows() {
                    let done = r.completed_at.map(|t| t.as_nanos()).unwrap_or(0);
                    let term = r.terminated_at.map(|t| t.as_nanos()).unwrap_or(0);
                    let _ = write!(
                        out,
                        "{}:{:?}:{done}:{term}:{};",
                        r.spec.id.value(),
                        r.outcome(),
                        r.bytes_acked
                    );
                }
                Vec::new()
            }
            BackendResults::Flow(results) => results
                .flows
                .values()
                .map(|r| {
                    let outcome = match (r.completed_at, r.terminated) {
                        (Some(_), _) => "Completed",
                        (None, true) => "Terminated",
                        (None, false) => "Active",
                    };
                    let done = r.completed_at.map(|t| t.as_nanos()).unwrap_or(0);
                    let bytes = if r.completed_at.is_some() {
                        r.size_bytes
                    } else {
                        0
                    };
                    (
                        r.id.value(),
                        format!("{}:{}:{}:0:{}", r.id.value(), outcome, done, bytes),
                    )
                })
                .collect(),
            BackendResults::Fluid(results) => results
                .flows
                .iter()
                .map(|r| {
                    let outcome = if r.completion.is_some() {
                        "Completed"
                    } else {
                        "Active"
                    };
                    let done = r
                        .completion
                        .map(|c| SimTime::from_secs_f64(c).as_nanos())
                        .unwrap_or(0);
                    let bytes = if r.completion.is_some() {
                        r.flow.size as u64
                    } else {
                        0
                    };
                    (r.id, format!("{}:{}:{}:0:{}", r.id, outcome, done, bytes))
                })
                .collect(),
        };
        rows.sort();
        for (_, row) in rows {
            let _ = write!(out, "{row};");
        }
        // Coflow runs additionally pin the derived CCT metrics; non-coflow runs
        // keep the historical fingerprint bytes.
        if self.coflows > 0 {
            let opt = |v: Option<f64>| v.map(|v| v.to_string()).unwrap_or_else(|| "-".into());
            let _ = write!(
                out,
                "cct={}:{}:{}:{}:{}:{};",
                self.coflows,
                self.coflows_completed,
                self.coflow_deadlines,
                self.coflow_deadlines_met,
                opt(self.mean_cct_secs),
                opt(self.p95_cct_secs),
            );
        }
        out
    }

    /// Serialize the headline fields plus the determinism fingerprint as plain
    /// `key = value` lines — the persisted body of a cache record. The full
    /// engine-specific results are *not* serialized; [`RunSummary::from_record`]
    /// restores them as [`BackendResults::Cached`].
    ///
    /// `f64` metrics use Rust's shortest-round-trip `Display` form, so
    /// `to_record` → `from_record` reproduces every headline value bit-exactly
    /// (absent metrics serialize as `-`).
    pub fn to_record(&self) -> String {
        self.record_named(&self.scenario)
    }

    /// [`RunSummary::to_record`] with `name` in place of the scenario name.
    pub(crate) fn record_named(&self, name: &str) -> String {
        let mut w = kv::Writer::new("pdq run record v1");
        w.put("scenario", name);
        w.put("protocol", &self.protocol);
        w.put("protocol_label", &self.protocol_label);
        w.put("backend", self.backend);
        w.put("seed", self.seed);
        w.put("flows", self.flows);
        w.put("completed", self.completed);
        w.put("terminated", self.terminated);
        w.put("failed", self.failed);
        w.put("unfinished", self.unfinished);
        w.put("deadline_flows", self.deadline_flows);
        w.put("deadlines_met", self.deadlines_met);
        w.put("mean_fct_secs", OrDash(self.mean_fct_secs));
        w.put("p99_fct_secs", OrDash(self.p99_fct_secs));
        w.put("max_fct_secs", OrDash(self.max_fct_secs));
        w.put("goodput_bytes", self.goodput_bytes);
        w.put("end_time_ns", self.end_time.as_nanos());
        // Coflow metrics are written only when coflows are present, so non-coflow
        // records keep their historical bytes.
        if self.coflows > 0 {
            w.put("coflows", self.coflows);
            w.put("coflows_completed", self.coflows_completed);
            w.put("coflow_deadlines", self.coflow_deadlines);
            w.put("coflow_deadlines_met", self.coflow_deadlines_met);
            w.put("mean_cct_secs", OrDash(self.mean_cct_secs));
            w.put("p95_cct_secs", OrDash(self.p95_cct_secs));
        }
        w.put("fingerprint", self.fingerprint());
        w.finish()
    }

    /// Parse the [`RunSummary::to_record`] format back into a summary whose
    /// `results` are [`BackendResults::Cached`]. A missing, malformed or repeated
    /// key errors; unknown keys are ignored (cache records carry extra
    /// bookkeeping lines and future versions may add fields).
    pub fn from_record(text: &str) -> Result<RunSummary, String> {
        kv::Reader::new(text, &[])
            .and_then(|r| Self::read_record(&r))
            .map_err(|e| e.to_string())
    }

    /// Read the [`RunSummary::to_record`] keys out of a parsed record.
    pub(crate) fn read_record(r: &kv::Reader) -> Result<RunSummary, kv::Error> {
        let secs = |key| r.required::<OrDash<f64>>(key).map(|OrDash(v)| v);
        // Coflow keys are optional: records of non-coflow runs omit them.
        let count = |key| r.optional(key).map(Option::unwrap_or_default);
        let coflow_secs = |key| r.optional(key).map(|v| v.and_then(|OrDash(v)| v));
        let backend = r.required("backend")?;
        Ok(RunSummary {
            scenario: r.required("scenario")?,
            protocol: r.required("protocol")?,
            protocol_label: r.required("protocol_label")?,
            backend,
            seed: r.required("seed")?,
            flows: r.required("flows")?,
            completed: r.required("completed")?,
            terminated: r.required("terminated")?,
            failed: r.required("failed")?,
            unfinished: r.required("unfinished")?,
            deadline_flows: r.required("deadline_flows")?,
            deadlines_met: r.required("deadlines_met")?,
            mean_fct_secs: secs("mean_fct_secs")?,
            p99_fct_secs: secs("p99_fct_secs")?,
            max_fct_secs: secs("max_fct_secs")?,
            goodput_bytes: r.required("goodput_bytes")?,
            end_time: SimTime::from_nanos(r.required("end_time_ns")?),
            coflows: count("coflows")?,
            coflows_completed: count("coflows_completed")?,
            coflow_deadlines: count("coflow_deadlines")?,
            coflow_deadlines_met: count("coflow_deadlines_met")?,
            mean_cct_secs: coflow_secs("mean_cct_secs")?,
            p95_cct_secs: coflow_secs("p95_cct_secs")?,
            results: BackendResults::Cached(CachedResults {
                backend,
                fingerprint: r.required("fingerprint")?,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cached_summary() -> RunSummary {
        RunSummary {
            scenario: "cell/seed=3".into(),
            protocol: "pdq(full)".into(),
            protocol_label: "PDQ(Full)".into(),
            backend: SimBackend::Flow,
            seed: 3,
            flows: 10,
            completed: 8,
            terminated: 1,
            failed: 0,
            unfinished: 1,
            deadline_flows: 5,
            deadlines_met: 4,
            mean_fct_secs: Some(0.012_345_678_901_234_567),
            p99_fct_secs: Some(0.2),
            max_fct_secs: None,
            goodput_bytes: 123_456,
            end_time: SimTime::from_nanos(987_654_321),
            coflows: 0,
            coflows_completed: 0,
            coflow_deadlines: 0,
            coflow_deadlines_met: 0,
            mean_cct_secs: None,
            p95_cct_secs: None,
            results: BackendResults::Cached(CachedResults {
                backend: SimBackend::Flow,
                fingerprint: "end=987654321;1:Completed:5:0:100;".into(),
            }),
        }
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let summary = cached_summary();
        let back = RunSummary::from_record(&summary.to_record()).unwrap();
        assert_eq!(back.scenario, summary.scenario);
        assert_eq!(back.protocol, summary.protocol);
        assert_eq!(back.protocol_label, summary.protocol_label);
        assert_eq!(back.backend, summary.backend);
        assert_eq!(back.seed, summary.seed);
        assert_eq!(back.flows, summary.flows);
        assert_eq!(back.completed, summary.completed);
        assert_eq!(back.terminated, summary.terminated);
        assert_eq!(back.unfinished, summary.unfinished);
        assert_eq!(back.deadline_flows, summary.deadline_flows);
        assert_eq!(back.deadlines_met, summary.deadlines_met);
        // f64 Display is shortest-round-trip: bit-exact after parse.
        assert_eq!(back.mean_fct_secs, summary.mean_fct_secs);
        assert_eq!(back.p99_fct_secs, summary.p99_fct_secs);
        assert_eq!(back.max_fct_secs, None);
        assert_eq!(back.goodput_bytes, summary.goodput_bytes);
        assert_eq!(back.end_time, summary.end_time);
        assert_eq!(back.fingerprint(), summary.fingerprint());
        assert_eq!(back.results.backend(), SimBackend::Flow);
        assert!(back.results.cached().is_some());
        // Serialization is stable: a round-tripped record re-serializes identically.
        assert_eq!(back.to_record(), summary.to_record());
    }

    #[test]
    fn coflow_metrics_round_trip_and_default_to_zero_when_absent() {
        // Pre-coflow records carry no coflow keys and parse with zeroed metrics.
        let old = cached_summary().to_record();
        assert!(!old.contains("coflow"));
        let back = RunSummary::from_record(&old).unwrap();
        assert_eq!(back.coflows, 0);
        assert_eq!(back.mean_cct_secs, None);

        let mut s = cached_summary();
        s.coflows = 4;
        s.coflows_completed = 3;
        s.coflow_deadlines = 2;
        s.coflow_deadlines_met = 1;
        s.mean_cct_secs = Some(0.012_5);
        s.p95_cct_secs = None;
        let back = RunSummary::from_record(&s.to_record()).unwrap();
        assert_eq!(back.coflows, 4);
        assert_eq!(back.coflows_completed, 3);
        assert_eq!(back.coflow_deadlines, 2);
        assert_eq!(back.coflow_deadlines_met, 1);
        assert_eq!(back.mean_cct_secs, Some(0.012_5));
        assert_eq!(back.p95_cct_secs, None);
        assert_eq!(back.to_record(), s.to_record());
        assert_eq!(back.coflow_deadline_miss_rate(), Some(0.5));
    }

    #[test]
    fn from_record_rejects_missing_and_malformed_keys() {
        let record = cached_summary().to_record();
        let without = |key: &str| -> String {
            record
                .lines()
                .filter(|l| !l.starts_with(&format!("{key} =")))
                .map(|l| format!("{l}\n"))
                .collect()
        };
        for key in ["scenario", "backend", "flows", "fingerprint", "end_time_ns"] {
            let err = RunSummary::from_record(&without(key)).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
        let bad = record.replace("flows = 10", "flows = ten");
        assert!(RunSummary::from_record(&bad).unwrap_err().contains("flows"));
        // Unknown keys are ignored (cache bookkeeping lines ride along).
        let extra = format!("{record}request_fingerprint = abc\n");
        assert!(RunSummary::from_record(&extra).is_ok());
    }
}
