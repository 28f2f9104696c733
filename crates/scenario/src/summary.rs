//! Typed run outcomes: the [`RunSummary`] a scenario run produces, on any
//! backend, plus the [`BackendResults`] holding the engine-specific records.
//!
//! One path summarizes every backend. Packet, flow-level and fluid results each
//! map to the same private per-flow row (id, outcome, FCT, deadline met, arrival,
//! and the fingerprint's `done`/`term`/`bytes` fields, each defined as its backend
//! defines it). From those rows one constructor computes the counts and the FCT
//! statistics ([`pdq_netsim::Fcts`]: sorted by `f64::total_cmp`, summed in that
//! order), [`RunSummary::attach_coflows`] joins the coflow tags against them, and
//! [`RunSummary::fingerprint`] writes them out in id order.
//!
//! A summary persists as a run record ([`RunSummary::to_record`]): the headline
//! fields and the determinism fingerprint as `key = value` lines under a
//! `# pdq run record v1` header, in the scenario spec's format. Absent metrics
//! are written `-`, and the coflow keys only when the run had coflows.

use std::fmt::Write as _;

use pdq_flowsim::{FlowLevelResults, FluidResults};
use pdq_netsim::{Fcts, FlowOutcome, FlowSpec, SimResults, SimTime};

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

/// One top-level flow's outcome as every summary statistic and the fingerprint read
/// it. Each backend's records map onto rows ([`BackendResults::rows`]), and each
/// field keeps that backend's definition:
/// * `fct_secs`: packet and flow-level FCTs are whole nanoseconds; fluid FCTs are
///   the model's unrounded seconds.
/// * `deadline_met`: fluid completions meet a deadline within
///   [`pdq_flowsim::DEADLINE_SLACK_SECS`] (1e-6 s).
/// * `arrival`: fluid flows all start at time zero.
/// * `term`: only the packet engine records when a flow was terminated; 0 elsewhere.
/// * `bytes`: the packet engine counts distinct payload bytes acknowledged; the
///   flow-level and fluid models count a completed flow's size, 0 otherwise.
#[derive(Debug)]
struct Row {
    id: u64,
    outcome: FlowOutcome,
    /// Completion time in seconds, for a completed flow.
    fct_secs: Option<f64>,
    /// `Some(met)` for a flow that carried a deadline.
    deadline_met: Option<bool>,
    arrival: SimTime,
    /// When the flow completed, in nanoseconds.
    done: Option<u64>,
    /// When the flow was terminated, in nanoseconds (0 if it was not).
    term: u64,
    bytes: u64,
}

impl BackendResults {
    /// Every top-level flow's [`Row`], in ascending id order (none for a cached
    /// summary).
    fn rows(&self) -> Box<dyn Iterator<Item = Row> + '_> {
        match self {
            BackendResults::Packet(r) => Box::new(r.top_level_flows().map(|r| Row {
                id: r.spec.id.value(),
                outcome: r.outcome(),
                fct_secs: r.fct().map(SimTime::as_secs_f64),
                deadline_met: r.spec.deadline.map(|_| r.met_deadline()),
                arrival: r.spec.arrival,
                done: r.completed_at.map(SimTime::as_nanos),
                term: r.terminated_at.map_or(0, SimTime::as_nanos),
                bytes: r.bytes_acked,
            })),
            BackendResults::Flow(r) => Box::new(r.flows.iter().map(|r| Row {
                id: r.id.value(),
                outcome: match (r.completed_at, r.terminated) {
                    (Some(_), _) => FlowOutcome::Completed,
                    (None, true) => FlowOutcome::Terminated,
                    (None, false) => FlowOutcome::Active,
                },
                fct_secs: r.fct().map(SimTime::as_secs_f64),
                deadline_met: r.deadline.map(|_| r.met_deadline()),
                arrival: r.arrival,
                done: r.completed_at.map(SimTime::as_nanos),
                term: 0,
                bytes: r.completed_at.map_or(0, |_| r.size_bytes),
            })),
            BackendResults::Fluid(r) => {
                let mut rows: Vec<Row> = r
                    .flows
                    .iter()
                    .map(|r| Row {
                        id: r.id,
                        outcome: match r.completion {
                            Some(_) => FlowOutcome::Completed,
                            None => FlowOutcome::Active,
                        },
                        fct_secs: r.completion,
                        deadline_met: r.flow.deadline.map(|_| r.met_deadline()),
                        arrival: SimTime::ZERO,
                        done: r.completion.map(|c| SimTime::from_secs_f64(c).as_nanos()),
                        term: 0,
                        bytes: r.completion.map_or(0, |_| r.flow.size as u64),
                    })
                    .collect();
                // Fluid records are in arrival order.
                rows.sort_by_key(|row| row.id);
                Box::new(rows.into_iter())
            }
            BackendResults::Cached(_) => Box::new(std::iter::empty()),
        }
    }
}

impl RunSummary {
    /// Summarize packet-level `results` for `scenario`.
    pub fn new(scenario: &Scenario, protocol_label: String, results: SimResults) -> Self {
        Self::summarize(
            scenario,
            protocol_label,
            BackendResults::Packet(Box::new(results)),
        )
    }

    /// Summarize a fresh run's `results`, of any backend, for `scenario`: every
    /// headline field comes from the results' [`Row`]s. The run ends at the packet
    /// engine's stop time, or else at the last completion.
    pub(crate) fn summarize(
        scenario: &Scenario,
        protocol_label: String,
        results: BackendResults,
    ) -> Self {
        let mut fcts = Vec::new();
        let (mut flows, mut outcomes, mut last_done) = (0, [0; 4], 0);
        let (mut deadline_flows, mut deadlines_met, mut goodput_bytes) = (0, 0, 0);
        for row in results.rows() {
            flows += 1;
            outcomes[row.outcome as usize] += 1;
            if let Some(met) = row.deadline_met {
                deadline_flows += 1;
                deadlines_met += usize::from(met);
            }
            goodput_bytes += row.bytes;
            last_done = last_done.max(row.done.unwrap_or(0));
            fcts.extend(row.fct_secs);
        }
        let fcts = Fcts::from_iter(fcts);
        let count = |outcome: FlowOutcome| outcomes[outcome as usize];
        RunSummary {
            scenario: scenario.name.clone(),
            protocol: scenario.protocol.clone(),
            protocol_label,
            backend: results.backend(),
            seed: scenario.seed,
            flows,
            completed: count(FlowOutcome::Completed),
            terminated: count(FlowOutcome::Terminated),
            failed: count(FlowOutcome::Failed),
            unfinished: count(FlowOutcome::Active),
            deadline_flows,
            deadlines_met,
            mean_fct_secs: fcts.mean(),
            p99_fct_secs: fcts.percentile(99.0),
            max_fct_secs: fcts.max(),
            goodput_bytes,
            end_time: results
                .packet()
                .map_or(SimTime::from_nanos(last_done), |r| r.end_time),
            coflows: 0,
            coflows_completed: 0,
            coflow_deadlines: 0,
            coflow_deadlines_met: 0,
            mean_cct_secs: None,
            p95_cct_secs: None,
            results,
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
    /// workload's [`pdq_netsim::CoflowTag`]s with this run's per-flow rows.
    ///
    /// `specs` is the materialized flow set the run executed; untagged flows are
    /// ignored, and a workload with no tagged flows leaves the summary unchanged
    /// (so non-coflow runs — and their fingerprints — are untouched). A coflow
    /// counts as completed only when *every* member delivered all bytes; its CCT is
    /// the last member's completion minus the group's earliest member arrival (fluid
    /// flows all arrive at time zero). Cached summaries keep their stored metrics.
    pub fn attach_coflows(&mut self, specs: &[FlowSpec]) {
        use std::collections::BTreeMap;

        // Each coflow's group deadline and member ids.
        let mut groups: BTreeMap<u64, (Option<SimTime>, Vec<u64>)> = BTreeMap::new();
        for s in specs {
            if let Some(tag) = s.coflow {
                let group = groups
                    .entry(tag.id.value())
                    .or_insert((tag.deadline, Vec::new()));
                group.1.push(s.id.value());
            }
        }
        if groups.is_empty() || self.results.cached().is_some() {
            return;
        }
        // Rows come in id order: a member's row is a binary search away.
        let rows: Vec<Row> = self.results.rows().collect();
        let mut ccts_ns: Vec<u64> = Vec::new();
        for (deadline, members) in groups.values() {
            self.coflows += 1;
            if deadline.is_some() {
                self.coflow_deadlines += 1;
            }
            // (first arrival, last completion), if every member completed.
            let span = members
                .iter()
                .try_fold((u64::MAX, 0u64), |(first, last), id| {
                    let row = &rows[rows.binary_search_by_key(id, |r| r.id).ok()?];
                    Some((first.min(row.arrival.as_nanos()), last.max(row.done?)))
                });
            let Some((first, last)) = span else {
                continue;
            };
            self.coflows_completed += 1;
            ccts_ns.push(last.saturating_sub(first));
            if deadline.is_some_and(|d| last <= d.as_nanos()) {
                self.coflow_deadlines_met += 1;
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

    /// Application throughput (§5.1): fraction of deadline-constrained flows that met
    /// their deadline; `None` when no flow carried a deadline.
    pub fn application_throughput(&self) -> Option<f64> {
        if self.deadline_flows == 0 {
            None
        } else {
            Some(self.deadlines_met as f64 / self.deadline_flows as f64)
        }
    }

    /// A deterministic digest of the run: the end time, then one
    /// `id:outcome:done:term:bytes;` row per top-level flow in id order (completion
    /// and termination instants in nanoseconds, 0 when absent, and the bytes
    /// delivered, each by its backend's rule), then the coflow metrics of a coflow
    /// run. Two runs of the same scenario — on any thread count — must produce
    /// identical fingerprints; the sweep-determinism tests compare these. A summary restored from a cache record
    /// returns the original run's stored fingerprint, so cached and fresh results of
    /// the same scenario always agree.
    pub fn fingerprint(&self) -> String {
        if let BackendResults::Cached(r) = &self.results {
            return r.fingerprint.clone();
        }
        let mut out = format!("end={};", self.end_time.as_nanos());
        for row in self.results.rows() {
            let _ = write!(
                out,
                "{}:{:?}:{}:{}:{};",
                row.id,
                row.outcome,
                row.done.unwrap_or(0),
                row.term,
                row.bytes
            );
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
    }

    /// Summarize hand-built `results` the way [`Scenario::run`] does, coflows
    /// joined against `specs`.
    fn summarize(results: BackendResults, specs: &[FlowSpec]) -> RunSummary {
        let scenario = Scenario::new("pin");
        let mut summary = RunSummary::summarize(&scenario, "label".into(), results);
        summary.attach_coflows(specs);
        summary
    }

    /// `(flows, completed, terminated, failed, unfinished, deadline_flows,
    /// deadlines_met, goodput_bytes, end_time_ns)`.
    fn counts(s: &RunSummary) -> [u64; 9] {
        [
            s.flows as u64,
            s.completed as u64,
            s.terminated as u64,
            s.failed as u64,
            s.unfinished as u64,
            s.deadline_flows as u64,
            s.deadlines_met as u64,
            s.goodput_bytes,
            s.end_time.as_nanos(),
        ]
    }

    fn tagged(spec: FlowSpec, coflow: u64, deadline: Option<SimTime>) -> FlowSpec {
        let tag = pdq_netsim::CoflowTag {
            id: pdq_netsim::CoflowId(coflow),
            bottleneck_bytes: spec.size_bytes,
            deadline,
        };
        spec.with_coflow(tag)
    }

    #[test]
    fn packet_runs_summarize_one_flow_per_outcome() {
        use pdq_netsim::{FlowId, FlowRecord, NodeId};
        let ms = SimTime::from_millis;
        let spec = |id, size| FlowSpec::new(id, NodeId(0), NodeId(1), size);
        let specs = vec![
            tagged(
                spec(1, 1_000).with_arrival(ms(1)).with_deadline(ms(10)),
                1,
                Some(ms(10)),
            ),
            spec(2, 2_000).with_deadline(ms(3)),
            spec(3, 3_000),
            tagged(spec(4, 4_000), 2, None),
        ];
        let mut records: Vec<FlowRecord> = specs.iter().cloned().map(FlowRecord::new).collect();
        records[0].completed_at = Some(ms(5));
        records[0].bytes_acked = 1_000;
        records[1].terminated_at = Some(ms(2));
        records[1].bytes_acked = 300;
        records[2].failed = true;
        records[3].bytes_acked = 50;
        // An M-PDQ subflow of flow 1: accounted to its parent, never counted itself.
        let mut sub = FlowRecord::new(FlowSpec {
            parent: Some(FlowId(1)),
            ..spec(5, 500).with_deadline(ms(1))
        });
        sub.completed_at = Some(ms(4));
        sub.bytes_acked = 500;
        records.push(sub);
        let results = SimResults {
            flows: records,
            end_time: ms(20),
            ..SimResults::default()
        };

        let s = summarize(BackendResults::Packet(Box::new(results)), &specs);
        assert_eq!(counts(&s), [4, 1, 1, 1, 1, 2, 1, 1_350, 20_000_000]);
        assert_eq!(
            (s.mean_fct_secs, s.p99_fct_secs, s.max_fct_secs),
            (Some(0.004), Some(0.004), Some(0.004))
        );
        assert_eq!(
            (s.coflows, s.coflows_completed, s.coflow_deadlines),
            (2, 1, 1)
        );
        assert_eq!(s.coflow_deadlines_met, 1);
        assert_eq!(
            (s.mean_cct_secs, s.p95_cct_secs),
            (Some(0.004), Some(0.004))
        );
        assert_eq!(
            s.fingerprint(),
            "end=20000000;1:Completed:5000000:0:1000;2:Terminated:0:2000000:300;\
             3:Failed:0:0:0;4:Active:0:0:50;cct=2:1:1:1:0.004:0.004;"
        );
    }

    #[test]
    fn flow_level_runs_summarize_one_flow_per_outcome() {
        use pdq_flowsim::FlowLevelRecord;
        use pdq_netsim::{FlowId, NodeId};
        let ms = SimTime::from_millis;
        let record = |id, size_bytes, deadline| FlowLevelRecord {
            id: FlowId(id),
            size_bytes,
            arrival: ms(1),
            deadline,
            completed_at: None,
            terminated: false,
        };
        let mut completed = record(1, 2_000, Some(ms(10)));
        completed.completed_at = Some(ms(6));
        let mut terminated = record(2, 3_000, Some(ms(2)));
        terminated.terminated = true;
        let active = record(3, 4_000, None);
        let specs = vec![tagged(
            FlowSpec::new(1, NodeId(0), NodeId(1), 2_000).with_arrival(ms(1)),
            7,
            None,
        )];
        let results = FlowLevelResults {
            flows: vec![completed, terminated, active],
        };

        let s = summarize(BackendResults::Flow(results), &specs);
        assert_eq!(counts(&s), [3, 1, 1, 0, 1, 2, 1, 2_000, 6_000_000]);
        assert_eq!(
            (s.mean_fct_secs, s.p99_fct_secs, s.max_fct_secs),
            (Some(0.005), Some(0.005), Some(0.005))
        );
        assert_eq!((s.coflows, s.coflows_completed), (1, 1));
        assert_eq!(
            (s.mean_cct_secs, s.p95_cct_secs),
            (Some(0.005), Some(0.005))
        );
        assert_eq!(
            s.fingerprint(),
            "end=6000000;1:Completed:6000000:0:2000;2:Terminated:0:0:0;3:Active:0:0:0;\
             cct=1:1:0:0:0.005:0.005;"
        );
    }

    #[test]
    fn fluid_runs_summarize_completed_and_unfinished_flows() {
        use pdq_flowsim::{FluidFlow, FluidFlowRecord, FluidModel};
        use pdq_netsim::NodeId;
        let record = |id, size, deadline, completion| FluidFlowRecord {
            id,
            flow: FluidFlow { size, deadline },
            completion,
        };
        // Input (arrival) order, not id order. Flow 2 meets its deadline inside the
        // model's 1e-6 s tolerance; flow 3 never finished.
        let results = FluidResults {
            model: FluidModel::D3,
            flows: vec![
                record(2, 3.0, Some(3.0), Some(3.000_000_5)),
                record(1, 1.0, None, Some(1.0)),
                record(3, 5.0, Some(4.0), None),
            ],
        };
        // The coflow's members arrive late in the spec, but the fluid model starts
        // every flow at time zero, so its CCT is the last member's completion.
        let specs: Vec<FlowSpec> = [1, 2]
            .into_iter()
            .map(|id| {
                let spec = FlowSpec::new(id, NodeId(0), NodeId(1), id)
                    .with_arrival(SimTime::from_millis(500));
                tagged(spec, 9, Some(SimTime::from_secs(4)))
            })
            .collect();

        let s = summarize(BackendResults::Fluid(results), &specs);
        assert_eq!(counts(&s), [3, 2, 0, 0, 1, 2, 1, 4, 3_000_000_500]);
        assert_eq!(
            (s.mean_fct_secs, s.p99_fct_secs, s.max_fct_secs),
            (
                Some((1.0 + 3.000_000_5) / 2.0),
                Some(3.000_000_5),
                Some(3.000_000_5)
            )
        );
        assert_eq!(
            (s.coflows, s.coflows_completed, s.coflow_deadlines_met),
            (1, 1, 1)
        );
        assert_eq!(s.mean_cct_secs, Some(3.000_000_5));
        assert_eq!(
            s.fingerprint(),
            "end=3000000500;1:Completed:1000000000:0:1;2:Completed:3000000500:0:3;\
             3:Active:0:0:0;cct=1:1:1:1:3.0000005:3.0000005;"
        );
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
