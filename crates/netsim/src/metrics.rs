//! Simulation results: per-flow records, link counters and time-series traces, and
//! the one rule ([`Fcts`]) every summary computes FCT statistics by.

use std::collections::HashMap;

use crate::engine::EngineStats;
use crate::event::QueueStats;
use crate::flow::{FlowOutcome, FlowRecord};
use crate::ids::{FlowId, LinkId};
use crate::network::LinkStats;
use crate::time::SimTime;

/// What to sample periodically during a run.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceConfig {
    /// Sampling period. `SimTime::ZERO` disables tracing.
    pub interval: SimTime,
    /// Links whose utilization and queue occupancy are sampled.
    pub links: Vec<LinkId>,
    /// If true, per-flow goodput (acked bytes per interval) is sampled for every flow.
    pub flows: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            interval: SimTime::ZERO,
            links: Vec::new(),
            flows: false,
        }
    }
}

impl TraceConfig {
    /// True if any sampling is enabled.
    pub fn enabled(&self) -> bool {
        self.interval > SimTime::ZERO && (!self.links.is_empty() || self.flows)
    }
}

/// A single sampled point of a time series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Sample time.
    pub at: SimTime,
    /// Sampled value (utilization in `[0, 1]`, queue bytes, or rate in bits/s).
    pub value: f64,
}

/// Time-series data collected during a run.
#[derive(Clone, Debug, Default)]
pub struct Traces {
    /// Link utilization over each sampling interval (bytes transmitted / capacity).
    pub link_utilization: HashMap<LinkId, Vec<Sample>>,
    /// Instantaneous link queue occupancy in bytes at each sample time.
    pub link_queue_bytes: HashMap<LinkId, Vec<Sample>>,
    /// Per-flow goodput (bits/s of acked payload) over each sampling interval.
    pub flow_goodput: HashMap<FlowId, Vec<Sample>>,
}

/// Everything a simulation run produces.
#[derive(Clone, Debug, Default)]
pub struct SimResults {
    /// Per-flow accounting, one record per flow that arrived, in ascending flow-id
    /// order: built in place from the engine's flow slab when the run ends.
    pub flows: Vec<FlowRecord>,
    /// Final per-link counters.
    pub link_stats: Vec<(LinkId, LinkStats)>,
    /// Time-series traces (if tracing was enabled).
    pub traces: Traces,
    /// Event-scheduler telemetry (summed across shards in a partitioned run; the
    /// peak is the sum of per-shard peaks, an upper bound on the global peak).
    pub queue: QueueStats,
    /// What the popped events were, by class, and the in-flight slab's high-water mark
    /// (summed across shards like `queue`). Telemetry: never part of a fingerprint or
    /// a cache record.
    pub engine: EngineStats,
    /// Simulated time at which the run stopped: the last flow's finish (or an
    /// unroutable flow's arrival, if that settled the run) when it stopped because
    /// every flow was done — `ZERO` for a run without flows, at every shard count —
    /// and the engine clock (at most `max_sim_time`) otherwise.
    pub end_time: SimTime,
}

impl SimResults {
    /// All flow records in id order, excluding M-PDQ subflows (records whose spec has
    /// a parent).
    pub fn top_level_flows(&self) -> impl Iterator<Item = &FlowRecord> {
        self.flows.iter().filter(|r| r.spec.parent().is_none())
    }

    /// Record of a single flow (a binary search); `None` if it never arrived.
    pub fn flow(&self, id: FlowId) -> Option<&FlowRecord> {
        let at = self.flows.binary_search_by_key(&id, |r| r.spec.id).ok()?;
        self.flows.get(at)
    }

    /// Number of flows that completed.
    pub fn completed_count(&self) -> usize {
        self.top_level_flows()
            .filter(|r| r.outcome() == FlowOutcome::Completed)
            .count()
    }

    /// Completion times of the completed top-level flows matching `filter`.
    fn fcts<F: Fn(&FlowRecord) -> bool>(&self, filter: F) -> Fcts {
        self.top_level_flows()
            .filter(|r| filter(r))
            .filter_map(|r| r.fct().map(|t| t.as_secs_f64()))
            .collect()
    }

    /// Mean flow completion time in seconds over completed flows matching `filter`.
    /// Returns `None` if no flow matches.
    pub fn mean_fct_secs<F: Fn(&FlowRecord) -> bool>(&self, filter: F) -> Option<f64> {
        self.fcts(filter).mean()
    }

    /// Mean FCT over all completed top-level flows.
    pub fn mean_fct_all_secs(&self) -> Option<f64> {
        self.mean_fct_secs(|_| true)
    }

    /// The given percentile (0..=100) of completion time over completed flows matching
    /// `filter`, in seconds.
    pub fn fct_percentile_secs<F: Fn(&FlowRecord) -> bool>(
        &self,
        percentile: f64,
        filter: F,
    ) -> Option<f64> {
        self.fcts(filter).percentile(percentile)
    }

    /// Maximum completion time over completed flows matching `filter`, in seconds.
    pub fn max_fct_secs<F: Fn(&FlowRecord) -> bool>(&self, filter: F) -> Option<f64> {
        self.fcts(filter).max()
    }

    /// Application throughput (paper §5.1): the fraction of deadline-constrained flows
    /// that completed before their deadline. Flows that never completed, were
    /// terminated, or finished late all count as misses. Returns `None` if there are no
    /// deadline-constrained flows.
    pub fn application_throughput(&self) -> Option<f64> {
        let mut total = 0usize;
        let mut met = 0usize;
        for r in self.top_level_flows() {
            if r.spec.deadline().is_some() {
                total += 1;
                if r.met_deadline() {
                    met += 1;
                }
            }
        }
        if total == 0 {
            None
        } else {
            Some(met as f64 / total as f64)
        }
    }

    /// Total tail-drop count across all links.
    pub fn total_tail_drops(&self) -> u64 {
        self.link_stats.iter().map(|(_, s)| s.tail_drops).sum()
    }

    /// Utilization of a link over the full run: bytes transmitted / (rate × duration).
    pub fn link_utilization(&self, link: LinkId, rate_bps: f64) -> f64 {
        let bytes = self
            .link_stats
            .iter()
            .find(|(id, _)| *id == link)
            .map(|(_, s)| s.bytes_transmitted)
            .unwrap_or(0);
        if self.end_time == SimTime::ZERO {
            return 0.0;
        }
        (bytes as f64 * 8.0) / (rate_bps * self.end_time.as_secs_f64())
    }
}

/// Flow completion times in seconds, sorted by [`f64::total_cmp`]: the one FCT rule
/// every summary follows, whichever backend produced the times. The mean sums in
/// that order (f64 addition is order-sensitive at the last ulp, and cached run
/// records hold means summed this way), and percentile `p` is the time at index
/// `round(p / 100 · (n − 1))`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fcts(Vec<f64>);

impl FromIterator<f64> for Fcts {
    fn from_iter<I: IntoIterator<Item = f64>>(fcts: I) -> Self {
        let mut fcts: Vec<f64> = fcts.into_iter().collect();
        fcts.sort_by(f64::total_cmp);
        Fcts(fcts)
    }
}

impl Fcts {
    /// Mean completion time; `None` without completions.
    pub fn mean(&self) -> Option<f64> {
        let n = self.0.len();
        (n > 0).then(|| self.0.iter().sum::<f64>() / n as f64)
    }

    /// The given percentile (0..=100) of completion time; `None` without completions.
    pub fn percentile(&self, percentile: f64) -> Option<f64> {
        let last = self.0.len().checked_sub(1)?;
        let idx = ((percentile / 100.0) * last as f64).round() as usize;
        Some(self.0[idx.min(last)])
    }

    /// The longest completion time; `None` without completions.
    pub fn max(&self) -> Option<f64> {
        self.0.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use crate::ids::NodeId;

    fn results_with(mut flows: Vec<FlowRecord>) -> SimResults {
        flows.sort_unstable_by_key(|r| r.spec.id);
        SimResults {
            flows,
            link_stats: Vec::new(),
            traces: Traces::default(),
            queue: QueueStats::default(),
            engine: EngineStats::default(),
            end_time: SimTime::from_millis(100),
        }
    }

    fn record(id: u64, size: u64, deadline_ms: Option<u64>, done_ms: Option<u64>) -> FlowRecord {
        let mut spec = FlowSpec::new(id, NodeId(0), NodeId(1), size);
        if let Some(d) = deadline_ms {
            spec = spec.with_deadline(SimTime::from_millis(d));
        }
        let mut r = FlowRecord::new(spec);
        r.completed_at = done_ms.map(SimTime::from_millis);
        r
    }

    #[test]
    fn application_throughput_counts_only_deadline_flows() {
        let res = results_with(vec![
            record(1, 1000, Some(10), Some(5)),  // met
            record(2, 1000, Some(10), Some(15)), // missed (late)
            record(3, 1000, Some(10), None),     // missed (never finished)
            record(4, 1000, None, Some(50)),     // no deadline: ignored
        ]);
        assert_eq!(res.application_throughput(), Some(1.0 / 3.0));
        assert_eq!(res.completed_count(), 3);
    }

    #[test]
    fn no_deadline_flows_gives_none() {
        let res = results_with(vec![record(1, 1000, None, Some(5))]);
        assert_eq!(res.application_throughput(), None);
    }

    #[test]
    fn mean_and_percentile_fct() {
        let res = results_with(vec![
            record(1, 1000, None, Some(10)),
            record(2, 1000, None, Some(20)),
            record(3, 1000, None, Some(30)),
            record(4, 1000, None, None),
        ]);
        let mean = res.mean_fct_all_secs().unwrap();
        assert!((mean - 0.020).abs() < 1e-9);
        let p50 = res.fct_percentile_secs(50.0, |_| true).unwrap();
        assert!((p50 - 0.020).abs() < 1e-9);
        let p100 = res.fct_percentile_secs(100.0, |_| true).unwrap();
        assert!((p100 - 0.030).abs() < 1e-9);
        let max = res.max_fct_secs(|_| true).unwrap();
        assert!((max - 0.030).abs() < 1e-9);
    }

    #[test]
    fn percentiles_follow_the_sorted_completion_times() {
        // 101 flows finishing at 1..=101 ms, inserted out of order (ids scrambled):
        // percentile p is the (p + 1)-th smallest FCT, whatever the input order.
        let records = (0..101u64)
            .map(|i| record((i * 37) % 101 + 1, 1000, None, Some((i * 37) % 101 + 1)))
            .collect();
        let res = results_with(records);
        let ms = |p: f64| (res.fct_percentile_secs(p, |_| true).unwrap() * 1e3).round();
        assert_eq!(
            (ms(0.0), ms(50.0), ms(99.0), ms(100.0)),
            (1.0, 51.0, 100.0, 101.0)
        );
        assert_eq!(
            res.fct_percentile_secs(100.0, |_| true),
            res.max_fct_secs(|_| true)
        );
        assert_eq!(
            res.fct_percentile_secs(50.0, |r| r.spec.id.value() > 200),
            None
        );
    }

    #[test]
    fn subflows_are_excluded_from_summaries() {
        let parent = record(1, 1000, None, Some(10));
        let mut sub = record(2, 500, None, Some(5));
        sub.spec = sub.spec.with_parent(FlowId(1));
        let res = results_with(vec![parent, sub]);
        assert_eq!(res.completed_count(), 1);
    }

    #[test]
    fn empty_results() {
        let res = results_with(vec![]);
        assert_eq!(res.mean_fct_all_secs(), None);
        assert_eq!(res.application_throughput(), None);
        assert_eq!(res.total_tail_drops(), 0);
    }

    #[test]
    fn trace_config_enabled() {
        assert!(!TraceConfig::default().enabled());
        let c = TraceConfig {
            interval: SimTime::from_micros(100),
            links: vec![LinkId(0)],
            flows: false,
        };
        assert!(c.enabled());
    }
}
