//! Figures 6 and 7: PDQ dynamics on a single bottleneck.
//!
//! * Figure 6 — convergence: five ~1 MB flows start together; PDQ serves them one at a
//!   time (seamless switching), keeps the bottleneck near 100% utilized and the queue
//!   tiny.
//! * Figure 7 — robustness to bursts: a long-lived flow is preempted by 50 short flows
//!   arriving simultaneously at t = 10 ms.
//!
//! Both figures are hand-built flow lists, expressed as [`WorkloadSpec::Manual`]
//! scenarios with per-millisecond traces of the bottleneck enabled. The
//! [ablation studies](crate::ablation) run the same two scenarios under other PDQ
//! parameters and read them with the same [`ConvergenceOutcome`] and
//! [`burst_utilization`].

use pdq_netsim::{FlowId, FlowSpec, LinkId, NodeId, Sample, SimTime, TraceConfig};
use pdq_scenario::{RunSummary, Scenario, TopologySpec, WorkloadSpec};
use pdq_topology::single_bottleneck;

use crate::common::{fmt, run_scenario, Table, PDQ_FULL};

/// A single-bottleneck scenario: `flows(hosts, receiver)` on `senders` senders and one
/// receiver, tracing the receiver's access link (and, with `trace_flows`, every
/// flow's goodput) once per millisecond. Returns the scenario and the traced link.
fn bottleneck_scenario(
    name: &str,
    senders: usize,
    trace_flows: bool,
    flows: impl FnOnce(&[NodeId], NodeId) -> Vec<FlowSpec>,
) -> (Scenario, LinkId) {
    let topo = single_bottleneck(senders, Default::default());
    let receiver = *topo.hosts.last().unwrap();
    // The receiver is the last host; its access link (switch -> receiver) is the last
    // duplex pair's forward direction, i.e. the second-to-last link id.
    let bottleneck = LinkId(topo.net.link_count() as u32 - 2);
    let scenario = Scenario::new(name)
        .topology(TopologySpec::SingleBottleneck {
            senders,
            access_loss: 0.0,
        })
        .workload(WorkloadSpec::Manual(flows(&topo.hosts, receiver)))
        .protocol(PDQ_FULL)
        .trace(TraceConfig {
            interval: SimTime::from_millis(1),
            links: vec![bottleneck],
            flows: trace_flows,
        });
    (scenario, bottleneck)
}

/// The Figure 6 scenario: five ~1 MB flows on a 5-sender bottleneck, sizes perturbed
/// so that a smaller index is more critical (as in the paper).
pub fn fig6_scenario(trace_flows: bool) -> (Scenario, LinkId) {
    bottleneck_scenario("fig6", 5, trace_flows, |hosts, receiver| {
        (0..5u64)
            .map(|i| FlowSpec::new(i + 1, hosts[i as usize], receiver, 1_000_000 + i * 2_000))
            .collect()
    })
}

/// The Figure 7 scenario: one long-lived flow plus 50 short (20 KB) flows arriving at
/// t = 10 ms.
pub fn fig7_scenario(trace_flows: bool) -> (Scenario, LinkId) {
    bottleneck_scenario("fig7", 51, trace_flows, |hosts, receiver| {
        let short = |i: u64| {
            FlowSpec::new(
                i + 2,
                hosts[i as usize + 1],
                receiver,
                20_000 + 100 * (i % 7),
            )
            .with_arrival(SimTime::from_millis(10))
        };
        let long = FlowSpec::new(1, hosts[0], receiver, 6_000_000);
        std::iter::once(long).chain((0..50).map(short)).collect()
    })
}

/// Outcome of one Figure 6 convergence run.
#[derive(Clone, Copy, Debug)]
pub struct ConvergenceOutcome {
    /// Completion time of the last flow, in milliseconds.
    pub makespan_ms: f64,
    /// Mean bottleneck utilization over the samples where the link was busy.
    pub busy_utilization: f64,
    /// Peak bottleneck queue in packets.
    pub max_queue_pkts: f64,
}

impl ConvergenceOutcome {
    /// Read a run's outcome from its flow records and `bottleneck`'s traces.
    pub fn of(res: &RunSummary, bottleneck: LinkId) -> Self {
        let makespan_ms = res
            .packet()
            .flows
            .iter()
            .filter_map(|r| r.completed_at)
            .max()
            .map_or(f64::INFINITY, |t| t.as_millis_f64());
        let busy: Vec<f64> = utilization(res, bottleneck)
            .iter()
            .map(|s| s.value.min(1.0))
            .filter(|v| *v > 0.05)
            .collect();
        ConvergenceOutcome {
            makespan_ms,
            busy_utilization: busy.iter().sum::<f64>() / busy.len().max(1) as f64,
            max_queue_pkts: max_queue_pkts(res, bottleneck),
        }
    }
}

/// Mean utilization of `bottleneck` during the Figure 7 preemption period (10–20 ms).
pub fn burst_utilization(res: &RunSummary, bottleneck: LinkId) -> f64 {
    let window: Vec<f64> = utilization(res, bottleneck)
        .iter()
        .filter(|s| (10.0..20.0).contains(&s.at.as_millis_f64()))
        .map(|s| s.value.min(1.0))
        .collect();
    window.iter().sum::<f64>() / window.len().max(1) as f64
}

fn utilization(res: &RunSummary, link: LinkId) -> &[Sample] {
    res.packet()
        .traces
        .link_utilization
        .get(&link)
        .map_or(&[], Vec::as_slice)
}

fn queue_bytes(res: &RunSummary, link: LinkId) -> &[Sample] {
    res.packet()
        .traces
        .link_queue_bytes
        .get(&link)
        .map_or(&[], Vec::as_slice)
}

/// The peak queue of `link` over the run, in 1500-byte packets.
fn max_queue_pkts(res: &RunSummary, link: LinkId) -> f64 {
    queue_bytes(res, link)
        .iter()
        .map(|x| x.value)
        .fold(0.0, f64::max)
        / 1500.0
}

/// Flow `flow`'s goodput in the `sample`-th interval, in Gbps, if traced.
fn goodput(res: &RunSummary, flow: u64, sample: usize) -> Option<f64> {
    let series = res.packet().traces.flow_goodput.get(&FlowId(flow))?;
    series.get(sample).map(|s| s.value / 1e9)
}

/// One row per trace sample (1 ms): the time, `flows(sample)`, the bottleneck's
/// utilization and its queue in packets.
fn trace_table(
    title: &str,
    flow_columns: &[&str],
    res: &RunSummary,
    bottleneck: LinkId,
    flows: impl Fn(usize) -> Vec<f64>,
) -> Table {
    let mut columns = vec!["time [ms]"];
    columns.extend(flow_columns);
    columns.extend(["utilization", "queue [pkts]"]);
    let mut table = Table::new(title, &columns);
    let queue = queue_bytes(res, bottleneck);
    for (i, u) in utilization(res, bottleneck).iter().enumerate() {
        let mut row = vec![fmt(u.at.as_millis_f64())];
        row.extend(flows(i).into_iter().map(fmt));
        row.push(fmt(u.value.min(1.0)));
        row.push(fmt(queue.get(i).map_or(0.0, |s| s.value / 1500.0)));
        table.push_row(row);
    }
    table
}

/// Figure 6: five ~1 MB flows, per-flow throughput / bottleneck utilization / queue
/// over time. Returns one row per sample interval (1 ms).
pub fn fig6() -> Table {
    let (scenario, bottleneck) = fig6_scenario(true);
    let res = run_scenario(&scenario);
    trace_table(
        "Figure 6: PDQ convergence dynamics (5 x ~1 MB flows, single 1 Gbps bottleneck)",
        &[
            "flow1 [Gbps]",
            "flow2 [Gbps]",
            "flow3 [Gbps]",
            "flow4 [Gbps]",
            "flow5 [Gbps]",
        ],
        &res,
        bottleneck,
        |i| {
            (1..=5)
                .map(|f| goodput(&res, f, i).unwrap_or(0.0))
                .collect()
        },
    )
}

/// Summary of Figure 6 used by tests and EXPERIMENTS.md: total completion time of
/// all five flows, mean bottleneck utilization while busy, max queue.
pub fn fig6_summary() -> ConvergenceOutcome {
    let (scenario, bottleneck) = fig6_scenario(false);
    ConvergenceOutcome::of(&run_scenario(&scenario), bottleneck)
}

/// Figure 7: one long-lived flow plus 50 short (20 KB) flows arriving at t = 10 ms.
/// Returns per-millisecond bottleneck utilization and queue, plus the long/short
/// split of throughput.
pub fn fig7() -> Table {
    let (scenario, bottleneck) = fig7_scenario(true);
    let res = run_scenario(&scenario);
    trace_table(
        "Figure 7: robustness to a burst of 50 short flows preempting a long flow",
        &["long flow [Gbps]", "short flows total [Gbps]"],
        &res,
        bottleneck,
        // Sum only flows present in the traces: an absent sample must not launder a
        // negative-zero sum into +0.0 (the tables print the sign).
        |i| {
            let short = (2..=51).filter_map(|f| goodput(&res, f, i)).sum();
            vec![goodput(&res, 1, i).unwrap_or(0.0), short]
        },
    )
}

/// Summary statistics for Figure 7, read from the traces: mean utilization during
/// the preemption period (10–20 ms) and the maximum queue length in packets over the
/// whole run.
pub fn fig7_summary() -> (f64, f64) {
    let (scenario, bottleneck) = fig7_scenario(false);
    let res = run_scenario(&scenario);
    (
        burst_utilization(&res, bottleneck),
        max_queue_pkts(&res, bottleneck),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_seamless_switching() {
        let ConvergenceOutcome {
            makespan_ms: total_ms,
            busy_utilization: mean_util,
            max_queue_pkts: max_queue,
        } = fig6_summary();
        // The paper reports ~42 ms for all five flows (40 ms of raw serialization plus
        // ~3% header overhead and two RTTs of initialization), ~100% utilization while
        // busy, and a queue of a few packets.
        assert!(
            (40.0..50.0).contains(&total_ms),
            "all five flows should finish in about 42 ms, got {total_ms} ms"
        );
        assert!(
            mean_util > 0.9,
            "bottleneck should stay near fully utilized while busy: {mean_util}"
        );
        assert!(
            max_queue < 10.0,
            "PDQ keeps the queue small: {max_queue} packets"
        );
    }

    #[test]
    fn fig6_scenario_spec_round_trips() {
        // The figure's scenario — manual flows, traces and all — survives the
        // plain-text spec format.
        let (scenario, _) = fig6_scenario(true);
        let back = Scenario::from_spec(&scenario.to_spec()).unwrap();
        assert_eq!(back, scenario);
    }

    #[test]
    fn fig7_burst_preempts_long_flow() {
        let table = fig7();
        // Before the burst the long flow owns the link; during the burst the short
        // flows take over.
        let at = |t_ms: f64| {
            table
                .rows
                .iter()
                .find(|r| (r[0].parse::<f64>().unwrap() - t_ms).abs() < 0.6)
                .cloned()
                .unwrap()
        };
        let before = at(8.0);
        let long_before: f64 = before[1].parse().unwrap();
        assert!(
            long_before > 0.5,
            "long flow should be running before the burst"
        );
        let during = at(13.0);
        let short_during: f64 = during[2].parse().unwrap();
        let long_during: f64 = during[1].parse().unwrap();
        assert!(
            short_during > long_during,
            "short flows should preempt the long one during the burst"
        );
        let (util, max_queue) = fig7_summary();
        // The paper reports 91.7% utilization during the preemption period and a queue
        // of 5–10 packets; Early Start keeps the link busy across the sub-RTT flows.
        assert!(util > 0.8, "utilization during preemption: {util}");
        assert!(max_queue < 15.0, "queue stays bounded: {max_queue}");
    }
}
