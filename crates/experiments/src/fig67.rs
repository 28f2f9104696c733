//! Figures 6 and 7: PDQ dynamics on a single bottleneck.
//!
//! * Figure 6 — convergence: five ~1 MB flows start together; PDQ serves them one at a
//!   time (seamless switching), keeps the bottleneck near 100% utilized and the queue
//!   tiny.
//! * Figure 7 — robustness to bursts: a long-lived flow is preempted by 50 short flows
//!   arriving simultaneously at t = 10 ms.
//!
//! Both figures are hand-built flow lists, expressed as [`WorkloadSpec::Manual`]
//! scenarios with per-millisecond traces enabled.

use pdq_netsim::{FlowSpec, LinkId, SimTime, TraceConfig};
use pdq_scenario::{RunSummary, Scenario, TopologySpec, WorkloadSpec};
use pdq_topology::{single_bottleneck, Topology};

use crate::common::{fmt, run_scenario, Table, PDQ_FULL};

fn bottleneck_link(topo: &Topology) -> LinkId {
    // The receiver is the last host; its access link (switch -> receiver) is the last
    // duplex pair's forward direction, i.e. the second-to-last link id.
    LinkId(topo.net.link_count() as u32 - 2)
}

/// The Figure 6 scenario: five ~1 MB flows on a 5-sender bottleneck, sizes perturbed
/// so that a smaller index is more critical (as in the paper).
fn fig6_scenario(trace_flows: bool) -> (Scenario, LinkId) {
    let topo = single_bottleneck(5, Default::default());
    let receiver = *topo.hosts.last().unwrap();
    let bottleneck = bottleneck_link(&topo);
    let flows: Vec<FlowSpec> = (0..5)
        .map(|i| {
            FlowSpec::new(
                i as u64 + 1,
                topo.hosts[i],
                receiver,
                1_000_000 + i as u64 * 2_000,
            )
        })
        .collect();
    let scenario = Scenario::new("fig6")
        .topology(TopologySpec::SingleBottleneck {
            senders: 5,
            access_loss: 0.0,
        })
        .workload(WorkloadSpec::Manual(flows))
        .protocol(PDQ_FULL)
        .trace(TraceConfig {
            interval: SimTime::from_millis(1),
            links: vec![bottleneck],
            flows: trace_flows,
        });
    (scenario, bottleneck)
}

/// The Figure 7 scenario: one long-lived flow plus 50 short (20 KB) flows arriving at
/// t = 10 ms.
fn fig7_scenario() -> (Scenario, LinkId) {
    let topo = single_bottleneck(51, Default::default());
    let receiver = *topo.hosts.last().unwrap();
    let bottleneck = bottleneck_link(&topo);
    let mut flows = vec![FlowSpec::new(1, topo.hosts[0], receiver, 6_000_000)];
    for i in 0..50u64 {
        flows.push(
            FlowSpec::new(
                i + 2,
                topo.hosts[(i + 1) as usize],
                receiver,
                20_000 + 100 * (i % 7),
            )
            .with_arrival(SimTime::from_millis(10)),
        );
    }
    let scenario = Scenario::new("fig7")
        .topology(TopologySpec::SingleBottleneck {
            senders: 51,
            access_loss: 0.0,
        })
        .workload(WorkloadSpec::Manual(flows))
        .protocol(PDQ_FULL)
        .trace(TraceConfig {
            interval: SimTime::from_millis(1),
            links: vec![bottleneck],
            flows: true,
        });
    (scenario, bottleneck)
}

fn goodput_at(res: &RunSummary, flow: u64, sample: usize) -> f64 {
    res.packet()
        .traces
        .flow_goodput
        .get(&pdq_netsim::FlowId(flow))
        .and_then(|s| s.get(sample))
        .map(|s| s.value / 1e9)
        .unwrap_or(0.0)
}

/// Figure 6: five ~1 MB flows, per-flow throughput / bottleneck utilization / queue
/// over time. Returns one row per sample interval (1 ms).
pub fn fig6() -> Table {
    let (scenario, bottleneck) = fig6_scenario(true);
    let res = run_scenario(&scenario);

    let mut table = Table::new(
        "Figure 6: PDQ convergence dynamics (5 x ~1 MB flows, single 1 Gbps bottleneck)",
        &[
            "time [ms]",
            "flow1 [Gbps]",
            "flow2 [Gbps]",
            "flow3 [Gbps]",
            "flow4 [Gbps]",
            "flow5 [Gbps]",
            "utilization",
            "queue [pkts]",
        ],
    );
    let util = res
        .packet()
        .traces
        .link_utilization
        .get(&bottleneck)
        .cloned()
        .unwrap_or_default();
    let queue = res
        .packet()
        .traces
        .link_queue_bytes
        .get(&bottleneck)
        .cloned()
        .unwrap_or_default();
    for (i, u) in util.iter().enumerate() {
        let t_ms = u.at.as_millis_f64();
        let mut row = vec![fmt(t_ms)];
        for f in 1..=5u64 {
            row.push(fmt(goodput_at(&res, f, i)));
        }
        row.push(fmt(u.value.min(1.0)));
        let q_pkts = queue.get(i).map(|s| s.value / 1500.0).unwrap_or(0.0);
        row.push(fmt(q_pkts));
        table.push_row(row);
    }
    table
}

/// Summary statistics for Figure 6 used by tests and EXPERIMENTS.md: total completion
/// time of all five flows \[ms\], mean bottleneck utilization while busy, max queue
/// (packets).
pub fn fig6_summary() -> (f64, f64, f64) {
    let (scenario, bottleneck) = fig6_scenario(false);
    let res = run_scenario(&scenario);
    let last_completion = res
        .packet()
        .flows
        .iter()
        .filter_map(|r| r.completed_at)
        .max()
        .map(|t| t.as_millis_f64())
        .unwrap_or(f64::INFINITY);
    let util = res
        .packet()
        .traces
        .link_utilization
        .get(&bottleneck)
        .cloned()
        .unwrap_or_default();
    let busy: Vec<f64> = util
        .iter()
        .map(|s| s.value.min(1.0))
        .filter(|v| *v > 0.05)
        .collect();
    let mean_util = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let max_queue_pkts = res
        .packet()
        .traces
        .link_queue_bytes
        .get(&bottleneck)
        .map(|s| s.iter().map(|x| x.value).fold(0.0, f64::max) / 1500.0)
        .unwrap_or(0.0);
    (last_completion, mean_util, max_queue_pkts)
}

/// Figure 7: one long-lived flow plus 50 short (20 KB) flows arriving at t = 10 ms.
/// Returns per-millisecond bottleneck utilization and queue, plus the long/short
/// split of throughput.
pub fn fig7() -> Table {
    let (scenario, bottleneck) = fig7_scenario();
    let res = run_scenario(&scenario);
    let mut table = Table::new(
        "Figure 7: robustness to a burst of 50 short flows preempting a long flow",
        &[
            "time [ms]",
            "long flow [Gbps]",
            "short flows total [Gbps]",
            "utilization",
            "queue [pkts]",
        ],
    );
    let util = res
        .packet()
        .traces
        .link_utilization
        .get(&bottleneck)
        .cloned()
        .unwrap_or_default();
    let queue = res
        .packet()
        .traces
        .link_queue_bytes
        .get(&bottleneck)
        .cloned()
        .unwrap_or_default();
    for (i, u) in util.iter().enumerate() {
        let long = goodput_at(&res, 1, i);
        // Sum only flows present in the traces: an absent sample must not launder a
        // negative-zero sum into +0.0 (the tables print the sign).
        let short: f64 = (2..=51u64)
            .filter_map(|f| {
                res.packet()
                    .traces
                    .flow_goodput
                    .get(&pdq_netsim::FlowId(f))
                    .and_then(|s| s.get(i))
                    .map(|s| s.value / 1e9)
            })
            .sum();
        let q_pkts = queue.get(i).map(|s| s.value / 1500.0).unwrap_or(0.0);
        table.push_row(vec![
            fmt(u.at.as_millis_f64()),
            fmt(long),
            fmt(short),
            fmt(u.value.min(1.0)),
            fmt(q_pkts),
        ]);
    }
    table
}

/// Summary statistics for Figure 7: mean utilization during the preemption period
/// (10–20 ms) and the maximum queue length in packets over the whole run.
pub fn fig7_summary() -> (f64, f64) {
    let table = fig7();
    let mut util_sum = 0.0;
    let mut util_n = 0usize;
    let mut max_queue: f64 = 0.0;
    for row in &table.rows {
        let t: f64 = row[0].parse().unwrap();
        let u: f64 = row[3].parse().unwrap();
        let q: f64 = row[4].parse().unwrap();
        if (10.0..20.0).contains(&t) {
            util_sum += u;
            util_n += 1;
        }
        max_queue = max_queue.max(q);
    }
    (util_sum / util_n.max(1) as f64, max_queue)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_seamless_switching() {
        let (total_ms, mean_util, max_queue) = fig6_summary();
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
