//! Ablation studies of PDQ's design choices.
//!
//! The paper motivates four mechanisms beyond the core preemptive scheduler — Early
//! Start (§3.3.2), Dampening (§3.3.2), Suppressed Probing (§3.3.2) and the rate
//! controller (§3.3.3) — and Figure 3 ablates three of them at the protocol-variant
//! level (Basic / ES / ES+ET / Full). This module ablates the underlying *parameters*
//! on the two dynamics scenarios where each mechanism matters most:
//!
//! * the Figure 6 convergence scenario (five ~1 MB flows on one bottleneck) measures
//!   makespan, utilization while busy and peak queue;
//! * the Figure 7 burst scenario (fifty 20 KB flows preempting a long flow) measures
//!   utilization during the preemption period, which is dominated by how quickly the
//!   switch can hand the link from one sub-RTT flow to the next.
//!
//! Sweeps: the Early Start threshold `K`, the dampening window, the Suppressed Probing
//! constant `X`, and the sliver-acceptance threshold added by this implementation.

use pdq::{install_pdq, Discipline, PdqParams};
use pdq_netsim::{FlowSpec, LinkId, SimConfig, SimTime, Simulator, TraceConfig};
use pdq_topology::{single_bottleneck, Topology};

use crate::common::{fmt, Table};
use crate::fig3::Scale;

/// Outcome of one Figure-6-style convergence run.
#[derive(Clone, Copy, Debug)]
pub struct ConvergenceOutcome {
    /// Completion time of the last flow, in milliseconds.
    pub makespan_ms: f64,
    /// Mean bottleneck utilization over the samples where the link was busy.
    pub busy_utilization: f64,
    /// Peak bottleneck queue in packets.
    pub max_queue_pkts: f64,
}

fn bottleneck_link(topo: &Topology) -> LinkId {
    LinkId(topo.net.link_count() as u32 - 2)
}

/// Run the Figure 6 scenario (five ~1 MB flows, single 1 Gbps bottleneck) under the
/// given PDQ parameters.
pub fn convergence_run(params: &PdqParams) -> ConvergenceOutcome {
    let topo = single_bottleneck(5, Default::default());
    let receiver = *topo.hosts.last().unwrap();
    let bottleneck = bottleneck_link(&topo);
    let cfg = SimConfig {
        max_sim_time: SimTime::from_secs(5),
        trace: TraceConfig {
            interval: SimTime::from_millis(1),
            links: vec![bottleneck],
            flows: false,
        },
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net.clone(), cfg);
    install_pdq(&mut sim, params, &Discipline::Exact);
    for i in 0..5u64 {
        sim.add_flow(FlowSpec::new(
            i + 1,
            topo.hosts[i as usize],
            receiver,
            1_000_000 + i * 2_000,
        ));
    }
    let res = sim.run();
    let makespan_ms = res
        .flows
        .iter()
        .filter_map(|r| r.completed_at)
        .max()
        .map(|t| t.as_millis_f64())
        .unwrap_or(f64::INFINITY);
    let util = res
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
    let busy_utilization = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let max_queue_pkts = res
        .traces
        .link_queue_bytes
        .get(&bottleneck)
        .map(|s| s.iter().map(|x| x.value).fold(0.0, f64::max) / 1500.0)
        .unwrap_or(0.0);
    ConvergenceOutcome {
        makespan_ms,
        busy_utilization,
        max_queue_pkts,
    }
}

/// Run the Figure 7 burst scenario under the given PDQ parameters and return the mean
/// bottleneck utilization during the preemption period (10–20 ms).
pub fn burst_utilization(params: &PdqParams) -> f64 {
    let topo = single_bottleneck(51, Default::default());
    let receiver = *topo.hosts.last().unwrap();
    let bottleneck = bottleneck_link(&topo);
    let cfg = SimConfig {
        max_sim_time: SimTime::from_secs(5),
        trace: TraceConfig {
            interval: SimTime::from_millis(1),
            links: vec![bottleneck],
            flows: false,
        },
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net.clone(), cfg);
    install_pdq(&mut sim, params, &Discipline::Exact);
    sim.add_flow(FlowSpec::new(1, topo.hosts[0], receiver, 6_000_000));
    for i in 0..50u64 {
        sim.add_flow(
            FlowSpec::new(
                i + 2,
                topo.hosts[(i + 1) as usize],
                receiver,
                20_000 + 100 * (i % 7),
            )
            .with_arrival(SimTime::from_millis(10)),
        );
    }
    let res = sim.run();
    let util = res
        .traces
        .link_utilization
        .get(&bottleneck)
        .cloned()
        .unwrap_or_default();
    let window: Vec<f64> = util
        .iter()
        .filter(|s| {
            let t = s.at.as_millis_f64();
            (10.0..20.0).contains(&t)
        })
        .map(|s| s.value.min(1.0))
        .collect();
    window.iter().sum::<f64>() / window.len().max(1) as f64
}

/// Ablation of the Early Start threshold `K` (paper recommends 1–2, uses 2; K = 0
/// disables Early Start entirely).
pub fn ablate_early_start_k(scale: Scale) -> Table {
    let ks: Vec<f64> = match scale {
        Scale::Quick => vec![0.0, 2.0],
        Scale::Paper | Scale::Large | Scale::Huge => vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0],
    };
    let mut table = Table::new(
        "Ablation: Early Start threshold K (Fig. 6 convergence + Fig. 7 burst scenarios)",
        &[
            "K [RTTs]",
            "makespan [ms]",
            "busy utilization",
            "max queue [pkts]",
            "burst utilization",
        ],
    );
    for &k in &ks {
        let mut params = PdqParams::full();
        params.early_start = k > 0.0;
        params.early_start_k = k.max(0.0);
        let conv = convergence_run(&params);
        let burst = burst_utilization(&params);
        table.push_row(vec![
            fmt(k),
            fmt(conv.makespan_ms),
            fmt(conv.busy_utilization),
            fmt(conv.max_queue_pkts),
            fmt(burst),
        ]);
    }
    table
}

/// Ablation of the dampening window (0 disables dampening).
pub fn ablate_damping(scale: Scale) -> Table {
    let windows_us: Vec<u64> = match scale {
        Scale::Quick => vec![0, 150, 600],
        Scale::Paper | Scale::Large | Scale::Huge => vec![0, 75, 150, 300, 600, 1200],
    };
    let mut table = Table::new(
        "Ablation: dampening window (Fig. 6 convergence + Fig. 7 burst scenarios)",
        &[
            "window [us]",
            "makespan [ms]",
            "busy utilization",
            "max queue [pkts]",
            "burst utilization",
        ],
    );
    for &w in &windows_us {
        let mut params = PdqParams::full();
        params.damping = SimTime::from_micros(w);
        let conv = convergence_run(&params);
        let burst = burst_utilization(&params);
        table.push_row(vec![
            w.to_string(),
            fmt(conv.makespan_ms),
            fmt(conv.busy_utilization),
            fmt(conv.max_queue_pkts),
            fmt(burst),
        ]);
    }
    table
}

/// Ablation of the Suppressed Probing constant `X` (0 disables suppression: every
/// paused flow probes once per RTT).
pub fn ablate_probing_x(scale: Scale) -> Table {
    let xs: Vec<f64> = match scale {
        Scale::Quick => vec![0.0, 0.2],
        Scale::Paper | Scale::Large | Scale::Huge => vec![0.0, 0.1, 0.2, 0.5, 1.0, 2.0],
    };
    let mut table = Table::new(
        "Ablation: Suppressed Probing constant X (Fig. 6 convergence scenario)",
        &[
            "X [RTTs/flow]",
            "makespan [ms]",
            "busy utilization",
            "max queue [pkts]",
        ],
    );
    for &x in &xs {
        let mut params = PdqParams::full();
        params.suppressed_probing = x > 0.0;
        params.probing_x = x.max(0.0);
        let conv = convergence_run(&params);
        table.push_row(vec![
            fmt(x),
            fmt(conv.makespan_ms),
            fmt(conv.busy_utilization),
            fmt(conv.max_queue_pkts),
        ]);
    }
    table
}

/// Ablation of the sliver-acceptance threshold added by this implementation (see
/// EXPERIMENTS.md "implementation notes"): 0 reproduces the literal Algorithm 1, which
/// grants arbitrarily small leftovers to paused flows.
pub fn ablate_min_accept(scale: Scale) -> Table {
    let fractions: Vec<f64> = match scale {
        Scale::Quick => vec![0.0, 0.01],
        Scale::Paper | Scale::Large | Scale::Huge => vec![0.0, 0.001, 0.01, 0.05, 0.1],
    };
    let mut table = Table::new(
        "Ablation: sliver-acceptance threshold (fraction of link rate; Fig. 6 scenario)",
        &[
            "threshold",
            "makespan [ms]",
            "busy utilization",
            "max queue [pkts]",
        ],
    );
    for &f in &fractions {
        let mut params = PdqParams::full();
        params.min_accept_fraction = f;
        let conv = convergence_run(&params);
        table.push_row(vec![
            fmt(f),
            fmt(conv.makespan_ms),
            fmt(conv.busy_utilization),
            fmt(conv.max_queue_pkts),
        ]);
    }
    table
}

/// All ablation tables.
pub fn ablation(scale: Scale) -> Vec<Table> {
    vec![
        ablate_early_start_k(scale),
        ablate_damping(scale),
        ablate_probing_x(scale),
        ablate_min_accept(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn early_start_improves_burst_utilization() {
        let t = ablate_early_start_k(Scale::Quick);
        assert_eq!(t.rows.len(), 2);
        let without: f64 = t.rows[0][4].parse().unwrap();
        let with: f64 = t.rows[1][4].parse().unwrap();
        // The whole point of Early Start (§3.3.2): without it, sub-RTT flows leave the
        // link idle between switchovers.
        assert!(
            with > without + 0.05,
            "Early Start should raise burst utilization: {without} -> {with}"
        );
        // And it must not blow up the queue.
        let queue_with: f64 = t.rows[1][3].parse().unwrap();
        assert!(
            queue_with < 15.0,
            "queue too large with Early Start: {queue_with}"
        );
    }

    #[test]
    fn paper_dampening_window_is_a_reasonable_operating_point() {
        let t = ablate_damping(Scale::Quick);
        // The default window (150 us = one RTT) must not cost utilization on the burst
        // scenario compared to no dampening, and a much larger window must not improve
        // the makespan (it only adds switchover latency).
        let no_damp_burst: f64 = t.rows[0][4].parse().unwrap();
        let default_burst: f64 = t.rows[1][4].parse().unwrap();
        let large_makespan: f64 = t.rows[2][1].parse().unwrap();
        let default_makespan: f64 = t.rows[1][1].parse().unwrap();
        assert!(
            default_burst > no_damp_burst - 0.1,
            "one-RTT dampening should not cost much burst utilization: {no_damp_burst} vs {default_burst}"
        );
        assert!(
            default_makespan <= large_makespan + 1.0,
            "a 4x larger dampening window should not beat the default: {default_makespan} vs {large_makespan}"
        );
    }

    #[test]
    fn suppressed_probing_does_not_hurt_convergence() {
        let t = ablate_probing_x(Scale::Quick);
        let without: f64 = t.rows[0][1].parse().unwrap();
        let with: f64 = t.rows[1][1].parse().unwrap();
        // Suppressed Probing trades probe overhead for (bounded) extra resume latency;
        // on the 5-flow scenario the makespan difference must stay small.
        assert!(
            (with - without).abs() < 5.0,
            "X=0.2 should not change the 5-flow makespan much: {without} vs {with}"
        );
    }

    #[test]
    fn sliver_threshold_keeps_schedule_tight() {
        let t = ablate_min_accept(Scale::Quick);
        let with_threshold: f64 = t.rows[1][1].parse().unwrap();
        // With the threshold the five ~1 MB flows finish in about the ideal 42 ms.
        assert!(
            with_threshold < 50.0,
            "makespan with the sliver threshold should be near-ideal: {with_threshold}"
        );
    }
}
