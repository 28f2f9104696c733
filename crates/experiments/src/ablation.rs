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

use std::sync::Arc;

use pdq::{Discipline, PdqInstaller, PdqParams};
use pdq_netsim::SimTime;
use pdq_scenario::{ProtocolRegistry, RunSummary, Scenario};

use crate::common::{fmt, run_in, Scale, Table};
use crate::fig67::{burst_utilization, fig6_scenario, fig7_scenario, ConvergenceOutcome};

/// Run `scenario` under PDQ with `params`: a one-entry registry holds the ablated
/// installer, so the run takes the same [`Scenario::run`] path as every figure.
fn run_ablated(params: &PdqParams, scenario: Scenario) -> RunSummary {
    let mut registry = ProtocolRegistry::new();
    let installer = PdqInstaller::custom("ablated", "PDQ", params.clone(), Discipline::Exact);
    registry.register_instance(Arc::new(installer));
    run_in(&registry, &scenario.protocol("ablated"))
}

/// One ablation table: a row per parameter value (each `set` on
/// [`PdqParams::full`]) with the Figure 6 [`ConvergenceOutcome`] and, with `burst`,
/// the Figure 7 [`burst_utilization`].
fn parameter_sweep(
    title: &str,
    header: &str,
    values: Vec<f64>,
    label: fn(f64) -> String,
    burst: bool,
    set: fn(&mut PdqParams, f64),
) -> Table {
    let mut columns = vec![
        header,
        "makespan [ms]",
        "busy utilization",
        "max queue [pkts]",
    ];
    if burst {
        columns.push("burst utilization");
    }
    let mut table = Table::new(title, &columns);
    for v in values {
        let mut params = PdqParams::full();
        set(&mut params, v);
        let (scenario, bottleneck) = fig6_scenario(false);
        let conv = ConvergenceOutcome::of(&run_ablated(&params, scenario), bottleneck);
        let mut row = vec![
            label(v),
            fmt(conv.makespan_ms),
            fmt(conv.busy_utilization),
            fmt(conv.max_queue_pkts),
        ];
        if burst {
            let (scenario, bottleneck) = fig7_scenario(false);
            row.push(fmt(burst_utilization(
                &run_ablated(&params, scenario),
                bottleneck,
            )));
        }
        table.push_row(row);
    }
    table
}

/// Ablation of the Early Start threshold `K` (paper recommends 1–2, uses 2; K = 0
/// disables Early Start entirely).
pub fn ablate_early_start_k(scale: Scale) -> Table {
    parameter_sweep(
        "Ablation: Early Start threshold K (Fig. 6 convergence + Fig. 7 burst scenarios)",
        "K [RTTs]",
        scale.pick(vec![0.0, 2.0], vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0]),
        fmt,
        true,
        |p, k| {
            p.early_start = k > 0.0;
            p.early_start_k = k.max(0.0);
        },
    )
}

/// Ablation of the dampening window (0 disables dampening).
pub fn ablate_damping(scale: Scale) -> Table {
    parameter_sweep(
        "Ablation: dampening window (Fig. 6 convergence + Fig. 7 burst scenarios)",
        "window [us]",
        scale.pick(
            vec![0.0, 150.0, 600.0],
            vec![0.0, 75.0, 150.0, 300.0, 600.0, 1200.0],
        ),
        |w| w.to_string(),
        true,
        |p, w| p.damping = SimTime::from_micros(w as u64),
    )
}

/// Ablation of the Suppressed Probing constant `X` (0 disables suppression: every
/// paused flow probes once per RTT).
pub fn ablate_probing_x(scale: Scale) -> Table {
    parameter_sweep(
        "Ablation: Suppressed Probing constant X (Fig. 6 convergence scenario)",
        "X [RTTs/flow]",
        scale.pick(vec![0.0, 0.2], vec![0.0, 0.1, 0.2, 0.5, 1.0, 2.0]),
        fmt,
        false,
        |p, x| {
            p.suppressed_probing = x > 0.0;
            p.probing_x = x.max(0.0);
        },
    )
}

/// Ablation of the sliver-acceptance threshold added by this implementation (see
/// EXPERIMENTS.md "implementation notes"): 0 reproduces the literal Algorithm 1, which
/// grants arbitrarily small leftovers to paused flows.
pub fn ablate_min_accept(scale: Scale) -> Table {
    parameter_sweep(
        "Ablation: sliver-acceptance threshold (fraction of link rate; Fig. 6 scenario)",
        "threshold",
        scale.pick(vec![0.0, 0.01], vec![0.0, 0.001, 0.01, 0.05, 0.1]),
        fmt,
        false,
        |p, f| p.min_accept_fraction = f,
    )
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
