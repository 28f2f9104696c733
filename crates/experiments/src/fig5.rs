//! Figure 5: realistic data-center workloads.
//!
//! * 5a — short-flow arrival rate supported at 99% application throughput vs mean
//!   deadline, under a VL2-like size mix (short flows < 40 KB are deadline-constrained);
//! * 5b — mean FCT of long flows under the same workload, normalized to PDQ(Full);
//! * 5c — mean FCT under an EDU1-like university data-center mix, normalized to
//!   PDQ(Full).
//!
//! The original traces are not public; the size mixes are synthetic stand-ins with the
//! same qualitative shape (see DESIGN.md).

use pdq_netsim::SimTime;
use pdq_scenario::{Scenario, TopologySpec, WorkloadSpec};
use pdq_workloads::{DeadlineDist, Pattern, SizeDist};

use crate::common::{
    app_throughput, fmt, label_of, labelled, protocol_table, run_scenario, Scale, Table, PDQ_FULL,
};

fn vl2_workload(rate: f64, deadline_ms: u64, duration: SimTime) -> WorkloadSpec {
    WorkloadSpec::Poisson {
        rate_flows_per_sec: rate,
        duration,
        sizes: SizeDist::vl2_like(),
        short_deadlines: DeadlineDist::exponential_ms(deadline_ms),
        short_flow_threshold_bytes: 40_000,
        pattern: Pattern::RandomPermutation,
    }
}

/// The Figure 5a scenario at one grid point: VL2-like Poisson traffic on the paper
/// tree at the given arrival rate and mean deadline. Public so the CLI's `sweep`
/// subcommand can fan the same grid across threads.
pub fn fig5a_scenario(rate: f64, deadline_ms: u64, duration: SimTime) -> Scenario {
    Scenario::new(format!("fig5a/dl={deadline_ms}ms/rate={rate}"))
        .topology(TopologySpec::PaperTree)
        .workload(vl2_workload(rate, deadline_ms, duration))
        .seed(7)
}

/// The Figure 5a grid axes at a given scale: deadlines \[ms\], rates [flows/s] and the
/// workload duration.
pub fn fig5a_axes(scale: Scale) -> (Vec<u64>, Vec<f64>, SimTime) {
    scale.pick(
        (
            vec![30],
            vec![500.0, 1_000.0, 2_000.0],
            SimTime::from_millis(100),
        ),
        (
            vec![15, 25, 35, 45],
            vec![500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0],
            SimTime::from_millis(250),
        ),
    )
}

/// Figure 5a: supported short-flow arrival rate at 99% application throughput vs mean
/// flow deadline (VL2-like workload, random permutation).
pub fn fig5a(scale: Scale) -> Table {
    let (deadlines, rates, duration) = fig5a_axes(scale);
    protocol_table(
        "Figure 5a: short-flow arrival rate [flows/s] supported at 99% application throughput (VL2-like mix)",
        "mean deadline [ms]",
        deadlines.into_iter().map(|dl| (dl.to_string(), dl)),
        &labelled(scale.protocols()),
        |&dl, p| {
            // Walk the rate ladder and report the largest rate still at >= 99%.
            let mut best = 0.0f64;
            for &rate in &rates {
                if app_throughput(&fig5a_scenario(rate, dl, duration).protocol(p)) < 0.99 {
                    break;
                }
                best = rate;
            }
            fmt(best)
        },
    )
}

fn normalized_fct_table(
    title: &str,
    sizes: SizeDist,
    long_flows_only: bool,
    scale: Scale,
) -> Table {
    let scenario = Scenario::new("fig5-fct")
        .topology(TopologySpec::PaperTree)
        .workload(WorkloadSpec::Poisson {
            rate_flows_per_sec: 1_500.0,
            duration: SimTime::from_millis(scale.pick(80, 300)),
            sizes,
            short_deadlines: DeadlineDist::paper_default(),
            short_flow_threshold_bytes: 40_000,
            pattern: Pattern::RandomPermutation,
        })
        .seed(11);
    let fct_of = |p: &str| {
        let summary = run_scenario(&scenario.clone().protocol(p));
        let counted = |r: &pdq_netsim::FlowRecord| !long_flows_only || r.spec.size_bytes > 40_000;
        summary.packet().mean_fct_secs(counted).unwrap_or(10.0)
    };
    let mut table = Table::new(title, &["scheme", "normalized FCT"]);
    let base = fct_of(PDQ_FULL);
    for &p in scale.protocols() {
        let v = if p == PDQ_FULL { base } else { fct_of(p) };
        table.push_row(vec![label_of(p), fmt(v / base.max(1e-9))]);
    }
    table
}

/// Figure 5b: mean FCT of long flows (> 40 KB) under the VL2-like mix, normalized to
/// PDQ(Full).
pub fn fig5b(scale: Scale) -> Table {
    normalized_fct_table(
        "Figure 5b: long-flow FCT under a VL2-like workload (normalized to PDQ(Full))",
        SizeDist::vl2_like(),
        true,
        scale,
    )
}

/// Figure 5c: mean FCT under the EDU1-like university data-center mix, normalized to
/// PDQ(Full).
pub fn fig5c(scale: Scale) -> Table {
    normalized_fct_table(
        "Figure 5c: FCT under an EDU1-like university data-center workload (normalized to PDQ(Full))",
        SizeDist::edu1_like(),
        false,
        scale,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5c_quick_runs_and_normalizes() {
        let t = fig5c(Scale::Quick);
        assert_eq!(t.rows.len(), 4);
        let pdq: f64 = t.rows[0][1].parse().unwrap();
        assert!((pdq - 1.0).abs() < 1e-9);
        for row in &t.rows {
            let v: f64 = row[1].parse().unwrap();
            assert!(v > 0.0 && v < 100.0);
        }
    }
}
