//! Figure 3: query aggregation on the default 12-server single-rooted tree.
//!
//! * 3a — application throughput vs number of deadline-constrained flows;
//! * 3b — application throughput vs mean flow size (3 flows);
//! * 3c — number of flows supported at 99% application throughput vs mean deadline;
//! * 3d — mean FCT (normalized to optimal) vs number of deadline-unconstrained flows;
//! * 3e — mean FCT (normalized to optimal) vs mean flow size (3 flows).

use pdq_flowsim::{max_on_time, sjf_completion, FluidFlow};
use pdq_netsim::Fcts;
use pdq_scenario::{lower_to_fluid, Scenario, TopologySpec, WorkloadSpec};
use pdq_topology::{single::default_paper_tree, Topology};
use pdq_workloads::{DeadlineDist, SizeDist};

use crate::common::{
    app_throughput, fmt, labelled, mean_fct, protocol_table, seed_mean, supported, Scale, Table,
    PDQ_FULL,
};

/// The Optimal column of Figure 3a/3b. It is not a registered protocol: its cells
/// are EDF + Moore-Hodgson on the shared receiver access link, computed on exactly
/// the flow sets the scenario runs see (same workload spec, same seeds).
const OPTIMAL: &str = "optimal";

/// One seed's aggregation flows, lowered as the fluid backend lowers them, and the
/// rate of the receiver access link they all share.
fn single_link(scenario: &Scenario, topo: &Topology, seed: u64) -> (Vec<FluidFlow>, f64) {
    let flows = scenario.workload.generate(topo, seed);
    let access = topo.net.outgoing(flows[0].dst)[0];
    let rate_bps = topo.net.link(topo.net.reverse(access)).rate_bps;
    (
        lower_to_fluid(&flows).into_iter().map(|(_, f)| f).collect(),
        rate_bps,
    )
}

/// The Figure 3 scenario family: `n` query-aggregation flows on the paper tree.
fn aggregation_scenario(
    name: &str,
    n_flows: usize,
    sizes: &SizeDist,
    deadlines: &DeadlineDist,
) -> Scenario {
    Scenario::new(name)
        .topology(TopologySpec::PaperTree)
        .workload(WorkloadSpec::QueryAggregation {
            flows: n_flows,
            sizes: sizes.clone(),
            deadlines: deadlines.clone(),
        })
}

/// A Figure 3 axis: one `(label, (flows, sizes))` per row.
type Rows = Vec<(String, (usize, SizeDist))>;

/// Figures 3a and 3b: application throughput [%] of deadline-constrained
/// aggregation, Optimal first, per row of `rows`.
fn app_throughput_table(scale: Scale, name: &str, title: &str, header: &str, rows: Rows) -> Table {
    let topo = default_paper_tree();
    let mut columns = vec![("Optimal".to_string(), OPTIMAL)];
    columns.extend(labelled(scale.protocols()));
    protocol_table(title, header, rows, &columns, |(n, sizes), p| {
        let base = aggregation_scenario(name, *n, sizes, &DeadlineDist::paper_default());
        let at = seed_mean(&scale.seeds(), |s| match p {
            OPTIMAL => {
                let (flows, rate_bps) = single_link(&base, &topo, s);
                match flows.iter().filter(|f| f.deadline.is_some()).count() {
                    0 => 1.0,
                    n => max_on_time(&flows, rate_bps) as f64 / n as f64,
                }
            }
            _ => app_throughput(&base.clone().protocol(p).seed(s)),
        });
        fmt(100.0 * at)
    })
}

/// Figures 3d and 3e: mean FCT of deadline-unconstrained aggregation normalized to
/// the optimal (SJF) schedule of the same flows, per row of `rows`.
fn normalized_fct_table(scale: Scale, title: &str, header: &str, rows: Rows) -> Table {
    let topo = default_paper_tree();
    protocol_table(
        title,
        header,
        rows,
        &labelled(scale.protocols()),
        |(n, sizes), p| {
            fmt(seed_mean(&scale.seeds(), |s| {
                let scenario = aggregation_scenario("fig3-fct", *n, sizes, &DeadlineDist::None)
                    .protocol(p)
                    .seed(s);
                let (flows, rate_bps) = single_link(&scenario, &topo, s);
                let sjf: Fcts = sjf_completion(&flows, rate_bps).into_iter().collect();
                mean_fct(&scenario) / sjf.mean().unwrap_or(0.0).max(1e-9)
            }))
        },
    )
}

/// Rows of `n` flows drawn from `sizes`, one per count.
fn flow_rows(counts: Vec<usize>, sizes: SizeDist) -> Rows {
    let row = |n: usize| (n.to_string(), (n, sizes.clone()));
    counts.into_iter().map(row).collect()
}

/// Rows of 3 flows of uniform sizes with the given means in KB.
fn size_rows(scale: Scale) -> Rows {
    let kbs = scale.pick(vec![100, 250], vec![100, 150, 200, 250, 300, 350]);
    let row = |kb: u64| (kb.to_string(), (3, SizeDist::UniformMean(kb * 1000)));
    kbs.into_iter().map(row).collect()
}

/// Figure 3a: application throughput [%] vs number of deadline-constrained flows.
pub fn fig3a(scale: Scale) -> Table {
    let counts = scale.pick(vec![3, 9, 15], vec![2, 5, 10, 15, 20, 25]);
    app_throughput_table(
        scale,
        "fig3a",
        "Figure 3a: application throughput [%] vs number of flows (query aggregation, deadlines)",
        "flows",
        flow_rows(counts, SizeDist::query()),
    )
}

/// Figure 3b: application throughput [%] vs mean flow size, 3 concurrent flows.
pub fn fig3b(scale: Scale) -> Table {
    app_throughput_table(
        scale,
        "fig3b",
        "Figure 3b: application throughput [%] vs mean flow size (3 flows, deadlines)",
        "mean size [KB]",
        size_rows(scale),
    )
}

/// Figure 3c: number of flows supported at 99% application throughput vs mean deadline.
pub fn fig3c(scale: Scale) -> Table {
    let deadlines_ms = scale.pick(vec![20, 40], vec![20, 30, 40, 50, 60]);
    protocol_table(
        "Figure 3c: flows supported at 99% application throughput vs mean flow deadline",
        "mean deadline [ms]",
        deadlines_ms.into_iter().map(|dl: u64| (dl.to_string(), dl)),
        &labelled(scale.protocols()),
        |&dl, p| {
            let deadlines = DeadlineDist::exponential_ms(dl);
            let scenario = |n| aggregation_scenario("fig3c", n, &SizeDist::query(), &deadlines);
            supported(scale.pick(24, 64), &scale.seeds(), |n| {
                scenario(n).protocol(p)
            })
            .to_string()
        },
    )
}

/// Figure 3d: mean FCT normalized to optimal vs number of flows (no deadlines).
pub fn fig3d(scale: Scale) -> Table {
    let counts = scale.pick(vec![3, 9], vec![1, 5, 10, 15, 20, 25]);
    normalized_fct_table(
        scale,
        "Figure 3d: mean FCT (normalized to optimal) vs number of flows (no deadlines)",
        "flows",
        flow_rows(counts, SizeDist::UniformMean(100_000)),
    )
}

/// Figure 3e: mean FCT normalized to optimal vs mean flow size (3 flows, no deadlines).
pub fn fig3e(scale: Scale) -> Table {
    normalized_fct_table(
        scale,
        "Figure 3e: mean FCT (normalized to optimal) vs mean flow size (3 flows, no deadlines)",
        "mean size [KB]",
        size_rows(scale),
    )
}

/// The paper's headline claims derived from the Figure 3/4 setup: the mean-FCT saving
/// of PDQ over TCP, RCP and D3, and the ratio of concurrent senders supported at 99%
/// application throughput relative to D3.
pub fn headline(scale: Scale) -> Table {
    let seeds = scale.seeds();
    let mut table = Table::new(
        "Headline claims (§1): FCT saving vs baselines and supported-flow ratio vs D3",
        &["metric", "value"],
    );
    // Mean FCT comparison, deadline-unconstrained aggregation of 15 flows.
    let fct_of = |p: &str| {
        let sizes = SizeDist::UniformMean(100_000);
        let base = aggregation_scenario("headline", 15, &sizes, &DeadlineDist::None).protocol(p);
        seed_mean(&seeds, |s| mean_fct(&base.clone().seed(s)))
    };
    let pdq = fct_of(PDQ_FULL);
    for (p, label) in [("rcp", "RCP"), ("d3", "D3"), ("tcp", "TCP")] {
        table.push_row(vec![
            format!("mean FCT saving vs {label} [%]"),
            fmt(100.0 * (1.0 - pdq / fct_of(p))),
        ]);
    }
    // Concurrent senders supported at 99% application throughput vs D3.
    let supported_by = |p: &str| {
        let (sizes, deadlines) = (SizeDist::query(), DeadlineDist::paper_default());
        supported(scale.pick(24, 64), &seeds, |n| {
            aggregation_scenario("headline", n, &sizes, &deadlines).protocol(p)
        })
    };
    let pdq_n = supported_by(PDQ_FULL);
    let d3_n = supported_by("d3").max(1);
    table.push_row(vec!["PDQ flows @99% AT".into(), pdq_n.to_string()]);
    table.push_row(vec!["D3 flows @99% AT".into(), d3_n.to_string()]);
    table.push_row(vec![
        "PDQ/D3 supported-flow ratio".into(),
        fmt(pdq_n as f64 / d3_n as f64),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3a_quick_shape() {
        let t = fig3a(Scale::Quick);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let opt: f64 = row[1].parse().unwrap();
            let pdq: f64 = row[2].parse().unwrap();
            let rcp: f64 = row[4].parse().unwrap();
            // PDQ tracks the omniscient EDF scheduler closely and never falls behind
            // the fair-sharing baseline (paper Fig. 3a). The quick tier runs one seed
            // of 15 flows, so application throughput is quantized in steps of 6.67
            // points; allow two marginal deadline misses before calling it a
            // regression (near-capacity outcomes flip with scheduling tie-breaks).
            assert!(
                pdq >= opt - 14.0,
                "PDQ {pdq}% should be near optimal {opt}%"
            );
            assert!(pdq + 1e-9 >= rcp, "PDQ {pdq}% should beat RCP {rcp}%");
        }
        // At light load every deadline is met.
        let pdq_light: f64 = t.rows[0][2].parse().unwrap();
        assert!(
            pdq_light >= 99.0,
            "PDQ light-load app throughput: {pdq_light}"
        );
    }

    #[test]
    fn fig3d_quick_pdq_close_to_optimal() {
        let t = fig3d(Scale::Quick);
        // Paper Fig. 3d: PDQ stays within a small factor of the omniscient SJF
        // scheduler and clearly below the fair-sharing and first-come-first-reserve
        // baselines. The remaining gap to optimal is flow-initialization latency and
        // header overhead, which the optimal fluid model does not pay.
        for row in &t.rows {
            let pdq: f64 = row[1].parse().unwrap();
            let d3: f64 = row[2].parse().unwrap();
            let rcp: f64 = row[3].parse().unwrap();
            let tcp: f64 = row[4].parse().unwrap();
            assert!(pdq < 1.8, "PDQ normalized FCT too far from optimal: {pdq}");
            assert!(pdq < d3, "PDQ {pdq} should beat D3 {d3}");
            assert!(pdq < rcp, "PDQ {pdq} should beat RCP {rcp}");
            assert!(pdq <= tcp + 0.05, "PDQ {pdq} should not lose to TCP {tcp}");
        }
    }
}
