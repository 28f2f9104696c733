//! Figure 11: Multipath PDQ on BCube.
//!
//! * 11a — mean FCT vs load (fraction of hosts sending), PDQ vs M-PDQ with 3 subflows;
//! * 11b — mean FCT vs number of subflows at 100% load;
//! * 11c — flows supported at 99% application throughput vs number of subflows.
//!
//! M-PDQ installs through the registry's `mpdq(<k>)` family.

use pdq_scenario::{Scenario, TopologySpec, WorkloadSpec};
use pdq_workloads::{DeadlineDist, SizeDist};

use crate::common::{
    avg_application_throughput, fmt, max_supported, run_scenario, Table, PDQ_FULL,
};
use crate::fig3::Scale;

// BCube(2,3): 16 servers with 4 NICs each, as in the paper's Figure 11.
const BCUBE: TopologySpec = TopologySpec::BCube { n: 2, k: 3 };

fn protocol_for_subflows(k: usize) -> String {
    if k == 1 {
        PDQ_FULL.to_string()
    } else {
        format!("mpdq({k})")
    }
}

fn load_scenario(name: &str, load: f64) -> Scenario {
    Scenario::new(name)
        .topology(BCUBE)
        .workload(WorkloadSpec::PermutationAtLoad {
            load,
            sizes: SizeDist::UniformMean(1_000_000),
            deadlines: DeadlineDist::None,
        })
        .seed(4)
}

/// Figure 11a: mean FCT \[ms\] vs load, single-path PDQ vs M-PDQ with 3 subflows.
pub fn fig11a(scale: Scale) -> Table {
    let loads = match scale {
        Scale::Quick => vec![0.25, 1.0],
        Scale::Paper | Scale::Large | Scale::Huge => vec![0.2, 0.4, 0.6, 0.8, 1.0],
    };
    let mut table = Table::new(
        "Figure 11a: mean FCT [ms] vs load on BCube(2,3) (random permutation, no deadlines)",
        &["load", "PDQ", "M-PDQ (3 subflows)"],
    );
    for &load in &loads {
        let mut row = vec![fmt(load)];
        for p in [PDQ_FULL, "mpdq(3)"] {
            let summary = run_scenario(&load_scenario("fig11a", load).protocol(p));
            row.push(fmt(summary.mean_fct_secs.unwrap_or(10.0) * 1e3));
        }
        table.push_row(row);
    }
    table
}

/// Figure 11b: mean FCT \[ms\] vs number of subflows at 100% load.
pub fn fig11b(scale: Scale) -> Table {
    let subflow_counts: Vec<usize> = match scale {
        Scale::Quick => vec![1, 3],
        Scale::Paper | Scale::Large | Scale::Huge => vec![1, 2, 3, 4, 5, 6, 7, 8],
    };
    let mut table = Table::new(
        "Figure 11b: mean FCT [ms] vs number of M-PDQ subflows (100% load)",
        &["subflows", "mean FCT [ms]"],
    );
    for &k in &subflow_counts {
        let summary =
            run_scenario(&load_scenario("fig11b", 1.0).protocol(protocol_for_subflows(k)));
        table.push_row(vec![
            k.to_string(),
            fmt(summary.mean_fct_secs.unwrap_or(10.0) * 1e3),
        ]);
    }
    table
}

/// Figure 11c: deadline flows supported at 99% application throughput vs number of
/// subflows (100% load, deadline-constrained).
pub fn fig11c(scale: Scale) -> Table {
    let subflow_counts: Vec<usize> = match scale {
        Scale::Quick => vec![1, 3],
        Scale::Paper | Scale::Large | Scale::Huge => vec![1, 2, 3, 4, 6, 8],
    };
    let max_n = match scale {
        Scale::Quick => 16,
        Scale::Paper | Scale::Large | Scale::Huge => 40,
    };
    let mut table = Table::new(
        "Figure 11c: flows at 99% application throughput vs number of M-PDQ subflows",
        &["subflows", "flows @99% application throughput"],
    );
    for &k in &subflow_counts {
        let protocol = protocol_for_subflows(k);
        let supported = max_supported(max_n, 0.99, |n| {
            let base = Scenario::new("fig11c")
                .topology(BCUBE)
                .workload(WorkloadSpec::QueryAggregation {
                    flows: n,
                    sizes: SizeDist::query(),
                    deadlines: DeadlineDist::paper_default(),
                })
                .protocol(protocol.clone());
            avg_application_throughput(&base, &[5])
        });
        table.push_row(vec![k.to_string(), supported.to_string()]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11a_quick_mpdq_helps_at_light_load() {
        let t = fig11a(Scale::Quick);
        // At 25% load M-PDQ should be at least as fast as single-path PDQ (it can use
        // idle parallel paths); at 100% load it should not be dramatically worse.
        let light = &t.rows[0];
        let pdq: f64 = light[1].parse().unwrap();
        let mpdq: f64 = light[2].parse().unwrap();
        assert!(
            mpdq <= pdq * 1.15,
            "M-PDQ at light load should not be slower: pdq={pdq} mpdq={mpdq}"
        );
    }
}
