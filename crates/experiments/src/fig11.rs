//! Figure 11: Multipath PDQ on BCube.
//!
//! * 11a — mean FCT vs load (fraction of hosts sending), PDQ vs M-PDQ with 3 subflows;
//! * 11b — mean FCT vs number of subflows at 100% load;
//! * 11c — flows supported at 99% application throughput vs number of subflows.
//!
//! M-PDQ installs through the registry's `mpdq(<k>)` family.

use pdq_scenario::{Scenario, TopologySpec, WorkloadSpec};
use pdq_workloads::{DeadlineDist, SizeDist};

use crate::common::{fmt, mean_fct, protocol_table, supported, Scale, Table, PDQ_FULL};

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
    let loads = scale.pick(vec![0.25, 1.0], vec![0.2, 0.4, 0.6, 0.8, 1.0]);
    protocol_table(
        "Figure 11a: mean FCT [ms] vs load on BCube(2,3) (random permutation, no deadlines)",
        "load",
        loads.into_iter().map(|load| (fmt(load), load)),
        &[
            ("PDQ".into(), PDQ_FULL),
            ("M-PDQ (3 subflows)".into(), "mpdq(3)"),
        ],
        |&load, p| fmt(mean_fct(&load_scenario("fig11a", load).protocol(p)) * 1e3),
    )
}

/// Figure 11b: mean FCT \[ms\] vs number of subflows at 100% load.
pub fn fig11b(scale: Scale) -> Table {
    let subflow_counts = scale.pick(vec![1, 3], vec![1, 2, 3, 4, 5, 6, 7, 8]);
    let mut table = Table::new(
        "Figure 11b: mean FCT [ms] vs number of M-PDQ subflows (100% load)",
        &["subflows", "mean FCT [ms]"],
    );
    for k in subflow_counts {
        let scenario = load_scenario("fig11b", 1.0).protocol(protocol_for_subflows(k));
        table.push_row(vec![k.to_string(), fmt(mean_fct(&scenario) * 1e3)]);
    }
    table
}

/// Figure 11c: deadline flows supported at 99% application throughput vs number of
/// subflows (100% load, deadline-constrained).
pub fn fig11c(scale: Scale) -> Table {
    let subflow_counts = scale.pick(vec![1, 3], vec![1, 2, 3, 4, 6, 8]);
    let mut table = Table::new(
        "Figure 11c: flows at 99% application throughput vs number of M-PDQ subflows",
        &["subflows", "flows @99% application throughput"],
    );
    for k in subflow_counts {
        let flows = supported(scale.pick(16, 40), &[5], |n| {
            Scenario::new("fig11c")
                .topology(BCUBE)
                .workload(WorkloadSpec::QueryAggregation {
                    flows: n,
                    sizes: SizeDist::query(),
                    deadlines: DeadlineDist::paper_default(),
                })
                .protocol(protocol_for_subflows(k))
        });
        table.push_row(vec![k.to_string(), flows.to_string()]);
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
