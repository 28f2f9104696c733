//! Figure 10: resilience to inaccurate flow information.
//!
//! Ten deadline-unconstrained flows (mean 100 KB) under query aggregation; PDQ with
//! perfect flow-size information vs random criticality vs flow-size estimation
//! (criticality updated every 50 KB sent), compared against RCP, for a uniform and a
//! heavy-tailed (Pareto, tail index 1.1) size distribution.
//!
//! The information models are the `pdq(<variant>;<discipline>)` forms of the protocol
//! registry — no special-cased installation.

use pdq_scenario::{Scenario, TopologySpec, WorkloadSpec};
use pdq_workloads::{DeadlineDist, SizeDist};

use crate::common::{fmt, labelled, mean_fct, protocol_table, seed_mean, Scale, Table};

/// Figure 10: mean FCT \[ms\] for each information model and size distribution.
pub fn fig10(scale: Scale) -> Table {
    let seeds = scale.pick(vec![1], vec![1, 2, 3, 4]);
    let pareto = SizeDist::Pareto {
        mean: 100_000,
        alpha: 1.1,
    };
    let dists = [
        ("Uniform".to_string(), SizeDist::UniformMean(100_000)),
        ("Pareto (tail 1.1)".to_string(), pareto),
    ];
    protocol_table(
        "Figure 10: mean FCT [ms] with inaccurate flow information (10 flows, mean 100 KB)",
        "size distribution",
        dists,
        &labelled(&[
            "pdq(full;exact)",
            "pdq(full;random)",
            "pdq(full;estimate=50000)",
            "rcp",
        ]),
        |dist, p| {
            let scenario = Scenario::new("fig10")
                .topology(TopologySpec::PaperTree)
                .workload(WorkloadSpec::QueryAggregation {
                    flows: 10,
                    sizes: dist.clone(),
                    deadlines: DeadlineDist::None,
                })
                .protocol(p);
            fmt(seed_mean(&seeds, |s| {
                mean_fct(&scenario.clone().seed(s)) * 1e3
            }))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_quick_estimation_beats_random_on_heavy_tails() {
        let t = fig10(Scale::Quick);
        // Columns: dist, Exact, Random, Estimation, RCP.
        let pareto = &t.rows[1];
        let exact: f64 = pareto[1].parse().unwrap();
        let random: f64 = pareto[2].parse().unwrap();
        let est: f64 = pareto[3].parse().unwrap();
        assert!(
            exact <= random * 1.2,
            "perfect info should be best: exact={exact} random={random}"
        );
        assert!(
            est <= random * 1.2,
            "size estimation should not be much worse than random: est={est} random={random}"
        );
    }
}
