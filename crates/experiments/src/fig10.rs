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

use crate::common::{fmt, label_of, run_scenario, Table};
use crate::fig3::Scale;

/// Figure 10: mean FCT \[ms\] for each information model and size distribution.
pub fn fig10(scale: Scale) -> Table {
    let n_flows = 10;
    let seeds: Vec<u64> = match scale {
        Scale::Quick => vec![1],
        Scale::Paper | Scale::Large | Scale::Huge => vec![1, 2, 3, 4],
    };
    let schemes: Vec<&str> = vec![
        "pdq(full;exact)",
        "pdq(full;random)",
        "pdq(full;estimate=50000)",
        "rcp",
    ];
    let dists: Vec<(&str, SizeDist)> = vec![
        ("Uniform", SizeDist::UniformMean(100_000)),
        (
            "Pareto (tail 1.1)",
            SizeDist::Pareto {
                mean: 100_000,
                alpha: 1.1,
            },
        ),
    ];
    let mut cols = vec!["size distribution".to_string()];
    cols.extend(schemes.iter().map(|p| label_of(p)));
    let mut table = Table::new(
        "Figure 10: mean FCT [ms] with inaccurate flow information (10 flows, mean 100 KB)",
        &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for (name, dist) in &dists {
        let mut row = vec![name.to_string()];
        for p in &schemes {
            let mut sum = 0.0;
            for &s in &seeds {
                let summary = run_scenario(
                    &Scenario::new("fig10")
                        .topology(TopologySpec::PaperTree)
                        .workload(WorkloadSpec::QueryAggregation {
                            flows: n_flows,
                            sizes: dist.clone(),
                            deadlines: DeadlineDist::None,
                        })
                        .protocol(*p)
                        .seed(s),
                );
                sum += summary.mean_fct_secs.unwrap_or(10.0) * 1e3;
            }
            row.push(fmt(sum / seeds.len() as f64));
        }
        table.push_row(row);
    }
    table
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
