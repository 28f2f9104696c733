//! Figure 12: flow aging prevents starvation of less critical flows.
//!
//! `backend = flow` scenarios on a fat-tree with random permutation traffic:
//! sweeping the aging rate α (via the `pdq(full;aging=<alpha>)` protocol spec)
//! trades a tiny increase in mean FCT for a large reduction in the worst-case
//! (max) FCT; RCP/D3 max/mean FCTs are shown for reference.

use pdq_netsim::SimTime;
use pdq_scenario::{Scenario, SimBackend, TopologySpec, WorkloadSpec};
use pdq_workloads::{DeadlineDist, Pattern, SizeDist};

use crate::common::{fmt, fmt_opt, run_scenario, Scale, Table, PDQ_FULL};
use crate::fig8::FLOW_LEVEL_STOP_AT;

/// Figure 12: max and mean FCT \[ms\] vs aging rate α.
pub fn fig12(scale: Scale) -> Table {
    let n_hosts = scale.pick(16, 128);
    let aging_rates = scale.pick(vec![0.0, 8.0], vec![0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
    let flows_per_host = scale.pick(30, 60);
    // Aging only changes the schedule when flows of different ages compete, so flows
    // must arrive over time (not simultaneously). A heavy-tailed size mix makes some
    // flows much less critical than others, which is what starves them without aging.
    let total_flows = n_hosts * flows_per_host;
    // Offered load ≈ 85% of each 1 Gbps host link: flows_per_host × 300 KB ≈ 2.4 ms of
    // serialization per host per millisecond of duration at 100%.
    let duration = SimTime::from_secs_f64(flows_per_host as f64 * 300_000.0 * 8.0 / 1e9 / 0.85);
    let base = Scenario::new("fig12")
        .backend(SimBackend::Flow)
        .topology(TopologySpec::FatTree { hosts: n_hosts })
        .workload(WorkloadSpec::Poisson {
            rate_flows_per_sec: total_flows as f64 / duration.as_secs_f64(),
            duration,
            sizes: SizeDist::Pareto {
                mean: 300_000,
                alpha: 1.3,
            },
            short_deadlines: DeadlineDist::None,
            short_flow_threshold_bytes: 0,
            pattern: Pattern::RandomPermutation,
        })
        .seed(3)
        .stop_at(FLOW_LEVEL_STOP_AT);

    let mut table = Table::new(
        "Figure 12: flow aging vs starvation (fat-tree, random permutation, flow level)",
        &[
            "aging rate",
            "PDQ max FCT [ms]",
            "PDQ mean FCT [ms]",
            "RCP/D3 max FCT [ms]",
            "RCP/D3 mean FCT [ms]",
        ],
    );
    let rcp = run_scenario(&base.clone().protocol("rcp"));
    let rcp_max = rcp.max_fct_secs.map(|v| v * 1e3);
    let rcp_mean = rcp.mean_fct_secs.map(|v| v * 1e3);
    for &alpha in &aging_rates {
        let protocol = if alpha > 0.0 {
            format!("pdq(full;aging={alpha})")
        } else {
            PDQ_FULL.to_string()
        };
        let res = run_scenario(&base.clone().protocol(protocol));
        table.push_row(vec![
            fmt(alpha),
            fmt_opt(res.max_fct_secs.map(|v| v * 1e3)),
            fmt_opt(res.mean_fct_secs.map(|v| v * 1e3)),
            fmt_opt(rcp_max),
            fmt_opt(rcp_mean),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_quick_aging_reduces_max_fct() {
        let t = fig12(Scale::Quick);
        let no_aging_max: f64 = t.rows[0][1].parse().unwrap();
        let aged_max: f64 = t.rows[1][1].parse().unwrap();
        let no_aging_mean: f64 = t.rows[0][2].parse().unwrap();
        let aged_mean: f64 = t.rows[1][2].parse().unwrap();
        assert!(
            aged_max <= no_aging_max + 1e-6,
            "aging must not increase the worst FCT: {aged_max} vs {no_aging_max}"
        );
        assert!(
            aged_mean <= no_aging_mean * 1.5,
            "aging should only mildly affect the mean FCT: {aged_mean} vs {no_aging_mean}"
        );
    }
}
