//! Engine-scale benchmark scenario: many flows on a fat-tree, packet level.
//!
//! This is not a paper figure — it exists to exercise and measure the simulator's hot
//! path (dense id slabs, zero-clone forwarding, slim events) at flow counts the figure
//! experiments never reach. At [`Scale::Large`] it runs ≥10k flows, the regime needed
//! for configuration sweeps over large topologies; [`Scale::Huge`] runs ≥1M flows on a
//! ≥1024-host fat-tree, the tier the partitioned engine exists for; `Quick` runs a few
//! hundred flows so the scenario stays cheap enough for the test suite. The
//! scenario honours the `--engine-threads` override
//! ([`crate::common::set_engine_threads`]), so the same table measures the engine at
//! any shard count. Reported wall-clock times feed `BENCH_engine.json`.

use std::time::Instant;

use pdq_netsim::SimTime;
use pdq_scenario::{Scenario, TopologySpec, WorkloadSpec};
use pdq_workloads::SizeDist;

use crate::common::{
    engine_threads, fmt, print_engine_counters, run_scenario, Scale, Table, PDQ_FULL,
};

/// Number of flows the scenario injects at each scale.
pub fn flow_count(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 300,
        Scale::Paper => 2_000,
        Scale::Large => 10_000,
        Scale::Huge => 1_048_576,
    }
}

/// The engine-scale [`Scenario`]: PDQ (Full) on a fat-tree with `flow_count(scale)`
/// small flows between random distinct host pairs, arrivals spread uniformly so the
/// engine sees both churn (arrivals/completions) and steady-state forwarding. The
/// `Huge` tier drops the mean flow size to 3 KB so a million flows drain within the
/// arrival spread instead of queueing without bound.
pub fn engine_scale_scenario(scale: Scale) -> Scenario {
    let (n_hosts, spread_ms, mean_bytes) = match scale {
        Scale::Quick => (16, 20, 30_000),
        Scale::Paper => (54, 100, 30_000),
        Scale::Large => (128, 200, 30_000),
        Scale::Huge => (1024, 500, 3_000),
    };
    Scenario::new("engine_scale")
        .topology(TopologySpec::FatTree { hosts: n_hosts })
        .workload(WorkloadSpec::RandomPairs {
            flows: flow_count(scale),
            spread: SimTime::from_millis(spread_ms),
            sizes: SizeDist::UniformMean(mean_bytes),
        })
        .protocol(PDQ_FULL)
        .seed(1)
}

/// The engine-scale scenario: PDQ (Full) on a fat-tree, `flow_count(scale)` flows.
///
/// Columns report the flow count, host count, completion statistics and the host
/// wall-clock seconds the packet-level run took — the engine's headline number.
pub fn engine_scale(scale: Scale) -> Table {
    let scenario = engine_scale_scenario(scale);
    let n_flows = flow_count(scale);
    let host_count = scenario.topology.build().host_count();

    let mut table = Table::new(
        format!(
            "Engine scale: PDQ(Full) packet-level, {n_flows} flows on a {host_count}-host fat-tree"
        ),
        &[
            "flows",
            "hosts",
            "shards",
            "completed",
            "mean FCT [ms]",
            "wall-clock [s]",
            "sim-flows/s",
        ],
    );
    let started = Instant::now();
    let res = run_scenario(&scenario);
    let wall = started.elapsed().as_secs_f64();
    // Scheduler telemetry on stderr (stdout tables are byte-compared in CI; this
    // line, like the wall-clock column, is a per-run measurement).
    print_engine_counters("engine_scale:", &res);
    table.push_row(vec![
        n_flows.to_string(),
        host_count.to_string(),
        engine_threads().to_string(),
        res.completed.to_string(),
        fmt(res.mean_fct_secs.unwrap_or(0.0) * 1e3),
        fmt(wall),
        fmt(n_flows as f64 / wall.max(1e-9)),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_engine_scale_completes_all_flows() {
        let t = engine_scale(Scale::Quick);
        assert_eq!(t.rows.len(), 1);
        let flows: usize = t.rows[0][0].parse().unwrap();
        let completed: usize = t.rows[0][3].parse().unwrap();
        assert_eq!(flows, flow_count(Scale::Quick));
        // The scenario is mildly loaded; essentially every flow must complete.
        assert!(completed * 10 >= flows * 9, "{completed}/{flows} completed");
    }

    #[test]
    fn large_scale_is_at_least_ten_thousand_flows() {
        assert!(flow_count(Scale::Large) >= 10_000);
    }

    #[test]
    fn huge_scale_hits_the_partitioned_engine_targets() {
        // The tier the sharded engine exists for: >= 1024 hosts, >= 1M flows.
        assert!(flow_count(Scale::Huge) >= 1_000_000);
        let scenario = engine_scale_scenario(Scale::Huge);
        assert!(scenario.topology.build().host_count() >= 1024);
    }
}
