//! Figure 8: scaling to large topologies (Fat-tree, BCube, Jellyfish) with the
//! flow-level simulator, cross-validated against the packet-level simulator at the
//! smallest size. Also Figure 8e: the per-flow CDF of RCP-FCT / PDQ-FCT.
//!
//! Both fidelity levels run through the same [`Scenario`] API: the flow-level runs
//! are `backend = flow` scenarios (resolved to the §5.5 model via the protocol
//! registry), the packet-level cross-checks are the default `backend = packet`.

use pdq_netsim::SimTime;
use pdq_scenario::{Scenario, SimBackend, TopologySpec, WorkloadSpec};
use pdq_topology::Topology;
use pdq_workloads::{DeadlineDist, Pattern, SizeDist};

use crate::common::{fmt, fmt_opt, run_scenario, supported, Scale, Table, PDQ_FULL};

/// The flow-level model's historical time horizon (`FlowLevelConfig::max_time`).
pub(crate) const FLOW_LEVEL_STOP_AT: SimTime = SimTime::from_secs(60);

/// Which topology family to scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleTopology {
    /// Fat-tree (Figure 8a/8b).
    FatTree,
    /// BCube with 4-port switches (Figure 8c).
    BCube,
    /// Jellyfish, 24-port switches at a 2:1 network:server port ratio (Figure 8d).
    Jellyfish,
}

impl ScaleTopology {
    fn spec(&self, n_hosts: usize) -> TopologySpec {
        match self {
            ScaleTopology::FatTree => TopologySpec::FatTree { hosts: n_hosts },
            ScaleTopology::BCube => TopologySpec::BCubeHosts {
                hosts: n_hosts,
                n: 4,
            },
            ScaleTopology::Jellyfish => TopologySpec::Jellyfish {
                hosts: n_hosts,
                seed: 7,
            },
        }
    }
    fn build(&self, n_hosts: usize) -> Topology {
        self.spec(n_hosts).build()
    }
    fn label(&self) -> &'static str {
        match self {
            ScaleTopology::FatTree => "fat-tree",
            ScaleTopology::BCube => "BCube",
            ScaleTopology::Jellyfish => "Jellyfish",
        }
    }
}

fn permutation_spec(flows_per_host: usize, deadline: bool) -> WorkloadSpec {
    WorkloadSpec::Pattern {
        pattern: Pattern::RandomPermutation,
        sizes: if deadline {
            SizeDist::query()
        } else {
            SizeDist::UniformMean(100_000)
        },
        deadlines: if deadline {
            DeadlineDist::paper_default()
        } else {
            DeadlineDist::None
        },
        flows_per_pair: flows_per_host,
    }
}

/// A `backend = flow` scenario over `topology` at `n_hosts` under random
/// permutation traffic — the Figure 8 flow-level setup.
fn flow_scenario(
    name: &str,
    topology: ScaleTopology,
    n_hosts: usize,
    flows_per_host: usize,
    deadline: bool,
    seed: u64,
) -> Scenario {
    Scenario::new(name)
        .backend(SimBackend::Flow)
        .topology(topology.spec(n_hosts))
        .workload(permutation_spec(flows_per_host, deadline))
        .seed(seed)
        .stop_at(FLOW_LEVEL_STOP_AT)
}

/// Figure 8b/8c/8d: mean FCT \[ms\] vs network size under random permutation traffic with
/// deadline-unconstrained flows, comparing PDQ and RCP/D3 flow-level models; the
/// smallest size is cross-checked against the packet-level simulator.
pub fn fig8_fct_vs_size(topology: ScaleTopology, scale: Scale) -> Table {
    let sizes = scale.pick(vec![16, 64], vec![16, 64, 128, 256, 512]);
    let flows_per_host = scale.pick(2, 10);
    let mut table = Table::new(
        format!(
            "Figure 8 ({}): mean FCT [ms] vs network size (random permutation, no deadlines)",
            topology.label()
        ),
        &[
            "servers",
            "PDQ (flow level)",
            "RCP/D3 (flow level)",
            "PDQ (packet level)",
            "RCP (packet level)",
        ],
    );
    for (idx, &n) in sizes.iter().enumerate() {
        let base = flow_scenario("fig8-flow", topology, n, flows_per_host, false, 3);
        let pdq_fl = run_scenario(&base.clone().protocol(PDQ_FULL)).mean_fct_secs;
        let rcp_fl = run_scenario(&base.clone().protocol("rcp")).mean_fct_secs;
        // Packet-level cross-check only at the smallest size (it does not scale).
        let (pdq_pkt, rcp_pkt) = if idx == 0 {
            let base = Scenario::new("fig8-pkt")
                .topology(topology.spec(n))
                .workload(permutation_spec(flows_per_host, false))
                .seed(3);
            let p = run_scenario(&base.clone().protocol(PDQ_FULL)).mean_fct_secs;
            let r = run_scenario(&base.protocol("rcp")).mean_fct_secs;
            (p, r)
        } else {
            (None, None)
        };
        table.push_row(vec![
            topology.build(n).host_count().to_string(),
            fmt_opt(pdq_fl.map(|v| v * 1e3)),
            fmt_opt(rcp_fl.map(|v| v * 1e3)),
            fmt_opt(pdq_pkt.map(|v| v * 1e3)),
            fmt_opt(rcp_pkt.map(|v| v * 1e3)),
        ]);
    }
    table
}

/// Figure 8a: number of deadline-constrained flows (per the whole network) supported at
/// 99% application throughput vs network size, fat-tree, flow-level.
pub fn fig8a(scale: Scale) -> Table {
    let sizes = scale.pick(vec![16, 64], vec![16, 64, 128, 256, 512]);
    let mut table = Table::new(
        "Figure 8a: flows at 99% application throughput vs network size (fat-tree, deadlines, flow level)",
        &["servers", "PDQ", "D3", "RCP"],
    );
    for &n in &sizes {
        let hosts = ScaleTopology::FatTree.build(n).host_count();
        let mut row = vec![hosts.to_string()];
        for proto in [PDQ_FULL, "d3", "rcp"] {
            let per_host = supported(8, &[5], |flows_per_host| {
                flow_scenario("fig8a", ScaleTopology::FatTree, n, flows_per_host, true, 5)
                    .protocol(proto)
            });
            row.push((per_host * hosts).to_string());
        }
        table.push_row(row);
    }
    table
}

/// Figure 8e: CDF of the per-flow ratio RCP-FCT / PDQ-FCT on a ~128-server topology.
/// Returns selected percentiles of the ratio distribution for each topology family.
pub fn fig8e(scale: Scale) -> Table {
    let n_hosts = scale.pick(16, 128);
    let topologies = scale.pick(
        vec![ScaleTopology::FatTree],
        vec![
            ScaleTopology::FatTree,
            ScaleTopology::BCube,
            ScaleTopology::Jellyfish,
        ],
    );
    let mut table = Table::new(
        "Figure 8e: distribution of per-flow RCP FCT / PDQ FCT (flow level)",
        &[
            "topology",
            "p10",
            "p25",
            "p50",
            "p75",
            "p90",
            "fraction of flows with ratio >= 2",
            "fraction of flows slower under PDQ",
        ],
    );
    for t in topologies {
        let base = flow_scenario("fig8e", t, n_hosts, 3, false, 9);
        let pdq = run_scenario(&base.clone().protocol(PDQ_FULL));
        let rcp = run_scenario(&base.protocol("rcp"));
        let mut ratios: Vec<f64> = pdq
            .flow()
            .flows
            .iter()
            .filter_map(|flow| {
                let p = flow.fct()?.as_secs_f64();
                let r = rcp.flow().fct_of(flow.id)?;
                Some(r / p.max(1e-9))
            })
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| -> f64 {
            if ratios.is_empty() {
                return f64::NAN;
            }
            let idx = ((p / 100.0) * (ratios.len() as f64 - 1.0)).round() as usize;
            ratios[idx]
        };
        let frac_ge_2 = ratios.iter().filter(|&&r| r >= 2.0).count() as f64 / ratios.len() as f64;
        let frac_worse = ratios.iter().filter(|&&r| r < 1.0).count() as f64 / ratios.len() as f64;
        table.push_row(vec![
            t.label().to_string(),
            fmt(pct(10.0)),
            fmt(pct(25.0)),
            fmt(pct(50.0)),
            fmt(pct(75.0)),
            fmt(pct(90.0)),
            fmt(frac_ge_2),
            fmt(frac_worse),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::registry;
    use pdq_flowsim::run_flow_level;

    #[test]
    fn fig8e_quick_pdq_wins_for_most_flows() {
        let t = fig8e(Scale::Quick);
        let row = &t.rows[0];
        let median: f64 = row[3].parse().unwrap();
        let frac_worse: f64 = row[7].parse().unwrap();
        assert!(
            median >= 1.0,
            "median RCP/PDQ ratio should favour PDQ: {median}"
        );
        assert!(
            frac_worse < 0.5,
            "only a minority of flows may be slower under PDQ: {frac_worse}"
        );
    }

    #[test]
    fn fig8_fct_quick_flow_level_tracks_packet_level() {
        let t = fig8_fct_vs_size(ScaleTopology::FatTree, Scale::Quick);
        let row = &t.rows[0];
        let fl: f64 = row[1].parse().unwrap();
        let pkt: f64 = row[3].parse().unwrap();
        // The two simulators should agree within a factor of two at small scale
        // (the paper's Figure 8 shows close agreement).
        assert!(fl > 0.0 && pkt > 0.0);
        let ratio = (fl / pkt).max(pkt / fl);
        assert!(ratio < 2.5, "flow-level {fl} ms vs packet-level {pkt} ms");
    }

    /// The scenario-routed flow backend must be bit-identical to calling
    /// `pdq_flowsim::run_flow_level` directly with the resolved installer's config.
    #[test]
    fn flow_backend_matches_direct_flowsim_invocation() {
        let scenario =
            flow_scenario("parity", ScaleTopology::FatTree, 16, 2, true, 5).protocol(PDQ_FULL);
        let summary = run_scenario(&scenario);

        let topo = scenario.topology.build();
        let flows = scenario.workload.generate(&topo, scenario.seed);
        let config = registry().resolve(PDQ_FULL).unwrap().flow_config().unwrap();
        let direct = run_flow_level(&topo, &flows, &config, scenario.seed);
        // Per-flow records are bit-identical, and the summary is a function of them.
        assert_eq!(summary.flow().flows.len(), direct.flows.len());
        for (ported, rec) in summary.flow().flows.iter().zip(&direct.flows) {
            assert_eq!(ported.id, rec.id);
            assert_eq!(ported.completed_at, rec.completed_at, "{:?}", rec.id);
            assert_eq!(ported.terminated, rec.terminated, "{:?}", rec.id);
        }
        let completed = direct.flows.iter().filter(|r| r.completed_at.is_some());
        assert_eq!(summary.completed, completed.count());
    }
}
