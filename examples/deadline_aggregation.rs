//! Deadline-constrained query aggregation: compare PDQ, D3, RCP and TCP on the paper's
//! core metric — application throughput, the fraction of flows meeting their deadline
//! (§5.2.1, Figure 3a).
//!
//! ```text
//! cargo run --release --example deadline_aggregation [n_flows]
//! ```

use pdq::PdqInstaller;
use pdq_baselines::{D3Installer, RcpInstaller, TcpInstaller};
use pdq_experiments::common::run_packet_level;
use pdq_netsim::TraceConfig;
use pdq_scenario::InstallerHandle;
use pdq_topology::single::default_paper_tree;
use pdq_workloads::{query_aggregation_flows, DeadlineDist, SizeDist};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let n_flows: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);

    let topo = default_paper_tree();
    let mut rng = SmallRng::seed_from_u64(42);
    // Query traffic: sizes uniform in [2 KB, 198 KB], deadlines exponential (mean 20 ms,
    // floored at 3 ms), everything directed at one aggregator.
    let flows = query_aggregation_flows(
        &topo,
        n_flows,
        &SizeDist::query(),
        &DeadlineDist::paper_default(),
        1,
        &mut rng,
    );

    println!(
        "{} deadline-constrained flows aggregating into one receiver on {}\n",
        flows.len(),
        topo.name
    );
    println!(
        "{:<12} {:>22} {:>18} {:>12}",
        "scheme", "application throughput", "mean FCT [ms]", "terminated"
    );
    let protocols: Vec<InstallerHandle> = vec![
        Arc::new(PdqInstaller::variant(pdq::PdqVariant::Full)),
        Arc::new(PdqInstaller::variant(pdq::PdqVariant::Basic)),
        Arc::new(D3Installer::default()),
        Arc::new(RcpInstaller::default()),
        Arc::new(TcpInstaller::default()),
    ];
    for protocol in protocols {
        let res = run_packet_level(&topo, &flows, &*protocol, 42, TraceConfig::default());
        let at = res.application_throughput().unwrap_or(f64::NAN);
        let fct = res.mean_fct_all_secs().map(|v| v * 1e3).unwrap_or(f64::NAN);
        let terminated = res
            .flows
            .iter()
            .filter(|r| r.terminated_at.is_some())
            .count();
        println!(
            "{:<12} {:>21.1}% {:>18.3} {:>12}",
            protocol.label(),
            at * 100.0,
            fct,
            terminated
        );
    }
    println!(
        "\nPDQ emulates Earliest Deadline First by pausing less critical flows, so it \
         satisfies more deadlines than the fair-sharing (RCP/TCP) and first-come \
         first-reserve (D3) baselines."
    );
}
