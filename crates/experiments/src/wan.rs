//! Inter-datacenter WAN scenario: paced vs unpaced senders on long-haul links.
//!
//! This is not a paper figure — the paper evaluates PDQ inside a single
//! datacenter. The WAN scenario stresses the regime the pacing work exists for:
//! tens-of-milliseconds RTTs, BDP-scaled queues and lossy long-haul links (see
//! `pdq_topology::wan`). Each protocol runs twice, with the historical
//! one-packet-per-gap schedule (`pacing = off`) and with the RFC 9002-style
//! token bucket (`pacing = on`), so the table shows what burst-capped bucket
//! pacing buys at WAN BDPs. The quick tier is also the committed
//! `specs/wan_quick.scn` that CI replays at 1, 2 and 4 engine shards to pin the
//! lossy-WAN determinism fingerprint (each lossy link draws from its own
//! `(seed, link)` stream, which is shard-count invariant; see `pdq_netsim::network`).
//!
//! Like `engine_scale`, wall-clock and event-queue telemetry go to stderr —
//! stdout tables are byte-compared in CI and must stay deterministic.

use std::time::Instant;

use pdq_netsim::SimTime;
use pdq_scenario::{Scenario, TopologySpec, WorkloadSpec};
use pdq_workloads::SizeDist;

use crate::common::{fmt, fmt_opt, print_engine_counters, run_scenario, Scale, Table, PDQ_FULL};

/// The protocols the WAN comparison runs, in table order.
pub const WAN_PROTOCOLS: &[&str] = &["tcp", "rcp", "d3", PDQ_FULL];

/// The WAN [`Scenario`]: `protocol` between random host pairs across a
/// heterogeneous inter-datacenter mesh (60 ms worst-pair RTT, 1 Gbit/s slowest
/// long-haul, 10⁻⁴ random loss per long-haul direction). `pacing` toggles the
/// RFC 9002-style sender token bucket.
pub fn wan_scenario(scale: Scale, protocol: &str, pacing: bool) -> Scenario {
    let (sites, hosts_per_site, flows, spread_ms, mean_bytes) = match scale {
        Scale::Quick => (4, 2, 48, 100, 150_000),
        Scale::Paper => (6, 4, 400, 300, 500_000),
        Scale::Large => (8, 8, 2_000, 500, 500_000),
        Scale::Huge => (8, 16, 10_000, 1_000, 500_000),
    };
    Scenario::new("wan")
        .topology(TopologySpec::Wan {
            sites,
            hosts_per_site,
            rtt_ms: 60.0,
            gbps: 1.0,
            loss_rate: 1e-4,
        })
        .workload(WorkloadSpec::RandomPairs {
            flows,
            spread: SimTime::from_millis(spread_ms),
            sizes: SizeDist::UniformMean(mean_bytes),
        })
        .protocol(protocol)
        .pacing(pacing)
        .seed(1)
}

/// The WAN comparison: every protocol with pacing off and on.
///
/// Columns are fully deterministic (CI byte-compares them); wall-clock seconds
/// and event-queue [`pdq_netsim::QueueStats`] peaks are printed to stderr per run.
pub fn wan(scale: Scale) -> Table {
    let mut table = Table::new(
        "WAN: inter-datacenter mesh (60 ms RTT, 1e-4 long-haul loss), paced vs unpaced senders",
        &[
            "protocol",
            "pacing",
            "flows",
            "completed",
            "mean FCT [ms]",
            "p99 FCT [ms]",
            "goodput [MB]",
        ],
    );
    for &protocol in WAN_PROTOCOLS {
        for pacing in [false, true] {
            let scenario = wan_scenario(scale, protocol, pacing);
            let started = Instant::now();
            let res = run_scenario(&scenario);
            let wall = started.elapsed().as_secs_f64();
            // Telemetry on stderr (the wall-clock of a WAN run and the event
            // queue's high-water marks are per-run measurements, not results).
            let pacing_token = if pacing { "on" } else { "off" };
            let label = format!("wan[{protocol} pacing={pacing_token}]: wall={wall:.3}s");
            print_engine_counters(&label, &res);
            table.push_row(vec![
                res.protocol_label.clone(),
                pacing_token.to_string(),
                res.flows.to_string(),
                res.completed.to_string(),
                fmt_opt(res.mean_fct_secs.map(|s| s * 1e3)),
                fmt_opt(res.p99_fct_secs.map(|s| s * 1e3)),
                fmt(res.goodput_bytes as f64 / 1e6),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_wan_scenario_is_a_high_bdp_lossy_mesh() {
        let s = wan_scenario(Scale::Quick, PDQ_FULL, true);
        match s.topology {
            TopologySpec::Wan {
                rtt_ms, loss_rate, ..
            } => {
                assert!(rtt_ms >= 50.0, "ISSUE floor: at least 50 ms RTT");
                assert!(loss_rate > 0.0, "ISSUE floor: nonzero loss");
            }
            ref t => panic!("expected a WAN topology, got {t:?}"),
        }
        assert!(s.pacing);
    }

    #[test]
    fn quick_wan_completes_for_every_protocol_paced_and_unpaced() {
        let t = wan(Scale::Quick);
        assert_eq!(t.rows.len(), 2 * WAN_PROTOCOLS.len());
        for row in &t.rows {
            let flows: usize = row[2].parse().unwrap();
            let completed: usize = row[3].parse().unwrap();
            assert_eq!(flows, 48);
            // Long-haul loss is rare (1e-4); essentially everything finishes.
            assert!(
                completed * 10 >= flows * 9,
                "{}/{} completed for {} pacing={}",
                completed,
                flows,
                row[0],
                row[1]
            );
        }
    }
}
