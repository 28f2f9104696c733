//! Coflow completion times.
//!
//! Not a figure from the PDQ paper: coflows (Chowdhury & Stoica, HotNets 2012) group
//! the flows of one application-level operation — a shuffle stage, a partition/
//! aggregate query — and the application-level metric is the *coflow* completion time
//! (CCT), the finish of the group's last flow. This experiment runs the coflow
//! workload once per scheme and compares:
//!
//! * `cpdq` — coflow-aware PDQ: every member advertises the group bottleneck's
//!   expected transmission time and inherits the group deadline, so switches schedule
//!   whole coflows smallest-bottleneck-first (the Sincronia ordering) instead of
//!   interleaving members of different groups;
//! * `pdq(full)` — flow-level PDQ, which optimizes per-flow completion times and
//!   happily interleaves coflows;
//! * `tcp` — fair sharing, the baseline every coflow scheduler is measured against;
//! * `d3` — arrival-order rate reservation.
//!
//! Two tables: a deadline-free workload compares mean/p95 CCT (with deadlines the
//! switch comparator is EDF-first and every scheme sees the same inherited group
//! deadlines, so criticality ordering would not differ), and a deadline-constrained
//! workload compares coflow deadline miss counts.

use pdq_scenario::{RunSummary, Scenario, TopologySpec, WorkloadSpec};
use pdq_workloads::{DeadlineDist, SizeDist};

use crate::common::{fmt_opt, label_of, run_scenario, Scale, Table};

/// The schemes the coflow experiment compares.
pub fn coflow_protocols() -> Vec<&'static str> {
    vec!["cpdq", "pdq(full)", "tcp", "d3"]
}

/// The coflow scenario at the given scale: Poisson coflow arrivals on the paper's
/// 12-server tree, each coflow a partition/aggregate-style group of query-sized
/// member flows.
pub fn coflow_scenario(
    scale: Scale,
    protocol: &str,
    deadlines: DeadlineDist,
    seed: u64,
) -> Scenario {
    let (coflows, width) = match scale {
        Scale::Quick => (8, 4),
        Scale::Paper => (30, 6),
        Scale::Large => (60, 8),
        Scale::Huge => (120, 8),
    };
    Scenario::new("coflow")
        .topology(TopologySpec::PaperTree)
        .workload(WorkloadSpec::Coflow {
            coflows,
            width,
            rate_coflows_per_sec: 2000.0,
            sizes: SizeDist::query(),
            deadlines,
        })
        .protocol(protocol)
        .seed(seed)
}

fn run(scale: Scale, protocol: &str, deadlines: DeadlineDist, seed: u64) -> RunSummary {
    run_scenario(&coflow_scenario(scale, protocol, deadlines, seed))
}

/// Mean/p95 CCT per scheme on the deadline-free coflow workload, where criticality
/// ordering (group-bottleneck SJF vs per-flow SRPT vs fair sharing) is what differs.
pub fn coflow_cct(scale: Scale) -> Table {
    let mut table = Table::new(
        "Coflow completion times (deadline-free groups on the paper tree)",
        &[
            "protocol",
            "coflows",
            "completed",
            "mean CCT [ms]",
            "p95 CCT [ms]",
        ],
    );
    for protocol in coflow_protocols() {
        let res = run(scale, protocol, DeadlineDist::None, 1);
        table.push_row(vec![
            label_of(protocol),
            res.coflows.to_string(),
            res.coflows_completed.to_string(),
            fmt_opt(res.mean_cct_secs.map(|s| s * 1e3)),
            fmt_opt(res.p95_cct_secs.map(|s| s * 1e3)),
        ]);
    }
    table
}

/// Coflow deadline outcomes per scheme when every group carries a deadline that all
/// members inherit.
pub fn coflow_deadline_misses(scale: Scale) -> Table {
    let mut table = Table::new(
        "Coflow deadline misses (every group deadline-constrained)",
        &[
            "protocol",
            "coflows",
            "completed",
            "deadlines met",
            "deadlines missed",
            "mean CCT [ms]",
        ],
    );
    for protocol in coflow_protocols() {
        let res = run(scale, protocol, DeadlineDist::exponential_ms(40), 1);
        let missed = res.coflow_deadlines - res.coflow_deadlines_met;
        table.push_row(vec![
            label_of(protocol),
            res.coflows.to_string(),
            res.coflows_completed.to_string(),
            res.coflow_deadlines_met.to_string(),
            missed.to_string(),
            fmt_opt(res.mean_cct_secs.map(|s| s * 1e3)),
        ]);
    }
    table
}

/// Both coflow tables (the `coflow` experiment name).
pub fn coflow(scale: Scale) -> Vec<Table> {
    vec![coflow_cct(scale), coflow_deadline_misses(scale)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_cct_ms(t: &Table, label: &str) -> f64 {
        let row = t
            .rows
            .iter()
            .find(|r| r[0] == label)
            .unwrap_or_else(|| panic!("no row for {label}"));
        row[3]
            .parse()
            .unwrap_or_else(|_| panic!("{label}: {row:?}"))
    }

    #[test]
    fn coflow_pdq_beats_fair_sharing_on_mean_cct() {
        let t = coflow_cct(Scale::Quick);
        assert_eq!(t.rows.len(), coflow_protocols().len());
        let cpdq = mean_cct_ms(&t, "C-PDQ(Full)");
        let tcp = mean_cct_ms(&t, "TCP");
        // The acceptance bar: scheduling whole coflows smallest-bottleneck-first must
        // beat fair sharing on mean CCT, as in the coflow-scheduling literature.
        assert!(
            cpdq < tcp,
            "coflow-aware PDQ should beat fair sharing on mean CCT: {cpdq} vs {tcp}"
        );
        // Deadline-free groups all complete.
        for row in &t.rows {
            assert_eq!(row[1], "8", "{row:?}");
            assert_eq!(row[2], "8", "{row:?}");
        }
    }

    #[test]
    fn deadline_misses_are_accounted_per_scheme() {
        let t = coflow_deadline_misses(Scale::Quick);
        assert_eq!(t.rows.len(), coflow_protocols().len());
        for row in &t.rows {
            let coflows: usize = row[1].parse().unwrap();
            let met: usize = row[3].parse().unwrap();
            let missed: usize = row[4].parse().unwrap();
            assert_eq!(met + missed, coflows, "{row:?}");
        }
    }
}
