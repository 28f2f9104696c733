//! Per-flow diagnostics.
//!
//! Not a paper figure: a debugging aid that runs the deadline-constrained query
//! aggregation workload (the same setup as Figure 3a) once per protocol and dumps one
//! row per flow — size, deadline, outcome, completion time, slack. This is the quickest
//! way to see *why* a scheme misses deadlines (late completion vs. early termination vs.
//! never finishing) when a figure-level number looks off.

use pdq_scenario::{Scenario, TopologySpec, WorkloadSpec};
use pdq_workloads::{DeadlineDist, SizeDist};

use crate::common::{fmt, label_of, run_scenario, Table, QUICK_PROTOCOLS};

/// One table per protocol in the quick comparison set: per-flow outcomes of a single
/// deadline-constrained query-aggregation run with `n_flows` flows.
pub fn per_flow_outcomes(n_flows: usize, seed: u64) -> Vec<Table> {
    let mut tables = Vec::new();
    for &protocol in QUICK_PROTOCOLS {
        let res = run_scenario(
            &Scenario::new("diag")
                .topology(TopologySpec::PaperTree)
                .workload(WorkloadSpec::QueryAggregation {
                    flows: n_flows,
                    sizes: SizeDist::query(),
                    deadlines: DeadlineDist::paper_default(),
                })
                .protocol(protocol)
                .seed(seed),
        );
        let mut table = Table::new(
            format!(
                "Per-flow diagnostics: {} ({n_flows} deadline-constrained flows, seed {seed})",
                label_of(protocol)
            ),
            &[
                "flow",
                "size [KB]",
                "deadline [ms]",
                "outcome",
                "done at [ms]",
                "slack [ms]",
            ],
        );
        for r in res.packet().top_level_flows() {
            let deadline = r.spec.deadline();
            let done = r.completed_at.or(r.terminated_at);
            let outcome = match (r.completed_at, r.terminated_at) {
                (Some(_), _) => {
                    if r.met_deadline() {
                        "met"
                    } else {
                        "late"
                    }
                }
                (None, Some(_)) => "terminated",
                (None, None) => "unfinished",
            };
            let slack = match (deadline, r.completed_at) {
                (Some(d), Some(c)) => Some(d.as_millis_f64() - c.as_millis_f64()),
                _ => None,
            };
            table.push_row(vec![
                r.spec.id.value().to_string(),
                fmt(r.spec.size_bytes as f64 / 1000.0),
                deadline
                    .map(|d| fmt(d.as_millis_f64()))
                    .unwrap_or_else(|| "-".into()),
                outcome.to_string(),
                done.map(|t| fmt(t.as_millis_f64()))
                    .unwrap_or_else(|| "-".into()),
                slack.map(fmt).unwrap_or_else(|| "-".into()),
            ]);
        }
        table.push_row(vec![
            "application throughput".into(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            fmt(res.application_throughput().unwrap_or(1.0) * 100.0),
        ]);
        tables.push(table);
    }
    tables
}

/// The `diag` experiment: [`per_flow_outcomes`] of 9 flows at seed 1.
pub fn diag() -> Vec<Table> {
    per_flow_outcomes(9, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diag_reports_every_flow_for_every_protocol() {
        let tables = per_flow_outcomes(3, 7);
        assert_eq!(tables.len(), QUICK_PROTOCOLS.len());
        for t in &tables {
            // 3 flows + the summary row.
            assert_eq!(t.rows.len(), 4);
            // Every flow row has a recognizable outcome.
            for row in &t.rows[..3] {
                assert!(["met", "late", "terminated", "unfinished"].contains(&row[3].as_str()));
            }
        }
    }

    #[test]
    fn deadline_unmet_shows_negative_slack_or_termination() {
        // Sanity of the slack column: it is only present for completed flows.
        let tables = per_flow_outcomes(6, 2);
        for t in &tables {
            for row in &t.rows[..t.rows.len() - 1] {
                if row[3] == "terminated" || row[3] == "unfinished" {
                    assert_eq!(row[5], "-");
                }
            }
        }
    }
}
