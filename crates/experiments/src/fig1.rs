//! Figure 1 (§2.1): the motivating fluid-model comparison, regenerated through the
//! Scenario API's `fluid` backend.
//!
//! Three flows — `f_A` (size 1, deadline 1), `f_B` (2, 4), `f_C` (3, 6) — share one
//! unit-rate bottleneck. Fair sharing (TCP/RCP) finishes them at [3, 5, 6] and
//! misses two deadlines; serial SJF/EDF (PDQ's ideal) finishes at [1, 3, 6],
//! ~29% better mean FCT, and meets all three; D3's first-come-first-reserve meets
//! them only for the single arrival order that happens to equal EDF.
//!
//! Each row is a [`Scenario`] with the same manual flow list, run on
//! `backend = fluid` under a different protocol (and, for D3, a different arrival
//! order) — so the paper's motivating numbers are regression-tested through the
//! exact same path `run-spec specs/fig1_fluid.scn` and sweeps use, and stay
//! byte-identical to direct `pdq_flowsim::fluid` calls (see this module's tests).

use pdq_netsim::{FlowSpec, NodeId, SimTime};
use pdq_scenario::{RunSummary, Scenario, SimBackend, TopologySpec, WorkloadSpec};

use crate::common::{run_scenario, Table};

/// The §2.1 flow set as a manual workload: sizes 1/2/3 bytes (1/2/3 s at the fluid
/// backend's one byte per second), deadlines 1/4/6 s, with per-flow arrival offsets
/// in nanoseconds. Arrivals don't shift fluid completions — they only fix D3's
/// reservation (arrival) order.
fn fig1_workload(arrival_offsets_ns: [u64; 3]) -> WorkloadSpec {
    let flow = |id: u64, size: u64, deadline_secs: u64, at: u64| {
        FlowSpec::new(id, NodeId(id as u32), NodeId(4), size)
            .with_arrival(SimTime::from_nanos(at))
            .with_deadline(SimTime::from_secs(deadline_secs))
    };
    WorkloadSpec::Manual(vec![
        flow(1, 1, 1, arrival_offsets_ns[0]),
        flow(2, 2, 4, arrival_offsets_ns[1]),
        flow(3, 3, 6, arrival_offsets_ns[2]),
    ])
}

/// One Figure 1 cell: the shared flow set on the Figure 2b single-bottleneck
/// topology, on the fluid backend, under `protocol`.
pub fn fig1_scenario(name: &str, protocol: &str, arrival_offsets_ns: [u64; 3]) -> Scenario {
    Scenario::new(name)
        .backend(SimBackend::Fluid)
        .topology(TopologySpec::SingleBottleneck {
            senders: 3,
            access_loss: 0.0,
        })
        .workload(fig1_workload(arrival_offsets_ns))
        .protocol(protocol)
}

fn row(label: &str, summary: &RunSummary) -> Vec<String> {
    let fluid = summary.fluid();
    let completion = |id: u64| {
        fluid
            .flow(id)
            .and_then(|r| r.completion)
            .map(|c| format!("{c:.2}"))
            .unwrap_or_else(|| "-".to_string())
    };
    vec![
        label.to_string(),
        completion(1),
        completion(2),
        completion(3),
        summary
            .mean_fct_secs
            .map(|m| format!("{m:.2}"))
            .unwrap_or_else(|| "-".to_string()),
        format!("{}/{}", summary.deadlines_met, summary.deadline_flows),
    ]
}

/// Figure 1: completion times, mean FCT and deadlines met for fair sharing,
/// SJF/EDF and D3 (under both the adversarial and the lucky arrival order).
pub fn fig1() -> Table {
    let mut table = Table::new(
        "Figure 1 (§2.1): fluid-model completion times on a unit-rate bottleneck \
         (flows A/B/C: sizes 1/2/3, deadlines 1/4/6)",
        &[
            "scheme",
            "f_A done",
            "f_B done",
            "f_C done",
            "mean FCT",
            "deadlines met",
        ],
    );
    // Fair sharing and SJF/EDF are arrival-order insensitive; D3 is the point of
    // the figure: order B,A,C (Figure 1d) starves f_A, order A,B,C (= EDF) is the
    // one permutation out of 3! = 6 that meets every deadline.
    let cells: [(&str, &str, [u64; 3]); 4] = [
        ("Fair sharing (TCP/RCP)", "tcp", [0, 0, 0]),
        ("SJF/EDF (PDQ)", "pdq(full)", [0, 0, 0]),
        ("D3, arrivals B,A,C", "d3", [1, 0, 2]),
        ("D3, arrivals A,B,C", "d3", [0, 1, 2]),
    ];
    for (label, protocol, arrivals) in cells {
        let summary = run_scenario(&fig1_scenario("fig1", protocol, arrivals));
        table.push_row(row(label, &summary));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_flowsim::{
        d3_completion, edf_completion, fair_sharing_completion, figure1_flows, FluidFlowRecord,
        FLUID_RATE_BPS as RATE,
    };

    /// The acceptance gate: the scenario-driven table is byte-identical to the one
    /// computed straight from the `fluid.rs` functions.
    #[test]
    fn fig1_table_matches_direct_fluid_calls_byte_for_byte() {
        let flows = figure1_flows();
        let expect_row = |c: &[f64]| -> Vec<String> {
            let mean = c.iter().sum::<f64>() / c.len() as f64;
            let met = (flows.iter().zip(c))
                .filter(|&(&flow, &c)| {
                    let completion = Some(c);
                    FluidFlowRecord {
                        id: 0,
                        flow,
                        completion,
                    }
                    .met_deadline()
                })
                .count();
            let mut row: Vec<String> = c.iter().map(|v| format!("{v:.2}")).collect();
            row.push(format!("{mean:.2}"));
            row.push(format!("{met}/3"));
            row
        };
        let expected = [
            expect_row(&fair_sharing_completion(&flows, RATE)),
            expect_row(&edf_completion(&flows, RATE)),
            expect_row(&d3_completion(&flows, &[1, 0, 2], RATE)),
            expect_row(&d3_completion(&flows, &[0, 1, 2], RATE)),
        ];
        let table = fig1();
        assert_eq!(table.rows.len(), expected.len());
        for (got, want) in table.rows.iter().zip(&expected) {
            assert_eq!(&got[1..], want.as_slice(), "row {:?}", got[0]);
        }
    }

    #[test]
    fn fig1_reproduces_the_papers_headline_numbers() {
        let table = fig1();
        // Fair sharing: [3, 5, 6], mean 4.67, 1/3 deadlines.
        assert_eq!(
            table.rows[0][1..].to_vec(),
            vec!["3.00", "5.00", "6.00", "4.67", "1/3"]
        );
        // SJF/EDF: [1, 3, 6], mean 3.33 (~29% better), all deadlines met.
        assert_eq!(
            table.rows[1][1..].to_vec(),
            vec!["1.00", "3.00", "6.00", "3.33", "3/3"]
        );
        // D3 under the bad arrival order misses a deadline; under EDF order it
        // meets all three.
        assert_eq!(table.rows[2][5], "2/3");
        assert_eq!(table.rows[3][5], "3/3");
    }

    #[test]
    fn fig1_scenarios_round_trip_through_the_spec_format() {
        let s = fig1_scenario("fig1-d3", "d3", [1, 0, 2]);
        let back = Scenario::from_spec(&s.to_spec()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.backend, SimBackend::Fluid);
    }
}
