//! The fluid-model motivating example (§2.1, Figure 1).
//!
//! Three flows share one bottleneck; the paper compares fair sharing, SJF/EDF and D3
//! under an idealized fluid traffic model. This module reproduces that comparison for
//! arbitrary flow sets so the example (and its numbers) can be regenerated exactly.
//!
//! [`run_fluid`] returns per-flow completion times in unrounded seconds. The
//! scenario layer summarizes them like any other backend's records: every flow
//! starts at time zero, a completion counts as a deadline met within a 1e-6 s
//! tolerance, and a completed flow has delivered its whole size.

/// A fluid flow: size in abstract units, optional deadline, and arrival order position
/// (used by the D3 model, which serves requests first-come first-reserve).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FluidFlow {
    /// Size in the same units as time × rate (rate is 1 unit/second).
    pub size: f64,
    /// Deadline in seconds, if any.
    pub deadline: Option<f64>,
}

/// Completion times under idealized fair sharing (processor sharing at unit rate).
pub fn fair_sharing_completion(flows: &[FluidFlow]) -> Vec<f64> {
    let n = flows.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| flows[a].size.partial_cmp(&flows[b].size).unwrap());
    let mut completion = vec![0.0; n];
    let mut t = 0.0;
    let mut served = 0.0;
    for (rank, &i) in order.iter().enumerate() {
        let remaining_flows = (n - rank) as f64;
        t += (flows[i].size - served) * remaining_flows;
        served = flows[i].size;
        completion[i] = t;
    }
    completion
}

/// Completion times when flows are served one by one in SJF order (no deadlines) —
/// which is also the EDF order whenever deadlines are agreeable with sizes.
pub fn sjf_completion(flows: &[FluidFlow]) -> Vec<f64> {
    serial_completion(flows, |a, b| a.size.partial_cmp(&b.size).unwrap())
}

/// Completion times when flows are served one by one in EDF order (flows without a
/// deadline go last, in size order).
pub fn edf_completion(flows: &[FluidFlow]) -> Vec<f64> {
    serial_completion(flows, |a, b| {
        let da = a.deadline.unwrap_or(f64::INFINITY);
        let db = b.deadline.unwrap_or(f64::INFINITY);
        da.partial_cmp(&db)
            .unwrap()
            .then(a.size.partial_cmp(&b.size).unwrap())
    })
}

fn serial_completion<F>(flows: &[FluidFlow], mut cmp: F) -> Vec<f64>
where
    F: FnMut(&FluidFlow, &FluidFlow) -> std::cmp::Ordering,
{
    let n = flows.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| cmp(&flows[a], &flows[b]));
    let mut completion = vec![0.0; n];
    let mut t = 0.0;
    for &i in &order {
        t += flows[i].size;
        completion[i] = t;
    }
    completion
}

/// Completion times under the paper's D3 fluid model for a given arrival order
/// (`order[k]` is the index of the k-th arriving flow).
///
/// Every RTT (here: every fluid step) each unfinished deadline flow requests
/// `remaining / time_to_deadline` and the link grants requests greedily **in arrival
/// order** as long as capacity remains; whatever is left over is shared equally among
/// all unfinished flows. Flows whose deadline has already passed keep transmitting with
/// the leftover share only. This reproduces Figure 1d, where the arrival order
/// `f_B, f_A, f_C` makes `f_A` miss its deadline, while `f_A, f_B, f_C` (the EDF order)
/// is the single permutation for which every deadline is met.
pub fn d3_completion(flows: &[FluidFlow], order: &[usize]) -> Vec<f64> {
    assert_eq!(flows.len(), order.len());
    let n = flows.len();
    let mut remaining: Vec<f64> = flows.iter().map(|f| f.size).collect();
    let mut completion = vec![f64::NAN; n];
    let dt = 1e-3;
    let mut t = 0.0;
    let mut active = n;
    while active > 0 && t < 1e4 {
        // Re-reserve each step, in arrival order (first-come first-reserve).
        let mut reserved = vec![0.0f64; n];
        let mut capacity_left = 1.0f64;
        for &i in order {
            if !completion[i].is_nan() {
                continue;
            }
            if let Some(d) = flows[i].deadline {
                if d > t {
                    let want = remaining[i] / (d - t);
                    let got = want.min(capacity_left);
                    reserved[i] = got;
                    capacity_left -= got;
                }
            }
        }
        let n_active = (0..n).filter(|&i| completion[i].is_nan()).count() as f64;
        let extra = (capacity_left / n_active).max(0.0);
        for i in 0..n {
            if completion[i].is_nan() {
                remaining[i] -= (reserved[i] + extra) * dt;
                if remaining[i] <= 1e-9 {
                    completion[i] = t + dt;
                    active -= 1;
                }
            }
        }
        t += dt;
    }
    completion
}

/// Which §2.1 scheduling discipline a fluid run uses — the three columns of the
/// paper's Figure 1 comparison, as one dispatchable value so the Scenario API's
/// `fluid` backend can select a model through the protocol registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FluidModel {
    /// Processor sharing at unit rate (the TCP/RCP/DCTCP idealization, Figure 1b).
    FairSharing,
    /// Serial SJF/EDF service — flows with deadlines go in EDF order, deadline-free
    /// flows afterwards in size order (the PDQ idealization, Figure 1c).
    SjfEdf,
    /// D3 first-come-first-reserve (Figure 1d). The *input order* of the flows is
    /// the arrival order the reservations are granted in.
    D3,
}

impl FluidModel {
    /// The table label the §2.1 comparison prints for this model.
    pub fn label(&self) -> &'static str {
        match self {
            FluidModel::FairSharing => "Fair sharing",
            FluidModel::SjfEdf => "SJF/EDF",
            FluidModel::D3 => "D3",
        }
    }
}

/// One flow's outcome in a fluid run: its identity, the fluid flow it was lowered
/// to, and the completion time (`None` when the D3 integrator's time cap expired
/// before the flow finished).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FluidFlowRecord {
    /// Caller-assigned flow id (scenario runs use the `FlowSpec` id).
    pub id: u64,
    /// The fluid flow that was scheduled.
    pub flow: FluidFlow,
    /// Completion time in seconds, if the flow finished.
    pub completion: Option<f64>,
}

impl FluidFlowRecord {
    /// Whether the flow carried a deadline and completed within it.
    pub fn met_deadline(&self) -> bool {
        match (self.flow.deadline, self.completion) {
            (Some(d), Some(c)) => c <= d + 1e-6,
            _ => false,
        }
    }
}

/// The outcome of one fluid-model run: per-flow records in input (arrival) order.
/// Mean and percentile FCTs and deadline counts come from the scenario layer's
/// summary, which reads these records the way it reads packet and flow-level ones.
#[derive(Clone, Debug, PartialEq)]
pub struct FluidResults {
    /// The scheduling discipline that produced these completions.
    pub model: FluidModel,
    /// Per-flow records, in the input (arrival) order of the run.
    pub flows: Vec<FluidFlowRecord>,
}

impl FluidResults {
    /// The record of flow `id`, if it was part of the run.
    pub fn flow(&self, id: u64) -> Option<&FluidFlowRecord> {
        self.flows.iter().find(|r| r.id == id)
    }
}

/// Run one fluid model over `flows`, given as `(id, flow)` pairs whose slice order
/// is the arrival order (only the [`FluidModel::D3`] reservation loop is sensitive
/// to it — fair sharing and SJF/EDF schedule on sizes and deadlines alone).
///
/// The §2.1 model assumes every flow is present from time zero on one unit-rate
/// bottleneck; sizes are in units of rate × seconds.
pub fn run_fluid(model: FluidModel, flows: &[(u64, FluidFlow)]) -> FluidResults {
    let fluid: Vec<FluidFlow> = flows.iter().map(|(_, f)| *f).collect();
    let completion = match model {
        FluidModel::FairSharing => fair_sharing_completion(&fluid),
        FluidModel::SjfEdf => edf_completion(&fluid),
        FluidModel::D3 => {
            let order: Vec<usize> = (0..fluid.len()).collect();
            d3_completion(&fluid, &order)
        }
    };
    FluidResults {
        model,
        flows: flows
            .iter()
            .zip(&completion)
            .map(|(&(id, flow), &c)| FluidFlowRecord {
                id,
                flow,
                completion: if c.is_nan() { None } else { Some(c) },
            })
            .collect(),
    }
}

/// Mean of a completion-time vector.
pub fn mean(times: &[f64]) -> f64 {
    times.iter().sum::<f64>() / times.len() as f64
}

/// How many flows met their deadline under the given completion times.
pub fn deadlines_met(flows: &[FluidFlow], completion: &[f64]) -> usize {
    flows
        .iter()
        .zip(completion)
        .filter(|(f, c)| match f.deadline {
            Some(d) => **c <= d + 1e-6,
            None => false,
        })
        .count()
}

/// Fluid-model lower bounds on coflow completion times over one shared unit-rate
/// bottleneck, usable as a differential-test oracle against the discrete engines.
///
/// `coflow_work` holds each coflow's total work (sum of member sizes, in units of
/// rate × seconds). With every flow present from time zero, serving any `i`
/// coflows to completion requires pushing at least the `i` smallest coflows'
/// combined work through the single link, so the `i`-th smallest CCT of *any*
/// schedule — preemptive or not, coflow-aware or not — is at least the `i`-th
/// prefix sum of the sorted works. The returned vector is sorted ascending;
/// compare it elementwise against the schedule's sorted CCTs. (Later arrivals or
/// extra hops only delay completions, so the bound survives both.)
pub fn coflow_cct_lower_bounds(coflow_work: &[f64]) -> Vec<f64> {
    let mut work: Vec<f64> = coflow_work.to_vec();
    work.sort_by(|a, b| a.partial_cmp(b).expect("coflow work is comparable"));
    let mut acc = 0.0;
    work.iter()
        .map(|w| {
            acc += w;
            acc
        })
        .collect()
}

/// The paper's Figure 1 flows: sizes 1/2/3, deadlines 1/4/6.
pub fn figure1_flows() -> Vec<FluidFlow> {
    vec![
        FluidFlow {
            size: 1.0,
            deadline: Some(1.0),
        },
        FluidFlow {
            size: 2.0,
            deadline: Some(4.0),
        },
        FluidFlow {
            size: 3.0,
            deadline: Some(6.0),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coflow_cct_bound_holds_for_fluid_schedules() {
        // Three coflows on the shared bottleneck: A = {1, 2}, B = {3}, C = {1.5, 0.5}.
        let members = [(0usize, 1.0), (0, 2.0), (1, 3.0), (2, 1.5), (2, 0.5)];
        let work = vec![3.0, 3.0, 2.0];
        let bounds = coflow_cct_lower_bounds(&work);
        assert_eq!(bounds, vec![2.0, 5.0, 8.0]);

        let flows: Vec<FluidFlow> = members
            .iter()
            .map(|&(_, size)| FluidFlow {
                size,
                deadline: None,
            })
            .collect();
        for completion in [sjf_completion(&flows), fair_sharing_completion(&flows)] {
            let mut ccts = vec![0.0f64; work.len()];
            for (&(coflow, _), &c) in members.iter().zip(&completion) {
                ccts[coflow] = ccts[coflow].max(c);
            }
            ccts.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (cct, bound) in ccts.iter().zip(&bounds) {
                assert!(cct + 1e-9 >= *bound, "{ccts:?} vs {bounds:?}");
            }
            // Work conservation: the last coflow finishes exactly at the total work.
            assert!((ccts[2] - 8.0).abs() < 1e-9);
        }
    }

    #[test]
    fn figure1_fair_sharing_numbers() {
        let flows = figure1_flows();
        let c = fair_sharing_completion(&flows);
        assert!((c[0] - 3.0).abs() < 1e-9);
        assert!((c[1] - 5.0).abs() < 1e-9);
        assert!((c[2] - 6.0).abs() < 1e-9);
        assert!((mean(&c) - 14.0 / 3.0).abs() < 1e-9);
        // Only f_C meets its deadline under fair sharing.
        assert_eq!(deadlines_met(&flows, &c), 1);
    }

    #[test]
    fn figure1_sjf_and_edf_numbers() {
        let flows = figure1_flows();
        let sjf = sjf_completion(&flows);
        assert_eq!(sjf, vec![1.0, 3.0, 6.0]);
        assert!((mean(&sjf) - 10.0 / 3.0).abs() < 1e-9);
        let edf = edf_completion(&flows);
        assert_eq!(edf, sjf, "EDF and SJF agree on this instance");
        assert_eq!(deadlines_met(&flows, &edf), 3);
        // Every flow individually does at least as well as under fair sharing.
        let fair = fair_sharing_completion(&flows);
        for (s, f) in sjf.iter().zip(&fair) {
            assert!(s <= f);
        }
    }

    #[test]
    fn figure1_d3_with_bad_arrival_order_misses_a_deadline() {
        let flows = figure1_flows();
        // Arrival order f_B, f_A, f_C (indices 1, 0, 2): f_B reserves 0.5, f_A misses.
        let c = d3_completion(&flows, &[1, 0, 2]);
        assert!(c[1] <= 4.0 + 1e-3, "f_B finishes right at its deadline");
        assert!(c[0] > 1.0 + 1e-3, "f_A misses its 1s deadline: {}", c[0]);
        assert!(deadlines_met(&flows, &c) < 3);
    }

    #[test]
    fn figure1_d3_with_edf_order_meets_all_deadlines() {
        let flows = figure1_flows();
        // Arrival order f_A, f_B, f_C is the one case where D3 succeeds.
        let c = d3_completion(&flows, &[0, 1, 2]);
        assert_eq!(deadlines_met(&flows, &c), 3, "completions = {c:?}");
    }

    /// How many flows of a run met their deadline.
    fn met(res: &FluidResults) -> usize {
        res.flows.iter().filter(|r| r.met_deadline()).count()
    }

    #[test]
    fn run_fluid_matches_the_direct_functions() {
        let flows = figure1_flows();
        let pairs: Vec<(u64, FluidFlow)> = flows
            .iter()
            .enumerate()
            .map(|(i, &f)| (i as u64 + 1, f))
            .collect();

        let fair = run_fluid(FluidModel::FairSharing, &pairs);
        assert_eq!(
            fair.flows
                .iter()
                .map(|r| r.completion.unwrap())
                .collect::<Vec<_>>(),
            fair_sharing_completion(&flows)
        );
        assert_eq!(met(&fair), 1);
        assert_eq!(fair.flow(1).unwrap().completion, Some(3.0));
        assert!(fair.flow(9).is_none());

        let sjf = run_fluid(FluidModel::SjfEdf, &pairs);
        assert_eq!(
            sjf.flows
                .iter()
                .map(|r| r.completion.unwrap())
                .collect::<Vec<_>>(),
            edf_completion(&flows)
        );
        assert_eq!(met(&sjf), 3);

        // D3's arrival order is the input slice order: B, A, C reproduces Fig. 1d.
        let bad: Vec<(u64, FluidFlow)> = vec![pairs[1], pairs[0], pairs[2]];
        let d3 = run_fluid(FluidModel::D3, &bad);
        let direct = d3_completion(&flows, &[1, 0, 2]);
        assert_eq!(d3.flow(1).unwrap().completion, Some(direct[0]));
        assert_eq!(d3.flow(2).unwrap().completion, Some(direct[1]));
        assert_eq!(d3.flow(3).unwrap().completion, Some(direct[2]));
        assert!(met(&d3) <= 2);
    }

    #[test]
    fn run_fluid_records_unfinished_flows_as_none() {
        // A deadline-free flow under D3 with a competing endless deadline stream
        // would finish eventually; the integrator's 1e4 s cap turns an absurdly
        // large flow into an unfinished record instead of a bogus completion.
        let huge = vec![(
            7u64,
            FluidFlow {
                size: 1e6,
                deadline: None,
            },
        )];
        let res = run_fluid(FluidModel::D3, &huge);
        assert_eq!(res.flows[0].completion, None);
        assert!(!res.flows[0].met_deadline());
        // An empty run is well-formed too.
        assert_eq!(run_fluid(FluidModel::FairSharing, &[]).flows.len(), 0);
    }

    #[test]
    fn model_labels_are_the_figure1_columns() {
        assert_eq!(FluidModel::FairSharing.label(), "Fair sharing");
        assert_eq!(FluidModel::SjfEdf.label(), "SJF/EDF");
        assert_eq!(FluidModel::D3.label(), "D3");
    }

    #[test]
    fn d3_misses_deadlines_for_most_arrival_orders() {
        // §2.1: out of the 3! = 6 permutations, D3 fails for 5.
        let flows = figure1_flows();
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let failing = orders
            .iter()
            .filter(|o| deadlines_met(&flows, &d3_completion(&flows, *o)) < 3)
            .count();
        assert_eq!(failing, 5);
    }
}
