//! The single-bottleneck model: flows that share one link, scheduled centrally.
//!
//! Every flow is present from time zero. Sizes are bytes; every schedule takes the
//! link's `rate_bps` and returns completion times in seconds. Two figures use it:
//!
//! * Figure 1 (§2.1): fair sharing vs SJF/EDF vs D3, which [`run_fluid`] runs as the
//!   scenario layer's `fluid` backend at [`FLUID_RATE_BPS`];
//! * Figure 3's "Optimal" curve: [`max_on_time`] (EDF + Moore–Hodgson) for deadline
//!   flows and [`sjf_completion`] for the mean completion time.
//!
//! A completion meets its deadline when it is at most [`DEADLINE_SLACK_SECS`] past
//! it, in [`FluidFlowRecord::met_deadline`] and in [`max_on_time`] alike, so the
//! Optimal count bounds what any schedule here is credited with.

/// How far past its deadline a completion may be and still count as meeting it.
pub const DEADLINE_SLACK_SECS: f64 = 1e-6;

/// The rate [`run_fluid`] schedules at: 8 bit/s, one byte per second, so a flow of
/// `n` bytes alone on the link takes `n` seconds.
pub const FLUID_RATE_BPS: f64 = 8.0;

/// A flow on the shared bottleneck: its size and its deadline, if any.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FluidFlow {
    /// Size in bytes.
    pub size: f64,
    /// Deadline in seconds from time zero, if any.
    pub deadline: Option<f64>,
}

impl FluidFlow {
    /// Seconds the flow takes alone on a link of `rate_bps`.
    pub fn service_secs(&self, rate_bps: f64) -> f64 {
        self.size * 8.0 / rate_bps
    }
}

/// Completion times under idealized fair sharing (processor sharing) on a link of
/// `rate_bps`.
pub fn fair_sharing_completion(flows: &[FluidFlow], rate_bps: f64) -> Vec<f64> {
    let n = flows.len();
    let service: Vec<f64> = flows.iter().map(|f| f.service_secs(rate_bps)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| service[a].partial_cmp(&service[b]).unwrap());
    let mut completion = vec![0.0; n];
    let mut t = 0.0;
    let mut served = 0.0;
    for (rank, &i) in order.iter().enumerate() {
        let remaining_flows = (n - rank) as f64;
        t += (service[i] - served) * remaining_flows;
        served = service[i];
        completion[i] = t;
    }
    completion
}

/// Completion times when flows are served one by one in SJF order (no deadlines) on
/// a link of `rate_bps`: the schedule with the least mean completion time.
pub fn sjf_completion(flows: &[FluidFlow], rate_bps: f64) -> Vec<f64> {
    serial_completion(flows, rate_bps, |a, b| a.size.partial_cmp(&b.size).unwrap())
}

/// Completion times when flows are served one by one in EDF order (flows without a
/// deadline go last, in size order) on a link of `rate_bps`.
pub fn edf_completion(flows: &[FluidFlow], rate_bps: f64) -> Vec<f64> {
    serial_completion(flows, rate_bps, |a, b| {
        let da = a.deadline.unwrap_or(f64::INFINITY);
        let db = b.deadline.unwrap_or(f64::INFINITY);
        da.partial_cmp(&db)
            .unwrap()
            .then(a.size.partial_cmp(&b.size).unwrap())
    })
}

fn serial_completion<F>(flows: &[FluidFlow], rate_bps: f64, mut cmp: F) -> Vec<f64>
where
    F: FnMut(&FluidFlow, &FluidFlow) -> std::cmp::Ordering,
{
    let n = flows.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| cmp(&flows[a], &flows[b]));
    let mut completion = vec![0.0; n];
    let mut t = 0.0;
    for &i in &order {
        t += flows[i].service_secs(rate_bps);
        completion[i] = t;
    }
    completion
}

/// Completion times under the paper's D3 fluid model on a link of `rate_bps`, for a
/// given arrival order (`order[k]` is the index of the k-th arriving flow).
///
/// Every RTT (here: every 1 ms fluid step) each unfinished deadline flow requests
/// `remaining / time_to_deadline` and the link grants requests greedily **in arrival
/// order** as long as capacity remains; whatever is left over is shared equally among
/// all unfinished flows. Flows whose deadline has already passed keep transmitting with
/// the leftover share only. This reproduces Figure 1d, where the arrival order
/// `f_B, f_A, f_C` makes `f_A` miss its deadline, while `f_A, f_B, f_C` (the EDF order)
/// is the single permutation for which every deadline is met. A flow still sending
/// after 10⁴ s gets `NaN`.
pub fn d3_completion(flows: &[FluidFlow], order: &[usize], rate_bps: f64) -> Vec<f64> {
    assert_eq!(flows.len(), order.len());
    let n = flows.len();
    // Remaining work in seconds of the whole link, so the capacity is 1 per second.
    let mut remaining: Vec<f64> = flows.iter().map(|f| f.service_secs(rate_bps)).collect();
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

/// The most deadline flows any schedule on a link of `rate_bps` can finish on time:
/// EDF plus the **Moore–Hodgson** algorithm (Algorithm 3.3.1 of Pinedo, the procedure
/// the paper cites), with on time meaning at most [`DEADLINE_SLACK_SECS`] late. Flows
/// without a deadline are ignored (they can always go last).
pub fn max_on_time(flows: &[FluidFlow], rate_bps: f64) -> usize {
    let mut constrained: Vec<(f64, f64)> = flows
        .iter()
        .filter_map(|f| f.deadline.map(|d| (d, f.service_secs(rate_bps))))
        .collect();
    constrained.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    // Walk the flows in EDF order keeping a running completion time; whenever the
    // current flow would be late, evict the longest flow kept so far.
    let mut kept: Vec<f64> = Vec::new();
    let mut completion = 0.0f64;
    for (deadline, p) in constrained {
        kept.push(p);
        completion += p;
        if completion > deadline + DEADLINE_SLACK_SECS {
            let (idx, &longest) = kept
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            completion -= longest;
            kept.remove(idx);
        }
    }
    kept.len()
}

/// Which §2.1 scheduling discipline a fluid run uses — the three columns of the
/// paper's Figure 1 comparison, as one dispatchable value so the Scenario API's
/// `fluid` backend can select a model through the protocol registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FluidModel {
    /// Processor sharing (the TCP/RCP/DCTCP idealization, Figure 1b).
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
    /// Whether the flow carried a deadline and completed at most
    /// [`DEADLINE_SLACK_SECS`] after it.
    pub fn met_deadline(&self) -> bool {
        match (self.flow.deadline, self.completion) {
            (Some(d), Some(c)) => c <= d + DEADLINE_SLACK_SECS,
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

/// Run one fluid model over `flows` at [`FLUID_RATE_BPS`], given as `(id, flow)`
/// pairs whose slice order is the arrival order (only the [`FluidModel::D3`]
/// reservation loop is sensitive to it — fair sharing and SJF/EDF schedule on sizes
/// and deadlines alone).
pub fn run_fluid(model: FluidModel, flows: &[(u64, FluidFlow)]) -> FluidResults {
    let fluid: Vec<FluidFlow> = flows.iter().map(|(_, f)| *f).collect();
    let completion = match model {
        FluidModel::FairSharing => fair_sharing_completion(&fluid, FLUID_RATE_BPS),
        FluidModel::SjfEdf => edf_completion(&fluid, FLUID_RATE_BPS),
        FluidModel::D3 => {
            let order: Vec<usize> = (0..fluid.len()).collect();
            d3_completion(&fluid, &order, FLUID_RATE_BPS)
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

/// Fluid-model lower bounds on coflow completion times over one shared bottleneck,
/// usable as a differential-test oracle against the discrete engines.
///
/// `coflow_work` holds each coflow's total work in seconds of the link (the sum of
/// its members' [`FluidFlow::service_secs`]). With every flow present from time
/// zero, serving any `i` coflows to completion requires pushing at least the `i`
/// smallest coflows' combined work through the single link, so the `i`-th smallest
/// CCT of *any* schedule — preemptive or not, coflow-aware or not — is at least the
/// `i`-th prefix sum of the sorted works. The returned vector is sorted ascending;
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

/// The paper's Figure 1 flows: 1/2/3 bytes, deadlines 1/4/6 s — at
/// [`FLUID_RATE_BPS`], sizes 1/2/3 s.
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

    const RATE: f64 = FLUID_RATE_BPS;

    fn mean(times: &[f64]) -> f64 {
        times.iter().sum::<f64>() / times.len() as f64
    }

    /// How many of `flows` meet their deadline at `completion`, by `met_deadline`.
    fn met_count(flows: &[FluidFlow], completion: &[f64]) -> usize {
        flows
            .iter()
            .zip(completion)
            .filter(|&(&flow, &c)| {
                let completion = Some(c).filter(|c| !c.is_nan());
                FluidFlowRecord {
                    id: 0,
                    flow,
                    completion,
                }
                .met_deadline()
            })
            .count()
    }

    fn flow(size: f64, deadline: Option<f64>) -> FluidFlow {
        FluidFlow { size, deadline }
    }

    #[test]
    fn coflow_cct_bound_holds_for_fluid_schedules() {
        // Three coflows on the shared bottleneck: A = {1, 2}, B = {3}, C = {1.5, 0.5}.
        let members = [(0usize, 1.0), (0, 2.0), (1, 3.0), (2, 1.5), (2, 0.5)];
        let work = vec![3.0, 3.0, 2.0];
        let bounds = coflow_cct_lower_bounds(&work);
        assert_eq!(bounds, vec![2.0, 5.0, 8.0]);

        let flows: Vec<FluidFlow> = members.iter().map(|&(_, size)| flow(size, None)).collect();
        for completion in [
            sjf_completion(&flows, RATE),
            fair_sharing_completion(&flows, RATE),
        ] {
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
        let c = fair_sharing_completion(&flows, RATE);
        assert!((c[0] - 3.0).abs() < 1e-9);
        assert!((c[1] - 5.0).abs() < 1e-9);
        assert!((c[2] - 6.0).abs() < 1e-9);
        assert!((mean(&c) - 14.0 / 3.0).abs() < 1e-9);
        // Only f_C meets its deadline under fair sharing.
        assert_eq!(met_count(&flows, &c), 1);
    }

    #[test]
    fn figure1_sjf_and_edf_numbers() {
        let flows = figure1_flows();
        let sjf = sjf_completion(&flows, RATE);
        assert_eq!(sjf, vec![1.0, 3.0, 6.0]);
        assert!((mean(&sjf) - 10.0 / 3.0).abs() < 1e-9);
        let edf = edf_completion(&flows, RATE);
        assert_eq!(edf, sjf, "EDF and SJF agree on this instance");
        assert_eq!(met_count(&flows, &edf), 3);
        // Every flow individually does at least as well as under fair sharing.
        let fair = fair_sharing_completion(&flows, RATE);
        for (s, f) in sjf.iter().zip(&fair) {
            assert!(s <= f);
        }
    }

    #[test]
    fn figure1_d3_with_bad_arrival_order_misses_a_deadline() {
        let flows = figure1_flows();
        // Arrival order f_B, f_A, f_C (indices 1, 0, 2): f_B reserves 0.5, f_A misses.
        let c = d3_completion(&flows, &[1, 0, 2], RATE);
        assert!(c[1] <= 4.0 + 1e-3, "f_B finishes right at its deadline");
        assert!(c[0] > 1.0 + 1e-3, "f_A misses its 1s deadline: {}", c[0]);
        assert!(met_count(&flows, &c) < 3);
    }

    #[test]
    fn figure1_d3_with_edf_order_meets_all_deadlines() {
        let flows = figure1_flows();
        // Arrival order f_A, f_B, f_C is the one case where D3 succeeds.
        let c = d3_completion(&flows, &[0, 1, 2], RATE);
        assert_eq!(met_count(&flows, &c), 3, "completions = {c:?}");
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
            fair_sharing_completion(&flows, RATE)
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
            edf_completion(&flows, RATE)
        );
        assert_eq!(met(&sjf), 3);

        // D3's arrival order is the input slice order: B, A, C reproduces Fig. 1d.
        let bad: Vec<(u64, FluidFlow)> = vec![pairs[1], pairs[0], pairs[2]];
        let d3 = run_fluid(FluidModel::D3, &bad);
        let direct = d3_completion(&flows, &[1, 0, 2], RATE);
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
        let huge = vec![(7u64, flow(1e6, None))];
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
            .filter(|o| met_count(&flows, &d3_completion(&flows, *o, RATE)) < 3)
            .count();
        assert_eq!(failing, 5);
    }

    /// 1 MB per second: Figure 1's flows as 1, 2 and 3 MB.
    const MB_RATE: f64 = 8e6;

    fn figure1_megabytes() -> Vec<FluidFlow> {
        vec![
            flow(1e6, Some(1.0)),
            flow(2e6, Some(4.0)),
            flow(3e6, Some(6.0)),
        ]
    }

    #[test]
    fn figure1_sjf_vs_fair_sharing() {
        let flows = figure1_megabytes();
        let sjf = mean(&sjf_completion(&flows, MB_RATE));
        let fair = mean(&fair_sharing_completion(&flows, MB_RATE));
        // Paper: SJF gives (1+3+6)/3 = 3.33, fair sharing gives (3+5+6)/3 = 4.67.
        assert!((sjf - 10.0 / 3.0).abs() < 1e-6, "sjf = {sjf}");
        assert!((fair - 14.0 / 3.0).abs() < 1e-6, "fair = {fair}");
        // ~29% saving, as stated in §2.1.
        let saving = 1.0 - sjf / fair;
        assert!((saving - 0.2857).abs() < 0.01);
    }

    #[test]
    fn figure1_edf_meets_all_deadlines() {
        assert_eq!(max_on_time(&figure1_megabytes(), MB_RATE), 3);
    }

    #[test]
    fn moore_hodgson_drops_minimum_number() {
        // Three flows of 1s each, all with deadline 2s: only two can make it.
        let flows = vec![flow(1e6, Some(2.0)); 3];
        assert_eq!(max_on_time(&flows, MB_RATE), 2);
    }

    #[test]
    fn moore_hodgson_prefers_dropping_long_jobs() {
        // One huge flow with a tight deadline plus many small ones: dropping the huge
        // flow saves everything else.
        let mut flows = vec![flow(1e7, Some(1.0))];
        flows.extend(vec![flow(5e5, Some(4.0)); 5]);
        assert_eq!(max_on_time(&flows, MB_RATE), 5);
    }

    #[test]
    fn moore_hodgson_matches_brute_force_on_small_instances() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        for _ in 0..200 {
            let n = rng.gen_range(1..=7);
            let flows: Vec<FluidFlow> = (0..n)
                .map(|_| {
                    let size = rng.gen_range(100_000..3_000_000) as f64;
                    flow(size, Some(rng.gen_range(0.2..4.0)))
                })
                .collect();
            let fast = max_on_time(&flows, MB_RATE);
            // Brute force: try every subset, check EDF feasibility of the subset.
            let mut best = 0usize;
            for mask in 0u32..(1 << n) {
                let mut subset: Vec<(f64, f64)> = flows
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, f)| (f.deadline.unwrap(), f.service_secs(MB_RATE)))
                    .collect();
                subset.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                let mut t = 0.0;
                let mut ok = true;
                for (d, p) in &subset {
                    t += p;
                    if t > d + DEADLINE_SLACK_SECS {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    best = best.max(subset.len());
                }
            }
            assert_eq!(fast, best, "flows = {flows:?}");
        }
    }

    #[test]
    fn empty_and_undeadlined_inputs() {
        assert!(sjf_completion(&[], MB_RATE).is_empty());
        assert!(fair_sharing_completion(&[], MB_RATE).is_empty());
        assert_eq!(max_on_time(&[], MB_RATE), 0);
        assert_eq!(max_on_time(&[flow(1000.0, None)], MB_RATE), 0);
    }
}
