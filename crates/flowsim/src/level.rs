//! The flow-level simulator (§5.5).
//!
//! The paper's packet-level simulator does not scale to thousands of servers, so the
//! authors complement it with a flow-level simulator that iteratively computes the
//! equilibrium sending rates on a 1 ms time scale, while still modelling protocol
//! inefficiencies (flow-initialization latency and header overhead). This module is
//! that loop, and it knows no protocol: every step it asks a [`FlowModel`] for the
//! rates of the active flows and for which of them to terminate. Each scheme's
//! installer supplies its model, built from the same rules its packet-level agents
//! run. Figures 8 (scale), 11 (load) and 12 (aging) use it.
//!
//! A run yields one [`FlowLevelRecord`] per flow, in flow-id order, and nothing
//! more: mean and percentile FCTs, deadline counts and the fingerprint come from
//! the scenario layer's summary, the same code that summarizes packet and fluid
//! runs. [`max_min_fair`] breaks ties by link index, so a run is a function of its
//! inputs and seed alone.

use std::fmt;
use std::sync::Arc;

use pdq_netsim::{FlowId, FlowSpec, SimTime};
use pdq_topology::{EcmpRouter, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Rate-recomputation time step (the paper uses 1 ms).
const STEP: SimTime = SimTime::from_millis(1);

/// Flow initialization latency added before a flow starts transferring (SYN +
/// first-data feedback, about two RTTs).
const INIT_DELAY: SimTime = SimTime::from_micros(300);

/// Fraction of the wire rate usable for payload (TCP/IP + scheduling header
/// overhead).
const EFFICIENCY: f64 = 1444.0 / 1500.0;

/// One scheme's flow-level rules: how the links' capacity is split among the active
/// flows, and when a flow gives up.
pub trait FlowModel: Send + Sync + fmt::Debug {
    /// Each flow's rate in bit/s, in the order of `flows`, given every link's
    /// payload capacity `residual` (indexed by link index) at time `now`.
    fn allocate(&self, flows: &[ActiveFlow], residual: &[f64], now: SimTime) -> Vec<f64>;

    /// True if `flow` is to be terminated at `now`; it then sends no more and its
    /// record says `terminated`. By default no flow gives up.
    fn hopeless(&self, _flow: &ActiveFlow, _now: SimTime) -> bool {
        false
    }
}

/// Flow-level simulator configuration.
#[derive(Clone, Debug)]
pub struct FlowLevelConfig {
    /// The scheme's rate allocation and termination rule.
    pub model: Arc<dyn FlowModel>,
    /// Hard stop.
    pub max_time: SimTime,
}

impl FlowLevelConfig {
    /// A config running `model` with a 60 s hard stop.
    pub fn new(model: impl FlowModel + 'static) -> Self {
        FlowLevelConfig {
            model: Arc::new(model),
            max_time: SimTime::from_secs(60),
        }
    }
}

/// Per-flow outcome of a flow-level run.
#[derive(Clone, Debug)]
pub struct FlowLevelRecord {
    /// Flow id.
    pub id: FlowId,
    /// Size in bytes.
    pub size_bytes: u64,
    /// Arrival time.
    pub arrival: SimTime,
    /// Absolute deadline, if any.
    pub deadline: Option<SimTime>,
    /// Completion time, if the flow finished.
    pub completed_at: Option<SimTime>,
    /// True if the flow was terminated/quenched before finishing.
    pub terminated: bool,
}

impl FlowLevelRecord {
    /// Flow completion time.
    pub fn fct(&self) -> Option<SimTime> {
        self.completed_at.map(|t| t.saturating_sub(self.arrival))
    }

    /// True if the flow completed before its deadline.
    pub fn met_deadline(&self) -> bool {
        match (self.completed_at, self.deadline) {
            (Some(c), Some(d)) => c <= d,
            (Some(_), None) => true,
            _ => false,
        }
    }
}

/// Results of a flow-level run.
#[derive(Clone, Debug, Default)]
pub struct FlowLevelResults {
    /// One record per flow, in ascending flow-id order.
    pub flows: Vec<FlowLevelRecord>,
}

impl FlowLevelResults {
    /// FCT of a particular flow in seconds (a binary search).
    pub fn fct_of(&self, id: FlowId) -> Option<f64> {
        let at = self.flows.binary_search_by_key(&id, |r| r.id).ok()?;
        self.flows[at].fct().map(|t| t.as_secs_f64())
    }
}

/// A flow in transfer, as a [`FlowModel`] sees it.
#[derive(Clone, Debug)]
pub struct ActiveFlow {
    /// Flow id.
    pub id: FlowId,
    /// Link indices of the flow's route.
    pub path: Vec<usize>,
    /// Bits not yet delivered.
    pub remaining_bits: f64,
    /// Arrival time.
    pub arrival: SimTime,
    /// Absolute deadline, if any.
    pub deadline: Option<SimTime>,
    /// The smallest payload capacity on the route, in bit/s.
    pub max_rate: f64,
    /// Position in the input flow list (the arrival order).
    pub order: usize,
}

/// Run the flow-level simulator over `topo` for the given flows.
pub fn run_flow_level(
    topo: &Topology,
    flows: &[FlowSpec],
    cfg: &FlowLevelConfig,
    seed: u64,
) -> FlowLevelResults {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut router = EcmpRouter::new();
    let capacities: Vec<f64> = topo
        .net
        .links
        .iter()
        .map(|l| l.rate_bps * EFFICIENCY)
        .collect();

    // Route every flow once (flow-level ECMP), set up its record.
    let mut pending: Vec<(SimTime, ActiveFlow)> = Vec::with_capacity(flows.len());
    let mut records: Vec<FlowLevelRecord> = Vec::with_capacity(flows.len());
    for (order, spec) in flows.iter().enumerate() {
        let path = router.random_shortest_path(&topo.net, spec.src, spec.dst, &mut rng);
        let links: Vec<usize> = path.links.iter().map(|l| l.index()).collect();
        let flow = ActiveFlow {
            id: spec.id,
            max_rate: path_min(&links, &capacities),
            path: links,
            remaining_bits: spec.size_bytes as f64 * 8.0,
            arrival: spec.arrival,
            deadline: spec.deadline(),
            order,
        };
        pending.push((spec.arrival + INIT_DELAY, flow));
        records.push(FlowLevelRecord {
            id: spec.id,
            size_bytes: spec.size_bytes,
            arrival: spec.arrival,
            deadline: spec.deadline(),
            completed_at: None,
            terminated: false,
        });
    }
    pending.sort_by_key(|(start, _)| *start);

    let dt = STEP.as_secs_f64();
    let mut now = SimTime::ZERO;
    let mut active: Vec<ActiveFlow> = Vec::new();
    let mut pending = pending.into_iter().peekable();

    while now < cfg.max_time && (pending.peek().is_some() || !active.is_empty()) {
        // Admit flows whose start time has come.
        while let Some((_, flow)) = pending.next_if(|(start, _)| *start <= now) {
            active.push(flow);
        }

        active.retain(|f| {
            let hopeless = cfg.model.hopeless(f, now);
            if hopeless {
                records[f.order].terminated = true;
            }
            !hopeless
        });

        if active.is_empty() {
            // Jump to the next arrival to avoid spinning through idle time.
            if let Some((start, _)) = pending.peek() {
                now = now.max(*start);
                continue;
            }
            break;
        }

        let rates = cfg.model.allocate(&active, &capacities, now);

        // Advance the transfers; finish flows mid-step for accuracy.
        let mut finished: Vec<usize> = Vec::new();
        for (i, f) in active.iter_mut().enumerate() {
            let r = rates[i];
            if r <= 0.0 {
                continue;
            }
            let delivered = r * dt;
            if delivered >= f.remaining_bits {
                let frac = f.remaining_bits / r;
                let done_at = now + SimTime::from_secs_f64(frac);
                records[f.order].completed_at = Some(done_at);
                f.remaining_bits = 0.0;
                finished.push(i);
            } else {
                f.remaining_bits -= delivered;
            }
        }
        for &i in finished.iter().rev() {
            active.swap_remove(i);
        }
        now += STEP;
    }

    records.sort_by_key(|r| r.id);
    FlowLevelResults { flows: records }
}

/// Serve `flows` one at a time in `order`: each takes `want(flow)`, capped by what
/// is left on its path and by its `max_rate`, and that much leaves its path's
/// `residual`. Returns the rates, in the order of `flows` (0 for a flow not served).
pub fn serve_in_order(
    flows: &[ActiveFlow],
    order: impl IntoIterator<Item = usize>,
    residual: &mut [f64],
    want: impl Fn(&ActiveFlow) -> f64,
) -> Vec<f64> {
    let mut rates = vec![0.0f64; flows.len()];
    for i in order {
        let f = &flows[i];
        let got = want(f).min(path_min(&f.path, residual)).min(f.max_rate);
        if got > 0.0 {
            rates[i] = got;
            for &l in &f.path {
                residual[l] -= got;
            }
        }
    }
    rates
}

/// The smallest of `per_link`'s values along `path`.
fn path_min(path: &[usize], per_link: &[f64]) -> f64 {
    path.iter()
        .map(|&l| per_link[l])
        .fold(f64::INFINITY, f64::min)
}

/// Link-constrained max-min fair allocation by progressive filling: each round the
/// bottleneck is the link with the smallest residual capacity per unfrozen flow
/// crossing it (ties go to the lowest link index), and its flows freeze at that
/// share.
pub fn max_min_fair(flows: &[ActiveFlow], capacities: &[f64]) -> Vec<f64> {
    let n = flows.len();
    let mut rates = vec![0.0f64; n];
    let mut residual = capacities.to_vec();
    let mut frozen = vec![false; n];
    let mut counts = vec![0usize; capacities.len()];
    // Every round freezes at least one flow.
    for _ in 0..n {
        counts.fill(0);
        for (f, _) in flows.iter().zip(&frozen).filter(|(_, &frozen)| !frozen) {
            for &l in &f.path {
                counts[l] += 1;
            }
        }
        let mut best: Option<(usize, f64)> = None;
        for (l, &c) in counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            let share = residual[l].max(0.0) / c as f64;
            if best.is_none_or(|(_, s)| share < s) {
                best = Some((l, share));
            }
        }
        let Some((bottleneck, share)) = best else {
            break;
        };
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] || !f.path.contains(&bottleneck) {
                continue;
            }
            let r = share.min(f.max_rate);
            rates[i] = r;
            frozen[i] = true;
            for &l in &f.path {
                residual[l] -= r;
            }
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_netsim::LinkParams;
    use pdq_topology::single_bottleneck;

    /// Serves flows in id order and gives up on every deadline flow at once.
    #[derive(Debug)]
    struct ById;

    impl FlowModel for ById {
        fn allocate(&self, flows: &[ActiveFlow], residual: &[f64], _now: SimTime) -> Vec<f64> {
            let mut order: Vec<usize> = (0..flows.len()).collect();
            order.sort_by_key(|&i| flows[i].id);
            serve_in_order(flows, order, &mut residual.to_vec(), |_| f64::INFINITY)
        }

        fn hopeless(&self, flow: &ActiveFlow, _now: SimTime) -> bool {
            flow.deadline.is_some()
        }
    }

    #[test]
    fn the_loop_runs_what_the_model_decides() {
        let topo = single_bottleneck(3, LinkParams::default());
        let recv = *topo.hosts.last().unwrap();
        let flows: Vec<FlowSpec> = [(3, 100_000), (1, 300_000), (2, 200_000)]
            .into_iter()
            .enumerate()
            .map(|(i, (id, size))| FlowSpec::new(id, topo.hosts[i], recv, size))
            .chain([
                FlowSpec::new(4, topo.hosts[0], recv, 1_000).with_deadline(SimTime::from_secs(1))
            ])
            .collect();
        let res = run_flow_level(&topo, &flows, &FlowLevelConfig::new(ById), 1);
        let ids: Vec<u64> = res.flows.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4], "records come in id order");
        let fct = |id| res.fct_of(FlowId(id)).unwrap();
        // Serial service in id order, whatever the sizes.
        assert!(fct(1) < fct(2) && fct(2) < fct(3), "{:?}", res.flows);
        let four = &res.flows[3];
        assert!(four.terminated && four.completed_at.is_none());
    }
}
