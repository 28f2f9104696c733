//! The flow-level simulator (§5.5).
//!
//! The paper's packet-level simulator does not scale to thousands of servers, so the
//! authors complement it with a flow-level simulator that iteratively computes the
//! equilibrium sending rates on a 1 ms time scale, while still modelling protocol
//! inefficiencies (flow-initialization latency and header overhead). This module
//! provides that simulator for PDQ, RCP and D3, and is used for the Figure 8
//! (scale), Figure 11 (load) and Figure 12 (aging) experiments.
//!
//! A run yields one [`FlowLevelRecord`] per flow, in flow-id order, and nothing
//! more: mean and percentile FCTs, deadline counts and the fingerprint come from
//! the scenario layer's summary, the same code that summarizes packet and fluid
//! runs. RCP and D3's max-min share is found by progressive filling with ties
//! broken by link index, so a run is a function of its inputs and seed alone.

use pdq_netsim::{FlowId, FlowSpec, SimTime};
use pdq_topology::{EcmpRouter, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Which protocol's equilibrium allocation to compute each step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowProtocol {
    /// PDQ: criticality-ordered waterfilling (the paper's centralized algorithm, which
    /// the distributed protocol converges to — Appendix B).
    Pdq,
    /// RCP: per-link max-min fair sharing.
    Rcp,
    /// D3: deadline flows reserve `remaining/time_to_deadline` in arrival order, the
    /// leftover is shared max-min.
    D3,
}

/// Flow-level simulator configuration.
#[derive(Clone, Debug)]
pub struct FlowLevelConfig {
    /// Protocol model.
    pub protocol: FlowProtocol,
    /// Rate-recomputation time step (the paper uses 1 ms).
    pub step: SimTime,
    /// Flow initialization latency added before a flow starts transferring
    /// (SYN + first-data feedback, about two RTTs).
    pub init_delay: SimTime,
    /// Fraction of the wire rate usable for payload (TCP/IP + scheduling header
    /// overhead, ≈ 0.96).
    pub efficiency: f64,
    /// Hard stop.
    pub max_time: SimTime,
    /// PDQ flow-aging rate α (Figure 12). `None` disables aging.
    pub aging_alpha: Option<f64>,
    /// Enable PDQ Early Termination / D3 quenching of hopeless deadline flows.
    pub early_termination: bool,
}

impl Default for FlowLevelConfig {
    fn default() -> Self {
        FlowLevelConfig {
            protocol: FlowProtocol::Pdq,
            step: SimTime::from_millis(1),
            init_delay: SimTime::from_micros(300),
            efficiency: 1444.0 / 1500.0,
            max_time: SimTime::from_secs(60),
            aging_alpha: None,
            early_termination: true,
        }
    }
}

impl FlowLevelConfig {
    /// A config for the given protocol with paper defaults otherwise.
    pub fn for_protocol(protocol: FlowProtocol) -> Self {
        FlowLevelConfig {
            protocol,
            ..Default::default()
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

struct ActiveFlow {
    id: FlowId,
    path: Vec<usize>,
    remaining_bits: f64,
    size_bytes: u64,
    arrival: SimTime,
    start: SimTime,
    deadline: Option<SimTime>,
    max_rate: f64,
    /// Position in the input flow list: D3's reservation order and the flow's record.
    arrival_order: usize,
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
        .map(|l| l.rate_bps * cfg.efficiency)
        .collect();

    // Route every flow once (flow-level ECMP), set up its record.
    let mut pending: Vec<ActiveFlow> = Vec::with_capacity(flows.len());
    let mut records: Vec<FlowLevelRecord> = Vec::with_capacity(flows.len());
    for (order, spec) in flows.iter().enumerate() {
        let path = router.random_shortest_path(&topo.net, spec.src, spec.dst, &mut rng);
        let links: Vec<usize> = path.links.iter().map(|l| l.index()).collect();
        let max_rate = links
            .iter()
            .map(|&l| capacities[l])
            .fold(f64::INFINITY, f64::min);
        pending.push(ActiveFlow {
            id: spec.id,
            path: links,
            remaining_bits: spec.size_bytes as f64 * 8.0,
            size_bytes: spec.size_bytes,
            arrival: spec.arrival,
            start: spec.arrival + cfg.init_delay,
            deadline: spec.deadline,
            max_rate,
            arrival_order: order,
        });
        records.push(FlowLevelRecord {
            id: spec.id,
            size_bytes: spec.size_bytes,
            arrival: spec.arrival,
            deadline: spec.deadline,
            completed_at: None,
            terminated: false,
        });
    }
    pending.sort_by_key(|f| f.start);

    let dt = cfg.step.as_secs_f64();
    let mut now = SimTime::ZERO;
    let mut active: Vec<ActiveFlow> = Vec::new();
    let mut next_pending = 0usize;

    while now < cfg.max_time && (next_pending < pending.len() || !active.is_empty()) {
        // Admit flows whose start time has come.
        while next_pending < pending.len() && pending[next_pending].start <= now {
            let f = &pending[next_pending];
            active.push(ActiveFlow {
                id: f.id,
                path: f.path.clone(),
                remaining_bits: f.remaining_bits,
                size_bytes: f.size_bytes,
                arrival: f.arrival,
                start: f.start,
                deadline: f.deadline,
                max_rate: f.max_rate,
                arrival_order: f.arrival_order,
            });
            next_pending += 1;
        }

        // Early termination / quenching.
        if cfg.early_termination {
            active.retain(|f| {
                let Some(dl) = f.deadline else { return true };
                let hopeless = match cfg.protocol {
                    FlowProtocol::Pdq => {
                        let min_finish = now.as_secs_f64() + f.remaining_bits / f.max_rate;
                        now > dl || min_finish > dl.as_secs_f64()
                    }
                    FlowProtocol::D3 => now > dl,
                    FlowProtocol::Rcp => false,
                };
                if hopeless {
                    records[f.arrival_order].terminated = true;
                }
                !hopeless
            });
        }

        if active.is_empty() {
            // Jump to the next arrival to avoid spinning through idle time.
            if next_pending < pending.len() {
                now = now.max(pending[next_pending].start);
                // Align to the step grid.
                continue;
            }
            break;
        }

        let rates = allocate_rates(&active, &capacities, cfg, now);

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
                records[f.arrival_order].completed_at = Some(done_at);
                f.remaining_bits = 0.0;
                finished.push(i);
            } else {
                f.remaining_bits -= delivered;
            }
        }
        for &i in finished.iter().rev() {
            active.swap_remove(i);
        }
        now += cfg.step;
    }

    records.sort_by_key(|r| r.id);
    FlowLevelResults { flows: records }
}

/// Compute the per-flow rate allocation for one step.
fn allocate_rates(
    active: &[ActiveFlow],
    capacities: &[f64],
    cfg: &FlowLevelConfig,
    now: SimTime,
) -> Vec<f64> {
    match cfg.protocol {
        FlowProtocol::Pdq => pdq_waterfill(active, capacities, cfg, now),
        FlowProtocol::Rcp => max_min_fair(active, capacities),
        FlowProtocol::D3 => {
            // Phase 1: deadline flows reserve their desired rate in arrival order.
            let mut residual = capacities.to_vec();
            let mut reserved = vec![0.0f64; active.len()];
            let mut order: Vec<usize> = (0..active.len()).collect();
            order.sort_by_key(|&i| active[i].arrival_order);
            for i in order {
                let f = &active[i];
                let Some(dl) = f.deadline else { continue };
                if dl <= now {
                    continue;
                }
                let desired = f.remaining_bits / (dl - now).as_secs_f64();
                let avail = f
                    .path
                    .iter()
                    .map(|&l| residual[l])
                    .fold(f64::INFINITY, f64::min);
                let got = desired.min(avail).min(f.max_rate);
                if got > 0.0 {
                    reserved[i] = got;
                    for &l in &f.path {
                        residual[l] -= got;
                    }
                }
            }
            // Phase 2: the leftover is shared max-min among everyone.
            let extra = max_min_fair(active, &residual);
            reserved.iter().zip(extra).map(|(r, e)| r + e).collect()
        }
    }
}

/// PDQ's centralized allocation: flows in criticality order grab everything left on
/// their path.
fn pdq_waterfill(
    active: &[ActiveFlow],
    capacities: &[f64],
    cfg: &FlowLevelConfig,
    now: SimTime,
) -> Vec<f64> {
    let mut order: Vec<usize> = (0..active.len()).collect();
    let criticality = |f: &ActiveFlow| {
        let mut t = f.remaining_bits / f.max_rate;
        if let Some(alpha) = cfg.aging_alpha {
            let wait_units = now.saturating_sub(f.arrival).as_secs_f64() / 0.1;
            t /= 2f64.powf(alpha * wait_units);
        }
        (f.deadline.unwrap_or(SimTime::MAX), t, f.id)
    };
    order.sort_by(|&a, &b| {
        let (da, ta, ia) = criticality(&active[a]);
        let (db, tb, ib) = criticality(&active[b]);
        da.cmp(&db)
            .then(ta.partial_cmp(&tb).unwrap_or(std::cmp::Ordering::Equal))
            .then(ia.cmp(&ib))
    });
    let mut residual = capacities.to_vec();
    let mut rates = vec![0.0f64; active.len()];
    for i in order {
        let f = &active[i];
        let avail = f
            .path
            .iter()
            .map(|&l| residual[l])
            .fold(f64::INFINITY, f64::min)
            .min(f.max_rate)
            .max(0.0);
        rates[i] = avail;
        for &l in &f.path {
            residual[l] -= avail;
        }
    }
    rates
}

/// Link-constrained max-min fair allocation by progressive filling: each round the
/// bottleneck is the link with the smallest residual capacity per unfrozen flow
/// crossing it (ties go to the lowest link index), and its flows freeze at that
/// share.
fn max_min_fair(active: &[ActiveFlow], capacities: &[f64]) -> Vec<f64> {
    let n = active.len();
    let mut rates = vec![0.0f64; n];
    let mut residual = capacities.to_vec();
    let mut frozen = vec![false; n];
    let mut counts = vec![0usize; capacities.len()];
    // Every round freezes at least one flow.
    for _ in 0..n {
        counts.fill(0);
        for (f, _) in active.iter().zip(&frozen).filter(|(_, &frozen)| !frozen) {
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
        for (i, f) in active.iter().enumerate() {
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
    use pdq_netsim::{Fcts, LinkParams};
    use pdq_topology::{single_bottleneck, single_rooted_tree};

    fn fcts(res: &FlowLevelResults) -> Fcts {
        res.flows
            .iter()
            .filter_map(|r| r.fct().map(|t| t.as_secs_f64()))
            .collect()
    }

    /// The fraction of deadline flows that met their deadline.
    fn application_throughput(res: &FlowLevelResults) -> Option<f64> {
        let deadline = res.flows.iter().filter(|r| r.deadline.is_some());
        let met = deadline.clone().filter(|r| r.met_deadline()).count();
        let total = deadline.count();
        (total > 0).then(|| met as f64 / total as f64)
    }

    fn bottleneck_flows(sizes: &[u64], deadlines_ms: &[Option<u64>]) -> (Topology, Vec<FlowSpec>) {
        let topo = single_bottleneck(sizes.len(), LinkParams::default());
        let recv = *topo.hosts.last().unwrap();
        let flows = sizes
            .iter()
            .zip(deadlines_ms)
            .enumerate()
            .map(|(i, (&s, d))| {
                let mut spec = FlowSpec::new(i as u64 + 1, topo.hosts[i], recv, s);
                if let Some(ms) = d {
                    spec = spec.with_deadline(SimTime::from_millis(*ms));
                }
                spec
            })
            .collect();
        (topo, flows)
    }

    #[test]
    fn pdq_serves_flows_in_sjf_order() {
        let (topo, flows) =
            bottleneck_flows(&[1_000_000, 2_000_000, 3_000_000], &[None, None, None]);
        let cfg = FlowLevelConfig::for_protocol(FlowProtocol::Pdq);
        let res = run_flow_level(&topo, &flows, &cfg, 1);
        assert!(res.flows.iter().all(|r| r.completed_at.is_some()));
        let f1 = res.fct_of(FlowId(1)).unwrap();
        let f2 = res.fct_of(FlowId(2)).unwrap();
        let f3 = res.fct_of(FlowId(3)).unwrap();
        assert!(f1 < f2 && f2 < f3);
        // The shortest flow finishes in about its raw serialization time (~8.3 ms),
        // because under PDQ it is never preempted.
        assert!(f1 < 0.012, "f1 = {f1}");
        // The longest finishes around the sum of all three (~50 ms).
        assert!(f3 > 0.040 && f3 < 0.070, "f3 = {f3}");
    }

    #[test]
    fn rcp_fair_sharing_gives_larger_mean_fct_than_pdq() {
        let (topo, flows) = bottleneck_flows(
            &[500_000, 1_000_000, 1_500_000, 2_000_000],
            &[None, None, None, None],
        );
        let pdq = run_flow_level(
            &topo,
            &flows,
            &FlowLevelConfig::for_protocol(FlowProtocol::Pdq),
            1,
        );
        let rcp = run_flow_level(
            &topo,
            &flows,
            &FlowLevelConfig::for_protocol(FlowProtocol::Rcp),
            1,
        );
        let pdq_mean = fcts(&pdq).mean().unwrap();
        let rcp_mean = fcts(&rcp).mean().unwrap();
        assert!(
            pdq_mean < rcp_mean * 0.85,
            "PDQ should clearly beat fair sharing: pdq={pdq_mean} rcp={rcp_mean}"
        );
    }

    #[test]
    fn pdq_meets_more_deadlines_than_d3_on_adversarial_order() {
        // Recreate the Figure 1 situation: the far-deadline flow arrives first, so D3
        // reserves for it and the tight-deadline flow starves; PDQ preempts.
        let topo = single_bottleneck(3, LinkParams::default());
        let recv = *topo.hosts.last().unwrap();
        let mk = |id: u64, host: usize, size: u64, dl_ms: u64, arrival_us: u64| {
            FlowSpec::new(id, topo.hosts[host], recv, size)
                .with_deadline(SimTime::from_millis(dl_ms))
                .with_arrival(SimTime::from_micros(arrival_us))
        };
        // f_B (2 MB, 30 ms) arrives first, f_A (1 MB, 12 ms) second, f_C (3 MB, 60 ms).
        // All three are feasible under EDF/SJF scheduling, but the arrival order lets
        // D3's first-come reservation for f_B squeeze f_A past its deadline.
        let flows = vec![
            mk(2, 1, 2_000_000, 30, 0),
            mk(1, 0, 1_000_000, 12, 10),
            mk(3, 2, 3_000_000, 60, 20),
        ];
        let pdq = run_flow_level(
            &topo,
            &flows,
            &FlowLevelConfig::for_protocol(FlowProtocol::Pdq),
            1,
        );
        let d3 = run_flow_level(
            &topo,
            &flows,
            &FlowLevelConfig::for_protocol(FlowProtocol::D3),
            1,
        );
        assert_eq!(application_throughput(&pdq), Some(1.0), "{:?}", pdq.flows);
        assert!(application_throughput(&d3).unwrap() < 1.0);
    }

    #[test]
    fn aging_reduces_worst_case_fct() {
        let topo = single_rooted_tree(4, 3, LinkParams::default(), LinkParams::default());
        // Many short flows keep arriving on the same bottleneck as one long flow.
        let recv = topo.hosts[11];
        let mut flows = vec![FlowSpec::new(1, topo.hosts[0], recv, 5_000_000)];
        for i in 0..40u64 {
            flows.push(
                FlowSpec::new(i + 2, topo.hosts[(i % 10 + 1) as usize], recv, 300_000)
                    .with_arrival(SimTime::from_millis(i)),
            );
        }
        let plain = run_flow_level(
            &topo,
            &flows,
            &FlowLevelConfig::for_protocol(FlowProtocol::Pdq),
            1,
        );
        let mut aged_cfg = FlowLevelConfig::for_protocol(FlowProtocol::Pdq);
        aged_cfg.aging_alpha = Some(4.0);
        let aged = run_flow_level(&topo, &flows, &aged_cfg, 1);
        let plain_max = fcts(&plain).max().unwrap();
        let aged_max = fcts(&aged).max().unwrap();
        assert!(
            aged_max <= plain_max,
            "aging must not make the worst flow worse: {aged_max} vs {plain_max}"
        );
    }

    #[test]
    fn deadline_throughput_degrades_with_load_for_all_protocols() {
        for proto in [FlowProtocol::Pdq, FlowProtocol::Rcp, FlowProtocol::D3] {
            let few = bottleneck_flows(&[100_000; 3], &[Some(20); 3]);
            let many = bottleneck_flows(&[100_000; 40], &[Some(20); 40]);
            let cfg = FlowLevelConfig::for_protocol(proto);
            let light = application_throughput(&run_flow_level(&few.0, &few.1, &cfg, 1)).unwrap();
            let heavy = application_throughput(&run_flow_level(&many.0, &many.1, &cfg, 1)).unwrap();
            assert!(light >= heavy, "{proto:?}: light {light} heavy {heavy}");
            assert!(
                light > 0.9,
                "{proto:?} should satisfy a light load: {light}"
            );
        }
    }

    #[test]
    fn max_min_respects_link_capacities() {
        let (topo, flows) = bottleneck_flows(&[1_000_000; 5], &[None; 5]);
        let cfg = FlowLevelConfig::for_protocol(FlowProtocol::Rcp);
        let res = run_flow_level(&topo, &flows, &cfg, 1);
        // Five equal flows share a 1 Gbps bottleneck fairly: each takes ~5x the solo time.
        let fcts: Vec<f64> = (1..=5).map(|i| res.fct_of(FlowId(i)).unwrap()).collect();
        let min = fcts.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = fcts.iter().cloned().fold(0.0, f64::max);
        assert!(
            max / min < 1.1,
            "fair sharing finishes everyone together: {fcts:?}"
        );
        assert!(min > 0.035, "five 1 MB flows on 1 Gbps need > 40 ms: {min}");
    }
}
