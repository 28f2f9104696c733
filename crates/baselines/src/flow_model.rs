//! RCP and D3 at the flow level (§5.5): RCP is max-min fair sharing; D3's deadline
//! flows reserve `remaining / time_to_deadline` in arrival order, the leftover is
//! shared max-min among every flow, and a deadline flow is quenched once its
//! deadline has passed (`rate_host::quenched`, as D3's packet sender does).

use pdq_flowsim::{max_min_fair, serve_in_order, ActiveFlow, FlowModel};
use pdq_netsim::SimTime;

use crate::rate_host::quenched;

/// RCP's [`FlowModel`]: max-min fair sharing, no flow gives up.
#[derive(Clone, Copy, Debug)]
pub struct RcpFlowModel;

impl FlowModel for RcpFlowModel {
    fn allocate(&self, flows: &[ActiveFlow], residual: &[f64], _now: SimTime) -> Vec<f64> {
        max_min_fair(flows, residual)
    }
}

/// D3's [`FlowModel`]: first-come-first-reserve plus the max-min leftover.
#[derive(Clone, Copy, Debug)]
pub struct D3FlowModel {
    /// Quench deadline flows whose deadline has passed (the paper's configuration).
    pub quenching: bool,
}

impl FlowModel for D3FlowModel {
    fn allocate(&self, flows: &[ActiveFlow], residual: &[f64], now: SimTime) -> Vec<f64> {
        let mut residual = residual.to_vec();
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by_key(|&i| flows[i].order);
        let reserved = serve_in_order(flows, order, &mut residual, |f| match f.deadline {
            Some(dl) if dl > now => f.remaining_bits / (dl - now).as_secs_f64(),
            _ => 0.0,
        });
        let extra = max_min_fair(flows, &residual);
        reserved.iter().zip(extra).map(|(r, e)| r + e).collect()
    }

    fn hopeless(&self, flow: &ActiveFlow, now: SimTime) -> bool {
        self.quenching && flow.deadline.is_some_and(|dl| quenched(now, dl))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq::PdqFlowModel;
    use pdq_flowsim::{run_flow_level, FlowLevelConfig, FlowLevelResults};
    use pdq_netsim::{Fcts, FlowId, FlowSpec, LinkParams};
    use pdq_topology::{single_bottleneck, Topology};

    fn pdq() -> FlowLevelConfig {
        FlowLevelConfig::new(PdqFlowModel {
            aging: None,
            early_termination: true,
        })
    }

    fn d3() -> FlowLevelConfig {
        FlowLevelConfig::new(D3FlowModel { quenching: true })
    }

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
    fn rcp_fair_sharing_gives_larger_mean_fct_than_pdq() {
        let (topo, flows) = bottleneck_flows(
            &[500_000, 1_000_000, 1_500_000, 2_000_000],
            &[None, None, None, None],
        );
        let pdq = run_flow_level(&topo, &flows, &pdq(), 1);
        let rcp = run_flow_level(&topo, &flows, &FlowLevelConfig::new(RcpFlowModel), 1);
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
        let pdq = run_flow_level(&topo, &flows, &pdq(), 1);
        let d3 = run_flow_level(&topo, &flows, &d3(), 1);
        assert_eq!(application_throughput(&pdq), Some(1.0), "{:?}", pdq.flows);
        assert!(application_throughput(&d3).unwrap() < 1.0);
    }

    #[test]
    fn deadline_throughput_degrades_with_load_for_all_protocols() {
        for (name, cfg) in [
            ("pdq", pdq()),
            ("rcp", FlowLevelConfig::new(RcpFlowModel)),
            ("d3", d3()),
        ] {
            let few = bottleneck_flows(&[100_000; 3], &[Some(20); 3]);
            let many = bottleneck_flows(&[100_000; 40], &[Some(20); 40]);
            let light = application_throughput(&run_flow_level(&few.0, &few.1, &cfg, 1)).unwrap();
            let heavy = application_throughput(&run_flow_level(&many.0, &many.1, &cfg, 1)).unwrap();
            assert!(light >= heavy, "{name}: light {light} heavy {heavy}");
            assert!(light > 0.9, "{name} should satisfy a light load: {light}");
        }
    }

    #[test]
    fn max_min_respects_link_capacities() {
        let (topo, flows) = bottleneck_flows(&[1_000_000; 5], &[None; 5]);
        let res = run_flow_level(&topo, &flows, &FlowLevelConfig::new(RcpFlowModel), 1);
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
