//! PDQ at the flow level (§5.5): the centralized allocation distributed PDQ converges
//! to (Appendix B). Flows in [`Criticality::cmp_priority`] order each take all that is
//! left on their path; the packet sender's `early_terminate` decides Early Termination.

use pdq_flowsim::{serve_in_order, ActiveFlow, FlowModel};
use pdq_netsim::SimTime;

use crate::comparator::{aged, Criticality};
use crate::sender::early_terminate;

/// PDQ's [`FlowModel`]: criticality waterfilling.
#[derive(Clone, Copy, Debug)]
pub struct PdqFlowModel {
    /// The aging rate α of [`crate::Discipline::Aging`], or `None` for the Exact
    /// discipline.
    pub aging: Option<f64>,
    /// Terminate hopeless deadline flows (the variants with Early Termination).
    pub early_termination: bool,
}

impl FlowModel for PdqFlowModel {
    fn allocate(&self, flows: &[ActiveFlow], residual: &[f64], now: SimTime) -> Vec<f64> {
        let keys: Vec<Criticality> = flows
            .iter()
            .map(|f| {
                let exact = f.remaining_bits / f.max_rate;
                let t = self.aging.map_or(exact, |alpha| {
                    aged(exact, alpha, now.saturating_sub(f.arrival))
                });
                Criticality::new(f.deadline, t, f.id)
            })
            .collect();
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by(|&a, &b| keys[a].cmp_priority(&keys[b]));
        serve_in_order(flows, order, &mut residual.to_vec(), |_| f64::INFINITY)
    }

    fn hopeless(&self, flow: &ActiveFlow, now: SimTime) -> bool {
        let finish = SimTime::from_secs_f64(flow.remaining_bits / flow.max_rate);
        self.early_termination
            && flow
                .deadline
                .is_some_and(|dl| early_terminate(now, dl, finish))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_flowsim::{run_flow_level, FlowLevelConfig, FlowLevelResults};
    use pdq_netsim::{Fcts, FlowId, FlowSpec, LinkParams};
    use pdq_topology::{single_bottleneck, single_rooted_tree};

    use crate::install::PdqInstaller;
    use crate::{Discipline, PdqVariant};
    use pdq_scenario::ProtocolInstaller;

    fn fcts(res: &FlowLevelResults) -> Fcts {
        res.flows
            .iter()
            .filter_map(|r| r.fct().map(|t| t.as_secs_f64()))
            .collect()
    }

    fn full() -> FlowLevelConfig {
        FlowLevelConfig::new(PdqFlowModel {
            aging: None,
            early_termination: true,
        })
    }

    #[test]
    fn pdq_serves_flows_in_sjf_order() {
        let topo = single_bottleneck(3, LinkParams::default());
        let recv = *topo.hosts.last().unwrap();
        let flows: Vec<FlowSpec> = [1_000_000, 2_000_000, 3_000_000]
            .into_iter()
            .enumerate()
            .map(|(i, size)| FlowSpec::new(i as u64 + 1, topo.hosts[i], recv, size))
            .collect();
        let res = run_flow_level(&topo, &flows, &full(), 1);
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
        let plain = run_flow_level(&topo, &flows, &full(), 1);
        let aged =
            PdqInstaller::with_discipline(PdqVariant::Full, Discipline::Aging { alpha: 4.0 })
                .flow_config()
                .expect("aged PDQ has a flow-level model");
        let aged = run_flow_level(&topo, &flows, &aged, 1);
        let plain_max = fcts(&plain).max().unwrap();
        let aged_max = fcts(&aged).max().unwrap();
        assert!(
            aged_max <= plain_max,
            "aging must not make the worst flow worse: {aged_max} vs {plain_max}"
        );
    }
}
