//! Cross-crate integration tests: PDQ and the baselines running end to end on the
//! packet-level simulator, checked against the paper's qualitative claims and against
//! the centralized reference schedulers.

use pdq::{install_pdq, Discipline, PdqInstaller, PdqParams, PdqVariant};
use pdq_baselines::{install_rcp, install_tcp, RcpParams, TcpInstaller, TcpParams};
use pdq_experiments::common::{run_packet_level, run_scenario};
use pdq_flowsim::{max_on_time, sjf_completion, FluidFlow};
use pdq_netsim::{FlowId, FlowSpec, SimConfig, SimTime, Simulator, TraceConfig};
use pdq_scenario::{lower_to_fluid, Scenario, TopologySpec, WorkloadSpec};
use pdq_topology::{single::default_paper_tree, single_bottleneck};
use pdq_workloads::{query_aggregation_flows, DeadlineDist, SizeDist};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// PDQ approximates SJF: on a shared bottleneck, flows finish in size order and the
/// smallest flow is never delayed by the bigger ones.
#[test]
fn pdq_finishes_flows_in_size_order() {
    let topo = single_bottleneck(4, Default::default());
    let recv = *topo.hosts.last().unwrap();
    let mut sim = Simulator::new(topo.net.clone(), SimConfig::default());
    install_pdq(&mut sim, &PdqParams::full(), &Discipline::Exact);
    let sizes = [80_000u64, 160_000, 240_000, 320_000];
    for (i, &s) in sizes.iter().enumerate() {
        sim.add_flow(FlowSpec::new(i as u64 + 1, topo.hosts[i], recv, s));
    }
    let res = sim.run();
    assert_eq!(res.completed_count(), 4);
    let fct = |i: u64| res.flow(FlowId(i)).unwrap().fct().unwrap();
    assert!(fct(1) < fct(2) && fct(2) < fct(3) && fct(3) < fct(4));
    // The smallest flow runs essentially alone: 80 KB at 1 Gbps is ~0.64 ms plus
    // per-hop overheads and the SYN handshake.
    assert!(fct(1).as_millis_f64() < 2.0, "fct(1) = {}", fct(1));
    // No packet ever needed to be dropped.
    assert_eq!(res.total_tail_drops(), 0);
}

/// Under RCP (fair sharing) the same flows all finish late and together; PDQ's mean FCT
/// is visibly better, which is the paper's central claim.
#[test]
fn pdq_beats_fair_sharing_on_mean_fct() {
    let topo = single_bottleneck(4, Default::default());
    let recv = *topo.hosts.last().unwrap();
    let sizes = [80_000u64, 160_000, 240_000, 320_000];
    let run = |pdq: bool| {
        let mut sim = Simulator::new(topo.net.clone(), SimConfig::default());
        if pdq {
            install_pdq(&mut sim, &PdqParams::full(), &Discipline::Exact);
        } else {
            install_rcp(&mut sim, &RcpParams::default());
        }
        for (i, &s) in sizes.iter().enumerate() {
            sim.add_flow(FlowSpec::new(i as u64 + 1, topo.hosts[i], recv, s));
        }
        sim.run().mean_fct_all_secs().unwrap()
    };
    let pdq_fct = run(true);
    let rcp_fct = run(false);
    assert!(
        pdq_fct < rcp_fct,
        "PDQ mean FCT {pdq_fct} should beat RCP {rcp_fct}"
    );
    // And PDQ stays within a small factor of the SJF lower bound.
    let flows: Vec<FluidFlow> = sizes
        .iter()
        .map(|&s| FluidFlow {
            size: s as f64,
            deadline: None,
        })
        .collect();
    let lower = sjf_completion(&flows, 1e9).iter().sum::<f64>() / flows.len() as f64;
    assert!(pdq_fct < 4.0 * lower, "PDQ {pdq_fct} vs optimal {lower}");
}

/// Deadline case: PDQ meets more deadlines than TCP on an aggregation burst.
#[test]
fn pdq_meets_more_deadlines_than_tcp() {
    let topo = default_paper_tree();
    let mut rng = SmallRng::seed_from_u64(3);
    let flows = query_aggregation_flows(
        &topo,
        15,
        &SizeDist::query(),
        &DeadlineDist::paper_default(),
        1,
        &mut rng,
    );
    let pdq = run_packet_level(
        &topo,
        &flows,
        &PdqInstaller::variant(PdqVariant::Full),
        3,
        TraceConfig::default(),
    );
    let tcp = run_packet_level(
        &topo,
        &flows,
        &TcpInstaller::default(),
        3,
        TraceConfig::default(),
    );
    let pdq_at = pdq.application_throughput().unwrap();
    let tcp_at = tcp.application_throughput().unwrap();
    assert!(
        pdq_at >= tcp_at,
        "PDQ application throughput {pdq_at} vs TCP {tcp_at}"
    );
    assert!(pdq_at > 0.6, "PDQ should satisfy most deadlines: {pdq_at}");
}

/// TCP still works as a plain transport on the simulator (sanity for the baseline).
#[test]
fn tcp_completes_a_transfer() {
    let topo = single_bottleneck(1, Default::default());
    let recv = *topo.hosts.last().unwrap();
    let mut sim = Simulator::new(topo.net.clone(), SimConfig::default());
    install_tcp(&mut sim, &TcpParams::default());
    sim.add_flow(FlowSpec::new(1, topo.hosts[0], recv, 500_000));
    let res = sim.run();
    assert_eq!(res.completed_count(), 1);
    let fct = res.flow(FlowId(1)).unwrap().fct().unwrap();
    // 500 KB at 1 Gbps is 4 ms of serialization; TCP's slow start costs a few RTTs.
    assert!(fct.as_millis_f64() < 20.0, "TCP fct = {fct}");
}

/// M-PDQ completes every flow and its parent records carry the completion time.
#[test]
fn multipath_pdq_completes_parents_and_subflows() {
    let topo = pdq_topology::bcube(2, 2, Default::default());
    let mut params = PdqParams::full();
    params.subflows = 3;
    let mut sim = Simulator::new(topo.net.clone(), SimConfig::default());
    sim.set_router(pdq_topology::EcmpRouter::new());
    install_pdq(&mut sim, &params, &Discipline::Exact);
    sim.add_flow(FlowSpec::new(1, topo.hosts[0], topo.hosts[5], 300_000));
    sim.add_flow(FlowSpec::new(2, topo.hosts[3], topo.hosts[6], 450_000));
    let res = sim.run();
    // Two parent flows completed...
    assert_eq!(res.completed_count(), 2);
    // ...and the subflows exist as their own records with a parent pointer.
    let subflow_records = res.flows.iter().filter(|r| r.spec.parent.is_some()).count();
    assert_eq!(subflow_records, 6);
}

/// Early Termination: hopeless deadline flows are terminated rather than completed.
#[test]
fn early_termination_gives_up_on_impossible_deadlines() {
    let topo = single_bottleneck(2, Default::default());
    let recv = *topo.hosts.last().unwrap();
    let mut sim = Simulator::new(topo.net.clone(), SimConfig::default());
    install_pdq(&mut sim, &PdqParams::full(), &Discipline::Exact);
    // 10 MB in 5 ms over 1 Gbps is impossible (needs 80 ms).
    sim.add_flow(
        FlowSpec::new(1, topo.hosts[0], recv, 10_000_000).with_deadline(SimTime::from_millis(5)),
    );
    // A feasible flow shares the link and must still meet its deadline.
    sim.add_flow(
        FlowSpec::new(2, topo.hosts[1], recv, 100_000).with_deadline(SimTime::from_millis(20)),
    );
    let res = sim.run();
    let hopeless = res.flow(FlowId(1)).unwrap();
    assert!(
        hopeless.terminated_at.is_some(),
        "flow 1 should be terminated early"
    );
    let ok = res.flow(FlowId(2)).unwrap();
    assert!(ok.met_deadline(), "flow 2 should meet its deadline");
}

/// PDQ(Full) meets every deadline that Optimal (EDF + Moore-Hodgson on the receiver
/// access link every flow shares) meets, on Figure 3a's query aggregation at seeds
/// 26 and 27 with 4 and 6 flows. Early Termination counts the in-flight window as
/// untransmitted, so it kills a flow that could still make its deadline: PDQ(Full)
/// meets 3 of 4 and 5 of 6 in all four cases, Optimal all of them.
#[test]
#[ignore = "ROADMAP item 2: ET counts in-flight bytes"]
fn pdq_full_meets_every_deadline_optimal_meets() {
    let topo = default_paper_tree();
    for seed in [26, 27] {
        for n in [4, 6] {
            let scenario = Scenario::new("et")
                .topology(TopologySpec::PaperTree)
                .workload(WorkloadSpec::QueryAggregation {
                    flows: n,
                    sizes: SizeDist::query(),
                    deadlines: DeadlineDist::paper_default(),
                })
                .protocol("pdq(full)")
                .seed(seed);
            let flows = scenario.workload.generate(&topo, seed);
            let access = topo.net.outgoing(flows[0].dst)[0];
            let rate_bps = topo.net.link(topo.net.reverse(access)).rate_bps;
            let fluid: Vec<FluidFlow> =
                lower_to_fluid(&flows).into_iter().map(|(_, f)| f).collect();
            assert_eq!(
                run_scenario(&scenario).deadlines_met,
                max_on_time(&fluid, rate_bps),
                "seed {seed}, {n} flows"
            );
        }
    }
}

/// Determinism across the whole stack: identical seeds give identical results.
#[test]
fn end_to_end_determinism() {
    let run = || {
        let topo = default_paper_tree();
        let mut rng = SmallRng::seed_from_u64(9);
        let flows = query_aggregation_flows(
            &topo,
            10,
            &SizeDist::query(),
            &DeadlineDist::paper_default(),
            1,
            &mut rng,
        );
        let res = run_packet_level(
            &topo,
            &flows,
            &PdqInstaller::variant(PdqVariant::Full),
            9,
            TraceConfig::default(),
        );
        res.flows
            .iter()
            .map(|r| (r.spec.id.value(), r.fct()))
            .collect::<Vec<(u64, Option<SimTime>)>>()
    };
    assert_eq!(run(), run());
}
