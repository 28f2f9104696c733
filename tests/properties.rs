//! Property-based tests over the paper's formal claims and the core invariants of the
//! reproduction (Appendix A/B of the paper, plus conservation/capacity invariants).

use proptest::prelude::*;

use pdq::{install_pdq, Discipline, PdqParams};
use pdq_flowsim::{fair_sharing_completion, max_on_time, sjf_completion, FluidFlow};
use pdq_netsim::{FlowOutcome, FlowSpec, SimConfig, SimTime, Simulator};
use pdq_topology::single_bottleneck;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Deadlock freedom / liveness (Appendix A): for any set of competing
    /// deadline-unconstrained flows on a shared bottleneck, every flow eventually
    /// completes — no pair of flows waits on each other forever.
    #[test]
    fn no_deadlock_every_flow_finishes(
        sizes in prop::collection::vec(10_000u64..400_000, 1..8),
        seed in 0u64..1000,
    ) {
        let topo = single_bottleneck(sizes.len(), Default::default());
        let recv = *topo.hosts.last().unwrap();
        let cfg = SimConfig {
            seed,
            max_sim_time: SimTime::from_secs(20),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(topo.net.clone(), cfg);
        install_pdq(&mut sim, &PdqParams::full(), &Discipline::Exact);
        for (i, &s) in sizes.iter().enumerate() {
            sim.add_flow(FlowSpec::new(i as u64 + 1, topo.hosts[i], recv, s));
        }
        let res = sim.run();
        for rec in &res.flows {
            prop_assert_eq!(rec.outcome(), FlowOutcome::Completed,
                "flow {:?} did not finish", rec.spec.id);
        }
    }

    /// The work-conservation sanity check behind the convergence claim (Appendix B):
    /// the total time to drain all flows on one bottleneck can never beat the sum of
    /// their serialization times, and PDQ stays within a constant factor of it.
    #[test]
    fn makespan_is_close_to_serialization_bound(
        sizes in prop::collection::vec(50_000u64..300_000, 2..6),
    ) {
        let topo = single_bottleneck(sizes.len(), Default::default());
        let recv = *topo.hosts.last().unwrap();
        let mut sim = Simulator::new(topo.net.clone(), SimConfig::default());
        install_pdq(&mut sim, &PdqParams::full(), &Discipline::Exact);
        for (i, &s) in sizes.iter().enumerate() {
            sim.add_flow(FlowSpec::new(i as u64 + 1, topo.hosts[i], recv, s));
        }
        let res = sim.run();
        let makespan = res
            .flows
            .iter()
            .filter_map(|r| r.completed_at)
            .max()
            .unwrap()
            .as_secs_f64();
        let bound: f64 = sizes.iter().map(|&s| s as f64 * 8.0 / 1e9).sum();
        prop_assert!(makespan >= bound * 0.95, "makespan {makespan} below physical bound {bound}");
        prop_assert!(makespan <= bound * 5.0 + 0.05,
            "makespan {makespan} too far above the bound {bound}");
    }

    /// Moore–Hodgson never schedules more jobs than fit and is monotone: relaxing every
    /// deadline can only increase the number of on-time jobs.
    #[test]
    fn optimal_scheduler_monotone_in_deadlines(
        jobs in prop::collection::vec((10_000u64..500_000, 0.005f64..0.2), 1..10),
        slack in 1.0f64..3.0,
    ) {
        let tight: Vec<FluidFlow> = jobs.iter().map(|&(s, d)| FluidFlow { size: s as f64, deadline: Some(d) }).collect();
        let loose: Vec<FluidFlow> = jobs.iter().map(|&(s, d)| FluidFlow { size: s as f64, deadline: Some(d * slack) }).collect();
        let rate = 1e9;
        let a = max_on_time(&tight, rate);
        let b = max_on_time(&loose, rate);
        prop_assert!(a <= jobs.len());
        prop_assert!(b >= a, "relaxing deadlines reduced on-time jobs: {a} -> {b}");
    }

    /// SJF mean FCT is a true lower bound: it never exceeds the fair-sharing mean FCT.
    #[test]
    fn sjf_lower_bounds_fair_sharing(
        sizes in prop::collection::vec(1_000u64..1_000_000, 1..12),
    ) {
        let flows: Vec<FluidFlow> = sizes.iter().map(|&s| FluidFlow { size: s as f64, deadline: None }).collect();
        let mean = |c: Vec<f64>| c.iter().sum::<f64>() / c.len() as f64;
        let sjf = mean(sjf_completion(&flows, 1e9));
        let fair = mean(fair_sharing_completion(&flows, 1e9));
        prop_assert!(sjf <= fair + 1e-12, "sjf {sjf} > fair {fair}");
    }
}

/// Convergence to equilibrium (Appendix B): with a stable workload on one bottleneck,
/// PDQ converges within a few RTTs to the state where the driver (the most critical
/// flow) is sending at the full link rate and every other flow is paused. The paper's
/// bound is `P_max + 1` RTTs; allowing for flow initialization and the feedback loop we
/// check convergence within 10 RTTs and verify the equilibrium by looking at per-flow
/// goodput over the following window.
#[test]
fn converges_to_single_driver_on_stable_workload() {
    use pdq::{install_pdq, Discipline, PdqParams};
    use pdq_netsim::{FlowId, SimConfig, TraceConfig};

    let n = 6usize;
    let topo = single_bottleneck(n, Default::default());
    let recv = *topo.hosts.last().unwrap();
    let cfg = SimConfig {
        max_sim_time: SimTime::from_millis(20),
        trace: TraceConfig {
            interval: SimTime::from_millis(1),
            links: vec![],
            flows: true,
        },
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net.clone(), cfg);
    install_pdq(&mut sim, &PdqParams::full(), &Discipline::Exact);
    for i in 0..n as u64 {
        // Flow 1 is the driver: clearly the smallest remaining size.
        sim.add_flow(FlowSpec::new(
            i + 1,
            topo.hosts[i as usize],
            recv,
            2_000_000 + i * 500_000,
        ));
    }
    let res = sim.run();
    // Between 2 ms (≈ 13 RTTs, well past the convergence bound) and 10 ms (well before
    // the driver finishes its 16 ms of data), the driver must carry essentially all the
    // goodput and every other flow must be paused.
    let goodput_between = |flow: u64, lo_ms: f64, hi_ms: f64| -> f64 {
        res.traces
            .flow_goodput
            .get(&FlowId(flow))
            .map(|samples| {
                let window: Vec<f64> = samples
                    .iter()
                    .filter(|s| {
                        let t = s.at.as_millis_f64();
                        t > lo_ms && t <= hi_ms
                    })
                    .map(|s| s.value)
                    .collect();
                window.iter().sum::<f64>() / window.len().max(1) as f64
            })
            .unwrap_or(0.0)
    };
    let driver = goodput_between(1, 2.0, 10.0);
    assert!(
        driver > 0.85e9,
        "the driver should send at close to the line rate after convergence, got {driver}"
    );
    for f in 2..=n as u64 {
        let other = goodput_between(f, 2.0, 10.0);
        assert!(
            other < 0.05e9,
            "non-driver flow {f} should be paused at equilibrium, got {other}"
        );
    }
}

/// The switch-state bound of §3.3.1: with `n` concurrent flows on one link, the PDQ
/// switch tracks at most `max(2κ, min_list)` of them, far fewer than `n` when most are
/// paused. Exercised directly against the controller.
#[test]
fn switch_flow_state_stays_bounded() {
    use pdq::PdqSwitchController;
    use pdq_netsim::{
        LinkController, LinkParams, Network, NodeId, Packet, PacketKind, SchedulingHeader,
    };

    let mut net = Network::new();
    let s = net.add_switch("s");
    let h = net.add_host("h");
    let (l, _) = net.add_duplex_link(s, h, LinkParams::default());
    let mut params = PdqParams::full();
    params.min_list_size = 4;
    let mut ctl = PdqSwitchController::new(params);
    ctl.init(SimTime::ZERO, net.link(l));

    // 200 flows send their SYNs; only one can actually send on the 1 Gbps link, so the
    // list must stay near 2κ = 2 (clamped at the configured minimum of 4).
    for f in 0..200u64 {
        let mut p = Packet::control(PacketKind::Syn, pdq_netsim::FlowId(f), NodeId(1), NodeId(0));
        p.sched = SchedulingHeader::new(1e9);
        p.sched.set_expected_trans_time(0.001 + f as f64 * 1e-6);
        p.sched.rtt = 150e-6;
        ctl.on_forward(&mut p, SimTime::from_micros(f), net.link(l));
        let mut ack = p.make_echo(PacketKind::Ack, 0);
        ctl.on_reverse(&mut ack, SimTime::from_micros(f), net.link(l));
    }
    assert!(
        ctl.tracked_flows() <= 8,
        "switch should keep only ~2κ flows, kept {}",
        ctl.tracked_flows()
    );
}

/// Hot-path overhaul invariants (ISSUE 2): the dense flow slab keys engine state by an
/// arrival-order slot, with a `FlowId -> slot` index absorbing arbitrary id spaces. A
/// run must therefore behave identically whether the workload numbers its flows
/// densely (1, 2, 3, ...) or sparsely (widely scattered ids) — same routing, same
/// scheduling, same per-flow results under the id mapping.
#[test]
fn sparse_and_dense_flow_id_spaces_give_identical_results() {
    use pdq_netsim::{FlowId, SimConfig};

    // Monotonic sparse mapping (stays below the M-PDQ subflow-id base of 2^48).
    let sparse = |i: u64| -> u64 { 1 + i * 9_973 + (i % 3) * 17 };
    let sizes = [137_000u64, 64_000, 254_000, 91_000, 180_500];

    let run = |map: &dyn Fn(u64) -> u64| {
        let topo = single_bottleneck(sizes.len(), Default::default());
        let recv = *topo.hosts.last().unwrap();
        let cfg = SimConfig {
            seed: 11,
            max_sim_time: SimTime::from_secs(20),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(topo.net.clone(), cfg);
        install_pdq(&mut sim, &PdqParams::full(), &Discipline::Exact);
        for (i, &s) in sizes.iter().enumerate() {
            sim.add_flow(FlowSpec::new(map(i as u64), topo.hosts[i], recv, s));
        }
        sim.run()
    };

    let dense = run(&|i| i + 1);
    let scattered = run(&sparse);
    assert_eq!(dense.end_time, scattered.end_time, "end times diverged");
    assert_eq!(dense.flows.len(), scattered.flows.len());
    for i in 0..sizes.len() as u64 {
        let d = dense.flow(FlowId(i + 1)).unwrap();
        let s = scattered.flow(FlowId(sparse(i))).unwrap();
        assert_eq!(d.outcome(), s.outcome(), "flow {i}: outcome diverged");
        assert_eq!(d.fct(), s.fct(), "flow {i}: fct diverged");
        assert_eq!(
            d.raw_bytes_delivered, s.raw_bytes_delivered,
            "flow {i}: delivered bytes diverged"
        );
        assert_eq!(d.drops, s.drops, "flow {i}: drop counts diverged");
    }
    // Link behaviour must agree too (same topology, same link ids).
    for ((la, sa), (lb, sb)) in dense.link_stats.iter().zip(scattered.link_stats.iter()) {
        assert_eq!(la, lb);
        assert_eq!(sa.bytes_transmitted, sb.bytes_transmitted);
        assert_eq!(sa.tail_drops, sb.tail_drops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seed determinism survives the event-queue overhaul (boxed arrivals, pooled
    /// packets, timer generations): two runs with the same seed agree on every
    /// per-flow result, and the result depends only on the seed.
    #[test]
    fn seed_determinism_holds_after_event_queue_change(
        sizes in prop::collection::vec(20_000u64..250_000, 2..7),
        seed in 0u64..500,
    ) {
        use pdq_netsim::SimConfig;

        let run = || {
            let topo = single_bottleneck(sizes.len(), Default::default());
            let recv = *topo.hosts.last().unwrap();
            let cfg = SimConfig { seed, max_sim_time: SimTime::from_secs(20), ..SimConfig::default() };
            let mut sim = Simulator::new(topo.net.clone(), cfg);
            install_pdq(&mut sim, &PdqParams::full(), &Discipline::Exact);
            for (i, &s) in sizes.iter().enumerate() {
                sim.add_flow(FlowSpec::new(i as u64 + 1, topo.hosts[i], recv, s));
            }
            let res = sim.run();
            (res.flows, res.end_time)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b, "same seed produced different results");
    }
}
