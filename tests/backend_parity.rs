//! Cross-backend differential tests: the packet-level engine, the §5.5 flow-level
//! simulator and the §2.1 fluid model are three implementations of the same
//! protocols, so where their modeling assumptions overlap they must agree — the
//! same oracle trick coflow-scheduling evaluations use to sanity-check fluid
//! models against packet simulations.
//!
//! What must agree on a single bottleneck:
//! * fair-sharing completion *order* (fluid `FairSharing` vs flow-level RCP) and
//!   SJF completion *order* (fluid `SjfEdf` vs flow-level PDQ), on random sets of
//!   2–8 flows with distinct sizes (property tests),
//! * the *set* of flows that miss agreeable deadlines (all three backends, for
//!   PDQ, RCP and D3 alike),
//! * and fluid completions themselves must be invariant to input permutation for
//!   the order-free models (property test) — only D3's first-come-first-reserve
//!   is allowed to care about arrival order.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pdq_flowsim::{
    d3_completion, edf_completion, fair_sharing_completion, max_on_time, run_fluid, sjf_completion,
    FluidFlow, FluidFlowRecord, FluidModel, FLUID_RATE_BPS,
};
use pdq_netsim::{FlowSpec, NodeId, SimTime};
use pdq_repro::scenario::{
    BackendResults, ProtocolRegistry, RunSummary, Scenario, SimBackend, TopologySpec, WorkloadSpec,
};

fn registry() -> ProtocolRegistry {
    let mut registry = ProtocolRegistry::new();
    pdq::register_pdq(&mut registry);
    pdq_baselines::register_baselines(&mut registry);
    registry
}

/// A single-bottleneck scenario over an explicit flow list: sender `i` is host
/// node `i + 1`, the receiver is the last host (node `senders + 1`).
fn bottleneck_scenario(name: &str, flows: Vec<FlowSpec>, backend: SimBackend) -> Scenario {
    Scenario::new(name)
        .backend(backend)
        .topology(TopologySpec::SingleBottleneck {
            senders: flows.len(),
            access_loss: 0.0,
        })
        .workload(WorkloadSpec::Manual(flows))
        .stop_at(SimTime::from_secs(60))
}

fn flow(id: u64, n_senders: usize, size: u64) -> FlowSpec {
    FlowSpec::new(id, NodeId(id as u32), NodeId(n_senders as u32 + 1), size)
}

/// Flow ids sorted by completion time, whichever backend produced the summary.
/// Unfinished flows are excluded; ties break by id.
fn completion_order(summary: &RunSummary) -> Vec<u64> {
    let mut done: Vec<(u64, u64)> = match &summary.results {
        BackendResults::Packet(r) => r
            .top_level_flows()
            .filter_map(|r| r.completed_at.map(|t| (t.as_nanos(), r.spec.id.value())))
            .map(|(t, id)| (id, t))
            .collect(),
        BackendResults::Flow(r) => r
            .flows
            .iter()
            .filter_map(|r| r.completed_at.map(|t| (r.id.value(), t.as_nanos())))
            .collect(),
        BackendResults::Fluid(r) => r
            .flows
            .iter()
            .filter_map(|r| {
                r.completion
                    .map(|c| (r.id, SimTime::from_secs_f64(c).as_nanos()))
            })
            .collect(),
        BackendResults::Cached(_) => panic!("parity tests run fresh, never from the cache"),
    };
    done.sort_by_key(|&(id, t)| (t, id));
    done.into_iter().map(|(id, _)| id).collect()
}

/// Ids of deadline-carrying flows that did not complete within their deadline.
fn missed_deadlines(summary: &RunSummary) -> BTreeSet<u64> {
    match &summary.results {
        BackendResults::Packet(r) => r
            .top_level_flows()
            .filter(|r| r.spec.deadline().is_some() && !r.met_deadline())
            .map(|r| r.spec.id.value())
            .collect(),
        BackendResults::Flow(r) => r
            .flows
            .iter()
            .filter(|r| r.deadline.is_some() && !r.met_deadline())
            .map(|r| r.id.value())
            .collect(),
        BackendResults::Fluid(r) => r
            .flows
            .iter()
            .filter(|r| r.flow.deadline.is_some() && !r.met_deadline())
            .map(|r| r.id)
            .collect(),
        BackendResults::Cached(_) => panic!("parity tests run fresh, never from the cache"),
    }
}

/// Four deadline-free flows whose sizes are deliberately *not* in id order, so an
/// order comparison cannot pass by accident.
fn jumbled_sizes() -> Vec<FlowSpec> {
    vec![
        flow(1, 4, 160_000),
        flow(2, 4, 40_000),
        flow(3, 4, 220_000),
        flow(4, 4, 100_000),
    ]
}

/// `n` deadline-free flows with distinct sizes, multiples of 10 kB up to 2 MB, drawn
/// in a seeded random order so that id order says nothing about size order.
fn distinct_sizes(n: usize, seed: u64) -> Vec<FlowSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sizes: Vec<u64> = Vec::with_capacity(n);
    while sizes.len() < n {
        let size = rng.gen_range(1u64..=200) * 10_000;
        if !sizes.contains(&size) {
            sizes.push(size);
        }
    }
    sizes
        .into_iter()
        .enumerate()
        .map(|(i, size)| flow(i as u64 + 1, n, size))
        .collect()
}

/// Flow ids from the smallest flow to the largest.
fn ids_by_size(flows: &[FlowSpec]) -> Vec<u64> {
    let mut by_size: Vec<&FlowSpec> = flows.iter().collect();
    by_size.sort_by_key(|f| f.size_bytes);
    by_size.iter().map(|f| f.id.value()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// RCP is max-min fair sharing at the flow level and processor sharing in the
    /// fluid model: under either, smaller flows finish strictly earlier.
    #[test]
    fn fluid_fair_sharing_order_matches_the_flow_backends_fair_share_order(
        n in 2usize..=8,
        seed in 0u64..1_000_000,
    ) {
        let reg = registry();
        let flows = distinct_sizes(n, seed);
        let fluid = bottleneck_scenario("fair-fluid", flows.clone(), SimBackend::Fluid)
            .protocol("rcp")
            .run(&reg)
            .unwrap();
        let flow_level = bottleneck_scenario("fair-flow", flows.clone(), SimBackend::Flow)
            .protocol("rcp")
            .run(&reg)
            .unwrap();
        prop_assert_eq!(fluid.backend, SimBackend::Fluid);
        prop_assert_eq!(flow_level.backend, SimBackend::Flow);
        prop_assert_eq!(completion_order(&fluid), ids_by_size(&flows));
        prop_assert_eq!(
            completion_order(&fluid),
            completion_order(&flow_level),
            "fluid fair sharing and flow-level RCP disagree on completion order"
        );
        // Both models complete every flow.
        prop_assert_eq!(fluid.completed, n);
        prop_assert_eq!(flow_level.completed, n);
    }

    /// Deadline-free PDQ serves in SJF order both as the fluid serial schedule and
    /// as flow-level criticality waterfilling.
    #[test]
    fn fluid_sjf_order_matches_pdqs_flow_level_order(
        n in 2usize..=8,
        seed in 0u64..1_000_000,
    ) {
        let reg = registry();
        let flows = distinct_sizes(n, seed);
        let fluid = bottleneck_scenario("sjf-fluid", flows.clone(), SimBackend::Fluid)
            .protocol("pdq(full)")
            .run(&reg)
            .unwrap();
        let flow_level = bottleneck_scenario("sjf-flow", flows.clone(), SimBackend::Flow)
            .protocol("pdq(full)")
            .run(&reg)
            .unwrap();
        let order = ids_by_size(&flows);
        prop_assert_eq!(&completion_order(&fluid), &order);
        prop_assert_eq!(
            completion_order(&fluid),
            completion_order(&flow_level),
            "fluid SJF and flow-level PDQ disagree on completion order"
        );
        // Serial service: each fluid completion is the running sum of sizes (in
        // seconds at one byte per second).
        let records = fluid.fluid();
        let mut served = 0.0;
        for id in order {
            served += flows[id as usize - 1].size_bytes as f64;
            prop_assert_eq!(records.flow(id).unwrap().completion, Some(served));
        }
    }
}

/// Flows whose deadlines are agreeable in every backend's time scale: three with
/// deadlines far beyond any backend's completion time, one (id 4) with a deadline
/// below its own serialization time everywhere — so every backend must agree that
/// exactly flow 4 misses.
///
/// Sizes stay small enough (sum < 10^4 fluid units) that even the fluid D3
/// integrator finishes every flow within its time cap.
fn agreeable_deadline_flows() -> Vec<FlowSpec> {
    let generous = SimTime::from_secs(100_000);
    vec![
        flow(1, 4, 2_000).with_deadline(generous),
        flow(2, 4, 1_000).with_deadline(generous),
        flow(3, 4, 3_000).with_deadline(generous),
        // 1.5 kB cannot beat a 1 µs deadline on a 1 Gbps link (12 µs serialization
        // alone), nor 1 500 fluid seconds vs 10^-6 fluid seconds.
        flow(4, 4, 1_500).with_deadline(SimTime::from_nanos(1_000)),
    ]
}

#[test]
fn every_backend_agrees_on_which_flows_miss_agreeable_deadlines() {
    let reg = registry();
    for protocol in ["pdq(full)", "rcp", "d3"] {
        let mut misses = Vec::new();
        for backend in SimBackend::all() {
            let summary = bottleneck_scenario("deadlines", agreeable_deadline_flows(), backend)
                .protocol(protocol)
                .run(&reg)
                .unwrap();
            assert_eq!(summary.deadline_flows, 4, "{protocol} on {backend}");
            misses.push((backend, missed_deadlines(&summary)));
        }
        let expected: BTreeSet<u64> = [4].into();
        for (backend, missed) in &misses {
            assert_eq!(
                missed, &expected,
                "{protocol} on {backend}: wrong missed-deadline set"
            );
        }
    }
}

#[test]
fn fluid_backend_summaries_are_deterministic_and_seed_independent() {
    let reg = registry();
    // The fluid model has no randomness: any seed yields the identical
    // fingerprint (the flow backend keeps its own determinism per seed).
    let base = bottleneck_scenario("det", jumbled_sizes(), SimBackend::Fluid).protocol("tcp");
    let a = base.clone().seed(1).run(&reg).unwrap();
    let b = base.clone().seed(99).run(&reg).unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());
    // And TCP — packet-only plus fluid — really runs fair sharing here.
    assert_eq!(completion_order(&a), vec![2, 4, 1, 3]);
    // But the flow backend still rejects TCP, fluid support notwithstanding.
    let err = bottleneck_scenario("det", jumbled_sizes(), SimBackend::Flow)
        .protocol("tcp")
        .run(&reg)
        .unwrap_err();
    assert!(err.to_string().contains("flow"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fluid completions are a function of the flow *set*, not the input order,
    /// for the order-free models (fair sharing, SJF/EDF). Sizes are distinct by
    /// construction — with ties, serial service must pick some order among equals
    /// and per-id invariance cannot hold; D3 is order-sensitive by design (that
    /// is Figure 1d) and deliberately excluded.
    #[test]
    fn fluid_completions_are_permutation_invariant_to_input_order(
        n in 1usize..8,
        seed in 0u64..1_000,
        with_deadlines in prop::collection::vec(0u8..2, 8),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let flows: Vec<(u64, FluidFlow)> = (0..n)
            .map(|i| {
                let size = (i as f64 + 1.0) * 10.0 + rng.gen_range(0.0..5.0);
                let deadline = (with_deadlines[i] == 1).then_some(size * 2.0 + i as f64);
                (i as u64 + 1, FluidFlow { size, deadline })
            })
            .collect();
        // A seeded Fisher–Yates shuffle of the input order.
        let mut shuffled = flows.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        for model in [FluidModel::FairSharing, FluidModel::SjfEdf] {
            let base = run_fluid(model, &flows);
            let perm = run_fluid(model, &shuffled);
            for record in &base.flows {
                let other = perm.flow(record.id).expect("flow survived the shuffle");
                prop_assert_eq!(
                    record.completion, other.completion,
                    "model {:?}, flow {}", model, record.id
                );
            }
            let met = |r: &pdq_flowsim::FluidResults| {
                r.flows.iter().filter(|f| f.met_deadline()).count()
            };
            prop_assert_eq!(met(&base), met(&perm));
        }
    }

    /// Optimal bounds every schedule: at the fluid backend's rate and at 1 Gbps, the
    /// Moore–Hodgson count is at least the number of deadlines fair sharing, SJF, EDF
    /// and D3 (input order) each meet on the same flows, judged by `met_deadline`.
    /// Sizes are whole units of link time and deadlines sit within 2 µs of a whole
    /// unit, where completions land, so the deadline rule decides the count. The
    /// jitter is whole nanoseconds plus a half: no deadline ties a completion.
    #[test]
    fn optimal_meets_at_least_the_deadlines_of_every_schedule(
        draws in prop::collection::vec((1u32..=8, 0u32..=24, -2_000i32..=2_000), 1..=8),
    ) {
        for (rate_bps, unit_secs) in [(FLUID_RATE_BPS, 1.0), (1e9, 1e-4)] {
            let flows: Vec<FluidFlow> = draws
                .iter()
                .map(|&(units, deadline_units, jitter_ns)| FluidFlow {
                    size: f64::from(units) * unit_secs * rate_bps / 8.0,
                    deadline: (deadline_units > 0).then(|| {
                        f64::from(deadline_units) * unit_secs + (f64::from(jitter_ns) + 0.5) * 1e-9
                    }),
                })
                .collect();
            let optimal = max_on_time(&flows, rate_bps);
            let order: Vec<usize> = (0..flows.len()).collect();
            for (schedule, completion) in [
                ("fair sharing", fair_sharing_completion(&flows, rate_bps)),
                ("SJF", sjf_completion(&flows, rate_bps)),
                ("EDF", edf_completion(&flows, rate_bps)),
                ("D3", d3_completion(&flows, &order, rate_bps)),
            ] {
                let met = flows
                    .iter()
                    .zip(completion)
                    .filter(|&(&flow, c)| {
                        let completion = (!c.is_nan()).then_some(c);
                        FluidFlowRecord { id: 0, flow, completion }.met_deadline()
                    })
                    .count();
                prop_assert!(
                    met <= optimal,
                    "{schedule} meets {met} deadlines, Optimal {optimal}, at {rate_bps} bps: {flows:?}"
                );
            }
        }
    }
}
