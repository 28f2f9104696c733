//! Integration tests for the partitioned packet engine behind the Scenario API:
//! the determinism fingerprint must be invariant in the shard count, the committed
//! engine-scale spec must stay in sync with the code, and a pinned fingerprint
//! guards against silent cross-version determinism regressions.

use pdq_experiments::common::registry;
use pdq_experiments::scalebench::engine_scale_scenario;
use pdq_experiments::wan::wan_scenario;
use pdq_experiments::Scale;
use pdq_netsim::SimTime;
use pdq_scenario::Scenario;

fn fingerprint_at(scenario: &Scenario, engine_threads: u32) -> String {
    scenario
        .clone()
        .engine_threads(engine_threads)
        .run(registry())
        .unwrap_or_else(|e| panic!("{e}"))
        .fingerprint()
}

/// The committed CI spec is exactly the quick engine-scale scenario, so the CI
/// determinism job and the in-process tests exercise the same run.
#[test]
fn committed_engine_scale_spec_matches_the_code() {
    let committed = Scenario::from_spec(include_str!("../specs/engine_scale_quick.scn"))
        .expect("committed spec parses");
    assert_eq!(committed, engine_scale_scenario(Scale::Quick));
}

/// The tentpole determinism claim: for a loss-free scenario with no run-time flow
/// spawning, every shard count produces the identical flow-outcome fingerprint —
/// 1 shard is the sequential engine, N shards the conservative-lookahead one. At
/// every shard count each of the 300 flows has one record, in id order.
#[test]
fn engine_scale_fingerprint_is_shard_count_invariant() {
    let scenario = engine_scale_scenario(Scale::Quick);
    let run_at = |shards| {
        let run = scenario.clone().engine_threads(shards).run(registry());
        let run = run.unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(run.packet().flows.len(), 300, "{shards} shard(s)");
        assert_records_in_id_order(run.packet(), &format!("{shards} shard(s)"));
        run.fingerprint()
    };
    let sequential = run_at(1);
    for shards in [2, 4] {
        assert_eq!(
            run_at(shards),
            sequential,
            "shard count {shards} diverged from the sequential engine"
        );
    }
}

/// A hard stop is shard-count invariant: the committed packet specs, cut at
/// `stop_at` = 3 ms and 10 ms, before their flows drain, give the same
/// fingerprint, the same link counters and the same end time at 1, 2 and 4 shards.
/// Every core stops at the first event past the stop, and links are settled up to the
/// key that core stopped at, so no window boundary shows in the results.
#[test]
fn hard_stops_are_shard_count_invariant() {
    let specs = [
        include_str!("../specs/engine_scale_quick.scn"),
        include_str!("../specs/wan_quick.scn"),
        include_str!("../specs/coflow_quick.scn"),
    ];
    for text in specs {
        let base = Scenario::from_spec(text).expect("committed spec parses");
        for stop_ms in [3, 10] {
            let cut = base.clone().stop_at(SimTime::from_millis(stop_ms));
            let run_at = |shards| {
                let run = cut.clone().engine_threads(shards).run(registry());
                let run = run.unwrap_or_else(|e| panic!("{e}"));
                let results = run.packet();
                let links = format!("{:?}", results.link_stats);
                (run.fingerprint(), links, results.end_time)
            };
            let sequential = run_at(1);
            let context = format!("{} cut at {stop_ms} ms", base.name);
            assert_eq!(sequential.2, cut.stop_at, "{context}: the flows drained");
            for shards in [2, 4] {
                assert!(
                    run_at(shards) == sequential,
                    "{context}: {shards} shards diverged from one"
                );
            }
        }
    }
}

/// The committed WAN CI spec is exactly the quick WAN pacing scenario, so the CI
/// determinism job and the in-process tests exercise the same lossy paced run.
#[test]
fn committed_wan_spec_matches_the_code() {
    let committed =
        Scenario::from_spec(include_str!("../specs/wan_quick.scn")).expect("committed spec parses");
    assert_eq!(committed, wan_scenario(Scale::Quick, "pdq(full)", true));
}

/// The WAN determinism claim this PR adds: even with *lossy* long-haul links
/// crossing the shard cut (drops drawn from per-link streams, not the engine
/// stream) and paced senders, the fingerprint is invariant in the shard count.
#[test]
fn wan_fingerprint_is_shard_count_invariant_despite_loss() {
    let scenario = wan_scenario(Scale::Quick, "pdq(full)", true);
    let sequential = fingerprint_at(&scenario, 1);
    for shards in [2, 4] {
        assert_eq!(
            fingerprint_at(&scenario, shards),
            sequential,
            "shard count {shards} diverged on the lossy WAN scenario"
        );
    }
}

/// `results.flows` holds one record per arrived flow, strictly ascending by id, and
/// `flow(id)` finds each of them; an id no flow has gives `None`.
fn assert_records_in_id_order(results: &pdq_netsim::SimResults, context: &str) {
    use pdq_netsim::FlowId;
    let ids: Vec<FlowId> = results.flows.iter().map(|r| r.spec.id).collect();
    assert!(
        ids.windows(2).all(|pair| pair[0] < pair[1]),
        "{context}: records not strictly ascending by id"
    );
    assert_eq!(
        ids.len() as u64,
        results.engine.arrivals,
        "{context}: not one record per arrived flow"
    );
    for record in &results.flows {
        assert_eq!(results.flow(record.spec.id), Some(record), "{context}");
    }
    let past_the_last = ids.last().map_or(1, |id| id.value() + 1);
    for absent in [0, past_the_last, u64::MAX] {
        assert_eq!(
            results.flow(FlowId(absent)),
            None,
            "{context}: flow {absent}"
        );
    }
}

/// Loss where no spec can put it: 1 % on every link of a k = 4 fat-tree, so lossy
/// links sit inside every shard and on every cut. Each draws from its own
/// `(seed, link)` stream in packet-crossing order, so PDQ(full) gives the same flow
/// records and fingerprint at 1, 2 and 4 shards.
#[test]
fn lossy_fat_tree_is_shard_count_invariant() {
    use pdq_experiments::common::PDQ_FULL;
    use pdq_netsim::{LinkParams, SimConfig, SimResults, SimTime, Simulator};
    use pdq_scenario::{RunSummary, WorkloadSpec};
    use pdq_topology::{fat_tree, EcmpRouter, Partition};
    use pdq_workloads::SizeDist;

    let lossy = LinkParams {
        loss_rate: 0.01,
        ..LinkParams::default()
    };
    let topo = fat_tree(4, lossy);
    let flows = WorkloadSpec::RandomPairs {
        flows: 300,
        spread: SimTime::from_millis(30),
        sizes: SizeDist::query(),
    }
    .generate(&topo, 3);
    let installer = registry().resolve(PDQ_FULL).unwrap();
    let run = |shards: u32| -> SimResults {
        let config = SimConfig {
            seed: 3,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(topo.net.clone(), config);
        sim.set_router(EcmpRouter::new());
        installer.install(&mut sim);
        sim.add_flows(flows.iter().cloned());
        let assignment = Partition::of_topology(&topo, shards).to_assignment(&topo.net);
        assert_eq!(assignment.shards(), shards);
        sim.run_sharded(&assignment, |_| Box::new(EcmpRouter::new()))
    };
    let fingerprint = |results: SimResults| {
        RunSummary::new(&Scenario::new("lossy-fat-tree"), PDQ_FULL.into(), results).fingerprint()
    };

    let sequential = run(1);
    let drops: u64 = sequential
        .link_stats
        .iter()
        .map(|(_, s)| s.random_drops)
        .sum();
    assert!(drops > 100, "only {drops} random drops");
    assert_eq!(sequential.completed_count(), flows.len());
    assert_records_in_id_order(&sequential, "lossy fat-tree, 1 shard");
    let expected = (sequential.flows.clone(), fingerprint(sequential));
    for shards in [2, 4] {
        let sharded = run(shards);
        assert_records_in_id_order(&sharded, &format!("lossy fat-tree, {shards} shards"));
        let got = (sharded.flows.clone(), fingerprint(sharded));
        assert_eq!(
            got, expected,
            "{shards} shards diverged on the lossy fat-tree"
        );
    }
}

/// Shard-count invariance on the paper tree with deadline-constrained PDQ traffic:
/// deadline outcomes (completed vs terminated) must merge identically too.
#[test]
fn paper_tree_fingerprint_is_shard_count_invariant() {
    let scenario = Scenario::new("pin");
    assert_eq!(fingerprint_at(&scenario, 1), fingerprint_at(&scenario, 4));
}

/// Shard-count invariance for the coflow subsystem: coflow-aware PDQ derives group
/// criticality purely from static per-flow tags, so the CCT section of the
/// fingerprint must also be identical under any shard count.
#[test]
fn coflow_fingerprint_is_shard_count_invariant() {
    use pdq_scenario::{TopologySpec, WorkloadSpec};
    use pdq_workloads::{DeadlineDist, SizeDist};

    let scenario = Scenario::new("coflow-shards")
        .topology(TopologySpec::PaperTree)
        .workload(WorkloadSpec::Coflow {
            coflows: 6,
            width: 4,
            rate_coflows_per_sec: 900.0,
            sizes: SizeDist::query(),
            deadlines: DeadlineDist::paper_default(),
        })
        .protocol("cpdq")
        .seed(5);
    let sequential = fingerprint_at(&scenario, 1);
    assert!(
        sequential.contains("cct=6:"),
        "coflow metrics missing from the fingerprint: {sequential}"
    );
    for shards in [2, 4] {
        assert_eq!(
            fingerprint_at(&scenario, shards),
            sequential,
            "shard count {shards} diverged on the coflow workload"
        );
    }
}

/// A 128-bit digest of a determinism fingerprint: two 64-bit FNV-1a passes, the
/// second seeded by the first (the scheme of `pdq_scenario::cache::request_fingerprint`).
fn digest(fingerprint: &str) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let fnv = |basis: u64| {
        fingerprint.bytes().fold(basis, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let lo = fnv(OFFSET);
    format!("{:016x}{lo:016x}", fnv(lo ^ OFFSET))
}

/// Every protocol family's exact behaviour, pinned by digest at one and two shards:
/// the committed lossy paced WAN spec under each sender (TCP, RCP, D3 and PDQ
/// retransmit on timeouts there), the committed deadline coflow spec under the
/// rate-paced senders and the engine-scale fat-tree. A change to any sender's timers or to the
/// engine's timer path that alters a single event's order shows up here. The
/// committed flow-level and fluid specs pin the other two backends' fingerprint rows
/// (the shard count does not apply to them); the flow-level spec also runs
/// `pdq(es)` and `d3(noquench)`, the arms without Early Termination or quenching.
#[test]
fn protocol_fingerprints_are_pinned() {
    let spec = |text: &str, protocol: &str| {
        Scenario::from_spec(text)
            .expect("committed spec parses")
            .protocol(protocol)
    };
    let flow = include_str!("../specs/fig8a_flow.scn");
    let fluid = include_str!("../specs/fig1_fluid.scn");
    let wan = include_str!("../specs/wan_quick.scn");
    let cases = [
        (
            "fig8a_flow pdq(full)",
            spec(flow, "pdq(full)"),
            "6952b89e348ba11cffd5c01d16c82196",
        ),
        (
            "fig8a_flow rcp",
            spec(flow, "rcp"),
            "0cc21ce61104d65c1d319fdb9632af9a",
        ),
        (
            "fig8a_flow d3",
            spec(flow, "d3"),
            "1b9151436f272baad3db7c1fb4160b4d",
        ),
        (
            "fig8a_flow pdq(es)",
            spec(flow, "pdq(es)"),
            "aa497fb38397d218d3d160a764969ad4",
        ),
        (
            "fig8a_flow d3(noquench)",
            spec(flow, "d3(noquench)"),
            "5f225d65c06777cc4af5320108edb326",
        ),
        (
            "fig1_fluid tcp",
            spec(fluid, "tcp"),
            "2441e7bbd04162acedcfbb74730044a6",
        ),
        (
            "fig1_fluid pdq(full)",
            spec(fluid, "pdq(full)"),
            "a0e0c282258581948d69aa73475c3612",
        ),
        (
            "fig1_fluid d3",
            spec(fluid, "d3"),
            "2bb5ee4a2a23a578b23ad50ad962854b",
        ),
        (
            "wan_quick tcp",
            spec(wan, "tcp"),
            "7d769a5c1ea358d4ef932656c64bea12",
        ),
        (
            "wan_quick rcp",
            spec(wan, "rcp"),
            "f1dffb6e0d602b80de33a2529ae221b0",
        ),
        (
            "wan_quick d3",
            spec(wan, "d3"),
            "37b1a56c90f3e728c09b496aee9f145e",
        ),
        (
            "wan_quick pdq(full)",
            spec(wan, "pdq(full)"),
            "184cff3f8c8070c41da2a02afc8fec92",
        ),
        (
            "engine_scale",
            engine_scale_scenario(Scale::Quick),
            "5235ce075f2090823dcb276e4a3a292d",
        ),
    ];
    for (name, scenario, expected) in cases {
        for shards in [1, 2] {
            let got = digest(&fingerprint_at(&scenario, shards));
            assert_eq!(got, expected, "{name} at {shards} shard(s)");
        }
    }

    // The deadline coflow tree under the rate-paced senders: their unpaced gap
    // schedules, Early Termination and D3's quench (the paced WAN above runs the
    // token-bucket drain). A run marked `gives_up` must end a flow early, so both of
    // a sender's end paths stay exercised.
    let coflow = include_str!("../specs/coflow_quick.scn");
    let packet_cases = [
        ("rcp", false, "f0387b318415167c7606cdf97c53cdaf"),
        ("d3", true, "b3f94fd37ec7034cbdd2b6e94683f579"),
        ("d3(noquench)", false, "f75199abb41f3e969dcd4c588edfdb95"),
        ("pdq(full)", true, "bcffce8a6f0e130e2de59faf57a2a509"),
        ("pdq(es)", false, "9bf95e22d7d14d8a1f83c46c2290b023"),
    ];
    for (protocol, gives_up, expected) in packet_cases {
        for shards in [1, 2] {
            let run = spec(coflow, protocol)
                .engine_threads(shards)
                .run(registry());
            let run = run.unwrap_or_else(|e| panic!("{protocol}: {e}"));
            let context = format!("coflow_quick {protocol} at {shards} shard(s)");
            let flows = &run.packet().flows;
            let ended_early = flows.iter().any(|r| r.terminated_at.is_some());
            assert_eq!(ended_early, gives_up, "{context}: a flow ended early");
            assert_eq!(digest(&run.fingerprint()), expected, "{context}");
        }
    }
}

/// The default scenario's fingerprint, pinned byte-for-byte. This run covers the
/// paper tree, the deadline workload and the full PDQ stack; if any engine or
/// protocol change alters it, that change is a determinism break (or a deliberate
/// behavior change that must update this constant and say so in its commit).
#[test]
fn default_scenario_fingerprint_is_pinned() {
    let expected = include_str!("pinned_fingerprint.txt").trim();
    assert_eq!(fingerprint_at(&Scenario::new("pin"), 1), expected);
    // The sharded engine reproduces the pinned fingerprint, not just "some
    // self-consistent" one.
    assert_eq!(fingerprint_at(&Scenario::new("pin"), 2), expected);
}
