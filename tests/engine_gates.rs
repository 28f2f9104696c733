//! Deterministic work gates for the packet engine: counts the run reports about
//! itself at a fixed seed — never wall-clock.

use pdq_experiments::common::registry;
use pdq_netsim::{EngineStats, NodeKind, SimConfig};
use pdq_scenario::Scenario;
use pdq_topology::Partition;

fn engine_scale_quick() -> Scenario {
    let scenario = Scenario::from_spec(include_str!("../specs/engine_scale_quick.scn"))
        .expect("committed spec parses");
    assert_eq!(scenario.seed, 1, "the gates were measured at seed 1");
    scenario
}

/// A packet hop is one event. With an explicit link server it was two — the parent of
/// the departure-ledger change popped 176 099 events for the 300 flows of the
/// committed quick engine-scale spec (seed 1), 587 per flow, 46 % of them transmit
/// completions — so a re-introduced per-hop event lands far above this ceiling.
#[test]
fn engine_scale_quick_stays_under_the_events_per_flow_ceiling() {
    const PARENT_EVENTS_PER_FLOW: f64 = 176_099.0 / 300.0;
    let run = engine_scale_quick()
        .run(registry())
        .unwrap_or_else(|e| panic!("{e}"));
    let (queue, engine) = (run.packet().queue, run.packet().engine);
    let per_flow = queue.pops as f64 / run.flows as f64;
    let ceiling = 0.6 * PARENT_EVENTS_PER_FLOW;
    assert!(
        per_flow <= ceiling,
        "{per_flow:.1} events per flow ({} pops, {} flows); the ceiling is {ceiling:.1}, \
         0.6 x the {PARENT_EVENTS_PER_FLOW:.1} of the explicit link server",
        queue.pops,
        run.flows
    );
    // The run stops at the event finishing its last flow, so every popped event was
    // dispatched and the per-class counters must account for each exactly once.
    let by_class =
        engine.arrivals + engine.packets + engine.timers_fired + engine.ticks + engine.samples;
    assert_eq!(by_class, queue.pops, "{engine:?}");
    assert!(engine.pool_high_water > 0, "{engine:?}");
    // Flows unfinished at once: at least one, never more than were injected.
    let live = engine.live_flows_high_water;
    assert!(0 < live && live <= run.flows as u64, "{engine:?}");
}

/// A restarted retransmission timeout queues no event. When every restart queued a
/// timer, the committed quick engine-scale spec (seed 1) fired 13 099 timers, half of
/// them superseded RTOs that popped into a stale-token check. The restartable deadline
/// fires only the ones that can act or re-queue the latest deadline: 6 893.
#[test]
fn restarted_timeouts_fire_no_dead_timers() {
    const TIMER_PER_ARMING: f64 = 13_099.0;
    let engine = engine_scale_quick()
        .run(registry())
        .unwrap_or_else(|e| panic!("{e}"))
        .packet()
        .engine;
    let ceiling = 0.6 * TIMER_PER_ARMING;
    assert!(
        engine.timers_fired as f64 <= ceiling,
        "{} timers fired; the ceiling is {ceiling:.0}, 0.6 x a timer per arming: {engine:?}",
        engine.timers_fired
    );
}

/// On the paced WAN (60 ms paths, an RTO of about 3 RTTs, an ACK every few
/// microseconds) a timer per RTO restart left thousands of dead timers pending: the
/// committed spec's peak pending events exceeded its packets in flight by 2 605 with
/// 32 flows live at most. Beyond its packets in flight, what was pending became a few
/// live timers per live flow — RTO, pacing, probe, deadline: 40 events. Since a link's
/// packets in flight wait on its arrival FIFO, only the earliest with a queued arrival,
/// what is pending is at most one arrival per link (28 links) plus those timers: 90
/// events (2 228 when every packet in flight was an event).
#[test]
fn paced_wan_pends_live_timers_only() {
    let scenario =
        Scenario::from_spec(include_str!("../specs/wan_quick.scn")).expect("committed spec parses");
    let links = scenario.topology.build().net.link_count() as u64;
    let run = scenario.run(registry()).unwrap_or_else(|e| panic!("{e}"));
    let (queue, engine) = (run.packet().queue, run.packet().engine);
    let bound = links + 4 * engine.live_flows_high_water;
    assert!(
        queue.peak_pending <= bound,
        "{} events pending; the bound is {bound}: an arrival per link ({links}) and \
         4 timers per live flow: {queue:?} {engine:?}",
        queue.peak_pending
    );
}

/// Injected flows wait in the flow slab, not in the event queue: the queue holds the
/// next injected arrival only. What is pending is then at most one packet arrival per
/// link (the rest of a link's packets in flight wait on its arrival FIFO), one
/// controller tick per switch egress link, a few live timers per live flow — RTO,
/// pacing, probe, deadline — the next arrival and the Stop. When every arrival was
/// queued at t = 0, the committed quick engine-scale spec (seed 1) peaked at 600
/// pending events with 262 packets in flight and 31 flows live: 338 beyond the
/// packets, against a bound of 206 beyond them. Now 221 are pending, against a bound
/// of 302 (96 links, 80 ticking).
#[test]
fn arrivals_wait_in_the_flow_slab_not_the_event_queue() {
    let scenario = engine_scale_quick();
    let net = scenario.topology.build().net;
    let ticking = net
        .links
        .iter()
        .filter(|l| net.node(l.src).kind == NodeKind::Switch)
        .count() as u64;
    let links = net.link_count() as u64;
    let run = scenario.run(registry()).unwrap_or_else(|e| panic!("{e}"));
    let (queue, engine) = (run.packet().queue, run.packet().engine);
    let bound = links + ticking + 4 * engine.live_flows_high_water + 2;
    assert!(
        queue.peak_pending <= bound,
        "{} events pending; the bound is {bound}: an arrival per link ({links}), \
         {ticking} controller ticks, 4 timers per live flow, an arrival and the Stop: \
         {queue:?} {engine:?}",
        queue.peak_pending
    );
}

/// The shard protocol's own counters. A lone core runs one unbounded window and
/// receives nothing; two shards run lock-step windows no shorter than the lookahead
/// (each opens at the earliest pending event, which is at or past the previous window's
/// end), exchange messages across the cut, and count both the same way every time.
#[test]
fn shard_counters_count_windows_and_messages() {
    let lone = engine_scale_quick()
        .run(registry())
        .unwrap_or_else(|e| panic!("{e}"))
        .packet()
        .engine;
    assert_eq!((lone.windows, lone.messages_in), (1, 0), "{lone:?}");

    let split = engine_scale_quick().engine_threads(2);
    let topo = split.topology.build();
    let lookahead = Partition::of_topology(&topo, 2)
        .to_assignment(&topo.net)
        .lookahead()
        .saturating_add(SimConfig::default().processing_delay);
    let run = |scenario: &Scenario| -> (EngineStats, u64) {
        let run = scenario.run(registry()).unwrap_or_else(|e| panic!("{e}"));
        (run.packet().engine, run.packet().end_time.as_nanos())
    };
    let (engine, end_ns) = run(&split);
    let bound = end_ns / lookahead.as_nanos() + 2;
    assert!(
        0 < engine.windows && engine.windows <= bound,
        "{} windows over {end_ns} ns at a {lookahead:?} lookahead (bound {bound})",
        engine.windows
    );
    assert!(engine.messages_in > 0, "{engine:?}");
    let (again, _) = run(&split);
    assert_eq!(
        (again.windows, again.messages_in),
        (engine.windows, engine.messages_in)
    );
}
