//! Deterministic work gates for the packet engine: counts the run reports about
//! itself at a fixed seed — never wall-clock.

use pdq_experiments::common::registry;
use pdq_scenario::Scenario;

/// A packet hop is one event. With an explicit link server it was two — the parent of
/// the departure-ledger change popped 176 099 events for the 300 flows of the
/// committed quick engine-scale spec (seed 1), 587 per flow, 46 % of them transmit
/// completions — so a re-introduced per-hop event lands far above this ceiling.
#[test]
fn engine_scale_quick_stays_under_the_events_per_flow_ceiling() {
    const PARENT_EVENTS_PER_FLOW: f64 = 176_099.0 / 300.0;
    let scenario = Scenario::from_spec(include_str!("../specs/engine_scale_quick.scn"))
        .expect("committed spec parses");
    assert_eq!(scenario.seed, 1, "the ceiling was measured at seed 1");
    let run = scenario.run(registry()).unwrap_or_else(|e| panic!("{e}"));
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
    let by_class = engine.arrivals
        + engine.packets
        + engine.timers_fired
        + engine.timers_dead
        + engine.ticks
        + engine.samples;
    assert_eq!(by_class, queue.pops, "{engine:?}");
    assert!(engine.pool_high_water > 0 && engine.pool_high_water <= queue.peak_pending);
    // Flows unfinished at once: at least one, never more than were injected.
    let live = engine.live_flows_high_water;
    assert!(0 < live && live <= run.flows as u64, "{engine:?}");
}
