//! Memory gate for PDQ runs: peak live heap follows what is live, not the run's
//! history.
//!
//! The committed quick engine-scale spec (PDQ(Full) on a 16-host fat-tree) scaled to
//! 1 000 flows, run twice:
//!
//! * **overloaded** — every arrival squeezed into 1 ms: nearly every flow is
//!   unfinished at once, most of them paused and probing, with about two thousand
//!   packets in flight; the burst frees far more event-queue chunks than the queue
//!   keeps once it drains, so the rule that hands them back is in play;
//! * **steady** — arrivals spread over 66 ms (the spec's own arrival rate): a few
//!   dozen flows are live at any time while the finished ones pile up, so a host that
//!   kept its finished senders would hold memory for all of them.
//!
//! A third case, the committed paced WAN spec, holds thousands of packets in flight on
//! long links (see the last paragraph).
//!
//! The gate bounds the peak live heap of the whole scenario run (topology, workload,
//! engine, agents, results) with a live-byte-counting global allocator and no wall
//! clock. Measured at seed 1, before and after hosts retired finished senders,
//! senders shared their parameters, the event queue bounded its spare buffers and
//! the flow slabs were sized once: overloaded 4 476 375 → 3 277 495 B (4 207 287 B
//! with everything but the spare-buffer bound), steady 2 199 495 → 1 493 607 B
//! (1 947 879 B with everything but sender retirement).
//!
//! Since the senders' retransmission timeouts are restartable deadlines that queue
//! no event per restart, the overloaded run peaks at 3 813 pending events (5 666
//! before) and 3 120 247 B (4 063 799 B without the spare-buffer bound), and the
//! steady run at 1 351 447 B (1 858 967 B without sender retirement).
//!
//! Since a flow costs one compact slot from injection to the merge — arrivals fed
//! from the flow slab instead of queued up front, the spec kept once, no path copy
//! beside the route arena — and PDQ receivers go at the TERM, the overloaded run
//! peaks at 2 852 151 B (2 983 863 B with each flow's path kept after its arrival)
//! and the steady run at 998 535 B (1 085 303 B with every receiver kept for the
//! whole run, 1 128 903 B with the paths kept). Each bound sits between the run and
//! its named mutation. The overloaded run still peaks at 3 813 pending events: its
//! peak comes after the last arrival, so arrivals queued one at a time leave it
//! where it was, and the regime check holds.
//!
//! Since the event queue keeps its events in fixed-size chunks from one pool, instead
//! of a growable buffer per wheel slot plus a bounded list of spare buffers, the
//! overloaded run peaks at 2 204 023 B (2 852 151 B before) and the steady run at
//! 890 071 B (998 535 B before). Both bounds moved down with it. Kept at 1 040 000 B,
//! the steady bound no longer caught receivers kept for the whole run (983 367 B with
//! chunks); the overloaded bound keeps the paths mutation's 131 712 B margin over the
//! run.
//!
//! The steady run also bounds the largest single allocation. Its flow records are
//! built in place in the slot slab's buffer, so nothing it allocates is larger than
//! that slab: 168 000 B, 1 000 slots of 168 B (346 128 B when the records went into a
//! hash map allocated after the run). The overloaded run's largest allocation is the
//! packet pool growing in `PacketPool::park` (327 680 B then), so the slab bound does
//! not apply to it. The event queue's largest allocation there was a 4 096-event level-1 slot
//! buffer (262 144 B) before chunks; now it is a 32 KiB page of the chunk pool.
//!
//! Since a packet costs 120 bytes instead of 160 — a 56-byte scheduling header whose
//! family fields share three words, no stored wire size or direction, a `u32` hop
//! index — the overloaded run peaks at 2 105 287 B (2 187 367 B with the packet back
//! at 160 B) and the steady run at 852 679 B (873 319 B). The overloaded run's largest
//! allocation, the pool growing to 2 048 slots, went from 327 680 B to 245 760 B, so
//! the gate now bounds it too. The overloaded bound sits between the run and the
//! 160-byte packet; the steady bound stays.
//!
//! The steady run is also run on two engine shards, which must reproduce the
//! one-shard fingerprint. The shard driver deals the flows out of the injected slot
//! slab in place (it stays shard 0's) and merges in place (replica slots folded into
//! small summaries, the home slots appended to the roomiest slab, the records built in
//! that buffer), so its largest allocation is the injected slab: 168 000 B (281 400 B,
//! all 1 675 slots of both cores, when the merge gathered every core's slots into a
//! fresh buffer). Its peak live heap hardly moved, 1 207 627 → 1 206 507 B: what the
//! in-place deal and merge save is the allocator's footprint (fewer large blocks, one
//! worker thread and arena fewer), which this live-byte count does not see.
//!
//! Since the links of a core keep their departure ledgers in one shared slab — a
//! queued packet costs one 24-byte entry, and the slab is as long as the most
//! departures queued at once on the core, instead of a `VecDeque` per link that grows
//! to that link's own peak and never shrinks — the overloaded run peaks at
//! 2 002 959 B (2 105 327 B with a buffer per link), the steady run at 774 215 B
//! (852 679 B) and the two-shard steady run at 1 128 811 B (1 206 507 B). All three
//! bounds sat between the two, so a buffer per link failed each of them.
//!
//! Since a link's packets in flight wait on its arrival FIFO, threaded through their
//! slots of a paged in-flight slab, and only the earliest of them has its arrival
//! queued — instead of one pending event per packet and a pool whose `Vec` grew by
//! doubling in `PacketPool::park` — the overloaded run peaks at 1 872 423 B with 2 085 events
//! pending (1 985 543 B and 3 813 before), the steady run at 681 247 B (770 495 B) and
//! the two-shard steady run at 1 069 347 B (1 124 323 B). The overloaded run's
//! regime check reads live flows and packets in flight (1 902), not pending events,
//! and its largest allocation is now the slot slab, as in the steady run (the pool's
//! doubled buffer was 245 760 B before). The three bounds moved down by the same
//! amounts, so that each keeps the margin the buffer-per-link mutation had over it
//! (estimated from the deltas above, not re-measured on this change).
//!
//! Since a finished flow gives back its route and its index entry once nothing of it
//! is left — the route arena and the `FlowId -> slot` index hold the flows that can
//! still have a packet on a core, not every flow the run routed — the steady run peaks
//! at 607 079 B (681 247 B before) and the two-shard steady run at about 920 600 B
//! (1 069 347 B; a few dozen bytes apart from run to run with the shard threads'
//! timing). The same figures hold in a release build, before and after. The two
//! bounds moved down to sit between the two. The overloaded run, where nearly every
//! flow is live at once, peaks at 1 877 111 B (1 872 423 B): a flow's hot state
//! grew by its 4-byte hold count.
//!
//! That is the unit of account: the steady spec at four times the flows and the same
//! arrival rate (4 000 flows over 264 ms) holds at most as many route-arena entries at
//! once as at 1 000 flows, 660, with at most 36 or 37 flows live. The gate bounds both
//! by the live flows. The arena used to hold every flow the run routed: 10 928
//! entries at 1 000 flows, 43 932 at 4 000.
//!
//! Since a flow spec is 56 bytes instead of 96 — its deadline and M-PDQ parent
//! stored with sentinels instead of `Option` tags, its coflow tag behind one pointer
//! shared by the coflow's members — and the goodput sampler keeps its last reading
//! per flow in a store of its own (only when flows are traced), a flow's slot is
//! 120 bytes instead of 168, and each flow costs 88 bytes less: 40 in the workload's
//! spec list, 48 in its slot. At seed 1 the overloaded run peaks at 1 775 287 B
//! (1 863 287 B before), the steady run at 518 055 B (606 055 B) and the two-shard
//! steady run at 784 515 B (919 547 B; its peers now reserve a slot for every flow
//! up front instead of doubling a slab sized for their home flows, 168 000 B then).
//! The three bounds sit between the two, so the 96-byte spec and 168-byte slot fail
//! each of them. The largest allocation of the steady runs is the slot slab,
//! 120 000 B (168 000 B).
//!
//! That makes the per-flow cost a pinned unit of account too: the steady spec at
//! four times the flows grows the peak by at most a spec, a slot and a hot entry a
//! flow (56 + 120 + 12 B) plus 24 B of slack for the summary's per-flow vectors,
//! which grow by doubling. Measured: 205.3 B a flow (1 133 895 B at 4 000 flows
//! against 518 055 B at 1 000), 293.3 B before (1 485 895 B against 606 055 B).
//!
//! The committed paced WAN spec (`specs/wan_quick.scn`: 60 ms paths, up to 2 188
//! packets in flight) is the high-BDP case: its run peaks at 484 374 B with 90 events
//! pending, against 825 974 B with an event per packet in flight and the doubling pool
//! (2 228 pending; a 491 520-byte pool buffer). Its bound sits between the two, and no
//! allocation of the run may exceed a page of the in-flight slab (36 864 B).

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

use pdq_experiments::common::registry;
use pdq_netsim::{FlowSpec, SimTime};
use pdq_scenario::{RunSummary, Scenario, WorkloadSpec};

struct LiveBytes;

// Statistics only: nothing else is published through these, so `Relaxed` is enough.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
/// The largest single allocation (or reallocation's new size) since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
    LARGEST.fetch_max(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the returned memory.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        grew(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller guarantees
        // `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const FLOWS: usize = 1_000;

/// The committed quick engine-scale spec with [`FLOWS`] flows arriving over `spread`.
fn engine_scale(spread: SimTime) -> Scenario {
    engine_scale_flows(FLOWS, spread)
}

/// The committed quick engine-scale spec with `n` flows arriving over `spread`.
fn engine_scale_flows(n: usize, spread: SimTime) -> Scenario {
    let mut scenario = Scenario::from_spec(include_str!("../specs/engine_scale_quick.scn"))
        .expect("committed spec parses");
    assert_eq!(scenario.seed, 1, "the gate was measured at seed 1");
    let WorkloadSpec::RandomPairs {
        flows,
        spread: arrivals,
        ..
    } = &mut scenario.workload
    else {
        panic!("the quick engine-scale spec is a random-pairs workload");
    };
    (*flows, *arrivals) = (n, spread);
    scenario
}

/// Run `scenario`, returning its summary, the peak live heap the run added and the
/// largest single allocation it made.
fn peak_live(scenario: &Scenario) -> (RunSummary, u64, usize) {
    let registry = registry(); // initialised outside the measurement
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    let run = scenario.run(registry).unwrap_or_else(|e| panic!("{e}"));
    let peak = (PEAK.load(Ordering::Relaxed) - before) as u64;
    (run, peak, LARGEST.load(Ordering::Relaxed))
}

/// The most a flow's engine slot may take: `size_of::<FlowState>()`, pinned by
/// `pdq-netsim`'s `flow_state_stays_small` (120 bytes now). What the injected slot
/// slab costs per flow.
const SLOT_BYTES: usize = 120;

/// `size_of::<FlowHot>()`, pinned by `pdq-netsim`'s `hot_flow_state_stays_small`.
const HOT_BYTES: usize = 12;

/// What the peak may grow by per added flow beyond its spec, slot and hot entry:
/// the summary's per-flow vectors, which grow by doubling (17.3 B a flow measured).
const PER_FLOW_SLACK: usize = 24;

/// Route-arena entries a live flow may account for: two per link of the longest
/// path of the spec's k = 4 fat-tree (6 links), for up to twice the flows live at
/// once — a finished flow keeps its route until its last packet and timer are gone.
const ROUTE_ENTRIES_PER_LIVE_FLOW: u64 = 2 * 6 * 2;

/// A page of the in-flight slab: 256 slots of at most 144 bytes (pinned by
/// `pdq-netsim`'s `in_flight_slots_stay_small`).
const IN_FLIGHT_PAGE_BYTES: usize = 256 * 144;

/// The committed paced WAN spec: PDQ(Full), 48 flows over 60 ms inter-datacenter paths.
fn wan_quick() -> Scenario {
    let scenario =
        Scenario::from_spec(include_str!("../specs/wan_quick.scn")).expect("committed spec parses");
    assert_eq!(scenario.seed, 1, "the gate was measured at seed 1");
    scenario
}

// One test in this binary: the counters are process-wide.
#[test]
fn pdq_runs_hold_memory_for_what_is_live() {
    let mut steady_fingerprint = String::new();
    let mut steady_routes = (0, 0);
    let mut steady_peak = 0;
    for (case, spread_us, bound) in [
        ("overloaded", 1_000, 1_820_000),
        ("steady", 66_000, 560_000),
    ] {
        let (run, peak, largest) = peak_live(&engine_scale(SimTime::from_micros(spread_us)));
        if case == "steady" {
            steady_fingerprint = run.fingerprint();
            steady_peak = peak;
            let engine = run.packet().engine;
            steady_routes = (engine.route_high_water, engine.live_flows_high_water);
        }
        let (queue, engine) = (run.packet().queue, run.packet().engine);
        let live = engine.live_flows_high_water;
        eprintln!(
            "{case}: peak live {peak} B, largest allocation {largest} B; {} events, \
             {} pending at most in {} queue chunks, {} packets in flight at most, \
             {live} flows live at most",
            queue.pops, queue.peak_pending, queue.peak_chunks, engine.pool_high_water
        );
        assert_eq!(run.completed, run.flows, "{case}: every flow completes");
        let regime = match case {
            "overloaded" => live > 900 && engine.pool_high_water > 1_500,
            _ => live < 50,
        };
        assert!(
            regime,
            "{case}: not the run this gate was sized for: {queue:?} {engine:?}"
        );
        assert!(
            peak < bound,
            "{case}: peak live heap of the run was {peak} bytes (bound {bound})"
        );
        // The records are built in the slot slab's own buffer, and the in-flight slab
        // grows a page at a time: nothing the run allocates is larger than the slot
        // slab.
        let cap = FLOWS * SLOT_BYTES;
        assert!(
            largest <= cap,
            "{case}: a {largest}-byte allocation, larger than the slot slab ({cap} B)"
        );
    }

    // The steady run on two shards: the deal and the merge work in place, so no stage
    // of it allocates more at once than the injected slot slab.
    let (run, peak, largest) =
        peak_live(&engine_scale(SimTime::from_micros(66_000)).engine_threads(2));
    eprintln!("steady, two shards: peak live {peak} B, largest allocation {largest} B");
    assert_eq!(
        run.fingerprint(),
        steady_fingerprint,
        "two shards must reproduce the one-shard run"
    );
    let bound = 850_000;
    assert!(
        peak < bound,
        "steady, two shards: peak live heap of the run was {peak} bytes (bound {bound})"
    );
    let cap = FLOWS * SLOT_BYTES;
    assert!(
        largest <= cap,
        "steady, two shards: a {largest}-byte allocation, larger than the injected \
         slot slab ({cap} B)"
    );

    // The unit of account: four times the flows at the same arrival rate.
    let flows4 = engine_scale_flows(4 * FLOWS, SimTime::from_micros(4 * 66_000));
    let (run, peak4, _) = peak_live(&flows4);
    let engine = run.packet().engine;
    assert_eq!(run.completed, run.flows, "steady x4: every flow completes");
    let per_flow = (peak4 - steady_peak) as f64 / (3 * FLOWS) as f64;
    let unit = size_of::<FlowSpec>() + SLOT_BYTES + HOT_BYTES + PER_FLOW_SLACK;
    eprintln!("steady x4: peak live {peak4} B, {per_flow:.1} B more per added flow");
    assert!(
        per_flow <= unit as f64,
        "steady x4: the peak grew by {per_flow:.1} B per added flow, more than a spec, \
         a slot and a hot entry plus {PER_FLOW_SLACK} B ({unit} B)"
    );
    let fourfold = (engine.route_high_water, engine.live_flows_high_water);
    for (flows, (routes, live)) in [(FLOWS, steady_routes), (4 * FLOWS, fourfold)] {
        eprintln!("steady, {flows} flows: route arena at most {routes} entries, {live} flows live");
        let bound = ROUTE_ENTRIES_PER_LIVE_FLOW * live;
        assert!(
            routes <= bound,
            "steady, {flows} flows: the route arena held {routes} entries at once, more \
             than {ROUTE_ENTRIES_PER_LIVE_FLOW} per live flow ({bound})"
        );
    }

    // The high-BDP case: thousands of packets in flight on 60 ms paths. Each costs a
    // slot of the in-flight slab and, unless it is the next to arrive from its link,
    // no event.
    let (run, peak, largest) = peak_live(&wan_quick());
    let (queue, engine) = (run.packet().queue, run.packet().engine);
    eprintln!(
        "wan: peak live {peak} B, largest allocation {largest} B; {} pending at most in \
         {} queue chunks, {} packets in flight at most",
        queue.peak_pending, queue.peak_chunks, engine.pool_high_water
    );
    assert_eq!(run.completed, run.flows, "wan: every flow completes");
    assert!(
        engine.pool_high_water > 2_000,
        "wan: not the run this gate was sized for: {queue:?} {engine:?}"
    );
    let bound = 560_000;
    assert!(
        peak < bound,
        "wan: peak live heap of the run was {peak} bytes (bound {bound})"
    );
    assert!(
        largest <= IN_FLIGHT_PAGE_BYTES,
        "wan: a {largest}-byte allocation, larger than a page of the in-flight slab \
         ({IN_FLIGHT_PAGE_BYTES} B)"
    );
}
