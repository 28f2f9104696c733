//! Memory gate for PDQ runs: peak live heap follows what is live, not the run's
//! history.
//!
//! The committed quick engine-scale spec (PDQ(Full) on a 16-host fat-tree) scaled to
//! 1 000 flows, run twice:
//!
//! * **overloaded** — every arrival squeezed into 1 ms: nearly every flow is
//!   unfinished at once, most of them paused and probing, and thousands of events are
//!   pending; the burst frees far more event-queue chunks than the queue keeps once
//!   it drains, so the rule that hands them back is in play;
//! * **steady** — arrivals spread over 66 ms (the spec's own arrival rate): a few
//!   dozen flows are live at any time while the finished ones pile up, so a host that
//!   kept its finished senders would hold memory for all of them.
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
//! packet pool growing in `PacketPool::park` (327 680 B), so the bound does not apply
//! to it. The event queue's largest allocation there was a 4 096-event level-1 slot
//! buffer (262 144 B) before chunks; now it is a 32 KiB page of the chunk pool.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

use pdq_experiments::common::registry;
use pdq_netsim::SimTime;
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
    (*flows, *arrivals) = (FLOWS, spread);
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

/// The most a flow's engine slot may take (`size_of::<FlowState>()`, pinned by
/// `pdq-netsim`'s `flow_state_stays_small`; 168 bytes now).
const SLOT_BYTES_CAP: usize = 200;

// One test in this binary: the counters are process-wide.
#[test]
fn pdq_runs_hold_memory_for_what_is_live() {
    for (case, spread_us, bound) in [
        ("overloaded", 1_000, 2_300_000),
        ("steady", 66_000, 940_000),
    ] {
        let (run, peak, largest) = peak_live(&engine_scale(SimTime::from_micros(spread_us)));
        let (queue, engine) = (run.packet().queue, run.packet().engine);
        let live = engine.live_flows_high_water;
        eprintln!(
            "{case}: peak live {peak} B, largest allocation {largest} B; {} events, \
             {} pending at most in {} queue chunks, {live} flows live at most",
            queue.pops, queue.peak_pending, queue.peak_chunks
        );
        assert_eq!(run.completed, run.flows, "{case}: every flow completes");
        let regime = match case {
            "overloaded" => live > 900 && queue.peak_pending > 3_000,
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
        // The records are built in the slot slab's own buffer: nothing the run
        // allocates is larger than the slab.
        if case == "steady" {
            let slab = FLOWS * SLOT_BYTES_CAP;
            assert!(
                largest <= slab,
                "{case}: a {largest}-byte allocation, larger than the slot slab ({slab} B)"
            );
        }
    }
}
