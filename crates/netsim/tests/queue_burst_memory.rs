//! Memory gate for the event queue's storage under a burst, driving [`EventQueue`]
//! directly.
//!
//! Under overload the packets and timers of the next few hundred microseconds pile
//! into one level-1 slot. A queue that keeps each slot's events in one growable
//! buffer doubles that buffer to 16 384 events (1 MiB) for a 10 000-event burst,
//! then spreads the events over level-0 buckets while the whole buffer is still
//! held. Chunked storage holds the burst in fixed-size chunks from one pool and
//! frees each level-1 chunk as its events are spread, so no allocation is larger
//! than a pool page and the peak follows the pending events.
//!
//! The burst: 10 000 timers at pseudo-random instants of the next level-1 slot
//! (about ten per fine bucket) and a trickle of 100 in the slots after it, then a
//! full drain. Measured with the default 448 ns buckets: largest allocation 32 768 B
//! (a pool page), peak live 1 004 032 B; with one buffer per wheel slot and a spare
//! list, 1 048 576 B (that level-1 buffer) and 1 983 744 B. The bound on the peak
//! sits between the two.
//!
//! One test in this binary: the live-byte counters are process-wide, so it cannot
//! share a binary with `queue_memory.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

use pdq_netsim::{EventKind, EventQueue, FlowId, NodeId, SimTime, TimerKind};

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

/// Fine buckets per level-1 slot.
const SLOT_BUCKETS: u64 = 1_024;
/// Timers in the burst's level-1 slot.
const BURST: u64 = 10_000;
/// Timers in the slots after it.
const TRICKLE: u64 = 100;
/// Largest single allocation allowed: one pool page is 32 KiB.
const LARGEST_BOUND: usize = 64 * 1024;
/// Peak live bytes allowed, between the chunked queue and a buffer per wheel slot.
const PEAK_BOUND: u64 = 1_500_000;

fn probe(token: u64) -> EventKind {
    EventKind::Timer {
        node: NodeId((token % 16) as u32),
        flow: FlowId(token),
        kind: TimerKind::Probe,
        token,
        gen: 0,
    }
}

#[test]
fn a_burst_in_one_level_one_slot_allocates_in_pages_and_peaks_with_its_events() {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);

    let mut queue = EventQueue::new();
    let slot_ns = queue.bucket_width().as_nanos() * SLOT_BUCKETS;
    // A fixed LCG: the same pseudo-random instants in every run.
    let mut x = 1u64;
    for token in 0..BURST {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let at = slot_ns + (x >> 33) % slot_ns;
        queue.schedule(SimTime::from_nanos(at), probe(token));
    }
    for i in 0..TRICKLE {
        let at = 2 * slot_ns + i * slot_ns / 3;
        queue.schedule(SimTime::from_nanos(at), probe(BURST + i));
    }
    let mut last = SimTime::ZERO;
    let mut popped = 0;
    while let Some(ev) = queue.pop() {
        assert!(ev.at >= last, "popped out of time order");
        last = ev.at;
        queue.set_now(ev.at);
        popped += 1;
    }
    drop(queue);

    let peak = (PEAK.load(Ordering::Relaxed) - before) as u64;
    let largest = LARGEST.load(Ordering::Relaxed);
    eprintln!("{popped} events: peak live {peak} B, largest allocation {largest} B");
    assert_eq!(popped, BURST + TRICKLE);
    assert!(
        largest <= LARGEST_BOUND,
        "a {largest}-byte allocation (bound {LARGEST_BOUND} B)"
    );
    assert!(
        peak < PEAK_BOUND,
        "peak live {peak} B for {} events (bound {PEAK_BOUND} B)",
        BURST + TRICKLE
    );
}
