//! Differential property test: the timing-wheel [`EventQueue`] must pop the exact
//! sequence a reference binary heap over the same deterministic key would pop.
//!
//! This is the property the partitioned engine's shard-count invariance rests on:
//! the scheduler may restructure *how* events are stored (two wheel levels, lazy
//! sorts, cascades, heap spills), but the popped order — including same-instant ties broken by
//! `(created, class, content, seq)` and events ingested with explicit
//! `schedule_created` stamps — must stay bit-identical to a total-order heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use pdq_netsim::event::{Event, EventKind, EventQueue, PacketSlot, TimerKind};
use pdq_netsim::{FlowId, LinkId, NodeId, SimTime};

/// The straightforward model: a min-heap over [`Event`]'s public `Ord` (the full
/// deterministic key), with the same seq stamping and clock the real queue uses.
struct RefQueue {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    now: SimTime,
}

impl RefQueue {
    fn new() -> Self {
        RefQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let created = self.now;
        self.schedule_created(at, created, kind);
    }

    fn schedule_created(&mut self, at: SimTime, created: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event::new(at, created, seq, kind)));
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn pop_window(&mut self, until: SimTime) -> Option<Event> {
        if self.heap.peek().is_some_and(|Reverse(e)| e.at < until) {
            self.pop()
        } else {
            None
        }
    }
}

/// A content-bearing event kind derived from the op's payload, cycling through every
/// class so ties exercise class ranks, flow/link ids, packet ties and timer tokens.
fn kind_for(sel: u64, a: u64) -> EventKind {
    match sel % 6 {
        0 => EventKind::Timer {
            node: NodeId((a % 3) as u32),
            flow: FlowId(a % 7),
            kind: TimerKind::Rto,
            token: a,
            gen: 0,
        },
        1 => EventKind::Timer {
            node: NodeId((a % 3) as u32),
            flow: FlowId(a % 5),
            kind: TimerKind::Pacing,
            token: a / 2,
            gen: 1,
        },
        2 => EventKind::PacketAtNode {
            node: NodeId((a % 4) as u32),
            packet: PacketSlot(0), // pool slots never participate in ordering
            flow: FlowId(a % 7),
            tie: a.wrapping_mul(0x9E37),
        },
        3 => EventKind::TransmitDone {
            link: LinkId((a % 4) as u32),
        },
        4 => EventKind::ControllerTick {
            link: LinkId((a % 4) as u32),
        },
        _ => EventKind::TraceSample,
    }
}

/// Full observable identity of a popped event. `Event`'s `PartialEq` compares the
/// ordering key; the debug string additionally pins every payload field.
fn ident(e: &Event) -> (u64, u64, u64, String) {
    (
        e.at.as_nanos(),
        e.created.as_nanos(),
        e.seq,
        format!("{:?}", e.kind),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random interleavings of pushes (relative and absolute coarse-grained times —
    /// lots of exact ties — one in eight of them up to 64 ms further out), explicit
    /// `schedule_created` stamps, single pops and batched window drains, across
    /// log-uniform bucket widths from 1 ns to 2 ms: at the narrow end a schedule
    /// crosses many level-1 slots and its far pushes start in the heap, at the wide
    /// end one bucket holds everything. Both queues must agree op by op.
    #[test]
    fn calendar_queue_matches_reference_heap(
        ops in prop::collection::vec((0u8..10, 0u64..4_800, 0u64..12, 0u64..5), 1..300),
        width_log2 in 0u32..21,
        width_frac in 0u64..(1 << 20),
    ) {
        let width = (1u64 << width_log2) + width_frac % (1u64 << width_log2);
        let mut cal = EventQueue::with_bucket_width(SimTime::from_nanos(width));
        let mut reference = RefQueue::new();
        for &(op, a, sel, c) in &ops {
            let far = if a / 600 == 0 { (a % 9) * 8_000_000 } else { 0 };
            let a = a % 600;
            match op {
                // Pushes outnumber pops ~2:1 so the queues actually fill up.
                0..=6 => {
                    // Coarse grids force exact at-collisions; odd ops use absolute
                    // times that may land in the past (behind `now`), which the
                    // engine never does but the queue must still order correctly
                    // (cross-shard ingests clamp to `now`, the boundary case).
                    let at = if op % 2 == 0 {
                        cal.peek_time(); // exercise peek on the cold path too
                        SimTime::from_nanos(
                            reference.now.as_nanos() + (a % 40) * 2_500 + far,
                        )
                    } else {
                        SimTime::from_nanos((a % 120) * 3_000 + far)
                    };
                    let kind = kind_for(sel, a);
                    if c == 0 {
                        cal.schedule(at, kind.clone());
                        reference.schedule(at, kind);
                    } else {
                        // Explicit creation stamp, possibly before `now` — the
                        // cross-shard ingestion path.
                        let created = at.saturating_sub(SimTime::from_nanos(c * 1_000));
                        cal.schedule_created(at, created, kind.clone());
                        reference.schedule_created(at, created, kind);
                    }
                }
                7 => {
                    let got = cal.pop();
                    let want = reference.pop();
                    prop_assert_eq!(
                        got.as_ref().map(ident),
                        want.as_ref().map(ident)
                    );
                    if let Some(ev) = got {
                        cal.set_now(ev.at);
                        reference.set_now(ev.at);
                    }
                }
                _ => {
                    // Batched window drain, deliberately misaligned with the
                    // bucket width: both queues must stop at exactly the same
                    // boundary event.
                    let until = SimTime::from_nanos(
                        reference.now.as_nanos() + (a % 50) * 1_700 + 1,
                    );
                    loop {
                        let got = cal.pop_window(until);
                        let want = reference.pop_window(until);
                        prop_assert_eq!(
                            got.as_ref().map(ident),
                            want.as_ref().map(ident)
                        );
                        let Some(ev) = got else { break };
                        cal.set_now(ev.at);
                        reference.set_now(ev.at);
                    }
                }
            }
            prop_assert_eq!(cal.len(), reference.heap.len());
        }
        // Drain to empty: the tails must match event for event.
        loop {
            let got = cal.pop();
            let want = reference.pop();
            prop_assert_eq!(got.as_ref().map(ident), want.as_ref().map(ident));
            if got.is_none() {
                break;
            }
        }
        prop_assert!(cal.is_empty());
        let stats = cal.stats();
        prop_assert_eq!(stats.pushes, stats.pops);
    }
}

/// Events in one bucket around the queue's chunk edges: one less than, exactly and
/// one more than one chunk (8 events) and two chunks.
const EDGE_COUNTS: [u64; 6] = [7, 8, 9, 15, 16, 17];

/// A splitmix step: the event content and reschedule choices of one case.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The calendar queue and the reference heap side by side.
struct Both {
    cal: EventQueue,
    reference: RefQueue,
    rng: u64,
    /// Pushes left for events rescheduled while draining.
    reschedules: u32,
}

impl Both {
    fn schedule(&mut self, at: u64) {
        let (sel, a) = (splitmix(&mut self.rng), splitmix(&mut self.rng) % 4_800);
        let at = SimTime::from_nanos(at);
        self.cal.schedule(at, kind_for(sel, a));
        self.reference.schedule(at, kind_for(sel, a));
    }

    /// Pop from both and compare; one popped event in four schedules another a few
    /// buckets ahead (or in the bucket being drained), while the budget lasts.
    fn pop(&mut self, width: u64) -> Option<SimTime> {
        let got = self.cal.pop();
        let want = self.reference.pop();
        prop_assert_eq!(got.as_ref().map(ident), want.as_ref().map(ident));
        let at = got?.at;
        self.cal.set_now(at);
        self.reference.set_now(at);
        let roll = splitmix(&mut self.rng);
        if roll.is_multiple_of(4) && self.reschedules > 0 {
            self.reschedules -= 1;
            self.schedule(at.as_nanos() + (roll >> 8) % (4 * width));
        }
        prop_assert_eq!(self.cal.len(), self.reference.heap.len());
        Some(at)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Schedules built to cross the queue's storage edges: fine buckets holding just
    /// under, exactly and just over one and two chunks — filled directly in the
    /// clock's level-1 slot or by a cascade from level 1 — a level-1 slot of several
    /// thousand events (whose drain frees enough chunks for the queue to move chains
    /// and give pages back while other chains wait), and heap events that migrate
    /// into a level-1 slot whose fine buckets already hold chains cascaded from
    /// level 1. Pops, including those of events rescheduled mid-drain, must stay
    /// bit-identical to the reference heap.
    #[test]
    fn chunk_edges_match_reference_heap(
        edges in prop::collection::vec((0usize..6, 0u64..1_024, 0u64..4), 4..16),
        dense in (4_000u64..12_000, 1u64..1_024, 2u64..40),
        far in (1u64..40, 60u64..600, 0u64..1_000),
        width in 1u64..64,
        salt in 0u64..(1 << 40),
    ) {
        let (dense_n, dense_spread, dense_slot) = dense;
        let (heap_n, anchor_slot, far_bucket) = far;
        // Beyond the level-1 horizon from slot 0, inside it from the anchor's slot.
        let far_slot = anchor_slot + 1_000;
        let at = |slot: u64, bucket: u64, offset: u64| {
            ((slot << 10) | bucket) * width + offset % width
        };
        let mut q = Both {
            cal: EventQueue::with_bucket_width(SimTime::from_nanos(width)),
            reference: RefQueue::new(),
            rng: salt,
            reschedules: 2_000,
        };
        let mut late = Vec::new();
        for &(count, bucket, group) in &edges {
            let slot = match group {
                0 => 0,
                1 => 1,
                2 => dense_slot + 1,
                _ => {
                    late.push((EDGE_COUNTS[count], bucket));
                    continue;
                }
            };
            for i in 0..EDGE_COUNTS[count] {
                q.schedule(at(slot, bucket, i * 7));
            }
        }
        for i in 0..dense_n {
            q.schedule(at(dense_slot, i % dense_spread, i / dense_spread));
        }
        for i in 0..heap_n {
            q.schedule(at(far_slot, far_bucket + i % 3, i));
        }
        prop_assert_eq!(q.cal.stats().pushes, q.reference.next_seq);
        let anchor = at(anchor_slot, 0, 0);
        q.schedule(anchor);
        // Drain through the dense slot up to the anchor; the clock's level-1 slot is
        // then within reach of `far_slot`, so these go to level 1 beside the heap's.
        while q.pop(width).is_some_and(|t| t.as_nanos() < anchor) {}
        late.push((EDGE_COUNTS[2], far_bucket));
        for &(count, bucket) in &late {
            for i in 0..count {
                q.schedule(at(far_slot, bucket, i * 5));
            }
        }
        while q.pop(width).is_some() {}
        prop_assert!(q.cal.is_empty());
        prop_assert_eq!(q.cal.stats().overflow_migrations, heap_n);
    }
}
