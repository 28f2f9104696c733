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
