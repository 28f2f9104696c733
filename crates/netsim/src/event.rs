//! The discrete-event queue: a deterministic two-level timing wheel.
//!
//! Events are ordered by firing time, then by a **content-derived tie-break** that is
//! independent of insertion order: creation time first (an event scheduled earlier in
//! simulated time fires first among same-instant events, which is what a global FIFO
//! gives almost everywhere), then a deterministic rank over the event class and its
//! identifiers (flow, node, link, packet). A monotone per-queue sequence number is the
//! final fallback for fully identical keys, so same-engine runs stay FIFO-stable.
//!
//! Deriving the order from content rather than from insertion history is what makes
//! the partitioned engine (see the `shard` module) reproduce the one-core event
//! order exactly: a shard inserts a cross-boundary packet when the barrier
//! delivers it, not when its sender transmitted it, so insertion order differs between
//! shard counts — but the content key does not.
//!
//! # Structure: fine wheel, coarse wheel, far-future heap
//!
//! The queue is the hottest data structure in the simulator: every packet hop pops
//! one [`Event`], the packet's arrival at the next node (a link's FIFO server needs no
//! event of its own — see the departure ledger in the `network` module — and of the
//! packets in flight on one link only the earliest has its arrival queued; see
//! *Reserved sequence numbers*). Time is cut into fixed-width **fine buckets**; the
//! engine sets the width to the smallest serialization time in the topology (a control
//! packet on the fastest link — 448 ns at 1 Gbit/s), because that is the spacing at
//! which a busy link releases packets. Three tiers hold the pending events:
//!
//! * **Level 0 — the fine wheel.** `WHEEL_SLOTS` fine buckets covering exactly the
//!   level-1 slot the clock is in. A push adds to the bucket's unsorted chain of
//!   chunks (see *Storage*).
//! * **Level 1 — the coarse wheel.** `WHEEL_SLOTS` slots, each one level-0
//!   revolution wide (459 µs slots and a 470 ms horizon at 448 ns), holding the
//!   events of the next slots unsorted and un-bucketed, one chain per slot.
//! * **The heap.** Events beyond the level-1 horizon (the hard-stop event, backed-off
//!   RTOs, an arrival after a long lull) wait in a min-heap.
//!
//! **Cascade rule.** When level 0 runs dry the queue opens the earliest pending
//! level-1 slot: the slot's events, plus every heap event that falls inside it, are
//! spread over level 0 before any of them can pop. An event therefore moves at most
//! twice (heap → level 0, or level 1 → level 0) and a heap event migrates exactly once.
//!
//! A fine bucket is sorted **lazily**, by the full deterministic key, only when it
//! becomes the *current* bucket; popped events then stream out of a sorted run with no
//! per-event comparisons. Events scheduled into the current bucket while it drains
//! (same-instant timers, forwarding chains) are placed by binary search into the
//! not-yet-popped tail of the run. Every [`Event`] carries its hashed content subkey,
//! computed once when it is scheduled, so sorting and searching compare plain integers.
//!
//! **Storage.** Both wheel levels keep their events in fixed-size chunks of `CHUNK`
//! (8) events taken from one pool: a fine bucket or a level-1 slot is a chain of
//! chunks whose head chunk takes the pushes. Opening a bucket copies its chain into
//! the current run and frees the chunks; a cascade frees each level-1 chunk as soon
//! as its events are spread over level 0, so level 0 reuses it at once. Free chunks
//! wait on one LIFO free list. The queue therefore holds about the pending events
//! plus at most one partly filled chunk per non-empty bucket, not one buffer per
//! wheel slot sized by the fullest bucket it ever held. The pool allocates chunks
//! 64 at a time, in 32 KiB pages, so a growing bucket never reallocates or copies
//! its events.
//!
//! A burst leaves many free chunks behind once it drains. Whenever the free chunks
//! outnumber both the chunks in use and `FREE_FLOOR` (4 096 events' worth), the
//! pool moves every chained chunk that lies beyond the first pages the chunks in use
//! need onto a free chunk below them, and hands the pages above back to the
//! allocator: the queue's memory follows the events it holds, not its history.
//!
//! # Why the total order survives the restructure
//!
//! Popping always returns the globally minimal key, exactly as a heap would:
//!
//! * buckets partition time, level-1 slots are unions of buckets and the heap only
//!   holds events of slots not yet opened, so every pending event outside the current
//!   run fires no earlier than the current bucket's end;
//! * the current run is sorted by the full key `(at, created, class, content, seq)`
//!   and in-run insertions maintain that order (an event scheduled *behind* the
//!   current bucket — e.g. a packet from another shard, ingested after a window
//!   that opened a later bucket — binary-searches to the front of the remaining
//!   tail, exactly where the heap would have popped it);
//! * a level-1 slot and the heap events belonging to it reach level 0 before any
//!   bucket of that slot is sorted, so they participate in the same in-bucket order.
//!
//! Sequence numbers are assigned at push time, so the popped sequence is
//! **bit-identical** to a binary heap over the same key — every figure table, cached
//! record and shard-count-invariance fingerprint is independent of the layout.
//! `tests/event_queue_prop.rs` pins this differentially against a reference heap.
//!
//! # Reserved sequence numbers
//!
//! An event may also take its sequence number now and enter the queue later
//! ([`EventQueue::reserve_seq`], then [`EventQueue::schedule_reserved`]). Keyed by
//! that number, it pops exactly where it would have popped had it been scheduled when
//! the number was taken, as long as it enters the queue before anything that orders
//! after it pops. The engine relies on this for a link's packets in flight: they arrive
//! in the order the link accepted them, so each takes its number when the link
//! accepts it, but only the earliest waits in the queue, and the next one enters the
//! queue when the one before it is dispatched (see the `engine` module).
//!
//! # Why events are small
//!
//! [`EventKind`] never carries a large payload: a flow arrival names the flow's slot
//! in the engine's flow slab, where its spec lives, and a packet lives in the engine's
//! recycled in-flight slab from the moment it is sent until it is delivered or dropped,
//! referenced by a [`PacketSlot`] (no allocation and no copy per *hop*). This keeps
//! `size_of::<Event>()` at 64 bytes, so bucket sorts and in-run insertions move little
//! memory — and a packet in flight costs no event at all unless it is the next to
//! arrive from its link.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::ids::{FlowId, LinkId, NodeId};
use crate::time::SimTime;

/// Timer classes used by transport agents. The meaning of each class is up to the
/// protocol; the engine merely delivers them back to the owning host.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Retransmission timeout (TCP-style).
    Rto,
    /// Rate-pacing timer: time to hand the next packet to the NIC.
    Pacing,
    /// PDQ probe timer for paused flows.
    Probe,
    /// M-PDQ subflow re-balancing timer.
    Rebalance,
    /// Protocol-defined timer class.
    Custom(u8),
}

/// A handle to a packet in the engine's in-flight slab, where it stays from the moment
/// it is sent until it is delivered, dropped or handed to another shard. Slots are
/// recycled, so packet hops allocate nothing in steady state; the slot is only
/// meaningful to the engine that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketSlot(pub u32);

/// What happens at an instant of simulated time.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// A new flow arrives at its source host. The event names the flow; its spec waits
    /// in the engine's flow slab, at `slot`, from injection until the results are
    /// merged. The engine queues only the next injected arrival (created at time 0, the
    /// key it would have had queued before the run), plus one per flow an agent spawns.
    FlowArrival {
        /// The arriving flow — the same-instant ordering key.
        flow: FlowId,
        /// Where the engine keeps the flow's state. Like a [`PacketSlot`], meaningful
        /// only to the engine that issued it.
        slot: u32,
    },
    /// A packet has finished propagation + processing and is now at `node`.
    PacketAtNode {
        /// Node the packet is at.
        node: NodeId,
        /// Where the packet waits in the engine's in-flight slab.
        packet: PacketSlot,
        /// Flow the packet belongs to — the primary same-instant ordering key, so
        /// that ordering is preserved under monotone flow-id relabelings.
        flow: FlowId,
        /// Content-derived subkey (see `engine::packet_tie`) separating
        /// same-flow packets: in-flight slots are engine-local and
        /// insertion-order-dependent, so the key is computed from the packet itself.
        tie: u64,
    },
    /// The packet being serialized on `link` has been fully transmitted. The engine
    /// never schedules this: a link keeps its departures in a ledger and retires them
    /// against the key of the event being dispatched, exactly where this event would
    /// have popped. The variant remains as that virtual event's place in the order
    /// (class rank 2, owner = link id) and for queue models built outside the engine.
    TransmitDone {
        /// The transmitting link.
        link: LinkId,
    },
    /// A host timer fires.
    Timer {
        /// Host that set the timer.
        node: NodeId,
        /// Flow the timer belongs to.
        flow: FlowId,
        /// Where the engine keeps the flow's state, or `u32::MAX` if the flow was not
        /// known there when the timer was set. Like a [`PacketSlot`], meaningful only
        /// to the engine that issued it, and no part of the event's order.
        slot: u32,
        /// Timer class.
        kind: TimerKind,
        /// Opaque token chosen by the agent (used to ignore stale timers).
        token: u64,
    },
    /// A periodic link-controller tick (e.g. the PDQ / RCP rate controller update).
    ControllerTick {
        /// The link whose controller should tick.
        link: LinkId,
    },
    /// Periodic sampling of link utilization / queue sizes for traces.
    TraceSample,
    /// Hard stop of the simulation.
    Stop,
}

/// Mix two words into a well-distributed 64-bit key (splitmix-style). Used to build
/// content tie-break keys that are stable across engines but unlikely to collide.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.rotate_left(31);
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 32)
}

impl EventKind {
    /// Rank of the event class among same-instant events. Flow arrivals fire before
    /// packet deliveries, which fire before transmit completions, timers and ticks —
    /// a fixed convention both engines share.
    fn class_rank(&self) -> u8 {
        match self {
            EventKind::FlowArrival { .. } => 0,
            EventKind::PacketAtNode { .. } => 1,
            EventKind::TransmitDone { .. } => EventKey::TRANSMIT_DONE_RANK,
            EventKind::Timer { .. } => 3,
            EventKind::ControllerTick { .. } => 4,
            EventKind::TraceSample => 5,
            EventKind::Stop => 6,
        }
    }

    /// Content-derived primary key ordering events of the same class at the same
    /// instant: the owning flow's id (or link's id), so flows tie-break in id order
    /// and the order is preserved under monotone flow-id relabelings.
    fn owner(&self) -> u64 {
        match self {
            EventKind::FlowArrival { flow, .. }
            | EventKind::PacketAtNode { flow, .. }
            | EventKind::Timer { flow, .. } => flow.value(),
            EventKind::TransmitDone { link } | EventKind::ControllerTick { link } => link.0 as u64,
            EventKind::TraceSample | EventKind::Stop => 0,
        }
    }

    /// Content-derived subkey separating same-owner events, built only from
    /// id-invariant packet/timer content. Like [`EventKind::owner`] it never depends
    /// on engine-internal state such as in-flight slots or insertion counters — the
    /// property the partitioned engine's determinism rests on.
    fn subkey(&self) -> u64 {
        match self {
            EventKind::PacketAtNode { node, tie, .. } => mix(*tie, node.0 as u64),
            EventKind::Timer {
                node, kind, token, ..
            } => {
                let kind_rank = match kind {
                    TimerKind::Rto => 0u64,
                    TimerKind::Pacing => 1,
                    TimerKind::Probe => 2,
                    TimerKind::Rebalance => 3,
                    TimerKind::Custom(c) => 4 + *c as u64,
                };
                mix(*token, ((node.0 as u64) << 8) | kind_rank)
            }
            _ => 0,
        }
    }
}

/// An event scheduled for a particular time.
#[derive(Clone, Debug)]
pub struct Event {
    /// When the event fires.
    pub at: SimTime,
    /// Simulated time at which the event was scheduled (the queue's clock when
    /// `schedule` ran, or the explicit stamp passed to `schedule_created`). First
    /// tie-break among same-instant events: causes fire in scheduling order.
    pub created: SimTime,
    /// Final FIFO fallback sequence number (assigned by the queue). Only reached when
    /// `(at, created, class, content)` are all equal, i.e. for genuinely identical
    /// events within one engine.
    pub seq: u64,
    /// `kind`'s hashed content subkey, computed once so comparisons never hash.
    subkey: u64,
    /// What to do.
    pub kind: EventKind,
}

impl Event {
    /// An event with its content subkey filled in (the queue builds its events this
    /// way; a reference model in a test does too).
    pub fn new(at: SimTime, created: SimTime, seq: u64, kind: EventKind) -> Self {
        Event {
            at,
            created,
            seq,
            subkey: kind.subkey(),
            kind,
        }
    }
}

/// The content part of an event's order — everything but the queue-assigned `seq`:
/// `(at, created, class rank, owner, subkey)`, compared in that order.
///
/// The engine hands the key of the event it is dispatching to each link it touches,
/// which retires every departure whose *virtual* [`EventKind::TransmitDone`] — the
/// event a link server would have scheduled — orders before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey {
    pub(crate) at: SimTime,
    pub(crate) created: SimTime,
    pub(crate) class: u8,
    pub(crate) owner: u64,
    pub(crate) subkey: u64,
}

impl EventKey {
    /// Class rank of [`EventKind::TransmitDone`].
    pub(crate) const TRANSMIT_DONE_RANK: u8 = 2;

    /// The key below every event firing at or after `t`: what a drain of all events
    /// strictly before `t` has passed.
    pub(crate) fn start_of(t: SimTime) -> Self {
        EventKey {
            at: t,
            created: SimTime::ZERO,
            class: 0,
            owner: 0,
            subkey: 0,
        }
    }

    /// The key `link`'s transmit completion at `depart`, scheduled at `created`,
    /// would have had.
    pub(crate) fn transmit_done(depart: SimTime, created: SimTime, link: LinkId) -> Self {
        EventKey {
            at: depart,
            created,
            class: Self::TRANSMIT_DONE_RANK,
            owner: link.0 as u64,
            subkey: 0,
        }
    }
}

impl Event {
    /// This event's content key.
    pub(crate) fn key(&self) -> EventKey {
        EventKey {
            at: self.at,
            created: self.created,
            class: self.kind.class_rank(),
            owner: self.kind.owner(),
            subkey: self.subkey,
        }
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    /// The full deterministic key `(at, created, class, owner, subkey, seq)`,
    /// ascending: the minimum fires first. (Min-heap users must wrap events in
    /// [`std::cmp::Reverse`]; the queue's far-future tier does.)
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.created)
            .cmp(&(other.at, other.created))
            .then_with(|| {
                (self.kind.class_rank(), self.kind.owner())
                    .cmp(&(other.kind.class_rank(), other.kind.owner()))
            })
            .then_with(|| (self.subkey, self.seq).cmp(&(other.subkey, other.seq)))
    }
}

/// Cheap telemetry counters maintained by [`EventQueue`]; see [`EventQueue::stats`].
///
/// The counters cost one integer op per queue operation, so they are always on —
/// scheduler regressions (e.g. a workload living in the far-future heap, or buckets
/// too fine to batch anything) are visible from a run's summary without a profiler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events that entered the queue. An event scheduled under a reserved sequence
    /// number counts when it enters, so one never queued is not counted (the engine's
    /// packets still in flight behind a link's first when a run ends).
    pub pushes: u64,
    /// Events popped.
    pub pops: u64,
    /// Maximum number of simultaneously pending events (a link's packets in flight
    /// count once, for the first of them).
    pub peak_pending: u64,
    /// Events that left the far-future heap for the wheel (each does so exactly once,
    /// when its level-1 slot opens). Level-1 → level-0 cascades are not counted.
    pub overflow_migrations: u64,
    /// Fine buckets opened, i.e. sorted on becoming current (one per non-empty bucket
    /// drained).
    pub buckets_sorted: u64,
    /// The most event chunks the queue held at once, in use or free: its event
    /// storage peaked at this many times the chunk size (8 events, 512 bytes).
    pub peak_chunks: u64,
}

/// Slots per wheel level. Power of two, so a fine bucket index splits into a level-1
/// slot (`>> WHEEL_BITS`) and a position inside it (`& WHEEL_MASK`).
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
const WHEEL_BITS: u32 = 10;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

/// Events per chunk. Every bucket pays for its last, partly filled chunk, and every
/// chunk costs a link to follow, so this trades memory on sparse buckets against
/// hops on dense ones. Measured on the benchmark, 16 held more memory under load
/// and 4 cost time on the WAN workload's dense level-1 slots.
const CHUNK: usize = 8;
/// Chunks per page, the pool's unit of allocation: 32 KiB of 64-byte events.
const PAGE_CHUNKS: usize = 64;
/// Free chunks the pool may always keep (4 096 events' worth): a nearly idle queue
/// absorbs the next burst's first buckets without allocating.
const FREE_FLOOR: usize = 4096 / CHUNK;
/// The end of a chain, and the head of an empty wheel slot.
const NIL: u32 = u32::MAX;
/// Placeholder for the pool's unused event positions; never read as an event.
const VACANT: Event = Event {
    at: SimTime::ZERO,
    created: SimTime::ZERO,
    seq: 0,
    subkey: 0,
    kind: EventKind::Stop,
};

/// Fixed-size chunks of events, allocated a page at a time. A wheel slot's events
/// are a chain of chunks: the head chunk takes the pushes and every later chunk is
/// full. Chunks not in a chain sit on one LIFO free list.
#[derive(Debug)]
struct ChunkPool {
    /// `PAGE_CHUNKS × CHUNK` events each: chunk `c` is page `c / PAGE_CHUNKS`,
    /// events from `(c % PAGE_CHUNKS) × CHUNK` on.
    pages: Vec<Box<[Event]>>,
    /// Per chunk: the next chunk of its chain or of the free list.
    next: Vec<u32>,
    /// Per chunk: how many events it holds.
    len: Vec<u8>,
    /// Head of the free list.
    free: u32,
    /// Chunks on the free list.
    free_count: usize,
    /// The most chunks held at once.
    high_water: usize,
}

impl ChunkPool {
    fn new() -> Self {
        ChunkPool {
            pages: Vec::new(),
            next: Vec::new(),
            len: Vec::new(),
            free: NIL,
            free_count: 0,
            high_water: 0,
        }
    }

    /// Chunks held, in chains or free.
    fn chunks(&self) -> usize {
        self.next.len()
    }

    /// Chunks in chains.
    fn in_use(&self) -> usize {
        self.chunks() - self.free_count
    }

    /// An empty chunk linked in front of `next`, from the free list or a new page.
    fn alloc(&mut self, next: u32) -> u32 {
        if self.free == NIL {
            self.add_page();
        }
        let c = self.free;
        self.free = self.next[c as usize];
        self.free_count -= 1;
        self.next[c as usize] = next;
        self.len[c as usize] = 0;
        c
    }

    /// Allocate a page and put its chunks on the (empty) free list, lowest first.
    #[cold]
    fn add_page(&mut self) {
        let first = self.chunks();
        self.pages
            .push(vec![VACANT; PAGE_CHUNKS * CHUNK].into_boxed_slice());
        self.next
            .extend((first..first + PAGE_CHUNKS).map(|c| c as u32 + 1));
        self.next[first + PAGE_CHUNKS - 1] = NIL;
        self.len.resize(first + PAGE_CHUNKS, 0);
        self.free = first as u32;
        self.free_count = PAGE_CHUNKS;
        self.high_water = self.high_water.max(self.chunks());
    }

    /// Put chunk `c` on the free list, returning the chunk that followed it.
    fn release(&mut self, c: u32) -> u32 {
        let after = std::mem::replace(&mut self.next[c as usize], self.free);
        self.free = c;
        self.free_count += 1;
        after
    }

    /// The event positions of chunk `c`.
    fn slots_mut(&mut self, c: u32) -> &mut [Event] {
        let c = c as usize;
        let start = c % PAGE_CHUNKS * CHUNK;
        &mut self.pages[c / PAGE_CHUNKS][start..start + CHUNK]
    }

    /// The events chunk `c` holds.
    fn events(&self, c: u32) -> &[Event] {
        let c = c as usize;
        let start = c % PAGE_CHUNKS * CHUNK;
        &self.pages[c / PAGE_CHUNKS][start..start + self.len[c] as usize]
    }

    /// Add `ev` to the chain starting at `*head`, opening a chunk in front of it when
    /// the head chunk is full (or the chain empty).
    fn push(&mut self, head: &mut u32, ev: Event) {
        if *head == NIL || self.len[*head as usize] as usize == CHUNK {
            *head = self.alloc(*head);
        }
        let c = *head;
        let n = self.len[c as usize];
        self.slots_mut(c)[n as usize] = ev;
        self.len[c as usize] = n + 1;
    }

    /// The chunks of the chain starting at `head`, head first.
    fn chain(&self, head: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors((head != NIL).then_some(head), |&c| {
            let n = self.next[c as usize];
            (n != NIL).then_some(n)
        })
    }

    /// Give back every page the chunks in use do not need: move the chained chunks
    /// that lie beyond the first `in_use` chunks (rounded up to whole pages) onto
    /// free chunks below that limit, relinking `chains` (every non-empty chain head),
    /// then drop the pages above it. The chunks move within this pool, so the
    /// events are never held twice.
    fn shrink<'a>(&mut self, chains: impl Iterator<Item = &'a mut u32>) {
        let limit = self.in_use().div_ceil(PAGE_CHUNKS) * PAGE_CHUNKS;
        // Only the free chunks below the limit stay, as the moves' targets.
        let (mut c, mut kept) = (self.free, 0);
        self.free = NIL;
        while c != NIL {
            let after = self.next[c as usize];
            if (c as usize) < limit {
                self.next[c as usize] = self.free;
                self.free = c;
                kept += 1;
            }
            c = after;
        }
        self.free_count = kept;
        for head in chains {
            *head = self.move_below(*head, limit);
            let mut c = *head;
            while self.next[c as usize] != NIL {
                let moved = self.move_below(self.next[c as usize], limit);
                self.next[c as usize] = moved;
                c = moved;
            }
        }
        self.pages.truncate(limit / PAGE_CHUNKS);
        self.pages.shrink_to_fit();
        self.next.truncate(limit);
        self.next.shrink_to_fit();
        self.len.truncate(limit);
        self.len.shrink_to_fit();
    }

    /// Chunk `c`, or a free chunk below `limit` that takes over its events and link.
    fn move_below(&mut self, c: u32, limit: usize) -> u32 {
        if (c as usize) < limit {
            return c;
        }
        let d = self.free;
        self.free = self.next[d as usize];
        self.free_count -= 1;
        let (c, d) = (c as usize, d as usize);
        let n = self.len[c] as usize;
        // `d`'s page lies below the limit and `c`'s above it.
        let (low, high) = self.pages.split_at_mut(c / PAGE_CHUNKS);
        let (from, to) = (c % PAGE_CHUNKS * CHUNK, d % PAGE_CHUNKS * CHUNK);
        low[d / PAGE_CHUNKS][to..to + n].clone_from_slice(&high[0][from..from + n]);
        self.len[d] = n as u8;
        self.next[d] = self.next[c];
        d as u32
    }
}

/// One wheel level: `WHEEL_SLOTS` chains of unsorted events in the [`ChunkPool`]
/// and a bitmap of the non-empty ones.
#[derive(Debug)]
struct Wheel {
    heads: Box<[u32; WHEEL_SLOTS]>,
    occupied: [u64; WHEEL_WORDS],
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            heads: Box::new([NIL; WHEEL_SLOTS]),
            occupied: [0; WHEEL_WORDS],
        }
    }

    /// The chain head of slot `i`, marked occupied: the caller pushes onto it.
    fn slot_mut(&mut self, i: usize) -> &mut u32 {
        self.occupied[i / 64] |= 1u64 << (i % 64);
        &mut self.heads[i]
    }

    /// Empty slot `i`, returning its chain.
    fn take(&mut self, i: usize) -> u32 {
        self.occupied[i / 64] &= !(1u64 << (i % 64));
        std::mem::replace(&mut self.heads[i], NIL)
    }

    /// The first occupied slot at or after position `from`.
    fn first_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = *self.occupied.get(w)? & (!0u64 << (from % 64));
        while word == 0 {
            w += 1;
            word = *self.occupied.get(w)?;
        }
        Some(w * 64 + word.trailing_zeros() as usize)
    }

    /// Used as a ring over the absolute indices in `(cur, cur + WHEEL_SLOTS)`: the
    /// first occupied absolute index after `cur`. Position `cur & WHEEL_MASK` itself
    /// is never occupied, so a wrapped hit lies strictly before it.
    fn next_after(&self, cur: u64) -> Option<u64> {
        let pos = (cur & WHEEL_MASK) as usize;
        if let Some(i) = self.first_from(pos + 1) {
            return Some(cur + (i - pos) as u64);
        }
        self.first_from(0)
            .map(|i| cur + (WHEEL_SLOTS - pos + i) as u64)
    }

    /// The heads of the non-empty slots' chains.
    fn chains_mut(&mut self) -> impl Iterator<Item = &mut u32> {
        self.heads.iter_mut().filter(|h| **h != NIL)
    }
}

/// A min-priority queue of events ordered by
/// `(time, creation time, class rank, content key)` — an insertion-order-independent
/// total order shared by the sequential and the partitioned engine.
///
/// Implemented as a two-level timing wheel with lazily sorted fine buckets plus a
/// far-future heap (see the module docs). The popped sequence is bit-identical to a
/// binary heap over the same key.
#[derive(Debug)]
pub struct EventQueue {
    /// The current bucket's not-yet-popped events, sorted **descending** by key so
    /// the next event to fire is `current.last()` and popping is `Vec::pop`.
    current: Vec<Event>,
    /// Absolute index (`at / bucket_ns`) of the fine bucket `current` is draining.
    cursor: u64,
    /// Level 0: the fine buckets after the cursor inside the cursor's level-1 slot,
    /// at position `bucket & WHEEL_MASK`.
    fine: Wheel,
    /// Level 1: a ring over the level-1 slots in
    /// `(cursor's slot, cursor's slot + WHEEL_SLOTS)`, at position `slot & WHEEL_MASK`.
    coarse: Wheel,
    /// The chunks both wheels keep their events in.
    pool: ChunkPool,
    /// Events that lay at or beyond the level-1 horizon when they were scheduled,
    /// min-first; they stay here until their slot opens.
    overflow: BinaryHeap<Reverse<Event>>,
    /// Fine bucket width in nanoseconds (≥ 1).
    bucket_ns: u64,
    len: usize,
    next_seq: u64,
    now: SimTime,
    stats: QueueStats,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Default fine bucket width: a control packet's serialization time at the
    /// default link rate. The engine overrides it with the smallest serialization
    /// time in the actual topology.
    pub const DEFAULT_BUCKET_WIDTH: SimTime = SimTime(448);

    /// Create an empty queue with the default bucket width.
    pub fn new() -> Self {
        EventQueue::with_bucket_width(Self::DEFAULT_BUCKET_WIDTH)
    }

    /// Create an empty queue whose fine buckets are `width` wide (clamped to ≥ 1 ns).
    ///
    /// The width should be on the order of the smallest gap between the events the
    /// workload generates (for the packet engine: the shortest serialization time),
    /// so a bucket sorts a handful of events; level 1 then reaches
    /// `WHEEL_SLOTS`² widths ahead before the heap is involved.
    pub fn with_bucket_width(width: SimTime) -> Self {
        EventQueue {
            current: Vec::new(),
            cursor: 0,
            fine: Wheel::new(),
            coarse: Wheel::new(),
            pool: ChunkPool::new(),
            overflow: BinaryHeap::new(),
            bucket_ns: width.as_nanos().max(1),
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// The fine bucket width.
    pub fn bucket_width(&self) -> SimTime {
        SimTime::from_nanos(self.bucket_ns)
    }

    /// Advance the queue's notion of the current simulated time; subsequent
    /// `schedule` calls stamp their events as created now. The engine calls this as
    /// it dispatches each event.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Schedule `kind` to fire at time `at`, created at the current clock.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let created = self.now;
        self.schedule_created(at, created, kind);
    }

    /// Schedule `kind` to fire at `at` with an explicit creation stamp. The
    /// partitioned engine uses this to ingest cross-shard events with the sender's
    /// send time, so the merged order matches what a single queue would have produced.
    pub fn schedule_created(&mut self, at: SimTime, created: SimTime, kind: EventKind) {
        let seq = self.reserve_seq();
        self.schedule_reserved(at, created, seq, kind);
    }

    /// Take the sequence number the next scheduled event would get, for an event that
    /// enters the queue later through [`EventQueue::schedule_reserved`].
    pub fn reserve_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Schedule `kind` to fire at `at`, created at `created`, under a sequence number
    /// taken earlier from [`EventQueue::reserve_seq`]. It pops where it would have
    /// popped had it been scheduled when the number was taken, provided nothing that
    /// orders after it has popped in between (see the module docs). Counted as a push
    /// now, when it enters the queue.
    pub fn schedule_reserved(&mut self, at: SimTime, created: SimTime, seq: u64, kind: EventKind) {
        debug_assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved"
        );
        self.stats.pushes += 1;
        self.insert(Event::new(at, created, seq, kind));
        self.len += 1;
        self.stats.peak_pending = self.stats.peak_pending.max(self.len as u64);
    }

    /// Absolute fine bucket index of an event.
    fn bucket_of(&self, ev: &Event) -> u64 {
        ev.at.as_nanos() / self.bucket_ns
    }

    /// Place an event in the tier its firing time selects.
    fn insert(&mut self, ev: Event) {
        let b = self.bucket_of(&ev);
        if b <= self.cursor {
            // Lands in (or before) the bucket currently being drained: binary-search
            // into the sorted remaining run. `current` is descending, so the prefix
            // holds the strictly larger keys. An event behind the current bucket
            // (e.g. a packet from another shard, ingested after a window that opened
            // a later bucket) lands at the very end — popped next, exactly as a heap
            // would order it.
            let idx = self.current.partition_point(|e| *e > ev);
            self.current.insert(idx, ev);
            return;
        }
        let slot = b >> WHEEL_BITS;
        let slots_ahead = slot - (self.cursor >> WHEEL_BITS);
        if slots_ahead == 0 {
            self.push_fine(b, ev);
        } else if slots_ahead < WHEEL_SLOTS as u64 {
            let head = self.coarse.slot_mut((slot & WHEEL_MASK) as usize);
            self.pool.push(head, ev);
        } else {
            self.overflow.push(Reverse(ev));
        }
    }

    /// Add to fine bucket `b` (inside the cursor's level-1 slot).
    fn push_fine(&mut self, b: u64, ev: Event) {
        let head = self.fine.slot_mut((b & WHEEL_MASK) as usize);
        self.pool.push(head, ev);
    }

    /// Make the earliest non-empty fine bucket current and sort it by the full key,
    /// first opening the next level-1 slot if level 0 is empty. Returns false if no
    /// events are pending anywhere.
    fn advance(&mut self) -> bool {
        debug_assert!(self.current.is_empty());
        let mut from = (self.cursor & WHEEL_MASK) as usize + 1;
        let idx = loop {
            if let Some(idx) = self.fine.first_from(from) {
                break idx;
            }
            if !self.open_next_slot() {
                return false;
            }
            from = 0;
        };
        self.cursor = (self.cursor & !WHEEL_MASK) | idx as u64;
        let mut c = self.fine.take(idx);
        while c != NIL {
            self.current.extend_from_slice(self.pool.events(c));
            c = self.pool.release(c);
        }
        // Lazy in-bucket sort: descending, so pops come off the tail. Keys are
        // unique (seq fallback), so stability is irrelevant.
        self.current.sort_unstable_by(|a, b| b.cmp(a));
        self.stats.buckets_sorted += 1;
        if self.pool.free_count > self.pool.in_use().max(FREE_FLOOR) {
            // Hand the free chunks back (see the module docs' *Storage*).
            let chains = self.fine.chains_mut().chain(self.coarse.chains_mut());
            self.pool.shrink(chains);
        }
        true
    }

    /// With level 0 empty, move the cursor to the start of the earliest level-1 slot
    /// holding events — in the coarse wheel, the heap or both — and spread those
    /// events over level 0. Returns false if both are empty.
    fn open_next_slot(&mut self) -> bool {
        let heap_next = self
            .overflow
            .peek()
            .map(|Reverse(e)| self.bucket_of(e) >> WHEEL_BITS);
        let wheel_next = self.coarse.next_after(self.cursor >> WHEEL_BITS);
        let Some(slot) = heap_next.into_iter().chain(wheel_next).min() else {
            return false;
        };
        self.cursor = slot << WHEEL_BITS;
        if wheel_next == Some(slot) {
            // By the ring invariant the position holds exactly this slot's events.
            // Each chunk is copied out (through the still empty `current`) and freed
            // before its events are spread, so level 0 reuses it at once.
            let mut c = self.coarse.take((slot & WHEEL_MASK) as usize);
            while c != NIL {
                self.current.extend_from_slice(self.pool.events(c));
                c = self.pool.release(c);
                while let Some(ev) = self.current.pop() {
                    self.push_fine(self.bucket_of(&ev), ev);
                }
            }
        }
        while let Some(Reverse(e)) = self.overflow.peek() {
            let b = self.bucket_of(e);
            if b >> WHEEL_BITS != slot {
                break;
            }
            let Reverse(ev) = self.overflow.pop().expect("peeked heap event");
            self.push_fine(b, ev);
            self.stats.overflow_migrations += 1;
        }
        true
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_if(|_| true)
    }

    /// Remove and return the earliest event **if it fires strictly before `until`**;
    /// leave the queue untouched otherwise.
    ///
    /// This is the batched window drain the partitioned engine's shard loop runs on:
    /// one call per event replaces the `peek_time`-compare-then-`pop` round-trip, and
    /// consecutive calls inside one window stream straight off the current bucket's
    /// sorted run (a `Vec::pop` and one time comparison — no re-peeking, no sifting).
    pub fn pop_window(&mut self, until: SimTime) -> Option<Event> {
        self.pop_if(|ev| ev.at < until)
    }

    /// Pop the earliest event if `wanted` accepts it.
    #[inline]
    fn pop_if(&mut self, wanted: impl FnOnce(&Event) -> bool) -> Option<Event> {
        if self.current.is_empty() && !self.advance() {
            return None;
        }
        if !wanted(self.current.last()?) {
            return None;
        }
        self.len -= 1;
        self.stats.pops += 1;
        self.current.pop()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(ev) = self.current.last() {
            return Some(ev.at);
        }
        // The current run is drained: the earliest event is in the next non-empty
        // fine bucket (still unsorted) or, with level 0 empty, in the next non-empty
        // level-1 slot or on top of the heap, whichever is earlier. Later buckets and
        // slots start later than either, so this scan is exact.
        let earliest = |head: u32| {
            self.pool
                .chain(head)
                .flat_map(|c| self.pool.events(c))
                .map(|e| e.at)
                .min()
        };
        if let Some(i) = self
            .fine
            .first_from((self.cursor & WHEEL_MASK) as usize + 1)
        {
            return earliest(self.fine.heads[i]);
        }
        let wheel_min = self
            .coarse
            .next_after(self.cursor >> WHEEL_BITS)
            .and_then(|slot| earliest(self.coarse.heads[(slot & WHEEL_MASK) as usize]));
        let heap_min = self.overflow.peek().map(|Reverse(e)| e.at);
        wheel_min.into_iter().chain(heap_min).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A snapshot of the queue's telemetry counters.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            peak_chunks: self.pool.high_water as u64,
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), EventKind::Stop);
        q.schedule(SimTime::from_micros(10), EventKind::TraceSample);
        q.schedule(SimTime::from_micros(20), EventKind::Stop);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_nanos())
            .collect();
        assert_eq!(times, vec![10_000, 20_000, 30_000]);
    }

    fn timer(token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(0),
            flow: FlowId(token),
            slot: u32::MAX,
            kind: TimerKind::Rto,
            token,
        }
    }

    #[test]
    fn ties_are_insertion_order_independent() {
        // The partitioned engine's determinism rests on this: two queues fed the same
        // same-instant events in different orders pop them in the same order.
        let t = SimTime::from_micros(5);
        let mut forward = EventQueue::new();
        let mut reverse = EventQueue::new();
        for token in 1..=5 {
            forward.schedule(t, timer(token));
        }
        for token in (1..=5).rev() {
            reverse.schedule(t, timer(token));
        }
        let order = |q: &mut EventQueue| -> Vec<u64> {
            std::iter::from_fn(|| q.pop())
                .map(|e| match e.kind {
                    EventKind::Timer { token, .. } => token,
                    _ => unreachable!(),
                })
                .collect()
        };
        assert_eq!(order(&mut forward), order(&mut reverse));
    }

    #[test]
    fn creation_time_orders_same_instant_events() {
        // Among events firing at the same instant, the one scheduled earlier in
        // simulated time fires first — the causal analogue of global FIFO.
        let t = SimTime::from_micros(5);
        let mut q = EventQueue::new();
        q.set_now(SimTime::from_micros(3));
        q.schedule(t, timer(7)); // created later...
        q.schedule_created(t, SimTime::from_micros(1), timer(9)); // ...but this was created first
        let first = q.pop().unwrap();
        assert_eq!(first.created, SimTime::from_micros(1));
        match first.kind {
            EventKind::Timer { token, .. } => assert_eq!(token, 9),
            _ => unreachable!(),
        }
    }

    #[test]
    fn class_rank_orders_same_instant_events() {
        // At equal (at, created), flow arrivals outrank packet deliveries, which
        // outrank transmit completions and timers.
        let t = SimTime::from_micros(5);
        let mut q = EventQueue::new();
        q.schedule(t, timer(1));
        q.schedule(t, EventKind::TransmitDone { link: LinkId(0) });
        q.schedule(t, EventKind::Stop);
        let ranks: Vec<u8> = std::iter::from_fn(|| q.pop())
            .map(|e| e.kind.class_rank())
            .collect();
        assert_eq!(ranks, vec![2, 3, 6]);
    }

    #[test]
    fn a_links_virtual_departure_key_is_its_transmit_done_events_key() {
        // The ledger retires departures against this key; it must stay the key a
        // scheduled TransmitDone would have carried (class rank 2, owner = link id).
        let (at, created) = (SimTime::from_micros(9), SimTime::from_micros(4));
        let ev = Event::new(at, created, 0, EventKind::TransmitDone { link: LinkId(7) });
        assert_eq!(ev.key(), EventKey::transmit_done(at, created, LinkId(7)));
        assert!(EventKey::start_of(at) < ev.key());
        assert!(ev.key() < EventKey::start_of(at + SimTime::from_nanos(1)));
    }

    #[test]
    fn events_stay_small() {
        // Buckets move events by value on sort/insert; a regression that embeds a
        // Packet or FlowSpec inline would show up here.
        assert!(
            std::mem::size_of::<Event>() <= 64,
            "Event grew to {} bytes",
            std::mem::size_of::<Event>()
        );
    }

    /// A packet in flight costs its slot of the engine's in-flight slab and, unless it
    /// is the next to arrive from its link, no event: a 120-byte packet plus its place
    /// on the link's arrival FIFO (link, next slot, departure, reserved sequence
    /// number), 144 bytes where it was 120 + 64 with an event per packet.
    #[test]
    fn in_flight_slots_stay_small() {
        let size = std::mem::size_of::<crate::engine::InFlight>();
        assert!(size <= 144, "an in-flight slot grew to {size} bytes");
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_micros(7), EventKind::Stop);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
    }

    /// Pop everything, checking `peek_time` against each popped event on the way.
    fn drain_times(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| {
            let peeked = q.peek_time();
            let ev = q.pop()?;
            assert_eq!(peeked, Some(ev.at), "peek_time disagrees with pop");
            q.set_now(ev.at);
            Some(ev.at.as_nanos())
        })
        .collect()
    }

    const SLOT_NS: u64 = WHEEL_SLOTS as u64; // one level-1 slot at a 1 ns bucket width
    const HORIZON_NS: u64 = SLOT_NS * SLOT_NS;

    #[test]
    fn far_future_events_cross_the_overflow_tier() {
        // At a 1 ns width the two wheels reach 1024² ns ahead: events inside that
        // horizon never touch the heap, later ones wait there and migrate exactly
        // once. Pops must come out in exact key order either way.
        let mut q = EventQueue::with_bucket_width(SimTime::from_nanos(1));
        let times: Vec<u64> = vec![5, 2_000, 1_000_000, 3, 70_000, 2_000_000, 1, 5_000_000];
        for &t in &times {
            q.schedule(SimTime::from_nanos(t), timer(t));
        }
        let beyond = times.iter().filter(|&&t| t >= HORIZON_NS).count();
        assert_eq!(beyond, 2);
        assert_eq!(q.overflow.len(), beyond);
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(drain_times(&mut q), sorted);
        let stats = q.stats();
        assert_eq!(stats.pushes, times.len() as u64);
        assert_eq!(stats.pops, times.len() as u64);
        assert_eq!(stats.peak_pending, times.len() as u64);
        assert_eq!(stats.overflow_migrations, beyond as u64);
        assert_eq!(stats.buckets_sorted, times.len() as u64);
    }

    #[test]
    fn events_on_level_one_slot_edges_pop_in_order() {
        // The last bucket of a slot, the first bucket of the next ones, and both
        // sides of the level-1 horizon (the later one starts in the heap).
        let mut q = EventQueue::with_bucket_width(SimTime::from_nanos(1));
        let times = [
            HORIZON_NS,
            2 * SLOT_NS,
            SLOT_NS - 1,
            HORIZON_NS - 1,
            SLOT_NS,
            0,
            2 * SLOT_NS - 1,
        ];
        for &t in &times {
            q.schedule(SimTime::from_nanos(t), timer(t));
        }
        assert_eq!(q.overflow.len(), 1);
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        assert_eq!(drain_times(&mut q), sorted);
        assert_eq!(q.stats().overflow_migrations, 1);
    }

    #[test]
    fn heap_event_alone_opens_its_level_one_slot() {
        let mut q = EventQueue::with_bucket_width(SimTime::from_nanos(1));
        let (near, far, later) = (1_000_000, 2_000_000, 2_040_000);
        q.schedule(SimTime::from_nanos(far), timer(1)); // beyond the horizon: heap
        q.schedule(SimTime::from_nanos(near), timer(2));
        assert_eq!(q.pop().map(|e| e.at.as_nanos()), Some(near));
        // The horizon has moved with the cursor: `later` now fits the coarse wheel
        // while the earlier `far` still waits in the heap, in a slot the wheel has
        // nothing for.
        q.schedule(SimTime::from_nanos(later), timer(3));
        assert_eq!((q.overflow.len(), q.len()), (1, 2));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(far)));
        assert_eq!(drain_times(&mut q), vec![far, later]);
        assert_eq!(q.stats().overflow_migrations, 1);
    }

    #[test]
    fn insert_behind_the_cursor_after_an_empty_window_pops_first() {
        // A window that ends before the next event still opens that event's bucket
        // (here: in a later level-1 slot). Events ingested afterwards for earlier
        // times — a packet arriving from another shard — must still pop first.
        let us = SimTime::from_micros;
        let mut q = EventQueue::with_bucket_width(us(1));
        q.schedule(us(5_000), timer(1));
        assert!(q.pop_window(us(10)).is_none());
        assert_eq!(q.peek_time(), Some(us(5_000)));
        q.schedule(us(20), timer(2)); // behind the cursor
        q.schedule(us(7_000), timer(3)); // a later slot
        q.schedule(us(5_001), timer(4)); // the cursor's slot
        q.schedule(us(5), timer(5)); // behind the cursor and inside the window
        assert_eq!(q.pop_window(us(10)).map(|e| e.at), Some(us(5)));
        assert!(q.pop_window(us(10)).is_none());
        let expect: Vec<u64> = [20, 5_000, 5_001, 7_000]
            .iter()
            .map(|t| t * 1_000)
            .collect();
        assert_eq!(drain_times(&mut q), expect);
    }

    #[test]
    fn peek_time_sees_events_held_only_by_level_one_or_the_heap() {
        let at = SimTime::from_nanos;
        let mut q = EventQueue::with_bucket_width(at(1));
        q.schedule(at(3 * HORIZON_NS), timer(1));
        assert_eq!(q.peek_time(), Some(at(3 * HORIZON_NS)));
        // Unsorted level-1 slot: the minimum, not the first pushed.
        q.schedule(at(5 * SLOT_NS + 9), timer(2));
        q.schedule(at(5 * SLOT_NS + 2), timer(3));
        assert!(q.current.is_empty() && q.fine.first_from(0).is_none());
        assert_eq!(q.peek_time(), Some(at(5 * SLOT_NS + 2)));
    }

    /// Chunks in the wheels' chains and on the free list, recounted by walking them
    /// (the pool keeps running totals).
    fn recount_chunks(q: &EventQueue) -> (usize, usize) {
        let chained =
            |w: &Wheel| -> usize { w.heads.iter().map(|&h| q.pool.chain(h).count()).sum() };
        let free = q.pool.chain(q.pool.free).count();
        (chained(&q.fine) + chained(&q.coarse), free)
    }

    #[test]
    fn drained_chunks_are_reused() {
        // Hold model: `LIVE` non-empty buckets of `PER_BUCKET` events (a full chunk
        // and a partly filled one each) at any time, marching through 5 000 buckets
        // (several level-1 slots). The queue must keep reusing the chunks of its
        // first page, not take new ones per bucket it ever used.
        const LIVE: u64 = 4;
        const PER_BUCKET: u64 = CHUNK as u64 + 3;
        let bucket = |b: u64| SimTime::from_micros(b);
        let mut q = EventQueue::with_bucket_width(bucket(1));
        for b in 1..=LIVE {
            for i in 0..PER_BUCKET {
                q.schedule(bucket(b), timer(i));
            }
        }
        for b in 1..=5_000 {
            for i in 0..PER_BUCKET {
                let ev = q.pop().expect("hold model never drains");
                assert_eq!(ev.at, bucket(b));
                q.set_now(ev.at);
                q.schedule(bucket(b + LIVE), timer(i));
            }
            let in_use = q.pool.in_use();
            assert!(
                in_use <= 2 * LIVE as usize,
                "{in_use} chunks for {LIVE} buckets"
            );
        }
        assert_eq!(recount_chunks(&q), (q.pool.in_use(), q.pool.free_count));
        assert_eq!(q.stats().peak_chunks, PAGE_CHUNKS as u64);
    }

    #[test]
    fn free_chunks_shrink_back_to_the_pending_bound_after_a_burst() {
        // A burst fills all 1 024 fine buckets of one level-1 slot with 128 events
        // each: 16 384 chunks. A trickle of a few hundred pending events follows:
        // the pool must hand back the burst's chunks, keeping no more free ones than
        // max(chunks in use, `FREE_FLOOR`).
        const PER_BUCKET: u64 = 128;
        const TRICKLE: u64 = 300;
        let at = SimTime::from_nanos;
        let mut q = EventQueue::with_bucket_width(at(1));
        for b in 0..SLOT_NS {
            for i in 0..PER_BUCKET {
                q.schedule(at(SLOT_NS + b), timer(i));
            }
        }
        let burst_chunks = (SLOT_NS * PER_BUCKET) as usize / CHUNK;
        assert_eq!(q.pool.in_use(), burst_chunks);
        let mut last = SimTime::ZERO;
        let mut popped = 0u64;
        while let Some(ev) = q.pop() {
            assert!(ev.at >= last, "a rebuilt pool reordered the burst");
            last = ev.at;
            q.set_now(ev.at);
            popped += 1;
        }
        assert_eq!(popped, SLOT_NS * PER_BUCKET);
        assert_eq!(q.stats().buckets_sorted, SLOT_NS);
        // The trickle: one event per bucket, each popped event rescheduled
        // `TRICKLE` buckets later, so `TRICKLE` events stay pending.
        let start = q.peek_time().map_or(3 * SLOT_NS, |t| t.as_nanos());
        for i in 0..TRICKLE {
            q.schedule(at(start + i), timer(i));
        }
        for _ in 0..20 * SLOT_NS {
            let ev = q.pop().expect("the trickle never drains");
            q.set_now(ev.at);
            q.schedule(ev.at + at(TRICKLE), timer(ev.at.as_nanos()));
        }
        assert_eq!(q.len() as u64, TRICKLE);
        let (in_use, free) = (q.pool.in_use(), q.pool.free_count);
        assert_eq!(recount_chunks(&q), (in_use, free), "running totals drifted");
        assert!(
            free <= in_use.max(FREE_FLOOR),
            "{free} free chunks kept for {in_use} in use (floor {FREE_FLOOR})"
        );
        assert!(q.stats().peak_chunks as usize >= burst_chunks);
    }

    #[test]
    fn default_width_is_a_control_packet_at_the_default_rate() {
        assert_eq!(
            EventQueue::DEFAULT_BUCKET_WIDTH,
            SimTime::transmission_time(
                crate::packet::CONTROL_PACKET_BYTES as u64,
                crate::network::DEFAULT_LINK_RATE_BPS
            )
        );
    }

    #[test]
    fn same_bucket_push_during_drain_keeps_order() {
        // Schedule two same-bucket events, pop one, then push another event landing
        // between the popped one and the remaining one: it must pop next.
        let w = EventQueue::DEFAULT_BUCKET_WIDTH.as_nanos();
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(w / 8), timer(1));
        q.schedule(SimTime::from_nanos(w / 2), timer(2));
        let first = q.pop().unwrap();
        assert_eq!(first.at.as_nanos(), w / 8);
        q.set_now(first.at);
        q.schedule(SimTime::from_nanos(w / 4), timer(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_nanos())
            .collect();
        assert_eq!(order, vec![w / 4, w / 2]);
    }

    #[test]
    fn pop_window_is_exclusive_at_the_boundary() {
        // An event exactly at `until` must stay; one a nanosecond earlier must pop.
        let mut q = EventQueue::new();
        let until = SimTime::from_micros(50);
        q.schedule(until, timer(1));
        q.schedule(SimTime::from_nanos(until.as_nanos() - 1), timer(2));
        let ev = q.pop_window(until).expect("event before the boundary");
        assert_eq!(ev.at.as_nanos(), until.as_nanos() - 1);
        assert!(q.pop_window(until).is_none(), "boundary event leaked");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(until));
    }

    #[test]
    fn windowed_drains_match_global_pop_order() {
        // Splitting the same schedule into conservative-lookahead windows must
        // reproduce the un-windowed pop sequence exactly — the property the shard
        // loop's batched drain rests on.
        let schedule: Vec<(u64, u64)> = (0..200u64)
            .map(|i| ((i * 7919) % 500 * 1_000, i)) // many same-instant collisions
            .collect();
        let mut global = EventQueue::new();
        let mut windowed = EventQueue::new();
        for &(at, tok) in &schedule {
            global.schedule(SimTime::from_nanos(at), timer(tok));
            windowed.schedule(SimTime::from_nanos(at), timer(tok));
        }
        let reference: Vec<Event> = std::iter::from_fn(|| global.pop()).collect();
        let mut drained: Vec<Event> = Vec::new();
        let window = 37_000u64; // deliberately misaligned with bucket width
        let mut t = 0u64;
        while drained.len() < reference.len() {
            t += window;
            while let Some(ev) = windowed.pop_window(SimTime::from_nanos(t)) {
                drained.push(ev);
            }
        }
        assert_eq!(drained, reference);
    }
}
