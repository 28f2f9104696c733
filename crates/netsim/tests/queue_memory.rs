//! Memory gate for the event queue under overload.
//!
//! PDQ's regime of interest is the overloaded one: many flows alive at once, every
//! link busy for many round trips. The event queue must then hold memory in
//! proportion to the events *pending*, not to the wheel slots it has ever filled —
//! a single-level wheel that keeps a high-water buffer per slot grows to
//! `slots × busiest bucket` once the clock has been round the ring (≈ 220 of 246 MB
//! live on the benchmark's `fattree_burst` before the two-level wheel).
//!
//! The test pins that with a live-byte-counting global allocator and no wall clock:
//! 400 window-limited flows arriving within 1 ms on a 16-host fat-tree keep every NIC
//! busy for 45 simulated milliseconds (0.2 M events — one per packet hop — and about
//! 800 pending at any time), and the run's peak live heap must stay under a bound a
//! per-slot high-water queue exceeds ten times over (0.57 MB with the two-level wheel
//! in 8-event chunks and ledger links, 0.75 MB with a buffer per wheel slot, 13.8 MB
//! with the single-level wheel).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};

use pdq_netsim::{
    Ctx, FlowId, FlowInfo, FlowSpec, HostAgent, LinkParams, Network, NodeId, Packet, PacketKind,
    SimConfig, SimTime, Simulator, TimerKind, MSS_BYTES,
};

struct LiveBytes;

// Statistics only: nothing else is published through these, so `Relaxed` is enough.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
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

/// Packets each sender keeps in flight.
const WINDOW: u64 = 2;

/// The minimal closed-loop transport: a sender keeps [`WINDOW`] full-size packets in
/// flight and sends the next one per ACK; the receiver ACKs every packet and
/// completes the flow on the last byte. No loss, so no timers.
#[derive(Default)]
struct Windowed {
    next_offset: HashMap<FlowId, u64>,
    received: HashMap<FlowId, u64>,
}

impl Windowed {
    fn send_next(&mut self, flow: &FlowSpec, ctx: &mut Ctx) {
        let offset = self.next_offset.entry(flow.id).or_insert(0);
        if *offset < flow.size_bytes {
            let payload = (flow.size_bytes - *offset).min(MSS_BYTES as u64) as u32;
            ctx.send(Packet::data(flow.id, flow.src, flow.dst, *offset, payload));
            *offset += payload as u64;
        }
    }
}

impl HostAgent for Windowed {
    fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
        for _ in 0..WINDOW {
            self.send_next(&flow.spec, ctx);
        }
    }
    fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
        let spec = ctx.flow(packet.flow).expect("known flow").spec.clone();
        match packet.kind {
            PacketKind::Data => {
                let total = self.received.entry(packet.flow).or_insert(0);
                *total += packet.payload as u64;
                let total = *total;
                ctx.send(packet.make_echo(PacketKind::Ack, total));
                if total >= spec.size_bytes {
                    ctx.flow_completed(packet.flow);
                }
            }
            PacketKind::Ack => self.send_next(&spec, ctx),
            _ => {}
        }
    }
    fn on_timer(&mut self, _: FlowId, _: TimerKind, _: u64, _: &mut Ctx) {}
}

/// A k = 4 fat-tree at the default link parameters: 4 pods of 2 edge and 2
/// aggregation switches, 2 hosts per edge switch, 4 core switches. Returns the
/// network and its 16 hosts.
fn fat_tree_16() -> (Network, Vec<NodeId>) {
    let mut net = Network::new();
    let mut hosts = Vec::new();
    let cores: Vec<NodeId> = (0..4).map(|c| net.add_switch(format!("core{c}"))).collect();
    for pod in 0..4 {
        let aggs: Vec<NodeId> = (0..2)
            .map(|a| net.add_switch(format!("agg{pod}.{a}")))
            .collect();
        for (a, &agg) in aggs.iter().enumerate() {
            for &core in &cores[2 * a..2 * a + 2] {
                net.add_duplex_link(agg, core, LinkParams::default());
            }
        }
        for e in 0..2 {
            let edge = net.add_switch(format!("edge{pod}.{e}"));
            for &agg in &aggs {
                net.add_duplex_link(edge, agg, LinkParams::default());
            }
            for h in 0..2 {
                let host = net.add_host(format!("h{pod}.{e}.{h}"));
                net.add_duplex_link(host, edge, LinkParams::default());
                hosts.push(host);
            }
        }
    }
    (net, hosts)
}

#[test]
fn overloaded_run_holds_memory_for_pending_events_not_for_wheel_slots() {
    const FLOWS: u64 = 400;
    const FLOW_BYTES: u64 = 64_000;
    let (net, hosts) = fat_tree_16();
    let mut sim = Simulator::new(net, SimConfig::default());
    sim.install_agents(|_, _| Box::<Windowed>::default());
    for i in 0..FLOWS {
        // Every host sends 25 flows and receives 25, to peers at every distance.
        let src = (i % 16) as usize;
        let dst = (src + 1 + (i / 16) as usize % 15) % 16;
        sim.add_flow(
            FlowSpec::new(i + 1, hosts[src], hosts[dst], FLOW_BYTES)
                .with_arrival(SimTime::from_nanos(i * 2_500)),
        );
    }
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let res = sim.run();
    let peak = (PEAK.load(Ordering::Relaxed) - before) as u64;
    assert_eq!(
        res.completed_count(),
        FLOWS as usize,
        "every flow completes"
    );
    let queue = res.queue;
    eprintln!(
        "peak live {peak} B over {} events, {} pending at most, {} simulated ms",
        queue.pops,
        queue.peak_pending,
        res.end_time.as_secs_f64() * 1e3
    );
    assert!(
        queue.pops > 150_000 && queue.peak_pending < 10_000,
        "not the run this gate was sized for: {queue:?}"
    );
    assert!(
        peak < 1_200_000,
        "peak live heap inside the run was {peak} bytes for {} pending events",
        queue.peak_pending
    );
}
