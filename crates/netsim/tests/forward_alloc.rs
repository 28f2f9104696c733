//! Allocation accounting for the engine hot path.
//!
//! The engine's contract (ISSUE 2 tentpole): forwarding a packet hop by hop performs
//! **zero heap allocations per hop** in steady state — a hop finds its link through
//! the route stamped into the packet (the route arena grows when a flow arrives, never
//! when a packet moves), packets live in recycled slots of the in-flight slab from send
//! to delivery (it grows a fixed page at a time, only when more packets are in flight
//! than ever before, and a packet waiting on its link's arrival FIFO is chained
//! through its slot), an accepted packet's ledger entry reuses one retired from any
//! link of the core's shared ledger slab (which grows only when more departures are
//! queued at once than ever before), and event buckets only reallocate on (amortized,
//! logarithmic) capacity growth.
//!
//! The test pins that property with a counting global allocator: running the same
//! fixed workload over a *longer* path multiplies the number of per-hop operations
//! while holding flows, packets and agent callbacks constant, so any per-hop
//! allocation would scale the count difference with `packets × extra hops`. We assert
//! the difference stays far below that product.
//!
//! The same holds for a hop that crosses a shard boundary: a crossing packet moves by
//! value into a mailbox that keeps its capacity from window to window, so a two-shard
//! run's allocation count does not grow with the number of packets that cross.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use pdq_netsim::{
    Ctx, FlowId, FlowInfo, FlowSpec, HostAgent, LinkParams, Network, Packet, PacketKind,
    ShardAssignment, ShortestPathRouter, SimConfig, Simulator, TimerKind, DEFAULT_PROP_DELAY,
    MSS_BYTES,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The counter is process-wide: tests that read it take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blast sender / ACKing receiver, the minimal transport that drives the forwarding
/// hot path without protocol overhead.
struct Blast {
    received: HashMap<FlowId, u64>,
}

impl HostAgent for Blast {
    fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
        let mut offset = 0u64;
        while offset < flow.spec.size_bytes {
            let payload = (flow.spec.size_bytes - offset).min(MSS_BYTES as u64) as u32;
            ctx.send(Packet::data(
                flow.spec.id,
                flow.spec.src,
                flow.spec.dst,
                offset,
                payload,
            ));
            offset += payload as u64;
        }
    }
    fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
        if packet.kind == PacketKind::Data {
            let size = ctx.flow(packet.flow).unwrap().spec.size_bytes;
            let total = self.received.entry(packet.flow).or_insert(0);
            *total += packet.payload as u64;
            let total = *total;
            ctx.send(packet.make_echo(PacketKind::Ack, total));
            if total >= size {
                ctx.flow_completed(packet.flow);
            }
        }
    }
    fn on_timer(&mut self, _: FlowId, _: TimerKind, _: u64, _: &mut Ctx) {}
}

/// A line topology `h0 - s0 - s1 - ... - s(n-1) - h1` with `n` switches.
fn line(switches: usize) -> Network {
    let mut net = Network::new();
    let h0 = net.add_host("h0");
    let mut prev = h0;
    for i in 0..switches {
        let s = net.add_switch(format!("s{i}"));
        net.add_duplex_link(prev, s, LinkParams::default());
        prev = s;
    }
    let h1 = net.add_host("h1");
    net.add_duplex_link(prev, h1, LinkParams::default());
    net
}

/// Allocation count of running `packets` full-MSS packets (plus ACKs) end to end over
/// a line with `switches` switches, on one shard or — `split` — on two, cut between
/// the middle switches. Only the run is measured.
fn allocs_for(switches: usize, packets: u64, split: bool) -> u64 {
    let net = line(switches);
    let hosts = net.hosts();
    let nodes = net.node_count();
    let mut sim = Simulator::new(net, SimConfig::default());
    sim.install_agents(|_, _| {
        Box::new(Blast {
            received: HashMap::new(),
        })
    });
    sim.add_flow(FlowSpec::new(
        1,
        hosts[0],
        hosts[1],
        packets * MSS_BYTES as u64,
    ));
    // Nodes are numbered along the line: h0, s0 .. s(n-1), h1.
    let halves = (0..nodes).map(|i| (2 * i >= nodes) as u32).collect();
    let assignment = if split {
        ShardAssignment::new(halves, 2, DEFAULT_PROP_DELAY)
    } else {
        ShardAssignment::single(nodes)
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let res = sim.run_sharded(&assignment, |_| Box::new(ShortestPathRouter));
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(res.completed_count(), 1, "flow must complete");
    after - before
}

/// Zero allocations per hop: stretching the path from 2 to 12 switches adds
/// `10 extra hops × 200 packets × 2 directions = 4000` hop traversals (each a
/// ledger entry on the link and a PacketAtNode event). If any of those allocated
/// even once per hop, the allocation delta would be ≥ 4000; container capacity growth
/// (event buckets, the ledger slab, the in-flight slab — all amortized) stays orders of
/// magnitude below that.
#[test]
fn forwarding_does_not_allocate_per_hop() {
    const PACKETS: u64 = 200;
    let _serial = serial();
    // Warm up the allocator's internal structures once.
    let _ = allocs_for(2, PACKETS, false);
    let short = allocs_for(2, PACKETS, false);
    let long = allocs_for(12, PACKETS, false);
    let extra = long.saturating_sub(short);
    let per_hop_ops = 10 * PACKETS * 2; // extra hops × packets × (data + ack)
    eprintln!(
        "short={short} long={long} extra={extra} budget={}",
        per_hop_ops / 4
    );
    assert!(
        extra < per_hop_ops / 4,
        "path stretched by {per_hop_ops} hop traversals cost {extra} allocations \
         (short={short}, long={long}); the hot path is allocating per hop"
    );
}

/// Zero allocations per crossing packet: on a line of four switches cut between s1
/// and s2, every data packet crosses the cut once and its ACK once back. Four times the
/// packets adds `2 × 3 × 200 = 1200` crossings; one allocation per crossing (a boxed
/// packet, a mailbox regrown every window, a sort buffer per window) would put the
/// difference at or above that, while buffer growth stays a small constant.
#[test]
fn crossing_a_shard_boundary_does_not_allocate_per_packet() {
    const PACKETS: u64 = 200;
    let _serial = serial();
    let _ = allocs_for(4, PACKETS, true);
    let few = allocs_for(4, PACKETS, true);
    let many = allocs_for(4, 4 * PACKETS, true);
    let extra = many.saturating_sub(few);
    let extra_crossings = 2 * 3 * PACKETS;
    eprintln!(
        "few={few} many={many} extra={extra} budget={}",
        extra_crossings / 4
    );
    assert!(
        extra < extra_crossings / 4,
        "{extra_crossings} more crossing packets cost {extra} allocations \
         (few={few}, many={many}); the shard exchange is allocating per packet"
    );
}
