//! # pdq-netsim
//!
//! A deterministic, discrete-event, packet-level data-center network simulator.
//!
//! This crate is the substrate on which the reproduction of *Finishing Flows Quickly
//! with Preemptive Scheduling* (PDQ, SIGCOMM 2012) is built. The paper evaluates PDQ
//! against TCP, RCP and D3 on a custom event-driven packet-level simulator; this crate
//! provides that simulator:
//!
//! * **Topology** — hosts and switches connected by full-duplex links, each direction
//!   with its own FIFO tail-drop queue bounded in bytes ([`network::Network`]).
//! * **Link model** — serialization at the line rate, propagation delay, per-hop
//!   processing delay, byte-bounded tail-drop queues and optional random loss
//!   (defaults match the paper's setup: 1 Gbps, 4 MB buffers, 11/0.1/25 µs
//!   transmission/propagation/processing per hop).
//! * **Transport agents** — per-host protocol endpoints implementing the
//!   [`HostAgent`] trait (PDQ, TCP, RCP, D3 senders live in the `pdq` and
//!   `pdq-baselines` crates). What they share is in [`transport`]: the one
//!   [`Receiver`], [`SenderStatus`], a host's [`Endpoints`] and the [`GoBackN`]
//!   reliability of the rate-paced senders.
//! * **Switch controllers** — per-egress-link scheduling logic implementing
//!   [`LinkController`]; this is where PDQ's flow controller / rate controller and the
//!   RCP / D3 rate allocators plug in.
//! * **Metrics** — per-flow completion times, deadline hits, drop counts, link
//!   utilization and queue-occupancy time series ([`metrics::SimResults`]).
//!
//! The simulator is fully deterministic for a fixed seed, which keeps experiments
//! reproducible. A run executes on one thread by default; [`Simulator::run_sharded`]
//! partitions the network across N cores synchronized by conservative lookahead
//! (see the [`shard`] module for the determinism model).
//!
//! ## Quick example
//!
//! ```
//! use pdq_netsim::{Network, LinkParams, Simulator, SimConfig, FlowSpec};
//! use pdq_netsim::{HostAgent, FlowInfo, Ctx, Packet, PacketKind, FlowId, TimerKind};
//!
//! // A toy protocol that blasts the whole flow at once and ACKs on receipt.
//! struct Blast;
//! impl HostAgent for Blast {
//!     fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
//!         let mut off = 0;
//!         while off < flow.spec.size_bytes {
//!             let pay = (flow.spec.size_bytes - off).min(1444) as u32;
//!             ctx.send(Packet::data(flow.spec.id, flow.spec.src, flow.spec.dst, off, pay));
//!             off += pay as u64;
//!         }
//!     }
//!     fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
//!         if packet.kind == PacketKind::Data {
//!             let size = ctx.flow(packet.flow).unwrap().spec.size_bytes;
//!             if packet.seq + packet.payload as u64 >= size {
//!                 ctx.flow_completed(packet.flow);
//!             }
//!         }
//!     }
//!     fn on_timer(&mut self, _: FlowId, _: TimerKind, _: u64, _: &mut Ctx) {}
//! }
//!
//! let mut net = Network::new();
//! let a = net.add_host("a");
//! let s = net.add_switch("s");
//! let b = net.add_host("b");
//! net.add_duplex_link(a, s, LinkParams::default());
//! net.add_duplex_link(s, b, LinkParams::default());
//!
//! let mut sim = Simulator::new(net, SimConfig::default());
//! sim.install_agents(|_, _| Box::new(Blast));
//! sim.add_flow(FlowSpec::new(1, a, b, 100_000));
//! let results = sim.run();
//! assert_eq!(results.completed_count(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent;
pub mod controller;
pub mod engine;
pub mod event;
pub mod flow;
pub mod ids;
pub mod metrics;
pub mod network;
pub mod pacer;
pub mod packet;
pub mod shard;
pub mod time;
pub mod timer;
pub mod transport;

#[cfg(test)]
mod ledger_diff;

pub use agent::{Action, Ctx, FlowInfo, HostAgent};
pub use controller::{LinkController, NullController};
pub use engine::{EngineStats, Router, ShortestPathRouter, SimConfig, Simulator};
pub use event::{EventKind, EventQueue, QueueStats, TimerKind};
pub use flow::{CoflowTag, FlowOutcome, FlowPath, FlowRecord, FlowSpec, LATEST_DEADLINE};
pub use ids::{CoflowId, FlowId, FlowMap, FlowSet, LinkId, NodeId};
pub use metrics::{Fcts, Sample, SimResults, TraceConfig, Traces};
pub use network::{
    Link, LinkParams, LinkStats, Network, Node, NodeKind, DEFAULT_LINK_RATE_BPS,
    DEFAULT_PROCESSING_DELAY, DEFAULT_PROP_DELAY, DEFAULT_QUEUE_CAPACITY_BYTES,
};
pub use pacer::{Pacer, PacerConfig};
pub use packet::{
    Packet, PacketKind, SchedulingHeader, BASE_HEADER_BYTES, CONTROL_PACKET_BYTES, MSS_BYTES,
    MTU_BYTES, SCHED_HEADER_BYTES,
};
pub use shard::ShardAssignment;
pub use time::SimTime;
pub use timer::RestartTimer;
pub use transport::{
    Endpoints, FlowSender, GoBackN, PacedCore, PacedFamily, Receiver, SenderStatus,
};
