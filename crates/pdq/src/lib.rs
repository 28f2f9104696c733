//! # pdq
//!
//! A from-scratch implementation of **PDQ — Preemptive Distributed Quick flow
//! scheduling** (Hong, Caesar, Godfrey, SIGCOMM 2012) on top of the
//! [`pdq_netsim`] packet-level simulator.
//!
//! PDQ completes data-center flows quickly and meets flow deadlines by letting switches
//! collaboratively emulate preemptive scheduling disciplines (Earliest Deadline First
//! and Shortest Job First): the most critical flows are allowed to send at the highest
//! possible rate while contending flows are explicitly *paused* at their senders, so
//! switches only need plain FIFO tail-drop queues.
//!
//! The crate implements every mechanism described in §3 and §6 of the paper:
//!
//! * [`sender::PdqSender`] — rate-paced sending, probing while paused, Early
//!   Termination of hopeless deadline flows, and retransmission through the shared
//!   [`pdq_netsim::GoBackN`];
//! * the receiver is the one every protocol shares, [`pdq_netsim::Receiver`]: it
//!   echoes the scheduling header and caps the echoed rate at what it can absorb;
//! * [`switch::PdqSwitchController`] — the per-egress-link flow controller
//!   (Algorithms 1–3: flow list of the most critical `2κ` flows, pause/accept
//!   consensus, Early Start, Dampening, Suppressed Probing) and the aggregate rate
//!   controller;
//! * [`comparator`] — the EDF-then-SJF criticality order plus the alternative sender
//!   disciplines evaluated in the paper (random criticality, flow-size estimation,
//!   aging to prevent starvation), which [`flow_model`] runs at the §5.5 flow level;
//! * [`host::PdqHostAgent`] — the per-host agent holding its senders and receivers
//!   in a [`pdq_netsim::Endpoints`], including **Multipath PDQ** (flow striping over
//!   ECMP subflows with periodic re-balancing).
//!
//! ## Quick start
//!
//! ```
//! use pdq_netsim::{SimConfig, Simulator, FlowSpec, SimTime};
//! use pdq_topology::single_bottleneck;
//! use pdq::{install_pdq, PdqParams, Discipline};
//!
//! // Three senders share one 1 Gbps bottleneck towards a single receiver.
//! let topo = single_bottleneck(3, Default::default());
//! let hosts = topo.hosts.clone();
//! let receiver = *hosts.last().unwrap();
//! let mut sim = Simulator::new(topo.net, SimConfig::default());
//! install_pdq(&mut sim, &PdqParams::full(), &Discipline::Exact);
//! for (i, &h) in hosts[..3].iter().enumerate() {
//!     sim.add_flow(FlowSpec::new(i as u64 + 1, h, receiver, 100_000 * (i as u64 + 1)));
//! }
//! let results = sim.run();
//! assert_eq!(results.completed_count(), 3);
//! // SJF ordering: the smallest flow finishes first.
//! let fct = |id: u64| results.flow(pdq_netsim::FlowId(id)).unwrap().fct().unwrap();
//! assert!(fct(1) < fct(2) && fct(2) < fct(3));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod comparator;
pub mod flow_model;
pub mod host;
pub mod install;
pub mod params;
pub mod sender;
pub mod switch;

pub use comparator::{Criticality, Discipline};
pub use flow_model::PdqFlowModel;
pub use host::{subflow_id, PdqHostAgent};
pub use install::{register_pdq, PdqInstaller};
pub use params::{PdqParams, PdqVariant};
pub use sender::PdqSender;
pub use switch::PdqSwitchController;

use pdq_netsim::Simulator;

/// Install PDQ on an entire simulator: a [`PdqHostAgent`] on every host and a
/// [`PdqSwitchController`] on every switch egress link.
///
/// This is the one-call setup used by the examples, the experiment harness and the
/// integration tests; for finer control install agents and controllers directly.
pub fn install_pdq(sim: &mut Simulator, params: &PdqParams, discipline: &Discipline) {
    let p = params.clone();
    let d = discipline.clone();
    sim.install_agents(move |_, node| {
        Box::new(PdqHostAgent::new(p.clone(), d.clone(), node.0 as u64 + 1))
    });
    let p = params.clone();
    sim.install_switch_controllers(move |_, _| Box::new(PdqSwitchController::new(p.clone())));
}
