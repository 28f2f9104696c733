//! # pdq-baselines
//!
//! The transport protocols the PDQ paper compares against (§5.1), implemented on the
//! same [`pdq_netsim`] substrate so the comparison is apples-to-apples:
//!
//! * **TCP Reno** with a small minimum RTO (incast mitigation) — [`tcp`];
//! * **RCP** with exact per-link flow counting (the paper's optimized variant, which is
//!   also what D3 degenerates to without deadlines) — [`rcp`];
//! * **D3**, the deadline-aware "first-come first-reserve" protocol, with the
//!   non-negative fair-share fix and quenching described in the paper — [`d3`].
//!
//! Every agent here stands on PDQ's transport layer, [`pdq_netsim::transport`]: its
//! receiver, sender status and endpoint map, and for RCP and D3 ([`rate_host`]) its
//! go-back-N reliability too. TCP keeps its own Reno window and RTO backoff.
//!
//! [`install_tcp`], [`install_rcp`] and [`install_d3`] wire a whole simulator in one
//! call, mirroring [`pdq::install_pdq`](https://docs.rs/pdq). [`flow_model`] holds
//! RCP's and D3's §5.5 flow-level models.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod d3;
pub mod flow_model;
pub mod install;
pub mod rate_host;
pub mod rcp;
pub mod tcp;

pub use d3::{D3Params, D3SwitchController};
pub use flow_model::{D3FlowModel, RcpFlowModel};
pub use install::{register_baselines, D3Installer, RcpInstaller, TcpInstaller};
pub use rate_host::{RateHostAgent, RateMode, RateSender};
pub use rcp::{RcpParams, RcpSwitchController};
pub use tcp::{TcpHostAgent, TcpParams, TcpSender};

use pdq_netsim::Simulator;

/// Install plain TCP Reno on every host (switches stay dumb FIFO tail-drop).
pub fn install_tcp(sim: &mut Simulator, params: &TcpParams) {
    let p = params.clone();
    sim.install_agents(move |_, _| Box::new(TcpHostAgent::new(p.clone())));
}

/// Install RCP: rate-paced hosts plus an exact-flow-counting rate controller on every
/// switch egress link.
pub fn install_rcp(sim: &mut Simulator, params: &RcpParams) {
    sim.install_agents(|_, _| Box::new(RateHostAgent::new(RateMode::Rcp)));
    let p = params.clone();
    sim.install_switch_controllers(move |_, _| Box::new(RcpSwitchController::new(p.clone())));
}

/// Install D3: deadline-request hosts plus the first-come-first-reserve allocator on
/// every switch egress link.
pub fn install_d3(sim: &mut Simulator, params: &D3Params, quenching: bool) {
    sim.install_agents(move |_, _| Box::new(RateHostAgent::new(RateMode::D3 { quenching })));
    let p = params.clone();
    sim.install_switch_controllers(move |_, _| Box::new(D3SwitchController::new(p.clone())));
}
