//! TCP, RCP and D3 as pluggable protocols: thin [`pdq_scenario::ProtocolInstaller`]
//! wrappers that install what [`crate::install_tcp`] / [`crate::install_rcp`] /
//! [`crate::install_d3`] install (optionally paced), and [`register_baselines`] adding
//! the `tcp`, `rcp` and `d3` families to a [`pdq_scenario::ProtocolRegistry`].
//!
//! All three families take no arguments except `d3(noquench)`, which disables D3's
//! quenching of hopeless deadline flows.
//!
//! `rcp` and `d3` support all three simulation backends — on `backend = flow`
//! scenarios they run [`RcpFlowModel`] and [`D3FlowModel`] (max-min fair sharing and
//! first-come-first-reserve; `d3(noquench)` disables flow-level quenching too).
//! `tcp` has no flow-level model, but all three families carry a §2.1 fluid
//! idealization for `backend = fluid` scenarios: `tcp` and `rcp` are fair sharing
//! (Figure 1b), `d3` is the first-come-first-reserve model (Figure 1d; the fluid
//! model never quenches, so both `d3` variants idealize identically).

use std::sync::Arc;

use pdq_flowsim::{FlowLevelConfig, FluidModel};
use pdq_netsim::{PacerConfig, Simulator};
use pdq_scenario::{InstallerHandle, ProtocolInstaller, ProtocolRegistry, SimBackend};

use crate::flow_model::{D3FlowModel, RcpFlowModel};
use crate::{
    install_tcp, D3Params, D3SwitchController, RateHostAgent, RateMode, RcpParams,
    RcpSwitchController, TcpParams,
};

/// Installs TCP Reno with the paper's small minimum RTO on every host.
#[derive(Clone, Debug, Default)]
pub struct TcpInstaller {
    /// TCP parameters.
    pub params: TcpParams,
}

impl ProtocolInstaller for TcpInstaller {
    fn name(&self) -> String {
        "tcp".into()
    }

    fn label(&self) -> String {
        "TCP".into()
    }

    fn install(&self, sim: &mut Simulator) {
        install_tcp(sim, &self.params);
    }

    fn with_pacing(&self, config: PacerConfig) -> Option<InstallerHandle> {
        let mut paced = self.clone();
        paced.params.pacer = Some(config);
        Some(Arc::new(paced) as InstallerHandle)
    }

    fn fluid_model(&self) -> Option<FluidModel> {
        Some(FluidModel::FairSharing)
    }
}

/// Installs RCP with exact flow counting: rate-paced hosts plus a rate controller on
/// every switch egress link.
#[derive(Clone, Debug, Default)]
pub struct RcpInstaller {
    /// RCP parameters.
    pub params: RcpParams,
    /// Give every sender an RFC 9002-style token bucket instead of the
    /// one-packet-per-gap schedule (see [`RateHostAgent::with_pacer`]).
    pub pacer: Option<PacerConfig>,
}

impl ProtocolInstaller for RcpInstaller {
    fn name(&self) -> String {
        "rcp".into()
    }

    fn label(&self) -> String {
        "RCP".into()
    }

    fn install(&self, sim: &mut Simulator) {
        install_rate_hosts(sim, RateMode::Rcp, self.pacer);
        let p = self.params.clone();
        sim.install_switch_controllers(move |_, _| Box::new(RcpSwitchController::new(p.clone())));
    }

    fn with_pacing(&self, config: PacerConfig) -> Option<InstallerHandle> {
        let mut paced = self.clone();
        paced.pacer = Some(config);
        Some(Arc::new(paced) as InstallerHandle)
    }

    fn flow_config(&self) -> Option<FlowLevelConfig> {
        Some(FlowLevelConfig::new(RcpFlowModel))
    }

    fn fluid_model(&self) -> Option<FluidModel> {
        Some(FluidModel::FairSharing)
    }
}

/// Installs D3: deadline-request hosts plus the first-come-first-reserve allocator on
/// every switch egress link.
#[derive(Clone, Debug)]
pub struct D3Installer {
    /// D3 parameters.
    pub params: D3Params,
    /// Quench hopeless deadline flows (the paper's configuration).
    pub quenching: bool,
    /// Give every sender an RFC 9002-style token bucket instead of the
    /// one-packet-per-gap schedule (see [`RateHostAgent::with_pacer`]).
    pub pacer: Option<PacerConfig>,
}

impl Default for D3Installer {
    fn default() -> Self {
        D3Installer {
            params: D3Params::default(),
            quenching: true,
            pacer: None,
        }
    }
}

impl ProtocolInstaller for D3Installer {
    fn name(&self) -> String {
        if self.quenching {
            "d3".into()
        } else {
            "d3(noquench)".into()
        }
    }

    fn label(&self) -> String {
        if self.quenching {
            "D3".into()
        } else {
            "D3 (no quenching)".into()
        }
    }

    fn install(&self, sim: &mut Simulator) {
        let quenching = self.quenching;
        install_rate_hosts(sim, RateMode::D3 { quenching }, self.pacer);
        let p = self.params.clone();
        sim.install_switch_controllers(move |_, _| Box::new(D3SwitchController::new(p.clone())));
    }

    fn with_pacing(&self, config: PacerConfig) -> Option<InstallerHandle> {
        let mut paced = self.clone();
        paced.pacer = Some(config);
        Some(Arc::new(paced) as InstallerHandle)
    }

    fn flow_config(&self) -> Option<FlowLevelConfig> {
        Some(FlowLevelConfig::new(D3FlowModel {
            quenching: self.quenching,
        }))
    }

    fn fluid_model(&self) -> Option<FluidModel> {
        // The §2.1 D3 model has no quenching — flows past their deadline just fall
        // back to the leftover share — so both variants idealize the same way.
        Some(FluidModel::D3)
    }
}

/// A [`RateHostAgent`] speaking `mode` on every host, paced by `pacer` if given.
fn install_rate_hosts(sim: &mut Simulator, mode: RateMode, pacer: Option<PacerConfig>) {
    sim.install_agents(move |_, _| {
        let agent = RateHostAgent::new(mode);
        Box::new(match pacer {
            Some(config) => agent.with_pacer(config),
            None => agent,
        })
    });
}

/// Register the `tcp`, `rcp` and `d3` protocol families.
pub fn register_baselines(registry: &mut ProtocolRegistry) {
    registry.register_instance(Arc::new(TcpInstaller::default()));
    registry.register_instance(Arc::new(RcpInstaller::default()));
    registry.register_family_with_backends(
        "d3",
        "D3 first-come-first-reserve: d3 or d3(noquench)",
        &[SimBackend::Packet, SimBackend::Flow, SimBackend::Fluid],
        Box::new(|args| {
            let quenching = match args {
                None => true,
                Some("noquench") => false,
                Some(other) => return Err(format!("unknown d3 argument {other:?}")),
            };
            Ok(Arc::new(D3Installer {
                quenching,
                ..D3Installer::default()
            }) as InstallerHandle)
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_names_and_labels() {
        let mut reg = ProtocolRegistry::new();
        register_baselines(&mut reg);
        for (spec, label) in [
            ("tcp", "TCP"),
            ("rcp", "RCP"),
            ("d3", "D3"),
            ("d3(noquench)", "D3 (no quenching)"),
        ] {
            let installer = reg.resolve(spec).expect(spec);
            assert_eq!(installer.label(), label);
            assert_eq!(installer.name(), spec);
        }
        assert!(reg.resolve("d3(fast)").is_err());
        assert!(reg.resolve("tcp(reno)").is_err());
    }

    /// Whether `spec`'s flow-level model terminates a flow that cannot meet its
    /// deadline: 1 MB (over 8 ms at 1 Gbps) due at 2 ms. Otherwise it completes.
    fn terminates_a_hopeless_flow(reg: &ProtocolRegistry, spec: &str) -> bool {
        let topo = pdq_topology::single_bottleneck(1, Default::default());
        let flow = pdq_netsim::FlowSpec::new(1, topo.hosts[0], topo.hosts[1], 1_000_000)
            .with_deadline(pdq_netsim::SimTime::from_millis(2));
        let cfg = reg.resolve(spec).unwrap().flow_config().expect(spec);
        let record = &pdq_flowsim::run_flow_level(&topo, &[flow], &cfg, 1).flows[0];
        assert_ne!(record.terminated, record.completed_at.is_some(), "{spec}");
        record.terminated
    }

    #[test]
    fn rcp_and_d3_have_flow_models_tcp_does_not() {
        let mut reg = ProtocolRegistry::new();
        register_baselines(&mut reg);

        // D3 quenches at the flow level unless told not to; RCP never gives up.
        for (spec, quenches) in [("d3", true), ("d3(noquench)", false), ("rcp", false)] {
            assert_eq!(terminates_a_hopeless_flow(&reg, spec), quenches, "{spec}");
        }

        let tcp = reg.resolve("tcp").unwrap();
        assert!(tcp.flow_config().is_none());
        assert!(!tcp.supports(SimBackend::Flow));
        // register_instance derived the backends, so the family lists agree.
        let flow_families = reg.families_supporting(SimBackend::Flow);
        assert_eq!(flow_families, vec!["d3".to_string(), "rcp".to_string()]);
    }

    #[test]
    fn every_baseline_has_a_fluid_idealization() {
        let mut reg = ProtocolRegistry::new();
        register_baselines(&mut reg);

        // TCP and RCP are the paper's fair-sharing column; D3 (with or without
        // quenching) is the first-come-first-reserve column.
        for (spec, model) in [
            ("tcp", FluidModel::FairSharing),
            ("rcp", FluidModel::FairSharing),
            ("d3", FluidModel::D3),
            ("d3(noquench)", FluidModel::D3),
        ] {
            let installer = reg.resolve(spec).unwrap();
            assert_eq!(installer.fluid_model(), Some(model), "{spec}");
            assert!(installer.supports(SimBackend::Fluid), "{spec}");
        }
        assert_eq!(
            reg.families_supporting(SimBackend::Fluid),
            vec!["d3".to_string(), "rcp".to_string(), "tcp".to_string()]
        );
    }
}
