//! PDQ as a pluggable protocol: [`PdqInstaller`] implements
//! [`pdq_scenario::ProtocolInstaller`], and [`register_pdq`] adds the `pdq` and
//! `mpdq` families to a [`pdq_scenario::ProtocolRegistry`].
//!
//! Spec grammar:
//!
//! * `pdq(<variant>)` — variant ∈ `full`, `es+et`, `es`, `basic`; Exact discipline.
//! * `pdq(<variant>;<discipline>)` — discipline ∈ `exact`, `random`,
//!   `estimate=<bytes>`, `aging=<alpha>`. Naming a discipline (even `exact`)
//!   switches the table label to the paper's Figure 10/12 information-model form,
//!   e.g. `PDQ(Full); Perfect Flow Information`.
//! * `mpdq(<k>)` — Multipath PDQ with `k` subflows.
//!
//! The `pdq` family supports all three simulation backends: on `backend = flow`
//! scenarios it runs [`PdqFlowModel`] (criticality waterfilling, Early Termination
//! iff the variant has ET, aging iff the discipline is `aging=<alpha>`), and on
//! `backend = fluid` scenarios perfect-information single-path PDQ idealizes to the
//! §2.1 serial SJF/EDF schedule. `mpdq` and the imperfect-information disciplines
//! are packet-level only on the fluid backend (and, aging aside, on the flow backend
//! too).

use std::sync::Arc;

use pdq_flowsim::{FlowLevelConfig, FluidModel};
use pdq_scenario::{InstallerHandle, ProtocolInstaller, ProtocolRegistry, SimBackend};

use crate::comparator::Discipline;
use crate::flow_model::PdqFlowModel;
use crate::install_pdq;
use crate::params::{PdqParams, PdqVariant};

/// Installs PDQ — a feature variant, an optional non-default sender discipline, or
/// Multipath PDQ — on every host and switch of a simulator.
#[derive(Clone, Debug)]
pub struct PdqInstaller {
    params: PdqParams,
    discipline: Discipline,
    name: String,
    label: String,
}

impl PdqInstaller {
    /// One of the paper's four feature variants with the Exact (perfect-information)
    /// discipline — `pdq(full)`, labelled `PDQ(Full)`.
    pub fn variant(v: PdqVariant) -> Self {
        PdqInstaller {
            params: PdqParams::variant(v),
            discipline: Discipline::Exact,
            name: format!("pdq({})", variant_token(v)),
            label: v.label().to_string(),
        }
    }

    /// A variant with an explicit sender discipline (the Figure 10/12 information
    /// models) — `pdq(full;random)`, labelled `PDQ(Full); Random Criticality`.
    pub fn with_discipline(v: PdqVariant, discipline: Discipline) -> Self {
        let label = match &discipline {
            Discipline::Exact => format!("{}; Perfect Flow Information", v.label()),
            Discipline::RandomCriticality => format!("{}; Random Criticality", v.label()),
            Discipline::EstimatedSize { .. } => format!("{}; Flow Size Estimation", v.label()),
            Discipline::Aging { alpha } => format!("{}; Aging(alpha={alpha})", v.label()),
        };
        PdqInstaller {
            params: PdqParams::variant(v),
            discipline: discipline.clone(),
            name: format!(
                "pdq({};{})",
                variant_token(v),
                discipline_token(&discipline)
            ),
            label,
        }
    }

    /// Coflow-aware PDQ — `cpdq`, labelled `C-PDQ(Full)`: the complete protocol
    /// with senders advertising their coflow's bottleneck criticality, so switches
    /// preempt whole coflows smallest-bottleneck-first / earliest-group-deadline-
    /// first. Untagged flows degrade gracefully to plain PDQ(Full).
    pub fn coflow() -> Self {
        PdqInstaller {
            params: PdqParams::coflow(),
            discipline: Discipline::Exact,
            name: "cpdq".into(),
            label: "C-PDQ(Full)".into(),
        }
    }

    /// Multipath PDQ with `k` subflows — `mpdq(3)`, labelled `M-PDQ(3 subflows)`.
    pub fn multipath(k: usize) -> Self {
        let mut params = PdqParams::full();
        params.subflows = k;
        PdqInstaller {
            params,
            discipline: Discipline::Exact,
            name: format!("mpdq({k})"),
            label: format!("M-PDQ({k} subflows)"),
        }
    }

    /// Fully custom parameters under a caller-chosen name and label (for parameter
    /// studies that still want to go through the registry).
    pub fn custom(
        name: impl Into<String>,
        label: impl Into<String>,
        params: PdqParams,
        discipline: Discipline,
    ) -> Self {
        PdqInstaller {
            params,
            discipline,
            name: name.into(),
            label: label.into(),
        }
    }
}

impl ProtocolInstaller for PdqInstaller {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn install(&self, sim: &mut pdq_netsim::Simulator) {
        install_pdq(sim, &self.params, &self.discipline);
    }

    fn with_pacing(&self, config: pdq_netsim::PacerConfig) -> Option<InstallerHandle> {
        let mut paced = self.clone();
        paced.params.pacer = Some(config);
        Some(Arc::new(paced) as InstallerHandle)
    }

    fn flow_config(&self) -> Option<FlowLevelConfig> {
        // Single-path PDQ with perfect flow information, optionally aged: M-PDQ
        // striping, the imperfect-information disciplines and coflow-aware
        // criticality exist only in the packet-level engine.
        if self.params.subflows > 1 || self.params.coflow_aware {
            return None;
        }
        let aging = match self.discipline {
            Discipline::Exact => None,
            Discipline::Aging { alpha } => Some(alpha),
            Discipline::RandomCriticality | Discipline::EstimatedSize { .. } => return None,
        };
        Some(FlowLevelConfig::new(PdqFlowModel {
            aging,
            early_termination: self.params.early_termination,
        }))
    }

    fn fluid_model(&self) -> Option<FluidModel> {
        // Under the §2.1 fluid model every PDQ feature variant collapses to the
        // same ideal: serve one flow at a time in EDF order (SJF when deadline
        // free) — Early Start / Early Termination are mechanisms for approaching
        // that ideal, not departures from it. M-PDQ striping and the imperfect
        // information disciplines have no fluid counterpart.
        if self.params.subflows > 1
            || self.params.coflow_aware
            || self.discipline != Discipline::Exact
        {
            return None;
        }
        Some(FluidModel::SjfEdf)
    }
}

fn variant_token(v: PdqVariant) -> &'static str {
    match v {
        PdqVariant::Basic => "basic",
        PdqVariant::EarlyStart => "es",
        PdqVariant::EarlyStartEarlyTermination => "es+et",
        PdqVariant::Full => "full",
    }
}

fn parse_variant(s: &str) -> Result<PdqVariant, String> {
    match s {
        "basic" => Ok(PdqVariant::Basic),
        "es" => Ok(PdqVariant::EarlyStart),
        "es+et" => Ok(PdqVariant::EarlyStartEarlyTermination),
        "full" => Ok(PdqVariant::Full),
        _ => Err(format!(
            "unknown PDQ variant {s:?} (want full, es+et, es or basic)"
        )),
    }
}

fn discipline_token(d: &Discipline) -> String {
    match d {
        Discipline::Exact => "exact".into(),
        Discipline::RandomCriticality => "random".into(),
        Discipline::EstimatedSize { update_bytes } => format!("estimate={update_bytes}"),
        Discipline::Aging { alpha } => format!("aging={alpha}"),
    }
}

fn parse_discipline(s: &str) -> Result<Discipline, String> {
    match s {
        "exact" => return Ok(Discipline::Exact),
        "random" => return Ok(Discipline::RandomCriticality),
        _ => {}
    }
    if let Some(v) = s.strip_prefix("estimate=") {
        return match v.parse() {
            Ok(update_bytes) if update_bytes >= 1 => Ok(Discipline::EstimatedSize { update_bytes }),
            _ => Err(format!(
                "bad estimate granularity {v:?} (want a byte count of at least 1)"
            )),
        };
    }
    if let Some(v) = s.strip_prefix("aging=") {
        // A NaN or infinite alpha makes every advertised T NaN (∞ × 0 at zero
        // wait); a negative one ages flows the wrong way.
        return match v.parse::<f64>() {
            Ok(alpha) if alpha.is_finite() && alpha >= 0.0 => Ok(Discipline::Aging { alpha }),
            _ => Err(format!(
                "bad aging rate {v:?} (want a finite alpha of at least 0)"
            )),
        };
    }
    Err(format!(
        "unknown discipline {s:?} (want exact, random, estimate=<bytes> or aging=<alpha>)"
    ))
}

/// Register the `pdq` and `mpdq` protocol families.
pub fn register_pdq(registry: &mut ProtocolRegistry) {
    registry.register_family_with_backends(
        "pdq",
        "PDQ: pdq(<full|es+et|es|basic>[;exact|random|estimate=<bytes>|aging=<alpha>])",
        &[SimBackend::Packet, SimBackend::Flow, SimBackend::Fluid],
        Box::new(|args| {
            let args = args.ok_or("pdq needs a variant, e.g. pdq(full)")?;
            let installer = match args.split_once(';') {
                None => PdqInstaller::variant(parse_variant(args)?),
                Some((variant, discipline)) => PdqInstaller::with_discipline(
                    parse_variant(variant)?,
                    parse_discipline(discipline)?,
                ),
            };
            Ok(Arc::new(installer) as InstallerHandle)
        }),
    );
    registry.register_family_with_backends(
        "cpdq",
        "Coflow-aware PDQ: cpdq (PDQ(Full) with group-bottleneck criticality)",
        &[SimBackend::Packet],
        Box::new(|args| {
            if args.is_some() {
                return Err("cpdq takes no arguments".into());
            }
            Ok(Arc::new(PdqInstaller::coflow()) as InstallerHandle)
        }),
    );
    registry.register_family(
        "mpdq",
        "Multipath PDQ: mpdq(<subflows>)",
        Box::new(|args| {
            let args = args.ok_or("mpdq needs a subflow count, e.g. mpdq(3)")?;
            let k: usize = args
                .parse()
                .map_err(|_| format!("bad subflow count {args:?}"))?;
            if k == 0 {
                return Err("subflow count must be at least 1".into());
            }
            Ok(Arc::new(PdqInstaller::multipath(k)) as InstallerHandle)
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_labels_match_the_paper() {
        let reg = &mut ProtocolRegistry::new();
        register_pdq(reg);
        for (spec, label) in [
            ("pdq(full)", "PDQ(Full)"),
            ("pdq(es+et)", "PDQ(ES+ET)"),
            ("pdq(es)", "PDQ(ES)"),
            ("pdq(basic)", "PDQ(Basic)"),
            ("pdq(full;exact)", "PDQ(Full); Perfect Flow Information"),
            ("pdq(full;random)", "PDQ(Full); Random Criticality"),
            (
                "pdq(full;estimate=50000)",
                "PDQ(Full); Flow Size Estimation",
            ),
            ("pdq(full;aging=0.5)", "PDQ(Full); Aging(alpha=0.5)"),
            ("mpdq(3)", "M-PDQ(3 subflows)"),
            ("cpdq", "C-PDQ(Full)"),
        ] {
            let installer = reg.resolve(spec).expect(spec);
            assert_eq!(installer.label(), label, "{spec}");
            // Canonical name round-trips through the registry.
            assert_eq!(installer.name(), spec, "{spec}");
            assert_eq!(reg.resolve(&installer.name()).unwrap().label(), label);
        }
        assert!(reg.resolve("pdq").is_err());
        assert!(reg.resolve("pdq(turbo)").is_err());
        assert!(reg.resolve("mpdq(0)").is_err());
        assert!(reg.resolve("pdq(full;psychic)").is_err());
        assert!(reg.resolve("cpdq(3)").is_err());
    }

    /// Aging takes a finite alpha ≥ 0 and size estimation a granularity ≥ 1 byte:
    /// anything else used to run — NaN and ∞ as flows ordered by id, a negative alpha
    /// aging the wrong way, `estimate=0` as `estimate=1` under its own label.
    #[test]
    fn discipline_arguments_are_range_checked() {
        let reg = &mut ProtocolRegistry::new();
        register_pdq(reg);
        for (spec, needle) in [
            ("pdq(full;aging=NaN)", "aging rate"),
            ("pdq(full;aging=inf)", "aging rate"),
            ("pdq(full;aging=-inf)", "aging rate"),
            ("pdq(full;aging=-2)", "aging rate"),
            ("pdq(full;aging=x)", "aging rate"),
            ("pdq(full;estimate=0)", "estimate granularity"),
            ("pdq(full;estimate=-1)", "estimate granularity"),
        ] {
            let err = reg.resolve(spec).err().expect(spec).to_string();
            assert!(err.contains(needle), "{spec}: {err}");
        }
        for spec in [
            "pdq(full;aging=0)",
            "pdq(basic;aging=2)",
            "pdq(full;estimate=1)",
        ] {
            assert_eq!(reg.resolve(spec).expect(spec).name(), spec);
        }
    }

    #[test]
    fn cpdq_is_packet_only_and_coflow_aware() {
        let reg = &mut ProtocolRegistry::new();
        register_pdq(reg);
        let installer = reg.resolve("cpdq").unwrap();
        assert!(installer.supports(SimBackend::Packet));
        assert!(installer.flow_config().is_none());
        assert!(installer.fluid_model().is_none());
        assert!(!installer.supports(SimBackend::Flow));
        assert!(!installer.supports(SimBackend::Fluid));
        let families = reg.families_supporting(SimBackend::Packet);
        assert!(families.contains(&"cpdq".to_string()));
        assert!(!reg
            .families_supporting(SimBackend::Flow)
            .contains(&"cpdq".to_string()));
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
    fn flow_level_lowering_matches_the_variant() {
        let reg = &mut ProtocolRegistry::new();
        register_pdq(reg);

        // Early Termination at the flow level iff the variant has it.
        for (spec, et) in [
            ("pdq(full)", true),
            ("pdq(es+et)", true),
            ("pdq(full;aging=4)", true),
            ("pdq(es)", false),
            ("pdq(basic)", false),
        ] {
            assert_eq!(terminates_a_hopeless_flow(reg, spec), et, "{spec}");
        }

        // M-PDQ and the imperfect-information disciplines are packet-only.
        for spec in ["mpdq(3)", "pdq(full;random)", "pdq(full;estimate=50000)"] {
            let installer = reg.resolve(spec).unwrap();
            assert!(installer.flow_config().is_none(), "{spec}");
            assert!(!installer.supports(SimBackend::Flow), "{spec}");
            assert!(installer.supports(SimBackend::Packet), "{spec}");
        }
        // The family itself advertises flow support.
        assert!(reg
            .families_supporting(SimBackend::Flow)
            .contains(&"pdq".to_string()));
    }

    #[test]
    fn fluid_lowering_covers_perfect_information_single_path_pdq() {
        let reg = &mut ProtocolRegistry::new();
        register_pdq(reg);

        // Every feature variant idealizes to the same serial EDF/SJF schedule.
        for spec in [
            "pdq(full)",
            "pdq(es+et)",
            "pdq(es)",
            "pdq(basic)",
            "pdq(full;exact)",
        ] {
            let installer = reg.resolve(spec).unwrap();
            assert_eq!(installer.fluid_model(), Some(FluidModel::SjfEdf), "{spec}");
            assert!(installer.supports(SimBackend::Fluid), "{spec}");
        }
        // Striping and imperfect information have no fluid counterpart.
        for spec in [
            "mpdq(3)",
            "pdq(full;random)",
            "pdq(full;estimate=50000)",
            "pdq(full;aging=0.5)",
        ] {
            let installer = reg.resolve(spec).unwrap();
            assert_eq!(installer.fluid_model(), None, "{spec}");
            assert!(!installer.supports(SimBackend::Fluid), "{spec}");
        }
        // The family advertises fluid; mpdq does not.
        let fluid = reg.families_supporting(SimBackend::Fluid);
        assert!(fluid.contains(&"pdq".to_string()));
        assert!(!fluid.contains(&"mpdq".to_string()));
    }
}
