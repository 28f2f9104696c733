//! The open protocol surface: the [`ProtocolInstaller`] trait and the
//! [`ProtocolRegistry`] that resolves protocol spec strings like `pdq(full)` or
//! `mpdq(3)` into installers.
//!
//! The registry replaces the closed `Protocol` enum the experiment harness used to
//! hard-wire: a scheme is now anything that can set up a [`Simulator`] — the `pdq` and
//! `pdq-baselines` crates register the paper's schemes, and third-party crates (or
//! tests) register their own families without touching any figure code.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use pdq_flowsim::{FlowLevelConfig, FluidModel};
use pdq_netsim::{PacerConfig, Simulator};

use crate::backend::SimBackend;

/// Installs a transport scheme on a simulator: agents on hosts and (optionally)
/// controllers on switch egress links.
///
/// Implementations must be cheap to clone behind an [`Arc`] and thread-safe: the
/// [`crate::Sweep`] runner resolves and installs protocols from worker threads.
///
/// Every installer supports the packet-level backend ([`ProtocolInstaller::install`]).
/// Schemes that also have a §5.5 flow-level model additionally override
/// [`ProtocolInstaller::flow_config`], and schemes with a §2.1 fluid idealization
/// override [`ProtocolInstaller::fluid_model`]; both default to `None`, so
/// third-party installers cleanly reject `backend = flow` / `backend = fluid`
/// scenarios without extra code.
pub trait ProtocolInstaller: Send + Sync {
    /// Canonical spec name, e.g. `pdq(full)` — resolving this string through the
    /// registry the installer came from must yield an equivalent installer.
    fn name(&self) -> String;

    /// Display label used in tables and traces, e.g. `PDQ(Full)`.
    fn label(&self) -> String;

    /// Install the scheme's host agents and switch controllers on `sim`.
    fn install(&self, sim: &mut Simulator);

    /// The scheme's §5.5 flow-level model, for `backend = flow` scenarios: a
    /// [`FlowLevelConfig`] holding the scheme's own [`pdq_flowsim::FlowModel`] (its
    /// rate allocation and termination rule; the loop in [`pdq_flowsim::level`]
    /// knows no protocol). `None` (the default) means the scheme has no flow-level
    /// model and a flow scenario fails with [`crate::ScenarioError::Backend`]. The
    /// returned config's `max_time` is overridden by the scenario's `stop_at`.
    fn flow_config(&self) -> Option<FlowLevelConfig> {
        None
    }

    /// The §2.1 fluid model this scheme idealizes to, for `backend = fluid`
    /// scenarios. `None` (the default) means the scheme has no fluid idealization
    /// and a fluid scenario fails with [`crate::ScenarioError::Backend`].
    fn fluid_model(&self) -> Option<FluidModel> {
        None
    }

    /// This installer with RFC 9002-style sender pacing enabled (`pacing = on`
    /// scenarios), or `None` (the default) when the scheme has no paced variant —
    /// the scenario then fails loudly instead of silently running unpaced.
    fn with_pacing(&self, config: PacerConfig) -> Option<InstallerHandle> {
        let _ = config;
        None
    }

    /// Whether this installer can execute on `backend`. Packet is always supported;
    /// flow support is derived from [`ProtocolInstaller::flow_config`] and fluid
    /// support from [`ProtocolInstaller::fluid_model`].
    fn supports(&self, backend: SimBackend) -> bool {
        match backend {
            SimBackend::Packet => true,
            SimBackend::Flow => self.flow_config().is_some(),
            SimBackend::Fluid => self.fluid_model().is_some(),
        }
    }
}

/// Installers display as their table label.
impl fmt::Display for dyn ProtocolInstaller + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A shared installer handle as stored in (and resolved from) the registry.
pub type InstallerHandle = Arc<dyn ProtocolInstaller>;

/// Factory turning the optional argument string of `family(args)` into an installer.
pub type InstallerFactory =
    Box<dyn Fn(Option<&str>) -> Result<InstallerHandle, String> + Send + Sync>;

struct Family {
    summary: String,
    backends: Vec<SimBackend>,
    factory: InstallerFactory,
}

/// Error returned when a protocol spec string cannot be resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// No family with this name is registered; `available` lists what is.
    UnknownProtocol {
        /// The family name that failed to resolve.
        name: String,
        /// Registered family names, sorted.
        available: Vec<String>,
    },
    /// The family exists but rejected the argument string.
    BadArguments {
        /// The family that rejected the arguments.
        family: String,
        /// The family's explanation.
        message: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownProtocol { name, available } => write!(
                f,
                "unknown protocol {name:?}; registered protocols: {}",
                available.join(", ")
            ),
            RegistryError::BadArguments { family, message } => {
                write!(f, "bad arguments for protocol family {family:?}: {message}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// An open registry of protocol families, keyed by family name.
///
/// A protocol spec string is `family` or `family(args)`; the family's factory decides
/// what the arguments mean. Register the paper's schemes with
/// `pdq::register_pdq` / `pdq_baselines::register_baselines`, or your own family with
/// [`ProtocolRegistry::register_family`].
#[derive(Default)]
pub struct ProtocolRegistry {
    families: BTreeMap<String, Family>,
}

impl ProtocolRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a packet-level-only protocol family. `summary` is a one-line
    /// description (shown by the CLI's `list` subcommand); `factory` receives the
    /// argument string of `name(args)` (or `None` for a bare `name`) and builds the
    /// installer. Re-registering a name replaces the previous family.
    pub fn register_family(
        &mut self,
        name: impl Into<String>,
        summary: impl Into<String>,
        factory: InstallerFactory,
    ) {
        self.register_family_with_backends(name, summary, &[SimBackend::Packet], factory);
    }

    /// [`ProtocolRegistry::register_family`] with an explicit set of supported
    /// backends. A family advertising [`SimBackend::Flow`] promises that at least
    /// some of its argument combinations produce installers with a
    /// [`ProtocolInstaller::flow_config`]; individual installers may still refuse
    /// (e.g. `pdq(full;random)` has no flow-level model even though `pdq` does).
    pub fn register_family_with_backends(
        &mut self,
        name: impl Into<String>,
        summary: impl Into<String>,
        backends: &[SimBackend],
        factory: InstallerFactory,
    ) {
        let mut backends = backends.to_vec();
        backends.sort();
        backends.dedup();
        self.families.insert(
            name.into(),
            Family {
                summary: summary.into(),
                backends,
                factory,
            },
        );
    }

    /// Register a single fixed installer under its own [`ProtocolInstaller::name`].
    /// The resulting family takes no arguments; its supported backends are derived
    /// from the installer ([`ProtocolInstaller::supports`]).
    pub fn register_instance(&mut self, installer: InstallerHandle) {
        let name = installer.name();
        let label = installer.label();
        let backends: Vec<SimBackend> = SimBackend::all()
            .into_iter()
            .filter(|&b| installer.supports(b))
            .collect();
        self.register_family_with_backends(
            name.clone(),
            label,
            &backends,
            Box::new(move |args| match args {
                None => Ok(installer.clone()),
                Some(a) => Err(format!("protocol takes no arguments, got ({a})")),
            }),
        );
    }

    /// Resolve a protocol spec string (`family` or `family(args)`) to an installer.
    pub fn resolve(&self, spec: &str) -> Result<InstallerHandle, RegistryError> {
        let spec = spec.trim();
        let (name, args) = match spec.split_once('(') {
            Some((name, rest)) => {
                let args = rest
                    .strip_suffix(')')
                    .ok_or_else(|| RegistryError::BadArguments {
                        family: name.to_string(),
                        message: format!("unbalanced parentheses in {spec:?}"),
                    })?;
                (name, Some(args))
            }
            None => (spec, None),
        };
        let family = self
            .families
            .get(name)
            .ok_or_else(|| RegistryError::UnknownProtocol {
                name: name.to_string(),
                available: self.families.keys().cloned().collect(),
            })?;
        (family.factory)(args).map_err(|message| RegistryError::BadArguments {
            family: name.to_string(),
            message,
        })
    }

    /// The display label a spec string resolves to.
    pub fn label(&self, spec: &str) -> Result<String, RegistryError> {
        self.resolve(spec).map(|i| i.label())
    }

    /// Registered families as `(name, summary)` pairs, sorted by name.
    pub fn families(&self) -> impl Iterator<Item = (&str, &str)> {
        self.families
            .iter()
            .map(|(n, f)| (n.as_str(), f.summary.as_str()))
    }

    /// Registered families as `(name, summary, supported backends)` triples, sorted
    /// by name.
    pub fn families_with_backends(&self) -> impl Iterator<Item = (&str, &str, &[SimBackend])> {
        self.families
            .iter()
            .map(|(n, f)| (n.as_str(), f.summary.as_str(), f.backends.as_slice()))
    }

    /// Names of the families advertising support for `backend`, sorted.
    pub fn families_supporting(&self, backend: SimBackend) -> Vec<String> {
        self.families
            .iter()
            .filter(|(_, f)| f.backends.contains(&backend))
            .map(|(n, _)| n.clone())
            .collect()
    }
}

impl fmt::Debug for ProtocolRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolRegistry")
            .field("families", &self.families.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_flowsim::{max_min_fair, ActiveFlow, FlowModel};
    use pdq_netsim::SimTime;

    struct Nop(String);
    impl ProtocolInstaller for Nop {
        fn name(&self) -> String {
            self.0.clone()
        }
        fn label(&self) -> String {
            self.0.to_uppercase()
        }
        fn install(&self, _sim: &mut Simulator) {}
    }

    #[test]
    fn instance_and_family_resolution() {
        let mut reg = ProtocolRegistry::new();
        reg.register_instance(Arc::new(Nop("tcp".into())));
        reg.register_family(
            "echo",
            "echoes its argument",
            Box::new(|args| {
                let a = args.ok_or("needs an argument")?;
                Ok(Arc::new(Nop(format!("echo({a})"))) as InstallerHandle)
            }),
        );

        assert_eq!(reg.resolve("tcp").unwrap().label(), "TCP");
        assert_eq!(reg.resolve("echo(x)").unwrap().name(), "echo(x)");
        assert!(matches!(
            reg.resolve("tcp(x)"),
            Err(RegistryError::BadArguments { .. })
        ));
        assert!(matches!(
            reg.resolve("echo"),
            Err(RegistryError::BadArguments { .. })
        ));
        let err = reg.resolve("udp").err().unwrap();
        match err {
            RegistryError::UnknownProtocol { name, available } => {
                assert_eq!(name, "udp");
                assert_eq!(available, vec!["echo".to_string(), "tcp".to_string()]);
            }
            other => panic!("wrong error: {other:?}"),
        }
        // Display goes through the label.
        let handle = reg.resolve("tcp").unwrap();
        assert_eq!(format!("{}", &*handle), "TCP");
    }

    /// A trivial flow-level model: max-min fair sharing, nobody gives up.
    #[derive(Debug)]
    struct FairShare;
    impl FlowModel for FairShare {
        fn allocate(&self, flows: &[ActiveFlow], residual: &[f64], _now: SimTime) -> Vec<f64> {
            max_min_fair(flows, residual)
        }
    }

    struct Flowy;
    impl ProtocolInstaller for Flowy {
        fn name(&self) -> String {
            "flowy".into()
        }
        fn label(&self) -> String {
            "Flowy".into()
        }
        fn install(&self, _sim: &mut Simulator) {}
        fn flow_config(&self) -> Option<FlowLevelConfig> {
            Some(FlowLevelConfig::new(FairShare))
        }
        fn fluid_model(&self) -> Option<FluidModel> {
            Some(FluidModel::FairSharing)
        }
    }

    #[test]
    fn backend_support_is_tracked_per_family() {
        let mut reg = ProtocolRegistry::new();
        // Plain instances and families default to packet-only.
        reg.register_instance(Arc::new(Nop("tcp".into())));
        reg.register_family(
            "echo",
            "echoes",
            Box::new(|_| Ok(Arc::new(Nop("echo".into())) as InstallerHandle)),
        );
        // An instance with a flow model derives flow support automatically.
        reg.register_instance(Arc::new(Flowy));
        // A family can advertise both backends explicitly.
        reg.register_family_with_backends(
            "both",
            "both backends",
            &[SimBackend::Flow, SimBackend::Packet, SimBackend::Flow],
            Box::new(|_| Ok(Arc::new(Flowy) as InstallerHandle)),
        );

        assert_eq!(
            reg.families_supporting(SimBackend::Flow),
            vec!["both".to_string(), "flowy".to_string()]
        );
        // register_instance derives fluid support from fluid_model() too.
        assert_eq!(
            reg.families_supporting(SimBackend::Fluid),
            vec!["flowy".to_string()]
        );
        assert_eq!(reg.families_supporting(SimBackend::Packet).len(), 4);
        let tcp = reg.resolve("tcp").unwrap();
        assert!(tcp.supports(SimBackend::Packet) && !tcp.supports(SimBackend::Flow));
        assert!(!tcp.supports(SimBackend::Fluid));
        assert!(reg.resolve("flowy").unwrap().supports(SimBackend::Flow));
        assert!(reg.resolve("flowy").unwrap().supports(SimBackend::Fluid));
        // Duplicates in the advertised list are collapsed and sorted.
        let both = reg
            .families_with_backends()
            .find(|(n, _, _)| *n == "both")
            .unwrap();
        assert_eq!(both.2, &[SimBackend::Packet, SimBackend::Flow]);
    }
}
