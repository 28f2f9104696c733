//! The protocol registries the harness runs scenarios against: the real one, a
//! traced one whose installers mirror `install_pdq` / `install_tcp` /
//! `install_rcp` / `install_d3` with [`Timed`] wrappers, and a hooked one that
//! notes when each sweep cell resolves and installs its protocol.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use pdq::{Discipline, PdqHostAgent, PdqParams, PdqSwitchController, PdqVariant};
use pdq_baselines::{
    D3Params, D3SwitchController, RateHostAgent, RateMode, RcpParams, RcpSwitchController,
    TcpHostAgent, TcpParams,
};
use pdq_flowsim::{FlowLevelConfig, FluidModel};
use pdq_netsim::{PacerConfig, Simulator};
use pdq_scenario::{InstallerHandle, ProtocolInstaller, ProtocolRegistry};

use crate::timed::{Layer, Timed, TraceAgg};

/// The registry every untraced run resolves against: the paper's schemes.
pub fn real_registry() -> Arc<ProtocolRegistry> {
    let mut registry = ProtocolRegistry::new();
    pdq::register_pdq(&mut registry);
    pdq_baselines::register_baselines(&mut registry);
    Arc::new(registry)
}

/// A registry with `real`'s families whose factories pass each resolved installer
/// through `wrap`.
fn wrapping_registry(
    real: &Arc<ProtocolRegistry>,
    wrap: impl Fn(InstallerHandle) -> Result<InstallerHandle, String> + Send + Sync + 'static,
) -> ProtocolRegistry {
    let wrap = Arc::new(wrap);
    let mut registry = ProtocolRegistry::new();
    for (family, summary, backends) in real.families_with_backends() {
        let (real, wrap, family_name) = (Arc::clone(real), Arc::clone(&wrap), family.to_string());
        registry.register_family_with_backends(
            family,
            summary,
            backends,
            Box::new(move |args| {
                let spec = match args {
                    Some(args) => format!("{family_name}({args})"),
                    None => family_name.clone(),
                };
                wrap(real.resolve(&spec).map_err(|e| e.to_string())?)
            }),
        );
    }
    registry
}

/// The scheme a traced installer sets up, with the parameters the real installer
/// of the same name uses.
#[derive(Clone)]
enum Scheme {
    Pdq(PdqParams, Discipline),
    Tcp(TcpParams),
    Rcp(RcpParams),
    D3(D3Params, bool),
}

impl Scheme {
    /// The schemes the benchmark's workloads run; anything else has no mirror.
    fn named(name: &str) -> Result<Scheme, String> {
        match name {
            "pdq(full)" => Ok(Scheme::Pdq(
                PdqParams::variant(PdqVariant::Full),
                Discipline::Exact,
            )),
            "tcp" => Ok(Scheme::Tcp(TcpParams::default())),
            "rcp" => Ok(Scheme::Rcp(RcpParams::default())),
            "d3" => Ok(Scheme::D3(D3Params::default(), true)),
            other => Err(format!(
                "the traced pass mirrors pdq(full), tcp, rcp and d3 only, not {other:?}"
            )),
        }
    }
}

/// Installs what the real installer of the same name installs, each agent and
/// controller inside a [`Timed`]. Everything but `install` is the real installer's.
struct TracedInstaller {
    real: InstallerHandle,
    scheme: Scheme,
    pacer: Option<PacerConfig>,
    sink: Arc<TraceAgg>,
}

impl ProtocolInstaller for TracedInstaller {
    fn name(&self) -> String {
        self.real.name()
    }

    fn label(&self) -> String {
        self.real.label()
    }

    fn install(&self, sim: &mut Simulator) {
        let sink = &self.sink;
        match self.scheme.clone() {
            Scheme::Pdq(mut params, discipline) => {
                params.pacer = self.pacer;
                let p = params.clone();
                sim.install_agents(move |_, node| {
                    let agent = PdqHostAgent::new(p.clone(), discipline.clone(), node.0 as u64 + 1);
                    Box::new(Timed::new(
                        agent,
                        Layer::PdqHost,
                        sink,
                        PdqHostAgent::active_senders,
                    ))
                });
                sim.install_switch_controllers(move |_, _| {
                    Box::new(Timed::new(
                        PdqSwitchController::new(params.clone()),
                        Layer::PdqSwitch,
                        sink,
                        PdqSwitchController::tracked_flows,
                    ))
                });
            }
            Scheme::Tcp(mut params) => {
                params.pacer = self.pacer;
                sim.install_agents(move |_, _| {
                    let agent = TcpHostAgent::new(params.clone());
                    Box::new(Timed::ungauged(agent, Layer::TcpAgent, sink))
                });
            }
            Scheme::Rcp(params) => {
                self.install_rate_hosts(sim, RateMode::Rcp);
                sim.install_switch_controllers(move |_, _| {
                    let ctl = RcpSwitchController::new(params.clone());
                    Box::new(Timed::ungauged(ctl, Layer::RcpCtrl, sink))
                });
            }
            Scheme::D3(params, quenching) => {
                self.install_rate_hosts(sim, RateMode::D3 { quenching });
                sim.install_switch_controllers(move |_, _| {
                    let ctl = D3SwitchController::new(params.clone());
                    Box::new(Timed::ungauged(ctl, Layer::D3Ctrl, sink))
                });
            }
        }
    }

    fn with_pacing(&self, config: PacerConfig) -> Option<InstallerHandle> {
        Some(Arc::new(TracedInstaller {
            real: self.real.with_pacing(config)?,
            scheme: self.scheme.clone(),
            pacer: Some(config),
            sink: Arc::clone(&self.sink),
        }))
    }

    fn flow_config(&self) -> Option<FlowLevelConfig> {
        self.real.flow_config()
    }

    fn fluid_model(&self) -> Option<FluidModel> {
        self.real.fluid_model()
    }
}

impl TracedInstaller {
    fn install_rate_hosts(&self, sim: &mut Simulator, mode: RateMode) {
        let (pacer, sink) = (self.pacer, &self.sink);
        sim.install_agents(move |_, _| {
            let agent = match pacer {
                None => RateHostAgent::new(mode),
                Some(config) => RateHostAgent::new(mode).with_pacer(config),
            };
            Box::new(Timed::ungauged(agent, Layer::RateHost, sink))
        });
    }
}

/// `real`, with every installer replaced by its traced mirror reporting to `sink`.
pub fn traced_registry(real: &Arc<ProtocolRegistry>, sink: &Arc<TraceAgg>) -> ProtocolRegistry {
    let sink = Arc::clone(sink);
    wrapping_registry(real, move |real| {
        Ok(Arc::new(TracedInstaller {
            scheme: Scheme::named(&real.name())?,
            real,
            pacer: None,
            sink: Arc::clone(&sink),
        }) as InstallerHandle)
    })
}

/// What a sweep worker thread was seen doing, and when.
#[derive(Clone, Debug)]
pub struct CellEvent {
    pub thread: ThreadId,
    pub at: Instant,
    /// `true`: the cell's protocol was installed on its simulator (packet cells
    /// only); `false`: the cell resolved its protocol, the first thing a cell does.
    pub installed: bool,
    pub protocol: String,
}

/// The events of one or more `Sweep::run_cached` calls, in no particular order.
#[derive(Default)]
pub struct CellLog(Mutex<Vec<CellEvent>>);

impl CellLog {
    fn note(&self, installed: bool, protocol: String) {
        let event = CellEvent {
            thread: std::thread::current().id(),
            at: Instant::now(),
            installed,
            protocol,
        };
        self.0.lock().expect("cell log poisoned").push(event);
    }

    pub fn take(&self) -> Vec<CellEvent> {
        std::mem::take(&mut *self.0.lock().expect("cell log poisoned"))
    }
}

struct Hooked {
    inner: InstallerHandle,
    log: Arc<CellLog>,
}

impl ProtocolInstaller for Hooked {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn install(&self, sim: &mut Simulator) {
        self.log.note(true, self.inner.name());
        self.inner.install(sim);
    }

    fn with_pacing(&self, config: PacerConfig) -> Option<InstallerHandle> {
        Some(Arc::new(Hooked {
            inner: self.inner.with_pacing(config)?,
            log: Arc::clone(&self.log),
        }))
    }

    fn flow_config(&self) -> Option<FlowLevelConfig> {
        self.inner.flow_config()
    }

    fn fluid_model(&self) -> Option<FluidModel> {
        self.inner.fluid_model()
    }
}

/// `inner`, noting in `log` each resolve and each install. `Sweep::run_cached`
/// runs its cells behind one call, so these two moments are all an outside
/// observer sees of a cell: where it starts, and where its set-up ends.
pub fn hooked_registry(inner: &Arc<ProtocolRegistry>, log: &Arc<CellLog>) -> ProtocolRegistry {
    let log = Arc::clone(log);
    wrapping_registry(inner, move |inner| {
        log.note(false, inner.name());
        Ok(Arc::new(Hooked {
            inner,
            log: Arc::clone(&log),
        }) as InstallerHandle)
    })
}

/// One sweep cell as the hooks saw it.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    pub protocol: String,
    pub start: Instant,
    /// When its protocol was installed; `None` for flow- and fluid-backend cells.
    pub installed: Option<Instant>,
    pub end: Instant,
}

/// Cut each worker thread's timeline into cells: a cell runs from its resolve to
/// the next resolve on the same thread, the last one to `sweep_end`.
pub fn cells_of(mut events: Vec<CellEvent>, sweep_end: Instant) -> Vec<Cell> {
    events.sort_by_key(|e| e.at);
    let mut cells: Vec<(ThreadId, Cell)> = Vec::new();
    for event in events {
        let open = cells.iter_mut().rev().find(|(t, _)| *t == event.thread);
        match (event.installed, open) {
            (true, Some((_, cell))) => cell.installed = Some(event.at),
            (true, None) => {}
            (false, open) => {
                if let Some((_, previous)) = open {
                    previous.end = event.at;
                }
                cells.push((
                    event.thread,
                    Cell {
                        protocol: event.protocol,
                        start: event.at,
                        installed: None,
                        end: sweep_end,
                    },
                ));
            }
        }
    }
    cells.into_iter().map(|(_, cell)| cell).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn traced_registry_mirrors_only_the_benchmark_schemes() {
        let real = real_registry();
        let traced = traced_registry(&real, &TraceAgg::new());
        for spec in ["pdq(full)", "tcp", "rcp", "d3"] {
            let installer = traced.resolve(spec).expect(spec);
            assert_eq!(installer.name(), spec);
            assert_eq!(installer.label(), real.resolve(spec).unwrap().label());
            assert!(installer.with_pacing(PacerConfig::default()).is_some());
        }
        assert!(traced.resolve("pdq(basic)").is_err());
        assert!(traced.resolve("d3(noquench)").is_err());
        assert!(traced.resolve("nonsense").is_err());
    }

    #[test]
    fn cells_are_cut_per_thread_at_each_resolve() {
        let main = std::thread::current().id();
        let other = std::thread::spawn(|| std::thread::current().id())
            .join()
            .unwrap();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let event = |thread, ms, installed, protocol: &str| CellEvent {
            thread,
            at: at(ms),
            installed,
            protocol: protocol.to_string(),
        };
        let cells = cells_of(
            vec![
                event(other, 1, false, "rcp"),
                event(main, 0, false, "tcp"),
                event(main, 2, true, "tcp"),
                event(main, 10, false, "d3"),
                event(other, 3, true, "rcp"),
            ],
            at(30),
        );
        let view: Vec<(&str, Instant, Option<Instant>, Instant)> = cells
            .iter()
            .map(|c| (c.protocol.as_str(), c.start, c.installed, c.end))
            .collect();
        assert_eq!(
            view,
            vec![
                ("tcp", at(0), Some(at(2)), at(10)),
                ("rcp", at(1), Some(at(3)), at(30)),
                ("d3", at(10), None, at(30)),
            ]
        );
    }
}
