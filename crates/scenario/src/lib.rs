//! # pdq-scenario
//!
//! The declarative experiment API of the PDQ reproduction: instead of hand-wiring
//! topology + workload + protocol in every figure module, a run is a first-class
//! [`Scenario`] value —
//!
//! ```text
//! Scenario::new("fig3a")
//!     .topology(TopologySpec::PaperTree)
//!     .workload(WorkloadSpec::QueryAggregation { .. })
//!     .protocol("pdq(full)")
//!     .seed(1)
//! ```
//!
//! — that serializes to a plain-text spec ([`Scenario::to_spec`]), parses back
//! ([`Scenario::from_spec`]) and executes to a typed [`RunSummary`].
//!
//! Protocols are open: anything implementing [`ProtocolInstaller`] can be registered
//! in a [`ProtocolRegistry`] under a spec name like `pdq(full)` or `mpdq(3)`; the
//! `pdq` and `pdq-baselines` crates register the paper's schemes
//! (`pdq::register_pdq`, `pdq_baselines::register_baselines`) and third parties
//! register their own without touching figure code.
//!
//! Scenarios execute on any of three [`SimBackend`]s: `packet` (the
//! discrete-event engine, the default), `flow` (the §5.5 flow-level model for
//! large-scale runs) or `fluid` (the §2.1 idealized single-bottleneck model behind
//! Figure 1). Protocols advertise which backends they support —
//! [`ProtocolInstaller::flow_config`] supplies the scheme's own
//! [`pdq_flowsim::FlowModel`] (PDQ's lives in the `pdq` crate, RCP's and D3's in
//! `pdq-baselines`, each next to the packet-level rules it shares) and
//! [`ProtocolInstaller::fluid_model`] names its [`pdq_flowsim::FluidModel`]
//! idealization (fair sharing, SJF/EDF, or D3's first-come-first-reserve);
//! schemes without the model cleanly reject `backend = flow` / `backend = fluid`
//! scenarios.
//!
//! [`Sweep`] fans a scenario grid across worker threads with deterministic,
//! thread-count-independent results; [`GridBuilder`] expands the cartesian product
//! of protocol × seed × load × flow-size × deadline axes, and
//! [`Sweep::run_replicated`] re-runs every grid cell under consecutive seeds,
//! aggregating each metric into [`SummaryStats`] (mean / stddev / 95% CI).
//!
//! Sweeps are resumable and incremental: a [`ResultCache`] content-addresses every
//! run by its *request fingerprint* ([`request_fingerprint`], a pre-run hash of
//! the canonical spec — distinct from the post-run determinism
//! [`RunSummary::fingerprint`]) in a one-record-file-per-cell on-disk layout, and
//! [`Sweep::run_cached`] serves cached cells without running them, persists
//! missing cells the moment each finishes (atomic write-then-rename — a killed
//! process never leaves a torn record), and streams per-cell JSONL to a sink
//! instead of buffering whole tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod cache;
mod kv;
pub mod protocol;
pub mod scenario;
pub mod spec;
pub mod stats;
pub mod summary;
pub mod sweep;

pub use backend::SimBackend;
pub use cache::{
    canonical_request_spec, jsonl_record, request_fingerprint, CacheDirStats, CachePolicy,
    ResultCache,
};
pub use protocol::{
    InstallerFactory, InstallerHandle, ProtocolInstaller, ProtocolRegistry, RegistryError,
};
pub use scenario::{
    execute, lower_to_fluid, run_packet_level, Scenario, ScenarioError, DEFAULT_STOP_AT,
};
pub use spec::{TopologySpec, WorkloadSpec};
pub use stats::{t_critical_975, ReplicatedSummary, SummaryStats};
pub use summary::{BackendResults, CachedResults, RunSummary};
pub use sweep::{default_threads, GridBuilder, GridError, ReplicatedOutcome, Sweep, SweepOutcome};
