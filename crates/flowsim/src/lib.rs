//! # pdq-flowsim
//!
//! Flow-level and fluid models for the PDQ (SIGCOMM 2012) reproduction:
//!
//! * [`fluid`] — the single-bottleneck model, in bytes at a stated link rate: the
//!   §2.1 motivating example (Figure 1: fair sharing vs SJF/EDF vs D3) and Figure 3's
//!   "Optimal" curve (EDF + Moore–Hodgson for deadline flows, SJF for mean
//!   completion time), under one deadline rule;
//! * [`level`] — the flow-level simulator of §5.5: equilibrium rates recomputed on a
//!   1 ms time scale with flow-initialization latency and header overhead, used for
//!   the large-scale, multipath-load and aging experiments. It knows no protocol:
//!   each installer supplies a [`FlowModel`] built from its packet-level rules (PDQ's
//!   in `pdq::flow_model`, RCP's and D3's in `pdq_baselines::flow_model`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fluid;
pub mod level;

pub use fluid::{
    coflow_cct_lower_bounds, d3_completion, edf_completion, fair_sharing_completion, figure1_flows,
    max_on_time, run_fluid, sjf_completion, FluidFlow, FluidFlowRecord, FluidModel, FluidResults,
    DEADLINE_SLACK_SECS, FLUID_RATE_BPS,
};
pub use level::{
    max_min_fair, run_flow_level, serve_in_order, ActiveFlow, FlowLevelConfig, FlowLevelRecord,
    FlowLevelResults, FlowModel,
};
