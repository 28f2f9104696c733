//! # pdq-experiments
//!
//! The experiment harness that regenerates every table and figure of the PDQ paper's
//! evaluation (§5–§7). Each `figNN` function returns a [`common::Table`] with the same
//! rows/series the paper reports; the `pdq-experiments` binary prints them as markdown
//! or CSV. Every experiment accepts a [`Scale`]: `Quick` for second-scale runs
//! (used by the test suite and the CI determinism job) and `Paper` for the full
//! parameter sweeps recorded in EXPERIMENTS.md.
//!
//! Every run — packet-level *and* flow-level — is a declarative
//! [`pdq_scenario::Scenario`]: topology + workload + protocol + seed + backend,
//! resolved against the open protocol registry ([`common::registry`]). Protocols
//! are spec strings like `pdq(full)` or `mpdq(3)`, so new schemes plug in without
//! touching figure code; the backend is `packet` (default), `flow` (the §5.5
//! model the large-scale figures use) or `fluid` (the §2.1 model behind Figure 1).
//! The binary's `run-spec` subcommand executes a scenario from a plain-text spec
//! file, and `sweep` fans a scenario grid across worker threads — either the
//! canonical fig5a grid or a custom [`pdq_scenario::GridBuilder`] product over
//! `--protocols` / `--seeds` / `--loads` / `--sizes` / `--deadlines` axes —
//! optionally replicated over seeds (`--replicate`) with mean/stddev/95%-CI
//! (Student-t) statistics per cell.
//!
//! | Function | Paper figure | Backend | What it shows |
//! |---|---|---|---|
//! | [`fig1::fig1`] | Fig. 1 | fluid | §2.1 motivating comparison: fair sharing vs SJF/EDF vs D3 |
//! | [`fig3::fig3a`]–[`fig3::fig3e`] | Fig. 3 | packet | query aggregation: application throughput and normalized FCT |
//! | [`fig3::headline`] | §1 | packet | ~30% FCT saving and 3× supported senders vs D3 |
//! | [`fig4::fig4a`], [`fig4::fig4b`] | Fig. 4 | packet | sending patterns |
//! | [`fig5::fig5a`]–[`fig5::fig5c`] | Fig. 5 | packet | realistic (VL2-like, EDU1-like) workloads |
//! | [`fig67::fig6`], [`fig67::fig7`] | Fig. 6, 7 | packet | convergence dynamics, burst robustness |
//! | [`fig8::fig8a`], [`fig8::fig8_fct_vs_size`], [`fig8::fig8e`] | Fig. 8 | flow (+ packet cross-check) | scaling on fat-tree / BCube / Jellyfish |
//! | [`fig9::fig9a`], [`fig9::fig9b`] | Fig. 9 | packet | resilience to packet loss |
//! | [`fig10::fig10`] | Fig. 10 | packet | inaccurate flow information |
//! | [`fig11::fig11a`]–[`fig11::fig11c`] | Fig. 11 | packet | Multipath PDQ on BCube |
//! | [`fig12::fig12`] | Fig. 12 | flow | flow aging vs starvation |
//! | [`coflow::coflow`] | — (coflow extension) | packet | group-level CCT: coflow-aware PDQ vs flow-level schemes |
//! | [`wan::wan`] | — (WAN extension) | packet | inter-datacenter mesh: RFC 9002-style paced vs unpaced senders |
//! | [`ablation::ablation`] | — (Fig. 6/7 scenarios) | packet | Early Start K, dampening, Suppressed Probing X, sliver threshold |
//! | [`diag::diag`] | — | packet | per-flow outcomes of the Figure 3a setup, one table per protocol |
//! | [`scalebench::engine_scale`] | — | packet | engine stress; its wall-clock column is never byte-stable |
//!
//! [`EXPERIMENTS`] is the one list of experiment names. The figures share a few
//! primitives in [`common`]: [`Scale::pick`] for the quick / paper tiers,
//! [`common::seed_mean`] for seed averages, [`common::supported`] for "flows at
//! 99% application throughput", and [`common::protocol_table`] for the axis ×
//! protocol grid most tables are. The ablations run [`fig67`]'s two scenarios.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod coflow;
pub mod common;
pub mod diag;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig67;
pub mod fig8;
pub mod fig9;
pub mod scalebench;
pub mod sweeps;
pub mod wan;

pub use common::{Scale, Table};

use fig8::ScaleTopology;

/// A named experiment and the tables it prints at a given scale.
pub type Experiment = (&'static str, fn(Scale) -> Vec<Table>);

/// Every experiment, in paper order: the one list [`run_experiment`],
/// [`all_experiments`] and the CLI read.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig1", |_| vec![fig1::fig1()]),
    ("fig3a", |s| vec![fig3::fig3a(s)]),
    ("fig3b", |s| vec![fig3::fig3b(s)]),
    ("fig3c", |s| vec![fig3::fig3c(s)]),
    ("fig3d", |s| vec![fig3::fig3d(s)]),
    ("fig3e", |s| vec![fig3::fig3e(s)]),
    ("headline", |s| vec![fig3::headline(s)]),
    ("fig4a", |s| vec![fig4::fig4a(s)]),
    ("fig4b", |s| vec![fig4::fig4b(s)]),
    ("fig5a", |s| vec![fig5::fig5a(s)]),
    ("fig5b", |s| vec![fig5::fig5b(s)]),
    ("fig5c", |s| vec![fig5::fig5c(s)]),
    ("fig6", |_| vec![fig67::fig6()]),
    ("fig7", |_| vec![fig67::fig7()]),
    ("fig8a", |s| vec![fig8::fig8a(s)]),
    ("fig8b", |s| {
        vec![fig8::fig8_fct_vs_size(ScaleTopology::FatTree, s)]
    }),
    ("fig8c", |s| {
        vec![fig8::fig8_fct_vs_size(ScaleTopology::BCube, s)]
    }),
    ("fig8d", |s| {
        vec![fig8::fig8_fct_vs_size(ScaleTopology::Jellyfish, s)]
    }),
    ("fig8e", |s| vec![fig8::fig8e(s)]),
    ("fig9a", |s| vec![fig9::fig9a(s)]),
    ("fig9b", |s| vec![fig9::fig9b(s)]),
    ("fig10", |s| vec![fig10::fig10(s)]),
    ("fig11a", |s| vec![fig11::fig11a(s)]),
    ("fig11b", |s| vec![fig11::fig11b(s)]),
    ("fig11c", |s| vec![fig11::fig11c(s)]),
    ("fig12", |s| vec![fig12::fig12(s)]),
    ("coflow", coflow::coflow),
    ("diag", |_| diag::diag()),
    ("ablation", ablation::ablation),
    ("engine_scale", |s| vec![scalebench::engine_scale(s)]),
    ("wan", |s| vec![wan::wan(s)]),
];

/// Run one named experiment ("fig3a", "fig6", "headline", ...) and return its tables,
/// or `None` for an unknown name (callers print [`all_experiments`] and fail loudly).
pub fn run_experiment(name: &str, scale: Scale) -> Option<Vec<Table>> {
    let (_, run) = EXPERIMENTS.iter().find(|(n, _)| *n == name)?;
    Some(run(scale))
}

/// All experiment names, in paper order.
pub fn all_experiments() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|(name, _)| *name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_none_and_names_are_unique() {
        assert!(run_experiment("nonexistent", Scale::Quick).is_none());
        let names = all_experiments();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert_eq!(names.len(), 31);
    }
}
