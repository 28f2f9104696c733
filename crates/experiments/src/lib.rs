//! # pdq-experiments
//!
//! The experiment harness that regenerates every table and figure of the PDQ paper's
//! evaluation (§5–§7). Each `figNN` function returns a [`common::Table`] with the same
//! rows/series the paper reports; the `pdq-experiments` binary prints them as markdown
//! or CSV. Every experiment accepts a [`fig3::Scale`]: `Quick` for second-scale runs
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

pub use common::Table;
pub use fig3::Scale;

/// Run one named experiment ("fig3a", "fig6", "headline", ...) and return its tables,
/// or `None` for an unknown name (callers print [`all_experiments`] and fail loudly).
pub fn run_experiment(name: &str, scale: Scale) -> Option<Vec<Table>> {
    let tables = match name {
        "fig1" => vec![fig1::fig1()],
        "fig3a" => vec![fig3::fig3a(scale)],
        "fig3b" => vec![fig3::fig3b(scale)],
        "fig3c" => vec![fig3::fig3c(scale)],
        "fig3d" => vec![fig3::fig3d(scale)],
        "fig3e" => vec![fig3::fig3e(scale)],
        "headline" => vec![fig3::headline(scale)],
        "fig4a" => vec![fig4::fig4a(scale)],
        "fig4b" => vec![fig4::fig4b(scale)],
        "fig5a" => vec![fig5::fig5a(scale)],
        "fig5b" => vec![fig5::fig5b(scale)],
        "fig5c" => vec![fig5::fig5c(scale)],
        "fig6" => vec![fig67::fig6()],
        "fig7" => vec![fig67::fig7()],
        "fig8a" => vec![fig8::fig8a(scale)],
        "fig8b" => vec![fig8::fig8_fct_vs_size(fig8::ScaleTopology::FatTree, scale)],
        "fig8c" => vec![fig8::fig8_fct_vs_size(fig8::ScaleTopology::BCube, scale)],
        "fig8d" => vec![fig8::fig8_fct_vs_size(
            fig8::ScaleTopology::Jellyfish,
            scale,
        )],
        "fig8e" => vec![fig8::fig8e(scale)],
        "fig9a" => vec![fig9::fig9a(scale)],
        "fig9b" => vec![fig9::fig9b(scale)],
        "fig10" => vec![fig10::fig10(scale)],
        "fig11a" => vec![fig11::fig11a(scale)],
        "fig11b" => vec![fig11::fig11b(scale)],
        "fig11c" => vec![fig11::fig11c(scale)],
        "fig12" => vec![fig12::fig12(scale)],
        "coflow" => coflow::coflow(scale),
        "diag" => diag::diag(),
        "ablation" => ablation::ablation(scale),
        "engine_scale" => vec![scalebench::engine_scale(scale)],
        "wan" => vec![wan::wan(scale)],
        _ => return None,
    };
    Some(tables)
}

/// All experiment names, in paper order.
pub fn all_experiments() -> Vec<&'static str> {
    vec![
        "fig1",
        "fig3a",
        "fig3b",
        "fig3c",
        "fig3d",
        "fig3e",
        "headline",
        "fig4a",
        "fig4b",
        "fig5a",
        "fig5b",
        "fig5c",
        "fig6",
        "fig7",
        "fig8a",
        "fig8b",
        "fig8c",
        "fig8d",
        "fig8e",
        "fig9a",
        "fig9b",
        "fig10",
        "fig11a",
        "fig11b",
        "fig11c",
        "fig12",
        "coflow",
        "diag",
        "ablation",
        "engine_scale",
        "wan",
    ]
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
