//! Pre-built scenario grids for the `sweep` CLI subcommand and the sweep benchmarks.
//!
//! The canonical grid is the Figure 5a ladder — protocol × deadline × arrival-rate on
//! the VL2-like workload — expressed as one flat [`Sweep`] so the runner can fan it
//! across worker threads. Unlike [`crate::fig5::fig5a`] (which walks each rate ladder
//! sequentially and stops at the first miss), the grid runs every point, which is what
//! makes it embarrassingly parallel and lets one call answer "who supports what rate"
//! for the whole protocol set.

use pdq_scenario::{ReplicatedSummary, RunSummary, SummaryStats, Sweep};

use crate::common::{fmt, Scale, Table};
use crate::fig5::{fig5a_axes, fig5a_scenario};

/// The base scenario custom CLI grids expand over when no spec file is named: the
/// fig5a cell at the scale's first deadline and first arrival rate. Its Poisson
/// workload has a load knob (the arrival rate), so all five
/// [`GridBuilder`](pdq_scenario::GridBuilder) axes — protocols, seeds, loads, sizes,
/// deadlines — apply to it.
pub fn fig5a_base(scale: Scale) -> pdq_scenario::Scenario {
    let (deadlines, rates, duration) = fig5a_axes(scale);
    fig5a_scenario(rates[0], deadlines[0], duration)
}

/// The Figure 5a protocol × deadline × rate grid at the given scale.
pub fn fig5a_grid(scale: Scale) -> Sweep {
    let (deadlines, rates, duration) = fig5a_axes(scale);
    let mut scenarios = Vec::new();
    for &p in scale.protocols() {
        for &dl in &deadlines {
            for &rate in &rates {
                scenarios.push(fig5a_scenario(rate, dl, duration).protocol(p));
            }
        }
    }
    Sweep::new(scenarios)
}

/// Render sweep results as a table: one row per grid point, in sweep order. When any
/// result carries coflow metrics, coflow count and mean CCT columns are appended
/// (coflow-free tables keep their historical shape byte for byte).
pub fn sweep_table(title: &str, results: &[RunSummary]) -> Table {
    let with_coflows = results.iter().any(|r| r.coflows > 0);
    let mut columns = vec![
        "scenario",
        "protocol",
        "flows",
        "completed",
        "app throughput",
        "mean FCT [ms]",
    ];
    if with_coflows {
        columns.extend(["coflows", "mean CCT [ms]"]);
    }
    let mut table = Table::new(title, &columns);
    for r in results {
        let mut row = vec![
            r.scenario.clone(),
            r.protocol_label.clone(),
            r.flows.to_string(),
            r.completed.to_string(),
            r.application_throughput()
                .map(fmt)
                .unwrap_or_else(|| "-".into()),
            r.mean_fct_secs
                .map(|v| fmt(v * 1e3))
                .unwrap_or_else(|| "-".into()),
        ];
        if with_coflows {
            row.push(r.coflows.to_string());
            row.push(
                r.mean_cct_secs
                    .map(|v| fmt(v * 1e3))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        table.push_row(row);
    }
    table
}

/// Render replicated sweep results as a table: one row per grid cell with
/// mean ± 95%-CI statistics across the cell's seeds.
pub fn replicated_table(title: &str, results: &[ReplicatedSummary]) -> Table {
    let fmt_stats =
        |s: Option<SummaryStats>| s.map(|s| s.to_string()).unwrap_or_else(|| "-".into());
    let mut table = Table::new(
        title,
        &[
            "scenario",
            "protocol",
            "seeds",
            "app throughput (mean ± 95% CI)",
            "mean FCT [ms] (mean ± 95% CI)",
            "completed (mean ± 95% CI)",
        ],
    );
    for r in results {
        table.push_row(vec![
            r.scenario.clone(),
            r.protocol_label.clone(),
            r.runs.len().to_string(),
            fmt_stats(r.application_throughput_stats()),
            fmt_stats(r.mean_fct_stats().map(|s| SummaryStats {
                mean: s.mean * 1e3,
                stddev: s.stddev * 1e3,
                ci95: s.ci95 * 1e3,
                ..s
            })),
            fmt_stats(r.completed_stats()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::registry;

    #[test]
    fn quick_grid_covers_protocols_times_rates() {
        let sweep = fig5a_grid(Scale::Quick);
        // 4 quick protocols × 1 deadline × 3 rates.
        assert_eq!(sweep.len(), 12);
        // Every scenario resolves against the default registry.
        for s in &sweep.scenarios {
            assert!(registry().resolve(&s.protocol).is_ok(), "{}", s.protocol);
        }
    }

    #[test]
    fn replicated_sweep_renders_stats_per_cell() {
        let mut sweep = fig5a_grid(Scale::Quick);
        sweep.scenarios.truncate(2);
        let k = std::num::NonZeroUsize::new(3).unwrap();
        let cells = sweep.run_replicated(registry(), 2, k).unwrap();
        assert_eq!(cells.len(), 2);
        let table = replicated_table("replicated", &cells);
        assert_eq!(table.rows.len(), 2);
        // Each row reports the replicate count and a "mean ± ci" cell.
        assert_eq!(table.rows[0][2], "3");
        assert!(table.rows[0][4].contains('±'), "{:?}", table.rows[0]);
    }

    #[test]
    fn sweep_results_are_thread_count_independent() {
        // A tiny sub-grid (PDQ only) run on 1 and 3 threads must agree exactly.
        let mut sweep = fig5a_grid(Scale::Quick);
        sweep.scenarios.truncate(3);
        let one = sweep.run(registry(), 1).unwrap();
        let many = sweep.run(registry(), 3).unwrap();
        assert_eq!(one.len(), many.len());
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }
}
