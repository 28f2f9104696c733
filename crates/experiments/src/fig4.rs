//! Figure 4: impact of the sending pattern (Aggregation, Stride, Staggered Prob,
//! Random Permutation) on deadline and no-deadline performance, normalized to
//! PDQ(Full).

use pdq_scenario::{Scenario, TopologySpec, WorkloadSpec};
use pdq_workloads::{DeadlineDist, Pattern, SizeDist};

use crate::common::{
    fmt, labelled, mean_fct, protocol_table, seed_mean, supported, Scale, Table, PDQ_FULL,
};

fn patterns(scale: Scale) -> Vec<(String, Pattern)> {
    let patterns = scale.pick(
        vec![Pattern::Aggregation, Pattern::RandomPermutation],
        vec![
            Pattern::Aggregation,
            Pattern::Stride(1),
            Pattern::Stride(6),
            Pattern::StaggeredProb(0.7),
            Pattern::StaggeredProb(0.3),
            Pattern::RandomPermutation,
        ],
    );
    patterns.into_iter().map(|p| (p.label(), p)).collect()
}

fn pattern_scenario(
    name: &str,
    pattern: &Pattern,
    sizes: SizeDist,
    deadlines: DeadlineDist,
    flows_per_pair: usize,
) -> Scenario {
    Scenario::new(name)
        .topology(TopologySpec::PaperTree)
        .workload(WorkloadSpec::Pattern {
            pattern: pattern.clone(),
            sizes,
            deadlines,
            flows_per_pair,
        })
}

/// Figure 4a: flows supported at 99% application throughput for each sending pattern,
/// normalized to PDQ(Full).
pub fn fig4a(scale: Scale) -> Table {
    let seeds = scale.pick(vec![1], vec![1, 2]);
    // PDQ(Full) is the first column, so each row's base is set before it is used.
    let mut base = 1;
    protocol_table(
        "Figure 4a: flows at 99% application throughput by sending pattern (normalized to PDQ(Full))",
        "pattern",
        patterns(scale),
        &labelled(scale.protocols()),
        |pattern, p| {
            let mut v = supported(scale.pick(6, 16), &seeds, |n| {
                let (sizes, deadlines) = (SizeDist::query(), DeadlineDist::paper_default());
                pattern_scenario("fig4a", pattern, sizes, deadlines, n).protocol(p)
            });
            if p == PDQ_FULL {
                v = v.max(1);
                base = v;
            }
            fmt(v as f64 / base as f64)
        },
    )
}

/// Figure 4b: mean FCT for each sending pattern (no deadlines), normalized to
/// PDQ(Full).
pub fn fig4b(scale: Scale) -> Table {
    let seeds = scale.seeds();
    // PDQ(Full) is the first column, so each row's base is set before it is used.
    let mut base = 1.0;
    protocol_table(
        "Figure 4b: mean FCT by sending pattern (no deadlines, normalized to PDQ(Full))",
        "pattern",
        patterns(scale),
        &labelled(scale.protocols()),
        |pattern, p| {
            let sizes = SizeDist::UniformMean(100_000);
            let scenario = pattern_scenario("fig4b", pattern, sizes, DeadlineDist::None, 2);
            let v = seed_mean(&seeds, |s| mean_fct(&scenario.clone().protocol(p).seed(s)));
            if p == PDQ_FULL {
                base = v;
            }
            fmt(v / base.max(1e-9))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4b_quick_pdq_is_the_reference() {
        let t = fig4b(Scale::Quick);
        for row in &t.rows {
            let pdq: f64 = row[1].parse().unwrap();
            assert!((pdq - 1.0).abs() < 1e-9, "PDQ column is normalized to 1");
            // The fair-sharing baselines should not beat PDQ by much on mean FCT.
            let rcp: f64 = row[3].parse().unwrap();
            assert!(rcp > 0.8, "RCP normalized FCT: {rcp}");
        }
    }
}
