//! The benchmark's workloads: which committed specs each one runs, and why.
//! README.md in this directory has a paragraph on each.

use pdq_scenario::{GridBuilder, Scenario, Sweep};

/// A named set of inputs the benchmark runs, one rep after another (closed loop).
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    kind: Kind,
}

#[derive(Debug)]
enum Kind {
    /// One packet-level spec, run under each protocol in turn (`None`: as written).
    Packet {
        spec: &'static str,
        protocols: Option<&'static [&'static str]>,
    },
    /// The scenario-shell workload: a grid of small cells through `Sweep::run_cached`.
    Sweep,
}

/// What one rep of a workload executes, built afresh (spec parse included) per rep.
pub enum Plan {
    Scenarios(Vec<Scenario>),
    Sweep(Sweep),
}

/// Protocols `wan_paced` runs its spec under, in the `wan` experiment's table order.
const WAN_PROTOCOLS: &[&str] = &["tcp", "rcp", "d3", "pdq(full)"];
/// The Figure 5a Quick grid: quick protocol set x arrival rates [flows/s].
const FIG5A_PROTOCOLS: &[&str] = &["pdq(full)", "d3", "rcp", "tcp"];
const FIG5A_RATES: &[f64] = &[500.0, 1_000.0, 2_000.0];
/// Protocols with a flow-level model that the flow-backend cells run under.
const FLOW_PROTOCOLS: &[&str] = &["pdq(full)", "rcp", "d3"];
/// Cells in one `sweep_fig5a` rep.
pub const SWEEP_CELLS: usize = 16;

const FATTREE_STEADY: &str = include_str!("workloads/fattree_steady.scn");
const FATTREE_STEADY_2SHARD: &str = include_str!("workloads/fattree_steady_2shard.scn");
const FATTREE_BURST: &str = include_str!("workloads/fattree_burst.scn");
const WAN_PACED: &str = include_str!("workloads/wan_paced.scn");
const SWEEP_FIG5A: &str = include_str!("workloads/sweep_fig5a.scn");
const SWEEP_FLOW: &str = include_str!("workloads/sweep_flow.scn");
const SWEEP_FLUID: &str = include_str!("workloads/sweep_fluid.scn");
const SMOKE: &str = include_str!("workloads/smoke.scn");

/// The five workloads of `BENCHMARK.json`, in its order.
pub const BENCHMARK: [&str; 5] = [
    "fattree_steady",
    "fattree_steady_2shard",
    "fattree_burst",
    "wan_paced",
    "sweep_fig5a",
];

impl Workload {
    /// Look a workload up by name: one of [`BENCHMARK`], or `smoke`.
    pub fn named(name: &str) -> Option<Workload> {
        let packet = |spec| Kind::Packet {
            spec,
            protocols: None,
        };
        let (name, why, kind) = match name {
            "fattree_steady" => (
                "fattree_steady",
                "lightly loaded forwarding: per-event engine cost with short switch lists \
                 and a small event queue",
                packet(FATTREE_STEADY),
            ),
            "fattree_steady_2shard" => (
                "fattree_steady_2shard",
                "the same run on two engine shards: the only workload where the shard \
                 protocol does work",
                packet(FATTREE_STEADY_2SHARD),
            ),
            "fattree_burst" => (
                "fattree_burst",
                "10x overload: thousands of paused, probing flows, timers and preemptions \
                 at about the same event count",
                packet(FATTREE_BURST),
            ),
            "wan_paced" => (
                "wan_paced",
                "lossy high-BDP mesh with paced senders under tcp, rcp, d3 and pdq: \
                 far-future event tier, pacer, RTO paths, all baselines",
                Kind::Packet {
                    spec: WAN_PACED,
                    protocols: Some(WAN_PROTOCOLS),
                },
            ),
            "sweep_fig5a" => (
                "sweep_fig5a",
                "the scenario shell: 16 small cells on all three backends through the \
                 cached sweep runner, cold then warm",
                Kind::Sweep,
            ),
            "smoke" => (
                "smoke",
                "engine_scale_quick-sized input for `perf smoke` and the unit tests",
                packet(SMOKE),
            ),
            _ => return None,
        };
        Some(Workload { name, why, kind })
    }

    pub fn is_sweep(&self) -> bool {
        matches!(self.kind, Kind::Sweep)
    }

    /// Parse the workload's specs and build what one rep runs, every scenario on
    /// `seed` (`--seed` replaces each spec's `seed =` line; sweep cells derive
    /// theirs from it).
    pub fn plan(&self, seed: u64) -> Result<Plan, String> {
        let parse = |text: &str| -> Result<Scenario, String> {
            Scenario::from_spec(text)
                .map(|s| s.seed(seed))
                .map_err(|e| format!("{}: {e}", self.name))
        };
        match self.kind {
            Kind::Packet { spec, protocols } => {
                let base = parse(spec)?;
                Ok(Plan::Scenarios(match protocols {
                    None => vec![base],
                    Some(list) => list.iter().map(|p| base.clone().protocol(*p)).collect(),
                }))
            }
            Kind::Sweep => {
                let grid = GridBuilder::new(parse(SWEEP_FIG5A)?)
                    .protocols(FIG5A_PROTOCOLS)
                    .loads(FIG5A_RATES)
                    .build()
                    .map_err(|e| format!("{}: {e}", self.name))?;
                let mut cells = grid.scenarios;
                let flow = parse(SWEEP_FLOW)?;
                cells.extend(
                    FLOW_PROTOCOLS
                        .iter()
                        .map(|p| flow.clone().protocol(*p).name(format!("{}/{p}", flow.name))),
                );
                cells.push(parse(SWEEP_FLUID)?);
                debug_assert_eq!(cells.len(), SWEEP_CELLS);
                // Cell `i` runs on seed `16 * seed + i`: sixteen independent draws
                // make a rep's total work vary less from seed to seed than sixteen
                // cells sharing one arrival stream would.
                let cells = (0u64..)
                    .zip(cells)
                    .map(|(i, cell)| {
                        cell.seed(seed.wrapping_mul(SWEEP_CELLS as u64).wrapping_add(i))
                    })
                    .collect();
                Ok(Plan::Sweep(Sweep::new(cells)))
            }
        }
    }
}

/// The key a scenario's fingerprint digest is pinned and compared under.
pub fn cell_key(scenario: &Scenario) -> String {
    format!("{}[{}]", scenario.name, scenario.protocol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_scenario::SimBackend;

    #[test]
    fn every_benchmark_workload_builds_a_plan_on_any_seed() {
        for name in BENCHMARK.iter().chain(&["smoke"]) {
            let workload = Workload::named(name).expect(name);
            assert_eq!(workload.name, *name);
            assert!(workload.why.len() <= 200, "{name}: why is one line");
            match workload.plan(42).expect(name) {
                Plan::Scenarios(list) => {
                    assert!(!workload.is_sweep());
                    assert!(list.iter().all(|s| s.seed == 42));
                    let want = if *name == "wan_paced" { 4 } else { 1 };
                    assert_eq!(list.len(), want, "{name}");
                }
                Plan::Sweep(sweep) => {
                    assert!(workload.is_sweep());
                    assert_eq!(sweep.len(), SWEEP_CELLS);
                    let seeds: Vec<u64> = sweep.scenarios.iter().map(|s| s.seed).collect();
                    assert_eq!(seeds, (42 * 16..43 * 16).collect::<Vec<u64>>());
                }
            }
        }
        assert!(Workload::named("fattree").is_none());
    }

    #[test]
    fn the_two_shard_workload_differs_from_steady_only_in_shards() {
        let plan = |name| match Workload::named(name).unwrap().plan(1).unwrap() {
            Plan::Scenarios(mut list) => list.remove(0),
            Plan::Sweep(_) => unreachable!(),
        };
        let (one, two) = (plan("fattree_steady"), plan("fattree_steady_2shard"));
        assert_eq!((one.engine_threads, two.engine_threads), (1, 2));
        assert_eq!(two.engine_threads(1), one);
    }

    #[test]
    fn sweep_cells_have_distinct_keys_and_cover_three_backends() {
        let Plan::Sweep(sweep) = Workload::named("sweep_fig5a").unwrap().plan(1).unwrap() else {
            unreachable!()
        };
        let mut keys: Vec<String> = sweep.scenarios.iter().map(cell_key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), SWEEP_CELLS);
        let count = |b| sweep.scenarios.iter().filter(|s| s.backend == b).count();
        assert_eq!(count(SimBackend::Packet), 12);
        assert_eq!(count(SimBackend::Flow), 3);
        assert_eq!(count(SimBackend::Fluid), 1);
    }
}
