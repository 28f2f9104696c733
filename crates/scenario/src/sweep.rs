//! The [`Sweep`] runner: fan a grid of scenarios across worker threads with
//! deterministic result ordering.
//!
//! Every scenario run is an independent single-threaded simulation, so a sweep
//! parallelizes perfectly: workers pull the next scenario index from a shared atomic
//! counter and write the summary into that scenario's slot. Results always come back
//! in scenario order, and each run's outcome is independent of the thread count —
//! `run(registry, 1)` and `run(registry, n)` return identical summaries.
//!
//! [`Sweep::run_cached`] layers the fingerprint-keyed [`ResultCache`] on top:
//! cached cells are returned without running, missing cells are computed (and,
//! under [`CachePolicy::ReadWrite`], stored as each one finishes — so an
//! interrupted sweep resumes from the missing cells only), and per-cell JSONL
//! records stream to a sink in completion order instead of buffering whole tables.

use std::fmt;
use std::io::Write;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pdq_workloads::{DeadlineDist, SizeDist};

use crate::cache::{jsonl_record, CachePolicy, ResultCache};
use crate::protocol::ProtocolRegistry;
use crate::scenario::{Scenario, ScenarioError};
use crate::stats::ReplicatedSummary;
use crate::summary::RunSummary;

/// Errors building a sweep grid.
#[derive(Clone, Debug, PartialEq)]
pub enum GridError {
    /// An axis was set to an empty list — the product would silently be empty.
    EmptyAxis(&'static str),
    /// An axis was set twice — the second call would silently overwrite the first.
    DuplicateAxis(&'static str),
    /// An axis does not apply to the base scenario's workload kind.
    Axis {
        /// The axis that failed to apply.
        axis: &'static str,
        /// Why (from the workload helper).
        message: String,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::EmptyAxis(axis) => write!(
                f,
                "grid axis {axis:?} is empty — an empty axis would silently yield an \
                 empty sweep; drop the axis or give it at least one value"
            ),
            GridError::DuplicateAxis(axis) => write!(
                f,
                "grid axis {axis:?} was set twice — the second value list would \
                 silently replace the first; give each axis once"
            ),
            GridError::Axis { axis, message } => {
                write!(f, "grid axis {axis:?} does not apply: {message}")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// Builder for an N-axis scenario grid: the cartesian product of any subset of
/// protocol × seed × load × flow-size × deadline applied to a base scenario.
///
/// Axes expand in that fixed canonical order (protocol-major, deadline-minor)
/// regardless of the call order; unset axes keep the base scenario's value. Every
/// produced scenario round-trips through the plain-text spec format, so any grid
/// cell can be re-run from a file. Each cell is named
/// `base[/protocol][/seed=N][/load=X][/size=S][/deadline=D]`, with a suffix per set
/// axis.
///
/// ```
/// use pdq_scenario::{GridBuilder, Scenario};
/// use pdq_workloads::SizeDist;
///
/// let sweep = GridBuilder::new(Scenario::new("fig"))
///     .protocols(&["pdq(full)", "tcp"])
///     .seeds(&[1, 2, 3])
///     .sizes(vec![SizeDist::Fixed(20_000), SizeDist::query()])
///     .build()
///     .unwrap();
/// assert_eq!(sweep.len(), 2 * 3 * 2);
/// assert!(GridBuilder::new(Scenario::new("fig")).seeds(&[]).build().is_err());
/// ```
#[derive(Clone, Debug)]
pub struct GridBuilder {
    base: Scenario,
    protocols: Option<Vec<String>>,
    seeds: Option<Vec<u64>>,
    loads: Option<Vec<f64>>,
    sizes: Option<Vec<SizeDist>>,
    deadlines: Option<Vec<DeadlineDist>>,
    /// First axis that was set twice, reported by [`GridBuilder::build`] — setting
    /// an axis twice used to silently overwrite the first value list.
    duplicate: Option<&'static str>,
}

impl GridBuilder {
    /// A grid over `base`: with no axes set, [`GridBuilder::build`] yields just
    /// `base` itself.
    pub fn new(base: Scenario) -> Self {
        GridBuilder {
            base,
            protocols: None,
            seeds: None,
            loads: None,
            sizes: None,
            deadlines: None,
            duplicate: None,
        }
    }

    fn set<T>(
        &mut self,
        axis: &'static str,
        slot: fn(&mut Self) -> &mut Option<Vec<T>>,
        v: Vec<T>,
    ) {
        if slot(self).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(axis);
        }
        *slot(self) = Some(v);
    }

    /// Sweep the protocol spec string. Calling this a second time is an error
    /// reported by [`GridBuilder::build`], as are the other axis setters.
    pub fn protocols(mut self, protocols: &[&str]) -> Self {
        let v = protocols.iter().map(|p| p.to_string()).collect();
        self.set("protocols", |b| &mut b.protocols, v);
        self
    }

    /// Sweep the seed.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.set("seeds", |b| &mut b.seeds, seeds.to_vec());
        self
    }

    /// Sweep the workload's load knob (see [`crate::WorkloadSpec::with_load`]).
    pub fn loads(mut self, loads: &[f64]) -> Self {
        self.set("loads", |b| &mut b.loads, loads.to_vec());
        self
    }

    /// Sweep the flow-size distribution (see [`crate::WorkloadSpec::with_sizes`]).
    pub fn sizes(mut self, sizes: Vec<SizeDist>) -> Self {
        self.set("sizes", |b| &mut b.sizes, sizes);
        self
    }

    /// Sweep the deadline distribution (see [`crate::WorkloadSpec::with_deadlines`]).
    pub fn deadlines(mut self, deadlines: Vec<DeadlineDist>) -> Self {
        self.set("deadlines", |b| &mut b.deadlines, deadlines);
        self
    }

    /// Expand the cartesian product. Errors on any empty axis (an empty axis would
    /// silently produce an empty sweep — the historical `Sweep::grid` footgun), on
    /// any axis set twice (the second list used to silently win), and on axes the
    /// base workload cannot express.
    pub fn build(&self) -> Result<Sweep, GridError> {
        if let Some(axis) = self.duplicate {
            return Err(GridError::DuplicateAxis(axis));
        }
        fn check<T>(axis: &'static str, values: &Option<Vec<T>>) -> Result<(), GridError> {
            match values {
                Some(v) if v.is_empty() => Err(GridError::EmptyAxis(axis)),
                _ => Ok(()),
            }
        }
        check("protocols", &self.protocols)?;
        check("seeds", &self.seeds)?;
        check("loads", &self.loads)?;
        check("sizes", &self.sizes)?;
        check("deadlines", &self.deadlines)?;

        let mut cells: Vec<(Scenario, String)> = vec![(self.base.clone(), self.base.name.clone())];
        // Expand one axis over every cell produced so far; earlier axes are major.
        fn expand<T: Clone>(
            cells: Vec<(Scenario, String)>,
            values: &Option<Vec<T>>,
            apply: impl Fn(&Scenario, &str, &T) -> Result<(Scenario, String), GridError>,
        ) -> Result<Vec<(Scenario, String)>, GridError> {
            let Some(values) = values else {
                return Ok(cells);
            };
            let mut out = Vec::with_capacity(cells.len() * values.len());
            for (scenario, name) in &cells {
                for v in values {
                    out.push(apply(scenario, name, v)?);
                }
            }
            Ok(out)
        }

        cells = expand(cells, &self.protocols, |s, name, p: &String| {
            Ok((s.clone().protocol(p.clone()), format!("{name}/{p}")))
        })?;
        cells = expand(cells, &self.seeds, |s, name, &seed| {
            Ok((s.clone().seed(seed), format!("{name}/seed={seed}")))
        })?;
        cells = expand(cells, &self.loads, |s, name, &load| {
            let workload = s
                .workload
                .with_load(load)
                .map_err(|message| GridError::Axis {
                    axis: "loads",
                    message,
                })?;
            Ok((s.clone().workload(workload), format!("{name}/load={load}")))
        })?;
        cells = expand(cells, &self.sizes, |s, name, sizes: &SizeDist| {
            let workload =
                s.workload
                    .with_sizes(sizes.clone())
                    .map_err(|message| GridError::Axis {
                        axis: "sizes",
                        message,
                    })?;
            Ok((s.clone().workload(workload), format!("{name}/size={sizes}")))
        })?;
        cells = expand(
            cells,
            &self.deadlines,
            |s, name, deadlines: &DeadlineDist| {
                let workload = s
                    .workload
                    .with_deadlines(deadlines.clone())
                    .map_err(|message| GridError::Axis {
                        axis: "deadlines",
                        message,
                    })?;
                Ok((
                    s.clone().workload(workload),
                    format!("{name}/deadline={deadlines}"),
                ))
            },
        )?;

        Ok(Sweep {
            scenarios: cells
                .into_iter()
                .map(|(scenario, name)| scenario.name(name))
                .collect(),
        })
    }
}

/// An ordered grid of scenarios to run, typically built with [`GridBuilder`].
#[derive(Clone, Debug, Default)]
pub struct Sweep {
    /// The scenarios, in result order.
    pub scenarios: Vec<Scenario>,
}

impl Sweep {
    /// A sweep over an explicit scenario list.
    pub fn new(scenarios: Vec<Scenario>) -> Self {
        Sweep { scenarios }
    }

    /// The protocol × seed product of a base scenario: one scenario per combination,
    /// named `base/protocol/seed=N`, in protocol-major order. Shorthand for a
    /// two-axis [`GridBuilder`]; panics on an empty axis (use [`GridBuilder::build`]
    /// to handle that as a `Result`).
    pub fn grid(base: &Scenario, protocols: &[&str], seeds: &[u64]) -> Self {
        GridBuilder::new(base.clone())
            .protocols(protocols)
            .seeds(seeds)
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of scenarios in the sweep.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when the sweep holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Run every scenario on up to `threads` worker threads and return the summaries
    /// in scenario order. The thread count never changes any result, only the
    /// wall-clock time; on error (e.g. an unresolvable protocol), dispatch of
    /// further cells stops — so large failing grids exit fast — and the error of
    /// the earliest failing scenario is returned.
    pub fn run(
        &self,
        registry: &ProtocolRegistry,
        threads: usize,
    ) -> Result<Vec<RunSummary>, ScenarioError> {
        self.run_cached(registry, threads, None, CachePolicy::Bypass, None)
            .map(|outcome| outcome.summaries)
    }

    /// [`Sweep::run`] against a persistent [`ResultCache`], streaming per-cell
    /// JSONL records to `sink` as each cell finishes.
    ///
    /// When `policy` reads, every cell is first looked up by request fingerprint
    /// and cached cells are returned without running; when it writes, each newly
    /// computed cell is stored the moment it completes — before the sweep
    /// finishes — so a killed sweep re-run restarts from the missing cells only.
    /// The merged summaries come back in scenario order either way, with the
    /// thread-count-independence guarantee of [`Sweep::run`] intact (cached and
    /// fresh summaries of the same scenario report identical headline metrics and
    /// determinism fingerprints).
    ///
    /// `sink` receives one [`jsonl_record`] line per cell in *completion* order
    /// (cache hits first, then executed cells as they finish; each line carries
    /// the cell's sweep index for re-sorting) rather than buffering the whole
    /// table. Error semantics match [`Sweep::run`]: the earliest failing
    /// scenario's error is returned and later cells stop dispatching — but cells
    /// already stored stay stored, which is exactly what makes an interrupted
    /// sweep resumable.
    pub fn run_cached(
        &self,
        registry: &ProtocolRegistry,
        threads: usize,
        cache: Option<&ResultCache>,
        policy: CachePolicy,
        sink: Option<&mut (dyn Write + Send)>,
    ) -> Result<SweepOutcome, ScenarioError> {
        let n = self.scenarios.len();
        let read_cache = cache.filter(|_| policy.reads());
        let write_cache = cache.filter(|_| policy.writes());
        let sink = sink.map(Mutex::new);
        let emit = |index: usize, summary: &RunSummary, cached: bool| {
            let Some(sink) = &sink else { return Ok(()) };
            let line = jsonl_record(index, &self.scenarios[index], summary, cached);
            writeln!(sink.lock().expect("jsonl sink poisoned"), "{line}")
                .map_err(|e| ScenarioError::Io(format!("jsonl sink: {e}")))
        };

        // Phase 1: consult the cache, streaming hits; collect the missing cells.
        let mut slots: Vec<Option<RunSummary>> = Vec::with_capacity(n);
        let mut missing: Vec<usize> = Vec::new();
        for (i, scenario) in self.scenarios.iter().enumerate() {
            let hit = read_cache.and_then(|c| c.lookup(scenario));
            match &hit {
                Some(summary) => emit(i, summary, true)?,
                None => missing.push(i),
            }
            slots.push(hit);
        }
        let cache_hits = n - missing.len();

        // Phase 2: run the missing cells. `stop_before` holds the smallest failing
        // position seen so far: after the first error no later cell is dispatched
        // (large failing grids exit fast), while earlier in-flight cells still
        // complete. Positions are claimed in order, so every cell before the
        // earliest failure runs to completion and the reported error is the
        // earliest failing scenario's on every thread count.
        let m = missing.len();
        let threads = threads.clamp(1, m.max(1));
        let outcomes: Vec<Mutex<Option<Result<RunSummary, ScenarioError>>>> =
            (0..m).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let stop_before = AtomicUsize::new(usize::MAX);
        let worker = || loop {
            let p = next.fetch_add(1, Ordering::Relaxed);
            if p >= m || p >= stop_before.load(Ordering::Relaxed) {
                break;
            }
            let index = missing[p];
            let scenario = &self.scenarios[index];
            let outcome = scenario.run(registry).and_then(|summary| {
                if let Some(c) = write_cache {
                    c.store(scenario, &summary).map_err(|e| {
                        ScenarioError::Io(format!(
                            "cache store for {:?} in {}: {e}",
                            scenario.name,
                            c.dir().display()
                        ))
                    })?;
                }
                emit(index, &summary, false)?;
                Ok(summary)
            });
            if outcome.is_err() {
                stop_before.fetch_min(p, Ordering::Relaxed);
            }
            *outcomes[p].lock().expect("sweep slot poisoned") = Some(outcome);
        };
        if threads <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(worker);
                }
            });
        }

        // Merge in scenario order. Claimed positions form a prefix, so the first
        // error in position order is the earliest failing scenario; an unclaimed
        // (None) slot can only follow it.
        let mut executed = 0;
        for (p, outcome) in outcomes.into_iter().enumerate() {
            match outcome.into_inner().expect("sweep slot poisoned") {
                Some(Ok(summary)) => {
                    executed += 1;
                    slots[missing[p]] = Some(summary);
                }
                Some(Err(e)) => return Err(e),
                None => break,
            }
        }
        Ok(SweepOutcome {
            summaries: slots
                .into_iter()
                .map(|s| s.expect("every sweep slot is filled on success"))
                .collect(),
            cache_hits,
            executed,
        })
    }

    /// Run every scenario `replicates` times under consecutive seeds and return one
    /// [`ReplicatedSummary`] per cell, in scenario order, with mean/stddev/95%-CI
    /// statistics across the seeds. The replicate runs are flattened into one
    /// work queue, so they parallelize across `threads` exactly like [`Sweep::run`]
    /// and results stay thread-count independent.
    ///
    /// Replicate `r` of a cell with base seed `s` runs seed `s.wrapping_add(r)`:
    /// the wrap is deliberate and documented, so a base seed near `u64::MAX`
    /// continues into 0, 1, … instead of panicking in debug builds (the historical
    /// `s + r` did exactly that, and silently wrapped in release). The replicate
    /// seeds stay pairwise distinct for any sane replicate count.
    pub fn run_replicated(
        &self,
        registry: &ProtocolRegistry,
        threads: usize,
        replicates: NonZeroUsize,
    ) -> Result<Vec<ReplicatedSummary>, ScenarioError> {
        self.run_replicated_cached(
            registry,
            threads,
            replicates,
            None,
            CachePolicy::Bypass,
            None,
        )
        .map(|outcome| outcome.cells)
    }

    /// [`Sweep::run_replicated`] against a persistent [`ResultCache`] with JSONL
    /// streaming — the replicate-expanded analogue of [`Sweep::run_cached`]. Each
    /// replicate run is cached as its own cell (they differ only in seed, hence in
    /// request fingerprint), so re-running with a higher `--replicate` reuses the
    /// seeds already computed.
    pub fn run_replicated_cached(
        &self,
        registry: &ProtocolRegistry,
        threads: usize,
        replicates: NonZeroUsize,
        cache: Option<&ResultCache>,
        policy: CachePolicy,
        sink: Option<&mut (dyn Write + Send)>,
    ) -> Result<ReplicatedOutcome, ScenarioError> {
        let k = replicates.get();
        let expanded = Sweep::new(
            self.scenarios
                .iter()
                .flat_map(|s| (0..k as u64).map(|r| s.clone().seed(s.seed.wrapping_add(r))))
                .collect(),
        );
        let outcome = expanded.run_cached(registry, threads, cache, policy, sink)?;
        Ok(ReplicatedOutcome {
            cells: outcome
                .summaries
                .chunks(k)
                .map(|cell| ReplicatedSummary::new(cell.to_vec()))
                .collect(),
            cache_hits: outcome.cache_hits,
            executed: outcome.executed,
        })
    }
}

/// The outcome of a cache-aware sweep ([`Sweep::run_cached`]): the merged
/// summaries in scenario order, plus how many cells were served from the cache
/// and how many actually executed (`cache_hits + executed == sweep.len()`).
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// One summary per scenario, in scenario order — cached cells carry
    /// [`crate::BackendResults::Cached`], executed cells the full results.
    pub summaries: Vec<RunSummary>,
    /// Cells returned from the cache without running.
    pub cache_hits: usize,
    /// Cells actually simulated this run.
    pub executed: usize,
}

/// The outcome of a cache-aware replicated sweep
/// ([`Sweep::run_replicated_cached`]); hit/executed counts are over the
/// replicate-expanded runs, so `cache_hits + executed == cells × replicates`.
#[derive(Clone, Debug)]
pub struct ReplicatedOutcome {
    /// One replicated summary per grid cell, in scenario order.
    pub cells: Vec<ReplicatedSummary>,
    /// Replicate runs returned from the cache without running.
    pub cache_hits: usize,
    /// Replicate runs actually simulated this run.
    pub executed: usize,
}

/// The default sweep width: the number of available CPU cores (1 if unknown).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

impl Scenario {
    /// Rename the scenario (used by [`Sweep::grid`] to tag grid points).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use proptest::{prop_assert, prop_assert_eq, proptest};

    #[test]
    fn empty_axes_are_descriptive_errors() {
        let base = Scenario::new("g");
        for (axis, builder) in [
            ("protocols", GridBuilder::new(base.clone()).protocols(&[])),
            ("seeds", GridBuilder::new(base.clone()).seeds(&[])),
            ("loads", GridBuilder::new(base.clone()).loads(&[])),
            ("sizes", GridBuilder::new(base.clone()).sizes(vec![])),
            (
                "deadlines",
                GridBuilder::new(base.clone()).deadlines(vec![]),
            ),
        ] {
            let err = builder.build().unwrap_err();
            assert_eq!(err, GridError::EmptyAxis(axis));
            assert!(err.to_string().contains(axis), "{err}");
        }
        // No axes at all: the grid is just the base scenario.
        let sweep = GridBuilder::new(base.clone()).build().unwrap();
        assert_eq!(sweep.len(), 1);
        assert_eq!(sweep.scenarios[0], base);
    }

    #[test]
    fn setting_an_axis_twice_is_an_error_not_a_silent_overwrite() {
        let base = Scenario::new("g");
        let err = GridBuilder::new(base.clone())
            .seeds(&[1, 2])
            .seeds(&[3])
            .build()
            .unwrap_err();
        assert_eq!(err, GridError::DuplicateAxis("seeds"));
        assert!(err.to_string().contains("set twice"), "{err}");
        // The first duplicated axis is the one reported, whatever follows it.
        let err = GridBuilder::new(base.clone())
            .protocols(&["tcp"])
            .protocols(&["rcp"])
            .seeds(&[])
            .build()
            .unwrap_err();
        assert_eq!(err, GridError::DuplicateAxis("protocols"));
        // Each axis once (even with the same values) stays fine.
        let sweep = GridBuilder::new(base)
            .seeds(&[1, 2])
            .protocols(&["tcp"])
            .build()
            .unwrap();
        assert_eq!(sweep.len(), 2);
    }

    #[test]
    fn inapplicable_axes_error_with_the_workload_kind() {
        // The default query-aggregation workload has no load knob.
        let err = GridBuilder::new(Scenario::new("g"))
            .loads(&[0.2, 0.4])
            .build()
            .unwrap_err();
        assert!(
            matches!(err, GridError::Axis { axis: "loads", .. }),
            "{err:?}"
        );
        // Manual workloads reject size and deadline sweeps.
        let manual = Scenario::new("m").workload(WorkloadSpec::Manual(vec![]));
        assert!(GridBuilder::new(manual.clone())
            .sizes(vec![SizeDist::Fixed(1)])
            .build()
            .is_err());
        assert!(GridBuilder::new(manual)
            .deadlines(vec![DeadlineDist::None])
            .build()
            .is_err());
    }

    proptest! {
        /// The grid is the full cartesian product in canonical axis order, whatever
        /// the axis lengths: |protocols| × |seeds| × |loads| × |sizes| cells, with
        /// protocol-major ordering and every cell's axis values round-tripping
        /// through the plain-text spec format.
        #[test]
        fn grid_product_count_and_ordering(np in 1usize..4, ns in 1usize..4, nl in 1usize..3, nz in 1usize..3) {
            let protocols: Vec<String> = (0..np).map(|i| format!("p{i}")).collect();
            let protocol_refs: Vec<&str> = protocols.iter().map(String::as_str).collect();
            let seeds: Vec<u64> = (1..=ns as u64).collect();
            let loads: Vec<f64> = (1..=nl).map(|i| i as f64 / 10.0).collect();
            let sizes: Vec<SizeDist> =
                (1..=nz).map(|i| SizeDist::Fixed(10_000 * i as u64)).collect();
            let base = Scenario::new("prop").workload(WorkloadSpec::PermutationAtLoad {
                load: 0.5,
                sizes: SizeDist::Fixed(1),
                deadlines: DeadlineDist::None,
            });
            let sweep = GridBuilder::new(base)
                .protocols(&protocol_refs)
                .seeds(&seeds)
                .loads(&loads)
                .sizes(sizes.clone())
                .build()
                .unwrap();
            prop_assert_eq!(sweep.len(), np * ns * nl * nz);
            for (i, s) in sweep.scenarios.iter().enumerate() {
                // Row-major decomposition of the cell index over the axis order.
                let (pi, rest) = (i / (ns * nl * nz), i % (ns * nl * nz));
                let (si, rest) = (rest / (nl * nz), rest % (nl * nz));
                let (li, zi) = (rest / nz, rest % nz);
                prop_assert_eq!(&s.protocol, &protocols[pi]);
                prop_assert_eq!(s.seed, seeds[si]);
                let WorkloadSpec::PermutationAtLoad { load, sizes: sz, .. } = &s.workload
                else { panic!("workload kind changed") };
                prop_assert!((load - loads[li]).abs() < 1e-12);
                prop_assert_eq!(sz, &sizes[zi]);
                prop_assert!(s.name.contains(&format!("/seed={}", seeds[si])));
                // Every cell round-trips through the spec format.
                let back = Scenario::from_spec(&s.to_spec()).unwrap();
                prop_assert_eq!(&back, s);
            }
        }
    }

    #[test]
    fn grid_is_protocol_major_and_named() {
        let base = Scenario::new("fig");
        let sweep = Sweep::grid(&base, &["tcp", "rcp"], &[1, 2]);
        assert_eq!(sweep.len(), 4);
        let names: Vec<&str> = sweep.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "fig/tcp/seed=1",
                "fig/tcp/seed=2",
                "fig/rcp/seed=1",
                "fig/rcp/seed=2"
            ]
        );
        assert_eq!(sweep.scenarios[3].protocol, "rcp");
        assert_eq!(sweep.scenarios[3].seed, 2);
    }

    #[test]
    fn empty_sweep_runs() {
        let reg = ProtocolRegistry::new();
        assert!(Sweep::default().run(&reg, 8).unwrap().is_empty());
    }

    #[test]
    fn unknown_protocol_surfaces_first_error() {
        let reg = ProtocolRegistry::new();
        let sweep = Sweep::grid(&Scenario::new("x"), &["nope"], &[1, 2]);
        let err = sweep.run(&reg, 2).unwrap_err();
        assert!(matches!(err, ScenarioError::Protocol(_)));
    }

    struct Idle;
    impl pdq_netsim::HostAgent for Idle {
        fn on_flow_arrival(&mut self, _: &pdq_netsim::FlowInfo, _: &mut pdq_netsim::Ctx) {}
        fn on_packet(&mut self, _: pdq_netsim::Packet, _: &mut pdq_netsim::Ctx) {}
        fn on_timer(
            &mut self,
            _: pdq_netsim::FlowId,
            _: pdq_netsim::TimerKind,
            _: u64,
            _: &mut pdq_netsim::Ctx,
        ) {
        }
    }

    struct Nop;
    impl crate::protocol::ProtocolInstaller for Nop {
        fn name(&self) -> String {
            "nop".into()
        }
        fn label(&self) -> String {
            "NOP".into()
        }
        fn install(&self, sim: &mut pdq_netsim::Simulator) {
            sim.install_agents(|_, _| Box::new(Idle));
        }
    }

    /// Like [`Nop`], but counts installs so tests can observe how many cells a
    /// sweep actually dispatched. Only the abort-on-first-error test uses it (the
    /// counter is process-global, so sharing it across tests would race).
    struct Counted;
    static COUNTED_INSTALLS: AtomicUsize = AtomicUsize::new(0);
    impl crate::protocol::ProtocolInstaller for Counted {
        fn name(&self) -> String {
            "counted".into()
        }
        fn label(&self) -> String {
            "COUNTED".into()
        }
        fn install(&self, sim: &mut pdq_netsim::Simulator) {
            COUNTED_INSTALLS.fetch_add(1, Ordering::Relaxed);
            sim.install_agents(|_, _| Box::new(Idle));
        }
    }

    fn nop_registry() -> ProtocolRegistry {
        let mut reg = ProtocolRegistry::new();
        reg.register_instance(std::sync::Arc::new(Nop));
        reg
    }

    #[test]
    fn replicated_cells_use_consecutive_seeds() {
        let reg = nop_registry();
        let sweep = Sweep::new(vec![
            Scenario::new("a").protocol("nop").seed(10),
            Scenario::new("b").protocol("nop").seed(20),
        ]);
        let k = NonZeroUsize::new(3).unwrap();
        let cells = sweep.run_replicated(&reg, 2, k).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].scenario, "a");
        assert_eq!(cells[0].seeds, vec![10, 11, 12]);
        assert_eq!(cells[1].seeds, vec![20, 21, 22]);
        for cell in &cells {
            assert_eq!(cell.runs.len(), 3);
            assert_eq!(cell.protocol_label, "NOP");
            // Flow counts are a real metric even for a no-op protocol.
            let stats = cell.stats_of(|r| Some(r.flows as f64)).unwrap();
            assert_eq!(stats.n, 3);
            assert!(stats.mean > 0.0);
        }
    }

    /// Regression: replicate seeds were computed as `s.seed + r`, which panics in
    /// debug builds (and silently wraps in release) when the base seed is near
    /// `u64::MAX`. The wrap is now explicit and the replicate seeds stay distinct.
    #[test]
    fn replicate_seeds_near_u64_max_wrap_without_panicking_or_duplicating() {
        let reg = nop_registry();
        let sweep = Sweep::new(vec![Scenario::new("max")
            .protocol("nop")
            .seed(u64::MAX - 1)]);
        let k = NonZeroUsize::new(4).unwrap();
        let cells = sweep.run_replicated(&reg, 2, k).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].seeds, vec![u64::MAX - 1, u64::MAX, 0, 1]);
        let mut unique = cells[0].seeds.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 4, "replicate seeds must stay distinct");
    }

    /// Regression: after one cell failed, the parallel runner kept dispatching
    /// every remaining scenario. Now dispatch stops at the first error, while the
    /// reported error is still the earliest failing scenario's on any thread count.
    #[test]
    fn parallel_sweep_stops_dispatching_after_the_first_error() {
        let mut reg = nop_registry();
        reg.register_instance(std::sync::Arc::new(Counted));
        // Cell 0 fails instantly (unknown protocol); 40 real cells follow. Without
        // the abort flag all 40 would simulate; with it, only the handful already
        // in flight when the failure lands do.
        let mut scenarios = vec![Scenario::new("bad-0").protocol("nope-early")];
        for i in 1..=40 {
            scenarios.push(Scenario::new(format!("ok-{i}")).protocol("counted").seed(i));
        }
        // A second, later failure must not win the error report.
        scenarios.insert(25, Scenario::new("bad-25").protocol("nope-late"));
        let sweep = Sweep::new(scenarios);
        let before = COUNTED_INSTALLS.load(Ordering::Relaxed);
        let err = sweep.run(&reg, 4).unwrap_err();
        let dispatched = COUNTED_INSTALLS.load(Ordering::Relaxed) - before;
        assert!(
            matches!(&err, ScenarioError::Protocol(e) if e.to_string().contains("nope-early")),
            "{err}"
        );
        assert!(
            dispatched < 20,
            "dispatch should stop after the first error; {dispatched} of 41 cells ran"
        );
        // Single-threaded agrees on the reported error.
        let serial = sweep.run(&reg, 1).unwrap_err();
        assert_eq!(serial, err);
    }

    fn temp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!(
            "pdq-sweep-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        ResultCache::open(dir).unwrap()
    }

    #[test]
    fn cached_rerun_executes_nothing_and_matches_the_first_run() {
        let reg = nop_registry();
        let sweep = Sweep::new(vec![
            Scenario::new("a").protocol("nop").seed(1),
            Scenario::new("b").protocol("nop").seed(2),
            Scenario::new("c").protocol("nop").seed(3),
        ]);
        let cache = temp_cache("rerun");
        let mut jsonl: Vec<u8> = Vec::new();
        let first = sweep
            .run_cached(
                &reg,
                2,
                Some(&cache),
                CachePolicy::ReadWrite,
                Some(&mut jsonl),
            )
            .unwrap();
        assert_eq!((first.cache_hits, first.executed), (0, 3));
        let mut jsonl2: Vec<u8> = Vec::new();
        let second = sweep
            .run_cached(
                &reg,
                2,
                Some(&cache),
                CachePolicy::ReadWrite,
                Some(&mut jsonl2),
            )
            .unwrap();
        assert_eq!((second.cache_hits, second.executed), (3, 0));
        for (a, b) in first.summaries.iter().zip(&second.summaries) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.flows, b.flows);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.mean_fct_secs, b.mean_fct_secs);
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert!(b.results.cached().is_some());
        }
        // The second run streamed every cell as a cache hit.
        let lines = String::from_utf8(jsonl2).unwrap();
        assert_eq!(lines.lines().count(), 3);
        assert!(
            lines.lines().all(|l| l.ends_with("\"cached\":true}")),
            "{lines}"
        );
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn interrupted_sweep_resumes_from_missing_cells_only() {
        let reg = nop_registry();
        let full = Sweep::new(vec![
            Scenario::new("a").protocol("nop").seed(1),
            Scenario::new("b").protocol("nop").seed(2),
            Scenario::new("c").protocol("nop").seed(3),
            Scenario::new("d").protocol("nop").seed(4),
        ]);
        let cache = temp_cache("resume");
        // Simulate an interrupted run: only the first two cells got stored.
        let partial = Sweep::new(full.scenarios[..2].to_vec());
        partial
            .run_cached(&reg, 1, Some(&cache), CachePolicy::ReadWrite, None)
            .unwrap();
        // The re-run computes exactly the two missing cells...
        let resumed = full
            .run_cached(&reg, 2, Some(&cache), CachePolicy::ReadWrite, None)
            .unwrap();
        assert_eq!((resumed.cache_hits, resumed.executed), (2, 2));
        // ...and the merged table equals an uncached run of the whole sweep.
        let reference = full.run(&reg, 1).unwrap();
        for (a, b) in resumed.summaries.iter().zip(&reference) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn read_only_and_bypass_policies_never_write() {
        let reg = nop_registry();
        let sweep = Sweep::new(vec![Scenario::new("a").protocol("nop").seed(1)]);
        let cache = temp_cache("policy");
        for policy in [CachePolicy::ReadOnly, CachePolicy::Bypass] {
            let outcome = sweep
                .run_cached(&reg, 1, Some(&cache), policy, None)
                .unwrap();
            assert_eq!((outcome.cache_hits, outcome.executed), (0, 1), "{policy:?}");
            assert_eq!(cache.stats().unwrap().records, 0, "{policy:?}");
        }
        // ReadWrite stores; a later Bypass run still ignores the record.
        sweep
            .run_cached(&reg, 1, Some(&cache), CachePolicy::ReadWrite, None)
            .unwrap();
        assert_eq!(cache.stats().unwrap().records, 1);
        let bypass = sweep
            .run_cached(&reg, 1, Some(&cache), CachePolicy::Bypass, None)
            .unwrap();
        assert_eq!((bypass.cache_hits, bypass.executed), (0, 1));
        std::fs::remove_dir_all(cache.dir()).ok();
    }
}
