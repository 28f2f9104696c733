//! Command-line entry point: regenerate the PDQ paper's tables and figures, run
//! declarative scenario specs, and fan scenario sweeps across worker threads.
//!
//! ```text
//! pdq-experiments <experiment...|all> [--quick|--paper|--large|--huge]
//!                 [--engine-threads N] [--csv]
//! pdq-experiments list
//! pdq-experiments run-spec <file.scn> [--engine-threads N] [--fingerprint] [--csv]
//! pdq-experiments sweep [<base.scn>] [--quick|--paper] [--threads N] [--replicate K]
//!                       [--protocols A,B] [--seeds S1,S2] [--loads L1,L2]
//!                       [--sizes D1,D2] [--deadlines D1,D2]
//!                       [--cache-dir DIR] [--no-cache] [--jsonl FILE] [--csv]
//! pdq-experiments cache <stats|clear> [--cache-dir DIR]
//!
//!   <experiment>   one or more of the names `list` prints, or "all"
//!   list           print every experiment name and every registered protocol family,
//!                  grouped by the simulation backends the family supports
//!   run-spec       execute one scenario from a plain-text spec file (see README);
//!                  exits 2 when the spec's protocol lacks its backend.
//!                  --fingerprint prints only the run's determinism fingerprint
//!                  instead of the result table
//!   sweep          with no axis flags: the canonical fig5a protocol x deadline x
//!                  rate grid in parallel (--threads defaults to the CPU count).
//!                  With axis flags: the cartesian GridBuilder product of the given
//!                  axes over a base scenario — the fig5a base, or <base.scn> if a
//!                  spec file is named. Axis values are comma-separated lists
//!                  (--sizes/--deadlines take distribution tokens like fixed:20000
//!                  or paper); empty or malformed axes exit 2.
//!   cache          inspect (`stats`) or empty (`clear`) a result-cache directory
//!                  (default `.pdq-cache`, or --cache-dir DIR)
//!   --quick        the reduced quick-scale sweep (the default)
//!   --paper        run the full paper-scale parameter sweep
//!   --large        engine-stress scale: >=10k flows in engine_scale (figures as --paper)
//!   --huge         partitioned-engine stress scale: >=1M flows on a >=1024-host
//!                  fat-tree in engine_scale (figures as --paper)
//!   --engine-threads N  shard the packet engine across N conservative-lookahead
//!                  cores (default 1, one core); applies to every scenario that
//!                  does not pin engine_threads itself and leaves determinism
//!                  fingerprints unchanged
//!   --replicate K  run every sweep cell under K consecutive seeds and report
//!                  mean/stddev/95%-CI (Student-t) statistics per cell; cells x K
//!                  over 2^20 runs exits 2
//!   --cache-dir D  serve sweep cells from the fingerprint-keyed result cache in D,
//!                  storing newly computed cells as they finish — an interrupted
//!                  sweep re-run restarts from the missing cells only
//!   --no-cache     bypass the cache entirely (with --cache-dir: run and store
//!                  nothing)
//!   --jsonl FILE   stream one JSON line per sweep cell to FILE as it finishes,
//!                  instead of only the buffered end-of-run table
//!   --csv          print CSV instead of markdown
//! ```

use std::fmt::Display;
use std::io::Write;
use std::num::NonZeroUsize;
use std::str::FromStr;

use pdq_experiments::{all_experiments, run_experiment, sweeps, Scale, Table};
use pdq_scenario::{
    default_threads, CachePolicy, GridBuilder, GridError, ResultCache, Scenario, SimBackend, Sweep,
};
use pdq_workloads::{DeadlineDist, SizeDist};

/// The cache directory `cache` and `sweep --cache-dir` default to.
const DEFAULT_CACHE_DIR: &str = ".pdq-cache";

/// The most runs (cells × `--replicate` seeds) a sweep may expand to: 2²⁰.
const MAX_SWEEP_RUNS: usize = 1 << 20;

/// Print `msg` on stderr and exit 2, the CLI's code for every usage or input error.
fn fail(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Read and parse the scenario spec file at `path`.
fn read_spec(path: &str) -> Scenario {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    Scenario::from_spec(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")))
}

fn print_tables(tables: &[Table], heading: &str, csv: bool) {
    for t in tables {
        if csv {
            println!("# {heading}");
            print!("{}", t.to_csv());
        } else {
            println!("{}", t.to_markdown());
        }
    }
}

fn unknown_experiment(name: &str) -> ! {
    fail(format!(
        "unknown experiment: {name}\nexperiments: {}\n\
         (run `pdq-experiments list` for experiments and protocols)",
        all_experiments().join(" ")
    ))
}

fn cmd_list() {
    println!("experiments:");
    for name in all_experiments() {
        println!("  {name}");
    }
    // Group protocol families by the exact backend set they support, widest set
    // first (packet + flow + fluid, then packet + fluid, ..., packet only).
    type BackendGroups<'a> =
        std::collections::BTreeMap<(std::cmp::Reverse<usize>, String), Vec<(&'a str, &'a str)>>;
    let registry = pdq_experiments::common::registry();
    let mut groups: BackendGroups = BackendGroups::new();
    for (name, summary, backends) in registry.families_with_backends() {
        let key = backends
            .iter()
            .map(SimBackend::token)
            .collect::<Vec<_>>()
            .join(" + ");
        groups
            .entry((std::cmp::Reverse(backends.len()), key))
            .or_default()
            .push((name, summary));
    }
    for ((n_backends, key), members) in groups {
        if n_backends.0 > 1 {
            println!("\nprotocols ({key} backends):");
        } else {
            println!("\nprotocols ({key} backend only):");
        }
        for (name, summary) in members {
            println!("  {name:<8} {summary}");
        }
    }
}

fn cmd_run_spec(path: &str, csv: bool, fingerprint: bool) {
    // A spec that pins engine_threads wins over the --engine-threads flag.
    let scenario = pdq_experiments::common::with_engine_threads(read_spec(path));
    let summary = scenario
        .run(pdq_experiments::common::registry())
        .unwrap_or_else(|e| fail(format!("{path}: {e}")));
    if fingerprint {
        println!("{}", summary.fingerprint());
        return;
    }
    let table = sweeps::sweep_table(&format!("Scenario: {}", summary.scenario), &[summary]);
    print_tables(&[table], path, csv);
}

/// The parsed `sweep` axis flags: each is a comma-separated list that becomes one
/// [`GridBuilder`] axis.
#[derive(Default)]
struct AxisFlags {
    protocols: Option<Vec<String>>,
    seeds: Option<Vec<u64>>,
    loads: Option<Vec<f64>>,
    sizes: Option<Vec<SizeDist>>,
    deadlines: Option<Vec<DeadlineDist>>,
}

impl AxisFlags {
    fn any(&self) -> bool {
        self.protocols.is_some()
            || self.seeds.is_some()
            || self.loads.is_some()
            || self.sizes.is_some()
            || self.deadlines.is_some()
    }
}

/// Parse a comma-separated axis value list; exits 2 on empty or malformed values
/// so a typo'd axis never silently shrinks (or empties) the grid.
fn parse_axis<T: FromStr>(flag: &str, value: &str) -> Vec<T>
where
    T::Err: Display,
{
    let parts: Vec<&str> = value
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .collect();
    if parts.is_empty() {
        fail(format!(
            "{flag} needs a non-empty comma-separated list, got {value:?}"
        ));
    }
    parts
        .into_iter()
        .map(|p| {
            p.parse()
                .unwrap_or_else(|e| fail(format!("bad {flag} value {p:?}: {e}")))
        })
        .collect()
}

/// Build the sweep the CLI was asked for: the canonical fig5a grid when no axis
/// flag is given, otherwise the [`GridBuilder`] product of the given axes over the
/// base scenario (the fig5a base, or `base_spec` when a spec file is named).
fn build_sweep(scale: Scale, base_spec: Option<&str>, axes: &AxisFlags) -> (Sweep, &'static str) {
    if !axes.any() && base_spec.is_none() {
        return (sweeps::fig5a_grid(scale), "fig5a grid");
    }
    let base = base_spec.map_or_else(|| sweeps::fig5a_base(scale), read_spec);
    let mut grid = GridBuilder::new(base);
    if let Some(protocols) = &axes.protocols {
        let refs: Vec<&str> = protocols.iter().map(String::as_str).collect();
        grid = grid.protocols(&refs);
    }
    if let Some(seeds) = &axes.seeds {
        grid = grid.seeds(seeds);
    }
    if let Some(loads) = &axes.loads {
        grid = grid.loads(loads);
    }
    if let Some(sizes) = &axes.sizes {
        grid = grid.sizes(sizes.clone());
    }
    if let Some(deadlines) = &axes.deadlines {
        grid = grid.deadlines(deadlines.clone());
    }
    match grid.build() {
        Ok(sweep) => (sweep, "custom grid"),
        // An axis the workload refuses is a bad value of the flag that set it.
        Err(GridError::Axis { axis, message }) => fail(format!("bad --{axis} value: {message}")),
        Err(e) => fail(format!("sweep grid: {e}")),
    }
}

/// The parsed `sweep` cache/streaming flags.
#[derive(Default)]
struct CacheFlags {
    cache_dir: Option<String>,
    no_cache: bool,
    jsonl: Option<String>,
}

impl CacheFlags {
    fn any(&self) -> bool {
        self.cache_dir.is_some() || self.no_cache || self.jsonl.is_some()
    }

    /// Open the result cache (if any) and pick the policy: `--no-cache` bypasses
    /// even an explicit `--cache-dir`.
    fn open_cache(&self) -> (Option<ResultCache>, CachePolicy) {
        match &self.cache_dir {
            Some(dir) if !self.no_cache => (Some(open_cache_dir(dir)), CachePolicy::ReadWrite),
            _ => (None, CachePolicy::Bypass),
        }
    }

    /// Open the `--jsonl` sink for writing (truncating any previous stream).
    fn open_sink(&self) -> Option<std::fs::File> {
        let path = self.jsonl.as_ref()?;
        Some(
            std::fs::File::create(path)
                .unwrap_or_else(|e| fail(format!("cannot create {path}: {e}"))),
        )
    }
}

fn open_cache_dir(dir: &str) -> ResultCache {
    ResultCache::open(dir).unwrap_or_else(|e| fail(format!("cannot open cache dir {dir}: {e}")))
}

fn cmd_sweep(
    scale: Scale,
    threads: usize,
    replicate: NonZeroUsize,
    csv: bool,
    base_spec: Option<&str>,
    axes: &AxisFlags,
    cache_flags: &CacheFlags,
) {
    let (sweep, grid_label) = build_sweep(scale, base_spec, axes);
    // Every replicate run is expanded into a scenario before the first one runs.
    let runs = sweep.len().checked_mul(replicate.get());
    if runs.is_none_or(|n| n > MAX_SWEEP_RUNS) {
        fail(format!(
            "--replicate {replicate}: {} cells x {replicate} seeds is more than the \
             {MAX_SWEEP_RUNS} runs a sweep may expand to",
            sweep.len()
        ));
    }
    let registry = pdq_experiments::common::registry();
    let (cache, policy) = cache_flags.open_cache();
    let mut sink_file = cache_flags.open_sink();
    let sink = sink_file.as_mut().map(|f| f as &mut (dyn Write + Send));
    let started = std::time::Instant::now();
    // One replicate per cell runs each cell under its own seed, exactly as
    // `Sweep::run_cached` would.
    let outcome = sweep
        .run_replicated_cached(registry, threads, replicate, cache.as_ref(), policy, sink)
        .unwrap_or_else(|e| fail(format!("sweep failed: {e}")));
    let cells = outcome.cells.len();
    let table = if replicate.get() > 1 {
        let title = format!("Sweep: {grid_label}, {cells} cells x {replicate} seeds");
        sweeps::replicated_table(&title, &outcome.cells)
    } else {
        let summaries: Vec<_> = outcome.cells.into_iter().flat_map(|c| c.runs).collect();
        sweeps::sweep_table(
            &format!("Sweep: {grid_label}, {cells} scenarios"),
            &summaries,
        )
    };
    let wall = started.elapsed().as_secs_f64();
    let (hits, executed) = (outcome.cache_hits, outcome.executed);
    print_tables(&[table], "sweep", csv);
    eprintln!(
        "sweep: {} runs ({hits} cache hits, {executed} executed) \
         on {threads} thread(s) in {wall:.3} s",
        hits + executed
    );
}

fn cmd_cache(action: &str, dir: &str) {
    let cache = open_cache_dir(dir);
    match action {
        "stats" => {
            let stats = cache
                .stats()
                .unwrap_or_else(|e| fail(format!("cache stats failed for {dir}: {e}")));
            println!(
                "cache {dir}: {} record(s), {} byte(s)",
                stats.records, stats.bytes
            );
            println!(
                "  by backend: {} packet, {} flow, {} fluid",
                stats.packet_records, stats.flow_records, stats.fluid_records
            );
        }
        "clear" => {
            let removed = cache
                .clear()
                .unwrap_or_else(|e| fail(format!("cache clear failed for {dir}: {e}")));
            println!("cache {dir}: removed {removed} record(s)");
        }
        other => fail(format!(
            "unknown cache action: {other} (expected stats or clear)"
        )),
    }
}

/// Flags that consume the following argument as their value.
const VALUED_FLAGS: [&str; 10] = [
    "--threads",
    "--engine-threads",
    "--replicate",
    "--protocols",
    "--seeds",
    "--loads",
    "--sizes",
    "--deadlines",
    "--cache-dir",
    "--jsonl",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!(
            "usage: pdq-experiments <experiment...|all|list|run-spec <file>|sweep [<base.scn>]|\
             cache <stats|clear>> \
             [--quick|--paper|--large|--huge] [--engine-threads N] [--fingerprint] \
             [--threads N] [--replicate K] \
             [--protocols A,B] [--seeds S1,S2] [--loads L1,L2] [--sizes D1,D2] \
             [--deadlines D1,D2] [--cache-dir DIR] [--no-cache] [--jsonl FILE] [--csv]"
        );
        eprintln!("experiments: {}", all_experiments().join(" "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let scale_flags: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| matches!(*a, "--quick" | "--paper" | "--large" | "--huge"))
        .collect();
    if scale_flags.len() > 1 {
        fail(format!(
            "conflicting scale flags: {}",
            scale_flags.join(" ")
        ));
    }
    let scale = match scale_flags.first() {
        Some(&"--huge") => Scale::Huge,
        Some(&"--large") => Scale::Large,
        Some(&"--paper") => Scale::Paper,
        _ => Scale::Quick,
    };
    let csv = args.iter().any(|a| a == "--csv");
    let string_flag = |flag: &'static str| -> Option<String> {
        let mut found: Option<String> = None;
        for (i, a) in args.iter().enumerate() {
            if a != flag {
                continue;
            }
            if found.is_some() {
                fail(format!("{flag} was set twice — give each flag once"));
            }
            let value = args.get(i + 1).cloned();
            found = Some(value.unwrap_or_else(|| fail(format!("{flag} needs a value"))));
        }
        found
    };
    let valued_flag =
        |flag: &'static str| -> Option<Option<usize>> { string_flag(flag).map(|v| v.parse().ok()) };
    let threads = match valued_flag("--threads") {
        None | Some(Some(0)) => default_threads(), // 0 = auto-detect, like no flag
        Some(Some(n)) => n,
        Some(None) => fail("--threads needs an integer (0 auto-detects the core count)"),
    };
    match valued_flag("--engine-threads").map(|n| n.and_then(|n| u32::try_from(n).ok())) {
        None => {}
        Some(Some(n)) if n >= 1 => pdq_experiments::common::set_engine_threads(n),
        Some(_) => {
            fail("--engine-threads needs a shard count of at least 1 (omit it for one shard)")
        }
    }
    let replicate = match valued_flag("--replicate") {
        None => NonZeroUsize::MIN,
        Some(n) => n
            .and_then(NonZeroUsize::new)
            .unwrap_or_else(|| fail("--replicate needs a positive seed count, e.g. --replicate 3")),
    };
    let axes = AxisFlags {
        protocols: string_flag("--protocols").map(|v| parse_axis("--protocols", &v)),
        seeds: string_flag("--seeds").map(|v| parse_axis("--seeds", &v)),
        loads: string_flag("--loads").map(|v| parse_axis("--loads", &v)),
        sizes: string_flag("--sizes").map(|v| parse_axis("--sizes", &v)),
        deadlines: string_flag("--deadlines").map(|v| parse_axis("--deadlines", &v)),
    };
    let mut positional: Vec<String> = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if VALUED_FLAGS.contains(&a.as_str()) {
            skip_next = true;
            continue;
        }
        if let Some(flag) = a.strip_prefix("--") {
            if !matches!(
                flag,
                "quick" | "paper" | "large" | "huge" | "csv" | "no-cache" | "fingerprint"
            ) {
                fail(format!("unknown flag: --{flag}"));
            }
            continue;
        }
        positional.push(a.clone());
    }
    let cache_flags = CacheFlags {
        cache_dir: string_flag("--cache-dir"),
        no_cache: args.iter().any(|a| a == "--no-cache"),
        jsonl: string_flag("--jsonl"),
    };

    let subcommand = positional.first().map(String::as_str);
    if args.iter().any(|a| a == "--fingerprint") && subcommand != Some("run-spec") {
        fail("--fingerprint only applies to run-spec");
    }
    if axes.any() && subcommand != Some("sweep") {
        fail("axis flags (--protocols/--seeds/--loads/--sizes/--deadlines) only apply to sweep");
    }
    if cache_flags.any() && !matches!(subcommand, Some("sweep") | Some("cache")) {
        fail("cache flags (--cache-dir/--no-cache/--jsonl) only apply to sweep and cache");
    }
    if (cache_flags.no_cache || cache_flags.jsonl.is_some()) && subcommand == Some("cache") {
        fail("the cache subcommand only takes --cache-dir");
    }
    match subcommand {
        Some("list") => return cmd_list(),
        Some("run-spec") => {
            let Some(path) = positional.get(1) else {
                fail(
                    "usage: pdq-experiments run-spec <file.scn> \
                     [--engine-threads N] [--fingerprint] [--csv]",
                );
            };
            return cmd_run_spec(path, csv, args.iter().any(|a| a == "--fingerprint"));
        }
        Some("sweep") => {
            let base_spec = positional.get(1).map(String::as_str);
            let threads = threads.max(1);
            return cmd_sweep(
                scale,
                threads,
                replicate,
                csv,
                base_spec,
                &axes,
                &cache_flags,
            );
        }
        Some("cache") => {
            let Some(action) = positional.get(1) else {
                fail("usage: pdq-experiments cache <stats|clear> [--cache-dir DIR]");
            };
            let dir = cache_flags.cache_dir.as_deref();
            return cmd_cache(action, dir.unwrap_or(DEFAULT_CACHE_DIR));
        }
        _ => {}
    }

    let names: Vec<String> = if positional.iter().any(|n| n == "all") {
        all_experiments().iter().map(|s| s.to_string()).collect()
    } else {
        positional
    };
    if names.is_empty() {
        unknown_experiment("(none)");
    }
    for n in &names {
        match run_experiment(n, scale) {
            Some(tables) => print_tables(&tables, n, csv),
            None => unknown_experiment(n),
        }
    }
}
