//! Shared experiment machinery: the experiment [`Scale`], the default protocol
//! registry, scenario execution helpers, the seed average, binary search for the
//! "flows supported at 99% application throughput" metric, and table output —
//! including [`protocol_table`], the axis × protocol shape most figures share.
//!
//! Every scheme the paper evaluates — the four PDQ variants, the Figure 10/12
//! information models, M-PDQ, D3, RCP and TCP — installs through the open
//! [`pdq_scenario::ProtocolInstaller`] registry; figures refer to protocols by spec
//! string (`pdq(full)`, `mpdq(3)`, `tcp`, ...) and get their table labels from the
//! installers, so adding a scheme never touches figure code.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use pdq_scenario::{ProtocolRegistry, RunSummary, Scenario};

pub use pdq_scenario::run_packet_level;

/// Experiment scale: `Quick` keeps runtimes in seconds (used by tests and benches),
/// `Paper` sweeps the full parameter ranges of the figures, and `Large` / `Huge`
/// additionally unlock the engine-stress tiers of the engine-scale scenario
/// ([`crate::scalebench::engine_scale`]) used to benchmark the packet engine itself.
/// Figure sweeps treat `Large` and `Huge` like `Paper` (see [`Scale::pick`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sweep, fewer seeds and protocols.
    Quick,
    /// The paper's parameter ranges.
    Paper,
    /// Engine-stress scale: ≥10k flows on a fat-tree in the `engine_scale` scenario
    /// (figure experiments fall back to the `Paper` ranges).
    Large,
    /// Partitioned-engine stress scale: ≥1024 hosts and ≥1M flows in the
    /// `engine_scale` scenario — the tier the sharded engine exists for (figure
    /// experiments fall back to the `Paper` ranges).
    Huge,
}

impl Scale {
    /// `quick` at [`Scale::Quick`], `paper` at every larger scale.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        if self == Scale::Quick {
            quick
        } else {
            paper
        }
    }

    /// The seeds a figure averages over.
    pub(crate) fn seeds(self) -> Vec<u64> {
        self.pick(vec![1], vec![1, 2, 3])
    }

    /// The protocols a figure compares, PDQ(Full) first.
    pub(crate) fn protocols(self) -> &'static [&'static str] {
        self.pick(QUICK_PROTOCOLS, PAPER_PROTOCOLS)
    }
}

/// The canonical complete protocol, used as the normalization baseline everywhere.
pub const PDQ_FULL: &str = "pdq(full)";

/// The protocol set most figures compare at paper scale: PDQ variants, D3, RCP and
/// TCP.
pub const PAPER_PROTOCOLS: &[&str] = &[
    PDQ_FULL,
    "pdq(es+et)",
    "pdq(es)",
    "pdq(basic)",
    "d3",
    "rcp",
    "tcp",
];

/// The reduced set the quick configurations compare.
pub const QUICK_PROTOCOLS: &[&str] = &[PDQ_FULL, "d3", "rcp", "tcp"];

/// A fresh registry with every scheme the paper evaluates registered: the `pdq` and
/// `mpdq` families plus the `tcp`, `rcp` and `d3` baselines.
pub fn default_registry() -> ProtocolRegistry {
    let mut registry = ProtocolRegistry::new();
    pdq::register_pdq(&mut registry);
    pdq_baselines::register_baselines(&mut registry);
    registry
}

/// The shared registry the figure modules and the CLI resolve against.
pub fn registry() -> &'static ProtocolRegistry {
    static REGISTRY: OnceLock<ProtocolRegistry> = OnceLock::new();
    REGISTRY.get_or_init(default_registry)
}

/// The table label a protocol spec resolves to (via the shared registry).
pub fn label_of(protocol: &str) -> String {
    registry().label(protocol).unwrap_or_else(|e| panic!("{e}"))
}

/// One table column per protocol, headed by its registry label.
pub fn labelled<'a>(protocols: &[&'a str]) -> Vec<(String, &'a str)> {
    protocols.iter().map(|p| (label_of(p), *p)).collect()
}

/// The process-wide packet-engine shard count (`--engine-threads`), applied to every
/// scenario that keeps the one-shard default.
static ENGINE_THREADS: AtomicU32 = AtomicU32::new(1);

/// Set the process-wide packet-engine shard count: 1 (default) runs one core, N ≥ 2
/// shards every figure scenario.
pub fn set_engine_threads(threads: u32) {
    ENGINE_THREADS.store(threads, Ordering::Relaxed);
}

/// The process-wide shard count.
pub fn engine_threads() -> u32 {
    ENGINE_THREADS.load(Ordering::Relaxed)
}

/// Apply the process-wide shard count to a scenario that keeps the one-shard
/// default; a scenario (or spec file) that pins its own count wins.
pub fn with_engine_threads(scenario: Scenario) -> Scenario {
    let threads = engine_threads();
    if threads != 1 && scenario.engine_threads == 1 {
        scenario.engine_threads(threads)
    } else {
        scenario
    }
}

/// Run one scenario through `registry`, under the process-wide `--engine-threads`
/// override. Panics on unresolvable protocols — figure code only uses registered
/// names.
pub fn run_in(registry: &ProtocolRegistry, scenario: &Scenario) -> RunSummary {
    with_engine_threads(scenario.clone())
        .run(registry)
        .unwrap_or_else(|e| panic!("scenario {:?}: {e}", scenario.name))
}

/// Run one scenario through the shared registry ([`run_in`]).
pub fn run_scenario(scenario: &Scenario) -> RunSummary {
    run_in(registry(), scenario)
}

/// Print `label`, then a packet run's event-queue and engine counters, on stderr:
/// per-run telemetry, kept off the byte-compared stdout tables.
pub fn print_engine_counters(label: &str, res: &RunSummary) {
    if let Some(r) = res.results.packet() {
        let q = &r.queue;
        eprintln!(
            "{label} event queue pushes={} pops={} peak_pending={} overflow_migrations={} \
             buckets_sorted={}; engine {}",
            q.pushes, q.pops, q.peak_pending, q.overflow_migrations, q.buckets_sorted, r.engine
        );
    }
}

/// Application throughput of one run (1.0 when no flow has a deadline).
pub fn app_throughput(scenario: &Scenario) -> f64 {
    run_scenario(scenario)
        .application_throughput()
        .unwrap_or(1.0)
}

/// Mean FCT of one run in seconds (10 s when no flow completed).
pub fn mean_fct(scenario: &Scenario) -> f64 {
    run_scenario(scenario).mean_fct_secs.unwrap_or(10.0)
}

/// The mean of `metric` over `seeds`, summed in seed order.
pub fn seed_mean(seeds: &[u64], mut metric: impl FnMut(u64) -> f64) -> f64 {
    seeds.iter().fold(0.0, |sum, &s| sum + metric(s)) / seeds.len() as f64
}

/// Flows supported at 99% application throughput: the largest `n` in `[1, max_n]`
/// whose `scenario(n)`, averaged over `seeds`, still meets the target (see
/// [`max_supported`]).
pub fn supported(max_n: usize, seeds: &[u64], scenario: impl Fn(usize) -> Scenario) -> usize {
    max_supported(max_n, 0.99, |n| {
        seed_mean(seeds, |s| app_throughput(&scenario(n).seed(s)))
    })
}

/// Binary-search the largest `n` in `[1, max_n]` for which `metric(n) >= target`.
/// `metric` is assumed to be (noisily) non-increasing in `n`; the search is the same
/// procedure the paper uses to find the number of flows supported at 99% application
/// throughput (Figure 3c, 4a, 5a).
pub fn max_supported<F>(max_n: usize, target: f64, mut metric: F) -> usize
where
    F: FnMut(usize) -> f64,
{
    if metric(1) < target {
        return 0;
    }
    let (mut lo, mut hi) = (1, max_n + 1); // lo satisfies the target, hi fails
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if metric(mid) >= target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The axis × protocol table most figures share: one row per `(label, value)` of
/// `rows`, a first column headed `row_header`, then one column per `(header,
/// protocol)` whose cells are `cell(value, protocol)`, computed row by row in column
/// order.
pub fn protocol_table<R>(
    title: &str,
    row_header: &str,
    rows: impl IntoIterator<Item = (String, R)>,
    columns: &[(String, &str)],
    mut cell: impl FnMut(&R, &str) -> String,
) -> Table {
    let mut headers = vec![row_header];
    headers.extend(columns.iter().map(|(h, _)| h.as_str()));
    let mut table = Table::new(title, &headers);
    for (label, value) in rows {
        let mut row = vec![label];
        row.extend(columns.iter().map(|(_, p)| cell(&value, p)));
        table.push_row(row);
    }
    table
}

/// A printable experiment result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (figure number and what it reproduces).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of stringified cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for r in &self.rows {
            out.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        out
    }

    /// Render as CSV (no title).
    pub fn to_csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a float with three significant decimals for table cells.
pub fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

/// Format an optional float.
pub fn fmt_opt(v: Option<f64>) -> String {
    v.map(fmt).unwrap_or_else(|| "-".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering() {
        let mut t = Table::new("Fig X", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Fig X"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn protocol_table_fills_rows_by_column() {
        let columns = [("A".to_string(), "a"), ("B".to_string(), "b")];
        let rows = [1, 2].map(|n| (format!("r{n}"), n));
        let t = protocol_table("T", "axis", rows, &columns, |n, p| format!("{p}{n}"));
        assert_eq!(t.columns, ["axis", "A", "B"]);
        assert_eq!(t.rows, [["r1", "a1", "b1"], ["r2", "a2", "b2"]]);
    }

    #[test]
    fn scale_pick_treats_every_larger_tier_as_paper() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        for scale in [Scale::Paper, Scale::Large, Scale::Huge] {
            assert_eq!(scale.pick(1, 2), 2);
            assert_eq!(scale.protocols(), PAPER_PROTOCOLS);
        }
        assert_eq!(Scale::Quick.protocols()[0], PDQ_FULL);
    }

    #[test]
    fn seed_mean_sums_in_seed_order() {
        // (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3) in f64: the order is part of the
        // tables' bytes.
        let v = |s: u64| s as f64 / 10.0;
        assert_eq!(seed_mean(&[1, 2, 3], v), (0.1 + 0.2 + 0.3) / 3.0);
        assert_eq!(seed_mean(&[3], v), 0.3);
    }

    #[test]
    fn binary_search_finds_threshold() {
        // metric(n) >= 0.99 iff n <= 37.
        let n = max_supported(100, 0.99, |n| if n <= 37 { 1.0 } else { 0.5 });
        assert_eq!(n, 37);
        // Nothing satisfies the target.
        assert_eq!(max_supported(100, 0.99, |_| 0.1), 0);
        // Everything satisfies the target.
        assert_eq!(max_supported(64, 0.99, |_| 1.0), 64);
    }

    #[test]
    fn registry_labels_match_the_paper_legends() {
        assert_eq!(label_of("pdq(full)"), "PDQ(Full)");
        assert_eq!(label_of("d3"), "D3");
        assert_eq!(label_of("mpdq(3)"), "M-PDQ(3 subflows)");
        assert_eq!(PAPER_PROTOCOLS.len(), 7);
        // Every set member resolves.
        for p in PAPER_PROTOCOLS.iter().chain(QUICK_PROTOCOLS) {
            assert!(registry().resolve(p).is_ok(), "{p}");
        }
    }
}
