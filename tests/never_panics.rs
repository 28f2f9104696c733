//! No panic from the outside: `Scenario::from_spec`, `RunSummary::from_record` and
//! the token parsers (`TopologySpec`, `SizeDist`, `DeadlineDist`, `Pattern`) return
//! `Ok` or `Err` for any input, and so does `Scenario::run` on tiny manual workloads
//! whose endpoints may be switches, nodes outside the topology or the same host. The
//! inputs are arbitrary bytes read as lossy UTF-8, line mutations of the committed
//! specs and of a real cache record (lines dropped, duplicated or swapped, and values
//! replaced by edge cases), and edge-value mutations of the fields of every token the
//! committed specs and the benchmark's workloads use. Everything that parses must
//! also round-trip: `from_spec(to_spec(s)) == s`, and `t.to_string().parse() ==
//! Ok(t)` for a token.
//!
//! The case counts keep the default test run short; CI runs this file in release
//! under several `PROPTEST_SEED` values to widen the search.

use std::fmt::{Debug, Display};
use std::str::FromStr;
use std::sync::OnceLock;

use pdq_netsim::{FlowSpec, NodeId, SimTime};
use pdq_repro::scenario::{
    ProtocolRegistry, ResultCache, RunSummary, Scenario, ScenarioError, SimBackend, TopologySpec,
    WorkloadSpec,
};
use pdq_repro::workloads::{DeadlineDist, Pattern, SizeDist};
use proptest::prelude::*;

const SPECS: [&str; 5] = [
    include_str!("../specs/coflow_quick.scn"),
    include_str!("../specs/engine_scale_quick.scn"),
    include_str!("../specs/fig1_fluid.scn"),
    include_str!("../specs/fig8a_flow.scn"),
    include_str!("../specs/wan_quick.scn"),
];

/// The benchmark's workload specs: more workload tokens to mutate.
const PERF_SPECS: [&str; 8] = [
    include_str!("../examples/perf/workloads/fattree_burst.scn"),
    include_str!("../examples/perf/workloads/fattree_steady.scn"),
    include_str!("../examples/perf/workloads/fattree_steady_2shard.scn"),
    include_str!("../examples/perf/workloads/smoke.scn"),
    include_str!("../examples/perf/workloads/sweep_fig5a.scn"),
    include_str!("../examples/perf/workloads/sweep_flow.scn"),
    include_str!("../examples/perf/workloads/sweep_fluid.scn"),
    include_str!("../examples/perf/workloads/wan_paced.scn"),
];

/// Values that tend to find the edges of a parser.
const EDGE_VALUES: [&str; 14] = [
    "0",
    "-1",
    "NaN",
    "inf",
    "18446744073709551616",
    "=",
    "\\",
    "\"\"",
    "",
    "-",
    "18446744073709551615",
    "-0",
    "1e308",
    "0.5",
];

/// Topology arguments beside the edge values: small sizes, and the edges of the
/// 65 536-host and 256-site caps.
const TOPOLOGY_ARGS: [&str; 10] = [
    "1", "2", "16", "60", "loss=0.5", "loss=NaN", "64", "256", "65536", "65537",
];

/// A mutation: (kind, line, other line or edge value), indices taken modulo.
type Op = (u8, usize, usize);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..4, 0usize..64, 0usize..64), 1..6)
}

/// Apply `ops` to the lines of `text`: 0 drops a line, 1 duplicates one in front
/// of another, 2 swaps two, 3 replaces a line's value with an edge value.
fn mutate(text: &str, ops: &[Op]) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for &(kind, i, j) in ops {
        if lines.is_empty() {
            break;
        }
        let (i, j) = (i % lines.len(), j % lines.len());
        match kind {
            0 => {
                lines.remove(i);
            }
            1 => {
                let copy = lines[i].clone();
                lines.insert(j, copy);
            }
            2 => lines.swap(i, j),
            _ => {
                let key = lines[i].split('=').next().unwrap_or("").to_string();
                lines[i] = format!("{key}= {}", EDGE_VALUES[j % EDGE_VALUES.len()]);
            }
        }
    }
    lines.join("\n") + "\n"
}

/// The values of `keys` in the committed and benchmark specs, then `forms`: the
/// parser's other `Display` forms and named shortcuts.
fn tokens(keys: &[&str], forms: &[&str]) -> Vec<String> {
    let used = SPECS
        .iter()
        .chain(&PERF_SPECS)
        .flat_map(|text| text.lines());
    let used = used.filter_map(|line| line.split_once('='));
    let used = used.filter(|(key, _)| keys.contains(&key.trim()));
    let mut tokens: Vec<String> = used.map(|(_, value)| value.trim().to_string()).collect();
    assert!(!tokens.is_empty(), "no spec sets {keys:?}");
    tokens.extend(forms.iter().map(|form| form.to_string()));
    tokens
}

/// Replace fields of `token` — the pieces between `:`, `,` and `@` — with edge
/// values: each op is (field, edge value), indices taken modulo.
fn mutate_token(token: &str, ops: &[(usize, usize)]) -> String {
    let mut fields: Vec<&str> = token.split([':', ',', '@']).collect();
    for &(field, edge) in ops {
        let n = fields.len();
        fields[field % n] = EDGE_VALUES[edge % EDGE_VALUES.len()];
    }
    let seps = token.matches([':', ',', '@']);
    let mut out = fields[0].to_string();
    for (sep, field) in seps.zip(&fields[1..]) {
        out.push_str(sep);
        out.push_str(field);
    }
    out
}

/// A token that parses reads back equal from its `Display` form.
fn check_token<T: FromStr + Display + PartialEq + Debug>(token: &str) {
    if let Ok(value) = token.parse::<T>() {
        let text = value.to_string();
        assert_eq!(
            text.parse::<T>().ok(),
            Some(value),
            "{token:?} displays as {text:?}"
        );
    }
}

/// One case of a token parser's fuzz: arbitrary bytes, the same bytes after the kind
/// of a known token, and edge-value mutations of a known token.
fn fuzz_token<T: FromStr + Display + PartialEq + Debug>(
    tokens: &[String],
    which: usize,
    ops: &[(usize, usize)],
    bytes: &[u8],
) {
    let token = &tokens[which % tokens.len()];
    let bytes = String::from_utf8_lossy(bytes);
    let kind = token.split(':').next().unwrap_or_default();
    check_token::<T>(&bytes);
    check_token::<T>(&format!("{kind}:{bytes}"));
    check_token::<T>(&mutate_token(token, ops));
}

fn token_ops() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0usize..16, 0usize..EDGE_VALUES.len()), 1..4)
}

fn bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 0..32)
}

/// Parse `text` every way there is; a spec that parses must round-trip.
fn check(text: &str) {
    if let Ok(scenario) = Scenario::from_spec(text) {
        let again = Scenario::from_spec(&scenario.to_spec());
        assert_eq!(again.as_ref(), Ok(&scenario), "{text}");
    }
    let _ = RunSummary::from_record(text);
    let _ = text.trim().parse::<TopologySpec>();
}

/// A real cache record file: the coflow quick run (so it carries the optional
/// coflow keys) stored through `ResultCache`.
fn real_record() -> &'static str {
    static RECORD: OnceLock<String> = OnceLock::new();
    RECORD.get_or_init(|| {
        let mut registry = ProtocolRegistry::new();
        pdq::register_pdq(&mut registry);
        pdq_baselines::register_baselines(&mut registry);
        let scenario = Scenario::from_spec(SPECS[0]).unwrap();
        let summary = scenario.run(&registry).unwrap();
        assert!(summary.coflows > 0);
        let dir = std::env::temp_dir().join(format!("pdq-never-panics-{}", std::process::id()));
        let cache = ResultCache::open(&dir).unwrap();
        cache.store(&scenario, &summary).unwrap();
        let record = std::fs::read_to_string(cache.record_path(&scenario)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        record
    })
}

#[test]
fn unmutated_inputs_parse() {
    for spec in SPECS {
        check(spec);
        assert!(Scenario::from_spec(spec).is_ok());
    }
    assert!(RunSummary::from_record(real_record()).is_ok());
}

/// The fluid model has one bottleneck, the receiver's link, so a run whose flows go to
/// several receivers — the fig8a permutation on the fluid backend — is a spec error,
/// not a table of FCTs in the wrong units.
#[test]
fn fluid_runs_without_one_receiver_are_spec_errors() {
    let flow = "backend = flow\n";
    assert!(SPECS[3].contains(flow));
    let scenario = Scenario::from_spec(&SPECS[3].replace(flow, "backend = fluid\n")).unwrap();
    assert_eq!(scenario.backend, SimBackend::Fluid);
    let err = scenario
        .run(pdq_experiments::common::registry())
        .unwrap_err();
    assert!(
        matches!(&err, ScenarioError::Spec(m) if m.contains("one bottleneck shared by every flow")),
        "{err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        check(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn spec_line_mutations_never_panic(which in 0usize..SPECS.len(), ops in ops()) {
        check(&mutate(SPECS[which], &ops));
    }

    #[test]
    fn record_line_mutations_never_panic(ops in ops()) {
        check(&mutate(real_record(), &ops));
    }

    #[test]
    fn topology_tokens_never_panic_and_round_trip(
        kind in 0usize..8,
        args in prop::collection::vec(0usize..EDGE_VALUES.len() + TOPOLOGY_ARGS.len(), 0..7),
    ) {
        const KINDS: [&str; 8] = [
            "paper_tree",
            "single_bottleneck",
            "fat_tree",
            "bcube",
            "bcube_hosts",
            "jellyfish",
            "wan",
            "torus",
        ];
        let mut token = KINDS[kind].to_string();
        for &a in &args {
            token.push(':');
            token.push_str(if a < EDGE_VALUES.len() {
                EDGE_VALUES[a]
            } else {
                TOPOLOGY_ARGS[a - EDGE_VALUES.len()]
            });
        }
        check_token::<TopologySpec>(&token);
    }

    #[test]
    fn size_tokens_never_panic_and_round_trip(which in 0usize..64, ops in token_ops(), bytes in bytes()) {
        let forms = ["fixed:777", "uniform:7:7", "pareto:100000:1.1", "query", "vl2", "edu1"];
        fuzz_token::<SizeDist>(&tokens(&["workload.sizes"], &forms), which, &ops, &bytes);
    }

    #[test]
    fn deadline_tokens_never_panic_and_round_trip(which in 0usize..64, ops in token_ops(), bytes in bytes()) {
        let keys = ["workload.deadlines", "workload.short_deadlines"];
        let forms = ["none", "paper", "fixed:7000000"];
        fuzz_token::<DeadlineDist>(&tokens(&keys, &forms), which, &ops, &bytes);
    }

    #[test]
    fn pattern_tokens_never_panic_and_round_trip(which in 0usize..64, ops in token_ops(), bytes in bytes()) {
        let forms = ["aggregation", "stride:6", "staggered:0.7"];
        fuzz_token::<Pattern>(&tokens(&["workload.pattern"], &forms), which, &ops, &bytes);
    }
}

/// Protocols the manual-run fuzz picks from: every family of the three-backend
/// group, TCP (no flow-level model) and M-PDQ (packet only).
const PROTOCOLS: [&str; 5] = ["pdq(full)", "rcp", "d3", "tcp", "mpdq"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Up to four flows on `single_bottleneck:3` (hosts are nodes 1-4, node 0 the
    /// switch), endpoints drawn from nodes 0-7 with equal pairs allowed: every
    /// backend returns `Ok` or `Err`.
    #[test]
    fn tiny_manual_runs_never_panic(
        flows in prop::collection::vec(((0u32..8, 0u32..8), 1u64..=100_000, 0u64..=50, 0u64..=60), 1..=4),
        protocol in 0usize..PROTOCOLS.len(),
        stop_ms in 1u64..=50,
    ) {
        let flows = flows
            .iter()
            .enumerate()
            .map(|(i, &((src, dst), size, arrival_ms, deadline_ms))| {
                let spec = FlowSpec::new(i as u64 + 1, NodeId(src), NodeId(dst), size)
                    .with_arrival(SimTime::from_millis(arrival_ms));
                match deadline_ms {
                    0 => spec,
                    ms => spec.with_deadline(SimTime::from_millis(ms)),
                }
            })
            .collect();
        let scenario = Scenario::new("tiny")
            .topology(TopologySpec::SingleBottleneck { senders: 3, access_loss: 0.0 })
            .workload(WorkloadSpec::Manual(flows))
            .protocol(PROTOCOLS[protocol])
            .stop_at(SimTime::from_millis(stop_ms));
        for backend in SimBackend::all() {
            let _ = scenario.clone().backend(backend).run(pdq_experiments::common::registry());
        }
    }
}
