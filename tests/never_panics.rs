//! No panic from the outside: `Scenario::from_spec`, `RunSummary::from_record` and
//! `TopologySpec::from_str` return `Ok` or `Err` for any input. The inputs are
//! arbitrary bytes read as lossy UTF-8, and line mutations of the committed specs
//! and of a real cache record: lines dropped, duplicated or swapped, and values
//! replaced by edge cases. Every spec that parses must also round-trip:
//! `from_spec(to_spec(s)) == s`.
//!
//! The case counts keep the default test run short; CI runs this file in release
//! under several `PROPTEST_SEED` values to widen the search.

use std::sync::OnceLock;

use pdq_repro::scenario::{ProtocolRegistry, ResultCache, RunSummary, Scenario, TopologySpec};
use proptest::prelude::*;

const SPECS: [&str; 5] = [
    include_str!("../specs/coflow_quick.scn"),
    include_str!("../specs/engine_scale_quick.scn"),
    include_str!("../specs/fig1_fluid.scn"),
    include_str!("../specs/fig8a_flow.scn"),
    include_str!("../specs/wan_quick.scn"),
];

/// Values that tend to find the edges of a parser.
const EDGE_VALUES: [&str; 10] = [
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
        args in prop::collection::vec(0usize..16, 0..7),
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
        const ARGS: [&str; 6] = ["1", "2", "16", "60", "loss=0.5", "loss=NaN"];
        let mut token = KINDS[kind].to_string();
        for &a in &args {
            token.push(':');
            token.push_str(if a < EDGE_VALUES.len() {
                EDGE_VALUES[a]
            } else {
                ARGS[a - EDGE_VALUES.len()]
            });
        }
        if let Ok(topology) = token.parse::<TopologySpec>() {
            prop_assert_eq!(topology.to_string().parse::<TopologySpec>(), Ok(topology));
        }
    }
}
