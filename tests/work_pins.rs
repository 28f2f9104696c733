//! Work pins: the engine's deterministic work counters for the committed packet
//! specs, compared exactly with `tests/work_pins.txt`.
//!
//! One line per `spec shards counter = value`. At one shard every [`EngineStats`]
//! field and the event queue's work counters are pinned; at two and four shards only
//! the shard protocol's window and message counts, the counters a re-run repeats
//! there. A change that moves a number shows up as a diff of the file, which the
//! change then explains. Regenerate the file with
//!
//! ```sh
//! UPDATE_WORK_PINS=1 cargo test --test work_pins
//! ```

use std::fmt::Write as _;

use pdq_experiments::common::registry;
use pdq_netsim::{EngineStats, QueueStats};
use pdq_scenario::Scenario;

const SPECS: [(&str, &str); 3] = [
    (
        "engine_scale_quick",
        include_str!("../specs/engine_scale_quick.scn"),
    ),
    ("wan_quick", include_str!("../specs/wan_quick.scn")),
    ("coflow_quick", include_str!("../specs/coflow_quick.scn")),
];

const PINS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/work_pins.txt");

/// The counters pinned for one run at `shards` shards.
fn counters(shards: u32, e: EngineStats, q: QueueStats) -> Vec<(&'static str, u64)> {
    if shards > 1 {
        return vec![("windows", e.windows), ("messages_in", e.messages_in)];
    }
    vec![
        ("arrivals", e.arrivals),
        ("packets", e.packets),
        ("timers_fired", e.timers_fired),
        ("ticks", e.ticks),
        ("samples", e.samples),
        ("pool_high_water", e.pool_high_water),
        ("ledger_high_water", e.ledger_high_water),
        ("live_flows_high_water", e.live_flows_high_water),
        ("route_high_water", e.route_high_water),
        ("windows", e.windows),
        ("messages_in", e.messages_in),
        ("pushes", q.pushes),
        ("pops", q.pops),
        ("peak_pending", q.peak_pending),
        ("overflow_migrations", q.overflow_migrations),
        ("buckets_sorted", q.buckets_sorted),
        ("peak_chunks", q.peak_chunks),
    ]
}

fn measure() -> String {
    let mut out = String::new();
    for (name, text) in SPECS {
        let scenario = Scenario::from_spec(text).expect("committed spec parses");
        for shards in [1, 2, 4] {
            let run = scenario
                .clone()
                .engine_threads(shards)
                .run(registry())
                .unwrap_or_else(|e| panic!("{name} at {shards} shards: {e}"));
            let results = run.packet();
            for (counter, value) in counters(shards, results.engine, results.queue) {
                writeln!(out, "{name} {shards} {counter} = {value}").unwrap();
            }
        }
    }
    out
}

#[test]
fn work_counters_match_the_pins() {
    let got = measure();
    if std::env::var_os("UPDATE_WORK_PINS").is_some() {
        std::fs::write(PINS, &got).expect("write the work pins");
        return;
    }
    let want = std::fs::read_to_string(PINS).expect("read the work pins");
    let only = |a: &str, b: &str, sign: char| -> Vec<String> {
        let b: Vec<&str> = b.lines().collect();
        a.lines()
            .filter(|line| !b.contains(line))
            .map(|line| format!("{sign} {line}"))
            .collect()
    };
    let diff = [only(&want, &got, '-'), only(&got, &want, '+')].concat();
    assert!(
        want == got,
        "work counters moved (- pinned, + now; UPDATE_WORK_PINS=1 cargo test --test \
         work_pins rewrites the pins):\n{}",
        diff.join("\n")
    );
}
