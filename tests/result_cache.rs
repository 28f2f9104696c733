//! Integration tests for the fingerprint-keyed result cache against the real
//! paper registry: golden request-fingerprint values (one per backend) that pin
//! the on-disk cache key format, the exact bytes of a run record per backend and
//! of one whole record file, and cache-served sweeps whose summaries match fresh
//! runs on every headline metric and on the determinism fingerprint.

use std::path::PathBuf;

use pdq_netsim::{FlowSpec, NodeId, SimTime};
use pdq_repro::scenario::{
    request_fingerprint, CachePolicy, ProtocolRegistry, ResultCache, Scenario, SimBackend, Sweep,
    TopologySpec, WorkloadSpec,
};
use pdq_workloads::{DeadlineDist, SizeDist};

fn paper_registry() -> ProtocolRegistry {
    let mut registry = ProtocolRegistry::new();
    pdq::register_pdq(&mut registry);
    pdq_baselines::register_baselines(&mut registry);
    registry
}

fn temp_cache(tag: &str) -> (PathBuf, ResultCache) {
    let dir = std::env::temp_dir().join(format!("pdq-result-cache-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = ResultCache::open(&dir).unwrap();
    (dir, cache)
}

/// One deterministic scenario per backend. These are also the golden-fingerprint
/// subjects, so they must never drift: any edit here invalidates the pinned
/// values below *by design* (a changed request is a different cache key).
fn packet_scenario() -> Scenario {
    Scenario::new("golden-packet")
        .workload(WorkloadSpec::QueryAggregation {
            flows: 6,
            sizes: SizeDist::query(),
            deadlines: DeadlineDist::paper_default(),
        })
        .protocol("pdq(full)")
        .seed(1)
}

fn flow_scenario() -> Scenario {
    Scenario::new("golden-flow")
        .backend(SimBackend::Flow)
        .workload(WorkloadSpec::QueryAggregation {
            flows: 6,
            sizes: SizeDist::query(),
            deadlines: DeadlineDist::paper_default(),
        })
        .protocol("rcp")
        .seed(2)
}

fn fluid_scenario() -> Scenario {
    let flows = vec![
        FlowSpec::new(1, NodeId(1), NodeId(4), 50_000),
        FlowSpec::new(2, NodeId(2), NodeId(4), 20_000),
        FlowSpec::new(3, NodeId(3), NodeId(4), 80_000),
    ];
    Scenario::new("golden-fluid")
        .backend(SimBackend::Fluid)
        .topology(TopologySpec::SingleBottleneck {
            senders: 3,
            access_loss: 0.0,
        })
        .workload(WorkloadSpec::Manual(flows))
        .stop_at(SimTime::from_secs(60))
        .protocol("tcp")
}

/// The request fingerprint is the cache key: if these pinned values change, every
/// existing cache directory silently becomes a full miss. That must only ever
/// happen through a deliberate spec-format change, never by accident — hence one
/// golden value per backend.
#[test]
fn golden_request_fingerprints_are_pinned_per_backend() {
    for (scenario, golden) in [
        (packet_scenario(), "dca12297213276809dad8f05bbabef85"),
        (flow_scenario(), "28152bf53c172156543db34ab39ae95d"),
        (fluid_scenario(), "aae41ad88647cf7c1e7891b2092ea886"),
    ] {
        assert_eq!(
            request_fingerprint(&scenario),
            golden,
            "request fingerprint drifted for {}",
            scenario.name
        );
    }
    // The fingerprint ignores the display name (overlapping grids share records)
    // but keys on everything else, seed included.
    let renamed = packet_scenario().name("some-other-table-row");
    assert_eq!(
        request_fingerprint(&renamed),
        "dca12297213276809dad8f05bbabef85"
    );
    let reseeded = packet_scenario().seed(99);
    assert_ne!(
        request_fingerprint(&reseeded),
        "dca12297213276809dad8f05bbabef85"
    );
}

/// `RunSummary::to_record` of each golden scenario, byte for byte. A cache record's
/// body is this text, so a change here turns every existing cache directory into
/// misses (or worse, into records read differently).
const PACKET_RECORD: &str = r#"# pdq run record v1
scenario = golden-packet
protocol = pdq(full)
protocol_label = PDQ(Full)
backend = packet
seed = 1
flows = 6
completed = 6
terminated = 0
failed = 0
unfinished = 0
deadline_flows = 6
deadlines_met = 6
mean_fct_secs = 0.0026699759999999997
p99_fct_secs = 0.004982168
max_fct_secs = 0.004982168
goodput_bytes = 572817
end_time_ns = 4982168
fingerprint = end=4982168;1:Completed:4982168:0:182395;2:Completed:669968:0:16196;3:Completed:1787984:0:19541;4:Completed:3981664:0:111198;5:Completed:2984688:0:189748;6:Completed:1613384:0:53739;
"#;

const FLOW_RECORD: &str = r#"# pdq run record v1
scenario = golden-flow
protocol = rcp
protocol_label = RCP
backend = flow
seed = 2
flows = 6
completed = 6
terminated = 0
failed = 0
unfinished = 0
deadline_flows = 6
deadlines_met = 5
mean_fct_secs = 0.005328948
p99_fct_secs = 0.006757352
max_fct_secs = 0.006757352
goodput_bytes = 717262
end_time_ns = 6757352
fingerprint = end=6757352;1:Completed:5001704:0:101121;2:Completed:6163468:0:134276;3:Completed:6757352:0:193418;4:Completed:5439147:0:112486;5:Completed:2588693:0:45901;6:Completed:6023324:0:130060;
"#;

const FLUID_RECORD: &str = r#"# pdq run record v1
scenario = golden-fluid
protocol = tcp
protocol_label = TCP
backend = fluid
seed = 1
flows = 3
completed = 3
terminated = 0
failed = 0
unfinished = 0
deadline_flows = 0
deadlines_met = 0
mean_fct_secs = 110000
p99_fct_secs = 150000
max_fct_secs = 150000
goodput_bytes = 150000
end_time_ns = 150000000000000
fingerprint = end=150000000000000;1:Completed:120000000000000:0:50000;2:Completed:60000000000000:0:20000;3:Completed:150000000000000:0:80000;
"#;

/// The whole `<fingerprint>.record` file `ResultCache::store` writes for the fluid
/// golden scenario: header, request fingerprint, the escaped canonical request
/// spec on one line, then the name-normalized run record.
const FLUID_RECORD_FILE: &str = r#"# pdq cache record v1
request_fingerprint = aae41ad88647cf7c1e7891b2092ea886
request_spec = # pdq scenario spec v1\nscenario = -\nprotocol = tcp\nbackend = fluid\nseed = 1\nstop_at_ns = 60000000000\ntopology = single_bottleneck:3\nworkload = manual\nflow = 1 1 4 50000 0 -\nflow = 2 2 4 20000 0 -\nflow = 3 3 4 80000 0 -\n
# pdq run record v1
scenario = -
protocol = tcp
protocol_label = TCP
backend = fluid
seed = 1
flows = 3
completed = 3
terminated = 0
failed = 0
unfinished = 0
deadline_flows = 0
deadlines_met = 0
mean_fct_secs = 110000
p99_fct_secs = 150000
max_fct_secs = 150000
goodput_bytes = 150000
end_time_ns = 150000000000000
fingerprint = end=150000000000000;1:Completed:120000000000000:0:50000;2:Completed:60000000000000:0:20000;3:Completed:150000000000000:0:80000;
"#;

#[test]
fn run_records_are_pinned_byte_for_byte_per_backend() {
    let registry = paper_registry();
    for (scenario, pinned) in [
        (packet_scenario(), PACKET_RECORD),
        (flow_scenario(), FLOW_RECORD),
        (fluid_scenario(), FLUID_RECORD),
    ] {
        let record = scenario.run(&registry).unwrap().to_record();
        assert_eq!(record, pinned, "record drifted for {}", scenario.name);
    }
}

/// The bytes of a stored record file are pinned, and a file with exactly those
/// bytes (as an older build wrote it) is a hit that restores the same summary.
#[test]
fn record_files_are_pinned_byte_for_byte_and_read_back_as_hits() {
    let registry = paper_registry();
    let scenario = fluid_scenario();
    let fresh = scenario.run(&registry).unwrap();
    let (dir, cache) = temp_cache("pinned-file");
    cache.store(&scenario, &fresh).unwrap();
    let path = cache.record_path(&scenario);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), FLUID_RECORD_FILE);

    std::fs::write(&path, FLUID_RECORD_FILE).unwrap();
    let hit = cache
        .lookup(&scenario)
        .expect("a pinned record file is a hit");
    assert_eq!(hit.scenario, scenario.name);
    assert_eq!(hit.fingerprint(), fresh.fingerprint());
    assert_eq!(hit.to_record(), FLUID_RECORD);
    std::fs::remove_dir_all(&dir).ok();
}

/// Store-then-lookup through the real registry: the cached summary reproduces the
/// fresh run's headline metrics and determinism fingerprint, per backend.
#[test]
fn cached_summaries_round_trip_real_runs_on_every_backend() {
    let registry = paper_registry();
    let (dir, cache) = temp_cache("round-trip");
    for scenario in [packet_scenario(), flow_scenario(), fluid_scenario()] {
        let fresh = scenario.run(&registry).unwrap();
        cache.store(&scenario, &fresh).unwrap();
        let cached = cache
            .lookup(&scenario)
            .unwrap_or_else(|| panic!("{}: stored record missed", scenario.name));
        assert_eq!(cached.scenario, fresh.scenario);
        assert_eq!(cached.backend, fresh.backend);
        assert_eq!(cached.flows, fresh.flows);
        assert_eq!(cached.completed, fresh.completed);
        assert_eq!(cached.deadlines_met, fresh.deadlines_met);
        assert_eq!(cached.mean_fct_secs, fresh.mean_fct_secs);
        assert_eq!(cached.goodput_bytes, fresh.goodput_bytes);
        assert_eq!(cached.fingerprint(), fresh.fingerprint());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A cache-served sweep over the real registry returns the same summaries as the
/// uncached sweep, executing nothing on the second pass.
#[test]
fn cache_served_sweeps_match_uncached_sweeps_cell_for_cell() {
    let registry = paper_registry();
    let (dir, cache) = temp_cache("sweep");
    let sweep = Sweep::new(vec![packet_scenario(), flow_scenario(), fluid_scenario()]);
    let uncached = sweep.run(&registry, 2).unwrap();
    let first = sweep
        .run_cached(&registry, 2, Some(&cache), CachePolicy::ReadWrite, None)
        .unwrap();
    assert_eq!((first.cache_hits, first.executed), (0, 3));
    let second = sweep
        .run_cached(&registry, 2, Some(&cache), CachePolicy::ReadWrite, None)
        .unwrap();
    assert_eq!((second.cache_hits, second.executed), (3, 0));
    for ((fresh, warm), hit) in uncached.iter().zip(&first.summaries).zip(&second.summaries) {
        assert_eq!(fresh.fingerprint(), warm.fingerprint());
        assert_eq!(fresh.fingerprint(), hit.fingerprint());
        assert_eq!(fresh.scenario, hit.scenario);
        assert_eq!(fresh.mean_fct_secs, hit.mean_fct_secs);
        assert_eq!(fresh.end_time, hit.end_time);
    }
    std::fs::remove_dir_all(&dir).ok();
}
