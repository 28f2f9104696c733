//! End-to-end tests of the `pdq-experiments` binary: backend-aware `list`
//! grouping, `run-spec` on flow- and fluid-backend specs, the custom N-axis
//! `sweep` grid flags, and the exit-2 contract for protocol/backend pairs the
//! registry cannot satisfy and for malformed axis values.

use std::path::PathBuf;
use std::process::Command;

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pdq-experiments"))
}

fn workspace_file(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Write `content` to a throwaway spec file; returns its directory (deleted by the
/// caller) and path.
fn temp_spec(tag: &str, content: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("pdq-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join(format!("{tag}.scn"));
    std::fs::write(&spec, content).unwrap();
    (dir, spec)
}

#[test]
fn list_groups_protocol_families_by_backend() {
    let out = binary().arg("list").output().expect("spawn list");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let all_three = stdout
        .find("protocols (packet + flow + fluid backends):")
        .unwrap_or_else(|| panic!("missing three-backend group:\n{stdout}"));
    let packet_fluid = stdout
        .find("protocols (packet + fluid backends):")
        .unwrap_or_else(|| panic!("missing packet+fluid group:\n{stdout}"));
    let packet_only = stdout
        .find("protocols (packet backend only):")
        .unwrap_or_else(|| panic!("missing packet-only group:\n{stdout}"));
    assert!(
        all_three < packet_fluid && packet_fluid < packet_only,
        "widest backend set prints first:\n{stdout}"
    );
    let three_group = &stdout[all_three..packet_fluid];
    for family in ["pdq", "rcp", "d3"] {
        assert!(
            three_group.contains(family),
            "{family} not in:\n{three_group}"
        );
    }
    let fluid_group = &stdout[packet_fluid..packet_only];
    assert!(fluid_group.contains("tcp"), "{fluid_group}");
    let packet_group = &stdout[packet_only..];
    assert!(packet_group.contains("mpdq"), "{packet_group}");
    assert!(!packet_group.contains("rcp"));
}

#[test]
fn run_spec_executes_a_flow_backend_spec() {
    let out = binary()
        .arg("run-spec")
        .arg(workspace_file("specs/fig8a_flow.scn"))
        .output()
        .expect("spawn run-spec");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("fig8a-flow"), "{stdout}");
    assert!(stdout.contains("PDQ(Full)"), "{stdout}");
}

#[test]
fn run_spec_executes_the_fluid_fig1_spec() {
    let out = binary()
        .arg("run-spec")
        .arg(workspace_file("specs/fig1_fluid.scn"))
        .output()
        .expect("spawn run-spec");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("fig1-fluid"), "{stdout}");
    assert!(stdout.contains("D3"), "{stdout}");
    // The committed spec is the adversarial Figure 1d arrival order: f_A misses,
    // so application throughput is 2/3.
    assert!(stdout.contains("0.667"), "{stdout}");
}

#[test]
fn run_spec_exits_2_with_the_supported_list_on_a_backend_mismatch() {
    // TCP has no flow-level model; the run must fail with exit code 2 and name
    // the families that do support the flow backend.
    let (dir, spec) = temp_spec(
        "tcp-flow",
        "scenario = bad\n\
         protocol = tcp\n\
         backend = flow\n\
         seed = 1\n\
         stop_at_ns = 1000000000\n\
         topology = paper_tree\n\
         workload = query_aggregation\n\
         workload.flows = 2\n\
         workload.sizes = fixed:1000\n\
         workload.deadlines = none\n",
    );
    let out = binary().arg("run-spec").arg(&spec).output().expect("spawn");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2), "wrong exit code: {out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("does not support the flow backend"),
        "{stderr}"
    );
    for family in ["d3", "pdq", "rcp"] {
        assert!(stderr.contains(family), "{family} missing from: {stderr}");
    }
}

#[test]
fn run_spec_exits_2_listing_fluid_families_for_mpdq_on_fluid() {
    // M-PDQ has no fluid idealization; the error must name every family that does
    // (including tcp, which is fluid-capable despite being flow-incapable).
    let (dir, spec) = temp_spec(
        "mpdq-fluid",
        "scenario = bad\n\
         protocol = mpdq(3)\n\
         backend = fluid\n\
         seed = 1\n\
         stop_at_ns = 1000000000\n\
         topology = paper_tree\n\
         workload = query_aggregation\n\
         workload.flows = 2\n\
         workload.sizes = fixed:1000\n\
         workload.deadlines = none\n",
    );
    let out = binary().arg("run-spec").arg(&spec).output().expect("spawn");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2), "wrong exit code: {out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("does not support the fluid backend"),
        "{stderr}"
    );
    for family in ["d3", "pdq", "rcp", "tcp"] {
        assert!(stderr.contains(family), "{family} missing from: {stderr}");
    }
}

#[test]
fn run_spec_exits_2_naming_the_unknown_key_and_the_valid_key_set() {
    // A typo'd spec key must fail with exit code 2, name the offending key, and
    // list the keys the workload does accept so the fix is obvious.
    let (dir, spec) = temp_spec(
        "typo-key",
        "scenario = bad\n\
         protocol = tcp\n\
         seed = 1\n\
         stop_at_ns = 1000000000\n\
         topology = paper_tree\n\
         workload = query_aggregation\n\
         workload.flows = 2\n\
         workload.sizes = fixed:1000\n\
         workload.deadlines = none\n\
         workload.coflows = 5\n",
    );
    let out = binary().arg("run-spec").arg(&spec).output().expect("spawn");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2), "wrong exit code: {out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("workload.coflows"), "{stderr}");
    assert!(stderr.contains("valid keys:"), "{stderr}");
    for key in ["workload.flows", "workload.sizes", "topology", "seed"] {
        assert!(stderr.contains(key), "{key} missing from: {stderr}");
    }
}

/// Run `cmd` to completion, killing it after `secs` seconds, so that an input
/// which hangs the CLI fails its test instead of hanging the suite.
fn output_within(mut cmd: Command, secs: u64) -> std::process::Output {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let deadline = Instant::now() + Duration::from_secs(secs);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect output")
}

#[test]
fn run_spec_exits_2_on_workloads_the_generators_cannot_draw() {
    // The committed flow-level fig8a spec with one line replaced: each of these used
    // to panic inside the workload generator or the topology builder (exit 101),
    // to run with a loss probability above 1, or, for a 1-port BCube, never return.
    let fig8a = std::fs::read_to_string(workspace_file("specs/fig8a_flow.scn")).unwrap();
    let sizes = "workload.sizes = uniform:2000:198000";
    let pattern = "workload.pattern = random_permutation";
    let topology = "topology = fat_tree:16";
    for (tag, line, replacement, needle) in [
        (
            "uniform",
            sizes,
            "workload.sizes = uniform:200000:100",
            "min <= max",
        ),
        (
            "staggered",
            pattern,
            "workload.pattern = staggered:1.5",
            "[0, 1]",
        ),
        ("nan", pattern, "workload.pattern = staggered:NaN", "[0, 1]"),
        (
            "stride0",
            pattern,
            "workload.pattern = stride:0",
            "stride of 0",
        ),
        // 16 hosts: only the built topology says this stride sends to self.
        (
            "stride16",
            pattern,
            "workload.pattern = stride:16",
            "to itself",
        ),
        ("bcube11", topology, "topology = bcube:1:1", "port count"),
        ("bcube00", topology, "topology = bcube:0:0", "port count"),
        (
            "bcubehosts",
            topology,
            "topology = bcube_hosts:16:1",
            "port count",
        ),
        (
            "single0",
            topology,
            "topology = single_bottleneck:0",
            "sender",
        ),
        (
            "loss2",
            topology,
            "topology = single_bottleneck:3:loss=2",
            "[0, 1)",
        ),
        ("wan1site", topology, "topology = wan:1:1:60:1", "2 sites"),
        (
            "wan0hosts",
            topology,
            "topology = wan:2:0:60:1",
            "host per site",
        ),
        ("wannan", topology, "topology = wan:2:2:NaN:1", "RTT"),
        // Sizes the builders would overflow on (2^65 hosts) or try to allocate.
        (
            "bcube264",
            topology,
            "topology = bcube:2:64",
            "at most 65536 hosts",
        ),
        (
            "bcubehostsbig",
            topology,
            "topology = bcube_hosts:65537:2",
            "at most 65536 hosts",
        ),
        (
            "fattreebig",
            topology,
            "topology = fat_tree:100000000",
            "at most 65536 hosts",
        ),
        (
            "jellyfishbig",
            topology,
            "topology = jellyfish:65537:1",
            "at most 65536 hosts",
        ),
        (
            "singlebig",
            topology,
            "topology = single_bottleneck:65536",
            "at most 65536 hosts",
        ),
        (
            "wan257",
            topology,
            "topology = wan:257:1:60:1",
            "at most 256",
        ),
        (
            "wanbig",
            topology,
            "topology = wan:256:257:60:1",
            "at most 65536 hosts",
        ),
        // A packet run (the backend line gives way) tracing a link the topology
        // does not have.
        (
            "tracelink",
            "\nbackend = flow",
            "\ntrace.interval_ns = 1000000\ntrace.links = 99999",
            "link 99999",
        ),
        // 16 pairs of 10^12 flows each: more than a run may hold (it used to abort
        // allocating them).
        (
            "perpair",
            "workload.flows_per_pair = 2",
            "workload.flows_per_pair = 1000000000000",
            "would draw 16000000000000 flows, more than the 16777216",
        ),
        // Aging rates the flow backend used to take (and the packet engine too).
        (
            "agingnan",
            "protocol = pdq(full)",
            "protocol = pdq(full;aging=NaN)",
            "aging rate",
        ),
        (
            "aginginf",
            "protocol = pdq(full)",
            "protocol = pdq(full;aging=inf)",
            "aging rate",
        ),
        (
            "agingneg",
            "protocol = pdq(full)",
            "protocol = pdq(full;aging=-2)",
            "aging rate",
        ),
        // A shard count of 0 is refused, naming the replacement.
        (
            "shards0",
            topology,
            "topology = fat_tree:16\nengine_threads = 0",
            "engine_threads: bad value \"0\": want a shard count of at least 1 \
             (omit engine_threads for one)",
        ),
        // The fluid model's one bottleneck is the receiver's link: a permutation has
        // many receivers.
        (
            "fluidperm",
            "backend = flow",
            "backend = fluid",
            "one bottleneck shared by every flow",
        ),
    ] {
        assert!(fig8a.contains(line), "{line}");
        exits_2(tag, &fig8a.replace(line, replacement), needle);
    }
    // Manual flows no backend can run, on each backend: they used to panic (exit
    // 101), record a failed flow, run to the stop time or complete, depending on the
    // backend, and were all accepted by the fluid one. Nodes 1-4 of
    // `single_bottleneck:3` are hosts and node 0 its switch.
    let tail = &fig8a[fig8a.find("\nbackend = flow").unwrap() + 1..];
    for backend in ["packet", "flow", "fluid"] {
        for (tag, flows, needle) in [
            (
                "outside",
                "flow = 1 1 99 50000 0 -",
                "not two distinct hosts",
            ),
            ("self", "flow = 1 1 1 50000 0 -", "not two distinct hosts"),
            ("switch", "flow = 1 0 4 50000 0 -", "not two distinct hosts"),
            (
                "sameid",
                "flow = 1 1 4 50000 0 -\nflow = 1 2 4 50000 0 -",
                "used by two flows",
            ),
        ] {
            let manual = format!(
                "backend = {backend}\nseed = 5\nstop_at_ns = 50000000\n\
                 topology = single_bottleneck:3\nworkload = manual\n{flows}\n"
            );
            exits_2(
                &format!("{tag}{backend}"),
                &fig8a.replace(tail, &manual),
                needle,
            );
        }
    }
}

/// `run-spec` on a spec file holding `text` exits 2 with `needle` on stderr.
fn exits_2(tag: &str, text: &str, needle: &str) {
    let (dir, spec) = temp_spec(tag, text);
    let mut run = binary();
    run.arg("run-spec").arg(&spec);
    let out = output_within(run, 60);
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
    assert!(stderr.contains(needle), "{tag}: {stderr}");
}

#[test]
fn run_spec_exits_2_on_workloads_too_large_to_draw() {
    // Committed specs with one count raised to 10^12: each used to abort allocating
    // the flow list (exit 134), and is now refused before any flow is drawn.
    for (file, line, replacement, flows) in [
        (
            "specs/engine_scale_quick.scn",
            "workload.flows = 300",
            "workload.flows = 1000000000000",
            "1000000000000",
        ),
        (
            "specs/coflow_quick.scn",
            "workload.coflows = 8",
            "workload.coflows = 1000000000000",
            "4000000000000",
        ),
    ] {
        let text = std::fs::read_to_string(workspace_file(file)).unwrap();
        assert!(text.contains(line), "{file}: {line}");
        let (dir, spec) = temp_spec("too-many", &text.replace(line, replacement));
        let mut run = binary();
        run.arg("run-spec").arg(&spec);
        let out = output_within(run, 60);
        std::fs::remove_dir_all(&dir).ok();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{replacement}: {stderr}");
        let want = format!("would draw {flows} flows, more than the 16777216");
        assert!(stderr.contains(&want), "{replacement}: {stderr}");
    }
}

#[test]
fn run_spec_exits_2_naming_a_repeated_key_and_both_lines() {
    // Only `flow` may repeat. Any other key given twice is refused, rather than
    // one occurrence silently winning.
    let fig8a = std::fs::read_to_string(workspace_file("specs/fig8a_flow.scn")).unwrap();
    let appended = fig8a.lines().count() + 1;
    for (tag, key, first, repeat) in [
        ("seed", "seed", "seed = 5", "seed = 2"),
        (
            "sizes",
            "workload.sizes",
            "workload.sizes = uniform:2000:198000",
            "workload.sizes = fixed:1000",
        ),
    ] {
        let first_line = 1 + fig8a.lines().position(|l| l == first).expect(first);
        let (dir, spec) = temp_spec(&format!("repeat-{tag}"), &format!("{fig8a}{repeat}\n"));
        let out = binary().arg("run-spec").arg(&spec).output().expect("spawn");
        std::fs::remove_dir_all(&dir).ok();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{repeat}: {stderr}");
        for needle in [
            format!("line {appended}: {key}: repeated key"),
            format!("first on line {first_line}"),
        ] {
            assert!(stderr.contains(&needle), "{needle} missing from: {stderr}");
        }
    }
}

#[test]
fn a_cache_record_with_a_repeated_key_reads_as_a_miss() {
    let dir = temp_dir("repeat");
    let cache = dir.join("cache");
    let sweep = || {
        let out = binary()
            .args(["sweep", "--quick", "--protocols", "rcp", "--seeds", "1"])
            .args(["--cache-dir", cache.to_str().unwrap()])
            .output()
            .expect("spawn sweep");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stderr).unwrap()
    };
    assert!(sweep().contains("(0 cache hits, 1 executed)"));
    for entry in std::fs::read_dir(&cache).unwrap() {
        let path = entry.unwrap().path();
        let mut record = std::fs::read_to_string(&path).unwrap();
        record.push_str("completed = 0\n");
        std::fs::write(&path, record).unwrap();
    }
    let stderr = sweep();
    assert!(stderr.contains("(0 cache hits, 1 executed)"), "{stderr}");
    // The recomputed cell replaced the record, which is a hit again.
    let stderr = sweep();
    assert!(stderr.contains("(1 cache hits, 0 executed)"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_axis_flags_expand_a_custom_grid() {
    // --loads / --sizes / --deadlines over the fig5a base: 2 × 1 × 2 = 4 cells.
    let out = binary()
        .args([
            "sweep",
            "--quick",
            "--loads",
            "400,800",
            "--sizes",
            "fixed:20000",
            "--deadlines",
            "paper,none",
        ])
        .output()
        .expect("spawn sweep");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("custom grid, 4 scenarios"), "{stdout}");
    for cell in [
        "load=400/size=fixed:20000/deadline=exponential",
        "load=800/size=fixed:20000/deadline=none",
    ] {
        assert!(stdout.contains(cell), "{cell} missing from:\n{stdout}");
    }
}

#[test]
fn sweep_can_grid_over_a_spec_file_base_including_fluid() {
    // A fluid-backend base spec swept across the three fluid-capable schemes: the
    // §2.1 comparison as one sweep invocation.
    let out = binary()
        .args(["sweep", "--protocols", "tcp,pdq(full),d3"])
        .arg(workspace_file("specs/fig1_fluid.scn"))
        .output()
        .expect("spawn sweep");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("custom grid, 3 scenarios"), "{stdout}");
    for label in ["TCP", "PDQ(Full)", "D3"] {
        assert!(stdout.contains(label), "{label} missing from:\n{stdout}");
    }
}

#[test]
fn sweep_exits_2_on_empty_or_malformed_axis_values() {
    for (args, needle) in [
        (vec!["sweep", "--loads", "abc"], "bad --loads value"),
        (vec!["sweep", "--loads", ","], "non-empty comma-separated"),
        (vec!["sweep", "--seeds", "1,x"], "bad --seeds value"),
        (vec!["sweep", "--sizes", "huge:1"], "bad --sizes value"),
        // Values that parse but that the workload generators cannot draw from (they
        // used to panic): a Poisson rate that is not positive and finite, and a
        // Pareto tail without a finite mean.
        (
            vec!["sweep", "--quick", "--loads", "0"],
            "bad --loads value",
        ),
        (
            vec!["sweep", "--quick", "--loads", "-5"],
            "bad --loads value",
        ),
        (
            vec!["sweep", "--quick", "--loads", "nan"],
            "bad --loads value",
        ),
        (
            vec!["sweep", "--quick", "--sizes", "pareto:30000:1"],
            "bad --sizes value",
        ),
        (
            vec!["sweep", "--quick", "--sizes", "pareto:30000:nan"],
            "bad --sizes value",
        ),
        (
            vec!["sweep", "--quick", "--sizes", "uniform:200000:100"],
            "bad --sizes value",
        ),
        (
            vec!["sweep", "--deadlines", "soon"],
            "bad --deadlines value",
        ),
        // An axis the base workload cannot express is a descriptive grid error.
        (
            vec!["sweep", "--quick", "--loads", "0.5", "--loads", "0.7"],
            "set twice",
        ),
        // Arrival rates whose flow lists no run can hold (they used to abort, or
        // run until the OOM killer stepped in), and a replicated grid too large to
        // expand.
        (
            vec!["sweep", "--quick", "--loads", "1e12"],
            "more than the 16777216",
        ),
        (
            vec!["sweep", "--quick", "--loads", "1e308"],
            "more than the 16777216",
        ),
        (
            vec!["sweep", "--quick", "--replicate", "1000000000"],
            "12 cells x 1000000000 seeds is more than the 1048576 runs",
        ),
        // Discipline arguments that used to run under their own label.
        (
            vec!["sweep", "--quick", "--protocols", "pdq(full;aging=NaN)"],
            "aging rate",
        ),
        (
            vec!["sweep", "--quick", "--protocols", "pdq(full;estimate=0)"],
            "estimate granularity",
        ),
        // The global shard-count flag has no 0 either.
        (
            vec!["sweep", "--quick", "--engine-threads", "0"],
            "shard count of at least 1",
        ),
    ] {
        let mut sweep = binary();
        sweep.args(&args);
        let out = output_within(sweep, 60);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(needle), "args {args:?}: {stderr}");
    }
    // Axis flags outside sweep are rejected too — on every non-sweep subcommand,
    // not just bare experiments, so they are never silently dropped.
    for args in [
        vec!["fig1", "--seeds", "1,2"],
        vec!["list", "--loads", "5"],
        vec!["run-spec", "specs/fig1_fluid.scn", "--seeds", "1,2"],
    ] {
        let out = binary().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("only apply to sweep"),
            "args {args:?}: {stderr}"
        );
    }
}

/// A throwaway directory for cache tests, keyed so parallel tests never collide.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdq-cli-cache-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sweep_second_run_is_served_entirely_from_the_cache_with_identical_output() {
    let dir = temp_dir("rerun");
    let cache = dir.join("cache");
    let jsonl = dir.join("cells.jsonl");
    let sweep_args = |extra: &[&str]| {
        let mut v = vec![
            "sweep".to_string(),
            "--quick".into(),
            "--protocols".into(),
            "rcp".into(),
            "--seeds".into(),
            "1,2".into(),
            "--cache-dir".into(),
            cache.to_str().unwrap().into(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };
    let first = binary()
        .args(sweep_args(&[]))
        .output()
        .expect("spawn first sweep");
    assert!(
        first.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let first_err = String::from_utf8(first.stderr).unwrap();
    assert!(
        first_err.contains("(0 cache hits, 2 executed)"),
        "{first_err}"
    );
    let second = binary()
        .args(sweep_args(&["--jsonl", jsonl.to_str().unwrap()]))
        .output()
        .expect("spawn second sweep");
    assert!(second.status.success());
    let second_err = String::from_utf8(second.stderr).unwrap();
    assert!(
        second_err.contains("(2 cache hits, 0 executed)"),
        "{second_err}"
    );
    // The cached table is byte-identical to the freshly computed one.
    assert_eq!(first.stdout, second.stdout);
    // Every streamed JSONL cell on the second run came from the cache and names
    // its request fingerprint.
    let stream = std::fs::read_to_string(&jsonl).unwrap();
    let lines: Vec<&str> = stream.lines().collect();
    assert_eq!(lines.len(), 2, "{stream}");
    for line in &lines {
        assert!(line.ends_with("\"cached\":true}"), "{line}");
        assert!(line.contains("\"request_fingerprint\":\""), "{line}");
    }
    // --no-cache neither reads nor writes: everything executes again.
    let bypass = binary()
        .args(sweep_args(&["--no-cache"]))
        .output()
        .expect("spawn bypass sweep");
    assert!(bypass.status.success());
    let bypass_err = String::from_utf8(bypass.stderr).unwrap();
    assert!(
        bypass_err.contains("(0 cache hits, 2 executed)"),
        "{bypass_err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_sweep_rerun_executes_only_the_missing_cells() {
    // Warm only seed 1 — standing in for a sweep killed partway — then ask for
    // the full grid: the re-run must execute exactly the missing seed-2 cell.
    let dir = temp_dir("resume");
    let cache = dir.join("cache");
    let warm = binary()
        .args(["sweep", "--quick", "--protocols", "rcp", "--seeds", "1"])
        .args(["--cache-dir", cache.to_str().unwrap()])
        .output()
        .expect("spawn warm sweep");
    assert!(warm.status.success());
    let resumed = binary()
        .args(["sweep", "--quick", "--protocols", "rcp", "--seeds", "1,2"])
        .args(["--cache-dir", cache.to_str().unwrap()])
        .output()
        .expect("spawn resumed sweep");
    assert!(resumed.status.success());
    let resumed_err = String::from_utf8(resumed.stderr).unwrap();
    assert!(
        resumed_err.contains("(1 cache hits, 1 executed)"),
        "{resumed_err}"
    );
    // And the resumed table matches a from-scratch uncached run byte for byte.
    let fresh = binary()
        .args(["sweep", "--quick", "--protocols", "rcp", "--seeds", "1,2"])
        .output()
        .expect("spawn fresh sweep");
    assert!(fresh.status.success());
    assert_eq!(resumed.stdout, fresh.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_subcommand_reports_stats_and_clears_records() {
    let dir = temp_dir("stats");
    let cache = dir.join("cache");
    let warm = binary()
        .args(["sweep", "--quick", "--protocols", "rcp", "--seeds", "1,2"])
        .args(["--cache-dir", cache.to_str().unwrap()])
        .output()
        .expect("spawn warm sweep");
    assert!(warm.status.success());
    let stats = binary()
        .args(["cache", "stats", "--cache-dir", cache.to_str().unwrap()])
        .output()
        .expect("spawn cache stats");
    assert!(stats.status.success());
    let stdout = String::from_utf8(stats.stdout).unwrap();
    assert!(stdout.contains("2 record(s)"), "{stdout}");
    // Both cached cells ran the packet backend; the breakdown says so.
    assert!(
        stdout.contains("by backend: 2 packet, 0 flow, 0 fluid"),
        "{stdout}"
    );
    let clear = binary()
        .args(["cache", "clear", "--cache-dir", cache.to_str().unwrap()])
        .output()
        .expect("spawn cache clear");
    assert!(clear.status.success());
    let stdout = String::from_utf8(clear.stdout).unwrap();
    assert!(stdout.contains("removed 2 record(s)"), "{stdout}");
    let empty = binary()
        .args(["cache", "stats", "--cache-dir", cache.to_str().unwrap()])
        .output()
        .expect("spawn cache stats");
    let stdout = String::from_utf8(empty.stdout).unwrap();
    assert!(stdout.contains("0 record(s)"), "{stdout}");
    // An unknown action is an exit-2 usage error.
    let bad = binary()
        .args(["cache", "prune", "--cache-dir", cache.to_str().unwrap()])
        .output()
        .expect("spawn cache prune");
    assert_eq!(bad.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_flags_are_rejected_outside_sweep_and_cache() {
    for args in [
        vec!["fig1", "--cache-dir", "/tmp/nope"],
        vec!["list", "--no-cache"],
        vec!["run-spec", "specs/fig1_fluid.scn", "--jsonl", "/tmp/nope"],
    ] {
        let out = binary().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("only apply to sweep and cache"),
            "args {args:?}: {stderr}"
        );
    }
    // The cache subcommand takes --cache-dir but not the sweep-only flags.
    let out = binary()
        .args(["cache", "stats", "--no-cache"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("only takes --cache-dir"), "{stderr}");
}

#[test]
fn sweep_replicate_reports_confidence_intervals() {
    let out = binary()
        .args(["sweep", "--quick", "--replicate", "2", "--threads", "2"])
        .output()
        .expect("spawn sweep");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("cells x 2 seeds"), "{stdout}");
    assert!(stdout.contains('±'), "{stdout}");
    // --replicate rejects zero.
    let bad = binary()
        .args(["sweep", "--replicate", "0"])
        .output()
        .expect("spawn");
    assert_eq!(bad.status.code(), Some(2));
}
