//! `perf`: the repository's benchmark. Five workloads, seven end-to-end metrics from
//! a timed pass, per-layer numbers from a separately traced pass, every output
//! checked. README.md in this directory says what is measured and why.
//!
//! ```text
//! perf all [--seed N] [--reps R] [--out FILE]     every workload, both passes
//! perf selfcheck [--seed N] [--reps R]            the timed pass twice, compared
//! perf smoke                                      tiny input through both passes
//! perf --workload W --seed N --seconds S --trace 0|1     one pass of one workload
//! ```

mod alloc;
mod harness;
mod metrics;
mod registry;
mod report;
mod spans;
mod stats;
mod sys;
mod timed;
mod tracepass;
mod workdir;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use harness::{timed_pass, Limits};
use metrics::END_TO_END;
use report::{ChildReport, WorkloadResult};
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Timed reps `perf all` and `perf selfcheck` make per workload.
const DEFAULT_REPS: usize = 7;

const USAGE: &str = "usage: perf all [--seed N] [--reps R] [--out FILE]
       perf selfcheck [--seed N] [--reps R]
       perf smoke
       perf --workload NAME [--seed N] [--seconds S] [--reps R] [--trace 0|1]
            [--detail FILE] [--spans FILE]";

#[derive(Debug, Default)]
struct Options {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: bool,
    detail: Option<PathBuf>,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => options.workload = Some(value.clone()),
                "--seed" => options.seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let seconds: f64 = value.parse().map_err(|_| bad())?;
                    if !(seconds.is_finite() && seconds >= 0.0) {
                        return Err(bad());
                    }
                    options.seconds = Some(seconds);
                }
                "--reps" => {
                    let reps: usize = value.parse().map_err(|_| bad())?;
                    if !(1..=1_000).contains(&reps) {
                        return Err(bad());
                    }
                    options.reps = Some(reps);
                }
                "--trace" => {
                    options.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--detail" => options.detail = Some(PathBuf::from(value)),
                "--out" => options.out = Some(PathBuf::from(value)),
                "--spans" => options.spans = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown option {flag}\n{USAGE}")),
            }
        }
        Ok(options)
    }

    fn seed(&self) -> u64 {
        self.seed.unwrap_or(1)
    }
}

/// One pass of one workload in this process; the last line printed is the result.
/// A failed output check is reported in that line's `correct`, not as an error.
fn single(options: &Options) -> Result<(), String> {
    let name = options
        .workload
        .as_deref()
        .ok_or_else(|| USAGE.to_string())?;
    let workload = Workload::named(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; the benchmark runs: {}",
            workloads::BENCHMARK.join(", ")
        )
    })?;
    println!("== {}: {}", workload.name, workload.why);
    let (detail, line) = if options.trace {
        let report = tracepass::traced_pass(&workload, options.seed(), options.spans.as_deref())?;
        report::print_traced(&report);
        (
            report::traced_detail(&report),
            report::result_line(&report.check, report.layers.all()),
        )
    } else {
        let limits = Limits {
            seconds: options.seconds,
            reps: options.reps,
        };
        let report = timed_pass(&workload, options.seed(), limits)?;
        report::print_timed(&report);
        let metrics = END_TO_END
            .iter()
            .zip(&report.end_to_end)
            .map(|(def, q)| (def.name, def.unit, def.reported(q)));
        (
            report::timed_detail(&report),
            report::result_line(&report.check, metrics),
        )
    };
    if let Some(path) = &options.detail {
        report::write_file(path, &detail)?;
    }
    println!("{line}");
    Ok(())
}

/// Run one pass of `workload` in a fresh process (so `peak_rss_mb` is the
/// workload's own) and read its report back.
fn child(workload: &str, seed: u64, reps: usize, trace: bool) -> Result<ChildReport, String> {
    let dir = workdir::root();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let detail = dir.join(format!(
        "child-{workload}-{}-{}.tsv",
        if trace { "traced" } else { "timed" },
        std::process::id()
    ));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--reps", &reps.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .status()
        .map_err(|e| format!("spawning the {workload} child: {e}"))?;
    if !status.success() {
        return Err(format!("the {workload} child exited with {status}"));
    }
    let text =
        std::fs::read_to_string(&detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    let _ = std::fs::remove_file(&detail);
    report::parse_detail(&text)
}

/// Every workload through both passes, then the checks that span workloads.
fn all(options: &Options) -> Result<bool, String> {
    let (seed, reps) = (options.seed(), options.reps.unwrap_or(DEFAULT_REPS));
    let mut results = Vec::new();
    for name in workloads::BENCHMARK {
        results.push(WorkloadResult {
            name,
            timed: child(name, seed, reps, false)?,
            traced: child(name, seed, reps, true)?,
        });
    }

    let mut problems: Vec<String> = Vec::new();
    for r in &results {
        if r.timed.digests != r.traced.digests {
            problems.push(format!(
                "{}: traced-pass fingerprints differ from the timed pass's",
                r.name
            ));
        }
        for (pass, report) in [("timed", &r.timed), ("traced", &r.traced)] {
            problems.extend(
                report
                    .problems
                    .iter()
                    .map(|p| format!("{} ({pass}): {p}", r.name)),
            );
            if report.failed > 0 {
                problems.push(format!(
                    "{} ({pass}): {} of {} operations failed",
                    r.name, report.failed, report.attempted
                ));
            }
        }
    }
    let by_name = |name: &str| results.iter().find(|r| r.name == name);
    if let (Some(one), Some(two)) = (by_name("fattree_steady"), by_name("fattree_steady_2shard")) {
        if one.timed.digests != two.timed.digests {
            problems.push("fattree_steady_2shard's fingerprint is not fattree_steady's".into());
        }
        let wall = |r: &WorkloadResult| r.timed.end_to_end.get("wall_s").map(|q| q.min);
        if let (Some(sequential), Some(sharded)) = (wall(one), wall(two)) {
            println!(
                "== netsim.shard.speedup from the wall_s of fattree_steady and \
                 fattree_steady_2shard: {:.4} on {} cores",
                metrics::ratio(sequential, sharded),
                sys::nproc()
            );
        }
    }

    let correct = problems.is_empty();
    println!(
        "== perf all: seed {seed}, {reps} timed reps, nproc {}: {}",
        sys::nproc(),
        if correct {
            "every output check passed"
        } else {
            "FAILED"
        }
    );
    for problem in &problems {
        println!("  PROBLEM {problem}");
    }
    if let Some(path) = &options.out {
        let json = report::all_json(&results, seed, reps, sys::nproc(), correct);
        report::write_file(path, &json)?;
        println!("  wrote {}", path.display());
    }
    Ok(correct)
}

/// The timed pass twice on the same build: do two sets of runs agree within the
/// benchmark's own bounds?
fn selfcheck(options: &Options) -> Result<bool, String> {
    let (seed, reps) = (options.seed(), options.reps.unwrap_or(DEFAULT_REPS));
    let mut rows = Vec::new();
    for name in workloads::BENCHMARK {
        let first = child(name, seed, reps, false)?;
        let second = child(name, seed, reps, false)?;
        rows.push((name, first, second));
    }
    println!("== perf selfcheck: seed {seed}, {reps} timed reps per run");
    println!(
        "  {:<22} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut ok = true;
    for (name, first, second) in &rows {
        ok &= first.correct() && second.correct();
        for def in END_TO_END {
            let (Some(a), Some(b)) = (
                first.end_to_end.get(def.name),
                second.end_to_end.get(def.name),
            ) else {
                return Err(format!("{name}: a child did not report {}", def.name));
            };
            let (a, b) = (def.reported(a), def.reported(b));
            let diff = stats::worsening(a, b, def.lower_is_better);
            let within = diff.abs() <= def.bound;
            ok &= within;
            println!(
                "  {:<22} {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%{}",
                name,
                def.name,
                a,
                b,
                diff * 100.0 + 0.0, // -0.0 prints as "-0.00%"
                def.bound * 100.0,
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    println!(
        "  {}",
        if ok {
            "every pair of values agrees within its bound"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

/// `engine_scale_quick`-sized input through both passes, in this process.
fn smoke() -> Result<bool, String> {
    let workload = Workload::named("smoke").expect("the smoke workload exists");
    let limits = Limits {
        seconds: None,
        reps: Some(2),
    };
    let timed = timed_pass(&workload, 1, limits)?;
    report::print_timed(&timed);
    let traced = tracepass::traced_pass(&workload, 1, None)?;
    report::print_traced(&traced);
    let same = timed.check.digests() == traced.check.digests();
    if !same {
        println!("  PROBLEM traced-pass fingerprints differ from the timed pass's");
    }
    Ok(timed.check.passed() && traced.check.passed() && same)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(word) if !word.starts_with("--") => (word, &args[1..]),
        _ => ("", &args[..]),
    };
    let outcome = Options::parse(rest).and_then(|options| match command {
        "all" => all(&options),
        "selfcheck" => selfcheck(&options),
        "smoke" => smoke(),
        "" => single(&options).map(|()| true),
        _ => Err(USAGE.to_string()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_pipeline_form_parses() {
        let o = Options::parse(&args(&[
            "--workload",
            "wan_paced",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("wan_paced"));
        assert_eq!((o.seed(), o.seconds, o.trace), (9, Some(20.0), true));
        assert_eq!(Options::parse(&[]).unwrap().seed(), 1);
    }

    #[test]
    fn bad_options_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--reps", "0"],
            &["--frobnicate", "1"],
        ] {
            assert!(Options::parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    /// Both passes, end to end, on the smoke input: rep agreement, traced == timed
    /// fingerprints, every declared metric reported, no failed operations.
    #[test]
    fn smoke_pushes_a_quick_input_through_both_passes() {
        let started = std::time::Instant::now();
        assert_eq!(smoke(), Ok(true));
        assert!(started.elapsed().as_secs_f64() < 5.0 || cfg!(debug_assertions));
    }
}
