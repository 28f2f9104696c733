//! What the harness prints and writes: tables for people, the one-line JSON result
//! for the pipeline, and the line-based report a `perf all` child hands its parent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::harness::{OutputCheck, TimedReport};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::Quartiles;
use crate::tracepass::TracedReport;

/// `text` as a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `value` as a JSON number with all its digits (JSON has no NaN or infinity).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// The pipeline's result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    check: &OutputCheck,
    metrics: impl Iterator<Item = (&'static str, &'static str, f64)>,
) -> String {
    let (correct, (attempted, failed)) = (check.passed(), check.ops());
    let metrics: Vec<String> = metrics
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn print_check(check: &OutputCheck, workload: &str) {
    let (attempted, failed) = check.ops();
    println!("  ops_attempted = {attempted}  ops_failed = {failed}");
    for (key, digest) in check.digests() {
        println!("  pin {workload} {key} {digest}");
    }
    for problem in &check.problems {
        println!("  PROBLEM {problem}");
    }
}

pub fn print_timed(report: &TimedReport) {
    println!(
        "== {} seed {}: timed pass, {} reps after 1 warm-up",
        report.workload, report.seed, report.reps
    );
    println!(
        "  {:<20} {:>10} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14} {:>3}",
        "metric", "unit", "value", "min", "p25", "median", "p75", "max", "n"
    );
    for (def, q) in END_TO_END.iter().zip(&report.end_to_end) {
        println!(
            "  {:<20} {:>10} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>3}",
            def.name,
            def.unit,
            def.reported(q),
            q.min,
            q.p25,
            q.median,
            q.p75,
            q.max,
            q.n
        );
    }
    let walls: Vec<String> = report
        .wall_samples
        .iter()
        .map(|w| format!("{w:.3}"))
        .collect();
    println!("  wall_s per rep: {}", walls.join(" "));
    print_check(&report.check, report.workload);
}

pub fn print_traced(report: &TracedReport) {
    println!(
        "== {} seed {}: traced pass (spans: {})",
        report.workload,
        report.seed,
        report.spans.display()
    );
    for (name, unit, value) in report.layers.all() {
        println!("  {name:<36} {value:>18.6} {unit}");
    }
    print_check(&report.check, report.workload);
}

/// What a `perf all` / `perf selfcheck` child reports back, parsed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChildReport {
    pub end_to_end: BTreeMap<String, Quartiles>,
    pub layers: BTreeMap<String, f64>,
    pub digests: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl ChildReport {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

fn check_lines(out: &mut String, check: &OutputCheck) {
    let (attempted, failed) = check.ops();
    let _ = writeln!(out, "ops\t{attempted}\t{failed}");
    for (key, digest) in check.digests() {
        let _ = writeln!(out, "digest\t{key}\t{digest}");
    }
    for problem in &check.problems {
        let _ = writeln!(out, "problem\t{}", problem.replace(['\t', '\n'], " "));
    }
}

/// The tab-separated child report of a timed pass.
pub fn timed_detail(report: &TimedReport) -> String {
    let mut out = String::new();
    for (def, q) in END_TO_END.iter().zip(&report.end_to_end) {
        let _ = writeln!(
            out,
            "metric\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            def.name, q.n, q.min, q.p25, q.median, q.p75, q.max
        );
    }
    check_lines(&mut out, &report.check);
    out
}

/// The tab-separated child report of a traced pass.
pub fn traced_detail(report: &TracedReport) -> String {
    let mut out = String::new();
    for (name, _, value) in report.layers.all() {
        let _ = writeln!(out, "layer\t{name}\t{value}");
    }
    check_lines(&mut out, &report.check);
    out
}

/// Parse a child report written by [`timed_detail`] or [`traced_detail`].
pub fn parse_detail(text: &str) -> Result<ChildReport, String> {
    let mut report = ChildReport::default();
    for line in text.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        let bad = || format!("bad child report line {line:?}");
        let num = |i: usize| -> Result<f64, String> {
            fields.get(i).and_then(|f| f.parse().ok()).ok_or_else(bad)
        };
        match fields[0] {
            "metric" => {
                let q = Quartiles {
                    n: num(2)? as usize,
                    min: num(3)?,
                    p25: num(4)?,
                    median: num(5)?,
                    p75: num(6)?,
                    max: num(7)?,
                };
                report.end_to_end.insert(fields[1].to_string(), q);
            }
            "layer" => {
                report.layers.insert(fields[1].to_string(), num(2)?);
            }
            "digest" if fields.len() == 3 => {
                report
                    .digests
                    .insert(fields[1].to_string(), fields[2].to_string());
            }
            "ops" => {
                report.attempted = num(1)? as u64;
                report.failed = num(2)? as u64;
            }
            "problem" if fields.len() == 2 => report.problems.push(fields[1].to_string()),
            _ => return Err(bad()),
        }
    }
    Ok(report)
}

/// One workload's two passes, as `perf all` gathered them.
pub struct WorkloadResult {
    pub name: &'static str,
    pub timed: ChildReport,
    pub traced: ChildReport,
}

/// The machine-readable record of a `perf all` run (`--out FILE`).
pub fn all_json(
    results: &[WorkloadResult],
    seed: u64,
    reps: usize,
    nproc: usize,
    correct: bool,
) -> String {
    let mut out = format!(
        "{{\n  \"seed\": {seed},\n  \"nproc\": {nproc},\n  \"timed_reps\": {reps},\n  \
         \"correct\": {correct},\n  \"workloads\": {{\n"
    );
    for (i, result) in results.iter().enumerate() {
        let _ = writeln!(out, "    {}: {{", json_string(result.name));
        let _ = writeln!(
            out,
            "      \"ops_attempted\": {}, \"ops_failed\": {}, \"correct\": {},",
            result.timed.attempted + result.traced.attempted,
            result.timed.failed + result.traced.failed,
            result.timed.correct() && result.traced.correct()
        );
        out.push_str("      \"end_to_end\": {\n");
        let rows: Vec<String> = END_TO_END
            .iter()
            .filter_map(|def| Some((def, result.timed.end_to_end.get(def.name)?)))
            .map(|(def, q)| {
                format!(
                    "        {}: {{\"unit\": {}, \"value\": {}, \"min\": {}, \"p25\": {}, \
                     \"median\": {}, \"p75\": {}, \"max\": {}, \"n\": {}, \
                     \"iqr_over_median\": {}}}",
                    json_string(def.name),
                    json_string(def.unit),
                    json_number(def.reported(q)),
                    json_number(q.min),
                    json_number(q.p25),
                    json_number(q.median),
                    json_number(q.p75),
                    json_number(q.max),
                    q.n,
                    json_number(q.spread())
                )
            })
            .collect();
        let _ = writeln!(out, "{}\n      }},", rows.join(",\n"));
        out.push_str("      \"per_layer\": {\n");
        let rows: Vec<String> = PER_LAYER
            .iter()
            .filter_map(|(name, unit, _)| Some((name, unit, result.traced.layers.get(*name)?)))
            .map(|(name, unit, value)| {
                format!(
                    "        {}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(*value),
                    json_string(unit)
                )
            })
            .collect();
        let _ = writeln!(out, "{}\n      }}", rows.join(",\n"));
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("  }\n}\n");
    out
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys_and_full_precision() {
        let line = result_line(
            &OutputCheck::default(),
            [("wall_s", "s", 1.2345678901234567), ("bad", "s", f64::NAN)].into_iter(),
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.2345678901234567, \"unit\": \"s\"}, \
             \"bad\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn json_strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(json_string("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn child_reports_round_trip() {
        let text = "metric\twall_s\t7\t1.5\t1.75\t2\t2.25\t3\nlayer\tpdq.host.busy_s\t0.125\n\
                    digest\ta[tcp]\tabc\nops\t40\t3\nproblem\tsomething broke\n";
        let report = parse_detail(text).unwrap();
        let q = report.end_to_end["wall_s"];
        assert_eq!(
            (q.n, q.min, q.p25, q.median, q.p75),
            (7, 1.5, 1.75, 2.0, 2.25)
        );
        assert_eq!(q.max, 3.0);
        assert_eq!(report.layers["pdq.host.busy_s"], 0.125);
        assert_eq!(report.digests["a[tcp]"], "abc");
        assert_eq!((report.attempted, report.failed), (40, 3));
        assert!(!report.correct());
        assert!(parse_detail("metric\twall_s\tseven\n").is_err());
        assert!(parse_detail("nonsense\n").is_err());
    }
}
