//! Spans of the traced pass: kept in memory while the run is measured, written as
//! JSON lines when it is over. A layer's self time is its span minus the part of
//! that interval its children cover.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One closed interval of host time spent in a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span this one happened inside, if any.
    pub parent: Option<u32>,
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects the spans of one workload's traced run. Single-threaded by design:
/// what happens on engine worker threads reaches it as aggregated child spans.
pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    /// Ids of the spans currently open, innermost last.
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Open a span now, inside the innermost open span.
    pub fn enter(&mut self, name: &str) -> u32 {
        let now = self.ns(Instant::now());
        let id = self.push(self.open.last().copied(), name, now, now);
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let now = self.ns(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = now;
    }

    /// Record an already-measured interval inside the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) -> u32 {
        self.record_in(self.open.last().copied(), name, start, end)
    }

    /// Record an already-measured interval as a child of `parent`.
    pub fn record_in(
        &mut self,
        parent: Option<u32>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(parent, name, s, e)
    }

    /// Attach aggregated children to `parent`: one span per `(name, busy_ns)`, laid
    /// end to end from the parent's start and cut off at its end (busy time summed
    /// over worker threads can exceed the parent's wall time).
    pub fn attach_aggregates(&mut self, parent: u32, children: &[(&str, u64)]) {
        let (mut at, end) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.end_ns)
        };
        for &(name, busy_ns) in children {
            let stop = at.saturating_add(busy_ns).min(end);
            self.push(Some(parent), name, at, stop);
            at = stop;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span: `{id, parent, name, workload, start_ns, end_ns}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"workload\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                crate::report::json_string(&s.name),
                crate::report::json_string(&self.workload),
                s.start_ns,
                s.end_ns
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())
    }
}

/// Self time of span `id`: its duration minus the part of its interval covered by
/// its direct children (overlapping children are counted once; parts of a child
/// outside the parent are ignored).
pub fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let parent = &spans[id as usize];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children_but_not_grandchildren() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
            span(3, Some(2), 60, 70), // nested: counts against span 2 only
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 40);
        assert_eq!(self_time_ns(&spans, 2), 40 - 10);
        assert_eq!(self_time_ns(&spans, 3), 10);
    }

    #[test]
    fn self_time_counts_overlapping_and_overhanging_children_once() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 160), // overlaps span 1 by 10
            span(3, Some(0), 190, 250), // hangs 50 past the parent
            span(4, Some(0), 120, 130), // inside span 1
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 10);
    }

    #[test]
    fn aggregates_are_laid_end_to_end_and_cut_at_the_parent() {
        let mut t = Tracer::new("w");
        let run = t.push(None, "netsim.engine.run", 1_000, 2_000);
        t.attach_aggregates(run, &[("pdq.switch", 300), ("pdq.host", 900)]);
        let kids: Vec<(u64, u64)> = t.spans()[1..]
            .iter()
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        assert_eq!(kids, vec![(1_000, 1_300), (1_300, 2_000)]);
        assert_eq!(self_time_ns(t.spans(), run), 0);
    }

    #[test]
    fn enter_exit_nest_and_serialize() {
        let mut t = Tracer::new("w\"x");
        let outer = t.enter("scenario.run");
        let t0 = Instant::now();
        let inner = t.record("topology.build", t0, Instant::now());
        t.exit(outer);
        assert_eq!(t.spans()[inner as usize].parent, Some(outer));
        let dir = crate::workdir::scratch_dir("spans-test").unwrap();
        let path = dir.join("spans.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"workload\": \"w\\\"x\""), "{text}");
        assert!(text.contains("\"parent\": null"), "{text}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
