//! Fingerprint-keyed persistent result cache: content-addressed on-disk
//! [`RunSummary`] records for resumable, incremental sweeps.
//!
//! Every scenario run is fully determined by its canonical spec text (topology,
//! workload, protocol, seed, backend, stop time — everything except the free-form
//! scenario *name*), so the cache keys records by a **request fingerprint**: a hash
//! of that canonical spec, computed *before* the run. This is distinct from the
//! post-run determinism fingerprint ([`RunSummary::fingerprint`]), which digests the
//! per-flow outcomes a run actually produced; a cache record stores both — the
//! request fingerprint as the address, the determinism fingerprint as part of the
//! preserved summary.
//!
//! The on-disk layout is one `<fingerprint>.record` file per cell, in the spec's
//! `key = value` format: a `# pdq cache record v1` header, `request_fingerprint`,
//! the canonical spec escaped onto one `request_spec` line (`\` → `\\`, newline →
//! `\n`), then the [`RunSummary::to_record`] body under the scenario name `-`.
//! Writes go to a temporary file published with an atomic rename, so a killed
//! process never leaves a torn record — at worst a stale `.tmp-*` file that
//! [`ResultCache::clear`] sweeps up. Lookups check the stored spec against the
//! request, so even a fingerprint collision is never a false hit; torn, corrupt,
//! colliding and repeated-key records all read as misses and are recomputed.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::backend::SimBackend;
use crate::kv;
use crate::scenario::Scenario;
use crate::summary::RunSummary;

/// How a sweep interacts with a [`ResultCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Return cached cells without running them, and store every newly computed
    /// cell — the resumable-sweep default.
    #[default]
    ReadWrite,
    /// Use cached cells but never write new records (e.g. a read-only shared cache).
    ReadOnly,
    /// Ignore the cache entirely: every cell runs, nothing is stored.
    Bypass,
}

impl CachePolicy {
    /// Whether this policy consults cached records.
    pub fn reads(self) -> bool {
        matches!(self, CachePolicy::ReadWrite | CachePolicy::ReadOnly)
    }

    /// Whether this policy stores newly computed records.
    pub fn writes(self) -> bool {
        matches!(self, CachePolicy::ReadWrite)
    }
}

/// The placeholder written in place of the scenario name when canonicalizing a
/// request: two cells that differ only in their sweep-assigned name are the same
/// simulation, and share one record.
const CANONICAL_NAME: &str = "-";

/// The canonical request spec of a scenario: its plain-text spec with the free-form
/// name normalized out. This is the exact text hashed by [`request_fingerprint`]
/// and stored in the record for collision detection.
pub fn canonical_request_spec(scenario: &Scenario) -> String {
    scenario.clone().name(CANONICAL_NAME).to_spec()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The request fingerprint of a scenario: 32 hex digits addressing its cache
/// record. Hashed over the canonical request spec (so it covers topology, workload,
/// protocol, seed, scale/stop time and backend, but not the scenario name), and
/// computable before the run — unlike the post-run determinism fingerprint.
///
/// Two 64-bit FNV-1a passes over the same text (the second over the
/// first-pass-prefixed text) give a 128-bit key; the stored-spec comparison in
/// [`ResultCache::lookup`] makes even a full collision harmless.
pub fn request_fingerprint(scenario: &Scenario) -> String {
    spec_fingerprint(&canonical_request_spec(scenario))
}

/// [`request_fingerprint`] of an already canonical request spec.
fn spec_fingerprint(spec: &str) -> String {
    let lo = fnv1a64(spec.as_bytes(), FNV_OFFSET);
    let hi = fnv1a64(spec.as_bytes(), lo ^ FNV_OFFSET);
    format!("{hi:016x}{lo:016x}")
}

/// Aggregate statistics of a cache directory, from [`ResultCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheDirStats {
    /// Number of `.record` files.
    pub records: usize,
    /// Total size of the record files, bytes.
    pub bytes: u64,
    /// Records whose stored run executed on the packet backend.
    pub packet_records: usize,
    /// Records whose stored run executed on the flow backend.
    pub flow_records: usize,
    /// Records whose stored run executed on the fluid backend.
    pub fluid_records: usize,
}

/// A persistent, content-addressed store of [`RunSummary`] records, one plain-text
/// file per cached cell under a directory (conventionally `.pdq-cache/`).
///
/// Records preserve a run's headline statistics and determinism fingerprint, not
/// the engine-specific per-flow results; a summary restored from the cache carries
/// [`crate::BackendResults::Cached`] in place of the full records.
#[derive(Clone, Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (creating if needed) the cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The record file a scenario's result lives at (whether or not it exists yet).
    pub fn record_path(&self, scenario: &Scenario) -> PathBuf {
        self.dir
            .join(format!("{}.record", request_fingerprint(scenario)))
    }

    /// Look up the cached summary for `scenario`. Misses — no record, an unreadable
    /// or corrupt record, or a stored spec that does not match the request (a hash
    /// collision) — all return `None`; the caller recomputes and overwrites.
    ///
    /// The returned summary carries the *requesting* scenario's name: records are
    /// stored name-normalized so overlapping grids share cells whatever each sweep
    /// called them.
    pub fn lookup(&self, scenario: &Scenario) -> Option<RunSummary> {
        let spec = canonical_request_spec(scenario);
        let path = self.dir.join(format!("{}.record", spec_fingerprint(&spec)));
        let text = fs::read_to_string(path).ok()?;
        let record = kv::Reader::new(&text, &[]).ok()?;
        if record.get("request_spec")?.value != kv::escape(&spec) {
            return None;
        }
        let mut summary = RunSummary::read_record(&record).ok()?;
        summary.scenario = scenario.name.clone();
        Some(summary)
    }

    /// Store `summary` as the record for `scenario`, atomically: the record is
    /// written to a temporary file in the same directory and published with a
    /// rename, so concurrent readers and a mid-write kill both see either the old
    /// state or the complete new record, never a torn one.
    pub fn store(&self, scenario: &Scenario, summary: &RunSummary) -> io::Result<()> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let spec = canonical_request_spec(scenario);
        let fingerprint = spec_fingerprint(&spec);
        let mut w = kv::Writer::new("pdq cache record v1");
        w.put("request_fingerprint", &fingerprint);
        w.put("request_spec", kv::escape(&spec));
        let mut record = w.finish();
        // Canonicalize the stored name too: the record's bytes are identical
        // whichever sweep cell produced it.
        record.push_str(&summary.record_named(CANONICAL_NAME));
        let tmp = self.dir.join(format!(
            "{fingerprint}.tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, &record)?;
        let path = self.dir.join(format!("{fingerprint}.record"));
        fs::rename(&tmp, &path).inspect_err(|_| {
            fs::remove_file(&tmp).ok();
        })
    }

    /// Record count and total size of the cache directory, with a per-backend
    /// breakdown of the records (read from each record's `backend =` line; torn or
    /// corrupt records count toward the totals but toward no backend).
    pub fn stats(&self) -> io::Result<CacheDirStats> {
        let mut stats = CacheDirStats::default();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "record") {
                stats.records += 1;
                stats.bytes += entry.metadata()?.len();
                let text = fs::read_to_string(entry.path()).unwrap_or_default();
                let record = kv::Reader::new(&text, &[]).ok();
                match record.and_then(|r| r.optional("backend").ok()?) {
                    Some(SimBackend::Packet) => stats.packet_records += 1,
                    Some(SimBackend::Flow) => stats.flow_records += 1,
                    Some(SimBackend::Fluid) => stats.fluid_records += 1,
                    None => {}
                }
            }
        }
        Ok(stats)
    }

    /// Delete every record (and any stale temporary file from a killed writer);
    /// returns the number of records removed.
    pub fn clear(&self) -> io::Result<usize> {
        let mut removed = 0;
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let is_record = path.extension().is_some_and(|e| e == "record");
            let is_stale_tmp = name.contains(".tmp-");
            if is_record || is_stale_tmp {
                fs::remove_file(&path)?;
                if is_record {
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }
}

/// One sweep cell as a JSONL line: the headline summary fields plus the cell's
/// index in the sweep (lines stream in completion order, not scenario order — the
/// index lets a consumer re-sort), its request fingerprint, and whether it came
/// from the cache. Hand-rolled JSON; all values are finite numbers, booleans, or
/// escaped strings.
pub fn jsonl_record(
    index: usize,
    scenario: &Scenario,
    summary: &RunSummary,
    cached: bool,
) -> String {
    let s = |v: &str| {
        let mut out = String::with_capacity(v.len() + 2);
        out.push('"');
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    };
    let f = |v: Option<f64>| v.map(|v| v.to_string()).unwrap_or_else(|| "null".into());
    format!(
        "{{\"index\":{index},\"scenario\":{},\"protocol\":{},\"label\":{},\"backend\":{},\
         \"seed\":{},\"flows\":{},\"completed\":{},\"terminated\":{},\"failed\":{},\
         \"unfinished\":{},\"deadline_flows\":{},\"deadlines_met\":{},\"mean_fct_secs\":{},\
         \"p99_fct_secs\":{},\"max_fct_secs\":{},\"goodput_bytes\":{},\"end_time_ns\":{},\
         \"coflows\":{},\"coflows_completed\":{},\"coflow_deadlines\":{},\
         \"coflow_deadlines_met\":{},\"mean_cct_secs\":{},\"p95_cct_secs\":{},\
         \"request_fingerprint\":{},\"cached\":{cached}}}",
        s(&summary.scenario),
        s(&summary.protocol),
        s(&summary.protocol_label),
        s(summary.backend.token()),
        summary.seed,
        summary.flows,
        summary.completed,
        summary.terminated,
        summary.failed,
        summary.unfinished,
        summary.deadline_flows,
        summary.deadlines_met,
        f(summary.mean_fct_secs),
        f(summary.p99_fct_secs),
        f(summary.max_fct_secs),
        summary.goodput_bytes,
        summary.end_time.as_nanos(),
        summary.coflows,
        summary.coflows_completed,
        summary.coflow_deadlines,
        summary.coflow_deadlines_met,
        f(summary.mean_cct_secs),
        f(summary.p95_cct_secs),
        s(&request_fingerprint(scenario)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!(
            "pdq-cache-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        ResultCache::open(dir).unwrap()
    }

    #[test]
    fn fingerprint_ignores_the_name_but_nothing_else() {
        let a = Scenario::new("alpha");
        let b = Scenario::new("beta");
        assert_eq!(request_fingerprint(&a), request_fingerprint(&b));
        assert_eq!(request_fingerprint(&a).len(), 32);
        for different in [
            a.clone().seed(2),
            a.clone().protocol("tcp"),
            a.clone().backend(SimBackend::Flow),
            a.clone().stop_at(pdq_netsim::SimTime::from_secs(5)),
        ] {
            assert_ne!(
                request_fingerprint(&a),
                request_fingerprint(&different),
                "{different:?}"
            );
        }
    }

    #[test]
    fn corrupt_and_colliding_records_read_as_misses() {
        let cache = temp_cache("corrupt");
        let scenario = Scenario::new("s");
        // No record at all.
        assert!(cache.lookup(&scenario).is_none());
        // A torn/corrupt record is a miss, not an error.
        fs::write(cache.record_path(&scenario), "# pdq cache record v1\nreq").unwrap();
        assert!(cache.lookup(&scenario).is_none());
        // A record whose stored spec differs from the request (a collision, or a
        // record produced by an incompatible version) is a miss too.
        let other = Scenario::new("s").seed(99);
        let mut record = format!(
            "# pdq cache record v1\nrequest_fingerprint = {}\nrequest_spec = {}\n",
            request_fingerprint(&scenario),
            kv::escape(&canonical_request_spec(&other))
        );
        record.push_str(
            "scenario = -\nprotocol = pdq(full)\nprotocol_label = PDQ(Full)\n\
             backend = packet\nseed = 1\nflows = 0\ncompleted = 0\nterminated = 0\n\
             failed = 0\nunfinished = 0\ndeadline_flows = 0\ndeadlines_met = 0\n\
             mean_fct_secs = -\np99_fct_secs = -\nmax_fct_secs = -\ngoodput_bytes = 0\n\
             end_time_ns = 0\nfingerprint = end=0;\n",
        );
        fs::write(cache.record_path(&scenario), &record).unwrap();
        assert!(cache.lookup(&scenario).is_none());
        fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn stats_break_records_down_by_backend() {
        let cache = temp_cache("backends");
        for (name, backend) in [
            ("a", "packet"),
            ("b", "packet"),
            ("c", "flow"),
            ("d", "fluid"),
        ] {
            fs::write(
                cache.dir().join(format!("{name}.record")),
                format!("# pdq cache record v1\nbackend = {backend}\n"),
            )
            .unwrap();
        }
        // A torn record counts toward the totals but toward no backend.
        fs::write(cache.dir().join("torn.record"), "whatever").unwrap();
        let stats = cache.stats().unwrap();
        assert_eq!(stats.records, 5);
        assert_eq!(stats.packet_records, 2);
        assert_eq!(stats.flow_records, 1);
        assert_eq!(stats.fluid_records, 1);
        fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn clear_sweeps_stale_tmp_files_and_reports_record_count() {
        let cache = temp_cache("clear");
        // Simulate a writer killed between write and rename.
        fs::write(cache.dir().join("deadbeef.tmp-1-0"), "torn").unwrap();
        fs::write(cache.dir().join("deadbeef.record"), "whatever").unwrap();
        assert_eq!(
            cache.stats().unwrap(),
            CacheDirStats {
                records: 1,
                bytes: 8,
                ..CacheDirStats::default()
            }
        );
        assert_eq!(cache.clear().unwrap(), 1);
        assert_eq!(cache.stats().unwrap(), CacheDirStats::default());
        assert!(!cache.dir().join("deadbeef.tmp-1-0").exists());
        fs::remove_dir_all(cache.dir()).ok();
    }
}
