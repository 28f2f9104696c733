//! The benchmark's metric names, units and bounds — the same lists
//! `BENCHMARK.json` declares. README.md in this directory is the glossary.

use std::collections::BTreeMap;

use crate::stats::Quartiles;

/// An end-to-end metric: what a user of the simulator would see.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the earlier median by which the later one may be worse.
    pub bound: f64,
    /// Which statistic over a run's reps is the run's value: the best rep (fastest,
    /// or highest rate) when true, the median when false.
    pub best_rep: bool,
}

impl EndToEnd {
    /// The run's value of this metric, given the statistics over its reps.
    pub fn reported(&self, reps: &Quartiles) -> f64 {
        match (self.best_rep, self.lower_is_better) {
            (false, _) => reps.median,
            (true, true) => reps.min,
            (true, false) => reps.max,
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
    best_rep: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better,
        bound,
        best_rep,
    }
}

/// Every run reports these seven, on every workload.
///
/// The reps of a run repeat one deterministic computation, so what differs between
/// them is the host, which only ever adds time: the run's `wall_s`, `cpu_s` and
/// `sim_flows_per_s` are those of its best rep (on this container the fastest rep
/// repeats within about 8 % from run to run, the median rep within about 13 %).
/// `setup_s` is a median over many short set-ups. The `peak_rss_mb` and `sim_*`
/// bounds leave room for what another seed's inputs change (the pipeline compares
/// runs across seeds; over ten seeds `fattree_burst`'s peak RSS spread 8 % and
/// `wan_paced`'s mean FCT 4–10 %, a single straggling TCP flow moving one seed's
/// value by a quarter); at a fixed seed the `sim_*` values are exact, and the
/// output check (fingerprint pins, rep agreement) is what holds them there.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", true, 0.25, false),
    e2e("wall_s", "s", true, 0.25, true),
    e2e("cpu_s", "s", true, 0.25, true),
    e2e("sim_flows_per_s", "flows/s", false, 0.25, true),
    e2e("peak_rss_mb", "MB", true, 0.25, false),
    e2e("sim_mean_fct_ms", "sim_ms", true, 0.25, false),
    e2e("sim_app_throughput", "fraction", false, 0.02, false),
];

/// A per-layer metric: `(name, unit, lower_is_better)`. Layers are module names.
pub type PerLayer = (&'static str, &'static str, bool);

/// Every traced run reports all of these; a layer the workload never enters reads 0.
/// For pure size descriptors (flows, links, shards) the direction is nominal.
pub const PER_LAYER: &[PerLayer] = &[
    ("netsim.event.pushes", "count", true),
    ("netsim.event.pops", "count", true),
    ("netsim.event.peak_pending", "count", true),
    ("netsim.event.overflow_migrations", "count", true),
    ("netsim.event.buckets_sorted", "count", true),
    ("netsim.event.replay_ns_per_op", "ns", true),
    ("netsim.event.replay_s", "s", true),
    ("netsim.event.est_share", "fraction", true),
    ("netsim.engine.events", "count", true),
    ("netsim.engine.events_per_flow", "count", true),
    ("netsim.engine.ns_per_event", "ns", true),
    ("netsim.engine.events_per_s", "1/s", false),
    ("netsim.engine.tail_drops", "count", true),
    ("netsim.engine.flows_unfinished", "count", true),
    ("netsim.engine.setup_s", "s", true),
    ("netsim.engine.run_s", "s", true),
    ("netsim.engine.self_s", "s", true),
    ("netsim.engine.self_share", "fraction", true),
    ("netsim.engine.allocs", "count", true),
    ("netsim.engine.allocs_per_event", "count", true),
    ("netsim.engine.alloc_peak_mb", "MB", true),
    ("netsim.shard.shards", "count", false),
    ("netsim.shard.lookahead_ns", "ns", false),
    ("netsim.shard.cut_links", "count", true),
    ("netsim.shard.windows_bound", "count", true),
    ("netsim.shard.speedup", "ratio", false),
    ("netsim.shard.cpu_over_wall", "ratio", true),
    ("netsim.pacer.timers", "count", true),
    ("netsim.pacer.replay_ns_per_send", "ns", true),
    ("topology.build_s", "s", true),
    ("topology.partition_s", "s", true),
    ("topology.links", "count", false),
    ("topology.ecmp.calls", "count", true),
    ("topology.ecmp.busy_s", "s", true),
    ("workloads.generate_s", "s", true),
    ("workloads.flows", "count", false),
    ("workloads.bytes", "count", false),
    ("scenario.spec_parse_s", "s", true),
    ("scenario.resolve_s", "s", true),
    ("scenario.summarize_s", "s", true),
    ("scenario.fingerprint_s", "s", true),
    ("scenario.record_encode_s", "s", true),
    ("scenario.record_decode_s", "s", true),
    ("scenario.cache.store_s", "s", true),
    ("scenario.cache.lookup_s", "s", true),
    ("scenario.sweep.cold_s", "s", true),
    ("scenario.sweep.warm_s", "s", true),
    ("scenario.sweep.hits", "count", false),
    ("scenario.sweep.parallel_eff", "fraction", false),
    ("pdq.switch.calls_fwd", "count", true),
    ("pdq.switch.calls_rev", "count", true),
    ("pdq.switch.calls_tick", "count", true),
    ("pdq.switch.busy_s", "s", true),
    ("pdq.switch.ns_per_call", "ns", true),
    ("pdq.switch.share", "fraction", true),
    ("pdq.switch.peak_tracked_flows", "count", true),
    ("pdq.host.calls_arrival", "count", true),
    ("pdq.host.calls_packet", "count", true),
    ("pdq.host.calls_timer", "count", true),
    ("pdq.host.busy_s", "s", true),
    ("pdq.host.ns_per_call", "ns", true),
    ("pdq.host.share", "fraction", true),
    ("pdq.host.peak_active_senders", "count", true),
    ("baselines.tcp.agent_calls", "count", true),
    ("baselines.tcp.agent_busy_s", "s", true),
    ("baselines.rate_host.calls", "count", true),
    ("baselines.rate_host.busy_s", "s", true),
    ("baselines.rcp.ctrl_calls", "count", true),
    ("baselines.rcp.ctrl_busy_s", "s", true),
    ("baselines.d3.ctrl_calls", "count", true),
    ("baselines.d3.ctrl_busy_s", "s", true),
    ("flowsim.level.run_s", "s", true),
    ("flowsim.level.flows_per_s", "flows/s", false),
    ("flowsim.fluid.run_s", "s", true),
    ("trace.overhead_frac", "fraction", true),
    ("trace.timer_ns", "ns", true),
    ("trace.sample_every", "count", false),
];

/// The per-layer values of one traced run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Set `name`, which must be one of [`PER_LAYER`].
    ///
    /// # Panics
    /// On a name the benchmark does not declare: a misspelt metric is a bug here.
    pub fn set(&mut self, name: &str, value: f64) {
        let (declared, _, _) = PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name:?}"));
        self.0.insert(declared, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every declared metric in declaration order, unset ones as 0.
    pub fn all(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, self.get(name)))
    }
}

/// `numerator / denominator`, or 0 when there is nothing to divide by.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_benchmark_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn timings_report_the_best_rep_and_the_rest_the_median() {
        let reps = Quartiles::of(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        let by_name = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap();
        assert_eq!(by_name("wall_s").reported(&reps), 1.0);
        assert_eq!(by_name("sim_flows_per_s").reported(&reps), 5.0);
        assert_eq!(by_name("setup_s").reported(&reps), 3.0);
    }

    #[test]
    fn layer_values_default_to_zero_and_reject_unknown_names() {
        let mut v = LayerValues::default();
        v.set("pdq.switch.busy_s", 0.25);
        assert_eq!(v.get("pdq.switch.busy_s"), 0.25);
        assert_eq!(v.get("pdq.host.busy_s"), 0.0);
        assert_eq!(v.all().count(), PER_LAYER.len());
        assert!(std::panic::catch_unwind(move || v.set("pdq.switch.bussy_s", 1.0)).is_err());
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
