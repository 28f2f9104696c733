//! Coflows: groups of flows with collective completion semantics.
//!
//! A coflow (Chowdhury & Stoica; see also "Efficient Coflow Scheduling in
//! Hybrid-Switched Data Center Networks", arXiv:2306.09713) is a set of flows that
//! belong to one application-level job — a shuffle or aggregation stage — and that
//! only matters as a unit: the job proceeds when the *last* member finishes, so the
//! metric of interest is the coflow completion time (CCT), not any individual FCT.
//!
//! This module provides the [`Coflow`] abstraction, a generator producing
//! coflow-structured aggregation traffic (Poisson coflow arrivals, every member
//! destined to the coflow's reducer host, sizes from the existing distributions,
//! optional per-coflow deadlines), and the [`CoflowTag`] stamping that lets
//! coflow-aware schedulers recover group criticality from static per-flow data —
//! membership rides on the emitted [`FlowSpec`]s, so no shared mutable state is
//! needed at schedule time and partitioned-engine determinism is preserved.

use std::sync::Arc;

use pdq_netsim::{CoflowId, CoflowTag, FlowSpec, NodeId, SimTime};
use pdq_topology::Topology;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::deadlines::DeadlineDist;
use crate::sizes::SizeDist;

/// A group of flows with collective completion semantics: the coflow completes when
/// its last member does, and (optionally) carries one deadline for the whole group.
#[derive(Clone, Debug, PartialEq)]
pub struct Coflow {
    /// Group identity.
    pub id: CoflowId,
    /// When the coflow (and all its members) arrives.
    pub arrival: SimTime,
    /// The group's collective deadline (absolute), if any.
    pub deadline: Option<SimTime>,
    /// Member flows, already stamped with this coflow's [`CoflowTag`].
    pub members: Vec<FlowSpec>,
}

impl Coflow {
    /// Build a coflow from untagged member specs: stamps every member with the
    /// group's tag (id, bottleneck, deadline) and inherits the group deadline onto
    /// members, so flow-level schedulers see the same deadline the group carries.
    pub fn new(
        id: CoflowId,
        arrival: SimTime,
        deadline: Option<SimTime>,
        members: Vec<FlowSpec>,
    ) -> Self {
        let bottleneck_bytes = members.iter().map(|m| m.size_bytes).max().unwrap_or(0);
        let tag = Arc::new(CoflowTag {
            id,
            bottleneck_bytes,
            deadline,
        });
        let members = members
            .into_iter()
            .map(|mut m| {
                m.arrival = arrival;
                if let Some(d) = deadline.filter(|_| m.deadline().is_none()) {
                    m = m.with_deadline(d);
                }
                m.with_coflow(Arc::clone(&tag))
            })
            .collect();
        Coflow {
            id,
            arrival,
            deadline,
            members,
        }
    }

    /// Size in bytes of the group's largest member — the bottleneck a coflow-aware
    /// scheduler derives criticality from.
    pub fn bottleneck_bytes(&self) -> u64 {
        self.members.iter().map(|m| m.size_bytes).max().unwrap_or(0)
    }

    /// Total bytes across all members (the group's work).
    pub fn total_bytes(&self) -> u64 {
        self.members.iter().map(|m| m.size_bytes).sum()
    }

    /// The tag stamped onto every member.
    pub fn tag(&self) -> CoflowTag {
        CoflowTag {
            id: self.id,
            bottleneck_bytes: self.bottleneck_bytes(),
            deadline: self.deadline,
        }
    }
}

/// Configuration for coflow-structured aggregation traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct CoflowConfig {
    /// Number of coflows to generate.
    pub coflows: usize,
    /// Member flows per coflow (the aggregation fan-in).
    pub width: usize,
    /// Coflow arrival rate (Poisson process); `<= 0` starts every coflow at time 0.
    pub rate_coflows_per_sec: f64,
    /// Member flow sizes.
    pub sizes: SizeDist,
    /// Per-coflow deadlines (relative to the coflow's arrival).
    pub deadlines: DeadlineDist,
}

/// Generate `cfg.coflows` aggregation coflows: each picks one reducer host and
/// `cfg.width` distinct sender hosts, every sender contributing one flow to the
/// reducer, all members arriving together at the coflow's (Poisson) arrival time.
/// Member flow ids are dense starting at `first_id`; coflow ids are dense starting
/// at `first_coflow_id`.
pub fn coflow_set(
    topo: &Topology,
    cfg: &CoflowConfig,
    first_id: u64,
    first_coflow_id: u64,
    rng: &mut SmallRng,
) -> Vec<Coflow> {
    let hosts = &topo.hosts;
    assert!(hosts.len() >= 2, "coflows need at least two hosts");
    let width = cfg.width.clamp(1, hosts.len() - 1);
    let mut coflows = Vec::with_capacity(cfg.coflows);
    let mut id = first_id;
    let mut t = 0.0f64;
    for k in 0..cfg.coflows {
        if cfg.rate_coflows_per_sec > 0.0 && k > 0 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / cfg.rate_coflows_per_sec;
        }
        let arrival = SimTime::from_secs_f64(t);
        let reducer = hosts[rng.gen_range(0..hosts.len())];
        let mut senders: Vec<NodeId> = hosts.iter().copied().filter(|&h| h != reducer).collect();
        senders.shuffle(rng);
        senders.truncate(width);
        let members: Vec<FlowSpec> = senders
            .iter()
            .map(|&src| {
                let size = cfg.sizes.sample(rng).max(1);
                let spec = FlowSpec::new(id, src, reducer, size);
                id += 1;
                spec
            })
            .collect();
        let deadline = cfg.deadlines.sample_after(arrival, rng);
        coflows.push(Coflow::new(
            CoflowId(first_coflow_id + k as u64),
            arrival,
            deadline,
            members,
        ));
    }
    coflows
}

/// Flatten a coflow set into the tagged member [`FlowSpec`]s, in coflow order.
pub fn coflow_flows(coflows: &[Coflow]) -> Vec<FlowSpec> {
    coflows.iter().flat_map(|c| c.members.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_netsim::LinkParams;
    use pdq_topology::single_rooted_tree;
    use rand::SeedableRng;

    fn topo() -> Topology {
        single_rooted_tree(4, 3, LinkParams::default(), LinkParams::default())
    }

    fn cfg() -> CoflowConfig {
        CoflowConfig {
            coflows: 10,
            width: 4,
            rate_coflows_per_sec: 500.0,
            sizes: SizeDist::query(),
            deadlines: DeadlineDist::paper_default(),
        }
    }

    #[test]
    fn members_share_tag_arrival_and_deadline() {
        let t = topo();
        let mut rng = SmallRng::seed_from_u64(1);
        let coflows = coflow_set(&t, &cfg(), 0, 0, &mut rng);
        assert_eq!(coflows.len(), 10);
        for c in &coflows {
            assert_eq!(c.members.len(), 4);
            let bottleneck = c.bottleneck_bytes();
            assert!(c.members.iter().any(|m| m.size_bytes == bottleneck));
            for m in &c.members {
                let tag = m.coflow().expect("member is tagged");
                let first = c.members[0].coflow();
                assert!(std::ptr::eq(tag, first.unwrap()), "members share one tag");
                assert_eq!(tag.id, c.id);
                assert_eq!(tag.bottleneck_bytes, bottleneck);
                assert_eq!(tag.deadline, c.deadline);
                assert_eq!(m.arrival, c.arrival);
                assert_eq!(
                    m.deadline(),
                    c.deadline,
                    "members inherit the group deadline"
                );
                assert_ne!(m.src, m.dst);
            }
            // Aggregation: all members converge on one reducer from distinct senders.
            let dst = c.members[0].dst;
            assert!(c.members.iter().all(|m| m.dst == dst));
            let mut srcs: Vec<u32> = c.members.iter().map(|m| m.src.0).collect();
            srcs.sort_unstable();
            srcs.dedup();
            assert_eq!(srcs.len(), 4, "senders are distinct");
        }
        // Flow and coflow ids are dense; arrivals are nondecreasing.
        let flows = coflow_flows(&coflows);
        let mut ids: Vec<u64> = flows.iter().map(|f| f.id.value()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
        for w in coflows.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
            assert_eq!(w[0].id.value() + 1, w[1].id.value());
        }
    }

    #[test]
    fn zero_rate_starts_everything_at_time_zero() {
        let t = topo();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut c = cfg();
        c.rate_coflows_per_sec = 0.0;
        c.deadlines = DeadlineDist::None;
        let coflows = coflow_set(&t, &c, 100, 5, &mut rng);
        assert!(coflows.iter().all(|c| c.arrival == SimTime::ZERO));
        assert!(coflows.iter().all(|c| c.deadline.is_none()));
        assert_eq!(coflows[0].id, CoflowId(5));
        assert_eq!(coflows[0].members[0].id.value(), 100);
    }

    #[test]
    fn generator_is_deterministic_in_the_seed() {
        let t = topo();
        let gen = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            coflow_set(&t, &cfg(), 0, 0, &mut rng)
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    fn width_is_clamped_to_available_senders() {
        let t = topo();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut c = cfg();
        c.width = 10_000;
        let coflows = coflow_set(&t, &c, 0, 0, &mut rng);
        // 12 hosts: at most 11 senders besides the reducer.
        assert!(coflows.iter().all(|c| c.members.len() == t.hosts.len() - 1));
    }

    #[test]
    fn total_and_bottleneck_bytes() {
        let members = vec![
            FlowSpec::new(1, NodeId(0), NodeId(9), 300),
            FlowSpec::new(2, NodeId(1), NodeId(9), 700),
        ];
        let c = Coflow::new(CoflowId(1), SimTime::ZERO, None, members);
        assert_eq!(c.total_bytes(), 1_000);
        assert_eq!(c.bottleneck_bytes(), 700);
        assert_eq!(c.tag().bottleneck_bytes, 700);
    }
}
