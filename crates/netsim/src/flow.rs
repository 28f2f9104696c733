//! Flow descriptions, paths and per-flow accounting.

use crate::ids::{CoflowId, FlowId, LinkId, NodeId};
use crate::time::SimTime;

/// Coflow membership stamped onto a [`FlowSpec`] at workload-generation time.
///
/// The tag carries everything a coflow-aware scheduler needs *statically*: the group
/// identity, the size of the group's largest member (its bottleneck), and the group's
/// collective deadline. Because it is immutable data on the spec — not shared mutable
/// state — schedulers that read it stay deterministic under the partitioned engine at
/// every shard count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoflowTag {
    /// The coflow this flow belongs to.
    pub id: CoflowId,
    /// Size in bytes of the coflow's largest member — the group bottleneck a
    /// coflow-aware scheduler derives criticality from.
    pub bottleneck_bytes: u64,
    /// The coflow's collective deadline (absolute), if any.
    pub deadline: Option<SimTime>,
}

/// A flow to be transferred from `src` to `dst`.
///
/// The experiment driver creates `FlowSpec`s (from a workload generator) and injects
/// them into the simulator as flow-arrival events; the source host's transport agent
/// is then responsible for delivering `size_bytes` bytes to the destination.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowSpec {
    /// Unique flow identifier.
    pub id: FlowId,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Application bytes to transfer.
    pub size_bytes: u64,
    /// Optional absolute deadline by which the transfer should complete.
    pub deadline: Option<SimTime>,
    /// Time at which the flow arrives at the sender.
    pub arrival: SimTime,
    /// For M-PDQ subflows: the parent flow this subflow belongs to.
    pub parent: Option<FlowId>,
    /// Coflow membership, if this flow is part of a group with collective
    /// completion semantics.
    pub coflow: Option<CoflowTag>,
}

impl FlowSpec {
    /// Convenience constructor for a flow with no deadline arriving at time zero.
    pub fn new(id: u64, src: NodeId, dst: NodeId, size_bytes: u64) -> Self {
        FlowSpec {
            id: FlowId(id),
            src,
            dst,
            size_bytes,
            deadline: None,
            arrival: SimTime::ZERO,
            parent: None,
            coflow: None,
        }
    }

    /// Set the deadline (absolute time) and return the modified spec.
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the arrival time and return the modified spec.
    pub fn with_arrival(mut self, arrival: SimTime) -> Self {
        self.arrival = arrival;
        self
    }

    /// Tag this flow as a member of a coflow and return the modified spec.
    pub fn with_coflow(mut self, tag: CoflowTag) -> Self {
        self.coflow = Some(tag);
        self
    }
}

/// The forward path taken by a flow: a sequence of nodes and the unidirectional links
/// connecting them. `nodes.len() == links.len() + 1`, `nodes[0]` is the source host and
/// `nodes[last]` the destination host. ACKs traverse the reverse links in reverse order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowPath {
    /// Visited nodes, source first.
    pub nodes: Vec<NodeId>,
    /// Forward-direction links, `links[i]` connects `nodes[i] -> nodes[i+1]`.
    pub links: Vec<LinkId>,
}

impl FlowPath {
    /// Create a path, checking the node/link count invariant.
    pub fn new(nodes: Vec<NodeId>, links: Vec<LinkId>) -> Self {
        assert_eq!(
            nodes.len(),
            links.len() + 1,
            "a path over k links visits k+1 nodes"
        );
        assert!(!links.is_empty(), "a path must traverse at least one link");
        FlowPath { nodes, links }
    }

    /// Number of links traversed.
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// Source host.
    pub fn src(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination host.
    pub fn dst(&self) -> NodeId {
        *self.nodes.last().unwrap()
    }
}

/// What ultimately happened to a flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowOutcome {
    /// Still active when the simulation ended.
    Active,
    /// All bytes delivered.
    Completed,
    /// Gave up (PDQ Early Termination or D3 quenching).
    Terminated,
    /// Never started: the router found no path from source to destination. The flow is
    /// recorded (so results stay complete) but no agent ever saw it.
    Failed,
}

/// Per-flow accounting kept by the simulator.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowRecord {
    /// The flow's specification.
    pub spec: FlowSpec,
    /// Bytes of *distinct* payload delivered to the destination agent so far
    /// (retransmitted duplicates are not counted twice by well-behaved receivers;
    /// the engine itself counts raw deliveries in `raw_bytes_delivered`).
    pub bytes_acked: u64,
    /// Raw payload bytes handed to the destination host (including duplicates).
    pub raw_bytes_delivered: u64,
    /// Data packets dropped on any queue for this flow.
    pub drops: u64,
    /// When the flow finished, if it did.
    pub completed_at: Option<SimTime>,
    /// When the flow was terminated early, if it was.
    pub terminated_at: Option<SimTime>,
    /// True if the flow could not be routed (disconnected source/destination pair).
    pub failed: bool,
}

impl FlowRecord {
    /// Create a new record for a flow that has just arrived.
    pub fn new(spec: FlowSpec) -> Self {
        FlowRecord {
            spec,
            bytes_acked: 0,
            raw_bytes_delivered: 0,
            drops: 0,
            completed_at: None,
            terminated_at: None,
            failed: false,
        }
    }

    /// Current outcome of the flow.
    pub fn outcome(&self) -> FlowOutcome {
        if self.failed {
            FlowOutcome::Failed
        } else if self.completed_at.is_some() {
            FlowOutcome::Completed
        } else if self.terminated_at.is_some() {
            FlowOutcome::Terminated
        } else {
            FlowOutcome::Active
        }
    }

    /// Flow completion time, if the flow completed.
    pub fn fct(&self) -> Option<SimTime> {
        self.completed_at
            .map(|t| t.saturating_sub(self.spec.arrival))
    }

    /// True if the flow completed before its deadline. Flows without deadlines count as
    /// meeting the deadline when they complete (matching the paper's Application
    /// Throughput metric, which is only applied to deadline-constrained flows anyway).
    pub fn met_deadline(&self) -> bool {
        match (self.completed_at, self.spec.deadline) {
            (Some(done), Some(dl)) => done <= dl,
            (Some(_), None) => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FlowSpec {
        FlowSpec::new(1, NodeId(0), NodeId(1), 10_000)
            .with_deadline(SimTime::from_millis(20))
            .with_arrival(SimTime::from_millis(1))
    }

    #[test]
    fn spec_builders() {
        let s = spec();
        assert_eq!(s.size_bytes, 10_000);
        assert_eq!(s.deadline, Some(SimTime::from_millis(20)));
        assert_eq!(s.arrival, SimTime::from_millis(1));
        assert!(s.parent.is_none());
    }

    #[test]
    fn path_invariants() {
        let p = FlowPath::new(
            vec![NodeId(0), NodeId(5), NodeId(1)],
            vec![LinkId(0), LinkId(1)],
        );
        assert_eq!(p.hops(), 2);
        assert_eq!(p.src(), NodeId(0));
        assert_eq!(p.dst(), NodeId(1));
    }

    #[test]
    #[should_panic]
    fn path_mismatched_lengths_panics() {
        let _ = FlowPath::new(vec![NodeId(0), NodeId(1)], vec![LinkId(0), LinkId(1)]);
    }

    #[test]
    fn record_outcomes() {
        let mut r = FlowRecord::new(spec());
        assert_eq!(r.outcome(), FlowOutcome::Active);
        assert_eq!(r.fct(), None);
        assert!(!r.met_deadline());

        r.completed_at = Some(SimTime::from_millis(11));
        assert_eq!(r.outcome(), FlowOutcome::Completed);
        assert_eq!(r.fct(), Some(SimTime::from_millis(10)));
        assert!(r.met_deadline());

        let mut late = FlowRecord::new(spec());
        late.completed_at = Some(SimTime::from_millis(30));
        assert!(!late.met_deadline());

        let mut term = FlowRecord::new(spec());
        term.terminated_at = Some(SimTime::from_millis(5));
        assert_eq!(term.outcome(), FlowOutcome::Terminated);
        assert!(!term.met_deadline());
    }
}
