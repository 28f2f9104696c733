//! PDQ protocol parameters and feature variants.

use pdq_netsim::SimTime;

/// Fallback RTT used before any measurement exists (data-center scale, ~150 µs).
pub(crate) const DEFAULT_RTT: SimTime = SimTime::from_micros(150);

/// Which optional PDQ mechanisms are enabled. The paper evaluates four variants
/// (Figure 3): `Basic`, `ES` (Early Start), `ES+ET` (plus Early Termination) and
/// `Full` (plus Suppressed Probing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PdqVariant {
    /// No Early Start, no Early Termination, no Suppressed Probing.
    Basic,
    /// Early Start only.
    EarlyStart,
    /// Early Start + Early Termination.
    EarlyStartEarlyTermination,
    /// Early Start + Early Termination + Suppressed Probing (the complete protocol).
    Full,
}

impl PdqVariant {
    /// Human-readable label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            PdqVariant::Basic => "PDQ(Basic)",
            PdqVariant::EarlyStart => "PDQ(ES)",
            PdqVariant::EarlyStartEarlyTermination => "PDQ(ES+ET)",
            PdqVariant::Full => "PDQ(Full)",
        }
    }
}

/// All tunable PDQ parameters, with defaults from the paper.
#[derive(Clone, Debug)]
pub struct PdqParams {
    /// Enable Early Start (§3.3.2). Default true.
    pub early_start: bool,
    /// Enable Early Termination (§3.1). Default true.
    pub early_termination: bool,
    /// Enable Suppressed Probing (§3.3.2). Default true.
    pub suppressed_probing: bool,
    /// Early Start threshold `K` (in RTTs of remaining transmission time). The paper
    /// recommends 1–2 and uses 2.
    pub early_start_k: f64,
    /// Suppressed Probing constant `X` (in RTTs per queued flow). The paper uses 0.2.
    pub probing_x: f64,
    /// Dampening window: after accepting a non-sending flow, a switch pauses further
    /// non-sending flows for this long (§3.3.2 "Dampening").
    pub damping: SimTime,
    /// Hard upper bound `M` on the number of flows a switch stores per link; beyond it
    /// the least-critical flows fall back to RCP-style fair sharing (§3.3.1).
    pub max_switch_flows: usize,
    /// Never trim the flow list below this many entries (keeps enough state to unpause
    /// promptly even when κ is tiny).
    pub min_list_size: usize,
    /// A switch pauses a flow outright instead of granting it less than this fraction
    /// of the link rate. Transient slivers of leftover bandwidth (caused by the rate
    /// controller wobbling around the committed allocations) otherwise leak to paused
    /// flows and disturb the preemptive schedule.
    pub min_accept_fraction: f64,
    /// How many bytes an M-PDQ flow is split into per subflow boundary / how many
    /// subflows a multipath sender creates (1 = plain single-path PDQ).
    pub subflows: usize,
    /// Coflow-aware criticality: a sender whose flow carries a
    /// [`pdq_netsim::CoflowTag`] advertises its *group's* bottleneck transmission
    /// time (never less than its own) and inherits the group deadline, so switches
    /// schedule whole coflows smallest-bottleneck-first / earliest-group-deadline-
    /// first. Untagged flows behave exactly as plain PDQ. Default false.
    pub coflow_aware: bool,
    /// RFC 9002-style token-bucket pacing: the sender drains token-bounded
    /// bursts at the granted rate instead of the fixed one-packet-per-gap
    /// schedule (better long-haul pipe utilization at WAN BDPs). `None` (the
    /// default) keeps the historical schedule byte for byte.
    pub pacer: Option<pdq_netsim::PacerConfig>,
}

impl Default for PdqParams {
    fn default() -> Self {
        PdqParams {
            early_start: true,
            early_termination: true,
            suppressed_probing: true,
            early_start_k: 2.0,
            probing_x: 0.2,
            // One RTT: long enough to cover the reverse-path delay before a freshly
            // un-paused flow's rate is committed (the overcommit window dampening is
            // meant to close), short enough not to leave the link idle between
            // consecutive sub-RTT flows (Figure 7).
            damping: SimTime::from_micros(150),
            max_switch_flows: 10_000,
            min_list_size: 8,
            min_accept_fraction: 0.01,
            subflows: 1,
            coflow_aware: false,
            pacer: None,
        }
    }
}

impl PdqParams {
    /// Parameters for one of the paper's four variants.
    pub fn variant(v: PdqVariant) -> Self {
        let mut p = PdqParams::default();
        match v {
            PdqVariant::Basic => {
                p.early_start = false;
                p.early_termination = false;
                p.suppressed_probing = false;
            }
            PdqVariant::EarlyStart => {
                p.early_termination = false;
                p.suppressed_probing = false;
            }
            PdqVariant::EarlyStartEarlyTermination => {
                p.suppressed_probing = false;
            }
            PdqVariant::Full => {}
        }
        p
    }

    /// The complete protocol (PDQ(Full)).
    pub fn full() -> Self {
        Self::variant(PdqVariant::Full)
    }

    /// The complete protocol with coflow-aware criticality (C-PDQ).
    pub fn coflow() -> Self {
        let mut p = Self::full();
        p.coflow_aware = true;
        p
    }

    /// The effective Early Start threshold: 0 when Early Start is disabled.
    pub fn effective_k(&self) -> f64 {
        if self.early_start {
            self.early_start_k
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = PdqParams::default();
        assert_eq!(p.early_start_k, 2.0);
        assert_eq!(p.probing_x, 0.2);
        assert!(p.early_start && p.early_termination && p.suppressed_probing);
    }

    #[test]
    fn variants_toggle_features() {
        let b = PdqParams::variant(PdqVariant::Basic);
        assert!(!b.early_start && !b.early_termination && !b.suppressed_probing);
        assert_eq!(b.effective_k(), 0.0);

        let es = PdqParams::variant(PdqVariant::EarlyStart);
        assert!(es.early_start && !es.early_termination && !es.suppressed_probing);
        assert_eq!(es.effective_k(), 2.0);

        let eset = PdqParams::variant(PdqVariant::EarlyStartEarlyTermination);
        assert!(eset.early_start && eset.early_termination && !eset.suppressed_probing);

        let full = PdqParams::full();
        assert!(full.early_start && full.early_termination && full.suppressed_probing);
    }

    #[test]
    fn labels() {
        assert_eq!(PdqVariant::Full.label(), "PDQ(Full)");
        assert_eq!(PdqVariant::Basic.label(), "PDQ(Basic)");
    }
}
