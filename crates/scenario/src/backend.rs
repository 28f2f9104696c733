//! The [`SimBackend`] axis: which simulation engine executes a scenario.
//!
//! The paper evaluates PDQ with two simulators — the packet-level engine (Figures
//! 3–7 and 9–11) and the §5.5 flow-level model (Figures 8 and 12, the large-scale
//! runs) — and motivates the design with a third: the §2.1 fluid model behind the
//! Figure 1 comparison. A [`crate::Scenario`] names its engine with
//! `backend = packet|flow|fluid`; `packet` is the default, so every pre-existing
//! spec keeps its meaning (and its byte-exact serialization).

use std::fmt;
use std::str::FromStr;

/// Which simulation engine a scenario runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimBackend {
    /// The deterministic packet-level discrete-event simulator (`pdq-netsim`).
    #[default]
    Packet,
    /// The §5.5 flow-level simulator (`pdq-flowsim`): equilibrium rate allocations
    /// recomputed on a 1 ms time scale. Scales to thousands of servers, but only
    /// protocols with a flow-level model support it (see
    /// [`crate::ProtocolInstaller::flow_config`]).
    Flow,
    /// The §2.1 fluid model (Figure 1): one idealized bottleneck, scheduled at
    /// [`pdq_flowsim::FLUID_RATE_BPS`] (one byte per second), where protocols reduce to fair sharing, SJF/EDF or D3's first-come-first-reserve.
    /// Only protocols with a fluid idealization support it (see
    /// [`crate::ProtocolInstaller::fluid_model`]).
    Fluid,
}

impl SimBackend {
    /// The spec token (`packet` / `flow` / `fluid`) written to and parsed from
    /// scenario specs.
    pub fn token(&self) -> &'static str {
        match self {
            SimBackend::Packet => "packet",
            SimBackend::Flow => "flow",
            SimBackend::Fluid => "fluid",
        }
    }

    /// Every backend, in spec-token order.
    pub fn all() -> [SimBackend; 3] {
        [SimBackend::Packet, SimBackend::Flow, SimBackend::Fluid]
    }
}

impl fmt::Display for SimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for SimBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "packet" => Ok(SimBackend::Packet),
            "flow" => Ok(SimBackend::Flow),
            "fluid" => Ok(SimBackend::Fluid),
            other => Err(format!(
                "unknown backend {other:?} (want packet, flow or fluid)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip() {
        for b in SimBackend::all() {
            assert_eq!(b.token().parse::<SimBackend>().unwrap(), b);
            assert_eq!(b.to_string(), b.token());
        }
        assert!("liquid".parse::<SimBackend>().is_err());
        assert_eq!(SimBackend::default(), SimBackend::Packet);
    }
}
