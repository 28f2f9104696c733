//! Switch-side per-link protocol logic.
//!
//! PDQ, RCP and D3 all attach their scheduling intelligence to switch output ports.
//! In this simulator each unidirectional link whose source is a switch may carry a
//! [`LinkController`]: it sees every forward-direction packet just before it is queued
//! on the link, every reverse-direction (ACK) packet when it passes back through the
//! switch that owns the link, and optionally receives periodic ticks (for rate
//! controllers that update once or twice per RTT).
//!
//! Every callback is handed the controller's own link, **settled**: the engine has
//! retired each packet whose serialization completes before the event being
//! dispatched, so [`Link::queue_bytes`] and the link's counters are current. The
//! occupancy counts the packet on the wire until its last bit has left.

use crate::network::Link;
use crate::packet::Packet;
use crate::time::SimTime;

/// Per-output-port protocol logic installed on a switch egress link.
pub trait LinkController {
    /// Called once before the simulation starts. Return `Some(t)` to receive
    /// [`LinkController::on_tick`] at absolute time `t` (and further ticks as returned
    /// by `on_tick`), or `None` for a purely packet-driven controller.
    fn init(&mut self, _now: SimTime, _link: &Link) -> Option<SimTime> {
        None
    }

    /// A forward-direction packet (SYN, DATA, probe or TERM) is about to be enqueued on
    /// this link. The controller may rewrite the packet's scheduling header.
    fn on_forward(&mut self, packet: &mut Packet, now: SimTime, link: &Link);

    /// A reverse-direction packet (SYN-ACK, ACK, TERM-ACK) belonging to a flow whose
    /// forward path uses this link is passing back through the owning switch. The
    /// controller may rewrite the echoed scheduling header.
    fn on_reverse(&mut self, packet: &mut Packet, now: SimTime, link: &Link);

    /// Periodic tick. Return the absolute time of the next tick, or `None` to stop.
    ///
    /// [`Link::queue_bytes`] here is what the rate controllers of PDQ, RCP and D3
    /// drain: the bytes waiting *plus* the packet being serialized. A packet whose
    /// last bit leaves at the very instant of the tick is already gone (transmit
    /// completions order before ticks).
    fn on_tick(&mut self, _now: SimTime, _link: &Link) -> Option<SimTime> {
        None
    }

    /// A human-readable name for diagnostics.
    fn name(&self) -> &'static str {
        "controller"
    }
}

/// A controller that does nothing; useful as a default and in tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullController;

impl LinkController for NullController {
    fn on_forward(&mut self, _packet: &mut Packet, _now: SimTime, _link: &Link) {}
    fn on_reverse(&mut self, _packet: &mut Packet, _now: SimTime, _link: &Link) {}
    fn name(&self) -> &'static str {
        "null"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, NodeId};
    use crate::network::{LinkParams, Network};
    use crate::packet::PacketKind;

    #[test]
    fn null_controller_leaves_packets_untouched() {
        let mut net = Network::new();
        let a = net.add_host("a");
        let s = net.add_switch("s");
        let (l, _) = net.add_duplex_link(a, s, LinkParams::default());
        let link = net.link(l).clone();
        let mut ctl = NullController;
        assert_eq!(ctl.init(SimTime::ZERO, &link), None);
        let mut p = Packet::control(PacketKind::Syn, FlowId(1), NodeId(0), NodeId(1));
        let before = p.clone();
        ctl.on_forward(&mut p, SimTime::ZERO, &link);
        ctl.on_reverse(&mut p, SimTime::ZERO, &link);
        assert_eq!(p.sched, before.sched);
        assert_eq!(ctl.on_tick(SimTime::ZERO, &link), None);
        assert_eq!(ctl.name(), "null");
    }
}
