//! The PDQ receiver (§3.2).
//!
//! The receiver's job is deliberately small: echo the scheduling header of every
//! forward packet back to the sender on the corresponding ACK, cap the granted rate at
//! what the receiver can absorb, and track how many in-order bytes have arrived so the
//! flow can be declared complete.

use pdq_netsim::{Ctx, FlowId, Packet, PacketKind};

/// Per-flow PDQ receiver state.
#[derive(Debug)]
pub struct PdqReceiver {
    flow: FlowId,
    /// Total application bytes expected.
    size: u64,
    /// Contiguous bytes received so far (cumulative ACK value).
    received_upto: u64,
    /// The maximum rate the receiver can absorb (bits/s); the echoed header's rate is
    /// capped at this value so the sender never overruns the receiver (§3.2).
    max_rate: f64,
    /// True for M-PDQ subflows: completion is reported by the sender side instead
    /// (subflow sizes change during re-balancing, so only the sender knows when a
    /// subflow is done).
    is_subflow: bool,
    completed: bool,
}

impl PdqReceiver {
    /// Create receiver state for a flow of `size` bytes.
    pub fn new(flow: FlowId, size: u64, max_rate: f64, is_subflow: bool) -> Self {
        PdqReceiver {
            flow,
            size,
            received_upto: 0,
            max_rate,
            is_subflow,
            completed: false,
        }
    }

    /// Contiguous bytes received.
    pub fn received(&self) -> u64 {
        self.received_upto
    }

    /// True once all expected bytes have arrived.
    pub fn is_complete(&self) -> bool {
        self.received_upto >= self.size
    }

    /// True for an M-PDQ subflow, whose sender may send more after its TERM.
    pub fn is_subflow(&self) -> bool {
        self.is_subflow
    }

    /// Handle a forward-direction packet addressed to this receiver, emitting the echo.
    pub fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        match pkt.kind {
            PacketKind::Syn => {
                let mut echo = pkt.make_echo(PacketKind::SynAck, self.received_upto);
                self.cap_rate(&mut echo);
                ctx.send(echo);
            }
            PacketKind::Data => {
                if pkt.seq == self.received_upto {
                    self.received_upto += pkt.payload as u64;
                }
                // Out-of-order or duplicate data is ignored (go-back-N); the cumulative
                // ACK tells the sender where to resume.
                let mut echo = pkt.make_echo(PacketKind::Ack, self.received_upto);
                self.cap_rate(&mut echo);
                ctx.send(echo);
                if self.is_complete() && !self.completed && !self.is_subflow {
                    self.completed = true;
                    ctx.flow_completed(self.flow);
                }
            }
            PacketKind::Probe => {
                let mut echo = pkt.make_echo(PacketKind::Ack, self.received_upto);
                self.cap_rate(&mut echo);
                ctx.send(echo);
            }
            PacketKind::Term => {
                let echo = pkt.make_echo(PacketKind::TermAck, self.received_upto);
                ctx.send(echo);
            }
            _ => {}
        }
    }

    fn cap_rate(&self, echo: &mut Packet) {
        if echo.sched.rate > self.max_rate {
            echo.sched.rate = self.max_rate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_netsim::{Action, FlowInfo, NodeId, SimTime};
    use std::collections::HashMap;

    fn ctx_map() -> HashMap<FlowId, FlowInfo> {
        HashMap::new()
    }

    fn data(seq: u64, payload: u32) -> Packet {
        let mut p = Packet::data(FlowId(1), NodeId(0), NodeId(1), seq, payload);
        p.sched.rate = 1e9;
        p.sched.set_expected_trans_time(0.5);
        p
    }

    fn sent(actions: &[Action]) -> Vec<&Packet> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(p) => Some(p),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn syn_gets_synack_echoing_header() {
        let map = ctx_map();
        let mut r = PdqReceiver::new(FlowId(1), 10_000, 1e9, false);
        let mut ctx = Ctx::new(SimTime::ZERO, &map);
        let mut syn = Packet::control(PacketKind::Syn, FlowId(1), NodeId(0), NodeId(1));
        syn.sched.set_expected_trans_time(0.123);
        r.on_packet(&syn, &mut ctx);
        let actions = ctx.take_actions();
        let pkts = sent(&actions);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].kind, PacketKind::SynAck);
        assert!(pkts[0].reverse());
        assert_eq!(pkts[0].sched.expected_trans_time(), 0.123);
    }

    #[test]
    fn in_order_data_advances_cumulative_ack_and_completes() {
        let map = ctx_map();
        let mut r = PdqReceiver::new(FlowId(1), 3_000, 1e9, false);
        let mut ctx = Ctx::new(SimTime::ZERO, &map);
        r.on_packet(&data(0, 1_500), &mut ctx);
        r.on_packet(&data(1_500, 1_500), &mut ctx);
        let actions = ctx.take_actions();
        let pkts = sent(&actions);
        assert_eq!(pkts[0].ack, 1_500);
        assert_eq!(pkts[1].ack, 3_000);
        assert!(r.is_complete());
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::FlowCompleted(f) if *f == FlowId(1))));
    }

    #[test]
    fn out_of_order_data_repeats_cumulative_ack() {
        let map = ctx_map();
        let mut r = PdqReceiver::new(FlowId(1), 6_000, 1e9, false);
        let mut ctx = Ctx::new(SimTime::ZERO, &map);
        r.on_packet(&data(0, 1_500), &mut ctx);
        // A gap: packet at 3000 arrives before 1500.
        r.on_packet(&data(3_000, 1_500), &mut ctx);
        let actions = ctx.take_actions();
        let pkts = sent(&actions);
        assert_eq!(
            pkts[1].ack, 1_500,
            "gap must not advance the cumulative ACK"
        );
        assert_eq!(r.received(), 1_500);
    }

    #[test]
    fn receiver_caps_granted_rate() {
        let map = ctx_map();
        let mut r = PdqReceiver::new(FlowId(1), 10_000, 1e8, false); // 100 Mbps receiver
        let mut ctx = Ctx::new(SimTime::ZERO, &map);
        r.on_packet(&data(0, 1_000), &mut ctx);
        let actions = ctx.take_actions();
        assert_eq!(sent(&actions)[0].sched.rate, 1e8);
    }

    #[test]
    fn subflow_completion_is_left_to_the_sender() {
        let map = ctx_map();
        let mut r = PdqReceiver::new(FlowId(1), 1_000, 1e9, true);
        let mut ctx = Ctx::new(SimTime::ZERO, &map);
        r.on_packet(&data(0, 1_000), &mut ctx);
        let actions = ctx.take_actions();
        assert!(r.is_complete());
        assert!(!actions
            .iter()
            .any(|a| matches!(a, Action::FlowCompleted(_))));
    }

    #[test]
    fn probe_and_term_are_echoed() {
        let map = ctx_map();
        let mut r = PdqReceiver::new(FlowId(1), 1_000, 1e9, false);
        let mut ctx = Ctx::new(SimTime::ZERO, &map);
        let probe = Packet::control(PacketKind::Probe, FlowId(1), NodeId(0), NodeId(1));
        r.on_packet(&probe, &mut ctx);
        let term = Packet::control(PacketKind::Term, FlowId(1), NodeId(0), NodeId(1));
        r.on_packet(&term, &mut ctx);
        let actions = ctx.take_actions();
        let pkts = sent(&actions);
        assert_eq!(pkts[0].kind, PacketKind::Ack);
        assert_eq!(pkts[1].kind, PacketKind::TermAck);
    }
}
