//! Packets and the in-band scheduling header.
//!
//! PDQ, D3 and RCP all communicate rate / pause decisions through a small scheduling
//! header attached to every data packet and echoed back on the corresponding ACK
//! (PDQ paper §3). We model the union of the fields used by the three protocols in a
//! single [`SchedulingHeader`] struct; the on-wire size charged to each packet is the
//! 16 bytes described in the paper (§7, footnote 11) regardless of which protocol is
//! running, so that protocol overhead comparisons stay fair.

use crate::ids::{FlowId, LinkId, NodeId};
use crate::time::SimTime;

/// Maximum transmission unit used by the simulator (Ethernet-like).
pub const MTU_BYTES: u32 = 1500;
/// Bytes of TCP/IP-style base header per packet (paper assumes ~3% overhead on 1500B).
pub const BASE_HEADER_BYTES: u32 = 40;
/// Bytes of the PDQ/D3/RCP scheduling header (paper §7: four 4-byte fields).
pub const SCHED_HEADER_BYTES: u32 = 16;
/// Maximum payload carried in a single data packet.
pub const MSS_BYTES: u32 = MTU_BYTES - BASE_HEADER_BYTES - SCHED_HEADER_BYTES;
/// Wire size of a packet that carries no payload (SYN, ACK, TERM, probe).
pub const CONTROL_PACKET_BYTES: u32 = BASE_HEADER_BYTES + SCHED_HEADER_BYTES;

/// The role a packet plays in a transport protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Flow-initialization packet (carries the scheduling header, no payload).
    Syn,
    /// Acknowledgment of a SYN.
    SynAck,
    /// Data segment.
    Data,
    /// Acknowledgment of data (carries the echoed scheduling header).
    Ack,
    /// Flow termination (normal completion or PDQ Early Termination).
    Term,
    /// Acknowledgment of a TERM.
    TermAck,
    /// PDQ probe: a scheduling header with no data, sent by paused flows.
    Probe,
}

impl PacketKind {
    /// True for packets travelling from the flow sender towards the receiver.
    pub fn is_forward(self) -> bool {
        matches!(
            self,
            PacketKind::Syn | PacketKind::Data | PacketKind::Term | PacketKind::Probe
        )
    }
    /// True for packets travelling back from the receiver to the sender.
    pub fn is_reverse(self) -> bool {
        !self.is_forward()
    }
    /// True if a PDQ/D3/RCP switch should treat this packet like a data-direction
    /// packet for scheduling purposes (SYN, DATA and probes all carry a fresh header).
    pub fn carries_forward_header(self) -> bool {
        matches!(self, PacketKind::Syn | PacketKind::Data | PacketKind::Probe)
    }
}

/// An opaque tag identifying the switch-egress-link that paused a PDQ flow
/// (the "pauseby" field `P_H` of the paper). We use the link id directly, which is
/// unique per switch output port.
pub type PauseBy = LinkId;

/// The in-band scheduling header.
///
/// Field names follow the paper: the `H` subscript denotes the header copy of each
/// sender variable. Rates are in bits per second, times in seconds (`f64`), matching
/// the paper's fluid quantities; the header is charged [`SCHED_HEADER_BYTES`] on the
/// wire no matter how many of these fields a given protocol uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchedulingHeader {
    /// `R_H`: the sending rate granted so far along the path (bits/s). Senders
    /// initialize it to their maximal rate; switches only ever lower it.
    pub rate: f64,
    /// `P_H`: which switch link (if any) has paused this flow.
    pub pause_by: Option<PauseBy>,
    /// `D_H`: flow deadline (absolute simulation time), if any.
    pub deadline: Option<SimTime>,
    /// `T_H`: expected remaining flow transmission time, in seconds.
    pub expected_trans_time: f64,
    /// `RTT_H`: the sender's measured RTT in seconds (reverse-path reuse of `D_H`).
    pub rtt: f64,
    /// `I_H`: inter-probing time in units of RTTs (reverse-path reuse of `T_H`).
    pub inter_probe_rtts: f64,
    /// D3: rate desired by the sender for the next interval (bits/s).
    pub d3_desired: f64,
    /// D3: rate allocated in the previous interval, to be returned to switches (bits/s).
    pub d3_previous: f64,
    /// D3/RCP: allocation accumulated along the forward path for this interval (bits/s).
    pub d3_allocated: f64,
    /// RCP: the smallest fair-share rate advertised by switches on the path (bits/s).
    pub rcp_rate: f64,
}

impl SchedulingHeader {
    /// A header as a sender first emits it: maximal rate, nothing paused, no feedback.
    pub fn new(max_rate_bps: f64) -> Self {
        SchedulingHeader {
            rate: max_rate_bps,
            pause_by: None,
            deadline: None,
            expected_trans_time: 0.0,
            rtt: 0.0,
            inter_probe_rtts: 0.0,
            d3_desired: 0.0,
            d3_previous: 0.0,
            d3_allocated: 0.0,
            rcp_rate: f64::INFINITY,
        }
    }
}

impl Default for SchedulingHeader {
    fn default() -> Self {
        SchedulingHeader::new(f64::INFINITY)
    }
}

/// A simulated packet.
///
/// Packets are routed by flow: the simulator keeps the forward path of every flow and
/// moves the packet hop by hop; `hop` is the index of the next traversal step in the
/// current direction. Sequence numbers are in bytes for data packets (`seq` = offset of
/// the first payload byte) which keeps TCP-style cumulative ACKs and rate-based
/// protocols uniform.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Packet kind.
    pub kind: PacketKind,
    /// Byte offset of the first payload byte (data) or an opaque counter (control).
    pub seq: u64,
    /// Cumulative acknowledgment: the next byte expected by the receiver.
    pub ack: u64,
    /// Payload bytes carried (0 for control packets).
    pub payload: u32,
    /// Total wire size in bytes (payload + headers); used for queueing and serialization.
    pub wire_size: u32,
    /// Source host of the *flow* (not of this packet; ACKs also carry the flow's source).
    pub src: NodeId,
    /// Destination host of the flow.
    pub dst: NodeId,
    /// True if the packet travels from receiver back to sender (ACK direction).
    pub reverse: bool,
    /// Index of the next hop to traverse along the (possibly reversed) flow path.
    pub hop: usize,
    /// Scheduling header.
    pub sched: SchedulingHeader,
    /// Time the packet was handed to the NIC by the transport (for RTT sampling).
    pub sent_at: SimTime,
    /// Dense index of `flow` in the engine's flow slab, stamped by the engine when the
    /// packet enters the network (and again by a shard that takes it over: slots are
    /// per core). [`INVALID_FLOW_SLOT`] until stamped.
    pub(crate) flow_slot: u32,
    /// Where the flow's links start in the stamping core's route arena, and how many
    /// links its path has: with `hop` and `reverse`, all a hop needs to find its next
    /// link and to know it has arrived (`hop == nlinks`). Stamped with `flow_slot`.
    pub(crate) route: u32,
    pub(crate) nlinks: u32,
}

/// Sentinel for a packet the engine has not stamped with a flow-slab index yet.
pub(crate) const INVALID_FLOW_SLOT: u32 = u32::MAX;

impl Packet {
    /// Create a data packet of `payload` bytes starting at byte offset `seq`.
    pub fn data(flow: FlowId, src: NodeId, dst: NodeId, seq: u64, payload: u32) -> Self {
        Packet {
            flow,
            kind: PacketKind::Data,
            seq,
            ack: 0,
            payload,
            wire_size: payload + BASE_HEADER_BYTES + SCHED_HEADER_BYTES,
            src,
            dst,
            reverse: false,
            hop: 0,
            sched: SchedulingHeader::default(),
            sent_at: SimTime::ZERO,
            flow_slot: INVALID_FLOW_SLOT,
            route: 0,
            nlinks: 0,
        }
    }

    /// Create a zero-payload control packet of the given kind.
    pub fn control(kind: PacketKind, flow: FlowId, src: NodeId, dst: NodeId) -> Self {
        Packet {
            flow,
            kind,
            seq: 0,
            ack: 0,
            payload: 0,
            wire_size: CONTROL_PACKET_BYTES,
            src,
            dst,
            reverse: kind.is_reverse(),
            hop: 0,
            sched: SchedulingHeader::default(),
            sent_at: SimTime::ZERO,
            flow_slot: INVALID_FLOW_SLOT,
            route: 0,
            nlinks: 0,
        }
    }

    /// Build the ACK a receiver sends in response to this forward packet, echoing the
    /// scheduling header (PDQ receiver behaviour, §3.2).
    pub fn make_echo(&self, kind: PacketKind, ack: u64) -> Packet {
        let mut p = Packet::control(kind, self.flow, self.src, self.dst);
        p.reverse = true;
        p.seq = self.seq;
        p.ack = ack;
        p.sched = self.sched;
        p.sent_at = self.sent_at;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_constants_are_consistent() {
        assert_eq!(
            MSS_BYTES + BASE_HEADER_BYTES + SCHED_HEADER_BYTES,
            MTU_BYTES
        );
        assert_eq!(CONTROL_PACKET_BYTES, 56);
    }

    /// Every packet in flight holds a pool slot of this size, and each hop pulls it
    /// into cache: 152 bytes before the route stamp, which may add one word.
    #[test]
    fn route_stamp_adds_at_most_eight_bytes() {
        assert!(std::mem::size_of::<Packet>() <= 152 + 8);
    }

    #[test]
    fn data_packet_wire_size() {
        let p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, MSS_BYTES);
        assert_eq!(p.wire_size, MTU_BYTES);
        assert!(!p.reverse);
        assert_eq!(p.kind, PacketKind::Data);
    }

    #[test]
    fn control_packet_direction() {
        let syn = Packet::control(PacketKind::Syn, FlowId(1), NodeId(0), NodeId(1));
        assert!(!syn.reverse);
        let ack = Packet::control(PacketKind::Ack, FlowId(1), NodeId(0), NodeId(1));
        assert!(ack.reverse);
        assert_eq!(ack.payload, 0);
        assert_eq!(ack.wire_size, CONTROL_PACKET_BYTES);
    }

    #[test]
    fn echo_copies_header_and_flips_direction() {
        let mut d = Packet::data(FlowId(9), NodeId(0), NodeId(1), 1000, 500);
        d.sched.rate = 123.0;
        d.sched.expected_trans_time = 0.5;
        let a = d.make_echo(PacketKind::Ack, 1500);
        assert!(a.reverse);
        assert_eq!(a.ack, 1500);
        assert_eq!(a.seq, 1000);
        assert_eq!(a.sched.rate, 123.0);
        assert_eq!(a.sched.expected_trans_time, 0.5);
        assert_eq!(a.flow, d.flow);
    }

    #[test]
    fn forward_header_kinds() {
        assert!(PacketKind::Data.carries_forward_header());
        assert!(PacketKind::Probe.carries_forward_header());
        assert!(PacketKind::Syn.carries_forward_header());
        assert!(!PacketKind::Ack.carries_forward_header());
        assert!(PacketKind::Term.is_forward());
        assert!(PacketKind::SynAck.is_reverse());
    }
}
