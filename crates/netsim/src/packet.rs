//! Packets and the in-band scheduling header.
//!
//! PDQ, D3 and RCP all communicate rate / pause decisions through a small scheduling
//! header attached to every data packet and echoed back on the corresponding ACK
//! (PDQ paper §3). The on-wire size charged to each packet is the 16 bytes described
//! in the paper (§7, footnote 11) regardless of which protocol is running, so that
//! protocol overhead comparisons stay fair.
//!
//! # Layout
//!
//! Every packet inside the network holds one engine in-flight slot, so the simulator keeps
//! [`Packet`] at 120 bytes and its [`SchedulingHeader`] at 56:
//!
//! * **common to every family** — `R_H` ([`SchedulingHeader::rate`]) and `RTT_H`
//!   ([`SchedulingHeader::rtt`]) as plain `f64`s, `D_H` in 8 bytes (`SimTime::MAX`
//!   stands for "no deadline") and `P_H` in 4 (`LinkId(u32::MAX)` for "not paused"),
//!   both read and written as `Option`s through accessors;
//! * **three family words**, each an `f64` behind named accessors:
//!
//!   | word | PDQ | RCP and D3 (the rate hosts) |
//!   |---|---|---|
//!   | 0 | `T_H`, [`expected_trans_time`](SchedulingHeader::expected_trans_time) | [`desired_rate`](SchedulingHeader::desired_rate) |
//!   | 1 | `I_H`, [`inter_probe_rtts`](SchedulingHeader::inter_probe_rtts) | — |
//!   | 2 | — | [`granted_rate`](SchedulingHeader::granted_rate) |
//!
//! D3's "previous allocation" travels in no word: every D3 switch keeps the grant it
//! made to each flow itself, which on a multi-hop path is the only place each
//! switch's own grant can live (one scalar could carry one switch's at most).
//!
//! Sharing a word between families is safe because a run speaks one protocol: each
//! installer puts one controller type on every switch link and one host agent on
//! every host, a sender writes every word its controllers read on each forward
//! packet, and the receiver echoes the header unchanged. No code reads another
//! family's accessors. TCP writes no word and its links run no controller.
//!
//! A packet stores nothing it can derive: its wire size is always
//! `payload + CONTROL_PACKET_BYTES` and its direction is its kind's
//! ([`Packet::wire_size`], [`Packet::reverse`]).

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

/// `D_H` of a header that carries no deadline.
const NO_DEADLINE: SimTime = SimTime::MAX;
/// `P_H` of a header no switch has paused.
const NOT_PAUSED: LinkId = LinkId(u32::MAX);

/// Family word 0: PDQ's `T_H`, the rate hosts' desired rate.
const WORD_TRANS_OR_DESIRED: usize = 0;
/// Family word 1: PDQ's `I_H`.
const WORD_PROBE: usize = 1;
/// Family word 2: the rate hosts' granted rate (RCP's fair share, D3's allocation).
const WORD_GRANTED: usize = 2;

/// The in-band scheduling header.
///
/// Field names follow the paper: the `H` subscript denotes the header copy of each
/// sender variable. Rates are in bits per second, times in seconds (`f64`), matching
/// the paper's fluid quantities; the header is charged [`SCHED_HEADER_BYTES`] on the
/// wire no matter how many of these fields a given protocol uses. The module docs
/// give the layout and which family uses which word.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchedulingHeader {
    /// `R_H`: the sending rate granted so far along the path (bits/s). Senders
    /// initialize it to their maximal rate; switches only ever lower it.
    pub rate: f64,
    /// `RTT_H`: the sender's measured RTT in seconds (reverse-path reuse of `D_H`).
    pub rtt: f64,
    /// `D_H`, or [`NO_DEADLINE`].
    deadline: SimTime,
    /// The three family words (see the module docs).
    words: [f64; 3],
    /// `P_H`, or [`NOT_PAUSED`].
    pause_by: LinkId,
}

impl SchedulingHeader {
    /// A header as a sender first emits it: maximal rate, nothing paused, no deadline,
    /// every family word zero.
    pub fn new(max_rate_bps: f64) -> Self {
        SchedulingHeader {
            rate: max_rate_bps,
            rtt: 0.0,
            deadline: NO_DEADLINE,
            words: [0.0; 3],
            pause_by: NOT_PAUSED,
        }
    }

    /// `D_H`: the flow deadline (absolute simulation time), if any.
    pub fn deadline(&self) -> Option<SimTime> {
        (self.deadline != NO_DEADLINE).then_some(self.deadline)
    }

    /// Set `D_H`. A deadline of [`SimTime::MAX`] — one that never comes — reads back
    /// as `None`: the PDQ comparator ranks the two alike, and a spec may name it.
    pub fn set_deadline(&mut self, deadline: Option<SimTime>) {
        self.deadline = deadline.unwrap_or(NO_DEADLINE);
    }

    /// `P_H`: which switch link (if any) has paused this flow.
    pub fn pause_by(&self) -> Option<PauseBy> {
        (self.pause_by != NOT_PAUSED).then_some(self.pause_by)
    }

    /// Set `P_H`. Link `u32::MAX` marks "not paused" and may not pause a flow.
    pub fn set_pause_by(&mut self, link: Option<PauseBy>) {
        debug_assert_ne!(link, Some(NOT_PAUSED), "link id {} is reserved", u32::MAX);
        self.pause_by = link.unwrap_or(NOT_PAUSED);
    }

    /// PDQ `T_H`: expected remaining flow transmission time, in seconds.
    pub fn expected_trans_time(&self) -> f64 {
        self.words[WORD_TRANS_OR_DESIRED]
    }

    /// Set PDQ's `T_H`.
    pub fn set_expected_trans_time(&mut self, secs: f64) {
        self.words[WORD_TRANS_OR_DESIRED] = secs;
    }

    /// PDQ `I_H`: inter-probing time in units of RTTs (reverse-path reuse of `T_H`).
    pub fn inter_probe_rtts(&self) -> f64 {
        self.words[WORD_PROBE]
    }

    /// Set PDQ's `I_H`.
    pub fn set_inter_probe_rtts(&mut self, rtts: f64) {
        self.words[WORD_PROBE] = rtts;
    }

    /// Rate hosts: the rate the sender desires for the next interval (bits/s; D3's
    /// request, zero under RCP).
    pub fn desired_rate(&self) -> f64 {
        self.words[WORD_TRANS_OR_DESIRED]
    }

    /// Set the rate hosts' desired rate.
    pub fn set_desired_rate(&mut self, bps: f64) {
        self.words[WORD_TRANS_OR_DESIRED] = bps;
    }

    /// Rate hosts: the grant accumulated along the forward path (bits/s) — RCP's
    /// smallest fair share, D3's smallest allocation. Senders start it at infinity;
    /// switches only ever lower it.
    pub fn granted_rate(&self) -> f64 {
        self.words[WORD_GRANTED]
    }

    /// Set the rate hosts' granted rate.
    pub fn set_granted_rate(&mut self, bps: f64) {
        self.words[WORD_GRANTED] = bps;
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
/// moves the packet hop by hop. Sequence numbers are in bytes for data packets (`seq`
/// = offset of the first payload byte) which keeps TCP-style cumulative ACKs and
/// rate-based protocols uniform.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Packet kind; it also fixes the direction ([`Packet::reverse`]).
    pub kind: PacketKind,
    /// Byte offset of the first payload byte (data) or an opaque counter (control).
    pub seq: u64,
    /// Cumulative acknowledgment: the next byte expected by the receiver.
    pub ack: u64,
    /// Payload bytes carried (0 for control packets).
    pub payload: u32,
    /// Source host of the *flow* (not of this packet; ACKs also carry the flow's source).
    pub src: NodeId,
    /// Destination host of the flow.
    pub dst: NodeId,
    /// Scheduling header.
    pub sched: SchedulingHeader,
    /// Time the packet was handed to the NIC by the transport (for RTT sampling).
    pub sent_at: SimTime,
    /// Dense index of `flow` in the engine's flow slab, stamped by the engine when the
    /// packet enters the network (and again by a shard that takes it over: slots are
    /// per core). [`INVALID_FLOW_SLOT`] until stamped.
    pub(crate) flow_slot: u32,
    /// Where the flow's links start in the stamping core's route arena, and how many
    /// links its path has: with `hop` and the direction, all a hop needs to find its
    /// next link and to know it has arrived (`hop == nlinks`). Stamped with
    /// `flow_slot`.
    pub(crate) route: u32,
    pub(crate) nlinks: u32,
    /// Index of the next link to traverse along the (possibly reversed) flow path;
    /// zeroed by the engine when the packet is sent.
    pub(crate) hop: u32,
}

/// Sentinel for a packet the engine has not stamped with a flow-slab index yet.
pub(crate) const INVALID_FLOW_SLOT: u32 = u32::MAX;

impl Packet {
    /// Create a data packet of `payload` bytes starting at byte offset `seq`.
    pub fn data(flow: FlowId, src: NodeId, dst: NodeId, seq: u64, payload: u32) -> Self {
        Packet {
            seq,
            payload,
            ..Packet::control(PacketKind::Data, flow, src, dst)
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
            src,
            dst,
            sched: SchedulingHeader::default(),
            sent_at: SimTime::ZERO,
            flow_slot: INVALID_FLOW_SLOT,
            route: 0,
            nlinks: 0,
            hop: 0,
        }
    }

    /// Total wire size in bytes (payload + headers); used for queueing and
    /// serialization.
    pub fn wire_size(&self) -> u32 {
        self.payload + CONTROL_PACKET_BYTES
    }

    /// True if the packet travels from receiver back to sender (ACK direction).
    pub fn reverse(&self) -> bool {
        self.kind.is_reverse()
    }

    /// Build the reverse packet of `kind` (an ACK, SYN-ACK or TERM-ACK) a receiver
    /// sends in response to this forward packet, echoing the scheduling header (PDQ
    /// receiver behaviour, §3.2).
    pub fn make_echo(&self, kind: PacketKind, ack: u64) -> Packet {
        debug_assert!(kind.is_reverse(), "an echo travels back: {kind:?}");
        Packet {
            seq: self.seq,
            ack,
            sched: self.sched,
            sent_at: self.sent_at,
            ..Packet::control(kind, self.flow, self.src, self.dst)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn size_constants_are_consistent() {
        assert_eq!(
            MSS_BYTES + BASE_HEADER_BYTES + SCHED_HEADER_BYTES,
            MTU_BYTES
        );
        assert_eq!(CONTROL_PACKET_BYTES, 56);
    }

    /// Every packet in flight holds an in-flight slot of this size (plus 24 bytes of
    /// arrival-FIFO place; see `in_flight_slots_stay_small`), and each hop pulls it
    /// into cache: 120 bytes with a 56-byte header (160 and 88 with a field per
    /// family's variable, a stored wire size and direction, and a `usize` hop).
    #[test]
    fn packet_and_header_stay_small() {
        assert!(std::mem::size_of::<Packet>() <= 120);
        assert!(std::mem::size_of::<SchedulingHeader>() <= 56);
        // The pool's `Option<Packet>` slots fit the kind's niche: no tag word.
        assert_eq!(
            std::mem::size_of::<Option<Packet>>(),
            std::mem::size_of::<Packet>()
        );
    }

    #[test]
    fn data_packet_wire_size() {
        let p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, MSS_BYTES);
        assert_eq!(p.wire_size(), MTU_BYTES);
        assert!(!p.reverse());
        assert_eq!(p.kind, PacketKind::Data);
    }

    #[test]
    fn control_packet_direction() {
        let syn = Packet::control(PacketKind::Syn, FlowId(1), NodeId(0), NodeId(1));
        assert!(!syn.reverse());
        let ack = Packet::control(PacketKind::Ack, FlowId(1), NodeId(0), NodeId(1));
        assert!(ack.reverse());
        assert_eq!(ack.payload, 0);
        assert_eq!(ack.wire_size(), CONTROL_PACKET_BYTES);
    }

    #[test]
    fn echo_copies_header_and_flips_direction() {
        let mut d = Packet::data(FlowId(9), NodeId(0), NodeId(1), 1000, 500);
        d.sched.rate = 123.0;
        d.sched.set_expected_trans_time(0.5);
        let a = d.make_echo(PacketKind::Ack, 1500);
        assert!(a.reverse());
        assert_eq!(a.ack, 1500);
        assert_eq!(a.seq, 1000);
        assert_eq!(a.sched.rate, 123.0);
        assert_eq!(a.sched.expected_trans_time(), 0.5);
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

    const KINDS: [PacketKind; 7] = [
        PacketKind::Syn,
        PacketKind::SynAck,
        PacketKind::Data,
        PacketKind::Ack,
        PacketKind::Term,
        PacketKind::TermAck,
        PacketKind::Probe,
    ];
    const ECHOES: [PacketKind; 3] = [PacketKind::Ack, PacketKind::SynAck, PacketKind::TermAck];

    /// Every value the header can be asked to hold: `pick` chooses `None`, zero, the
    /// largest representable value or `raw`.
    fn deadline_of(pick: usize, raw: u64) -> Option<SimTime> {
        [
            None,
            Some(SimTime::ZERO),
            Some(SimTime(u64::MAX - 1)),
            Some(SimTime(raw)),
        ][pick]
    }

    fn pause_of(pick: usize, raw: u32) -> Option<PauseBy> {
        [
            None,
            Some(LinkId(0)),
            Some(LinkId(u32::MAX - 1)),
            Some(LinkId(raw)),
        ][pick]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The derived fields equal what the packet used to store (`wire_size` =
        /// payload + base + scheduling header for data, the control size otherwise;
        /// `reverse` = the kind's direction), and an echo keeps every accessor.
        #[test]
        fn derived_fields_match_the_stored_ones(
            shape in (0usize..7, 0usize..3, 0u32..=MSS_BYTES, 0u64..1 << 40),
            marks in (0usize..4, 0u64..u64::MAX - 1, 0usize..4, 0u32..u32::MAX - 1),
            rates in (0.0f64..1e12, 0.0f64..1.0, 0.0f64..1e9, 0.0f64..64.0),
            granted in 0.0f64..1e12,
        ) {
            let (kind, echo, payload, seq) = shape;
            let (deadline, raw_deadline, pause, raw_link) = marks;
            let (rate, rtt, word0, word1) = rates;
            let (kind, echo) = (KINDS[kind], ECHOES[echo]);
            let (src, dst) = (NodeId(3), NodeId(4));
            let data = Packet::data(FlowId(5), src, dst, seq, payload);
            prop_assert_eq!(data.wire_size(), payload + BASE_HEADER_BYTES + SCHED_HEADER_BYTES);
            prop_assert!(!data.reverse());
            let control = Packet::control(kind, FlowId(5), src, dst);
            prop_assert_eq!(control.wire_size(), CONTROL_PACKET_BYTES);
            prop_assert_eq!(control.reverse(), kind.is_reverse());

            let (deadline, pause) = (deadline_of(deadline, raw_deadline), pause_of(pause, raw_link));
            let mut sched = SchedulingHeader::new(rate);
            sched.rtt = rtt;
            sched.set_deadline(deadline);
            sched.set_pause_by(pause);
            sched.set_expected_trans_time(word0);
            sched.set_inter_probe_rtts(word1);
            sched.set_granted_rate(granted);
            prop_assert_eq!(sched.deadline(), deadline);
            prop_assert_eq!(sched.pause_by(), pause);
            prop_assert_eq!(sched.granted_rate(), granted);
            // The rate hosts' desired rate is PDQ's `T_H` word, read under its own name.
            prop_assert_eq!(sched.desired_rate(), sched.expected_trans_time());
            let mut forward = if payload > 0 { data } else { control };
            forward.sched = sched;
            forward.sent_at = SimTime(seq);
            let a = forward.make_echo(echo, seq + 1);
            prop_assert!(a.reverse());
            prop_assert_eq!(a.wire_size(), CONTROL_PACKET_BYTES);
            prop_assert_eq!((a.kind, a.flow, a.src, a.dst), (echo, FlowId(5), src, dst));
            prop_assert_eq!((a.seq, a.ack, a.sent_at), (forward.seq, seq + 1, forward.sent_at));
            prop_assert_eq!(a.sched, sched);
            prop_assert_eq!((a.sched.rate, a.sched.rtt), (rate, rtt));
            prop_assert_eq!((a.sched.deadline(), a.sched.pause_by()), (deadline, pause));
            prop_assert_eq!(
                (a.sched.expected_trans_time(), a.sched.inter_probe_rtts(), a.sched.granted_rate()),
                (word0, word1, granted)
            );
        }
    }

    /// A deadline that never comes is no deadline: the PDQ comparator ranks
    /// `None` as `SimTime::MAX`, so no reader can tell them apart.
    #[test]
    fn a_deadline_at_the_end_of_time_reads_as_none() {
        let mut h = SchedulingHeader::default();
        h.set_deadline(Some(SimTime::MAX));
        assert_eq!(h.deadline(), None);
        assert_eq!(h, SchedulingHeader::default());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reserved")]
    fn pausing_by_the_sentinel_link_trips() {
        SchedulingHeader::default().set_pause_by(Some(LinkId(u32::MAX)));
    }
}
