//! Property tests for the RFC 9002-style token-bucket pacer: a sender that
//! obeys [`Pacer::try_send`] / [`Pacer::next_ready`] never exceeds the
//! configured rate over *any* window by more than one bucket of burst.
//!
//! The rate-paced senders (PDQ, RCP, D3) drive their bucket from one drain,
//! `PacedCore::drain`. The `rfc9002_*` tests check it against the requirements of
//! RFC 9002 §7.7 (<https://www.rfc-editor.org/rfc/rfc9002#section-7.7>), each
//! quoting the sentence it checks, over all three families.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use pdq::{Discipline, PdqHostAgent, PdqParams, PdqSender};
use pdq_baselines::{RateHostAgent, RateMode, RateSender};
use pdq_netsim::{
    Action, Ctx, FlowId, FlowInfo, FlowMap, FlowSender, FlowSpec, HostAgent, NodeId, Pacer,
    PacerConfig, Packet, PacketKind, SchedulingHeader, SimTime, TimerKind, MSS_BYTES, MTU_BYTES,
};

/// The three rate-paced families.
#[derive(Clone, Copy, Debug)]
enum Family {
    Pdq,
    Rcp,
    D3,
}

const FAMILIES: [Family; 3] = [Family::Pdq, Family::Rcp, Family::D3];

/// A 1 Gbit/s flow of `size` bytes from host 0 to host 2, 150 µs base RTT.
fn flow(size: u64) -> FlowInfo {
    FlowInfo {
        spec: FlowSpec::new(1, NodeId(0), NodeId(2), size),
        bottleneck_rate_bps: 1e9,
        nic_rate_bps: 1e9,
        base_rtt: SimTime::from_micros(150),
    }
}

fn paced_sender(family: Family, flow: &FlowInfo, pacer: PacerConfig) -> Box<dyn FlowSender> {
    let size = flow.spec.size_bytes;
    match family {
        Family::Pdq => {
            let params = PdqParams {
                pacer: Some(pacer),
                ..PdqParams::full()
            };
            let sender = PdqSender::new(Arc::new(params), Discipline::Exact, flow, size, 0.0);
            Box::new(sender)
        }
        Family::Rcp => Box::new(RateSender::new(RateMode::Rcp, flow).with_pacer(pacer)),
        Family::D3 => {
            let mode = RateMode::D3 { quenching: true };
            Box::new(RateSender::new(mode, flow).with_pacer(pacer))
        }
    }
}

/// Start a paced sender of `family`, grant it `rate` bits/s in the SYN-ACK (PDQ reads
/// the header's rate, RCP and D3 its grant) and fire its pacing timers until it has
/// sent every byte, with no ACK in between: the data packets it sent, as (instant,
/// wire bytes), in order.
fn paced_sends(family: Family, rate: f64, pacer: PacerConfig, size: u64) -> Vec<(SimTime, u64)> {
    let info = flow(size);
    let flows: FlowMap<FlowInfo> = [(info.spec.id, info.clone())].into_iter().collect();
    let mut sender = paced_sender(family, &info, pacer);
    let mut now = SimTime::from_micros(200);
    let mut synack = Packet::control(PacketKind::SynAck, info.spec.id, NodeId(0), NodeId(2));
    synack.sched = SchedulingHeader::new(rate);
    synack.sched.set_granted_rate(rate);
    synack.sent_at = now - info.base_rtt;
    let mut ctx = Ctx::new(SimTime::ZERO, &flows);
    sender.start(&mut ctx);
    ctx.take_actions();
    let mut ctx = Ctx::new(now, &flows);
    sender.on_packet(&synack, &mut ctx);
    let (mut sends, mut timers) = (Vec::new(), BTreeMap::new());
    loop {
        for action in ctx.take_actions() {
            match action {
                Action::Send(p) if p.kind == PacketKind::Data => {
                    sends.push((now, u64::from(p.wire_size())))
                }
                Action::SetTimer {
                    kind: TimerKind::Pacing,
                    at,
                    token,
                    ..
                } => {
                    timers.insert((at, token), ());
                }
                _ => {}
            }
        }
        let Some(((at, token), ())) = timers.pop_first() else {
            return sends;
        };
        now = at;
        ctx = Ctx::new(now, &flows);
        sender.on_timer(TimerKind::Pacing, token, &mut ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// RFC 9002 §7.7, MUST: "Senders MUST either use pacing or limit such bursts."
    /// No run of data packets sent back to back — at one instant — exceeds the
    /// bucket's burst allowance, and every byte is sent.
    #[test]
    fn rfc9002_senders_limit_bursts(
        family in 0usize..3,
        rate_mbps in 100u64..=1_000,
        burst_packets in 1u64..=12,
        extra_packets in 2u64..30,
    ) {
        let family = FAMILIES[family];
        let burst_bytes = burst_packets * u64::from(MTU_BYTES);
        let pacer = PacerConfig { burst_bytes, ..PacerConfig::default() };
        let size = (burst_packets + extra_packets) * u64::from(MSS_BYTES);
        let sends = paced_sends(family, rate_mbps as f64 * 1e6, pacer, size);
        let wire: u64 = sends.iter().map(|s| s.1).sum();
        let packets = sends.len() as u64;
        prop_assert_eq!(wire - packets * (MTU_BYTES - MSS_BYTES) as u64, size, "{:?}", family);
        for run in sends.chunk_by(|a, b| a.0 == b.0) {
            let bytes: u64 = run.iter().map(|s| s.1).sum();
            prop_assert!(
                bytes <= burst_bytes,
                "{:?}: {} bytes at {} exceed the {}-byte burst", family, bytes, run[0].0, burst_bytes
            );
        }
    }

    /// RFC 9002 §7.7: "A perfectly paced sender spreads packets exactly evenly over
    /// time." Once the burst allowance is spent, each data packet leaves its wire
    /// size's transmission time at the granted rate after the one before, to within
    /// the nanosecond the bucket rounds its wait up by.
    #[test]
    fn rfc9002_paced_packets_are_evenly_spread(
        family in 0usize..3,
        rate_mbps in 100u64..=1_000,
        burst_packets in 1u64..=12,
        extra_packets in 2u64..30,
    ) {
        let family = FAMILIES[family];
        let rate = rate_mbps as f64 * 1e6;
        let burst_bytes = burst_packets * u64::from(MTU_BYTES);
        let pacer = PacerConfig { burst_bytes, ..PacerConfig::default() };
        let size = (burst_packets + extra_packets) * u64::from(MSS_BYTES);
        let sends = paced_sends(family, rate, pacer, size);
        let burst = sends.iter().take_while(|s| s.0 == sends[0].0).count();
        prop_assert_eq!(burst as u64, burst_packets, "{:?}", family);
        for pair in sends[burst - 1..].windows(2) {
            let gap = (pair[1].0 - pair[0].0).as_nanos() as f64;
            let exact = pair[1].1 as f64 * 8e9 / rate;
            prop_assert!(
                gap >= exact - 1.0 && gap <= exact.ceil(),
                "{:?}: {} ns between packets, {} ns at {} bit/s", family, gap, exact, rate
            );
        }
    }
}

/// RFC 9002 §7.7, SHOULD NOT: "packets containing only ACK frames SHOULD therefore not
/// be paced." A paced host's receiver echoes every forward packet — SYN, data, probe,
/// TERM — in the callback that delivered it, and arms no timer to do so.
#[test]
fn rfc9002_acks_are_not_paced() {
    let info = flow(3 * u64::from(MSS_BYTES));
    let flows: FlowMap<FlowInfo> = [(info.spec.id, info.clone())].into_iter().collect();
    let pacer = PacerConfig {
        burst_bytes: u64::from(MTU_BYTES),
        ..PacerConfig::default()
    };
    for family in FAMILIES {
        let mut host: Box<dyn HostAgent> = match family {
            Family::Pdq => {
                let params = PdqParams {
                    pacer: Some(pacer),
                    ..PdqParams::full()
                };
                Box::new(PdqHostAgent::new(params, Discipline::Exact, 2))
            }
            Family::Rcp => Box::new(RateHostAgent::new(RateMode::Rcp).with_pacer(pacer)),
            Family::D3 => {
                let mode = RateMode::D3 { quenching: true };
                Box::new(RateHostAgent::new(mode).with_pacer(pacer))
            }
        };
        let mss = MSS_BYTES;
        let (f, src, dst) = (FlowId(1), NodeId(0), NodeId(2));
        let forward = [
            Packet::control(PacketKind::Syn, f, src, dst),
            Packet::data(f, src, dst, 0, mss),
            Packet::data(f, src, dst, u64::from(mss), mss),
            Packet::control(PacketKind::Probe, f, src, dst),
            Packet::data(f, src, dst, 2 * u64::from(mss), mss),
            Packet::control(PacketKind::Term, f, src, dst),
        ];
        // Back to back, one nanosecond apart: faster than any bucket would allow.
        for (i, packet) in forward.into_iter().enumerate() {
            let kind = packet.kind;
            let mut ctx = Ctx::new(SimTime::from_nanos(i as u64), &flows);
            host.on_packet(packet, &mut ctx);
            let echoes: Vec<PacketKind> = ctx
                .take_actions()
                .into_iter()
                .filter_map(|a| match a {
                    Action::Send(echo) => Some(echo.kind),
                    Action::SetTimer { kind, .. } => panic!("{family:?}: {kind:?} timer"),
                    _ => None,
                })
                .collect();
            assert_eq!(echoes.len(), 1, "{family:?}: the echo of a {kind:?}");
            assert!(echoes[0].is_reverse(), "{family:?}: {echoes:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive a pacer the way the paced senders do — try to send, and on refusal
    /// sleep until `next_ready` — then check the token-bucket guarantee over
    /// every send-to-send window: bytes ≤ rate·Δt/8 + burst.
    #[test]
    fn paced_sends_never_exceed_the_rate_over_any_window(
        rate_mbps in 1u64..10_000,
        burst_packets in 1u64..16,
        sizes in prop::collection::vec(64u64..=1500, 2..60),
    ) {
        let burst_bytes = burst_packets * 1500;
        let config = PacerConfig {
            burst_bytes,
            ..PacerConfig::default()
        };
        let rate = (rate_mbps * 1_000_000) as f64;
        let mut pacer = Pacer::new(config);
        let mut now = SimTime::ZERO;
        pacer.set_rate_bps(now, rate);

        let mut sends: Vec<(SimTime, u64)> = Vec::new();
        for &bytes in &sizes {
            loop {
                if pacer.try_send(now, bytes) {
                    sends.push((now, bytes));
                    break;
                }
                let at = pacer.next_ready(now, bytes);
                prop_assert!(at > now, "next_ready must make progress");
                now = at;
            }
        }

        for i in 0..sends.len() {
            for j in i..sends.len() {
                let dt = (sends[j].0 - sends[i].0).as_secs_f64();
                let window_bytes: u64 = sends[i..=j].iter().map(|s| s.1).sum();
                // The window's first send may drain a full bucket; the +2 covers
                // the sub-nanosecond rounding of `next_ready`.
                let bound = rate * dt / 8.0 + burst_bytes as f64 + 2.0;
                prop_assert!(
                    (window_bytes as f64) <= bound,
                    "window [{},{}]: {} bytes in {:.9}s exceeds the {:.1}-byte bound",
                    i, j, window_bytes, dt, bound
                );
            }
        }
    }

    /// A mid-stream rate *decrease* must not let previously-earned headroom
    /// leak through: after the change, windows that start at or after the
    /// change obey the new, lower rate.
    #[test]
    fn rate_decreases_take_effect_immediately(
        high_mbps in 100u64..10_000,
        low_div in 2u64..20,
        sizes in prop::collection::vec(500u64..=1500, 4..40),
    ) {
        let config = PacerConfig::default();
        let high = (high_mbps * 1_000_000) as f64;
        let low = high / low_div as f64;
        let mut pacer = Pacer::new(config);
        let mut now = SimTime::ZERO;
        pacer.set_rate_bps(now, high);

        // Burn the initial bucket at the high rate.
        let half = sizes.len() / 2;
        for &bytes in &sizes[..half] {
            while !pacer.try_send(now, bytes) {
                now = pacer.next_ready(now, bytes);
            }
        }
        pacer.set_rate_bps(now, low);

        let mut sends: Vec<(SimTime, u64)> = Vec::new();
        for &bytes in &sizes[half..] {
            loop {
                if pacer.try_send(now, bytes) {
                    sends.push((now, bytes));
                    break;
                }
                now = pacer.next_ready(now, bytes);
            }
        }
        for i in 0..sends.len() {
            for j in i..sends.len() {
                let dt = (sends[j].0 - sends[i].0).as_secs_f64();
                let window_bytes: u64 = sends[i..=j].iter().map(|s| s.1).sum();
                let bound = low * dt / 8.0 + config.burst_bytes as f64 + 2.0;
                prop_assert!(
                    (window_bytes as f64) <= bound,
                    "post-decrease window [{},{}]: {} bytes in {:.9}s exceeds {:.1}",
                    i, j, window_bytes, dt, bound
                );
            }
        }
    }
}
