//! Differential test: the engine's departure-ledger links against an explicit FIFO
//! link server.
//!
//! [`Reference`] is an engine in miniature whose links are what the ledger replaced —
//! a `VecDeque<Packet>` per link with its head on the wire, one real
//! [`EventKind::TransmitDone`] per serialized packet going through an [`EventQueue`].
//! It hosts the same scripted agents and recording controllers as the [`Simulator`]
//! it is compared with, so the two can differ only in how a link is modelled.
//!
//! The scenario is built to land on the ledger's tie rules: a two-hop line with
//! 4 000-byte queues and equal link rates (back-to-back packets reach the switch at
//! the very instant their predecessor leaves it), agents that send mixed data and
//! control packets from flow arrivals, packet deliveries and timers, timers armed for
//! the exact instants the sender's own burst leaves its NIC, controller ticks on the
//! serialization-time grid, and hard stops on that grid too.
//!
//! Three variants of the line aim at the links' arrival FIFOs, which queue the arrival
//! of only the earliest packet in flight on a link ([`Case`]): a 10 ms hop with dozens
//! of packets in flight on it, two links into one switch whose arrivals coincide to
//! the nanosecond, and a 2 Tbit/s link on which a control packet serializes in 0 ns,
//! so that packets leave it at the same instant and must bypass its FIFO.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::agent::{Action, Ctx, FlowInfo, HostAgent};
use crate::controller::LinkController;
use crate::engine::{packet_tie, SimConfig, Simulator};
use crate::event::{EventKind, EventQueue, PacketSlot, TimerKind};
use crate::flow::FlowSpec;
use crate::ids::{FlowId, LinkId, NodeId};
use crate::network::{Link, LinkParams, LinkStats, Network};
use crate::packet::{Packet, PacketKind, MSS_BYTES};
use crate::time::SimTime;

/// One thing an agent or a controller saw.
#[derive(Clone, Debug, PartialEq)]
struct Obs {
    at: SimTime,
    what: &'static str,
    /// Node (deliveries) or link (controller callbacks).
    place: u32,
    flow: u64,
    /// The packet: `seq` is unique per flow and direction.
    seq: u64,
    /// `Link::queue_bytes()` as the controller read it.
    queue_bytes: u64,
}

type Log = Arc<Mutex<Vec<Obs>>>;

/// Records the occupancy of its (settled) link at every callback; ticks once per MTU
/// serialization time, so ticks coincide with departures.
struct Recorder {
    log: Log,
    tick: SimTime,
}

impl Recorder {
    fn saw(&self, what: &'static str, at: SimTime, link: &Link, packet: Option<&Packet>) {
        self.log.lock().unwrap().push(Obs {
            at,
            what,
            place: link.id.0,
            flow: packet.map_or(0, |p| p.flow.value()),
            seq: packet.map_or(0, |p| p.seq),
            queue_bytes: link.queue_bytes(),
        });
    }
}

impl LinkController for Recorder {
    fn init(&mut self, _now: SimTime, _link: &Link) -> Option<SimTime> {
        Some(self.tick)
    }
    fn on_forward(&mut self, packet: &mut Packet, now: SimTime, link: &Link) {
        self.saw("forward", now, link, Some(packet));
    }
    fn on_reverse(&mut self, packet: &mut Packet, now: SimTime, link: &Link) {
        self.saw("reverse", now, link, Some(packet));
    }
    fn on_tick(&mut self, now: SimTime, link: &Link) -> Option<SimTime> {
        self.saw("tick", now, link, None);
        Some(now + self.tick)
    }
}

/// Timer token that completes the flow.
const FINISH: u64 = u64::MAX;

/// A host whose behaviour is a function of its seed and of the order of its
/// callbacks — so any difference in event order between two engines snowballs.
struct Scripted {
    log: Log,
    rng: SmallRng,
    next_seq: HashMap<FlowId, u64>,
    nic_rate_bps: f64,
}

impl Scripted {
    /// Send one forward packet of a generated kind and size; returns its wire size.
    fn send_one(&mut self, flow: &FlowSpec, ctx: &mut Ctx) -> u32 {
        let seq = self.next_seq.entry(flow.id).or_insert(0);
        *seq += 1;
        let mut p = match self.rng.gen_range(0..4u32) {
            0 => Packet::control(PacketKind::Probe, flow.id, flow.src, flow.dst),
            1 => Packet::data(flow.id, flow.src, flow.dst, 0, self.rng.gen_range(1..900)),
            _ => Packet::data(flow.id, flow.src, flow.dst, 0, MSS_BYTES),
        };
        p.seq = *seq;
        let wire = p.wire_size();
        ctx.send(p);
        wire
    }
}

impl HostAgent for Scripted {
    fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
        let (id, custom) = (flow.spec.id, TimerKind::Custom(0));
        // A burst, and timers for the exact instants its packets leave an idle NIC.
        let mut leaves = ctx.now();
        for _ in 0..self.rng.gen_range(2..6u32) {
            let wire = self.send_one(&flow.spec, ctx);
            leaves += SimTime::transmission_time(wire as u64, self.nic_rate_bps);
            if self.rng.gen::<bool>() {
                ctx.set_timer_at(id, custom, leaves, self.rng.gen());
            }
        }
        // A few more at arbitrary instants, and the one that completes the flow.
        for _ in 0..3 {
            let delay = SimTime::from_nanos(self.rng.gen_range(1_000..200_000));
            ctx.set_timer_after(id, custom, delay, self.rng.gen());
        }
        let life = SimTime::from_nanos(self.rng.gen_range(150_000..400_000));
        ctx.set_timer_after(id, custom, life, FINISH);
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
        let at_src = packet.reverse();
        self.log.lock().unwrap().push(Obs {
            at: ctx.now(),
            what: "delivered",
            place: if at_src { packet.src.0 } else { packet.dst.0 },
            flow: packet.flow.value(),
            seq: packet.seq,
            queue_bytes: 0,
        });
        if !at_src {
            ctx.send(packet.make_echo(PacketKind::Ack, 0));
        } else if self.rng.gen::<bool>() {
            let spec = ctx.flow(packet.flow).expect("known flow").spec.clone();
            self.send_one(&spec, ctx);
        }
    }

    fn on_timer(&mut self, flow: FlowId, _kind: TimerKind, token: u64, ctx: &mut Ctx) {
        if token == FINISH {
            ctx.flow_completed(flow);
            return;
        }
        let spec = ctx.flow(flow).expect("known flow").spec.clone();
        for _ in 0..self.rng.gen_range(1..4u32) {
            self.send_one(&spec, ctx);
        }
    }
}

/// The network a comparison runs on. Every one is `h0 — s0 — h1` with 4 000-byte
/// queues (two MTUs and a few control packets) and 1 Gbit/s links, but for what the
/// variant names.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Case {
    /// The plain line.
    Line,
    /// `s0 — h1` is a 10 ms hop: dozens of packets in flight on it at once.
    LongHop,
    /// A third host `h2 — s0`, with flows from `h0` and `h2` to `h1` arriving on one
    /// grid: arrivals at `s0` from its two access links coincide.
    TwoIntoOne,
    /// `h0 — s0` runs at 2 Tbit/s: a control packet serializes in 0 ns, so packets
    /// leave the link at the same instant.
    Fast,
}

/// The network of `case` and its hosts: `h0`, `h1`, then `h2` if it has one.
fn network(case: Case) -> (Network, Vec<NodeId>) {
    let mut net = Network::new();
    let h0 = net.add_host("h0");
    let s0 = net.add_switch("s0");
    let h1 = net.add_host("h1");
    let small = LinkParams {
        queue_capacity_bytes: 4_000,
        ..LinkParams::default()
    };
    let access = match case {
        Case::Fast => LinkParams {
            rate_bps: 2e12,
            ..small
        },
        _ => small,
    };
    let far = match case {
        Case::LongHop => LinkParams {
            prop_delay: SimTime::from_millis(10),
            ..small
        },
        _ => small,
    };
    net.add_duplex_link(h0, s0, access);
    net.add_duplex_link(s0, h1, far);
    let mut hosts = vec![h0, h1];
    if case == Case::TwoIntoOne {
        let h2 = net.add_host("h2");
        net.add_duplex_link(h2, s0, small);
        hosts.push(h2);
    }
    (net, hosts)
}

/// `n` MTU serialization times on the line. One is the controllers' tick period;
/// arrivals and hard stops are taken from the same grid.
fn mtu_times(n: u64) -> SimTime {
    let mtu = crate::packet::MTU_BYTES as u64;
    SimTime::transmission_time(n * mtu, LinkParams::default().rate_bps)
}

/// The scenario of `seed`: five flows in both directions arriving within 80 µs, some
/// on the serialization-time grid. With a third host, the flows towards `h1` come
/// from `h0` and `h2` in turn, and all of them arrive on the grid.
fn flows(seed: u64, hosts: &[NodeId]) -> Vec<FlowSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let two_into_one = hosts.len() == 3;
    (1..=5u64)
        .map(|id| {
            let (src, dst) = match id {
                _ if id % 3 == 0 => (1, 0),
                _ if two_into_one && id % 2 == 0 => (2, 1),
                _ => (0, 1),
            };
            let arrival = if two_into_one {
                mtu_times(rng.gen_range(0..3))
            } else if rng.gen::<bool>() {
                mtu_times(rng.gen_range(0..6))
            } else {
                SimTime::from_nanos(rng.gen_range(0..80_000))
            };
            FlowSpec::new(id, hosts[src], hosts[dst], 1_000_000).with_arrival(arrival)
        })
        .collect()
}

fn agent(seed: u64, host: NodeId, log: &Log) -> Box<dyn HostAgent + Send> {
    Box::new(Scripted {
        log: log.clone(),
        rng: SmallRng::seed_from_u64(seed ^ ((host.0 as u64 + 1) << 32)),
        next_seq: HashMap::new(),
        nic_rate_bps: LinkParams::default().rate_bps,
    })
}

fn recorder(log: &Log) -> Box<dyn LinkController + Send> {
    Box::new(Recorder {
        log: log.clone(),
        tick: mtu_times(1),
    })
}

/// What a run is compared on.
#[derive(Debug, PartialEq)]
struct Outcome {
    log: Vec<Obs>,
    /// Per link: every [`LinkStats`] field.
    links: Vec<[u64; 6]>,
    /// Per flow id: drops and completion time.
    flows: Vec<(u64, u64, Option<SimTime>)>,
}

fn stats_row(s: &LinkStats) -> [u64; 6] {
    [
        s.bytes_transmitted,
        s.packets_transmitted,
        s.tail_drops,
        s.random_drops,
        s.busy_time.as_nanos(),
        s.max_queue_bytes,
    ]
}

fn run_engine(case: Case, seed: u64, config: SimConfig) -> Outcome {
    let log = Log::default();
    let (net, hosts) = network(case);
    let mut sim = Simulator::new(net, config);
    for &h in &hosts {
        sim.set_agent(h, agent(seed, h, &log));
    }
    sim.install_controllers(|_, _| Some(recorder(&log)));
    sim.add_flows(flows(seed, &hosts));
    let res = sim.run();
    let flows = res
        .flows
        .iter()
        .map(|r| (r.spec.id.value(), r.drops, r.completed_at))
        .collect();
    let log = log.lock().unwrap().clone();
    Outcome {
        log,
        links: res.link_stats.iter().map(|(_, s)| stats_row(s)).collect(),
        flows,
    }
}

/// The explicit-server engine: one core, no loss, no traces, no timer cancellation —
/// everything else as `EngineCore` orders it.
struct Reference {
    log: Log,
    config: SimConfig,
    net: Network,
    /// Per link: the FIFO and, while its head is on the wire, when that packet
    /// started serializing and when it is due to leave.
    queues: Vec<VecDeque<Packet>>,
    on_wire: Vec<Option<(SimTime, SimTime)>>,
    events: EventQueue,
    now: SimTime,
    /// Packets between nodes, and the link each crossed, indexed by the `PacketSlot`
    /// their event carries.
    in_flight: Vec<Option<(Packet, LinkId)>>,
    /// Per link: its packets in flight.
    flying: Vec<usize>,
    agents: Vec<Option<Box<dyn HostAgent + Send>>>,
    controllers: Vec<Option<Box<dyn LinkController + Send>>>,
    /// The injected flows, indexed by the slot their arrival event carries.
    specs: Vec<FlowSpec>,
    flows: HashMap<FlowId, FlowInfo>,
    /// Per flow id: its forward links.
    paths: HashMap<FlowId, Vec<LinkId>>,
    /// Per flow id: drops and completion time.
    records: HashMap<u64, (u64, Option<SimTime>)>,
    /// Flows not yet arrived or not yet completed.
    live: usize,
    /// Per link: when its last departure completed.
    departed_at: Vec<Option<SimTime>>,
    /// Per `(node, instant)`: the link of the first packet arriving there then.
    arrivals: HashMap<(NodeId, SimTime), LinkId>,
    seen: Seen,
}

/// What a scenario exercised, counted by the reference engine.
#[derive(Clone, Copy, Debug, Default)]
struct Seen {
    /// Enqueue attempts at the very instant of a departure that (0) had already
    /// completed, (1) was still to come in event order.
    ties: [u32; 2],
    /// Packets arriving at a node at the same instant as one from another link.
    coinciding: u32,
    /// Departures from a link at the same instant as its previous one.
    same_instant: u32,
    /// The most packets that had left one link and not yet arrived, at once.
    window: usize,
    /// Tail drops.
    tail_drops: u64,
}

impl Seen {
    fn add(&mut self, other: Seen) {
        self.ties = [self.ties[0] + other.ties[0], self.ties[1] + other.ties[1]];
        self.coinciding += other.coinciding;
        self.same_instant += other.same_instant;
        self.window = self.window.max(other.window);
        self.tail_drops += other.tail_drops;
    }
}

impl Reference {
    /// The explicit FIFO server, enqueue half: tail drop, or queue the packet and
    /// start serializing it if the link is idle.
    fn enqueue(&mut self, l: LinkId, packet: Packet) -> bool {
        let i = l.index();
        self.seen.ties[0] += (self.departed_at[i] == Some(self.now)) as u32;
        self.seen.ties[1] += self.on_wire[i].is_some_and(|(_, due)| due == self.now) as u32;
        let link = self.net.link_mut(l);
        let wire = packet.wire_size() as u64;
        if link.queue_bytes + wire > link.queue_capacity_bytes {
            link.stats.tail_drops += 1;
            return false;
        }
        link.queue_bytes += wire;
        link.stats.max_queue_bytes = link.stats.max_queue_bytes.max(link.queue_bytes);
        self.queues[i].push_back(packet);
        if self.on_wire[i].is_none() {
            self.start_serializing(l, wire);
        }
        true
    }

    fn start_serializing(&mut self, l: LinkId, wire: u64) {
        let due = self.now + self.net.link(l).transmission_time(wire);
        self.on_wire[l.index()] = Some((self.now, due));
        self.events
            .schedule(due, EventKind::TransmitDone { link: l });
    }

    /// The explicit FIFO server, completion half: the head packet is on its way to
    /// the far node and the next one, if any, starts serializing.
    fn transmit_done(&mut self, l: LinkId) {
        let i = l.index();
        let mut packet = self.queues[i].pop_front().expect("one event per packet");
        let wire = packet.wire_size() as u64;
        let link = self.net.link_mut(l);
        link.queue_bytes -= wire;
        link.stats.bytes_transmitted += wire;
        link.stats.packets_transmitted += 1;
        let (since, due) = self.on_wire[i].take().expect("a packet on the wire");
        assert_eq!(due, self.now);
        link.stats.busy_time += due - since;
        let (arrive_at, node) = (
            self.now + link.prop_delay + self.config.processing_delay,
            link.dst,
        );
        let again = self.departed_at[i].replace(self.now) == Some(self.now);
        self.seen.same_instant += again as u32;
        if let Some(next) = self.queues[i].front().map(|next| next.wire_size() as u64) {
            self.start_serializing(l, next);
        }
        let first = *self.arrivals.entry((node, arrive_at)).or_insert(l);
        self.seen.coinciding += (first != l) as u32;
        packet.hop += 1;
        let (flow, tie) = (packet.flow, packet_tie(&packet));
        self.in_flight.push(Some((packet, l)));
        self.flying[i] += 1;
        self.seen.window = self.seen.window.max(self.flying[i]);
        let packet = PacketSlot(self.in_flight.len() as u32 - 1);
        self.events.schedule(
            arrive_at,
            EventKind::PacketAtNode {
                node,
                packet,
                flow,
                tie,
            },
        );
    }

    /// Controller, then the link: `EngineCore::forward_packet` without loss.
    fn forward(&mut self, mut packet: Packet) {
        let links = &self.paths[&packet.flow];
        let (n, hop) = (links.len(), packet.hop as usize);
        let (next, controlled) = if !packet.reverse() {
            (links[hop], Some(links[hop]))
        } else {
            let controlled = (hop >= 1).then(|| links[n - hop]);
            (self.net.reverse(links[n - 1 - hop]), controlled)
        };
        if let Some(cl) = controlled {
            if let Some(ctl) = self.controllers[cl.index()].as_mut() {
                if packet.reverse() {
                    ctl.on_reverse(&mut packet, self.now, self.net.link(cl));
                } else {
                    ctl.on_forward(&mut packet, self.now, self.net.link(cl));
                }
            }
        }
        let flow = packet.flow.value();
        if !self.enqueue(next, packet) {
            self.records.get_mut(&flow).expect("known flow").0 += 1;
        }
    }

    fn apply(&mut self, node: NodeId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send(mut packet) => {
                    packet.hop = 0;
                    self.forward(packet);
                }
                Action::SetTimer {
                    flow,
                    kind,
                    at,
                    created,
                    token,
                } => {
                    let timer = EventKind::Timer {
                        node,
                        flow,
                        slot: u32::MAX,
                        kind,
                        token,
                    };
                    self.events
                        .schedule_created(at.max(self.now), created, timer);
                }
                Action::FlowCompleted(flow) => {
                    let rec = self.records.get_mut(&flow.value()).expect("known flow");
                    if rec.1.is_none() {
                        rec.1 = Some(self.now);
                        self.live -= 1;
                    }
                }
                other => unreachable!("the script never asks for {other:?}"),
            }
        }
    }

    /// Run `callback` on the agent at `node` and apply what it asked for.
    fn with_agent(&mut self, node: NodeId, callback: impl FnOnce(&mut dyn HostAgent, &mut Ctx)) {
        let actions = {
            let mut ctx = Ctx::new(self.now, &self.flows);
            let agent = self.agents[node.index()].as_mut().expect("agent on host");
            callback(agent.as_mut(), &mut ctx);
            ctx.take_actions()
        };
        self.apply(node, actions);
    }

    fn run(mut self) -> (Outcome, Seen) {
        for i in 0..self.controllers.len() {
            let link = LinkId(i as u32);
            let ctl = self.controllers[i]
                .as_mut()
                .expect("every link is recorded");
            if let Some(t) = ctl.init(SimTime::ZERO, self.net.link(link)) {
                self.events.schedule(t, EventKind::ControllerTick { link });
            }
        }
        self.events
            .schedule(self.config.max_sim_time, EventKind::Stop);
        while let Some(ev) = self.events.pop() {
            self.now = ev.at;
            self.events.set_now(ev.at);
            match ev.kind {
                EventKind::Stop => break,
                EventKind::FlowArrival { slot, .. } => {
                    let spec = self.specs[slot as usize].clone();
                    let path = self.net.shortest_path(spec.src, spec.dst).expect("a line");
                    let info = FlowInfo {
                        spec,
                        bottleneck_rate_bps: 0.0,
                        nic_rate_bps: 0.0,
                        base_rtt: SimTime::ZERO,
                    };
                    let (id, src) = (info.spec.id, info.spec.src);
                    self.paths.insert(id, path.links);
                    self.flows.insert(id, info.clone());
                    self.records.insert(id.value(), (0, None));
                    self.with_agent(src, |agent, ctx| agent.on_flow_arrival(&info, ctx));
                }
                EventKind::PacketAtNode { node, packet, .. } => {
                    let slot = &mut self.in_flight[packet.0 as usize];
                    let (packet, crossed) = slot.take().expect("in flight");
                    self.flying[crossed.index()] -= 1;
                    let spec = &self.flows[&packet.flow].spec;
                    let end = if packet.reverse() { spec.src } else { spec.dst };
                    if node == end {
                        self.with_agent(node, |agent, ctx| agent.on_packet(packet, ctx));
                    } else {
                        self.forward(packet);
                    }
                }
                EventKind::TransmitDone { link } => self.transmit_done(link),
                EventKind::Timer {
                    node,
                    flow,
                    kind,
                    token,
                    ..
                } => self.with_agent(node, |agent, ctx| agent.on_timer(flow, kind, token, ctx)),
                EventKind::ControllerTick { link } => {
                    let ctl = self.controllers[link.index()].as_mut().expect("recorded");
                    if let Some(t) = ctl.on_tick(self.now, self.net.link(link)) {
                        self.events.schedule(t, EventKind::ControllerTick { link });
                    }
                }
                EventKind::TraceSample => unreachable!("no traces"),
            }
            if self.config.stop_when_flows_done && self.live == 0 {
                break;
            }
        }
        let mut flows: Vec<_> = self
            .records
            .iter()
            .map(|(&id, &(drops, done))| (id, drops, done))
            .collect();
        flows.sort_unstable();
        let links: Vec<_> = self.net.links.iter().map(|l| stats_row(&l.stats)).collect();
        self.seen.tail_drops = links.iter().map(|l| l[2]).sum();
        let log = self.log.lock().unwrap().clone();
        (Outcome { log, links, flows }, self.seen)
    }
}

fn run_reference(case: Case, seed: u64, config: SimConfig) -> (Outcome, Seen) {
    let log = Log::default();
    let (net, hosts) = network(case);
    let (n_nodes, n_links) = (net.node_count(), net.link_count());
    let mut events = EventQueue::new();
    let specs = flows(seed, &hosts);
    let live = specs.len();
    for (slot, spec) in specs.iter().enumerate() {
        let (flow, slot) = (spec.id, slot as u32);
        events.schedule(spec.arrival, EventKind::FlowArrival { flow, slot });
    }
    let mut agents: Vec<_> = (0..n_nodes).map(|_| None).collect();
    for &h in &hosts {
        agents[h.index()] = Some(agent(seed, h, &log));
    }
    let reference = Reference {
        config,
        net,
        queues: vec![VecDeque::new(); n_links],
        on_wire: vec![None; n_links],
        events,
        now: SimTime::ZERO,
        in_flight: Vec::new(),
        flying: vec![0; n_links],
        agents,
        controllers: (0..n_links).map(|_| Some(recorder(&log))).collect(),
        specs,
        flows: HashMap::new(),
        paths: HashMap::new(),
        records: HashMap::new(),
        live,
        departed_at: vec![None; n_links],
        arrivals: HashMap::new(),
        seen: Seen::default(),
        log,
    };
    reference.run()
}

/// Compare the two engines on the 40 scenarios of `case`, returning what they
/// exercised between them.
fn compare(case: Case, configs: impl Fn(u64) -> SimConfig) -> Seen {
    let mut seen = Seen::default();
    for seed in 1..=40 {
        let config = configs(seed);
        let (want, s) = run_reference(case, seed, config.clone());
        let got = run_engine(case, seed, config.clone());
        for (i, (g, w)) in got.log.iter().zip(&want.log).enumerate() {
            assert_eq!(
                g, w,
                "{case:?} seed {seed}, observation {i} (stop {config:?})"
            );
        }
        assert_eq!(
            got.log.len(),
            want.log.len(),
            "{case:?} seed {seed}: log length"
        );
        assert_eq!(
            got.links, want.links,
            "{case:?} seed {seed}: final LinkStats"
        );
        assert_eq!(got.flows, want.flows, "{case:?} seed {seed}: flow records");
        seen.add(s);
    }
    seen
}

/// The line's scenarios must land on its tie rules: tail drops, and enqueues at the
/// very instant of a departure, on both sides of it in event order.
fn check_ties(seen: Seen) {
    assert!(
        seen.ties[0] > 20 && seen.ties[1] > 20 && seen.tail_drops > 100,
        "the scenarios miss the point: {seen:?}"
    );
}

#[test]
fn ledger_matches_explicit_fifo_server_until_the_flows_are_done() {
    check_ties(compare(Case::Line, |_| SimConfig {
        max_sim_time: SimTime::from_millis(10),
        ..SimConfig::default()
    }));
}

#[test]
fn ledger_matches_explicit_fifo_server_at_a_hard_stop() {
    // Stops on the serialization-time grid, 5 to 20 MTU times in: mid-traffic, and
    // often at the instant of a departure.
    check_ties(compare(Case::Line, |seed| SimConfig {
        max_sim_time: mtu_times(5 + seed % 16),
        stop_when_flows_done: false,
        ..SimConfig::default()
    }));
}

/// Dozens of packets in flight on one link, all but the first waiting on its arrival
/// FIFO, and hard stops on the serialization grid 10 ms in: while the first of them
/// arrive, and before the rest have.
#[test]
fn arrival_fifos_match_explicit_fifo_server_on_a_long_hop() {
    let seen = compare(Case::LongHop, |seed| SimConfig {
        max_sim_time: SimTime::from_millis(10) + mtu_times(5 + 3 * (seed % 16)),
        stop_when_flows_done: false,
        ..SimConfig::default()
    });
    assert!(seen.window >= 40, "no window of dozens in flight: {seen:?}");
}

/// Packets from two links reaching one switch at the same nanosecond: each link's FIFO
/// queues its own head, and the queue orders the two by content.
#[test]
fn arrival_fifos_match_explicit_fifo_server_on_coinciding_arrivals() {
    let seen = compare(Case::TwoIntoOne, |_| SimConfig {
        max_sim_time: SimTime::from_millis(10),
        ..SimConfig::default()
    });
    assert!(
        seen.coinciding > 20,
        "too few coinciding arrivals: {seen:?}"
    );
}

/// Control packets leave a 2 Tbit/s link at the very instant of the packet before
/// them: their arrivals coincide too, the queue orders them by content rather than by
/// the order the link took them, and so they must bypass the FIFO.
#[test]
fn arrival_fifos_match_explicit_fifo_server_on_same_instant_departures() {
    let seen = compare(Case::Fast, |_| SimConfig {
        max_sim_time: SimTime::from_millis(10),
        ..SimConfig::default()
    });
    assert!(
        seen.same_instant > 20,
        "too few same-instant departures: {seen:?}"
    );
}
