//! The engine's one driver: N cooperating `EngineCore`s under conservative-lookahead
//! synchronization, N = 1 included.
//!
//! # Model
//!
//! A [`ShardAssignment`] maps every node to exactly one shard. Each shard owns an
//! `EngineCore` holding the agents, link queues, flow replicas and event queue of its
//! nodes (a link belongs to the shard of its *source* node, so each directed queue has
//! exactly one writer). Shards advance in lock-step windows:
//!
//! 1. every shard publishes the time of its earliest pending event;
//! 2. all shards compute the same global minimum `T` and process every local event in
//!    `[T, T + L)`, where the lookahead `L` is the minimum cross-shard link latency
//!    (propagation + per-hop processing). A packet accepted by a boundary link at time
//!    `t ≥ T` is handed over at once, for the instant it arrives — its departure from
//!    the link (no earlier than `t`) `+ prop + processing ≥ T + L`, i.e. strictly after
//!    the window — so no shard can ever receive an event for a time it has already
//!    passed;
//! 3. boundary messages (packets, flow registrations, completion notices and the
//!    polls that retire a finished flow, see `EngineCore::try_retire`) are
//!    exchanged, ingested in a deterministic order, and the next window begins.
//!
//! Steps 1 and 3 each end at a rendezvous of all shards. A fat-tree cut has a 25 µs
//! lookahead, so a run crosses thousands of them, each a few microseconds of work
//! apart: the rendezvous is a generation barrier of this module's own (`SpinBarrier`)
//! that spins briefly, then yields the CPU (to the peer, when the guest has put both
//! threads on one core), and only then sleeps on a condition variable — a kernel sleep
//! and wake-up per window would cost more than the window's work. Crossing packets
//! travel by value in per-shard mailboxes that keep their capacity from window to
//! window, so the exchange allocates nothing in steady state.
//!
//! Shard 0 runs on the caller's thread and every other shard on a scoped thread of its
//! own, so a two-shard run starts one thread. One shard is the same loop with nothing
//! to wait for: no thread is started, a one-party barrier returns at once, no link
//! crosses a boundary so `L` is unbounded and the whole run is one window, and there
//! are no peers to exchange with. [`Simulator::run`] is exactly that.
//!
//! No stage of a sharded run copies the flow table: the simulator's own core stays
//! shard 0 and keeps its slot slab, minus the flows homed elsewhere (`deal`), and the
//! merge builds the records in place from the home slots, with each replica folded in
//! from a small summary (`flow_records`).
//!
//! # Determinism
//!
//! * Every flow — injected before the run or spawned by an agent at run time — is
//!   routed when it arrives, by the shard owning its source, on a private RNG derived
//!   from `(seed, flow id)` (see `engine::route_rng`): its path is a pure function of
//!   the flow and identical at every shard count. The routing shard then registers
//!   the flow with every other shard on the path (`MsgBody::Register`).
//! * Every lossy link draws from a private `(seed, link id)` stream in
//!   packet-crossing order, which the content-derived event order reproduces at
//!   every shard count (see [`crate::network#random-loss`]).
//! * An agent's actions take effect at its own node (see the `engine` module), so
//!   nothing an agent does crosses a boundary: the messages are packets that crossed
//!   a cut link, flow registrations, finish notices and retirement polls, none of
//!   which changes what is simulated. Every crossing packet arrives at or after the
//!   end of the window it was sent in, which ingest asserts.
//! * Boundary messages are ingested sorted by `(message class, time, source shard,
//!   sequence)`, and results are merged in shard order, so an N-shard run is
//!   bit-reproducible for a fixed seed and shard count.
//!
//! When stopping because every flow finished, a lone core halts at the settling event
//! itself, while shards may process a bounded tail of in-flight events from the window
//! containing the final finish (the global condition is only observable at the next
//! barrier); this can nudge link byte counters and trace samples by up to one
//! lookahead window but never changes a flow record or the end time. See the
//! repository README ("Partitioned engine & determinism model") for when N-shard
//! results are fingerprint-identical to 1-shard.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::agent::FlowInfo;
use crate::engine::{EngineCore, Finish, FlowState, Router, Simulator, Stage};
use crate::flow::FlowRecord;
use crate::ids::{FlowId, LinkId, NodeId};
use crate::metrics::SimResults;
use crate::packet::Packet;
use crate::time::SimTime;

/// A node → shard map plus the conservative lookahead it guarantees.
///
/// Build one with [`ShardAssignment::new`] (typically via the topology crate's
/// `Partition`, which keeps racks whole: fat-trees are cut along pods, BCube along
/// sub-cubes) and pass it to [`Simulator::run_sharded`].
#[derive(Clone, Debug)]
pub struct ShardAssignment {
    shard_of: Arc<[u32]>,
    shards: u32,
    lookahead: SimTime,
}

impl ShardAssignment {
    /// Create an assignment.
    ///
    /// `shard_of[i]` is the shard owning node `i`; `lookahead` must be a lower bound
    /// on the *propagation* delay of every link whose endpoints live on different
    /// shards (the engine adds its per-hop processing delay on top). Use
    /// [`SimTime::MAX`] when no link crosses a shard boundary.
    ///
    /// # Panics
    /// If any entry names a shard `>= shards`, or `shards` is zero.
    pub fn new(shard_of: Vec<u32>, shards: u32, lookahead: SimTime) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            shard_of.iter().all(|&s| s < shards),
            "node assigned to a shard >= shard count"
        );
        ShardAssignment {
            shard_of: shard_of.into(),
            shards,
            lookahead,
        }
    }

    /// The trivial assignment: every node on shard 0 (sequential execution).
    pub fn single(n_nodes: usize) -> Self {
        ShardAssignment {
            shard_of: vec![0; n_nodes].into(),
            shards: 1,
            lookahead: SimTime::MAX,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Number of nodes covered by the assignment.
    pub fn node_count(&self) -> usize {
        self.shard_of.len()
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> u32 {
        self.shard_of[node.index()]
    }

    /// The guaranteed minimum cross-shard propagation delay.
    pub fn lookahead(&self) -> SimTime {
        self.lookahead
    }
}

/// A boundary-crossing message exchanged between shards at window barriers.
pub(crate) struct ShardMsg {
    /// Simulated time on the sending shard when the message was created (for a
    /// packet: its departure from the cut link). An ingested packet carries this as
    /// its creation stamp so the receiving queue orders it exactly as a single global
    /// queue would have. When the message takes effect is derived from it: see
    /// [`EngineCore::msg_at`].
    pub(crate) sent: SimTime,
    /// Sending shard (ingest tie-break).
    pub(crate) src_shard: u32,
    /// Sender-assigned sequence number (ingest tie-break, preserves the sender's
    /// creation order).
    pub(crate) seq: u64,
    /// Payload.
    pub(crate) body: MsgBody,
}

/// What a [`ShardMsg`] carries. Packets, by far the most frequent, travel by value:
/// the sender moves one out of its pool into the outbox and the receiver moves it
/// into its own, with no allocation on either side.
pub(crate) enum MsgBody {
    /// Make a flow (routed at arrival by its home shard) visible to this shard before
    /// any of its packets arrive.
    Register {
        /// What the flow's agents may look up.
        info: Box<FlowInfo>,
        /// The flow's forward path, for this shard's route arena.
        links: Box<[LinkId]>,
    },
    /// A replica of the flow finished on another shard; the home shard settles the
    /// liveness accounting and records the finish.
    Finished {
        /// The finished flow.
        flow: FlowId,
        /// True for completion, false for early termination.
        completed: bool,
    },
    /// A packet that crossed the shard boundary, arriving at `link`'s far end a
    /// propagation and processing delay after it left.
    Packet {
        /// The cut link it crossed: it joins that link's arrival FIFO on this core.
        link: LinkId,
        /// The packet itself (its flow slot and route are re-stamped by the receiver).
        packet: Packet,
    },
    /// From a finished flow's home to every core on its path, itself included: does
    /// this core hold anything of the flow (see `EngineCore::try_retire`)?
    Poll {
        /// The flow asked about.
        flow: FlowId,
    },
    /// The answer to a [`MsgBody::Poll`], as of the barrier it was ingested at.
    Idle {
        /// The flow asked about.
        flow: FlowId,
        /// True if the core held no packet, timer or callback of the flow.
        idle: bool,
    },
    /// From a flow's home to its replicas: nothing of the flow is left anywhere, so
    /// drop its index entry and release its route.
    Retire {
        /// The retired flow.
        flow: FlowId,
    },
}

impl MsgBody {
    /// Ingest-order class: registrations must precede any use of the flow; finishes
    /// touch records before packets are scheduled; a poll is answered, and a flow
    /// retired, only once the barrier's packets are in.
    fn rank(&self) -> u8 {
        match self {
            MsgBody::Register { .. } => 0,
            MsgBody::Finished { .. } => 1,
            MsgBody::Packet { .. } => 2,
            MsgBody::Poll { .. } | MsgBody::Idle { .. } | MsgBody::Retire { .. } => 3,
        }
    }
}

impl EngineCore {
    /// When `msg` takes effect here: a packet's arrival at the far end of its cut
    /// link, the instant any other message was sent.
    fn msg_at(&self, msg: &ShardMsg) -> SimTime {
        match &msg.body {
            MsgBody::Packet { link, .. } => self.arrival_time(*link, msg.sent),
            _ => msg.sent,
        }
    }

    /// Apply a barrier's worth of boundary messages, in the canonical order, leaving
    /// `msgs` empty with its capacity intact for the next window.
    pub(crate) fn ingest(&mut self, msgs: &mut Vec<ShardMsg>) {
        let shard = self.shard;
        self.stats.messages_in += msgs.iter().filter(|m| m.src_shard != shard).count() as u64;
        // `(src_shard, seq)` is unique, so the unstable sort (no scratch buffer) gives
        // the one canonical order.
        msgs.sort_unstable_by_key(|m| (m.body.rank(), self.msg_at(m), m.src_shard, m.seq));
        for msg in msgs.drain(..) {
            let at = self.msg_at(&msg);
            match msg.body {
                MsgBody::Register { info, links } => {
                    // A flow is registered once, by its one home shard.
                    assert!(
                        !self.flows.contains(info.spec.id),
                        "duplicate flow id {:?} homed on two shards",
                        info.spec.id
                    );
                    let slot = self.flows.push(FlowState::new(*info, Stage::Routed, false));
                    self.flows.set_route(slot, &self.network, &links);
                }
                MsgBody::Finished { flow, completed } => {
                    let Some(slot) = self.flows.slot_of(flow) else {
                        continue;
                    };
                    let state = &mut self.flows.slots[slot as usize];
                    let was_live = state.finish.is_none();
                    let finish = Finish { at, completed };
                    if finish.beats(state.finish) {
                        state.finish = Some(finish);
                    }
                    if was_live && state.home {
                        self.unfinished_flows = self.unfinished_flows.saturating_sub(1);
                        self.try_retire(slot);
                    }
                }
                MsgBody::Packet { link, mut packet } => {
                    let Some(slot) = self.flows.slot_of(packet.flow) else {
                        // Unknown flow: its registration was lost (cannot happen —
                        // registrations sort first). Drop rather than corrupt.
                        continue;
                    };
                    // The packet crossed a cut link, so it arrives at or after the
                    // window end, which this shard has not reached: the lookahead
                    // guarantees it.
                    assert!(
                        at >= self.now,
                        "broken lookahead: {:?} arrives at {:?}, shard {} is at {:?}",
                        packet.flow,
                        at,
                        self.shard,
                        self.now
                    );
                    // Slots and arena offsets are this core's own: the sender's stamp
                    // means nothing here. The packet holds its flow until it leaves.
                    self.flows.stamp(slot, &mut packet);
                    let (flow, tie) = (packet.flow, crate::engine::packet_tie(&packet));
                    let parked = self.pool.park(packet);
                    self.arrive(link, parked, msg.sent, flow, tie);
                }
                MsgBody::Poll { flow } => {
                    let Some(slot) = self.flows.slot_of(flow) else {
                        debug_assert!(false, "{flow:?} polled after it was retired");
                        continue;
                    };
                    let idle = self.flows.hot[slot as usize].refs == 0;
                    let now = self.now;
                    self.push_msg(msg.src_shard, now, MsgBody::Idle { flow, idle });
                }
                MsgBody::Idle { flow, idle } => {
                    let Some(slot) = self.flows.slot_of(flow) else {
                        debug_assert!(false, "{flow:?} answered after it was retired");
                        continue;
                    };
                    let state = &mut self.flows.slots[slot as usize];
                    state.awaited -= 1;
                    state.all_idle &= idle;
                    if state.awaited > 0 {
                        continue;
                    }
                    if !state.all_idle {
                        // Something of the flow was left somewhere: poll again once
                        // this core holds nothing of it.
                        self.try_retire(slot);
                        continue;
                    }
                    let now = self.now;
                    for s in 0..self.outbox.len() as u32 {
                        if self.is_replica(slot, s) {
                            self.push_msg(s, now, MsgBody::Retire { flow });
                        }
                    }
                    self.flows.retire(slot);
                }
                MsgBody::Retire { flow } => {
                    let Some(slot) = self.flows.slot_of(flow) else {
                        debug_assert!(false, "{flow:?} retired twice");
                        continue;
                    };
                    self.flows.retire(slot);
                }
            }
        }
    }
}

impl EngineCore {
    /// Deal this not-yet-started core out to one core per shard. It stays shard 0 and
    /// keeps what that shard owns; shards 1..N are built for the rest: every agent
    /// goes to the shard owning its host, every controller to the shard owning its
    /// link's source, every injected flow to the shard owning its source. The flows
    /// homed elsewhere are moved out of this core's slot slab, which keeps its buffer,
    /// so no stage of the deal holds a second copy of the flow table.
    fn deal<F>(mut self, assignment: &ShardAssignment, mut make_router: F) -> Vec<EngineCore>
    where
        F: FnMut(u32) -> Box<dyn Router + Send>,
    {
        assert!(
            self.events.is_empty(),
            "run_sharded: events scheduled before the run"
        );
        let shard_of = &assignment.shard_of;
        let outbox = || (0..assignment.shards).map(|_| Vec::new()).collect();
        // Its own router, one outbox per shard.
        self.router = make_router(0);
        self.shard_of = shard_of.clone();
        self.outbox = outbox();
        let mut peers: Vec<EngineCore> = (1..assignment.shards)
            .map(|s| {
                let mut core = EngineCore::new(self.network.clone(), self.config.clone());
                core.router = make_router(s);
                core.shard = s;
                core.shard_of = shard_of.clone();
                core.outbox = outbox();
                core
            })
            .collect();
        // Shard `s > 0` is `peers[s - 1]`.
        for (idx, agent) in self.agents.iter_mut().enumerate() {
            if let Some(peer) = (shard_of[idx] as usize).checked_sub(1) {
                peers[peer].agents[idx] = agent.take();
            }
        }
        for (idx, ctl) in self.controllers.iter_mut().enumerate() {
            let src = self.network.link(LinkId(idx as u32)).src;
            if let Some(peer) = (shard_of[src.index()] as usize).checked_sub(1) {
                peers[peer].controllers[idx] = ctl.take();
            }
        }
        // A core holds a slot for each of its home flows and at most one replica of
        // every other flow: reserved once, its slab never doubles while replicas
        // register, and the capacity no flow reaches is never touched, so never
        // resident. (Shard 0's slab held every injected flow already.)
        let injected = self.flows.slots.len();
        for peer in &mut peers {
            peer.flows.slots.reserve_exact(injected);
        }
        let home = |state: &FlowState| shard_of[state.info.spec.src.index()] as usize;
        for state in self.flows.slots.extract_if(.., |state| home(state) != 0) {
            peers[home(&state) - 1].add_flow(state.info.spec);
        }
        self.pending_arrivals = self.flows.slots.len();
        std::iter::once(self).chain(peers).collect()
    }
}

impl Simulator {
    /// Run the simulation partitioned across `assignment.shards()` cores synchronized
    /// by conservative lookahead: shard 0 on the caller's thread, every other shard on
    /// an OS thread of its own (one shard starts none).
    ///
    /// With two or more shards `make_router` builds each shard's router, which routes
    /// every flow whose source the shard owns. A one-shard assignment never calls it:
    /// the lone core is the one this simulator was built on and keeps the router
    /// installed with [`Simulator::set_router`].
    ///
    /// # Panics
    /// If the assignment does not cover the network's nodes, or the effective
    /// lookahead (cross-shard propagation + processing delay) is zero.
    pub fn run_sharded<F>(self, assignment: &ShardAssignment, make_router: F) -> SimResults
    where
        F: FnMut(u32) -> Box<dyn Router + Send>,
    {
        merge_results(self.run_cores(assignment, make_router))
    }

    /// [`Simulator::run_sharded`] up to the merge: the cores as the run left them.
    pub(crate) fn run_cores<F>(
        self,
        assignment: &ShardAssignment,
        make_router: F,
    ) -> Vec<EngineCore>
    where
        F: FnMut(u32) -> Box<dyn Router + Send>,
    {
        assert_eq!(
            assignment.node_count(),
            self.core.network.node_count(),
            "shard assignment does not cover the network"
        );
        let lookahead = assignment
            .lookahead()
            .saturating_add(self.core.config.processing_delay);
        assert!(
            lookahead > SimTime::ZERO,
            "conservative lookahead must be positive (zero-latency shard boundary)"
        );
        let mut cores = if assignment.shards() == 1 {
            vec![self.core]
        } else {
            self.core.deal(assignment, make_router)
        };
        for core in &mut cores {
            core.setup();
        }
        run_barrier_loop(&mut cores, lookahead);
        cores
    }
}

/// A reusable barrier for the `parties` workers of one run that spins, then yields,
/// then parks.
///
/// The window loop meets here twice per lookahead window, and the windows of a
/// fat-tree cut are a few microseconds of work apart — shorter than a futex sleep and
/// wake-up. So a waiter first spins on the generation counter ([`Self::SPINS`]
/// rounds: the peer is usually already on its way), then yields ([`Self::YIELDS`]
/// rounds: when the guest scheduler has stacked both workers on one vCPU, that is what
/// lets the late one run at all), and only then sleeps on the condition variable. The
/// budgets are fixed constants, not settings: on a 2-vCPU guest any spin budget from
/// 256 to 10⁶ rounds ran alike, while yielding before parking was what mattered
/// (parking alone was the slowest) — so the spin is short and the yield phase long
/// enough to cover a typical window.
///
/// A one-party barrier returns at once.
///
/// Memory ordering: every atomic access is `SeqCst`. The last arrival's generation
/// bump followed by its load of `parked`, against a sleeper's `parked` increment
/// followed by its generation load under the lock, is a store-then-load on each side
/// (Dekker's pattern), which needs the single total order: either the releaser sees
/// the sleeper and notifies under the lock, or the sleeper sees the new generation and
/// never waits — no wake-up is lost. The bump also publishes everything the parties
/// wrote before arriving (the mailboxes, the published snapshot) to every waiter that
/// observes it.
struct SpinBarrier {
    parties: usize,
    /// Parties that have arrived in the current generation.
    arrived: AtomicUsize,
    /// Bumped by the last arrival of each generation, which releases the others.
    generation: AtomicUsize,
    /// Waiters registered to sleep on `wake` (incremented under `lock`).
    parked: AtomicUsize,
    /// Guards no data: it only orders a sleeper's last generation check against the
    /// releaser's notification.
    lock: Mutex<()>,
    wake: Condvar,
}

impl SpinBarrier {
    /// `spin_loop` rounds before the first yield.
    const SPINS: u32 = 128;
    /// `yield_now` rounds before parking.
    const YIELDS: u32 = 256;

    fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a barrier needs at least one party");
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Block until all parties have called `wait` for this generation.
    ///
    /// Never panics: it runs from [`Bail`]'s drop during unwinding, where a second
    /// panic would abort. The mutex guards no data, so a poisoned one is simply
    /// recovered.
    fn wait(&self) {
        if self.parties == 1 {
            return;
        }
        // Read before arriving: the generation cannot move until this party arrives.
        let gen = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == self.parties {
            // Reset before the bump: nobody arrives for the next generation until
            // they have seen the bump.
            self.arrived.store(0, Ordering::SeqCst);
            self.generation.fetch_add(1, Ordering::SeqCst);
            if self.parked.load(Ordering::SeqCst) > 0 {
                let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
                self.wake.notify_all();
            }
            return;
        }
        let released = || self.generation.load(Ordering::SeqCst) != gen;
        for round in 0..Self::SPINS + Self::YIELDS {
            if released() {
                return;
            }
            if round < Self::SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.parked.fetch_add(1, Ordering::SeqCst);
        while !released() {
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Waiters currently registered as asleep.
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.parked.load(Ordering::SeqCst)
    }
}

/// What the workers of one run share: the snapshot each publishes before a window, the
/// mailboxes they exchange through, and the barrier separating the two.
struct Rendezvous {
    next_times: Vec<AtomicU64>,
    /// Per core: flows still unfinished plus arrivals still pending.
    live: Vec<AtomicU64>,
    /// Per receiving core: messages for it from every sender this window. The
    /// receiver swaps its drained inbox in, so both `Vec`s keep their capacity.
    mailboxes: Vec<Mutex<Vec<ShardMsg>>>,
    barrier: SpinBarrier,
    /// Raised by a worker that is unwinding; see [`Bail`].
    failed: AtomicBool,
    look_ns: u64,
}

/// Unwinding out of a worker (an engine assert, a panicking agent) would leave its
/// peers waiting at the next barrier forever. Dropped mid-panic, this keeps the
/// worker's appointments — the exchange barrier if its window was open, then the
/// publish barrier with `failed` raised — so every peer leaves the loop and
/// `thread::scope` can re-raise the panic.
struct Bail<'a> {
    sync: &'a Rendezvous,
    in_window: bool,
}

impl Drop for Bail<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if self.in_window {
                self.sync.barrier.wait();
            }
            self.sync.failed.store(true, Ordering::SeqCst);
            self.sync.barrier.wait();
        }
    }
}

impl Rendezvous {
    /// Worker `i`'s loop over `core`: lock-step conservative-lookahead windows with
    /// two barriers per round (publish/decide, then exchange/ingest). Every worker
    /// computes the same decision from the same published snapshot, so all leave the
    /// loop together.
    fn drive(&self, i: usize, core: &mut EngineCore) {
        let mut bail = Bail {
            sync: self,
            in_window: false,
        };
        let mut inbox = Vec::new();
        loop {
            // Publish this core's horizon and liveness.
            self.next_times[i].store(core.next_event_nanos(), Ordering::SeqCst);
            let live = core.unfinished_flows + core.pending_arrivals;
            self.live[i].store(live as u64, Ordering::SeqCst);
            self.barrier.wait();

            // Identical decision on every worker from the published snapshot.
            if self.failed.load(Ordering::SeqCst) {
                return;
            }
            let live: u64 = self.live.iter().map(|a| a.load(Ordering::SeqCst)).sum();
            if core.config.stop_when_flows_done && live == 0 {
                return;
            }
            let t_min = self
                .next_times
                .iter()
                .map(|a| a.load(Ordering::SeqCst))
                .min()
                .expect("at least one shard");
            if t_min == u64::MAX {
                return;
            }

            // Safe window: no shard can inject an event below t_min + L.
            bail.in_window = true;
            core.stats.windows += 1;
            core.process_window(SimTime::from_nanos(t_min.saturating_add(self.look_ns)));

            // Exchange boundary messages (a lone core has no outbox and sends none).
            for (batch, mailbox) in core.outbox.iter_mut().zip(&self.mailboxes) {
                if !batch.is_empty() {
                    mailbox.lock().expect("mailbox poisoned").append(batch);
                }
            }
            self.barrier.wait();
            bail.in_window = false;
            std::mem::swap(
                &mut inbox,
                &mut *self.mailboxes[i].lock().expect("mailbox poisoned"),
            );
            core.ingest(&mut inbox);
        }
    }
}

/// Drive the cores to completion: shard 0 on the caller's thread, every other shard on
/// a scoped thread of its own (a lone core starts none).
fn run_barrier_loop(cores: &mut [EngineCore], lookahead: SimTime) {
    let n = cores.len();
    let sync = Rendezvous {
        next_times: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
        live: (0..n).map(|_| AtomicU64::new(0)).collect(),
        mailboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        barrier: SpinBarrier::new(n),
        failed: AtomicBool::new(false),
        look_ns: lookahead.as_nanos(),
    };
    let (first, peers) = cores.split_first_mut().expect("at least one shard");
    std::thread::scope(|scope| {
        for (i, core) in peers.iter_mut().enumerate() {
            let sync = &sync;
            scope.spawn(move || sync.drive(i + 1, core));
        }
        sync.drive(0, first);
    });
}

/// Fold the cores' state into one [`SimResults`], deterministically, moving records
/// and traces out of them.
///
/// * link counters come from the shard owning each link's source (its only writer),
///   settled up to the point that core stopped at — every departure an explicit
///   transmit-done event would have completed by then is credited;
/// * flow records are built in place from the cores' slot slabs, in id order, each
///   flow's records on several cores folded into one (see `flow_records`);
/// * traces are a disjoint union (each series is sampled by exactly one shard);
/// * the end time is the instant the last flow settled when the run stopped because
///   all flows finished, the latest core clock otherwise.
fn merge_results(mut cores: Vec<EngineCore>) -> SimResults {
    // What the workers' last decision saw: nothing live means the run stopped because
    // every flow was done (the cores have not moved since).
    let flows_done = cores[0].config.stop_when_flows_done
        && cores
            .iter()
            .all(|c| c.unfinished_flows + c.pending_arrivals == 0);
    for core in &mut cores {
        for l in 0..core.network.link_count() {
            core.network.settle(LinkId(l as u32), core.key);
        }
    }
    let link_stats: Vec<_> = cores[0]
        .network
        .links
        .iter()
        .map(|l| {
            // A lone core has no node → shard map and owns every link.
            let owner = cores[0].shard_of.get(l.src.index()).map_or(0, |&s| s);
            (l.id, cores[owner as usize].network.link(l.id).stats.clone())
        })
        .collect();

    let mut max_now = SimTime::ZERO;
    let mut queue = crate::event::QueueStats::default();
    let mut engine = crate::engine::EngineStats::default();
    for core in &cores {
        max_now = max_now.max(core.now);
        let e = core.stats;
        engine.arrivals += e.arrivals;
        engine.packets += e.packets;
        engine.timers_fired += e.timers_fired;
        engine.ticks += e.ticks;
        engine.samples += e.samples;
        // Like `peak_pending`: per-shard peaks, summed to an upper bound.
        engine.pool_high_water += core.pool.high_water();
        engine.ledger_high_water += core.network.ledger_high_water();
        engine.live_flows_high_water += e.live_flows_high_water;
        engine.route_high_water += core.flows.route_high_water();
        // Every worker opens the same windows (one decision from one snapshot), so the
        // run's count is any core's, not a sum.
        engine.windows = engine.windows.max(e.windows);
        engine.messages_in += e.messages_in;
        let s = core.events.stats();
        queue.pushes += s.pushes;
        queue.pops += s.pops;
        // Per-shard peaks need not be simultaneous; the sum is an upper bound.
        queue.peak_pending += s.peak_pending;
        queue.overflow_migrations += s.overflow_migrations;
        queue.buckets_sorted += s.buckets_sorted;
        queue.peak_chunks += s.peak_chunks;
    }

    // Keep only what is moved into the results: agents, controllers, event queues and
    // network copies are freed here, before the records are built.
    let (slabs, per_core): (Vec<_>, Vec<_>) =
        cores.into_iter().map(|c| (c.flows.slots, c.traces)).unzip();
    let flows = flow_records(slabs);
    let mut traces = crate::metrics::Traces::default();
    for core_traces in per_core {
        traces.link_utilization.extend(core_traces.link_utilization);
        traces.link_queue_bytes.extend(core_traces.link_queue_bytes);
        traces.flow_goodput.extend(core_traces.flow_goodput);
    }

    // A run that stops because every flow finished ends at the instant of the final
    // settling event: the last finish, or the arrival of an unroutable flow if that
    // zeroed the pending count afterwards (`ZERO` for a run without flows).
    let end_time = if flows_done {
        flows
            .iter()
            .flat_map(|r| {
                [
                    r.completed_at,
                    r.terminated_at,
                    r.failed.then_some(r.spec.arrival),
                ]
            })
            .flatten()
            .max()
            .unwrap_or(SimTime::ZERO)
    } else {
        max_now
    };

    SimResults {
        flows,
        link_stats,
        traces,
        queue,
        engine,
        end_time,
    }
}

/// What a replica — a flow's slot on a core other than its home — adds to the flow's
/// record.
struct ReplicaFold {
    id: FlowId,
    drops: u64,
    raw_bytes_delivered: u64,
    stage: Stage,
    finish: Option<Finish>,
}

/// The records of the flows that arrived, in ascending id order, built in place from
/// the cores' slot slabs with no copy of the flow table.
///
/// Each core's replicas are folded into small summaries and dropped, leaving only
/// home slots. Those are appended to the slab with the most capacity (with several
/// cores, each has room for every injected flow: shard 0's held them all, and the
/// others reserved as much in the deal), sorted by id, and each summary is
/// applied to its flow's home slot by binary search, by a rule that does not depend on
/// the order of the cores: drops summed, the most bytes delivered (on one core only),
/// the greatest stage (failed if failed anywhere), and the earliest finish. The
/// records are then built in that same buffer (a [`FlowRecord`] fits in a
/// [`FlowState`]). A lone core has no replicas, so its own slab is the buffer.
fn flow_records(mut slabs: Vec<Vec<FlowState>>) -> Vec<FlowRecord> {
    let replicas = slabs.iter().flatten().filter(|s| !s.home).count();
    let mut folds = Vec::with_capacity(replicas);
    for slab in &mut slabs {
        // Every flow that arrived has exactly one home slot, on the shard that saw it
        // arrive; a flow whose arrival never came (the run stopped first) has no
        // record.
        slab.retain(|s| {
            if !s.home {
                folds.push(ReplicaFold {
                    id: s.info.spec.id,
                    drops: s.drops,
                    raw_bytes_delivered: s.raw_bytes_delivered,
                    stage: s.stage,
                    finish: s.finish,
                });
            }
            s.home && s.stage != Stage::Pending
        });
    }
    let widest = (0..slabs.len())
        .max_by_key(|&i| slabs[i].capacity())
        .expect("at least one core");
    let mut slots = slabs.swap_remove(widest);
    for mut slab in slabs {
        slots.append(&mut slab);
    }
    slots.sort_unstable_by_key(|s| s.info.spec.id);
    assert!(
        slots
            .windows(2)
            .all(|w| w[0].info.spec.id != w[1].info.spec.id),
        "duplicate flow id: two flows with one id arrived"
    );
    for fold in folds {
        let at = slots
            .binary_search_by_key(&fold.id, |s| s.info.spec.id)
            .expect("a replica's flow arrived at its home");
        let slot = &mut slots[at];
        slot.drops += fold.drops;
        slot.raw_bytes_delivered = slot.raw_bytes_delivered.max(fold.raw_bytes_delivered);
        slot.stage = slot.stage.max(fold.stage);
        if fold.finish.is_some_and(|f| f.beats(slot.finish)) {
            slot.finish = fold.finish;
        }
    }
    slots
        .into_iter()
        .filter_map(FlowState::into_record)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{blast_sim, dumbbell, BlastAgent};
    use crate::engine::SimConfig;
    use crate::flow::{FlowPath, FlowSpec};
    use crate::network::{LinkParams, Network};
    use crate::packet::{PacketKind, MTU_BYTES};
    use rand::rngs::SmallRng;

    /// Split the dumbbell (h0,h1 – s0 – s1 – h2) down the middle: the senders' side on
    /// shard 0, the receiver's side on shard 1. The s0–s1 links cross the boundary.
    fn dumbbell_assignment() -> ShardAssignment {
        // Nodes: h0=0, h1=1, s0=2, s1=3, h2=4.
        ShardAssignment::new(vec![0, 0, 0, 1, 1], 2, crate::network::DEFAULT_PROP_DELAY)
    }

    fn run_split(mut sim: Simulator) -> SimResults {
        sim.core.config.seed = 7;
        let assignment = dumbbell_assignment();
        sim.run_sharded(&assignment, |_| Box::new(crate::engine::ShortestPathRouter))
    }

    fn run_seq(mut sim: Simulator) -> SimResults {
        sim.core.config.seed = 7;
        sim.run()
    }

    fn two_flow_sim() -> Simulator {
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = blast_sim(net);
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 200_000));
        sim.add_flow(
            FlowSpec::new(2, hosts[1], hosts[2], 150_000).with_arrival(SimTime::from_micros(50)),
        );
        sim
    }

    #[test]
    fn sharded_matches_sequential_flow_records() {
        let seq = run_seq(two_flow_sim());
        let par = run_split(two_flow_sim());
        assert_eq!(seq.flows.len(), par.flows.len());
        for s in &seq.flows {
            let id = s.spec.id;
            let p = par.flow(id).unwrap();
            assert_eq!(s.outcome(), p.outcome(), "outcome mismatch for {id:?}");
            assert_eq!(s.completed_at, p.completed_at, "fct mismatch for {id:?}");
            assert_eq!(s.bytes_acked, p.bytes_acked);
            assert_eq!(s.raw_bytes_delivered, p.raw_bytes_delivered);
            assert_eq!(s.drops, p.drops);
        }
        assert_eq!(seq.end_time, par.end_time);
    }

    /// Shortest-path routing that finds no path for flow 9.
    fn refuse_nine(net: &Network, spec: &FlowSpec, _: &mut SmallRng) -> Option<FlowPath> {
        (spec.id != FlowId(9)).then(|| net.shortest_path(spec.src, spec.dst))?
    }

    /// `end_time` comes from `merge_results` on one core as on many: the last settling
    /// event when the run stopped because its flows were done, the clock otherwise.
    #[test]
    fn end_time_is_the_last_settling_event_on_one_core_and_on_two() {
        let hosts = dumbbell().hosts();
        let late = SimTime::from_millis(5);
        let cap = SimTime::from_micros(100);
        let big = FlowSpec::new(1, hosts[0], hosts[2], 200_000);
        let small = FlowSpec::new(2, hosts[1], hosts[2], 150_000);
        let unroutable = FlowSpec::new(9, hosts[1], hosts[2], 1000).with_arrival(late);
        // (flows, hard stop, expected end time; `None`: the last completion)
        let cases = [
            ("all flows finish", vec![big.clone(), small], None, None),
            (
                "an unroutable arrival settles last",
                vec![big.clone(), unroutable],
                None,
                Some(late),
            ),
            (
                "hard stop, a flow still live",
                vec![big],
                Some(cap),
                Some(cap),
            ),
            ("no flows at all", vec![], None, Some(SimTime::ZERO)),
        ];
        for (name, flows, hard_stop, want) in cases {
            let build = || {
                let mut sim = blast_sim(dumbbell());
                sim.set_router(refuse_nine);
                if let Some(t) = hard_stop {
                    sim.core.config.max_sim_time = t;
                }
                sim.add_flows(flows.iter().cloned());
                sim
            };
            let lone = build().run();
            let last_completion = lone.flows.iter().filter_map(|r| r.completed_at).max();
            assert_eq!(Some(lone.end_time), want.or(last_completion), "{name}");
            // A hard stop is the documented exception to shard-count invariance.
            if hard_stop.is_none() {
                let split = build().run_sharded(&dumbbell_assignment(), |_| Box::new(refuse_nine));
                assert_eq!(split.end_time, lone.end_time, "{name}, 2-shard split");
            }
        }
    }

    #[test]
    fn sharded_link_stats_match_up_to_the_stop_tail() {
        let seq = run_seq(two_flow_sim());
        let par = run_split(two_flow_sim());
        // A lone core halts at the exact event that settles the last flow; a shard
        // only learns that at the next barrier, so it may serialize a few more
        // in-flight packets from the window containing the finish (bounded by one
        // lookahead window). Counters are therefore >= the lone core's, and close.
        for ((id_s, s), (id_p, p)) in seq.link_stats.iter().zip(par.link_stats.iter()) {
            assert_eq!(id_s, id_p);
            assert!(
                p.bytes_transmitted >= s.bytes_transmitted,
                "sharded processed fewer events than sequential on {id_s:?}"
            );
            assert!(
                p.bytes_transmitted - s.bytes_transmitted <= 10 * MTU_BYTES as u64,
                "stop tail on {id_s:?} exceeds one lookahead window: {} vs {}",
                p.bytes_transmitted,
                s.bytes_transmitted
            );
            assert_eq!(s.tail_drops, p.tail_drops);
        }
    }

    #[test]
    fn sharded_run_is_self_deterministic() {
        let a = run_split(two_flow_sim());
        let b = run_split(two_flow_sim());
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.flows, b.flows);
    }

    #[test]
    fn unroutable_flow_on_a_shard_is_recorded_failed() {
        // Disconnected islands split across shards.
        let mut net = Network::new();
        let h0 = net.add_host("h0");
        let s0 = net.add_switch("s0");
        let h1 = net.add_host("h1");
        let h2 = net.add_host("h2");
        let s1 = net.add_switch("s1");
        let h3 = net.add_host("h3");
        net.add_duplex_link(h0, s0, LinkParams::default());
        net.add_duplex_link(s0, h1, LinkParams::default());
        net.add_duplex_link(h2, s1, LinkParams::default());
        net.add_duplex_link(s1, h3, LinkParams::default());
        let mut sim = blast_sim(net);
        sim.add_flow(FlowSpec::new(1, h0, h1, 50_000));
        sim.add_flow(FlowSpec::new(2, h0, h3, 50_000));
        let assignment = ShardAssignment::new(vec![0, 0, 0, 1, 1, 1], 2, SimTime::MAX);
        let res = sim.run_sharded(&assignment, |_| Box::new(crate::engine::ShortestPathRouter));
        assert_eq!(
            res.flow(FlowId(1)).unwrap().outcome(),
            crate::flow::FlowOutcome::Completed
        );
        assert_eq!(
            res.flow(FlowId(2)).unwrap().outcome(),
            crate::flow::FlowOutcome::Failed
        );
    }

    #[test]
    fn cross_shard_traces_merge_disjointly() {
        let mut sim = two_flow_sim();
        // Trace the cross-boundary link s0->s1 (owned by shard 0) and the receiver
        // access link s1->h2 (owned by shard 1), plus per-flow goodput (sampled at the
        // destination shard).
        sim.core.config.trace = crate::metrics::TraceConfig {
            interval: SimTime::from_micros(200),
            links: vec![LinkId(4), LinkId(6)],
            flows: true,
        };
        sim.core.config.stop_when_flows_done = false;
        sim.core.config.max_sim_time = SimTime::from_millis(3);
        let res = run_split(sim);
        assert!(!res.traces.link_utilization[&LinkId(4)].is_empty());
        assert!(!res.traces.link_utilization[&LinkId(6)].is_empty());
        assert!(res.traces.flow_goodput.contains_key(&FlowId(1)));
        for series in res.traces.link_utilization.values() {
            for pair in series.windows(2) {
                assert!(pair[0].at < pair[1].at, "duplicate or unsorted samples");
            }
        }
    }

    /// Pool-leak gate. Packets leave the network by delivery, random loss, tail drop
    /// and — on two shards — by being moved into the outbox for the peer; once a run has
    /// drained its event queue, each of those paths must have vacated the packet's pool
    /// slot.
    #[test]
    fn a_drained_run_leaves_every_pool_slot_free() {
        for assignment in [ShardAssignment::single(5), dumbbell_assignment()] {
            let mut net = dumbbell();
            for link in &mut net.links {
                link.queue_capacity_bytes = 20_000;
                link.loss_rate = 0.05;
            }
            let hosts = net.hosts();
            let mut sim = blast_sim(net);
            // Lost packets are never repaired, so the flows never finish: the run ends
            // at the hard stop, long after the last packet has left the network.
            sim.core.config.max_sim_time = SimTime::from_millis(50);
            sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 300_000));
            sim.add_flow(FlowSpec::new(2, hosts[1], hosts[2], 300_000));
            let cores = sim.run_cores(&assignment, |_| Box::new(crate::engine::ShortestPathRouter));
            let shards = cores.len();
            let sum = |count: fn(&crate::network::LinkStats) -> u64| -> u64 {
                let stats = cores.iter().flat_map(|c| &c.network.links);
                stats.map(|l| count(&l.stats)).sum()
            };
            assert!(sum(|s| s.tail_drops) > 0, "{shards} shard(s): no tail drop");
            assert!(
                sum(|s| s.random_drops) > 0,
                "{shards} shard(s): no random loss"
            );
            for core in &cores {
                assert!(core.stopped && core.events.is_empty(), "not drained");
                assert!(core.pool.high_water() > 0, "{shards} shard(s): pool unused");
                assert_eq!(core.pool.live(), 0, "{shards} shard(s): leaked pool slots");
            }
        }
    }

    /// Slots and route-arena offsets are per core. Flow 1 is homed on shard 0 and
    /// flow 2 on shard 1, both arriving at t = 0, so each core lays out its own flow
    /// first and the other's — registered at the first barrier — second: every packet
    /// crossing the cut carries the sender's stamp, which names the *other* flow's
    /// route on the receiver until `ingest` re-stamps it. (A stale stamp sends flow 1's
    /// data down flow 2's links: the hop assert in debug builds, wrong records in
    /// release.) The arenas hold one entry per link and direction per flow, however
    /// many packets went through.
    #[test]
    fn cross_shard_packets_are_restamped_for_the_receiving_cores_arena() {
        let build = || {
            let net = dumbbell();
            let hosts = net.hosts();
            let mut sim = blast_sim(net);
            sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 120_000));
            sim.add_flow(FlowSpec::new(2, hosts[2], hosts[1], 90_000));
            sim
        };
        let lone = build().run();
        let cores = build().run_cores(&dumbbell_assignment(), |_| {
            Box::new(crate::engine::ShortestPathRouter)
        });
        let slots = |id| {
            [0, 1].map(|c: usize| {
                let slab = &cores[c].flows.slots;
                slab.iter()
                    .position(|s| s.info.spec.id == FlowId(id))
                    .unwrap()
            })
        };
        assert_eq!(
            slots(1),
            [0, 1],
            "flow 1: first at home, second on its replica"
        );
        assert_eq!(slots(2), [1, 0], "flow 2: the other way round");
        for core in &cores {
            // Two flows of three links, forward and reverse runs each.
            assert_eq!(core.flows.routes.len(), 2 * 2 * 3);
            let offsets: Vec<u32> = core.flows.hot.iter().map(|h| h.route).collect();
            assert_eq!(offsets, [0, 6]);
        }
        let split = merge_results(cores);
        for want in &lone.flows {
            let id = want.spec.id;
            let got = split.flow(id).unwrap();
            assert_eq!(got.completed_at, want.completed_at, "{id:?}");
            assert_eq!(got.raw_bytes_delivered, want.raw_bytes_delivered, "{id:?}");
            assert_eq!(got.drops, 0, "{id:?}");
        }
        assert_eq!(split.completed_count(), 2);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn mismatched_assignment_panics() {
        let sim = blast_sim(dumbbell());
        let bad = ShardAssignment::new(vec![0, 1], 2, SimTime::MAX);
        let _ = sim.run_sharded(&bad, |_| Box::new(crate::engine::ShortestPathRouter));
    }

    /// 2-shard twin of `engine::tests::duplicate_flow_ids_rejected`: flow id 1 injected
    /// twice, between the given `(src, dst)` host pairs.
    fn run_split_with_id_one_twice(pairs: [(usize, usize); 2]) {
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = blast_sim(net);
        sim.add_flows(pairs.map(|(src, dst)| FlowSpec::new(1, hosts[src], hosts[dst], 1000)));
        let _ = run_split(sim);
    }

    /// Both sources on shard 1: that core's flow table refuses the second one when the
    /// run starts.
    #[test]
    #[should_panic]
    fn duplicate_flow_ids_on_one_shard_rejected() {
        run_split_with_id_one_twice([(2, 0), (2, 1)]);
    }

    /// Sources on different shards: each home registers the id with the other, and the
    /// worker that trips the guard must not leave its peer waiting at the barrier.
    #[test]
    #[should_panic]
    fn duplicate_flow_ids_across_shards_rejected() {
        run_split_with_id_one_twice([(0, 2), (2, 1)]);
    }

    /// A blast agent that panics on the first packet delivered to it.
    struct PanicOnPacket(BlastAgent);
    impl crate::agent::HostAgent for PanicOnPacket {
        fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut crate::agent::Ctx) {
            self.0.on_flow_arrival(flow, ctx);
        }
        fn on_packet(&mut self, _: Packet, _: &mut crate::agent::Ctx) {
            panic!("the agent fails on its first packet");
        }
        fn on_timer(
            &mut self,
            flow: FlowId,
            kind: crate::event::TimerKind,
            token: u64,
            ctx: &mut crate::agent::Ctx,
        ) {
            self.0.on_timer(flow, kind, token, ctx);
        }
    }

    /// Flow 1 from h0 (shard 0) to h2 (shard 1), split in two, with the agent at
    /// `hosts[host]` panicking on its first packet (h0's is an ACK, h2's data).
    fn run_split_panicking_at(host: usize) {
        let net = dumbbell();
        let hosts = net.hosts();
        let failing = hosts[host];
        let mut sim = Simulator::new(net, SimConfig::default());
        sim.install_agents(|_, h| -> Box<dyn crate::agent::HostAgent + Send> {
            if h == failing {
                Box::new(PanicOnPacket(BlastAgent::new()))
            } else {
                Box::new(BlastAgent::new())
            }
        });
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 60_000));
        let _ = run_split(sim);
    }

    /// Shard 0 runs on the caller's thread: the panic unwinds out of the run itself,
    /// once `Bail` has released shard 1 from the barrier and its thread has ended.
    #[test]
    #[should_panic(expected = "fails on its first packet")]
    fn a_panic_on_shard_0_reaches_the_caller() {
        run_split_panicking_at(0);
    }

    /// A panic on shard 1's thread: `Bail` releases shard 0 from the barrier, and the
    /// scope re-raises the panic on the caller's thread once shard 0 has left the loop.
    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panic_on_shard_1_reaches_the_caller() {
        run_split_panicking_at(2);
    }

    /// No party leaves a generation early: each bumps a shared counter before the first
    /// wait of a round and must read all `n` bumps of every round so far after it; the
    /// second wait keeps the next round's bumps out until everyone has looked. With
    /// more parties than cores, waits run out their spin and yield budgets and park.
    #[test]
    fn barrier_releases_no_party_before_the_last_arrives() {
        const ROUNDS: usize = 5_000; // two generations each
        for n in [2, 3, 4] {
            let barrier = SpinBarrier::new(n);
            let bumps = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..n {
                    scope.spawn(|| {
                        for round in 1..=ROUNDS {
                            bumps.fetch_add(1, Ordering::SeqCst);
                            barrier.wait();
                            assert_eq!(bumps.load(Ordering::SeqCst), n * round, "n = {n}");
                            barrier.wait();
                        }
                    });
                }
            });
            assert_eq!(barrier.generation.load(Ordering::SeqCst), 2 * ROUNDS);
            assert_eq!(barrier.parked(), 0);
        }
    }

    /// The park path, forced: every party but one is known to be asleep on the
    /// condition variable before the last is let through (by channel, not by timing),
    /// and its arrival must wake them all — also after a panic has poisoned the mutex,
    /// which `Bail` relies on when it waits while unwinding.
    #[test]
    fn last_arrival_wakes_every_parked_party() {
        for (n, poisoned) in [(2, false), (3, false), (4, true)] {
            let barrier = SpinBarrier::new(n);
            if poisoned {
                let poison = std::thread::scope(|scope| {
                    scope
                        .spawn(|| {
                            let _guard = barrier.lock.lock();
                            panic!("poisoning the barrier's mutex on purpose");
                        })
                        .join()
                });
                assert!(poison.is_err() && barrier.lock.is_poisoned());
            }
            for _ in 0..3 {
                let (go, gate) = std::sync::mpsc::channel::<()>();
                std::thread::scope(|scope| {
                    for _ in 1..n {
                        scope.spawn(|| barrier.wait());
                    }
                    let barrier = &barrier;
                    scope.spawn(move || {
                        gate.recv().expect("released by the test");
                        barrier.wait();
                    });
                    while barrier.parked() < n - 1 {
                        std::thread::yield_now();
                    }
                    go.send(()).expect("last party is waiting on the gate");
                });
                assert_eq!(barrier.parked(), 0, "n = {n}");
            }
        }
    }

    #[test]
    fn the_earliest_finish_wins_then_completion() {
        let finish = |completed, us| Finish {
            at: SimTime::from_micros(us),
            completed,
        };
        let terminated = finish(false, 10);
        assert!(terminated.beats(None));
        // A later completion does not displace an earlier termination...
        assert!(!finish(true, 20).beats(Some(terminated)));
        // ...an earlier completion does...
        assert!(finish(true, 5).beats(Some(terminated)));
        // ...and at equal times completion beats termination.
        assert!(finish(true, 10).beats(Some(terminated)));
        assert!(!terminated.beats(Some(finish(true, 10))));
    }

    /// Two cores hold flow 1: its home terminated it at 40 µs after 2 drops; the core
    /// it delivers to saw it complete at 30 µs, with every byte and 3 more drops. They
    /// fold to one record, whichever core comes first, and the records come out in id
    /// order.
    #[test]
    fn replica_records_fold_alike_in_either_core_order() {
        let state = |id, home, drops, delivered, (us, completed)| {
            let mut s = FlowState::pending(FlowSpec::new(id, NodeId(0), NodeId(1), 3000));
            (s.stage, s.home, s.drops, s.raw_bytes_delivered) =
                (Stage::Routed, home, drops, delivered);
            s.finish = Some(Finish {
                at: SimTime::from_micros(us),
                completed,
            });
            s
        };
        let home = || vec![state(1, true, 2, 0, (40, false))];
        let sink = || {
            vec![
                state(2, true, 0, 0, (50, false)),
                state(1, false, 3, 3000, (30, true)),
            ]
        };
        let records = flow_records(vec![home(), sink()]);
        assert_eq!(records, flow_records(vec![sink(), home()]));
        let ids: Vec<u64> = records.iter().map(|r| r.spec.id.value()).collect();
        assert_eq!(ids, [1, 2]);
        let one = &records[0];
        assert_eq!(one.outcome(), crate::flow::FlowOutcome::Completed);
        assert_eq!(one.completed_at, Some(SimTime::from_micros(30)));
        assert_eq!(
            (one.drops, one.raw_bytes_delivered, one.bytes_acked),
            (5, 3000, 3000)
        );
    }

    /// A sender-side agent that spawns a second flow mid-run (like M-PDQ subflows):
    /// run-time routing and cross-shard registration must both work.
    struct Spawner {
        inner: BlastAgent,
        spawned: bool,
    }
    impl crate::agent::HostAgent for Spawner {
        fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut crate::agent::Ctx) {
            self.inner.on_flow_arrival(flow, ctx);
        }
        fn on_packet(&mut self, packet: Packet, ctx: &mut crate::agent::Ctx) {
            if packet.kind == PacketKind::Ack && !self.spawned {
                self.spawned = true;
                let parent = ctx.flow(packet.flow).unwrap().spec.clone();
                let sub = FlowSpec::new(900, parent.src, parent.dst, 40_000).with_parent(parent.id);
                ctx.spawn_flow(sub);
            }
            self.inner.on_packet(packet, ctx);
        }
        fn on_timer(
            &mut self,
            flow: FlowId,
            kind: crate::event::TimerKind,
            token: u64,
            ctx: &mut crate::agent::Ctx,
        ) {
            self.inner.on_timer(flow, kind, token, ctx);
        }
    }

    #[test]
    fn run_time_spawned_flows_cross_shards() {
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = Simulator::new(net, SimConfig::default());
        sim.install_agents(|_, _| {
            Box::new(Spawner {
                inner: BlastAgent::new(),
                spawned: false,
            })
        });
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 60_000));
        let res = run_split(sim);
        assert_eq!(
            res.flow(FlowId(1)).unwrap().outcome(),
            crate::flow::FlowOutcome::Completed
        );
        let sub = res.flow(FlowId(900)).unwrap();
        assert_eq!(sub.outcome(), crate::flow::FlowOutcome::Completed);
        assert_eq!(sub.raw_bytes_delivered, 40_000);
    }
}
