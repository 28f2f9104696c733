//! Counting, sample-timing wrappers around the public protocol types.
//!
//! The engine owns its event loop, so the harness cannot place spans inside
//! `netsim.engine.run`. Instead every `LinkController`, `HostAgent` and `Router`
//! the traced pass installs is wrapped in a [`Timed`]: each callback is counted by
//! kind, one in [`SAMPLE_EVERY`] is timed with `Instant`, and the wrapper adds its
//! counts to a shared [`TraceAgg`] when the engine drops it at the end of the run.
//! The wrappers only observe, so a traced run's fingerprint equals the untraced one.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use pdq_netsim::{
    Ctx, FlowId, FlowInfo, FlowPath, FlowSpec, HostAgent, Link, LinkController, Network, Packet,
    Router, SimTime, TimerKind,
};
use rand::rngs::SmallRng;

/// One callback in this many is timed. Odd and prime, so the sample does not lock
/// onto the forward/reverse alternation of a packet stream.
pub const SAMPLE_EVERY: u64 = 13;

/// The layers whose callbacks the wrappers see.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    PdqSwitch,
    PdqHost,
    TcpAgent,
    RateHost,
    RcpCtrl,
    D3Ctrl,
    Ecmp,
}

const LAYERS: usize = 7;

/// Callback kinds, as indices into [`LayerAgg::calls`].
pub mod kind {
    pub const FORWARD: usize = 0;
    pub const REVERSE: usize = 1;
    pub const TICK: usize = 2;

    pub const ARRIVAL: usize = 0;
    pub const PACKET: usize = 1;
    pub const TIMER_RTO: usize = 2;
    pub const TIMER_PACING: usize = 3;
    pub const TIMER_PROBE: usize = 4;
    pub const TIMER_REBALANCE: usize = 5;
    pub const TIMER_CUSTOM: usize = 6;

    pub const ROUTE: usize = 0;

    pub const COUNT: usize = 7;
}

/// Counts and sampled timings of one layer, summed over its wrapper instances.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerAgg {
    /// Callbacks seen, by [`kind`].
    pub calls: [u64; kind::COUNT],
    /// Callbacks that were timed, and the nanoseconds `Instant` measured for them.
    pub sampled: u64,
    pub sampled_ns: u64,
    /// Highest gauge reading (PDQ: flows a switch tracks / senders a host holds).
    pub peak: u64,
    /// Wrapper instances that reported.
    pub instances: u64,
}

impl LayerAgg {
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// All timer callbacks of a host layer.
    pub fn timer_calls(&self) -> u64 {
        self.calls[kind::TIMER_RTO..].iter().sum()
    }

    /// Estimated nanoseconds spent inside the layer: the sampled time, less what
    /// the timer itself adds to each sample, scaled up to every call.
    pub fn busy_ns(&self, timer_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let net = (self.sampled_ns as f64 - self.sampled as f64 * timer_ns).max(0.0);
        net * self.total_calls() as f64 / self.sampled as f64
    }

    fn merge(&mut self, other: &LayerAgg) {
        for (mine, theirs) in self.calls.iter_mut().zip(other.calls) {
            *mine += theirs;
        }
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
        self.peak = self.peak.max(other.peak);
        self.instances += other.instances;
    }
}

/// Where the wrappers of one traced run report. Shared by every engine shard.
#[derive(Default)]
pub struct TraceAgg {
    layers: Mutex<[LayerAgg; LAYERS]>,
}

impl TraceAgg {
    pub fn new() -> Arc<TraceAgg> {
        Arc::new(TraceAgg::default())
    }

    /// Hand out everything reported so far and start again from zero.
    pub fn take(&self) -> TraceSnapshot {
        TraceSnapshot(std::mem::take(
            &mut *self.layers.lock().expect("trace aggregate poisoned"),
        ))
    }
}

/// The per-layer aggregates of one or more finished runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceSnapshot([LayerAgg; LAYERS]);

impl TraceSnapshot {
    pub fn layer(&self, layer: Layer) -> &LayerAgg {
        &self.0[layer as usize]
    }

    pub fn merge(&mut self, other: &TraceSnapshot) {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            mine.merge(theirs);
        }
    }
}

/// The per-instance counters behind a [`Timed`]; flushed to the sink on drop.
struct Meter {
    local: LayerAgg,
    calls_seen: u64,
    layer: Layer,
    sink: Arc<TraceAgg>,
}

impl Meter {
    #[inline]
    fn call<R>(&mut self, kind: usize, f: impl FnOnce() -> R) -> R {
        self.local.calls[kind] += 1;
        self.calls_seen += 1;
        if !self.calls_seen.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.local.sampled_ns += started.elapsed().as_nanos() as u64;
        self.local.sampled += 1;
        out
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        self.local.instances = 1;
        // A poisoned sink means another shard thread panicked; the run is lost
        // anyway and `Drop` must not panic on top of it.
        if let Ok(mut layers) = self.sink.layers.lock() {
            layers[self.layer as usize].merge(&self.local);
        }
    }
}

/// A protocol object, counted and sample-timed. Implements whichever of
/// `LinkController`, `HostAgent` and `Router` the wrapped type implements.
pub struct Timed<T> {
    inner: T,
    meter: Meter,
    /// Read after every callback; its maximum becomes [`LayerAgg::peak`].
    gauge: fn(&T) -> usize,
}

impl<T> Timed<T> {
    pub fn new(inner: T, layer: Layer, sink: &Arc<TraceAgg>, gauge: fn(&T) -> usize) -> Self {
        Timed {
            inner,
            meter: Meter {
                local: LayerAgg::default(),
                calls_seen: 0,
                layer,
                sink: Arc::clone(sink),
            },
            gauge,
        }
    }

    /// A wrapper for a type with nothing worth gauging.
    pub fn ungauged(inner: T, layer: Layer, sink: &Arc<TraceAgg>) -> Self {
        Timed::new(inner, layer, sink, |_| 0)
    }

    #[inline]
    fn read_gauge(&mut self) {
        let reading = (self.gauge)(&self.inner) as u64;
        self.meter.local.peak = self.meter.local.peak.max(reading);
    }
}

impl<C: LinkController> LinkController for Timed<C> {
    fn init(&mut self, now: SimTime, link: &Link) -> Option<SimTime> {
        self.inner.init(now, link)
    }

    fn on_forward(&mut self, packet: &mut Packet, now: SimTime, link: &Link) {
        self.meter
            .call(kind::FORWARD, || self.inner.on_forward(packet, now, link));
        self.read_gauge();
    }

    fn on_reverse(&mut self, packet: &mut Packet, now: SimTime, link: &Link) {
        self.meter
            .call(kind::REVERSE, || self.inner.on_reverse(packet, now, link));
        self.read_gauge();
    }

    fn on_tick(&mut self, now: SimTime, link: &Link) -> Option<SimTime> {
        self.meter
            .call(kind::TICK, || self.inner.on_tick(now, link))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<A: HostAgent> HostAgent for Timed<A> {
    fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
        self.meter
            .call(kind::ARRIVAL, || self.inner.on_flow_arrival(flow, ctx));
        self.read_gauge();
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
        self.meter
            .call(kind::PACKET, || self.inner.on_packet(packet, ctx));
        self.read_gauge();
    }

    fn on_timer(&mut self, flow: FlowId, timer: TimerKind, token: u64, ctx: &mut Ctx) {
        let kind = match timer {
            TimerKind::Rto => kind::TIMER_RTO,
            TimerKind::Pacing => kind::TIMER_PACING,
            TimerKind::Probe => kind::TIMER_PROBE,
            TimerKind::Rebalance => kind::TIMER_REBALANCE,
            TimerKind::Custom(_) => kind::TIMER_CUSTOM,
        };
        self.meter
            .call(kind, || self.inner.on_timer(flow, timer, token, ctx));
    }
}

impl<R: Router> Router for Timed<R> {
    fn route(&mut self, net: &Network, spec: &FlowSpec, rng: &mut SmallRng) -> Option<FlowPath> {
        self.meter
            .call(kind::ROUTE, || self.inner.route(net, spec, rng))
    }
}

/// What `Instant` itself adds to one timed sample, in nanoseconds: the mean
/// duration measured around nothing.
pub fn calibrate_timer_ns() -> f64 {
    const ROUNDS: u32 = 200_000;
    let mut total = 0u64;
    for _ in 0..ROUNDS {
        let started = Instant::now();
        total += std::hint::black_box(started.elapsed()).as_nanos() as u64;
    }
    total as f64 / ROUNDS as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_netsim::NullController;

    #[test]
    fn busy_time_scales_samples_up_and_subtracts_the_timer() {
        let mut agg = LayerAgg::default();
        agg.calls[kind::FORWARD] = 600;
        agg.calls[kind::REVERSE] = 400;
        agg.sampled = 100;
        agg.sampled_ns = 100 * 250;
        // 250 ns measured per sample, 50 of them the timer's: 200 ns x 1000 calls.
        assert_eq!(agg.busy_ns(50.0), 200_000.0);
        // A timer dearer than the samples floors at zero instead of going negative.
        assert_eq!(agg.busy_ns(400.0), 0.0);
        // Nothing sampled: nothing to scale.
        agg.sampled = 0;
        assert_eq!(agg.busy_ns(50.0), 0.0);
    }

    #[test]
    fn wrappers_count_every_call_sample_one_in_n_and_report_on_drop() {
        let sink = TraceAgg::new();
        let mut net = Network::new();
        let host = net.add_host("h");
        let switch = net.add_switch("s");
        let (up, _) = net.add_duplex_link(host, switch, Default::default());
        let link = net.link(up).clone();
        let mut packet = Packet::control(pdq_netsim::PacketKind::Syn, FlowId(1), host, switch);

        let calls = 5 * SAMPLE_EVERY + 3;
        let mut ctl = Timed::new(NullController, Layer::RcpCtrl, &sink, |_| 4);
        for _ in 0..calls {
            ctl.on_forward(&mut packet, SimTime::ZERO, &link);
        }
        ctl.on_reverse(&mut packet, SimTime::ZERO, &link);
        assert_eq!(ctl.on_tick(SimTime::ZERO, &link), None);
        assert_eq!(ctl.name(), "null");
        // Nothing reaches the sink before the wrapper is dropped.
        assert_eq!(sink.take().layer(Layer::RcpCtrl).instances, 0);
        drop(ctl);
        let mut snapshot = sink.take();
        let agg = *snapshot.layer(Layer::RcpCtrl);
        assert_eq!(agg.calls[kind::FORWARD], calls);
        assert_eq!(agg.calls[kind::REVERSE], 1);
        assert_eq!(agg.calls[kind::TICK], 1);
        assert_eq!(agg.sampled, (calls + 2) / SAMPLE_EVERY);
        assert_eq!((agg.peak, agg.instances), (4, 1));
        assert_eq!(*snapshot.layer(Layer::D3Ctrl), LayerAgg::default());
        // Taking starts the sink again from zero.
        assert_eq!(*sink.take().layer(Layer::RcpCtrl), LayerAgg::default());
        let again = snapshot;
        snapshot.merge(&again);
        assert_eq!(
            snapshot.layer(Layer::RcpCtrl).total_calls(),
            2 * (calls + 2)
        );
    }

    #[test]
    fn timer_calibration_is_positive_and_small() {
        let ns = calibrate_timer_ns();
        assert!(ns > 0.0 && ns < 10_000.0, "{ns}");
    }
}
