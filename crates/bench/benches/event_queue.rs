//! Micro-benchmark of the timing-wheel [`EventQueue`] in isolation: steady-state
//! hold cycles (pop the minimum, push a replacement) and burst push-then-drain, at
//! 1k / 100k / 1M pending events.
//!
//! The hold span scales with the population (mean spacing ~2.5 µs), so at the default
//! 448 ns bucket the small size lives in the two wheel levels (470 ms horizon) while
//! the 1M size keeps most events in the far-future heap — every tier is on the
//! measured path. `crates/bench/tests/smoke.rs` runs a scaled-
//! down mirror of the same loops as a correctness smoke test.

use criterion::{criterion_group, criterion_main, Criterion};

use pdq_netsim::event::{EventKind, EventQueue, TimerKind};
use pdq_netsim::{FlowId, NodeId, SimTime};

/// Deterministic 64-bit LCG (the bench must not depend on ambient randomness).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn timer(token: u64) -> EventKind {
    EventKind::Timer {
        node: NodeId((token % 64) as u32),
        flow: FlowId(token),
        kind: TimerKind::Rto,
        token,
        gen: 0,
    }
}

/// A queue prefilled with `pending` events spread over `span_ns` of future time.
fn prefill(pending: usize, span_ns: u64, seed: &mut u64) -> EventQueue {
    let mut q = EventQueue::new();
    for i in 0..pending {
        let at = SimTime::from_nanos(lcg(seed) % span_ns);
        q.schedule(at, timer(i as u64));
    }
    q
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(10);
    for &pending in &[1_000usize, 100_000, 1_000_000] {
        // Mean spacing ~2.5 µs: a fine bucket holds an event or none, and past 188k
        // pending the tail of the population sits in the far-future heap.
        let span_ns = pending as u64 * 2_500;
        let cycles = 10_000usize;

        // Steady state: pop the earliest event, schedule a replacement a
        // pseudo-random span ahead — the queue holds `pending` events throughout.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut q = prefill(pending, span_ns, &mut seed);
        group.bench_function(&format!("hold/{pending}"), |b| {
            b.iter(|| {
                for _ in 0..cycles {
                    let ev = q.pop().expect("queue is never empty in hold");
                    q.set_now(ev.at);
                    let at = ev.at + SimTime::from_nanos(1 + lcg(&mut seed) % span_ns);
                    q.schedule(at, ev.kind);
                }
                q.len()
            })
        });

        // Burst: push `pending` events, then drain them all.
        group.bench_function(&format!("burst/{pending}"), |b| {
            let mut seed = 0x51afb00d5eedu64;
            b.iter(|| {
                let mut q = prefill(pending, span_ns, &mut seed);
                let mut last = SimTime::ZERO;
                while let Some(ev) = q.pop() {
                    last = ev.at;
                }
                last
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
