//! Restartable deadlines: a timer an agent re-arms many times before it fires once.
//!
//! A retransmission timeout restarts on every ACK that acknowledges new data. With
//! plain [`Ctx::set_timer_after`] each restart queues one more timer event, and every
//! earlier one stays queued until it pops into the agent's stale-token check. On a
//! high-BDP path, where the RTO is hundreds of milliseconds and an ACK arrives every
//! few microseconds, those dead timers outnumber the packets in flight.
//!
//! [`RestartTimer`] keeps at most one firing queued per restart run instead:
//!
//! * **Arming later** than the firing already queued only records the new deadline.
//! * **Arming at the same instant or earlier** queues a firing, as `set_timer_*` does.
//! * **A queued firing that pops before the latest deadline** re-queues the latest
//!   deadline, stamped with the instant it was armed and its token.
//! * **A superseded firing** (one a same-instant or earlier arming replaced) acts on
//!   nothing.
//!
//! The firing that acts carries exactly the event key it would have had if every
//! arming had queued one — `(at, created, Timer, flow, content(token, node, kind))`,
//! with the arming instant as `created` — so it pops at the same place in the event
//! order. Every firing the helper does not queue would have popped into a stale-token
//! check, and a re-queueing firing acts on nothing, so a run is bit-identical to one
//! that queues a timer per arming; it just pops fewer events.
//!
//! Tokens count armings from 1, as a hand-rolled `token += 1` scheme does. The engine
//! cancels no timer, so with per-timer tokens this helper is how an agent retires a
//! deadline: a firing that is no longer the latest arming acts on nothing.

use crate::agent::Ctx;
use crate::event::TimerKind;
use crate::ids::FlowId;
use crate::time::SimTime;

/// One restartable deadline of one flow (see the module docs).
///
/// The flow and timer kind are passed on every call rather than stored, so the
/// helper costs a sender 40 bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestartTimer {
    /// Token of the latest arming; 0 before the first.
    token: u64,
    /// When the latest arming is due.
    at: SimTime,
    /// When the latest arming was made: the creation stamp its firing carries.
    armed_at: SimTime,
    /// Token of the earliest firing queued in the engine; 0 when none is queued.
    queued: u64,
    /// When that firing pops.
    queued_at: SimTime,
}

impl RestartTimer {
    /// A timer that has never been armed.
    pub fn new() -> Self {
        RestartTimer::default()
    }

    /// The token of the latest arming (0 before the first): the token the live
    /// deadline fires with.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Arm (or re-arm) the deadline `delay` after now, superseding every earlier
    /// arming.
    pub fn arm_after(&mut self, flow: FlowId, kind: TimerKind, delay: SimTime, ctx: &mut Ctx) {
        self.token += 1;
        self.at = ctx.now() + delay;
        self.armed_at = ctx.now();
        if self.queued != 0 && self.queued_at < self.at {
            // The queued firing pops first and re-queues this deadline then.
            return;
        }
        self.queue(flow, kind, ctx);
    }

    /// Handle a firing of this timer: true exactly once per arming that is still
    /// the latest when it comes due — the caller acts on it. Any other firing returns
    /// false; one that popped before the latest deadline first re-queues it.
    pub fn fire(&mut self, flow: FlowId, kind: TimerKind, token: u64, ctx: &mut Ctx) -> bool {
        if token != self.queued {
            return false;
        }
        if token == self.token {
            self.queued = 0;
            return true;
        }
        self.queue(flow, kind, ctx);
        false
    }

    /// Queue the latest deadline's firing with the key its arming gave it.
    fn queue(&mut self, flow: FlowId, kind: TimerKind, ctx: &mut Ctx) {
        self.queued = self.token;
        self.queued_at = self.at;
        ctx.set_timer_created(flow, kind, self.at, self.armed_at, self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Action, FlowInfo};
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    const FLOW: FlowId = FlowId(7);
    const KIND: TimerKind = TimerKind::Rto;

    /// A firing as the engine orders it: `(at, created, token)`.
    type Firing = (SimTime, SimTime, u64);

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    /// Run `call` in a callback at `now`, returning the timers it queued.
    fn queued<R>(now: SimTime, call: impl FnOnce(&mut Ctx) -> R) -> (R, Vec<Firing>) {
        let flows: HashMap<FlowId, FlowInfo> = HashMap::new();
        let mut ctx = Ctx::new(now, &flows);
        let out = call(&mut ctx);
        let timers = ctx
            .take_actions()
            .into_iter()
            .map(|a| match a {
                Action::SetTimer {
                    flow,
                    kind,
                    at,
                    created,
                    token,
                } => {
                    assert_eq!((flow, kind), (FLOW, KIND));
                    assert!(created <= now, "stamped {created:?} at {now:?}");
                    (at, created, token)
                }
                other => panic!("unexpected action {other:?}"),
            })
            .collect();
        (out, timers)
    }

    fn arm(t: &mut RestartTimer, now: SimTime, delay: SimTime) -> Vec<Firing> {
        queued(now, |ctx| t.arm_after(FLOW, KIND, delay, ctx)).1
    }

    fn fire(t: &mut RestartTimer, now: SimTime, token: u64) -> (bool, Vec<Firing>) {
        queued(now, |ctx| t.fire(FLOW, KIND, token, ctx))
    }

    #[test]
    fn stays_within_forty_bytes() {
        assert!(std::mem::size_of::<RestartTimer>() <= 40);
    }

    #[test]
    fn the_first_arming_queues_a_firing() {
        let mut t = RestartTimer::new();
        assert_eq!(t.token(), 0);
        assert_eq!(arm(&mut t, us(1), us(10)), vec![(us(11), us(1), 1)]);
        assert_eq!(t.token(), 1);
    }

    #[test]
    fn a_later_rearm_queues_nothing() {
        let mut t = RestartTimer::new();
        arm(&mut t, us(1), us(10));
        assert!(arm(&mut t, us(2), us(10)).is_empty());
        assert!(arm(&mut t, us(5), us(100)).is_empty());
        assert_eq!(t.token(), 3);
    }

    #[test]
    fn an_equal_or_earlier_rearm_queues_with_its_own_stamp_and_token() {
        let mut t = RestartTimer::new();
        arm(&mut t, us(1), us(10));
        // Same instant, armed later: its own creation stamp and token.
        assert_eq!(arm(&mut t, us(3), us(8)), vec![(us(11), us(3), 2)]);
        // Earlier than the queued firing.
        assert_eq!(arm(&mut t, us(4), us(2)), vec![(us(6), us(4), 3)]);
    }

    #[test]
    fn an_early_firing_requeues_the_latest_deadline_exactly() {
        let mut t = RestartTimer::new();
        arm(&mut t, us(1), us(10)); // queued: token 1 at 11
        arm(&mut t, us(4), us(20)); // due at 24, recorded
        arm(&mut t, us(5), us(30)); // due at 35, recorded: the latest
        let (acts, timers) = fire(&mut t, us(11), 1);
        assert!(!acts);
        assert_eq!(timers, vec![(us(35), us(5), 3)]);
        // The re-queued firing is the live deadline.
        let (acts, timers) = fire(&mut t, us(35), 3);
        assert!(acts);
        assert!(timers.is_empty());
    }

    #[test]
    fn a_superseded_firing_acts_on_nothing() {
        let mut t = RestartTimer::new();
        arm(&mut t, us(1), us(10)); // token 1 at 11
        arm(&mut t, us(2), us(5)); // token 2 at 7 replaces it
        assert_eq!(fire(&mut t, us(7), 2), (true, vec![]));
        assert_eq!(fire(&mut t, us(11), 1), (false, vec![]));
        // A token never issued, or one issued but never queued, is stale too.
        arm(&mut t, us(12), us(10)); // token 3 at 22, queued
        arm(&mut t, us(13), us(10)); // token 4 at 23, recorded
        assert_eq!(fire(&mut t, us(23), 4), (false, vec![]));
        assert_eq!(fire(&mut t, us(23), 99), (false, vec![]));
    }

    #[test]
    fn the_live_deadline_fires_exactly_once() {
        let mut t = RestartTimer::new();
        arm(&mut t, us(1), us(10));
        assert_eq!(fire(&mut t, us(11), 1), (true, vec![]));
        assert_eq!(fire(&mut t, us(11), 1), (false, vec![]));
        // Re-arming after it fired queues again, whatever the instant.
        assert_eq!(arm(&mut t, us(11), us(50)), vec![(us(61), us(11), 2)]);
    }

    /// One step of an arming schedule: `gap` µs after the previous arming, arm
    /// `delay` µs ahead; when `timers_first` is 0 the arming runs before timers due at
    /// the same instant.
    type Step = (u64, u64, u8);

    /// Drive an arming schedule through a tiny event loop ordered by
    /// `(at, created, token)`. Returns the firings that acted, in order, and how many
    /// timers were queued.
    fn drive(
        steps: &[Step],
        mut arm: impl FnMut(SimTime, SimTime) -> Vec<Firing>,
        mut fire: impl FnMut(SimTime, u64) -> (bool, Vec<Firing>),
    ) -> (Vec<Firing>, usize) {
        let mut heap: BinaryHeap<Reverse<Firing>> = BinaryHeap::new();
        let (mut acted, mut pushes) = (Vec::new(), 0);
        let mut push = |heap: &mut BinaryHeap<Reverse<Firing>>, timers: Vec<Firing>| {
            pushes += timers.len();
            heap.extend(timers.into_iter().map(Reverse));
        };
        let mut armed = SimTime::ZERO;
        let mut steps = steps.iter();
        let mut next = steps.next();
        loop {
            let due = heap.peek().map(|Reverse(f)| f.0);
            let arm_next = match (next, due) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(&(gap, _, timers_first)), Some(due)) => {
                    let t = armed + us(gap);
                    t < due || (t == due && timers_first == 0)
                }
            };
            if arm_next {
                let &(gap, delay, _) = next.expect("chosen above");
                armed += us(gap);
                let timers = arm(armed, us(delay));
                push(&mut heap, timers);
                next = steps.next();
            } else {
                let Reverse(firing) = heap.pop().expect("peeked");
                let (acts, timers) = fire(firing.0, firing.2);
                if acts {
                    acted.push(firing);
                }
                push(&mut heap, timers);
            }
        }
        (acted, pushes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against the model the helper replaces — every arming queues a timer, and
        /// a firing acts iff its token is the latest — the same firings act, with the
        /// same `(at, created, token)`, in the same order, from no more queued timers.
        #[test]
        fn matches_a_timer_per_arming(
            steps in prop::collection::vec((0u64..6, 0u64..40, 0u8..2), 1..48),
        ) {
            let latest = std::cell::Cell::new(0u64);
            let (model, model_pushes) = drive(
                &steps,
                |now, delay| {
                    latest.set(latest.get() + 1);
                    vec![(now + delay, now, latest.get())]
                },
                |_, token| (token == latest.get(), Vec::new()),
            );

            let timer = std::cell::RefCell::new(RestartTimer::new());
            let (helper, helper_pushes) = drive(
                &steps,
                |now, delay| arm(&mut timer.borrow_mut(), now, delay),
                |now, token| fire(&mut timer.borrow_mut(), now, token),
            );
            prop_assert_eq!(&helper, &model);
            prop_assert!(helper_pushes <= model_pushes, "{} > {}", helper_pushes, model_pushes);
        }
    }
}
