//! The executor core: what one [`Protocol`] callback *means*, on every
//! substrate.
//!
//! A [`Host`] owns one automaton and the per-node state every scheduler
//! needs — its send and timer counters, whether it halted, its first
//! output. [`Host::step`] is the only place in this crate that invokes a
//! hosted automaton: it builds the [`Context`], runs the callback for one
//! [`Input`], accounts the delivery and the sends in [`Metrics`], numbers
//! the staged effects and hands each to a [`Sink`]. The simulator, the
//! twin replay and the threaded worker are this core plus a schedule (which
//! input goes next) and a sink (where numbered effects go); what each keeps
//! for itself is only its policy for an input addressed to a halted node —
//! the core runs whatever it is given.
//!
//! Numbering is the coordinate system of the determinism twin: a node's
//! sends are indexed in staging order (a broadcast occupies `n` consecutive
//! indices, recipients ascending, self included), its timer arms likewise,
//! and a step's sends reach the sink before its timers. The simulator draws
//! one delay per non-self send in exactly that order, so the order is also
//! what keeps every pinned seed stable.

use swiper_core::EpochEvent;

use crate::metrics::Metrics;
use crate::sim::{Context, NodeId, Protocol};
use crate::transport::Envelope;
use crate::MessageSize;

/// One callback's worth of input to a hosted automaton.
pub(crate) enum Input<'a, M> {
    /// `on_start`.
    Start,
    /// `on_message(from, msg)`; counted as a delivery.
    Message { from: NodeId, msg: M },
    /// `on_timer(id)`.
    Timer { id: u64 },
    /// `on_reconfigure(event)`.
    Epoch(&'a EpochEvent),
}

/// Where a step's numbered effects go. Statically dispatched: this is the
/// hot loop of every run.
pub(crate) trait Sink<M> {
    /// One send, `env.send_ix` being its index among `env.from`'s sends and
    /// `env.sent_at` the tick of the step that staged it.
    fn send(&mut self, env: Envelope<M>);

    /// `node`'s `timer_ix`-th timer arm, firing `on_timer(id)` at tick
    /// `due` (always after the arming step's own tick).
    fn arm(&mut self, node: NodeId, timer_ix: u64, due: u64, id: u64);
}

/// One hosted automaton (`P` is `dyn Protocol`, with or without `Send`)
/// and its executor-side state.
pub(crate) struct Host<P: ?Sized> {
    pub(crate) id: NodeId,
    node: Box<P>,
    next_send_ix: u64,
    next_timer_ix: u64,
    /// Set by `ctx.halt()`; schedulers consult it before the next step.
    pub(crate) halted: bool,
    /// The protocol output; the first write wins across steps.
    pub(crate) output: Option<Vec<u8>>,
}

impl<P: Protocol + ?Sized> Host<P> {
    pub(crate) fn new(id: NodeId, node: Box<P>) -> Self {
        Host { id, node, next_send_ix: 0, next_timer_ix: 0, halted: false, output: None }
    }

    /// Runs one callback at tick `at` in an `n`-node population and flushes
    /// its effects — all of them, even when the callback halts.
    pub(crate) fn step<S: Sink<P::Msg>>(
        &mut self,
        n: usize,
        at: u64,
        input: Input<'_, P::Msg>,
        metrics: &mut Metrics,
        sink: &mut S,
    ) {
        let mut ctx = Context::detached(self.id, n, at);
        match input {
            Input::Start => self.node.on_start(&mut ctx),
            Input::Message { from, msg } => {
                metrics.record_delivery(self.id, msg.size_bytes());
                self.node.on_message(from, msg, &mut ctx);
            }
            Input::Timer { id } => self.node.on_timer(id, &mut ctx),
            Input::Epoch(event) => self.node.on_reconfigure(event, &mut ctx),
        }
        if self.output.is_none() {
            self.output = ctx.output;
        }
        self.halted |= ctx.halted;
        for delivery in ctx.outbox {
            delivery.expand(n, |to, msg| {
                metrics.record_send(self.id, msg.size_bytes());
                let env = Envelope {
                    from: self.id,
                    to,
                    send_ix: self.next_send_ix,
                    sent_at: at,
                    msg,
                };
                self.next_send_ix += 1;
                sink.send(env);
            });
        }
        for (delay, id) in ctx.timers {
            sink.arm(self.id, self.next_timer_ix, at + delay.max(1), id);
            self.next_timer_ix += 1;
        }
    }
}

/// Inserts `event` into an epoch schedule kept ascending by event count,
/// after any entry already scheduled at the same count.
pub(crate) fn schedule_epoch(
    schedule: &mut Vec<(u64, EpochEvent)>,
    at_event: u64,
    event: EpochEvent,
) {
    let pos = schedule.partition_point(|(at, _)| *at <= at_event);
    schedule.insert(pos, (at_event, event));
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 3;

    /// Every callback stages the same effects: a unicast, a broadcast, a
    /// second unicast, one zero-delay timer, two outputs — then halts.
    struct Script {
        outputs: [u8; 2],
    }

    impl Script {
        fn act(&mut self, ctx: &mut Context<u64>) {
            ctx.send(2, 10);
            ctx.broadcast(20);
            ctx.send(0, 30);
            ctx.set_timer(0, 7);
            ctx.output(vec![self.outputs[0]]);
            ctx.output(vec![self.outputs[1]]);
            ctx.halt();
        }
    }

    impl Protocol for Script {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            self.act(ctx);
        }
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<u64>) {
            assert_eq!((from, msg), (2, 99));
            self.act(ctx);
        }
        fn on_timer(&mut self, id: u64, ctx: &mut Context<u64>) {
            assert_eq!(id, 5);
            self.act(ctx);
        }
        fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<u64>) {
            assert_eq!(event.epoch(), 1);
            self.act(ctx);
        }
    }

    /// Records what the core hands a scheduler, in arrival order.
    #[derive(Default)]
    struct Seen {
        sends: Vec<(NodeId, NodeId, u64, u64, u64)>,
        arms: Vec<(NodeId, u64, u64, u64)>,
        sends_at_first_arm: usize,
    }

    impl Sink<u64> for Seen {
        fn send(&mut self, env: Envelope<u64>) {
            self.sends.push((env.from, env.to, env.send_ix, env.sent_at, env.msg));
        }
        fn arm(&mut self, node: NodeId, timer_ix: u64, due: u64, id: u64) {
            if self.arms.is_empty() {
                self.sends_at_first_arm = self.sends.len();
            }
            self.arms.push((node, timer_ix, due, id));
        }
    }

    /// The one statement of callback semantics the simulator, the twin
    /// replay and the threaded worker all inherit.
    #[test]
    fn step_numbers_flushes_and_accounts_every_kind_of_input() {
        use swiper_core::{TicketAssignment, TicketDelta, Weights};
        let tickets = TicketAssignment::new(vec![1; N]);
        let delta = TicketDelta::between(&tickets, &tickets).unwrap();
        let stake = Weights::new(vec![1; N]).unwrap();
        let epoch = EpochEvent::new(1, delta, &stake, stake.clone(), 0).unwrap();

        // (input, deliveries it must count); every row runs twice on one
        // host, at ticks 40 and 50.
        type Row<'a> = (fn(&'a EpochEvent) -> Input<'a, u64>, u64);
        let table: [Row<'_>; 4] = [
            (|_| Input::Start, 0),
            (|_| Input::Message { from: 2, msg: 99 }, 1),
            (|_| Input::Timer { id: 5 }, 0),
            (|e| Input::Epoch(e), 0),
        ];
        for (input, delivered) in table {
            let me = 1;
            let mut host: Host<dyn Protocol<Msg = u64>> =
                Host::new(me, Box::new(Script { outputs: [4, 9] }));
            let mut metrics = Metrics::new(N);
            let mut seen = Seen::default();
            host.step(N, 40, input(&epoch), &mut metrics, &mut seen);

            // (a) staging order; the broadcast takes N ascending indices,
            // self included.
            let expect = |base: u64, at: u64| {
                vec![
                    (me, 2, base, at, 10),
                    (me, 0, base + 1, at, 20),
                    (me, 1, base + 2, at, 20),
                    (me, 2, base + 3, at, 20),
                    (me, 0, base + 4, at, 30),
                ]
            };
            // (b) the halt did not swallow the callback's own effects, and
            // sends precede timer arms; a zero delay still fires later.
            assert_eq!(seen.sends, expect(0, 40));
            assert_eq!(seen.arms, vec![(me, 0, 41, 7)]);
            assert_eq!(seen.sends_at_first_arm, 5);
            assert!(host.halted);
            // (c) first output wins inside a callback…
            assert_eq!(host.output, Some(vec![4]));
            // (d) one delivery for a message, none otherwise; five sends.
            assert_eq!(metrics.delivered_messages(), delivered);
            assert_eq!((metrics.sent_by(me), metrics.total_bytes()), (5, 40));

            // Halting is the scheduler's policy, not the core's: a second
            // step runs, continues both counters, …and (c) the first
            // output still wins across callbacks.
            let mut seen = Seen::default();
            host.step(N, 50, input(&epoch), &mut metrics, &mut seen);
            assert_eq!(seen.sends, expect(5, 50));
            assert_eq!(seen.arms, vec![(me, 1, 51, 7)]);
            assert_eq!(host.output, Some(vec![4]));
            assert_eq!(metrics.delivered_messages(), 2 * delivered);
            assert_eq!(metrics.sent_by(me), 10);
        }
    }

    #[test]
    fn epoch_schedule_stays_sorted_and_stable() {
        use swiper_core::{TicketAssignment, TicketDelta, Weights};
        let tickets = TicketAssignment::new(vec![1]);
        let stake = Weights::new(vec![1]).unwrap();
        let event = |epoch| {
            let delta = TicketDelta::between(&tickets, &tickets).unwrap();
            EpochEvent::new(epoch, delta, &stake, stake.clone(), 0).unwrap()
        };
        let mut schedule = Vec::new();
        for (at, epoch) in [(5, 1), (2, 2), (5, 3), (9, 4), (2, 5)] {
            schedule_epoch(&mut schedule, at, event(epoch));
        }
        let order: Vec<_> = schedule.iter().map(|(at, e)| (*at, e.epoch())).collect();
        assert_eq!(order, vec![(2, 2), (2, 5), (5, 1), (5, 3), (9, 4)]);
    }
}
