//! The event-driven simulation core.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swiper_core::EpochEvent;

use crate::adversary::AdaptiveDelay;
use crate::exec::{schedule_epoch, Host, Input, Sink};
use crate::metrics::Metrics;
use crate::transport::{Delivery, Envelope};
use crate::MessageSize;

/// Index of a node in the simulation (`0..n`).
pub type NodeId = usize;

/// Side-effect collector handed to protocol callbacks.
#[derive(Debug)]
pub struct Context<M> {
    node: NodeId,
    n: usize,
    now: u64,
    pub(crate) outbox: Vec<Delivery<M>>,
    pub(crate) timers: Vec<(u64, u64)>,
    pub(crate) output: Option<Vec<u8>>,
    pub(crate) halted: bool,
}

/// Side effects drained from a detached context (used by protocol wrappers
/// that host nested automata, e.g. the black-box transformation's virtual
/// users).
#[derive(Debug)]
pub struct Effects<M> {
    /// Messages to send: `(to, msg)`.
    pub outbox: Vec<(NodeId, M)>,
    /// Timers to set: `(delay, id)`.
    pub timers: Vec<(u64, u64)>,
    /// Protocol output, if produced.
    pub output: Option<Vec<u8>>,
    /// Whether the node halted.
    pub halted: bool,
}

impl<M> Context<M> {
    /// Creates a context not owned by an executor — for wrappers that run
    /// inner automata (black-box virtual users) and route the effects
    /// themselves.
    pub fn detached(node: NodeId, n: usize, now: u64) -> Self {
        Context {
            node,
            n,
            now,
            outbox: Vec::new(),
            timers: Vec::new(),
            output: None,
            halted: false,
        }
    }

    /// Consumes the context, returning its accumulated side effects.
    /// Broadcasts are expanded into per-recipient sends here: a wrapper
    /// hosting nested automata routes each `(to, msg)` pair itself
    /// (typically re-addressing it), so the symbolic form has no consumer
    /// past this point.
    pub fn into_effects(self) -> Effects<M>
    where
        M: Clone,
    {
        let mut outbox = Vec::with_capacity(self.outbox.len());
        for d in self.outbox {
            d.expand_into(self.n, &mut outbox);
        }
        Effects { outbox, timers: self.timers, output: self.output, halted: self.halted }
    }

    /// Drains the staged sends from index `from` on, expanded into
    /// `(to, msg)` pairs (broadcasts become `n` ascending unicasts).
    /// Adversary wrappers use this to filter, record or rewrite a phase's
    /// traffic per recipient before re-staging it.
    pub(crate) fn take_staged_expanded(&mut self, from: usize) -> Vec<(NodeId, M)>
    where
        M: Clone,
    {
        let mut out = Vec::new();
        for d in self.outbox.drain(from..) {
            d.expand_into(self.n, &mut out);
        }
        out
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Sends `msg` to `to` (including to self).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push(Delivery::Unicast(to, msg));
    }

    /// Sends `msg` to every node, including the sender itself (the usual
    /// convention in the BFT literature).
    ///
    /// The broadcast is staged as a single symbolic [`Delivery::Broadcast`]
    /// effect, not `n` eager clones: the executor expands it when the
    /// callback returns (with last-send-moves, so a large AVID/ECBC payload
    /// is cloned `n - 1` times at most), and the gossip overlay
    /// disseminates it without materializing the fan-out.
    pub fn broadcast(&mut self, msg: M) {
        self.outbox.push(Delivery::Broadcast(msg));
    }

    /// Schedules `on_timer(id)` after `delay` ticks.
    pub fn set_timer(&mut self, delay: u64, id: u64) {
        self.timers.push((delay, id));
    }

    /// Records this node's protocol output (first write wins).
    pub fn output(&mut self, out: Vec<u8>) {
        if self.output.is_none() {
            self.output = Some(out);
        }
    }

    /// Stops delivering events to this node (graceful local termination).
    pub fn halt(&mut self) {
        self.halted = true;
    }
}

/// A node automaton. Object-safe: simulations mix honest and Byzantine
/// implementations freely.
pub trait Protocol {
    /// The message type exchanged by this protocol family.
    type Msg: Clone + MessageSize;

    /// Invoked once at time zero.
    fn on_start(&mut self, ctx: &mut Context<Self::Msg>);

    /// Invoked on every delivered message.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<Self::Msg>);

    /// Invoked when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _id: u64, _ctx: &mut Context<Self::Msg>) {}

    /// Invoked when an epoch reconfiguration reaches this node (see
    /// [`Simulation::with_reconfiguration`]): the common-knowledge [`EpochEvent`] carries
    /// the epoch's `TicketDelta` **and the new per-party weight vector**
    /// (plus a deterministic rekey seed), and the node should splice the
    /// change into its live state instead of tearing the instance down.
    /// Weights are the live input of a weighted protocol — an event that
    /// renumbered identities but froze stake would be only half a
    /// reconfiguration, so the ticket-only `on_reconfigure(&TicketDelta)`
    /// contract is retired.
    ///
    /// The identity half of the contract is written in terms of **stable
    /// identities** (`swiper_core::StableId`, the `(party, offset)`
    /// coordinate of a virtual user): dense per-epoch indices renumber
    /// whenever a delta touches an earlier party, so nothing a node keeps
    /// across this call — and nothing it ever puts on the wire — may be
    /// keyed by dense index. For implementors:
    ///
    /// * **Keep** all state attached to *surviving* stable identities
    ///   (offsets below their party's new ticket count): sub-instances,
    ///   committed outputs, and accumulated quorum progress. Stable keys
    ///   make survival automatic — there is nothing to re-key.
    /// * **Shed** state attached to *retired* identities: drop their
    ///   sub-instances and pending timers, and drop their votes from
    ///   every quorum tally so their weight is released rather than
    ///   frozen in.
    ///   Re-derive anything computed from the old ticket *totals*
    ///   (thresholds, populations) from the new assignment.
    /// * **Reweigh** weighted tallies under `event.weights()` — partial
    ///   quorums keep their votes but re-derive per-party weights and
    ///   thresholds from the new stake, so a pending tally can *lose*
    ///   ground (a whale's collapse revokes an almost-complete quorum)
    ///   and stale stake can never cross a current-epoch threshold.
    ///   `swiper-protocols`' `QuorumSet::on_epoch` refreshes its
    ///   electorate once and re-tallies every key an automaton keeps,
    ///   shedding retired voters first in the roster regime.
    /// * **Fire boundary-crossed transitions locally; re-broadcast only
    ///   to joiners.** A re-tally can also *complete* a
    ///   pending quorum, and honest peers vote exactly once, so no later
    ///   vote would re-run its check: `QuorumSet::on_epoch` returns the
    ///   quorums the boundary completed, and the node runs each through
    ///   the transition its vote path calls. Peers already hold every
    ///   vote the node cast — except identities the boundary spawned
    ///   (`IdentityView::joiners`), the only ones to send them to again.
    /// * **Re-deal or carry** epoch-pinned cryptographic material: when
    ///   the assignment backing dealt keys moved, re-derive them
    ///   deterministically from `event.rekey_seed()` and the new
    ///   assignment's fingerprint (every replica deals identically); when
    ///   it did not move, carry them — mirroring the SMR composition's
    ///   beacon carry/re-deal split.
    /// * **Spawn** newly added identities mid-flight; they start from
    ///   `on_start` and may rely on vouching/relay paths to catch up.
    /// * Hosts that run nested automata (the black-box wrapper) must
    ///   **propagate** this call to each surviving automaton so it can
    ///   re-tally its own quorums.
    ///
    /// Under this contract gain-only, shrinking/renumbering *and
    /// stake-drifting* epochs are safe and live — the epoch-crossing seed
    /// sweeps pin all three without carve-outs.
    ///
    /// The default implementation ignores the event, which is correct for
    /// protocols whose configuration embeds neither the assignment nor
    /// the stake.
    fn on_reconfigure(&mut self, _event: &EpochEvent, _ctx: &mut Context<Self::Msg>) {}
}

/// Message delay distribution (the asynchronous adversary's schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayModel {
    /// Every message takes exactly this many ticks.
    Fixed(u64),
    /// Uniform in `[lo, hi]`, drawn from the seeded RNG.
    Uniform(u64, u64),
    /// Uniform in `[lo, hi]`, but messages *from* low ids are maximally
    /// delayed — a crude adversarial schedule that stresses quorum logic.
    BiasAgainstLowIds(u64, u64),
}

impl DelayModel {
    pub(crate) fn sample(&self, rng: &mut StdRng, from: NodeId, n: usize) -> u64 {
        match *self {
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform(lo, hi) => rng.random_range(lo..=hi),
            DelayModel::BiasAgainstLowIds(lo, hi) => {
                if from < n / 3 {
                    hi
                } else {
                    rng.random_range(lo..=hi)
                }
            }
        }
    }
}

/// One queued callback: `input` is only ever `Message` or `Timer` —
/// starts and epoch boundaries are the run loop's own.
struct Event<M> {
    time: u64,
    seq: u64,
    to: NodeId,
    input: Input<'static, M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-node protocol outputs (None when a node never output).
    pub outputs: Vec<Option<Vec<u8>>>,
    /// Simulated time at quiescence.
    pub elapsed: u64,
    /// Events processed.
    pub events: u64,
    /// Reconfigurations injected (see [`Simulation::with_reconfiguration`]).
    pub reconfigurations: u64,
    /// Communication counters.
    pub metrics: Metrics,
}

impl RunReport {
    /// Outputs of the given nodes, when all of them produced one.
    pub fn outputs_of(&self, nodes: &[NodeId]) -> Option<Vec<&[u8]>> {
        nodes.iter().map(|&i| self.outputs[i].as_deref()).collect()
    }

    /// Whether no two nodes in `nodes` produced *different* outputs — the
    /// safety half of agreement. Nodes that never output are **ignored**,
    /// not treated as disagreeing: a halted-without-output node has made
    /// no claim to disagree with, and epoch-crossing runs legitimately end
    /// with some nodes (spawned mid-flight, or retired by a delta) never
    /// producing one. Vacuously `true` when nothing was output. Liveness
    /// is a separate assertion — use [`RunReport::unanimity_among`] when
    /// every listed node must both produce and agree.
    pub fn agreement_among(&self, nodes: &[NodeId]) -> bool {
        let mut it = nodes.iter().filter_map(|&i| self.outputs[i].as_ref());
        match it.next() {
            None => true,
            Some(first) => it.all(|o| o == first),
        }
    }

    /// Whether every node in `nodes` produced an output *and* all outputs
    /// are identical — agreement plus liveness in one check.
    pub fn unanimity_among(&self, nodes: &[NodeId]) -> bool {
        nodes.iter().all(|&i| self.outputs[i].is_some()) && self.agreement_among(nodes)
    }
}

/// A deterministic discrete-event simulation over boxed node automata.
///
/// # Examples
///
/// ```
/// use swiper_net::{Context, DelayModel, NodeId, Protocol, Simulation};
///
/// /// Every node broadcasts "hi" and outputs after hearing from everyone.
/// struct Hello { heard: usize }
/// impl Protocol for Hello {
///     type Msg = u64;
///     fn on_start(&mut self, ctx: &mut Context<u64>) {
///         ctx.broadcast(7);
///     }
///     fn on_message(&mut self, _from: NodeId, _msg: u64, ctx: &mut Context<u64>) {
///         self.heard += 1;
///         if self.heard == ctx.n() {
///             ctx.output(b"done".to_vec());
///         }
///     }
/// }
///
/// let nodes: Vec<Box<dyn Protocol<Msg = u64>>> =
///     (0..4).map(|_| Box::new(Hello { heard: 0 }) as Box<dyn Protocol<Msg = u64>>).collect();
/// let report = Simulation::new(nodes, 42).run();
/// assert!(report.outputs.iter().all(|o| o.as_deref() == Some(b"done".as_ref())));
/// ```
pub struct Simulation<M> {
    hosts: Vec<Host<dyn Protocol<Msg = M>>>,
    wire: Wire<M>,
    /// Epoch reconfigurations, ascending by event count.
    reconfigs: Vec<(u64, EpochEvent)>,
    max_events: u64,
}

/// The simulator's side of the executor core: every send and timer arm
/// becomes a queued event, sends delayed by the seeded model — one sample
/// per non-self send, in the order the core numbers them, which is what
/// keeps a seed's delay stream (and every pinned-seed test) stable.
struct Wire<M> {
    n: usize,
    queue: BinaryHeap<Reverse<Event<M>>>,
    rng: StdRng,
    delay: DelayModel,
    adaptive: Option<AdaptiveDelay<M>>,
    seq: u64,
}

impl<M> Wire<M> {
    fn push(&mut self, time: u64, to: NodeId, input: Input<'static, M>) {
        self.seq += 1;
        self.queue.push(Reverse(Event { time, seq: self.seq, to, input }));
    }
}

impl<M> Sink<M> for Wire<M> {
    fn send(&mut self, env: Envelope<M>) {
        let Envelope { from, to, sent_at, msg, .. } = env;
        let delay = if to == from {
            0
        } else if let Some(adaptive) = &self.adaptive {
            adaptive.sample(&mut self.rng, from, self.n, &msg)
        } else {
            self.delay.sample(&mut self.rng, from, self.n)
        };
        self.push(sent_at + delay, to, Input::Message { from, msg });
    }

    fn arm(&mut self, node: NodeId, _timer_ix: u64, due: u64, id: u64) {
        self.push(due, node, Input::Timer { id });
    }
}

impl<M: Clone + MessageSize> Simulation<M> {
    /// Creates a simulation over the given node automata with a seed that
    /// fully determines the run.
    pub fn new(nodes: Vec<Box<dyn Protocol<Msg = M>>>, seed: u64) -> Self {
        let hosts: Vec<_> =
            nodes.into_iter().enumerate().map(|(id, node)| Host::new(id, node)).collect();
        Simulation {
            wire: Wire {
                n: hosts.len(),
                queue: BinaryHeap::new(),
                rng: StdRng::seed_from_u64(seed),
                delay: DelayModel::Uniform(1, 16),
                adaptive: None,
                seq: 0,
            },
            hosts,
            reconfigs: Vec::new(),
            max_events: 2_000_000,
        }
    }

    /// Sets the delay model (builder style).
    pub fn with_delay(mut self, delay: DelayModel) -> Self {
        self.wire.delay = delay;
        self
    }

    /// Caps the number of processed events (runaway guard).
    pub fn with_max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Installs an adversarial per-message-type delay model
    /// ([`AdaptiveDelay`]); it overrides the plain [`DelayModel`] for
    /// every non-self message.
    pub fn with_adaptive_delay(mut self, adaptive: AdaptiveDelay<M>) -> Self {
        self.wire.adaptive = Some(adaptive);
        self
    }

    /// Schedules an epoch reconfiguration: once `at_event` events have
    /// been processed, every non-halted node receives
    /// [`Protocol::on_reconfigure`] with `event` *between* two deliveries,
    /// modelling the common-knowledge moment at which all replicas learn
    /// the new epoch's ticket assignment *and stake distribution*. Messages
    /// already in flight were sent under the old assignment and are still
    /// delivered afterwards — protocols that embed virtual-user ids in
    /// their messages must translate across the boundary (see
    /// `swiper-protocols`' black-box wrapper for the reference
    /// implementation).
    ///
    /// Multiple reconfigurations compose in event order; each delta must be
    /// diffed against the assignment the previous one produced (and each
    /// event's weights follow its predecessor's). Shrinking and renumbering
    /// deltas and stake-drifting weight vectors are first-class.
    ///
    /// # Examples
    ///
    /// ```
    /// use swiper_core::{EpochEvent, TicketAssignment, TicketDelta, Weights};
    /// use swiper_net::{Context, NodeId, Protocol, Simulation};
    ///
    /// /// Counts reconfigurations; outputs the count at quiescence.
    /// struct EpochCounter { seen: u8 }
    /// impl Protocol for EpochCounter {
    ///     type Msg = u64;
    ///     fn on_start(&mut self, ctx: &mut Context<u64>) {
    ///         ctx.broadcast(1);
    ///     }
    ///     fn on_message(&mut self, _f: NodeId, _m: u64, ctx: &mut Context<u64>) {
    ///         ctx.output(vec![self.seen]);
    ///     }
    ///     fn on_reconfigure(&mut self, _e: &EpochEvent, _ctx: &mut Context<u64>) {
    ///         self.seen += 1;
    ///     }
    /// }
    ///
    /// let old = TicketAssignment::new(vec![1, 1]);
    /// let new = TicketAssignment::new(vec![2, 1]);
    /// let delta = TicketDelta::between(&old, &new).unwrap();
    /// let stake = Weights::new(vec![6, 4]).unwrap();
    /// let event = EpochEvent::new(1, delta, &stake, stake.clone(), 0).unwrap();
    /// let nodes: Vec<Box<dyn Protocol<Msg = u64>>> =
    ///     (0..2).map(|_| Box::new(EpochCounter { seen: 0 }) as _).collect();
    /// let report = Simulation::new(nodes, 7).with_reconfiguration(1, event).run();
    /// assert_eq!(report.reconfigurations, 1);
    /// ```
    pub fn with_reconfiguration(mut self, at_event: u64, event: EpochEvent) -> Self {
        schedule_epoch(&mut self.reconfigs, at_event, event);
        self
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.hosts.len()
    }

    /// Runs to quiescence (or the event cap) and reports.
    pub fn run(self) -> RunReport {
        let Simulation { mut hosts, mut wire, reconfigs, max_events } = self;
        let n = hosts.len();
        let mut metrics = Metrics::new(n);
        for host in &mut hosts {
            host.step(n, 0, Input::Start, &mut metrics, &mut wire);
        }
        let mut reconfigs = reconfigs.into_iter().peekable();
        let (mut time, mut events, mut reconfigurations) = (0u64, 0u64, 0u64);
        while let Some(Reverse(ev)) = wire.queue.pop() {
            if events >= max_events {
                break;
            }
            // The boundary shares the upcoming delivery's timestamp:
            // advancing the clock *before* applying reconfigurations
            // keeps simulated time monotone — effects emitted from
            // `on_reconfigure` are stamped at `ev.time + delay`, never
            // before an event that already popped.
            time = ev.time;
            // Epoch boundaries: apply every reconfiguration scheduled at
            // or before the current event count, in order, before the
            // next delivery. In-flight messages sent under the old
            // assignment stay queued and are delivered afterwards —
            // surviving protocol state must cope (the `on_reconfigure`
            // contract).
            while let Some((_, event)) = reconfigs.next_if(|(at, _)| *at <= events) {
                reconfigurations += 1;
                for host in hosts.iter_mut().filter(|h| !h.halted) {
                    host.step(n, time, Input::Epoch(&event), &mut metrics, &mut wire);
                }
            }
            // An event for a halted node counts but runs nothing.
            events += 1;
            let host = &mut hosts[ev.to];
            if !host.halted {
                host.step(n, time, ev.input, &mut metrics, &mut wire);
            }
        }
        RunReport {
            outputs: hosts.into_iter().map(|h| h.output).collect(),
            elapsed: time,
            events,
            reconfigurations,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each node broadcasts its id once; outputs the sum of ids received.
    struct Summer {
        sum: u64,
        heard: usize,
    }

    impl Protocol for Summer {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Context<u64>) {
            ctx.broadcast(ctx.me() as u64);
        }

        fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Context<u64>) {
            self.sum += msg;
            self.heard += 1;
            if self.heard == ctx.n() {
                ctx.output(self.sum.to_le_bytes().to_vec());
            }
        }
    }

    fn summers(n: usize) -> Vec<Box<dyn Protocol<Msg = u64>>> {
        (0..n)
            .map(|_| Box::new(Summer { sum: 0, heard: 0 }) as Box<dyn Protocol<Msg = u64>>)
            .collect()
    }

    #[test]
    fn all_messages_delivered() {
        let report = Simulation::new(summers(5), 1).run();
        let expect = (0u64..5).sum::<u64>().to_le_bytes().to_vec();
        for out in &report.outputs {
            assert_eq!(out.as_ref().unwrap(), &expect);
        }
        // 5 broadcasts of 5 messages each.
        assert_eq!(report.metrics.total_messages(), 25);
        assert_eq!(report.metrics.total_bytes(), 25 * 8);
    }

    #[test]
    fn same_seed_same_run() {
        let a = Simulation::new(summers(7), 99).run();
        let b = Simulation::new(summers(7), 99).run();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn different_delay_models_still_deliver() {
        for delay in [
            DelayModel::Fixed(3),
            DelayModel::Uniform(1, 50),
            DelayModel::BiasAgainstLowIds(1, 40),
        ] {
            let report = Simulation::new(summers(6), 5).with_delay(delay).run();
            assert!(report.outputs.iter().all(|o| o.is_some()), "{delay:?}");
        }
    }

    #[test]
    fn event_cap_stops_runaway() {
        /// A node that replies to every message, forever.
        struct Chatter;
        impl Protocol for Chatter {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.broadcast(0);
            }
            fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<u64>) {
                ctx.send(from, msg + 1);
            }
        }
        let nodes: Vec<Box<dyn Protocol<Msg = u64>>> =
            (0..3).map(|_| Box::new(Chatter) as _).collect();
        let report = Simulation::new(nodes, 1).with_max_events(1000).run();
        assert_eq!(report.events, 1000);
    }

    #[test]
    fn halted_nodes_receive_nothing() {
        /// Halts immediately; counts messages seen.
        struct Quitter {
            seen: std::rc::Rc<std::cell::Cell<usize>>,
        }
        impl Protocol for Quitter {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.halt();
            }
            fn on_message(&mut self, _f: NodeId, _m: u64, _ctx: &mut Context<u64>) {
                self.seen.set(self.seen.get() + 1);
            }
        }
        let seen = std::rc::Rc::new(std::cell::Cell::new(0));
        let nodes: Vec<Box<dyn Protocol<Msg = u64>>> = vec![
            Box::new(Quitter { seen: seen.clone() }),
            Box::new(Summer { sum: 0, heard: 0 }),
        ];
        let _ = Simulation::new(nodes, 3).run();
        assert_eq!(seen.get(), 0);
    }

    #[test]
    fn timers_fire() {
        struct TimerNode;
        impl Protocol for TimerNode {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.set_timer(10, 42);
            }
            fn on_message(&mut self, _f: NodeId, _m: u64, _c: &mut Context<u64>) {}
            fn on_timer(&mut self, id: u64, ctx: &mut Context<u64>) {
                ctx.output(id.to_le_bytes().to_vec());
            }
        }
        let nodes: Vec<Box<dyn Protocol<Msg = u64>>> = vec![Box::new(TimerNode)];
        let report = Simulation::new(nodes, 1).run();
        assert_eq!(report.outputs[0].as_ref().unwrap(), &42u64.to_le_bytes().to_vec());
        assert_eq!(report.elapsed, 10);
    }

    #[test]
    fn self_messages_are_instant() {
        struct SelfSend;
        impl Protocol for SelfSend {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                let me = ctx.me();
                ctx.send(me, 1);
            }
            fn on_message(&mut self, from: NodeId, _m: u64, ctx: &mut Context<u64>) {
                assert_eq!(from, ctx.me());
                ctx.output(vec![1]);
            }
        }
        let nodes: Vec<Box<dyn Protocol<Msg = u64>>> = vec![Box::new(SelfSend)];
        let report = Simulation::new(nodes, 1).run();
        assert_eq!(report.elapsed, 0, "self delivery takes zero time");
        assert!(report.outputs[0].is_some());
    }

    #[test]
    fn agreement_helper() {
        let report = Simulation::new(summers(4), 2).run();
        assert!(report.agreement_among(&[0, 1, 2, 3]));
        assert!(report.unanimity_among(&[0, 1, 2, 3]));
        assert!(report.outputs_of(&[0, 1]).is_some());
    }

    /// Pins `agreement_among`'s intended semantics: silent (halted- or
    /// crashed-without-output) nodes are *ignored*, never counted as
    /// disagreeing — epoch-crossing runs legitimately produce late or
    /// absent outputs. `unanimity_among` is the strict form that also
    /// demands liveness.
    #[test]
    fn agreement_ignores_silent_nodes_unanimity_does_not() {
        let base = RunReport {
            outputs: vec![Some(vec![7]), None, Some(vec![7]), None],
            elapsed: 0,
            events: 0,
            reconfigurations: 0,
            metrics: Metrics::new(4),
        };
        // Two agreeing outputs + two silent nodes: agreement holds.
        assert!(base.agreement_among(&[0, 1, 2, 3]));
        // ...but unanimity (agreement + liveness) does not.
        assert!(!base.unanimity_among(&[0, 1, 2, 3]));
        // All-silent subsets agree vacuously.
        assert!(base.agreement_among(&[1, 3]));
        assert!(!base.unanimity_among(&[1, 3]));
        assert!(base.unanimity_among(&[0, 2]));
        // An actual conflict is disagreement in both forms.
        let mut split = base.clone();
        split.outputs[1] = Some(vec![9]);
        assert!(!split.agreement_among(&[0, 1, 2, 3]));
        assert!(!split.unanimity_among(&[0, 1, 2, 3]));
    }

    /// Unit-weight event over `n` parties for plumbing tests that do not
    /// exercise stake refresh.
    fn unit_event(old: &[u64], new: &[u64]) -> EpochEvent {
        use swiper_core::{TicketAssignment, TicketDelta, Weights};
        let delta = TicketDelta::between(
            &TicketAssignment::new(old.to_vec()),
            &TicketAssignment::new(new.to_vec()),
        )
        .unwrap();
        let stake = Weights::new(vec![1; old.len()]).unwrap();
        EpochEvent::new(1, delta, &stake, stake.clone(), 0).unwrap()
    }

    #[test]
    fn reconfigurations_fire_between_deliveries() {
        /// Outputs how many reconfigurations it saw, once a message
        /// arrives after the epoch boundary.
        struct EpochAware {
            seen: u8,
        }
        impl Protocol for EpochAware {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.broadcast(0);
            }
            fn on_message(&mut self, _f: NodeId, _m: u64, ctx: &mut Context<u64>) {
                if self.seen > 0 {
                    ctx.output(vec![self.seen]);
                }
            }
            fn on_reconfigure(&mut self, _e: &EpochEvent, ctx: &mut Context<u64>) {
                self.seen += 1;
                ctx.broadcast(1);
            }
        }

        let event = unit_event(&[1, 1, 1], &[2, 1, 1]);
        let nodes: Vec<Box<dyn Protocol<Msg = u64>>> =
            (0..3).map(|_| Box::new(EpochAware { seen: 0 }) as _).collect();
        let report = Simulation::new(nodes, 5).with_reconfiguration(2, event).run();
        assert_eq!(report.reconfigurations, 1);
        for out in &report.outputs {
            assert_eq!(out.as_deref(), Some(&[1u8][..]));
        }
    }

    #[test]
    fn time_is_monotone_across_reconfiguration() {
        /// Arms a far-future timer, then records `now()` at every
        /// callback; the reconfiguration fires while that gap is open.
        struct Clock {
            stamps: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
        }
        impl Protocol for Clock {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.set_timer(50, 1);
            }
            fn on_message(&mut self, _f: NodeId, _m: u64, ctx: &mut Context<u64>) {
                self.stamps.borrow_mut().push(ctx.now());
            }
            fn on_timer(&mut self, _id: u64, ctx: &mut Context<u64>) {
                self.stamps.borrow_mut().push(ctx.now());
            }
            fn on_reconfigure(&mut self, _e: &EpochEvent, ctx: &mut Context<u64>) {
                self.stamps.borrow_mut().push(ctx.now());
                let me = ctx.me();
                ctx.send(me, 7);
            }
        }

        let event = unit_event(&[1], &[1]);
        let stamps = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let nodes: Vec<Box<dyn Protocol<Msg = u64>>> =
            vec![Box::new(Clock { stamps: stamps.clone() })];
        // The boundary lands in the 0..50 gap before the timer delivery;
        // it must share the upcoming event's timestamp, not the previous
        // one's, or effects it emits travel back in time.
        let report = Simulation::new(nodes, 2).with_reconfiguration(0, event).run();
        assert_eq!(report.reconfigurations, 1);
        let stamps = stamps.borrow();
        assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]),
            "simulated time regressed across the epoch boundary: {stamps:?}"
        );
        assert_eq!(stamps.len(), 3, "reconfigure + timer + self-message all observed");
    }

    #[test]
    fn reconfigurations_compose_epoch_chains_in_order() {
        /// Counts reconfigurations; keeps traffic alive long enough for
        /// the whole schedule to fire.
        struct EpochCounter {
            seen: u8,
            bounced: u32,
        }
        impl Protocol for EpochCounter {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.broadcast(0);
            }
            fn on_message(&mut self, _f: NodeId, _m: u64, ctx: &mut Context<u64>) {
                if self.bounced < 20 {
                    self.bounced += 1;
                    ctx.broadcast(0);
                }
            }
            fn on_reconfigure(&mut self, _e: &EpochEvent, ctx: &mut Context<u64>) {
                self.seen += 1;
                ctx.output(vec![self.seen]);
            }
        }

        // A mixed chain: grow, then shrink-and-renumber, then grow again —
        // each delta diffed against its predecessor.
        let schedule = vec![
            (2, unit_event(&[2, 1], &[3, 1])),
            (5, unit_event(&[3, 1], &[1, 2])),
            (9, unit_event(&[1, 2], &[2, 2])),
        ];
        let nodes: Vec<Box<dyn Protocol<Msg = u64>>> =
            (0..2).map(|_| Box::new(EpochCounter { seen: 0, bounced: 0 }) as _).collect();
        let report = schedule
            .into_iter()
            .fold(Simulation::new(nodes, 3), |sim, (at, event)| {
                sim.with_reconfiguration(at, event)
            })
            .run();
        assert_eq!(report.reconfigurations, 3);
    }

    #[test]
    fn reconfiguration_past_quiescence_never_fires() {
        let event = unit_event(&[1, 1], &[1, 1]);
        let report =
            Simulation::new(summers(2), 1).with_reconfiguration(1_000_000, event).run();
        assert_eq!(report.reconfigurations, 0);
        assert!(report.outputs.iter().all(|o| o.is_some()));
    }
}
