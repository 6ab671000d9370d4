//! Generic Byzantine behaviours, composable with any [`Protocol`].
//!
//! The simulation models Byzantine parties as alternative node automata:
//! wrap an honest implementation (or replace it outright) to inject
//! silence, crashes or message corruption. Protocol crates add
//! protocol-specific attackers (equivocators, bad dealers) on top.
//!
//! The *zoo* members below are the schedule-shaping attackers the nightly
//! seed sweeps run against every protocol:
//!
//! * [`Silent`], [`CrashAfter`], [`Mangler`] — the classic trio;
//! * [`EquivocatingDealer`] — runs two inner automata and shows each half
//!   of the network a different one (conflicting AVID dispersals,
//!   conflicting broadcasts);
//! * [`SelectiveAck`] — runs the inner automaton honestly but lets its
//!   traffic reach only a chosen quorum, stalling everyone else;
//! * [`EpochShifter`] — honest until the first reconfiguration, then
//!   replays its old-epoch traffic so the same logical votes straddle the
//!   boundary under two numberings (the attack on cross-epoch identity);
//! * [`BoundaryEquivocator`] — honest *within* every epoch, but at the
//!   first [`EpochEvent`] boundary re-asserts mangled versions of its own
//!   pre-boundary statements (the attack on cross-epoch consistency
//!   checks: its two stories live in different epochs);
//! * [`AdaptiveDelay`] — not a node but a *delay model keyed on message
//!   type*, pinning chosen message classes to adversarial latencies.

use rand::rngs::StdRng;
use swiper_core::EpochEvent;

use crate::sim::{Context, DelayModel, NodeId, Protocol};
use crate::MessageSize;

/// A node that never sends anything — the simplest Byzantine behaviour
/// (and also a model of a crashed-from-start node).
#[derive(Debug, Default)]
pub struct Silent<M> {
    _marker: std::marker::PhantomData<M>,
}

impl<M> Silent<M> {
    /// Creates a silent node.
    pub fn new() -> Self {
        Silent { _marker: std::marker::PhantomData }
    }
}

impl<M: Clone + MessageSize> Protocol for Silent<M> {
    type Msg = M;

    fn on_start(&mut self, _ctx: &mut Context<M>) {}

    fn on_message(&mut self, _from: NodeId, _msg: M, _ctx: &mut Context<M>) {}
}

/// Runs the inner protocol honestly, then crashes (goes permanently silent)
/// after delivering `crash_after` messages.
pub struct CrashAfter<P> {
    inner: P,
    crash_after: usize,
    delivered: usize,
}

impl<P> CrashAfter<P> {
    /// Wraps `inner`, crashing after `crash_after` deliveries.
    pub fn new(inner: P, crash_after: usize) -> Self {
        CrashAfter { inner, crash_after, delivered: 0 }
    }
}

impl<P: Protocol> Protocol for CrashAfter<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg>) {
        if self.crash_after == 0 {
            ctx.halt();
        } else {
            self.inner.on_start(ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<Self::Msg>) {
        self.delivered += 1;
        if self.delivered >= self.crash_after {
            self.inner.on_message(from, msg, ctx);
            ctx.halt();
        } else {
            self.inner.on_message(from, msg, ctx);
        }
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<Self::Msg>) {
        self.inner.on_timer(id, ctx);
    }

    fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<Self::Msg>) {
        self.inner.on_reconfigure(event, ctx);
    }
}

/// Runs the inner protocol but rewrites every outgoing message through a
/// mangling function — a generic active-Byzantine wrapper.
pub struct Mangler<P, F> {
    inner: P,
    mangle: F,
}

impl<P, F> Mangler<P, F> {
    /// Wraps `inner`; `mangle(to, msg)` transforms (or, returning `None`,
    /// drops) each outgoing message.
    pub fn new(inner: P, mangle: F) -> Self {
        Mangler { inner, mangle }
    }
}

impl<P, F> Protocol for Mangler<P, F>
where
    P: Protocol,
    F: FnMut(NodeId, P::Msg) -> Option<P::Msg>,
{
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg>) {
        self.inner.on_start(ctx);
        self.rewrite(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<Self::Msg>) {
        self.inner.on_message(from, msg, ctx);
        self.rewrite(ctx);
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<Self::Msg>) {
        self.inner.on_timer(id, ctx);
        self.rewrite(ctx);
    }

    fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<Self::Msg>) {
        self.inner.on_reconfigure(event, ctx);
        self.rewrite(ctx);
    }
}

impl<P, F> Mangler<P, F>
where
    P: Protocol,
    F: FnMut(NodeId, P::Msg) -> Option<P::Msg>,
{
    fn rewrite(&mut self, ctx: &mut Context<P::Msg>) {
        for (to, msg) in ctx.take_staged_expanded(0) {
            if let Some(m) = (self.mangle)(to, msg) {
                ctx.send(to, m);
            }
        }
    }
}

/// An equivocating dealer: runs **two** inner automata over the same
/// protocol and partitions the network between them — recipients with
/// id below `split` see only automaton `a`'s traffic, the rest see only
/// `b`'s. Both inners receive every inbound message, so each keeps
/// playing its half of the protocol plausibly.
///
/// This is the generic shape of the classic AVID attack (two internally
/// consistent dispersals with different Merkle roots shown to different
/// halves during retrieval) and of equivocating broadcast senders. The
/// defense it probes: quorum intersection must be keyed on the *claim*
/// (root, digest), never on bare sender identity.
pub struct EquivocatingDealer<P: Protocol> {
    a: P,
    b: P,
    split: NodeId,
}

impl<P: Protocol> EquivocatingDealer<P> {
    /// Creates the attacker; recipients `< split` see `a`, the rest `b`.
    pub fn new(a: P, b: P, split: NodeId) -> Self {
        EquivocatingDealer { a, b, split }
    }

    /// Runs one inner phase: keeps only the sends its partition is
    /// allowed to see, tags freshly set timers with the inner's bit, and
    /// suppresses inner outputs and halts (the dealer never terminates
    /// its own mischief early).
    fn phase(
        ctx: &mut Context<P::Msg>,
        keep: impl Fn(NodeId) -> bool,
        tag: u64,
        run: impl FnOnce(&mut Context<P::Msg>),
    ) {
        let before_out = ctx.outbox.len();
        let before_timers = ctx.timers.len();
        run(ctx);
        for (to, msg) in ctx.take_staged_expanded(before_out) {
            if keep(to) {
                ctx.send(to, msg);
            }
        }
        for (_, id) in &mut ctx.timers[before_timers..] {
            *id = (*id << 1) | tag;
        }
        ctx.output = None;
        ctx.halted = false;
    }
}

impl<P: Protocol> Protocol for EquivocatingDealer<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg>) {
        let split = self.split;
        let a = &mut self.a;
        Self::phase(ctx, |to| to < split, 0, |c| a.on_start(c));
        let b = &mut self.b;
        Self::phase(ctx, |to| to >= split, 1, |c| b.on_start(c));
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<Self::Msg>) {
        let split = self.split;
        let a = &mut self.a;
        Self::phase(ctx, |to| to < split, 0, |c| a.on_message(from, msg.clone(), c));
        let b = &mut self.b;
        Self::phase(ctx, |to| to >= split, 1, |c| b.on_message(from, msg, c));
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<Self::Msg>) {
        // Timers carry the inner that set them in the low bit.
        let split = self.split;
        if id & 1 == 0 {
            let a = &mut self.a;
            Self::phase(ctx, |to| to < split, 0, |c| a.on_timer(id >> 1, c));
        } else {
            let b = &mut self.b;
            Self::phase(ctx, |to| to >= split, 1, |c| b.on_timer(id >> 1, c));
        }
    }
}

/// A quorum-splitter: runs the inner protocol honestly but lets its
/// outgoing traffic reach only the `allow`ed recipients — it acks (votes,
/// echoes, stores) toward a chosen quorum and starves everyone else.
///
/// The chosen quorum races ahead (completes, possibly halts) while the
/// stalled rest depend on the finishers' relay/late-duty paths — exactly
/// the schedules that expose halt-before-duty and missing-late-relay
/// bugs. Honest-majority protocols must stay live: the adversary only
/// *withholds* its own traffic, which the resilience budget already
/// tolerates.
pub struct SelectiveAck<P> {
    inner: P,
    allow: Vec<NodeId>,
}

impl<P> SelectiveAck<P> {
    /// Wraps `inner`; only recipients in `allow` ever hear from it.
    pub fn new(inner: P, allow: Vec<NodeId>) -> Self {
        SelectiveAck { inner, allow }
    }
}

impl<P: Protocol> SelectiveAck<P> {
    fn filter(&self, ctx: &mut Context<P::Msg>) {
        for (to, msg) in ctx.take_staged_expanded(0) {
            if self.allow.contains(&to) {
                ctx.send(to, msg);
            }
        }
    }
}

impl<P: Protocol> Protocol for SelectiveAck<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg>) {
        self.inner.on_start(ctx);
        self.filter(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<Self::Msg>) {
        self.inner.on_message(from, msg, ctx);
        self.filter(ctx);
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<Self::Msg>) {
        self.inner.on_timer(id, ctx);
        self.filter(ctx);
    }

    fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<Self::Msg>) {
        self.inner.on_reconfigure(event, ctx);
        self.filter(ctx);
    }
}

/// An epoch-crossing adversary: behaves honestly until the first
/// reconfiguration, then **replays every message it sent under the old
/// epoch's identities** — the natural attack on a translation layer. The
/// replayed wire bytes were minted when live participants held their
/// pre-epoch dense numbering, so straddling deliveries hand the receiver
/// the *same logical vote twice, once under each epoch's numbering*.
///
/// The defense under test is stable-identity resolution: wire formats
/// that name endpoints by `(party, offset)` resolve both copies to the
/// same logical voter, and stable-keyed quorum tallies dedupe them.
/// A dense-id design (per-epoch translation tables) translates the
/// pre-boundary copy under the old numbering and the post-boundary copy
/// under the new one — two distinct tally keys, double-counted weight.
///
/// Replay is *withholding-free*: the inner automaton runs honestly
/// throughout, so the adversary stays inside the resilience budget; its
/// only power is the duplicate schedule.
pub struct EpochShifter<P: Protocol> {
    inner: P,
    sent: Vec<(NodeId, P::Msg)>,
    shifted: bool,
}

impl<P: Protocol> EpochShifter<P> {
    /// Wraps `inner`; the replay fires at the first reconfiguration.
    pub fn new(inner: P) -> Self {
        EpochShifter { inner, sent: Vec::new(), shifted: false }
    }

    /// Records this phase's fresh sends (pre-boundary only — the replay
    /// payload is exactly the old epoch's traffic). Staged broadcasts are
    /// expanded so the replay re-sends the identical per-recipient wire
    /// traffic.
    fn record(&mut self, ctx: &mut Context<P::Msg>, from: usize) {
        let staged = ctx.take_staged_expanded(from);
        if !self.shifted {
            self.sent.extend(staged.iter().cloned());
        }
        for (to, msg) in staged {
            ctx.send(to, msg);
        }
    }
}

impl<P: Protocol> Protocol for EpochShifter<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg>) {
        let before = ctx.outbox.len();
        self.inner.on_start(ctx);
        self.record(ctx, before);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<Self::Msg>) {
        let before = ctx.outbox.len();
        self.inner.on_message(from, msg, ctx);
        self.record(ctx, before);
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<Self::Msg>) {
        let before = ctx.outbox.len();
        self.inner.on_timer(id, ctx);
        self.record(ctx, before);
    }

    fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<Self::Msg>) {
        self.inner.on_reconfigure(event, ctx);
        if !self.shifted {
            self.shifted = true;
            // Equivocate under the old epoch's identities: every message
            // minted pre-boundary goes out again, verbatim, into the new
            // epoch.
            let replay: Vec<_> = self.sent.drain(..).collect();
            for (to, msg) in replay {
                ctx.send(to, msg);
            }
        }
    }
}

/// An epoch-boundary equivocator: behaves honestly **within every
/// epoch**, but at the first [`EpochEvent`] it re-asserts mangled
/// versions of every message it sent under the old epoch — the same
/// identity telling two stories, one per epoch. Unlike [`EpochShifter`]
/// (whose replay is verbatim, probing identity *dedup*), the mangled
/// replay probes the receiver's **consistency checks**: payload/digest
/// binding, first-vote-wins maps, claim-keyed quorums. Within each epoch
/// the node is unimpeachable; only a cross-boundary comparison reveals
/// the contradiction.
///
/// `mangle(to, msg)` transforms (or, returning `None`, drops) each
/// recorded message at replay time — e.g. re-sending an `Echo(digest,
/// payload)` with the original digest but a forged payload.
pub struct BoundaryEquivocator<P: Protocol, F> {
    inner: P,
    sent: Vec<(NodeId, P::Msg)>,
    shifted: bool,
    mangle: F,
}

impl<P: Protocol, F> BoundaryEquivocator<P, F> {
    /// Wraps `inner`; the mangled replay fires at the first epoch event.
    pub fn new(inner: P, mangle: F) -> Self {
        BoundaryEquivocator { inner, sent: Vec::new(), shifted: false, mangle }
    }

    /// Records this phase's fresh sends (pre-boundary only — the replay
    /// payload is exactly the old epoch's traffic), expanded per
    /// recipient so the mangled replay targets the same wire audience.
    fn record(&mut self, ctx: &mut Context<P::Msg>, from: usize) {
        let staged = ctx.take_staged_expanded(from);
        if !self.shifted {
            self.sent.extend(staged.iter().cloned());
        }
        for (to, msg) in staged {
            ctx.send(to, msg);
        }
    }
}

impl<P, F> Protocol for BoundaryEquivocator<P, F>
where
    P: Protocol,
    F: FnMut(NodeId, P::Msg) -> Option<P::Msg>,
{
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg>) {
        let before = ctx.outbox.len();
        self.inner.on_start(ctx);
        self.record(ctx, before);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<Self::Msg>) {
        let before = ctx.outbox.len();
        self.inner.on_message(from, msg, ctx);
        self.record(ctx, before);
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<Self::Msg>) {
        let before = ctx.outbox.len();
        self.inner.on_timer(id, ctx);
        self.record(ctx, before);
    }

    fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<Self::Msg>) {
        self.inner.on_reconfigure(event, ctx);
        if !self.shifted {
            self.shifted = true;
            // Contradict the old epoch's statements in the new one: every
            // message minted pre-boundary goes out again, mangled.
            let replay: Vec<_> = self.sent.drain(..).collect();
            for (to, msg) in replay {
                if let Some(mangled) = (self.mangle)(to, msg) {
                    ctx.send(to, mangled);
                }
            }
        }
    }
}

/// An adversarial delay model **keyed on message type**: the first rule
/// whose predicate matches an outgoing message pins its delay; everything
/// else falls back to the base [`DelayModel`].
///
/// This models a network-level adversary that recognizes protocol phases
/// on the wire (dispersals vs acks, votes vs shares) and reorders them —
/// e.g. rushing share releases ahead of the votes that justify them. The
/// rules use plain function pointers so the model stays `Clone` and the
/// schedule stays fully deterministic for a given seed.
pub struct AdaptiveDelay<M> {
    base: DelayModel,
    rules: Vec<DelayRule<M>>,
}

/// One [`AdaptiveDelay`] rule: messages matching the predicate take
/// exactly the given number of ticks.
pub type DelayRule<M> = (fn(&M) -> bool, u64);

impl<M> AdaptiveDelay<M> {
    /// A model that behaves like `base` until rules are added.
    pub fn new(base: DelayModel) -> Self {
        AdaptiveDelay { base, rules: Vec::new() }
    }

    /// Adds a rule (builder style): messages matching `matches` take
    /// exactly `delay` ticks. Earlier rules win.
    pub fn rule(mut self, matches: fn(&M) -> bool, delay: u64) -> Self {
        self.rules.push((matches, delay));
        self
    }

    pub(crate) fn sample(&self, rng: &mut StdRng, from: NodeId, n: usize, msg: &M) -> u64 {
        for (matches, delay) in &self.rules {
            if matches(msg) {
                return *delay;
            }
        }
        self.base.sample(rng, from, n)
    }
}

impl<M> Clone for AdaptiveDelay<M> {
    fn clone(&self) -> Self {
        AdaptiveDelay { base: self.base, rules: self.rules.clone() }
    }
}

impl<M> std::fmt::Debug for AdaptiveDelay<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveDelay")
            .field("base", &self.base)
            .field("rules", &self.rules.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;

    /// Broadcasts 1; outputs the number of messages heard after hearing
    /// from a strict majority.
    struct Counter {
        heard: usize,
    }

    impl Protocol for Counter {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Context<u64>) {
            ctx.broadcast(1);
        }

        fn on_message(&mut self, _from: NodeId, _msg: u64, ctx: &mut Context<u64>) {
            self.heard += 1;
            if self.heard * 2 > ctx.n() {
                ctx.output(vec![self.heard as u8]);
            }
        }
    }

    #[test]
    fn silent_nodes_send_nothing() {
        let nodes: Vec<Box<dyn Protocol<Msg = u64>>> = vec![
            Box::new(Counter { heard: 0 }),
            Box::new(Counter { heard: 0 }),
            Box::new(Counter { heard: 0 }),
            Box::new(Silent::new()),
        ];
        let report = Simulation::new(nodes, 11).run();
        assert_eq!(report.metrics.sent_by(3), 0);
        // Honest nodes still reach majority (3 of 4 messages).
        for i in 0..3 {
            assert!(report.outputs[i].is_some());
        }
    }

    #[test]
    fn crash_after_limits_participation() {
        let nodes: Vec<Box<dyn Protocol<Msg = u64>>> = vec![
            Box::new(CrashAfter::new(Counter { heard: 0 }, 1)),
            Box::new(Counter { heard: 0 }),
            Box::new(Counter { heard: 0 }),
        ];
        let report = Simulation::new(nodes, 17).run();
        // The crashed node delivered at most 1 message; others complete.
        assert!(report.outputs[1].is_some());
        assert!(report.outputs[2].is_some());
    }

    #[test]
    fn crash_at_zero_is_fully_silent() {
        let nodes: Vec<Box<dyn Protocol<Msg = u64>>> = vec![
            Box::new(CrashAfter::new(Counter { heard: 0 }, 0)),
            Box::new(Counter { heard: 0 }),
            Box::new(Counter { heard: 0 }),
        ];
        let report = Simulation::new(nodes, 17).run();
        assert_eq!(report.metrics.sent_by(0), 0);
    }

    #[test]
    fn mangler_corrupts_payloads() {
        // Node 0 lies: doubles every payload it sends.
        let nodes: Vec<Box<dyn Protocol<Msg = u64>>> = vec![
            Box::new(Mangler::new(Counter { heard: 0 }, |_to, m: u64| Some(m * 2))),
            Box::new(Counter { heard: 0 }),
            Box::new(Counter { heard: 0 }),
        ];
        let report = Simulation::new(nodes, 23).run();
        // Counter ignores payload values, so all still complete; the point
        // is that mangling does not break the harness.
        assert!(report.outputs.iter().all(|o| o.is_some()));
    }

    #[test]
    fn mangler_can_drop_messages() {
        // Node 0 drops everything it would send.
        let nodes: Vec<Box<dyn Protocol<Msg = u64>>> = vec![
            Box::new(Mangler::new(Counter { heard: 0 }, |_to, _m: u64| None)),
            Box::new(Counter { heard: 0 }),
            Box::new(Counter { heard: 0 }),
        ];
        let report = Simulation::new(nodes, 29).run();
        assert_eq!(report.metrics.sent_by(0), 0);
    }
}
