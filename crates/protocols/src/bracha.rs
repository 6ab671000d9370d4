//! Bracha asynchronous reliable broadcast, nominal and weighted.
//!
//! The classic three-phase protocol (INITIAL / ECHO / READY). Nominal
//! thresholds for `n = 3t + 1` — `2t+1` echoes, `t+1` ready amplification,
//! `2t+1` ready delivery — translate to the weighted model by *weighted
//! voting* alone (paper Section 1.2): weight `> (1+f_w)/2` for echoes,
//! `> f_w` for amplification, `> 2 f_w` for delivery, with `f_w = 1/3`.
//!
//! The payload ships once per receiver, in INITIAL, and is hashed once per
//! node, on arrival; ECHO and READY vote on the 32-byte digest. Totality
//! under a selective or Byzantine sender is a pull: a node whose delivery
//! quorum on `d` completes before it holds bytes hashing to `d` broadcasts
//! `Request(d)` once, holders answer `Payload(bytes)` at most once per
//! requester, and only bytes whose recomputed digest is the awaited `d`
//! are accepted — a node outputs nothing it has not itself hashed against
//! the digest its delivery quorum voted on. That quorum implies an echo
//! quorum, i.e. honest weight `> f_w` that held the bytes before echoing;
//! a `Request` finds them only if they are still up, so a node does
//! **not** halt on delivery. What is left of the cost is the sender's
//! upload, `n * |M|`; the erasure-coded [`crate::avid`] (paper Section
//! 5.1, weighted with WQ) disperses about `n/k * |M|` instead.

use std::collections::{HashMap, HashSet};

use swiper_core::{EpochEvent, Ratio, StableId, Weights};
#[cfg(not(test))]
use swiper_crypto::hash::digest;
use swiper_crypto::hash::Digest;
use swiper_net::{Context, MessageSize, NodeId, Protocol};
#[cfg(test)]
use tests::digest;

use crate::quorum::{IdentityView, Quorum, QuorumTracker, Roster};

/// Bracha protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrachaMsg {
    /// Sender's initial payload: the only unsolicited message with bytes.
    Initial(Vec<u8>),
    /// Echo of the payload's digest.
    Echo(Digest),
    /// Ready declaration for a digest.
    Ready(Digest),
    /// Pull: the requester's delivery quorum on this digest is complete
    /// and it holds no bytes hashing to it.
    Request(Digest),
    /// Pull reply: bytes the replier holds under the requested digest.
    Payload(Vec<u8>),
}

impl MessageSize for BrachaMsg {
    fn size_bytes(&self) -> usize {
        match self {
            BrachaMsg::Initial(p) | BrachaMsg::Payload(p) => 1 + p.len(),
            BrachaMsg::Echo(_) | BrachaMsg::Ready(_) | BrachaMsg::Request(_) => 1 + 32,
        }
    }
}

/// Quorum configuration shared by all Bracha nodes of one instance.
#[derive(Debug, Clone)]
pub struct BrachaConfig {
    n: usize,
    weights: Option<Weights>,
    /// How delivery-time sender ids map to stable voter identities.
    view: IdentityView,
}

impl BrachaConfig {
    /// Nominal configuration for `n` parties (`t < n/3` tolerated).
    pub fn nominal(n: usize) -> Self {
        BrachaConfig { n, weights: None, view: IdentityView::Party }
    }

    /// Weighted configuration (`f_w = 1/3` of total weight tolerated).
    pub fn weighted(weights: Weights) -> Self {
        BrachaConfig { n: weights.len(), weights: Some(weights), view: IdentityView::Party }
    }

    /// Epoch-aware nominal configuration over the black-box wrapper's
    /// shared [`Roster`]: votes are keyed by stable `(party, offset)`
    /// identity, quorum thresholds track the roster's *current* virtual
    /// population, and [`Protocol::on_reconfigure`] migrates accumulated
    /// votes across renumbering deltas (retired voters shed, survivors
    /// kept). This is the form that stays safe *and live* under mixed
    /// join/leave epoch reconfigurations.
    pub fn epochal(roster: Roster) -> Self {
        BrachaConfig { n: roster.total(), weights: None, view: IdentityView::Virtual(roster) }
    }

    fn quorum(&self, threshold: Ratio) -> Quorum {
        match &self.weights {
            None => {
                let n = self.view.roster().map_or(self.n, Roster::total);
                Quorum::nominal(n, threshold)
            }
            Some(w) => Quorum::weighted(w.clone(), threshold),
        }
    }

    /// Echo quorum: `> (1 + f_w)/2 = 2/3` of weight (or `> 2n/3` parties).
    fn echo_quorum(&self) -> Quorum {
        self.quorum(Ratio::of(2, 3))
    }

    /// Ready amplification: `> f_w = 1/3`.
    fn amplify_quorum(&self) -> Quorum {
        self.quorum(Ratio::of(1, 3))
    }

    /// Delivery: `> 2 f_w = 2/3`.
    fn deliver_quorum(&self) -> Quorum {
        self.quorum(Ratio::of(2, 3))
    }
}

/// One Bracha node.
pub struct BrachaNode {
    config: BrachaConfig,
    /// The designated sender's *stable* identity: dense sender ids are a
    /// per-epoch artifact, so the INITIAL check resolves the delivery-time
    /// id through the identity view and compares coordinates.
    sender: StableId,
    /// `Some(payload)` when this node is the sender.
    input: Option<Vec<u8>>,
    /// The bytes this node holds, under the digest it computed for them:
    /// the sender's INITIAL, unless a verified pull reply replaced it.
    /// The only thing ever output, and what `Request`s are served from.
    held: Option<(Digest, Vec<u8>)>,
    /// What this node echoed / declared ready, retained for
    /// [`Self::reannounce`] (stable-keyed trackers make duplicates free).
    echoed: Option<Digest>,
    readied: Option<Digest>,
    delivered: bool,
    /// The digest whose delivery quorum completed while `held` did not
    /// match it: a `Request` for it is outstanding.
    awaiting: Option<Digest>,
    /// Requesters already sent a `Payload`: a spammer gets one, not many.
    served: HashSet<StableId>,
    echo_quorums: HashMap<Digest, Quorum>,
    ready_amplify: HashMap<Digest, Quorum>,
    ready_deliver: HashMap<Digest, Quorum>,
}

impl BrachaNode {
    /// A non-sender node waiting for `sender`'s broadcast (`sender` is the
    /// dense id under the construction-time numbering). Epochal factories
    /// that can spawn joiners *after* a renumbering delta must use
    /// [`BrachaNode::with_sender_id`] instead: a dense id resolved at
    /// spawn time may name a different logical user than it did at epoch
    /// 0.
    pub fn new(config: BrachaConfig, sender: NodeId) -> Self {
        let sender = config.view.stable_of(sender);
        Self::with_sender_id(config, sender)
    }

    /// A non-sender node pinned to the designated sender's epoch-stable
    /// identity — the renumbering-proof constructor (derive the id from
    /// the epoch-0 mapping, e.g. `mapping.stable_of(0)`).
    pub fn with_sender_id(config: BrachaConfig, sender: StableId) -> Self {
        BrachaNode {
            config,
            sender,
            input: None,
            held: None,
            echoed: None,
            readied: None,
            delivered: false,
            awaiting: None,
            served: HashSet::new(),
            echo_quorums: HashMap::new(),
            ready_amplify: HashMap::new(),
            ready_deliver: HashMap::new(),
        }
    }

    /// The sender node with its payload.
    pub fn sender(config: BrachaConfig, sender: NodeId, payload: Vec<u8>) -> Self {
        let mut node = Self::new(config, sender);
        node.input = Some(payload);
        node
    }

    /// The sender node pinned by stable identity (see
    /// [`BrachaNode::with_sender_id`]).
    pub fn sender_with_id(config: BrachaConfig, sender: StableId, payload: Vec<u8>) -> Self {
        let mut node = Self::with_sender_id(config, sender);
        node.input = Some(payload);
        node
    }

    /// Re-asserts everything this node already said (its INITIAL when it
    /// is the sender, its ECHO, its READY, an unanswered `Request`).
    /// Duplicates are free votes that return the tracker's current
    /// verdict, so both epoch-boundary paths lean on this: the party
    /// regime to fire quorums completed by a reweigh, the epochal regime
    /// to let joiners catch up and pull from whoever holds the bytes now.
    fn reannounce(&self, ctx: &mut Context<BrachaMsg>) {
        if let Some(payload) = self.input.clone() {
            ctx.broadcast(BrachaMsg::Initial(payload));
        }
        if let Some(d) = self.echoed {
            ctx.broadcast(BrachaMsg::Echo(d));
        }
        if let Some(d) = self.readied {
            ctx.broadcast(BrachaMsg::Ready(d));
        }
        if let Some(d) = self.awaiting {
            ctx.broadcast(BrachaMsg::Request(d));
        }
    }

    fn maybe_ready(&mut self, d: Digest, ctx: &mut Context<BrachaMsg>) {
        if self.readied.is_none() {
            self.readied = Some(d);
            ctx.broadcast(BrachaMsg::Ready(d));
        }
    }

    /// The delivery quorum on `d` is complete: output the held bytes if
    /// they are the ones voted on, otherwise pull them (once).
    fn try_deliver(&mut self, d: Digest, ctx: &mut Context<BrachaMsg>) {
        if self.delivered {
            return;
        }
        match &self.held {
            Some((held, payload)) if *held == d => {
                self.delivered = true;
                self.awaiting = None;
                ctx.output(payload.clone());
            }
            _ if self.awaiting.is_none() => {
                self.awaiting = Some(d);
                ctx.broadcast(BrachaMsg::Request(d));
            }
            _ => {}
        }
    }
}

impl Protocol for BrachaNode {
    type Msg = BrachaMsg;

    fn on_start(&mut self, ctx: &mut Context<BrachaMsg>) {
        if let Some(payload) = self.input.clone() {
            ctx.broadcast(BrachaMsg::Initial(payload));
        }
    }

    fn on_message(&mut self, from: NodeId, msg: BrachaMsg, ctx: &mut Context<BrachaMsg>) {
        let voter = self.config.view.stable_of(from);
        match msg {
            BrachaMsg::Initial(payload) => {
                // Only the designated sender's first INITIAL is hashed and
                // echoed; a node that has delivered needs neither.
                if voter != self.sender || self.echoed.is_some() || self.delivered {
                    return;
                }
                let d = digest(&payload);
                self.echoed = Some(d);
                self.held = Some((d, payload));
                ctx.broadcast(BrachaMsg::Echo(d));
                if self.awaiting == Some(d) {
                    self.try_deliver(d, ctx);
                }
            }
            BrachaMsg::Echo(d) => {
                let q = self.echo_quorums.entry(d).or_insert_with(|| self.config.echo_quorum());
                if q.vote(voter) {
                    self.maybe_ready(d, ctx);
                }
            }
            BrachaMsg::Ready(d) => {
                // Amplification: join READY once weight > f_w supports it.
                let amplify =
                    self.ready_amplify.entry(d).or_insert_with(|| self.config.amplify_quorum());
                if amplify.vote(voter) {
                    self.maybe_ready(d, ctx);
                }
                // Delivery: the bigger `> 2 f_w` quorum.
                let deliver =
                    self.ready_deliver.entry(d).or_insert_with(|| self.config.deliver_quorum());
                if deliver.vote(voter) {
                    self.try_deliver(d, ctx);
                }
            }
            BrachaMsg::Request(d) => {
                if let Some((held, payload)) = &self.held {
                    if *held == d && self.served.insert(voter) {
                        ctx.send(from, BrachaMsg::Payload(payload.clone()));
                    }
                }
            }
            BrachaMsg::Payload(bytes) => {
                // Only while a pull is outstanding (else dropped unhashed),
                // and only bytes hashing to the digest the quorum voted on.
                if let Some(d) = self.awaiting.filter(|d| digest(&bytes) == *d) {
                    self.held = Some((d, bytes));
                    self.try_deliver(d, ctx);
                }
            }
        }
    }

    fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<BrachaMsg>) {
        // Weighted party-keyed instances refresh their stake: the event's
        // weight vector replaces the construction-time one in the config
        // (so quorums minted after the boundary start current) and every
        // accumulated tracker re-tallies its kept votes under it — stale
        // stake can neither complete nor hold open a quorum.
        let weighted = self.config.weights.is_some();
        if let Some(weights) = &mut self.config.weights {
            let _ = event.refresh_weights(weights);
        }
        let Some(roster) = self.config.view.roster().cloned() else {
            for q in self
                .echo_quorums
                .values_mut()
                .chain(self.ready_amplify.values_mut())
                .chain(self.ready_deliver.values_mut())
            {
                q.reweigh(event);
            }
            // A reweigh can also COMPLETE a pending quorum (stake grew
            // onto already-recorded voters), but every quorum transition
            // lives in the vote path — and honest nodes vote exactly
            // once. Re-assert what this node already said: duplicates are
            // free votes that return the tracker's current verdict, so
            // every peer (and this node, via self-delivery) re-runs its
            // transitions under the new stake. Only a
            // weighted instance under actual stake drift can be
            // boundary-completed, so the nominal party regime (and
            // stake-stationary boundaries) skip the O(n) re-broadcasts.
            if weighted && event.weights_changed() {
                self.reannounce(ctx);
            }
            return;
        };
        // The epochal (roster-hosted nominal) form migrates every tracker
        // onto the roster's new epoch — survivors' votes carry (stable
        // keys never renumber), retired voters are shed, and thresholds
        // re-derive from the new total.
        for q in self
            .echo_quorums
            .values_mut()
            .chain(self.ready_amplify.values_mut())
            .chain(self.ready_deliver.values_mut())
        {
            q.migrate(&roster);
        }
        // Catch-up re-announcement: voters spawned this epoch missed the
        // pre-boundary traffic, and with enough joins the 2/3 quorums
        // over the *new* population are unreachable from survivor votes
        // alone. Re-broadcasting what this node already said lets joiners
        // participate; stable-keyed trackers make every duplicate a
        // no-op, so the re-announcement can never inflate a tally — this
        // is precisely the move the dense-id design could not afford.
        self.reannounce(ctx);
    }
}

/// A Byzantine sender that equivocates: sends payload `a` to even-numbered
/// nodes and payload `b` to odd ones.
pub struct EquivocatingSender {
    /// Payload for even-numbered receivers.
    pub a: Vec<u8>,
    /// Payload for odd-numbered receivers.
    pub b: Vec<u8>,
}

impl Protocol for EquivocatingSender {
    type Msg = BrachaMsg;

    fn on_start(&mut self, ctx: &mut Context<BrachaMsg>) {
        for to in 0..ctx.n() {
            let payload = if to % 2 == 0 { self.a.clone() } else { self.b.clone() };
            ctx.send(to, BrachaMsg::Initial(payload));
        }
    }

    fn on_message(&mut self, _from: NodeId, _msg: BrachaMsg, _ctx: &mut Context<BrachaMsg>) {}
}

#[cfg(test)]
#[allow(clippy::vec_init_then_push)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;
    use swiper_net::adversary::{AdaptiveDelay, SelectiveAck, Silent};
    use swiper_net::{DelayModel, Simulation};

    thread_local! {
        /// Payload hashes computed by automata on this test's thread.
        static HASHES: Cell<u64> = const { Cell::new(0) };
    }

    /// What the automaton calls as `digest` under test: the real hash,
    /// counted — "hashed once per node" is an assertion, not a comment.
    pub(super) fn digest(data: &[u8]) -> Digest {
        HASHES.set(HASHES.get() + 1);
        swiper_crypto::hash::digest(data)
    }

    /// What a tapped node did.
    #[derive(Debug, PartialEq)]
    enum Did {
        Sent(NodeId, BrachaMsg),
        Output(Vec<u8>),
    }

    /// `(tag, action)` in execution order, shared by the taps of one run.
    type Tape = Rc<RefCell<Vec<(usize, Did)>>>;

    /// Runs a [`BrachaNode`] unchanged and records its sends and output
    /// (Bracha sets no timers, so none are forwarded).
    struct Tap {
        inner: BrachaNode,
        tag: usize,
        tape: Tape,
    }

    impl Tap {
        fn run(
            &mut self,
            ctx: &mut Context<BrachaMsg>,
            call: impl FnOnce(&mut BrachaNode, &mut Context<BrachaMsg>),
        ) {
            let mut inner = Context::detached(ctx.me(), ctx.n(), ctx.now());
            call(&mut self.inner, &mut inner);
            let effects = inner.into_effects();
            let mut tape = self.tape.borrow_mut();
            for (to, msg) in effects.outbox {
                tape.push((self.tag, Did::Sent(to, msg.clone())));
                ctx.send(to, msg);
            }
            if let Some(out) = effects.output {
                tape.push((self.tag, Did::Output(out.clone())));
                ctx.output(out);
            }
            if effects.halted {
                ctx.halt();
            }
        }
    }

    impl Protocol for Tap {
        type Msg = BrachaMsg;

        fn on_start(&mut self, ctx: &mut Context<BrachaMsg>) {
            self.run(ctx, |node, ctx| node.on_start(ctx));
        }

        fn on_message(&mut self, from: NodeId, msg: BrachaMsg, ctx: &mut Context<BrachaMsg>) {
            self.run(ctx, |node, ctx| node.on_message(from, msg, ctx));
        }

        fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<BrachaMsg>) {
            self.run(ctx, |node, ctx| node.on_reconfigure(event, ctx));
        }
    }

    fn sent(tape: &Tape, by: usize, what: fn(&BrachaMsg) -> bool) -> usize {
        let tape = tape.borrow();
        tape.iter()
            .filter(|(tag, did)| *tag == by && matches!(did, Did::Sent(_, m) if what(m)))
            .count()
    }

    fn is_request(m: &BrachaMsg) -> bool {
        matches!(m, BrachaMsg::Request(_))
    }

    fn is_payload(m: &BrachaMsg) -> bool {
        matches!(m, BrachaMsg::Payload(_))
    }

    fn run_nominal(n: usize, byz_silent: usize, seed: u64) -> swiper_net::RunReport {
        let config = BrachaConfig::nominal(n);
        let payload = b"broadcast me".to_vec();
        let mut nodes: Vec<Box<dyn Protocol<Msg = BrachaMsg>>> = Vec::new();
        nodes.push(Box::new(BrachaNode::sender(config.clone(), 0, payload)));
        for i in 1..n {
            if i > n - 1 - byz_silent {
                nodes.push(Box::new(Silent::new()));
            } else {
                nodes.push(Box::new(BrachaNode::new(config.clone(), 0)));
            }
        }
        Simulation::new(nodes, seed).run()
    }

    /// Zoo regression (`SelectiveAck`): the sender is wrapped so its
    /// INITIAL/ECHO/READY reach only a chosen quorum of `2t+1 = 5` of the
    /// 7 parties. The two unchosen parties never see INITIAL, never echo,
    /// and collect only 4 of the 5 READYs the delivery quorum needs —
    /// they can cross it only through the **READY amplification** path
    /// (`> f_w` readies ⇒ join READY), the defense under test. Revert
    /// amplification and the unchosen parties stall one ready short of
    /// delivery forever, on every seed.
    #[test]
    fn selective_ack_sender_cannot_stall_unchosen_parties() {
        use swiper_net::adversary::SelectiveAck;
        let config = BrachaConfig::nominal(7); // t = 2, one Byzantine used
        let payload = b"stall the rest".to_vec();
        for seed in 0..25u64 {
            let chosen = vec![0usize, 1, 2, 3, 4];
            let mut nodes: Vec<Box<dyn Protocol<Msg = BrachaMsg>>> = Vec::new();
            nodes.push(Box::new(SelectiveAck::new(
                BrachaNode::sender(config.clone(), 0, payload.clone()),
                chosen,
            )));
            for _ in 1..7 {
                nodes.push(Box::new(BrachaNode::new(config.clone(), 0)));
            }
            let report = Simulation::new(nodes, seed).run();
            for i in 1..7 {
                assert_eq!(
                    report.outputs[i].as_deref(),
                    Some(payload.as_slice()),
                    "party {i} stalled at seed {seed} without amplification"
                );
            }
        }
    }

    #[test]
    fn honest_sender_all_deliver() {
        let report = run_nominal(4, 0, 7);
        for out in &report.outputs {
            assert_eq!(out.as_deref(), Some(b"broadcast me".as_ref()));
        }
    }

    #[test]
    fn tolerates_t_silent_nodes() {
        // n = 7, t = 2 silent: the 5 honest nodes still deliver.
        let report = run_nominal(7, 2, 21);
        for i in 0..5 {
            assert_eq!(
                report.outputs[i].as_deref(),
                Some(b"broadcast me".as_ref()),
                "node {i}"
            );
        }
    }

    #[test]
    fn equivocating_sender_cannot_split_honest_nodes() {
        for seed in 0..10 {
            let config = BrachaConfig::nominal(4);
            let mut nodes: Vec<Box<dyn Protocol<Msg = BrachaMsg>>> = Vec::new();
            nodes.push(Box::new(EquivocatingSender { a: b"A".to_vec(), b: b"B".to_vec() }));
            for _ in 1..4 {
                nodes.push(Box::new(BrachaNode::new(config.clone(), 0)));
            }
            let report = Simulation::new(nodes, seed).run();
            // Agreement: no two honest nodes deliver different values
            // (delivering nothing is allowed under an equivocating sender).
            assert!(report.agreement_among(&[1, 2, 3]), "seed {seed}");
        }
    }

    #[test]
    fn weighted_whale_quorums_deliver() {
        // A 4-party weighted instance where one party holds most weight.
        let weights = Weights::new(vec![70, 10, 10, 10]).unwrap();
        let config = BrachaConfig::weighted(weights);
        let payload = b"weighted".to_vec();
        let mut nodes: Vec<Box<dyn Protocol<Msg = BrachaMsg>>> = Vec::new();
        nodes.push(Box::new(BrachaNode::sender(config.clone(), 0, payload)));
        for _ in 1..4 {
            nodes.push(Box::new(BrachaNode::new(config.clone(), 0)));
        }
        let report = Simulation::new(nodes, 3).run();
        for out in &report.outputs {
            assert_eq!(out.as_deref(), Some(b"weighted".as_ref()));
        }
    }

    #[test]
    fn weighted_tolerates_heavy_silent_minority() {
        // Silent parties hold 30% of weight (< 1/3): still live.
        let weights = Weights::new(vec![40, 30, 15, 15]).unwrap();
        let config = BrachaConfig::weighted(weights);
        let mut nodes: Vec<Box<dyn Protocol<Msg = BrachaMsg>>> = Vec::new();
        nodes.push(Box::new(BrachaNode::sender(config.clone(), 0, b"x".to_vec())));
        nodes.push(Box::new(Silent::new())); // 30% silent
        nodes.push(Box::new(BrachaNode::new(config.clone(), 0)));
        nodes.push(Box::new(BrachaNode::new(config.clone(), 0)));
        let report = Simulation::new(nodes, 5).run();
        assert_eq!(report.outputs[0].as_deref(), Some(b"x".as_ref()));
        assert_eq!(report.outputs[2].as_deref(), Some(b"x".as_ref()));
        assert_eq!(report.outputs[3].as_deref(), Some(b"x".as_ref()));
    }

    /// The cost this module is built around, on an honest run with unit
    /// delays: the payload ships once per receiver (INITIAL) and every
    /// vote is a 33-byte digest message, nobody pulls, and each node
    /// hashes the payload exactly once.
    #[test]
    fn payload_ships_and_is_hashed_once_per_receiver() {
        let (n, len) = (4u64, 1000u64);
        let payload = vec![0xAB; len as usize];
        let config = BrachaConfig::nominal(n as usize);
        let mut nodes: Vec<Box<dyn Protocol<Msg = BrachaMsg>>> = Vec::new();
        nodes.push(Box::new(BrachaNode::sender(config.clone(), 0, payload.clone())));
        for _ in 1..n {
            nodes.push(Box::new(BrachaNode::new(config.clone(), 0)));
        }
        let report = Simulation::new(nodes, 9).with_delay(DelayModel::Fixed(1)).run();
        assert!(report.outputs.iter().all(|o| o.as_ref() == Some(&payload)));
        // n INITIALs, n ECHO and n READY broadcasts: no Request, no Payload.
        assert_eq!(report.metrics.total_messages(), n + 2 * n * n);
        assert!(report.metrics.total_bytes() <= n * (1 + len) + 2 * n * n * 33);
        assert_eq!(HASHES.get(), n);
    }

    /// A 7-party run whose sender reaches only parties `0..5`, with every
    /// `Request` held back 500 ticks — long after the five holders have
    /// delivered. Returns the outputs and the tape of parties `1..7`.
    fn starved_pull_run(config: BrachaConfig, seed: u64) -> (swiper_net::RunReport, Tape) {
        let tape = Tape::default();
        let payload = b"pulled after the fact".to_vec();
        let mut nodes: Vec<Box<dyn Protocol<Msg = BrachaMsg>>> = Vec::new();
        nodes.push(Box::new(SelectiveAck::new(
            BrachaNode::sender(config.clone(), 0, payload),
            vec![0, 1, 2, 3, 4],
        )));
        for tag in 1..7 {
            let inner = BrachaNode::new(config.clone(), 0);
            nodes.push(Box::new(Tap { inner, tag, tape: tape.clone() }));
        }
        let slow_requests =
            AdaptiveDelay::new(DelayModel::Uniform(1, 16)).rule(is_request, 500);
        let report = Simulation::new(nodes, seed).with_adaptive_delay(slow_requests).run();
        (report, tape)
    }

    /// Totality moved from "the payload rides every vote" to the pull
    /// path: parties 5 and 6 never see INITIAL, complete their delivery
    /// quorum on digests alone, and their `Request`s arrive only after
    /// every holder has delivered. The defence under test is that a
    /// delivered node stays up to serve pulls — halt on delivery (the
    /// old behaviour) and both parties stall on every seed, nominal and
    /// weighted.
    #[test]
    fn starved_parties_pull_the_payload_from_nodes_that_already_delivered() {
        let weighted = Weights::new(vec![20, 20, 20, 20, 10, 5, 5]).unwrap();
        for config in [BrachaConfig::nominal(7), BrachaConfig::weighted(weighted)] {
            for seed in 0..25u64 {
                let (report, tape) = starved_pull_run(config.clone(), seed);
                for i in 1..7 {
                    assert_eq!(
                        report.outputs[i].as_deref(),
                        Some(b"pulled after the fact".as_ref()),
                        "party {i} stalled at seed {seed}"
                    );
                }
                for starved in [5, 6] {
                    assert_eq!(sent(&tape, starved, is_request), 7, "one Request broadcast");
                }
                let tape = tape.borrow();
                let first_reply = tape
                    .iter()
                    .position(|(_, did)| matches!(did, Did::Sent(_, m) if is_payload(m)));
                let holders_done = tape
                    .iter()
                    .rposition(|(tag, did)| *tag < 5 && matches!(did, Did::Output(_)));
                assert!(holders_done < first_reply, "replies came from delivered nodes");
            }
        }
    }

    /// A Byzantine party that re-broadcasts `Request(d)` at start and on
    /// every message it receives from someone else.
    struct RequestSpammer(Digest);

    impl Protocol for RequestSpammer {
        type Msg = BrachaMsg;

        fn on_start(&mut self, ctx: &mut Context<BrachaMsg>) {
            ctx.broadcast(BrachaMsg::Request(self.0));
        }

        fn on_message(&mut self, from: NodeId, _msg: BrachaMsg, ctx: &mut Context<BrachaMsg>) {
            if from != ctx.me() {
                ctx.broadcast(BrachaMsg::Request(self.0));
            }
        }
    }

    /// Amplification bound of the pull path: however often a party asks,
    /// each holder ships it the payload once per instance. The defence is
    /// the `served` set — drop it and every holder answers every one of
    /// the spammer's dozens of requests.
    #[test]
    fn request_spammer_gets_one_payload_per_holder() {
        let n = 7;
        let payload = b"worth asking for, once".to_vec();
        let config = BrachaConfig::nominal(n);
        for seed in 0..25u64 {
            let tape = Tape::default();
            let mut nodes: Vec<Box<dyn Protocol<Msg = BrachaMsg>>> = Vec::new();
            for tag in 0..n - 1 {
                let inner = if tag == 0 {
                    BrachaNode::sender(config.clone(), 0, payload.clone())
                } else {
                    BrachaNode::new(config.clone(), 0)
                };
                nodes.push(Box::new(Tap { inner, tag, tape: tape.clone() }));
            }
            nodes.push(Box::new(RequestSpammer(swiper_crypto::hash::digest(&payload))));
            let report = Simulation::new(nodes, seed).run();
            assert!(report.metrics.sent_by(n - 1) > 10 * n as u64, "seed {seed}: it did spam");
            for holder in 0..n - 1 {
                assert_eq!(report.outputs[holder].as_deref(), Some(payload.as_slice()));
                assert_eq!(sent(&tape, holder, is_payload), 1, "holder {holder} seed {seed}");
            }
        }
    }

    /// The pull reply is the one place foreign bytes can enter a node's
    /// output, so it is accepted only while a pull is outstanding — an
    /// unsolicited `Payload` is dropped before it costs a hash — and only
    /// if the bytes hash to the digest the delivery quorum voted on.
    #[test]
    fn unsolicited_and_wrong_digest_payloads_are_ignored() {
        let real = b"the real bytes".to_vec();
        let d = swiper_crypto::hash::digest(&real);
        let mut node = BrachaNode::new(BrachaConfig::nominal(4), 0);
        let mut step = |from: NodeId, msg: BrachaMsg| {
            let mut ctx = Context::detached(3, 4, 0);
            node.on_message(from, msg, &mut ctx);
            ctx.into_effects()
        };
        let unsolicited = step(1, BrachaMsg::Payload(real.clone()));
        assert!(unsolicited.outbox.is_empty() && unsolicited.output.is_none());
        assert_eq!(HASHES.get(), 0, "nothing was asked for, nothing is hashed");
        // Three of four READYs complete the delivery quorum: the node
        // amplifies, and pulls what it does not hold.
        step(0, BrachaMsg::Ready(d));
        step(1, BrachaMsg::Ready(d));
        let pulled = step(2, BrachaMsg::Ready(d));
        assert_eq!(
            pulled.outbox.iter().filter(|(_, m)| *m == BrachaMsg::Request(d)).count(),
            4
        );
        assert_eq!(step(1, BrachaMsg::Payload(b"forged".to_vec())).output, None);
        assert_eq!(step(2, BrachaMsg::Payload(real.clone())).output, Some(real.clone()));
        assert_eq!(HASHES.get(), 2, "one hash per solicited reply");
        // Later replies to the same pull find nothing outstanding.
        assert_eq!(step(0, BrachaMsg::Payload(real.clone())).output, None);
        assert_eq!(HASHES.get(), 2);
    }

    /// Epochal (black-box roster) form: the boundary retires the sender's
    /// only virtual user and spawns a joiner, so no INITIAL is ever
    /// re-announced to it. The joiner builds its quorums from the
    /// survivors' re-announced digests and gets the bytes by pulling from
    /// them — the only path left.
    #[test]
    fn epochal_joiner_spawned_after_the_initial_delivers_by_pull() {
        use crate::blackbox::{BlackBox, BlackBoxConfig, BlackBoxMsg};
        use swiper_core::{TicketAssignment, TicketDelta};
        type Msg = BlackBoxMsg<BrachaMsg>;
        const JOINER: usize = 99;
        let weights = Weights::new(vec![20, 25, 25, 20, 10]).unwrap();
        let old = TicketAssignment::new(vec![1, 2, 2, 1, 0]);
        let new = TicketAssignment::new(vec![0, 2, 2, 1, 1]);
        let delta = TicketDelta::between(&old, &new).unwrap();
        let event = EpochEvent::new(1, delta, &weights, weights.clone(), 0).unwrap();
        let payload = b"the sender is gone".to_vec();
        // INITIALs land first (5 remote virtual users, one tick), then the
        // boundary, then everything else on the seeded schedule.
        let initial_first = AdaptiveDelay::new(DelayModel::Uniform(2, 24)).rule(
            |m: &Msg| matches!(m, BlackBoxMsg::Inner { msg: BrachaMsg::Initial(_), .. }),
            1,
        );
        for seed in 0..25u64 {
            let tape = Tape::default();
            let config = BlackBoxConfig::new(weights.clone(), &old, Ratio::of(1, 4));
            let sender_id = config.mapping().stable_of(0);
            let nodes: Vec<Box<dyn Protocol<Msg = Msg>>> = (0..5)
                .map(|party| {
                    let (payload, tape) = (payload.clone(), tape.clone());
                    Box::new(BlackBox::new(config.clone(), party, move |v, roster| {
                        let bc = BrachaConfig::epochal(roster.clone());
                        let me = roster.stable_of(v);
                        let inner = if me == sender_id {
                            BrachaNode::sender_with_id(bc, sender_id, payload.clone())
                        } else {
                            BrachaNode::with_sender_id(bc, sender_id)
                        };
                        let tag = if me == StableId::new(4, 0) { JOINER } else { v };
                        Tap { inner, tag, tape: tape.clone() }
                    })) as _
                })
                .collect();
            let report = Simulation::new(nodes, seed)
                .with_adaptive_delay(initial_first.clone())
                .with_reconfiguration(5, event.clone())
                .run();
            assert_eq!(report.reconfigurations, 1, "seed {seed}");
            assert_eq!(
                sent(&tape, JOINER, is_request),
                6,
                "seed {seed}: one Request broadcast"
            );
            assert!(
                tape.borrow().contains(&(JOINER, Did::Output(payload.clone()))),
                "the joiner never delivered at seed {seed}"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_nominal(5, 1, 13);
        let b = run_nominal(5, 1, 13);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.events, b.events);
    }
}
