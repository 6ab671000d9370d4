//! Validated (multi-valued) asynchronous Byzantine agreement
//! (paper Definition 4.3 and Section 6.2).
//!
//! A practical VABA composition in the weighted model, built from the
//! pieces the paper derives:
//!
//! 1. every party reliably broadcasts its proposal
//!    ([`crate::bracha`], converted by weighted voting);
//! 2. once proposals of weight `> 2 f_w` are delivered, a *leader
//!    election coin* — threshold signatures over WR tickets
//!    (Section 4.1) — picks a stake-weighted leader, unpredictable until
//!    the election quorum releases its shares;
//! 3. a weighted binary agreement ([`crate::aba`]) decides whether to
//!    adopt the leader's proposal (input 1 iff delivered and externally
//!    valid); on 0, a new view elects a fresh leader.
//!
//! Properties (exercised in the tests): agreement and external validity
//! always; liveness with probability 1 — each view succeeds when the
//! elected leader's valid proposal was delivered everywhere, which
//! happens with constant probability per view.

use std::collections::HashMap;

use rand::Rng;
use swiper_core::{EpochEvent, Ratio, StableId, TicketAssignment, Weights};
use swiper_crypto::thresh::PartialSignature;
use swiper_net::{Context, Effects, MessageSize, NodeId, Protocol};

use crate::aba::{AbaMsg, AbaNode, AbaSetup};
use crate::bracha::{BrachaConfig, BrachaMsg, BrachaNode};
use crate::keys::{majority, Shares, TicketKeys};
use crate::quorum::{Electorate, QuorumSet};

/// VBA wrapper messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VbaMsg {
    /// A message of proposal-broadcast instance `instance`.
    Rbc {
        /// Which party's proposal broadcast this belongs to.
        instance: u32,
        /// The wrapped Bracha message.
        inner: BrachaMsg,
    },
    /// A message of the view-`view` binary agreement.
    Aba {
        /// The view number.
        view: u32,
        /// The wrapped ABA message.
        inner: AbaMsg,
    },
    /// Leader-election coin shares for a view.
    LeaderShare {
        /// The view number.
        view: u32,
        /// Partial signatures from the sender's key shares.
        partials: Vec<PartialSignature>,
    },
}

impl MessageSize for VbaMsg {
    fn size_bytes(&self) -> usize {
        match self {
            VbaMsg::Rbc { inner, .. } => 4 + inner.size_bytes(),
            VbaMsg::Aba { inner, .. } => 4 + inner.size_bytes(),
            VbaMsg::LeaderShare { partials, .. } => 4 + partials.len() * 16,
        }
    }
}

/// Shared trusted setup for one VBA instance.
#[derive(Debug, Clone)]
pub struct VbaConfig {
    weights: Weights,
    /// The current epoch's WR assignment — the base the next event's
    /// delta must chain from (the election `keys` themselves stay pinned
    /// to the dealing epoch; see [`VbaConfig::on_epoch`]).
    tickets: TicketAssignment,
    keys: TicketKeys,
    aba_setups: Vec<AbaSetup>,
    max_views: u32,
}

impl VbaConfig {
    /// Deals the instance: the WR ticket assignment powers both the
    /// leader-election coin and the per-view ABA coins.
    ///
    /// # Panics
    ///
    /// Panics on weight/ticket mismatch, an empty assignment, or
    /// `max_views == 0`.
    pub fn deal<R: Rng + ?Sized>(
        weights: Weights,
        tickets: &TicketAssignment,
        max_views: u32,
        rng: &mut R,
    ) -> Self {
        assert!(max_views > 0, "need at least one view");
        assert_eq!(weights.len(), tickets.len(), "weights/tickets mismatch");
        let keys = TicketKeys::deal(tickets, majority(tickets), rng);
        let aba_setups = (0..max_views)
            .map(|view| {
                AbaSetup::deal(weights.clone(), tickets, 0xABA_000 + u64::from(view), rng)
            })
            .collect();
        VbaConfig { weights, tickets: tickets.clone(), keys, aba_setups, max_views }
    }

    /// Maximum number of views before giving up.
    pub fn max_views(&self) -> u32 {
        self.max_views
    }

    /// Epoch stake refresh for the shared config, all-or-nothing: an
    /// event whose delta does not chain from the current WR assignment is
    /// rejected (`false`) and NOTHING is touched — refreshing the weights
    /// while the hosted setups ignore the same event would leave the
    /// proposal tally and the per-view quorums under different epochs'
    /// stake. On a chaining event the weight vector future quorums are
    /// minted from follows it, and every per-view ABA setup applies its
    /// coin carry/re-deal rule (so a view instantiated *after* the
    /// boundary deals from the same key generation as a live instance
    /// that re-keyed at it). The **leader-election coin stays pinned to
    /// its dealing epoch**: its shares are released within a single
    /// view's lifetime, and re-dealing mid-election would race the
    /// release — the per-view ABA carry/re-deal split already covers the
    /// long-lived material.
    fn on_epoch(&mut self, event: &EpochEvent) -> bool {
        let Ok(next) = event.delta().apply_to(&self.tickets) else {
            return false;
        };
        self.tickets = next;
        let _ = event.refresh_weights(&mut self.weights);
        for setup in &mut self.aba_setups {
            let _ = setup.on_epoch(event);
        }
        true
    }

    fn election_tag(&self, view: u32) -> Vec<u8> {
        let mut tag = b"swiper.vba.leader.".to_vec();
        tag.extend_from_slice(&view.to_le_bytes());
        tag
    }
}

/// One VBA party.
pub struct VbaNode<V> {
    config: VbaConfig,
    validity: V,
    // Hosted proposal broadcasts, one per party (instance = sender id).
    rbc: Vec<BrachaNode>,
    delivered: Vec<Option<Vec<u8>>>,
    /// Weight `> 2 f_w` of delivered proposals enters the view.
    delivered_quorum: QuorumSet<()>,
    // Views.
    view: u32,
    view_entered: bool,
    /// Each view's leader-election partials.
    elections: HashMap<u32, Shares>,
    leaders: HashMap<u32, usize>,
    abas: HashMap<u32, AbaNode>,
    aba_halted: std::collections::HashSet<u32>,
    /// ABA messages that arrived before the view's instance existed.
    aba_buffer: HashMap<u32, Vec<(NodeId, AbaMsg)>>,
    aba_decisions: HashMap<u32, bool>,
    pending_output_view: Option<u32>,
    output_done: bool,
}

impl<V: Fn(&[u8]) -> bool> VbaNode<V> {
    /// Creates party `me`'s node with its proposal and external validity
    /// predicate.
    pub fn new(config: VbaConfig, me: NodeId, proposal: Vec<u8>, validity: V) -> Self {
        let n = config.weights.len();
        let rbc: Vec<BrachaNode> = (0..n)
            .map(|sender| {
                let bc = BrachaConfig::weighted(config.weights.clone());
                if sender == me {
                    BrachaNode::sender(bc, sender, proposal.clone())
                } else {
                    BrachaNode::new(bc, sender)
                }
            })
            .collect();
        let delivered_quorum =
            QuorumSet::new(Electorate::Weighted(config.weights.clone()), |_| Ratio::of(2, 3));
        VbaNode {
            config,
            validity,
            rbc,
            delivered: vec![None; n],
            delivered_quorum,
            view: 0,
            view_entered: false,
            elections: HashMap::new(),
            leaders: HashMap::new(),
            abas: HashMap::new(),
            aba_halted: Default::default(),
            aba_buffer: HashMap::new(),
            aba_decisions: HashMap::new(),
            pending_output_view: None,
            output_done: false,
        }
    }

    /// Routes effects of a hosted RBC instance.
    fn route_rbc(
        &mut self,
        instance: usize,
        effects: Effects<BrachaMsg>,
        ctx: &mut Context<VbaMsg>,
    ) {
        for (to, inner) in effects.outbox {
            ctx.send(to, VbaMsg::Rbc { instance: instance as u32, inner });
        }
        if let Some(out) = effects.output {
            if self.delivered[instance].is_none() {
                self.delivered[instance] = Some(out);
                self.delivered_quorum.vote((), StableId::solo(instance));
            }
        }
    }

    /// Routes effects of a hosted ABA instance.
    fn route_aba(&mut self, view: u32, effects: Effects<AbaMsg>, ctx: &mut Context<VbaMsg>) {
        for (to, inner) in effects.outbox {
            ctx.send(to, VbaMsg::Aba { view, inner });
        }
        if let Some(out) = effects.output {
            self.aba_decisions.entry(view).or_insert(out == vec![1]);
        }
        if effects.halted {
            self.aba_halted.insert(view);
        }
    }

    /// Advances the state machine as far as possible.
    fn progress(&mut self, ctx: &mut Context<VbaMsg>) {
        // Enter the current view once enough proposals are delivered.
        if !self.view_entered
            && self.delivered_quorum.reached(&())
            && self.view < self.config.max_views
        {
            self.view_entered = true;
            let view = self.view;
            let partials = self.config.keys.partials(ctx.me(), &self.config.election_tag(view));
            ctx.broadcast(VbaMsg::LeaderShare { view, partials });
        }
        // Combine the election once the share threshold is met.
        let view = self.view;
        if self.view_entered && !self.leaders.contains_key(&view) {
            if let Some(sig) = self.elections.get(&view).and_then(Shares::signature) {
                self.leaders.insert(view, self.config.keys.owner_of(&sig));
            }
        }
        // Start the view's ABA once the leader is known.
        if let Some(&leader) = self.leaders.get(&view) {
            if !self.abas.contains_key(&view) {
                let input =
                    self.delivered[leader].as_deref().is_some_and(|p| (self.validity)(p));
                let mut node =
                    AbaNode::new(self.config.aba_setups[view as usize].clone(), input);
                let mut inner_ctx = Context::detached(ctx.me(), ctx.n(), ctx.now());
                node.on_start(&mut inner_ctx);
                self.abas.insert(view, node);
                let fx = inner_ctx.into_effects();
                self.route_aba(view, fx, ctx);
                // Replay messages that arrived before the instance existed.
                for (from, inner) in self.aba_buffer.remove(&view).unwrap_or_default() {
                    if self.aba_halted.contains(&view) {
                        break;
                    }
                    if let Some(node) = self.abas.get_mut(&view) {
                        let mut inner_ctx = Context::detached(ctx.me(), ctx.n(), ctx.now());
                        node.on_message(from, inner, &mut inner_ctx);
                        let fx = inner_ctx.into_effects();
                        self.route_aba(view, fx, ctx);
                    }
                }
            }
        }
        // Act on the view's decision.
        if let Some(&decided) = self.aba_decisions.get(&view) {
            if decided {
                self.pending_output_view = Some(view);
            } else if self.view + 1 < self.config.max_views {
                self.view += 1;
                self.view_entered = false;
                // Re-enter immediately (the proposal quorum only grows).
                self.progress(ctx);
                return;
            }
        }
        // Deliver the output once the winning leader's proposal arrives.
        if let Some(v) = self.pending_output_view {
            if !self.output_done {
                if let Some(&leader) = self.leaders.get(&v) {
                    if let Some(p) = self.delivered[leader].clone() {
                        self.output_done = true;
                        ctx.output(p);
                    }
                }
            }
        }
    }
}

impl<V: Fn(&[u8]) -> bool> Protocol for VbaNode<V> {
    type Msg = VbaMsg;

    fn on_start(&mut self, ctx: &mut Context<VbaMsg>) {
        let n = ctx.n();
        for instance in 0..n {
            let mut inner_ctx = Context::detached(ctx.me(), n, ctx.now());
            self.rbc[instance].on_start(&mut inner_ctx);
            let fx = inner_ctx.into_effects();
            self.route_rbc(instance, fx, ctx);
        }
        self.progress(ctx);
    }

    fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<VbaMsg>) {
        // Stake refresh end to end: the shared config (future quorums +
        // per-view coin setups), the proposal-delivery tally, and every
        // hosted automaton — the RBC instances re-tally their quorum sets
        // under the new stake and fire what that completes, live ABA
        // instances do the same and apply the coin rule. A mis-addressed event is ignored wholesale
        // (half-applying it would split the tallies across epochs).
        if !self.config.on_epoch(event) {
            return;
        }
        // A delivered-proposals quorum this completes is what `progress`
        // below enters the view on.
        self.delivered_quorum.on_epoch(event);
        for instance in 0..self.rbc.len() {
            let mut inner_ctx = Context::detached(ctx.me(), ctx.n(), ctx.now());
            self.rbc[instance].on_reconfigure(event, &mut inner_ctx);
            let fx = inner_ctx.into_effects();
            self.route_rbc(instance, fx, ctx);
        }
        let views: Vec<u32> = self.abas.keys().copied().collect();
        for view in views {
            if self.aba_halted.contains(&view) {
                continue;
            }
            if let Some(node) = self.abas.get_mut(&view) {
                let mut inner_ctx = Context::detached(ctx.me(), ctx.n(), ctx.now());
                node.on_reconfigure(event, &mut inner_ctx);
                let fx = inner_ctx.into_effects();
                self.route_aba(view, fx, ctx);
            }
        }
        self.progress(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: VbaMsg, ctx: &mut Context<VbaMsg>) {
        match msg {
            VbaMsg::Rbc { instance, inner } => {
                let instance = instance as usize;
                if instance >= self.rbc.len() {
                    return;
                }
                let mut inner_ctx = Context::detached(ctx.me(), ctx.n(), ctx.now());
                self.rbc[instance].on_message(from, inner, &mut inner_ctx);
                let fx = inner_ctx.into_effects();
                self.route_rbc(instance, fx, ctx);
            }
            VbaMsg::Aba { view, inner } => {
                if view >= self.config.max_views || self.aba_halted.contains(&view) {
                    return;
                }
                // ABA messages may arrive before the view's instance exists
                // (we only create it once the leader is known); buffer and
                // replay at creation so no BVal/coin share is ever lost.
                if let Some(node) = self.abas.get_mut(&view) {
                    let mut inner_ctx = Context::detached(ctx.me(), ctx.n(), ctx.now());
                    node.on_message(from, inner, &mut inner_ctx);
                    let fx = inner_ctx.into_effects();
                    self.route_aba(view, fx, ctx);
                } else {
                    self.aba_buffer.entry(view).or_default().push((from, inner));
                }
            }
            VbaMsg::LeaderShare { view, partials } => {
                if view >= self.config.max_views {
                    return;
                }
                let config = &self.config;
                let shares = self
                    .elections
                    .entry(view)
                    .or_insert_with(|| Shares::new(config.election_tag(view)));
                shares.add(&config.keys, partials);
            }
        }
        self.progress(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use swiper_core::{Swiper, WeightRestriction};
    use swiper_net::adversary::Silent;
    use swiper_net::Simulation;

    fn config(ws: &[u64], seed: u64) -> VbaConfig {
        let weights = Weights::new(ws.to_vec()).unwrap();
        let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
        VbaConfig::deal(weights, &sol.assignment, 16, &mut StdRng::seed_from_u64(seed))
    }

    fn valid(p: &[u8]) -> bool {
        p.starts_with(b"ok:")
    }

    #[test]
    fn all_honest_agree_on_a_valid_proposal() {
        for seed in [1u64, 2, 3] {
            let cfg = config(&[30, 25, 20, 15, 10], seed);
            let nodes: Vec<Box<dyn Protocol<Msg = VbaMsg>>> = (0..5)
                .map(|p| {
                    Box::new(VbaNode::new(
                        cfg.clone(),
                        p,
                        format!("ok:proposal-{p}").into_bytes(),
                        valid,
                    )) as _
                })
                .collect();
            let report = Simulation::new(nodes, seed).run();
            // Agreement.
            assert!(report.agreement_among(&[0, 1, 2, 3, 4]), "seed {seed}");
            // Liveness + external validity.
            let out =
                report.outputs[0].as_ref().unwrap_or_else(|| panic!("no output, seed {seed}"));
            assert!(valid(out), "invalid output {out:?}, seed {seed}");
            // Integrity: the output is one of the proposals.
            let all: Vec<Vec<u8>> =
                (0..5).map(|p| format!("ok:proposal-{p}").into_bytes()).collect();
            assert!(all.contains(out), "seed {seed}");
        }
    }

    #[test]
    fn tolerates_silent_weight_below_third() {
        // Party 0 (30%) silent: others still decide.
        for seed in [5u64, 6] {
            let cfg = config(&[30, 25, 20, 15, 10], seed);
            let mut nodes: Vec<Box<dyn Protocol<Msg = VbaMsg>>> = Vec::new();
            nodes.push(Box::new(Silent::new()));
            for p in 1..5 {
                nodes.push(Box::new(VbaNode::new(
                    cfg.clone(),
                    p,
                    format!("ok:p{p}").into_bytes(),
                    valid,
                )));
            }
            let report = Simulation::new(nodes, seed).run();
            assert!(report.agreement_among(&[1, 2, 3, 4]), "seed {seed}");
            for p in 1..5 {
                let out = report.outputs[p]
                    .as_ref()
                    .unwrap_or_else(|| panic!("party {p} no output, seed {seed}"));
                assert!(valid(out), "seed {seed}");
            }
        }
    }

    #[test]
    fn invalid_proposals_never_win() {
        // Two parties propose invalid values; the decision must be a valid
        // proposal (external validity), possibly after extra views.
        for seed in [7u64, 8] {
            let cfg = config(&[30, 25, 20, 15, 10], seed);
            let nodes: Vec<Box<dyn Protocol<Msg = VbaMsg>>> = (0..5)
                .map(|p| {
                    let proposal = if p < 2 {
                        format!("BAD:{p}").into_bytes()
                    } else {
                        format!("ok:{p}").into_bytes()
                    };
                    Box::new(VbaNode::new(cfg.clone(), p, proposal, valid)) as _
                })
                .collect();
            let report = Simulation::new(nodes, seed).run();
            assert!(report.agreement_among(&[0, 1, 2, 3, 4]), "seed {seed}");
            if let Some(out) = &report.outputs[2] {
                assert!(valid(out), "invalid decision {out:?}, seed {seed}");
            }
        }
    }

    /// What a drift-only boundary makes a VBA party send: only what a
    /// transition it completed emits. Doubling every stake completes
    /// nothing, so nothing goes out; shifting stake may complete hosted
    /// quorums, but the transitions those fire never re-send a proposal
    /// or an echo. Each hosted RBC instance re-broadcasting its votes at a
    /// drifting boundary — the proposer its whole payload included —
    /// fails both.
    #[test]
    fn a_drift_only_boundary_sends_only_crossed_transitions() {
        use std::cell::RefCell;
        use std::rc::Rc;
        use swiper_core::TicketDelta;

        /// Runs a VBA party unchanged and records what its
        /// `on_reconfigure` sends (VBA sets no timers).
        struct Tap {
            inner: VbaNode<fn(&[u8]) -> bool>,
            at_boundary: Rc<RefCell<Vec<VbaMsg>>>,
        }

        impl Protocol for Tap {
            type Msg = VbaMsg;

            fn on_start(&mut self, ctx: &mut Context<VbaMsg>) {
                self.inner.on_start(ctx);
            }

            fn on_message(&mut self, from: NodeId, msg: VbaMsg, ctx: &mut Context<VbaMsg>) {
                self.inner.on_message(from, msg, ctx);
            }

            fn on_reconfigure(&mut self, event: &EpochEvent, ctx: &mut Context<VbaMsg>) {
                let mut inner = Context::detached(ctx.me(), ctx.n(), ctx.now());
                self.inner.on_reconfigure(event, &mut inner);
                let effects = inner.into_effects();
                for (to, msg) in effects.outbox {
                    self.at_boundary.borrow_mut().push(msg.clone());
                    ctx.send(to, msg);
                }
                if let Some(out) = effects.output {
                    ctx.output(out);
                }
            }
        }

        let weights = Weights::new(vec![40, 30, 20, 10]).unwrap();
        let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let tickets = Swiper::new().solve_restriction(&weights, &params).unwrap().assignment;
        let stay = TicketDelta::between(&tickets, &tickets).unwrap();
        let drift = |to: &[u64]| {
            let to = Weights::new(to.to_vec()).unwrap();
            EpochEvent::new(1, stay.clone(), &weights, to, 0).unwrap()
        };
        let (doubled, shifted) = (drift(&[80, 60, 40, 20]), drift(&[10, 30, 30, 30]));
        for seed in 0..10u64 {
            for (event, crosses_nothing) in [(&doubled, true), (&shifted, false)] {
                for at in [8, 40] {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let cfg = VbaConfig::deal(weights.clone(), &tickets, 16, &mut rng);
                    let at_boundary = Rc::new(RefCell::new(Vec::new()));
                    let nodes: Vec<Box<dyn Protocol<Msg = VbaMsg>>> = (0..4)
                        .map(|p| {
                            let proposal = format!("ok:proposal-{p}").into_bytes();
                            let valid: fn(&[u8]) -> bool = valid;
                            Box::new(Tap {
                                inner: VbaNode::new(cfg.clone(), p, proposal, valid),
                                at_boundary: Rc::clone(&at_boundary),
                            }) as _
                        })
                        .collect();
                    let report = Simulation::new(nodes, seed)
                        .with_reconfiguration(at, event.clone())
                        .run();
                    assert_eq!(report.reconfigurations, 1, "seed {seed} at {at}");
                    assert!(report.unanimity_among(&[0, 1, 2, 3]), "seed {seed} at {at}");
                    let sent = at_boundary.borrow();
                    assert!(
                        !crosses_nothing || sent.is_empty(),
                        "seed {seed} at {at}: {sent:?}"
                    );
                    assert!(
                        !sent.iter().any(|m| matches!(
                            m,
                            VbaMsg::Rbc {
                                inner: BrachaMsg::Initial(_) | BrachaMsg::Echo(_),
                                ..
                            }
                        )),
                        "seed {seed} at {at}: {sent:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn leader_election_is_stake_weighted_and_common() {
        let cfg = config(&[60, 20, 10, 10], 42);
        // Combine the election for view 0 from all shares and check every
        // party computes the same leader.
        let tag = cfg.election_tag(0);
        let partials: Vec<PartialSignature> =
            (0..4).flat_map(|p| cfg.keys.partials(p, &tag)).collect();
        let sig = cfg.keys.combine(&tag, &partials).unwrap();
        assert!(cfg.keys.owner_of(&sig) < 4);
    }
}
